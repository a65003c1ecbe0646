//! Every name the benchmark emits, declared once: workloads, end-to-end
//! metrics with their regression bounds, per-layer metrics. `BENCHMARK.json`
//! at the repo root is this table rendered by the `manifest` subcommand;
//! `--smoke` and a unit test fail when the file and the table differ.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::stats::Summary;

/// How long one driver run measures.
pub const RUN_SECONDS: u64 = 15;

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "build",
        "index time and size are the paper's headline: six Table-V graphs through distributed DRLb, save, open and first answers; vcs + drl-dist do the work",
    ),
    (
        "wire_point",
        "batch-1 requests on a cached RAM index: per-request overhead (framing, socket, queue hand-off) is ~99 % of the time; a kernel change must not move it",
    ),
    (
        "wire_scan",
        "batch-1024 uniform pairs on an mmap v2 index, 16x the result cache: cursor decode + merge dominate; the Epoch::Source path, opposite of wire_point",
    ),
    (
        "churn",
        "writes beside reads: paced edge events through reach-ingest repair and hot-swap while a client queries; the only load on ingest, core::dynamic and the swap path",
    ),
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees; `bound` is the relative worsening
/// that counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer (`<crate>.<what>`). `exact` counts must repeat
/// exactly between runs of one commit on one seed.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// Bound of every metric that is CPU or memory time on the measuring
/// host. A fixed single-threaded loop on the 2-core VM this was sized on
/// wanders ±13 % within minutes (README, "Sizing"), and ten runs that
/// straddle a slow spell spread 10–19 % — so these take the contract's
/// maximum. Metrics that are a timer (`connect_p50_us`) or a count
/// (`index_bytes`) repeat to the digit and are bound tightly.
const WALL: f64 = 0.25;

/// Every workload reports every one of these (the driver's contract);
/// README.md says what each means on each workload.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Lower, WALL),
    e2e("rss_mb", "MB", Lower, WALL),
    e2e("build_s", "s", Lower, WALL),
    e2e("index_bytes", "bytes", Lower, 0.001),
    e2e("open_ms", "ms", Lower, WALL),
    e2e("req_p50_us", "us", Lower, WALL),
    e2e("queries_per_s", "1/s", Higher, WALL),
    e2e("connect_p50_us", "us", Lower, 0.05),
    e2e("visibility_p50_ms", "ms", Lower, WALL),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// The six Table-V mediums, in registry order (`drl-dist.wall_s.<name>`).
pub const GRAPHS: [&str; 6] = ["WEBW", "DBPE", "CITE", "CITP", "TW", "GO"];

/// Measured in the traced run. A workload that does not exercise a layer
/// reports 0 for it.
pub const PER_LAYER: [PerLayer; 64] = [
    layer("datasets.generate_s", "s", Lower),
    layer("graph.order_s", "s", Lower),
    exact("vcs.supersteps", "count", Lower),
    exact("vcs.local_messages", "count", Lower),
    exact("vcs.remote_messages", "count", Lower),
    exact("vcs.remote_bytes", "bytes", Lower),
    exact("vcs.broadcast_bytes", "bytes", Lower),
    layer("vcs.comm_modeled_s", "s", Lower),
    layer("vcs.compute_serial_s", "s", Lower),
    layer("vcs.compute_critical_s", "s", Lower),
    layer("vcs.barrier_s", "s", Lower),
    layer("vcs.parallel_eff", "ratio", Higher),
    layer("vcs.thread_scaling", "ratio", Higher),
    layer("drl-dist.wall_s.WEBW", "s", Lower),
    layer("drl-dist.wall_s.DBPE", "s", Lower),
    layer("drl-dist.wall_s.CITE", "s", Lower),
    layer("drl-dist.wall_s.CITP", "s", Lower),
    layer("drl-dist.wall_s.TW", "s", Lower),
    layer("drl-dist.wall_s.GO", "s", Lower),
    exact("drl-dist.label_entries", "count", Lower),
    layer("drl-dist.speedup_vs_tol", "ratio", Higher),
    layer("tol.build_s", "s", Lower),
    layer("index.encode_s", "s", Lower),
    exact("index.ram_bytes", "bytes", Lower),
    layer("index.load_ram_ms", "ms", Lower),
    layer("index.mmap_open_ms", "ms", Lower),
    layer("index.query_ns", "ns", Lower),
    exact("index.scan_len", "count", Lower),
    exact("index.positive_frac", "frac", Higher),
    layer("index.ram.query_ns", "ns", Lower),
    layer("index.mmap.query_ns", "ns", Lower),
    layer("index.bloom.query_ns", "ns", Lower),
    exact("index.bloom.skip_frac", "frac", Higher),
    layer("serve.submit_us", "us", Lower),
    layer("serve.over_index_us", "us", Lower),
    layer("serve.cache_hit_frac", "frac", Higher),
    layer("serve.max_queue_depth", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.ram.submit_us", "us", Lower),
    layer("serve.source.submit_us", "us", Lower),
    layer("serve.swap_ms", "ms", Lower),
    layer("serve.swaps", "count", Higher),
    layer("served.ping_us", "us", Lower),
    layer("served.over_serve_us", "us", Lower),
    layer("served.frame_us", "us", Lower),
    exact("served.bytes_per_req", "bytes", Lower),
    layer("wire.req_p99_us", "us", Lower),
    layer("wire.slo_miss_frac", "frac", Lower),
    layer("ingest.repair_ms_per_batch", "ms", Lower),
    layer("ingest.repair_ms_per_event", "ms", Lower),
    layer("ingest.publish_ms", "ms", Lower),
    layer("ingest.batches", "count", Lower),
    layer("ingest.publishes", "count", Higher),
    layer("ingest.flush_by_age_frac", "frac", Lower),
    layer("ingest.submit_block_ms", "ms", Lower),
    layer("ingest.gen_late_ms", "ms", Lower),
    layer("ingest.repair_over_rebuild", "ratio", Lower),
    layer("ingest.visibility_p50_ms", "ms", Lower),
    layer("ingest.visibility_p90_ms", "ms", Lower),
    layer("core.refloods_per_event", "count", Lower),
    layer("core.label_changes_per_event", "count", Lower),
    layer("core.apply_batch_ms", "ms", Lower),
    layer("core.rebuild_s", "s", Lower),
    layer("trace.overhead_frac", "frac", Lower),
];

/// The declared `drl-dist.wall_s.<graph>` name of a Table-V medium.
pub fn wall_metric(graph: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| n.strip_prefix("drl-dist.wall_s.") == Some(graph))
        .expect("a Table-V medium")
}

/// The unit a declared metric is reported in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// What one run measured, by declared name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, Summary>);

impl Metrics {
    /// Records `name`; panics on a name no table declares or on a second
    /// value for it — both are bugs in a workload.
    pub fn set(&mut self, name: &'static str, summary: Summary) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        assert!(summary.value.is_finite(), "metric {name} is not a number");
        assert!(
            self.0.insert(name, summary).is_none(),
            "metric {name} set twice"
        );
    }

    /// Records a single measured number.
    pub fn set_value(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::single(value));
    }

    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.0.get(name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |s| s.value)
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::obj([
        (
            "command",
            Value::Arr(command.iter().map(|s| Value::str(*s)).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::obj([("name", Value::str(*name)), ("why", Value::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Path of the committed manifest (one level above this package).
pub fn manifest_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// Fails when the committed `BENCHMARK.json` is not the table above.
pub fn check_manifest_file() -> Result<(), String> {
    let path = manifest_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let on_disk = crate::json::parse(&text)?;
    if on_disk == manifest() {
        Ok(())
    } else {
        Err(format!(
            "{} differs from the tables in benchmark/src/metrics.rs; regenerate it with the `manifest` subcommand",
            path.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(GRAPHS.iter().all(|g| wall_metric(g).ends_with(g)));
        assert!(manifest().to_string().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_this_table() {
        check_manifest_file().unwrap();
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn an_undeclared_name_is_refused() {
        Metrics::default().set_value("made.up", 1.0);
    }
}
