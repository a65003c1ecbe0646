//! What the workloads share: the run's settings, its outcome, and the
//! timed calls into the build → save → open → serve path that every
//! workload's set-up goes through.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use reach_core::BatchParams;
use reach_graph::{DiGraph, OrderAssignment, OrderKind, VertexId};
use reach_index::{CodecId, MmapIndex, ReachIndex};
use reach_serve::{ServeConfig, ServeStats};
use reach_served::{IndexMode, ServedConfig, Server};
use reach_vcs::{NetworkModel, RunStats};

use crate::host;
use crate::json::Value;
use crate::metrics::Metrics;
use crate::stats::{self, Summary};
use crate::trace::Lane;

/// Simulated cluster size of every distributed build (the repo's benches
/// use the same).
pub const SIM_NODES: usize = 8;

/// Graph scale of a `--smoke` run.
const SMOKE_SCALE: f64 = 0.05;

/// Where index files, traces and result files go: `benchmark/out`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One run's settings. Load sizing follows the host: engine threads =
/// min(nproc, 4), two service workers, and at most min(nproc, 2) client
/// threads/connections from this one process.
pub struct Cfg {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub engine_threads: usize,
    pub workers: usize,
    pub clients: usize,
    /// Where index files and traces go (`benchmark/out`).
    pub out_dir: PathBuf,
}

impl Cfg {
    pub fn new(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Cfg {
        let nproc = host::nproc();
        Cfg {
            seed,
            seconds,
            trace,
            smoke,
            engine_threads: nproc.min(4),
            workers: 2,
            clients: nproc.clamp(1, 2),
            out_dir: out_dir(),
        }
    }

    /// The workload's graph scale, or the smoke scale.
    pub fn scale(&self, full: f64) -> f64 {
        if self.smoke {
            SMOKE_SCALE
        } else {
            full
        }
    }

    /// Times a workload's set-up runs; `setup_s` is the median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// Connect → PING → close round trips per run.
    pub fn connect_probes(&self) -> usize {
        if self.smoke {
            10
        } else {
            100
        }
    }

    /// RELOADs per run at least, and how long to go on past them.
    pub fn reload_probes(&self) -> (usize, std::time::Duration) {
        if self.smoke {
            (12, std::time::Duration::ZERO)
        } else {
            (25, std::time::Duration::from_secs(4))
        }
    }

    /// mmap opens to a first answer per run at least, and how long to go
    /// on past them: fifty opens of a small file take 65 ms, a window any
    /// burst on the host covers whole.
    pub fn open_probes(&self) -> (usize, std::time::Duration) {
        if self.smoke {
            (10, std::time::Duration::ZERO)
        } else {
            (50, std::time::Duration::from_secs(1))
        }
    }

    /// Query pairs per stream: 2^18 distinct-ish pairs are 16× the
    /// service's 2^14-entry result cache.
    pub fn stream_len(&self) -> usize {
        if self.smoke {
            1 << 12
        } else {
            1 << 18
        }
    }

    /// Segments of the measured phase: one per second, at least
    /// [`MIN_SEGMENTS`](crate::load::MIN_SEGMENTS). A background burst on
    /// the host spoils the segments it falls in, and the median over many
    /// short segments leaves those out. The traced run uses an even count
    /// so recorded and unrecorded segments pair up.
    pub fn segments(&self) -> usize {
        Self::paired(
            (self.seconds.round() as usize).max(crate::load::MIN_SEGMENTS),
            self.trace,
        )
    }

    /// Segments for samples whose unit of independence is longer than a
    /// second (a publish cycle of `churn` takes ~0.6 s).
    pub fn coarse_segments(&self) -> usize {
        Self::paired(crate::load::MIN_SEGMENTS, self.trace)
    }

    fn paired(n: usize, trace: bool) -> usize {
        n + usize::from(trace && n % 2 == 1)
    }

    /// Span recording alternates per segment in a traced run.
    pub fn ab_segment(&self) -> Option<f64> {
        self.trace.then(|| self.seconds / self.segments() as f64)
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted (requests, probes, builds) and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates by name; every one must hold.
    pub gates: Vec<(&'static str, bool)>,
    /// Extra facts for the result file (scales, tail level used, …).
    pub notes: Vec<(&'static str, Value)>,
}

impl Outcome {
    /// Records a gate; a gate checked several times holds only if every
    /// check did.
    pub fn gate(&mut self, name: &'static str, ok: bool) {
        if !ok {
            eprintln!("GATE FAILED: {name}");
        }
        match self.gates.iter_mut().find(|g| g.0 == name) {
            Some(g) => g.1 &= ok,
            None => self.gates.push((name, ok)),
        }
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.1)
    }

    pub fn note(&mut self, key: &'static str, value: Value) {
        self.notes.push((key, value));
    }
}

/// What one set-up measured: its seconds, and those of the index build
/// inside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SetUp {
    pub setup_s: f64,
    pub build_s: f64,
}

impl SetUp {
    /// The line a `--setup-only` process prints for its parent.
    pub fn to_line(self) -> String {
        Value::obj([
            ("setup_s", Value::Num(self.setup_s)),
            ("build_s", Value::Num(self.build_s)),
        ])
        .to_string()
    }

    fn from_line(line: &str) -> Option<SetUp> {
        let v = crate::json::parse(line).ok()?;
        Some(SetUp {
            setup_s: v.get("setup_s")?.as_f64()?,
            build_s: v.get("build_s")?.as_f64()?,
        })
    }
}

/// Runs `workload`'s set-up `n` times, each in a process of its own
/// (this program with `--setup-only`), one after the other.
///
/// `setup_s` is the median over several set-ups, but only one of them can
/// be the one that is measured: repeating the others in this process
/// would leave its heap in a state no server starts from, and made
/// `rss_mb` swing ±10 % with how the allocator had recycled the earlier
/// set-ups' memory. So every set-up is the first thing its process does,
/// like a server's start.
pub fn set_ups_in_children(cfg: &Cfg, workload: &str, n: usize) -> Vec<SetUp> {
    let exe = std::env::current_exe().expect("own path");
    (0..n)
        .map(|_| {
            let mut child = std::process::Command::new(&exe);
            child.args(["--workload", workload, "--seed", &cfg.seed.to_string()]);
            child.args([
                "--seconds",
                &cfg.seconds.to_string(),
                "--trace",
                "0",
                "--setup-only",
            ]);
            if cfg.smoke {
                child.arg("--smoke");
            }
            let out = child.output().expect("start a set-up process");
            let line = String::from_utf8_lossy(&out.stdout);
            line.lines()
                .last()
                .filter(|_| out.status.success())
                .and_then(SetUp::from_line)
                .unwrap_or_else(|| {
                    panic!(
                        "set-up process failed: {}",
                        String::from_utf8_lossy(&out.stderr)
                    )
                })
        })
        .collect()
}

/// A Table-V stand-in at some scale, with its frozen order.
///
/// The graphs are the repo's fixed datasets (each spec carries its own
/// generator seed), so sizes and exact counts repeat across `--seed`s;
/// `--seed` drives what is asked of them: query streams, churn events,
/// sampled oracle pairs.
pub struct Prepared {
    pub name: &'static str,
    pub g: DiGraph,
    pub ord: OrderAssignment,
    pub generate_s: f64,
    pub order_s: f64,
}

pub fn prepare(name: &str, scale: f64, lane: &mut Lane<'_>) -> Prepared {
    let mut spec = reach_datasets::by_name(name).expect("a Table-V dataset name");
    spec.vertices = ((spec.vertices as f64 * scale) as usize).max(16);
    spec.edges = ((spec.edges as f64 * scale) as usize).max(16);
    let (g, generate_s) = lane.time("datasets.generate", 0, |_| spec.generate());
    let (ord, order_s) = lane.time("graph.order", 0, |_| {
        OrderAssignment::new(&g, OrderKind::DegreeProduct)
    });
    Prepared {
        name: spec.name,
        g,
        ord,
        generate_s,
        order_s,
    }
}

/// One distributed DRLb build.
pub struct Built {
    pub idx: Arc<ReachIndex>,
    pub stats: RunStats,
    pub wall_s: f64,
}

pub fn build(p: &Prepared, threads: usize, request: u64, lane: &mut Lane<'_>) -> Built {
    let ((idx, stats), wall_s) = lane.time("drl-dist.run_configured", request, |_| {
        reach_drl_dist::drlb::run_configured(
            &p.g,
            &p.ord,
            BatchParams::default(),
            SIM_NODES,
            NetworkModel::default(),
            None,
            Some(threads),
        )
        .expect("a fault-free build cannot fail")
    });
    Built {
        idx: Arc::new(idx),
        stats,
        wall_s,
    }
}

/// A v2 file as `reach build --compressed` writes it: delta-varint
/// labels, no Bloom section.
pub struct Saved {
    pub path: PathBuf,
    pub bytes: u64,
    pub encode_s: f64,
}

pub fn save(idx: &ReachIndex, path: PathBuf, request: u64, lane: &mut Lane<'_>) -> Saved {
    let (res, encode_s) = lane.time("index.save_index_v2", request, |_| {
        reach_index::save_index_v2(idx, &path, CodecId::DeltaVarint, None)
    });
    res.expect("write the index file");
    let bytes = std::fs::metadata(&path).expect("stat the index file").len();
    Saved {
        path,
        bytes,
        encode_s,
    }
}

/// `ReachIndex::query` on every pair of `stream`: what every answer the
/// program gives is held against.
pub fn expected(idx: &ReachIndex, stream: &[(VertexId, VertexId)]) -> Vec<bool> {
    stream.iter().map(|&(s, t)| idx.query(s, t)).collect()
}

/// mmap-opens `path` and answers one query: seconds from open to answer.
pub fn open_first(
    path: &Path,
    pair: (VertexId, VertexId),
    request: u64,
    lane: &mut Lane<'_>,
) -> (bool, f64) {
    lane.time("index.mmap_open", request, |_| {
        let index = MmapIndex::open(path).expect("open the index file just written");
        index.query(pair.0, pair.1)
    })
}

/// Opens of `path` — at least `n`, then on until `budget` is spent or
/// `20 n` are done — after a first one (cold directory entry, first page
/// faults of this file) that is dropped; every answer must equal `expect`.
pub fn open_probe(
    path: &Path,
    pair: (VertexId, VertexId),
    expect: bool,
    (n, budget): (usize, std::time::Duration),
    out: &mut Outcome,
    lane: &mut Lane<'_>,
) -> Summary {
    let mut ms = Vec::with_capacity(n);
    let started = std::time::Instant::now();
    for i in 0..=20 * n {
        if i > n && started.elapsed() >= budget {
            break;
        }
        let (answer, secs) = open_first(path, pair, i as u64 + 1, lane);
        out.gate("mmap first answer == ReachIndex::query", answer == expect);
        if i > 0 {
            ms.push(secs * 1e3);
        }
    }
    out.count(ms.len() as u64 + 1, 0);
    stats::sort(&mut ms);
    Summary {
        value: stats::percentile(&ms, 0.5),
        samples: ms.len(),
        ..Summary::single(0.0)
    }
}

/// The server configuration of every workload: the default `ServeConfig`
/// (result cache on) with the run's worker count, default quotas.
pub fn served_config(cfg: &Cfg, mode: IndexMode, reload_path: &Path) -> ServedConfig {
    ServedConfig {
        serve: ServeConfig::with_workers(cfg.workers),
        index_mode: mode,
        reload_path: Some(reload_path.to_path_buf()),
        ..ServedConfig::default()
    }
}

/// Starts a loopback server on `idx` held in RAM, or on `file` through
/// `mode`.
pub fn start_server(cfg: &Cfg, mode: IndexMode, idx: &Arc<ReachIndex>, file: &Path) -> Server {
    let served = served_config(cfg, mode, file);
    match mode {
        IndexMode::Ram => Server::start(Arc::clone(idx), served, "127.0.0.1:0"),
        _ => Server::start_with_source(
            mode.load(file).expect("load the index file just written"),
            served,
            "127.0.0.1:0",
        ),
    }
    .expect("bind a loopback port")
}

/// Shuts a server down and checks its ledger.
pub fn shutdown(server: Server, out: &mut Outcome) -> ServeStats {
    let stats = server.shutdown();
    out.gate("ServeStats::is_balanced at shutdown", stats.is_balanced());
    stats
}

/// The serve-side counters of the workload's main server.
pub fn set_serve_counters(m: &mut Metrics, s: &ServeStats) {
    m.set_value("serve.cache_hit_frac", s.cache_hit_rate());
    m.set_value("serve.max_queue_depth", s.max_queue_depth as f64);
    m.set_value("serve.rejected", (s.rejected() + s.shed) as f64);
    m.set_value("serve.swaps", s.swaps as f64);
}

/// One segment's worth of distributed builds: `(stats, wall seconds)`
/// per graph.
pub type BuildRound = Vec<(RunStats, f64)>;

/// The `vcs.*` metrics from the `RunStats` the builds returned. Times are
/// summed over a round's graphs and the median taken over rounds; the
/// traffic counts are deterministic, so they come from the first round
/// and every other round must repeat them.
pub fn set_vcs(out: &mut Outcome, rounds: &[BuildRound], threads: usize) {
    let sum = |round: &BuildRound, f: &dyn Fn(&RunStats) -> f64| {
        round.iter().map(|(s, _)| f(s)).sum::<f64>()
    };
    let over_rounds = |f: &dyn Fn(&BuildRound) -> f64| {
        let per: Vec<f64> = rounds.iter().map(f).collect();
        Summary::of_segments(&per, rounds.len() * rounds[0].len())
    };
    let wall = |r: &BuildRound| r.iter().map(|(_, w)| w).sum::<f64>();
    let serial = |r: &BuildRound| sum(r, &|s| s.compute_seconds_serial);

    let counts = |r: &BuildRound| {
        [
            sum(r, &|s| s.supersteps as f64),
            sum(r, &|s| s.comm.local_messages as f64),
            sum(r, &|s| s.comm.remote_messages as f64),
            sum(r, &|s| s.comm.remote_bytes as f64),
            sum(r, &|s| s.comm.broadcast_bytes as f64),
        ]
    };
    let first = counts(&rounds[0]);
    out.gate(
        "repeated builds send identical traffic",
        rounds.iter().all(|r| counts(r) == first),
    );
    let m = &mut out.metrics;
    for (name, value) in [
        "vcs.supersteps",
        "vcs.local_messages",
        "vcs.remote_messages",
        "vcs.remote_bytes",
        "vcs.broadcast_bytes",
    ]
    .into_iter()
    .zip(first)
    {
        m.set_value(name, value);
    }
    m.set(
        "vcs.comm_modeled_s",
        over_rounds(&|r| sum(r, &|s| s.comm_seconds)),
    );
    m.set("vcs.compute_serial_s", over_rounds(&serial));
    m.set(
        "vcs.compute_critical_s",
        over_rounds(&|r| sum(r, &|s| s.compute_seconds)),
    );
    // What the wall clock holds beyond evenly divided compute: routing,
    // merging, and waiting at the barrier.
    m.set(
        "vcs.barrier_s",
        over_rounds(&|r| wall(r) - serial(r) / threads as f64),
    );
    m.set(
        "vcs.parallel_eff",
        over_rounds(&|r| serial(r) / (threads as f64 * wall(r))),
    );
}

/// `setup_s` and `build_s` of a workload whose set-up holds its one
/// index build: medians over the set-ups.
pub fn set_set_ups(m: &mut Metrics, set_ups: &[SetUp]) {
    let over = |f: fn(&SetUp) -> f64| {
        let values: Vec<f64> = set_ups.iter().map(f).collect();
        Summary::of_segments(&values, values.len())
    };
    m.set("setup_s", over(|s| s.setup_s));
    m.set("build_s", over(|s| s.build_s));
}

/// Traced-run ratio of the headline number in recorded (odd) segments to
/// unrecorded (even) ones, minus one.
pub fn overhead_frac(per_segment: &[f64]) -> f64 {
    let pick = |parity: usize| -> Vec<f64> {
        per_segment
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, v)| v)
            .collect()
    };
    let (off, on) = (pick(0), pick(1));
    if off.is_empty() || on.is_empty() {
        return 0.0;
    }
    stats::median(&on) / stats::median(&off) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_gate_checked_twice_holds_only_if_both_checks_did() {
        let mut out = Outcome::default();
        out.gate("g", true);
        out.gate("g", false);
        out.gate("g", true);
        out.gate("h", true);
        assert_eq!(out.gates, vec![("g", false), ("h", true)]);
        assert!(!out.correct());
    }

    #[test]
    fn a_set_up_sample_survives_the_pipe() {
        let s = SetUp {
            setup_s: 1.6132,
            build_s: 1.3608,
        };
        assert_eq!(SetUp::from_line(&s.to_line()), Some(s));
        assert_eq!(SetUp::from_line("{\"setup_s\": 1}"), None);
    }

    #[test]
    fn overhead_compares_recorded_with_unrecorded_segments() {
        // off, on, off, on, off, on
        let f = overhead_frac(&[100.0, 110.0, 100.0, 112.0, 102.0, 108.0]);
        assert!((f - 0.10).abs() < 1e-12);
        assert_eq!(overhead_frac(&[100.0]), 0.0);
    }
}
