//! Serving latency under chaos vs quiescent supervision in `reach-serve`.
//!
//! Builds a DRLb index per slice of an evolving-graph sequence (the same
//! deterministic schedule `swap_bench` uses), starts the service with the
//! supervised worker pool, and drives it with retrying clients in two
//! modes per worker count:
//!
//! * **quiescent** — supervision on, fault plan inert, no swaps: the
//!   baseline cost of the resilience layer itself.
//! * **storm** — seeded worker crashes, stalls, a slow shard, and
//!   swap-install failures, all racing a hot-swap driver, while every
//!   client rides the faults out through [`RetryPolicy`] backoff under a
//!   per-call deadline budget.
//!
//! Reported per run: throughput, p50/p99 *call* latency (retries and
//! backoff included — the latency a real client sees), fault/recovery
//! counters, and a recovery-time histogram built from
//! [`QueryService::recovery_log`]. Every completed call's answers are
//! verified against `ReachIndex::query` on the generation the call
//! reports; a torn answer aborts the bench, so the numbers double as a
//! load-level differential test of the exactly-once recovery argument.
//!
//! Output lands in `BENCH_chaos.json` at the repo root. Honors
//! `REACH_BENCH_SCALE` / `REACH_BENCH_DATASETS`; `--smoke` shrinks the
//! run for CI.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use reach_bench::{dataset_filter, scaled, Report};
use reach_core::BatchParams;
use reach_datasets::{edge_fraction_slices, workload, QueryMix};
use reach_graph::{DiGraph, OrderAssignment, OrderKind, VertexId};
use reach_index::ReachIndex;
use reach_serve::service::BatchOptions;
use reach_serve::{
    QueryService, ResilienceConfig, RetryPolicy, ServeConfig, ServeError, ServeFaultPlan,
    SupervisorConfig,
};
use reach_vcs::NetworkModel;

const SIM_NODES: usize = 8;
const BATCH: usize = 64;
const SLICES: usize = 3;
const WORKLOAD_SEED: u64 = 0x5a4b;
const FAULT_SEED: u64 = 0xC4A0;
const CLIENTS: usize = 4;
/// Per-call retry budget; storms must never turn into client timeouts.
const CALL_BUDGET: Duration = Duration::from_secs(60);
/// Pacing between storm swaps.
const STORM_PACING: Duration = Duration::from_millis(1);
/// Upper bounds (µs) of the recovery-latency histogram buckets; the last
/// bucket is open-ended.
const RECOVERY_BUCKETS_US: [u64; 5] = [100, 1_000, 10_000, 100_000, u64::MAX];

struct Run {
    dataset: &'static str,
    mode: &'static str,
    workers: usize,
    queries: usize,
    qps: f64,
    p50_latency_us: f64,
    p99_latency_us: f64,
    swaps: u64,
    swap_failures: u64,
    injected_crashes: u64,
    injected_stalls: u64,
    respawns: u64,
    requeued: u64,
    recovery_histogram: [u64; RECOVERY_BUCKETS_US.len()],
    answers_identical: bool,
}

fn build_index(g: &DiGraph) -> Arc<ReachIndex> {
    let ord = OrderAssignment::new(g, OrderKind::DegreeProduct);
    let (idx, _stats) = reach_drl_dist::drlb::run_configured(
        g,
        &ord,
        BatchParams::default(),
        SIM_NODES,
        NetworkModel::default(),
        None,
        None,
    )
    .expect("fault-free build");
    Arc::new(idx)
}

/// Fast supervision cadence so the bench measures recovery, not patience.
fn supervision() -> SupervisorConfig {
    SupervisorConfig {
        check_interval: Duration::from_millis(1),
        stall_timeout: Duration::from_millis(5),
    }
}

fn storm_plan(smoke: bool) -> ServeFaultPlan {
    let (crashes, stalls) = if smoke { (4, 2) } else { (12, 6) };
    ServeFaultPlan::new(FAULT_SEED)
        .with_worker_crashes(0.05, crashes)
        .with_worker_stalls(0.02, Duration::from_millis(20), stalls)
        .with_slow_shard(0, Duration::from_micros(200))
        .with_swap_failures(0.3)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke && std::env::var("REACH_BENCH_SCALE").is_err() {
        std::env::set_var("REACH_BENCH_SCALE", "0.05");
    }
    let queries_per_run = if smoke { 2_000 } else { 12_000 };
    let max_datasets = if smoke { 1 } else { 2 };
    let worker_counts: &[usize] = if smoke { &[2] } else { &[2, 4, 8] };
    let filter = dataset_filter();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut report = Report::new(
        "chaos_bench",
        &[
            "Name", "Mode", "Workers", "QPS", "p50_us", "p99_us", "Crashes", "Stalls", "Respawns",
        ],
    );
    let mut runs: Vec<Run> = Vec::new();

    let mut used = 0usize;
    for spec in reach_datasets::mediums() {
        if let Some(f) = &filter {
            if !f.contains(&spec.name.to_string()) {
                continue;
            }
        }
        if used == max_datasets {
            break;
        }
        used += 1;
        let spec = scaled(&spec);
        let g = spec.generate();
        let slices = edge_fraction_slices(&g, SLICES, 0xacce);
        let indices: Vec<Arc<ReachIndex>> = slices.iter().map(build_index).collect();
        let queries = workload(&g, QueryMix::Uniform, queries_per_run, WORKLOAD_SEED);
        // Ground truth per slice: generation g is served by slice g % K.
        let expect: Vec<Vec<bool>> = indices
            .iter()
            .map(|idx| queries.iter().map(|&(s, t)| idx.query(s, t)).collect())
            .collect();

        for &workers in worker_counts {
            for (mode, storm) in [("quiescent", false), ("storm", true)] {
                let m = drive(&indices, workers, &queries, &expect, storm, smoke);
                assert!(
                    m.answers_identical,
                    "{} {mode}: torn answer at {workers} workers",
                    spec.name
                );
                report.row(vec![
                    spec.name.into(),
                    mode.into(),
                    workers.to_string(),
                    format!("{:.0}", m.qps),
                    format!("{:.1}", m.p50_latency_us),
                    format!("{:.1}", m.p99_latency_us),
                    m.injected_crashes.to_string(),
                    m.injected_stalls.to_string(),
                    m.respawns.to_string(),
                ]);
                runs.push(Run {
                    dataset: spec.name,
                    mode,
                    workers,
                    ..m
                });
            }
        }
    }

    let json_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_chaos.json");
    std::fs::write(&json_path, render_json(parallelism, smoke, &runs)).expect("write bench json");
    println!("wrote {}", json_path.display());
    report.finish();
}

/// One measured run: `CLIENTS` retrying clients split the batched
/// workload, optionally under the full fault storm plus a swap driver.
/// Per-call latency includes every retry and backoff sleep — it is the
/// latency a real client observes.
fn drive(
    indices: &[Arc<ReachIndex>],
    workers: usize,
    queries: &[(VertexId, VertexId)],
    expect: &[Vec<bool>],
    storm: bool,
    smoke: bool,
) -> Run {
    let k = indices.len();
    let plan = if storm {
        storm_plan(smoke)
    } else {
        ServeFaultPlan::new(FAULT_SEED) // inert: no faults, supervision only
    };
    let cfg = ServeConfig::with_workers(workers).with_resilience(ResilienceConfig {
        fault_plan: plan,
        supervisor: supervision(),
    });
    let svc = QueryService::start(Arc::clone(&indices[0]), cfg);
    let batches: Vec<(usize, &[(VertexId, VertexId)])> = {
        let mut pos = 0;
        queries
            .chunks(BATCH)
            .map(|c| {
                let at = pos;
                pos += c.len();
                (at, c)
            })
            .collect()
    };
    let clients_done = AtomicBool::new(false);
    let swaps_done = AtomicU64::new(0);
    let swap_failures = AtomicU64::new(0);
    let torn = AtomicBool::new(false);
    let next_batch = AtomicUsize::new(0);

    let (wall, latencies) = std::thread::scope(|scope| {
        if storm {
            let svc = &svc;
            let clients_done = &clients_done;
            let swaps_done = &swaps_done;
            let swap_failures = &swap_failures;
            scope.spawn(move || {
                // Re-target the same index after a failed install so the
                // `generation % k` ground-truth mapping survives: failed
                // installs never advance the generation.
                let mut next = 1usize;
                while !clients_done.load(Ordering::Acquire) {
                    match svc.try_swap_index(Arc::clone(&indices[next % k])) {
                        Ok(_) => {
                            swaps_done.fetch_add(1, Ordering::Relaxed);
                            next += 1;
                            std::thread::sleep(STORM_PACING);
                        }
                        Err(ServeError::SwapFailed { .. }) => {
                            swap_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected swap error: {e}"),
                    }
                }
            });
        }

        let t0 = Instant::now();
        let client_latencies: Vec<Vec<f64>> = std::thread::scope(|inner| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let svc = &svc;
                    let batches = &batches;
                    let next_batch = &next_batch;
                    let torn = &torn;
                    inner.spawn(move || {
                        let policy = RetryPolicy::new(FAULT_SEED ^ c as u64);
                        let mut lats = Vec::with_capacity(batches.len() / CLIENTS + 1);
                        loop {
                            let i = next_batch.fetch_add(1, Ordering::Relaxed);
                            let Some(&(at, chunk)) = batches.get(i) else {
                                break;
                            };
                            let t = Instant::now();
                            let (answers, generation) = policy
                                .submit_with_retries_tagged(
                                    svc,
                                    chunk,
                                    BatchOptions::default(),
                                    CALL_BUDGET,
                                )
                                .expect("retries ride out every recoverable fault");
                            lats.push(t.elapsed().as_secs_f64());
                            let truth = &expect[generation as usize % k][at..at + answers.len()];
                            if answers != truth {
                                torn.store(true, Ordering::Relaxed);
                            }
                        }
                        lats
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        clients_done.store(true, Ordering::Release);
        (wall, client_latencies.concat())
    });
    let recoveries = svc.recovery_log();
    let stats = svc.shutdown();
    assert!(stats.is_balanced(), "terminal accounting balances");
    assert_eq!(
        stats.requeued, stats.injected_crashes,
        "every crash harvested exactly one sub-batch"
    );

    let mut recovery_histogram = [0u64; RECOVERY_BUCKETS_US.len()];
    for r in &recoveries {
        let us = r.as_micros() as u64;
        let bucket = RECOVERY_BUCKETS_US.iter().position(|&ub| us <= ub).unwrap();
        recovery_histogram[bucket] += 1;
    }

    let mut latencies = latencies;
    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p).round() as usize] * 1e6;
    Run {
        dataset: "",
        mode: "",
        workers,
        queries: queries.len(),
        qps: queries.len() as f64 / wall,
        p50_latency_us: pct(0.50),
        p99_latency_us: pct(0.99),
        swaps: swaps_done.load(Ordering::Relaxed),
        swap_failures: swap_failures.load(Ordering::Relaxed),
        injected_crashes: stats.injected_crashes,
        injected_stalls: stats.injected_stalls,
        respawns: stats.respawns,
        requeued: stats.requeued,
        recovery_histogram,
        answers_identical: !torn.load(Ordering::Relaxed),
    }
}

/// Hand-rolled JSON (the workspace deliberately carries no serde).
fn render_json(parallelism: usize, smoke: bool, runs: &[Run]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"chaos\",\n");
    out.push_str(&format!("  \"scale\": {},\n", reach_bench::scale()));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"available_parallelism\": {parallelism},\n"));
    out.push_str(&format!("  \"sim_nodes\": {SIM_NODES},\n"));
    out.push_str(&format!("  \"batch_size\": {BATCH},\n"));
    out.push_str(&format!("  \"slices\": {SLICES},\n"));
    out.push_str(&format!("  \"clients\": {CLIENTS},\n"));
    out.push_str(&format!("  \"fault_seed\": {FAULT_SEED},\n"));
    out.push_str(&format!(
        "  \"recovery_bucket_upper_us\": {RECOVERY_BUCKETS_US:?},\n"
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"mode\": \"{}\", \"workers\": {}, \
             \"queries\": {}, \"qps\": {:.1}, \"p50_latency_us\": {:.2}, \
             \"p99_latency_us\": {:.2}, \"swaps\": {}, \"swap_failures\": {}, \
             \"injected_crashes\": {}, \"injected_stalls\": {}, \"respawns\": {}, \
             \"requeued\": {}, \"recovery_histogram\": {:?}, \
             \"answers_identical\": {}}}{}\n",
            r.dataset,
            r.mode,
            r.workers,
            r.queries,
            r.qps,
            r.p50_latency_us,
            r.p99_latency_us,
            r.swaps,
            r.swap_failures,
            r.injected_crashes,
            r.injected_stalls,
            r.respawns,
            r.requeued,
            r.recovery_histogram,
            r.answers_identical,
            if i + 1 == runs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
