//! Tail-latency impact of index hot-swapping in `reach-serve`.
//!
//! Builds a DRLb index for each slice of an evolving-graph sequence
//! (cumulative edge slices of a Table-V medium synthetic, the same
//! deterministic schedule `tests/hot_swap.rs` uses), then drives the
//! service with a pipelined async workload in two modes per worker count:
//!
//! * **quiesced** — no swaps while measuring: the baseline.
//! * **storm** — a driver thread hot-swaps through the slice indices as
//!   fast as a small pacing sleep allows for the whole measurement window.
//!
//! Reported per run: throughput, p50/p99 batch latency, and the number of
//! swaps that landed mid-measurement. The comparison quantifies the
//! design's claim that a swap never drains or blocks in-flight batches —
//! a storm should dent p99 only by the label-rebuild CPU it steals, not
//! by stalls. Every batch's answers are verified against
//! `ReachIndex::query` on the generation the ticket reports
//! ([`BatchTicket::wait_tagged`]); a torn batch aborts the bench.
//!
//! Output lands in `BENCH_swap.json` at the repo root. Honors
//! `REACH_BENCH_SCALE` / `REACH_BENCH_DATASETS`; `--smoke` shrinks the
//! run for CI.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use reach_bench::{dataset_filter, scaled, Report};
use reach_core::BatchParams;
use reach_datasets::{edge_fraction_slices, workload, QueryMix};
use reach_graph::{DiGraph, OrderAssignment, OrderKind, VertexId};
use reach_index::ReachIndex;
use reach_serve::{BatchTicket, QueryService, ServeConfig};
use reach_vcs::NetworkModel;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SIM_NODES: usize = 8;
const BATCH: usize = 64;
const SLICES: usize = 3;
const WORKLOAD_SEED: u64 = 0x5a4b;
/// Pacing between storm swaps.
const STORM_PACING: Duration = Duration::from_micros(500);

struct Run {
    dataset: &'static str,
    mode: &'static str,
    workers: usize,
    queries: usize,
    qps: f64,
    p50_latency_us: f64,
    p99_latency_us: f64,
    swaps: u64,
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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke && std::env::var("REACH_BENCH_SCALE").is_err() {
        std::env::set_var("REACH_BENCH_SCALE", "0.05");
    }
    let queries_per_run = if smoke { 2_000 } else { 20_000 };
    let max_datasets = if smoke { 1 } else { 2 };
    let filter = dataset_filter();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut report = Report::new(
        "swap_bench",
        &[
            "Name", "Mode", "Workers", "QPS", "p50_us", "p99_us", "Swaps",
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
        // The evolving sequence: cumulative edge slices over one vertex
        // set, a DRLb index per slice. Slice SLICES-1 is the full graph.
        let slices = edge_fraction_slices(&g, SLICES, 0xacce);
        let indices: Vec<Arc<ReachIndex>> = slices.iter().map(build_index).collect();
        let queries = workload(&g, QueryMix::Uniform, queries_per_run, WORKLOAD_SEED);
        // Ground truth per slice: generation g is served by slice g % K.
        let expect: Vec<Vec<bool>> = indices
            .iter()
            .map(|idx| queries.iter().map(|&(s, t)| idx.query(s, t)).collect())
            .collect();

        for workers in THREAD_COUNTS {
            for (mode, storm) in [("quiesced", false), ("storm", true)] {
                let m = drive(&indices, workers, &queries, &expect, storm);
                assert!(
                    m.answers_identical,
                    "{} {mode}: torn batch at {workers} workers",
                    spec.name
                );
                report.row(vec![
                    spec.name.into(),
                    mode.into(),
                    workers.to_string(),
                    format!("{:.0}", m.qps),
                    format!("{:.1}", m.p50_latency_us),
                    format!("{:.1}", m.p99_latency_us),
                    m.swaps.to_string(),
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

    let json_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_swap.json");
    std::fs::write(&json_path, render_json(parallelism, smoke, &runs)).expect("write bench json");
    println!("wrote {}", json_path.display());
    report.finish();
}

/// One measured run: a pipelined async workload, optionally under a swap
/// storm. Every ticket's answers are checked against the generation it
/// reports, so the bench doubles as a load-level differential test.
fn drive(
    indices: &[Arc<ReachIndex>],
    workers: usize,
    queries: &[(VertexId, VertexId)],
    expect: &[Vec<bool>],
    storm: bool,
) -> Run {
    let k = indices.len();
    let svc = QueryService::start(Arc::clone(&indices[0]), ServeConfig::with_workers(workers));
    let window = 4 * workers;
    let stop = AtomicBool::new(false);
    let swaps_done = AtomicU64::new(0);
    let torn = AtomicBool::new(false);

    let (wall, latencies) = std::thread::scope(|scope| {
        if storm {
            let svc = &svc;
            let stop = &stop;
            let swaps_done = &swaps_done;
            scope.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Acquire) {
                    svc.swap_index(Arc::clone(&indices[(i + 1) % k]));
                    swaps_done.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                    std::thread::sleep(STORM_PACING);
                }
            });
        }

        let mut outstanding: VecDeque<(BatchTicket, Instant, usize)> = VecDeque::new();
        let mut latencies: Vec<f64> = Vec::with_capacity(queries.len() / BATCH + 1);
        let collect = |outstanding: &mut VecDeque<(BatchTicket, Instant, usize)>,
                       latencies: &mut Vec<f64>| {
            let (ticket, t0, at) = outstanding.pop_front().expect("non-empty window");
            let (answers, generation) = ticket
                .wait_tagged()
                .expect("no deadline and bounded window: no rejection");
            latencies.push(t0.elapsed().as_secs_f64());
            let truth = &expect[generation as usize % k][at..at + answers.len()];
            if answers != truth {
                torn.store(true, Ordering::Relaxed);
            }
        };

        let t0 = Instant::now();
        let mut pos = 0usize;
        for chunk in queries.chunks(BATCH) {
            if outstanding.len() == window {
                collect(&mut outstanding, &mut latencies);
            }
            let submitted = Instant::now();
            let ticket = svc
                .submit_batch_async(chunk, None)
                .expect("window below queue capacity: admission cannot fail");
            outstanding.push_back((ticket, submitted, pos));
            pos += chunk.len();
        }
        while !outstanding.is_empty() {
            collect(&mut outstanding, &mut latencies);
        }
        let wall = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        (wall, latencies)
    });
    let stats = svc.shutdown();
    let swaps = swaps_done.load(Ordering::Relaxed);
    assert_eq!(stats.swaps, swaps, "every storm swap is counted");

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
        swaps,
        answers_identical: !torn.load(Ordering::Relaxed),
    }
}

/// Hand-rolled JSON (the workspace deliberately carries no serde).
fn render_json(parallelism: usize, smoke: bool, runs: &[Run]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"swap\",\n");
    out.push_str(&format!("  \"scale\": {},\n", reach_bench::scale()));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"available_parallelism\": {parallelism},\n"));
    out.push_str(&format!("  \"sim_nodes\": {SIM_NODES},\n"));
    out.push_str(&format!("  \"batch_size\": {BATCH},\n"));
    out.push_str(&format!("  \"slices\": {SLICES},\n"));
    out.push_str(&format!(
        "  \"storm_pacing_us\": {},\n",
        STORM_PACING.as_micros()
    ));
    out.push_str(&format!("  \"thread_counts\": {THREAD_COUNTS:?},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"mode\": \"{}\", \"workers\": {}, \
             \"queries\": {}, \"qps\": {:.1}, \"p50_latency_us\": {:.2}, \
             \"p99_latency_us\": {:.2}, \"swaps\": {}, \"answers_identical\": {}}}{}\n",
            r.dataset,
            r.mode,
            r.workers,
            r.queries,
            r.qps,
            r.p50_latency_us,
            r.p99_latency_us,
            r.swaps,
            r.answers_identical,
            if i + 1 == runs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
