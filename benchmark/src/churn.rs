//! `churn`: writes beside reads.
//!
//! WEBW at scale 0.25 is served over the wire from RAM while one thread
//! feeds `churn_stream` edge events (insert 0.6, growth 0.02) to
//! `reach-ingest` at a paced 40 events/s and one closed-loop client asks
//! one uniform pair per request. The pipeline runs its *default*
//! `IngestConfig` (verification off), so a later change of the default
//! repair mode shows here. It publishes through a sink of the benchmark's
//! own that times each `swap_index` and keeps every generation, so that
//! each answer can be checked against the index that gave it.
//!
//! The independent samples of the visibility metrics are publish cycles
//! (about one per second), not events: scale 0.25 gives ~15 cycles in a
//! 15 s run where scale 1.0 gives one or two. Events are paced open-loop
//! — a writer does not wait for visibility — at a rate low enough that
//! the repair worker, not the generator, sets the cycle.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use reach_core::dynamic::DynamicIndex;
use reach_datasets::{churn_stream, final_edge_set, workload, ChurnConfig, QueryMix};
use reach_graph::{DiGraph, DynamicGraph, EdgeEvent, VertexId};
use reach_index::ReachIndex;
use reach_ingest::{IndexSink, Ingest, IngestConfig, IngestStats};
use reach_serve::{QueryService, ServeConfig};
use reach_served::{IndexMode, Server, WireClient};

use crate::common::{self, Cfg, Outcome, Prepared, Saved};
use crate::json::Value;
use crate::layers;
use crate::load::{self, Check, ClientLog, Traffic};
use crate::stats;
use crate::trace::{Lane, Tracer};
use crate::wire;

const GRAPH: &str = "WEBW";
const SCALE: f64 = 0.25;

/// Events per second, one thread, open loop.
const EVENT_RATE: f64 = 40.0;

/// Seed of the event log. The log is part of the dataset, like the graph
/// it changes: which edges a stream touches decides how far each repair
/// floods (a batch costs 130–185 ms and the final graph rebuilds in
/// 0.15–0.23 s depending on the stream), so a log drawn from `--seed`
/// made `visibility_p50_ms` range over 400–640 ms between seeds. `--seed`
/// drives the reads beside the writes.
const EVENT_LOG_SEED: u64 = 0xc0de;

/// Pairs per request of the reader beside the writes. One: with 64 a
/// request fans out to both workers, and with one core taken by the
/// repair worker the two flip between scheduling modes — segment medians
/// of 44 and 60 µs within one run, run medians jumping between them.
const BATCH: usize = 1;

/// Limit on the p99 round trip.
const SLO: Duration = Duration::from_millis(10);

/// Events per `DynamicIndex::apply_batch` call of the direct measurement.
const DIRECT_BATCH: usize = 64;

/// The sink between the pipeline and the server: forwards to
/// `swap_index`, timing it, and keeps every installed generation.
struct TimedSink {
    server: Arc<Server>,
    /// `generations[g]` is the index generation `g` answers from.
    generations: Mutex<Vec<Arc<ReachIndex>>>,
    swaps: Mutex<Vec<(Instant, Instant)>>,
}

impl IndexSink for TimedSink {
    fn install(&self, index: Arc<ReachIndex>) -> u64 {
        // Kept before it can answer, so a check never misses it.
        let expected = {
            let mut generations = self.generations.lock().expect("sink state");
            generations.push(Arc::clone(&index));
            generations.len() as u64 - 1
        };
        let start = Instant::now();
        let generation = self.server.service().swap_index(index);
        self.swaps
            .lock()
            .expect("sink state")
            .push((start, Instant::now()));
        assert_eq!(
            generation, expected,
            "generations are consecutive from one publisher"
        );
        generation
    }
}

/// A served index with a running pipeline beside it.
struct Env {
    server: Arc<Server>,
    graph: Prepared,
    /// The initial index (serial `improved::drl`) and its build seconds.
    initial: Arc<ReachIndex>,
    build_s: f64,
    saved: Saved,
    events: Vec<EdgeEvent>,
    stream: Vec<(VertexId, VertexId)>,
    sink: Arc<TimedSink>,
    ingest: Ingest,
    clients: Vec<WireClient>,
}

fn set_up(cfg: &Cfg, tracer: &Tracer, lane: &mut Lane<'_>) -> Env {
    let graph = common::prepare(GRAPH, cfg.scale(SCALE), lane);
    let (initial, build_s) = lane.time("core.improved_drl", 0, |_| {
        reach_core::improved::drl(&graph.g, &graph.ord)
    });
    let initial = Arc::new(initial);
    let saved = common::save(&initial, cfg.file("churn.ridx"), 0, lane);
    let events = churn_stream(
        &graph.g,
        &ChurnConfig {
            events: (EVENT_RATE * cfg.seconds).ceil() as usize,
            insert_fraction: 0.6,
            growth_fraction: 0.02,
            seed: EVENT_LOG_SEED,
        },
    );
    let stream = workload(&graph.g, QueryMix::Uniform, cfg.stream_len(), cfg.seed);
    let server = Arc::new(common::start_server(
        cfg,
        IndexMode::Ram,
        &initial,
        &saved.path,
    ));
    let sink = Arc::new(TimedSink {
        server: Arc::clone(&server),
        generations: Mutex::new(vec![Arc::clone(&initial)]),
        swaps: Mutex::new(Vec::new()),
    });
    let (shadow, _) = lane.time("core.dynamic_index_new", 0, |_| {
        DynamicIndex::new(DynamicGraph::from_digraph(&graph.g), graph.ord.clone())
    });
    let config = IngestConfig {
        verify_publishes: false,
        ..IngestConfig::default()
    };
    let ingest = Ingest::start(shadow, Arc::clone(&sink) as Arc<dyn IndexSink>, config);
    let mut clients =
        load::connect(server.local_addr(), 1).expect("connect to the loopback server");
    let traffic = Traffic {
        stream: &stream,
        batch: BATCH,
        check: Check::Keep,
    };
    lane.time("workload.warm_up", 0, |lane| {
        load::closed_loop(
            &mut clients,
            traffic,
            wire::WARM_LIMIT,
            wire::WARM_REQUESTS,
            tracer,
            lane.current(),
            None,
        )
    });
    Env {
        server,
        graph,
        initial,
        build_s,
        saved,
        events,
        stream,
        sink,
        ingest,
        clients,
    }
}

/// What is left when the pipeline has stopped: its counters, what the
/// sink kept, and the server, still running.
struct Stopped {
    ingest: IngestStats,
    generations: Vec<Arc<ReachIndex>>,
    swaps: Vec<(Instant, Instant)>,
    server: Server,
}

/// Drains and joins the pipeline (it publishes what is pending), then
/// takes the sink apart.
fn stop_pipeline(ingest: Ingest, sink: Arc<TimedSink>, server: Arc<Server>) -> Stopped {
    let stats = ingest.shutdown();
    let sink =
        Arc::into_inner(sink).expect("the joined worker held the only other handle to the sink");
    let TimedSink {
        server: sinks_handle,
        generations,
        swaps,
    } = sink;
    drop(sinks_handle);
    Stopped {
        ingest: stats,
        generations: generations.into_inner().expect("sink state"),
        swaps: swaps.into_inner().expect("sink state"),
        server: Arc::into_inner(server).expect("the sink held the only other handle to the server"),
    }
}

/// What the pacing thread saw.
struct Pacing {
    /// Seconds each event was due, since the phase began.
    due_s: Vec<f64>,
    /// Seconds each `Ingest::submit` blocked (backpressure).
    block_s: Vec<f64>,
    /// Seconds each event was sent after it was due.
    late_s: Vec<f64>,
}

/// Feeds `events` at [`EVENT_RATE`], each timed from when it was due.
fn pace(
    ingest: &Ingest,
    events: &[EdgeEvent],
    start: Instant,
    lane: &mut Lane<'_>,
    ab_segment: Option<f64>,
) -> Pacing {
    let mut p = Pacing {
        due_s: Vec::with_capacity(events.len()),
        block_s: Vec::with_capacity(events.len()),
        late_s: Vec::with_capacity(events.len()),
    };
    for (i, &ev) in events.iter().enumerate() {
        let due_s = i as f64 / EVENT_RATE;
        let due = start + Duration::from_secs_f64(due_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if let Some(seg) = ab_segment {
            lane.set_recording((due_s / seg) as usize % 2 == 1);
        }
        p.late_s
            .push(Instant::now().saturating_duration_since(due).as_secs_f64());
        let (sent, block_s) = lane.time("ingest.submit", i as u64 + 1, |_| ingest.submit(ev));
        sent.expect("the pipeline is open");
        p.due_s.push(due_s);
        p.block_s.push(block_s);
    }
    p
}

/// One set-up and nothing else, for a parent process that wants its
/// timings (`--setup-only`).
pub fn set_up_only(cfg: &Cfg, tracer: &Tracer) -> common::SetUp {
    let mut lane = tracer.lane(0);
    let (env, setup_s) = lane.time("workload.set_up", 0, |lane| set_up(cfg, tracer, lane));
    let build_s = env.build_s;
    drop(env.clients);
    let stopped = stop_pipeline(env.ingest, env.sink, env.server);
    common::shutdown(stopped.server, &mut Outcome::default());
    common::SetUp { setup_s, build_s }
}

/// Runs the `churn` workload.
pub fn run(cfg: &Cfg, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut lane = tracer.lane(0);
    let lane = &mut lane;

    // Set-up: this process's own, which is measured, after the others.
    let mut set_ups = common::set_ups_in_children(cfg, "churn", cfg.setups() - 1);
    let (mut env, setup_s) = lane.time("workload.set_up", 0, |lane| set_up(cfg, tracer, lane));
    set_ups.push(common::SetUp {
        setup_s,
        build_s: env.build_s,
    });
    let traffic = Traffic {
        stream: &env.stream,
        batch: BATCH,
        check: Check::Keep,
    };

    // Measured phase: the pacer writes, the client reads.
    let limit = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let ((logs, pacing), _) = lane.time("workload.measure", 0, |lane| {
        let mut pacer_lane = lane.child();
        let (ingest, events) = (&env.ingest, &env.events);
        std::thread::scope(|scope| {
            let pacer =
                scope.spawn(move || pace(ingest, events, start, &mut pacer_lane, cfg.ab_segment()));
            let logs = load::closed_loop(
                &mut env.clients,
                traffic,
                limit,
                usize::MAX,
                tracer,
                lane.current(),
                cfg.ab_segment(),
            );
            (logs, pacer.join().expect("pacing thread panicked"))
        })
    });
    env.ingest.publish_now().expect("the pipeline is open");
    let mut client = env.clients.remove(0);
    let stopped = stop_pipeline(env.ingest, env.sink, env.server);
    let ingest = &stopped.ingest;

    let wire_summary = load::summarize(&logs, BATCH, cfg.seconds, cfg.segments(), SLO);
    let wrong = wrong_answers(&logs[0], traffic, &stopped.generations);
    out.count(wire_summary.attempted, wire_summary.failed + wrong);
    out.gate(
        "wire answers == ReachIndex::query on the answering generation",
        wire_summary.failed + wrong == 0,
    );

    // Event enqueue → covering publish, from when the event was due.
    out.count(env.events.len() as u64, 0);
    out.gate(
        "one visibility sample per event",
        ingest.visibility_ns.len() == env.events.len(),
    );
    let visibility: Vec<(f64, f64)> = (0..ingest.visibility_ns.len().min(pacing.due_s.len()))
        .map(|i| {
            (
                pacing.due_s[i],
                (pacing.late_s[i] + pacing.block_s[i]) * 1e3 + ingest.visibility_ns[i] as f64 / 1e6,
            )
        })
        .collect();
    let mut by_segment = stats::split_segments(&visibility, cfg.seconds, cfg.coarse_segments());
    by_segment.retain(|s| !s.is_empty());
    let visibility_p50 = stats::segment_percentile(&mut by_segment, 0.5);
    let (visibility_p90, visibility_tail) = stats::segment_tail(&mut by_segment, 0.90);

    // The index now served must be what a from-scratch build of the
    // final edge set gives under the frozen order (streamed-in vertices
    // ranked lowest, in first-seen order).
    let (final_n, final_edges) = final_edge_set(&env.graph.g, &env.events);
    let final_graph = DiGraph::from_edges(final_n, final_edges);
    let mut final_ord = env.graph.ord.clone();
    while final_ord.len() < final_n {
        final_ord.push_lowest();
    }
    let (rebuilt, rebuild_s) = lane.time("core.improved_drl", 0, |_| {
        reach_core::improved::drl(&final_graph, &final_ord)
    });
    let (served, generation) = stopped.server.service().index_tagged();
    out.gate(
        "final served index == from-scratch build of the final edge set",
        *served == rebuilt,
    );
    out.gate(
        "every published generation was kept",
        generation as usize + 1 == stopped.generations.len(),
    );

    let initial = &env.initial;
    let expect = common::expected(initial, &env.stream);
    let open = common::open_probe(
        &env.saved.path,
        env.stream[0],
        expect[0],
        cfg.open_probes(),
        &mut out,
        lane,
    );

    if cfg.trace {
        layers::stack(
            layers::Stack {
                backing: Arc::clone(initial) as Arc<dyn reach_index::IndexSource>,
                service: QueryService::start(
                    Arc::clone(initial),
                    ServeConfig::with_workers(cfg.workers),
                ),
                traffic: Traffic {
                    check: Check::Expect(&expect),
                    ..traffic
                },
                callers: 1,
                file: &env.saved.path,
                built: initial,
                req_p50_us: wire_summary.p50_us.value,
            },
            &mut client,
            cfg,
            &mut out,
            lane,
        );
        let apply_ms = direct_apply_ms(cfg, &env.graph, &env.events, lane);

        let per = |total: f64, n: usize| total / n.max(1) as f64;
        let repair_ms_per_batch = per(ingest.repair_ns as f64 / 1e6, ingest.batches);
        let mut swap_ms: Vec<f64> = stopped
            .swaps
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
            .collect();
        stats::sort(&mut swap_ms);
        for (i, &(a, b)) in stopped.swaps.iter().enumerate() {
            lane.record("serve.swap_index", i as u64 + 1, a, b);
        }
        let mut late_ms: Vec<f64> = pacing.late_s.iter().map(|s| s * 1e3).collect();
        stats::sort(&mut late_ms);

        let m = &mut out.metrics;
        m.set_value("datasets.generate_s", env.graph.generate_s);
        m.set_value("graph.order_s", env.graph.order_s);
        m.set_value("index.encode_s", env.saved.encode_s);
        m.set("index.mmap_open_ms", open);
        m.set_value("index.ram_bytes", initial.size_bytes() as f64);
        m.set("wire.req_p99_us", wire_summary.p99_us);
        m.set_value("wire.slo_miss_frac", wire_summary.slo_miss_frac);
        m.set_value("ingest.repair_ms_per_batch", repair_ms_per_batch);
        m.set_value(
            "ingest.repair_ms_per_event",
            per(ingest.repair_ns as f64 / 1e6, ingest.events_ingested),
        );
        m.set_value(
            "ingest.publish_ms",
            per(ingest.publish_ns as f64 / 1e6, ingest.publishes),
        );
        m.set_value("ingest.batches", ingest.batches as f64);
        m.set_value("ingest.publishes", ingest.publishes as f64);
        m.set_value(
            "ingest.flush_by_age_frac",
            per(ingest.flushes_by_age as f64, ingest.batches),
        );
        m.set_value(
            "ingest.submit_block_ms",
            pacing.block_s.iter().sum::<f64>() * 1e3,
        );
        m.set_value("ingest.gen_late_ms", stats::percentile(&late_ms, 0.99));
        m.set_value(
            "ingest.repair_over_rebuild",
            repair_ms_per_batch / 1e3 / rebuild_s,
        );
        m.set("ingest.visibility_p50_ms", visibility_p50);
        m.set("ingest.visibility_p90_ms", visibility_p90);
        m.set_value(
            "core.refloods_per_event",
            per(ingest.repair.refloods() as f64, ingest.events_applied),
        );
        m.set_value(
            "core.label_changes_per_event",
            per(ingest.repair.label_changes as f64, ingest.events_applied),
        );
        m.set_value("core.apply_batch_ms", apply_ms);
        m.set_value("core.rebuild_s", rebuild_s);
        m.set_value(
            "serve.swap_ms",
            if swap_ms.is_empty() {
                0.0
            } else {
                stats::percentile(&swap_ms, 0.5)
            },
        );
        m.set_value(
            "trace.overhead_frac",
            common::overhead_frac(&wire_summary.segment_p50_us),
        );
    } else {
        wire::connect_probe(cfg, &stopped.server, &mut out, lane);
        let m = &mut out.metrics;
        common::set_set_ups(m, &set_ups);
        m.set_value("index_bytes", env.saved.bytes as f64);
        m.set("open_ms", open);
        m.set("req_p50_us", wire_summary.p50_us);
        m.set("queries_per_s", wire_summary.queries_per_s);
        m.set("visibility_p50_ms", visibility_p50);
    }
    out.note(
        "ingest.visibility_p90_ms_percentile",
        Value::Num(visibility_tail),
    );
    out.note(
        "wire.req_p99_us_percentile",
        Value::Num(wire_summary.tail_level),
    );
    out.note(
        "graph",
        Value::str(format!("{GRAPH} x{}", cfg.scale(SCALE))),
    );
    out.note("events", Value::Num(env.events.len() as f64));
    out.note("publishes", Value::Num(ingest.publishes as f64));

    drop(client);
    let served_stats = common::shutdown(stopped.server, &mut out);
    if cfg.trace {
        common::set_serve_counters(&mut out.metrics, &served_stats);
    } else {
        out.metrics.set_value("rss_mb", crate::host::peak_rss_mb());
    }
    out
}

/// Requests whose answers differ from `ReachIndex::query` on the index
/// of the generation that answered them.
fn wrong_answers(log: &ClientLog, traffic: Traffic<'_>, generations: &[Arc<ReachIndex>]) -> u64 {
    let mut kept = log.kept.chunks(traffic.batch);
    let mut wrong = 0;
    for req in log.requests.iter().filter(|r| r.ok) {
        let answers = kept.next().expect("answers were kept for every ok request");
        let right = generations.get(req.generation as usize).is_some_and(|idx| {
            traffic
                .chunk(req.chunk as usize)
                .iter()
                .zip(answers)
                .all(|(&(s, t), &a)| idx.query(s, t) == a)
        });
        wrong += u64::from(!right);
    }
    wrong
}

/// `DynamicIndex::apply_batch` called directly, no pipeline: median ms
/// over the stream's first few batches of [`DIRECT_BATCH`] events on a
/// fresh shadow index.
fn direct_apply_ms(cfg: &Cfg, graph: &Prepared, events: &[EdgeEvent], lane: &mut Lane<'_>) -> f64 {
    let mut shadow = DynamicIndex::new(DynamicGraph::from_digraph(&graph.g), graph.ord.clone());
    let batches = if cfg.smoke { 1 } else { 3 };
    let ms: Vec<f64> = events
        .chunks(DIRECT_BATCH)
        .take(batches)
        .enumerate()
        .map(|(i, batch)| {
            lane.time("core.apply_batch", i as u64 + 1, |_| {
                shadow.apply_batch(batch)
            })
            .1 * 1e3
        })
        .collect();
    stats::median(&ms)
}
