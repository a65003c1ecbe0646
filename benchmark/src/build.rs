//! `build`: the paper's three quantities — index time, index size, query
//! time (Table VI) — on the six Table-V mediums.
//!
//! One round takes every graph through the index's whole life: a
//! distributed DRLb build on 8 simulated nodes, `save_index_v2` (delta
//! varints, no Bloom: what `reach build --compressed` writes),
//! `MmapIndex::open` to a first answer, and a fresh mmap-backed server
//! answering its first 1 000 single-pair requests. Rounds repeat for the
//! run's length; a round is this workload's segment. `vcs` and `drl-dist`
//! do nearly all the work, `serve`/`served` almost none, `ingest` none.
//!
//! Scale 0.5 (20–35 k vertices a graph, ~4 s a round on two cores) is
//! the largest at which a 15 s run still holds three rounds; at scale
//! 1.0 one round takes ~14 s.

use std::sync::Arc;
use std::time::{Duration, Instant};

use reach_datasets::workload;
use reach_graph::{traverse, VertexId};
use reach_index::ReachIndex;
use reach_served::IndexMode;
use reach_vcs::RunStats;

use crate::common::{self, BuildRound, Cfg, Outcome, Prepared};
use crate::host;
use crate::json::Value;
use crate::layers;
use crate::load::{self, Check, Traffic};
use crate::metrics::GRAPHS;
use crate::stats::{self, Summary};
use crate::trace::{Lane, Tracer};
use crate::wire;

const SCALE: f64 = 0.5;

/// Rounds a run holds at least, however slow the host.
const MIN_ROUNDS: usize = 3;

/// First answers asked of every freshly opened index.
const FIRST_ANSWERS: usize = 1_000;

/// Pairs of the BFS oracle sample per graph.
const ORACLE_PAIRS: usize = 2_000;

/// Limit on the p99 round trip.
const SLO: Duration = Duration::from_millis(1);

struct Graph {
    prepared: Prepared,
    /// The first-answers stream (`positive` mix: 80 % reachable pairs).
    stream: Vec<(VertexId, VertexId)>,
}

/// What one graph's pass through one round measured. The index itself
/// is handed back beside it and dropped once compared: holding every
/// round's indexes made `rss_mb` grow with the number of rounds.
struct Life {
    stats: RunStats,
    wall_s: f64,
    bytes: u64,
    encode_s: f64,
    open_s: f64,
    /// Latencies of the first answers, µs.
    request_us: Vec<f64>,
    /// First request sent → last answer received.
    serve_s: f64,
}

/// What every build is held against, prepared before any is timed:
/// serial TOL on WEBW (the paper's baseline and the repo's oracle — DRLb
/// must equal it bit for bit) and, on the other five graphs, BFS answers
/// to a sample of pairs.
struct Oracle {
    tol: ReachIndex,
    tol_s: f64,
    /// Per graph after WEBW: sampled `(s, t, BFS says s reaches t)`.
    bfs: Vec<Vec<(VertexId, VertexId, bool)>>,
}

impl Oracle {
    fn new(cfg: &Cfg, graphs: &[Graph], lane: &mut Lane<'_>) -> Oracle {
        let webw = &graphs[0].prepared;
        let (tol, tol_s) = lane.time("tol.build", 0, |_| {
            reach_tol::pruned::build(&webw.g, &webw.ord)
        });
        let bfs = graphs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, graph)| {
                let g = &graph.prepared.g;
                let pairs = if cfg.smoke { 200 } else { ORACLE_PAIRS };
                workload(g, wire::mix("positive"), pairs, cfg.seed ^ (i as u64) << 32)
                    .into_iter()
                    .map(|(s, t)| (s, t, traverse::reaches(g, s, t)))
                    .collect()
            })
            .collect();
        Oracle { tol, tol_s, bfs }
    }

    /// Gates the first build of every graph.
    fn check(&self, built: &[Arc<ReachIndex>], out: &mut Outcome) {
        out.gate("DRLb == TOL on WEBW", self.tol == *built[0]);
        for (sample, idx) in self.bfs.iter().zip(&built[1..]) {
            let agree = sample.iter().all(|&(s, t, a)| idx.query(s, t) == a);
            out.gate("index answers == BFS on sampled pairs", agree);
        }
    }
}

fn set_up(
    cfg: &Cfg,
    tracer: &Tracer,
    out: &mut Outcome,
    lane: &mut Lane<'_>,
) -> (Vec<Graph>, Oracle) {
    let graphs: Vec<Graph> = GRAPHS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let prepared = common::prepare(name, cfg.scale(SCALE), lane);
            let stream = workload(
                &prepared.g,
                wire::mix("positive"),
                FIRST_ANSWERS,
                cfg.seed + i as u64,
            );
            Graph { prepared, stream }
        })
        .collect();
    // Warm-up: the first build in a process pays for its page faults and
    // allocator growth.
    lane.time("workload.warm_up", 0, |lane| {
        life(&graphs[0], 0, cfg, tracer, out, lane)
    });
    let oracle = Oracle::new(cfg, &graphs, lane);
    (graphs, oracle)
}

/// Build → save → open → serve → first answers, each step timed on its
/// own; the checks between them are outside every timed region.
fn life(
    graph: &Graph,
    request: u64,
    cfg: &Cfg,
    tracer: &Tracer,
    out: &mut Outcome,
    lane: &mut Lane<'_>,
) -> (Life, Arc<ReachIndex>) {
    let p = &graph.prepared;
    let built = common::build(p, cfg.engine_threads, request, lane);
    let saved = common::save(
        &built.idx,
        cfg.file(&format!("build-{}.ridx", p.name)),
        request,
        lane,
    );
    let expect = common::expected(&built.idx, &graph.stream);
    let (first, open_s) = common::open_first(&saved.path, graph.stream[0], request, lane);
    out.gate("mmap first answer == ReachIndex::query", first == expect[0]);

    // One client, one request in flight: served on one core. The engine
    // threads of the next build start after the confinement ends.
    let one_core = host::one_core();
    let server = common::start_server(cfg, IndexMode::Mmap, &built.idx, &saved.path);
    let mut clients =
        load::connect(server.local_addr(), 1).expect("connect to the loopback server");
    let traffic = Traffic {
        stream: &graph.stream,
        batch: 1,
        check: Check::Expect(&expect),
    };
    let logs = load::closed_loop(
        &mut clients,
        traffic,
        load::REQUEST_TIMEOUT * 4,
        FIRST_ANSWERS,
        tracer,
        lane.current(),
        None,
    );
    drop(clients);
    common::shutdown(server, out);
    drop(one_core);

    let requests = &logs[0].requests;
    let failed = requests.iter().filter(|r| !r.ok).count() as u64;
    out.count(requests.len() as u64 + 1, failed);
    out.gate(
        "wire answers == ReachIndex::query",
        failed == 0 && requests.len() == FIRST_ANSWERS,
    );
    let life = Life {
        stats: built.stats,
        wall_s: built.wall_s,
        bytes: saved.bytes,
        encode_s: saved.encode_s,
        open_s,
        request_us: requests.iter().map(|r| r.latency_s * 1e6).collect(),
        serve_s: requests.last().map_or(0.0, |r| r.at_s + r.latency_s),
    };
    (life, built.idx)
}

/// One set-up and nothing else, for a parent process that wants its
/// timings (`--setup-only`); this workload's builds are its measured
/// phase, so the set-up holds none.
pub fn set_up_only(cfg: &Cfg, tracer: &Tracer) -> common::SetUp {
    let mut lane = tracer.lane(0);
    let (_, setup_s) = lane.time("workload.set_up", 0, |lane| {
        set_up(cfg, tracer, &mut Outcome::default(), lane)
    });
    common::SetUp {
        setup_s,
        build_s: 0.0,
    }
}

/// Runs the `build` workload.
pub fn run(cfg: &Cfg, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut lane = tracer.lane(0);
    let lane = &mut lane;

    // Set-up: this process's own, which is measured, after the others.
    let mut setup_s: Vec<f64> = common::set_ups_in_children(cfg, "build", cfg.setups() - 1)
        .iter()
        .map(|s| s.setup_s)
        .collect();
    let ((graphs, oracle), own) = lane.time("workload.set_up", 0, |lane| {
        set_up(cfg, tracer, &mut out, lane)
    });
    setup_s.push(own);

    // Measured phase: whole rounds until the time is up.
    let started = Instant::now();
    let mut rounds: Vec<Vec<Life>> = Vec::new();
    // The first build of each graph; every later one must equal it, bit
    // for bit.
    let mut first: Vec<Arc<ReachIndex>> = Vec::new();
    lane.time("workload.measure", 0, |lane| {
        while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < cfg.seconds {
            let r = rounds.len();
            // A traced run records alternate rounds.
            lane.set_recording(r % 2 == 1);
            let round = lane
                .time("workload.round", r as u64 + 1, |lane| {
                    graphs
                        .iter()
                        .enumerate()
                        .map(|(i, g)| {
                            let (life, idx) = life(
                                g,
                                (r * GRAPHS.len() + i) as u64 + 1,
                                cfg,
                                tracer,
                                &mut out,
                                lane,
                            );
                            match first.get(i) {
                                Some(f) => out.gate("repeated builds bit-identical", idx == *f),
                                None => first.push(idx),
                            }
                            life
                        })
                        .collect::<Vec<Life>>()
                })
                .0;
            rounds.push(round);
            if cfg.smoke && rounds.len() >= 2 {
                break;
            }
        }
        lane.set_recording(true);
    });

    oracle.check(&first, &mut out);

    let per_round = |f: &dyn Fn(&Life) -> f64| -> Vec<f64> {
        rounds.iter().map(|r| r.iter().map(f).sum()).collect()
    };
    let builds = rounds.len() * GRAPHS.len();
    let build_s = Summary::of_segments(&per_round(&|l| l.wall_s), builds);
    let open_ms = Summary::of_segments(&per_round(&|l| l.open_s * 1e3), builds);
    let mut latencies: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| {
            r.iter()
                .flat_map(|l| l.request_us.iter().copied())
                .collect()
        })
        .collect();
    let p50 = stats::segment_percentile(&mut latencies, 0.5);
    let (p99, tail_level) = stats::segment_tail(&mut latencies, 0.99);
    let answers = (rounds.len() * GRAPHS.len() * FIRST_ANSWERS) as f64;
    let qps: Vec<f64> = per_round(&|l| l.serve_s)
        .iter()
        .map(|s| answers / rounds.len() as f64 / s)
        .collect();
    let missed = latencies
        .iter()
        .flatten()
        .filter(|&&us| us > SLO.as_secs_f64() * 1e6)
        .count();

    // Probes against a server on the last WEBW file.
    let webw = &graphs[0];
    let file = cfg.file(&format!("build-{}.ridx", webw.prepared.name));
    let expect = common::expected(&first[0], &webw.stream);
    let traffic = Traffic {
        stream: &webw.stream,
        batch: 1,
        check: Check::Expect(&expect),
    };
    if cfg.trace {
        let open_webw = common::open_probe(
            &file,
            webw.stream[0],
            expect[0],
            cfg.open_probes(),
            &mut out,
            lane,
        );
        let vcs_rounds: Vec<BuildRound> = rounds
            .iter()
            .map(|r| r.iter().map(|l| (l.stats, l.wall_s)).collect())
            .collect();
        common::set_vcs(&mut out, &vcs_rounds, cfg.engine_threads);
        let webw_wall = stats::median(&rounds.iter().map(|r| r[0].wall_s).collect::<Vec<_>>());
        let single = common::build(&webw.prepared, 1, 0, lane);
        out.gate("repeated builds bit-identical", single.idx == first[0]);
        // On one core, like the first answers these numbers explain.
        let one_core = host::one_core();
        let backing = IndexMode::Mmap
            .load(&file)
            .expect("load the index file just written");
        let service = reach_serve::QueryService::start_with_source(
            Arc::clone(&backing),
            reach_serve::ServeConfig::with_workers(cfg.workers),
        );
        let server = common::start_server(cfg, IndexMode::Mmap, &first[0], &file);
        let mut client = load::connect(server.local_addr(), 1)
            .expect("connect to the loopback server")
            .remove(0);
        layers::stack(
            layers::Stack {
                backing,
                service,
                traffic,
                callers: 1,
                file: &file,
                built: &first[0],
                req_p50_us: p50.value,
            },
            &mut client,
            cfg,
            &mut out,
            lane,
        );
        drop(client);
        let served = common::shutdown(server, &mut out);
        drop(one_core);
        common::set_serve_counters(&mut out.metrics, &served);

        let m = &mut out.metrics;
        // Summed over the six graphs, from the last set-up repetition.
        m.set_value(
            "datasets.generate_s",
            graphs.iter().map(|g| g.prepared.generate_s).sum(),
        );
        m.set_value(
            "graph.order_s",
            graphs.iter().map(|g| g.prepared.order_s).sum(),
        );
        for (i, name) in GRAPHS.iter().enumerate() {
            let walls: Vec<f64> = rounds.iter().map(|r| r[i].wall_s).collect();
            m.set(
                crate::metrics::wall_metric(name),
                Summary::of_segments(&walls, walls.len()),
            );
        }
        m.set_value(
            "drl-dist.label_entries",
            first.iter().map(|i| i.num_entries() as f64).sum(),
        );
        m.set_value("tol.build_s", oracle.tol_s);
        m.set_value("drl-dist.speedup_vs_tol", oracle.tol_s / webw_wall);
        m.set_value("vcs.thread_scaling", single.wall_s / webw_wall);
        m.set(
            "index.encode_s",
            Summary::of_segments(&per_round(&|l| l.encode_s), builds),
        );
        m.set_value(
            "index.ram_bytes",
            first.iter().map(|i| i.size_bytes() as f64).sum(),
        );
        m.set("index.mmap_open_ms", open_webw);
        m.set("wire.req_p99_us", p99);
        m.set_value("wire.slo_miss_frac", missed as f64 / answers);
        m.set_value(
            "trace.overhead_frac",
            common::overhead_frac(&per_round(&|l| l.wall_s)),
        );
    } else {
        wire::probes(cfg, &first[0], &file, traffic, &mut out, lane);
        let m = &mut out.metrics;
        m.set("setup_s", Summary::of_segments(&setup_s, setup_s.len()));
        m.set("build_s", build_s);
        m.set_value(
            "index_bytes",
            rounds[0].iter().map(|l| l.bytes as f64).sum(),
        );
        m.set("open_ms", open_ms);
        m.set("req_p50_us", p50);
        m.set(
            "queries_per_s",
            Summary::of_segments(&qps, answers as usize),
        );
        m.set_value("rss_mb", crate::host::peak_rss_mb());
    }
    out.note(
        "graph",
        Value::str(format!("six Table-V mediums x{}", cfg.scale(SCALE))),
    );
    out.note("rounds", Value::Num(rounds.len() as f64));
    out.note("wire.req_p99_us_percentile", Value::Num(tail_level));
    out
}
