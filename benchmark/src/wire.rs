//! `wire_point` and `wire_scan`: closed-loop clients against a loopback
//! `reach-served` on WEBW at scale 1.0 (40 k vertices, 3.4 M label
//! entries).
//!
//! The two stress opposite ends of the serving stack. `wire_point` sends
//! one pair per request to a RAM index with the result cache on: the
//! label scan is well under a microsecond of a round trip of tens, so
//! the time is framing, socket, admission, queue hand-off and context
//! switches (the whole run is confined to one core, see
//! [`host::OneCore`]).
//! `wire_scan` sends 1024 uniform pairs per request — 98 % negative, so
//! merges run to exhaustion, and 2^18 pairs are 16× the cache — to an
//! mmap-backed v2 file: per-query cursor decode + merge dominates and
//! 16 KB frames load the codec.
//!
//! Neither is about building, so set-up builds the index with the serial
//! TOL builder (`reach_tol::pruned::build`, the paper's baseline, bit-equal
//! to DRLb's index): a single thread with no barriers, whose time repeats
//! within a few percent where the two-thread distributed build of the same
//! graph swung 16–27 % between runs on a shared two-core host.

use std::sync::Arc;
use std::time::Duration;

use reach_datasets::{standard_mixes, workload, QueryMix};
use reach_graph::VertexId;
use reach_index::{IndexSource, ReachIndex};
use reach_serve::{QueryService, ServeConfig};
use reach_served::{IndexMode, Server, WireClient};

use crate::common::{self, Cfg, Outcome, Prepared, Saved};
use crate::host;
use crate::layers;
use crate::load::{self, Check, Traffic};
use crate::trace::{Lane, Tracer};

/// The graph and scale of both workloads.
const GRAPH: &str = "WEBW";
const SCALE: f64 = 1.0;

/// Warm-up per connection: this many requests or this long, whichever
/// comes first, on connections that stay open for the measured phase.
pub const WARM_REQUESTS: usize = 2_000;
pub const WARM_LIMIT: Duration = Duration::from_secs(1);

/// What tells the two workloads apart.
pub struct Kind {
    pub name: &'static str,
    /// Closed-loop connections, capped by the host's cores.
    clients: usize,
    /// Confine the whole run to one core (see [`host::OneCore`]): right
    /// for a single request in flight, wrong for a load meant to keep
    /// every core busy.
    one_core: bool,
    batch: usize,
    mix: &'static str,
    mode: IndexMode,
    /// Latency limit a request is held to; one over it, or failed, misses.
    slo: Duration,
}

pub const POINT: Kind = Kind {
    name: "wire_point",
    // One request in flight: the serial chain client → reader → worker →
    // writer → client is what a request costs. Two clients on two cores
    // flip between scheduling modes (34–59 µs medians within one run).
    clients: 1,
    one_core: true,
    batch: 1,
    mix: "positive",
    mode: IndexMode::Ram,
    slo: Duration::from_millis(1),
};

pub const SCAN: Kind = Kind {
    name: "wire_scan",
    // Enough to keep both cores scanning.
    clients: 2,
    one_core: false,
    batch: 1024,
    mix: "uniform",
    mode: IndexMode::Mmap,
    slo: Duration::from_millis(10),
};

/// One of `reach_datasets::standard_mixes` by name.
pub fn mix(name: &str) -> QueryMix {
    standard_mixes()
        .into_iter()
        .find(|m| m.0 == name)
        .expect("a standard mix")
        .1
}

/// A served index with open, warmed connections: what set-up leaves.
struct Env {
    graph: Prepared,
    /// The index (serial TOL) and its build seconds.
    idx: Arc<ReachIndex>,
    build_s: f64,
    saved: Saved,
    stream: Vec<(VertexId, VertexId)>,
    expect: Vec<bool>,
    server: Server,
    clients: Vec<WireClient>,
}

impl Env {
    fn traffic(&self, kind: &Kind) -> Traffic<'_> {
        Traffic {
            stream: &self.stream,
            batch: kind.batch,
            check: Check::Expect(&self.expect),
        }
    }
}

/// Generate, order, build (serial TOL), save, expected answers, server
/// start, connect, warm up.
fn set_up(kind: &Kind, cfg: &Cfg, tracer: &Tracer, lane: &mut Lane<'_>) -> Env {
    let graph = common::prepare(GRAPH, cfg.scale(SCALE), lane);
    let (idx, build_s) = lane.time("tol.build", 0, |_| {
        reach_tol::pruned::build(&graph.g, &graph.ord)
    });
    let idx = Arc::new(idx);
    let saved = common::save(&idx, cfg.file(&format!("{}.ridx", kind.name)), 0, lane);
    let stream = workload(&graph.g, mix(kind.mix), cfg.stream_len(), cfg.seed);
    let expect = common::expected(&idx, &stream);
    let server = common::start_server(cfg, kind.mode, &idx, &saved.path);
    let mut clients = load::connect(server.local_addr(), kind.clients.min(cfg.clients))
        .expect("connect to the loopback server");
    let traffic = Traffic {
        stream: &stream,
        batch: kind.batch,
        check: Check::Expect(&expect),
    };
    lane.time("workload.warm_up", 0, |lane| {
        load::closed_loop(
            &mut clients,
            traffic,
            WARM_LIMIT,
            WARM_REQUESTS,
            tracer,
            lane.current(),
            None,
        )
    });
    Env {
        graph,
        idx,
        build_s,
        saved,
        stream,
        expect,
        server,
        clients,
    }
}

/// The fixed-count probes of a static workload, against a server of their
/// own on `file`: `connect_p50_us` and (the traced run skips the long one)
/// `visibility_p50_ms`. Each is one client with one request in flight, so
/// the server is started, and probed, on one core. It is mmap-backed on
/// every workload: a RELOAD there validates the file in place, where a
/// RAM-backed one decodes it into 14 MB of fresh heap and its time follows
/// what page faults cost on the host that hour (set medians of 40–52 ms;
/// the decode is `index.load_ram_ms` of the traced run). Shared with the
/// `build` workload.
pub fn probes(
    cfg: &Cfg,
    idx: &Arc<ReachIndex>,
    file: &std::path::Path,
    traffic: Traffic<'_>,
    out: &mut Outcome,
    lane: &mut Lane<'_>,
) {
    let _one_core = host::one_core();
    let server = common::start_server(cfg, IndexMode::Mmap, idx, file);
    connect_probe(cfg, &server, out, lane);
    if !cfg.trace {
        reload_probe(cfg, &server, file, traffic, out, lane);
    }
    common::shutdown(server, out);
}

/// `connect_p50_us`: sequential connect → PING → close round trips.
pub fn connect_probe(cfg: &Cfg, server: &Server, out: &mut Outcome, lane: &mut Lane<'_>) {
    let addr = server.local_addr();
    let connect = lane
        .time("workload.connect_probe", 0, |lane| {
            load::connect_probe(addr, cfg.connect_probes(), lane)
        })
        .0;
    out.count(connect.attempted(), connect.failed);
    out.metrics
        .set("connect_p50_us", connect.percentile(0.5, 1e6));
}

/// `visibility_*` of a static index: the way a change becomes visible is
/// a new file and a RELOAD, timed from the request to RELOAD_OK (the new
/// generation answering).
fn reload_probe(
    cfg: &Cfg,
    server: &Server,
    file: &std::path::Path,
    traffic: Traffic<'_>,
    out: &mut Outcome,
    lane: &mut Lane<'_>,
) {
    let reload = lane
        .time("workload.reload_probe", 0, |lane| {
            let mut client = load::connect(server.local_addr(), 1)
                .expect("connect to the loopback server")
                .remove(0);
            let path = file.to_str().expect("index paths are UTF-8");
            let (n, budget) = cfg.reload_probes();
            load::reload_probe(&mut client, path, n, budget, traffic, lane)
        })
        .0;
    out.count(reload.attempted(), reload.failed);
    out.metrics
        .set("visibility_p50_ms", reload.percentile(0.5, 1e3));
}

/// One set-up and nothing else, for a parent process that wants its
/// timings (`--setup-only`).
pub fn set_up_only(kind: &Kind, cfg: &Cfg, tracer: &Tracer) -> common::SetUp {
    let _one_core = kind.one_core.then(host::one_core).flatten();
    let mut lane = tracer.lane(0);
    let (env, setup_s) = lane.time("workload.set_up", 0, |lane| set_up(kind, cfg, tracer, lane));
    let build_s = env.build_s;
    tear_down(env, &mut Outcome::default());
    common::SetUp { setup_s, build_s }
}

/// Runs `wire_point` or `wire_scan`.
pub fn run(kind: &Kind, cfg: &Cfg, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut lane = tracer.lane(0);
    let lane = &mut lane;

    // Set-up: this process's own, which is measured, after the others.
    let mut set_ups = common::set_ups_in_children(cfg, kind.name, cfg.setups() - 1);
    let _one_core = kind.one_core.then(host::one_core).flatten();
    let (mut env, setup_s) =
        lane.time("workload.set_up", 0, |lane| set_up(kind, cfg, tracer, lane));
    set_ups.push(common::SetUp {
        setup_s,
        build_s: env.build_s,
    });
    let mut clients = std::mem::take(&mut env.clients);
    let traffic = env.traffic(kind);

    // Measured phase.
    let limit = Duration::from_secs_f64(cfg.seconds);
    let logs = lane
        .time("workload.measure", 0, |lane| {
            load::closed_loop(
                &mut clients,
                traffic,
                limit,
                usize::MAX,
                tracer,
                lane.current(),
                cfg.ab_segment(),
            )
        })
        .0;
    let wire = load::summarize(&logs, kind.batch, cfg.seconds, cfg.segments(), kind.slo);
    out.count(wire.attempted, wire.failed);
    out.gate("wire answers == ReachIndex::query", wire.failed == 0);

    probes(cfg, &env.idx, &env.saved.path, traffic, &mut out, lane);
    let open = common::open_probe(
        &env.saved.path,
        env.stream[0],
        env.expect[0],
        cfg.open_probes(),
        &mut out,
        lane,
    );

    if cfg.trace {
        layer_metrics(
            kind,
            cfg,
            &env,
            &mut clients[0],
            wire.p50_us.value,
            &mut out,
            lane,
        );
        let m = &mut out.metrics;
        m.set_value("datasets.generate_s", env.graph.generate_s);
        m.set_value("graph.order_s", env.graph.order_s);
        m.set_value("tol.build_s", env.build_s);
        m.set_value("index.encode_s", env.saved.encode_s);
        m.set_value("index.ram_bytes", env.idx.size_bytes() as f64);
        m.set("index.mmap_open_ms", open);
        m.set("wire.req_p99_us", wire.p99_us);
        m.set_value("wire.slo_miss_frac", wire.slo_miss_frac);
        m.set_value(
            "trace.overhead_frac",
            common::overhead_frac(&wire.segment_p50_us),
        );
    } else {
        let m = &mut out.metrics;
        common::set_set_ups(m, &set_ups);
        m.set_value("index_bytes", env.saved.bytes as f64);
        m.set("open_ms", open);
        m.set("req_p50_us", wire.p50_us);
        m.set("queries_per_s", wire.queries_per_s);
    }
    out.note(
        "wire.req_p99_us_percentile",
        crate::json::Value::Num(wire.tail_level),
    );
    out.note(
        "graph",
        crate::json::Value::str(format!("{GRAPH} x{}", cfg.scale(SCALE))),
    );

    drop(clients);
    let stats = tear_down(env, &mut out);
    if cfg.trace {
        common::set_serve_counters(&mut out.metrics, &stats);
    } else {
        out.metrics.set_value("rss_mb", crate::host::peak_rss_mb());
    }
    out
}

fn tear_down(env: Env, out: &mut Outcome) -> reach_serve::ServeStats {
    drop(env.clients);
    common::shutdown(env.server, out)
}

/// The per-layer measurements beside the workload (see
/// [`layers::stack`]), and on the scan stream the comparisons ROADMAP's
/// collapse item needs: slice vs cursor, Bloom, sharded copy vs shared
/// source.
fn layer_metrics(
    kind: &Kind,
    cfg: &Cfg,
    env: &Env,
    client: &mut WireClient,
    req_p50_us: f64,
    out: &mut Outcome,
    lane: &mut Lane<'_>,
) {
    let idx = &env.idx;
    let serve = ServeConfig::with_workers(cfg.workers);
    let (backing, service): (Arc<dyn IndexSource>, QueryService) = match kind.mode {
        IndexMode::Ram => (
            Arc::clone(idx) as Arc<dyn IndexSource>,
            QueryService::start(Arc::clone(idx), serve.clone()),
        ),
        mode => {
            let source = mode
                .load(&env.saved.path)
                .expect("load the index file just written");
            let service = QueryService::start_with_source(Arc::clone(&source), serve.clone());
            (source, service)
        }
    };
    let traffic = env.traffic(kind);
    let callers = kind.clients.min(cfg.clients);
    let (kernel, submit_us) = layers::stack(
        layers::Stack {
            backing,
            service,
            traffic,
            callers,
            file: &env.saved.path,
            built: idx,
            req_p50_us,
        },
        client,
        cfg,
        out,
        lane,
    );
    if kind.batch > 1 {
        let ram = layers::kernel(&**idx, traffic, out, lane);
        let (bloom_ns, skip_frac) = layers::bloom(cfg, idx, traffic, out, lane);
        let ram_service = QueryService::start(Arc::clone(idx), serve);
        let ram_submit = layers::submit_us(ram_service, traffic, callers, cfg, out, lane);
        let m = &mut out.metrics;
        m.set_value("index.ram.query_ns", ram.query_ns);
        m.set_value("index.mmap.query_ns", kernel.query_ns);
        m.set_value("index.bloom.query_ns", bloom_ns);
        m.set_value("index.bloom.skip_frac", skip_frac);
        m.set_value("serve.ram.submit_us", ram_submit);
        m.set_value("serve.source.submit_us", submit_us);
    }
}
