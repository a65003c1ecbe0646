//! Direct measurements of single layers, taken in the traced run beside
//! the workload proper: the index kernel on the workload's stream, the
//! query service without the wire, and the wire codec without a socket.
//! Each is what its layer costs when called alone; the workloads subtract
//! them from the client-observed round trip (README, "Layers").

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reach_index::{BloomConfig, CodecId, IndexSource, MmapIndex, ReachIndex};
use reach_serve::QueryService;
use reach_served::wire::{self, BatchRequest, Frame};
use reach_served::WireClient;

use crate::common::{Cfg, Outcome};
use crate::load::{self, Traffic};
use crate::stats;
use crate::trace::Lane;

/// The index kernel on one stream, one thread.
pub struct Kernel {
    pub query_ns: f64,
    /// Mean label entries consumed per query.
    pub scan_len: f64,
    pub positive_frac: f64,
}

/// `IndexSource::query_scan` over every pair of the traffic's stream,
/// three passes, the median pass reported; answers must equal the
/// expected ones.
pub fn kernel(
    source: &dyn IndexSource,
    traffic: Traffic<'_>,
    out: &mut Outcome,
    lane: &mut Lane<'_>,
) -> Kernel {
    let (stream, expect) = (traffic.stream, traffic.expect());
    let mut per_query = Vec::new();
    let mut scanned = 0usize;
    for pass in 0..3 {
        let ((entries, wrong), secs) = lane.time("index.query_scan_loop", pass + 1, |_| {
            let (mut entries, mut wrong) = (0usize, 0usize);
            for (&(s, t), &want) in stream.iter().zip(expect) {
                let (hit, scan) = black_box(source.query_scan(black_box(s), black_box(t)));
                entries += scan;
                wrong += usize::from(hit != want);
            }
            (entries, wrong)
        });
        out.gate("IndexSource::query_scan == ReachIndex::query", wrong == 0);
        scanned = entries;
        per_query.push(secs * 1e9 / stream.len() as f64);
    }
    Kernel {
        query_ns: stats::median(&per_query),
        scan_len: scanned as f64 / stream.len() as f64,
        positive_frac: expect.iter().filter(|&&a| a).count() as f64 / expect.len() as f64,
    }
}

/// The Bloom comparison no end-to-end workload makes: the same index
/// saved with a Bloom section, mmap-opened, on the same stream. Returns
/// `(query_ns, skip_frac)` — the share of queries the gate answered
/// without a merge.
pub fn bloom(
    cfg: &Cfg,
    idx: &ReachIndex,
    traffic: Traffic<'_>,
    out: &mut Outcome,
    lane: &mut Lane<'_>,
) -> (f64, f64) {
    let stream = traffic.stream;
    let path = cfg.file("bloom.ridx");
    let (saved, _) = lane.time("index.save_index_v2", 0, |_| {
        reach_index::save_index_v2(
            idx,
            &path,
            CodecId::DeltaVarint,
            Some(BloomConfig::sized_for(idx)),
        )
    });
    saved.expect("write the Bloom index file");
    let index = MmapIndex::open(&path).expect("open the Bloom index file");
    let skipped = stream
        .iter()
        .filter(|&&(s, t)| index.bloom_gate(s, t).0 == Some(false))
        .count();
    let k = kernel(&index, traffic, out, lane);
    (k.query_ns, skipped as f64 / stream.len() as f64)
}

/// Median latency in µs of direct `QueryService::submit_batch` calls from
/// `callers` closed-loop threads, the same batches the wire clients
/// send; the service is shut down and its ledger checked.
pub fn submit_us(
    service: QueryService,
    traffic: Traffic<'_>,
    callers: usize,
    cfg: &Cfg,
    out: &mut Outcome,
    lane: &mut Lane<'_>,
) -> f64 {
    let (stream, batch, expect) = (traffic.stream, traffic.batch, traffic.expect());
    let limit = Duration::from_secs_f64(if cfg.smoke { 0.3 } else { 1.5 });
    let warm = limit / 5;
    let chunks = stream.len() / batch;
    let lanes: Vec<Lane<'_>> = (0..callers).map(|_| lane.child()).collect();
    let start = Instant::now();
    let results: Vec<(Vec<f64>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(me, mut lane)| {
                let service = &service;
                scope.spawn(move || {
                    let (mut us, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
                    let mut chunk = me * chunks / callers;
                    while start.elapsed() < limit {
                        let at = chunk * batch;
                        let (answers, secs) =
                            lane.time("serve.submit_batch", attempted + 1, |_| {
                                service.submit_batch(&stream[at..at + batch], None)
                            });
                        attempted += 1;
                        match answers {
                            Ok(a) if a[..] == expect[at..at + batch] => {
                                if start.elapsed() >= warm {
                                    us.push(secs * 1e6);
                                }
                            }
                            _ => failed += 1,
                        }
                        chunk = (chunk + 1) % chunks;
                    }
                    (us, attempted, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let stats = service.shutdown();
    out.gate("ServeStats::is_balanced at shutdown", stats.is_balanced());
    let mut all = Vec::new();
    for (us, attempted, failed) in results {
        all.extend(us);
        out.count(attempted, failed);
        out.gate("QueryService answers == ReachIndex::query", failed == 0);
    }
    stats::sort(&mut all);
    stats::percentile(&all, 0.5)
}

/// The wire codec alone: encode and decode the traffic's first request
/// and its response through the public `wire` functions. Returns
/// `(µs per request+response, bytes on the wire per request+response)`.
pub fn frame(traffic: Traffic<'_>, lane: &mut Lane<'_>) -> (f64, f64) {
    let (pairs, answers) = (traffic.chunk(0), &traffic.expect()[..traffic.batch]);
    let request = BatchRequest {
        deadline_ms: 0,
        priority: wire::priority::NORMAL,
        pairs: pairs.to_vec(),
    };
    let round = || {
        let sent = Frame::new(
            wire::opcode::QUERY,
            1,
            wire::encode_batch(black_box(&request)),
        )
        .encode();
        let got = wire::decode_batch(&sent[wire::HEADER_LEN..]).expect("decode what was encoded");
        let reply = Frame::new(
            wire::opcode::QUERY_OK,
            1,
            wire::encode_query_ok(7, black_box(answers)),
        )
        .encode();
        let back =
            wire::decode_query_ok(&reply[wire::HEADER_LEN..]).expect("decode what was encoded");
        black_box((got, back));
        sent.len() + reply.len()
    };
    let bytes = round();
    // About two million pairs through the codec, whatever the batch.
    let iterations = (2_000_000 / pairs.len().max(1)).clamp(2_000, 200_000);
    let ((), secs) = lane.time("served.frame_loop", 0, |_| {
        for _ in 0..iterations {
            black_box(round());
        }
    });
    (secs * 1e6 / iterations as f64, bytes as f64)
}

/// One workload's serving stack, for [`stack`] to take apart.
pub struct Stack<'a> {
    /// What the workload's server answers from.
    pub backing: Arc<dyn IndexSource>,
    /// A fresh service on that backing, configured like the server's.
    pub service: QueryService,
    /// The workload's requests, with their expected answers.
    pub traffic: Traffic<'a>,
    /// Closed-loop callers, as many as the workload has clients.
    pub callers: usize,
    /// The workload's v2 file and the index it was saved from.
    pub file: &'a Path,
    pub built: &'a ReachIndex,
    /// The client-observed median round trip of this (traced) run.
    pub req_p50_us: f64,
}

/// Measures each layer under the workload's traffic on its own — kernel,
/// service without the wire, codec without a socket, PING without a
/// service — and sets the `index.*`, `serve.*` and `served.*` metrics
/// every workload reports. Returns the kernel numbers and the direct
/// submit median for the comparisons only `wire_scan` makes.
pub fn stack(
    s: Stack<'_>,
    client: &mut WireClient,
    cfg: &Cfg,
    out: &mut Outcome,
    lane: &mut Lane<'_>,
) -> (Kernel, f64) {
    let kernel = kernel(&*s.backing, s.traffic, out, lane);
    let submit_us = submit_us(s.service, s.traffic, s.callers, cfg, out, lane);
    let (frame_us, frame_bytes) = frame(s.traffic, lane);
    let ping = load::ping_probe(client, if cfg.smoke { 200 } else { 2_000 }, lane);
    out.count(ping.attempted(), ping.failed);
    let (loaded, load_s) = lane.time("index.load_index", 0, |_| reach_index::load_index(s.file));
    out.gate(
        "load_index(v2 file) == built index",
        loaded.is_ok_and(|l| l == *s.built),
    );

    let batch = s.traffic.batch;
    let m = &mut out.metrics;
    m.set_value("index.load_ram_ms", load_s * 1e3);
    m.set_value("index.query_ns", kernel.query_ns);
    m.set_value("index.scan_len", kernel.scan_len);
    m.set_value("index.positive_frac", kernel.positive_frac);
    m.set_value("serve.submit_us", submit_us);
    // What the service adds to the label scans it runs: a batch's scans
    // are spread over the workers (one query cannot be split).
    m.set_value(
        "serve.over_index_us",
        submit_us - batch as f64 * kernel.query_ns / 1e3 / batch.min(cfg.workers) as f64,
    );
    m.set("served.ping_us", ping.percentile(0.5, 1e6));
    m.set_value("served.over_serve_us", s.req_p50_us - submit_us);
    m.set_value("served.frame_us", frame_us);
    m.set_value("served.bytes_per_req", frame_bytes);
    (kernel, submit_us)
}
