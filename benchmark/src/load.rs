//! The load generator: closed-loop wire clients and the two fixed-count
//! probes (connect→PING→close, RELOAD→answering).
//!
//! Closed loop is the stated choice: a caller of a reachability oracle
//! waits for its reply before asking again, and an open loop at a few
//! hundred requests per second measured this host's sleep/wake-up jitter,
//! not the program (README, "Sizing"). One client thread owns one
//! connection and has one request outstanding.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use reach_graph::VertexId;
use reach_served::{wire, Response, WireClient};

use crate::stats::{self, Summary};
use crate::trace::{Lane, Tracer};

/// A request that takes longer than this is a failure.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Fewest segments a measured phase is cut into.
pub const MIN_SEGMENTS: usize = 5;

/// One request as its client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Start, in seconds since the phase began.
    pub at_s: f64,
    pub latency_s: f64,
    /// Index of the chunk of the stream it carried.
    pub chunk: u32,
    /// Index generation that answered (0 on failure).
    pub generation: u64,
    /// Answered, with the right response type and — when checked on the
    /// spot — the right answers.
    pub ok: bool,
}

/// Everything one client did in one phase.
#[derive(Default)]
pub struct ClientLog {
    pub requests: Vec<Request>,
    /// With [`Check::Keep`]: the answers of every `ok` request, `batch`
    /// per request, in request order — for a check that needs the
    /// answering generation's index and therefore runs after the phase.
    pub kept: Vec<bool>,
}

/// How answers are verified.
#[derive(Clone, Copy)]
pub enum Check<'a> {
    /// Against answers precomputed with `ReachIndex::query`, one per pair
    /// of the stream. The comparison runs after the request's latency is
    /// taken.
    Expect(&'a [bool]),
    /// Later, by the caller.
    Keep,
}

/// What the clients send.
#[derive(Clone, Copy)]
pub struct Traffic<'a> {
    /// The pairs, a whole number of batches; clients cycle through it.
    pub stream: &'a [(VertexId, VertexId)],
    pub batch: usize,
    pub check: Check<'a>,
}

impl Traffic<'_> {
    fn chunks(&self) -> usize {
        self.stream.len() / self.batch
    }

    pub fn chunk(&self, i: usize) -> &[(VertexId, VertexId)] {
        &self.stream[i * self.batch..(i + 1) * self.batch]
    }

    /// The precomputed answers, for a measurement that checks on the spot.
    pub fn expect(&self) -> &[bool] {
        match self.check {
            Check::Expect(expect) => expect,
            Check::Keep => panic!("this measurement verifies against precomputed answers"),
        }
    }
}

/// Opens `n` connections with the request timeout set.
pub fn connect(addr: SocketAddr, n: usize) -> std::io::Result<Vec<WireClient>> {
    (0..n)
        .map(|_| {
            let mut c = WireClient::connect(addr)?;
            c.set_recv_timeout(Some(REQUEST_TIMEOUT))?;
            Ok(c)
        })
        .collect()
}

/// Runs every client closed-loop for `limit`, or until each has sent
/// `max_requests`, whichever comes first. With `ab_segment`, recording of
/// spans alternates every that many seconds (off, on, off, …) so that a
/// traced run holds both sides of the overhead comparison.
pub fn closed_loop(
    clients: &mut [WireClient],
    traffic: Traffic<'_>,
    limit: Duration,
    max_requests: usize,
    tracer: &Tracer,
    parent: u64,
    ab_segment: Option<f64>,
) -> Vec<ClientLog> {
    let n = clients.len();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(me, client)| {
                scope.spawn(move || {
                    let mut lane = tracer.lane(parent);
                    // Each client starts in its own region of the stream.
                    let first = me * traffic.chunks() / n;
                    one_client(
                        client,
                        me,
                        first,
                        traffic,
                        start,
                        limit,
                        max_requests,
                        &mut lane,
                        ab_segment,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

#[allow(clippy::too_many_arguments)]
fn one_client(
    client: &mut WireClient,
    me: usize,
    first_chunk: usize,
    traffic: Traffic<'_>,
    start: Instant,
    limit: Duration,
    max_requests: usize,
    lane: &mut Lane<'_>,
    ab_segment: Option<f64>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let chunks = traffic.chunks();
    let mut chunk = first_chunk;
    while log.requests.len() < max_requests {
        let at = start.elapsed();
        if at >= limit {
            break;
        }
        let at_s = at.as_secs_f64();
        if let Some(seg) = ab_segment {
            lane.set_recording((at_s / seg) as usize % 2 == 1);
        }
        let pairs = traffic.chunk(chunk);
        let request_id = ((me as u64 + 1) << 48) | log.requests.len() as u64;
        let (reply, latency_s) = lane.time("served.call_query", request_id, |_| {
            client.call_query(pairs, 0, wire::priority::NORMAL)
        });
        let mut req = Request {
            at_s,
            latency_s,
            chunk: chunk as u32,
            generation: 0,
            ok: false,
        };
        let dead = reply.is_err();
        if let Ok(Response::QueryOk {
            generation,
            answers,
        }) = reply
        {
            req.generation = generation;
            req.ok = answers.len() == pairs.len()
                && match traffic.check {
                    Check::Expect(expect) => {
                        answers[..] == expect[chunk * traffic.batch..][..pairs.len()]
                    }
                    Check::Keep => {
                        log.kept.extend_from_slice(&answers);
                        true
                    }
                };
        }
        log.requests.push(req);
        if dead {
            // Timed out or disconnected: the stream position is lost.
            break;
        }
        chunk = (chunk + 1) % chunks;
    }
    log
}

/// The wire-side numbers of one measured phase.
pub struct WireSummary {
    pub p50_us: Summary,
    pub p99_us: Summary,
    /// The percentile `p99_us` actually holds (0.99 unless a segment had
    /// fewer than ten samples beyond it).
    pub tail_level: f64,
    pub queries_per_s: Summary,
    pub attempted: u64,
    pub failed: u64,
    /// Share of requests over the latency limit, failures included.
    pub slo_miss_frac: f64,
    /// Median latency of each segment, in order — the traced run compares
    /// its recorded (odd) and unrecorded (even) segments.
    pub segment_p50_us: Vec<f64>,
}

/// Cuts a phase of `seconds` into `segments` and summarizes it. Requests
/// are attributed to the segment they started in.
pub fn summarize(
    logs: &[ClientLog],
    batch: usize,
    seconds: f64,
    segments: usize,
    slo: Duration,
) -> WireSummary {
    let all = || logs.iter().flat_map(|l| l.requests.iter());
    let attempted = all().count() as u64;
    let failed = all().filter(|r| !r.ok).count() as u64;
    let slo_s = slo.as_secs_f64();
    let missed = all().filter(|r| !r.ok || r.latency_s > slo_s).count();

    let latencies: Vec<(f64, f64)> = all().map(|r| (r.at_s, r.latency_s * 1e6)).collect();
    let mut by_segment = stats::split_segments(&latencies, seconds, segments);
    // A segment nothing started in (a stalled or dead client) has no
    // percentile; drop it rather than invent one. `attempted` stays ≥ 1
    // in every run that gets this far.
    by_segment.retain(|s| !s.is_empty());
    assert!(!by_segment.is_empty(), "no request was sent");
    let p50_us = stats::segment_percentile(&mut by_segment, 0.5);
    let (p99_us, tail_level) = stats::segment_tail(&mut by_segment, 0.99);
    let segment_p50_us = by_segment
        .iter()
        .map(|s| stats::percentile(s, 0.5))
        .collect();

    let answered: Vec<(f64, f64)> = all()
        .filter(|r| r.ok)
        .map(|r| (r.at_s, batch as f64))
        .collect();
    let per_segment: Vec<f64> = stats::split_segments(&answered, seconds, segments)
        .iter()
        .map(|s| s.iter().sum::<f64>() / (seconds / segments as f64))
        .collect();
    WireSummary {
        p50_us,
        p99_us,
        tail_level,
        queries_per_s: Summary::of_segments(&per_segment, answered.len()),
        attempted,
        failed,
        slo_miss_frac: missed as f64 / attempted.max(1) as f64,
        segment_p50_us,
    }
}

/// What a fixed-count probe saw: seconds per successful operation, and
/// how many failed.
#[derive(Default)]
pub struct Probe {
    pub seconds: Vec<f64>,
    pub failed: u64,
}

impl Probe {
    pub fn attempted(&self) -> u64 {
        self.seconds.len() as u64 + self.failed
    }

    /// One percentile over all samples (a probe is a single segment).
    pub fn percentile(&self, p: f64, unit_per_s: f64) -> Summary {
        let mut v: Vec<f64> = self.seconds.iter().map(|s| s * unit_per_s).collect();
        stats::sort(&mut v);
        Summary {
            value: if v.is_empty() {
                0.0
            } else {
                stats::percentile(&v, p)
            },
            samples: v.len(),
            ..Summary::single(0.0)
        }
    }
}

/// `n` sequential connect → PING → PONG → close round trips: what a
/// client that does not keep its connection pays per request.
pub fn connect_probe(addr: SocketAddr, n: usize, lane: &mut Lane<'_>) -> Probe {
    let mut probe = Probe::default();
    for i in 0..n {
        let (ok, secs) = lane.time("served.connect_ping", i as u64 + 1, |lane| {
            let (client, _) = lane.time("served.connect", i as u64 + 1, |_| {
                WireClient::connect(addr)
            });
            let Ok(mut client) = client else { return false };
            if client.set_recv_timeout(Some(REQUEST_TIMEOUT)).is_err() {
                return false;
            }
            let (pong, _) = lane.time("served.call_ping", i as u64 + 1, |_| client.call_ping());
            matches!(pong, Ok(Response::Pong))
        });
        if ok {
            probe.seconds.push(secs);
        } else {
            probe.failed += 1;
        }
    }
    probe
}

/// `n` PING round trips on one open connection: socket + framing + the
/// connection's two thread hops, no service.
pub fn ping_probe(client: &mut WireClient, n: usize, lane: &mut Lane<'_>) -> Probe {
    let mut probe = Probe::default();
    for i in 0..n {
        let (pong, secs) = lane.time("served.call_ping", i as u64 + 1, |_| client.call_ping());
        if matches!(pong, Ok(Response::Pong)) {
            probe.seconds.push(secs);
        } else {
            probe.failed += 1;
        }
    }
    probe
}

/// Sequential RELOADs of `path` over the wire — at least `n`, then on
/// until `budget` is spent or `8 n` are done, so that a quick reload (an
/// mmap of a small file takes 3 ms, a RAM decode of WEBW 45 ms) gets the
/// more samples. Each is timed from the request to RELOAD_OK (the new
/// generation is installed and answering) and followed by one untimed
/// verified query that must be answered by that generation or a later
/// one.
pub fn reload_probe(
    client: &mut WireClient,
    path: &str,
    n: usize,
    budget: Duration,
    traffic: Traffic<'_>,
    lane: &mut Lane<'_>,
) -> Probe {
    let expect = traffic.expect();
    let mut probe = Probe::default();
    let started = Instant::now();
    for i in 0..8 * n {
        if i >= n && started.elapsed() >= budget {
            break;
        }
        let (reply, secs) = lane.time("served.call_reload", i as u64 + 1, |_| {
            client.call_reload(path)
        });
        let installed = match reply {
            Ok(Response::ReloadOk { generation }) => generation,
            _ => {
                probe.failed += 1;
                continue;
            }
        };
        let pairs = traffic.chunk(i % traffic.chunks());
        let at = (i % traffic.chunks()) * traffic.batch;
        match client.call_query(pairs, 0, wire::priority::NORMAL) {
            Ok(Response::QueryOk {
                generation,
                answers,
            }) if generation >= installed && answers[..] == expect[at..at + pairs.len()] => {
                probe.seconds.push(secs)
            }
            _ => probe.failed += 1,
        }
    }
    probe
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(at_s: f64, latency_s: f64, ok: bool) -> Request {
        Request {
            at_s,
            latency_s,
            chunk: 0,
            generation: 1,
            ok,
        }
    }

    #[test]
    fn failures_count_against_attempts_and_miss_the_limit() {
        // Two segments of one second; the second holds a failure and a
        // slow answer.
        let log = ClientLog {
            requests: vec![
                req(0.1, 100e-6, true),
                req(0.5, 300e-6, true),
                req(0.9, 200e-6, true),
                req(1.2, 100e-6, false),
                req(1.6, 5000e-6, true),
                req(2.5, 100e-6, true), // started after the window
            ],
            kept: Vec::new(),
        };
        let s = summarize(&[log], 4, 2.0, 2, Duration::from_millis(1));
        assert_eq!((s.attempted, s.failed), (6, 1));
        assert!((s.slo_miss_frac - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.segment_p50_us.len(), 2);
        assert!((s.segment_p50_us[0] - 200.0).abs() < 1e-9);
        // Too few samples for a p99: the tail falls back to the median.
        assert_eq!(s.tail_level, 0.5);
        // 3 answered × 4 queries in segment one, 1 × 4 in segment two.
        assert_eq!(s.queries_per_s.value, (12.0 + 4.0) / 2.0);
        assert_eq!(s.p50_us.samples, 5);
    }

    #[test]
    fn probe_percentiles_use_every_sample() {
        let p = Probe {
            seconds: (1..=110).map(|i| i as f64 * 1e-3).collect(),
            failed: 2,
        };
        assert_eq!(p.attempted(), 112);
        assert!((p.percentile(0.5, 1e3).value - 55.0).abs() < 1e-9);
        let p90 = p.percentile(0.9, 1e3);
        assert!((p90.value - 99.0).abs() < 1e-9);
        assert_eq!(p90.samples, 110);
    }
}
