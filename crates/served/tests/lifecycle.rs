//! Lifecycle suite: graceful drain, wire-triggered index reload, and the
//! event-driven connection lifecycle — a blocked accept woken by drain,
//! blocked readers ended by shutdown, no timer anywhere on the path.
//!
//! The drain contract — in-flight batches complete and their responses
//! are written, new work is rejected with `SHUTTING_DOWN` — is staged
//! deterministically with [`QueryService::pause`]: queries are pipelined
//! while the workers are held, the drain flips mid-pipeline, and the
//! responses prove which side of the drain each request landed on.
//!
//! The reload contract is PR 5's swap-consistency invariant carried over
//! the wire: every `QUERY_OK` tags the generation that answered it, and
//! its answers must equal direct [`ReachIndex::query`] calls on exactly
//! that generation's index — across reloads by explicit path, by the
//! empty default path, and past a failed reload that must change
//! nothing.

mod common;

use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reach_index::{storage, ReachIndex};
use reach_serve::testing::closure_index;
use reach_served::server::{ServedConfig, Server};
use reach_served::wire::{self, ErrorCode};
use reach_served::{shutdown, ClientError, Response, WireClient};

/// A client of `addr` whose receives fail after 10 s rather than hang.
fn try_connect(addr: SocketAddr) -> std::io::Result<WireClient> {
    let mut client = WireClient::connect(addr)?;
    client.set_recv_timeout(Some(Duration::from_secs(10)))?;
    Ok(client)
}

fn connect(server: &Server) -> WireClient {
    try_connect(server.local_addr()).expect("connect")
}

#[test]
fn drain_completes_inflight_and_rejects_new_work() {
    let (g, idx) = common::fixture();
    let server = common::start(idx.clone(), ServedConfig::default());
    let mut pipelined = connect(&server);
    let mut controller = connect(&server);

    // Hold the workers so two admitted batches stay in flight.
    server.service().pause();
    let b1 = common::batch(&g, 6, 1);
    let b2 = common::batch(&g, 6, 2);
    let id1 = pipelined
        .send_query(&b1, 0, wire::priority::NORMAL)
        .unwrap();
    let id2 = pipelined.send_query(&b2, 0, wire::priority::HIGH).unwrap();
    // The ledger counts batches: wait for both admissions.
    while server.service().stats().submitted < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Drain lands between the in-flight pair and anything later.
    assert!(!server.is_draining());
    assert_eq!(controller.call_drain().unwrap(), Response::DrainOk);
    assert!(server.is_draining());
    // A second DRAIN is idempotent, and STATS still answers mid-drain.
    assert_eq!(controller.call_drain().unwrap(), Response::DrainOk);
    match controller.call_stats().unwrap() {
        Response::StatsOk(s) => assert_eq!(s.submitted, 2, "both batches show in STATS"),
        other => panic!("expected STATS_OK, got {other:?}"),
    }

    // New work after the drain began is refused...
    let b3 = common::batch(&g, 6, 3);
    let id3 = pipelined
        .send_query(&b3, 0, wire::priority::NORMAL)
        .unwrap();
    server.service().resume();

    // ...while the in-flight pair completes with correct answers.
    for (id, batch) in [(id1, &b1), (id2, &b2)] {
        let (got, resp) = pipelined.recv().expect("in-flight response survives drain");
        assert_eq!(got, id);
        match resp {
            Response::QueryOk { answers, .. } => {
                let want: Vec<bool> = batch.iter().map(|&(s, t)| idx.query(s, t)).collect();
                assert_eq!(answers, want);
            }
            other => panic!("expected QUERY_OK, got {other:?}"),
        }
    }
    let (got, resp) = pipelined.recv().unwrap();
    assert_eq!(got, id3);
    match resp {
        Response::Error { code, .. } => assert_eq!(code, Some(ErrorCode::ShuttingDown)),
        other => panic!("expected SHUTTING_DOWN, got {other:?}"),
    }

    // Once the clients hang up, the drain quiesces.
    drop(pipelined);
    drop(controller);
    assert!(
        server.wait_drained(Duration::from_secs(10)),
        "drain quiesces once clients disconnect"
    );
    let stats = server.shutdown();
    assert_eq!(stats.answered, 2, "exactly the in-flight batches answered");
}

#[test]
fn reload_over_wire_answers_match_the_pinned_generation() {
    // Three cumulative edge slices of one graph: same vertex set, growing
    // reachability — distinguishable indices for the generation check.
    let g = reach_datasets::generators::hierarchy(60, 220, 0.9, 9);
    let slices = reach_datasets::edge_fraction_slices(&g, 3, 7);
    let indices: Vec<Arc<ReachIndex>> = slices.iter().map(closure_index).collect();
    let paths: Vec<_> = (0..indices.len())
        .map(|i| common::temp_index_path(&format!("reload-{i}")))
        .collect();
    for (idx, path) in indices.iter().zip(&paths) {
        storage::save_index(idx, path).expect("save slice index");
    }

    let server = common::start(
        Arc::clone(&indices[0]),
        ServedConfig {
            reload_path: Some(paths[0].clone()),
            ..ServedConfig::default()
        },
    );
    let mut client = connect(&server);
    let pairs = common::batch(&g, 96, 40);

    // generation -> index under this reload schedule: gen 0 and the
    // empty-path reload serve slice 0; gens 1 and 2 serve slices 1 and 2.
    let verify = |client: &mut WireClient, expect_gen: u64, expect_idx: &ReachIndex| {
        match client
            .call_query(&pairs, 0, wire::priority::NORMAL)
            .unwrap()
        {
            Response::QueryOk {
                generation,
                answers,
            } => {
                assert_eq!(generation, expect_gen, "answers tag the serving generation");
                for (&(s, t), &got) in pairs.iter().zip(&answers) {
                    assert_eq!(
                        got,
                        expect_idx.query(s, t),
                        "q({s},{t}) disagrees with generation {generation}'s index"
                    );
                }
            }
            other => panic!("expected QUERY_OK, got {other:?}"),
        }
        match client.call_witness(&pairs).unwrap() {
            Response::WitnessOk {
                generation,
                witnesses,
            } => {
                assert_eq!(generation, expect_gen);
                for (&(s, t), got) in pairs.iter().zip(&witnesses) {
                    assert_eq!(*got, expect_idx.query_witness(s, t));
                }
            }
            other => panic!("expected WITNESS_OK, got {other:?}"),
        }
    };

    verify(&mut client, 0, &indices[0]);
    for next in 1..indices.len() {
        match client.call_reload(paths[next].to_str().unwrap()).unwrap() {
            Response::ReloadOk { generation } => assert_eq!(generation, next as u64),
            other => panic!("expected RELOAD_OK, got {other:?}"),
        }
        verify(&mut client, next as u64, &indices[next]);
    }

    // The empty path reloads the startup index (slice 0) as generation 3.
    match client.call_reload("").unwrap() {
        Response::ReloadOk { generation } => assert_eq!(generation, 3),
        other => panic!("expected RELOAD_OK, got {other:?}"),
    }
    verify(&mut client, 3, &indices[0]);

    // A reload that cannot load changes nothing: typed error, same
    // generation keeps serving.
    match client.call_reload("/nonexistent/nope.ridx").unwrap() {
        Response::Error { code, .. } => assert_eq!(code, Some(ErrorCode::ReloadFailed)),
        other => panic!("expected RELOAD_FAILED, got {other:?}"),
    }
    verify(&mut client, 3, &indices[0]);

    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.swaps, 3, "three reloads installed");
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn termination_signal_requests_a_drain() {
    let (_g, idx) = common::fixture();
    let server = common::start(idx, ServedConfig::default());
    let mut client = connect(&server);
    assert_eq!(client.call_ping().unwrap(), Response::Pong);

    // The binary's arrangement: the handler writes one byte, a watcher
    // blocked on it turns that into a drain, and the main thread blocks
    // until the drain has begun.
    shutdown::install().expect("install signal handlers");
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let signalled = shutdown::wait_for_termination();
            server.drain();
            signalled
        });
        shutdown::raise_term_for_test();
        assert!(shutdown::termination_requested());
        server.wait_draining();
        assert!(watcher.join().unwrap(), "the watcher woke on the signal");
    });

    match client
        .call_query(&[(0, 1)], 0, wire::priority::NORMAL)
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, Some(ErrorCode::ShuttingDown)),
        other => panic!("expected SHUTTING_DOWN after SIGTERM, got {other:?}"),
    }
    drop(client);
    assert!(server.wait_drained(Duration::from_secs(10)));
    server.shutdown();
}

#[test]
fn short_connections_pay_no_poll_interval() {
    let (_g, idx) = common::fixture();
    let server = common::start(idx, ServedConfig::default());
    // One round trip to warm the path; the budget is for the next 200.
    assert_eq!(connect(&server).call_ping().unwrap(), Response::Pong);

    // A server that looks at its listener every 5 ms cannot do this in
    // under a second; a blocked accept needs a few tens of milliseconds.
    let started = Instant::now();
    for _ in 0..200 {
        let mut client = connect(&server);
        assert_eq!(client.call_ping().unwrap(), Response::Pong);
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "200 connect → PING → close round trips took {took:?}"
    );

    server.drain();
    assert!(server.wait_drained(Duration::from_secs(10)));
    assert_eq!(server.active_connections(), 0);
    server.shutdown();
}

/// After the accept thread has exited the listener is closed: a fresh
/// connect is refused, or (had it raced the close) ends without a PONG.
fn assert_not_accepting(addr: SocketAddr) {
    let Ok(mut client) = try_connect(addr) else {
        return;
    };
    assert!(
        client.call_ping().is_err(),
        "a draining server answered a new connection"
    );
}

#[test]
fn drain_wakes_the_blocked_accept_on_an_idle_server() {
    let (_g, idx) = common::fixture();
    // No client has ever connected: the accept thread is parked in its
    // first `accept`, and only the drain's wake can move it.
    let server = common::start(idx, ServedConfig::default());
    server.drain();
    assert_eq!(server.active_connections(), 0, "the wake is no connection");
    assert!(server.wait_drained(Duration::from_secs(10)));
    // `shutdown` joins the accept thread, so returning at all is the
    // proof that it woke; the ledger is asserted inside.
    let addr = server.local_addr();
    let stats = server.shutdown();
    assert!(stats.is_balanced());
    assert_eq!(stats.submitted, 0);
    assert_not_accepting(addr);
}

#[test]
fn wire_drain_wakes_the_blocked_accept() {
    let (_g, idx) = common::fixture();
    let server = common::start(idx, ServedConfig::default());
    let mut controller = connect(&server);
    assert_eq!(controller.call_ping().unwrap(), Response::Pong);
    assert_eq!(server.active_connections(), 1);

    std::thread::scope(|scope| {
        // Parked like the binary's main thread; the DRAIN frame wakes it.
        let waiter = scope.spawn(|| server.wait_draining());
        assert_eq!(controller.call_drain().unwrap(), Response::DrainOk);
        waiter.join().unwrap();
    });
    // DRAIN_OK is queued after the wake, so the accept thread has been
    // reached by now and nothing new is served...
    assert_not_accepting(server.local_addr());
    // ...and neither the wake nor the refused probe was ever counted.
    assert_eq!(server.active_connections(), 1);

    drop(controller);
    assert!(server.wait_drained(Duration::from_secs(10)));
    assert_eq!(server.active_connections(), 0);
    assert!(server.shutdown().is_balanced());
}

/// The server closed this connection in an orderly way: a clean EOF, not
/// a receive timeout (a hang) and not a reset (responses cut off).
fn expect_eof(client: &mut WireClient) {
    match client.recv() {
        Err(ClientError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => {}
        other => panic!("expected EOF, got {other:?}"),
    }
}

#[test]
fn shutdown_ends_idle_connections_and_flushes_ticketed_responses() {
    let (g, idx) = common::fixture();
    let server = common::start(idx.clone(), ServedConfig::default());
    // Eight readers blocked in `read` with nothing to wake them but the
    // read-half shutdown.
    let mut idle: Vec<WireClient> = (0..8).map(|_| connect(&server)).collect();
    for client in &mut idle {
        assert_eq!(client.call_ping().unwrap(), Response::Pong);
    }

    // Two batches ticketed behind the held workers, released as the
    // shutdown begins: whichever side of the reader's EOF each answer
    // lands on, the writer owes it to the client before closing.
    let mut busy = connect(&server);
    server.service().pause();
    let b1 = common::batch(&g, 6, 21);
    let b2 = common::batch(&g, 6, 22);
    let id1 = busy.send_query(&b1, 0, wire::priority::NORMAL).unwrap();
    let id2 = busy.send_query(&b2, 0, wire::priority::NORMAL).unwrap();
    while server.service().stats().submitted < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server.active_connections(), 9);
    server.service().resume();
    let stats = server.shutdown();
    assert!(stats.is_balanced());
    assert_eq!(stats.answered, 2);

    for (id, batch) in [(id1, &b1), (id2, &b2)] {
        let (got, resp) = busy.recv().expect("ticketed response precedes EOF");
        assert_eq!(got, id);
        match resp {
            Response::QueryOk { answers, .. } => {
                let want: Vec<bool> = batch.iter().map(|&(s, t)| idx.query(s, t)).collect();
                assert_eq!(answers, want);
            }
            other => panic!("expected QUERY_OK, got {other:?}"),
        }
    }
    expect_eof(&mut busy);
    for client in &mut idle {
        expect_eof(client);
    }
}

#[test]
fn server_on_the_unspecified_address_drains() {
    let (_g, idx) = common::fixture();
    // 0.0.0.0 is a bind address, not a destination: the wake has to
    // reach the listener through localhost.
    let server = Server::start(idx, ServedConfig::default(), "0.0.0.0:0").expect("bind 0.0.0.0");
    let localhost = SocketAddr::from(([127, 0, 0, 1], server.local_addr().port()));
    let mut client = try_connect(localhost).expect("connect");
    assert_eq!(client.call_ping().unwrap(), Response::Pong);

    server.drain();
    drop(client);
    assert!(server.wait_drained(Duration::from_secs(10)));
    // Joins the accept thread: returns only if the wake reached it.
    assert!(server.shutdown().is_balanced());
    assert_not_accepting(localhost);
}
