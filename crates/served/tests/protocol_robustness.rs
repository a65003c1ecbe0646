//! Protocol-robustness suite: hostile bytes on the wire — corrupt
//! headers, truncated and oversized frames, unknown opcodes, malformed
//! payloads, mid-frame disconnects, and quota-exceeded paths — must all
//! yield *typed* error frames (fatal ones closing the connection,
//! recoverable ones leaving it usable), and must never panic the server
//! or hang a connection. Every test ends in `Server::shutdown`, whose
//! ledger assertion (`submitted == answered + rejected + shed`) proves
//! the abuse did not corrupt the serving accounting either.

mod common;

use std::time::Duration;

use common::RawConn;
use reach_served::server::ServedConfig;
use reach_served::wire::{self, opcode, ErrorCode};
use reach_served::{QuotaConfig, Response, WireClient};

/// Reads an ERROR frame and decodes its code, asserting the request id
/// echo.
fn expect_error(conn: &mut RawConn, request_id: u64) -> ErrorCode {
    let frame = conn.read_frame();
    assert_eq!(frame.opcode, opcode::ERROR, "expected an ERROR frame");
    assert_eq!(frame.request_id, request_id, "error echoes the request id");
    let (raw, code, _msg) = wire::decode_error(&frame.payload).expect("well-formed error payload");
    code.unwrap_or_else(|| panic!("unknown error code {raw}"))
}

/// A new connection still works — the canonical "server survived" probe.
fn assert_server_alive(server: &reach_served::Server) {
    let mut client = WireClient::connect(server.local_addr()).expect("connect after abuse");
    client
        .set_recv_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(client.call_ping().expect("ping"), Response::Pong);
}

#[test]
fn bad_version_is_fatal_but_server_survives() {
    let (_g, idx) = common::fixture();
    let server = common::start(idx, ServedConfig::default());

    let mut conn = RawConn::connect(&server);
    let mut frame = wire::Frame::new(opcode::PING, 42, Vec::new());
    frame.version = 9;
    conn.send_bytes(&frame.encode());

    assert_eq!(expect_error(&mut conn, 42), ErrorCode::UnsupportedVersion);
    conn.expect_eof();
    assert_server_alive(&server);
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    let (_g, idx) = common::fixture();
    let server = common::start(
        idx,
        ServedConfig {
            max_frame: 1024,
            ..ServedConfig::default()
        },
    );

    // A header claiming a payload far beyond the cap, with no payload
    // bytes at all: the server must reject on the header alone.
    let mut conn = RawConn::connect(&server);
    let mut header = Vec::new();
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    header.push(wire::VERSION);
    header.push(opcode::QUERY);
    header.extend_from_slice(&7u64.to_le_bytes());
    conn.send_bytes(&header);

    assert_eq!(expect_error(&mut conn, 7), ErrorCode::FrameTooLarge);
    conn.expect_eof();
    assert_server_alive(&server);
    server.shutdown();
}

#[test]
fn garbage_bytes_close_the_connection_with_a_typed_error() {
    let (_g, idx) = common::fixture();
    let server = common::start(idx, ServedConfig::default());

    // 64 bytes of junk: whatever lands in the version byte is not 1, so
    // the reader reports a fatal framing violation rather than guessing.
    let mut conn = RawConn::connect(&server);
    let junk: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
    assert_ne!(junk[4], wire::VERSION, "junk must not fake the version");
    conn.send_bytes(&junk);

    let frame = conn.read_frame();
    assert_eq!(frame.opcode, opcode::ERROR);
    let (_raw, code, _msg) = wire::decode_error(&frame.payload).expect("typed error");
    assert!(code.expect("known code").is_fatal());
    conn.expect_eof();
    assert_server_alive(&server);
    server.shutdown();
}

#[test]
fn unknown_opcode_is_skipped_and_the_connection_stays_usable() {
    let (_g, idx) = common::fixture();
    let server = common::start(idx, ServedConfig::default());

    let mut conn = RawConn::connect(&server);
    conn.send_frame(0x42, 5, vec![1, 2, 3, 4]);
    assert_eq!(expect_error(&mut conn, 5), ErrorCode::UnknownOpcode);

    // The length prefix let the server skip the whole frame: the very
    // same connection still answers.
    conn.send_frame(opcode::PING, 6, Vec::new());
    let pong = conn.read_frame();
    assert_eq!(pong.opcode, opcode::PONG);
    assert_eq!(pong.request_id, 6);
    server.shutdown();
}

#[test]
fn malformed_payload_is_a_recoverable_error() {
    let (_g, idx) = common::fixture();
    let server = common::start(idx, ServedConfig::default());
    let mut conn = RawConn::connect(&server);

    // A QUERY whose pair count claims more pairs than the payload holds.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u32.to_le_bytes()); // deadline_ms
    payload.push(wire::priority::NORMAL);
    payload.extend_from_slice(&5u32.to_le_bytes()); // count: 5
    payload.extend_from_slice(&1u32.to_le_bytes()); // ...but one vertex
    conn.send_frame(opcode::QUERY, 9, payload);
    assert_eq!(expect_error(&mut conn, 9), ErrorCode::BadPayload);

    // A QUERY with an undefined priority byte.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.push(77);
    payload.extend_from_slice(&0u32.to_le_bytes());
    conn.send_frame(opcode::QUERY, 10, payload);
    assert_eq!(expect_error(&mut conn, 10), ErrorCode::BadPayload);

    // A RELOAD whose path is not UTF-8.
    let mut payload = Vec::new();
    payload.extend_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(&[0xFF, 0xFE]);
    conn.send_frame(opcode::RELOAD, 11, payload);
    assert_eq!(expect_error(&mut conn, 11), ErrorCode::BadPayload);

    // All three were recoverable: the connection still answers.
    conn.send_frame(opcode::PING, 12, Vec::new());
    assert_eq!(conn.read_frame().opcode, opcode::PONG);
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_does_not_wedge_the_server() {
    let (_g, idx) = common::fixture();
    let server = common::start(idx, ServedConfig::default());

    // Write half a header, then vanish.
    {
        let mut conn = RawConn::connect(&server);
        conn.send_bytes(&[0x10, 0x00, 0x00, 0x00, 0x01, 0x01]);
        // Dropped here: the socket closes mid-frame.
    }
    // And again with a complete header but a truncated payload.
    {
        let mut conn = RawConn::connect(&server);
        let frame = wire::Frame::new(opcode::QUERY, 3, vec![0u8; 64]).encode();
        conn.send_bytes(&frame[..frame.len() - 10]);
    }

    assert_server_alive(&server);
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 0, "no partial frame ever became a batch");
}

#[test]
fn batch_over_the_frame_cap_is_rejected() {
    let (g, idx) = common::fixture();
    let server = common::start(
        idx,
        ServedConfig {
            quota: QuotaConfig {
                max_batch: 8,
                ..QuotaConfig::default()
            },
            ..ServedConfig::default()
        },
    );
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_recv_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let big = common::batch(&g, 9, 1);
    match client
        .call_query(&big, 0, wire::priority::NORMAL)
        .expect("typed error, not a dead socket")
    {
        Response::Error { code, .. } => assert_eq!(code, Some(ErrorCode::BatchTooLarge)),
        other => panic!("expected BATCH_TOO_LARGE, got {other:?}"),
    }

    // At the cap is fine.
    let ok = common::batch(&g, 8, 2);
    match client.call_query(&ok, 0, wire::priority::NORMAL).unwrap() {
        Response::QueryOk { answers, .. } => assert_eq!(answers.len(), 8),
        other => panic!("expected QUERY_OK, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn inflight_window_quota_yields_retryable_rejection() {
    let (g, idx) = common::fixture();
    let server = common::start(
        idx.clone(),
        ServedConfig {
            quota: QuotaConfig {
                max_inflight: 2,
                ..QuotaConfig::default()
            },
            ..ServedConfig::default()
        },
    );
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Hold the workers so the first two queries stay in flight, then
    // overflow the window with a third.
    server.service().pause();
    let b1 = common::batch(&g, 4, 10);
    let b2 = common::batch(&g, 4, 11);
    let b3 = common::batch(&g, 4, 12);
    let id1 = client.send_query(&b1, 0, wire::priority::NORMAL).unwrap();
    let id2 = client.send_query(&b2, 0, wire::priority::NORMAL).unwrap();
    // Wait until both batches are admitted (the reader thread races us;
    // the ledger counts batches, not queries).
    while server.service().stats().submitted < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let id3 = client.send_query(&b3, 0, wire::priority::NORMAL).unwrap();
    // The reader thread must see frame 3 while the window is still full
    // (its rejection is invisible until the writer drains, so give the
    // parse a generous head start before releasing the workers). This
    // sleep stays, at its generous length, until the server has live
    // metrics: a rejection counted where the test can read it (ROADMAP,
    // "See inside a running server") is the observable to wait on, and a
    // shorter guess would only trade a slow test for a flaky one.
    std::thread::sleep(Duration::from_millis(300));
    server.service().resume();

    // Responses arrive in request order on one connection.
    for (id, batch) in [(id1, &b1), (id2, &b2)] {
        let (got, resp) = client.recv().expect("pipelined response");
        assert_eq!(got, id);
        match resp {
            Response::QueryOk { answers, .. } => {
                let want: Vec<bool> = batch.iter().map(|&(s, t)| idx.query(s, t)).collect();
                assert_eq!(answers, want, "in-flight answers are still correct");
            }
            other => panic!("expected QUERY_OK, got {other:?}"),
        }
    }
    let (got, resp) = client.recv().unwrap();
    assert_eq!(got, id3);
    match resp {
        Response::Error { code, .. } => {
            let code = code.expect("known code");
            assert_eq!(code, ErrorCode::QuotaExceeded);
            assert!(code.is_retryable(), "quota rejections invite a retry");
        }
        other => panic!("expected QUOTA_EXCEEDED, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn rate_bucket_quota_rejects_the_burst_overflow() {
    let (g, idx) = common::fixture();
    let server = common::start(
        idx,
        ServedConfig {
            quota: QuotaConfig {
                queries_per_sec: Some(5),
                ..QuotaConfig::default()
            },
            ..ServedConfig::default()
        },
    );
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_recv_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // The burst is one second's budget (5 queries): the first batch of 5
    // drains it, the immediate second batch bounces.
    let batch = common::batch(&g, 5, 20);
    match client
        .call_query(&batch, 0, wire::priority::NORMAL)
        .unwrap()
    {
        Response::QueryOk { .. } => {}
        other => panic!("first burst should pass, got {other:?}"),
    }
    match client
        .call_query(&batch, 0, wire::priority::NORMAL)
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, Some(ErrorCode::QuotaExceeded)),
        other => panic!("expected QUOTA_EXCEEDED, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn invalid_vertices_yield_typed_errors_on_both_query_paths() {
    let (_g, idx) = common::fixture();
    let n = idx.num_vertices() as u32;
    let server = common::start(idx, ServedConfig::default());
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_recv_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let bad = [(0u32, n + 100)];
    match client.call_query(&bad, 0, wire::priority::NORMAL).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, Some(ErrorCode::InvalidVertex)),
        other => panic!("expected INVALID_VERTEX from QUERY, got {other:?}"),
    }
    match client.call_witness(&bad).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, Some(ErrorCode::InvalidVertex)),
        other => panic!("expected INVALID_VERTEX from WITNESS, got {other:?}"),
    }
    // Both rejections were recoverable.
    assert_eq!(client.call_ping().unwrap(), Response::Pong);
    server.shutdown();
}

#[test]
fn witness_answers_match_the_index_and_agree_with_query() {
    let (g, idx) = common::fixture();
    let server = common::start(idx.clone(), ServedConfig::default());
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_recv_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let pairs = common::batch(&g, 64, 30);
    let witnesses = match client.call_witness(&pairs).unwrap() {
        Response::WitnessOk { witnesses, .. } => witnesses,
        other => panic!("expected WITNESS_OK, got {other:?}"),
    };
    assert_eq!(witnesses.len(), pairs.len());
    for (&(s, t), got) in pairs.iter().zip(&witnesses) {
        assert_eq!(*got, idx.query_witness(s, t), "witness for ({s},{t})");
        assert_eq!(
            got.is_some(),
            idx.query(s, t),
            "a witness exists exactly when ({s},{t}) is reachable"
        );
    }
    server.shutdown();
}
