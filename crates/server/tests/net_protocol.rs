//! Wire-protocol robustness: the TCP frontend must survive garbage,
//! oversized and torn frames, reject bad credentials, and — the one that
//! matters for capacity — release every admission permit, memstore pin and
//! prefetch grant held by a query whose client vanished mid-stream.
//!
//! These tests speak the protocol by hand over raw `TcpStream`s using the
//! server's own frame codec, so they can produce byte sequences a
//! well-behaved client never would.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use shark_common::{row, DataType, Schema};
use shark_server::net::frame::{self, Frame, MAX_FRAME_BYTES};
use shark_server::{NetConfig, NetServer, ServerConfig, SharkServer};
use shark_sql::TableMeta;

const PARTITIONS: usize = 4;
const ROWS_PER_PARTITION: usize = 200;

fn serve(config: NetConfig) -> (SharkServer, NetServer) {
    let server = SharkServer::new(ServerConfig::default());
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("grp", DataType::Str)]);
    server.register_table(
        TableMeta::new("t0", schema, PARTITIONS, move |p| {
            (0..ROWS_PER_PARTITION)
                .map(|i| row![(p * ROWS_PER_PARTITION + i) as i64, ["a", "b", "c"][i % 3]])
                .collect()
        })
        .with_cache(PARTITIONS)
        .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
    );
    server.load_table("t0").unwrap();
    let net = server.serve(config).unwrap();
    (server, net)
}

fn handshake(addr: std::net::SocketAddr, token: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    frame::write_frame(
        &mut stream,
        &Frame::Hello {
            token: token.to_string(),
            tenant: String::new(),
        },
    )
    .unwrap();
    let (reply, _) = frame::read_frame(&mut stream).unwrap();
    assert!(matches!(reply, Frame::HelloOk { .. }), "got {reply:?}");
    stream
}

/// Wait (bounded) for an asynchronous server-side condition.
fn await_condition(what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Read frames until the peer closes; return the first Error frame seen.
fn read_to_close(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut error = None;
    loop {
        match frame::read_frame(stream) {
            Ok((Frame::Error { kind, message }, _)) => {
                error.get_or_insert((kind, message));
            }
            Ok(_) => {}
            Err(_) => return error,
        }
    }
}

#[test]
fn garbage_oversized_and_unexpected_frames_are_protocol_errors() {
    let (server, mut net) = serve(NetConfig::default());
    let addr = net.local_addr();

    // An unknown frame type with a valid header and checksum.
    let mut conn = handshake(addr, "");
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.push(99); // no such frame type
    bytes.extend_from_slice(&frame::checksum(&[]).to_le_bytes());
    conn.write_all(&bytes).unwrap();
    let (kind, _) = read_to_close(&mut conn).expect("server must report the error");
    assert_eq!(kind, "protocol");

    // A corrupted checksum on an otherwise valid frame.
    let mut conn = handshake(addr, "");
    let payload = Frame::Close.encode_payload();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.push(Frame::Close.frame_type());
    bytes.extend_from_slice(&(frame::checksum(&payload) ^ 0xdead).to_le_bytes());
    bytes.extend_from_slice(&payload);
    conn.write_all(&bytes).unwrap();
    let (kind, message) = read_to_close(&mut conn).expect("server must report the error");
    assert_eq!(kind, "protocol");
    assert!(message.contains("checksum"), "got: {message}");

    // A length field past the frame cap must be rejected up front (the
    // server must not try to allocate or read the claimed body).
    let mut conn = handshake(addr, "");
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
    bytes.push(Frame::Close.frame_type());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    conn.write_all(&bytes).unwrap();
    let (kind, _) = read_to_close(&mut conn).expect("server must report the error");
    assert_eq!(kind, "protocol");

    // A server-to-client frame type sent by the client.
    let mut conn = handshake(addr, "");
    frame::write_frame(
        &mut conn,
        &Frame::QueryDone {
            rows: 0,
            partitions: 0,
            plan_cache_hit: false,
            sim_seconds: 0.0,
            cancelled: false,
        },
    )
    .unwrap();
    let (kind, _) = read_to_close(&mut conn).expect("server must report the error");
    assert_eq!(kind, "protocol");

    await_condition("all connections to close", || {
        server.report().connections_active == 0
    });
    let report = server.report();
    assert!(
        report.net_protocol_errors >= 4,
        "expected >= 4 protocol errors, got {}",
        report.net_protocol_errors
    );
    net.shutdown();
}

#[test]
fn torn_frames_and_silent_disconnects_close_cleanly() {
    let (server, mut net) = serve(NetConfig::default());
    let addr = net.local_addr();

    // Half a header, then gone: an IO-level teardown, not a protocol error.
    let mut conn = handshake(addr, "");
    conn.write_all(&[0x05, 0x00, 0x00]).unwrap();
    drop(conn);

    // Nothing at all, then gone.
    let conn = TcpStream::connect(addr).unwrap();
    drop(conn);

    await_condition("all connections to close", || {
        let report = server.report();
        report.connections_opened >= 2 && report.connections_active == 0
    });
    assert_eq!(server.report().net_protocol_errors, 0);
    net.shutdown();
    assert_eq!(server.report().connections_active, 0);
}

#[test]
fn bad_auth_token_is_rejected_and_counted() {
    let (server, mut net) = serve(NetConfig::default().with_auth_token("sesame"));
    let addr = net.local_addr();

    let mut conn = TcpStream::connect(addr).unwrap();
    frame::write_frame(
        &mut conn,
        &Frame::Hello {
            token: "open".to_string(),
            tenant: String::new(),
        },
    )
    .unwrap();
    match frame::read_frame(&mut conn) {
        Ok((Frame::Error { kind, .. }, _)) => assert_eq!(kind, "auth"),
        other => panic!("expected auth error, got {other:?}"),
    }

    // The right token still works.
    let mut conn = handshake(addr, "sesame");
    frame::write_frame(&mut conn, &Frame::Close).unwrap();

    await_condition("all connections to close", || {
        server.report().connections_active == 0
    });
    let report = server.report();
    assert_eq!(report.net_auth_failures, 1);
    assert_eq!(report.net_protocol_errors, 0);
    net.shutdown();
}

#[test]
fn mid_query_disconnect_releases_permit_pins_and_prefetch() {
    let (server, mut net) = serve(NetConfig::default().with_max_batch_rows(16));
    let addr = net.local_addr();

    // Start a full-table scan, read only the schema frame, then vanish.
    let mut conn = handshake(addr, "");
    frame::write_frame(
        &mut conn,
        &Frame::Query {
            sql: "SELECT k, grp FROM t0".to_string(),
        },
    )
    .unwrap();
    let (schema, _) = frame::read_frame(&mut conn).unwrap();
    assert!(matches!(schema, Frame::ResultSchema { .. }));
    drop(conn);

    // The abandoned cursor must unwind completely on its own: admission
    // permit back, memstore pins dropped, prefetch budget returned.
    await_condition("the abandoned query to release its permit", || {
        server.running_queries() == 0
    });
    await_condition("the prefetch grant to come back", || {
        server.prefetch_in_use() == 0
    });
    await_condition("the connection to be deregistered", || {
        server.report().connections_active == 0
    });

    // And the server still serves: a fresh connection runs to completion.
    let mut conn = handshake(addr, "");
    frame::write_frame(
        &mut conn,
        &Frame::Query {
            sql: "SELECT COUNT(*) FROM t0".to_string(),
        },
    )
    .unwrap();
    let mut rows = 0u64;
    loop {
        match frame::read_frame(&mut conn).unwrap().0 {
            Frame::ResultSchema { .. } => {}
            Frame::ResultBatch { rows: batch } => rows += batch.len() as u64,
            Frame::QueryDone {
                rows: total,
                cancelled,
                ..
            } => {
                assert_eq!(rows, total);
                assert!(!cancelled);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    frame::write_frame(&mut conn, &Frame::Close).unwrap();

    net.shutdown();
    let report = server.report();
    assert_eq!(report.connections_active, 0);
    assert_eq!(server.running_queries(), 0);
    assert_eq!(server.prefetch_in_use(), 0);
}

#[test]
fn idle_connections_are_reaped_but_a_query_outlasting_the_deadline_is_not() {
    const IDLE: Duration = Duration::from_millis(150);
    let (server, mut net) = serve(NetConfig::default().with_idle_timeout(IDLE));
    let addr = net.local_addr();
    // Uncached, and every partition takes most of the idle deadline to
    // produce: the query below runs for several deadlines.
    let schema = Schema::from_pairs(&[("k", DataType::Int)]);
    server.register_table(TableMeta::new("slow", schema, PARTITIONS, |p| {
        std::thread::sleep(IDLE * 2 / 3);
        vec![row![p as i64]]
    }));

    let mut conn = handshake(addr, "");
    let started = Instant::now();
    frame::write_frame(
        &mut conn,
        &Frame::Query {
            sql: "SELECT k FROM slow".to_string(),
        },
    )
    .unwrap();
    let mut rows = 0;
    loop {
        match frame::read_frame(&mut conn).unwrap().0 {
            Frame::ResultSchema { .. } => {}
            Frame::ResultBatch { rows: batch } => rows += batch.len(),
            Frame::QueryDone { cancelled, .. } => {
                assert!(!cancelled);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(rows, PARTITIONS);
    assert!(started.elapsed() > IDLE, "the query was not slow enough");
    assert_eq!(server.report().connections_reaped, 0);

    // Now the connection really is idle: the server closes it.
    await_condition("the idle connection to be reaped", || {
        server.report().connections_reaped == 1
    });
    assert!(frame::read_frame(&mut conn).is_err(), "socket still open");

    // So is one that never says Hello (the default class's deadline runs).
    let silent = TcpStream::connect(addr).unwrap();
    await_condition("the silent connection to be reaped", || {
        server.report().connections_reaped == 2
    });
    drop(silent);

    net.shutdown();
    let report = server.report();
    assert_eq!(report.connections_active, 0);
    assert_eq!(report.connections_closed, report.connections_opened);
}
