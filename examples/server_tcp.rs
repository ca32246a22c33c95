//! Serving over TCP: the wire-protocol frontend end to end.
//!
//! One `SharkServer` serves a TPC-H-style memstore over the SHRKNET
//! framed protocol (`docs/wire-protocol.md`): concurrent `shark-client`
//! connections fire repeated dashboard queries (exercising the shared
//! plan cache), a top-k SELECT streams batch-by-batch with client-paced
//! backpressure, a prepared statement is registered once and re-executed,
//! a client cancels an expensive scan mid-stream, another disconnects
//! without goodbye — and the serving layer must release that abandoned
//! query's admission permit, memstore pins and prefetch grant on its own.
//! Finally an idle connection sits past its rate-class deadline and its
//! handler closes it.
//!
//! The example asserts the interesting gauges itself and ends with the
//! machine-readable `SERVER_REPORT_JSON:` line the CI `net-smoke` job
//! checks with `jq`: plan-cache hits observed over the wire, bytes
//! actually sent, at least one reaped connection, and zero connections
//! (and zero running queries / in-use prefetch slots) left at shutdown.
//!
//! Run with: `cargo run --release -p shark-examples --example server_tcp`

use std::net::TcpStream;
use std::time::{Duration, Instant};

use shark_client::SharkClient;
use shark_datagen::tpch::{self, TpchConfig};
use shark_server::net::frame::{self, Frame};
use shark_server::{NetConfig, RateClass, ServerConfig, SharkServer};
use shark_sql::TableMeta;

const CLIENTS: usize = 6;
const ROUNDS: usize = 4;
const TOKEN: &str = "warehouse-token";

fn register_tables(server: &SharkServer, cfg: &TpchConfig, partitions: usize) {
    let nodes = server.context().config().cluster.num_nodes;
    let c1 = cfg.clone();
    server.register_table(
        TableMeta::new("lineitem", tpch::lineitem_schema(), partitions, move |p| {
            tpch::lineitem_partition(&c1, partitions, p)
        })
        .with_row_count_hint(cfg.lineitem_rows as u64)
        .with_cache(nodes),
    );
    let orders_parts = partitions.clamp(1, 16);
    let c2 = cfg.clone();
    server.register_table(
        TableMeta::new("orders", tpch::orders_schema(), orders_parts, move |p| {
            tpch::orders_partition(&c2, orders_parts, p)
        })
        .with_row_count_hint(cfg.orders_rows as u64)
        .with_cache(nodes),
    );
}

/// Wait (bounded) for an asynchronous server-side condition.
fn await_condition(what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn main() -> shark_common::Result<()> {
    let server = SharkServer::new(ServerConfig::default().with_admission(4, 64));
    register_tables(&server, &TpchConfig::tiny(), 8);
    server.load_table("lineitem")?;
    server.load_table("orders")?;

    // Short idle deadlines so the idle-reaping close-up below fits in a smoke
    // test; the "dashboards" tenant gets small result batches (paced
    // harder) and the default class a roomier stream.
    let net = server.serve(
        NetConfig::default()
            .with_auth_token(TOKEN)
            .with_idle_timeout(Duration::from_millis(400))
            .with_max_batch_rows(256)
            .with_rate_class(RateClass {
                name: "dashboards".to_string(),
                stream_prefetch: 1,
                max_batch_rows: 64,
                idle_timeout: Duration::from_millis(400),
            }),
    )?;
    let addr = net.local_addr();
    println!("serving on {addr}");

    // --- Auth: a wrong token is rejected before any session exists. ------
    assert!(
        SharkClient::connect(addr, "wrong-token", "").is_err(),
        "bad token must be rejected"
    );

    // --- Concurrent dashboard clients over one statement mix. ------------
    // Every client runs the same texts, so after each statement's first
    // planning the shared cache serves the rest of the fleet.
    let queries = [
        "SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode",
        "SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000",
        "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity > 10",
    ];
    let mut workers = Vec::new();
    for c in 0..CLIENTS {
        workers.push(std::thread::spawn(move || {
            let mut client = SharkClient::connect(addr, TOKEN, "dashboards").expect("connect");
            let mut rows = 0usize;
            let mut wire_hits = 0usize;
            for round in 0..ROUNDS {
                for q in 0..queries.len() {
                    let text = queries[(c + round + q) % queries.len()];
                    let result = client.query(text).expect("query");
                    rows += result.rows.len();
                    wire_hits += usize::from(result.plan_cache_hit);
                }
            }
            client.close().expect("close");
            (rows, wire_hits)
        }));
    }
    let mut total_rows = 0;
    let mut wire_hits = 0;
    for w in workers {
        let (rows, hits) = w.join().expect("client panicked");
        total_rows += rows;
        wire_hits += hits;
    }
    println!(
        "{CLIENTS} clients x {ROUNDS} rounds: {total_rows} rows, \
         {wire_hits} wire-observed plan-cache hits"
    );
    assert!(wire_hits > 0, "repeated statements must hit the plan cache");

    // --- Streamed top-k with client-paced batches. ------------------------
    let mut client = SharkClient::connect(addr, TOKEN, "dashboards")?;
    let mut stream =
        client.query_stream("SELECT l_orderkey FROM lineitem ORDER BY l_orderkey LIMIT 100")?;
    let mut batches = 0;
    let mut streamed_rows = 0;
    while let Some(batch) = stream.next_batch()? {
        batches += 1;
        streamed_rows += batch.len();
    }
    let summary = stream.finish()?;
    println!(
        "top-k stream: {streamed_rows} rows in {batches} batches over {} partitions",
        summary.partitions
    );
    assert_eq!(streamed_rows as u64, summary.rows);
    assert!(batches >= 2, "64-row batches must split a 100-row result");

    // --- Prepared statement: parse once, execute repeatedly. -------------
    let prepared = client.prepare(
        "SELECT o_custkey, SUM(o_totalprice) FROM orders GROUP BY o_custkey \
                        ORDER BY SUM(o_totalprice) DESC LIMIT 5",
    )?;
    let first = client.execute(prepared)?;
    let second = client.execute(prepared)?;
    let third = client.execute(prepared)?;
    println!(
        "prepared statement {} (fingerprint {:#x}): {} rows; cache hit on re-execute: {}",
        prepared.statement_id,
        prepared.fingerprint,
        first.rows.len(),
        second.plan_cache_hit && third.plan_cache_hit,
    );
    assert!(
        second.plan_cache_hit && third.plan_cache_hit,
        "re-executing a prepared statement must reuse its cached plan"
    );

    // --- Cancel mid-stream: the query stops, the connection survives. ----
    let mut stream = client.query_stream("SELECT l_orderkey, l_shipmode FROM lineitem")?;
    let _ = stream.next_batch()?;
    stream.cancel()?;
    let summary = stream.finish()?;
    assert!(summary.cancelled, "server must acknowledge the cancel");
    let after_cancel = client.query("SELECT COUNT(*) FROM orders")?;
    println!(
        "cancelled scan after {} rows; connection stayed usable ({} row answer after)",
        summary.rows,
        after_cancel.rows.len()
    );
    client.close()?;

    // --- Forced disconnect mid-query must leak nothing. ------------------
    // Drive the wire by hand: handshake, fire a full-scan Query, read only
    // the schema frame, then drop the socket without Close or Cancel. The
    // server-side cursor must release its admission permit, pins and
    // prefetch grant on its own.
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        frame::write_frame(
            &mut raw,
            &Frame::Hello {
                token: TOKEN.to_string(),
                tenant: "dashboards".to_string(),
            },
        )
        .expect("hello");
        let (reply, _) = frame::read_frame(&mut raw).expect("hello reply");
        assert!(matches!(reply, Frame::HelloOk { .. }));
        frame::write_frame(
            &mut raw,
            &Frame::Query {
                sql: "SELECT l_orderkey, l_shipmode FROM lineitem".to_string(),
            },
        )
        .expect("query");
        let (schema, _) = frame::read_frame(&mut raw).expect("schema frame");
        assert!(matches!(schema, Frame::ResultSchema { .. }));
        // Vanish mid-stream.
        drop(raw);
    }
    await_condition("abandoned query to release its permit", || {
        server.running_queries() == 0
    });
    await_condition("abandoned query to return its prefetch grant", || {
        server.prefetch_in_use() == 0
    });
    println!("abandoned mid-query connection released permit, pins and prefetch");

    // --- Idle reaping: the between-requests read times out. ---------------
    let idler = SharkClient::connect(addr, TOKEN, "dashboards")?;
    await_condition("the idle connection to be closed", || {
        server.report().connections_reaped >= 1
    });
    drop(idler);
    println!("idle connection reaped at its read-timeout deadline");

    // --- Orderly shutdown: nothing may stay open. -------------------------
    let mut net = net;
    net.shutdown();
    let report = server.report();
    assert!(report.connections_opened > 0);
    assert_eq!(
        report.connections_active, 0,
        "no connection may survive shutdown"
    );
    assert!(report.connections_reaped >= 1);
    assert!(report.wire_bytes_sent > 0);
    assert!(report.plan_cache_hits > 0);
    assert!(report.net_cancels >= 1);
    assert!(report.net_auth_failures >= 1);
    assert_eq!(server.running_queries(), 0);
    assert_eq!(server.prefetch_in_use(), 0);

    println!("\n--- server report ---");
    print!("{}", report.render());
    // Machine-readable copy on one line, for CI smoke-test assertions.
    println!("SERVER_REPORT_JSON: {}", report.to_json());
    Ok(())
}
