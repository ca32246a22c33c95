//! The query lifecycle, end to end: however a statement ends — answered,
//! drained, abandoned, kept as an RDD and released, a table load, failed
//! while planning or mid-stream, unparseable, turned away at admission — it
//! is accounted exactly once and leaves
//! nothing behind: no execution slot, no table pin, no prefetch grant, and
//! no shuffle map output.

use shark_common::{row, DataType, Schema};
use shark_server::{ServerConfig, SessionHandle, SharkServer};
use shark_sql::TableMeta;

const PARTITIONS: usize = 4;
const ROWS_PER_PARTITION: usize = 50;

/// Register a cached table of `PARTITIONS` partitions, not yet loaded.
fn register(server: &SharkServer, name: &str) {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("grp", DataType::Str),
        ("amount", DataType::Float),
    ]);
    server.register_table(
        TableMeta::new(name, schema, PARTITIONS, move |p| {
            (0..ROWS_PER_PARTITION)
                .map(|i| {
                    let k = p * ROWS_PER_PARTITION + i;
                    row![k as i64, ["alpha", "beta", "gamma"][i % 3], k as f64 * 0.5]
                })
                .collect()
        })
        .with_cache(PARTITIONS)
        .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
    );
}

fn server_with(names: &[&str], config: ServerConfig) -> SharkServer {
    let server = SharkServer::new(config);
    for name in names {
        register(&server, name);
        server.load_table(name).unwrap();
    }
    server
}

/// A session with `boom(k)`: the identity, except that it panics on the
/// first key of the third partition — so a stream using it delivers two
/// partitions' worth of rows and then fails.
fn session_with_boom(server: &SharkServer) -> SessionHandle {
    let mut session = server.session();
    session.register_udf("boom", |args| {
        if args[0].as_int() == Some(2 * ROWS_PER_PARTITION as i64) {
            panic!("boom");
        }
        args[0].clone()
    });
    session
}

/// Pull batches until the stream ends or fails; whether it failed.
fn drain(session: &SessionHandle, sql: &str) -> bool {
    let mut cursor = session.sql_stream(sql).unwrap();
    loop {
        match cursor.next_batch() {
            Ok(Some(_)) => {}
            Ok(None) => return false,
            Err(_) => return true,
        }
    }
}

#[test]
fn every_way_a_query_ends_is_accounted_once_and_leaks_nothing() {
    let server = server_with(
        &["t"],
        ServerConfig::default()
            .with_admission(1, 0)
            .with_prefetch_budget(4),
    );
    let mut session = session_with_boom(&server);
    session.set_stream_prefetch(2);
    let all = "SELECT k, amount FROM t";

    for tracing in [false, true] {
        shark_obs::tracer().set_enabled(tracing);
        // Each attempt must add exactly one `QueryMetrics` with the
        // expected outcome (the admission rejection: one for the cursor
        // holding the slot, one rejection for the query turned away) and
        // leave the server quiescent.
        let check = |what: &str, failed: u64, rejected: u64, attempt: &dyn Fn()| {
            let before = server.report();
            attempt();
            let after = server.report();
            let what = format!("{what} (tracing {tracing})");
            assert_eq!(after.total_queries - before.total_queries, 1, "{what}");
            assert_eq!(
                after.failed_queries - before.failed_queries,
                failed,
                "{what}"
            );
            assert_eq!(
                after.rejected_queries - before.rejected_queries,
                rejected,
                "{what}"
            );
            assert_eq!(server.running_queries(), 0, "{what}");
            assert!(server.pinned_tables().is_empty(), "{what}");
            assert!(server.pinned_partitions("t").is_empty(), "{what}");
            assert_eq!(server.prefetch_in_use(), 0, "{what}");
            assert_eq!(after.live_snapshots, 0, "{what}");
        };

        check("blocking sql", 0, 0, &|| {
            session
                .sql("SELECT grp, COUNT(*) FROM t GROUP BY grp")
                .unwrap();
        });
        check("stream drained", 0, 0, &|| {
            assert!(!drain(&session, all));
        });
        check("stream dropped after the first batch", 0, 0, &|| {
            let mut cursor = session.sql_stream(all).unwrap();
            assert!(cursor.next_batch().unwrap().is_some());
            assert_eq!(server.running_queries(), 1);
        });
        check("stream failing mid-way", 1, 0, &|| {
            let mut cursor = session.sql_stream("SELECT boom(k) FROM t").unwrap();
            assert!(cursor.next_batch().unwrap().is_some());
            assert!(cursor.next_batch().unwrap().is_some());
            assert!(cursor.next_batch().is_err());
            assert!(cursor.next_batch().unwrap().is_none(), "latched");
        });
        check("plan error (blocking)", 1, 0, &|| {
            assert!(session.sql("SELECT nope FROM t").is_err());
        });
        check("plan error (stream)", 1, 0, &|| {
            assert!(session.sql_stream("SELECT nope FROM t").is_err());
        });
        check("parse error", 1, 0, &|| {
            assert!(session.sql("SELEKT 1").is_err());
        });
        check("non-SELECT stream", 1, 0, &|| {
            assert!(session.sql_stream("DROP TABLE t").is_err());
        });
        check("admission rejection", 0, 1, &|| {
            // An open cursor holds the only slot (and there is no queue).
            let holder = session.sql_stream(all).unwrap();
            let other = server.session();
            let err = other.sql(all).unwrap_err();
            assert!(err.to_string().contains("admission queue full"), "{err}");
            drop(holder);
        });
        check("rdd lease dropped", 0, 0, &|| {
            let lease = session.sql_to_rdd(all).unwrap();
            let rows = lease.rdd.count().unwrap();
            assert_eq!(rows, (PARTITIONS * ROWS_PER_PARTITION) as u64);
            assert_eq!(server.running_queries(), 1);
            assert_eq!(server.pinned_tables(), vec!["t".to_string()]);
        });
        check("plan error (rdd)", 1, 0, &|| {
            assert!(session.sql_to_rdd("SELECT nope FROM t").is_err());
        });
        check("non-SELECT rdd", 1, 0, &|| {
            assert!(session.sql_to_rdd("DROP TABLE t").is_err());
        });
        check("admission rejection (rdd)", 0, 1, &|| {
            // An open lease holds the only slot.
            let holder = session.sql_to_rdd(all).unwrap();
            let other = server.session();
            let err = other.sql_to_rdd(all).err().unwrap();
            assert!(err.to_string().contains("admission queue full"), "{err}");
            drop(holder);
        });
        check("table load", 0, 0, &|| {
            session.load_table("t").unwrap();
        });
        check("load of an unknown table", 1, 0, &|| {
            assert!(session.load_table("nope").is_err());
        });
        check("admission rejection (load)", 0, 1, &|| {
            let holder = session.sql_stream(all).unwrap();
            let other = server.session();
            let err = other.load_table("t").unwrap_err();
            assert!(err.to_string().contains("admission queue full"), "{err}");
            drop(holder);
        });
    }
    shark_obs::tracer().set_enabled(false);
}

#[test]
fn a_session_load_is_logged_once_with_its_simulated_seconds() {
    let server = SharkServer::new(ServerConfig::default().with_admission(1, 0));
    register(&server, "fresh");
    let session = server.session();
    let report = session.load_table("fresh").unwrap();
    assert_eq!(report.newly_loaded_partitions, PARTITIONS);
    assert!(report.sim_seconds > 0.0);
    assert_eq!(server.running_queries(), 0);
    assert!(server.pinned_tables().is_empty());
    let log = server.query_log();
    assert_eq!(log.len(), 1);
    let load = &log[0];
    assert_eq!(load.statement, "load(fresh)");
    assert_eq!(load.session_id, session.id());
    assert!(!load.failed);
    assert_eq!(load.sim_seconds.to_bits(), report.sim_seconds.to_bits());
    // Nothing of the table was resident when the load was admitted.
    assert_eq!(load.cache_hit_bytes, 0);
    // The loaded bytes are charged to the loading session.
    assert_eq!(session.resident_bytes(), report.stored_bytes);
    let summary = server.report();
    assert_eq!((summary.total_queries, summary.rejected_queries), (1, 0));

    // A query's cache-hit bytes are the resident bytes of every cached
    // table it references, read at admission.
    register(&server, "other");
    server.load_table("other").unwrap();
    let resident = |name: &str| {
        let table = server.catalog().get(name).unwrap();
        table.cached.as_ref().unwrap().memory_bytes()
    };
    let expected = resident("fresh") + resident("other");
    let joined = session
        .sql("SELECT COUNT(*) FROM fresh JOIN other ON fresh.k = other.k")
        .unwrap();
    assert_eq!(joined.metrics.cache_hit_bytes, expected);
}

#[test]
fn shuffle_map_outputs_do_not_outlive_their_queries() {
    let server = server_with(&["a", "b"], ServerConfig::default());
    let session = session_with_boom(&server);
    let aggregate = "SELECT grp, COUNT(*), SUM(amount) FROM a GROUP BY grp";
    let join = "SELECT a.k, b.amount FROM a JOIN b ON a.k = b.k WHERE a.k < 120";
    let failing_join = "SELECT boom(a.k), b.amount FROM a JOIN b ON a.k = b.k";
    let shuffles = || server.context().shuffle_manager().registered();

    // The queries really do shuffle, and a cursor keeps its map output
    // exactly as long as it can still read it.
    {
        let mut cursor = session.sql_stream(aggregate).unwrap();
        assert!(shuffles() > 0, "the aggregate did not shuffle");
        assert!(cursor.next_batch().unwrap().is_some());
        assert!(shuffles() > 0);
    }
    assert_eq!(shuffles(), 0, "abandoned cursor kept its map output");

    let expected_groups = session.sql(aggregate).unwrap().result.rows.len();
    for round in 0..50 {
        for sql in [aggregate, join] {
            // Blocking, streamed to exhaustion, streamed then dropped
            // after one batch.
            let rows = session.sql(sql).unwrap().result.rows.len();
            assert!(!drain(&session, sql));
            let mut cursor = session.sql_stream(sql).unwrap();
            assert!(cursor.next_batch().unwrap().is_some());
            drop(cursor);
            if sql == aggregate {
                assert_eq!(rows, expected_groups);
            }
        }
        // Failed mid-stream, and failed blocking: a task's panic is an error.
        assert!(drain(&session, failing_join));
        assert!(session.sql(failing_join).is_err());
        assert_eq!(shuffles(), 0, "round {round}");
    }
    assert_eq!(server.running_queries(), 0);
    assert!(server.pinned_tables().is_empty());
}

#[test]
fn a_task_panic_in_a_map_stage_is_an_error_and_leaks_nothing() {
    let server = server_with(&["t"], ServerConfig::default());
    let session = session_with_boom(&server);
    let groups = "SELECT grp, COUNT(*) FROM t GROUP BY grp";
    // `boom` runs map-side in both: as the grouping key, and inside the
    // partial aggregate.
    for sql in [
        "SELECT boom(k), COUNT(*) FROM t GROUP BY boom(k)",
        "SELECT grp, SUM(boom(k)) FROM t GROUP BY grp",
    ] {
        assert!(session.sql(sql).is_err(), "{sql} (blocking)");
        // Opening the cursor runs the map stage, so the error may surface
        // there or at a batch.
        let streamed = session.sql_stream(sql).and_then(|mut cursor| {
            while cursor.next_batch()?.is_some() {}
            Ok(())
        });
        assert!(streamed.is_err(), "{sql} (stream)");
        assert_eq!(server.running_queries(), 0, "{sql}");
        assert!(server.pinned_tables().is_empty(), "{sql}");
        assert_eq!(server.context().shuffle_manager().registered(), 0, "{sql}");
        let answer = session.sql(groups).unwrap();
        assert_eq!(answer.result.rows.len(), 3, "the query after {sql}");
    }
}
