//! Stress test: ≥8 concurrent sessions hammering shared cached tables under
//! a memory budget small enough to force LRU eviction and lineage
//! recomputation, verifying that every query still returns correct results
//! and that the server metrics record what happened.

use std::sync::{Arc, Barrier};

use shark_common::{row, DataType, Schema};
use shark_rdd::RddConfig;
use shark_server::{ServerConfig, SharkServer};
use shark_sql::{ExecConfig, TableMeta};

const SESSIONS: usize = 8;
const QUERIES_PER_SESSION: usize = 6;
const PARTITIONS: usize = 4;
const ROWS_PER_PARTITION: usize = 120;

/// TPC-H-style lineitem/orders/customer-ish tables, deterministic so every
/// query's answer is known in closed form.
fn register_tables(server: &SharkServer, names: &[&str]) {
    for (t, name) in names.iter().enumerate() {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("grp", DataType::Str),
            ("amount", DataType::Float),
        ]);
        server.register_table(
            TableMeta::new(name, schema, PARTITIONS, move |p| {
                (0..ROWS_PER_PARTITION)
                    .map(|i| {
                        row![
                            (p * ROWS_PER_PARTITION + i) as i64,
                            ["alpha", "beta", "gamma"][(i + t) % 3],
                            (i % 10) as f64
                        ]
                    })
                    .collect()
            })
            .with_cache(PARTITIONS)
            .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
        );
    }
}

#[test]
fn eight_sessions_share_tables_under_eviction_pressure() {
    let tables = ["t0", "t1", "t2", "t3"];
    let server = SharkServer::new(ServerConfig {
        rdd: RddConfig::default(),
        exec: ExecConfig::shark(),
        // Budget set below; placeholder until tables are loaded once.
        memory_budget_bytes: u64::MAX,
        max_concurrent_queries: 3,
        max_queued_queries: 256,
        max_total_prefetch: 8,
        ..ServerConfig::default()
    });
    register_tables(&server, &tables);
    // Load everything once to measure the full footprint, then rebuild the
    // server with a budget that holds roughly half the tables.
    for name in &tables {
        server.load_table(name).unwrap();
    }
    let full_bytes = server.catalog().memstore_bytes();
    assert!(full_bytes > 0);

    let server = SharkServer::new(ServerConfig {
        rdd: RddConfig::default(),
        exec: ExecConfig::shark(),
        memory_budget_bytes: full_bytes / 2,
        max_concurrent_queries: 3,
        max_queued_queries: 256,
        max_total_prefetch: 8,
        ..ServerConfig::default()
    });
    register_tables(&server, &tables);

    let expected_count = (PARTITIONS * ROWS_PER_PARTITION) as i64;
    // SUM(amount) per table: PARTITIONS * sum over rows of (i % 10).
    let expected_sum: f64 = (PARTITIONS as f64)
        * (0..ROWS_PER_PARTITION)
            .map(|i| (i % 10) as f64)
            .sum::<f64>();

    let barrier = Arc::new(Barrier::new(SESSIONS));
    let mut workers = Vec::new();
    for s in 0..SESSIONS {
        let session = server.session();
        let barrier = barrier.clone();
        workers.push(std::thread::spawn(move || {
            barrier.wait();
            for q in 0..QUERIES_PER_SESSION {
                // Walk the tables so sessions keep displacing each other's
                // working set under the tight budget.
                let table = ["t0", "t1", "t2", "t3"][(s + q) % 4];
                let count = session
                    .sql(&format!("SELECT COUNT(*) FROM {table}"))
                    .unwrap();
                assert_eq!(
                    count.result.rows[0].get_int(0).unwrap(),
                    expected_count,
                    "session {s} query {q} on {table}"
                );
                let sum = session
                    .sql(&format!("SELECT SUM(amount) FROM {table}"))
                    .unwrap();
                let got = sum.result.rows[0].get_float(0).unwrap();
                assert!(
                    (got - expected_sum).abs() < 1e-6,
                    "session {s} query {q} on {table}: {got} != {expected_sum}"
                );
            }
            session.id()
        }));
    }
    let ids: Vec<u64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert_eq!(ids.len(), SESSIONS);

    let report = server.report();
    // Every query ran and none were rejected (queue bound was generous).
    assert_eq!(
        report.total_queries,
        (SESSIONS * QUERIES_PER_SESSION * 2) as u64
    );
    assert_eq!(report.failed_queries, 0);
    assert_eq!(report.rejected_queries, 0);
    assert_eq!(report.sessions.len(), SESSIONS);
    // Concurrency was real: more than one query executed at once, and with
    // 8 sessions against 3 slots somebody had to queue.
    assert!(
        report.peak_concurrent_queries >= 2,
        "no overlap observed: {report:?}"
    );
    assert!(report.peak_concurrent_queries <= 3);
    // The budget is half the working set: evictions must have happened and
    // been recorded, and evicted partitions were rebuilt on re-access (the
    // tables were loaded up front, so every scan rebuild is a recovery).
    assert!(
        report.evictions > 0,
        "no evictions under a half-size budget"
    );
    assert!(report.evicted_bytes > 0);
    assert!(
        report.partition_rebuilds > 0,
        "evicted partitions were never rebuilt: {report:?}"
    );
    // The budget held at every enforcement point (all tables unpinned now).
    assert!(
        report.memstore_bytes + report.rdd_cache_bytes <= report.memory_budget_bytes,
        "over budget at rest: {report:?}"
    );
    // Cached scans served bytes from the memstore.
    assert!(report.cache_hit_bytes > 0);
}

#[test]
fn evicted_table_is_recomputed_transparently() {
    let server = SharkServer::new(ServerConfig::default().with_memory_budget(1));
    register_tables(&server, &["only"]);
    let session = server.session();
    let expected = (PARTITIONS * ROWS_PER_PARTITION) as i64;
    // First access loads the table, then enforcement immediately evicts it
    // (budget of 1 byte holds nothing).
    let first = session.sql("SELECT COUNT(*) FROM only").unwrap();
    assert_eq!(first.result.rows[0].get_int(0).unwrap(), expected);
    assert!(first.metrics.evictions_triggered > 0);
    assert_eq!(server.catalog().memstore_bytes(), 0);
    // Second access rebuilds every partition from lineage and still
    // answers correctly.
    let before = server.report().partition_rebuilds;
    let second = session.sql("SELECT COUNT(*) FROM only").unwrap();
    assert_eq!(second.result.rows[0].get_int(0).unwrap(), expected);
    let report = server.report();
    assert_eq!(report.partition_rebuilds - before, PARTITIONS as u64);
    assert!(report.evictions >= 2);
}

#[test]
fn admission_rejections_surface_as_errors_and_metrics() {
    use std::sync::{Condvar, Mutex};

    // One slot, zero queue: a query running concurrently with another must
    // be rejected. A UDF in the blocker query parks inside execution, so
    // the slot is provably occupied when the victim arrives.
    let server = SharkServer::new(ServerConfig::default().with_admission(1, 0));
    register_tables(&server, &["t"]);
    let mut blocker = server.session();
    let victim = server.session();

    #[derive(Default)]
    struct Gate {
        state: Mutex<(bool, bool)>, // (query entered execution, released)
        changed: Condvar,
    }
    let gate = Arc::new(Gate::default());
    let udf_gate = gate.clone();
    blocker.register_udf("hold_slot", move |args| {
        let mut state = udf_gate.state.lock().unwrap();
        state.0 = true;
        udf_gate.changed.notify_all();
        while !state.1 {
            state = udf_gate.changed.wait(state).unwrap();
        }
        args[0].clone()
    });

    let holder = std::thread::spawn(move || {
        blocker
            .sql("SELECT COUNT(*) FROM t WHERE hold_slot(k) >= 0")
            .unwrap()
    });
    // Wait until the blocker is provably mid-execution, holding the slot.
    {
        let mut state = gate.state.lock().unwrap();
        while !state.0 {
            state = gate.changed.wait(state).unwrap();
        }
    }
    let err = victim.sql("SELECT COUNT(*) FROM t").unwrap_err();
    assert!(err.to_string().contains("admission queue full"), "{err}");
    // Release the blocker and let it finish.
    {
        let mut state = gate.state.lock().unwrap();
        state.1 = true;
        gate.changed.notify_all();
    }
    let blocked_result = holder.join().unwrap();
    assert_eq!(
        blocked_result.result.rows[0].get_int(0).unwrap(),
        (PARTITIONS * ROWS_PER_PARTITION) as i64
    );
    let report = server.report();
    assert_eq!(report.rejected_queries, 1);
    assert_eq!(report.sessions.iter().map(|s| s.rejected).sum::<u64>(), 1);
    // The victim can run once the slot frees up.
    assert!(victim.sql("SELECT COUNT(*) FROM t").is_ok());
}

#[test]
fn concurrent_sessions_each_see_their_statements_solo_sim_seconds() {
    let statements = [
        "SELECT k, amount FROM t0 WHERE amount > 4",
        "SELECT grp, COUNT(*), SUM(amount) FROM t1 GROUP BY grp",
        "SELECT a.k, b.grp FROM t2 a JOIN t3 b ON a.k = b.k WHERE b.amount > 7",
        "SELECT k, amount FROM t3 ORDER BY amount DESC, k",
    ];
    let server = || {
        let server = SharkServer::new(ServerConfig {
            max_concurrent_queries: statements.len(),
            ..ServerConfig::default()
        });
        let tables = ["t0", "t1", "t2", "t3"];
        register_tables(&server, &tables);
        for name in &tables {
            server.load_table(name).unwrap();
        }
        server
    };
    // Each statement alone on its own server.
    let solo: Vec<f64> = statements
        .iter()
        .map(|sql| server().session().sql(sql).unwrap().metrics.sim_seconds)
        .collect();
    assert!(solo.iter().all(|s| *s > 0.0), "{solo:?}");

    // All four at once, repeatedly, on one server: a statement's simulated
    // seconds are its own jobs' — neighbours move the shared clock (so the
    // offset a stage starts at, hence the last bits) and nothing else.
    let server = server();
    let start = Barrier::new(statements.len());
    std::thread::scope(|scope| {
        for (sql, alone) in statements.iter().zip(&solo) {
            let (server, start) = (&server, &start);
            scope.spawn(move || {
                let session = server.session();
                start.wait();
                for round in 0..12 {
                    let seen = session.sql(sql).unwrap().metrics.sim_seconds;
                    assert!(
                        (seen - alone).abs() <= 1e-9 * alone,
                        "round {round}: {seen:?} beside neighbours, {alone:?} alone: {sql}"
                    );
                }
            });
        }
    });
}
