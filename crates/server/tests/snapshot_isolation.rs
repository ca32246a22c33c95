//! Snapshot isolation of DDL against in-flight queries.
//!
//! The catalog installs an immutable, epoch-versioned snapshot on every DDL
//! and every query pins exactly one snapshot for its whole lifetime, so a
//! concurrent `DROP TABLE` + re-`CREATE TABLE AS` of the same name can
//! never change what an open streaming cursor drains. Dropped versions are
//! *deferred reclamation*: their memstore bytes stay resident (reported as
//! `deferred_drop_bytes`, never eviction candidates, never rebuilt into)
//! until the last referencing snapshot is released, at which point the
//! memstore manager reclaims them and bumps `deferred_drops_reclaimed`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use shark_common::{row, DataType, Schema};
use shark_server::{ServerConfig, SharkServer};
use shark_sql::TableMeta;

const PARTITIONS: usize = 4;
const ROWS_PER_PARTITION: usize = 60;

fn register_cached(server: &SharkServer, name: &str, salt: i64) {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("amount", DataType::Float)]);
    server.register_table(
        TableMeta::new(name, schema, PARTITIONS, move |p| {
            (0..ROWS_PER_PARTITION)
                .map(|i| {
                    row![
                        (p * ROWS_PER_PARTITION + i) as i64,
                        (salt * 1000 + i as i64) as f64
                    ]
                })
                .collect()
        })
        .with_cache(PARTITIONS)
        .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
    );
}

/// The acceptance-criterion scenario, deterministically ordered: a cursor
/// opened before a concurrent DROP TABLE + re-CTAS of the same name drains
/// byte-identical to the pre-DDL blocking result, never rebuilds a
/// partition of the dropped version, and the dropped bytes are reclaimed
/// once the cursor closes.
#[test]
fn cursor_opened_before_drop_drains_the_pre_ddl_result() {
    let server = SharkServer::new(ServerConfig::default());
    register_cached(&server, "t", 1);
    register_cached(&server, "src", 2);
    server.load_table("t").unwrap();
    server.load_table("src").unwrap();

    let reader = server.session();
    let ddl = server.session();
    let query = "SELECT k, amount FROM t";
    let expected = reader.sql(query).unwrap().result.rows;
    let old_version = server.catalog().get("t").unwrap();
    let old_bytes = old_version.cached.as_ref().unwrap().memory_bytes();
    assert!(old_bytes > 0);

    let mut cursor = reader.sql_stream(query).unwrap();
    let mut drained = cursor.next_batch().unwrap().unwrap();

    // Concurrent DDL: drop t and recreate it (cached) with different rows.
    ddl.sql("DROP TABLE t").unwrap();
    assert_eq!(
        server.deferred_drop_bytes(),
        old_bytes,
        "the open cursor must defer reclamation of the dropped version"
    );
    ddl.sql(
        "CREATE TABLE t TBLPROPERTIES(\"shark.cache\" = \"true\") AS \
         SELECT k, amount FROM src WHERE amount >= 2000",
    )
    .unwrap();

    // New queries resolve the new version...
    let new_rows = ddl.sql("SELECT k, amount FROM t").unwrap().result.rows;
    assert_ne!(new_rows, expected);
    assert!(new_rows.iter().all(|r| r.get_float(1).unwrap() >= 2000.0));

    // ...while the cursor drains exactly the pre-DDL result.
    while let Some(batch) = cursor.next_batch().unwrap() {
        drained.extend(batch);
    }
    assert_eq!(drained, expected);
    assert_eq!(
        old_version.cached.as_ref().unwrap().rebuilds(),
        0,
        "no partition of a dropped table may be rebuilt"
    );

    // The cursor exhausted: its finalize released the snapshot pin and
    // reclaimed the dropped version.
    assert_eq!(server.deferred_drop_bytes(), 0);
    assert_eq!(old_version.cached.as_ref().unwrap().memory_bytes(), 0);
    let report = server.report();
    assert_eq!(report.deferred_drops_reclaimed, 1);
    assert_eq!(report.deferred_reclaimed_bytes, old_bytes);
    // register t + register src + DROP + CTAS = 4 epochs.
    assert_eq!(report.catalog_epoch, 4);
    assert_eq!(report.live_snapshots, 0);
}

/// Deferred bytes are released only when the *last* referencing cursor
/// closes; an abandoned (dropped mid-stream) cursor releases its pin too.
#[test]
fn deferred_bytes_released_only_after_last_cursor_closes() {
    let server = SharkServer::new(ServerConfig::default());
    register_cached(&server, "t", 1);
    server.load_table("t").unwrap();
    let old_bytes = server.catalog().memstore_bytes();

    let s1 = server.session();
    let s2 = server.session();
    let ddl = server.session();
    let mut c1 = s1.sql_stream("SELECT k FROM t").unwrap();
    let mut c2 = s2.sql_stream("SELECT amount FROM t").unwrap();
    assert!(c1.next_batch().unwrap().is_some());
    assert!(c2.next_batch().unwrap().is_some());

    ddl.sql("DROP TABLE t").unwrap();
    assert_eq!(server.deferred_drop_bytes(), old_bytes);

    // Abandon the first cursor mid-stream: its Drop releases pins, permit
    // and snapshot — but the second cursor still defers reclamation.
    drop(c1);
    assert_eq!(server.deferred_drop_bytes(), old_bytes);
    assert_eq!(server.report().deferred_drops_reclaimed, 0);

    let rest = c2.fetch_all().unwrap();
    assert!(!rest.is_empty());
    assert_eq!(server.deferred_drop_bytes(), 0);
    let report = server.report();
    assert_eq!(report.deferred_drops_reclaimed, 1);
    assert_eq!(report.deferred_reclaimed_bytes, old_bytes);
    assert_eq!(report.live_snapshots, 0);
}

const STRESS_SESSIONS: usize = 8;
const WRITERS: usize = 2;
const WRITER_ROUNDS: usize = 10;
const READER_ROUNDS: usize = 16;
const VERSION_ROWS: usize = 96;
/// tag = version * TAG_BASE + k, so any drained row names its version.
const TAG_BASE: i64 = 100_000;

/// The documented race, 8 sessions wide: writers concurrently DROP and
/// re-CTAS one hot table while readers hold open streaming cursors over
/// it. Every cursor must drain a *complete, single-version* result
/// (byte-identical to what a blocking query on its pinned snapshot would
/// return), no partition of any dropped version may be rebuilt, and after
/// the last cursor closes every dropped version's bytes are reclaimed.
/// A finished query releases only its own pins. Replacing a table while an
/// aggregate cursor on it is open, then opening a second cursor on the new
/// version, must leave the name pinned until the second cursor closes —
/// whichever cursor finishes first.
#[test]
fn a_finished_cursor_never_releases_a_newer_cursors_pin() {
    let server = SharkServer::new(ServerConfig::default());
    register_cached(&server, "t", 1);
    server.load_table("t").unwrap();
    let (first, second) = (server.session(), server.session());
    // An aggregate keeps its whole-table pin (only a single-scan stream
    // swaps it for partition pins).
    let query = "SELECT COUNT(*), SUM(amount) FROM t";

    let cursor_a = first.sql_stream(query).unwrap();
    register_cached(&server, "t", 2);
    let cursor_c = second.sql_stream(query).unwrap();
    assert_eq!(server.pinned_tables(), vec!["t".to_string()]);

    drop(cursor_a);
    assert_eq!(
        server.pinned_tables(),
        vec!["t".to_string()],
        "the first cursor released the second cursor's pin"
    );
    drop(cursor_c);
    assert!(server.pinned_tables().is_empty());
}

#[test]
fn eight_sessions_racing_ddl_against_open_cursors() {
    let server = SharkServer::new(ServerConfig::default().with_admission(16, 256));
    // seed partition v holds version v's rows: k in 0..VERSION_ROWS with
    // tag = v * TAG_BASE + k. Uncached: versions materialize through CTAS.
    let seed_schema = Schema::from_pairs(&[
        ("ver", DataType::Int),
        ("k", DataType::Int),
        ("tag", DataType::Int),
    ]);
    let max_versions = WRITERS * WRITER_ROUNDS + 1;
    server.register_table(TableMeta::new(
        "seed",
        seed_schema,
        max_versions,
        move |p| {
            (0..VERSION_ROWS)
                .map(|k| row![p as i64, k as i64, p as i64 * TAG_BASE + k as i64])
                .collect()
        },
    ));
    let ctas = |version: usize| {
        format!(
            "CREATE TABLE hot TBLPROPERTIES(\"shark.cache\" = \"true\") AS \
             SELECT k, tag FROM seed WHERE ver = {version}"
        )
    };
    // Version 0 exists before any reader starts.
    server.session().sql(&ctas(0)).unwrap();

    let drops = Arc::new(AtomicUsize::new(0));
    let creates = Arc::new(AtomicUsize::new(1)); // the setup CTAS
    let barrier = Arc::new(Barrier::new(STRESS_SESSIONS));
    let writers_running = Arc::new(AtomicUsize::new(WRITERS));
    let mut workers = Vec::new();

    for w in 0..WRITERS {
        let session = server.session();
        let barrier = barrier.clone();
        let drops = drops.clone();
        let creates = creates.clone();
        let writers_running = writers_running.clone();
        workers.push(std::thread::spawn(move || {
            barrier.wait();
            for round in 0..WRITER_ROUNDS {
                // Unique target version per attempt; DROP and CTAS may each
                // lose their race against the other writer — that loss is
                // part of what the test exercises.
                let version = 1 + w * WRITER_ROUNDS + round;
                if session.sql("DROP TABLE hot").is_ok() {
                    drops.fetch_add(1, Ordering::Relaxed);
                }
                if session.sql(&ctas(version)).is_ok() {
                    creates.fetch_add(1, Ordering::Relaxed);
                }
            }
            writers_running.fetch_sub(1, Ordering::SeqCst);
            0usize // writers drain no cursors
        }));
    }

    for r in 0..(STRESS_SESSIONS - WRITERS) {
        let session = server.session();
        let barrier = barrier.clone();
        let writers_running = writers_running.clone();
        workers.push(std::thread::spawn(move || {
            barrier.wait();
            let mut drained_ok = 0usize;
            let mut round = 0;
            while round < READER_ROUNDS {
                // The table vanishes transiently between a DROP and the
                // next CTAS; a reader that catches that window just retries.
                // A miss only uses up a round once the writers are done (the
                // last DDL is a CTAS attempt, so the table then exists for
                // good): a writer descheduled inside that window cannot
                // starve every reader out of all its rounds.
                let Ok(mut cursor) = session.sql_stream("SELECT k, tag FROM hot") else {
                    if writers_running.load(Ordering::SeqCst) == 0 {
                        round += 1;
                    }
                    std::thread::yield_now();
                    continue;
                };
                round += 1;
                let rows = cursor.fetch_all().unwrap_or_else(|e| {
                    panic!("reader {r} round {round}: cursor failed mid-drain: {e}")
                });
                // One complete version, nothing torn: every k exactly once,
                // every tag from the same version.
                assert_eq!(rows.len(), VERSION_ROWS, "reader {r} round {round}");
                let version = rows[0].get_int(1).unwrap() / TAG_BASE;
                let mut ks: Vec<i64> = Vec::with_capacity(rows.len());
                for row in &rows {
                    let k = row.get_int(0).unwrap();
                    let tag = row.get_int(1).unwrap();
                    assert_eq!(
                        tag,
                        version * TAG_BASE + k,
                        "reader {r} round {round}: torn read across versions"
                    );
                    ks.push(k);
                }
                ks.sort_unstable();
                assert_eq!(ks, (0..VERSION_ROWS as i64).collect::<Vec<_>>());
                drained_ok += 1;
            }
            drained_ok
        }));
    }

    let mut drained_total = 0usize;
    for worker in workers {
        drained_total += worker.join().expect("worker panicked");
    }
    assert!(drained_total > 0, "no reader ever drained a cursor");

    // Everything closed: a final sweep reclaims whatever the last DDL left
    // behind, then every dropped version must be fully accounted for.
    server.reclaim_dropped();
    let report = server.report();
    let drops = drops.load(Ordering::Relaxed);
    let creates = creates.load(Ordering::Relaxed);
    assert!(drops > 0, "writers never won a DROP");
    assert_eq!(
        report.deferred_drops_reclaimed, drops as u64,
        "every dropped version must be reclaimed exactly once"
    );
    assert_eq!(report.deferred_drop_bytes, 0);
    assert_eq!(report.live_snapshots, 0);
    // register seed + every successful DDL bumps the epoch exactly once.
    assert_eq!(report.catalog_epoch, (1 + drops + creates) as u64);
    // Unlimited budget: nothing was ever evicted, so any rebuild would
    // mean a dropped version's partitions were recomputed — forbidden.
    assert_eq!(report.partition_rebuilds, 0);
    assert_eq!(report.evictions, 0);
    // The surviving version answers blocking queries consistently.
    let count = server
        .session()
        .sql("SELECT COUNT(*) FROM hot")
        .unwrap()
        .result
        .rows[0]
        .get_int(0)
        .unwrap();
    assert_eq!(count, VERSION_ROWS as i64);
}
