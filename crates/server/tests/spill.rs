//! Spill-tier integration tests: the seeded residency grid (byte-equality
//! across resident / demoted / dropped table states and blocking /
//! streamed / vectorized / row execution paths), promotion-vs-rebuild
//! accounting, crash-mid-spill recovery (truncated and corrupted frames
//! fall back to lineage recompute, never a query error), spill-disk-budget
//! displacement, pin-release on failed or abandoned streams, and
//! owner-share re-apportionment when sessions close.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use shark_common::{row, DataType, Row, Schema};
use shark_server::{EvictionEvent, ServerConfig, SessionHandle, SharkServer};
use shark_sql::{ExecConfig, TableMeta};

const PARTITIONS: usize = 6;
const ROWS_PER_PARTITION: usize = 80;
const SEED: u64 = 0x5eed_0123_4567_89ab;

/// Fresh scratch directory for one test's spill tier. CI points
/// `SHARK_SPILL_TEST_DIR` at a job-scoped tmpdir; locally the system
/// temp dir is used.
fn scratch_dir(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    let base = std::env::var_os("SHARK_SPILL_TEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    base.join(format!("shark-spill-it-{tag}-{}-{n}", std::process::id()))
}

/// Disk budget for the displacement test: small enough that a six-frame
/// demotion must displace. `SHARK_SPILL_TEST_BUDGET` (bytes) overrides.
fn tight_budget() -> u64 {
    std::env::var("SHARK_SPILL_TEST_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6 * 1024)
}

/// Deterministic splitmix64 stream — both the reference and the spilled
/// runs regenerate exactly the same table bytes from lineage.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("grp", DataType::Str),
        ("amount", DataType::Float),
    ])
}

/// Mixed-distribution table: sequential ints, a small string dictionary,
/// noisy floats — exercises dictionary and plain column codecs in the
/// spill frames.
fn register_mixed(server: &SharkServer, name: &str) {
    server.register_table(
        TableMeta::new(name, schema(), PARTITIONS, |p| {
            let mut rng = SEED ^ (p as u64).wrapping_mul(0xd134_2543_de82_ef95);
            (0..ROWS_PER_PARTITION)
                .map(|i| {
                    let r = splitmix(&mut rng);
                    row![
                        (p * ROWS_PER_PARTITION + i) as i64,
                        ["alpha", "beta", "gamma", "delta"][(r % 4) as usize],
                        (r % 10_000) as f64 / 100.0
                    ]
                })
                .collect()
        })
        .with_cache(PARTITIONS)
        .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
    );
}

/// Run-heavy table: long constant runs so RLE-encoded spill frames and
/// run-skipping scans engage on the promoted copies.
fn register_rle(server: &SharkServer, name: &str) {
    server.register_table(
        TableMeta::new(name, schema(), PARTITIONS, |p| {
            (0..ROWS_PER_PARTITION)
                .map(|i| {
                    let global = p * ROWS_PER_PARTITION + i;
                    row![
                        (global / 20) as i64,
                        ["hot", "cold"][(global / 40) % 2],
                        (global / 10) as f64 * 0.25
                    ]
                })
                .collect()
        })
        .with_cache(PARTITIONS)
        .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
    );
}

/// Drop partitions straight out of memory, bypassing the spill tier — the
/// "dropped" residency state whose only recovery is lineage recompute.
fn drop_partitions(server: &SharkServer, table: &str) {
    let mem = server.catalog().get(table).unwrap().cached.clone().unwrap();
    for p in 0..PARTITIONS {
        mem.evict_partition(p);
    }
}

fn grid_queries(table: &str) -> Vec<String> {
    [
        format!("SELECT k, grp, amount FROM {table} WHERE amount > 50.0"),
        format!("SELECT k, amount FROM {table} WHERE grp = 'beta' AND k < 300"),
        format!("SELECT k FROM {table} WHERE grp = 'hot'"),
        format!("SELECT amount, k FROM {table}"),
        format!("SELECT grp, COUNT(*), SUM(amount), MIN(k), MAX(amount) FROM {table} GROUP BY grp"),
        format!("SELECT grp, AVG(amount) FROM {table} WHERE k > 50 GROUP BY grp ORDER BY grp"),
        format!("SELECT COUNT(*), SUM(k) FROM {table}"),
        format!("SELECT k, amount FROM {table} ORDER BY amount DESC LIMIT 9"),
    ]
    .into_iter()
    .collect()
}

fn fetch_blocking(session: &SessionHandle, query: &str) -> Vec<Row> {
    session.sql(query).unwrap().result.rows
}

fn fetch_streamed(session: &SessionHandle, query: &str) -> Vec<Row> {
    session.sql_stream(query).unwrap().fetch_all().unwrap()
}

/// Bare GROUP BY promises no output order; everything else compares
/// positionally, byte for byte.
fn assert_same(mut left: Vec<Row>, mut right: Vec<Row>, query: &str, context: &str) {
    let unordered = query.contains("GROUP BY") && !query.contains("ORDER BY");
    if unordered {
        left.sort();
        right.sort();
    }
    assert_eq!(left, right, "{context}: {query}");
}

fn demoted_partition_count(events: &[EvictionEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, EvictionEvent::Demoted { .. }))
        .map(|e| e.partitions())
        .sum()
}

/// The headline acceptance grid: every query must return byte-identical
/// rows whether its table is fully resident, demoted to disk, or dropped
/// outright — and whether it runs blocking or streamed, vectorized or
/// row-at-a-time. Demoted tables must recover through promotions (I/O),
/// not lineage rebuilds.
#[test]
fn residency_grid_is_byte_identical_across_engines_and_tiers() {
    let dir = scratch_dir("grid");
    let server = SharkServer::new(ServerConfig::default().with_spill_dir(&dir));
    register_mixed(&server, "grid_mixed");
    register_rle(&server, "grid_rle");
    for t in ["grid_mixed", "grid_rle"] {
        server.load_table(t).unwrap();
    }

    let vectorized = server.session();
    let mut row_path = server.session();
    let mut row_exec = ExecConfig::shark();
    row_exec.vectorized = false;
    row_path.set_exec_config(row_exec);

    let rebuilds_before_demoted_runs = {
        // Reference rows come from the fully resident tables, row engine,
        // blocking fetch.
        let mut references = Vec::new();
        for table in ["grid_mixed", "grid_rle"] {
            for query in grid_queries(table) {
                references.push((table, query.clone(), fetch_blocking(&row_path, &query)));
            }
        }

        // Demoted tier: stage before every fetch (a promotion moves the
        // frame back into memory, so each mode faults the table in afresh).
        // A query whose predicate map-prunes a demoted partition never
        // touches its frame, so staging asserts the resulting *state* —
        // every partition on disk — not that this call demoted anything.
        let stage_demoted = |table: &str| {
            server.demote_table(table);
            let spill = server.spill().unwrap();
            for p in 0..PARTITIONS {
                assert!(
                    spill.is_spilled(table, p),
                    "staging left {table}:{p} neither resident nor demoted"
                );
            }
        };
        let rebuilds_before = server.report().partition_rebuilds;
        for (table, query, reference) in &references {
            for (context, fetch) in [
                (
                    "demoted vec blocking",
                    &fetch_blocking as &dyn Fn(&SessionHandle, &str) -> Vec<Row>,
                ),
                ("demoted vec streamed", &fetch_streamed),
            ] {
                stage_demoted(table);
                assert_same(fetch(&vectorized, query), reference.clone(), query, context);
            }
            for (context, fetch) in [
                (
                    "demoted row blocking",
                    &fetch_blocking as &dyn Fn(&SessionHandle, &str) -> Vec<Row>,
                ),
                ("demoted row streamed", &fetch_streamed),
            ] {
                stage_demoted(table);
                assert_same(fetch(&row_path, query), reference.clone(), query, context);
            }
        }
        let report = server.report();
        assert_eq!(
            report.partition_rebuilds, rebuilds_before,
            "demoted partitions must fault back via promotion, not lineage rebuild"
        );
        assert!(
            report.partition_promotions >= PARTITIONS as u64,
            "demoted runs promoted only {} partitions",
            report.partition_promotions
        );
        assert!(report.partitions_demoted >= PARTITIONS as u64);
        assert_eq!(report.spill_poisoned_files, 0);

        // Dropped tier: partitions leave memory with no spill frame, so
        // recovery is lineage recompute — results still byte-identical.
        for (table, query, reference) in &references {
            drop_partitions(&server, table);
            assert_same(
                fetch_blocking(&vectorized, query),
                reference.clone(),
                query,
                "dropped vec blocking",
            );
            drop_partitions(&server, table);
            assert_same(
                fetch_streamed(&row_path, query),
                reference.clone(),
                query,
                "dropped row streamed",
            );
        }
        report.partition_rebuilds
    };
    let final_report = server.report();
    assert!(
        final_report.partition_rebuilds > rebuilds_before_demoted_runs,
        "dropped runs must have recomputed from lineage"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Focused promotion accounting: demoting a table and scanning it once
/// moves every partition back through the spill tier — counted as
/// promotions, with zero new lineage rebuilds — and empties the disk tier
/// (promotion is a move, not a copy).
#[test]
fn demoted_faults_are_promotions_not_rebuilds() {
    let dir = scratch_dir("promote");
    let server = SharkServer::new(ServerConfig::default().with_spill_dir(&dir));
    register_mixed(&server, "promo_t");
    server.load_table("promo_t").unwrap();
    let session = server.session();

    let events = server.demote_table("promo_t");
    assert_eq!(
        demoted_partition_count(&events),
        PARTITIONS,
        "expected every partition demoted, got {events:?}"
    );
    let spill = server.spill().expect("spill tier configured");
    assert_eq!(spill.spilled_partition_count(), PARTITIONS as u64);
    assert!(spill.disk_bytes() > 0);

    let before = server.report();
    let rows = fetch_blocking(&session, "SELECT COUNT(*), SUM(k) FROM promo_t");
    let total = (PARTITIONS * ROWS_PER_PARTITION) as i64;
    assert_eq!(rows, vec![row![total, (0..total).sum::<i64>()]]);

    let after = server.report();
    assert_eq!(
        after.partition_rebuilds, before.partition_rebuilds,
        "scan of a demoted table must not rebuild from lineage"
    );
    assert_eq!(
        after.partition_promotions - before.partition_promotions,
        PARTITIONS as u64
    );
    assert_eq!(after.partitions_promoted, PARTITIONS as u64);
    assert!(after.spill_bytes_read > 0);
    // Promotion moved the frames off disk and the table is resident again.
    assert_eq!(spill.spilled_partition_count(), 0);
    assert_eq!(spill.disk_bytes(), 0);
    assert!(after.memstore_bytes > before.memstore_bytes);
    std::fs::remove_dir_all(&dir).ok();
}

/// `partition_promotions` is cumulative: the promotions a table served stay
/// counted after the table is dropped and its storage reclaimed.
#[test]
fn promotions_stay_counted_after_drop_and_reclamation() {
    let dir = scratch_dir("promote-drop");
    let server = SharkServer::new(ServerConfig::default().with_spill_dir(&dir));
    register_mixed(&server, "promo_drop");
    server.load_table("promo_drop").unwrap();
    server.demote_table("promo_drop");
    let session = server.session();
    fetch_blocking(&session, "SELECT k, grp, amount FROM promo_drop");
    let promoted = server.report().partition_promotions;
    assert_eq!(promoted, PARTITIONS as u64);

    session.sql("DROP TABLE promo_drop").unwrap();
    server.reclaim_dropped();
    let report = server.report();
    assert_eq!(
        report.deferred_drop_bytes, 0,
        "the dropped version is reclaimed"
    );
    assert_eq!(
        report.partition_promotions, promoted,
        "a cumulative counter must not fall when its table is dropped"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A demotion whose frame cannot be written becomes a plain drop: it is
/// counted as a spill write failure, and the next scan answers the same
/// rows through lineage.
#[test]
fn unwritable_spill_frames_are_counted_and_fall_back_to_lineage() {
    let dir = scratch_dir("write-failure");
    let server = SharkServer::new(ServerConfig::default().with_spill_dir(&dir));
    register_mixed(&server, "wf_t");
    register_mixed(&server, "wf_ref");
    server.load_table("wf_t").unwrap();
    let session = server.session();
    let reference = fetch_blocking(&session, "SELECT k, grp, amount FROM wf_ref");
    assert_eq!(server.report().spill_write_failures, 0, "a healthy tier");

    std::fs::remove_dir_all(&dir).unwrap();
    let events = server.demote_table("wf_t");
    assert_eq!(demoted_partition_count(&events), 0, "got {events:?}");
    let before = server.report();
    assert_eq!(before.spill_write_failures, PARTITIONS as u64);
    assert_eq!(before.partitions_demoted, 0);

    let rows = fetch_blocking(&session, "SELECT k, grp, amount FROM wf_t");
    assert_eq!(rows, reference);
    let after = server.report();
    assert_eq!(
        after.partition_rebuilds - before.partition_rebuilds,
        PARTITIONS as u64
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash-mid-spill recovery: truncated and corrupted spill frames are
/// poisoned on promotion and the partitions fall back to lineage
/// recompute — the query sees byte-identical rows on every execution
/// path, never an error.
#[test]
fn corrupt_or_truncated_spill_frames_fall_back_to_lineage() {
    let dir = scratch_dir("corrupt");
    let server = SharkServer::new(ServerConfig::default().with_spill_dir(&dir));
    register_mixed(&server, "crash_t");
    // Pristine twin with the identical generator — the reference rows.
    register_mixed(&server, "crash_ref");
    for t in ["crash_t", "crash_ref"] {
        server.load_table(t).unwrap();
    }
    let vectorized = server.session();
    let mut row_path = server.session();
    let mut row_exec = ExecConfig::shark();
    row_exec.vectorized = false;
    row_path.set_exec_config(row_exec);

    let query_t = "SELECT k, grp, amount FROM crash_t WHERE amount > 10.0";
    let query_ref = "SELECT k, grp, amount FROM crash_ref WHERE amount > 10.0";
    let reference = fetch_blocking(&row_path, query_ref);
    assert!(!reference.is_empty());

    // Sabotage two frames per round: one truncated mid-write (the crash
    // window this tier's atomic-rename protocol is designed around, were a
    // rename itself interrupted), one bit-flipped (checksum mismatch).
    let sabotage = |server: &SharkServer| {
        assert_eq!(
            demoted_partition_count(&server.demote_table("crash_t")),
            PARTITIONS
        );
        let mut frames: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "spill"))
            .collect();
        frames.sort();
        assert_eq!(frames.len(), PARTITIONS);
        // Truncate the first frame to a stub.
        let bytes = std::fs::read(&frames[0]).unwrap();
        std::fs::write(&frames[0], &bytes[..bytes.len().min(10)]).unwrap();
        // Flip a payload byte in the second — the length is intact but the
        // checksum no longer matches.
        let mut bytes = std::fs::read(&frames[1]).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&frames[1], &bytes).unwrap();
    };

    let mut poisoned_so_far = 0;
    for (context, run) in [
        (
            "corrupt blocking vectorized",
            &(|| fetch_blocking(&vectorized, query_t)) as &dyn Fn() -> Vec<Row>,
        ),
        ("corrupt streamed vectorized", &|| {
            fetch_streamed(&vectorized, query_t)
        }),
        ("corrupt blocking row", &|| {
            fetch_blocking(&row_path, query_t)
        }),
        ("corrupt streamed row", &|| {
            fetch_streamed(&row_path, query_t)
        }),
    ] {
        sabotage(&server);
        let before = server.report();
        assert_same(run(), reference.clone(), query_t, context);
        let after = server.report();
        poisoned_so_far += 2;
        assert_eq!(
            after.spill_poisoned_files, poisoned_so_far,
            "{context}: each round poisons exactly the two sabotaged frames"
        );
        assert_eq!(
            after.partition_rebuilds - before.partition_rebuilds,
            2,
            "{context}: the two poisoned partitions recompute from lineage"
        );
        assert_eq!(
            after.partition_promotions - before.partition_promotions,
            (PARTITIONS - 2) as u64,
            "{context}: the intact frames promote"
        );
    }
    // Poisoned frames were deleted, not left to poison the next promotion.
    assert_eq!(server.spill().unwrap().spilled_partition_count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Spill-disk-budget displacement: when the tier's own budget cannot hold
/// every demoted frame, the coldest are deleted and those partitions
/// degrade to lineage recompute — still never a query error.
#[test]
fn tight_spill_budget_displaces_frames_and_queries_still_serve() {
    let dir = scratch_dir("budget");
    // Budget ≈ two frames: demoting six partitions must displace most.
    let budget = tight_budget();
    let server = SharkServer::new(
        ServerConfig::default()
            .with_spill_dir(&dir)
            .with_spill_budget(budget),
    );
    register_mixed(&server, "tight_t");
    register_mixed(&server, "tight_ref");
    for t in ["tight_t", "tight_ref"] {
        server.load_table(t).unwrap();
    }
    let session = server.session();
    let reference = fetch_blocking(&session, "SELECT k, grp, amount FROM tight_ref");

    server.demote_table("tight_t");
    let spill = server.spill().unwrap();
    assert!(
        spill.disk_bytes() <= budget,
        "disk use {} exceeds the spill budget {budget}",
        spill.disk_bytes()
    );
    assert!(
        server.report().spill_displaced_partitions > 0,
        "a six-partition demotion into a two-frame budget must displace"
    );

    let rows = fetch_blocking(&session, "SELECT k, grp, amount FROM tight_t");
    assert_eq!(rows, reference);
    let report = server.report();
    assert!(report.partition_promotions > 0, "surviving frames promoted");
    assert!(
        report.partition_rebuilds > 0,
        "displaced partitions recomputed from lineage"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Pin hygiene (the PR's bug sweep): failed blocking queries, failed
/// streams, plan errors, and streams abandoned mid-consumption must all
/// release their table pins — afterwards the table is fully demotable.
#[test]
fn failed_and_abandoned_queries_release_their_pins() {
    let dir = scratch_dir("pins");
    let server = SharkServer::new(ServerConfig::default().with_spill_dir(&dir));
    register_mixed(&server, "pins_t");
    server.load_table("pins_t").unwrap();
    let mut session = server.session();
    session.register_udf("explode_after_p0", |args| {
        let k = args[0].as_int().unwrap_or(0);
        if k >= ROWS_PER_PARTITION as i64 {
            panic!("boom on k {k}");
        }
        args[0].clone()
    });

    // Blocking query whose task panics: the panic is the query's error.
    assert!(
        session
            .sql("SELECT explode_after_p0(k) FROM pins_t")
            .is_err(),
        "the exploding UDF must fail the blocking query"
    );
    assert!(
        server.pinned_tables().is_empty(),
        "failed blocking query leaked pins: {:?}",
        server.pinned_tables()
    );

    // Stream that errors mid-consumption: partition 0 delivers, then the
    // UDF explodes. Drain until the error, then drop the cursor.
    {
        let mut stream = session
            .sql_stream("SELECT explode_after_p0(k) FROM pins_t")
            .unwrap();
        let mut saw_error = false;
        loop {
            match stream.next_batch() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    saw_error = true;
                    break;
                }
            }
        }
        assert!(saw_error, "the exploding UDF must surface mid-stream");
    }
    assert!(
        server.pinned_tables().is_empty(),
        "failed stream leaked pins: {:?}",
        server.pinned_tables()
    );

    // Plan error after parse (unknown column) — the pre-cursor window.
    assert!(session
        .sql_stream("SELECT no_such_column FROM pins_t")
        .is_err());
    assert!(server.pinned_tables().is_empty());

    // Stream abandoned after one batch.
    {
        let mut stream = session.sql_stream("SELECT k FROM pins_t").unwrap();
        assert!(stream.next_batch().unwrap().is_some());
    }
    assert!(
        server.pinned_tables().is_empty(),
        "abandoned stream leaked pins: {:?}",
        server.pinned_tables()
    );

    // With every pin released the table is fully demotable.
    let events = server.demote_table("pins_t");
    assert_eq!(
        demoted_partition_count(&events),
        PARTITIONS,
        "a leaked pin would block demotion: {events:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Owner-share hygiene (the PR's bug sweep): shares of a co-owned table
/// always sum to its resident bytes, and closing a session re-apportions
/// its share to the survivors instead of leaving it stranded.
#[test]
fn closing_a_session_reapportions_shared_table_bytes() {
    let server = SharkServer::new(ServerConfig::default());
    register_mixed(&server, "shared_t");
    let a = server.session();
    let b = server.session();
    a.load_table("shared_t").unwrap();
    b.load_table("shared_t").unwrap();

    let table_bytes = server.report().memstore_bytes;
    assert!(table_bytes > 0);
    assert_eq!(
        a.resident_bytes() + b.resident_bytes(),
        table_bytes,
        "owner shares must sum exactly to the table's resident bytes"
    );

    drop(b);
    assert_eq!(
        a.resident_bytes(),
        table_bytes,
        "the surviving owner absorbs the closed session's share"
    );
}

/// Memory-budget enforcement with a spill tier: pressure demotes instead
/// of dropping, measured residency lands at or under the budget, and a
/// later scan of the demoted table still returns exact rows.
#[test]
fn budget_pressure_demotes_and_scans_promote_back() {
    let dir = scratch_dir("pressure");
    let budget = 4 * 1024;
    let server = SharkServer::new(
        ServerConfig::default()
            .with_spill_dir(&dir)
            .with_memory_budget(budget),
    );
    register_mixed(&server, "pressure_t");
    let session = server.session();
    session.load_table("pressure_t").unwrap();

    let report = server.report();
    assert!(
        report.memstore_bytes <= budget,
        "enforcement left {} resident bytes over the {} budget",
        report.memstore_bytes,
        budget
    );
    assert!(
        report.partitions_demoted > 0,
        "pressure with a spill tier must demote, not drop"
    );

    let total = (PARTITIONS * ROWS_PER_PARTITION) as i64;
    let rows = fetch_blocking(&session, "SELECT COUNT(*), SUM(k) FROM pressure_t");
    assert_eq!(rows, vec![row![total, (0..total).sum::<i64>()]]);
    let after = server.report();
    assert!(after.partition_promotions > 0 || after.partition_rebuilds > 0);
    // Query-completion enforcement pushed residency back under budget.
    assert!(after.memstore_bytes <= budget);
    std::fs::remove_dir_all(&dir).ok();
}
