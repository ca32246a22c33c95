//! Crash-recovery matrix for the durable catalog (WAL + snapshot +
//! spill-frame re-adoption).
//!
//! Kill points × damage states:
//!
//! * clean `shutdown()` → `restore()` — frames adopted, queries
//!   byte-identical, promotions not rebuilds, exact counter deltas; the
//!   same for frames smaller in bytes than their row count;
//! * crash with **no checkpoint** (WAL-only replay) — tables and frames
//!   reconstructed from the log alone;
//! * **torn WAL tail** (a partial append) — truncated, valid prefix kept;
//! * **corrupt snapshot** — read as absent, WAL replay still restores;
//! * **corrupt manifest** — frames become orphans, queries fall back to
//!   lineage recompute, never an error;
//! * **truncated frame** — rejected at adoption, its partition rebuilt;
//! * leftover `.tmp-` files from a kill mid-rename — swept at restore.
//!
//! Every scenario seeds its tables with the same deterministic generator,
//! so "byte-identical" means exactly that.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shark_common::{row, DataType, Row, Schema};
use shark_server::{ServerConfig, SessionHandle, SharkServer, TableRecord};
use shark_sql::{RowGenerator, TableMeta};

const PARTITIONS: usize = 6;
const ROWS_PER_PARTITION: usize = 64;
const SEED: u64 = 0x5eed_cafe_f00d_beef;

/// Fresh scratch directory for one test's durable state. CI points
/// `SHARK_SPILL_TEST_DIR` at a job-scoped tmpdir; locally the system temp
/// dir is used.
fn scratch_dir(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    let base = std::env::var_os("SHARK_SPILL_TEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    base.join(format!("shark-recovery-{tag}-{}-{n}", std::process::id()))
}

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

/// The seeded generator, a plain `fn` so the first incarnation and the
/// restore resolver attach *the same* lineage.
fn facts_rows(p: usize) -> Vec<Row> {
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
}

fn register_facts(server: &SharkServer) {
    server.register_table(
        TableMeta::new("facts", schema(), PARTITIONS, facts_rows)
            .with_cache(PARTITIONS)
            .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
    );
}

/// Resolver for `restore_with`: re-attach the real generator to `facts`.
fn resolve(record: &TableRecord) -> Option<RowGenerator> {
    (record.name == "facts").then(|| Arc::new(facts_rows) as RowGenerator)
}

fn grid_queries() -> Vec<String> {
    vec![
        // Full scan first, so the restored run faults in every partition.
        "SELECT COUNT(*), SUM(k) FROM facts".into(),
        "SELECT k, grp, amount FROM facts WHERE amount > 50.0".into(),
        "SELECT grp, COUNT(*), SUM(amount), MIN(k), MAX(amount) \
         FROM facts GROUP BY grp ORDER BY grp"
            .into(),
        "SELECT k, amount FROM facts ORDER BY amount DESC LIMIT 9".into(),
    ]
}

fn fetch(session: &SessionHandle, query: &str) -> Vec<Row> {
    session.sql(query).unwrap().result.rows
}

/// Reference rows from a fully resident first incarnation.
fn references(session: &SessionHandle) -> Vec<(String, Vec<Row>)> {
    grid_queries()
        .into_iter()
        .map(|q| {
            let rows = fetch(session, &q);
            (q, rows)
        })
        .collect()
}

fn assert_grid_matches(server: &SharkServer, reference: &[(String, Vec<Row>)], context: &str) {
    let session = server.session();
    for (query, expected) in reference {
        let got = fetch(&session, query);
        assert_eq!(&got, expected, "{context}: {query}");
    }
}

fn spill_config(dir: &PathBuf) -> ServerConfig {
    ServerConfig::default().with_spill_dir(dir)
}

/// Build, load and quiesce the first incarnation; returns the reference
/// rows and the catalog epoch it shut down at.
fn populate_and_shutdown(dir: &PathBuf) -> (Vec<(String, Vec<Row>)>, u64) {
    let server = SharkServer::new(spill_config(dir));
    register_facts(&server);
    server.load_table("facts").unwrap();
    let reference = references(&server.session());
    let epoch = server.report().catalog_epoch;
    server.shutdown().unwrap();
    (reference, epoch)
}

#[test]
fn restore_after_clean_shutdown_serves_adopted_frames_byte_identically() {
    let dir = scratch_dir("clean");
    let (reference, epoch_before) = populate_and_shutdown(&dir);

    // Restore *without* a resolver: every row below must come from memory
    // or an adopted frame — a single lineage recompute would hit the
    // placeholder generator and panic.
    let server = SharkServer::restore(spill_config(&dir)).unwrap();
    let report = server.report();
    assert!(report.restored && report.wal_enabled);
    assert_eq!(report.recovery_tables_restored, 1);
    assert_eq!(report.recovery_placeholder_tables, 1);
    assert_eq!(report.recovery_frames_adopted, PARTITIONS as u64);
    assert_eq!(report.recovery_frames_rejected, 0);
    assert_eq!(report.recovery_orphans_swept, 0);
    // The shutdown checkpoint folded everything into the snapshot: the WAL
    // replays empty and untorn.
    assert_eq!(report.recovery_wal_records_replayed, 0);
    assert!(!report.recovery_torn_wal_tail);
    assert_eq!(report.catalog_epoch, epoch_before);

    assert_grid_matches(&server, &reference, "clean restore");

    // Warm frames were *promoted* (one I/O move per partition), never
    // rebuilt from lineage.
    let after = server.report();
    assert_eq!(after.partition_promotions, PARTITIONS as u64);
    assert_eq!(after.partition_rebuilds, 0);
    assert_eq!(after.partitions_promoted, PARTITIONS as u64);
}

const FLAG_PARTITIONS: usize = 2;
const FLAG_ROWS: usize = 10_000;

/// Rows whose every column compresses to far fewer bytes than rows: bools
/// bit-pack, a constant int is one run, a sorted two-value string is two.
fn flags_rows(p: usize) -> Vec<Row> {
    (0..FLAG_ROWS)
        .map(|i| {
            row![
                i % 3 == 0,
                p as i64,
                if i < FLAG_ROWS / 2 { "alpha" } else { "beta" }
            ]
        })
        .collect()
}

#[test]
fn restore_after_clean_shutdown_promotes_frames_smaller_than_their_row_count() {
    let dir = scratch_dir("compressed");
    let queries = [
        "SELECT COUNT(*), SUM(c) FROM flags",
        "SELECT s, COUNT(*), MIN(c) FROM flags WHERE f GROUP BY s ORDER BY s",
    ];
    let reference: Vec<(String, Vec<Row>)> = {
        let server = SharkServer::new(spill_config(&dir));
        let schema = Schema::from_pairs(&[
            ("f", DataType::Bool),
            ("c", DataType::Int),
            ("s", DataType::Str),
        ]);
        server.register_table(
            TableMeta::new("flags", schema, FLAG_PARTITIONS, flags_rows)
                .with_cache(FLAG_PARTITIONS)
                .with_row_count_hint((FLAG_PARTITIONS * FLAG_ROWS) as u64),
        );
        server.load_table("flags").unwrap();
        let session = server.session();
        let reference = queries
            .iter()
            .map(|q| (q.to_string(), fetch(&session, q)))
            .collect();
        server.shutdown().unwrap();
        reference
    };

    // No resolver: a frame that fails to decode would fall back to the
    // placeholder generator and panic.
    let server = SharkServer::restore(spill_config(&dir)).unwrap();
    let report = server.report();
    assert_eq!(report.recovery_frames_adopted, FLAG_PARTITIONS as u64);
    assert_eq!(report.recovery_frames_rejected, 0);

    assert_grid_matches(&server, &reference, "compressed restore");
    let after = server.report();
    assert_eq!(after.partition_promotions, FLAG_PARTITIONS as u64);
    assert_eq!(after.partition_rebuilds, 0);
    assert_eq!(after.spill_poisoned_files, 0);
}

#[test]
fn wal_only_crash_restore_reconstructs_tables_and_frames_from_the_log() {
    let dir = scratch_dir("crash");
    let reference = {
        // A huge checkpoint cadence keeps every record in the WAL, and the
        // server is dropped without `shutdown()` — the crash. The demotions
        // were journaled at the admin-call boundary, so the log alone holds
        // the whole story: 1 `Created` + PARTITIONS `Demoted`.
        let server = SharkServer::new(spill_config(&dir).with_wal_snapshot_every(10_000));
        register_facts(&server);
        server.load_table("facts").unwrap();
        let reference = references(&server.session());
        server.demote_table("facts");
        reference
    };

    let server = SharkServer::restore_with(spill_config(&dir), resolve).unwrap();
    let report = server.report();
    assert!(report.restored);
    assert_eq!(report.recovery_tables_restored, 1);
    assert_eq!(report.recovery_placeholder_tables, 0);
    assert_eq!(report.recovery_wal_records_replayed, 1 + PARTITIONS as u64);
    assert!(!report.recovery_torn_wal_tail);
    assert_eq!(report.recovery_frames_adopted, PARTITIONS as u64);
    assert_eq!(report.recovery_frames_rejected, 0);

    assert_grid_matches(&server, &reference, "wal-only restore");
    let after = server.report();
    assert_eq!(after.partition_promotions, PARTITIONS as u64);
    assert_eq!(after.partition_rebuilds, 0);
}

#[test]
fn torn_wal_tail_is_truncated_and_the_valid_prefix_replays() {
    let dir = scratch_dir("torn");
    let reference = {
        let server = SharkServer::new(spill_config(&dir).with_wal_snapshot_every(10_000));
        register_facts(&server);
        server.load_table("facts").unwrap();
        let reference = references(&server.session());
        server.demote_table("facts");
        reference
    };
    // Kill point mid-WAL-append: a length prefix promising a record whose
    // bytes never arrived.
    {
        use std::io::Write as _;
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(shark_server::WAL_FILE))
            .unwrap();
        wal.write_all(&[0x40, 0x00, 0x00, 0x00, 0xde, 0xad])
            .unwrap();
    }

    let server = SharkServer::restore_with(spill_config(&dir), resolve).unwrap();
    let report = server.report();
    assert!(report.restored);
    assert!(
        report.recovery_torn_wal_tail,
        "tail damage must be surfaced"
    );
    // The valid prefix survives in full.
    assert_eq!(report.recovery_wal_records_replayed, 1 + PARTITIONS as u64);
    assert_eq!(report.recovery_frames_adopted, PARTITIONS as u64);

    assert_grid_matches(&server, &reference, "torn-tail restore");
    let after = server.report();
    assert_eq!(after.partition_promotions, PARTITIONS as u64);
    assert_eq!(after.partition_rebuilds, 0);
}

#[test]
fn corrupt_snapshot_reads_as_absent_and_wal_replay_still_restores() {
    let dir = scratch_dir("badsnap");
    let reference = {
        let server = SharkServer::new(spill_config(&dir).with_wal_snapshot_every(10_000));
        register_facts(&server);
        server.load_table("facts").unwrap();
        let reference = references(&server.session());
        server.demote_table("facts");
        reference
    };
    // Kill point mid-snapshot: the boot checkpoint's (empty) snapshot is
    // damaged on disk. Restore must treat it as absent and rebuild the
    // catalog from the WAL alone.
    corrupt_last_byte(&dir.join(shark_server::SNAPSHOT_FILE));

    let server = SharkServer::restore_with(spill_config(&dir), resolve).unwrap();
    let report = server.report();
    assert!(report.restored);
    assert_eq!(report.recovery_tables_restored, 1);
    assert_eq!(report.recovery_frames_adopted, PARTITIONS as u64);

    assert_grid_matches(&server, &reference, "corrupt-snapshot restore");
    assert_eq!(server.report().partition_rebuilds, 0);
}

#[test]
fn corrupt_manifest_degrades_to_lineage_recompute_not_an_error() {
    let dir = scratch_dir("badman");
    let (reference, epoch_before) = populate_and_shutdown(&dir);
    // Kill point around the manifest rename: the manifest on disk is
    // damaged, and (post-shutdown) the WAL holds no demotion records to
    // rebuild the expectations from. The frames are unprovable — they must
    // be swept, and every query answered from lineage instead.
    corrupt_last_byte(&dir.join(shark_server::MANIFEST_FILE));

    let server = SharkServer::restore_with(spill_config(&dir), resolve).unwrap();
    let report = server.report();
    assert!(report.restored);
    assert_eq!(report.recovery_tables_restored, 1);
    assert_eq!(report.recovery_frames_adopted, 0);
    assert_eq!(report.recovery_frames_rejected, 0);
    assert_eq!(report.recovery_orphans_swept, PARTITIONS as u64);
    assert_eq!(report.catalog_epoch, epoch_before);

    assert_grid_matches(&server, &reference, "corrupt-manifest restore");
    let after = server.report();
    assert_eq!(after.partition_promotions, 0);
    assert_eq!(after.partition_rebuilds, PARTITIONS as u64);
}

#[test]
fn truncated_frame_is_rejected_at_adoption_and_its_partition_rebuilt() {
    let dir = scratch_dir("badframe");
    let (reference, _) = populate_and_shutdown(&dir);
    // Crash-truncated frame: the file exists but is shorter than the
    // manifest expects. Adoption must reject (and delete) exactly that
    // frame; its partition comes back through lineage.
    let frame = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "spill"))
        .expect("shutdown left no spill frames");
    let len = std::fs::metadata(&frame).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&frame)
        .unwrap();
    file.set_len(len / 2).unwrap();
    drop(file);

    let server = SharkServer::restore_with(spill_config(&dir), resolve).unwrap();
    let report = server.report();
    assert_eq!(report.recovery_frames_adopted, PARTITIONS as u64 - 1);
    assert_eq!(report.recovery_frames_rejected, 1);
    assert!(!frame.exists(), "a rejected frame must be deleted");

    assert_grid_matches(&server, &reference, "truncated-frame restore");
    let after = server.report();
    assert_eq!(after.partition_promotions, PARTITIONS as u64 - 1);
    assert_eq!(after.partition_rebuilds, 1);
}

#[test]
fn leftover_tmp_files_and_stray_frames_are_swept_at_restore() {
    let dir = scratch_dir("tmpsweep");
    let (reference, _) = populate_and_shutdown(&dir);
    // Kill points mid-rename leave `.tmp-` files; an unindexed `.spill`
    // file is a stray from some other incarnation. Neither may survive a
    // restore, and neither may disturb the adoptable frames.
    let tmp_manifest = dir.join("spill.tmp-write");
    let tmp_frame = dir.join("facts-deadbeef_3.tmp-42");
    let stray = dir.join("stray-0000000000000000_9.spill");
    for p in [&tmp_manifest, &tmp_frame, &stray] {
        std::fs::write(p, b"partial garbage").unwrap();
    }

    let server = SharkServer::restore(spill_config(&dir)).unwrap();
    let report = server.report();
    assert_eq!(report.recovery_frames_adopted, PARTITIONS as u64);
    assert_eq!(report.recovery_frames_rejected, 0);
    assert_eq!(report.recovery_orphans_swept, 1, "only the stray frame");
    assert!(!tmp_manifest.exists() && !tmp_frame.exists() && !stray.exists());

    assert_grid_matches(&server, &reference, "tmp-sweep restore");
}

#[test]
fn restore_without_a_spill_dir_is_a_config_error() {
    let err = match SharkServer::restore(ServerConfig::default()) {
        Ok(_) => panic!("restore without a spill dir must fail"),
        Err(err) => err,
    };
    assert_eq!(err.kind(), "config");
}

/// Flip the last byte of a file in place (checksum damage, size intact).
fn corrupt_last_byte(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(path, bytes).unwrap();
}
