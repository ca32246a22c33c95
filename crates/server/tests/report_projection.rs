//! The report is a projection of one metrics table: its JSON keeps the
//! byte layout it had before the table existed, every row backed by a
//! `shark_*` family reads the same number as that family, and the process
//! registry keeps every family it had.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use shark_common::{row, DataType, Schema};
use shark_server::frame::{self, Frame};
use shark_server::{NetConfig, ServerConfig, ServerReport, SessionStats, SharkServer};
use shark_sql::{RowGenerator, TableMeta};

/// The workload tests read process-wide counters, so they run one at a
/// time.
static PROCESS_REGISTRY: Mutex<()> = Mutex::new(());

/// A report with a distinct value in every field.
fn distinct_report() -> ServerReport {
    let ms = Duration::from_millis;
    ServerReport {
        total_queries: 1,
        rejected_queries: 2,
        failed_queries: 3,
        peak_concurrent_queries: 4,
        peak_queued_queries: 5,
        total_queue_wait: ms(6),
        max_queue_wait: ms(7),
        total_exec_time: ms(8),
        total_time_to_first_row: ms(9),
        streamed_time_to_first_row: Duration::from_micros(10_250),
        streamed_queries: 11,
        streamed_rows: 12,
        streamed_partitions: 13,
        prefetch_hits: 14,
        cache_hit_bytes: 15,
        evictions: 16,
        evicted_partitions: 17,
        partial_evictions: 18,
        evicted_bytes: 19,
        quota_hits: 21,
        quota_evicted_partitions: 22,
        quota_infeasible_rejections: 23,
        plan_cache_enabled: true,
        plan_cache_hits: 24,
        plan_cache_misses: 25,
        plan_cache_stale_plans: 26,
        plan_cache_entries: 27,
        plan_cache_capacity: 28,
        connections_opened: 29,
        connections_closed: 30,
        connections_active: 31,
        connections_reaped: 32,
        wire_bytes_sent: 33,
        wire_bytes_received: 34,
        net_frames_sent: 35,
        net_frames_received: 36,
        net_protocol_errors: 37,
        net_auth_failures: 38,
        net_queries: 39,
        net_prepared_statements: 40,
        net_cancels: 41,
        partition_rebuilds: 42,
        partition_promotions: 43,
        spilled_partitions: 44,
        spill_disk_bytes: 45,
        spill_budget_bytes: u64::MAX,
        partitions_demoted: 46,
        partitions_promoted: 47,
        spill_bytes_written: 48,
        spill_bytes_read: 49,
        spill_poisoned_files: 50,
        spill_displaced_partitions: 51,
        spill_write_failures: 76,
        catalog_epoch: 52,
        live_snapshots: 53,
        deferred_drop_bytes: 54,
        deferred_drops_reclaimed: 55,
        deferred_reclaimed_bytes: 56,
        wal_enabled: false,
        wal_records: 57,
        wal_snapshots_written: 58,
        wal_append_failures: 59,
        restored: true,
        recovery_wal_records_replayed: 60,
        recovery_torn_wal_tail: false,
        recovery_tables_restored: 61,
        recovery_placeholder_tables: 62,
        recovery_frames_adopted: 63,
        recovery_frames_rejected: 64,
        recovery_orphans_swept: 65,
        memstore_bytes: 66,
        rdd_cache_bytes: 67,
        memory_budget_bytes: 68,
        session_quota_bytes: 69,
        sessions: vec![
            SessionStats {
                session_id: 70,
                queries: 71,
                rejected: 72,
                total_queue_wait: ms(73),
                total_exec_time: Duration::from_nanos(74_000_001),
                cache_hit_bytes: 75,
            },
            SessionStats::default(),
        ],
    }
}

/// `distinct_report().to_json()` as the hand-written serializer the table
/// replaced produced it, plus the one key added since
/// (`spill_write_failures`, after `spill_displaced_partitions`) and minus
/// the one deleted since (`lineage_recomputes`, a table-level estimate of
/// what `partition_rebuilds` counts exactly).
const GOLDEN_JSON: &str = concat!(
    r#"{"total_queries":1,"rejected_queries":2,"failed_queries":3,"#,
    r#""peak_concurrent_queries":4,"peak_queued_queries":5,"#,
    r#""total_queue_wait_seconds":0.006,"max_queue_wait_seconds":0.007,"#,
    r#""total_exec_seconds":0.008,"total_time_to_first_row_seconds":0.009,"#,
    r#""streamed_time_to_first_row_seconds":0.01025,"streamed_queries":11,"#,
    r#""streamed_rows":12,"streamed_partitions":13,"prefetch_hits":14,"#,
    r#""cache_hit_bytes":15,"evictions":16,"evicted_partitions":17,"#,
    r#""partial_evictions":18,"evicted_bytes":19,"#,
    r#""quota_hits":21,"quota_evicted_partitions":22,"quota_infeasible_rejections":23,"#,
    r#""plan_cache_enabled":true,"plan_cache_hits":24,"plan_cache_misses":25,"#,
    r#""plan_cache_stale_plans":26,"plan_cache_entries":27,"plan_cache_capacity":28,"#,
    r#""connections_opened":29,"connections_closed":30,"connections_active":31,"#,
    r#""connections_reaped":32,"wire_bytes_sent":33,"wire_bytes_received":34,"#,
    r#""net_frames_sent":35,"net_frames_received":36,"net_protocol_errors":37,"#,
    r#""net_auth_failures":38,"net_queries":39,"net_prepared_statements":40,"#,
    r#""net_cancels":41,"partition_rebuilds":42,"partition_promotions":43,"#,
    r#""spilled_partitions":44,"spill_disk_bytes":45,"#,
    r#""spill_budget_bytes":18446744073709551615,"partitions_demoted":46,"#,
    r#""partitions_promoted":47,"spill_bytes_written":48,"spill_bytes_read":49,"#,
    r#""spill_poisoned_files":50,"spill_displaced_partitions":51,"#,
    r#""spill_write_failures":76,"wal_enabled":false,"wal_records":57,"#,
    r#""wal_snapshots_written":58,"wal_append_failures":59,"restored":true,"#,
    r#""recovery_wal_records_replayed":60,"recovery_torn_wal_tail":false,"#,
    r#""recovery_tables_restored":61,"recovery_placeholder_tables":62,"#,
    r#""recovery_frames_adopted":63,"recovery_frames_rejected":64,"#,
    r#""recovery_orphans_swept":65,"catalog_epoch":52,"live_snapshots":53,"#,
    r#""deferred_drop_bytes":54,"deferred_drops_reclaimed":55,"#,
    r#""deferred_reclaimed_bytes":56,"memstore_bytes":66,"rdd_cache_bytes":67,"#,
    r#""memory_budget_bytes":68,"session_quota_bytes":69,"sessions":[{"session_id":70,"#,
    r#""queries":71,"rejected":72,"total_queue_wait_seconds":0.073,"#,
    r#""total_exec_seconds":0.074000001,"cache_hit_bytes":75},{"session_id":0,"#,
    r#""queries":0,"rejected":0,"total_queue_wait_seconds":0,"total_exec_seconds":0,"#,
    r#""cache_hit_bytes":0}]}"#,
);

/// Every family the process registry held after [`workload`] before the
/// metrics table existed, with its kind, less [`DELETED_FAMILIES`].
const FAMILIES: &[(&str, &str)] = &[
    ("shark_admission_wait_seconds", "histogram"),
    ("shark_cache_hit_bytes_total", "counter"),
    ("shark_evictions_triggered_total", "counter"),
    ("shark_memstore_cache_hit_bytes_total", "counter"),
    ("shark_memstore_cache_hit_partitions_total", "counter"),
    ("shark_net_auth_failures_total", "counter"),
    ("shark_net_bytes_received_total", "counter"),
    ("shark_net_bytes_sent_total", "counter"),
    ("shark_net_cancels_total", "counter"),
    ("shark_net_connections_active", "gauge"),
    ("shark_net_connections_closed_total", "counter"),
    ("shark_net_connections_opened_total", "counter"),
    ("shark_net_connections_reaped_total", "counter"),
    ("shark_net_frame_bytes", "histogram"),
    ("shark_net_frames_received_total", "counter"),
    ("shark_net_frames_sent_total", "counter"),
    ("shark_net_prepared_statements_total", "counter"),
    ("shark_net_protocol_errors_total", "counter"),
    ("shark_net_queries_total", "counter"),
    ("shark_partition_promotions_total", "counter"),
    ("shark_partition_rebuilds_total", "counter"),
    ("shark_plan_cache_hits_total", "counter"),
    ("shark_prefetch_hits_total", "counter"),
    ("shark_queries_failed_total", "counter"),
    ("shark_queries_total", "counter"),
    ("shark_query_exec_seconds", "histogram"),
    ("shark_recovery_frames_adopted_total", "counter"),
    ("shark_recovery_frames_rejected_total", "counter"),
    ("shark_recovery_restores_total", "counter"),
    ("shark_recovery_seconds", "histogram"),
    ("shark_recovery_tables_restored_total", "counter"),
    ("shark_recovery_torn_wal_tails_total", "counter"),
    ("shark_recovery_wal_records_replayed_total", "counter"),
    ("shark_rejected_total", "counter"),
    ("shark_rows_delivered_total", "counter"),
    ("shark_sim_speculative_copies_total", "counter"),
    ("shark_sim_stage_seconds", "histogram"),
    ("shark_sim_stages_total", "counter"),
    ("shark_sim_task_reruns_total", "counter"),
    ("shark_sim_tasks_total", "counter"),
    ("shark_spill_bytes_read_total", "counter"),
    ("shark_spill_bytes_written_total", "counter"),
    ("shark_spill_displaced_partitions_total", "counter"),
    ("shark_spill_partitions_demoted_total", "counter"),
    ("shark_spill_partitions_promoted_total", "counter"),
    ("shark_spill_poisoned_files_total", "counter"),
    ("shark_spill_read_seconds", "histogram"),
    ("shark_spill_write_seconds", "histogram"),
    ("shark_stage_bytes_in_total", "counter"),
    ("shark_stage_rows_in_total", "counter"),
    ("shark_streamed_queries_total", "counter"),
    ("shark_time_to_first_row_seconds", "histogram"),
    ("shark_wal_batches_total", "counter"),
    ("shark_wal_bytes_written_total", "counter"),
    ("shark_wal_fsync_seconds", "histogram"),
    ("shark_wal_records_total", "counter"),
    ("shark_wal_torn_tail_bytes_total", "counter"),
];

/// Families deleted since: two second tallies of lineage recovery (the
/// scans' `shark_partition_rebuilds_total` is the one count) and a copy of
/// `shark_memstore_quota_evicted_partitions_total`.
const DELETED_FAMILIES: &[&str] = &[
    "shark_lineage_recomputed_tables_total",
    "shark_memstore_lineage_recomputes_total",
    "shark_quota_evicted_partitions_total",
];

const PARTITIONS: usize = 4;

fn generator(name: &str) -> RowGenerator {
    let salt = name.len() as i64;
    std::sync::Arc::new(move |p| {
        (0..200)
            .map(|i| row![(p * 200 + i) as i64 * salt, ["a", "b", "c"][i % 3]])
            .collect()
    })
}

fn register(server: &SharkServer, name: &str) {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("grp", DataType::Str)]);
    let generator = generator(name);
    server.register_table(
        TableMeta::new(name, schema, PARTITIONS, move |p| generator(p)).with_cache(PARTITIONS),
    );
}

/// Send one request frame and read replies up to the one that ends it.
fn request(stream: &mut TcpStream, frame: &Frame) -> Frame {
    frame::write_frame(stream, frame).unwrap();
    stream.flush().unwrap();
    loop {
        let (reply, _) = frame::read_frame(stream).unwrap();
        if matches!(
            reply,
            Frame::HelloOk { .. }
                | Frame::QueryDone { .. }
                | Frame::Error { .. }
                | Frame::Prepared { .. }
        ) {
            return reply;
        }
    }
}

/// A small TCP + spill + restore run: wire queries (one failing), a
/// prepared statement, in-process blocking and streamed queries, budget
/// demotions, CTAS + DROP + reclamation, shutdown, then a restore that
/// re-adopts the demoted frames. Returns the report of each server.
fn workload() -> Vec<ServerReport> {
    let dir = std::env::temp_dir().join(format!("shark-report-projection-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig::default()
        .with_memory_budget(24 * 1024)
        .with_spill_dir(PathBuf::from(&dir))
        .with_wal_snapshot_every(8);
    let server = SharkServer::new(config.clone());
    register(&server, "t0");
    register(&server, "t1");
    server.load_table("t0").unwrap();
    let mut net = server.serve(NetConfig::default()).unwrap();
    let mut stream = TcpStream::connect(net.local_addr()).unwrap();
    let hello = Frame::Hello {
        token: String::new(),
        tenant: String::new(),
    };
    assert!(matches!(
        request(&mut stream, &hello),
        Frame::HelloOk { .. }
    ));
    for sql in [
        "SELECT COUNT(*) FROM t0",
        "SELECT k, grp FROM t1 WHERE k < 50",
        "SELECT nope FROM t0",
    ] {
        request(&mut stream, &Frame::Query { sql: sql.into() });
    }
    let prepare = Frame::Prepare {
        sql: "SELECT COUNT(*) FROM t0".into(),
    };
    let Frame::Prepared { statement_id, .. } = request(&mut stream, &prepare) else {
        panic!("prepare failed")
    };
    request(&mut stream, &Frame::Execute { statement_id });
    request(&mut stream, &Frame::Execute { statement_id });
    frame::write_frame(&mut stream, &Frame::Close).unwrap();
    drop(stream);
    let session = server.session();
    session
        .sql("SELECT grp, COUNT(*) FROM t0 GROUP BY grp")
        .unwrap();
    session
        .sql_stream("SELECT k FROM t1")
        .unwrap()
        .fetch_all()
        .unwrap();
    session
        .sql("CREATE TABLE t2 TBLPROPERTIES (\"shark.cache\" = \"true\") AS SELECT k FROM t0 WHERE k < 100")
        .unwrap();
    server.demote_table("t0");
    session.sql("SELECT COUNT(*) FROM t0").unwrap();
    let reader = server.session();
    let mut cursor = reader.sql_stream("SELECT k FROM t2").unwrap();
    cursor.next_batch().unwrap();
    session.sql("DROP TABLE t2").unwrap();
    drop(cursor);
    server.reclaim_dropped();
    server.demote_table("t1");
    net.shutdown();
    server.shutdown().unwrap();
    let first = server.report();
    drop((session, reader));
    drop(server);
    let restored = SharkServer::restore_with(config, |table| Some(generator(&table.name))).unwrap();
    let session = restored.session();
    session.sql("SELECT COUNT(*) FROM t1").unwrap();
    session.sql("SELECT COUNT(*) FROM t0").unwrap();
    let second = restored.report();
    drop(session);
    drop(restored);
    let _ = std::fs::remove_dir_all(&dir);
    vec![first, second]
}

/// The number a report's JSON holds under `key` (a flag reads 1 or 0).
fn json_value(json: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\":");
    let at = json
        .find(&pattern)
        .unwrap_or_else(|| panic!("no key {key}"))
        + pattern.len();
    let value: String = json[at..]
        .chars()
        .take_while(|c| *c != ',' && *c != '}')
        .collect();
    match value.as_str() {
        "true" => 1,
        "false" => 0,
        number => number
            .parse()
            .unwrap_or_else(|_| panic!("{key} = {number}")),
    }
}

#[test]
fn json_keeps_its_layout_byte_for_byte() {
    assert_eq!(distinct_report().to_json(), GOLDEN_JSON);
    let keys: Vec<&str> = ServerReport::ROWS.iter().map(|(key, _)| *key).collect();
    let default = ServerReport::default().to_json();
    let mut at = 0;
    for key in keys {
        let found = default[at..].find(&format!("\"{key}\":")).expect(key);
        at += found;
    }
}

#[test]
fn every_family_backed_row_reads_its_family() {
    let _guard = PROCESS_REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let before = shark_obs::metrics().snapshot();
    let reports = workload();
    let after = shark_obs::metrics().snapshot();
    let json: Vec<String> = reports.iter().map(ServerReport::to_json).collect();
    let mut backed = 0;
    for (key, family) in ServerReport::ROWS {
        let Some(family) = family else { continue };
        backed += 1;
        let delta = if after.gauges.contains_key(*family) {
            (after.gauge(family) - before.gauge(family)) as u64
        } else {
            after.counter(family) - before.counter(family)
        };
        let reported: u64 = json.iter().map(|j| json_value(j, key)).sum();
        assert_eq!(reported, delta, "{key} against {family}");
    }
    assert!(backed >= 50, "only {backed} rows are family-backed");
    // The run exercised the interesting rows.
    let [first, second] = [&reports[0], &reports[1]];
    assert!(first.net_frames_sent > 0 && first.net_prepared_statements == 1);
    assert!(first.partitions_demoted > 0 && first.partition_promotions > 0);
    assert!(first.deferred_drops_reclaimed > 0 && first.wal_snapshots_written > 0);
    assert_eq!((first.failed_queries, first.restored), (1, false));
    assert!(second.restored && second.recovery_frames_adopted > 0);
    assert_eq!(first.spill_write_failures + second.spill_write_failures, 0);
}

#[test]
fn the_process_registry_keeps_every_family() {
    let _guard = PROCESS_REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    workload();
    let text = shark_obs::metrics().render_prometheus();
    for (name, kind) in FAMILIES {
        let line = format!("# TYPE {name} {kind}");
        assert!(text.lines().any(|l| l == line), "missing `{line}`");
    }
    for name in DELETED_FAMILIES {
        assert!(!text.contains(name), "`{name}` is back");
    }
    assert!(text.lines().any(|l| l.starts_with("shark_queries_total ")));
}
