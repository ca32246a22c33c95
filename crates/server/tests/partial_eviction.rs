//! End-to-end tests of partition-granular memory management: enforcement
//! evicts individual LRU partitions (roughly the overshoot, never whole
//! tables while warm partitions remain), pinned partitions are spared,
//! scans and streams over a partially evicted table transparently rebuild
//! exactly the missing partitions from lineage with byte-identical results,
//! and a session over its memory quota loses its *own* LRU partitions
//! before anyone else's.

use shark_common::{row, DataType, Schema};
use shark_server::{EvictionEvent, MemstoreManager, ServerConfig, SharkServer};
use shark_sql::TableMeta;

const PARTITIONS: usize = 8;
const ROWS_PER_PARTITION: usize = 50;

fn register_tables(server: &SharkServer, names: &[&str]) {
    for name in names {
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
                            ["alpha", "beta", "gamma"][i % 3],
                            (p * ROWS_PER_PARTITION + i) as f64 * 0.5
                        ]
                    })
                    .collect()
            })
            .with_cache(PARTITIONS)
            .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
        );
    }
}

/// Evict `count` partitions of a table directly through its memtable,
/// simulating earlier budget pressure.
fn evict_some(server: &SharkServer, table: &str, partitions: &[usize]) {
    let mem = server.catalog().get(table).unwrap().cached.clone().unwrap();
    for &p in partitions {
        assert!(mem.evict_partition(p) > 0, "partition {p} was not resident");
    }
}

#[test]
fn partially_evicted_table_returns_byte_identical_results() {
    let server = SharkServer::new(ServerConfig::default());
    register_tables(&server, &["t0"]);
    server.load_table("t0").unwrap();
    let session = server.session();

    let queries = [
        "SELECT k, grp, amount FROM t0",
        "SELECT k, amount FROM t0 WHERE k < 300",
        "SELECT grp, COUNT(*), SUM(amount) FROM t0 GROUP BY grp ORDER BY grp",
        "SELECT k FROM t0 ORDER BY k DESC LIMIT 7",
    ];
    // Reference run with everything resident.
    let resident: Vec<_> = queries
        .iter()
        .map(|q| session.sql(q).unwrap().result.rows)
        .collect();

    let mem = server.catalog().get("t0").unwrap().cached.clone().unwrap();
    for (i, query) in queries.iter().enumerate() {
        // Knock out a cold stripe of partitions before each query.
        evict_some(&server, "t0", &[1, 4, 6]);
        assert_eq!(mem.loaded_partitions(), PARTITIONS - 3);

        let blocking = session.sql(query).unwrap().result.rows;
        assert_eq!(blocking, resident[i], "blocking query: {query}");

        // A top-k reads the partitions its statistics rank first and stops,
        // so it may leave part of the stripe evicted: make the table whole
        // before knocking the stripe out again.
        server.load_table("t0").unwrap();
        evict_some(&server, "t0", &[1, 4, 6]);
        let streamed = session.sql_stream(query).unwrap().fetch_all().unwrap();
        assert_eq!(streamed, resident[i], "streamed query: {query}");
    }
}

#[test]
fn scans_rebuild_only_the_missing_partitions() {
    let server = SharkServer::new(ServerConfig::default());
    register_tables(&server, &["t0"]);
    server.load_table("t0").unwrap();
    let session = server.session();
    let mem = server.catalog().get("t0").unwrap().cached.clone().unwrap();

    evict_some(&server, "t0", &[2, 5]);
    assert_eq!(mem.loaded_partitions(), PARTITIONS - 2);
    let before = mem.rebuilds();
    let reported_before = server.report().partition_rebuilds;

    let result = session.sql("SELECT COUNT(*) FROM t0").unwrap();
    assert_eq!(
        result.result.rows[0].get_int(0).unwrap(),
        (PARTITIONS * ROWS_PER_PARTITION) as i64
    );
    // Exactly the two missing partitions were rebuilt from lineage; the six
    // resident ones were served from the memstore untouched.
    assert_eq!(mem.rebuilds() - before, 2);
    assert_eq!(mem.loaded_partitions(), PARTITIONS);
    // The server counts the same two rebuilds, though the partitions were
    // evicted straight from the memtable rather than by its policy.
    assert_eq!(server.report().partition_rebuilds - reported_before, 2);
    assert_eq!(server.report().partition_rebuilds, mem.rebuilds());
}

#[test]
fn pruning_still_works_over_evicted_partitions_saving_their_rebuilds() {
    // Statistics survive policy evictions, so a selective query over a
    // partially evicted table prunes evicted partitions instead of paying
    // their lineage recompute.
    let server = SharkServer::new(ServerConfig::default());
    register_tables(&server, &["t0"]);
    server.load_table("t0").unwrap();
    let session = server.session();
    let mem = server.catalog().get("t0").unwrap().cached.clone().unwrap();

    // k ranges per partition: p holds [p*50, p*50+49]. Partition 7 holds
    // 350..=399. Evict partitions 6 and 7; query only partition 7's range.
    evict_some(&server, "t0", &[6, 7]);
    let before = mem.rebuilds();
    let result = session
        .sql("SELECT COUNT(*) FROM t0 WHERE k >= 350")
        .unwrap();
    assert_eq!(
        result.result.rows[0].get_int(0).unwrap(),
        ROWS_PER_PARTITION as i64
    );
    // Partition 7 was rebuilt (its rows were needed); partition 6 was
    // pruned by its retained statistics and stayed evicted.
    assert_eq!(mem.rebuilds() - before, 1);
    assert!(!mem.is_loaded(6));
    assert!(mem.is_loaded(7));
}

#[test]
fn enforcement_evicts_roughly_the_overshoot_via_lru_partitions() {
    // Size the working set first.
    let sizing = SharkServer::new(ServerConfig::default());
    register_tables(&sizing, &["t0", "t1"]);
    sizing.load_table("t0").unwrap();
    sizing.load_table("t1").unwrap();
    let full = sizing.catalog().memstore_bytes();
    let per_partition = full / (2 * PARTITIONS as u64);

    // Budget holds everything but ~two partitions.
    let need = per_partition * 2;
    let server = SharkServer::new(ServerConfig::default().with_memory_budget(full - need));
    register_tables(&server, &["t0", "t1"]);
    // t0 is loaded first (colder), t1 second: the overshoot comes out of
    // t0's LRU partitions only.
    server.load_table("t0").unwrap();
    server.load_table("t1").unwrap();

    let report = server.report();
    assert!(report.evictions > 0);
    assert!(
        report.evicted_partitions >= 2 && report.evicted_partitions <= 4,
        "needed ~2 partitions, evicted {}",
        report.evicted_partitions
    );
    assert!(
        report.evicted_bytes >= need && report.evicted_bytes <= need + 2 * per_partition,
        "needed {need} bytes, evicted {}",
        report.evicted_bytes
    );
    assert!(report.partial_evictions > 0, "no partial eviction recorded");
    // Both tables keep most partitions resident — nothing was dumped
    // wholesale.
    for name in ["t0", "t1"] {
        let loaded = server
            .catalog()
            .get(name)
            .unwrap()
            .cached
            .clone()
            .unwrap()
            .loaded_partitions();
        assert!(
            loaded >= PARTITIONS - 4,
            "{name} kept only {loaded}/{PARTITIONS} partitions"
        );
    }
    assert!(server.resident_bytes() <= full - need);
}

#[test]
fn eviction_events_record_the_partitions_that_went() {
    // Manager-level: an enforcement pass needing one partition's worth of
    // bytes evicts exactly the LRU partition and says which one.
    let ctx = shark_rdd::RddContext::local();
    let catalog = std::sync::Arc::new(shark_sql::Catalog::with_context(&ctx));
    let schema = Schema::from_pairs(&[("x", DataType::Int)]);
    catalog.register(
        TableMeta::new("t", schema, 4, |p| {
            (0..100).map(|i| row![(p * 100 + i) as i64]).collect()
        })
        .with_cache(2),
    );
    let table = catalog.get("t").unwrap();
    let mem = table.cached.clone().unwrap();
    for p in 0..4 {
        let rows = (table.base)(p);
        mem.put(
            p,
            std::sync::Arc::new(shark_columnar::ColumnarPartition::from_rows(
                &table.schema,
                &rows,
            )),
        );
    }
    // Touch 0 and 3 so 1 is the coldest after 2.
    mem.touch(1);
    mem.touch(2);
    mem.touch(0);
    mem.touch(3);
    let total = mem.memory_bytes();
    let one = mem.partition_bytes(1);
    let manager = MemstoreManager::new(total - one);
    let events = manager.enforce(&catalog, ctx.cache());
    assert_eq!(events.len(), 1);
    match &events[0] {
        EvictionEvent::Table {
            name,
            partitions,
            bytes,
            whole_table,
        } => {
            assert_eq!(name, "t");
            assert_eq!(partitions, &vec![1], "the LRU partition goes first");
            assert_eq!(*bytes, one);
            assert!(!whole_table);
        }
        other => panic!("unexpected event {other:?}"),
    }
}

#[test]
fn session_over_quota_loses_its_own_partitions_before_others() {
    // Size one table's footprint.
    let sizing = SharkServer::new(ServerConfig::default());
    register_tables(&sizing, &["t0"]);
    sizing.load_table("t0").unwrap();
    let table_bytes = sizing.catalog().memstore_bytes();

    // Quota: 1.5 tables per session. Global budget unlimited.
    let server = SharkServer::new(ServerConfig::default().with_session_quota(table_bytes * 3 / 2));
    register_tables(&server, &["mine_a", "mine_b", "theirs"]);

    let victim = server.session();
    let bystander = server.session();
    // The bystander loads its table first; it must never be touched.
    bystander.load_table("theirs").unwrap();
    assert_eq!(bystander.resident_bytes(), table_bytes);

    // The victim loads two tables — one over its quota: its own LRU
    // partitions (from mine_a, loaded first) are evicted down to quota.
    victim.load_table("mine_a").unwrap();
    victim.load_table("mine_b").unwrap();
    assert!(
        victim.resident_bytes() <= table_bytes * 3 / 2,
        "victim still over quota: {} > {}",
        victim.resident_bytes(),
        table_bytes * 3 / 2
    );

    let catalog = server.catalog();
    let loaded = |name: &str| {
        catalog
            .get(name)
            .unwrap()
            .cached
            .clone()
            .unwrap()
            .loaded_partitions()
    };
    // The bystander's table is fully resident; the victim's freshly loaded
    // table too; the victim's older table paid the quota.
    assert_eq!(loaded("theirs"), PARTITIONS, "bystander must be untouched");
    assert_eq!(loaded("mine_b"), PARTITIONS);
    assert!(loaded("mine_a") < PARTITIONS);

    let report = server.report();
    assert_eq!(report.quota_hits, 1);
    assert!(report.quota_evicted_partitions > 0);
    assert_eq!(report.session_quota_bytes, table_bytes * 3 / 2);

    // A query that reloads the evicted partitions pushes the victim over
    // again: quota enforcement runs on query completion too, and the
    // serving metrics record it.
    let result = victim.sql("SELECT COUNT(*) FROM mine_a").unwrap();
    assert_eq!(
        result.result.rows[0].get_int(0).unwrap(),
        (PARTITIONS * ROWS_PER_PARTITION) as i64
    );
    assert!(
        result.metrics.quota_evictions > 0,
        "quota eviction on completion not recorded: {:?}",
        result.metrics
    );
    assert!(victim.resident_bytes() <= table_bytes * 3 / 2);
    assert!(server.report().quota_hits >= 2);
}

#[test]
fn query_only_tenant_is_charged_for_faulted_in_tables() {
    // A session that never calls load_table still fills the memstore
    // through lazy scan loads; the quota layer must charge and bound it.
    let sizing = SharkServer::new(ServerConfig::default());
    register_tables(&sizing, &["t0"]);
    sizing.load_table("t0").unwrap();
    let table_bytes = sizing.catalog().memstore_bytes();

    let server = SharkServer::new(ServerConfig::default().with_session_quota(table_bytes / 2));
    register_tables(&server, &["t0"]);
    let session = server.session();
    // The scan faults in every partition of t0 (correct results first) —
    // then quota enforcement on completion evicts the session back down.
    let result = session.sql("SELECT COUNT(*) FROM t0").unwrap();
    assert_eq!(
        result.result.rows[0].get_int(0).unwrap(),
        (PARTITIONS * ROWS_PER_PARTITION) as i64
    );
    assert!(
        result.metrics.quota_evictions > 0,
        "fault-in was not charged: {:?}",
        result.metrics
    );
    assert!(
        session.resident_bytes() <= table_bytes / 2,
        "query-only tenant exceeds its quota: {} > {}",
        session.resident_bytes(),
        table_bytes / 2
    );
    assert!(server.report().quota_hits >= 1);

    // The streamed path charges fault-ins too.
    let rows = session
        .sql_stream("SELECT k FROM t0")
        .unwrap()
        .fetch_all()
        .unwrap();
    assert_eq!(rows.len(), PARTITIONS * ROWS_PER_PARTITION);
    assert!(session.resident_bytes() <= table_bytes / 2);
}

#[test]
fn partition_rebuild_counter_survives_drop_table() {
    let server = SharkServer::new(ServerConfig::default());
    register_tables(&server, &["t0", "keeper"]);
    server.load_table("t0").unwrap();
    server.load_table("keeper").unwrap();
    let session = server.session();

    evict_some(&server, "t0", &[0, 1, 2]);
    session.sql("SELECT COUNT(*) FROM t0").unwrap();
    let before_drop = server.report().partition_rebuilds;
    assert_eq!(before_drop, 3);

    // Dropping the table retires its rebuild count instead of losing it:
    // the cumulative metric never decreases.
    session.sql("DROP TABLE t0").unwrap();
    assert_eq!(server.report().partition_rebuilds, before_drop);

    evict_some(&server, "keeper", &[5]);
    session.sql("SELECT COUNT(*) FROM keeper").unwrap();
    assert_eq!(server.report().partition_rebuilds, before_drop + 1);
}

#[test]
fn pinned_partitions_survive_enforcement_server_side() {
    let sizing = SharkServer::new(ServerConfig::default());
    register_tables(&sizing, &["t0"]);
    sizing.load_table("t0").unwrap();
    let table_bytes = sizing.catalog().memstore_bytes();
    let per_partition = table_bytes / PARTITIONS as u64;

    // Budget forces roughly half the table out.
    let server = SharkServer::new(ServerConfig::default().with_memory_budget(table_bytes / 2));
    register_tables(&server, &["t0"]);
    let mem = server.catalog().get("t0").unwrap().cached.clone().unwrap();
    // Load without enforcement by filling the memtable directly, then pin
    // the two coldest partitions before enforcing.
    let table = server.catalog().get("t0").unwrap();
    for p in 0..PARTITIONS {
        let rows = (table.base)(p);
        mem.put(
            p,
            std::sync::Arc::new(shark_columnar::ColumnarPartition::from_rows(
                &table.schema,
                &rows,
            )),
        );
    }
    let manager = MemstoreManager::new(table_bytes / 2);
    manager.pin_partition("t0", 0);
    manager.pin_partition("t0", 1);
    let events = manager.enforce(server.catalog(), server.context().cache());
    assert!(!events.is_empty());
    for event in &events {
        match event {
            EvictionEvent::Table { partitions, .. } => {
                assert!(
                    !partitions.contains(&0) && !partitions.contains(&1),
                    "pinned partitions were evicted: {partitions:?}"
                );
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert!(mem.is_loaded(0), "pinned partition 0 must stay resident");
    assert!(mem.is_loaded(1), "pinned partition 1 must stay resident");
    assert!(mem.memory_bytes() <= table_bytes / 2 + per_partition);
}
