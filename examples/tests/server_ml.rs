//! `sql2rdd` on a served session (§4.1): an ML program whose input is a
//! query over the server's cached tables runs under the same admission,
//! pins and memory budget as every other statement, and learns exactly
//! what it learns on an in-process `SharkContext`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use shark_core::datasets::register_ml_points;
use shark_core::SharkContext;
use shark_datagen::ml::{points_schema, points_table_partition, MlConfig};
use shark_ml::LogisticRegression;
use shark_rdd::{BlockId, Rdd};
use shark_server::{ServerConfig, SharkServer};
use shark_sql::{TableMeta, TableRdd};

const PARTITIONS: usize = 8;
const ITERATIONS: usize = 5;
const SELECT: &str = "SELECT * FROM points";

type Points = Rdd<(Vec<f64>, f64)>;
/// One counter per partition.
type Counts = Arc<Vec<AtomicUsize>>;

fn counts() -> Counts {
    Arc::new((0..PARTITIONS).map(|_| AtomicUsize::new(0)).collect())
}

/// Labeled points extracted from `table`, cached, with the feature map's
/// runs counted per partition.
fn features(table: &TableRdd) -> (Points, Counts) {
    let runs = counts();
    let counter = runs.clone();
    let rdd = table
        .rdd
        .map_partitions_with_index(move |p, rows| {
            counter[p].fetch_add(1, Ordering::SeqCst);
            rows.iter()
                .map(|row| {
                    let x = (1..row.len()).map(|i| row.get_float(i).unwrap()).collect();
                    (x, row.get_float(0).unwrap())
                })
                .collect()
        })
        .cache();
    (rdd, runs)
}

fn train(points: &Points) -> Vec<u64> {
    let (model, _) = LogisticRegression {
        iterations: ITERATIONS,
        ..LogisticRegression::default()
    }
    .train(points)
    .unwrap();
    model.weights.iter().map(|w| w.to_bits()).collect()
}

/// The weights the pipeline learns on an in-process context.
fn in_process_weights() -> Vec<u64> {
    let shark = SharkContext::local();
    register_ml_points(&shark, &MlConfig::tiny(), PARTITIONS, true).unwrap();
    shark.load_table("points").unwrap();
    train(&features(&shark.sql_to_rdd(SELECT).unwrap()).0)
}

/// A server with the same `points` table loaded into its memstore.
fn points_server(config: ServerConfig) -> SharkServer {
    let server = SharkServer::new(config);
    let cfg = MlConfig::tiny();
    let nodes = server.context().config().cluster.num_nodes;
    server.register_table(
        TableMeta::new("points", points_schema(cfg.dims), PARTITIONS, move |p| {
            points_table_partition(&cfg, PARTITIONS, p)
        })
        .with_cache(nodes),
    );
    server.load_table("points").unwrap();
    server
}

#[test]
fn a_leased_pipeline_learns_what_the_in_process_one_does_and_settles_on_drop() {
    let reference = in_process_weights();
    let server = points_server(ServerConfig::default());
    let session = server.session();

    let lease = session.sql_to_rdd(SELECT).unwrap();
    let (points, _) = features(&lease);
    assert_eq!(train(&points), reference);
    assert_eq!(server.running_queries(), 1);
    assert_eq!(server.pinned_tables(), vec!["points".to_string()]);

    drop(lease);
    assert_eq!(server.running_queries(), 0);
    assert!(server.pinned_tables().is_empty());
    assert_eq!(server.report().live_snapshots, 0);
    let log = server.query_log();
    assert_eq!(log.len(), 1, "{log:?}");
    assert_eq!(log[0].statement, SELECT);
    assert!(!log[0].failed);
    // The feature cache outlives the statement: the program still owns it.
    assert_eq!(train(&points), reference);
}

#[test]
fn under_a_tight_budget_evicted_feature_partitions_are_rebuilt_one_by_one() {
    let reference = in_process_weights();
    // Size the table and the feature cache with no budget.
    let (table_bytes, feature_bytes) = {
        let server = points_server(ServerConfig::default());
        let session = server.session();
        let lease = session.sql_to_rdd(SELECT).unwrap();
        features(&lease).0.count().unwrap();
        let cache = server.context().cache();
        (server.catalog().memstore_bytes(), cache.rdd_totals().bytes)
    };
    assert!(table_bytes > 0 && feature_bytes > 0);
    let server =
        points_server(ServerConfig::default().with_memory_budget(table_bytes + feature_bytes / 2));
    let session = server.session();
    let lease = session.sql_to_rdd(SELECT).unwrap();
    let (cached, runs) = features(&lease);

    // Before every job after `first` and `count` — between iterations — a
    // statement on a second session settles and enforces the budget. The
    // lease pins `points`, so only feature partitions can go.
    let other = Mutex::new(server.session());
    let store = server.context().cache().clone();
    let id = cached.id();
    let resident = move || -> Vec<bool> {
        (0..PARTITIONS)
            .map(|partition| store.contains(BlockId::Rdd { rdd: id, partition }))
            .collect()
    };
    let evictions = counts();
    let counted = evictions.clone();
    let jobs = AtomicUsize::new(0);
    let points = cached.map_partitions_with_index(move |p, part| {
        if p == 0 && jobs.fetch_add(1, Ordering::SeqCst) >= 2 {
            let before = resident();
            let answer = other.lock().unwrap().sql("SELECT COUNT(*) FROM points");
            assert_eq!(answer.unwrap().result.rows.len(), 1);
            let after = resident();
            let gone: Vec<usize> = (0..PARTITIONS)
                .filter(|&q| before[q] && !after[q])
                .collect();
            assert!(gone.len() < PARTITIONS, "the whole feature RDD went");
            for q in gone {
                counted[q].fetch_add(1, Ordering::SeqCst);
            }
        }
        part
    });

    assert_eq!(train(&points), reference);
    let evicted: Vec<usize> = evictions.iter().map(|e| e.load(Ordering::SeqCst)).collect();
    assert!(
        evicted.iter().sum::<usize>() > 0,
        "the budget evicted nothing"
    );
    let rebuilt: Vec<usize> = runs.iter().map(|r| r.load(Ordering::SeqCst) - 1).collect();
    assert_eq!(rebuilt, evicted, "feature rebuilds per partition");
    drop(lease);
    assert!(server.pinned_tables().is_empty());
}
