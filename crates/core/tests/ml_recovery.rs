//! §4.3: an iterative algorithm that loses a cached feature partition
//! between two iterations pays a recomputation, never its model.
//!
//! `sql_to_rdd` → a feature map that counts its runs per partition →
//! `.cache()` → train, with a node killed just before iteration
//! [`FAIL_BEFORE_ITERATION`]. The model must be bit-identical to a
//! failure-free run on a fresh context; the feature map must re-run exactly
//! once per lost partition, rebuilt through the SQL scan's lineage (the
//! memtable rebuilds exactly the table partitions the node held); and the
//! recovered partitions are cached again, so later iterations never miss.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use shark_common::Row;
use shark_core::datasets::register_ml_points;
use shark_core::SharkContext;
use shark_datagen::ml::MlConfig;
use shark_ml::{KMeans, LogisticRegression};
use shark_rdd::{Data, Rdd};

const PARTITIONS: usize = 8;
const ITERATIONS: usize = 5;
const FAIL_BEFORE_ITERATION: usize = 2;
const NODE: usize = 1;
const DIMS: usize = 4;

/// A cached feature RDD over the `points` table and its map's run counts.
struct Features<T: Data> {
    shark: SharkContext,
    rdd: Rdd<T>,
    runs: Arc<Vec<AtomicUsize>>,
}

fn features<T: Data>(extract: fn(&Row) -> T) -> Features<T> {
    let shark = SharkContext::local();
    let cfg = MlConfig::tiny();
    assert_eq!(cfg.dims, DIMS);
    register_ml_points(&shark, &cfg, PARTITIONS, true).unwrap();
    shark.load_table("points").unwrap();
    let runs: Arc<Vec<AtomicUsize>> =
        Arc::new((0..PARTITIONS).map(|_| AtomicUsize::new(0)).collect());
    let counter = runs.clone();
    let rdd = shark
        .sql_to_rdd("SELECT * FROM points")
        .unwrap()
        .rdd
        .map_partitions_with_index(move |p, rows| {
            counter[p].fetch_add(1, Ordering::SeqCst);
            rows.iter().map(extract).collect()
        })
        .cache();
    Features { shark, rdd, runs }
}

fn features_of(row: &Row) -> Vec<f64> {
    (1..=DIMS).map(|i| row.get_float(i).unwrap()).collect()
}

fn labeled(row: &Row) -> (Vec<f64>, f64) {
    (features_of(row), row.get_float(0).unwrap())
}

/// `f.rdd` as a trainer sees it when node [`NODE`] dies just before the
/// trainer's `job`-th job (counting from 0) starts: every job computes
/// partition 0 first, since tasks run in partition order. Also returns the
/// number of table partitions the failure lost, once it has happened.
fn failing_before_job<T: Data>(f: &Features<T>, job: usize) -> (Rdd<T>, Arc<AtomicUsize>) {
    let shark = SharkContext::with_shared(
        f.shark.config().clone(),
        f.shark.rdd_context().clone(),
        f.shark.catalog().clone(),
    );
    let started = AtomicUsize::new(0);
    let lost = Arc::new(AtomicUsize::new(0));
    let lost_out = lost.clone();
    let rdd = f.rdd.map_partitions_with_index(move |p, part| {
        if p == 0 && started.fetch_add(1, Ordering::SeqCst) == job {
            lost.store(shark.fail_node(NODE), Ordering::SeqCst);
        }
        part
    });
    (rdd, lost_out)
}

/// Exactly the lost partitions were rebuilt — once, through the SQL scan —
/// and everything is cached again.
fn assert_recovered<T: Data>(f: &Features<T>, lost_table_partitions: usize) {
    let nodes = f.shark.config().rdd.cluster.num_nodes;
    let lost: Vec<usize> = (0..PARTITIONS).filter(|p| p % nodes == NODE).collect();
    assert!(!lost.is_empty());
    assert_eq!(lost_table_partitions, lost.len(), "table partitions lost");
    let memtable = f.shark.catalog().get("points").unwrap();
    let rebuilds = memtable.cached.as_ref().unwrap().rebuilds();
    assert_eq!(rebuilds, lost.len() as u64, "memtable rebuilds");
    let runs: Vec<usize> = f.runs.iter().map(|r| r.load(Ordering::SeqCst)).collect();
    let expected: Vec<usize> = (0..PARTITIONS)
        .map(|p| 1 + usize::from(lost.contains(&p)))
        .collect();
    assert_eq!(runs, expected, "feature map runs per partition");
    let cache = f.shark.rdd_context().cache();
    assert_eq!(cache.cached_partitions(f.rdd.id()), PARTITIONS);
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn logistic_regression_survives_losing_a_feature_partition_between_iterations() {
    let train = |points: &Rdd<(Vec<f64>, f64)>| {
        LogisticRegression {
            iterations: ITERATIONS,
            ..LogisticRegression::default()
        }
        .train(points)
        .unwrap()
        .0
    };
    let healthy = train(&features(labeled).rdd);

    let f = features(labeled);
    // `train` runs `first` and `count`, then one job per iteration.
    let (points, lost) = failing_before_job(&f, 2 + FAIL_BEFORE_ITERATION);
    let model = train(&points);
    assert_eq!(bits(&model.weights), bits(&healthy.weights));
    assert_recovered(&f, lost.load(Ordering::SeqCst));
}

#[test]
fn kmeans_survives_losing_a_feature_partition_between_iterations() {
    let km = KMeans {
        k: 3,
        iterations: ITERATIONS,
        reduce_partitions: 4,
    };
    let healthy = km.train(&features(features_of).rdd).unwrap().0;

    let f = features(features_of);
    // `train` runs `take`, then one job per iteration.
    let (points, lost) = failing_before_job(&f, 1 + FAIL_BEFORE_ITERATION);
    let model = km.train(&points).unwrap().0;
    assert_eq!(model.centers.len(), healthy.centers.len());
    for (got, want) in model.centers.iter().zip(&healthy.centers) {
        assert_eq!(bits(got), bits(want));
    }
    assert_recovered(&f, lost.load(Ordering::SeqCst));
}
