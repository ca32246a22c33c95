//! What the one-rule refactor of simulated time must *not* move: the
//! simulated seconds of everything that is a blocking RDD action. The
//! literals below were printed by this very sequence at the commit before
//! the scheduler stopped pricing its own stages (replay happens at
//! `record_job` since), on three clusters: the straggler-free test cluster,
//! the paper's 100-node cluster (stragglers on, seed 42), and the paper
//! cluster with a straggler probability high enough that any change in the
//! *order* of the simulator's RNG draws shows up in the numbers.
//!
//! `cargo test -p shark-core --test sim_golden -- --ignored --nocapture`
//! prints the current values in literal form.

use shark_cluster::ClusterConfig;
use shark_core::datasets::register_ml_points;
use shark_core::{SharkConfig, SharkContext};
use shark_datagen::ml::MlConfig;
use shark_ml::{KMeans, LogisticRegression};

/// `sql_to_rdd` → cache → logistic regression → k-means → one raw shuffle
/// action, returning every simulated figure the sequence produced, labelled.
fn ml_pipeline_figures(cluster: ClusterConfig) -> Vec<(String, f64)> {
    let shark = SharkContext::new(
        SharkConfig {
            cluster,
            default_partitions: 8,
            ..SharkConfig::default()
        }
        .with_sim_scale(20_000.0),
    );
    let cfg = MlConfig::tiny();
    register_ml_points(&shark, &cfg, 50, true).unwrap();
    let mut out = Vec::new();
    let load = shark.load_table("points").unwrap();
    out.push(("load.sim_seconds".to_string(), load.sim_seconds));

    let dims = cfg.dims;
    let table = shark.sql_to_rdd("SELECT * FROM points").unwrap();
    let labeled = table
        .rdd
        .map(move |row| {
            let label = row.get_float(0).unwrap_or(0.0);
            let features: Vec<f64> = (1..=dims)
                .map(|i| row.get_float(i).unwrap_or(0.0))
                .collect();
            (features, label)
        })
        .cache();
    assert_eq!(labeled.count().unwrap(), cfg.rows as u64);
    let (_, lr) = LogisticRegression {
        iterations: 3,
        ..LogisticRegression::default()
    }
    .train(&labeled)
    .unwrap();
    for (i, s) in lr.iteration_seconds.iter().enumerate() {
        out.push((format!("logistic.iteration[{i}]"), *s));
    }
    let features = labeled.map(|(f, _)| f).cache();
    let (_, km) = KMeans {
        k: 3,
        iterations: 3,
        reduce_partitions: 4,
    }
    .train(&features)
    .unwrap();
    for (i, s) in km.iteration_seconds.iter().enumerate() {
        out.push((format!("kmeans.iteration[{i}]"), *s));
    }
    let sums = shark
        .parallelize((0i64..4000).collect(), 48)
        .map(|x| (x % 37, x))
        .reduce_by_key(6, |a, b| a + b)
        .collect()
        .unwrap();
    assert_eq!(sums.len(), 37);
    out.push(("simulated_time".to_string(), shark.simulated_time()));
    for (j, job) in shark.job_history().iter().enumerate() {
        for stage in &job.stages {
            out.push((
                format!("job[{j}] {} / {}", job.name, stage.name),
                stage.sim_duration,
            ));
        }
    }
    out
}

fn check(name: &str, cluster: ClusterConfig, golden: Golden) {
    let figures = ml_pipeline_figures(cluster);
    let got: Vec<(&str, u64)> = figures
        .iter()
        .map(|(l, v)| (l.as_str(), v.to_bits()))
        .collect();
    let want: Vec<(&str, u64)> = golden.iter().map(|(l, v)| (*l, v.to_bits())).collect();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g,
            w,
            "{name}: {} is {:?}, was {:?}",
            g.0,
            f64::from_bits(g.1),
            f64::from_bits(w.1)
        );
    }
    assert_eq!(got.len(), want.len(), "{name}: number of figures");
}

type Golden = &'static [(&'static str, f64)];

fn clusters() -> [(&'static str, ClusterConfig, Golden); 3] {
    let mut stragglers = ClusterConfig::paper_shark_cluster();
    stragglers.straggler_probability = 0.25;
    [
        ("SMALL", ClusterConfig::small(4, 2), SMALL),
        ("PAPER", ClusterConfig::paper_shark_cluster(), PAPER),
        ("STRAGGLERS", stragglers, STRAGGLERS),
    ]
}

#[test]
#[ignore = "prints the literals below; not a check"]
fn print_current_figures() {
    for (name, cluster, _) in clusters() {
        println!("const {name}: Golden = &[");
        for (label, value) in ml_pipeline_figures(cluster) {
            println!("    ({label:?}, {value:?}),");
        }
        println!("];");
    }
}

#[test]
fn blocking_rdd_figures_are_bit_identical_on_every_cluster() {
    for (name, cluster, golden) in clusters() {
        check(name, cluster, golden);
    }
}

const SMALL: Golden = &[
    ("load.sim_seconds", 4.8790000000000004),
    ("logistic.iteration[0]", 0.5273799999999982),
    ("logistic.iteration[1]", 0.5273799999999982),
    ("logistic.iteration[2]", 0.5273800000000008),
    ("kmeans.iteration[0]", 0.7588400000000046),
    ("kmeans.iteration[1]", 0.7588400000000046),
    ("kmeans.iteration[2]", 0.7588400000000046),
    ("simulated_time", 12.822100000000018),
    ("job[0] count / result", 0.6649999999999983),
    ("job[1] collect / result", 0.6851599999999998),
    ("job[2] count / result", 0.43819999999999837),
    ("job[3] reduce / result", 0.5273799999999982),
    ("job[4] reduce / result", 0.5273799999999982),
    ("job[5] reduce / result", 0.5273800000000008),
    ("job[6] collect / result", 0.7243600000000079),
    (
        "job[7] collect / shuffle-map-combine(0)",
        0.5947200000000041,
    ),
    ("job[7] collect / result", 0.1641200000000005),
    (
        "job[8] collect / shuffle-map-combine(1)",
        0.5947200000000041,
    ),
    ("job[8] collect / result", 0.1641200000000005),
    (
        "job[9] collect / shuffle-map-combine(2)",
        0.5947200000000041,
    ),
    ("job[9] collect / result", 0.1641200000000005),
    (
        "job[10] collect / shuffle-map-combine(3)",
        0.8655200000000018,
    ),
    ("job[10] collect / result", 0.7062000000000008),
];

const PAPER: Golden = &[
    ("load.sim_seconds", 0.6970000000000001),
    ("logistic.iteration[0]", 0.07533999999999996),
    ("logistic.iteration[1]", 0.07533999999999996),
    ("logistic.iteration[2]", 0.07533999999999996),
    ("kmeans.iteration[0]", 0.24907999999999975),
    ("kmeans.iteration[1]", 0.24907999999999975),
    ("kmeans.iteration[2]", 0.24907999999999997),
    ("simulated_time", 2.880739999999999),
    ("job[0] count / result", 0.09499999999999997),
    ("job[1] collect / result", 0.09787999999999997),
    ("job[2] count / result", 0.06259999999999999),
    ("job[3] reduce / result", 0.07533999999999996),
    ("job[4] reduce / result", 0.07533999999999996),
    ("job[5] reduce / result", 0.07533999999999996),
    ("job[6] collect / result", 0.1034799999999998),
    (
        "job[7] collect / shuffle-map-combine(0)",
        0.08495999999999992,
    ),
    ("job[7] collect / result", 0.16411999999999982),
    (
        "job[8] collect / shuffle-map-combine(1)",
        0.08495999999999992,
    ),
    ("job[8] collect / result", 0.16411999999999982),
    (
        "job[9] collect / shuffle-map-combine(2)",
        0.08495999999999992,
    ),
    ("job[9] collect / result", 0.16412000000000004),
    (
        "job[10] collect / shuffle-map-combine(3)",
        0.1453199999999999,
    ),
    ("job[10] collect / result", 0.7061999999999999),
];

const STRAGGLERS: Golden = &[
    ("load.sim_seconds", 1.7399999999999998),
    ("logistic.iteration[0]", 0.18584999999999985),
    ("logistic.iteration[1]", 0.18584999999999985),
    ("logistic.iteration[2]", 0.18584999999999985),
    ("kmeans.iteration[0]", 0.6176999999999997),
    ("kmeans.iteration[1]", 0.37401999999999935),
    ("kmeans.iteration[2]", 0.3740199999999998),
    ("simulated_time", 5.615289999999997),
    ("job[0] count / result", 0.23499999999999988),
    ("job[1] collect / result", 0.24219999999999997),
    ("job[2] count / result", 0.15399999999999991),
    ("job[3] reduce / result", 0.18584999999999985),
    ("job[4] reduce / result", 0.18584999999999985),
    ("job[5] reduce / result", 0.18584999999999985),
    ("job[6] collect / result", 0.25619999999999976),
    (
        "job[7] collect / shuffle-map-combine(0)",
        0.20989999999999975,
    ),
    ("job[7] collect / result", 0.40779999999999994),
    (
        "job[8] collect / shuffle-map-combine(1)",
        0.20989999999999975,
    ),
    ("job[8] collect / result", 0.1641199999999996),
    (
        "job[9] collect / shuffle-map-combine(2)",
        0.2099000000000002,
    ),
    ("job[9] collect / result", 0.1641199999999996),
    (
        "job[10] collect / shuffle-map-combine(3)",
        0.3583999999999996,
    ),
    ("job[10] collect / result", 0.7061999999999999),
];
