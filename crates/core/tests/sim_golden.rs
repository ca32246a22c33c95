//! What the one-rule refactor of simulated time must *not* move: the
//! simulated seconds of everything that is a blocking RDD action. The
//! literals below were printed by this very sequence at the commit before
//! the scheduler stopped pricing its own stages (replay happens at
//! `record_job` since), on three clusters: the straggler-free test cluster,
//! the paper's 100-node cluster (stragglers on, seed 42), and the paper
//! cluster with a straggler probability high enough that any change in the
//! *order* of the simulator's RNG draws shows up in the numbers. The table
//! load is the history's first job, and its one stage must cost exactly the
//! `load.sim_seconds` literal.
//!
//! `MODELS` pins what the same pipeline *learns*: the logistic and linear
//! weights, the k-means centers and the two by-reference evaluations,
//! printed before the training loops started folding cached partitions by
//! reference.
//!
//! `cargo test -p shark-core --test sim_golden -- --ignored --nocapture`
//! prints the current values in literal form.

use shark_cluster::ClusterConfig;
use shark_core::datasets::register_ml_points;
use shark_core::{RddConfig, SharkConfig, SharkContext};
use shark_datagen::ml::MlConfig;
use shark_ml::{KMeans, LinearRegression, LogisticRegression};

/// `sql_to_rdd` → cache → logistic regression → k-means → one raw shuffle
/// action, returning every simulated figure the sequence produced, labelled.
fn ml_pipeline_figures(cluster: ClusterConfig) -> Vec<(String, f64)> {
    let shark = SharkContext::new(
        SharkConfig {
            rdd: RddConfig {
                cluster,
                default_partitions: 8,
                sim_scale: 1.0,
            },
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
        .context()
        .parallelize((0i64..4000).collect(), 48)
        .map(|x| (x % 37, x))
        .reduce_by_key(6, |a, b| a + b)
        .collect()
        .unwrap();
    assert_eq!(sums.len(), 37);
    out.push(("simulated_time".to_string(), shark.simulated_time()));
    for (j, job) in shark.context().job_history().iter().enumerate() {
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

/// The models the same `sql_to_rdd` pipeline trains — logistic and linear
/// weights, k-means centers, then the logistic accuracy and linear MSE — as
/// one flat, labelled list. Models do not depend on the simulated cluster,
/// so the test cluster is enough.
fn trained_models() -> Vec<(String, f64)> {
    let shark = SharkContext::local();
    let cfg = MlConfig::tiny();
    register_ml_points(&shark, &cfg, 50, true).unwrap();
    shark.load_table("points").unwrap();
    let dims = cfg.dims;
    let labeled = shark
        .sql_to_rdd("SELECT * FROM points")
        .unwrap()
        .rdd
        .map(move |row| {
            let label = row.get_float(0).unwrap_or(0.0);
            let features: Vec<f64> = (1..=dims)
                .map(|i| row.get_float(i).unwrap_or(0.0))
                .collect();
            (features, label)
        })
        .cache();
    let (logistic, _) = LogisticRegression {
        iterations: 3,
        ..LogisticRegression::default()
    }
    .train(&labeled)
    .unwrap();
    let (linear, _) = LinearRegression {
        iterations: 3,
        ..LinearRegression::default()
    }
    .train(&labeled)
    .unwrap();
    let features = labeled.map(|(f, _)| f).cache();
    let (kmeans, _) = KMeans {
        k: 3,
        iterations: 3,
        reduce_partitions: 4,
    }
    .train(&features)
    .unwrap();
    let mut out = Vec::new();
    let mut push = |name: &str, values: &[f64]| {
        for (i, v) in values.iter().enumerate() {
            out.push((format!("{name}[{i}]"), *v));
        }
    };
    push("logistic", &logistic.weights);
    push("linear", &linear.weights);
    for (c, center) in kmeans.centers.iter().enumerate() {
        push(&format!("kmeans.center[{c}]"), center);
    }
    push(
        "logistic.accuracy",
        &[LogisticRegression::accuracy(&logistic, &labeled).unwrap()],
    );
    push(
        "linear.mse",
        &[LinearRegression::mse(&linear, &labeled).unwrap()],
    );
    out
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
    println!("const MODELS: Golden = &[");
    for (label, value) in trained_models() {
        println!("    ({label:?}, {value:?}),");
    }
    println!("];");
}

#[test]
fn blocking_rdd_figures_are_bit_identical_on_every_cluster() {
    for (name, cluster, golden) in clusters() {
        check(name, cluster, golden);
    }
}

/// Rewriting how the training loops fold (by reference, in place) must not
/// move a single bit of what they learn: same float operations, same order.
#[test]
fn trained_models_are_bit_identical() {
    let got: Vec<(String, u64)> = trained_models()
        .into_iter()
        .map(|(l, v)| (l, v.to_bits()))
        .collect();
    let want: Vec<(String, u64)> = MODELS
        .iter()
        .map(|(l, v)| (l.to_string(), v.to_bits()))
        .collect();
    assert_eq!(got, want);
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
    ("job[0] load(points) / load", 4.8790000000000004),
    ("job[1] count / result", 0.6649999999999983),
    ("job[2] collect / result", 0.6851599999999998),
    ("job[3] count / result", 0.43819999999999837),
    ("job[4] reduce / result", 0.5273799999999982),
    ("job[5] reduce / result", 0.5273799999999982),
    ("job[6] reduce / result", 0.5273800000000008),
    ("job[7] collect / result", 0.7243600000000079),
    (
        "job[8] collect / shuffle-map-combine(0)",
        0.5947200000000041,
    ),
    ("job[8] collect / result", 0.1641200000000005),
    (
        "job[9] collect / shuffle-map-combine(1)",
        0.5947200000000041,
    ),
    ("job[9] collect / result", 0.1641200000000005),
    (
        "job[10] collect / shuffle-map-combine(2)",
        0.5947200000000041,
    ),
    ("job[10] collect / result", 0.1641200000000005),
    (
        "job[11] collect / shuffle-map-combine(3)",
        0.8655200000000018,
    ),
    ("job[11] collect / result", 0.7062000000000008),
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
    ("job[0] load(points) / load", 0.6970000000000001),
    ("job[1] count / result", 0.09499999999999997),
    ("job[2] collect / result", 0.09787999999999997),
    ("job[3] count / result", 0.06259999999999999),
    ("job[4] reduce / result", 0.07533999999999996),
    ("job[5] reduce / result", 0.07533999999999996),
    ("job[6] reduce / result", 0.07533999999999996),
    ("job[7] collect / result", 0.1034799999999998),
    (
        "job[8] collect / shuffle-map-combine(0)",
        0.08495999999999992,
    ),
    ("job[8] collect / result", 0.16411999999999982),
    (
        "job[9] collect / shuffle-map-combine(1)",
        0.08495999999999992,
    ),
    ("job[9] collect / result", 0.16411999999999982),
    (
        "job[10] collect / shuffle-map-combine(2)",
        0.08495999999999992,
    ),
    ("job[10] collect / result", 0.16412000000000004),
    (
        "job[11] collect / shuffle-map-combine(3)",
        0.1453199999999999,
    ),
    ("job[11] collect / result", 0.7061999999999999),
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
    ("job[0] load(points) / load", 1.7399999999999998),
    ("job[1] count / result", 0.23499999999999988),
    ("job[2] collect / result", 0.24219999999999997),
    ("job[3] count / result", 0.15399999999999991),
    ("job[4] reduce / result", 0.18584999999999985),
    ("job[5] reduce / result", 0.18584999999999985),
    ("job[6] reduce / result", 0.18584999999999985),
    ("job[7] collect / result", 0.25619999999999976),
    (
        "job[8] collect / shuffle-map-combine(0)",
        0.20989999999999975,
    ),
    ("job[8] collect / result", 0.40779999999999994),
    (
        "job[9] collect / shuffle-map-combine(1)",
        0.20989999999999975,
    ),
    ("job[9] collect / result", 0.1641199999999996),
    (
        "job[10] collect / shuffle-map-combine(2)",
        0.2099000000000002,
    ),
    ("job[10] collect / result", 0.1641199999999996),
    (
        "job[11] collect / shuffle-map-combine(3)",
        0.3583999999999996,
    ),
    ("job[11] collect / result", 0.7061999999999999),
];

const MODELS: Golden = &[
    ("logistic[0]", -0.33137213083258993),
    ("logistic[1]", 0.19635682078652297),
    ("logistic[2]", 0.7369899705049552),
    ("logistic[3]", 1.1906119596102975),
    ("linear[0]", 0.17815124357226048),
    ("linear[1]", 0.17752428779841822),
    ("linear[2]", 0.1781809310692283),
    ("linear[3]", 0.18236696307334105),
    ("kmeans.center[0][0]", 0.8000093505340652),
    ("kmeans.center[0][1]", 0.7917729147100893),
    ("kmeans.center[0][2]", 0.8078101583834472),
    ("kmeans.center[0][3]", 0.8443915922260781),
    ("kmeans.center[1][0]", -0.042067796606156456),
    ("kmeans.center[1][1]", -0.2762513939965622),
    ("kmeans.center[1][2]", -0.3900112972349137),
    ("kmeans.center[1][3]", -0.5976842481935185),
    ("kmeans.center[2][0]", -0.9555666185122613),
    ("kmeans.center[2][1]", -0.9114123440306992),
    ("kmeans.center[2][2]", -0.8398569874389606),
    ("kmeans.center[2][3]", -0.79079889519938),
    ("logistic.accuracy[0]", 0.954),
    ("linear.mse[0]", 0.23252883443922415),
];
