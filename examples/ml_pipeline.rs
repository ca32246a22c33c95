//! The SQL → feature extraction → iterative ML pipeline of Listing 1 /
//! §6.5: select data with SQL, extract features with a row-level map, then
//! run logistic regression and k-means on the cached feature RDD.
//!
//! Run with: `cargo run --release -p shark-examples --example ml_pipeline`

use shark_core::datasets::register_ml_points;
use shark_core::{RddConfig, SharkConfig, SharkContext};
use shark_datagen::ml::MlConfig;
use shark_ml::{KMeans, LogisticRegression};

fn main() -> shark_common::Result<()> {
    let shark = SharkContext::new(SharkConfig {
        rdd: RddConfig {
            cluster: shark_core::ClusterConfig::small(16, 4),
            default_partitions: 32,
            sim_scale: 10_000.0, // each in-process point stands for 10k points
        },
        ..SharkConfig::default()
    });
    let ml_cfg = MlConfig {
        rows: 40_000,
        dims: 10,
        clusters: 10,
        seed: 99,
    };
    register_ml_points(&shark, &ml_cfg, 32, true)?;
    shark.load_table("points")?;

    // Step 1 + 2: select the data of interest with SQL and extract features.
    let table = shark.sql_to_rdd("SELECT * FROM points WHERE f0 IS NOT NULL")?;
    println!("feature table schema: {}", table.schema);
    let dims = ml_cfg.dims;
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

    // Step 3a: logistic regression (10 iterations, as in the paper).
    let (model, lr_report) = LogisticRegression::default().train(&labeled)?;
    let accuracy = LogisticRegression::accuracy(&model, &labeled)?;
    println!(
        "logistic regression: {:.3}s simulated per iteration, accuracy {:.1}%",
        lr_report.mean_iteration_seconds(),
        accuracy * 100.0
    );

    // Step 3b: k-means over the same cached features.
    let features_only = labeled.map(|(f, _)| f).cache();
    let (kmodel, km_report) = KMeans {
        k: 10,
        iterations: 10,
        reduce_partitions: 16,
    }
    .train(&features_only)?;
    println!(
        "k-means: {:.3}s simulated per iteration, {} centers",
        km_report.mean_iteration_seconds(),
        kmodel.centers.len()
    );

    // The whole pipeline shares one lineage graph: failures anywhere are
    // recoverable, and the per-iteration cost stays flat because the feature
    // RDD is cached (contrast with Hadoop re-reading HDFS every iteration).
    println!(
        "total simulated time for the full pipeline: {:.2}s",
        shark.simulated_time()
    );
    Ok(())
}
