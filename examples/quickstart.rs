//! Quickstart: register a table, cache it in the memstore, run SQL, and feed
//! a query result into a distributed ML algorithm — the unified workflow the
//! Shark paper advocates (§1, §4).
//!
//! Run with: `cargo run --release -p shark-examples --example quickstart`

use shark_common::{row, DataType, Schema};
use shark_core::{RddConfig, SharkConfig, SharkContext, TableMeta};
use shark_ml::LogisticRegression;

fn main() -> shark_common::Result<()> {
    // A small simulated cluster: 8 nodes x 4 cores, Shark engine profile.
    let mut shark = SharkContext::new(SharkConfig {
        rdd: RddConfig {
            cluster: shark_core::ClusterConfig::small(8, 4),
            default_partitions: 16,
            sim_scale: 1.0,
        },
        ..SharkConfig::default()
    });

    // Register a users table backed by a deterministic generator (stands in
    // for files in a warehouse) and cache it in the columnar memstore.
    shark.register_table(
        TableMeta::new(
            "users",
            Schema::from_pairs(&[
                ("uid", DataType::Int),
                ("country", DataType::Str),
                ("age", DataType::Int),
                ("purchases", DataType::Int),
                ("churned", DataType::Bool),
            ]),
            16,
            |p| {
                let countries = ["US", "FR", "JP", "BR"];
                (0..500)
                    .map(|i| {
                        let uid = (p * 500 + i) as i64;
                        let age = 18 + ((uid * 37) % 60);
                        let purchases = (uid * 13) % 40;
                        let churned = purchases < 5;
                        row![uid, countries[(uid % 4) as usize], age, purchases, churned]
                    })
                    .collect()
            },
        )
        .with_cache(8),
    );
    let load = shark.load_table("users")?;
    println!(
        "loaded {} rows into the memstore ({} columnar bytes, {:.2}s simulated)",
        load.rows, load.stored_bytes, load.sim_seconds
    );

    // Plain SQL.
    let result = shark.sql(
        "SELECT country, COUNT(*) AS users, AVG(purchases) AS avg_purchases \
         FROM users WHERE age BETWEEN 21 AND 65 GROUP BY country ORDER BY users DESC",
    )?;
    println!("\n{}", result.schema);
    for r in &result.rows {
        println!("  {}", r.render());
    }
    println!(
        "query took {:.3}s simulated on a {}-node cluster (plan: {})",
        result.sim_seconds,
        shark.config().rdd.cluster.num_nodes,
        result.plan
    );

    // SQL + UDF.
    shark.register_udf("is_senior", |args| {
        shark_common::Value::Bool(args[0].as_int().map(|a| a >= 60).unwrap_or(false))
    });
    let seniors = shark.sql("SELECT COUNT(*) FROM users WHERE is_senior(age)")?;
    println!("\nseniors: {}", seniors.rows[0].get(0));

    // sql2rdd + logistic regression (Listing 1 of the paper): predict churn
    // from age and purchase count.
    let table = shark.sql_to_rdd("SELECT age, purchases, churned FROM users")?;
    let points = table
        .rdd
        .map(|r| {
            let age = r.get_float(0).unwrap_or(0.0) / 100.0;
            let purchases = r.get_float(1).unwrap_or(0.0) / 40.0;
            let label = if r.get(2).is_truthy() { 1.0 } else { -1.0 };
            (vec![age, purchases, 1.0], label)
        })
        .cache();
    let (model, report) = LogisticRegression {
        iterations: 10,
        learning_rate: 1.0,
        seed: 42,
    }
    .train(&points)?;
    let accuracy = LogisticRegression::accuracy(&model, &points)?;
    println!(
        "\nlogistic regression: {} iterations, {:.3}s simulated per iteration, accuracy {:.1}%",
        report.iterations(),
        report.mean_iteration_seconds(),
        accuracy * 100.0
    );
    Ok(())
}
