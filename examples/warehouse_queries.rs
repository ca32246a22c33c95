//! The "real Hive warehouse" workload (§6.4, Figure 10): four analytical
//! queries over a clustered video-session fact table, showing map pruning
//! and sub-second (simulated) latencies on the Shark engine.
//!
//! Run with: `cargo run --release -p shark-examples --example warehouse_queries`

use shark_core::datasets::register_warehouse;
use shark_core::{RddConfig, SharkConfig, SharkContext};
use shark_datagen::warehouse::WarehouseConfig;

fn queries() -> Vec<(&'static str, String)> {
    vec![
        (
            "Q1: per-customer daily summary (12 metrics in the paper)",
            "SELECT customer_id, COUNT(*), AVG(buffering_ms), AVG(startup_ms), AVG(bitrate_kbps), \
             SUM(play_seconds), SUM(errors) \
             FROM sessions WHERE day = 15003 AND customer_id = 7 GROUP BY customer_id"
                .to_string(),
        ),
        (
            "Q2: sessions and distinct customers by country (filtered)",
            "SELECT country, COUNT(*), COUNT(DISTINCT customer_id) FROM sessions \
             WHERE is_live = false AND errors = 0 AND rebuffer_count <= 10 AND play_seconds > 60 \
             GROUP BY country"
                .to_string(),
        ),
        (
            "Q3: sessions and users outside two countries",
            "SELECT country, COUNT(*), COUNT(DISTINCT customer_id) FROM sessions \
             WHERE country NOT IN ('US', 'CA') GROUP BY country"
                .to_string(),
        ),
        (
            "Q4: top devices by quality score",
            "SELECT device, COUNT(*), AVG(quality_score), AVG(bitrate_kbps) FROM sessions \
             GROUP BY device ORDER BY 3 DESC LIMIT 10"
                .to_string(),
        ),
    ]
}

fn main() -> shark_common::Result<()> {
    let shark = SharkContext::new(SharkConfig {
        rdd: RddConfig {
            cluster: shark_core::ClusterConfig::paper_shark_cluster(),
            default_partitions: 240,
            // 1.7 TB / 30 days of data scaled down to the in-process generator.
            sim_scale: 30_000.0,
        },
        ..SharkConfig::default()
    });
    register_warehouse(&shark, &WarehouseConfig::default(), true)?;
    let load = shark.load_table("sessions")?;
    println!(
        "loaded sessions fact table: {} rows, {} columnar bytes, {:.1}s simulated\n",
        load.rows, load.stored_bytes, load.sim_seconds
    );

    for (name, sql) in queries() {
        shark.context().reset_simulation();
        let r = shark.sql(&sql)?;
        println!("{name}");
        println!(
            "  {:.3}s simulated, {} result rows",
            r.sim_seconds,
            r.rows.len()
        );
        for note in r.notes.iter().filter(|n| n.contains("pruning")) {
            println!("  {note}");
        }
        for row in r.rows.iter().take(3) {
            println!("    {}", row.render());
        }
        println!();
    }
    println!(
        "Q1 touches a single (day, customer) slice, so map pruning removes most\n\
         partitions — the effect behind the paper's ~30x scan reduction (§3.5)."
    );
    Ok(())
}
