//! The Pavlo et al. benchmark queries (§6.2, Figures 5 and 6) run against
//! both the Shark and Hive emulations, printing simulated runtimes.
//!
//! Run with: `cargo run --release -p shark-examples --example pavlo_benchmark`

use shark_core::datasets::register_pavlo;
use shark_core::{ExecConfig, SharkConfig, SharkContext};
use shark_datagen::pavlo::PavloConfig;

/// The three Pavlo queries (scaled dates for our generator).
const SELECTION: &str = "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 300";
const AGG_FINE: &str = "SELECT sourceIP, SUM(adRevenue) FROM uservisits GROUP BY sourceIP";
const AGG_COARSE: &str =
    "SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 7)";
const JOIN: &str = "SELECT sourceIP, AVG(pageRank), SUM(adRevenue) AS totalRevenue \
     FROM rankings R, uservisits UV \
     WHERE R.pageURL = UV.destURL AND UV.visitDate BETWEEN 10971 AND 10978 \
     GROUP BY UV.sourceIP";

fn run(label: &str, config: SharkConfig, cached: bool) -> shark_common::Result<()> {
    let shark = SharkContext::new(config);
    let cfg = PavloConfig::default();
    register_pavlo(&shark, &cfg, 32, cached)?;
    if cached {
        shark.load_table("rankings")?;
        shark.load_table("uservisits")?;
    }
    println!("== {label} ==");
    for (name, sql) in [
        ("selection", SELECTION),
        ("aggregation (2.5M groups @ paper scale)", AGG_FINE),
        ("aggregation (1K groups)", AGG_COARSE),
        ("join", JOIN),
    ] {
        shark.context().reset_simulation();
        let r = shark.sql(sql)?;
        println!(
            "  {name:<42} {:>8.2}s simulated   ({} result rows)",
            r.sim_seconds,
            r.rows.len()
        );
        for note in &r.notes {
            println!("      note: {note}");
        }
    }
    println!();
    Ok(())
}

fn main() -> shark_common::Result<()> {
    // Each in-process row stands for ~50k rows of the paper's 100-node
    // dataset, so the simulator sees paper-scale volumes.
    let scale = 50_000.0;
    run(
        "Shark (in-memory columnar store)",
        SharkConfig::paper_shark().with_sim_scale(scale),
        true,
    )?;
    run(
        "Shark (disk)",
        SharkConfig::paper_shark()
            .with_sim_scale(scale)
            .with_exec(ExecConfig::shark_disk()),
        false,
    )?;
    run(
        "Hive",
        SharkConfig::paper_hive().with_sim_scale(scale),
        false,
    )?;
    println!(
        "Expected shape (paper, Figure 5/6): Shark beats Hive by 1-2 orders of\n\
         magnitude on selection/aggregation; on the join, memory vs disk matters\n\
         less because the shuffle dominates, and co-partitioning helps most."
    );
    Ok(())
}
