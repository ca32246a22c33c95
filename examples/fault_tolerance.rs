//! Mid-query fault tolerance (§2.3, §6.3.3, Figure 9): load a table into the
//! memstore, kill a worker, and watch the next query recover the lost
//! partitions through lineage instead of reloading the whole dataset.
//!
//! Run with: `cargo run --release -p shark-examples --example fault_tolerance`

use shark_core::datasets::register_tpch;
use shark_core::{RddConfig, SharkConfig, SharkContext};
use shark_datagen::tpch::TpchConfig;

const QUERY: &str =
    "SELECT l_shipmode, COUNT(*), SUM(l_extendedprice) FROM lineitem GROUP BY l_shipmode";

fn main() -> shark_common::Result<()> {
    // The paper's failure experiment uses a 50-node cluster (§6.3.3).
    let mut cluster = shark_core::ClusterConfig::paper_shark_cluster();
    cluster.num_nodes = 50;
    let shark = SharkContext::new(SharkConfig {
        rdd: RddConfig {
            cluster,
            default_partitions: 100,
            sim_scale: 20_000.0,
        },
        ..SharkConfig::default()
    });
    register_tpch(&shark, &TpchConfig::default(), 100, true)?;

    // Full load of the lineitem table into the memstore.
    shark.context().reset_simulation();
    let load = shark.load_table("lineitem")?;
    println!(
        "full load: {:.1}s simulated ({} rows, {} columnar bytes)",
        load.sim_seconds, load.rows, load.stored_bytes
    );

    // Query with no failures.
    shark.context().reset_simulation();
    let healthy = shark.sql(QUERY)?;
    println!("no failures:      {:.2}s simulated", healthy.sim_seconds);

    // Kill one worker: its memstore partitions disappear.
    let lost = shark.fail_node(7);
    println!("killed node 7 ({lost} cached partitions lost)");

    // The same query now recomputes the lost partitions from the base data
    // (lineage) as part of its scan, on the surviving 49 nodes.
    shark.context().reset_simulation();
    let with_failure = shark.sql(QUERY)?;
    println!(
        "single failure:   {:.2}s simulated",
        with_failure.sim_seconds
    );

    // After recovery the partitions are cached again; the next query is back
    // to normal speed.
    shark.context().reset_simulation();
    let post_recovery = shark.sql(QUERY)?;
    println!(
        "post-recovery:    {:.2}s simulated",
        post_recovery.sim_seconds
    );

    assert_eq!(healthy.rows.len(), with_failure.rows.len());
    assert_eq!(healthy.rows.len(), post_recovery.rows.len());
    println!(
        "\nresults identical across runs ({} groups); recovery cost {:.2}s vs a full\n\
         reload at {:.1}s — the Figure 9 shape.",
        healthy.rows.len(),
        with_failure.sim_seconds - healthy.sim_seconds,
        load.sim_seconds
    );
    Ok(())
}
