//! Cross-crate integration tests: the full SQL + ML pipeline over the
//! simulated cluster, exercising the paper's main claims end to end.

use shark_core::datasets::{register_pavlo, register_tpch, register_warehouse};
use shark_core::{ExecConfig, RddConfig, SharkConfig, SharkContext};
use shark_datagen::pavlo::PavloConfig;
use shark_datagen::tpch::TpchConfig;
use shark_datagen::warehouse::WarehouseConfig;
use shark_ml::LogisticRegression;

fn shark_with_pavlo(exec: ExecConfig, cached: bool) -> SharkContext {
    let shark = SharkContext::new(
        SharkConfig {
            rdd: RddConfig {
                cluster: shark_core::ClusterConfig::small(8, 2),
                default_partitions: 8,
                sim_scale: 10_000.0,
            },
            ..SharkConfig::default()
        }
        .with_exec(exec),
    );
    register_pavlo(&shark, &PavloConfig::tiny(), 8, cached).unwrap();
    if cached {
        shark.load_table("rankings").unwrap();
        shark.load_table("uservisits").unwrap();
    }
    shark
}

#[test]
fn pavlo_queries_agree_between_shark_and_hive_modes() {
    let shark = shark_with_pavlo(ExecConfig::shark(), true);
    let hive = {
        let s = SharkContext::new(SharkConfig {
            rdd: RddConfig {
                cluster: shark_core::ClusterConfig::small(8, 2)
                    .with_profile(shark_core::EngineProfile::hadoop()),
                default_partitions: 8,
                sim_scale: 10_000.0,
            },
            exec: ExecConfig::hive(),
        });
        register_pavlo(&s, &PavloConfig::tiny(), 8, false).unwrap();
        s
    };
    for sql in [
        "SELECT COUNT(*) FROM rankings WHERE pageRank > 300",
        "SELECT SUBSTR(sourceIP, 1, 7), COUNT(*) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 7) ORDER BY 1",
        "SELECT sourceIP, COUNT(*) AS visits FROM rankings R, uservisits UV \
         WHERE R.pageURL = UV.destURL GROUP BY UV.sourceIP ORDER BY visits DESC, sourceIP LIMIT 10",
    ] {
        let a = shark.sql(sql).unwrap();
        let b = hive.sql(sql).unwrap();
        assert_eq!(a.rows, b.rows, "results must agree for: {sql}");
        // The engines agree on answers but not on (simulated) speed.
        assert!(b.sim_seconds > a.sim_seconds, "hive should be slower: {sql}");
    }
}

#[test]
fn shark_is_dramatically_faster_than_hive_on_cached_aggregations() {
    // The headline claim: up to ~100x on warehouse-style queries.
    let shark = shark_with_pavlo(ExecConfig::shark(), true);
    let hive = {
        let s = SharkContext::new(SharkConfig::paper_hive().with_sim_scale(10_000.0));
        register_pavlo(&s, &PavloConfig::tiny(), 8, false).unwrap();
        s
    };
    let shark_full = SharkContext::new(SharkConfig::paper_shark().with_sim_scale(10_000.0));
    register_pavlo(&shark_full, &PavloConfig::tiny(), 8, true).unwrap();
    shark_full.load_table("rankings").unwrap();

    let sql = "SELECT COUNT(*) FROM rankings WHERE pageRank > 300";
    shark_full.context().reset_simulation();
    let fast = shark_full.sql(sql).unwrap();
    hive.context().reset_simulation();
    let slow = hive.sql(sql).unwrap();
    assert_eq!(fast.rows, slow.rows);
    let speedup = slow.sim_seconds / fast.sim_seconds;
    assert!(
        speedup > 10.0,
        "expected an order-of-magnitude speedup, got {speedup:.1}x"
    );
    drop(shark);
}

#[test]
fn pde_join_selection_beats_static_plan() {
    let tpch = TpchConfig {
        supplier_rows: 5_000,
        lineitem_rows: 20_000,
        ..TpchConfig::tiny()
    };
    let build = |exec: ExecConfig| {
        let mut shark = SharkContext::new(
            SharkConfig::paper_shark()
                .with_sim_scale(50_000.0)
                .with_exec(exec),
        );
        shark.register_udf("is_special", |args| {
            shark_common::Value::Bool(
                args[0]
                    .as_str()
                    .map(|s| s.contains("SPECIAL"))
                    .unwrap_or(false),
            )
        });
        register_tpch(&shark, &tpch, 16, true).unwrap();
        shark.load_table("lineitem").unwrap();
        shark.load_table("supplier").unwrap();
        shark
    };
    let sql = "SELECT l_orderkey, s_name FROM lineitem l JOIN supplier s \
               ON l.l_suppkey = s.s_suppkey WHERE is_special(s.s_address)";
    let adaptive = build(ExecConfig::shark());
    adaptive.context().reset_simulation();
    let a = adaptive.sql(sql).unwrap();
    let static_plan = build(ExecConfig::shark_static());
    static_plan.context().reset_simulation();
    let s = static_plan.sql(sql).unwrap();
    assert_eq!(a.rows.len(), s.rows.len(), "same join result");
    assert!(
        a.notes.iter().any(|n| n.contains("map join")),
        "PDE should have chosen a map join: {:?}",
        a.notes
    );
    assert!(
        a.sim_seconds < s.sim_seconds,
        "adaptive {} should beat static {}",
        a.sim_seconds,
        s.sim_seconds
    );
}

#[test]
fn map_pruning_reduces_scanned_partitions_and_preserves_answers() {
    let shark = SharkContext::new(SharkConfig::default());
    register_warehouse(&shark, &WarehouseConfig::tiny(), true).unwrap();
    shark.load_table("sessions").unwrap();
    let pruned = shark
        .sql("SELECT COUNT(*) FROM sessions WHERE day = 15001")
        .unwrap();
    assert!(pruned.notes.iter().any(|n| n.contains("map pruning")));

    // Same answer when scanning everything from "disk" (no stats, no pruning).
    let disk = SharkContext::new(SharkConfig::default().with_exec(ExecConfig::shark_disk()));
    register_warehouse(&disk, &WarehouseConfig::tiny(), false).unwrap();
    let full = disk
        .sql("SELECT COUNT(*) FROM sessions WHERE day = 15001")
        .unwrap();
    assert_eq!(pruned.rows, full.rows);
}

#[test]
fn mid_query_style_failure_recovery_preserves_results() {
    let shark = SharkContext::new(SharkConfig {
        rdd: RddConfig {
            cluster: shark_core::ClusterConfig::small(10, 2),
            default_partitions: 20,
            sim_scale: 1.0,
        },
        ..SharkConfig::default()
    });
    register_tpch(&shark, &TpchConfig::tiny(), 20, true).unwrap();
    shark.load_table("lineitem").unwrap();
    let sql =
        "SELECT l_shipmode, COUNT(*), SUM(l_quantity) FROM lineitem GROUP BY l_shipmode ORDER BY 1";
    let before = shark.sql(sql).unwrap();
    let lost = shark.fail_node(3);
    assert!(lost > 0);
    let after = shark.sql(sql).unwrap();
    assert_eq!(before.rows, after.rows);
    // Subsequent queries run against the recovered cache.
    let again = shark.sql(sql).unwrap();
    assert_eq!(before.rows, again.rows);
}

#[test]
fn sql_and_ml_share_the_same_engine_and_cache() {
    let shark = SharkContext::new(SharkConfig::default());
    shark_core::datasets::register_ml_points(&shark, &shark_datagen::ml::MlConfig::tiny(), 8, true)
        .unwrap();
    shark.load_table("points").unwrap();
    let table = shark.sql_to_rdd("SELECT * FROM points").unwrap();
    let dims = shark_datagen::ml::MlConfig::tiny().dims;
    let points = table
        .rdd
        .map(move |row| {
            let label = row.get_float(0).unwrap_or(0.0);
            let features: Vec<f64> = (1..=dims)
                .map(|i| row.get_float(i).unwrap_or(0.0))
                .collect();
            (features, label)
        })
        .cache();
    let (model, report) = LogisticRegression {
        iterations: 8,
        learning_rate: 1.0,
        seed: 2,
    }
    .train(&points)
    .unwrap();
    assert_eq!(report.iterations(), 8);
    let acc = LogisticRegression::accuracy(&model, &points).unwrap();
    assert!(acc > 0.8, "accuracy {acc}");
    // Kill a node and train again: lineage recovery also covers the ML stage.
    shark.fail_node(1);
    let (model2, _) = LogisticRegression {
        iterations: 4,
        learning_rate: 1.0,
        seed: 2,
    }
    .train(&points)
    .unwrap();
    assert_eq!(model2.weights.len(), model.weights.len());
}
