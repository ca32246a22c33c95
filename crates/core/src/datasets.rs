//! Convenience registration of the paper's benchmark datasets (§6) into a
//! [`SqlSession`] (a [`crate::SharkContext`] derefs to one), used by the
//! examples and the experiment harness.

use shark_common::Result;
use shark_datagen::ml::MlConfig;
use shark_datagen::pavlo::{self, PavloConfig};
use shark_datagen::tpch::{self, TpchConfig};
use shark_datagen::warehouse::{self, WarehouseConfig};
use shark_sql::{SqlSession, TableMeta};

/// Register the Pavlo et al. benchmark tables (`rankings`, `uservisits`),
/// optionally cached in the memstore.
pub fn register_pavlo(
    session: &SqlSession,
    cfg: &PavloConfig,
    partitions: usize,
    cached: bool,
) -> Result<()> {
    let nodes = session.context().config().cluster.num_nodes;
    let c1 = cfg.clone();
    let mut rankings = TableMeta::new("rankings", pavlo::rankings_schema(), partitions, move |p| {
        pavlo::rankings_partition(&c1, partitions, p)
    })
    .with_row_count_hint(cfg.rankings_rows as u64);
    let c2 = cfg.clone();
    let mut uservisits = TableMeta::new(
        "uservisits",
        pavlo::uservisits_schema(),
        partitions,
        move |p| pavlo::uservisits_partition(&c2, partitions, p),
    )
    .with_row_count_hint(cfg.uservisits_rows as u64);
    if cached {
        rankings = rankings.with_cache(nodes);
        uservisits = uservisits.with_cache(nodes);
    }
    session.register_table(rankings);
    session.register_table(uservisits);
    Ok(())
}

/// Register the TPC-H-like tables (`lineitem`, `supplier`, `orders`).
pub fn register_tpch(
    session: &SqlSession,
    cfg: &TpchConfig,
    partitions: usize,
    cached: bool,
) -> Result<()> {
    let nodes = session.context().config().cluster.num_nodes;
    let c1 = cfg.clone();
    let mut lineitem = TableMeta::new("lineitem", tpch::lineitem_schema(), partitions, move |p| {
        tpch::lineitem_partition(&c1, partitions, p)
    })
    .with_row_count_hint(cfg.lineitem_rows as u64);
    let supplier_parts = partitions.clamp(1, 8);
    let c2 = cfg.clone();
    let mut supplier = TableMeta::new(
        "supplier",
        tpch::supplier_schema(),
        supplier_parts,
        move |p| tpch::supplier_partition(&c2, supplier_parts, p),
    )
    .with_row_count_hint(cfg.supplier_rows as u64);
    let orders_parts = partitions.clamp(1, 16);
    let c3 = cfg.clone();
    let mut orders = TableMeta::new("orders", tpch::orders_schema(), orders_parts, move |p| {
        tpch::orders_partition(&c3, orders_parts, p)
    })
    .with_row_count_hint(cfg.orders_rows as u64);
    if cached {
        lineitem = lineitem.with_cache(nodes);
        supplier = supplier.with_cache(nodes);
        orders = orders.with_cache(nodes);
    }
    session.register_table(lineitem);
    session.register_table(supplier);
    session.register_table(orders);
    Ok(())
}

/// Register the video-analytics warehouse fact table (`sessions`), one
/// partition per `(day, region)` slice so its natural clustering is
/// preserved for map pruning.
pub fn register_warehouse(session: &SqlSession, cfg: &WarehouseConfig, cached: bool) -> Result<()> {
    let nodes = session.context().config().cluster.num_nodes;
    let c = cfg.clone();
    let partitions = cfg.num_partitions();
    let mut sessions = TableMeta::new(
        "sessions",
        warehouse::sessions_schema(),
        partitions,
        move |p| warehouse::sessions_partition(&c, p),
    )
    .with_row_count_hint((cfg.sessions_per_partition * partitions) as u64);
    if cached {
        sessions = sessions.with_cache(nodes);
    }
    session.register_table(sessions);
    Ok(())
}

/// Register the synthetic ML dataset in relational form (`points`), so the
/// SQL → feature extraction → iterative ML pipeline of Listing 1 can run.
pub fn register_ml_points(
    session: &SqlSession,
    cfg: &MlConfig,
    partitions: usize,
    cached: bool,
) -> Result<()> {
    let nodes = session.context().config().cluster.num_nodes;
    let c = cfg.clone();
    let mut points = TableMeta::new(
        "points",
        shark_datagen::ml::points_schema(cfg.dims),
        partitions,
        move |p| shark_datagen::ml::points_table_partition(&c, partitions, p),
    )
    .with_row_count_hint(cfg.rows as u64);
    if cached {
        points = points.with_cache(nodes);
    }
    session.register_table(points);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharkContext;

    #[test]
    fn registers_all_paper_datasets() {
        let shark = SharkContext::local();
        register_pavlo(&shark, &PavloConfig::tiny(), 4, true).unwrap();
        register_tpch(&shark, &TpchConfig::tiny(), 4, false).unwrap();
        register_warehouse(&shark, &WarehouseConfig::tiny(), true).unwrap();
        register_ml_points(&shark, &MlConfig::tiny(), 4, false).unwrap();
        let names = shark.catalog().table_names();
        for t in [
            "rankings",
            "uservisits",
            "lineitem",
            "supplier",
            "orders",
            "sessions",
            "points",
        ] {
            assert!(names.contains(&t.to_string()), "missing {t}");
        }
    }

    #[test]
    fn pavlo_selection_query_runs() {
        let shark = SharkContext::local();
        register_pavlo(&shark, &PavloConfig::tiny(), 4, true).unwrap();
        let r = shark
            .sql("SELECT pageURL, pageRank FROM rankings WHERE pageRank > 300")
            .unwrap();
        assert!(!r.rows.is_empty());
        assert!(r.rows.iter().all(|row| row.get_int(1).unwrap() > 300));
    }

    #[test]
    fn warehouse_query_prunes_partitions() {
        let shark = SharkContext::local();
        register_warehouse(&shark, &WarehouseConfig::tiny(), true).unwrap();
        shark.load_table("sessions").unwrap();
        let r = shark
            .sql(
                "SELECT country, COUNT(*) FROM sessions \
                 WHERE day = 15001 AND country = 'US' GROUP BY country",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert!(
            r.notes.iter().any(|n| n.contains("map pruning")),
            "{:?}",
            r.notes
        );
    }
}
