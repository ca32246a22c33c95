//! Table-scan RDD implementations.
//!
//! Two scan paths exist, matching the "Shark", "Shark (disk)" and "Hive"
//! series of the paper's figures:
//!
//! * [`MemTableScanRdd`] reads the cached columnar memstore: it decodes only
//!   the projected columns, charges `CachedColumnar` I/O for exactly those
//!   columns' encoded bytes, applies pushed-down filters, and — if a
//!   partition was lost to a node failure — rebuilds it from the table's
//!   base generator (lineage recovery) while charging DFS I/O.
//! * [`DfsScanRdd`] reads the base generator directly ("data on HDFS"):
//!   every column's bytes are read and deserialization is charged.

use std::sync::Arc;

use shark_cluster::InputSource;
use shark_columnar::{ColumnBatch, ColumnarPartition};
use shark_common::size::estimate_slice;
use shark_common::{Result, Row};
use shark_rdd::rdd::{Lineage, RddImpl, ShuffleDepHandle};
use shark_rdd::{Rdd, RddContext, TaskMetrics};

use crate::aggregate::{AggExpr, AggStates};
use crate::catalog::{MemTable, TableMeta};
use crate::expr::BoundExpr;
use crate::vector::{vector_partial_aggregate, FilterKernel};

/// Cached unified-registry handles for the hot scan-path counters (a
/// memtable counts its rebuilds and promotions itself, in its scope).
struct ScanMetrics {
    cache_hits: Arc<shark_obs::Counter>,
    cache_hit_bytes: Arc<shark_obs::Counter>,
}

fn scan_metrics() -> &'static ScanMetrics {
    static METRICS: std::sync::OnceLock<ScanMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = shark_obs::metrics();
        ScanMetrics {
            cache_hits: reg.counter(
                "shark_memstore_cache_hit_partitions_total",
                "Memstore scans served from the cached columnar form",
            ),
            cache_hit_bytes: reg.counter(
                "shark_memstore_cache_hit_bytes_total",
                "Projected columnar bytes served from the memstore cache",
            ),
        }
    })
}

/// Apply pushed-down filters, charging their expression cost.
fn apply_filters(rows: &mut Vec<Row>, filters: &[BoundExpr], metrics: &mut TaskMetrics) {
    for f in filters {
        metrics.add_ops(rows.len() as f64 * f.op_count());
        rows.retain(|r| f.eval_predicate(r));
    }
}

/// Fetch one partition of a cached table in columnar form, charging the
/// memstore-hit or lineage-rebuild cost. Shared by the row and vectorized
/// scan RDDs and by the fused aggregate scan — all three charge identically.
///
/// On a miss the partition is recomputed from the table's base generator
/// (the lineage-recovery path of Figure 9, now also the partial-eviction
/// reload path). Resident partitions are never touched. A *retired*
/// memtable — its table version was dropped from the catalog and awaits
/// deferred reclamation — is read through without repopulating it:
/// rebuilding partitions into storage that is about to be reclaimed would
/// leak bytes past the deferred-drop accounting and count rebuilds against
/// a table that no longer exists.
fn load_partition(
    table: &TableMeta,
    mem: &MemTable,
    original: usize,
    projection: &[usize],
    metrics: &mut TaskMetrics,
) -> Arc<ColumnarPartition> {
    match mem.get(original) {
        Some(c) => {
            // Charge only the projected columns' encoded bytes (§3.2).
            let bytes: usize = projection.iter().map(|&c2| c.column_bytes(c2)).sum();
            metrics.record_input(
                c.num_rows() as u64,
                bytes as u64,
                InputSource::CachedColumnar,
            );
            scan_metrics().cache_hits.inc();
            scan_metrics().cache_hit_bytes.add(bytes as u64);
            if shark_obs::active() {
                shark_obs::annotate("cache", "hit");
            }
            c
        }
        None => {
            // A demoted partition faults back in from the spill tier at pure
            // I/O cost (no recompute): promotion. Only if no spill tier is
            // installed, the partition was dropped rather than demoted, or
            // its spill file is poisoned do we fall back to lineage.
            if let Some((spilled, io_bytes)) =
                mem.spill_fetch(&table.name, original, table.version())
            {
                metrics.record_input(spilled.num_rows() as u64, io_bytes, InputSource::Dfs);
                if !mem.is_retired() {
                    mem.put(original, spilled.clone());
                    mem.record_promotion();
                    if shark_obs::active() {
                        shark_obs::annotate("promote", "spill");
                    }
                }
                return spilled;
            }
            let rows = (table.base)(original);
            let bytes = estimate_slice(&rows) as u64;
            metrics.record_input(rows.len() as u64, bytes, InputSource::Dfs);
            metrics.add_ops(rows.len() as f64 * 4.0); // rebuild columnar form
            let rebuilt = Arc::new(ColumnarPartition::from_rows(&table.schema, &rows));
            if !mem.is_retired() {
                mem.put(original, rebuilt.clone());
                mem.record_rebuild();
                if shark_obs::active() {
                    shark_obs::annotate("rebuild", "lineage");
                }
            }
            rebuilt
        }
    }
}

/// Run the compiled filter kernels over a batch, charging exactly what the
/// row path's [`apply_filters`] charges (each filter pays for the rows still
/// alive when it runs), and annotate the operator span with the batch
/// selectivity.
fn apply_kernels(
    batch: &mut ColumnBatch<'_>,
    filters: &[BoundExpr],
    kernels: &[FilterKernel],
    metrics: &mut TaskMetrics,
) {
    for (f, kernel) in filters.iter().zip(kernels.iter()) {
        metrics.add_ops(batch.num_selected() as f64 * f.op_count());
        kernel.apply(batch);
    }
    if shark_obs::active() && !filters.is_empty() {
        shark_obs::annotate("batch", &format!("selected={}", batch.num_selected()));
    }
}

/// Scan of a cached, columnar table (the Shark memstore path).
pub struct MemTableScanRdd {
    id: usize,
    table: Arc<TableMeta>,
    mem: Arc<MemTable>,
    /// Original partition indices this scan reads (after map pruning).
    selected: Arc<Vec<usize>>,
    /// Original column indices to project.
    projection: Arc<Vec<usize>>,
    filters: Arc<Vec<BoundExpr>>,
    /// Batch kernels compiled from `filters` (used when `vectorized`).
    kernels: Arc<Vec<FilterKernel>>,
    /// Batch-at-a-time execution over the compressed encodings (late
    /// materialization); false falls back to decode-then-filter rows.
    vectorized: bool,
}

impl MemTableScanRdd {
    /// Build a memstore scan RDD.
    pub fn create(
        ctx: &RddContext,
        table: Arc<TableMeta>,
        selected: Vec<usize>,
        projection: Vec<usize>,
        filters: Vec<BoundExpr>,
        vectorized: bool,
    ) -> Result<Rdd<Row>> {
        let mem = table.cached.clone().ok_or_else(|| {
            shark_common::SharkError::Plan(format!("table '{}' is not cached", table.name))
        })?;
        let kernels = filters.iter().map(FilterKernel::compile).collect();
        let inner = MemTableScanRdd {
            id: ctx.next_rdd_id(),
            table,
            mem,
            selected: Arc::new(selected),
            projection: Arc::new(projection),
            filters: Arc::new(filters),
            kernels: Arc::new(kernels),
            vectorized,
        };
        Ok(Rdd::new(ctx.clone(), Arc::new(inner)))
    }
}

impl RddImpl<Row> for MemTableScanRdd {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> String {
        format!("memstore_scan({})", self.table.name)
    }
    fn num_partitions(&self) -> usize {
        self.selected.len()
    }
    fn compute(
        &self,
        _ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<Row>> {
        let original = self.selected[partition];
        let columnar = load_partition(&self.table, &self.mem, original, &self.projection, metrics);
        if self.vectorized {
            // Batch path: predicates narrow a selection vector over the
            // compressed encodings; rows are built only for survivors.
            let mut batch = ColumnBatch::new(&columnar, &self.projection);
            apply_kernels(&mut batch, &self.filters, &self.kernels, metrics);
            Ok(batch.materialize())
        } else {
            let mut rows = columnar.project_rows(&self.projection);
            apply_filters(&mut rows, &self.filters, metrics);
            Ok(rows)
        }
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        Vec::new()
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepHandle>> {
        Vec::new()
    }
    fn preferred_node(&self, _ctx: &RddContext, partition: usize) -> Option<usize> {
        Some(self.mem.placement(self.selected[partition]))
    }
}

/// Fused scan → filter → partial-aggregate over a cached table: the batch
/// stays columnar from the memstore all the way into the per-group
/// aggregation states, so group keys and aggregate inputs are never
/// materialized as intermediate `Row`s (dictionary-coded group-by keys
/// aggregate by code). Emits the same `(group key, partial state)` pairs —
/// one per group per partition, folded in row order — that the row path's
/// per-row partial-aggregate produces after its map-side combine.
pub struct MemAggScanRdd {
    id: usize,
    table: Arc<TableMeta>,
    mem: Arc<MemTable>,
    selected: Arc<Vec<usize>>,
    projection: Arc<Vec<usize>>,
    filters: Arc<Vec<BoundExpr>>,
    kernels: Arc<Vec<FilterKernel>>,
    group_exprs: Arc<Vec<BoundExpr>>,
    aggs: Arc<Vec<AggExpr>>,
    /// Expression cost per surviving row (matches the row path's
    /// partial-aggregate charge).
    agg_ops_per_row: f64,
}

impl MemAggScanRdd {
    /// Build a fused scan+aggregate RDD over a cached table.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        ctx: &RddContext,
        table: Arc<TableMeta>,
        selected: Vec<usize>,
        projection: Vec<usize>,
        filters: Vec<BoundExpr>,
        group_exprs: Vec<BoundExpr>,
        aggs: Vec<AggExpr>,
        agg_ops_per_row: f64,
    ) -> Result<Rdd<(Row, AggStates)>> {
        let mem = table.cached.clone().ok_or_else(|| {
            shark_common::SharkError::Plan(format!("table '{}' is not cached", table.name))
        })?;
        let kernels = filters.iter().map(FilterKernel::compile).collect();
        let inner = MemAggScanRdd {
            id: ctx.next_rdd_id(),
            table,
            mem,
            selected: Arc::new(selected),
            projection: Arc::new(projection),
            filters: Arc::new(filters),
            kernels: Arc::new(kernels),
            group_exprs: Arc::new(group_exprs),
            aggs: Arc::new(aggs),
            agg_ops_per_row,
        };
        Ok(Rdd::new(ctx.clone(), Arc::new(inner)))
    }
}

impl RddImpl<(Row, AggStates)> for MemAggScanRdd {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> String {
        format!("memstore_scan({})", self.table.name)
    }
    fn num_partitions(&self) -> usize {
        self.selected.len()
    }
    fn compute(
        &self,
        _ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<(Row, AggStates)>> {
        let original = self.selected[partition];
        let columnar = load_partition(&self.table, &self.mem, original, &self.projection, metrics);
        let mut batch = ColumnBatch::new(&columnar, &self.projection);
        apply_kernels(&mut batch, &self.filters, &self.kernels, metrics);
        metrics.add_ops(batch.num_selected() as f64 * self.agg_ops_per_row);
        let groups = vector_partial_aggregate(&batch, &self.group_exprs, &self.aggs);
        if shark_obs::active() {
            shark_obs::annotate("fused", "partial-aggregate");
        }
        Ok(groups)
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        Vec::new()
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepHandle>> {
        Vec::new()
    }
    fn preferred_node(&self, _ctx: &RddContext, partition: usize) -> Option<usize> {
        Some(self.mem.placement(self.selected[partition]))
    }
}

/// Scan of a table straight from its base generator (the "on HDFS" path used
/// by "Shark (disk)" and the Hive baseline).
pub struct DfsScanRdd {
    id: usize,
    table: Arc<TableMeta>,
    projection: Arc<Vec<usize>>,
    filters: Arc<Vec<BoundExpr>>,
}

impl DfsScanRdd {
    /// Build a DFS scan RDD over all partitions of the table.
    pub fn create(
        ctx: &RddContext,
        table: Arc<TableMeta>,
        projection: Vec<usize>,
        filters: Vec<BoundExpr>,
    ) -> Rdd<Row> {
        let inner = DfsScanRdd {
            id: ctx.next_rdd_id(),
            table,
            projection: Arc::new(projection),
            filters: Arc::new(filters),
        };
        Rdd::new(ctx.clone(), Arc::new(inner))
    }
}

impl RddImpl<Row> for DfsScanRdd {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> String {
        format!("dfs_scan({})", self.table.name)
    }
    fn num_partitions(&self) -> usize {
        self.table.num_partitions
    }
    fn compute(
        &self,
        _ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<Row>> {
        // Prefer a demoted partition over regenerating from the base data:
        // a spill fetch is a *move*, so the fetched copy must go back into
        // the memtable (unless retired) or the demoted bytes would be lost.
        let spilled = self
            .table
            .cached
            .as_ref()
            .filter(|mem| !mem.is_loaded(partition))
            .and_then(|mem| {
                let (spilled, io_bytes) =
                    mem.spill_fetch(&self.table.name, partition, self.table.version())?;
                if !mem.is_retired() {
                    mem.put(partition, spilled.clone());
                    mem.record_promotion();
                    if shark_obs::active() {
                        shark_obs::annotate("promote", "spill");
                    }
                }
                Some((spilled, io_bytes))
            });
        let rows = match &spilled {
            Some((spilled, io_bytes)) => {
                let rows = spilled.to_rows();
                metrics.record_input(rows.len() as u64, *io_bytes, InputSource::Dfs);
                rows
            }
            None => {
                let rows = (self.table.base)(partition);
                // Reading from the DFS pays for every column of every row.
                let bytes = estimate_slice(&rows) as u64;
                metrics.record_input(rows.len() as u64, bytes, InputSource::Dfs);
                rows
            }
        };
        metrics.add_ops(rows.len() as f64); // field extraction
                                            // Skipping the projection is only sound when it is the identity
                                            // mapping: a full-width *reorder* (e.g. [2, 0, 1]) has the same
                                            // length as the schema but must still permute every row.
        let is_identity = self.projection.len() == self.table.schema.len()
            && self.projection.iter().enumerate().all(|(i, &c)| i == c);
        let projected: Vec<Row> = if is_identity {
            rows
        } else {
            rows.iter().map(|r| r.project(&self.projection)).collect()
        };
        let mut out = projected;
        apply_filters(&mut out, &self.filters, metrics);
        Ok(out)
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        Vec::new()
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepHandle>> {
        Vec::new()
    }
}

/// Map pruning (§3.5): evaluate a scan's pushed-down filters against every
/// loaded partition's statistics and return the partitions that must still
/// be scanned, together with the number pruned.
pub fn prune_partitions(
    table: &TableMeta,
    mem: &MemTable,
    filters: &[BoundExpr],
    projection: &[usize],
) -> (Vec<usize>, usize) {
    // Each filter's column range is extracted once per statement (the
    // literals are cloned here, not per partition). The filter is bound
    // against the projected schema; map back to the table column index.
    let ranges: Vec<_> = filters
        .iter()
        .filter_map(BoundExpr::as_column_range)
        .map(|(projected_col, low, high, eqs)| (projection[projected_col], low, high, eqs))
        .collect();
    let mut selected = Vec::new();
    let mut pruned = 0usize;
    for p in 0..table.num_partitions {
        // Statistics survive policy evictions, so an evicted-but-once-loaded
        // partition can still be pruned — saving its lineage recompute
        // entirely when the predicate rules it out.
        let keep = match mem.stats(p) {
            None => true, // never loaded: cannot prune, the scan will rebuild it
            Some(stats) => ranges.iter().all(|(table_col, low, high, eqs)| {
                let col_stats = stats.column(*table_col);
                if !eqs.is_empty() {
                    eqs.iter().any(|v| col_stats.might_equal(v))
                } else {
                    col_stats.might_overlap(low.as_ref(), high.as_ref())
                }
            }),
        };
        if keep {
            selected.push(p);
        } else {
            pruned += 1;
        }
    }
    (selected, pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BoundExpr, SchemaResolver, UdfRegistry};
    use crate::parser::parse_select;
    use shark_common::{row, DataType, Schema};

    fn table() -> TableMeta {
        let schema = Schema::from_pairs(&[
            ("day", DataType::Int),
            ("country", DataType::Str),
            ("metric", DataType::Float),
        ]);
        // Partition p holds day = p, country cycling over 2 values.
        TableMeta::new("sessions", schema, 6, |p| {
            let country = if p % 2 == 0 { "US" } else { "FR" };
            (0..50)
                .map(|i| row![p as i64, country, (i as f64) * 0.5])
                .collect()
        })
        .with_cache(3)
    }

    fn load(meta: &TableMeta) {
        let mem = meta.cached.as_ref().unwrap();
        for p in 0..meta.num_partitions {
            let rows = (meta.base)(p);
            mem.put(
                p,
                Arc::new(ColumnarPartition::from_rows(&meta.schema, &rows)),
            );
        }
    }

    fn bind_filter(sql_pred: &str, schema: &Schema) -> BoundExpr {
        let stmt = parse_select(&format!("SELECT 1 FROM t WHERE {sql_pred}")).unwrap();
        BoundExpr::bind(
            &stmt.selection.unwrap(),
            &SchemaResolver { schema },
            &UdfRegistry::new(),
        )
        .unwrap()
    }

    #[test]
    fn pruning_skips_partitions_outside_the_predicate_range() {
        let meta = table();
        load(&meta);
        let mem = meta.cached.as_ref().unwrap();
        let projection = vec![0usize, 1, 2];
        let projected = meta.schema.project(&projection);
        let filters = vec![bind_filter("day BETWEEN 2 AND 3", &projected)];
        let (selected, pruned) = prune_partitions(&meta, mem, &filters, &projection);
        assert_eq!(selected, vec![2, 3]);
        assert_eq!(pruned, 4);

        let filters = vec![bind_filter("country = 'US'", &projected)];
        let (selected, pruned) = prune_partitions(&meta, mem, &filters, &projection);
        assert_eq!(selected, vec![0, 2, 4]);
        assert_eq!(pruned, 3);
    }

    #[test]
    fn memstore_scan_reads_only_selected_partitions() {
        let ctx = RddContext::local();
        let meta = Arc::new(table());
        load(&meta);
        let projection = vec![0usize, 2];
        let rdd = MemTableScanRdd::create(&ctx, meta.clone(), vec![1, 4], projection, vec![], true)
            .unwrap();
        assert_eq!(rdd.num_partitions(), 2);
        let rows = rdd.collect().unwrap();
        assert_eq!(rows.len(), 100);
        // Only two columns were projected.
        assert_eq!(rows[0].len(), 2);
        let days: std::collections::HashSet<i64> =
            rows.iter().map(|r| r.get_int(0).unwrap()).collect();
        assert_eq!(days, [1i64, 4].into_iter().collect());
    }

    #[test]
    fn memstore_scan_recovers_lost_partition_from_base_data() {
        let ctx = RddContext::local();
        let meta = Arc::new(table());
        load(&meta);
        let mem = meta.cached.as_ref().unwrap();
        let before = mem.loaded_partitions();
        // Node 0 holds partitions 0 and 3 (round robin over 3 nodes).
        assert_eq!(mem.store().drop_node(0).len(), 2);
        assert!(mem.loaded_partitions() < before);
        let rdd = MemTableScanRdd::create(
            &ctx,
            meta.clone(),
            (0..meta.num_partitions).collect(),
            vec![0, 1, 2],
            vec![],
            true,
        )
        .unwrap();
        let rows = rdd.collect().unwrap();
        assert_eq!(rows.len(), 6 * 50);
        // Recovery reloaded the lost partitions into the memstore.
        assert_eq!(mem.loaded_partitions(), 6);
    }

    #[test]
    fn retired_memtable_is_read_through_without_rebuilding() {
        let ctx = RddContext::local();
        let meta = Arc::new(table());
        load(&meta);
        let mem = meta.cached.as_ref().unwrap();
        // Evict one partition, then retire the table (as a DROP TABLE
        // would): a scan over a still-pinned snapshot must produce every
        // row, but never rebuild the missing partition into the retired
        // storage or count a rebuild against it.
        assert!(mem.evict_partition(2) > 0);
        let resident_bytes = mem.memory_bytes();
        mem.retire();
        let rdd = MemTableScanRdd::create(
            &ctx,
            meta.clone(),
            (0..meta.num_partitions).collect(),
            vec![0, 1, 2],
            vec![],
            true,
        )
        .unwrap();
        let rows = rdd.collect().unwrap();
        assert_eq!(rows.len(), 6 * 50);
        assert!(!mem.is_loaded(2), "read-through must not repopulate");
        assert_eq!(mem.rebuilds(), 0);
        assert_eq!(mem.memory_bytes(), resident_bytes);
    }

    #[test]
    fn vectorized_scan_matches_row_scan_exactly() {
        let meta = Arc::new(table());
        load(&meta);
        let projection = vec![0usize, 1, 2];
        let projected = meta.schema.project(&projection);
        for pred in ["day >= 2", "country = 'US'", "metric * 2.0 > 10.0"] {
            let filters = vec![bind_filter(pred, &projected)];
            let mut outputs = Vec::new();
            for vectorized in [false, true] {
                let ctx = RddContext::local();
                let rdd = MemTableScanRdd::create(
                    &ctx,
                    meta.clone(),
                    (0..meta.num_partitions).collect(),
                    projection.clone(),
                    filters.clone(),
                    vectorized,
                )
                .unwrap();
                outputs.push(rdd.collect().unwrap());
            }
            assert_eq!(outputs[0], outputs[1], "{pred}");
        }
    }

    #[test]
    fn fused_aggregate_scan_matches_row_pipeline_fold() {
        use crate::aggregate::AggFunc;
        let ctx = RddContext::local();
        let meta = Arc::new(table());
        load(&meta);
        let projection = vec![0usize, 1, 2];
        let projected = meta.schema.project(&projection);
        let filters = vec![bind_filter("day < 5", &projected)];
        let group = vec![BoundExpr::Column(1)];
        let aggs = vec![
            AggExpr {
                func: AggFunc::Count,
                arg: None,
            },
            AggExpr {
                func: AggFunc::Avg,
                arg: Some(BoundExpr::Column(2)),
            },
        ];
        let rdd = MemAggScanRdd::create(
            &ctx,
            meta.clone(),
            (0..meta.num_partitions).collect(),
            projection.clone(),
            filters.clone(),
            group.clone(),
            aggs.clone(),
            3.0,
        )
        .unwrap();
        let fused = rdd.collect().unwrap();

        // Reference: per-partition row scan, then fold per key in row order.
        let mut reference: Vec<(Row, AggStates)> = Vec::new();
        for p in 0..meta.num_partitions {
            let mut index = std::collections::HashMap::new();
            let mut groups: Vec<(Row, AggStates)> = Vec::new();
            let rows: Vec<Row> = (meta.base)(p)
                .iter()
                .map(|r| r.project(&projection))
                .filter(|r| filters.iter().all(|f| f.eval_predicate(r)))
                .collect();
            for r in rows {
                let key = Row::new(vec![group[0].eval(&r)]);
                let slot = *index.entry(key.clone()).or_insert_with(|| {
                    groups.push((key.clone(), AggStates::new(&aggs)));
                    groups.len() - 1
                });
                groups[slot].1.update_row(&aggs, &r);
            }
            reference.extend(groups);
        }
        assert_eq!(fused.len(), reference.len());
        for ((kf, sf), (kr, sr)) in fused.iter().zip(reference.iter()) {
            assert_eq!(kf, kr);
            assert_eq!(sf.finalize(), sr.finalize());
        }
    }

    #[test]
    fn dfs_scan_applies_full_width_reorders() {
        // Regression: a projection covering every column but in a different
        // order used to be skipped entirely (the `len == schema.len()` fast
        // path), returning columns in table order.
        let ctx = RddContext::local();
        let meta = Arc::new(table());
        let rdd = DfsScanRdd::create(&ctx, meta.clone(), vec![2, 1, 0], vec![]);
        let rows = rdd.collect().unwrap();
        assert_eq!(rows.len(), 6 * 50);
        // Output order must be (metric, country, day), not table order.
        let first = &rows[0];
        assert!(first.get_float(0).is_ok(), "metric first: {first:?}");
        assert_eq!(first.get_str(1).unwrap().as_ref(), "US");
        assert_eq!(first.get_int(2).unwrap(), 0);
        // The true identity projection still passes rows through unchanged.
        let rdd = DfsScanRdd::create(&ctx, meta, vec![0, 1, 2], vec![]);
        let rows = rdd.collect().unwrap();
        assert_eq!(rows[0].get_int(0).unwrap(), 0);
    }

    #[test]
    fn dfs_scan_applies_filters_and_projections() {
        let ctx = RddContext::local();
        let meta = Arc::new(table());
        let projection = vec![0usize, 1];
        let projected = meta.schema.project(&projection);
        let filters = vec![bind_filter("country = 'US'", &projected)];
        let rdd = DfsScanRdd::create(&ctx, meta.clone(), projection, filters);
        assert_eq!(rdd.num_partitions(), 6);
        let rows = rdd.collect().unwrap();
        assert_eq!(rows.len(), 3 * 50);
        assert!(rows.iter().all(|r| r.get_str(1).unwrap().as_ref() == "US"));
    }
}
