//! Table scans: each is a partition body of the one leaf RDD
//! ([`RddContext::source`]).
//!
//! Two scan paths exist, matching the "Shark", "Shark (disk)" and "Hive"
//! series of the paper's figures:
//!
//! * A memstore scan, `memstore_scan(t)`, reads the cached columnar
//!   memstore through one loader, `CachedScan`: it decodes only the
//!   projected columns, charges `CachedColumnar` I/O for exactly those
//!   columns' encoded bytes, applies pushed-down filters, and — if a
//!   partition was lost to a node failure or evicted — rebuilds it from the
//!   table's base generator (lineage recovery) while charging DFS I/O. It has
//!   three bodies: the scanned rows (row path or vectorized), and the fused
//!   partial aggregate and per-partition top-k, which keep the batch
//!   columnar until the operator's few output rows.
//! * A DFS scan, `dfs_scan(t)`, reads the base generator directly ("data on
//!   HDFS"): every column's bytes are read and deserialization is charged.

use std::cmp::Ordering;
use std::sync::Arc;

use shark_cluster::InputSource;
use shark_columnar::{ColumnBatch, ColumnarPartition, Selection};
use shark_common::size::estimate_slice;
use shark_common::{Row, Value};
use shark_rdd::{Data, Rdd, RddContext, TaskMetrics};

use crate::aggregate::{AggExpr, GroupBlock};
use crate::catalog::{MemTable, TableMeta};
use crate::exec::{topk_sort_rows, SingleScanInfo};
use crate::expr::BoundExpr;
use crate::vector::{vector_partial_aggregate, Kernel};

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

/// What every memstore scan reads: the cached table, the partitions map
/// pruning kept, the projected columns and the pushed-down filters with
/// their compiled batch kernels. The row and vectorized scans and the fused
/// aggregate and top-k scans all load and filter through it, so they charge
/// identically.
pub(crate) struct CachedScan {
    table: Arc<TableMeta>,
    mem: Arc<MemTable>,
    /// Original partition indices this scan reads (after map pruning).
    selected: Vec<usize>,
    /// Original column indices to project.
    projection: Vec<usize>,
    filters: Vec<BoundExpr>,
    /// Batch kernels compiled from `filters`.
    kernels: Vec<Kernel>,
}

impl CachedScan {
    /// A scan of `table`'s partitions `selected` (in result-partition
    /// order) of its memtable `mem`, projected to `projection` and filtered
    /// by `filters`.
    pub(crate) fn new(
        table: Arc<TableMeta>,
        mem: Arc<MemTable>,
        selected: Vec<usize>,
        projection: Vec<usize>,
        filters: Vec<BoundExpr>,
    ) -> CachedScan {
        let kernels = filters.iter().map(Kernel::compile).collect();
        CachedScan {
            table,
            mem,
            selected,
            projection,
            filters,
            kernels,
        }
    }

    /// The scan's identity, as top-k pushdown and partition pins read it.
    pub(crate) fn info(&self) -> SingleScanInfo {
        SingleScanInfo {
            table: self.table.clone(),
            selected: self.selected.clone(),
            projection: self.projection.clone(),
        }
    }

    /// Fetch result partition `partition` in columnar form, charging the
    /// memstore-hit or lineage-rebuild cost.
    ///
    /// On a miss the partition is recomputed from the table's base generator
    /// (the lineage-recovery path of Figure 9, now also the partial-eviction
    /// reload path). Resident partitions are never touched. A *retired*
    /// memtable — its table version was dropped from the catalog and awaits
    /// deferred reclamation — is read through without repopulating it:
    /// rebuilding partitions into storage that is about to be reclaimed would
    /// leak bytes past the deferred-drop accounting and count rebuilds against
    /// a table that no longer exists.
    fn load(&self, partition: usize, metrics: &mut TaskMetrics) -> Arc<ColumnarPartition> {
        let (table, mem) = (&self.table, &self.mem);
        let original = self.selected[partition];
        match mem.get(original) {
            Some(c) => {
                // Charge only the projected columns' encoded bytes (§3.2).
                let bytes: usize = self.projection.iter().map(|&c2| c.column_bytes(c2)).sum();
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

    /// A projected batch over `columnar` with the compiled filter kernels
    /// applied, charging exactly what the row path's [`apply_filters`]
    /// charges (each filter pays for the rows still alive when it runs); the
    /// operator span is annotated with the batch selectivity.
    fn filtered<'a>(
        &'a self,
        columnar: &'a ColumnarPartition,
        metrics: &mut TaskMetrics,
    ) -> ColumnBatch<'a> {
        let mut batch = ColumnBatch::new(columnar, &self.projection);
        for (f, kernel) in self.filters.iter().zip(&self.kernels) {
            metrics.add_ops(batch.num_selected() as f64 * f.op_count());
            kernel.filter(&mut batch);
        }
        if shark_obs::active() && !self.filters.is_empty() {
            shark_obs::annotate("batch", &format!("selected={}", batch.num_selected()));
        }
        batch
    }

    /// The leaf RDD whose partition `p` is `body` over the loaded columnar
    /// partition `p`, named `memstore_scan(t)`.
    fn source<T, F>(self, ctx: &RddContext, body: F) -> Rdd<T>
    where
        T: Data,
        F: Fn(&CachedScan, &ColumnarPartition, &mut TaskMetrics) -> Vec<T> + Send + Sync + 'static,
    {
        let scan = Arc::new(self);
        ctx.source(
            &format!("memstore_scan({})", scan.table.name),
            scan.selected.len(),
            move |p, metrics| {
                let columnar = scan.load(p, metrics);
                Ok(body(&scan, &columnar, metrics))
            },
        )
    }

    /// The scanned rows. Vectorized, batch-at-a-time over the compressed
    /// encodings (late materialization): predicates narrow a selection
    /// vector and rows are built only for survivors. Otherwise decode, then
    /// filter rows.
    pub(crate) fn rows(self, ctx: &RddContext, vectorized: bool) -> Rdd<Row> {
        self.source(ctx, move |scan, columnar, metrics| {
            if vectorized {
                scan.filtered(columnar, metrics).materialize()
            } else {
                let mut rows = columnar.project_rows(&scan.projection);
                apply_filters(&mut rows, &scan.filters, metrics);
                rows
            }
        })
    }

    /// Fused scan → filter → partial aggregate: the batch stays columnar
    /// from the memstore all the way into the partition's flat group block.
    /// Group keys and aggregate arguments are compiled kernels over the
    /// batch, never intermediate `Row`s, and a key's values are kept once
    /// per group. Each partition is one block — the same groups, folded in
    /// row order, that the row path's partial aggregate writes — and it
    /// charges `agg_ops_per_row` per surviving row, as that operator does.
    pub(crate) fn partial_aggregate(
        self,
        ctx: &RddContext,
        group_exprs: &[BoundExpr],
        aggs: Vec<AggExpr>,
        agg_ops_per_row: f64,
    ) -> Rdd<GroupBlock> {
        let keys: Vec<Kernel> = group_exprs.iter().map(Kernel::compile).collect();
        let args: Vec<Option<Kernel>> = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(Kernel::compile))
            .collect();
        self.source(ctx, move |scan, columnar, metrics| {
            let batch = scan.filtered(columnar, metrics);
            metrics.add_ops(batch.num_selected() as f64 * agg_ops_per_row);
            let block = vector_partial_aggregate(&batch, &keys, &args, &aggs);
            if shark_obs::active() {
                shark_obs::annotate("fused", "partial-aggregate");
            }
            vec![block]
        })
    }

    /// Fused scan → filter → top-k: each partition picks its `k` winners on
    /// the encoded ORDER BY columns (`keys`: scanned column, descending) and
    /// builds `Row`s of the output expressions `projections` for those
    /// winners only (late materialization), instead of materializing and
    /// projecting every surviving row before keeping `k` of them. Emits
    /// exactly the sorted run the row chain `memstore_scan → project →
    /// top-k` emits — the first `k` rows of a stable sort of the partition's
    /// projected rows — and charges exactly what that chain charges
    /// (`project_ops_per_row` per surviving row for the projection).
    pub(crate) fn top_k(
        self,
        ctx: &RddContext,
        projections: Vec<BoundExpr>,
        project_ops_per_row: f64,
        keys: Vec<(usize, bool)>,
        k: usize,
    ) -> Rdd<Row> {
        let bare_columns: Option<Vec<usize>> = projections
            .iter()
            .map(|p| match p {
                BoundExpr::Column(c) => Some(*c),
                _ => None,
            })
            .collect();
        self.source(ctx, move |scan, columnar, metrics| {
            let mut batch = scan.filtered(columnar, metrics);
            let n = batch.num_selected();
            metrics.add_ops(n as f64 * project_ops_per_row);
            let span = shark_obs::span("top-k");
            metrics.add_sort(topk_sort_rows(n, k));
            let keys: Vec<(Vec<Value>, bool)> = keys
                .iter()
                .map(|&(col, desc)| (batch.gather(col), desc))
                .collect();
            let winners = first_k(n, k, |a, b| {
                keys.iter()
                    .map(|(column, desc)| {
                        let ord = column[a].total_cmp(&column[b]);
                        if *desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    })
                    .find(|ord| ord.is_ne())
                    .unwrap_or(Ordering::Equal)
            });
            // Partition rows of the winners, ascending (what the
            // encoded-column walk needs), each tagged with its rank in the
            // sorted run.
            let selection = batch.selection();
            let mut by_row: Vec<(u32, usize)> = winners
                .iter()
                .enumerate()
                .map(|(rank, &pos)| {
                    let row = match selection {
                        Selection::All(_) => pos,
                        Selection::Rows(rows) => rows[pos as usize],
                    };
                    (row, rank)
                })
                .collect();
            by_row.sort_unstable();
            batch.set_selection(Selection::Rows(
                by_row.iter().map(|&(row, _)| row).collect(),
            ));
            let mut out = vec![Row::default(); by_row.len()];
            let rows = build_rows(&batch, &projections, bare_columns.as_deref());
            for (&(_, rank), row) in by_row.iter().zip(rows) {
                out[rank] = row;
            }
            if let Some(span) = &span {
                span.set_rows(out.len() as u64);
                span.annotate("k", &k.to_string());
            }
            out
        })
    }
}

/// Output rows for the batch's selected rows, in selection order. Bare
/// column outputs (`bare_columns`: the scanned column behind each output)
/// move their gathered values into the rows; otherwise the expressions
/// evaluate over each selected row's scanned values.
fn build_rows(
    batch: &ColumnBatch<'_>,
    projections: &[BoundExpr],
    bare_columns: Option<&[usize]>,
) -> Vec<Row> {
    let Some(columns) = bare_columns else {
        return batch
            .materialize()
            .iter()
            .map(|scanned| Row::new(projections.iter().map(|p| p.eval(scanned)).collect()))
            .collect();
    };
    let mut gathered: Vec<_> = columns
        .iter()
        .map(|&c| batch.gather(c).into_iter())
        .collect();
    (0..batch.num_selected())
        .map(|_| {
            Row::new(
                gathered
                    .iter_mut()
                    .map(|column| column.next().expect("one gathered value per selected row"))
                    .collect(),
            )
        })
        .collect()
}

/// The first `k` of `n` positions under a stable sort by `cmp`, in sorted
/// order. Ties keep position order: the position itself is the last key,
/// which makes the order total, so a partial selection plus a sort of the
/// `k` winners picks exactly what a full stable sort would. The one top-k
/// selection of the fused scan and the row chain's `topk_rows`.
pub(crate) fn first_k(n: usize, k: usize, cmp: impl Fn(usize, usize) -> Ordering) -> Vec<u32> {
    let cmp = |a: &u32, b: &u32| cmp(*a as usize, *b as usize).then(a.cmp(b));
    if k == 0 {
        return Vec::new();
    }
    let mut positions: Vec<u32> = (0..n as u32).collect();
    if k < n {
        positions.select_nth_unstable_by(k, cmp);
        positions.truncate(k);
    }
    positions.sort_unstable_by(cmp);
    positions
}

/// Scan of a table straight from its base generator (the "on HDFS" path used
/// by "Shark (disk)" and the Hive baseline), over all its partitions.
pub(crate) fn dfs_scan(
    ctx: &RddContext,
    table: Arc<TableMeta>,
    projection: Vec<usize>,
    filters: Vec<BoundExpr>,
) -> Rdd<Row> {
    // Skipping the projection is only sound when it is the identity
    // mapping: a full-width *reorder* (e.g. [2, 0, 1]) has the same length
    // as the schema but must still permute every row.
    let is_identity = projection.len() == table.schema.len()
        && projection.iter().enumerate().all(|(i, &c)| i == c);
    let name = format!("dfs_scan({})", table.name);
    ctx.source(&name, table.num_partitions, move |partition, metrics| {
        // Prefer a demoted partition over regenerating from the base data
        // (the fetch puts it back into the memtable).
        let spilled = table
            .cached
            .as_ref()
            .filter(|mem| !mem.is_loaded(partition))
            .and_then(|mem| mem.spill_fetch(&table.name, partition, table.version()));
        let rows = match &spilled {
            Some((spilled, io_bytes)) => {
                let rows = spilled.to_rows();
                metrics.record_input(rows.len() as u64, *io_bytes, InputSource::Dfs);
                rows
            }
            None => {
                let rows = (table.base)(partition);
                // Reading from the DFS pays for every column of every row.
                let bytes = estimate_slice(&rows) as u64;
                metrics.record_input(rows.len() as u64, bytes, InputSource::Dfs);
                rows
            }
        };
        metrics.add_ops(rows.len() as f64); // field extraction
        let mut out: Vec<Row> = if is_identity {
            rows
        } else {
            rows.iter().map(|r| r.project(&projection)).collect()
        };
        apply_filters(&mut out, &filters, metrics);
        Ok(out)
    })
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
    use crate::aggregate::partial_aggregate_rows;
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
        let rdd = CachedScan::new(
            meta.clone(),
            meta.cached.clone().unwrap(),
            vec![1, 4],
            projection,
            vec![],
        )
        .rows(&ctx, true);
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
        let rdd = CachedScan::new(
            meta.clone(),
            meta.cached.clone().unwrap(),
            (0..meta.num_partitions).collect(),
            vec![0, 1, 2],
            vec![],
        )
        .rows(&ctx, true);
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
        let rdd = CachedScan::new(
            meta.clone(),
            meta.cached.clone().unwrap(),
            (0..meta.num_partitions).collect(),
            vec![0, 1, 2],
            vec![],
        )
        .rows(&ctx, true);
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
                let rdd = CachedScan::new(
                    meta.clone(),
                    meta.cached.clone().unwrap(),
                    (0..meta.num_partitions).collect(),
                    projection.clone(),
                    filters.clone(),
                )
                .rows(&ctx, vectorized);
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
        let rdd = CachedScan::new(
            meta.clone(),
            meta.cached.clone().unwrap(),
            (0..meta.num_partitions).collect(),
            projection.clone(),
            filters.clone(),
        )
        .partial_aggregate(&ctx, &group, aggs.clone(), 3.0);
        let fused = rdd.collect().unwrap();

        // Reference: per-partition row scan, then the row path's fold.
        assert_eq!(fused.len(), meta.num_partitions);
        for (p, block) in fused.into_iter().enumerate() {
            let rows: Vec<Row> = (meta.base)(p)
                .iter()
                .map(|r| r.project(&projection))
                .filter(|r| filters.iter().all(|f| f.eval_predicate(r)))
                .collect();
            let reference = partial_aggregate_rows(&rows, &group, &aggs);
            assert_eq!(block.into_rows(), reference.into_rows(), "partition {p}");
        }
    }

    #[test]
    fn fused_aggregate_emits_at_most_one_pair_per_key_in_every_encoding() {
        use crate::aggregate::AggFunc;
        use shark_columnar::EncodingKind;
        use shark_common::Value;
        // 300 rows per partition: `ip` has too many distinct values for a
        // dictionary (plain), `region` few (dictionary), `tier` long runs
        // (run-length); `n` is an int with NULLs and `x` a float whose keys
        // include NULL, -0.0 and 0.0 (one group under `Value`'s equality).
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("ip", DataType::Str),
            ("region", DataType::Str),
            ("tier", DataType::Str),
            ("n", DataType::Int),
            ("x", DataType::Float),
        ]);
        let meta = Arc::new(
            TableMeta::new("mixed", schema, 4, |p| {
                (0..300usize)
                    .map(|i| {
                        let id = p * 300 + i;
                        let n = if id.is_multiple_of(9) {
                            Value::Null
                        } else {
                            Value::Int((id % 5) as i64)
                        };
                        let x = match id % 4 {
                            0 => Value::Float(-0.0),
                            1 => Value::Float(0.0),
                            2 => Value::Null,
                            _ => Value::Float(1.5),
                        };
                        Row::new(vec![
                            Value::Int(id as i64),
                            Value::str(format!("10.0.{}", (id * 7919) % 280)),
                            Value::str(["us", "eu", "apac"][(id * 31 + id / 7) % 3]),
                            Value::str(["gold", "silver", "bronze"][(id / 50) % 3]),
                            n,
                            x,
                        ])
                    })
                    .collect()
            })
            .with_cache(3),
        );
        load(&meta);
        let part = meta.cached.as_ref().unwrap().get(0).unwrap();
        assert_eq!(part.encoding(1), EncodingKind::Plain);
        assert_eq!(part.encoding(2), EncodingKind::Dictionary);
        assert_eq!(part.encoding(3), EncodingKind::RunLength);

        let projection: Vec<usize> = (0..6).collect();
        let projected = meta.schema.project(&projection);
        let aggs = vec![AggExpr {
            func: AggFunc::Count,
            arg: None,
        }];
        let grouped_by = |exprs: &[&str]| -> Vec<BoundExpr> {
            exprs.iter().map(|e| bind_filter(e, &projected)).collect()
        };
        for (keys, filter) in [
            (vec!["ip"], None),
            (vec!["region"], None),
            (vec!["tier"], None),
            (vec!["region", "tier"], None),
            (vec!["n * 2"], None),
            (vec!["n", "x"], None),
            (vec![], None),
            // Empties partitions 1 and 3 (ids 300..599 and 900..1199).
            (vec!["region"], Some("id % 600 < 100")),
        ] {
            let filters: Vec<BoundExpr> =
                filter.iter().map(|f| bind_filter(f, &projected)).collect();
            let rdd = CachedScan::new(
                meta.clone(),
                meta.cached.clone().unwrap(),
                (0..meta.num_partitions).collect(),
                projection.clone(),
                filters,
            )
            .partial_aggregate(
                &RddContext::local(),
                &grouped_by(&keys),
                aggs.clone(),
                2.0,
            );
            let per_partition = rdd
                .map_partitions_with_index(|p, blocks| {
                    // Each group's row is its key, then its count.
                    let rows: Vec<Row> =
                        blocks.into_iter().flat_map(GroupBlock::into_rows).collect();
                    let distinct: std::collections::HashSet<&[Value]> =
                        rows.iter().map(|r| &r.values()[..r.len() - 1]).collect();
                    vec![(p, rows.len(), distinct.len())]
                })
                .collect()
                .unwrap();
            assert_eq!(per_partition.len(), meta.num_partitions, "{keys:?}");
            for (p, total, distinct) in per_partition {
                assert_eq!(total, distinct, "{keys:?} {filter:?}: partition {p}");
                if filter.is_some() && p % 2 == 1 {
                    assert_eq!(total, 0, "{keys:?} {filter:?}: partition {p}");
                }
            }
        }
    }

    #[test]
    fn topk_sort_charge_is_what_the_bounded_buffer_sorts() {
        for k in 0..7usize {
            for n in 0..40usize {
                // The 2k buffer of the row chain's top-k, counting rows.
                let mut charged = 0u64;
                if k > 0 {
                    let mut buffered = 0usize;
                    for _ in 0..n {
                        buffered += 1;
                        if buffered >= 2 * k {
                            charged += buffered as u64;
                            buffered = k;
                        }
                    }
                    charged += buffered as u64;
                }
                assert_eq!(topk_sort_rows(n, k), charged, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn fused_topk_scan_matches_the_row_chain_rows_and_charges() {
        let meta = Arc::new(table());
        load(&meta);
        let projection = vec![0usize, 1, 2];
        let projected = meta.schema.project(&projection);
        let filters = vec![bind_filter("metric >= 4.0", &projected)];
        // An expression beside the keys, and bare columns (one repeated):
        // (metric * 2 > 30, country, metric) and (metric, country, metric).
        let projection_lists = [
            vec![
                bind_filter("metric * 2.0 > 30.0", &projected),
                BoundExpr::Column(1),
                BoundExpr::Column(2),
            ],
            vec![
                BoundExpr::Column(2),
                BoundExpr::Column(1),
                BoundExpr::Column(2),
            ],
        ];
        // country DESC, then metric: output and scanned columns coincide.
        let keys = vec![(1usize, true), (2usize, false)];
        let ctx = RddContext::local();
        let partitions: Vec<usize> = (0..meta.num_partitions).collect();
        let scan = || {
            CachedScan::new(
                meta.clone(),
                meta.cached.clone().unwrap(),
                partitions.clone(),
                projection.clone(),
                filters.clone(),
            )
        };
        let rows = scan().rows(&ctx, false);
        let cases = projection_lists
            .iter()
            .flat_map(|projections| [0usize, 3, 21, 42, 100].map(|k| (projections, k)));
        for (projections, k) in cases {
            let project_ops: f64 = projections.iter().map(BoundExpr::op_count).sum();
            let fused = scan().top_k(
                &ctx,
                projections.clone(),
                project_ops.max(0.5),
                keys.clone(),
                k,
            );
            for p in 0..partitions.len() {
                let mut expected_metrics = TaskMetrics::new();
                let scanned = rows
                    .compute_partition(&ctx, p, &mut expected_metrics)
                    .unwrap();
                let n = scanned.len();
                expected_metrics.add_ops(n as f64 * project_ops.max(0.5));
                expected_metrics.add_sort(topk_sort_rows(n, k));
                let mut expected: Vec<Row> = scanned
                    .iter()
                    .map(|r| Row::new(projections.iter().map(|e| e.eval(r)).collect()))
                    .collect();
                expected.sort_by(|a, b| {
                    b.get(1)
                        .total_cmp(a.get(1))
                        .then(a.get(2).total_cmp(b.get(2)))
                });
                expected.truncate(k);

                let mut metrics = TaskMetrics::new();
                let out = fused.compute_partition(&ctx, p, &mut metrics).unwrap();
                assert_eq!(out, expected, "k={k} partition {p}");
                assert_eq!(
                    (metrics.rows_in, metrics.bytes_in, metrics.sort_rows),
                    (
                        expected_metrics.rows_in,
                        expected_metrics.bytes_in,
                        expected_metrics.sort_rows
                    ),
                    "k={k} partition {p}"
                );
                assert_eq!(metrics.ops.to_bits(), expected_metrics.ops.to_bits());
            }
        }
    }

    #[test]
    fn dfs_scan_applies_full_width_reorders() {
        // Regression: a projection covering every column but in a different
        // order used to be skipped entirely (the `len == schema.len()` fast
        // path), returning columns in table order.
        let ctx = RddContext::local();
        let meta = Arc::new(table());
        let rdd = dfs_scan(&ctx, meta.clone(), vec![2, 1, 0], vec![]);
        let rows = rdd.collect().unwrap();
        assert_eq!(rows.len(), 6 * 50);
        // Output order must be (metric, country, day), not table order.
        let first = &rows[0];
        assert!(first.get_float(0).is_ok(), "metric first: {first:?}");
        assert_eq!(first.get_str(1).unwrap().as_ref(), "US");
        assert_eq!(first.get_int(2).unwrap(), 0);
        // The true identity projection still passes rows through unchanged.
        let rdd = dfs_scan(&ctx, meta, vec![0, 1, 2], vec![]);
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
        let rdd = dfs_scan(&ctx, meta.clone(), projection, filters);
        assert_eq!(rdd.num_partitions(), 6);
        let rows = rdd.collect().unwrap();
        assert_eq!(rows.len(), 3 * 50);
        assert!(rows.iter().all(|r| r.get_str(1).unwrap().as_ref() == "US"));
    }
}
