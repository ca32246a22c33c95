//! The physical executor: turns a [`QueryPlan`] into RDD operations and runs
//! them on the simulated cluster.
//!
//! Three execution modes reproduce the three systems compared throughout the
//! paper's evaluation:
//!
//! * **Shark** ([`ExecConfig::shark`]) — columnar memstore scans with map
//!   pruning, Partial DAG Execution for join-strategy selection and reducer
//!   coalescing, broadcast (map) joins, co-partitioned joins.
//! * **Shark (disk)** ([`ExecConfig::shark_disk`]) — the same engine reading
//!   the base data from the simulated DFS instead of the memstore.
//! * **Hive** ([`ExecConfig::hive`]) — static plans, fixed reducer counts, no
//!   broadcast decisions, run under the Hadoop cost profile (high task
//!   launch overhead, sort-based disk shuffle, inter-job DFS
//!   materialization).
//!
//! One builder, `build`, chooses every operator of a statement, streamed
//! ([`execute_stream`]) or left as an RDD ([`build_pipeline`], which applies
//! no ORDER BY): a memstore or DFS scan per table, a fused scan when one
//! vectorized memstore scan can absorb the aggregation or the top-k, and
//! the operator chain (joins, residual filter, aggregation or projection)
//! otherwise. It also keeps the statement's ledger of simulated seconds.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shark_cluster::{DfsModel, OutputSink};
use shark_columnar::ColumnarPartition;
use shark_common::hash::hash_partition;
use shark_common::size::estimate_slice;
use shark_common::{Result, Row, Schema, SharkError, Value};
use shark_rdd::{PipelinedJob, Rdd, RddContext, Shuffle, ShuffleRead, StageReport, TaskMetrics};

use crate::aggregate::{partial_aggregate_rows, GroupBlock, GroupFold};
use crate::catalog::{CatalogSnapshot, TableMeta};
use crate::expr::BoundExpr;
use crate::pde::{
    choose_join_strategy, coalesce_buckets, JoinStrategy, MAX_REDUCERS, TARGET_PARTITION_BYTES,
};
use crate::plan::{AggregateNode, QueryPlan, ScanNode};
use crate::scan::{dfs_scan, first_k, prune_partitions, CachedScan};
use crate::vector::note_scalar_adapter;

/// Which engine the executor should emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// The Shark engine.
    Shark {
        /// Enable Partial DAG Execution (run-time join selection, reducer
        /// coalescing). Disabling it gives the "static plan" ablation.
        pde: bool,
        /// Read cached tables from the columnar memstore. Disabling it gives
        /// the "Shark (disk)" series.
        use_memstore: bool,
    },
    /// The Hive/Hadoop baseline: static plans, fixed reducers, no memstore.
    Hive,
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Engine mode.
    pub mode: ExecutionMode,
    /// Reducer count used by static plans (Hive is very sensitive to this,
    /// §6.3).
    pub default_reducers: usize,
    /// Number of fine-grained map-output buckets PDE materializes before
    /// deciding the reduce-side plan.
    pub fine_buckets: usize,
    /// Broadcast threshold in (in-process) bytes for map-join selection.
    pub broadcast_threshold: u64,
    /// §6.3.2 "static + adaptive": pre-shuffle only the side the static
    /// optimizer predicts to be small, avoiding map tasks on the large table
    /// when a map join is chosen.
    pub pde_prioritize_small_side: bool,
    /// How many result partitions a [`QueryStream`] may execute ahead of the
    /// consumer (0 = serial: each partition runs inside `next_batch`).
    pub stream_prefetch: usize,
    /// Batch-at-a-time execution over the compressed columnar encodings
    /// (selection vectors, compiled expression kernels, once-per-entry
    /// evaluation over dictionary and run-length columns, late
    /// materialization). Off falls back to the decode-then-filter row
    /// path; both produce byte-identical results.
    pub vectorized: bool,
}

impl ExecConfig {
    /// Full Shark configuration (memstore + PDE + static analysis).
    pub fn shark() -> ExecConfig {
        ExecConfig {
            mode: ExecutionMode::Shark {
                pde: true,
                use_memstore: true,
            },
            default_reducers: 64,
            fine_buckets: 256,
            broadcast_threshold: 4 * 1024 * 1024,
            pde_prioritize_small_side: true,
            stream_prefetch: 2,
            vectorized: true,
        }
    }

    /// Shark reading from disk (no memstore).
    pub fn shark_disk() -> ExecConfig {
        ExecConfig {
            mode: ExecutionMode::Shark {
                pde: true,
                use_memstore: false,
            },
            ..ExecConfig::shark()
        }
    }

    /// Shark with PDE disabled (static plans) — the ablation baseline of
    /// Figure 8.
    pub fn shark_static() -> ExecConfig {
        ExecConfig {
            mode: ExecutionMode::Shark {
                pde: false,
                use_memstore: true,
            },
            ..ExecConfig::shark()
        }
    }

    /// The Hive baseline: static plans over DFS scans, which read none of
    /// the PDE, broadcast or vectorized settings.
    pub fn hive() -> ExecConfig {
        ExecConfig {
            mode: ExecutionMode::Hive,
            stream_prefetch: 0,
            ..ExecConfig::shark()
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::shark()
    }
}

/// The result of executing a query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result schema.
    pub schema: Schema,
    /// Result rows (ordered if the query had ORDER BY).
    pub rows: Vec<Row>,
    /// Simulated execution time in seconds: the sum of the jobs (PDE
    /// pre-shuffles, broadcast collects, the result job) and fixed charges
    /// this statement caused — not a difference of the shared clock, and
    /// the same whether the result was collected or streamed.
    pub sim_seconds: f64,
    /// Wall-clock execution time of the scaled-down run.
    pub real_seconds: f64,
    /// Human-readable description of the plan.
    pub plan: String,
    /// Run-time decisions taken (join strategy, pruning, coalescing, …).
    pub notes: Vec<String>,
}

/// A query result left as an RDD (the `sql2rdd` API of §4.1).
pub struct TableRdd {
    /// The rows of the query result.
    pub rdd: Rdd<Row>,
    /// Their schema.
    pub schema: Schema,
    /// Run-time decisions taken while building the pipeline.
    pub notes: Vec<String>,
    /// Simulated seconds building the pipeline already cost (PDE's jobs
    /// and the fixed charges): where the statement's ledger starts.
    pub sim_seconds: f64,
    /// When the whole pipeline is a narrow chain over one memstore scan
    /// (result partition `i` is exactly scan partition `selected[i]`), the
    /// scan's identity — what top-k pushdown needs to consult partition
    /// statistics.
    pub(crate) single_scan: Option<SingleScanInfo>,
    /// The catalog snapshot the plan was resolved against, pinned so that
    /// deferred reclamation of dropped tables waits for this pipeline
    /// (`sql2rdd` results may be consumed long after planning).
    pub(crate) snapshot: Option<Arc<CatalogSnapshot>>,
}

/// Identity of the lone memstore scan feeding a narrow result pipeline.
pub(crate) struct SingleScanInfo {
    pub(crate) table: Arc<TableMeta>,
    /// Original table-partition indices, aligned with result partitions.
    pub(crate) selected: Vec<usize>,
    /// Original column index of each projected column.
    pub(crate) projection: Vec<usize>,
}

/// Report of loading a table into the memstore (§3.3, §6.2.4).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Table name.
    pub table: String,
    /// Simulated load time in seconds.
    pub sim_seconds: f64,
    /// Uncompressed input bytes (in-process scale).
    pub input_bytes: u64,
    /// Columnar, compressed bytes stored in the memstore.
    pub stored_bytes: u64,
    /// Rows loaded.
    pub rows: u64,
    /// Partitions this call actually loaded (0 means everything was already
    /// resident — a pure cache hit).
    pub newly_loaded_partitions: usize,
}

/// Estimate the in-process serialized size of a table by sampling its first
/// partition (used by the static side of join planning and the Hive
/// intermediate-materialization charge).
pub fn estimate_table_bytes(table: &TableMeta) -> u64 {
    let sample = (table.base)(0);
    let per = estimate_slice(&sample) as u64;
    per * table.num_partitions as u64
}

/// Load a cached table's partitions into its memstore, recording the load
/// stage as a job (`load(<table>)`) on the simulated cluster. Safe to call
/// repeatedly (already loaded partitions are skipped).
pub fn load_table(ctx: &RddContext, table: &Arc<TableMeta>) -> Result<LoadReport> {
    let mem = table.cached.clone().ok_or_else(|| {
        SharkError::Execution(format!("table '{}' is not marked as cached", table.name))
    })?;
    let wall = Instant::now();
    let scale = ctx.config().sim_scale;
    let cost_model = ctx.cost_model().clone();
    let mut stage = StageReport {
        name: "load".to_string(),
        ..StageReport::default()
    };
    for p in 0..table.num_partitions {
        if mem.is_loaded(p) {
            continue;
        }
        let rows = (table.base)(p);
        let bytes = estimate_slice(&rows) as u64;
        stage.bytes_in += bytes;
        stage.rows_in += rows.len() as u64;
        let columnar = Arc::new(ColumnarPartition::from_rows(&table.schema, &rows));
        let cost = shark_cluster::TaskCostInput::new(
            (rows.len() as f64 * scale) as u64,
            (bytes as f64 * scale) as u64,
            (rows.len() as f64 * scale) as u64,
            (columnar.memory_bytes() as f64 * scale) as u64,
            shark_cluster::InputSource::Dfs,
            shark_cluster::OutputSink::Memory,
            4.0,
        );
        stage.tasks.push(shark_cluster::TaskSpec::new(
            cost_model.task_duration(&cost),
        ));
        mem.put(p, columnar);
    }
    let (input_bytes, rows, newly_loaded) = (stage.bytes_in, stage.rows_in, stage.tasks.len());
    let name = format!("load({})", table.name);
    Ok(LoadReport {
        table: table.name.clone(),
        sim_seconds: ctx.record_job(&name, vec![stage], wall.elapsed().as_secs_f64()),
        input_bytes,
        stored_bytes: mem.memory_bytes(),
        rows,
        newly_loaded_partitions: newly_loaded,
    })
}

/// Execute a plan fully: drain its [`QueryStream`] on the calling thread.
/// A blocking caller holds no prefetch grant, so nothing runs ahead of it:
/// which thread computes (and allocates) the rows does not depend on a race
/// between the consumer and the executor's workers.
pub fn execute(ctx: &RddContext, plan: &QueryPlan, cfg: &ExecConfig) -> Result<QueryResult> {
    execute_stream(ctx, plan, cfg)?
        .with_prefetch(0)
        .into_result()
}

/// Default number of rows per batch emitted by a [`QueryStream`].
pub const DEFAULT_STREAM_BATCH_ROWS: usize = 1024;

/// What a [`QueryStream`] has delivered so far.
#[derive(Debug, Clone, Default)]
pub struct StreamProgress {
    /// Rows handed to the consumer.
    pub rows_streamed: u64,
    /// Result-stage partitions actually executed.
    pub partitions_streamed: usize,
    /// Partitions the full result stage has (a LIMIT stream may finish
    /// having executed fewer).
    pub partitions_total: usize,
    /// Wall-clock time from opening the stream until the first row was
    /// delivered. `None` until then.
    pub time_to_first_row: Option<Duration>,
    /// Partitions delivered when the first row was; `None` until then.
    pub partitions_at_first_row: Option<usize>,
    /// Batch deliveries that found their partition already computed by a
    /// prefetch worker (the consumer never waited for the task to start).
    pub prefetch_hits: u64,
}

/// A cursor over a query's result: row batches are delivered as partitions
/// finish instead of materializing the whole result set on the driver — the
/// paper's interactivity story (§2) taken to its conclusion.
///
/// * Without ORDER BY, partitions deliver in order, each producing one
///   batch; a LIMIT terminates the stream — and stops launching partition
///   tasks — as soon as enough rows have been delivered.
/// * With ORDER BY, every partition is sorted inside its own task (the sort
///   is charged to that task's simulated cost) and the driver k-way-merges
///   the sorted runs, emitting batches of at most `batch_size` rows; LIMIT
///   stops the merge after the first `k` rows.
/// * With ORDER BY **and** LIMIT `k` — top-k pushdown: each partition task
///   keeps only its `k` best rows in a bounded buffer instead of sorting
///   everything, and when the scan's partition statistics cover the sort
///   key, partitions execute best-bound first and the stream stops
///   launching partitions once `k` delivered rows provably beat every
///   unexecuted partition's bound.
///
/// Independently of the delivery mode, a prefetch depth `n ≥ 1` (see
/// [`ExecConfig::stream_prefetch`] / [`QueryStream::with_prefetch`]) lets a
/// bounded worker pool execute up to `n` partitions ahead of the consumer;
/// delivery order, results and simulated seconds are identical to the
/// serial path, only wall-clock time changes.
pub struct QueryStream {
    /// Trace context captured at stream creation: batch deliveries (which
    /// happen later, often from another thread) re-attach it so their
    /// spans join the query's trace.
    trace: Option<shark_obs::TraceContext>,
    job: PipelinedJob<Row, Vec<Row>>,
    /// See [`TableRdd::sim_seconds`].
    sim_base: f64,
    schema: Schema,
    plan_desc: String,
    notes: Vec<String>,
    order_by: Vec<(usize, bool)>,
    /// Rows still to emit under LIMIT (`None` = unlimited).
    remaining: Option<usize>,
    /// Sorted runs gathered for the ORDER BY path, as
    /// `(partition, rows, cursor)`, kept sorted by partition index so the
    /// merge breaks ties exactly like one stable sort of the partitions'
    /// rows in partition order would.
    runs: Vec<(usize, Vec<Row>, usize)>,
    /// ORDER BY only: whether every needed run has been gathered.
    gathered: bool,
    /// Top-k skip rule: per planned-position key bound (the partition's
    /// stat min for ASC / max for DESC). `None` disables partition
    /// skipping.
    skip_bounds: Option<Vec<Value>>,
    batch_size: usize,
    wall: Instant,
    progress: StreamProgress,
    /// Whether the effective prefetch depth has been noted (deferred to the
    /// first batch because a serving layer may clamp the depth after
    /// construction).
    prefetch_noted: bool,
    /// The catalog snapshot this cursor's plan was resolved against. Held
    /// until the stream closes, so a table dropped mid-stream keeps its
    /// memstore resident (deferred reclamation) and the cursor drains
    /// byte-identical to a snapshot-time blocking query.
    snapshot: Option<Arc<CatalogSnapshot>>,
    /// When the pipeline is a narrow chain over one memstore scan: the
    /// scanned table's name plus, aligned with result partitions, the
    /// original table partition each result partition reads. Lets serving
    /// layers pin only the partitions a cursor has actually consumed.
    scan_pin: Option<(String, Vec<usize>)>,
    /// Original table partitions whose result partition has been executed
    /// and delivered to this cursor, in delivery order.
    delivered_scan: Vec<usize>,
    done: bool,
}

/// Compare two rows under an ORDER BY key list.
fn compare_rows(a: &Row, b: &Row, keys: &[(usize, bool)]) -> std::cmp::Ordering {
    for (col, desc) in keys {
        let ord = a.get(*col).total_cmp(b.get(*col));
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

impl QueryStream {
    /// The result schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Human-readable plan description.
    pub fn plan(&self) -> &str {
        &self.plan_desc
    }

    /// Run-time decisions taken while building and running the pipeline.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Delivery progress so far.
    pub fn progress(&self) -> &StreamProgress {
        &self.progress
    }

    /// Whether the stream has delivered everything it will deliver. True as
    /// soon as the batch that emptied the plan has been handed out — a
    /// consumer can tell the last batch from a middle one without asking
    /// for another.
    pub fn is_exhausted(&self) -> bool {
        self.done
    }

    /// Whether nothing is left to deliver: every planned partition has been
    /// delivered and, on the ORDER BY path, every gathered run is spent.
    fn plan_is_spent(&self) -> bool {
        if self.order_by.is_empty() {
            self.job.delivered() >= self.job.planned()
        } else {
            self.gathered
                && self
                    .runs
                    .iter()
                    .all(|(_, rows, cursor)| *cursor >= rows.len())
        }
    }

    /// Simulated seconds this statement caused (see
    /// [`QueryResult::sim_seconds`]). Final once the stream is exhausted or
    /// cancelled; while it is open, a preview of what stopping now would
    /// record.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_base + self.job.sim_seconds()
    }

    /// Simulated seconds to the first row: what the statement would have
    /// cost had it stopped after the partitions delivered by then.
    pub fn sim_seconds_to_first_row(&self) -> Option<f64> {
        let delivered = self.progress.partitions_at_first_row?;
        Some(self.sim_base + self.job.sim_seconds_after(delivered))
    }

    /// Set the maximum rows per merged batch (ORDER BY path; unordered
    /// streams emit one batch per partition).
    pub fn with_batch_size(mut self, rows: usize) -> QueryStream {
        self.batch_size = rows.max(1);
        self
    }

    /// Override the prefetch depth ([`ExecConfig::stream_prefetch`] is the
    /// default): how many result partitions may execute ahead of the
    /// consumer. 0 = serial. Only honored before the first batch.
    pub fn with_prefetch(mut self, depth: usize) -> QueryStream {
        self.job.set_prefetch(depth);
        self
    }

    /// The effective prefetch depth.
    pub fn prefetch(&self) -> usize {
        self.job.prefetch()
    }

    /// Attach the pinned catalog snapshot this stream's plan was resolved
    /// against (set by `SqlSession`; released when the stream closes).
    pub(crate) fn with_snapshot(mut self, snapshot: Arc<CatalogSnapshot>) -> QueryStream {
        self.snapshot = Some(snapshot);
        self
    }

    /// The table this stream scans, when the whole pipeline is a narrow
    /// chain over a single memstore scan. Serving layers use this with
    /// [`QueryStream::delivered_scan_partitions`] to pin at partition
    /// granularity instead of holding the whole table for the cursor's
    /// lifetime.
    pub fn single_scan_table(&self) -> Option<&str> {
        self.scan_pin.as_ref().map(|(name, _)| name.as_str())
    }

    /// Original table partitions (of [`QueryStream::single_scan_table`])
    /// whose result partition has been executed and delivered, in delivery
    /// order. Empty for multi-table or aggregated pipelines.
    pub fn delivered_scan_partitions(&self) -> &[usize] {
        &self.delivered_scan
    }

    /// Advance the underlying job and record which original table
    /// partition the delivered result partition read.
    fn job_next(&mut self) -> Result<Option<(usize, Vec<Row>)>> {
        let next = self.job.next()?;
        if let (Some((partition, _)), Some((_, selected))) = (&next, &self.scan_pin) {
            if let Some(&original) = selected.get(*partition) {
                self.delivered_scan.push(original);
            }
        }
        Ok(next)
    }

    /// Produce the next batch of rows, or `None` when the stream is
    /// exhausted. Empty partitions are skipped, so a returned batch is
    /// never empty.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Row>>> {
        if self.done {
            return Ok(None);
        }
        let _attach = if shark_obs::active() {
            self.trace.as_ref().map(|t| t.attach())
        } else {
            None
        };
        let deliver_span = shark_obs::span("stream-deliver");
        if !self.prefetch_noted {
            self.prefetch_noted = true;
            if self.job.prefetch() > 0 {
                self.notes.push(format!(
                    "prefetch: up to {} partitions ahead of the cursor",
                    self.job.prefetch()
                ));
            }
        }
        if self.remaining == Some(0) {
            self.finish_stream();
            return Ok(None);
        }
        let batch = if self.order_by.is_empty() {
            self.next_unordered_batch()
        } else {
            self.next_merged_batch()
        };
        let batch = match batch {
            Ok(batch) => batch,
            Err(err) => {
                // Latch the failure: a retried next_batch() must not resume
                // past the failed partition (silently dropping its rows) or
                // re-materialize every ORDER BY run from scratch.
                self.done = true;
                self.job.finish();
                return Err(err);
            }
        };
        self.progress.prefetch_hits = self.job.prefetch_hits();
        match batch {
            Some(rows) => {
                if let Some(span) = &deliver_span {
                    span.set_rows(rows.len() as u64);
                }
                if self.progress.time_to_first_row.is_none() {
                    self.progress.time_to_first_row = Some(self.wall.elapsed());
                    self.progress.partitions_at_first_row = Some(self.job.delivered());
                }
                self.progress.rows_streamed += rows.len() as u64;
                if let Some(remaining) = self.remaining.as_mut() {
                    *remaining -= rows.len().min(*remaining);
                }
                if self.remaining == Some(0) || self.plan_is_spent() {
                    self.finish_stream();
                }
                Ok(Some(rows))
            }
            None => {
                self.finish_stream();
                Ok(None)
            }
        }
    }

    /// Stop the stream now: cancel any prefetch workers still running, join
    /// them (so no task outlives the call), and record the job report.
    /// Subsequent [`QueryStream::next_batch`] calls return `Ok(None)`.
    /// Idempotent; dropping the stream does the same.
    pub fn cancel(&mut self) {
        self.finish_stream();
    }

    /// Drain the stream into a fully materialized [`QueryResult`].
    pub fn into_result(mut self) -> Result<QueryResult> {
        let mut rows = Vec::new();
        while let Some(batch) = self.next_batch()? {
            rows.extend(batch);
        }
        Ok(QueryResult {
            schema: self.schema.clone(),
            rows,
            sim_seconds: self.sim_seconds(),
            real_seconds: self.wall.elapsed().as_secs_f64(),
            plan: self.plan_desc.clone(),
            notes: self.notes.clone(),
        })
    }

    /// One batch from the unordered path: the next non-empty partition's
    /// rows, truncated to the remaining LIMIT budget.
    fn next_unordered_batch(&mut self) -> Result<Option<Vec<Row>>> {
        while let Some((_partition, rows)) = self.job_next()? {
            self.progress.partitions_streamed += 1;
            if rows.is_empty() {
                continue;
            }
            let mut rows = rows;
            if let Some(remaining) = self.remaining {
                rows.truncate(remaining);
            }
            return Ok(Some(rows));
        }
        Ok(None)
    }

    /// Rows buffered so far whose first sort key sorts strictly before
    /// `bound` — the certificate the top-k skip rule needs.
    fn buffered_rows_beating(&self, bound: &Value) -> usize {
        let (col, desc) = self.order_by[0];
        self.runs
            .iter()
            .flat_map(|(_, rows, _)| rows.iter())
            .filter(|row| {
                let ord = row.get(col).total_cmp(bound);
                if desc {
                    ord == std::cmp::Ordering::Greater
                } else {
                    ord == std::cmp::Ordering::Less
                }
            })
            .count()
    }

    /// One batch from the ORDER BY path: gather per-partition sorted runs
    /// (stopping early when the top-k skip rule proves the rest can never
    /// contribute), then merge up to `batch_size` rows.
    fn next_merged_batch(&mut self) -> Result<Option<Vec<Row>>> {
        if !self.gathered {
            loop {
                if let (Some(bounds), Some(k)) = (&self.skip_bounds, self.remaining) {
                    let pos = self.job.delivered();
                    // Planned order is sorted by bound, so beating the next
                    // partition's bound k times beats every later one too.
                    if pos < bounds.len() && k > 0 && self.buffered_rows_beating(&bounds[pos]) >= k
                    {
                        self.notes.push(format!(
                            "top-k pushdown: skipped {} result partitions via partition statistics",
                            self.job.planned() - pos
                        ));
                        if shark_obs::active() {
                            shark_obs::event(
                                "top-k-skip",
                                &[("skipped", &(self.job.planned() - pos).to_string())],
                            );
                        }
                        break;
                    }
                }
                let Some((partition, rows)) = self.job_next()? else {
                    break;
                };
                self.progress.partitions_streamed += 1;
                if rows.is_empty() {
                    continue;
                }
                // Keep runs ordered by partition index: the merge's tie-break
                // must match a stable sort of the rows in partition order.
                let at = self
                    .runs
                    .partition_point(|(existing, _, _)| *existing < partition);
                self.runs.insert(at, (partition, rows, 0usize));
            }
            self.gathered = true;
        }
        let budget = self
            .remaining
            .unwrap_or(usize::MAX)
            .min(self.batch_size)
            .max(1);
        let mut out = Vec::new();
        while out.len() < budget {
            // Pick the run whose head row sorts first (k is small: the
            // linear scan beats heap bookkeeping at simulation scale). Ties
            // go to the earliest partition, matching the stable sort.
            let mut best: Option<usize> = None;
            for (i, (_, rows, cursor)) in self.runs.iter().enumerate() {
                if *cursor >= rows.len() {
                    continue;
                }
                best = match best {
                    None => Some(i),
                    Some(j) => {
                        let (_, jrows, jcur) = &self.runs[j];
                        if compare_rows(&rows[*cursor], &jrows[*jcur], &self.order_by)
                            == std::cmp::Ordering::Less
                        {
                            Some(i)
                        } else {
                            Some(j)
                        }
                    }
                };
            }
            match best {
                Some(i) => {
                    let (_, rows, cursor) = &mut self.runs[i];
                    // Rows behind a cursor are never read again (the skip
                    // rule only counts runs before they are all gathered).
                    out.push(std::mem::take(&mut rows[*cursor]));
                    *cursor += 1;
                }
                None => break,
            }
        }
        if out.is_empty() {
            Ok(None)
        } else {
            Ok(Some(out))
        }
    }

    /// Mark the stream exhausted, note an early stop if one happened, and
    /// record the job report.
    fn finish_stream(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        self.progress.prefetch_hits = self.job.prefetch_hits();
        let total = self.progress.partitions_total;
        if self.progress.partitions_streamed < total {
            // Only claim "limit satisfied" when the limit actually ran out;
            // streams also stop early on statistics-proven top-k skips,
            // empty partitions left out of the plan, or cancellation.
            let reason = if self.remaining == Some(0) {
                " (limit satisfied)"
            } else {
                ""
            };
            self.notes.push(format!(
                "stream: stopped after {}/{} partitions{reason}",
                self.progress.partitions_streamed, total
            ));
        }
        self.job.finish();
        // Release the catalog snapshot pin: a table version dropped while
        // this cursor was open becomes reclaimable once no other snapshot
        // references it.
        self.snapshot = None;
    }
}

/// Rows the per-partition top-k buffer sorts while keeping the first `k` of
/// `n` rows: the buffer fills to `2k`, is sorted and cut back to `k`, and is
/// sorted once more at the end. The one top-k sort charge, shared by
/// [`topk_rows`] and the fused memstore top-k scan.
pub(crate) fn topk_sort_rows(n: usize, k: usize) -> u64 {
    if k == 0 {
        return 0;
    }
    let (full_sorts, left) = if n < 2 * k {
        (0, n)
    } else {
        (1 + (n - 2 * k) / k, k + (n - 2 * k) % k)
    };
    (full_sorts * 2 * k + left) as u64
}

/// Keep only the `k` first rows of `rows` under the stable ordering given by
/// `keys` (the per-partition heap of top-k pushdown), picked by the fused
/// top-k scan's selection and charged as its bounded buffer sorts.
fn topk_rows(
    mut rows: Vec<Row>,
    k: usize,
    keys: &[(usize, bool)],
    m: &mut TaskMetrics,
) -> Vec<Row> {
    m.add_sort(topk_sort_rows(rows.len(), k));
    let winners = first_k(rows.len(), k, |a, b| compare_rows(&rows[a], &rows[b], keys));
    winners
        .into_iter()
        .map(|i| std::mem::take(&mut rows[i as usize]))
        .collect()
}

/// Plan a statistics-driven execution order for a top-k stream over a
/// single memstore scan: result partitions sorted by their sort-key bound
/// (stat min for ASC, max for DESC), each paired with that bound so the
/// driver can stop launching partitions once `k` delivered rows strictly
/// beat the next bound. Returns `None` — disabling skipping, not
/// correctness — whenever the statistics cannot bound the key:
/// never-loaded partitions (statistics survive policy evictions, so a
/// partially evicted table still gets the ordered launch), NULLs in the
/// key column (NULL sorts outside the min/max range), or a computed sort
/// key.
fn topk_partition_order(
    plan: &QueryPlan,
    info: &SingleScanInfo,
) -> Option<(Vec<usize>, Vec<Value>)> {
    plan.limit?;
    let (col, desc) = *plan.order_by.first()?;
    let expr = plan.projections.get(col)?;
    let BoundExpr::Column(projected_col) = expr else {
        return None;
    };
    let table_col = *info.projection.get(*projected_col)?;
    let mem = info.table.cached.as_ref()?;
    let mut keyed: Vec<(usize, Value)> = Vec::new();
    for (pos, &partition) in info.selected.iter().enumerate() {
        let stats = mem.stats(partition)?;
        let col_stats = stats.column(table_col);
        if col_stats.null_count > 0 {
            return None;
        }
        if stats.num_rows == 0 {
            // An empty partition contributes nothing: leave it out of the
            // planned order entirely.
            continue;
        }
        let bound = if desc {
            col_stats.max.clone()?
        } else {
            col_stats.min.clone()?
        };
        keyed.push((pos, bound));
    }
    keyed.sort_by(|a, b| {
        let ord = a.1.total_cmp(&b.1);
        let ord = if desc { ord.reverse() } else { ord };
        ord.then(a.0.cmp(&b.0))
    });
    let (order, bounds) = keyed.into_iter().unzip();
    Some((order, bounds))
}

/// Execute a plan incrementally: build the pipeline, run its shuffle
/// dependencies, and return a [`QueryStream`] cursor that executes result
/// partitions on demand (ahead of demand, with a prefetch depth ≥ 1).
pub fn execute_stream(ctx: &RddContext, plan: &QueryPlan, cfg: &ExecConfig) -> Result<QueryStream> {
    let wall = Instant::now();
    let (table_rdd, sorted_runs) = {
        let _span = shark_obs::span("optimize");
        build(ctx, plan, cfg, true)?
    };
    let mut notes = table_rdd.notes;
    notes.push("result streaming: partitions delivered incrementally".into());
    let partitions_total = table_rdd.rdd.num_partitions();

    // Pick the per-partition task transformation and the execution order.
    let keys = plan.order_by.clone();
    let limit = plan.limit;
    let mut skip_bounds = None;
    let order: Vec<usize>;
    if keys.is_empty() {
        order = (0..partitions_total).collect();
    } else if let Some((planned, bounds)) = (limit.is_some())
        .then_some(table_rdd.single_scan.as_ref())
        .flatten()
        .and_then(|info| topk_partition_order(plan, info))
    {
        notes.push(format!(
            "top-k pushdown: per-partition bounded heaps (k={}), partitions ordered by statistics",
            limit.unwrap_or(0)
        ));
        order = planned;
        skip_bounds = Some(bounds);
    } else {
        if limit.is_some() {
            notes.push(format!(
                "top-k pushdown: per-partition bounded heaps (k={})",
                limit.unwrap_or(0)
            ));
        }
        order = (0..partitions_total).collect();
    }
    let task_keys = keys.clone();
    let task = move |rows: Arc<Vec<Row>>, m: &mut TaskMetrics| {
        let mut rows = Arc::unwrap_or_clone(rows);
        // A fused top-k scan already delivers each partition's sorted run.
        if task_keys.is_empty() || sorted_runs {
            return rows;
        }
        match limit {
            Some(k) => {
                let span = shark_obs::span("top-k");
                let out = topk_rows(rows, k, &task_keys, m);
                if let Some(span) = &span {
                    span.set_rows(out.len() as u64);
                    span.annotate("k", &k.to_string());
                }
                out
            }
            None => {
                let span = shark_obs::span("sort-merge");
                m.add_sort(rows.len() as u64);
                rows.sort_by(|a, b| compare_rows(a, b, &task_keys));
                if let Some(span) = &span {
                    span.set_rows(rows.len() as u64);
                }
                rows
            }
        }
    };
    let mut job = {
        // Stage launch: runs every shuffle map stage the plan depends on.
        let _span = shark_obs::span("stage-launch");
        PipelinedJob::new(
            ctx,
            &table_rdd.rdd,
            "sql-stream",
            order,
            OutputSink::Collect,
            task,
        )?
    };
    job.set_prefetch(cfg.stream_prefetch);
    let scan_pin = table_rdd
        .single_scan
        .as_ref()
        .map(|info| (info.table.name.clone(), info.selected.clone()));
    Ok(QueryStream {
        trace: shark_obs::current(),
        job,
        sim_base: table_rdd.sim_seconds,
        schema: plan.output_schema.clone(),
        plan_desc: plan.describe(),
        notes,
        order_by: keys,
        remaining: limit,
        runs: Vec::new(),
        gathered: false,
        skip_bounds,
        batch_size: DEFAULT_STREAM_BATCH_ROWS,
        wall,
        progress: StreamProgress {
            partitions_total,
            ..StreamProgress::default()
        },
        prefetch_noted: false,
        snapshot: None,
        scan_pin,
        delivered_scan: Vec::new(),
        done: false,
    })
}

/// Build the RDD pipeline for a plan without collecting it (the `sql2rdd`
/// path). ORDER BY and LIMIT-with-ORDER-BY are not applied; per-partition
/// LIMIT pushdown is.
pub fn build_pipeline(ctx: &RddContext, plan: &QueryPlan, cfg: &ExecConfig) -> Result<TableRdd> {
    Ok(build(ctx, plan, cfg, false)?.0)
}

/// The one physical builder: every operator of a statement's pipeline is
/// chosen here. Each scan is a [`memstore_scan`] or a DFS scan. A lone
/// vectorized memstore scan (no join, no residual filter) absorbs the
/// aggregation or, when `ordered` (the caller applies ORDER BY), an ORDER BY
/// of bare projected columns with LIMIT `k`; anything else is the operator
/// chain: joins, residual filter, then aggregation or projection. Returns
/// the pipeline and whether each partition already delivers its sorted
/// top-k run.
fn build(
    ctx: &RddContext,
    plan: &QueryPlan,
    cfg: &ExecConfig,
    ordered: bool,
) -> Result<(TableRdd, bool)> {
    let mut notes = Vec::new();
    // The statement's ledger: every PDE job and fixed charge below adds
    // the simulated seconds it cost.
    let mut sim_seconds = 0.0;
    let lone = cfg.vectorized && plan.scans.len() == 1 && plan.residual_filter.is_none();
    let (rdd, single_scan, sorted_runs) = 'built: {
        // ----- scans -----------------------------------------------------------
        // Each with whether it covers every partition of its table (the
        // co-partitioned join needs that).
        let mut scans: Vec<(Rdd<Row>, bool)> = Vec::new();
        let mut single_scan = None;
        for scan in &plan.scans {
            let Some(cached) = memstore_scan(scan, cfg, &mut notes) else {
                let (table, projection) = (scan.table.clone(), scan.projection.clone());
                scans.push((dfs_scan(ctx, table, projection, scan.filters.clone()), true));
                continue;
            };
            let info = cached.info();
            if lone {
                // The batch stays columnar from the cache straight into the
                // partition's group block: no intermediate `Row`s.
                if let Some(agg) = &plan.aggregate {
                    let ops = partial_agg_ops(agg);
                    let blocks =
                        cached.partial_aggregate(ctx, &agg.group_exprs, agg.aggs.clone(), ops);
                    notes.push(
                        "vectorized: fused scan + partial aggregation over columnar batches".into(),
                    );
                    let args = agg.aggs.iter().filter_map(|a| a.arg.as_ref());
                    note_scalar_adapter(
                        &mut notes,
                        scan.filters.iter().chain(&agg.group_exprs).chain(args),
                    );
                    // Each partition is already its map task's block.
                    let shuffle = blocks.shuffle_blocks(aggregation_buckets(cfg));
                    let rdd = finish_aggregation(
                        cfg,
                        &mut notes,
                        &mut sim_seconds,
                        shuffle,
                        agg,
                        &plan.projections,
                    )?;
                    break 'built (rdd, None, false);
                }
                // Each partition sorts on the encoded key columns and builds
                // only its `k` winners; the pipeline keeps its single-scan
                // identity for statistics ordering, the skip rule and pins.
                if let Some((keys, k)) = topk_keys(plan).filter(|_| ordered) {
                    let rdd = cached.top_k(
                        ctx,
                        plan.projections.clone(),
                        project_ops_per_row(plan),
                        keys,
                        k,
                    );
                    notes.push(format!(
                        "vectorized: fused scan + top-k on the encoded sort columns, late materialization of at most {k} rows per partition"
                    ));
                    note_scalar_adapter(&mut notes, &scan.filters);
                    break 'built (rdd, Some(info), true);
                }
            }
            if cfg.vectorized {
                note_scalar_adapter(&mut notes, &scan.filters);
            }
            let full = info.selected.len() == scan.table.num_partitions;
            scans.push((cached.rows(ctx, cfg.vectorized), full));
            single_scan = Some(info);
        }
        // Result partitions map 1:1 onto the scan's partitions only while
        // the pipeline stays narrow: one scan, no joins, no aggregation.
        let narrow = plan.scans.len() == 1 && plan.aggregate.is_none();

        // ----- joins -----------------------------------------------------------
        let mut combined = scans[0].0.clone();
        for (ji, join) in plan.joins.iter().enumerate() {
            combined = build_join(
                ctx,
                plan,
                cfg,
                &mut notes,
                &mut sim_seconds,
                combined,
                scans[join.right_scan].0.clone(),
                ji,
                scans[0].1 && scans[join.right_scan].1,
            )?;
        }

        // ----- residual filter -------------------------------------------------
        if let Some(pred) = &plan.residual_filter {
            let p = pred.clone();
            combined = combined.map_partitions_named("filter", pred.op_count(), move |_, rows| {
                rows.into_iter().filter(|r| p.eval_predicate(r)).collect()
            });
        }

        // ----- aggregation or projection ---------------------------------------
        let rdd = if let Some(agg) = &plan.aggregate {
            let group_exprs = agg.group_exprs.clone();
            let aggs = agg.aggs.clone();
            // Each map task folds its rows into its partition's group block.
            let shuffle = combined.shuffle_block(
                aggregation_buckets(cfg),
                partial_agg_ops(agg),
                move |rows| partial_aggregate_rows(rows, &group_exprs, &aggs),
            );
            finish_aggregation(
                cfg,
                &mut notes,
                &mut sim_seconds,
                shuffle,
                agg,
                &plan.projections,
            )?
        } else {
            let projections = plan.projections.clone();
            let limit_push = plan.limit.filter(|_| plan.limit_pushdown_allowed());
            if let Some(n) = limit_push {
                notes.push(format!("limit pushed down to partitions (limit={n})"));
            }
            combined.map_partitions_named("project", project_ops_per_row(plan), move |_, rows| {
                let mut out: Vec<Row> = rows
                    .iter()
                    .map(|r| Row::new(projections.iter().map(|p| p.eval(r)).collect()))
                    .collect();
                if let Some(n) = limit_push {
                    out.truncate(n);
                }
                out
            })
        };
        (rdd, single_scan.filter(|_| narrow), false)
    };
    let table = TableRdd {
        rdd,
        schema: plan.output_schema.clone(),
        notes,
        sim_seconds,
        single_scan,
        snapshot: None,
    };
    Ok((table, sorted_runs))
}

/// The memstore scan of `scan`, when the engine reads the columnar memstore
/// and the table is cached (`None`: the scan reads the DFS): map-prune the
/// table's partitions (noting how many were skipped), then the loader the
/// scan bodies read through.
fn memstore_scan(scan: &ScanNode, cfg: &ExecConfig, notes: &mut Vec<String>) -> Option<CachedScan> {
    let ExecutionMode::Shark {
        use_memstore: true, ..
    } = cfg.mode
    else {
        return None;
    };
    let mem = scan.table.cached.clone()?;
    let (selected, pruned) = prune_partitions(&scan.table, &mem, &scan.filters, &scan.projection);
    if pruned > 0 {
        notes.push(format!(
            "map pruning: skipped {pruned}/{} partitions of {}",
            scan.table.num_partitions, scan.table.name
        ));
    }
    Some(CachedScan::new(
        scan.table.clone(),
        mem,
        selected,
        scan.projection.clone(),
        scan.filters.clone(),
    ))
}

/// A fused top-k's sort keys (scanned column, descending) and `k`: the plan
/// has ORDER BY … LIMIT `k` and every sort key is a bare projected column.
fn topk_keys(plan: &QueryPlan) -> Option<(Vec<(usize, bool)>, usize)> {
    let k = plan.limit.filter(|_| !plan.order_by.is_empty())?;
    let keys = plan
        .order_by
        .iter()
        .map(|&(col, desc)| match plan.projections.get(col)? {
            BoundExpr::Column(scanned) => Some((*scanned, desc)),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some((keys, k))
}

/// Whether the i-th join can use the co-partitioned fast path (§3.4).
fn copartition_applicable(plan: &QueryPlan, join_index: usize, scans_full: bool) -> bool {
    if join_index != 0 || plan.joins.len() != 1 || !scans_full {
        return false;
    }
    let join = &plan.joins[0];
    let left = &plan.scans[0];
    let right = &plan.scans[join.right_scan];
    let (lk, rk) = (&join.left_key, &join.right_key);
    let (lcol, rcol) = match (lk, rk) {
        (BoundExpr::Column(l), BoundExpr::Column(r)) => (*l, *r),
        _ => return false,
    };
    let l_orig = left.projection.get(lcol).copied();
    let r_orig = right.projection.get(rcol).copied();
    let co_declared = left
        .table
        .copartitioned_with
        .as_deref()
        .map(|n| n == right.table.name)
        .unwrap_or(false)
        || right
            .table
            .copartitioned_with
            .as_deref()
            .map(|n| n == left.table.name)
            .unwrap_or(false);
    co_declared
        && left.table.is_cached()
        && right.table.is_cached()
        && left.table.num_partitions == right.table.num_partitions
        && left.table.distribute_by.is_some()
        && right.table.distribute_by.is_some()
        && l_orig == left.table.distribute_by
        && r_orig == right.table.distribute_by
}

#[allow(clippy::too_many_arguments)]
fn build_join(
    ctx: &RddContext,
    plan: &QueryPlan,
    cfg: &ExecConfig,
    notes: &mut Vec<String>,
    sim_seconds: &mut f64,
    left: Rdd<Row>,
    right: Rdd<Row>,
    join_index: usize,
    scans_full: bool,
) -> Result<Rdd<Row>> {
    let join = &plan.joins[join_index];
    let left_key = join.left_key.clone();
    let right_key = join.right_key.clone();

    // ----- co-partitioned map join (§3.4) --------------------------------------
    if matches!(cfg.mode, ExecutionMode::Shark { .. })
        && copartition_applicable(plan, join_index, scans_full)
    {
        notes.push(format!(
            "co-partitioned join between {} and {} (no shuffle)",
            plan.scans[0].table.name, plan.scans[join.right_scan].table.name
        ));
        let lk = left_key.clone();
        let rk = right_key.clone();
        let joined = left.zip_partitions(&right, move |_, lrows, rrows| {
            let table = JoinTable::build(rrows.into_iter().map(|r| (rk.eval(&r), r)));
            table.probe(lrows.into_iter().map(|l| (lk.eval(&l), l)), false)
        });
        return Ok(joined);
    }

    let left_pairs = {
        let k = left_key.clone();
        let ops = k.op_count();
        left.map_partitions_named("join-key(left)", ops, move |_, rows| {
            rows.into_iter().map(|r| (k.eval(&r), r)).collect()
        })
    };
    let right_pairs = {
        let k = right_key.clone();
        let ops = k.op_count();
        right.map_partitions_named("join-key(right)", ops, move |_, rows| {
            rows.into_iter().map(|r| (k.eval(&r), r)).collect()
        })
    };

    if !uses_pde(cfg) {
        // Static shuffle join (Hive and the no-PDE ablation).
        notes.push(format!(
            "static shuffle join with {} reduce tasks",
            cfg.default_reducers
        ));
        let reducers = cfg.default_reducers;
        let joined = left_pairs.shuffle(reducers).read().zip_partitions(
            &right_pairs.shuffle(reducers).read(),
            |metrics, lpairs, rpairs| {
                // Priced as Hive's reduce-side join runs: group both sides
                // by key, then emit each key's cross product — 2 ops per
                // fetched pair (`zip_partitions` charges the first), 1.5 per
                // distinct key and 1 per joined row.
                let keys: HashSet<&Value> = lpairs.iter().chain(&rpairs).map(|(k, _)| k).collect();
                metrics.add_ops((lpairs.len() + rpairs.len()) as f64 + keys.len() as f64 * 1.5);
                let rows = JoinTable::build(rpairs).probe(lpairs, false);
                metrics.add_ops(rows.len() as f64);
                rows
            },
        );
        if matches!(cfg.mode, ExecutionMode::Hive) {
            *sim_seconds += charge_hive_intermediate(ctx, plan, notes);
        }
        return Ok(joined);
    }

    // ----- Partial DAG Execution join selection (§3.1.1) ------------------------
    // Static prior: which side does the optimizer expect to be small?
    let left_hint = plan.scans[0]
        .table
        .row_count_hint
        .unwrap_or(u64::MAX / 2)
        .saturating_add(if plan.scans[0].filters.is_empty() {
            0
        } else {
            1
        });
    let right_scan = &plan.scans[join.right_scan];
    let right_hint = right_scan.table.row_count_hint.unwrap_or(u64::MAX / 2);
    let right_filtered = !right_scan.filters.is_empty();
    let right_predicted_small = right_filtered || right_hint <= left_hint;

    if cfg.pde_prioritize_small_side {
        // "Static + adaptive": pre-shuffle only the predicted-small side.
        let (small_pairs, small_is_right) = if right_predicted_small {
            (right_pairs.clone(), true)
        } else {
            (left_pairs.clone(), false)
        };
        let pre = small_pairs.shuffle(cfg.fine_buckets).run()?;
        *sim_seconds += pre.sim_seconds();
        let small_bytes = pre.summary().total_bytes;
        if small_bytes <= cfg.broadcast_threshold {
            notes.push(format!(
                "map join: broadcast {} side ({} bytes observed at run time), large table never pre-shuffled",
                if small_is_right { "build (right)" } else { "build (left)" },
                small_bytes
            ));
            let stream = if small_is_right {
                left_pairs
            } else {
                right_pairs
            };
            return broadcast_join(ctx, stream, &pre, small_is_right, sim_seconds);
        }
        // Too large to broadcast: pre-shuffle the other side and do an
        // aligned shuffle join.
        let other_pre = if small_is_right {
            left_pairs.shuffle(cfg.fine_buckets).run()?
        } else {
            right_pairs.shuffle(cfg.fine_buckets).run()?
        };
        *sim_seconds += other_pre.sim_seconds();
        let (lpre, rpre) = if small_is_right {
            (other_pre, pre)
        } else {
            (pre, other_pre)
        };
        return Ok(aligned_shuffle_join(notes, lpre, rpre));
    }

    // "Adaptive": pre-shuffle both sides, then decide from observed sizes.
    let lpre = left_pairs.shuffle(cfg.fine_buckets).run()?;
    *sim_seconds += lpre.sim_seconds();
    let rpre = right_pairs.shuffle(cfg.fine_buckets).run()?;
    *sim_seconds += rpre.sim_seconds();
    let strategy = choose_join_strategy(
        lpre.summary().total_bytes,
        rpre.summary().total_bytes,
        cfg.broadcast_threshold,
    );
    match strategy {
        JoinStrategy::BroadcastLeft => {
            notes.push(format!(
                "map join: broadcast left side ({} bytes observed)",
                lpre.summary().total_bytes
            ));
            broadcast_join(ctx, right_pairs, &lpre, false, sim_seconds)
        }
        JoinStrategy::BroadcastRight => {
            notes.push(format!(
                "map join: broadcast right side ({} bytes observed)",
                rpre.summary().total_bytes
            ));
            broadcast_join(ctx, left_pairs, &rpre, true, sim_seconds)
        }
        JoinStrategy::Shuffle => Ok(aligned_shuffle_join(notes, lpre, rpre)),
    }
}

/// Map-side (broadcast) join: the `stream` side keeps its partitioning; the
/// `build` side is fetched and broadcast (both go on the ledger), hashed and
/// probed in place. `broadcast_is_right` controls output column order (left
/// columns must precede right columns).
fn broadcast_join(
    ctx: &RddContext,
    stream: Rdd<(Value, Row)>,
    build: &shark_rdd::PreShuffledRdd<Value, Row>,
    broadcast_is_right: bool,
    sim_seconds: &mut f64,
) -> Result<Rdd<Row>> {
    let (broadcast, collect_seconds) = build.collect_all()?;
    *sim_seconds += collect_seconds;
    *sim_seconds += ctx.charge_broadcast(estimate_slice(&broadcast) as u64);
    let table = Arc::new(JoinTable::build(broadcast));
    Ok(
        stream.map_partitions_named("map-join", 3.0, move |_, rows| {
            table.probe(rows, !broadcast_is_right)
        }),
    )
}

/// Shuffle join over two pre-shuffled sides: coalesce buckets by combined
/// size, read both sides with the same assignment, and hash-join per
/// partition.
fn aligned_shuffle_join(
    notes: &mut Vec<String>,
    left: shark_rdd::PreShuffledRdd<Value, Row>,
    right: shark_rdd::PreShuffledRdd<Value, Row>,
) -> Rdd<Row> {
    let combined_bytes: Vec<u64> = left
        .summary()
        .bucket_bytes
        .iter()
        .zip(&right.summary().bucket_bytes)
        .map(|(a, b)| a + b)
        .collect();
    let assignment = coalesce_buckets(&combined_bytes, TARGET_PARTITION_BYTES, MAX_REDUCERS);
    notes.push(format!(
        "shuffle join: {} fine buckets coalesced into {} reduce tasks (skew factor {:.2})",
        combined_bytes.len(),
        assignment.len(),
        left.summary()
            .skew_factor()
            .max(right.summary().skew_factor())
    ));
    let left_rdd = left.read(assignment.clone());
    let right_rdd = right.read(assignment);
    left_rdd.zip_partitions(&right_rdd, |_, lrows, rrows| {
        JoinTable::build(rrows).probe(lrows, false)
    })
}

/// One side of an equi-join hashed by key — the build and probe every
/// join strategy (co-partitioned, broadcast, PDE and static shuffle)
/// shares.
struct JoinTable(HashMap<Value, Vec<Row>>);

impl JoinTable {
    /// Hash the build side's `(key, row)` pairs, keeping each key's rows
    /// in arrival order. A NULL key equals nothing in SQL, so its row is
    /// left out and no probe can match it.
    fn build(rows: impl IntoIterator<Item = (Value, Row)>) -> JoinTable {
        let mut table: HashMap<Value, Vec<Row>> = HashMap::new();
        for (k, r) in rows.into_iter().filter(|(k, _)| !k.is_null()) {
            table.entry(k).or_default().push(r);
        }
        JoinTable(table)
    }

    /// Probe with each `(key, row)` in order: one joined row per match, in
    /// build order. Left columns precede right ones, so the build row goes
    /// first when the build side is the join's left input.
    fn probe(&self, rows: impl IntoIterator<Item = (Value, Row)>, build_is_left: bool) -> Vec<Row> {
        let mut out = Vec::new();
        for (k, row) in rows {
            for m in self.0.get(&k).into_iter().flatten() {
                out.push(if build_is_left {
                    m.concat(&row)
                } else {
                    row.concat(m)
                });
            }
        }
        out
    }
}

/// Charge the Hive baseline for materializing intermediate results to the
/// replicated DFS between MapReduce jobs (§7 "intermediate outputs").
/// Returns the seconds charged.
fn charge_hive_intermediate(ctx: &RddContext, plan: &QueryPlan, notes: &mut Vec<String>) -> f64 {
    let bytes: u64 = plan
        .scans
        .iter()
        .map(|s| estimate_table_bytes(&s.table))
        .max()
        .unwrap_or(0)
        / 2;
    let scaled = (bytes as f64 * ctx.config().sim_scale) as u64;
    let dfs = DfsModel::default();
    let secs = dfs.write_seconds(&ctx.config().cluster, scaled)
        + dfs.read_seconds(&ctx.config().cluster, scaled);
    ctx.charge("hive-intermediate", secs);
    notes.push(format!(
        "hive: materialized intermediate job output to DFS (+{secs:.1}s simulated)"
    ));
    secs
}

/// Per-row expression cost of the final projection — charged identically by
/// the row chain's `project` operator and the fused top-k scan.
fn project_ops_per_row(plan: &QueryPlan) -> f64 {
    let ops: f64 = plan.projections.iter().map(BoundExpr::op_count).sum();
    ops.max(0.5)
}

/// Per-row expression cost of the partial-aggregation step (group keys plus
/// aggregate arguments) — charged identically by the row path's
/// `partial-aggregate` operator and the fused vectorized scan.
fn partial_agg_ops(agg: &AggregateNode) -> f64 {
    agg.group_exprs.iter().map(BoundExpr::op_count).sum::<f64>()
        + agg
            .aggs
            .iter()
            .filter_map(|a| a.arg.as_ref().map(BoundExpr::op_count))
            .sum::<f64>()
        + 2.0
}

/// Whether PDE plans the reduce side at run time.
fn uses_pde(cfg: &ExecConfig) -> bool {
    matches!(cfg.mode, ExecutionMode::Shark { pde: true, .. })
}

/// Buckets of an aggregation shuffle: PDE's fine buckets, to be coalesced,
/// or one per static reduce task (at least one).
fn aggregation_buckets(cfg: &ExecConfig) -> usize {
    let buckets = if uses_pde(cfg) {
        cfg.fine_buckets
    } else {
        cfg.default_reducers
    };
    buckets.max(1)
}

/// Run or read the group-block shuffle an aggregation builder set up — PDE
/// runs its map stage now and coalesces its buckets, a static plan reads it
/// lazily — folding each reduce task's runs into one block, and finalize
/// output rows in SELECT order (applying HAVING). Shared by the
/// row-at-a-time and fused vectorized aggregation paths.
///
/// Without GROUP BY the one group is the empty key's, in one bucket: the
/// reduce task that reads that bucket returns the empty states' row when
/// no map task wrote the group, so an aggregate over no rows is one row.
fn finish_aggregation(
    cfg: &ExecConfig,
    notes: &mut Vec<String>,
    sim_seconds: &mut f64,
    shuffle: Shuffle<GroupBlock>,
    agg: &AggregateNode,
    output: &[BoundExpr],
) -> Result<Rdd<Row>> {
    let (width, aggs) = (agg.group_exprs.len(), agg.aggs.clone());
    let empty_key_bucket =
        (width == 0).then(|| hash_partition(&Row::default(), aggregation_buckets(cfg)));
    let reduce = move |read: &ShuffleRead<GroupBlock>| {
        let mut fold = GroupFold::new(width, &aggs);
        for (block, run) in read.runs() {
            fold.merge_run(block, run);
        }
        if empty_key_bucket.is_some_and(|b| read.buckets().contains(&b)) {
            fold.ensure_empty_key();
        }
        fold.finish().into_rows()
    };
    let aggregated = if uses_pde(cfg) {
        let pre = shuffle.run()?;
        *sim_seconds += pre.sim_seconds();
        let assignment = coalesce_buckets(
            &pre.summary().bucket_bytes,
            TARGET_PARTITION_BYTES,
            MAX_REDUCERS,
        );
        notes.push(format!(
            "aggregation: {} fine buckets coalesced into {} reduce tasks",
            pre.num_buckets(),
            assignment.len()
        ));
        pre.reduce(assignment, reduce)
    } else {
        notes.push(format!(
            "aggregation with {} (static) reduce tasks",
            cfg.default_reducers
        ));
        shuffle.reduce(reduce)
    };

    // Finalize: evaluate the SELECT items over each group's output row
    // (group values ++ aggregate values), applying HAVING.
    let output = output.to_vec();
    let having = agg.having.clone();
    let final_ops = 2.0 + output.len() as f64;
    Ok(
        aggregated.map_partitions_named("finalize-aggregate", final_ops, move |_, groups| {
            groups
                .iter()
                .filter(|row| having.as_ref().is_none_or(|h| h.eval_predicate(row)))
                .map(|row| Row::new(output.iter().map(|e| e.eval(row)).collect()))
                .collect()
        }),
    )
}
