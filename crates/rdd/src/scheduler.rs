//! The DAG scheduler.
//!
//! Actions call [`run_job`]: the scheduler walks the target RDD's lineage,
//! runs the map stage of every shuffle dependency that is not yet
//! materialized (in dependency order), then runs the result stage. Every
//! task executes for real in-process; its measured metrics are converted to
//! a simulated duration by the cost model and logged in its stage's
//! [`StageReport`]; the job's task logs are replayed on the simulated
//! cluster when the job is recorded, never while it runs.

use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use shark_cluster::{OutputSink, TaskSpec};
use shark_common::{EstimateSize, Result, SharkError};

use crate::context::{RddContext, StageReport};
use crate::executor::Executor;
use crate::metrics::TaskMetrics;
use crate::rdd::{Data, Lineage, Rdd};
use crate::shuffle::MapOutput;

/// The result of executing one task in-process.
pub(crate) struct TaskOutcome<U> {
    pub value: U,
    pub spec: TaskSpec,
    pub rows_in: u64,
    pub bytes_in: u64,
}

/// Execute `n` tasks (optionally on the shared executor), preserving order.
pub(crate) fn run_tasks<U, F>(parallel: bool, n: usize, f: F) -> Result<Vec<TaskOutcome<U>>>
where
    U: Send,
    F: Fn(usize) -> Result<TaskOutcome<U>> + Send + Sync,
{
    if !parallel || n <= 1 {
        return (0..n).map(&f).collect();
    }
    let slots: Mutex<Vec<Option<Result<TaskOutcome<U>>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let panicked = AtomicBool::new(false);
    // Tasks adopt the caller's trace context so per-operator spans computed
    // off-thread still land in the query's span tree.
    let trace = shark_obs::current();
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
        .map(|i| {
            let slots = &slots;
            let panicked = &panicked;
            let f = &f;
            Box::new(move || {
                let _trace = trace.as_ref().map(|t| t.attach());
                // A panic in a user closure must not poison the shared
                // worker pool; it is latched and reported as an execution
                // error once the whole stage has drained.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                    Ok(result) => slots.lock()[i] = Some(result),
                    Err(_) => panicked.store(true, Ordering::SeqCst),
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    Executor::global().run_scoped(tasks);
    if panicked.load(Ordering::SeqCst) {
        return Err(SharkError::Execution("a task thread panicked".into()));
    }
    slots
        .into_inner()
        .into_iter()
        .map(|r| r.expect("task result missing"))
        .collect()
}

/// Add a finished task to its stage's log and hand back the task's value.
fn log_task<U>(stage: &mut StageReport, outcome: TaskOutcome<U>) -> U {
    stage.tasks.push(outcome.spec);
    stage.rows_in += outcome.rows_in;
    stage.bytes_in += outcome.bytes_in;
    outcome.value
}

/// Build a barrier stage's (unpriced) report plus the ordered task outputs.
fn log_stage<U>(name: &str, outcomes: Vec<TaskOutcome<U>>) -> (StageReport, Vec<U>) {
    let mut stage = StageReport {
        name: name.to_string(),
        ..StageReport::default()
    };
    let values = outcomes
        .into_iter()
        .map(|outcome| log_task(&mut stage, outcome))
        .collect();
    (stage, values)
}

/// Run the map stage of every shuffle dependency reachable from `lineage`
/// that has not been materialized yet, in dependency order. Returns the
/// reports of the stages that were actually executed.
pub fn ensure_shuffle_deps(ctx: &RddContext, lineage: &dyn Lineage) -> Result<Vec<StageReport>> {
    let mut reports = Vec::new();
    for parent in lineage.parents() {
        reports.extend(ensure_shuffle_deps(ctx, parent.as_ref())?);
    }
    for dep in lineage.shuffle_deps() {
        reports.extend(ensure_shuffle_deps(ctx, dep.parent_lineage().as_ref())?);
        if !dep.is_materialized(ctx) {
            reports.push(dep.run_map_stage(ctx)?);
        }
    }
    Ok(reports)
}

/// Run an action over `rdd`: materialize its shuffle dependencies, execute
/// the result stage applying `f` to each partition, record the job, and
/// return the per-partition results in partition order plus the job's
/// simulated seconds.
///
/// `f` gets the partition shared ([`Rdd::compute_shared`]): an action that
/// only reads (`count`, a fold) never copies a cached partition, and one
/// that must own the rows takes them with `Arc::unwrap_or_clone`, which
/// copies only a partition the cache also holds.
pub fn run_job<T, U, F>(
    ctx: &RddContext,
    rdd: &Rdd<T>,
    name: &str,
    sink: OutputSink,
    f: F,
) -> Result<(Vec<U>, f64)>
where
    T: Data,
    U: Send + EstimateSize,
    F: Fn(Arc<Vec<T>>) -> U + Send + Sync,
{
    let wall = Instant::now();
    let mut stages = ensure_shuffle_deps(ctx, rdd)?;
    let outcomes = run_tasks(
        ctx.config().parallel_tasks,
        rdd.num_partitions(),
        |partition| run_partition_task(ctx, rdd, partition, sink, |data, _| f(data)),
    )?;
    let (report, values) = log_stage("result", outcomes);
    stages.push(report);
    let sim_seconds = ctx.record_job(name, stages, wall.elapsed().as_secs_f64());
    Ok((values, sim_seconds))
}

/// Run one result-stage task in-process: compute the partition, apply `f`,
/// and price the task with the cost model.
fn run_partition_task<T, U, F>(
    ctx: &RddContext,
    rdd: &Rdd<T>,
    partition: usize,
    sink: OutputSink,
    f: F,
) -> Result<TaskOutcome<U>>
where
    T: Data,
    U: Send + EstimateSize,
    F: FnOnce(Arc<Vec<T>>, &mut TaskMetrics) -> U,
{
    let mut metrics = TaskMetrics::new();
    let data = rdd.compute_shared(ctx, partition, &mut metrics)?;
    let rows = data.len() as u64;
    let value = f(data, &mut metrics);
    metrics.record_output(rows, value.estimated_size() as u64);
    let cost = metrics.to_cost_input(ctx.config().sim_scale, sink);
    Ok(TaskOutcome {
        value,
        spec: TaskSpec {
            duration: ctx.cost_model().task_duration(&cost),
            preferred_node: rdd.preferred_node(ctx, partition),
        },
        rows_in: metrics.rows_in,
        bytes_in: metrics.bytes_in,
    })
}

/// [`run_partition_task`] with panics inside the task (a user closure
/// blowing up) converted to execution errors, so the serial and the
/// prefetched streaming paths fail the same way.
fn execute_partition_task<T, U, F>(
    ctx: &RddContext,
    rdd: &Rdd<T>,
    partition: usize,
    sink: OutputSink,
    f: F,
) -> Result<TaskOutcome<U>>
where
    T: Data,
    U: Send + EstimateSize,
    F: FnOnce(Arc<Vec<T>>, &mut TaskMetrics) -> U,
{
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_partition_task(ctx, rdd, partition, sink, f)
    }))
    .unwrap_or_else(|_| {
        Err(SharkError::Execution(format!(
            "stream task for partition {partition} panicked"
        )))
    })
}

/// The per-partition transformation a [`PipelinedJob`] applies inside each
/// result task (it may charge extra work — e.g. a per-partition sort — to
/// the task's metrics), over the shared partition.
type TaskFn<T, U> = Arc<dyn Fn(Arc<Vec<T>>, &mut TaskMetrics) -> U + Send + Sync>;

/// The bounded, *ordered* channel between a [`PipelinedJob`]'s consumer and
/// its morsels. Positions in the planned order are claimed exactly once: by
/// a morsel while they are within the window of the consumer's cursor, or by
/// the consumer itself when it arrives at a position nothing has claimed.
/// Morsels park results in `ready`, and no new positions are claimed once
/// `cancelled` is set.
struct PrefetchState<U> {
    /// Next unclaimed position (index into the order).
    next_claim: usize,
    /// The consumer's cursor position.
    deliver_pos: usize,
    /// Completed outcomes keyed by position.
    ready: std::collections::HashMap<usize, Result<TaskOutcome<U>>>,
    /// Positions claimed (by a morsel or by the consumer) whose task has not
    /// finished yet. [`PipelinedJob::finish`] waits for this to reach zero,
    /// so cancellation-on-drop always drains in-flight work before the job
    /// report is recorded.
    in_flight: usize,
    /// No new positions may be claimed (consumer dropped/stopped or a task
    /// failed). Claimed in-flight morsels still park their result.
    cancelled: bool,
}

/// Everything a prefetch morsel needs, shared between the consumer (which
/// pumps after each delivery) and completed morsels (which pump to refill
/// the window).
struct Prefetcher<T: Data, U: Send + EstimateSize + 'static> {
    ctx: RddContext,
    rdd: Rdd<T>,
    order: Arc<Vec<usize>>,
    sink: OutputSink,
    f: TaskFn<T, U>,
    /// Consumer's trace context: morsels computed ahead on the shared
    /// executor still attach their spans to the query's span tree.
    trace: Option<shark_obs::TraceContext>,
    /// How far past the consumer's cursor positions may be claimed.
    window: usize,
    /// Concurrency cap: at most this many of this job's tasks may be
    /// claimed and unfinished at once — morsels queued or running on the
    /// shared executor plus the position the consumer is running itself.
    max_workers: usize,
    state: std::sync::Mutex<PrefetchState<U>>,
    changed: std::sync::Condvar,
}

impl<T: Data, U: Send + EstimateSize + 'static> Prefetcher<T, U> {
    fn lock(&self) -> std::sync::MutexGuard<'_, PrefetchState<U>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn cancel(&self) {
        self.lock().cancelled = true;
        self.changed.notify_all();
    }
}

/// Claim every position currently allowed by the prefetch window and the
/// concurrency cap, submitting one executor morsel per claim. Called by the
/// consumer when the window moves (after it has claimed the cursor's own
/// position for itself, so morsels only ever run positions beyond it) and by
/// each finished morsel, so the window refills without any dedicated
/// per-query threads.
fn pump<T: Data, U: Send + EstimateSize + 'static>(env: &Arc<Prefetcher<T, U>>) {
    loop {
        let pos = {
            let mut state = env.lock();
            if state.cancelled
                || state.next_claim >= env.order.len()
                || state.next_claim >= state.deliver_pos + env.window
                || state.in_flight >= env.max_workers
            {
                return;
            }
            let pos = state.next_claim;
            state.next_claim += 1;
            state.in_flight += 1;
            pos
        };
        let env = env.clone();
        Executor::global().spawn(move || {
            let _trace = env.trace.as_ref().map(|t| t.attach());
            let outcome =
                execute_partition_task(&env.ctx, &env.rdd, env.order[pos], env.sink, &*env.f);
            {
                let mut state = env.lock();
                state.in_flight -= 1;
                if outcome.is_err() {
                    // Delivery is ordered, so this error will surface at or
                    // before `pos`; work beyond it would be wasted.
                    state.cancelled = true;
                }
                state.ready.insert(pos, outcome);
                env.changed.notify_all();
            }
            pump(&env);
        });
    }
}

/// The streaming job: result-stage partitions are delivered one at a time
/// in a fixed planned order, so the caller can consume output incrementally
/// and stop early — the pipelined-delivery model, where the driver hands a
/// partition's rows to the client as soon as that partition finishes instead
/// of waiting for the whole stage barrier.
///
/// Construction runs every shuffle map stage the target RDD depends on
/// (exactly like [`run_job`] would). The delivered partitions are one result
/// stage, logged in delivery order — for a full drain, the stage `run_job`
/// records. Partitions that are never delivered are never logged — and,
/// beyond the prefetch window, never computed — which is what lets a LIMIT
/// query stop launching tasks once it has enough rows.
///
/// The consumer helps: [`PipelinedJob::next`] runs the cursor's own position
/// inline whenever no morsel has claimed it, and morsels — up to `prefetch`
/// positions ahead of the cursor, submitted to the shared work-stealing
/// [`Executor`] and bounded, together with the consumer's own run, by the
/// host's parallelism — only ever run positions beyond it. Helping changes
/// who runs a task, not how many run at once. So a one-partition job never
/// leaves the consumer's thread, a stream's first partition starts without
/// waiting for a worker to wake, and `prefetch = 0` is simply the case where
/// the consumer runs everything. Delivery order, results and the task log do
/// not depend on who ran a partition or how far ahead.
///
/// Dropping the job (or calling [`PipelinedJob::finish`]) cancels the
/// stream: no further partitions are claimed, in-flight morsels are
/// drained, and the job — the up-front shuffle stages plus the *delivered*
/// partitions — is recorded.
pub struct PipelinedJob<T: Data, U: Send + EstimateSize + 'static> {
    ctx: RddContext,
    rdd: Rdd<T>,
    name: String,
    /// The shuffle map stages run at construction, then the result stage,
    /// whose task log grows with every delivery. [`Self::finish`] records a
    /// copy; the logs stay for [`Self::sim_seconds_after`].
    stages: Vec<StageReport>,
    /// The recorded job's simulated seconds, once [`Self::finish`] has run.
    priced: Option<f64>,
    wall: Instant,
    order: Arc<Vec<usize>>,
    sink: OutputSink,
    f: TaskFn<T, U>,
    prefetch: usize,
    /// Set up lazily by the first [`Self::next`].
    pool: Option<Arc<Prefetcher<T, U>>>,
    prefetch_hits: u64,
    /// Set on error or explicit finish: no further partitions execute or
    /// deliver, so the recorded report stays accurate.
    latched: bool,
}

impl<T: Data, U: Send + EstimateSize + 'static> PipelinedJob<T, U> {
    /// Prepare a job delivering `order`'s partitions of `rdd` through the
    /// per-partition transformation `f`: materialize the shuffle
    /// dependencies now so every subsequent delivery is a pure result-stage
    /// task.
    pub fn new<F>(
        ctx: &RddContext,
        rdd: &Rdd<T>,
        name: &str,
        order: Vec<usize>,
        sink: OutputSink,
        f: F,
    ) -> Result<PipelinedJob<T, U>>
    where
        F: Fn(Vec<T>, &mut TaskMetrics) -> U + Send + Sync + 'static,
    {
        let wall = Instant::now();
        let mut stages = ensure_shuffle_deps(ctx, rdd)?;
        stages.push(StageReport {
            name: "result".to_string(),
            ..StageReport::default()
        });
        Ok(PipelinedJob {
            ctx: ctx.clone(),
            rdd: rdd.clone(),
            name: name.to_string(),
            stages,
            priced: None,
            wall,
            order: Arc::new(order),
            sink,
            f: Arc::new(move |data, metrics| f(Arc::unwrap_or_clone(data), metrics)),
            prefetch: 0,
            pool: None,
            prefetch_hits: 0,
            latched: false,
        })
    }

    /// Set the prefetch depth. Only honored before the first partition is
    /// delivered (the pool spins up lazily on the first [`Self::next`]).
    pub fn set_prefetch(&mut self, depth: usize) {
        if self.pool.is_none() {
            self.prefetch = depth;
        }
    }

    /// The configured prefetch depth.
    pub fn prefetch(&self) -> usize {
        self.prefetch
    }

    /// Partitions in the planned delivery order.
    pub fn planned(&self) -> usize {
        self.order.len()
    }

    /// Partitions delivered so far.
    pub fn delivered(&self) -> usize {
        self.stages.last().expect("result stage").tasks.len()
    }

    /// Total result-stage partitions of the underlying RDD.
    pub fn num_partitions(&self) -> usize {
        self.rdd.num_partitions()
    }

    /// Deliveries that found their partition already computed by a prefetch
    /// worker (the consumer never had to wait for the claim).
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits
    }

    /// Simulated seconds of *this job's* stages: what recording it moved the
    /// clock by, or — before [`Self::finish`] — a preview of that.
    pub fn sim_seconds(&self) -> f64 {
        self.priced
            .unwrap_or_else(|| self.sim_seconds_after(self.delivered()))
    }

    /// What the job would be priced at had it stopped after its first
    /// `delivered` partitions, replayed on a copy of the simulator as it
    /// stands now: no clock moves, nothing is recorded.
    pub fn sim_seconds_after(&self, delivered: usize) -> f64 {
        let (result, shuffles) = self.stages.split_last().expect("result stage");
        let delivered = delivered.min(result.tasks.len());
        self.ctx.preview_stages(
            shuffles
                .iter()
                .map(|s| &s.tasks[..])
                .chain([&result.tasks[..delivered]]),
        )
    }

    /// Deliver the next partition in planned order as `(partition, value)`,
    /// or `None` when the plan is exhausted. After an error the job is
    /// latched: no further partitions execute and subsequent calls return
    /// `None`.
    // Not an `Iterator`: delivery is fallible and the job must keep
    // ownership for cancellation/report bookkeeping.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(usize, U)>> {
        if self.latched || self.delivered() >= self.order.len() {
            return Ok(None);
        }
        let partition = self.order[self.delivered()];
        let Some(outcome) = self.outcome_at_cursor(partition) else {
            // Cancelled with nothing in flight for this position.
            return Ok(None);
        };
        match outcome {
            Ok(outcome) => {
                let result = self.stages.last_mut().expect("result stage");
                Ok(Some((partition, log_task(result, outcome))))
            }
            Err(err) => {
                // Latch and stop the pool: a failed stream never resumes.
                self.latched = true;
                if let Some(pool) = &self.pool {
                    pool.cancel();
                }
                Err(err)
            }
        }
    }

    /// Produce the outcome at the cursor and move the window. A position no
    /// morsel has claimed is claimed and run right here, after pumping
    /// morsels for the positions beyond it; a claimed one is taken from the
    /// prefetch channel, blocking until its morsel has parked it.
    fn outcome_at_cursor(&mut self, partition: usize) -> Option<Result<TaskOutcome<U>>> {
        let pool = self.ensure_pool();
        let mut state = pool.lock();
        let pos = state.deliver_pos;
        let outcome = if state.next_claim == pos && !state.cancelled {
            // The consumer's claim counts against the concurrency cap like
            // a morsel's: helping must not run more tasks at once.
            state.next_claim += 1;
            state.in_flight += 1;
            drop(state);
            pump(&pool);
            let outcome =
                execute_partition_task(&self.ctx, &self.rdd, partition, self.sink, &*self.f);
            let mut state = pool.lock();
            state.in_flight -= 1;
            state.deliver_pos += 1;
            drop(state);
            Some(outcome)
        } else {
            if state.ready.contains_key(&pos) {
                self.prefetch_hits += 1;
            }
            while !state.ready.contains_key(&pos) {
                if state.cancelled && pos >= state.next_claim {
                    return None;
                }
                state = pool.changed.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            state.deliver_pos += 1;
            let outcome = state.ready.remove(&pos);
            drop(state);
            outcome
        };
        pump(&pool);
        outcome
    }

    /// Stop the stream (draining in-flight morsels) and record the job
    /// report covering everything delivered so far. Latches the job: a
    /// later `next()` delivers nothing, so the recorded report stays
    /// accurate. Idempotent; also runs on drop.
    pub fn finish(&mut self) {
        self.latched = true;
        if let Some(pool) = &self.pool {
            pool.cancel();
            // Claimed morsels still finish on the executor; wait for them
            // so nothing of this job runs after finish() returns (callers
            // release resources — e.g. pinned partitions — right after).
            let mut state = pool.lock();
            while state.in_flight > 0 {
                state = pool.changed.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        }
        if self.priced.is_none() {
            let wall = self.wall.elapsed().as_secs_f64();
            self.priced = Some(self.ctx.record_job(&self.name, self.stages.clone(), wall));
        }
    }

    /// Set up the prefetch channel on first use.
    fn ensure_pool(&mut self) -> Arc<Prefetcher<T, U>> {
        if let Some(pool) = &self.pool {
            return pool.clone();
        }
        // The *window* (how far execution may run ahead) is `prefetch`; the
        // morsel concurrency is additionally capped by the host's
        // parallelism — a single slot can still fill a deep window, extra
        // concurrency only pays off when morsels actually run in parallel.
        let parallelism = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(4);
        let max_workers = self.prefetch.min(self.order.len()).min(parallelism).max(1);
        let pool = Arc::new(Prefetcher {
            ctx: self.ctx.clone(),
            rdd: self.rdd.clone(),
            order: self.order.clone(),
            sink: self.sink,
            f: self.f.clone(),
            trace: shark_obs::current(),
            window: self.prefetch,
            max_workers,
            state: std::sync::Mutex::new(PrefetchState {
                next_claim: 0,
                deliver_pos: 0,
                ready: std::collections::HashMap::new(),
                in_flight: 0,
                cancelled: false,
            }),
            changed: std::sync::Condvar::new(),
        });
        self.pool = Some(pool.clone());
        pool
    }
}

impl<T: Data, U: Send + EstimateSize + 'static> Drop for PipelinedJob<T, U> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The one body of every shuffle map stage: compute each parent partition
/// (shared — a cached one is not copied), charge `map_ops_per_row` for a
/// `map` fused into the stage, `combine` the partition into `(key, value)`
/// records, group them by reduce bucket, store the grouped output (which
/// carries its per-bucket statistics) in the shuffle manager, and log the
/// stage's tasks.
///
/// A fused `map` is charged exactly as the separate [`Rdd::map`] it
/// replaces would be: the parent's rows and bytes in, one op per row
/// charged before the shuffle's own, the parent's preferred node.
fn run_map_stage_generic<T, K, S, F>(
    ctx: &RddContext,
    parent: &Rdd<T>,
    shuffle_id: usize,
    num_buckets: usize,
    name: &str,
    map_ops_per_row: f64,
    combine: F,
) -> Result<StageReport>
where
    T: Data,
    K: Data + Hash + Eq,
    S: Data,
    F: Fn(Arc<Vec<T>>) -> Vec<(K, S)> + Send + Sync,
{
    let num_map_tasks = parent.num_partitions();
    ctx.shuffle_manager()
        .register(shuffle_id, num_map_tasks, num_buckets);
    let scale = ctx.config().sim_scale;
    let sort_shuffle = ctx.config().cluster.profile.sort_based_shuffle;

    let outcomes = run_tasks(ctx.config().parallel_tasks, num_map_tasks, |partition| {
        let mut metrics = TaskMetrics::new();
        let data = parent.compute_shared(ctx, partition, &mut metrics)?;
        let input_rows = data.len() as u64;
        // `x + 0.0 == x`, so a stage with nothing fused charges as before.
        metrics.add_ops(input_rows as f64 * map_ops_per_row);
        let span = if shark_obs::active() {
            shark_obs::span("shuffle-write")
        } else {
            None
        };
        if let Some(span) = &span {
            span.set_partition(partition);
        }
        let output = MapOutput::group(combine(data), num_buckets, |(k, _)| {
            shark_common::hash::hash_partition(k, num_buckets)
        });
        let total_bytes = output.stats().total_bytes();
        let total_rows = output.stats().total_rows();
        if let Some(span) = &span {
            span.set_rows(total_rows);
            span.set_bytes(total_bytes);
        }
        drop(span);
        // Hash-partitioning each record costs roughly one operation per row.
        metrics.add_ops(input_rows as f64);
        if sort_shuffle {
            metrics.add_sort(total_rows);
        }
        metrics.record_output(total_rows, total_bytes);
        ctx.shuffle_manager()
            .put_map_output(shuffle_id, partition, output)?;
        let cost = metrics.to_cost_input(scale, OutputSink::Shuffle);
        Ok(TaskOutcome {
            value: (),
            spec: TaskSpec {
                duration: ctx.cost_model().task_duration(&cost),
                preferred_node: parent.preferred_node(ctx, partition),
            },
            rows_in: metrics.rows_in,
            bytes_in: metrics.bytes_in,
        })
    })?;

    let (report, _) = log_stage::<()>(name, outcomes);
    Ok(report)
}

/// Map stage that hash-partitions records without combining.
pub(crate) fn run_shuffle_map_stage_raw<K, V>(
    ctx: &RddContext,
    parent: &Rdd<(K, V)>,
    shuffle_id: usize,
    num_buckets: usize,
) -> Result<StageReport>
where
    K: Data + Hash + Eq,
    V: Data,
{
    run_map_stage_generic(
        ctx,
        parent,
        shuffle_id,
        num_buckets,
        &format!("shuffle-map({shuffle_id})"),
        0.0,
        Arc::unwrap_or_clone,
    )
}

/// Map stage that combines each partition map-side into `(key, combiner)`
/// records before hash-partitioning them (partial aggregation, §3.1).
pub(crate) fn run_shuffle_map_stage_combined<T, K, C>(
    ctx: &RddContext,
    parent: &Rdd<T>,
    shuffle_id: usize,
    num_buckets: usize,
    map_ops_per_row: f64,
    combine: impl Fn(Arc<Vec<T>>) -> Vec<(K, C)> + Send + Sync,
) -> Result<StageReport>
where
    T: Data,
    K: Data + Hash + Eq,
    C: Data,
{
    run_map_stage_generic(
        ctx,
        parent,
        shuffle_id,
        num_buckets,
        &format!("shuffle-map-combine({shuffle_id})"),
        map_ops_per_row,
        combine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{RddConfig, RddContext};
    use shark_cluster::ClusterConfig;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn run_tasks_sequential_and_parallel_agree() {
        let f = |i: usize| {
            Ok(TaskOutcome {
                value: i * 2,
                spec: TaskSpec::new(0.1),
                rows_in: 1,
                bytes_in: 8,
            })
        };
        let seq = run_tasks(false, 16, f).unwrap();
        let par = run_tasks(true, 16, f).unwrap();
        let seq_vals: Vec<usize> = seq.into_iter().map(|o| o.value).collect();
        let par_vals: Vec<usize> = par.into_iter().map(|o| o.value).collect();
        assert_eq!(seq_vals, par_vals);
        assert_eq!(seq_vals[7], 14);
    }

    #[test]
    fn run_tasks_propagates_errors() {
        let r = run_tasks(false, 4, |i| {
            if i == 2 {
                Err(SharkError::Execution("boom".into()))
            } else {
                Ok(TaskOutcome {
                    value: (),
                    spec: TaskSpec::new(0.0),
                    rows_in: 0,
                    bytes_in: 0,
                })
            }
        });
        assert!(r.is_err());
        let r = run_tasks(true, 4, |i| {
            if i == 2 {
                Err(SharkError::Execution("boom".into()))
            } else {
                Ok(TaskOutcome {
                    value: (),
                    spec: TaskSpec::new(0.0),
                    rows_in: 0,
                    bytes_in: 0,
                })
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn run_tasks_reports_panics_as_errors_even_when_every_worker_panics() {
        // Every task panics, so every worker thread dies; run_tasks must
        // still return an Execution error rather than propagate the panic
        // out of the thread scope.
        let r = std::panic::catch_unwind(|| {
            run_tasks(true, 8, |_| -> Result<TaskOutcome<()>> {
                panic!("task blew up");
            })
        });
        let inner = r.expect("panic escaped run_tasks");
        match inner {
            Err(SharkError::Execution(msg)) => assert!(msg.contains("panicked")),
            Err(other) => panic!("expected Execution error, got {other:?}"),
            Ok(_) => panic!("expected Execution error, got Ok"),
        }
    }

    #[test]
    fn parallel_context_produces_same_results() {
        let config = RddConfig {
            cluster: ClusterConfig::small(4, 2),
            default_partitions: 8,
            sim_scale: 1.0,
            parallel_tasks: true,
        };
        let ctx = RddContext::new(config);
        let rdd = ctx.parallelize((0i64..1000).collect(), 16);
        let sum = rdd.map(|x| x * 3).reduce(|a, b| a + b).unwrap();
        assert_eq!(sum, Some(3 * 999 * 1000 / 2));
        let mut counts = rdd
            .map(|x| (x % 7, 1i64))
            .reduce_by_key(8, |a, b| a + b)
            .collect()
            .unwrap();
        counts.sort();
        assert_eq!(counts.iter().map(|(_, c)| c).sum::<i64>(), 1000);
    }

    /// Open a job delivering every partition of `rdd` unchanged.
    fn identity_job<T: Data>(
        rdd: &Rdd<T>,
        name: &str,
        order: Vec<usize>,
        prefetch: usize,
    ) -> PipelinedJob<T, Vec<T>> {
        let mut job = PipelinedJob::new(
            rdd.context(),
            rdd,
            name,
            order,
            OutputSink::Collect,
            |rows, _m| rows,
        )
        .unwrap();
        job.set_prefetch(prefetch);
        job
    }

    #[test]
    fn pipelined_job_delivery_and_booking_do_not_depend_on_who_ran_a_partition() {
        for partitions in [1usize, 2, 16] {
            // What `run_job` records for the same RDD on a fresh context:
            // a full drain must record the very same stage, at every depth.
            let blocking = {
                let ctx = RddContext::local();
                let rdd = ctx
                    .parallelize((0i64..400).collect(), partitions)
                    .map(|x| x * 3);
                rdd.collect().unwrap();
                ctx.last_job().unwrap()
            };
            for prefetch in [0usize, 1, 2, 8] {
                let case = format!("prefetch={prefetch}, partitions={partitions}");
                let ctx = RddContext::local();
                let rdd = ctx
                    .parallelize((0i64..400).collect(), partitions)
                    .map(|x| x * 3);
                let expected: Vec<i64> = (0i64..400).map(|x| x * 3).collect();
                let name = format!("pipelined({prefetch})");
                let mut job = identity_job(&rdd, &name, (0..partitions).collect(), prefetch);
                assert_eq!(job.num_partitions(), partitions);
                let mut streamed = Vec::new();
                let mut delivered = Vec::new();
                while let Some((p, batch)) = job.next().unwrap() {
                    delivered.push(p);
                    streamed.extend(batch);
                }
                assert_eq!(streamed, expected, "{case}");
                assert_eq!(delivered, (0..partitions).collect::<Vec<usize>>());
                assert_eq!(job.delivered(), partitions);
                // Nothing is priced or recorded while the job is open; the
                // preview moves no clock.
                let preview = job.sim_seconds();
                assert!(ctx.last_job().is_none(), "{case}");
                assert_eq!(ctx.simulated_time(), 0.0, "{case}");
                job.finish();
                // The booking rule: the delivered partitions are one result
                // stage of `delivered()` tasks in delivery order — the stage
                // `run_job` records — whoever ran them and however far ahead.
                let report = ctx.last_job().unwrap();
                assert_eq!(report.name, name);
                assert_eq!(report.stages.len(), 1, "{case}");
                assert_eq!(report.stages[0].name, "result");
                assert_eq!(report.stages[0].tasks.len(), job.delivered());
                assert_eq!(report.stages, blocking.stages, "{case}");
                assert_eq!(report.sim_duration, blocking.sim_duration, "{case}");
                assert_eq!(job.sim_seconds(), report.sim_duration, "{case}");
                assert_eq!(preview, report.sim_duration, "{case}");
                assert_eq!(ctx.simulated_time(), report.sim_duration, "{case}");
            }
        }
    }

    #[test]
    fn a_one_partition_job_never_leaves_the_consumers_thread() {
        for prefetch in [0usize, 2] {
            let ctx = RddContext::local();
            let ran_on = Arc::new(Mutex::new(Vec::new()));
            let recorder = ran_on.clone();
            let rdd = ctx.generate(1, shark_cluster::InputSource::Dfs, move |p| {
                recorder.lock().push(std::thread::current().id());
                vec![p as i64]
            });
            let mut job = identity_job(&rdd, "single", vec![0], prefetch);
            assert_eq!(job.next().unwrap(), Some((0, vec![0])));
            assert!(job.next().unwrap().is_none());
            // The only task ran here, so nothing was handed to the executor;
            // a delivery that computed its own partition is not a prefetch hit.
            assert_eq!(*ran_on.lock(), vec![std::thread::current().id()]);
            assert_eq!(job.prefetch_hits(), 0);
        }
    }

    #[test]
    fn pipelined_job_respects_custom_order_and_window_bound() {
        let order = vec![5usize, 1, 6, 0, 7, 2, 3, 4];
        let mut logged: Option<Vec<StageReport>> = None;
        for prefetch in [0usize, 1, 2, 8] {
            let ctx = RddContext::local();
            let executed = Arc::new(AtomicUsize::new(0));
            let counter = executed.clone();
            let rdd = ctx.generate(8, shark_cluster::InputSource::Dfs, move |p| {
                counter.fetch_add(1, Ordering::SeqCst);
                vec![p as i64]
            });
            let mut job = identity_job(&rdd, "ordered", order.clone(), prefetch);
            for &expected in &order[..3] {
                let (p, rows) = job.next().unwrap().expect("planned partition");
                assert_eq!(p, expected);
                assert_eq!(rows, vec![expected as i64]);
            }
            // Stop after three deliveries: at most delivered + prefetch
            // partitions may ever have executed (inline: exactly the three
            // requested), and finish() joins the workers so the count is
            // final.
            job.finish();
            // finish() latches: nothing further may execute or deliver, so
            // the recorded report stays accurate.
            assert!(job.next().unwrap().is_none(), "delivery after finish()");
            let ran = executed.load(Ordering::SeqCst);
            assert!(
                (3..=(3 + prefetch).min(order.len())).contains(&ran),
                "prefetch={prefetch}: window violated, {ran} partitions ran"
            );
            let priced = job.sim_seconds();
            drop(job);
            assert_eq!(executed.load(Ordering::SeqCst), ran, "work after cancel");
            // Only delivered partitions are tasks of the result stage, in
            // delivery order, at every depth.
            let report = ctx.last_job().unwrap();
            assert_eq!(report.stages.len(), 1);
            assert_eq!(report.total_tasks(), 3, "only delivered tasks booked");
            assert_eq!(priced, report.sim_duration);
            let booked = logged.get_or_insert_with(|| report.stages.clone());
            assert_eq!(&report.stages, booked, "prefetch={prefetch}");
        }
    }

    #[test]
    fn pipelined_job_runs_shuffle_deps_up_front() {
        for prefetch in [0usize, 2] {
            let ctx = RddContext::local();
            let rdd = ctx.parallelize((0i64..100).collect(), 4);
            let reduced = rdd.map(|x| (x % 5, x)).reduce_by_key(4, |a, b| a + b);
            let shuffle_id = reduced.shuffle_deps()[0].shuffle_id();
            let mut job = identity_job(&reduced, "stream-agg", (0..4).collect(), prefetch);
            // The map stage ran during construction, before any delivery —
            // logged, but not priced until the job is recorded.
            assert!(ctx.shuffle_manager().is_complete(shuffle_id));
            let map_only = job.sim_seconds();
            assert!(map_only > 0.0);
            assert_eq!(ctx.simulated_time(), 0.0);
            let mut pairs = Vec::new();
            while let Some((_, batch)) = job.next().unwrap() {
                pairs.extend(batch);
            }
            drop(job);
            let report = ctx.last_job().unwrap();
            assert!(report.stages[0].name.starts_with("shuffle-map"));
            assert_eq!(report.stages[0].sim_duration, map_only);
            assert_eq!(report.stages.len(), 2);
            assert_eq!(report.stages[1].tasks.len(), 4);
            assert_eq!(ctx.simulated_time(), report.sim_duration);
            pairs.sort();
            let mut expected = reduced.collect().unwrap();
            expected.sort();
            assert_eq!(pairs, expected);
        }
    }

    #[test]
    fn pipelined_job_surfaces_worker_errors_in_order_and_latches() {
        let ctx = RddContext::local();
        let rdd = ctx.generate(6, shark_cluster::InputSource::Dfs, |p| {
            if p == 2 {
                panic!("partition 2 exploded");
            }
            vec![p as i64]
        });
        for prefetch in [0usize, 3] {
            let mut job = identity_job(&rdd, "failing", (0..6).collect(), prefetch);
            // Partitions 0 and 1 deliver even though a worker may already
            // have hit the partition-2 failure.
            assert_eq!(job.next().unwrap().unwrap().0, 0);
            assert_eq!(job.next().unwrap().unwrap().0, 1);
            let err = job.next().unwrap_err();
            assert!(
                err.to_string().contains("panicked"),
                "prefetch={prefetch}: {err}"
            );
            // Latched: subsequent calls deliver nothing, ever.
            assert!(job.next().unwrap().is_none(), "prefetch={prefetch}");
            assert!(job.next().unwrap().is_none(), "prefetch={prefetch}");
        }
    }

    #[test]
    fn job_sim_time_includes_shuffle_stages() {
        let ctx = RddContext::local();
        let rdd = ctx.parallelize((0i64..100).collect(), 4);
        rdd.map(|x| (x % 10, x))
            .reduce_by_key(4, |a, b| a + b)
            .collect()
            .unwrap();
        let job = ctx.last_job().unwrap();
        assert!(job.stages.len() >= 2);
        assert!(job.sim_duration > 0.0);
        assert!(job.real_duration >= 0.0);
    }
}
