//! The DAG scheduler.
//!
//! Every task runs one way, through `run_task`: compute the partition, apply
//! the stage's work, turn a panic into an execution error, and price the
//! task with the cost model. Every stage is scheduled one way too, by one
//! claim loop over the positions of its planned order: the caller and helper
//! morsels on the shared [`Executor`] each claim the next position, run its
//! task and park the outcome in that position's slot. Task logs and values
//! are taken from the slots in order, so they never depend on who ran a
//! task or when.
//!
//! A stage runs one of two ways on that loop:
//! - *Drained*: a shuffle map stage (each task writes a `MapOutput`) and
//!   the result stage of an action ([`run_job`]). Up to `width − 1` helpers
//!   claim beside the caller, which claims like a helper until nothing is
//!   left and waits only on positions already claimed; so a one-task stage
//!   never leaves the caller's thread, and a nested job or a saturated pool
//!   cannot deadlock. The width is the context's: the executor's thread
//!   count for [`RddContext::new`] (an in-process session, where one job
//!   at a time should use every core), 1 for [`RddContext::serial`], which
//!   a server builds: its concurrent statements already keep the cores
//!   busy, so its map stages, PDE's pre-shuffles and broadcast collects run
//!   on the handler's thread rather than compete for them.
//! - *Streamed*: a [`PipelinedJob`]'s result stage, whose helpers run up to
//!   its prefetch depth (a server statement's grant) ahead of the
//!   consumer's cursor.
//!
//! A job ([`run_job`], [`PipelinedJob::new`]) first walks the target RDD's
//! lineage and runs the map stage of every shuffle dependency that is not yet
//! materialized, in dependency order. Each task's simulated duration is
//! logged in its stage's [`StageReport`]; the job's task logs are replayed on
//! the simulated cluster when the job is recorded, never while it runs.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use shark_cluster::{OutputSink, TaskSpec};
use shark_common::{EstimateSize, Result, SharkError};

use crate::context::{RddContext, StageReport};
use crate::executor::Executor;
use crate::metrics::TaskMetrics;
use crate::pair::PartitionFold;
use crate::rdd::{Data, Lineage, Rdd};
use crate::shuffle::{MapOutput, ShuffleBlock};

/// The result of executing one task in-process.
pub(crate) struct TaskOutcome<U> {
    pub value: U,
    pub spec: TaskSpec,
    pub rows_in: u64,
    pub bytes_in: u64,
}

/// Add a finished task to its stage's log and hand back the task's value.
fn log_task<U>(stage: &mut StageReport, outcome: TaskOutcome<U>) -> U {
    stage.tasks.push(outcome.spec);
    stage.rows_in += outcome.rows_in;
    stage.bytes_in += outcome.bytes_in;
    outcome.value
}

/// Run one task in-process, the one body of every map and result task:
/// compute `rdd`'s `partition` (shared, so a cached partition is not
/// copied), apply the stage's `work` (which records the task's output in its
/// metrics), and price the task with the cost model for `sink`.
///
/// A task that panics (a user closure or UDF blowing up) returns
/// [`SharkError::Execution`] like a task that fails: in a map stage or a
/// result stage, on the caller's thread or an executor worker, a panic never
/// unwinds through the driver. A failed result task ends its job, which is
/// recorded with the partitions delivered before it; a failed map task fails
/// the job before anything is recorded.
fn run_task<T: Data, U>(
    ctx: &RddContext,
    rdd: &Rdd<T>,
    partition: usize,
    sink: OutputSink,
    work: impl FnOnce(Arc<Vec<T>>, &mut TaskMetrics) -> Result<U>,
) -> Result<TaskOutcome<U>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut metrics = TaskMetrics::new();
        let data = rdd.compute_shared(ctx, partition, &mut metrics)?;
        let value = work(data, &mut metrics)?;
        let cost = metrics.to_cost_input(ctx.config().sim_scale, sink);
        Ok(TaskOutcome {
            value,
            spec: TaskSpec::new(ctx.cost_model().task_duration(&cost)),
            rows_in: metrics.rows_in,
            bytes_in: metrics.bytes_in,
        })
    }))
    .unwrap_or_else(|payload| {
        let cause = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("a non-string payload");
        Err(SharkError::Execution(format!(
            "task for partition {partition} panicked: {cause}"
        )))
    })
}

/// Run the map stage of every shuffle dependency reachable from `lineage`
/// that has not been materialized yet, in dependency order. Returns the
/// reports of the stages that were actually executed.
pub(crate) fn ensure_shuffle_deps(
    ctx: &RddContext,
    lineage: &dyn Lineage,
) -> Result<Vec<StageReport>> {
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

/// Run an action over `rdd`: materialize its shuffle dependencies, then
/// drain a result stage of every partition at the context's width, applying
/// `f` to each partition. Records the job under `name` (its shuffle stages,
/// then one `result` stage in partition order) and returns the
/// per-partition results in partition order plus the job's simulated
/// seconds.
///
/// `f` gets the partition shared ([`Rdd::compute_shared`]): an action that
/// only reads (`count`, a fold) never copies a cached partition, and one
/// that must own the rows takes them with `Arc::unwrap_or_clone`, which
/// copies only a partition the cache also holds.
///
/// A task that fails or panics fails the action with the error of the first
/// failed partition in order; the recorded job then holds the result
/// partitions before it, as a failed stream's does.
pub fn run_job<T, U, F>(
    ctx: &RddContext,
    rdd: &Rdd<T>,
    name: &str,
    sink: OutputSink,
    f: F,
) -> Result<(Vec<U>, f64)>
where
    T: Data,
    U: Send + EstimateSize + 'static,
    F: Fn(Arc<Vec<T>>) -> U + Send + Sync + 'static,
{
    let wall = Instant::now();
    let mut stages = ensure_shuffle_deps(ctx, rdd)?;
    let order = (0..rdd.num_partitions()).collect();
    let body = Body::new(ctx, rdd, order, sink, result_work(move |data, _| f(data)));
    let (result, values, outcome) = drain(body, "result", ctx.width());
    stages.push(result);
    let seconds = ctx.record_job(name, stages, wall.elapsed().as_secs_f64());
    outcome.map(|()| (values, seconds))
}

/// One task's work on its partition, given the partition number and the
/// shared rows: a map task's bucketing, or a result task's transformation.
type TaskFn<T, U> = Box<dyn Fn(usize, Arc<Vec<T>>, &mut TaskMetrics) -> Result<U> + Send + Sync>;

/// A result task's work: `f` over the partition (it may charge extra work,
/// e.g. a per-partition sort, to the task), whose rows and value are the
/// task's output.
fn result_work<T: Data, U: EstimateSize>(
    f: impl Fn(Arc<Vec<T>>, &mut TaskMetrics) -> U + Send + Sync + 'static,
) -> TaskFn<T, U> {
    Box::new(move |_, data, metrics| {
        let rows = data.len() as u64;
        let value = f(data, metrics);
        metrics.record_output(rows, value.estimated_size() as u64);
        Ok(value)
    })
}

/// What every task of a stage needs. Its stage holds it; a helper holds it
/// only while running one of its tasks.
struct Body<T: Data, U> {
    ctx: RddContext,
    rdd: Rdd<T>,
    order: Vec<usize>,
    sink: OutputSink,
    work: TaskFn<T, U>,
}

impl<T: Data, U> Body<T, U> {
    fn new(
        ctx: &RddContext,
        rdd: &Rdd<T>,
        order: Vec<usize>,
        sink: OutputSink,
        work: TaskFn<T, U>,
    ) -> Arc<Body<T, U>> {
        Arc::new(Body {
            ctx: ctx.clone(),
            rdd: rdd.clone(),
            order,
            sink,
            work,
        })
    }

    /// Run the task at position `pos` of the order.
    fn run(&self, pos: usize) -> Result<TaskOutcome<U>> {
        let partition = self.order[pos];
        run_task(
            &self.ctx,
            &self.rdd,
            partition,
            self.sink,
            |data, metrics| (self.work)(partition, data, metrics),
        )
    }
}

/// One stage's outcomes, one slot per position of its order.
type Slots<U> = Vec<Option<Result<TaskOutcome<U>>>>;

/// The claim loop's state. Positions are claimed exactly once, in order;
/// finished outcomes park in their position's slot until they are taken.
struct ClaimState<T: Data, U> {
    /// Taken when the stage ends, so a helper that starts late finds nothing
    /// to run and holds nothing of the stage.
    body: Option<Arc<Body<T, U>>>,
    /// Next unclaimed position.
    next_claim: usize,
    /// A stream consumer's cursor: the next position to deliver.
    cursor: usize,
    slots: Slots<U>,
    /// Positions claimed whose task has not finished yet. A stage ends only
    /// once this is zero, so nothing of it runs after it has returned.
    in_flight: usize,
    /// Helper morsels spawned and not yet exited.
    helpers: usize,
    /// No new positions may be claimed: a task failed or the stage ended.
    cancelled: bool,
}

/// A stage's claim loop, shared between its caller and its helpers.
struct Claims<T: Data, U> {
    /// How far past the cursor positions may be claimed.
    window: usize,
    /// At most this many of the stage's tasks are claimed and unfinished at
    /// once, the caller's own included.
    max_workers: usize,
    /// The caller's trace context: tasks run by helpers still attach their
    /// spans to the query's span tree.
    trace: Option<shark_obs::TraceContext>,
    state: Mutex<ClaimState<T, U>>,
    changed: Condvar,
}

impl<T: Data, U: Send + 'static> Claims<T, U> {
    fn new(body: Arc<Body<T, U>>, window: usize, max_workers: usize) -> Arc<Claims<T, U>> {
        let planned = body.order.len();
        Arc::new(Claims {
            window,
            max_workers: max_workers.min(planned).max(1),
            trace: shark_obs::current(),
            state: Mutex::new(ClaimState {
                body: Some(body),
                next_claim: 0,
                cursor: 0,
                slots: (0..planned).map(|_| None).collect(),
                in_flight: 0,
                helpers: 0,
                cancelled: false,
            }),
            changed: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, ClaimState<T, U>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Claim the next position if it lies within `window` of the cursor and
    /// the cap allows: the position and the body to run it with.
    fn claim(
        &self,
        state: &mut ClaimState<T, U>,
        window: usize,
    ) -> Option<(usize, Arc<Body<T, U>>)> {
        if state.cancelled
            || state.next_claim >= state.slots.len()
            || state.next_claim >= state.cursor.saturating_add(window)
            || state.in_flight >= self.max_workers
        {
            return None;
        }
        let body = state.body.clone()?;
        state.next_claim += 1;
        state.in_flight += 1;
        Some((state.next_claim - 1, body))
    }

    /// Claim, run and park positions within `window` of the cursor until
    /// none may be claimed; the caller (not a helper) spawns helpers for the
    /// positions beyond each of its claims. Returns with the lock held.
    fn work<'a>(
        self: &'a Arc<Self>,
        mut state: MutexGuard<'a, ClaimState<T, U>>,
        window: usize,
        caller: bool,
    ) -> MutexGuard<'a, ClaimState<T, U>> {
        while let Some((pos, body)) = self.claim(&mut state, window) {
            if caller {
                self.spawn_helpers(&mut state, 1);
            }
            drop(state);
            let outcome = body.run(pos);
            // Let go of the stage before parking: the last park may end it,
            // and nothing of an ended stage may stay alive on this thread.
            drop(body);
            state = self.lock();
            state.in_flight -= 1;
            // Outcomes are taken in order, so an error surfaces at or before
            // `pos`; work beyond it would be wasted.
            state.cancelled |= outcome.is_err();
            state.slots[pos] = Some(outcome);
            // Only the caller waits, for the cursor's outcome or for the last
            // claimed task, so a helper wakes it only then and its own parks
            // wake nobody.
            if !caller && (pos == state.cursor || state.in_flight == 0) {
                self.changed.notify_all();
            }
        }
        state
    }

    /// Spawn helpers for the positions that may be claimed now and that no
    /// idle helper will take. `caller` is 1 while the caller holds a claim
    /// of its own, which counts against the cap like a helper's.
    fn spawn_helpers(self: &Arc<Self>, state: &mut ClaimState<T, U>, caller: usize) {
        let end = state
            .slots
            .len()
            .min(state.cursor.saturating_add(self.window));
        let claimable = end
            .saturating_sub(state.next_claim)
            .min(self.max_workers.saturating_sub(state.in_flight));
        // Helpers spawned and not running a task: queued, or about to claim.
        let mut idle = state.helpers + caller - state.in_flight;
        while !state.cancelled && idle < claimable && state.helpers + caller < self.max_workers {
            state.helpers += 1;
            idle += 1;
            let env = self.clone();
            Executor::global().spawn(move || {
                let _trace = env.trace.as_ref().map(|t| t.attach());
                env.work(env.lock(), env.window, false).helpers -= 1;
            });
        }
    }

    /// End the stage: claim nothing more, wait for every claimed task, let go
    /// of the body, and hand back the slots. Idempotent.
    fn end(&self) -> Slots<U> {
        let mut state = self.lock();
        state.cancelled = true;
        while state.in_flight > 0 {
            state = self.changed.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.body = None;
        std::mem::take(&mut state.slots)
    }
}

/// Run every task of `body` at `width`, the caller claiming like a helper
/// until nothing is left, then log the outcomes in order into a stage named
/// `name` up to the first failure: the stage, the values before the
/// failure, and the failure.
fn drain<T: Data, U: Send + 'static>(
    body: Arc<Body<T, U>>,
    name: &str,
    width: usize,
) -> (StageReport, Vec<U>, Result<()>) {
    let env = Claims::new(body, usize::MAX, width);
    drop(env.work(env.lock(), usize::MAX, true));
    let mut stage = StageReport {
        name: name.to_string(),
        ..StageReport::default()
    };
    let mut values = Vec::new();
    // Every position before the first failure was claimed, so ran; only
    // positions after it may have none.
    for outcome in env.end().into_iter().flatten() {
        match outcome {
            Ok(outcome) => values.push(log_task(&mut stage, outcome)),
            Err(err) => return (stage, values, Err(err)),
        }
    }
    (stage, values, Ok(()))
}

/// The streaming job: result-stage partitions are delivered one at a time
/// in a fixed planned order, so the caller can consume output incrementally
/// and stop early — the pipelined-delivery model, where the driver hands a
/// partition's rows to the client as soon as that partition finishes instead
/// of waiting for the whole stage barrier.
///
/// It is the engine's one streamed result-stage runner; an RDD action
/// ([`run_job`]) drains the same claim loop instead. Construction runs every
/// shuffle map stage the target RDD depends on. The delivered partitions
/// are one result stage, logged in delivery order. Partitions that are
/// never delivered are never logged — and, beyond the prefetch window, never
/// computed — which is what lets a LIMIT query stop launching tasks once it
/// has enough rows.
///
/// The consumer helps: [`PipelinedJob::next`] runs the cursor's own position
/// inline whenever no helper has claimed it, and helpers — claim loops on
/// the shared work-stealing [`Executor`], up to `prefetch` positions ahead
/// of the cursor and bounded, together with the consumer's own run, by the
/// executor's thread count — only ever run positions beyond it. Helping
/// changes who runs a task, not how many run at once. So a one-partition job
/// never leaves the consumer's thread, a stream's first partition starts
/// without waiting for a worker to wake, and `prefetch = 0` is simply the
/// case where the consumer runs everything. Delivery order, results and the
/// task log do not depend on who ran a partition or how far ahead.
///
/// Dropping the job (or calling [`PipelinedJob::finish`]) cancels the
/// stream: no further partitions are claimed, in-flight tasks are
/// drained, and the job — the up-front shuffle stages plus the *delivered*
/// partitions — is recorded.
pub struct PipelinedJob<T: Data, U: Send + EstimateSize + 'static> {
    ctx: RddContext,
    name: String,
    /// The shuffle map stages run at construction, then the result stage,
    /// whose task log grows with every delivery. [`Self::finish`] records a
    /// copy; the logs stay for [`Self::sim_seconds_after`].
    stages: Vec<StageReport>,
    /// The recorded job's simulated seconds, once [`Self::finish`] has run.
    priced: Option<f64>,
    wall: Instant,
    body: Arc<Body<T, U>>,
    prefetch: usize,
    /// Set up by the first [`Self::next`].
    claims: Option<Arc<Claims<T, U>>>,
    prefetch_hits: u64,
    /// Set on error or explicit finish: no further partitions execute or
    /// deliver, so the recorded report stays accurate.
    latched: bool,
}

impl<T: Data, U: Send + EstimateSize + 'static> PipelinedJob<T, U> {
    /// Prepare a job delivering `order`'s partitions of `rdd` through the
    /// per-partition transformation `f`: materialize the shuffle
    /// dependencies now so every subsequent delivery is a pure result-stage
    /// task. `f` gets each partition shared, as [`run_job`]'s closure does;
    /// one that must own the rows takes them with `Arc::unwrap_or_clone`.
    pub fn new<F>(
        ctx: &RddContext,
        rdd: &Rdd<T>,
        name: &str,
        order: Vec<usize>,
        sink: OutputSink,
        f: F,
    ) -> Result<PipelinedJob<T, U>>
    where
        F: Fn(Arc<Vec<T>>, &mut TaskMetrics) -> U + Send + Sync + 'static,
    {
        let wall = Instant::now();
        let mut stages = ensure_shuffle_deps(ctx, rdd)?;
        stages.push(StageReport {
            name: "result".to_string(),
            ..StageReport::default()
        });
        Ok(PipelinedJob {
            ctx: ctx.clone(),
            name: name.to_string(),
            stages,
            priced: None,
            wall,
            body: Body::new(ctx, rdd, order, sink, result_work(f)),
            prefetch: 0,
            claims: None,
            prefetch_hits: 0,
            latched: false,
        })
    }

    /// Set the prefetch depth. Only honored before the first partition is
    /// delivered (the helpers start with the first [`Self::next`]).
    pub fn set_prefetch(&mut self, depth: usize) {
        if self.claims.is_none() {
            self.prefetch = depth;
        }
    }

    /// The configured prefetch depth.
    pub fn prefetch(&self) -> usize {
        self.prefetch
    }

    /// Partitions in the planned delivery order.
    pub fn planned(&self) -> usize {
        self.body.order.len()
    }

    /// Partitions delivered so far.
    pub fn delivered(&self) -> usize {
        self.stages.last().expect("result stage").tasks.len()
    }

    /// Total result-stage partitions of the underlying RDD.
    pub fn num_partitions(&self) -> usize {
        self.body.rdd.num_partitions()
    }

    /// Deliveries that found their partition already computed by a prefetch
    /// helper (the consumer never had to wait for the claim).
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
        if self.latched || self.delivered() >= self.planned() {
            return Ok(None);
        }
        let partition = self.body.order[self.delivered()];
        match self.outcome_at_cursor() {
            // Cancelled with nothing in flight for this position.
            None => Ok(None),
            Some(Ok(outcome)) => {
                let result = self.stages.last_mut().expect("result stage");
                Ok(Some((partition, log_task(result, outcome))))
            }
            Some(Err(err)) => {
                // Latch and stop the helpers: a failed stream never resumes.
                self.latched = true;
                if let Some(env) = &self.claims {
                    env.end();
                }
                Err(err)
            }
        }
    }

    /// Produce the outcome at the cursor and move the window. A position no
    /// helper has claimed is claimed and run right here, after spawning
    /// helpers for the positions beyond it; a claimed one is waited for until
    /// its outcome is parked.
    fn outcome_at_cursor(&mut self) -> Option<Result<TaskOutcome<U>>> {
        let env = self.claims.get_or_insert_with(|| {
            // The window is how far execution may run ahead; concurrency
            // beyond the executor's threads would not run in parallel.
            let max_workers = self.prefetch.min(Executor::global().threads());
            Claims::new(self.body.clone(), self.prefetch, max_workers)
        });
        let state = env.lock();
        let pos = state.cursor;
        if state.slots[pos].is_some() {
            self.prefetch_hits += 1;
        }
        // Nothing is in flight when the cursor's position is unclaimed, so
        // the consumer's own claim always fits under the cap.
        let mut state = env.work(state, 1, true);
        let outcome = loop {
            if let Some(outcome) = state.slots[pos].take() {
                break outcome;
            }
            if state.cancelled && pos >= state.next_claim {
                return None;
            }
            state = env.changed.wait(state).unwrap_or_else(|e| e.into_inner());
        };
        state.cursor += 1;
        env.spawn_helpers(&mut state, 0);
        Some(outcome)
    }

    /// Stop the stream (draining in-flight tasks) and record the job
    /// report covering everything delivered so far. Latches the job: a
    /// later `next()` delivers nothing, so the recorded report stays
    /// accurate. Idempotent; also runs on drop.
    pub fn finish(&mut self) {
        self.latched = true;
        // Claimed tasks still finish on the executor; wait for them so
        // nothing of this job runs after finish() returns (callers release
        // resources — e.g. pinned partitions — right after).
        if let Some(env) = &self.claims {
            env.end();
        }
        if self.priced.is_none() {
            let wall = self.wall.elapsed().as_secs_f64();
            self.priced = Some(self.ctx.record_job(&self.name, self.stages.clone(), wall));
        }
    }
}

impl<T: Data, U: Send + EstimateSize + 'static> Drop for PipelinedJob<T, U> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The one shuffle map stage, named `name`: a drained stage of one task per
/// parent partition, at the context's width, that charges `map_ops_per_row`
/// per record of the partition (`records` counts them) for the work fused
/// into the stage, `write`s the (shared — a cached one is not copied)
/// partition into one block (a map-side combine, the pairs as they are for
/// a repartition, a partial aggregate), puts the block in bucket-run order
/// and stores it (with its per-bucket statistics) in the shuffle manager.
/// The stage's tasks are logged in partition order; the first task in that
/// order that fails fails the stage.
///
/// Fused work is charged exactly as the separate operator it replaces
/// would be: the parent's rows and bytes in, its ops per row charged
/// before the shuffle's own.
pub(crate) fn run_map_stage<T: Data, B: ShuffleBlock>(
    ctx: &RddContext,
    parent: &Rdd<T>,
    shuffle_id: usize,
    num_buckets: usize,
    name: &str,
    (map_ops_per_row, records): (f64, fn(&[T]) -> usize),
    write: PartitionFold<T, B>,
) -> Result<StageReport> {
    let num_map_tasks = parent.num_partitions();
    ctx.shuffle_manager()
        .register(shuffle_id, num_map_tasks, num_buckets);
    let sort_shuffle = ctx.config().cluster.profile.sort_based_shuffle;
    let shuffles = ctx.state.shuffle.clone();
    let write = move |partition, data: Arc<Vec<T>>, metrics: &mut TaskMetrics| {
        let input_rows = records(&data) as u64;
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
        let block = write(data);
        let buckets = (0..block.len())
            .map(|i| block.bucket(i, num_buckets))
            .collect();
        let output = MapOutput::group(block, num_buckets, buckets);
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
        shuffles.put_map_output(shuffle_id, partition, output)
    };
    let order = (0..num_map_tasks).collect();
    let body = Body::new(ctx, parent, order, OutputSink::Shuffle, Box::new(write));
    let (stage, _, outcome) = drain(body, name, ctx.width());
    outcome.map(|()| stage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::RddConfig;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_failed_or_panicking_task_fails_its_action_and_the_next_action_runs() {
        let ctx = RddContext::local();
        let panics_on_two = ctx.dfs_source(6, |p| {
            if p == 2 {
                panic!("partition 2 exploded");
            }
            vec![p as i64]
        });
        let always_panics = ctx.dfs_source(4, |_| -> Vec<i64> { panic!("every task exploded") });
        // A four-partition source whose task for partition 2 returns an error.
        let fails_on_two = ctx.source("fails_on_two", 4, |p, _| {
            if p == 2 {
                return Err(SharkError::Execution("partition 2 failed".into()));
            }
            Ok(vec![p as i64])
        });
        let by_key = |rdd: &Rdd<i64>| rdd.map(|x| (x % 3, x)).reduce_by_key(2, |a, b| a + b);

        // The failed action records the partitions it delivered before the
        // failure, under the action's name.
        let err = panics_on_two.count().unwrap_err();
        let job = ctx.last_job().unwrap();
        assert_eq!((job.name.as_str(), job.total_tasks()), ("count", 2));

        let fails_then_next_action_runs = |what: &str, err: SharkError, says: &str| {
            assert!(matches!(err, SharkError::Execution(_)), "{what}: {err:?}");
            assert!(err.to_string().contains(says), "{what}: {err}");
            let next = ctx.parallelize((0i64..100).collect(), 4).count();
            assert_eq!(next.unwrap(), 100, "the action after {what}");
        };
        fails_then_next_action_runs("count", err, "panicked: partition 2 exploded");
        fails_then_next_action_runs("collect", panics_on_two.collect().unwrap_err(), "panicked");
        let err = panics_on_two.reduce(|a, b| a + b).unwrap_err();
        fails_then_next_action_runs("reduce", err, "panicked");
        let err = by_key(&panics_on_two).collect().unwrap_err();
        fails_then_next_action_runs("a panic in a map stage", err, "panicked");
        let err = always_panics.count().unwrap_err();
        fails_then_next_action_runs("every task panicking", err, "every task exploded");
        let err = fails_on_two.count().unwrap_err();
        fails_then_next_action_runs("a failed result task", err, "partition 2 failed");
        let err = by_key(&fails_on_two).count().unwrap_err();
        fails_then_next_action_runs("a failed map task", err, "partition 2 failed");
        assert_eq!(ctx.shuffle_manager().registered(), 0);
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
            |rows, _m| Arc::unwrap_or_clone(rows),
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
            let rdd = ctx.dfs_source(1, move |p| {
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
    fn a_one_task_drained_stage_never_leaves_the_callers_thread() {
        let ctx = RddContext::with_width(RddConfig::default(), Some(4));
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let (in_map, in_result) = (ran_on.clone(), ran_on.clone());
        let rdd = ctx.dfs_source(1, move |p| {
            in_map.lock().push(std::thread::current().id());
            vec![(p as i64, 1i64)]
        });
        let reduced = rdd.reduce_by_key(1, |a, b| a + b).map(move |pair| {
            in_result.lock().push(std::thread::current().id());
            pair
        });
        assert_eq!(reduced.count().unwrap(), 1);
        // The map stage's task and the action's: both here, nothing handed off.
        assert_eq!(*ran_on.lock(), vec![std::thread::current().id(); 2]);
    }

    #[test]
    fn pipelined_job_respects_custom_order_and_window_bound() {
        let order = vec![5usize, 1, 6, 0, 7, 2, 3, 4];
        let mut logged: Option<Vec<StageReport>> = None;
        for prefetch in [0usize, 1, 2, 8] {
            let ctx = RddContext::local();
            let executed = Arc::new(AtomicUsize::new(0));
            let counter = executed.clone();
            let rdd = ctx.dfs_source(8, move |p| {
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
        let rdd = ctx.dfs_source(6, |p| {
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

    /// Holds every worker of the global executor until dropped, so that
    /// helpers spawned meanwhile start only after it is.
    struct BlockedExecutor(Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>);

    impl BlockedExecutor {
        fn new() -> BlockedExecutor {
            let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
            let threads = Executor::global().threads();
            let started = Arc::new(AtomicUsize::new(0));
            for _ in 0..threads {
                let (gate, started) = (gate.clone(), started.clone());
                Executor::global().spawn(move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    let mut open = gate.0.lock().unwrap();
                    while !*open {
                        open = gate.1.wait(open).unwrap();
                    }
                });
            }
            let blocked = BlockedExecutor(gate);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while started.load(Ordering::SeqCst) < threads {
                assert!(
                    std::time::Instant::now() < deadline,
                    "workers never freed up"
                );
                std::thread::yield_now();
            }
            blocked
        }
    }

    impl Drop for BlockedExecutor {
        fn drop(&mut self) {
            *self.0 .0.lock().unwrap() = true;
            self.0 .1.notify_all();
        }
    }

    #[test]
    fn drained_stages_book_and_fail_alike_at_every_width() {
        type Run = (Vec<crate::context::JobReport>, Vec<i64>, f64);
        let run = |width: usize| -> Run {
            let ctx = RddContext::with_width(RddConfig::default(), Some(width));
            let source = ctx.parallelize((0i64..2_000).collect(), 8);
            let chained = source
                .map(|x| (x % 37, x))
                .reduce_by_key(6, |a, b| a + b)
                .map(|(k, total)| (total % 5, k))
                .reduce_by_key(3, |a, b| a + b);
            let mut values = vec![chained.count().unwrap() as i64];
            values.extend(
                chained
                    .collect()
                    .unwrap()
                    .into_iter()
                    .flat_map(|(k, v)| [k, v]),
            );
            values.push(source.reduce(|a, b| a + b).unwrap().unwrap());

            // Partition 2 panics after a pause and partition 5 returns an
            // error: above width 1 the pause makes partition 5 usually fail
            // first, and the stage must name partition 2 whatever the
            // interleaving.
            let faulty = ctx.source("panics_on_two_fails_on_five", 8, |p, _| match p {
                2 => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("partition 2 exploded")
                }
                5 => Err(SharkError::Execution("partition 5 failed".into())),
                _ => Ok(vec![p as i64]),
            });
            let by_key = faulty.map(|x| (x % 3, x)).reduce_by_key(2, |a, b| a + b);
            let errors = [
                faulty.count().unwrap_err(),
                faulty.collect().unwrap_err(),
                faulty.reduce(|a, b| a + b).unwrap_err(),
                by_key.count().unwrap_err(),
            ];
            for err in errors {
                assert!(
                    err.to_string().contains("partition 2 panicked"),
                    "width {width}: {err}"
                );
            }
            drop((chained, by_key));
            assert_eq!(ctx.shuffle_manager().registered(), 0, "width {width}");
            let mut jobs = ctx.job_history();
            for job in &mut jobs {
                job.real_duration = 0.0;
            }
            (jobs, values, ctx.simulated_time())
        };
        let serial = run(1);
        // count, collect, reduce, and the failed count, collect and reduce
        // (the failed map stage records nothing).
        assert_eq!(serial.0.len(), 6);
        assert_eq!(
            serial.0[0].stages.len(),
            3,
            "both map stages, then the result"
        );
        assert_eq!(serial.0[3].total_tasks(), 2, "partitions 0 and 1 delivered");
        for width in [2, 4] {
            let wide = run(width);
            assert_eq!(wide.0, serial.0, "width {width}: stage reports");
            assert_eq!(wide.1, serial.1, "width {width}: values");
            assert_eq!(
                wide.2.to_bits(),
                serial.2.to_bits(),
                "width {width}: sim seconds"
            );
        }
    }

    #[test]
    fn a_helper_that_starts_late_holds_nothing_of_its_job() {
        let ctx = RddContext::with_width(RddConfig::default(), Some(4));
        let held = Arc::new(());
        let witness = held.clone();
        let rdd = ctx.parallelize((0i64..64).collect(), 8).map(move |x| {
            std::hint::black_box(&witness);
            x
        });
        let pairs = rdd.map(|x| (x % 4, x));
        let blocked = BlockedExecutor::new();
        // Every helper the action and its map stage spawn is still queued:
        // the caller runs every task itself, and returns.
        let reduced = pairs.reduce_by_key(2, |a, b| a + b);
        assert_eq!(reduced.count().unwrap(), 4);
        assert_eq!(rdd.count().unwrap(), 64);
        drop((rdd, pairs, reduced));
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "a queued helper holds the closure"
        );
        assert_eq!(
            ctx.shuffle_manager().registered(),
            0,
            "a queued helper holds the RDD"
        );
        drop(blocked);
    }

    #[test]
    fn a_job_whose_tasks_run_nested_jobs_finishes_at_every_width() {
        let full = Executor::global().threads();
        let mut logged: Option<Vec<StageReport>> = None;
        for width in [1, full, 2 * full] {
            let ctx = RddContext::with_width(RddConfig::default(), Some(width));
            let inner = ctx.parallelize((1i64..=100).collect(), 4);
            let outer = ctx.parallelize((0i64..8).collect(), 8).map(move |x| {
                let by_key = inner
                    .map(move |y| (y % 3, y * x))
                    .reduce_by_key(2, |a, b| a + b);
                by_key
                    .collect()
                    .unwrap()
                    .into_iter()
                    .map(|(_, v)| v)
                    .sum::<i64>()
            });
            let values = outer.collect().unwrap();
            let expected: Vec<i64> = (0i64..8).map(|x| 5_050 * x).collect();
            assert_eq!(values, expected, "width {width}");
            let jobs = ctx.job_history();
            assert_eq!(jobs.len(), 9, "eight nested jobs, then the outer one");
            let outer_job = jobs.last().unwrap();
            let booked = logged.get_or_insert_with(|| outer_job.stages.clone());
            assert_eq!(&outer_job.stages, booked, "width {width}");
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
