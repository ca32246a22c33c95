//! The DAG scheduler.
//!
//! Every task runs one way, through `run_task`: compute the partition, apply
//! the stage's work, turn a panic into an execution error, and price the
//! task with the cost model. A shuffle map stage runs its tasks in partition
//! order on the caller's thread. A result stage is a [`PipelinedJob`]:
//! actions call [`run_job`], which walks the target RDD's lineage, runs the
//! map stage of every shuffle dependency that is not yet materialized (in
//! dependency order), then drains the result stage on the caller's thread.
//! Each task's simulated duration is logged in its stage's [`StageReport`];
//! the job's task logs are replayed on the simulated cluster when the job is
//! recorded, never while it runs.

use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

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
            spec: TaskSpec {
                duration: ctx.cost_model().task_duration(&cost),
                preferred_node: rdd.preferred_node(ctx, partition),
            },
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

/// Run an action over `rdd`: a [`PipelinedJob`] over every partition in
/// order, drained at prefetch 0, so every task runs on the caller's thread.
/// It materializes the shuffle dependencies, applies `f` to each partition,
/// records the job under `name` (its shuffle stages, then one `result` stage
/// in partition order), and returns the per-partition results in partition
/// order plus the job's simulated seconds.
///
/// `f` gets the partition shared ([`Rdd::compute_shared`]): an action that
/// only reads (`count`, a fold) never copies a cached partition, and one
/// that must own the rows takes them with `Arc::unwrap_or_clone`, which
/// copies only a partition the cache also holds.
///
/// A task that fails or panics fails the action with an error; the recorded
/// job then holds the result partitions delivered before the failure, as a
/// failed stream's does.
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
    let order = (0..rdd.num_partitions()).collect();
    let mut job = PipelinedJob::new(ctx, rdd, name, order, sink, move |data, _| f(data))?;
    let mut values = Vec::with_capacity(job.planned());
    while let Some((_, value)) = job.next()? {
        values.push(value);
    }
    job.finish();
    Ok((values, job.sim_seconds()))
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

    /// Run the result task at position `pos` of the order: `f` over the
    /// partition, whose rows and value are the task's output.
    fn run(&self, pos: usize) -> Result<TaskOutcome<U>> {
        let apply = |data: Arc<Vec<T>>, metrics: &mut TaskMetrics| {
            let rows = data.len() as u64;
            let value = (self.f)(data, metrics);
            metrics.record_output(rows, value.estimated_size() as u64);
            Ok(value)
        };
        run_task(&self.ctx, &self.rdd, self.order[pos], self.sink, apply)
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
            let outcome = env.run(pos);
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
/// It is the engine's one result-stage runner: an RDD action ([`run_job`])
/// is this job over every partition, drained at prefetch 0. Construction
/// runs every shuffle map stage the target RDD depends on. The delivered
/// partitions are one result stage, logged in delivery order. Partitions
/// that are never delivered are never logged — and, beyond the prefetch
/// window, never computed — which is what lets a LIMIT query stop launching
/// tasks once it has enough rows.
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
            rdd: rdd.clone(),
            name: name.to_string(),
            stages,
            priced: None,
            wall,
            order: Arc::new(order),
            sink,
            f: Arc::new(f),
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
        let Some(outcome) = self.outcome_at_cursor() else {
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
    fn outcome_at_cursor(&mut self) -> Option<Result<TaskOutcome<U>>> {
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
            let outcome = pool.run(pos);
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

/// The one shuffle map stage, named `name`: run a task per parent partition,
/// in partition order, that charges `map_ops_per_row` for a `map` fused into
/// the stage, `combine`s the (shared — a cached one is not copied) partition
/// into `(key, value)` records (a map-side combine, or the pairs as they are
/// for a repartition), groups them by reduce bucket and stores the grouped
/// output (which carries its per-bucket statistics) in the shuffle manager;
/// log the stage's tasks. The first task that fails fails the stage.
///
/// A fused `map` is charged exactly as the separate [`Rdd::map`] it
/// replaces would be: the parent's rows and bytes in, one op per row
/// charged before the shuffle's own, the parent's preferred node.
pub(crate) fn run_map_stage<T, K, S>(
    ctx: &RddContext,
    parent: &Rdd<T>,
    shuffle_id: usize,
    num_buckets: usize,
    name: &str,
    map_ops_per_row: f64,
    combine: impl Fn(Arc<Vec<T>>) -> Vec<(K, S)>,
) -> Result<StageReport>
where
    T: Data,
    K: Data + Hash + Eq,
    S: Data,
{
    let num_map_tasks = parent.num_partitions();
    ctx.shuffle_manager()
        .register(shuffle_id, num_map_tasks, num_buckets);
    let sort_shuffle = ctx.config().cluster.profile.sort_based_shuffle;
    let mut stage = StageReport {
        name: name.to_string(),
        ..StageReport::default()
    };
    for partition in 0..num_map_tasks {
        let write = |data: Arc<Vec<T>>, metrics: &mut TaskMetrics| {
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
                .put_map_output(shuffle_id, partition, output)
        };
        let outcome = run_task(ctx, parent, partition, OutputSink::Shuffle, write)?;
        log_task(&mut stage, outcome);
    }
    Ok(stage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdd::RddImpl;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A four-partition source whose task for partition 2 returns an error.
    struct FailsOnTwo(usize);

    impl RddImpl<i64> for FailsOnTwo {
        fn id(&self) -> usize {
            self.0
        }
        fn name(&self) -> String {
            "fails_on_two".into()
        }
        fn num_partitions(&self) -> usize {
            4
        }
        fn compute(&self, _: &RddContext, p: usize, _: &mut TaskMetrics) -> Result<Vec<i64>> {
            if p == 2 {
                return Err(SharkError::Execution("partition 2 failed".into()));
            }
            Ok(vec![p as i64])
        }
        fn parents(&self) -> Vec<Arc<dyn Lineage>> {
            Vec::new()
        }
    }

    #[test]
    fn a_failed_or_panicking_task_fails_its_action_and_the_next_action_runs() {
        let ctx = RddContext::local();
        let panics_on_two = ctx.generate(6, shark_cluster::InputSource::Dfs, |p| {
            if p == 2 {
                panic!("partition 2 exploded");
            }
            vec![p as i64]
        });
        let always_panics = ctx.generate(4, shark_cluster::InputSource::Dfs, |_| -> Vec<i64> {
            panic!("every task exploded")
        });
        let fails_on_two = Rdd::new(ctx.clone(), Arc::new(FailsOnTwo(ctx.next_rdd_id())));
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
