//! The driver-side context.
//!
//! [`RddContext`] plays the role of Spark's `SparkContext`: it owns the
//! simulated cluster, the shuffle manager, the block store, the cost model
//! and the metrics scope, hands out RDD and shuffle identifiers, creates
//! source RDDs, and records a [`JobReport`] (stage timings, simulated
//! duration) for every job it runs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shark_cluster::{ClusterConfig, ClusterSim, CostModel, InputSource, TaskSpec};
use shark_common::size::estimate_slice;
use shark_common::Result;

use crate::cache::{BlockId, BlockStore};
use crate::metrics::TaskMetrics;
use crate::rdd::{Data, Rdd, SourceRdd};
use crate::shuffle::{ShuffleLease, ShuffleManager};

/// Configuration of an [`RddContext`].
#[derive(Debug, Clone)]
pub struct RddConfig {
    /// The simulated cluster (size + engine cost profile).
    pub cluster: ClusterConfig,
    /// Default number of partitions for sources and shuffles.
    pub default_partitions: usize,
    /// Ratio between the data volume being *simulated* and the volume
    /// actually processed in-process. Metrics are multiplied by this factor
    /// before entering the cost model, letting laptop-sized runs reproduce
    /// cluster-scale timings.
    pub sim_scale: f64,
}

impl Default for RddConfig {
    fn default() -> Self {
        RddConfig {
            cluster: ClusterConfig::small(4, 2),
            default_partitions: 8,
            sim_scale: 1.0,
        }
    }
}

impl RddConfig {
    /// Set the simulation scale factor.
    pub fn with_sim_scale(mut self, scale: f64) -> RddConfig {
        self.sim_scale = scale;
        self
    }
}

/// Record of one stage of a job. The scheduler logs the tasks and input
/// totals; the simulated figures are filled in when the job is recorded and
/// its task logs are replayed on the cluster model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageReport {
    /// Descriptive stage name (e.g. `"shuffle-map(3)"` or `"result"`).
    pub name: String,
    /// The task log (cost-model durations), in partition order —
    /// delivery order for a streamed result stage.
    pub tasks: Vec<TaskSpec>,
    /// Simulated stage duration in seconds.
    pub sim_duration: f64,
    /// Number of speculative copies the simulator launched.
    pub speculative_copies: usize,
    /// Number of task executions lost to failures and re-run.
    pub tasks_rerun: usize,
    /// Total rows read by the stage's tasks (unscaled).
    pub rows_in: u64,
    /// Total bytes read by the stage's tasks (unscaled).
    pub bytes_in: u64,
}

/// Record of one job: an action, a pre-shuffle, a finished stream, or a
/// fixed charge. Recording it moved the simulated clock by `sim_duration`,
/// so the jobs a caller caused sum to its own simulated seconds, whatever
/// ran beside it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobReport {
    /// Human-readable description of the action.
    pub name: String,
    /// Per-stage breakdown, in execution order; empty for a fixed charge.
    pub stages: Vec<StageReport>,
    /// Total simulated duration in seconds: the stages' sum, or the charge.
    pub sim_duration: f64,
    /// Wall-clock seconds spent actually executing the scaled-down job.
    pub real_duration: f64,
}

impl JobReport {
    /// Total number of tasks across all stages.
    pub fn total_tasks(&self) -> usize {
        self.stages.iter().map(|s| s.tasks.len()).sum()
    }
}

/// Cached handles into the unified metrics registry for per-stage input
/// totals (the aggregate of every task's `TaskMetrics`), so recording a
/// stage costs two atomic adds instead of registry lookups.
struct StageObs {
    rows_in: Arc<shark_obs::Counter>,
    bytes_in: Arc<shark_obs::Counter>,
}

fn stage_obs() -> &'static StageObs {
    static OBS: std::sync::OnceLock<StageObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let reg = shark_obs::metrics();
        StageObs {
            rows_in: reg.counter(
                "shark_stage_rows_in_total",
                "Rows read by executed stage tasks (map + result stages)",
            ),
            bytes_in: reg.counter(
                "shark_stage_bytes_in_total",
                "Bytes read by executed stage tasks (map + result stages)",
            ),
        }
    })
}

/// How many of the most recent job reports a context remembers. A
/// long-running server runs an unbounded number of jobs; readers only ever
/// look at the last few (the latest job, or one query's jobs right after
/// [`RddContext::clear_job_history`]).
const JOB_HISTORY_CAP: usize = 256;

pub(crate) struct ContextState {
    pub(crate) config: RddConfig,
    pub(crate) cost: CostModel,
    pub(crate) cluster: Mutex<ClusterSim>,
    pub(crate) shuffle: Arc<ShuffleManager>,
    pub(crate) cache: Arc<BlockStore>,
    metrics: shark_obs::MetricsRegistry,
    next_rdd_id: AtomicUsize,
    next_shuffle_id: AtomicUsize,
    reports: Mutex<VecDeque<JobReport>>,
    /// How many tasks of one drained stage run at once; `None` is the
    /// global executor's thread count.
    width: Option<usize>,
}

/// The driver: creates RDDs, runs jobs, owns cluster/shuffle/cache state.
///
/// Cloning an `RddContext` is cheap and shares all state.
#[derive(Clone)]
pub struct RddContext {
    pub(crate) state: Arc<ContextState>,
}

impl RddContext {
    /// Create a context with the given configuration. Its shuffle map stages
    /// and actions run their tasks across the shared executor, as many at
    /// once as it has threads.
    pub fn new(config: RddConfig) -> RddContext {
        RddContext::with_width(config, None)
    }

    /// Create a context whose shuffle map stages and actions run every task
    /// on the calling thread, one at a time. A server builds its context
    /// this way: its concurrent statements already keep the cores busy, so
    /// fanning one statement's stages out only makes them compete, while
    /// its streamed result stages still run ahead at their prefetch grants.
    pub fn serial(config: RddConfig) -> RddContext {
        RddContext::with_width(config, Some(1))
    }

    /// Create a context whose drained stages run at most `width` tasks at
    /// once (`None`: the global executor's thread count, read per stage).
    pub(crate) fn with_width(config: RddConfig, width: Option<usize>) -> RddContext {
        config
            .cluster
            .validate()
            .expect("invalid cluster configuration");
        let cost = CostModel::new(config.cluster.profile.clone());
        let cluster = ClusterSim::new(config.cluster.clone());
        RddContext {
            state: Arc::new(ContextState {
                config,
                cost,
                cluster: Mutex::new(cluster),
                shuffle: Arc::new(ShuffleManager::new()),
                cache: Arc::default(),
                metrics: shark_obs::MetricsRegistry::scoped(),
                next_rdd_id: AtomicUsize::new(0),
                next_shuffle_id: AtomicUsize::new(0),
                reports: Mutex::new(VecDeque::with_capacity(JOB_HISTORY_CAP)),
                width: width.map(|w| w.max(1)),
            }),
        }
    }

    /// Create a context over a specific cluster with default settings.
    pub fn with_cluster(cluster: ClusterConfig) -> RddContext {
        RddContext::new(RddConfig {
            cluster,
            ..RddConfig::default()
        })
    }

    /// A small local context suitable for tests.
    pub fn local() -> RddContext {
        RddContext::new(RddConfig::default())
    }

    /// The context configuration.
    pub fn config(&self) -> &RddConfig {
        &self.state.config
    }

    /// How many tasks of one shuffle map stage or action run at once.
    pub(crate) fn width(&self) -> usize {
        self.state
            .width
            .unwrap_or_else(|| crate::Executor::global().threads())
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.state.cost
    }

    /// The block store: cached RDD partitions and the memtables of every
    /// catalog built over this context.
    pub fn cache(&self) -> &Arc<BlockStore> {
        &self.state.cache
    }

    /// This context's metrics scope: what the engine layers over it count
    /// (scans, a server's query log, net frontend, spill tier, …), each
    /// update also adding into the process-wide [`shark_obs::metrics()`].
    pub fn metrics(&self) -> &shark_obs::MetricsRegistry {
        &self.state.metrics
    }

    /// The shuffle manager.
    pub fn shuffle_manager(&self) -> &ShuffleManager {
        &self.state.shuffle
    }

    /// Allocate a fresh RDD id.
    pub fn next_rdd_id(&self) -> usize {
        self.state.next_rdd_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a fresh shuffle id together with the lease that owns its
    /// map output.
    pub(crate) fn new_shuffle(&self) -> Arc<ShuffleLease> {
        Arc::new(ShuffleLease {
            manager: self.state.shuffle.clone(),
            id: self.state.next_shuffle_id.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Current simulated time of the cluster (seconds since last reset): a
    /// running total over *every* user of this context, so the difference of
    /// two readings includes whatever other threads recorded in between.
    pub fn simulated_time(&self) -> f64 {
        self.state.cluster.lock().now()
    }

    /// Reset the simulated clock (start timing a new experiment/query).
    pub fn reset_simulation(&self) {
        self.state.cluster.lock().reset();
    }

    /// Kill a node *now*: removes every block it held — table and RDD
    /// partitions, including dropped table versions still pinned — and
    /// marks it failed for the remainder of the simulation, on top of any
    /// node failed before. Returns the blocks removed.
    pub fn fail_node(&self, node: usize) -> Vec<BlockId> {
        self.state.cluster.lock().fail_node_now(node);
        self.state.cache.drop_node(node)
    }

    /// Number of worker nodes currently alive.
    pub fn alive_nodes(&self) -> usize {
        self.state.cluster.lock().alive_nodes().len()
    }

    /// Charge the simulated cost of broadcasting `bytes` bytes from the
    /// master to every worker (tree broadcast). Returns the seconds charged.
    pub fn charge_broadcast(&self, bytes: u64) -> f64 {
        let nodes = self.state.config.cluster.num_nodes.max(2) as f64;
        let bw = self.state.config.cluster.profile.network_bw;
        let scaled = bytes as f64 * self.state.config.sim_scale;
        let cost = (scaled / bw) * nodes.log2().max(1.0);
        self.charge("broadcast", cost);
        cost
    }

    /// Advance the clock by a cost that is not a stage of tasks (e.g. a DFS
    /// materialization modelled by [`shark_cluster::DfsModel`]), recorded as
    /// a stage-less job so it shows in [`Self::job_history`].
    pub fn charge(&self, name: &str, seconds: f64) {
        self.state.cluster.lock().advance(seconds);
        self.push_report(JobReport {
            name: name.to_string(),
            sim_duration: seconds,
            ..JobReport::default()
        });
    }

    /// Price and record a finished job: replay its task logs on the
    /// simulated cluster — in order, once, under one lock, the only time a
    /// job touches the simulator — and advance the clock by their sum, the
    /// job's simulated seconds, which are returned. The scheduler records
    /// every action, stream and pre-shuffle here; a layer that runs its own
    /// stage (the SQL layer's table load) logs the tasks and records it the
    /// same way.
    pub fn record_job(&self, name: &str, mut stages: Vec<StageReport>, real_duration: f64) -> f64 {
        {
            let mut cluster = self.state.cluster.lock();
            for stage in &mut stages {
                let sim = cluster.simulate_stage(&stage.tasks);
                stage.sim_duration = sim.duration;
                stage.speculative_copies = sim.speculative_copies;
                stage.tasks_rerun = sim.tasks_rerun;
                stage_obs().rows_in.add(stage.rows_in);
                stage_obs().bytes_in.add(stage.bytes_in);
            }
        }
        let sim_duration = stages.iter().map(|s| s.sim_duration).sum();
        self.push_report(JobReport {
            name: name.to_string(),
            stages,
            sim_duration,
            real_duration,
        });
        sim_duration
    }

    /// What `stages` would be priced at now, on a copy of the simulator.
    pub(crate) fn preview_stages<'a>(
        &self,
        stages: impl IntoIterator<Item = &'a [TaskSpec]>,
    ) -> f64 {
        self.state.cluster.lock().preview(stages)
    }

    /// Append to the bounded job history, forgetting the oldest report once
    /// [`JOB_HISTORY_CAP`] are held.
    fn push_report(&self, report: JobReport) {
        let mut reports = self.state.reports.lock();
        if reports.len() == JOB_HISTORY_CAP {
            reports.pop_front();
        }
        reports.push_back(report);
    }

    /// The report of the most recently completed job, if any.
    pub fn last_job(&self) -> Option<JobReport> {
        self.state.reports.lock().back().cloned()
    }

    /// The most recent job reports (a bounded window), oldest first.
    pub fn job_history(&self) -> Vec<JobReport> {
        self.state.reports.lock().iter().cloned().collect()
    }

    /// Clear recorded job reports.
    pub fn clear_job_history(&self) {
        self.state.reports.lock().clear();
    }

    // ----- source RDD creation -------------------------------------------------

    /// Distribute an in-memory collection across `partitions` partitions.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, partitions: usize) -> Rdd<T> {
        let partitions = partitions.max(1);
        let chunks: Vec<Vec<T>> = split_into(data, partitions);
        self.source("source(Local)", partitions, move |p, metrics| {
            let data = chunks[p].clone();
            let bytes = estimate_slice(&data) as u64;
            metrics.record_input(data.len() as u64, bytes, InputSource::Local);
            Ok(data)
        })
    }

    /// The one leaf RDD: an RDD named `name` with `partitions` partitions
    /// and no parent. `body(p, metrics)` builds partition `p` and charges
    /// its own input (rows, bytes and where they conceptually live, so the
    /// cost model charges the right I/O), plus any work it does. Every
    /// table scan of the SQL layer is such a body, and so is
    /// [`Self::parallelize`].
    pub fn source<T, F>(&self, name: &str, partitions: usize, body: F) -> Rdd<T>
    where
        T: Data,
        F: Fn(usize, &mut TaskMetrics) -> Result<Vec<T>> + Send + Sync + 'static,
    {
        let inner = SourceRdd {
            id: self.next_rdd_id(),
            name: name.to_string(),
            partitions,
            body: Box::new(body),
        };
        Rdd::new(self.clone(), Arc::new(inner))
    }
}

/// Split a vector into `n` nearly equal chunks (used by `parallelize`).
fn split_into<T>(mut data: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let total = data.len();
    let mut out = Vec::with_capacity(n);
    let base = total / n;
    let extra = total % n;
    // Draining from the front keeps order stable.
    let mut rest = data.split_off(0);
    for i in 0..n {
        let take = base + usize::from(i < extra);
        let tail = rest.split_off(take.min(rest.len()));
        out.push(rest);
        rest = tail;
    }
    out
}

#[cfg(test)]
impl RddContext {
    /// A test leaf named `source(Dfs)` whose partition `p` is `f(p)`,
    /// charged as DFS input (its rows and estimated bytes).
    pub(crate) fn dfs_source<T: Data, F>(&self, partitions: usize, f: F) -> Rdd<T>
    where
        F: Fn(usize) -> Vec<T> + Send + Sync + 'static,
    {
        self.source("source(Dfs)", partitions, move |p, metrics| {
            let data = f(p);
            let bytes = estimate_slice(&data) as u64;
            metrics.record_input(data.len() as u64, bytes, InputSource::Dfs);
            Ok(data)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_into_balances_sizes() {
        let parts = split_into((0..10).collect::<Vec<i32>>(), 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], vec![0, 1, 2, 3]);
        assert_eq!(parts[1], vec![4, 5, 6]);
        assert_eq!(parts[2], vec![7, 8, 9]);
        let empty = split_into(Vec::<i32>::new(), 4);
        assert_eq!(empty.len(), 4);
        assert!(empty.iter().all(|p| p.is_empty()));
    }

    #[test]
    fn ids_are_unique() {
        let ctx = RddContext::local();
        let a = ctx.next_rdd_id();
        let b = ctx.next_rdd_id();
        assert_ne!(a, b);
        assert_ne!(ctx.new_shuffle().id(), ctx.new_shuffle().id());
    }

    #[test]
    fn fail_node_drops_cache_and_shrinks_cluster() {
        let ctx = RddContext::local();
        let block = |partition| BlockId::Rdd { rdd: 1, partition };
        ctx.cache().put(block(0), Arc::new(vec![1i64]), 2, 8, 1);
        ctx.cache().put(block(1), Arc::new(vec![2i64]), 3, 8, 1);
        let before = ctx.alive_nodes();
        assert_eq!(ctx.fail_node(2), vec![block(0)]);
        assert_eq!(ctx.alive_nodes(), before - 1);
        assert!(ctx.cache().contains(block(1)));
        assert!(!ctx.cache().contains(block(0)));
        // A second failure adds to the first: both nodes stay dead, and no
        // partition cached afterwards is placed on either.
        ctx.fail_node(0);
        assert_eq!(ctx.alive_nodes(), before - 2);
        let rdd = ctx.parallelize((0i64..8).collect(), 8).cache();
        assert_eq!(rdd.count().unwrap(), 8);
        for partition in 0..8 {
            let node = ctx.cache().location(BlockId::Rdd {
                rdd: rdd.id(),
                partition,
            });
            assert!(
                matches!(node, Some(1 | 3)),
                "partition {partition} cached on {node:?}"
            );
        }
    }

    #[test]
    fn a_failed_node_stays_failed_after_a_reset() {
        let ctx = RddContext::local();
        ctx.charge("earlier work", 3.0);
        ctx.fail_node(2);
        assert_eq!(ctx.alive_nodes(), 3);
        ctx.reset_simulation();
        assert_eq!(ctx.alive_nodes(), 3);
        // Nothing cached after the reset is placed on the dead node.
        let rdd = ctx.parallelize((0i64..8).collect(), 8).cache();
        assert_eq!(rdd.count().unwrap(), 8);
        for partition in 0..8 {
            let node = ctx.cache().location(BlockId::Rdd {
                rdd: rdd.id(),
                partition,
            });
            assert!(
                matches!(node, Some(0 | 1 | 3)),
                "partition {partition} cached on {node:?}"
            );
        }
    }

    #[test]
    fn broadcast_advances_clock() {
        let ctx = RddContext::local();
        let before = ctx.simulated_time();
        let cost = ctx.charge_broadcast(1 << 30);
        assert!(cost > 0.0);
        assert!(ctx.simulated_time() > before);
        ctx.reset_simulation();
        assert_eq!(ctx.simulated_time(), 0.0);
    }

    #[test]
    fn job_history_roundtrip() {
        let ctx = RddContext::local();
        assert!(ctx.last_job().is_none());
        ctx.record_job("test", vec![], 0.0);
        assert_eq!(ctx.last_job().unwrap().name, "test");
        assert_eq!(ctx.job_history().len(), 1);
        ctx.clear_job_history();
        assert!(ctx.job_history().is_empty());
        // The history is a ring: the newest reports survive, in order.
        for i in 0..JOB_HISTORY_CAP + 10 {
            ctx.record_job(&i.to_string(), vec![], 0.0);
        }
        let history = ctx.job_history();
        assert_eq!(history.len(), JOB_HISTORY_CAP);
        assert_eq!(history[0].name, "10");
        assert_eq!(
            ctx.last_job().unwrap().name,
            (JOB_HISTORY_CAP + 9).to_string()
        );
    }
}
