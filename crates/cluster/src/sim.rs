//! Event-driven stage scheduling simulation.
//!
//! [`ClusterSim`] plays the role of the Spark master / Hadoop JobTracker: it
//! takes the tasks of one stage (with durations produced by the
//! [`CostModel`](crate::CostModel)), places them on `nodes × cores` slots in
//! FIFO waves, applies per-task launch overhead and heartbeat delays,
//! per-node straggler slowdowns, speculative backup copies, and node
//! failures, and reports the simulated wall-clock duration of the stage.
//!
//! Stages of one job run back-to-back on the same `ClusterSim`, which keeps
//! a running clock so failure times (expressed relative to job start) land
//! in the correct stage.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::ClusterConfig;
use crate::failure::FailurePlan;

/// One task to be scheduled in a stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Simulated execution duration (excluding launch overhead), seconds.
    pub duration: f64,
}

impl TaskSpec {
    /// A task with the given duration.
    pub fn new(duration: f64) -> TaskSpec {
        TaskSpec { duration }
    }
}

/// The outcome of simulating one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSimResult {
    /// Wall-clock duration of the stage (seconds).
    pub duration: f64,
    /// Absolute finish time of each task (relative to job start).
    pub task_finish_times: Vec<f64>,
    /// Node each task ultimately ran on.
    pub placements: Vec<usize>,
    /// Number of speculative backup copies launched.
    pub speculative_copies: usize,
    /// Number of task executions lost to node failures and re-run.
    pub tasks_rerun: usize,
}

/// Simulated-stage-duration histogram buckets (simulated seconds).
const SIM_STAGE_BUCKETS: &[f64] = &[0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0];

/// Cached handles into the unified metrics registry; registration happens
/// once, every stage thereafter is a handful of atomic ops.
struct SimMetrics {
    stages: std::sync::Arc<shark_obs::Counter>,
    tasks: std::sync::Arc<shark_obs::Counter>,
    speculative: std::sync::Arc<shark_obs::Counter>,
    reruns: std::sync::Arc<shark_obs::Counter>,
    stage_seconds: std::sync::Arc<shark_obs::Histogram>,
}

fn sim_metrics() -> &'static SimMetrics {
    static METRICS: std::sync::OnceLock<SimMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = shark_obs::metrics();
        SimMetrics {
            stages: reg.counter("shark_sim_stages_total", "Simulated stages executed"),
            tasks: reg.counter("shark_sim_tasks_total", "Simulated tasks placed"),
            speculative: reg.counter(
                "shark_sim_speculative_copies_total",
                "Speculative backup task copies launched in simulation",
            ),
            reruns: reg.counter(
                "shark_sim_task_reruns_total",
                "Simulated task executions lost to node failures and re-run",
            ),
            stage_seconds: reg.histogram(
                "shark_sim_stage_seconds",
                "Simulated wall-clock duration per stage (simulated seconds)",
                SIM_STAGE_BUCKETS,
            ),
        }
    })
}

/// Publish one simulated stage's timing into the unified metrics registry.
fn record_stage_metrics(result: &StageSimResult, tasks: usize) {
    let m = sim_metrics();
    m.stages.inc();
    m.tasks.add(tasks as u64);
    m.speculative.add(result.speculative_copies as u64);
    m.reruns.add(result.tasks_rerun as u64);
    m.stage_seconds.observe(result.duration);
}

/// Ordered slot entry for the free-slot heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    free_at: f64,
    node: usize,
}

impl Eq for Slot {}
impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Slot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.free_at
            .total_cmp(&other.free_at)
            .then(self.node.cmp(&other.node))
    }
}

/// The cluster scheduler simulator. See the module documentation.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    config: ClusterConfig,
    failure: FailurePlan,
    clock: f64,
    rng: StdRng,
}

impl ClusterSim {
    /// Create a simulator for the given cluster.
    pub fn new(config: ClusterConfig) -> ClusterSim {
        let seed = config.seed;
        ClusterSim {
            config,
            failure: FailurePlan::none(),
            clock: 0.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Install a failure plan (times are relative to the job clock).
    pub fn set_failure_plan(&mut self, plan: FailurePlan) {
        self.failure = plan;
    }

    /// Fail `node` at the current clock, adding to the failures already
    /// planned.
    pub fn fail_node_now(&mut self, node: usize) {
        self.failure = std::mem::take(&mut self.failure).and_then(node, self.clock);
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current simulated time since the job started.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Reset the clock and counters (a new job on the same cluster). A node
    /// that has already failed stays failed: from time 0 on.
    pub fn reset(&mut self) {
        self.failure = std::mem::take(&mut self.failure).restarted_at(self.clock);
        self.clock = 0.0;
        self.rng = StdRng::seed_from_u64(self.config.seed);
    }

    /// Advance the clock by a fixed amount (e.g. a driver-side barrier or a
    /// DFS load modeled outside the task scheduler).
    pub fn advance(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "cannot advance the clock backwards");
        self.clock += seconds;
    }

    /// Nodes still alive at the current clock.
    pub fn alive_nodes(&self) -> Vec<usize> {
        let dead = self.failure.failed_nodes_by(self.clock);
        (0..self.config.num_nodes)
            .filter(|n| !dead.contains(n))
            .collect()
    }

    /// Whether the given node is alive at time `t`.
    fn node_alive_at(&self, node: usize, t: f64) -> bool {
        !self.failure.is_failed(node, t)
    }

    /// Simulate one stage of tasks. Advances the job clock by the stage's
    /// duration and returns placement and timing details.
    pub fn simulate_stage(&mut self, tasks: &[TaskSpec]) -> StageSimResult {
        let result = self.place_stage(tasks);
        if !tasks.is_empty() {
            record_stage_metrics(&result, tasks.len());
        }
        result
    }

    /// What `stages`, run back-to-back from the current clock and straggler
    /// draws, would take in total — replayed on a copy, so neither the clock
    /// nor the `shark_sim_*` metrics move.
    pub fn preview<'a>(&self, stages: impl IntoIterator<Item = &'a [TaskSpec]>) -> f64 {
        let mut sim = self.clone();
        stages
            .into_iter()
            .map(|tasks| sim.place_stage(tasks).duration)
            .sum()
    }

    /// Place one stage's tasks on the cluster and advance the clock.
    fn place_stage(&mut self, tasks: &[TaskSpec]) -> StageSimResult {
        let stage_start = self.clock;
        if tasks.is_empty() {
            return StageSimResult {
                duration: 0.0,
                task_finish_times: vec![],
                placements: vec![],
                speculative_copies: 0,
                tasks_rerun: 0,
            };
        }

        let p = &self.config.profile;
        // Per-stage straggler assignment.
        let slowdown: Vec<f64> = (0..self.config.num_nodes)
            .map(|_| {
                if self.rng.gen::<f64>() < self.config.straggler_probability {
                    self.config.straggler_slowdown
                } else {
                    1.0
                }
            })
            .collect();

        // Median duration for the speculation heuristic.
        let mut sorted: Vec<f64> = tasks.iter().map(|t| t.duration).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];

        // Free-slot heap, only for nodes alive at stage start.
        let mut slots: BinaryHeap<Reverse<Slot>> = BinaryHeap::new();
        for node in 0..self.config.num_nodes {
            if !self.node_alive_at(node, stage_start) {
                continue;
            }
            for _ in 0..self.config.cores_per_node {
                slots.push(Reverse(Slot {
                    free_at: stage_start,
                    node,
                }));
            }
        }
        assert!(
            !slots.is_empty(),
            "no alive nodes remain in the simulated cluster"
        );

        let mut finish_times = vec![0.0f64; tasks.len()];
        let mut placements = vec![0usize; tasks.len()];
        let mut speculative = 0usize;
        let mut reruns = 0usize;

        // FIFO queue of task indices; failed executions get pushed back.
        let mut queue: std::collections::VecDeque<usize> = (0..tasks.len()).collect();

        while let Some(ti) = queue.pop_front() {
            let task = &tasks[ti];

            // Pop a free slot on a node that is still alive when it frees up.
            let slot = loop {
                let Reverse(slot) = slots.pop().expect("slot heap exhausted");
                if self.node_alive_at(slot.node, slot.free_at) {
                    break slot;
                }
                // Dead node: its slots are discarded. If the heap empties the
                // expect above fires, which would indicate total cluster loss.
            };

            let wave_jitter = if p.scheduling_wave_delay > 0.0 {
                self.rng.gen::<f64>() * p.scheduling_wave_delay
            } else {
                0.0
            };
            let overhead = p.task_launch_overhead + wave_jitter;
            let start = slot.free_at;
            let mut run = task.duration * slowdown[slot.node];

            // Speculative execution: a backup copy launched once the task has
            // run 1.5x the median caps the effective duration, assuming the
            // backup lands on a non-straggler (§2.3, §7).
            if p.speculative_execution && run > 1.5 * median && slowdown[slot.node] > 1.0 {
                let capped = 1.5 * median + p.task_launch_overhead + task.duration;
                if capped < run {
                    run = capped;
                    speculative += 1;
                }
            }

            let finish = start + overhead + run;

            // Did the node die while the task was running?
            if let Some((_, ft)) = self
                .failure
                .failures()
                .iter()
                .find(|(n, ft)| *n == slot.node && *ft > start && *ft <= finish)
                .copied()
            {
                // The execution up to the failure is wasted; re-queue.
                reruns += 1;
                queue.push_back(ti);
                // The node's remaining slots will be skipped when popped; we
                // simply do not return this slot to the heap.
                let _ = ft;
                continue;
            }

            finish_times[ti] = finish;
            placements[ti] = slot.node;
            slots.push(Reverse(Slot {
                free_at: finish,
                node: slot.node,
            }));
        }

        let stage_end = finish_times.iter().fold(stage_start, |acc, &t| acc.max(t));
        self.clock = stage_end;

        StageSimResult {
            duration: stage_end - stage_start,
            task_finish_times: finish_times,
            placements,
            speculative_copies: speculative,
            tasks_rerun: reruns,
        }
    }

    /// Convenience: simulate a stage of `n` identical tasks of `duration`.
    pub fn simulate_uniform_stage(&mut self, n: usize, duration: f64) -> StageSimResult {
        let tasks: Vec<TaskSpec> = (0..n).map(|_| TaskSpec::new(duration)).collect();
        self.simulate_stage(&tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, EngineProfile};

    fn sim(nodes: usize, cores: usize) -> ClusterSim {
        ClusterSim::new(ClusterConfig::small(nodes, cores))
    }

    #[test]
    fn single_wave_runs_in_parallel() {
        let mut s = sim(4, 2);
        let r = s.simulate_uniform_stage(8, 10.0);
        // 8 tasks over 8 slots: one wave.
        assert!(r.duration >= 10.0 && r.duration < 10.5, "{}", r.duration);
        assert_eq!(r.task_finish_times.len(), 8);
    }

    #[test]
    fn multiple_waves_accumulate() {
        let mut s = sim(2, 2);
        let r = s.simulate_uniform_stage(8, 5.0);
        // 8 tasks over 4 slots: two waves.
        assert!(r.duration >= 10.0 && r.duration < 11.0, "{}", r.duration);
    }

    #[test]
    fn clock_advances_across_stages() {
        let mut s = sim(2, 2);
        s.simulate_uniform_stage(4, 5.0);
        let t1 = s.now();
        s.simulate_uniform_stage(4, 5.0);
        assert!(s.now() > t1);
        s.reset();
        assert_eq!(s.now(), 0.0);
    }

    #[test]
    fn a_failed_node_stays_failed_after_a_reset() {
        let mut s = sim(4, 2);
        s.advance(3.0);
        s.fail_node_now(2);
        // A failure planned past the reset clock keeps its time.
        let plan = std::mem::take(&mut s.failure).and_then(0, 5.0);
        s.set_failure_plan(plan);
        assert_eq!(s.alive_nodes(), [0, 1, 3]);
        s.reset();
        assert_eq!(s.alive_nodes(), [0, 1, 3]);
        let r = s.simulate_uniform_stage(12, 1.0);
        assert!(r.placements.iter().all(|&node| node != 2), "{r:?}");
        assert!(r.placements.contains(&0));
        s.advance(5.0);
        assert_eq!(s.alive_nodes(), [1, 3]);
    }

    #[test]
    fn hadoop_overhead_dominates_short_tasks() {
        let spark = ClusterConfig::small(10, 8);
        let hadoop = ClusterConfig::small(10, 8).with_profile(EngineProfile::hadoop());
        let mut ss = ClusterSim::new(spark);
        let mut hs = ClusterSim::new(hadoop);
        let r_spark = ss.simulate_uniform_stage(400, 0.1);
        let r_hadoop = hs.simulate_uniform_stage(400, 0.1);
        // 400 tasks of 100ms on 80 slots: Spark ~0.5s, Hadoop >25s.
        assert!(
            r_hadoop.duration > r_spark.duration * 20.0,
            "spark {} hadoop {}",
            r_spark.duration,
            r_hadoop.duration
        );
    }

    #[test]
    fn stragglers_hurt_without_speculation_but_not_with_it() {
        let mut base = ClusterConfig::small(20, 4);
        base.straggler_probability = 0.2;
        base.straggler_slowdown = 10.0;
        let mut no_spec = base.clone();
        no_spec.profile.speculative_execution = false;
        let mut with_spec = base;
        with_spec.profile.speculative_execution = true;

        let mut s1 = ClusterSim::new(no_spec);
        let mut s2 = ClusterSim::new(with_spec);
        let r1 = s1.simulate_uniform_stage(80, 10.0);
        let r2 = s2.simulate_uniform_stage(80, 10.0);
        assert!(
            r1.duration > r2.duration,
            "speculation should shorten the stage: {} vs {}",
            r1.duration,
            r2.duration
        );
        assert!(r2.speculative_copies > 0);
    }

    #[test]
    fn node_failure_causes_reruns_and_still_completes() {
        let mut cfg = ClusterConfig::small(5, 2);
        cfg.straggler_probability = 0.0;
        let mut s = ClusterSim::new(cfg);
        s.set_failure_plan(FailurePlan::single(0, 5.0));
        let r = s.simulate_uniform_stage(20, 10.0);
        assert!(r.tasks_rerun > 0, "tasks on node 0 should be re-run");
        assert_eq!(r.task_finish_times.len(), 20);
        // All tasks finished and none are placed on the dead node after its
        // failure time.
        for (i, &node) in r.placements.iter().enumerate() {
            if node == 0 {
                assert!(r.task_finish_times[i] <= 5.0);
            }
        }
        assert_eq!(s.alive_nodes().len(), 4);
    }

    #[test]
    fn empty_stage_is_free() {
        let mut s = sim(2, 2);
        let r = s.simulate_stage(&[]);
        assert_eq!(r.duration, 0.0);
        assert_eq!(s.now(), 0.0);
    }

    #[test]
    fn preview_prices_what_simulate_then_charges_without_moving_anything() {
        let mut cfg = ClusterConfig::paper_shark_cluster();
        cfg.straggler_probability = 0.3;
        let mut s = ClusterSim::new(cfg);
        s.simulate_uniform_stage(900, 2.0);
        let map: Vec<TaskSpec> = (0..1200).map(|i| TaskSpec::new(1.0 + i as f64)).collect();
        let reduce = vec![TaskSpec::new(3.0); 40];
        let clock = s.now();
        let preview = s.preview([&map[..], &reduce[..]]);
        assert_eq!(s.now(), clock);
        let charged = s.simulate_stage(&map).duration + s.simulate_stage(&reduce).duration;
        assert_eq!(preview, charged);
    }

    #[test]
    fn advance_moves_clock() {
        let mut s = sim(2, 2);
        s.advance(12.5);
        assert_eq!(s.now(), 12.5);
    }

    #[test]
    fn figure13_shape_many_small_tasks_fine_for_spark_bad_for_hadoop() {
        // The Figure 13 claim: Spark can launch thousands of reduce tasks
        // with little overhead, Hadoop cannot.
        let work = 4000.0; // total seconds of work to split
        let slots = 800;
        let durations = |n: usize| work / n as f64;

        let mut spark_times = vec![];
        let mut hadoop_times = vec![];
        for &n in &[50usize, 500, 5000] {
            // Disable stragglers so the test isolates pure launch overhead.
            let mut scfg = ClusterConfig::paper_shark_cluster();
            scfg.straggler_probability = 0.0;
            let mut hcfg = ClusterConfig::paper_hive_cluster();
            hcfg.straggler_probability = 0.0;
            let mut ssim = ClusterSim::new(scfg);
            let mut hsim = ClusterSim::new(hcfg);
            spark_times.push(ssim.simulate_uniform_stage(n, durations(n)).duration);
            hadoop_times.push(hsim.simulate_uniform_stage(n, durations(n)).duration);
        }
        let _ = slots;
        // For Hadoop, 5000 tasks is much slower than 500 (overhead dominates).
        assert!(hadoop_times[2] > hadoop_times[1] * 1.5);
        // For Spark, going from 500 to 5000 tasks changes little.
        assert!(spark_times[2] < spark_times[1] * 1.5);
    }
}
