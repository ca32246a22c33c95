//! Cluster and engine configuration.
//!
//! The two [`EngineProfile`] presets encode the cost-model differences
//! between the Spark-based Shark runtime and the Hadoop/Hive baseline that
//! the paper's Section 7 enumerates. All parameters are plain public fields
//! so experiments and ablation benches can tweak them individually.

use serde::{Deserialize, Serialize};

/// Which execution engine a profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineKind {
    /// Spark-like engine: low task overhead, in-memory shuffle, general DAGs.
    Spark,
    /// Hadoop MapReduce-like engine: high task overhead, disk + DFS
    /// materialization, sort-based shuffle, two-stage topology only.
    Hadoop,
}

/// Cost-model parameters for one execution engine.
///
/// Durations are seconds, throughputs are bytes/second, and per-row CPU
/// costs are seconds/row. The defaults are calibrated against the paper's
/// reported numbers (§6, §7) for an `m2.4xlarge`-class node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineProfile {
    /// Which engine family this profile models.
    pub kind: EngineKind,
    /// Human-readable name used in experiment output.
    pub name: String,
    /// Fixed overhead to launch one task (Spark ≈ 5 ms, Hadoop ≈ 5 s, §7).
    pub task_launch_overhead: f64,
    /// Additional per-scheduling-wave delay (Hadoop heartbeat ≈ 3 s, §7).
    pub scheduling_wave_delay: f64,
    /// Baseline CPU cost per input row (row pipeline bookkeeping).
    pub cpu_per_row: f64,
    /// CPU cost per expression operation per row. Hive interprets expression
    /// evaluators (§5 "bytecode compilation"), Shark runs compiled closures.
    pub cpu_per_expr_op: f64,
    /// Throughput of deserializing on-disk/text rows (≈200 MB/s/core, §3.2).
    pub row_deserialize_bw: f64,
    /// Throughput of scanning the columnar memstore (per core).
    pub columnar_scan_bw: f64,
    /// Memory bandwidth available to a core for shuffle-in-memory traffic.
    pub memory_bw: f64,
    /// Local disk bandwidth per node.
    pub disk_bw: f64,
    /// Network bandwidth per node.
    pub network_bw: f64,
    /// Whether map output is materialized to local disk before reduce
    /// (Hadoop) or kept in memory with optional spill (Shark, §5).
    pub shuffle_to_disk: bool,
    /// Whether the shuffle sorts map output (Hadoop) or hashes it (Spark, §7).
    pub sort_based_shuffle: bool,
    /// CPU cost per key comparison when sorting shuffle output.
    pub sort_cmp_cost: f64,
    /// Whether stage outputs are written to the replicated DFS between
    /// MapReduce jobs (Hive) or kept as in-memory RDDs (Shark, §7).
    pub materialize_stages_to_dfs: bool,
    /// DFS replication factor used when materializing stage output.
    pub dfs_replication: u32,
    /// Whether the scheduler launches speculative backup copies of slow
    /// tasks (§2.3 property 3).
    pub speculative_execution: bool,
}

impl EngineProfile {
    /// The Spark/Shark engine profile (§2.1, §5, §7).
    pub fn spark() -> EngineProfile {
        EngineProfile {
            kind: EngineKind::Spark,
            name: "shark".to_string(),
            task_launch_overhead: 0.005,
            scheduling_wave_delay: 0.0,
            cpu_per_row: 5.0e-8,
            cpu_per_expr_op: 1.5e-8,
            row_deserialize_bw: 200.0e6,
            columnar_scan_bw: 4.0e9,
            memory_bw: 2.0e9,
            disk_bw: 100.0e6,
            network_bw: 1.0e9,
            shuffle_to_disk: false,
            sort_based_shuffle: false,
            sort_cmp_cost: 2.0e-8,
            materialize_stages_to_dfs: false,
            dfs_replication: 3,
            speculative_execution: true,
        }
    }

    /// The Hadoop/Hive baseline profile (§6.1, §7).
    pub fn hadoop() -> EngineProfile {
        EngineProfile {
            kind: EngineKind::Hadoop,
            name: "hive".to_string(),
            task_launch_overhead: 5.0,
            scheduling_wave_delay: 3.0,
            cpu_per_row: 2.5e-7,
            cpu_per_expr_op: 1.0e-7,
            row_deserialize_bw: 200.0e6,
            // Hive has no columnar memstore; reads always pay deserialization.
            columnar_scan_bw: 200.0e6,
            memory_bw: 2.0e9,
            disk_bw: 100.0e6,
            network_bw: 1.0e9,
            shuffle_to_disk: true,
            sort_based_shuffle: true,
            sort_cmp_cost: 8.0e-8,
            materialize_stages_to_dfs: true,
            dfs_replication: 3,
            speculative_execution: false,
        }
    }

    /// Profile for Hadoop reading a compact binary format instead of text
    /// (the "Hadoop (binary)" series in Figures 11–12).
    pub fn hadoop_binary() -> EngineProfile {
        let mut p = EngineProfile::hadoop();
        p.name = "hadoop-binary".to_string();
        p.row_deserialize_bw = 600.0e6;
        p.cpu_per_row = 1.2e-7;
        p
    }
}

/// Size and topology of the simulated cluster plus its engine profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub num_nodes: usize,
    /// Cores (task slots) per node.
    pub cores_per_node: usize,
    /// Memory available for the memstore per node, in bytes.
    pub memory_per_node: u64,
    /// The engine cost profile.
    pub profile: EngineProfile,
    /// Probability that any given node is a straggler for a given stage.
    pub straggler_probability: f64,
    /// Slowdown factor applied to tasks on straggler nodes.
    pub straggler_slowdown: f64,
    /// Seed for the deterministic straggler/placement RNG.
    pub seed: u64,
}

impl ClusterConfig {
    /// The paper's main setup: 100 `m2.4xlarge` nodes with 8 cores and 68 GB
    /// each, running the Shark/Spark engine (§6.1).
    pub fn paper_shark_cluster() -> ClusterConfig {
        ClusterConfig {
            num_nodes: 100,
            cores_per_node: 8,
            memory_per_node: 68 * 1024 * 1024 * 1024,
            profile: EngineProfile::spark(),
            straggler_probability: 0.02,
            straggler_slowdown: 4.0,
            seed: 42,
        }
    }

    /// Same hardware, Hive/Hadoop engine.
    pub fn paper_hive_cluster() -> ClusterConfig {
        ClusterConfig {
            profile: EngineProfile::hadoop(),
            ..ClusterConfig::paper_shark_cluster()
        }
    }

    /// A small cluster suitable for unit tests.
    pub fn small(num_nodes: usize, cores_per_node: usize) -> ClusterConfig {
        ClusterConfig {
            num_nodes,
            cores_per_node,
            memory_per_node: 4 * 1024 * 1024 * 1024,
            profile: EngineProfile::spark(),
            straggler_probability: 0.0,
            straggler_slowdown: 1.0,
            seed: 7,
        }
    }

    /// Replace the engine profile, returning the modified config.
    pub fn with_profile(mut self, profile: EngineProfile) -> ClusterConfig {
        self.profile = profile;
        self
    }

    /// Validate configuration invariants.
    pub fn validate(&self) -> shark_common::Result<()> {
        if self.num_nodes == 0 || self.cores_per_node == 0 {
            return Err(shark_common::SharkError::Config(
                "cluster must have at least one node and one core".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.straggler_probability) {
            return Err(shark_common::SharkError::Config(
                "straggler probability must be within [0, 1]".into(),
            ));
        }
        if self.straggler_slowdown < 1.0 {
            return Err(shark_common::SharkError::Config(
                "straggler slowdown must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_reflect_paper_parameters() {
        let spark = EngineProfile::spark();
        let hadoop = EngineProfile::hadoop();
        // Task launch overhead gap of ~1000x (5 ms vs 5 s, §7).
        assert!(hadoop.task_launch_overhead / spark.task_launch_overhead >= 500.0);
        assert!(!spark.shuffle_to_disk && hadoop.shuffle_to_disk);
        assert!(!spark.sort_based_shuffle && hadoop.sort_based_shuffle);
        assert!(!spark.materialize_stages_to_dfs && hadoop.materialize_stages_to_dfs);
        assert!(spark.speculative_execution && !hadoop.speculative_execution);
    }

    #[test]
    fn paper_cluster_shape() {
        let c = ClusterConfig::paper_shark_cluster();
        assert_eq!(c.num_nodes, 100);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = ClusterConfig::small(0, 4);
        assert!(c.validate().is_err());
        c = ClusterConfig::small(4, 4);
        c.straggler_probability = 1.5;
        assert!(c.validate().is_err());
        c.straggler_probability = 0.1;
        c.straggler_slowdown = 0.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn hadoop_binary_is_faster_to_deserialize_than_text() {
        assert!(
            EngineProfile::hadoop_binary().row_deserialize_bw
                > EngineProfile::hadoop().row_deserialize_bw
        );
    }
}
