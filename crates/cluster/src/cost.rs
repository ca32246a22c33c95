//! The task cost model.
//!
//! The RDD layer executes every task for real on scaled-down data and
//! measures row and byte counts. [`CostModel::task_duration`] converts those
//! measurements into a simulated task duration under a given
//! [`EngineProfile`], charging for input I/O (columnar scan, row
//! deserialization, shuffle fetch or DFS read), per-row CPU, optional
//! sorting, and output materialization (memory, shuffled output, DFS write
//! with replication).

use serde::{Deserialize, Serialize};

use crate::config::EngineProfile;

/// Where a task reads its input from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputSource {
    /// The columnar in-memory store (Shark memstore, §3.2).
    CachedColumnar,
    /// Deserialized row objects cached in memory (the naïve Spark cache).
    CachedRows,
    /// The distributed file system (text/sequence files; pays deserialization).
    Dfs,
    /// Shuffle output fetched from other nodes' memory.
    ShuffleMemory,
    /// Shuffle output fetched from other nodes' local disks.
    ShuffleDisk,
    /// Task-local generated data (no input I/O charged).
    Local,
}

/// Where a task writes its output to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputSink {
    /// Kept in memory as an RDD partition / memstore partition.
    Memory,
    /// Shuffle output for the next stage (disk or memory per the profile).
    Shuffle,
    /// Written to the replicated DFS (Hive inter-stage materialization).
    Dfs,
    /// Returned to the master (query result collection).
    Collect,
    /// Discarded (e.g. counting only).
    None,
}

/// Measured characteristics of one task, fed to the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskCostInput {
    /// Rows read by the task.
    pub rows_in: u64,
    /// Bytes read by the task.
    pub bytes_in: u64,
    /// Rows produced by the task.
    pub rows_out: u64,
    /// Bytes produced by the task.
    pub bytes_out: u64,
    /// Where the input came from.
    pub input: InputSource,
    /// Where the output goes.
    pub output: OutputSink,
    /// Average number of expression/comparison operations applied per input
    /// row (filters, projections, aggregation updates, hash probes).
    pub expr_ops_per_row: f64,
    /// Whether the task sorts its output (sort-based shuffle or ORDER BY).
    pub sort_rows: u64,
}

impl TaskCostInput {
    /// A task that scans `rows_in`/`bytes_in` from `input` and produces
    /// `rows_out`/`bytes_out` to `output` with `expr_ops_per_row` work.
    pub fn new(
        rows_in: u64,
        bytes_in: u64,
        rows_out: u64,
        bytes_out: u64,
        input: InputSource,
        output: OutputSink,
        expr_ops_per_row: f64,
    ) -> TaskCostInput {
        TaskCostInput {
            rows_in,
            bytes_in,
            rows_out,
            bytes_out,
            input,
            output,
            expr_ops_per_row,
            sort_rows: 0,
        }
    }
}

/// Converts [`TaskCostInput`] measurements into simulated durations.
#[derive(Debug, Clone)]
pub struct CostModel {
    profile: EngineProfile,
}

impl CostModel {
    /// Create a cost model for the given engine profile.
    pub fn new(profile: EngineProfile) -> CostModel {
        CostModel { profile }
    }

    /// The profile this model uses.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Simulated duration of a task, **excluding** launch overhead and
    /// scheduling delays (those are applied by the cluster simulator because
    /// they depend on placement and waves).
    pub fn task_duration(&self, t: &TaskCostInput) -> f64 {
        let p = &self.profile;
        let input_time = match t.input {
            InputSource::CachedColumnar => t.bytes_in as f64 / p.columnar_scan_bw,
            InputSource::CachedRows => t.bytes_in as f64 / p.memory_bw,
            InputSource::Dfs => {
                // Read from local disk (data-local task) + deserialize.
                t.bytes_in as f64 / p.disk_bw + t.bytes_in as f64 / p.row_deserialize_bw
            }
            InputSource::ShuffleMemory => {
                t.bytes_in as f64 / p.network_bw + t.bytes_in as f64 / p.memory_bw
            }
            InputSource::ShuffleDisk => {
                t.bytes_in as f64 / p.network_bw + t.bytes_in as f64 / p.disk_bw
            }
            InputSource::Local => 0.0,
        };

        let cpu_time = t.rows_in as f64 * (p.cpu_per_row + t.expr_ops_per_row * p.cpu_per_expr_op);

        let sort_time = if t.sort_rows > 1 {
            let n = t.sort_rows as f64;
            n * n.log2() * p.sort_cmp_cost
        } else {
            0.0
        };

        let output_time = match t.output {
            OutputSink::Memory => t.bytes_out as f64 / p.memory_bw,
            OutputSink::Shuffle => {
                if p.shuffle_to_disk {
                    // Write map output to local disk (plus journaling overhead
                    // folded into disk bandwidth).
                    t.bytes_out as f64 / p.disk_bw
                } else {
                    t.bytes_out as f64 / p.memory_bw
                }
            }
            OutputSink::Dfs => {
                // Replicated write: local disk plus (r-1) network copies.
                let r = p.dfs_replication.max(1) as f64;
                t.bytes_out as f64 / p.disk_bw + (r - 1.0) * t.bytes_out as f64 / p.network_bw
            }
            OutputSink::Collect => t.bytes_out as f64 / p.network_bw,
            OutputSink::None => 0.0,
        };

        input_time + cpu_time + sort_time + output_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineProfile;

    fn scan_task(input: InputSource) -> TaskCostInput {
        TaskCostInput::new(
            1_000_000,
            100 * 1024 * 1024,
            1_000,
            100 * 1024,
            input,
            OutputSink::Memory,
            2.0,
        )
    }

    #[test]
    fn columnar_scan_is_faster_than_deserializing_rows() {
        let m = CostModel::new(EngineProfile::spark());
        let columnar = m.task_duration(&scan_task(InputSource::CachedColumnar));
        let dfs = m.task_duration(&scan_task(InputSource::Dfs));
        assert!(
            dfs > columnar * 3.0,
            "expected >3x gap, got columnar={columnar} dfs={dfs}"
        );
    }

    #[test]
    fn hive_charges_more_cpu_per_row_than_shark() {
        let shark = CostModel::new(EngineProfile::spark());
        let hive = CostModel::new(EngineProfile::hadoop());
        let t = TaskCostInput::new(
            10_000_000,
            0,
            10_000_000,
            0,
            InputSource::Local,
            OutputSink::None,
            4.0,
        );
        assert!(hive.task_duration(&t) > shark.task_duration(&t) * 3.0);
    }

    #[test]
    fn dfs_output_charges_replication() {
        let m = CostModel::new(EngineProfile::hadoop());
        let mem = TaskCostInput::new(
            0,
            0,
            1_000_000,
            1 << 30,
            InputSource::Local,
            OutputSink::Memory,
            0.0,
        );
        let dfs = TaskCostInput {
            output: OutputSink::Dfs,
            ..mem
        };
        assert!(m.task_duration(&dfs) > m.task_duration(&mem) * 5.0);
    }

    #[test]
    fn empty_task_costs_nothing() {
        let m = CostModel::new(EngineProfile::spark());
        let t = TaskCostInput::new(0, 0, 0, 0, InputSource::Local, OutputSink::None, 0.0);
        assert_eq!(m.task_duration(&t), 0.0);
    }

    #[test]
    fn shuffle_output_is_cheaper_in_memory_than_on_disk() {
        let t = TaskCostInput::new(
            0,
            0,
            1_000_000,
            512 << 20,
            InputSource::Local,
            OutputSink::Shuffle,
            0.0,
        );
        let spark = CostModel::new(EngineProfile::spark()).task_duration(&t);
        let hadoop = CostModel::new(EngineProfile::hadoop()).task_duration(&t);
        assert!(hadoop > spark * 5.0);
    }
}
