//! A simple model of the replicated distributed file system (HDFS).
//!
//! Shark reads warehouse data through the Hadoop storage API and, in the
//! data-loading experiment (§6.2.4), compares the ingest throughput of HDFS
//! against its in-memory columnar store. This module models the aggregate
//! load/scan throughput of such a DFS: block-structured files, 3× replicated
//! writes bounded by disk and network bandwidth, and data-local reads.

use serde::{Deserialize, Serialize};

use crate::config::ClusterConfig;

/// Default HDFS block size (128 MB).
pub const DEFAULT_BLOCK_SIZE: u64 = 128 * 1024 * 1024;

/// A model of a replicated, block-structured distributed file system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DfsModel {
    /// Block size in bytes (determines the number of map tasks per file).
    pub block_size: u64,
    /// Replication factor for writes.
    pub replication: u32,
}

impl Default for DfsModel {
    fn default() -> Self {
        DfsModel {
            block_size: DEFAULT_BLOCK_SIZE,
            replication: 3,
        }
    }
}

impl DfsModel {
    /// Create a DFS model with explicit parameters.
    pub fn new(block_size: u64, replication: u32) -> DfsModel {
        assert!(block_size > 0, "block size must be positive");
        assert!(replication > 0, "replication must be positive");
        DfsModel {
            block_size,
            replication,
        }
    }

    /// Simulated time to write `bytes` bytes into the DFS using every node in
    /// parallel. Each byte is written to the local disk plus `replication-1`
    /// remote copies which traverse both the network and remote disks.
    pub fn write_seconds(&self, cluster: &ClusterConfig, bytes: u64) -> f64 {
        let nodes = cluster.num_nodes.max(1) as f64;
        let per_node_bytes = bytes as f64 / nodes;
        let disk = per_node_bytes * self.replication as f64 / cluster.profile.disk_bw;
        let net = per_node_bytes * (self.replication.saturating_sub(1)) as f64
            / cluster.profile.network_bw;
        disk.max(net)
    }

    /// Simulated time to scan `bytes` bytes from the DFS with data-local
    /// tasks (bounded by aggregate disk bandwidth).
    pub fn read_seconds(&self, cluster: &ClusterConfig, bytes: u64) -> f64 {
        let nodes = cluster.num_nodes.max(1) as f64;
        (bytes as f64 / nodes) / cluster.profile.disk_bw
    }
}

/// Simulated time to load `bytes` bytes into the columnar memstore: each
/// node converts its share of the input to columnar format at CPU speed
/// (the paper reports memstore ingest ≈5× faster than HDFS ingest because no
/// replication or disk write is involved, §3.3/§6.2.4).
pub fn memstore_load_seconds(cluster: &ClusterConfig, bytes: u64, rows: u64) -> f64 {
    let nodes = cluster.num_nodes.max(1) as f64;
    let per_node_bytes = bytes as f64 / nodes;
    let per_node_rows = rows as f64 / nodes;
    // Parse/extract fields + build columnar representation, all in memory.
    let parse = per_node_bytes / cluster.profile.row_deserialize_bw;
    let build = per_node_rows * cluster.profile.cpu_per_row * 4.0
        + per_node_bytes / cluster.profile.memory_bw;
    parse + build
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    #[test]
    fn replication_slows_writes() {
        let cluster = ClusterConfig::paper_hive_cluster();
        let r1 = DfsModel::new(DEFAULT_BLOCK_SIZE, 1);
        let r3 = DfsModel::new(DEFAULT_BLOCK_SIZE, 3);
        let bytes = 1u64 << 40;
        assert!(r3.write_seconds(&cluster, bytes) > 2.0 * r1.write_seconds(&cluster, bytes));
    }

    #[test]
    fn memstore_ingest_is_faster_than_hdfs_ingest() {
        // §6.2.4: loading into the memstore was ~5x faster than into HDFS.
        let cluster = ClusterConfig::paper_shark_cluster();
        let dfs = DfsModel::default();
        let bytes = 2u64 << 40; // 2 TB uservisits table
        let rows = 15_500_000_000;
        let hdfs = dfs.write_seconds(&cluster, bytes);
        let mem = memstore_load_seconds(&cluster, bytes, rows);
        let ratio = hdfs / mem;
        assert!(
            ratio > 2.0 && ratio < 20.0,
            "expected memstore ingest a few times faster, ratio = {ratio}"
        );
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        DfsModel::new(0, 3);
    }
}
