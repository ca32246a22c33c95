//! The shuffle manager.
//!
//! Map tasks partition their output into one bucket per reduce task and
//! register those buckets here together with per-bucket statistics (sizes
//! and record counts). Reduce tasks fetch and concatenate the buckets for
//! their partition. The per-bucket statistics are exactly what Partial DAG
//! Execution inspects at the shuffle boundary (§3.1): they drive join
//! strategy selection, reducer-count selection and skew-aware coalescing.
//!
//! Following §5 ("memory-based shuffle"), map output lives in memory; the
//! Hadoop baseline's disk-based shuffle is charged by the cost model rather
//! than modelled with real files.

use std::any::Any;
use std::sync::Arc;

use parking_lot::RwLock;
use shark_common::hash::FxHashMap;
use shark_common::sketch::LogSize;
use shark_common::{Result, SharkError};

/// Statistics for one map task's output, bucketed by reduce partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapOutputStats {
    /// Bytes per reduce bucket (exact).
    pub bucket_bytes: Vec<u64>,
    /// Rows per reduce bucket.
    pub bucket_rows: Vec<u64>,
}

impl MapOutputStats {
    /// Total bytes across buckets.
    pub fn total_bytes(&self) -> u64 {
        self.bucket_bytes.iter().sum()
    }

    /// Total rows across buckets.
    pub fn total_rows(&self) -> u64 {
        self.bucket_rows.iter().sum()
    }

    /// The 1-byte-per-bucket lossy encoding the paper ships to the master
    /// (§3.1: "we use lossy compression to record the statistics, limiting
    /// their size to 1–2 KB per task").
    pub fn compressed(&self) -> Vec<LogSize> {
        self.bucket_bytes
            .iter()
            .map(|&b| LogSize::encode(b))
            .collect()
    }
}

/// Aggregated, master-side view of a completed shuffle's map output.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleSummary {
    /// Number of map tasks that produced output.
    pub num_map_tasks: usize,
    /// Number of reduce buckets.
    pub num_buckets: usize,
    /// Total bytes destined to each reduce bucket. Reconstructed from the
    /// lossy per-task encodings, so values carry ≤10 % error like the paper.
    pub bucket_bytes: Vec<u64>,
    /// Total rows destined to each reduce bucket.
    pub bucket_rows: Vec<u64>,
    /// Exact total output bytes.
    pub total_bytes: u64,
    /// Exact total output rows.
    pub total_rows: u64,
}

impl ShuffleSummary {
    /// Ratio between the largest and the average bucket size — a simple skew
    /// indicator used by the PDE optimizer.
    pub fn skew_factor(&self) -> f64 {
        if self.bucket_bytes.is_empty() || self.total_bytes == 0 {
            return 1.0;
        }
        let avg = self.total_bytes as f64 / self.bucket_bytes.len() as f64;
        let max = *self.bucket_bytes.iter().max().unwrap() as f64;
        max / avg
    }
}

struct ShuffleEntry {
    num_map_tasks: usize,
    num_buckets: usize,
    /// Per map task: `Arc<Vec<Vec<T>>>` (outer = reduce bucket).
    outputs: Vec<Option<Arc<dyn Any + Send + Sync>>>,
    stats: Vec<Option<MapOutputStats>>,
}

/// Stores map output buckets and statistics for every shuffle in flight.
#[derive(Default)]
pub struct ShuffleManager {
    shuffles: RwLock<FxHashMap<usize, ShuffleEntry>>,
}

/// Ownership of one shuffle id's map output. Minted together with the id
/// and cloned (as an `Arc`) into everything that can still read the
/// shuffle — its dependency, every reader RDD built from a
/// [`PreShuffledRdd`](crate::pair::PreShuffledRdd) — so the buckets live
/// exactly as long as something can fetch them: dropping the last holder
/// removes them from the manager. No job, session or cursor has to know.
pub struct ShuffleLease {
    pub(crate) manager: Arc<ShuffleManager>,
    pub(crate) id: usize,
}

impl ShuffleLease {
    /// The leased shuffle's id in the shuffle manager.
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Drop for ShuffleLease {
    fn drop(&mut self) {
        self.manager.remove(self.id);
    }
}

impl ShuffleManager {
    /// Create an empty shuffle manager.
    pub fn new() -> ShuffleManager {
        ShuffleManager::default()
    }

    /// Register a shuffle before its map stage runs.
    pub fn register(&self, shuffle_id: usize, num_map_tasks: usize, num_buckets: usize) {
        let mut guard = self.shuffles.write();
        guard.entry(shuffle_id).or_insert_with(|| ShuffleEntry {
            num_map_tasks,
            num_buckets,
            outputs: (0..num_map_tasks).map(|_| None).collect(),
            stats: (0..num_map_tasks).map(|_| None).collect(),
        });
    }

    /// Store one map task's bucketed output (`buckets[reduce_partition]`).
    pub fn put_map_output<T: Send + Sync + 'static>(
        &self,
        shuffle_id: usize,
        map_task: usize,
        buckets: Vec<Vec<T>>,
        stats: MapOutputStats,
    ) -> Result<()> {
        let mut guard = self.shuffles.write();
        let entry = guard.get_mut(&shuffle_id).ok_or_else(|| {
            SharkError::Execution(format!("shuffle {shuffle_id} was not registered"))
        })?;
        if map_task >= entry.num_map_tasks {
            return Err(SharkError::Execution(format!(
                "map task {map_task} out of range for shuffle {shuffle_id}"
            )));
        }
        if buckets.len() != entry.num_buckets {
            return Err(SharkError::Execution(format!(
                "expected {} buckets, got {}",
                entry.num_buckets,
                buckets.len()
            )));
        }
        entry.outputs[map_task] = Some(Arc::new(buckets));
        entry.stats[map_task] = Some(stats);
        Ok(())
    }

    /// Whether every map task of the shuffle has registered output.
    pub fn is_complete(&self, shuffle_id: usize) -> bool {
        let guard = self.shuffles.read();
        match guard.get(&shuffle_id) {
            Some(e) => e.outputs.iter().all(|o| o.is_some()),
            None => false,
        }
    }

    /// Number of reduce buckets of a registered shuffle.
    pub fn num_buckets(&self, shuffle_id: usize) -> Option<usize> {
        self.shuffles.read().get(&shuffle_id).map(|e| e.num_buckets)
    }

    /// Fetch and concatenate every map task's bucket for `reduce_partition`.
    /// Returns the rows plus the number of bytes fetched (for metrics).
    pub fn fetch<T: Clone + Send + Sync + 'static>(
        &self,
        shuffle_id: usize,
        reduce_partition: usize,
    ) -> Result<(Vec<T>, u64)> {
        let guard = self.shuffles.read();
        let entry = guard.get(&shuffle_id).ok_or_else(|| {
            SharkError::Execution(format!("shuffle {shuffle_id} was not registered"))
        })?;
        let mut out = Vec::new();
        let mut bytes = 0u64;
        for (mi, output) in entry.outputs.iter().enumerate() {
            let output = output.as_ref().ok_or_else(|| {
                SharkError::Execution(format!(
                    "shuffle {shuffle_id}: map task {mi} output missing (stage not run?)"
                ))
            })?;
            let typed = output.clone().downcast::<Vec<Vec<T>>>().map_err(|_| {
                SharkError::Execution(format!(
                    "shuffle {shuffle_id}: map output has unexpected element type"
                ))
            })?;
            if reduce_partition >= typed.len() {
                return Err(SharkError::Execution(format!(
                    "reduce partition {reduce_partition} out of range"
                )));
            }
            out.extend(typed[reduce_partition].iter().cloned());
            if let Some(stats) = &entry.stats[mi] {
                bytes += stats.bucket_bytes[reduce_partition];
            }
        }
        Ok((out, bytes))
    }

    /// Master-side aggregated statistics of a completed map stage.
    pub fn summary(&self, shuffle_id: usize) -> Result<ShuffleSummary> {
        let guard = self.shuffles.read();
        let entry = guard.get(&shuffle_id).ok_or_else(|| {
            SharkError::Execution(format!("shuffle {shuffle_id} was not registered"))
        })?;
        let mut bucket_bytes = vec![0u64; entry.num_buckets];
        let mut bucket_rows = vec![0u64; entry.num_buckets];
        let mut total_bytes = 0u64;
        let mut total_rows = 0u64;
        for stats in entry.stats.iter().flatten() {
            // The master sees the lossy log-encoded sizes, like the paper.
            for (i, code) in stats.compressed().iter().enumerate() {
                bucket_bytes[i] += code.decode();
            }
            for (i, rows) in stats.bucket_rows.iter().enumerate() {
                bucket_rows[i] += rows;
            }
            total_bytes += stats.total_bytes();
            total_rows += stats.total_rows();
        }
        Ok(ShuffleSummary {
            num_map_tasks: entry.num_map_tasks,
            num_buckets: entry.num_buckets,
            bucket_bytes,
            bucket_rows,
            total_bytes,
            total_rows,
        })
    }

    /// Remove a shuffle's data (its [`ShuffleLease`] does this on drop).
    pub fn remove(&self, shuffle_id: usize) {
        self.shuffles.write().remove(&shuffle_id);
    }

    /// Number of shuffles currently holding map output.
    pub fn registered(&self) -> usize {
        self.shuffles.read().len()
    }

    /// Remove all shuffle data.
    pub fn clear(&self) {
        self.shuffles.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(bytes: Vec<u64>, rows: Vec<u64>) -> MapOutputStats {
        MapOutputStats {
            bucket_bytes: bytes,
            bucket_rows: rows,
        }
    }

    #[test]
    fn roundtrip_two_map_tasks() {
        let m = ShuffleManager::new();
        m.register(1, 2, 2);
        assert!(!m.is_complete(1));
        m.put_map_output(
            1,
            0,
            vec![vec![1i64], vec![2, 3]],
            stats(vec![8, 16], vec![1, 2]),
        )
        .unwrap();
        m.put_map_output(
            1,
            1,
            vec![vec![4i64], vec![]],
            stats(vec![8, 0], vec![1, 0]),
        )
        .unwrap();
        assert!(m.is_complete(1));
        let (bucket0, bytes0): (Vec<i64>, u64) = m.fetch(1, 0).unwrap();
        assert_eq!(bucket0, vec![1, 4]);
        assert_eq!(bytes0, 16);
        let (bucket1, _): (Vec<i64>, u64) = m.fetch(1, 1).unwrap();
        assert_eq!(bucket1, vec![2, 3]);
        let s = m.summary(1).unwrap();
        assert_eq!(s.total_rows, 4);
        assert_eq!(s.bucket_rows, vec![2, 2]);
        assert_eq!(s.num_map_tasks, 2);
    }

    #[test]
    fn summary_uses_lossy_sizes_but_close() {
        let m = ShuffleManager::new();
        m.register(9, 1, 1);
        m.put_map_output(
            9,
            0,
            vec![vec![0u8; 1000]],
            stats(vec![1_000_000], vec![1000]),
        )
        .unwrap();
        let s = m.summary(9).unwrap();
        let err = (s.bucket_bytes[0] as f64 - 1_000_000.0).abs() / 1_000_000.0;
        assert!(err < 0.10, "lossy size error too large: {err}");
        assert_eq!(s.total_bytes, 1_000_000); // exact total kept too
    }

    #[test]
    fn errors_on_misuse() {
        let m = ShuffleManager::new();
        assert!(m
            .put_map_output(5, 0, vec![vec![1i64]], stats(vec![8], vec![1]))
            .is_err());
        m.register(5, 1, 2);
        // wrong bucket count
        assert!(m
            .put_map_output(5, 0, vec![vec![1i64]], stats(vec![8], vec![1]))
            .is_err());
        // out-of-range map task
        assert!(m
            .put_map_output(
                5,
                3,
                vec![vec![1i64], vec![]],
                stats(vec![8, 0], vec![1, 0])
            )
            .is_err());
        // fetching before map stage ran
        let r: Result<(Vec<i64>, u64)> = m.fetch(5, 0);
        assert!(r.is_err());
    }

    #[test]
    fn wrong_fetch_type_is_an_error() {
        let m = ShuffleManager::new();
        m.register(2, 1, 1);
        m.put_map_output(2, 0, vec![vec![1i64]], stats(vec![8], vec![1]))
            .unwrap();
        let r: Result<(Vec<String>, u64)> = m.fetch(2, 0);
        assert!(r.is_err());
    }

    #[test]
    fn skew_factor_detects_imbalance() {
        let balanced = ShuffleSummary {
            num_map_tasks: 1,
            num_buckets: 4,
            bucket_bytes: vec![100, 100, 100, 100],
            bucket_rows: vec![1, 1, 1, 1],
            total_bytes: 400,
            total_rows: 4,
        };
        assert!((balanced.skew_factor() - 1.0).abs() < 1e-9);
        let skewed = ShuffleSummary {
            bucket_bytes: vec![1000, 10, 10, 10],
            total_bytes: 1030,
            ..balanced
        };
        assert!(skewed.skew_factor() > 3.0);
    }

    #[test]
    fn remove_and_clear() {
        let m = ShuffleManager::new();
        m.register(1, 1, 1);
        assert_eq!(m.registered(), 1);
        m.remove(1);
        assert!(!m.is_complete(1));
        m.register(2, 1, 1);
        m.clear();
        assert!(m.num_buckets(2).is_none());
        assert_eq!(m.registered(), 0);
    }
}
