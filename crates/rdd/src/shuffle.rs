//! The shuffle manager.
//!
//! Each map task writes one block of records ([`ShuffleBlock`]): the
//! `(key, value)` pairs of a repartition or a map-side combine, or the SQL
//! layer's flat group block. The block is put in bucket-run order — one
//! contiguous run per non-empty reduce bucket — and registered here
//! together with per-bucket statistics (sizes and record counts). Reduce
//! tasks read the runs of their buckets in place. The per-bucket statistics
//! are exactly what Partial DAG Execution inspects at the shuffle boundary
//! (§3.1): they drive join strategy selection, reducer-count selection and
//! skew-aware coalescing.
//!
//! Following §5 ("memory-based shuffle"), map output lives in memory; the
//! Hadoop baseline's disk-based shuffle is charged by the cost model rather
//! than modelled with real files.

use std::any::Any;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::RwLock;
use shark_common::hash::{hash_partition, FxHashMap};
use shark_common::sketch::LogSize;
use shark_common::{EstimateSize, Result, SharkError};

/// The records one map task writes to a shuffle, as one block: the map
/// stage buckets each record, puts the block in bucket-run order and
/// measures each run.
pub trait ShuffleBlock: Send + Sync + 'static {
    /// Number of records.
    fn len(&self) -> usize;
    /// Whether the block holds no record.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The reduce bucket, below `num_buckets`, of record `i`.
    fn bucket(&self, i: usize, num_buckets: usize) -> usize;
    /// The serialized-size estimate of record `i`.
    fn record_bytes(&self, i: usize) -> usize;
    /// Move each record `i` to position `dest[i]` (a permutation).
    fn permute(&mut self, dest: Vec<usize>);
}

/// Pairs are bucketed by the `hash_partition` of their key.
impl<K, C> ShuffleBlock for Vec<(K, C)>
where
    K: Hash + EstimateSize + Send + Sync + 'static,
    C: EstimateSize + Send + Sync + 'static,
{
    fn len(&self) -> usize {
        <[(K, C)]>::len(self)
    }
    fn bucket(&self, i: usize, num_buckets: usize) -> usize {
        hash_partition(&self[i].0, num_buckets)
    }
    fn record_bytes(&self, i: usize) -> usize {
        self[i].estimated_size()
    }
    fn permute(&mut self, mut dest: Vec<usize>) {
        // Follow the permutation's cycles.
        for i in 0..self.len() {
            while dest[i] != i {
                let d = dest[i];
                self.swap(i, d);
                dest.swap(i, d);
            }
        }
    }
}

/// One non-empty bucket of a map task's output: where its records sit in
/// the task's block and how large they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BucketRun {
    bucket: usize,
    /// Index of the bucket's first record in the block.
    offset: usize,
    rows: usize,
    /// Exact serialized-size estimate of the bucket's records.
    bytes: u64,
}

impl BucketRun {
    fn records(&self) -> Range<usize> {
        self.offset..self.offset + self.rows
    }
}

/// Statistics for one map task's output, bucketed by reduce partition.
/// Sparse: only buckets that received a row are recorded, so a map task
/// that emits three groups into 256 fine buckets reports three entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapOutputStats {
    num_buckets: usize,
    /// Non-empty buckets, ascending by bucket index.
    runs: Vec<BucketRun>,
}

impl MapOutputStats {
    /// Bytes per reduce bucket (exact), one entry per bucket.
    pub fn bucket_bytes(&self) -> Vec<u64> {
        let mut dense = vec![0u64; self.num_buckets];
        for run in &self.runs {
            dense[run.bucket] = run.bytes;
        }
        dense
    }

    /// Rows per reduce bucket, one entry per bucket.
    pub fn bucket_rows(&self) -> Vec<u64> {
        let mut dense = vec![0u64; self.num_buckets];
        for run in &self.runs {
            dense[run.bucket] = run.rows as u64;
        }
        dense
    }

    /// Total bytes across buckets.
    pub fn total_bytes(&self) -> u64 {
        self.runs.iter().map(|r| r.bytes).sum()
    }

    /// Total rows across buckets.
    pub fn total_rows(&self) -> u64 {
        self.runs.iter().map(|r| r.rows as u64).sum()
    }
}

/// One map task's shuffle output: its block in bucket-run order, plus the
/// statistics gathered in the same pass. Empty buckets occupy nothing.
#[derive(Debug)]
pub struct MapOutput<B> {
    block: B,
    stats: MapOutputStats,
}

impl<B: ShuffleBlock> MapOutput<B> {
    /// Put `block` in bucket-run order — record `i` goes to bucket
    /// `buckets[i]`, below `num_buckets`, and each bucket keeps its records
    /// in block order — and measure every non-empty bucket.
    pub fn group(mut block: B, num_buckets: usize, mut buckets: Vec<usize>) -> MapOutput<B> {
        // Counting sort: bucket sizes, then each record's final index.
        let mut next = vec![0usize; num_buckets];
        for &bucket in &buckets {
            next[bucket] += 1;
        }
        let mut runs = Vec::new();
        let mut offset = 0usize;
        for (bucket, slot) in next.iter_mut().enumerate() {
            let count = std::mem::replace(slot, offset);
            if count > 0 {
                runs.push(BucketRun {
                    bucket,
                    offset,
                    rows: count,
                    bytes: 0,
                });
                offset += count;
            }
        }
        for d in buckets.iter_mut() {
            let bucket = *d;
            *d = next[bucket];
            next[bucket] += 1;
        }
        block.permute(buckets);
        for run in &mut runs {
            run.bytes = run.records().map(|i| block.record_bytes(i) as u64).sum();
        }
        MapOutput {
            block,
            stats: MapOutputStats { num_buckets, runs },
        }
    }
}

impl<B> MapOutput<B> {
    /// The per-bucket statistics of this output.
    pub fn stats(&self) -> &MapOutputStats {
        &self.stats
    }
}

/// What the manager reads from a stored map output without knowing its
/// block type (the block itself is reached by downcasting).
trait StoredOutput: Send + Sync {
    fn stats(&self) -> &MapOutputStats;
    fn into_any(self: Arc<Self>) -> Arc<dyn Any + Send + Sync>;
}

impl<B: Send + Sync + 'static> StoredOutput for MapOutput<B> {
    fn stats(&self) -> &MapOutputStats {
        &self.stats
    }
    fn into_any(self: Arc<Self>) -> Arc<dyn Any + Send + Sync> {
        self
    }
}

/// What one reduce task reads: the runs of its buckets in every map task's
/// block, in place — bucket by bucket in the order asked for, each bucket's
/// runs in map-task order.
pub struct ShuffleRead<B> {
    outputs: Vec<Arc<MapOutput<B>>>,
    /// (position of the bucket in the request, map task, records).
    runs: Vec<(usize, usize, Range<usize>)>,
    buckets: Vec<usize>,
    rows: usize,
    bytes: u64,
}

impl<B> ShuffleRead<B> {
    /// Each non-empty run read: its map task's block and the run's records
    /// in it.
    pub fn runs(&self) -> impl Iterator<Item = (&B, Range<usize>)> + '_ {
        self.runs
            .iter()
            .map(|(_, map, records)| (&self.outputs[*map].block, records.clone()))
    }

    /// The buckets read, in the order asked for.
    pub fn buckets(&self) -> &[usize] {
        &self.buckets
    }

    /// The number of records read.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The bytes read (the runs' serialized-size estimates).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl<T: Clone> ShuffleRead<Vec<T>> {
    /// An owned copy of every record read, in read order. Only a reader
    /// that keeps the records themselves (a join side) pays it.
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.rows);
        for (block, records) in self.runs() {
            out.extend_from_slice(&block[records]);
        }
        out
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

#[derive(Clone)]
struct ShuffleEntry {
    num_buckets: usize,
    /// Per map task: its [`MapOutput`], once the task has run.
    outputs: Vec<Option<Arc<dyn StoredOutput>>>,
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

fn not_registered(shuffle_id: usize) -> SharkError {
    SharkError::Execution(format!("shuffle {shuffle_id} was not registered"))
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
            num_buckets,
            outputs: (0..num_map_tasks).map(|_| None).collect(),
        });
    }

    /// Store one map task's grouped output.
    pub fn put_map_output<B: Send + Sync + 'static>(
        &self,
        shuffle_id: usize,
        map_task: usize,
        output: MapOutput<B>,
    ) -> Result<()> {
        let mut guard = self.shuffles.write();
        let entry = guard
            .get_mut(&shuffle_id)
            .ok_or_else(|| not_registered(shuffle_id))?;
        if map_task >= entry.outputs.len() {
            return Err(SharkError::Execution(format!(
                "map task {map_task} out of range for shuffle {shuffle_id}"
            )));
        }
        if output.stats.num_buckets != entry.num_buckets {
            return Err(SharkError::Execution(format!(
                "expected {} buckets, got {}",
                entry.num_buckets, output.stats.num_buckets
            )));
        }
        entry.outputs[map_task] = Some(Arc::new(output));
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

    /// A snapshot of a shuffle's entry. The manager lock is held only to
    /// clone the map outputs' handles: whatever the caller does with the
    /// records (copying a join side, say) blocks no other shuffle.
    fn snapshot(&self, shuffle_id: usize) -> Result<ShuffleEntry> {
        self.shuffles
            .read()
            .get(&shuffle_id)
            .cloned()
            .ok_or_else(|| not_registered(shuffle_id))
    }

    /// Read the runs of `buckets` (distinct reduce buckets) in place: the
    /// one way a reduce task reads a shuffle. Costs the buckets that hold
    /// records, not the buckets asked for. The manager lock covers only
    /// cloning the map outputs' handles, so what the reader does with the
    /// records blocks no other shuffle.
    pub fn read<B: Send + Sync + 'static>(
        &self,
        shuffle_id: usize,
        buckets: &[usize],
    ) -> Result<ShuffleRead<B>> {
        let ShuffleEntry {
            num_buckets,
            outputs,
        } = self.snapshot(shuffle_id)?;
        if let Some(bucket) = buckets.iter().find(|&&b| b >= num_buckets) {
            return Err(SharkError::Execution(format!(
                "reduce partition {bucket} out of range"
            )));
        }
        // (bucket, position in the requested order), searchable by bucket.
        let mut wanted: Vec<(usize, usize)> = buckets.iter().copied().zip(0..).collect();
        wanted.sort_unstable();
        let mut read = ShuffleRead {
            outputs: Vec::with_capacity(outputs.len()),
            runs: Vec::new(),
            buckets: buckets.to_vec(),
            rows: 0,
            bytes: 0,
        };
        for (mi, output) in outputs.into_iter().enumerate() {
            let output = output.ok_or_else(|| {
                SharkError::Execution(format!(
                    "shuffle {shuffle_id}: map task {mi} output missing (stage not run?)"
                ))
            })?;
            let typed = output.into_any().downcast::<MapOutput<B>>().map_err(|_| {
                SharkError::Execution(format!(
                    "shuffle {shuffle_id}: map output has unexpected block type"
                ))
            })?;
            for run in &typed.stats.runs {
                if let Ok(at) = wanted.binary_search_by_key(&run.bucket, |&(bucket, _)| bucket) {
                    read.runs.push((wanted[at].1, mi, run.records()));
                    read.rows += run.rows;
                    read.bytes += run.bytes;
                }
            }
            read.outputs.push(typed);
        }
        read.runs
            .sort_unstable_by_key(|&(position, mi, _)| (position, mi));
        Ok(read)
    }

    /// Master-side aggregated statistics of a completed map stage.
    pub fn summary(&self, shuffle_id: usize) -> Result<ShuffleSummary> {
        let ShuffleEntry {
            num_buckets,
            outputs,
        } = self.snapshot(shuffle_id)?;
        let reported = outputs.iter().flatten().count() as u64;
        // The master sees each task's bucket sizes through the paper's
        // lossy one-byte log encoding (§3.1: "we use lossy compression to
        // record the statistics, limiting their size to 1–2 KB per task").
        // The code for an empty bucket decodes to one byte, so every bucket
        // starts at one byte per reporting task and only the non-empty
        // buckets are visited.
        let empty = LogSize::encode(0).decode();
        let mut bucket_bytes = vec![reported * empty; num_buckets];
        let mut bucket_rows = vec![0u64; num_buckets];
        let mut total_bytes = 0u64;
        let mut total_rows = 0u64;
        for output in outputs.iter().flatten() {
            for run in &output.stats().runs {
                bucket_bytes[run.bucket] += LogSize::encode(run.bytes).decode() - empty;
                bucket_rows[run.bucket] += run.rows as u64;
                total_bytes += run.bytes;
                total_rows += run.rows as u64;
            }
        }
        Ok(ShuffleSummary {
            num_map_tasks: outputs.len(),
            num_buckets,
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
    use shark_common::size::estimate_slice;

    /// Group `(bucket, value)` pairs by their first field.
    fn grouped(pairs: Vec<(usize, i64)>, num_buckets: usize) -> MapOutput<Vec<(usize, i64)>> {
        let buckets = pairs.iter().map(|&(bucket, _)| bucket).collect();
        MapOutput::group(pairs, num_buckets, buckets)
    }

    /// [`ShuffleManager::read`] into an owned copy, plus the bytes read.
    fn fetch<T: Clone + Send + Sync + 'static>(
        m: &ShuffleManager,
        shuffle_id: usize,
        buckets: &[usize],
    ) -> Result<(Vec<T>, u64)> {
        let read = m.read::<Vec<T>>(shuffle_id, buckets)?;
        Ok((read.to_vec(), read.bytes()))
    }

    #[test]
    fn roundtrip_two_map_tasks() {
        let m = ShuffleManager::new();
        m.register(1, 2, 2);
        assert!(!m.is_complete(1));
        m.put_map_output(1, 0, grouped(vec![(1, 2), (0, 1), (1, 3)], 2))
            .unwrap();
        m.put_map_output(1, 1, grouped(vec![(0, 4)], 2)).unwrap();
        assert!(m.is_complete(1));
        let (bucket0, bytes0): (Vec<(usize, i64)>, u64) = fetch(&m, 1, &[0]).unwrap();
        assert_eq!(bucket0, vec![(0, 1), (0, 4)]);
        assert_eq!(bytes0, 32);
        let (bucket1, _): (Vec<(usize, i64)>, u64) = fetch(&m, 1, &[1]).unwrap();
        assert_eq!(bucket1, vec![(1, 2), (1, 3)]);
        let s = m.summary(1).unwrap();
        assert_eq!(s.total_rows, 4);
        assert_eq!(s.bucket_rows, vec![2, 2]);
        assert_eq!(s.num_map_tasks, 2);
    }

    #[test]
    fn summary_uses_lossy_sizes_but_close() {
        let m = ShuffleManager::new();
        m.register(9, 1, 1);
        // 62 500 sixteen-byte rows: one million bytes in one bucket.
        m.put_map_output(9, 0, grouped(vec![(0, 7); 62_500], 1))
            .unwrap();
        let s = m.summary(9).unwrap();
        let err = (s.bucket_bytes[0] as f64 - 1_000_000.0).abs() / 1_000_000.0;
        assert!(err < 0.10, "lossy size error too large: {err}");
        assert_eq!(s.total_bytes, 1_000_000); // exact total kept too
    }

    #[test]
    fn errors_on_misuse() {
        let m = ShuffleManager::new();
        assert!(m.put_map_output(5, 0, grouped(vec![(0, 1)], 1)).is_err());
        m.register(5, 1, 2);
        // wrong bucket count
        assert!(m.put_map_output(5, 0, grouped(vec![(0, 1)], 1)).is_err());
        // out-of-range map task
        assert!(m.put_map_output(5, 3, grouped(vec![(0, 1)], 2)).is_err());
        // fetching before map stage ran
        let r: Result<(Vec<(usize, i64)>, u64)> = fetch(&m, 5, &[0]);
        assert!(r.is_err());
        // out-of-range reduce bucket
        m.put_map_output(5, 0, grouped(vec![(0, 1)], 2)).unwrap();
        let r: Result<(Vec<(usize, i64)>, u64)> = fetch(&m, 5, &[0, 2]);
        assert!(r.is_err());
    }

    #[test]
    fn wrong_fetch_type_is_an_error() {
        let m = ShuffleManager::new();
        m.register(2, 1, 1);
        m.put_map_output(2, 0, grouped(vec![(0, 1)], 1)).unwrap();
        let r: Result<(Vec<String>, u64)> = fetch(&m, 2, &[0]);
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

    /// The layout this module replaced, kept as the reference: one vector
    /// per bucket per map task, dense per-bucket statistics, and a summary
    /// that log-encodes every bucket of every task.
    struct DenseReference {
        /// `maps[map][bucket]` = that bucket's rows.
        maps: Vec<Vec<Vec<(u64, String)>>>,
    }

    impl DenseReference {
        fn new(inputs: &[Vec<(u64, String)>], num_buckets: usize) -> DenseReference {
            let maps = inputs
                .iter()
                .map(|rows| {
                    let mut buckets = vec![Vec::new(); num_buckets];
                    for row in rows {
                        buckets[row.0 as usize % num_buckets].push(row.clone());
                    }
                    buckets
                })
                .collect();
            DenseReference { maps }
        }

        fn bucket_bytes(&self, map: usize) -> Vec<u64> {
            self.maps[map]
                .iter()
                .map(|b| estimate_slice(b) as u64)
                .collect()
        }

        fn bucket_rows(&self, map: usize) -> Vec<u64> {
            self.maps[map].iter().map(|b| b.len() as u64).collect()
        }

        fn fetch(&self, buckets: &[usize]) -> (Vec<(u64, String)>, u64) {
            let mut out = Vec::new();
            let mut bytes = 0;
            for &bucket in buckets {
                for map in 0..self.maps.len() {
                    out.extend(self.maps[map][bucket].iter().cloned());
                    bytes += self.bucket_bytes(map)[bucket];
                }
            }
            (out, bytes)
        }

        fn summary(&self, num_buckets: usize) -> ShuffleSummary {
            let mut summary = ShuffleSummary {
                num_map_tasks: self.maps.len(),
                num_buckets,
                bucket_bytes: vec![0; num_buckets],
                bucket_rows: vec![0; num_buckets],
                total_bytes: 0,
                total_rows: 0,
            };
            for map in 0..self.maps.len() {
                for (b, bytes) in self.bucket_bytes(map).into_iter().enumerate() {
                    summary.bucket_bytes[b] += LogSize::encode(bytes).decode();
                    summary.total_bytes += bytes;
                }
                for (b, rows) in self.bucket_rows(map).into_iter().enumerate() {
                    summary.bucket_rows[b] += rows;
                    summary.total_rows += rows;
                }
            }
            summary
        }
    }

    #[test]
    fn grouped_output_is_equivalent_to_the_dense_layout() {
        // Tiny deterministic generator: the property must hold for any
        // input, the seeds only vary its shape (few keys, many keys, none).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for num_buckets in [1usize, 7, 256] {
            for num_maps in [1usize, 5] {
                for distinct_keys in [3u64, 40, 5000] {
                    let inputs: Vec<Vec<(u64, String)>> = (0..num_maps)
                        .map(|map| {
                            // One map task stays empty when there are several.
                            let rows = if map == 3 { 0 } else { next() % 300 };
                            (0..rows)
                                .map(|_| {
                                    let key = next() % distinct_keys;
                                    (key, "x".repeat((next() % 9) as usize))
                                })
                                .collect()
                        })
                        .collect();
                    let reference = DenseReference::new(&inputs, num_buckets);
                    let m = ShuffleManager::new();
                    m.register(1, num_maps, num_buckets);
                    for (map, rows) in inputs.iter().enumerate() {
                        let buckets = rows
                            .iter()
                            .map(|(key, _)| *key as usize % num_buckets)
                            .collect();
                        let output = MapOutput::group(rows.clone(), num_buckets, buckets);
                        assert_eq!(output.stats().bucket_bytes(), reference.bucket_bytes(map));
                        assert_eq!(output.stats().bucket_rows(), reference.bucket_rows(map));
                        m.put_map_output(1, map, output).unwrap();
                    }
                    let case =
                        format!("{num_buckets} buckets, {num_maps} maps, {distinct_keys} keys");
                    assert_eq!(
                        m.summary(1).unwrap(),
                        reference.summary(num_buckets),
                        "{case}"
                    );
                    for bucket in 0..num_buckets {
                        let got: (Vec<(u64, String)>, u64) = fetch(&m, 1, &[bucket]).unwrap();
                        assert_eq!(got, reference.fetch(&[bucket]), "{case}, bucket {bucket}");
                    }
                    // Whole lists: everything, a strided subset, and an
                    // order that is not ascending.
                    let all: Vec<usize> = (0..num_buckets).collect();
                    let strided: Vec<usize> = (0..num_buckets).step_by(3).collect();
                    let reversed: Vec<usize> = (0..num_buckets).rev().collect();
                    for list in [&all, &strided, &reversed] {
                        let got: (Vec<(u64, String)>, u64) = fetch(&m, 1, list).unwrap();
                        assert_eq!(got, reference.fetch(list), "{case}, list {list:?}");
                    }
                }
            }
        }
    }

    /// A row whose `clone` reports that it started and then waits to be
    /// released — it parks a fetch in the middle of copying rows.
    struct ParkedClone {
        entered: std::sync::mpsc::SyncSender<()>,
        release: Arc<std::sync::Mutex<std::sync::mpsc::Receiver<()>>>,
    }

    impl Clone for ParkedClone {
        fn clone(&self) -> ParkedClone {
            self.entered.send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
            ParkedClone {
                entered: self.entered.clone(),
                release: self.release.clone(),
            }
        }
    }

    impl EstimateSize for ParkedClone {
        fn estimated_size(&self) -> usize {
            1
        }
    }

    #[test]
    fn a_fetch_copying_rows_does_not_block_other_shuffles() {
        let m = Arc::new(ShuffleManager::new());
        let (entered_tx, entered_rx) = std::sync::mpsc::sync_channel(1);
        let (release_tx, release_rx) = std::sync::mpsc::sync_channel::<()>(1);
        m.register(1, 1, 1);
        let row = ParkedClone {
            entered: entered_tx,
            release: Arc::new(std::sync::Mutex::new(release_rx)),
        };
        m.put_map_output(1, 0, MapOutput::group(vec![(0usize, row)], 1, vec![0]))
            .unwrap();
        std::thread::scope(|scope| {
            let fetcher = scope.spawn(|| {
                let (rows, _): (Vec<(usize, ParkedClone)>, u64) = fetch(&m, 1, &[0]).unwrap();
                rows.len()
            });
            // The fetch on shuffle 1 is now inside `T::clone`.
            entered_rx.recv().unwrap();
            // Writers on the manager still get through: registering and
            // filling shuffle 2, and removing it again.
            m.register(2, 1, 1);
            m.put_map_output(2, 0, grouped(vec![(0, 1)], 1)).unwrap();
            let (rows, _): (Vec<(usize, i64)>, u64) = fetch(&m, 2, &[0]).unwrap();
            assert_eq!(rows, vec![(0, 1)]);
            m.remove(2);
            release_tx.send(()).unwrap();
            assert_eq!(fetcher.join().unwrap(), 1);
        });
    }
}
