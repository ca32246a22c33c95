//! Shuffles: the one shuffle dependency, its one reader, and the pair
//! operations and Partial-DAG-Execution hooks built on them.
//!
//! Every shuffle is one dependency: a parent RDD whose partitions each map
//! task writes into one block ([`ShuffleBlock`]) — the `(key, combiner)`
//! pairs of a map-side combine, the pairs as they are for a repartition, or
//! a block the caller builds (SQL's flat group block) — bucketed record by
//! record. Every shuffle is read back by one [`ShuffleReadRdd`], whose
//! reduce partitions each read a list of buckets in place: a merging reader
//! folds the runs it reads into its output, a keeping reader copies the
//! pairs out.
//!
//! A lazy shuffle (`reduce_by_key`, `combine_by_key_ref`, a static GROUP
//! BY's [`Shuffle::reduce`], a static join side's [`PairShuffle::read`])
//! registers its dependency in the lineage: the first job that reads it
//! runs its map stage, and it reads one bucket per reduce partition.
//! [`Shuffle::run`] runs the same dependency's map stage at once and hands
//! back a [`PreShuffled`] shuffle whose statistics
//! ([`crate::shuffle::ShuffleSummary`]) the query optimizer can inspect
//! before deciding how to read it — the mechanism behind the paper's
//! partial DAG execution (§3.1): choosing map vs. shuffle joins, picking
//! the number of reducers, and bin-packing skewed buckets.

use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;

use shark_cluster::{InputSource, OutputSink};
use shark_common::hash::GroupTable;
use shark_common::Result;

use crate::context::{RddContext, StageReport};
use crate::metrics::TaskMetrics;
use crate::rdd::{Data, Lineage, Rdd, RddImpl, ShuffleDepHandle};
use crate::scheduler;
use crate::shuffle::{ShuffleBlock, ShuffleLease, ShuffleRead, ShuffleSummary};

/// The input source a reduce task reads shuffle data from, per the profile
/// (§5: Shark keeps map output in memory, Hadoop spills it to disk).
fn shuffle_fetch_source(ctx: &RddContext) -> InputSource {
    if ctx.config().cluster.profile.shuffle_to_disk {
        InputSource::ShuffleDisk
    } else {
        InputSource::ShuffleMemory
    }
}

/// A map task's step between its (shared) partition and its block.
pub(crate) type PartitionFold<T, B> = Arc<dyn Fn(Arc<Vec<T>>) -> B + Send + Sync>;

/// A reduce partition's fold of the runs it read into its output.
type Reduce<B, U> = Arc<dyn Fn(&ShuffleRead<B>) -> Vec<U> + Send + Sync>;

/// The map stage's and the PDE job's names (each followed by the shuffle
/// id) of a shuffle that buckets its pairs as they are…
const REPARTITION: (&str, &str) = ("shuffle-map", "pre_shuffle");
/// …and of one that buckets a map-side combine.
const COMBINE: (&str, &str) = ("shuffle-map-combine", "pre_shuffle_combined");

// ---------------------------------------------------------------------------
// The shuffle dependency and its reader
// ---------------------------------------------------------------------------

/// The one shuffle dependency: each map task charges `map_ops_per_row` per
/// record of its partition (`records` counts them) for the work fused into
/// the stage, writes the partition into a block with `fold` and buckets it.
struct ShuffleDep<T: Data, B: ShuffleBlock> {
    lease: Arc<ShuffleLease>,
    num_buckets: usize,
    parent: Rdd<T>,
    /// The map stage's name, before the shuffle id.
    stage: &'static str,
    /// Ops charged per parent record for fused work (0 when none is fused).
    map_ops_per_row: f64,
    records: fn(&[T]) -> usize,
    fold: PartitionFold<T, B>,
}

impl<T: Data, B: ShuffleBlock> ShuffleDepHandle for ShuffleDep<T, B> {
    fn shuffle_id(&self) -> usize {
        self.lease.id()
    }
    fn num_buckets(&self) -> usize {
        self.num_buckets
    }
    fn parent_lineage(&self) -> Arc<dyn Lineage> {
        self.parent.lineage()
    }
    fn is_materialized(&self, ctx: &RddContext) -> bool {
        ctx.shuffle_manager().is_complete(self.lease.id())
    }
    fn run_map_stage(&self, ctx: &RddContext) -> Result<StageReport> {
        let id = self.lease.id();
        scheduler::run_map_stage(
            ctx,
            &self.parent,
            id,
            self.num_buckets,
            &format!("{}({id})", self.stage),
            (self.map_ops_per_row, self.records),
            self.fold.clone(),
        )
    }
}

/// The one reduce side of a shuffle: reduce partition `i` reads the buckets
/// `assignment[i]` — one bucket each for a lazy shuffle, lists of coalesced
/// buckets for PDE (§3.1.2) — bucket by bucket, each in map-task order, in
/// place, and `reduce` turns the runs it read into the partition.
///
/// A merging reader (named `shuffle_read_agg`, charged two ops per record
/// read) folds the runs; a keeping one (`shuffle_read`, a join side)
/// copies the pairs out.
pub struct ShuffleReadRdd<B, U> {
    id: usize,
    dep: Arc<dyn ShuffleDepHandle>,
    assignment: Arc<Vec<Vec<usize>>>,
    merges: bool,
    reduce: Reduce<B, U>,
}

impl<B: ShuffleBlock, U: Data> RddImpl<U> for ShuffleReadRdd<B, U> {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> String {
        if self.merges {
            "shuffle_read_agg".to_string()
        } else {
            "shuffle_read".to_string()
        }
    }
    fn num_partitions(&self) -> usize {
        self.assignment.len()
    }
    fn compute(
        &self,
        ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<U>> {
        let read: ShuffleRead<B> = ctx
            .shuffle_manager()
            .read(self.dep.shuffle_id(), &self.assignment[partition])?;
        metrics.record_input(read.rows() as u64, read.bytes(), shuffle_fetch_source(ctx));
        if self.merges {
            metrics.add_ops(read.rows() as f64 * 2.0);
        }
        Ok((self.reduce)(&read))
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        vec![self.dep.parent_lineage()]
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepHandle>> {
        vec![self.dep.clone()]
    }
}

/// A reader of `dep` with `assignment` (see [`ShuffleReadRdd`]).
fn shuffle_read<B: ShuffleBlock, U: Data>(
    ctx: &RddContext,
    dep: Arc<dyn ShuffleDepHandle>,
    assignment: Vec<Vec<usize>>,
    merges: bool,
    reduce: Reduce<B, U>,
) -> Rdd<U> {
    let inner = ShuffleReadRdd {
        id: ctx.next_rdd_id(),
        dep,
        assignment: Arc::new(assignment),
        merges,
        reduce,
    };
    Rdd::new(ctx.clone(), Arc::new(inner))
}

/// One bucket per reduce partition: how a lazy shuffle is read.
fn one_bucket_each(num_buckets: usize) -> Vec<Vec<usize>> {
    (0..num_buckets).map(|b| vec![b]).collect()
}

/// A keeping reader's fold: copy the pairs out.
fn keep_pairs<K: Data, C: Data>() -> Reduce<Vec<(K, C)>, (K, C)> {
    Arc::new(ShuffleRead::to_vec)
}

/// A merging pair reader's fold: each key's combiners merged in place with
/// `merge` in read order. No pair is copied; a key and its combiner are
/// cloned once, at the key's first appearance.
fn merge_pairs<K: Data + Hash + Eq, C: Data>(
    merge: impl Fn(&mut C, &C) + Send + Sync + 'static,
) -> Reduce<Vec<(K, C)>, (K, C)> {
    Arc::new(move |read| {
        let mut groups = GroupTable::default();
        for (block, records) in read.runs() {
            for (k, c) in &block[records] {
                groups.fold_ref(k, |state| merge(state, c), || (k.clone(), c.clone()));
            }
        }
        groups.into_vec()
    })
}

// ---------------------------------------------------------------------------
// A shuffle before and after its map stage ran
// ---------------------------------------------------------------------------

/// A shuffle whose map stage has not run. Read it lazily ([`Self::reduce`],
/// [`PairShuffle::read`]: the first job that reads it runs the map stage)
/// or run the map stage now ([`Self::run`]: the PDE hook) — the same
/// dependency either way.
pub struct Shuffle<B> {
    ctx: RddContext,
    dep: Arc<dyn ShuffleDepHandle>,
    /// The name of the job [`Self::run`] records, before the shuffle id.
    job: &'static str,
    _marker: PhantomData<fn() -> B>,
}

/// A shuffle of `(key, value)` pairs.
pub type PairShuffle<K, C> = Shuffle<Vec<(K, C)>>;

impl<B: ShuffleBlock> Shuffle<B> {
    /// Read lazily, one bucket per reduce partition, merging: `reduce`
    /// folds each partition's runs into its output.
    pub fn reduce<U: Data>(
        self,
        reduce: impl Fn(&ShuffleRead<B>) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.reduce_with(Arc::new(reduce))
    }

    fn reduce_with<U: Data>(self, reduce: Reduce<B, U>) -> Rdd<U> {
        let assignment = one_bucket_each(self.dep.num_buckets());
        shuffle_read(&self.ctx, self.dep, assignment, true, reduce)
    }

    /// Run the map stage now — after any upstream map stages it needs, all
    /// recorded as one job — and hand back its statistics.
    pub fn run(self) -> Result<PreShuffled<B>> {
        let mut stages = scheduler::ensure_shuffle_deps(&self.ctx, &*self.dep.parent_lineage())?;
        stages.push(self.dep.run_map_stage(&self.ctx)?);
        let id = self.dep.shuffle_id();
        let summary = self.ctx.shuffle_manager().summary(id)?;
        let sim_seconds = self
            .ctx
            .record_job(&format!("{}({id})", self.job), stages, 0.0);
        Ok(PreShuffled {
            ctx: self.ctx,
            dep: self.dep,
            summary,
            sim_seconds,
            _marker: PhantomData,
        })
    }
}

impl<K: Data + Hash + Eq, C: Data> PairShuffle<K, C> {
    /// Read lazily, one bucket per reduce partition, keeping the pairs as
    /// they are.
    pub fn read(self) -> Rdd<(K, C)> {
        let assignment = one_bucket_each(self.dep.num_buckets());
        shuffle_read(&self.ctx, self.dep, assignment, false, keep_pairs())
    }
}

/// A shuffle whose map stage has already run. Exposes the gathered
/// statistics and lets the caller choose how to read the reduce side — the
/// run-time re-optimization point of Partial DAG Execution.
pub struct PreShuffled<B> {
    ctx: RddContext,
    dep: Arc<dyn ShuffleDepHandle>,
    summary: ShuffleSummary,
    sim_seconds: f64,
    _marker: PhantomData<fn() -> B>,
}

/// A pair shuffle whose map stage has already run.
pub type PreShuffledRdd<K, V> = PreShuffled<Vec<(K, V)>>;

impl<B: ShuffleBlock> PreShuffled<B> {
    /// Aggregated map-output statistics (sizes and record counts per bucket).
    pub fn summary(&self) -> &ShuffleSummary {
        &self.summary
    }

    /// Simulated seconds of the job that materialized this map side.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_seconds
    }

    /// Number of fine-grained buckets produced by the map stage.
    pub fn num_buckets(&self) -> usize {
        self.dep.num_buckets()
    }

    /// The shuffle id in the shuffle manager.
    pub fn shuffle_id(&self) -> usize {
        self.dep.shuffle_id()
    }

    /// Read the shuffle with an explicit assignment of buckets to reduce
    /// partitions (each inner vector is one reduce task's bucket list),
    /// merging: `reduce` folds each partition's runs into its output.
    pub fn reduce<U: Data>(
        &self,
        assignment: Vec<Vec<usize>>,
        reduce: impl Fn(&ShuffleRead<B>) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        shuffle_read(
            &self.ctx,
            self.dep.clone(),
            assignment,
            true,
            Arc::new(reduce),
        )
    }
}

impl<K: Data + Hash + Eq, V: Data> PreShuffledRdd<K, V> {
    /// Read the shuffle with an explicit assignment of buckets to reduce
    /// partitions, keeping the pairs as they are.
    pub fn read(&self, assignment: Vec<Vec<usize>>) -> Rdd<(K, V)> {
        shuffle_read(&self.ctx, self.dep.clone(), assignment, false, keep_pairs())
    }

    /// Fetch the entire shuffle to the driver (used when PDE decides the
    /// relation is small enough to broadcast, §3.1.1), returning the pairs
    /// and the simulated seconds of the job that fetched them.
    pub fn collect_all(&self) -> Result<(Vec<(K, V)>, f64)> {
        let rdd = self.read(one_bucket_each(self.num_buckets()));
        let (parts, seconds) = scheduler::run_job(
            &self.ctx,
            &rdd,
            "collect",
            OutputSink::Collect,
            Arc::unwrap_or_clone,
        )?;
        Ok((parts.into_iter().flatten().collect(), seconds))
    }
}

// ---------------------------------------------------------------------------
// Building shuffles
// ---------------------------------------------------------------------------

/// Merge the values of each key in `data` with `merge`, in row order; the
/// keys come out in first-seen order.
fn combine<K: Hash + Eq + Clone, V: Clone>(
    data: Arc<Vec<(K, V)>>,
    merge: impl Fn(V, V) -> V,
) -> Vec<(K, V)> {
    let mut groups = GroupTable::default();
    for (k, v) in Arc::unwrap_or_clone(data) {
        groups.fold(k, v, |v| v, &merge);
    }
    groups.into_vec()
}

impl<T: Data> Rdd<T> {
    /// A shuffle of this RDD into `num_buckets` buckets whose map tasks
    /// charge `map_ops_per_row` per record `records` counts and bucket the
    /// block `fold` makes of their partition, named by `(stage, job)`.
    /// Mints the shuffle id.
    fn shuffle_with<B: ShuffleBlock>(
        &self,
        num_buckets: usize,
        (stage, job): (&'static str, &'static str),
        (map_ops_per_row, records): (f64, fn(&[T]) -> usize),
        fold: impl Fn(Arc<Vec<T>>) -> B + Send + Sync + 'static,
    ) -> Shuffle<B> {
        let dep = ShuffleDep {
            lease: self.ctx.new_shuffle(),
            num_buckets: num_buckets.max(1),
            parent: self.clone(),
            stage,
            map_ops_per_row,
            records,
            fold: Arc::new(fold),
        };
        Shuffle {
            ctx: self.ctx.clone(),
            dep: Arc::new(dep),
            job,
            _marker: PhantomData,
        }
    }

    /// A shuffle whose map tasks each write their (shared, never copied)
    /// partition into one block with `write` — a partial aggregate, say —
    /// charging `map_ops_per_row` per row for it. Named and charged as a
    /// map-side combine: the same stage and PDE job names, and one op per
    /// row for bucketing.
    pub fn shuffle_block<B: ShuffleBlock>(
        &self,
        num_buckets: usize,
        map_ops_per_row: f64,
        write: impl Fn(&[T]) -> B + Send + Sync + 'static,
    ) -> Shuffle<B> {
        self.shuffle_with(
            num_buckets,
            COMBINE,
            (map_ops_per_row, <[T]>::len),
            move |data| write(&data),
        )
    }

    /// `self.map(g)` then a map-side-combined shuffle, folded into the map
    /// stage and reading each partition in place: `f` turns a whole (shared,
    /// never copied) partition into its map-side-combined `(key, combiner)`
    /// pairs — at most one per key — and `merge` folds the combiners of one
    /// key across partitions on the reduce side, in place.
    ///
    /// It charges exactly what that chain charges, so task logs and
    /// simulated seconds do not move: the same rows and bytes in, the
    /// absorbed `map`'s one op per row before the shuffle's own, the same
    /// bytes out, stage name and shuffle id. Only the
    /// per-element `map` output and its copy of a cached partition are gone.
    pub fn combine_by_key_ref<K, C, F, M>(
        &self,
        num_partitions: usize,
        f: F,
        merge: M,
    ) -> Rdd<(K, C)>
    where
        K: Data + Hash + Eq,
        C: Data,
        F: Fn(&[T]) -> Vec<(K, C)> + Send + Sync + 'static,
        M: Fn(&mut C, &C) + Send + Sync + 'static,
    {
        self.shuffle_block(num_partitions, 1.0, f)
            .reduce_with(merge_pairs(merge))
    }
}

impl<B: ShuffleBlock + Data + Default> Rdd<B> {
    /// A shuffle of the blocks this RDD's partitions already are — one
    /// block (or none) per partition, as a fused SQL partial aggregate
    /// writes them — bucketed as they are and charged one op per record.
    pub fn shuffle_blocks(&self, num_buckets: usize) -> Shuffle<B> {
        let records = |blocks: &[B]| blocks.iter().map(ShuffleBlock::len).sum();
        self.shuffle_with(num_buckets, COMBINE, (0.0, records), |data| {
            debug_assert!(data.len() <= 1, "one block per partition");
            Arc::unwrap_or_clone(data).pop().unwrap_or_default()
        })
    }
}

impl<K: Data + Hash + Eq, V: Data> Rdd<(K, V)> {
    /// A repartition by key: the pairs go into their buckets as they are
    /// (a join side). Read it lazily with [`PairShuffle::read`], or run its
    /// map stage now with [`Shuffle::run`].
    pub fn shuffle(&self, num_buckets: usize) -> PairShuffle<K, V> {
        self.shuffle_with(
            num_buckets,
            REPARTITION,
            (0.0, <[(K, V)]>::len),
            Arc::unwrap_or_clone,
        )
    }

    /// Merge all values of each key with a binary function: map-side by
    /// value, then on the reduce side into a running value (`f` gets copies
    /// of both).
    pub fn reduce_by_key<F>(&self, num_partitions: usize, f: F) -> Rdd<(K, V)>
    where
        F: Fn(V, V) -> V + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let reduce = f.clone();
        self.shuffle_with(
            num_partitions,
            COMBINE,
            (0.0, <[(K, V)]>::len),
            move |data| combine(data, &*f),
        )
        .reduce_with(merge_pairs(move |c: &mut V, v: &V| {
            *c = reduce(c.clone(), v.clone())
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::RddContext;

    fn ctx() -> RddContext {
        RddContext::local()
    }

    /// A merging reader's fold that sums each word's counts, in place.
    fn summed(read: &ShuffleRead<Vec<(String, i64)>>) -> Vec<(String, i64)> {
        let mut groups = GroupTable::default();
        for (block, records) in read.runs() {
            for (word, n) in &block[records] {
                groups.fold_ref(word, |total| *total += n, || (word.clone(), *n));
            }
        }
        groups.into_vec()
    }

    fn word_pairs(ctx: &RddContext) -> Rdd<(String, i64)> {
        let words = vec![
            ("a".to_string(), 1i64),
            ("b".to_string(), 1),
            ("a".to_string(), 2),
            ("c".to_string(), 5),
            ("b".to_string(), 3),
            ("a".to_string(), 4),
        ];
        ctx.parallelize(words, 3)
    }

    #[test]
    fn reduce_by_key_sums_per_key() {
        let ctx = ctx();
        let mut out = word_pairs(&ctx)
            .reduce_by_key(4, |a, b| a + b)
            .collect()
            .unwrap();
        out.sort();
        assert_eq!(
            out,
            vec![
                ("a".to_string(), 7),
                ("b".to_string(), 4),
                ("c".to_string(), 5)
            ]
        );
    }

    #[test]
    fn pre_shuffle_exposes_statistics_and_reads_back() {
        let ctx = ctx();
        let pre = word_pairs(&ctx).shuffle(8).run().unwrap();
        let summary = pre.summary();
        assert_eq!(summary.num_buckets, 8);
        assert_eq!(summary.total_rows, 6);
        assert_eq!(summary.bucket_rows.iter().sum::<u64>(), 6);
        // Identity read returns everything.
        let (mut all, collect_seconds) = pre.collect_all().unwrap();
        all.sort();
        assert_eq!(all.len(), 6);
        assert_eq!(collect_seconds, ctx.last_job().unwrap().sim_duration);
        // Coalesced read into 2 partitions also returns everything.
        let coalesced = pre
            .read(vec![(0..4).collect(), (4..8).collect()])
            .collect()
            .unwrap();
        assert_eq!(coalesced.len(), 6);
    }

    #[test]
    fn pre_shuffle_records_the_upstream_map_stages_it_ran() {
        let ctx = ctx();
        let pre = word_pairs(&ctx)
            .reduce_by_key(4, |a, b| a + b)
            .map(|(word, total)| (total, word))
            .shuffle(8)
            .run()
            .unwrap();
        let history = ctx.job_history();
        assert_eq!(history.len(), 1);
        let job = &history[0];
        assert_eq!(job.name, format!("pre_shuffle({})", pre.shuffle_id()));
        let stages: Vec<&str> = job.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(stages.len(), 2, "{stages:?}");
        assert!(stages[0].starts_with("shuffle-map-combine("), "{stages:?}");
        assert_eq!(stages[1], format!("shuffle-map({})", pre.shuffle_id()));
        assert!(job.stages.iter().all(|s| s.sim_duration > 0.0));
        // Every second the clock moved is in the job, and on the handle.
        assert_eq!(pre.sim_seconds(), job.sim_duration);
        let clock = ctx.simulated_time();
        assert!((clock - job.sim_duration).abs() <= 1e-12 * clock);
    }

    #[test]
    fn a_block_shuffle_partially_aggregates_and_reads_back_merged() {
        let ctx = ctx();
        // Each map task writes one block: its partition's map-side combine.
        let pre = word_pairs(&ctx)
            .shuffle_block(4, 0.0, |part: &[(String, i64)]| {
                combine(Arc::new(part.to_vec()), |a, b| a + b)
            })
            .run()
            .unwrap();
        // Map-side combining means at most one record per (map task, key).
        assert!(pre.summary().total_rows <= 6);
        let job = ctx.last_job().unwrap();
        assert_eq!(
            job.name,
            format!("pre_shuffle_combined({})", pre.shuffle_id())
        );
        let reduced = pre.reduce(vec![(0..4).collect()], summed);
        assert_eq!(reduced.name(), "shuffle_read_agg");
        let mut out = reduced.collect().unwrap();
        out.sort();
        assert_eq!(
            out,
            vec![
                ("a".to_string(), 7),
                ("b".to_string(), 4),
                ("c".to_string(), 5)
            ]
        );
    }

    #[test]
    fn map_output_lives_exactly_as_long_as_a_reader() {
        let ctx = ctx();
        let mapped = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = mapped.clone();
        let source = word_pairs(&ctx).map(move |pair| {
            counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            pair
        });
        // Two actions on one shuffled RDD: the map stage runs once, and the
        // map output is gone as soon as the RDD is.
        let reduced = source.reduce_by_key(4, |a, b| a + b);
        assert_eq!(ctx.shuffle_manager().registered(), 0, "nothing ran yet");
        let first = reduced.count().unwrap();
        assert_eq!(ctx.shuffle_manager().registered(), 1);
        assert_eq!(reduced.count().unwrap(), first);
        assert_eq!(mapped.load(std::sync::atomic::Ordering::SeqCst), 6);
        // Two lazy repartitions read side by side, as a static join reads
        // them: each reader holds its own map output.
        let zipped = reduced
            .shuffle(2)
            .read()
            .zip_partitions(&source.shuffle(2).read(), |_, l, r| vec![l.len() + r.len()]);
        assert_eq!(zipped.collect().unwrap().iter().sum::<usize>(), 3 + 6);
        assert_eq!(ctx.shuffle_manager().registered(), 3, "both zipped sides");
        drop(zipped);
        assert_eq!(ctx.shuffle_manager().registered(), 1);
        drop(reduced);
        assert_eq!(ctx.shuffle_manager().registered(), 0);

        // The PDE handle: a reader keeps the buckets after the handle goes.
        let pre = source.shuffle(4).run().unwrap();
        let reader = pre.read(vec![(0..4).collect()]);
        let agg_reader = pre.reduce(vec![(0..4).collect()], summed);
        drop(pre);
        assert_eq!(ctx.shuffle_manager().registered(), 1);
        assert_eq!(reader.collect().unwrap().len(), 6);
        drop(reader);
        assert_eq!(agg_reader.collect().unwrap().len(), 3);
        drop(agg_reader);
        assert_eq!(ctx.shuffle_manager().registered(), 0);
    }

    #[test]
    fn chained_shuffles_work() {
        let ctx = ctx();
        // word count, then count how many words have each count value.
        let counts = word_pairs(&ctx).reduce_by_key(4, |a, b| a + b);
        let by_total = counts
            .map(|(_, total)| (total, 1i64))
            .reduce_by_key(2, |a, b| a + b);
        let mut out = by_total.collect().unwrap();
        out.sort();
        assert_eq!(out, vec![(4, 1), (5, 1), (7, 1)]);
        // The job report should show multiple stages ran.
        let report = ctx.last_job().unwrap();
        assert!(
            report.stages.len() >= 2,
            "stages: {:?}",
            report.stages.len()
        );
    }
}
