//! Key/value (pair) RDD operations: the one shuffle, the aggregations and
//! repartitions built on it, and the Partial-DAG-Execution hooks.
//!
//! Every shuffle is one dependency: a parent RDD whose partitions a map task
//! folds into `(key, combiner)` pairs — a map-side combine, or the pairs as
//! they are for a repartition — and hash-partitions into buckets. Every
//! shuffle is read back by one [`ShuffleReadRdd`], whose reduce partitions
//! each read a list of buckets; a merging reader folds each key's
//! combiners in place as it reads the map outputs.
//!
//! A lazy shuffle (`reduce_by_key`, `combine_by_key_ref`, a static GROUP
//! BY's [`PairShuffle::read_aggregated`], a static join side's
//! [`PairShuffle::read`]) registers its dependency in the lineage: the first
//! job that reads it runs its map stage, and it reads one bucket per reduce
//! partition. [`PairShuffle::run`] runs the same dependency's map stage at
//! once and hands back a [`PreShuffledRdd`] whose
//! statistics ([`crate::shuffle::ShuffleSummary`]) the query optimizer can
//! inspect before deciding how to read it — the mechanism behind the
//! paper's partial DAG execution (§3.1): choosing map vs. shuffle joins,
//! picking the number of reducers, and bin-packing skewed buckets.

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
use crate::shuffle::{ShuffleLease, ShuffleSummary};

/// The input source a reduce task reads shuffle data from, per the profile
/// (§5: Shark keeps map output in memory, Hadoop spills it to disk).
fn shuffle_fetch_source(ctx: &RddContext) -> InputSource {
    if ctx.config().cluster.profile.shuffle_to_disk {
        InputSource::ShuffleDisk
    } else {
        InputSource::ShuffleMemory
    }
}

/// A map task's step between its (shared) partition and its buckets.
pub(crate) type PartitionFold<T, K, C> = Arc<dyn Fn(Arc<Vec<T>>) -> Vec<(K, C)> + Send + Sync>;

/// A reduce-side merge: fold one map output's combiner into a key's
/// running one, in place.
type MergeFn<C> = Arc<dyn Fn(&mut C, &C) + Send + Sync>;

/// The map stage's and the PDE job's names (each followed by the shuffle
/// id) of a shuffle that buckets its pairs as they are…
const REPARTITION: (&str, &str) = ("shuffle-map", "pre_shuffle");
/// …and of one that buckets a map-side combine.
const COMBINE: (&str, &str) = ("shuffle-map-combine", "pre_shuffle_combined");

// ---------------------------------------------------------------------------
// The shuffle dependency and its reader
// ---------------------------------------------------------------------------

/// The one shuffle dependency: each map task charges `map_ops_per_row` for a
/// fused `map`, folds its partition of `parent` into `(K, C)` pairs and
/// buckets them by key.
struct ShuffleDep<T: Data, K: Data + Hash + Eq, C: Data> {
    lease: Arc<ShuffleLease>,
    num_buckets: usize,
    parent: Rdd<T>,
    /// The map stage's name, before the shuffle id.
    stage: &'static str,
    /// Ops charged per parent row for a fused `map` (0 when none is fused).
    map_ops_per_row: f64,
    fold: PartitionFold<T, K, C>,
}

impl<T: Data, K: Data + Hash + Eq, C: Data> ShuffleDepHandle for ShuffleDep<T, K, C> {
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
            self.map_ops_per_row,
            self.fold.clone(),
        )
    }
}

/// The one reduce side of a shuffle: reduce partition `i` reads the buckets
/// `assignment[i]` — one bucket each for a lazy shuffle, lists of coalesced
/// buckets for PDE (§3.1.2) — bucket by bucket, each in map-task order.
///
/// With a `merge`, it folds each key's combiners in place as it reads them
/// from the map outputs: no pair is copied, and a key and its state are
/// cloned once, at the key's first appearance. Without one, it keeps the
/// rows (a join side), copying them out.
pub struct ShuffleReadRdd<K: Data + Hash + Eq, C: Data> {
    id: usize,
    dep: Arc<dyn ShuffleDepHandle>,
    assignment: Arc<Vec<Vec<usize>>>,
    merge: Option<MergeFn<C>>,
    _marker: PhantomData<fn() -> K>,
}

impl<K: Data + Hash + Eq, C: Data> RddImpl<(K, C)> for ShuffleReadRdd<K, C> {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> String {
        match self.merge {
            Some(_) => "shuffle_read_agg".to_string(),
            None => "shuffle_read".to_string(),
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
    ) -> Result<Vec<(K, C)>> {
        let (shuffle_id, buckets) = (self.dep.shuffle_id(), &self.assignment[partition]);
        let Some(merge) = &self.merge else {
            let (pairs, bytes): (Vec<(K, C)>, u64) =
                ctx.shuffle_manager().fetch(shuffle_id, buckets)?;
            metrics.record_input(pairs.len() as u64, bytes, shuffle_fetch_source(ctx));
            return Ok(pairs);
        };
        let mut groups = GroupTable::default();
        let (rows, bytes) =
            ctx.shuffle_manager()
                .read(shuffle_id, buckets, |pairs: &[(K, C)]| {
                    for (k, c) in pairs {
                        groups.fold_ref(k, |state| merge(state, c), || (k.clone(), c.clone()));
                    }
                })?;
        metrics.record_input(rows as u64, bytes, shuffle_fetch_source(ctx));
        metrics.add_ops(rows as f64 * 2.0);
        Ok(groups.into_vec())
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        vec![self.dep.parent_lineage()]
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepHandle>> {
        vec![self.dep.clone()]
    }
}

/// A reader of `dep` with `assignment`, merging with `merge` when given.
fn shuffle_read<K: Data + Hash + Eq, C: Data>(
    ctx: &RddContext,
    dep: Arc<dyn ShuffleDepHandle>,
    assignment: Vec<Vec<usize>>,
    merge: Option<MergeFn<C>>,
) -> Rdd<(K, C)> {
    let inner = ShuffleReadRdd {
        id: ctx.next_rdd_id(),
        dep,
        assignment: Arc::new(assignment),
        merge,
        _marker: PhantomData,
    };
    Rdd::new(ctx.clone(), Arc::new(inner))
}

/// One bucket per reduce partition: how a lazy shuffle is read.
fn one_bucket_each(num_buckets: usize) -> Vec<Vec<usize>> {
    (0..num_buckets).map(|b| vec![b]).collect()
}

// ---------------------------------------------------------------------------
// A shuffle before and after its map stage ran
// ---------------------------------------------------------------------------

/// A pair shuffle whose map stage has not run. Read it lazily
/// ([`Self::read`], [`Self::read_aggregated`]: the first job that reads it
/// runs the map stage) or run the map stage now ([`Self::run`]: the PDE
/// hook) — the same dependency either way.
pub struct PairShuffle<K: Data + Hash + Eq, C: Data> {
    ctx: RddContext,
    dep: Arc<dyn ShuffleDepHandle>,
    /// The name of the job [`Self::run`] records, before the shuffle id.
    job: &'static str,
    _marker: PhantomData<fn() -> (K, C)>,
}

impl<K: Data + Hash + Eq, C: Data> PairShuffle<K, C> {
    /// Read lazily, one bucket per reduce partition, keeping the pairs as
    /// they are.
    pub fn read(self) -> Rdd<(K, C)> {
        let assignment = one_bucket_each(self.dep.num_buckets());
        shuffle_read(&self.ctx, self.dep, assignment, None)
    }

    /// Read lazily, one bucket per reduce partition, merging each key's
    /// combiners in place with `merge` in fetch order.
    pub fn read_aggregated<M>(self, merge: M) -> Rdd<(K, C)>
    where
        M: Fn(&mut C, &C) + Send + Sync + 'static,
    {
        let assignment = one_bucket_each(self.dep.num_buckets());
        shuffle_read(&self.ctx, self.dep, assignment, Some(Arc::new(merge)))
    }

    /// Run the map stage now — after any upstream map stages it needs, all
    /// recorded as one job — and hand back its statistics.
    pub fn run(self) -> Result<PreShuffledRdd<K, C>> {
        let mut stages = scheduler::ensure_shuffle_deps(&self.ctx, &*self.dep.parent_lineage())?;
        stages.push(self.dep.run_map_stage(&self.ctx)?);
        let id = self.dep.shuffle_id();
        let summary = self.ctx.shuffle_manager().summary(id)?;
        let sim_seconds = self
            .ctx
            .record_job(&format!("{}({id})", self.job), stages, 0.0);
        Ok(PreShuffledRdd {
            ctx: self.ctx,
            dep: self.dep,
            summary,
            sim_seconds,
            _marker: PhantomData,
        })
    }
}

/// A shuffle whose map stage has already run. Exposes the gathered
/// statistics and lets the caller choose how to read the reduce side — the
/// run-time re-optimization point of Partial DAG Execution.
pub struct PreShuffledRdd<K: Data + Hash + Eq, V: Data> {
    ctx: RddContext,
    dep: Arc<dyn ShuffleDepHandle>,
    summary: ShuffleSummary,
    sim_seconds: f64,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K: Data + Hash + Eq, V: Data> PreShuffledRdd<K, V> {
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
    /// partitions (each inner vector is one reduce task's bucket list).
    pub fn read(&self, assignment: Vec<Vec<usize>>) -> Rdd<(K, V)> {
        shuffle_read(&self.ctx, self.dep.clone(), assignment, None)
    }

    /// Read the shuffle with an explicit bucket assignment, merging each
    /// key's values in fetch order with `merge` (into the first value, in
    /// place) as they are read from the map outputs.
    pub fn read_aggregated<M>(&self, assignment: Vec<Vec<usize>>, merge: M) -> Rdd<(K, V)>
    where
        M: Fn(&mut V, &V) + Send + Sync + 'static,
    {
        shuffle_read(
            &self.ctx,
            self.dep.clone(),
            assignment,
            Some(Arc::new(merge)),
        )
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
    /// charge `map_ops_per_row` and bucket what `fold` makes of their
    /// partition, named by `(stage, job)`. Mints the shuffle id.
    fn shuffle_with<K: Data + Hash + Eq, C: Data>(
        &self,
        num_buckets: usize,
        (stage, job): (&'static str, &'static str),
        map_ops_per_row: f64,
        fold: impl Fn(Arc<Vec<T>>) -> Vec<(K, C)> + Send + Sync + 'static,
    ) -> PairShuffle<K, C> {
        let dep = ShuffleDep {
            lease: self.ctx.new_shuffle(),
            num_buckets: num_buckets.max(1),
            parent: self.clone(),
            stage,
            map_ops_per_row,
            fold: Arc::new(fold),
        };
        PairShuffle {
            ctx: self.ctx.clone(),
            dep: Arc::new(dep),
            job,
            _marker: PhantomData,
        }
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
        self.shuffle_with(num_partitions, COMBINE, 1.0, move |data| f(&data))
            .read_aggregated(merge)
    }
}

impl<K: Data + Hash + Eq, V: Data> Rdd<(K, V)> {
    /// A repartition by key: the pairs go into their buckets as they are
    /// (a join side). Read it lazily with [`PairShuffle::read`], or run its
    /// map stage now with [`PairShuffle::run`].
    pub fn shuffle(&self, num_buckets: usize) -> PairShuffle<K, V> {
        self.shuffle_with(num_buckets, REPARTITION, 0.0, Arc::unwrap_or_clone)
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
        self.shuffle_with(num_partitions, COMBINE, 0.0, move |data| combine(data, &*f))
            .read_aggregated(move |c, v| *c = reduce(c.clone(), v.clone()))
    }

    /// A shuffle that merges each key's values map-side with `merge` first
    /// (partial aggregation, §3.1), in row order.
    pub fn shuffle_combined<M>(&self, num_buckets: usize, merge: M) -> PairShuffle<K, V>
    where
        M: Fn(&mut V, &V) + Send + Sync + 'static,
    {
        self.shuffle_with(num_buckets, COMBINE, 0.0, move |data| {
            combine(data, |mut c, v| {
                merge(&mut c, &v);
                c
            })
        })
    }

    /// [`Rdd::shuffle_combined`] for pairs that already are a map-side
    /// combine — at most one per key per partition, as a fused partial
    /// aggregate emits them — so they go into their buckets as they are.
    /// It charges and names what `shuffle_combined` does for the same
    /// pairs: the combine it skips would return them unchanged.
    pub fn shuffle_precombined(&self, num_buckets: usize) -> PairShuffle<K, V> {
        self.shuffle_with(num_buckets, COMBINE, 0.0, Arc::unwrap_or_clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::RddContext;

    fn ctx() -> RddContext {
        RddContext::local()
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
    fn pre_shuffle_combined_partially_aggregates() {
        let ctx = ctx();
        let pre = word_pairs(&ctx)
            .shuffle_combined(4, |c, v| *c += *v)
            .run()
            .unwrap();
        // Map-side combining means at most one record per (map task, key).
        assert!(pre.summary().total_rows <= 6);
        let mut out = pre
            .read_aggregated(vec![(0..4).collect()], |c, v| *c += *v)
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
        let agg_reader = pre.read_aggregated(vec![(0..4).collect()], |c: &mut i64, v| *c += *v);
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
