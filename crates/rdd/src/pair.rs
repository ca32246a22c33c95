//! Key/value (pair) RDD operations: shuffles, aggregations, joins, and the
//! Partial-DAG-Execution hooks.
//!
//! The wide operations here introduce shuffle dependencies: `reduce_by_key`,
//! `group_by_key`, `combine_by_key`, `partition_by`, `cogroup` and `join`.
//! In addition, [`Rdd::pre_shuffle`] materializes just the *map side* of a
//! shuffle and hands back a [`PreShuffledRdd`] whose statistics
//! ([`crate::shuffle::ShuffleSummary`]) the query optimizer
//! can inspect before deciding how to consume the shuffle — the mechanism
//! behind the paper's partial DAG execution (§3.1): choosing map vs. shuffle
//! joins, picking the number of reducers, and bin-packing skewed buckets.

use std::collections::HashMap;
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

/// Combiner functions used for shuffle-time aggregation, mirroring Spark's
/// `Aggregator`: `create` turns the first value for a key into a combiner,
/// `merge_value` folds further values in, and `merge_combiners` merges
/// map-side partial aggregates on the reduce side.
pub struct Aggregator<V, C> {
    /// Create a combiner from the first value observed for a key.
    pub create: Arc<dyn Fn(V) -> C + Send + Sync>,
    /// Fold one more value into an existing combiner.
    pub merge_value: Arc<dyn Fn(C, V) -> C + Send + Sync>,
    /// Merge two partial combiners.
    pub merge_combiners: Arc<dyn Fn(C, C) -> C + Send + Sync>,
}

impl<V, C> Clone for Aggregator<V, C> {
    fn clone(&self) -> Self {
        Aggregator {
            create: self.create.clone(),
            merge_value: self.merge_value.clone(),
            merge_combiners: self.merge_combiners.clone(),
        }
    }
}

impl<V, C> Aggregator<V, C> {
    /// Combine `pairs` per key: `create` on a key's first value, then
    /// `merge_value` for each further one, in input order. Keys come out
    /// in first-seen order.
    fn combine<K: Hash + Eq>(&self, pairs: Vec<(K, V)>) -> Vec<(K, C)> {
        let mut groups = GroupTable::default();
        for (k, v) in pairs {
            groups.fold(k, v, &*self.create, &*self.merge_value);
        }
        groups.into_vec()
    }

    /// Build an aggregator from the three combiner functions.
    pub fn new<FC, FV, FM>(create: FC, merge_value: FV, merge_combiners: FM) -> Aggregator<V, C>
    where
        FC: Fn(V) -> C + Send + Sync + 'static,
        FV: Fn(C, V) -> C + Send + Sync + 'static,
        FM: Fn(C, C) -> C + Send + Sync + 'static,
    {
        Aggregator {
            create: Arc::new(create),
            merge_value: Arc::new(merge_value),
            merge_combiners: Arc::new(merge_combiners),
        }
    }
}

/// The input source a reduce task reads shuffle data from, per the profile
/// (§5: Shark keeps map output in memory, Hadoop spills it to disk).
pub(crate) fn shuffle_fetch_source(ctx: &RddContext) -> InputSource {
    if ctx.config().cluster.profile.shuffle_to_disk {
        InputSource::ShuffleDisk
    } else {
        InputSource::ShuffleMemory
    }
}

// ---------------------------------------------------------------------------
// Shuffle dependencies
// ---------------------------------------------------------------------------

/// The per-partition map-side combine of a [`CombineShuffleDep`].
type CombineFn<T, K, C> = Arc<dyn Fn(Arc<Vec<T>>) -> Vec<(K, C)> + Send + Sync>;

/// Shuffle dependency that combines each parent partition map-side into
/// `(K, C)` pairs: with an [`Aggregator`] over a pair RDD
/// ([`Rdd::combine_by_key`]), or with a by-reference fold that also absorbs
/// a `map` ([`Rdd::combine_by_key_ref`]).
pub struct CombineShuffleDep<T: Data, K: Data + Hash + Eq, C: Data> {
    pub(crate) lease: Arc<ShuffleLease>,
    pub(crate) num_buckets: usize,
    pub(crate) parent: Rdd<T>,
    /// Ops charged per parent row for a fused `map` (0 when none is fused).
    pub(crate) map_ops_per_row: f64,
    pub(crate) combine: CombineFn<T, K, C>,
}

impl<T: Data, K: Data + Hash + Eq, C: Data> ShuffleDepHandle for CombineShuffleDep<T, K, C> {
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
        scheduler::run_shuffle_map_stage_combined(
            ctx,
            &self.parent,
            self.lease.id(),
            self.num_buckets,
            self.map_ops_per_row,
            &*self.combine,
        )
    }
}

/// Shuffle dependency without map-side combining (stores raw `(K, V)` pairs).
pub struct RepartitionShuffleDep<K: Data + Hash + Eq, V: Data> {
    pub(crate) lease: Arc<ShuffleLease>,
    pub(crate) num_buckets: usize,
    pub(crate) parent: Rdd<(K, V)>,
}

impl<K: Data + Hash + Eq, V: Data> ShuffleDepHandle for RepartitionShuffleDep<K, V> {
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
        scheduler::run_shuffle_map_stage_raw(ctx, &self.parent, self.lease.id(), self.num_buckets)
    }
}

// ---------------------------------------------------------------------------
// Wide RDD implementations
// ---------------------------------------------------------------------------

/// Result of `combine_by_key` / `combine_by_key_ref` / `reduce_by_key` /
/// `group_by_key`: reads the map-side-combined shuffle output and merges
/// combiners per key.
pub struct ShuffledRdd<K: Data + Hash + Eq, C: Data> {
    id: usize,
    num_partitions: usize,
    dep: Arc<dyn ShuffleDepHandle>,
    #[allow(clippy::type_complexity)]
    merge: Arc<dyn Fn(C, C) -> C + Send + Sync>,
    _marker: PhantomData<fn() -> K>,
}

impl<K: Data + Hash + Eq, C: Data> RddImpl<(K, C)> for ShuffledRdd<K, C> {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> String {
        "shuffled".to_string()
    }
    fn num_partitions(&self) -> usize {
        self.num_partitions
    }
    fn compute(
        &self,
        ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<(K, C)>> {
        let (pairs, bytes): (Vec<(K, C)>, u64) = ctx
            .shuffle_manager()
            .fetch(self.dep.shuffle_id(), &[partition])?;
        metrics.record_input(pairs.len() as u64, bytes, shuffle_fetch_source(ctx));
        metrics.add_ops(pairs.len() as f64 * 2.0);
        let mut groups = GroupTable::default();
        for (k, c) in pairs {
            groups.fold(k, c, |c| c, &*self.merge);
        }
        Ok(groups.into_vec())
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        vec![self.dep.parent_lineage()]
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepHandle>> {
        vec![self.dep.clone()]
    }
}

/// Result of `partition_by`: the same pairs, hash-partitioned by key.
pub struct RepartitionedRdd<K: Data + Hash + Eq, V: Data> {
    id: usize,
    num_partitions: usize,
    dep: Arc<RepartitionShuffleDep<K, V>>,
}

impl<K: Data + Hash + Eq, V: Data> RddImpl<(K, V)> for RepartitionedRdd<K, V> {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> String {
        "repartitioned".to_string()
    }
    fn num_partitions(&self) -> usize {
        self.num_partitions
    }
    fn compute(
        &self,
        ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<(K, V)>> {
        let (pairs, bytes): (Vec<(K, V)>, u64) = ctx
            .shuffle_manager()
            .fetch(self.dep.lease.id(), &[partition])?;
        metrics.record_input(pairs.len() as u64, bytes, shuffle_fetch_source(ctx));
        Ok(pairs)
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        vec![self.dep.parent.lineage()]
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepHandle>> {
        vec![self.dep.clone()]
    }
}

/// Result of `cogroup`: for each key, the values from both sides.
pub struct CoGroupedRdd<K: Data + Hash + Eq, V: Data, W: Data> {
    id: usize,
    num_partitions: usize,
    left: Arc<RepartitionShuffleDep<K, V>>,
    right: Arc<RepartitionShuffleDep<K, W>>,
}

impl<K: Data + Hash + Eq, V: Data, W: Data> RddImpl<(K, (Vec<V>, Vec<W>))>
    for CoGroupedRdd<K, V, W>
{
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> String {
        "cogroup".to_string()
    }
    fn num_partitions(&self) -> usize {
        self.num_partitions
    }
    fn compute(
        &self,
        ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<(K, (Vec<V>, Vec<W>))>> {
        let (lpairs, lbytes): (Vec<(K, V)>, u64) = ctx
            .shuffle_manager()
            .fetch(self.left.lease.id(), &[partition])?;
        let (rpairs, rbytes): (Vec<(K, W)>, u64) = ctx
            .shuffle_manager()
            .fetch(self.right.lease.id(), &[partition])?;
        let source = shuffle_fetch_source(ctx);
        metrics.record_input(lpairs.len() as u64, lbytes, source);
        metrics.record_input(rpairs.len() as u64, rbytes, source);
        metrics.add_ops((lpairs.len() + rpairs.len()) as f64 * 2.0);

        let mut table: HashMap<K, (Vec<V>, Vec<W>)> = HashMap::new();
        for (k, v) in lpairs {
            table.entry(k).or_default().0.push(v);
        }
        for (k, w) in rpairs {
            table.entry(k).or_default().1.push(w);
        }
        Ok(table.into_iter().collect())
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        vec![self.left.parent.lineage(), self.right.parent.lineage()]
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepHandle>> {
        vec![self.left.clone(), self.right.clone()]
    }
}

/// Reads an already-materialized shuffle with an arbitrary assignment of
/// buckets to partitions (used by PDE to coalesce small buckets, §3.1.2).
pub struct ShuffleReadRdd<K: Data + Hash + Eq, V: Data> {
    id: usize,
    lease: Arc<ShuffleLease>,
    assignment: Arc<Vec<Vec<usize>>>,
    parent_lineage: Arc<dyn Lineage>,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K: Data + Hash + Eq, V: Data> RddImpl<(K, V)> for ShuffleReadRdd<K, V> {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> String {
        "shuffle_read".to_string()
    }
    fn num_partitions(&self) -> usize {
        self.assignment.len()
    }
    fn compute(
        &self,
        ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<(K, V)>> {
        let (pairs, bytes): (Vec<(K, V)>, u64) = ctx
            .shuffle_manager()
            .fetch(self.lease.id(), &self.assignment[partition])?;
        metrics.record_input(pairs.len() as u64, bytes, shuffle_fetch_source(ctx));
        Ok(pairs)
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        vec![self.parent_lineage.clone()]
    }
}

/// Like [`ShuffleReadRdd`] but merges the values of each key as it reads
/// them in place (the reduce side of a PDE-planned aggregation): no pair is
/// copied out of the map outputs, and a key and its state are cloned once,
/// at the key's first appearance.
pub struct ShuffleReadAggRdd<K: Data + Hash + Eq, V: Data> {
    id: usize,
    lease: Arc<ShuffleLease>,
    assignment: Arc<Vec<Vec<usize>>>,
    #[allow(clippy::type_complexity)]
    merge: Arc<dyn Fn(&mut V, &V) + Send + Sync>,
    parent_lineage: Arc<dyn Lineage>,
    _marker: PhantomData<fn() -> K>,
}

impl<K: Data + Hash + Eq, V: Data> RddImpl<(K, V)> for ShuffleReadAggRdd<K, V> {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> String {
        "shuffle_read_agg".to_string()
    }
    fn num_partitions(&self) -> usize {
        self.assignment.len()
    }
    fn compute(
        &self,
        ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<(K, V)>> {
        let mut groups = GroupTable::default();
        let (rows, bytes) = ctx.shuffle_manager().read(
            self.lease.id(),
            &self.assignment[partition],
            |pairs: &[(K, V)]| {
                for (k, v) in pairs {
                    groups.fold_ref(k, |c| (self.merge)(c, v), || (k.clone(), v.clone()));
                }
            },
        )?;
        metrics.record_input(rows as u64, bytes, shuffle_fetch_source(ctx));
        metrics.add_ops(rows as f64 * 2.0);
        Ok(groups.into_vec())
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        vec![self.parent_lineage.clone()]
    }
}

// ---------------------------------------------------------------------------
// The PDE handle: a materialized map side
// ---------------------------------------------------------------------------

/// A shuffle whose map stage has already run. Exposes the gathered
/// statistics and lets the caller choose how to read the reduce side — the
/// run-time re-optimization point of Partial DAG Execution.
pub struct PreShuffledRdd<K: Data + Hash + Eq, V: Data> {
    ctx: RddContext,
    lease: Arc<ShuffleLease>,
    num_buckets: usize,
    summary: ShuffleSummary,
    sim_seconds: f64,
    parent_lineage: Arc<dyn Lineage>,
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
        self.num_buckets
    }

    /// The shuffle id in the shuffle manager.
    pub fn shuffle_id(&self) -> usize {
        self.lease.id()
    }

    /// Read the shuffle with an explicit assignment of buckets to reduce
    /// partitions (each inner vector is one reduce task's bucket list).
    pub fn read(&self, assignment: Vec<Vec<usize>>) -> Rdd<(K, V)> {
        let inner = ShuffleReadRdd {
            id: self.ctx.next_rdd_id(),
            lease: self.lease.clone(),
            assignment: Arc::new(assignment),
            parent_lineage: self.parent_lineage.clone(),
            _marker: PhantomData,
        };
        Rdd::new(self.ctx.clone(), Arc::new(inner))
    }

    /// Read the shuffle with one reduce partition per bucket.
    pub fn read_identity(&self) -> Rdd<(K, V)> {
        self.read((0..self.num_buckets).map(|b| vec![b]).collect())
    }

    /// Read the shuffle with an explicit bucket assignment, merging each
    /// key's values in fetch order with `merge` (into the first value, in
    /// place) as they are read from the map outputs.
    pub fn read_aggregated<M>(&self, assignment: Vec<Vec<usize>>, merge: M) -> Rdd<(K, V)>
    where
        M: Fn(&mut V, &V) + Send + Sync + 'static,
    {
        let inner = ShuffleReadAggRdd {
            id: self.ctx.next_rdd_id(),
            lease: self.lease.clone(),
            assignment: Arc::new(assignment),
            merge: Arc::new(merge),
            parent_lineage: self.parent_lineage.clone(),
            _marker: PhantomData,
        };
        Rdd::new(self.ctx.clone(), Arc::new(inner))
    }

    /// Fetch the entire shuffle to the driver (used when PDE decides the
    /// relation is small enough to broadcast, §3.1.1), returning the pairs
    /// and the simulated seconds of the job that fetched them.
    pub fn collect_all(&self) -> Result<(Vec<(K, V)>, f64)> {
        let rdd = self.read_identity();
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
// Combining shuffles on any Rdd<T>
// ---------------------------------------------------------------------------

impl<T: Data> Rdd<T> {
    /// `self.map(g).combine_by_key(num_partitions, agg)` folded into the
    /// map stage and reading each partition in place: `f` turns a whole
    /// (shared, never copied) partition into its map-side-combined
    /// `(key, combiner)` pairs — at most one per key — and `merge` merges
    /// combiners of one key across partitions on the reduce side.
    ///
    /// It charges exactly what that chain charges, so task logs and
    /// simulated seconds do not move: the same rows and bytes in, the
    /// absorbed `map`'s one op per row before the shuffle's own, the same
    /// bytes out, preferred node, stage name and shuffle id. Only the
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
        M: Fn(C, C) -> C + Send + Sync + 'static,
    {
        self.combined_shuffle(
            num_partitions,
            1.0,
            Arc::new(move |data| f(&data)),
            Arc::new(merge),
        )
    }

    /// A shuffle combining each partition map-side with `combine` (after
    /// charging `map_ops_per_row` for a fused `map`), read back through the
    /// one [`ShuffledRdd`] with `merge`.
    fn combined_shuffle<K: Data + Hash + Eq, C: Data>(
        &self,
        num_partitions: usize,
        map_ops_per_row: f64,
        combine: CombineFn<T, K, C>,
        merge: Arc<dyn Fn(C, C) -> C + Send + Sync>,
    ) -> Rdd<(K, C)> {
        let num_partitions = num_partitions.max(1);
        let dep = Arc::new(CombineShuffleDep {
            lease: self.ctx.new_shuffle(),
            num_buckets: num_partitions,
            parent: self.clone(),
            map_ops_per_row,
            combine,
        });
        let inner = ShuffledRdd {
            id: self.ctx.next_rdd_id(),
            num_partitions,
            dep,
            merge,
            _marker: PhantomData,
        };
        Rdd::new(self.ctx.clone(), Arc::new(inner))
    }
}

// ---------------------------------------------------------------------------
// Pair operations on Rdd<(K, V)>
// ---------------------------------------------------------------------------

impl<K: Data + Hash + Eq, V: Data> Rdd<(K, V)> {
    /// Generic shuffle aggregation with map-side combining.
    pub fn combine_by_key<C: Data>(
        &self,
        num_partitions: usize,
        agg: Aggregator<V, C>,
    ) -> Rdd<(K, C)> {
        let merge = agg.merge_combiners.clone();
        self.combined_shuffle(
            num_partitions,
            0.0,
            Arc::new(move |data| agg.combine(Arc::unwrap_or_clone(data))),
            merge,
        )
    }

    /// Merge all values of each key with a binary function.
    pub fn reduce_by_key<F>(&self, num_partitions: usize, f: F) -> Rdd<(K, V)>
    where
        F: Fn(V, V) -> V + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let f1 = f.clone();
        let f2 = f.clone();
        self.combine_by_key(
            num_partitions,
            Aggregator::new(|v| v, move |c, v| f1(c, v), move |a, b| f2(a, b)),
        )
    }

    /// Group all values of each key into a vector.
    pub fn group_by_key(&self, num_partitions: usize) -> Rdd<(K, Vec<V>)> {
        self.combine_by_key(
            num_partitions,
            Aggregator::new(
                |v| vec![v],
                |mut c: Vec<V>, v| {
                    c.push(v);
                    c
                },
                |mut a: Vec<V>, mut b: Vec<V>| {
                    a.append(&mut b);
                    a
                },
            ),
        )
    }

    /// Hash-partition the pairs by key without aggregating (DISTRIBUTE BY /
    /// co-partitioning, §3.4).
    pub fn partition_by(&self, num_partitions: usize) -> Rdd<(K, V)> {
        let num_partitions = num_partitions.max(1);
        let dep = Arc::new(RepartitionShuffleDep {
            lease: self.ctx.new_shuffle(),
            num_buckets: num_partitions,
            parent: self.clone(),
        });
        let inner = RepartitionedRdd {
            id: self.ctx.next_rdd_id(),
            num_partitions,
            dep,
        };
        Rdd::new(self.ctx.clone(), Arc::new(inner))
    }

    /// Transform the values, keeping the keys.
    pub fn map_values<U: Data, F>(&self, f: F) -> Rdd<(K, U)>
    where
        F: Fn(V) -> U + Send + Sync + 'static,
    {
        self.map(move |(k, v)| (k, f(v)))
    }

    /// The keys of all pairs.
    pub fn keys(&self) -> Rdd<K> {
        self.map(|(k, _)| k)
    }

    /// The values of all pairs.
    pub fn values(&self) -> Rdd<V> {
        self.map(|(_, v)| v)
    }

    /// For each key, gather the values from both RDDs.
    #[allow(clippy::type_complexity)]
    pub fn cogroup<W: Data>(
        &self,
        other: &Rdd<(K, W)>,
        num_partitions: usize,
    ) -> Rdd<(K, (Vec<V>, Vec<W>))> {
        let num_partitions = num_partitions.max(1);
        let left = Arc::new(RepartitionShuffleDep {
            lease: self.ctx.new_shuffle(),
            num_buckets: num_partitions,
            parent: self.clone(),
        });
        let right = Arc::new(RepartitionShuffleDep {
            lease: self.ctx.new_shuffle(),
            num_buckets: num_partitions,
            parent: other.clone(),
        });
        let inner = CoGroupedRdd {
            id: self.ctx.next_rdd_id(),
            num_partitions,
            left,
            right,
        };
        Rdd::new(self.ctx.clone(), Arc::new(inner))
    }

    /// Inner equi-join on the key (shuffle join).
    pub fn join<W: Data>(&self, other: &Rdd<(K, W)>, num_partitions: usize) -> Rdd<(K, (V, W))> {
        self.cogroup(other, num_partitions)
            .flat_map(|(k, (vs, ws))| {
                let mut out = Vec::with_capacity(vs.len() * ws.len());
                for v in &vs {
                    for w in &ws {
                        out.push((k.clone(), (v.clone(), w.clone())));
                    }
                }
                out
            })
    }

    /// Count occurrences of each key on the driver.
    pub fn count_by_key(&self) -> Result<HashMap<K, u64>> {
        let counts = self
            .map(|(k, _)| (k, 1u64))
            .reduce_by_key(self.ctx.config().default_partitions, |a, b| a + b)
            .collect()?;
        Ok(counts.into_iter().collect())
    }

    /// Run the map side of a shuffle *now*, without aggregation, and return
    /// a handle exposing its statistics (the PDE hook).
    pub fn pre_shuffle(&self, num_buckets: usize) -> Result<PreShuffledRdd<K, V>> {
        self.pre_shuffle_with("pre_shuffle", num_buckets, |shuffle_id, buckets| {
            scheduler::run_shuffle_map_stage_raw(&self.ctx, self, shuffle_id, buckets)
        })
    }

    /// Like [`Rdd::pre_shuffle`], but combines values map-side with `agg`
    /// first (partial aggregation before the statistics are gathered).
    pub fn pre_shuffle_combined<C: Data>(
        &self,
        num_buckets: usize,
        agg: Aggregator<V, C>,
    ) -> Result<PreShuffledRdd<K, C>> {
        self.pre_shuffle_combined_with(num_buckets, |data| agg.combine(Arc::unwrap_or_clone(data)))
    }

    /// [`Rdd::pre_shuffle_combined`] for pairs that already are a map-side
    /// combine — at most one per key per partition, as a fused partial
    /// aggregate emits them — so they go into their buckets as they are.
    /// It charges and names what `pre_shuffle_combined` does for the same
    /// pairs: the combine it skips would return them unchanged.
    pub fn pre_shuffle_precombined(&self, num_buckets: usize) -> Result<PreShuffledRdd<K, V>> {
        self.pre_shuffle_combined_with(num_buckets, Arc::unwrap_or_clone)
    }

    /// The `pre_shuffle_combined` job with `combine` as its map-side step.
    fn pre_shuffle_combined_with<C: Data>(
        &self,
        num_buckets: usize,
        combine: impl Fn(Arc<Vec<(K, V)>>) -> Vec<(K, C)>,
    ) -> Result<PreShuffledRdd<K, C>> {
        self.pre_shuffle_with(
            "pre_shuffle_combined",
            num_buckets,
            |shuffle_id, buckets| {
                scheduler::run_shuffle_map_stage_combined(
                    &self.ctx, self, shuffle_id, buckets, 0.0, combine,
                )
            },
        )
    }

    /// Mint a shuffle, run its map stage with `run_map_stage(shuffle_id,
    /// num_buckets)` and wrap the materialized map side.
    fn pre_shuffle_with<S: Data>(
        &self,
        name: &str,
        num_buckets: usize,
        run_map_stage: impl FnOnce(usize, usize) -> Result<StageReport>,
    ) -> Result<PreShuffledRdd<K, S>> {
        let num_buckets = num_buckets.max(1);
        let lease = self.ctx.new_shuffle();
        let mut stages = scheduler::ensure_shuffle_deps(&self.ctx, self)?;
        stages.push(run_map_stage(lease.id(), num_buckets)?);
        let summary = self.ctx.shuffle_manager().summary(lease.id())?;
        let sim_seconds = self
            .ctx
            .record_job(&format!("{name}({})", lease.id()), stages, 0.0);
        Ok(PreShuffledRdd {
            ctx: self.ctx.clone(),
            lease,
            num_buckets,
            summary,
            sim_seconds,
            parent_lineage: self.lineage(),
            _marker: PhantomData,
        })
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
    fn group_by_key_collects_values() {
        let ctx = ctx();
        let mut out = word_pairs(&ctx).group_by_key(2).collect().unwrap();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        let a = &out[0];
        assert_eq!(a.0, "a");
        let mut vals = a.1.clone();
        vals.sort();
        assert_eq!(vals, vec![1, 2, 4]);
    }

    #[test]
    fn partition_by_preserves_data_and_co_locates_keys() {
        let ctx = ctx();
        let parted = word_pairs(&ctx).partition_by(4);
        assert_eq!(parted.num_partitions(), 4);
        let mut out = parted.collect().unwrap();
        out.sort();
        assert_eq!(out.len(), 6);
        // All pairs with the same key end up in the same partition: verify by
        // computing each partition and checking key disjointness.
        let (per_part, _) = scheduler::run_job(
            &ctx,
            &parted,
            "inspect",
            shark_cluster::OutputSink::Collect,
            Arc::unwrap_or_clone,
        )
        .unwrap();
        let mut seen: HashMap<String, usize> = HashMap::new();
        for (pi, part) in per_part.iter().enumerate() {
            for (k, _) in part {
                if let Some(prev) = seen.insert(k.clone(), pi) {
                    assert_eq!(prev, pi, "key {k} split across partitions");
                }
            }
        }
    }

    #[test]
    fn join_matches_keys() {
        let ctx = ctx();
        let left = ctx.parallelize(
            vec![
                (1i64, "l1".to_string()),
                (2, "l2".to_string()),
                (3, "l3".to_string()),
            ],
            2,
        );
        let right = ctx.parallelize(vec![(2i64, 20.0f64), (3, 30.0), (3, 33.0), (4, 40.0)], 2);
        let mut joined = left.join(&right, 3).collect().unwrap();
        joined.sort_by_key(|a| (a.0, a.1 .1 as i64));
        assert_eq!(
            joined,
            vec![
                (2, ("l2".to_string(), 20.0)),
                (3, ("l3".to_string(), 30.0)),
                (3, ("l3".to_string(), 33.0)),
            ]
        );
    }

    #[test]
    fn cogroup_includes_unmatched_keys() {
        let ctx = ctx();
        let left = ctx.parallelize(vec![(1i64, 10i64)], 1);
        let right = ctx.parallelize(vec![(2i64, 20i64)], 1);
        let mut out = left.cogroup(&right, 2).collect().unwrap();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], (1, (vec![10], vec![])));
        assert_eq!(out[1], (2, (vec![], vec![20])));
    }

    #[test]
    fn map_values_keys_values() {
        let ctx = ctx();
        let rdd = ctx.parallelize(vec![(1i64, 2i64), (3, 4)], 1);
        assert_eq!(
            rdd.map_values(|v| v * 10).collect().unwrap(),
            vec![(1, 20), (3, 40)]
        );
        assert_eq!(rdd.keys().collect().unwrap(), vec![1, 3]);
        assert_eq!(rdd.values().collect().unwrap(), vec![2, 4]);
    }

    #[test]
    fn count_by_key_counts() {
        let ctx = ctx();
        let counts = word_pairs(&ctx).count_by_key().unwrap();
        assert_eq!(counts.get("a"), Some(&3));
        assert_eq!(counts.get("b"), Some(&2));
        assert_eq!(counts.get("c"), Some(&1));
    }

    #[test]
    fn pre_shuffle_exposes_statistics_and_reads_back() {
        let ctx = ctx();
        let pre = word_pairs(&ctx).pre_shuffle(8).unwrap();
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
            .pre_shuffle(8)
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
        let agg = Aggregator::new(|v: i64| v, |c, v| c + v, |a, b| a + b);
        let pre = word_pairs(&ctx)
            .pre_shuffle_combined(4, agg.clone())
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
        let joined = reduced.join(&source, 2);
        joined.collect().unwrap();
        assert_eq!(ctx.shuffle_manager().registered(), 3, "both cogroup sides");
        drop(joined);
        assert_eq!(ctx.shuffle_manager().registered(), 1);
        drop(reduced);
        assert_eq!(ctx.shuffle_manager().registered(), 0);

        // The PDE handle: a reader keeps the buckets after the handle goes.
        let pre = source.pre_shuffle(4).unwrap();
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
