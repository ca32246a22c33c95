//! The RDD abstraction: lineage-tracked, immutable, partitioned collections.
//!
//! [`Rdd<T>`] is a cheap handle (an `Arc` to the underlying implementation
//! plus the driver context). Transformations (`map`, `filter`, `flat_map`,
//! `zip_partitions`, …) build new RDDs lazily; actions (`collect`, `count`,
//! `reduce`, …) trigger the scheduler in [`crate::scheduler`], which runs
//! every required shuffle map stage and then the result stage, timing both
//! on the simulated cluster.
//!
//! Wide (shuffle) operations on key/value RDDs live in [`crate::pair`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use shark_cluster::{InputSource, OutputSink};
use shark_common::size::estimate_slice;
use shark_common::{EstimateSize, Result};

use crate::cache::{BlockId, Owner};
use crate::context::RddContext;
use crate::metrics::TaskMetrics;
use crate::scheduler;

/// Marker trait for types that can be RDD elements.
///
/// Blanket-implemented for anything cloneable, thread-safe and size-estimable.
pub trait Data: Clone + Send + Sync + EstimateSize + 'static {}
impl<T: Clone + Send + Sync + EstimateSize + 'static> Data for T {}

/// Type-erased view of an RDD used for lineage traversal by the scheduler.
pub(crate) trait Lineage: Send + Sync {
    /// Unique id of the RDD (only the lineage tests read it).
    #[cfg(test)]
    fn id(&self) -> usize;
    /// Direct parent RDDs (narrow dependencies).
    fn parents(&self) -> Vec<Arc<dyn Lineage>>;
    /// Direct shuffle (wide) dependencies.
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepHandle>>;
}

/// Type-erased handle to a shuffle dependency: knows how to run its map
/// stage and whether its output is already materialized.
pub(crate) trait ShuffleDepHandle: Send + Sync {
    /// The shuffle's id in the shuffle manager.
    fn shuffle_id(&self) -> usize;
    /// Number of reduce-side buckets the map stage produces.
    fn num_buckets(&self) -> usize;
    /// The lineage of the map-side parent RDD.
    fn parent_lineage(&self) -> Arc<dyn Lineage>;
    /// Whether all map output for this shuffle is present.
    fn is_materialized(&self, ctx: &RddContext) -> bool;
    /// Execute the map stage, writing buckets + statistics to the shuffle
    /// manager and timing the stage on the simulated cluster.
    fn run_map_stage(&self, ctx: &RddContext) -> Result<crate::context::StageReport>;
}

/// The implementation trait behind [`Rdd<T>`]: a leaf
/// ([`RddContext::source`]), a narrow transformation or a shuffle read.
pub(crate) trait RddImpl<T: Data>: Send + Sync {
    /// Unique id of the RDD.
    fn id(&self) -> usize;
    /// Descriptive operator name.
    fn name(&self) -> String;
    /// Number of partitions.
    fn num_partitions(&self) -> usize;
    /// Compute one partition, accumulating metrics for the cost model.
    fn compute(
        &self,
        ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<T>>;
    /// Direct narrow parents (for lineage traversal).
    fn parents(&self) -> Vec<Arc<dyn Lineage>>;
    /// Direct shuffle dependencies.
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepHandle>> {
        Vec::new()
    }
}

/// A Resilient Distributed Dataset: an immutable, partitioned, lineage-
/// tracked collection of `T` values.
pub struct Rdd<T: Data> {
    pub(crate) ctx: RddContext,
    pub(crate) inner: Arc<dyn RddImpl<T>>,
    cache_flag: Arc<AtomicBool>,
}

impl<T: Data> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            ctx: self.ctx.clone(),
            inner: self.inner.clone(),
            cache_flag: self.cache_flag.clone(),
        }
    }
}

impl<T: Data> Lineage for Rdd<T> {
    #[cfg(test)]
    fn id(&self) -> usize {
        self.inner.id()
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        self.inner.parents()
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepHandle>> {
        self.inner.shuffle_deps()
    }
}

impl<T: Data> Rdd<T> {
    /// Wrap an implementation into an RDD handle.
    pub(crate) fn new(ctx: RddContext, inner: Arc<dyn RddImpl<T>>) -> Rdd<T> {
        Rdd {
            ctx,
            inner,
            cache_flag: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The driver context this RDD belongs to.
    pub fn context(&self) -> &RddContext {
        &self.ctx
    }

    /// Unique id of this RDD.
    pub fn id(&self) -> usize {
        self.inner.id()
    }

    /// The block one of this RDD's partitions is cached as.
    fn block(&self, partition: usize) -> BlockId {
        BlockId::Rdd {
            rdd: self.id(),
            partition,
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.inner.num_partitions()
    }

    /// Descriptive name of the producing operator.
    pub fn name(&self) -> String {
        self.inner.name()
    }

    /// A type-erased lineage handle for this RDD.
    pub(crate) fn lineage(&self) -> Arc<dyn Lineage> {
        Arc::new(self.clone())
    }

    /// Mark this RDD to be cached in the memstore after its next computation.
    /// Returns a handle sharing the same underlying dataset.
    pub fn cache(&self) -> Rdd<T> {
        self.cache_flag.store(true, Ordering::Relaxed);
        self.clone()
    }

    /// Whether this RDD is marked for caching.
    pub fn is_cached(&self) -> bool {
        self.cache_flag.load(Ordering::Relaxed)
    }

    /// Remove this RDD's partitions from the cache.
    pub fn uncache(&self) {
        self.cache_flag.store(false, Ordering::Relaxed);
        self.ctx.cache().remove_owner(Owner::Rdd(self.id()));
    }

    /// Compute one partition as an owned vector: [`Rdd::compute_shared`],
    /// then the partition itself when nothing else holds it (a freshly
    /// computed, uncached partition — no copy), else a copy. So a cached
    /// partition is copied here exactly when a caller needs to own it;
    /// callers that only read use [`Rdd::compute_shared`].
    pub fn compute_partition(
        &self,
        ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<T>> {
        self.compute_shared(ctx, partition, metrics)
            .map(Arc::unwrap_or_clone)
    }

    /// Compute one partition, shared: the one place the RDD cache is
    /// consulted and filled.
    ///
    /// A hit hands out the cached allocation (a refcount bump) and charges
    /// the rows plus the bytes measured once when the partition was stored.
    /// A miss computes the partition; when this RDD is marked cached, the
    /// very `Arc` returned is what the cache keeps, so caching copies
    /// nothing either.
    ///
    /// When tracing is active and a trace context is installed on the
    /// current thread, each operator's computation records a span named
    /// after the operator (`filter`, `shuffle_read`, `memstore_scan(t)`,
    /// …) tagged with the partition and output rows — the raw material
    /// `EXPLAIN ANALYZE` aggregates. Disabled-mode cost is one atomic
    /// load.
    pub fn compute_shared(
        &self,
        ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Arc<Vec<T>>> {
        if let Some((cached, bytes)) = ctx.cache().get::<Vec<T>>(self.block(partition)) {
            metrics.record_input(cached.len() as u64, bytes, InputSource::CachedRows);
            if shark_obs::active() {
                shark_obs::event(
                    "rdd-cache-hit",
                    &[
                        ("operator", &self.inner.name()),
                        ("partition", &partition.to_string()),
                        ("rows", &cached.len().to_string()),
                    ],
                );
            }
            return Ok(cached);
        }
        let span = if shark_obs::active() {
            shark_obs::span(&self.inner.name())
        } else {
            None
        };
        if let Some(span) = &span {
            span.set_partition(partition);
        }
        let bytes_before = metrics.bytes_in;
        let data = Arc::new(self.inner.compute(ctx, partition, metrics)?);
        if let Some(span) = &span {
            span.set_rows(data.len() as u64);
            span.set_bytes(metrics.bytes_in.saturating_sub(bytes_before));
        }
        drop(span);
        if self.is_cached() {
            let bytes = estimate_slice(&data) as u64;
            let alive = {
                let sim = ctx.state.cluster.lock();
                sim.alive_nodes()
            };
            let node = if alive.is_empty() {
                0
            } else {
                alive[partition % alive.len()]
            };
            let rows = data.len() as u64;
            ctx.cache()
                .put(self.block(partition), data.clone(), node, bytes, rows);
        }
        Ok(data)
    }

    // ----- transformations ----------------------------------------------------

    /// Apply a function to every element.
    pub fn map<U: Data, F>(&self, f: F) -> Rdd<U>
    where
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        self.map_partitions_named("map", 1.0, move |_, part| {
            part.into_iter().map(&f).collect()
        })
    }

    /// Keep only elements satisfying the predicate.
    pub fn filter<F>(&self, f: F) -> Rdd<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        self.map_partitions_named("filter", 1.0, move |_, part| {
            part.into_iter().filter(|x| f(x)).collect()
        })
    }

    /// Apply a function producing zero or more outputs per element.
    pub fn flat_map<U: Data, F>(&self, f: F) -> Rdd<U>
    where
        F: Fn(T) -> Vec<U> + Send + Sync + 'static,
    {
        self.map_partitions_named("flat_map", 1.5, move |_, part| {
            part.into_iter().flat_map(&f).collect()
        })
    }

    /// Apply a function to each whole partition.
    pub fn map_partitions<U: Data, F>(&self, f: F) -> Rdd<U>
    where
        F: Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
    {
        self.map_partitions_named("map_partitions", 1.0, move |_, part| f(part))
    }

    /// Apply a function to each whole partition, receiving the partition index.
    pub fn map_partitions_with_index<U: Data, F>(&self, f: F) -> Rdd<U>
    where
        F: Fn(usize, Vec<T>) -> Vec<U> + Send + Sync + 'static,
    {
        self.map_partitions_named("map_partitions_with_index", 1.0, f)
    }

    /// Internal: named partition-wise transformation charging `ops_per_row`
    /// expression operations per input row. `f` owns its input, so a cached
    /// input partition is copied for it (see [`Rdd::compute_partition`]).
    pub fn map_partitions_named<U: Data, F>(&self, name: &str, ops_per_row: f64, f: F) -> Rdd<U>
    where
        F: Fn(usize, Vec<T>) -> Vec<U> + Send + Sync + 'static,
    {
        self.map_partitions_shared(name, ops_per_row, move |partition, input| {
            f(partition, Arc::unwrap_or_clone(input))
        })
    }

    /// A named partition-wise transformation that reads its input in place:
    /// `f` borrows the shared partition, so a cached input is never copied.
    /// It is the same RDD as [`Rdd::map_partitions_named`] and charges the
    /// same: the input rows and bytes and `ops_per_row` per input row. So
    /// `map_partitions_ref("map", 1.0, ..)` folding each partition to its
    /// partial result, then [`Rdd::reduce`], is charged exactly like
    /// `map(..).reduce(..)`: a result task is priced on the bytes it
    /// returns, which are the same partial, not on rows.
    pub fn map_partitions_ref<U: Data, F>(&self, name: &str, ops_per_row: f64, f: F) -> Rdd<U>
    where
        F: Fn(&[T]) -> Vec<U> + Send + Sync + 'static,
    {
        self.map_partitions_shared(name, ops_per_row, move |_, input| f(&input))
    }

    fn map_partitions_shared<U: Data, F>(&self, name: &str, ops_per_row: f64, f: F) -> Rdd<U>
    where
        F: Fn(usize, Arc<Vec<T>>) -> Vec<U> + Send + Sync + 'static,
    {
        let inner = MapPartitionsRdd {
            id: self.ctx.next_rdd_id(),
            name: name.to_string(),
            parent: self.clone(),
            f: Arc::new(f),
            ops_per_row,
        };
        Rdd::new(self.ctx.clone(), Arc::new(inner))
    }

    /// Combine corresponding partitions of two RDDs with a function, which
    /// may charge the task more than the one op per input row this charges.
    /// Both RDDs must have the same number of partitions. It is the hash
    /// joins' primitive: over co-partitioned tables (§3.4), or over two
    /// shuffle reads with one bucket assignment.
    pub fn zip_partitions<B: Data, U: Data, F>(&self, other: &Rdd<B>, f: F) -> Rdd<U>
    where
        F: Fn(&mut TaskMetrics, Vec<T>, Vec<B>) -> Vec<U> + Send + Sync + 'static,
    {
        assert_eq!(
            self.num_partitions(),
            other.num_partitions(),
            "zip_partitions requires equal partition counts"
        );
        let inner = ZipPartitionsRdd {
            id: self.ctx.next_rdd_id(),
            left: self.clone(),
            right: other.clone(),
            f: Arc::new(f),
        };
        Rdd::new(self.ctx.clone(), Arc::new(inner))
    }

    // ----- actions --------------------------------------------------------------

    /// Gather all elements to the driver, in partition order.
    pub fn collect(&self) -> Result<Vec<T>> {
        let parts = scheduler::run_job(
            &self.ctx,
            self,
            "collect",
            OutputSink::Collect,
            Arc::unwrap_or_clone,
        )?
        .0;
        Ok(parts.into_iter().flatten().collect())
    }

    /// Count the elements (reading each partition in place).
    pub fn count(&self) -> Result<u64> {
        let (counts, _) = scheduler::run_job(&self.ctx, self, "count", OutputSink::None, |v| {
            v.len() as u64
        })?;
        Ok(counts.into_iter().sum())
    }

    /// Reduce all elements with a binary function. Returns `None` for an
    /// empty RDD.
    pub fn reduce<F>(&self, f: F) -> Result<Option<T>>
    where
        F: Fn(T, T) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let task_f = f.clone();
        let (partials, _) =
            scheduler::run_job(&self.ctx, self, "reduce", OutputSink::Collect, move |v| {
                Arc::unwrap_or_clone(v).into_iter().reduce(&*task_f)
            })?;
        Ok(partials.into_iter().flatten().reduce(&*f))
    }

    /// Return up to `n` elements (collects, then truncates — acceptable at
    /// simulation scale).
    pub fn take(&self, n: usize) -> Result<Vec<T>> {
        let mut all = self.collect()?;
        all.truncate(n);
        Ok(all)
    }

    /// The first element, if any.
    pub fn first(&self) -> Result<Option<T>> {
        Ok(self.take(1)?.into_iter().next())
    }
}

// ---------------------------------------------------------------------------
// Narrow RDD implementations
// ---------------------------------------------------------------------------

/// A partition body of a [`SourceRdd`]: builds the partition and charges
/// its own input.
type SourceBody<T> = dyn Fn(usize, &mut TaskMetrics) -> Result<Vec<T>> + Send + Sync;

/// The one leaf RDD: a named source with no parent (see
/// [`RddContext::source`]).
pub(crate) struct SourceRdd<T: Data> {
    pub(crate) id: usize,
    pub(crate) name: String,
    pub(crate) partitions: usize,
    pub(crate) body: Box<SourceBody<T>>,
}

impl<T: Data> RddImpl<T> for SourceRdd<T> {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> String {
        self.name.clone()
    }
    fn num_partitions(&self) -> usize {
        self.partitions
    }
    fn compute(
        &self,
        _ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<T>> {
        (self.body)(partition, metrics)
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        Vec::new()
    }
}

/// Narrow transformation applying a closure to each (shared) partition.
struct MapPartitionsRdd<T: Data, U: Data> {
    id: usize,
    name: String,
    parent: Rdd<T>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(usize, Arc<Vec<T>>) -> Vec<U> + Send + Sync>,
    ops_per_row: f64,
}

impl<T: Data, U: Data> RddImpl<U> for MapPartitionsRdd<T, U> {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> String {
        self.name.clone()
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(
        &self,
        ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<U>> {
        let input = self.parent.compute_shared(ctx, partition, metrics)?;
        metrics.add_ops(input.len() as f64 * self.ops_per_row);
        Ok((self.f)(partition, input))
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        vec![self.parent.lineage()]
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepHandle>> {
        self.parent.shuffle_deps()
    }
}

/// Narrow, partition-wise combination of two RDDs (the hash joins).
struct ZipPartitionsRdd<A: Data, B: Data, U: Data> {
    id: usize,
    left: Rdd<A>,
    right: Rdd<B>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&mut TaskMetrics, Vec<A>, Vec<B>) -> Vec<U> + Send + Sync>,
}

impl<A: Data, B: Data, U: Data> RddImpl<U> for ZipPartitionsRdd<A, B, U> {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> String {
        "zip_partitions".to_string()
    }
    fn num_partitions(&self) -> usize {
        self.left.num_partitions()
    }
    fn compute(
        &self,
        ctx: &RddContext,
        partition: usize,
        metrics: &mut TaskMetrics,
    ) -> Result<Vec<U>> {
        let l = self.left.compute_partition(ctx, partition, metrics)?;
        let r = self.right.compute_partition(ctx, partition, metrics)?;
        metrics.add_ops((l.len() + r.len()) as f64);
        Ok((self.f)(metrics, l, r))
    }
    fn parents(&self) -> Vec<Arc<dyn Lineage>> {
        vec![self.left.lineage(), self.right.lineage()]
    }
    fn shuffle_deps(&self) -> Vec<Arc<dyn ShuffleDepHandle>> {
        let mut deps = self.left.shuffle_deps();
        deps.extend(self.right.shuffle_deps());
        deps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::RddContext;

    fn ctx() -> RddContext {
        RddContext::local()
    }

    #[test]
    fn parallelize_collect_roundtrip() {
        let ctx = ctx();
        let data: Vec<i64> = (0..100).collect();
        let rdd = ctx.parallelize(data.clone(), 7);
        assert_eq!(rdd.num_partitions(), 7);
        assert_eq!(rdd.collect().unwrap(), data);
    }

    #[test]
    fn map_filter_flat_map() {
        let ctx = ctx();
        let rdd = ctx.parallelize((0i64..10).collect(), 3);
        let out = rdd
            .map(|x| x * 2)
            .filter(|x| *x % 4 == 0)
            .flat_map(|x| vec![x, x + 1])
            .collect()
            .unwrap();
        assert_eq!(out, vec![0, 1, 4, 5, 8, 9, 12, 13, 16, 17]);
    }

    #[test]
    fn count_and_reduce() {
        let ctx = ctx();
        let rdd = ctx.parallelize((1i64..=100).collect(), 5);
        assert_eq!(rdd.count().unwrap(), 100);
        assert_eq!(rdd.reduce(|a, b| a + b).unwrap(), Some(5050));
        let empty = ctx.parallelize(Vec::<i64>::new(), 3);
        assert_eq!(empty.reduce(|a, b| a + b).unwrap(), None);
        assert_eq!(empty.count().unwrap(), 0);
    }

    #[test]
    fn take_and_first() {
        let ctx = ctx();
        let rdd = ctx.parallelize((0i64..10).collect(), 4);
        assert_eq!(rdd.take(3).unwrap(), vec![0, 1, 2]);
        assert_eq!(rdd.first().unwrap(), Some(0));
    }

    #[test]
    fn zip_partitions_joins_aligned_data() {
        let ctx = ctx();
        let a = ctx.parallelize((0i64..6).collect(), 3);
        let b = ctx.parallelize((100i64..106).collect(), 3);
        let z = a.zip_partitions(&b, |_, l, r| {
            l.into_iter()
                .zip(r)
                .map(|(x, y)| x + y)
                .collect::<Vec<i64>>()
        });
        assert_eq!(z.collect().unwrap(), vec![100, 102, 104, 106, 108, 110]);
    }

    #[test]
    #[should_panic(expected = "equal partition counts")]
    fn zip_partitions_rejects_mismatched_counts() {
        let ctx = ctx();
        let a = ctx.parallelize((0i64..6).collect(), 3);
        let b = ctx.parallelize((0i64..6).collect(), 2);
        let _ = a.zip_partitions(&b, |_, l, _| l);
    }

    #[test]
    fn caching_avoids_recomputation_and_uncache_restores_it() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ctx = ctx();
        let computed = Arc::new(AtomicUsize::new(0));
        let counter = computed.clone();
        let rdd = ctx
            .dfs_source(4, move |p| {
                counter.fetch_add(1, Ordering::SeqCst);
                vec![p as i64]
            })
            .cache();
        assert!(rdd.is_cached());
        rdd.collect().unwrap();
        assert_eq!(computed.load(Ordering::SeqCst), 4);
        rdd.collect().unwrap();
        // Served from cache: no extra generator invocations.
        assert_eq!(computed.load(Ordering::SeqCst), 4);
        assert_eq!(ctx.cache().cached_partitions(rdd.id()), 4);
        rdd.uncache();
        assert_eq!(ctx.cache().cached_partitions(rdd.id()), 0);
        rdd.collect().unwrap();
        assert_eq!(computed.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn lost_cached_partitions_are_recomputed_from_lineage() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ctx = ctx();
        let computed = Arc::new(AtomicUsize::new(0));
        let counter = computed.clone();
        let rdd = ctx
            .dfs_source(8, move |p| {
                counter.fetch_add(1, Ordering::SeqCst);
                vec![p as i64, p as i64 + 1]
            })
            .cache();
        let full: Vec<i64> = rdd.collect().unwrap();
        assert_eq!(computed.load(Ordering::SeqCst), 8);

        // Kill a node: its cached partitions disappear.
        let lost = ctx.fail_node(1).len();
        assert!(lost > 0, "node 1 should have held cached partitions");

        // Re-running the query recomputes only the lost partitions and
        // produces the same result (lineage-based recovery, §2.3).
        let again: Vec<i64> = rdd.collect().unwrap();
        let mut a = full.clone();
        let mut b = again.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(computed.load(Ordering::SeqCst), 8 + lost);
    }

    #[test]
    fn job_reports_are_recorded() {
        let ctx = ctx();
        let rdd = ctx.parallelize((0i64..50).collect(), 5);
        rdd.map(|x| x + 1).collect().unwrap();
        let report = ctx.last_job().expect("job report");
        assert_eq!(report.name, "collect");
        assert_eq!(report.total_tasks(), 5);
        assert!(report.sim_duration > 0.0);
    }

    #[test]
    fn lineage_exposes_parents() {
        let ctx = ctx();
        let rdd = ctx.parallelize((0i64..10).collect(), 2);
        let mapped = rdd.map(|x| x * 2);
        let lin = mapped.lineage();
        assert_eq!(lin.parents().len(), 1);
        assert_eq!(lin.parents()[0].id(), rdd.id());
        assert!(lin.shuffle_deps().is_empty());
    }
}
