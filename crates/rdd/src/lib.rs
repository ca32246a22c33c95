//! # shark-rdd
//!
//! Resilient Distributed Datasets — the distributed-memory abstraction Shark
//! builds on (§2.2 of the paper) — implemented over the simulated cluster of
//! [`shark_cluster`].
//!
//! An [`Rdd<T>`] is an immutable, partitioned collection created either from
//! a source (a partition body, or in-memory data) or by applying
//! deterministic operators (`map`, `filter`, `reduce_by_key`,
//! `zip_partitions`, …) to other RDDs.
//! Lineage is tracked per RDD; lost cached partitions are recomputed by
//! re-running the deterministic operators that produced them, which is the
//! fault-tolerance story evaluated in Figure 9.
//!
//! Key pieces:
//!
//! * [`RddContext`] — the counterpart of Spark's `SparkContext`: owns the
//!   shuffle manager, block store, cluster simulator, and cost model;
//!   creates source RDDs and runs jobs.
//! * One leaf RDD, [`RddContext::source`]: a named source with no parent
//!   whose partition body charges its own input to the task's
//!   [`TaskMetrics`] and may name a node per partition. `parallelize` is one
//!   such body, and so is every table scan of the SQL layer.
//! * [`Rdd`] — lazily evaluated transformations plus actions (`collect`,
//!   `count`, `reduce`, …) that trigger job execution. The trait behind it
//!   and the lineage and shuffle-dependency handles the scheduler walks are
//!   internal: every RDD is a leaf, a transformation or a shuffle read
//!   built here.
//! * Shuffles in [`pair`]: one shuffle dependency, whose map tasks each
//!   write one [`ShuffleBlock`] (`(key, value)` pairs, or a block the
//!   caller builds, as SQL's partial aggregate does), read back by one
//!   bucket reader, [`pair::ShuffleReadRdd`], that folds the runs it reads
//!   in place or keeps the pairs. The pair operations (`reduce_by_key`,
//!   `combine_by_key_ref`, `shuffle`) are built on it.
//! * [`pair::Shuffle`] + [`pair::PreShuffled`] — the hooks Partial DAG
//!   Execution uses: materialize the map side of a shuffle, inspect the
//!   per-bucket statistics, then decide the reduce-side plan (join strategy,
//!   reducer count, bucket coalescing).
//! * [`cache::BlockStore`] — the one store of resident partitions (cached
//!   table partitions and cached RDD partitions), with one last-access
//!   clock and a node tag per block so simulated node failures invalidate
//!   the right partitions. Cached partitions are shared `Arc`s:
//!   [`Rdd::compute_shared`] reads one in place, and only a caller that
//!   must own the rows copies it.

#![forbid(unsafe_code)]

pub mod cache;
pub mod context;
pub mod executor;
pub mod metrics;
pub mod pair;
pub mod rdd;
pub mod scheduler;
pub mod shuffle;

pub use cache::{BlockId, BlockStore, Candidate, Owner, Totals};
pub use context::{JobReport, RddConfig, RddContext, StageReport};
pub use executor::Executor;
pub use metrics::TaskMetrics;
pub use pair::{PairShuffle, PreShuffled, PreShuffledRdd, Shuffle};
pub use rdd::{Data, Rdd};
pub use scheduler::PipelinedJob;
pub use shuffle::{
    MapOutput, MapOutputStats, ShuffleBlock, ShuffleManager, ShuffleRead, ShuffleSummary,
};
