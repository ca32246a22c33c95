//! # shark-ml
//!
//! The machine-learning side of Shark (§4, §6.5): iterative algorithms
//! expressed as RDD `map`/`reduce` pipelines so that they share the engine,
//! the cached data and the lineage-based fault tolerance with SQL queries.
//!
//! Implemented algorithms, matching the paper:
//!
//! * [`logistic::LogisticRegression`] — gradient-descent logistic
//!   regression (Listing 1 / Figure 11),
//! * [`linear::LinearRegression`] — least-squares linear regression via
//!   gradient descent (mentioned in §4.1),
//! * [`kmeans::KMeans`] — Lloyd's k-means (Figure 12).
//!
//! All algorithms operate on plain tuples — `(features, label)` for the
//! supervised models, bare feature vectors for clustering — so any RDD
//! produced by `sql2rdd` plus a feature-extraction `map` can be fed in
//! directly.
//!
//! Every loop reads its input in place. Each iteration folds each (usually
//! cached) partition by reference into one partial result: a partial
//! gradient through `map_partitions_ref` + `reduce`, or a per-center table
//! through `combine_by_key_ref`. So an iteration neither copies the cache
//! nor allocates per point. The folds do the float operations of the
//! per-point `map` + `reduce` they replace, in the same order, and are
//! charged the same simulated seconds. Weights, centers and
//! `iteration_seconds` are therefore bit-identical to the per-point form.

#![forbid(unsafe_code)]

pub mod kmeans;
pub mod linalg;
pub mod linear;
pub mod logistic;

pub use kmeans::KMeans;
pub use linear::LinearRegression;
pub use logistic::LogisticRegression;

/// Per-iteration timing of an iterative training run, used by the Figure 11
/// and Figure 12 experiments.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IterationReport {
    /// Simulated seconds spent in each iteration.
    pub iteration_seconds: Vec<f64>,
}

impl IterationReport {
    /// Average simulated seconds per iteration.
    pub fn mean_iteration_seconds(&self) -> f64 {
        if self.iteration_seconds.is_empty() {
            0.0
        } else {
            self.iteration_seconds.iter().sum::<f64>() / self.iteration_seconds.len() as f64
        }
    }

    /// Number of iterations recorded.
    pub fn iterations(&self) -> usize {
        self.iteration_seconds.len()
    }
}
