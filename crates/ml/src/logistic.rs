//! Distributed logistic regression by batch gradient descent (Listing 1).
//!
//! Each iteration sums every cached data point's gradient contribution and
//! reduces the sums to a single gradient on the driver — the structure of
//! the paper's `logRegress` example. Each partition is read in place and
//! folded into one partial gradient (`map_partitions_ref` + `reduce`): the
//! float operations of a per-point `map` + `reduce(add)`, in the same order,
//! charged the same simulated seconds, without copying the cache or
//! allocating a vector per point. The per-iteration simulated time is
//! recorded so Figure 11 can be regenerated.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shark_common::Result;
use shark_rdd::Rdd;

use crate::linalg::{add_assign, dot, weighted_sum};
use crate::IterationReport;

/// A trained logistic-regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    /// The learned hyperplane.
    pub weights: Vec<f64>,
}

impl LogisticModel {
    /// Probability that `features` belongs to the positive class.
    pub fn predict_probability(&self, features: &[f64]) -> f64 {
        1.0 / (1.0 + (-dot(&self.weights, features)).exp())
    }

    /// Predicted label (+1 / -1).
    pub fn predict(&self, features: &[f64]) -> f64 {
        if self.predict_probability(features) >= 0.5 {
            1.0
        } else {
            -1.0
        }
    }
}

/// Batch-gradient-descent logistic regression over an RDD of
/// `(features, label)` pairs with labels in {+1, -1}.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Number of gradient-descent iterations (the paper runs 10).
    pub iterations: usize,
    /// Gradient-descent step size.
    pub learning_rate: f64,
    /// Seed used for the random initial weights.
    pub seed: u64,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression {
            iterations: 10,
            learning_rate: 0.5,
            seed: 42,
        }
    }
}

impl LogisticRegression {
    /// Train on the given points, returning the model and per-iteration
    /// simulated timings.
    pub fn train(&self, points: &Rdd<(Vec<f64>, f64)>) -> Result<(LogisticModel, IterationReport)> {
        let dims = points.first()?.map(|(f, _)| f.len()).unwrap_or(0);
        let count = points.count()? as f64;
        let mut rng = StdRng::seed_from_u64(self.seed);
        // "var w = Vector(D, _ => 2 * rand.nextDouble - 1)" (Listing 1).
        let mut weights: Vec<f64> = (0..dims).map(|_| 2.0 * rng.gen::<f64>() - 1.0).collect();
        let mut report = IterationReport::default();
        let ctx = points.context().clone();

        for _ in 0..self.iterations {
            let before = ctx.simulated_time();
            let w = weights.clone();
            let gradient = points
                .map_partitions_ref("map", 1.0, move |part| {
                    weighted_sum(part.iter().map(|(x, y)| {
                        let denom = 1.0 + (-y * dot(&w, x)).exp();
                        (x.as_slice(), (1.0 / denom - 1.0) * y)
                    }))
                    .into_iter()
                    .collect()
                })
                .reduce(|mut a, b| {
                    add_assign(&mut a, &b);
                    a
                })?
                .unwrap_or_else(|| vec![0.0; dims]);
            let step = self.learning_rate / count.max(1.0);
            for (wi, gi) in weights.iter_mut().zip(&gradient) {
                *wi -= step * gi;
            }
            report.iteration_seconds.push(ctx.simulated_time() - before);
        }
        Ok((LogisticModel { weights }, report))
    }

    /// Fraction of points the model classifies correctly (counted per
    /// partition in place, summed on the driver).
    pub fn accuracy(model: &LogisticModel, points: &Rdd<(Vec<f64>, f64)>) -> Result<f64> {
        let m = model.clone();
        let correct = points
            .map_partitions_ref("map", 1.0, move |part| {
                part.iter()
                    .map(|(x, y)| u64::from(m.predict(x) == y.signum()))
                    .reduce(|a, b| a + b)
                    .into_iter()
                    .collect()
            })
            .reduce(|a, b| a + b)?
            .unwrap_or(0);
        let total = points.count()?;
        Ok(if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_rdd::RddContext;

    fn separable_points(ctx: &RddContext, n: usize) -> Rdd<(Vec<f64>, f64)> {
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<(Vec<f64>, f64)> = (0..n)
            .map(|_| {
                let label: f64 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let features: Vec<f64> = (0..4)
                    .map(|_| label * 1.0 + (rng.gen::<f64>() - 0.5))
                    .collect();
                (features, label)
            })
            .collect();
        ctx.parallelize(data, 4)
    }

    #[test]
    fn learns_a_separating_hyperplane() {
        let ctx = RddContext::local();
        let points = separable_points(&ctx, 2000).cache();
        let lr = LogisticRegression {
            iterations: 15,
            learning_rate: 1.0,
            seed: 3,
        };
        let (model, report) = lr.train(&points).unwrap();
        assert_eq!(report.iterations(), 15);
        let acc = LogisticRegression::accuracy(&model, &points).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn iteration_times_are_recorded() {
        let ctx = RddContext::local();
        let points = separable_points(&ctx, 200).cache();
        let (_, report) = LogisticRegression::default().train(&points).unwrap();
        assert_eq!(report.iterations(), 10);
        assert!(report.mean_iteration_seconds() >= 0.0);
    }

    #[test]
    fn empty_input_yields_empty_model() {
        let ctx = RddContext::local();
        let points: Rdd<(Vec<f64>, f64)> = ctx.parallelize(vec![], 2);
        let (model, _) = LogisticRegression::default().train(&points).unwrap();
        assert!(model.weights.is_empty());
    }

    #[test]
    fn model_predictions_are_symmetric() {
        let model = LogisticModel {
            weights: vec![1.0, -1.0],
        };
        assert_eq!(model.predict(&[2.0, 0.0]), 1.0);
        assert_eq!(model.predict(&[0.0, 2.0]), -1.0);
        let p = model.predict_probability(&[0.0, 0.0]);
        assert!((p - 0.5).abs() < 1e-12);
    }
}
