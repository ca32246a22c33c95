//! Distributed linear regression by batch gradient descent (§4.1 lists it
//! among the algorithms Shark ships with). Like logistic regression, each
//! iteration folds every cached partition in place into one partial
//! gradient.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shark_common::Result;
use shark_rdd::Rdd;

use crate::linalg::{add_assign, dot, weighted_sum};
use crate::IterationReport;

/// A trained linear-regression model (no intercept; append a constant 1.0
/// feature if an intercept is needed).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Learned coefficients.
    pub weights: Vec<f64>,
}

impl LinearModel {
    /// Predict the target for a feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        dot(&self.weights, features)
    }
}

/// Batch-gradient-descent least-squares regression over `(features, target)`
/// pairs.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    /// Number of gradient-descent iterations.
    pub iterations: usize,
    /// Step size.
    pub learning_rate: f64,
    /// Seed for the random initial weights.
    pub seed: u64,
}

impl Default for LinearRegression {
    fn default() -> Self {
        LinearRegression {
            iterations: 20,
            learning_rate: 0.1,
            seed: 17,
        }
    }
}

impl LinearRegression {
    /// Train on the given points, returning the model and per-iteration
    /// simulated timings.
    pub fn train(&self, points: &Rdd<(Vec<f64>, f64)>) -> Result<(LinearModel, IterationReport)> {
        let dims = points.first()?.map(|(f, _)| f.len()).unwrap_or(0);
        let count = points.count()? as f64;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut weights: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>() * 0.01).collect();
        let mut report = IterationReport::default();
        let ctx = points.context().clone();

        for _ in 0..self.iterations {
            let before = ctx.simulated_time();
            let w = weights.clone();
            let gradient = points
                .map_partitions_ref("map", 1.0, move |part| {
                    weighted_sum(part.iter().map(|(x, y)| (x.as_slice(), dot(&w, x) - y)))
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
        Ok((LinearModel { weights }, report))
    }

    /// Mean squared error of a model over the points (summed per partition
    /// in place, then on the driver).
    pub fn mse(model: &LinearModel, points: &Rdd<(Vec<f64>, f64)>) -> Result<f64> {
        let m = model.clone();
        let sum = points
            .map_partitions_ref("map", 1.0, move |part| {
                part.iter()
                    .map(|(x, y)| {
                        let e = m.predict(x) - y;
                        e * e
                    })
                    .reduce(|a, b| a + b)
                    .into_iter()
                    .collect()
            })
            .reduce(|a, b| a + b)?
            .unwrap_or(0.0);
        let n = points.count()? as f64;
        Ok(if n == 0.0 { 0.0 } else { sum / n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_rdd::RddContext;

    #[test]
    fn recovers_known_coefficients() {
        let ctx = RddContext::local();
        let true_w = [2.0, -3.0, 0.5];
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<(Vec<f64>, f64)> = (0..3000)
            .map(|_| {
                let x: Vec<f64> = (0..3).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
                let y = dot(&true_w, &x) + (rng.gen::<f64>() - 0.5) * 0.01;
                (x, y)
            })
            .collect();
        let points = ctx.parallelize(data, 4).cache();
        let lr = LinearRegression {
            iterations: 200,
            learning_rate: 1.0,
            seed: 1,
        };
        let (model, report) = lr.train(&points).unwrap();
        assert_eq!(report.iterations(), 200);
        for (learned, expected) in model.weights.iter().zip(&true_w) {
            assert!(
                (learned - expected).abs() < 0.15,
                "learned {learned} vs {expected}"
            );
        }
        assert!(LinearRegression::mse(&model, &points).unwrap() < 0.05);
    }

    #[test]
    fn empty_input() {
        let ctx = RddContext::local();
        let points: Rdd<(Vec<f64>, f64)> = ctx.parallelize(vec![], 1);
        let (model, _) = LinearRegression::default().train(&points).unwrap();
        assert!(model.weights.is_empty());
    }
}
