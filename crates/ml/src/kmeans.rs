//! Distributed k-means clustering (Lloyd's algorithm), the second iterative
//! workload of §6.5 (Figure 12).
//!
//! Each iteration assigns every point to its closest center and sums
//! per-center coordinates — one in-place table per partition, read from
//! the cache without copying it (`combine_by_key_ref`, charged exactly like
//! the `map` + `reduce_by_key` it replaces) — merges the tables across
//! partitions on the reduce side, and recomputes the centers on the driver.
//! As in the paper, the per-point work is heavier than logistic regression
//! (distance to every center), which is why the relative speedup over the
//! Hadoop baseline is smaller.

use shark_common::{Result, SharkError};
use shark_rdd::Rdd;

use crate::linalg::{add_assign, closest_center, scale, squared_distance};
use crate::IterationReport;

/// A trained k-means model.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansModel {
    /// The cluster centers.
    pub centers: Vec<Vec<f64>>,
}

impl KMeansModel {
    /// Index of the cluster a point belongs to.
    pub fn predict(&self, point: &[f64]) -> usize {
        closest_center(point, &self.centers)
    }

    /// Sum of squared distances from each given point to its closest center.
    pub fn cost(&self, points: &[Vec<f64>]) -> f64 {
        points
            .iter()
            .map(|p| squared_distance(p, &self.centers[self.predict(p)]))
            .sum()
    }
}

/// Lloyd's k-means over an RDD of feature vectors.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Number of Lloyd iterations (the paper runs 10).
    pub iterations: usize,
    /// Number of reduce partitions for the per-center aggregation.
    pub reduce_partitions: usize,
}

impl Default for KMeans {
    fn default() -> Self {
        KMeans {
            k: 10,
            iterations: 10,
            reduce_partitions: 8,
        }
    }
}

impl KMeans {
    /// Train on the given points, returning the model and per-iteration
    /// simulated timings.
    pub fn train(&self, points: &Rdd<Vec<f64>>) -> Result<(KMeansModel, IterationReport)> {
        if self.k == 0 {
            return Err(SharkError::Config("k must be positive".into()));
        }
        // Initialize centers from the first k points (deterministic).
        let mut centers: Vec<Vec<f64>> = points.take(self.k)?;
        if centers.is_empty() {
            return Err(SharkError::Execution(
                "cannot run k-means on an empty dataset".into(),
            ));
        }
        while centers.len() < self.k {
            // Fewer distinct points than k: duplicate the last center.
            let last = centers.last().cloned().unwrap();
            centers.push(last);
        }
        let mut report = IterationReport::default();
        let ctx = points.context().clone();

        for _ in 0..self.iterations {
            let before = ctx.simulated_time();
            let current = centers.clone();
            // (center index) -> (coordinate sum, count)
            let totals = points
                .combine_by_key_ref(
                    self.reduce_partitions,
                    move |part| {
                        let mut table: Vec<Option<(Vec<f64>, u64)>> = vec![None; current.len()];
                        for p in part {
                            match &mut table[closest_center(p, &current)] {
                                Some((sum, count)) => {
                                    add_assign(sum, p);
                                    *count += 1;
                                }
                                slot => *slot = Some((p.clone(), 1)),
                            }
                        }
                        table
                            .into_iter()
                            .enumerate()
                            .filter_map(|(c, total)| Some((c as i64, total?)))
                            .collect()
                    },
                    |(sa, ca), (sb, cb)| {
                        add_assign(sa, sb);
                        *ca += cb;
                    },
                )
                .collect()?;
            for (c, (sum, count)) in totals {
                if count > 0 {
                    centers[c as usize] = scale(&sum, 1.0 / count as f64);
                }
            }
            report.iteration_seconds.push(ctx.simulated_time() - before);
        }
        Ok((KMeansModel { centers }, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_rdd::RddContext;

    fn blob_data(n: usize) -> Vec<Vec<f64>> {
        // Three well separated blobs on a line.
        (0..n)
            .map(|i| {
                let c = (i % 3) as f64 * 100.0;
                let jitter = ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
                vec![c + jitter, c - jitter]
            })
            .collect()
    }

    #[test]
    fn finds_well_separated_clusters() {
        let ctx = RddContext::local();
        let points = ctx.parallelize(blob_data(900), 6).cache();
        let km = KMeans {
            k: 3,
            iterations: 10,
            reduce_partitions: 4,
        };
        let (model, report) = km.train(&points).unwrap();
        assert_eq!(report.iterations(), 10);
        assert_eq!(model.centers.len(), 3);
        // Each blob center (0, 100, 200 on the first axis) should be close
        // to some learned center.
        for target in [0.0, 100.0, 200.0] {
            let close = model.centers.iter().any(|c| (c[0] - target).abs() < 5.0);
            assert!(close, "no center near {target}: {:?}", model.centers);
        }
        // Points are assigned consistently.
        let sample = vec![100.2, 99.9];
        let cluster = model.predict(&sample);
        assert!((model.centers[cluster][0] - 100.0).abs() < 5.0);
    }

    #[test]
    fn cost_decreases_with_more_iterations() {
        let ctx = RddContext::local();
        let data = blob_data(300);
        let points = ctx.parallelize(data.clone(), 4).cache();
        let one = KMeans {
            k: 3,
            iterations: 1,
            reduce_partitions: 2,
        };
        let many = KMeans {
            k: 3,
            iterations: 8,
            reduce_partitions: 2,
        };
        let (m1, _) = one.train(&points).unwrap();
        let (m8, _) = many.train(&points).unwrap();
        assert!(m8.cost(&data) <= m1.cost(&data) + 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        let ctx = RddContext::local();
        let points: Rdd<Vec<f64>> = ctx.parallelize(vec![], 2);
        assert!(KMeans::default().train(&points).is_err());
        let some = ctx.parallelize(vec![vec![1.0]], 1);
        let km = KMeans {
            k: 0,
            ..KMeans::default()
        };
        assert!(km.train(&some).is_err());
    }
}
