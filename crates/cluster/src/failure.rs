//! Failure injection plans.
//!
//! The fault-tolerance experiment (Figure 9) kills one worker while a query
//! is running and measures how quickly Shark reconstructs the lost cached
//! partitions through lineage. [`FailurePlan`] describes *when* and *which*
//! node dies; the RDD scheduler consults it to decide which cached
//! partitions disappear and the cluster simulator uses it to re-run tasks
//! that were in flight on the failed node.

use serde::{Deserialize, Serialize};

/// A plan describing worker-node failures to inject during a job.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FailurePlan {
    /// `(node_id, time_seconds_since_job_start)` pairs.
    failures: Vec<(usize, f64)>,
}

impl FailurePlan {
    /// A plan with no failures.
    pub fn none() -> FailurePlan {
        FailurePlan::default()
    }

    /// Fail a single node at the given simulated time (seconds into the job).
    pub fn single(node: usize, at: f64) -> FailurePlan {
        FailurePlan {
            failures: vec![(node, at)],
        }
    }

    /// Add another failure to the plan.
    pub fn and_then(mut self, node: usize, at: f64) -> FailurePlan {
        self.failures.push((node, at));
        self
    }

    /// All planned failures, sorted by time.
    pub fn failures(&self) -> Vec<(usize, f64)> {
        let mut f = self.failures.clone();
        f.sort_by(|a, b| a.1.total_cmp(&b.1));
        f
    }

    /// Whether the plan contains any failure.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// Nodes that have failed at or before `time`.
    pub fn failed_nodes_by(&self, time: f64) -> Vec<usize> {
        self.failures
            .iter()
            .filter(|(_, t)| *t <= time)
            .map(|(n, _)| *n)
            .collect()
    }

    /// The plan once a clock at `now` is reset to 0: a failure that has
    /// already happened is in force from time 0, a later one keeps its time.
    pub(crate) fn restarted_at(mut self, now: f64) -> FailurePlan {
        for (_, at) in &mut self.failures {
            if *at <= now {
                *at = 0.0;
            }
        }
        self
    }

    /// Whether `node` has failed at or before `time`.
    pub fn is_failed(&self, node: usize, time: f64) -> bool {
        self.failures.iter().any(|(n, t)| *n == node && *t <= time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fails() {
        let p = FailurePlan::none();
        assert!(p.is_empty());
        assert!(!p.is_failed(0, 1e9));
        assert!(p.failed_nodes_by(1e9).is_empty());
    }

    #[test]
    fn single_failure_fires_after_its_time() {
        let p = FailurePlan::single(3, 10.0);
        assert!(!p.is_failed(3, 9.9));
        assert!(p.is_failed(3, 10.0));
        assert!(!p.is_failed(4, 20.0));
    }

    #[test]
    fn failures_sorted_by_time() {
        let p = FailurePlan::single(1, 20.0).and_then(2, 5.0);
        let f = p.failures();
        assert_eq!(f[0], (2, 5.0));
        assert_eq!(f[1], (1, 20.0));
        assert_eq!(p.failed_nodes_by(6.0), vec![2]);
    }
}
