//! Partial DAG Execution decisions (§3.1).
//!
//! After the map side of a shuffle runs, the master holds per-bucket size
//! and row-count statistics. This module turns those statistics into the
//! run-time decisions the paper describes:
//!
//! * **join strategy selection** (§3.1.1): broadcast ("map join") the small
//!   side if its materialized size is under a threshold, otherwise perform a
//!   shuffle join;
//! * **reducer-count selection and skew mitigation** (§3.1.2): coalesce many
//!   fine-grained map-output buckets into fewer coarse reduce tasks with a
//!   greedy bin-packing heuristic that equalizes task sizes.

/// The join strategy chosen at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Broadcast the left (first) side to all partitions of the right side.
    BroadcastLeft,
    /// Broadcast the right (second) side to all partitions of the left side.
    BroadcastRight,
    /// Hash-partition both sides and join per reduce partition.
    Shuffle,
}

/// Choose a join strategy from the materialized sizes of both sides
/// (scaled to simulated bytes).
pub fn choose_join_strategy(
    left_bytes: u64,
    right_bytes: u64,
    broadcast_threshold: u64,
) -> JoinStrategy {
    let smaller = left_bytes.min(right_bytes);
    if smaller <= broadcast_threshold {
        if left_bytes <= right_bytes {
            JoinStrategy::BroadcastLeft
        } else {
            JoinStrategy::BroadcastRight
        }
    } else {
        JoinStrategy::Shuffle
    }
}

/// Target (in-process) bytes per coalesced reduce task.
pub const TARGET_PARTITION_BYTES: u64 = 256 * 1024;

/// Upper bound on the number of coalesced reduce tasks.
pub const MAX_REDUCERS: usize = 1000;

/// Greedy bin-packing of fine-grained buckets into coarse reduce partitions:
/// buckets are sorted by decreasing size and each is placed into the
/// currently smallest bin; the number of bins is chosen so the average bin
/// holds roughly `target_bytes`, clamped to `[1, max_partitions]`.
///
/// Returns, for each coarse partition, the list of fine bucket indices it
/// reads — the assignment consumed by
/// [`PreShuffledRdd::read`](shark_rdd::PreShuffledRdd::read).
pub fn coalesce_buckets(
    bucket_bytes: &[u64],
    target_bytes: u64,
    max_partitions: usize,
) -> Vec<Vec<usize>> {
    let n = bucket_bytes.len();
    if n == 0 {
        return vec![vec![]];
    }
    let total: u64 = bucket_bytes.iter().sum();
    let target = target_bytes.max(1);
    let mut bins = (total / target) as usize;
    if !total.is_multiple_of(target) || bins == 0 {
        bins += 1;
    }
    let bins = bins.clamp(1, max_partitions.max(1)).min(n);

    // Sort buckets by decreasing size, then place each in the least-loaded bin.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(bucket_bytes[i]));
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); bins];
    let mut loads: Vec<u64> = vec![0; bins];
    for i in order {
        let (bin, _) = loads
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .expect("at least one bin");
        assignment[bin].push(i);
        loads[bin] += bucket_bytes[i];
    }
    // Keep bucket lists sorted for deterministic reads.
    for bucket_list in &mut assignment {
        bucket_list.sort_unstable();
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_chosen_for_small_side() {
        assert_eq!(
            choose_join_strategy(10, 1 << 30, 1024),
            JoinStrategy::BroadcastLeft
        );
        assert_eq!(
            choose_join_strategy(1 << 30, 10, 1024),
            JoinStrategy::BroadcastRight
        );
        assert_eq!(
            choose_join_strategy(1 << 30, 1 << 30, 1024),
            JoinStrategy::Shuffle
        );
    }

    #[test]
    fn coalesce_covers_every_bucket_exactly_once() {
        let sizes: Vec<u64> = (0..100).map(|i| (i % 7 + 1) * 10).collect();
        let assignment = coalesce_buckets(&sizes, 100, 16);
        let mut seen: Vec<usize> = assignment.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        assert!(assignment.len() <= 16);
    }

    #[test]
    fn coalesce_balances_skewed_buckets() {
        // One huge bucket plus many small ones.
        let mut sizes = vec![1000u64];
        sizes.extend(std::iter::repeat_n(10u64, 99));
        let assignment = coalesce_buckets(&sizes, 500, 4);
        let loads: Vec<u64> = assignment
            .iter()
            .map(|b| b.iter().map(|&i| sizes[i]).sum())
            .collect();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        // The huge bucket dominates one bin; the rest should be spread evenly.
        assert!(max >= 1000);
        assert!(
            min >= 200,
            "small buckets should be spread, loads: {loads:?}"
        );
    }

    #[test]
    fn coalesce_edge_cases() {
        assert_eq!(coalesce_buckets(&[], 100, 4), vec![Vec::<usize>::new()]);
        let one = coalesce_buckets(&[5], 100, 4);
        assert_eq!(one, vec![vec![0]]);
        // max_partitions = 1 merges everything.
        let merged = coalesce_buckets(&[10, 20, 30], 1, 1);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0], vec![0, 1, 2]);
    }

    #[test]
    fn coalesce_empty_bucket_list_yields_one_empty_partition() {
        // Even with extreme knob values, an empty shuffle still produces a
        // single (empty) reduce partition rather than zero partitions.
        for (target, max_parts) in [(1u64, 1usize), (u64::MAX, 1), (1, usize::MAX)] {
            let assignment = coalesce_buckets(&[], target, max_parts);
            assert_eq!(assignment, vec![Vec::<usize>::new()]);
        }
    }

    #[test]
    fn coalesce_all_zero_sizes_still_covers_every_bucket() {
        // All-empty buckets (e.g. a filter that matched nothing): total is
        // 0 bytes, so everything coalesces into a single reduce task, and
        // no bucket is dropped.
        let sizes = [0u64; 32];
        let assignment = coalesce_buckets(&sizes, 1 << 20, 8);
        assert_eq!(assignment.len(), 1);
        let mut seen: Vec<usize> = assignment.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..32).collect::<Vec<_>>());
        // A zero target must not panic either (it is clamped to 1 byte).
        let assignment = coalesce_buckets(&sizes, 0, 8);
        assert_eq!(
            assignment.iter().map(|b| b.len()).sum::<usize>(),
            sizes.len()
        );
    }

    #[test]
    fn coalesce_single_giant_bucket_is_isolated() {
        // One bucket holds virtually all the data; the balancer must give
        // it a bin of its own instead of stacking small buckets behind it.
        let mut sizes = vec![1_000_000u64];
        sizes.extend(std::iter::repeat_n(1u64, 63));
        let assignment = coalesce_buckets(&sizes, 200_000, 8);
        let giant_bin = assignment
            .iter()
            .find(|bin| bin.contains(&0))
            .expect("giant bucket assigned somewhere");
        assert_eq!(
            giant_bin,
            &vec![0],
            "giant bucket shares a bin: {assignment:?}"
        );
        // Everything is still covered exactly once.
        let mut seen: Vec<usize> = assignment.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn coalesce_clamps_to_max_partitions() {
        // The byte target asks for ~100 bins; max_partitions must win.
        let sizes: Vec<u64> = vec![100; 100];
        for max_parts in [1usize, 2, 5, 99] {
            let assignment = coalesce_buckets(&sizes, 100, max_parts);
            assert!(
                assignment.len() <= max_parts,
                "{} bins > max {max_parts}",
                assignment.len()
            );
            assert!(!assignment.iter().any(|b| b.is_empty()));
        }
        // max_partitions = 0 is treated as 1, not a panic.
        let assignment = coalesce_buckets(&sizes, 100, 0);
        assert_eq!(assignment.len(), 1);
        // And never more bins than buckets, however generous the cap.
        let assignment = coalesce_buckets(&[1, 1], 1, 1000);
        assert!(assignment.len() <= 2);
    }
}
