//! A fused, by-reference operator charges exactly what the chain it
//! replaces charges.
//!
//! `map_partitions_ref` folding each partition, then `reduce`, must be priced
//! like `map(..).reduce(..)`, and `combine_by_key_ref` like
//! `map(..).reduce_by_key(..)`: the same rows and bytes in, ops, bytes out,
//! stage names and shuffle ids. Then every task log — and so
//! every simulated second — is bit-identical, whichever way a job is written.
//! The grid runs each pair over a cached parent, an uncached one, one with
//! empty partitions and one behind a shuffle, each side on a fresh context of
//! a straggler-heavy cluster, where any change in the order of the
//! simulator's draws would show too.

use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::Arc;

use shark_cluster::{ClusterConfig, InputSource};
use shark_common::size::estimate_slice;
use shark_rdd::{Rdd, RddContext, TaskMetrics};

fn context() -> RddContext {
    let mut cluster = ClusterConfig::paper_shark_cluster();
    cluster.straggler_probability = 0.25;
    RddContext::with_cluster(cluster)
}

/// The parents every pair runs over.
#[derive(Debug, Clone, Copy)]
enum Parent {
    Uncached,
    Cached,
    EmptyPartitions,
    BehindShuffle,
}

const PARENTS: [Parent; 4] = [
    Parent::Uncached,
    Parent::Cached,
    Parent::EmptyPartitions,
    Parent::BehindShuffle,
];

fn parent(ctx: &RddContext, kind: Parent) -> Rdd<i64> {
    let numbers = || ctx.parallelize((0i64..600).collect(), 6);
    match kind {
        Parent::Uncached => numbers(),
        Parent::Cached => {
            let cached = numbers().cache();
            assert_eq!(cached.count().unwrap(), 600);
            cached
        }
        // Four rows over six partitions: the last two are empty.
        Parent::EmptyPartitions => ctx.parallelize((0i64..4).collect(), 6),
        Parent::BehindShuffle => numbers()
            .map(|x| (x % 7, x))
            .reduce_by_key(5, |a, b| a + b)
            .map(|(_, total)| total),
    }
}

/// Everything the job history says about cost — job and stage names, every
/// task's duration (bits), rows and bytes in, simulated
/// seconds (bits), speculation and reruns — leaving out only wall time.
fn charges(ctx: &RddContext) -> Vec<String> {
    let mut out = Vec::new();
    for job in ctx.job_history() {
        out.push(format!("{}: {:x}", job.name, job.sim_duration.to_bits()));
        for stage in &job.stages {
            let tasks: Vec<u64> = stage.tasks.iter().map(|t| t.duration.to_bits()).collect();
            out.push(format!(
                "  {} {:x}: rows_in {} bytes_in {} speculative {} rerun {} tasks {tasks:?}",
                stage.name,
                stage.sim_duration.to_bits(),
                stage.rows_in,
                stage.bytes_in,
                stage.speculative_copies,
                stage.tasks_rerun,
            ));
        }
    }
    out
}

/// Run `chain` and `fused` over each parent, each on a fresh context, and
/// assert they agree on values, job history and simulated time.
fn assert_charged_alike<V: PartialEq + Debug>(
    case: &str,
    chain: impl Fn(&Rdd<i64>) -> V,
    fused: impl Fn(&Rdd<i64>) -> V,
) {
    for kind in PARENTS {
        let (chain_ctx, fused_ctx) = (context(), context());
        let expected = chain(&parent(&chain_ctx, kind));
        let got = fused(&parent(&fused_ctx, kind));
        assert_eq!(got, expected, "{case} over {kind:?}: values");
        assert_eq!(
            charges(&fused_ctx),
            charges(&chain_ctx),
            "{case} over {kind:?}: job history"
        );
        assert_eq!(
            fused_ctx.simulated_time().to_bits(),
            chain_ctx.simulated_time().to_bits(),
            "{case} over {kind:?}: simulated time"
        );
    }
}

#[test]
fn map_partitions_ref_then_reduce_is_charged_like_map_then_reduce() {
    assert_charged_alike(
        "map_partitions_ref + reduce",
        |rdd| rdd.map(|x| x * 3).reduce(|a, b| a + b).unwrap(),
        |rdd| {
            rdd.map_partitions_ref("map", 1.0, |part| {
                part.iter()
                    .map(|x| x * 3)
                    .reduce(|a, b| a + b)
                    .into_iter()
                    .collect()
            })
            .reduce(|a, b| a + b)
            .unwrap()
        },
    );
}

#[test]
fn combine_by_key_ref_is_charged_like_map_then_combine_by_key() {
    let sorted = |mut pairs: Vec<(i64, (i64, u64))>| {
        pairs.sort_unstable();
        pairs
    };
    assert_charged_alike(
        "combine_by_key_ref",
        |rdd| {
            sorted(
                rdd.map(|x| (x % 4, (x, 1u64)))
                    .reduce_by_key(3, |(s1, n1), (s2, n2)| (s1 + s2, n1 + n2))
                    .collect()
                    .unwrap(),
            )
        },
        |rdd| {
            let folded = rdd.combine_by_key_ref(
                3,
                |part| {
                    let mut table: HashMap<i64, (i64, u64)> = HashMap::new();
                    for x in part {
                        let (sum, n) = table.entry(x % 4).or_default();
                        *sum += x;
                        *n += 1;
                    }
                    table.into_iter().collect()
                },
                |(s1, n1), (s2, n2)| {
                    *s1 += s2;
                    *n1 += n2;
                },
            );
            sorted(folded.collect().unwrap())
        },
    );
}

#[test]
fn a_cache_hit_shares_the_cached_partition_and_charges_its_stored_bytes() {
    let ctx = RddContext::local();
    let points: Vec<(i64, Vec<f64>)> = (0..100).map(|i| (i, vec![i as f64; 3])).collect();
    let rdd = ctx.parallelize(points, 4).cache();
    // The miss computes the partition and caches the very allocation it
    // returns.
    let stored = rdd
        .compute_shared(&ctx, 1, &mut TaskMetrics::new())
        .unwrap();
    let mut first = TaskMetrics::new();
    let hit = rdd.compute_shared(&ctx, 1, &mut first).unwrap();
    let mut second = TaskMetrics::new();
    let again = rdd.compute_shared(&ctx, 1, &mut second).unwrap();
    assert!(Arc::ptr_eq(&stored, &hit));
    assert!(Arc::ptr_eq(&hit, &again));
    // A hit charges the partition's rows and the bytes measured when it was
    // stored — which are its size.
    assert_eq!(first.rows_in, hit.len() as u64);
    assert_eq!(first.bytes_in, estimate_slice(&hit) as u64);
    assert_eq!(first.input_source, InputSource::CachedRows);
    assert_eq!(second, first);
    // An owner gets its own copy; the cached partition stays shared.
    let owned = rdd
        .compute_partition(&ctx, 1, &mut TaskMetrics::new())
        .unwrap();
    assert_eq!(owned, *hit);
    assert_ne!(owned.as_ptr(), hit.as_ptr());
    // Uncached, every computation is a fresh allocation nobody else holds,
    // so taking ownership of it copies nothing.
    let uncached = ctx.parallelize((0i64..8).collect(), 2);
    let fresh = uncached
        .compute_shared(&ctx, 0, &mut TaskMetrics::new())
        .unwrap();
    assert_eq!(Arc::strong_count(&fresh), 1);
}
