//! # shark-datagen
//!
//! Deterministic synthetic workload generators reproducing the four datasets
//! of the paper's evaluation (§6):
//!
//! 1. [`pavlo`] — the Pavlo et al. benchmark tables `rankings` and
//!    `uservisits` (selection, aggregation and join queries of §6.2).
//! 2. [`tpch`] — a TPC-H-like subset (`lineitem`, `orders`, `supplier`) used
//!    by the aggregation and join-selection micro-benchmarks (§6.3).
//! 3. [`warehouse`] — a video-analytics session fact table with the natural
//!    time/geography clustering that makes map pruning effective (§6.4,
//!    §3.5).
//! 4. [`ml`] — the synthetic 10-dimensional dataset used for the logistic
//!    regression and k-means experiments (§6.5).
//!
//! All generators are deterministic functions of `(seed, partition)` so that
//! regenerating a partition after a simulated node failure yields identical
//! data — the property lineage-based recovery relies on (§2.2, footnote 2).

#![forbid(unsafe_code)]

pub mod ml;
pub mod pavlo;
pub mod tpch;
pub mod warehouse;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derive a per-partition RNG from a dataset seed and partition index.
/// Deterministic: the same `(seed, partition)` always yields the same stream.
pub fn partition_rng(seed: u64, partition: usize) -> StdRng {
    // SplitMix64-style mixing of the partition into the seed.
    let mut z = seed ^ (partition as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn partition_rng_is_deterministic_and_distinct() {
        let a: Vec<u64> = {
            let mut r = partition_rng(42, 3);
            (0..5).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = partition_rng(42, 3);
            (0..5).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = partition_rng(42, 4);
            (0..5).map(|_| r.gen()).collect()
        };
        assert_ne!(a, c);
    }
}
