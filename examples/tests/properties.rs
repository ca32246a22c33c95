//! Randomized property tests over the core data structures and invariants:
//! columnar round-trips, partitioner determinism, SQL/RDD aggregation
//! equivalence, PDE bin-packing coverage, and value-ordering laws.
//!
//! Each property runs against 64 seeded cases of the shared harness
//! (`harness::check`); every failure message carries the seed needed to
//! replay it.

mod harness;

use harness::check;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shark_columnar::ColumnarPartition;
use shark_common::hash::hash_partition;
use shark_common::{DataType, Row, Schema, Value};
use shark_rdd::RddContext;
use shark_sql::coalesce_buckets;

const CASES: u64 = 64;

fn arb_string(rng: &mut StdRng, alphabet: &[u8], max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

fn arb_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6u32) {
        0 => Value::Null,
        1 => Value::Int(rng.gen()),
        2 => Value::Float(rng.gen_range(-1e12f64..1e12)),
        3 => Value::Bool(rng.gen()),
        4 => Value::Date(rng.gen_range(-30000i32..30000)),
        _ => Value::str(arb_string(
            rng,
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ",
            12,
        )),
    }
}

#[test]
fn columnar_roundtrip_preserves_rows() {
    check("columnar_roundtrip", CASES, |rng| {
        let n = rng.gen_range(1..200usize);
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]);
        let rows: Vec<Row> = (0..n)
            .map(|_| {
                Row::new(vec![
                    Value::Int(rng.gen_range(-1000i64..1000)),
                    Value::str(arb_string(rng, b"abcdefghijklmnopqrstuvwxyz", 6)),
                ])
            })
            .collect();
        let part = ColumnarPartition::from_rows(&schema, &rows);
        assert_eq!(part.to_rows(), rows);
        assert!(part.memory_bytes() > 0);
    });
}

#[test]
fn value_ordering_is_total_and_consistent_with_hashing() {
    check("value_ordering", CASES, |rng| {
        use std::cmp::Ordering;
        let a = arb_value(rng);
        let b = arb_value(rng);
        // Antisymmetry of the total ordering.
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        assert_eq!(ab, ba.reverse(), "a={a:?} b={b:?}");
        // Equal values hash identically.
        if ab == Ordering::Equal {
            assert_eq!(
                shark_common::hash::fx_hash(&a),
                shark_common::hash::fx_hash(&b),
                "a={a:?} b={b:?}"
            );
        }
    });
}

#[test]
fn hash_partitioning_is_deterministic_and_in_range() {
    check("hash_partitioning", CASES, |rng| {
        let parts = rng.gen_range(1..64usize);
        for _ in 0..rng.gen_range(1..500usize) {
            let k: i64 = rng.gen();
            let p1 = hash_partition(&k, parts);
            let p2 = hash_partition(&k, parts);
            assert_eq!(p1, p2);
            assert!(p1 < parts);
        }
    });
}

#[test]
fn coalesce_assignment_is_a_partition_of_all_buckets() {
    check("coalesce_partition", CASES, |rng| {
        let n = rng.gen_range(1..300usize);
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..100_000)).collect();
        let target = rng.gen_range(1u64..1_000_000);
        let max_parts = rng.gen_range(1..64usize);
        let assignment = coalesce_buckets(&sizes, target, max_parts);
        let mut seen: Vec<usize> = assignment.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..sizes.len()).collect();
        assert_eq!(seen, expected);
        assert!(assignment.len() <= max_parts.max(1));
    });
}

#[test]
fn rdd_reduce_by_key_matches_sequential_group_sum() {
    check("reduce_by_key", CASES, |rng| {
        let n = rng.gen_range(1..400usize);
        let values: Vec<(i64, i64)> = (0..n)
            .map(|_| (rng.gen_range(0i64..20), rng.gen_range(-100i64..100)))
            .collect();
        let partitions = rng.gen_range(1..8usize);
        let ctx = RddContext::local();
        let rdd = ctx.parallelize(values.clone(), partitions);
        let mut distributed = rdd.reduce_by_key(4, |a, b| a + b).collect().unwrap();
        distributed.sort();
        let mut expected: std::collections::BTreeMap<i64, i64> = Default::default();
        for (k, v) in values {
            *expected.entry(k).or_insert(0) += v;
        }
        let expected: Vec<(i64, i64)> = expected.into_iter().collect();
        assert_eq!(distributed, expected);
    });
}

#[test]
fn sql_count_matches_generated_row_count() {
    // The full SQL stack is slower per case, so sample fewer cases.
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE + seed);
        let rows_per_partition = rng.gen_range(1..50usize);
        let partitions = rng.gen_range(1..6usize);
        let shark = shark_core::SharkContext::local();
        shark.register_table(shark_sql::TableMeta::new(
            "t",
            Schema::from_pairs(&[("x", DataType::Int)]),
            partitions,
            move |p| {
                (0..rows_per_partition)
                    .map(|i| Row::new(vec![Value::Int((p * 1000 + i) as i64)]))
                    .collect()
            },
        ));
        let r = shark.sql("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(
            r.rows[0].get_int(0).unwrap(),
            (rows_per_partition * partitions) as i64,
            "seed {seed}"
        );
    }
}
