//! A reducer that merges map outputs in place costs per group, not per
//! pair — counted, not timed.
//!
//! One reduce task reads P map outputs that all hold the same 2,000 string
//! keys. Merging by reference clones a key and its state once, at the key's
//! first appearance, so the task allocates about the same at P = 2 and at
//! P = 16. A copy of every fetched pair makes it allocate P times as many
//! strings. That holds for a PDE read of a block shuffle with a bucket
//! list, whose reducer folds the runs it reads in place, and for the lazy
//! `combine_by_key_ref` and `reduce_by_key`. This binary counts heap
//! allocations (its own `#[global_allocator]`) during the reduce job only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use shark_common::hash::GroupTable;
use shark_rdd::{Rdd, RddContext, ShuffleRead};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is a
// side effect that touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const KEYS: usize = 2_000;

/// `map_tasks` partitions, each holding every key once.
fn keyed(ctx: &RddContext, map_tasks: usize) -> Rdd<(String, i64)> {
    let pairs: Vec<(String, i64)> = (0..map_tasks)
        .flat_map(|_| (0..KEYS).map(|k| (format!("key-{k:05}"), 1i64)))
        .collect();
    ctx.parallelize(pairs, map_tasks)
}

/// Allocations of one job of `reduced` — a single reduce task over
/// `map_tasks` map outputs whose map stage has already run.
fn reduce_allocations(reduced: Rdd<(String, i64)>, map_tasks: usize) -> u64 {
    assert_eq!(reduced.num_partitions(), 1);
    // Warm-up: runs a lazy shuffle's map stage, lazy statics and the
    // context's first-job bookkeeping.
    reduced.count().unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let groups = reduced.collect().unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(groups.len(), KEYS);
    assert!(groups.iter().all(|(_, total)| *total == map_tasks as i64));
    allocations
}

/// Assert that a reduce task over 16 map outputs allocates less than 1.5×
/// what one over 2 does.
fn assert_per_group(reader: &str, reduced: impl Fn(usize) -> Rdd<(String, i64)>) {
    let two = reduce_allocations(reduced(2), 2);
    let sixteen = reduce_allocations(reduced(16), 16);
    assert!(
        (sixteen as f64) < 1.5 * two as f64,
        "{reader}, P=2 vs P=16 map outputs: {two} vs {sixteen} allocations per reduce job"
    );
}

// One test: the counter is process-wide, so a second test running on
// another thread would count into this one's jobs.
#[test]
fn a_reduce_task_allocates_per_group_not_per_map_output() {
    assert_per_group("pre-shuffled block", |map_tasks| {
        let pre = keyed(&RddContext::local(), map_tasks)
            .shuffle_block(1, 0.0, |part: &[(String, i64)]| part.to_vec())
            .run()
            .unwrap();
        assert_eq!(pre.summary().num_map_tasks, map_tasks);
        assert_eq!(pre.summary().total_rows, (map_tasks * KEYS) as u64);
        pre.reduce(vec![vec![0]], |read: &ShuffleRead<Vec<(String, i64)>>| {
            let mut groups = GroupTable::default();
            for (block, records) in read.runs() {
                for (key, n) in &block[records] {
                    groups.fold_ref(key, |total| *total += n, || (key.clone(), *n));
                }
            }
            groups.into_vec()
        })
    });
    assert_per_group("combine_by_key_ref", |map_tasks| {
        keyed(&RddContext::local(), map_tasks).combine_by_key_ref(
            1,
            |part| part.to_vec(),
            |c, v| *c += *v,
        )
    });
    assert_per_group("reduce_by_key", |map_tasks| {
        keyed(&RddContext::local(), map_tasks).reduce_by_key(1, |a, b| a + b)
    });
}
