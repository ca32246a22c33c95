//! A reducer that merges map outputs in place costs per group, not per
//! pair — counted, not timed.
//!
//! One reduce task reads P map outputs that all hold the same 2,000 string
//! keys. Merging by reference clones a key and its state once, at the key's
//! first appearance, so the task allocates about the same at P = 2 and at
//! P = 16. A copy of every fetched pair makes it allocate P times as many
//! strings. This binary counts heap allocations (its own
//! `#[global_allocator]`) during the reduce job only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use shark_rdd::{Aggregator, RddContext};

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

/// Allocations of one reduce job that merges `map_tasks` map outputs, each
/// holding every key once, into a single reduce task.
fn reduce_allocations(map_tasks: usize) -> u64 {
    let ctx = RddContext::local();
    let pairs: Vec<(String, i64)> = (0..map_tasks)
        .flat_map(|_| (0..KEYS).map(|k| (format!("key-{k:05}"), 1i64)))
        .collect();
    let sum = Aggregator::new(|v: i64| v, |c, v| c + v, |a, b| a + b);
    let pre = ctx
        .parallelize(pairs, map_tasks)
        .pre_shuffle_combined(1, sum)
        .unwrap();
    assert_eq!(pre.summary().num_map_tasks, map_tasks);
    assert_eq!(pre.summary().total_rows, (map_tasks * KEYS) as u64);
    let reduced = pre.read_aggregated(vec![vec![0]], |c: &mut i64, v| *c += *v);
    // Warm-up: lazy statics and the context's first-job bookkeeping.
    reduced.count().unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let groups = reduced.collect().unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(groups.len(), KEYS);
    assert!(groups.iter().all(|(_, total)| *total == map_tasks as i64));
    allocations
}

#[test]
fn a_reduce_task_allocates_per_group_not_per_map_output() {
    let two = reduce_allocations(2);
    let sixteen = reduce_allocations(16);
    assert!(
        (sixteen as f64) < 1.5 * two as f64,
        "P=2 vs P=16 map outputs: {two} vs {sixteen} allocations per reduce job"
    );
}
