//! An ML iteration over cached points costs per partition, not per point —
//! counted, not timed.
//!
//! Logistic and linear regression fold one partial gradient per partition,
//! and k-means one per-center table per partition, reading the cached
//! points in place. So an iteration allocates about the same whether a
//! partition holds 400 points or 800. A copy of the cached partition, or a
//! fresh vector per point for a scaled gradient or a per-center sum, makes
//! the bigger dataset allocate visibly more, on any machine. This binary
//! counts heap allocations (its own `#[global_allocator]`) per iteration at
//! 12.8k and at 25.6k points in 32 partitions and asserts they agree.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shark_ml::{KMeans, LinearRegression, LogisticRegression};
use shark_rdd::{Rdd, RddContext};

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

const PARTITIONS: usize = 32;
const DIMS: usize = 10;
const SMALL: usize = 12_800;
const LARGE: usize = 2 * SMALL;

/// `n` labelled points in two noisy clusters, cached (and computed once)
/// in [`PARTITIONS`] partitions.
fn cached_points(ctx: &RddContext, n: usize) -> Rdd<(Vec<f64>, f64)> {
    let mut rng = StdRng::seed_from_u64(7);
    let data: Vec<(Vec<f64>, f64)> = (0..n)
        .map(|_| {
            let label: f64 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let features = (0..DIMS).map(|_| label + rng.gen::<f64>() - 0.5).collect();
            (features, label)
        })
        .collect();
    let points = ctx.parallelize(data, PARTITIONS).cache();
    assert_eq!(points.count().unwrap(), n as u64);
    points
}

/// Allocations per iteration of `train(iterations)`: the difference
/// between a 6- and a 2-iteration run, so the set-up jobs every run does
/// once (`first`, `count`, `take`) cancel out.
fn per_iteration(train: impl Fn(usize)) -> f64 {
    train(1);
    let count = |iterations| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        train(iterations);
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    let short = count(2);
    let long = count(6);
    (long - short) as f64 / 4.0
}

/// Allocations per iteration of each model over `n` cached points.
fn allocations(n: usize) -> [(&'static str, f64); 3] {
    let ctx = RddContext::local();
    let labeled = cached_points(&ctx, n);
    let features = labeled.map(|(f, _)| f).cache();
    assert_eq!(features.count().unwrap(), n as u64);
    [
        (
            "logistic",
            per_iteration(|iterations| {
                LogisticRegression {
                    iterations,
                    ..LogisticRegression::default()
                }
                .train(&labeled)
                .unwrap();
            }),
        ),
        (
            "linear",
            per_iteration(|iterations| {
                LinearRegression {
                    iterations,
                    ..LinearRegression::default()
                }
                .train(&labeled)
                .unwrap();
            }),
        ),
        (
            "kmeans",
            per_iteration(|iterations| {
                KMeans {
                    k: 10,
                    iterations,
                    reduce_partitions: 8,
                }
                .train(&features)
                .unwrap();
            }),
        ),
    ]
}

// One test: the counter is process-wide, so concurrent tests would count
// each other's allocations.
#[test]
fn an_iteration_allocates_per_partition_not_per_point() {
    let small = allocations(SMALL);
    let large = allocations(LARGE);
    let shapes: Vec<String> = small
        .iter()
        .zip(&large)
        .map(|((model, at_small), (_, at_large))| {
            format!("{model}: {at_small} allocations per iteration at {SMALL} points, {at_large} at {LARGE}")
        })
        .collect();
    println!("{}", shapes.join("\n"));
    for (((_, at_small), (_, at_large)), shape) in small.iter().zip(&large).zip(&shapes) {
        assert!(
            (0.9..=1.1).contains(&(at_large / at_small)),
            "{shape}: something allocates per point"
        );
    }
}
