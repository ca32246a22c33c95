//! A string-keyed GROUP BY allocates per column, not per group or per map
//! output — counted, not timed.
//!
//! * Map side: one map task's partial aggregate, bucketed into 256 fine
//!   buckets, writes one flat group block whose columns grow by amortized
//!   reallocation, so 5,000 groups allocate less than twice what 500 do. A
//!   key `Row`, a state vector or a boxed key per group makes it allocate
//!   ten times as much.
//! * Reduce side: one reduce task reads P map outputs that all hold the
//!   same 2,000 keys and folds their runs into one block in place, so it
//!   allocates about the same at P = 2 and at P = 16.
//!
//! This binary counts heap allocations (its own `#[global_allocator]`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use shark_columnar::{ColumnBatch, ColumnarPartition};
use shark_common::{DataType, Row, Schema, Value};
use shark_rdd::{MapOutput, RddConfig, RddContext, ShuffleBlock};
use shark_sql::vector::vector_partial_aggregate;
use shark_sql::{AggExpr, AggFunc, BoundExpr, ExecConfig, Kernel, SqlSession, TableMeta};

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

const MAP_ROWS: usize = 20_000;
const REDUCE_KEYS: usize = 2_000;

fn schema() -> Schema {
    Schema::from_pairs(&[("ip", DataType::Str), ("v", DataType::Float)])
}

fn row(key: usize, i: usize) -> Row {
    Row::new(vec![
        Value::str(format!("10.{}.{}", key / 250, key % 250)),
        Value::Float(i as f64 * 0.25),
    ])
}

/// `SELECT ip, COUNT(*), SUM(v) … GROUP BY ip`'s aggregates.
fn aggs() -> Vec<AggExpr> {
    vec![
        AggExpr {
            func: AggFunc::Count,
            arg: None,
        },
        AggExpr {
            func: AggFunc::Sum,
            arg: Some(BoundExpr::Column(1)),
        },
    ]
}

/// Allocations of one map task: the fused partial aggregate of
/// `MAP_ROWS` rows holding `groups` distinct keys, then its bucketing.
fn map_task_allocations(groups: usize) -> u64 {
    let rows: Vec<Row> = (0..MAP_ROWS).map(|i| row(i % groups, i)).collect();
    let partition = ColumnarPartition::from_rows(&schema(), &rows);
    let aggs = aggs();
    let keys = [Kernel::compile(&BoundExpr::Column(0))];
    let args: Vec<Option<Kernel>> = aggs
        .iter()
        .map(|a| a.arg.as_ref().map(Kernel::compile))
        .collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let batch = ColumnBatch::new(&partition, &[0, 1]);
    let block = vector_partial_aggregate(&batch, &keys, &args, &aggs);
    let buckets = (0..block.len()).map(|i| block.bucket(i, 256)).collect();
    let output = MapOutput::group(block, 256, buckets);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(output.stats().total_rows(), groups as u64);
    allocations
}

/// Allocations of one reduce job — a single reduce task over `map_outputs`
/// map outputs, each holding every key once, whose map stage already ran.
fn reduce_allocations(map_outputs: usize) -> u64 {
    let session = SqlSession::new(
        RddContext::new(RddConfig::default()),
        ExecConfig {
            default_reducers: 1,
            ..ExecConfig::shark_static()
        },
    );
    session.register_table(
        TableMeta::new("visits", schema(), map_outputs, |_| {
            (0..REDUCE_KEYS).map(|k| row(k, k)).collect()
        })
        .with_cache(4),
    );
    session.load_table("visits").unwrap();
    let table = session
        .sql_to_rdd("SELECT ip, COUNT(*), SUM(v) FROM visits GROUP BY ip")
        .unwrap();
    assert_eq!(table.rdd.num_partitions(), 1);
    // Warm-up: runs the lazy shuffle's map stage, lazy statics and the
    // context's first-job bookkeeping.
    table.rdd.count().unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let groups = table.rdd.collect().unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(groups.len(), REDUCE_KEYS);
    assert!(groups
        .iter()
        .all(|g| g.get_int(1).unwrap() == map_outputs as i64));
    allocations
}

// One test: the counter is process-wide, so a second test running on
// another thread would count into this one's tasks.
#[test]
fn a_group_by_allocates_per_column_not_per_group_or_map_output() {
    map_task_allocations(500);
    let (few, many) = (map_task_allocations(500), map_task_allocations(5_000));
    assert!(
        (many as f64) < 2.0 * few as f64,
        "one map task, 500 vs 5,000 groups: {few} vs {many} allocations"
    );
    let (two, sixteen) = (reduce_allocations(2), reduce_allocations(16));
    assert!(
        (sixteen as f64) < 1.5 * two as f64,
        "one reduce task, P=2 vs P=16 map outputs: {two} vs {sixteen} allocations"
    );
}
