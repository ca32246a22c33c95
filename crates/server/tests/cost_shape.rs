//! A statement costs what it touches — counted, not timed.
//!
//! A map-pruned statement reads the same few partitions whether its table
//! has 24 partitions or 240, and a three-group aggregate shuffles the same
//! three rows per map task whether PDE cuts 8 fine buckets or 256. This
//! binary counts heap allocations per statement (its own
//! `#[global_allocator]`) and asserts those shapes: a per-partition clone,
//! a per-bucket vector or a per-string byte walk on the serving path makes
//! the bigger shape allocate visibly more, on any machine, however noisy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use shark_common::{row, DataType, Schema, Value};
use shark_server::{ServerConfig, SessionHandle, SharkServer};
use shark_sql::{ExecConfig, TableMeta};

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

const REGIONS: usize = 8;
const ROWS_PER_PARTITION: usize = 400;
const BASE_DAY: i32 = 15_000;
const COUNTRIES: [&str; REGIONS] = ["US", "CA", "GB", "DE", "FR", "JP", "BR", "IN"];
const DEVICES: [&str; 3] = ["tv", "phone", "tablet"];

/// A `sessions`-shaped fact table of `days × REGIONS` partitions, clustered
/// like the warehouse workload: partition `p` holds day `p / REGIONS` of
/// one country, so `WHERE day = d` always keeps exactly `REGIONS`
/// partitions. Wide and stringy on purpose — every column carries
/// statistics, and the string columns are what a byte walk would visit.
fn server_with_sessions(days: usize) -> SharkServer {
    let server = SharkServer::new(ServerConfig::default());
    let schema = Schema::from_pairs(&[
        ("session_id", DataType::Int),
        ("day", DataType::Date),
        ("country", DataType::Str),
        ("city", DataType::Str),
        ("device", DataType::Str),
        ("os", DataType::Str),
        ("player_version", DataType::Str),
        ("cdn", DataType::Str),
        ("is_live", DataType::Bool),
        ("buffering_ms", DataType::Int),
        ("startup_ms", DataType::Int),
        ("bitrate_kbps", DataType::Int),
        ("play_seconds", DataType::Int),
        ("rebuffer_count", DataType::Int),
        ("errors", DataType::Int),
        ("quality_score", DataType::Float),
    ]);
    let partitions = days * REGIONS;
    server.register_table(
        TableMeta::new("sessions", schema, partitions, |p| {
            (0..ROWS_PER_PARTITION)
                .map(|i| {
                    let n = p * ROWS_PER_PARTITION + i;
                    row![
                        n as i64,
                        Value::Date(BASE_DAY + (p / REGIONS) as i32),
                        COUNTRIES[p % REGIONS],
                        format!("city-{}", n % 37),
                        DEVICES[i % DEVICES.len()],
                        ["ios", "android", "roku", "web"][n % 4],
                        format!("v{}.{}", n % 3 + 1, n % 10),
                        ["cdn-a", "cdn-b", "cdn-c"][n % 3],
                        n.is_multiple_of(5),
                        (n * 7 % 5_000) as i64,
                        (100 + n * 13 % 3_900) as i64,
                        (300 + n * 31 % 7_700) as i64,
                        (10 + n * 17 % 7_190) as i64,
                        (n % 20) as i64,
                        i64::from(n.is_multiple_of(50)),
                        100.0 - (n % 50) as f64
                    ]
                })
                .collect()
        })
        .with_row_count_hint((partitions * ROWS_PER_PARTITION) as u64)
        .with_cache(4),
    );
    server.load_table("sessions").unwrap();
    server
}

/// Mean allocations per statement over `runs` executions of `sql` (drained
/// through the streaming cursor, like the wire frontend does), after a
/// warm-up that fills the plan cache and lazy statics.
fn allocations_per_statement(session: &SessionHandle, sql: &str, expect_rows: usize) -> f64 {
    let run = || {
        let mut cursor = session.sql_stream(sql).unwrap();
        assert_eq!(cursor.fetch_all().unwrap().len(), expect_rows, "{sql}");
    };
    for _ in 0..20 {
        run();
    }
    let runs = 200;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..runs {
        run();
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / runs as f64
}

fn assert_within_ten_percent(small: f64, big: f64, what: &str) {
    assert!(
        (big - small).abs() < 0.10 * small,
        "{what}: {small:.0} vs {big:.0} allocations per statement"
    );
}

// One test function: the allocation counter is process-wide, and the test
// harness would run two functions on two threads at once.
#[test]
fn allocations_follow_the_data_touched_not_the_table_or_bucket_count() {
    // Same statement, same 8 surviving partitions of 400 rows, 10x the table.
    let by_country = format!(
        "SELECT country, COUNT(*), SUM(play_seconds) FROM sessions \
         WHERE day = {} GROUP BY country",
        BASE_DAY + 1
    );
    let mut per_table = Vec::new();
    for days in [3usize, 30] {
        let server = server_with_sessions(days);
        let session = server.session();
        per_table.push(allocations_per_statement(&session, &by_country, REGIONS));
        let pruned = session.sql(&by_country).unwrap().result.notes.join("; ");
        let skipped = format!("skipped {}/{}", (days - 1) * REGIONS, days * REGIONS);
        assert!(pruned.contains(&skipped), "{pruned}");
    }
    assert_within_ten_percent(per_table[0], per_table[1], "24 vs 240 partitions");

    // Same three groups per map task, 32x the fine buckets.
    let by_device = format!(
        "SELECT device, COUNT(*), AVG(quality_score) FROM sessions \
         WHERE day = {} GROUP BY device",
        BASE_DAY + 1
    );
    let server = server_with_sessions(3);
    let mut per_buckets = Vec::new();
    for fine_buckets in [8usize, 256] {
        let mut session = server.session();
        session.set_exec_config(ExecConfig {
            fine_buckets,
            ..ExecConfig::shark()
        });
        per_buckets.push(allocations_per_statement(
            &session,
            &by_device,
            DEVICES.len(),
        ));
    }
    assert_within_ten_percent(per_buckets[0], per_buckets[1], "8 vs 256 fine buckets");

    // Same ten winners from the same partitions, 10x the rows each: a
    // top-k builds rows for its winners, not for every row it ranks.
    let top_scores = "SELECT id, score FROM scores ORDER BY score DESC LIMIT 10";
    let mut per_rows = Vec::new();
    for rows_per_partition in [400usize, 4_000] {
        let server = server_with_scores(rows_per_partition);
        per_rows.push(allocations_per_statement(&server.session(), top_scores, 10));
    }
    assert!(
        per_rows[1] < 2.0 * per_rows[0],
        "400 vs 4,000 rows per partition: {:.0} vs {:.0} allocations per statement",
        per_rows[0],
        per_rows[1]
    );

    // Same eight groups per partition, 10x the rows each: a GROUP BY on a
    // bare column that is not dictionary-coded (an int, a run-length
    // string) builds a key per group, not per row.
    for sql in [
        "SELECT bucket, COUNT(*), SUM(score) FROM grouped GROUP BY bucket",
        "SELECT tier, COUNT(*), MAX(score) FROM grouped GROUP BY tier",
    ] {
        let mut per_rows = Vec::new();
        for rows_per_partition in [400usize, 4_000] {
            let server = server_with_groups(rows_per_partition);
            per_rows.push(allocations_per_statement(&server.session(), sql, 8));
        }
        assert!(
            per_rows[1] < 2.0 * per_rows[0],
            "{sql}: 400 vs 4,000 rows per partition: {:.0} vs {:.0} allocations per statement",
            per_rows[0],
            per_rows[1]
        );
    }

    // The same eight groups of an expression key over a plain string
    // column (`GROUP BY SUBSTR(sourceIP, 1, 7)`-shaped), 10x the rows each:
    // the filter, the key and the argument are compiled kernels over the
    // batch, so no row builds a `Row`, a `Value` or a string.
    let by_prefix = "SELECT SUBSTR(ip, 1, 4), SUM(score) FROM grouped \
                     WHERE score > 1000 GROUP BY SUBSTR(ip, 1, 4)";
    let mut per_rows = Vec::new();
    for rows_per_partition in [400usize, 4_000] {
        let server = server_with_groups(rows_per_partition);
        per_rows.push(allocations_per_statement(&server.session(), by_prefix, 8));
    }
    assert_within_ten_percent(
        per_rows[0],
        per_rows[1],
        "SUBSTR group key, 400 vs 4,000 rows per partition",
    );
}

/// A `REGIONS`-partition cached table of `rows_per_partition` rows with a
/// pseudorandom integer `score` and a string column beside it.
fn server_with_scores(rows_per_partition: usize) -> SharkServer {
    let server = SharkServer::new(ServerConfig::default());
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("score", DataType::Int),
        ("city", DataType::Str),
    ]);
    server.register_table(
        TableMeta::new("scores", schema, REGIONS, move |p| {
            (0..rows_per_partition)
                .map(|i| {
                    let n = p * rows_per_partition + i;
                    row![
                        n as i64,
                        (n.wrapping_mul(2_654_435_761) % 1_000_003) as i64,
                        format!("city-{}", n % 37)
                    ]
                })
                .collect()
        })
        .with_row_count_hint((REGIONS * rows_per_partition) as u64)
        .with_cache(4),
    );
    server.load_table("scores").unwrap();
    server
}

/// A `REGIONS`-partition cached table of `rows_per_partition` rows with a
/// pseudorandom integer `score` and two eight-valued group columns that are
/// not dictionary-coded: `bucket`, an int cycling row by row, and `tier`, a
/// string in eight runs per partition (run-length encoded). `ip` is a
/// distinct string per row (a plain column) whose first four characters
/// take eight values.
fn server_with_groups(rows_per_partition: usize) -> SharkServer {
    let server = SharkServer::new(ServerConfig::default());
    let schema = Schema::from_pairs(&[
        ("score", DataType::Int),
        ("bucket", DataType::Int),
        ("tier", DataType::Str),
        ("ip", DataType::Str),
    ]);
    let run = rows_per_partition / 8;
    server.register_table(
        TableMeta::new("grouped", schema, REGIONS, move |p| {
            (0..rows_per_partition)
                .map(|i| {
                    let n = p * rows_per_partition + i;
                    row![
                        (n.wrapping_mul(2_654_435_761) % 1_000_003) as i64,
                        (n % 8) as i64,
                        format!("tier-{}", i / run),
                        format!("10.{}.{n}", n % 8)
                    ]
                })
                .collect()
        })
        .with_row_count_hint((REGIONS * rows_per_partition) as u64)
        .with_cache(4),
    );
    server.load_table("grouped").unwrap();
    server
}
