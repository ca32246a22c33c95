//! Byte-equality grid for the vectorized batch execution path: every query
//! shape (filter, projection, group-by, top-k) over every table state
//! (fully cached, partially evicted, RLE/dictionary-heavy) must return
//! byte-identical rows whether it runs through the vectorized kernels or
//! the row-at-a-time fallback, and whether it is fetched blocking or
//! streamed. Every join strategy (broadcast, PDE and static shuffle,
//! co-partitioned) must return the same rows, NULL keys matching nothing.

use shark_common::{row, DataType, Row, Schema, Value};
use shark_server::{ServerConfig, SessionHandle, SharkServer};
use shark_sql::{ExecConfig, TableMeta};

const PARTITIONS: usize = 6;
const ROWS_PER_PARTITION: usize = 80;
const SEED: u64 = 0x5eed_1234_abcd_0042;

/// Deterministic splitmix64 stream — the "seeded" part of the grid: both
/// engines see exactly the same generated table bytes.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("grp", DataType::Str),
        ("amount", DataType::Float),
    ])
}

/// Mixed-distribution table: sequential ints, a small string dictionary
/// with short pseudorandom runs, and a noisy float column.
fn register_mixed(server: &SharkServer, name: &str) {
    server.register_table(
        TableMeta::new(name, schema(), PARTITIONS, |p| {
            let mut rng = SEED ^ (p as u64).wrapping_mul(0xd134_2543_de82_ef95);
            (0..ROWS_PER_PARTITION)
                .map(|i| {
                    let r = splitmix(&mut rng);
                    row![
                        (p * ROWS_PER_PARTITION + i) as i64,
                        ["alpha", "beta", "gamma", "delta"][(r % 4) as usize],
                        (r % 10_000) as f64 / 100.0
                    ]
                })
                .collect()
        })
        .with_cache(PARTITIONS)
        .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
    );
}

/// Run-heavy table: `grp` holds long constant runs (RLE-friendly) over a
/// tiny dictionary, and `k` repeats in plateaus, so run-skipping predicates
/// and dictionary-coded group-by keys actually engage.
fn register_rle(server: &SharkServer, name: &str) {
    server.register_table(
        TableMeta::new(name, schema(), PARTITIONS, |p| {
            (0..ROWS_PER_PARTITION)
                .map(|i| {
                    let global = p * ROWS_PER_PARTITION + i;
                    row![
                        (global / 20) as i64,
                        ["hot", "cold"][(global / 40) % 2],
                        (global / 10) as f64 * 0.25
                    ]
                })
                .collect()
        })
        .with_cache(PARTITIONS)
        .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
    );
}

fn evict_some(server: &SharkServer, table: &str, partitions: &[usize]) {
    let mem = server.catalog().get(table).unwrap().cached.clone().unwrap();
    for &p in partitions {
        mem.evict_partition(p);
    }
}

/// Queries over table `$t` covering the vectorized operator surface:
/// numeric + string filters (conjunctions hit the run-skipping path on RLE
/// data), projections with reordering and expressions, dictionary-keyed
/// group-by with every aggregate kind, top-k in both directions and an
/// ORDER BY expression.
fn grid_queries(table: &str) -> Vec<String> {
    [
        // Filters.
        format!("SELECT k, grp, amount FROM {table} WHERE amount > 50.0"),
        format!("SELECT k, amount FROM {table} WHERE grp = 'beta' AND k < 300"),
        format!("SELECT k FROM {table} WHERE grp = 'hot'"),
        format!("SELECT k FROM {table} WHERE k >= 100 AND k < 140 AND amount > 1.0"),
        // Projections (reorder + all columns).
        format!("SELECT amount, k FROM {table}"),
        format!("SELECT grp, amount, k FROM {table} WHERE k < 250"),
        // Group-by / aggregates.
        format!("SELECT grp, COUNT(*), SUM(amount), MIN(k), MAX(amount) FROM {table} GROUP BY grp"),
        format!("SELECT grp, AVG(amount) FROM {table} WHERE k > 50 GROUP BY grp ORDER BY grp"),
        format!("SELECT COUNT(*), SUM(k) FROM {table}"),
        // Expressions over aggregates and group keys, in SELECT and HAVING.
        format!(
            "SELECT grp, SUM(amount) + 1, ROUND(AVG(amount)) FROM {table} \
             GROUP BY grp HAVING COUNT(*) BETWEEN 2 AND 100000"
        ),
        format!(
            "SELECT UPPER(grp), COUNT(*) * 2 - MIN(k) FROM {table} \
             GROUP BY grp HAVING grp IN ('beta', 'delta', 'hot')"
        ),
        format!(
            "SELECT {table}.grp, MAX(amount) - MIN(amount) AS spread FROM {table} \
             GROUP BY {table}.grp HAVING grp <> 'gamma' ORDER BY spread DESC LIMIT 2"
        ),
        // Top-k.
        format!("SELECT k, amount FROM {table} ORDER BY amount DESC LIMIT 9"),
        format!("SELECT k FROM {table} ORDER BY k LIMIT 5"),
        // ORDER BY an expression, bound and matched to the SELECT item.
        format!(
            "SELECT k, amount * 2 FROM {table} WHERE k < 300 \
             ORDER BY {table}.amount * 2 DESC, k LIMIT 7"
        ),
    ]
    .into_iter()
    .collect()
}

fn fetch_blocking(session: &SessionHandle, query: &str) -> Vec<Row> {
    session.sql(query).unwrap().result.rows
}

fn fetch_streamed(session: &SessionHandle, query: &str) -> Vec<Row> {
    session.sql_stream(query).unwrap().fetch_all().unwrap()
}

/// Compare two result sets byte-for-byte. Bare GROUP BY (no ORDER BY) does
/// not promise an output order, so those queries compare as sorted
/// multisets; everything else compares positionally.
fn assert_same(mut left: Vec<Row>, mut right: Vec<Row>, query: &str, context: &str) {
    let unordered = query.contains("GROUP BY") && !query.contains("ORDER BY");
    if unordered {
        left.sort();
        right.sort();
    }
    assert_eq!(left, right, "{context}: {query}");
}

#[test]
fn vectorized_and_row_paths_are_byte_identical_across_the_grid() {
    let server = SharkServer::new(ServerConfig::default());
    register_mixed(&server, "mixed_full");
    register_mixed(&server, "mixed_cold");
    register_rle(&server, "rle_runs");
    for t in ["mixed_full", "mixed_cold", "rle_runs"] {
        server.load_table(t).unwrap();
    }

    let vectorized = server.session();
    let mut row_path = server.session();
    let mut row_exec = ExecConfig::shark();
    row_exec.vectorized = false;
    row_path.set_exec_config(row_exec);

    for table in ["mixed_full", "mixed_cold", "rle_runs"] {
        for query in grid_queries(table) {
            // Partially-evicted state: knock a stripe out before every run
            // so each engine faults the same partitions back in from
            // lineage mid-query.
            if table == "mixed_cold" {
                evict_some(&server, table, &[1, 3]);
            }
            let reference = fetch_blocking(&row_path, &query);

            if table == "mixed_cold" {
                evict_some(&server, table, &[1, 3]);
            }
            let vec_blocking = fetch_blocking(&vectorized, &query);
            assert_same(
                vec_blocking,
                reference.clone(),
                &query,
                "vectorized blocking vs row",
            );

            if table == "mixed_cold" {
                evict_some(&server, table, &[1, 3]);
            }
            let vec_streamed = fetch_streamed(&vectorized, &query);
            assert_same(
                vec_streamed,
                reference.clone(),
                &query,
                "vectorized streamed vs row",
            );

            if table == "mixed_cold" {
                evict_some(&server, table, &[1, 3]);
            }
            let row_streamed = fetch_streamed(&row_path, &query);
            assert_same(row_streamed, reference, &query, "row streamed vs row");
        }
    }
}

#[test]
fn vectorized_path_actually_ran_fused_scans() {
    // Guard against the grid silently comparing row vs row: the vectorized
    // session's aggregation queries must go through the fused memstore
    // scan, observable in the plan notes.
    let server = SharkServer::new(ServerConfig::default());
    register_rle(&server, "rle_runs");
    server.load_table("rle_runs").unwrap();
    let session = server.session();
    let result = session
        .sql("SELECT grp, COUNT(*), SUM(amount) FROM rle_runs GROUP BY grp")
        .unwrap();
    assert!(
        result.result.notes.iter().any(|n| n.contains("vectorized")),
        "expected a vectorized plan note, got {:?}",
        result.result.notes
    );
}

#[test]
fn expressions_over_aggregates_match_the_plain_aggregates() {
    let server = SharkServer::new(ServerConfig::default());
    register_mixed(&server, "mixed");
    server.load_table("mixed").unwrap();
    let session = server.session();
    let sorted = |query: &str| {
        let mut rows = fetch_blocking(&session, query);
        rows.sort();
        rows
    };
    let plain = sorted("SELECT grp, SUM(amount), COUNT(*) FROM mixed GROUP BY grp");
    let derived = sorted(
        "SELECT grp, SUM(amount) + 1, COUNT(*) * 2 FROM mixed GROUP BY grp HAVING grp <> 'alpha'",
    );
    let expected: Vec<Row> = plain
        .iter()
        .filter(|r| r.get(0).as_str() != Some("alpha"))
        .map(|r| {
            row![
                r.get(0).clone(),
                r.get(1).as_float().unwrap() + 1.0,
                r.get_int(2).unwrap() * 2
            ]
        })
        .collect();
    assert_eq!(plain.len(), 4);
    assert_eq!(derived, expected);
    // `k / 2` divides integers and `k / 2.0` does not: two aggregates, each
    // its own sum (halves of integers add up exactly in a float).
    let halves = sorted("SELECT grp, SUM(k / 2), SUM(k / 2.0) FROM mixed GROUP BY grp");
    let ks = fetch_blocking(&session, "SELECT grp, k FROM mixed");
    let expected: Vec<Row> = plain
        .iter()
        .map(|r| {
            let k = ks
                .iter()
                .filter(|q| q.get(0) == r.get(0))
                .map(|q| q.get_int(1).unwrap());
            let (int_halves, halves) = k.fold((0.0, 0.0), |(a, b), k| {
                (a + (k / 2) as f64, b + k as f64 / 2.0)
            });
            row![r.get(0).clone(), int_halves, halves]
        })
        .collect();
    assert_ne!(expected[0].get(1), expected[0].get(2));
    assert_eq!(halves, expected);
}

/// Rows per partition of the expression table: more distinct `name`s than
/// a dictionary holds, so `name` is a plain string column.
const EXPR_ROWS_PER_PARTITION: usize = 300;

/// Expression-grid table, four partitions: `k` an int with a NULL every
/// 13th row; `name` a plain string column of multi-byte UTF-8 with a NULL
/// every 17th row; `tag` a small multi-byte dictionary with a NULL every
/// 11th row; `day` a date in runs of 20 (run-length) with a NULL every
/// 50th row; `zone` a string in runs of 60; `amount` a float drawn from
/// `-0.0`, `0.0`, NaN, NULL and a few others.
fn register_exprs(server: &SharkServer, name: &str) {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("name", DataType::Str),
        ("tag", DataType::Str),
        ("day", DataType::Date),
        ("zone", DataType::Str),
        ("amount", DataType::Float),
    ]);
    server.register_table(
        TableMeta::new(name, schema, 4, |p| {
            let mut rng = SEED ^ (p as u64).wrapping_mul(0x6a09_e667_f3bc_c909);
            (0..EXPR_ROWS_PER_PARTITION)
                .map(|i| {
                    let r = splitmix(&mut rng);
                    let global = p * EXPR_ROWS_PER_PARTITION + i;
                    let null_every = |n: usize, v: Value| if i % n == 0 { Value::Null } else { v };
                    Row::new(vec![
                        null_every(13, Value::Int(global as i64 - 500)),
                        null_every(17, Value::str(format!("ü{global}-é{}", r % 7))),
                        null_every(
                            11,
                            Value::str(
                                ["ñandú", "crème", "zoë", "plain", "日本"][(r % 5) as usize],
                            ),
                        ),
                        null_every(50, Value::Date(18_000 + (global / 20) as i32)),
                        Value::str(["north", "south", "east", "west"][(global / 60) % 4]),
                        match (r >> 8) % 7 {
                            0 => Value::Float(-0.0),
                            1 => Value::Float(0.0),
                            2 => Value::Float(f64::NAN),
                            3 => Value::Null,
                            4 => Value::Float(-2.5),
                            _ => Value::Float(((r >> 16) % 40) as f64 * 0.5),
                        },
                    ])
                })
                .collect()
        })
        .with_cache(4)
        .with_row_count_hint((4 * EXPR_ROWS_PER_PARTITION) as u64),
    );
}

/// Filters, group keys and aggregate arguments that are expressions, not
/// bare columns: what the compiled kernels evaluate on typed vectors.
fn expression_grid_queries(t: &str) -> Vec<String> {
    vec![
        // SUBSTR: multi-byte, start past the end, zero and negative length.
        format!("SELECT SUBSTR(name, 2, 3), COUNT(*) FROM {t} GROUP BY SUBSTR(name, 2, 3)"),
        format!("SELECT SUBSTR(tag, 2), SUM(amount) FROM {t} GROUP BY SUBSTR(tag, 2)"),
        format!("SELECT SUBSTR(name, 40, 2), COUNT(*) FROM {t} GROUP BY SUBSTR(name, 40, 2)"),
        format!(
            "SELECT k, SUBSTR(name, 1, 0), SUBSTR(tag, 2, -1) FROM {t} \
             WHERE SUBSTR(tag, 1, 1) = 'c' OR SUBSTR(name, 0, 2) = 'ü1'"
        ),
        // Arithmetic in keys and aggregate arguments.
        format!("SELECT k % 7, SUM(amount * 2), COUNT(amount) FROM {t} GROUP BY k % 7"),
        format!(
            "SELECT tag, SUM(k * 3 + 1), MIN(amount), MAX(name) FROM {t} \
             WHERE k % 5 <> 0 GROUP BY tag"
        ),
        format!("SELECT LENGTH(name) + k, COUNT(*) FROM {t} GROUP BY LENGTH(name) + k"),
        // IN / NOT IN over dictionary, plain and run-length columns.
        format!("SELECT k, tag FROM {t} WHERE tag IN ('crème', 'zoë')"),
        format!("SELECT tag, COUNT(*) FROM {t} WHERE tag NOT IN ('crème', '日本') GROUP BY tag"),
        format!("SELECT k FROM {t} WHERE name IN ('ü3-é1', 'ü10-é0', 'ü17-é2', 'x')"),
        format!("SELECT k, amount FROM {t} WHERE amount IN (0.0, -2.5, NULL)"),
        format!("SELECT k FROM {t} WHERE amount NOT IN (1.5, 2.0) AND k < 20"),
        format!(
            "SELECT zone, COUNT(*), SUM(k) FROM {t} WHERE zone IN ('north', 'west') GROUP BY zone"
        ),
        format!("SELECT k FROM {t} WHERE zone NOT IN ('south') AND k IN (1, 2, 3, 100, 400)"),
        // NULL list entries.
        format!("SELECT COUNT(*), SUM(k) FROM {t} WHERE tag NOT IN ('crème', NULL)"),
        format!("SELECT k, tag FROM {t} WHERE tag IN (NULL, 'zoë') OR k IN (NULL, 7)"),
        // BETWEEN: a run-length date column against int literals, NULL bounds.
        format!("SELECT k, day FROM {t} WHERE day BETWEEN 18010 AND 18012"),
        format!("SELECT day, COUNT(*) FROM {t} WHERE day NOT BETWEEN 18005 AND 18050 GROUP BY day"),
        format!("SELECT COUNT(*) FROM {t} WHERE day BETWEEN NULL AND 18012"),
        format!("SELECT k FROM {t} WHERE k NOT BETWEEN 10 AND NULL"),
        format!("SELECT k, amount FROM {t} WHERE amount BETWEEN -1 AND k"),
        // NULL rows, -0.0 / 0.0 and NaN keys.
        format!("SELECT amount, COUNT(*) FROM {t} GROUP BY amount"),
        format!("SELECT amount * 1, COUNT(*), SUM(k) FROM {t} GROUP BY amount * 1"),
        format!("SELECT COUNT(*) FROM {t} WHERE k IS NULL AND tag IS NOT NULL"),
        format!("SELECT UPPER(tag), COUNT(*) FROM {t} GROUP BY UPPER(tag)"),
        format!("SELECT COALESCE(tag, name), COUNT(*) FROM {t} GROUP BY COALESCE(tag, name)"),
        format!("SELECT tag, zone, AVG(amount) FROM {t} WHERE NOT (k < 0) GROUP BY tag, zone"),
        // A UDF, called row by row with its arguments' values.
        format!("SELECT initial(name), SUM(k) FROM {t} WHERE initial(tag) <> 'c' GROUP BY initial(name)"),
    ]
}

/// `initial(s)`: the first character of a string, NULL otherwise.
fn initial(args: &[Value]) -> Value {
    match args
        .first()
        .and_then(|v| v.as_str())
        .and_then(|s| s.chars().next())
    {
        Some(c) => Value::str(c.to_string()),
        None => Value::Null,
    }
}

#[test]
fn expression_grid_is_byte_identical_to_the_row_path() {
    let server = SharkServer::new(ServerConfig::default());
    register_exprs(&server, "exprs");
    server.load_table("exprs").unwrap();
    let mut vectorized = server.session();
    let mut row_path = server.session();
    row_path.set_exec_config(ExecConfig {
        vectorized: false,
        ..ExecConfig::shark()
    });
    vectorized.register_udf("initial", initial);
    row_path.register_udf("initial", initial);
    for query in expression_grid_queries("exprs") {
        let reference = fetch_blocking(&row_path, &query);
        for (rows, context) in [
            (
                fetch_blocking(&vectorized, &query),
                "vectorized blocking vs row",
            ),
            (
                fetch_streamed(&vectorized, &query),
                "vectorized streamed vs row",
            ),
        ] {
            // Rendered, so NaN keys compare too.
            let render = |rows: Vec<Row>| -> Vec<String> {
                let mut rows: Vec<Row> = rows;
                if query.contains("GROUP BY") {
                    rows.sort();
                }
                rows.iter().map(|r| format!("{r:?}")).collect()
            };
            assert_eq!(
                render(rows),
                render(reference.clone()),
                "{context}: {query}"
            );
        }
    }
    // The grid ran through the kernels: plain string, dictionary and
    // run-length columns, all cached.
    let encodings = server
        .catalog()
        .get("exprs")
        .unwrap()
        .cached
        .clone()
        .unwrap();
    let part = encodings.get(0).unwrap();
    let kinds: Vec<_> = (0..part.num_columns()).map(|c| part.encoding(c)).collect();
    use shark_columnar::EncodingKind::*;
    assert_eq!(kinds[1], Plain, "{kinds:?}");
    assert_eq!(kinds[2], Dictionary, "{kinds:?}");
    assert_eq!((kinds[3], kinds[4]), (RunLength, RunLength), "{kinds:?}");
    let queries = expression_grid_queries("exprs");
    let notes = vectorized.sql(&queries[0]).unwrap().result.notes;
    assert!(
        notes.iter().any(|n| n.contains("vectorized: fused")),
        "{notes:?}"
    );
    // The plan names each UDF call the scalar adapter runs.
    let notes = vectorized
        .sql(queries.last().unwrap())
        .unwrap()
        .result
        .notes;
    let adapted: Vec<&String> = notes
        .iter()
        .filter(|n| n.contains("on the scalar adapter"))
        .collect();
    assert_eq!(adapted.len(), 2, "{notes:?}");
    assert!(adapted.iter().all(|n| n.contains("initial(")), "{notes:?}");
}

/// NULL-heavy table for the top-k grid: `k` repeats in plateaus of eight
/// (heavy ties) with a NULL every eleventh row, `grp` is NULL every seventh
/// row, and `amount` draws from a handful of values that include `-0.0`,
/// `0.0` (equal under the sort order) and NULL.
fn register_nulls(server: &SharkServer, name: &str) {
    server.register_table(
        TableMeta::new(name, schema(), PARTITIONS, |p| {
            let mut rng = SEED ^ (p as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
            (0..ROWS_PER_PARTITION)
                .map(|i| {
                    let r = splitmix(&mut rng);
                    let global = p * ROWS_PER_PARTITION + i;
                    let k = if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Int((global / 8) as i64)
                    };
                    let grp = if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::str(["a", "b", "c"][(r % 3) as usize])
                    };
                    let amount = match (r >> 8) % 6 {
                        0 => Value::Float(-0.0),
                        1 => Value::Float(0.0),
                        2 => Value::Float(1.5),
                        3 => Value::Float(-1.5),
                        4 => Value::Null,
                        _ => Value::Float(2.25),
                    };
                    Row::new(vec![k, grp, amount])
                })
                .collect()
        })
        .with_cache(PARTITIONS)
        .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
    );
}

/// ORDER BY … LIMIT shapes around the fused top-k scan's edges: mixed key
/// directions, a string key, an expression projection beside a column key,
/// an expression key (which keeps the row chain), `LIMIT 0`, `k` equal to
/// half a partition (so a partition fills the `2k` buffer exactly), `k`
/// above a partition's row count, and a filter that empties partitions.
fn topk_grid_queries(table: &str) -> Vec<String> {
    let half = ROWS_PER_PARTITION / 2;
    let above = ROWS_PER_PARTITION + 20;
    vec![
        format!("SELECT k, grp, amount FROM {table} ORDER BY amount DESC, grp LIMIT 12"),
        format!("SELECT grp, k FROM {table} ORDER BY grp, k DESC LIMIT 15"),
        format!("SELECT grp, amount FROM {table} ORDER BY grp DESC LIMIT 10"),
        format!("SELECT k * 2, amount FROM {table} ORDER BY amount LIMIT 5"),
        format!("SELECT k * 2 AS d, amount FROM {table} ORDER BY d LIMIT 5"),
        format!("SELECT k FROM {table} ORDER BY k LIMIT 0"),
        format!("SELECT k, amount FROM {table} ORDER BY amount LIMIT {half}"),
        format!("SELECT k, grp FROM {table} ORDER BY k DESC, grp LIMIT {above}"),
        format!(
            "SELECT k, amount FROM {table} WHERE k < 4 OR k >= 400 ORDER BY amount DESC, k LIMIT 6"
        ),
    ]
}

#[test]
fn top_k_shapes_are_byte_identical_across_paths_and_tables() {
    let server = SharkServer::new(ServerConfig::default());
    register_mixed(&server, "mixed_full");
    register_mixed(&server, "mixed_cold");
    register_rle(&server, "rle_runs");
    register_nulls(&server, "nulls_full");
    register_nulls(&server, "nulls_cold");
    let tables = [
        "mixed_full",
        "mixed_cold",
        "rle_runs",
        "nulls_full",
        "nulls_cold",
    ];
    for t in tables {
        server.load_table(t).unwrap();
    }

    let vectorized = server.session();
    let mut row_path = server.session();
    let mut row_exec = ExecConfig::shark();
    row_exec.vectorized = false;
    row_path.set_exec_config(row_exec);

    for table in tables {
        let cold = table.ends_with("_cold");
        for query in topk_grid_queries(table) {
            // Partially evicted: each run faults the same partitions back
            // in from lineage mid-query.
            let evict = || {
                if cold {
                    evict_some(&server, table, &[1, 3]);
                }
            };
            evict();
            let reference = fetch_blocking(&row_path, &query);
            for (session, streamed, context) in [
                (&vectorized, false, "vectorized blocking vs row"),
                (&vectorized, true, "vectorized streamed vs row"),
                (&row_path, true, "row streamed vs row"),
            ] {
                evict();
                let rows = if streamed {
                    fetch_streamed(session, &query)
                } else {
                    fetch_blocking(session, &query)
                };
                assert_same(rows, reference.clone(), &query, context);
            }
        }
    }
}

#[test]
fn top_k_over_a_cached_table_runs_the_fused_scan() {
    // Guard against the top-k grid comparing the row chain with itself:
    // bare-column keys take the fused scan, an expression key does not.
    let server = SharkServer::new(ServerConfig::default());
    register_nulls(&server, "nulls_full");
    server.load_table("nulls_full").unwrap();
    let session = server.session();
    let fused = |sql: &str| {
        let notes = session.sql(sql).unwrap().result.notes;
        notes.iter().any(|n| n.contains("fused scan + top-k"))
    };
    assert!(fused(
        "SELECT k * 2, amount FROM nulls_full ORDER BY amount LIMIT 5"
    ));
    assert!(!fused(
        "SELECT k * 2 AS d, amount FROM nulls_full ORDER BY d LIMIT 5"
    ));
}

/// Pavlo-shaped `uservisits` and `rankings` tables, six partitions each:
/// `sourceIP` takes more distinct values per partition than a dictionary
/// holds (a plain string column, like the benchmark's), and every visit's
/// `destURL` names a ranked page.
fn register_visits(server: &SharkServer) {
    let visits = Schema::from_pairs(&[
        ("sourceIP", DataType::Str),
        ("destURL", DataType::Str),
        ("adRevenue", DataType::Float),
        ("visitDate", DataType::Int),
        ("duration", DataType::Int),
    ]);
    server.register_table(
        TableMeta::new("uservisits", visits, PARTITIONS, |p| {
            let mut rng = SEED ^ (p as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (0..400)
                .map(|_| {
                    let r = splitmix(&mut rng);
                    row![
                        format!("10.{}.{}", r % 40, (r >> 8) % 50),
                        format!("url-{}", (r >> 16) % 300),
                        ((r >> 24) % 10_000) as f64 / 100.0,
                        ((r >> 40) % 30) as i64,
                        ((r >> 48) % 20) as i64
                    ]
                })
                .collect()
        })
        .with_cache(PARTITIONS)
        .with_row_count_hint((PARTITIONS * 400) as u64),
    );
    let rankings = Schema::from_pairs(&[("pageURL", DataType::Str), ("pageRank", DataType::Int)]);
    server.register_table(
        TableMeta::new("rankings", rankings, 2, |p| {
            (0..150)
                .map(|i| {
                    let page = p * 150 + i;
                    row![format!("url-{page}"), (page * 7 % 100) as i64]
                })
                .collect()
        })
        .with_cache(2)
        .with_row_count_hint(300),
    );
    for table in ["uservisits", "rankings"] {
        server.load_table(table).unwrap();
    }
}

#[test]
fn group_by_output_order_is_a_function_of_the_data() {
    // A GROUP BY without ORDER BY promises no order, but the order it
    // returns must not depend on the process: two servers built from the
    // same tables, blocking or streamed, return the groups in one order —
    // on the fused vectorized path and on the row path.
    let queries = [
        "SELECT sourceIP, SUM(adRevenue) FROM uservisits WHERE duration > 3 GROUP BY sourceIP",
        "SELECT sourceIP, AVG(pageRank), SUM(adRevenue) AS totalRevenue \
         FROM rankings R, uservisits UV \
         WHERE R.pageURL = UV.destURL AND UV.visitDate BETWEEN 10 AND 17 \
         GROUP BY UV.sourceIP",
    ];
    let servers = [
        SharkServer::new(ServerConfig::default()),
        SharkServer::new(ServerConfig::default()),
    ];
    for server in &servers {
        register_visits(server);
    }
    for vectorized in [true, false] {
        let sessions: Vec<SessionHandle> = servers
            .iter()
            .map(|server| {
                let mut session = server.session();
                session.set_exec_config(ExecConfig {
                    vectorized,
                    ..ExecConfig::shark()
                });
                session
            })
            .collect();
        for query in queries {
            let reference = fetch_blocking(&sessions[0], query);
            assert!(reference.len() > 500, "{query}: {} groups", reference.len());
            for (s, session) in sessions.iter().enumerate() {
                let context = format!("server {s}, vectorized {vectorized}");
                let blocking = fetch_blocking(session, query);
                assert!(blocking == reference, "{context}, blocking: {query}");
                let streamed = fetch_streamed(session, query);
                assert!(streamed == reference, "{context}, streamed: {query}");
            }
        }
    }
}

#[test]
fn static_join_output_order_is_a_function_of_the_data() {
    // A shuffle join without ORDER BY promises no order either, but two
    // servers built from the same tables return its rows in one order —
    // under static plans and under Hive, whose reduce tasks emit the joined
    // rows in probe order: each left row as fetched, with its matches in
    // the order the right side was fetched.
    let query = "SELECT UV.destURL, UV.sourceIP, R.pageRank, UV.adRevenue \
                 FROM rankings R, uservisits UV WHERE R.pageURL = UV.destURL";
    let servers = [
        SharkServer::new(ServerConfig::default()),
        SharkServer::new(ServerConfig::default()),
    ];
    for server in &servers {
        register_visits(server);
    }
    for exec in [ExecConfig::shark_static(), ExecConfig::hive()] {
        let sessions: Vec<SessionHandle> = servers
            .iter()
            .map(|server| {
                let mut session = server.session();
                session.set_exec_config(exec.clone());
                session
            })
            .collect();
        let reference = sessions[0].sql(query).unwrap().result;
        assert!(
            reference
                .notes
                .iter()
                .any(|n| n.contains("static shuffle join")),
            "{:?}",
            reference.notes
        );
        let keys: std::collections::HashSet<&Value> =
            reference.rows.iter().map(|r| r.get(0)).collect();
        assert!(keys.len() >= 50, "{} join keys", keys.len());
        for (s, session) in sessions.iter().enumerate() {
            let context = format!("server {s}, {:?}", exec.mode);
            assert!(
                fetch_blocking(session, query) == reference.rows,
                "{context}, blocking"
            );
            assert!(
                fetch_streamed(session, query) == reference.rows,
                "{context}, streamed"
            );
        }
    }
}

/// Rows per partition, and partitions, of each join-grid table.
const JOIN_PARTITIONS: usize = 4;
const JOIN_ROWS_PER_PARTITION: usize = 60;

/// One side of the join grid, as whole-table rows `(i, s, v)`: `i` repeats
/// (about five rows per key) and is NULL on every 13th row, `s` is one of
/// seven strings and NULL on every 11th row, `v` an integer payload.
fn join_rows(side: u64) -> Vec<Row> {
    let mut rng = SEED ^ side.wrapping_mul(0xd134_2543_de82_ef95);
    (0..JOIN_PARTITIONS * JOIN_ROWS_PER_PARTITION)
        .map(|n| {
            let r = splitmix(&mut rng);
            let i = if n % 13 == 5 {
                Value::Null
            } else {
                Value::Int((r % 50) as i64)
            };
            let s = if n % 11 == 3 {
                Value::Null
            } else {
                Value::str(
                    ["ant", "bee", "cat", "dog", "eel", "fox", "gnu"][((r >> 8) % 7) as usize],
                )
            };
            Row::new(vec![i, s, Value::Int(((r >> 16) % 100) as i64)])
        })
        .collect()
}

/// The partition a co-partitioned table puts a key in: a hash of the key,
/// with every NULL in partition 0.
fn key_partition(key: &Value, partitions: usize) -> usize {
    match key {
        Value::Null => 0,
        Value::Int(i) => i.rem_euclid(partitions as i64) as usize,
        Value::Str(s) => s.bytes().map(usize::from).sum::<usize>() % partitions,
        other => panic!("no join-grid key of type {other:?}"),
    }
}

/// Register `rows` as table `name` over `partitions` partitions: split in
/// row order, or — with `distribute_by` — really hash-partitioned by that
/// column (see [`key_partition`]) and declared so, co-partitioned with
/// `copartition` when given.
fn register_join_table(
    server: &SharkServer,
    name: &str,
    schema: Schema,
    partitions: usize,
    rows: Vec<Row>,
    distribute_by: Option<&str>,
    copartition: Option<&str>,
) {
    let key = distribute_by.map(|column| schema.resolve(column).unwrap());
    let per_partition = rows.len().div_ceil(partitions);
    let mut meta = TableMeta::new(name, schema, partitions, move |p| match key {
        Some(column) => rows
            .iter()
            .filter(|row| key_partition(row.get(column), partitions) == p)
            .cloned()
            .collect(),
        None => rows
            .chunks(per_partition)
            .nth(p)
            .unwrap_or_default()
            .to_vec(),
    })
    .with_cache(partitions);
    if let Some(column) = distribute_by {
        meta = meta.with_distribute_by(column).unwrap();
    }
    if let Some(other) = copartition {
        meta = meta.with_copartition(other);
    }
    server.register_table(meta);
    server.load_table(name).unwrap();
}

/// The join strategies every join query must agree across: each preset's
/// own choice, PDE forced to a shuffle join, the adaptive PDE join that
/// pre-shuffles both sides, and a co-partitioned join — with the note that
/// shows the strategy ran and whether it reads the co-partitioned tables.
fn join_strategies() -> Vec<(&'static str, ExecConfig, &'static str, bool)> {
    vec![
        ("shark", ExecConfig::shark(), "map join: broadcast", false),
        (
            "pde shuffle",
            ExecConfig {
                broadcast_threshold: 0,
                ..ExecConfig::shark()
            },
            "shuffle join:",
            false,
        ),
        (
            "adaptive",
            ExecConfig {
                pde_prioritize_small_side: false,
                ..ExecConfig::shark()
            },
            "bytes observed)",
            false,
        ),
        (
            "static",
            ExecConfig::shark_static(),
            "static shuffle join",
            false,
        ),
        ("hive", ExecConfig::hive(), "static shuffle join", false),
        (
            "disk",
            ExecConfig::shark_disk(),
            "map join: broadcast",
            false,
        ),
        (
            "co-partitioned",
            ExecConfig::shark(),
            "co-partitioned join",
            true,
        ),
    ]
}

/// Run `query` under every strategy, vectorized and row, blocking and
/// streamed, and return the sorted rows all of them agree on. `tables`
/// names the join's (left, right) tables; a co-partitioned strategy reads
/// `co_tables` instead.
fn run_join_grid(
    server: &SharkServer,
    query: &str,
    tables: (&str, &str),
    co_tables: (&str, &str),
) -> Vec<Row> {
    let mut agreed: Option<Vec<Row>> = None;
    for (strategy, exec, note, copartitioned) in join_strategies() {
        let (left, right) = if copartitioned { co_tables } else { tables };
        let sql = query.replace("{l}", left).replace("{r}", right);
        for vectorized in [true, false] {
            let mut session = server.session();
            session.set_exec_config(ExecConfig {
                vectorized,
                ..exec.clone()
            });
            let context = format!("{strategy}, vectorized {vectorized}: {sql}");
            let blocking = session.sql(&sql).unwrap().result;
            assert!(
                blocking.notes.iter().any(|n| n.contains(note)),
                "{context}: {:?}",
                blocking.notes
            );
            let mut rows = blocking.rows;
            rows.sort();
            let mut streamed = fetch_streamed(&session, &sql);
            streamed.sort();
            assert_eq!(streamed, rows, "{context}, streamed vs blocking");
            match &agreed {
                Some(reference) => assert_eq!(&rows, reference, "{context}"),
                None => agreed = Some(rows),
            }
        }
    }
    agreed.unwrap()
}

#[test]
fn every_join_strategy_returns_the_same_rows() {
    let server = SharkServer::new(ServerConfig::default());
    let left = Schema::from_pairs(&[
        ("i", DataType::Int),
        ("s", DataType::Str),
        ("v", DataType::Int),
    ]);
    let right = Schema::from_pairs(&[
        ("i", DataType::Int),
        ("s", DataType::Str),
        ("w", DataType::Int),
    ]);
    let (l, r) = (join_rows(1), join_rows(2));
    register_join_table(
        &server,
        "jl",
        left.clone(),
        JOIN_PARTITIONS,
        l.clone(),
        None,
        None,
    );
    register_join_table(
        &server,
        "jr",
        right.clone(),
        JOIN_PARTITIONS,
        r.clone(),
        None,
        None,
    );
    for key in ["i", "s"] {
        let (co_l, co_r) = (format!("jl_by_{key}"), format!("jr_by_{key}"));
        register_join_table(
            &server,
            &co_l,
            left.clone(),
            JOIN_PARTITIONS,
            l.clone(),
            Some(key),
            Some(&co_r),
        );
        register_join_table(
            &server,
            &co_r,
            right.clone(),
            JOIN_PARTITIONS,
            r.clone(),
            Some(key),
            None,
        );
    }

    // (join key, query, the rows a nested-loop join over the generated
    // rows returns): duplicate keys on both sides, a string key, NULL keys
    // on both sides throughout, a residual filter, and a join feeding a
    // GROUP BY with integer aggregates.
    let matches = |column: usize| -> Vec<(&Row, &Row)> {
        l.iter()
            .flat_map(|a| r.iter().map(move |b| (a, b)))
            .filter(|(a, b)| !a.get(column).is_null() && a.get(column) == b.get(column))
            .collect()
    };
    let (by_i, by_s) = (matches(0), matches(1));
    let queries: Vec<(&str, &str, usize)> = vec![
        (
            "i",
            "SELECT a.i, a.v, b.w FROM {l} a JOIN {r} b ON a.i = b.i",
            by_i.len(),
        ),
        (
            "s",
            "SELECT a.s, a.v, b.w FROM {l} a JOIN {r} b ON a.s = b.s",
            by_s.len(),
        ),
        (
            "i",
            "SELECT a.i, a.v, b.w FROM {l} a JOIN {r} b ON a.i = b.i WHERE a.v < b.w",
            by_i.iter().filter(|(a, b)| a.get(2) < b.get(2)).count(),
        ),
        (
            "i",
            "SELECT a.i, COUNT(*), SUM(b.w), MIN(a.v), MAX(b.w) FROM {l} a JOIN {r} b \
             ON a.i = b.i GROUP BY a.i",
            by_i.iter()
                .map(|(a, _)| a.get(0))
                .collect::<std::collections::HashSet<_>>()
                .len(),
        ),
    ];
    for (key, query, expected) in queries {
        let (co_l, co_r) = (format!("jl_by_{key}"), format!("jr_by_{key}"));
        let rows = run_join_grid(&server, query, ("jl", "jr"), (&co_l, &co_r));
        assert_eq!(rows.len(), expected, "{query}");
        assert!(rows.iter().all(|row| !row.get(0).is_null()), "{query}");
    }
}

#[test]
fn a_null_join_key_matches_nothing_under_any_strategy() {
    // 4,000 rows a side, keys unique but for 40 NULLs at the same rows of
    // both: SQL's answer is 3,960 rows. Were NULL = NULL a match, it would
    // be 3,960 + 40 × 40 = 5,560 — or, over co-partitioned tables whose
    // NULLs were spread over partitions, whatever met in one partition.
    let server = SharkServer::new(ServerConfig::default());
    let rows = |payload: &str| -> Vec<Row> {
        (0..4_000)
            .map(|n| {
                let key = if n % 100 == 0 {
                    Value::Null
                } else {
                    Value::Int(n as i64)
                };
                Row::new(vec![key, Value::str(format!("{payload}-{n}"))])
            })
            .collect()
    };
    let schema = Schema::from_pairs(&[("i", DataType::Int), ("v", DataType::Str)]);
    for (name, payload) in [("a", "x"), ("b", "y")] {
        register_join_table(&server, name, schema.clone(), 8, rows(payload), None, None);
    }
    register_join_table(
        &server,
        "a_co",
        schema.clone(),
        8,
        rows("x"),
        Some("i"),
        Some("b_co"),
    );
    register_join_table(&server, "b_co", schema, 8, rows("y"), Some("i"), None);
    let joined = run_join_grid(
        &server,
        "SELECT a.i, b.v FROM {l} a JOIN {r} b ON a.i = b.i",
        ("a", "b"),
        ("a_co", "b_co"),
    );
    assert_eq!(joined.len(), 3_960);
    assert!(joined.iter().all(|row| !row.get(0).is_null()));
}
