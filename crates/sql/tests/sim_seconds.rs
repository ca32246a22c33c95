//! One rule for simulated seconds: a statement's `sim_seconds` is the sum of
//! the jobs and fixed charges *it* caused — the same number whether the
//! result is collected or streamed, at any prefetch depth, and equal to what
//! `job_history()` recorded for it.

use shark_common::{row, DataType, Row, Schema, Value};
use shark_rdd::{JobReport, RddConfig, RddContext};
use shark_sql::{ExecConfig, SqlSession, TableMeta};

const PARTITIONS: usize = 16;
const ROWS_PER_PARTITION: usize = 120;
const PREFETCH_DEPTHS: [usize; 4] = [0, 1, 2, 8];

/// splitmix64: the table's contents are a pure function of the row id.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh context (straggler-free 4×2 cluster) with a 16-partition cached
/// fact table — `ts` grows with the partition index, so partition statistics
/// can order a top-k — and a small dimension table, both loaded.
fn session(exec: ExecConfig, prefetch: usize) -> SqlSession {
    let mut session = SqlSession::new(RddContext::new(RddConfig::default()), exec);
    session.set_stream_prefetch(prefetch);
    let facts = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("k", DataType::Int),
        ("grp", DataType::Str),
        ("v", DataType::Float),
        ("ts", DataType::Int),
    ]);
    session.register_table(
        TableMeta::new("facts", facts, PARTITIONS, |p| {
            (0..ROWS_PER_PARTITION)
                .map(|i| {
                    let id = (p * ROWS_PER_PARTITION + i) as u64;
                    row![
                        id as i64,
                        (mix(id) % 40) as i64,
                        ["alpha", "beta", "gamma", "delta"][(mix(id ^ 0xA5) % 4) as usize],
                        (mix(id ^ 0x5A) % 1000) as f64 / 10.0,
                        1_000 + id as i64
                    ]
                })
                .collect()
        })
        .with_cache(4)
        .with_row_count_hint((PARTITIONS * ROWS_PER_PARTITION) as u64),
    );
    let dims = Schema::from_pairs(&[("k", DataType::Int), ("name", DataType::Str)]);
    session.register_table(
        TableMeta::new("dims", dims, 2, |p| {
            (0..20)
                .map(|i| row![(p * 20 + i) as i64, format!("dim-{}", p * 20 + i)])
                .collect()
        })
        .with_cache(4)
        .with_row_count_hint(40),
    );
    session.load_table("facts").unwrap();
    session.load_table("dims").unwrap();
    session
}

/// A fresh context (the same cluster as [`session`]) with two cached
/// 4-partition tables hash-partitioned by `ok` — partition `p` holds the
/// keys `ok % 4 == p` — and declared co-partitioned, so a join on `ok`
/// needs no shuffle (§3.4).
fn copartitioned_session(exec: ExecConfig, prefetch: usize) -> SqlSession {
    let mut session = SqlSession::new(RddContext::new(RddConfig::default()), exec);
    session.set_stream_prefetch(prefetch);
    let orders = Schema::from_pairs(&[("ok", DataType::Int), ("cust", DataType::Str)]);
    session.register_table(
        TableMeta::new("orders", orders, 4, |p| {
            (0..60)
                .map(|i| row![(i * 4 + p) as i64, format!("cust-{}", mix(i as u64) % 9)])
                .collect()
        })
        .with_cache(4)
        .with_distribute_by("ok")
        .unwrap()
        .with_copartition("lineitems")
        .with_row_count_hint(240),
    );
    let lineitems = Schema::from_pairs(&[("ok", DataType::Int), ("qty", DataType::Int)]);
    session.register_table(
        TableMeta::new("lineitems", lineitems, 4, |p| {
            (0..150)
                .map(|i| {
                    let id = (p * 150 + i) as u64;
                    row![
                        ((mix(id) % 60) * 4) as i64 + p as i64,
                        (mix(id ^ 0x3C) % 50) as i64
                    ]
                })
                .collect()
        })
        .with_cache(4)
        .with_distribute_by("ok")
        .unwrap()
        .with_row_count_hint(600),
    );
    session.load_table("orders").unwrap();
    session.load_table("lineitems").unwrap();
    session
}

/// [`session`] with two `facts` partitions evicted after the load: a scan
/// rebuilds them from the table's base generator (lineage recovery).
fn evicted_session(exec: ExecConfig, prefetch: usize) -> SqlSession {
    let session = session(exec, prefetch);
    let facts = session.catalog().get("facts").unwrap();
    let mem = facts.cached.as_ref().unwrap();
    for partition in [3, 10] {
        assert!(mem.evict_partition(partition) > 0);
    }
    session
}

/// How a shape's session is built: [`session`], [`evicted_session`] or
/// [`copartitioned_session`].
type Fixture = fn(ExecConfig, usize) -> SqlSession;

const JOIN: &str = "SELECT f.id, d.name FROM facts f JOIN dims d ON f.k = d.k WHERE f.v > 50";
const SELECTION: &str = "SELECT id, v FROM facts WHERE v > 50";
const GROUP_BY: &str = "SELECT grp, COUNT(*), SUM(v) FROM facts GROUP BY grp";

/// The statement shapes, each with its fixture, the executor configuration
/// that produces it and — for the shapes a refactor must not move — the `sql().sim_seconds`
/// the commit before it reported, to the bit (see
/// `unmoved_shapes_report_the_seconds_they_reported_before`). The static
/// (`shark_static`) and Hive rows pin the lazy shuffles: a GROUP BY through
/// the row and the fused builder, and a shuffle join. Three more pin
/// expression shapes the batch kernels evaluate: a `SUBSTR` group key, a
/// `NOT IN` filter over a dictionary column and a `BETWEEN` filter under a
/// shuffle join. The next two pin the join strategies the others leave
/// out: the adaptive PDE join, which pre-shuffles both sides before it
/// picks one, and a co-partitioned join over its own fixture. One pins the
/// expressions over an aggregate's output: a HAVING aggregate no SELECT
/// item computes, a group column in HAVING, and ORDER BY an aggregate's
/// alias under LIMIT. Two pin the scan paths no loaded fixture reaches: a
/// memstore scan that rebuilds evicted partitions from lineage, and the DFS
/// scan under PDE. The last two pin operator chains no fused scan can
/// absorb: the row top-k after a join, and the chain's aggregation over a
/// DFS scan.
fn shapes() -> Vec<(&'static str, Fixture, ExecConfig, &'static str, Option<f64>)> {
    let shuffle_join = ExecConfig {
        broadcast_threshold: 0,
        ..ExecConfig::shark()
    };
    let adaptive = ExecConfig {
        pde_prioritize_small_side: false,
        ..ExecConfig::shark()
    };
    let row_static = ExecConfig {
        vectorized: false,
        ..ExecConfig::shark_static()
    };
    vec![
        (
            "selection",
            session,
            ExecConfig::shark(),
            SELECTION,
            Some(0.010024488000000002),
        ),
        (
            "filter+projection",
            session,
            ExecConfig::shark(),
            "SELECT id, v * 2 + 1, grp FROM facts WHERE k < 10 AND v > 10",
            Some(0.010028452500000003),
        ),
        (
            "group-by",
            session,
            ExecConfig::shark(),
            GROUP_BY,
            Some(0.015032907500000005),
        ),
        (
            "broadcast-join",
            session,
            ExecConfig::shark(),
            JOIN,
            Some(0.17504141400000003),
        ),
        (
            "shuffle-join",
            session,
            shuffle_join.clone(),
            JOIN,
            Some(0.020188735000000003),
        ),
        (
            "order-by",
            session,
            ExecConfig::shark(),
            "SELECT id, v FROM facts WHERE k < 10 ORDER BY v DESC",
            Some(0.010029284831894955),
        ),
        (
            "top-k",
            session,
            ExecConfig::shark(),
            "SELECT ts, id FROM facts ORDER BY ts LIMIT 5",
            Some(0.005044997629648856),
        ),
        (
            "limit",
            session,
            ExecConfig::shark(),
            "SELECT id FROM facts LIMIT 7",
            None,
        ),
        (
            "static group-by (row path)",
            session,
            row_static,
            GROUP_BY,
            Some(0.05003189049999999),
        ),
        (
            "static group-by (fused)",
            session,
            ExecConfig::shark_static(),
            GROUP_BY,
            Some(0.05002841049999999),
        ),
        (
            "static shuffle-join",
            session,
            ExecConfig::shark_static(),
            JOIN,
            Some(0.05521903299999998),
        ),
        (
            "hive group-by",
            session,
            ExecConfig::hive(),
            GROUP_BY,
            Some(0.050213888999999984),
        ),
        (
            "hive shuffle-join",
            session,
            ExecConfig::hive(),
            JOIN,
            Some(0.05588544499999998),
        ),
        (
            "substr group-by",
            session,
            ExecConfig::shark(),
            "SELECT SUBSTR(grp, 1, 2), SUM(v) FROM facts WHERE k > 5 GROUP BY SUBSTR(grp, 1, 2)",
            Some(0.015046981500000004),
        ),
        (
            "not-in group-by",
            session,
            ExecConfig::shark(),
            "SELECT grp, COUNT(*), SUM(v) FROM facts WHERE grp NOT IN ('alpha', 'delta') GROUP BY grp",
            Some(0.015032183500000004),
        ),
        (
            "between shuffle-join",
            session,
            shuffle_join.clone(),
            "SELECT f.id, d.name FROM facts f JOIN dims d ON f.k = d.k WHERE f.ts BETWEEN 1100 AND 1700",
            Some(0.015122370000000003),
        ),
        (
            "adaptive join",
            session,
            adaptive,
            JOIN,
            Some(0.18506665400000002),
        ),
        (
            "co-partitioned join",
            copartitioned_session,
            ExecConfig::shark(),
            "SELECT o.ok, o.cust, l.qty FROM orders o JOIN lineitems l ON o.ok = l.ok",
            Some(0.0050221845000000005),
        ),
        (
            "having + order by aggregate",
            session,
            ExecConfig::shark(),
            "SELECT grp, SUM(v) AS total FROM facts GROUP BY grp \
             HAVING COUNT(*) > 1 AND grp <> 'alpha' ORDER BY total DESC LIMIT 3",
            Some(0.015032883597750048),
        ),
        (
            "implicit join + cross-scan residual",
            session,
            ExecConfig::shark(),
            "SELECT f.id, d.name FROM facts f, dims d \
             WHERE f.k = d.k AND f.v > d.k AND f.ts > 1100 ORDER BY 1 LIMIT 5",
            Some(0.17511068199557261),
        ),
        (
            "wildcard + order by output name",
            session,
            ExecConfig::shark(),
            "SELECT * FROM dims WHERE k < 25 ORDER BY name DESC",
            Some(0.005004218271237957),
        ),
        (
            "order by an expression",
            session,
            ExecConfig::shark(),
            "SELECT id, v * 2 FROM facts WHERE k < 10 ORDER BY v * 2 DESC LIMIT 4",
            Some(0.010037406164793247),
        ),
        (
            "selection (evicted partitions)",
            evicted_session,
            ExecConfig::shark(),
            SELECTION,
            Some(0.010120323000000004),
        ),
        (
            "selection (disk)",
            session,
            ExecConfig::shark_disk(),
            SELECTION,
            Some(0.010206614),
        ),
        (
            "join + order by limit",
            session,
            ExecConfig::shark(),
            "SELECT f.id, d.name FROM facts f JOIN dims d ON f.k = d.k \
             WHERE f.v > 50 ORDER BY d.name DESC, f.id LIMIT 6",
            Some(0.1750722034421145),
        ),
        (
            "group-by (disk)",
            session,
            ExecConfig::shark_disk(),
            GROUP_BY,
            Some(0.015218386),
        ),
    ]
}

/// The ledger as `job_history()` shows it: every job a statement records
/// (pre-shuffles, broadcast collects, fixed charges, the result job), summed
/// in the order they were recorded.
fn ledger(jobs: &[JobReport]) -> f64 {
    jobs.iter().fold(0.0, |sum, job| sum + job.sim_duration)
}

fn assert_close(a: f64, b: f64, relative: f64, what: &str) {
    assert!(
        (a - b).abs() <= relative * a.abs().max(b.abs()),
        "{what}: {a:?} vs {b:?}"
    );
}

#[test]
fn collected_streamed_and_recorded_seconds_are_one_number() {
    for (name, fixture, exec, sql, _) in shapes() {
        let mut at_depth_zero = None;
        for prefetch in PREFETCH_DEPTHS {
            let case = format!("{name} @ prefetch {prefetch}");
            let blocking = fixture(exec.clone(), prefetch).sql(sql).unwrap();

            let s = fixture(exec.clone(), prefetch);
            let ctx = s.context();
            ctx.clear_job_history();
            let clock_before = ctx.simulated_time();
            let mut stream = s.sql_stream(sql).unwrap();
            let mut rows = 0;
            while let Some(batch) = stream.next_batch().unwrap() {
                rows += batch.len();
            }
            assert_eq!(rows, blocking.rows.len(), "{case}");
            let streamed = stream.sim_seconds();
            let jobs = ctx.job_history();
            let recorded = ledger(&jobs);

            assert!(streamed > 0.0, "{case}");
            assert_eq!(blocking.sim_seconds.to_bits(), streamed.to_bits(), "{case}");
            assert_eq!(streamed.to_bits(), recorded.to_bits(), "{case}");
            assert_close(
                ctx.simulated_time() - clock_before,
                recorded,
                1e-12,
                &format!("{case}: clock vs ledger"),
            );
            let first = *at_depth_zero.get_or_insert(streamed);
            assert_eq!(first.to_bits(), streamed.to_bits(), "{case} vs depth 0");

            // Every job's total is the sum of its stages; only a fixed
            // charge has no stage to show for its seconds.
            for job in &jobs {
                if !job.stages.is_empty() {
                    let stages: f64 = job.stages.iter().map(|s| s.sim_duration).sum();
                    assert_eq!(job.sim_duration.to_bits(), stages.to_bits(), "{case}");
                }
            }
            let names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
            if name == "broadcast-join" {
                // Pre-shuffle of the build side, its collect to the driver,
                // the broadcast charge, then the streamed result job.
                assert!(names[0].starts_with("pre_shuffle("), "{names:?}");
                assert_eq!(&names[1..], ["collect", "broadcast", "sql-stream"]);
            }
            if name == "shuffle-join" {
                assert_eq!(names.len(), 3, "{names:?}");
                assert!(names[1].starts_with("pre_shuffle("), "{names:?}");
            }
            if name == "co-partitioned join" {
                // No shuffle: the result job zips the two tables' partitions.
                assert_eq!(names, ["sql-stream"]);
                assert!(blocking.notes[0].starts_with("co-partitioned join"));
            }
            if name == "selection (evicted partitions)" {
                let facts = s.catalog().get("facts").unwrap();
                assert_eq!(facts.cached.as_ref().unwrap().rebuilds(), 2, "{case}");
            }
        }
    }
}

#[test]
fn unmoved_shapes_report_the_seconds_they_reported_before() {
    for (name, fixture, exec, sql, before) in shapes() {
        let Some(before) = before else { continue };
        let now = fixture(exec, 2).sql(sql).unwrap().sim_seconds;
        assert_eq!(now.to_bits(), before.to_bits(), "{name}: {now:?}");
    }
}

#[test]
fn a_limit_stream_that_stops_early_books_fewer_tasks_and_less_time() {
    let drain = |sql: &str| {
        let s = session(ExecConfig::shark(), 0);
        s.context().clear_job_history();
        let result = s.sql(sql).unwrap();
        let tasks: usize = s
            .context()
            .job_history()
            .iter()
            .map(JobReport::total_tasks)
            .sum();
        (result.sim_seconds, tasks)
    };
    let (full_seconds, full_tasks) = drain("SELECT id FROM facts");
    let (limit_seconds, limit_tasks) = drain("SELECT id FROM facts LIMIT 7");
    assert_eq!(full_tasks, PARTITIONS);
    assert_eq!(limit_tasks, 1, "7 rows fit in the first partition");
    assert!(
        limit_seconds < full_seconds,
        "{limit_seconds} vs {full_seconds}"
    );
}

#[test]
fn a_cancelled_streams_preview_is_what_finish_records() {
    for prefetch in PREFETCH_DEPTHS {
        let s = session(ExecConfig::shark(), prefetch);
        let ctx = s.context();
        ctx.clear_job_history();
        let clock_before = ctx.simulated_time();
        let mut stream = s.sql_stream("SELECT id, v FROM facts").unwrap();
        for _ in 0..3 {
            stream.next_batch().unwrap().unwrap();
        }
        // Still open: nothing recorded, no clock moved — the figure is a
        // replay on a copy of the simulator.
        let preview = stream.sim_seconds();
        assert!(preview > 0.0);
        assert!(ctx.job_history().is_empty());
        assert_eq!(ctx.simulated_time(), clock_before);

        stream.cancel();
        let job = ctx.last_job().unwrap();
        assert_eq!(job.total_tasks(), 3, "only delivered partitions are tasks");
        assert_eq!(job.sim_duration.to_bits(), preview.to_bits());
        assert_eq!(stream.sim_seconds().to_bits(), preview.to_bits());
        assert_close(
            ctx.simulated_time() - clock_before,
            preview,
            1e-12,
            "clock vs preview",
        );
        // Time to first row: what the job would have cost had it stopped
        // after the partitions delivered by then.
        let first_row = stream.sim_seconds_to_first_row().unwrap();
        assert!(first_row > 0.0 && first_row <= preview);
    }
}

#[test]
fn concurrent_loads_report_their_own_seconds() {
    // Two cached tables of different sizes, registered but not loaded.
    let tables = |session: &SqlSession| {
        for (name, partitions, rows) in [("wide", 12usize, 300usize), ("narrow", 5, 40)] {
            let schema = Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Float)]);
            session.register_table(
                TableMeta::new(name, schema, partitions, move |p| {
                    (0..rows)
                        .map(|i| {
                            row![
                                (p * rows + i) as i64,
                                (mix((p * rows + i) as u64) % 100) as f64
                            ]
                        })
                        .collect()
                })
                .with_cache(4),
            );
        }
    };
    let solo = |name: &str| {
        let session = SqlSession::new(RddContext::new(RddConfig::default()), ExecConfig::shark());
        tables(&session);
        session.load_table(name).unwrap().sim_seconds
    };
    let (wide_alone, narrow_alone) = (solo("wide"), solo("narrow"));
    assert!(wide_alone > narrow_alone && narrow_alone > 0.0);

    for _ in 0..8 {
        let session = SqlSession::new(RddContext::new(RddConfig::default()), ExecConfig::shark());
        tables(&session);
        let start = std::sync::Barrier::new(2);
        let (wide, narrow) = std::thread::scope(|scope| {
            let load = |name: &'static str| {
                let (session, start) = (&session, &start);
                scope.spawn(move || {
                    start.wait();
                    session.load_table(name).unwrap().sim_seconds
                })
            };
            let (wide, narrow) = (load("wide"), load("narrow"));
            (wide.join().unwrap(), narrow.join().unwrap())
        });
        // Only the clock offset each stage started at may differ.
        assert_close(wide, wide_alone, 1e-9, "wide");
        assert_close(narrow, narrow_alone, 1e-9, "narrow");
        assert_close(
            session.context().simulated_time(),
            wide_alone + narrow_alone,
            1e-9,
            "the clock holds both",
        );
    }
}

#[test]
fn a_load_is_the_last_job_and_its_seconds_are_the_jobs() {
    let session = SqlSession::new(RddContext::new(RddConfig::default()), ExecConfig::shark());
    let schema = Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Float)]);
    session.register_table(
        TableMeta::new("loaded", schema, 6, |p| {
            (0..50)
                .map(|i| row![(p * 50 + i) as i64, (mix(i as u64) % 100) as f64])
                .collect()
        })
        .with_cache(4),
    );
    let load = session.load_table("loaded").unwrap();
    let job = session.context().last_job().unwrap();
    assert_eq!(job.name, "load(loaded)");
    assert_eq!(job.stages.len(), 1);
    assert_eq!(job.total_tasks(), 6);
    assert_eq!(job.stages[0].rows_in, load.rows);
    assert_eq!(job.stages[0].bytes_in, load.input_bytes);
    assert!(load.sim_seconds > 0.0);
    assert_eq!(job.sim_duration.to_bits(), load.sim_seconds.to_bits());
    assert_eq!(ledger(&session.context().job_history()), load.sim_seconds);
}

/// Top-k shapes around the per-partition buffer's edges (each partition
/// holds 120 rows): fewer rows than `2k`, exactly `2k`, far more than `k`,
/// `k = 0`, and a filter with an expression projection and mixed-direction
/// keys.
const TOPK_SHAPES: [&str; 5] = [
    "SELECT id, v FROM facts ORDER BY v LIMIT 100",
    "SELECT id, v FROM facts ORDER BY v DESC LIMIT 60",
    "SELECT id, ts FROM facts ORDER BY ts DESC LIMIT 3",
    "SELECT id FROM facts ORDER BY id LIMIT 0",
    "SELECT id, v * 2 + 1, grp, v FROM facts WHERE k < 10 ORDER BY grp, v DESC LIMIT 7",
];

#[test]
fn top_k_charges_the_same_on_the_vectorized_and_row_paths() {
    let run = |vectorized: bool, sql: &str| {
        let exec = ExecConfig {
            vectorized,
            ..ExecConfig::shark()
        };
        let s = session(exec, 2);
        s.context().clear_job_history();
        let result = s.sql(sql).unwrap();
        (result, s.context().job_history())
    };
    for sql in TOPK_SHAPES {
        let (vector_result, vector_jobs) = run(true, sql);
        let (row_result, row_jobs) = run(false, sql);
        assert_eq!(vector_result.rows, row_result.rows, "{sql}");
        assert_eq!(
            vector_result.sim_seconds.to_bits(),
            row_result.sim_seconds.to_bits(),
            "{sql}"
        );
        assert_eq!(vector_jobs.len(), row_jobs.len(), "{sql}");
        for (vj, rj) in vector_jobs.iter().zip(&row_jobs) {
            assert_eq!(vj.name, rj.name, "{sql}");
            assert_eq!(
                vj.sim_duration.to_bits(),
                rj.sim_duration.to_bits(),
                "{sql}"
            );
            assert_eq!(vj.stages.len(), rj.stages.len(), "{sql}");
            for (vs, rs) in vj.stages.iter().zip(&rj.stages) {
                let case = format!("{sql}: stage {}", vs.name);
                assert_eq!(vs.name, rs.name, "{case}");
                assert_eq!(
                    (vs.rows_in, vs.bytes_in),
                    (rs.rows_in, rs.bytes_in),
                    "{case}"
                );
                assert_eq!(
                    vs.sim_duration.to_bits(),
                    rs.sim_duration.to_bits(),
                    "{case}"
                );
                assert_eq!(vs.tasks.len(), rs.tasks.len(), "{case}");
                for (vt, rt) in vs.tasks.iter().zip(&rs.tasks) {
                    assert_eq!(vt.duration.to_bits(), rt.duration.to_bits(), "{case}");
                }
            }
        }
    }
}

/// A fresh context (the same cluster as [`session`]) with one 8-partition
/// cached `visits` table for the aggregation shapes. Per partition of 400
/// rows: `ip` has more distinct values than a dictionary takes (plain),
/// `region` few (dictionary), `tier` long runs (run-length); `n` is an int
/// with NULLs and `x` a float whose values include NULL, -0.0 and 0.0.
fn visits_session(exec: ExecConfig) -> SqlSession {
    let session = SqlSession::new(RddContext::new(RddConfig::default()), exec);
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("ip", DataType::Str),
        ("region", DataType::Str),
        ("tier", DataType::Str),
        ("n", DataType::Int),
        ("x", DataType::Float),
        ("v", DataType::Float),
    ]);
    session.register_table(
        TableMeta::new("visits", schema, 8, |p| {
            (0..400)
                .map(|i| {
                    let id = (p * 400 + i) as u64;
                    let n = if id.is_multiple_of(9) {
                        Value::Null
                    } else {
                        Value::Int((mix(id) % 5) as i64)
                    };
                    let x = match mix(id ^ 0x77) % 4 {
                        0 => Value::Float(-0.0),
                        1 => Value::Float(0.0),
                        2 => Value::Null,
                        _ => Value::Float(1.5),
                    };
                    Row::new(vec![
                        Value::Int(id as i64),
                        Value::str(format!("10.{}.{}", mix(id) % 60, mix(id ^ 0x33) % 50)),
                        Value::str(["us", "eu", "apac", "latam"][(mix(id ^ 0xA5) % 4) as usize]),
                        Value::str(["gold", "silver", "bronze"][(id / 50 % 3) as usize]),
                        n,
                        x,
                        Value::Float((mix(id ^ 0x5A) % 1000) as f64 / 10.0),
                    ])
                })
                .collect()
        })
        .with_cache(4)
        .with_row_count_hint(8 * 400),
    );
    session.load_table("visits").unwrap();
    session
}

/// GROUP BY shapes over `visits`, with the `sql().sim_seconds` each
/// engine reported before the aggregation shuffle moved to flat group
/// blocks: Shark's fused (vectorized) path and row path, the static-plan
/// (no PDE) fused path, and Hive.
const AGGREGATION_SHAPES: [AggregationShape; 11] = [
    AggregationShape {
        name: "high-cardinality string key",
        sql: "SELECT ip, COUNT(*), SUM(v) FROM visits GROUP BY ip",
        fused: 0.0106877005,
        row: 0.0106879105,
        static_fused: 0.04515715799999999,
        hive: 0.04557075849999999,
    },
    AggregationShape {
        name: "dictionary key",
        sql: "SELECT region, AVG(v), MAX(x) FROM visits GROUP BY region",
        fused: 0.010048326750000001,
        row: 0.01005426675,
        static_fused: 0.04504579374999999,
        hive: 0.045466629499999994,
    },
    AggregationShape {
        name: "run-length key",
        sql: "SELECT tier, COUNT(*), MIN(v) FROM visits GROUP BY tier",
        fused: 0.010042541999999998,
        row: 0.010048497,
        static_fused: 0.04504136599999999,
        hive: 0.045463485,
    },
    AggregationShape {
        name: "two-column key",
        sql: "SELECT region, tier, SUM(v) FROM visits GROUP BY region, tier",
        fused: 0.010056900749999998,
        row: 0.010062720749999999,
        static_fused: 0.04504630074999998,
        hive: 0.04546786549999999,
    },
    AggregationShape {
        name: "expression key",
        sql: "SELECT id % 7, COUNT(*), SUM(v) FROM visits GROUP BY id % 7",
        fused: 0.010056399,
        row: 0.010062294,
        static_fused: 0.045056426999999996,
        hive: 0.04547841899999999,
    },
    AggregationShape {
        name: "having",
        sql: "SELECT ip, SUM(v) FROM visits GROUP BY ip HAVING COUNT(*) > 1",
        fused: 0.010613688500000001,
        row: 0.010613898500000002,
        static_fused: 0.045145173999999996,
        hive: 0.045558774499999996,
    },
    AggregationShape {
        name: "global aggregate",
        sql: "SELECT COUNT(*), SUM(v), AVG(x) FROM visits",
        fused: 0.010041014999999999,
        row: 0.010046999999999999,
        static_fused: 0.04504104299999999,
        hive: 0.04546234299999999,
    },
    AggregationShape {
        name: "filter that empties partitions",
        sql: "SELECT region, COUNT(*), SUM(v) FROM visits WHERE id % 800 < 100 GROUP BY region",
        fused: 0.010049518749999998,
        row: 0.01005095875,
        static_fused: 0.04504825574999999,
        hive: 0.0454652235,
    },
    AggregationShape {
        name: "NULL, -0.0 and 0.0 keys",
        sql: "SELECT n, x, COUNT(*), SUM(v) FROM visits GROUP BY n, x",
        fused: 0.010066128999999998,
        row: 0.010071859,
        static_fused: 0.045054679,
        hive: 0.045475582,
    },
    AggregationShape {
        name: "count distinct",
        sql: "SELECT region, COUNT(DISTINCT ip) FROM visits GROUP BY region",
        fused: 0.010107112499999998,
        row: 0.0101130525,
        static_fused: 0.045074825999999985,
        hive: 0.04549497249999999,
    },
    AggregationShape {
        name: "string min and max",
        sql: "SELECT tier, MIN(ip), MAX(ip) FROM visits GROUP BY tier",
        fused: 0.010047364,
        row: 0.010053318999999998,
        static_fused: 0.045046108999999994,
        hive: 0.04546666099999999,
    },
];

/// One GROUP BY shape and the seconds each engine reported for it.
struct AggregationShape {
    name: &'static str,
    sql: &'static str,
    fused: f64,
    row: f64,
    static_fused: f64,
    hive: f64,
}

#[test]
fn aggregation_shapes_report_the_seconds_they_reported_before() {
    for shape in &AGGREGATION_SHAPES {
        let name = shape.name;
        let engines = [
            ("fused", ExecConfig::shark(), true, shape.fused),
            (
                "row",
                ExecConfig {
                    vectorized: false,
                    ..ExecConfig::shark()
                },
                false,
                shape.row,
            ),
            (
                "static",
                ExecConfig::shark_static(),
                true,
                shape.static_fused,
            ),
            ("hive", ExecConfig::hive(), false, shape.hive),
        ];
        for (engine, exec, fused, before) in engines {
            let result = visits_session(exec).sql(shape.sql).unwrap();
            assert!(!result.rows.is_empty(), "{name}");
            let ran_fused = result.notes.iter().any(|n| n.contains("fused scan"));
            assert_eq!(ran_fused, fused, "{name} ({engine}): {:?}", result.notes);
            assert_eq!(
                result.sim_seconds.to_bits(),
                before.to_bits(),
                "{name} ({engine}): {:?}",
                result.sim_seconds
            );
        }
    }
}
