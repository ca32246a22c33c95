//! The traced run's second half: every statement class at four depths —
//! over TCP, through a `SessionHandle`, through a bare `SqlSession`, and
//! parse + plan only — interleaved, so that the difference between two
//! depths is what the layer between them costs. From those differences and
//! the probes comes the per-workload share table.

use std::time::Instant;

use shark_common::Result;
use shark_server::ServerReport;
use shark_sql::ast::Statement;
use shark_sql::{parser, plan_select, ExecConfig, SqlSession, UdfRegistry};

use crate::env::{ms_since, WireEnv};
use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{class_id, Send, CLASS_NAMES, STRIPE_LEVELS};

/// Repetitions per class and depth, time permitting.
const REPS: usize = 30;
/// Repetitions every class gets whatever the time budget says.
const MIN_REPS: usize = 3;

/// One class's medians at the four depths, and what its engine-level runs
/// asked of the rdd scheduler.
#[derive(Debug, Clone)]
pub struct ClassLevels {
    pub class: usize,
    pub reps: usize,
    pub client_ms: f64,
    pub session_ms: f64,
    pub engine_ms: f64,
    pub plan_ms: f64,
    /// Rows per op.
    pub rows: f64,
    /// Tasks per op over all stages, and rows read out of a shuffle per op
    /// (from the context's job reports).
    pub tasks: f64,
    pub shuffle_rows: f64,
    /// Whether the class misses the plan cache by construction.
    pub cold: bool,
}

/// Drain a streaming cursor batch by batch; returns the row count.
macro_rules! drain {
    ($cursor:expr) => {{
        let mut cursor = $cursor;
        let mut rows = 0usize;
        while let Some(batch) = cursor.next_batch()? {
            rows += batch.len();
        }
        rows
    }};
}

/// One class's raw timings while the level runs are in progress.
#[derive(Default)]
struct Timings {
    client: Vec<f64>,
    session: Vec<f64>,
    engine: Vec<f64>,
    plan: Vec<f64>,
    rows: f64,
    tasks: f64,
    shuffle_rows: f64,
}

/// Run every SELECT class of the workload at the four depths, classes and
/// depths interleaved (so `pressure`'s reads keep evicting each other), for
/// up to [`REPS`] rounds or `budget_s` seconds.
pub fn run(env: &WireEnv, rec: &Recorder, budget_s: f64) -> Result<Vec<ClassLevels>> {
    let server = &env.server;
    let mut conn = env.connect(STRIPE_LEVELS)?;
    let session = server.session();
    let mut engine = SqlSession::with_catalog(
        server.context().clone(),
        ExecConfig::shark(),
        server.catalog().clone(),
    );
    if let Some(cache) = server.plan_cache() {
        engine.set_plan_cache(cache.clone());
    }
    let udfs = UdfRegistry::new();
    let classes: Vec<usize> = env
        .plan
        .mix
        .iter()
        .map(|m| m.class)
        .filter(|c| *c != class_id("ctas"))
        .collect();
    let mut timings: Vec<Timings> = classes.iter().map(|_| Timings::default()).collect();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < REPS && (rounds < MIN_REPS || started.elapsed().as_secs_f64() < budget_s) {
        rounds += 1;
        // One text per class and round, sent at every depth — except a cold
        // literal, which must be new to the plan cache every time. Within a
        // depth the classes follow each other as they do under load, so
        // that `pressure`'s reads evict each other at every depth alike.
        let ops: Vec<_> = classes.iter().map(|c| conn.gen.class_op(*c)).collect();
        let qids: Vec<u64> = classes.iter().map(|_| rec.next_query_id()).collect();
        let text = |conn: &mut crate::env::WireConn, i: usize| {
            if classes[i] == class_id("cold_literal") {
                conn.gen.class_op(classes[i]).stmts[0].sql.clone()
            } else {
                ops[i].stmts[0].sql.clone()
            }
        };

        for (i, t) in timings.iter_mut().enumerate() {
            let span = rec.start("level.client", None, qids[i]);
            let at = Instant::now();
            let result = conn.run(&ops[i], rec);
            t.client.push(ms_since(at));
            rec.end(span);
            if let Some(e) = result.error {
                return Err(shark_common::SharkError::Execution(e));
            }
            t.rows += result.rows as f64;
        }
        for (i, t) in timings.iter_mut().enumerate() {
            let sql = text(&mut conn, i);
            let span = rec.start("level.session", None, qids[i]);
            let at = Instant::now();
            drain!(session.sql_stream(&sql)?);
            t.session.push(ms_since(at));
            rec.end(span);
        }
        for (i, t) in timings.iter_mut().enumerate() {
            let sql = text(&mut conn, i);
            server.context().clear_job_history();
            let span = rec.start("level.engine", None, qids[i]);
            let at = Instant::now();
            drain!(engine.sql_stream(&sql)?);
            t.engine.push(ms_since(at));
            rec.end(span);
            for job in server.context().job_history() {
                t.tasks += job.total_tasks() as f64;
                // Every stage after a job's first reads a shuffle.
                t.shuffle_rows += job
                    .stages
                    .iter()
                    .skip(1)
                    .map(|s| s.rows_in as f64)
                    .sum::<f64>();
            }
        }
        for (i, t) in timings.iter_mut().enumerate() {
            let sql = text(&mut conn, i);
            let span = rec.start("level.plan", None, qids[i]);
            let at = Instant::now();
            if let Statement::Select(select) = parser::parse(&sql)? {
                std::hint::black_box(plan_select(&select, &server.catalog().snapshot(), &udfs)?);
            }
            t.plan.push(ms_since(at));
            rec.end(span);
        }
    }
    Ok(classes
        .into_iter()
        .zip(timings)
        .map(|(class, t)| ClassLevels {
            class,
            reps: rounds,
            client_ms: median(&t.client),
            session_ms: median(&t.session),
            engine_ms: median(&t.engine),
            plan_ms: median(&t.plan),
            rows: t.rows / rounds as f64,
            tasks: t.tasks / rounds as f64,
            shuffle_rows: t.shuffle_rows / rounds as f64,
            cold: class == class_id("cold_literal"),
        })
        .collect())
}

/// `obs.trace_overhead_pct`: the workload's SELECT texts through a session,
/// in-process, with the engine's own tracer on against off, alternating.
pub fn obs_overhead(env: &WireEnv, budget_s: f64) -> Result<(f64, u64)> {
    let session = env.server.session();
    // One text per SELECT class.
    let texts: Vec<&str> = env
        .plan
        .mix
        .iter()
        .filter_map(|m| m.templates.first())
        .map(|t| &env.plan.templates[*t])
        .filter(|t| t.send != Send::Batch)
        .map(|t| t.sql.as_str())
        .collect();
    let started = Instant::now();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    while off.len() < REPS && (off.len() < MIN_REPS || started.elapsed().as_secs_f64() < budget_s) {
        for traced in [false, true] {
            shark_obs::tracer().set_enabled(traced);
            let t = Instant::now();
            for sql in &texts {
                drain!(session.sql_stream(sql)?);
            }
            if traced { &mut on } else { &mut off }.push(ms_since(t));
        }
    }
    shark_obs::tracer().set_enabled(false);
    let base = median(&off);
    Ok(((median(&on) - base) / base * 100.0, off.len() as u64))
}

/// What the durable tiers did per op in the untraced window (`pressure`).
pub struct DurabilityCounts {
    pub demoted: f64,
    pub promoted: f64,
    pub wal_batches: f64,
    pub checkpoints: f64,
}

impl DurabilityCounts {
    pub fn per_op(
        before: &ServerReport,
        after: &ServerReport,
        wal_batches: u64,
        ops: u64,
    ) -> DurabilityCounts {
        let ops = ops.max(1) as f64;
        DurabilityCounts {
            demoted: (after.partitions_demoted - before.partitions_demoted) as f64 / ops,
            promoted: (after.partitions_promoted - before.partitions_promoted) as f64 / ops,
            wal_batches: wal_batches as f64 / ops,
            checkpoints: (after.wal_snapshots_written - before.wal_snapshots_written) as f64 / ops,
        }
    }
}

/// Fill in the level-derived metrics and the share table of a wire
/// workload. Needs the probe values already in `report`.
pub fn summarize(
    env: &WireEnv,
    levels: &[ClassLevels],
    durable: Option<&DurabilityCounts>,
    report: &mut Report,
) -> String {
    let weight = |l: &ClassLevels| env.plan.share(l.class);
    let total_weight: f64 = levels.iter().map(weight).sum();
    let mix = |f: &dyn Fn(&ClassLevels) -> f64| -> f64 {
        levels.iter().map(|l| weight(l) * f(l)).sum::<f64>() / total_weight
    };
    let reps: u64 = levels.iter().map(|l| l.reps as u64).sum();
    report.set("level.client_ms", mix(&|l| l.client_ms), reps);
    report.set("memstore.session_ms", mix(&|l| l.session_ms), reps);
    report.set("sql.engine_ms", mix(&|l| l.engine_ms), reps);

    let codec_ms_row =
        (report.value("net.frame_encode_ns_row") + report.value("client.decode_ns_row")) / 1e6;
    let roundtrip_ms = report.value("net.roundtrip_us") / 1e3;
    let dispatch_ms = report.value("rdd.dispatch_us_task") / 1e3;
    let shuffle_rows_ms = report.value("rdd.shuffle_rows_s") / 1e3;
    let hit_ms = report.value("plancache.hit_ns") / 1e6;

    let mut table = String::from(
        "  class            reps  client_ms session_ms  engine_ms    plan_ms  unexplained%\n",
    );
    let mut worst: f64 = 0.0;
    for l in levels {
        let unexplained = (l.client_ms - l.session_ms - codec_ms_row * l.rows - roundtrip_ms)
            / l.client_ms
            * 100.0;
        if unexplained.abs() > worst.abs() {
            worst = unexplained;
        }
        table.push_str(&format!(
            "  {:<16} {:>4} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>12.1}\n",
            CLASS_NAMES[l.class],
            l.reps,
            l.client_ms,
            l.session_ms,
            l.engine_ms,
            l.plan_ms,
            unexplained
        ));
    }
    report.set("trace.unexplained_pct", worst, reps);

    // Layer shares of the client-observed time, mix-weighted.
    let net = mix(&|l| (l.client_ms - l.session_ms).max(0.0));
    let mut serving = mix(&|l| (l.session_ms - l.engine_ms).max(0.0));
    let plan = mix(&|l| if l.cold { l.plan_ms } else { hit_ms });
    // The rdd layer's part of the engine time is modelled, not measured:
    // tasks and shuffled rows counted from the job reports, priced by the
    // rdd probes.
    let rdd_of = |l: &ClassLevels| {
        let shuffle = if shuffle_rows_ms > 0.0 {
            l.shuffle_rows / shuffle_rows_ms
        } else {
            0.0
        };
        l.tasks * dispatch_ms + shuffle
    };
    let rdd = mix(&|l| rdd_of(l).min(l.engine_ms));
    let mut exec = mix(&|l| {
        let plan = if l.cold { l.plan_ms } else { hit_ms };
        (l.engine_ms - plan - rdd_of(l)).max(0.0)
    });
    // Likewise the durable tiers: demotions and WAL commits happen at the
    // query boundary (serving), promotions inside the scan (exec).
    let mut durability = 0.0;
    if let Some(d) = durable {
        let boundary = (d.demoted * report.value("spill.store_us_part")
            + d.wal_batches * report.value("wal.append_fsync_us"))
            / 1e3
            + d.checkpoints * report.value("wal.checkpoint_ms");
        let in_scan = d.promoted * report.value("spill.fetch_us_part") / 1e3;
        let (boundary, in_scan) = (boundary.min(serving), in_scan.min(exec));
        serving -= boundary;
        exec -= in_scan;
        durability = boundary + in_scan;
    }
    let total = net + serving + plan + exec + durability + rdd;
    let pct = |v: f64| v / total * 100.0;
    for (name, value) in [
        ("share.net_pct", net),
        ("share.serving_pct", serving),
        ("share.plan_pct", plan),
        ("share.exec_pct", exec),
        ("share.durability_pct", durability),
        ("share.rdd_ml_pct", rdd),
    ] {
        report.set(name, pct(value), reps);
    }
    table
}

/// `ml_pipeline` has no wire and no SQL after the hand-off: its shares come
/// straight from the per-stage latencies of the traced window.
pub fn summarize_ml(sql_to_rdd_ms: f64, stage_ms: [f64; 3], report: &mut Report) {
    let [first_pass, logistic, kmeans] = stage_ms;
    let total = first_pass + logistic + kmeans;
    let pct = |v: f64| v / total * 100.0;
    report.set("share.plan_pct", pct(sql_to_rdd_ms), 0);
    report.set("share.exec_pct", pct(first_pass - sql_to_rdd_ms), 0);
    report.set("share.rdd_ml_pct", pct(logistic + kmeans), 0);
}
