//! `loadgen`: the repository's end-to-end benchmark.
//!
//! ```text
//! loadgen --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <file>] [--commit <sha>]
//! loadgen compare <a.jsonl> <b.jsonl>
//! ```
//!
//! One process starts the system under test, drives one workload against it,
//! verifies every answer and prints every metric by name with its unit. The
//! last line of standard output is the machine-readable result. See
//! `README.md` beside this package for what each workload and metric means.

mod compare;
mod driver;
mod env;
mod json;
mod levels;
mod metrics;
mod probes;
mod rng;
mod spans;
mod stats;
mod verify;
mod workloads;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use shark_common::Result;
use shark_server::ServerReport;

use driver::{run_window, Pace, Window};
use env::{MlEnv, Target, WireEnv};
use metrics::{Report, CLASS_P50, END_TO_END};
use spans::Recorder;
use workloads::{
    class_id, OpGen, Plan, Workload, DASHBOARD_OPEN_RATE_OPS_S, ML_ITERATIONS, RESTORE_CYCLES,
    STRIPE_SIM,
};

/// Where traces are written and `pressure` spills, relative to the working
/// directory (the root of the checkout).
const SCRATCH: &str = "loadgen/target/loadgen";
/// Set-up runs this many times in an untraced run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// How a traced run divides `--seconds`: an untraced window (counts and the
/// overhead baseline), the traced window, the four-depth level runs and the
/// tracer-overhead probe. `dashboard` also spends `OPEN_SHARE` on its open
/// loop.
const UNTRACED_SHARE: f64 = 0.30;
const TRACED_SHARE: f64 = 0.30;
const LEVELS_SHARE: f64 = 0.20;
const OBS_SHARE: f64 = 0.04;
const OPEN_SHARE: f64 = 0.16;

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    commit: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --workload <{}> --seed <u64> [--seconds <n>] [--trace [0|1]] [--out <file>] [--commit <sha>]\n       loadgen compare <a.jsonl> <b.jsonl>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_options(args: &[String]) -> Options {
    let mut options = Options {
        workload: Workload::Dashboard,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        out: None,
        commit: "unknown".to_string(),
    };
    let mut named = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => {
                options.workload = Workload::parse(v).unwrap_or_else(|| usage());
                named = true;
            }
            ("--seed", Some(v)) => options.seed = v.parse().unwrap_or_else(|_| usage()),
            ("--seconds", Some(v)) => options.seconds = v.parse().unwrap_or_else(|_| usage()),
            ("--out", Some(v)) => options.out = Some(PathBuf::from(v)),
            ("--commit", Some(v)) => options.commit = v.clone(),
            ("--trace", v) => {
                // `--trace 0|1`, or a bare `--trace` meaning 1.
                options.trace = !matches!(v.map(String::as_str), Some("0"));
                if !matches!(v.map(String::as_str), Some("0" | "1")) {
                    i += 1;
                    continue;
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    if !named || options.seconds.is_nan() || options.seconds < 1.0 {
        usage();
    }
    options
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a run hands back to `main`.
struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    notes: String,
}

impl Outcome {
    fn absorb(&mut self, window: &Window) {
        self.attempted += window.attempted;
        self.failed += window.failed;
        if self.first_error.is_none() {
            self.first_error = window.first_error.clone();
        }
    }
}

/// The end-to-end metrics of one untraced window. `rss_before_mb` is the
/// high-water mark when the window started.
fn fill_end_to_end(
    outcome: &mut Outcome,
    workload: Workload,
    setup_s: &[f64],
    rss_before_mb: f64,
    window: &Window,
) {
    let report = &mut outcome.report;
    let ops = window.ops.len() as u64;
    // What set-up left resident, plus what the window added, scaled from
    // the ops this run completed to the workload's reference op count.
    let grown =
        (peak_rss_mb() - rss_before_mb) * workload.reference_ops() / window.ops.len().max(1) as f64;
    report.set("peak_rss_mb", rss_before_mb + grown, ops);
    let top = stats::highest_percentile(window.ops.len());
    outcome.notes.push_str(&format!(
        "  op latency over the whole window: p50 {:.4} ms, p{top} {:.4} ms (highest percentile with 10 samples beyond it), n={ops}\n",
        window.whole(50.0, |op| op.latency_ms),
        window.whole(top, |op| op.latency_ms),
    ));
    outcome.notes.push_str(&format!(
        "  by slice: latency p50 {:.3?} ms, CPU stolen by the hypervisor {:.3?} (share of the box)\n",
        window.latency_slices_ms(50.0),
        window.steal
    ));
    report.set("setup_s", stats::median(setup_s), setup_s.len() as u64);
    report.set("throughput_ops_s", window.throughput_ops_s(), ops);
    report.set("latency_p50_ms", window.latency_ms(50.0), ops);
    report.set("latency_p95_ms", window.latency_ms(95.0), ops);
    let streamed = window.ops.iter().filter(|op| op.ttfr_ms.is_some()).count() as u64;
    report.set("ttfr_p50_ms", window.ttfr_p50_ms(), streamed);
}

fn fill_client_layer(report: &mut Report, window: &Window) {
    for class in window.classes() {
        let (p50, n) = window.class_p50_ms(class);
        report.set(CLASS_P50[class], p50, n as u64);
    }
    let ops = window.ops.len() as u64;
    report.set(
        "client.latency_p99_ms",
        window.whole(99.0, |op| op.latency_ms),
        ops,
    );
    report.set("loadgen.samples", ops as f64, ops);
    let stolen = window.steal.iter().sum::<f64>() / window.steal.len().max(1) as f64;
    report.set(
        "loadgen.steal_pct",
        stolen * 100.0,
        window.steal.len() as u64,
    );
}

/// The per-layer counts: what the server's own report says changed over
/// the untraced window, per op where that reads better.
fn fill_server_counts(
    report: &mut Report,
    before: &ServerReport,
    after: &ServerReport,
    window: &Window,
) {
    let ops = window.ops.len().max(1) as f64;
    let queries = (after.total_queries - before.total_queries).max(1) as f64;
    let d = |f: fn(&ServerReport) -> u64| (f(after) - f(before)) as f64;
    let n = window.ops.len() as u64;
    report.set(
        "net.bytes_per_row",
        d(|r| r.wire_bytes_sent) / window.rows.max(1) as f64,
        window.rows,
    );
    report.set(
        "net.frames_per_op",
        (d(|r| r.net_frames_sent) + d(|r| r.net_frames_received)) / ops,
        n,
    );
    let waited = (after.total_queue_wait - before.total_queue_wait).as_secs_f64() * 1e3;
    report.set("admission.queue_wait_ms", waited / queries, queries as u64);
    report.set("admission.rejected", d(|r| r.rejected_queries), 0);
    let (hits, misses) = (d(|r| r.plan_cache_hits), d(|r| r.plan_cache_misses));
    report.set(
        "plancache.hit_ratio",
        hits / (hits + misses).max(1.0) * 100.0,
        (hits + misses) as u64,
    );
    report.set("plancache.stale_plans", d(|r| r.plan_cache_stale_plans), 0);
    report.set("sql.partitions_per_op", window.partitions as f64 / ops, n);
    let busy = (after.total_exec_time - before.total_exec_time).as_secs_f64() * 1e3;
    report.set("server.exec_ms_per_op", busy / queries, queries as u64);
    report.set("rdd.prefetch_hits", d(|r| r.prefetch_hits), 0);
    report.set(
        "memstore.cache_hit_bytes_per_op",
        d(|r| r.cache_hit_bytes) / queries,
        queries as u64,
    );
    report.set(
        "memstore.evicted_partitions",
        d(|r| r.evicted_partitions),
        0,
    );
    report.set("memstore.promotions", d(|r| r.partitions_promoted), 0);
    report.set("memstore.rebuilds", d(|r| r.partition_rebuilds), 0);
    report.set("spill.bytes_written", d(|r| r.spill_bytes_written), 0);
    report.set("spill.bytes_read", d(|r| r.spill_bytes_read), 0);
    report.set("spill.displaced", d(|r| r.spill_displaced_partitions), 0);
    report.set("wal.snapshots", d(|r| r.wal_snapshots_written), 0);
}

/// Set up `reps` times (dropping each environment before the next is
/// built); returns the last environment and every set-up's seconds.
fn set_up_repeatedly<E>(reps: usize, set_up: impl Fn() -> Result<E>) -> Result<(E, Vec<f64>)> {
    let mut seconds = Vec::new();
    let mut env = None;
    for _ in 0..reps {
        drop(env.take());
        let t = Instant::now();
        env = Some(set_up()?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    Ok((env.expect("set up at least once"), seconds))
}

/// What every traced run reports before it drives anything.
fn fill_static_layer(report: &mut Report, loaded_rows: u64, loaded_bytes: u64) {
    report.set("loadgen.calib_ns", probes::calibration_ns(), 7);
    report.set(
        "columnar.bytes_per_row",
        loaded_bytes as f64 / loaded_rows as f64,
        loaded_rows,
    );
}

/// `loadgen.trace_overhead_pct`: the traced window's median op latency
/// against the untraced window's.
fn fill_trace_overhead(report: &mut Report, untraced: &Window, traced: &Window) {
    let base = untraced.whole(50.0, |op| op.latency_ms);
    report.set(
        "loadgen.trace_overhead_pct",
        (traced.whole(50.0, |op| op.latency_ms) - base) / base * 100.0,
        traced.ops.len() as u64,
    );
}

fn wal_counter(name: &str) -> u64 {
    shark_obs::metrics().snapshot().counter(name)
}

fn targets<T: Target>(conns: &mut [T]) -> Vec<&mut dyn Target> {
    conns.iter_mut().map(|c| c as &mut dyn Target).collect()
}

fn run_wire(
    options: &Options,
    plan: Arc<Plan>,
    rec: &Recorder,
    outcome: &mut Outcome,
) -> Result<()> {
    let scratch = Path::new(SCRATCH);
    let nproc = nproc();
    let n_conns = plan.workload.connections(nproc);
    let seconds = options.seconds;

    let reps = if options.trace { 1 } else { SETUP_REPS };
    let (mut env, setup_s) = set_up_repeatedly(reps, || {
        WireEnv::set_up(plan.clone(), options.seed, nproc, scratch)
    })?;

    if !options.trace {
        let mut conns = (0..n_conns)
            .map(|k| env.connect(k as u64))
            .collect::<Result<Vec<_>>>()?;
        let rss_before_mb = peak_rss_mb();
        let window = run_window(targets(&mut conns), seconds, Pace::Closed, rec);
        fill_end_to_end(outcome, plan.workload, &setup_s, rss_before_mb, &window);
        outcome.absorb(&window);
        return Ok(());
    }

    fill_static_layer(&mut outcome.report, env.loaded_rows, env.loaded_bytes);
    // One pass over the workload's classes on a quiet server: the simulated
    // cluster seconds are a count, and must repeat exactly.
    {
        let mut conn = env.connect(STRIPE_SIM)?;
        let mut sim = 0.0;
        for entry in &plan.mix {
            let op = OpGen::new(plan.clone(), options.seed, STRIPE_SIM).class_op(entry.class);
            let result = conn.run(&op, rec);
            sim += result.sim_seconds;
            outcome.attempted += 1;
            if let Some(e) = result.error {
                outcome.failed += 1;
                outcome.first_error.get_or_insert(e);
            }
        }
        outcome
            .report
            .set("cluster.sim_seconds", sim, plan.mix.len() as u64);
    }

    let mut conns = (0..n_conns)
        .map(|k| env.connect(k as u64))
        .collect::<Result<Vec<_>>>()?;

    // Untraced window: per-class latencies, server counts, overhead baseline.
    let before = env.server.report();
    let (batches_before, records_before) = (
        wal_counter("shark_wal_batches_total"),
        wal_counter("shark_wal_records_total"),
    );
    let untraced = run_window(
        targets(&mut conns),
        seconds * UNTRACED_SHARE,
        Pace::Closed,
        rec,
    );
    let after = env.server.report();
    fill_client_layer(&mut outcome.report, &untraced);
    fill_server_counts(&mut outcome.report, &before, &after, &untraced);
    outcome.report.set(
        "wal.records",
        (wal_counter("shark_wal_records_total") - records_before) as f64,
        0,
    );
    let durable = (plan.workload == Workload::Pressure).then(|| {
        levels::DurabilityCounts::per_op(
            &before,
            &after,
            wal_counter("shark_wal_batches_total") - batches_before,
            untraced.ops.len() as u64,
        )
    });
    outcome.absorb(&untraced);

    if plan.workload == Workload::Dashboard {
        let interval_s = n_conns as f64 / DASHBOARD_OPEN_RATE_OPS_S;
        let open = run_window(
            targets(&mut conns),
            seconds * OPEN_SHARE,
            Pace::Open { interval_s },
            rec,
        );
        let n = open.ops.len() as u64;
        outcome
            .report
            .set("client.open_latency_p95_ms", open.due_latency_ms(95.0), n);
        outcome
            .report
            .set("loadgen.late_p95_ms", open.whole(95.0, |op| op.late_ms), n);
        outcome.absorb(&open);
    }

    // Traced window: both tracers on; its latencies are never reported as
    // end-to-end numbers, only against the untraced ones.
    rec.set_enabled(true);
    shark_obs::tracer().set_enabled(true);
    let traced = run_window(
        targets(&mut conns),
        seconds * TRACED_SHARE,
        Pace::Closed,
        rec,
    );
    shark_obs::tracer().set_enabled(false);
    fill_trace_overhead(&mut outcome.report, &untraced, &traced);
    outcome.absorb(&traced);
    drop(conns);

    let levels = levels::run(&env, rec, seconds * LEVELS_SHARE)?;
    rec.set_enabled(false);
    let (overhead, rounds) = levels::obs_overhead(&env, seconds * OBS_SHARE)?;
    outcome
        .report
        .set("obs.trace_overhead_pct", overhead, rounds);
    probes::wire(&env, scratch, &mut outcome.report)?;
    let table = levels::summarize(&env, &levels, durable.as_ref(), &mut outcome.report);
    outcome.notes.push_str(&table);

    if plan.workload == Workload::Pressure {
        let (mut shutdown, mut first_answer) = (Vec::new(), Vec::new());
        for _ in 0..RESTORE_CYCLES {
            outcome.attempted += 1;
            match env.restore_cycle() {
                Ok((shutdown_ms, first_answer_ms)) => {
                    shutdown.push(shutdown_ms);
                    first_answer.push(first_answer_ms);
                }
                Err(e) => {
                    outcome.failed += 1;
                    outcome.first_error.get_or_insert(e.to_string());
                }
            }
        }
        let n = first_answer.len() as u64;
        outcome
            .report
            .set("wal.shutdown_ms", stats::median(&shutdown), n);
        outcome.report.set(
            "client.restore_first_answer_ms",
            stats::median(&first_answer),
            n,
        );
        outcome.report.set(
            "wal.frames_adopted",
            env.server.report().recovery_frames_adopted as f64,
            0,
        );
    }
    Ok(())
}

fn run_ml(options: &Options, plan: Arc<Plan>, rec: &Recorder, outcome: &mut Outcome) -> Result<()> {
    let seconds = options.seconds;
    let reps = if options.trace { 1 } else { SETUP_REPS };
    let (mut env, setup_s) = set_up_repeatedly(reps, || MlEnv::set_up(plan.clone()))?;

    if !options.trace {
        let rss_before_mb = peak_rss_mb();
        let window = run_window(vec![&mut env], seconds, Pace::Closed, rec);
        fill_end_to_end(outcome, plan.workload, &setup_s, rss_before_mb, &window);
        outcome.absorb(&window);
        return Ok(());
    }

    fill_static_layer(&mut outcome.report, env.loaded_rows, env.loaded_bytes);
    let first = env.run_next(rec);
    outcome
        .report
        .set("cluster.sim_seconds", first.sim_seconds, 1);

    let untraced = run_window(vec![&mut env], seconds * UNTRACED_SHARE, Pace::Closed, rec);
    fill_client_layer(&mut outcome.report, &untraced);
    outcome.absorb(&untraced);

    rec.set_enabled(true);
    shark_obs::tracer().set_enabled(true);
    let traced = run_window(vec![&mut env], seconds * TRACED_SHARE, Pace::Closed, rec);
    shark_obs::tracer().set_enabled(false);
    rec.set_enabled(false);
    fill_trace_overhead(&mut outcome.report, &untraced, &traced);
    outcome.absorb(&traced);

    let stage = |class: &str| untraced.class_p50_ms(class_id(class));
    let (first_pass, n) = stage("sql_to_rdd");
    let hand_off: Vec<f64> = rec
        .snapshot()
        .iter()
        .filter(|s| s.name == "core.sql_to_rdd")
        .map(|s| (s.end_us - s.start_us) / 1e3)
        .collect();
    let sql_to_rdd_ms = stats::median(&hand_off);
    outcome
        .report
        .set("core.sql_to_rdd_ms", sql_to_rdd_ms, hand_off.len() as u64);
    outcome
        .report
        .set("core.first_pass_ms", first_pass, n as u64);
    outcome.report.set(
        "ml.logistic_iter_ms",
        stage("logistic").0 / ML_ITERATIONS as f64,
        n as u64,
    );
    outcome.report.set(
        "ml.kmeans_iter_ms",
        stage("kmeans").0 / ML_ITERATIONS as f64,
        n as u64,
    );
    probes::ml(&env, &mut outcome.report)?;
    levels::summarize_ml(
        sql_to_rdd_ms,
        [first_pass, stage("logistic").0, stage("kmeans").0],
        &mut outcome.report,
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("catalog") {
        print!("{}", metrics::benchmark_json());
        return;
    }
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else { usage() };
        std::process::exit(compare::run(Path::new(a), Path::new(b)));
    }
    let options = parse_options(&args);
    let plan = Arc::new(workloads::plan(options.workload, options.seed));
    let rec = Recorder::new();
    let mut outcome = Outcome {
        report: Report::default(),
        attempted: 0,
        failed: 0,
        first_error: None,
        notes: String::new(),
    };
    let ran = match options.workload {
        Workload::MlPipeline => run_ml(&options, plan, &rec, &mut outcome),
        _ => run_wire(&options, plan, &rec, &mut outcome),
    };
    if let Err(e) = ran {
        // No result line: the run could not measure anything.
        eprintln!("loadgen: {}: {e}", options.workload.name());
        std::process::exit(2);
    }

    let layers = metrics::per_layer();
    let specs: &[metrics::Spec] = if options.trace { &layers } else { &END_TO_END };
    if options.trace {
        let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64 * 100.0;
        outcome
            .report
            .set("client.failed_share", failed_share, outcome.attempted);
        let path = Path::new(SCRATCH).join(format!("trace.{}.json", options.workload.name()));
        let recorded = rec.snapshot();
        match spans::write_json(&recorded, &path) {
            Ok(()) => outcome
                .notes
                .push_str(&format!("  spans written to {}\n", path.display())),
            Err(e) => eprintln!("loadgen: cannot write {}: {e}", path.display()),
        }
        outcome
            .notes
            .push_str("  span self time (median us, count):\n");
        for (name, self_us, count) in spans::self_time_by_name(&recorded) {
            outcome
                .notes
                .push_str(&format!("    {name:<22} {self_us:>12.1} {count:>8}\n"));
        }
    }

    let correct = outcome.failed == 0;
    println!(
        "workload {} seed {} seconds {} trace {} nproc {} connections {}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        nproc(),
        options.workload.connections(nproc())
    );
    print!("{}", outcome.report.render(specs));
    print!("{}", outcome.notes);
    println!(
        "  attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    if let Some(error) = &outcome.first_error {
        println!("  first failure: {error}");
    }
    let metrics_json = outcome.report.metrics_json(specs);
    if let Some(out) = &options.out {
        let line = format!(
            "{{\"schema\": \"shark-bench-v2\", \"commit\": {}, \"nproc\": {}, \"seed\": {}, \"seconds\": {}, \"workload\": {}, \"trace\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}\n",
            json::string(&options.commit),
            nproc(),
            options.seed,
            json::number(options.seconds),
            json::string(options.workload.name()),
            u8::from(options.trace),
            outcome.attempted,
            outcome.failed,
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("loadgen: cannot append to {}: {e}", out.display());
            std::process::exit(2);
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        outcome.attempted, outcome.failed
    );
    std::process::exit(i32::from(!correct));
}
