//! Set-up: the system under test as each workload sees it. A wire workload
//! gets a real `SharkServer` serving on `127.0.0.1:0` and one `shark-client`
//! connection per driver thread; `ml_pipeline` gets an in-process
//! `SharkContext`. Set-up also records the oracle answers.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use shark_client::{PreparedStatement, SharkClient};
use shark_common::{row, Result, Row, SharkError};
use shark_core::datasets::register_ml_points;
use shark_core::{SharkConfig, SharkContext};
use shark_datagen::pavlo;
use shark_datagen::warehouse::{self, WarehouseConfig, REGION_COUNTRIES};
use shark_ml::{KMeans, LogisticRegression};
use shark_server::{NetConfig, NetServer, ServerConfig, SharkServer, TableRecord};
use shark_sql::{ExecConfig, RowGenerator, TableMeta};

use crate::spans::Recorder;
use crate::verify::{floats_close, Answer};
use crate::workloads::{
    class_id, Op, OpGen, Plan, Send, Stmt, Workload, ML_DIMS, ML_ITERATIONS, ML_KMEANS_REDUCERS,
    ML_PARTITIONS, ML_SELECT, PAVLO_PARTITIONS, PRESSURE_MEMORY_SHARE, PRESSURE_SPILL_SHARE,
    STRIPE_RESTORE, STRIPE_WARM,
};

/// What one client operation observed.
#[derive(Debug, Clone, Default)]
pub struct OpResult {
    /// `None` when every statement succeeded and verified.
    pub error: Option<String>,
    /// Send → first result: first `ResultBatch` decoded for a streamed
    /// SELECT, feature RDD materialised for `ml_pipeline`.
    pub ttfr_ms: Option<f64>,
    /// `(class, latency ms)` of each statement.
    pub stmts: Vec<(usize, f64)>,
    pub rows: u64,
    pub partitions: u64,
    pub sim_seconds: f64,
}

/// Something a driver thread can run ops against.
pub trait Target: std::marker::Send {
    fn run_next(&mut self, rec: &Recorder) -> OpResult;
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The row-path execution configuration the oracle answers come from.
fn row_path() -> ExecConfig {
    ExecConfig {
        vectorized: false,
        ..ExecConfig::shark()
    }
}

// ---- Tables ---------------------------------------------------------------

fn pavlo_generators(plan: &Plan) -> Vec<(&'static str, shark_common::Schema, u64, RowGenerator)> {
    let Some(cfg) = &plan.pavlo else {
        return Vec::new();
    };
    let (c1, c2) = (cfg.clone(), cfg.clone());
    vec![
        (
            "rankings",
            pavlo::rankings_schema(),
            cfg.rankings_rows as u64,
            Arc::new(move |p| pavlo::rankings_partition(&c1, PAVLO_PARTITIONS, p)),
        ),
        (
            "uservisits",
            pavlo::uservisits_schema(),
            cfg.uservisits_rows as u64,
            Arc::new(move |p| pavlo::uservisits_partition(&c2, PAVLO_PARTITIONS, p)),
        ),
    ]
}

/// Register and load the plan's tables; returns `(rows, columnar bytes)`.
fn load_tables(server: &SharkServer, plan: &Plan) -> Result<(u64, u64)> {
    let nodes = server.context().config().cluster.num_nodes;
    let mut names = Vec::new();
    for (name, schema, rows, generator) in pavlo_generators(plan) {
        server.register_table(
            TableMeta::new(name, schema, PAVLO_PARTITIONS, move |p| generator(p))
                .with_row_count_hint(rows)
                .with_cache(nodes),
        );
        names.push(name);
    }
    if let Some(cfg) = &plan.warehouse {
        let c = cfg.clone();
        server.register_table(
            TableMeta::new(
                "sessions",
                warehouse::sessions_schema(),
                cfg.num_partitions(),
                move |p| warehouse::sessions_partition(&c, p),
            )
            .with_row_count_hint((cfg.sessions_per_partition * cfg.num_partitions()) as u64)
            .with_cache(nodes),
        );
        names.push("sessions");
    }
    let (mut rows, mut bytes) = (0, 0);
    for name in names {
        let report = server.load_table(name)?;
        rows += report.rows;
        bytes += report.stored_bytes;
    }
    Ok((rows, bytes))
}

/// Re-attaches the generators after a restore (generators are code, so the
/// snapshot cannot hold them).
fn resolver(plan: &Plan) -> impl Fn(&TableRecord) -> Option<RowGenerator> {
    let generators: HashMap<&'static str, RowGenerator> = pavlo_generators(plan)
        .into_iter()
        .map(|(name, _, _, generator)| (name, generator))
        .collect();
    move |record| generators.get(record.name.as_str()).cloned()
}

/// Loadgen's own oracle for the cold-literal texts: per `(day, region)`
/// partition the sorted `buffering_ms` values of the generated rows.
pub struct ColdIndex {
    regions: usize,
    buffering: Vec<Vec<i64>>,
}

impl ColdIndex {
    fn build(cfg: &WarehouseConfig) -> ColdIndex {
        let column = warehouse::sessions_schema()
            .index_of("buffering_ms")
            .expect("sessions has buffering_ms");
        let buffering = (0..cfg.num_partitions())
            .map(|p| {
                let mut values: Vec<i64> = warehouse::sessions_partition(cfg, p)
                    .iter()
                    .map(|r| r.get_int(column).expect("buffering_ms is an int"))
                    .collect();
                values.sort_unstable();
                values
            })
            .collect();
        ColdIndex {
            regions: cfg.regions,
            buffering,
        }
    }

    /// `SELECT country, COUNT(*) … WHERE day = <day> AND buffering_ms > bound
    /// GROUP BY country`, computed from the generated rows.
    fn answer(&self, day: usize, bound: i64) -> Answer {
        let rows: Vec<Row> = (0..self.regions)
            .filter_map(|region| {
                let values = &self.buffering[day * self.regions + region];
                let count = values.len() - values.partition_point(|v| *v <= bound);
                (count > 0).then(|| row![REGION_COUNTRIES[region], count as i64])
            })
            .collect();
        Answer::new(rows, false)
    }
}

// ---- Wire workloads -------------------------------------------------------

/// A served `SharkServer` plus everything needed to drive and verify it.
pub struct WireEnv {
    pub plan: Arc<Plan>,
    pub server: SharkServer,
    net: Option<NetServer>,
    pub addr: SocketAddr,
    config: ServerConfig,
    answers: Arc<Vec<Arc<Answer>>>,
    cold: Option<Arc<ColdIndex>>,
    seed: u64,
    pub loaded_rows: u64,
    pub loaded_bytes: u64,
}

/// The server configuration of a workload: defaults, the executor sized to
/// the box, and for `pressure` the spill tier with budgets derived from the
/// bytes a full load occupies.
fn server_config(plan: &Plan, nproc: usize, scratch: &std::path::Path) -> Result<ServerConfig> {
    let config = ServerConfig::default().with_executor_threads(nproc);
    if plan.workload != Workload::Pressure {
        return Ok(config);
    }
    let probe = SharkServer::new(config.clone());
    let (_, loaded) = load_tables(&probe, plan)?;
    let budget = (loaded as f64 * PRESSURE_MEMORY_SHARE) as u64;
    let overflow = loaded - budget;
    Ok(config
        .with_memory_budget(budget)
        .with_spill_dir(scratch.join(format!("spill.{}", std::process::id())))
        .with_spill_budget((overflow as f64 * PRESSURE_SPILL_SHARE) as u64))
}

impl WireEnv {
    /// Generate, load, serve, record the oracle answers and run every text
    /// once over the wire. `scratch` is where `pressure` spills.
    pub fn set_up(
        plan: Arc<Plan>,
        seed: u64,
        nproc: usize,
        scratch: &std::path::Path,
    ) -> Result<WireEnv> {
        let config = server_config(&plan, nproc, scratch)?;
        if let Some(dir) = &config.spill_dir {
            // A previous run's leftovers would be swept as orphans anyway.
            let _ = std::fs::remove_dir_all(dir);
        }
        let server = SharkServer::new(config.clone());
        let (loaded_rows, loaded_bytes) = load_tables(&server, &plan)?;
        let cold = plan
            .warehouse
            .as_ref()
            .map(|cfg| Arc::new(ColdIndex::build(cfg)));
        let threads = plan.workload.connections(nproc);
        let answers = Arc::new(oracle_answers(&server, &plan, threads)?);
        let net = server.serve(NetConfig::default())?;
        let mut env = WireEnv {
            addr: net.local_addr(),
            net: Some(net),
            plan,
            server,
            config,
            answers,
            cold,
            seed,
            loaded_rows,
            loaded_bytes,
        };
        env.warm(threads)?;
        Ok(env)
    }

    /// Open connection number `stripe` with its own statement sequence.
    pub fn connect(&self, stripe: u64) -> Result<WireConn> {
        let mut client = SharkClient::connect(self.addr, "", "")?;
        let mut prepared = HashMap::new();
        for t in self.plan.prepared_templates() {
            prepared.insert(t, client.prepare(&self.plan.templates[t].sql)?);
        }
        Ok(WireConn {
            client,
            gen: OpGen::new(self.plan.clone(), self.seed, stripe),
            answers: self.answers.clone(),
            cold: self.cold.clone(),
            prepared,
        })
    }

    /// Every fixed text (and one cold literal) once over the wire, spread
    /// over `threads` connections: fills the plan cache, finishes lazy
    /// initialisation, and checks the served answers against the oracle
    /// before anything is measured.
    fn warm(&mut self, threads: usize) -> Result<()> {
        let rec = Recorder::new();
        let templates: Vec<usize> = (0..self.plan.templates.len())
            .filter(|t| self.plan.templates[*t].class != class_id("read_tmp"))
            .filter(|t| self.plan.templates[*t].class != class_id("drop"))
            .collect();
        let env = &*self;
        let failures: Vec<String> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|k| {
                    let mine: Vec<usize> =
                        templates.iter().copied().skip(k).step_by(threads).collect();
                    let rec = &rec;
                    scope.spawn(move || -> Result<Vec<String>> {
                        let mut conn = env.connect(STRIPE_WARM + k as u64)?;
                        let mut failures = Vec::new();
                        for t in mine {
                            let op = conn.gen.template_op(t);
                            failures.extend(conn.run(&op, rec).error);
                        }
                        if env
                            .plan
                            .mix
                            .iter()
                            .any(|m| m.class == class_id("cold_literal"))
                        {
                            let op = conn.gen.class_op(class_id("cold_literal"));
                            failures.extend(conn.run(&op, rec).error);
                        }
                        Ok(failures)
                    })
                })
                .collect();
            let mut failures = Vec::new();
            for worker in workers {
                match worker.join().expect("warm-up thread panicked") {
                    Ok(f) => failures.extend(f),
                    Err(e) => failures.push(e.to_string()),
                }
            }
            failures
        });
        match failures.first() {
            None => Ok(()),
            Some(first) => Err(SharkError::Execution(format!(
                "{} warm-up statements failed verification; first: {first}",
                failures.len()
            ))),
        }
    }

    /// Stop serving: closes every connection and joins the frontend threads.
    pub fn stop_serving(&mut self) {
        if let Some(mut net) = self.net.take() {
            net.shutdown();
        }
    }

    /// One shutdown → restore cycle (`pressure` only). Returns
    /// `(shutdown ms, restore → first verified answer ms)`; the first
    /// answer is taken over the wire, as a reconnecting client would.
    pub fn restore_cycle(&mut self) -> Result<(f64, f64)> {
        self.stop_serving();
        let t = Instant::now();
        self.server.shutdown()?;
        let shutdown_ms = ms_since(t);
        let t = Instant::now();
        self.server = SharkServer::restore_with(self.config.clone(), resolver(&self.plan))?;
        let net = self.server.serve(NetConfig::default())?;
        self.addr = net.local_addr();
        self.net = Some(net);
        let mut conn = self.connect(STRIPE_RESTORE)?;
        let op = conn.gen.class_op(class_id("read_b"));
        let result = conn.run(&op, &Recorder::new());
        let first_answer_ms = ms_since(t);
        match result.error {
            None => Ok((shutdown_ms, first_answer_ms)),
            Some(e) => Err(SharkError::Execution(format!("after restore: {e}"))),
        }
    }
}

impl Drop for WireEnv {
    fn drop(&mut self) {
        self.stop_serving();
        if let Some(dir) = &self.config.spill_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The oracle: every fixed text's answer from the row path
/// (`vectorized = false`), in-process, computed on `threads` sessions.
fn oracle_answers(server: &SharkServer, plan: &Plan, threads: usize) -> Result<Vec<Arc<Answer>>> {
    let computed: Vec<Result<Vec<(usize, Answer)>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|k| {
                scope.spawn(move || {
                    let mut session = server.session();
                    session.set_exec_config(row_path());
                    let mut out = Vec::new();
                    for (t, template) in plan.templates.iter().enumerate().skip(k).step_by(threads)
                    {
                        let answer = match &template.oracle_sql {
                            Some(sql) => {
                                Answer::new(session.sql(sql)?.result.rows, template.ordered)
                            }
                            None => Answer::empty(),
                        };
                        out.push((t, answer));
                    }
                    Ok(out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut answers: Vec<Arc<Answer>> = plan.templates.iter().map(|_| Arc::default()).collect();
    for part in computed {
        for (t, answer) in part? {
            answers[t] = Arc::new(answer);
        }
    }
    Ok(answers)
}

/// One client connection with its seeded statement sequence.
pub struct WireConn {
    client: SharkClient,
    pub gen: OpGen,
    answers: Arc<Vec<Arc<Answer>>>,
    cold: Option<Arc<ColdIndex>>,
    prepared: HashMap<usize, PreparedStatement>,
}

impl WireConn {
    /// Run one op: send every statement, drain and verify its rows.
    pub fn run(&mut self, op: &Op, rec: &Recorder) -> OpResult {
        let mut result = OpResult::default();
        let qid = if rec.is_enabled() {
            rec.next_query_id()
        } else {
            0
        };
        for stmt in &op.stmts {
            let started = Instant::now();
            let root = rec.start("client.statement", None, qid);
            let outcome = self.run_stmt(stmt, rec, root.as_ref(), qid, started, &mut result);
            rec.end(root);
            result.stmts.push((stmt.class, ms_since(started)));
            if let Err(e) = outcome {
                result.error = Some(format!("{}: {e}", stmt.sql));
                break;
            }
        }
        result
    }

    fn run_stmt(
        &mut self,
        stmt: &Stmt,
        rec: &Recorder,
        root: Option<&crate::spans::Open>,
        qid: u64,
        started: Instant,
        result: &mut OpResult,
    ) -> std::result::Result<(), String> {
        let rows = match stmt.send {
            Send::Stream => {
                let span = rec.start("client.send", root, qid);
                let stream = self.client.query_stream(&stmt.sql);
                rec.end(span);
                let mut stream = stream.map_err(|e| e.to_string())?;
                let span = rec.start("client.first_batch", root, qid);
                let first = stream.next_batch();
                if result.ttfr_ms.is_none() {
                    result.ttfr_ms = Some(ms_since(started));
                }
                rec.end(span);
                let span = rec.start("client.drain", root, qid);
                let mut rows = first.map_err(|e| e.to_string())?.unwrap_or_default();
                let drained = loop {
                    match stream.next_batch() {
                        Ok(Some(batch)) => rows.extend(batch),
                        Ok(None) => break stream.finish(),
                        Err(e) => break Err(e),
                    }
                };
                rec.end(span);
                let summary = drained.map_err(|e| e.to_string())?;
                result.partitions += summary.partitions;
                result.sim_seconds += summary.sim_seconds;
                rows
            }
            Send::Prepared | Send::Batch => {
                let span = rec.start("client.send", root, qid);
                let answer = match stmt.send {
                    Send::Prepared => {
                        let template = stmt.template.expect("prepared statements are fixed texts");
                        self.client.execute(self.prepared[&template])
                    }
                    _ => self.client.query(&stmt.sql),
                };
                rec.end(span);
                let answer = answer.map_err(|e| e.to_string())?;
                result.partitions += answer.partitions;
                result.sim_seconds += answer.sim_seconds;
                answer.rows
            }
        };
        result.rows += rows.len() as u64;
        let span = rec.start("client.verify", root, qid);
        let verdict = match (stmt.template, stmt.cold) {
            (Some(t), _) => self.answers[t].check(&rows),
            (None, Some((day, bound))) => self
                .cold
                .as_ref()
                .expect("cold literals need the sessions index")
                .answer(day, bound)
                .check(&rows),
            (None, None) => Err("statement without an oracle".to_string()),
        };
        rec.end(span);
        verdict
    }
}

impl Target for WireConn {
    fn run_next(&mut self, rec: &Recorder) -> OpResult {
        let op = self.gen.next_op();
        self.run(&op, rec)
    }
}

// ---- ml_pipeline ----------------------------------------------------------

/// What one pipeline must produce: the feature count, the logistic weights
/// and the k-means centers.
#[derive(Debug, Clone)]
struct MlAnswer {
    points: u64,
    weights: Vec<f64>,
    centers: Vec<Vec<f64>>,
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| floats_close(*x, *y))
}

/// The in-process SQL → features → logistic regression → k-means pipeline.
pub struct MlEnv {
    pub plan: Arc<Plan>,
    pub shark: SharkContext,
    oracle: MlAnswer,
    pub loaded_rows: u64,
    pub loaded_bytes: u64,
}

impl MlEnv {
    pub fn set_up(plan: Arc<Plan>) -> Result<MlEnv> {
        let context = |exec: ExecConfig| -> Result<(SharkContext, shark_sql::LoadReport)> {
            let shark = SharkContext::new(SharkConfig::default().with_exec(exec));
            let cfg = plan
                .ml
                .as_ref()
                .expect("ml_pipeline plans carry an MlConfig");
            register_ml_points(&shark, cfg, ML_PARTITIONS, true)?;
            let loaded = shark.load_table("points")?;
            Ok((shark, loaded))
        };
        let rec = Recorder::new();
        // The oracle is the row path's answer; the measured context must
        // then reproduce it on its warm-up pass.
        let (oracle, _) = pipeline(&context(row_path())?.0, &rec)?;
        let (shark, loaded) = context(ExecConfig::shark())?;
        let mut env = MlEnv {
            shark,
            plan,
            oracle,
            loaded_rows: loaded.rows,
            loaded_bytes: loaded.stored_bytes,
        };
        match env.run_next(&rec).error {
            None => Ok(env),
            Some(e) => Err(SharkError::Execution(format!("warm-up pipeline: {e}"))),
        }
    }
}

/// One whole pipeline; spans and per-stage latencies go to the result.
fn pipeline(shark: &SharkContext, rec: &Recorder) -> Result<(MlAnswer, OpResult)> {
    let mut result = OpResult::default();
    let qid = if rec.is_enabled() {
        rec.next_query_id()
    } else {
        0
    };
    let root = rec.start("client.pipeline", None, qid);
    let sim_before = shark.simulated_time();

    let started = Instant::now();
    let span = rec.start("core.sql_to_rdd", root.as_ref(), qid);
    let table = shark.sql_to_rdd(ML_SELECT);
    rec.end(span);
    let table = table?;
    let span = rec.start("core.first_pass", root.as_ref(), qid);
    let labeled = table
        .rdd
        .map(|row| {
            let label = row.get_float(0).unwrap_or(0.0);
            let features: Vec<f64> = (1..=ML_DIMS)
                .map(|i| row.get_float(i).unwrap_or(0.0))
                .collect();
            (features, label)
        })
        .cache();
    let points = labeled.count();
    rec.end(span);
    let points = points?;
    let first_pass_ms = ms_since(started);
    result.ttfr_ms = Some(first_pass_ms);
    result.stmts.push((class_id("sql_to_rdd"), first_pass_ms));

    let started = Instant::now();
    let span = rec.start("ml.logistic", root.as_ref(), qid);
    let trained = LogisticRegression {
        iterations: ML_ITERATIONS,
        ..LogisticRegression::default()
    }
    .train(&labeled);
    rec.end(span);
    let (model, _) = trained?;
    result.stmts.push((class_id("logistic"), ms_since(started)));

    let started = Instant::now();
    let span = rec.start("ml.kmeans", root.as_ref(), qid);
    let features = labeled.map(|(f, _)| f).cache();
    let trained = KMeans {
        k: 10,
        iterations: ML_ITERATIONS,
        reduce_partitions: ML_KMEANS_REDUCERS,
    }
    .train(&features);
    rec.end(span);
    let (clusters, _) = trained?;
    result.stmts.push((class_id("kmeans"), ms_since(started)));

    // Each op caches its own feature RDDs; release them so memory does not
    // grow with the number of pipelines run.
    labeled.uncache();
    features.uncache();
    rec.end(root);
    result.rows = points;
    result.sim_seconds = shark.simulated_time() - sim_before;
    let answer = MlAnswer {
        points,
        weights: model.weights,
        centers: clusters.centers,
    };
    Ok((answer, result))
}

impl Target for MlEnv {
    fn run_next(&mut self, rec: &Recorder) -> OpResult {
        match pipeline(&self.shark, rec) {
            Err(e) => OpResult {
                error: Some(e.to_string()),
                ..OpResult::default()
            },
            Ok((answer, mut result)) => {
                let same = answer.points == self.oracle.points
                    && close(&answer.weights, &self.oracle.weights)
                    && answer.centers.len() == self.oracle.centers.len()
                    && answer
                        .centers
                        .iter()
                        .zip(&self.oracle.centers)
                        .all(|(a, b)| close(a, b));
                if !same {
                    result.error = Some(format!(
                        "pipeline answer differs from the row-path oracle: {} points, weights {:?}",
                        answer.points, answer.weights
                    ));
                }
                result
            }
        }
    }
}
