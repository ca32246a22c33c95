//! The [`SharkContext`]: one object that speaks SQL and runs ML.

use std::sync::Arc;

use shark_cluster::ClusterConfig;
use shark_common::{Result, Value};
use shark_rdd::{JobReport, Rdd, RddConfig, RddContext};
use shark_sql::{ExecConfig, LoadReport, QueryResult, SqlSession, TableMeta, TableRdd};

/// Configuration of a [`SharkContext`].
#[derive(Debug, Clone)]
pub struct SharkConfig {
    /// The simulated cluster and engine cost profile.
    pub cluster: ClusterConfig,
    /// Default number of partitions for derived tables and shuffles.
    pub default_partitions: usize,
    /// Ratio between simulated data volume and the in-process volume.
    pub sim_scale: f64,
    /// SQL execution configuration (Shark / Shark-disk / Hive, PDE knobs).
    pub exec: ExecConfig,
}

impl Default for SharkConfig {
    fn default() -> Self {
        SharkConfig {
            cluster: ClusterConfig::small(4, 2),
            default_partitions: 8,
            sim_scale: 1.0,
            exec: ExecConfig::shark(),
        }
    }
}

impl SharkConfig {
    /// The paper's 100-node Shark setup.
    pub fn paper_shark() -> SharkConfig {
        SharkConfig {
            cluster: ClusterConfig::paper_shark_cluster(),
            default_partitions: 200,
            exec: ExecConfig::shark(),
            ..SharkConfig::default()
        }
    }

    /// The paper's 100-node Hive/Hadoop baseline.
    pub fn paper_hive() -> SharkConfig {
        SharkConfig {
            cluster: ClusterConfig::paper_hive_cluster(),
            default_partitions: 200,
            exec: ExecConfig::hive(),
            ..SharkConfig::default()
        }
    }

    /// Set the simulation scale factor.
    pub fn with_sim_scale(mut self, scale: f64) -> SharkConfig {
        self.sim_scale = scale;
        self
    }

    /// Set the SQL execution configuration.
    pub fn with_exec(mut self, exec: ExecConfig) -> SharkConfig {
        self.exec = exec;
        self
    }
}

/// The unified SQL + analytics driver (the paper's "master process").
pub struct SharkContext {
    session: SqlSession,
    config: SharkConfig,
}

impl SharkContext {
    /// Create a context from a configuration.
    pub fn new(config: SharkConfig) -> SharkContext {
        let rdd_config = RddConfig {
            cluster: config.cluster.clone(),
            default_partitions: config.default_partitions,
            sim_scale: config.sim_scale,
        };
        let ctx = RddContext::new(rdd_config);
        SharkContext {
            session: SqlSession::new(ctx, config.exec.clone()),
            config,
        }
    }

    /// A small local context for tests and examples.
    pub fn local() -> SharkContext {
        SharkContext::new(SharkConfig::default())
    }

    /// Create a context over an *existing* RDD context and a *shared*
    /// catalog. Multiple `SharkContext`s built this way (or sessions handed
    /// out by `shark-server`) see the same tables, memstore and RDD cache —
    /// the multi-user warehouse configuration.
    pub fn with_shared(
        config: SharkConfig,
        ctx: RddContext,
        catalog: Arc<shark_sql::Catalog>,
    ) -> SharkContext {
        SharkContext {
            session: SqlSession::with_catalog(ctx, config.exec.clone(), catalog),
            config,
        }
    }

    /// The catalog backing this context's session.
    pub fn catalog(&self) -> &Arc<shark_sql::Catalog> {
        self.session.catalog()
    }

    /// Pin an immutable, epoch-versioned snapshot of the catalog. Everything
    /// resolved against it sees one consistent set of table versions, and a
    /// table dropped by a concurrent session keeps its memstore resident
    /// until this (and every other) pin referencing it is released — the
    /// lineage of a long analytics pipeline can never dangle mid-run.
    pub fn catalog_snapshot(&self) -> Arc<shark_sql::CatalogSnapshot> {
        self.session.catalog().snapshot()
    }

    /// The catalog's current epoch (bumped by every DDL).
    pub fn catalog_epoch(&self) -> u64 {
        self.session.catalog().epoch()
    }

    /// The configuration this context was built with.
    pub fn config(&self) -> &SharkConfig {
        &self.config
    }

    /// The underlying RDD context (for writing raw RDD programs).
    pub fn rdd_context(&self) -> &RddContext {
        self.session.context()
    }

    /// The SQL session (catalog, UDFs, execution config).
    pub fn session(&self) -> &SqlSession {
        &self.session
    }

    /// Mutable access to the SQL session (e.g. to register UDFs or switch
    /// the execution mode).
    pub fn session_mut(&mut self) -> &mut SqlSession {
        &mut self.session
    }

    /// Register a base table in the catalog.
    pub fn register_table(&self, table: TableMeta) -> Arc<TableMeta> {
        self.session.register_table(table)
    }

    /// Load a cached table into the columnar memstore now.
    pub fn load_table(&self, name: &str) -> Result<LoadReport> {
        self.session.load_table(name)
    }

    /// Execute a SQL statement and collect its result.
    pub fn sql(&self, text: &str) -> Result<QueryResult> {
        self.session.sql(text)
    }

    /// Execute a SQL query and keep the result as an RDD (`sql2rdd`, §4.1).
    pub fn sql_to_rdd(&self, text: &str) -> Result<TableRdd> {
        self.session.sql_to_rdd(text)
    }

    /// Register a user-defined scalar function.
    pub fn register_udf<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&[Value]) -> Value + Send + Sync + 'static,
    {
        self.session.register_udf(name, f);
    }

    /// Distribute an in-memory collection as an RDD.
    pub fn parallelize<T: shark_rdd::Data>(&self, data: Vec<T>, partitions: usize) -> Rdd<T> {
        self.rdd_context().parallelize(data, partitions)
    }

    /// Kill a simulated worker node (drops its cached partitions; subsequent
    /// queries recover them through lineage). Returns memstore partitions
    /// lost.
    pub fn fail_node(&self, node: usize) -> usize {
        self.session.fail_node(node)
    }

    /// Current simulated time (seconds) since the last reset.
    pub fn simulated_time(&self) -> f64 {
        self.rdd_context().simulated_time()
    }

    /// Reset the simulated clock (start timing a new experiment).
    pub fn reset_simulation(&self) {
        self.rdd_context().reset_simulation();
    }

    /// Job-level execution reports recorded so far.
    pub fn job_history(&self) -> Vec<JobReport> {
        self.rdd_context().job_history()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_common::{row, DataType, Schema};

    fn people(shark: &SharkContext) {
        shark.register_table(
            TableMeta::new(
                "people",
                Schema::from_pairs(&[("name", DataType::Str), ("age", DataType::Int)]),
                3,
                |p| {
                    (0..10)
                        .map(|i| row![format!("p{p}_{i}"), (18 + (i + p) % 50) as i64])
                        .collect()
                },
            )
            .with_cache(4),
        );
    }

    #[test]
    fn sql_end_to_end() {
        let shark = SharkContext::local();
        people(&shark);
        let r = shark
            .sql("SELECT COUNT(*) FROM people WHERE age >= 25")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert!(r.rows[0].get_int(0).unwrap() > 0);
        assert!(shark.simulated_time() > 0.0);
        shark.reset_simulation();
        assert_eq!(shark.simulated_time(), 0.0);
    }

    #[test]
    fn sql_to_rdd_plus_ml_pipeline() {
        let shark = SharkContext::local();
        people(&shark);
        let table = shark.sql_to_rdd("SELECT age FROM people").unwrap();
        let points = table
            .rdd
            .map(|r| {
                let age = r.get_float(0).unwrap_or(0.0);
                (vec![age / 100.0, 1.0], if age >= 40.0 { 1.0 } else { -1.0 })
            })
            .cache();
        let (model, report) = shark_ml::LogisticRegression {
            iterations: 5,
            learning_rate: 1.0,
            seed: 1,
        }
        .train(&points)
        .unwrap();
        assert_eq!(report.iterations(), 5);
        assert_eq!(model.weights.len(), 2);
    }

    #[test]
    fn fail_node_and_recover() {
        let shark = SharkContext::local();
        people(&shark);
        shark.load_table("people").unwrap();
        let before = shark.sql("SELECT COUNT(*) FROM people").unwrap();
        shark.fail_node(0);
        let after = shark.sql("SELECT COUNT(*) FROM people").unwrap();
        assert_eq!(before.rows, after.rows);
    }

    #[test]
    fn udf_registration() {
        let mut shark = SharkContext::local();
        people(&shark);
        shark.register_udf("is_adult", |args| {
            Value::Bool(args[0].as_int().map(|a| a >= 18).unwrap_or(false))
        });
        let r = shark
            .sql("SELECT COUNT(*) FROM people WHERE is_adult(age)")
            .unwrap();
        assert_eq!(r.rows[0].get_int(0).unwrap(), 30);
    }

    #[test]
    fn shared_contexts_see_the_same_catalog() {
        let a = SharkContext::local();
        people(&a);
        let b = SharkContext::with_shared(
            SharkConfig::default(),
            a.rdd_context().clone(),
            a.catalog().clone(),
        );
        let r = b.sql("SELECT COUNT(*) FROM people").unwrap();
        assert_eq!(r.rows[0].get_int(0).unwrap(), 30);
        b.sql("CREATE TABLE adults AS SELECT name FROM people WHERE age >= 30")
            .unwrap();
        assert!(a.catalog().contains("adults"));
    }

    #[test]
    fn pinned_snapshot_keeps_sql_to_rdd_lineage_stable_across_drop() {
        let a = SharkContext::local();
        people(&a);
        a.load_table("people").unwrap();
        // Build (but do not run) a pipeline, then drop the table from a
        // second context sharing the catalog.
        let table = a.sql_to_rdd("SELECT age FROM people").unwrap();
        let epoch_at_plan = a.catalog_epoch();
        let b = SharkContext::with_shared(
            SharkConfig::default(),
            a.rdd_context().clone(),
            a.catalog().clone(),
        );
        b.sql("DROP TABLE people").unwrap();
        assert!(a.catalog_epoch() > epoch_at_plan);
        assert!(!a.catalog().contains("people"));
        // The pipeline still runs: its plan pinned the snapshot it was
        // resolved against, so the dropped version stays resident.
        assert!(a.catalog().deferred_drop_bytes() > 0);
        let count = table.rdd.collect().unwrap().len();
        assert_eq!(count, 30);
        drop(table);
        // The pin is gone with the pipeline: the version is reclaimable.
        assert_eq!(a.catalog().reclaim_unreferenced(), 1);
        assert_eq!(a.catalog().deferred_drop_bytes(), 0);
    }

    #[test]
    fn paper_configs_differ_in_profile() {
        let shark_cfg = SharkConfig::paper_shark();
        let hive_cfg = SharkConfig::paper_hive();
        assert!(
            hive_cfg.cluster.profile.task_launch_overhead
                > shark_cfg.cluster.profile.task_launch_overhead * 100.0
        );
    }
}
