//! The [`SharkContext`]: one object that speaks SQL and runs ML.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use shark_cluster::ClusterConfig;
use shark_rdd::{RddConfig, RddContext};
use shark_sql::{Catalog, ExecConfig, SqlSession};

/// Configuration of a [`SharkContext`]: the RDD context's and the SQL
/// session's.
#[derive(Debug, Clone, Default)]
pub struct SharkConfig {
    /// The simulated cluster, default partition count and simulation scale.
    pub rdd: RddConfig,
    /// SQL execution configuration (Shark / Shark-disk / Hive, PDE knobs).
    pub exec: ExecConfig,
}

impl SharkConfig {
    /// The paper's 100-node Shark setup.
    pub fn paper_shark() -> SharkConfig {
        SharkConfig::paper(ClusterConfig::paper_shark_cluster(), ExecConfig::shark())
    }

    /// The paper's 100-node Hive/Hadoop baseline.
    pub fn paper_hive() -> SharkConfig {
        SharkConfig::paper(ClusterConfig::paper_hive_cluster(), ExecConfig::hive())
    }

    fn paper(cluster: ClusterConfig, exec: ExecConfig) -> SharkConfig {
        SharkConfig {
            rdd: RddConfig {
                cluster,
                default_partitions: 200,
                sim_scale: 1.0,
            },
            exec,
        }
    }

    /// Set the simulation scale factor.
    pub fn with_sim_scale(mut self, scale: f64) -> SharkConfig {
        self.rdd.sim_scale = scale;
        self
    }

    /// Set the SQL execution configuration.
    pub fn with_exec(mut self, exec: ExecConfig) -> SharkConfig {
        self.exec = exec;
        self
    }
}

/// The unified SQL + analytics driver (the paper's "master process"): a
/// [`SqlSession`] plus the configuration it was built with. It derefs to
/// the session, so `sql`, `sql_to_rdd`, `load_table` and the catalog are
/// the session's, and `context()` is the [`RddContext`] raw RDD programs
/// run on.
pub struct SharkContext {
    session: SqlSession,
    config: SharkConfig,
}

impl SharkContext {
    /// Create a context from a configuration.
    pub fn new(config: SharkConfig) -> SharkContext {
        let ctx = RddContext::new(config.rdd.clone());
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
        catalog: Arc<Catalog>,
    ) -> SharkContext {
        SharkContext {
            session: SqlSession::with_catalog(ctx, config.exec.clone(), catalog),
            config,
        }
    }

    /// The configuration this context was built with.
    pub fn config(&self) -> &SharkConfig {
        &self.config
    }

    /// The underlying RDD context (for writing raw RDD programs).
    pub fn rdd_context(&self) -> &RddContext {
        self.session.context()
    }

    /// Current simulated time (seconds) since the last reset.
    pub fn simulated_time(&self) -> f64 {
        self.session.context().simulated_time()
    }
}

impl Deref for SharkContext {
    type Target = SqlSession;

    fn deref(&self) -> &SqlSession {
        &self.session
    }
}

impl DerefMut for SharkContext {
    fn deref_mut(&mut self) -> &mut SqlSession {
        &mut self.session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_common::{row, DataType, Schema, Value};
    use shark_sql::TableMeta;

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
        shark.context().reset_simulation();
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
        let epoch_at_plan = a.catalog().epoch();
        let b = SharkContext::with_shared(
            SharkConfig::default(),
            a.rdd_context().clone(),
            a.catalog().clone(),
        );
        b.sql("DROP TABLE people").unwrap();
        assert!(a.catalog().epoch() > epoch_at_plan);
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
            hive_cfg.rdd.cluster.profile.task_launch_overhead
                > shark_cfg.rdd.cluster.profile.task_launch_overhead * 100.0
        );
    }
}
