//! The SQL session: parse → plan → execute, plus DDL handling.
//!
//! [`SqlSession`] ties the pieces together the way Shark's driver does:
//! it owns the catalog and UDF registry, compiles statements with the parser
//! and planner, and executes them through [`crate::exec`]. `CREATE TABLE …
//! TBLPROPERTIES("shark.cache"="true") AS SELECT … DISTRIBUTE BY …` creates
//! (and, when cached, loads) derived tables, which is how the paper's
//! memstore and co-partitioning examples are expressed (§2, §3.4).

use std::sync::Arc;

use shark_common::{Result, Row, SharkError};
use shark_rdd::RddContext;

use crate::ast::{SelectStmt, Statement};
use crate::catalog::{Catalog, CatalogSnapshot, TableMeta};
use crate::exec::{self, ExecConfig, LoadReport, QueryResult, QueryStream, TableRdd};
use crate::expr::UdfRegistry;
use crate::parser;
use crate::plan::{plan_select, QueryPlan};
use crate::plancache::{statement_fingerprint, PlanCache};

/// A SQL session: catalog + UDFs + execution configuration over an
/// [`RddContext`].
pub struct SqlSession {
    ctx: RddContext,
    catalog: Arc<Catalog>,
    udfs: UdfRegistry,
    exec: ExecConfig,
    plan_cache: Option<Arc<PlanCache>>,
}

/// A SELECT compiled (or fetched from the plan cache) against one pinned
/// catalog snapshot; holding it keeps the snapshot's tables alive until the
/// plan executes.
struct Planned {
    plan: Arc<QueryPlan>,
    snapshot: Arc<CatalogSnapshot>,
    cache_hit: bool,
}

impl SqlSession {
    /// Create a session with the given execution configuration and a
    /// private catalog whose memtables live in the context's block store.
    pub fn new(ctx: RddContext, exec: ExecConfig) -> SqlSession {
        let catalog = Arc::new(Catalog::with_context(&ctx));
        SqlSession::with_catalog(ctx, exec, catalog)
    }

    /// Create a session over a *shared* catalog. Every session built from
    /// the same `Arc<Catalog>` (and a clone of the same [`RddContext`]) sees
    /// the same tables and the same memstore — the multi-user warehouse
    /// server setup, where `CREATE TABLE` in one session is immediately
    /// visible to all others. UDFs and the execution configuration stay
    /// per-session.
    pub fn with_catalog(ctx: RddContext, exec: ExecConfig, catalog: Arc<Catalog>) -> SqlSession {
        SqlSession {
            ctx,
            catalog,
            udfs: UdfRegistry::new(),
            exec,
            plan_cache: None,
        }
    }

    /// Attach a shared [`PlanCache`]. Parse results are always reusable
    /// through it; compiled plans are reused only when their recorded
    /// catalog epoch matches the executing snapshot's, and never for
    /// sessions with registered UDFs (plans bind per-session UDF closures).
    pub fn set_plan_cache(&mut self, cache: Arc<PlanCache>) {
        self.plan_cache = Some(cache);
    }

    /// The attached plan cache, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// The underlying RDD context.
    pub fn context(&self) -> &RddContext {
        &self.ctx
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Replace the execution configuration (e.g. switch between the Shark
    /// and Hive emulation for a benchmark run).
    pub fn set_exec_config(&mut self, exec: ExecConfig) {
        self.exec = exec;
    }

    /// Set how many result partitions this session's [`QueryStream`]s may
    /// execute ahead of the consumer (0 = serial execution inside
    /// `next_batch`). Serving layers cap this under their admission budget.
    pub fn set_stream_prefetch(&mut self, depth: usize) {
        self.exec.stream_prefetch = depth;
    }

    /// The session's streaming prefetch depth.
    pub fn stream_prefetch(&self) -> usize {
        self.exec.stream_prefetch
    }

    /// Register a user-defined scalar function usable from SQL.
    pub fn register_udf<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&[shark_common::Value]) -> shark_common::Value + Send + Sync + 'static,
    {
        self.udfs.register(name, f);
    }

    /// The UDF registry.
    pub fn udfs(&self) -> &UdfRegistry {
        &self.udfs
    }

    /// Register a base table.
    pub fn register_table(&self, table: TableMeta) -> Arc<TableMeta> {
        self.catalog.register(table)
    }

    /// Load a cached table into the memstore now (otherwise the first scan
    /// loads it lazily partition by partition).
    pub fn load_table(&self, name: &str) -> Result<LoadReport> {
        let table = self.catalog.get(name)?;
        exec::load_table(&self.ctx, &table)
    }

    /// Execute any supported SQL statement.
    pub fn sql(&self, text: &str) -> Result<QueryResult> {
        let statement = self.parse_cached(text)?;
        Ok(self.execute_statement(text, &statement)?.0)
    }

    /// Parse a statement, reusing the plan cache's parse tier when one is
    /// attached (parsing never consults the catalog, so parse reuse is
    /// epoch-independent and safe even for UDF sessions).
    pub fn parse_cached(&self, text: &str) -> Result<Arc<Statement>> {
        match &self.plan_cache {
            Some(cache) if cache.capacity() > 0 => {
                let fingerprint = statement_fingerprint(text);
                if let Some(entry) = cache.statement(fingerprint) {
                    return Ok(entry.statement.clone());
                }
                let statement = parser::parse(text)?;
                Ok(cache
                    .insert_statement(fingerprint, statement)
                    .statement
                    .clone())
            }
            _ => Ok(Arc::new(parser::parse(text)?)),
        }
    }

    /// Execute an already-parsed statement (lets a serving layer parse once
    /// for admission/cache bookkeeping and execute the same AST), returning
    /// the result and whether a cached plan was reused. `text` must be the
    /// statement's original SQL — it keys the plan cache.
    pub fn execute_statement(
        &self,
        text: &str,
        statement: &Statement,
    ) -> Result<(QueryResult, bool)> {
        let result = match statement {
            Statement::Select(stmt) => {
                let planned = self.plan(Some(text), stmt)?;
                let result = exec::execute(&self.ctx, &planned.plan, &self.exec)?;
                return Ok((result, planned.cache_hit));
            }
            Statement::DropTable { name } => {
                self.catalog.drop_table(name)?;
                QueryResult {
                    schema: shark_common::Schema::default(),
                    rows: vec![],
                    sim_seconds: 0.0,
                    real_seconds: 0.0,
                    plan: format!("drop_table({name})"),
                    notes: vec![],
                }
            }
            Statement::CreateTableAs {
                name,
                properties,
                query,
            } => self.create_table_as(name, properties, query)?,
            Statement::Explain { analyze, query } => {
                let planned = self.plan(None, query)?;
                if *analyze {
                    crate::explain::explain_analyze(
                        &self.ctx,
                        &planned.plan,
                        &self.exec,
                        planned.snapshot,
                    )?
                } else {
                    crate::explain::explain_plan(&planned.plan)
                }
            }
        };
        Ok((result, false))
    }

    /// Execute a SELECT incrementally, returning a [`QueryStream`] cursor
    /// that delivers row batches as partitions finish (and, for LIMIT
    /// queries, stops launching partitions once enough rows streamed).
    pub fn sql_stream(&self, text: &str) -> Result<QueryStream> {
        let statement = self.parse_cached(text)?;
        Ok(self.sql_to_stream(text, statement.as_select()?)?.0)
    }

    /// Stream an already-parsed SELECT (the statement-level counterpart of
    /// [`SqlSession::sql_stream`], used by serving layers that parse once
    /// for admission/pinning bookkeeping), returning the cursor and whether
    /// a cached plan was reused. `text` must be the statement's original
    /// SQL — it keys the plan cache. The cursor pins the catalog snapshot
    /// its plan resolved against until it closes, so a concurrent
    /// `DROP TABLE` + recreate can never change what it drains.
    pub fn sql_to_stream(&self, text: &str, stmt: &SelectStmt) -> Result<(QueryStream, bool)> {
        let planned = self.plan(Some(text), stmt)?;
        let stream = exec::execute_stream(&self.ctx, &planned.plan, &self.exec)?;
        Ok((stream.with_snapshot(planned.snapshot), planned.cache_hit))
    }

    /// Execute a query and return its result as an RDD plus schema — the
    /// `sql2rdd` API used to feed ML algorithms (§4.1, Listing 1). The
    /// returned [`TableRdd`] pins the catalog snapshot it was planned
    /// against, since ML pipelines may run it long after planning.
    pub fn sql_to_rdd(&self, text: &str) -> Result<TableRdd> {
        let statement = self.parse_cached(text)?;
        Ok(self.select_to_rdd(text, statement.as_select()?)?.0)
    }

    /// [`SqlSession::sql_to_rdd`] of an already-parsed SELECT, returning the
    /// pipeline and whether a cached plan was reused. `text` must be the
    /// statement's original SQL — it keys the plan cache.
    pub fn select_to_rdd(&self, text: &str, stmt: &SelectStmt) -> Result<(TableRdd, bool)> {
        let planned = self.plan(Some(text), stmt)?;
        let mut table = exec::build_pipeline(&self.ctx, &planned.plan, &self.exec)?;
        table.snapshot = Some(planned.snapshot);
        Ok((table, planned.cache_hit))
    }

    /// The one way a statement gets a plan: pin a snapshot and plan `stmt`
    /// against it — from the cache when `text` is provided, a cache is
    /// attached, the session has no UDFs, and the cached plan's epoch
    /// matches the pinned snapshot's; compiled fresh (and cached for the
    /// next execution) otherwise.
    fn plan(&self, text: Option<&str>, stmt: &SelectStmt) -> Result<Planned> {
        // Pin one snapshot for the statement's whole lifetime: every table
        // resolves once against it, and a concurrent DROP TABLE can neither
        // change what the running plan sees nor reclaim the dropped
        // version's memstore before the statement finishes. A cached plan
        // is only reused at the exact epoch it was compiled at, so it holds
        // the same `Arc<TableMeta>`s this snapshot resolves to.
        let snapshot = self.catalog.snapshot();
        let epoch = snapshot.epoch();
        if shark_obs::active() {
            shark_obs::event("snapshot-pin", &[("epoch", &epoch.to_string())]);
        }
        let cached = match (&self.plan_cache, text) {
            (Some(cache), Some(text)) if self.udfs.is_empty() && cache.capacity() > 0 => {
                let fingerprint = statement_fingerprint(text);
                let entry = match cache.statement(fingerprint) {
                    Some(entry) => entry,
                    None => cache.insert_statement(fingerprint, Statement::Select(stmt.clone())),
                };
                if let Some(plan) = entry.plan_for_epoch(epoch) {
                    cache.record_plan_lookup(Some(&entry), true);
                    if shark_obs::active() {
                        shark_obs::event("plan-cache-hit", &[("epoch", &epoch.to_string())]);
                    }
                    return Ok(Planned {
                        plan,
                        snapshot,
                        cache_hit: true,
                    });
                }
                Some((cache, entry))
            }
            _ => None,
        };
        let plan = {
            let _span = shark_obs::span("plan");
            Arc::new(plan_select(stmt, &snapshot, &self.udfs)?)
        };
        if let Some((cache, entry)) = cached {
            // Record the miss before storing the fresh plan: once the plan
            // is in, `has_plan()` can no longer distinguish a cold miss
            // from a DDL-staled one.
            cache.record_plan_lookup(Some(&entry), false);
            entry.store_plan(epoch, plan.clone());
        }
        Ok(Planned {
            plan,
            snapshot,
            cache_hit: false,
        })
    }

    /// Kill a simulated worker node: removes every block it held (RDD and
    /// memstore partitions, dropped table versions included) and marks it
    /// failed on the cluster. Returns the number of memstore partitions
    /// lost (they will be recovered through lineage on the next scan).
    pub fn fail_node(&self, node: usize) -> usize {
        let lost = self.ctx.fail_node(node);
        self.catalog.forget_lost(&lost)
    }

    fn create_table_as(
        &self,
        name: &str,
        properties: &[(String, String)],
        query: &SelectStmt,
    ) -> Result<QueryResult> {
        // Fail fast before doing any work; the authoritative (atomic) check
        // is the `register_if_absent` below, which closes the window where
        // two concurrent CTAS statements both pass this one.
        if self.catalog.contains(name) {
            return Err(SharkError::Catalog(format!(
                "table '{name}' already exists"
            )));
        }
        let wall = std::time::Instant::now();
        // The source query resolves every table once against the snapshot
        // the plan pins, so a concurrent drop/replace of a source mid-CTAS
        // cannot tear the new table's contents.
        let planned = self.plan(None, query)?;
        let plan = &planned.plan;
        let schema = plan.output_schema.clone();
        // A table's columns are found by name, so a second column with a
        // name already taken could never be read (Hive rejects it too).
        for (i, field) in schema.fields().iter().enumerate() {
            if schema.index_of(&field.name) != Some(i) {
                return Err(SharkError::Analysis(format!(
                    "CREATE TABLE {name} AS SELECT: duplicate column name '{}'",
                    field.name
                )));
            }
        }

        // Stream the query and build the new table's partitions
        // incrementally — hash by the DISTRIBUTE BY column or round-robin —
        // instead of cloning a fully collected result set.
        let mut stream = exec::execute_stream(&self.ctx, plan, &self.exec)?;
        let num_partitions = self.ctx.config().default_partitions.max(1);
        let mut partitions: Vec<Vec<Row>> = vec![Vec::new(); num_partitions];
        let mut row_count = 0u64;
        while let Some(batch) = stream.next_batch()? {
            for row in batch {
                let p = match plan.distribute_by {
                    Some(col) => shark_common::hash::hash_partition(row.get(col), num_partitions),
                    None => row_count as usize % num_partitions,
                };
                partitions[p].push(row);
                row_count += 1;
            }
        }
        let mut sim_seconds = stream.sim_seconds();
        let mut notes = stream.notes().to_vec();
        let plan_desc = stream.plan().to_string();

        let partitions = Arc::new(partitions);
        let gen_parts = partitions.clone();
        let mut table = TableMeta::new(name, schema.clone(), num_partitions, move |p| {
            gen_parts[p].clone()
        })
        .with_row_count_hint(row_count);

        let cache_requested = properties
            .iter()
            .any(|(k, v)| k.eq_ignore_ascii_case("shark.cache") && v.eq_ignore_ascii_case("true"));
        if cache_requested {
            table = table.with_cache(self.ctx.config().cluster.num_nodes);
        }
        if let Some(col) = plan.distribute_by {
            table = table.with_distribute_by(&schema.field(col).name)?;
        }
        if let Some((_, other)) = properties
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("copartition"))
        {
            table = table.with_copartition(other);
        }
        let built = Arc::new(table);
        self.catalog.bind(&built);
        if cache_requested {
            // Load the memstore *before* publishing the table: once it is
            // visible in a snapshot, no query may ever find a cached
            // partition missing and fault it in from lineage — a freshly
            // created table starts fully resident or not at all. The load
            // is invisible to budget enforcement until registration, which
            // matches the old behavior of pinning the registered-but-
            // loading target: either way the bytes become evictable only
            // once the CTAS completes.
            let load = exec::load_table(&self.ctx, &built)?;
            sim_seconds += load.sim_seconds;
            notes.push(format!(
                "loaded {} rows ({} columnar bytes) into the memstore",
                load.rows, load.stored_bytes
            ));
        }
        self.catalog.register_arc_if_absent(built)?;
        Ok(QueryResult {
            schema,
            rows: vec![],
            sim_seconds,
            real_seconds: wall.elapsed().as_secs_f64(),
            plan: format!("create_table_as({name}) <- {plan_desc}"),
            notes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_common::{row, DataType, Schema, Value};
    use shark_rdd::RddConfig;

    fn session() -> SqlSession {
        let ctx = RddContext::new(RddConfig::default());
        let session = SqlSession::new(ctx, ExecConfig::shark());
        // A small sales table: 4 partitions, clustered by day.
        let schema = Schema::from_pairs(&[
            ("day", DataType::Int),
            ("store", DataType::Str),
            ("amount", DataType::Float),
        ]);
        session.register_table(
            TableMeta::new("sales", schema, 4, |p| {
                let stores = ["north", "south", "east"];
                (0..30)
                    .map(|i| row![p as i64, stores[i % 3], (i as f64) + (p as f64) * 0.1])
                    .collect()
            })
            .with_cache(4)
            .with_row_count_hint(120),
        );
        session
    }

    #[test]
    fn select_where_projects_and_filters() {
        let s = session();
        // Load the table so partition statistics exist for map pruning.
        s.load_table("sales").unwrap();
        let r = s
            .sql("SELECT store, amount FROM sales WHERE day = 2 AND amount > 25")
            .unwrap();
        assert_eq!(r.schema.names(), vec!["store", "amount"]);
        assert!(!r.rows.is_empty());
        assert!(r.rows.iter().all(|row| row.get_float(1).unwrap() > 25.0));
        assert!(r.sim_seconds > 0.0);
        // Map pruning should have skipped the three other day-partitions.
        assert!(
            r.notes.iter().any(|n| n.contains("map pruning")),
            "notes: {:?}",
            r.notes
        );
    }

    #[test]
    fn group_by_aggregation_matches_manual_computation() {
        let s = session();
        let r = s
            .sql("SELECT store, COUNT(*) AS c, SUM(amount) AS total FROM sales GROUP BY store ORDER BY store")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.schema.names(), vec!["store", "c", "total"]);
        // 4 partitions x 30 rows / 3 stores = 40 rows per store.
        for row in &r.rows {
            assert_eq!(row.get_int(1).unwrap(), 40);
        }
        let east: f64 = r.rows[0].get_float(2).unwrap();
        assert!(east > 0.0);
    }

    #[test]
    fn a_global_aggregate_over_no_rows_is_one_row_in_every_engine() {
        let empty = vec![Value::Int(0), Value::Null, Value::Null, Value::Int(0)];
        for exec in [
            ExecConfig::shark(),
            ExecConfig {
                vectorized: false,
                ..ExecConfig::shark()
            },
            ExecConfig::shark_disk(),
            ExecConfig::hive(),
        ] {
            let mut s = session();
            s.set_exec_config(exec.clone());
            s.load_table("sales").unwrap();
            let case = format!("{:?}, vectorized: {}", exec.mode, exec.vectorized);
            let select =
                "SELECT COUNT(*), AVG(amount), MAX(store), COUNT(DISTINCT store) FROM sales";
            // A filter no row passes, and one that map pruning answers by
            // skipping every partition (on a memstore scan).
            for filter in ["WHERE day % 1000 = 1001", "WHERE day > 100"] {
                let r = s.sql(&format!("{select} {filter}")).unwrap();
                assert_eq!(r.rows, vec![Row::new(empty.clone())], "{case}: {filter}");
                let having = s
                    .sql(&format!("{select} {filter} HAVING COUNT(*) > 0"))
                    .unwrap();
                assert!(having.rows.is_empty(), "{case}: {filter}");
            }
            let pruned = s.sql(&format!("{select} WHERE day > 100")).unwrap();
            if exec.mode == ExecConfig::shark().mode {
                assert!(
                    pruned.notes.iter().any(|n| n.contains("map pruning")),
                    "{case}: {:?}",
                    pruned.notes
                );
            }
            // With rows, still exactly one.
            let r = s.sql(&format!("{select} WHERE day = 1")).unwrap();
            assert_eq!(r.rows.len(), 1, "{case}");
            assert_eq!(r.rows[0].get_int(0).unwrap(), 30, "{case}");
        }
    }

    #[test]
    fn order_by_and_limit() {
        let s = session();
        let r = s
            .sql("SELECT day, amount FROM sales ORDER BY amount DESC LIMIT 5")
            .unwrap();
        assert_eq!(r.rows.len(), 5);
        let amounts: Vec<f64> = r.rows.iter().map(|r| r.get_float(1).unwrap()).collect();
        let mut sorted = amounts.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(amounts, sorted);
    }

    #[test]
    fn global_count_and_limit_pushdown() {
        let s = session();
        let r = s.sql("SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(r.rows[0].get_int(0).unwrap(), 120);
        let r = s.sql("SELECT store FROM sales LIMIT 3").unwrap();
        assert_eq!(r.rows.len(), 3);
        assert!(r.notes.iter().any(|n| n.contains("limit pushed down")));
    }

    #[test]
    fn having_without_group_by_filters_the_one_group() {
        let s = session();
        let rows = |sql: &str| s.sql(sql).unwrap().rows;
        let r = rows("SELECT COUNT(*) FROM sales HAVING COUNT(*) > 1");
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].get_int(0).unwrap(), 120);
        assert!(rows("SELECT COUNT(*) FROM sales HAVING COUNT(*) > 120").is_empty());
        // HAVING alone makes the statement an aggregation: one row, not
        // one per input row.
        assert_eq!(rows("SELECT 1 FROM sales HAVING COUNT(*) > 1").len(), 1);
        assert!(s
            .sql("SELECT store FROM sales HAVING COUNT(*) > 1")
            .is_err());
    }

    #[test]
    fn streamed_order_by_merge_matches_collected_result() {
        let s = session();
        s.load_table("sales").unwrap();
        let query = "SELECT day, amount FROM sales ORDER BY amount DESC";
        let collected = s.sql(query).unwrap();
        let mut stream = s.sql_stream(query).unwrap().with_batch_size(7);
        let mut rows = Vec::new();
        while let Some(batch) = stream.next_batch().unwrap() {
            assert!(batch.len() <= 7);
            rows.extend(batch);
        }
        assert_eq!(rows, collected.rows);
        assert_eq!(stream.progress().rows_streamed, collected.rows.len() as u64);
        // Every partition had to run before the merge could start.
        assert_eq!(stream.progress().partitions_streamed, 4);
    }

    #[test]
    fn streamed_limit_executes_fewer_partitions() {
        let s = session();
        s.load_table("sales").unwrap();
        let mut stream = s.sql_stream("SELECT store FROM sales LIMIT 3").unwrap();
        let mut rows = Vec::new();
        while let Some(batch) = stream.next_batch().unwrap() {
            rows.extend(batch);
        }
        assert_eq!(rows.len(), 3);
        let progress = stream.progress();
        assert_eq!(progress.partitions_total, 4);
        assert!(
            progress.partitions_streamed < progress.partitions_total,
            "limit should stop partition launches early: {progress:?}"
        );
        assert_eq!(progress.rows_streamed, 3);
        assert!(stream.is_exhausted());
        assert!(stream
            .notes()
            .iter()
            .any(|n| n.contains("stream: stopped after")));
    }

    #[test]
    fn streaming_reports_first_row_before_completion() {
        // More partitions than the simulated cluster has task slots: the
        // whole result stage takes several waves, the first row one task.
        let s = correlated_session(32, 50);
        let mut stream = s.sql_stream("SELECT v, tag FROM ordered_t").unwrap();
        let first = stream.next_batch().unwrap().unwrap();
        assert!(!first.is_empty());
        assert_eq!(stream.progress().partitions_at_first_row, Some(1));
        assert!(stream.progress().time_to_first_row.is_some());
        while stream.next_batch().unwrap().is_some() {}
        assert_eq!(stream.progress().partitions_streamed, 32);
        let ttfr_sim = stream.sim_seconds_to_first_row().unwrap();
        assert!(
            ttfr_sim < stream.sim_seconds(),
            "first row ({ttfr_sim}s) must arrive before the stream completes ({}s)",
            stream.sim_seconds()
        );
    }

    /// A table whose sort key is perfectly correlated with the partition
    /// index, so partition statistics can prove top-k early termination.
    fn correlated_session(partitions: usize, rows_per_partition: usize) -> SqlSession {
        let ctx = RddContext::new(RddConfig::default());
        let session = SqlSession::new(ctx, ExecConfig::shark());
        let schema = Schema::from_pairs(&[("v", DataType::Int), ("tag", DataType::Str)]);
        session.register_table(
            TableMeta::new("ordered_t", schema, partitions, move |p| {
                (0..rows_per_partition)
                    .map(|i| row![(p * rows_per_partition + i) as i64, "x"])
                    .collect()
            })
            .with_cache(4)
            .with_row_count_hint((partitions * rows_per_partition) as u64),
        );
        session
    }

    #[test]
    fn topk_stream_executes_at_most_ceil_limit_over_partition_rows_partitions() {
        for prefetch in [0usize, 2] {
            let mut s = correlated_session(4, 50);
            s.set_stream_prefetch(prefetch);
            s.load_table("ordered_t").unwrap();
            let limit = 3usize;
            let mut stream = s
                .sql_stream("SELECT v FROM ordered_t ORDER BY v LIMIT 3")
                .unwrap();
            let mut rows = Vec::new();
            while let Some(batch) = stream.next_batch().unwrap() {
                rows.extend(batch);
            }
            let got: Vec<i64> = rows.iter().map(|r| r.get_int(0).unwrap()).collect();
            assert_eq!(got, vec![0, 1, 2], "prefetch={prefetch}");
            let progress = stream.progress();
            // The whole limit fits in one partition's rows; the statistics
            // must prove the other partitions cannot contribute.
            let bound = limit.div_ceil(50);
            assert!(
                progress.partitions_streamed <= bound,
                "prefetch={prefetch}: streamed {}/{} partitions, bound {bound}",
                progress.partitions_streamed,
                progress.partitions_total
            );
            assert!(
                progress.partitions_streamed < progress.partitions_total,
                "top-k must execute fewer partitions than the table has"
            );
            assert!(
                stream.notes().iter().any(|n| n.contains("top-k pushdown")),
                "{:?}",
                stream.notes()
            );
        }
    }

    #[test]
    fn topk_stream_reaches_first_row_in_less_simulated_time_than_full_collect() {
        // More partitions than the simulated cluster has task slots, so the
        // full-collect result stage takes several waves while the top-k
        // stream's first row needs a single task.
        let mut s = correlated_session(32, 50);
        s.set_stream_prefetch(0);
        s.load_table("ordered_t").unwrap();
        let full_sort = s.sql("SELECT v FROM ordered_t ORDER BY v DESC").unwrap();
        let mut stream = s
            .sql_stream("SELECT v FROM ordered_t ORDER BY v DESC LIMIT 5")
            .unwrap();
        let first = stream.next_batch().unwrap().unwrap();
        assert_eq!(first[0].get_int(0).unwrap(), 32 * 50 - 1);
        let ttfr_sim = stream.sim_seconds_to_first_row().unwrap();
        assert!(
            ttfr_sim < full_sort.sim_seconds,
            "top-k first row at {ttfr_sim}s vs full collect {}s",
            full_sort.sim_seconds
        );
        while stream.next_batch().unwrap().is_some() {}
        let streamed_rows: u64 = stream.progress().rows_streamed;
        assert_eq!(streamed_rows, 5);
        assert_eq!(full_sort.rows[..5], first[..], "same five rows");
    }

    #[test]
    fn stream_failure_latches_on_serial_and_prefetched_paths() {
        for prefetch in [0usize, 3] {
            let mut s = session();
            s.set_stream_prefetch(prefetch);
            // Partition 0 holds days < 1; the UDF explodes on any later
            // partition, so the first batch succeeds and the failure must
            // surface on the *next* next_batch call.
            s.register_udf("explode_after_p0", |args| {
                let day = args[0].as_float().unwrap_or(0.0) as i64;
                if day >= 1 {
                    panic!("boom on day {day}");
                }
                args[0].clone()
            });
            let mut stream = s
                .sql_stream("SELECT explode_after_p0(day) FROM sales")
                .unwrap();
            let first = stream
                .next_batch()
                .unwrap()
                .expect("partition 0 must deliver");
            assert_eq!(first.len(), 30, "prefetch={prefetch}");
            let err = stream.next_batch().unwrap_err();
            assert!(
                err.to_string().contains("panicked"),
                "prefetch={prefetch}: {err}"
            );
            // Latched: the stream never resumes past the failed partition.
            assert!(stream.next_batch().unwrap().is_none());
            assert!(stream.next_batch().unwrap().is_none());
            assert!(stream.is_exhausted());
        }
    }

    #[test]
    fn prefetched_stream_matches_serial_stream_and_records_hits() {
        let s = session();
        s.load_table("sales").unwrap();
        let query = "SELECT day, store, amount FROM sales";
        let serial: Vec<_> = {
            let mut stream = s.sql_stream(query).unwrap().with_prefetch(0);
            let mut rows = Vec::new();
            while let Some(batch) = stream.next_batch().unwrap() {
                rows.extend(batch);
            }
            assert_eq!(stream.progress().prefetch_hits, 0);
            rows
        };
        let mut stream = s.sql_stream(query).unwrap().with_prefetch(4);
        assert_eq!(stream.prefetch(), 4);
        let mut rows = Vec::new();
        while let Some(batch) = stream.next_batch().unwrap() {
            rows.extend(batch);
        }
        assert_eq!(rows, serial);
        assert_eq!(stream.progress().partitions_streamed, 4);
    }

    #[test]
    fn create_table_as_and_query_it() {
        let s = session();
        let r = s
            .sql(
                "CREATE TABLE big_sales TBLPROPERTIES(\"shark.cache\" = \"true\") AS \
                 SELECT day, store, amount FROM sales WHERE amount > 10 DISTRIBUTE BY store",
            )
            .unwrap();
        assert!(r.notes.iter().any(|n| n.contains("memstore")));
        assert!(s.catalog().contains("big_sales"));
        let r2 = s.sql("SELECT COUNT(*) FROM big_sales").unwrap();
        let expected = s
            .sql("SELECT COUNT(*) FROM sales WHERE amount > 10")
            .unwrap();
        assert_eq!(
            r2.rows[0].get_int(0).unwrap(),
            expected.rows[0].get_int(0).unwrap()
        );
        s.sql("DROP TABLE big_sales").unwrap();
        assert!(!s.catalog().contains("big_sales"));
    }

    #[test]
    fn ctas_of_min_and_max_reads_back_the_rows_the_select_returns() {
        let mut s = session();
        s.register_udf("half", |args| {
            args[0]
                .as_float()
                .map_or(Value::Null, |v| Value::Float(v / 2.0))
        });
        let schema = Schema::from_pairs(&[
            ("g", DataType::Int),
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
            ("d", DataType::Date),
        ]);
        s.register_table(TableMeta::new("typed", schema, 3, |p| {
            (0..20i64)
                .map(|n| {
                    let id = p as i64 * 20 + n;
                    if id % 7 == 0 {
                        return row![id % 4, Value::Null, Value::Null, Value::Null, Value::Null];
                    }
                    row![
                        id % 4,
                        id * 3 - 50,
                        id as f64 / 8.0 - 2.0,
                        ["east", "north", "west"][(id % 3) as usize],
                        Value::Date(18_000 + (id * 11 % 40) as i32)
                    ]
                })
                .collect()
        }));
        let select = "SELECT g, MIN(i), MAX(i), MIN(f), MAX(f), MIN(s), MAX(s), MIN(d), MAX(d), \
                      MIN(COALESCE(f, 0)), MAX(IF(i > 0, f, 0)), MAX(half(i)), MIN(d - d) \
                      FROM typed GROUP BY g";
        let expected = s.sql(select).unwrap();
        let types: Vec<DataType> = expected
            .schema
            .fields()
            .iter()
            .map(|f| f.data_type)
            .collect();
        use DataType::{Date, Float, Int, Str};
        assert_eq!(
            types,
            [Int, Int, Int, Float, Float, Str, Str, Date, Date, Float, Float, Float, Int]
        );
        let sorted = |mut rows: Vec<Row>| {
            rows.sort_by_key(|r| r.get_int(0).unwrap());
            rows
        };
        let expected = sorted(expected.rows);
        for (table, cached) in [("mm_cached", true), ("mm_plain", false)] {
            s.sql(&format!(
                "CREATE TABLE {table} TBLPROPERTIES(\"shark.cache\" = \"{cached}\") AS {select}"
            ))
            .unwrap();
            let back = s.sql(&format!("SELECT * FROM {table}")).unwrap();
            assert_eq!(sorted(back.rows), expected, "{table}");
        }
    }

    #[test]
    fn count_distinct_over_mixed_numerics_does_not_depend_on_row_order() {
        // `0`, `-0.0` and `0.0` are one value, so however the rows arrive,
        // `COALESCE(i, f)` has one distinct value over them.
        let rows = [
            row![0i64, Value::Null],
            row![Value::Null, -0.0],
            row![Value::Null, 0.0],
        ];
        let schema = Schema::from_pairs(&[("i", DataType::Int), ("f", DataType::Float)]);
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let s = session();
            let ordered: Vec<Row> = order.iter().map(|&i| rows[i].clone()).collect();
            s.register_table(TableMeta::new("zeros", schema.clone(), 1, move |_| {
                ordered.clone()
            }));
            let r = s
                .sql("SELECT COUNT(DISTINCT COALESCE(i, f)) FROM zeros")
                .unwrap();
            assert_eq!(r.rows[0].get_int(0).unwrap(), 1, "row order {order:?}");
        }
    }

    #[test]
    fn a_group_keeps_its_first_seen_key_and_its_sums_in_every_path() {
        // `COALESCE(i, f)` is `Int(3)` in partition 0 and `Float(3.0)` in
        // partition 1: one group, keyed by the value seen first. `-0.0`,
        // `0.0` and `0` are one group too, first seen as `-0.0`; NaN and
        // NULL are a group each.
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("v", DataType::Float),
        ]);
        let table = || {
            TableMeta::new("keys", schema.clone(), 3, |p| {
                let keys: [(Value, Value); 5] = match p {
                    0 => [
                        (Value::Int(3), Value::Null),
                        (Value::Null, Value::Float(-0.0)),
                        (Value::Null, Value::Float(f64::NAN)),
                        (Value::Null, Value::Null),
                        (Value::Int(3), Value::Null),
                    ],
                    1 => [
                        (Value::Null, Value::Float(3.0)),
                        (Value::Null, Value::Float(0.0)),
                        (Value::Int(0), Value::Null),
                        (Value::Null, Value::Float(f64::NAN)),
                        (Value::Null, Value::Null),
                    ],
                    _ => [
                        (Value::Null, Value::Float(0.0)),
                        (Value::Null, Value::Float(3.0)),
                        (Value::Null, Value::Float(-0.0)),
                        (Value::Null, Value::Null),
                        (Value::Int(3), Value::Null),
                    ],
                };
                (0..40)
                    .map(|n| {
                        let (i, f) = keys[n % 5].clone();
                        let v = (p * 40 + n) as f64 * 0.1 + 1.0 / 3.0;
                        Row::new(vec![i, f, Value::Float(v)])
                    })
                    .collect()
            })
            .with_cache(4)
            .with_row_count_hint(120)
        };
        let select = "SELECT COALESCE(i, f) AS k, COUNT(*), SUM(v), AVG(v), MIN(v) \
                      FROM keys GROUP BY COALESCE(i, f)";
        let run = |exec: ExecConfig| {
            let s = SqlSession::new(RddContext::new(RddConfig::default()), exec);
            s.register_table(table());
            s.load_table("keys").unwrap();
            s.sql(select).unwrap().rows
        };
        let vectorized = run(ExecConfig::shark());
        let row = run(ExecConfig {
            vectorized: false,
            ..ExecConfig::shark()
        });
        let bits = |rows: &[Row]| -> Vec<(String, i64, [u64; 3])> {
            rows.iter()
                .map(|r| {
                    let float = |c: usize| r.get(c).as_float().unwrap().to_bits();
                    let key = format!("{:?}", r.get(0));
                    (key, r.get_int(1).unwrap(), [float(2), float(3), float(4)])
                })
                .collect()
        };
        assert_eq!(bits(&vectorized), bits(&row));
        // SUM, AVG and MIN of `v` per group, as the engine summed them
        // before the aggregation shuffle moved to flat group blocks.
        let expected: [(&str, i64, [u64; 3]); 4] = [
            (
                "Float(-0.0)",
                40,
                [
                    4643635773908853282,
                    4619571070774975747,
                    4601477859272014780,
                ],
            ),
            (
                "Float(NaN)",
                16,
                [
                    4634579316533187925,
                    4616564918023705941,
                    4602979059147804945,
                ],
            ),
            (
                "Int(3)",
                40,
                [
                    4643018874584895763,
                    4618737904843912207,
                    4599676419421066581,
                ],
            ),
            (
                "Null",
                24,
                [
                    4639622409865920512,
                    4618910542829628075,
                    4603879779073279044,
                ],
            ),
        ];
        let expected: Vec<(String, i64, [u64; 3])> = expected
            .iter()
            .map(|&(key, count, sums)| (key.to_string(), count, sums))
            .collect();
        for exec in [
            ExecConfig::shark(),
            ExecConfig::shark_static(),
            ExecConfig::shark_disk(),
            ExecConfig::hive(),
        ] {
            let mut groups = bits(&run(exec.clone()));
            groups.sort();
            assert_eq!(groups, expected, "{:?}", exec.mode);
        }
    }

    #[test]
    fn udfs_usable_in_queries() {
        let mut s = session();
        s.register_udf("bucket", |args| {
            Value::Int(args[0].as_float().unwrap_or(0.0) as i64 / 10)
        });
        let r = s
            .sql("SELECT bucket(amount), COUNT(*) FROM sales GROUP BY bucket(amount)")
            .unwrap();
        assert!(r.rows.len() >= 2);
    }

    #[test]
    fn hive_mode_is_slower_than_shark_for_the_same_query() {
        let s = session();
        s.load_table("sales").unwrap();
        s.context().reset_simulation();
        let shark = s
            .sql("SELECT store, SUM(amount) FROM sales GROUP BY store")
            .unwrap();
        // Switch to the Hive emulation on a Hadoop-profile context: build a
        // fresh session to swap the cluster cost profile.
        let hive_ctx = RddContext::new(RddConfig {
            cluster: shark_cluster::ClusterConfig::small(4, 2)
                .with_profile(shark_cluster::EngineProfile::hadoop()),
            ..RddConfig::default()
        });
        let hive = SqlSession::new(hive_ctx, ExecConfig::hive());
        let schema = Schema::from_pairs(&[
            ("day", DataType::Int),
            ("store", DataType::Str),
            ("amount", DataType::Float),
        ]);
        hive.register_table(TableMeta::new("sales", schema, 4, |p| {
            let stores = ["north", "south", "east"];
            (0..30)
                .map(|i| row![p as i64, stores[i % 3], (i as f64) + (p as f64) * 0.1])
                .collect()
        }));
        let hive_result = hive
            .sql("SELECT store, SUM(amount) FROM sales GROUP BY store")
            .unwrap();
        assert_eq!(hive_result.rows.len(), shark.rows.len());
        assert!(
            hive_result.sim_seconds > shark.sim_seconds * 5.0,
            "hive {} vs shark {}",
            hive_result.sim_seconds,
            shark.sim_seconds
        );
    }

    #[test]
    fn sql_to_rdd_feeds_further_processing() {
        let s = session();
        let table = s
            .sql_to_rdd("SELECT amount FROM sales WHERE store = 'north'")
            .unwrap();
        assert_eq!(table.schema.names(), vec!["amount"]);
        let total: f64 = table
            .rdd
            .map(|r| r.get_float(0).unwrap_or(0.0))
            .reduce(|a, b| a + b)
            .unwrap()
            .unwrap_or(0.0);
        assert!(total > 0.0);
    }

    #[test]
    fn sql_to_rdd_applies_no_order_by_or_top_k() {
        let s = session();
        s.load_table("sales").unwrap();
        let table = s
            .sql_to_rdd("SELECT day, amount FROM sales ORDER BY amount DESC LIMIT 3")
            .unwrap();
        let all = s.sql("SELECT day, amount FROM sales").unwrap();
        assert_eq!(all.rows.len(), 120);
        assert_eq!(table.rdd.collect().unwrap(), all.rows);
    }

    #[test]
    fn ctas_with_duplicate_column_names_is_rejected_before_it_runs() {
        let s = session();
        s.context().clear_job_history();
        for sql in [
            "CREATE TABLE both_days AS SELECT a.day, b.day FROM sales a JOIN sales b ON a.store = b.store",
            "CREATE TABLE both_days AS SELECT day, amount AS DAY FROM sales",
        ] {
            let err = s.sql(sql).err().map(|e| e.to_string());
            assert!(
                err.as_deref().is_some_and(|e| e.contains("duplicate column name")),
                "{sql}: {err:?}"
            );
        }
        assert!(!s.catalog().contains("both_days"));
        assert!(s.context().job_history().is_empty());
    }

    #[test]
    fn node_failure_recovers_through_lineage() {
        let s = session();
        s.load_table("sales").unwrap();
        let before = s.sql("SELECT COUNT(*) FROM sales").unwrap();
        let lost = s.fail_node(1);
        assert!(lost > 0);
        let after = s.sql("SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(
            before.rows[0].get_int(0).unwrap(),
            after.rows[0].get_int(0).unwrap()
        );
    }

    #[test]
    fn node_failure_reaches_a_dropped_version_an_open_cursor_pins() {
        // 8 partitions on 4 nodes: node 0 holds partitions 0 and 4.
        let s = SqlSession::new(RddContext::local(), ExecConfig::shark());
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        s.register_table(
            TableMeta::new("t", schema, 8, |p| {
                (0..10).map(|i| row![(p * 10 + i) as i64]).collect()
            })
            .with_cache(4),
        );
        s.load_table("t").unwrap();
        let mem = s.catalog().get("t").unwrap().cached.clone().unwrap();
        let mut cursor = s.sql_stream("SELECT k FROM t").unwrap();
        s.sql("DROP TABLE t").unwrap();
        assert!(mem.is_retired());

        assert_eq!(s.fail_node(0), 2);
        let on_node_0: Vec<usize> = (0..8)
            .filter(|&p| mem.placement(p) == 0 && mem.is_loaded(p))
            .collect();
        assert!(on_node_0.is_empty(), "still resident: {on_node_0:?}");
        assert!(mem.stats(0).is_none() && mem.stats(4).is_none());

        // The retired version reads its lost partitions through lineage.
        let mut rows = Vec::new();
        while let Some(batch) = cursor.next_batch().unwrap() {
            rows.extend(batch.iter().map(|r| r.get_int(0).unwrap()));
        }
        rows.sort_unstable();
        assert_eq!(rows, (0..80).collect::<Vec<i64>>());
        assert!(!mem.is_loaded(0), "read-through must not repopulate");
    }

    #[test]
    fn sessions_sharing_a_catalog_see_each_others_tables() {
        let s1 = session();
        let s2 = SqlSession::with_catalog(
            s1.context().clone(),
            ExecConfig::shark(),
            s1.catalog().clone(),
        );
        // s2 sees the table s1 registered...
        let r = s2.sql("SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(r.rows[0].get_int(0).unwrap(), 120);
        // ...and a table created through s2 is visible from s1.
        s2.sql("CREATE TABLE north AS SELECT day, amount FROM sales WHERE store = 'north'")
            .unwrap();
        assert!(s1.catalog().contains("north"));
        let r = s1.sql("SELECT COUNT(*) FROM north").unwrap();
        assert_eq!(r.rows[0].get_int(0).unwrap(), 40);
        // UDFs stay per-session.
        let mut s3 = SqlSession::with_catalog(
            s1.context().clone(),
            ExecConfig::shark(),
            s1.catalog().clone(),
        );
        s3.register_udf("twice", |args| {
            Value::Float(args[0].as_float().unwrap_or(0.0) * 2.0)
        });
        assert!(s3.sql("SELECT twice(amount) FROM sales LIMIT 1").is_ok());
        assert!(s1.sql("SELECT twice(amount) FROM sales LIMIT 1").is_err());
    }

    #[test]
    fn streaming_cursor_is_isolated_from_concurrent_ddl() {
        let s1 = session();
        s1.load_table("sales").unwrap();
        let query = "SELECT day, store, amount FROM sales";
        let expected = s1.sql(query).unwrap();
        let mut stream = s1.sql_stream(query).unwrap();
        let first = stream.next_batch().unwrap().unwrap();

        // Another session over the same catalog drops and recreates the
        // table mid-stream.
        let s2 = SqlSession::with_catalog(
            s1.context().clone(),
            ExecConfig::shark(),
            s1.catalog().clone(),
        );
        let old_version = s1.catalog().get("sales").unwrap();
        s2.sql("DROP TABLE sales").unwrap();
        let schema = Schema::from_pairs(&[("day", DataType::Int)]);
        s2.register_table(TableMeta::new("sales", schema, 1, |_| vec![row![7i64]]));

        // The dropped version stays resident (deferred) while the cursor
        // pins its snapshot, and nothing rebuilds into it.
        assert!(s1.catalog().deferred_drop_bytes() > 0);
        assert_eq!(s1.catalog().reclaim_unreferenced(), 0);

        // New queries see the one-row replacement; the cursor drains the
        // pinned version byte-identically to the pre-DDL blocking result.
        let replaced = s2.sql("SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(replaced.rows[0].get_int(0).unwrap(), 1);
        let mut rows = first;
        while let Some(batch) = stream.next_batch().unwrap() {
            rows.extend(batch);
        }
        assert_eq!(rows, expected.rows);
        assert_eq!(
            old_version.cached.as_ref().unwrap().rebuilds(),
            0,
            "no partition of a dropped table may be rebuilt"
        );

        // Exhausting the cursor released its snapshot: the old version is
        // now reclaimable, and reclamation evicts its partitions.
        assert_eq!(s1.catalog().reclaim_unreferenced(), 1);
        let records = s1.catalog().drain_reclaimed();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "sales");
        assert_eq!(old_version.cached.as_ref().unwrap().memory_bytes(), 0);
        assert_eq!(s1.catalog().deferred_drop_bytes(), 0);
    }

    #[test]
    fn statements_report_their_referenced_tables() {
        let stmt = crate::parser::parse(
            "SELECT a.x FROM alpha a JOIN beta b ON a.x = b.x JOIN Alpha c ON a.x = c.x",
        )
        .unwrap();
        assert_eq!(stmt.referenced_tables(), vec!["alpha", "beta"]);
        let ctas = crate::parser::parse("CREATE TABLE t AS SELECT x FROM source").unwrap();
        assert_eq!(ctas.referenced_tables(), vec!["source"]);
        let drop = crate::parser::parse("DROP TABLE t").unwrap();
        assert!(drop.referenced_tables().is_empty());
    }

    #[test]
    fn errors_are_reported() {
        let s = session();
        assert!(s.sql("SELECT * FROM missing").is_err());
        assert!(s.sql("SELECT missing_col FROM sales").is_err());
        assert!(s.sql("CREATE TABLE sales AS SELECT * FROM sales").is_err());
        assert!(s.sql("DROP TABLE nope").is_err());
    }
}
