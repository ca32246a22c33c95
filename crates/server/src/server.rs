//! The multi-session query server.
//!
//! [`SharkServer`] owns exactly one [`RddContext`] (simulated cluster +
//! shuffle + the block store), one shared [`Catalog`] (tables, whose
//! columnar memtables live in the context's block store), an admission
//! controller and a memory-budgeted memstore
//! manager. [`SharkServer::session`] hands out cheap [`SessionHandle`]s;
//! each handle owns a private `SqlSession` (its own UDFs and exec config)
//! over the shared state, so queries from different sessions read the same
//! cached tables and execute concurrently on their callers' threads, gated
//! only by admission control.
//!
//! When a spill directory is configured the server is also **durable**:
//! catalog DDL and spill-tier movements are journaled to a write-ahead log
//! (see [`crate::wal`]) at query boundaries, periodically folded into a
//! catalog snapshot + spill manifest, and [`SharkServer::restore`] brings
//! a new process back to the same catalog epoch with demoted partitions
//! re-adopted — servable at I/O cost instead of recomputed from lineage.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use shark_common::{Result, Row, Schema, SharkError};
use shark_rdd::{RddConfig, RddContext};
use shark_sql::ast::{SelectStmt, Statement};
use shark_sql::exec::LoadReport;
use shark_sql::{
    Catalog, ExecConfig, PlanCache, QueryResult, QueryStream, RowGenerator, SqlSession,
    StreamProgress, TableMeta, TableRdd,
};

use crate::admission::{AdmissionController, AdmissionPermit};
use crate::memstore::{EvictionEvent, MemstoreManager};
use crate::metrics::{QueryLog, QueryMetrics, ServerMetrics, ServerReport};
use crate::net::{NetConfig, NetServer};
use crate::spill::{SpillEvent, SpillManager};
use crate::wal::{
    read_manifest, read_snapshot, replay_wal, write_manifest, write_snapshot, ManifestEntry,
    SnapshotFile, SpillManifest, TableRecord, WalRecord, WalWriter, MANIFEST_FILE, SNAPSHOT_FILE,
    WAL_FILE,
};

/// Configuration of a [`SharkServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The shared cluster/context configuration.
    pub rdd: RddConfig,
    /// Default execution configuration new sessions start with.
    pub exec: ExecConfig,
    /// Memory budget for cached tables + cached RDDs, in (in-process) bytes.
    pub memory_budget_bytes: u64,
    /// Per-session memory quota, layered under the global budget: each
    /// session is charged a proportional share of every table it loaded,
    /// created or faulted in, and a session over its quota has *its own*
    /// least-recently-used partitions evicted first. `u64::MAX` = unlimited.
    pub session_mem_quota_bytes: u64,
    /// Maximum queries executing simultaneously.
    pub max_concurrent_queries: usize,
    /// Maximum queries waiting behind them before rejection.
    pub max_queued_queries: usize,
    /// Aggregate prefetch budget: the sum of the prefetch depths of all
    /// open streaming cursors may not exceed this, so speculative work
    /// stays bounded by the same admission story that bounds in-flight
    /// queries. A cursor asking for more is granted what remains (possibly
    /// 0 — serial streaming, never rejection).
    pub max_total_prefetch: usize,
    /// Worker threads of the process-wide work-stealing executor every
    /// query's tasks run on. `None` leaves the size to the
    /// `SHARK_EXECUTOR_THREADS` environment variable (falling back to the
    /// host's parallelism). The pool is process-wide and sized once: the
    /// first server to start wins, later values are ignored.
    pub executor_threads: Option<usize>,
    /// Directory for the spill-to-disk demotion tier. When set, budget and
    /// quota evictions *demote* table partitions — the compressed columnar
    /// form is written here and faulted back in by the next scan at I/O
    /// cost — instead of dropping them to lineage recompute. `None`
    /// disables the tier (the pre-spill behaviour). An unusable directory
    /// also just disables the tier; it never fails queries.
    pub spill_dir: Option<PathBuf>,
    /// Disk budget for the spill tier. When spilled frames exceed it, the
    /// coldest are deleted (those partitions degrade to lineage recompute).
    pub spill_budget_bytes: u64,
    /// How many catalog-WAL records may accumulate before the server folds
    /// them into a fresh snapshot + manifest checkpoint. Lower values bound
    /// replay work at restore; higher values amortize checkpoint I/O.
    /// Only meaningful when `spill_dir` is set (the WAL lives there).
    pub wal_snapshot_every_records: u64,
    /// Capacity of the shared prepared-statement / plan cache (distinct
    /// statements). Every session participates: repeated statements skip
    /// parse and — at an unchanged catalog epoch — planning too. `0`
    /// disables the cache.
    pub plan_cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            rdd: RddConfig::default(),
            exec: ExecConfig::shark(),
            memory_budget_bytes: u64::MAX,
            session_mem_quota_bytes: u64::MAX,
            max_concurrent_queries: 4,
            max_queued_queries: 64,
            max_total_prefetch: 8,
            executor_threads: None,
            spill_dir: None,
            spill_budget_bytes: u64::MAX,
            wal_snapshot_every_records: 256,
            plan_cache_capacity: 128,
        }
    }
}

impl ServerConfig {
    /// Set the memory budget.
    pub fn with_memory_budget(mut self, bytes: u64) -> ServerConfig {
        self.memory_budget_bytes = bytes;
        self
    }

    /// Set the per-session memory quota.
    pub fn with_session_quota(mut self, bytes: u64) -> ServerConfig {
        self.session_mem_quota_bytes = bytes;
        self
    }

    /// Set the admission bounds.
    pub fn with_admission(mut self, concurrent: usize, queued: usize) -> ServerConfig {
        self.max_concurrent_queries = concurrent;
        self.max_queued_queries = queued;
        self
    }

    /// Set the aggregate streaming-prefetch budget.
    pub fn with_prefetch_budget(mut self, total: usize) -> ServerConfig {
        self.max_total_prefetch = total;
        self
    }

    /// Size the process-wide work-stealing executor (first server wins).
    pub fn with_executor_threads(mut self, threads: usize) -> ServerConfig {
        self.executor_threads = Some(threads);
        self
    }

    /// Enable the spill-to-disk demotion tier under `dir`.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> ServerConfig {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Cap the spill tier's disk usage.
    pub fn with_spill_budget(mut self, bytes: u64) -> ServerConfig {
        self.spill_budget_bytes = bytes;
        self
    }

    /// Checkpoint the catalog WAL every `records` committed records.
    pub fn with_wal_snapshot_every(mut self, records: u64) -> ServerConfig {
        self.wal_snapshot_every_records = records;
        self
    }

    /// Size the shared prepared-statement / plan cache (0 disables it).
    pub fn with_plan_cache_capacity(mut self, statements: usize) -> ServerConfig {
        self.plan_cache_capacity = statements;
        self
    }
}

/// The durable-catalog machinery of one server: the open WAL appender plus
/// the checkpoint cadence. Lives behind one mutex so WAL batches from
/// concurrent query boundaries serialize — the journals are drained *under*
/// this lock, which is what keeps a table's `Created` record ahead of its
/// partitions' `Demoted` records in the log.
pub(crate) struct Durability {
    /// Directory the WAL, snapshot and manifest live in (the spill dir).
    dir: PathBuf,
    /// The open WAL appender (recreated fresh by every checkpoint).
    pub(crate) wal: WalWriter,
    /// Fold the WAL into a snapshot after this many committed records.
    snapshot_every: u64,
    /// Records committed since the last checkpoint.
    records_since_snapshot: u64,
}

/// What a server shares with its sessions and its TCP frontend. The
/// metrics table ([`crate::metrics`]) reads it when projecting a report.
pub(crate) struct ServerShared {
    pub(crate) ctx: RddContext,
    pub(crate) catalog: Arc<Catalog>,
    exec: ExecConfig,
    pub(crate) admission: AdmissionController,
    pub(crate) memstore: MemstoreManager,
    /// The server's metrics table, registered in the context's scope.
    pub(crate) metrics: Arc<ServerMetrics>,
    log: QueryLog,
    next_session_id: AtomicU64,
    next_query_id: AtomicU64,
    max_total_prefetch: usize,
    prefetch_in_use: AtomicUsize,
    /// `Some` when a spill directory is configured and its WAL is writable.
    pub(crate) durability: Option<Mutex<Durability>>,
    /// The shared prepared-statement / plan cache every session of this
    /// server participates in (`None` when disabled by configuration).
    pub(crate) plan_cache: Option<Arc<PlanCache>>,
}

impl ServerShared {
    /// Grant as much of `requested` as the aggregate prefetch budget still
    /// allows (possibly 0 — the stream then runs serially, it is never
    /// rejected). The grant must be returned via [`Self::release_prefetch`].
    fn acquire_prefetch(&self, requested: usize) -> usize {
        if requested == 0 {
            return 0;
        }
        loop {
            let used = self.prefetch_in_use.load(Ordering::Relaxed);
            let available = self.max_total_prefetch.saturating_sub(used);
            let grant = requested.min(available);
            if grant == 0 {
                return 0;
            }
            if self
                .prefetch_in_use
                .compare_exchange(used, used + grant, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return grant;
            }
        }
    }

    fn release_prefetch(&self, granted: usize) {
        if granted > 0 {
            self.prefetch_in_use.fetch_sub(granted, Ordering::Relaxed);
        }
    }

    /// Drain the catalog's DDL journal and the spill tier's event journal
    /// into one fsync'd WAL batch. Runs at every query boundary (and at
    /// admin operations that change durable state); a no-op without
    /// durability or when nothing changed. Spill events are stamped with
    /// the *current* epoch — replay does not order by epoch, it applies
    /// records in log order, so a late stamp is harmless.
    fn persist_durable(&self) {
        let Some(durability) = &self.durability else {
            return;
        };
        let mut dur = durability.lock();
        let mut records: Vec<WalRecord> = self
            .catalog
            .drain_ddl()
            .iter()
            .map(WalRecord::from_ddl)
            .collect();
        let epoch = self.catalog.epoch();
        if let Some(spill) = self.memstore.spill() {
            for event in spill.drain_wal_events() {
                records.push(match event {
                    SpillEvent::Demoted {
                        table,
                        partition,
                        table_version,
                        bytes,
                        checksum,
                    } => WalRecord::Demoted {
                        epoch,
                        table,
                        table_version,
                        partition: partition as u64,
                        bytes,
                        checksum,
                    },
                    SpillEvent::Promoted {
                        table,
                        partition,
                        table_version,
                    } => WalRecord::Promoted {
                        epoch,
                        table,
                        table_version,
                        partition: partition as u64,
                    },
                });
            }
        }
        if records.is_empty() {
            return;
        }
        match dur.wal.append_batch(&records) {
            Ok(()) => {
                dur.records_since_snapshot += records.len() as u64;
                if dur.records_since_snapshot >= dur.snapshot_every {
                    self.checkpoint(&mut dur);
                }
            }
            Err(_) => {
                // The journals are already drained, so these records never
                // reach the log. Force a checkpoint: the snapshot captures
                // the full current state, which re-covers whatever the
                // failed append lost.
                self.metrics.wal_append_failures.inc();
                self.checkpoint(&mut dur);
            }
        }
    }

    /// Fold the WAL into fresh durable state: write the spill manifest,
    /// then the catalog snapshot, then start an empty WAL. The order is
    /// the crash-safety argument — a crash before the WAL is recreated
    /// leaves old records in the log, and replaying them *onto* the new
    /// snapshot is idempotent (the snapshot is the fold of exactly those
    /// records). Returns whether the checkpoint fully landed.
    fn checkpoint(&self, dur: &mut Durability) -> bool {
        let entries = self
            .memstore
            .spill()
            .map(|s| s.manifest_entries())
            .unwrap_or_default();
        if write_manifest(&dur.dir.join(MANIFEST_FILE), &SpillManifest { entries }).is_err() {
            self.metrics.wal_append_failures.inc();
            return false;
        }
        let snapshot = SnapshotFile {
            epoch: self.catalog.epoch(),
            tables: self
                .catalog
                .table_names()
                .iter()
                .filter_map(|name| self.catalog.get(name).ok())
                .map(|table| TableRecord::from_meta(&table))
                .collect(),
        };
        if write_snapshot(&dur.dir.join(SNAPSHOT_FILE), &snapshot).is_err() {
            self.metrics.wal_append_failures.inc();
            return false;
        }
        match WalWriter::create(dur.dir.join(WAL_FILE)) {
            Ok(wal) => {
                dur.wal = wal;
                dur.records_since_snapshot = 0;
                self.metrics.wal_snapshots_written.inc();
                shark_obs::event(
                    "checkpoint",
                    &[
                        ("epoch", &snapshot.epoch.to_string()),
                        ("tables", &snapshot.tables.len().to_string()),
                    ],
                );
                true
            }
            Err(_) => {
                self.metrics.wal_append_failures.inc();
                false
            }
        }
    }
}

/// RAII whole-table pins: releases on drop, so a query that panics or
/// errors between pin and unpin can no longer leak its pins and leave the
/// tables unevictable forever.
struct PinGuard<'a> {
    memstore: &'a MemstoreManager,
    tables: Vec<String>,
}

impl<'a> PinGuard<'a> {
    /// Pin `tables` until the guard drops.
    fn pin(memstore: &'a MemstoreManager, tables: Vec<String>) -> PinGuard<'a> {
        memstore.pin(&tables);
        PinGuard { memstore, tables }
    }

    /// Unpin one table ahead of the guard's drop (a single-scan cursor
    /// swaps it for partition-granular pins). Returns the name when it was
    /// held.
    fn release(&mut self, table: &str) -> Option<String> {
        let at = self.tables.iter().position(|t| t == table)?;
        let released = self.tables.remove(at);
        self.memstore.unpin(std::slice::from_ref(&released));
        Some(released)
    }
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.memstore.unpin(&self.tables);
    }
}

/// A query holding an execution slot. [`SessionHandle::admit`] and
/// [`Admitted::settle`] are *the* query lifecycle: every statement a
/// session runs — blocking, streamed, failed while planning, failed
/// mid-stream, abandoned, or a table load — is opened by the one and ended
/// by the other, so there is exactly one place that gives back what a query
/// held and records that it ran.
struct Admitted<'s> {
    session: &'s SessionHandle,
    statement: String,
    /// Root span of the query's trace (when query tracing is on), finished
    /// by `settle`, so batch deliveries that happen long after admission
    /// still belong to the same trace.
    root: Option<shark_obs::DetachedSpan>,
    permit: AdmissionPermit<'s>,
    pins: PinGuard<'s>,
    queue_wait: Duration,
    admitted_at: Instant,
    /// Referenced tables' resident bytes at admission: their sum is the
    /// query's cache-hit bytes, and each table's growth since is charged to
    /// the session when the query settles.
    residency_before: Vec<(String, u64)>,
}

/// How an admitted query ended: the part only its caller knows.
#[derive(Default)]
struct Outcome {
    failed: bool,
    plan_cache_hit: bool,
    sim_seconds: f64,
    /// Delivery totals (a blocking query reports its row count only: the
    /// whole result arrives when execution ends).
    progress: StreamProgress,
    /// The prefetch depth granted to the cursor, when one was handed out.
    streamed: Option<usize>,
}

impl Admitted<'_> {
    /// Put the query's trace context on this thread, so every
    /// engine/scheduler span below nests under its root.
    fn attach(&self) -> Option<shark_obs::AttachGuard> {
        self.root.as_ref().map(|r| r.context().attach())
    }

    /// End the query: charge what it faulted in to its session while its
    /// pins still hold (so a full load's footprint is seen whole), release
    /// the pins, bring the session back under its quota (its own LRU
    /// partitions go first) and the server under its budget while the
    /// permit is still held — so concurrent enforcement stays bounded —
    /// reclaim dropped table versions nothing pins any more, free the
    /// execution slot, commit the query's durable effects (CTAS/DROP,
    /// demotions, promotions) before its result is observable, and record
    /// its metrics.
    fn settle(mut self, outcome: Outcome) -> QueryMetrics {
        let session_id = self.session.id;
        let shared = &self.session.shared;
        let exec_time = self.admitted_at.elapsed();
        // Settling may run on a different thread than admission (a cursor
        // dropped elsewhere): enforcement events still land in this trace.
        let _attach = if shark_obs::active() {
            self.attach()
        } else {
            None
        };
        charge_faulted_tables(shared, session_id, &self.residency_before);
        drop(self.pins);
        let quota_events = shared
            .memstore
            .enforce_session_quota(session_id, &shared.catalog);
        let evictions = shared.memstore.enforce(&shared.catalog, shared.ctx.cache());
        // The statement's catalog-snapshot pin is released by now (the
        // engine holds it for the statement's lifetime, a cursor until its
        // stream is cancelled), so a DROP TABLE this query performed — or
        // one whose last pinning cursor this was — can be reclaimed here.
        shared.memstore.reclaim_dropped(&shared.catalog);
        drop(self.permit);
        let promotions = shared.memstore.drain_promotions();
        record_enforcement_events(&evictions, &quota_events, &promotions);
        shared.persist_durable();

        let progress = outcome.progress;
        if let Some(mut root) = self.root.take() {
            root.add_rows(progress.rows_streamed);
            if outcome.streamed.is_some() {
                root.annotate(
                    "partitions",
                    &format!(
                        "{}/{}",
                        progress.partitions_streamed, progress.partitions_total
                    ),
                );
            }
            if outcome.failed {
                root.annotate("failed", "true");
            }
            root.finish();
        }
        let metrics = QueryMetrics {
            session_id,
            query_id: shared.next_query_id.fetch_add(1, Ordering::Relaxed),
            statement: self.statement,
            queue_wait: self.queue_wait,
            exec_time,
            sim_seconds: outcome.sim_seconds,
            time_to_first_row: progress.time_to_first_row.unwrap_or(exec_time),
            rows_streamed: progress.rows_streamed,
            partitions_streamed: progress.partitions_streamed,
            partitions_total: progress.partitions_total,
            streamed: outcome.streamed.is_some(),
            prefetch_depth: outcome.streamed.unwrap_or(0),
            prefetch_hits: progress.prefetch_hits,
            cache_hit_bytes: self.residency_before.iter().map(|(_, bytes)| bytes).sum(),
            evictions_triggered: evictions.len(),
            quota_evictions: quota_events.iter().map(EvictionEvent::partitions).sum(),
            plan_cache_hit: outcome.plan_cache_hit,
            failed: outcome.failed,
        };
        shared.log.record(metrics.clone());
        metrics
    }
}

/// Restore-time hook mapping a restored table's metadata to the row
/// generator to re-attach; `None` leaves the loud placeholder.
type GeneratorResolver<'a> = &'a dyn Fn(&TableRecord) -> Option<RowGenerator>;

/// A shared-everything warehouse server handing out concurrent sessions.
#[derive(Clone)]
pub struct SharkServer {
    shared: Arc<ServerShared>,
}

impl SharkServer {
    /// Start a fresh server from a configuration. Any durable state a
    /// previous incarnation left under the spill directory is deliberately
    /// ignored — and its spill frames swept as orphans; use
    /// [`SharkServer::restore`] to come back warm instead.
    pub fn new(config: ServerConfig) -> SharkServer {
        SharkServer::boot(config, None)
    }

    /// Restore a server from the durable state under the configured spill
    /// directory: load the catalog snapshot, replay the WAL over it
    /// (truncating any torn tail), and re-adopt the spill frames the
    /// manifest + WAL still expect — demoted partitions are servable again
    /// at I/O cost, not recomputed. Restored tables get a placeholder row
    /// generator that panics on first lineage recompute; use
    /// [`SharkServer::restore_with`] to re-attach real generators.
    ///
    /// Fails only when `config.spill_dir` is unset (nowhere to restore
    /// from). Damaged durable state never fails the restore — it degrades:
    /// torn WAL tails are cut, a corrupt snapshot or manifest reads as
    /// empty, and rejected frames fall back to lineage recompute.
    pub fn restore(config: ServerConfig) -> Result<SharkServer> {
        SharkServer::restore_with(config, |_| None)
    }

    /// [`SharkServer::restore`], with a resolver that re-attaches a row
    /// generator to each restored table (generators are code, not data —
    /// they cannot live in the snapshot). Tables the resolver declines get
    /// the loud placeholder generator.
    pub fn restore_with(
        config: ServerConfig,
        resolver: impl Fn(&TableRecord) -> Option<RowGenerator>,
    ) -> Result<SharkServer> {
        if config.spill_dir.is_none() {
            return Err(SharkError::Config(
                "restore requires a spill directory (ServerConfig::with_spill_dir): \
                 the catalog WAL, snapshot and spill manifest live there"
                    .into(),
            ));
        }
        Ok(SharkServer::boot(config, Some(&resolver)))
    }

    /// Shared construction path. `resolver` is `Some` for a restore (replay
    /// durable state before serving) and `None` for a fresh start (sweep
    /// the directory's frames as orphans).
    fn boot(config: ServerConfig, resolver: Option<GeneratorResolver<'_>>) -> SharkServer {
        if let Some(threads) = config.executor_threads {
            shark_rdd::Executor::configure_global(threads);
        }
        let ctx = RddContext::serial(config.rdd);
        let metrics = Arc::new(ServerMetrics::register(ctx.metrics()));
        let mut memstore = MemstoreManager::new_in(config.memory_budget_bytes, metrics.clone())
            .with_session_quota(config.session_mem_quota_bytes);
        let mut spill = None;
        if let Some(dir) = &config.spill_dir {
            // An unusable spill directory disables the tier (and with it
            // durability) rather than failing server start: queries then
            // see the pre-spill world (eviction = lineage recompute),
            // never an I/O error.
            if let Ok(manager) =
                SpillManager::create_in(dir, config.spill_budget_bytes, metrics.clone())
            {
                let manager = Arc::new(manager);
                memstore = memstore.with_spill(manager.clone());
                spill = Some(manager);
            }
        }
        // The catalog's memtables live in the context's block store, beside
        // its cached RDD partitions: one store, one budget, one scope.
        let catalog = Arc::new(Catalog::with_context(&ctx));
        let num_nodes = ctx.config().cluster.num_nodes;
        match (&spill, resolver) {
            (Some(spill), Some(resolver)) => {
                restore_catalog(&catalog, spill, num_nodes, resolver, &metrics)
            }
            (Some(spill), None) => {
                // Fresh start: a previous incarnation's frames are orphans
                // here, not recoverable data.
                spill.sweep_orphans();
            }
            _ => {}
        }
        let durability = spill.as_ref().and_then(|spill| {
            // A WAL that cannot be created disables durability the same
            // way an unusable directory disables the tier.
            WalWriter::create(spill.dir().join(WAL_FILE))
                .ok()
                .map(|wal| {
                    Mutex::new(Durability {
                        dir: spill.dir().to_path_buf(),
                        wal,
                        snapshot_every: config.wal_snapshot_every_records.max(1),
                        records_since_snapshot: 0,
                    })
                })
        });
        let server = SharkServer {
            shared: Arc::new(ServerShared {
                catalog,
                exec: config.exec,
                admission: AdmissionController::new(
                    config.max_concurrent_queries,
                    config.max_queued_queries,
                ),
                memstore,
                log: QueryLog::new(metrics.clone()),
                metrics,
                next_session_id: AtomicU64::new(1),
                next_query_id: AtomicU64::new(1),
                max_total_prefetch: config.max_total_prefetch,
                prefetch_in_use: AtomicUsize::new(0),
                durability,
                plan_cache: (config.plan_cache_capacity > 0)
                    .then(|| Arc::new(PlanCache::new(config.plan_cache_capacity, ctx.metrics()))),
                ctx,
            }),
        };
        // Boot checkpoint: snapshot, manifest and (fresh) WAL now agree
        // with the in-memory state, so a crash at any later point replays
        // from here.
        if let Some(dur) = &server.shared.durability {
            server.shared.checkpoint(&mut dur.lock());
        }
        server
    }

    /// Quiesce and persist: demote every cached table's resident
    /// partitions to the spill tier, commit the final WAL batch and write
    /// a checkpoint, so [`SharkServer::restore`] brings the catalog back
    /// warm. A no-op without durability. The server stays usable after —
    /// shutdown is a durability barrier, not a poison pill.
    pub fn shutdown(&self) -> Result<()> {
        let shared = &self.shared;
        if shared.durability.is_none() {
            return Ok(());
        }
        let _span = shark_obs::span("shutdown");
        for table in shared.catalog.cached_tables() {
            shared.memstore.demote_table(&shared.catalog, &table.name);
        }
        shared.persist_durable();
        let Some(dur) = &shared.durability else {
            return Ok(());
        };
        if shared.checkpoint(&mut dur.lock()) {
            Ok(())
        } else {
            Err(SharkError::Execution(
                "shutdown checkpoint failed: the durable catalog state on disk is stale".into(),
            ))
        }
    }

    /// A server with default configuration (tiny local cluster, unbounded
    /// memory, 4-way admission).
    pub fn local() -> SharkServer {
        SharkServer::new(ServerConfig::default())
    }

    /// Open a new session. Sessions are cheap; open one per user/thread.
    pub fn session(&self) -> SessionHandle {
        let id = self.shared.next_session_id.fetch_add(1, Ordering::Relaxed);
        let mut sql = SqlSession::with_catalog(
            self.shared.ctx.clone(),
            self.shared.exec.clone(),
            self.shared.catalog.clone(),
        );
        if let Some(cache) = &self.shared.plan_cache {
            sql.set_plan_cache(cache.clone());
        }
        SessionHandle {
            id,
            sql,
            shared: self.shared.clone(),
        }
    }

    /// Start serving this server's sessions over TCP (see
    /// `docs/wire-protocol.md` for the frame format). Returns the running
    /// frontend; call [`NetServer::shutdown`] to stop accepting, reap every
    /// connection and join the service threads.
    pub fn serve(&self, config: NetConfig) -> Result<NetServer> {
        NetServer::start(self.clone(), config)
    }

    /// The shared plan cache, when enabled.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.shared.plan_cache.as_ref()
    }

    /// The server's metrics table (the TCP frontend counts in it too).
    pub(crate) fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.shared.catalog
    }

    /// The shared RDD context.
    pub fn context(&self) -> &RddContext {
        &self.shared.ctx
    }

    /// Register a base table in the shared catalog (admin path — not gated
    /// by admission control). Replacing an existing cached table displaces
    /// the old version: its name-keyed bookkeeping (owners, recorded
    /// footprint, spill frames) is cleared — like a DROP TABLE — and it is
    /// reclaimed immediately unless a pinned snapshot (an in-flight query
    /// or open cursor) still references it.
    pub fn register_table(&self, table: TableMeta) -> Arc<TableMeta> {
        let replacing = self.shared.catalog.contains(&table.name);
        let registered = self.shared.catalog.register(table);
        if replacing {
            self.shared.memstore.forget(&registered.name);
        }
        self.shared.memstore.reclaim_dropped(&self.shared.catalog);
        self.shared.persist_durable();
        registered
    }

    /// Eagerly load a cached table, then enforce the memory budget (the
    /// load itself may push residency over it).
    pub fn load_table(&self, name: &str) -> Result<LoadReport> {
        let table = self.shared.catalog.get(name)?;
        // Pin before loading so a concurrent enforcement cannot evict the
        // table out from under the load. (Recency is tracked by the block
        // store: the load's puts give each partition a fresh tick.)
        let pins = PinGuard::pin(&self.shared.memstore, vec![table.name.clone()]);
        let report = shark_sql::exec::load_table(&self.shared.ctx, &table);
        // Record the exact full-load footprint while every partition is
        // still resident (before enforcement may evict): it is the provable
        // bound the quota-infeasibility admission check keys off.
        self.shared.memstore.record_footprint_if_full(&table);
        drop(pins);
        self.shared
            .memstore
            .enforce(&self.shared.catalog, self.shared.ctx.cache());
        self.shared.persist_durable();
        report
    }

    /// Tables currently pinned by in-flight queries or open cursors.
    pub fn pinned_tables(&self) -> Vec<String> {
        self.shared.memstore.pinned_tables()
    }

    /// Partitions of `table` individually pinned by streaming cursors that
    /// have delivered them, in ascending index order.
    pub fn pinned_partitions(&self, table: &str) -> Vec<usize> {
        self.shared.memstore.pinned_partitions(table)
    }

    /// Queries currently executing (holding admission permits) — streaming
    /// cursors count until exhausted or dropped.
    pub fn running_queries(&self) -> usize {
        self.shared.admission.running()
    }

    /// Prefetch depth currently granted to open streaming cursors, out of
    /// [`ServerConfig::max_total_prefetch`].
    pub fn prefetch_in_use(&self) -> usize {
        self.shared.prefetch_in_use.load(Ordering::Relaxed)
    }

    /// Current resident bytes charged against the budget.
    pub fn resident_bytes(&self) -> u64 {
        self.shared
            .memstore
            .resident_bytes(&self.shared.catalog, self.shared.ctx.cache())
    }

    /// Resident bytes of `DROP TABLE`d versions still pinned by open
    /// catalog snapshots (in-flight queries, open cursors); reclaimed when
    /// the last pin closes.
    pub fn deferred_drop_bytes(&self) -> u64 {
        self.shared.catalog.deferred_drop_bytes()
    }

    /// Reclaim dropped table versions whose last pinning snapshot has been
    /// released (also runs after every query and cursor close). Returns
    /// the reclamations performed.
    pub fn reclaim_dropped(&self) -> Vec<EvictionEvent> {
        self.shared.memstore.reclaim_dropped(&self.shared.catalog)
    }

    /// The spill-to-disk demotion tier, when configured.
    pub fn spill(&self) -> Option<&Arc<SpillManager>> {
        self.shared.memstore.spill()
    }

    /// Demote every unpinned resident partition of one table to the spill
    /// tier (admin path — used to stage demoted residency states for tests
    /// and benchmarks; plain eviction when no tier is configured).
    pub fn demote_table(&self, name: &str) -> Vec<EvictionEvent> {
        let events = self
            .shared
            .memstore
            .demote_table(&self.shared.catalog, name);
        self.shared.persist_durable();
        events
    }

    /// Aggregate a server-level report over everything run so far. Also
    /// performs any reclamation that is already due (a report is an
    /// observation point like a query boundary), so the deferred-drop
    /// numbers it returns are current.
    pub fn report(&self) -> ServerReport {
        let shared = &self.shared;
        shared.memstore.reclaim_dropped(&shared.catalog);
        // A report is a durability point too: whatever the journals hold
        // is committed, so the WAL numbers are current.
        shared.persist_durable();
        shared.log.report(shared)
    }

    /// The raw per-query log, in completion order.
    pub fn query_log(&self) -> Vec<QueryMetrics> {
        self.shared.log.query_log()
    }
}

/// The result of a query run through a session: the rows plus what the
/// serving layer observed about the run.
#[derive(Debug, Clone)]
pub struct SessionQueryResult {
    /// The query result proper.
    pub result: QueryResult,
    /// Serving-layer metrics for this query.
    pub metrics: QueryMetrics,
}

/// One user's handle onto the shared server.
pub struct SessionHandle {
    id: u64,
    sql: SqlSession,
    shared: Arc<ServerShared>,
}

impl SessionHandle {
    /// This session's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Register a UDF visible only to this session.
    pub fn register_udf<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&[shark_common::Value]) -> shark_common::Value + Send + Sync + 'static,
    {
        self.sql.register_udf(name, f);
    }

    /// Replace this session's execution configuration.
    pub fn set_exec_config(&mut self, exec: ExecConfig) {
        self.sql.set_exec_config(exec);
    }

    /// Set how many result partitions this session's streaming cursors ask
    /// to execute ahead of the consumer. The server may grant less: the sum
    /// of all open cursors' depths is capped by
    /// [`ServerConfig::max_total_prefetch`].
    pub fn set_stream_prefetch(&mut self, depth: usize) {
        self.sql.set_stream_prefetch(depth);
    }

    /// Parse through the plan cache's parse tier (a repeated statement
    /// skips the parser). Parsing comes first so we know which tables to
    /// pin — and so a syntactically invalid query never occupies an
    /// execution slot; it still counts as a failed query in the metrics.
    fn parse(&self, text: &str) -> Result<Arc<Statement>> {
        self.sql
            .parse_cached(text)
            .inspect_err(|_| self.record_parse_failure(text))
    }

    /// The parsed statement as a SELECT; anything else counts as a failed
    /// query that never got past parsing.
    fn as_select<'p>(&self, text: &str, parsed: &'p Statement) -> Result<&'p SelectStmt> {
        parsed
            .as_select()
            .inspect_err(|_| self.record_parse_failure(text))
    }

    /// Open a query's lifecycle: start its trace, wait for an execution
    /// slot (failing fast when the admission queue is full), pin `tables`
    /// and snapshot their residency. The returned [`Admitted`] must be
    /// ended with [`Admitted::settle`].
    fn admit(&self, trace: &str, text: &str, tables: Vec<String>) -> Result<Admitted<'_>> {
        let shared = &self.shared;
        let mut root = shark_obs::tracer().is_enabled().then(|| {
            let mut span = shark_obs::start_trace(trace);
            span.annotate("statement", text);
            span.annotate("session", &self.id.to_string());
            span
        });
        let _trace = root.as_ref().map(|r| r.context().attach());
        let acquired = {
            // Admission-queue wait as its own span; the always-on histogram
            // counterpart is observed in `QueryLog::record`.
            let _wait = shark_obs::span("admission-wait");
            shared.admission.acquire()
        };
        let (permit, queue_wait) = match acquired {
            Ok(admitted) => admitted,
            Err(err) => {
                if let Some(root) = root.as_mut() {
                    root.annotate("rejected", "true");
                }
                shared.log.record_rejection(self.id);
                return Err(SharkError::Execution(err.to_string()));
            }
        };
        let pins = PinGuard::pin(&shared.memstore, tables);
        let residency_before = table_residency(&shared.catalog, &pins.tables);
        Ok(Admitted {
            session: self,
            statement: text.to_string(),
            root,
            permit,
            pins,
            queue_wait,
            admitted_at: Instant::now(),
            residency_before,
        })
    }

    /// Execute a SQL statement under admission control, returning the rows
    /// plus per-query serving metrics. Fails fast with
    /// [`SharkError::Execution`] when the admission queue is full.
    pub fn sql(&self, text: &str) -> Result<SessionQueryResult> {
        let shared = &self.shared;
        let statement = self.parse(text)?;
        let admitted = self.admit("query", text, pinned_tables_for(&statement))?;
        let _trace = admitted.attach();
        let result = self.sql.execute_statement(text, &statement);
        if result.is_ok() {
            match statement.as_ref() {
                Statement::DropTable { name } => {
                    // The table is gone from the catalog; clear its owner,
                    // footprint and spill bookkeeping so a future table
                    // reusing the name starts clean.
                    shared.memstore.forget(&name.to_lowercase());
                }
                Statement::CreateTableAs { name, .. } => {
                    // The new table's resident bytes are charged to the
                    // session that created it.
                    shared.memstore.record_owner(&name.to_lowercase(), self.id);
                }
                _ => {}
            }
        }
        let metrics = admitted.settle(Outcome {
            failed: result.is_err(),
            plan_cache_hit: matches!(result, Ok((_, true))),
            sim_seconds: result.as_ref().map_or(0.0, |(r, _)| r.sim_seconds),
            progress: StreamProgress {
                rows_streamed: result.as_ref().map_or(0, |(r, _)| r.rows.len() as u64),
                ..StreamProgress::default()
            },
            streamed: None,
        });
        let (result, _) = result?;
        Ok(SessionQueryResult { result, metrics })
    }

    /// Execute a SELECT under admission control and return a streaming
    /// [`QueryCursor`]: row batches are delivered as partitions finish, and
    /// the cursor holds the admission permit *and* memstore pins until it
    /// is exhausted or dropped. Multi-table pipelines keep whole-table
    /// pins; a single-scan stream pins only the partitions it has actually
    /// delivered, so a long-lived cursor leaves the rest of the table
    /// evictable (evicted partitions are rebuilt from lineage when their
    /// morsel runs). A LIMIT stream stops launching partitions early.
    pub fn sql_stream(&self, text: &str) -> Result<QueryCursor<'_>> {
        let shared = &self.shared;
        let parsed = self.parse(text)?;
        let statement = self.as_select(text, &parsed)?;
        let mut admitted = self.admit("query-stream", text, statement.referenced_tables())?;
        let _trace = admitted.attach();
        // Clamp this cursor's prefetch under the server-wide budget while
        // the admission permit is already held, so total speculative work
        // stays bounded alongside total in-flight queries.
        let prefetch = shared.acquire_prefetch(self.sql.stream_prefetch());
        match self.sql.sql_to_stream(text, statement) {
            Ok((stream, plan_cache_hit)) => {
                let stream = stream.with_prefetch(prefetch);
                // Single-scan streams swap the whole-table pin for
                // partition-granular pins on delivered partitions: a
                // long-lived cursor no longer holds every partition of the
                // table hostage against eviction — undelivered partitions
                // stay evictable and are rebuilt from lineage if a morsel
                // needs one after pressure took it.
                let scan_table = stream
                    .single_scan_table()
                    .and_then(|scan| admitted.pins.release(scan));
                Ok(QueryCursor {
                    admitted: Some(admitted),
                    stream,
                    scan_table,
                    pinned_partitions: 0,
                    prefetch,
                    plan_cache_hit,
                    failed: false,
                })
            }
            Err(err) => {
                // Planning failed and no cursor was ever handed out, so
                // this does not count toward the streamed-query aggregates.
                shared.release_prefetch(prefetch);
                admitted.settle(Outcome {
                    failed: true,
                    ..Outcome::default()
                });
                Err(err)
            }
        }
    }

    /// Execute a SELECT under admission control and keep its result as an
    /// RDD — `sql2rdd` (§4.1) on a served session, so an ML program runs
    /// under the same admission, pins and memory budget as every query, and
    /// its cached partitions are blocks of the server's one store. The
    /// returned [`RddLease`] derefs to the [`TableRdd`] and holds the
    /// admission permit, whole-table pins on every table the query reads
    /// and the catalog-snapshot pin until it drops.
    pub fn sql_to_rdd(&self, text: &str) -> Result<RddLease<'_>> {
        let parsed = self.parse(text)?;
        let statement = self.as_select(text, &parsed)?;
        let admitted = self.admit("query-rdd", text, statement.referenced_tables())?;
        let _trace = admitted.attach();
        match self.sql.select_to_rdd(text, statement) {
            Ok((table, plan_cache_hit)) => Ok(RddLease {
                open: Some((admitted, table)),
                plan_cache_hit,
            }),
            Err(err) => {
                admitted.settle(Outcome {
                    failed: true,
                    ..Outcome::default()
                });
                Err(err)
            }
        }
    }

    /// Parse a statement through the plan cache's parse tier without
    /// executing it — the wire frontend's Prepare path, which wants parse
    /// errors at prepare time and a warmed cache for the Executes after.
    pub(crate) fn parse_statement(&self, text: &str) -> Result<Arc<Statement>> {
        self.sql.parse_cached(text)
    }

    /// Record a query that never got past parsing.
    fn record_parse_failure(&self, text: &str) {
        self.shared.log.record(QueryMetrics {
            session_id: self.id,
            query_id: self.shared.next_query_id.fetch_add(1, Ordering::Relaxed),
            statement: text.to_string(),
            failed: true,
            ..QueryMetrics::default()
        });
    }

    /// Eagerly load a cached table through this session: admitted, traced,
    /// logged and settled like any other statement, and charged to this
    /// session.
    pub fn load_table(&self, name: &str) -> Result<LoadReport> {
        let shared = &self.shared;
        let lowered = name.to_lowercase();
        // Quota-feasibility gate, *before* the admission permit: once a
        // full load has recorded the table's exact footprint, a session
        // whose quota provably cannot hold it is rejected outright instead
        // of being admitted, loading, and thrashing every partition back
        // out through quota evictions. (The discovering first load is
        // always admitted — that is how the footprint becomes known.)
        if let Some((footprint, quota)) = shared.memstore.reject_infeasible_load(&lowered) {
            shared.log.record_rejection(self.id);
            return Err(SharkError::Execution(format!(
                "load of table '{lowered}' rejected: its full resident footprint \
                 ({footprint} bytes) provably exceeds the per-session memory quota \
                 ({quota} bytes); the load could only thrash through quota evictions"
            )));
        }
        // The table stays pinned from admission to settlement, so no
        // concurrent enforcement evicts it out from under the load, and
        // settling records its exact footprint while every partition is
        // still resident.
        let text = format!("load({lowered})");
        let admitted = self.admit("load", &text, vec![lowered.clone()])?;
        let _trace = admitted.attach();
        let report = self.sql.load_table(name);
        if report.is_ok() {
            shared.memstore.record_owner(&lowered, self.id);
        }
        admitted.settle(Outcome {
            failed: report.is_err(),
            sim_seconds: report.as_ref().map_or(0.0, |r| r.sim_seconds),
            ..Outcome::default()
        });
        report
    }

    /// Resident memstore bytes currently charged to this session (the
    /// tables it loaded or created), out of
    /// [`ServerConfig::session_mem_quota_bytes`].
    pub fn resident_bytes(&self) -> u64 {
        self.shared
            .memstore
            .session_bytes(self.id, &self.shared.catalog)
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        // A closing session leaves every owner set it was in, re-apportioning
        // co-owned tables' bytes over the surviving owners — otherwise the
        // dead session would keep absorbing its share forever and the
        // remaining owners would be under-charged against their quotas.
        self.shared.memstore.release_session(self.id);
    }
}

/// Attach this query's completion-time enforcement outcome to its trace:
/// an `eviction` event when the global budget evicted victims (with its
/// demoted share broken out), a `quota-eviction` event when the session's
/// own quota did, and a `promotion` event for partitions scans faulted back
/// in from the spill tier. No-op when tracing is off or no trace context is
/// attached.
fn record_enforcement_events(
    evictions: &[EvictionEvent],
    quota_events: &[EvictionEvent],
    promotions: &[EvictionEvent],
) {
    if !shark_obs::active() {
        return;
    }
    if !evictions.is_empty() {
        let partitions: usize = evictions.iter().map(EvictionEvent::partitions).sum();
        let demoted: usize = evictions
            .iter()
            .filter(|e| matches!(e, EvictionEvent::Demoted { .. }))
            .map(EvictionEvent::partitions)
            .sum();
        shark_obs::event(
            "eviction",
            &[
                ("events", &evictions.len().to_string()),
                ("partitions", &partitions.to_string()),
                ("demoted", &demoted.to_string()),
            ],
        );
    }
    if !quota_events.is_empty() {
        let partitions: usize = quota_events.iter().map(EvictionEvent::partitions).sum();
        shark_obs::event("quota-eviction", &[("partitions", &partitions.to_string())]);
    }
    if !promotions.is_empty() {
        let partitions: usize = promotions.iter().map(EvictionEvent::partitions).sum();
        shark_obs::event("promotion", &[("partitions", &partitions.to_string())]);
    }
}

/// Rebuild the catalog and spill tier from the durable state under the
/// spill directory: snapshot + WAL replay for the table map and epoch,
/// manifest + WAL replay for the set of frames worth re-adopting.
///
/// Replay applies WAL records in log order *onto* the snapshot/manifest
/// baseline. No epoch filtering is needed: a checkpoint that crashed
/// before truncating the WAL leaves records that are already folded into
/// the snapshot, and re-applying them is idempotent (same upserts, same
/// removals). Frames only survive into the adoption set if their table
/// still exists at the exact version the frame was written under —
/// anything else is swept and falls back to lineage recompute.
fn restore_catalog(
    catalog: &Catalog,
    spill: &Arc<SpillManager>,
    num_nodes: usize,
    resolver: GeneratorResolver<'_>,
    metrics: &ServerMetrics,
) {
    let started = Instant::now();
    let root = if shark_obs::tracer().is_enabled() {
        Some(shark_obs::start_trace("restore"))
    } else {
        None
    };
    let _trace = root.as_ref().map(|r| r.context().attach());
    let dir = spill.dir();
    let replay = replay_wal(&dir.join(WAL_FILE));
    let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap_or_default();
    let manifest = read_manifest(&dir.join(MANIFEST_FILE)).unwrap_or_default();

    metrics.restored.inc();
    metrics
        .recovery_wal_records_replayed
        .add(replay.records.len() as u64);
    if replay.torn {
        metrics.recovery_torn_wal_tail.inc();
    }
    let mut tables: Vec<TableRecord> = snapshot.tables;
    let mut expected: Vec<ManifestEntry> = manifest.entries;
    let mut max_epoch = snapshot.epoch;
    for record in &replay.records {
        max_epoch = max_epoch.max(record.epoch());
        match record {
            WalRecord::Created { table, .. } => {
                tables.retain(|t| t.name != table.name);
                tables.push(table.clone());
            }
            WalRecord::Dropped { name, .. } => {
                tables.retain(|t| t.name != *name);
            }
            WalRecord::Demoted {
                table,
                table_version,
                partition,
                bytes,
                checksum,
                ..
            } => {
                expected.retain(|e| !(e.table == *table && e.partition == *partition));
                expected.push(ManifestEntry {
                    table: table.clone(),
                    partition: *partition,
                    table_version: *table_version,
                    file: spill.frame_file_name(table, *partition as usize),
                    file_bytes: *bytes,
                    checksum: *checksum,
                });
            }
            WalRecord::Promoted {
                table, partition, ..
            } => {
                expected.retain(|e| !(e.table == *table && e.partition == *partition));
            }
        }
    }
    // A frame is only re-adoptable for the exact table version it was
    // written under; frames of dropped or replaced tables become orphans.
    expected.retain(|e| {
        tables
            .iter()
            .any(|t| t.name == e.table && t.version == e.table_version)
    });

    tables.sort_by(|a, b| a.name.cmp(&b.name));
    for record in &tables {
        let generator = resolver(record);
        let placeholder = generator.is_none();
        let generator = generator.unwrap_or_else(|| placeholder_generator(&record.name));
        let meta = record.into_meta(generator, num_nodes);
        if let Some(mem) = &meta.cached {
            // Wire the tier before the first scan so adopted frames are
            // faulted in instead of recomputed.
            mem.set_spill_source(spill.clone());
        }
        catalog.register(meta);
        metrics.recovery_tables_restored.inc();
        if placeholder {
            metrics.recovery_placeholder_tables.inc();
        }
    }
    // Replayed registrations bumped the epoch from zero; land on the exact
    // pre-crash epoch and discard the registrations' DDL journal — replay
    // is history, not new DDL to be re-logged.
    catalog.advance_epoch_to(max_epoch);
    catalog.drain_ddl();

    let (adopted, _) = spill.adopt(&expected);
    metrics.recovery_orphans_swept.add(spill.sweep_orphans());
    metrics
        .recovery_seconds
        .observe(started.elapsed().as_secs_f64());
    if let Some(mut root) = root {
        root.annotate("tables", &tables.len().to_string());
        root.annotate("frames_adopted", &adopted.to_string());
        root.annotate("epoch", &max_epoch.to_string());
        if replay.torn {
            root.annotate("torn_wal_tail", "true");
        }
        root.finish();
    }
}

/// The generator a restored table falls back to when the resolver has
/// nothing for it: generators are code, so they cannot be persisted, and
/// silently serving zero rows would corrupt results. Scans served from
/// memory or adopted spill frames never call it; only a lineage recompute
/// does, and then it fails loudly.
fn placeholder_generator(name: &str) -> RowGenerator {
    let name = name.to_string();
    Arc::new(move |_| {
        panic!(
            "table '{name}' was restored without a row generator; \
             re-attach one with SharkServer::restore_with"
        )
    })
}

/// The tables a statement needs pinned while it executes: every table it
/// reads, plus — for CTAS — the table it *creates*, so a concurrent budget
/// enforcement cannot evict the target's freshly loaded memstore partitions
/// mid-load.
fn pinned_tables_for(statement: &Statement) -> Vec<String> {
    let mut tables = statement.referenced_tables();
    if let Statement::CreateTableAs { name, .. } = statement {
        let target = name.to_lowercase();
        if !tables.contains(&target) {
            tables.push(target);
        }
    }
    tables
}

/// Per-table resident bytes of the referenced cached tables, snapshotted
/// before a query runs: the bytes its scans could serve straight from the
/// memstore, and the baseline [`charge_faulted_tables`] attributes growth
/// against.
fn table_residency(catalog: &Catalog, tables: &[String]) -> Vec<(String, u64)> {
    tables
        .iter()
        .filter_map(|name| catalog.get(name).ok())
        .filter_map(|t| {
            t.cached
                .as_ref()
                .map(|m| (t.name.clone(), m.memory_bytes()))
        })
        .collect()
}

/// Add the session to the owner set of every referenced table whose
/// residency this query *grew* (lazy scan loads, lineage rebuilds), so
/// query-only tenants cannot fault in an unbounded working set outside
/// their quota.
fn charge_faulted_tables(shared: &ServerShared, session_id: u64, before: &[(String, u64)]) {
    for (name, bytes_before) in before {
        let Ok(table) = shared.catalog.get(name) else {
            continue;
        };
        let grew = table
            .cached
            .as_ref()
            .map(|m| m.memory_bytes() > *bytes_before)
            .unwrap_or(false);
        if grew {
            shared.memstore.record_owner(name, session_id);
        }
        // A scan that faulted the whole table in just revealed its exact
        // footprint — record it for the quota-infeasibility admission gate.
        shared.memstore.record_footprint_if_full(&table);
    }
}

/// A streaming result cursor handed out by [`SessionHandle::sql_stream`].
///
/// The cursor owns the query's admission permit and the memstore pins on
/// every referenced table. Both are released — and the query's
/// [`QueryMetrics`] recorded — when the stream is exhausted, when an
/// execution error surfaces, or when the cursor is dropped mid-stream.
pub struct QueryCursor<'s> {
    /// The open query: permit, whole-table pins (everything referenced
    /// except a single-scan target) and trace root. `None` once settled.
    admitted: Option<Admitted<'s>>,
    stream: QueryStream,
    /// Single-scan target pinned at partition granularity instead: only
    /// partitions the stream has delivered are pinned, via
    /// [`QueryCursor::sync_partition_pins`].
    scan_table: Option<String>,
    /// How many entries of the stream's delivered-partition list have been
    /// pinned so far (the list is append-only).
    pinned_partitions: usize,
    /// Prefetch depth granted out of the server's aggregate budget,
    /// returned to the pool on finalize.
    prefetch: usize,
    /// Whether this stream's plan came out of the shared plan cache.
    plan_cache_hit: bool,
    failed: bool,
}

impl QueryCursor<'_> {
    /// The result schema.
    pub fn schema(&self) -> &Schema {
        self.stream.schema()
    }

    /// Run-time decisions taken while building and running the pipeline.
    pub fn notes(&self) -> &[String] {
        self.stream.notes()
    }

    /// Delivery progress so far.
    pub fn progress(&self) -> &StreamProgress {
        self.stream.progress()
    }

    /// Whether this stream's plan came out of the shared plan cache.
    pub fn plan_cache_hit(&self) -> bool {
        self.plan_cache_hit
    }

    /// Whether the last batch has been handed out: the next
    /// [`QueryCursor::next_batch`] will return `Ok(None)`.
    pub fn is_exhausted(&self) -> bool {
        self.stream.is_exhausted()
    }

    /// Simulated cluster seconds accumulated by the partitions run so far.
    pub fn sim_seconds(&self) -> f64 {
        self.stream.sim_seconds()
    }

    /// Fetch the next batch of rows. Returns `Ok(None)` when the stream is
    /// exhausted, at which point the admission permit and table pins have
    /// been released and the query's metrics recorded.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Row>>> {
        if self.admitted.is_none() {
            return Ok(None);
        }
        match self.stream.next_batch() {
            Ok(Some(batch)) => {
                self.sync_partition_pins();
                Ok(Some(batch))
            }
            Ok(None) => {
                self.finalize();
                Ok(None)
            }
            Err(err) => {
                self.failed = true;
                self.finalize();
                Err(err)
            }
        }
    }

    /// Pin every newly delivered partition of the single-scan table.
    fn sync_partition_pins(&mut self) {
        let (Some(table), Some(admitted)) = (&self.scan_table, &self.admitted) else {
            return;
        };
        let memstore = &admitted.session.shared.memstore;
        let delivered = self.stream.delivered_scan_partitions();
        for &partition in &delivered[self.pinned_partitions..] {
            memstore.pin_partition(table, partition);
        }
        self.pinned_partitions = delivered.len();
    }

    /// Drain the rest of the stream into one vector (closing the cursor).
    pub fn fetch_all(&mut self) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        while let Some(batch) = self.next_batch()? {
            rows.extend(batch);
        }
        Ok(rows)
    }

    /// Stop the stream, return the prefetch grant and partition pins, and
    /// settle the query. Idempotent.
    fn finalize(&mut self) {
        let Some(admitted) = self.admitted.take() else {
            return;
        };
        let shared = &admitted.session.shared;
        // Stop the stream first (cancelling + joining any prefetch workers)
        // so no task can touch a table after its pin is released. This also
        // releases the stream's catalog-snapshot pin.
        self.stream.cancel();
        shared.release_prefetch(self.prefetch);
        if let Some(table) = &self.scan_table {
            let delivered = self.stream.delivered_scan_partitions();
            for &partition in &delivered[..self.pinned_partitions] {
                shared.memstore.unpin_partition(table, partition);
            }
        }
        admitted.settle(Outcome {
            failed: self.failed,
            plan_cache_hit: self.plan_cache_hit,
            sim_seconds: self.stream.sim_seconds(),
            progress: self.stream.progress().clone(),
            streamed: Some(self.prefetch),
        });
    }
}

impl Drop for QueryCursor<'_> {
    fn drop(&mut self) {
        // A cursor abandoned mid-stream still releases its pins and permit
        // and records what it streamed.
        self.finalize();
    }
}

/// A query result kept as an RDD, handed out by
/// [`SessionHandle::sql_to_rdd`]: a sibling of [`QueryCursor`] for ML
/// programs. It derefs to the [`TableRdd`] and owns the statement's
/// admission permit, table pins and catalog-snapshot pin.
///
/// Dropping the lease ends the statement — releases all three and records
/// its [`QueryMetrics`] — even while clones of `.rdd` are still alive, just
/// as dropping a `TableRdd` releases its snapshot pin. Keep the lease for as
/// long as the program runs jobs over the RDD.
pub struct RddLease<'s> {
    /// The open statement and its pipeline; `None` once settled.
    open: Option<(Admitted<'s>, TableRdd)>,
    /// Whether the pipeline's plan came out of the shared plan cache.
    plan_cache_hit: bool,
}

impl std::ops::Deref for RddLease<'_> {
    type Target = TableRdd;

    fn deref(&self) -> &TableRdd {
        let (_, table) = self.open.as_ref().expect("a lease is open until it drops");
        table
    }
}

impl Drop for RddLease<'_> {
    fn drop(&mut self) {
        let Some((admitted, table)) = self.open.take() else {
            return;
        };
        let sim_seconds = table.sim_seconds;
        // Release the snapshot pin first, so a dropped table version only
        // this pipeline still pinned is reclaimed when the statement settles.
        drop(table);
        admitted.settle(Outcome {
            plan_cache_hit: self.plan_cache_hit,
            sim_seconds,
            ..Outcome::default()
        });
    }
}
