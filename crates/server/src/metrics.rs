//! Per-query and per-session metrics, aggregated into a server-level report.
//!
//! Besides the in-process query log ([`MetricsRegistry`]), every recorded
//! query is also published to the process-wide [`shark_obs::metrics()`]
//! registry as Prometheus-style counters and histograms
//! (`shark_queries_total`, `shark_query_exec_seconds`,
//! `shark_admission_wait_seconds`, …), so one scrape endpoint covers the
//! serving layer, the scan layer and the simulated cluster.

use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Duration;

use shark_obs::{Counter, Histogram, JsonWriter, LATENCY_BUCKETS};

/// Cached handles into the unified [`shark_obs::metrics()`] registry, so
/// recording a query costs a handful of atomic ops instead of a registry
/// lookup per metric.
struct ObsMetrics {
    queries: Arc<Counter>,
    failed: Arc<Counter>,
    streamed: Arc<Counter>,
    rejected: Arc<Counter>,
    rows_delivered: Arc<Counter>,
    prefetch_hits: Arc<Counter>,
    cache_hit_bytes: Arc<Counter>,
    recomputed_tables: Arc<Counter>,
    evictions: Arc<Counter>,
    quota_evicted: Arc<Counter>,
    plan_cache_hits: Arc<Counter>,
    exec_seconds: Arc<Histogram>,
    admission_wait_seconds: Arc<Histogram>,
    ttfr_seconds: Arc<Histogram>,
}

fn obs_metrics() -> &'static ObsMetrics {
    static OBS: OnceLock<ObsMetrics> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = shark_obs::metrics();
        ObsMetrics {
            queries: reg.counter("shark_queries_total", "Queries run (including failed)"),
            failed: reg.counter(
                "shark_queries_failed_total",
                "Queries that returned an error",
            ),
            streamed: reg.counter(
                "shark_streamed_queries_total",
                "Queries served through a streaming cursor",
            ),
            rejected: reg.counter(
                "shark_rejected_total",
                "Queries rejected by admission control",
            ),
            rows_delivered: reg.counter(
                "shark_rows_delivered_total",
                "Result rows delivered to clients",
            ),
            prefetch_hits: reg.counter(
                "shark_prefetch_hits_total",
                "Stream batch deliveries served by an already-finished prefetch worker",
            ),
            cache_hit_bytes: reg.counter(
                "shark_cache_hit_bytes_total",
                "Resident columnar bytes of referenced cached tables at admission",
            ),
            recomputed_tables: reg.counter(
                "shark_lineage_recomputed_tables_total",
                "Referenced tables recomputed from lineage after eviction",
            ),
            evictions: reg.counter(
                "shark_evictions_triggered_total",
                "Eviction events triggered by query-completion budget enforcement",
            ),
            quota_evicted: reg.counter(
                "shark_quota_evicted_partitions_total",
                "Partitions evicted because a session exceeded its memory quota",
            ),
            plan_cache_hits: reg.counter(
                "shark_plan_cache_hits_total",
                "Queries answered with a cached plan (parse and plan skipped)",
            ),
            exec_seconds: reg.histogram(
                "shark_query_exec_seconds",
                "Wall-clock query execution time after admission",
                LATENCY_BUCKETS,
            ),
            admission_wait_seconds: reg.histogram(
                "shark_admission_wait_seconds",
                "Time queries spent waiting in the admission queue",
                LATENCY_BUCKETS,
            ),
            ttfr_seconds: reg.histogram(
                "shark_time_to_first_row_seconds",
                "Time from admission until the first result row was delivered",
                LATENCY_BUCKETS,
            ),
        }
    })
}

/// What one query cost, observed by the serving layer.
#[derive(Debug, Clone)]
pub struct QueryMetrics {
    /// Session that issued the query.
    pub session_id: u64,
    /// Server-wide query sequence number.
    pub query_id: u64,
    /// The statement text.
    pub statement: String,
    /// Time spent waiting in the admission queue.
    pub queue_wait: Duration,
    /// Wall-clock execution time (after admission).
    pub exec_time: Duration,
    /// Simulated cluster seconds the query charged.
    pub sim_seconds: f64,
    /// Wall-clock time from admission until the first result row was
    /// delivered to the client. For batch (non-streamed) queries this is
    /// the full execution time — the whole result arrives at once.
    pub time_to_first_row: Duration,
    /// Rows delivered to the client.
    pub rows_streamed: u64,
    /// Result-stage partitions actually executed. A streamed LIMIT query
    /// stops launching partitions early, so this can be smaller than
    /// `partitions_total`.
    pub partitions_streamed: usize,
    /// Partitions the full result stage would have run.
    pub partitions_total: usize,
    /// Whether the query was served through a streaming cursor.
    pub streamed: bool,
    /// Prefetch depth granted to the cursor out of the server's aggregate
    /// prefetch budget (0 for serial streams and batch queries).
    pub prefetch_depth: usize,
    /// Batch deliveries that found their partition already computed by a
    /// prefetch worker.
    pub prefetch_hits: u64,
    /// Resident columnar bytes of the referenced cached tables at admission
    /// time — the bytes the scans could serve straight from the memstore.
    pub cache_hit_bytes: u64,
    /// Referenced tables that had been evicted and were recomputed from
    /// lineage by this query.
    pub recomputed_tables: usize,
    /// Evictions this query's budget enforcement triggered on completion.
    pub evictions_triggered: usize,
    /// Partitions evicted on completion because this query pushed its
    /// session over its memory quota (own-session LRU partitions go first).
    pub quota_evictions: usize,
    /// Whether this query's plan came out of the shared plan cache
    /// (skipping parse and plan entirely).
    pub plan_cache_hit: bool,
    /// Whether the query failed (parse/plan/execution error).
    pub failed: bool,
}

/// Aggregated view of one session's traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Session id.
    pub session_id: u64,
    /// Queries that ran (including failed ones).
    pub queries: u64,
    /// Queries rejected by admission control.
    pub rejected: u64,
    /// Total time this session's queries spent queued.
    pub total_queue_wait: Duration,
    /// Total wall-clock execution time.
    pub total_exec_time: Duration,
    /// Total cache-hit bytes across its queries.
    pub cache_hit_bytes: u64,
}

/// Server-level aggregate over every session.
#[derive(Debug, Clone, Default)]
pub struct ServerReport {
    /// Queries that ran to completion or failure (not rejected ones).
    pub total_queries: u64,
    /// Queries turned away because the admission queue was full.
    pub rejected_queries: u64,
    /// Queries that returned an error.
    pub failed_queries: u64,
    /// Highest number of queries executing simultaneously.
    pub peak_concurrent_queries: usize,
    /// Deepest admission queue observed.
    pub peak_queued_queries: usize,
    /// Sum of queue waits across all queries.
    pub total_queue_wait: Duration,
    /// Largest single queue wait.
    pub max_queue_wait: Duration,
    /// Sum of wall-clock execution times.
    pub total_exec_time: Duration,
    /// Sum of time-to-first-row across all queries (batch queries
    /// contribute their full execution time).
    pub total_time_to_first_row: Duration,
    /// Sum of time-to-first-row across streamed queries only — the number
    /// the streaming headline metric is computed from.
    pub streamed_time_to_first_row: Duration,
    /// Queries served through a streaming cursor.
    pub streamed_queries: u64,
    /// Rows delivered through streaming cursors.
    pub streamed_rows: u64,
    /// Result partitions executed by streamed queries (early-terminated
    /// LIMIT streams make this smaller than the tables' partition counts).
    pub streamed_partitions: u64,
    /// Batch deliveries across all streamed queries that were served by an
    /// already-finished prefetch worker.
    pub prefetch_hits: u64,
    /// Total cache-hit bytes served.
    pub cache_hit_bytes: u64,
    /// Policy eviction events performed by the memstore manager (one per
    /// victim table or RDD per enforcement pass).
    pub evictions: u64,
    /// Individual partitions those evictions dropped.
    pub evicted_partitions: u64,
    /// Eviction events that left their table partially resident — the
    /// partition-granular evictions a whole-table policy could not do.
    pub partial_evictions: u64,
    /// Bytes freed by those evictions.
    pub evicted_bytes: u64,
    /// Evicted tables later recomputed from lineage on re-access.
    pub lineage_recomputes: u64,
    /// Times a session was found over its memory quota.
    pub quota_hits: u64,
    /// Partitions evicted because their owning session exceeded its quota.
    pub quota_evicted_partitions: u64,
    /// Table loads rejected at admission time because their recorded full
    /// footprint provably exceeded the per-session quota (admitting them
    /// could only thrash).
    pub quota_infeasible_rejections: u64,
    /// Whether the shared prepared-statement / plan cache is enabled.
    pub plan_cache_enabled: bool,
    /// Executions that reused a cached plan (skipped parse and plan).
    pub plan_cache_hits: u64,
    /// Plan-tier lookups that had to compile (cold statements and epoch
    /// invalidations).
    pub plan_cache_misses: u64,
    /// Cache misses caused by a DDL epoch bump invalidating a cached plan.
    pub plan_cache_stale_plans: u64,
    /// Statements currently held by the plan cache.
    pub plan_cache_entries: u64,
    /// The plan cache's configured capacity (0 = disabled).
    pub plan_cache_capacity: u64,
    /// TCP connections ever accepted by the net frontend (0 when the
    /// server is not serving TCP).
    pub connections_opened: u64,
    /// TCP connections fully torn down (client close, error, or reap).
    pub connections_closed: u64,
    /// TCP connections currently open.
    pub connections_active: u64,
    /// Connections closed for sitting idle past their rate class's deadline.
    pub connections_reaped: u64,
    /// Payload + frame-header bytes written to client sockets.
    pub wire_bytes_sent: u64,
    /// Payload + frame-header bytes read from client sockets.
    pub wire_bytes_received: u64,
    /// Protocol frames written to client sockets.
    pub net_frames_sent: u64,
    /// Protocol frames read from client sockets.
    pub net_frames_received: u64,
    /// Malformed frames observed (bad magic, oversized length, checksum
    /// mismatch, garbage payload) — each closes its connection.
    pub net_protocol_errors: u64,
    /// Hello handshakes rejected (wrong magic/version/auth token).
    pub net_auth_failures: u64,
    /// Query + Execute frames processed by connection handlers.
    pub net_queries: u64,
    /// Prepare frames that registered a prepared statement.
    pub net_prepared_statements: u64,
    /// Cancel frames honored mid-query.
    pub net_cancels: u64,
    /// Partitions rebuilt from the base generator by scans (lineage
    /// recovery after eviction or node failure), summed over cached tables.
    pub partition_rebuilds: u64,
    /// Demoted partitions faulted back into memory from the spill tier by
    /// scans, summed over cached tables — recoveries that cost I/O instead
    /// of recompute.
    pub partition_promotions: u64,
    /// Partitions currently demoted to the spill tier.
    pub spilled_partitions: u64,
    /// Bytes of spill frames currently on disk.
    pub spill_disk_bytes: u64,
    /// The configured spill-tier disk budget (`u64::MAX` = unlimited;
    /// 0 when no spill tier is configured).
    pub spill_budget_bytes: u64,
    /// Partitions ever demoted (written) to the spill tier.
    pub partitions_demoted: u64,
    /// Partitions ever promoted (read back) from the spill tier.
    pub partitions_promoted: u64,
    /// Spill-frame bytes ever written.
    pub spill_bytes_written: u64,
    /// Spill-frame bytes ever read back.
    pub spill_bytes_read: u64,
    /// Spill files found corrupt or unreadable on promotion and discarded
    /// (the partition fell back to lineage recompute).
    pub spill_poisoned_files: u64,
    /// Spill frames displaced from disk by the spill tier's own budget.
    pub spill_displaced_partitions: u64,
    /// The catalog's current epoch (bumped by every DDL).
    pub catalog_epoch: u64,
    /// Catalog snapshots pinned at report time (in-flight queries, open
    /// streaming cursors).
    pub live_snapshots: usize,
    /// Resident bytes of `DROP TABLE`d versions still pinned by open
    /// snapshots, awaiting deferred reclamation.
    pub deferred_drop_bytes: u64,
    /// Dropped table versions reclaimed after their last pinning snapshot
    /// was released.
    pub deferred_drops_reclaimed: u64,
    /// Bytes those deferred reclamations freed.
    pub deferred_reclaimed_bytes: u64,
    /// Whether catalog durability (WAL + snapshots) is enabled.
    pub wal_enabled: bool,
    /// Records appended to the catalog WAL by this server (resets when a
    /// checkpoint truncates the log).
    pub wal_records: u64,
    /// Catalog checkpoints written (snapshot + manifest + WAL truncation).
    pub wal_snapshots_written: u64,
    /// WAL batch appends that failed (durability is best-effort: the query
    /// itself still succeeded).
    pub wal_append_failures: u64,
    /// Whether this server was started via `SharkServer::restore`.
    pub restored: bool,
    /// WAL records replayed during restore.
    pub recovery_wal_records_replayed: u64,
    /// Whether restore truncated a torn or corrupt WAL tail.
    pub recovery_torn_wal_tail: bool,
    /// Tables re-registered from snapshot + WAL during restore.
    pub recovery_tables_restored: u64,
    /// Restored tables left with a placeholder row generator (no resolver
    /// match); they panic on first lineage recompute.
    pub recovery_placeholder_tables: u64,
    /// Spill frames re-adopted into the tier during restore.
    pub recovery_frames_adopted: u64,
    /// Manifest/WAL frame expectations rejected during restore (missing,
    /// corrupt or version-mismatched files).
    pub recovery_frames_rejected: u64,
    /// Unreachable spill files deleted by the post-adoption orphan sweep.
    pub recovery_orphans_swept: u64,
    /// Resident table-memstore bytes at report time.
    pub memstore_bytes: u64,
    /// Resident RDD-cache bytes at report time.
    pub rdd_cache_bytes: u64,
    /// The configured memory budget.
    pub memory_budget_bytes: u64,
    /// The configured per-session memory quota (`u64::MAX` = unlimited).
    pub session_quota_bytes: u64,
    /// Per-session aggregates, ordered by session id.
    pub sessions: Vec<SessionStats>,
}

impl ServerReport {
    /// Multi-line human-readable rendering (used by the example binary).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "queries: {} run ({} failed), {} rejected; peak concurrency {}, peak queue {}\n",
            self.total_queries,
            self.failed_queries,
            self.rejected_queries,
            self.peak_concurrent_queries,
            self.peak_queued_queries,
        ));
        out.push_str(&format!(
            "queue wait: total {:.1} ms, max {:.1} ms; exec: total {:.1} ms\n",
            self.total_queue_wait.as_secs_f64() * 1e3,
            self.max_queue_wait.as_secs_f64() * 1e3,
            self.total_exec_time.as_secs_f64() * 1e3,
        ));
        out.push_str(&format!(
            "memstore: {} of {} budget bytes resident (+{} rdd-cache); {} evictions dropped {} partitions ({} partial) freeing {} bytes; {} lineage recomputes, {} partition rebuilds\n",
            self.memstore_bytes,
            self.memory_budget_bytes,
            self.rdd_cache_bytes,
            self.evictions,
            self.evicted_partitions,
            self.partial_evictions,
            self.evicted_bytes,
            self.lineage_recomputes,
            self.partition_rebuilds,
        ));
        if self.spill_budget_bytes > 0 {
            out.push_str(&format!(
                "spill tier: {} partitions ({} bytes) on disk of {} budget; lifetime {} demoted / {} promoted ({} promotions served to scans), {} displaced, {} poisoned\n",
                self.spilled_partitions,
                self.spill_disk_bytes,
                self.spill_budget_bytes,
                self.partitions_demoted,
                self.partitions_promoted,
                self.partition_promotions,
                self.spill_displaced_partitions,
                self.spill_poisoned_files,
            ));
        }
        if self.wal_enabled {
            out.push_str(&format!(
                "durability: {} WAL records since last checkpoint, {} checkpoints written, {} append failures\n",
                self.wal_records, self.wal_snapshots_written, self.wal_append_failures,
            ));
        }
        if self.restored {
            out.push_str(&format!(
                "recovery: {} tables restored ({} placeholder generators), {} WAL records replayed{}; frames: {} adopted, {} rejected, {} orphans swept\n",
                self.recovery_tables_restored,
                self.recovery_placeholder_tables,
                self.recovery_wal_records_replayed,
                if self.recovery_torn_wal_tail {
                    " (torn tail truncated)"
                } else {
                    ""
                },
                self.recovery_frames_adopted,
                self.recovery_frames_rejected,
                self.recovery_orphans_swept,
            ));
        }
        out.push_str(&format!(
            "catalog: epoch {}, {} live snapshots; deferred drops: {} bytes awaiting release, {} versions reclaimed ({} bytes)\n",
            self.catalog_epoch,
            self.live_snapshots,
            self.deferred_drop_bytes,
            self.deferred_drops_reclaimed,
            self.deferred_reclaimed_bytes,
        ));
        if self.session_quota_bytes != u64::MAX {
            out.push_str(&format!(
                "session quota: {} bytes per session; {} quota hits evicted {} partitions; {} infeasible loads rejected\n",
                self.session_quota_bytes,
                self.quota_hits,
                self.quota_evicted_partitions,
                self.quota_infeasible_rejections,
            ));
        }
        if self.plan_cache_enabled {
            out.push_str(&format!(
                "plan cache: {} of {} statements cached; {} hits, {} misses ({} stale after DDL)\n",
                self.plan_cache_entries,
                self.plan_cache_capacity,
                self.plan_cache_hits,
                self.plan_cache_misses,
                self.plan_cache_stale_plans,
            ));
        }
        if self.connections_opened > 0 || self.net_protocol_errors > 0 {
            out.push_str(&format!(
                "net: {} connections opened ({} active, {} reaped); {} frames / {} bytes sent, {} frames / {} bytes received; {} queries, {} prepares, {} cancels; {} protocol errors, {} auth failures\n",
                self.connections_opened,
                self.connections_active,
                self.connections_reaped,
                self.net_frames_sent,
                self.wire_bytes_sent,
                self.net_frames_received,
                self.wire_bytes_received,
                self.net_queries,
                self.net_prepared_statements,
                self.net_cancels,
                self.net_protocol_errors,
                self.net_auth_failures,
            ));
        }
        let avg_ttfr_ms = if self.streamed_queries > 0 {
            self.streamed_time_to_first_row.as_secs_f64() * 1e3 / self.streamed_queries as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "streaming: {} streamed queries delivered {} rows over {} partitions ({} prefetch hits); avg time-to-first-row {:.2} ms\n",
            self.streamed_queries,
            self.streamed_rows,
            self.streamed_partitions,
            self.prefetch_hits,
            avg_ttfr_ms,
        ));
        out.push_str(&format!(
            "cache-hit bytes served: {}\n",
            self.cache_hit_bytes
        ));
        for s in &self.sessions {
            out.push_str(&format!(
                "  session {:>3}: {} queries ({} rejected), queued {:.1} ms, exec {:.1} ms, {} cache-hit bytes\n",
                s.session_id,
                s.queries,
                s.rejected,
                s.total_queue_wait.as_secs_f64() * 1e3,
                s.total_exec_time.as_secs_f64() * 1e3,
                s.cache_hit_bytes,
            ));
        }
        out
    }

    /// Machine-readable JSON rendering of the full report (durations in
    /// seconds), suitable for CI smoke-test assertions.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("total_queries", self.total_queries);
        w.field_u64("rejected_queries", self.rejected_queries);
        w.field_u64("failed_queries", self.failed_queries);
        w.field_u64(
            "peak_concurrent_queries",
            self.peak_concurrent_queries as u64,
        );
        w.field_u64("peak_queued_queries", self.peak_queued_queries as u64);
        w.field_f64(
            "total_queue_wait_seconds",
            self.total_queue_wait.as_secs_f64(),
        );
        w.field_f64("max_queue_wait_seconds", self.max_queue_wait.as_secs_f64());
        w.field_f64("total_exec_seconds", self.total_exec_time.as_secs_f64());
        w.field_f64(
            "total_time_to_first_row_seconds",
            self.total_time_to_first_row.as_secs_f64(),
        );
        w.field_f64(
            "streamed_time_to_first_row_seconds",
            self.streamed_time_to_first_row.as_secs_f64(),
        );
        w.field_u64("streamed_queries", self.streamed_queries);
        w.field_u64("streamed_rows", self.streamed_rows);
        w.field_u64("streamed_partitions", self.streamed_partitions);
        w.field_u64("prefetch_hits", self.prefetch_hits);
        w.field_u64("cache_hit_bytes", self.cache_hit_bytes);
        w.field_u64("evictions", self.evictions);
        w.field_u64("evicted_partitions", self.evicted_partitions);
        w.field_u64("partial_evictions", self.partial_evictions);
        w.field_u64("evicted_bytes", self.evicted_bytes);
        w.field_u64("lineage_recomputes", self.lineage_recomputes);
        w.field_u64("quota_hits", self.quota_hits);
        w.field_u64("quota_evicted_partitions", self.quota_evicted_partitions);
        w.field_u64(
            "quota_infeasible_rejections",
            self.quota_infeasible_rejections,
        );
        w.field_bool("plan_cache_enabled", self.plan_cache_enabled);
        w.field_u64("plan_cache_hits", self.plan_cache_hits);
        w.field_u64("plan_cache_misses", self.plan_cache_misses);
        w.field_u64("plan_cache_stale_plans", self.plan_cache_stale_plans);
        w.field_u64("plan_cache_entries", self.plan_cache_entries);
        w.field_u64("plan_cache_capacity", self.plan_cache_capacity);
        w.field_u64("connections_opened", self.connections_opened);
        w.field_u64("connections_closed", self.connections_closed);
        w.field_u64("connections_active", self.connections_active);
        w.field_u64("connections_reaped", self.connections_reaped);
        w.field_u64("wire_bytes_sent", self.wire_bytes_sent);
        w.field_u64("wire_bytes_received", self.wire_bytes_received);
        w.field_u64("net_frames_sent", self.net_frames_sent);
        w.field_u64("net_frames_received", self.net_frames_received);
        w.field_u64("net_protocol_errors", self.net_protocol_errors);
        w.field_u64("net_auth_failures", self.net_auth_failures);
        w.field_u64("net_queries", self.net_queries);
        w.field_u64("net_prepared_statements", self.net_prepared_statements);
        w.field_u64("net_cancels", self.net_cancels);
        w.field_u64("partition_rebuilds", self.partition_rebuilds);
        w.field_u64("partition_promotions", self.partition_promotions);
        w.field_u64("spilled_partitions", self.spilled_partitions);
        w.field_u64("spill_disk_bytes", self.spill_disk_bytes);
        w.field_u64("spill_budget_bytes", self.spill_budget_bytes);
        w.field_u64("partitions_demoted", self.partitions_demoted);
        w.field_u64("partitions_promoted", self.partitions_promoted);
        w.field_u64("spill_bytes_written", self.spill_bytes_written);
        w.field_u64("spill_bytes_read", self.spill_bytes_read);
        w.field_u64("spill_poisoned_files", self.spill_poisoned_files);
        w.field_u64(
            "spill_displaced_partitions",
            self.spill_displaced_partitions,
        );
        w.field_bool("wal_enabled", self.wal_enabled);
        w.field_u64("wal_records", self.wal_records);
        w.field_u64("wal_snapshots_written", self.wal_snapshots_written);
        w.field_u64("wal_append_failures", self.wal_append_failures);
        w.field_bool("restored", self.restored);
        w.field_u64(
            "recovery_wal_records_replayed",
            self.recovery_wal_records_replayed,
        );
        w.field_bool("recovery_torn_wal_tail", self.recovery_torn_wal_tail);
        w.field_u64("recovery_tables_restored", self.recovery_tables_restored);
        w.field_u64(
            "recovery_placeholder_tables",
            self.recovery_placeholder_tables,
        );
        w.field_u64("recovery_frames_adopted", self.recovery_frames_adopted);
        w.field_u64("recovery_frames_rejected", self.recovery_frames_rejected);
        w.field_u64("recovery_orphans_swept", self.recovery_orphans_swept);
        w.field_u64("catalog_epoch", self.catalog_epoch);
        w.field_u64("live_snapshots", self.live_snapshots as u64);
        w.field_u64("deferred_drop_bytes", self.deferred_drop_bytes);
        w.field_u64("deferred_drops_reclaimed", self.deferred_drops_reclaimed);
        w.field_u64("deferred_reclaimed_bytes", self.deferred_reclaimed_bytes);
        w.field_u64("memstore_bytes", self.memstore_bytes);
        w.field_u64("rdd_cache_bytes", self.rdd_cache_bytes);
        w.field_u64("memory_budget_bytes", self.memory_budget_bytes);
        w.field_u64("session_quota_bytes", self.session_quota_bytes);
        w.begin_array_field("sessions");
        for s in &self.sessions {
            w.begin_object();
            w.field_u64("session_id", s.session_id);
            w.field_u64("queries", s.queries);
            w.field_u64("rejected", s.rejected);
            w.field_f64("total_queue_wait_seconds", s.total_queue_wait.as_secs_f64());
            w.field_f64("total_exec_seconds", s.total_exec_time.as_secs_f64());
            w.field_u64("cache_hit_bytes", s.cache_hit_bytes);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// How many of the most recent queries [`MetricsRegistry::query_log`]
/// retains. The aggregates are running totals and do not depend on it.
const QUERY_LOG_CAP: usize = 1024;

#[derive(Default)]
struct Totals {
    /// The query-derived [`ServerReport`] fields (`sessions` is kept in the
    /// map below and filled in by [`MetricsRegistry::aggregate`]).
    report: ServerReport,
    sessions: BTreeMap<u64, SessionStats>,
    recent: VecDeque<QueryMetrics>,
}

impl Totals {
    fn session(&mut self, session_id: u64) -> &mut SessionStats {
        let entry = self.sessions.entry(session_id).or_default();
        entry.session_id = session_id;
        entry
    }
}

/// Folds every [`QueryMetrics`] and admission rejection into running
/// server-wide and per-session totals, and keeps the most recent queries.
#[derive(Default)]
pub struct MetricsRegistry {
    totals: Mutex<Totals>,
}

impl MetricsRegistry {
    /// Record one completed (or failed) query — in the totals, the recent
    /// query log and the unified [`shark_obs::metrics()`] registry.
    pub fn record(&self, q: QueryMetrics) {
        let obs = obs_metrics();
        obs.queries.inc();
        if q.failed {
            obs.failed.inc();
        }
        if q.streamed {
            obs.streamed.inc();
        }
        obs.rows_delivered.add(q.rows_streamed);
        obs.prefetch_hits.add(q.prefetch_hits);
        obs.cache_hit_bytes.add(q.cache_hit_bytes);
        obs.recomputed_tables.add(q.recomputed_tables as u64);
        obs.evictions.add(q.evictions_triggered as u64);
        obs.quota_evicted.add(q.quota_evictions as u64);
        if q.plan_cache_hit {
            obs.plan_cache_hits.inc();
        }
        obs.exec_seconds.observe(q.exec_time.as_secs_f64());
        obs.admission_wait_seconds
            .observe(q.queue_wait.as_secs_f64());
        obs.ttfr_seconds.observe(q.time_to_first_row.as_secs_f64());

        let mut totals = self.totals.lock();
        let report = &mut totals.report;
        report.total_queries += 1;
        if q.failed {
            report.failed_queries += 1;
        }
        report.total_queue_wait += q.queue_wait;
        report.max_queue_wait = report.max_queue_wait.max(q.queue_wait);
        report.total_exec_time += q.exec_time;
        report.total_time_to_first_row += q.time_to_first_row;
        if q.streamed {
            report.streamed_queries += 1;
            report.streamed_rows += q.rows_streamed;
            report.streamed_partitions += q.partitions_streamed as u64;
            report.streamed_time_to_first_row += q.time_to_first_row;
            report.prefetch_hits += q.prefetch_hits;
        }
        report.cache_hit_bytes += q.cache_hit_bytes;
        let session = totals.session(q.session_id);
        session.queries += 1;
        session.total_queue_wait += q.queue_wait;
        session.total_exec_time += q.exec_time;
        session.cache_hit_bytes += q.cache_hit_bytes;
        if totals.recent.len() == QUERY_LOG_CAP {
            totals.recent.pop_front();
        }
        totals.recent.push_back(q);
    }

    /// Record an admission rejection for a session.
    pub fn record_rejection(&self, session_id: u64) {
        obs_metrics().rejected.inc();
        let mut totals = self.totals.lock();
        totals.report.rejected_queries += 1;
        totals.session(session_id).rejected += 1;
    }

    /// The most recently recorded queries (a bounded window), in completion
    /// order.
    pub fn query_log(&self) -> Vec<QueryMetrics> {
        self.totals.lock().recent.iter().cloned().collect()
    }

    /// The totals of everything recorded so far. Cache/eviction/concurrency
    /// fields are left at zero for the caller ([`crate::SharkServer`]) to
    /// fill in from the memstore manager and admission controller.
    pub fn aggregate(&self) -> ServerReport {
        let totals = self.totals.lock();
        ServerReport {
            sessions: totals.sessions.values().cloned().collect(),
            ..totals.report.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(session: u64, wait_ms: u64, hit: u64, failed: bool) -> QueryMetrics {
        QueryMetrics {
            session_id: session,
            query_id: 0,
            statement: "SELECT 1".into(),
            queue_wait: Duration::from_millis(wait_ms),
            exec_time: Duration::from_millis(5),
            sim_seconds: 0.1,
            time_to_first_row: Duration::from_millis(2),
            rows_streamed: 4,
            partitions_streamed: 2,
            partitions_total: 4,
            streamed: true,
            prefetch_depth: 2,
            prefetch_hits: 1,
            cache_hit_bytes: hit,
            recomputed_tables: 0,
            evictions_triggered: 0,
            quota_evictions: 0,
            plan_cache_hit: false,
            failed,
        }
    }

    #[test]
    fn aggregates_by_session_and_totals() {
        let registry = MetricsRegistry::default();
        registry.record(q(1, 10, 100, false));
        registry.record(q(1, 30, 50, true));
        registry.record(q(2, 0, 200, false));
        registry.record_rejection(2);
        registry.record_rejection(3);
        let report = registry.aggregate();
        assert_eq!(report.total_queries, 3);
        assert_eq!(report.failed_queries, 1);
        assert_eq!(report.rejected_queries, 2);
        assert_eq!(report.max_queue_wait, Duration::from_millis(30));
        assert_eq!(report.total_queue_wait, Duration::from_millis(40));
        assert_eq!(report.cache_hit_bytes, 350);
        assert_eq!(report.streamed_queries, 3);
        assert_eq!(report.streamed_rows, 12);
        assert_eq!(report.streamed_partitions, 6);
        assert_eq!(report.prefetch_hits, 3);
        assert_eq!(report.total_time_to_first_row, Duration::from_millis(6));
        assert_eq!(report.streamed_time_to_first_row, Duration::from_millis(6));
        assert_eq!(report.sessions.len(), 3);
        assert_eq!(report.sessions[0].session_id, 1);
        assert_eq!(report.sessions[0].queries, 2);
        assert_eq!(report.sessions[1].cache_hit_bytes, 200);
        assert_eq!(report.sessions[2].rejected, 1);
        assert_eq!(report.sessions[2].queries, 0);
        assert_eq!(registry.query_log().len(), 3);
        assert!(!report.render().is_empty());
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"total_queries\":3"));
        assert!(json.contains("\"streamed_rows\":12"));
        assert!(json.contains("\"sessions\":[{"));
        // Publication into the unified registry happened as a side effect.
        let snap = shark_obs::metrics().snapshot();
        assert!(snap.counter("shark_queries_total") >= 3);
        assert!(snap.counter("shark_rejected_total") >= 2);
        assert!(snap
            .histogram("shark_admission_wait_seconds")
            .is_some_and(|h| h.count >= 3));
    }

    #[test]
    fn totals_stay_exact_while_the_query_log_is_bounded() {
        let registry = MetricsRegistry::default();
        for i in 0..5000u64 {
            registry.record(q(i % 3, i % 7, i, i % 10 == 0));
        }
        let report = registry.aggregate();
        assert_eq!(report.total_queries, 5000);
        assert_eq!(report.failed_queries, 500);
        assert_eq!(report.cache_hit_bytes, (0..5000u64).sum::<u64>());
        assert_eq!(report.max_queue_wait, Duration::from_millis(6));
        assert_eq!(report.sessions.len(), 3);
        for (s, stats) in report.sessions.iter().enumerate() {
            let mine = || (0..5000u64).filter(|i| i % 3 == s as u64);
            assert_eq!(stats.queries, mine().count() as u64);
            assert_eq!(stats.cache_hit_bytes, mine().sum::<u64>());
            assert_eq!(
                stats.total_queue_wait,
                Duration::from_millis(mine().map(|i| i % 7).sum())
            );
            assert_eq!(
                stats.total_exec_time,
                Duration::from_millis(5) * stats.queries as u32
            );
        }
        let log = registry.query_log();
        assert_eq!(log.len(), QUERY_LOG_CAP);
        assert_eq!(log.last().unwrap().cache_hit_bytes, 4999);
        assert_eq!(log[0].cache_hit_bytes, 5000 - QUERY_LOG_CAP as u64);
    }
}
