//! The server's metrics: one table, projected into the report, its JSON,
//! its text and the `shark_*` families.
//!
//! The `server_metrics!` table below lists every [`ServerReport`] field
//! once, with its source: a counter or gauge registered in the server
//! context's metrics scope ([`shark_rdd::RddContext::metrics`], which also
//! adds into the process-wide [`shark_obs::metrics()`] registry), or a read
//! of server state for gauges, peaks and configuration. The table expands
//! into the report struct, `ServerMetrics` — the handles update sites
//! bump, one per row — and the report's projection, JSON and text, so
//! adding a metric is one row plus its update site.
//!
//! Besides the report, the query log folds every [`QueryMetrics`] into
//! per-session totals and keeps the most recent queries.

use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use shark_obs::{Counter, Gauge, Histogram, JsonWriter, MetricsRegistry, IO_BUCKETS};
use shark_obs::{LATENCY_BUCKETS, WIRE_BUCKETS};
use shark_sql::{PARTITION_PROMOTIONS, PARTITION_REBUILDS};
use shark_sql::{PLAN_CACHE_LOOKUP_HITS, PLAN_CACHE_MISSES, PLAN_CACHE_STALE_PLANS};

use crate::server::ServerShared;

/// What one query cost, observed by the serving layer.
#[derive(Debug, Clone, Default)]
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

/// A report value: how it is written into the JSON and the text.
trait Field {
    fn json(&self, w: &mut JsonWriter, key: &str);
    fn text(&self, out: &mut String);
}

impl Field for u64 {
    fn json(&self, w: &mut JsonWriter, key: &str) {
        w.field_u64(key, *self);
    }
    fn text(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Field for usize {
    fn json(&self, w: &mut JsonWriter, key: &str) {
        w.field_u64(key, *self as u64);
    }
    fn text(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Field for bool {
    fn json(&self, w: &mut JsonWriter, key: &str) {
        w.field_bool(key, *self);
    }
    fn text(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

/// Durations are seconds in the JSON (keyed `…_seconds`), milliseconds in
/// the text.
impl Field for Duration {
    fn json(&self, w: &mut JsonWriter, key: &str) {
        w.field_f64(key, self.as_secs_f64());
    }
    fn text(&self, out: &mut String) {
        let _ = write!(out, "{:.1} ms", self.as_secs_f64() * 1e3);
    }
}

/// A row's source, read when the report is projected.
trait Source<T> {
    fn read(&self, s: &ServerShared, log: &QueryTotals) -> T;
}

impl Source<u64> for Arc<Counter> {
    fn read(&self, _: &ServerShared, _: &QueryTotals) -> u64 {
        self.get()
    }
}

/// A flag row is true once its counter has counted anything.
impl Source<bool> for Arc<Counter> {
    fn read(&self, _: &ServerShared, _: &QueryTotals) -> bool {
        self.get() > 0
    }
}

impl Source<u64> for Arc<Gauge> {
    fn read(&self, _: &ServerShared, _: &QueryTotals) -> u64 {
        self.get().max(0) as u64
    }
}

impl<T> Source<T> for fn(&ServerShared, &QueryTotals) -> T {
    fn read(&self, s: &ServerShared, log: &QueryTotals) -> T {
        self(s, log)
    }
}

/// The handle type of a row's source.
macro_rules! handle {
    (counter $ty:ty) => { Arc<Counter> };
    (gauge $ty:ty) => { Arc<Gauge> };
    (histogram $ty:ty) => { Arc<Histogram> };
    (state $ty:ty) => { fn(&ServerShared, &QueryTotals) -> $ty };
}

/// Register a row's source in `$scope`.
macro_rules! register {
    ($scope:ident, $s:ident, $log:ident, counter($name:literal, $help:literal)) => {
        $scope.counter($name, $help)
    };
    ($scope:ident, $s:ident, $log:ident, counter($decl:path)) => {
        $scope.counter($decl.0, $decl.1)
    };
    ($scope:ident, $s:ident, $log:ident, gauge($name:literal, $help:literal)) => {
        $scope.gauge($name, $help)
    };
    ($scope:ident, $s:ident, $log:ident, histogram($name:literal, $help:literal, $buckets:expr)) => {
        $scope.histogram($name, $help, $buckets)
    };
    ($scope:ident, $s:ident, $log:ident, state($read:expr)) => {
        |$s, $log| $read
    };
}

/// The `shark_*` family a row projects, if any.
macro_rules! family {
    (counter($name:literal, $help:literal)) => {
        Some($name)
    };
    (counter($decl:path)) => {
        Some($decl.0)
    };
    (gauge($name:literal, $help:literal)) => {
        Some($name)
    };
    (state($read:expr)) => {
        None
    };
}

/// A row's JSON key: the field name unless the row names one.
macro_rules! key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Expand the metrics table (see the module docs).
macro_rules! server_metrics {
    (
        |$s:ident, $log:ident|
        $(
            $section:literal {
                $(
                    $(#[doc = $doc:literal])*
                    $field:ident: $ty:ty = $kind:ident($($arg:tt)*) $(as $key:literal)?,
                )*
            }
        )*
        extra {
            $(
                $(#[doc = $xdoc:literal])*
                $xfield:ident = $xkind:ident($($xarg:tt)*),
            )*
        }
    ) => {
        /// Server-level aggregate over every session: a projection of the
        /// server's metrics table (one source per field).
        #[derive(Debug, Clone, Default)]
        pub struct ServerReport {
            $($( $(#[doc = $doc])* pub $field: $ty, )*)*
            /// Per-session aggregates, ordered by session id.
            pub sessions: Vec<SessionStats>,
        }

        /// One handle per row of the metrics table, registered in a context
        /// scope: the counters and gauges update sites bump, the histograms
        /// they observe, and the state reads the report projects.
        pub(crate) struct ServerMetrics {
            $($( pub(crate) $field: handle!($kind $ty), )*)*
            $( $(#[doc = $xdoc])* pub(crate) $xfield: handle!($xkind ()), )*
        }

        impl ServerMetrics {
            /// Register every row in `scope`.
            #[allow(unused_variables)] // a state row reads `s` or `log`, rarely both
            pub(crate) fn register(scope: &MetricsRegistry) -> ServerMetrics {
                ServerMetrics {
                    $($( $field: register!(scope, $s, $log, $kind($($arg)*)), )*)*
                    $( $xfield: register!(scope, $s, $log, $xkind($($xarg)*)), )*
                }
            }

            /// Project the table into a report.
            fn project(&self, s: &ServerShared, log: &QueryTotals) -> ServerReport {
                ServerReport {
                    $($( $field: <_ as Source<$ty>>::read(&self.$field, s, log), )*)*
                    sessions: Vec::new(),
                }
            }
        }

        impl ServerReport {
            /// Every field's JSON key with the `shark_*` family it projects
            /// (`None` for reads of server state), in JSON order.
            pub const ROWS: &'static [(&'static str, Option<&'static str>)] = &[
                $($( (key!($field $($key)?), family!($kind($($arg)*))), )*)*
            ];

            /// Human-readable rendering, one line per section (used by the
            /// example binaries).
            pub fn render(&self) -> String {
                let mut out = String::new();
                $(
                    out.push_str($section);
                    out.push(':');
                    $(
                        out.push_str(concat!(" ", stringify!($field), " "));
                        self.$field.text(&mut out);
                        out.push(',');
                    )*
                    out.pop();
                    out.push('\n');
                )*
                for s in &self.sessions {
                    let _ = writeln!(
                        out,
                        "  session {:>3}: {} queries ({} rejected), queued {:.1} ms, exec {:.1} ms, {} cache-hit bytes",
                        s.session_id,
                        s.queries,
                        s.rejected,
                        s.total_queue_wait.as_secs_f64() * 1e3,
                        s.total_exec_time.as_secs_f64() * 1e3,
                        s.cache_hit_bytes,
                    );
                }
                out
            }

            /// Machine-readable JSON rendering of the full report (durations
            /// in seconds), suitable for CI smoke-test assertions.
            pub fn to_json(&self) -> String {
                let mut w = JsonWriter::new();
                w.begin_object();
                $($( self.$field.json(&mut w, key!($field $($key)?)); )*)*
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
    };
}

server_metrics! {
    |s, log|
    "queries" {
        /// Queries that ran to completion or failure (not rejected ones).
        total_queries: u64 = counter("shark_queries_total", "Queries run (including failed)"),
        /// Queries turned away because the admission queue was full.
        rejected_queries: u64 = counter("shark_rejected_total", "Queries rejected by admission control"),
        /// Queries that returned an error.
        failed_queries: u64 = counter("shark_queries_failed_total", "Queries that returned an error"),
        /// Highest number of queries executing simultaneously.
        peak_concurrent_queries: usize = state(s.admission.peak_running()),
        /// Deepest admission queue observed.
        peak_queued_queries: usize = state(s.admission.peak_queued()),
        /// Sum of queue waits across all queries.
        total_queue_wait: Duration = state(log.total_queue_wait) as "total_queue_wait_seconds",
        /// Largest single queue wait.
        max_queue_wait: Duration = state(log.max_queue_wait) as "max_queue_wait_seconds",
        /// Sum of wall-clock execution times.
        total_exec_time: Duration = state(log.total_exec_time) as "total_exec_seconds",
        /// Sum of time-to-first-row across all queries (batch queries
        /// contribute their full execution time).
        total_time_to_first_row: Duration =
            state(log.total_time_to_first_row) as "total_time_to_first_row_seconds",
    }
    "streaming" {
        /// Sum of time-to-first-row across streamed queries only — the number
        /// the streaming headline metric is computed from.
        streamed_time_to_first_row: Duration =
            state(log.streamed_time_to_first_row) as "streamed_time_to_first_row_seconds",
        /// Queries served through a streaming cursor.
        streamed_queries: u64 = counter("shark_streamed_queries_total", "Queries served through a streaming cursor"),
        /// Rows delivered through streaming cursors.
        streamed_rows: u64 = state(log.streamed_rows),
        /// Result partitions executed by streamed queries (early-terminated
        /// LIMIT streams make this smaller than the tables' partition counts).
        streamed_partitions: u64 = state(log.streamed_partitions),
        /// Batch deliveries across all streamed queries that were served by an
        /// already-finished prefetch worker (batch queries never have any).
        prefetch_hits: u64 = counter(
            "shark_prefetch_hits_total",
            "Stream batch deliveries served by an already-finished prefetch worker"
        ),
        /// Total cache-hit bytes served.
        cache_hit_bytes: u64 = counter(
            "shark_cache_hit_bytes_total",
            "Resident columnar bytes of referenced cached tables at admission"
        ),
    }
    "memstore" {
        /// Policy eviction events performed by the memstore manager (one per
        /// victim table or RDD per enforcement pass).
        evictions: u64 = counter(
            "shark_memstore_evictions_total",
            "Policy eviction events (one per victim table or RDD per enforcement pass)"
        ),
        /// Individual partitions those evictions dropped.
        evicted_partitions: u64 = counter(
            "shark_memstore_evicted_partitions_total",
            "Partitions dropped or demoted by policy evictions"
        ),
        /// Eviction events that left their table partially resident — the
        /// partition-granular evictions a whole-table policy could not do.
        partial_evictions: u64 = counter(
            "shark_memstore_partial_evictions_total",
            "Eviction events that left their table partially resident"
        ),
        /// Bytes freed by those evictions.
        evicted_bytes: u64 = counter(
            "shark_memstore_evicted_bytes_total",
            "Memory bytes freed by policy evictions"
        ),
    }
    "quota" {
        /// Times a session was found over its memory quota.
        quota_hits: u64 = counter("shark_quota_hits_total", "Times a session was found over its memory quota"),
        /// Partitions evicted because their owning session exceeded its quota.
        quota_evicted_partitions: u64 = counter(
            "shark_memstore_quota_evicted_partitions_total",
            "Partitions evicted by per-session quota enforcement (query completions and loads)"
        ),
        /// Table loads rejected at admission time because their recorded full
        /// footprint provably exceeded the per-session quota (admitting them
        /// could only thrash).
        quota_infeasible_rejections: u64 = counter(
            "shark_quota_infeasible_rejections_total",
            "Table loads rejected because their footprint provably exceeds the session quota"
        ),
    }
    "plan cache" {
        /// Whether the shared prepared-statement / plan cache is enabled.
        plan_cache_enabled: bool = state(s.plan_cache.is_some()),
        /// Executions that reused a cached plan (skipped parse and plan).
        plan_cache_hits: u64 = counter(PLAN_CACHE_LOOKUP_HITS),
        /// Plan-tier lookups that had to compile (cold statements and epoch
        /// invalidations).
        plan_cache_misses: u64 = counter(PLAN_CACHE_MISSES),
        /// Cache misses caused by a DDL epoch bump invalidating a cached plan.
        plan_cache_stale_plans: u64 = counter(PLAN_CACHE_STALE_PLANS),
        /// Statements currently held by the plan cache.
        plan_cache_entries: u64 = state(s.plan_cache.as_ref().map_or(0, |c| c.entries() as u64)),
        /// The plan cache's configured capacity (0 = disabled).
        plan_cache_capacity: u64 = state(s.plan_cache.as_ref().map_or(0, |c| c.capacity() as u64)),
    }
    "net" {
        /// TCP connections ever accepted by the net frontend (0 when the
        /// server is not serving TCP).
        connections_opened: u64 = counter(
            "shark_net_connections_opened_total",
            "TCP connections accepted by the serving frontend"
        ),
        /// TCP connections fully torn down (client close, error, or reap).
        connections_closed: u64 = counter(
            "shark_net_connections_closed_total",
            "TCP connections fully torn down (client close, error, or reap)"
        ),
        /// TCP connections currently open.
        connections_active: u64 = gauge("shark_net_connections_active", "TCP connections currently open"),
        /// Connections closed for sitting idle past their rate class's deadline.
        connections_reaped: u64 = counter(
            "shark_net_connections_reaped_total",
            "Connections closed for sitting idle past their deadline"
        ),
        /// Payload + frame-header bytes written to client sockets.
        wire_bytes_sent: u64 = counter(
            "shark_net_bytes_sent_total",
            "Frame bytes (header + payload) written to client sockets"
        ),
        /// Payload + frame-header bytes read from client sockets.
        wire_bytes_received: u64 = counter(
            "shark_net_bytes_received_total",
            "Frame bytes (header + payload) read from client sockets"
        ),
        /// Protocol frames written to client sockets.
        net_frames_sent: u64 = counter("shark_net_frames_sent_total", "Protocol frames written to client sockets"),
        /// Protocol frames read from client sockets.
        net_frames_received: u64 = counter("shark_net_frames_received_total", "Protocol frames read from client sockets"),
        /// Malformed frames observed (bad magic, oversized length, checksum
        /// mismatch, garbage payload) — each closes its connection.
        net_protocol_errors: u64 = counter(
            "shark_net_protocol_errors_total",
            "Malformed frames that closed their connection"
        ),
        /// Hello handshakes rejected (wrong magic/version/auth token).
        net_auth_failures: u64 = counter(
            "shark_net_auth_failures_total",
            "Hello handshakes rejected (magic, version, or token)"
        ),
        /// Query + Execute frames processed by connection handlers.
        net_queries: u64 = counter("shark_net_queries_total", "Query and Execute frames processed"),
        /// Prepare frames that registered a prepared statement.
        net_prepared_statements: u64 = counter(
            "shark_net_prepared_statements_total",
            "Prepare frames that registered a statement"
        ),
        /// Cancel frames honored mid-query.
        net_cancels: u64 = counter("shark_net_cancels_total", "Cancel frames honored mid-query"),
    }
    "spill tier" {
        /// Partitions rebuilt from the base generator by scans (lineage
        /// recovery after eviction or node failure) into live tables.
        partition_rebuilds: u64 = counter(PARTITION_REBUILDS),
        /// Demoted partitions faulted back into memory from the spill tier by
        /// scans into live tables — recoveries that cost I/O instead of
        /// recompute.
        partition_promotions: u64 = counter(PARTITION_PROMOTIONS),
        /// Partitions currently demoted to the spill tier.
        spilled_partitions: u64 = state(s.memstore.spill().map_or(0, |t| t.spilled_partition_count())),
        /// Bytes of spill frames currently on disk.
        spill_disk_bytes: u64 = state(s.memstore.spill().map_or(0, |t| t.disk_bytes())),
        /// The configured spill-tier disk budget (`u64::MAX` = unlimited;
        /// 0 when no spill tier is configured).
        spill_budget_bytes: u64 = state(s.memstore.spill().map_or(0, |t| t.budget_bytes())),
        /// Partitions ever demoted (written) to the spill tier.
        partitions_demoted: u64 = counter(
            "shark_spill_partitions_demoted_total",
            "Partitions demoted from the memstore to the spill tier"
        ),
        /// Partitions ever promoted (read back) from the spill tier.
        partitions_promoted: u64 = counter(
            "shark_spill_partitions_promoted_total",
            "Partitions promoted from the spill tier back into memory"
        ),
        /// Spill-frame bytes ever written.
        spill_bytes_written: u64 = counter("shark_spill_bytes_written_total", "Spill-frame bytes written by demotions"),
        /// Spill-frame bytes ever read back.
        spill_bytes_read: u64 = counter("shark_spill_bytes_read_total", "Spill-frame bytes read by promotions"),
        /// Spill files found corrupt or unreadable on promotion and discarded
        /// (the partition fell back to lineage recompute).
        spill_poisoned_files: u64 = counter(
            "shark_spill_poisoned_files_total",
            "Spill files dropped because they failed frame validation"
        ),
        /// Spill frames displaced from disk by the spill tier's own budget.
        spill_displaced_partitions: u64 = counter(
            "shark_spill_displaced_partitions_total",
            "Spilled partitions deleted by disk-budget LRU displacement"
        ),
        /// Demotions abandoned because the spill frame could not be written
        /// (the eviction became a drop: lineage recompute ahead).
        spill_write_failures: u64 = counter(
            "shark_spill_write_failures_total",
            "Demotions abandoned because the spill frame could not be written"
        ),
    }
    "durability" {
        /// Whether catalog durability (WAL + snapshots) is enabled.
        wal_enabled: bool = state(s.durability.is_some()),
        /// Records in the catalog WAL (resets when a checkpoint truncates the
        /// log).
        wal_records: u64 = state(s.durability.as_ref().map_or(0, |d| d.lock().wal.record_count())),
        /// Catalog checkpoints written (snapshot + manifest + WAL truncation).
        wal_snapshots_written: u64 = counter(
            "shark_wal_checkpoints_total",
            "Catalog checkpoints written (snapshot + manifest + WAL truncation)"
        ),
        /// WAL batch appends that failed (durability is best-effort: the query
        /// itself still succeeded), and checkpoints that failed to land.
        wal_append_failures: u64 = counter(
            "shark_wal_append_failures_total",
            "WAL batch appends and checkpoint writes that failed"
        ),
    }
    "recovery" {
        /// Whether this server was started via `SharkServer::restore`.
        restored: bool = counter("shark_recovery_restores_total", "Server restores performed from snapshot + WAL"),
        /// WAL records replayed during restore.
        recovery_wal_records_replayed: u64 = counter(
            "shark_recovery_wal_records_replayed_total",
            "WAL records replayed during restores"
        ),
        /// Whether restore truncated a torn or corrupt WAL tail.
        recovery_torn_wal_tail: bool = counter(
            "shark_recovery_torn_wal_tails_total",
            "Restores that truncated a torn or corrupt WAL tail"
        ),
        /// Tables re-registered from snapshot + WAL during restore.
        recovery_tables_restored: u64 = counter(
            "shark_recovery_tables_restored_total",
            "Tables re-registered from snapshot + WAL during restores"
        ),
        /// Restored tables left with a placeholder row generator (no resolver
        /// match); they panic on first lineage recompute.
        recovery_placeholder_tables: u64 = counter(
            "shark_recovery_placeholder_tables_total",
            "Restored tables left with a placeholder row generator"
        ),
        /// Spill frames re-adopted into the tier during restore.
        recovery_frames_adopted: u64 = counter(
            "shark_recovery_frames_adopted_total",
            "Spill frames re-adopted into the spill tier during restores"
        ),
        /// Manifest/WAL frame expectations rejected during restore (missing,
        /// corrupt or version-mismatched files).
        recovery_frames_rejected: u64 = counter(
            "shark_recovery_frames_rejected_total",
            "Manifest entries rejected during restores (missing, corrupt or version-mismatched frames)"
        ),
        /// Unreachable spill files deleted by the post-adoption orphan sweep.
        recovery_orphans_swept: u64 = counter(
            "shark_recovery_orphans_swept_total",
            "Unreachable spill files deleted by restores' orphan sweeps"
        ),
    }
    "catalog" {
        /// The catalog's current epoch (bumped by every DDL).
        catalog_epoch: u64 = state(s.catalog.epoch()),
        /// Catalog snapshots pinned at report time (in-flight queries, open
        /// streaming cursors).
        live_snapshots: usize = state(s.catalog.live_snapshots()),
        /// Resident bytes of `DROP TABLE`d versions still pinned by open
        /// snapshots, awaiting deferred reclamation.
        deferred_drop_bytes: u64 = state(s.catalog.deferred_drop_bytes()),
        /// Dropped table versions reclaimed after their last pinning snapshot
        /// was released.
        deferred_drops_reclaimed: u64 = counter(
            "shark_deferred_drops_reclaimed_total",
            "Dropped table versions reclaimed after their last pinning snapshot closed"
        ),
        /// Bytes those deferred reclamations freed.
        deferred_reclaimed_bytes: u64 = counter(
            "shark_deferred_reclaimed_bytes_total",
            "Bytes freed by deferred-drop reclamations"
        ),
    }
    "memory" {
        /// Resident table-memstore bytes at report time.
        memstore_bytes: u64 = state(s.catalog.memstore_bytes()),
        /// Resident RDD-cache bytes at report time.
        rdd_cache_bytes: u64 = state(s.ctx.cache().rdd_totals().bytes),
        /// The configured memory budget.
        memory_budget_bytes: u64 = state(s.memstore.budget_bytes()),
        /// The configured per-session memory quota (`u64::MAX` = unlimited).
        session_quota_bytes: u64 = state(s.memstore.session_quota_bytes()),
    }
    extra {
        /// Result rows delivered to clients, streamed or not.
        rows_delivered = counter("shark_rows_delivered_total", "Result rows delivered to clients"),
        /// Eviction events queries' completions triggered.
        evictions_triggered = counter(
            "shark_evictions_triggered_total",
            "Eviction events triggered by query-completion budget enforcement"
        ),
        /// Queries that ran on a cached plan and succeeded (the plan cache's
        /// own lookup count is `plan_cache_hits`).
        query_plan_cache_hits = counter(
            "shark_plan_cache_hits_total",
            "Queries answered with a cached plan (parse and plan skipped)"
        ),
        /// RDD-cache partitions the memory budget evicted.
        rdd_cache_evicted_partitions = counter(
            "shark_rdd_cache_evicted_partitions_total",
            "RDD-cache partitions evicted by the memory budget"
        ),
        /// RDD-cache bytes the memory budget evicted.
        rdd_cache_evicted_bytes = counter(
            "shark_rdd_cache_evicted_bytes_total",
            "RDD-cache bytes evicted by the memory budget"
        ),
        /// Query execution time after admission.
        exec_seconds = histogram(
            "shark_query_exec_seconds",
            "Wall-clock query execution time after admission",
            LATENCY_BUCKETS
        ),
        /// Admission-queue waits.
        admission_wait_seconds = histogram(
            "shark_admission_wait_seconds",
            "Time queries spent waiting in the admission queue",
            LATENCY_BUCKETS
        ),
        /// Time from admission to the first delivered row.
        ttfr_seconds = histogram(
            "shark_time_to_first_row_seconds",
            "Time from admission until the first result row was delivered",
            LATENCY_BUCKETS
        ),
        /// Sizes of frames written to clients.
        net_frame_bytes = histogram(
            "shark_net_frame_bytes",
            "Size distribution of frames written to clients",
            WIRE_BUCKETS
        ),
        /// Spill-frame write latency.
        spill_write_seconds = histogram(
            "shark_spill_write_seconds",
            "Latency of writing one demoted partition's spill frame",
            IO_BUCKETS
        ),
        /// Spill-frame read latency.
        spill_read_seconds = histogram(
            "shark_spill_read_seconds",
            "Latency of reading one spill frame back during promotion",
            IO_BUCKETS
        ),
        /// Restore duration.
        recovery_seconds = histogram(
            "shark_recovery_seconds",
            "Wall-clock duration of server restores",
            IO_BUCKETS
        ),
    }
}

impl ServerMetrics {
    /// A table of its own for a manager built outside a server, in a fresh
    /// scope that still adds into the process registry.
    pub(crate) fn standalone() -> Arc<ServerMetrics> {
        Arc::new(ServerMetrics::register(&MetricsRegistry::scoped()))
    }
}

/// The query-derived report fields that are not counters: sums of
/// durations, the largest queue wait, and what streamed queries delivered.
#[derive(Debug, Clone, Default)]
pub(crate) struct QueryTotals {
    total_queue_wait: Duration,
    max_queue_wait: Duration,
    total_exec_time: Duration,
    total_time_to_first_row: Duration,
    streamed_time_to_first_row: Duration,
    streamed_rows: u64,
    streamed_partitions: u64,
}

/// How many of the most recent queries [`QueryLog::query_log`] retains.
/// The aggregates are running totals and do not depend on it.
const QUERY_LOG_CAP: usize = 1024;

#[derive(Default)]
struct LogState {
    totals: QueryTotals,
    sessions: BTreeMap<u64, SessionStats>,
    recent: VecDeque<QueryMetrics>,
}

impl LogState {
    fn session(&mut self, session_id: u64) -> &mut SessionStats {
        let entry = self.sessions.entry(session_id).or_default();
        entry.session_id = session_id;
        entry
    }
}

/// Counts every [`QueryMetrics`] and admission rejection in the server's
/// metrics table, folds them into per-session totals, and keeps the most
/// recent queries.
pub(crate) struct QueryLog {
    metrics: Arc<ServerMetrics>,
    state: Mutex<LogState>,
}

impl QueryLog {
    pub(crate) fn new(metrics: Arc<ServerMetrics>) -> QueryLog {
        QueryLog {
            metrics,
            state: Mutex::default(),
        }
    }

    /// Record one completed (or failed) query.
    pub(crate) fn record(&self, q: QueryMetrics) {
        let m = &self.metrics;
        m.total_queries.inc();
        if q.failed {
            m.failed_queries.inc();
        }
        if q.streamed {
            m.streamed_queries.inc();
        }
        m.rows_delivered.add(q.rows_streamed);
        m.prefetch_hits.add(q.prefetch_hits);
        m.cache_hit_bytes.add(q.cache_hit_bytes);
        m.evictions_triggered.add(q.evictions_triggered as u64);
        if q.plan_cache_hit {
            m.query_plan_cache_hits.inc();
        }
        m.exec_seconds.observe(q.exec_time.as_secs_f64());
        m.admission_wait_seconds.observe(q.queue_wait.as_secs_f64());
        m.ttfr_seconds.observe(q.time_to_first_row.as_secs_f64());

        let mut state = self.state.lock();
        let totals = &mut state.totals;
        totals.total_queue_wait += q.queue_wait;
        totals.max_queue_wait = totals.max_queue_wait.max(q.queue_wait);
        totals.total_exec_time += q.exec_time;
        totals.total_time_to_first_row += q.time_to_first_row;
        if q.streamed {
            totals.streamed_rows += q.rows_streamed;
            totals.streamed_partitions += q.partitions_streamed as u64;
            totals.streamed_time_to_first_row += q.time_to_first_row;
        }
        let session = state.session(q.session_id);
        session.queries += 1;
        session.total_queue_wait += q.queue_wait;
        session.total_exec_time += q.exec_time;
        session.cache_hit_bytes += q.cache_hit_bytes;
        if state.recent.len() == QUERY_LOG_CAP {
            state.recent.pop_front();
        }
        state.recent.push_back(q);
    }

    /// Record an admission rejection for a session.
    pub(crate) fn record_rejection(&self, session_id: u64) {
        self.metrics.rejected_queries.inc();
        self.state.lock().session(session_id).rejected += 1;
    }

    /// The most recently recorded queries (a bounded window), in completion
    /// order.
    pub(crate) fn query_log(&self) -> Vec<QueryMetrics> {
        self.state.lock().recent.iter().cloned().collect()
    }

    /// Project the metrics table into a report over `s`.
    pub(crate) fn report(&self, s: &ServerShared) -> ServerReport {
        let (totals, sessions) = {
            let state = self.state.lock();
            let sessions = state.sessions.values().cloned().collect();
            (state.totals.clone(), sessions)
        };
        ServerReport {
            sessions,
            ..self.metrics.project(s, &totals)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(session: u64, wait_ms: u64, hit: u64, failed: bool) -> QueryMetrics {
        QueryMetrics {
            session_id: session,
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
            failed,
            ..QueryMetrics::default()
        }
    }

    #[test]
    fn aggregates_by_session_and_totals() {
        let log = QueryLog::new(ServerMetrics::standalone());
        log.record(q(1, 10, 100, false));
        log.record(q(1, 30, 50, true));
        log.record(q(2, 0, 200, false));
        log.record_rejection(2);
        log.record_rejection(3);
        let m = &log.metrics;
        assert_eq!(m.total_queries.get(), 3);
        assert_eq!(m.failed_queries.get(), 1);
        assert_eq!(m.rejected_queries.get(), 2);
        assert_eq!(m.cache_hit_bytes.get(), 350);
        assert_eq!(m.streamed_queries.get(), 3);
        assert_eq!(m.prefetch_hits.get(), 3);
        let state = log.state.lock();
        let totals = &state.totals;
        assert_eq!(totals.max_queue_wait, Duration::from_millis(30));
        assert_eq!(totals.total_queue_wait, Duration::from_millis(40));
        assert_eq!(totals.streamed_rows, 12);
        assert_eq!(totals.streamed_partitions, 6);
        assert_eq!(totals.total_time_to_first_row, Duration::from_millis(6));
        assert_eq!(totals.streamed_time_to_first_row, Duration::from_millis(6));
        let sessions: Vec<&SessionStats> = state.sessions.values().collect();
        assert_eq!(sessions.len(), 3);
        assert_eq!(sessions[0].session_id, 1);
        assert_eq!(sessions[0].queries, 2);
        assert_eq!(sessions[1].cache_hit_bytes, 200);
        assert_eq!(sessions[2].rejected, 1);
        assert_eq!(sessions[2].queries, 0);
        drop(state);
        assert_eq!(log.query_log().len(), 3);
        // The scope added into the unified registry as it counted.
        let snap = shark_obs::metrics().snapshot();
        assert!(snap.counter("shark_queries_total") >= 3);
        assert!(snap.counter("shark_rejected_total") >= 2);
        assert!(snap
            .histogram("shark_admission_wait_seconds")
            .is_some_and(|h| h.count >= 3));
    }

    #[test]
    fn totals_stay_exact_while_the_query_log_is_bounded() {
        let log = QueryLog::new(ServerMetrics::standalone());
        for i in 0..5000u64 {
            log.record(q(i % 3, i % 7, i, i % 10 == 0));
        }
        assert_eq!(log.metrics.total_queries.get(), 5000);
        assert_eq!(log.metrics.failed_queries.get(), 500);
        assert_eq!(log.metrics.cache_hit_bytes.get(), (0..5000u64).sum::<u64>());
        let state = log.state.lock();
        assert_eq!(state.totals.max_queue_wait, Duration::from_millis(6));
        assert_eq!(state.sessions.len(), 3);
        for (s, stats) in state.sessions.values().enumerate() {
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
        drop(state);
        let recent = log.query_log();
        assert_eq!(recent.len(), QUERY_LOG_CAP);
        assert_eq!(recent.last().unwrap().cache_hit_bytes, 4999);
        assert_eq!(recent[0].cache_hit_bytes, 5000 - QUERY_LOG_CAP as u64);
    }

    #[test]
    fn every_row_has_one_key_and_families_are_unique() {
        let mut keys: Vec<&str> = ServerReport::ROWS.iter().map(|(k, _)| *k).collect();
        let mut families: Vec<&str> = ServerReport::ROWS.iter().filter_map(|(_, f)| *f).collect();
        let rows = keys.len();
        let backed = families.len();
        keys.sort_unstable();
        keys.dedup();
        families.sort_unstable();
        families.dedup();
        assert_eq!((keys.len(), families.len()), (rows, backed));
        let report = ServerReport::default();
        let text = report.render();
        assert_eq!(text.lines().count(), 11, "one line per section");
        assert!(text.contains("catalog: catalog_epoch 0,"));
    }
}
