//! # shark-server
//!
//! The serving layer the Shark paper assumes but a single-owner
//! `SqlSession` cannot provide: one warehouse process, many analysts.
//! A [`SharkServer`] owns one shared [`shark_rdd::RddContext`] (cluster,
//! shuffle, the block store of cached table and RDD partitions), one shared
//! [`shark_sql::Catalog`] (tables, whose memtables live in that store) and
//! hands out lightweight [`SessionHandle`]s that execute
//! concurrently on their callers' threads. Three serving concerns live
//! here:
//!
//! * **Admission control** ([`AdmissionController`]) — a fair FIFO queue
//!   bounding in-flight queries and queue depth, rejecting work beyond it.
//! * **Memory-budgeted memstore** ([`MemstoreManager`]) — the policy over
//!   the one block store: a byte budget over cached table and RDD
//!   partitions, with partition-granular eviction in one global LRU order
//!   under pressure (a table goes wholesale only once every partition is
//!   cold). Eviction drops only the in-memory
//!   copy: the partition is demoted to the spill tier when one is
//!   configured, and otherwise, per Shark §2.2, recomputed from lineage
//!   (the table's base generator) by the next scan that needs it.
//! * **Metrics** ([`metrics`]) — one table of every server metric, each
//!   counted once in the context's metrics scope (which also feeds the
//!   process-wide `shark_*` families) or read from server state, projected
//!   into a [`ServerReport`], its JSON and its text; per-query queue wait,
//!   execution time and cache-hit bytes are also aggregated per session.
//! * **Wire serving** ([`net`]) — a length-prefixed, checksummed TCP
//!   protocol ([`net::frame`], spec in `docs/wire-protocol.md`) and a
//!   thread-per-connection frontend ([`NetServer`]) that multiplexes
//!   client connections onto sessions: streamed results are client-paced
//!   through the cursor's prefetch grant, an idle connection is closed
//!   when its between-requests read hits the socket's receive timeout,
//!   and tenants get [`RateClass`]es layered on the per-session quotas.
//!   Repeated statements skip parse + plan through the shared
//!   [`shark_sql::PlanCache`].
//! * **Durability** ([`wal`]) — when the spill tier is configured, catalog
//!   DDL and spill movements are journaled to a write-ahead log and folded
//!   into periodic snapshot + manifest checkpoints;
//!   [`SharkServer::restore`] replays them and re-adopts the spill frames
//!   still on disk, so a restart comes back at the same catalog epoch with
//!   demoted partitions servable at I/O cost instead of recomputed.
//!
//! Every byte these layers write — spill frames, WAL records, snapshot and
//! manifest files, wire frames — goes through one codec,
//! [`shark_common::codec`]; the formats here keep only their own layouts.

#![forbid(unsafe_code)]

pub mod admission;
pub mod memstore;
pub mod metrics;
pub mod net;
pub mod server;
pub mod spill;
pub mod wal;

pub use admission::{AdmissionController, AdmissionError, AdmissionPermit};
pub use memstore::{EvictionEvent, MemstoreManager};
pub use metrics::{QueryMetrics, ServerReport, SessionStats};
pub use net::{frame, NetConfig, NetServer, RateClass};
pub use server::{
    QueryCursor, RddLease, ServerConfig, SessionHandle, SessionQueryResult, SharkServer,
};
pub use spill::{SpillEvent, SpillManager, StoreOutcome};
pub use wal::{
    read_manifest, read_snapshot, replay_wal, write_manifest, write_snapshot, ManifestEntry,
    SnapshotFile, SpillManifest, TableRecord, WalRecord, WalReplay, WalWriter, MANIFEST_FILE,
    SNAPSHOT_FILE, WAL_FILE,
};
