//! The catalog / metastore and the in-memory columnar table store.
//!
//! Tables are registered with a schema, a partition count and a *base
//! generator* — a deterministic function producing the rows of each
//! partition, standing in for the files of a Hive warehouse on HDFS. Tables
//! created with `"shark.cache" = "true"` additionally get a [`MemTable`]:
//! a view over the context's [`BlockStore`] holding the columnar memstore
//! partitions, each tagged with the node it lives on so simulated node
//! failures drop exactly the partitions that lived on the failed worker
//! (recovered later through the base generator, i.e. lineage).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::{Mutex, RwLock};
use shark_columnar::{ColumnarPartition, PartitionStats};
use shark_common::{Result, Row, Schema, SharkError};
use shark_obs::{Counter, MetricsRegistry};
use shark_rdd::{BlockId, BlockStore, Owner, RddContext, Totals};

/// Family and help of the scans' lineage rebuilds into live memtables,
/// counted in the scope of the catalog's context.
pub const PARTITION_REBUILDS: (&str, &str) = (
    "shark_partition_rebuilds_total",
    "Evicted/lost partitions rebuilt from lineage during scans",
);

/// Family and help of the scans' promotions of demoted partitions back
/// into live memtables, counted in the scope of the catalog's context.
pub const PARTITION_PROMOTIONS: (&str, &str) = (
    "shark_partition_promotions_total",
    "Demoted partitions faulted back in from the spill tier",
);

/// Deterministic per-partition row generator (the "files" of a table).
pub type RowGenerator = Arc<dyn Fn(usize) -> Vec<Row> + Send + Sync>;

/// A second storage tier demoted partitions can be faulted back in from.
///
/// Eviction under memory pressure may *demote* a partition to disk instead
/// of dropping it; the scan layer then asks the installed source before
/// paying a lineage recompute. Implemented by the server's spill manager —
/// the trait lives here so the scan path stays independent of the serving
/// crate.
pub trait SpillSource: Send + Sync {
    /// Fault one demoted partition back in, returning the partition and the
    /// spill-file bytes read. `expected_version` is the requesting table's
    /// [`TableMeta::version`]; a frame written under any other version (a
    /// prior incarnation of the name, or a restore gone stale) must not be
    /// served. `None` means not demoted — or a poisoned (truncated,
    /// corrupted, version-mismatched) spill file, which degrades to the
    /// caller's lineage-recompute path, never to an error.
    fn fetch(
        &self,
        table: &str,
        partition: usize,
        expected_version: u64,
    ) -> Option<(Arc<ColumnarPartition>, u64)>;
}

/// Where a memtable lives: the block store holding its partitions and the
/// scope counters its scans' recoveries add into.
#[derive(Clone)]
pub(crate) struct Binding {
    store: Arc<BlockStore>,
    rebuilds: Arc<Counter>,
    promotions: Arc<Counter>,
}

impl Binding {
    fn new(store: Arc<BlockStore>, scope: &MetricsRegistry) -> Binding {
        Binding {
            store,
            rebuilds: scope.counter(PARTITION_REBUILDS.0, PARTITION_REBUILDS.1),
            promotions: scope.counter(PARTITION_PROMOTIONS.0, PARTITION_PROMOTIONS.1),
        }
    }

    /// A private store and scope, for a memtable or catalog without a
    /// context.
    fn private() -> Binding {
        Binding::new(Arc::default(), &MetricsRegistry::scoped())
    }
}

/// Memtable ids are unique in the process, so table blocks of different
/// stores never share a [`BlockId`].
static NEXT_MEMTABLE_ID: AtomicUsize = AtomicUsize::new(0);

/// The cached, columnar representation of a table (the memstore, §3.2).
///
/// The partition — not the table — is the unit of storage, recency tracking
/// and eviction (§3.1–3.2). Partitions are blocks of a [`BlockStore`], keyed
/// [`BlockId::Table`] by this memtable's id: the store holds the data, the
/// bytes, the last-access tick and the node, and keeps this table's
/// resident totals. The memtable keeps only metadata. Partition
/// *statistics* are retained across policy evictions — they are tiny and
/// stay valid because the base generator is deterministic — so map pruning
/// and top-k partition ordering keep working over a partially evicted
/// table; an evicted partition is rebuilt from the base generator (its
/// lineage) by the next scan that needs it.
pub struct MemTable {
    id: usize,
    /// The store holding the partitions and the scope counting their
    /// recoveries: the catalog's, bound when the table is installed; a
    /// private one if it is used before that.
    binding: OnceLock<Binding>,
    /// Per-partition statistics, retained across policy evictions (but not
    /// across node failures, which are treated as data loss).
    stats: Vec<RwLock<Option<Arc<PartitionStats>>>>,
    placements: Vec<usize>,
    /// Partitions rebuilt from the base generator by scans after an eviction
    /// or node failure (the lineage-recovery path).
    rebuilds: AtomicU64,
    /// Demoted partitions faulted back in from the spill tier by scans (the
    /// I/O-recovery path — cheaper than a rebuild, counted separately).
    promotions: AtomicU64,
    /// The spill tier demoted partitions of this table can be faulted back
    /// in from, installed by the memory manager on first demotion.
    spill: RwLock<Option<Arc<dyn SpillSource>>>,
    /// Set when the owning table version is dropped from (or replaced in)
    /// the catalog. Pinned snapshots may still scan the resident partitions,
    /// but rebuilding *missing* partitions into a retired memtable is
    /// forbidden: the storage is awaiting deferred reclamation, and growing
    /// it would leak bytes past the `deferred_drop_bytes` accounting.
    retired: AtomicBool,
}

impl MemTable {
    /// Create an empty memtable for `num_partitions` partitions, assigning
    /// each partition to a node round-robin.
    pub fn new(num_partitions: usize, num_nodes: usize) -> MemTable {
        MemTable {
            id: NEXT_MEMTABLE_ID.fetch_add(1, Ordering::Relaxed),
            binding: OnceLock::new(),
            stats: (0..num_partitions).map(|_| RwLock::new(None)).collect(),
            placements: (0..num_partitions).map(|p| p % num_nodes.max(1)).collect(),
            rebuilds: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            spill: RwLock::new(None),
            retired: AtomicBool::new(false),
        }
    }

    /// This table version's id: its partitions are the blocks
    /// `BlockId::Table { table: id, .. }`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Place this memtable's partitions in `binding`'s store and count its
    /// recoveries in its scope. The first binding wins, so a memtable never
    /// moves between stores.
    pub(crate) fn bind(&self, binding: &Binding) {
        let _ = self.binding.set(binding.clone());
    }

    fn binding(&self) -> &Binding {
        self.binding.get_or_init(Binding::private)
    }

    /// The store holding this table's partitions.
    pub(crate) fn store(&self) -> &Arc<BlockStore> {
        &self.binding().store
    }

    fn block(&self, partition: usize) -> BlockId {
        BlockId::Table {
            table: self.id,
            partition,
        }
    }

    fn totals(&self) -> Totals {
        self.store().owner_totals(Owner::Table(self.id))
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.placements.len()
    }

    /// Fetch a cached partition if it is loaded, refreshing its LRU tick.
    pub fn get(&self, partition: usize) -> Option<Arc<ColumnarPartition>> {
        self.store()
            .get(self.block(partition))
            .map(|(data, _)| data)
    }

    /// Whether a partition is resident (without refreshing its LRU tick —
    /// use for accounting, not for access).
    pub fn is_loaded(&self, partition: usize) -> bool {
        self.store().contains(self.block(partition))
    }

    /// Store a loaded partition on its node, recording its statistics and
    /// refreshing its LRU tick.
    pub fn put(&self, partition: usize, data: Arc<ColumnarPartition>) {
        *self.stats[partition].write() = Some(data.stats().clone());
        let (bytes, rows) = (data.memory_bytes() as u64, data.num_rows() as u64);
        self.store().put(
            self.block(partition),
            data,
            self.placements[partition],
            bytes,
            rows,
        );
    }

    /// Refresh a partition's last-access tick.
    pub fn touch(&self, partition: usize) {
        self.store().touch(self.block(partition));
    }

    /// The node holding a partition.
    pub fn placement(&self, partition: usize) -> usize {
        self.placements[partition]
    }

    /// Number of partitions currently loaded.
    pub fn loaded_partitions(&self) -> usize {
        self.totals().blocks
    }

    /// Total memory footprint of loaded partitions, in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.totals().bytes
    }

    /// Resident bytes of one partition (0 when evicted or never loaded).
    pub fn partition_bytes(&self, partition: usize) -> u64 {
        self.store().block_bytes(self.block(partition))
    }

    /// Total rows across loaded partitions.
    pub fn total_rows(&self) -> u64 {
        self.totals().rows
    }

    /// Evict one partition (a *policy* eviction under memory pressure, not a
    /// failure): returns the bytes freed, 0 when the partition was not
    /// resident. The partition's statistics are retained — they stay valid
    /// because the base generator is deterministic — and the data is
    /// transparently rebuilt from lineage by the next scan that needs it.
    pub fn evict_partition(&self, partition: usize) -> u64 {
        self.store()
            .remove(self.block(partition))
            .map_or(0, |(_, bytes)| bytes)
    }

    /// Remove one resident partition and hand its data to the caller — the
    /// *demotion* variant of [`MemTable::evict_partition`]: the memory copy
    /// is gone either way, but the caller can serialize the partition to a
    /// spill tier instead of relying on lineage recompute. Statistics are
    /// retained, exactly as for a plain eviction.
    pub fn take_partition(&self, partition: usize) -> Option<Arc<ColumnarPartition>> {
        let (data, _) = self.store().remove(self.block(partition))?;
        data.downcast().ok()
    }

    /// Install the spill tier that demoted partitions of this table fault
    /// back in from (idempotent; the last source installed wins).
    pub fn set_spill_source(&self, source: Arc<dyn SpillSource>) {
        *self.spill.write() = Some(source);
    }

    /// Whether a spill source has been installed.
    pub fn has_spill_source(&self) -> bool {
        self.spill.read().is_some()
    }

    /// Fault a demoted partition back in from the installed spill tier,
    /// verified against the owning table's version. A fetch is a move, so
    /// the partition goes back into this memtable — unless it is retired —
    /// as a promotion. Returns the partition plus the spill-file bytes read,
    /// or `None` when no tier is installed, the partition was never demoted,
    /// or its spill file is poisoned or was written by a different table
    /// version (the caller then falls back to lineage recompute).
    pub fn spill_fetch(
        &self,
        table: &str,
        partition: usize,
        expected_version: u64,
    ) -> Option<(Arc<ColumnarPartition>, u64)> {
        let source = self.spill.read().clone()?;
        let (data, io_bytes) = source.fetch(table, partition, expected_version)?;
        if !self.is_retired() {
            self.put(partition, data.clone());
            self.record_promotion();
            if shark_obs::active() {
                shark_obs::annotate("promote", "spill");
            }
        }
        Some((data, io_bytes))
    }

    /// Evict every loaded partition, returning the partitions freed (in
    /// index order) and their bytes. The table stays registered (statistics
    /// included) and is transparently reloaded from its base generator —
    /// its lineage — on the next scan.
    pub fn evict_all(&self) -> (Vec<usize>, u64) {
        let removed = self.store().remove_owner(Owner::Table(self.id));
        let bytes = removed.iter().map(|(_, bytes)| bytes).sum();
        (removed.into_iter().map(|(p, _)| p).collect(), bytes)
    }

    /// Statistics of a partition. Retained across policy evictions, so this
    /// answers for evicted partitions too; `None` only for partitions never
    /// loaded (or lost to a node failure).
    pub fn stats(&self, partition: usize) -> Option<Arc<PartitionStats>> {
        self.stats[partition].read().clone()
    }

    /// Record that a scan rebuilt a partition from the base generator, in
    /// this table's count and its scope's [`PARTITION_REBUILDS`].
    pub fn record_rebuild(&self) {
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.binding().rebuilds.inc();
    }

    /// Partitions rebuilt from lineage by scans (after eviction or failure).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Record one partition faulted back in from the spill tier, in this
    /// table's count and its scope's [`PARTITION_PROMOTIONS`].
    fn record_promotion(&self) {
        self.promotions.fetch_add(1, Ordering::Relaxed);
        self.binding().promotions.inc();
    }

    /// Partitions promoted from the spill tier by scans (vs. rebuilt from
    /// lineage — a promotion pays I/O cost only, not recompute cost).
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Mark this table version as dropped from the catalog. Scans running
    /// over snapshots that still reference it read the resident partitions
    /// as usual but never rebuild missing ones back into it (they read
    /// through from the base generator instead).
    pub fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    /// Whether this table version has been dropped and awaits reclamation.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }
}

/// Metadata for one registered table.
pub struct TableMeta {
    /// Table name (lower-cased).
    pub name: String,
    /// The table schema.
    pub schema: Schema,
    /// Number of partitions.
    pub num_partitions: usize,
    /// Base row generator (the table's "files").
    pub base: RowGenerator,
    /// The columnar memstore, if the table is cached.
    pub cached: Option<Arc<MemTable>>,
    /// Column index the table is hash-partitioned by (`DISTRIBUTE BY`).
    pub distribute_by: Option<usize>,
    /// Name of the table this one is co-partitioned with (§3.4).
    pub copartitioned_with: Option<String>,
    /// Estimated total number of rows (used by the static optimizer).
    pub row_count_hint: Option<u64>,
    /// The catalog epoch at which this table version was installed
    /// (0 = not yet registered). Spill frames are stamped with it, so a
    /// frame left behind by a dropped-and-recreated table of the same name
    /// can never be served to the new incarnation. Set once by
    /// [`Catalog::install`] — or pre-set via [`TableMeta::with_version`]
    /// when a restore replays a recorded registration.
    version: AtomicU64,
}

impl TableMeta {
    /// Create a new table backed by a generator, not cached.
    pub fn new<F>(name: &str, schema: Schema, num_partitions: usize, generator: F) -> TableMeta
    where
        F: Fn(usize) -> Vec<Row> + Send + Sync + 'static,
    {
        TableMeta {
            name: name.to_lowercase(),
            schema,
            num_partitions: num_partitions.max(1),
            base: Arc::new(generator),
            cached: None,
            distribute_by: None,
            copartitioned_with: None,
            row_count_hint: None,
            version: AtomicU64::new(0),
        }
    }

    /// Attach an (initially empty) memstore so scans cache and reuse the
    /// columnar form.
    pub fn with_cache(mut self, num_nodes: usize) -> TableMeta {
        self.cached = Some(Arc::new(MemTable::new(self.num_partitions, num_nodes)));
        self
    }

    /// Declare that the table is hash-partitioned by the given column.
    pub fn with_distribute_by(mut self, column: &str) -> Result<TableMeta> {
        let idx = self.schema.resolve(column)?;
        self.distribute_by = Some(idx);
        Ok(self)
    }

    /// Declare co-partitioning with another table.
    pub fn with_copartition(mut self, other: &str) -> TableMeta {
        self.copartitioned_with = Some(other.to_lowercase());
        self
    }

    /// Provide a row-count hint for the static optimizer.
    pub fn with_row_count_hint(mut self, rows: u64) -> TableMeta {
        self.row_count_hint = Some(rows);
        self
    }

    /// Pre-set the table version (restore replaying a recorded
    /// registration). Registration leaves a pre-set version untouched.
    pub fn with_version(self, version: u64) -> TableMeta {
        self.version.store(version, Ordering::Relaxed);
        self
    }

    /// The catalog epoch this table version was installed at (0 before
    /// registration). This — not the name — identifies the version on disk:
    /// spill frames and WAL records carry it.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Stamp the installation epoch, keeping a version pre-set by
    /// [`TableMeta::with_version`] (restore replay) intact.
    fn mark_installed(&self, epoch: u64) {
        let _ = self
            .version
            .compare_exchange(0, epoch, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Whether the table has a memstore attached.
    pub fn is_cached(&self) -> bool {
        self.cached.is_some()
    }
}

/// An immutable view of the catalog at one epoch.
///
/// Every DDL installs a new snapshot (copy-on-write table map, epoch + 1);
/// every query pins one snapshot via [`Catalog::snapshot`] and resolves all
/// of its tables against it, so a concurrent `DROP TABLE` or table
/// replacement can never change what a running plan sees. A pinned snapshot
/// also *defers* reclamation: a dropped table's memstore stays resident
/// until the last snapshot referencing that table version is released.
#[derive(Clone)]
pub struct CatalogSnapshot {
    epoch: u64,
    tables: Arc<HashMap<String, Arc<TableMeta>>>,
}

impl CatalogSnapshot {
    fn empty() -> CatalogSnapshot {
        CatalogSnapshot {
            epoch: 0,
            tables: Arc::new(HashMap::new()),
        }
    }

    /// The epoch this snapshot was taken at (bumped by every DDL).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Look up a table by name in this snapshot.
    pub fn get(&self, name: &str) -> Result<Arc<TableMeta>> {
        self.tables
            .get(&name.to_lowercase())
            .cloned()
            .ok_or_else(|| SharkError::Catalog(format!("table '{name}' not found")))
    }

    /// Whether a table exists in this snapshot.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_lowercase())
    }

    /// Names of all tables in this snapshot, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Every table in this snapshot that has a memstore attached, sorted by
    /// name.
    pub fn cached_tables(&self) -> Vec<Arc<TableMeta>> {
        let mut tables: Vec<Arc<TableMeta>> = self
            .tables
            .values()
            .filter(|t| t.is_cached())
            .cloned()
            .collect();
        tables.sort_by(|a, b| a.name.cmp(&b.name));
        tables
    }

    /// Total memstore footprint across this snapshot's cached tables.
    pub fn memstore_bytes(&self) -> u64 {
        self.tables
            .values()
            .filter_map(|t| t.cached.as_ref().map(|m| m.memory_bytes()))
            .sum()
    }

    /// Whether this snapshot references exactly this *version* of a table
    /// (same `Arc`, not merely the same name — a drop-then-recreate under
    /// the same name is a different version).
    fn references(&self, table: &Arc<TableMeta>) -> bool {
        self.tables
            .get(&table.name)
            .map(|t| Arc::ptr_eq(t, table))
            .unwrap_or(false)
    }
}

/// A dropped (or replaced) cached table version kept alive until the last
/// snapshot referencing it is released.
struct DeferredDrop {
    table: Arc<TableMeta>,
}

/// Record of one dropped table version whose storage has been reclaimed
/// (the last snapshot referencing it was released). Drained by the serving
/// layer's accounting via [`Catalog::drain_reclaimed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReclaimedDrop {
    /// Table name (a recreated table of the same name is a different
    /// version and unaffected).
    pub name: String,
    /// Partition indices that were still resident when reclaimed.
    pub partitions: Vec<usize>,
    /// Bytes reclaimed.
    pub bytes: u64,
}

/// Upper bound on undrained [`ReclaimedDrop`] records: standalone users
/// never drain the log, and the serving layer drains it at every query
/// boundary, so anything beyond this is a leak, not accounting.
const RECLAIMED_LOG_CAP: usize = 4096;

/// One committed catalog mutation, as recorded in the DDL journal.
///
/// CTAS and `DROP TABLE` execute inside the SQL engine, which knows nothing
/// about durability; the catalog journals every install instead, and a
/// serving layer with a write-ahead log drains the journal at query
/// boundaries ([`Catalog::drain_ddl`]) and appends the records there. A
/// crash between the install and the drain loses only the journal tail —
/// the same contract as a torn WAL tail, and recovered the same way
/// (affected tables come back cold via their base generators).
#[derive(Clone)]
pub enum DdlRecord {
    /// A table version was registered (including a same-name replacement)
    /// at the given epoch. The `Arc` carries everything a replay needs:
    /// name, schema, partition count, hints and [`TableMeta::version`].
    Created {
        /// The epoch the registration bumped the catalog to.
        epoch: u64,
        /// The installed table version.
        table: Arc<TableMeta>,
    },
    /// A table was dropped at the given epoch.
    Dropped {
        /// The epoch the drop bumped the catalog to.
        epoch: u64,
        /// Lower-cased table name.
        name: String,
    },
}

/// Upper bound on undrained [`DdlRecord`]s, mirroring
/// [`RECLAIMED_LOG_CAP`]: standalone sessions never drain the journal, so
/// it must stay bounded. Dropping the *oldest* records is safe for them —
/// there is no WAL to miss the updates — and a serving layer drains at
/// every query boundary, far inside the cap.
const DDL_JOURNAL_CAP: usize = 4096;

/// The metastore: a registry of tables by name, rebuilt around immutable,
/// epoch-versioned snapshots.
///
/// Reads (`get`, `contains`, `cached_tables`, …) load the
/// current snapshot and iterate it without holding any lock, so a DDL burst
/// can never stall them; DDL (`register`, `register_if_absent`,
/// `drop_table`) installs a new snapshot under a short write lock. Queries
/// that need a *stable* view across their whole lifetime pin one with
/// [`Catalog::snapshot`]. Dropping a cached table is deferred reclamation:
/// the version leaves the current snapshot immediately (new queries cannot
/// see it) but its memstore stays resident — and its memtable is retired,
/// forbidding partition rebuilds into it — until every pinned snapshot
/// referencing it is released. Reclamation happens opportunistically at
/// every DDL and snapshot take (so standalone sessions free dropped
/// storage without any serving layer), is appended to a log of
/// [`ReclaimedDrop`] records, and can be forced with
/// [`Catalog::reclaim_unreferenced`]; shark-server's `MemstoreManager`
/// drains the log for its byte/eviction accounting.
pub struct Catalog {
    /// Where installed tables' memtables keep their partitions and count
    /// their recoveries.
    binding: Binding,
    current: RwLock<Arc<CatalogSnapshot>>,
    /// Weak handles to every snapshot pinned via [`Catalog::snapshot`].
    live: Mutex<Vec<Weak<CatalogSnapshot>>>,
    /// Dropped cached table versions awaiting their last snapshot release.
    deferred: Mutex<Vec<DeferredDrop>>,
    /// Reclamations performed but not yet drained by the serving layer.
    reclaimed: Mutex<Vec<ReclaimedDrop>>,
    /// Committed DDL not yet drained into a write-ahead log.
    ddl: Mutex<Vec<DdlRecord>>,
}

impl Default for Catalog {
    fn default() -> Catalog {
        Catalog {
            binding: Binding::private(),
            current: RwLock::new(Arc::new(CatalogSnapshot::empty())),
            live: Mutex::new(Vec::new()),
            deferred: Mutex::new(Vec::new()),
            reclaimed: Mutex::new(Vec::new()),
            ddl: Mutex::new(Vec::new()),
        }
    }
}

impl Catalog {
    /// Create an empty catalog over a private block store and scope.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Create an empty catalog whose tables keep their memstore partitions
    /// in the block store of the context its sessions run on, and count
    /// their scans' recoveries in its metrics scope.
    pub fn with_context(ctx: &RddContext) -> Catalog {
        Catalog {
            binding: Binding::new(ctx.cache().clone(), ctx.metrics()),
            ..Catalog::default()
        }
    }

    /// The block store installed tables keep their partitions in.
    pub fn store(&self) -> &Arc<BlockStore> {
        &self.binding.store
    }

    /// Place a cached table's memtable in this catalog's store and scope.
    /// Installing a table does this; CTAS does it first, to load the table
    /// before publishing it.
    pub(crate) fn bind(&self, table: &TableMeta) {
        if let Some(mem) = &table.cached {
            mem.bind(&self.binding);
        }
    }

    /// The current snapshot, *unpinned*: cheap to take, does not defer
    /// reclamation. Used by the point-read delegates below.
    fn read(&self) -> Arc<CatalogSnapshot> {
        self.current.read().clone()
    }

    /// Pin the current snapshot. As long as the returned `Arc` is alive, a
    /// dropped table it references keeps its memstore resident (deferred
    /// reclamation) — this is what gives blocking queries, streaming
    /// cursors and CTAS sources a transactionally stable view of the
    /// catalog for their whole lifetime.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        // Opportunistic reclamation: the previous pin of a now-finished
        // query may have been the last reference to a dropped version.
        self.reclaim_unreferenced();
        // Hold the live-list lock *across* reading `current`: a concurrent
        // drop + reclaim between reading the map and registering the pin
        // could otherwise reclaim a version this snapshot references.
        let mut live = self.live.lock();
        let pin = Arc::new((**self.current.read()).clone());
        live.retain(|w| w.strong_count() > 0);
        live.push(Arc::downgrade(&pin));
        pin
    }

    /// The current catalog epoch (bumped by every DDL).
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// Snapshots currently pinned by queries, cursors or explicit
    /// [`Catalog::snapshot`] callers.
    pub fn live_snapshots(&self) -> usize {
        let mut live = self.live.lock();
        live.retain(|w| w.strong_count() > 0);
        live.len()
    }

    /// Install a new snapshot produced by applying `mutate` to the current
    /// table map, returning whatever the mutation yields. The mutation
    /// receives the epoch the new snapshot will carry, so registrations can
    /// stamp it into the installed [`TableMeta::version`]. An `Err` from
    /// the mutation leaves the current snapshot (and epoch) untouched.
    fn install<R>(
        &self,
        mutate: impl FnOnce(&mut HashMap<String, Arc<TableMeta>>, u64) -> Result<R>,
    ) -> Result<R> {
        let mut current = self.current.write();
        let next_epoch = current.epoch + 1;
        let mut tables = (*current.tables).clone();
        let displaced = mutate(&mut tables, next_epoch)?;
        *current = Arc::new(CatalogSnapshot {
            epoch: next_epoch,
            tables: Arc::new(tables),
        });
        Ok(displaced)
    }

    /// Append one committed mutation to the DDL journal, keeping it bounded
    /// for standalone sessions that never drain it.
    fn journal(&self, record: DdlRecord) {
        let mut log = self.ddl.lock();
        log.push(record);
        if log.len() > DDL_JOURNAL_CAP {
            let excess = log.len() - DDL_JOURNAL_CAP;
            log.drain(..excess);
        }
    }

    /// Drain the journal of committed DDL. The serving layer calls this at
    /// every query boundary and appends the records to its write-ahead log;
    /// a restore drains (and discards) whatever replay itself re-journaled.
    pub fn drain_ddl(&self) -> Vec<DdlRecord> {
        std::mem::take(&mut *self.ddl.lock())
    }

    /// Restore-time epoch replay hook: advance the current epoch to `epoch`
    /// without touching the table map, so a replayed catalog ends up at the
    /// exact epoch the WAL recorded (each replayed DDL only bumps by one,
    /// and gaps — e.g. drops of tables that were never re-registered —
    /// would otherwise leave the restored epoch behind the recorded one).
    /// A smaller-or-equal `epoch` is a no-op; the epoch never moves
    /// backwards.
    pub fn advance_epoch_to(&self, epoch: u64) {
        let mut current = self.current.write();
        if current.epoch < epoch {
            *current = Arc::new(CatalogSnapshot {
                epoch,
                tables: current.tables.clone(),
            });
        }
    }

    /// Queue a table version removed from the current snapshot for deferred
    /// reclamation, then reclaim whatever is already unreferenced (a drop
    /// with no pinned snapshot frees its storage immediately). Only cached
    /// tables carry reclaimable storage; either way, pinned snapshots keep
    /// the `Arc<TableMeta>` itself alive.
    fn defer_drop(&self, table: Arc<TableMeta>) {
        if let Some(mem) = table.cached.as_ref() {
            mem.retire();
            self.deferred.lock().push(DeferredDrop { table });
        }
        self.reclaim_unreferenced();
    }

    /// Register a table, replacing any table of the same name (the old
    /// version, if cached, becomes a deferred drop).
    pub fn register(&self, table: TableMeta) -> Arc<TableMeta> {
        self.bind(&table);
        let arc = Arc::new(table);
        let registered = arc.clone();
        let mut installed_epoch = 0;
        let replaced = self
            .install(|tables, epoch| {
                arc.mark_installed(epoch);
                installed_epoch = epoch;
                Ok(tables.insert(arc.name.clone(), arc))
            })
            .expect("plain registration is infallible");
        self.journal(DdlRecord::Created {
            epoch: installed_epoch,
            table: registered.clone(),
        });
        if let Some(old) = replaced {
            self.defer_drop(old);
        }
        registered
    }

    /// Register a table only if no table of that name exists yet, checking
    /// and installing under one write lock. This is the atomic path CTAS
    /// needs on a shared catalog: with a separate `contains` + `register`,
    /// two concurrent `CREATE TABLE t AS …` both pass the check and the
    /// loser silently clobbers the winner's table.
    pub fn register_if_absent(&self, table: TableMeta) -> Result<Arc<TableMeta>> {
        self.register_arc_if_absent(Arc::new(table))
    }

    /// [`Catalog::register_if_absent`] for a pre-built `Arc<TableMeta>` —
    /// this is what lets CTAS load a cached table's memstore *before*
    /// publishing it, so no concurrent query can ever observe a
    /// registered-but-still-empty cached table (and fault its partitions
    /// in from lineage mid-registration).
    pub fn register_arc_if_absent(&self, arc: Arc<TableMeta>) -> Result<Arc<TableMeta>> {
        self.bind(&arc);
        let registered = arc.clone();
        let mut installed_epoch = 0;
        self.install(|tables, epoch| {
            if tables.contains_key(&arc.name) {
                return Err(SharkError::Catalog(format!(
                    "table '{}' already exists",
                    arc.name
                )));
            }
            arc.mark_installed(epoch);
            installed_epoch = epoch;
            tables.insert(arc.name.clone(), arc);
            Ok(())
        })?;
        self.journal(DdlRecord::Created {
            epoch: installed_epoch,
            table: registered.clone(),
        });
        Ok(registered)
    }

    /// Look up a table by name (in the current snapshot).
    pub fn get(&self, name: &str) -> Result<Arc<TableMeta>> {
        self.read().get(name)
    }

    /// Whether a table exists (in the current snapshot).
    pub fn contains(&self, name: &str) -> bool {
        self.read().contains(name)
    }

    /// Drop a table. New snapshots no longer contain it; if it is cached,
    /// its memstore stays resident until the last already-pinned snapshot
    /// referencing it is released (a drop with no pinned snapshots frees
    /// it immediately — see [`Catalog::reclaim_unreferenced`]).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let lowered = name.to_lowercase();
        let mut installed_epoch = 0;
        let removed = self.install(|tables, epoch| {
            installed_epoch = epoch;
            tables
                .remove(&lowered)
                .ok_or_else(|| SharkError::Catalog(format!("table '{name}' not found")))
        })?;
        self.journal(DdlRecord::Dropped {
            epoch: installed_epoch,
            name: lowered,
        });
        self.defer_drop(removed);
        Ok(())
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.read().table_names()
    }

    /// Clear the statistics of the table partitions a node failure removed
    /// from the store (`lost`, as [`shark_rdd::RddContext::fail_node`]
    /// returns it), in current and deferred-drop versions alike: a failure
    /// loses the data *and* the statistics derived from it, unlike a policy
    /// eviction. Returns how many of this catalog's partitions were lost.
    pub fn forget_lost(&self, lost: &[BlockId]) -> usize {
        let deferred: Vec<Arc<TableMeta>> = self
            .deferred
            .lock()
            .iter()
            .map(|d| d.table.clone())
            .collect();
        let mut forgotten = 0;
        for table in self.read().cached_tables().iter().chain(&deferred) {
            let Some(mem) = &table.cached else { continue };
            for id in lost {
                if let BlockId::Table {
                    table: owner,
                    partition,
                } = *id
                {
                    if owner == mem.id() {
                        *mem.stats[partition].write() = None;
                        forgotten += 1;
                    }
                }
            }
        }
        forgotten
    }

    /// Every registered table that has a memstore attached, sorted by name
    /// (the tables a memory manager can account for and evict). Deferred
    /// drops are excluded: their storage is pinned by old snapshots and
    /// must not confuse eviction accounting.
    pub fn cached_tables(&self) -> Vec<Arc<TableMeta>> {
        self.read().cached_tables()
    }

    /// Total memstore footprint across all current cached tables (deferred
    /// drops excluded — see [`Catalog::deferred_drop_bytes`]).
    pub fn memstore_bytes(&self) -> u64 {
        self.read().memstore_bytes()
    }

    /// Reclaim every dropped cached table version whose last referencing
    /// snapshot has been released: evict its resident partitions and append
    /// a [`ReclaimedDrop`] record to the log for the serving layer's
    /// accounting ([`Catalog::drain_reclaimed`]). Runs opportunistically at
    /// every DDL and [`Catalog::snapshot`], so standalone sessions free
    /// dropped storage without ever calling this. Returns how many versions
    /// were reclaimed by this call.
    pub fn reclaim_unreferenced(&self) -> usize {
        if self.deferred.lock().is_empty() {
            return 0;
        }
        let live: Vec<Arc<CatalogSnapshot>> = {
            let mut live = self.live.lock();
            live.retain(|w| w.strong_count() > 0);
            live.iter().filter_map(Weak::upgrade).collect()
        };
        let mut freed = Vec::new();
        self.deferred.lock().retain(|d| {
            // New snapshots are copies of the current map, which no longer
            // contains this version — so once unreferenced, always
            // unreferenced.
            if live.iter().any(|s| s.references(&d.table)) {
                true
            } else {
                freed.push(d.table.clone());
                false
            }
        });
        if freed.is_empty() {
            return 0;
        }
        let mut records = Vec::with_capacity(freed.len());
        for table in &freed {
            let Some(mem) = table.cached.as_ref() else {
                continue;
            };
            let (partitions, bytes) = mem.evict_all();
            records.push(ReclaimedDrop {
                name: table.name.clone(),
                partitions,
                bytes,
            });
        }
        let reclaimed = records.len();
        let mut log = self.reclaimed.lock();
        log.extend(records);
        // Standalone sessions never drain the log; keep it bounded.
        if log.len() > RECLAIMED_LOG_CAP {
            let excess = log.len() - RECLAIMED_LOG_CAP;
            log.drain(..excess);
        }
        reclaimed
    }

    /// Drain the log of reclaimed drops (the serving layer turns these into
    /// eviction events and byte accounting).
    pub fn drain_reclaimed(&self) -> Vec<ReclaimedDrop> {
        std::mem::take(&mut *self.reclaimed.lock())
    }

    /// Resident columnar bytes of dropped-but-still-referenced table
    /// versions — memory that cannot be reclaimed until the pinned
    /// snapshots referencing them are released.
    pub fn deferred_drop_bytes(&self) -> u64 {
        self.deferred
            .lock()
            .iter()
            .filter_map(|d| d.table.cached.as_ref().map(|m| m.memory_bytes()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_common::{row, DataType};

    fn demo_table(cached: bool) -> TableMeta {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]);
        let t = TableMeta::new("users", schema, 4, |p| {
            vec![row![p as i64, format!("user{p}")]]
        });
        if cached {
            t.with_cache(3)
        } else {
            t
        }
    }

    #[test]
    fn register_lookup_drop() {
        let catalog = Catalog::new();
        catalog.register(demo_table(false));
        assert!(catalog.contains("USERS"));
        let t = catalog.get("users").unwrap();
        assert_eq!(t.num_partitions, 4);
        assert_eq!((t.base)(2)[0].get_int(0).unwrap(), 2);
        assert_eq!(catalog.table_names(), vec!["users".to_string()]);
        catalog.drop_table("users").unwrap();
        assert!(catalog.get("users").is_err());
        assert!(catalog.drop_table("users").is_err());
    }

    #[test]
    fn register_if_absent_is_atomic() {
        let catalog = Catalog::new();
        assert!(catalog.register_if_absent(demo_table(false)).is_ok());
        let err = match catalog.register_if_absent(demo_table(false)) {
            Ok(_) => panic!("duplicate registration must fail"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("already exists"));
        // Concurrent registrations of the same name: exactly one wins.
        let shared = Arc::new(Catalog::new());
        let winners: usize = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let c = shared.clone();
                    scope.spawn(move || usize::from(c.register_if_absent(demo_table(true)).is_ok()))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1);
        assert!(shared.contains("users"));
    }

    #[test]
    fn memtable_placement_and_failure() {
        let catalog = Catalog::new();
        let t = catalog.register(demo_table(true));
        let mem = t.cached.as_ref().unwrap();
        let schema = t.schema.clone();
        for p in 0..4 {
            let rows = (t.base)(p);
            mem.put(p, Arc::new(ColumnarPartition::from_rows(&schema, &rows)));
        }
        assert_eq!(mem.loaded_partitions(), 4);
        assert!(mem.memory_bytes() > 0);
        assert_eq!(mem.total_rows(), 4);
        // Partitions 0 and 3 live on node 0 (round robin over 3 nodes).
        let lost = catalog.forget_lost(&catalog.store().drop_node(0));
        assert_eq!(lost, 2);
        assert_eq!(mem.loaded_partitions(), 2);
        assert!(mem.get(0).is_none());
        assert!(mem.get(1).is_some());
        assert!(mem.stats(1).is_some());
        // A node failure is data loss: the statistics go with the data.
        assert!(mem.stats(0).is_none());
    }

    #[test]
    fn evict_all_frees_everything_and_reports_bytes() {
        let catalog = Catalog::new();
        let t = catalog.register(demo_table(true));
        let mem = t.cached.as_ref().unwrap();
        for p in 0..4 {
            let rows = (t.base)(p);
            mem.put(p, Arc::new(ColumnarPartition::from_rows(&t.schema, &rows)));
        }
        let resident = mem.memory_bytes();
        assert!(resident > 0);
        let (partitions, bytes) = mem.evict_all();
        assert_eq!(partitions, vec![0, 1, 2, 3]);
        assert_eq!(bytes, resident);
        assert_eq!(mem.loaded_partitions(), 0);
        assert_eq!(mem.memory_bytes(), 0);
        // A policy eviction keeps the statistics: pruning and top-k
        // ordering still work over the evicted partitions.
        assert!(mem.stats(0).is_some());
        // Idempotent.
        assert_eq!(mem.evict_all(), (vec![], 0));
    }

    #[test]
    fn evict_partition_frees_one_partition_and_keeps_stats() {
        let catalog = Catalog::new();
        let t = catalog.register(demo_table(true));
        let mem = t.cached.as_ref().unwrap();
        for p in 0..4 {
            let rows = (t.base)(p);
            mem.put(p, Arc::new(ColumnarPartition::from_rows(&t.schema, &rows)));
        }
        let before = mem.memory_bytes();
        let freed = mem.evict_partition(1);
        assert!(freed > 0);
        assert_eq!(mem.memory_bytes(), before - freed);
        assert_eq!(mem.loaded_partitions(), 3);
        assert!(!mem.is_loaded(1));
        assert_eq!(mem.partition_bytes(1), 0);
        assert!(mem.stats(1).is_some(), "stats survive a policy eviction");
        // Evicting again frees nothing.
        assert_eq!(mem.evict_partition(1), 0);
    }

    #[test]
    fn lru_candidates_order_follows_accesses() {
        let catalog = Catalog::new();
        let t = catalog.register(demo_table(true));
        let mem = t.cached.as_ref().unwrap();
        for p in 0..4 {
            let rows = (t.base)(p);
            mem.put(p, Arc::new(ColumnarPartition::from_rows(&t.schema, &rows)));
        }
        // Touch 0 and 2 (via get); 1 and 3 keep their load-time ticks.
        assert!(mem.get(0).is_some());
        assert!(mem.get(2).is_some());
        let order = |store: &BlockStore| -> Vec<usize> {
            store
                .candidates()
                .iter()
                .map(|c| c.id.partition())
                .collect()
        };
        assert_eq!(order(catalog.store()), vec![1, 3, 0, 2]);
        // is_loaded does not refresh the tick.
        assert!(mem.is_loaded(1));
        assert_eq!(order(catalog.store()), vec![1, 3, 0, 2]);
    }

    #[test]
    fn cached_tables_lists_only_memstore_tables() {
        let catalog = Catalog::new();
        catalog.register(demo_table(true));
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        catalog.register(TableMeta::new("plain", schema, 1, |_| vec![]));
        let cached = catalog.cached_tables();
        assert_eq!(cached.len(), 1);
        assert_eq!(cached[0].name, "users");
    }

    fn load_table(t: &TableMeta) {
        let mem = t.cached.as_ref().unwrap();
        for p in 0..t.num_partitions {
            let rows = (t.base)(p);
            mem.put(p, Arc::new(ColumnarPartition::from_rows(&t.schema, &rows)));
        }
    }

    #[test]
    fn snapshot_pins_a_stable_view_across_ddl() {
        let catalog = Catalog::new();
        catalog.register(demo_table(false));
        assert_eq!(catalog.epoch(), 1);
        let snap = catalog.snapshot();
        assert_eq!(catalog.live_snapshots(), 1);
        assert!(snap.contains("users"));
        let pinned_version = snap.get("users").unwrap();

        // Drop, then recreate under the same name: the snapshot still sees
        // the old version, the catalog serves the new one.
        catalog.drop_table("users").unwrap();
        let schema = Schema::from_pairs(&[("id", DataType::Int)]);
        let new_version = catalog.register(TableMeta::new("users", schema, 1, |_| vec![]));
        assert_eq!(catalog.epoch(), 3);
        assert!(snap.contains("users"));
        assert!(Arc::ptr_eq(&snap.get("users").unwrap(), &pinned_version));
        assert!(!Arc::ptr_eq(
            &catalog.get("users").unwrap(),
            &pinned_version
        ));
        assert!(Arc::ptr_eq(&catalog.get("users").unwrap(), &new_version));

        drop(snap);
        assert_eq!(catalog.live_snapshots(), 0);
    }

    #[test]
    fn dropped_cached_table_is_reclaimed_after_last_snapshot_release() {
        let catalog = Catalog::new();
        let t = catalog.register(demo_table(true));
        load_table(&t);
        let mem = t.cached.clone().unwrap();
        let resident = mem.memory_bytes();
        assert!(resident > 0);
        drop(t);

        let pin_a = catalog.snapshot();
        let pin_b = catalog.snapshot();
        catalog.drop_table("users").unwrap();
        // The drop is deferred: bytes stay resident, the memtable is
        // retired, nothing is reclaimable while either snapshot lives.
        assert_eq!(catalog.deferred_drop_bytes(), resident);
        assert!(mem.is_retired());
        assert_eq!(catalog.reclaim_unreferenced(), 0);
        assert_eq!(catalog.deferred_drop_bytes(), resident);

        drop(pin_a);
        assert_eq!(catalog.reclaim_unreferenced(), 0, "pin_b still holds it");
        drop(pin_b);
        assert_eq!(catalog.reclaim_unreferenced(), 1);
        assert_eq!(mem.memory_bytes(), 0, "partitions evicted at reclaim");
        let records = catalog.drain_reclaimed();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "users");
        assert_eq!(records[0].bytes, resident);
        assert_eq!(records[0].partitions, vec![0, 1, 2, 3]);
        assert_eq!(catalog.deferred_drop_bytes(), 0);
        assert!(catalog.drain_reclaimed().is_empty());
    }

    #[test]
    fn drop_with_no_pinned_snapshot_is_reclaimed_immediately() {
        let catalog = Catalog::new();
        let t = catalog.register(demo_table(true));
        load_table(&t);
        let mem = t.cached.clone().unwrap();
        drop(t);
        // Unpinned point reads (get/contains) must not defer reclamation.
        assert!(catalog.contains("users"));
        catalog.drop_table("users").unwrap();
        // drop_table itself reclaimed the version: standalone sessions
        // (no serving layer draining the log) free storage on the spot.
        assert_eq!(mem.memory_bytes(), 0);
        assert_eq!(catalog.deferred_drop_bytes(), 0);
        assert_eq!(catalog.drain_reclaimed().len(), 1);
        assert_eq!(catalog.reclaim_unreferenced(), 0);
    }

    #[test]
    fn replacement_defers_the_old_cached_version() {
        let catalog = Catalog::new();
        let old = catalog.register(demo_table(true));
        load_table(&old);
        let old_bytes = old.cached.as_ref().unwrap().memory_bytes();
        let snap = catalog.snapshot();
        // Re-register under the same name: the old version is displaced
        // but `snap` still references it.
        catalog.register(demo_table(true));
        assert!(old.cached.as_ref().unwrap().is_retired());
        assert_eq!(catalog.deferred_drop_bytes(), old_bytes);
        // The new version is live and not retired.
        assert!(!catalog
            .get("users")
            .unwrap()
            .cached
            .as_ref()
            .unwrap()
            .is_retired());
        // A plain strong Arc is not a snapshot pin: only `snap` defers.
        drop(snap);
        assert_eq!(catalog.reclaim_unreferenced(), 1);
        assert_eq!(old.cached.as_ref().unwrap().memory_bytes(), 0);
    }

    #[test]
    fn new_snapshots_never_revive_a_deferred_version() {
        let catalog = Catalog::new();
        let t = catalog.register(demo_table(true));
        load_table(&t);
        drop(t);
        let pin = catalog.snapshot();
        catalog.drop_table("users").unwrap();
        // A snapshot taken *after* the drop does not reference the dropped
        // version, so it cannot keep blocking reclamation once `pin` goes.
        let late = catalog.snapshot();
        assert!(!late.contains("users"));
        drop(pin);
        assert_eq!(catalog.reclaim_unreferenced(), 1);
        drop(late);
    }

    #[test]
    fn versions_stamp_the_installation_epoch() {
        let catalog = Catalog::new();
        let first = catalog.register(demo_table(false));
        assert_eq!(first.version(), 1);
        catalog.drop_table("users").unwrap(); // epoch 2
        let second = catalog.register(demo_table(false)); // epoch 3
        assert_eq!(second.version(), 3);
        assert_eq!(catalog.epoch(), 3);
        // A replay-provided version survives registration untouched.
        let replayed = catalog.register(
            TableMeta::new(
                "other",
                Schema::from_pairs(&[("x", DataType::Int)]),
                1,
                |_| vec![],
            )
            .with_version(17),
        );
        assert_eq!(replayed.version(), 17);
    }

    #[test]
    fn ddl_journal_records_installs_in_order() {
        let catalog = Catalog::new();
        catalog.register(demo_table(false)); // epoch 1
        catalog.drop_table("users").unwrap(); // epoch 2
        catalog.register(demo_table(true)); // epoch 3
        let journal = catalog.drain_ddl();
        assert_eq!(journal.len(), 3);
        match &journal[0] {
            DdlRecord::Created { epoch, table } => {
                assert_eq!(*epoch, 1);
                assert_eq!(table.name, "users");
                assert_eq!(table.version(), 1);
            }
            _ => panic!("expected Created"),
        }
        match &journal[1] {
            DdlRecord::Dropped { epoch, name } => {
                assert_eq!(*epoch, 2);
                assert_eq!(name, "users");
            }
            _ => panic!("expected Dropped"),
        }
        match &journal[2] {
            DdlRecord::Created { epoch, table } => {
                assert_eq!(*epoch, 3);
                assert!(table.is_cached());
            }
            _ => panic!("expected Created"),
        }
        // Drained means drained; a failed registration journals nothing.
        assert!(catalog.drain_ddl().is_empty());
        assert!(catalog.register_if_absent(demo_table(false)).is_err());
        assert!(catalog.drain_ddl().is_empty());
    }

    #[test]
    fn advance_epoch_to_never_moves_backwards() {
        let catalog = Catalog::new();
        catalog.register(demo_table(false));
        assert_eq!(catalog.epoch(), 1);
        catalog.advance_epoch_to(9);
        assert_eq!(catalog.epoch(), 9);
        assert!(catalog.contains("users"), "table map untouched");
        catalog.advance_epoch_to(4);
        assert_eq!(catalog.epoch(), 9);
        // The next DDL continues from the advanced epoch.
        catalog.drop_table("users").unwrap();
        assert_eq!(catalog.epoch(), 10);
    }

    #[test]
    fn distribute_by_resolves_columns() {
        let t = demo_table(false).with_distribute_by("ID").unwrap();
        assert_eq!(t.distribute_by, Some(0));
        assert!(demo_table(false).with_distribute_by("missing").is_err());
        let t = demo_table(false)
            .with_copartition("Other")
            .with_row_count_hint(10);
        assert_eq!(t.copartitioned_with.as_deref(), Some("other"));
        assert_eq!(t.row_count_hint, Some(10));
    }
}
