//! The memory-budgeted memstore manager: the eviction *policy* over the
//! one block store.
//!
//! Every resident partition — a cached table's columnar partition or a
//! cached RDD partition — is a block of the context's [`BlockStore`], with
//! its bytes, its node and one tick on the store's single last-access
//! clock. This manager tracks resident bytes against one server-wide budget
//! and, under pressure, evicts individual blocks in one global
//! least-recently-used order across both kinds: a colder RDD partition goes
//! before a warmer table partition. The partition, not the table, is
//! Shark's unit of storage and lineage recovery (§3.1–3.2): one oversized
//! table no longer dumps every hot partition of every workload at once —
//! only the coldest partitions go, and a table is evicted wholesale only
//! when every one of its partitions is cold. Eviction only drops the
//! in-memory copy: Shark keeps exactly one copy of cached data and relies
//! on lineage, not replication (§2.2), so an evicted partition is
//! transparently recomputed by the next scan that needs it (table partition
//! statistics survive eviction, so map pruning and top-k ordering still
//! work meanwhile). With a spill tier attached, a table partition is
//! *demoted* to disk instead and promoted back at I/O cost. Tables pinned
//! by currently executing queries are never victims, and individual
//! partitions can be pinned too.
//!
//! The budget counts live tables plus cached RDD partitions; a dropped
//! table version still pinned by an open snapshot stays outside it
//! (reported as `Catalog::deferred_drop_bytes`) until it is reclaimed.
//!
//! A second, per-session layer sits under the global budget: each session
//! that loads, creates, or faults in a table joins that table's *owner
//! set* and is charged a proportional share of its resident bytes, and a
//! session over its quota has *its own* least-recently-used table
//! partitions evicted first — the tenant-isolation lesson of production
//! multi-tenant SQL serving — before global pressure touches anyone else's.

use parking_lot::Mutex;
use shark_common::hash::FxHashMap;
use shark_rdd::{BlockId, BlockStore, Candidate, Owner};
use shark_sql::{Catalog, TableMeta};
use std::sync::Arc;

use crate::metrics::ServerMetrics;
use crate::spill::SpillManager;

/// One eviction performed while enforcing a budget or quota.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvictionEvent {
    /// LRU partitions dropped from one cached table during a single
    /// enforcement pass.
    Table {
        /// Table name.
        name: String,
        /// Partition indices dropped, in eviction (coldest-first) order.
        partitions: Vec<usize>,
        /// Bytes freed.
        bytes: u64,
        /// Whether the pass left no partition of the table resident — the
        /// old wholesale eviction, now the every-partition-cold limit case.
        whole_table: bool,
    },
    /// LRU partitions dropped from one cached RDD (e.g. a `.cache()`d
    /// intermediate).
    Rdd {
        /// RDD id.
        id: usize,
        /// Partition indices dropped, in eviction order.
        partitions: Vec<usize>,
        /// Bytes freed.
        bytes: u64,
    },
    /// A `DROP TABLE`d (or replaced) table version reclaimed after the last
    /// catalog snapshot referencing it was released — deferred DDL
    /// reclamation, not memory pressure.
    Dropped {
        /// Table name (a recreated table of the same name is unaffected).
        name: String,
        /// Partition indices that were still resident, in index order.
        partitions: Vec<usize>,
        /// Bytes reclaimed.
        bytes: u64,
    },
    /// LRU partitions *demoted* from one cached table to the spill tier
    /// during a single enforcement pass: the memory copy is gone but the
    /// compressed columnar form survives on disk, so the next scan promotes
    /// it back at I/O cost instead of recomputing it from lineage.
    Demoted {
        /// Table name.
        name: String,
        /// Partition indices demoted, in eviction (coldest-first) order.
        partitions: Vec<usize>,
        /// Memory bytes freed.
        bytes: u64,
        /// Bytes the spill frames occupy on disk.
        spill_bytes: u64,
    },
    /// Demoted partitions a scan faulted back in from the spill tier
    /// (reported by [`MemstoreManager::drain_promotions`]).
    Promoted {
        /// Table name.
        name: String,
        /// Partition indices promoted, in promotion order.
        partitions: Vec<usize>,
        /// Memory bytes the promotions brought back into residency.
        bytes: u64,
    },
}

impl EvictionEvent {
    /// Bytes this eviction freed (or, for a promotion, restored).
    pub fn bytes(&self) -> u64 {
        match self {
            EvictionEvent::Table { bytes, .. }
            | EvictionEvent::Rdd { bytes, .. }
            | EvictionEvent::Dropped { bytes, .. }
            | EvictionEvent::Demoted { bytes, .. }
            | EvictionEvent::Promoted { bytes, .. } => *bytes,
        }
    }

    /// Partitions this eviction dropped (or demoted/promoted).
    pub fn partitions(&self) -> usize {
        match self {
            EvictionEvent::Table { partitions, .. }
            | EvictionEvent::Rdd { partitions, .. }
            | EvictionEvent::Dropped { partitions, .. }
            | EvictionEvent::Demoted { partitions, .. }
            | EvictionEvent::Promoted { partitions, .. } => partitions.len(),
        }
    }
}

#[derive(Default)]
struct MemstoreState {
    /// Whole-table pins taken by in-flight queries: no partition of a
    /// pinned table is ever a victim.
    pins: FxHashMap<String, usize>,
    /// Finer-grained pins on individual partitions.
    partition_pins: FxHashMap<(String, usize), usize>,
    /// The sessions charged for each table: every session that loaded,
    /// created, or faulted it in. Each owner is charged a proportional
    /// share of the table's resident bytes.
    owners: FxHashMap<String, std::collections::BTreeSet<u64>>,
    /// Exact fully-loaded columnar footprint per table, recorded the first
    /// time every partition was observed resident at once. Generators are
    /// deterministic, so this is a *provable* size for any future full load
    /// of the same table — the quota-infeasibility check keys off it.
    known_footprints: FxHashMap<String, u64>,
}

/// Which blocks one eviction pass may take.
#[derive(Clone, Copy)]
enum Scope<'a> {
    /// Every live table's partitions and every cached RDD partition: the
    /// server budget.
    Global,
    /// The partitions of tables one session owns: its quota.
    Session(u64),
    /// The partitions of one table: an administrative demotion.
    Table(&'a str),
}

impl Scope<'_> {
    fn covers(self, state: &MemstoreState, table: &str) -> bool {
        match self {
            Scope::Global => true,
            Scope::Session(session) => state
                .owners
                .get(table)
                .is_some_and(|set| set.contains(&session)),
            Scope::Table(name) => name == table,
        }
    }
}

/// Tracks table usage recency and enforces the server memory budget plus
/// per-session memory quotas, at partition granularity.
pub struct MemstoreManager {
    budget_bytes: u64,
    session_quota_bytes: u64,
    /// The disk demotion tier. `None` restores the pre-spill behaviour:
    /// eviction drops the partition and lineage recomputes it later.
    spill: Option<Arc<SpillManager>>,
    state: Mutex<MemstoreState>,
    /// The metrics table its evictions, quota checks and reclamations
    /// count in.
    metrics: Arc<ServerMetrics>,
}

impl MemstoreManager {
    /// Create a manager enforcing `budget_bytes` across table memstore +
    /// RDD cache, with unlimited per-session quotas.
    pub fn new(budget_bytes: u64) -> MemstoreManager {
        MemstoreManager::new_in(budget_bytes, ServerMetrics::standalone())
    }

    /// [`MemstoreManager::new`], counting in a server's metrics table.
    pub(crate) fn new_in(budget_bytes: u64, metrics: Arc<ServerMetrics>) -> MemstoreManager {
        MemstoreManager {
            budget_bytes: budget_bytes.max(1),
            session_quota_bytes: u64::MAX,
            spill: None,
            state: Mutex::new(MemstoreState::default()),
            metrics,
        }
    }

    /// Cap each session's owned resident bytes at `quota_bytes` (tables it
    /// loaded or created). Exceeding the quota evicts that session's own
    /// LRU partitions first.
    pub fn with_session_quota(mut self, quota_bytes: u64) -> MemstoreManager {
        self.session_quota_bytes = quota_bytes.max(1);
        self
    }

    /// Attach a spill tier: evictions of table partitions become
    /// *demotions* that park the compressed columnar form on disk.
    pub fn with_spill(mut self, spill: Arc<SpillManager>) -> MemstoreManager {
        self.spill = Some(spill);
        self
    }

    /// The attached spill tier, if any.
    pub fn spill(&self) -> Option<&Arc<SpillManager>> {
        self.spill.as_ref()
    }

    /// The configured budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// The configured per-session quota in bytes (`u64::MAX` = unlimited).
    pub fn session_quota_bytes(&self) -> u64 {
        self.session_quota_bytes
    }

    /// Mark `tables` as in use by a starting query: pins them (whole-table)
    /// against eviction until [`MemstoreManager::unpin`].
    pub fn pin(&self, tables: &[String]) {
        let mut state = self.state.lock();
        for name in tables {
            *state.pins.entry(name.clone()).or_insert(0) += 1;
        }
    }

    /// Release the pins taken by [`MemstoreManager::pin`].
    pub fn unpin(&self, tables: &[String]) {
        let mut state = self.state.lock();
        for name in tables {
            if let Some(count) = state.pins.get_mut(name) {
                *count -= 1;
                if *count == 0 {
                    state.pins.remove(name);
                }
            }
        }
    }

    /// Pin one partition of a table against eviction (finer-grained than
    /// [`MemstoreManager::pin`]; pins nest).
    pub fn pin_partition(&self, table: &str, partition: usize) {
        let mut state = self.state.lock();
        *state
            .partition_pins
            .entry((table.to_string(), partition))
            .or_insert(0) += 1;
    }

    /// Release one pin taken by [`MemstoreManager::pin_partition`].
    pub fn unpin_partition(&self, table: &str, partition: usize) {
        let mut state = self.state.lock();
        let key = (table.to_string(), partition);
        if let Some(count) = state.partition_pins.get_mut(&key) {
            *count -= 1;
            if *count == 0 {
                state.partition_pins.remove(&key);
            }
        }
    }

    /// Add a session to a table's owner set (it loaded, created, or faulted
    /// the table in). A shared table is charged proportionally to every
    /// owner instead of entirely to whoever touched it first.
    pub fn record_owner(&self, table: &str, session_id: u64) {
        let mut state = self.state.lock();
        state
            .owners
            .entry(table.to_string())
            .or_default()
            .insert(session_id);
    }

    /// Resident bytes currently charged to one session: each owned table's
    /// memstore bytes divided by its number of owners.
    pub fn session_bytes(&self, session_id: u64, catalog: &Catalog) -> u64 {
        let state = self.state.lock();
        Self::session_bytes_locked(&state, session_id, catalog)
    }

    fn session_bytes_locked(state: &MemstoreState, session_id: u64, catalog: &Catalog) -> u64 {
        catalog
            .cached_tables()
            .into_iter()
            .filter_map(|t| {
                let owners = state.owners.get(&t.name)?;
                if !owners.contains(&session_id) {
                    return None;
                }
                let bytes = t.cached.as_ref().map(|m| m.memory_bytes())?;
                // Exact apportionment: every owner is charged `bytes / n`,
                // and the first `bytes % n` owners in id order absorb one
                // extra byte each, so the shares always sum to the table's
                // resident bytes (truncating division leaked the remainder,
                // leaving tables partially uncharged).
                let n = owners.len() as u64;
                let rank = owners.iter().position(|o| *o == session_id).unwrap_or(0) as u64;
                Some(bytes / n + u64::from(rank < bytes % n))
            })
            .sum()
    }

    /// Remove a closing session from every owner set, re-apportioning each
    /// co-owned table's bytes over the remaining owners. Without this, a
    /// closed session kept absorbing its share of a shared table forever,
    /// under-charging the sessions still using it (stale owner shares).
    pub fn release_session(&self, session_id: u64) {
        let mut state = self.state.lock();
        state.owners.retain(|_, set| {
            set.remove(&session_id);
            !set.is_empty()
        });
    }

    /// Resident bytes currently charged against the budget: live tables
    /// plus cached RDD partitions, read from running totals.
    pub fn resident_bytes(&self, catalog: &Catalog, store: &BlockStore) -> u64 {
        catalog.memstore_bytes() + store.rdd_totals().bytes
    }

    /// The blocks one eviction pass may take, coldest first in the store's
    /// one `(tick, BlockId)` order: every resident partition of a live
    /// cached table in `scope` that no query pins, plus — for the global
    /// budget — every cached RDD partition. A table block comes with its
    /// table. Dropped versions awaiting reclamation are not live, so they
    /// are never candidates.
    fn candidates(
        state: &MemstoreState,
        catalog: &Catalog,
        store: &BlockStore,
        scope: Scope<'_>,
    ) -> Vec<(Candidate, Option<Arc<TableMeta>>)> {
        let live: FxHashMap<usize, Arc<TableMeta>> = catalog
            .cached_tables()
            .into_iter()
            .filter(|t| !state.pins.contains_key(&t.name) && scope.covers(state, &t.name))
            .filter_map(|t| Some((t.cached.as_ref()?.id(), t)))
            .collect();
        store
            .candidates()
            .into_iter()
            .filter_map(|c| match c.id {
                BlockId::Table { table, partition } => {
                    let table = live.get(&table)?;
                    let key = (table.name.clone(), partition);
                    (!state.partition_pins.contains_key(&key)).then(|| (c, Some(table.clone())))
                }
                BlockId::Rdd { .. } => matches!(scope, Scope::Global).then_some((c, None)),
            })
            .collect()
    }

    /// The one eviction loop: evict `scope`'s candidates coldest first
    /// until `need` bytes are freed (or none is left). A table partition is
    /// demoted when a spill tier is attached and dropped otherwise; an RDD
    /// partition is dropped, to be recomputed from lineage. Returns memory
    /// bytes freed and appends one event per victim table or RDD (and per
    /// outcome, demoted or dropped).
    fn evict(
        &self,
        state: &mut MemstoreState,
        catalog: &Catalog,
        store: &BlockStore,
        need: u64,
        scope: Scope<'_>,
        events: &mut Vec<EvictionEvent>,
    ) -> u64 {
        struct Victim {
            owner: Owner,
            table: Option<Arc<TableMeta>>,
            demoted: Vec<usize>,
            demoted_bytes: u64,
            spill_bytes: u64,
            dropped: Vec<usize>,
            dropped_bytes: u64,
        }
        let mut freed = 0u64;
        // Aggregated per owner, in first-eviction order.
        let mut victims: Vec<Victim> = Vec::new();
        for (candidate, table) in Self::candidates(state, catalog, store, scope) {
            if freed >= need {
                break;
            }
            let partition = candidate.id.partition();
            let evicted = match &table {
                Some(table) => self.evict_table_partition(table, partition),
                None => store.remove(candidate.id).map(|(_, bytes)| (bytes, None)),
            };
            // `None`: a failure-path drop raced us; nothing freed here.
            let Some((bytes, demoted)) = evicted else {
                continue;
            };
            freed += bytes;
            let owner = candidate.id.owner();
            let at = match victims.iter().position(|v| v.owner == owner) {
                Some(at) => at,
                None => {
                    victims.push(Victim {
                        owner,
                        table,
                        demoted: Vec::new(),
                        demoted_bytes: 0,
                        spill_bytes: 0,
                        dropped: Vec::new(),
                        dropped_bytes: 0,
                    });
                    victims.len() - 1
                }
            };
            let victim = &mut victims[at];
            match demoted {
                Some(spill_bytes) => {
                    victim.demoted.push(partition);
                    victim.demoted_bytes += bytes;
                    victim.spill_bytes += spill_bytes;
                }
                None => {
                    victim.dropped.push(partition);
                    victim.dropped_bytes += bytes;
                }
            }
        }
        let metrics = &self.metrics;
        for v in victims {
            metrics.evictions.inc();
            metrics
                .evicted_partitions
                .add((v.demoted.len() + v.dropped.len()) as u64);
            metrics.evicted_bytes.add(v.demoted_bytes + v.dropped_bytes);
            let Some(table) = v.table else {
                metrics
                    .rdd_cache_evicted_partitions
                    .add(v.dropped.len() as u64);
                metrics.rdd_cache_evicted_bytes.add(v.dropped_bytes);
                let Owner::Rdd(id) = v.owner else {
                    unreachable!("only RDD blocks come without a table")
                };
                events.push(EvictionEvent::Rdd {
                    id,
                    partitions: v.dropped,
                    bytes: v.dropped_bytes,
                });
                continue;
            };
            let whole_table = table
                .cached
                .as_ref()
                .is_some_and(|mem| mem.loaded_partitions() == 0);
            if !whole_table {
                metrics.partial_evictions.inc();
            }
            if !v.demoted.is_empty() {
                events.push(EvictionEvent::Demoted {
                    name: table.name.clone(),
                    partitions: v.demoted,
                    bytes: v.demoted_bytes,
                    spill_bytes: v.spill_bytes,
                });
            }
            if !v.dropped.is_empty() {
                events.push(EvictionEvent::Table {
                    name: table.name.clone(),
                    partitions: v.dropped,
                    bytes: v.dropped_bytes,
                    whole_table,
                });
            }
        }
        freed
    }

    /// Evict one table partition: demote it to the spill tier when one is
    /// attached, drop it otherwise. Returns the memory bytes freed plus,
    /// when the demotion stuck, the spill frame's bytes; `None` when the
    /// partition was already gone. An unwritable spill frame, or one the
    /// disk budget displaced at once, degrades to a plain drop — eviction
    /// never surfaces an I/O error.
    fn evict_table_partition(
        &self,
        table: &TableMeta,
        partition: usize,
    ) -> Option<(u64, Option<u64>)> {
        let mem = table.cached.as_ref()?;
        let Some(spill) = &self.spill else {
            let bytes = mem.evict_partition(partition);
            return (bytes > 0).then_some((bytes, None));
        };
        let columnar = mem.take_partition(partition)?;
        let bytes = columnar.memory_bytes() as u64;
        // Install the fault-in source lazily so tables created after
        // server start (CTAS) are covered too.
        if !mem.has_spill_source() {
            mem.set_spill_source(spill.clone());
        }
        let Ok(outcome) = spill.store(&table.name, partition, &columnar, table.version()) else {
            return Some((bytes, None));
        };
        // Whatever the disk budget displaced lost its last copy: the next
        // scan rebuilds it from lineage. A frame displaced at once makes
        // this eviction a plain drop.
        let self_displaced = outcome
            .displaced
            .iter()
            .any(|(dt, dp)| *dt == table.name && *dp == partition);
        Some((bytes, (!self_displaced).then_some(outcome.spill_bytes)))
    }

    /// Bring residency back under the budget by evicting the globally
    /// least-recently-used unpinned blocks — table and RDD partitions in
    /// one order — freeing roughly the overshoot instead of dumping whole
    /// tables. Returns the evictions performed (empty when already under
    /// budget or when everything over budget is pinned).
    pub fn enforce(&self, catalog: &Catalog, store: &BlockStore) -> Vec<EvictionEvent> {
        let mut events = Vec::new();
        loop {
            // Progress is judged by *measured* residency, never by the
            // per-eviction byte estimates: a pass that claimed to free
            // enough but measures above budget (stale estimates, racing
            // loads) triggers another pass instead of returning early.
            let resident = self.resident_bytes(catalog, store);
            if resident <= self.budget_bytes {
                break;
            }
            let need = resident - self.budget_bytes;
            // Hold the state lock across victim selection AND eviction:
            // otherwise a query admitted in between could pin the chosen
            // partition and still lose it, and two concurrent enforce()
            // calls could both evict (and double-count) the same victim.
            let mut state = self.state.lock();
            if self.evict(&mut state, catalog, store, need, Scope::Global, &mut events) == 0 {
                // No unpinned candidate is left; the measured residency
                // cannot come down this pass — give up, don't spin.
                break;
            }
        }
        events
    }

    /// Demote every unpinned resident partition of one table to the spill
    /// tier (plain eviction when no tier is attached), regardless of the
    /// budget — the administrative path tests and benchmarks use to stage a
    /// fully demoted table. Returns the events performed.
    pub fn demote_table(&self, catalog: &Catalog, name: &str) -> Vec<EvictionEvent> {
        let mut events = Vec::new();
        let mut state = self.state.lock();
        self.evict(
            &mut state,
            catalog,
            catalog.store(),
            u64::MAX,
            Scope::Table(name),
            &mut events,
        );
        events
    }

    /// Promotions scans performed since the last drain, aggregated into
    /// one [`EvictionEvent::Promoted`] per table — the server turns these
    /// into trace events.
    pub fn drain_promotions(&self) -> Vec<EvictionEvent> {
        let Some(spill) = &self.spill else {
            return Vec::new();
        };
        let mut by_table: Vec<(String, Vec<usize>, u64)> = Vec::new();
        for (name, partition, bytes) in spill.drain_promotions() {
            match by_table.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, parts, total)) => {
                    parts.push(partition);
                    *total += bytes;
                }
                None => by_table.push((name, vec![partition], bytes)),
            }
        }
        by_table
            .into_iter()
            .map(|(name, partitions, bytes)| EvictionEvent::Promoted {
                name,
                partitions,
                bytes,
            })
            .collect()
    }

    /// Bring one session's owned residency back under the per-session
    /// quota, evicting *that session's* least-recently-used unpinned
    /// partitions first. A no-op when quotas are unlimited or the session
    /// is within its quota. Returns the evictions performed.
    pub fn enforce_session_quota(&self, session_id: u64, catalog: &Catalog) -> Vec<EvictionEvent> {
        let mut events = Vec::new();
        if self.session_quota_bytes == u64::MAX {
            return events;
        }
        let mut hit_recorded = false;
        loop {
            let mut state = self.state.lock();
            let owned = Self::session_bytes_locked(&state, session_id, catalog);
            if owned <= self.session_quota_bytes {
                break;
            }
            if !hit_recorded {
                hit_recorded = true;
                self.metrics.quota_hits.inc();
            }
            let need = owned - self.session_quota_bytes;
            let before = events.iter().map(EvictionEvent::partitions).sum::<usize>();
            let freed = self.evict(
                &mut state,
                catalog,
                catalog.store(),
                need,
                Scope::Session(session_id),
                &mut events,
            );
            let evicted_now = events.iter().map(EvictionEvent::partitions).sum::<usize>() - before;
            self.metrics
                .quota_evicted_partitions
                .add(evicted_now as u64);
            if freed == 0 {
                // Everything the session still holds is pinned.
                break;
            }
        }
        events
    }

    /// Record the table's exact fully-loaded columnar footprint once every
    /// partition is resident at the same time. Row generators are
    /// deterministic, so the measured size is a provable size for any future
    /// full load of the same table — not an estimate like sampling one
    /// partition. A no-op while the table is only partially resident.
    pub fn record_footprint_if_full(&self, table: &TableMeta) {
        let Some(mem) = table.cached.as_ref() else {
            return;
        };
        if table.num_partitions == 0 || mem.loaded_partitions() != table.num_partitions {
            return;
        }
        let bytes = mem.memory_bytes();
        if bytes == 0 {
            return;
        }
        self.state
            .lock()
            .known_footprints
            .insert(table.name.clone(), bytes);
    }

    /// Quota-feasibility check for an explicit full load: when the table's
    /// recorded footprint provably exceeds the per-session quota, admitting
    /// the load could only thrash — every loaded partition would be evicted
    /// again by quota enforcement before the load even finishes. Returns
    /// `Some((footprint, quota))` (and bumps the rejection gauge) when the
    /// load must be rejected; `None` when it may proceed, including when no
    /// full load has been observed yet (a first load is how the footprint
    /// becomes known).
    pub fn reject_infeasible_load(&self, table: &str) -> Option<(u64, u64)> {
        if self.session_quota_bytes == u64::MAX {
            return None;
        }
        let footprint = *self.state.lock().known_footprints.get(table)?;
        if footprint > self.session_quota_bytes {
            self.metrics.quota_infeasible_rejections.inc();
            Some((footprint, self.session_quota_bytes))
        } else {
            None
        }
    }

    /// Reclaim every dropped table version whose last referencing catalog
    /// snapshot has been released, then fold the catalog's reclamation log
    /// into this manager's accounting, emitting one
    /// [`EvictionEvent::Dropped`] per reclaimed version. The catalog also
    /// reclaims opportunistically at DDL/snapshot points, so this may drain
    /// records reclaimed earlier — accounting is log-based and therefore
    /// independent of *where* the reclamation happened. Versions still
    /// referenced by a pinned snapshot (an open cursor, an in-flight query)
    /// are left alone — their bytes show up in `Catalog::deferred_drop_bytes`
    /// until the pins close. Name-keyed bookkeeping is *not* touched here:
    /// it was cleared by [`MemstoreManager::forget`] at drop time and may
    /// since belong to a recreated table of the same name.
    pub fn reclaim_dropped(&self, catalog: &Catalog) -> Vec<EvictionEvent> {
        catalog.reclaim_unreferenced();
        let mut events = Vec::new();
        for record in catalog.drain_reclaimed() {
            self.metrics.deferred_drops_reclaimed.inc();
            self.metrics.deferred_reclaimed_bytes.add(record.bytes);
            events.push(EvictionEvent::Dropped {
                name: record.name,
                partitions: record.partitions,
                bytes: record.bytes,
            });
        }
        events
    }

    /// Forget the bookkeeping for a table (call when it is dropped from or
    /// replaced in the catalog, so a future table of the same name starts
    /// clean). Pins are left alone: the in-flight queries and cursors that
    /// took them still own them and release them when they finish.
    pub fn forget(&self, table: &str) {
        let mut state = self.state.lock();
        state.owners.remove(table);
        state.known_footprints.remove(table);
        drop(state);
        // Spilled frames of the dropped table are unreachable now; a
        // recreated table of the same name must not fault in stale data.
        if let Some(spill) = &self.spill {
            spill.remove_table(table);
        }
    }

    /// Tables currently pinned by in-flight queries or open cursors,
    /// sorted by name.
    pub fn pinned_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.state.lock().pins.keys().cloned().collect();
        names.sort();
        names
    }

    /// Partitions of `table` currently pinned individually (by streaming
    /// cursors that have delivered them), in ascending index order.
    pub fn pinned_partitions(&self, table: &str) -> Vec<usize> {
        let mut parts: Vec<usize> = self
            .state
            .lock()
            .partition_pins
            .keys()
            .filter(|(name, _)| name == table)
            .map(|(_, partition)| *partition)
            .collect();
        parts.sort_unstable();
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_columnar::ColumnarPartition;
    use shark_common::{row, DataType, Row, Schema};
    use shark_sql::TableMeta;
    use std::sync::Arc;

    fn catalog_with_tables(names: &[&str]) -> Arc<Catalog> {
        let catalog = Arc::new(Catalog::new());
        for name in names {
            let schema = Schema::from_pairs(&[("x", DataType::Int), ("s", DataType::Str)]);
            catalog.register(
                TableMeta::new(name, schema, 2, |p| {
                    (0..200)
                        .map(|i| row![(p * 1000 + i) as i64, format!("value-{p}-{i}")])
                        .collect()
                })
                .with_cache(2),
            );
        }
        catalog
    }

    fn load_all(catalog: &Catalog) {
        for table in catalog.cached_tables() {
            let mem = table.cached.as_ref().unwrap();
            for p in 0..table.num_partitions {
                let rows = (table.base)(p);
                mem.put(
                    p,
                    Arc::new(shark_columnar::ColumnarPartition::from_rows(
                        &table.schema,
                        &rows,
                    )),
                );
            }
        }
    }

    /// Touch every partition of a table, making it the most recently used.
    fn touch_table(catalog: &Catalog, name: &str) {
        let table = catalog.get(name).unwrap();
        let mem = table.cached.as_ref().unwrap();
        for p in 0..table.num_partitions {
            mem.touch(p);
        }
    }

    #[test]
    fn evicts_lru_partitions_and_spares_pinned_tables() {
        let catalog = catalog_with_tables(&["a", "b", "c"]);
        load_all(&catalog);
        let per_table = catalog.memstore_bytes() / 3;
        // Budget fits two and a half tables: one partition must go.
        let manager = MemstoreManager::new(per_table * 2 + per_table / 2);
        // Touch order: a (oldest), b, c — and pin a, so b's LRU partition
        // is the victim.
        touch_table(&catalog, "a");
        touch_table(&catalog, "b");
        touch_table(&catalog, "c");
        manager.pin(&["a".into()]);
        let events = manager.enforce(&catalog, catalog.store());
        assert_eq!(events.len(), 1);
        match &events[0] {
            EvictionEvent::Table {
                name,
                partitions,
                bytes,
                whole_table,
            } => {
                assert_eq!(name, "b");
                // Half a table was over budget: one partition suffices.
                assert_eq!(partitions, &vec![0]);
                assert!(*bytes > 0);
                assert!(!whole_table, "b must survive partially resident");
            }
            other => panic!("expected table eviction, got {other:?}"),
        }
        // b is partially resident: one partition evicted, one still loaded.
        let b = catalog.get("b").unwrap();
        assert_eq!(b.cached.as_ref().unwrap().loaded_partitions(), 1);
        assert_eq!(manager.metrics.evictions.get(), 1);
        assert_eq!(manager.metrics.evicted_partitions.get(), 1);
        assert_eq!(manager.metrics.partial_evictions.get(), 1);
    }

    #[test]
    fn enforcement_frees_roughly_the_overshoot_not_whole_tables() {
        let catalog = catalog_with_tables(&["a", "b"]);
        load_all(&catalog);
        let total = catalog.memstore_bytes();
        let largest_partition = catalog
            .cached_tables()
            .iter()
            .flat_map(|t| {
                let mem = t.cached.as_ref().unwrap();
                (0..t.num_partitions)
                    .map(|p| mem.partition_bytes(p))
                    .collect::<Vec<_>>()
            })
            .max()
            .unwrap();
        // Need exactly one partition's worth of space.
        let need = largest_partition;
        let manager = MemstoreManager::new(total - need);
        let events = manager.enforce(&catalog, catalog.store());
        let freed: u64 = events.iter().map(EvictionEvent::bytes).sum();
        assert!(freed >= need, "must free at least the overshoot");
        assert!(
            freed <= need + largest_partition,
            "freed {freed} but only {need} was needed (partition ≤ {largest_partition})"
        );
        // 4 partitions resident, ~1 needed: at most 2 may go (overshoot by
        // at most one partition), so at least 2 stay.
        let resident: usize = catalog
            .cached_tables()
            .iter()
            .map(|t| t.cached.as_ref().unwrap().loaded_partitions())
            .sum();
        assert!(resident >= 2, "whole-store dump: only {resident} left");
    }

    #[test]
    fn pinned_partition_survives_while_colder_neighbors_go() {
        let catalog = catalog_with_tables(&["a"]);
        load_all(&catalog);
        let manager = MemstoreManager::new(1);
        // Partition 0 is the coldest — and pinned.
        manager.pin_partition("a", 0);
        let events = manager.enforce(&catalog, catalog.store());
        assert_eq!(events.len(), 1);
        match &events[0] {
            EvictionEvent::Table { partitions, .. } => assert_eq!(partitions, &vec![1]),
            other => panic!("expected table eviction, got {other:?}"),
        }
        let mem = catalog.get("a").unwrap().cached.clone().unwrap();
        assert!(mem.is_loaded(0), "pinned partition must survive");
        assert!(!mem.is_loaded(1));
        // Unpinning makes it evictable.
        manager.unpin_partition("a", 0);
        let events = manager.enforce(&catalog, catalog.store());
        assert_eq!(events.len(), 1);
        assert!(!mem.is_loaded(0));
    }

    #[test]
    fn enforce_is_a_noop_under_budget() {
        let catalog = catalog_with_tables(&["a"]);
        load_all(&catalog);
        let manager = MemstoreManager::new(u64::MAX);
        assert!(manager.enforce(&catalog, catalog.store()).is_empty());
        assert_eq!(manager.metrics.evictions.get(), 0);
    }

    #[test]
    fn falls_back_to_rdd_cache_when_tables_are_pinned() {
        let catalog = catalog_with_tables(&["a"]);
        load_all(&catalog);
        let rdd = BlockId::Rdd {
            rdd: 7,
            partition: 0,
        };
        catalog
            .store()
            .put(rdd, Arc::new(vec![0u8; 16]), 0, 1 << 20, 16);
        let manager = MemstoreManager::new(catalog.memstore_bytes());
        manager.pin(&["a".into()]);
        let events = manager.enforce(&catalog, catalog.store());
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            EvictionEvent::Rdd { id: 7, partitions, .. } if partitions == &vec![0]
        ));
        // Table a survived; nothing else to evict even though still over.
        assert!(catalog.memstore_bytes() > 0);
        assert!(manager.enforce(&catalog, catalog.store()).is_empty());
    }

    #[test]
    fn a_colder_rdd_partition_goes_before_a_warmer_table_partition() {
        // One clock across kinds: the RDD partition was touched before the
        // table's partitions, so it is the global LRU victim.
        let catalog = catalog_with_tables(&["a"]);
        let rdd = BlockId::Rdd {
            rdd: 7,
            partition: 0,
        };
        catalog.store().put(rdd, Arc::new(vec![0u8; 16]), 0, 64, 16);
        load_all(&catalog);
        let manager = MemstoreManager::new(catalog.memstore_bytes() + 63);
        let events = manager.enforce(&catalog, catalog.store());
        assert_eq!(
            events,
            vec![EvictionEvent::Rdd {
                id: 7,
                partitions: vec![0],
                bytes: 64
            }]
        );
        assert_eq!(
            catalog
                .get("a")
                .unwrap()
                .cached
                .as_ref()
                .unwrap()
                .loaded_partitions(),
            2
        );
        assert_eq!(manager.metrics.evicted_partitions.get(), 1);
    }

    /// The blocks a global eviction pass would consider, in its order.
    fn policy(manager: &MemstoreManager, catalog: &Catalog) -> Vec<Candidate> {
        let state = manager.state.lock();
        MemstoreManager::candidates(&state, catalog, catalog.store(), Scope::Global)
            .into_iter()
            .map(|(candidate, _)| candidate)
            .collect()
    }

    #[test]
    fn resident_totals_equal_a_recount_after_any_mutation_sequence() {
        use shark_rdd::Totals;
        use std::collections::{BTreeMap, BTreeSet};
        /// What the store must hold: every block with its node, bytes and rows.
        type Model = BTreeMap<BlockId, (usize, u64, u64)>;
        fn recount(model: &Model, keep: impl Fn(&BlockId) -> bool) -> Totals {
            model.iter().filter(|(id, _)| keep(id)).fold(
                Totals::default(),
                |t, (_, &(_, bytes, rows))| Totals {
                    bytes: t.bytes + bytes,
                    blocks: t.blocks + 1,
                    rows: t.rows + rows,
                },
            )
        }
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]);
        let register = |catalog: &Catalog| {
            catalog.register(TableMeta::new("t", schema.clone(), 12, |_| vec![]).with_cache(3))
        };
        for seed in 1u64..=8 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = move |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let catalog = Catalog::new();
            let store = catalog.store().clone();
            let manager = MemstoreManager::new(u64::MAX);
            let mut table = register(&catalog);
            let mut model = Model::new();
            let mut pinned: BTreeSet<usize> = BTreeSet::new();
            let mut table_pinned = false;
            for step in 0..400 {
                let mem = table.cached.clone().unwrap();
                let p = next(12) as usize;
                let block = BlockId::Table {
                    table: mem.id(),
                    partition: p,
                };
                let rdd = BlockId::Rdd {
                    rdd: next(3) as usize,
                    partition: p,
                };
                match next(10) {
                    // put, fresh or replacing, with a size that differs from
                    // whatever the block held (a spill promotion is this
                    // same call with the fetched partition).
                    0 | 1 => {
                        let rows: Vec<Row> = (0..next(40))
                            .map(|i| row![i as i64, "n".repeat(next(12) as usize)])
                            .collect();
                        let columnar = ColumnarPartition::from_rows(&schema, &rows);
                        let entry = (
                            mem.placement(p),
                            columnar.memory_bytes() as u64,
                            rows.len() as u64,
                        );
                        mem.put(p, Arc::new(columnar));
                        model.insert(block, entry);
                    }
                    2 => {
                        let (node, bytes, rows) = (next(4) as usize, next(500), next(40));
                        store.put(rdd, Arc::new(vec![0u8; rows as usize]), node, bytes, rows);
                        model.insert(rdd, (node, bytes, rows));
                    }
                    3 => {
                        assert_eq!(mem.get(p).is_some(), model.contains_key(&block));
                        let hit = store.get::<Vec<u8>>(rdd).map(|(_, bytes)| bytes);
                        assert_eq!(hit, model.get(&rdd).map(|&(_, bytes, _)| bytes));
                    }
                    4 => {
                        let taken = mem.take_partition(p).is_some();
                        assert_eq!(taken, model.remove(&block).is_some());
                    }
                    5 => {
                        let expected = model.remove(&block).map_or(0, |(_, bytes, _)| bytes);
                        assert_eq!(mem.evict_partition(p), expected);
                        let evicted = store.remove(rdd).map(|(_, bytes)| bytes);
                        assert_eq!(evicted, model.remove(&rdd).map(|(_, bytes, _)| bytes));
                    }
                    6 => {
                        if next(4) == 0 {
                            table_pinned = !table_pinned;
                            if table_pinned {
                                manager.pin(&["t".into()]);
                            } else {
                                manager.unpin(&["t".into()]);
                            }
                        } else if pinned.insert(p) {
                            manager.pin_partition("t", p);
                        } else {
                            pinned.remove(&p);
                            manager.unpin_partition("t", p);
                        }
                    }
                    7 => {
                        let node = next(4) as usize;
                        let on_node: Vec<BlockId> = model
                            .iter()
                            .filter(|(_, &(n, _, _))| n == node)
                            .map(|(id, _)| *id)
                            .collect();
                        let lost = store.drop_node(node);
                        assert_eq!(lost, on_node, "seed {seed}, step {step}");
                        catalog.forget_lost(&lost);
                        for id in &lost {
                            model.remove(id);
                            if let BlockId::Table { partition, .. } = *id {
                                assert!(mem.stats(partition).is_none());
                            }
                        }
                    }
                    // Retire, then reclaim once the last snapshot goes.
                    8 if step % 4 == 0 => {
                        let snapshot = catalog.snapshot();
                        catalog.drop_table("t").unwrap();
                        assert!(mem.is_retired());
                        let owned = recount(&model, |id| id.owner() == Owner::Table(mem.id()));
                        assert_eq!(catalog.deferred_drop_bytes(), owned.bytes);
                        assert!(policy(&manager, &catalog)
                            .iter()
                            .all(|c| c.id.owner() != Owner::Table(mem.id())));
                        drop(snapshot);
                        assert_eq!(catalog.reclaim_unreferenced(), 1);
                        model.retain(|id, _| id.owner() != Owner::Table(mem.id()));
                        table = register(&catalog);
                    }
                    _ => {}
                }
                let mem = table.cached.clone().unwrap();
                let owners: BTreeSet<Owner> = model.keys().map(|id| id.owner()).collect();
                for owner in owners.into_iter().chain([Owner::Table(mem.id())]) {
                    let expected = recount(&model, |id| id.owner() == owner);
                    assert_eq!(
                        store.owner_totals(owner),
                        expected,
                        "seed {seed}, step {step}"
                    );
                }
                let rdds = recount(&model, |id| matches!(id, BlockId::Rdd { .. }));
                assert_eq!(store.rdd_totals(), rdds);
                let own = recount(&model, |id| id.owner() == Owner::Table(mem.id()));
                assert_eq!(
                    (
                        mem.memory_bytes(),
                        mem.loaded_partitions(),
                        mem.total_rows()
                    ),
                    (own.bytes, own.blocks, own.rows)
                );
                assert_eq!(
                    manager.resident_bytes(&catalog, &store),
                    own.bytes + rdds.bytes
                );
                let all = store.candidates();
                let ids: Vec<BlockId> = all.iter().map(|c| c.id).collect();
                assert_eq!(
                    ids.iter().copied().collect::<BTreeSet<_>>(),
                    model.keys().copied().collect()
                );
                let chosen = policy(&manager, &catalog);
                assert!(chosen
                    .windows(2)
                    .all(|w| (w[0].tick, w[0].id) < (w[1].tick, w[1].id)));
                for c in &chosen {
                    if let BlockId::Table { partition, .. } = c.id {
                        assert!(
                            !table_pinned && !pinned.contains(&partition),
                            "pinned {c:?}"
                        );
                    }
                }
                let unpinned_tables = if table_pinned {
                    0
                } else {
                    (0..12)
                        .filter(|p| mem.is_loaded(*p) && !pinned.contains(p))
                        .count()
                };
                assert_eq!(chosen.len(), rdds.blocks + unpinned_tables);
            }
        }
    }

    #[test]
    fn session_quota_evicts_own_partitions_first() {
        let catalog = catalog_with_tables(&["mine", "theirs"]);
        load_all(&catalog);
        let per_table = catalog.memstore_bytes() / 2;
        let manager = MemstoreManager::new(u64::MAX).with_session_quota(per_table / 2);
        manager.record_owner("mine", 1);
        manager.record_owner("theirs", 2);
        // Session 2 is under quota (owns one table of two partitions but we
        // only enforce for session 1 here).
        let events = manager.enforce_session_quota(1, &catalog);
        assert!(!events.is_empty());
        for event in &events {
            match event {
                EvictionEvent::Table { name, .. } => assert_eq!(name, "mine"),
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(manager.session_bytes(1, &catalog) <= per_table / 2);
        // The other session's table is untouched.
        let theirs = catalog.get("theirs").unwrap();
        assert_eq!(theirs.cached.as_ref().unwrap().loaded_partitions(), 2);
        assert_eq!(manager.metrics.quota_hits.get(), 1);
        assert!(manager.metrics.quota_evicted_partitions.get() > 0);
        // Within quota now: enforcing again is a no-op.
        assert!(manager.enforce_session_quota(1, &catalog).is_empty());
        assert_eq!(manager.metrics.quota_hits.get(), 1);
    }

    #[test]
    fn infeasible_loads_are_rejected_once_the_footprint_is_known() {
        let catalog = catalog_with_tables(&["big"]);
        let table = catalog.get("big").unwrap();
        let quota = 64u64;
        let manager = MemstoreManager::new(u64::MAX).with_session_quota(quota);
        // Nothing recorded yet: the first (discovering) load must be
        // admitted — that is how the footprint becomes known.
        manager.record_footprint_if_full(&table);
        assert_eq!(manager.reject_infeasible_load("big"), None);
        load_all(&catalog);
        manager.record_footprint_if_full(&table);
        let footprint = table.cached.as_ref().unwrap().memory_bytes();
        assert!(footprint > quota, "test table must exceed the tiny quota");
        assert_eq!(
            manager.reject_infeasible_load("big"),
            Some((footprint, quota))
        );
        assert_eq!(manager.metrics.quota_infeasible_rejections.get(), 1);
        // Dropping the table clears the recorded footprint: a recreated
        // table of the same name starts clean.
        manager.forget("big");
        assert_eq!(manager.reject_infeasible_load("big"), None);
        assert_eq!(manager.metrics.quota_infeasible_rejections.get(), 1);
    }

    #[test]
    fn feasible_and_unlimited_quota_loads_pass_the_check() {
        let catalog = catalog_with_tables(&["t"]);
        let table = catalog.get("t").unwrap();
        load_all(&catalog);
        let unlimited = MemstoreManager::new(u64::MAX);
        unlimited.record_footprint_if_full(&table);
        assert_eq!(unlimited.reject_infeasible_load("t"), None);
        let roomy = MemstoreManager::new(u64::MAX).with_session_quota(u64::MAX / 2);
        roomy.record_footprint_if_full(&table);
        assert_eq!(roomy.reject_infeasible_load("t"), None);
        assert_eq!(roomy.metrics.quota_infeasible_rejections.get(), 0);
    }

    #[test]
    fn unlimited_quota_never_evicts() {
        let catalog = catalog_with_tables(&["a"]);
        load_all(&catalog);
        let manager = MemstoreManager::new(u64::MAX);
        manager.record_owner("a", 1);
        assert!(manager.enforce_session_quota(1, &catalog).is_empty());
        assert_eq!(manager.metrics.quota_hits.get(), 0);
    }

    #[test]
    fn reclaim_dropped_waits_for_snapshot_release_and_accounts_bytes() {
        let catalog = catalog_with_tables(&["gone"]);
        load_all(&catalog);
        let manager = MemstoreManager::new(u64::MAX);
        let bytes = catalog.memstore_bytes();
        assert!(bytes > 0);
        let pin = catalog.snapshot();
        catalog.drop_table("gone").unwrap();
        // Still referenced by the pinned snapshot: nothing reclaimable, the
        // bytes show up as deferred instead, and budget enforcement does
        // not see (or evict) the dropped version.
        assert!(manager.reclaim_dropped(&catalog).is_empty());
        assert_eq!(catalog.deferred_drop_bytes(), bytes);
        assert_eq!(catalog.memstore_bytes(), 0);
        drop(pin);
        let events = manager.reclaim_dropped(&catalog);
        assert_eq!(events.len(), 1);
        match &events[0] {
            EvictionEvent::Dropped {
                name,
                partitions,
                bytes: freed,
            } => {
                assert_eq!(name, "gone");
                assert_eq!(partitions, &vec![0, 1]);
                assert_eq!(*freed, bytes);
            }
            other => panic!("expected a dropped-table reclamation, got {other:?}"),
        }
        assert_eq!(manager.metrics.deferred_drops_reclaimed.get(), 1);
        assert_eq!(manager.metrics.deferred_reclaimed_bytes.get(), bytes);
        assert_eq!(catalog.deferred_drop_bytes(), 0);
        // Idempotent.
        assert!(manager.reclaim_dropped(&catalog).is_empty());
    }

    #[test]
    fn owner_sets_accumulate_and_are_forgotten_on_drop() {
        let catalog = catalog_with_tables(&["t"]);
        load_all(&catalog);
        let bytes = catalog.memstore_bytes();
        let manager = MemstoreManager::new(u64::MAX);
        manager.record_owner("t", 3);
        manager.record_owner("t", 9);
        // Re-faulting the same table is idempotent: two owners, each
        // charged half.
        manager.record_owner("t", 3);
        assert_eq!(manager.session_bytes(3, &catalog), bytes / 2 + bytes % 2);
        assert_eq!(manager.session_bytes(9, &catalog), bytes / 2);
        manager.forget("t");
        assert_eq!(manager.session_bytes(3, &catalog), 0);
        assert_eq!(manager.session_bytes(9, &catalog), 0);
    }

    #[test]
    fn shared_tables_charge_each_owner_a_proportional_share() {
        let catalog = catalog_with_tables(&["shared", "solo"]);
        load_all(&catalog);
        let manager = MemstoreManager::new(u64::MAX);
        let shared_bytes = catalog
            .get("shared")
            .unwrap()
            .cached
            .as_ref()
            .unwrap()
            .memory_bytes();
        let solo_bytes = catalog
            .get("solo")
            .unwrap()
            .cached
            .as_ref()
            .unwrap()
            .memory_bytes();
        manager.record_owner("shared", 1);
        manager.record_owner("shared", 2);
        manager.record_owner("solo", 1);
        // The lowest-id owner absorbs the division remainder, so the
        // per-session charges always sum to the tables' resident bytes.
        assert_eq!(
            manager.session_bytes(1, &catalog),
            shared_bytes / 2 + shared_bytes % 2 + solo_bytes
        );
        assert_eq!(manager.session_bytes(2, &catalog), shared_bytes / 2);
        assert_eq!(manager.session_bytes(3, &catalog), 0);
        assert_eq!(
            manager.session_bytes(1, &catalog) + manager.session_bytes(2, &catalog),
            shared_bytes + solo_bytes,
            "shares must sum to the resident bytes"
        );
    }

    #[test]
    fn owner_shares_sum_exactly_for_any_owner_count() {
        let catalog = catalog_with_tables(&["shared"]);
        load_all(&catalog);
        let manager = MemstoreManager::new(u64::MAX);
        let bytes = catalog
            .get("shared")
            .unwrap()
            .cached
            .as_ref()
            .unwrap()
            .memory_bytes();
        // 3 owners rarely divide the byte count evenly — the remainder must
        // not be lost.
        for session in [11u64, 22, 33] {
            manager.record_owner("shared", session);
        }
        let total: u64 = [11u64, 22, 33]
            .iter()
            .map(|&s| manager.session_bytes(s, &catalog))
            .sum();
        assert_eq!(total, bytes, "shares must sum to the table's bytes");
    }

    #[test]
    fn closing_a_session_reapportions_shared_tables() {
        let catalog = catalog_with_tables(&["shared"]);
        load_all(&catalog);
        let manager = MemstoreManager::new(u64::MAX);
        let bytes = catalog
            .get("shared")
            .unwrap()
            .cached
            .as_ref()
            .unwrap()
            .memory_bytes();
        manager.record_owner("shared", 1);
        manager.record_owner("shared", 2);
        assert!(manager.session_bytes(2, &catalog) < bytes);
        // Session 1 closes: the survivor is charged the whole table, not a
        // stale half.
        manager.release_session(1);
        assert_eq!(manager.session_bytes(2, &catalog), bytes);
        assert_eq!(manager.session_bytes(1, &catalog), 0);
        // The last owner closing clears the set entirely.
        manager.release_session(2);
        assert_eq!(manager.session_bytes(2, &catalog), 0);
    }

    fn spill_manager(tag: &str) -> (Arc<crate::spill::SpillManager>, std::path::PathBuf) {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "shark-memstore-{tag}-{}-{nanos}",
            std::process::id()
        ));
        (
            Arc::new(crate::spill::SpillManager::create(&dir, u64::MAX).unwrap()),
            dir,
        )
    }

    #[test]
    fn eviction_with_spill_tier_demotes_instead_of_dropping() {
        let catalog = catalog_with_tables(&["a"]);
        load_all(&catalog);
        let (spill, dir) = spill_manager("demote");
        let manager = MemstoreManager::new(1).with_spill(spill.clone());
        let events = manager.enforce(&catalog, catalog.store());
        assert_eq!(events.len(), 1);
        match &events[0] {
            EvictionEvent::Demoted {
                name,
                partitions,
                bytes,
                spill_bytes,
            } => {
                assert_eq!(name, "a");
                assert_eq!(partitions, &vec![0, 1]);
                assert!(*bytes > 0);
                assert!(*spill_bytes > 0);
            }
            other => panic!("expected a demotion, got {other:?}"),
        }
        // Demoted partitions are on the tier, for the next scan to promote
        // instead of rebuilding them from lineage.
        assert!(spill.is_spilled("a", 0));
        assert!(spill.is_spilled("a", 1));
        // Memory eviction counters still account the demotions.
        assert_eq!(manager.metrics.evicted_partitions.get(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn demote_table_stages_a_fully_demoted_table() {
        let catalog = catalog_with_tables(&["a", "b"]);
        load_all(&catalog);
        let (spill, dir) = spill_manager("stage");
        let manager = MemstoreManager::new(u64::MAX).with_spill(spill.clone());
        let events = manager.demote_table(&catalog, "a");
        assert_eq!(events.len(), 1);
        let a = catalog.get("a").unwrap();
        assert_eq!(a.cached.as_ref().unwrap().loaded_partitions(), 0);
        assert_eq!(spill.spilled_partition_count(), 2);
        // Only the named table was touched.
        let b = catalog.get("b").unwrap();
        assert_eq!(b.cached.as_ref().unwrap().loaded_partitions(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forget_clears_spilled_frames_of_the_dropped_table() {
        let catalog = catalog_with_tables(&["a"]);
        load_all(&catalog);
        let (spill, dir) = spill_manager("forget");
        let manager = MemstoreManager::new(u64::MAX).with_spill(spill.clone());
        manager.demote_table(&catalog, "a");
        assert_eq!(spill.spilled_partition_count(), 2);
        manager.forget("a");
        assert_eq!(spill.spilled_partition_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
