//! The cache ("memstore") manager.
//!
//! Shark keeps exactly one in-memory copy of each cached RDD partition and
//! relies on lineage, not replication, for fault tolerance (§2.2). The cache
//! manager therefore records which simulated node holds each partition so
//! that a node failure can invalidate exactly the partitions that lived
//! there; the scheduler then recomputes them from their lineage (Figure 9).
//!
//! Accounting, recency and pinning are all *partition*-granular: every
//! cached `(rdd, partition)` pair carries its own last-access tick and pin
//! count, so a memory manager can evict exactly the coldest partitions
//! ([`CacheManager::lru_partition`] + [`CacheManager::evict_partition`])
//! instead of dropping whole RDDs — whole-RDD eviction
//! ([`CacheManager::evict_rdd`]) remains as the wholesale limit case.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use shark_common::hash::FxHashMap;

/// One cached partition.
struct CachedPartition {
    data: Arc<dyn Any + Send + Sync>,
    node: usize,
    /// Measured once, at [`CacheManager::put`]; every hit is charged this.
    bytes: u64,
    rows: u64,
    /// Last-access tick (partition-granular LRU). Atomic, so a hit bumps it
    /// under the entries *read* lock.
    tick: AtomicU64,
}

/// What an eviction call removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictionStats {
    /// Partitions dropped.
    pub partitions: usize,
    /// Bytes freed.
    pub bytes: u64,
}

/// One cached RDD partition eligible for eviction, as reported by
/// [`CacheManager::lru_candidates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedPartitionInfo {
    /// Owning RDD id.
    pub rdd_id: usize,
    /// Partition index.
    pub partition: usize,
    /// Cached bytes.
    pub bytes: u64,
    /// Last-access tick (smaller = colder).
    pub last_tick: u64,
}

/// Callback invoked with `(rdd_id, partition, bytes)` after each successful
/// *policy* eviction (not node failures or drops) — the hook a serving layer
/// uses to observe or demote evicted RDD partitions without the cache
/// depending on it.
pub type EvictionObserver = Box<dyn Fn(usize, usize, u64) + Send + Sync>;

/// Tracks cached RDD partitions, their sizes and their node placement, plus
/// a per-partition last-access clock and pin counts so a memory manager can
/// evict individual partitions in least-recently-used order. One map holds
/// each partition with its tick, so a hit takes only its read lock and
/// nothing outlives the partition it describes.
#[derive(Default)]
pub struct CacheManager {
    entries: RwLock<FxHashMap<(usize, usize), CachedPartition>>,
    /// Pin counts per partition: pinned partitions are never LRU victims.
    pins: RwLock<FxHashMap<(usize, usize), usize>>,
    clock: AtomicU64,
    /// Observer of policy evictions (last installed wins).
    eviction_observer: RwLock<Option<EvictionObserver>>,
}

impl CacheManager {
    /// Create an empty cache manager.
    pub fn new() -> CacheManager {
        CacheManager::default()
    }

    /// Store a computed partition — the very allocation the caller keeps
    /// using, not a copy. `node` is the simulated worker that holds the only
    /// copy; `bytes` is its size, measured once here and charged to every hit.
    pub fn put<T: Send + Sync + 'static>(
        &self,
        rdd_id: usize,
        partition: usize,
        data: Arc<Vec<T>>,
        node: usize,
        bytes: u64,
    ) {
        let rows = data.len() as u64;
        let tick = AtomicU64::new(self.next_tick());
        self.entries.write().insert(
            (rdd_id, partition),
            CachedPartition {
                data,
                node,
                bytes,
                rows,
                tick,
            },
        );
    }

    /// Fetch a cached partition if present, refreshing its LRU tick: a
    /// refcount bump under the entries read lock, plus the bytes measured at
    /// [`CacheManager::put`] — what reading it is charged.
    pub fn get_measured<T: Send + Sync + 'static>(
        &self,
        rdd_id: usize,
        partition: usize,
    ) -> Option<(Arc<Vec<T>>, u64)> {
        let (data, bytes) = {
            let guard = self.entries.read();
            let entry = guard.get(&(rdd_id, partition))?;
            entry.tick.store(self.next_tick(), Ordering::Relaxed);
            (entry.data.clone(), entry.bytes)
        };
        Some((data.downcast::<Vec<T>>().ok()?, bytes))
    }

    /// [`CacheManager::get_measured`] without the bytes.
    pub fn get<T: Send + Sync + 'static>(
        &self,
        rdd_id: usize,
        partition: usize,
    ) -> Option<Arc<Vec<T>>> {
        self.get_measured(rdd_id, partition).map(|(data, _)| data)
    }

    fn next_tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Mark one cached partition as just-used for LRU purposes.
    pub fn touch_partition(&self, rdd_id: usize, partition: usize) {
        if let Some(entry) = self.entries.read().get(&(rdd_id, partition)) {
            entry.tick.store(self.next_tick(), Ordering::Relaxed);
        }
    }

    /// Mark every cached partition of an RDD as just-used.
    pub fn touch_rdd(&self, rdd_id: usize) {
        for ((id, _), entry) in self.entries.read().iter() {
            if *id == rdd_id {
                entry.tick.store(self.next_tick(), Ordering::Relaxed);
            }
        }
    }

    /// Pin one cached partition against eviction. Pins nest; release with
    /// [`CacheManager::unpin_partition`].
    pub fn pin_partition(&self, rdd_id: usize, partition: usize) {
        // Taking the entries lock first serializes this against
        // `evict_partition` (same lock order), so a pin either lands before
        // the eviction's pin re-check or waits until the slot is gone —
        // never in between.
        let _entries = self.entries.read();
        *self.pins.write().entry((rdd_id, partition)).or_insert(0) += 1;
    }

    /// Release one pin on a partition.
    pub fn unpin_partition(&self, rdd_id: usize, partition: usize) {
        let mut pins = self.pins.write();
        if let Some(count) = pins.get_mut(&(rdd_id, partition)) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&(rdd_id, partition));
            }
        }
    }

    /// Whether a partition is currently pinned.
    pub fn is_pinned(&self, rdd_id: usize, partition: usize) -> bool {
        self.pins.read().contains_key(&(rdd_id, partition))
    }

    /// The node holding a cached partition, if cached.
    pub fn location(&self, rdd_id: usize, partition: usize) -> Option<usize> {
        self.entries
            .read()
            .get(&(rdd_id, partition))
            .map(|e| e.node)
    }

    /// Whether a partition is cached.
    pub fn contains(&self, rdd_id: usize, partition: usize) -> bool {
        self.entries.read().contains_key(&(rdd_id, partition))
    }

    /// Number of partitions cached for an RDD.
    pub fn cached_partitions(&self, rdd_id: usize) -> usize {
        self.entries
            .read()
            .keys()
            .filter(|(id, _)| *id == rdd_id)
            .count()
    }

    /// Total bytes cached across all RDDs.
    pub fn total_bytes(&self) -> u64 {
        self.entries.read().values().map(|e| e.bytes).sum()
    }

    /// Bytes cached for one RDD.
    pub fn rdd_bytes(&self, rdd_id: usize) -> u64 {
        self.entries
            .read()
            .iter()
            .filter(|((id, _), _)| *id == rdd_id)
            .map(|(_, e)| e.bytes)
            .sum()
    }

    /// Per-RDD byte accounting: `(rdd_id, bytes)` for every RDD with at
    /// least one cached partition, sorted by id.
    pub fn per_rdd_bytes(&self) -> Vec<(usize, u64)> {
        let mut by_rdd: FxHashMap<usize, u64> = FxHashMap::default();
        for ((id, _), e) in self.entries.read().iter() {
            *by_rdd.entry(*id).or_insert(0) += e.bytes;
        }
        let mut out: Vec<(usize, u64)> = by_rdd.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Every cached, unpinned partition with its bytes and last-access tick
    /// — the candidate list for partition-granular LRU eviction.
    pub fn lru_candidates(&self) -> Vec<CachedPartitionInfo> {
        let entries = self.entries.read();
        let pins = self.pins.read();
        entries
            .iter()
            .filter(|(key, _)| !pins.contains_key(key))
            .map(|(&(rdd_id, partition), e)| CachedPartitionInfo {
                rdd_id,
                partition,
                bytes: e.bytes,
                last_tick: e.tick.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The cached, unpinned partition that was least recently touched.
    pub fn lru_partition(&self) -> Option<(usize, usize)> {
        self.lru_candidates()
            .into_iter()
            .min_by_key(|c| (c.last_tick, c.rdd_id, c.partition))
            .map(|c| (c.rdd_id, c.partition))
    }

    /// The cached RDD holding the least recently touched unpinned partition,
    /// if any (whole-RDD LRU, derived from the partition clock).
    pub fn lru_rdd(&self) -> Option<usize> {
        self.lru_partition().map(|(id, _)| id)
    }

    /// Evict one cached partition, returning the accounting. Unlike a node
    /// failure this is a *policy* eviction: the data is recomputable from
    /// lineage, so the caller only needs the accounting. Pinned partitions
    /// are refused (zero stats returned): pins are re-checked here, under
    /// the entries lock, so a pin taken after a caller's
    /// [`CacheManager::lru_candidates`] snapshot still protects its
    /// partition.
    pub fn evict_partition(&self, rdd_id: usize, partition: usize) -> EvictionStats {
        let removed = {
            let mut entries = self.entries.write();
            if self.pins.read().contains_key(&(rdd_id, partition)) {
                return EvictionStats::default();
            }
            entries.remove(&(rdd_id, partition))
        };
        match removed {
            Some(e) => {
                self.notify_evicted(rdd_id, partition, e.bytes);
                EvictionStats {
                    partitions: 1,
                    bytes: e.bytes,
                }
            }
            None => EvictionStats::default(),
        }
    }

    /// Evict every cached partition of one RDD, returning how many
    /// partitions and bytes were freed.
    pub fn evict_rdd(&self, rdd_id: usize) -> EvictionStats {
        let mut stats = EvictionStats::default();
        let mut evicted: Vec<(usize, u64)> = Vec::new();
        {
            let mut guard = self.entries.write();
            guard.retain(|(id, partition), e| {
                if *id == rdd_id {
                    stats.partitions += 1;
                    stats.bytes += e.bytes;
                    evicted.push((*partition, e.bytes));
                    false
                } else {
                    true
                }
            });
        }
        for (partition, bytes) in evicted {
            self.notify_evicted(rdd_id, partition, bytes);
        }
        stats
    }

    /// Install the policy-eviction observer (last installed wins). The
    /// observer fires after the partition is already gone from the cache
    /// and must not call back into this manager.
    pub fn set_eviction_observer(&self, observer: EvictionObserver) {
        *self.eviction_observer.write() = Some(observer);
    }

    fn notify_evicted(&self, rdd_id: usize, partition: usize, bytes: u64) {
        if let Some(observer) = self.eviction_observer.read().as_ref() {
            observer(rdd_id, partition, bytes);
        }
    }

    /// Total rows cached across all RDDs.
    pub fn total_rows(&self) -> u64 {
        self.entries.read().values().map(|e| e.rows).sum()
    }

    /// Drop every partition cached on `node` (simulating the node's death),
    /// returning the number of partitions lost.
    pub fn drop_node(&self, node: usize) -> usize {
        let mut guard = self.entries.write();
        let before = guard.len();
        guard.retain(|_, e| e.node != node);
        before - guard.len()
    }

    /// Drop all cached partitions of one RDD (uncache / table drop).
    pub fn drop_rdd(&self, rdd_id: usize) -> usize {
        self.evict_rdd(rdd_id).partitions
    }

    /// Remove everything.
    pub fn clear(&self) {
        self.entries.write().clear();
        self.pins.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let cache = CacheManager::new();
        cache.put(1, 0, Arc::new(vec![1i64, 2, 3]), 5, 24);
        let got: Arc<Vec<i64>> = cache.get(1, 0).unwrap();
        assert_eq!(*got, vec![1, 2, 3]);
        assert_eq!(cache.location(1, 0), Some(5));
        assert!(cache.contains(1, 0));
        assert!(!cache.contains(1, 1));
        assert_eq!(cache.total_bytes(), 24);
        assert_eq!(cache.total_rows(), 3);
    }

    #[test]
    fn a_hit_shares_the_stored_partition_and_its_measured_bytes() {
        let cache = CacheManager::new();
        let stored = Arc::new(vec![1i64, 2, 3]);
        cache.put(1, 0, stored.clone(), 0, 24);
        let (hit, bytes) = cache.get_measured::<i64>(1, 0).unwrap();
        assert!(Arc::ptr_eq(&hit, &stored));
        assert_eq!(bytes, 24);
        // A node failure takes the partition and its tick together: the
        // partition cached again later starts fresh, as the newest.
        cache.put(2, 0, Arc::new(vec![0i64]), 1, 8);
        assert_eq!(cache.drop_node(0), 1);
        assert_eq!(cache.lru_candidates().len(), 1);
        cache.put(1, 0, stored, 0, 24);
        assert_eq!(cache.lru_partition(), Some((2, 0)));
    }

    #[test]
    fn wrong_type_returns_none() {
        let cache = CacheManager::new();
        cache.put(1, 0, Arc::new(vec![1i64]), 0, 8);
        let got: Option<Arc<Vec<String>>> = cache.get(1, 0);
        assert!(got.is_none());
    }

    #[test]
    fn drop_node_removes_only_that_nodes_partitions() {
        let cache = CacheManager::new();
        for p in 0..10usize {
            cache.put(7, p, Arc::new(vec![p]), p % 3, 8);
        }
        let lost = cache.drop_node(0);
        assert_eq!(lost, 4); // partitions 0,3,6,9
        assert_eq!(cache.cached_partitions(7), 6);
        assert!(!cache.contains(7, 0));
        assert!(cache.contains(7, 1));
    }

    #[test]
    fn byte_accounting_per_rdd() {
        let cache = CacheManager::new();
        cache.put(1, 0, Arc::new(vec![1i64]), 0, 100);
        cache.put(1, 1, Arc::new(vec![2i64]), 1, 50);
        cache.put(2, 0, Arc::new(vec![3i64]), 0, 30);
        assert_eq!(cache.rdd_bytes(1), 150);
        assert_eq!(cache.rdd_bytes(2), 30);
        assert_eq!(cache.rdd_bytes(9), 0);
        assert_eq!(cache.per_rdd_bytes(), vec![(1, 150), (2, 30)]);
        assert_eq!(cache.total_bytes(), 180);
    }

    #[test]
    fn evict_rdd_frees_partitions_and_bytes() {
        let cache = CacheManager::new();
        cache.put(1, 0, Arc::new(vec![1i64]), 0, 100);
        cache.put(1, 1, Arc::new(vec![2i64]), 1, 50);
        cache.put(2, 0, Arc::new(vec![3i64]), 0, 30);
        let stats = cache.evict_rdd(1);
        assert_eq!(
            stats,
            EvictionStats {
                partitions: 2,
                bytes: 150
            }
        );
        assert!(!cache.contains(1, 0));
        assert!(cache.contains(2, 0));
        assert_eq!(cache.evict_rdd(1), EvictionStats::default());
    }

    #[test]
    fn evict_partition_frees_only_that_partition() {
        let cache = CacheManager::new();
        cache.put(1, 0, Arc::new(vec![1i64]), 0, 100);
        cache.put(1, 1, Arc::new(vec![2i64]), 1, 50);
        let stats = cache.evict_partition(1, 0);
        assert_eq!(
            stats,
            EvictionStats {
                partitions: 1,
                bytes: 100
            }
        );
        assert!(!cache.contains(1, 0));
        assert!(cache.contains(1, 1));
        assert_eq!(cache.total_bytes(), 50);
        assert_eq!(cache.evict_partition(1, 0), EvictionStats::default());
    }

    #[test]
    fn lru_order_follows_touches() {
        let cache = CacheManager::new();
        cache.put(1, 0, Arc::new(vec![1i64]), 0, 8);
        cache.put(2, 0, Arc::new(vec![2i64]), 0, 8);
        cache.put(3, 0, Arc::new(vec![3i64]), 0, 8);
        // Access order: 1, 3 — leaving 2 least recently used.
        let _: Option<Arc<Vec<i64>>> = cache.get(1, 0);
        let _: Option<Arc<Vec<i64>>> = cache.get(3, 0);
        assert_eq!(cache.lru_rdd(), Some(2));
        assert_eq!(cache.lru_partition(), Some((2, 0)));
        cache.evict_rdd(2);
        assert_eq!(cache.lru_rdd(), Some(1));
        cache.touch_rdd(1);
        assert_eq!(cache.lru_rdd(), Some(3));
        cache.clear();
        assert_eq!(cache.lru_rdd(), None);
    }

    #[test]
    fn partition_lru_is_finer_than_rdd_lru() {
        let cache = CacheManager::new();
        // One RDD, three partitions, touched in order 0, 2 — partition 1 is
        // the coldest even though the *RDD* was just used.
        cache.put(5, 0, Arc::new(vec![0i64]), 0, 8);
        cache.put(5, 1, Arc::new(vec![1i64]), 1, 8);
        cache.put(5, 2, Arc::new(vec![2i64]), 2, 8);
        let _: Option<Arc<Vec<i64>>> = cache.get(5, 0);
        let _: Option<Arc<Vec<i64>>> = cache.get(5, 2);
        assert_eq!(cache.lru_partition(), Some((5, 1)));
        let stats = cache.evict_partition(5, 1);
        assert_eq!(stats.partitions, 1);
        assert_eq!(cache.cached_partitions(5), 2);
        assert_eq!(cache.lru_partition(), Some((5, 0)));
    }

    #[test]
    fn pinned_partitions_are_never_lru_victims() {
        let cache = CacheManager::new();
        cache.put(1, 0, Arc::new(vec![1i64]), 0, 8);
        cache.put(1, 1, Arc::new(vec![2i64]), 1, 8);
        // Partition 0 is the coldest, but pinned.
        cache.pin_partition(1, 0);
        assert!(cache.is_pinned(1, 0));
        assert_eq!(cache.lru_partition(), Some((1, 1)));
        assert_eq!(cache.lru_candidates().len(), 1);
        // Pins nest.
        cache.pin_partition(1, 0);
        cache.unpin_partition(1, 0);
        assert!(cache.is_pinned(1, 0));
        cache.unpin_partition(1, 0);
        assert!(!cache.is_pinned(1, 0));
        assert_eq!(cache.lru_partition(), Some((1, 0)));
    }

    #[test]
    fn evict_partition_refuses_pinned_partitions() {
        // A pin taken after a caller snapshotted its LRU candidates must
        // still protect the partition: eviction re-checks pins itself.
        let cache = CacheManager::new();
        cache.put(1, 0, Arc::new(vec![1i64]), 0, 8);
        cache.pin_partition(1, 0);
        assert_eq!(cache.evict_partition(1, 0), EvictionStats::default());
        assert!(cache.contains(1, 0));
        cache.unpin_partition(1, 0);
        assert_eq!(cache.evict_partition(1, 0).partitions, 1);
        assert!(!cache.contains(1, 0));
    }

    #[test]
    fn drop_rdd_and_clear() {
        let cache = CacheManager::new();
        cache.put(1, 0, Arc::new(vec![1i64]), 0, 8);
        cache.put(2, 0, Arc::new(vec![2i64]), 0, 8);
        assert_eq!(cache.drop_rdd(1), 1);
        assert_eq!(cache.cached_partitions(1), 0);
        assert_eq!(cache.cached_partitions(2), 1);
        cache.clear();
        assert_eq!(cache.total_bytes(), 0);
    }
}
