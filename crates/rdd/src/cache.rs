//! The block store: every resident partition in one map.
//!
//! Shark builds its memstore on Spark's block store (§3.2): one cache holds
//! the columnar partitions of cached tables and the partitions of cached
//! RDDs alike. Each block is keyed by a [`BlockId`] and holds its shared
//! data, its bytes (measured once, at [`BlockStore::put`], and charged to
//! every hit), one tick on the store's single last-access clock, and the
//! simulated node that holds its only copy. Shark relies on lineage, not
//! replication (§2.2), so a node failure removes exactly the blocks tagged
//! with that node ([`BlockStore::drop_node`]) and the scheduler recomputes
//! them (Figure 9). One clock makes recency comparable across kinds, so a
//! memory manager evicts in one global least-recently-used order
//! ([`BlockStore::candidates`]).
//!
//! Running per-owner totals (bytes, blocks, rows) are adjusted under the
//! write lock by every mutation, so residency questions never visit a
//! block. A hit takes only the read lock: the tick is an atomic.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use shark_common::hash::FxHashMap;

/// What a block is a partition of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Owner {
    /// A cached table version, by its memtable id.
    Table(usize),
    /// A cached RDD, by its id.
    Rdd(usize),
}

/// The key of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockId {
    /// A columnar partition of a cached table version.
    Table {
        /// The version's memtable id.
        table: usize,
        /// Partition index.
        partition: usize,
    },
    /// A partition of a cached RDD.
    Rdd {
        /// RDD id.
        rdd: usize,
        /// Partition index.
        partition: usize,
    },
}

impl BlockId {
    /// The table version or RDD this block belongs to.
    pub fn owner(self) -> Owner {
        match self {
            BlockId::Table { table, .. } => Owner::Table(table),
            BlockId::Rdd { rdd, .. } => Owner::Rdd(rdd),
        }
    }

    /// The block's partition index within its owner.
    pub fn partition(self) -> usize {
        match self {
            BlockId::Table { partition, .. } | BlockId::Rdd { partition, .. } => partition,
        }
    }
}

/// Running totals over a set of resident blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Bytes measured at `put`.
    pub bytes: u64,
    /// Resident blocks.
    pub blocks: usize,
    /// Rows (elements, for an RDD partition).
    pub rows: u64,
}

impl Totals {
    fn apply(&mut self, block: &Block, added: bool) {
        if added {
            self.bytes += block.bytes;
            self.blocks += 1;
            self.rows += block.rows;
        } else {
            self.bytes -= block.bytes;
            self.blocks -= 1;
            self.rows -= block.rows;
        }
    }
}

/// One resident block as an eviction policy sees it. The derived order is
/// `(tick, id)`: coldest first, ties broken by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Candidate {
    /// Last-access tick (smaller = colder).
    pub tick: u64,
    /// The block.
    pub id: BlockId,
}

struct Block {
    data: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    rows: u64,
    node: usize,
    /// Atomic, so a hit bumps it under the read lock.
    tick: AtomicU64,
}

#[derive(Default)]
struct Blocks {
    map: FxHashMap<BlockId, Block>,
    owners: FxHashMap<Owner, Totals>,
    rdd: Totals,
}

impl Blocks {
    fn insert(&mut self, id: BlockId, block: Block) {
        self.account(id, &block, true);
        if let Some(replaced) = self.map.insert(id, block) {
            self.account(id, &replaced, false);
        }
    }

    fn remove(&mut self, id: BlockId) -> Option<Block> {
        let block = self.map.remove(&id)?;
        self.account(id, &block, false);
        Some(block)
    }

    fn account(&mut self, id: BlockId, block: &Block, added: bool) {
        let owner = id.owner();
        let totals = self.owners.entry(owner).or_default();
        totals.apply(block, added);
        if totals.blocks == 0 {
            self.owners.remove(&owner);
        }
        if let Owner::Rdd(_) = owner {
            self.rdd.apply(block, added);
        }
    }
}

/// The one store of resident partitions, owned by an
/// [`RddContext`](crate::RddContext) and reached through its `cache()`.
#[derive(Default)]
pub struct BlockStore {
    blocks: RwLock<Blocks>,
    clock: AtomicU64,
}

impl BlockStore {
    /// Create an empty store.
    pub fn new() -> BlockStore {
        BlockStore::default()
    }

    fn next_tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Store a block — the very allocation the caller keeps using, not a
    /// copy — replacing any block under the same id. `node` holds the only
    /// copy; `bytes` is measured once here and charged to every hit.
    pub fn put<D: Any + Send + Sync>(
        &self,
        id: BlockId,
        data: Arc<D>,
        node: usize,
        bytes: u64,
        rows: u64,
    ) {
        let block = Block {
            data,
            bytes,
            rows,
            node,
            tick: AtomicU64::new(self.next_tick()),
        };
        self.blocks.write().insert(id, block);
    }

    /// Fetch a block if present and of type `D`, refreshing its tick: a
    /// refcount bump under the read lock, plus the bytes measured at
    /// [`BlockStore::put`] — what reading it is charged.
    pub fn get<D: Any + Send + Sync>(&self, id: BlockId) -> Option<(Arc<D>, u64)> {
        let (data, bytes) = {
            let blocks = self.blocks.read();
            let block = blocks.map.get(&id)?;
            block.tick.store(self.next_tick(), Ordering::Relaxed);
            (block.data.clone(), block.bytes)
        };
        Some((data.downcast::<D>().ok()?, bytes))
    }

    /// Mark a block as just used.
    pub fn touch(&self, id: BlockId) {
        if let Some(block) = self.blocks.read().map.get(&id) {
            block.tick.store(self.next_tick(), Ordering::Relaxed);
        }
    }

    /// Whether a block is resident (without refreshing its tick).
    pub fn contains(&self, id: BlockId) -> bool {
        self.blocks.read().map.contains_key(&id)
    }

    /// The node holding a block, if resident.
    pub fn location(&self, id: BlockId) -> Option<usize> {
        self.blocks.read().map.get(&id).map(|b| b.node)
    }

    /// A resident block's bytes (0 when absent).
    pub fn block_bytes(&self, id: BlockId) -> u64 {
        self.blocks.read().map.get(&id).map_or(0, |b| b.bytes)
    }

    /// Remove one block, handing back its data and bytes.
    pub fn remove(&self, id: BlockId) -> Option<(Arc<dyn Any + Send + Sync>, u64)> {
        self.blocks.write().remove(id).map(|b| (b.data, b.bytes))
    }

    /// Remove every block of one owner (an uncached RDD, a reclaimed table
    /// version), returning `(partition, bytes)` per block in partition order.
    pub fn remove_owner(&self, owner: Owner) -> Vec<(usize, u64)> {
        let mut blocks = self.blocks.write();
        if !blocks.owners.contains_key(&owner) {
            return Vec::new();
        }
        let ids: Vec<BlockId> = blocks
            .map
            .keys()
            .filter(|id| id.owner() == owner)
            .copied()
            .collect();
        let mut removed: Vec<(usize, u64)> = ids
            .into_iter()
            .filter_map(|id| Some((id.partition(), blocks.remove(id)?.bytes)))
            .collect();
        removed.sort_unstable();
        removed
    }

    /// Remove every block tagged with `node`, of both kinds — the node
    /// died — returning their ids in order.
    pub fn drop_node(&self, node: usize) -> Vec<BlockId> {
        let mut blocks = self.blocks.write();
        let mut lost: Vec<BlockId> = blocks
            .map
            .iter()
            .filter(|(_, b)| b.node == node)
            .map(|(id, _)| *id)
            .collect();
        lost.sort_unstable();
        for &id in &lost {
            blocks.remove(id);
        }
        lost
    }

    /// Running totals of one owner's resident blocks.
    pub fn owner_totals(&self, owner: Owner) -> Totals {
        self.blocks
            .read()
            .owners
            .get(&owner)
            .copied()
            .unwrap_or_default()
    }

    /// Running totals of every cached RDD partition.
    pub fn rdd_totals(&self) -> Totals {
        self.blocks.read().rdd
    }

    /// Number of partitions cached for an RDD.
    pub fn cached_partitions(&self, rdd_id: usize) -> usize {
        self.owner_totals(Owner::Rdd(rdd_id)).blocks
    }

    /// Every resident block, coldest first in `(tick, id)` order — the
    /// candidate list of a global LRU eviction policy.
    pub fn candidates(&self) -> Vec<Candidate> {
        let mut candidates: Vec<Candidate> = self
            .blocks
            .read()
            .map
            .iter()
            .map(|(&id, b)| Candidate {
                tick: b.tick.load(Ordering::Relaxed),
                id,
            })
            .collect();
        candidates.sort_unstable();
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rdd(rdd: usize, partition: usize) -> BlockId {
        BlockId::Rdd { rdd, partition }
    }

    fn put_rdd(store: &BlockStore, id: usize, partition: usize, node: usize, bytes: u64) {
        store.put(
            rdd(id, partition),
            Arc::new(vec![partition as i64]),
            node,
            bytes,
            1,
        );
    }

    /// The coldest block's id.
    fn coldest(store: &BlockStore) -> Option<BlockId> {
        store.candidates().first().map(|c| c.id)
    }

    #[test]
    fn put_get_roundtrip() {
        let store = BlockStore::new();
        store.put(rdd(1, 0), Arc::new(vec![1i64, 2, 3]), 5, 24, 3);
        let (got, bytes) = store.get::<Vec<i64>>(rdd(1, 0)).unwrap();
        assert_eq!(*got, vec![1, 2, 3]);
        assert_eq!(bytes, 24);
        assert_eq!(store.location(rdd(1, 0)), Some(5));
        assert!(store.contains(rdd(1, 0)));
        assert!(!store.contains(rdd(1, 1)));
        let totals = Totals {
            bytes: 24,
            blocks: 1,
            rows: 3,
        };
        assert_eq!(store.rdd_totals(), totals);
        assert_eq!(store.owner_totals(Owner::Rdd(1)), totals);
    }

    #[test]
    fn a_hit_shares_the_stored_partition_and_its_measured_bytes() {
        let store = BlockStore::new();
        let stored = Arc::new(vec![1i64, 2, 3]);
        store.put(rdd(1, 0), stored.clone(), 0, 24, 3);
        let (hit, bytes) = store.get::<Vec<i64>>(rdd(1, 0)).unwrap();
        assert!(Arc::ptr_eq(&hit, &stored));
        assert_eq!(bytes, 24);
        // A node failure takes the partition and its tick together: the
        // partition cached again later starts fresh, as the newest.
        put_rdd(&store, 2, 0, 1, 8);
        assert_eq!(store.drop_node(0), vec![rdd(1, 0)]);
        assert_eq!(store.candidates().len(), 1);
        store.put(rdd(1, 0), stored, 0, 24, 3);
        assert_eq!(coldest(&store), Some(rdd(2, 0)));
    }

    #[test]
    fn wrong_type_returns_none() {
        let store = BlockStore::new();
        put_rdd(&store, 1, 0, 0, 8);
        assert!(store.get::<Vec<String>>(rdd(1, 0)).is_none());
    }

    #[test]
    fn drop_node_removes_only_that_nodes_partitions() {
        let store = BlockStore::new();
        for p in 0..10usize {
            put_rdd(&store, 7, p, p % 3, 8);
        }
        store.put(
            BlockId::Table {
                table: 7,
                partition: 3,
            },
            Arc::new(()),
            0,
            5,
            0,
        );
        // Both kinds go: RDD partitions 0, 3, 6, 9 and the table block.
        let lost = store.drop_node(0);
        assert_eq!(lost.len(), 5);
        assert!(lost.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(store.cached_partitions(7), 6);
        assert_eq!(store.owner_totals(Owner::Table(7)), Totals::default());
        assert!(!store.contains(rdd(7, 0)));
        assert!(store.contains(rdd(7, 1)));
    }

    #[test]
    fn byte_accounting_per_rdd() {
        let store = BlockStore::new();
        put_rdd(&store, 1, 0, 0, 100);
        put_rdd(&store, 1, 1, 1, 50);
        put_rdd(&store, 2, 0, 0, 30);
        assert_eq!(store.owner_totals(Owner::Rdd(1)).bytes, 150);
        assert_eq!(store.owner_totals(Owner::Rdd(2)).bytes, 30);
        assert_eq!(store.owner_totals(Owner::Rdd(9)).bytes, 0);
        assert_eq!(store.rdd_totals().bytes, 180);
        // Replacing a block swaps its bytes in the totals.
        put_rdd(&store, 1, 1, 1, 20);
        assert_eq!(store.owner_totals(Owner::Rdd(1)).bytes, 120);
        assert_eq!(store.rdd_totals().blocks, 3);
    }

    #[test]
    fn evict_rdd_frees_partitions_and_bytes() {
        let store = BlockStore::new();
        put_rdd(&store, 1, 1, 1, 50);
        put_rdd(&store, 1, 0, 0, 100);
        put_rdd(&store, 2, 0, 0, 30);
        assert_eq!(store.remove_owner(Owner::Rdd(1)), vec![(0, 100), (1, 50)]);
        assert!(!store.contains(rdd(1, 0)));
        assert!(store.contains(rdd(2, 0)));
        assert!(store.remove_owner(Owner::Rdd(1)).is_empty());
    }

    #[test]
    fn evict_partition_frees_only_that_partition() {
        let store = BlockStore::new();
        put_rdd(&store, 1, 0, 0, 100);
        put_rdd(&store, 1, 1, 1, 50);
        assert_eq!(store.remove(rdd(1, 0)).map(|(_, bytes)| bytes), Some(100));
        assert!(!store.contains(rdd(1, 0)));
        assert!(store.contains(rdd(1, 1)));
        assert_eq!(store.rdd_totals().bytes, 50);
        assert!(store.remove(rdd(1, 0)).is_none());
    }

    #[test]
    fn lru_order_follows_touches() {
        let store = BlockStore::new();
        let table = BlockId::Table {
            table: 0,
            partition: 0,
        };
        put_rdd(&store, 1, 0, 0, 8);
        store.put(table, Arc::new(()), 0, 8, 0);
        put_rdd(&store, 3, 0, 0, 8);
        // Access order: 1, 3 — leaving the table block least recently used.
        assert!(store.get::<Vec<i64>>(rdd(1, 0)).is_some());
        store.touch(rdd(3, 0));
        let order: Vec<BlockId> = store.candidates().iter().map(|c| c.id).collect();
        assert_eq!(order, vec![table, rdd(1, 0), rdd(3, 0)]);
        store.remove(table);
        assert_eq!(coldest(&store), Some(rdd(1, 0)));
        store.touch(rdd(1, 0));
        assert_eq!(coldest(&store), Some(rdd(3, 0)));
    }

    #[test]
    fn partition_lru_is_finer_than_rdd_lru() {
        let store = BlockStore::new();
        // One RDD, three partitions, touched in order 0, 2 — partition 1 is
        // the coldest even though the *RDD* was just used.
        for p in 0..3 {
            put_rdd(&store, 5, p, p, 8);
        }
        store.touch(rdd(5, 0));
        store.touch(rdd(5, 2));
        assert_eq!(coldest(&store), Some(rdd(5, 1)));
        store.remove(rdd(5, 1));
        assert_eq!(store.cached_partitions(5), 2);
        assert_eq!(coldest(&store), Some(rdd(5, 0)));
    }

    #[test]
    fn drop_rdd_and_clear() {
        let store = BlockStore::new();
        put_rdd(&store, 1, 0, 0, 8);
        put_rdd(&store, 2, 0, 0, 8);
        assert_eq!(store.remove_owner(Owner::Rdd(1)).len(), 1);
        assert_eq!(store.cached_partitions(1), 0);
        assert_eq!(store.cached_partitions(2), 1);
        store.remove_owner(Owner::Rdd(2));
        assert_eq!(store.rdd_totals(), Totals::default());
        assert!(store.candidates().is_empty());
    }
}
