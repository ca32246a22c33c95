//! Fast, deterministic hashing and hash partitioning.
//!
//! Shuffle partitioning must be deterministic across re-executions of a task
//! (the lineage-based recovery story of §2.2 depends on it), so this module
//! provides an FxHash-style hasher with a fixed seed rather than the
//! randomly seeded `SipHash` used by `std::collections`.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A fast, deterministic, non-cryptographic hasher (FxHash-style).
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; use with `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the deterministic fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// FNV-1a 64 offset basis: the hash of the empty input, and the value to
/// start an incremental [`fnv1a_from`] chain with.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a 64 hash over `bytes`. The one implementation behind
/// every on-disk and on-wire checksum (spill frames, WAL records,
/// snapshot/manifest envelopes, SHRKNET frames), spill file names and
/// statement fingerprints — cheap, dependency-free, and plenty to detect
/// truncation or bit rot; an integrity check, not a cryptographic one.
pub fn fnv1a_from(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Hash an arbitrary value with the deterministic hasher.
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Deterministically map a key to one of `num_partitions` shuffle partitions.
///
/// This is the hash partitioner of every shuffle (`reduce_by_key`,
/// `combine_by_key_ref`, joins, PDE's pre-shuffles). It is stable across
/// processes and re-executions.
pub fn hash_partition<T: Hash + ?Sized>(key: &T, num_partitions: usize) -> usize {
    debug_assert!(num_partitions > 0, "partition count must be positive");
    (fx_hash(key) % num_partitions as u64) as usize
}

/// Per-key states that keep the order their keys first appeared in: the
/// hash table behind the pair shuffles' keyed folds — `reduce_by_key`'s
/// map-side combine and the merging pair reducers. Each pair
/// costs one probe (a first appearance looked up by reference adds the
/// insert), and the groups come out in first-seen order, a function of the
/// input alone rather than of a per-process hash seed.
pub struct GroupTable<K, C> {
    /// Each key's first-seen position and its state, which is `None` only
    /// while a by-value merge holds it.
    table: FxHashMap<K, (usize, Option<C>)>,
}

impl<K, C> Default for GroupTable<K, C> {
    fn default() -> Self {
        GroupTable {
            table: FxHashMap::default(),
        }
    }
}

impl<K: Hash + Eq, C> GroupTable<K, C> {
    /// Fold an owned pair: `create` the key's state at its first
    /// appearance, `merge` the value into it after that.
    pub fn fold<V>(
        &mut self,
        key: K,
        value: V,
        create: impl FnOnce(V) -> C,
        merge: impl FnOnce(C, V) -> C,
    ) {
        let next = self.table.len();
        match self.table.entry(key) {
            Entry::Occupied(mut slot) => {
                let state = &mut slot.get_mut().1;
                let merged = merge(state.take().expect("a state between merges"), value);
                *state = Some(merged);
            }
            Entry::Vacant(slot) => {
                slot.insert((next, Some(create(value))));
            }
        }
    }

    /// Fold by reference: `merge` into the state of the key equal to `key`
    /// in place, or — at its first appearance — start the group with
    /// `new_group`, the only point where a key is built.
    pub fn fold_ref<Q>(
        &mut self,
        key: &Q,
        merge: impl FnOnce(&mut C),
        new_group: impl FnOnce() -> (K, C),
    ) where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some((_, Some(state))) = self.table.get_mut(key) {
            merge(state);
            return;
        }
        let (key, state) = new_group();
        let next = self.table.len();
        self.table.insert(key, (next, Some(state)));
    }

    /// The keys and their states, in the order the keys first appeared,
    /// in a vector of exactly their number (a map output keeps it).
    pub fn into_vec(self) -> Vec<(K, C)> {
        let mut ordered: Vec<Option<(K, C)>> = (0..self.table.len()).map(|_| None).collect();
        for (key, (at, state)) in self.table {
            ordered[at] = Some((key, state.expect("a state between merges")));
        }
        ordered
            .into_iter()
            .map(|group| group.expect("one group per position"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_table_folds_in_first_seen_order() {
        let words = ["b", "a", "b", "c", "a", "b"];
        let mut owned = GroupTable::default();
        for (i, w) in words.iter().enumerate() {
            owned.fold(
                w.to_string(),
                i,
                |i| vec![i],
                |mut c, i| {
                    c.push(i);
                    c
                },
            );
        }
        let expected = vec![
            ("b".to_string(), vec![0, 2, 5]),
            ("a".to_string(), vec![1, 4]),
            ("c".to_string(), vec![3]),
        ];
        let groups = owned.into_vec();
        assert_eq!(groups, expected);
        assert_eq!(groups.capacity(), groups.len());

        // By reference, looked up as `&str`: a key is built once per group.
        let mut built = 0;
        let mut borrowed: GroupTable<String, Vec<usize>> = GroupTable::default();
        for (i, w) in words.iter().enumerate() {
            borrowed.fold_ref(
                *w,
                |c| c.push(i),
                || {
                    built += 1;
                    (w.to_string(), vec![i])
                },
            );
        }
        assert_eq!(built, 3);
        assert_eq!(borrowed.into_vec(), expected);
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(fx_hash("hello"), fx_hash("hello"));
        assert_eq!(fx_hash(&42u64), fx_hash(&42u64));
        assert_ne!(fx_hash("hello"), fx_hash("world"));
    }

    #[test]
    fn partitioning_stays_in_range() {
        for n in 1..20usize {
            for key in 0..200u64 {
                assert!(hash_partition(&key, n) < n);
            }
        }
    }

    #[test]
    fn partitioning_spreads_keys() {
        let n = 16;
        let mut counts = vec![0usize; n];
        for key in 0..10_000u64 {
            counts[hash_partition(&key, n)] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        // Reasonably balanced: no partition more than 2x another.
        assert!(max < min * 2, "unbalanced partitioning: {counts:?}");
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        // Persisted checksums, file names and fingerprints depend on these
        // bits never changing.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_from(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn fx_map_works() {
        let mut m: FxHashMap<String, i32> = FxHashMap::default();
        m.insert("a".into(), 1);
        assert_eq!(m.get("a"), Some(&1));
    }
}
