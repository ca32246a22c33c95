//! Spill-to-disk demotion tier for the memory-budgeted memstore.
//!
//! Eviction under memory pressure no longer has to throw a partition's
//! columnar form away: the [`SpillManager`] serializes the compressed
//! partition with the versioned, checksummed frame codec of
//! `shark_columnar::spill` and parks it on disk. A later scan *promotes*
//! the partition back at pure I/O cost instead of re-running its lineage.
//! The tier keeps its own disk budget with LRU displacement: when spilled
//! bytes exceed it, the coldest spill files are deleted and those
//! partitions degrade to lineage recompute — exactly the pre-spill
//! behaviour, never an error.
//!
//! Crash safety: spill files are written under a temporary name and
//! atomically renamed into place, so a crash mid-write can never leave a
//! half-frame under a live name (the frame layout itself is specified in
//! `docs/ondisk-formats.md`). [`SpillManager::create`] sweeps only `.tmp-*`
//! partials from a crashed write; intact `.spill` frames are left on disk
//! so a restore can *re-adopt* them via [`SpillManager::adopt`] — deleting
//! them eagerly at startup raced lazily-installed restores and threw away
//! perfectly servable data. Frames nobody adopts are removed by the
//! explicit [`SpillManager::sweep_orphans`] pass the server runs once
//! adoption (or a durability-free startup) has decided what is reachable.
//! A file that fails its checksum on read — truncated, bit-flipped,
//! tampered — is *poisoned*: it is deleted, counted, and the caller falls
//! back to lineage recompute; a poisoned spill file is never a query error.
//!
//! Every frame is stamped with the owning table's catalog version
//! ([`shark_sql::TableMeta::version`]); a fetch whose expected version
//! disagrees with the frame's poisons it the same way, so a re-adopted
//! frame from a dropped-and-recreated table can never serve stale rows.

use std::fs;
use std::io::Read as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use shark_columnar::{
    decode_partition, encode_partition, read_frame_header, ColumnarPartition, SPILL_HEADER_BYTES,
};
use shark_common::hash::{fnv1a, FxHashMap};
use shark_common::{Result, SharkError};
use shark_sql::SpillSource;

use crate::metrics::ServerMetrics;
use crate::wal::ManifestEntry;

/// One spilled partition in the in-memory index.
struct SpillEntry {
    /// On-disk frame size.
    bytes: u64,
    /// LRU clock value at demotion (or last touch).
    tick: u64,
    /// The owning table's catalog version the frame was written under.
    version: u64,
    /// The frame's header checksum, recorded for the manifest.
    checksum: u64,
}

/// A spill-tier movement awaiting journaling into the catalog WAL. The
/// server drains these at query boundaries ([`SpillManager::drain_wal_events`])
/// and appends them as `Demoted`/`Promoted` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillEvent {
    /// A partition's frame was written to the tier.
    Demoted {
        /// Owning table.
        table: String,
        /// Partition index.
        partition: usize,
        /// The owning table's catalog version.
        table_version: u64,
        /// Frame size on disk.
        bytes: u64,
        /// Frame header checksum.
        checksum: u64,
    },
    /// A partition's frame was moved back into memory.
    Promoted {
        /// Owning table.
        table: String,
        /// Partition index.
        partition: usize,
        /// The owning table's catalog version.
        table_version: u64,
    },
}

/// Bound on the un-drained WAL-event journal, so a server without
/// durability configured (nobody draining) cannot grow it forever.
const WAL_EVENT_CAP: usize = 4096;

struct SpillState {
    /// `(table, partition)` → index entry; the *only* record of what is
    /// demoted — files on disk without an entry are unreachable garbage.
    entries: FxHashMap<(String, usize), SpillEntry>,
    disk_bytes: u64,
    clock: u64,
    /// Promotions performed by scans since the server last drained them
    /// (table, partition, memory bytes restored).
    promotions: Vec<(String, usize, u64)>,
    /// Demotions/promotions not yet journaled into the WAL.
    wal_events: Vec<SpillEvent>,
}

/// Result of spilling one partition.
pub struct StoreOutcome {
    /// Bytes the spill frame occupies on disk.
    pub spill_bytes: u64,
    /// Partitions whose spill files were deleted to respect the disk
    /// budget; they are now "dropped" and must be marked awaiting
    /// recompute by the caller.
    pub displaced: Vec<(String, usize)>,
}

/// The disk tier: an indexed directory of spill frames plus its own
/// LRU-displaced disk budget. Shared behind an `Arc`; also implements
/// [`shark_sql::SpillSource`] so scans can fault partitions back in
/// without the sql crate depending on the server.
pub struct SpillManager {
    dir: PathBuf,
    budget_bytes: u64,
    state: Mutex<SpillState>,
    /// The metrics table its lifetime movements count in.
    metrics: Arc<ServerMetrics>,
}

impl SpillManager {
    /// Open (creating if needed) a spill directory and sweep only `.tmp-*`
    /// partials from a crashed mid-write. Intact `.spill` frames from an
    /// earlier incarnation are deliberately left alone: a restore re-adopts
    /// them via [`SpillManager::adopt`], and whatever remains unreachable
    /// afterwards is removed by [`SpillManager::sweep_orphans`]. (An
    /// earlier version deleted every `.spill` file here, which raced
    /// restores that install the manager lazily and destroyed re-adoptable
    /// frames.)
    pub fn create(dir: impl Into<PathBuf>, budget_bytes: u64) -> Result<SpillManager> {
        SpillManager::create_in(dir, budget_bytes, ServerMetrics::standalone())
    }

    /// [`SpillManager::create`], counting in a server's metrics table.
    pub(crate) fn create_in(
        dir: impl Into<PathBuf>,
        budget_bytes: u64,
        metrics: Arc<ServerMetrics>,
    ) -> Result<SpillManager> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| SharkError::Config(format!("spill dir {}: {e}", dir.display())))?;
        if let Ok(listing) = fs::read_dir(&dir) {
            for entry in listing.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.contains(".tmp-") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        Ok(SpillManager {
            dir,
            budget_bytes,
            state: Mutex::new(SpillState {
                entries: FxHashMap::default(),
                disk_bytes: 0,
                clock: 0,
                promotions: Vec::new(),
                wal_events: Vec::new(),
            }),
            metrics,
        })
    }

    /// The directory spill frames live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Canonical file name (no directory) for one partition's spill frame.
    /// WAL replay uses this to reconstruct manifest entries for demotions
    /// that happened after the last snapshot.
    pub fn frame_file_name(&self, table: &str, partition: usize) -> String {
        self.file_path(table, partition)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default()
    }

    /// Path of the live spill file for one partition.
    fn file_path(&self, table: &str, partition: usize) -> PathBuf {
        let safe: String = table
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        // The name's FNV-1a keeps file names unique even when distinct
        // table names sanitize to the same safe characters.
        self.dir.join(format!(
            "{safe}-{:016x}_{partition}.spill",
            fnv1a(table.as_bytes())
        ))
    }

    /// Serialize one demoted partition to disk: encode, write to a temp
    /// name, fsync-free atomic rename into place, then displace the coldest
    /// spilled partitions if the disk budget is now exceeded. On any I/O
    /// error nothing is indexed and the caller degrades the partition to
    /// plain eviction (lineage recompute).
    pub fn store(
        &self,
        table: &str,
        partition: usize,
        columnar: &ColumnarPartition,
        table_version: u64,
    ) -> Result<StoreOutcome> {
        let started = Instant::now();
        let frame = encode_partition(columnar, table_version);
        let spill_bytes = frame.len() as u64;
        // The codec just stamped the header; read the checksum back for the
        // index entry (and, through it, the manifest and WAL).
        let checksum = read_frame_header(&frame, Some(spill_bytes))
            .map(|h| h.checksum)
            .unwrap_or(0);
        let final_path = self.file_path(table, partition);
        let write = |tmp: &Path| -> std::io::Result<()> {
            let mut f = fs::File::create(tmp)?;
            f.write_all(&frame)?;
            f.flush()?;
            drop(f);
            fs::rename(tmp, &final_path)
        };
        // The nonce only needs to be unique within the directory; derive it
        // from the manager's clock so concurrent demotions cannot collide.
        let nonce = {
            let mut state = self.state.lock();
            state.clock += 1;
            state.clock
        };
        let tmp = self.dir.join(format!(
            "{}.tmp-{nonce:x}",
            final_path.file_name().unwrap_or_default().to_string_lossy()
        ));
        if let Err(e) = write(&tmp) {
            let _ = fs::remove_file(&tmp);
            self.metrics.spill_write_failures.inc();
            return Err(SharkError::Execution(format!(
                "spill write {}: {e}",
                final_path.display()
            )));
        }
        self.metrics
            .spill_write_seconds
            .observe(started.elapsed().as_secs_f64());
        self.metrics.partitions_demoted.inc();
        self.metrics.spill_bytes_written.add(spill_bytes);
        if shark_obs::active() {
            shark_obs::event(
                "spill-write",
                &[
                    ("partition", &format!("{table}[{partition}]")),
                    ("bytes", &spill_bytes.to_string()),
                ],
            );
        }

        let mut state = self.state.lock();
        state.clock += 1;
        let tick = state.clock;
        // Replacing an existing frame (same partition demoted twice without
        // an intervening promotion) swaps the old size out of the total.
        if let Some(old) = state.entries.insert(
            (table.to_string(), partition),
            SpillEntry {
                bytes: spill_bytes,
                tick,
                version: table_version,
                checksum,
            },
        ) {
            state.disk_bytes -= old.bytes;
        }
        state.disk_bytes += spill_bytes;
        Self::journal(
            &mut state,
            SpillEvent::Demoted {
                table: table.to_string(),
                partition,
                table_version,
                bytes: spill_bytes,
                checksum,
            },
        );

        // Disk-budget LRU displacement, coldest first. The entry just
        // written is displaced last — only when it alone exceeds the
        // budget — so a tiny budget degrades to "spill nothing", not to
        // thrashing everyone else.
        let mut displaced = Vec::new();
        while state.disk_bytes > self.budget_bytes {
            let victim = state
                .entries
                .iter()
                .filter(|(key, _)| !(key.0 == table && key.1 == partition))
                .min_by_key(|(key, e)| (e.tick, key.0.clone(), key.1))
                .map(|(key, _)| key.clone());
            let victim = match victim {
                Some(v) => v,
                None => {
                    // Only the new entry remains and it is over budget on
                    // its own: displace it too.
                    (table.to_string(), partition)
                }
            };
            if let Some(e) = state.entries.remove(&victim) {
                state.disk_bytes -= e.bytes;
            }
            let _ = fs::remove_file(self.file_path(&victim.0, victim.1));
            self.metrics.spill_displaced_partitions.inc();
            let own = victim.0 == table && victim.1 == partition;
            displaced.push(victim);
            if own {
                break;
            }
        }
        Ok(StoreOutcome {
            spill_bytes,
            displaced,
        })
    }

    /// Forget every spilled partition of one table (table dropped or
    /// replaced): index entries and files both go.
    pub fn remove_table(&self, table: &str) {
        let mut state = self.state.lock();
        let victims: Vec<(String, usize)> = state
            .entries
            .keys()
            .filter(|(t, _)| t == table)
            .cloned()
            .collect();
        for key in victims {
            if let Some(e) = state.entries.remove(&key) {
                state.disk_bytes -= e.bytes;
            }
            let _ = fs::remove_file(self.file_path(&key.0, key.1));
        }
    }

    /// Spilled partitions a scan promoted since the last drain, as
    /// `(table, partition, memory bytes restored)` — the server turns these
    /// into `Promoted` eviction events and re-charges residency.
    pub fn drain_promotions(&self) -> Vec<(String, usize, u64)> {
        std::mem::take(&mut self.state.lock().promotions)
    }

    /// Append one event to the bounded WAL-event journal.
    fn journal(state: &mut SpillState, event: SpillEvent) {
        state.wal_events.push(event);
        if state.wal_events.len() > WAL_EVENT_CAP {
            let excess = state.wal_events.len() - WAL_EVENT_CAP;
            state.wal_events.drain(..excess);
        }
    }

    /// Spill-tier movements awaiting WAL journaling, oldest first. The
    /// journal is bounded (`WAL_EVENT_CAP`); on a durability-free server
    /// nobody drains it and the oldest events simply age out.
    pub fn drain_wal_events(&self) -> Vec<SpillEvent> {
        std::mem::take(&mut self.state.lock().wal_events)
    }

    /// The current tier contents as manifest entries, for persisting
    /// alongside a catalog snapshot.
    pub fn manifest_entries(&self) -> Vec<ManifestEntry> {
        let state = self.state.lock();
        let mut entries: Vec<ManifestEntry> = state
            .entries
            .iter()
            .map(|((table, partition), e)| ManifestEntry {
                table: table.clone(),
                partition: *partition as u64,
                table_version: e.version,
                file: self
                    .file_path(table, *partition)
                    .file_name()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .into_owned(),
                file_bytes: e.bytes,
                checksum: e.checksum,
            })
            .collect();
        entries.sort_by(|a, b| (&a.table, a.partition).cmp(&(&b.table, b.partition)));
        entries
    }

    /// Re-adopt spill frames left by an earlier incarnation: for each
    /// expected entry, probe the frame header on disk (no payload read) and
    /// index the frame if everything matches — file name, size, version and
    /// checksum. A frame that is missing, undersized, corrupt or
    /// mismatched is rejected and deleted; its partition simply comes back
    /// via lineage. Returns `(adopted, rejected)` counts. Call before the
    /// manager is shared (restore runs single-threaded) and follow with
    /// [`SpillManager::sweep_orphans`].
    pub fn adopt(&self, expected: &[ManifestEntry]) -> (u64, u64) {
        let mut adopted = 0u64;
        let mut rejected = 0u64;
        for entry in expected {
            let partition = entry.partition as usize;
            let path = self.file_path(&entry.table, partition);
            let canonical = path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            let ok = canonical == entry.file && self.probe_frame(&path, entry).is_some();
            if ok {
                let mut state = self.state.lock();
                state.clock += 1;
                let tick = state.clock;
                let prev = state.entries.insert(
                    (entry.table.clone(), partition),
                    SpillEntry {
                        bytes: entry.file_bytes,
                        tick,
                        version: entry.table_version,
                        checksum: entry.checksum,
                    },
                );
                if let Some(old) = prev {
                    state.disk_bytes -= old.bytes;
                }
                state.disk_bytes += entry.file_bytes;
                adopted += 1;
            } else {
                let _ = fs::remove_file(&path);
                rejected += 1;
            }
        }
        self.metrics.recovery_frames_adopted.add(adopted);
        self.metrics.recovery_frames_rejected.add(rejected);
        (adopted, rejected)
    }

    /// Header-only validation of one on-disk frame against its manifest
    /// entry. Reads [`SPILL_HEADER_BYTES`], never the payload; the full
    /// checksum pass stays where it always was — at fetch time.
    fn probe_frame(&self, path: &Path, entry: &ManifestEntry) -> Option<()> {
        let meta = fs::metadata(path).ok()?;
        if meta.len() != entry.file_bytes {
            return None;
        }
        let mut file = fs::File::open(path).ok()?;
        let mut header = [0u8; SPILL_HEADER_BYTES];
        file.read_exact(&mut header).ok()?;
        let header = read_frame_header(&header, Some(meta.len())).ok()?;
        (header.table_version == entry.table_version && header.checksum == entry.checksum)
            .then_some(())
    }

    /// Delete every `.spill` frame (and stray `.tmp-*` partial) in the
    /// directory that has no index entry — the explicit orphan sweep that
    /// replaced the old delete-everything startup sweep. Run it after
    /// [`SpillManager::adopt`] decided what is reachable (or right after
    /// [`SpillManager::create`] on a server without durability). Returns
    /// the number of files removed.
    pub fn sweep_orphans(&self) -> u64 {
        let live: std::collections::HashSet<std::ffi::OsString> = {
            let state = self.state.lock();
            state
                .entries
                .keys()
                .filter_map(|(table, partition)| {
                    self.file_path(table, *partition)
                        .file_name()
                        .map(Into::into)
                })
                .collect()
        };
        let mut removed = 0u64;
        if let Ok(listing) = fs::read_dir(&self.dir) {
            for entry in listing.flatten() {
                let name = entry.file_name();
                let lossy = name.to_string_lossy();
                let sweepable = lossy.ends_with(".spill") || lossy.contains(".tmp-");
                if sweepable && !live.contains(&name) {
                    let _ = fs::remove_file(entry.path());
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Number of partitions currently on the spill tier.
    pub fn spilled_partition_count(&self) -> u64 {
        self.state.lock().entries.len() as u64
    }

    /// Bytes currently occupied on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.state.lock().disk_bytes
    }

    /// The configured disk budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Whether one specific partition is currently spilled.
    pub fn is_spilled(&self, table: &str, partition: usize) -> bool {
        self.state
            .lock()
            .entries
            .contains_key(&(table.to_string(), partition))
    }

    /// Delete a poisoned frame and forget its entry.
    fn poison(&self, table: &str, partition: usize, detail: &str) {
        let mut state = self.state.lock();
        if let Some(e) = state.entries.remove(&(table.to_string(), partition)) {
            state.disk_bytes -= e.bytes;
        }
        drop(state);
        let _ = fs::remove_file(self.file_path(table, partition));
        self.metrics.spill_poisoned_files.inc();
        if shark_obs::active() {
            shark_obs::event(
                "spill-poisoned",
                &[
                    ("partition", &format!("{table}[{partition}]")),
                    ("detail", detail),
                ],
            );
        }
    }
}

impl SpillSource for SpillManager {
    /// Promote one partition: read and validate its frame, then *move* it
    /// off the tier (file and index entry are removed — the memtable copy
    /// the caller installs becomes the only one). Any validation failure —
    /// including a frame stamped with a different table version than the
    /// scan expects — poisons the file and returns `None`; the scan falls
    /// back to lineage.
    fn fetch(
        &self,
        table: &str,
        partition: usize,
        expected_version: u64,
    ) -> Option<(Arc<ColumnarPartition>, u64)> {
        let key = (table.to_string(), partition);
        let stale_version = {
            let state = self.state.lock();
            match state.entries.get(&key) {
                None => return None,
                Some(entry) if entry.version != expected_version => Some(entry.version),
                Some(_) => None,
            }
        };
        if let Some(frame_version) = stale_version {
            self.poison(
                table,
                partition,
                &format!(
                    "table version mismatch: frame v{frame_version}, expected v{expected_version}"
                ),
            );
            return None;
        }
        let started = Instant::now();
        let path = self.file_path(table, partition);
        let frame = match fs::read(&path) {
            Ok(frame) => frame,
            Err(e) => {
                self.poison(table, partition, &format!("read: {e}"));
                return None;
            }
        };
        let (columnar, frame_version) = match decode_partition(&frame) {
            Ok(decoded) => decoded,
            Err(e) => {
                self.poison(table, partition, &e.to_string());
                return None;
            }
        };
        if frame_version != expected_version {
            self.poison(
                table,
                partition,
                &format!(
                    "table version mismatch: frame v{frame_version}, expected v{expected_version}"
                ),
            );
            return None;
        }
        let io_bytes = frame.len() as u64;
        let memory_bytes = columnar.memory_bytes() as u64;
        let mut state = self.state.lock();
        if let Some(e) = state.entries.remove(&key) {
            state.disk_bytes -= e.bytes;
        }
        state
            .promotions
            .push((table.to_string(), partition, memory_bytes));
        Self::journal(
            &mut state,
            SpillEvent::Promoted {
                table: table.to_string(),
                partition,
                table_version: expected_version,
            },
        );
        drop(state);
        let _ = fs::remove_file(&path);
        self.metrics
            .spill_read_seconds
            .observe(started.elapsed().as_secs_f64());
        self.metrics.partitions_promoted.inc();
        self.metrics.spill_bytes_read.add(io_bytes);
        if shark_obs::active() {
            shark_obs::event(
                "spill-read",
                &[
                    ("partition", &format!("{table}[{partition}]")),
                    ("bytes", &io_bytes.to_string()),
                ],
            );
        }
        Some((Arc::new(columnar), io_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_common::{row, DataType, Row, Schema, Value};

    fn test_dir(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        std::env::temp_dir().join(format!("shark-spill-{tag}-{}-{nanos}", std::process::id()))
    }

    fn partition(rows: usize) -> ColumnarPartition {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]);
        let rows: Vec<Row> = (0..rows)
            .map(|i| row![i as i64, format!("value-{}", i % 7)])
            .collect();
        ColumnarPartition::from_rows(&schema, &rows)
    }

    fn single_column(dt: DataType, value: impl Fn(usize) -> Value) -> ColumnarPartition {
        let schema = Schema::from_pairs(&[("c", dt)]);
        let rows: Vec<Row> = (0..10_000).map(|i| Row::new(vec![value(i)])).collect();
        ColumnarPartition::from_rows(&schema, &rows)
    }

    #[test]
    fn store_then_fetch_moves_the_partition() {
        let dir = test_dir("roundtrip");
        let mgr = SpillManager::create(&dir, u64::MAX).unwrap();
        // A mixed partition, then four whose frames are smaller in bytes
        // than their row count (bit-packed, one run, bools, two runs).
        let inputs = [
            partition(64),
            single_column(DataType::Int, |i| Value::Int((i % 100) as i64)),
            single_column(DataType::Int, |_| Value::Int(42)),
            single_column(DataType::Bool, |i| Value::Bool(i % 3 == 0)),
            single_column(DataType::Str, |i| {
                Value::str(if i < 5_000 { "alpha" } else { "beta" })
            }),
        ];
        for (n, p) in inputs.iter().enumerate() {
            let part = n + 3;
            let outcome = mgr.store("t", part, p, 1).unwrap();
            assert!(outcome.spill_bytes > 0);
            assert!(outcome.displaced.is_empty());
            assert!(mgr.is_spilled("t", part));
            assert_eq!(mgr.disk_bytes(), outcome.spill_bytes);

            let (fetched, io_bytes) = mgr.fetch("t", part, 1).unwrap();
            assert_eq!(io_bytes, outcome.spill_bytes);
            assert_eq!(*fetched, *p);
            assert_eq!(fetched.to_rows(), p.to_rows());
            // fetch is a move: nothing left on the tier.
            assert!(!mgr.is_spilled("t", part));
            assert_eq!(mgr.disk_bytes(), 0);
            assert!(mgr.fetch("t", part, 1).is_none());
            assert_eq!(mgr.drain_promotions().len(), 1);
            // Both movements were journaled for the WAL.
            let events = mgr.drain_wal_events();
            assert_eq!(events.len(), 2);
            assert!(matches!(
                &events[0],
                SpillEvent::Demoted { table, partition, table_version: 1, .. }
                    if table == "t" && *partition == part
            ));
            assert!(matches!(
                &events[1],
                SpillEvent::Promoted { table, partition, table_version: 1 }
                    if table == "t" && *partition == part
            ));
            assert!(mgr.drain_wal_events().is_empty());
        }
        assert_eq!(mgr.metrics.partitions_promoted.get(), inputs.len() as u64);
        assert_eq!(mgr.metrics.spill_poisoned_files.get(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatched_fetch_poisons_instead_of_serving_stale_rows() {
        let dir = test_dir("version");
        let mgr = SpillManager::create(&dir, u64::MAX).unwrap();
        let p = partition(32);
        mgr.store("t", 0, &p, 4).unwrap();
        // The table was dropped and recreated: scans now expect version 6.
        assert!(mgr.fetch("t", 0, 6).is_none());
        assert_eq!(mgr.metrics.spill_poisoned_files.get(), 1);
        assert!(!mgr.is_spilled("t", 0));
        assert!(mgr.drain_promotions().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_budget_displaces_coldest_first() {
        let dir = test_dir("budget");
        let mgr = SpillManager::create(&dir, 1).unwrap(); // placeholder, resized below
        let p = partition(64);
        let frame_bytes = mgr.store("t", 0, &p, 1).unwrap().spill_bytes;
        let _ = fs::remove_dir_all(&dir);

        // Budget fits exactly two frames.
        let dir = test_dir("budget2");
        let mgr = SpillManager::create(&dir, frame_bytes * 2).unwrap();
        assert!(mgr.store("t", 0, &p, 1).unwrap().displaced.is_empty());
        assert!(mgr.store("t", 1, &p, 1).unwrap().displaced.is_empty());
        let third = mgr.store("t", 2, &p, 1).unwrap();
        // The coldest (first-spilled) partition was displaced.
        assert_eq!(third.displaced, vec![("t".to_string(), 0)]);
        assert!(!mgr.is_spilled("t", 0));
        assert!(mgr.is_spilled("t", 1));
        assert!(mgr.is_spilled("t", 2));
        assert!(mgr.disk_bytes() <= frame_bytes * 2);
        assert_eq!(mgr.metrics.spill_displaced_partitions.get(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_frame_displaces_itself_not_others() {
        let dir = test_dir("oversized");
        let mgr = SpillManager::create(&dir, 8).unwrap(); // smaller than any frame
        let p = partition(64);
        let outcome = mgr.store("t", 5, &p, 1).unwrap();
        assert_eq!(outcome.displaced, vec![("t".to_string(), 5)]);
        assert!(!mgr.is_spilled("t", 5));
        assert_eq!(mgr.disk_bytes(), 0);
        assert!(mgr.fetch("t", 5, 1).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_is_poisoned_and_skipped() {
        let dir = test_dir("poison");
        let mgr = SpillManager::create(&dir, u64::MAX).unwrap();
        let p = partition(64);
        mgr.store("t", 0, &p, 1).unwrap();
        // Flip a payload byte on disk.
        let file = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .find(|e| e.file_name().to_string_lossy().ends_with(".spill"))
            .unwrap()
            .path();
        let mut bytes = fs::read(&file).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&file, &bytes).unwrap();

        assert!(mgr.fetch("t", 0, 1).is_none());
        assert_eq!(mgr.metrics.spill_poisoned_files.get(), 1);
        assert!(!mgr.is_spilled("t", 0));
        assert!(!file.exists(), "poisoned file must be deleted");
        // Poisoning is not a promotion.
        assert!(mgr.drain_promotions().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_keeps_frames_for_adoption_and_sweeps_only_partials() {
        let dir = test_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("old_0.spill"), b"possibly re-adoptable").unwrap();
        fs::write(dir.join("old_1.spill.tmp-3f"), b"crashed mid-write").unwrap();
        fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();
        let mgr = SpillManager::create(&dir, u64::MAX).unwrap();
        // Intact frames survive startup so a restore can adopt them; only
        // the crashed partial is gone.
        assert!(dir.join("old_0.spill").exists());
        assert!(!dir.join("old_1.spill.tmp-3f").exists());
        assert!(dir.join("unrelated.txt").exists());
        assert_eq!(mgr.disk_bytes(), 0);
        // The explicit orphan sweep removes what nobody adopted — and
        // nothing else.
        assert_eq!(mgr.sweep_orphans(), 1);
        assert!(!dir.join("old_0.spill").exists());
        assert!(dir.join("unrelated.txt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn adopt_reindexes_valid_frames_and_rejects_damaged_ones() {
        let dir = test_dir("adopt");
        let p = partition(48);
        // First incarnation: three frames on disk, manifest captured.
        let manifest = {
            let mgr = SpillManager::create(&dir, u64::MAX).unwrap();
            mgr.store("t", 0, &p, 2).unwrap();
            mgr.store("t", 1, &p, 2).unwrap();
            mgr.store("t", 2, &p, 2).unwrap();
            mgr.manifest_entries()
        };
        assert_eq!(manifest.len(), 3);
        // Damage frame 1 on disk after the manifest was written.
        let f1 = manifest.iter().find(|e| e.partition == 1).unwrap();
        let path1 = dir.join(&f1.file);
        let mut bytes = fs::read(&path1).unwrap();
        bytes[SPILL_HEADER_BYTES] ^= 0xff; // payload flip — size unchanged
        fs::write(&path1, &bytes).unwrap();

        // Second incarnation adopts from the manifest.
        let mgr = SpillManager::create(&dir, u64::MAX).unwrap();
        let (adopted, rejected) = mgr.adopt(&manifest);
        // The header probe is header-only, so the payload flip sails
        // through adoption…
        assert_eq!((adopted, rejected), (3, 0));
        assert_eq!(mgr.sweep_orphans(), 0);
        assert_eq!(mgr.spilled_partition_count(), 3);
        // …and is caught by the full checksum at fetch time: poisoned, not
        // served.
        assert!(mgr.fetch("t", 1, 2).is_none());
        assert_eq!(mgr.metrics.spill_poisoned_files.get(), 1);
        // Healthy adopted frames serve byte-identical rows.
        let (fetched, _) = mgr.fetch("t", 0, 2).unwrap();
        assert_eq!(fetched.to_rows(), p.to_rows());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn adopt_rejects_missing_truncated_and_version_mismatched_frames() {
        let dir = test_dir("adopt-reject");
        let p = partition(48);
        let manifest = {
            let mgr = SpillManager::create(&dir, u64::MAX).unwrap();
            mgr.store("t", 0, &p, 2).unwrap();
            mgr.store("t", 1, &p, 2).unwrap();
            mgr.store("t", 2, &p, 2).unwrap();
            mgr.manifest_entries()
        };
        // Frame 0: deleted. Frame 1: truncated. Frame 2: manifest expects a
        // different table version than the header carries.
        let by_partition = |n: u64| manifest.iter().find(|e| e.partition == n).unwrap();
        fs::remove_file(dir.join(&by_partition(0).file)).unwrap();
        let path1 = dir.join(&by_partition(1).file);
        let bytes = fs::read(&path1).unwrap();
        fs::write(&path1, &bytes[..bytes.len() - 4]).unwrap();
        let mut tampered = manifest.clone();
        tampered
            .iter_mut()
            .find(|e| e.partition == 2)
            .unwrap()
            .table_version = 9;

        let mgr = SpillManager::create(&dir, u64::MAX).unwrap();
        let (adopted, rejected) = mgr.adopt(&tampered);
        assert_eq!((adopted, rejected), (0, 3));
        assert_eq!(mgr.spilled_partition_count(), 0);
        assert_eq!(mgr.disk_bytes(), 0);
        // Rejected frames were deleted on the spot.
        assert!(!dir.join(&by_partition(1).file).exists());
        assert!(!dir.join(&by_partition(2).file).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_table_clears_only_that_table() {
        let dir = test_dir("remove");
        let mgr = SpillManager::create(&dir, u64::MAX).unwrap();
        let p = partition(32);
        mgr.store("a", 0, &p, 1).unwrap();
        mgr.store("a", 1, &p, 1).unwrap();
        mgr.store("b", 0, &p, 1).unwrap();
        mgr.remove_table("a");
        assert!(!mgr.is_spilled("a", 0));
        assert!(!mgr.is_spilled("a", 1));
        assert!(mgr.is_spilled("b", 0));
        assert_eq!(mgr.spilled_partition_count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
