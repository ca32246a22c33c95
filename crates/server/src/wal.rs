//! Durable catalog: write-ahead log, catalog snapshots and the spill
//! manifest.
//!
//! A `SharkServer` configured with a spill directory keeps three durability
//! files next to its spill frames (the normative byte-level spec for all of
//! them lives in `docs/ondisk-formats.md` at the repository root — keep the
//! two in sync, and bump the per-file format version on any incompatible
//! change):
//!
//! * `catalog.wal` — an append-only log of committed catalog mutations
//!   (CTAS/register, `DROP TABLE`) and spill-tier movements (demotions,
//!   promotions), each keyed by the catalog epoch it happened at. Records
//!   are length-prefixed and FNV-checksummed individually, and appended in
//!   fsync'd batches at query boundaries: one `fsync` covers every record a
//!   query committed, not one per record.
//! * `catalog.snapshot` — a periodically rewritten image of the full table
//!   map at one epoch, bounding how much WAL a restart must replay. Written
//!   atomically (temp file + rename), so a crash mid-snapshot leaves the
//!   previous snapshot intact.
//! * `spill.manifest` — the map of spill frames expected on disk (table,
//!   partition, table version, file name, size, frame checksum). Restore
//!   uses it to *re-adopt* frames instead of orphan-sweeping them; an entry
//!   that disagrees with the file it describes poisons that frame down to
//!   lineage recompute, never a query error.
//!
//! Replay ([`replay_wal`]) is tolerant of exactly one kind of damage: a
//! torn tail. A crash mid-append leaves a prefix of whole, checksummed
//! records followed by garbage; replay stops at the first record that fails
//! validation and reports the valid byte count so the writer can truncate
//! the tail and append from there. Damage *before* the tail (a bit flip in
//! an early record) also truncates at that point — everything after it is
//! unreachable, and the affected tables simply come back cold via their
//! base generators.
//!
//! What durability does **not** cover: row generators. A [`RowGenerator`]
//! is an arbitrary closure and cannot be serialized; the WAL and snapshot
//! persist table *metadata* only (name, schema, partitioning, version).
//! `SharkServer::restore_with` re-attaches generators through a resolver
//! callback — tables it declines get a placeholder generator that panics on
//! first use, which is fine for demoted tables served entirely from
//! re-adopted spill frames and loud for anything that actually needs
//! lineage.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use shark_common::codec::{self, CodecError, Reader, Writer, DISK_TYPE_TAGS};
use shark_common::hash::fnv1a;
use shark_common::{DataType, Field, Result, Schema, SharkError};
use shark_sql::{DdlRecord, RowGenerator, TableMeta};

/// Magic bytes opening the WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"SHRKWAL1";
/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Magic bytes opening a catalog snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SHRKSNP1";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Magic bytes opening a spill manifest file.
pub const MANIFEST_MAGIC: [u8; 8] = *b"SHRKMAN1";
/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// WAL file name within the durability (spill) directory.
pub const WAL_FILE: &str = "catalog.wal";
/// Snapshot file name within the durability (spill) directory.
pub const SNAPSHOT_FILE: &str = "catalog.snapshot";
/// Manifest file name within the durability (spill) directory.
pub const MANIFEST_FILE: &str = "spill.manifest";

/// Size of the WAL file header (magic + format version).
const WAL_HEADER_BYTES: usize = 8 + 4;
/// Snapshot/manifest header: magic + version + length (u64) + checksum.
const ENVELOPE_HEADER_BYTES: usize = 8 + 4 + 8 + 8;

/// Every durability file prefixes strings and element counts with a `u32`.
type BodyWriter<'a> = Writer<'a, u32>;
type BodyReader<'a> = Reader<'a, u32>;

fn io_err(what: &str, path: &Path, e: std::io::Error) -> SharkError {
    SharkError::Execution(format!("{what} {}: {e}", path.display()))
}

fn format_err(what: &str, detail: impl std::fmt::Display) -> SharkError {
    SharkError::Execution(format!("{what}: {detail}"))
}

/// Cached unified-registry handles for WAL-write metrics.
struct WalMetrics {
    records: Arc<shark_obs::Counter>,
    batches: Arc<shark_obs::Counter>,
    bytes_written: Arc<shark_obs::Counter>,
    torn_tail_bytes: Arc<shark_obs::Counter>,
    fsync_seconds: Arc<shark_obs::Histogram>,
}

fn wal_metrics() -> &'static WalMetrics {
    static METRICS: std::sync::OnceLock<WalMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = shark_obs::metrics();
        WalMetrics {
            records: reg.counter(
                "shark_wal_records_total",
                "Records appended to the catalog write-ahead log",
            ),
            batches: reg.counter(
                "shark_wal_batches_total",
                "Fsync'd record batches committed to the write-ahead log",
            ),
            bytes_written: reg.counter(
                "shark_wal_bytes_written_total",
                "Bytes appended to the write-ahead log",
            ),
            torn_tail_bytes: reg.counter(
                "shark_wal_torn_tail_bytes_total",
                "Bytes truncated from torn or corrupt WAL tails on replay",
            ),
            fsync_seconds: reg.histogram(
                "shark_wal_fsync_seconds",
                "Latency of the fsync concluding one WAL batch commit",
                shark_obs::IO_BUCKETS,
            ),
        }
    })
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Serializable metadata of one table version — everything a restore needs
/// to re-register it except the row generator (closures do not serialize;
/// see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct TableRecord {
    /// Lower-cased table name.
    pub name: String,
    /// Schema as `(column name, data type)` pairs.
    pub fields: Vec<(String, DataType)>,
    /// Partition count.
    pub num_partitions: u64,
    /// [`TableMeta::version`] — the epoch the version was installed at.
    pub version: u64,
    /// Whether the table had a memstore attached.
    pub cached: bool,
    /// Column index of `DISTRIBUTE BY`, if declared.
    pub distribute_by: Option<u64>,
    /// Co-partitioned peer table, if declared.
    pub copartitioned_with: Option<String>,
    /// Optimizer row-count hint, if provided.
    pub row_count_hint: Option<u64>,
}

impl TableRecord {
    /// Capture the serializable metadata of a live table version.
    pub fn from_meta(meta: &TableMeta) -> TableRecord {
        TableRecord {
            name: meta.name.clone(),
            fields: meta
                .schema
                .fields()
                .iter()
                .map(|f| (f.name.to_string(), f.data_type))
                .collect(),
            num_partitions: meta.num_partitions as u64,
            version: meta.version(),
            cached: meta.is_cached(),
            distribute_by: meta.distribute_by.map(|i| i as u64),
            copartitioned_with: meta.copartitioned_with.clone(),
            row_count_hint: meta.row_count_hint,
        }
    }

    /// Rebuild a [`TableMeta`] from recorded metadata, attaching the given
    /// generator (the caller resolves it, or supplies a loud placeholder)
    /// and distributing cached partitions over `num_nodes`.
    pub fn into_meta(&self, generator: RowGenerator, num_nodes: usize) -> TableMeta {
        let schema = Schema::new(
            self.fields
                .iter()
                .map(|(name, dt)| Field::new(name, *dt))
                .collect(),
        );
        let gen = generator;
        let mut meta = TableMeta::new(&self.name, schema, self.num_partitions as usize, move |p| {
            gen(p)
        })
        .with_version(self.version);
        if self.cached {
            meta = meta.with_cache(num_nodes);
        }
        meta.distribute_by = self.distribute_by.map(|i| i as usize);
        meta.copartitioned_with = self.copartitioned_with.clone();
        meta.row_count_hint = self.row_count_hint;
        meta
    }
}

/// One durable record in the catalog WAL. Every variant carries the catalog
/// epoch it was committed at, so replay can reconstruct the exact epoch
/// sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table version was registered (CTAS, `register_table`, or a
    /// same-name replacement) at this epoch.
    Created {
        /// Epoch the registration bumped the catalog to.
        epoch: u64,
        /// The installed version's metadata.
        table: TableRecord,
    },
    /// A table was dropped at this epoch.
    Dropped {
        /// Epoch the drop bumped the catalog to.
        epoch: u64,
        /// Lower-cased table name.
        name: String,
    },
    /// A partition was demoted to the spill tier.
    Demoted {
        /// Catalog epoch at the time of the demotion.
        epoch: u64,
        /// Owning table (lower-cased).
        table: String,
        /// [`TableMeta::version`] of the owning table version.
        table_version: u64,
        /// Partition index.
        partition: u64,
        /// On-disk frame size in bytes.
        bytes: u64,
        /// The frame's header checksum.
        checksum: u64,
    },
    /// A demoted partition was promoted back into memory (its frame is
    /// gone — promotion is a move).
    Promoted {
        /// Catalog epoch at the time of the promotion.
        epoch: u64,
        /// Owning table (lower-cased).
        table: String,
        /// [`TableMeta::version`] of the owning table version.
        table_version: u64,
        /// Partition index.
        partition: u64,
    },
}

impl WalRecord {
    /// Translate one drained catalog-journal record into its WAL form.
    pub fn from_ddl(record: &DdlRecord) -> WalRecord {
        match record {
            DdlRecord::Created { epoch, table } => WalRecord::Created {
                epoch: *epoch,
                table: TableRecord::from_meta(table),
            },
            DdlRecord::Dropped { epoch, name } => WalRecord::Dropped {
                epoch: *epoch,
                name: name.clone(),
            },
        }
    }

    /// The epoch this record was committed at.
    pub fn epoch(&self) -> u64 {
        match self {
            WalRecord::Created { epoch, .. }
            | WalRecord::Dropped { epoch, .. }
            | WalRecord::Demoted { epoch, .. }
            | WalRecord::Promoted { epoch, .. } => *epoch,
        }
    }
}

// ---------------------------------------------------------------------------
// Record bodies (a `TableRecord` is shared with the snapshot)
// ---------------------------------------------------------------------------

/// A `TableRecord` is at least its two prefixes, two `u64`s and four flags.
const TABLE_MIN_BYTES: usize = 4 + 4 + 8 + 8 + 4;

fn put_table(w: &mut BodyWriter, t: &TableRecord) {
    w.str(&t.name);
    w.list(&t.fields, |w, (name, dt)| {
        w.str(name);
        w.data_type(&DISK_TYPE_TAGS, *dt);
    });
    w.u64(t.num_partitions);
    w.u64(t.version);
    w.bool(t.cached);
    w.opt(t.distribute_by, BodyWriter::u64);
    w.opt(t.copartitioned_with.as_deref(), BodyWriter::str);
    w.opt(t.row_count_hint, BodyWriter::u64);
}

fn read_table(r: &mut BodyReader) -> codec::Result<TableRecord> {
    Ok(TableRecord {
        name: r.str()?.to_owned(),
        fields: r.list(4 + 1, |r| {
            Ok((r.str()?.to_owned(), r.data_type(&DISK_TYPE_TAGS)?))
        })?,
        num_partitions: r.u64()?,
        version: r.u64()?,
        cached: r.bool()?,
        distribute_by: r.opt(BodyReader::u64)?,
        copartitioned_with: r.opt(|r| r.str().map(str::to_owned))?,
        row_count_hint: r.opt(BodyReader::u64)?,
    })
}

const KIND_CREATED: u8 = 1;
const KIND_DROPPED: u8 = 2;
const KIND_DEMOTED: u8 = 3;
const KIND_PROMOTED: u8 = 4;

fn put_record(w: &mut BodyWriter, record: &WalRecord) {
    match record {
        WalRecord::Created { epoch, table } => {
            w.u8(KIND_CREATED);
            w.u64(*epoch);
            put_table(w, table);
        }
        WalRecord::Dropped { epoch, name } => {
            w.u8(KIND_DROPPED);
            w.u64(*epoch);
            w.str(name);
        }
        WalRecord::Demoted {
            epoch,
            table,
            table_version,
            partition,
            bytes,
            checksum,
        } => {
            w.u8(KIND_DEMOTED);
            w.u64(*epoch);
            w.str(table);
            w.u64(*table_version);
            w.u64(*partition);
            w.u64(*bytes);
            w.u64(*checksum);
        }
        WalRecord::Promoted {
            epoch,
            table,
            table_version,
            partition,
        } => {
            w.u8(KIND_PROMOTED);
            w.u64(*epoch);
            w.str(table);
            w.u64(*table_version);
            w.u64(*partition);
        }
    }
}

fn decode_record(body: &[u8]) -> codec::Result<WalRecord> {
    let mut r = BodyReader::new(body);
    let record = match r.u8()? {
        KIND_CREATED => WalRecord::Created {
            epoch: r.u64()?,
            table: read_table(&mut r)?,
        },
        KIND_DROPPED => WalRecord::Dropped {
            epoch: r.u64()?,
            name: r.str()?.to_owned(),
        },
        KIND_DEMOTED => WalRecord::Demoted {
            epoch: r.u64()?,
            table: r.str()?.to_owned(),
            table_version: r.u64()?,
            partition: r.u64()?,
            bytes: r.u64()?,
            checksum: r.u64()?,
        },
        KIND_PROMOTED => WalRecord::Promoted {
            epoch: r.u64()?,
            table: r.str()?.to_owned(),
            table_version: r.u64()?,
            partition: r.u64()?,
        },
        other => return Err(CodecError::new(format!("unknown record kind {other}"))),
    };
    r.finish()?;
    Ok(record)
}

/// The next framed record: `u32` body length, FNV-1a 64 of the body, body.
fn next_record(r: &mut BodyReader) -> codec::Result<WalRecord> {
    let len = r.u32()? as usize;
    let checksum = r.u64()?;
    let body = r.take(len)?;
    if fnv1a(body) != checksum {
        return Err(CodecError::new("checksum mismatch"));
    }
    decode_record(body)
}

// ---------------------------------------------------------------------------
// WAL writer + replay
// ---------------------------------------------------------------------------

/// Append-only writer over the catalog WAL. Batches are durable: every
/// [`WalWriter::append_batch`] concludes with one fsync covering all of its
/// records.
pub struct WalWriter {
    file: fs::File,
    path: PathBuf,
    records: u64,
}

impl WalWriter {
    /// Create (or truncate) a fresh WAL holding only the file header,
    /// fsync'd before returning.
    pub fn create(path: impl Into<PathBuf>) -> Result<WalWriter> {
        let path = path.into();
        let mut file = fs::File::create(&path).map_err(|e| io_err("wal create", &path, e))?;
        let mut header = Vec::with_capacity(WAL_HEADER_BYTES);
        BodyWriter::new(&mut header).magic(&WAL_MAGIC, WAL_VERSION);
        file.write_all(&header)
            .and_then(|_| file.sync_data())
            .map_err(|e| io_err("wal header", &path, e))?;
        Ok(WalWriter {
            file,
            path,
            records: 0,
        })
    }

    /// Append a batch of records and fsync once. An empty batch is a no-op
    /// (no write, no fsync).
    pub fn append_batch(&mut self, records: &[WalRecord]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        let mut body = Vec::new();
        for record in records {
            body.clear();
            put_record(&mut BodyWriter::new(&mut body), record);
            let mut w = BodyWriter::new(&mut buf);
            w.u32(body.len() as u32);
            w.u64(fnv1a(&body));
            w.bytes(&body);
        }
        self.file
            .write_all(&buf)
            .map_err(|e| io_err("wal append", &self.path, e))?;
        let fsync_started = Instant::now();
        self.file
            .sync_data()
            .map_err(|e| io_err("wal fsync", &self.path, e))?;
        let m = wal_metrics();
        m.fsync_seconds
            .observe(fsync_started.elapsed().as_secs_f64());
        m.records.add(records.len() as u64);
        m.batches.inc();
        m.bytes_written.add(buf.len() as u64);
        self.records += records.len() as u64;
        if shark_obs::active() {
            shark_obs::event(
                "wal-commit",
                &[
                    ("records", &records.len().to_string()),
                    ("bytes", &buf.len().to_string()),
                ],
            );
        }
        Ok(())
    }

    /// Records appended so far (including those replayed before reopening).
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The outcome of replaying a WAL file: every validated record in order,
/// the byte length of the validated prefix, and whether a torn or corrupt
/// tail was cut off.
#[derive(Debug)]
pub struct WalReplay {
    /// Validated records, oldest first.
    pub records: Vec<WalRecord>,
    /// Length of the validated prefix; bytes past this are garbage.
    pub valid_bytes: u64,
    /// Whether bytes past the validated prefix existed (torn tail, corrupt
    /// record, or a foreign/corrupt header).
    pub torn: bool,
}

/// Replay a WAL file, validating record by record and stopping at the
/// first sign of damage (see the module docs for the torn-tail contract).
/// A missing file yields an empty, untorn replay; an unreadable or
/// foreign-header file yields an empty, *torn* replay — either way the
/// caller proceeds with what was validated and truncates the rest.
pub fn replay_wal(path: &Path) -> WalReplay {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return WalReplay {
                records: Vec::new(),
                valid_bytes: 0,
                torn: false,
            }
        }
        Err(_) => {
            return WalReplay {
                records: Vec::new(),
                valid_bytes: 0,
                torn: true,
            }
        }
    };
    if BodyReader::new(&bytes)
        .magic(&WAL_MAGIC, WAL_VERSION)
        .is_err()
    {
        wal_metrics().torn_tail_bytes.add(bytes.len() as u64);
        return WalReplay {
            records: Vec::new(),
            valid_bytes: 0,
            torn: true,
        };
    }
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_BYTES;
    while pos < bytes.len() {
        let mut r = BodyReader::new(&bytes[pos..]);
        match next_record(&mut r) {
            Ok(record) => records.push(record),
            Err(_) => break,
        }
        pos += r.position();
    }
    let torn = pos < bytes.len();
    if torn {
        wal_metrics()
            .torn_tail_bytes
            .add((bytes.len() - pos) as u64);
    }
    WalReplay {
        records,
        valid_bytes: pos as u64,
        torn,
    }
}

// ---------------------------------------------------------------------------
// Snapshot + manifest files
// ---------------------------------------------------------------------------

/// A catalog snapshot: the full table map at one epoch. Restore loads it,
/// then replays the WAL records committed after it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotFile {
    /// The catalog epoch the snapshot was taken at.
    pub epoch: u64,
    /// Every table in the map, with its metadata.
    pub tables: Vec<TableRecord>,
}

/// One spill frame the manifest expects on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Owning table (lower-cased).
    pub table: String,
    /// Partition index.
    pub partition: u64,
    /// [`TableMeta::version`] the frame was written under.
    pub table_version: u64,
    /// Frame file name within the spill directory.
    pub file: String,
    /// Expected total file size in bytes.
    pub file_bytes: u64,
    /// Expected frame-header checksum.
    pub checksum: u64,
}

/// The spill manifest: the set of frames a restore may re-adopt.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpillManifest {
    /// One entry per expected frame.
    pub entries: Vec<ManifestEntry>,
}

/// Write a length-prefixed, checksummed envelope atomically: temp file in
/// the same directory, fsync, rename into place.
fn write_envelope(path: &Path, magic: &[u8; 8], version: u32, payload: &[u8]) -> Result<()> {
    let mut bytes = Vec::with_capacity(ENVELOPE_HEADER_BYTES + payload.len());
    let mut w = BodyWriter::new(&mut bytes);
    w.magic(magic, version);
    w.u64(payload.len() as u64);
    w.u64(fnv1a(payload));
    w.bytes(payload);
    let tmp = path.with_extension("tmp-write");
    let mut file = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    file.write_all(&bytes)
        .and_then(|_| file.sync_data())
        .map_err(|e| io_err("write", &tmp, e))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| io_err("rename", path, e))
}

/// Read an envelope written by [`write_envelope`] and decode its validated
/// payload with `body`, which must consume every byte.
fn read_envelope<T>(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
    what: &str,
    body: impl FnOnce(&mut BodyReader) -> codec::Result<T>,
) -> Result<T> {
    let bytes = fs::read(path).map_err(|e| io_err(what, path, e))?;
    let decode = || {
        let mut r = BodyReader::new(&bytes);
        r.magic(magic, version)?;
        let length = r.u64()?;
        let checksum = r.u64()?;
        let payload = r.take(r.remaining())?;
        if payload.len() as u64 != length {
            return Err(CodecError::new(format!(
                "payload length mismatch (header says {length}, file has {})",
                payload.len()
            )));
        }
        if fnv1a(payload) != checksum {
            return Err(CodecError::new("checksum mismatch"));
        }
        let mut r = BodyReader::new(payload);
        let value = body(&mut r)?;
        r.finish()?;
        Ok(value)
    };
    decode().map_err(|e| format_err(what, e))
}

/// A manifest entry is at least its two prefixes and four `u64`s.
const MANIFEST_ENTRY_MIN_BYTES: usize = 4 + 4 + 4 * 8;

/// Atomically write a catalog snapshot.
pub fn write_snapshot(path: &Path, snapshot: &SnapshotFile) -> Result<()> {
    let mut payload = Vec::new();
    let mut w = BodyWriter::new(&mut payload);
    w.u64(snapshot.epoch);
    w.list(&snapshot.tables, put_table);
    write_envelope(path, &SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &payload)
}

/// Read and validate a catalog snapshot. Any structural violation is an
/// error; restore treats it as "no snapshot" and replays the WAL from the
/// beginning.
pub fn read_snapshot(path: &Path) -> Result<SnapshotFile> {
    read_envelope(
        path,
        &SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        "catalog snapshot",
        |r| {
            Ok(SnapshotFile {
                epoch: r.u64()?,
                tables: r.list(TABLE_MIN_BYTES, read_table)?,
            })
        },
    )
}

/// Atomically write the spill manifest.
pub fn write_manifest(path: &Path, manifest: &SpillManifest) -> Result<()> {
    let mut payload = Vec::new();
    BodyWriter::new(&mut payload).list(&manifest.entries, |w, e| {
        w.str(&e.table);
        w.u64(e.partition);
        w.u64(e.table_version);
        w.str(&e.file);
        w.u64(e.file_bytes);
        w.u64(e.checksum);
    });
    write_envelope(path, &MANIFEST_MAGIC, MANIFEST_VERSION, &payload)
}

/// Read and validate the spill manifest. Any structural violation is an
/// error; restore treats it as "no manifest" and falls back to the WAL's
/// demotion records (and, failing those, lineage).
pub fn read_manifest(path: &Path) -> Result<SpillManifest> {
    read_envelope(
        path,
        &MANIFEST_MAGIC,
        MANIFEST_VERSION,
        "spill manifest",
        |r| {
            let entries = r.list(MANIFEST_ENTRY_MIN_BYTES, |r| {
                Ok(ManifestEntry {
                    table: r.str()?.to_owned(),
                    partition: r.u64()?,
                    table_version: r.u64()?,
                    file: r.str()?.to_owned(),
                    file_bytes: r.u64()?,
                    checksum: r.u64()?,
                })
            })?;
            Ok(SpillManifest { entries })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir =
            std::env::temp_dir().join(format!("shark-wal-{tag}-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_table(name: &str, version: u64) -> TableRecord {
        TableRecord {
            name: name.to_string(),
            fields: vec![
                ("k".to_string(), DataType::Int),
                ("grp".to_string(), DataType::Str),
                ("amount".to_string(), DataType::Float),
            ],
            num_partitions: 6,
            version,
            cached: true,
            distribute_by: Some(0),
            copartitioned_with: Some("peer".to_string()),
            row_count_hint: Some(480),
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Created {
                epoch: 1,
                table: sample_table("mixed", 1),
            },
            WalRecord::Demoted {
                epoch: 1,
                table: "mixed".to_string(),
                table_version: 1,
                partition: 3,
                bytes: 4096,
                checksum: 0xdead_beef,
            },
            WalRecord::Promoted {
                epoch: 1,
                table: "mixed".to_string(),
                table_version: 1,
                partition: 3,
            },
            WalRecord::Dropped {
                epoch: 2,
                name: "mixed".to_string(),
            },
        ]
    }

    #[test]
    fn wal_batch_roundtrip() {
        let dir = test_dir("roundtrip");
        let path = dir.join(WAL_FILE);
        let mut wal = WalWriter::create(&path).unwrap();
        let records = sample_records();
        wal.append_batch(&records[..2]).unwrap();
        wal.append_batch(&records[2..]).unwrap();
        wal.append_batch(&[]).unwrap();
        assert_eq!(wal.record_count(), 4);
        drop(wal);

        let replay = replay_wal(&path);
        assert!(!replay.torn);
        assert_eq!(replay.records, records);
        assert_eq!(
            replay.valid_bytes,
            fs::metadata(&path).unwrap().len(),
            "clean replay validates the whole file"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_wal_is_an_empty_untorn_replay() {
        let dir = test_dir("missing");
        let replay = replay_wal(&dir.join(WAL_FILE));
        assert!(!replay.torn);
        assert!(replay.records.is_empty());
        assert_eq!(replay.valid_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_to_last_good_record() {
        let dir = test_dir("torn");
        let path = dir.join(WAL_FILE);
        let mut wal = WalWriter::create(&path).unwrap();
        let records = sample_records();
        wal.append_batch(&records).unwrap();
        drop(wal);
        let full = fs::read(&path).unwrap();

        // Cut the file at every byte of the last record: replay must
        // always recover the first three records exactly.
        let clean = replay_wal(&path);
        let third_end = {
            // Re-derive the offset of the fourth record by replaying a
            // 3-record file.
            let mut wal = WalWriter::create(&path).unwrap();
            wal.append_batch(&records[..3]).unwrap();
            drop(wal);
            fs::metadata(&path).unwrap().len() as usize
        };
        for cut in [third_end + 1, third_end + 5, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            let replay = replay_wal(&path);
            assert!(replay.torn, "cut at {cut}");
            assert_eq!(replay.records, records[..3], "cut at {cut}");
            assert_eq!(replay.valid_bytes, third_end as u64, "cut at {cut}");
        }
        assert_eq!(clean.records.len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_truncates_the_rest() {
        let dir = test_dir("corrupt");
        let path = dir.join(WAL_FILE);
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append_batch(&sample_records()).unwrap();
        drop(wal);
        // Flip a byte in the first record's body: everything from that
        // record on is unreachable.
        let mut bytes = fs::read(&path).unwrap();
        // Past the first record's length (u32) and checksum (u64).
        let flip = WAL_HEADER_BYTES + 4 + 8 + 2;
        bytes[flip] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let replay = replay_wal(&path);
        assert!(replay.torn);
        assert!(replay.records.is_empty());
        assert_eq!(replay.valid_bytes, WAL_HEADER_BYTES as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_header_is_fully_torn() {
        let dir = test_dir("foreign");
        let path = dir.join(WAL_FILE);
        fs::write(&path, b"not a wal at all").unwrap();
        let replay = replay_wal(&path);
        assert!(replay.torn);
        assert_eq!(replay.valid_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_roundtrip_and_corruption_detection() {
        let dir = test_dir("snapshot");
        let path = dir.join(SNAPSHOT_FILE);
        let snapshot = SnapshotFile {
            epoch: 12,
            tables: vec![sample_table("a", 3), sample_table("b", 12)],
        };
        write_snapshot(&path, &snapshot).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), snapshot);
        // No stray temp file remains after the atomic write.
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            1,
            "only the snapshot itself"
        );
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_roundtrip_and_corruption_detection() {
        let dir = test_dir("manifest");
        let path = dir.join(MANIFEST_FILE);
        let manifest = SpillManifest {
            entries: vec![ManifestEntry {
                table: "mixed".to_string(),
                partition: 4,
                table_version: 2,
                file: "mixed-0123456789abcdef_4.spill".to_string(),
                file_bytes: 8192,
                checksum: 77,
            }],
        };
        write_manifest(&path, &manifest).unwrap();
        assert_eq!(read_manifest(&path).unwrap(), manifest);
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        fs::write(&path, &bytes).unwrap();
        assert!(read_manifest(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_record_meta_roundtrip() {
        let record = sample_table("orders", 5);
        let meta = record.into_meta(Arc::new(|_| Vec::new()), 4);
        assert_eq!(meta.name, "orders");
        assert_eq!(meta.num_partitions, 6);
        assert_eq!(meta.version(), 5);
        assert!(meta.is_cached());
        assert_eq!(meta.distribute_by, Some(0));
        assert_eq!(meta.copartitioned_with.as_deref(), Some("peer"));
        assert_eq!(meta.row_count_hint, Some(480));
        assert_eq!(TableRecord::from_meta(&meta), record);
    }
}
