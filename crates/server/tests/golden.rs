//! Golden bytes for the server's durable and wire formats.
//!
//! Each file under `fixtures/` was written by the encoder and committed as
//! bytes:
//!
//! * `wal_v1.bin` — a `catalog.wal` holding one record of each kind
//!   (`Created`, `Demoted`, `Promoted`, `Dropped`);
//! * `snapshot_v1.bin` / `manifest_v1.bin` — a catalog snapshot and a spill
//!   manifest;
//! * `wire_v1.bin` — one SHRKNET frame of each of the 12 types, back to
//!   back, with a `ResultBatch` that carries every value tag.
//!
//! The tests assert encode == fixture and decode(fixture) == value. A
//! layout change must bump the format's version and add a new fixture;
//! it must never rewrite one of these files.

use std::fs;
use std::path::{Path, PathBuf};

use shark_common::{DataType, Field, Row, Schema, Value};
use shark_server::net::frame::{self, Frame, PROTOCOL_VERSION};
use shark_server::wal::{MANIFEST_VERSION, SNAPSHOT_VERSION, WAL_VERSION};
use shark_server::{
    read_manifest, read_snapshot, replay_wal, write_manifest, write_snapshot, ManifestEntry,
    SnapshotFile, SpillManifest, TableRecord, WalRecord, WalWriter,
};

const WAL: &[u8] = include_bytes!("fixtures/wal_v1.bin");
const SNAPSHOT: &[u8] = include_bytes!("fixtures/snapshot_v1.bin");
const MANIFEST: &[u8] = include_bytes!("fixtures/manifest_v1.bin");
const WIRE: &[u8] = include_bytes!("fixtures/wire_v1.bin");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shark-golden-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A table using every data type, every optional field set, and a
/// multi-byte UTF-8 column name (lengths count bytes, not characters).
fn full_table() -> TableRecord {
    TableRecord {
        name: "facts".to_string(),
        fields: vec![
            ("k".to_string(), DataType::Int),
            ("amount".to_string(), DataType::Float),
            ("größe".to_string(), DataType::Str),
            ("shipped".to_string(), DataType::Bool),
            ("day".to_string(), DataType::Date),
            ("nothing".to_string(), DataType::Null),
        ],
        num_partitions: 6,
        version: 3,
        cached: true,
        distribute_by: Some(1),
        copartitioned_with: Some("dims".to_string()),
        row_count_hint: Some(480),
    }
}

/// A table with every optional field absent.
fn bare_table() -> TableRecord {
    TableRecord {
        name: "dims".to_string(),
        fields: vec![("id".to_string(), DataType::Int)],
        num_partitions: 1,
        version: 9,
        cached: false,
        distribute_by: None,
        copartitioned_with: None,
        row_count_hint: None,
    }
}

fn wal_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Created {
            epoch: 3,
            table: full_table(),
        },
        WalRecord::Demoted {
            epoch: 3,
            table: "facts".to_string(),
            table_version: 3,
            partition: 4,
            bytes: 8192,
            checksum: 0x0123_4567_89ab_cdef,
        },
        WalRecord::Promoted {
            epoch: 4,
            table: "facts".to_string(),
            table_version: 3,
            partition: 4,
        },
        WalRecord::Dropped {
            epoch: 5,
            name: "facts".to_string(),
        },
    ]
}

fn snapshot() -> SnapshotFile {
    SnapshotFile {
        epoch: 12,
        tables: vec![full_table(), bare_table()],
    }
}

fn manifest() -> SpillManifest {
    SpillManifest {
        entries: vec![
            ManifestEntry {
                table: "facts".to_string(),
                partition: 0,
                table_version: 3,
                file: "facts-0123456789abcdef_0.spill".to_string(),
                file_bytes: 4546,
                checksum: 0xfeed_face_cafe_beef,
            },
            ManifestEntry {
                table: "facts".to_string(),
                partition: 5,
                table_version: 3,
                file: "facts-0123456789abcdef_5.spill".to_string(),
                file_bytes: 36,
                checksum: 1,
            },
        ],
    }
}

fn frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            token: "s3cret".to_string(),
            tenant: "dashboards".to_string(),
        },
        Frame::HelloOk {
            session_id: 42,
            version: PROTOCOL_VERSION,
        },
        Frame::Query {
            sql: "SELECT grp, COUNT(*) FROM t GROUP BY grp".to_string(),
        },
        Frame::Prepare {
            sql: "SELECT * FROM t WHERE k = 7".to_string(),
        },
        Frame::Prepared {
            statement_id: 7,
            fingerprint: 0xdead_beef_0bad_f00d,
        },
        Frame::Execute { statement_id: 7 },
        Frame::ResultSchema {
            schema: Schema::new(vec![
                Field::new("n", DataType::Null),
                Field::new("k", DataType::Int),
                Field::new("amount", DataType::Float),
                Field::new("größe", DataType::Str),
                Field::new("shipped", DataType::Bool),
                Field::new("day", DataType::Date),
            ]),
        },
        Frame::ResultBatch {
            rows: vec![
                Row::new(vec![
                    Value::Null,
                    Value::Int(-7),
                    Value::Float(2.5),
                    Value::str("naïve"),
                    Value::Bool(true),
                    Value::Date(-3),
                ]),
                Row::new(vec![]),
                Row::new(vec![
                    Value::Null,
                    Value::Int(i64::MAX),
                    Value::Float(-0.125),
                    Value::str(""),
                    Value::Bool(false),
                    Value::Date(19_000),
                ]),
            ],
        },
        Frame::QueryDone {
            rows: 2,
            partitions: 4,
            plan_cache_hit: true,
            sim_seconds: 0.25,
            cancelled: false,
        },
        Frame::Error {
            kind: "parse".to_string(),
            message: "unexpected token".to_string(),
        },
        Frame::Cancel,
        Frame::Close,
    ]
}

/// `Debug` tells `Int(1)` from `Float(1.0)`, which `Value`'s `==` does not.
fn same<T: std::fmt::Debug>(got: &T, want: &T) -> bool {
    format!("{got:?}") == format!("{want:?}")
}

fn write_file(dir: &Path, name: &str, bytes: &[u8]) -> PathBuf {
    let path = dir.join(name);
    fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn format_versions_are_pinned() {
    assert_eq!(WAL_VERSION, 1);
    assert_eq!(SNAPSHOT_VERSION, 1);
    assert_eq!(MANIFEST_VERSION, 1);
    assert_eq!(PROTOCOL_VERSION, 1);
}

#[test]
fn wal_writer_reproduces_the_fixture_and_replay_reads_it_back() {
    let dir = scratch_dir("wal");
    let path = dir.join("catalog.wal");
    let mut wal = WalWriter::create(&path).unwrap();
    wal.append_batch(&wal_records()).unwrap();
    drop(wal);
    assert_eq!(fs::read(&path).unwrap(), WAL);

    let path = write_file(&dir, "fixture.wal", WAL);
    let replay = replay_wal(&path);
    assert!(!replay.torn);
    assert_eq!(replay.valid_bytes, WAL.len() as u64);
    assert!(same(&replay.records, &wal_records()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_writer_reproduces_the_fixture_and_reader_reads_it_back() {
    let dir = scratch_dir("snapshot");
    let path = dir.join("catalog.snapshot");
    write_snapshot(&path, &snapshot()).unwrap();
    assert_eq!(fs::read(&path).unwrap(), SNAPSHOT);

    let path = write_file(&dir, "fixture.snapshot", SNAPSHOT);
    assert!(same(&read_snapshot(&path).unwrap(), &snapshot()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn manifest_writer_reproduces_the_fixture_and_reader_reads_it_back() {
    let dir = scratch_dir("manifest");
    let path = dir.join("spill.manifest");
    write_manifest(&path, &manifest()).unwrap();
    assert_eq!(fs::read(&path).unwrap(), MANIFEST);

    let path = write_file(&dir, "fixture.manifest", MANIFEST);
    assert_eq!(read_manifest(&path).unwrap(), manifest());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn both_frame_writers_reproduce_the_wire_fixture() {
    let frames = frames();
    let types: Vec<u8> = frames.iter().map(Frame::frame_type).collect();
    assert_eq!(types, (1..=12).collect::<Vec<u8>>());

    let mut written = Vec::new();
    for f in &frames {
        frame::write_frame(&mut written, f).unwrap();
    }
    assert_eq!(written, WIRE);

    let mut appended = Vec::new();
    for f in &frames {
        frame::append_frame(&mut appended, f);
    }
    assert_eq!(appended, WIRE);
}

#[test]
fn the_wire_fixture_reads_back_frame_by_frame() {
    let mut rest = WIRE;
    for want in frames() {
        let (got, bytes) = frame::read_frame(&mut rest).unwrap();
        assert!(same(&got, &want), "{got:?} != {want:?}");
        assert_eq!(
            bytes as usize,
            frame::HEADER_BYTES + want.encode_payload().len()
        );
    }
    assert!(rest.is_empty(), "{} bytes left over", rest.len());
}
