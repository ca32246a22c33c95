//! On-disk frame format for spilled (demoted) columnar partitions.
//!
//! Eviction under memory pressure demotes a partition to disk instead of
//! dropping it outright; a later scan faults it back in at I/O cost rather
//! than paying a full lineage recompute. The frame serializes the partition
//! *as encoded* — RLE runs, dictionary codes and bit-packed words go to disk
//! verbatim, so a spill file is roughly as small as the partition's in-memory
//! footprint and decode cost on fault-in is zero beyond the copy.
//!
//! Layout (all integers little-endian; the normative byte-level spec lives
//! in `docs/ondisk-formats.md` at the repository root — keep the two in
//! sync, and bump [`SPILL_VERSION`] on any incompatible change):
//!
//! ```text
//! magic          8  b"SHRKSPL1"
//! version        4  format version (currently 2)
//! table_version  8  catalog epoch of the owning table version
//! length         8  payload length in bytes
//! checksum       8  FNV-1a 64 over table_version (8 bytes LE) ++ payload
//! payload        …  schema, row count, encoded columns, partition stats
//! ```
//!
//! `table_version` ties a frame to the exact table *version* (the catalog
//! epoch at which the table was installed) that wrote it, so a frame left
//! behind by a dropped-and-recreated table of the same name can never be
//! served to the new incarnation: restore-time adoption and fault-in both
//! compare it against the live table's version and poison mismatches down
//! to lineage recompute. Folding it into the checksum means a bit-flipped
//! version field is indistinguishable from payload rot — both poison.
//!
//! The primitives, value tags and data-type tags are
//! [`shark_common::codec`]'s, with `u64` string and count prefixes; this
//! module owns only the header and the column encodings.
//!
//! Decoding is strictly validating: a bad magic, unknown version, length
//! mismatch, checksum mismatch, short read or trailing garbage all yield an
//! error, never a partially-reconstructed partition. Element counts are
//! bounded by the bytes left before anything is allocated; logical lengths
//! (row counts, run-length and bit-packed lengths, null-mask bit counts) are
//! checked against the structure they describe. Callers treat any decode
//! error as "spill file poisoned" and fall back to lineage recompute.

use std::sync::Arc;

use shark_common::codec::{self, CodecError, Reader, Writer, DISK_TYPE_TAGS};
use shark_common::hash::{fnv1a, fnv1a_from};
use shark_common::{Field, Result, Schema, SharkError};

use crate::column::{EncodedColumn, NullMask};
use crate::partition::ColumnarPartition;
use crate::stats::{ColumnStats, PartitionStats};

/// Magic bytes opening every spill frame.
pub const SPILL_MAGIC: [u8; 8] = *b"SHRKSPL1";

/// Current frame format version. Version 2 added the `table_version` header
/// field; version-1 frames are rejected (and poison down to lineage).
pub const SPILL_VERSION: u32 = 2;

/// Fixed header size: magic + version + table_version + length + checksum.
pub const SPILL_HEADER_BYTES: usize = 8 + 4 + 8 + 8 + 8;

/// Spill frames prefix strings and element counts with a `u64`.
type SpillWriter<'a> = Writer<'a, u64>;
type SpillReader<'a> = Reader<'a, u64>;

/// Frame checksum: FNV-1a 64 over the `table_version` field (as 8
/// little-endian bytes) followed by the payload, so header-field rot is
/// caught the same way payload rot is.
fn frame_checksum(table_version: u64, payload: &[u8]) -> u64 {
    fnv1a_from(fnv1a(&table_version.to_le_bytes()), payload)
}

fn corrupt(detail: impl std::fmt::Display) -> SharkError {
    SharkError::Execution(format!("spill frame: {detail}"))
}

/// Serialize a partition into a self-describing, checksummed spill frame.
///
/// `table_version` is the catalog epoch at which the owning table version
/// was installed; it is stored in the header and folded into the checksum,
/// and [`decode_partition`] hands it back so callers can reject frames
/// written by an earlier incarnation of a same-named table.
pub fn encode_partition(part: &ColumnarPartition, table_version: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    let mut w = SpillWriter::new(&mut payload);

    let schema = part.schema();
    w.u32(schema.len() as u32);
    for field in schema.fields() {
        w.str(&field.name);
        w.data_type(&DISK_TYPE_TAGS, field.data_type);
    }

    w.u64(part.num_rows() as u64);
    w.u32(part.num_columns() as u32);
    for c in 0..part.num_columns() {
        put_column(&mut w, part.column(c));
    }

    // Stats travel with the partition so map pruning works immediately after
    // fault-in without a decode pass.
    let stats = part.stats();
    w.u64(stats.num_rows);
    w.u32(stats.columns.len() as u32);
    for col in &stats.columns {
        w.opt(col.min.as_ref(), SpillWriter::value);
        w.opt(col.max.as_ref(), SpillWriter::value);
        w.opt(col.distinct.as_deref(), |w, values| {
            w.list(values, SpillWriter::value)
        });
        w.u64(col.null_count);
        w.u64(col.row_count);
    }

    let mut frame = Vec::with_capacity(SPILL_HEADER_BYTES + payload.len());
    let mut w = SpillWriter::new(&mut frame);
    w.magic(&SPILL_MAGIC, SPILL_VERSION);
    w.u64(table_version);
    w.u64(payload.len() as u64);
    w.u64(frame_checksum(table_version, &payload));
    w.bytes(&payload);
    frame
}

fn put_column(w: &mut SpillWriter, col: &EncodedColumn) {
    match col {
        EncodedColumn::IntPlain { values, nulls } => {
            w.u8(0);
            w.list(values, |w, &v| w.i64(v));
            put_nulls(w, nulls);
        }
        EncodedColumn::IntRle { runs, len, nulls } => {
            w.u8(1);
            w.u64(*len as u64);
            w.list(runs, |w, &(v, run)| {
                w.i64(v);
                w.u32(run);
            });
            put_nulls(w, nulls);
        }
        EncodedColumn::IntBitPacked {
            min,
            bits,
            len,
            words,
            nulls,
        } => {
            w.u8(2);
            w.i64(*min);
            w.u8(*bits);
            w.u64(*len as u64);
            w.list(words, |w, &word| w.u64(word));
            put_nulls(w, nulls);
        }
        EncodedColumn::FloatPlain { values, nulls } => {
            w.u8(3);
            w.list(values, |w, &v| w.f64(v));
            put_nulls(w, nulls);
        }
        EncodedColumn::BoolPacked { len, words, nulls } => {
            w.u8(4);
            w.u64(*len as u64);
            w.list(words, |w, &word| w.u64(word));
            put_nulls(w, nulls);
        }
        EncodedColumn::StrPlain { values, nulls } => {
            w.u8(5);
            w.list(values, |w, v| w.str(v));
            put_nulls(w, nulls);
        }
        EncodedColumn::StrDict { dict, codes, nulls } => {
            w.u8(6);
            w.list(dict, |w, v| w.str(v));
            w.list(codes, |w, &code| w.u32(code));
            put_nulls(w, nulls);
        }
        EncodedColumn::StrRle { runs, len, nulls } => {
            w.u8(7);
            w.u64(*len as u64);
            w.list(runs, |w, (v, run)| {
                w.str(v);
                w.u32(*run);
            });
            put_nulls(w, nulls);
        }
        EncodedColumn::AllNull { len } => {
            w.u8(8);
            w.u64(*len as u64);
        }
    }
}

/// A validity mask: `u64` bit count, then one bit per row packed
/// little-endian within each byte.
fn put_nulls(w: &mut SpillWriter, mask: &NullMask) {
    w.opt(mask.as_deref(), |w, valid| {
        w.u64(valid.len() as u64);
        for byte in valid.chunks(8) {
            w.u8(byte
                .iter()
                .enumerate()
                .fold(0, |acc, (bit, &v)| acc | u8::from(v) << bit));
        }
    });
}

/// The fixed-size header of a spill frame, as parsed by
/// [`read_frame_header`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillFrameHeader {
    /// Catalog epoch of the table version that wrote the frame.
    pub table_version: u64,
    /// Payload length the header claims, in bytes.
    pub payload_len: u64,
    /// FNV-1a 64 checksum recorded in the header (over `table_version` ++
    /// payload).
    pub checksum: u64,
}

/// Parse and validate just the fixed header of a spill frame: magic, format
/// version, and — when the full file length is known — that the claimed
/// payload length matches it.
///
/// This is the cheap probe restore-time adoption uses to vet a frame
/// without reading (or checksumming) its payload; full payload validation
/// stays in [`decode_partition`] and runs on fault-in. Pass the total file
/// size as `file_len` (callers holding only the header bytes pass `None`).
pub fn read_frame_header(bytes: &[u8], file_len: Option<u64>) -> Result<SpillFrameHeader> {
    let header = bytes
        .get(..SPILL_HEADER_BYTES)
        .ok_or_else(|| corrupt(format!("file shorter than header ({} bytes)", bytes.len())))?;
    let header = parse_header(&mut SpillReader::new(header)).map_err(corrupt)?;
    if let Some(total) = file_len {
        let expected = (SPILL_HEADER_BYTES as u64).saturating_add(header.payload_len);
        if total != expected {
            return Err(corrupt(format!(
                "payload length mismatch (header says {}, file has {})",
                header.payload_len,
                total.saturating_sub(SPILL_HEADER_BYTES as u64)
            )));
        }
    }
    Ok(header)
}

fn parse_header(r: &mut SpillReader) -> codec::Result<SpillFrameHeader> {
    r.magic(&SPILL_MAGIC, SPILL_VERSION)?;
    Ok(SpillFrameHeader {
        table_version: r.u64()?,
        payload_len: r.u64()?,
        checksum: r.u64()?,
    })
}

/// Validate and decode a spill frame back into a [`ColumnarPartition`],
/// returning it together with the `table_version` the frame was written
/// under.
///
/// Every structural violation — wrong magic, unknown version, length or
/// checksum mismatch, truncation, trailing bytes, a count larger than the
/// bytes left, a logical length that disagrees with the structure it
/// describes — is reported as an error so the caller can fall back to
/// lineage recompute.
pub fn decode_partition(bytes: &[u8]) -> Result<(ColumnarPartition, u64)> {
    let header = read_frame_header(bytes, Some(bytes.len() as u64))?;
    let payload = &bytes[SPILL_HEADER_BYTES..];
    if frame_checksum(header.table_version, payload) != header.checksum {
        return Err(corrupt("checksum mismatch"));
    }
    let part = decode_payload(&mut SpillReader::new(payload)).map_err(corrupt)?;
    Ok((part, header.table_version))
}

fn decode_payload(r: &mut SpillReader) -> codec::Result<ColumnarPartition> {
    // A field is at least a length prefix and a type tag.
    let num_fields = r.u32()?;
    let fields = r.items(r.bound(num_fields.into(), 8 + 1)?, |r| {
        Ok(Field::new(r.str()?, r.data_type(&DISK_TYPE_TAGS)?))
    })?;
    let schema = Schema::new(fields);

    let num_rows = logical_len(r)?;
    let num_columns = r.u32()? as usize;
    if num_columns != schema.len() {
        return Err(CodecError::new(format!(
            "column count {num_columns} disagrees with schema ({} fields)",
            schema.len()
        )));
    }
    let columns = r.items(num_columns, |r| {
        let col = read_column(r)?;
        if col.len() != num_rows {
            return Err(CodecError::new(format!(
                "column length {} disagrees with partition rows {num_rows}",
                col.len()
            )));
        }
        Ok(col)
    })?;

    let stats_rows = r.u64()?;
    let stats_cols = r.u32()? as usize;
    if stats_rows != num_rows as u64 || stats_cols != num_columns {
        return Err(CodecError::new(
            "stats row or column count disagrees with the partition",
        ));
    }
    let stat_columns = r.items(stats_cols, |r| {
        let stats = ColumnStats {
            min: r.opt(SpillReader::value)?,
            max: r.opt(SpillReader::value)?,
            distinct: r.opt(|r| r.list(1, SpillReader::value))?,
            null_count: r.u64()?,
            row_count: r.u64()?,
        };
        if stats.row_count != stats_rows {
            return Err(CodecError::new(format!(
                "column stats cover {} rows, partition has {stats_rows}",
                stats.row_count
            )));
        }
        Ok(stats)
    })?;
    r.finish()?;

    let stats = PartitionStats {
        columns: stat_columns,
        num_rows: stats_rows,
    };
    Ok(ColumnarPartition::from_parts(
        schema, num_rows, columns, stats,
    ))
}

/// A logical length: a row or bit count. It is not bounded by the bytes
/// left (a run-length column of 10k rows can take a few bytes); callers
/// check it against the structure it describes.
fn logical_len(r: &mut SpillReader) -> codec::Result<usize> {
    let n = r.u64()?;
    usize::try_from(n).map_err(|_| CodecError::new(format!("length {n} does not fit in memory")))
}

fn read_column(r: &mut SpillReader) -> codec::Result<EncodedColumn> {
    let shared = |r: &mut SpillReader| r.str().map(Arc::<str>::from);
    let col = match r.u8()? {
        0 => {
            let values = r.list(8, SpillReader::i64)?;
            let nulls = read_nulls(r, values.len())?;
            EncodedColumn::IntPlain { values, nulls }
        }
        1 => {
            let len = logical_len(r)?;
            let runs = r.list(8 + 4, |r| Ok((r.i64()?, r.u32()?)))?;
            check_runs(runs.iter().map(|&(_, run)| run), len)?;
            let nulls = read_nulls(r, len)?;
            EncodedColumn::IntRle { runs, len, nulls }
        }
        2 => {
            let min = r.i64()?;
            let bits = r.u8()?;
            let len = logical_len(r)?;
            let words = r.list(8, SpillReader::u64)?;
            check_packed(bits, len, words.len())?;
            let nulls = read_nulls(r, len)?;
            EncodedColumn::IntBitPacked {
                min,
                bits,
                len,
                words,
                nulls,
            }
        }
        3 => {
            let values = r.list(8, SpillReader::f64)?;
            let nulls = read_nulls(r, values.len())?;
            EncodedColumn::FloatPlain { values, nulls }
        }
        4 => {
            let len = logical_len(r)?;
            let words = r.list(8, SpillReader::u64)?;
            check_packed(1, len, words.len())?;
            let nulls = read_nulls(r, len)?;
            EncodedColumn::BoolPacked { len, words, nulls }
        }
        5 => {
            let values = r.list(8, shared)?;
            let nulls = read_nulls(r, values.len())?;
            EncodedColumn::StrPlain { values, nulls }
        }
        6 => {
            let dict = r.list(8, shared)?;
            let codes = r.list(4, |r| match r.u32()? {
                code if (code as usize) < dict.len() => Ok(code),
                code => Err(CodecError::new(format!(
                    "dictionary code {code} out of range ({} entries)",
                    dict.len()
                ))),
            })?;
            let nulls = read_nulls(r, codes.len())?;
            EncodedColumn::StrDict { dict, codes, nulls }
        }
        7 => {
            let len = logical_len(r)?;
            let runs = r.list(8 + 4, |r| Ok((shared(r)?, r.u32()?)))?;
            check_runs(runs.iter().map(|(_, run)| *run), len)?;
            let nulls = read_nulls(r, len)?;
            EncodedColumn::StrRle { runs, len, nulls }
        }
        8 => EncodedColumn::AllNull {
            len: logical_len(r)?,
        },
        other => return Err(CodecError::new(format!("unknown column tag {other}"))),
    };
    Ok(col)
}

/// A validity mask for a column of `rows` rows: its bit count must be
/// `rows`, and its bytes must be present before anything is allocated.
fn read_nulls(r: &mut SpillReader, rows: usize) -> codec::Result<NullMask> {
    r.opt(|r| {
        let bits = r.u64()?;
        if bits != rows as u64 {
            return Err(CodecError::new(format!(
                "null mask covers {bits} rows, column has {rows}"
            )));
        }
        let bytes = r.take(rows.div_ceil(8))?;
        Ok((0..rows)
            .map(|i| bytes[i / 8] >> (i % 8) & 1 == 1)
            .collect())
    })
}

/// Run lengths must add up to the column's length.
fn check_runs(runs: impl Iterator<Item = u32>, len: usize) -> codec::Result<()> {
    let covered: u64 = runs.map(u64::from).sum();
    if covered != len as u64 {
        return Err(CodecError::new(format!(
            "runs cover {covered} rows, column has {len}"
        )));
    }
    Ok(())
}

/// `len` values of `bits` bits each must fit in `words` 64-bit words.
fn check_packed(bits: u8, len: usize, words: usize) -> codec::Result<()> {
    if bits > 64 || len as u128 * u128::from(bits) > words as u128 * 64 {
        return Err(CodecError::new(format!(
            "{len} values of {bits} bits do not fit in {words} words"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingChoice;
    use shark_common::{row, DataType, Row, Value};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("shipmode", DataType::Str),
            ("price", DataType::Float),
            ("shipped", DataType::Bool),
            ("day", DataType::Date),
        ])
    }

    fn rows(n: usize) -> Vec<Row> {
        let modes = ["AIR", "SHIP", "TRUCK"];
        (0..n)
            .map(|i| {
                row![
                    i as i64,
                    modes[i % 3],
                    i as f64 * 1.5,
                    i % 2 == 0,
                    Value::Date(100 + (i / 10) as i32)
                ]
            })
            .collect()
    }

    #[test]
    fn frame_roundtrip_preserves_partition() {
        let part = ColumnarPartition::from_rows(&schema(), &rows(500));
        let frame = encode_partition(&part, 7);
        let (back, version) = decode_partition(&frame).unwrap();
        assert_eq!(back, part);
        assert_eq!(version, 7);
        assert_eq!(back.to_rows(), part.to_rows());
    }

    #[test]
    fn frame_roundtrip_every_encoding_choice() {
        for choice in [EncodingChoice::Auto, EncodingChoice::ForcePlain] {
            let part = ColumnarPartition::from_rows_with(&schema(), &rows(200), choice);
            let (back, _) = decode_partition(&encode_partition(&part, 1)).unwrap();
            assert_eq!(back, part, "{choice:?}");
        }
    }

    #[test]
    fn frame_roundtrip_run_heavy_strings() {
        // Long constant string runs select StrRle; plateaued ints select
        // IntRle — the two variants the mixed table doesn't exercise.
        let schema = Schema::from_pairs(&[("grp", DataType::Str), ("k", DataType::Int)]);
        let rows: Vec<Row> = (0..400)
            .map(|i| row![["hot", "cold"][(i / 100) % 2], (i / 50) as i64])
            .collect();
        let part = ColumnarPartition::from_rows(&schema, &rows);
        let (back, _) = decode_partition(&encode_partition(&part, 1)).unwrap();
        assert_eq!(back, part);
        assert_eq!(back.to_rows(), rows);
    }

    #[test]
    fn frame_roundtrip_nulls_and_empty() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Null)]);
        let rows = vec![
            row![1i64, Value::Null],
            row![Value::Null, Value::Null],
            row![3i64, Value::Null],
        ];
        let part = ColumnarPartition::from_rows(&schema, &rows);
        let (back, _) = decode_partition(&encode_partition(&part, 1)).unwrap();
        assert_eq!(back.to_rows(), rows);

        let empty = ColumnarPartition::from_rows(&schema, &[]);
        let (back, _) = decode_partition(&encode_partition(&empty, 1)).unwrap();
        assert_eq!(back.num_rows(), 0);
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let part = ColumnarPartition::from_rows(&schema(), &rows(64));
        let frame = encode_partition(&part, 1);
        // Any strict prefix must fail loudly, whatever byte it stops at.
        for cut in [
            0,
            7,
            SPILL_HEADER_BYTES - 1,
            SPILL_HEADER_BYTES + 1,
            frame.len() - 1,
        ] {
            assert!(
                decode_partition(&frame[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let part = ColumnarPartition::from_rows(&schema(), &rows(64));
        let frame = encode_partition(&part, 42);
        // Flip one bit in every region: magic, version, table_version,
        // length, checksum, and a spread of payload offsets.
        for pos in [
            0,
            9,
            15,
            21,
            29,
            SPILL_HEADER_BYTES + 3,
            frame.len() / 2,
            frame.len() - 1,
        ] {
            let mut bad = frame.clone();
            bad[pos] ^= 0x40;
            assert!(decode_partition(&bad).is_err(), "bit flip at {pos} decoded");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let part = ColumnarPartition::from_rows(&schema(), &rows(16));
        let mut frame = encode_partition(&part, 1);
        frame.extend_from_slice(b"junk");
        assert!(decode_partition(&frame).is_err());
    }

    #[test]
    fn stats_survive_roundtrip() {
        let part = ColumnarPartition::from_rows(&schema(), &rows(100));
        let (back, _) = decode_partition(&encode_partition(&part, 1)).unwrap();
        assert_eq!(back.stats(), part.stats());
        assert_eq!(back.stats().column(0).min, Some(Value::Int(0)));
        assert_eq!(back.stats().column(0).max, Some(Value::Int(99)));
    }

    #[test]
    fn header_probe_validates_without_payload_read() {
        let part = ColumnarPartition::from_rows(&schema(), &rows(32));
        let frame = encode_partition(&part, 9);
        let header = read_frame_header(&frame, Some(frame.len() as u64)).unwrap();
        assert_eq!(header.table_version, 9);
        assert_eq!(
            header.payload_len as usize,
            frame.len() - SPILL_HEADER_BYTES
        );
        // Probing just the header bytes (no file length) also works.
        let short = read_frame_header(&frame[..SPILL_HEADER_BYTES], None).unwrap();
        assert_eq!(short, header);
        // Wrong file length, bad magic, and bad format version all fail.
        assert!(read_frame_header(&frame, Some(frame.len() as u64 - 1)).is_err());
        let mut bad = frame.clone();
        bad[0] ^= 0xff;
        assert!(read_frame_header(&bad, None).is_err());
        let mut bad = frame.clone();
        bad[8] = 99;
        assert!(read_frame_header(&bad, None).is_err());
    }

    #[test]
    fn version_1_frames_are_rejected() {
        // A frame stamped with the retired format version must poison, not
        // decode: the v1 header had no table_version field, so its bytes
        // would be misinterpreted.
        let part = ColumnarPartition::from_rows(&schema(), &rows(8));
        let mut frame = encode_partition(&part, 1);
        frame[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = decode_partition(&frame).unwrap_err().to_string();
        assert!(err.contains("unsupported version"), "{err}");
    }

    /// A frame around `payload` with a valid header and checksum.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        let mut w = SpillWriter::new(&mut frame);
        w.magic(&SPILL_MAGIC, SPILL_VERSION);
        w.u64(1);
        w.u64(payload.len() as u64);
        w.u64(frame_checksum(1, payload));
        w.bytes(payload);
        frame
    }

    #[test]
    fn a_huge_field_count_is_an_error_not_an_allocation() {
        let frame = framed(&u32::MAX.to_le_bytes());
        assert_eq!(frame.len(), 40);
        let err = decode_partition(&frame).unwrap_err().to_string();
        assert!(err.contains("implausible element count"), "{err}");
    }

    #[test]
    fn logical_lengths_must_match_the_structure_they_describe() {
        // One Int column of 4 rows as a single run of 4.
        let payload = |len: u64, run: u32, mask_bits: u64| {
            let mut p = Vec::new();
            let mut w = SpillWriter::new(&mut p);
            w.u32(1);
            w.str("c");
            w.data_type(&DISK_TYPE_TAGS, DataType::Int);
            w.u64(4);
            w.u32(1);
            w.u8(1);
            w.u64(len);
            w.list(&[(7i64, run)], |w, &(v, run)| {
                w.i64(v);
                w.u32(run);
            });
            w.u8(1);
            w.u64(mask_bits);
            w.u8(0b1111);
            w.u64(4);
            w.u32(1);
            for _ in 0..3 {
                w.u8(0);
            }
            w.u64(0);
            w.u64(4);
            p
        };
        let (part, _) = decode_partition(&framed(&payload(4, 4, 4))).unwrap();
        assert_eq!(part.num_rows(), 4);
        for (bad, what) in [
            (payload(4, 5, 4), "runs cover"),
            (payload(5, 5, 4), "null mask covers"),
            (payload(5, 5, 5), "disagrees with partition rows"),
        ] {
            let err = decode_partition(&framed(&bad)).unwrap_err().to_string();
            assert!(err.contains(what), "{err}");
        }
    }
}
