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
//! Decoding is strictly validating: a bad magic, unknown version, length
//! mismatch, checksum mismatch, short read or trailing garbage all yield an
//! error, never a partially-reconstructed partition. Callers treat any decode
//! error as "spill file poisoned" and fall back to lineage recompute.

use std::sync::Arc;

use shark_common::hash::{fnv1a, fnv1a_from};
use shark_common::{DataType, Result, Schema, SharkError, Value};

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

/// Frame checksum: FNV-1a 64 over the `table_version` field (as 8
/// little-endian bytes) followed by the payload, so header-field rot is
/// caught the same way payload rot is.
fn frame_checksum(table_version: u64, payload: &[u8]) -> u64 {
    fnv1a_from(fnv1a(&table_version.to_le_bytes()), payload)
}

fn corrupt(detail: impl Into<String>) -> SharkError {
    SharkError::Execution(format!("spill frame: {}", detail.into()))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn nulls(&mut self, mask: &NullMask) {
        match mask {
            None => self.u8(0),
            Some(valid) => {
                self.u8(1);
                self.u64(valid.len() as u64);
                // One bit per row, packed little-endian within each byte.
                let mut byte = 0u8;
                for (i, &v) in valid.iter().enumerate() {
                    if v {
                        byte |= 1 << (i % 8);
                    }
                    if i % 8 == 7 {
                        self.u8(byte);
                        byte = 0;
                    }
                }
                if valid.len() % 8 != 0 {
                    self.u8(byte);
                }
            }
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Float(f) => {
                self.u8(2);
                self.f64(*f);
            }
            Value::Str(s) => {
                self.u8(3);
                self.str(s);
            }
            Value::Bool(b) => {
                self.u8(4);
                self.u8(*b as u8);
            }
            Value::Date(d) => {
                self.u8(5);
                self.u32(*d as u32);
            }
        }
    }

    fn column(&mut self, col: &EncodedColumn) {
        match col {
            EncodedColumn::IntPlain { values, nulls } => {
                self.u8(0);
                self.u64(values.len() as u64);
                for &v in values {
                    self.i64(v);
                }
                self.nulls(nulls);
            }
            EncodedColumn::IntRle { runs, len, nulls } => {
                self.u8(1);
                self.u64(*len as u64);
                self.u64(runs.len() as u64);
                for (v, run) in runs {
                    self.i64(*v);
                    self.u32(*run);
                }
                self.nulls(nulls);
            }
            EncodedColumn::IntBitPacked {
                min,
                bits,
                len,
                words,
                nulls,
            } => {
                self.u8(2);
                self.i64(*min);
                self.u8(*bits);
                self.u64(*len as u64);
                self.u64(words.len() as u64);
                for &w in words {
                    self.u64(w);
                }
                self.nulls(nulls);
            }
            EncodedColumn::FloatPlain { values, nulls } => {
                self.u8(3);
                self.u64(values.len() as u64);
                for &v in values {
                    self.f64(v);
                }
                self.nulls(nulls);
            }
            EncodedColumn::BoolPacked { len, words, nulls } => {
                self.u8(4);
                self.u64(*len as u64);
                self.u64(words.len() as u64);
                for &w in words {
                    self.u64(w);
                }
                self.nulls(nulls);
            }
            EncodedColumn::StrPlain { values, nulls } => {
                self.u8(5);
                self.u64(values.len() as u64);
                for v in values {
                    self.str(v);
                }
                self.nulls(nulls);
            }
            EncodedColumn::StrDict { dict, codes, nulls } => {
                self.u8(6);
                self.u64(dict.len() as u64);
                for v in dict {
                    self.str(v);
                }
                self.u64(codes.len() as u64);
                for &c in codes {
                    self.u32(c);
                }
                self.nulls(nulls);
            }
            EncodedColumn::StrRle { runs, len, nulls } => {
                self.u8(7);
                self.u64(*len as u64);
                self.u64(runs.len() as u64);
                for (v, run) in runs {
                    self.str(v);
                    self.u32(*run);
                }
                self.nulls(nulls);
            }
            EncodedColumn::AllNull { len } => {
                self.u8(8);
                self.u64(*len as u64);
            }
        }
    }
}

fn type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
        DataType::Date => 4,
        DataType::Null => 5,
    }
}

fn tag_type(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        4 => DataType::Date,
        5 => DataType::Null,
        other => return Err(corrupt(format!("unknown data type tag {other}"))),
    })
}

/// Serialize a partition into a self-describing, checksummed spill frame.
///
/// `table_version` is the catalog epoch at which the owning table version
/// was installed; it is stored in the header and folded into the checksum,
/// and [`decode_partition`] hands it back so callers can reject frames
/// written by an earlier incarnation of a same-named table.
pub fn encode_partition(part: &ColumnarPartition, table_version: u64) -> Vec<u8> {
    let mut w = Writer::new();

    // Schema.
    let schema = part.schema();
    w.u32(schema.len() as u32);
    for field in schema.fields() {
        w.str(&field.name);
        w.u8(type_tag(field.data_type));
    }

    // Encoded columns.
    w.u64(part.num_rows() as u64);
    w.u32(part.num_columns() as u32);
    for c in 0..part.num_columns() {
        w.column(part.column(c));
    }

    // Stats travel with the partition so map pruning works immediately after
    // fault-in without a decode pass.
    let stats = part.stats();
    w.u64(stats.num_rows);
    w.u32(stats.columns.len() as u32);
    for col in &stats.columns {
        w.u8(col.min.is_some() as u8);
        if let Some(v) = &col.min {
            w.value(v);
        }
        w.u8(col.max.is_some() as u8);
        if let Some(v) = &col.max {
            w.value(v);
        }
        match &col.distinct {
            None => w.u8(0),
            Some(values) => {
                w.u8(1);
                w.u64(values.len() as u64);
                for v in values {
                    w.value(v);
                }
            }
        }
        w.u64(col.null_count);
        w.u64(col.row_count);
    }

    let payload = w.buf;
    let mut frame = Vec::with_capacity(SPILL_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&SPILL_MAGIC);
    frame.extend_from_slice(&SPILL_VERSION.to_le_bytes());
    frame.extend_from_slice(&table_version.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&frame_checksum(table_version, &payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
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
    if bytes.len() < SPILL_HEADER_BYTES {
        return Err(corrupt(format!(
            "file shorter than header ({} bytes)",
            bytes.len()
        )));
    }
    if bytes[..8] != SPILL_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SPILL_VERSION {
        return Err(corrupt(format!(
            "unsupported version {version} (expected {SPILL_VERSION})"
        )));
    }
    let header = SpillFrameHeader {
        table_version: u64::from_le_bytes(bytes[12..20].try_into().unwrap()),
        payload_len: u64::from_le_bytes(bytes[20..28].try_into().unwrap()),
        checksum: u64::from_le_bytes(bytes[28..36].try_into().unwrap()),
    };
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

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt(format!(
                "truncated payload (wanted {n} bytes at offset {}, {} available)",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Bounded length: spill frames hold one partition, so any count beyond
    /// the payload size itself signals corruption rather than real data.
    fn len(&mut self) -> Result<usize> {
        let n = self.u64()?;
        if n > self.buf.len() as u64 {
            return Err(corrupt(format!("implausible element count {n}")));
        }
        Ok(n as usize)
    }

    fn str(&mut self) -> Result<Arc<str>> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map(Arc::from)
            .map_err(|_| corrupt("invalid UTF-8 in string"))
    }

    fn nulls(&mut self) -> Result<NullMask> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let n = self.len()?;
                let bytes = self.take(n.div_ceil(8))?;
                Ok(Some(
                    (0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect(),
                ))
            }
            other => Err(corrupt(format!("bad null-mask marker {other}"))),
        }
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(self.f64()?),
            3 => Value::Str(self.str()?),
            4 => Value::Bool(self.u8()? != 0),
            5 => Value::Date(self.u32()? as i32),
            other => return Err(corrupt(format!("unknown value tag {other}"))),
        })
    }

    fn column(&mut self) -> Result<EncodedColumn> {
        Ok(match self.u8()? {
            0 => {
                let n = self.len()?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(self.i64()?);
                }
                EncodedColumn::IntPlain {
                    values,
                    nulls: self.nulls()?,
                }
            }
            1 => {
                let len = self.len()?;
                let n = self.len()?;
                let mut runs = Vec::with_capacity(n);
                for _ in 0..n {
                    runs.push((self.i64()?, self.u32()?));
                }
                EncodedColumn::IntRle {
                    runs,
                    len,
                    nulls: self.nulls()?,
                }
            }
            2 => {
                let min = self.i64()?;
                let bits = self.u8()?;
                let len = self.len()?;
                let n = self.len()?;
                let mut words = Vec::with_capacity(n);
                for _ in 0..n {
                    words.push(self.u64()?);
                }
                EncodedColumn::IntBitPacked {
                    min,
                    bits,
                    len,
                    words,
                    nulls: self.nulls()?,
                }
            }
            3 => {
                let n = self.len()?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(self.f64()?);
                }
                EncodedColumn::FloatPlain {
                    values,
                    nulls: self.nulls()?,
                }
            }
            4 => {
                let len = self.len()?;
                let n = self.len()?;
                let mut words = Vec::with_capacity(n);
                for _ in 0..n {
                    words.push(self.u64()?);
                }
                EncodedColumn::BoolPacked {
                    len,
                    words,
                    nulls: self.nulls()?,
                }
            }
            5 => {
                let n = self.len()?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(self.str()?);
                }
                EncodedColumn::StrPlain {
                    values,
                    nulls: self.nulls()?,
                }
            }
            6 => {
                let n = self.len()?;
                let mut dict = Vec::with_capacity(n);
                for _ in 0..n {
                    dict.push(self.str()?);
                }
                let n = self.len()?;
                let mut codes = Vec::with_capacity(n);
                for _ in 0..n {
                    let code = self.u32()?;
                    if code as usize >= dict.len() {
                        return Err(corrupt(format!(
                            "dictionary code {code} out of range ({} entries)",
                            dict.len()
                        )));
                    }
                    codes.push(code);
                }
                EncodedColumn::StrDict {
                    dict,
                    codes,
                    nulls: self.nulls()?,
                }
            }
            7 => {
                let len = self.len()?;
                let n = self.len()?;
                let mut runs = Vec::with_capacity(n);
                for _ in 0..n {
                    runs.push((self.str()?, self.u32()?));
                }
                EncodedColumn::StrRle {
                    runs,
                    len,
                    nulls: self.nulls()?,
                }
            }
            8 => EncodedColumn::AllNull { len: self.len()? },
            other => return Err(corrupt(format!("unknown column tag {other}"))),
        })
    }
}

/// Validate and decode a spill frame back into a [`ColumnarPartition`],
/// returning it together with the `table_version` the frame was written
/// under.
///
/// Every structural violation — wrong magic, unknown version, length or
/// checksum mismatch, truncation, trailing bytes — is reported as an error
/// so the caller can fall back to lineage recompute.
pub fn decode_partition(bytes: &[u8]) -> Result<(ColumnarPartition, u64)> {
    let header = read_frame_header(bytes, Some(bytes.len() as u64))?;
    let payload = &bytes[SPILL_HEADER_BYTES..];
    if frame_checksum(header.table_version, payload) != header.checksum {
        return Err(corrupt("checksum mismatch"));
    }

    let mut r = Reader::new(payload);

    let num_fields = r.u32()? as usize;
    let mut fields = Vec::with_capacity(num_fields);
    for _ in 0..num_fields {
        let name = r.str()?;
        let dt = tag_type(r.u8()?)?;
        fields.push(shark_common::Field::new(name.as_ref(), dt));
    }
    let schema = Schema::new(fields);

    let num_rows = r.len()?;
    let num_columns = r.u32()? as usize;
    if num_columns != schema.len() {
        return Err(corrupt(format!(
            "column count {num_columns} disagrees with schema ({} fields)",
            schema.len()
        )));
    }
    let mut columns = Vec::with_capacity(num_columns);
    for _ in 0..num_columns {
        let col = r.column()?;
        if col.len() != num_rows {
            return Err(corrupt(format!(
                "column length {} disagrees with partition rows {num_rows}",
                col.len()
            )));
        }
        columns.push(col);
    }

    let stats_rows = r.u64()?;
    let stats_cols = r.u32()? as usize;
    if stats_cols != num_columns {
        return Err(corrupt("stats column count disagrees with schema"));
    }
    let mut stat_columns = Vec::with_capacity(stats_cols);
    for _ in 0..stats_cols {
        let min = if r.u8()? != 0 { Some(r.value()?) } else { None };
        let max = if r.u8()? != 0 { Some(r.value()?) } else { None };
        let distinct = if r.u8()? != 0 {
            let n = r.len()?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(r.value()?);
            }
            Some(values)
        } else {
            None
        };
        stat_columns.push(ColumnStats {
            min,
            max,
            distinct,
            null_count: r.u64()?,
            row_count: r.u64()?,
        });
    }
    let stats = PartitionStats {
        columns: stat_columns,
        num_rows: stats_rows,
    };

    if r.pos != payload.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after partition",
            payload.len() - r.pos
        )));
    }

    Ok((
        ColumnarPartition::from_parts(schema, num_rows, columns, stats),
        header.table_version,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingChoice;
    use shark_common::{row, Row};

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
}
