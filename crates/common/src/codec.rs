//! The one byte codec behind every format Shark writes: spill frames, the
//! catalog WAL, snapshot and manifest files, and SHRKNET wire frames.
//!
//! A [`Writer`] appends little-endian primitives to a caller's `Vec<u8>`; a
//! [`Reader`] reads them back from a slice and never reads past its end.
//! Both carry the width of the format's string-length and count prefixes
//! as a type parameter ([`LenWidth`]: `u32` or `u64`). The width belongs to
//! the format and is fixed where the format names its reader and writer:
//! the wire, the WAL, the snapshot and the manifest use `u32`, spill
//! frames use `u64`.
//!
//! The reader tells apart two kinds of number:
//!
//! * an **element count** says how many encoded items follow. Every count
//!   is checked against the bytes left ([`Reader::bound`], which
//!   [`Reader::list`] applies) before anything is allocated, so a corrupt
//!   count costs an error, never a huge allocation;
//! * a **logical length** (a row count, a run-length or bit-packed column's
//!   length, a null-mask bit count) may legitimately exceed the bytes that
//!   encode it. The format checks it against the structure it describes,
//!   never against the payload size.
//!
//! Every reader and writer method is `#[inline]`: formats call them once
//! per value on the wire's hot path, and a generic method without the hint
//! may be compiled into another codegen unit than its caller and stay a
//! call (measured on a 2-vCPU x86-64 box: ResultBatch encode and decode
//! 7–10% slower).
//!
//! The tag tables live here too: [`VALUE_TAGS`] (the same on disk and on
//! the wire) and the two [`DataType`] orders, [`DISK_TYPE_TAGS`] and
//! [`WIRE_TYPE_CODES`]. The normative specs (`docs/ondisk-formats.md`,
//! `docs/wire-protocol.md`) print these tables, and a test checks that
//! they agree with the constants.

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::{DataType, Value};

/// A table mapping a one-byte tag (the index) to a [`DataType`].
pub type TypeTable = [DataType; 6];

/// Tag of each [`Value`] variant, by the variant's [`DataType`]: the same
/// on disk (spill statistics) and on the wire (`ResultBatch` cells).
pub const VALUE_TAGS: TypeTable = [
    DataType::Null,
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Bool,
    DataType::Date,
];

/// Column-type tags on disk: spill-frame schemas and WAL/snapshot
/// `TableRecord`s.
pub const DISK_TYPE_TAGS: TypeTable = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Bool,
    DataType::Date,
    DataType::Null,
];

/// Column-type codes on the wire (`ResultSchema`). A different order from
/// [`DISK_TYPE_TAGS`]; unifying the two needs a protocol version bump.
pub const WIRE_TYPE_CODES: TypeTable = [
    DataType::Null,
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Bool,
    DataType::Date,
];

/// Why bytes did not decode. Each format wraps it in its own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl CodecError {
    /// An error with this message.
    pub fn new(message: impl Into<String>) -> CodecError {
        CodecError(message.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

/// What every decoding step returns.
pub type Result<T> = std::result::Result<T, CodecError>;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// The width of a format's string-length and count prefixes: `u32` or
/// `u64`. Sealed; a format picks one in the type of its reader and writer.
pub trait LenWidth: sealed::Sealed + Sized {
    /// Append `n` as one prefix.
    fn put(w: &mut Writer<'_, Self>, n: usize);
    /// Read one prefix.
    fn get(r: &mut Reader<'_, Self>) -> Result<u64>;
}

impl LenWidth for u32 {
    #[inline]
    fn put(w: &mut Writer<'_, u32>, n: usize) {
        w.u32(n as u32);
    }

    #[inline]
    fn get(r: &mut Reader<'_, u32>) -> Result<u64> {
        r.u32().map(u64::from)
    }
}

impl LenWidth for u64 {
    #[inline]
    fn put(w: &mut Writer<'_, u64>, n: usize) {
        w.u64(n as u64);
    }

    #[inline]
    fn get(r: &mut Reader<'_, u64>) -> Result<u64> {
        r.u64()
    }
}

#[cold]
fn truncated(wanted: usize, at: usize, available: usize) -> CodecError {
    CodecError::new(format!(
        "truncated (wanted {wanted} bytes at offset {at}, {available} available)"
    ))
}

#[cold]
fn implausible(count: u64, left: usize) -> CodecError {
    CodecError::new(format!(
        "implausible element count {count} ({left} bytes left)"
    ))
}

/// Appends encoded primitives to a caller's buffer.
pub struct Writer<'a, L: LenWidth> {
    buf: &'a mut Vec<u8>,
    width: PhantomData<L>,
}

impl<'a, L: LenWidth> Writer<'a, L> {
    /// A writer appending to `buf` (existing bytes are kept).
    #[inline]
    pub fn new(buf: &'a mut Vec<u8>) -> Writer<'a, L> {
        Writer {
            buf,
            width: PhantomData,
        }
    }

    /// Raw bytes, no prefix.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A boolean as one byte, `0` or `1`.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// A `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `i64`, little-endian two's complement.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f64` as its IEEE-754 bits, little-endian.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// An element count or byte length, in the format's width.
    #[inline]
    fn count(&mut self, n: usize) {
        L::put(self, n);
    }

    /// A string: byte length in the format's width, then UTF-8 bytes.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.bytes(s.as_bytes());
    }

    /// An optional item: `u8` flag (`0` absent, `1` present), then the item.
    #[inline]
    pub fn opt<T>(&mut self, item: Option<T>, put: impl FnOnce(&mut Self, T)) {
        match item {
            None => self.u8(0),
            Some(item) => {
                self.u8(1);
                put(self, item);
            }
        }
    }

    /// A list: element count in the format's width, then each item.
    #[inline]
    pub fn list<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.count(items.len());
        for item in items {
            put(self, item);
        }
    }

    /// A tagged [`Value`] (tags in [`VALUE_TAGS`]). Dates are 4 bytes.
    #[inline]
    pub fn value(&mut self, v: &Value) {
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
                self.bool(*b);
            }
            Value::Date(d) => {
                self.u8(5);
                self.u32(*d as u32);
            }
        }
    }

    /// A [`DataType`] as its one-byte tag in `table`.
    #[inline]
    pub fn data_type(&mut self, table: &TypeTable, dt: DataType) {
        let tag = table.iter().position(|&t| t == dt).unwrap_or(table.len());
        self.u8(tag as u8);
    }

    /// An 8-byte magic followed by a `u32` format version.
    #[inline]
    pub fn magic(&mut self, magic: &[u8; 8], version: u32) {
        self.bytes(magic);
        self.u32(version);
    }
}

/// Reads encoded primitives from a slice, never past its end.
pub struct Reader<'a, L: LenWidth> {
    buf: &'a [u8],
    pos: usize,
    width: PhantomData<L>,
}

impl<'a, L: LenWidth> Reader<'a, L> {
    /// A reader over `buf`, starting at its first byte.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a, L> {
        Reader {
            buf,
            pos: 0,
            width: PhantomData,
        }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(truncated(n, self.pos, self.remaining()));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// A boolean: any non-zero byte is `true`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian two's-complement `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    /// An `f64` from its little-endian IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Accept `n` as an element count if `n` items of at least
    /// `min_item_bytes` each fit in the bytes left. Call it on every count
    /// before allocating for it.
    #[inline]
    pub fn bound(&self, n: u64, min_item_bytes: usize) -> Result<usize> {
        let need = u128::from(n) * min_item_bytes.max(1) as u128;
        if need > self.remaining() as u128 {
            return Err(implausible(n, self.remaining()));
        }
        Ok(n as usize)
    }

    /// An element count in the format's width, checked by [`Reader::bound`].
    #[inline]
    fn count(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = L::get(self)?;
        self.bound(n, min_item_bytes)
    }

    /// `n` items read by `get`; `n` must already be bounded.
    #[inline]
    pub fn items<T>(
        &mut self,
        n: usize,
        mut get: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(get(self)?);
        }
        Ok(items)
    }

    /// A list written by [`Writer::list`]: a bounded count, then the items.
    #[inline]
    pub fn list<T>(
        &mut self,
        min_item_bytes: usize,
        get: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.count(min_item_bytes)?;
        self.items(n, get)
    }

    /// A string, borrowed from the input.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::new("invalid UTF-8 in string"))
    }

    /// An optional item written by [`Writer::opt`]. Flags other than `0`
    /// and `1` are errors.
    #[inline]
    pub fn opt<T>(&mut self, get: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            other => Err(CodecError::new(format!("bad option marker {other}"))),
        }
    }

    /// A tagged [`Value`] written by [`Writer::value`].
    #[inline]
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(self.f64()?),
            3 => Value::Str(Arc::from(self.str()?)),
            4 => Value::Bool(self.bool()?),
            5 => Value::Date(self.u32()? as i32),
            other => return Err(CodecError::new(format!("unknown value tag {other}"))),
        })
    }

    /// A [`DataType`] tag from `table`.
    #[inline]
    pub fn data_type(&mut self, table: &TypeTable) -> Result<DataType> {
        let tag = self.u8()?;
        table
            .get(tag as usize)
            .copied()
            .ok_or_else(|| CodecError::new(format!("unknown type tag {tag}")))
    }

    /// Check an 8-byte magic and a `u32` format version.
    #[inline]
    pub fn magic(&mut self, magic: &[u8; 8], version: u32) -> Result<()> {
        if self.take(8)? != magic {
            return Err(CodecError::new("bad magic"));
        }
        let found = self.u32()?;
        if found != version {
            return Err(CodecError::new(format!(
                "unsupported version {found} (expected {version})"
            )));
        }
        Ok(())
    }

    /// Succeed only if every byte was consumed.
    #[inline]
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::new(format!("{n} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_type() -> [DataType; 6] {
        use DataType::*;
        let all = [Int, Float, Str, Bool, Date, Null];
        // A new variant stops this compiling until the tables list it.
        for dt in all {
            match dt {
                Int | Float | Str | Bool | Date | Null => {}
            }
        }
        all
    }

    #[test]
    fn each_type_table_is_a_permutation_of_every_data_type() {
        for table in [VALUE_TAGS, DISK_TYPE_TAGS, WIRE_TYPE_CODES] {
            for dt in every_type() {
                assert_eq!(table.iter().filter(|&&t| t == dt).count(), 1, "{dt:?}");
            }
        }
    }

    #[test]
    fn a_value_is_tagged_by_its_type_in_value_tags() {
        let values = [
            Value::Null,
            Value::Int(-1),
            Value::Float(0.5),
            Value::str("x"),
            Value::Bool(true),
            Value::Date(-3),
        ];
        for v in values {
            let mut buf = Vec::new();
            Writer::<u32>::new(&mut buf).value(&v);
            assert_eq!(VALUE_TAGS[buf[0] as usize], v.data_type(), "{v:?}");
            let mut r = Reader::<u32>::new(&buf);
            assert_eq!(format!("{:?}", r.value().unwrap()), format!("{v:?}"));
            r.finish().unwrap();
        }
    }

    #[test]
    fn type_tags_round_trip_through_both_tables() {
        for table in [DISK_TYPE_TAGS, WIRE_TYPE_CODES] {
            for (tag, dt) in table.iter().enumerate() {
                let mut buf = Vec::new();
                Writer::<u64>::new(&mut buf).data_type(&table, *dt);
                assert_eq!(buf, [tag as u8]);
                assert_eq!(Reader::<u64>::new(&buf).data_type(&table).unwrap(), *dt);
            }
            assert!(Reader::<u64>::new(&[6]).data_type(&table).is_err());
        }
    }

    #[test]
    fn the_width_is_the_formats_length_prefix() {
        let mut narrow = Vec::new();
        Writer::<u32>::new(&mut narrow).str("abc");
        assert_eq!(narrow, [3, 0, 0, 0, b'a', b'b', b'c']);
        let mut wide = Vec::new();
        Writer::<u64>::new(&mut wide).str("abc");
        assert_eq!(wide, [3, 0, 0, 0, 0, 0, 0, 0, b'a', b'b', b'c']);
        assert_eq!(Reader::<u64>::new(&wide).str().unwrap(), "abc");
        assert!(Reader::<u32>::new(&wide).finish().is_err());
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left_before_allocating() {
        let mut buf = Vec::new();
        let mut w = Writer::<u32>::new(&mut buf);
        w.u32(u32::MAX);
        w.u64(7);
        let mut r = Reader::<u32>::new(&buf);
        let err = r.list(8, Reader::u64).unwrap_err();
        assert!(err.0.contains("implausible element count"), "{err}");
        // The same bytes with an honest count decode.
        buf[..4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(Reader::<u32>::new(&buf).list(8, Reader::u64).unwrap(), [7]);
        // Item width counts: one 8-byte item does not fit in 4 bytes.
        assert!(Reader::<u32>::new(&[0; 4]).bound(1, 8).is_err());
        assert!(Reader::<u32>::new(&[0; 8]).bound(1, 8).is_ok());
    }

    #[test]
    fn strictness_truncation_options_magic_and_trailing_bytes() {
        assert!(Reader::<u32>::new(&[1, 2, 3]).u32().is_err());
        assert!(Reader::<u32>::new(&[2, 0]).opt(Reader::u8).is_err());
        assert_eq!(Reader::<u32>::new(&[0]).opt(Reader::u8).unwrap(), None);
        assert!(Reader::<u32>::new(&[5, 0, 0, 0, 0xff]).str().is_err());
        assert!(Reader::<u32>::new(&[9]).value().is_err());

        let mut buf = Vec::new();
        Writer::<u32>::new(&mut buf).magic(b"SHRKTEST", 3);
        Reader::<u32>::new(&buf).magic(b"SHRKTEST", 3).unwrap();
        let err = Reader::<u32>::new(&buf).magic(b"SHRKTEST", 4).unwrap_err();
        assert!(err.0.contains("unsupported version 3"), "{err}");
        assert!(Reader::<u32>::new(&buf).magic(b"SHRKXXXX", 3).is_err());

        let mut r = Reader::<u32>::new(&[1, 2]);
        r.u8().unwrap();
        assert!(r.finish().is_err());
        r.u8().unwrap();
        r.finish().unwrap();
    }
}
