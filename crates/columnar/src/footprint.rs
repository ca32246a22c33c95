//! Memory-footprint models for the storage-format comparison of §3.2.
//!
//! The paper motivates the columnar memstore by comparing three ways of
//! holding the same partition in memory:
//!
//! 1. **Deserialized row objects** (Spark's default cache): every value is a
//!    heap object with 12–16 bytes of header plus alignment, and every row is
//!    an object array of pointers — ~3× larger than the serialized form and
//!    hard on the garbage collector (e.g. 270 MB of TPC-H `lineitem` became
//!    971 MB of JVM objects).
//! 2. **Serialized rows**: compact but must be deserialized at ~200 MB/s/core
//!    before the query processor can use them.
//! 3. **Columnar arrays** (Shark): one allocation per column, optionally
//!    compressed.
//!
//! These functions compute the modelled footprint of (1) and (2) for a
//! row-oriented partition so experiments and benches can report the same
//! ratios the paper does.

use shark_common::{EstimateSize, Row, Value};

/// Per-object header overhead charged by the managed-runtime model (bytes).
pub const OBJECT_HEADER_BYTES: usize = 16;
/// Size of an object reference (pointer) in the managed-runtime model.
pub const OBJECT_POINTER_BYTES: usize = 8;

/// Modelled footprint of one value stored as a boxed heap object.
fn object_value_bytes(v: &Value) -> usize {
    let payload = match v {
        Value::Null => 0,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Bool(_) => 1,
        Value::Date(_) => 4,
        // Strings: char payload + the string object's own header and fields.
        Value::Str(s) => s.len() + OBJECT_HEADER_BYTES,
    };
    // Object header + payload, rounded up to 8-byte alignment.
    let raw = OBJECT_HEADER_BYTES + payload;
    raw.div_ceil(8) * 8
}

/// Modelled memory footprint of a partition cached as deserialized row
/// objects (option 1 above).
pub fn object_store_bytes(rows: &[Row]) -> usize {
    rows.iter()
        .map(|r| {
            // The row itself: header + one pointer per field.
            let row_obj = OBJECT_HEADER_BYTES + r.len() * OBJECT_POINTER_BYTES;
            row_obj + r.values().iter().map(object_value_bytes).sum::<usize>()
        })
        .sum()
}

/// Footprint of the compact serialized representation (option 2 above).
pub fn serialized_bytes(rows: &[Row]) -> usize {
    rows.iter().map(|r| r.estimated_size()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::ColumnarPartition;
    use shark_common::{row, DataType, Schema};

    fn lineitem_like(n: usize) -> (Schema, Vec<Row>) {
        let schema = Schema::from_pairs(&[
            ("l_orderkey", DataType::Int),
            ("l_quantity", DataType::Float),
            ("l_shipmode", DataType::Str),
            ("l_shipdate", DataType::Date),
        ]);
        let modes = ["AIR", "SHIP", "TRUCK", "RAIL", "MAIL", "FOB", "REG"];
        let rows = (0..n)
            .map(|i| {
                row![
                    i as i64,
                    (i % 50) as f64,
                    modes[i % modes.len()],
                    Value::Date(8000 + (i / 100) as i32)
                ]
            })
            .collect();
        (schema, rows)
    }

    #[test]
    fn object_store_is_about_three_times_serialized() {
        // §3.2: 971 MB of JVM objects vs 289 MB serialized (~3.4x).
        let (_, rows) = lineitem_like(5000);
        let obj = object_store_bytes(&rows);
        let ser = serialized_bytes(&rows);
        let ratio = obj as f64 / ser as f64;
        assert!(
            (2.0..6.0).contains(&ratio),
            "object/serialized ratio {ratio} outside the expected band"
        );
    }

    #[test]
    fn columnar_is_smaller_than_object_store_by_a_wide_margin() {
        let (schema, rows) = lineitem_like(5000);
        let part = ColumnarPartition::from_rows(&schema, &rows);
        let obj = object_store_bytes(&rows);
        let ratio = obj as f64 / part.memory_bytes() as f64;
        assert!(
            ratio > 3.0,
            "columnar should be >3x smaller than row objects, got {ratio}"
        );
    }

    #[test]
    fn object_count_counts_rows_and_values() {
        let rows = vec![row![1i64, "a"], row![2i64, "b"]];
        assert!(object_store_bytes(&rows) > serialized_bytes(&rows));
    }
}
