//! Golden bytes for the spill-frame format (`SHRKSPL1` v2).
//!
//! `fixtures/spill_v2.bin` is a frame written by the encoder and committed
//! as bytes. It holds one partition with all nine column encodings, columns
//! with and without null masks, and statistics that use every value tag
//! (0–5), distinct lists present and absent. Any change to the bytes the
//! encoder writes, or to how the decoder reads them, fails here. A layout
//! change must bump `SPILL_VERSION` and add a new fixture beside this one;
//! it must never rewrite this file.

use std::collections::BTreeSet;

use shark_columnar::{decode_partition, encode_partition, ColumnarPartition, EncodedColumn};
use shark_columnar::{PartitionStats, SPILL_VERSION};
use shark_common::{DataType, Row, Schema, Value};

const FIXTURE: &[u8] = include_bytes!("fixtures/spill_v2.bin");
const TABLE_VERSION: u64 = 7;
const ROWS: usize = 72;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int),
        ("grp", DataType::Int),
        ("small", DataType::Int),
        ("price", DataType::Float),
        ("flag", DataType::Bool),
        ("name", DataType::Str),
        ("mode", DataType::Str),
        ("region", DataType::Str),
        ("nothing", DataType::Null),
        ("day", DataType::Date),
    ])
}

/// Rows chosen so the loader picks each encoding once: wide ints stay
/// plain, plateaus run-length encode, a narrow range bit-packs, unique
/// strings stay plain, few distinct strings get a dictionary, clustered
/// strings run-length encode, and an all-NULL column collapses.
fn rows() -> Vec<Row> {
    (0..ROWS)
        .map(|i| {
            let nullable = |null: bool, v: Value| if null { Value::Null } else { v };
            Row::new(vec![
                nullable(
                    i % 5 == 2,
                    Value::Int(i64::MAX / 3 - i as i64 * 982_451_653),
                ),
                Value::Int((i / 8) as i64),
                nullable(i % 7 == 3, Value::Int(1000 + (i as i64 * 7) % 13)),
                Value::Float(i as f64 * 1.25 - 3.0),
                nullable(i == 5, Value::Bool(i % 3 == 0)),
                Value::str(if i == 11 {
                    "naïve-ü".to_string()
                } else {
                    format!("user-{i}")
                }),
                nullable(i % 4 == 1, Value::str(["AIR", "SHIP", "TRUCK"][i % 3])),
                nullable(i == 0, Value::str(["east", "west"][i / 36])),
                Value::Null,
                Value::Date(-(i as i32) * 3),
            ])
        })
        .collect()
}

/// The loader's statistics, except that the all-NULL column's distinct
/// list carries one NULL so the block holds value tag 0 as well.
fn expected_stats() -> PartitionStats {
    let mut stats = PartitionStats::from_rows(&schema(), &rows());
    stats.columns[8].distinct = Some(vec![Value::Null]);
    stats
}

fn variant(col: &EncodedColumn) -> (&'static str, bool) {
    match col {
        EncodedColumn::IntPlain { nulls, .. } => ("IntPlain", nulls.is_some()),
        EncodedColumn::IntRle { nulls, .. } => ("IntRle", nulls.is_some()),
        EncodedColumn::IntBitPacked { nulls, .. } => ("IntBitPacked", nulls.is_some()),
        EncodedColumn::FloatPlain { nulls, .. } => ("FloatPlain", nulls.is_some()),
        EncodedColumn::BoolPacked { nulls, .. } => ("BoolPacked", nulls.is_some()),
        EncodedColumn::StrPlain { nulls, .. } => ("StrPlain", nulls.is_some()),
        EncodedColumn::StrDict { nulls, .. } => ("StrDict", nulls.is_some()),
        EncodedColumn::StrRle { nulls, .. } => ("StrRle", nulls.is_some()),
        EncodedColumn::AllNull { .. } => ("AllNull", false),
    }
}

#[test]
fn spill_fixture_decodes_to_the_pinned_partition() {
    assert_eq!(SPILL_VERSION, 2);
    let (part, version) = decode_partition(FIXTURE).unwrap();
    assert_eq!(version, TABLE_VERSION);
    assert_eq!(part.schema(), &schema());
    assert_eq!(part.num_rows(), ROWS);

    // Columns are exactly what the loader builds from the rows.
    let reference = ColumnarPartition::from_rows(&schema(), &rows());
    for c in 0..schema().len() {
        assert_eq!(part.column(c), reference.column(c), "column {c}");
    }
    assert_eq!(format!("{:?}", part.to_rows()), format!("{:?}", rows()));

    // Every encoding, with and without a null mask.
    let shapes: Vec<(&str, bool)> = (0..part.num_columns())
        .map(|c| variant(part.column(c)))
        .collect();
    let kinds: BTreeSet<&str> = shapes.iter().map(|(k, _)| *k).collect();
    assert_eq!(kinds.len(), 9, "{shapes:?}");
    assert!(shapes.iter().any(|(_, masked)| *masked));
    assert!(shapes.iter().any(|(k, masked)| !*masked && *k != "AllNull"));

    // Statistics: all six value tags, distinct lists present and absent.
    let stats = part.stats();
    assert_eq!(format!("{:?}", **stats), format!("{:?}", expected_stats()));
    let tags: BTreeSet<String> = stats
        .columns
        .iter()
        .flat_map(|c| {
            c.min
                .iter()
                .chain(c.max.iter())
                .chain(c.distinct.iter().flatten())
        })
        .map(|v| format!("{:?}", v.data_type()))
        .collect();
    assert_eq!(tags.len(), 6, "{tags:?}");
    assert!(stats.columns.iter().any(|c| c.distinct.is_none()));
    assert!(stats.columns.iter().any(|c| c.distinct.is_some()));
}

#[test]
fn spill_encoder_reproduces_the_fixture_byte_for_byte() {
    let (part, version) = decode_partition(FIXTURE).unwrap();
    assert_eq!(encode_partition(&part, version), FIXTURE);
}
