//! Columnar partitions: rows of a table partition stored column-wise.

use std::sync::Arc;

use shark_common::{DataType, Result, Row, Schema, SharkError, Value};

use crate::column::EncodedColumn;
use crate::encoding::{choose_encoding, kind_of, EncodingChoice, EncodingKind};
use crate::stats::PartitionStats;

/// One table partition stored in columnar, compressed form together with the
/// statistics collected while loading it (§3.2, §3.3, §3.5).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarPartition {
    schema: Schema,
    num_rows: usize,
    columns: Vec<EncodedColumn>,
    /// Encoded bytes per column, measured once at construction: a partition
    /// is immutable, and residency accounting reads these on every query.
    column_bytes: Vec<usize>,
    /// Sum of `column_bytes`.
    memory_bytes: usize,
    /// Shared with the memstore, which keeps the statistics across evictions.
    stats: Arc<PartitionStats>,
}

impl ColumnarPartition {
    /// Assemble a partition from its already-encoded parts (also the spill
    /// codec's decode path), measuring the encoded footprint once.
    pub(crate) fn from_parts(
        schema: Schema,
        num_rows: usize,
        columns: Vec<EncodedColumn>,
        stats: PartitionStats,
    ) -> ColumnarPartition {
        let column_bytes: Vec<usize> = columns.iter().map(EncodedColumn::memory_bytes).collect();
        ColumnarPartition {
            schema,
            num_rows,
            memory_bytes: column_bytes.iter().sum(),
            column_bytes,
            columns,
            stats: Arc::new(stats),
        }
    }

    /// Convert a row-oriented partition into columnar form, letting each
    /// column pick its own compression scheme.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> ColumnarPartition {
        Self::from_rows_with(schema, rows, EncodingChoice::Auto)
    }

    /// Convert a row-oriented partition with an explicit encoding policy
    /// (used by the compression ablation benches).
    pub fn from_rows_with(
        schema: &Schema,
        rows: &[Row],
        choice: EncodingChoice,
    ) -> ColumnarPartition {
        let stats = PartitionStats::from_rows(schema, rows);
        let mut columns = Vec::with_capacity(schema.len());
        for (c, field) in schema.fields().iter().enumerate() {
            let values: Vec<Value> = rows.iter().map(|r| r.get(c).clone()).collect();
            columns.push(choose_encoding(field.data_type, &values, choice));
        }
        Self::from_parts(schema.clone(), rows.len(), columns, stats)
    }

    /// The partition's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows stored.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns stored.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Statistics collected at load time (for map pruning). A shared
    /// handle: the memstore retains it after the partition is evicted.
    pub fn stats(&self) -> &Arc<PartitionStats> {
        &self.stats
    }

    /// Approximate memory footprint of the encoded columns, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.memory_bytes
    }

    /// The compression family used for column `i`.
    pub fn encoding(&self, i: usize) -> EncodingKind {
        kind_of(&self.columns[i])
    }

    /// Borrow the encoded representation of column `i`. This is the hook the
    /// vectorized execution path uses to run predicate kernels directly over
    /// the compressed encoding (run skipping, dictionary-code tests) instead
    /// of decoding the column into `Value`s first.
    pub fn column(&self, i: usize) -> &EncodedColumn {
        &self.columns[i]
    }

    /// The logical type of column `i`.
    pub fn column_type(&self, i: usize) -> DataType {
        self.schema.field(i).data_type
    }

    /// Memory footprint of a single encoded column, in bytes. Scans that
    /// project a subset of columns only pay for the columns they touch.
    pub fn column_bytes(&self, i: usize) -> usize {
        self.column_bytes[i]
    }

    /// Decode one column entirely.
    pub fn decode_column(&self, i: usize) -> Result<Vec<Value>> {
        if i >= self.columns.len() {
            return Err(SharkError::Execution(format!(
                "column index {i} out of range ({} columns)",
                self.columns.len()
            )));
        }
        Ok(self.columns[i].decode(self.schema.field(i).data_type))
    }

    /// Decode a single cell.
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.columns[col].value_at(row, self.schema.field(col).data_type)
    }

    /// Reconstruct full rows (all columns).
    pub fn to_rows(&self) -> Vec<Row> {
        self.project_rows(&(0..self.columns.len()).collect::<Vec<_>>())
    }

    /// Reconstruct rows containing only the requested columns, in the
    /// requested order. This is the scan path: only the needed columns are
    /// decoded, which is where the columnar layout wins for analytical
    /// queries that touch a few of many columns.
    pub fn project_rows(&self, columns: &[usize]) -> Vec<Row> {
        let decoded: Vec<Vec<Value>> = columns
            .iter()
            .map(|&c| self.columns[c].decode(self.schema.field(c).data_type))
            .collect();
        (0..self.num_rows)
            .map(|r| Row::new(decoded.iter().map(|col| col[r].clone()).collect()))
            .collect()
    }

    /// Uncompressed (plain columnar) footprint, for compression-ratio
    /// reporting.
    pub fn plain_bytes(&self) -> usize {
        let mut total = 0usize;
        for (c, field) in self.schema.fields().iter().enumerate() {
            total += match field.data_type {
                DataType::Int | DataType::Float | DataType::Date => self.num_rows * 8,
                DataType::Bool => self.num_rows,
                DataType::Str | DataType::Null => self
                    .decode_column(c)
                    .map(|vals| {
                        vals.iter()
                            .map(|v| v.as_str().map(|s| s.len() + 16).unwrap_or(16))
                            .sum()
                    })
                    .unwrap_or(0),
            };
        }
        total
    }

    /// Compression ratio: plain columnar bytes / encoded bytes.
    pub fn compression_ratio(&self) -> f64 {
        let encoded = self.memory_bytes().max(1);
        self.plain_bytes() as f64 / encoded as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_common::row;

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
    fn roundtrip_preserves_rows() {
        let schema = schema();
        let original = rows(200);
        let part = ColumnarPartition::from_rows(&schema, &original);
        assert_eq!(part.num_rows(), 200);
        assert_eq!(part.num_columns(), 5);
        assert_eq!(part.to_rows(), original);
    }

    #[test]
    fn projection_decodes_only_requested_columns() {
        let part = ColumnarPartition::from_rows(&schema(), &rows(10));
        let projected = part.project_rows(&[1, 0]);
        assert_eq!(projected[3], row!["AIR", 3i64]);
        assert_eq!(projected.len(), 10);
    }

    #[test]
    fn value_at_matches_decode() {
        let part = ColumnarPartition::from_rows(&schema(), &rows(50));
        assert_eq!(part.value_at(7, 0), Value::Int(7));
        assert_eq!(part.value_at(7, 1), Value::str("SHIP"));
        assert_eq!(part.decode_column(2).unwrap()[7], Value::Float(10.5));
        assert!(part.decode_column(99).is_err());
    }

    #[test]
    fn compression_shrinks_footprint() {
        let part = ColumnarPartition::from_rows(&schema(), &rows(5000));
        assert!(
            part.compression_ratio() > 1.5,
            "{}",
            part.compression_ratio()
        );
        let plain =
            ColumnarPartition::from_rows_with(&schema(), &rows(5000), EncodingChoice::ForcePlain);
        assert!(part.memory_bytes() < plain.memory_bytes());
        assert_eq!(plain.to_rows(), part.to_rows());
    }

    #[test]
    fn stats_are_collected_at_load_time() {
        let part = ColumnarPartition::from_rows(&schema(), &rows(100));
        let stats = part.stats();
        assert_eq!(stats.num_rows, 100);
        assert_eq!(stats.column(0).min, Some(Value::Int(0)));
        assert_eq!(stats.column(0).max, Some(Value::Int(99)));
        assert!(stats.column(1).distinct.is_some());
    }

    #[test]
    fn empty_partition() {
        let part = ColumnarPartition::from_rows(&schema(), &[]);
        assert_eq!(part.num_rows(), 0);
        assert!(part.to_rows().is_empty());
    }

    #[test]
    fn encoding_kinds_reported() {
        let part = ColumnarPartition::from_rows(&schema(), &rows(1000));
        // id column 0..1000 is narrow-range → bit packed; shipmode → dict;
        // day has long runs → RLE.
        assert_eq!(part.encoding(0), EncodingKind::BitPacked);
        assert_eq!(part.encoding(1), EncodingKind::Dictionary);
        assert_eq!(part.encoding(4), EncodingKind::RunLength);
    }
}
