//! Per-partition column statistics for map pruning (§3.5).
//!
//! While a loading task converts rows to columnar form it piggybacks the
//! collection of per-column statistics: the value range of every column and,
//! for low-cardinality ("enum") columns, the set of distinct values. The
//! master keeps these statistics in memory; at query time, predicates are
//! evaluated against them and partitions whose statistics cannot satisfy the
//! predicate are never scanned.

use std::collections::BTreeSet;

use shark_common::{Row, Schema, Value};

/// Maximum number of distinct values tracked per column before the distinct
/// set is dropped (the paper keeps it only for enum-like columns).
pub const MAX_DISTINCT_TRACKED: usize = 64;

/// Statistics for one column of one partition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStats {
    /// Minimum non-null value, if any non-null value exists.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Distinct non-null values if their count stayed under
    /// [`MAX_DISTINCT_TRACKED`], otherwise `None`.
    pub distinct: Option<Vec<Value>>,
    /// Number of NULLs observed.
    pub null_count: u64,
    /// Total rows observed.
    pub row_count: u64,
}

impl ColumnStats {
    /// Build statistics from a column of values.
    pub fn from_values(values: &[Value]) -> ColumnStats {
        let mut stats = ColumnStats {
            row_count: values.len() as u64,
            ..ColumnStats::default()
        };
        let mut distinct: BTreeSet<Value> = BTreeSet::new();
        let mut track_distinct = true;
        for v in values {
            if v.is_null() {
                stats.null_count += 1;
                continue;
            }
            match &stats.min {
                Some(m) if v >= m => {}
                _ => stats.min = Some(v.clone()),
            }
            match &stats.max {
                Some(m) if v <= m => {}
                _ => stats.max = Some(v.clone()),
            }
            if track_distinct {
                distinct.insert(v.clone());
                if distinct.len() > MAX_DISTINCT_TRACKED {
                    track_distinct = false;
                    distinct.clear();
                }
            }
        }
        if track_distinct {
            stats.distinct = Some(distinct.into_iter().collect());
        }
        stats
    }

    /// Whether some row in the partition **might** equal `v`. `false` means
    /// the partition can be pruned for an equality predicate on this column.
    pub fn might_equal(&self, v: &Value) -> bool {
        if v.is_null() {
            return self.null_count > 0;
        }
        if let Some(distinct) = &self.distinct {
            return distinct.iter().any(|d| d == v);
        }
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => v >= min && v <= max,
            _ => false,
        }
    }

    /// Whether some row **might** fall within `[low, high]` (either bound
    /// optional). `false` means the partition can be pruned for a range
    /// predicate.
    pub fn might_overlap(&self, low: Option<&Value>, high: Option<&Value>) -> bool {
        let (min, max) = match (&self.min, &self.max) {
            (Some(min), Some(max)) => (min, max),
            _ => return self.null_count < self.row_count, // no stats: cannot prune
        };
        if let Some(low) = low {
            if max < low {
                return false;
            }
        }
        if let Some(high) = high {
            if min > high {
                return false;
            }
        }
        true
    }
}

/// Statistics for every column of one partition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartitionStats {
    /// Per-column statistics, aligned with the schema.
    pub columns: Vec<ColumnStats>,
    /// Number of rows in the partition.
    pub num_rows: u64,
}

impl PartitionStats {
    /// Collect statistics for all columns of a row-oriented partition.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> PartitionStats {
        let mut columns = Vec::with_capacity(schema.len());
        for c in 0..schema.len() {
            let values: Vec<Value> = rows.iter().map(|r| r.get(c).clone()).collect();
            columns.push(ColumnStats::from_values(&values));
        }
        PartitionStats {
            columns,
            num_rows: rows.len() as u64,
        }
    }

    /// Statistics for one column.
    pub fn column(&self, i: usize) -> &ColumnStats {
        &self.columns[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_common::{row, DataType};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("ts", DataType::Int),
            ("country", DataType::Str),
            ("score", DataType::Float),
        ])
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            row![100i64, "US", 1.5f64],
            row![150i64, "US", 2.5f64],
            row![200i64, "FR", Value::Null],
        ]
    }

    #[test]
    fn min_max_and_distinct_collected() {
        let stats = PartitionStats::from_rows(&schema(), &sample_rows());
        assert_eq!(stats.num_rows, 3);
        let ts = stats.column(0);
        assert_eq!(ts.min, Some(Value::Int(100)));
        assert_eq!(ts.max, Some(Value::Int(200)));
        let country = stats.column(1);
        assert_eq!(
            country.distinct.as_ref().map(|d| d.len()),
            Some(2),
            "distinct countries"
        );
        let score = stats.column(2);
        assert_eq!(score.null_count, 1);
    }

    #[test]
    fn equality_pruning() {
        let stats = PartitionStats::from_rows(&schema(), &sample_rows());
        let country = stats.column(1);
        assert!(country.might_equal(&Value::str("US")));
        assert!(!country.might_equal(&Value::str("JP")));
        let ts = stats.column(0);
        assert!(ts.might_equal(&Value::Int(150)));
        assert!(!ts.might_equal(&Value::Int(500)));
    }

    #[test]
    fn range_pruning() {
        let stats = PartitionStats::from_rows(&schema(), &sample_rows());
        let ts = stats.column(0);
        assert!(ts.might_overlap(Some(&Value::Int(150)), Some(&Value::Int(300))));
        assert!(!ts.might_overlap(Some(&Value::Int(201)), None));
        assert!(!ts.might_overlap(None, Some(&Value::Int(99))));
        assert!(ts.might_overlap(None, None));
    }

    #[test]
    fn nulls_and_empty_columns() {
        let stats = ColumnStats::from_values(&[Value::Null, Value::Null]);
        assert!(stats.might_equal(&Value::Null));
        assert!(!stats.might_equal(&Value::Int(1)));
        assert!(!stats.might_overlap(Some(&Value::Int(0)), None));

        let empty = ColumnStats::from_values(&[]);
        assert!(!empty.might_equal(&Value::Int(0)));
    }

    #[test]
    fn high_cardinality_drops_distinct_but_keeps_range() {
        let values: Vec<Value> = (0..1000).map(Value::Int).collect();
        let stats = ColumnStats::from_values(&values);
        assert!(stats.distinct.is_none());
        assert_eq!(stats.min, Some(Value::Int(0)));
        assert_eq!(stats.max, Some(Value::Int(999)));
        // Falls back to range checks for equality.
        assert!(stats.might_equal(&Value::Int(500)));
        assert!(!stats.might_equal(&Value::Int(5000)));
    }
}
