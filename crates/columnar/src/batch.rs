//! Batch-at-a-time execution over encoded columns.
//!
//! A [`ColumnBatch`] is the unit the vectorized operators work on: a borrowed
//! view of one cached [`ColumnarPartition`], a column projection, and a
//! [`Selection`] of the rows that are still alive after the predicates applied
//! so far. Filters shrink the selection without touching the encoded data;
//! `Row`s are only built at the very end ([`ColumnBatch::materialize`]), which
//! is the late-materialization discipline of vectorized engines: a selective
//! scan never pays the per-row allocation cost for rows it is about to drop.
//!
//! Expressions over a batch read its columns as [`Vector`]s: one typed
//! value per selected row (`i64`, `i32` dates, `f64`, `bool`, or a string
//! borrowed from the column), or — for a dictionary or run-length column —
//! the column's distinct entries plus one code per selected row, so an
//! expression over them runs once per entry instead of once per row.

use std::sync::Arc;

use shark_common::{DataType, Row, Value, ValueRef};

use crate::column::{unpack_bits, EncodedColumn, NullMask};
use crate::partition::ColumnarPartition;

/// The set of partition rows still alive in a [`ColumnBatch`].
///
/// `All(n)` is the state before any predicate ran; predicate kernels narrow
/// it to an explicit, strictly ascending row-index list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Every row of a partition with `n` rows is selected.
    All(usize),
    /// An explicit, ascending list of selected row indices.
    Rows(Vec<u32>),
}

impl Selection {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            Selection::All(n) => *n,
            Selection::Rows(rows) => rows.len(),
        }
    }

    /// True when no rows survive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the selected partition-row indices in ascending order.
    pub fn iter(&self) -> SelectionIter<'_> {
        match self {
            Selection::All(n) => SelectionIter::All(0..*n),
            Selection::Rows(rows) => SelectionIter::Rows(rows.iter()),
        }
    }
}

/// Iterator over the row indices of a [`Selection`].
pub enum SelectionIter<'a> {
    /// Dense range over every row.
    All(std::ops::Range<usize>),
    /// Sparse ascending index list.
    Rows(std::slice::Iter<'a, u32>),
}

impl Iterator for SelectionIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            SelectionIter::All(r) => r.next(),
            SelectionIter::Rows(it) => it.next().map(|&i| i as usize),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SelectionIter::All(r) => r.size_hint(),
            SelectionIter::Rows(it) => it.size_hint(),
        }
    }
}

/// A projected, filtered view over one [`ColumnarPartition`].
///
/// Columns stay in their compressed encodings for as long as possible;
/// operators communicate which rows survive through the [`Selection`].
pub struct ColumnBatch<'a> {
    partition: &'a ColumnarPartition,
    /// Original partition column index of each projected column.
    projection: &'a [usize],
    selection: Selection,
}

impl<'a> ColumnBatch<'a> {
    /// View `partition` through `projection` (original column indices, in
    /// output order) with every row selected.
    pub fn new(partition: &'a ColumnarPartition, projection: &'a [usize]) -> ColumnBatch<'a> {
        ColumnBatch {
            partition,
            projection,
            selection: Selection::All(partition.num_rows()),
        }
    }

    /// Number of projected columns.
    pub fn num_columns(&self) -> usize {
        self.projection.len()
    }

    /// Number of rows currently selected.
    pub fn num_selected(&self) -> usize {
        self.selection.len()
    }

    /// The current selection.
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// Replace the selection (used by predicate kernels).
    pub fn set_selection(&mut self, selection: Selection) {
        self.selection = selection;
    }

    /// Borrow the encoded column behind projected column `i`.
    pub fn column(&self, i: usize) -> &EncodedColumn {
        self.partition.column(self.projection[i])
    }

    /// Logical type of projected column `i`.
    pub fn column_type(&self, i: usize) -> DataType {
        self.partition.column_type(self.projection[i])
    }

    /// Decode one projected column for exactly the selected rows, in
    /// selection order (a dictionary or run-length column decodes each
    /// entry once).
    pub fn gather(&self, col: usize) -> Vec<Value> {
        self.vector(col).into_values(self.selection.len())
    }

    /// Projected column `col` as a [`Vector`] over the selection. A
    /// dictionary or run-length column whose entries are no more than the
    /// selected rows comes back coded: its entries (plus a NULL entry when
    /// it has NULLs) and each selected row's entry.
    pub fn vector(&self, col: usize) -> Vector<'a> {
        let partition: &'a ColumnarPartition = self.partition;
        let column = partition.column(self.projection[col]);
        let data_type = self.column_type(col);
        let sel = &self.selection;
        let valid = |nulls: &NullMask| -> Option<Vec<bool>> {
            nulls.as_ref().map(|m| sel.iter().map(|i| m[i]).collect())
        };
        let ints = |values: Vec<i64>, valid: Option<Vec<bool>>| {
            let data = if data_type == DataType::Date {
                VectorData::Date(values.into_iter().map(|v| v as i32).collect())
            } else {
                VectorData::Int(values)
            };
            Vector { data, valid }
        };
        // The entries, a NULL entry last if the column has NULLs, and each
        // selected row's entry; decoded when the entries outnumber the rows.
        let coded = |mut domain: Vector<'a>, codes: Vec<u32>, nulls: &NullMask| {
            let entries = domain.len();
            let codes = match nulls {
                None => codes,
                Some(mask) => {
                    domain.push_null_entry();
                    let null_code = entries as u32;
                    sel.iter()
                        .zip(codes)
                        .map(|(i, c)| if mask[i] { c } else { null_code })
                        .collect()
                }
            };
            if entries <= sel.len() {
                Vector::from(VectorData::Coded {
                    domain: Box::new(domain),
                    codes,
                })
            } else {
                Vector::take(&domain, &codes)
            }
        };
        match column {
            EncodedColumn::IntPlain { values, nulls } => {
                ints(sel.iter().map(|i| values[i]).collect(), valid(nulls))
            }
            EncodedColumn::IntBitPacked {
                min,
                bits,
                words,
                nulls,
                ..
            } => ints(
                sel.iter()
                    .map(|i| min + unpack_bits(words, *bits, i) as i64)
                    .collect(),
                valid(nulls),
            ),
            EncodedColumn::FloatPlain { values, nulls } => Vector {
                data: VectorData::Float(sel.iter().map(|i| values[i]).collect()),
                valid: valid(nulls),
            },
            EncodedColumn::BoolPacked { words, nulls, .. } => Vector {
                data: VectorData::Bool(
                    sel.iter()
                        .map(|i| words[i / 64] >> (i % 64) & 1 == 1)
                        .collect(),
                ),
                valid: valid(nulls),
            },
            EncodedColumn::StrPlain { values, nulls } => Vector {
                data: VectorData::Str(sel.iter().map(|i| Text::Shared(&values[i])).collect()),
                valid: valid(nulls),
            },
            EncodedColumn::IntRle { runs, nulls, .. } => coded(
                ints(runs.iter().map(|&(v, _)| v).collect(), None),
                run_of_each(runs.iter().map(|&(_, n)| n), sel),
                nulls,
            ),
            EncodedColumn::StrRle { runs, nulls, .. } => coded(
                VectorData::Str(runs.iter().map(|(s, _)| Text::Shared(s)).collect()).into(),
                run_of_each(runs.iter().map(|&(_, n)| n), sel),
                nulls,
            ),
            EncodedColumn::StrDict { dict, codes, nulls } => coded(
                VectorData::Str(dict.iter().map(Text::Shared).collect()).into(),
                sel.iter().map(|i| codes[i]).collect(),
                nulls,
            ),
            EncodedColumn::AllNull { .. } => Vector::constant(Value::Null),
        }
    }

    /// Late materialization: build output [`Row`]s for the surviving
    /// selection only. Produces exactly the rows (and row order) that
    /// decoding every column and filtering row-wise would.
    pub fn materialize(&self) -> Vec<Row> {
        let gathered: Vec<Vec<Value>> =
            (0..self.projection.len()).map(|c| self.gather(c)).collect();
        (0..self.selection.len())
            .map(|r| Row::new(gathered.iter().map(|col| col[r].clone()).collect()))
            .collect()
    }
}

/// For each selected row (ascending), the index of the run that holds it
/// (the run count past the last run): one forward walk over the run
/// lengths.
fn run_of_each(mut run_lens: impl Iterator<Item = u32>, selection: &Selection) -> Vec<u32> {
    let mut out = Vec::with_capacity(selection.len());
    let mut run = 0u32;
    let mut run_end = run_lens.next().map_or(usize::MAX, |n| n as usize);
    for i in selection.iter() {
        while i >= run_end {
            run += 1;
            run_end = run_lens.next().map_or(usize::MAX, |n| run_end + n as usize);
        }
        out.push(run);
    }
    out
}

/// A string element of a [`Vector`]: a column's own string, or a view into
/// one (what `SUBSTR` yields).
#[derive(Debug, Clone, Copy)]
pub enum Text<'a> {
    /// A string stored in the column.
    Shared(&'a Arc<str>),
    /// A slice of a string stored in the column.
    View(&'a str),
}

impl<'a> Text<'a> {
    /// The string, borrowed from the column.
    pub fn as_str(self) -> &'a str {
        match self {
            Text::Shared(s) => s,
            Text::View(s) => s,
        }
    }

    /// An owned string: a shared string is one more reference, a view is
    /// copied.
    pub fn to_arc(self) -> Arc<str> {
        match self {
            Text::Shared(s) => Arc::clone(s),
            Text::View(s) => Arc::from(s),
        }
    }
}

/// The values of one column or expression over a batch's selection.
#[derive(Debug, Clone)]
pub enum VectorData<'a> {
    /// Integers.
    Int(Vec<i64>),
    /// Dates, as days since the epoch.
    Date(Vec<i32>),
    /// Floats.
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Strings of the batch's columns.
    Str(Vec<Text<'a>>),
    /// Computed values of any type (NULLs in place).
    Values(Vec<Value>),
    /// One value for every row.
    Const(Value),
    /// Per row, an index into `domain`: the entries of a dictionary or
    /// run-length column, or an expression evaluated once over them.
    Coded {
        /// The distinct entries.
        domain: Box<Vector<'a>>,
        /// Each selected row's entry.
        codes: Vec<u32>,
    },
}

/// One typed value per selected row of a [`ColumnBatch`], with validity:
/// `valid[k] == false` marks row `k` NULL (`None`: no NULLs). The values
/// under a NULL are placeholders.
#[derive(Debug, Clone)]
pub struct Vector<'a> {
    /// The values.
    pub data: VectorData<'a>,
    /// Validity per row; `None` when no row is NULL.
    pub valid: Option<Vec<bool>>,
}

impl<'a> From<VectorData<'a>> for Vector<'a> {
    fn from(data: VectorData<'a>) -> Self {
        Vector { data, valid: None }
    }
}

impl<'a> Vector<'a> {
    /// The same value for every row.
    pub fn constant(value: Value) -> Vector<'a> {
        VectorData::Const(value).into()
    }

    /// Number of values (`usize::MAX` for a constant, which has one for
    /// any row).
    pub fn len(&self) -> usize {
        match &self.data {
            VectorData::Int(v) => v.len(),
            VectorData::Date(v) => v.len(),
            VectorData::Float(v) => v.len(),
            VectorData::Bool(v) => v.len(),
            VectorData::Str(v) => v.len(),
            VectorData::Values(v) => v.len(),
            VectorData::Const(_) => usize::MAX,
            VectorData::Coded { codes, .. } => codes.len(),
        }
    }

    /// True when the vector holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of row `k`, borrowed.
    #[inline]
    pub fn get(&self, k: usize) -> ValueRef<'_> {
        if let Some(valid) = &self.valid {
            if !valid[k] {
                return ValueRef::Null;
            }
        }
        match &self.data {
            VectorData::Int(v) => ValueRef::Int(v[k]),
            VectorData::Date(v) => ValueRef::Date(v[k]),
            VectorData::Float(v) => ValueRef::Float(v[k]),
            VectorData::Bool(v) => ValueRef::Bool(v[k]),
            VectorData::Str(v) => ValueRef::Str(v[k].as_str()),
            VectorData::Values(v) => v[k].as_ref(),
            VectorData::Const(v) => v.as_ref(),
            VectorData::Coded { domain, codes } => domain.get(codes[k] as usize),
        }
    }

    /// The value of row `k`, owned: a column's string is shared, not copied.
    pub fn value(&self, k: usize) -> Value {
        match &self.data {
            _ if self.valid.as_ref().is_some_and(|valid| !valid[k]) => Value::Null,
            VectorData::Str(v) => Value::Str(v[k].to_arc()),
            VectorData::Values(v) => v[k].clone(),
            VectorData::Const(v) => v.clone(),
            VectorData::Coded { domain, codes } => domain.value(codes[k] as usize),
            _ => self.get(k).to_value(),
        }
    }

    /// The values as owned `Value`s (`rows` of them for a constant).
    pub fn into_values(self, rows: usize) -> Vec<Value> {
        let Vector { data, valid } = self;
        let is_valid = |k: usize| valid.as_ref().is_none_or(|v| v[k]);
        let owned = |k: usize, v: Value| if is_valid(k) { v } else { Value::Null };
        match data {
            VectorData::Int(v) => v
                .into_iter()
                .enumerate()
                .map(|(k, x)| owned(k, Value::Int(x)))
                .collect(),
            VectorData::Date(v) => v
                .into_iter()
                .enumerate()
                .map(|(k, x)| owned(k, Value::Date(x)))
                .collect(),
            VectorData::Float(v) => v
                .into_iter()
                .enumerate()
                .map(|(k, x)| owned(k, Value::Float(x)))
                .collect(),
            VectorData::Bool(v) => v
                .into_iter()
                .enumerate()
                .map(|(k, x)| owned(k, Value::Bool(x)))
                .collect(),
            VectorData::Str(v) => v
                .into_iter()
                .enumerate()
                .map(|(k, x)| {
                    if is_valid(k) {
                        Value::Str(x.to_arc())
                    } else {
                        Value::Null
                    }
                })
                .collect(),
            VectorData::Values(v) => v,
            VectorData::Const(v) => vec![v; rows],
            VectorData::Coded { domain, codes } => {
                let entries = domain.into_values(0);
                codes.iter().map(|&c| entries[c as usize].clone()).collect()
            }
        }
    }

    /// Each row's entry of a coded column's `entries`, as a plain vector.
    fn take(entries: &Vector<'a>, codes: &[u32]) -> Vector<'a> {
        let data = match &entries.data {
            VectorData::Int(v) => VectorData::Int(codes.iter().map(|&c| v[c as usize]).collect()),
            VectorData::Date(v) => VectorData::Date(codes.iter().map(|&c| v[c as usize]).collect()),
            VectorData::Str(v) => VectorData::Str(codes.iter().map(|&c| v[c as usize]).collect()),
            _ => unreachable!("column entries are integers, dates or strings"),
        };
        let valid = entries
            .valid
            .as_ref()
            .map(|valid| codes.iter().map(|&c| valid[c as usize]).collect());
        Vector { data, valid }
    }

    /// Append a NULL entry (a coded column's entry for its NULL rows).
    fn push_null_entry(&mut self) {
        let n = self.len();
        match &mut self.data {
            VectorData::Int(v) => v.push(0),
            VectorData::Date(v) => v.push(0),
            VectorData::Str(v) => v.push(Text::View("")),
            _ => unreachable!("column entries are integers, dates or strings"),
        }
        self.valid.get_or_insert_with(|| vec![true; n]).push(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_common::{row, Schema};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("mode", DataType::Str),
            ("price", DataType::Float),
            ("day", DataType::Date),
        ])
    }

    fn partition(n: usize) -> ColumnarPartition {
        let modes = ["AIR", "SHIP", "TRUCK"];
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                row![
                    i as i64,
                    modes[i % 3],
                    i as f64 * 0.5,
                    Value::Date(10 + (i / 50) as i32)
                ]
            })
            .collect();
        ColumnarPartition::from_rows(&schema(), &rows)
    }

    #[test]
    fn materialize_all_matches_project_rows() {
        let part = partition(300);
        let projection = [1usize, 3];
        let batch = ColumnBatch::new(&part, &projection);
        assert_eq!(batch.materialize(), part.project_rows(&projection));
    }

    #[test]
    fn materialize_selection_matches_filtered_project_rows() {
        let part = partition(300);
        let projection = [0usize, 1, 2, 3];
        let mut batch = ColumnBatch::new(&part, &projection);
        batch.set_selection(Selection::Rows((0..300).step_by(7).collect()));
        let mut expected = part.project_rows(&projection);
        let mut keep = 0usize;
        expected.retain(|_| {
            let k = keep.is_multiple_of(7);
            keep += 1;
            k
        });
        assert_eq!(batch.materialize(), expected);
        assert_eq!(batch.num_selected(), expected.len());
    }

    #[test]
    fn gather_handles_every_encoding_with_sparse_selection() {
        let part = partition(300);
        let projection: Vec<usize> = (0..part.num_columns()).collect();
        for c in 0..part.num_columns() {
            let decoded = part.decode_column(c).unwrap();
            let mut batch = ColumnBatch::new(&part, &projection);
            batch.set_selection(Selection::Rows(vec![0, 3, 149, 150, 298]));
            let gathered = batch.gather(c);
            for (k, &i) in [0usize, 3, 149, 150, 298].iter().enumerate() {
                assert_eq!(gathered[k], decoded[i], "col {c} row {i}");
            }
        }
    }

    #[test]
    fn vectors_hold_the_gathered_values_for_every_encoding() {
        // `day` is run-length with NULL rows, `mode` a dictionary with NULL
        // rows, `id` bit-packed and `price` plain with NULLs.
        let rows: Vec<Row> = (0..300)
            .map(|i| {
                let null_or = |v: Value| if i % 9 == 4 { Value::Null } else { v };
                row![
                    i as i64,
                    null_or(Value::str(["AIR", "SHIP", "TRUCK"][i % 3])),
                    null_or(Value::Float(i as f64 * 0.5)),
                    null_or(Value::Date(10 + (i / 50) as i32))
                ]
            })
            .collect();
        let part = ColumnarPartition::from_rows(&schema(), &rows);
        let projection: Vec<usize> = (0..part.num_columns()).collect();
        for selection in [
            Selection::All(300),
            Selection::Rows(vec![0, 3, 4, 149, 150, 298]),
            Selection::Rows(vec![13]),
        ] {
            let mut batch = ColumnBatch::new(&part, &projection);
            batch.set_selection(selection);
            for c in 0..part.num_columns() {
                let gathered = batch.gather(c);
                let vector = batch.vector(c);
                for (k, expected) in gathered.iter().enumerate() {
                    assert_eq!(&vector.value(k), expected, "col {c} position {k}");
                    assert_eq!(vector.get(k).is_null(), expected.is_null());
                }
            }
        }
        // Every row selected: the dictionary and run-length columns come
        // back coded, one entry per dictionary value or run plus the NULL
        // entry.
        let batch = ColumnBatch::new(&part, &projection);
        for c in [1, 3] {
            let VectorData::Coded { domain, codes } = batch.vector(c).data else {
                panic!("column {c} is not coded");
            };
            assert_eq!(codes.len(), 300);
            assert!(domain.len() < 100, "{domain:?}");
            assert!(domain.get(domain.len() - 1).is_null());
        }
    }

    #[test]
    fn empty_selection_materializes_nothing() {
        let part = partition(10);
        let projection = [0usize];
        let mut batch = ColumnBatch::new(&part, &projection);
        batch.set_selection(Selection::Rows(Vec::new()));
        assert!(batch.selection().is_empty());
        assert!(batch.materialize().is_empty());
    }
}
