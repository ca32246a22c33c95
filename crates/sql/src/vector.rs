//! Vectorized predicate kernels and batch-at-a-time partial aggregation.
//!
//! The row path evaluates every pushed-down filter against every decoded
//! `Row`. The vectorized path instead compiles each filter into a
//! [`FilterKernel`] that runs directly over a [`ColumnBatch`]'s compressed
//! encodings, narrowing the batch's [`Selection`] without building rows:
//!
//! * run-length columns evaluate the predicate once *per run* and skip whole
//!   runs of non-matching values;
//! * dictionary columns evaluate the predicate once *per dictionary entry*
//!   and then test each row's code against the precomputed bitmap;
//! * anything else falls back to per-selected-row evaluation, and filters
//!   that are not a simple `column <op> literal` comparison fall back to the
//!   row evaluator against a scratch row.
//!
//! All kernels produce exactly the rows `BoundExpr::eval_predicate` keeps, so
//! the vectorized scan is byte-identical to the row scan.

use shark_columnar::{ColumnBatch, EncodedColumn, Selection};
use shark_common::hash::GroupTable;
use shark_common::{DataType, Row, Value};

use crate::aggregate::{AggExpr, AggStates};
use crate::ast::BinaryOp;
use crate::expr::{eval_binary, flip, BoundExpr};

/// A pushed-down filter compiled for batch execution.
pub enum FilterKernel {
    /// `column <op> literal` (or the flipped literal-first form): the shape
    /// the encoding-aware kernels accelerate.
    Cmp {
        /// Projected column index the comparison reads.
        col: usize,
        /// Comparison operator, normalized to column-on-the-left.
        op: BinaryOp,
        /// The literal operand.
        lit: Value,
    },
    /// Any other predicate: evaluated row-by-row against a scratch row.
    Generic(BoundExpr),
}

impl FilterKernel {
    /// Compile one pushed-down filter.
    pub fn compile(filter: &BoundExpr) -> FilterKernel {
        if let BoundExpr::Binary { left, op, right } = filter {
            if op.is_comparison() {
                match (left.as_ref(), right.as_ref()) {
                    (BoundExpr::Column(c), BoundExpr::Literal(v)) => {
                        return FilterKernel::Cmp {
                            col: *c,
                            op: *op,
                            lit: v.clone(),
                        }
                    }
                    (BoundExpr::Literal(v), BoundExpr::Column(c)) => {
                        return FilterKernel::Cmp {
                            col: *c,
                            op: flip(*op),
                            lit: v.clone(),
                        }
                    }
                    _ => {}
                }
            }
        }
        FilterKernel::Generic(filter.clone())
    }

    /// Narrow `batch`'s selection to the rows this filter keeps.
    pub fn apply(&self, batch: &mut ColumnBatch<'_>) {
        match self {
            FilterKernel::Cmp { col, op, lit } => apply_cmp(batch, *col, *op, lit),
            FilterKernel::Generic(expr) => {
                let mut sel = batch.selection().clone();
                sel.retain(|i| expr.eval_predicate(&batch.scratch_row(i)));
                batch.set_selection(sel);
            }
        }
    }
}

/// Run value of an integer-family RLE column under its logical type.
fn make_int(v: i64, data_type: DataType) -> Value {
    if data_type == DataType::Date {
        Value::Date(v as i32)
    } else {
        Value::Int(v)
    }
}

/// Apply a `column <op> literal` comparison kernel.
fn apply_cmp(batch: &mut ColumnBatch<'_>, col: usize, op: BinaryOp, lit: &Value) {
    let data_type = batch.column_type(col);
    let mut sel = batch.selection().clone();
    match batch.column(col) {
        // Run-length columns: decide once per run, then sweep the selection
        // with a single forward cursor — whole non-matching runs are skipped
        // without ever decoding a value.
        EncodedColumn::IntRle { runs, nulls, .. } => {
            let keep_run: Vec<bool> = runs
                .iter()
                .map(|&(v, _)| eval_binary(&make_int(v, data_type), op, lit).is_truthy())
                .collect();
            retain_rle(&mut sel, runs.iter().map(|&(_, n)| n), &keep_run, nulls);
        }
        EncodedColumn::StrRle { runs, nulls, .. } => {
            let keep_run: Vec<bool> = runs
                .iter()
                .map(|(s, _)| eval_binary(&Value::Str(s.clone()), op, lit).is_truthy())
                .collect();
            retain_rle(&mut sel, runs.iter().map(|(_, n)| *n), &keep_run, nulls);
        }
        // Dictionary columns: evaluate the predicate over the (small)
        // dictionary once, then the per-row test is a single bitmap probe on
        // the code — no string comparisons in the row loop.
        EncodedColumn::StrDict {
            dict, codes, nulls, ..
        } => {
            let keep_code: Vec<bool> = dict
                .iter()
                .map(|s| eval_binary(&Value::Str(s.clone()), op, lit).is_truthy())
                .collect();
            sel.retain(|i| !is_null_at(nulls, i) && keep_code[codes[i] as usize]);
        }
        // Comparing NULL with anything is never truthy.
        EncodedColumn::AllNull { .. } => sel = Selection::Rows(Vec::new()),
        // O(1)-access encodings: evaluate per selected row on the decoded
        // value, still without building a scratch row.
        other => {
            sel.retain(|i| eval_binary(&other.value_at(i, data_type), op, lit).is_truthy());
        }
    }
    batch.set_selection(sel);
}

/// Sweep an ascending selection across RLE runs, keeping rows whose run
/// matched and whose null-mask bit (if any) marks them valid.
fn retain_rle(
    sel: &mut Selection,
    run_lens: impl Iterator<Item = u32>,
    keep_run: &[bool],
    nulls: &Option<Vec<bool>>,
) {
    let ends: Vec<usize> = run_lens
        .scan(0usize, |acc, n| {
            *acc += n as usize;
            Some(*acc)
        })
        .collect();
    let mut run_idx = 0usize;
    sel.retain(|i| {
        while run_idx < ends.len() && i >= ends[run_idx] {
            run_idx += 1;
        }
        !is_null_at(nulls, i) && keep_run.get(run_idx).copied().unwrap_or(false)
    });
}

fn is_null_at(mask: &Option<Vec<bool>>, i: usize) -> bool {
    mask.as_ref().map(|m| !m[i]).unwrap_or(false)
}

/// Where a group key or aggregate argument comes from in the batch.
enum ValueSource {
    /// A bare column reference: gathered once for the whole selection.
    Gathered(Vec<Value>),
    /// Any other expression: evaluated against a per-row scratch row.
    Expr(BoundExpr),
    /// `COUNT(*)` — no argument.
    Star,
}

impl ValueSource {
    fn for_expr(batch: &ColumnBatch<'_>, expr: &BoundExpr) -> ValueSource {
        match expr {
            BoundExpr::Column(c) => ValueSource::Gathered(batch.gather(*c)),
            other => ValueSource::Expr(other.clone()),
        }
    }

    fn needs_scratch(&self) -> bool {
        matches!(self, ValueSource::Expr(_))
    }

    /// Value for the `k`-th selected row (`row` is its partition index).
    fn value(&self, k: usize, scratch: Option<&Row>) -> Option<Value> {
        match self {
            ValueSource::Gathered(vals) => Some(vals[k].clone()),
            ValueSource::Expr(e) => Some(e.eval(scratch.expect("scratch row"))),
            ValueSource::Star => None,
        }
    }
}

/// Batch-at-a-time partial aggregation: fold the selected rows of `batch`
/// into per-group [`AggStates`], keyed by the evaluated group expressions.
///
/// Groups are emitted in first-seen (row) order and each group's states are
/// updated in row order, so the result is exactly what the row path's
/// per-partition partial aggregation produces for the same input.
pub fn vector_partial_aggregate(
    batch: &ColumnBatch<'_>,
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
) -> Vec<(Row, AggStates)> {
    // Fast path: a single dictionary-encoded group column aggregates by
    // dictionary *code* — the hash map is replaced by a dense array indexed
    // by code (plus one slot for NULL) and no group key is materialized until
    // the group is first seen.
    if let [BoundExpr::Column(c)] = group_exprs {
        if let EncodedColumn::StrDict {
            dict, codes, nulls, ..
        } = batch.column(*c)
        {
            return dict_group_aggregate(batch, dict, codes, nulls, aggs);
        }
    }

    let group_sources: Vec<ValueSource> = group_exprs
        .iter()
        .map(|e| ValueSource::for_expr(batch, e))
        .collect();
    let agg_sources: Vec<ValueSource> = aggs
        .iter()
        .map(|a| match &a.arg {
            Some(e) => ValueSource::for_expr(batch, e),
            None => ValueSource::Star,
        })
        .collect();
    let needs_scratch = group_sources
        .iter()
        .chain(agg_sources.iter())
        .any(ValueSource::needs_scratch);

    // Each row's key is built in one reused buffer and looked up as a
    // slice: a group's `Row` is allocated once, at its first row.
    let mut groups: GroupTable<Row, AggStates> = GroupTable::default();
    let mut key: Vec<Value> = Vec::with_capacity(group_sources.len());
    for (k, i) in batch.selection().iter().enumerate() {
        let scratch = needs_scratch.then(|| batch.scratch_row(i));
        key.clear();
        key.extend(
            group_sources
                .iter()
                .map(|s| s.value(k, scratch.as_ref()).expect("group value")),
        );
        let update = |states: &mut AggStates| {
            for (state, source) in states.0.iter_mut().zip(agg_sources.iter()) {
                state.update(source.value(k, scratch.as_ref()).as_ref());
            }
        };
        groups.fold_ref(key.as_slice(), update, || {
            let mut states = AggStates::new(aggs);
            update(&mut states);
            (Row::new(key.clone()), states)
        });
    }
    groups.into_vec()
}

/// Dictionary-code group-by: one dense slot per dictionary entry.
fn dict_group_aggregate(
    batch: &ColumnBatch<'_>,
    dict: &[std::sync::Arc<str>],
    codes: &[u32],
    nulls: &Option<Vec<bool>>,
    aggs: &[AggExpr],
) -> Vec<(Row, AggStates)> {
    let agg_sources: Vec<ValueSource> = aggs
        .iter()
        .map(|a| match &a.arg {
            Some(e) => ValueSource::for_expr(batch, e),
            None => ValueSource::Star,
        })
        .collect();
    let needs_scratch = agg_sources.iter().any(ValueSource::needs_scratch);

    // Slot per code, final slot for NULL keys; `order` preserves first-seen
    // emission order so output matches the hash path exactly.
    let null_slot = dict.len();
    let mut slots: Vec<Option<AggStates>> = vec![None; dict.len() + 1];
    let mut order: Vec<usize> = Vec::new();
    for (k, i) in batch.selection().iter().enumerate() {
        let slot = if is_null_at(nulls, i) {
            null_slot
        } else {
            codes[i] as usize
        };
        let states = slots[slot].get_or_insert_with(|| {
            order.push(slot);
            AggStates::new(aggs)
        });
        let scratch = needs_scratch.then(|| batch.scratch_row(i));
        for (state, source) in states.0.iter_mut().zip(agg_sources.iter()) {
            state.update(source.value(k, scratch.as_ref()).as_ref());
        }
    }
    order
        .into_iter()
        .map(|slot| {
            let key = if slot == null_slot {
                Value::Null
            } else {
                Value::Str(dict[slot].clone())
            };
            (Row::new(vec![key]), slots[slot].take().expect("seen slot"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{SchemaResolver, UdfRegistry};
    use crate::parser::parse_select;
    use shark_columnar::ColumnarPartition;
    use shark_common::{row, Schema};
    use std::collections::HashMap;

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
                    Value::Date(10 + (i / 40) as i32)
                ]
            })
            .collect();
        ColumnarPartition::from_rows(&schema(), &rows)
    }

    fn bind(pred: &str) -> BoundExpr {
        let stmt = parse_select(&format!("SELECT 1 FROM t WHERE {pred}")).unwrap();
        let schema = schema();
        BoundExpr::bind(
            &stmt.selection.unwrap(),
            &SchemaResolver { schema: &schema },
            &UdfRegistry::new(),
        )
        .unwrap()
    }

    fn kept(part: &ColumnarPartition, pred: &str) -> Vec<usize> {
        let projection: Vec<usize> = (0..part.num_columns()).collect();
        let mut batch = ColumnBatch::new(part, &projection);
        FilterKernel::compile(&bind(pred)).apply(&mut batch);
        batch.selection().iter().collect()
    }

    fn expected(part: &ColumnarPartition, pred: &str) -> Vec<usize> {
        let filter = bind(pred);
        part.to_rows()
            .iter()
            .enumerate()
            .filter(|(_, r)| filter.eval_predicate(r))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn kernels_match_row_evaluation_for_every_encoding() {
        let part = partition(240);
        for pred in [
            "id < 100",         // bit-packed int
            "100 > id",         // flipped literal-first form
            "mode = 'SHIP'",    // dictionary
            "mode <> 'AIR'",    // dictionary, negative
            "price >= 60.0",    // plain float
            "day > 12",         // int RLE under Date typing
            "id % 2 = 0",       // generic fallback (arithmetic left side)
            "mode = 'MISSING'", // empty result
        ] {
            assert_eq!(kept(&part, pred), expected(&part, pred), "{pred}");
        }
    }

    #[test]
    fn partial_aggregate_matches_row_fold() {
        let part = partition(240);
        let projection: Vec<usize> = (0..part.num_columns()).collect();
        let batch = ColumnBatch::new(&part, &projection);
        let group = vec![BoundExpr::Column(1)];
        let aggs = vec![
            AggExpr {
                func: crate::aggregate::AggFunc::Count,
                arg: None,
            },
            AggExpr {
                func: crate::aggregate::AggFunc::Sum,
                arg: Some(BoundExpr::Column(2)),
            },
        ];
        let result = vector_partial_aggregate(&batch, &group, &aggs);

        // Row-path reference: fold rows in order into per-key states.
        let mut index: HashMap<Row, usize> = HashMap::new();
        let mut reference: Vec<(Row, AggStates)> = Vec::new();
        for r in part.to_rows() {
            let key = Row::new(vec![group[0].eval(&r)]);
            let slot = *index.entry(key.clone()).or_insert_with(|| {
                reference.push((key.clone(), AggStates::new(&aggs)));
                reference.len() - 1
            });
            reference[slot].1.update_row(&aggs, &r);
        }
        assert_eq!(result.len(), reference.len());
        for ((kv, sv), (kr, sr)) in result.iter().zip(reference.iter()) {
            assert_eq!(kv, kr);
            assert_eq!(sv.finalize(), sr.finalize());
        }
    }
}
