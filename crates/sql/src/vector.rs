//! Compiled expressions over column batches, and batch-at-a-time partial
//! aggregation.
//!
//! Each pushed-down filter, group key and aggregate argument is compiled
//! once per plan into a [`Kernel`]: a tree that mirrors its
//! [`BoundExpr`] and runs column-at-a-time over a [`ColumnBatch`]. Every
//! node turns its children's [`Vector`]s into its own, one value per
//! selected row. Columns read as typed slices with validity (`i64`, `f64`,
//! `bool`, strings borrowed from the column); a comparison with a literal
//! yields booleans and `SUBSTR` of a column yields views into its strings,
//! allocating nothing. Any other computed node holds plain `Value`s, which
//! for numbers and booleans allocate nothing either. No `Row` is built.
//!
//! * A node whose only input is one dictionary or run-length column runs
//!   once per dictionary entry or run, and its result stays coded: each
//!   row reads its entry's value by code. So `countryCode NOT IN (…)` is a
//!   handful of comparisons and one lookup per row.
//! * Comparisons of a column with a literal compare the typed values
//!   directly; every other operator and function applies the one scalar
//!   definition in `expr.rs` (`eval_binary_ref`, `eval_scalar_ref`,
//!   `substr`, `between`, `in_list`) to the borrowed values, so the kernels
//!   cannot drift from the row evaluator.
//! * A UDF is called row by row with its arguments' values (the scalar
//!   adapter); its arguments are kernels, so it reads only the columns they
//!   reference. Plans note each such call (`note_scalar_adapter`).
//!
//! Group keys are hashed and compared as bytes encoded from the typed
//! values in one reused buffer, and a group's key values are kept at its
//! first row, in the flat group block the partial aggregate builds. The kernels keep exactly the rows, and fold exactly the
//! groups and states, that the row path does, so the vectorized scan is
//! byte-identical to it; what they charge is set by the plan
//! (`BoundExpr::op_count`), not by the kernel.

use std::borrow::Cow;
use std::cmp::Ordering;

use shark_columnar::{ColumnBatch, Selection, Text, Vector, VectorData};
use shark_common::hash::fx_hash;
use shark_common::{Value, ValueRef};

use crate::aggregate::{AggExpr, GroupBlock, GroupFold};
use crate::ast::BinaryOp;
use crate::expr::{
    between, eval_binary_ref, eval_scalar_ref, flip, holds, in_list, not, substr, BoundExpr,
    ScalarFunc, ScalarOut, UdfFn,
};

/// A [`BoundExpr`] compiled for batch execution.
pub struct Kernel {
    node: Node,
    /// The one projected column this expression reads, when it reads
    /// exactly one and calls no UDF: then it can run once per dictionary
    /// entry or run of that column.
    input: Option<usize>,
}

enum Node {
    Column(usize),
    Literal(Value),
    Binary(Box<Kernel>, BinaryOp, Box<Kernel>),
    Not(Box<Kernel>),
    IsNull(Box<Kernel>, bool),
    /// `[expr, low, high]`, negated.
    Between(Box<[Kernel; 3]>, bool),
    InList(Box<Kernel>, Vec<Kernel>, bool),
    Func(ScalarFunc, Vec<Kernel>),
    Udf(UdfFn, Vec<Kernel>),
}

/// What a subtree reads: no column, one column, or more (or a UDF).
#[derive(Clone, Copy, PartialEq)]
enum Inputs {
    None,
    One(usize),
    Many,
}

impl Inputs {
    fn and(self, other: Inputs) -> Inputs {
        match (self, other) {
            (Inputs::None, x) | (x, Inputs::None) => x,
            (Inputs::One(a), Inputs::One(b)) if a == b => Inputs::One(a),
            _ => Inputs::Many,
        }
    }
}

/// A child's vector: borrowed when it is the one input column itself.
type Input<'v, 'a> = Cow<'v, Vector<'a>>;

impl Kernel {
    /// Compile an expression over a batch's projected columns.
    pub fn compile(expr: &BoundExpr) -> Kernel {
        Self::compile_with_inputs(expr).0
    }

    fn compile_with_inputs(expr: &BoundExpr) -> (Kernel, Inputs) {
        let mut inputs = Inputs::None;
        let mut child = |e: &BoundExpr| {
            let (kernel, reads) = Self::compile_with_inputs(e);
            inputs = inputs.and(reads);
            kernel
        };
        let node = match expr {
            BoundExpr::Column(c) => {
                inputs = Inputs::One(*c);
                Node::Column(*c)
            }
            BoundExpr::Literal(v) => Node::Literal(v.clone()),
            BoundExpr::Binary { left, op, right } => {
                Node::Binary(Box::new(child(left)), *op, Box::new(child(right)))
            }
            BoundExpr::Not(e) => Node::Not(Box::new(child(e))),
            BoundExpr::IsNull { expr, negated } => Node::IsNull(Box::new(child(expr)), *negated),
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => Node::Between(Box::new([child(expr), child(low), child(high)]), *negated),
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let expr = Box::new(child(expr));
                Node::InList(expr, list.iter().map(&mut child).collect(), *negated)
            }
            BoundExpr::Func { func, args } => Node::Func(*func, args.iter().map(child).collect()),
            BoundExpr::Udf { f, args, .. } => {
                let args = args.iter().map(&mut child).collect();
                inputs = Inputs::Many;
                Node::Udf(f.clone(), args)
            }
        };
        let input = match inputs {
            Inputs::One(c) => Some(c),
            _ => None,
        };
        (Kernel { node, input }, inputs)
    }

    /// The expression's values over `batch`'s selection.
    pub fn eval<'a>(&self, batch: &ColumnBatch<'a>) -> Vector<'a> {
        match (&self.node, self.input) {
            (Node::Column(c), _) => batch.vector(*c),
            (_, Some(c)) => match batch.vector(c) {
                Vector {
                    data: VectorData::Coded { domain, codes },
                    ..
                } => {
                    let n = domain.len();
                    let entries = self.apply(n, &|k: &Kernel| k.over(&domain, n));
                    VectorData::Coded {
                        domain: Box::new(entries),
                        codes,
                    }
                    .into()
                }
                column => {
                    let n = batch.num_selected();
                    self.apply(n, &|k: &Kernel| k.over(&column, n))
                }
            },
            _ => self.apply(batch.num_selected(), &|k: &Kernel| {
                Cow::Owned(k.eval(batch))
            }),
        }
    }

    /// Evaluate over the `n` values of `column`, this expression's one
    /// input.
    fn over<'v, 'a>(&self, column: &'v Vector<'a>, n: usize) -> Input<'v, 'a> {
        match &self.node {
            Node::Column(_) => Cow::Borrowed(column),
            _ => Cow::Owned(self.apply(n, &|k: &Kernel| k.over(column, n))),
        }
    }

    /// Evaluate this node over `n` rows, given how to evaluate a child.
    fn apply<'v, 'a>(&self, n: usize, child: &dyn Fn(&Kernel) -> Input<'v, 'a>) -> Vector<'a> {
        match &self.node {
            Node::Column(_) => unreachable!("a column is read, not applied"),
            Node::Literal(v) => Vector::constant(v.clone()),
            Node::Binary(left, op, right) => {
                let (left, right) = (child(left), child(right));
                if op.is_comparison() {
                    if let Some(out) = compare(&left, *op, &right) {
                        return out;
                    }
                }
                map(n, |k| eval_binary_ref(left.get(k), *op, right.get(k)))
            }
            Node::Not(e) => {
                let e = child(e);
                map(n, |k| not(e.get(k)))
            }
            Node::IsNull(e, negated) => {
                let e = child(e);
                VectorData::Bool((0..n).map(|k| e.get(k).is_null() != *negated).collect()).into()
            }
            Node::Between(parts, negated) => {
                let [x, low, high] = parts.as_ref();
                let (x, low, high) = (child(x), child(low), child(high));
                if let Some(out) = between_literals(&x, &low, &high, *negated) {
                    return out;
                }
                map(n, |k| between(x.get(k), low.get(k), high.get(k), *negated))
            }
            Node::InList(x, list, negated) => {
                let x = child(x);
                let list: Vec<Input<'v, 'a>> = list.iter().map(child).collect();
                map(n, |k| {
                    let v = x.get(k);
                    let entries = list.iter().map(|e| {
                        let entry = e.get(k);
                        (!entry.is_null()).then(|| v.total_cmp(entry) == Ordering::Equal)
                    });
                    in_list(v.is_null(), entries, *negated)
                })
            }
            Node::Func(func, args) => {
                let args: Vec<Input<'v, 'a>> = args.iter().map(child).collect();
                if *func == ScalarFunc::Substr {
                    if let Some(cut) = substr_of_column(&args) {
                        return cut;
                    }
                }
                map(n, |k| {
                    match eval_scalar_ref(*func, args.len(), |i| args[i].get(k)) {
                        ScalarOut::Arg(i) => args[i].value(k),
                        ScalarOut::Slice(s) => Value::str(s),
                        ScalarOut::Value(v) => v,
                    }
                })
            }
            // The scalar adapter: the UDF sees its arguments' values, row
            // by row.
            Node::Udf(f, args) => {
                let args: Vec<Input<'v, 'a>> = args.iter().map(child).collect();
                map(n, |k| {
                    let values: Vec<Value> = args.iter().map(|a| a.value(k)).collect();
                    f(&values)
                })
            }
        }
    }

    /// Narrow `batch`'s selection to the rows this predicate holds for
    /// (NULL and non-boolean results drop the row).
    pub fn filter(&self, batch: &mut ColumnBatch<'_>) {
        let keep = self.eval(batch);
        let selection = batch.selection();
        let mut rows = Vec::with_capacity(selection.len());
        rows.extend(
            selection
                .iter()
                .enumerate()
                .filter(|&(k, _)| keep.get(k).is_truthy())
                .map(|(_, i)| i as u32),
        );
        batch.set_selection(Selection::Rows(rows));
    }
}

/// `SUBSTR` of a string column at literal positions: views into the
/// column's strings, so nothing is allocated. `None` for any other shape.
fn substr_of_column<'a>(args: &[Input<'_, 'a>]) -> Option<Vector<'a>> {
    let literal = |i: usize| match args.get(i).map(|a| &a.data) {
        None => Some(None),
        Some(VectorData::Const(v)) => Some(v.as_int()),
        Some(_) => None,
    };
    let (VectorData::Str(texts), start, len) = (&args.first()?.data, literal(1)?, literal(2)?)
    else {
        return None;
    };
    let cut = |t: &Text<'a>| Text::View(substr(t.as_str(), start, len));
    Some(Vector {
        data: VectorData::Str(texts.iter().map(cut).collect()),
        valid: args[0].valid.clone(),
    })
}

/// A vector of `n` values, one computed per row.
fn map<'a>(n: usize, value: impl FnMut(usize) -> Value) -> Vector<'a> {
    VectorData::Values((0..n).map(value).collect()).into()
}

/// A typed column compared with a non-NULL literal (either side): the
/// comparison runs over the typed values, NULL rows stay NULL. `None` for
/// any other shape.
fn compare<'a>(left: &Vector<'a>, op: BinaryOp, right: &Vector<'a>) -> Option<Vector<'a>> {
    let (column, op, literal) = match (&left.data, &right.data) {
        (_, VectorData::Const(v)) if !v.is_null() => (left, op, v.as_ref()),
        (VectorData::Const(v), _) if !v.is_null() => (right, flip(op), v.as_ref()),
        _ => return None,
    };
    let test = |v: ValueRef<'_>| holds(op, v.total_cmp(literal));
    let bools: Vec<bool> = match &column.data {
        VectorData::Int(v) => v.iter().map(|&x| test(ValueRef::Int(x))).collect(),
        VectorData::Date(v) => v.iter().map(|&x| test(ValueRef::Date(x))).collect(),
        VectorData::Float(v) => v.iter().map(|&x| test(ValueRef::Float(x))).collect(),
        VectorData::Str(v) => v.iter().map(|x| test(ValueRef::Str(x.as_str()))).collect(),
        _ => return None,
    };
    Some(Vector {
        data: VectorData::Bool(bools),
        valid: column.valid.clone(),
    })
}

/// `x [NOT] BETWEEN low AND high` for a typed column between two non-NULL
/// literals: two typed comparisons, NULL rows stay NULL.
fn between_literals<'a>(
    x: &Vector<'a>,
    low: &Vector<'a>,
    high: &Vector<'a>,
    negated: bool,
) -> Option<Vector<'a>> {
    if !matches!(low.data, VectorData::Const(_)) || !matches!(high.data, VectorData::Const(_)) {
        return None;
    }
    let above = compare(x, BinaryOp::GtEq, low)?;
    let below = compare(x, BinaryOp::LtEq, high)?;
    let (VectorData::Bool(above), VectorData::Bool(below)) = (above.data, below.data) else {
        unreachable!("comparisons are boolean");
    };
    let within = above.iter().zip(&below).map(|(&a, &b)| (a && b) != negated);
    Some(Vector {
        data: VectorData::Bool(within.collect()),
        valid: x.valid.clone(),
    })
}

/// Append `v` to a group key's bytes. Two values of one type get the same
/// bytes exactly when they are equal as `Value`s: an integral number is
/// one integer whatever its type (so `-0.0` is `0`, and `3.0` matches
/// `3`), another float is its bits, a string is length-prefixed.
pub(crate) fn encode_key(buf: &mut Vec<u8>, v: ValueRef<'_>) {
    let int = |buf: &mut Vec<u8>, x: i64| {
        buf.push(2);
        buf.extend_from_slice(&x.to_le_bytes());
    };
    match v {
        ValueRef::Null => buf.push(0),
        ValueRef::Bool(b) => buf.extend_from_slice(&[1, b as u8]),
        ValueRef::Int(x) => int(buf, x),
        ValueRef::Date(d) => int(buf, i64::from(d)),
        ValueRef::Float(f) if f.fract() == 0.0 && (-9.2e18..9.2e18).contains(&f) => {
            int(buf, f as i64)
        }
        ValueRef::Float(f) => {
            buf.push(3);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        ValueRef::Str(s) => {
            buf.push(5);
            buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

/// Each selected row's group in `fold` (numbered in first-seen order); a
/// group's key values are kept at its first row. A single coded key looks
/// each of its entries up once; no key is one group.
fn assign_groups(keys: &[Vector<'_>], n: usize, fold: &mut GroupFold) -> Vec<u32> {
    let mut buf = Vec::new();
    let mut group_of_row = |k: usize, fold: &mut GroupFold| -> u32 {
        buf.clear();
        for key in keys {
            encode_key(&mut buf, key.get(k));
        }
        let values = |out: &mut Vec<Value>| out.extend(keys.iter().map(|key| key.value(k)));
        fold.group(fx_hash(&buf[..]), &buf, values) as u32
    };
    match keys {
        [Vector {
            data: VectorData::Coded { domain, codes },
            ..
        }] => {
            let mut of_entry = vec![u32::MAX; domain.len()];
            let mut out = Vec::with_capacity(n);
            for (k, &code) in codes.iter().enumerate() {
                let entry = &mut of_entry[code as usize];
                if *entry == u32::MAX {
                    *entry = group_of_row(k, fold);
                }
                out.push(*entry);
            }
            out
        }
        // No key: every row is in the one group.
        [] if n > 0 => vec![group_of_row(0, fold); n],
        _ => (0..n).map(|k| group_of_row(k, fold)).collect(),
    }
}

/// Batch-at-a-time partial aggregation: fold the selected rows of `batch`
/// into a [`GroupBlock`], keyed by the compiled group expressions, with
/// `args` the compiled argument of each of `aggs` (`None` for `COUNT(*)`).
///
/// Groups are numbered in first-seen (row) order and each group's states
/// are updated in row order, so the block is exactly what the row path's
/// `partial_aggregate_rows` builds for the same input.
pub fn vector_partial_aggregate(
    batch: &ColumnBatch<'_>,
    keys: &[Kernel],
    args: &[Option<Kernel>],
    aggs: &[AggExpr],
) -> GroupBlock {
    let n = batch.num_selected();
    let key_values: Vec<Vector<'_>> = keys.iter().map(|k| k.eval(batch)).collect();
    let mut fold = GroupFold::new(keys.len(), aggs);
    let group_of = assign_groups(&key_values, n, &mut fold);
    for (i, arg) in args.iter().enumerate() {
        let values = arg.as_ref().map(|a| a.eval(batch));
        for (k, &group) in group_of.iter().enumerate() {
            match &values {
                Some(values) => {
                    fold.update(i, group as usize, Some(values.get(k)), || values.value(k))
                }
                None => fold.update(i, group as usize, None, || Value::Null),
            }
        }
    }
    fold.finish()
}

/// Note each UDF call among `exprs`: the kernels run it row by row on the
/// scalar adapter.
pub(crate) fn note_scalar_adapter<'e>(
    notes: &mut Vec<String>,
    exprs: impl IntoIterator<Item = &'e BoundExpr>,
) {
    for expr in exprs {
        expr.visit(&mut |e| {
            if let BoundExpr::Udf { .. } = e {
                notes.push(format!(
                    "vectorized: {e:?} runs row by row on the scalar adapter"
                ));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{SchemaResolver, UdfRegistry};
    use crate::parser::parse_select;
    use shark_columnar::ColumnarPartition;
    use shark_common::{row, DataType, Row, Schema};

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
        Kernel::compile(&bind(pred)).filter(&mut batch);
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
            "id < 100",                              // bit-packed int
            "100 > id",                              // flipped literal-first form
            "mode = 'SHIP'",                         // dictionary
            "mode <> 'AIR'",                         // dictionary, negative
            "price >= 60.0",                         // plain float
            "day > 12",                              // int RLE under Date typing
            "id % 2 = 0",                            // arithmetic left side
            "mode = 'MISSING'",                      // empty result
            "mode NOT IN ('AIR', 'TRUCK')",          // dictionary, per entry
            "day BETWEEN 11 AND 13",                 // RLE dates against ints
            "SUBSTR(mode, 2, 2) = 'HI' OR id < 3",   // two inputs
            "price BETWEEN id AND 100",              // column bounds
            "id IN (3, NULL, 7)",                    // NULL list entry
            "NOT (id NOT IN (3, NULL))",             // NULL NOT IN
            "day BETWEEN NULL AND 12",               // NULL bound
            "LENGTH(UPPER(mode)) = 4 AND day <= 12", // functions
        ] {
            assert_eq!(kept(&part, pred), expected(&part, pred), "{pred}");
        }
    }

    #[test]
    fn a_single_dictionary_input_runs_once_per_entry() {
        let part = partition(240);
        let projection: Vec<usize> = (0..part.num_columns()).collect();
        let batch = ColumnBatch::new(&part, &projection);
        let values = Kernel::compile(&bind("mode NOT IN ('AIR')")).eval(&batch);
        let VectorData::Coded { domain, codes } = &values.data else {
            panic!("expected a coded result, got {:?}", values.data);
        };
        assert_eq!(domain.len(), 3);
        assert_eq!(codes.len(), 240);
    }

    #[test]
    fn partial_aggregate_matches_row_fold() {
        let part = partition(240);
        let projection: Vec<usize> = (0..part.num_columns()).collect();
        let batch = ColumnBatch::new(&part, &projection);
        let aggs = vec![
            AggExpr {
                func: crate::aggregate::AggFunc::Count,
                arg: None,
            },
            AggExpr {
                func: crate::aggregate::AggFunc::Sum,
                arg: Some(bind("price * 2")),
            },
            AggExpr {
                func: crate::aggregate::AggFunc::Max,
                arg: Some(bind("SUBSTR(mode, 2)")),
            },
        ];
        let args: Vec<Option<Kernel>> = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(Kernel::compile))
            .collect();
        for group in [
            vec![BoundExpr::Column(1)],
            vec![bind("SUBSTR(mode, 1, 1)")],
            vec![bind("id % 7"), BoundExpr::Column(3)],
        ] {
            let keys: Vec<Kernel> = group.iter().map(Kernel::compile).collect();
            let result = vector_partial_aggregate(&batch, &keys, &args, &aggs);
            let reference =
                crate::aggregate::partial_aggregate_rows(&part.to_rows(), &group, &aggs);
            assert_eq!(result.into_rows(), reference.into_rows(), "{group:?}");
        }
    }
}
