//! Bound (executable) expressions.
//!
//! The analyzer converts parsed [`ast::Expr`](crate::ast::Expr) trees into
//! [`BoundExpr`] trees whose column references are resolved to positions in
//! a concrete row layout. Bound expressions are cheap to clone, `Send +
//! Sync`, and are captured inside RDD closures for evaluation on every row
//! (Shark's compiled-closure analogue of Hive's interpreted evaluators, §5).

use std::cmp::Ordering;
use std::sync::Arc;

use shark_common::{DataType, Result, Row, Schema, SharkError, Value, ValueRef};

use crate::ast::{BinaryOp, Expr};

/// A user-defined scalar function, equal to another when both are the same
/// registered function.
#[derive(Clone)]
pub struct UdfFn(Arc<UdfBody>);

type UdfBody = dyn Fn(&[Value]) -> Value + Send + Sync;

impl PartialEq for UdfFn {
    fn eq(&self, other: &UdfFn) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl std::ops::Deref for UdfFn {
    type Target = UdfBody;

    fn deref(&self) -> &UdfBody {
        &*self.0
    }
}

/// Registry of user-defined scalar functions, looked up by lower-case name.
#[derive(Default, Clone)]
pub struct UdfRegistry {
    funcs: std::collections::HashMap<String, UdfFn>,
}

impl UdfRegistry {
    /// Create an empty registry.
    pub fn new() -> UdfRegistry {
        UdfRegistry::default()
    }

    /// Register a UDF under `name` (case-insensitive).
    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&[Value]) -> Value + Send + Sync + 'static,
    {
        self.funcs.insert(name.to_lowercase(), UdfFn(Arc::new(f)));
    }

    /// Look up a UDF.
    pub fn get(&self, name: &str) -> Option<UdfFn> {
        self.funcs.get(&name.to_lowercase()).cloned()
    }

    /// Number of registered UDFs.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `SUBSTR(str, start[, len])`, 1-based start like Hive.
    Substr,
    /// `UPPER(str)`
    Upper,
    /// `LOWER(str)`
    Lower,
    /// `LENGTH(str)`
    Length,
    /// `CONCAT(a, b, ...)`
    Concat,
    /// `ABS(x)`
    Abs,
    /// `ROUND(x)`
    Round,
    /// `YEAR(date)` — days-since-epoch to an approximate year.
    Year,
    /// `COALESCE(a, b, ...)`
    Coalesce,
    /// `IF(cond, a, b)`
    If,
}

impl ScalarFunc {
    /// Resolve a function name to a built-in scalar function.
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_lowercase().as_str() {
            "substr" | "substring" => ScalarFunc::Substr,
            "upper" => ScalarFunc::Upper,
            "lower" => ScalarFunc::Lower,
            "length" => ScalarFunc::Length,
            "concat" => ScalarFunc::Concat,
            "abs" => ScalarFunc::Abs,
            "round" => ScalarFunc::Round,
            "year" => ScalarFunc::Year,
            "coalesce" => ScalarFunc::Coalesce,
            "if" => ScalarFunc::If,
            _ => return None,
        })
    }
}

/// An executable expression bound to a row layout.
#[derive(Clone)]
pub enum BoundExpr {
    /// A resolved column position.
    Column(usize),
    /// A literal.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<BoundExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Logical NOT.
    Not(Box<BoundExpr>),
    /// `IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `[NOT] BETWEEN`.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Lower bound.
        low: Box<BoundExpr>,
        /// Upper bound.
        high: Box<BoundExpr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `[NOT] IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidate values.
        list: Vec<BoundExpr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// Built-in scalar function call.
    Func {
        /// The function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<BoundExpr>,
    },
    /// User-defined function call.
    Udf {
        /// Name (for plan display).
        name: String,
        /// The function.
        f: UdfFn,
        /// Arguments.
        args: Vec<BoundExpr>,
    },
}

/// Structural equality in which two literals are equal only when they are
/// of one type: `v / 2` divides integers and `v / 2.0` does not, though
/// `Value` calls `2` and `2.0` equal.
impl PartialEq for BoundExpr {
    fn eq(&self, other: &BoundExpr) -> bool {
        use BoundExpr as B;
        match (self, other) {
            (B::Column(a), B::Column(b)) => a == b,
            (B::Literal(a), B::Literal(b)) => {
                std::mem::discriminant(a) == std::mem::discriminant(b) && a == b
            }
            (
                B::Binary { left, op, right },
                B::Binary {
                    left: l,
                    op: o,
                    right: r,
                },
            ) => op == o && left == l && right == r,
            (B::Not(a), B::Not(b)) => a == b,
            (
                B::IsNull { expr, negated },
                B::IsNull {
                    expr: e,
                    negated: n,
                },
            ) => negated == n && expr == e,
            (
                B::Between {
                    expr,
                    low,
                    high,
                    negated,
                },
                B::Between {
                    expr: e,
                    low: l,
                    high: h,
                    negated: n,
                },
            ) => negated == n && expr == e && low == l && high == h,
            (
                B::InList {
                    expr,
                    list,
                    negated,
                },
                B::InList {
                    expr: e,
                    list: l,
                    negated: n,
                },
            ) => negated == n && expr == e && list == l,
            (B::Func { func, args }, B::Func { func: f, args: a }) => func == f && args == a,
            (B::Udf { f, args, .. }, B::Udf { f: g, args: a, .. }) => f == g && args == a,
            _ => false,
        }
    }
}

impl std::fmt::Debug for BoundExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundExpr::Column(i) => write!(f, "#{i}"),
            BoundExpr::Literal(v) => write!(f, "{v}"),
            BoundExpr::Binary { left, op, right } => write!(f, "({left:?} {op:?} {right:?})"),
            BoundExpr::Not(e) => write!(f, "NOT {e:?}"),
            BoundExpr::IsNull { expr, negated } => {
                write!(f, "{expr:?} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "{expr:?} {}BETWEEN {low:?} AND {high:?}",
                if *negated { "NOT " } else { "" }
            ),
            BoundExpr::InList { expr, list, .. } => write!(f, "{expr:?} IN {list:?}"),
            BoundExpr::Func { func, args } => write!(f, "{func:?}({args:?})"),
            BoundExpr::Udf { name, args, .. } => write!(f, "{name}({args:?})"),
        }
    }
}

/// Resolves column names to row positions during binding.
pub trait ColumnResolver {
    /// Resolve a possibly qualified column name to its position.
    fn resolve_column(&self, name: &str) -> Result<usize>;

    /// Bind a whole subexpression before [`BoundExpr::bind`] descends into
    /// it: `Some` is its binding, `None` lets `bind` go on. A resolver over
    /// an aggregate's output row turns GROUP BY keys and aggregate calls
    /// into its columns here.
    fn resolve_expr(&self, _expr: &Expr, _udfs: &UdfRegistry) -> Result<Option<BoundExpr>> {
        Ok(None)
    }
}

/// A resolver over a plain schema (unqualified and `alias.col` suffix match).
pub struct SchemaResolver<'a> {
    /// The schema describing the row layout.
    pub schema: &'a Schema,
}

impl ColumnResolver for SchemaResolver<'_> {
    fn resolve_column(&self, name: &str) -> Result<usize> {
        if let Some(i) = self.schema.index_of(name) {
            return Ok(i);
        }
        // Qualified name: try the bare column part.
        if let Some((_, col)) = name.split_once('.') {
            if let Some(i) = self.schema.index_of(col) {
                return Ok(i);
            }
        }
        Err(SharkError::Analysis(format!(
            "unknown column '{name}' in {}",
            self.schema
        )))
    }
}

impl BoundExpr {
    /// Bind an AST expression against a column resolver. An aggregate call
    /// is an error unless the resolver binds it (see
    /// [`ColumnResolver::resolve_expr`]).
    pub fn bind(
        expr: &Expr,
        resolver: &dyn ColumnResolver,
        udfs: &UdfRegistry,
    ) -> Result<BoundExpr> {
        if let Some(bound) = resolver.resolve_expr(expr, udfs)? {
            return Ok(bound);
        }
        Ok(match expr {
            Expr::Column(name) => BoundExpr::Column(resolver.resolve_column(name)?),
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Binary { left, op, right } => BoundExpr::Binary {
                left: Box::new(Self::bind(left, resolver, udfs)?),
                op: *op,
                right: Box::new(Self::bind(right, resolver, udfs)?),
            },
            Expr::Not(e) => BoundExpr::Not(Box::new(Self::bind(e, resolver, udfs)?)),
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(Self::bind(expr, resolver, udfs)?),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: Box::new(Self::bind(expr, resolver, udfs)?),
                low: Box::new(Self::bind(low, resolver, udfs)?),
                high: Box::new(Self::bind(high, resolver, udfs)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(Self::bind(expr, resolver, udfs)?),
                list: list
                    .iter()
                    .map(|e| Self::bind(e, resolver, udfs))
                    .collect::<Result<Vec<_>>>()?,
                negated: *negated,
            },
            Expr::Function {
                name,
                args,
                distinct: _,
            } => {
                if crate::aggregate::AggFunc::from_name(name).is_some() {
                    return Err(SharkError::Analysis(format!(
                        "aggregate function {name} is not allowed in this context"
                    )));
                }
                let bound_args = args
                    .iter()
                    .map(|e| Self::bind(e, resolver, udfs))
                    .collect::<Result<Vec<_>>>()?;
                if let Some(func) = ScalarFunc::from_name(name) {
                    BoundExpr::Func {
                        func,
                        args: bound_args,
                    }
                } else if let Some(f) = udfs.get(name) {
                    BoundExpr::Udf {
                        name: name.clone(),
                        f,
                        args: bound_args,
                    }
                } else {
                    return Err(SharkError::Analysis(format!("unknown function '{name}'")));
                }
            }
            Expr::Star => {
                return Err(SharkError::Analysis(
                    "'*' is only allowed inside COUNT(*) or as a projection".into(),
                ))
            }
        })
    }

    /// Evaluate the expression against a row.
    pub fn eval(&self, row: &Row) -> Value {
        match self {
            BoundExpr::Column(i) => row.get(*i).clone(),
            BoundExpr::Literal(v) => v.clone(),
            BoundExpr::Binary { left, op, right } => {
                eval_binary(&left.eval(row), *op, &right.eval(row))
            }
            BoundExpr::Not(e) => not(e.eval(row).as_ref()),
            BoundExpr::IsNull { expr, negated } => {
                Value::Bool(expr.eval(row).is_null() != *negated)
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => between(
                expr.eval(row).as_ref(),
                low.eval(row).as_ref(),
                high.eval(row).as_ref(),
                *negated,
            ),
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row);
                let entries = list.iter().map(|e| {
                    let entry = e.eval(row);
                    (!entry.is_null()).then(|| entry == v)
                });
                in_list(v.is_null(), entries, *negated)
            }
            BoundExpr::Func { func, args } => {
                let vals: Vec<Value> = args.iter().map(|a| a.eval(row)).collect();
                eval_scalar(*func, &vals)
            }
            BoundExpr::Udf { f, args, .. } => {
                let vals: Vec<Value> = args.iter().map(|a| a.eval(row)).collect();
                f(&vals)
            }
        }
    }

    /// Evaluate as a predicate: NULL and non-boolean results count as false.
    pub fn eval_predicate(&self, row: &Row) -> bool {
        self.eval(row).is_truthy()
    }

    /// Approximate number of primitive operations one evaluation performs
    /// (drives the cost model's per-row expression charge).
    pub fn op_count(&self) -> f64 {
        match self {
            BoundExpr::Column(_) | BoundExpr::Literal(_) => 0.5,
            BoundExpr::Binary { left, right, .. } => 1.0 + left.op_count() + right.op_count(),
            BoundExpr::Not(e) => 1.0 + e.op_count(),
            BoundExpr::IsNull { expr, .. } => 1.0 + expr.op_count(),
            BoundExpr::Between {
                expr, low, high, ..
            } => 2.0 + expr.op_count() + low.op_count() + high.op_count(),
            BoundExpr::InList { expr, list, .. } => {
                1.0 + expr.op_count() + list.iter().map(BoundExpr::op_count).sum::<f64>()
            }
            BoundExpr::Func { args, .. } => 2.0 + args.iter().map(BoundExpr::op_count).sum::<f64>(),
            BoundExpr::Udf { args, .. } => 5.0 + args.iter().map(BoundExpr::op_count).sum::<f64>(),
        }
    }

    /// Rough output type inference, used to name/typed the output schema.
    pub fn data_type(&self, input: &Schema) -> DataType {
        match self {
            BoundExpr::Column(i) => {
                if *i < input.len() {
                    input.field(*i).data_type
                } else {
                    DataType::Null
                }
            }
            BoundExpr::Literal(v) => v.data_type(),
            BoundExpr::Binary { left, op, right } => {
                if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
                    DataType::Bool
                } else {
                    match left.data_type(input).widen(right.data_type(input)) {
                        // Arithmetic over dates counts days.
                        DataType::Date => DataType::Int,
                        t => t,
                    }
                }
            }
            BoundExpr::Not(_)
            | BoundExpr::IsNull { .. }
            | BoundExpr::Between { .. }
            | BoundExpr::InList { .. } => DataType::Bool,
            BoundExpr::Func { func, args } => match func {
                ScalarFunc::Substr | ScalarFunc::Upper | ScalarFunc::Lower | ScalarFunc::Concat => {
                    DataType::Str
                }
                ScalarFunc::Length | ScalarFunc::Year | ScalarFunc::Round => DataType::Int,
                ScalarFunc::Abs => args
                    .first()
                    .map(|a| a.data_type(input))
                    .unwrap_or(DataType::Float),
                // The widest of the arguments the result may be; IF's
                // first argument is its condition.
                ScalarFunc::Coalesce | ScalarFunc::If => {
                    let results = if *func == ScalarFunc::If {
                        args.get(1..).unwrap_or_default()
                    } else {
                        args
                    };
                    results
                        .iter()
                        .fold(DataType::Null, |t, a| t.widen(a.data_type(input)))
                }
            },
            BoundExpr::Udf { .. } => DataType::Str,
        }
    }

    /// Visit this expression and every subexpression, parents first.
    pub fn visit(&self, f: &mut dyn FnMut(&BoundExpr)) {
        f(self);
        match self {
            BoundExpr::Column(_) | BoundExpr::Literal(_) => {}
            BoundExpr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            BoundExpr::Not(e) | BoundExpr::IsNull { expr: e, .. } => e.visit(f),
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.visit(f);
                list.iter().for_each(|e| e.visit(f));
            }
            BoundExpr::Func { args, .. } | BoundExpr::Udf { args, .. } => {
                args.iter().for_each(|a| a.visit(f));
            }
        }
    }

    /// Whether this expression or a subexpression calls a UDF.
    pub fn calls_udf(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| found |= matches!(e, BoundExpr::Udf { .. }));
        found
    }

    /// Collect the row positions this expression reads.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        self.visit(&mut |e| {
            if let BoundExpr::Column(i) = e {
                out.push(*i);
            }
        });
    }

    /// Move every column reference to the position `new_position` gives
    /// it: the planner binds over one row layout, then prunes it.
    pub fn renumber_columns(&mut self, new_position: &dyn Fn(usize) -> usize) {
        let renumber = |e: &mut BoundExpr| e.renumber_columns(new_position);
        match self {
            BoundExpr::Column(i) => *i = new_position(*i),
            BoundExpr::Literal(_) => {}
            BoundExpr::Binary { left, right, .. } => {
                renumber(left);
                renumber(right);
            }
            BoundExpr::Not(e) | BoundExpr::IsNull { expr: e, .. } => renumber(e),
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                renumber(expr);
                renumber(low);
                renumber(high);
            }
            BoundExpr::InList { expr, list, .. } => {
                renumber(expr);
                list.iter_mut().for_each(renumber);
            }
            BoundExpr::Func { args, .. } | BoundExpr::Udf { args, .. } => {
                args.iter_mut().for_each(renumber)
            }
        }
    }

    /// If this predicate is a simple range/equality condition on a single
    /// column (`col op literal`, `col BETWEEN a AND b`, `col IN (...)`),
    /// return `(column, lower_bound, upper_bound, equalities)` for use by
    /// map pruning. Bounds are inclusive.
    #[allow(clippy::type_complexity)]
    pub fn as_column_range(&self) -> Option<(usize, Option<Value>, Option<Value>, Vec<Value>)> {
        match self {
            BoundExpr::Binary { left, op, right } => {
                let (col, lit, flipped) = match (left.as_ref(), right.as_ref()) {
                    (BoundExpr::Column(c), BoundExpr::Literal(v)) => (*c, v.clone(), false),
                    (BoundExpr::Literal(v), BoundExpr::Column(c)) => (*c, v.clone(), true),
                    _ => return None,
                };
                let op = if flipped { flip(*op) } else { *op };
                match op {
                    BinaryOp::Eq => Some((col, Some(lit.clone()), Some(lit.clone()), vec![lit])),
                    BinaryOp::Gt | BinaryOp::GtEq => Some((col, Some(lit), None, vec![])),
                    BinaryOp::Lt | BinaryOp::LtEq => Some((col, None, Some(lit), vec![])),
                    _ => None,
                }
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated: false,
            } => match (expr.as_ref(), low.as_ref(), high.as_ref()) {
                (BoundExpr::Column(c), BoundExpr::Literal(l), BoundExpr::Literal(h)) => {
                    Some((*c, Some(l.clone()), Some(h.clone()), vec![]))
                }
                _ => None,
            },
            BoundExpr::InList {
                expr,
                list,
                negated: false,
            } => {
                if let BoundExpr::Column(c) = expr.as_ref() {
                    let mut vals = Vec::new();
                    for e in list {
                        if let BoundExpr::Literal(v) = e {
                            vals.push(v.clone());
                        } else {
                            return None;
                        }
                    }
                    let min = vals.iter().min().cloned();
                    let max = vals.iter().max().cloned();
                    Some((*c, min, max, vals))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

pub(crate) fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// Evaluate a binary operation with SQL-ish NULL propagation.
pub fn eval_binary(left: &Value, op: BinaryOp, right: &Value) -> Value {
    eval_binary_ref(left.as_ref(), op, right.as_ref())
}

/// [`eval_binary`] over borrowed values: the one definition of every
/// binary operator, shared by the row evaluator and the batch kernels.
pub(crate) fn eval_binary_ref(left: ValueRef<'_>, op: BinaryOp, right: ValueRef<'_>) -> Value {
    use BinaryOp::*;
    match op {
        And => match (left, right) {
            (ValueRef::Bool(false), _) | (_, ValueRef::Bool(false)) => Value::Bool(false),
            (ValueRef::Bool(true), ValueRef::Bool(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        Or => match (left, right) {
            (ValueRef::Bool(true), _) | (_, ValueRef::Bool(true)) => Value::Bool(true),
            (ValueRef::Bool(false), ValueRef::Bool(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        _ if left.is_null() || right.is_null() => Value::Null,
        Eq | NotEq | Lt | LtEq | Gt | GtEq => Value::Bool(holds(op, left.total_cmp(right))),
        Plus | Minus | Multiply | Divide | Modulo => eval_arithmetic(left, op, right),
    }
}

/// Whether comparison `op` holds between two values that order as `ord`.
#[inline]
pub(crate) fn holds(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("{op:?} is not a comparison"),
    }
}

/// Integer arithmetic wraps like Hive's `BIGINT` (and like a release
/// build always did); division and remainder by zero, and the one
/// overflowing division (`i64::MIN / -1`), are NULL.
fn eval_arithmetic(left: ValueRef<'_>, op: BinaryOp, right: ValueRef<'_>) -> Value {
    use BinaryOp::*;
    // String concatenation with '+' is not SQL; ignore.
    let int = |v: ValueRef<'_>| match v {
        ValueRef::Int(x) => Some(x),
        ValueRef::Date(d) => Some(i64::from(d)),
        _ => None,
    };
    if let (Some(a), Some(b)) = (int(left), int(right)) {
        let result = match op {
            Plus => Some(a.wrapping_add(b)),
            Minus => Some(a.wrapping_sub(b)),
            Multiply => Some(a.wrapping_mul(b)),
            Divide => a.checked_div(b),
            Modulo => a.checked_rem(b),
            _ => None,
        };
        return result.map_or(Value::Null, Value::Int);
    }
    match (left.as_float(), right.as_float()) {
        (Some(a), Some(b)) => match op {
            Plus => Value::Float(a + b),
            Minus => Value::Float(a - b),
            Multiply => Value::Float(a * b),
            Divide => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Float(a / b)
                }
            }
            Modulo => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Float(a % b)
                }
            }
            _ => Value::Null,
        },
        _ => Value::Null,
    }
}

/// SQL `NOT`: NULL stays NULL, a non-boolean is false.
pub(crate) fn not(v: ValueRef<'_>) -> Value {
    match v {
        ValueRef::Bool(b) => Value::Bool(!b),
        ValueRef::Null => Value::Null,
        _ => Value::Bool(false),
    }
}

/// `x [NOT] BETWEEN low AND high` is `[NOT] (x >= low AND x <= high)`, so
/// a NULL bound gives NULL unless the other bound already rules `x` out.
pub(crate) fn between(
    x: ValueRef<'_>,
    low: ValueRef<'_>,
    high: ValueRef<'_>,
    negated: bool,
) -> Value {
    let above = eval_binary_ref(x, BinaryOp::GtEq, low);
    let below = eval_binary_ref(x, BinaryOp::LtEq, high);
    let within = eval_binary_ref(above.as_ref(), BinaryOp::And, below.as_ref());
    if negated {
        not(within.as_ref())
    } else {
        within
    }
}

/// `x [NOT] IN (entries)`, given whether `x` is NULL and, per entry,
/// whether it equals `x` (`None` for a NULL entry, not evaluated past the
/// first match). No match and a NULL entry give NULL, as SQL's
/// `x = e1 OR x = e2 …` does.
pub(crate) fn in_list(
    x_is_null: bool,
    entries: impl Iterator<Item = Option<bool>>,
    negated: bool,
) -> Value {
    if x_is_null {
        return Value::Null;
    }
    let mut saw_null = false;
    for matched in entries {
        match matched {
            Some(true) => return Value::Bool(!negated),
            Some(false) => {}
            None => saw_null = true,
        }
    }
    if saw_null {
        Value::Null
    } else {
        Value::Bool(negated)
    }
}

/// `SUBSTR(s, start, len)`: up to `len` characters of `s` from the
/// 1-based character `start` (a start below 1 counts as 1, one past the end
/// gives ""); no `len` runs to the end and a negative one takes nothing.
/// The result borrows from `s`.
pub(crate) fn substr(s: &str, start: Option<i64>, len: Option<i64>) -> &str {
    let byte_of_char = |s: &str, n: usize| s.char_indices().nth(n).map_or(s.len(), |(b, _)| b);
    let skip = (start.unwrap_or(1).max(1) - 1) as usize;
    let rest = &s[byte_of_char(s, skip)..];
    match len {
        Some(len) => &rest[..byte_of_char(rest, len.max(0) as usize)],
        None => rest,
    }
}

/// A built-in scalar function's result over borrowed arguments.
pub(crate) enum ScalarOut<'v> {
    /// Argument `i`, unchanged (`COALESCE`, `IF`).
    Arg(usize),
    /// A slice of the first argument's string (`SUBSTR`).
    Slice(&'v str),
    /// A new value.
    Value(Value),
}

/// Evaluate a built-in scalar function over `n` borrowed arguments: the
/// one definition the row evaluator and the batch kernels share.
pub(crate) fn eval_scalar_ref<'v>(
    func: ScalarFunc,
    n: usize,
    arg: impl Fn(usize) -> ValueRef<'v>,
) -> ScalarOut<'v> {
    let get = |i: usize| if i < n { arg(i) } else { ValueRef::Null };
    let string = |f: fn(&str) -> Value| match get(0) {
        ValueRef::Str(s) => ScalarOut::Value(f(s)),
        _ => ScalarOut::Value(Value::Null),
    };
    match func {
        ScalarFunc::Substr => match get(0) {
            ValueRef::Str(s) => ScalarOut::Slice(substr(s, get(1).as_int(), get(2).as_int())),
            _ => ScalarOut::Value(Value::Null),
        },
        ScalarFunc::Upper => string(|s| Value::str(s.to_uppercase())),
        ScalarFunc::Lower => string(|s| Value::str(s.to_lowercase())),
        ScalarFunc::Length => string(|s| Value::Int(s.chars().count() as i64)),
        ScalarFunc::Concat => {
            let mut out = String::new();
            for i in 0..n {
                let a = get(i);
                if a.is_null() {
                    return ScalarOut::Value(Value::Null);
                }
                out.push_str(&a.render());
            }
            ScalarOut::Value(Value::str(out))
        }
        ScalarFunc::Abs => ScalarOut::Value(match get(0) {
            ValueRef::Int(v) => Value::Int(v.wrapping_abs()),
            ValueRef::Float(v) => Value::Float(v.abs()),
            _ => Value::Null,
        }),
        ScalarFunc::Round => ScalarOut::Value(
            get(0)
                .as_float()
                .map_or(Value::Null, |v| Value::Int(v.round() as i64)),
        ),
        // days since 1970-01-01, ignoring leap-year drift (fine for
        // grouping purposes).
        ScalarFunc::Year => ScalarOut::Value(
            get(0)
                .as_int()
                .map_or(Value::Null, |days| Value::Int(1970 + days / 365)),
        ),
        ScalarFunc::Coalesce => match (0..n).find(|&i| !get(i).is_null()) {
            Some(i) => ScalarOut::Arg(i),
            None => ScalarOut::Value(Value::Null),
        },
        ScalarFunc::If => {
            let pick = if get(0).is_truthy() { 1 } else { 2 };
            if pick < n {
                ScalarOut::Arg(pick)
            } else {
                ScalarOut::Value(Value::Null)
            }
        }
    }
}

/// Evaluate a built-in scalar function.
pub fn eval_scalar(func: ScalarFunc, args: &[Value]) -> Value {
    match eval_scalar_ref(func, args.len(), |i| args[i].as_ref()) {
        ScalarOut::Arg(i) => args[i].clone(),
        ScalarOut::Slice(s) => Value::str(s),
        ScalarOut::Value(v) => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use shark_common::row;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("pagerank", DataType::Int),
            ("pageurl", DataType::Str),
            ("revenue", DataType::Float),
        ])
    }

    fn bind(sql_predicate: &str) -> BoundExpr {
        // Parse a full statement to reuse the expression parser.
        let stmt = parse_select(&format!("SELECT 1 FROM t WHERE {sql_predicate}")).unwrap();
        let schema = schema();
        let resolver = SchemaResolver { schema: &schema };
        BoundExpr::bind(&stmt.selection.unwrap(), &resolver, &UdfRegistry::new()).unwrap()
    }

    #[test]
    fn comparison_and_arithmetic() {
        let e = bind("pagerank > 300 AND revenue * 2 >= 10.0");
        let hit = row![500i64, "u", 20.0f64];
        let miss = row![100i64, "u", 1.0f64];
        assert!(e.eval_predicate(&hit));
        assert!(!e.eval_predicate(&miss));
        assert!(e.op_count() > 2.0);
    }

    #[test]
    fn between_in_isnull() {
        let e = bind("pagerank BETWEEN 10 AND 20");
        assert!(e.eval_predicate(&row![15i64, "x", 0.0f64]));
        assert!(!e.eval_predicate(&row![25i64, "x", 0.0f64]));
        let e = bind("pageurl IN ('a', 'b')");
        assert!(e.eval_predicate(&row![1i64, "a", 0.0f64]));
        assert!(!e.eval_predicate(&row![1i64, "c", 0.0f64]));
        let e = bind("revenue IS NULL");
        assert!(e.eval_predicate(&row![1i64, "a", Value::Null]));
        assert!(!e.eval_predicate(&row![1i64, "a", 1.0f64]));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(
            eval_scalar(
                ScalarFunc::Substr,
                &[Value::str("10.20.30.40"), Value::Int(1), Value::Int(7)]
            ),
            Value::str("10.20.3")
        );
        assert_eq!(
            eval_scalar(ScalarFunc::Upper, &[Value::str("air")]),
            Value::str("AIR")
        );
        assert_eq!(
            eval_scalar(ScalarFunc::Length, &[Value::str("abc")]),
            Value::Int(3)
        );
        assert_eq!(
            eval_scalar(ScalarFunc::Abs, &[Value::Int(-5)]),
            Value::Int(5)
        );
        assert_eq!(
            eval_scalar(ScalarFunc::Year, &[Value::Int(10_957)]),
            Value::Int(2000)
        );
        assert_eq!(
            eval_scalar(ScalarFunc::Coalesce, &[Value::Null, Value::Int(3)]),
            Value::Int(3)
        );
        assert_eq!(
            eval_scalar(
                ScalarFunc::If,
                &[Value::Bool(true), Value::Int(1), Value::Int(2)]
            ),
            Value::Int(1)
        );
    }

    #[test]
    fn null_propagation() {
        assert_eq!(
            eval_binary(&Value::Null, BinaryOp::Plus, &Value::Int(1)),
            Value::Null
        );
        assert_eq!(
            eval_binary(&Value::Bool(false), BinaryOp::And, &Value::Null),
            Value::Bool(false)
        );
        assert_eq!(
            eval_binary(&Value::Null, BinaryOp::Or, &Value::Bool(true)),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binary(&Value::Int(1), BinaryOp::Divide, &Value::Int(0)),
            Value::Null
        );
    }

    #[test]
    fn between_is_two_comparisons_and_in_sees_null_entries() {
        let k3 = row![3i64, "u", Value::Null];
        let eval = |sql: &str| bind(sql).eval(&k3);
        // BETWEEN is `x >= low AND x <= high`.
        assert_eq!(eval("pagerank BETWEEN NULL AND 5"), Value::Null);
        assert_eq!(eval("pagerank >= NULL AND pagerank <= 5"), Value::Null);
        assert_eq!(eval("pagerank BETWEEN NULL AND 2"), Value::Bool(false));
        assert_eq!(eval("pagerank NOT BETWEEN NULL AND 2"), Value::Bool(true));
        assert_eq!(eval("pagerank NOT BETWEEN 1 AND NULL"), Value::Null);
        assert_eq!(eval("revenue BETWEEN 1 AND 5"), Value::Null);
        // No match and a NULL entry: NULL, so a filter drops the row.
        assert_eq!(eval("pagerank IN (1, NULL)"), Value::Null);
        assert_eq!(eval("pagerank NOT IN (1, NULL)"), Value::Null);
        assert!(!bind("pagerank NOT IN (1, NULL)").eval_predicate(&k3));
        // A match wins over a NULL entry.
        assert_eq!(eval("pagerank IN (NULL, 3)"), Value::Bool(true));
        assert_eq!(eval("pagerank NOT IN (NULL, 3)"), Value::Bool(false));
        assert_eq!(eval("pagerank NOT IN (1, 2)"), Value::Bool(true));
        assert_eq!(eval("revenue IN (1, 2)"), Value::Null);
    }

    #[test]
    fn integer_arithmetic_wraps_and_overflowing_division_is_null() {
        let k = row![2i64, "u", 0.0f64];
        let eval = |sql: &str| bind(sql).eval(&k);
        assert_eq!(
            eval("(0 - 9223372036854775807 - 1) / -1 IS NULL"),
            Value::Bool(true)
        );
        assert_eq!(
            eval("(0 - 9223372036854775807 - 1) % -1 IS NULL"),
            Value::Bool(true)
        );
        assert_eq!(
            eval("pagerank * 9223372036854775807 = -2"),
            Value::Bool(true)
        );
        assert_eq!(
            eval("9223372036854775807 + pagerank < 0"),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binary(&Value::Int(7), BinaryOp::Modulo, &Value::Int(0)),
            Value::Null
        );
    }

    #[test]
    fn substr_counts_characters_from_one() {
        let cut = |s, start, len| substr(s, start, len);
        assert_eq!(cut("10.20.30.40", Some(1), Some(7)), "10.20.3");
        assert_eq!(cut("héllo", Some(2), Some(3)), "éll");
        assert_eq!(cut("héllo", Some(0), Some(2)), "hé");
        assert_eq!(cut("héllo", Some(-4), None), "héllo");
        assert_eq!(cut("héllo", Some(9), Some(2)), "");
        assert_eq!(cut("héllo", Some(2), Some(0)), "");
        assert_eq!(cut("héllo", Some(2), Some(-1)), "");
        assert_eq!(cut("héllo", None, Some(i64::MAX)), "héllo");
    }

    #[test]
    fn udfs_are_callable() {
        let mut udfs = UdfRegistry::new();
        udfs.register("is_special", |args: &[Value]| {
            Value::Bool(
                args.first()
                    .and_then(|v| v.as_str())
                    .map(|s| s.contains("SPECIAL"))
                    .unwrap_or(false),
            )
        });
        let stmt = parse_select("SELECT 1 FROM t WHERE is_special(pageurl)").unwrap();
        let schema = schema();
        let resolver = SchemaResolver { schema: &schema };
        let e = BoundExpr::bind(&stmt.selection.unwrap(), &resolver, &udfs).unwrap();
        assert!(e.eval_predicate(&row![1i64, "123 SPECIAL st", 0.0f64]));
        assert!(!e.eval_predicate(&row![1i64, "plain", 0.0f64]));
    }

    #[test]
    fn column_range_extraction_for_pruning() {
        let e = bind("pagerank > 300");
        let (col, low, high, eqs) = e.as_column_range().unwrap();
        assert_eq!(col, 0);
        assert_eq!(low, Some(Value::Int(300)));
        assert_eq!(high, None);
        assert!(eqs.is_empty());

        let e = bind("pagerank BETWEEN 5 AND 9");
        let (_, low, high, _) = e.as_column_range().unwrap();
        assert_eq!(low, Some(Value::Int(5)));
        assert_eq!(high, Some(Value::Int(9)));

        let e = bind("pageurl = 'x'");
        let (col, _, _, eqs) = e.as_column_range().unwrap();
        assert_eq!(col, 1);
        assert_eq!(eqs, vec![Value::str("x")]);

        let e = bind("300 < pagerank");
        let (_, low, _, _) = e.as_column_range().unwrap();
        assert_eq!(low, Some(Value::Int(300)));

        assert!(bind("pagerank > revenue").as_column_range().is_none());
    }

    #[test]
    fn binding_errors() {
        let schema = schema();
        let resolver = SchemaResolver { schema: &schema };
        let udfs = UdfRegistry::new();
        let stmt = parse_select("SELECT 1 FROM t WHERE missing_col = 1").unwrap();
        assert!(BoundExpr::bind(&stmt.selection.unwrap(), &resolver, &udfs).is_err());
        let stmt = parse_select("SELECT 1 FROM t WHERE unknown_fn(pagerank) = 1").unwrap();
        assert!(BoundExpr::bind(&stmt.selection.unwrap(), &resolver, &udfs).is_err());
        let stmt = parse_select("SELECT 1 FROM t WHERE SUM(pagerank) > 1").unwrap();
        assert!(BoundExpr::bind(&stmt.selection.unwrap(), &resolver, &udfs).is_err());
    }

    #[test]
    fn qualified_names_resolve_via_suffix() {
        let schema = schema();
        let resolver = SchemaResolver { schema: &schema };
        assert_eq!(resolver.resolve_column("r.pagerank").unwrap(), 0);
        assert_eq!(resolver.resolve_column("pagerank").unwrap(), 0);
        assert!(resolver.resolve_column("r.missing").is_err());
    }
}
