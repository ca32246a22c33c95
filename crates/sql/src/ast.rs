//! Abstract syntax tree for the HiveQL subset Shark's experiments use.

use shark_common::{Result, SharkError, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A `SELECT` query.
    Select(SelectStmt),
    /// `CREATE TABLE name [TBLPROPERTIES(...)] AS SELECT ... [DISTRIBUTE BY col]`
    /// — the statement Shark uses to load tables into the memstore and to
    /// co-partition tables (§2, §3.4).
    CreateTableAs {
        /// Name of the table being created.
        name: String,
        /// `TBLPROPERTIES` key/value pairs (e.g. `"shark.cache" = "true"`).
        properties: Vec<(String, String)>,
        /// The defining query.
        query: SelectStmt,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table to drop.
        name: String,
    },
    /// `EXPLAIN [ANALYZE] SELECT …` — render the query plan; with
    /// `ANALYZE`, execute the query under tracing and annotate each
    /// operator with recorded times, rows, bytes and cache activity.
    Explain {
        /// Whether to execute the query and annotate the plan with the
        /// recorded trace (`EXPLAIN ANALYZE`) or only render it.
        analyze: bool,
        /// The query being explained.
        query: SelectStmt,
    },
}

impl Statement {
    /// Lower-cased names of every table the statement reads (not the table a
    /// `CREATE TABLE … AS` writes). Used by the server layer to touch the
    /// right cache entries before execution.
    pub fn referenced_tables(&self) -> Vec<String> {
        match self {
            Statement::Select(stmt) => stmt.referenced_tables(),
            Statement::CreateTableAs { query, .. } => query.referenced_tables(),
            Statement::DropTable { .. } => Vec::new(),
            Statement::Explain { query, .. } => query.referenced_tables(),
        }
    }

    /// The statement as a `SELECT`, or the parse error every entry point
    /// that accepts only a query reports.
    pub fn as_select(&self) -> Result<&SelectStmt> {
        match self {
            Statement::Select(stmt) => Ok(stmt),
            other => Err(SharkError::Parse(format!(
                "expected a SELECT statement, found {other:?}"
            ))),
        }
    }
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// The projection list.
    pub projections: Vec<SelectItem>,
    /// The primary table.
    pub from: Option<TableRef>,
    /// `JOIN ... ON ...` clauses, applied left to right.
    pub joins: Vec<JoinClause>,
    /// The `WHERE` predicate.
    pub selection: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` expressions with a descending flag.
    pub order_by: Vec<(Expr, bool)>,
    /// `LIMIT n`.
    pub limit: Option<usize>,
    /// `DISTRIBUTE BY column` (hash partitioning of the result, §3.4).
    pub distribute_by: Option<String>,
}

impl SelectStmt {
    /// Lower-cased names of the tables in `FROM` and every `JOIN`, deduped
    /// in first-appearance order.
    pub fn referenced_tables(&self) -> Vec<String> {
        let mut names = Vec::new();
        let mut push = |name: &str| {
            let lower = name.to_lowercase();
            if !names.contains(&lower) {
                names.push(lower);
            }
        };
        if let Some(from) = &self.from {
            push(&from.name);
        }
        for join in &self.joins {
            push(&join.table.name);
        }
        names
    }
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional `AS alias`.
        alias: Option<String>,
    },
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name in the catalog.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

/// One `JOIN table [alias] ON condition` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// The joined table.
    pub table: TableRef,
    /// The `ON` condition (must be an equality between two columns for the
    /// supported equi-joins).
    pub on: Expr,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Multiply,
    /// `/`
    Divide,
    /// `%`
    Modulo,
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinaryOp {
    /// Whether the operator is a comparison producing a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A possibly qualified column reference (`col` or `alias.col`).
    Column(String),
    /// A literal value.
    Literal(Value),
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// A function call (scalar function, aggregate, or registered UDF).
    Function {
        /// Function name, lower-cased.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// `DISTINCT` inside an aggregate, e.g. `COUNT(DISTINCT x)`.
        distinct: bool,
    },
    /// `*` inside `COUNT(*)`.
    Star,
}

impl Expr {
    /// Convenience constructor for binary expressions.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Convenience constructor for column references.
    pub fn col(name: &str) -> Expr {
        Expr::Column(name.to_string())
    }

    /// Convenience constructor for literals.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Whether the expression contains an aggregate function call
    /// (`count`, `sum`, `avg`, `min`, `max`).
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { name, args, .. } => {
                crate::aggregate::AggFunc::from_name(name).is_some()
                    || args.iter().any(Expr::contains_aggregate)
            }
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Not(e) => e.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            _ => false,
        }
    }

    /// Split a predicate into its top-level `AND` conjuncts.
    pub fn split_conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                let mut out = left.split_conjuncts();
                out.extend(right.split_conjuncts());
                out
            }
            other => vec![other],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_conjuncts_flattens_ands() {
        let e = Expr::binary(
            Expr::binary(Expr::col("a"), BinaryOp::Gt, Expr::lit(1i64)),
            BinaryOp::And,
            Expr::binary(
                Expr::binary(Expr::col("b"), BinaryOp::Eq, Expr::lit("x")),
                BinaryOp::And,
                Expr::binary(Expr::col("c"), BinaryOp::Lt, Expr::lit(2i64)),
            ),
        );
        assert_eq!(e.split_conjuncts().len(), 3);
    }

    #[test]
    fn contains_aggregate_looks_inside_arguments() {
        let e = Expr::Function {
            name: "sum".into(),
            args: vec![Expr::binary(
                Expr::col("revenue"),
                BinaryOp::Multiply,
                Expr::col("rate"),
            )],
            distinct: false,
        };
        assert!(e.contains_aggregate());
        let upper = Expr::Function {
            name: "upper".into(),
            args: vec![e],
            distinct: false,
        };
        assert!(upper.contains_aggregate());
        assert!(!Expr::col("a").contains_aggregate());
    }
}
