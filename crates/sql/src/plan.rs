//! The analyzer / logical planner.
//!
//! Converts a parsed [`SelectStmt`] plus the catalog into a [`QueryPlan`]:
//! resolved scans (with pruned column projections and pushed-down filters),
//! equi-join steps, an optional aggregation, final projections, ordering and
//! limit. The structure mirrors the fixed pipeline Shark compiles Hive
//! queries into: scan → filter → join* → aggregate → project → sort → limit.
//!
//! Planning binds first and rewrites after, as in the paper (§2.4). Every
//! name resolves once, over the *joined row* (every column of every scan,
//! in FROM/JOIN order), and every clause is bound by [`BoundExpr::bind`]:
//! WHERE conjuncts, join keys, GROUP BY, aggregate arguments and the SELECT
//! items. After GROUP BY the SELECT items and HAVING bind over the
//! aggregate's output row (`group values ++ aggregate values`) through one
//! resolver that maps GROUP BY keys and aggregate calls to its columns.
//! ORDER BY binds through the SELECT items' resolver and names the item it
//! equals.
//!
//! Rule-based optimizations then run over the bound expressions: predicate
//! pushdown to scans (which also feeds map pruning, §3.5), chosen by the
//! scans a conjunct's columns belong to; column pruning, one pass that
//! keeps only the columns the bound plan reads and renumbers every
//! expression to the pruned layout; and LIMIT pushdown to individual
//! partitions when no ordering or aggregation is present.

use std::cell::RefCell;
use std::sync::Arc;

use shark_common::{Field, Result, Schema, SharkError, Value};

use crate::aggregate::{AggExpr, AggFunc};
use crate::ast::{BinaryOp, Expr, SelectItem, SelectStmt};
use crate::catalog::{CatalogSnapshot, TableMeta};
use crate::expr::{BoundExpr, ColumnResolver, UdfRegistry};

/// One table scan with pushed-down filters and a pruned column projection.
pub struct ScanNode {
    /// The table being scanned.
    pub table: Arc<TableMeta>,
    /// Alias used in the query, if any.
    pub alias: Option<String>,
    /// Original column indices read from the table, in ascending order.
    pub projection: Vec<usize>,
    /// Schema of the scan output (the projected columns).
    pub projected_schema: Schema,
    /// Filters bound against the projected schema, pushed down from WHERE.
    pub filters: Vec<BoundExpr>,
}

/// One equi-join step: joins the rows accumulated so far with the output of
/// scan `right_scan`.
pub struct JoinNode {
    /// Join key over the accumulated (left) schema.
    pub left_key: BoundExpr,
    /// Join key over the right scan's projected schema.
    pub right_key: BoundExpr,
    /// Index of the right scan in [`QueryPlan::scans`].
    pub right_scan: usize,
}

/// The aggregation step of a plan. Its *output row* is the group values
/// followed by the aggregate values; the plan's projections and HAVING are
/// bound over it.
pub struct AggregateNode {
    /// Grouping expressions over the combined (post-join) schema.
    pub group_exprs: Vec<BoundExpr>,
    /// Aggregate expressions over the combined schema: every aggregate the
    /// SELECT items and HAVING call, each once.
    pub aggs: Vec<AggExpr>,
    /// HAVING predicate over the output row.
    pub having: Option<BoundExpr>,
}

/// A fully analyzed query.
pub struct QueryPlan {
    /// The table scans, in FROM/JOIN order.
    pub scans: Vec<ScanNode>,
    /// Join steps; `joins[i]` joins the accumulated rows with `scans[i + 1]`.
    pub joins: Vec<JoinNode>,
    /// Residual WHERE predicate over the combined schema (conjuncts that
    /// could not be pushed to a single scan).
    pub residual_filter: Option<BoundExpr>,
    /// Aggregation, if the query groups, uses aggregate functions or has a
    /// HAVING clause.
    pub aggregate: Option<AggregateNode>,
    /// One expression per output column: over the combined schema, or over
    /// the aggregate's output row when there is an aggregation.
    pub projections: Vec<BoundExpr>,
    /// Schema of the query result.
    pub output_schema: Schema,
    /// ORDER BY as (output column, descending) pairs.
    pub order_by: Vec<(usize, bool)>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// Output column the result should be hash-partitioned by
    /// (`DISTRIBUTE BY`, used by CTAS).
    pub distribute_by: Option<usize>,
}

impl QueryPlan {
    /// Whether the LIMIT can be applied inside each partition (the paper's
    /// "pushing LIMIT down to individual partitions" rule).
    pub fn limit_pushdown_allowed(&self) -> bool {
        self.limit.is_some() && self.order_by.is_empty() && self.aggregate.is_none()
    }

    /// A short human-readable description of the plan (for notes and tests).
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        for s in &self.scans {
            parts.push(format!(
                "scan({}, cols={}, filters={})",
                s.table.name,
                s.projection.len(),
                s.filters.len()
            ));
        }
        if !self.joins.is_empty() {
            parts.push(format!("joins={}", self.joins.len()));
        }
        if self.residual_filter.is_some() {
            parts.push("filter".into());
        }
        if let Some(agg) = &self.aggregate {
            parts.push(format!(
                "aggregate(groups={}, aggs={})",
                agg.group_exprs.len(),
                agg.aggs.len()
            ));
        } else {
            parts.push(format!("project({})", self.projections.len()));
        }
        if !self.order_by.is_empty() {
            parts.push("sort".into());
        }
        if let Some(n) = self.limit {
            parts.push(format!("limit({n})"));
        }
        parts.join(" -> ")
    }
}

// ---------------------------------------------------------------------------
// Name resolution
// ---------------------------------------------------------------------------

/// One table of the FROM and JOIN clauses, with the qualifier its columns
/// answer to.
struct ScanBinding {
    qualifier: String,
    table: Arc<TableMeta>,
    alias: Option<String>,
}

/// The joined row every clause before GROUP BY binds over: every column of
/// every scan, scan `s`'s column `c` at `offsets[s] + c`.
struct JoinedRow {
    scans: Vec<ScanBinding>,
    offsets: Vec<usize>,
    schema: Schema,
}

impl JoinedRow {
    /// The scans an expression over the joined row reads, ascending.
    fn scans_of(&self, expr: &BoundExpr) -> Vec<usize> {
        let mut columns = Vec::new();
        expr.referenced_columns(&mut columns);
        let mut scans: Vec<usize> = columns
            .into_iter()
            .map(|c| self.offsets.partition_point(|&o| o <= c) - 1)
            .collect();
        scans.sort_unstable();
        scans.dedup();
        scans
    }

    /// `expr`, which reads only scan `si`, over that scan's row.
    fn in_scan(&self, si: usize, mut expr: BoundExpr) -> BoundExpr {
        expr.renumber_columns(&|c| c - self.offsets[si]);
        expr
    }
}

/// Resolves `[qualifier.]column` to its joined-row position.
impl ColumnResolver for JoinedRow {
    fn resolve_column(&self, name: &str) -> Result<usize> {
        if let Some((qual, col)) = name.split_once('.') {
            for (si, scan) in self.scans.iter().enumerate() {
                if scan.qualifier.eq_ignore_ascii_case(qual) {
                    return Ok(self.offsets[si] + scan.table.schema.resolve(col)?);
                }
            }
            return Err(SharkError::Analysis(format!(
                "unknown table alias '{qual}' in column '{name}'"
            )));
        }
        let mut found = None;
        for (si, scan) in self.scans.iter().enumerate() {
            if let Some(ci) = scan.table.schema.index_of(name) {
                if found.is_some() {
                    return Err(SharkError::Analysis(format!(
                        "ambiguous column '{name}': qualify it with a table alias"
                    )));
                }
                found = Some(self.offsets[si] + ci);
            }
        }
        found.ok_or_else(|| SharkError::Analysis(format!("unknown column '{name}'")))
    }
}

/// Resolver over an aggregate's output row (`group values ++ aggregate
/// values`). A subexpression that binds over the joined row to a GROUP BY
/// key is that key's column; an aggregate call is its aggregate's column,
/// appended on first use and reused when it binds the same; any other
/// column is an error.
struct AggregateResolver<'a> {
    joined: &'a JoinedRow,
    group_exprs: &'a [BoundExpr],
    aggs: RefCell<Vec<AggExpr>>,
}

impl ColumnResolver for AggregateResolver<'_> {
    fn resolve_column(&self, name: &str) -> Result<usize> {
        // Only a column that is no GROUP BY key gets here.
        self.joined.resolve_column(name)?;
        Err(SharkError::Plan(format!(
            "column '{name}' is neither an aggregate nor a GROUP BY expression"
        )))
    }

    fn resolve_expr(&self, expr: &Expr, udfs: &UdfRegistry) -> Result<Option<BoundExpr>> {
        let groups = self.group_exprs.len();
        if let Expr::Function {
            name,
            args,
            distinct,
        } = expr
        {
            if let Some(func) = AggFunc::from_name(name) {
                let func = if *distinct && func == AggFunc::Count {
                    AggFunc::CountDistinct
                } else {
                    func
                };
                let arg = match args.first() {
                    None | Some(Expr::Star) => None,
                    Some(a) => Some(BoundExpr::bind(a, self.joined, udfs)?),
                };
                let agg = AggExpr { func, arg };
                let mut aggs = self.aggs.borrow_mut();
                let i = match aggs.iter().position(|a| *a == agg) {
                    Some(i) => i,
                    None => {
                        aggs.push(agg);
                        aggs.len() - 1
                    }
                };
                return Ok(Some(BoundExpr::Column(groups + i)));
            }
        }
        if groups == 0 || expr.contains_aggregate() {
            return Ok(None);
        }
        let Ok(bound) = BoundExpr::bind(expr, self.joined, udfs) else {
            return Ok(None);
        };
        Ok(self
            .group_exprs
            .iter()
            .position(|g| *g == bound)
            .map(BoundExpr::Column))
    }
}

// ---------------------------------------------------------------------------
// The planner
// ---------------------------------------------------------------------------

/// Analyze a parsed SELECT against one pinned catalog snapshot and produce
/// a [`QueryPlan`]. Every table the statement references resolves *once*,
/// against the same immutable snapshot — concurrent DDL cannot change (or
/// tear) what the resulting plan reads.
pub fn plan_select(
    stmt: &SelectStmt,
    catalog: &CatalogSnapshot,
    udfs: &UdfRegistry,
) -> Result<QueryPlan> {
    let from = stmt.from.as_ref().ok_or_else(|| {
        SharkError::Plan("queries without a FROM clause are not supported".into())
    })?;

    // Resolve tables.
    let mut joined = JoinedRow {
        scans: Vec::new(),
        offsets: Vec::new(),
        schema: Schema::default(),
    };
    for tref in std::iter::once(from).chain(stmt.joins.iter().map(|j| &j.table)) {
        let table = catalog.get(&tref.name)?;
        joined.offsets.push(joined.schema.len());
        joined.schema = joined.schema.join(&table.schema);
        joined.scans.push(ScanBinding {
            qualifier: tref
                .alias
                .clone()
                .unwrap_or_else(|| tref.name.to_lowercase()),
            table,
            alias: tref.alias.clone(),
        });
    }

    let has_wildcard = stmt
        .projections
        .iter()
        .any(|p| matches!(p, SelectItem::Wildcard));
    let is_aggregate = !stmt.group_by.is_empty()
        || stmt.having.is_some()
        || stmt.projections.iter().any(|p| match p {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        });
    if has_wildcard && is_aggregate {
        return Err(SharkError::Plan(
            "SELECT * cannot be combined with GROUP BY / aggregates".into(),
        ));
    }

    // ----- WHERE: split, push down, keep residual -----------------------------
    let mut filters: Vec<Vec<BoundExpr>> = vec![Vec::new(); joined.scans.len()];
    let mut residual: Vec<BoundExpr> = Vec::new();
    let mut join_candidates: Vec<BoundExpr> = Vec::new();
    if let Some(selection) = stmt.selection.clone() {
        for conjunct in selection.split_conjuncts() {
            let bound = BoundExpr::bind(&conjunct, &joined, udfs)?;
            match joined.scans_of(&bound)[..] {
                [] => filters[0].push(bound),
                [si] => filters[si].push(joined.in_scan(si, bound)),
                // Potential implicit join condition (FROM a, b WHERE a.x = b.y).
                [_, _] => join_candidates.push(bound),
                _ => residual.push(bound),
            }
        }
    }

    // ----- joins ---------------------------------------------------------------
    let mut joins: Vec<JoinNode> = Vec::new();
    for (ji, clause) in stmt.joins.iter().enumerate() {
        let right_scan = ji + 1;
        let on = if matches!(clause.on, Expr::Literal(Value::Bool(true))) {
            // Comma join: find an implicit equality condition in WHERE.
            let pos = join_candidates
                .iter()
                .position(|e| joined.scans_of(e).contains(&right_scan))
                .ok_or_else(|| {
                    SharkError::Plan(format!(
                        "no join condition found for table '{}'",
                        clause.table.name
                    ))
                })?;
            join_candidates.remove(pos)
        } else {
            BoundExpr::bind(&clause.on, &joined, udfs)?
        };
        let (left, right) = match on {
            BoundExpr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } => (*left, *right),
            other => {
                return Err(SharkError::Plan(format!(
                    "only equi-joins are supported, found {other:?}"
                )))
            }
        };
        // The side that reads the right scan is its key, and it may read
        // nothing else: it is evaluated over that scan's rows alone.
        let (left_key, right_key) = if joined.scans_of(&left).contains(&right_scan) {
            (right, left)
        } else {
            (left, right)
        };
        if joined.scans_of(&right_key).iter().any(|&s| s != right_scan) {
            return Err(SharkError::Plan(
                "join keys must reference only one side each".into(),
            ));
        }
        joins.push(JoinNode {
            left_key,
            right_key: joined.in_scan(right_scan, right_key),
            right_scan,
        });
    }
    // Any remaining cross-scan conjuncts become residual filters.
    residual.extend(join_candidates);
    let residual_filter = residual.into_iter().reduce(|a, b| BoundExpr::Binary {
        left: Box::new(a),
        op: BinaryOp::And,
        right: Box::new(b),
    });

    // ----- GROUP BY, SELECT items and HAVING ------------------------------------
    let group_exprs = stmt
        .group_by
        .iter()
        .map(|g| BoundExpr::bind(g, &joined, udfs))
        .collect::<Result<Vec<_>>>()?;
    let output_row = AggregateResolver {
        joined: &joined,
        group_exprs: &group_exprs,
        aggs: RefCell::default(),
    };
    let items: &dyn ColumnResolver = if is_aggregate { &output_row } else { &joined };
    let groups = group_exprs.len();
    let mut projections: Vec<BoundExpr> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for (i, item) in stmt.projections.iter().enumerate() {
        let (expr, alias) = match item {
            SelectItem::Expr { expr, alias } => (expr, alias),
            SelectItem::Wildcard => {
                for (si, scan) in joined.scans.iter().enumerate() {
                    for (ci, field) in scan.table.schema.fields().iter().enumerate() {
                        projections.push(BoundExpr::Column(joined.offsets[si] + ci));
                        names.push(field.name.clone());
                    }
                }
                continue;
            }
        };
        let bound = BoundExpr::bind(expr, items, udfs)?;
        names.push(alias.clone().unwrap_or_else(|| match (&bound, expr) {
            (BoundExpr::Column(c), _) if is_aggregate && *c >= groups => {
                let func = output_row.aggs.borrow()[c - groups].func;
                format!("{}_{i}", func.display_name())
            }
            (_, Expr::Column(c)) => c.rsplit('.').next().unwrap_or(c).to_string(),
            (BoundExpr::Column(_), _) if is_aggregate => format!("group_{i}"),
            _ => format!("col_{i}"),
        }));
        projections.push(bound);
    }
    let having = match &stmt.having {
        None => None,
        Some(h) => Some(BoundExpr::bind(h, &output_row, udfs)?),
    };

    // The projections' input row: the joined row, or the aggregate's output
    // row (each key's type, then each aggregate's).
    let input_schema = if is_aggregate {
        Schema::new(
            group_exprs
                .iter()
                .map(|g| g.data_type(&joined.schema))
                .chain(
                    output_row
                        .aggs
                        .borrow()
                        .iter()
                        .map(|a| a.data_type(&joined.schema)),
                )
                .map(|t| Field::new("", t))
                .collect(),
        )
    } else {
        joined.schema.clone()
    };
    let output_schema = Schema::new(
        names
            .into_iter()
            .zip(&projections)
            .map(|(name, p)| Field::new(name, p.data_type(&input_schema)))
            .collect(),
    );

    // ----- ORDER BY: a position, an output name, or a SELECT item ---------------
    let mut order_by = Vec::new();
    for (expr, desc) in &stmt.order_by {
        let by_name = match expr {
            Expr::Literal(Value::Int(n)) => {
                let idx = usize::try_from(*n)
                    .ok()
                    .filter(|i| (1..=output_schema.len()).contains(i))
                    .ok_or_else(|| {
                        SharkError::Plan(format!("ORDER BY position {n} out of range"))
                    })?;
                Some(idx - 1)
            }
            // Output names are unqualified: `t.c` names a column of `t`.
            Expr::Column(name) if !name.contains('.') => {
                output_column(&output_schema, name, "ORDER BY")?
            }
            _ => None,
        };
        let idx = by_name
            .or_else(|| {
                let bound = BoundExpr::bind(expr, items, udfs).ok()?;
                projections.iter().position(|p| *p == bound)
            })
            .ok_or_else(|| {
                SharkError::Plan(format!(
                    "ORDER BY expression {expr:?} must reference an output column"
                ))
            })?;
        order_by.push((idx, *desc));
    }
    let aggs = output_row.aggs.into_inner();

    // ----- DISTRIBUTE BY --------------------------------------------------------
    let distribute_by = match &stmt.distribute_by {
        None => None,
        Some(col) => Some(
            output_column(&output_schema, col, "DISTRIBUTE BY")?.ok_or_else(|| {
                SharkError::Plan(format!(
                    "DISTRIBUTE BY column '{col}' is not part of the query output"
                ))
            })?,
        ),
    };

    let scans = joined
        .scans
        .into_iter()
        .zip(filters)
        .map(|(scan, filters)| ScanNode {
            projection: (0..scan.table.schema.len()).collect(),
            projected_schema: scan.table.schema.clone(),
            table: scan.table,
            alias: scan.alias,
            filters,
        })
        .collect();
    let aggregate = is_aggregate.then_some(AggregateNode {
        group_exprs,
        aggs,
        having,
    });
    let mut plan = QueryPlan {
        scans,
        joins,
        residual_filter,
        aggregate,
        projections,
        output_schema,
        order_by,
        limit: stmt.limit,
        distribute_by,
    };
    prune_columns(&mut plan);
    Ok(plan)
}

/// The output column `clause` names by `name` (case-insensitive), if any.
/// A name two output columns share, as `SELECT *` over a join can give, is
/// ambiguous.
fn output_column(schema: &Schema, name: &str, clause: &str) -> Result<Option<usize>> {
    let mut named = (0..schema.len()).filter(|&i| schema.field(i).name.eq_ignore_ascii_case(name));
    let first = named.next();
    if named.next().is_some() {
        return Err(SharkError::Plan(format!(
            "{clause} column '{name}' is ambiguous: more than one output column has that name"
        )));
    }
    Ok(first)
}

/// Column pruning (§2.4), a rewrite of a bound plan: each scan keeps only
/// the columns the plan reads, ascending and at least one (so row counts
/// hold), and every expression is renumbered to the pruned layout. Scan
/// filters and right join keys read their scan's row; the other
/// expressions before the aggregate read the joined row.
fn prune_columns(plan: &mut QueryPlan) {
    let QueryPlan {
        scans,
        joins,
        residual_filter,
        aggregate,
        projections,
        ..
    } = plan;
    // Scan `s`'s columns sit at `offsets[s]..offsets[s] + widths[s]` of
    // the joined row.
    let widths: Vec<usize> = scans.iter().map(|s| s.projection.len()).collect();
    let offsets: Vec<usize> = widths
        .iter()
        .scan(0, |end, width| {
            *end += width;
            Some(*end - width)
        })
        .collect();

    // Each expression, with the scan whose row it reads (`None`: the
    // joined row).
    let mut exprs: Vec<(Option<usize>, &mut BoundExpr)> = Vec::new();
    for (si, scan) in scans.iter_mut().enumerate() {
        exprs.extend(scan.filters.iter_mut().map(|f| (Some(si), f)));
    }
    for join in joins.iter_mut() {
        exprs.push((None, &mut join.left_key));
        exprs.push((Some(join.right_scan), &mut join.right_key));
    }
    exprs.extend(residual_filter.iter_mut().map(|e| (None, e)));
    match aggregate {
        Some(agg) => {
            exprs.extend(agg.group_exprs.iter_mut().map(|e| (None, e)));
            exprs.extend(
                agg.aggs
                    .iter_mut()
                    .filter_map(|a| Some((None, a.arg.as_mut()?))),
            );
        }
        None => exprs.extend(projections.iter_mut().map(|e| (None, e))),
    }

    let joined_position = |scan: Option<usize>, c: usize| scan.map_or(0, |s| offsets[s]) + c;
    let mut read = vec![false; widths.iter().sum()];
    for (scan, e) in &exprs {
        e.visit(&mut |e| {
            if let BoundExpr::Column(c) = e {
                read[joined_position(*scan, *c)] = true;
            }
        });
    }
    // The columns each scan keeps, each kept column's pruned joined-row
    // position, and each scan's first pruned position.
    let mut kept = Vec::with_capacity(widths.len());
    let mut position = vec![0; read.len()];
    let mut starts = Vec::with_capacity(widths.len());
    let mut width = 0;
    for (&offset, &len) in offsets.iter().zip(&widths) {
        let mut columns: Vec<usize> = (0..len).filter(|&c| read[offset + c]).collect();
        if columns.is_empty() {
            columns.push(0);
        }
        for (p, &c) in columns.iter().enumerate() {
            position[offset + c] = width + p;
        }
        starts.push(width);
        width += columns.len();
        kept.push(columns);
    }
    for (scan, e) in exprs {
        e.renumber_columns(&|c| position[joined_position(scan, c)] - scan.map_or(0, |s| starts[s]));
    }
    for (scan, columns) in scans.iter_mut().zip(kept) {
        scan.projected_schema = scan.projected_schema.project(&columns);
        scan.projection = columns.iter().map(|&c| scan.projection[c]).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::parser::parse_select;
    use shark_common::{row, DataType};

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register(TableMeta::new(
            "rankings",
            Schema::from_pairs(&[
                ("pageurl", DataType::Str),
                ("pagerank", DataType::Int),
                ("avgduration", DataType::Int),
            ]),
            4,
            |_| vec![row!["u", 1i64, 2i64]],
        ));
        c.register(TableMeta::new(
            "uservisits",
            Schema::from_pairs(&[
                ("sourceip", DataType::Str),
                ("desturl", DataType::Str),
                ("visitdate", DataType::Date),
                ("adrevenue", DataType::Float),
            ]),
            4,
            |_| vec![row!["ip", "u", Value::Date(1), 5.0f64]],
        ));
        c
    }

    fn plan(sql: &str) -> QueryPlan {
        plan_select(
            &parse_select(sql).unwrap(),
            &catalog().snapshot(),
            &UdfRegistry::new(),
        )
        .unwrap()
    }

    #[test]
    fn selection_pushes_predicate_and_prunes_columns() {
        let p = plan("SELECT pageURL, pageRank FROM rankings WHERE pageRank > 300");
        assert_eq!(p.scans.len(), 1);
        assert_eq!(p.scans[0].projection, vec![0, 1]); // avgduration pruned
        assert_eq!(p.scans[0].filters.len(), 1);
        assert!(p.residual_filter.is_none());
        assert!(p.aggregate.is_none());
        assert_eq!(p.output_schema.names(), vec!["pageurl", "pagerank"]);
        assert!(p.describe().contains("scan(rankings"));
    }

    #[test]
    fn aggregation_plan_maps_outputs() {
        let p = plan(
            "SELECT sourceIP, SUM(adRevenue) AS rev FROM uservisits GROUP BY sourceIP ORDER BY rev DESC LIMIT 5",
        );
        let agg = p.aggregate.as_ref().unwrap();
        assert_eq!(agg.group_exprs.len(), 1);
        assert_eq!(agg.aggs.len(), 1);
        assert_eq!(
            p.projections,
            vec![BoundExpr::Column(0), BoundExpr::Column(1)]
        );
        assert_eq!(p.output_schema.names(), vec!["sourceip", "rev"]);
        assert_eq!(p.order_by, vec![(1, true)]);
        assert_eq!(p.limit, Some(5));
        assert!(!p.limit_pushdown_allowed());
    }

    #[test]
    fn join_plan_with_implicit_condition_and_pushdown() {
        let p = plan(
            "SELECT sourceIP, AVG(pageRank), SUM(adRevenue) FROM rankings R, uservisits UV \
             WHERE R.pageURL = UV.destURL AND UV.visitDate BETWEEN 10 AND 20 GROUP BY UV.sourceIP",
        );
        assert_eq!(p.scans.len(), 2);
        assert_eq!(p.joins.len(), 1);
        // The date filter was pushed to the uservisits scan.
        assert_eq!(p.scans[1].filters.len(), 1);
        assert!(p.residual_filter.is_none());
        let agg = p.aggregate.as_ref().unwrap();
        assert_eq!(agg.aggs.len(), 2);
    }

    #[test]
    fn explicit_join_and_wildcard() {
        let p = plan(
            "SELECT * FROM rankings r JOIN uservisits u ON r.pageURL = u.destURL WHERE r.pageRank > 10",
        );
        assert_eq!(p.joins.len(), 1);
        // Wildcard: all columns of both tables.
        assert_eq!(p.output_schema.len(), 7);
        assert_eq!(p.projections.len(), 7);
        assert_eq!(p.scans[0].filters.len(), 1);
    }

    #[test]
    fn count_star_and_global_aggregate() {
        let p = plan("SELECT COUNT(*) FROM rankings");
        let agg = p.aggregate.as_ref().unwrap();
        assert!(agg.group_exprs.is_empty());
        assert_eq!(agg.aggs.len(), 1);
        assert!(agg.aggs[0].arg.is_none());
        assert_eq!(p.output_schema.len(), 1);
    }

    #[test]
    fn having_adds_hidden_aggregates() {
        let p =
            plan("SELECT sourceIP FROM uservisits GROUP BY sourceIP HAVING SUM(adRevenue) > 100");
        let agg = p.aggregate.as_ref().unwrap();
        assert_eq!(p.projections.len(), 1);
        assert_eq!(agg.aggs.len(), 1, "hidden aggregate for HAVING");
        assert!(agg.having.is_some());
    }

    #[test]
    fn select_items_and_having_bind_over_the_aggregate_output_row() {
        // The output row is `sourceip ++ SUM(adrevenue) ++ AVG(adrevenue)`.
        let p = plan(
            "SELECT sourceIP, SUM(adRevenue) + 1, ROUND(AVG(adRevenue)), UPPER(sourceIP) \
             FROM uservisits GROUP BY sourceIP",
        );
        assert_eq!(
            format!("{:?}", p.projections),
            "[#0, (#1 Plus 1), Round([#2]), Upper([#0])]"
        );
        assert_eq!(
            p.output_schema.names(),
            vec!["sourceip", "col_1", "col_2", "col_3"]
        );
        let types: Vec<DataType> = p
            .output_schema
            .fields()
            .iter()
            .map(|f| f.data_type)
            .collect();
        use DataType::{Float, Int, Str};
        assert_eq!(types, [Str, Float, Int, Str]);
        // HAVING binds by the same rule; an aggregate that binds the same
        // twice is computed once.
        for (sql, having) in [
            (
                "SELECT sourceIP FROM uservisits GROUP BY sourceIP HAVING sourceIP IN ('a', 'b')",
                "#0 IN [a, b]",
            ),
            (
                "SELECT sourceIP, COUNT(*) FROM uservisits GROUP BY sourceIP \
                 HAVING COUNT(*) BETWEEN 1 AND 1000",
                "#1 BETWEEN 1 AND 1000",
            ),
            (
                "SELECT sourceIP FROM uservisits GROUP BY sourceIP HAVING UPPER(sourceIP) <> 'X'",
                "(Upper([#0]) NotEq X)",
            ),
            (
                "SELECT uv.sourceIP FROM uservisits uv GROUP BY uv.sourceIP HAVING sourceIP <> 'x'",
                "(#0 NotEq x)",
            ),
            (
                "SELECT sourceIP, SUM(adRevenue), SUM(adRevenue) FROM uservisits \
                 GROUP BY sourceIP HAVING SUM(adRevenue) > 1",
                "(#1 Gt 1)",
            ),
        ] {
            let p = plan(sql);
            let agg = p.aggregate.as_ref().unwrap();
            assert_eq!(
                format!("{:?}", agg.having.as_ref().unwrap()),
                having,
                "{sql}"
            );
            assert!(agg.aggs.len() <= 1, "{sql}");
        }
        // A HAVING aggregate no SELECT item computes keeps its DISTINCT.
        let p = plan(
            "SELECT sourceIP FROM uservisits GROUP BY sourceIP HAVING COUNT(DISTINCT destURL) > 1",
        );
        assert_eq!(p.aggregate.unwrap().aggs[0].func, AggFunc::CountDistinct);
        // A literal matches only a literal of its type: `pageRank / 2`
        // divides integers, `pageRank / 2.0` does not.
        let p = plan("SELECT SUM(pageRank / 2), SUM(pageRank / 2.0) FROM rankings");
        let agg = p.aggregate.as_ref().unwrap();
        assert_eq!(agg.aggs.len(), 2);
        assert_eq!(format!("{:?}", p.projections), "[#0, #1]");
        let p =
            plan("SELECT pageRank / 2 FROM rankings GROUP BY pageRank / 2 HAVING pageRank / 2 > 1");
        assert_eq!(
            format!("{:?}", p.aggregate.unwrap().having.unwrap()),
            "(#0 Gt 1)"
        );
        let snap = catalog().snapshot();
        let udfs = UdfRegistry::new();
        let bad = |sql: &str| plan_select(&parse_select(sql).unwrap(), &snap, &udfs);
        assert!(bad("SELECT pageRank / 2.0 FROM rankings GROUP BY pageRank / 2").is_err());
        assert!(bad(
            "SELECT pageRank / 2 FROM rankings GROUP BY pageRank / 2 HAVING pageRank / 2.0 > 1"
        )
        .is_err());
    }

    #[test]
    fn limit_pushdown_and_order_by_position() {
        let p = plan("SELECT pageURL FROM rankings LIMIT 7");
        assert!(p.limit_pushdown_allowed());
        let p = plan("SELECT pageURL, pageRank FROM rankings ORDER BY 2 DESC LIMIT 3");
        assert_eq!(p.order_by, vec![(1, true)]);
        assert!(!p.limit_pushdown_allowed());
        // ORDER BY binds and names the SELECT item it equals: `pageRank /
        // 2.0` is not the integer division `pageRank / 2`.
        let p = plan("SELECT pageRank / 2, pageRank / 2.0 FROM rankings ORDER BY pageRank / 2.0");
        assert_eq!(p.order_by, vec![(1, false)]);
        // A qualified name is a table's column, not an output name.
        let p = plan(
            "SELECT r.pageRank AS avgduration, r.avgDuration FROM rankings r ORDER BY r.avgDuration",
        );
        assert_eq!(p.order_by, vec![(1, false)]);
    }

    #[test]
    fn column_pruning_keeps_the_columns_the_bound_plan_reads() {
        // An output alias that is also a column name reads no column.
        let p = plan("SELECT pageURL AS pagerank FROM rankings ORDER BY pagerank");
        assert_eq!(p.scans[0].projection, vec![0]);
        assert_eq!(p.order_by, vec![(0, false)]);
        // Scan filters and the right join key are renumbered to their scan's
        // columns, everything else to the pruned joined row.
        let p = plan(
            "SELECT UV.adRevenue, R.avgDuration FROM rankings R JOIN uservisits UV \
             ON R.pageURL = UV.destURL WHERE UV.visitDate > 10 AND R.avgDuration > UV.adRevenue",
        );
        assert_eq!(p.scans[0].projection, vec![0, 2]);
        assert_eq!(p.scans[1].projection, vec![1, 2, 3]);
        assert_eq!(format!("{:?}", p.scans[1].filters), "[(#1 Gt 10)]");
        assert_eq!(format!("{:?}", p.joins[0].left_key), "#0");
        assert_eq!(format!("{:?}", p.joins[0].right_key), "#0");
        assert_eq!(format!("{:?}", p.residual_filter.unwrap()), "(#1 Gt #4)");
        assert_eq!(format!("{:?}", p.projections), "[#4, #1]");
        // A scan nothing reads still scans one column.
        let p = plan("SELECT COUNT(*) FROM rankings");
        assert_eq!(p.scans[0].projection, vec![0]);
    }

    #[test]
    fn planner_errors() {
        let snap = catalog().snapshot();
        let udfs = UdfRegistry::new();
        let bad = |sql: &str| plan_select(&parse_select(sql).unwrap(), &snap, &udfs);
        assert!(bad("SELECT x FROM missing_table").is_err());
        assert!(bad("SELECT nosuchcol FROM rankings").is_err());
        assert!(bad("SELECT pageURL, SUM(pageRank) FROM rankings").is_err()); // non-grouped column
        assert!(bad("SELECT UPPER(pageURL), COUNT(*) FROM rankings GROUP BY pageRank").is_err());
        assert!(bad("SELECT pageRank + avgDuration FROM rankings GROUP BY pageRank").is_err());
        assert!(
            bad("SELECT pageRank FROM rankings GROUP BY pageRank HAVING avgDuration > 1").is_err()
        );
        assert!(bad("SELECT pageRank FROM rankings GROUP BY pageRank HAVING nosuch > 1").is_err());
        assert!(bad("SELECT pageURL FROM rankings WHERE SUM(pageRank) > 1").is_err()); // aggregate in WHERE
        assert!(bad("SELECT COUNT(*) FROM rankings GROUP BY SUM(pageRank)").is_err());
        assert!(bad("SELECT SUM(COUNT(*)) FROM rankings").is_err()); // nested aggregate
        assert!(
            bad("SELECT pageRank, MAX(SUM(avgDuration)) FROM rankings GROUP BY pageRank").is_err()
        );
        assert!(bad("SELECT * FROM rankings GROUP BY pageRank").is_err());
        // HAVING makes a statement an aggregation.
        assert!(bad("SELECT pageRank FROM rankings HAVING pageRank > 100").is_err());
        assert!(bad("SELECT pageRank FROM rankings HAVING COUNT(*) > 100").is_err());
        assert!(
            bad("SELECT * FROM rankings r JOIN uservisits u ON r.pageRank > u.adRevenue").is_err()
        );
        // An output name two output columns share is ambiguous.
        let ambiguous = |sql: &str| {
            let err = bad(sql).err().map(|e| e.to_string());
            assert!(
                err.as_deref().is_some_and(|e| e.contains("ambiguous")),
                "{sql}: {err:?}"
            );
        };
        ambiguous("SELECT * FROM rankings r JOIN rankings s ON r.pageURL = s.pageURL ORDER BY pageRank DESC");
        ambiguous("SELECT pageURL AS u, destURL AS u FROM rankings JOIN uservisits ON pageURL = destURL DISTRIBUTE BY u");
    }

    #[test]
    fn distribute_by_resolves_to_output_column() {
        let p = plan("SELECT pageURL, pageRank FROM rankings DISTRIBUTE BY pageURL");
        assert_eq!(p.distribute_by, Some(0));
        let c = catalog();
        let bad = parse_select("SELECT pageRank FROM rankings DISTRIBUTE BY pageURL").unwrap();
        assert!(plan_select(&bad, &c.snapshot(), &UdfRegistry::new()).is_err());
    }
}
