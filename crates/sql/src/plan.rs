//! The analyzer / logical planner.
//!
//! Converts a parsed [`SelectStmt`] plus the catalog into a [`QueryPlan`]:
//! resolved scans (with pruned column projections and pushed-down filters),
//! equi-join steps, an optional aggregation, final projections, ordering and
//! limit. The structure mirrors the fixed pipeline Shark compiles Hive
//! queries into: scan → filter → join* → aggregate → project → sort → limit.
//!
//! Every expression is bound by [`BoundExpr::bind`] against the row its
//! operator reads. After GROUP BY that row is the aggregate's output row
//! (`group values ++ aggregate values`): the SELECT items and HAVING bind
//! through one resolver that maps GROUP BY keys and aggregate calls to its
//! columns, so any expression over them plans.
//!
//! Rule-based optimizations applied here, as in the paper (§2.4): predicate
//! pushdown to scans (which also feeds map pruning, §3.5), column pruning
//! (only referenced columns are scanned from the columnar store), and LIMIT
//! pushdown to individual partitions when no ordering or aggregation is
//! present.

use std::cell::RefCell;
use std::sync::Arc;

use shark_common::{Field, Result, Schema, SharkError, Value};

use crate::aggregate::{AggExpr, AggFunc};
use crate::ast::{Expr, SelectItem, SelectStmt};
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
/// followed by the aggregate values; the SELECT items and HAVING are bound
/// over it.
pub struct AggregateNode {
    /// Grouping expressions over the combined (post-join) schema.
    pub group_exprs: Vec<BoundExpr>,
    /// Aggregate expressions over the combined schema: every aggregate the
    /// SELECT items and HAVING call, each once.
    pub aggs: Vec<AggExpr>,
    /// One expression per SELECT item, over the output row.
    pub output: Vec<BoundExpr>,
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
    /// Aggregation, if the query groups or uses aggregate functions.
    pub aggregate: Option<AggregateNode>,
    /// Final projections over the combined schema (only when there is no
    /// aggregation).
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
    /// The combined (post-join, pre-aggregation) schema.
    pub fn combined_schema(&self) -> Schema {
        let mut schema = Schema::default();
        for scan in &self.scans {
            schema = schema.join(&scan.projected_schema);
        }
        schema
    }

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

struct ScanBinding {
    qualifier: String,
    table: Arc<TableMeta>,
    alias: Option<String>,
    /// Columns referenced (original indices).
    referenced: Vec<usize>,
}

/// Resolves `[qualifier.]column` to `(scan index, original column index)`.
struct NameResolver<'a> {
    scans: &'a [ScanBinding],
}

impl NameResolver<'_> {
    fn resolve(&self, name: &str) -> Result<(usize, usize)> {
        if let Some((qual, col)) = name.split_once('.') {
            for (si, scan) in self.scans.iter().enumerate() {
                if scan.qualifier.eq_ignore_ascii_case(qual) {
                    let ci = scan.table.schema.resolve(col)?;
                    return Ok((si, ci));
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
                found = Some((si, ci));
            }
        }
        found.ok_or_else(|| SharkError::Analysis(format!("unknown column '{name}'")))
    }
}

/// Resolver used when binding expressions against the *combined* projected
/// schema.
struct CombinedResolver<'a> {
    resolver: &'a NameResolver<'a>,
    /// (scan, original column) -> combined index.
    combined_index: &'a dyn Fn(usize, usize) -> Option<usize>,
}

impl ColumnResolver for CombinedResolver<'_> {
    fn resolve_column(&self, name: &str) -> Result<usize> {
        let (si, ci) = self.resolver.resolve(name)?;
        (self.combined_index)(si, ci).ok_or_else(|| {
            SharkError::Analysis(format!("column '{name}' was pruned from the plan"))
        })
    }
}

/// Resolver over an aggregate's output row (`group values ++ aggregate
/// values`). A subexpression that binds over the combined schema to a
/// GROUP BY key is that key's column; an aggregate call is its aggregate's
/// column, appended on first use and reused when it binds the same; any
/// other column is an error.
struct AggregateResolver<'a> {
    combined: &'a dyn ColumnResolver,
    group_exprs: &'a [BoundExpr],
    aggs: RefCell<Vec<AggExpr>>,
}

impl ColumnResolver for AggregateResolver<'_> {
    fn resolve_column(&self, name: &str) -> Result<usize> {
        // Only a column that is no GROUP BY key gets here.
        self.combined.resolve_column(name)?;
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
                    Some(a) => Some(BoundExpr::bind(a, self.combined, udfs)?),
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
        let Ok(bound) = BoundExpr::bind(expr, self.combined, udfs) else {
            return Ok(None);
        };
        Ok(self
            .group_exprs
            .iter()
            .position(|g| *g == bound)
            .map(BoundExpr::Column))
    }
}

/// Resolver used when binding a pushed-down filter against one scan's
/// projected schema.
struct ScanLocalResolver<'a> {
    resolver: &'a NameResolver<'a>,
    scan: usize,
    projection: &'a [usize],
}

impl ColumnResolver for ScanLocalResolver<'_> {
    fn resolve_column(&self, name: &str) -> Result<usize> {
        let (si, ci) = self.resolver.resolve(name)?;
        if si != self.scan {
            return Err(SharkError::Analysis(format!(
                "column '{name}' does not belong to this scan"
            )));
        }
        self.projection
            .iter()
            .position(|&c| c == ci)
            .ok_or_else(|| SharkError::Analysis(format!("column '{name}' not projected")))
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
    let mut scans: Vec<ScanBinding> = Vec::new();
    let mut add_scan = |tref: &crate::ast::TableRef| -> Result<()> {
        let table = catalog.get(&tref.name)?;
        scans.push(ScanBinding {
            qualifier: tref
                .alias
                .clone()
                .unwrap_or_else(|| tref.name.to_lowercase()),
            table,
            alias: tref.alias.clone(),
            referenced: Vec::new(),
        });
        Ok(())
    };
    add_scan(from)?;
    for j in &stmt.joins {
        add_scan(&j.table)?;
    }

    let has_wildcard = stmt
        .projections
        .iter()
        .any(|p| matches!(p, SelectItem::Wildcard));
    let is_aggregate = !stmt.group_by.is_empty()
        || stmt.projections.iter().any(|p| match p {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        });
    if has_wildcard && is_aggregate {
        return Err(SharkError::Plan(
            "SELECT * cannot be combined with GROUP BY / aggregates".into(),
        ));
    }

    // ----- collect referenced columns per scan -------------------------------
    {
        let mut names: Vec<String> = Vec::new();
        for item in &stmt.projections {
            if let SelectItem::Expr { expr, .. } = item {
                expr.referenced_columns(&mut names);
            }
        }
        for j in &stmt.joins {
            j.on.referenced_columns(&mut names);
        }
        if let Some(w) = &stmt.selection {
            w.referenced_columns(&mut names);
        }
        for g in &stmt.group_by {
            g.referenced_columns(&mut names);
        }
        if let Some(h) = &stmt.having {
            h.referenced_columns(&mut names);
        }
        for (o, _) in &stmt.order_by {
            o.referenced_columns(&mut names);
        }
        let resolver = NameResolver { scans: &scans };
        let mut resolved: Vec<(usize, usize)> = Vec::new();
        for name in &names {
            // Names that do not resolve here may be output aliases (e.g. in
            // ORDER BY); genuinely unknown columns are caught when the
            // expressions are bound.
            if let Ok(rc) = resolver.resolve(name) {
                resolved.push(rc);
            }
        }
        for (si, ci) in resolved {
            if !scans[si].referenced.contains(&ci) {
                scans[si].referenced.push(ci);
            }
        }
    }
    if has_wildcard {
        for scan in scans.iter_mut() {
            scan.referenced = (0..scan.table.schema.len()).collect();
        }
    }
    for scan in scans.iter_mut() {
        if scan.referenced.is_empty() {
            // Always scan at least one column so row counts are preserved.
            scan.referenced.push(0);
        }
        scan.referenced.sort_unstable();
    }

    // Combined-schema offsets.
    let offsets: Vec<usize> = {
        let mut offs = Vec::with_capacity(scans.len());
        let mut acc = 0usize;
        for scan in &scans {
            offs.push(acc);
            acc += scan.referenced.len();
        }
        offs
    };
    let combined_index = |si: usize, ci: usize| -> Option<usize> {
        scans[si]
            .referenced
            .iter()
            .position(|&c| c == ci)
            .map(|p| offsets[si] + p)
    };

    let resolver = NameResolver { scans: &scans };
    let combined_resolver = CombinedResolver {
        resolver: &resolver,
        combined_index: &combined_index,
    };

    // Build scan nodes (filters filled below).
    let mut scan_nodes: Vec<ScanNode> = scans
        .iter()
        .map(|s| ScanNode {
            table: s.table.clone(),
            alias: s.alias.clone(),
            projection: s.referenced.clone(),
            projected_schema: s.table.schema.project(&s.referenced),
            filters: Vec::new(),
        })
        .collect();

    // ----- WHERE: split, push down, keep residual -----------------------------
    let mut residual: Vec<Expr> = Vec::new();
    let mut join_candidates: Vec<Expr> = Vec::new();
    if let Some(selection) = stmt.selection.clone() {
        for conjunct in selection.split_conjuncts() {
            let mut names = Vec::new();
            conjunct.referenced_columns(&mut names);
            let mut scans_touched: Vec<usize> = Vec::new();
            for n in &names {
                let (si, _) = resolver.resolve(n)?;
                if !scans_touched.contains(&si) {
                    scans_touched.push(si);
                }
            }
            match scans_touched.len() {
                0 | 1 => {
                    let si = scans_touched.first().copied().unwrap_or(0);
                    let local = ScanLocalResolver {
                        resolver: &resolver,
                        scan: si,
                        projection: &scans[si].referenced,
                    };
                    let bound = BoundExpr::bind(&conjunct, &local, udfs)?;
                    scan_nodes[si].filters.push(bound);
                }
                2 => {
                    // Potential implicit join condition (FROM a, b WHERE a.x = b.y).
                    join_candidates.push(conjunct);
                }
                _ => residual.push(conjunct),
            }
        }
    }

    // ----- joins ---------------------------------------------------------------
    let mut join_nodes: Vec<JoinNode> = Vec::new();
    for (ji, clause) in stmt.joins.iter().enumerate() {
        let right_scan = ji + 1;
        let mut on = clause.on.clone();
        if matches!(on, Expr::Literal(Value::Bool(true))) {
            // Comma join: find an implicit equality condition in WHERE.
            let pos = join_candidates
                .iter()
                .position(|e| {
                    let mut names = Vec::new();
                    e.referenced_columns(&mut names);
                    names.iter().any(|n| {
                        resolver
                            .resolve(n)
                            .map(|(si, _)| si == right_scan)
                            .unwrap_or(false)
                    })
                })
                .ok_or_else(|| {
                    SharkError::Plan(format!(
                        "no join condition found for table '{}'",
                        clause.table.name
                    ))
                })?;
            on = join_candidates.remove(pos);
        }
        let (left_expr, right_expr) = match &on {
            Expr::Binary {
                left,
                op: crate::ast::BinaryOp::Eq,
                right,
            } => (left.as_ref().clone(), right.as_ref().clone()),
            other => {
                return Err(SharkError::Plan(format!(
                    "only equi-joins are supported, found {other:?}"
                )))
            }
        };
        // Figure out which side belongs to the right scan.
        let side_of = |e: &Expr| -> Result<bool> {
            let mut names = Vec::new();
            e.referenced_columns(&mut names);
            let mut right = false;
            let mut left = false;
            for n in &names {
                let (si, _) = resolver.resolve(n)?;
                if si == right_scan {
                    right = true;
                } else {
                    left = true;
                }
            }
            if right && left {
                return Err(SharkError::Plan(
                    "join keys must reference only one side each".into(),
                ));
            }
            Ok(right)
        };
        let (left_ast, right_ast) = if side_of(&left_expr)? {
            (right_expr, left_expr)
        } else {
            (left_expr, right_expr)
        };
        let left_key = BoundExpr::bind(&left_ast, &combined_resolver, udfs)?;
        let right_key = {
            let local = ScanLocalResolver {
                resolver: &resolver,
                scan: right_scan,
                projection: &scans[right_scan].referenced,
            };
            BoundExpr::bind(&right_ast, &local, udfs)?
        };
        join_nodes.push(JoinNode {
            left_key,
            right_key,
            right_scan,
        });
    }
    // Any remaining cross-scan conjuncts become residual filters.
    residual.extend(join_candidates);
    let residual_filter = match residual.len() {
        0 => None,
        _ => {
            let combined = residual
                .into_iter()
                .reduce(|a, b| Expr::binary(a, crate::ast::BinaryOp::And, b))
                .unwrap();
            Some(BoundExpr::bind(&combined, &combined_resolver, udfs)?)
        }
    };

    // ----- aggregation / projection -------------------------------------------
    let mut output_fields: Vec<Field> = Vec::new();
    let mut order_source_exprs: Vec<Expr> = Vec::new(); // AST of each output column
    let combined_schema = {
        let mut s = Schema::default();
        for node in &scan_nodes {
            s = s.join(&node.projected_schema);
        }
        s
    };

    let (aggregate, projections) = if is_aggregate {
        let group_exprs = stmt
            .group_by
            .iter()
            .map(|g| BoundExpr::bind(g, &combined_resolver, udfs))
            .collect::<Result<Vec<_>>>()?;
        let output_row = AggregateResolver {
            combined: &combined_resolver,
            group_exprs: &group_exprs,
            aggs: RefCell::default(),
        };
        let items: Vec<(&Expr, &Option<String>)> = stmt
            .projections
            .iter()
            .map(|item| match item {
                SelectItem::Expr { expr, alias } => (expr, alias),
                SelectItem::Wildcard => unreachable!("checked above"),
            })
            .collect();
        let output = items
            .iter()
            .map(|(expr, _)| BoundExpr::bind(expr, &output_row, udfs))
            .collect::<Result<Vec<_>>>()?;
        let having = match &stmt.having {
            None => None,
            Some(h) => Some(BoundExpr::bind(h, &output_row, udfs)?),
        };
        let aggs = output_row.aggs.into_inner();

        // The output row's types: each key's, then each aggregate's.
        let row_schema = Schema::new(
            group_exprs
                .iter()
                .map(|g| g.data_type(&combined_schema))
                .chain(aggs.iter().map(|a| a.data_type(&combined_schema)))
                .map(|t| Field::new("", t))
                .collect(),
        );
        for (i, ((expr, alias), bound)) in items.into_iter().zip(&output).enumerate() {
            let name = alias.clone().unwrap_or_else(|| match (bound, expr) {
                (BoundExpr::Column(c), _) if *c >= group_exprs.len() => {
                    format!("{}_{i}", aggs[c - group_exprs.len()].func.display_name())
                }
                (BoundExpr::Column(_), Expr::Column(c)) => {
                    c.rsplit('.').next().unwrap_or(c).to_string()
                }
                (BoundExpr::Column(_), _) => format!("group_{i}"),
                _ => format!("col_{i}"),
            });
            output_fields.push(Field::new(name, bound.data_type(&row_schema)));
            order_source_exprs.push(expr.clone());
        }

        (
            Some(AggregateNode {
                group_exprs,
                aggs,
                output,
                having,
            }),
            Vec::new(),
        )
    } else {
        let mut projections = Vec::new();
        for (i, item) in stmt.projections.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for (si, node) in scan_nodes.iter().enumerate() {
                        for (pi, field) in node.projected_schema.fields().iter().enumerate() {
                            projections.push(BoundExpr::Column(offsets[si] + pi));
                            output_fields.push(field.clone());
                            order_source_exprs.push(Expr::Column(field.name.clone()));
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = BoundExpr::bind(expr, &combined_resolver, udfs)?;
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        Expr::Column(c) => c.rsplit('.').next().unwrap_or(c).to_string(),
                        _ => format!("col_{i}"),
                    });
                    output_fields.push(Field::new(name, bound.data_type(&combined_schema)));
                    projections.push(bound);
                    order_source_exprs.push(expr.clone());
                }
            }
        }
        (None, projections)
    };

    let output_schema = Schema::new(output_fields);

    // ----- ORDER BY ------------------------------------------------------------
    let mut order_by = Vec::new();
    for (expr, desc) in &stmt.order_by {
        let idx = resolve_output_column(expr, &output_schema, &order_source_exprs)?;
        order_by.push((idx, *desc));
    }

    // ----- DISTRIBUTE BY --------------------------------------------------------
    let distribute_by = match &stmt.distribute_by {
        None => None,
        Some(col) => Some(output_schema.resolve(col).map_err(|_| {
            SharkError::Plan(format!(
                "DISTRIBUTE BY column '{col}' is not part of the query output"
            ))
        })?),
    };

    Ok(QueryPlan {
        scans: scan_nodes,
        joins: join_nodes,
        residual_filter,
        aggregate,
        projections,
        output_schema,
        order_by,
        limit: stmt.limit,
        distribute_by,
    })
}

/// Resolve an ORDER BY expression to an output column index.
fn resolve_output_column(
    expr: &Expr,
    output_schema: &Schema,
    output_sources: &[Expr],
) -> Result<usize> {
    // Positional reference (1-based).
    if let Expr::Literal(Value::Int(n)) = expr {
        let idx = *n as usize;
        if idx >= 1 && idx <= output_schema.len() {
            return Ok(idx - 1);
        }
        return Err(SharkError::Plan(format!(
            "ORDER BY position {n} out of range"
        )));
    }
    // By output column name / alias.
    if let Expr::Column(name) = expr {
        let bare = name.rsplit('.').next().unwrap_or(name);
        if let Some(i) = output_schema.index_of(bare) {
            return Ok(i);
        }
    }
    // By structural match with a select item.
    if let Some(i) = output_sources.iter().position(|s| s == expr) {
        return Ok(i);
    }
    Err(SharkError::Plan(format!(
        "ORDER BY expression {expr:?} must reference an output column"
    )))
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
        assert_eq!(agg.output, vec![BoundExpr::Column(0), BoundExpr::Column(1)]);
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
        assert_eq!(agg.output.len(), 1);
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
        let agg = p.aggregate.as_ref().unwrap();
        assert_eq!(
            format!("{:?}", agg.output),
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
        assert_eq!(format!("{:?}", agg.output), "[#0, #1]");
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
        assert!(
            bad("SELECT * FROM rankings r JOIN uservisits u ON r.pageRank > u.adRevenue").is_err()
        );
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
