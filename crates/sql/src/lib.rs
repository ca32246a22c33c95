//! # shark-sql
//!
//! The SQL engine of the Shark reproduction: a HiveQL-subset front end
//! (lexer, parser, analyzer), a rule-based optimizer (predicate pushdown,
//! column pruning, LIMIT pushdown, map pruning), physical execution over
//! [`shark_rdd`] RDDs, and — the paper's core contribution — **Partial DAG
//! Execution** (§3.1): run-time join-strategy selection, reducer-count
//! selection and skew-aware bucket coalescing driven by statistics gathered
//! at shuffle boundaries.
//!
//! The typical entry point is [`SqlSession`]: register tables (or create
//! them with `CREATE TABLE … TBLPROPERTIES("shark.cache"="true") AS SELECT`)
//! and call [`SqlSession::sql`] or [`SqlSession::sql_to_rdd`].

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod ast;
pub mod catalog;
pub mod engine;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod pde;
pub mod plan;
pub mod plancache;
pub mod scan;
pub mod vector;

pub use aggregate::{AggExpr, AggFunc, GroupBlock, GroupFold};
pub use catalog::{
    Catalog, CatalogSnapshot, DdlRecord, MemTable, ReclaimedDrop, RowGenerator, SpillSource,
    TableMeta, PARTITION_PROMOTIONS, PARTITION_REBUILDS,
};
pub use engine::SqlSession;
pub use exec::{
    ExecConfig, ExecutionMode, LoadReport, QueryResult, QueryStream, StreamProgress, TableRdd,
};
pub use expr::{BoundExpr, ScalarFunc, UdfRegistry};
pub use pde::{choose_join_strategy, coalesce_buckets, JoinStrategy};
pub use plan::{plan_select, QueryPlan};
pub use plancache::{
    statement_fingerprint, CachedStatement, PlanCache, PLAN_CACHE_LOOKUP_HITS, PLAN_CACHE_MISSES,
    PLAN_CACHE_STALE_PLANS,
};
pub use vector::Kernel;
