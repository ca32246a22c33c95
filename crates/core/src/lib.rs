//! # shark-core
//!
//! The top-level, user-facing API of the Shark reproduction: a
//! [`SharkContext`] that unifies SQL query processing and machine learning
//! over the same simulated cluster, cached data, and lineage-based fault
//! tolerance — the system described in *Shark: SQL and Rich Analytics at
//! Scale* (SIGMOD 2013). A `SharkContext` is a [`SqlSession`] plus the
//! [`SharkConfig`] it was built with, and derefs to the session.
//!
//! ```
//! use shark_core::SharkContext;
//! use shark_common::{row, DataType, Schema};
//! use shark_sql::TableMeta;
//!
//! let shark = SharkContext::local();
//! shark.register_table(TableMeta::new(
//!     "people",
//!     Schema::from_pairs(&[("name", DataType::Str), ("age", DataType::Int)]),
//!     2,
//!     |p| vec![row![format!("person{p}"), 20i64 + p as i64]],
//! ));
//! let result = shark.sql("SELECT name FROM people WHERE age >= 21").unwrap();
//! assert_eq!(result.rows.len(), 1);
//!
//! // `sql2rdd` (§4.1): the same query's rows as an RDD for an ML program.
//! let ages = shark.sql_to_rdd("SELECT age FROM people").unwrap();
//! assert_eq!(ages.rdd.count().unwrap(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod context;
pub mod datasets;

pub use context::{SharkConfig, SharkContext};

// Re-export the pieces users typically need alongside the context.
pub use shark_cluster::{ClusterConfig, EngineProfile};
pub use shark_ml::{KMeans, LinearRegression, LogisticRegression};
pub use shark_rdd::{BlockId, BlockStore, Rdd, RddConfig, RddContext};
pub use shark_sql::{
    Catalog, ExecConfig, ExecutionMode, LoadReport, MemTable, QueryResult, SqlSession, TableMeta,
    TableRdd,
};
