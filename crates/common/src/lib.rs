//! # shark-common
//!
//! Shared data model and utilities for the `shark-rs` workspace, a Rust
//! reproduction of *Shark: SQL and Rich Analytics at Scale* (SIGMOD 2013).
//!
//! This crate defines the relational [`Value`] / [`Row`] / [`Schema`] types
//! used throughout the system, the workspace-wide error type
//! [`SharkError`], size-estimation helpers used by the cluster cost model,
//! the fast non-cryptographic hash used by partitioners, and the lossy
//! log-encoded sizes that Partial DAG Execution collects at shuffle
//! boundaries.
//! [`codec`] holds the byte-level primitives and tag tables shared by every
//! on-disk and wire format.

#![forbid(unsafe_code)]

pub mod codec;
pub mod error;
pub mod hash;
pub mod row;
pub mod size;
pub mod sketch;
pub mod value;

pub use error::{Result, SharkError};
pub use row::{Field, Row, Schema};
pub use size::EstimateSize;
pub use value::{DataType, Value, ValueRef};
