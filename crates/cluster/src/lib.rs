//! # shark-cluster
//!
//! A discrete-event **cluster simulator** standing in for the 100-node EC2
//! cluster used in the Shark paper (SIGMOD 2013, §6.1).
//!
//! Every query in this repository executes *for real*, in-process, over
//! scaled-down data; this crate supplies the *timing* substrate that scales
//! those executions back up to cluster size. It models exactly the engine
//! properties the paper identifies as decisive (§7):
//!
//! * task launch overhead (≈5 ms for Spark vs. ≈5 s for Hadoop),
//! * memory- vs. disk-materialized shuffle, hash- vs. sort-based shuffle,
//! * inter-stage materialization to a replicated DFS (Hive) vs. in-memory
//!   RDDs (Shark),
//! * columnar in-memory scans vs. 200 MB/s/core row deserialization,
//! * stragglers, speculative execution and node failures.
//!
//! The public surface is three layers:
//!
//! * [`EngineProfile`] / [`ClusterConfig`] — the cost-model parameters,
//!   with [`EngineProfile::spark`] and [`EngineProfile::hadoop`] presets.
//! * [`CostModel`] — converts per-task row/byte counts measured during the
//!   real execution into simulated task durations.
//! * [`ClusterSim`] — an event-driven scheduler that places tasks on
//!   `nodes × cores` slots, applies launch overheads, stragglers,
//!   speculative back-ups and node failures, and reports per-stage and
//!   per-job simulated wall-clock times.

#![forbid(unsafe_code)]

pub mod config;
pub mod cost;
pub mod failure;
pub mod hdfs;
pub mod sim;

pub use config::{ClusterConfig, EngineKind, EngineProfile};
pub use cost::{CostModel, InputSource, OutputSink, TaskCostInput};
pub use failure::FailurePlan;
pub use hdfs::DfsModel;
pub use sim::{ClusterSim, StageSimResult, TaskSpec};
