//! # shark-columnar
//!
//! Shark's columnar in-memory store (§3.2 of the paper) plus the
//! per-partition statistics that enable map pruning (§3.5).
//!
//! Tables cached in Shark's memstore are stored column-wise: every column of
//! a partition becomes one contiguous, optionally compressed array rather
//! than a collection of per-row objects. This crate provides:
//!
//! * [`EncodedColumn`] — the physical column encodings: plain arrays,
//!   run-length encoding, dictionary encoding and bit-packing, chosen per
//!   column *per partition* by [`encoding::choose_encoding`] exactly as the
//!   paper's data-loading tasks do (§3.3).
//! * [`ColumnarPartition`] — a partition of rows in columnar form, with
//!   conversion to/from [`shark_common::Row`]s, per-column decode, and
//!   memory accounting.
//! * [`PartitionStats`] / [`ColumnStats`] — min/max and small-cardinality
//!   distinct-value statistics collected while loading, used by the query
//!   optimizer to skip partitions whose values cannot satisfy a predicate
//!   (map pruning).
//! * [`footprint`] — a model of the per-object overhead a deserialized
//!   row-object store would pay (the "JVM object" comparison of §3.2).

#![forbid(unsafe_code)]

pub mod batch;
pub mod column;
pub mod encoding;
pub mod footprint;
pub mod partition;
pub mod spill;
pub mod stats;

pub use batch::{ColumnBatch, Selection, Text, Vector, VectorData};
pub use column::EncodedColumn;
pub use encoding::{choose_encoding, EncodingChoice, EncodingKind};
pub use partition::ColumnarPartition;
pub use spill::{
    decode_partition, encode_partition, read_frame_header, SpillFrameHeader, SPILL_HEADER_BYTES,
    SPILL_MAGIC, SPILL_VERSION,
};
pub use stats::{ColumnStats, PartitionStats};
