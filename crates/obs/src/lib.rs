//! # shark-obs
//!
//! The observability layer of the Shark reproduction: a lightweight
//! span-based **query tracer** with a bounded flight-recorder ring buffer,
//! and a **unified metrics registry** (counters / gauges / histograms) that
//! renders in Prometheus text format.
//!
//! The tracer is designed for negligible overhead when disabled: every
//! instrumentation site first checks one relaxed atomic load
//! ([`active`]) and allocates nothing unless a trace is actually being
//! recorded on the current thread. Span context propagates through a
//! thread-local stack; worker threads adopt a parent context explicitly
//! via [`TraceContext::attach`].
//!
//! Completed spans land in a fixed-capacity ring buffer (the *flight
//! recorder*), sized by the `SHARK_TRACE_RING` environment variable
//! (default 4096 records); old records are overwritten, never reallocated.

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::JsonWriter;
pub use metrics::{
    metrics, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    BYTES_BUCKETS, IO_BUCKETS, LATENCY_BUCKETS, WIRE_BUCKETS,
};
pub use trace::{
    active, add_bytes, add_rows, annotate, current, event, span, start_trace, tracer, AttachGuard,
    DetachedSpan, InterestGuard, SpanHandle, SpanRecord, TraceContext, Tracer,
};
