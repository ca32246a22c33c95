//! Unified metrics registry: counters, gauges and histograms with
//! explicit buckets, rendered in Prometheus text format and exposed as a
//! structured snapshot for tests.
//!
//! Metric handles are `Arc`-shared atomics — registration takes a lock,
//! but updating a registered handle is a single atomic op, so hot paths
//! register once and then update lock-free.
//!
//! A *scope* ([`MetricsRegistry::scoped`]) is a registry of its own whose
//! counters and gauges also add into the same-named handle of the
//! process-wide [`metrics`] registry: one update, two relaxed atomics, and
//! the fact is readable both per scope (one engine context) and per
//! process (the scrape endpoint). Histograms are process-only: a scope
//! hands out the process handle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

/// Histogram bucket upper bounds (seconds) for latency-style metrics.
pub const LATENCY_BUCKETS: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// Histogram bucket upper bounds (seconds) for local-I/O-style metrics:
/// spill reads and writes complete in microseconds to low milliseconds, so
/// the latency buckets start an order of magnitude below
/// [`LATENCY_BUCKETS`] to keep the distribution visible.
pub const IO_BUCKETS: &[f64] = &[
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 1.0,
];

/// Histogram bucket upper bounds (bytes) for size-style metrics.
pub const BYTES_BUCKETS: &[f64] = &[
    1024.0,
    16.0 * 1024.0,
    256.0 * 1024.0,
    1024.0 * 1024.0,
    16.0 * 1024.0 * 1024.0,
    256.0 * 1024.0 * 1024.0,
    1024.0 * 1024.0 * 1024.0,
    16.0 * 1024.0 * 1024.0 * 1024.0,
];

/// Histogram bucket upper bounds (bytes) for wire-protocol frame sizes:
/// most frames are a handful of bytes (handshakes, acks) up to a few
/// megabytes (result batches), so the buckets start two orders of
/// magnitude below [`BYTES_BUCKETS`] and stop at the 16 MiB frame cap.
pub const WIRE_BUCKETS: &[f64] = &[
    16.0,
    64.0,
    256.0,
    1024.0,
    4.0 * 1024.0,
    16.0 * 1024.0,
    64.0 * 1024.0,
    256.0 * 1024.0,
    1024.0 * 1024.0,
    4.0 * 1024.0 * 1024.0,
    16.0 * 1024.0 * 1024.0,
];

/// Monotonically increasing counter. A scope's counter also adds into its
/// process-wide namesake.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
    parent: Option<Arc<Counter>>,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if let Some(parent) = &self.parent {
            parent.add(n);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value. A scope's gauge also moves its process-wide
/// namesake by the same deltas.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    parent: Option<Arc<Gauge>>,
}

impl Gauge {
    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        let old = self.value.swap(v, Ordering::Relaxed);
        if let Some(parent) = &self.parent {
            parent.add(v - old);
        }
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
        if let Some(parent) = &self.parent {
            parent.add(delta);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Histogram with explicit upper-bound buckets plus an implicit `+Inf`.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One count per bound, plus the `+Inf` overflow bucket at the end.
    counts: Box<[AtomicU64]>,
    /// Sum of observations, stored as f64 bit pattern (CAS-updated).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        let counts: Vec<AtomicU64> = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: bounds.to_vec(),
            counts: counts.into_boxed_slice(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = 0u64;
        let mut buckets = Vec::with_capacity(self.bounds.len());
        for (i, bound) in self.bounds.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            buckets.push((*bound, cumulative));
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Point-in-time view of one histogram: cumulative bucket counts
/// (Prometheus semantics), total count and sum.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// `(upper_bound, cumulative_count)` pairs, excluding `+Inf`.
    pub buckets: Vec<(f64, u64)>,
    /// Total number of observations (the `+Inf` cumulative count).
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Point-in-time view of every registered metric, keyed by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, or 0 when the counter was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, or 0 when the gauge was never registered.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

/// Unified registry of named metrics. Get-or-register semantics: asking
/// for an existing name returns the same underlying handle.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, (String, Metric)>>,
    /// The process registry a scope forwards into (`None` for a root).
    parent: Option<&'static MetricsRegistry>,
}

impl MetricsRegistry {
    /// Create an empty root registry (tests; production uses [`metrics`]).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Create an empty scope: its counters and gauges also add into the
    /// same-named handles of [`metrics`], registered there with the same
    /// help text on first use.
    pub fn scoped() -> MetricsRegistry {
        MetricsRegistry {
            parent: Some(metrics()),
            ..MetricsRegistry::default()
        }
    }

    /// Get or register a counter.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock();
        let entry = metrics.entry(name.to_string()).or_insert_with(|| {
            let counter = Counter {
                parent: self.parent.map(|p| p.counter(name, help)),
                ..Counter::default()
            };
            (help.to_string(), Metric::Counter(Arc::new(counter)))
        });
        match &entry.1 {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or register a gauge.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock();
        let entry = metrics.entry(name.to_string()).or_insert_with(|| {
            let gauge = Gauge {
                parent: self.parent.map(|p| p.gauge(name, help)),
                ..Gauge::default()
            };
            (help.to_string(), Metric::Gauge(Arc::new(gauge)))
        });
        match &entry.1 {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or register a histogram with the given bucket upper bounds
    /// (see [`LATENCY_BUCKETS`] / [`BYTES_BUCKETS`]). A scope returns the
    /// process registry's handle.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        if let Some(parent) = self.parent {
            return parent.histogram(name, help, bounds);
        }
        let mut metrics = self.metrics.lock();
        let entry = metrics.entry(name.to_string()).or_insert_with(|| {
            (
                help.to_string(),
                Metric::Histogram(Arc::new(Histogram::new(bounds))),
            )
        });
        match &entry.1 {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Structured point-in-time view of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock();
        let mut snap = MetricsSnapshot::default();
        for (name, (_, metric)) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }

    /// Render every registered metric in the Prometheus text exposition
    /// format (`# HELP` / `# TYPE` plus samples; histograms expand into
    /// `_bucket{le=…}` / `_sum` / `_count` series).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let metrics = self.metrics.lock();
        let mut out = String::new();
        for (name, (help, metric)) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let snap = h.snapshot();
                    for (bound, cumulative) in &snap.buckets {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
                    let _ = writeln!(out, "{name}_sum {}", snap.sum);
                    let _ = writeln!(out, "{name}_count {}", snap.count);
                }
            }
        }
        out
    }
}

static METRICS: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide unified metrics registry.
pub fn metrics() -> &'static MetricsRegistry {
    METRICS.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("shark_queries_total", "Total queries");
        c.inc();
        c.add(2);
        // Get-or-register returns the same handle.
        assert_eq!(reg.counter("shark_queries_total", "x").get(), 3);
        let g = reg.gauge("shark_memstore_bytes", "Resident bytes");
        g.set(100);
        g.add(-40);
        assert_eq!(g.get(), 60);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("shark_queries_total"), 3);
        assert_eq!(snap.gauge("shark_memstore_bytes"), 60);
        assert_eq!(snap.counter("never_registered"), 0);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "Latency", &[0.01, 0.1, 1.0]);
        for v in [0.005, 0.05, 0.05, 0.5, 5.0] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(hs.buckets, vec![(0.01, 1), (0.1, 3), (1.0, 4)]);
        assert_eq!(hs.count, 5);
        assert!((hs.sum - 5.605).abs() < 1e-9);
    }

    #[test]
    fn prometheus_text_format() {
        let reg = MetricsRegistry::new();
        reg.counter("shark_queries_total", "Total queries").add(7);
        reg.gauge("shark_live_sessions", "Open sessions").set(2);
        let h = reg.histogram("shark_exec_seconds", "Exec latency", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE shark_queries_total counter"));
        assert!(text.contains("shark_queries_total 7"));
        assert!(text.contains("# TYPE shark_live_sessions gauge"));
        assert!(text.contains("shark_live_sessions 2"));
        assert!(text.contains("# TYPE shark_exec_seconds histogram"));
        assert!(text.contains("shark_exec_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("shark_exec_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("shark_exec_seconds_count 2"));
    }

    #[test]
    fn a_scope_adds_into_the_process_registry() {
        let scope = MetricsRegistry::scoped();
        let other = MetricsRegistry::scoped();
        let name = "shark_test_scope_forwarding_total";
        let before = metrics().snapshot().counter(name);
        scope.counter(name, "Scope forwarding probe").add(3);
        other.counter(name, "Scope forwarding probe").inc();
        assert_eq!(scope.snapshot().counter(name), 3);
        assert_eq!(other.snapshot().counter(name), 1);
        assert_eq!(metrics().snapshot().counter(name) - before, 4);
        let gauge = scope.gauge("shark_test_scope_gauge", "Scope gauge probe");
        gauge.add(2);
        gauge.set(5);
        gauge.add(-1);
        assert_eq!(gauge.get(), 4);
        assert_eq!(metrics().snapshot().gauge("shark_test_scope_gauge"), 4);
        let h = scope.histogram("shark_test_scope_seconds", "Scope histogram", &[1.0]);
        assert!(Arc::ptr_eq(
            &h,
            &metrics().histogram("shark_test_scope_seconds", "Scope histogram", &[1.0])
        ));
        assert!(scope.snapshot().histograms.is_empty());
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("m", "help");
        reg.gauge("m", "help");
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c", "h");
        let h = reg.histogram("h", "h", LATENCY_BUCKETS);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                        h.observe(0.002);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert!((h.sum() - 8.0).abs() < 1e-6);
    }
}
