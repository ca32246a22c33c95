//! The metric catalog — every name the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) frozen regression bound — and the
//! report a run fills in. `BENCHMARK.json` repeats the catalog; a self-test
//! keeps the two in step.

use std::collections::BTreeMap;

use crate::workloads::CLASS_NAMES;
use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics: what a client of the system sees. Reported by every
/// workload from the untraced window. The bounds are what the (shared,
/// noisy) reference box allows — see "End-to-end metrics" in the README for
/// the spreads measured; no bound may exceed 25%.
pub const END_TO_END: [Spec; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_ops_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p95_ms", "ms", Better::Lower, 0.25),
    e2e("ttfr_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// Per-layer metrics other than the per-class latencies: `(name, unit,
/// better)`. Counts are deltas over the untraced window of the traced run;
/// timings are probes around the layer's public functions.
const LAYER_FIXED: [(&str, &str, Better); 66] = [
    ("client.latency_p99_ms", "ms", Lower),
    ("client.decode_ns_row", "ns", Lower),
    ("client.open_latency_p95_ms", "ms", Lower),
    ("client.restore_first_answer_ms", "ms", Lower),
    ("client.failed_share", "%", Lower),
    ("net.frame_encode_ns_row", "ns", Lower),
    ("net.roundtrip_us", "us", Lower),
    ("net.bytes_per_row", "B", Lower),
    ("net.frames_per_op", "count", Lower),
    ("admission.acquire_ns", "ns", Lower),
    ("admission.queue_wait_ms", "ms", Lower),
    ("admission.rejected", "count", Lower),
    ("plancache.hit_ratio", "%", Higher),
    ("plancache.stale_plans", "count", Lower),
    ("plancache.hit_ns", "ns", Lower),
    ("sql.parse_us", "us", Lower),
    ("sql.plan_us", "us", Lower),
    ("sql.engine_ms", "ms", Lower),
    ("sql.partitions_per_op", "count", Lower),
    ("server.exec_ms_per_op", "ms", Lower),
    ("columnar.build_ns_row", "ns", Lower),
    ("columnar.materialize_ns_row", "ns", Lower),
    ("columnar.bytes_per_row", "B", Lower),
    ("columnar.spill_encode_mb_s", "MB/s", Higher),
    ("columnar.spill_decode_mb_s", "MB/s", Higher),
    ("rdd.dispatch_us_task", "us", Lower),
    ("rdd.shuffle_rows_s", "1/s", Higher),
    ("rdd.cached_pass_ns_row", "ns", Lower),
    ("rdd.prefetch_hits", "count", Higher),
    ("rdd.cache_hit_ratio", "%", Higher),
    ("memstore.cache_hit_bytes_per_op", "B", Higher),
    ("memstore.evicted_partitions", "count", Lower),
    ("memstore.promotions", "count", Lower),
    ("memstore.rebuilds", "count", Lower),
    ("memstore.session_ms", "ms", Lower),
    ("spill.store_us_part", "us", Lower),
    ("spill.fetch_us_part", "us", Lower),
    ("spill.bytes_written", "B", Lower),
    ("spill.bytes_read", "B", Lower),
    ("spill.displaced", "count", Lower),
    ("wal.append_fsync_us", "us", Lower),
    ("wal.records", "count", Lower),
    ("wal.snapshots", "count", Lower),
    ("wal.checkpoint_ms", "ms", Lower),
    ("wal.replay_us_record", "us", Lower),
    ("wal.shutdown_ms", "ms", Lower),
    ("wal.frames_adopted", "count", Higher),
    ("core.sql_to_rdd_ms", "ms", Lower),
    ("core.first_pass_ms", "ms", Lower),
    ("ml.logistic_iter_ms", "ms", Lower),
    ("ml.kmeans_iter_ms", "ms", Lower),
    ("cluster.sim_seconds", "s", Lower),
    ("obs.trace_overhead_pct", "%", Lower),
    ("loadgen.trace_overhead_pct", "%", Lower),
    ("loadgen.late_p95_ms", "ms", Lower),
    ("loadgen.calib_ns", "ns", Lower),
    ("loadgen.samples", "count", Higher),
    ("loadgen.steal_pct", "%", Lower),
    ("trace.unexplained_pct", "%", Lower),
    ("share.net_pct", "%", Lower),
    ("share.serving_pct", "%", Lower),
    ("share.plan_pct", "%", Lower),
    ("share.exec_pct", "%", Lower),
    ("share.durability_pct", "%", Lower),
    ("share.rdd_ml_pct", "%", Lower),
    ("level.client_ms", "ms", Lower),
];

/// `client.<class>_p50_ms`, in `CLASS_NAMES` order.
pub const CLASS_P50: [&str; CLASS_NAMES.len()] = [
    "client.point_agg_p50_ms",
    "client.count_filter_p50_ms",
    "client.topk_small_p50_ms",
    "client.prepared_p50_ms",
    "client.cold_literal_p50_ms",
    "client.selection_big_p50_ms",
    "client.agg_dict7_p50_ms",
    "client.agg_coarse_p50_ms",
    "client.stream_full_p50_ms",
    "client.agg_fine_p50_ms",
    "client.join_agg_p50_ms",
    "client.topk_global_p50_ms",
    "client.sort_limit_p50_ms",
    "client.read_a_p50_ms",
    "client.read_b_p50_ms",
    "client.ctas_p50_ms",
    "client.read_tmp_p50_ms",
    "client.drop_p50_ms",
    "client.sql_to_rdd_p50_ms",
    "client.logistic_p50_ms",
    "client.kmeans_p50_ms",
];

/// Every per-layer metric: the per-class client latencies, then the rest.
pub fn per_layer() -> Vec<Spec> {
    let classes = CLASS_P50.iter().map(|&name| Spec {
        name,
        unit: "ms",
        better: Lower,
        bound: 0.0,
    });
    let fixed = LAYER_FIXED.iter().map(|&(name, unit, better)| Spec {
        name,
        unit,
        better,
        bound: 0.0,
    });
    classes.chain(fixed).collect()
}

/// `BENCHMARK.json`, generated from the catalog (`loadgen catalog`).
pub fn benchmark_json() -> String {
    use crate::json::string;
    use crate::workloads::Workload;
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                string(w.name()),
                string(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                s.name,
                s.unit,
                s.better.as_str(),
                s.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                s.name,
                s.unit,
                s.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"loadgen/Cargo.toml\", \"--\"],\n  \"paths\": [\"loadgen\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        layers.join(",\n")
    )
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

/// Metrics that are counts of a deterministic run: two runs of the same
/// code on the same seed must agree exactly.
pub const EXACT: [&str; 2] = ["cluster.sim_seconds", "columnar.bytes_per_row"];

#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    /// Samples behind the value (0 when it is a plain count or ratio).
    pub samples: u64,
}

/// The values one run measured, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Report {
    values: BTreeMap<&'static str, Value>,
}

impl Report {
    /// Record a value. The result line may only hold numbers, so a value
    /// that is not one (a ratio over nothing measured) is reported as 0,
    /// loudly.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("loadgen: {name} came out as {value}; reporting 0");
            0.0
        };
        self.values.insert(name, Value { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |v| v.value)
    }

    /// The report as `name value unit (n=samples)` lines, catalog order.
    /// A layer the workload does not exercise reads 0.
    pub fn render(&self, specs: &[Spec]) -> String {
        let mut out = String::new();
        for spec in specs {
            let v = self.get(spec.name).cloned().unwrap_or(Value {
                value: 0.0,
                samples: 0,
            });
            out.push_str(&format!(
                "  {:<34} {:>16.4} {:<6} n={}\n",
                spec.name, v.value, spec.unit, v.samples
            ));
        }
        out
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` over `specs`.
    pub fn metrics_json(&self, specs: &[Spec]) -> String {
        let fields: Vec<String> = specs
            .iter()
            .map(|spec| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    spec.name,
                    crate::json::number(self.value(spec.name)),
                    spec.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    /// `BENCHMARK.json` is what the driver reads; the binary reports from
    /// the catalog above. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(
            text == benchmark_json(),
            "stale: regenerate with `loadgen catalog > BENCHMARK.json`"
        );
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.get("run_seconds").unwrap().num(),
            Some(f64::from(RUN_SECONDS))
        );

        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().str().unwrap())
            .collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);

        let listed = doc.get("end_to_end").unwrap().items();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, spec) in listed.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").unwrap().str(), Some(spec.name));
            assert_eq!(entry.get("unit").unwrap().str(), Some(spec.unit));
            assert_eq!(
                entry.get("better").unwrap().str(),
                Some(spec.better.as_str())
            );
            assert_eq!(
                entry.get("bound").unwrap().num(),
                Some(spec.bound),
                "{}",
                spec.name
            );
        }

        let listed = doc.get("per_layer").unwrap().items();
        let specs = per_layer();
        assert_eq!(listed.len(), specs.len());
        assert!(specs.len() <= 128);
        for (entry, spec) in listed.iter().zip(&specs) {
            assert_eq!(entry.get("name").unwrap().str(), Some(spec.name));
            assert_eq!(entry.get("unit").unwrap().str(), Some(spec.unit));
            assert_eq!(
                entry.get("better").unwrap().str(),
                Some(spec.better.as_str())
            );
        }
        for name in EXACT {
            assert!(specs.iter().any(|s| s.name == name));
        }
    }

    #[test]
    fn class_metrics_follow_the_class_names() {
        for (metric, class) in CLASS_P50.iter().zip(CLASS_NAMES) {
            assert_eq!(*metric, format!("client.{class}_p50_ms"));
        }
    }
}
