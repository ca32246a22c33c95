//! Shark benchmark harness: Criterion micro-benchmarks and the `experiments` binary.
//!
//! # Fast mode
//!
//! Setting the `SHARK_BENCH_FAST` environment variable puts every benchmark
//! into *smoke* mode: row counts are scaled down through [`scaled`] /
//! [`tpch`] / [`warehouse`] and sample counts through [`samples`], so the
//! full suite finishes in seconds. CI's `bench-smoke` job runs the suite
//! this way on every push — not for trustworthy absolute numbers, but to
//! prove every bench still runs and to publish a machine-readable artifact
//! of the medians (see the `SHARK_BENCH_JSON` hook in the vendored
//! `criterion` stand-in) that seeds the performance trajectory.

#![forbid(unsafe_code)]

use shark_datagen::tpch::TpchConfig;
use shark_datagen::warehouse::WarehouseConfig;

/// Whether `SHARK_BENCH_FAST` is set (the CI bench-smoke mode).
pub fn fast_mode() -> bool {
    std::env::var_os("SHARK_BENCH_FAST").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Scale a row/size knob down in fast mode (÷16, floor 64); identity
/// otherwise.
pub fn scaled(full: usize) -> usize {
    if fast_mode() {
        (full / 16).max(64).min(full)
    } else {
        full
    }
}

/// Sample count for a benchmark group: 3 in fast mode, `default` otherwise.
pub fn samples(default: usize) -> usize {
    if fast_mode() {
        3
    } else {
        default
    }
}

/// Scale a TPC-H data configuration down in fast mode.
pub fn tpch(cfg: TpchConfig) -> TpchConfig {
    TpchConfig {
        lineitem_rows: scaled(cfg.lineitem_rows),
        supplier_rows: scaled(cfg.supplier_rows),
        orders_rows: scaled(cfg.orders_rows),
        ..cfg
    }
}

/// Scale a warehouse data configuration down in fast mode.
pub fn warehouse(cfg: WarehouseConfig) -> WarehouseConfig {
    WarehouseConfig {
        sessions_per_partition: scaled(cfg.sessions_per_partition),
        ..cfg
    }
}

/// Dump the process-wide [`shark_obs::metrics()`] registry in Prometheus
/// text format to the file named by `SHARK_METRICS_SNAPSHOT`, if that
/// variable is set. Called at the end of a benchmark run so CI can upload
/// the counters/histograms the run produced as an artifact. Best-effort:
/// an unwritable path is ignored rather than failing the bench.
pub fn dump_metrics_snapshot() {
    if let Some(path) = std::env::var_os("SHARK_METRICS_SNAPSHOT") {
        if !path.is_empty() {
            let _ = std::fs::write(path, shark_obs::metrics().render_prometheus());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_identity_outside_fast_mode() {
        // The test environment does not set SHARK_BENCH_FAST (and tests
        // must not mutate the process environment), so the helpers pass
        // values through unchanged.
        if !fast_mode() {
            assert_eq!(scaled(60_000), 60_000);
            assert_eq!(samples(10), 10);
            assert_eq!(tpch(TpchConfig::tiny()).lineitem_rows, 4_000);
            assert_eq!(
                warehouse(WarehouseConfig::tiny()).sessions_per_partition,
                60
            );
        } else {
            assert_eq!(scaled(60_000), 3_750);
            assert_eq!(samples(10), 3);
            // Small knobs never scale below the floor, or above the
            // original value.
            assert_eq!(scaled(100), 64);
            assert_eq!(scaled(32), 32);
        }
    }
}
