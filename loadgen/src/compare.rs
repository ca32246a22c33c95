//! `loadgen compare <a.jsonl> <b.jsonl>`: two result sets side by side.
//! One row per workload × end-to-end metric with both medians, their ratio
//! (base: the first file), the frozen bound and a verdict; then the counts
//! that must repeat exactly.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{Better, Spec, END_TO_END, EXACT};
use crate::stats::{median, spread};
use crate::workloads::Workload;

/// Metric values by `(workload, metric)`, one entry per run.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// The runs of one results file: untraced (end-to-end) and traced (layers).
#[derive(Default)]
struct ResultSet {
    end_to_end: Runs,
    layers: Runs,
}

fn load(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = ResultSet::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or(format!("{}:{}: no \"{key}\"", path.display(), n + 1))
        };
        if field("schema")?.str() != Some("shark-bench-v2") {
            return Err(format!(
                "{}:{}: not a shark-bench-v2 record",
                path.display(),
                n + 1
            ));
        }
        let workload = field("workload")?.str().unwrap_or_default().to_string();
        let runs = if field("trace")?.num() == Some(1.0) {
            &mut set.layers
        } else {
            &mut set.end_to_end
        };
        for (name, metric) in field("metrics")?.entries() {
            if let Some(value) = metric.get("value").and_then(Json::num) {
                runs.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound: no verdict possible.
    Unresolved,
}

/// Judge `b` against base `a` for one metric.
fn judge(spec: &Spec, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (base, new) = (median(a), median(b));
    let worse_by = match spec.better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    let widest = spread(a).into_iter().chain(spread(b)).fold(0.0, f64::max);
    let verdict = if widest > spec.bound {
        Verdict::Unresolved
    } else if worse_by > spec.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (base, new, verdict)
}

pub fn run(a: &Path, b: &Path) -> i32 {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("loadgen compare: {e}");
            return 2;
        }
    };
    let mut bad = 0;
    println!(
        "{:<12} {:<18} {:>5} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload", "metric", "unit", "a (base)", "b", "b/a", "bound"
    );
    for workload in Workload::ALL.map(Workload::name) {
        for spec in END_TO_END {
            let key = (workload.to_string(), spec.name.to_string());
            let (Some(va), Some(vb)) = (a.end_to_end.get(&key), b.end_to_end.get(&key)) else {
                continue;
            };
            let (base, new, verdict) = judge(&spec, va, vb);
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            };
            bad += i32::from(verdict != Verdict::Ok);
            println!(
                "{:<12} {:<18} {:>5} {:>12.4} {:>12.4} {:>9.4} {:>5.0}%  {word} (n={}/{})",
                workload,
                spec.name,
                spec.unit,
                base,
                new,
                new / base,
                spec.bound * 100.0,
                va.len(),
                vb.len()
            );
        }
    }
    for workload in Workload::ALL.map(Workload::name) {
        for name in EXACT {
            let key = (workload.to_string(), name.to_string());
            let (Some(va), Some(vb)) = (a.layers.get(&key), b.layers.get(&key)) else {
                continue;
            };
            // A count is exact when every run agrees to the bit. The
            // simulated seconds are a float sum whose order the engine does
            // not fix, so agreement to 1e-12 still counts as repeating.
            let agree = |tolerance: f64| {
                va.iter()
                    .chain(vb)
                    .all(|v| (v - va[0]).abs() <= tolerance * va[0].abs())
            };
            let word = if agree(0.0) {
                "exact"
            } else if agree(1e-12) {
                "repeats (last bits differ)"
            } else {
                bad += 1;
                "differs"
            };
            println!(
                "{:<12} {:<24} {:>20} {:>20}  {word}",
                workload, name, va[0], vb[0]
            );
        }
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let spec = |better| Spec {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
        };
        let (lower, higher) = (spec(Better::Lower), spec(Better::Higher));
        let steady = |v: f64| vec![v, v * 1.01, v * 0.99, v];
        assert_eq!(judge(&lower, &steady(10.0), &steady(10.5)).2, Verdict::Ok);
        assert_eq!(
            judge(&lower, &steady(10.0), &steady(11.5)).2,
            Verdict::Regressed
        );
        assert_eq!(judge(&lower, &steady(10.0), &steady(5.0)).2, Verdict::Ok);
        assert_eq!(
            judge(&higher, &steady(100.0), &steady(85.0)).2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, &steady(100.0), &steady(130.0)).2,
            Verdict::Ok
        );
        // Quartiles 15% apart: wider than the bound, so no verdict.
        let noisy = vec![9.0, 9.2, 10.0, 10.8, 11.0];
        assert_eq!(judge(&lower, &noisy, &steady(10.0)).2, Verdict::Unresolved);
        // A single run per side has no spread to judge by.
        assert_eq!(judge(&lower, &[10.0], &[10.5]).2, Verdict::Ok);
    }
}
