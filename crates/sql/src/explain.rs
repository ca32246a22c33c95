//! `EXPLAIN [ANALYZE]` rendering.
//!
//! `EXPLAIN` renders the optimized logical plan. `EXPLAIN ANALYZE`
//! executes the query through the streaming path under scoped tracing
//! (recording works even when the global tracer is disabled), then
//! aggregates the recorded span tree into a per-operator report: self
//! wall time, rows, bytes, partitions touched, cache hits, lineage
//! rebuilds, plus stream/top-k/prefetch statistics. Both return their
//! report as a one-column (`plan: Str`) result set, one line per row.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use shark_common::{DataType, Result, Row, Schema, Value};
use shark_obs::SpanRecord;
use shark_rdd::RddContext;

use crate::catalog::CatalogSnapshot;
use crate::exec::{self, ExecConfig, QueryResult, StreamProgress};
use crate::plan::QueryPlan;

/// Schema of an `EXPLAIN` result: a single `plan` string column.
fn explain_schema() -> Schema {
    Schema::from_pairs(&[("plan", DataType::Str)])
}

fn lines_to_result(lines: Vec<String>, plan: String, notes: Vec<String>) -> QueryResult {
    QueryResult {
        schema: explain_schema(),
        rows: lines
            .into_iter()
            .map(|line| Row::new(vec![Value::str(line)]))
            .collect(),
        sim_seconds: 0.0,
        real_seconds: 0.0,
        plan,
        notes,
    }
}

/// `EXPLAIN` (without `ANALYZE`): render the optimized plan tree.
pub fn explain_plan(plan: &QueryPlan) -> QueryResult {
    let mut lines = vec![format!("plan: {}", plan.describe())];
    for scan in &plan.scans {
        lines.push(format!(
            "scan {}: columns={} filters={}",
            scan.table.name,
            scan.projection.len(),
            scan.filters.len(),
        ));
    }
    lines_to_result(lines, format!("explain({})", plan.describe()), Vec::new())
}

/// `EXPLAIN ANALYZE`: execute the query under tracing and render the
/// annotated plan. The query runs through the streaming executor — so
/// top-k pushdown, partition skipping and prefetch behave exactly as they
/// would for a streamed client — and is drained to completion.
pub fn explain_analyze(
    ctx: &RddContext,
    plan: &QueryPlan,
    cfg: &ExecConfig,
    snapshot: Arc<CatalogSnapshot>,
) -> Result<QueryResult> {
    let wall = Instant::now();
    let tracer = shark_obs::tracer();
    // Keep recording on for the duration of this statement even when the
    // global tracer is off.
    let _interest = tracer.subscribe();
    let mut root = shark_obs::start_trace("explain-analyze");
    let trace_id = root.trace_id();

    let (delivered, sim_seconds, progress, notes) = {
        let _attach = root.context().attach();
        let mut stream = exec::execute_stream(ctx, plan, cfg)?.with_snapshot(snapshot);
        let mut delivered = 0u64;
        while let Some(batch) = stream.next_batch()? {
            delivered += batch.len() as u64;
        }
        let sim_seconds = stream.sim_seconds();
        let progress = stream.progress().clone();
        let notes = stream.notes().to_vec();
        stream.cancel();
        (delivered, sim_seconds, progress, notes)
    };
    root.add_rows(delivered);
    root.annotate("rows_delivered", &delivered.to_string());
    root.finish();

    let records = tracer.records_for(trace_id);
    let lines = render_analyze(plan, &records, &progress, &notes, delivered, trace_id);
    let mut result = lines_to_result(
        lines,
        format!("explain_analyze({})", plan.describe()),
        notes,
    );
    result.sim_seconds = sim_seconds;
    result.real_seconds = wall.elapsed().as_secs_f64();
    Ok(result)
}

/// Per-operator aggregation of the recorded spans.
struct OpAgg {
    name: String,
    partitions: BTreeSet<usize>,
    self_us: u64,
    rows: u64,
    bytes: u64,
    cache_hits: u64,
    rebuilds: u64,
}

/// Lifecycle-phase aggregation (plan / optimize / stage-launch /
/// stream-deliver).
struct PhaseAgg {
    name: String,
    count: u64,
    self_us: u64,
    rows: u64,
}

fn format_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3}s", us as f64 / 1_000_000.0)
    } else {
        format!("{:.3}ms", us as f64 / 1_000.0)
    }
}

fn annotation_count(record: &SpanRecord, key: &str) -> u64 {
    record.annotations.iter().filter(|(k, _)| k == key).count() as u64
}

/// Render the recorded trace of one query as an annotated plan report.
fn render_analyze(
    plan: &QueryPlan,
    records: &[SpanRecord],
    progress: &StreamProgress,
    notes: &[String],
    delivered: u64,
    trace_id: u64,
) -> Vec<String> {
    // Self time: a span's duration minus its direct children's durations,
    // so operator and phase times roughly add up to the query's wall time
    // even though spans nest.
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for r in records {
        if r.parent_id != 0 {
            *child_us.entry(r.parent_id).or_insert(0) += r.duration_us;
        }
    }
    let self_us = |r: &SpanRecord| {
        r.duration_us
            .saturating_sub(child_us.get(&r.span_id).copied().unwrap_or(0))
    };

    // Every parent id must resolve within the trace (roots have parent 0).
    let ids: BTreeSet<u64> = records.iter().map(|r| r.span_id).collect();
    let parents_consistent = records
        .iter()
        .all(|r| r.parent_id == 0 || ids.contains(&r.parent_id));

    const PHASES: &[&str] = &["plan", "optimize", "stage-launch", "stream-deliver"];
    let mut phases: Vec<PhaseAgg> = Vec::new();
    let mut ops: Vec<OpAgg> = Vec::new();
    let mut topk_skipped = 0u64;
    let mut rdd_cache_hits = 0u64;
    let mut snapshot_pins = 0u64;
    let mut eviction_events = 0u64;
    let mut quota_eviction_events = 0u64;

    for r in records {
        if r.name == "explain-analyze" {
            continue;
        }
        if r.name == "snapshot-pin" {
            snapshot_pins += 1;
            continue;
        }
        if r.name == "eviction" {
            eviction_events += 1;
            continue;
        }
        if r.name == "quota-eviction" {
            quota_eviction_events += 1;
            continue;
        }
        if r.name == "top-k-skip" {
            topk_skipped += r
                .annotations
                .iter()
                .find(|(k, _)| k == "skipped")
                .and_then(|(_, v)| v.parse::<u64>().ok())
                .unwrap_or(0);
            continue;
        }
        if r.name == "rdd-cache-hit" {
            rdd_cache_hits += 1;
            continue;
        }
        if PHASES.contains(&r.name.as_str()) {
            match phases.iter_mut().find(|p| p.name == r.name) {
                Some(p) => {
                    p.count += 1;
                    p.self_us += self_us(r);
                    p.rows += r.rows;
                }
                None => phases.push(PhaseAgg {
                    name: r.name.clone(),
                    count: 1,
                    self_us: self_us(r),
                    rows: r.rows,
                }),
            }
            continue;
        }
        // Everything else is an operator execution span.
        let agg = match ops.iter_mut().find(|o| o.name == r.name) {
            Some(o) => o,
            None => {
                ops.push(OpAgg {
                    name: r.name.clone(),
                    partitions: BTreeSet::new(),
                    self_us: 0,
                    rows: 0,
                    bytes: 0,
                    cache_hits: 0,
                    rebuilds: 0,
                });
                ops.last_mut().expect("just pushed")
            }
        };
        if let Some(p) = r.partition {
            agg.partitions.insert(p);
        }
        agg.self_us += self_us(r);
        agg.rows += r.rows;
        agg.bytes += r.bytes;
        agg.cache_hits += annotation_count(r, "cache");
        agg.rebuilds += annotation_count(r, "rebuild");
    }

    let mut lines = Vec::new();
    lines.push(format!(
        "EXPLAIN ANALYZE trace={} spans={} parents_consistent={}",
        trace_id,
        records.len(),
        parents_consistent,
    ));
    lines.push(format!("plan: {}", plan.describe()));
    for p in &phases {
        let mut line = format!(
            "phase {}: time={} calls={}",
            p.name,
            format_us(p.self_us),
            p.count
        );
        if p.name == "stream-deliver" {
            line.push_str(&format!(" rows={}", p.rows));
        }
        lines.push(line);
    }
    for o in &ops {
        lines.push(format!(
            "op {}: partitions={} time={} rows={} bytes={} cache_hits={} rebuilds={}",
            o.name,
            o.partitions.len(),
            format_us(o.self_us),
            o.rows,
            o.bytes,
            o.cache_hits,
            o.rebuilds,
        ));
    }
    lines.push(format!(
        "stream: rows={} partitions={}/{} topk_skipped={} prefetch_hits={} rdd_cache_hits={}",
        delivered,
        progress.partitions_streamed,
        progress.partitions_total,
        topk_skipped,
        progress.prefetch_hits,
        rdd_cache_hits,
    ));
    if snapshot_pins + eviction_events + quota_eviction_events > 0 {
        lines.push(format!(
            "events: snapshot_pins={snapshot_pins} evictions={eviction_events} quota_evictions={quota_eviction_events}",
        ));
    }
    if let Some(ttfr) = progress.time_to_first_row {
        lines.push(format!(
            "first row: {} wall",
            format_us(ttfr.as_micros() as u64)
        ));
    }
    for note in notes {
        lines.push(format!("note: {note}"));
    }
    lines
}
