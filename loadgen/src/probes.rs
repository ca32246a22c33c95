//! Per-layer probes: each times calls into one layer's public functions,
//! from outside, on inputs shaped like the workload's. They run after the
//! measured windows of a traced run and never touch an end-to-end number.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use shark_columnar::{decode_partition, encode_partition, ColumnarPartition};
use shark_common::{Result, Row, Schema};
use shark_datagen::pavlo::{self, PavloConfig};
use shark_datagen::warehouse;
use shark_rdd::{RddConfig, RddContext};
use shark_server::net::frame::{read_frame, write_frame, Frame};
use shark_server::{
    replay_wal, write_manifest, write_snapshot, AdmissionController, ManifestEntry, SnapshotFile,
    SpillManager, SpillManifest, TableRecord, WalRecord, WalWriter,
};
use shark_sql::ast::Statement;
use shark_sql::{parser, plan_select, statement_fingerprint, SpillSource, UdfRegistry};

use crate::env::WireEnv;
use crate::metrics::Report;
use crate::stats::median;
use crate::workloads::{Plan, Workload, PAVLO_PARTITIONS};

/// Rows in the codec probes' `ResultBatch` (the default batch cap).
const BATCH_ROWS: usize = 1024;

/// Median over `reps` timings of `f`, in nanoseconds per call of `f`.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    try_median_ns(reps, || {
        f();
        Ok(())
    })
    .expect("the closure cannot fail")
}

/// [`median_ns`] for a probe that can fail; the first failure ends it.
fn try_median_ns(reps: usize, mut f: impl FnMut() -> Result<()>) -> Result<f64> {
    let mut timings = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        timings.push(t.elapsed().as_secs_f64() * 1e9);
    }
    Ok(median(&timings))
}

/// A fixed spin loop. The same code takes the same time on the same idle
/// machine, so an unusual value flags a slow or noisy box.
pub fn calibration_ns() -> f64 {
    median_ns(7, || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2_000_000 {
            x = black_box(
                x.wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407),
            );
        }
        black_box(x);
    })
}

/// One generated partition of the workload's largest table.
fn sample_partition(plan: &Plan) -> (Schema, Vec<Row>) {
    match (&plan.warehouse, &plan.pavlo) {
        (Some(cfg), _) => (
            warehouse::sessions_schema(),
            warehouse::sessions_partition(cfg, 0),
        ),
        (None, Some(cfg)) => (
            pavlo::uservisits_schema(),
            pavlo::uservisits_partition(cfg, PAVLO_PARTITIONS, 0),
        ),
        (None, None) => {
            let cfg = plan.ml.as_ref().expect("a plan has at least one table");
            (
                shark_datagen::ml::points_schema(cfg.dims),
                shark_datagen::ml::points_table_partition(cfg, crate::workloads::ML_PARTITIONS, 0),
            )
        }
    }
}

/// `client.decode_ns_row`, `net.frame_encode_ns_row`: the frame codec on a
/// full `ResultBatch` of `stream_full`-shaped rows.
fn codec(report: &mut Report) {
    let cfg = PavloConfig::default();
    let rows: Vec<Row> = pavlo::uservisits_partition(&cfg, PAVLO_PARTITIONS, 0)
        .iter()
        .take(BATCH_ROWS)
        .map(|r| r.project(&[0, 2, 3, 8]))
        .collect();
    let frame = Frame::ResultBatch { rows };
    let mut wire = Vec::new();
    write_frame(&mut wire, &frame).expect("write to a Vec");
    let encode = median_ns(31, || {
        let mut out = Vec::with_capacity(wire.len());
        write_frame(&mut out, black_box(&frame)).expect("write to a Vec");
        black_box(out);
    });
    let decode = median_ns(31, || {
        black_box(read_frame(&mut black_box(&wire[..])).expect("frame decodes"));
    });
    report.set("net.frame_encode_ns_row", encode / BATCH_ROWS as f64, 31);
    report.set("client.decode_ns_row", decode / BATCH_ROWS as f64, 31);
}

/// `admission.acquire_ns`: an uncontended acquire and release.
fn admission(report: &mut Report) {
    let controller = AdmissionController::new(4, 64);
    const CALLS: usize = 1_000;
    let ns = median_ns(21, || {
        for _ in 0..CALLS {
            drop(black_box(
                controller.acquire().expect("uncontended acquire"),
            ));
        }
    });
    report.set("admission.acquire_ns", ns / CALLS as f64, 21);
}

/// `columnar.*`: build, materialise and spill-codec one partition.
fn columnar(plan: &Plan, report: &mut Report) -> ColumnarPartition {
    let (schema, rows) = sample_partition(plan);
    let n = rows.len() as f64;
    let build = median_ns(9, || {
        black_box(ColumnarPartition::from_rows(&schema, black_box(&rows)));
    });
    let part = ColumnarPartition::from_rows(&schema, &rows);
    let all: Vec<usize> = (0..schema.len()).collect();
    let materialize = median_ns(9, || {
        black_box(part.project_rows(black_box(&all)));
    });
    let frame = encode_partition(&part, 1);
    let mb = frame.len() as f64 / 1e6;
    let encode = median_ns(9, || {
        black_box(encode_partition(black_box(&part), 1));
    });
    let decode = median_ns(9, || {
        black_box(decode_partition(black_box(&frame)).expect("spill frame decodes"));
    });
    report.set("columnar.build_ns_row", build / n, 9);
    report.set("columnar.materialize_ns_row", materialize / n, 9);
    report.set("columnar.spill_encode_mb_s", mb / (encode / 1e9), 9);
    report.set("columnar.spill_decode_mb_s", mb / (decode / 1e9), 9);
    part
}

/// `rdd.dispatch_us_task`, `rdd.shuffle_rows_s`: the scheduler on a no-op
/// 240-task job, and a `reduce_by_key` over 200k pairs.
fn rdd(report: &mut Report) -> Result<()> {
    let ctx = RddContext::new(RddConfig::default());
    const TASKS: usize = 240;
    let noop = ctx.parallelize((0..TASKS as i64).collect(), TASKS);
    noop.count()?;
    let dispatch = try_median_ns(9, || noop.count().map(drop))?;
    report.set("rdd.dispatch_us_task", dispatch / 1e3 / TASKS as f64, 9);

    const PAIRS: i64 = 200_000;
    let pairs = ctx.parallelize((0..PAIRS).map(|i| (i % 10_000, 1i64)).collect(), 16);
    let shuffle = try_median_ns(5, || {
        pairs.reduce_by_key(16, |a, b| a + b).count().map(drop)
    })?;
    report.set("rdd.shuffle_rows_s", PAIRS as f64 / (shuffle / 1e9), 5);
    Ok(())
}

/// `spill.*`: the disk tier's store and fetch, one partition at a time.
fn spill(part: &ColumnarPartition, scratch: &Path, report: &mut Report) -> Result<()> {
    let dir = scratch.join(format!("probe-spill.{}", std::process::id()));
    let manager = SpillManager::create(&dir, u64::MAX)?;
    const PARTS: usize = 16;
    let mut store = Vec::new();
    let mut fetch = Vec::new();
    for p in 0..PARTS {
        let t = Instant::now();
        manager.store("probe", p, part, 1)?;
        store.push(t.elapsed().as_secs_f64() * 1e6);
    }
    for p in 0..PARTS {
        let t = Instant::now();
        let fetched = manager.fetch("probe", p, 1);
        fetch.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(fetched.is_some(), "a stored partition must fetch");
    }
    report.set("spill.store_us_part", median(&store), PARTS as u64);
    report.set("spill.fetch_us_part", median(&fetch), PARTS as u64);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// `wal.append_fsync_us`, `wal.checkpoint_ms`, `wal.replay_us_record`.
fn wal(plan: &Plan, scratch: &Path, report: &mut Report) -> Result<()> {
    let dir = scratch.join(format!("probe-wal.{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| shark_common::SharkError::Config(e.to_string()))?;
    let (schema, _) = sample_partition(plan);
    let table = TableRecord {
        name: "probe".to_string(),
        fields: schema
            .fields()
            .iter()
            .map(|f| (f.name.to_string(), f.data_type))
            .collect(),
        num_partitions: PAVLO_PARTITIONS as u64,
        version: 1,
        cached: true,
        distribute_by: None,
        copartitioned_with: None,
        row_count_hint: Some(1),
    };
    const BATCH: u64 = 8;
    const BATCHES: usize = 40;
    let batch: Vec<WalRecord> = (0..BATCH)
        .map(|p| WalRecord::Demoted {
            epoch: 1,
            table: "probe".to_string(),
            table_version: 1,
            partition: p,
            bytes: 1 << 20,
            checksum: p,
        })
        .collect();
    let path = dir.join("probe.wal");
    let mut writer = WalWriter::create(&path)?;
    let append = try_median_ns(BATCHES, || writer.append_batch(&batch))?;
    report.set("wal.append_fsync_us", append / 1e3, BATCHES as u64);

    let replayed = std::cell::Cell::new(0);
    let replay = median_ns(9, || {
        replayed.set(black_box(replay_wal(&path)).records.len())
    });
    assert_eq!(
        replayed.get(),
        BATCHES * BATCH as usize,
        "every appended record replays"
    );
    report.set(
        "wal.replay_us_record",
        replay / 1e3 / replayed.get() as f64,
        9,
    );

    let snapshot = SnapshotFile {
        epoch: 1,
        tables: vec![table.clone(), table],
    };
    let manifest = SpillManifest {
        entries: (0..PAVLO_PARTITIONS as u64)
            .map(|p| ManifestEntry {
                table: "probe".to_string(),
                partition: p,
                table_version: 1,
                file: format!("probe_{p}.spill"),
                file_bytes: 1 << 20,
                checksum: p,
            })
            .collect(),
    };
    let checkpoint = try_median_ns(11, || {
        write_snapshot(&dir.join("probe.snapshot"), &snapshot)?;
        write_manifest(&dir.join("probe.manifest"), &manifest)
    })?;
    report.set("wal.checkpoint_ms", checkpoint / 1e6, 11);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// `sql.parse_us`, `sql.plan_us`, `plancache.hit_ns`: mean over the
/// workload's fixed texts of each text's median.
fn planning(env: &WireEnv, report: &mut Report) -> Result<()> {
    let snapshot = env.server.catalog().snapshot();
    let udfs = UdfRegistry::new();
    let cache = env
        .server
        .plan_cache()
        .expect("the default config has a plan cache");
    let (mut parse, mut plan, mut hit) = (Vec::new(), Vec::new(), Vec::new());
    for template in env.plan.templates.iter().filter(|t| t.standalone()) {
        let sql = &template.sql;
        parse.push(try_median_ns(15, || {
            parser::parse(black_box(sql)).map(drop)
        })?);
        let Statement::Select(select) = parser::parse(sql)? else {
            continue;
        };
        plan.push(try_median_ns(15, || {
            plan_select(black_box(&select), &snapshot, &udfs).map(drop)
        })?);
        const LOOKUPS: usize = 100;
        hit.push(
            median_ns(15, || {
                for _ in 0..LOOKUPS {
                    let entry = cache.statement(statement_fingerprint(black_box(sql)));
                    black_box(entry.and_then(|e| e.plan_for_epoch(snapshot.epoch())));
                }
            }) / LOOKUPS as f64,
        );
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.set("sql.parse_us", mean(&parse) / 1e3, parse.len() as u64);
    report.set("sql.plan_us", mean(&plan) / 1e3, plan.len() as u64);
    report.set("plancache.hit_ns", mean(&hit), hit.len() as u64);
    Ok(())
}

/// `net.roundtrip_us`: a `prepare` of a text the plan cache already holds —
/// the wire and a fingerprint, nothing else.
fn roundtrip(env: &WireEnv, report: &mut Report) -> Result<()> {
    let Some(template) = env.plan.templates.iter().find(|t| t.standalone()) else {
        return Ok(());
    };
    let mut client = shark_client::SharkClient::connect(env.addr, "", "")?;
    client.prepare(&template.sql)?;
    let ns = try_median_ns(201, || client.prepare(&template.sql).map(drop))?;
    report.set("net.roundtrip_us", ns / 1e3, 201);
    Ok(())
}

/// Every probe a wire workload's layers call for.
pub fn wire(env: &WireEnv, scratch: &Path, report: &mut Report) -> Result<()> {
    codec(report);
    admission(report);
    let part = columnar(&env.plan, report);
    rdd(report)?;
    planning(env, report)?;
    roundtrip(env, report)?;
    if env.plan.workload == Workload::Pressure {
        spill(&part, scratch, report)?;
        wal(&env.plan, scratch, report)?;
    }
    Ok(())
}

/// The probes of `ml_pipeline`'s layers: columnar load, the rdd scheduler
/// and shuffle, and a pass over a cached RDD.
pub fn ml(env: &crate::env::MlEnv, report: &mut Report) -> Result<()> {
    columnar(&env.plan, report);
    rdd(report)?;
    let cfg = env
        .plan
        .ml
        .as_ref()
        .expect("ml_pipeline plans carry an MlConfig");
    let ctx = env.shark.rdd_context();
    let points: Vec<Vec<f64>> = (0..crate::workloads::ML_PARTITIONS)
        .flat_map(|p| {
            shark_datagen::ml::cluster_points_partition(cfg, crate::workloads::ML_PARTITIONS, p)
        })
        .collect();
    let rows = points.len() as f64;
    let cached = ctx
        .parallelize(points, crate::workloads::ML_PARTITIONS)
        .cache();
    cached.count()?;
    let resident =
        ctx.cache().cached_partitions(cached.id()) as f64 / cached.num_partitions() as f64;
    report.set(
        "rdd.cache_hit_ratio",
        resident * 100.0,
        cached.num_partitions() as u64,
    );
    let pass = try_median_ns(15, || {
        cached
            .map(|p| p.iter().sum::<f64>())
            .reduce(|a, b| a + b)
            .map(drop)
    })?;
    report.set("rdd.cached_pass_ns_row", pass / rows, 15);
    cached.uncache();
    Ok(())
}
