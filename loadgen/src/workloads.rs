//! The five workloads: frozen scales, mixes and rates, and the seeded
//! statement generator. Everything here is a pure function of the seed —
//! the server only ever sees the generated tables and statement texts.

use std::sync::Arc;

use shark_datagen::ml::MlConfig;
use shark_datagen::pavlo::PavloConfig;
use shark_datagen::warehouse::{WarehouseConfig, BASE_DAY, REGION_COUNTRIES};

use crate::rng::Rng;

/// Statement classes, in report order. A class's index is its id.
pub const CLASS_NAMES: [&str; 21] = [
    "point_agg",
    "count_filter",
    "topk_small",
    "prepared",
    "cold_literal",
    "selection_big",
    "agg_dict7",
    "agg_coarse",
    "stream_full",
    "agg_fine",
    "join_agg",
    "topk_global",
    "sort_limit",
    "read_a",
    "read_b",
    "ctas",
    "read_tmp",
    "drop",
    "sql_to_rdd",
    "logistic",
    "kmeans",
];

pub fn class_id(name: &str) -> usize {
    CLASS_NAMES
        .iter()
        .position(|c| *c == name)
        .unwrap_or_else(|| panic!("unknown statement class {name}"))
}

// ---- Frozen scales ------------------------------------------------------

/// Partitions of the Pavlo tables in every workload that loads them.
pub const PAVLO_PARTITIONS: usize = 16;
/// `scan` and `shuffle` load Pavlo at this multiple of
/// `PavloConfig::default()` (rows and `distinct_source_ips`).
pub const PAVLO_SCALE_RESIDENT: usize = 2;
/// Statement texts per class in the fixed-text workloads.
pub const POOL: usize = 2;
/// `ml_pipeline`: points, dimensions and partitions of the `points` table.
/// 12.8k points (not the paper-shaped 100k) so that one run holds about
/// 300 whole pipelines; the per-iteration structure is unchanged.
pub const ML_ROWS: usize = 12_800;
pub const ML_DIMS: usize = 10;
pub const ML_PARTITIONS: usize = 32;
pub const ML_ITERATIONS: usize = 10;
pub const ML_KMEANS_REDUCERS: usize = 16;
/// `pressure`: memory budget as a share of the loaded bytes, and spill
/// budget as a share of the overflow.
pub const PRESSURE_MEMORY_SHARE: f64 = 0.50;
pub const PRESSURE_SPILL_SHARE: f64 = 0.75;
/// `pressure`: every n-th op is the CREATE/query/DROP write triplet; the
/// others read both tables, one after the other.
pub const PRESSURE_WRITE_EVERY: u64 = 10;
/// `pressure`: shutdown/restore cycles after the window.
pub const RESTORE_CYCLES: usize = 20;
/// `dashboard` open loop: total ops/s over all connections, frozen at
/// about 40% of the closed-loop throughput of the 2-core reference box
/// when the benchmark was defined (~1030 ops/s).
pub const DASHBOARD_OPEN_RATE_OPS_S: f64 = 400.0;
/// Literal generators one run may hold (connections, probes, levels); the
/// cold-literal index space is striped over them so texts never repeat.
const GENERATOR_STRIPES: u64 = 16;
/// Stripes 0..4 belong to the driver connections; the rest of a run's
/// generators take these.
pub const STRIPE_SIM: u64 = 4;
pub const STRIPE_LEVELS: u64 = 5;
pub const STRIPE_RESTORE: u64 = 6;
pub const STRIPE_WARM: u64 = 8;
/// `buffering_ms` is uniform in `0..5000`; 2477 is coprime with 5000, so
/// multiplying by it permutes the literal space.
const COLD_LITERALS: u64 = 5_000;
const COLD_STRIDE: u64 = 2_477;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Dashboard,
    Scan,
    Shuffle,
    Pressure,
    MlPipeline,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Dashboard,
        Workload::Scan,
        Workload::Shuffle,
        Workload::Pressure,
        Workload::MlPipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Dashboard => "dashboard",
            Workload::Scan => "scan",
            Workload::Shuffle => "shuffle",
            Workload::Pressure => "pressure",
            Workload::MlPipeline => "ml_pipeline",
        }
    }

    /// Why the workload exists (one line; `BENCHMARK.json` quotes it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Dashboard => "small map-pruned statements, 80% cached texts and 20% never-seen literals: per-statement fixed costs (wire, admission, plan cache, dispatch) dominate, kernels touch few rows",
            Workload::Scan => "resident Pavlo tables at 2x: big selections, dictionary and coarse aggregates, a streamed full projection; columnar decode, filter kernels, row encode/decode dominate, the shuffle is tiny",
            Workload::Shuffle => "10k-group aggregate, Pavlo join, global top-k and sort over the same tables: shuffle write/fetch, hash build/probe, PDE and the k-way merge dominate; wire and scan kernels are minor",
            Workload::Pressure => "data twice the memory budget over a spill tier, reads that evict each other, a CREATE/query/DROP every tenth op, then restarts: demotion, promotion, rebuild, WAL, stale plans, restore",
            Workload::MlPipeline => "in-process SQL to feature RDD, then logistic regression and k-means on the cached RDD: pure rdd executor, cache and reduce, so SQL-side, wire and WAL changes predict no change here",
        }
    }

    /// Ops the reference box completes in one 15 s window. Peak RSS is
    /// projected to this count, so that a faster system is not charged for
    /// the extra ops it fits into the same window.
    pub fn reference_ops(self) -> f64 {
        match self {
            Workload::Dashboard => 13_500.0,
            Workload::Scan => 1_100.0,
            Workload::Shuffle => 340.0,
            Workload::Pressure => 260.0,
            Workload::MlPipeline => 300.0,
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Connections driving the workload on a box with `nproc` cores. Capped
    /// at the default admission width so the queue never fills: admission
    /// contention is deliberately out of scope.
    pub fn connections(self, nproc: usize) -> usize {
        match self {
            // One connection so the eviction/WAL counters repeat exactly.
            Workload::Pressure | Workload::MlPipeline => 1,
            _ => nproc.clamp(1, 4),
        }
    }
}

/// How a statement travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Send {
    /// `query_stream`: batches drained one by one, time to first batch taken.
    Stream,
    /// `query`: a statement without a result set (DDL).
    Batch,
    /// `execute` of a statement prepared when the connection opened.
    Prepared,
}

/// One fixed statement text of a run.
#[derive(Debug, Clone)]
pub struct Template {
    pub class: usize,
    /// The text; `{n}` stands for the op number in `pressure`'s triplet.
    pub sql: String,
    pub send: Send,
    /// Whether the text has an `ORDER BY` (rows are then compared in order).
    pub ordered: bool,
    /// The SELECT whose row-path answer is the oracle: the text itself, an
    /// equivalent over the base table for `read_tmp`, `None` for DDL.
    pub oracle_sql: Option<String>,
}

impl Template {
    /// Whether the text is a SELECT over tables that exist outside an op
    /// (so it can be parsed, planned and run on its own).
    pub fn standalone(&self) -> bool {
        self.oracle_sql.as_ref() == Some(&self.sql)
    }

    fn select(class: &str, sql: String) -> Template {
        Template {
            class: class_id(class),
            oracle_sql: Some(sql.clone()),
            ordered: sql.contains(" ORDER BY "),
            sql,
            send: Send::Stream,
        }
    }
}

/// One entry of a workload's closed-loop mix.
#[derive(Debug, Clone)]
pub struct MixEntry {
    pub class: usize,
    /// Ops of this class per block of `Plan::block_len()` ops.
    pub weight: u32,
    /// The class's fixed texts (empty for `cold_literal`).
    pub templates: Vec<usize>,
}

/// Everything a run derives from `(workload, seed)`.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub templates: Vec<Template>,
    pub mix: Vec<MixEntry>,
    pub pavlo: Option<PavloConfig>,
    pub warehouse: Option<WarehouseConfig>,
    pub ml: Option<MlConfig>,
    /// First day index the cold-literal texts filter on.
    cold_day0: u64,
}

impl Plan {
    pub fn block_len(&self) -> usize {
        self.mix.iter().map(|m| m.weight as usize).sum()
    }

    /// A class's share of the workload's ops.
    pub fn share(&self, class: usize) -> f64 {
        let weight: u32 = self
            .mix
            .iter()
            .filter(|m| m.class == class)
            .map(|m| m.weight)
            .sum();
        f64::from(weight) / self.block_len() as f64
    }

    pub fn prepared_templates(&self) -> Vec<usize> {
        (0..self.templates.len())
            .filter(|t| self.templates[*t].send == Send::Prepared)
            .collect()
    }

    fn push(&mut self, weight: u32, templates: Vec<Template>) {
        let class = templates[0].class;
        let first = self.templates.len();
        self.templates.extend(templates);
        self.mix.push(MixEntry {
            class,
            weight,
            templates: (first..self.templates.len()).collect(),
        });
    }
}

fn pavlo_config(seed: u64, scale: usize) -> PavloConfig {
    let base = PavloConfig::default();
    PavloConfig {
        rankings_rows: base.rankings_rows * scale,
        uservisits_rows: base.uservisits_rows * scale,
        distinct_source_ips: base.distinct_source_ips * scale,
        seed: Rng::fork(seed, 1).next_u64(),
    }
}

const COUNTRY_CODES: [&str; 10] = ["US", "GB", "DE", "FR", "JP", "BR", "IN", "CN", "RU", "AU"];
const DEVICES: [&str; 4] = ["tv", "phone", "tablet", "desktop"];

/// Derive a workload's tables, statement texts and mix from the seed.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    let mut lit = Rng::fork(seed, 2);
    let mut plan = Plan {
        workload,
        templates: Vec::new(),
        mix: Vec::new(),
        pavlo: None,
        warehouse: None,
        ml: None,
        cold_day0: lit.below(30),
    };
    match workload {
        Workload::Dashboard => {
            plan.pavlo = Some(pavlo_config(seed, 1));
            plan.warehouse = Some(WarehouseConfig {
                seed: Rng::fork(seed, 3).next_u64(),
                ..WarehouseConfig::default()
            });
            let days = lit.distinct(8, 0, 30);
            plan.push(
                6,
                days[..6]
                    .iter()
                    .map(|d| {
                        Template::select(
                            "point_agg",
                            format!(
                                "SELECT country, COUNT(*), SUM(play_seconds) FROM sessions \
                                 WHERE day = {} GROUP BY country",
                                i64::from(BASE_DAY) + d
                            ),
                        )
                    })
                    .collect(),
            );
            let combos = lit.distinct(4, 0, (REGION_COUNTRIES.len() * DEVICES.len()) as i64);
            plan.push(
                4,
                combos
                    .iter()
                    .map(|c| {
                        let c = *c as usize;
                        Template::select(
                            "count_filter",
                            format!(
                                "SELECT COUNT(*) FROM sessions WHERE country = '{}' AND device = '{}'",
                                REGION_COUNTRIES[c / DEVICES.len()],
                                DEVICES[c % DEVICES.len()]
                            ),
                        )
                    })
                    .collect(),
            );
            plan.push(
                3,
                lit.distinct(4, 895, 905)
                    .iter()
                    .map(|x| {
                        Template::select(
                            "topk_small",
                            format!(
                                "SELECT pageURL, pageRank FROM rankings WHERE pageRank > {x} \
                                 ORDER BY pageRank DESC, pageURL LIMIT 10"
                            ),
                        )
                    })
                    .collect(),
            );
            plan.push(
                3,
                days[6..]
                    .iter()
                    .map(|d| Template {
                        send: Send::Prepared,
                        ..Template::select(
                            "prepared",
                            format!(
                                "SELECT device, COUNT(*), AVG(quality_score) FROM sessions \
                                 WHERE day = {} GROUP BY device",
                                i64::from(BASE_DAY) + d
                            ),
                        )
                    })
                    .collect(),
            );
            plan.mix.push(MixEntry {
                class: class_id("cold_literal"),
                weight: 4,
                templates: Vec::new(),
            });
        }
        Workload::Scan => {
            plan.pavlo = Some(pavlo_config(seed, PAVLO_SCALE_RESIDENT));
            // The weights keep the medians of latency and time-to-first-row
            // and the 95th percentile of latency inside one class's ops
            // each (selection_big, count_filter, stream_full): a percentile
            // that falls between two classes jumps from one to the other
            // with the slightest noise.
            // pageRank = 1000·u³, so `> 343` keeps 30% of the rows.
            plan.push(
                5,
                lit.distinct(POOL, 330, 357)
                    .iter()
                    .map(|x| {
                        Template::select(
                            "selection_big",
                            format!("SELECT pageURL, pageRank FROM rankings WHERE pageRank > {x}"),
                        )
                    })
                    .collect(),
            );
            plan.push(
                7,
                lit.distinct(POOL, 200, 400)
                    .iter()
                    .map(|d| {
                        let country = COUNTRY_CODES[lit.below(10) as usize];
                        Template::select(
                            "count_filter",
                            format!(
                                "SELECT COUNT(*) FROM uservisits \
                                 WHERE duration > {d} AND countryCode = '{country}'"
                            ),
                        )
                    })
                    .collect(),
            );
            plan.push(
                3,
                (0..POOL)
                    .map(|_| {
                        let out = lit.distinct(3, 0, 10);
                        let out: Vec<String> = out
                            .iter()
                            .map(|c| format!("'{}'", COUNTRY_CODES[*c as usize]))
                            .collect();
                        Template::select(
                            "agg_dict7",
                            format!(
                                "SELECT countryCode, COUNT(*), SUM(adRevenue) FROM uservisits \
                                 WHERE countryCode NOT IN ({}) GROUP BY countryCode",
                                out.join(", ")
                            ),
                        )
                    })
                    .collect(),
            );
            plan.push(
                2,
                lit.distinct(POOL, 1, 30)
                    .iter()
                    .map(|d| {
                        Template::select(
                            "agg_coarse",
                            format!(
                                "SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue) FROM uservisits \
                                 WHERE duration > {d} GROUP BY SUBSTR(sourceIP, 1, 7)"
                            ),
                        )
                    })
                    .collect(),
            );
            plan.push(
                3,
                lit.distinct(POOL, 0, 12)
                    .iter()
                    .map(|d| {
                        Template::select(
                            "stream_full",
                            format!(
                                "SELECT sourceIP, visitDate, adRevenue, duration FROM uservisits \
                                 WHERE duration > {d}"
                            ),
                        )
                    })
                    .collect(),
            );
        }
        Workload::Shuffle => {
            plan.pavlo = Some(pavlo_config(seed, PAVLO_SCALE_RESIDENT));
            // Weights chosen as in `scan`: the median falls among the
            // topk_global ops, the 95th percentile among agg_fine's.
            plan.push(
                5,
                lit.distinct(POOL, 1, 30)
                    .iter()
                    .map(|d| {
                        Template::select(
                            "agg_fine",
                            format!(
                                "SELECT sourceIP, SUM(adRevenue) FROM uservisits \
                                 WHERE duration > {d} GROUP BY sourceIP"
                            ),
                        )
                    })
                    .collect(),
            );
            plan.push(
                5,
                lit.distinct(POOL, 0, 350)
                    .iter()
                    .map(|a| {
                        let from = i64::from(shark_datagen::pavlo::DATE_2000_01_01) + a;
                        Template::select(
                            "join_agg",
                            format!(
                                "SELECT sourceIP, AVG(pageRank), SUM(adRevenue) AS totalRevenue \
                                 FROM rankings R, uservisits UV \
                                 WHERE R.pageURL = UV.destURL AND UV.visitDate BETWEEN {from} AND {} \
                                 GROUP BY UV.sourceIP",
                                from + 7
                            ),
                        )
                    })
                    .collect(),
            );
            for (class, weight, limit) in [("topk_global", 7, 100), ("sort_limit", 3, 5000)] {
                plan.push(
                    weight,
                    lit.distinct(POOL, 1, 30)
                        .iter()
                        .map(|d| {
                            Template::select(
                                class,
                                format!(
                                    "SELECT sourceIP, destURL, adRevenue FROM uservisits \
                                     WHERE duration > {d} ORDER BY adRevenue DESC LIMIT {limit}"
                                ),
                            )
                        })
                        .collect(),
                );
            }
        }
        Workload::Pressure => {
            plan.pavlo = Some(pavlo_config(seed, 1));
            // Per ten ops: nine read pairs and one write triplet.
            plan.push(
                9,
                lit.distinct(POOL, 20, 100)
                    .iter()
                    .map(|x| {
                        Template::select(
                            "read_a",
                            format!(
                                "SELECT COUNT(*), SUM(pageRank) FROM rankings WHERE avgDuration > {x}"
                            ),
                        )
                    })
                    .collect(),
            );
            plan.push(
                9,
                lit.distinct(POOL, 1, 60)
                    .iter()
                    .map(|d| {
                        Template::select(
                            "read_b",
                            format!(
                                "SELECT countryCode, COUNT(*), SUM(adRevenue) FROM uservisits \
                                 WHERE duration > {d} GROUP BY countryCode"
                            ),
                        )
                    })
                    .collect(),
            );
            let mut triplets = Vec::new();
            for d in lit.distinct(POOL, 540, 580) {
                // One write triplet: three consecutive templates.
                triplets.push(plan.templates.len());
                plan.templates.push(Template {
                    class: class_id("ctas"),
                    sql: format!(
                        "CREATE TABLE tmp_{{n}} TBLPROPERTIES(\"shark.cache\" = \"true\") AS \
                         SELECT sourceIP, adRevenue FROM uservisits WHERE duration > {d}"
                    ),
                    send: Send::Batch,
                    ordered: false,
                    oracle_sql: None,
                });
                plan.templates.push(Template {
                    oracle_sql: Some(format!(
                        "SELECT COUNT(*), SUM(adRevenue) FROM uservisits WHERE duration > {d}"
                    )),
                    ..Template::select(
                        "read_tmp",
                        "SELECT COUNT(*), SUM(adRevenue) FROM tmp_{n}".to_string(),
                    )
                });
                plan.templates.push(Template {
                    class: class_id("drop"),
                    sql: "DROP TABLE tmp_{n}".to_string(),
                    send: Send::Batch,
                    ordered: false,
                    oracle_sql: None,
                });
            }
            plan.mix.push(MixEntry {
                class: class_id("ctas"),
                weight: 1,
                templates: triplets,
            });
        }
        Workload::MlPipeline => {
            plan.ml = Some(MlConfig {
                rows: ML_ROWS,
                dims: ML_DIMS,
                clusters: 10,
                seed: Rng::fork(seed, 4).next_u64(),
            });
            for class in ["sql_to_rdd", "logistic", "kmeans"] {
                plan.mix.push(MixEntry {
                    class: class_id(class),
                    weight: 1,
                    templates: Vec::new(),
                });
            }
        }
    }
    plan
}

/// The text `ml_pipeline` hands to `sql_to_rdd`.
pub const ML_SELECT: &str = "SELECT * FROM points WHERE f0 IS NOT NULL";

/// One statement of an op, ready to send.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub class: usize,
    pub sql: String,
    pub send: Send,
    /// The fixed text this came from, or `None` for a cold literal.
    pub template: Option<usize>,
    /// `(day index, buffering_ms bound)` of a cold-literal text.
    pub cold: Option<(usize, i64)>,
}

/// One client operation: a single statement, or `pressure`'s write triplet.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub stmts: Vec<Stmt>,
}

/// The seeded statement sequence of one connection. The same
/// `(plan, seed, stripe)` always yields the same sequence.
pub struct OpGen {
    plan: Arc<Plan>,
    rng: Rng,
    stripe: u64,
    issued: u64,
    cold_issued: u64,
    triplets_issued: u64,
    block: Vec<usize>,
}

impl OpGen {
    /// `stripe` numbers the generator within the run (connection index, or
    /// a higher number for the probe and level generators).
    pub fn new(plan: Arc<Plan>, seed: u64, stripe: u64) -> OpGen {
        assert!(
            stripe < GENERATOR_STRIPES,
            "generator stripe {stripe} out of range"
        );
        OpGen {
            rng: Rng::fork(seed, 100 + stripe),
            plan,
            stripe,
            issued: 0,
            cold_issued: 0,
            triplets_issued: 0,
            block: Vec::new(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let n = self.issued;
        self.issued += 1;
        if self.plan.workload == Workload::Pressure {
            return self.pressure_op(n);
        }
        if self.block.is_empty() {
            // Each block holds the exact mix, shuffled: class shares are
            // the same for every seed, only the order and literals differ.
            for (i, entry) in self.plan.mix.iter().enumerate() {
                self.block
                    .extend(std::iter::repeat_n(i, entry.weight as usize));
            }
            self.rng.shuffle(&mut self.block);
        }
        let entry = self.block.pop().expect("block refilled above");
        let class = self.plan.mix[entry].class;
        self.class_op(class)
    }

    /// An op of one given class (the level runs drive classes one by one).
    pub fn class_op(&mut self, class: usize) -> Op {
        let entry = self
            .plan
            .mix
            .iter()
            .find(|m| m.class == class)
            .unwrap_or_else(|| panic!("class {} not in the mix", CLASS_NAMES[class]));
        if entry.templates.is_empty() {
            return Op {
                stmts: vec![self.cold_stmt()],
            };
        }
        let t = entry.templates[self.rng.below(entry.templates.len() as u64) as usize];
        self.template_op(t)
    }

    /// The op of one fixed text; a `ctas` text brings its whole triplet,
    /// over a table name this run has not used before.
    pub fn template_op(&mut self, t: usize) -> Op {
        let first = self.template_stmt(t, 0);
        if first.class != class_id("ctas") {
            return Op { stmts: vec![first] };
        }
        let n = self.stripe * 1_000_000 + self.triplets_issued;
        self.triplets_issued += 1;
        Op {
            stmts: (t..t + 3).map(|t| self.template_stmt(t, n)).collect(),
        }
    }

    fn template_stmt(&self, t: usize, n: u64) -> Stmt {
        let template = &self.plan.templates[t];
        Stmt {
            class: template.class,
            sql: template.sql.replace("{n}", &n.to_string()),
            send: template.send,
            template: Some(t),
            cold: None,
        }
    }

    /// A read op scans one table, then the other, so that each scan evicts
    /// the other table (and every read op costs the same: a median over
    /// ops that alternate between a cheap and a dear table would sit on the
    /// edge between the two). Every tenth op is a write triplet.
    fn pressure_op(&mut self, n: u64) -> Op {
        if n % PRESSURE_WRITE_EVERY == PRESSURE_WRITE_EVERY - 1 {
            return self.class_op(class_id("ctas"));
        }
        let mut op = self.class_op(class_id("read_a"));
        op.stmts.extend(self.class_op(class_id("read_b")).stmts);
        op
    }

    /// A text no generator of this run has produced before: parse and plan
    /// run on the server every time.
    fn cold_stmt(&mut self) -> Stmt {
        let index = self.stripe + GENERATOR_STRIPES * self.cold_issued;
        self.cold_issued += 1;
        let bound = ((index % COLD_LITERALS) * COLD_STRIDE % COLD_LITERALS) as i64;
        let day = ((self.plan.cold_day0 + index / COLD_LITERALS) % 30) as usize;
        Stmt {
            class: class_id("cold_literal"),
            sql: format!(
                "SELECT country, COUNT(*) FROM sessions WHERE day = {} AND buffering_ms > {bound} \
                 GROUP BY country",
                BASE_DAY as usize + day
            ),
            send: Send::Stream,
            template: None,
            cold: Some((day, bound)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sequence(workload: Workload, seed: u64, stripe: u64, ops: usize) -> Vec<Op> {
        let mut gen = OpGen::new(Arc::new(plan(workload, seed)), seed, stripe);
        (0..ops).map(|_| gen.next_op()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_statement_sequence() {
        for workload in [
            Workload::Dashboard,
            Workload::Scan,
            Workload::Shuffle,
            Workload::Pressure,
        ] {
            let a = sequence(workload, 42, 0, 300);
            let b = sequence(workload, 42, 0, 300);
            assert_eq!(a, b, "{}", workload.name());
            let bytes = |ops: &[Op]| -> Vec<u8> {
                ops.iter()
                    .flat_map(|op| op.stmts.iter().flat_map(|s| s.sql.bytes()))
                    .collect()
            };
            assert_eq!(bytes(&a), bytes(&b));
        }
    }

    #[test]
    fn another_seed_gives_other_literals() {
        for workload in [
            Workload::Dashboard,
            Workload::Scan,
            Workload::Shuffle,
            Workload::Pressure,
        ] {
            let texts = |seed| -> HashSet<String> {
                plan(workload, seed)
                    .templates
                    .into_iter()
                    .map(|t| t.sql)
                    .collect()
            };
            assert_ne!(texts(1), texts(2), "{}", workload.name());
            assert_ne!(sequence(workload, 1, 0, 50), sequence(workload, 2, 0, 50));
        }
        assert_ne!(
            plan(Workload::MlPipeline, 1).ml.unwrap().seed,
            plan(Workload::MlPipeline, 2).ml.unwrap().seed
        );
    }

    #[test]
    fn every_block_holds_the_exact_mix() {
        let plan = Arc::new(plan(Workload::Dashboard, 7));
        assert_eq!(plan.block_len(), 20);
        assert_eq!(plan.templates.len(), 16);
        assert!((plan.share(class_id("cold_literal")) - 0.2).abs() < 1e-12);
        let mut gen = OpGen::new(plan.clone(), 7, 1);
        for _ in 0..5 {
            let mut counts = vec![0u32; CLASS_NAMES.len()];
            for _ in 0..plan.block_len() {
                counts[gen.next_op().stmts[0].class] += 1;
            }
            for entry in &plan.mix {
                assert_eq!(counts[entry.class], entry.weight);
            }
        }
    }

    #[test]
    fn cold_literals_never_repeat_across_generators() {
        let mut seen = HashSet::new();
        for stripe in 0..4 {
            for op in sequence(Workload::Dashboard, 9, stripe, 4_000) {
                let stmt = &op.stmts[0];
                if stmt.cold.is_some() {
                    assert!(seen.insert(stmt.sql.clone()), "repeated {}", stmt.sql);
                }
            }
        }
        assert!(seen.len() > 3_000);
    }

    #[test]
    fn pressure_reads_both_tables_and_writes_every_tenth_op() {
        let ops = sequence(Workload::Pressure, 3, 0, 40);
        for (n, op) in ops.iter().enumerate() {
            let classes: Vec<&str> = op.stmts.iter().map(|s| CLASS_NAMES[s.class]).collect();
            if n % 10 == 9 {
                assert_eq!(classes, ["ctas", "read_tmp", "drop"]);
            } else {
                assert_eq!(classes, ["read_a", "read_b"]);
            }
        }
        let triplet = &ops[9].stmts;
        assert_eq!(triplet.len(), 3);
        assert!(triplet[0].sql.starts_with("CREATE TABLE tmp_0 "));
        assert_eq!(triplet[1].sql, "SELECT COUNT(*), SUM(adRevenue) FROM tmp_0");
        assert_eq!(triplet[2].sql, "DROP TABLE tmp_0");
        assert_eq!(ops[19].stmts[2].sql, "DROP TABLE tmp_1");
    }
}
