//! Statement fingerprinting and the prepared-statement / plan cache.
//!
//! A serving layer that receives the same statement text thousands of times
//! (dashboards, parameterized application queries) should not pay parse +
//! plan on every execution. The cache is a two-tier structure keyed on a
//! **statement fingerprint** — an FNV-1a 64 hash of the normalized text —
//! holding the parsed [`Statement`] (epoch-independent: parsing never looks
//! at the catalog) and, for SELECTs, the compiled [`QueryPlan`] stamped with
//! the catalog epoch it was planned at.
//!
//! Invalidation is free: plans resolve tables against an epoch-versioned
//! [`crate::CatalogSnapshot`] (PR 5), and every DDL bumps the epoch, so a
//! cached plan is reusable **iff** its recorded epoch equals the epoch of
//! the snapshot the new execution pins. A stale plan is simply replanned and
//! overwritten — no DDL hook, no cross-session coordination, no epoch scan.
//!
//! Soundness notes:
//! * The fingerprint normalizes *whitespace and letter case outside quoted
//!   strings* only. Literals stay significant — two texts that could plan
//!   differently can never collide onto one cache slot (modulo the hash
//!   itself, which is 64-bit FNV over the full normalized text).
//! * Plans bind scalar UDFs at plan time, and UDF registries are
//!   per-session. Sessions with registered UDFs must bypass plan reuse
//!   ([`crate::SqlSession`] enforces this); the parse tier is still safe to
//!   share because parsing is UDF-independent.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use shark_common::hash::{fnv1a_from, FNV_OFFSET};
use shark_obs::{Counter, MetricsRegistry};

use crate::ast::Statement;
use crate::plan::QueryPlan;

/// Fingerprint of a statement's text: FNV-1a 64 over the normalized form —
/// whitespace runs collapse to one space, letters outside single-quoted
/// string literals fold to lowercase, leading/trailing whitespace drops.
/// Literals (numeric and quoted) are preserved verbatim, so statements that
/// could produce different plans always have different normalized forms.
pub fn statement_fingerprint(text: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut in_string = false;
    let mut pending_space = false;
    let mut emitted = false;
    for ch in text.chars() {
        if in_string {
            hash = fnv_char(hash, ch);
            if ch == '\'' {
                in_string = false;
            }
            continue;
        }
        if ch.is_whitespace() {
            pending_space = emitted;
            continue;
        }
        if pending_space {
            hash = fnv_char(hash, ' ');
            pending_space = false;
        }
        if ch == '\'' {
            in_string = true;
            hash = fnv_char(hash, ch);
            continue;
        }
        for folded in ch.to_lowercase() {
            hash = fnv_char(hash, folded);
        }
        emitted = true;
    }
    hash
}

fn fnv_char(hash: u64, ch: char) -> u64 {
    fnv1a_from(hash, ch.encode_utf8(&mut [0u8; 4]).as_bytes())
}

/// One cached statement: the parse result plus (for SELECTs) the newest
/// compiled plan, stamped with the catalog epoch it resolved tables at.
pub struct CachedStatement {
    /// The parsed statement (epoch-independent — parsing never consults the
    /// catalog).
    pub statement: Arc<Statement>,
    /// `(epoch, plan)` of the newest compilation; replaced wholesale when a
    /// later execution plans at a newer epoch.
    plan: Mutex<Option<(u64, Arc<QueryPlan>)>>,
}

impl CachedStatement {
    /// The cached plan, **iff** it was compiled at exactly `epoch`. A plan
    /// from any other epoch may reference dropped/replaced table versions
    /// and is never returned.
    pub fn plan_for_epoch(&self, epoch: u64) -> Option<Arc<QueryPlan>> {
        let guard = self.plan.lock();
        match guard.as_ref() {
            Some((at, plan)) if *at == epoch => Some(plan.clone()),
            _ => None,
        }
    }

    /// Whether a plan is cached at all (any epoch) — used to distinguish a
    /// cold miss from an epoch invalidation in the counters.
    fn has_plan(&self) -> bool {
        self.plan.lock().is_some()
    }

    /// Store the plan compiled at `epoch`, superseding any older one.
    /// Last-writer-wins is sound: every stored plan was valid at its own
    /// epoch, and lookups only ever return an exact-epoch match.
    pub fn store_plan(&self, epoch: u64, plan: Arc<QueryPlan>) {
        *self.plan.lock() = Some((epoch, plan));
    }
}

/// Family and help of the plan-tier lookups a cache answered.
pub const PLAN_CACHE_LOOKUP_HITS: (&str, &str) = (
    "shark_plan_cache_lookup_hits_total",
    "Plan-tier lookups answered by a plan cached at the current epoch",
);

/// Family and help of the plan-tier lookups that had to compile.
pub const PLAN_CACHE_MISSES: (&str, &str) = (
    "shark_plan_cache_misses_total",
    "Plan-tier lookups that had to compile (cold statements and epoch invalidations)",
);

/// Family and help of the plan-tier misses a DDL epoch bump caused.
pub const PLAN_CACHE_STALE_PLANS: (&str, &str) = (
    "shark_plan_cache_stale_plans_total",
    "Plan-tier misses caused by a DDL epoch bump invalidating a cached plan",
);

/// Bounded, process-wide prepared-statement / plan cache. Shared by every
/// session of a server via `Arc`; all methods take `&self`.
pub struct PlanCache {
    /// Fingerprint → cached statement. Bounded by `capacity`; eviction is
    /// insertion-ordered (oldest fingerprint first) via `order`.
    entries: Mutex<CacheMap>,
    capacity: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    stale_plans: Arc<Counter>,
}

#[derive(Default)]
struct CacheMap {
    by_fp: HashMap<u64, Arc<CachedStatement>>,
    order: Vec<u64>,
}

impl PlanCache {
    /// A cache holding at most `capacity` statements (0 disables caching —
    /// every lookup misses and nothing is stored), counting its lookups in
    /// `scope`.
    pub fn new(capacity: usize, scope: &MetricsRegistry) -> PlanCache {
        let counter = |(name, help): (&str, &str)| scope.counter(name, help);
        PlanCache {
            entries: Mutex::new(CacheMap::default()),
            capacity,
            hits: counter(PLAN_CACHE_LOOKUP_HITS),
            misses: counter(PLAN_CACHE_MISSES),
            stale_plans: counter(PLAN_CACHE_STALE_PLANS),
        }
    }

    /// Look up a cached statement by fingerprint (parse tier only — the
    /// plan tier is consulted per-execution via
    /// [`CachedStatement::plan_for_epoch`]).
    pub fn statement(&self, fingerprint: u64) -> Option<Arc<CachedStatement>> {
        self.entries.lock().by_fp.get(&fingerprint).cloned()
    }

    /// Insert a freshly parsed statement, evicting the oldest entry when
    /// the cache is full. Returns the cached handle (the already-present
    /// entry if another session raced the same fingerprint in first).
    pub fn insert_statement(&self, fingerprint: u64, statement: Statement) -> Arc<CachedStatement> {
        if self.capacity == 0 {
            return Arc::new(CachedStatement {
                statement: Arc::new(statement),
                plan: Mutex::new(None),
            });
        }
        let mut map = self.entries.lock();
        if let Some(existing) = map.by_fp.get(&fingerprint) {
            return existing.clone();
        }
        while map.by_fp.len() >= self.capacity {
            let oldest = map.order.remove(0);
            map.by_fp.remove(&oldest);
        }
        let entry = Arc::new(CachedStatement {
            statement: Arc::new(statement),
            plan: Mutex::new(None),
        });
        map.by_fp.insert(fingerprint, entry.clone());
        map.order.push(fingerprint);
        entry
    }

    /// Record the outcome of one SELECT plan lookup in the counters:
    /// `hit` bumps hits; a miss on an entry that *had* a plan (at another
    /// epoch) is a DDL invalidation and bumps `stale_plans` alongside
    /// misses.
    pub fn record_plan_lookup(&self, entry: Option<&CachedStatement>, hit: bool) {
        if hit {
            self.hits.inc();
        } else {
            self.misses.inc();
            if entry.is_some_and(|e| e.has_plan()) {
                self.stale_plans.inc();
            }
        }
    }

    /// Statements currently cached.
    pub fn entries(&self) -> usize {
        self.entries.lock().by_fp.len()
    }

    /// The configured capacity (0 = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;

    #[test]
    fn fingerprint_normalizes_whitespace_and_case_but_not_literals() {
        let a = statement_fingerprint("SELECT  x FROM t WHERE s = 'North'");
        let b = statement_fingerprint("select x\n\tfrom T where S = 'North'");
        let c = statement_fingerprint("select x from t where s = 'north'");
        let d = statement_fingerprint("SELECT x FROM t WHERE s = 'North' ");
        assert_eq!(a, b, "whitespace + keyword case must not matter");
        assert_eq!(a, d, "trailing whitespace must not matter");
        assert_ne!(a, c, "string literal case is significant");
        assert_ne!(
            statement_fingerprint("SELECT x FROM t WHERE v = 1"),
            statement_fingerprint("SELECT x FROM t WHERE v = 2"),
            "numeric literals are significant"
        );
    }

    #[test]
    fn cache_is_bounded_and_insertion_order_evicted() {
        let cache = PlanCache::new(2, &MetricsRegistry::new());
        let stmt = |text: &str| parser::parse(text).unwrap();
        cache.insert_statement(1, stmt("SELECT a FROM t"));
        cache.insert_statement(2, stmt("SELECT b FROM t"));
        cache.insert_statement(3, stmt("SELECT c FROM t"));
        assert_eq!(cache.entries(), 2);
        assert!(cache.statement(1).is_none(), "oldest entry evicted");
        assert!(cache.statement(2).is_some());
        assert!(cache.statement(3).is_some());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = PlanCache::new(0, &MetricsRegistry::new());
        cache.insert_statement(7, parser::parse("SELECT a FROM t").unwrap());
        assert_eq!(cache.entries(), 0);
        assert!(cache.statement(7).is_none());
    }

    #[test]
    fn plan_tier_is_epoch_exact() {
        let scope = MetricsRegistry::new();
        let cache = PlanCache::new(4, &scope);
        let counts = || {
            let snap = scope.snapshot();
            let count = |(name, _): (&str, &str)| snap.counter(name);
            (
                count(PLAN_CACHE_LOOKUP_HITS),
                count(PLAN_CACHE_MISSES),
                count(PLAN_CACHE_STALE_PLANS),
            )
        };
        let entry = cache.insert_statement(9, parser::parse("SELECT a FROM t").unwrap());
        assert!(entry.plan_for_epoch(3).is_none());
        cache.record_plan_lookup(Some(&entry), false);
        assert_eq!(counts(), (0, 1, 0));
        // A stored plan answers only for its own epoch.
        let plan = Arc::new(crate::plan::QueryPlan {
            scans: vec![],
            joins: vec![],
            residual_filter: None,
            aggregate: None,
            projections: vec![],
            output_schema: Default::default(),
            order_by: vec![],
            limit: None,
            distribute_by: None,
        });
        entry.store_plan(3, plan);
        assert!(entry.plan_for_epoch(3).is_some());
        assert!(entry.plan_for_epoch(4).is_none(), "DDL bumped the epoch");
        cache.record_plan_lookup(Some(&entry), true);
        cache.record_plan_lookup(Some(&entry), false);
        assert_eq!(counts(), (1, 2, 1));
    }
}
