//! Aggregate functions and their distributed partial states.
//!
//! Aggregations execute in two phases, as in Hive and Shark: map-side
//! partial aggregation followed by a shuffle and a reduce-side merge of the
//! partial states. Both phases build one flat [`GroupBlock`]: per group its
//! key row's `hash_partition` hash, its canonical key bytes, its first-seen
//! key values, and one typed state column per aggregate. A map task's
//! block is what its shuffle buckets and stores; a reduce task folds the
//! runs it reads into a block of its own and finalizes rows from it. A
//! [`GroupFold`] is a block being built, with its hash index.

use std::collections::BTreeSet;
use std::ops::Range;

use shark_common::hash::fx_hash;
use shark_common::{DataType, EstimateSize, Row, Schema, Value, ValueRef};
use shark_rdd::ShuffleBlock;

use crate::expr::BoundExpr;
use crate::vector::encode_key;

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(x)` / `COUNT(*)`
    Count,
    /// `COUNT(DISTINCT x)`
    CountDistinct,
    /// `SUM(x)`
    Sum,
    /// `AVG(x)`
    Avg,
    /// `MIN(x)`
    Min,
    /// `MAX(x)`
    Max,
}

impl AggFunc {
    /// Resolve an aggregate function by name (returns `None` for scalar
    /// functions).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_lowercase().as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" | "mean" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }

    /// Default output column name, e.g. `sum(revenue)` → `"sum"`.
    pub fn display_name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::CountDistinct => "count_distinct",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// A bound aggregate expression: the function plus its (optional) argument
/// expression over the pre-aggregation row layout. `COUNT(*)` has no
/// argument.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expression (`None` for `COUNT(*)`).
    pub arg: Option<BoundExpr>,
}

impl AggExpr {
    /// Evaluate the argument for one input row (`None` for `COUNT(*)`).
    pub fn arg_value(&self, row: &shark_common::Row) -> Option<Value> {
        self.arg.as_ref().map(|e| e.eval(row))
    }

    /// The type of the aggregate's value over rows of `input`.
    pub fn data_type(&self, input: &Schema) -> DataType {
        match self.func {
            AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
            AggFunc::Sum | AggFunc::Avg => DataType::Float,
            // One of the argument's values (or NULL). A UDF's result type
            // is unknown when planning: such a column is a number.
            AggFunc::Min | AggFunc::Max => match &self.arg {
                None => DataType::Null,
                Some(a) if a.calls_udf() => DataType::Float,
                Some(a) => a.data_type(input),
            },
        }
    }
}

/// One aggregate's partial states, one per group of a [`GroupBlock`].
#[derive(Debug, Clone)]
enum States {
    /// Row / value counts.
    Count(Vec<u64>),
    /// Distinct values seen so far.
    CountDistinct(Vec<BTreeSet<Value>>),
    /// Running sums (`seen` distinguishes SUM of no rows = NULL).
    Sum { sum: Vec<f64>, seen: Vec<bool> },
    /// Running sums and counts of non-null values, for AVG.
    Avg { sum: Vec<f64>, count: Vec<u64> },
    /// Running minima.
    Min(Vec<Option<Value>>),
    /// Running maxima.
    Max(Vec<Option<Value>>),
}

impl States {
    fn new(func: AggFunc) -> States {
        match func {
            AggFunc::Count => States::Count(Vec::new()),
            AggFunc::CountDistinct => States::CountDistinct(Vec::new()),
            AggFunc::Sum => States::Sum {
                sum: Vec::new(),
                seen: Vec::new(),
            },
            AggFunc::Avg => States::Avg {
                sum: Vec::new(),
                count: Vec::new(),
            },
            AggFunc::Min => States::Min(Vec::new()),
            AggFunc::Max => States::Max(Vec::new()),
        }
    }

    /// One more group, in the state of no input.
    fn push_empty(&mut self) {
        match self {
            States::Count(c) => c.push(0),
            States::CountDistinct(sets) => sets.push(BTreeSet::new()),
            States::Sum { sum, seen } => {
                sum.push(0.0);
                seen.push(false);
            }
            States::Avg { sum, count } => {
                sum.push(0.0);
                count.push(0);
            }
            States::Min(m) | States::Max(m) => m.push(None),
        }
    }

    /// Fold one input value into group `g`'s state. `value = None` means
    /// `COUNT(*)` semantics (count the row regardless of nulls); `owned`
    /// copies the value, and runs only when the state keeps it (a new
    /// minimum, maximum or distinct value).
    fn update(&mut self, g: usize, value: Option<ValueRef<'_>>, owned: impl FnOnce() -> Value) {
        match self {
            States::Count(c) => {
                match value {
                    Some(v) if v.is_null() => {}
                    _ => c[g] += 1,
                };
            }
            States::CountDistinct(sets) => {
                if value.is_some_and(|v| !v.is_null()) {
                    sets[g].insert(owned());
                }
            }
            States::Sum { sum, seen } => {
                if let Some(f) = value.and_then(ValueRef::as_float) {
                    sum[g] += f;
                    seen[g] = true;
                }
            }
            States::Avg { sum, count } => {
                if let Some(f) = value.and_then(ValueRef::as_float) {
                    sum[g] += f;
                    count[g] += 1;
                }
            }
            States::Min(m) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    if m[g]
                        .as_ref()
                        .is_none_or(|cur| v.total_cmp(cur.as_ref()).is_lt())
                    {
                        m[g] = Some(owned());
                    }
                }
            }
            States::Max(m) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    if m[g]
                        .as_ref()
                        .is_none_or(|cur| v.total_cmp(cur.as_ref()).is_gt())
                    {
                        m[g] = Some(owned());
                    }
                }
            }
        }
    }

    /// Merge group `i` of `other` into group `g` (reduce side).
    fn merge(&mut self, g: usize, other: &States, i: usize) {
        match (self, other) {
            (States::Count(a), States::Count(b)) => a[g] += b[i],
            (States::CountDistinct(a), States::CountDistinct(b)) => {
                a[g].extend(b[i].iter().cloned())
            }
            (States::Sum { sum, seen }, States::Sum { sum: s, seen: n }) => {
                sum[g] += s[i];
                seen[g] |= n[i];
            }
            (States::Avg { sum, count }, States::Avg { sum: s, count: c }) => {
                sum[g] += s[i];
                count[g] += c[i];
            }
            (States::Min(a), States::Min(b)) => {
                if let Some(bv) = &b[i] {
                    if a[g].as_ref().is_none_or(|av| bv < av) {
                        a[g] = Some(bv.clone());
                    }
                }
            }
            (States::Max(a), States::Max(b)) => {
                if let Some(bv) = &b[i] {
                    if a[g].as_ref().is_none_or(|av| bv > av) {
                        a[g] = Some(bv.clone());
                    }
                }
            }
            _ => panic!("cannot merge mismatched aggregate states"),
        }
    }

    /// The final SQL value of group `g`'s aggregate.
    fn finalize(&self, g: usize) -> Value {
        match self {
            States::Count(c) => Value::Int(c[g] as i64),
            States::CountDistinct(sets) => Value::Int(sets[g].len() as i64),
            States::Sum { sum, seen } => {
                if seen[g] {
                    Value::Float(sum[g])
                } else {
                    Value::Null
                }
            }
            States::Avg { sum, count } => {
                if count[g] > 0 {
                    Value::Float(sum[g] / count[g] as f64)
                } else {
                    Value::Null
                }
            }
            States::Min(m) | States::Max(m) => m[g].clone().unwrap_or(Value::Null),
        }
    }

    /// The serialized-size estimate of group `g`'s state.
    fn bytes(&self, g: usize) -> usize {
        match self {
            States::Count(_) => 9,
            States::CountDistinct(sets) => {
                9 + sets[g].iter().map(Value::estimated_size).sum::<usize>()
            }
            States::Sum { .. } => 10,
            States::Avg { .. } => 17,
            States::Min(m) | States::Max(m) => 1 + m[g].as_ref().map_or(0, Value::estimated_size),
        }
    }

    /// Reorder the groups: position `p` takes group `order[p]`'s state.
    fn gather(&mut self, order: &[usize]) {
        match self {
            States::Count(c) => gather(c, order, |x| *x),
            States::CountDistinct(sets) => gather(sets, order, std::mem::take),
            States::Sum { sum, seen } => {
                gather(sum, order, |x| *x);
                gather(seen, order, |x| *x);
            }
            States::Avg { sum, count } => {
                gather(sum, order, |x| *x);
                gather(count, order, |x| *x);
            }
            States::Min(m) | States::Max(m) => gather(m, order, Option::take),
        }
    }
}

/// Rebuild `column` so that position `p` holds what `take` moves out of
/// its element `order[p]` (each element is taken once).
fn gather<T>(column: &mut Vec<T>, order: &[usize], take: impl Fn(&mut T) -> T) {
    let mut old = std::mem::take(column);
    column.extend(order.iter().map(|&i| take(&mut old[i])));
}

/// The partial groups of one aggregation, flat: for each group, in the
/// order the groups were first seen (or, once a map task's shuffle has
/// bucketed it, in bucket-run order), its key row's `hash_partition` hash,
/// its canonical key bytes (`vector.rs` `encode_key`), its first-seen key
/// values and one state per aggregate. The columns grow by amortized
/// reallocation; a group adds no allocation of its own.
#[derive(Debug, Clone, Default)]
pub struct GroupBlock {
    hashes: Vec<u64>,
    /// Group `g`'s key bytes end at `key_ends[g]` in `key_bytes`.
    key_ends: Vec<usize>,
    key_bytes: Vec<u8>,
    /// Key columns: group `g`'s key values are `keys[g * width..][..width]`.
    width: usize,
    keys: Vec<Value>,
    states: Vec<States>,
}

impl GroupBlock {
    /// Group `g`'s canonical key bytes.
    fn key(&self, g: usize) -> &[u8] {
        let start = if g == 0 { 0 } else { self.key_ends[g - 1] };
        &self.key_bytes[start..self.key_ends[g]]
    }

    /// One output row per group, in block order: its key values, then each
    /// aggregate's final value.
    pub fn into_rows(self) -> Vec<Row> {
        let mut keys = self.keys.into_iter();
        (0..self.hashes.len())
            .map(|g| {
                let mut values = Vec::with_capacity(self.width + self.states.len());
                values.extend(keys.by_ref().take(self.width));
                values.extend(self.states.iter().map(|s| s.finalize(g)));
                Row::new(values)
            })
            .collect()
    }
}

impl ShuffleBlock for GroupBlock {
    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The `hash_partition` bucket of the group's key row.
    fn bucket(&self, i: usize, num_buckets: usize) -> usize {
        (self.hashes[i] % num_buckets as u64) as usize
    }

    /// What the group's key `Row` and its partial states estimate to.
    fn record_bytes(&self, i: usize) -> usize {
        let key = &self.keys[i * self.width..][..self.width];
        8 + key.iter().map(Value::estimated_size).sum::<usize>()
            + self.states.iter().map(|s| s.bytes(i)).sum::<usize>()
    }

    fn permute(&mut self, dest: Vec<usize>) {
        let mut order = vec![0; dest.len()];
        for (i, &d) in dest.iter().enumerate() {
            order[d] = i;
        }
        let mut key_ends = Vec::with_capacity(order.len());
        let mut key_bytes = Vec::with_capacity(self.key_bytes.len());
        let mut keys = Vec::with_capacity(self.keys.len());
        for &g in &order {
            key_bytes.extend_from_slice(self.key(g));
            key_ends.push(key_bytes.len());
            let key = &mut self.keys[g * self.width..][..self.width];
            keys.extend(key.iter_mut().map(|v| std::mem::replace(v, Value::Null)));
        }
        (self.key_ends, self.key_bytes, self.keys) = (key_ends, key_bytes, keys);
        gather(&mut self.hashes, &order, |h| *h);
        for states in &mut self.states {
            states.gather(&order);
        }
    }
}

impl EstimateSize for GroupBlock {
    fn estimated_size(&self) -> usize {
        (0..self.len()).map(|g| self.record_bytes(g)).sum()
    }
}

/// A [`GroupBlock`] being built, with the hash index that finds a key's
/// group: a map task's partial aggregate folds its input rows into one, a
/// reduce task the runs it reads.
pub struct GroupFold {
    block: GroupBlock,
    index: GroupIndex,
}

impl GroupFold {
    /// An empty fold of groups keyed by `width` values, with one state per
    /// aggregate of `aggs`.
    pub fn new(width: usize, aggs: &[AggExpr]) -> GroupFold {
        GroupFold {
            block: GroupBlock {
                width,
                states: aggs.iter().map(|a| States::new(a.func)).collect(),
                ..GroupBlock::default()
            },
            index: GroupIndex::default(),
        }
    }

    /// The group whose canonical key bytes are `key` (`probe` hashes them).
    /// At the key's first sight it starts a group in the state of no input,
    /// whose key values `values` appends.
    pub(crate) fn group(
        &mut self,
        probe: u64,
        key: &[u8],
        values: impl FnOnce(&mut Vec<Value>),
    ) -> usize {
        let next = self.block.len();
        if let Some(g) = self
            .index
            .find_or_insert(probe, next, |g| self.block.key(g) == key)
        {
            return g;
        }
        let block = &mut self.block;
        block.key_bytes.extend_from_slice(key);
        block.key_ends.push(block.key_bytes.len());
        let start = block.keys.len();
        values(&mut block.keys);
        debug_assert_eq!(block.keys.len() - start, block.width);
        // `Row`'s hash is its values' slice hash.
        block.hashes.push(fx_hash(&block.keys[start..]));
        for states in &mut block.states {
            states.push_empty();
        }
        next
    }

    /// Fold one input value of aggregate `agg` into group `g` (see
    /// [`States::update`]).
    pub(crate) fn update(
        &mut self,
        agg: usize,
        g: usize,
        value: Option<ValueRef<'_>>,
        owned: impl FnOnce() -> Value,
    ) {
        self.block.states[agg].update(g, value, owned);
    }

    /// Fold groups `run` of `other` into this block in order: each merges
    /// into the group of its key, started at the key's first sight. Merging
    /// into the state of no input copies a state (a partial sum is never
    /// -0.0, so `0.0 + sum == sum`).
    pub fn merge_run(&mut self, other: &GroupBlock, run: Range<usize>) {
        for i in run {
            let key = &other.keys[i * other.width..][..other.width];
            let g = self.group(other.hashes[i], other.key(i), |keys| {
                keys.extend_from_slice(key)
            });
            for (states, theirs) in self.block.states.iter_mut().zip(&other.states) {
                states.merge(g, theirs, i);
            }
        }
    }

    /// Add the group of the empty key, in the state of no input, unless the
    /// block already has it: the one row an aggregate without GROUP BY
    /// returns over no input.
    pub fn ensure_empty_key(&mut self) {
        self.group(fx_hash::<[Value]>(&[]), &[], |_| {});
    }

    /// The block built.
    pub fn finish(self) -> GroupBlock {
        self.block
    }
}

/// The row path's partial aggregate: fold `rows`, in order, into groups
/// keyed by `group_exprs` with one state per aggregate of `aggs`. The same
/// groups, in the same order and states, as the fused scan's
/// `vector_partial_aggregate` over the same rows.
pub fn partial_aggregate_rows(
    rows: &[Row],
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
) -> GroupBlock {
    let mut fold = GroupFold::new(group_exprs.len(), aggs);
    let (mut key, mut bytes) = (Vec::with_capacity(group_exprs.len()), Vec::new());
    for row in rows {
        key.clear();
        bytes.clear();
        for expr in group_exprs {
            let v = expr.eval(row);
            encode_key(&mut bytes, v.as_ref());
            key.push(v);
        }
        let g = fold.group(fx_hash(&bytes[..]), &bytes, |keys| keys.append(&mut key));
        for (a, agg) in aggs.iter().enumerate() {
            let v = agg.arg_value(row);
            fold.update(a, g, v.as_ref().map(Value::as_ref), || {
                v.clone().expect("an owned copy of a present value")
            });
        }
    }
    fold.finish()
}

/// Open addressing from a group's hash to its index in a block: a slot
/// holds the hash and the group, and a probe compares hashes before keys.
#[derive(Default)]
struct GroupIndex {
    slots: Vec<(u64, u32)>,
    len: usize,
}

/// An empty [`GroupIndex`] slot.
const VACANT: u32 = u32::MAX;

impl GroupIndex {
    /// The group whose hash is `hash` and for which `same_key` holds, or —
    /// when there is none — `None`, having recorded `next` as that key's
    /// group.
    fn find_or_insert(
        &mut self,
        hash: u64,
        next: usize,
        same_key: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = slot_of(hash) & mask;
        loop {
            match self.slots[at] {
                (_, VACANT) => {
                    self.slots[at] = (hash, next as u32);
                    self.len += 1;
                    return None;
                }
                (h, g) if h == hash && same_key(g as usize) => return Some(g as usize),
                _ => at = (at + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, VACANT); capacity]);
        for (hash, g) in old.into_iter().filter(|&(_, g)| g != VACANT) {
            let mut at = slot_of(hash) & (capacity - 1);
            while self.slots[at].1 != VACANT {
                at = (at + 1) & (capacity - 1);
            }
            self.slots[at] = (hash, g);
        }
    }
}

/// A slot for `hash`: its bits mixed, since the groups of one reduce task
/// share the low bits of their bucket hashes.
fn slot_of(hash: u64) -> usize {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_common::hash::hash_partition;

    fn agg(func: AggFunc, arg: Option<usize>) -> AggExpr {
        AggExpr {
            func,
            arg: arg.map(BoundExpr::Column),
        }
    }

    /// One-column rows, grouped by nothing.
    fn rows(values: &[Value]) -> Vec<Row> {
        values.iter().map(|v| Row::new(vec![v.clone()])).collect()
    }

    /// The finalized values of the one group of `rows` under `aggs`.
    fn global(values: &[Value], aggs: &[AggExpr]) -> Vec<Value> {
        let block = partial_aggregate_rows(&rows(values), &[], aggs);
        assert_eq!(block.len(), 1);
        block.into_rows().remove(0).into_values()
    }

    #[test]
    fn count_sum_avg_min_max() {
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        let aggs: Vec<AggExpr> = funcs.iter().map(|&f| agg(f, Some(0))).collect();
        let values = [Value::Int(1), Value::Int(5), Value::Int(3)];
        assert_eq!(
            global(&values, &aggs),
            vec![
                Value::Int(3),
                Value::Float(9.0),
                Value::Float(3.0),
                Value::Int(1),
                Value::Int(5)
            ]
        );
    }

    #[test]
    fn nulls_are_ignored_except_count_star() {
        let aggs = [
            agg(AggFunc::Count, None),
            agg(AggFunc::Sum, Some(0)),
            agg(AggFunc::Count, Some(0)),
            agg(AggFunc::Min, Some(0)),
        ];
        assert_eq!(
            global(&[Value::Null, Value::Null], &aggs),
            vec![Value::Int(2), Value::Null, Value::Int(0), Value::Null]
        );
        assert_eq!(
            global(&[Value::Null, Value::Int(1)], &aggs),
            vec![
                Value::Int(2),
                Value::Float(1.0),
                Value::Int(1),
                Value::Int(1)
            ]
        );
    }

    #[test]
    fn an_aggregate_over_no_rows_is_one_row_of_empty_states() {
        let aggs = [
            agg(AggFunc::Count, None),
            agg(AggFunc::Avg, Some(0)),
            agg(AggFunc::Max, Some(0)),
            agg(AggFunc::CountDistinct, Some(0)),
        ];
        let mut fold = GroupFold::new(0, &aggs);
        fold.ensure_empty_key();
        fold.ensure_empty_key();
        assert_eq!(
            fold.finish().into_rows(),
            vec![Row::new(vec![
                Value::Int(0),
                Value::Null,
                Value::Null,
                Value::Int(0)
            ])]
        );
        // A fold that already has the group keeps it as it is.
        let mut fold = GroupFold::new(0, &aggs);
        fold.merge_run(
            &partial_aggregate_rows(&rows(&[Value::Int(4)]), &[], &aggs),
            0..1,
        );
        fold.ensure_empty_key();
        let block = fold.finish();
        assert_eq!(block.len(), 1);
        assert_eq!(block.into_rows()[0].get(0), &Value::Int(1));
    }

    #[test]
    fn merge_partial_states_equals_single_pass() {
        let aggs = [
            agg(AggFunc::Sum, Some(1)),
            agg(AggFunc::Count, None),
            agg(AggFunc::CountDistinct, Some(1)),
            agg(AggFunc::Min, Some(1)),
        ];
        let group = [BoundExpr::Column(0)];
        let input: Vec<Row> = (0..30i64)
            .map(|i| {
                Row::new(vec![
                    Value::str(["x", "y", "z"][i as usize % 3]),
                    Value::Int(i % 7),
                ])
            })
            .collect();
        let single = partial_aggregate_rows(&input, &group, &aggs).into_rows();
        let mut fold = GroupFold::new(1, &aggs);
        for part in input.chunks(8) {
            let block = partial_aggregate_rows(part, &group, &aggs);
            fold.merge_run(&block, 0..block.len());
        }
        assert_eq!(fold.finish().into_rows(), single);
        assert_eq!(
            single[0].values()[..3],
            [Value::str("x"), Value::Float(30.0), Value::Int(10)]
        );
    }

    #[test]
    fn count_distinct_and_merge() {
        let aggs = [agg(AggFunc::CountDistinct, Some(0))];
        let (a, b) = (["x", "y", "x"].map(Value::str), ["y", "z"].map(Value::str));
        let mut fold = GroupFold::new(0, &aggs);
        for part in [&a[..], &b[..]] {
            fold.merge_run(&partial_aggregate_rows(&rows(part), &[], &aggs), 0..1);
        }
        assert_eq!(fold.finish().into_rows()[0].get(0), &Value::Int(3));
    }

    #[test]
    fn a_group_is_bucketed_and_sized_as_its_key_row_and_states() {
        let aggs = [agg(AggFunc::Count, None), agg(AggFunc::Max, Some(1))];
        let group = [BoundExpr::Column(0), BoundExpr::Column(1)];
        let input = vec![
            Row::new(vec![Value::str("ab"), Value::Int(3)]),
            Row::new(vec![Value::Null, Value::Float(-0.0)]),
        ];
        let block = partial_aggregate_rows(&input, &group, &aggs);
        for (i, row) in input.iter().enumerate() {
            assert_eq!(block.bucket(i, 256), hash_partition(row, 256));
            // The key row, a header, a count, and a maximum that holds the
            // key's second value.
            let max = 1 + row.get(1).estimated_size();
            assert_eq!(block.record_bytes(i), row.estimated_size() + 4 + 9 + max);
        }
    }

    #[test]
    fn permuting_a_block_moves_every_column() {
        let aggs = [agg(AggFunc::Sum, Some(1)), agg(AggFunc::Min, Some(0))];
        let group = [BoundExpr::Column(0)];
        let input: Vec<Row> = (0..5i64)
            .map(|i| Row::new(vec![Value::str(format!("k{i}")), Value::Int(i)]))
            .collect();
        let mut block = partial_aggregate_rows(&input, &group, &aggs);
        let before = block.clone().into_rows();
        let dest = vec![3, 0, 4, 1, 2];
        block.permute(dest.clone());
        let after = block.clone().into_rows();
        for (i, &d) in dest.iter().enumerate() {
            assert_eq!(after[d], before[i]);
        }
        // The key bytes moved too: a reduce fold finds each group again.
        let mut fold = GroupFold::new(1, &aggs);
        fold.merge_run(&block, 0..5);
        fold.merge_run(&block, 0..5);
        assert_eq!(fold.finish().len(), 5);
    }

    #[test]
    fn from_name_distinguishes_aggregates_from_scalars() {
        assert_eq!(AggFunc::from_name("SUM"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::from_name("substr"), None);
        assert_eq!(AggFunc::Count.display_name(), "count");
    }
}
