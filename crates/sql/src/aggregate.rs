//! Aggregate functions and their distributed partial states.
//!
//! Aggregations execute in two phases, as in Hive and Shark: map-side
//! partial aggregation (an [`AggStates`] per group per map task) followed by
//! a shuffle and a reduce-side merge of the partial states. `AggStates`
//! therefore implements cheap cloning, merging and size estimation so it can
//! flow through the RDD shuffle machinery.

use std::collections::BTreeSet;

use shark_common::{DataType, EstimateSize, Schema, Value, ValueRef};

use crate::expr::BoundExpr;

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

/// The partial state of one aggregate for one group.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// Row / value count.
    Count(u64),
    /// Distinct values seen so far.
    CountDistinct(BTreeSet<Value>),
    /// Running sum (`seen` distinguishes SUM of no rows = NULL).
    Sum {
        /// Accumulated sum.
        sum: f64,
        /// Whether any non-null value has been observed.
        seen: bool,
    },
    /// Running sum + count for AVG.
    Avg {
        /// Accumulated sum.
        sum: f64,
        /// Number of non-null values.
        count: u64,
    },
    /// Running minimum.
    Min(Option<Value>),
    /// Running maximum.
    Max(Option<Value>),
}

impl AggState {
    /// Initial state for a function.
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::CountDistinct(BTreeSet::new()),
            AggFunc::Sum => AggState::Sum {
                sum: 0.0,
                seen: false,
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Fold one input value into the state. `value = None` means `COUNT(*)`
    /// semantics (count the row regardless of nulls).
    pub fn update(&mut self, value: Option<&Value>) {
        self.update_ref(value.map(Value::as_ref), || {
            value.cloned().expect("an owned copy of a present value")
        });
    }

    /// [`AggState::update`] over a borrowed value; `owned` copies it, and
    /// runs only when the state keeps the value (a new minimum, maximum or
    /// distinct value).
    pub fn update_ref(&mut self, value: Option<ValueRef<'_>>, owned: impl FnOnce() -> Value) {
        match self {
            AggState::Count(c) => {
                match value {
                    Some(v) if v.is_null() => {}
                    _ => *c += 1,
                };
            }
            AggState::CountDistinct(set) => {
                if value.is_some_and(|v| !v.is_null()) {
                    set.insert(owned());
                }
            }
            AggState::Sum { sum, seen } => {
                if let Some(f) = value.and_then(ValueRef::as_float) {
                    *sum += f;
                    *seen = true;
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(f) = value.and_then(ValueRef::as_float) {
                    *sum += f;
                    *count += 1;
                }
            }
            AggState::Min(m) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    if m.as_ref()
                        .is_none_or(|cur| v.total_cmp(cur.as_ref()).is_lt())
                    {
                        *m = Some(owned());
                    }
                }
            }
            AggState::Max(m) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    if m.as_ref()
                        .is_none_or(|cur| v.total_cmp(cur.as_ref()).is_gt())
                    {
                        *m = Some(owned());
                    }
                }
            }
        }
    }

    /// Merge another partial state into this one (reduce side).
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::CountDistinct(a), AggState::CountDistinct(b)) => a.extend(b.iter().cloned()),
            (AggState::Sum { sum: a, seen: sa }, AggState::Sum { sum: b, seen: sb }) => {
                *a += b;
                *sa |= sb;
            }
            (AggState::Avg { sum: a, count: ca }, AggState::Avg { sum: b, count: cb }) => {
                *a += b;
                *ca += cb;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(bv) = b {
                    if a.as_ref().map(|av| bv < av).unwrap_or(true) {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(bv) = b {
                    if a.as_ref().map(|av| bv > av).unwrap_or(true) {
                        *a = Some(bv.clone());
                    }
                }
            }
            _ => panic!("cannot merge mismatched aggregate states"),
        }
    }

    /// Produce the final SQL value of the aggregate.
    pub fn finalize(&self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(*c as i64),
            AggState::CountDistinct(set) => Value::Int(set.len() as i64),
            AggState::Sum { sum, seen } => {
                if *seen {
                    Value::Float(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, count } => {
                if *count > 0 {
                    Value::Float(*sum / *count as f64)
                } else {
                    Value::Null
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

impl EstimateSize for AggState {
    fn estimated_size(&self) -> usize {
        match self {
            AggState::Count(_) => 9,
            AggState::CountDistinct(set) => {
                9 + set.iter().map(|v| v.estimated_size()).sum::<usize>()
            }
            AggState::Sum { .. } => 10,
            AggState::Avg { .. } => 17,
            AggState::Min(v) | AggState::Max(v) => {
                1 + v.as_ref().map(|v| v.estimated_size()).unwrap_or(0)
            }
        }
    }
}

/// The partial states of every aggregate in a query, for one group.
#[derive(Debug, Clone, PartialEq)]
pub struct AggStates(pub Vec<AggState>);

impl AggStates {
    /// Initial states for a list of aggregate expressions.
    pub fn new(aggs: &[AggExpr]) -> AggStates {
        AggStates(aggs.iter().map(|a| AggState::new(a.func)).collect())
    }

    /// Fold one input row into all states.
    pub fn update_row(&mut self, aggs: &[AggExpr], row: &shark_common::Row) {
        for (state, agg) in self.0.iter_mut().zip(aggs) {
            let v = agg.arg_value(row);
            state.update(v.as_ref());
        }
    }

    /// Merge another group state into this one, in place.
    pub fn merge_from(&mut self, other: &AggStates) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.merge(b);
        }
    }

    /// Finalize all aggregates.
    pub fn finalize(&self) -> Vec<Value> {
        self.0.iter().map(AggState::finalize).collect()
    }
}

impl EstimateSize for AggStates {
    fn estimated_size(&self) -> usize {
        4 + self.0.iter().map(|s| s.estimated_size()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sum_avg_min_max() {
        let mut count = AggState::new(AggFunc::Count);
        let mut sum = AggState::new(AggFunc::Sum);
        let mut avg = AggState::new(AggFunc::Avg);
        let mut min = AggState::new(AggFunc::Min);
        let mut max = AggState::new(AggFunc::Max);
        for v in [1i64, 5, 3] {
            let val = Value::Int(v);
            count.update(Some(&val));
            sum.update(Some(&val));
            avg.update(Some(&val));
            min.update(Some(&val));
            max.update(Some(&val));
        }
        assert_eq!(count.finalize(), Value::Int(3));
        assert_eq!(sum.finalize(), Value::Float(9.0));
        assert_eq!(avg.finalize(), Value::Float(3.0));
        assert_eq!(min.finalize(), Value::Int(1));
        assert_eq!(max.finalize(), Value::Int(5));
    }

    #[test]
    fn nulls_are_ignored_except_count_star() {
        let mut count_star = AggState::new(AggFunc::Count);
        let mut sum = AggState::new(AggFunc::Sum);
        count_star.update(None); // COUNT(*) counts rows
        count_star.update(None);
        sum.update(Some(&Value::Null));
        assert_eq!(count_star.finalize(), Value::Int(2));
        assert_eq!(sum.finalize(), Value::Null);

        let mut count_col = AggState::new(AggFunc::Count);
        count_col.update(Some(&Value::Null));
        count_col.update(Some(&Value::Int(1)));
        assert_eq!(count_col.finalize(), Value::Int(1));
    }

    #[test]
    fn count_distinct_and_merge() {
        let mut a = AggState::new(AggFunc::CountDistinct);
        let mut b = AggState::new(AggFunc::CountDistinct);
        for v in ["x", "y", "x"] {
            a.update(Some(&Value::str(v)));
        }
        for v in ["y", "z"] {
            b.update(Some(&Value::str(v)));
        }
        a.merge(&b);
        assert_eq!(a.finalize(), Value::Int(3));
    }

    #[test]
    fn merge_partial_states_equals_single_pass() {
        let aggs = vec![
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(BoundExpr::Column(0)),
            },
            AggExpr {
                func: AggFunc::Count,
                arg: None,
            },
        ];
        let rows: Vec<shark_common::Row> = (0..10)
            .map(|i| shark_common::Row::new(vec![Value::Int(i)]))
            .collect();
        // Single pass.
        let mut single = AggStates::new(&aggs);
        for r in &rows {
            single.update_row(&aggs, r);
        }
        // Two partial passes, merged.
        let mut p1 = AggStates::new(&aggs);
        let mut p2 = AggStates::new(&aggs);
        for r in &rows[..4] {
            p1.update_row(&aggs, r);
        }
        for r in &rows[4..] {
            p2.update_row(&aggs, r);
        }
        p1.merge_from(&p2);
        assert_eq!(single.finalize(), p1.finalize());
        assert_eq!(p1.finalize(), vec![Value::Float(45.0), Value::Int(10)]);
    }

    #[test]
    fn from_name_distinguishes_aggregates_from_scalars() {
        assert_eq!(AggFunc::from_name("SUM"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::from_name("substr"), None);
        assert_eq!(AggFunc::Count.display_name(), "count");
    }
}
