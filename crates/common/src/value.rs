//! The dynamic value type of the relational data model.
//!
//! Shark inherits Hive's schema-on-read model: rows are vectors of loosely
//! typed values. [`Value`] is the Rust equivalent of Hive's writable types;
//! it supports total ordering and hashing (needed for group-by keys and
//! shuffle partitioning, including over floating-point columns) and cheap
//! size estimation for the cluster cost model.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Logical data types supported by the engine.
///
/// This is the subset of Hive types exercised by the paper's workloads;
/// `Array`/`Struct` style nested types from the real warehouse trace are
/// modelled by [`DataType::Str`] payloads produced by the data generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 floating point.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Date stored as days since the Unix epoch.
    Date,
    /// Absence of a known type (e.g. the literal `NULL`).
    Null,
}

impl DataType {
    /// The "wider" of two numeric types used for arithmetic coercion.
    pub fn widen(self, other: DataType) -> DataType {
        use DataType::*;
        match (self, other) {
            (Float, _) | (_, Float) => Float,
            (Int, _) | (_, Int) => Int,
            (Date, Date) => Date,
            (a, Null) => a,
            (Null, b) => b,
            (a, _) => a,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "DOUBLE",
            DataType::Str => "STRING",
            DataType::Bool => "BOOLEAN",
            DataType::Date => "DATE",
            DataType::Null => "NULL",
        };
        f.write_str(s)
    }
}

/// A dynamically typed scalar value.
///
/// Strings use [`Arc<str>`] so cloning rows during shuffles and joins does
/// not copy string payloads (the paper's §5 "temporary object creation"
/// lesson applied to Rust).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
    /// Days since the Unix epoch.
    Date(i32),
}

impl Value {
    /// Construct a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The logical type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Bool(_) => DataType::Bool,
            Value::Date(_) => DataType::Date,
        }
    }

    /// True if this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret the value as an `i64` if it is numeric.
    pub fn as_int(&self) -> Option<i64> {
        self.as_ref().as_int()
    }

    /// Interpret the value as an `f64` if it is numeric.
    pub fn as_float(&self) -> Option<f64> {
        self.as_ref().as_float()
    }

    /// Interpret the value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Interpret the value as a boolean if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL truthiness: NULL and non-booleans are not truthy.
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Compare two values with SQL-ish semantics (see
    /// [`ValueRef::total_cmp`]).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.as_ref().total_cmp(other.as_ref())
    }

    /// Render the value the way the CLI and tests print result rows.
    pub fn render(&self) -> String {
        self.as_ref().render()
    }

    /// Borrow the value as a [`ValueRef`].
    #[inline]
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(v) => ValueRef::Int(*v),
            Value::Float(v) => ValueRef::Float(*v),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Date(d) => ValueRef::Date(*d),
        }
    }
}

/// A borrowed [`Value`]: the same variants with the string as a `&str`, so
/// a value read out of a column or cut out of a string costs no allocation.
/// Every comparison and conversion of a `Value` is the one defined here.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(&'a str),
    /// Boolean.
    Bool(bool),
    /// Days since the Unix epoch.
    Date(i32),
}

impl ValueRef<'_> {
    /// An owned copy (a string is copied into a new allocation).
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Float(v) => Value::Float(v),
            ValueRef::Str(s) => Value::str(s),
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Date(d) => Value::Date(d),
        }
    }

    /// True if this value is SQL NULL.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// SQL truthiness: NULL and non-booleans are not truthy.
    #[inline]
    pub fn is_truthy(self) -> bool {
        matches!(self, ValueRef::Bool(true))
    }

    /// Interpret the value as an `i64` if it is numeric.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            ValueRef::Int(v) => Some(v),
            ValueRef::Date(v) => Some(v as i64),
            ValueRef::Float(v) => Some(v as i64),
            ValueRef::Bool(b) => Some(b as i64),
            _ => None,
        }
    }

    /// Interpret the value as an `f64` if it is numeric.
    #[inline]
    pub fn as_float(self) -> Option<f64> {
        match self {
            ValueRef::Int(v) => Some(v as f64),
            ValueRef::Float(v) => Some(v),
            ValueRef::Date(v) => Some(v as f64),
            ValueRef::Bool(b) => Some(b as i64 as f64),
            _ => None,
        }
    }

    /// Compare two values with SQL-ish semantics: NULL sorts first, numeric
    /// types compare numerically across int/float/date, strings and bools
    /// compare within their own type. Values of incomparable types order by
    /// their type tag so that the ordering stays total (required for sorting
    /// mixed data without panics). An integer and a float compare exactly,
    /// as real numbers, so equality is transitive: `-0.0` equals `0`, and
    /// `2^53 + 1` does not equal the float `2^53`.
    #[inline]
    pub fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(&b),
            (Date(a), Date(b)) => a.cmp(&b),
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Str(a), Str(b)) => a.cmp(b),
            (Float(a), Float(b)) => {
                // `==` makes 0.0 and -0.0 equal (their hashes are normalized
                // too); NaNs fall through to IEEE total ordering.
                if a == b {
                    Ordering::Equal
                } else {
                    a.total_cmp(&b)
                }
            }
            (a, b) => match (a, b, integer(a), integer(b)) {
                (_, _, Some(x), Some(y)) => x.cmp(&y),
                (_, Float(f), Some(x), _) => cmp_int_float(x, f),
                (Float(f), _, _, Some(y)) => cmp_int_float(y, f).reverse(),
                _ => type_rank(a).cmp(&type_rank(b)),
            },
        }
    }

    /// Render the value the way the CLI and tests print result rows.
    pub fn render(self) -> String {
        match self {
            ValueRef::Null => "NULL".to_string(),
            ValueRef::Int(v) => v.to_string(),
            ValueRef::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            ValueRef::Str(s) => s.to_string(),
            ValueRef::Bool(b) => b.to_string(),
            ValueRef::Date(d) => format!("date#{d}"),
        }
    }
}

/// An `Int`, `Date` or `Bool` (0 or 1) as the integer it compares as.
fn integer(v: ValueRef<'_>) -> Option<i64> {
    match v {
        ValueRef::Int(v) => Some(v),
        ValueRef::Date(v) => Some(i64::from(v)),
        ValueRef::Bool(b) => Some(i64::from(b)),
        _ => None,
    }
}

/// Compare an integer with a float exactly. A float inside `i64` range
/// compares by its integral part, then its fraction (so an integral float,
/// `-0.0` included, compares as that integer); one outside is beyond every
/// integer; a NaN keeps its `f64::total_cmp` place.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() {
        (i as f64).total_cmp(&f)
    } else if f >= TWO_POW_63 {
        Ordering::Less
    } else if f < -TWO_POW_63 {
        Ordering::Greater
    } else {
        i.cmp(&(f.trunc() as i64))
            .then_with(|| 0.0.partial_cmp(&f.fract()).unwrap_or(Ordering::Equal))
    }
}

fn type_rank(v: ValueRef<'_>) -> u8 {
    match v {
        ValueRef::Null => 0,
        ValueRef::Bool(_) => 1,
        ValueRef::Int(_) => 2,
        ValueRef::Float(_) => 3,
        ValueRef::Date(_) => 4,
        ValueRef::Str(_) => 5,
    }
}
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Hash all numerics through a canonical f64 bit pattern so that
            // values that compare equal across types hash identically.
            Value::Int(v) => {
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                2u8.hash(state);
                // Normalize -0.0 and 0.0.
                let v = if *v == 0.0 { 0.0 } else { *v };
                v.to_bits().hash(state);
            }
            Value::Date(v) => {
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Str(s) => {
                5u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::str(""));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn cross_type_numeric_equality_and_hash_agree() {
        let a = Value::Int(42);
        let b = Value::Float(42.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
    }

    #[test]
    fn numeric_comparison_is_a_total_order_across_types() {
        let p53 = 1i64 << 53;
        let values = [
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Date(0),
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(1),
            Value::Float(0.5),
            Value::Float(-0.5),
            Value::Int(-1),
            Value::Date(-1),
            Value::Int(p53),
            Value::Int(p53 + 1),
            Value::Float(p53 as f64),
            Value::Float((p53 + 2) as f64),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(i64::MIN as f64),
            Value::Float(-(i64::MIN as f64)),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Null,
            Value::str("0"),
        ];
        for a in &values {
            for b in &values {
                let ab = a.total_cmp(b);
                assert_eq!(ab, b.total_cmp(a).reverse(), "{a:?} vs {b:?}");
                // A `Bool` compares as 0 or 1 but hashes as a bool.
                let boolean = |v: &Value| matches!(v, Value::Bool(_));
                if ab == Ordering::Equal && !boolean(a) && !boolean(b) {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?}");
                }
                for c in &values {
                    let bc = b.total_cmp(c);
                    if ab == bc {
                        assert_eq!(a.total_cmp(c), ab, "{a:?}, {b:?}, {c:?}");
                    }
                    if ab != Ordering::Greater && bc != Ordering::Greater {
                        assert_ne!(a.total_cmp(c), Ordering::Greater, "{a:?}, {b:?}, {c:?}");
                    }
                }
            }
        }
        assert_eq!(Value::Int(0), Value::Float(-0.0));
        assert_ne!(Value::Int(p53 + 1), Value::Float(p53 as f64));
        assert!(Value::Int(p53 + 1) > Value::Float(p53 as f64));
        assert!(Value::Int(i64::MAX) < Value::Float(-(i64::MIN as f64)));
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        assert!(Value::Int(i64::MIN) > Value::Float(-f64::NAN));
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        assert!(Value::str("apple") < Value::str("banana"));
        assert_eq!(Value::str("x"), Value::str("x"));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(1).is_truthy());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64).as_int(), Some(3));
        assert_eq!(Value::from(3.5f64).as_float(), Some(3.5));
        assert_eq!(Value::from("abc").as_str(), Some("abc"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::Date(10).as_int(), Some(10));
    }

    #[test]
    fn datatype_widening() {
        assert_eq!(DataType::Int.widen(DataType::Float), DataType::Float);
        assert_eq!(DataType::Int.widen(DataType::Int), DataType::Int);
        assert_eq!(DataType::Null.widen(DataType::Str), DataType::Str);
    }

    #[test]
    fn render_formats() {
        assert_eq!(Value::Int(7).render(), "7");
        assert_eq!(Value::Float(2.0).render(), "2.0");
        assert_eq!(Value::Null.render(), "NULL");
        assert_eq!(Value::str("hi").render(), "hi");
    }

    #[test]
    fn ordering_is_total_across_types() {
        let mut vals = [
            Value::str("z"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Float(0.5),
            Value::Date(3),
        ];
        vals.sort(); // must not panic
        assert_eq!(vals[0], Value::Null);
    }
}
