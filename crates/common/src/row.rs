//! Rows and schemas.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::value::{DataType, Value};
use crate::{Result, SharkError};

/// A named, typed column in a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Column name (lower-cased at catalog registration time).
    pub name: String,
    /// Logical type of the column.
    pub data_type: DataType,
}

impl Field {
    /// Create a new field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Field {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered collection of [`Field`]s describing the layout of a [`Row`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Create a schema from a list of fields.
    pub fn new(fields: Vec<Field>) -> Schema {
        Schema { fields }
    }

    /// Create a schema from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Schema {
        Schema {
            fields: pairs
                .iter()
                .map(|(n, t)| Field::new(n.to_string(), *t))
                .collect(),
        }
    }

    /// The fields of this schema, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column named `name` (case-insensitive), if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
    }

    /// Index of the column named `name`, or an analysis error naming the
    /// available columns (mirrors Hive's "Invalid table alias or column").
    pub fn resolve(&self, name: &str) -> Result<usize> {
        self.index_of(name).ok_or_else(|| {
            SharkError::Analysis(format!(
                "unknown column '{}' (available: {})",
                name,
                self.fields
                    .iter()
                    .map(|f| f.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
    }

    /// The field at position `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Concatenate two schemas (used for join outputs).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema { fields }
    }

    /// Project a subset of columns by index.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            fields: indices.iter().map(|&i| self.fields[i].clone()).collect(),
        }
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<String> {
        self.fields.iter().map(|f| f.name.clone()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols: Vec<String> = self
            .fields
            .iter()
            .map(|fd| format!("{} {}", fd.name, fd.data_type))
            .collect();
        write!(f, "({})", cols.join(", "))
    }
}

/// A relational row: a vector of dynamically typed values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Create a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row { values }
    }

    /// The values of this row.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of columns in the row.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at column `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Consume the row, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Append a value (used when building join / aggregate outputs).
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row { values }
    }

    /// Project the row onto a subset of columns by index.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Fetch an integer column by position, with an execution error if the
    /// value is not numeric (mirrors the `row.getInt` API from Listing 1).
    pub fn get_int(&self, i: usize) -> Result<i64> {
        self.values[i]
            .as_int()
            .ok_or_else(|| SharkError::Execution(format!("column {i} is not an integer")))
    }

    /// Fetch a float column by position.
    pub fn get_float(&self, i: usize) -> Result<f64> {
        self.values[i]
            .as_float()
            .ok_or_else(|| SharkError::Execution(format!("column {i} is not numeric")))
    }

    /// Fetch a string column by position.
    pub fn get_str(&self, i: usize) -> Result<Arc<str>> {
        match &self.values[i] {
            Value::Str(s) => Ok(s.clone()),
            other => Err(SharkError::Execution(format!(
                "column {i} is not a string (found {})",
                other.data_type()
            ))),
        }
    }

    /// Render the row as a tab-separated string (used in test fixtures).
    pub fn render(&self) -> String {
        self.values
            .iter()
            .map(Value::render)
            .collect::<Vec<_>>()
            .join("\t")
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row { values }
    }
}

/// A row is looked up in hash maps by its values: `Row`'s derived `Hash` and
/// `Eq` are those of its value slice, so a `&[Value]` key finds its `Row`
/// without building one.
impl std::borrow::Borrow<[Value]> for Row {
    fn borrow(&self) -> &[Value] {
        &self.values
    }
}

impl std::ops::Index<usize> for Row {
    type Output = Value;
    fn index(&self, index: usize) -> &Value {
        &self.values[index]
    }
}

/// Build a row from heterogeneous literals: `row![1i64, "a", 2.5f64]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
        ])
    }

    #[test]
    fn schema_lookup_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.index_of("ID"), Some(0));
        assert_eq!(s.index_of("Name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert!(s.resolve("missing").is_err());
    }

    #[test]
    fn schema_join_and_project() {
        let s = schema();
        let joined = s.join(&Schema::from_pairs(&[("extra", DataType::Bool)]));
        assert_eq!(joined.len(), 4);
        let projected = joined.project(&[3, 0]);
        assert_eq!(projected.field(0).name, "extra");
        assert_eq!(projected.field(1).name, "id");
    }

    #[test]
    fn row_accessors() {
        let r = row![7i64, "alice", 3.25f64];
        assert_eq!(r.get_int(0).unwrap(), 7);
        assert_eq!(r.get_str(1).unwrap().as_ref(), "alice");
        assert_eq!(r.get_float(2).unwrap(), 3.25);
        assert!(r.get_str(0).is_err());
        assert!(r.get_int(1).is_err());
    }

    #[test]
    fn row_concat_and_project() {
        let a = row![1i64, "x"];
        let b = row![true];
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        assert_eq!(c.project(&[2, 0]), row![true, 1i64]);
    }

    #[test]
    fn row_render() {
        assert_eq!(row![1i64, "a", Value::Null].render(), "1\ta\tNULL");
    }

    #[test]
    fn schema_display() {
        assert_eq!(schema().to_string(), "(id INT, name STRING, score DOUBLE)");
    }
}
