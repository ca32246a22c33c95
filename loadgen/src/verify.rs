//! Answer verification. The engine may legitimately return an unordered
//! result's rows in another order (a restored server does for `GROUP BY`),
//! and float sums may differ in the last bits with merge order, so rows are
//! compared as a multiset with a relative float tolerance, and in order only
//! when the statement has an `ORDER BY`.

use shark_common::{Row, Value};

/// Relative tolerance for float cells.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// The expected rows of one statement text.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    rows: Vec<Row>,
    /// `rows` sorted, for the multiset comparison (empty when `ordered`).
    sorted: Vec<Row>,
    ordered: bool,
}

impl Answer {
    pub fn new(rows: Vec<Row>, ordered: bool) -> Answer {
        let sorted = if ordered { Vec::new() } else { sorted(&rows) };
        Answer {
            rows,
            sorted,
            ordered,
        }
    }

    /// The answer of a statement that returns no rows (DDL).
    pub fn empty() -> Answer {
        Answer::default()
    }

    /// Check `got` against this answer; the error names the first mismatch.
    pub fn check(&self, got: &[Row]) -> Result<(), String> {
        if got.len() != self.rows.len() {
            return Err(format!(
                "expected {} rows, got {}",
                self.rows.len(),
                got.len()
            ));
        }
        // Same order is the common case and needs no sort.
        if rows_match(&self.rows, got).is_ok() {
            return Ok(());
        }
        if self.ordered {
            return rows_match(&self.rows, got);
        }
        rows_match(&self.sorted, &sorted(got))
    }
}

fn sorted(rows: &[Row]) -> Vec<Row> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}

fn rows_match(want: &[Row], got: &[Row]) -> Result<(), String> {
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        if w.len() != g.len()
            || !w
                .values()
                .iter()
                .zip(g.values())
                .all(|(a, b)| cell_eq(a, b))
        {
            return Err(format!(
                "row {i}: expected {}, got {}",
                w.render(),
                g.render()
            ));
        }
    }
    Ok(())
}

fn cell_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => floats_close(*x, *y),
        _ => a == b,
    }
}

/// Equal within the relative tolerance answers are compared with.
pub fn floats_close(x: f64, y: f64) -> bool {
    x == y || (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_common::row;

    #[test]
    fn unordered_answers_compare_as_multisets_with_float_tolerance() {
        let answer = Answer::new(
            vec![row!["a", 1i64, 10.0], row!["b", 2i64, 0.1 + 0.2]],
            false,
        );
        assert!(answer
            .check(&[row!["b", 2i64, 0.3], row!["a", 1i64, 10.0]])
            .is_ok());
        assert!(answer.check(&[row!["a", 1i64, 10.0]]).is_err());
        assert!(answer
            .check(&[row!["b", 2i64, 0.3001], row!["a", 1i64, 10.0]])
            .is_err());
        assert!(answer
            .check(&[row!["b", 3i64, 0.3], row!["a", 1i64, 10.0]])
            .is_err());
    }

    #[test]
    fn ordered_answers_compare_in_order() {
        let answer = Answer::new(vec![row![2i64], row![1i64]], true);
        assert!(answer.check(&[row![2i64], row![1i64]]).is_ok());
        assert!(answer.check(&[row![1i64], row![2i64]]).is_err());
    }

    #[test]
    fn ddl_answers_expect_no_rows() {
        assert!(Answer::empty().check(&[]).is_ok());
        assert!(Answer::empty().check(&[row![1i64]]).is_err());
    }
}
