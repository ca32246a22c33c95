//! Lossy statistics sketches used by Partial DAG Execution (§3.1).
//!
//! The paper keeps per-task statistics to 1–2 KB by using lossy encodings:
//! logarithmically encoded partition sizes (≤10 % error, 1 byte for sizes up
//! to 32 GB), "heavy hitter" lists, and approximate histograms. The shuffle
//! records its bucket sizes with the first, [`LogSize`]; nothing reads the
//! other two, so they are not implemented.

use serde::{Deserialize, Serialize};

/// Logarithmic byte-size encoding: one byte represents sizes up to 32 GB
/// with at most ~10 % relative error (§3.1).
///
/// The encoding stores `round(log(size)/log(1.1))` clamped to `u8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogSize(u8);

const LOG_BASE: f64 = 1.1;

impl LogSize {
    /// Encode a size in bytes.
    pub fn encode(bytes: u64) -> LogSize {
        if bytes <= 1 {
            return LogSize(0);
        }
        let code = (bytes as f64).ln() / LOG_BASE.ln();
        LogSize(code.round().min(255.0) as u8)
    }

    /// Decode back to an approximate size in bytes.
    pub fn decode(self) -> u64 {
        LOG_BASE.powi(self.0 as i32).round() as u64
    }

    /// The raw one-byte code.
    pub fn code(self) -> u8 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_size_roundtrip_within_10_percent() {
        for &size in &[1u64, 100, 4 << 10, 1 << 20, 500 << 20, 32 << 30] {
            let approx = LogSize::encode(size).decode();
            let err = (approx as f64 - size as f64).abs() / size as f64;
            assert!(err <= 0.10, "size {size} decoded to {approx}, err {err}");
        }
    }

    #[test]
    fn log_size_is_one_byte_and_monotone() {
        let one_byte: u8 = LogSize::encode(1 << 35).code();
        assert!(one_byte > 0);
        assert!(LogSize::encode(1024).code() < LogSize::encode(1 << 20).code());
    }
}
