//! Order statistics: percentiles, the per-slice cut every end-to-end value
//! goes through, and the quartile spread `compare` uses.

/// Number of equal slices a measured window is cut into.
pub const SLICES: usize = 5;

/// The percentiles the report may quote, lowest first, each with the share
/// of samples beyond it in parts per thousand.
const CANDIDATES: [(f64, usize); 5] = [(50.0, 500), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// Samples that must lie beyond a percentile for it to be quotable.
const MIN_BEYOND: usize = 10;

fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the midpoint rule for even counts (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest quotable percentile for `n` samples: the largest candidate
/// with at least ten samples beyond it, p50 when even p90 has fewer.
pub fn highest_percentile(n: usize) -> f64 {
    CANDIDATES
        .iter()
        .filter(|(_, beyond)| n * beyond >= MIN_BEYOND * 1000)
        .map(|(p, _)| *p)
        .fold(CANDIDATES[0].0, f64::max)
}

/// Cut `(end_s, value)` samples into [`SLICES`] equal slices of a window of
/// `seconds`, apply `f` to each slice's values, and return the per-slice
/// results. Samples that ended after the window are left out.
pub fn per_slice(samples: &[(f64, f64)], seconds: f64, f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let width = seconds / SLICES as f64;
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for &(end_s, value) in samples {
        if end_s >= 0.0 && end_s < seconds {
            slices[((end_s / width) as usize).min(SLICES - 1)].push(value);
        }
    }
    slices.iter().map(|s| f(s)).collect()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let m = sorted.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (`None` below two
/// values or for a zero median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_percentile(5), 50.0);
        assert_eq!(highest_percentile(99), 50.0);
        assert_eq!(highest_percentile(100), 90.0);
        assert_eq!(highest_percentile(199), 90.0);
        assert_eq!(highest_percentile(200), 95.0);
        assert_eq!(highest_percentile(999), 95.0);
        assert_eq!(highest_percentile(1_000), 99.0);
        assert_eq!(highest_percentile(10_000), 99.9);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn slice_median_ignores_one_burst_and_late_samples() {
        // Ten samples per slice at value 1.0, except slice 2 which a burst
        // pushed to 50.0; one sample ended after the 10 s window.
        let mut samples = Vec::new();
        for slice in 0..SLICES {
            for i in 0..10 {
                let value = if slice == 2 { 50.0 } else { 1.0 };
                samples.push((slice as f64 * 2.0 + i as f64 * 0.19, value));
            }
        }
        samples.push((10.5, 1000.0));
        let per = per_slice(&samples, 10.0, median);
        assert_eq!(per, vec![1.0, 1.0, 50.0, 1.0, 1.0]);
        assert_eq!(median(&per), 1.0);
        let counts = per_slice(&samples, 10.0, |s| s.len() as f64);
        assert_eq!(counts, vec![10.0; SLICES]);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
