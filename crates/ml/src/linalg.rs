//! Minimal dense-vector helpers shared by the ML algorithms.

/// Dot product of two equal-length vectors.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot product dimensionality mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// In-place `a += b`.
pub fn add_assign(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += *y;
    }
}

/// Scaled copy `a * s`.
pub fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|x| x * s).collect()
}

/// `Σ x · s` over `terms`, folded in place into one vector: the first
/// term's [`scale`]d copy, then `sum += x * s` for every further term —
/// the float operations of mapping each term to its scaled copy and summing
/// those element-wise, in the same order, without a vector per term.
/// `None` for no terms.
pub fn weighted_sum<'a>(mut terms: impl Iterator<Item = (&'a [f64], f64)>) -> Option<Vec<f64>> {
    let (x, s) = terms.next()?;
    let mut sum = scale(x, s);
    for (x, s) in terms {
        debug_assert_eq!(sum.len(), x.len());
        for (acc, xi) in sum.iter_mut().zip(x) {
            *acc += xi * s;
        }
    }
    Some(sum)
}

/// Squared Euclidean distance between two vectors.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Index of the closest center to `point` (ties broken by lowest index).
pub fn closest_center(point: &[f64], centers: &[Vec<f64>]) -> usize {
    let mut best = 0usize;
    let mut best_dist = f64::INFINITY;
    for (i, c) in centers.iter().enumerate() {
        let d = squared_distance(point, c);
        if d < best_dist {
            best_dist = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_add_scale() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(scale(&[1.0, -2.0], 2.0), vec![2.0, -4.0]);
        let mut a = vec![1.0, 1.0];
        add_assign(&mut a, &[2.0, 3.0]);
        assert_eq!(a, vec![3.0, 4.0]);
    }

    #[test]
    fn weighted_sum_folds_like_scale_then_add() {
        let xs: [&[f64]; 3] = [&[0.1, -3.0], &[0.7, 0.2], &[1e-17, 5.5]];
        let weights = [0.3, -1.7, 2.9];
        let per_term = xs
            .iter()
            .zip(weights)
            .map(|(x, s)| scale(x, s))
            .reduce(|mut a, b| {
                add_assign(&mut a, &b);
                a
            });
        let folded = weighted_sum(xs.iter().copied().zip(weights));
        assert_eq!(folded, per_term);
        assert_eq!(weighted_sum(std::iter::empty()), None);
    }

    #[test]
    fn distances_and_closest() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        let centers = vec![vec![0.0, 0.0], vec![10.0, 10.0]];
        assert_eq!(closest_center(&[1.0, 1.0], &centers), 0);
        assert_eq!(closest_center(&[9.0, 9.5], &centers), 1);
    }
}
