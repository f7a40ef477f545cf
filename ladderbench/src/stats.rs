//! Order statistics the benchmark reports: median, nearest-rank
//! percentiles, the geometric mean and the geometric mean of a top
//! share.

/// Sorts a copy of `values` ascending. NaN sorts last.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle value, or the mean of the two middle values.
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p`% of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `p`-th nearest-rank percentile of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Geometric mean of positive values. `NaN` when empty or when any
/// value is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Geometric mean of the largest `share` of `values` (at least one
/// value): the upper tail of a set of kinds, averaged over the kinds in
/// it. `NaN` when empty.
pub fn top_geomean(values: &[f64], share: f64) -> f64 {
    let v = sorted(values);
    let keep = ((share * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    geomean(&v[v.len().saturating_sub(keep)..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn infinite_failures_rank_above_every_percentile() {
        let mut v: Vec<f64> = (1..=98).map(f64::from).collect();
        v.extend([f64::INFINITY, f64::INFINITY]);
        let v = sorted(&v);
        assert_eq!(percentile(&v, 98.0), 98.0);
        assert!(percentile(&v, 99.0).is_infinite());
    }

    #[test]
    fn samples_beyond_a_nearest_rank_percentile() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(samples_beyond(10, 0.0), 9);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn geomean_of_a_top_share() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!((top_geomean(&v, 0.1) - (19.0f64 * 20.0).sqrt()).abs() < 1e-12);
        assert!(
            (top_geomean(&[3.0, 9.0, 1.0], 0.1) - 9.0).abs() < 1e-12,
            "at least one value"
        );
        assert!((top_geomean(&[1.0, 100.0], 1.0) - 10.0).abs() < 1e-12);
        assert!(top_geomean(&[], 0.1).is_nan());
    }
}
