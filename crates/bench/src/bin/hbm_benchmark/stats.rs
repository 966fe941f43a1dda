//! Order statistics for timings and run-to-run spreads.

/// Median: the middle value, or the mean of the two middle values.
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`): the smallest sample with at
/// least a `q` share of the samples at or below it. 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, `exclusive`), so
/// spreads computed here match the ones computed from the emitted JSON.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    match s.len() {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        n => {
            let m = n + 1;
            let at = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

/// Interquartile range as a share of the median — the spread the
/// regression bounds are compared against. 0 when the median is 0.
pub fn rel_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // With fewer than 100 samples the 99th percentile is the maximum.
        assert_eq!(percentile(&[5.0, 9.0, 7.0], 0.99), 9.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(v, n=4)`.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        // Two samples: Python extrapolates past both ends.
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0, 1.0, 4.0]), (1.0, 7.0));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0));
        let v = [1.2, 0.9, 1.0, 1.1, 1.05, 0.95, 1.0, 1.3, 0.85, 1.02];
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 0.9374999999999999).abs() < 1e-12, "{q1}");
        assert!((q3 - 1.125).abs() < 1e-12, "{q3}");
    }

    #[test]
    fn relative_spread() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(rel_spread(&[3.0; 10]), 0.0);
        assert_eq!(rel_spread(&[0.0, 0.0]), 0.0);
    }
}
