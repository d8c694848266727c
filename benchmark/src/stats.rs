//! Order statistics used by the benchmark and by `bench-diff`.

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile of ascending `sorted` at level `p` in
/// `[0, 1]` (the "type 7" definition: rank `p·(n−1)`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The tail level reported for `n` samples: the highest percentile with at
/// least ten samples beyond it, capped at p95 and never below the median.
pub fn tail_level(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.95)
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 1, "quartiles of an empty sample");
    if ld == 1 {
        return (data[0], data[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (the run-to-run spread).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        return if q3 == q1 { 0.0 } else { f64::INFINITY };
    }
    (q3 - q1) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert!((percentile(&s, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        // p95 needs 200 samples; fewer drop to the highest level that
        // still leaves ten beyond it.
        assert_eq!(tail_level(200), 0.95);
        assert_eq!(tail_level(1000), 0.95);
        assert!((tail_level(100) - 0.90).abs() < 1e-12);
        assert!((tail_level(40) - 0.75).abs() < 1e-12);
        for n in [20usize, 37, 150, 199, 200, 5000] {
            let p = tail_level(n);
            assert!(n as f64 * (1.0 - p) >= 10.0 - 1e-9, "n={n} p={p}");
        }
        // Too few samples: never report below the median.
        assert_eq!(tail_level(12), 0.5);
        assert_eq!(tail_level(0), 0.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[3.0, 3.0, 3.0]), 0.0);
    }
}
