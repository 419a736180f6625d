//! Summary statistics over a metric's samples.

/// First quartile, median and third quartile of `values`, by the
/// "exclusive" method of Python's `statistics.quantiles(values, n=4)` —
/// the method the spread of a metric across runs is judged by. One sample
/// is its own quartiles; no samples give zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The median of `values` (the middle of [`quartiles`]).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Percentiles a tail is reported at, in per mille, highest first.
const TAIL_PER_MILLE: [usize; 4] = [999, 990, 950, 900];

/// The highest of the percentiles 99.9, 99, 95 and 90 that has at least
/// ten samples beyond it, with its nearest-rank value; `None` when even
/// the 90th percentile has fewer than ten (fewer than 100 samples).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    TAIL_PER_MILLE.iter().find_map(|&pm| {
        let rank = (pm * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (pm as f64 / 10.0, data[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&samples(99)), None, "p90 of 99 has 9 beyond");
        assert_eq!(tail(&samples(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&samples(999)), Some((95.0, 950.0)));
        assert_eq!(tail(&samples(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&samples(10_000)), Some((99.9, 9990.0)));
    }
}
