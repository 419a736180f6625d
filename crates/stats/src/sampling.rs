//! Empirical sampling distributions and ratio confidence intervals (§4.2).
//!
//! The paper estimates the ratio `μ_PRIO / μ_FIFO` of true mean metrics as
//! follows: build an empirical sampling distribution of each mean by taking
//! `p` samples, each the average of `q` independent simulated measurements;
//! form the distribution of the ratio from all `p²` pairs `(x, y)`; remove
//! the 2.5% smallest and largest values; the remaining range is a 95%
//! confidence interval. If a denominator sample is zero, no interval is
//! reported. Medians (the bold dots in Figs. 6–9), means and standard
//! deviations of the ratio distribution are also computed.

use crate::ci::ConfidenceInterval;
use crate::summary::{median_of_sorted, Summary};

/// An empirical sampling distribution: `p` samples, each the mean of `q`
/// underlying measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingDistribution {
    samples: Vec<f64>,
    q: usize,
}

impl SamplingDistribution {
    /// Builds the distribution from raw measurements laid out as `p`
    /// consecutive groups of `q`; panics if `measurements.len() != p * q`
    /// or either is zero.
    pub fn from_measurements(measurements: &[f64], p: usize, q: usize) -> Self {
        assert!(p > 0 && q > 0, "p and q must be positive");
        assert_eq!(measurements.len(), p * q, "expected p*q measurements");
        let samples = measurements
            .chunks_exact(q)
            .map(|chunk| chunk.iter().sum::<f64>() / q as f64)
            .collect();
        SamplingDistribution { samples, q }
    }

    /// The `p` sample means.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples `p`.
    pub fn p(&self) -> usize {
        self.samples.len()
    }

    /// Measurements averaged per sample, `q`.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Summary statistics of the sample means.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }

    /// The empirical distribution of the ratio `self / other`, formed from
    /// all `p_self · p_other` pairs. Returns `None` if any denominator
    /// sample is zero (the paper: "Whenever we encounter y = 0, we do not
    /// report any confidence interval").
    pub fn ratio_distribution(&self, other: &SamplingDistribution) -> Option<Vec<f64>> {
        if other.samples.contains(&0.0) {
            return None;
        }
        let mut ratios = Vec::with_capacity(self.samples.len() * other.samples.len());
        for &x in &self.samples {
            for &y in &other.samples {
                ratios.push(x / y);
            }
        }
        Some(ratios)
    }

    /// 95% confidence interval of the ratio `self / other` (see module
    /// docs). `None` when a denominator sample is zero.
    pub fn ratio_ci(&self, other: &SamplingDistribution) -> Option<ConfidenceInterval> {
        let ratios = self.ratio_distribution(other)?;
        Some(trimmed_ci(ratios, 0.025))
    }
}

/// Builds a confidence interval by sorting `values` and trimming the given
/// fraction from each tail; location statistics are computed on the full
/// distribution. Panics on empty input.
pub fn trimmed_ci(mut values: Vec<f64>, tail: f64) -> ConfidenceInterval {
    assert!(
        !values.is_empty(),
        "confidence interval of empty distribution"
    );
    assert!(
        (0.0..0.5).contains(&tail),
        "tail fraction {tail} out of range"
    );
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in ratio distribution"));
    let n = values.len();
    let cut = ((n as f64) * tail).floor() as usize;
    // Keep at least one value.
    let (lo_i, hi_i) = if 2 * cut >= n {
        (0, n - 1)
    } else {
        (cut, n - 1 - cut)
    };
    let mean = values.iter().sum::<f64>() / n as f64;
    let sd = if n < 2 {
        0.0
    } else {
        (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
    };
    ConfidenceInterval {
        lo: values[lo_i],
        hi: values[hi_i],
        median: median_of_sorted(&values),
        mean,
        sd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A distribution whose sample means are `samples` (one measurement
    /// each).
    fn means(samples: Vec<f64>) -> SamplingDistribution {
        SamplingDistribution::from_measurements(&samples, samples.len(), 1)
    }

    #[test]
    fn from_measurements_averages_groups() {
        let d = SamplingDistribution::from_measurements(&[1.0, 3.0, 5.0, 7.0], 2, 2);
        assert_eq!(d.samples(), &[2.0, 6.0]);
        assert_eq!(d.p(), 2);
        assert_eq!(d.q(), 2);
    }

    #[test]
    #[should_panic(expected = "p*q")]
    fn wrong_layout_panics() {
        SamplingDistribution::from_measurements(&[1.0, 2.0, 3.0], 2, 2);
    }

    #[test]
    fn ratio_distribution_has_p_squared_entries() {
        let a = means(vec![2.0, 4.0]);
        let b = means(vec![1.0, 2.0]);
        let r = a.ratio_distribution(&b).unwrap();
        assert_eq!(r.len(), 4);
        let mut sorted = r.clone();
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(sorted, vec![1.0, 2.0, 2.0, 4.0]);
    }

    #[test]
    fn zero_denominator_yields_none() {
        let a = means(vec![1.0]);
        let b = means(vec![0.0, 1.0]);
        assert!(a.ratio_distribution(&b).is_none());
        assert!(a.ratio_ci(&b).is_none());
    }

    #[test]
    fn identical_distributions_give_ci_containing_one() {
        let xs: Vec<f64> = (1..=100).map(|i| 10.0 + (i as f64) * 0.01).collect();
        let a = means(xs.clone());
        let b = means(xs);
        let ci = a.ratio_ci(&b).unwrap();
        assert!(ci.contains(1.0), "{ci}");
        assert!((ci.median - 1.0).abs() < 0.01);
    }

    #[test]
    fn trimming_removes_outliers() {
        // 96 ones plus two extreme outliers on each side.
        let mut vals = vec![1.0; 96];
        vals.extend([-100.0, -50.0, 50.0, 100.0]);
        let ci = trimmed_ci(vals, 0.025);
        assert_eq!(ci.lo, 1.0, "floor(2.5% of 100) = 2 values cut per tail");
        assert_eq!(ci.hi, 1.0);
        assert_eq!(ci.median, 1.0);
    }

    #[test]
    fn trimmed_ci_on_tiny_distribution_keeps_range() {
        let ci = trimmed_ci(vec![2.0], 0.025);
        assert_eq!((ci.lo, ci.hi, ci.median), (2.0, 2.0, 2.0));
    }

    #[test]
    fn shifted_distributions_separate_from_one() {
        let a = means(vec![0.8, 0.82, 0.81, 0.79]);
        let b = means(vec![1.0, 1.01, 0.99, 1.0]);
        let ci = a.ratio_ci(&b).unwrap();
        assert!(ci.hi < 1.0, "{ci}");
        assert!(ci.median < 0.85);
    }
}
