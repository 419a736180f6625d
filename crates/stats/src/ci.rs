//! Confidence intervals for ratio statistics.

use std::fmt;

/// A 95% confidence interval with accompanying location statistics,
/// as plotted in the paper's Figs. 6–9 (segment = `[lo, hi]`, bold dot =
/// `median`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower endpoint (after trimming the 2.5% smallest values).
    pub lo: f64,
    /// Upper endpoint (after trimming the 2.5% largest values).
    pub hi: f64,
    /// Median of the full (untrimmed) distribution.
    pub median: f64,
    /// Mean of the full distribution.
    pub mean: f64,
    /// Sample standard deviation of the full distribution.
    pub sd: f64,
}

impl ConfidenceInterval {
    /// Whether `x` lies within the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.4}, {:.4}] (median {:.4}, mean {:.4} ± {:.4})",
            self.lo, self.hi, self.median, self.mean, self.sd
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        let ci = ConfidenceInterval {
            lo: 0.8,
            hi: 0.9,
            median: 0.85,
            mean: 0.85,
            sd: 0.02,
        };
        assert!(ci.contains(0.8) && ci.contains(0.9) && !ci.contains(0.95));
        assert!((ci.width() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn display_shows_all_fields() {
        let ci = ConfidenceInterval {
            lo: 0.5,
            hi: 1.5,
            median: 1.0,
            mean: 1.0,
            sd: 0.1,
        };
        let s = ci.to_string();
        assert!(s.contains("0.5") && s.contains("1.5") && s.contains("median"));
    }
}
