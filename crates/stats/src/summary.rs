//! Summary statistics: batch summaries and an online (Welford) accumulator.

/// Summary statistics of a batch of observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean (0 for an empty batch).
    pub mean: f64,
    /// Sample standard deviation (0 when `n < 2`).
    pub sd: f64,
    /// Minimum (`+inf` for an empty batch).
    pub min: f64,
    /// Maximum (`-inf` for an empty batch).
    pub max: f64,
    /// Median (0 for an empty batch).
    pub median: f64,
}

impl Summary {
    /// Computes summary statistics of `xs`. NaNs must not be present.
    pub fn of(xs: &[f64]) -> Summary {
        let n = xs.len();
        if n == 0 {
            return Summary {
                n,
                mean: 0.0,
                sd: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                median: 0.0,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in summary input"));
        Summary {
            n,
            mean,
            sd: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: median_of_sorted(&sorted),
        }
    }
}

/// Median of an already-sorted slice (average of the middle two for even
/// lengths). Panics on empty input.
pub fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of empty slice");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Numerically stable online mean/variance accumulator (Welford).
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current sample variance (0 when `n < 2`).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Current sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        self.mean += d * other.n as f64 / n as f64;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_batch() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // Sample sd of 1..4 is sqrt(5/3).
        assert!((s.sd - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_and_singleton() {
        let e = Summary::of(&[]);
        assert_eq!(e.n, 0);
        assert_eq!(e.sd, 0.0);
        let s = Summary::of(&[7.0]);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.sd, 0.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median_of_sorted(&[1.0, 2.0, 5.0]), 2.0);
        assert_eq!(median_of_sorted(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn welford_matches_batch() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let s = Summary::of(&xs);
        assert!((w.mean() - s.mean).abs() < 1e-12);
        assert!((w.sd() - s.sd).abs() < 1e-12);
        assert_eq!(w.count(), xs.len() as u64);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        xs.iter().for_each(|&x| all.push(x));
        let (a, b) = xs.split_at(37);
        let mut wa = Welford::new();
        a.iter().for_each(|&x| wa.push(x));
        let mut wb = Welford::new();
        b.iter().for_each(|&x| wb.push(x));
        wa.merge(&wb);
        assert!((wa.mean() - all.mean()).abs() < 1e-10);
        assert!((wa.variance() - all.variance()).abs() < 1e-10);
        // Merging an empty accumulator is a no-op.
        let before = wa.mean();
        wa.merge(&Welford::new());
        assert_eq!(wa.mean(), before);
    }
}
