//! The probability distributions of the grid model (§4.1).
//!
//! * batch inter-arrival time — exponential with mean `μ_BIT`;
//! * job running time — normal with mean 1 and standard deviation 0.1
//!   (truncated away from zero so a runtime is always positive);
//! * batch size — the paper states "exponentially distributed with mean
//!   `μ_BS`" but a batch size is an integer; we provide the geometric
//!   distribution on {1, 2, …} (the discrete memoryless analog, exact mean
//!   `μ_BS` for any `μ_BS ≥ 1`).
//!
//! Implemented by inverse-CDF / Box–Muller on top of `rand`'s uniform
//! source, keeping the dependency set minimal.

use rand::Rng;

/// Exponential distribution with the given mean (rate `1/mean`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates the distribution. Panics unless `mean > 0` and finite.
    pub fn new(mean: f64) -> Self {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exponential mean must be positive, got {mean}"
        );
        Exponential { mean }
    }

    /// The configured mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws a sample by inverse CDF: `-mean · ln(1 - U)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // `gen::<f64>()` is uniform on [0, 1); 1 - u is in (0, 1] so the log
        // is finite.
        let u: f64 = rng.gen();
        -self.mean * (1.0 - u).ln()
    }
}

/// Normal distribution via the Box–Muller transform, truncated below at
/// `min` by rejection (resampling).
///
/// With the paper's parameters (mean 1, sd 0.1) truncation at a small
/// positive bound rejects about one sample in 10²³, so the truncation is a
/// safety net, not a distortion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    mean: f64,
    sd: f64,
    min: f64,
}

impl TruncatedNormal {
    /// Creates the distribution. Panics unless `sd >= 0` and `min` is
    /// reachable (i.e. not absurdly far above the mean).
    pub fn new(mean: f64, sd: f64, min: f64) -> Self {
        assert!(
            sd >= 0.0 && sd.is_finite(),
            "standard deviation must be non-negative"
        );
        assert!(
            min <= mean + 8.0 * sd.max(f64::MIN_POSITIVE),
            "truncation bound {min} unreachable for N({mean}, {sd})"
        );
        TruncatedNormal { mean, sd, min }
    }

    /// The configured mean (of the untruncated normal).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The configured standard deviation (of the untruncated normal).
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Draws a sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sd == 0.0 {
            return self.mean.max(self.min);
        }
        loop {
            // Box–Muller; the second variate is discarded to keep the
            // sampler stateless (simplicity beats a 2x speedup here).
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let x = self.mean + self.sd * z;
            if x >= self.min {
                return x;
            }
        }
    }
}

/// Geometric distribution on `{1, 2, 3, …}` with the given mean — the
/// discrete analog of the exponential, used for integer batch sizes.
///
/// Success probability is `p = 1 / mean`; `P(X = k) = (1-p)^{k-1} p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    mean: f64,
    /// `ln(1 - p)`, computed once: `-inf` when `p = 1`.
    ln_q: f64,
}

impl Geometric {
    /// Creates the distribution. Panics unless `mean >= 1`.
    pub fn new(mean: f64) -> Self {
        assert!(
            mean >= 1.0 && mean.is_finite(),
            "geometric mean must be >= 1, got {mean}"
        );
        let p = 1.0 / mean;
        Geometric {
            mean,
            ln_q: (1.0 - p).ln(),
        }
    }

    /// The configured mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws a sample by inverse CDF: `1 + floor(ln(1-U) / ln(1-p))`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.ln_q == f64::NEG_INFINITY {
            return 1;
        }
        let u: f64 = rng.gen();
        let k = 1.0 + ((1.0 - u).ln() / self.ln_q).floor();
        // Guard against numerical blow-ups in the extreme tail.
        k.max(1.0).min(u64::MAX as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    const N: usize = 200_000;

    fn mean_of(mut f: impl FnMut() -> f64) -> f64 {
        (0..N).map(|_| f()).sum::<f64>() / N as f64
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let mut rng = seeded_rng(1);
        let d = Exponential::new(3.5);
        let mut min = f64::INFINITY;
        let m = mean_of(|| {
            let x = d.sample(&mut rng);
            min = min.min(x);
            x
        });
        assert!((m - 3.5).abs() < 0.05, "mean {m} too far from 3.5");
        assert!(min >= 0.0);
    }

    #[test]
    fn exponential_small_mean() {
        let mut rng = seeded_rng(2);
        let d = Exponential::new(1e-3);
        let m = mean_of(|| d.sample(&mut rng));
        assert!((m - 1e-3).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_mean() {
        Exponential::new(0.0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded_rng(3);
        let d = TruncatedNormal::new(1.0, 0.1, 1e-3);
        let xs: Vec<f64> = (0..N).map(|_| d.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / N as f64;
        let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (N - 1) as f64;
        assert!((m - 1.0).abs() < 0.01, "mean {m}");
        assert!((v.sqrt() - 0.1).abs() < 0.01, "sd {}", v.sqrt());
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn normal_zero_sd_is_deterministic() {
        let mut rng = seeded_rng(4);
        let d = TruncatedNormal::new(2.0, 0.0, 0.0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 2.0);
        }
    }

    #[test]
    fn normal_truncation_respected() {
        let mut rng = seeded_rng(5);
        let d = TruncatedNormal::new(0.0, 1.0, 0.5);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.5);
        }
    }

    #[test]
    fn geometric_mean_is_exact_analog() {
        let mut rng = seeded_rng(6);
        for mean in [1.0, 2.0, 16.0, 1024.0] {
            let d = Geometric::new(mean);
            let m = (0..N).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / N as f64;
            assert!(
                (m - mean).abs() / mean < 0.03,
                "geometric mean {m} vs {mean}"
            );
        }
    }

    #[test]
    fn geometric_mean_one_is_constant() {
        let mut rng = seeded_rng(7);
        let d = Geometric::new(1.0);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }
}
