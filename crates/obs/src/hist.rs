//! A lock-free log-bucketed histogram of `u64` samples.
//!
//! Recording touches four relaxed atomics (bucket, count, sum, max) and
//! never takes a lock, so hot paths — span drops, per-job simulator
//! latencies — can feed a shared histogram from many threads without
//! contention. The bucket layout is HDR-style log-linear:
//!
//! * values `0..32` land in 32 exact unit buckets;
//! * larger values split each power-of-two octave into 16 sub-buckets,
//!   bounding the relative quantization error by 1/16 (6.25%).
//!
//! Percentiles come from a [`HistogramSnapshot`]: the reported quantile is
//! the *upper bound* of the bucket containing the requested rank, clamped
//! to the exact maximum seen — conservative (never under-reports) and
//! exact at bucket boundaries and for values below 32.

use std::sync::atomic::{AtomicU64, Ordering};

/// Values below this land in exact unit buckets.
const LINEAR_MAX: u64 = 32;
/// log2 of the sub-buckets per octave above the linear range.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave (quantization error ≤ 1/SUBBUCKETS).
const SUBBUCKETS: usize = 1 << SUB_BITS;
/// First octave above the linear range: values in `[2^5, 2^6)`.
const FIRST_OCTAVE: u32 = 5;
/// Total buckets: the linear range plus 16 per octave for octaves 5..=63.
pub const NUM_BUCKETS: usize = LINEAR_MAX as usize + (64 - FIRST_OCTAVE as usize) * SUBBUCKETS;

/// The bucket index `value` lands in.
fn bucket_index(value: u64) -> usize {
    if value < LINEAR_MAX {
        value as usize
    } else {
        let octave = 63 - value.leading_zeros(); // >= FIRST_OCTAVE
        let sub = ((value >> (octave - SUB_BITS)) as usize) & (SUBBUCKETS - 1);
        LINEAR_MAX as usize + (octave - FIRST_OCTAVE) as usize * SUBBUCKETS + sub
    }
}

/// The inclusive `(low, high)` value range of bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    debug_assert!(index < NUM_BUCKETS);
    if (index as u64) < LINEAR_MAX {
        (index as u64, index as u64)
    } else {
        let k = index - LINEAR_MAX as usize;
        let octave = FIRST_OCTAVE + (k / SUBBUCKETS) as u32;
        let sub = (k % SUBBUCKETS) as u64;
        let width = 1u64 << (octave - SUB_BITS);
        let low = (SUBBUCKETS as u64 + sub) * width;
        (low, low + (width - 1))
    }
}

/// A lock-free histogram: atomic log-linear buckets plus exact count, sum,
/// and max.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Histogram {
    /// A deep copy of the current bucket counts and aggregates (a
    /// [`Histogram::snapshot`] materialized back into atomics). Concurrent
    /// recorders on the source may land between the individual loads.
    fn clone(&self) -> Histogram {
        Histogram {
            buckets: self
                .buckets
                .iter()
                .map(|b| AtomicU64::new(b.load(Ordering::Relaxed)))
                .collect(),
            count: AtomicU64::new(self.count.load(Ordering::Relaxed)),
            sum: AtomicU64::new(self.sum.load(Ordering::Relaxed)),
            max: AtomicU64::new(self.max.load(Ordering::Relaxed)),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.summary();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.p50)
            .field("p99", &s.p99)
            .field("max", &s.max)
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free: four relaxed atomic operations.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // Most samples are not a new maximum: skip the read-modify-write.
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Single-owner fast path: the same accounting as
    /// [`Histogram::record`] with plain adds instead of atomic RMWs.
    /// The simulator records two per-job latencies for every job in a
    /// traced run -- millions of calls from one thread, where even
    /// uncontended lock-prefixed adds are a measurable slice of the
    /// observability overhead budget.
    pub fn record_mut(&mut self, value: u64) {
        *self.buckets[bucket_index(value)].get_mut() += 1;
        *self.count.get_mut() += 1;
        *self.sum.get_mut() += value;
        let max = self.max.get_mut();
        *max = (*max).max(value);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts and exact aggregates.
    /// Concurrent recorders may land between the individual loads; each
    /// loaded value is itself consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// The five-number summary of a fresh snapshot.
    pub fn summary(&self) -> HistogramSummary {
        self.snapshot().summary()
    }

    /// Zeroes every bucket and aggregate.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_bounds`]).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wraps on overflow past `u64::MAX`).
    pub sum: u64,
    /// The exact largest sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 < q <= 1.0`): the upper bound of the bucket
    /// holding the sample of rank `ceil(q × count)`, clamped to the exact
    /// maximum. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// The arithmetic mean of the samples (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count, mean, p50/p90/p99, and max in one struct.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            max: self.max,
        }
    }
}

/// The rendered summary of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Total samples.
    pub count: u64,
    /// Exact arithmetic mean.
    pub mean: f64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_total_and_monotone() {
        // Every representative value maps into a bucket whose bounds
        // contain it, and bucket bounds tile the u64 range in order.
        for v in (0..4096u64).chain([u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 17]) {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} not in bucket {i} [{lo}, {hi}]");
        }
        let mut prev_hi = None;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "gap or overlap before bucket {i}");
            }
            prev_hi = Some(hi);
        }
        assert_eq!(prev_hi, Some(u64::MAX), "buckets must cover u64");
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..LINEAR_MAX {
            h.record(v);
        }
        let snap = h.snapshot();
        for v in 0..LINEAR_MAX {
            assert_eq!(snap.buckets[v as usize], 1);
        }
        // Below the linear max every percentile is an exact sample value.
        assert_eq!(snap.percentile(0.5), 15); // rank 16 of 32 → value 15
        assert_eq!(snap.percentile(1.0), 31);
        assert_eq!(snap.max, 31);
    }

    #[test]
    fn percentiles_at_bucket_boundaries() {
        // 100 samples of value 100: p50 = p99 = max = 100 exactly, because
        // quantiles clamp to the exact max even though 100 sits mid-bucket.
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(100);
        }
        let s = h.summary();
        assert_eq!((s.p50, s.p90, s.p99, s.max), (100, 100, 100, 100));
        assert_eq!(s.mean, 100.0);

        // A boundary value 2^k lands in the bucket starting at 2^k; its
        // quantile never under-reports and errs by at most 1/16.
        for k in [5u32, 10, 20, 40] {
            let v = 1u64 << k;
            let h = Histogram::new();
            h.record(v);
            let p = h.snapshot().percentile(0.5);
            assert!(p >= v, "p50 {p} under-reports {v}");
            assert!(p <= v + (v >> SUB_BITS), "p50 {p} too far above {v}");
        }
    }

    #[test]
    fn rank_math_at_split_points() {
        // Two distinct values: the median rank must fall on the first.
        let h = Histogram::new();
        h.record(1);
        h.record(1000);
        let snap = h.snapshot();
        assert_eq!(snap.percentile(0.5), 1, "rank ceil(0.5×2)=1 → first");
        let p99 = snap.percentile(0.99);
        assert!((1000..=1000 + (1000 >> SUB_BITS)).contains(&p99));
        // Three values: ranks 1, 2, 3 at q ≤ 1/3, ≤ 2/3, 1.0.
        let h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.percentile(1.0 / 3.0), 10);
        assert_eq!(snap.percentile(2.0 / 3.0), 20);
        assert_eq!(snap.percentile(1.0), 30);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!((s.count, s.p50, s.p99, s.max), (0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(7);
        h.record(70_000);
        h.reset();
        assert_eq!(h.count(), 0);
        let snap = h.snapshot();
        assert!(snap.buckets.iter().all(|&b| b == 0));
        assert_eq!(snap.max, 0);
    }

    #[test]
    fn concurrent_recorders_lose_nothing() {
        // The lock-free contract: N threads × M records all land, and the
        // aggregates (count, sum, max) agree with the bucket totals.
        let h = Histogram::new();
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * 1_000 + i % 97);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, THREADS * PER_THREAD);
        assert_eq!(snap.buckets.iter().sum::<u64>(), THREADS * PER_THREAD);
        let expected_sum: u64 = (0..THREADS)
            .flat_map(|t| (0..PER_THREAD).map(move |i| t * 1_000 + i % 97))
            .sum();
        assert_eq!(snap.sum, expected_sum);
        assert_eq!(snap.max, 7_096);
    }
}
