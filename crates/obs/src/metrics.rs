//! A registry of named atomic counters, high-water-mark gauges, and
//! log-bucketed histograms.
//!
//! Names are `&'static str` dot-paths of exactly three segments,
//! `crate.subsystem.metric` (`sim.engine.events_processed`,
//! `core.combine.priority_cache_hits`); each segment is lowercase
//! `[a-z0-9_]+`. Product code reaches a metric through the
//! [`counter!`](crate::counter!), [`gauge!`](crate::gauge!) and
//! [`histogram!`](crate::histogram!) macros, which check the name against
//! [`name_follows_convention`] at compile time and hold the metric's
//! `&'static` handle in a per-call-site static: the registry's lock is
//! taken once per call site, and every later use touches only atomics.
//! The registry itself serves registration and snapshots, and checks the
//! convention again whenever it registers a new name, so the plain
//! [`counter`], [`gauge`] and [`histogram`] functions cannot register a
//! misnamed metric either.

use crate::hist::{Histogram, HistogramSummary};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// The `&'static` [`Counter`] named by the literal `$name`, registered on
/// this call site's first use and held after that. A name that breaks
/// the `crate.subsystem.metric` convention fails the build.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::metric_handle!($name, $crate::Counter, $crate::metrics::counter)
    };
}

/// [`counter!`] for a [`Gauge`](crate::Gauge).
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {
        $crate::metric_handle!($name, $crate::Gauge, $crate::metrics::gauge)
    };
}

/// [`counter!`] for a [`Histogram`](crate::Histogram).
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {
        $crate::metric_handle!($name, $crate::Histogram, $crate::metrics::histogram)
    };
}

/// The body shared by [`counter!`], [`gauge!`] and [`histogram!`].
#[doc(hidden)]
#[macro_export]
macro_rules! metric_handle {
    ($name:literal, $kind:ty, $register:path) => {{
        const {
            assert!(
                $crate::metrics::name_follows_convention($name),
                concat!("metric name `", $name, "` is not crate.subsystem.metric")
            )
        };
        static HANDLE: ::std::sync::OnceLock<&'static $kind> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $register($name))
    }};
}

/// A monotonically increasing counter: one relaxed atomic. Increments
/// are never lost.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// An atomic gauge that remembers the largest value recorded (a
/// high-water mark) — e.g. the completion-heap size of the simulator.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Records `v`, keeping the maximum seen.
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The largest value recorded.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();
    // The map holds only `&'static` handles, so a panic mid-insert cannot
    // leave it inconsistent — recover from poisoning rather than cascade.
    match REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The metric named `name`, created by `new` and registered on first
/// use, then narrowed by `pick` to the kind the caller asked for.
/// Registering a new name checks it against [`name_follows_convention`]
/// (once per name, off the hot path); a name already registered as
/// another kind panics.
fn register<T>(
    name: &'static str,
    kind: &str,
    new: fn() -> Metric,
    pick: fn(Metric) -> Option<&'static T>,
) -> &'static T {
    let metric = *registry().entry(name).or_insert_with(|| {
        assert!(
            name_follows_convention(name),
            "metric name {name:?} is not crate.subsystem.metric"
        );
        new()
    });
    pick(metric).unwrap_or_else(|| panic!("metric {name:?} is a {}, not a {kind}", metric.kind()))
}

/// The counter named `name`, allocated on first use; [`counter!`] calls
/// it once per call site. Panics if `name` breaks the naming convention
/// or is already registered as another kind.
pub fn counter(name: &'static str) -> &'static Counter {
    register(
        name,
        "counter",
        || Metric::Counter(Box::leak(Box::default())),
        |m| match m {
            Metric::Counter(c) => Some(c),
            _ => None,
        },
    )
}

/// The gauge named `name`, allocated on first use. Panics like
/// [`counter`].
pub fn gauge(name: &'static str) -> &'static Gauge {
    register(
        name,
        "gauge",
        || Metric::Gauge(Box::leak(Box::default())),
        |m| match m {
            Metric::Gauge(g) => Some(g),
            _ => None,
        },
    )
}

/// The histogram named `name`, allocated on first use. Panics like
/// [`counter`].
pub fn histogram(name: &'static str) -> &'static Histogram {
    register(
        name,
        "histogram",
        || Metric::Histogram(Box::leak(Box::new(Histogram::new()))),
        |m| match m {
            Metric::Histogram(h) => Some(h),
            _ => None,
        },
    )
}

/// One row of a [`metrics_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRecord {
    /// The metric name.
    pub name: &'static str,
    /// Its current value.
    pub value: u64,
    /// `true` for gauges (high-water marks), `false` for counters.
    pub is_gauge: bool,
}

/// A snapshot of every registered counter and gauge, sorted by name
/// (histograms have their own shape; see [`histograms_snapshot`]).
pub fn metrics_snapshot() -> Vec<MetricRecord> {
    registry()
        .iter()
        .filter_map(|(&name, metric)| match metric {
            Metric::Counter(c) => Some(MetricRecord {
                name,
                value: c.get(),
                is_gauge: false,
            }),
            Metric::Gauge(g) => Some(MetricRecord {
                name,
                value: g.get(),
                is_gauge: true,
            }),
            Metric::Histogram(_) => None,
        })
        .collect()
}

/// One row of a [`histograms_snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramRecord {
    /// The metric name.
    pub name: &'static str,
    /// Its current five-number summary.
    pub summary: HistogramSummary,
}

/// A snapshot of every registered histogram's summary, sorted by name.
pub fn histograms_snapshot() -> Vec<HistogramRecord> {
    registry()
        .iter()
        .filter_map(|(&name, metric)| match metric {
            Metric::Histogram(h) => Some(HistogramRecord {
                name,
                summary: h.summary(),
            }),
            _ => None,
        })
        .collect()
}

/// Whether `name` follows the metric-naming convention: exactly three
/// dot-separated segments (`crate.subsystem.metric`), each a non-empty
/// run of lowercase `[a-z0-9_]`.
pub const fn name_follows_convention(name: &str) -> bool {
    let bytes = name.as_bytes();
    let (mut i, mut dots, mut segment_len) = (0, 0, 0);
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'.' {
            if segment_len == 0 {
                return false;
            }
            dots += 1;
            segment_len = 0;
        } else if b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' {
            segment_len += 1;
        } else {
            return false;
        }
        i += 1;
    }
    dots == 2 && segment_len > 0
}

/// Zeroes every registered counter, gauge, and histogram (names stay
/// registered).
pub fn reset_metrics() {
    for metric in registry().values() {
        match metric {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Metrics are process-global and tests run concurrently, so every test
    // uses names unique to itself.

    #[test]
    fn counter_handle_is_stable_and_accumulates() {
        let a = counter("test.metrics.stable");
        let b = counter("test.metrics.stable");
        assert!(std::ptr::eq(a, b), "same name must yield the same handle");
        assert!(std::ptr::eq(a, crate::counter!("test.metrics.stable")));
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        a.reset();
        assert_eq!(b.get(), 0);
    }

    #[test]
    fn gauge_keeps_high_water_mark() {
        let g = gauge("test.metrics.hwm");
        g.record_max(3);
        g.record_max(9);
        g.record_max(5);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        // The multi-threaded registry contract the `--threads` simulate
        // path relies on: N threads × M increments must all land.
        let c = counter("test.metrics.concurrent");
        let before = c.get();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get() - before, THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn concurrent_first_use_registers_once() {
        // Many threads racing to create the same name must all get the
        // same counter.
        let handles: Vec<&'static Counter> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| counter("test.metrics.race")))
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        for h in &handles[1..] {
            assert!(std::ptr::eq(handles[0], *h));
        }
    }

    #[test]
    fn snapshot_lists_registered_metrics() {
        counter("test.metrics.snap_counter").add(7);
        gauge("test.metrics.snap_gauge").record_max(2);
        let snap = metrics_snapshot();
        let c = snap
            .iter()
            .find(|m| m.name == "test.metrics.snap_counter")
            .unwrap();
        assert!(!c.is_gauge);
        assert!(c.value >= 7);
        let g = snap
            .iter()
            .find(|m| m.name == "test.metrics.snap_gauge")
            .unwrap();
        assert!(g.is_gauge);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        counter("test.metrics.kind");
        gauge("test.metrics.kind");
    }

    #[test]
    #[should_panic(expected = "is a histogram, not a counter")]
    fn histogram_kind_mismatch_panics() {
        histogram("test.metrics.histkind");
        counter("test.metrics.histkind");
    }

    #[test]
    #[should_panic(expected = "is not crate.subsystem.metric")]
    fn misnamed_plain_counter_panics_at_registration() {
        counter("a.b");
    }

    #[test]
    fn histogram_handle_is_stable_and_summarizes() {
        let a = histogram("test.metrics.hist");
        let b = histogram("test.metrics.hist");
        assert!(std::ptr::eq(a, b));
        for v in [1u64, 2, 3, 1_000] {
            a.record(v);
        }
        let snap = histograms_snapshot();
        let row = snap.iter().find(|h| h.name == "test.metrics.hist").unwrap();
        assert!(row.summary.count >= 4);
        assert!(row.summary.max >= 1_000);
        // Histograms are excluded from the scalar snapshot.
        assert!(metrics_snapshot()
            .iter()
            .all(|m| m.name != "test.metrics.hist"));
    }

    #[test]
    fn naming_convention_accepts_three_lowercase_segments() {
        for good in [
            "sim.engine.events_processed",
            "core.combine.priority_cache_hits",
            "graph.reduce.shortcut_arcs_removed",
            "test.metrics.x9_y",
        ] {
            assert!(name_follows_convention(good), "{good} should pass");
        }
        for bad in [
            "sim.runs",                   // two segments
            "core.a.b.c",                 // four segments
            "Sim.engine.runs",            // uppercase
            "sim.engine.",                // empty segment
            "sim..runs",                  // empty segment
            "sim.engine.runs-per-second", // hyphen
            "sim engine runs",            // no dots
        ] {
            assert!(!name_follows_convention(bad), "{bad} should fail");
        }
    }

    #[test]
    fn concurrent_mixed_hammer_loses_nothing() {
        // The registry contract under concurrent writers of every metric
        // kind: N threads hammering one counter, one gauge, and one
        // histogram through registry lookups (not cached handles) must
        // lose no increment, no high-water mark, and no sample.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5_000;
        let c0 = counter("test.metrics.hammer_counter").get();
        let h0 = histogram("test.metrics.hammer_hist").count();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        counter("test.metrics.hammer_counter").inc();
                        gauge("test.metrics.hammer_gauge").record_max(t * PER_THREAD + i);
                        histogram("test.metrics.hammer_hist").record(i);
                    }
                });
            }
        });
        assert_eq!(
            counter("test.metrics.hammer_counter").get() - c0,
            THREADS * PER_THREAD,
            "lost counter increments"
        );
        assert_eq!(
            gauge("test.metrics.hammer_gauge").get(),
            THREADS * PER_THREAD - 1,
            "lost gauge high-water mark"
        );
        assert_eq!(
            histogram("test.metrics.hammer_hist").count() - h0,
            THREADS * PER_THREAD,
            "lost histogram samples"
        );
    }
}
