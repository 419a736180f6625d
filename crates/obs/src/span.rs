//! Scoped spans: RAII guards timing the tool's [`Stage`]s. Nesting
//! composes paths per thread: `span(Stage::Decompose)` opened inside
//! `span(Stage::Prioritize)` records as `prioritize/decompose`.
//!
//! The open path is a thread-local `u64` of packed 4-bit stage codes. A
//! close records into the slot of a fixed, lock-free store keyed by that
//! word: a latency histogram (which keeps the exact count, total and
//! maximum too) and, with `alloc-profile`, allocation deltas. Only a
//! slot's first close allocates (its histogram). [`snapshot`] decodes
//! each path into its `/`-joined names.

use crate::hist::{Histogram, HistogramSummary};
use crate::stage::Stage;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Bits per stage code in a packed path.
const CODE_BITS: u32 = 4;
/// The deepest nesting a path holds; spans opened deeper record nothing.
const MAX_DEPTH: u32 = u64::BITS / CODE_BITS;
/// Distinct paths the store holds (a power of two); more record nothing.
const SLOTS: usize = 128;

/// Aggregate statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed spans recorded under this path.
    pub count: u64,
    /// Total elapsed time across those spans.
    pub total: Duration,
    /// The longest single span.
    pub max: Duration,
}

/// Per-path allocation aggregates, recorded only when the
/// `alloc-profile` feature is compiled in *and*
/// [`crate::mem::set_span_profiling`] is on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStat {
    /// Allocations performed while spans of this path were open.
    pub alloc_count: u64,
    /// Bytes allocated while spans of this path were open.
    pub alloc_bytes: u64,
    /// Largest single-span peak above the bytes live at span open.
    pub peak_bytes: u64,
}

/// One row of a [`snapshot`]: a span path with its statistics and the
/// latency distribution of its individual spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The `/`-joined nesting path, e.g. `prioritize/decompose`.
    pub path: String,
    /// Aggregate statistics for the path.
    pub stat: SpanStat,
    /// Five-number summary (count/mean/p50/p90/p99/max) of the per-span
    /// durations, in nanoseconds.
    pub latency_ns: HistogramSummary,
    /// Allocation deltas, when profiling was on for any span of this
    /// path. `None` keeps serialized span records byte-identical to
    /// profiling-off builds.
    pub mem: Option<MemStat>,
}

/// One path's span durations and allocation deltas (`[profiled spans,
/// alloc_count, alloc_bytes, peak_bytes]`). `path` is 0 while the slot is
/// free and is claimed once, by compare-and-swap. All orderings are
/// `Relaxed`: `path` publishes no other data, and `hist` is a `OnceLock`.
struct Slot {
    path: AtomicU64,
    hist: OnceLock<Histogram>,
    mem: [AtomicU64; 4],
}

impl Slot {
    /// The statistics, latency summary and allocation deltas of the spans
    /// recorded so far, if any.
    fn record(&self) -> Option<(SpanStat, HistogramSummary, Option<MemStat>)> {
        let snapshot = self.hist.get()?.snapshot();
        let stat = SpanStat {
            count: snapshot.count,
            total: Duration::from_nanos(snapshot.sum),
            max: Duration::from_nanos(snapshot.max),
        };
        let [profiled, alloc_count, alloc_bytes, peak_bytes] =
            self.mem.each_ref().map(|a| a.load(Ordering::Relaxed));
        let mem = (profiled > 0).then_some(MemStat {
            alloc_count,
            alloc_bytes,
            peak_bytes,
        });
        (stat.count > 0).then(|| (stat, snapshot.summary(), mem))
    }
}

/// The store: open addressing over packed paths, linear probing.
static STORE: [Slot; SLOTS] = [const {
    Slot {
        path: AtomicU64::new(0),
        hist: OnceLock::new(),
        mem: [const { AtomicU64::new(0) }; 4],
    }
}; SLOTS];

/// The slot of `path`, claimed on first use; `None` when the store is
/// full.
fn slot_for(path: u64) -> Option<&'static Slot> {
    let start = (path.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - SLOTS.ilog2())) as usize;
    (0..SLOTS)
        .map(|i| &STORE[(start + i) % SLOTS])
        .find(|slot| match slot.path.load(Ordering::Relaxed) {
            0 => slot
                .path
                .compare_exchange(0, path, Ordering::Relaxed, Ordering::Relaxed)
                .map_or_else(|owner| owner == path, |_| true),
            owner => owner == path,
        })
}

/// `parent` with `stage` nested inside it, or 0 when `parent` is already
/// [`MAX_DEPTH`] deep.
fn push(parent: u64, stage: Stage) -> u64 {
    if parent >> (CODE_BITS * (MAX_DEPTH - 1)) != 0 {
        return 0;
    }
    parent << CODE_BITS | (stage as u64 + 1)
}

/// The `/`-joined names of a packed path.
fn path_name(path: u64) -> String {
    let mut name = String::new();
    for depth in (0..MAX_DEPTH).rev() {
        let code = (path >> (depth * CODE_BITS)) & ((1 << CODE_BITS) - 1);
        if code != 0 {
            if !name.is_empty() {
                name.push('/');
            }
            name.push_str(Stage::ALL[code as usize - 1].name());
        }
    }
    name
}

thread_local! {
    /// The calling thread's open path.
    static OPEN: Cell<u64> = const { Cell::new(0) };
}

/// Allocation-counter baselines captured at span open (profiling on).
#[cfg(feature = "alloc-profile")]
#[derive(Debug, Clone, Copy)]
struct MemBaseline {
    alloc_count: u64,
    alloc_bytes: u64,
    live: usize,
    /// The global peak before this span reset it to `live`; restored at
    /// close so an enclosing span's peak survives.
    prev_peak: usize,
}

/// An open span; records its elapsed time into the store on drop.
#[derive(Debug)]
pub struct SpanGuard {
    start: Instant,
    /// The path this span records under (0: nested too deep to record).
    path: u64,
    /// The thread's open path before this span; drop restores it, so a
    /// non-LIFO drop cannot corrupt deeper paths.
    parent: u64,
    #[cfg(feature = "alloc-profile")]
    mem: Option<MemBaseline>,
}

/// Opens a span of `stage` nested under the calling thread's current
/// span path. Drop the returned guard to record it.
pub fn span(stage: Stage) -> SpanGuard {
    let parent = OPEN.get();
    let path = push(parent, stage);
    if path != 0 {
        OPEN.set(path);
    }
    #[cfg(feature = "alloc-profile")]
    let mem = crate::mem::span_profiling().then(|| {
        let live = crate::mem::LIVE_BYTES.load(Ordering::Relaxed);
        MemBaseline {
            alloc_count: crate::mem::ALLOC_COUNT.load(Ordering::Relaxed),
            alloc_bytes: crate::mem::ALLOC_BYTES.load(Ordering::Relaxed),
            live,
            prev_peak: crate::mem::PEAK_BYTES.swap(live, Ordering::Relaxed),
        }
    });
    SpanGuard {
        start: Instant::now(),
        path,
        parent,
        #[cfg(feature = "alloc-profile")]
        mem,
    }
}

impl SpanGuard {
    /// Elapsed time so far (the guard keeps running until dropped).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        #[cfg(feature = "alloc-profile")]
        let mem_delta = self.mem.map(|base| {
            let peak = crate::mem::PEAK_BYTES.load(Ordering::Relaxed);
            // Restore the enclosing span's peak tracking.
            crate::mem::PEAK_BYTES.fetch_max(base.prev_peak, Ordering::Relaxed);
            MemStat {
                alloc_count: crate::mem::ALLOC_COUNT
                    .load(Ordering::Relaxed)
                    .saturating_sub(base.alloc_count),
                alloc_bytes: crate::mem::ALLOC_BYTES
                    .load(Ordering::Relaxed)
                    .saturating_sub(base.alloc_bytes),
                peak_bytes: peak.saturating_sub(base.live) as u64,
            }
        });
        OPEN.set(self.parent);
        let Some(slot) = Some(self.path).filter(|&p| p != 0).and_then(slot_for) else {
            return;
        };
        slot.hist.get_or_init(Histogram::new).record(ns);
        #[cfg(feature = "alloc-profile")]
        if let Some(delta) = mem_delta {
            let [profiled, alloc_count, alloc_bytes, peak_bytes] = &slot.mem;
            profiled.fetch_add(1, Ordering::Relaxed);
            alloc_count.fetch_add(delta.alloc_count, Ordering::Relaxed);
            alloc_bytes.fetch_add(delta.alloc_bytes, Ordering::Relaxed);
            peak_bytes.fetch_max(delta.peak_bytes, Ordering::Relaxed);
        }
    }
}

/// A snapshot of every recorded span path, sorted by path.
pub fn snapshot() -> Vec<SpanRecord> {
    let mut records: Vec<SpanRecord> = STORE
        .iter()
        .filter_map(|slot| {
            let (stat, latency_ns, mem) = slot.record()?;
            Some(SpanRecord {
                path: path_name(slot.path.load(Ordering::Relaxed)),
                stat,
                latency_ns,
                mem,
            })
        })
        .collect();
    records.sort_by(|a, b| a.path.cmp(&b.path));
    records
}

/// Zeroes every recorded span, so none appears until it closes again.
pub fn reset_spans() {
    for slot in &STORE {
        if let Some(hist) = slot.hist.get() {
            hist.reset();
        }
        for a in &slot.mem {
            a.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Stage::*;

    // The store is process-global and tests run concurrently, so every
    // test here records under paths no other test in this crate opens,
    // and asserts only on them.

    fn stat_of(path: &str) -> Option<SpanStat> {
        snapshot()
            .into_iter()
            .find(|r| r.path == path)
            .map(|r| r.stat)
    }

    #[test]
    fn nesting_composes_paths() {
        {
            let _a = span(Emit);
            {
                let _b = span(DecomposeSuperdag);
            }
        }
        let outer = stat_of("emit").expect("outer recorded");
        let inner = stat_of("emit/decompose.superdag").expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(
            stat_of("decompose.superdag").is_none(),
            "inner must not appear top-level"
        );
    }

    #[test]
    fn elapsed_is_monotone_and_parent_covers_child() {
        let parent_guard = span(DecomposeMaterialize);
        let t1 = parent_guard.elapsed();
        std::thread::sleep(Duration::from_millis(2));
        let t2 = parent_guard.elapsed();
        assert!(t2 >= t1, "elapsed must be monotone: {t2:?} < {t1:?}");
        {
            let _child = span(Emit);
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(parent_guard);
        let parent = stat_of("decompose.materialize").unwrap();
        let child = stat_of("decompose.materialize/emit").unwrap();
        assert!(
            parent.total >= child.total,
            "parent {parent:?} must cover child {child:?}"
        );
        assert!(child.total >= Duration::from_millis(1));
        assert!(
            parent.max >= parent.total / 2,
            "single span: max tracks total"
        );
    }

    #[test]
    fn repeated_spans_accumulate() {
        let before = stat_of("apply/apply").map_or(0, |s| s.count);
        for _ in 0..5 {
            let _a = span(Apply);
            let _g = span(Apply);
        }
        let stat = stat_of("apply/apply").unwrap();
        assert_eq!(stat.count - before, 5);
        assert!(stat.total >= stat.max);
    }

    #[test]
    fn sibling_threads_do_not_nest_under_each_other() {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _a = span(DecomposePeel);
                std::thread::sleep(Duration::from_millis(1));
            });
            scope.spawn(|| {
                let _b = span(DecomposeGeneralSearch);
                std::thread::sleep(Duration::from_millis(1));
            });
        });
        assert!(stat_of("decompose.peel").is_some());
        assert!(stat_of("decompose.general_search").is_some());
        assert!(stat_of("decompose.peel/decompose.general_search").is_none());
        assert!(stat_of("decompose.general_search/decompose.peel").is_none());
    }

    #[test]
    fn two_threads_closing_one_path_merge_exactly() {
        const N: u64 = 20_000;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    let _root = span(Prioritize);
                    for _ in 0..N {
                        let _g = span(Parse);
                    }
                });
            }
        });
        assert_eq!(stat_of("prioritize/parse").unwrap().count, 2 * N);
        assert_eq!(stat_of("prioritize").unwrap().count, 2);
    }

    #[test]
    fn spans_nested_too_deep_record_nothing_and_unwind_cleanly() {
        let guards: Vec<SpanGuard> = (0..MAX_DEPTH + 1).map(|_| span(Reduce)).collect();
        assert_eq!(guards.last().map(|g| g.path), Some(0));
        for guard in guards.into_iter().rev() {
            drop(guard);
        }
        let deepest = "reduce/".repeat(MAX_DEPTH as usize - 1) + "reduce";
        assert_eq!(stat_of(&deepest).unwrap().count, 1);
        assert_eq!(OPEN.get(), 0, "the open path unwinds to the root");
    }

    #[test]
    fn snapshot_carries_latency_percentiles() {
        for _ in 0..10 {
            let _outer = span(Write);
            let _g = span(Apply);
            std::thread::sleep(Duration::from_micros(200));
        }
        let record = snapshot()
            .into_iter()
            .find(|r| r.path == "write/apply")
            .expect("recorded");
        let lat = record.latency_ns;
        assert_eq!(lat.count, 10);
        // Every span slept ≥ 200µs; percentiles are monotone and bounded
        // by the exact max, which matches the aggregate max.
        assert!(lat.p50 >= 200_000, "p50 {} < sleep floor", lat.p50);
        assert!(lat.p50 <= lat.p90 && lat.p90 <= lat.p99 && lat.p99 <= lat.max);
        assert_eq!(lat.max, record.stat.max.as_nanos() as u64);
    }
}
