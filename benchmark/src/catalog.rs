//! The benchmark's vocabulary: its workloads and every metric a run
//! reports. `BENCHMARK.json` lists the same names; a test keeps the two
//! equal.

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["cli-paper", "cli-large", "serve-mix", "sim-paper"];

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `lower` or `higher`: which way is better.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of `prio` sees, measured with tracing off (`--trace 0`).
/// Each is the median of its samples.
pub const END_TO_END: [Metric; 4] = [
    // Generating and writing the inputs (plus, for serve-mix, starting
    // the daemon and one warm pass); median of several set-ups.
    lower("setup_s", "s"),
    // One round: the workload's subprocess invocations, or one burst.
    lower("wall_s", "s"),
    // One operation: a `prio` invocation (median over rounds of each
    // round's median), or a request at the open-loop reference rate.
    lower("p50_ms", "ms"),
    // Peak resident memory of the program under test.
    lower("peak_rss_mb", "MB"),
];

/// The layers the traced pass times, in pipeline order. Each reports its
/// self time summed over one round as `<layer>_ms`.
pub const LAYERS: [&str; 9] = [
    "input",
    "parse",
    "reduce",
    "decompose",
    "schedule",
    "combine",
    "emit",
    "apply",
    "write",
];

/// One layer at a time, from the traced in-process replay (`--trace 1`).
/// Times are self times summed over one round, median over replays.
pub const PER_LAYER: [Metric; 17] = [
    lower("input_ms", "ms"),
    lower("parse_ms", "ms"),
    lower("reduce_ms", "ms"),
    lower("decompose_ms", "ms"),
    lower("schedule_ms", "ms"),
    lower("combine_ms", "ms"),
    lower("emit_ms", "ms"),
    lower("apply_ms", "ms"),
    lower("write_ms", "ms"),
    // The round's untraced `wall_s` minus the layers' self times.
    lower("unaccounted_ms", "ms"),
    // Allocations and peak live heap of one replayed round.
    lower("allocs", "count"),
    lower("heap_peak_mb", "MB"),
    // Decomposition iterations that needed the general search.
    lower("general_searches", "count"),
    // Catalog-recognized components over non-trivial ones.
    higher("catalog_ratio", "ratio"),
    // serve-mix: cache hits over requests, and evictions, from the
    // daemon's `stats`.
    higher("hit_ratio", "ratio"),
    lower("evictions", "count"),
    // sim-paper: trace events the async pipeline dropped.
    lower("trace_dropped", "count"),
];

/// The metrics a run prints: end-to-end ones untraced, per-layer ones
/// traced.
pub fn reported(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Looks a metric up by name.
pub fn metric(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .copied()
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS)
            .collect();
        for name in &all {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                    && name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate name");
        for layer in LAYERS {
            assert!(metric(&format!("{layer}_ms")).is_some(), "{layer}");
        }
    }
}
