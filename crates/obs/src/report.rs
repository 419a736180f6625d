//! Human-readable rendering of span and metric snapshots: the phase-timing
//! footer the CLI prints after each subcommand when `-v`/`PRIO_LOG` asks
//! for it.

use crate::config::{verbosity, Level};
use crate::{metrics, span};
use std::fmt::Write as _;
use std::time::Duration;

fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.3}ms", secs * 1e3)
    } else {
        format!("{:.1}µs", secs * 1e6)
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// Renders the phase-timing footer from the current span store:
/// one line per span path, indented by nesting depth, with count, total,
/// and max. Returns an empty string when nothing was recorded.
pub fn phase_timing_footer() -> String {
    let snapshot = span::snapshot();
    if snapshot.is_empty() {
        return String::new();
    }
    let mut out = String::from("timings:\n");
    for record in &snapshot {
        let depth = record.path.matches('/').count();
        let name = record.path.rsplit('/').next().unwrap_or(&record.path);
        let indent = "  ".repeat(depth + 1);
        let _ = write!(
            out,
            "{indent}{name:<12} {:>10}",
            fmt_duration(record.stat.total)
        );
        if record.stat.count > 1 {
            let _ = write!(
                out,
                "  (n={}, max {})",
                record.stat.count,
                fmt_duration(record.stat.max)
            );
        }
        // Allocation deltas appear only when profiling recorded them
        // (`--profile-alloc`), so default output is unchanged.
        if let Some(mem) = record.mem {
            let _ = write!(
                out,
                "  [allocs {} / {}, peak {}]",
                mem.alloc_count,
                fmt_bytes(mem.alloc_bytes),
                fmt_bytes(mem.peak_bytes)
            );
        }
        out.push('\n');
    }
    out
}

/// Renders the counter/gauge footer from the current metrics registry.
/// Returns an empty string when nothing was recorded.
pub fn metrics_footer() -> String {
    let snapshot = metrics::metrics_snapshot();
    if snapshot.is_empty() {
        return String::new();
    }
    let mut out = String::from("counters:\n");
    for record in &snapshot {
        let suffix = if record.is_gauge { " (high-water)" } else { "" };
        let _ = writeln!(out, "  {:<36} {:>12}{suffix}", record.name, record.value);
    }
    out
}

/// Prints the footer(s) to stderr according to the current verbosity:
/// nothing at `Off`, phase timings at `Info`, timings plus counters at
/// `Debug`. `force_timings` (the `--timings` flag) prints timings even at
/// `Off`.
pub fn print_footer(force_timings: bool) {
    let level = verbosity();
    if level >= Level::Info || force_timings {
        let footer = phase_timing_footer();
        if !footer.is_empty() {
            eprint!("{footer}");
        }
    }
    if level >= Level::Debug {
        let footer = metrics_footer();
        if !footer.is_empty() {
            eprint!("{footer}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::{span, Stage};

    // The span store is process-global: these tests use stages whose
    // names no other test in this crate records.
    fn line_of(footer: &str, stage: Stage) -> &str {
        footer
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("{stage} ")))
            .unwrap_or_else(|| panic!("no {stage} line in {footer}"))
    }

    #[test]
    fn footer_lists_phases_with_nesting() {
        {
            let _outer = span(Stage::Schedule);
            let _inner = span(Stage::Combine);
            std::thread::sleep(Duration::from_millis(1));
        }
        let footer = phase_timing_footer();
        assert!(footer.starts_with("timings:"), "{footer}");
        let outer_line = line_of(&footer, Stage::Schedule);
        let inner_line = line_of(&footer, Stage::Combine);
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(
            indent(inner_line) > indent(outer_line),
            "nesting must indent: {footer}"
        );
    }

    #[test]
    fn footer_reports_counts_for_repeated_spans() {
        for _ in 0..3 {
            let _g = span(Stage::Decompose);
        }
        let footer = phase_timing_footer();
        let line = line_of(&footer, Stage::Decompose);
        assert!(line.contains("n=3"), "{line}");
    }

    #[test]
    fn metrics_footer_marks_gauges() {
        crate::metrics::counter("test.report.counter").add(2);
        crate::metrics::gauge("test.report.gauge").record_max(7);
        let footer = metrics_footer();
        assert!(footer.contains("test.report.counter"));
        let gauge_line = footer
            .lines()
            .find(|l| l.contains("test.report.gauge"))
            .expect("gauge line");
        assert!(gauge_line.contains("high-water"), "{gauge_line}");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000s");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.000ms");
        assert_eq!(fmt_duration(Duration::from_micros(3)), "3.0µs");
    }
}
