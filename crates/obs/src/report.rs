//! Human-readable rendering: the phase-timing footer the CLI prints after
//! each subcommand when `-v`/`PRIO_LOG` asks for it, and the plain-text
//! [`Table`] every report and experiment output is laid out with.

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

/// A simple column-aligned text table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with space-aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        // Widths in chars, not bytes: cells may hold non-ASCII (µ,
        // sparkline blocks) and `format!` pads by char count.
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:<w$}", w = width[i]);
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        let rule: Vec<String> = width.iter().map(|&w| "-".repeat(w)).collect();
        emit(&mut out, &rule);
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Renders as tab-separated values (for downstream plotting).
    pub fn render_tsv(&self) -> String {
        let mut out = self.header.join("\t");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
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

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("----"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn tsv_rendering() {
        let mut t = Table::new(&["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.render_tsv(), "x\ty\n1\t2\n");
    }
}
