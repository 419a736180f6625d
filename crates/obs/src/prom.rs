//! Prometheus text exposition (version 0.0.4) of the metrics registry.
//!
//! `--metrics-out <file>` writes one snapshot at process exit — the
//! ready-made scrape surface for the future `prio serve` daemon, and a
//! machine-readable artifact CI can upload next to trace smoke output.
//!
//! Mapping: registry counters become `counter` samples, gauges become
//! `gauge` samples, and histograms are exposed as `summary` families
//! (quantile-labelled p50/p90/p99 samples plus `_count`/`_sum`; the
//! log-bucketed histogram keeps exact count/mean, so `_sum` is
//! `mean * count`). Metric names are mangled dot→underscore with a
//! `prio_` prefix (`sim.engine.events` → `prio_sim_engine_events`).

use std::fmt::Write as _;

use crate::metrics;

/// Mangles a registry metric name into a legal Prometheus name:
/// `prio_` prefix, dots (and any other non `[a-zA-Z0-9_]`) become
/// underscores.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("prio_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

/// Renders the full registry (counters, gauges, histogram summaries) in
/// Prometheus text format. Deterministic: families appear sorted by
/// name, as the registry snapshot already guarantees.
pub fn render_snapshot() -> String {
    let mut out = String::new();
    for record in metrics::metrics_snapshot() {
        let name = prom_name(record.name);
        let kind = if record.is_gauge { "gauge" } else { "counter" };
        let _ = writeln!(out, "# HELP {name} prio metric {}", record.name);
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {}", record.value);
    }
    for record in metrics::histograms_snapshot() {
        let name = prom_name(record.name);
        let s = &record.summary;
        let _ = writeln!(out, "# HELP {name} prio histogram {}", record.name);
        let _ = writeln!(out, "# TYPE {name} summary");
        let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", s.p50);
        let _ = writeln!(out, "{name}{{quantile=\"0.9\"}} {}", s.p90);
        let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", s.p99);
        let _ = writeln!(out, "{name}_sum {}", s.mean * s.count as f64);
        let _ = writeln!(out, "{name}_count {}", s.count);
    }
    out
}

/// Writes [`render_snapshot`] to `path`, creating or truncating it.
pub fn write_snapshot(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, render_snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_mangled_with_the_prio_prefix() {
        assert_eq!(prom_name("sim.engine.events"), "prio_sim_engine_events");
        assert_eq!(prom_name("serve.queue.shed"), "prio_serve_queue_shed");
        assert_eq!(prom_name("weird-name.0"), "prio_weird_name_0");
    }

    #[test]
    fn snapshot_exposes_counters_gauges_and_histogram_summaries() {
        metrics::counter("test.prom.counter").add(7);
        metrics::gauge("test.prom.gauge").record_max(42);
        metrics::histogram("test.prom.hist").record(100);
        let text = render_snapshot();

        assert!(text.contains("# TYPE prio_test_prom_counter counter"));
        assert!(
            text.contains("prio_test_prom_counter 7") || text.contains("prio_test_prom_counter ")
        );
        assert!(text.contains("# TYPE prio_test_prom_gauge gauge"));
        assert!(text.contains("# TYPE prio_test_prom_hist summary"));
        assert!(text.contains("prio_test_prom_hist{quantile=\"0.5\"}"));
        assert!(text.contains("prio_test_prom_hist_count "));
        assert!(text.contains("prio_test_prom_hist_sum "));

        // Exposition-format shape: every non-comment line is
        // `name[{labels}] value` with a parseable numeric value.
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP") || line.starts_with("# TYPE"));
                continue;
            }
            let (_name, value) = line.rsplit_once(' ').expect("sample line");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        }
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        // Other tests update the shared registry concurrently, so compare
        // only the families this test owns.
        for name in ["test.prom_det.b", "test.prom_det.a", "test.prom_det.c"] {
            metrics::counter(name).add(1);
        }
        let own = |text: String| -> Vec<String> {
            text.lines()
                .filter(|l| l.contains("prio_test_prom_det_"))
                .map(str::to_string)
                .collect()
        };
        let first = own(render_snapshot());
        assert_eq!(first, own(render_snapshot()));
        let families: Vec<&str> = first
            .iter()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .collect();
        assert_eq!(families.len(), 3, "{first:?}");
        assert!(families.windows(2).all(|w| w[0] < w[1]), "{families:?}");
    }
}
