//! The results file (`--out`) and the comparison of two of them
//! (`--compare`).
//!
//! A results file holds a host block and, per workload, every metric's
//! unit, direction, samples, median and quartiles (plus the highest tail
//! percentile the samples support). Runs of different workloads, or the
//! traced and untraced runs of one workload, merge into one file.

use crate::catalog;
use crate::runner::Report;
use crate::stats::{quartiles, tail};
use prio_obs::json::{escape, parse, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

fn num(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

fn obj(pairs: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// One metric's record.
fn metric_record(unit: &str, better: &str, samples: &[f64]) -> JsonValue {
    let (q1, median, q3) = quartiles(samples);
    let mut rec = obj([
        ("unit", JsonValue::Str(unit.to_string())),
        ("better", JsonValue::Str(better.to_string())),
        ("n", num(samples.len() as f64)),
        ("median", num(median)),
        ("q1", num(q1)),
        ("q3", num(q3)),
        (
            "samples",
            JsonValue::Arr(samples.iter().map(|&s| num(s)).collect()),
        ),
    ]);
    if let (Some((p, value)), JsonValue::Obj(map)) = (tail(samples), &mut rec) {
        map.insert(
            "tail".into(),
            obj([("percentile", num(p)), ("value", num(value))]),
        );
    }
    rec
}

/// Merges `report` (and the `host` block) into the results file at
/// `path`, creating it if needed.
pub fn record(path: &Path, host: JsonValue, report: &Report) -> Result<(), String> {
    let mut root = match std::fs::read_to_string(path) {
        Ok(text) => parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(_) => obj([]),
    };
    let JsonValue::Obj(top) = &mut root else {
        return Err(format!("{}: not a JSON object", path.display()));
    };
    top.insert("host".into(), host);
    let workloads = top.entry("workloads".into()).or_insert_with(|| obj([]));
    let JsonValue::Obj(workloads) = workloads else {
        return Err(format!("{}: workloads is not an object", path.display()));
    };
    let entry = workloads
        .entry(report.workload.to_string())
        .or_insert_with(|| obj([]));
    let JsonValue::Obj(entry) = entry else {
        return Err(format!(
            "{}: {} is not an object",
            path.display(),
            report.workload
        ));
    };
    let mode = if report.trace { "traced" } else { "untraced" };
    entry.insert(
        mode.into(),
        obj([
            ("correct", JsonValue::Bool(report.correct())),
            ("attempted", num(report.rec.attempted as f64)),
            ("failed", num(report.rec.failed as f64)),
            (
                "problems",
                JsonValue::Arr(
                    report
                        .rec
                        .problems
                        .iter()
                        .cloned()
                        .map(JsonValue::Str)
                        .collect(),
                ),
            ),
        ]),
    );
    let metrics = entry.entry("metrics".into()).or_insert_with(|| obj([]));
    let JsonValue::Obj(metrics) = metrics else {
        return Err(format!("{}: metrics is not an object", path.display()));
    };
    for m in catalog::reported(report.trace) {
        let samples = report.rec.samples.get(m.name).cloned().unwrap_or_default();
        metrics.insert(m.name.into(), metric_record(m.unit, m.better, &samples));
    }
    std::fs::write(path, to_json(&root, 0) + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Serializes a JSON value, one object member per line; arrays of
/// numbers stay on one line.
pub fn to_json(v: &JsonValue, indent: usize) -> String {
    let pad = |n: usize| "  ".repeat(n);
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) if n.is_finite() => format!("{n}"),
        JsonValue::Num(_) => "null".into(),
        JsonValue::Str(s) => escape(s),
        JsonValue::Arr(items) => {
            let parts: Vec<String> = items.iter().map(|i| to_json(i, indent + 1)).collect();
            format!("[{}]", parts.join(", "))
        }
        JsonValue::Obj(map) if map.is_empty() => "{}".into(),
        JsonValue::Obj(map) => {
            let mut out = String::from("{\n");
            for (i, (k, v)) in map.iter().enumerate() {
                let comma = if i + 1 < map.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "{}{}: {}{comma}",
                    pad(indent + 1),
                    escape(k),
                    to_json(v, indent + 1)
                );
            }
            out + &pad(indent) + "}"
        }
    }
}

/// Reads each end-to-end metric's regression bound from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let v = parse(&text)?;
    let Some(JsonValue::Arr(metrics)) = v.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Compares results file `b` against `a`: one row per (workload, metric)
/// with both medians, the change in the metric's worse direction, and
/// whether it exceeds the bound. Returns the table and whether any metric
/// regressed.
pub fn compare(
    a: &Path,
    b: &Path,
    bounds: &BTreeMap<String, f64>,
) -> Result<(String, bool), String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (a, b) = (load(a)?, load(b)?);
    let medians = |v: &JsonValue, workload: &str, metric: &str| {
        v.get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(metric)?
            .get("median")?
            .as_f64()
    };
    let mut table = format!(
        "{:<10} {:<14} {:>12} {:>12} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let mut regressed = false;
    for workload in catalog::WORKLOADS {
        for m in &catalog::END_TO_END {
            let (Some(ma), Some(mb)) =
                (medians(&a, workload, m.name), medians(&b, workload, m.name))
            else {
                continue;
            };
            let Some(&bound) = bounds.get(m.name) else {
                continue;
            };
            let worse = if ma == 0.0 {
                0.0
            } else if m.better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let verdict = if worse > bound {
                regressed = true;
                "REGRESSION"
            } else if worse < -bound {
                "better"
            } else {
                "within bound"
            };
            let _ = writeln!(
                table,
                "{workload:<10} {:<14} {ma:>12.4} {mb:>12.4} {:>8.1}% {:>6.0}%  {verdict}",
                m.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Recorder;

    fn report(wall: &[f64]) -> Report {
        let mut rec = Recorder::default();
        for &w in wall {
            rec.sample("wall_s", w);
            rec.operation(true);
        }
        Report {
            workload: "cli-large",
            trace: false,
            rec,
        }
    }

    #[test]
    fn results_merge_and_compare_against_bounds() {
        let dir = crate::work_root().join("test-results");
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
        let host = obj([("nproc", num(2.0))]);
        record(&a, host.clone(), &report(&[1.0, 1.1, 0.9])).unwrap();
        record(&b, host, &report(&[1.3, 1.2, 1.4])).unwrap();
        let v = parse(&std::fs::read_to_string(&a).unwrap()).unwrap();
        let wall = v
            .get("workloads")
            .and_then(|w| w.get("cli-large"))
            .and_then(|w| w.get("metrics"))
            .and_then(|m| m.get("wall_s"))
            .unwrap();
        assert_eq!(wall.get("median").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(wall.get("unit").and_then(JsonValue::as_str), Some("s"));
        let bounds: BTreeMap<String, f64> = [("wall_s".to_string(), 0.1)].into();
        let (table, regressed) = compare(&a, &b, &bounds).unwrap();
        assert!(regressed, "{table}");
        assert!(table.contains("REGRESSION"));
        let (_, regressed) = compare(&b, &a, &bounds).unwrap();
        assert!(!regressed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
