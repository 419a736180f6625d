//! End-to-end tests of the observability runtime: the trace writer
//! behind `--trace-out` (its bytes are pinned), `--trace-sample`, the
//! drop-accounting `meta` record, and the `--metrics-out` Prometheus
//! snapshot.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn prio(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prio"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prio-obs-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `prio simulate --trace-out trace.jsonl` with minimal replication
/// (the trace phase is what is under test) plus `extra` flags.
fn simulate_traced(dir: &Path, extra: &[&str]) -> Output {
    let mut args = vec![
        "simulate",
        "--workload",
        "airsn",
        "--scale",
        "0.3",
        "--mu-bit",
        "0.3",
        "--mu-bs",
        "8",
        "--p",
        "2",
        "--q",
        "1",
        "--trace-out",
        "trace.jsonl",
    ];
    args.extend_from_slice(extra);
    prio(&args, dir)
}

/// Extracts `"key":<u64>` from the trailing `trace_pipeline` meta line.
fn pipeline_field(trace: &str, key: &str) -> u64 {
    let line = trace
        .lines()
        .find(|l| l.contains("\"command\":\"trace_pipeline\""))
        .expect("drop-accounting meta record present");
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag).expect("field present") + tag.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric field")
}

#[test]
fn full_rate_trace_drops_nothing_and_report_stays_quiet() {
    let dir = tempdir("full-rate");
    let out = simulate_traced(&dir, &[]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("WARNING"), "no loss warning: {stderr}");

    let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
    assert_eq!(pipeline_field(&trace, "dropped"), 0);
    assert_eq!(pipeline_field(&trace, "sample"), 1);
    assert_eq!(
        pipeline_field(&trace, "enqueued"),
        pipeline_field(&trace, "written"),
        "every enqueued line reached the file"
    );
    assert!(
        pipeline_field(&trace, "written") > 100,
        "the trace actually carries events"
    );

    let report = prio(&["report", "trace.jsonl"], &dir);
    assert!(report.status.success());
    let report_err = String::from_utf8_lossy(&report.stderr);
    assert!(!report_err.contains("WARNING"), "{report_err}");
    let report_out = String::from_utf8_lossy(&report.stdout);
    assert!(report_out.contains("trace_pipeline"), "{report_out}");
    assert!(!report_out.contains("lossy"), "{report_out}");
}

/// FNV-1a over the trace's deterministic lines, each with its newline:
/// everything except the wall-clock `span` lines, the process-wide
/// `counter`/`gauge` lines and the `hist` snapshot lines that carry no
/// `policy` (the per-run telemetry `hist` lines do).
fn deterministic_trace_hash(trace: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in trace.lines() {
        let kind = |t: &str| line.starts_with(&format!("{{\"type\":\"{t}\""));
        if kind("span") || kind("counter") || kind("gauge") {
            continue;
        }
        if kind("hist") && !line.contains("\"policy\":") {
            continue;
        }
        for &byte in line.as_bytes().iter().chain(b"\n") {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn trace_bytes_are_pinned_at_any_thread_count() {
    // Covers every event, meta and telemetry line, and the
    // trace_pipeline record's counts; `--threads` only changes the
    // untraced replications, so both settings write the same bytes.
    const PINNED: u64 = 0xfee8_de1d_8c58_594e;
    for threads in ["1", "2"] {
        let dir = tempdir(&format!("pinned-{threads}"));
        let out = simulate_traced(&dir, &["--seed", "7", "--threads", threads]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
        assert_eq!(
            deterministic_trace_hash(&trace),
            PINNED,
            "--threads {threads}: trace bytes changed"
        );
    }
}

#[test]
fn trace_sample_thins_job_events_and_tags_the_trace() {
    let dir = tempdir("sampled");
    let out = simulate_traced(&dir, &["--trace-sample", "8"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("sampling"),
        "simulate announces sampling"
    );
    let sampled = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
    assert_eq!(pipeline_field(&sampled, "sample"), 8);
    assert_eq!(pipeline_field(&sampled, "dropped"), 0);
    let job_events = |trace: &str| {
        trace
            .lines()
            .filter(|l| l.contains("\"type\":\"job_"))
            .count()
    };
    let sampled_jobs = job_events(&sampled);

    let dir_full = tempdir("sampled-baseline");
    let out = simulate_traced(&dir_full, &[]);
    assert!(out.status.success());
    let full = std::fs::read_to_string(dir_full.join("trace.jsonl")).unwrap();
    assert!(
        sampled_jobs * 4 < job_events(&full),
        "1/8 sampling must thin job events well below the full rate \
         ({sampled_jobs} vs {})",
        job_events(&full)
    );
    // Aggregate telemetry stays exact: the ts digests are identical.
    fn ts_lines(trace: &str) -> Vec<&str> {
        trace
            .lines()
            .filter(|l| l.contains("\"type\":\"ts\""))
            .collect()
    }
    assert_eq!(ts_lines(&sampled), ts_lines(&full));

    // Report notes the sampling; the curve analysis scales estimates;
    // critical-path refuses the incomplete lifecycle record.
    let report = prio(&["report", "trace.jsonl"], &dir);
    assert!(report.status.success());
    assert!(String::from_utf8_lossy(&report.stderr).contains("sampled"));
    let curve = prio(&["trace", "curve", "trace.jsonl", "--out", "c.tsv"], &dir);
    assert!(
        curve.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&curve.stderr)
    );
    assert!(String::from_utf8_lossy(&curve.stderr).contains("estimates"));
    let cp = prio(&["trace", "critical-path", "trace.jsonl"], &dir);
    assert_eq!(cp.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&cp.stderr).contains("sampled"));
}

#[test]
fn metrics_out_writes_a_prometheus_snapshot() {
    let dir = tempdir("metrics-out");
    let out = simulate_traced(&dir, &["--metrics-out", "metrics.prom"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snapshot = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
    assert!(snapshot.contains("# TYPE"), "{snapshot}");
    assert!(
        snapshot.lines().any(|l| l.starts_with("prio_")),
        "metric names carry the prio_ prefix: {snapshot}"
    );

    // The flag is global: it works on non-simulate subcommands too.
    let out = prio(
        &[
            "stats",
            "--workload",
            "airsn",
            "--scale",
            "0.05",
            "--metrics-out",
            "stats.prom",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("stats.prom").exists());

    // An unwritable path surfaces as an input error, not a silent skip.
    let out = prio(
        &[
            "stats",
            "--workload",
            "airsn",
            "--scale",
            "0.05",
            "--metrics-out",
            "no/such/dir/m.prom",
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("m.prom"));

    // A flag right after it is not its value.
    let out = prio(
        &[
            "stats",
            "--workload",
            "airsn",
            "--scale",
            "0.05",
            "--metrics-out",
            "--timings",
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--metrics-out requires a value"));
    assert!(!dir.join("--timings").exists());
}
