//! Integration tests driving the `prio` binary end to end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn prio(args: &[&str], dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prio"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prio-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

const FIG3: &str = "\
JOB a a.submit
JOB b b.submit
JOB c c.submit
JOB d d.submit
JOB e e.submit
PARENT a CHILD b
PARENT c CHILD d e
";

#[test]
fn instrument_writes_fig3_priorities() {
    let dir = tempdir("instrument");
    std::fs::write(dir.join("IV.dag"), FIG3).unwrap();
    std::fs::write(dir.join("c.submit"), "universe = vanilla\nqueue\n").unwrap();
    let out = prio(&["instrument", "IV.dag"], &dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let instrumented = std::fs::read_to_string(dir.join("IV.prio.dag")).unwrap();
    assert!(instrumented.contains("VARS c jobpriority=\"5\""));
    assert!(instrumented.contains("VARS e jobpriority=\"1\""));
    let jsdf = std::fs::read_to_string(dir.join("c.submit")).unwrap();
    assert!(jsdf.contains("priority = $(jobpriority)"));
    // Four submit files are missing: one note names the first three.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let notes: Vec<&str> = stderr.lines().filter(|l| l.contains("not found")).collect();
    assert_eq!(notes.len(), 1, "stderr: {stderr}");
    let names: Vec<&str> = notes[0]
        .strip_prefix("prio: note: 4 submit files not found, skipped: ")
        .and_then(|rest| rest.strip_suffix(", …"))
        .unwrap_or_else(|| panic!("stderr: {stderr}"))
        .split(", ")
        .map(|p| p.rsplit(['/', '\\']).next().unwrap())
        .collect();
    assert_eq!(
        names,
        ["a.submit", "b.submit", "d.submit"],
        "stderr: {stderr}"
    );
}

#[test]
fn each_submit_file_is_instrumented_once_in_first_reference_order() {
    let dir = tempdir("submit-order");
    let dag = "\
JOB a y.submit
JOB b x.submit
SUBDAG EXTERNAL inner inner.dag
JOB c y.submit
JOB d gone.submit
JOB e z.submit
JOB f x.submit
PARENT a b CHILD c
PARENT c CHILD d e f inner
";
    std::fs::write(dir.join("w.dag"), dag).unwrap();
    for name in ["x.submit", "y.submit", "z.submit"] {
        std::fs::write(dir.join(name), "universe = vanilla\nqueue\n").unwrap();
    }
    let out = prio(&["run", "w.dag"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let instrumented: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("prio: instrumented "))
        .map(|path| path.rsplit(['/', '\\']).next().unwrap())
        .collect();
    assert_eq!(
        instrumented,
        vec!["y.submit", "x.submit", "z.submit"],
        "stderr: {stderr}"
    );
    // Missing submit files are summarized in one line.
    let notes: Vec<&str> = stderr.lines().filter(|l| l.contains("not found")).collect();
    assert_eq!(notes.len(), 1, "stderr: {stderr}");
    assert!(
        notes[0].starts_with("prio: note: 1 submit file not found, skipped: ")
            && notes[0].ends_with("gone.submit"),
        "stderr: {stderr}"
    );
    for name in ["x.submit", "y.submit", "z.submit"] {
        let jsdf = std::fs::read_to_string(dir.join(name)).unwrap();
        assert_eq!(
            jsdf.matches("priority = $(jobpriority)").count(),
            1,
            "{name}"
        );
    }
}

#[test]
fn instrument_in_place_overwrites() {
    let dir = tempdir("inplace");
    std::fs::write(dir.join("IV.dag"), FIG3).unwrap();
    let out = prio(&["instrument", "IV.dag", "--in-place"], &dir);
    assert!(out.status.success());
    let text = std::fs::read_to_string(dir.join("IV.dag")).unwrap();
    assert!(text.contains("jobpriority"));
}

#[test]
fn schedule_prints_prio_order() {
    let dir = tempdir("schedule");
    std::fs::write(dir.join("IV.dag"), FIG3).unwrap();
    let out = prio(&["schedule", "IV.dag"], &dir);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let names: Vec<&str> = stdout
        .lines()
        .map(|l| l.split('\t').next().unwrap())
        .collect();
    assert_eq!(names, vec!["c", "a", "b", "d", "e"]);
}

#[test]
fn schedule_fifo_flag_changes_order() {
    let dir = tempdir("fifo");
    std::fs::write(dir.join("IV.dag"), FIG3).unwrap();
    let out = prio(&["schedule", "IV.dag", "--fifo"], &dir);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("a\t"));
}

#[test]
fn compare_emits_diff_series() {
    let dir = tempdir("compare");
    std::fs::write(dir.join("IV.dag"), FIG3).unwrap();
    let out = prio(&["compare", "IV.dag"], &dir);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("t\tdiff"));
    assert_eq!(stdout.lines().count(), 1 + 6); // header + E(0..=5)
}

#[test]
fn generate_then_instrument_roundtrip() {
    let dir = tempdir("generate");
    let out = prio(
        &["generate", "airsn", "--width", "5", "--output", "airsn.dag"],
        &dir,
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = prio(&["instrument", "airsn.dag", "--output", "out.dag"], &dir);
    assert!(out.status.success());
    let text = std::fs::read_to_string(dir.join("out.dag")).unwrap();
    // 38 jobs at width 5, so the top priority is 38.
    assert!(text.contains("jobpriority=\"38\""));
}

#[test]
fn stats_reports_components() {
    let dir = tempdir("stats");
    let out = prio(&["stats", "--workload", "airsn", "--scale", "0.05"], &dir);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("components:"));
    assert!(stdout.contains("bipartite:"));
}

#[test]
fn scale_above_one_scales_up() {
    let dir = tempdir("scale-up");
    // Inspiral at 2x: 4 + 802 + 3 * 668 + 3 * 1054 jobs, one per line.
    let out = prio(
        &["schedule", "--workload", "inspiral", "--scale", "2"],
        &dir,
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).unwrap().lines().count(),
        5_972
    );
    let out = prio(
        &["generate", "inspiral", "--scale", "2", "--output", "i2.dag"],
        &dir,
    );
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("(5972 jobs)"));
    // AIRSN scales by width: 500 wide is 3 * 500 + 23 jobs.
    let out = prio(&["stats", "--workload", "airsn", "--scale", "2"], &dir);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("1523"));
}

#[test]
fn non_positive_or_non_finite_scale_is_a_usage_error() {
    let dir = tempdir("bad-scale");
    for scale in ["0", "nan", "-1", "inf"] {
        for args in [
            vec!["schedule", "--workload", "inspiral", "--scale", scale],
            vec!["generate", "inspiral", "--scale", scale],
        ] {
            let out = prio(&args, &dir);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains("scale must be"), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?}");
        }
    }
}

#[test]
fn generate_and_workload_build_the_same_dag() {
    let dir = tempdir("scale-paths");
    for (name, scale) in [
        ("inspiral", "2"),
        ("montage", "0.1"),
        ("airsn", "0.3"),
        ("sdss", "0.01"),
        ("airsn", "1"),
    ] {
        let file = format!("{name}-{scale}.dag");
        let out = prio(
            &["generate", name, "--scale", scale, "--output", &file],
            &dir,
        );
        assert!(out.status.success(), "generate {name} --scale {scale}");
        let from_file = prio(&["schedule", &file], &dir);
        let from_workload = prio(&["schedule", "--workload", name, "--scale", scale], &dir);
        assert!(from_file.status.success() && from_workload.status.success());
        assert!(!from_file.stdout.is_empty());
        assert_eq!(
            from_file.stdout, from_workload.stdout,
            "{name} --scale {scale}: generate and --workload differ"
        );
    }
}

#[test]
fn simulate_smoke() {
    let dir = tempdir("simulate");
    let out = prio(
        &[
            "simulate",
            "--workload",
            "airsn",
            "--scale",
            "0.04",
            "--mu-bit",
            "1",
            "--mu-bs",
            "8",
            "--p",
            "4",
            "--q",
            "3",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("execution_time"));
    assert!(stdout.contains("utilization"));
}

#[test]
fn unknown_subcommand_exits_with_usage_code() {
    let dir = tempdir("unknown");
    let out = prio(&["frobnicate"], &dir);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn bad_flag_value_exits_with_usage_code() {
    let dir = tempdir("badflag");
    std::fs::write(dir.join("IV.dag"), FIG3).unwrap();
    let out = prio(&["instrument", "IV.dag", "--search", "lots"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--search"));
    let out = prio(&[], &dir);
    assert_eq!(out.status.code(), Some(2), "missing subcommand exits 2");
}

#[test]
fn unknown_flags_exit_with_usage_code_naming_the_flag() {
    let dir = tempdir("unknown-flag");
    let sim = ["simulate", "--workload", "airsn", "--scale", "0.05"];
    for (args, flag) in [
        ([&sim[..], &["--trace-ring", "2"]].concat(), "--trace-ring"),
        ([&sim[..], &["--trace-rnig", "2"]].concat(), "--trace-rnig"),
        (
            vec!["schedule", "--workload", "airsn", "--bogus-flag", "1"],
            "--bogus-flag",
        ),
        (
            vec!["schedule", "--workload", "airsn", "--fifoo"],
            "--fifoo",
        ),
        (vec!["batch", ".", "--threads", "2"], "--threads"),
    ] {
        let out = prio(&args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn queue_cap_is_exact_and_zero_is_a_usage_error() {
    let dir = tempdir("queue-cap");
    let out = prio(&["serve", "--stdio", "--queue-cap", "0"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--queue-cap"));

    let mut child = Command::new(env!("CARGO_BIN_EXE_prio"))
        .args(["serve", "--stdio", "--queue-cap", "3"])
        .current_dir(&dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    use std::io::Write as _;
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"v\":1,\"id\":\"s\",\"verb\":\"stats\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"queue_capacity\":3"), "{stdout}");
}

#[test]
fn missing_file_exits_with_input_code() {
    let dir = tempdir("missing");
    let out = prio(&["schedule", "nope.dag"], &dir);
    assert_eq!(out.status.code(), Some(1), "input errors exit 1");
    assert!(String::from_utf8_lossy(&out.stderr).contains("nope.dag"));
}

#[test]
fn malformed_file_reports_the_parse_stage() {
    let dir = tempdir("malformed");
    std::fs::write(dir.join("bad.dag"), "JOB incomplete\n").unwrap();
    let out = prio(&["schedule", "bad.dag"], &dir);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("parse:"),
        "stage name missing from: {stderr}"
    );
}

#[test]
fn duplicate_and_unknown_jobs_are_reported_at_their_line() {
    let dir = tempdir("error-lines");
    let cases = [
        (
            "dup.dag",
            "JOB a a.sub\nJOB b b.sub\nJOB a c.sub\n",
            "dup.dag: parse: dagman: line 3: duplicate job \"a\"",
        ),
        (
            "unknown.dag",
            "JOB a a.sub\n# comment\n\nPARENT a CHILD ghost\n",
            "unknown.dag: parse: dagman: line 4: unknown job \"ghost\"",
        ),
    ];
    for (file, text, want) in cases {
        std::fs::write(dir.join(file), text).unwrap();
        // `run` parses through the pipeline, `schedule` through the
        // frontend import: both name the line.
        for command in ["run", "schedule"] {
            let out = prio(&[command, file], &dir);
            assert_eq!(out.status.code(), Some(1), "{command} {file}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(want), "{command} {file}: {stderr}");
        }
    }
}

#[test]
fn batch_prioritizes_a_directory() {
    let dir = tempdir("batch");
    std::fs::write(dir.join("one.dag"), FIG3).unwrap();
    std::fs::write(
        dir.join("two.dag"),
        "JOB x x.sub\nJOB y y.sub\nPARENT x CHILD y\n",
    )
    .unwrap();
    std::fs::write(dir.join("notes.txt"), "not a dag").unwrap();
    let out = prio(&["batch", "."], &dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let one = std::fs::read_to_string(dir.join("one.prio.dag")).unwrap();
    assert!(one.contains("VARS c jobpriority=\"5\""));
    let two = std::fs::read_to_string(dir.join("two.prio.dag")).unwrap();
    assert!(two.contains("jobpriority=\"2\""));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2 prioritized, 0 failed"), "{stderr}");
}

#[test]
fn batch_continues_past_bad_files_and_exits_nonzero() {
    let dir = tempdir("batchbad");
    std::fs::write(dir.join("good.dag"), FIG3).unwrap();
    std::fs::write(dir.join("bad.dag"), "JOB incomplete\n").unwrap();
    let out = prio(&["batch", "."], &dir);
    assert_eq!(out.status.code(), Some(1), "input failures exit 1");
    // The good file was still written.
    assert!(dir.join("good.prio.dag").exists());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 prioritized, 1 failed"), "{stderr}");
    assert!(stderr.contains("parse:"), "{stderr}");
    let line = stderr
        .lines()
        .find(|l| l.contains("parse:"))
        .expect("error line");
    assert_eq!(line.matches("bad.dag").count(), 1, "{line}");
}

/// Every file in `dir` whose name passes `keep`, with its bytes.
fn files(dir: &std::path::Path, keep: impl Fn(&str) -> bool) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_string();
            keep(&name).then(|| (name, std::fs::read(&p).unwrap()))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn batch_writes_what_run_writes_including_submit_files() {
    let inputs: [(&str, &[u8]); 6] = [
        ("iv.dag", FIG3.as_bytes()),
        ("a.submit", b"universe = vanilla\nqueue\n"),
        ("c.submit", b"universe = vanilla\npriority = 3\nqueue\n"),
        ("e.submit", b"universe = vanilla\nqueue\n"),
        (
            "wf.json",
            br#"{"format":"prio-workflow-v1","jobs":[{"name":"x"},{"name":"y"},{"name":"z"}],"arcs":[["x","y"],["x","z"]]}"#,
        ),
        ("wf.edges", b"p\tq\nr\tq\nr\ts\n"),
    ];
    let batch_dir = tempdir("batchvsrun-batch");
    let run_dir = tempdir("batchvsrun-run");
    for (name, bytes) in inputs {
        std::fs::write(batch_dir.join(name), bytes).unwrap();
        std::fs::write(run_dir.join(name), bytes).unwrap();
    }
    let out = prio(&["batch", "."], &batch_dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for input in ["iv.dag", "wf.json", "wf.edges"] {
        let out = prio(&["run", input], &run_dir);
        assert!(out.status.success(), "run {input} failed");
    }
    let outputs = |name: &str| name.contains(".prio.") || name.ends_with(".submit");
    let batch = files(&batch_dir, outputs);
    assert_eq!(batch.len(), 6, "three outputs, three submit files");
    assert_eq!(batch, files(&run_dir, outputs));
    let (_, c_submit) = batch.iter().find(|(n, _)| n == "c.submit").unwrap();
    assert!(String::from_utf8_lossy(c_submit).contains("priority = $(jobpriority)"));
}

#[test]
fn priority_mode_leaves_submit_files_unchanged() {
    let dir = tempdir("prioritymode");
    let submit = "universe = vanilla\nqueue\n";
    std::fs::write(dir.join("IV.dag"), FIG3).unwrap();
    std::fs::write(dir.join("c.submit"), submit).unwrap();
    let out = prio(&["run", "IV.dag", "--mode", "priority"], &dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let instrumented = std::fs::read_to_string(dir.join("IV.prio.dag")).unwrap();
    assert!(instrumented.contains("PRIORITY c 5"), "{instrumented}");
    assert_eq!(
        std::fs::read_to_string(dir.join("c.submit")).unwrap(),
        submit
    );
}

#[test]
fn batch_of_empty_directory_is_an_input_error() {
    let dir = tempdir("batchempty");
    let out = prio(&["batch", "."], &dir);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no workflow files"));
}

/// `prio run --threads T` is parsed and ignored: the pipeline is serial.
#[test]
fn run_accepts_and_ignores_threads() {
    let dir = tempdir("run-threads");
    std::fs::write(dir.join("IV.dag"), FIG3).unwrap();
    let plain = prio(&["run", "IV.dag", "--output", "s.dag"], &dir);
    assert!(plain.status.success());
    let threaded = prio(
        &["run", "IV.dag", "--output", "t.dag", "--threads", "2"],
        &dir,
    );
    assert!(threaded.status.success());
    let s = std::fs::read(dir.join("s.dag")).unwrap();
    let t = std::fs::read(dir.join("t.dag")).unwrap();
    assert_eq!(s, t, "--threads must not change the output");

    let bad = prio(
        &["run", "IV.dag", "--output", "x.dag", "--threads", "x"],
        &dir,
    );
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--threads"));
    assert!(!dir.join("x.dag").exists());
}

#[test]
fn help_exits_zero() {
    let dir = tempdir("help");
    let out = prio(&["help"], &dir);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn cyclic_dagman_file_is_rejected() {
    let dir = tempdir("cycle");
    std::fs::write(
        dir.join("cyc.dag"),
        "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\nPARENT b CHILD a\n",
    )
    .unwrap();
    let out = prio(&["schedule", "cyc.dag"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cycle"));
}

#[test]
fn convert_between_all_formats_preserves_the_schedule() {
    let dir = tempdir("convert");
    std::fs::write(dir.join("IV.dag"), FIG3).unwrap();
    let out = prio(&["convert", "IV.dag", "IV.json"], &dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = prio(&["convert", "IV.json", "IV.edges"], &dir);
    assert!(out.status.success());
    let reference = prio(&["schedule", "IV.dag"], &dir);
    for converted in ["IV.json", "IV.edges"] {
        let out = prio(&["schedule", converted], &dir);
        assert!(out.status.success(), "schedule {converted} failed");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&reference.stdout),
            "{converted}: schedule diverged from the DAGMan original"
        );
    }
}

#[test]
fn convert_to_stdout_requires_to_flag() {
    let dir = tempdir("convertstdout");
    std::fs::write(dir.join("IV.dag"), FIG3).unwrap();
    let out = prio(&["convert", "IV.dag", "-"], &dir);
    assert_eq!(out.status.code(), Some(2));
    let out = prio(&["convert", "IV.dag", "-", "--to", "edges"], &dir);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("a\tb"));
}

#[test]
fn run_alias_instruments_json_workflows() {
    let dir = tempdir("runjson");
    std::fs::write(dir.join("IV.dag"), FIG3).unwrap();
    let out = prio(&["convert", "IV.dag", "IV.json"], &dir);
    assert!(out.status.success());
    let out = prio(&["run", "IV.json"], &dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("IV.prio.json")).unwrap();
    // Same Condor convention as the DAGMan path: c first (priority 5).
    assert!(text.contains("\"name\": \"c\", \"priority\": 5"), "{text}");
    // The prioritized JSON file re-parses and schedules identically.
    let a = prio(&["schedule", "IV.prio.json"], &dir);
    let b = prio(&["schedule", "IV.dag"], &dir);
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout)
    );
}

#[test]
fn format_flag_overrides_extension_detection() {
    let dir = tempdir("formatflag");
    // An edge list hiding under a .txt extension.
    std::fs::write(dir.join("g.txt"), "a\tb\nb\tc\n").unwrap();
    let out = prio(&["schedule", "g.txt", "--format", "edges"], &dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 3);
    // An unknown --format value is a usage error.
    let out = prio(&["schedule", "g.txt", "--format", "nope"], &dir);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn batch_prioritizes_mixed_formats() {
    let dir = tempdir("batchmixed");
    std::fs::write(dir.join("one.dag"), FIG3).unwrap();
    std::fs::write(dir.join("two.edges"), "a\tb\na\tc\n").unwrap();
    let out = prio(&["batch", "."], &dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("one.prio.dag").exists());
    let edges = std::fs::read_to_string(dir.join("two.prio.edges")).unwrap();
    assert!(edges.contains("@priority\ta\t3"), "{edges}");
    // Re-running skips the .prio.* outputs (idempotent).
    let out = prio(&["batch", "."], &dir);
    assert!(out.status.success());
    assert!(!dir.join("one.prio.prio.dag").exists());
    assert!(!dir.join("two.prio.prio.edges").exists());
}

/// `prio report` and every `prio trace` reader share one ingest layer:
/// a malformed lifecycle record, an untagged (v1) record and a v2 record
/// are each an input error naming the file, the line and what is wrong.
#[test]
fn trace_readers_reject_malformed_and_old_schema_records() {
    let dir = tempdir("trace-hostile");
    let meta = r#"{"type":"meta","v":3,"command":"trace","detail":"policy=prio seed=1"}"#;
    let cases = [
        (
            "bad_time.jsonl",
            r#"{"type":"batch_arrived","v":3,"time":"soon"}"#,
            "missing time",
        ),
        (
            "no_job.jsonl",
            r#"{"type":"job_completed","v":3,"time":1}"#,
            "missing job",
        ),
        (
            "untagged.jsonl",
            r#"{"type":"job_completed","time":1,"job":0}"#,
            "schema v1",
        ),
        (
            "v2.jsonl",
            r#"{"type":"job_completed","v":2,"time":1,"job":0}"#,
            "schema v2",
        ),
    ];
    for (file, line, why) in cases {
        std::fs::write(dir.join(file), format!("{meta}\n{line}\n")).unwrap();
        for args in [vec!["report", file], vec!["trace", "timeline", file]] {
            let out = prio(&args, &dir);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("{file}: line 2: ")) && stderr.contains(why),
                "{args:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{args:?} printed a summary");
        }
    }
}

/// The `span` record of `path` in a `--trace-out` file, if any.
fn span_record<'a>(trace: &'a str, path: &str) -> Option<&'a str> {
    let key = format!("\"type\":\"span\",\"v\":3,\"path\":\"{path}\",");
    trace.lines().find(|l| l.contains(&key))
}

#[test]
fn dagman_run_records_apply_apart_from_write() {
    let dir = tempdir("apply-span");
    std::fs::write(dir.join("IV.dag"), FIG3).unwrap();
    std::fs::write(dir.join("c.submit"), "universe = vanilla\nqueue\n").unwrap();
    let out = prio(&["run", "IV.dag", "--trace-out", "t.jsonl"], &dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
    // Priorities into the file and its submit files are `apply`; only
    // the output text is `write`.
    assert!(span_record(&trace, "apply").is_some(), "{trace}");
    let write = span_record(&trace, "write").unwrap_or_else(|| panic!("{trace}"));
    assert!(write.contains("\"count\":1,"), "{write}");

    // A JSON workflow has nothing to apply.
    let json = prio(&["convert", "IV.dag", "IV.json", "--to", "json"], &dir);
    assert!(json.status.success());
    let out = prio(&["run", "IV.json", "--trace-out", "j.jsonl"], &dir);
    assert!(out.status.success());
    let trace = std::fs::read_to_string(dir.join("j.jsonl")).unwrap();
    assert!(span_record(&trace, "apply").is_none(), "{trace}");
    assert!(span_record(&trace, "write").is_some(), "{trace}");
}
