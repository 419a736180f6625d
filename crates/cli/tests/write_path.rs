//! The write path of the commands that write workflow files. Each one
//! streams its output into the destination file as it is formatted, so
//! `prio run --in-place`, which truncates the file it read, must write
//! exactly what `--output` writes, and a destination that cannot be
//! created is an input error (exit 1) naming the path.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn prio(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prio"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn ok(out: &Output) {
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prio-write-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn in_place_writes_what_output_writes() {
    let dir = tempdir("in-place");
    // The paper's Montage: every output spans several export chunks.
    for format in ["dagman", "json", "edges"] {
        let input = format!("wf.{format}");
        ok(&prio(
            &[
                "generate", "montage", "--format", format, "--output", &input,
            ],
            &dir,
        ));
        let copy = format!("in-place.{format}");
        std::fs::copy(dir.join(&input), dir.join(&copy)).unwrap();
        let output = format!("out.{format}");
        ok(&prio(
            &["run", &input, "--format", format, "--output", &output],
            &dir,
        ));
        ok(&prio(
            &["run", &copy, "--format", format, "--in-place"],
            &dir,
        ));
        let written = std::fs::read(dir.join(&output)).unwrap();
        assert!(
            written.len() > 64 * 1024,
            "{format}: {} bytes",
            written.len()
        );
        assert!(
            written == std::fs::read(dir.join(&copy)).unwrap(),
            "{format}: --in-place wrote other bytes than --output"
        );
    }
}

/// `prio <args>` in `dir` must exit 1 and name `dest` with the error that
/// creating it gives.
fn fails_naming(dir: &Path, args: &[&str], dest: &str) {
    let cause = std::fs::File::create(dir.join(dest)).unwrap_err();
    let out = prio(args, dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("{dest}: {cause}")),
        "{args:?}: stderr {stderr:?} does not name {dest}: {cause}"
    );
}

#[test]
fn an_unwritable_output_is_an_input_error_naming_it() {
    let dir = tempdir("unwritable");
    let fig3 = "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n";
    std::fs::write(dir.join("fig3.dag"), fig3).unwrap();
    let dest = "missing/out.dag";
    fails_naming(&dir, &["run", "fig3.dag", "--output", dest], dest);
    fails_naming(&dir, &["convert", "fig3.dag", dest], dest);
    fails_naming(&dir, &["generate", "fig3", "--output", dest], dest);
    // A batch writes next to each input, so its destination is made
    // unwritable by a directory of the same name.
    std::fs::create_dir_all(dir.join("batch/fig3.prio.dag")).unwrap();
    std::fs::write(dir.join("batch/fig3.dag"), fig3).unwrap();
    fails_naming(&dir, &["batch", "batch"], "batch/fig3.prio.dag");
}
