//! Byte pins for `prio run` on DAGMan input: the instrumented file and
//! every submit file it edits, hashed (FNV-1a) for the four `cli-paper`
//! inputs (AIRSN, Inspiral and Montage at the paper's sizes, a quarter of
//! SDSS) in both instrumentation modes, and for one hand-written file
//! full of edge cases. Each input is built the way the benchmark builds
//! it: `DagmanFile::from_dag_with` with one submit file per
//! transformation, so its text is pinned too.

use prio_dagman::write::write_dagman;
use prio_dagman::DagmanFile;
use prio_graph::Dag;
use prio_workloads::{airsn, inspiral, montage, sdss};
use std::path::PathBuf;
use std::process::Command;

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prio-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The submit file a job uses in the benchmark: its label without the
/// trailing instance digits and underscores.
fn transformation(label: &str) -> &str {
    match label.trim_end_matches(|c: char| c.is_ascii_digit() || c == '_') {
        "" => "job",
        t => t,
    }
}

fn submit_text(t: &str) -> String {
    format!("universe = vanilla\nexecutable = {t}\noutput = {t}.out\nqueue\n")
}

/// Hashes of one `prio run`: the input text, the output file, and every
/// file of the directory but the input and output (the submit files),
/// in name order.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    input: u64,
    output: u64,
    submits: u64,
}

fn run(name: &str, text: &str, submits: &[(String, String)], extra: &[&str]) -> Pin {
    let dir = tempdir(name);
    std::fs::write(dir.join("in.dag"), text).unwrap();
    for (file, content) in submits {
        std::fs::write(dir.join(file), content).unwrap();
    }
    let out = Command::new(env!("CARGO_BIN_EXE_prio"))
        .args(["run", "in.dag", "--threads", "2", "--output", "out.dag"])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{name}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n != "in.dag" && n != "out.dag")
        .collect();
    names.sort();
    let mut all = Vec::new();
    for n in &names {
        all.extend_from_slice(n.as_bytes());
        all.push(0);
        all.extend_from_slice(&std::fs::read(dir.join(n)).unwrap());
    }
    let pin = Pin {
        input: fnv(text.as_bytes()),
        output: fnv(&std::fs::read(dir.join("out.dag")).unwrap()),
        submits: fnv(&all),
    };
    let _ = std::fs::remove_dir_all(&dir);
    pin
}

fn paper_input(dag: &Dag) -> (String, Vec<(String, String)>) {
    let file = DagmanFile::from_dag_with(dag, |label| format!("{}.submit", transformation(label)));
    let mut transformations: Vec<&str> = dag
        .node_ids()
        .map(|u| transformation(dag.label(u)))
        .collect();
    transformations.sort_unstable();
    transformations.dedup();
    let submits = transformations
        .into_iter()
        .map(|t| (format!("{t}.submit"), submit_text(t)))
        .collect();
    (write_dagman(&file), submits)
}

/// Lowercase keywords, tabs and runs of spaces, CRLF line ends, blank and
/// whitespace-only lines, comments, `RETRY`/`SCRIPT`, a `VARS` line with
/// `jobpriority` among escaped pairs, `PRIORITY` lines (one for an
/// undeclared job, one with a signed value), `SUBDAG EXTERNAL` with
/// trailing tokens, `JOB … DIR d DONE`, a `PARENT` line before the
/// `JOB` it names, a Unicode-whitespace separator, jobs named `child`
/// and `CHILD`, and no final newline.
const EDGE: &str = "# edge cases\r\n\
job\ta   a.sub\r\n\
JOB b    b.sub DIR   d    DONE\r\n\
\x20  # indented comment\r\n\
\r\n\
\x20  \t\n\
Job  x x.sub\n\
vars x note=\"say \\\"hi\\\"\" jobpriority=\"3\"   other=\"a\\qb\\\\c\"\n\
VARS ghost jobpriority=\"1\"\n\
RETRY a 3\n\
SCRIPT PRE b pre.sh   --flag\n\
SUBDAG external inner inner.dag DIR sub\n\
priority b 17\n\
PRIORITY ghost +05\n\
PARENT c CHILD late\n\
JOB child child.sub\n\
JOB CHILD upper.sub\n\
JOB c c.sub\n\
JOB u\u{a0}u.sub\n\
parent a Child b x\n\
PARENT child a child c inner\n\
PARENT   b\tx CHILD   child\r\n\
PARENT x child CHILD u\n\
JOB late late.sub";

fn edge_submits() -> Vec<(String, String)> {
    [
        ("a.sub", "executable = a\nqueue\n"),
        ("b.sub", "executable = b\nQueue 2\n"),
        ("x.sub", "executable = x\npriority = 4\nqueue\n"),
        ("c.sub", "executable = c\n"),
        ("child.sub", "executable = child\nqueue 1\n"),
        ("late.sub", "# no queue\r\nexecutable = late\r\n"),
    ]
    .iter()
    .map(|&(n, c)| (n.to_string(), c.to_string()))
    .collect()
}

#[test]
fn prio_run_output_and_submit_edits_are_pinned() {
    let paper = [
        ("airsn", airsn::airsn_paper()),
        ("inspiral", inspiral::inspiral_paper()),
        ("montage", montage::montage_paper()),
        ("sdss", sdss::sdss(sdss::SdssParams::scaled(0.25))),
    ];
    let mut got = Vec::new();
    for (name, dag) in paper {
        let (text, submits) = paper_input(&dag);
        for (mode, extra) in [("vars", &[][..]), ("priority", &["--mode", "priority"][..])] {
            got.push((
                format!("{name}-{mode}"),
                run(&format!("{name}-{mode}"), &text, &submits, extra),
            ));
        }
    }
    let submits = edge_submits();
    got.push(("edge-vars".into(), run("edge-vars", EDGE, &submits, &[])));
    got.push((
        "edge-priority".into(),
        run("edge-priority", EDGE, &submits, &["--mode", "priority"]),
    ));
    // Captured with the binary of the commit before the line-indexed
    // DAGMan file; any change here changes what `prio run` writes.
    let want = [
        (
            "airsn-vars",
            0xdf3dfd823df50f73,
            0x0d7c522d74e643bc,
            0xb780103b0a257289,
        ),
        (
            "airsn-priority",
            0xdf3dfd823df50f73,
            0xe4a8650ec4ebaee2,
            0x6ad344b3325b8079,
        ),
        (
            "inspiral-vars",
            0x9c8bab5359364dd4,
            0x43a162016e5c3e11,
            0xafbab27f76b8a61a,
        ),
        (
            "inspiral-priority",
            0x9c8bab5359364dd4,
            0xcb09c85d9a7c4ad7,
            0x9c512660cf8b08c5,
        ),
        (
            "montage-vars",
            0xcea06f8ab57306c8,
            0x5161123bbe07f332,
            0xa970a6eea6c5e946,
        ),
        (
            "montage-priority",
            0xcea06f8ab57306c8,
            0x1714f210acf07ffc,
            0x96e8b764ddf0761a,
        ),
        (
            "sdss-vars",
            0xf5ae3bc652adbc30,
            0x5652f1ff6223c7a8,
            0xc39d5ff0c1893460,
        ),
        (
            "sdss-priority",
            0xf5ae3bc652adbc30,
            0xa5daafe28d2b8090,
            0xca3b9d3fe65b134c,
        ),
        (
            "edge-vars",
            0x14b6a43e2d86c78d,
            0x8d956114b265db9b,
            0x567060c37d65c365,
        ),
        (
            "edge-priority",
            0x14b6a43e2d86c78d,
            0x9653c20fa562d6d2,
            0xc239a045ee8667fc,
        ),
    ];
    for ((name, pin), (want_name, input, output, submits)) in got.iter().zip(want) {
        assert_eq!(name, want_name);
        let want = Pin {
            input,
            output,
            submits,
        };
        assert_eq!(pin, &want, "{name}: {pin:#x?}");
    }
    assert_eq!(got.len(), want.len());
}
