//! Regenerates the committed results from the experiment registry.
//!
//! ```text
//! experiments list
//! experiments run <name | --tier fast|slow> --out DIR
//! experiments check --tier fast|slow
//! ```
//!
//! `run` writes each selected entry's outputs under `DIR` and nowhere
//! else. `check` regenerates a tier and compares every output with its
//! committed copy in the repository's `results/`; each one that differs
//! is written to `target/experiments-check/` and named on stderr, and the
//! exit status is 1.

use prio_bench::registry::{find, tier, Experiment, Tier, EXPERIMENTS};
use prio_obs::mem::CountingAllocator;
use std::path::Path;
use std::process::exit;
use std::time::Instant;

// `table_overhead`'s peak-memory column reads this allocator's counts.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn usage() -> ! {
    eprintln!(
        "usage: experiments list\n       \
         experiments run <name | --tier fast|slow> --out DIR\n       \
         experiments check --tier fast|slow"
    );
    exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let select = |t: &str| -> Vec<&'static Experiment> {
        match Tier::parse(t) {
            Some(t) => tier(t).collect(),
            None => usage(),
        }
    };
    match argv[..] {
        ["list"] => {
            for e in EXPERIMENTS {
                let outputs = e.outputs.join(" ");
                println!("{:<24} {:<4}  {outputs}", e.name, e.tier.name());
            }
        }
        ["run", "--tier", t, "--out", dir] => run(&select(t), Path::new(dir)),
        ["run", name, "--out", dir] => match find(name) {
            Some(e) => run(&[e], Path::new(dir)),
            None => {
                eprintln!("experiments: no entry named {name} (see `experiments list`)");
                exit(2)
            }
        },
        ["check", "--tier", t] => check(&select(t)),
        _ => usage(),
    }
}

/// Writes `text` to `dir/file`, creating `dir`; exits 1 on failure.
fn write(dir: &Path, file: &str, text: &str) {
    let path = dir.join(file);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("experiments: {}: {e}", path.display());
        exit(1);
    }
}

fn run(entries: &[&Experiment], dir: &Path) {
    for e in entries {
        let start = Instant::now();
        for (file, text) in e.regenerate() {
            write(dir, file, &text);
        }
        let secs = start.elapsed().as_secs_f64();
        eprintln!("experiments: ran {} ({secs:.2} s)", e.name);
    }
}

fn check(entries: &[&Experiment]) {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repository root");
    let diffs = repo.join("target/experiments-check");
    let _ = std::fs::remove_dir_all(&diffs);
    let mut differing = 0;
    for e in entries {
        let start = Instant::now();
        for (file, text) in e.check(&repo.join("results")) {
            write(&diffs, file, &text);
            eprintln!(
                "experiments: {}: results/{file} does not regenerate",
                e.name
            );
            differing += 1;
        }
        let secs = start.elapsed().as_secs_f64();
        eprintln!("experiments: checked {} ({secs:.2} s)", e.name);
    }
    if differing > 0 {
        eprintln!(
            "experiments: {differing} file(s) differ; regenerated copies are in {}",
            diffs.display()
        );
        exit(1);
    }
}
