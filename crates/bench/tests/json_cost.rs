//! The cost of the `prio-workflow-v1` JSON frontend, as deterministic
//! allocation counts instead of wall time.
//!
//! The import streams the document into the workflow builder without a
//! tree, with names borrowed from the input and copied once into the
//! dag's one name buffer, sized up front from the jobs array; the name
//! index, the builder arrays, the CSR build and the acyclicity check are
//! sized up front too, so the import makes the same constant number of
//! allocations at any job count. The export writes into one pre-sized
//! `String`. Counting every allocation in the process turns both promises
//! into exact, machine-independent numbers.
//!
//! Every exporter streams through one fixed chunk, so exporting into a
//! writer that keeps nothing (`io::sink()`) raises the heap's peak by
//! that chunk and a constant, the same at 2,008 and 9,998 jobs: the
//! JSON, edge-list and canonical DAGMan `export_to`, and the
//! instrumented DAGMan file's `write_dagman_to`.
//!
//! A `prio serve` memo hit rides in the same test: a request line resent
//! verbatim is keyed and answered from its escaped bytes, so the
//! allocations it costs are a small constant, whatever the workflow's
//! size.
//!
//! So does the DAGMan path of `prio run`, on the paper's Montage and a
//! quarter of SDSS written as the benchmark writes them: the parse fills
//! a fixed set of line and name tables over one copy of the text, and
//! extracting the dag fills its name buffer in one pass, so parsing plus
//! extracting the dag allocates a constant, the same at both sizes;
//! instrumenting and writing the file allocate a constant,
//! the same at both sizes; and the frontend's canonical export writes
//! one buffer, like the JSON one.
//!
//! The edge-list import is held to the JSON import's bound: it splits
//! each record into its fields in place, and sizes its tables from the
//! record count and the text's length.
//!
//! So are Steps 2–4 of the pipeline: with a reused `PrioContext`, the
//! decomposition, the per-component scheduling and the combine keep every
//! per-component list in flat arrays — working memory the context owns,
//! results allocated once per run at their final size — so once the
//! context has seen a dag, running those three stages on it again makes
//! the same small number of allocations at a quarter of SDSS (5,406
//! components) as at full size (21,610).
//!
//! One `#[test]` only: [`ALLOC_COUNT`] is process-wide, so a second test
//! running concurrently would pollute the counts.

use prio_bench::scaling::montage_tier;
use prio_core::{PrioContext, Prioritizer};
use prio_dagman::write::{write_dagman, write_dagman_to};
use prio_dagman::{
    instrument_dagman_with, parse_dagman, priorities_by_job, DagmanFile, DagmanFrontend,
    InstrumentMode,
};
use prio_graph::Dag;
use prio_ir::{EdgesFrontend, Frontend, JsonFrontend, Priorities, Workflow};
use prio_obs::mem::{peak_since, reset_peak, set_span_profiling, CountingAllocator, ALLOC_COUNT};
use prio_serve::{encode_request, serve_streams, ServeConfig};
use prio_workloads::{montage, sdss};
use std::io;
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations a JSON or edge-list import may make in total.
const IMPORT_MAX: u64 = 24;

/// Allocations an export may make in total.
const EXPORT_MAX: u64 = 8;

/// Bytes a streaming export into `io::sink()` may raise the heap's peak
/// by: its one 64 KiB chunk and a constant, whatever the workflow's size.
const EXPORT_PEAK_MAX: usize = 128 * 1024;

/// Allocations one `prio serve` memo hit may make: the request line, its
/// decoded id and format, and the response line.
const MEMO_HIT_MAX: u64 = 16;

/// Allocations parsing a DAGMan file and extracting its dag may make in
/// total.
const DAGMAN_PARSE_MAX: u64 = 24;

/// Allocations instrumenting and writing a DAGMan file may make in total.
const DAGMAN_INSTRUMENT_MAX: u64 = 8;

/// Allocations the decompose, schedule and combine spans of one warm
/// `prioritize_in` may make together, whatever the number of components.
const STEPS_2_TO_4_MAX: u64 = 48;

/// Verbatim resends per measured serve run (and twice as many in the
/// second).
const RESENDS: usize = 32;

/// Allocations made while `f` runs, on any thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_COUNT.load(Ordering::SeqCst);
    let out = f();
    (ALLOC_COUNT.load(Ordering::SeqCst) - before, out)
}

/// How far the heap's peak rises above the live bytes while `f` runs.
fn peak_rise(f: impl FnOnce()) -> usize {
    let base = reset_peak();
    f();
    peak_since(base)
}

/// The submit file the benchmark writes for a job: one per
/// transformation (the label without its trailing index).
fn transformation(label: &str) -> String {
    let t = label.trim_end_matches(|c: char| c.is_ascii_digit() || c == '_');
    format!("{t}.submit")
}

/// Allocations recorded so far under the top-level `decompose`,
/// `schedule` and `combine` spans.
fn steps_2_to_4_span_allocations() -> u64 {
    prio_obs::span::snapshot()
        .iter()
        .filter(|r| matches!(r.path.as_str(), "decompose" | "schedule" | "combine"))
        .filter_map(|r| r.mem.map(|m| m.alloc_count))
        .sum()
}

/// Allocations Steps 2–4 make when `dag` is prioritized a second time
/// with the same context.
fn warm_steps_2_to_4_allocations(dag: &Dag) -> u64 {
    let prioritizer = Prioritizer::new();
    let mut ctx = PrioContext::new();
    let warm = prioritizer.prioritize_in(dag, &mut ctx).unwrap();
    let before = steps_2_to_4_span_allocations();
    let again = prioritizer.prioritize_in(dag, &mut ctx).unwrap();
    let allocs = steps_2_to_4_span_allocations() - before;
    assert_eq!(again.schedule, warm.schedule);
    eprintln!(
        "{} jobs, {} components: warm decompose + schedule + combine made {allocs} allocations",
        dag.num_nodes(),
        again.stats.num_components
    );
    allocs
}

/// Allocations of one single-worker `prio serve` session over `input`,
/// with the number of memo hits it answered.
fn serve_allocations(input: &str) -> (u64, u64) {
    let config = ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    };
    let (allocs, stats) =
        allocations(|| serve_streams(input.as_bytes(), Box::new(std::io::sink()), config));
    assert_eq!(stats.errors, 0);
    (allocs, stats.cache.hits)
}

#[test]
fn imports_allocate_a_constant_and_export_one_buffer() {
    // Import allocations per (format, input) case, at each size in turn.
    let mut import_costs: Vec<(String, u64)> = Vec::new();
    for jobs in [2_000, 10_000] {
        let workflow = Workflow::synthetic(montage_tier(jobs));
        let n = workflow.num_jobs();
        let order: Vec<_> = workflow.node_ids().collect();
        let mut ranked = workflow.clone();
        ranked.set_priorities(Priorities::from_order(&order, n));

        // The input `prio run` reads, and the output it writes (which
        // `prio convert` reads back). The edge-list import splits each
        // record in place, so it is held to the same bound.
        let frontends: [(&str, &dyn Frontend); 2] =
            [("JSON", &JsonFrontend), ("edges", &EdgesFrontend)];
        for (format, frontend) in frontends {
            for (label, expected) in [("plain", &workflow), ("prioritized", &ranked)] {
                let text = frontend.export(expected, expected.priorities());
                // Warm-up: fills the lazily built span and counter registries.
                frontend.import(&text).expect("exported text imports");
                let (allocs, back) = allocations(|| frontend.import(&text));
                assert!(back.expect("exported text imports").same_content(expected));
                eprintln!("{n} jobs, {label}: {format} import made {allocs} allocations");
                assert!(
                    allocs <= IMPORT_MAX,
                    "{n} jobs, {label}: {format} import made {allocs} allocations, \
                     allowed {IMPORT_MAX}"
                );
                import_costs.push((format!("{label} {format}"), allocs));
            }
        }

        for (label, wf) in [("plain", &workflow), ("prioritized", &ranked)] {
            let (allocs, text) = allocations(|| JsonFrontend.export(wf, wf.priorities()));
            eprintln!("{n} jobs, {label}: export made {allocs} allocations");
            assert!(
                allocs <= EXPORT_MAX,
                "{n} jobs, {label}: export made {allocs} allocations ({} bytes), \
                 allowed {EXPORT_MAX}",
                text.len()
            );
        }
    }

    let (small, large) = import_costs.split_at(import_costs.len() / 2);
    for ((case, at_small), (_, at_large)) in small.iter().zip(large) {
        assert_eq!(
            at_small, at_large,
            "{case} import allocations grow with the job count"
        );
    }

    // Streaming exports into a sink, at 2,008 and 9,998 jobs: the peak's
    // rise per (format, size), every job with a priority.
    let mut export_peaks: Vec<(String, usize)> = Vec::new();
    for jobs in [2_000, 10_000] {
        let mut workflow = Workflow::synthetic(montage_tier(jobs));
        let n = workflow.num_jobs();
        let order: Vec<_> = workflow.node_ids().collect();
        workflow.set_priorities(Priorities::from_order(&order, n));
        let frontends: [(&str, &dyn Frontend); 3] = [
            ("JSON", &JsonFrontend),
            ("edges", &EdgesFrontend),
            ("DAGMan", &DagmanFrontend),
        ];
        for (format, frontend) in frontends {
            let export = || {
                frontend
                    .export_to(&workflow, workflow.priorities(), &mut io::sink())
                    .unwrap()
            };
            // Warm-up: the first write span registers its name.
            export();
            export_peaks.push((format!("{format} export_to"), peak_rise(export)));
        }
        let mut file = DagmanFile::from_dag_with(workflow.dag(), transformation);
        let priorities = priorities_by_job(order.iter().map(|&u| workflow.job_name(u)));
        instrument_dagman_with(&mut file, &priorities, InstrumentMode::VarsMacro).unwrap();
        let write = || write_dagman_to(&file, &mut io::sink()).unwrap();
        write();
        export_peaks.push(("write_dagman_to".to_string(), peak_rise(write)));
        for (case, rise) in &export_peaks[export_peaks.len() - 4..] {
            eprintln!("{n} jobs: {case} into a sink raised the peak by {rise} bytes");
        }
    }
    let (small, large) = export_peaks.split_at(export_peaks.len() / 2);
    for ((case, at_small), (_, at_large)) in small.iter().zip(large) {
        assert_eq!(
            at_small, at_large,
            "{case}: the peak grows with the job count"
        );
        assert!(
            *at_small <= EXPORT_PEAK_MAX,
            "{case} raised the peak by {at_small} bytes, allowed {EXPORT_PEAK_MAX}"
        );
    }

    // A memo hit's allocations, as the difference between a session of
    // one cold request plus RESENDS verbatim resends and one with twice
    // as many resends: every per-session cost cancels.
    let mut per_hit = Vec::new();
    for jobs in [100, 2_000] {
        let workflow = Workflow::synthetic(montage_tier(jobs));
        let text = JsonFrontend.export(&workflow, workflow.priorities());
        let line = encode_request("hit", &text, Some("json"), None) + "\n";
        let session = |resends: usize| line.repeat(1 + resends);
        serve_allocations(&session(RESENDS));
        let (short, hits) = serve_allocations(&session(RESENDS));
        assert_eq!(hits, RESENDS as u64, "every resend is a memo hit");
        let (long, _) = serve_allocations(&session(2 * RESENDS));
        let extra = long - short;
        eprintln!(
            "{} jobs ({} byte request): {RESENDS} extra memo hits made {extra} allocations",
            workflow.num_jobs(),
            line.len()
        );
        assert_eq!(
            extra % RESENDS as u64,
            0,
            "{extra} allocations over {RESENDS} hits"
        );
        per_hit.push(extra / RESENDS as u64);
    }
    eprintln!("serve memo hit: {per_hit:?} allocations per hit");
    assert_eq!(
        per_hit[0], per_hit[1],
        "memo-hit allocations grow with the workflow"
    );
    assert!(
        per_hit[0] <= MEMO_HIT_MAX,
        "a memo hit made {} allocations, allowed {MEMO_HIT_MAX}",
        per_hit[0]
    );

    // The DAGMan path: Montage (7,881 jobs) and a quarter of SDSS
    // (12,007), one submit file per transformation.
    let mut parse_costs = Vec::new();
    let mut instrument_costs = Vec::new();
    for dag in [
        montage::montage_paper(),
        sdss::sdss(sdss::SdssParams::scaled(0.25)),
    ] {
        let n = dag.num_nodes() as u64;
        let text = write_dagman(&DagmanFile::from_dag_with(&dag, transformation));
        parse_dagman(&text).unwrap().to_dag().unwrap();
        let (allocs, (mut file, parsed)) = allocations(|| {
            let file = parse_dagman(&text).unwrap();
            let dag = file.to_dag().unwrap();
            (file, dag)
        });
        assert_eq!(parsed, dag);
        eprintln!("DAGMan {n} jobs: parse + to_dag made {allocs} allocations");
        assert!(
            allocs <= DAGMAN_PARSE_MAX,
            "{n} jobs: parse + to_dag made {allocs} allocations, allowed {DAGMAN_PARSE_MAX}"
        );
        parse_costs.push(allocs);
        let priorities = priorities_by_job(dag.node_ids().map(|u| dag.label(u)));
        // Warm-up: the first write span registers its name.
        let mut warm = file.clone();
        instrument_dagman_with(&mut warm, &priorities, InstrumentMode::VarsMacro).unwrap();
        write_dagman(&warm);
        let (allocs, out) = allocations(|| {
            instrument_dagman_with(&mut file, &priorities, InstrumentMode::VarsMacro).unwrap();
            write_dagman(&file)
        });
        assert_eq!(out.matches(" jobpriority=").count() as u64, n);
        eprintln!("DAGMan {n} jobs: instrument + write made {allocs} allocations");
        instrument_costs.push(allocs);
        let workflow = DagmanFrontend.import(&text).unwrap();
        let (allocs, _) = allocations(|| DagmanFrontend.export(&workflow, workflow.priorities()));
        eprintln!("DAGMan {n} jobs: export made {allocs} allocations");
        assert!(
            allocs <= EXPORT_MAX,
            "{n} jobs: DAGMan export made {allocs} allocations, allowed {EXPORT_MAX}"
        );
    }
    assert_eq!(
        parse_costs[0], parse_costs[1],
        "parse + to_dag allocations grow with the file"
    );
    assert_eq!(
        instrument_costs[0], instrument_costs[1],
        "instrument + write allocations grow with the file"
    );
    assert!(
        instrument_costs[0] <= DAGMAN_INSTRUMENT_MAX,
        "instrument + write made {} allocations, allowed {DAGMAN_INSTRUMENT_MAX}",
        instrument_costs[0]
    );

    // Steps 2–4 on SDSS at a quarter and at full size, measured by the
    // stages' own spans.
    set_span_profiling(true);
    let steps: Vec<u64> = [0.25, 1.0]
        .into_iter()
        .map(|scale| warm_steps_2_to_4_allocations(&sdss::sdss(sdss::SdssParams::scaled(scale))))
        .collect();
    set_span_profiling(false);
    assert_eq!(
        steps[0], steps[1],
        "decompose + schedule + combine allocations grow with the component count"
    );
    assert!(
        steps[0] <= STEPS_2_TO_4_MAX,
        "decompose + schedule + combine made {} allocations, allowed {STEPS_2_TO_4_MAX}",
        steps[0]
    );
}
