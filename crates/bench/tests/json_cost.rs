//! The cost of the `prio-workflow-v1` JSON frontend, as deterministic
//! allocation counts instead of wall time.
//!
//! The import streams the document into the workflow builder without a
//! tree, with names borrowed from the input, so the one allocation it
//! must make per job is the job's interned `Arc<str>` label; everything
//! else (builder arrays, the CSR build, the acyclicity check) is a
//! constant number of buffers. The export writes into one pre-sized
//! `String`. Counting every allocation in the process turns both promises
//! into exact, machine-independent numbers.
//!
//! One `#[test]` only: [`ALLOC_COUNT`] is process-wide, so a second test
//! running concurrently would pollute the counts.

use prio_bench::scaling::montage_tier;
use prio_ir::{Frontend, JsonFrontend, Priorities, Workflow};
use prio_obs::mem::{CountingAllocator, ALLOC_COUNT};
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations an import may make on top of one label per job.
const IMPORT_CONSTANT: u64 = 64;

/// Allocations an export may make in total.
const EXPORT_MAX: u64 = 8;

/// Allocations made while `f` runs, on any thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_COUNT.load(Ordering::SeqCst);
    let out = f();
    (ALLOC_COUNT.load(Ordering::SeqCst) - before, out)
}

#[test]
fn json_import_allocates_one_label_per_job_and_export_one_buffer() {
    for jobs in [2_000, 10_000] {
        let workflow = Workflow::synthetic(montage_tier(jobs));
        let n = workflow.num_jobs();
        let order: Vec<_> = workflow.node_ids().collect();
        let mut ranked = workflow.clone();
        ranked.set_priorities(Priorities::from_order(&order, n));

        // The input `prio run` reads, and the output it writes (which
        // `prio convert` reads back).
        for (label, expected) in [("plain", &workflow), ("prioritized", &ranked)] {
            let text = JsonFrontend.export(expected, expected.priorities());
            // Warm-up: fills the lazily built span and counter registries.
            JsonFrontend.import(&text).expect("exported JSON imports");
            let (allocs, back) = allocations(|| JsonFrontend.import(&text));
            assert!(back.expect("exported JSON imports").same_content(expected));
            eprintln!("{n} jobs, {label}: import made {allocs} allocations");
            assert!(
                allocs <= n as u64 + IMPORT_CONSTANT,
                "{n} jobs, {label}: import made {allocs} allocations, \
                 allowed one per job plus {IMPORT_CONSTANT}"
            );
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
}
