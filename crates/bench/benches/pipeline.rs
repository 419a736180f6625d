//! End-to-end pipeline throughput on a Montage-like dag (~1k jobs):
//! single-shot runs (fresh scratch every call) vs context reuse
//! ([`Prioritizer::prioritize_in`] with a persistent [`PrioContext`]) vs
//! the threaded Step 3.

use criterion::{criterion_group, criterion_main, Criterion};
use prio_core::prio::{PrioOptions, Prioritizer};
use prio_core::PrioContext;
use prio_workloads::montage::{montage, MontageParams};

fn pipeline_throughput(c: &mut Criterion) {
    let dag = montage(MontageParams::scaled(0.13));
    let mut group = c.benchmark_group(format!("pipeline_montage_{}", dag.num_nodes()));
    group.sample_size(20);

    let serial = Prioritizer::new();
    group.bench_function("single_shot", |b| {
        b.iter(|| serial.prioritize(&dag).unwrap())
    });

    let mut ctx = PrioContext::new();
    group.bench_function("context_reuse", |b| {
        b.iter(|| serial.prioritize_in(&dag, &mut ctx).unwrap())
    });

    let threaded = Prioritizer::with_options(PrioOptions {
        threads: 4,
        ..PrioOptions::default()
    });
    let mut tctx = PrioContext::new();
    group.bench_function("threaded_4", |b| {
        b.iter(|| threaded.prioritize_in(&dag, &mut tctx).unwrap())
    });

    group.finish();
}

criterion_group!(benches, pipeline_throughput);
criterion_main!(benches);
