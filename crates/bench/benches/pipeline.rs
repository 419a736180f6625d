//! End-to-end pipeline throughput on a Montage-like dag (~1k jobs):
//! single-shot runs (fresh scratch every call) vs context reuse
//! ([`Prioritizer::prioritize_in`] with a persistent [`PrioContext`]).

use criterion::{criterion_group, criterion_main, Criterion};
use prio_core::prio::Prioritizer;
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
    group.finish();
}

criterion_group!(benches, pipeline_throughput);
criterion_main!(benches);
