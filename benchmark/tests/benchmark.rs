//! The benchmark's own contract: its metric vocabulary matches
//! `BENCHMARK.json`, and the traced replay of every workload runs, at tiny
//! sizes and with no subprocess, through every layer with correct outputs.

use prio_benchmark::catalog::{self, Metric, END_TO_END, LAYERS, PER_LAYER, WORKLOADS};
use prio_benchmark::runner::DEFAULT_SECONDS;
use prio_benchmark::tracer::Tracer;
use prio_benchmark::workloads::cli_large::{self, CliLarge};
use prio_benchmark::workloads::cli_paper::{self, CliPaper};
use prio_benchmark::workloads::serve_mix::{self, ServeMix};
use prio_benchmark::workloads::sim_paper::{self, SimPaper};
use prio_benchmark::workloads::{Ctx, Recorder, Workload};
use prio_obs::json::{parse, JsonValue};
use std::collections::BTreeSet;
use std::time::Duration;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn listed(v: &JsonValue, key: &str) -> Vec<(String, String, String)> {
    let Some(JsonValue::Arr(items)) = v.get(key) else {
        panic!("BENCHMARK.json lacks {key}");
    };
    let field = |m: &JsonValue, k: &str| {
        m.get(k)
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string()
    };
    items
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
        .collect()
}

#[test]
fn emitted_metrics_and_workloads_are_exactly_those_listed() {
    let v = benchmark_json();
    assert_eq!(listed(&v, "end_to_end"), emitted(&END_TO_END));
    assert_eq!(listed(&v, "per_layer"), emitted(&PER_LAYER));
    let Some(JsonValue::Arr(workloads)) = v.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
    assert_eq!(
        v.get("run_seconds").and_then(JsonValue::as_u64),
        Some(DEFAULT_SECONDS)
    );
    assert_eq!(catalog::reported(false), &END_TO_END);
    assert_eq!(catalog::reported(true), &PER_LAYER);
}

fn ctx(name: &str) -> Ctx {
    let dir = prio_benchmark::work_root().join(format!("test-smoke-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    Ctx {
        prio: "prio".into(),
        dir,
        seed: 7,
        budget: Duration::from_secs(1),
    }
}

/// Replays one round and checks that it raised no problem and that every
/// layer ran with a non-negative self time.
fn replay(name: &str, w: &mut dyn Workload, ctx: &Ctx) -> Recorder {
    let mut tracer = Tracer::new();
    let mut rec = Recorder::default();
    w.replay(ctx, &mut tracer, &mut rec).unwrap();
    assert!(rec.problems.is_empty(), "{name}: {:?}", rec.problems);
    assert!(tracer.self_ns().iter().all(|&ns| ns >= 0), "{name}");
    let seen: BTreeSet<&str> = tracer.spans().iter().map(|s| s.name).collect();
    for layer in LAYERS {
        assert!(seen.contains(layer), "{name}: no {layer} span");
    }
    rec
}

#[test]
fn every_workload_replays_through_every_layer_at_tiny_sizes() {
    let c = ctx("cli-paper");
    let mut w = CliPaper::new(cli_paper::Params::tiny());
    w.setup(&c).unwrap();
    let rec = replay("cli-paper", &mut w, &c);
    assert_eq!(rec.samples["general_searches"].len(), 1);

    let c = ctx("cli-large");
    let mut w = CliLarge::new(cli_large::Params::tiny());
    w.setup(&c).unwrap();
    replay("cli-large", &mut w, &c);

    let c = ctx("sim-paper");
    let mut w = SimPaper::new(sim_paper::Params::tiny());
    w.setup(&c).unwrap();
    let rec = replay("sim-paper", &mut w, &c);
    assert_eq!(rec.samples["trace_dropped"], [0.0]);

    // serve-mix's set-up starts a daemon; the replay needs only the
    // generated pool and request sequence.
    let c = ctx("serve-mix");
    let mut w = ServeMix::new(serve_mix::Params::tiny());
    w.generate(c.seed);
    replay("serve-mix", &mut w, &c);
}
