//! Backpressure: a full request queue sheds with an explicit
//! `overloaded` response — never a hang, never an unbounded buffer — and
//! the shed count is visible everywhere it must be: the response stream,
//! the `stats` verb, the process-wide `serve.queue.shed` counter, and
//! the Prometheus exposition.
//!
//! This suite lives in its own integration-test binary (its own process
//! under `cargo test`) because it asserts on deltas of process-global
//! `serve.*` counters, which the other serve suites also bump. Its own
//! tests shed into the same counters too, so they take [`SERIAL`] and run
//! one at a time.

use std::io::{Cursor, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dagprio::obs::json::{parse, JsonValue};
use dagprio::serve::{encode_control, encode_request, serve_streams, ServeConfig};

/// Held by every test in this file: each one sheds into the
/// process-global `serve.queue.shed` counter, and the exact-delta
/// assertion below only holds while no other test is shedding.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test poisons the lock; the counters stay meaningful.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn u64_field(v: &JsonValue, key: &str) -> u64 {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("missing u64 field {key:?} in {v:?}"))
}

#[test]
fn full_queue_sheds_and_the_shed_count_shows_everywhere() {
    let _serial = serial();
    let shed_before = dagprio::obs::counter!("serve.queue.shed").get();

    // Capacity 2 and a single deliberately slow worker: the reader
    // ingests the pipelined burst far faster than the worker drains it,
    // so most of the burst must be shed. The `stats` verb is answered
    // inline *after* the burst lines (line order on one connection), by
    // which point every shed has already been counted.
    const BURST: u64 = 10;
    let config = ServeConfig {
        threads: 1,
        queue_capacity: 2,
        worker_delay: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let mut lines: Vec<String> = (0..BURST)
        .map(|i| encode_request(&format!("r{i}"), "a\tb\nb\tc\n", Some("edges"), None))
        .collect();
    lines.push(encode_control("stats", "stats"));

    let buf = SharedBuf::default();
    let input = lines.join("\n") + "\n";
    let stats = serve_streams(Cursor::new(input), Box::new(buf.clone()), config);

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    let responses: Vec<JsonValue> = text.lines().map(|l| parse(l).unwrap()).collect();

    // Every request got exactly one response — nothing hung, nothing
    // was dropped; the excess was answered `overloaded`.
    assert_eq!(responses.len() as u64, BURST + 1, "{text}");
    let overloaded = responses
        .iter()
        .filter(|v| v.get("status").and_then(JsonValue::as_str) == Some("overloaded"))
        .count() as u64;
    let ok = responses
        .iter()
        .filter(|v| {
            v.get("status").and_then(JsonValue::as_str) == Some("ok") && v.get("output").is_some()
        })
        .count() as u64;
    assert_eq!(ok + overloaded, BURST, "every burst request resolved");
    // Worker holds one job; the queue holds two; the reader outruns the
    // 150ms-per-job worker by orders of magnitude, so at most a handful
    // of jobs were accepted and the rest shed.
    assert!(
        overloaded >= BURST - 4,
        "expected most of the burst shed, got {overloaded} of {BURST}"
    );

    // The shed surfaces in the server's own accounting...
    assert_eq!(stats.shed, overloaded, "final stats match the responses");
    assert_eq!(stats.ok, ok);
    // ...in the stats verb (answered inline after the whole burst)...
    let stats_verb = responses
        .iter()
        .find(|v| v.get("id").and_then(JsonValue::as_str) == Some("stats"))
        .expect("stats verb answered");
    assert_eq!(u64_field(stats_verb, "shed"), overloaded);
    assert_eq!(u64_field(stats_verb, "queue_capacity"), 2);
    // ...in the process-wide counter...
    let shed_after = dagprio::obs::counter!("serve.queue.shed").get();
    assert_eq!(shed_after - shed_before, overloaded);
    // ...and in the Prometheus exposition of that counter.
    let prom = dagprio::obs::prom::render_snapshot();
    let line = prom
        .lines()
        .find(|l| l.starts_with("prio_serve_queue_shed "))
        .expect("serve.queue.shed exposed to Prometheus");
    let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(value >= overloaded, "{line}");
}

/// Control verbs bypass the queue entirely: with the queue saturated by
/// a slow worker, `ping` and `stats` still answer immediately.
#[test]
fn control_verbs_answer_inline_while_the_queue_is_saturated() {
    let _serial = serial();
    let config = ServeConfig {
        threads: 1,
        queue_capacity: 2,
        worker_delay: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let lines = [
        encode_request("w1", "a\tb\n", Some("edges"), None),
        encode_request("w2", "a\tb\n", Some("edges"), None),
        encode_request("w3", "a\tb\n", Some("edges"), None),
        encode_control("p", "ping"),
        encode_control("s", "stats"),
    ];
    let buf = SharedBuf::default();
    let input = lines.join("\n") + "\n";
    let stats = serve_streams(Cursor::new(input), Box::new(buf.clone()), config);
    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    let responses: Vec<JsonValue> = text.lines().map(|l| parse(l).unwrap()).collect();
    assert_eq!(responses.len(), 5, "{text}");
    let pong = responses
        .iter()
        .find(|v| v.get("id").and_then(JsonValue::as_str) == Some("p"))
        .expect("ping answered");
    assert_eq!(pong.get("pong").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(stats.received, 5);
    assert_eq!(stats.ok + stats.shed, 3, "all work requests resolved");
}
