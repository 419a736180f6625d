//! In-memory spans around the traced pass's calls into each layer.
//!
//! A span has a name, a start, an end, the span that encloses it, and the
//! operation it serves (the input file or request text), so all spans of
//! one operation share an id. Spans stay in memory until the run ends and
//! are then written out as JSONL. A layer's self time is its span's
//! duration minus the time its child spans cover.

use prio_obs::json::JsonObject;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One closed (or still open) span; times are nanoseconds since the
/// tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer (or `op` for an operation's root span).
    pub name: &'static str,
    /// The operation this span serves (index into the tracer's ops).
    pub op: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to the start while open).
    pub end_ns: u64,
}

/// A span recorder for one replay of a workload.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: Vec<String>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Registers an operation and returns its id.
    pub fn op(&mut self, label: impl Into<String>) -> usize {
        self.ops.push(label.into());
        self.ops.len() - 1
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: usize) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: usize) {
        assert_eq!(self.open.pop(), Some(span), "spans close innermost first");
        self.spans[span].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, op);
        let out = f();
        self.exit(span);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in ns: its duration minus its children's.
    /// Signed, so that a broken nesting would show as a negative value
    /// rather than saturate to zero.
    pub fn self_ns(&self) -> Vec<i128> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns) - i128::from(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= i128::from(s.end_ns) - i128::from(s.start_ns);
            }
        }
        own
    }

    /// Self time summed per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSONL record tagged with replay `rep`.
    pub fn write_jsonl(&self, out: &mut impl Write, rep: usize) -> io::Result<()> {
        for ((i, s), own) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let mut o = JsonObject::new()
                .u64("rep", rep as u64)
                .u64("span", i as u64)
                .str("name", s.name)
                .str("op", &self.ops[s.op]);
            if let Some(p) = s.parent {
                o = o.u64("parent", p as u64);
            }
            let line = o
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .f64("self_ns", own as f64)
                .finish();
            writeln!(out, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let op = t.op("a.dag");
        let root = t.enter("op", op);
        t.time("parse", op, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("write", op, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.exit(root);
        let own = t.self_ns();
        assert!(own.iter().all(|&ns| ns >= 0));
        let by_name = t.self_ms_by_name();
        assert!(by_name["parse"] >= 2.0);
        assert!(by_name["write"] >= 1.0);
        assert!(by_name["op"] < by_name["parse"], "{by_name:?}");
        let mut out = Vec::new();
        t.write_jsonl(&mut out, 0).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"op\":\"a.dag\""));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
