//! The Makeflow/JSON-style graph frontend (`prio-workflow-v1`).
//!
//! ```json
//! {
//!   "format": "prio-workflow-v1",
//!   "jobs": [
//!     {"name": "a", "priority": 5, "submit": "a.submit"},
//!     {"name": "b"}
//!   ],
//!   "arcs": [
//!     ["a", "b"]
//!   ]
//! }
//! ```
//!
//! A job entry is an object with a required `"name"`; an optional integer
//! `"priority"`; and any further *string-valued* keys, which become the
//! job's IR metadata (`"submit"`, `"subdag"`, …) so cross-format
//! conversion is lossless. A bare string is shorthand for `{"name": …}`.
//! Arcs are `[parent, child]` name pairs over declared jobs. The export
//! is canonical: jobs in index order (one per line), then arcs in index
//! order, with metadata keys sorted.

use crate::chunk::ChunkWriter;
use crate::error::{ImportError, PrioError};
use crate::frontend::Frontend;
use crate::workflow::{FormatId, Priorities, Workflow, WorkflowBuilder};
use prio_graph::NodeId;
use prio_obs::json::Reader;
use std::borrow::Cow;
use std::io;

/// The value of the `"format"` tag this frontend reads and writes.
pub const FORMAT_TAG: &str = "prio-workflow-v1";

/// The JSON graph frontend.
pub struct JsonFrontend;

fn err(message: impl Into<String>) -> PrioError {
    ImportError::whole_file(FormatId::Json, message).into()
}

/// `n` as an `i64`, if integral and in range.
fn as_i64(n: f64) -> Option<i64> {
    (n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&n)).then_some(n as i64)
}

/// A value as the importer needs it: strings and numbers are read,
/// anything else is skipped.
enum Scalar<'a> {
    Str(Cow<'a, str>),
    Num(f64),
    Other,
}

fn scalar<'a>(r: &mut Reader<'a>) -> Result<Scalar<'a>, String> {
    Ok(match r.peek() {
        Some(b'"') => Scalar::Str(r.string()?),
        Some(b'-' | b'0'..=b'9') => Scalar::Num(r.number()?),
        _ => {
            r.skip_value()?;
            Scalar::Other
        }
    })
}

/// Where a top-level member's value starts, its length in bytes, and
/// its item count if it is an array.
#[derive(Clone, Copy)]
struct Member {
    pos: usize,
    len: usize,
    items: usize,
}

/// What pass 1 records about the top-level object: the last value of
/// each member the import reads (later duplicates win, as in an object
/// parsed into a map).
#[derive(Default)]
struct Layout {
    format: Option<Member>,
    jobs: Option<Member>,
    arcs: Option<Member>,
}

/// Pass 1: validates the whole document, so syntax errors take
/// precedence over every semantic one. `None` if the top level is not an
/// object.
fn layout(text: &str) -> Result<Option<Layout>, String> {
    let mut r = Reader::new(text);
    r.skip_ws();
    if r.peek() != Some(b'{') {
        r.skip_value()?;
        r.finish()?;
        return Ok(None);
    }
    let mut layout = Layout::default();
    if r.begin_object()? {
        loop {
            let member = match &*r.key()? {
                "format" => Some(&mut layout.format),
                "jobs" => Some(&mut layout.jobs),
                "arcs" => Some(&mut layout.arcs),
                _ => None,
            };
            match member {
                Some(member) => {
                    let pos = r.pos();
                    let items = skip_counting_items(&mut r)?;
                    let len = r.pos() - pos;
                    *member = Some(Member { pos, len, items });
                }
                None => r.skip_value()?,
            }
            if !r.next_member()? {
                break;
            }
        }
    }
    r.finish()?;
    Ok(Some(layout))
}

/// Skips one value, returning its item count if it is an array (else 0).
fn skip_counting_items(r: &mut Reader) -> Result<usize, String> {
    if r.peek() != Some(b'[') {
        r.skip_value()?;
        return Ok(0);
    }
    let mut items = 0;
    if r.begin_array()? {
        loop {
            r.skip_value()?;
            items += 1;
            if !r.next_item()? {
                break;
            }
        }
    }
    Ok(items)
}

fn new_job(b: &mut WorkflowBuilder, i: usize, name: &str) -> Result<NodeId, String> {
    b.new_job(name)
        .ok_or_else(|| format!("jobs[{i}]: duplicate job {name:?}"))
}

/// Pass 2 over the (validated) `"jobs"` array. A job object's members
/// are handled in key order with the last duplicate winning, so errors
/// come out in the same order as from an object parsed into a map.
fn read_jobs<'a>(r: &mut Reader<'a>, b: &mut WorkflowBuilder) -> Result<(), String> {
    // One scratch buffer for every job object's members.
    let mut members: Vec<(Cow<'a, str>, Scalar<'a>)> = Vec::new();
    if !r.begin_array()? {
        return Ok(());
    }
    for i in 0.. {
        match r.peek() {
            Some(b'"') => {
                new_job(b, i, &r.string()?)?;
            }
            Some(b'{') => {
                members.clear();
                if r.begin_object()? {
                    loop {
                        let key = r.key()?;
                        members.push((key, scalar(r)?));
                        if !r.next_member()? {
                            break;
                        }
                    }
                }
                // Reversed, a stable sort puts each key's last value first.
                members.reverse();
                members.sort_by(|x, y| x.0.cmp(&y.0));
                members.dedup_by(|later, first| later.0 == first.0);
                let name = match members.iter().find(|(k, _)| k == "name") {
                    Some((_, Scalar::Str(name))) => name,
                    _ => return Err(format!("jobs[{i}]: missing string \"name\"")),
                };
                let u = new_job(b, i, name)?;
                for (key, value) in &members {
                    match (&**key, value) {
                        ("name", _) => {}
                        ("priority", value) => {
                            let p = match value {
                                Scalar::Num(n) => as_i64(*n),
                                _ => None,
                            };
                            let p = p.ok_or_else(|| {
                                format!("jobs[{i}]: \"priority\" must be an integer")
                            })?;
                            b.set_priority(u, p);
                        }
                        (key, Scalar::Str(v)) => b.set_meta(u, key, &**v),
                        (key, _) => {
                            return Err(format!("jobs[{i}]: metadata {key:?} must be a string"))
                        }
                    }
                }
            }
            _ => return Err(format!("jobs[{i}]: must be an object or a string")),
        }
        if !r.next_item()? {
            break;
        }
    }
    Ok(())
}

/// Pass 2 over the (validated) `"arcs"` array, after every job is known.
fn read_arcs(r: &mut Reader, b: &mut WorkflowBuilder) -> Result<(), String> {
    if !r.begin_array()? {
        return Ok(());
    }
    for i in 0.. {
        if r.peek() != Some(b'[') {
            return Err(format!("arcs[{i}]: must be a [parent, child] pair"));
        }
        let mut ends = [Scalar::Other, Scalar::Other];
        let mut len = 0;
        if r.begin_array()? {
            loop {
                let end = scalar(r)?;
                if let Some(slot) = ends.get_mut(len) {
                    *slot = end;
                }
                len += 1;
                if !r.next_item()? {
                    break;
                }
            }
        }
        if len != 2 {
            return Err(format!("arcs[{i}]: must have exactly two entries"));
        }
        let [Scalar::Str(p), Scalar::Str(c)] = &ends else {
            return Err(format!("arcs[{i}]: entries must be job names"));
        };
        let (Some(pu), Some(cu)) = (b.get(p), b.get(c)) else {
            let missing: &str = if b.get(p).is_none() { p } else { c };
            return Err(format!("arcs[{i}]: unknown job {missing:?}"));
        };
        b.arc(pu, cu).map_err(|e| format!("arcs[{i}]: {e}"))?;
        if !r.next_item()? {
            break;
        }
    }
    Ok(())
}

/// The export's length when no string needs escaping (escapes only add
/// to it), so [`Frontend::export`] writes into one allocation.
fn export_len(workflow: &Workflow, priorities: &Priorities) -> usize {
    // Header and footer lines, then `    [p, c],\n` around each arc's names.
    let mut len = 96 + 10 * workflow.num_arcs();
    for u in workflow.node_ids() {
        let name = workflow.job_name(u).len() + 2;
        // `    {"name": …},\n`, plus the name once per incident arc.
        len += 16 + name * (1 + workflow.out_degree(u) + workflow.in_degree(u));
        if priorities.get(u).is_some() {
            // `, "priority": ` and up to 20 characters of `i64`.
            len += 34;
        }
        for (k, v) in workflow.meta_of(u) {
            len += 8 + k.len() + v.len();
        }
    }
    len
}

impl Frontend for JsonFrontend {
    fn id(&self) -> FormatId {
        FormatId::Json
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["json"]
    }

    fn sniff(&self, text: &str) -> bool {
        let t = text.trim_start();
        t.starts_with('{') && t.contains("\"jobs\"")
    }

    /// Two passes over `text` and no document tree: pass 1 validates the
    /// document and records where the last `"format"`, `"jobs"` and
    /// `"arcs"` values start; pass 2 reads those values in place, feeding
    /// names borrowed from `text` to the builder.
    fn import(&self, text: &str) -> Result<Workflow, PrioError> {
        let _span = prio_obs::span(prio_obs::Stage::Parse);
        let layout = layout(text)
            .map_err(err)?
            .ok_or_else(|| err("top level must be an object"))?;
        if let Some(format) = layout.format {
            match scalar(&mut Reader::at(text, format.pos)).map_err(err)? {
                Scalar::Str(tag) if tag == FORMAT_TAG => {}
                Scalar::Str(other) => {
                    return Err(err(format!("unsupported format tag {:?}", &*other)))
                }
                _ => return Err(err("\"format\" must be a string")),
            }
        }
        let is_array = |m: &Member| text.as_bytes()[m.pos] == b'[';
        let jobs = layout.jobs.ok_or_else(|| err("missing \"jobs\""))?;
        if !is_array(&jobs) {
            return Err(err("\"jobs\" must be an array"));
        }
        if layout.arcs.is_some_and(|arcs| !is_array(&arcs)) {
            return Err(err("\"arcs\" must be an array"));
        }

        let arcs = layout.arcs.map_or(0, |arcs| arcs.items);
        let mut b = WorkflowBuilder::with_capacity(FormatId::Json, jobs.items, arcs);
        // The names are read from the jobs array, so it bounds their bytes.
        b.reserve_name_bytes(jobs.len);
        read_jobs(&mut Reader::at(text, jobs.pos), &mut b).map_err(err)?;
        if let Some(arcs) = layout.arcs {
            read_arcs(&mut Reader::at(text, arcs.pos), &mut b).map_err(err)?;
        }
        let wf = b.build()?;
        prio_obs::counter!("json.parse.files").add(1);
        prio_obs::counter!("json.parse.jobs").add(wf.num_jobs() as u64);
        prio_obs::counter!("json.parse.arcs").add(wf.num_arcs() as u64);
        Ok(wf)
    }

    fn export_to(
        &self,
        workflow: &Workflow,
        priorities: &Priorities,
        out: &mut dyn io::Write,
    ) -> io::Result<()> {
        let _span = prio_obs::span(prio_obs::Stage::Write);
        let name = |u| workflow.job_name(u);
        let mut w = ChunkWriter::new(out);
        w.str("{\n  \"format\": ");
        w.json_str(FORMAT_TAG);
        w.str(",\n  \"jobs\": [\n");
        let n = workflow.num_nodes();
        for u in workflow.node_ids() {
            w.str("    {\"name\": ");
            w.json_str(name(u));
            if let Some(p) = priorities.get(u) {
                w.str(", \"priority\": ");
                w.int(p);
            }
            for (k, v) in workflow.meta_of(u) {
                w.str(", ");
                w.json_str(k);
                w.str(": ");
                w.json_str(v);
            }
            w.str(if u.index() + 1 < n { "},\n" } else { "}\n" });
        }
        w.str("  ],\n  \"arcs\": [\n");
        let mut first = true;
        for u in workflow.node_ids() {
            for &c in workflow.children(u) {
                w.str(if first { "    [" } else { ",\n    [" });
                first = false;
                w.json_str(name(u));
                w.str(", ");
                w.json_str(name(c));
                w.str("]");
            }
        }
        w.str(if first { "  ]\n}\n" } else { "\n  ]\n}\n" });
        w.finish()
    }

    fn export_len(&self, workflow: &Workflow, priorities: &Priorities) -> usize {
        export_len(workflow, priorities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Workflow {
        let mut b = WorkflowBuilder::new(FormatId::Json);
        let a = b.job("a");
        let c = b.job("b c"); // whitespace in a name is fine in JSON
        let d = b.job("d\"q"); // and so is a quote
        b.arc(a, c).unwrap();
        b.arc(a, d).unwrap();
        b.set_priority(a, 3);
        b.set_meta(c, "submit", "bc.submit");
        b.build().unwrap()
    }

    #[test]
    fn export_import_round_trips_content() {
        let wf = sample();
        let f = JsonFrontend;
        let text = f.export(&wf, wf.priorities());
        let back = f.import(&text).unwrap();
        assert!(wf.same_content(&back), "round-trip changed the workflow");
        assert_eq!(back.source(), FormatId::Json);
        // Canonical: a second export is byte-identical.
        assert_eq!(f.export(&back, back.priorities()), text);
    }

    #[test]
    fn import_reads_shorthand_and_priorities() {
        let text = r#"{
            "format": "prio-workflow-v1",
            "jobs": ["a", {"name": "b", "priority": -2}],
            "arcs": [["a", "b"]]
        }"#;
        let wf = JsonFrontend.import(text).unwrap();
        assert_eq!(wf.num_jobs(), 2);
        assert_eq!(wf.num_arcs(), 1);
        assert_eq!(wf.priorities().get(NodeId(1)), Some(-2));
        assert_eq!(wf.priorities().get(NodeId(0)), None);
    }

    #[test]
    fn malformed_inputs_carry_json_provenance() {
        let cases = [
            "[]",
            "{\"jobs\": 3}",
            "{}",
            r#"{"format": "other", "jobs": []}"#,
            r#"{"jobs": [{"priority": 1}]}"#,
            r#"{"jobs": ["a", "a"]}"#,
            r#"{"jobs": ["a"], "arcs": [["a"]]}"#,
            r#"{"jobs": ["a"], "arcs": [["a", "ghost"]]}"#,
            r#"{"jobs": ["a"], "arcs": [["a", "a"]]}"#,
            r#"{"jobs": [{"name": "a", "priority": 1.5}]}"#,
            "{\"jobs\": [",
        ];
        for text in cases {
            let e = JsonFrontend.import(text).unwrap_err();
            assert!(
                e.to_string().starts_with("parse: json:"),
                "bad provenance for {text:?}: {e}"
            );
        }
        // A dependency cycle is a graph error, still at the parse stage.
        let e = JsonFrontend
            .import(r#"{"jobs": ["a", "b"], "arcs": [["a", "b"], ["b", "a"]]}"#)
            .unwrap_err();
        assert_eq!(e.stage(), crate::error::Stage::Parse);
    }

    #[test]
    fn sniff_accepts_workflow_json_only() {
        assert!(JsonFrontend.sniff(r#"{"jobs": []}"#));
        assert!(JsonFrontend.sniff("  {\n\"format\": \"x\", \"jobs\": []}"));
        assert!(!JsonFrontend.sniff("JOB a a.submit"));
        assert!(!JsonFrontend.sniff("a\tb"));
        assert!(!JsonFrontend.sniff(r#"{"spans": []}"#));
    }

    #[test]
    fn empty_workflow_exports_and_reimports() {
        let wf = WorkflowBuilder::new(FormatId::Json).build().unwrap();
        let f = JsonFrontend;
        let text = f.export(&wf, wf.priorities());
        let back = f.import(&text).unwrap();
        assert_eq!(back.num_jobs(), 0);
        assert_eq!(back.num_arcs(), 0);
    }
}
