//! Differential and mutation test of the streaming JSON frontend.
//!
//! The oracle is the frontend as it was before it streamed: an import that
//! parses the whole document into a [`JsonValue`] tree and walks it, and
//! an export that formats one line per job with `format!`. Both are kept
//! here verbatim. Valid `prio-workflow-v1` documents are generated with
//! the features the streaming import must handle like a tree (top-level
//! keys in any order and duplicated, duplicate job-object keys, escaped
//! and multi-byte names, priorities in every number spelling, non-string
//! metadata, ignored nested fields), then mutated by flipping and
//! truncating at every offset. On every input the two imports must agree:
//! `Ok` with the same content, or `Err` with the same message. On every
//! accepted workflow the two exports must be byte-identical.

use prio_ir::json::FORMAT_TAG;
use prio_ir::{FormatId, Frontend, ImportError, JsonFrontend, PrioError, Priorities};
use prio_ir::{Workflow, WorkflowBuilder};
use prio_obs::json::{escape, parse, JsonValue};
use proptest::prelude::*;
use std::fmt::Write as _;

fn err(message: impl Into<String>) -> PrioError {
    ImportError::whole_file(FormatId::Json, message).into()
}

/// The value as an `i64`, if numeric and integral.
fn as_i64(v: &JsonValue) -> Option<i64> {
    match v.as_f64() {
        Some(n) if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&n) => {
            Some(n as i64)
        }
        _ => None,
    }
}

/// The tree-walking import.
fn oracle_import(text: &str) -> Result<Workflow, PrioError> {
    let doc = parse(text).map_err(err)?;
    if !doc.is_object() {
        return Err(err("top level must be an object"));
    }
    if let Some(tag) = doc.get("format") {
        match tag.as_str() {
            Some(FORMAT_TAG) => {}
            Some(other) => return Err(err(format!("unsupported format tag {other:?}"))),
            None => return Err(err("\"format\" must be a string")),
        }
    }
    let JsonValue::Arr(jobs) = doc.get("jobs").ok_or_else(|| err("missing \"jobs\""))? else {
        return Err(err("\"jobs\" must be an array"));
    };
    let arcs = match doc.get("arcs") {
        None => &[][..],
        Some(JsonValue::Arr(arcs)) => arcs.as_slice(),
        Some(_) => return Err(err("\"arcs\" must be an array")),
    };

    let mut b = WorkflowBuilder::with_capacity(FormatId::Json, jobs.len(), arcs.len());
    for (i, entry) in jobs.iter().enumerate() {
        let (name, obj) = match entry {
            JsonValue::Str(name) => (name.as_str(), None),
            JsonValue::Obj(map) => {
                let name = map
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| err(format!("jobs[{i}]: missing string \"name\"")))?;
                (name, Some(map))
            }
            _ => return Err(err(format!("jobs[{i}]: must be an object or a string"))),
        };
        if b.get(name).is_some() {
            return Err(err(format!("jobs[{i}]: duplicate job {name:?}")));
        }
        let u = b.job(name);
        if let Some(map) = obj {
            for (key, value) in map {
                match key.as_str() {
                    "name" => {}
                    "priority" => {
                        let p = as_i64(value).ok_or_else(|| {
                            err(format!("jobs[{i}]: \"priority\" must be an integer"))
                        })?;
                        b.set_priority(u, p);
                    }
                    _ => {
                        let v = value.as_str().ok_or_else(|| {
                            err(format!("jobs[{i}]: metadata {key:?} must be a string"))
                        })?;
                        b.set_meta(u, key.clone(), v);
                    }
                }
            }
        }
    }
    for (i, entry) in arcs.iter().enumerate() {
        let JsonValue::Arr(pair) = entry else {
            return Err(err(format!("arcs[{i}]: must be a [parent, child] pair")));
        };
        let [p, c] = pair.as_slice() else {
            return Err(err(format!("arcs[{i}]: must have exactly two entries")));
        };
        let (Some(p), Some(c)) = (p.as_str(), c.as_str()) else {
            return Err(err(format!("arcs[{i}]: entries must be job names")));
        };
        let (Some(pu), Some(cu)) = (b.get(p), b.get(c)) else {
            let missing = if b.get(p).is_none() { p } else { c };
            return Err(err(format!("arcs[{i}]: unknown job {missing:?}")));
        };
        b.arc(pu, cu).map_err(|e| err(format!("arcs[{i}]: {e}")))?;
    }
    b.build()
}

/// The `format!`-per-line export.
fn oracle_export(workflow: &Workflow, priorities: &Priorities) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"format\": {},", escape(FORMAT_TAG));
    out.push_str("  \"jobs\": [\n");
    let n = workflow.num_nodes();
    for u in workflow.node_ids() {
        let mut line = format!("    {{\"name\": {}", escape(workflow.job_name(u)));
        if let Some(p) = priorities.get(u) {
            let _ = write!(line, ", \"priority\": {p}");
        }
        for (k, v) in workflow.meta_of(u) {
            let _ = write!(line, ", {}: {}", escape(k), escape(v));
        }
        line.push('}');
        if u.index() + 1 < n {
            line.push(',');
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("  ],\n");
    out.push_str("  \"arcs\": [\n");
    let mut first = true;
    for u in workflow.node_ids() {
        for &c in workflow.children(u) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "    [{}, {}]",
                escape(workflow.job_name(u)),
                escape(workflow.job_name(c))
            );
        }
    }
    if !first {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Checks both properties on one input. Returns whether it was accepted.
fn agree(text: &str) -> Result<bool, TestCaseError> {
    match (JsonFrontend.import(text), oracle_import(text)) {
        (Ok(new), Ok(old)) => {
            prop_assert!(new.same_content(&old), "content differs on {text:?}");
            prop_assert_eq!(new.source(), FormatId::Json);
            let none = Priorities::none(new.num_jobs());
            let ranked =
                Priorities::from_order(&new.node_ids().collect::<Vec<_>>(), new.num_jobs());
            for priorities in [new.priorities(), &none, &ranked] {
                prop_assert_eq!(
                    JsonFrontend.export(&new, priorities),
                    oracle_export(&new, priorities),
                    "export differs for {:?}",
                    text
                );
            }
            Ok(true)
        }
        (Err(new), Err(old)) => {
            prop_assert_eq!(new.to_string(), old.to_string(), "on {:?}", text);
            Ok(false)
        }
        (new, old) => Err(TestCaseError::fail(format!(
            "verdicts differ on {text:?}: streaming {:?}, oracle {:?}",
            new.map(|w| w.num_jobs()),
            old.map(|w| w.num_jobs())
        ))),
    }
}

/// A SplitMix64 stream: each proptest case draws one seed and the
/// document generator makes all its choices from it.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `percent`/100.
    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Optional whitespace between tokens.
    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", " ", "\n    ", "\t", " \r\n"])
    }
}

/// Job names: quotes, backslashes, control characters, raw multi-byte
/// UTF-8 and astral-plane scalars (which the generator may spell as
/// surrogate-pair escapes).
const NAMES: &[&str] = &[
    "a",
    "b",
    "job-17",
    "with \"quote\"",
    "back\\slash",
    "tab\tand\nnewline",
    "ctl\u{1}\u{1f}",
    "jöb-ñame",
    "日本語",
    "🧪x🚀",
    "",
    "sp ace",
    "sl/ash",
    "ghost",
];

/// Appends `s` as a JSON string, choosing among the equivalent spellings
/// of each character.
fn encode_str(g: &mut Gen, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\t' => Some("\\t"),
            '/' if g.chance(50) => Some("\\/"),
            _ => None,
        };
        let must = (c as u32) < 0x20 || c == '"' || c == '\\';
        if let Some(short) = short.filter(|_| g.chance(70)) {
            out.push_str(short);
        } else if must || g.chance(15) {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                if g.chance(50) {
                    let _ = write!(out, "\\u{unit:04x}");
                } else {
                    let _ = write!(out, "\\u{unit:04X}");
                }
            }
        } else {
            out.push(c);
        }
    }
    out.push('"');
}

/// A priority in one of many spellings, some of them not integers or out
/// of `i64` range.
fn encode_priority(g: &mut Gen, out: &mut String) {
    let p = g.pick(&[0i64, 1, 7, -2, 1000, 3_000_000, i64::MIN]);
    match g.below(20) {
        0 => out.push_str(g.pick(&["1e3", "-0", "0.0", "1.5", "-1.5e1", "2E+2", "1e400"])),
        1 => out.push_str(g.pick(&["9.3e18", "-9.3e18", "9223372036854775807", "1e-3"])),
        2 => {
            let _ = write!(out, "{p}.0");
        }
        3 => {
            let _ = write!(out, "{p}e0");
        }
        _ => {
            let _ = write!(out, "{p}");
        }
    }
}

/// Any JSON value, nested up to `depth`, for ignored or wrongly typed
/// fields.
fn encode_value(g: &mut Gen, depth: usize, out: &mut String) {
    match g.below(if depth == 0 { 4 } else { 6 }) {
        0 => out.push_str(g.pick(&["null", "true", "false"])),
        1 => encode_priority(g, out),
        2 | 3 => {
            let name = g.pick(NAMES);
            encode_str(g, name, out);
        }
        4 => {
            out.push('[');
            for i in 0..g.below(3) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(g.ws());
                encode_value(g, depth - 1, out);
            }
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..g.below(3) {
                if i > 0 {
                    out.push(',');
                }
                let key = g.pick(&["x", "name", "jobs", "k"]);
                encode_str(g, key, out);
                out.push(':');
                out.push_str(g.ws());
                encode_value(g, depth - 1, out);
            }
            out.push('}');
        }
    }
}

/// Appends `"key": value` members, comma-separated, in the given order.
fn encode_object(g: &mut Gen, members: &[(&str, String)], out: &mut String) {
    out.push('{');
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(g.ws());
        encode_str(g, key, out);
        out.push_str(g.ws());
        out.push(':');
        out.push_str(g.ws());
        out.push_str(value);
    }
    out.push_str(g.ws());
    out.push('}');
}

fn shuffle<T>(g: &mut Gen, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, g.below(i + 1));
    }
}

/// One job entry: a bare name or an object with a name, maybe a
/// priority, metadata and duplicate keys, in random member order.
fn encode_job(g: &mut Gen, name: &str, out: &mut String) {
    if g.chance(30) {
        encode_str(g, name, out);
        return;
    }
    let mut members: Vec<(&str, String)> = Vec::new();
    let mut value = String::new();
    encode_str(g, name, &mut value);
    members.push(("name", value));
    if g.chance(60) {
        let mut value = String::new();
        encode_priority(g, &mut value);
        members.push(("priority", value));
    }
    for _ in 0..g.below(3) {
        let key = g.pick(&["submit", "subdag", "dir", "zz", "Name"]);
        let mut value = String::new();
        if g.chance(96) {
            let v = g.pick(NAMES);
            encode_str(g, v, &mut value);
        } else {
            encode_value(g, 1, &mut value);
        }
        members.push((key, value));
    }
    if g.chance(15) {
        // A duplicate key; the last one in the document wins.
        let key = g.pick(&["name", "priority", "submit"]);
        let mut value = String::new();
        if key == "priority" {
            encode_priority(g, &mut value);
        } else {
            let v = g.pick(NAMES);
            encode_str(g, v, &mut value);
        }
        members.push((key, value));
    }
    shuffle(g, &mut members);
    encode_object(g, &members, out);
}

/// A `prio-workflow-v1` document, valid more often than not.
fn document(seed: u64) -> String {
    let g = &mut Gen(seed);
    let mut names = NAMES.to_vec();
    shuffle(g, &mut names);
    names.truncate(g.below(7));
    if g.chance(5) && !names.is_empty() {
        names.push(names[0]); // a duplicate job
    }

    let mut jobs = String::from("[");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            jobs.push(',');
        }
        jobs.push_str(g.ws());
        encode_job(g, name, &mut jobs);
    }
    jobs.push_str(g.ws());
    jobs.push(']');

    let mut arcs = String::from("[");
    let count = if names.len() < 2 { 0 } else { g.below(8) };
    for i in 0..count {
        if i > 0 {
            arcs.push(',');
        }
        arcs.push_str(g.ws());
        let p = g.below(names.len() - 1);
        let c = p + 1 + g.below(names.len() - p - 1);
        let mut ends = vec![names[p], names[c]];
        match g.below(60) {
            0 => ends.reverse(),    // maybe a cycle
            1 => ends[1] = ends[0], // a self-loop
            2 => ends[1] = "nobody",
            3 => ends.truncate(1),
            4 => ends.push(names[0]),
            _ => {}
        }
        arcs.push('[');
        for (k, end) in ends.iter().enumerate() {
            if k > 0 {
                arcs.push_str(", ");
            }
            if g.chance(1) {
                encode_value(g, 1, &mut arcs);
            } else {
                encode_str(g, end, &mut arcs);
            }
        }
        arcs.push(']');
    }
    arcs.push(']');

    let mut members: Vec<(&str, String)> = vec![("jobs", jobs)];
    if g.chance(85) {
        members.push(("arcs", arcs));
    }
    if g.chance(70) {
        let mut tag = String::new();
        match g.below(40) {
            0 => encode_str(g, "prio-workflow-v0", &mut tag),
            1 => encode_value(g, 1, &mut tag),
            _ => encode_str(g, FORMAT_TAG, &mut tag),
        }
        members.push(("format", tag));
    }
    for _ in 0..g.below(3) {
        let key = g.pick(&["meta", "comment", "version", "Jobs"]);
        let mut value = String::new();
        encode_value(g, 3, &mut value);
        members.push((key, value));
    }
    if g.chance(15) {
        // A duplicate top-level key, before or after the real one.
        let key = g.pick(&["jobs", "arcs", "format"]);
        let mut value = String::new();
        encode_value(g, 2, &mut value);
        members.push((key, value));
    }
    shuffle(g, &mut members);
    let mut out = String::from(g.ws());
    encode_object(g, &members, &mut out);
    out.push_str(g.ws());
    out
}

/// Replacements for one character: structural bytes, digits, escapes,
/// a control character and a multi-byte scalar.
const FLIPS: &[&str] = &[
    "\"", "\\", "{", "}", "[", "]", ",", ":", " ", "0", "-", "e", ".", "a", "n", "\u{1}", "é", "",
];

/// Documents that pin the orderings and spellings the generator reaches
/// only by chance.
const PINNED: &[&str] = &[
    r#"{"arcs": [["a", "b"]], "jobs": ["a", "b"]}"#,
    r#"{"jobs": 1, "jobs": ["a"]}"#,
    r#"{"jobs": ["a"], "jobs": 1}"#,
    r#"{"format": 1, "jobs": ["a"], "format": "prio-workflow-v1"}"#,
    r#"{"jobs": [{"name": "a", "name": "b", "priority": 1, "priority": 2}]}"#,
    r#"{"jobs": [{"zz": 1, "priority": 1.5, "name": "a"}]}"#,
    r#"{"jobs": [{"name": "🧪", "submit": "é\/"}], "arcs": []}"#,
    r#"{"jobs": [{"name": "a", "priority": -0}, {"name": "b", "priority": 1e3}]}"#,
    r#"{"jobs": [{"name": "a", "priority": 1e400}]}"#,
    r#"{"jobs": ["a", "b"], "arcs": [["a", "b", "c"]]}"#,
    r#"{"jobs": ["a", "b"], "arcs": [["a", 1, 2]]}"#,
    r#"{"jobs": ["a", "b"], "arcs": [["a", "b"], ["b", "a"]]}"#,
    r#"{"jobs": ["a"], "extra": {"deep": [1, {"x": [null, true]}]}}"#,
    r#"{"jobs": ["a"], "arcs": 3, "format": "other"}"#,
    "{\"jobs\": [\"a\"]} x",
    "",
    "[\"jobs\"]",
];

/// Guards the generator: if most documents were rejected, the export
/// property would go untested.
#[test]
fn most_generated_documents_are_accepted() {
    let accepted = (0..256)
        .filter(|&seed| JsonFrontend.import(&document(seed)).is_ok())
        .count();
    assert!(accepted >= 128, "only {accepted} of 256 documents accepted");
}

#[test]
fn pinned_documents_agree() {
    for text in PINNED {
        agree(text).unwrap_or_else(|e| panic!("{e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_import_and_export_match_the_tree_oracle(seed in any::<u64>()) {
        let text = document(seed);
        agree(&text)?;
        let mut g = Gen(seed ^ 0x5eed);
        for (at, c) in text.char_indices() {
            agree(&text[..at])?;
            let flip = g.pick(FLIPS);
            let mutated = format!("{}{flip}{}", &text[..at], &text[at + c.len_utf8()..]);
            agree(&mutated)?;
        }
    }
}
