//! Writing a DAGMan file back to text.
//!
//! Each line is rendered from its record's spans in the writer's
//! canonical spelling: uppercase keywords, single spaces between tokens,
//! `VARS` values re-escaped, numbers in decimal. Comments and statements
//! the tool does not interpret are copied verbatim. The statements
//! instrumentation inserted follow their node's `JOB`/`SUBDAG` line.
//! The text streams through one fixed [`ChunkWriter`], as every
//! frontend's export does.

use crate::file::{DagmanFile, Line};
use crate::instrument::JOBPRIORITY;
use crate::parse::vars_pairs;
use prio_ir::ChunkWriter;
use std::io;

/// Serializes the file, one statement per line, ending with a newline
/// for non-empty files, into `out` one chunk at a time.
pub fn write_dagman_to(file: &DagmanFile, out: &mut dyn io::Write) -> io::Result<()> {
    let _span = prio_obs::span(prio_obs::Stage::Write);
    let mut w = ChunkWriter::new(out);
    for line in &file.lines {
        render(file, line, &mut w);
    }
    w.finish()
}

/// [`write_dagman_to`] into one pre-sized `String`.
pub fn write_dagman(file: &DagmanFile) -> String {
    let inserted: usize = file
        .inserted
        .iter()
        .zip(&file.nodes)
        .map(|(ins, node)| {
            let statements = usize::from(ins.priority.is_some()) + usize::from(ins.vars.is_some());
            statements * (file.name(node.name).len() + 32)
        })
        .sum();
    let mut out = Vec::with_capacity(file.text.len() + inserted + 1);
    write_dagman_to(file, &mut out).expect("a Vec takes every write");
    String::from_utf8(out).expect("the file's text is UTF-8")
}

/// Appends `line` and the statements inserted after it.
fn render(file: &DagmanFile, line: &Line, w: &mut ChunkWriter) {
    match *line {
        Line::Blank => {}
        Line::Verbatim(span) => w.str(file.str(span)),
        Line::Job {
            name,
            submit,
            options,
        } => {
            w.strs(&["JOB ", file.name(name), " ", file.str(submit)]);
            for option in file.str(options).split_whitespace() {
                w.strs(&[" ", option]);
            }
        }
        Line::Subdag { name, dag_file } => {
            w.strs(&["SUBDAG EXTERNAL ", file.name(name), " ", file.str(dag_file)])
        }
        Line::Parent { start, split, end } => {
            w.str("PARENT");
            for (i, &name) in file.refs[start as usize..end as usize].iter().enumerate() {
                if i == (split - start) as usize {
                    w.str(" CHILD");
                }
                w.strs(&[" ", file.name(name)]);
            }
        }
        Line::Vars {
            name, pairs, set, ..
        } => {
            w.strs(&["VARS ", file.name(name)]);
            for (key, value) in vars_pairs(file.str(pairs)).map_while(Result::ok) {
                w.strs(&[" ", key, "=\""]);
                match set {
                    Some(p) if key == JOBPRIORITY => w.int(p.into()),
                    _ => push_escaped(w, value),
                }
                w.str("\"");
            }
        }
        Line::Priority { name, value } => {
            w.strs(&["PRIORITY ", file.name(name), " "]);
            w.int(value);
        }
    }
    w.str("\n");
    if let Line::Job { name, .. } | Line::Subdag { name, .. } = *line {
        let Some(ins) = file.inserted.get(file.node_of[name as usize] as usize) else {
            return;
        };
        if let Some(p) = ins.priority {
            w.strs(&["PRIORITY ", file.name(name), " "]);
            w.int(p.into());
            w.str("\n");
        }
        if let Some(p) = ins.vars {
            w.strs(&["VARS ", file.name(name), " jobpriority=\""]);
            w.int(p.into());
            w.str("\"\n");
        }
    }
}

/// Appends a `VARS` value as written, escaped the way the writer escapes
/// the unescaped value: `\"` and `\\` stay, and a backslash the parser
/// kept (`\q`) is doubled.
fn push_escaped(w: &mut ChunkWriter, raw: &str) {
    let mut rest = raw;
    while let Some(i) = rest.find('\\') {
        w.str(&rest[..i]);
        let kept = matches!(rest.as_bytes().get(i + 1), Some(b'"' | b'\\'));
        w.str(if kept { &rest[i..i + 2] } else { "\\\\" });
        rest = &rest[i + if kept { 2 } else { 1 }..];
    }
    w.str(rest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_dagman;

    const SAMPLE: &str = "\
# header comment
JOB a a.submit
JOB b b.submit DIR subdir
PARENT a CHILD b
VARS a jobpriority=\"2\"
RETRY b 3

# trailing comment
";

    #[test]
    fn roundtrip_preserves_text() {
        let f = parse_dagman(SAMPLE).unwrap();
        assert_eq!(write_dagman(&f), SAMPLE);
    }

    #[test]
    fn roundtrip_of_escaped_vars() {
        let text = "JOB a a.sub\nVARS a note=\"say \\\"hi\\\" and \\\\slash\"\n";
        let f = parse_dagman(text).unwrap();
        assert_eq!(write_dagman(&f), text);
        // And the parsed value is unescaped.
        assert_eq!(
            f.vars_value("a", "note").as_deref(),
            Some("say \"hi\" and \\slash")
        );
        // A kept escape gains a backslash, as re-escaping its value does.
        let f = parse_dagman("VARS a k=\"x\\qy\"k2=\"\\\\\"").unwrap();
        assert_eq!(write_dagman(&f), "VARS a k=\"x\\\\qy\" k2=\"\\\\\"\n");
    }

    #[test]
    fn empty_file() {
        let f = parse_dagman("").unwrap();
        assert_eq!(write_dagman(&f), "");
    }

    #[test]
    fn whitespace_and_line_ends_are_canonicalized() {
        let f =
            parse_dagman("job\ta  a.sub\r\nparent a  child\tb\r\n  # kept  as is\r\nJOB b b.sub")
                .unwrap();
        assert_eq!(
            write_dagman(&f),
            "JOB a a.sub\nPARENT a CHILD b\n  # kept  as is\nJOB b b.sub\n"
        );
    }

    #[test]
    fn a_parent_named_child_comes_first_and_round_trips() {
        // The parser reads a non-first `child` as the separator, so a
        // parent named `child` can only stand first; the writer keeps it
        // there, and the re-parse yields the same arcs.
        let text = "JOB child c.sub\nJOB a a.sub\nJOB x x.sub\nJOB y y.sub\n\
                    PARENT child a CHILD x y\n";
        let f = parse_dagman(text).unwrap();
        let out = write_dagman(&f);
        assert_eq!(out, text);
        assert_eq!(parse_dagman(&out).unwrap().to_dag(), f.to_dag());
        assert_eq!(f.to_dag().unwrap().num_arcs(), 4);
    }

    #[test]
    fn integers_render_in_decimal() {
        for v in [0, 7, -3, 1_000_000, i64::MAX, i64::MIN] {
            let text = format!("JOB a a.sub\nPRIORITY a {v}\n");
            assert_eq!(write_dagman(&parse_dagman(&text).unwrap()), text);
        }
    }

    #[test]
    fn streaming_writes_the_same_bytes() {
        let text: String = (0..20_000)
            .map(|i| format!("JOB j{i} j{i}.sub\nVARS j{i} note=\"a\\\\b\"\n"))
            .collect();
        let f = parse_dagman(&text).unwrap();
        let mut out = Vec::new();
        write_dagman_to(&f, &mut out).unwrap();
        assert!(out.len() > 2 * prio_ir::EXPORT_CHUNK);
        assert_eq!(out, write_dagman(&f).as_bytes());
        assert_eq!(out, text.as_bytes());
    }
}
