//! Writing a DAGMan file back to text.
//!
//! Each line is rendered from its record's spans in the writer's
//! canonical spelling: uppercase keywords, single spaces between tokens,
//! `VARS` values re-escaped, numbers in decimal. Comments and statements
//! the tool does not interpret are copied verbatim. The statements
//! instrumentation inserted follow their node's `JOB`/`SUBDAG` line.

use crate::file::{DagmanFile, Line};
use crate::instrument::JOBPRIORITY;
use crate::parse::vars_pairs;

/// Serializes the file, one statement per line, into one pre-sized
/// `String` ending with a newline for non-empty files.
pub fn write_dagman(file: &DagmanFile) -> String {
    let _span = prio_obs::span(prio_obs::stage::WRITE);
    let inserted: usize = file
        .inserted
        .iter()
        .zip(&file.nodes)
        .map(|(ins, node)| {
            let statements = usize::from(ins.priority.is_some()) + usize::from(ins.vars.is_some());
            statements * (file.name(node.name).len() + 32)
        })
        .sum();
    let mut out = String::with_capacity(file.text.len() + inserted + 1);
    for line in &file.lines {
        render(file, line, &mut out);
    }
    out
}

/// Appends `line` and the statements inserted after it.
fn render(file: &DagmanFile, line: &Line, out: &mut String) {
    match *line {
        Line::Blank => {}
        Line::Verbatim(span) => out.push_str(file.str(span)),
        Line::Job {
            name,
            submit,
            options,
        } => {
            push_all(out, &["JOB ", file.name(name), " ", file.str(submit)]);
            for option in file.str(options).split_whitespace() {
                push_all(out, &[" ", option]);
            }
        }
        Line::Subdag { name, dag_file } => push_all(
            out,
            &["SUBDAG EXTERNAL ", file.name(name), " ", file.str(dag_file)],
        ),
        Line::Parent { start, split, end } => {
            out.push_str("PARENT");
            for (i, &name) in file.refs[start as usize..end as usize].iter().enumerate() {
                if i == (split - start) as usize {
                    out.push_str(" CHILD");
                }
                push_all(out, &[" ", file.name(name)]);
            }
        }
        Line::Vars {
            name, pairs, set, ..
        } => {
            push_all(out, &["VARS ", file.name(name)]);
            for (key, value) in vars_pairs(file.str(pairs)).map_while(Result::ok) {
                push_all(out, &[" ", key, "=\""]);
                match set {
                    Some(p) if key == JOBPRIORITY => push_int(out, p.into()),
                    _ => push_escaped(out, value),
                }
                out.push('"');
            }
        }
        Line::Priority { name, value } => {
            push_all(out, &["PRIORITY ", file.name(name), " "]);
            push_int(out, value);
        }
    }
    out.push('\n');
    if let Line::Job { name, .. } | Line::Subdag { name, .. } = *line {
        let Some(ins) = file.inserted.get(file.node_of[name as usize] as usize) else {
            return;
        };
        if let Some(p) = ins.priority {
            push_all(out, &["PRIORITY ", file.name(name), " "]);
            push_int(out, p.into());
            out.push('\n');
        }
        if let Some(p) = ins.vars {
            push_all(out, &["VARS ", file.name(name), " jobpriority=\""]);
            push_int(out, p.into());
            out.push_str("\"\n");
        }
    }
}

/// Appends every part in order.
pub(crate) fn push_all(out: &mut String, parts: &[&str]) {
    for part in parts {
        out.push_str(part);
    }
}

/// Appends `v` in decimal.
pub(crate) fn push_int(out: &mut String, v: i64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut n = v.unsigned_abs();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Appends a `VARS` value as written, escaped the way the writer escapes
/// the unescaped value: `\"` and `\\` stay, and a backslash the parser
/// kept (`\q`) is doubled.
fn push_escaped(out: &mut String, raw: &str) {
    let mut rest = raw;
    while let Some(i) = rest.find('\\') {
        out.push_str(&rest[..i]);
        let kept = matches!(rest.as_bytes().get(i + 1), Some(b'"' | b'\\'));
        out.push_str(if kept { &rest[i..i + 2] } else { "\\\\" });
        rest = &rest[i + if kept { 2 } else { 1 }..];
    }
    out.push_str(rest);
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
            let mut out = String::new();
            push_int(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }
}
