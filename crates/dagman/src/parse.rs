//! The one-pass parser for DAGMan input files.
//!
//! DAGMan keywords are case-insensitive; job names and file paths are
//! case-sensitive tokens, split at whitespace as
//! [`str::split_whitespace`] splits. `VARS` values are double-quoted
//! strings with backslash escapes for `"` and `\`. Each line becomes one
//! [`Line`] record of spans into the text, and each name gets its id from
//! the file's [`prio_graph::NameIndex`] as it is read, so a name is hashed
//! once per mention and never copied.

use crate::error::DagmanError;
use crate::file::{DagmanFile, Line, Span};
use crate::instrument::JOBPRIORITY;
use prio_obs::scan;

/// Parses the text of a DAGMan input file; the file keeps a copy.
pub fn parse_dagman(text: &str) -> Result<DagmanFile, DagmanError> {
    parse_text(text)
}

/// [`parse_dagman`] over text the file takes over instead of copying.
pub fn parse_dagman_owned(text: String) -> Result<DagmanFile, DagmanError> {
    parse_text(text)
}

fn parse_text<T: AsRef<str> + Into<String>>(owned: T) -> Result<DagmanFile, DagmanError> {
    let _span = prio_obs::span(prio_obs::Stage::Parse);
    let text = owned.as_ref();
    if text.len() >= u32::MAX as usize {
        return Err(malformed(0, "file exceeds 4 GiB"));
    }
    let mut p = Parser {
        text,
        file: DagmanFile::with_capacity(scan::count_lines(text)),
    };
    for (i, raw) in scan::lines(text).enumerate() {
        let line = p.line(raw, i)?;
        p.file.lines.push(line);
    }
    let mut file = p.file;
    file.text = owned.into();
    Ok(file)
}

/// [`parse_dagman`]; `threads` is ignored (the parse is serial).
pub fn parse_dagman_threads(text: &str, _threads: usize) -> Result<DagmanFile, DagmanError> {
    parse_dagman(text)
}

struct Parser<'t> {
    text: &'t str,
    file: DagmanFile,
}

impl Parser<'_> {
    /// The name id of `token`, a subslice of the text.
    fn name(&mut self, token: &str) -> u32 {
        self.file.intern(self.text, Span::of(self.text, token))
    }

    /// [`Parser::name`], declaring a node on line index `i`.
    fn declare(&mut self, token: &str, i: usize) -> u32 {
        self.file.declare(self.text, Span::of(self.text, token), i)
    }

    /// Classifies `raw`, the line at index `i`.
    fn line(&mut self, raw: &str, i: usize) -> Result<Line, DagmanError> {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Ok(Line::Blank);
        }
        let mut tokens = trimmed.split_whitespace();
        let keyword = tokens.next().expect("non-empty line has a first token");
        let kw = |k: &str| keyword.eq_ignore_ascii_case(k);
        if trimmed.starts_with('#') {
            Ok(Line::Verbatim(Span::of(self.text, raw)))
        } else if kw("JOB") {
            let name = need(tokens.next(), line, "JOB requires a name")?;
            let submit = need(
                tokens.next(),
                line,
                "JOB requires a submit description file",
            )?;
            let options = match tokens.next() {
                Some(first) => Span {
                    start: Span::of(self.text, first).start,
                    end: Span::of(self.text, trimmed).end,
                },
                None => Span::default(),
            };
            Ok(Line::Job {
                name: self.declare(name, i),
                submit: Span::of(self.text, submit),
                options,
            })
        } else if kw("PARENT") {
            let start = self.file.refs.len() as u32;
            let mut split = None;
            for t in tokens {
                // `CHILD` is the separator keyword only at the boundary:
                // after at least one parent and before the children begin.
                // A first token spelled "child" is a job name, and once in
                // the children every token is a name.
                if split.is_none()
                    && self.file.refs.len() as u32 > start
                    && t.eq_ignore_ascii_case("CHILD")
                {
                    split = Some(self.file.refs.len() as u32);
                } else {
                    let id = self.name(t);
                    self.file.refs.push(id);
                }
            }
            let end = self.file.refs.len() as u32;
            match split {
                Some(split) if split < end => Ok(Line::Parent { start, split, end }),
                _ => Err(malformed(line, "PARENT … CHILD … requires both lists")),
            }
        } else if kw("VARS") {
            let job = need(tokens.next(), line, "VARS requires a job name")?;
            let pairs = Span {
                start: Span::of(self.text, job).end,
                end: Span::of(self.text, trimmed).end,
            };
            let (mut any, mut jobpriority) = (false, false);
            for pair in vars_pairs(pairs.get(self.text)) {
                let (key, _) = pair.map_err(|m| malformed(line, m))?;
                any = true;
                jobpriority |= key == JOBPRIORITY;
            }
            if !any {
                return Err(malformed(line, "VARS requires at least one key=\"value\""));
            }
            Ok(Line::Vars {
                name: self.name(job),
                pairs,
                jobpriority,
                set: None,
            })
        } else if kw("SUBDAG") {
            let external = need(tokens.next(), line, "SUBDAG requires the EXTERNAL keyword")?;
            if !external.eq_ignore_ascii_case("EXTERNAL") {
                return Err(malformed(line, "only SUBDAG EXTERNAL is supported"));
            }
            let name = need(tokens.next(), line, "SUBDAG EXTERNAL requires a name")?;
            let dag_file = need(tokens.next(), line, "SUBDAG EXTERNAL requires a dag file")?;
            Ok(Line::Subdag {
                name: self.declare(name, i),
                dag_file: Span::of(self.text, dag_file),
            })
        } else if kw("PRIORITY") {
            let job = need(tokens.next(), line, "PRIORITY requires a job name")?;
            let value = need(tokens.next(), line, "PRIORITY requires a value")?
                .parse()
                .map_err(|_| malformed(line, "PRIORITY value must be an integer"))?;
            Ok(Line::Priority {
                name: self.name(job),
                value,
            })
        } else {
            Ok(Line::Verbatim(Span::of(self.text, raw)))
        }
    }
}

/// The `key="value"` pairs of a `VARS` line after its job name, with the
/// values as written (escapes intact). The first error ends the
/// iteration.
pub(crate) fn vars_pairs(s: &str) -> impl Iterator<Item = Result<(&str, &str), &'static str>> {
    let mut rest = s;
    std::iter::from_fn(move || {
        let s = rest.trim_start();
        rest = "";
        (!s.is_empty()).then(|| {
            let (key, value) = s.split_once('=').ok_or("VARS entry missing '='")?;
            let key = key.trim();
            if key.is_empty() {
                return Err("VARS entry with empty key");
            }
            let body = value
                .strip_prefix('"')
                .ok_or("VARS value must be double-quoted")?;
            let bytes = body.as_bytes();
            let mut i = 0;
            loop {
                match bytes.get(i) {
                    None => return Err("unterminated VARS value"),
                    Some(b'"') => break,
                    Some(b'\\') if i + 1 == bytes.len() => {
                        return Err("dangling escape in VARS value")
                    }
                    Some(b'\\') => i += 2,
                    Some(_) => i += 1,
                }
            }
            rest = &body[i + 1..];
            Ok((key, &body[..i]))
        })
    })
}

/// A `VARS` value as written, unescaped: `\"` and `\\` lose their
/// backslash, any other escape keeps it.
pub(crate) fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some(e @ ('"' | '\\')) => out.push(e),
            other => {
                out.push('\\');
                out.extend(other);
            }
        }
    }
    out
}

/// `token`, or the error that `what` is missing.
fn need<'a>(token: Option<&'a str>, line: usize, what: &str) -> Result<&'a str, DagmanError> {
    token.ok_or_else(|| malformed(line, what))
}

pub(crate) fn malformed(line: usize, message: &str) -> DagmanError {
    DagmanError::Malformed {
        line,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::write_dagman;

    const FIG3: &str = "\
# IV.dag
JOB a a.submit
JOB b b.submit
JOB c c.submit
JOB d d.submit
JOB e e.submit
PARENT a CHILD b
PARENT c CHILD d e
";

    #[test]
    fn parses_fig3() {
        let f = parse_dagman(FIG3).unwrap();
        assert_eq!(f.job_names(), vec!["a", "b", "c", "d", "e"]);
        let dag = f.to_dag().unwrap();
        assert_eq!(dag.num_arcs(), 3);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let f = parse_dagman("job x x.sub\nparent x child x2\nJob x2 y.sub").unwrap();
        assert_eq!(f.job_names(), vec!["x", "x2"]);
        assert!(matches!(&f.lines[1], Line::Parent { .. }));
        assert_eq!(
            write_dagman(&f),
            "JOB x x.sub\nPARENT x CHILD x2\nJOB x2 y.sub\n"
        );
    }

    #[test]
    fn job_options_preserved() {
        let f = parse_dagman("JOB a a.sub DIR\tsubdir   DONE").unwrap();
        match f.lines[0] {
            Line::Job { options, .. } => assert_eq!(f.str(options), "DIR\tsubdir   DONE"),
            ref other => panic!("unexpected {other:?}"),
        }
        assert_eq!(write_dagman(&f), "JOB a a.sub DIR subdir DONE\n");
    }

    #[test]
    fn vars_with_quotes_and_escapes() {
        let f =
            parse_dagman("JOB a a.sub\nVARS a jobpriority=\"5\" note=\"say \\\"hi\\\"\"").unwrap();
        assert_eq!(f.vars_value("a", "jobpriority").as_deref(), Some("5"));
        assert_eq!(f.vars_value("a", "note").as_deref(), Some("say \"hi\""));
        assert!(matches!(
            f.lines[1],
            Line::Vars {
                jobpriority: true,
                ..
            }
        ));
    }

    #[test]
    fn vars_pairs_match_the_escape_rules() {
        let pairs: Vec<_> = vars_pairs(" a=\"1\"b =\"x\\\\y\"  c d=\"\\q\\\"\"").collect();
        assert_eq!(
            pairs,
            [Ok(("a", "1")), Ok(("b", "x\\\\y")), Ok(("c d", "\\q\\\""))]
        );
        assert_eq!(unescape("x\\\\y"), "x\\y");
        assert_eq!(unescape("\\q\\\""), "\\q\"");
        for (bad, message) in [
            ("k", "VARS entry missing '='"),
            ("=\"v\"", "VARS entry with empty key"),
            ("k=v", "VARS value must be double-quoted"),
            ("k=\"v", "unterminated VARS value"),
            ("k=\"v\\", "dangling escape in VARS value"),
        ] {
            assert_eq!(vars_pairs(bad).last(), Some(Err(message)), "{bad:?}");
        }
    }

    #[test]
    fn unknown_keywords_pass_through() {
        let text = "RETRY a 3\nCONFIG  dagman.config\n  SCRIPT PRE a setup.sh\n";
        let f = parse_dagman(text).unwrap();
        assert!(f.lines.iter().all(|l| matches!(l, Line::Verbatim(_))));
        assert_eq!(write_dagman(&f), text);
    }

    #[test]
    fn subdag_external_parses_and_counts_as_node() {
        let f =
            parse_dagman("JOB a a.sub\nSUBDAG EXTERNAL inner inner.dag\nPARENT a CHILD inner\n")
                .unwrap();
        assert_eq!(f.job_names(), vec!["a", "inner"]);
        let dag = f.to_dag().unwrap();
        assert_eq!(dag.num_nodes(), 2);
        assert_eq!(dag.num_arcs(), 1);
        // Malformed variants.
        assert!(parse_dagman("SUBDAG inner inner.dag").is_err());
        assert!(parse_dagman("SUBDAG EXTERNAL inner").is_err());
    }

    #[test]
    fn priority_statement_parses() {
        let f = parse_dagman("JOB a a.sub\nPRIORITY a +42\n").unwrap();
        assert!(matches!(f.lines[1], Line::Priority { value: 42, .. }));
        assert_eq!(write_dagman(&f), "JOB a a.sub\nPRIORITY a 42\n");
        assert!(parse_dagman("PRIORITY a notanumber").is_err());
        assert!(parse_dagman("PRIORITY a").is_err());
    }

    #[test]
    fn malformed_statements_error_with_line() {
        let e = parse_dagman("JOB onlyname").unwrap_err();
        assert!(matches!(e, DagmanError::Malformed { line: 1, .. }));
        let e = parse_dagman("\n\nPARENT a CHILD").unwrap_err();
        assert!(matches!(e, DagmanError::Malformed { line: 3, .. }));
        let e = parse_dagman("VARS a nokey").unwrap_err();
        assert!(matches!(e, DagmanError::Malformed { .. }));
        let e = parse_dagman("VARS a k=\"unterminated").unwrap_err();
        assert!(matches!(e, DagmanError::Malformed { .. }));
        let e = parse_dagman("VARS a").unwrap_err();
        assert!(matches!(e, DagmanError::Malformed { line: 1, .. }));
    }

    #[test]
    fn blank_and_comment_lines_kept() {
        let f = parse_dagman("# top\n \t\nJOB a a.sub\n").unwrap();
        assert!(matches!(f.lines[0], Line::Verbatim(_)));
        assert!(matches!(f.lines[1], Line::Blank));
        assert_eq!(write_dagman(&f), "# top\n\nJOB a a.sub\n");
    }

    #[test]
    fn names_get_one_id_each_and_forward_references_resolve() {
        let f =
            parse_dagman("PARENT a CHILD b\nJOB b b.sub\nVARS a k=\"v\"\nJOB a a.sub\n").unwrap();
        assert_eq!(f.names.len(), 2, "a and b, each once");
        assert_eq!(
            f.job_names(),
            ["b", "a"],
            "node ids follow declaration order"
        );
        let dag = f.to_dag().unwrap();
        assert_eq!(dag.children(prio_graph::NodeId(1)), [prio_graph::NodeId(0)]);
    }

    #[test]
    fn the_name_index_grows_past_its_first_size() {
        let text: String = (0..5_000).map(|i| format!("JOB j{i} s.sub\n")).collect();
        let f = parse_dagman(&text).unwrap();
        assert_eq!(f.num_nodes(), 5_000);
        for i in (0..5_000).step_by(97) {
            assert_eq!(f.node(&format!("j{i}")), Some(prio_graph::NodeId(i)));
        }
        assert_eq!(f.node("j5000"), None);
    }
}
