//! Line-based parser for DAGMan input files.
//!
//! DAGMan keywords are case-insensitive; job names and file paths are
//! case-sensitive tokens. `VARS` values are double-quoted strings with
//! backslash escapes for `"` and `\`.

use crate::ast::{DagmanFile, Statement};
use crate::error::DagmanError;
use crate::scan;
// Shared with every other frontend: each distinct name token is allocated
// once and every later occurrence clones the shared `JobName`. On large
// .dag files nearly every name token is a repeat (its `JOB` line plus one
// or more `PARENT … CHILD` mentions), so this removes the majority of
// parse-time allocations.
use prio_ir::NameInterner;

/// Inputs below this size are parsed serially even when threads are
/// requested: chunking and thread spawn cost more than the parse itself.
const MIN_PARALLEL_PARSE_BYTES: usize = 1 << 16;

/// Parses the text of a DAGMan input file.
pub fn parse_dagman(text: &str) -> Result<DagmanFile, DagmanError> {
    let _span = prio_obs::span(prio_obs::stage::PARSE);
    prio_obs::counter("dagman.parse.serial_parses").add(1);
    // One O(bytes) SWAR scan to pre-size the statement vector beats
    // letting a multi-megabyte Vec regrow-and-copy its way up.
    let mut statements = Vec::with_capacity(scan::count_lines(text));
    let mut names = NameInterner::default();
    for (i, raw) in scan::lines(text).enumerate() {
        let line = i + 1;
        statements.push(parse_line(raw, line, &mut names)?);
    }
    Ok(DagmanFile { statements })
}

/// [`parse_dagman`] with the input sharded across up to `threads` scoped
/// worker threads (`0`/`1` = the serial path).
///
/// The input is split at statement (line) boundaries into near-even byte
/// chunks, each parsed independently with the starting line number the
/// serial parser would have reached; statement lists are then concatenated
/// in chunk order. Errors stop each worker at its first bad line, and the
/// error of the lowest chunk — i.e. the lowest line number, exactly the
/// serial parser's error — wins. Results are bit-identical to
/// [`parse_dagman`] for every thread count.
pub fn parse_dagman_threads(text: &str, threads: usize) -> Result<DagmanFile, DagmanError> {
    if threads <= 1 || text.len() < MIN_PARALLEL_PARSE_BYTES {
        return parse_dagman(text);
    }
    let _span = prio_obs::span(prio_obs::stage::PARSE);
    let chunks = scan::chunk_at_lines(text, threads);
    prio_obs::counter("dagman.parse.parallel_chunks").add(chunks.len() as u64);
    let mut results: Vec<Option<Result<Vec<Statement>, DagmanError>>> =
        (0..chunks.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut rest = results.as_mut_slice();
        for (range, start_line) in &chunks {
            let (slot, tail) = rest.split_first_mut().expect("one slot per chunk");
            rest = tail;
            let chunk = &text[range.clone()];
            let start_line = *start_line;
            scope.spawn(move || {
                let mut names = NameInterner::default();
                let mut statements = Vec::with_capacity(scan::count_lines(chunk));
                let mut out = Ok(());
                for (i, raw) in scan::lines(chunk).enumerate() {
                    match parse_line(raw, start_line + i, &mut names) {
                        Ok(s) => statements.push(s),
                        Err(e) => {
                            out = Err(e);
                            break;
                        }
                    }
                }
                *slot = Some(out.map(|()| statements));
            });
        }
    });
    let mut statements = Vec::with_capacity(scan::count_lines(text));
    for r in results {
        statements.extend(r.expect("every chunk parsed")?);
    }
    Ok(DagmanFile { statements })
}

fn parse_line(raw: &str, line: usize, names: &mut NameInterner) -> Result<Statement, DagmanError> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(Statement::Blank);
    }
    if trimmed.starts_with('#') {
        return Ok(Statement::Comment(raw.to_string()));
    }
    let mut tokens = trimmed.split_whitespace();
    let keyword = tokens.next().expect("non-empty line has a first token");
    // Keywords are short ASCII, so case-fold into a stack buffer — the old
    // `to_ascii_uppercase()` allocated a String on every single line.
    let mut kwbuf = [0u8; 8];
    let keyword = if keyword.len() <= kwbuf.len() {
        let buf = &mut kwbuf[..keyword.len()];
        buf.copy_from_slice(keyword.as_bytes());
        buf.make_ascii_uppercase();
        std::str::from_utf8(buf).unwrap_or("")
    } else {
        "" // longer than any keyword: passes through as Other
    };
    match keyword {
        "JOB" => {
            let name = names.intern(
                tokens
                    .next()
                    .ok_or_else(|| malformed(line, "JOB requires a name"))?,
            );
            let submit_file = tokens
                .next()
                .ok_or_else(|| malformed(line, "JOB requires a submit description file"))?
                .to_string();
            let options = tokens.map(str::to_string).collect();
            Ok(Statement::Job {
                name,
                submit_file,
                options,
            })
        }
        "PARENT" => {
            let mut parents = Vec::new();
            let mut children = Vec::new();
            let mut in_children = false;
            for t in tokens {
                // `CHILD` is the separator keyword only at the boundary:
                // after at least one parent and before the children begin.
                // A first token spelled "child" is a job name (so a parent
                // named `child` parses — the writer puts such a parent
                // first), and once in children mode every token is a name.
                if !in_children && !parents.is_empty() && t.eq_ignore_ascii_case("CHILD") {
                    in_children = true;
                } else if in_children {
                    children.push(names.intern(t));
                } else {
                    parents.push(names.intern(t));
                }
            }
            if parents.is_empty() || children.is_empty() {
                return Err(malformed(line, "PARENT … CHILD … requires both lists"));
            }
            Ok(Statement::ParentChild { parents, children })
        }
        "VARS" => {
            let job = names.intern(
                tokens
                    .next()
                    .ok_or_else(|| malformed(line, "VARS requires a job name"))?,
            );
            // Re-scan the remainder of the raw line to honor quoting.
            let rest_start = find_after_token(trimmed, 2);
            let mut pairs = Vec::new();
            parse_vars_pairs_into(&trimmed[rest_start..], line, &mut pairs)?;
            if pairs.is_empty() {
                return Err(malformed(line, "VARS requires at least one key=\"value\""));
            }
            Ok(Statement::Vars { job, pairs })
        }
        "SUBDAG" => {
            let external = tokens
                .next()
                .ok_or_else(|| malformed(line, "SUBDAG requires the EXTERNAL keyword"))?;
            if !external.eq_ignore_ascii_case("EXTERNAL") {
                return Err(malformed(line, "only SUBDAG EXTERNAL is supported"));
            }
            let name = names.intern(
                tokens
                    .next()
                    .ok_or_else(|| malformed(line, "SUBDAG EXTERNAL requires a name"))?,
            );
            let dag_file = tokens
                .next()
                .ok_or_else(|| malformed(line, "SUBDAG EXTERNAL requires a dag file"))?
                .to_string();
            Ok(Statement::Subdag { name, dag_file })
        }
        "PRIORITY" => {
            let job = names.intern(
                tokens
                    .next()
                    .ok_or_else(|| malformed(line, "PRIORITY requires a job name"))?,
            );
            let value = tokens
                .next()
                .ok_or_else(|| malformed(line, "PRIORITY requires a value"))?
                .parse()
                .map_err(|_| malformed(line, "PRIORITY value must be an integer"))?;
            Ok(Statement::Priority { job, value })
        }
        _ => Ok(Statement::Other(raw.to_string())),
    }
}

/// Byte offset just past the `n`-th whitespace-separated token of `s`.
pub(crate) fn find_after_token(s: &str, n: usize) -> usize {
    let mut count = 0;
    let mut in_token = false;
    for (i, ch) in s.char_indices() {
        if ch.is_whitespace() {
            if in_token {
                count += 1;
                if count == n {
                    return i;
                }
                in_token = false;
            }
        } else {
            in_token = true;
        }
    }
    s.len()
}

/// Parses `key="value"` pairs into `pairs`, honoring `\"` and `\\`
/// escapes inside values.
fn parse_vars_pairs_into(
    s: &str,
    line: usize,
    pairs: &mut Vec<(String, String)>,
) -> Result<(), DagmanError> {
    let mut chars = s.char_indices().peekable();
    loop {
        // Skip whitespace.
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
        let Some(&(start, _)) = chars.peek() else {
            break;
        };
        // Key runs until '='.
        let mut key_end = start;
        let mut found_eq = false;
        for (i, c) in chars.by_ref() {
            if c == '=' {
                key_end = i;
                found_eq = true;
                break;
            }
        }
        if !found_eq {
            return Err(malformed(line, "VARS entry missing '='"));
        }
        let key = s[start..key_end].trim();
        if key.is_empty() {
            return Err(malformed(line, "VARS entry with empty key"));
        }
        // Value must be a quoted string.
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err(malformed(line, "VARS value must be double-quoted")),
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some((_, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, escaped @ ('"' | '\\'))) => value.push(escaped),
                    Some((_, other)) => {
                        value.push('\\');
                        value.push(other);
                    }
                    None => return Err(malformed(line, "dangling escape in VARS value")),
                },
                '"' => {
                    closed = true;
                    break;
                }
                other => value.push(other),
            }
        }
        if !closed {
            return Err(malformed(line, "unterminated VARS value"));
        }
        pairs.push((key.to_string(), value));
    }
    Ok(())
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
        assert!(matches!(&f.statements[1], Statement::ParentChild { .. }));
    }

    #[test]
    fn job_options_preserved() {
        let f = parse_dagman("JOB a a.sub DIR subdir DONE").unwrap();
        match &f.statements[0] {
            Statement::Job { options, .. } => {
                assert_eq!(
                    options,
                    &vec!["DIR".to_string(), "subdir".into(), "DONE".into()]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn vars_with_quotes_and_escapes() {
        let f =
            parse_dagman("JOB a a.sub\nVARS a jobpriority=\"5\" note=\"say \\\"hi\\\"\"").unwrap();
        assert_eq!(f.vars_value("a", "jobpriority"), Some("5"));
        assert_eq!(f.vars_value("a", "note"), Some("say \"hi\""));
    }

    #[test]
    fn unknown_keywords_pass_through() {
        let f = parse_dagman("RETRY a 3\nCONFIG dagman.config\nSCRIPT PRE a setup.sh").unwrap();
        assert!(f
            .statements
            .iter()
            .all(|s| matches!(s, Statement::Other(_))));
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
        let f = parse_dagman("JOB a a.sub\nPRIORITY a 42\n").unwrap();
        assert!(matches!(
            f.statements[1],
            Statement::Priority { ref job, value: 42 } if &**job == "a"
        ));
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
    }

    #[test]
    fn blank_and_comment_lines_kept() {
        let f = parse_dagman("# top\n\nJOB a a.sub\n").unwrap();
        assert!(matches!(f.statements[0], Statement::Comment(_)));
        assert!(matches!(f.statements[1], Statement::Blank));
    }
}
