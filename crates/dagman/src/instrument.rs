//! Instrumenting a DAGMan file with job priorities (§3.2, Fig. 3).
//!
//! Given a priority per job (larger = assigned to a worker earlier), the
//! tool defines the `jobpriority` macro for each job using a `VARS`
//! statement placed directly after the job's `JOB` statement, exactly like
//! the bold lines of Fig. 3. Each job's JSDF is separately instrumented
//! with `priority = $(jobpriority)` (see [`crate::jsdf`]).

use crate::ast::{DagmanFile, JobName, Statement};
use crate::error::DagmanError;
use std::collections::BTreeMap;

/// The name of the macro the tool defines.
pub const JOBPRIORITY: &str = "jobpriority";

/// Converts a schedule position map into Condor priorities: the job at
/// schedule position 0 (executed first) of an `n`-job dag gets priority
/// `n`, the last gets 1.
///
/// `order` lists job names in schedule order.
pub fn priorities_by_job<'a>(order: impl IntoIterator<Item = &'a str>) -> BTreeMap<String, u32> {
    let names: Vec<&str> = order.into_iter().collect();
    let n = names.len() as u32;
    names
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name.to_string(), n - i as u32))
        .collect()
}

/// How priorities are written back into the DAGMan file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InstrumentMode {
    /// The paper's mechanism: define the `jobpriority` macro per job via
    /// `VARS` and let the JSDF assign `priority = $(jobpriority)`.
    /// External sub-dag nodes (which have no JSDF) get a `PRIORITY`
    /// statement instead.
    #[default]
    VarsMacro,
    /// Direct `PRIORITY <node> <value>` statements (DAGMan's node-priority
    /// mechanism, usable without touching JSDFs).
    PriorityStatement,
}

/// Instruments `file` in place with the paper's `VARS` mechanism
/// (see [`instrument_dagman_with`]).
pub fn instrument_dagman(
    file: &mut DagmanFile,
    priorities: &BTreeMap<String, u32>,
) -> Result<(), DagmanError> {
    instrument_dagman_with(file, priorities, InstrumentMode::VarsMacro)
}

/// Instruments `file` in place: after each `JOB`/`SUBDAG` statement,
/// inserts (or updates) the statement carrying the node's priority.
///
/// Nodes missing from `priorities` are an error; extra entries are
/// ignored. Existing definitions anywhere in the file are updated in
/// place instead of duplicated, making instrumentation idempotent.
pub fn instrument_dagman_with(
    file: &mut DagmanFile,
    priorities: &BTreeMap<String, u32>,
    mode: InstrumentMode,
) -> Result<(), DagmanError> {
    let _span = prio_obs::span(prio_obs::stage::WRITE);
    // Verify coverage first.
    let names = file.job_names();
    for name in &names {
        if !priorities.contains_key(*name) {
            return Err(DagmanError::UnknownJob {
                line: 0,
                job: name.to_string(),
            });
        }
    }
    let num_nodes = names.len();
    // Update existing definitions in place. Cloning an interned JobName is
    // a refcount bump, so the updated-set costs no string allocations.
    let mut updated: std::collections::HashSet<JobName> = std::collections::HashSet::new();
    for s in file.statements.iter_mut() {
        match s {
            Statement::Vars { job, pairs } if mode == InstrumentMode::VarsMacro => {
                if let Some(p) = priorities.get(&**job) {
                    for (k, v) in pairs.iter_mut() {
                        if k == JOBPRIORITY {
                            *v = p.to_string();
                            updated.insert(job.clone());
                        }
                    }
                }
            }
            Statement::Priority { job, value } => {
                if let Some(&p) = priorities.get(&**job) {
                    *value = p as i64;
                    updated.insert(job.clone());
                }
            }
            _ => {}
        }
    }
    prio_obs::counter("dagman.instrument.statements_updated").add(updated.len() as u64);
    // Rebuild the statement list in one pass, pushing the new statement
    // right after each node statement lacking one (an in-place insert per
    // job would shift the tail every time: quadratic in the file size).
    let old = std::mem::take(&mut file.statements);
    let mut statements = Vec::with_capacity(old.len() + num_nodes);
    let mut inserted = 0u64;
    for s in old {
        let node = match &s {
            Statement::Job { name, .. } => Some((name.clone(), false)),
            Statement::Subdag { name, .. } => Some((name.clone(), true)),
            _ => None,
        };
        statements.push(s);
        let Some((name, is_subdag)) = node else {
            continue;
        };
        if updated.contains(&name) {
            continue;
        }
        let p = priorities[&*name];
        statements.push(if mode == InstrumentMode::PriorityStatement || is_subdag {
            Statement::Priority {
                job: name,
                value: p as i64,
            }
        } else {
            Statement::Vars {
                job: name,
                pairs: vec![(JOBPRIORITY.to_string(), p.to_string())],
            }
        });
        inserted += 1;
    }
    file.statements = statements;
    prio_obs::counter("dagman.instrument.statements_inserted").add(inserted);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_dagman;
    use crate::write::write_dagman;

    const FIG3: &str = "\
JOB a a.submit
JOB b b.submit
JOB c c.submit
JOB d d.submit
JOB e e.submit
PARENT a CHILD b
PARENT c CHILD d e
";

    fn fig3_priorities() -> BTreeMap<String, u32> {
        // PRIO schedule: c, a, b, d, e.
        priorities_by_job(["c", "a", "b", "d", "e"])
    }

    #[test]
    fn priorities_by_job_matches_fig3() {
        let p = fig3_priorities();
        assert_eq!(p["c"], 5);
        assert_eq!(p["a"], 4);
        assert_eq!(p["b"], 3);
        assert_eq!(p["d"], 2);
        assert_eq!(p["e"], 1);
    }

    #[test]
    fn instrumentation_inserts_vars_after_each_job() {
        let mut f = parse_dagman(FIG3).unwrap();
        instrument_dagman(&mut f, &fig3_priorities()).unwrap();
        let text = write_dagman(&f);
        let expected = "\
JOB a a.submit
VARS a jobpriority=\"4\"
JOB b b.submit
VARS b jobpriority=\"3\"
JOB c c.submit
VARS c jobpriority=\"5\"
JOB d d.submit
VARS d jobpriority=\"2\"
JOB e e.submit
VARS e jobpriority=\"1\"
PARENT a CHILD b
PARENT c CHILD d e
";
        assert_eq!(text, expected);
    }

    #[test]
    fn instrumentation_is_idempotent() {
        let mut f = parse_dagman(FIG3).unwrap();
        instrument_dagman(&mut f, &fig3_priorities()).unwrap();
        let once = write_dagman(&f);
        instrument_dagman(&mut f, &fig3_priorities()).unwrap();
        assert_eq!(write_dagman(&f), once);
    }

    #[test]
    fn reinstrumentation_updates_values() {
        let mut f = parse_dagman(FIG3).unwrap();
        instrument_dagman(&mut f, &fig3_priorities()).unwrap();
        // New schedule: a first.
        let new = priorities_by_job(["a", "b", "c", "d", "e"]);
        instrument_dagman(&mut f, &new).unwrap();
        assert_eq!(f.vars_value("a", JOBPRIORITY), Some("5"));
        assert_eq!(f.vars_value("c", JOBPRIORITY), Some("3"));
    }

    #[test]
    fn missing_priority_is_an_error() {
        let mut f = parse_dagman(FIG3).unwrap();
        let partial = priorities_by_job(["a", "b"]);
        assert!(matches!(
            instrument_dagman(&mut f, &partial),
            Err(DagmanError::UnknownJob { .. })
        ));
    }

    #[test]
    fn priority_statement_mode() {
        let mut f = parse_dagman("JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n").unwrap();
        let p = priorities_by_job(["a", "b"]);
        instrument_dagman_with(&mut f, &p, InstrumentMode::PriorityStatement).unwrap();
        let text = write_dagman(&f);
        assert!(text.contains("PRIORITY a 2"));
        assert!(text.contains("PRIORITY b 1"));
        assert!(!text.contains("VARS"));
        // Idempotent and updatable.
        instrument_dagman_with(
            &mut f,
            &priorities_by_job(["b", "a"]),
            InstrumentMode::PriorityStatement,
        )
        .unwrap();
        let text = write_dagman(&f);
        assert!(text.contains("PRIORITY a 1"));
        assert!(text.contains("PRIORITY b 2"));
        assert_eq!(text.matches("PRIORITY").count(), 2);
    }

    #[test]
    fn subdag_nodes_get_priority_statements_even_in_vars_mode() {
        let mut f =
            parse_dagman("JOB a a.sub\nSUBDAG EXTERNAL inner inner.dag\nPARENT a CHILD inner\n")
                .unwrap();
        let p = priorities_by_job(["a", "inner"]);
        instrument_dagman(&mut f, &p).unwrap();
        let text = write_dagman(&f);
        assert!(text.contains("VARS a jobpriority=\"2\""));
        assert!(text.contains("PRIORITY inner 1"));
    }

    /// A file mixing every statement kind instrumentation touches or must
    /// leave alone, in the writer's canonical spelling.
    const MIXED: &str = "\
# header comment
JOB a a.sub
VARS a jobpriority=\"99\"
JOB b b.sub
RETRY b 3
SUBDAG EXTERNAL inner inner.dag
JOB c c.sub DIR work
PRIORITY c 7
JOB d d.sub
VARS d other=\"x\"
SUBDAG EXTERNAL outer outer.dag
PRIORITY outer 1

PARENT a CHILD b c
PARENT b c CHILD d inner
PARENT d CHILD outer
";

    /// The specification, one text line at a time: existing definitions
    /// (`PRIORITY` lines, and `VARS … jobpriority` in `VARS` mode) get the
    /// new value; every other node gets its statement on the line right
    /// after its `JOB`/`SUBDAG` line.
    fn line_oracle(text: &str, p: &BTreeMap<String, u32>, mode: InstrumentMode) -> String {
        let vars_mode = mode == InstrumentMode::VarsMacro;
        let tokens =
            |line: &str| -> Vec<String> { line.split_whitespace().map(str::to_string).collect() };
        let mut defined = std::collections::HashSet::new();
        for line in text.lines() {
            let t = tokens(line);
            let is_def = match t.first().map(String::as_str) {
                Some("PRIORITY") => true,
                Some("VARS") => vars_mode && t[2..].iter().any(|kv| kv.starts_with("jobpriority=")),
                _ => false,
            };
            if is_def {
                defined.insert(t[1].clone());
            }
        }
        let mut out = String::new();
        for line in text.lines() {
            let t = tokens(line);
            let (rewritten, node) = match t.first().map(String::as_str) {
                Some("PRIORITY") => (format!("PRIORITY {} {}", t[1], p[&t[1]]), None),
                Some("VARS") if vars_mode => {
                    let pairs: Vec<String> = t[2..]
                        .iter()
                        .map(|kv| match kv.strip_prefix("jobpriority=") {
                            Some(_) => format!("jobpriority=\"{}\"", p[&t[1]]),
                            None => kv.clone(),
                        })
                        .collect();
                    (format!("VARS {} {}", t[1], pairs.join(" ")), None)
                }
                Some("JOB") => (line.to_string(), Some((t[1].clone(), false))),
                Some("SUBDAG") => (line.to_string(), Some((t[2].clone(), true))),
                _ => (line.to_string(), None),
            };
            out.push_str(&rewritten);
            out.push('\n');
            if let Some((name, is_subdag)) = node {
                if !defined.contains(&name) {
                    if is_subdag || !vars_mode {
                        out.push_str(&format!("PRIORITY {name} {}\n", p[&name]));
                    } else {
                        out.push_str(&format!("VARS {name} jobpriority=\"{}\"\n", p[&name]));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn one_pass_instrumentation_matches_the_line_oracle_in_both_modes() {
        let mut parsed = parse_dagman(MIXED).unwrap();
        assert_eq!(write_dagman(&parsed), MIXED, "MIXED must be canonical");
        parsed.to_dag().unwrap();
        let first = priorities_by_job(["d", "a", "inner", "c", "outer", "b"]);
        let second = priorities_by_job(["outer", "c", "b", "inner", "a", "d"]);
        for mode in [InstrumentMode::VarsMacro, InstrumentMode::PriorityStatement] {
            let mut f = parsed.clone();
            instrument_dagman_with(&mut f, &first, mode).unwrap();
            let once = write_dagman(&f);
            assert_eq!(once, line_oracle(MIXED, &first, mode), "{mode:?}");
            // Idempotent: the same priorities again change nothing...
            instrument_dagman_with(&mut f, &first, mode).unwrap();
            assert_eq!(write_dagman(&f), once, "{mode:?}");
            // ...and new ones update the inserted statements in place.
            instrument_dagman_with(&mut f, &second, mode).unwrap();
            assert_eq!(
                write_dagman(&f),
                line_oracle(&once, &second, mode),
                "{mode:?}"
            );
        }
        // The statements the oracle says to insert, spot-checked.
        instrument_dagman(&mut parsed, &first).unwrap();
        let text = write_dagman(&parsed);
        assert!(text.contains("JOB b b.sub\nVARS b jobpriority=\"1\"\nRETRY b 3\n"));
        assert!(text.contains("SUBDAG EXTERNAL inner inner.dag\nPRIORITY inner 4\n"));
        assert!(text.contains("JOB d d.sub\nVARS d jobpriority=\"6\"\nVARS d other=\"x\"\n"));
        assert!(text.contains("VARS a jobpriority=\"5\"\n"));
        assert_eq!(text.matches("PRIORITY c").count(), 1);
    }

    #[test]
    fn preserves_unrelated_statements() {
        let text = "# hdr\nJOB a a.sub\nRETRY a 2\n";
        let mut f = parse_dagman(text).unwrap();
        instrument_dagman(&mut f, &priorities_by_job(["a"])).unwrap();
        let out = write_dagman(&f);
        assert!(out.contains("# hdr"));
        assert!(out.contains("RETRY a 2"));
        assert!(out.contains("VARS a jobpriority=\"1\""));
    }
}
