//! Independent checks of the program's outputs. None of them takes the
//! program's word for the answer: priorities are checked against the
//! generator's dag, and output files are read back with plain text
//! scanning rather than the program's own parsers.

use prio_graph::Dag;
use std::collections::HashMap;

/// Checks that `priority[u]` (indexed by node) is a permutation of
/// `1..=n` under which every parent outranks each of its children.
pub fn priorities(dag: &Dag, priority: &[i64]) -> Result<(), String> {
    let n = dag.num_nodes();
    if priority.len() != n {
        return Err(format!("{} priorities for {n} jobs", priority.len()));
    }
    let mut seen = vec![false; n];
    for &p in priority {
        let slot = usize::try_from(p)
            .ok()
            .and_then(|p| p.checked_sub(1))
            .filter(|&i| i < n)
            .ok_or_else(|| format!("priority {p} outside 1..={n}"))?;
        if std::mem::replace(&mut seen[slot], true) {
            return Err(format!("priority {p} given twice"));
        }
    }
    for u in dag.node_ids() {
        for &c in dag.children(u) {
            if priority[u.index()] <= priority[c.index()] {
                return Err(format!(
                    "parent {} (priority {}) does not outrank child {} (priority {})",
                    dag.label(u),
                    priority[u.index()],
                    dag.label(c),
                    priority[c.index()]
                ));
            }
        }
    }
    Ok(())
}

/// Maps `(job name, priority)` pairs onto `dag`'s node indices.
pub fn by_node(dag: &Dag, pairs: &[(String, i64)]) -> Result<Vec<i64>, String> {
    let index: HashMap<&str, usize> = dag.node_ids().map(|u| (dag.label(u), u.index())).collect();
    let mut priority = vec![0; dag.num_nodes()];
    for (name, p) in pairs {
        let &i = index
            .get(name.as_str())
            .ok_or_else(|| format!("unknown job {name:?}"))?;
        priority[i] = *p;
    }
    Ok(priority)
}

/// Checks that an instrumented DAGMan file is its input with exactly one
/// `VARS <job> jobpriority="<k>"` line inserted after each `JOB <job> …`
/// line and nothing else changed, and returns the `(job, k)` pairs.
pub fn instrumented_dagman(input: &str, output: &str) -> Result<Vec<(String, i64)>, String> {
    let mut out = output.lines();
    let mut pairs = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if out.next() != Some(line) {
            return Err(format!("input line {} changed or missing", i + 1));
        }
        let mut words = line.split_whitespace();
        if words.next() != Some("JOB") {
            continue;
        }
        let job = words.next().ok_or("JOB line without a name")?;
        let vars = out
            .next()
            .ok_or_else(|| format!("no VARS after JOB {job}"))?;
        let value = vars
            .strip_prefix("VARS ")
            .and_then(|rest| rest.strip_prefix(job))
            .and_then(|rest| rest.strip_prefix(" jobpriority=\""))
            .and_then(|rest| rest.strip_suffix('"'))
            .ok_or_else(|| format!("expected the jobpriority VARS of {job}, got {vars:?}"))?;
        let k = value
            .parse()
            .map_err(|_| format!("jobpriority of {job} is not an integer: {value:?}"))?;
        pairs.push((job.to_string(), k));
    }
    match out.next() {
        None => Ok(pairs),
        Some(extra) => Err(format!("unexpected extra line {extra:?}")),
    }
}

/// Whether a job-submit description file assigns Condor's priority from
/// the `jobpriority` macro.
pub fn jsdf_instrumented(text: &str) -> bool {
    text.lines()
        .any(|l| l.trim() == "priority = $(jobpriority)")
}

/// Reads the `(name, priority)` of every job of a prio-workflow-v1 JSON
/// export: one `{"name": "…", "priority": N}` object per line inside the
/// `"jobs"` array.
pub fn json_priorities(text: &str) -> Result<Vec<(String, i64)>, String> {
    let mut pairs = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim_start().strip_prefix("{\"name\": \"") else {
            continue;
        };
        let (name, rest) = rest
            .split_once('"')
            .ok_or_else(|| format!("unterminated job name in {line:?}"))?;
        let p = rest
            .split_once("\"priority\": ")
            .and_then(|(_, v)| v.split(['}', ',']).next())
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("job {name:?} has no integer priority"))?;
        pairs.push((name.to_string(), p));
    }
    Ok(pairs)
}

/// Checks `prio simulate`'s stdout: a header, then the three metric rows
/// of the reliable grid, every number finite.
pub fn sim_table(stdout: &str) -> Result<(), String> {
    let mut lines = stdout.lines();
    if !lines.next().is_some_and(|h| h.starts_with("metric\t")) {
        return Err("missing metric header".into());
    }
    let mut names = Vec::new();
    for line in lines {
        let mut fields = line.split('\t');
        let name = fields.next().unwrap_or("");
        for f in fields {
            if !f.parse::<f64>().is_ok_and(f64::is_finite) {
                return Err(format!("{name}: non-finite value {f:?}"));
            }
        }
        names.push(name);
    }
    if names != ["execution_time", "stall_probability", "utilization"] {
        return Err(format!("unexpected metric rows {names:?}"));
    }
    Ok(())
}

/// The `dropped` count of a trace file's `trace_pipeline` meta record.
pub fn trace_dropped(trace: &str) -> Result<u64, String> {
    let line = trace
        .lines()
        .find(|l| l.contains("\"command\":\"trace_pipeline\""))
        .ok_or("no trace_pipeline meta record")?;
    line.split_once("\"dropped\":")
        .and_then(|(_, v)| v.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no dropped count in {line:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Dag {
        let mut b = prio_graph::DagBuilder::new();
        let ids: Vec<_> = ["a", "b", "c"].iter().map(|l| b.add_node(*l)).collect();
        b.add_arc(ids[0], ids[1]).unwrap();
        b.add_arc(ids[1], ids[2]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn priorities_reject_a_swapped_parent_and_child() {
        let dag = chain();
        assert!(priorities(&dag, &[3, 2, 1]).is_ok());
        let err = priorities(&dag, &[2, 3, 1]).unwrap_err();
        assert!(err.contains("parent a"), "{err}");
        assert!(priorities(&dag, &[3, 3, 1]).unwrap_err().contains("twice"));
        assert!(priorities(&dag, &[4, 2, 1])
            .unwrap_err()
            .contains("outside"));
        assert!(priorities(&dag, &[3, 2]).is_err());
    }

    #[test]
    fn instrumented_dagman_accepts_only_the_minimal_diff() {
        let input = "# hdr\nJOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n";
        let good = "# hdr\nJOB a a.sub\nVARS a jobpriority=\"2\"\nJOB b b.sub\nVARS b jobpriority=\"1\"\nPARENT a CHILD b\n";
        assert_eq!(
            instrumented_dagman(input, good).unwrap(),
            vec![("a".to_string(), 2), ("b".to_string(), 1)]
        );
        let missing =
            "# hdr\nJOB a a.sub\nJOB b b.sub\nVARS b jobpriority=\"1\"\nPARENT a CHILD b\n";
        assert!(instrumented_dagman(input, missing).is_err());
        let changed = good.replace("# hdr", "# other");
        assert!(instrumented_dagman(input, &changed).is_err());
        let extra = format!("{good}RETRY a 1\n");
        assert!(instrumented_dagman(input, &extra).is_err());
    }

    #[test]
    fn json_and_table_and_trace_readers() {
        let json = "{\n  \"jobs\": [\n    {\"name\": \"a\", \"priority\": 2},\n    {\"name\": \"b\", \"priority\": 1}\n  ]\n}\n";
        assert_eq!(
            json_priorities(json).unwrap(),
            vec![("a".to_string(), 2), ("b".to_string(), 1)]
        );
        assert!(json_priorities("    {\"name\": \"a\"}\n").is_err());
        let table = "metric\tPRIO_mean\n\
                     execution_time\t1.0\nstall_probability\t0.5\nutilization\t0.9\n";
        assert!(sim_table(table).is_ok());
        assert!(sim_table(&table.replace("0.9", "NaN")).is_err());
        assert_eq!(
            trace_dropped(
                "{\"type\":\"meta\",\"command\":\"trace_pipeline\",\"dropped\":0,\"sample\":1}\n"
            ),
            Ok(0)
        );
        assert!(jsdf_instrumented(
            "universe = vanilla\npriority = $(jobpriority)\nqueue\n"
        ));
    }
}
