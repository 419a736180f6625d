//! Reproduces the paper's Fig. 3: invoking `prio` on the 5-job `IV.dag`
//! (a → b, c → d, c → e) yields the PRIO schedule c, a, b, d, e; the
//! DAGMan file gains one `VARS … jobpriority` line per job (job `c` gets
//! the highest value, 5) and the JSDF gains `priority = $(jobpriority)`.

use prio_bench::report::Table;
use prio_core::optimal::{is_ic_optimal, DEFAULT_STATE_LIMIT};
use prio_core::prio::prioritize;
use prio_dagman::instrument::{instrument_dagman_with, priorities_by_job, InstrumentMode};
use prio_dagman::jsdf::Jsdf;
use prio_dagman::parse::parse_dagman;
use prio_dagman::write::write_dagman;

const IV_DAG: &str = "\
JOB a a.submit
JOB b b.submit
JOB c c.submit
JOB d d.submit
JOB e e.submit
PARENT a CHILD b
PARENT c CHILD d e
";

const C_SUBMIT: &str = "\
universe = vanilla
executable = c_job
queue
";

fn main() {
    println!("== Fig. 3: prio invoked on IV.dag ==\n");
    let mut file = parse_dagman(IV_DAG).expect("IV.dag parses");
    let dag = file.to_dag().expect("IV.dag is acyclic");

    let result = prioritize(&dag).unwrap();
    let names: Vec<&str> = result
        .schedule
        .order()
        .iter()
        .map(|&u| dag.label(u))
        .collect();
    println!("PRIO schedule: {}", names.join(","));
    assert_eq!(names, ["c", "a", "b", "d", "e"], "must match the paper");
    assert_eq!(
        is_ic_optimal(&dag, result.schedule.order(), DEFAULT_STATE_LIMIT),
        Some(true),
        "the Fig. 3 schedule is IC-optimal"
    );

    let mut t = Table::new(&["job", "schedule position", "jobpriority"]);
    for (i, &u) in result.schedule.order().iter().enumerate() {
        t.row(vec![
            dag.label(u).to_string(),
            (i + 1).to_string(),
            (dag.num_nodes() - i).to_string(),
        ]);
    }
    println!("\n{}", t.render());

    let priorities = priorities_by_job(names.iter().copied());
    instrument_dagman_with(&mut file, &priorities, InstrumentMode::VarsMacro)
        .expect("instrumentation succeeds");
    println!("instrumented IV.dag:\n{}", write_dagman(&file));

    let mut jsdf = Jsdf::parse(C_SUBMIT);
    jsdf.instrument_priority();
    println!("instrumented c.submit:\n{}", jsdf.to_text());

    let c = file.vars_value("c", "jobpriority");
    println!(
        "paper check: job c holds jobpriority 5 -> {}",
        c.as_deref() == Some("5")
    );
    assert_eq!(c.as_deref(), Some("5"));
}
