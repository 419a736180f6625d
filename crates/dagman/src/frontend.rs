//! The DAGMan frontend: the Condor importer/exporter pair over the
//! workflow IR, plus the full format registry.
//!
//! Importing maps `JOB`/`SUBDAG EXTERNAL` statements to IR jobs (submit
//! files, subdag files and extra `JOB` options become per-job metadata,
//! stored sparsely — a submit file equal to the `<name>.submit` default is
//! not recorded), `PARENT … CHILD` products to arcs, and
//! `VARS … jobpriority="p"` / `PRIORITY` statements to IR priorities.
//! Exporting produces the canonical instrumented layout: one `JOB` (or
//! `SUBDAG EXTERNAL`) per job in index order, each directly followed by
//! its priority statement when one is assigned (the paper's Fig. 3 shape),
//! then one single-parent `PARENT … CHILD` statement per non-sink —
//! single-parent so that even a job named `child` re-parses unambiguously.

use crate::error::DagmanError;
use crate::file::{DagmanFile, Line, NONE};
use crate::instrument::JOBPRIORITY;
use crate::parse::{parse_dagman, vars_pairs};
use prio_graph::NodeId;
use prio_ir::{
    ChunkWriter, FormatId, FormatRegistry, Frontend, ImportError, PrioError, Priorities, Workflow,
};
use std::io;

/// Metadata key: a job's submit description file, recorded only when it
/// differs from the `<name>.submit` default.
pub const META_SUBMIT: &str = "submit";
/// Metadata key: marks a `SUBDAG EXTERNAL` node; the value is the nested
/// dag file.
pub const META_SUBDAG: &str = "subdag";
/// Metadata key: extra `JOB` statement options (`DIR …`, `DONE`),
/// space-joined in statement order.
pub const META_OPTIONS: &str = "options";

/// The DAGMan frontend.
pub struct DagmanFrontend;

/// The full format registry: DAGMan (this crate) plus the JSON and
/// edge-list frontends from `prio-ir`, in sniff order from most to least
/// specific.
pub fn registry() -> FormatRegistry {
    let mut r = FormatRegistry::new();
    r.register(Box::new(DagmanFrontend));
    r.register(Box::new(prio_ir::JsonFrontend));
    r.register(Box::new(prio_ir::EdgesFrontend));
    r
}

/// Converts a freshly parsed DAGMan file into the IR: the dag from the
/// file's node ids, per-job metadata from each declaring line, and the
/// priorities its `VARS … jobpriority` and `PRIORITY` lines carry (the
/// last one of a job wins).
fn workflow_from_file(file: &DagmanFile) -> Result<Workflow, DagmanError> {
    let mut wf = Workflow::imported(file.to_dag()?, FormatId::Dagman);
    for (u, node) in file.nodes.iter().enumerate() {
        let u = NodeId(u as u32);
        match file.lines[node.line as usize] {
            Line::Job {
                submit, options, ..
            } => {
                let submit = file.str(submit);
                if submit.strip_suffix(".submit") != Some(file.name(node.name)) {
                    wf.set_meta(u, META_SUBMIT, submit);
                }
                let options = file.str(options);
                if !options.is_empty() {
                    let tokens: Vec<&str> = options.split_whitespace().collect();
                    wf.set_meta(u, META_OPTIONS, tokens.join(" "));
                }
            }
            Line::Subdag { dag_file, .. } => wf.set_meta(u, META_SUBDAG, file.str(dag_file)),
            _ => unreachable!("nodes are declared by JOB and SUBDAG lines"),
        }
    }
    let mut priorities = Priorities::none(wf.num_jobs());
    for line in &file.lines {
        let (name, value) = match *line {
            Line::Vars {
                name,
                pairs,
                jobpriority: true,
                ..
            } => {
                let pairs = vars_pairs(file.str(pairs)).map_while(Result::ok);
                let values = pairs.filter(|&(k, _)| k == JOBPRIORITY).map(|(_, v)| v);
                (name, values.filter_map(|v| v.parse().ok()).last())
            }
            Line::Priority { name, value } => (name, Some(value)),
            _ => continue,
        };
        match (file.node_of[name as usize], value) {
            (NONE, _) | (_, None) => {}
            (u, Some(p)) => priorities.set(NodeId(u), p),
        }
    }
    wf.set_priorities(priorities);
    prio_obs::counter!("dagman.parse.files").add(1);
    prio_obs::counter!("dagman.parse.jobs").add(wf.num_jobs() as u64);
    prio_obs::counter!("dagman.parse.arcs").add(wf.num_arcs() as u64);
    Ok(wf)
}

/// Streams the canonical DAGMan text of a workflow into `w` (the export
/// half of the frontend).
fn export_text(workflow: &Workflow, priorities: &Priorities, w: &mut ChunkWriter) {
    for u in workflow.node_ids() {
        let name = workflow.job_name(u);
        let (mut subdag, mut submit, mut options) = (None, None, "");
        for (key, value) in workflow.meta_of(u) {
            match key {
                META_SUBDAG => subdag = Some(value),
                META_SUBMIT => submit = Some(value),
                META_OPTIONS => options = value,
                _ => {}
            }
        }
        match subdag {
            Some(dag_file) => w.strs(&["SUBDAG EXTERNAL ", name, " ", dag_file]),
            None => {
                w.strs(&["JOB ", name, " "]);
                match submit {
                    Some(submit) => w.str(submit),
                    None => w.strs(&[name, ".submit"]),
                }
                for option in options.split_whitespace() {
                    w.strs(&[" ", option]);
                }
            }
        }
        w.str("\n");
        // The paper's Fig. 3 layout: the priority statement directly
        // follows its node. External sub-dags have no JSDF, so they get a
        // PRIORITY statement instead of the VARS macro.
        if let Some(p) = priorities.get(u) {
            let (head, tail) = match subdag {
                Some(_) => (["PRIORITY ", name, " "], "\n"),
                None => (["VARS ", name, " jobpriority=\""], "\"\n"),
            };
            w.strs(&head);
            w.int(p);
            w.str(tail);
        }
    }
    for u in workflow.node_ids() {
        let children = workflow.children(u);
        if !children.is_empty() {
            w.strs(&["PARENT ", workflow.job_name(u), " CHILD"]);
            for &c in children {
                w.strs(&[" ", workflow.job_name(c)]);
            }
            w.str("\n");
        }
    }
}

/// Whether every job name survives DAGMan's whitespace tokenization.
/// Formats like JSON can carry names no DAGMan statement can express;
/// converters should refuse those instead of writing a corrupt file.
pub fn representable(workflow: &Workflow) -> Result<(), PrioError> {
    for u in workflow.node_ids() {
        let name = workflow.job_name(u);
        if name.is_empty() || name.contains(char::is_whitespace) || name.starts_with('#') {
            return Err(PrioError::Parse(ImportError::whole_file(
                FormatId::Dagman,
                format!("job name {name:?} cannot be written as a DAGMan token"),
            )));
        }
    }
    Ok(())
}

impl Frontend for DagmanFrontend {
    fn id(&self) -> FormatId {
        FormatId::Dagman
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["dag", "dagman"]
    }

    fn sniff(&self, text: &str) -> bool {
        prio_obs::scan::lines(text)
            .map(str::trim)
            .filter(|t| !t.is_empty() && !t.starts_with('#'))
            .take(50)
            .any(|t| {
                let kw = t.split_whitespace().next().unwrap_or("");
                ["JOB", "PARENT", "SUBDAG", "VARS", "PRIORITY"]
                    .iter()
                    .any(|k| kw.eq_ignore_ascii_case(k))
            })
    }

    fn import(&self, text: &str) -> Result<Workflow, PrioError> {
        Ok(workflow_from_file(&parse_dagman(text)?)?)
    }

    fn export_to(
        &self,
        workflow: &Workflow,
        priorities: &Priorities,
        out: &mut dyn io::Write,
    ) -> io::Result<()> {
        let _span = prio_obs::span(prio_obs::Stage::Write);
        let mut w = ChunkWriter::new(out);
        export_text(workflow, priorities, &mut w);
        w.finish()
    }

    fn export_len(&self, workflow: &Workflow, _: &Priorities) -> usize {
        workflow.num_jobs() * 64 + workflow.num_arcs() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_ir::WorkflowBuilder;

    const FIG3: &str = "\
JOB a a.submit
JOB b b.submit
JOB c c.submit
JOB d d.submit
JOB e e.submit
PARENT a CHILD b
PARENT c CHILD d e
";

    #[test]
    fn imports_fig3() {
        let wf = DagmanFrontend.import(FIG3).unwrap();
        assert_eq!(wf.num_jobs(), 5);
        assert_eq!(wf.num_arcs(), 3);
        assert_eq!(wf.source(), FormatId::Dagman);
        // Default submit files are not recorded as metadata.
        assert_eq!(wf.meta(NodeId(0), META_SUBMIT), None);
        assert!(wf.priorities().is_empty());
    }

    #[test]
    fn export_import_round_trips_content() {
        let f = DagmanFrontend;
        let wf = f.import(FIG3).unwrap();
        let mut p = Priorities::none(5);
        p.set(NodeId(2), 5);
        p.set(NodeId(0), 4);
        let text = f.export(&wf, &p);
        let back = f.import(&text).unwrap();
        assert_eq!(back.dag(), wf.dag());
        assert_eq!(back.priorities().get(NodeId(2)), Some(5));
        assert_eq!(back.priorities().get(NodeId(0)), Some(4));
        assert_eq!(back.priorities().get(NodeId(1)), None);
        // Canonical: exporting the re-import is byte-identical.
        assert_eq!(f.export(&back, back.priorities()), text);
    }

    #[test]
    fn metadata_survives_round_trips() {
        let text = "\
JOB a custom.sub DIR subdir DONE
SUBDAG EXTERNAL inner inner.dag
PARENT a CHILD inner
";
        let f = DagmanFrontend;
        let wf = f.import(text).unwrap();
        assert_eq!(wf.meta(NodeId(0), META_SUBMIT), Some("custom.sub"));
        assert_eq!(wf.meta(NodeId(0), META_OPTIONS), Some("DIR subdir DONE"));
        assert_eq!(wf.meta(NodeId(1), META_SUBDAG), Some("inner.dag"));
        let out = f.export(&wf, wf.priorities());
        assert!(out.contains("JOB a custom.sub DIR subdir DONE"));
        assert!(out.contains("SUBDAG EXTERNAL inner inner.dag"));
        let back = f.import(&out).unwrap();
        assert!(back.same_content(&wf));
    }

    #[test]
    fn priorities_import_from_vars_and_priority_statements() {
        let text = "\
JOB a a.submit
VARS a jobpriority=\"7\"
SUBDAG EXTERNAL s s.dag
PRIORITY s -3
PARENT a CHILD s
";
        let wf = DagmanFrontend.import(text).unwrap();
        assert_eq!(wf.priorities().get(NodeId(0)), Some(7));
        assert_eq!(wf.priorities().get(NodeId(1)), Some(-3));
        // Exported subdag priorities use PRIORITY, jobs use VARS.
        let out = DagmanFrontend.export(&wf, wf.priorities());
        assert!(out.contains("VARS a jobpriority=\"7\""));
        assert!(out.contains("PRIORITY s -3"));
        let back = DagmanFrontend.import(&out).unwrap();
        assert!(back.same_content(&wf));
    }

    #[test]
    fn a_job_named_child_round_trips() {
        // The case-fold hazard of the satellite fix: `child` (any case)
        // as a job name parses from the first-token position, and the
        // exporter only ever puts it there.
        let text = "\
JOB child child.submit
JOB CHILD other.submit
JOB x x.submit
PARENT child CHILD x
PARENT CHILD CHILD x
";
        let f = DagmanFrontend;
        let wf = f.import(text).unwrap();
        assert_eq!(wf.num_jobs(), 3);
        assert_eq!(wf.num_arcs(), 2);
        let out = f.export(&wf, wf.priorities());
        let back = f.import(&out).unwrap();
        assert!(back.same_content(&wf), "export:\n{out}");
    }

    #[test]
    fn import_errors_carry_dagman_provenance() {
        for text in [
            "JOB onlyname",
            "JOB a a.sub\nJOB a b.sub",
            "JOB a a.sub\nPARENT a CHILD ghost",
            "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\nPARENT b CHILD a",
        ] {
            let e = DagmanFrontend.import(text).unwrap_err();
            assert!(
                e.to_string().starts_with("parse: dagman:"),
                "bad provenance for {text:?}: {e}"
            );
        }
    }

    #[test]
    fn representable_rejects_untokenizable_names() {
        let mut b = WorkflowBuilder::new(FormatId::Json);
        b.job("fine");
        let wf = b.build().unwrap();
        assert!(representable(&wf).is_ok());
        let mut b = WorkflowBuilder::new(FormatId::Json);
        b.job("has space");
        let wf = b.build().unwrap();
        assert!(representable(&wf).is_err());
    }

    #[test]
    fn sniff_recognizes_dagman_only() {
        assert!(DagmanFrontend.sniff(FIG3));
        assert!(DagmanFrontend.sniff("# header\n\njob x x.sub\n"));
        assert!(!DagmanFrontend.sniff("{\"jobs\": []}"));
        assert!(!DagmanFrontend.sniff("a\tb\n"));
        assert!(!DagmanFrontend.sniff(""));
    }

    #[test]
    fn registry_detects_all_three_formats() {
        let r = registry();
        let cases = [
            (FIG3, FormatId::Dagman),
            (
                "{\"format\": \"prio-workflow-v1\", \"jobs\": []}",
                FormatId::Json,
            ),
            ("a\tb\n", FormatId::Edges),
        ];
        for (text, want) in cases {
            assert_eq!(r.detect(None, text).map(|f| f.id()), Some(want), "{text:?}");
        }
        assert_eq!(
            r.detect(Some("x.dag"), "").map(|f| f.id()),
            Some(FormatId::Dagman)
        );
        // Every frontend in the registry prioritizes the same Fig. 3
        // content to the same workflow content after conversion.
        let wf = r.get(FormatId::Dagman).unwrap().import(FIG3).unwrap();
        for f in r.frontends() {
            if f.id() == FormatId::Dagman {
                continue;
            }
            let text = f.export(&wf, wf.priorities());
            let back = f.import(&text).unwrap();
            assert!(back.same_content(&wf), "{} changed content", f.id());
        }
    }
}
