//! The workflow IR: a CSR dag with its table of job names, plus
//! priorities and sparse per-job metadata, tagged with the format it came
//! from.
//!
//! Every frontend imports into a [`Workflow`] and exports from one, so the
//! PRIO pipeline (`prio-core`), the simulator and the benches never see
//! format-specific ASTs. A `Workflow` dereferences to its [`Dag`], so any
//! API taking `&Dag` accepts `&Workflow` unchanged.

use crate::error::{ImportError, PrioError};
use prio_graph::{Dag, DagBuilder, GraphError, NameIndex, NodeId};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;

/// Identifies a workflow format (one frontend each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatId {
    /// Condor DAGMan input files (`JOB` / `PARENT … CHILD`).
    Dagman,
    /// The Makeflow/JSON-style graph format (`prio-workflow-v1`).
    Json,
    /// Whitespace/TSV edge lists (the serve-path ingest format).
    Edges,
    /// Built in memory by a generator, not parsed from text.
    Synthetic,
}

impl FormatId {
    /// The canonical lowercase name (CLI `--format` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            FormatId::Dagman => "dagman",
            FormatId::Json => "json",
            FormatId::Edges => "edges",
            FormatId::Synthetic => "synthetic",
        }
    }

    /// Parses a `--format` name (case-insensitive). `auto` and
    /// `synthetic` are not importable formats and return `None`.
    pub fn from_name(name: &str) -> Option<FormatId> {
        match name.to_ascii_lowercase().as_str() {
            "dagman" | "dag" => Some(FormatId::Dagman),
            "json" => Some(FormatId::Json),
            "edges" | "edge-list" | "tsv" => Some(FormatId::Edges),
            _ => None,
        }
    }

    /// The conventional file extension for the format.
    pub fn extension(self) -> &'static str {
        match self {
            FormatId::Dagman => "dag",
            FormatId::Json => "json",
            FormatId::Edges => "edges",
            FormatId::Synthetic => "dag",
        }
    }
}

impl fmt::Display for FormatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-job priorities, indexed by [`NodeId`]. Jobs without an assigned
/// priority are `None`; exporters omit them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Priorities {
    values: Vec<Option<i64>>,
}

impl Priorities {
    /// No priorities assigned, for a workflow of `n` jobs.
    pub fn none(n: usize) -> Priorities {
        Priorities {
            values: vec![None; n],
        }
    }

    /// Condor-style priorities from a schedule order over `n` jobs: the
    /// job at position 0 (executed first) gets priority `n`, the last
    /// gets 1. Jobs missing from `order` stay unassigned.
    pub fn from_order(order: &[NodeId], n: usize) -> Priorities {
        let mut p = Priorities::none(n);
        let total = order.len() as i64;
        for (i, &u) in order.iter().enumerate() {
            p.set(u, total - i as i64);
        }
        p
    }

    /// The priority of job `u`, if assigned.
    pub fn get(&self, u: NodeId) -> Option<i64> {
        self.values.get(u.index()).copied().flatten()
    }

    /// Assigns the priority of job `u`, growing the vector as needed.
    pub fn set(&mut self, u: NodeId, priority: i64) {
        if u.index() >= self.values.len() {
            self.values.resize(u.index() + 1, None);
        }
        self.values[u.index()] = Some(priority);
    }

    /// Number of slots (equals the workflow's job count after import).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no job has an assigned priority.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(Option::is_none)
    }

    /// Iterates over the assigned `(job, priority)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, i64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (NodeId(i as u32), p)))
    }
}

/// A format-agnostic workflow: the dependency dag, the format it came
/// from, any priorities the input carried, and sparse per-job string
/// metadata (e.g. a DAGMan submit file that differs from the
/// `<name>.submit` default).
///
/// Dereferences to [`Dag`], so `&Workflow` coerces to `&Dag` at any call
/// site expecting the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    dag: Dag,
    source: FormatId,
    priorities: Priorities,
    /// `(job index, key) -> value`, sparse.
    meta: BTreeMap<(u32, String), String>,
}

impl Workflow {
    /// Wraps a generator-built dag (no text source).
    pub fn synthetic(dag: Dag) -> Workflow {
        let n = dag.num_nodes();
        Workflow {
            dag,
            source: FormatId::Synthetic,
            priorities: Priorities::none(n),
            meta: BTreeMap::new(),
        }
    }

    /// Wraps a dag a frontend imported from `source` text, with no
    /// priorities or metadata yet, and records the
    /// `ir.import.{jobs,arcs}` counters.
    pub fn imported(dag: Dag, source: FormatId) -> Workflow {
        prio_obs::counter!("ir.import.jobs").add(dag.num_nodes() as u64);
        prio_obs::counter!("ir.import.arcs").add(dag.num_arcs() as u64);
        Workflow {
            source,
            ..Workflow::synthetic(dag)
        }
    }

    /// The dependency dag.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Consumes the workflow, returning the dag.
    pub fn into_dag(self) -> Dag {
        self.dag
    }

    /// The format the workflow was imported from.
    pub fn source(&self) -> FormatId {
        self.source
    }

    /// Priorities the input carried (empty unless the source assigned
    /// some).
    pub fn priorities(&self) -> &Priorities {
        &self.priorities
    }

    /// Replaces the carried priorities (e.g. after running the PRIO
    /// pipeline).
    pub fn set_priorities(&mut self, priorities: Priorities) {
        self.priorities = priorities;
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.dag.num_nodes()
    }

    /// The name of job `u`.
    pub fn job_name(&self, u: NodeId) -> &str {
        self.dag.label(u)
    }

    /// Looks up metadata `key` for job `u`.
    pub fn meta(&self, u: NodeId, key: &str) -> Option<&str> {
        self.meta.get(&(u.0, key.to_string())).map(String::as_str)
    }

    /// Sets metadata `key` for job `u`.
    pub fn set_meta(&mut self, u: NodeId, key: impl Into<String>, value: impl Into<String>) {
        self.meta.insert((u.0, key.into()), value.into());
    }

    /// Iterates over job `u`'s metadata in key order.
    pub fn meta_of(&self, u: NodeId) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.meta
            .range((u.0, String::new())..(u.0 + 1, String::new()))
            .map(|((_, k), v)| (k.as_str(), v.as_str()))
    }

    /// Structural + carried-data equality ignoring [`Workflow::source`]:
    /// same jobs in the same order, same arcs, same priorities, same
    /// metadata. This is the invariant cross-format conversion preserves
    /// (the source tag necessarily changes).
    pub fn same_content(&self, other: &Workflow) -> bool {
        self.dag == other.dag && self.priorities == other.priorities && self.meta == other.meta
    }
}

impl Deref for Workflow {
    type Target = Dag;

    fn deref(&self) -> &Dag {
        &self.dag
    }
}

/// Incrementally assembles a [`Workflow`]: get-or-insert jobs by name,
/// arcs by id, sparse priorities and metadata. Wraps the CSR-friendly
/// [`DagBuilder`], whose name table holds each job name once, and a
/// [`NameIndex`] over that table; frontends layer duplicate checks and
/// line numbers on top (via [`WorkflowBuilder::get`]) so errors carry
/// their own format provenance.
pub struct WorkflowBuilder {
    source: FormatId,
    dag: DagBuilder,
    /// Job name → job id, compared through `dag`'s labels.
    index: NameIndex,
    /// The job count the builder was sized for.
    jobs: usize,
    num_arcs: usize,
    priorities: Vec<(NodeId, i64)>,
    meta: Vec<(NodeId, String, String)>,
}

impl WorkflowBuilder {
    /// An empty builder for a workflow of format `source`.
    pub fn new(source: FormatId) -> WorkflowBuilder {
        Self::with_capacity(source, 0, 0)
    }

    /// An empty builder expecting roughly `jobs` jobs and `arcs` arcs.
    pub fn with_capacity(source: FormatId, jobs: usize, arcs: usize) -> WorkflowBuilder {
        WorkflowBuilder {
            source,
            dag: DagBuilder::with_capacity(jobs, arcs),
            index: NameIndex::with_capacity(jobs),
            jobs,
            num_arcs: 0,
            priorities: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Reserves room for `bytes` more bytes of job names.
    pub fn reserve_name_bytes(&mut self, bytes: usize) {
        self.dag.reserve_label_bytes(bytes);
    }

    /// Returns the job named `name`, inserting it on first mention.
    pub fn job(&mut self, name: &str) -> NodeId {
        self.lookup(name).unwrap_or_else(|u| u)
    }

    /// Inserts a job that must be new, in one lookup: `None` if `name` is
    /// already a job.
    pub fn new_job(&mut self, name: &str) -> Option<NodeId> {
        self.lookup(name).err()
    }

    /// Looks a job up without inserting.
    pub fn get(&self, name: &str) -> Option<NodeId> {
        self.index.get(name, label_of(&self.dag)).map(NodeId)
    }

    /// The job named `name` if there is one, else `Err` with the job it
    /// inserts.
    fn lookup(&mut self, name: &str) -> Result<NodeId, NodeId> {
        let slot = match self.index.find(name, label_of(&self.dag)) {
            Ok(id) => return Ok(NodeId(id)),
            Err(slot) => slot,
        };
        let u = self.dag.add_node(name);
        self.index.insert(slot, u.0, label_of(&self.dag));
        Err(u)
    }

    /// Number of jobs added so far.
    pub fn num_jobs(&self) -> usize {
        self.dag.num_nodes()
    }

    /// Adds the dependency arc `parent -> child`.
    pub fn arc(&mut self, parent: NodeId, child: NodeId) -> Result<(), GraphError> {
        self.dag.add_arc(parent, child)?;
        self.num_arcs += 1;
        Ok(())
    }

    /// Assigns job `u`'s priority (last assignment wins). The first
    /// assignment makes room for one per expected job.
    pub fn set_priority(&mut self, u: NodeId, priority: i64) {
        if self.priorities.capacity() == 0 {
            self.priorities.reserve(self.jobs);
        }
        self.priorities.push((u, priority));
    }

    /// Attaches metadata to job `u`.
    pub fn set_meta(&mut self, u: NodeId, key: impl Into<String>, value: impl Into<String>) {
        self.meta.push((u, key.into(), value.into()));
    }

    /// Finalizes the workflow, verifying acyclicity, and records the
    /// `ir.import.{jobs,arcs}` counters.
    pub fn build(self) -> Result<Workflow, PrioError> {
        // A cycle is an *input* defect, so it carries the source format's
        // provenance rather than surfacing as a bare graph error.
        let source = self.source;
        let dag = self
            .dag
            .build()
            .map_err(|e| ImportError::whole_file(source, e.to_string()))?;
        let mut wf = Workflow::imported(dag, source);
        for (u, p) in self.priorities {
            wf.priorities.set(u, p);
        }
        for (u, k, v) in self.meta {
            wf.set_meta(u, k, v);
        }
        Ok(wf)
    }
}

/// Job id → job name, for `dag`: how the name index compares names.
fn label_of<'a>(dag: &'a DagBuilder) -> impl Fn(u32) -> &'a str + Copy {
    move |id| dag.label(NodeId(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3() -> Workflow {
        let mut b = WorkflowBuilder::new(FormatId::Edges);
        let ids: Vec<NodeId> = ["a", "b", "c", "d", "e"].iter().map(|n| b.job(n)).collect();
        b.arc(ids[0], ids[1]).unwrap();
        b.arc(ids[2], ids[3]).unwrap();
        b.arc(ids[2], ids[4]).unwrap();
        b.set_priority(ids[2], 5);
        b.set_meta(ids[0], "submit", "custom.sub");
        b.build().unwrap()
    }

    #[test]
    fn builder_round_trips_structure() {
        let wf = fig3();
        assert_eq!(wf.num_jobs(), 5);
        assert_eq!(wf.num_arcs(), 3);
        assert_eq!(wf.source(), FormatId::Edges);
        assert_eq!(wf.job_name(NodeId(0)), "a");
        assert_eq!(wf.priorities().get(NodeId(2)), Some(5));
        assert_eq!(wf.priorities().get(NodeId(0)), None);
        assert_eq!(wf.meta(NodeId(0), "submit"), Some("custom.sub"));
        assert_eq!(wf.meta(NodeId(1), "submit"), None);
    }

    #[test]
    fn deref_exposes_dag_methods() {
        let wf = fig3();
        // Call Dag methods through the Workflow directly.
        assert_eq!(wf.children(NodeId(2)).len(), 2);
        assert_eq!(wf.find("d"), Some(NodeId(3)));
        fn takes_dag(d: &Dag) -> usize {
            d.num_nodes()
        }
        assert_eq!(takes_dag(&fig3()), 5); // deref coercion
    }

    #[test]
    fn job_is_get_or_insert() {
        let mut b = WorkflowBuilder::new(FormatId::Edges);
        let a1 = b.job("a");
        let a2 = b.job("a");
        assert_eq!(a1, a2);
        assert_eq!(b.num_jobs(), 1);
        assert_eq!(b.get("a"), Some(a1));
        assert_eq!(b.get("zz"), None);
    }

    #[test]
    fn new_job_rejects_a_repeated_name() {
        let mut b = WorkflowBuilder::new(FormatId::Json);
        let x = b.new_job("x").unwrap();
        assert_eq!(b.new_job("x"), None);
        assert_eq!(b.job("x"), x);
        // Enough names to grow the index past its first size.
        for i in 0..100 {
            assert_eq!(b.new_job(&format!("j{i}")), Some(NodeId(i + 1)));
        }
        assert_eq!(b.get("j42"), Some(NodeId(43)));
        assert_eq!(b.build().unwrap().job_name(NodeId(43)), "j42");
    }

    #[test]
    fn cycles_are_parse_stage_graph_errors() {
        let mut b = WorkflowBuilder::new(FormatId::Json);
        let a = b.job("a");
        let c = b.job("b");
        b.arc(a, c).unwrap();
        b.arc(c, a).unwrap();
        let err = b.build().unwrap_err();
        assert_eq!(err.stage(), crate::error::Stage::Parse);
        // Cycles are input defects: they surface as parse errors carrying
        // the source format's provenance.
        assert!(matches!(
            err,
            PrioError::Parse(ImportError {
                format: FormatId::Json,
                ..
            })
        ));
        assert!(err.to_string().starts_with("parse: json:"), "{err}");
    }

    #[test]
    fn import_counters_accumulate() {
        let jobs = prio_obs::counter!("ir.import.jobs").get();
        let arcs = prio_obs::counter!("ir.import.arcs").get();
        let _ = fig3();
        assert!(prio_obs::counter!("ir.import.jobs").get() >= jobs + 5);
        assert!(prio_obs::counter!("ir.import.arcs").get() >= arcs + 3);
    }

    #[test]
    fn priorities_from_order_matches_condor_convention() {
        let p = Priorities::from_order(&[NodeId(2), NodeId(0), NodeId(1)], 3);
        assert_eq!(p.get(NodeId(2)), Some(3));
        assert_eq!(p.get(NodeId(0)), Some(2));
        assert_eq!(p.get(NodeId(1)), Some(1));
        let pairs: Vec<(NodeId, i64)> = p.iter().collect();
        assert_eq!(pairs, vec![(NodeId(0), 2), (NodeId(1), 1), (NodeId(2), 3)]);
        assert!(!p.is_empty());
        assert!(Priorities::none(4).is_empty());
    }

    #[test]
    fn same_content_ignores_source_tag() {
        let a = fig3();
        let mut b = fig3();
        assert!(a.same_content(&b));
        b.set_priorities(Priorities::none(5));
        assert!(!a.same_content(&b));
    }

    #[test]
    fn format_names_round_trip() {
        for f in [FormatId::Dagman, FormatId::Json, FormatId::Edges] {
            assert_eq!(FormatId::from_name(f.name()), Some(f));
        }
        assert_eq!(FormatId::from_name("DAG"), Some(FormatId::Dagman));
        assert_eq!(FormatId::from_name("auto"), None);
        assert_eq!(FormatId::from_name("synthetic"), None);
        assert_eq!(FormatId::Dagman.extension(), "dag");
    }
}
