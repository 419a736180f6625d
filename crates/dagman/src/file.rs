//! The line-indexed DAGMan file.
//!
//! A DAGMan input file is a sequence of line statements. The subset the
//! `prio` tool needs semantically is `JOB` and `SUBDAG EXTERNAL` (the
//! nodes) and `PARENT … CHILD …` (the dependencies); `VARS` and
//! `PRIORITY` carry node priorities; everything else (comments, `RETRY`,
//! `SCRIPT`, `CONFIG`, …) is kept verbatim so instrumentation is a
//! minimal diff.
//!
//! [`DagmanFile`] owns the text and indexes it instead of copying it into
//! per-statement strings: one [`Line`] record per input line holding
//! `u32` byte spans into the text, one name table filled during the parse
//! (each distinct job name hashed once, in a [`NameIndex`]), and the
//! `PARENT … CHILD` lists as name ids in one flat array. The dag
//! extraction, the IR import, instrumentation and the writer all work
//! from these ids and spans.

use crate::error::DagmanError;
use prio_graph::{Dag, GraphError, NameIndex, NameTable, NodeId};

/// `node_of` entry of a name no `JOB`/`SUBDAG` declares.
pub(crate) const NONE: u32 = u32::MAX;

/// A byte range of the file's text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    pub start: u32,
    pub end: u32,
}

impl Span {
    /// The span `part`, a subslice of `text`, occupies in `text`.
    pub(crate) fn of(text: &str, part: &str) -> Span {
        let start = part.as_ptr() as usize - text.as_ptr() as usize;
        Span {
            start: start as u32,
            end: (start + part.len()) as u32,
        }
    }

    /// The text under the span.
    pub(crate) fn get(self, text: &str) -> &str {
        &text[self.start as usize..self.end as usize]
    }
}

/// Name id → name, for the spans `names` of `text`: how the name index
/// compares names.
fn name_of<'a>(text: &'a str, names: &'a [Span]) -> impl Fn(u32) -> &'a str + Copy {
    move |id| names[id as usize].get(text)
}

/// One input line, classified by its keyword. Names are name ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Line {
    /// An empty or whitespace-only line.
    Blank,
    /// A comment or a statement the tool does not interpret, verbatim.
    Verbatim(Span),
    /// `JOB <name> <submit file> [options…]`; `options` runs from the
    /// first option token to the last (empty when there are none).
    Job {
        name: u32,
        submit: Span,
        options: Span,
    },
    /// `SUBDAG EXTERNAL <name> <dag file>`.
    Subdag { name: u32, dag_file: Span },
    /// `PARENT … CHILD …`: the parents are `refs[start..split]`, the
    /// children `refs[split..end]`.
    Parent { start: u32, split: u32, end: u32 },
    /// `VARS <job> key="value" …`: the pairs as written, whether one has
    /// the `jobpriority` key, and the value instrumentation gave it.
    Vars {
        name: u32,
        pairs: Span,
        jobpriority: bool,
        set: Option<u32>,
    },
    /// `PRIORITY <job> <value>`.
    Priority { name: u32, value: i64 },
}

/// A node: its name id and the index of the line declaring it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node {
    pub name: u32,
    pub line: u32,
}

/// The statements instrumentation inserts right after a node's `JOB` or
/// `SUBDAG` line: a `PRIORITY` line, then a `VARS … jobpriority` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Inserted {
    pub priority: Option<u32>,
    pub vars: Option<u32>,
}

/// A parsed DAGMan input file: its text, one record per line, and the
/// node and name tables resolved in the parse.
#[derive(Debug, Clone)]
pub struct DagmanFile {
    pub(crate) text: String,
    pub(crate) lines: Vec<Line>,
    /// Name id → span, every distinct name in first-mention order.
    pub(crate) names: Vec<Span>,
    /// Name id → node id, or [`NONE`].
    pub(crate) node_of: Vec<u32>,
    /// Node id → node, in declaration order.
    pub(crate) nodes: Vec<Node>,
    /// The `PARENT … CHILD` name lists, flat.
    pub(crate) refs: Vec<u32>,
    /// Name → name id, compared through `names`.
    pub(crate) index: NameIndex,
    /// The first repeated declaration: `(line index, name id)`.
    pub(crate) duplicate: Option<(u32, u32)>,
    /// Per node, once instrumented; empty before.
    pub(crate) inserted: Vec<Inserted>,
}

impl DagmanFile {
    /// The text of name id `name`.
    pub(crate) fn name(&self, name: u32) -> &str {
        self.names[name as usize].get(&self.text)
    }

    /// The text under `span`.
    pub(crate) fn str(&self, span: Span) -> &str {
        span.get(&self.text)
    }

    /// The node named `name`, if a `JOB`/`SUBDAG` line declares it.
    pub(crate) fn node(&self, name: &str) -> Option<NodeId> {
        let id = self.index.get(name, name_of(&self.text, &self.names))?;
        Some(NodeId(self.node_of[id as usize])).filter(|u| u.0 != NONE)
    }

    /// Number of nodes (jobs and external sub-dags).
    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The declared node names, in declaration order.
    pub fn job_names(&self) -> Vec<&str> {
        self.nodes.iter().map(|n| self.name(n.name)).collect()
    }

    /// Builds a DAGMan file from a dag: one `JOB` per node, with the
    /// submit file the caller names for its label, and one `PARENT …
    /// CHILD` per node with children. The text and its index are built
    /// together; parsing the text gives the same file.
    pub fn from_dag_with(dag: &Dag, submit_file_for: impl Fn(&str) -> String) -> DagmanFile {
        let parents = dag.node_ids().filter(|&u| dag.out_degree(u) > 0).count();
        let mut file = DagmanFile::with_capacity(dag.num_nodes() + parents);
        let mut text = String::with_capacity(dag.num_nodes() * 48 + dag.num_arcs() * 16);
        let push = |text: &mut String, head: &str, token: &str| {
            text.push_str(head);
            text.push_str(token);
            Span {
                start: (text.len() - token.len()) as u32,
                end: text.len() as u32,
            }
        };
        let mut ids = Vec::with_capacity(dag.num_nodes());
        for u in dag.node_ids() {
            let name = push(&mut text, "JOB ", dag.label(u));
            let submit = push(&mut text, " ", &submit_file_for(dag.label(u)));
            text.push('\n');
            let name = file.declare(&text, name, file.lines.len());
            ids.push(name);
            file.lines.push(Line::Job {
                name,
                submit,
                options: Span::default(),
            });
        }
        for u in dag.node_ids() {
            let Some((&first, rest)) = dag.children(u).split_first() else {
                continue;
            };
            let start = file.refs.len() as u32;
            push(&mut text, "PARENT ", dag.label(u));
            push(&mut text, " CHILD ", dag.label(first));
            file.refs.extend([ids[u.index()], ids[first.index()]]);
            for &c in rest {
                push(&mut text, " ", dag.label(c));
                file.refs.push(ids[c.index()]);
            }
            text.push('\n');
            let end = file.refs.len() as u32;
            file.lines.push(Line::Parent {
                start,
                split: start + 1,
                end,
            });
        }
        // Spans are `u32`, as `parse_dagman` requires of its input.
        assert!(text.len() < u32::MAX as usize, "DAGMan text exceeds 4 GiB");
        file.text = text;
        file
    }

    /// An empty file whose tables are sized for about `lines` lines.
    pub(crate) fn with_capacity(lines: usize) -> DagmanFile {
        DagmanFile {
            text: String::new(),
            lines: Vec::with_capacity(lines),
            names: Vec::with_capacity(lines),
            node_of: Vec::with_capacity(lines),
            nodes: Vec::with_capacity(lines),
            refs: Vec::with_capacity(lines * 2),
            index: NameIndex::with_capacity(lines),
            duplicate: None,
            inserted: Vec::new(),
        }
    }

    /// The name id of the name at `span` of `text` (the text the file
    /// will own), giving it the next id on first mention.
    pub(crate) fn intern(&mut self, text: &str, span: Span) -> u32 {
        match self.index.find(span.get(text), name_of(text, &self.names)) {
            Ok(id) => id,
            Err(slot) => {
                let id = self.names.len() as u32;
                self.names.push(span);
                self.node_of.push(NONE);
                self.index.insert(slot, id, name_of(text, &self.names));
                id
            }
        }
    }

    /// [`DagmanFile::intern`], declaring the name a node on line index
    /// `line`; a repeated declaration is kept as the file's first
    /// duplicate.
    pub(crate) fn declare(&mut self, text: &str, span: Span, line: usize) -> u32 {
        let name = self.intern(text, span);
        let node = &mut self.node_of[name as usize];
        if *node == NONE {
            *node = self.nodes.len() as u32;
            self.nodes.push(Node {
                name,
                line: line as u32,
            });
        } else if self.duplicate.is_none() {
            self.duplicate = Some((line as u32, name));
        }
        name
    }

    /// The submit file declared for `job`, if any.
    pub fn submit_file(&self, job: &str) -> Option<&str> {
        let u = self.node(job)?;
        match self.lines[self.nodes[u.index()].line as usize] {
            Line::Job { submit, .. } => Some(self.str(submit)),
            _ => None,
        }
    }

    /// The distinct submit files the `JOB` statements declare, each once,
    /// in the order they are first referenced, borrowed from the text:
    /// deduplicated as spans through a name index, the way the parse
    /// interns job names.
    pub fn submit_files(&self) -> impl Iterator<Item = &str> {
        let mut distinct: Vec<Span> = Vec::new();
        let mut index = NameIndex::with_capacity(0);
        for line in &self.lines {
            if let Line::Job { submit, .. } = *line {
                if let Err(slot) = index.find(self.str(submit), name_of(&self.text, &distinct)) {
                    distinct.push(submit);
                    let id = distinct.len() as u32 - 1;
                    index.insert(slot, id, name_of(&self.text, &distinct));
                }
            }
        }
        distinct.into_iter().map(|span| self.str(span))
    }

    /// Extracts the job-dependency DAG. Node indices follow declaration
    /// order, and node labels are the job names.
    ///
    /// Fails on a repeated declaration (at its line), a dependency naming
    /// an undeclared job (at the `PARENT` line), or cyclic dependencies.
    pub fn to_dag(&self) -> Result<Dag, DagmanError> {
        if let Some((line, name)) = self.duplicate {
            return Err(DagmanError::DuplicateJob {
                line: line as usize + 1,
                job: self.name(name).to_string(),
            });
        }
        let mut arcs = Vec::with_capacity(self.refs.len());
        for (i, line) in self.lines.iter().enumerate() {
            let Line::Parent { start, split, end } = *line else {
                continue;
            };
            let node = |name: u32| match self.node_of[name as usize] {
                NONE => Err(DagmanError::UnknownJob {
                    line: i + 1,
                    job: self.name(name).to_string(),
                }),
                u => Ok(NodeId(u)),
            };
            for &p in &self.refs[start as usize..split as usize] {
                for &c in &self.refs[split as usize..end as usize] {
                    let (pu, cu) = (node(p)?, node(c)?);
                    if pu == cu {
                        return Err(DagmanError::Cyclic {
                            job: self.name(p).to_string(),
                        });
                    }
                    arcs.push((pu, cu));
                }
            }
        }
        let bytes = self.nodes.iter().map(|n| self.name(n.name).len()).sum();
        let mut labels = NameTable::with_capacity(self.nodes.len(), bytes);
        for n in &self.nodes {
            labels.push(self.name(n.name));
        }
        Dag::from_named_arcs(labels, arcs).map_err(|e| match e {
            GraphError::Cycle { on_cycle } => DagmanError::Cyclic {
                job: self.name(self.nodes[on_cycle as usize].name).to_string(),
            },
            other => DagmanError::Malformed {
                line: 0,
                message: other.to_string(),
            },
        })
    }

    /// The value of a `VARS` macro for a job, unescaped, as the file
    /// would be written: the last definition wins, counting the
    /// statements instrumentation inserted and the values it set.
    pub fn vars_value(&self, job: &str, key: &str) -> Option<String> {
        let id = self.index.get(job, name_of(&self.text, &self.names))?;
        let node = self.node_of[id as usize];
        self.lines.iter().rev().find_map(|line| match *line {
            Line::Vars {
                name, pairs, set, ..
            } if name == id => {
                let pairs = crate::parse::vars_pairs(self.str(pairs)).map_while(Result::ok);
                let (k, v) = pairs.filter(|&(k, _)| k == key).last()?;
                Some(match set {
                    Some(p) if k == crate::instrument::JOBPRIORITY => p.to_string(),
                    _ => crate::parse::unescape(v),
                })
            }
            Line::Job { name, .. } if name == id && key == crate::instrument::JOBPRIORITY => {
                let vars = self.inserted.get(node as usize)?.vars?;
                Some(vars.to_string())
            }
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_dagman;

    const FIG3: &str = "# Fig. 3 example\nJOB a a.submit\nJOB b b.submit\nJOB c c.submit\n\
                        JOB d d.submit\nJOB e e.submit\nPARENT a CHILD b\nPARENT c CHILD d e\n";

    #[test]
    fn job_names_in_order() {
        assert_eq!(
            parse_dagman(FIG3).unwrap().job_names(),
            ["a", "b", "c", "d", "e"]
        );
    }

    #[test]
    fn to_dag_matches_dependencies() {
        let dag = parse_dagman(FIG3).unwrap().to_dag().unwrap();
        assert_eq!(dag.num_nodes(), 5);
        assert_eq!(dag.num_arcs(), 3);
        let c = dag.find("c").unwrap();
        assert_eq!(dag.out_degree(c), 2);
        assert_eq!(dag.label(NodeId(0)), "a");
    }

    #[test]
    fn multi_parent_child_expands_to_product() {
        let f = parse_dagman("JOB p1 x\nJOB p2 x\nJOB c1 x\nJOB c2 x\nPARENT p1 p2 CHILD c1 c2\n");
        assert_eq!(f.unwrap().to_dag().unwrap().num_arcs(), 4);
    }

    #[test]
    fn errors_name_the_job_and_its_line() {
        let err = |text: &str| parse_dagman(text).unwrap().to_dag().unwrap_err();
        let unknown = |line, job: &str| DagmanError::UnknownJob {
            line,
            job: job.into(),
        };
        let duplicate = |line, job: &str| DagmanError::DuplicateJob {
            line,
            job: job.into(),
        };
        let cyclic = |job: &str| DagmanError::Cyclic { job: job.into() };
        assert_eq!(err("JOB a x\n\nPARENT a CHILD ghost"), unknown(3, "ghost"));
        // Within a line: the first parent, then the children, then the
        // other parents; across lines, file order.
        assert_eq!(err("JOB a x\nPARENT a g1 CHILD g2"), unknown(2, "g2"));
        assert_eq!(err("JOB a x\nPARENT g1 a CHILD g2"), unknown(2, "g1"));
        assert_eq!(
            err("JOB a x\nPARENT a CHILD a\nPARENT a CHILD g"),
            cyclic("a")
        );
        // Every repeated declaration is reported before any dependency.
        assert_eq!(
            err("JOB a x\nPARENT a CHILD g\nJOB b x\nSUBDAG EXTERNAL a y.dag\nJOB b x"),
            duplicate(4, "a")
        );
        assert_eq!(
            err("JOB a x\nJOB b x\nPARENT a CHILD b\nPARENT b CHILD a"),
            cyclic("a")
        );
    }

    #[test]
    fn vars_lookup_takes_last_definition() {
        let f = parse_dagman(
            "JOB a x\nVARS a jobpriority=\"1\"\nVARS a other=\"2\"\nVARS a jobpriority=\"9\" k=\"v\"",
        )
        .unwrap();
        assert_eq!(f.vars_value("a", "jobpriority").as_deref(), Some("9"));
        assert_eq!(f.vars_value("a", "other").as_deref(), Some("2"));
        assert_eq!(f.vars_value("a", "missing"), None);
        assert_eq!(f.vars_value("b", "jobpriority"), None);
    }

    #[test]
    fn submit_file_lookup() {
        let f = parse_dagman(FIG3).unwrap();
        assert_eq!(f.submit_file("c"), Some("c.submit"));
        assert_eq!(f.submit_file("zz"), None);
        let f = parse_dagman("JOB a s1\nSUBDAG EXTERNAL d d.dag\nJOB b s2\nJOB c s1\n").unwrap();
        assert_eq!(f.submit_file("d"), None, "a sub-dag has no submit file");
        assert_eq!(f.submit_files().collect::<Vec<_>>(), ["s1", "s2"]);
    }

    #[test]
    fn from_dag_writes_one_job_and_one_parent_line_per_node() {
        let dag = parse_dagman(FIG3).unwrap().to_dag().unwrap();
        let f = DagmanFile::from_dag_with(&dag, |label| format!("{label}.submit"));
        assert_eq!(f.to_dag().unwrap(), dag);
        assert_eq!(
            crate::write::write_dagman(&f),
            "JOB a a.submit\nJOB b b.submit\nJOB c c.submit\nJOB d d.submit\nJOB e e.submit\n\
             PARENT a CHILD b\nPARENT c CHILD d e\n"
        );
    }

    /// The index `from_dag_with` builds along with its text is the one
    /// parsing that text builds.
    #[test]
    fn from_dag_builds_what_parsing_its_text_builds() {
        let fig3 = parse_dagman(FIG3).unwrap().to_dag().unwrap();
        let sparse = Dag::from_arcs(40, &[(0, 5), (0, 6), (3, 39), (5, 39), (7, 8)]).unwrap();
        for dag in [fig3, sparse] {
            let built = DagmanFile::from_dag_with(&dag, |l| format!("{}.sub", &l[..1]));
            let parsed = parse_dagman(&built.text).unwrap();
            assert_eq!(built.text, parsed.text);
            assert_eq!(built.lines, parsed.lines);
            assert_eq!(built.names, parsed.names);
            assert_eq!(built.node_of, parsed.node_of);
            assert_eq!(built.nodes, parsed.nodes);
            assert_eq!(built.refs, parsed.refs);
            assert_eq!(built.to_dag().unwrap(), dag);
            for name in dag.node_ids().map(|u| dag.label(u)) {
                assert_eq!(built.node(name), dag.find(name));
            }
        }
    }
}
