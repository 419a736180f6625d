//! The DAGMan input-file AST.
//!
//! A DAGMan input file is a sequence of line statements. The subset the
//! `prio` tool needs semantically is `JOB` (name + submit description file)
//! and `PARENT … CHILD …` (dependencies); `VARS` is read and written for
//! the `jobpriority` macro; everything else (comments, `RETRY`, `SCRIPT`,
//! `CONFIG`, …) is preserved verbatim so instrumentation is a minimal diff.

use crate::error::DagmanError;
use prio_graph::{Dag, DagBuilder, NodeId};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// An interned job name.
///
/// Job names repeat across `JOB`, `PARENT … CHILD`, `VARS` and `PRIORITY`
/// statements — on large .dag files almost every token is a name already
/// seen — so statements share one reference-counted allocation per
/// distinct name instead of a fresh `String` per token. The type (and the
/// interner producing it) lives in `prio-ir` so every frontend shares it.
pub type JobName = prio_ir::JobName;

/// One statement (line) of a DAGMan input file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// A blank line.
    Blank,
    /// A comment line (`# …`), stored with its text verbatim.
    Comment(String),
    /// `JOB <name> <submit-file> [options…]` — declares a job and the JSDF
    /// describing it.
    Job {
        /// The job name.
        name: JobName,
        /// Path of the job-submit description file.
        submit_file: String,
        /// Trailing options (e.g. `DIR x`, `DONE`), verbatim tokens.
        options: Vec<String>,
    },
    /// `PARENT <p…> CHILD <c…>` — every parent precedes every child.
    ParentChild {
        /// Parent job names.
        parents: Vec<JobName>,
        /// Child job names.
        children: Vec<JobName>,
    },
    /// `VARS <job> key="value" …` — macros passed to the job's JSDF.
    Vars {
        /// The job the macros apply to.
        job: JobName,
        /// `(key, value)` pairs in file order.
        pairs: Vec<(String, String)>,
    },
    /// `SUBDAG EXTERNAL <name> <dag-file>` — a nested dag run as a single
    /// node; scheduled like a job (DAGMan treats it as one).
    Subdag {
        /// The node name.
        name: JobName,
        /// Path of the nested DAGMan input file.
        dag_file: String,
    },
    /// `PRIORITY <job> <value>` — DAGMan's direct node-priority statement
    /// (an alternative to the `VARS`+JSDF mechanism).
    Priority {
        /// The job.
        job: JobName,
        /// The priority value (larger = earlier).
        value: i64,
    },
    /// Any other statement (RETRY, SCRIPT, CONFIG, …), preserved verbatim.
    Other(String),
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Blank => Ok(()),
            Statement::Comment(text) => write!(f, "{text}"),
            Statement::Job {
                name,
                submit_file,
                options,
            } => {
                write!(f, "JOB {name} {submit_file}")?;
                for o in options {
                    write!(f, " {o}")?;
                }
                Ok(())
            }
            Statement::ParentChild { parents, children } => {
                write!(
                    f,
                    "PARENT {} CHILD {}",
                    parents.join(" "),
                    children.join(" ")
                )
            }
            Statement::Vars { job, pairs } => {
                write!(f, "VARS {job}")?;
                for (k, v) in pairs {
                    write!(f, " {k}=\"{v}\"")?;
                }
                Ok(())
            }
            Statement::Subdag { name, dag_file } => {
                write!(f, "SUBDAG EXTERNAL {name} {dag_file}")
            }
            Statement::Priority { job, value } => write!(f, "PRIORITY {job} {value}"),
            Statement::Other(text) => write!(f, "{text}"),
        }
    }
}

/// A parsed DAGMan input file: an ordered list of statements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DagmanFile {
    /// The statements, in file order.
    pub statements: Vec<Statement>,
}

impl DagmanFile {
    /// The declared node names (jobs and external sub-dags), in
    /// declaration order.
    pub fn job_names(&self) -> Vec<&str> {
        self.statements
            .iter()
            .filter_map(|s| match s {
                Statement::Job { name, .. } => Some(&**name),
                Statement::Subdag { name, .. } => Some(&**name),
                _ => None,
            })
            .collect()
    }

    /// Builds a DAGMan file from a dag: one `JOB` per node (submit file
    /// `<label>.submit` unless a `submit_file_for` override is given) and
    /// one `PARENT … CHILD` per node with children.
    pub fn from_dag(dag: &prio_graph::Dag) -> DagmanFile {
        Self::from_dag_with(dag, |label| format!("{label}.submit"))
    }

    /// [`DagmanFile::from_dag`] with a caller-chosen submit-file name per
    /// job label.
    pub fn from_dag_with(
        dag: &prio_graph::Dag,
        submit_file_for: impl Fn(&str) -> String,
    ) -> DagmanFile {
        let mut statements = Vec::with_capacity(dag.num_nodes() * 2);
        // One interned name per node, shared between the JOB statement and
        // every PARENT/CHILD occurrence.
        let names: Vec<JobName> = dag
            .node_ids()
            .map(|u| JobName::from(dag.label(u)))
            .collect();
        for u in dag.node_ids() {
            statements.push(Statement::Job {
                name: names[u.index()].clone(),
                submit_file: submit_file_for(dag.label(u)),
                options: vec![],
            });
        }
        for u in dag.node_ids() {
            let children = dag.children(u);
            if !children.is_empty() {
                statements.push(Statement::ParentChild {
                    parents: vec![names[u.index()].clone()],
                    children: children.iter().map(|&c| names[c.index()].clone()).collect(),
                });
            }
        }
        DagmanFile { statements }
    }

    /// The submit file declared for `job`, if any.
    pub fn submit_file(&self, job: &str) -> Option<&str> {
        self.statements.iter().find_map(|s| match s {
            Statement::Job {
                name, submit_file, ..
            } if &**name == job => Some(submit_file.as_str()),
            _ => None,
        })
    }

    /// The distinct submit files the `JOB` statements declare, each once,
    /// in the order they are first referenced. One pass over the
    /// statements, unlike calling [`DagmanFile::submit_file`] per job.
    pub fn submit_files(&self) -> impl Iterator<Item = &str> {
        let mut seen: HashSet<&str> = HashSet::new();
        self.statements.iter().filter_map(move |s| match s {
            Statement::Job { submit_file, .. } if seen.insert(submit_file) => {
                Some(submit_file.as_str())
            }
            _ => None,
        })
    }

    /// Extracts the job-dependency DAG. Node indices follow declaration
    /// order, and node labels are the job names.
    ///
    /// Fails on duplicate job declarations, dependencies naming undeclared
    /// jobs, or cyclic dependencies.
    pub fn to_dag(&self) -> Result<Dag, DagmanError> {
        let mut b = DagBuilder::new();
        let mut ids: HashMap<&str, NodeId> = HashMap::new();
        for s in &self.statements {
            let name = match s {
                Statement::Job { name, .. } => name,
                Statement::Subdag { name, .. } => name,
                _ => continue,
            };
            if ids.contains_key(&**name) {
                return Err(DagmanError::DuplicateJob {
                    line: 0,
                    job: name.to_string(),
                });
            }
            ids.insert(&**name, b.add_node(&**name));
        }
        for s in &self.statements {
            if let Statement::ParentChild { parents, children } = s {
                for p in parents {
                    for c in children {
                        let (&pu, &cu) = match (ids.get(&**p), ids.get(&**c)) {
                            (Some(pu), Some(cu)) => (pu, cu),
                            (None, _) => {
                                return Err(DagmanError::UnknownJob {
                                    line: 0,
                                    job: p.to_string(),
                                })
                            }
                            (_, None) => {
                                return Err(DagmanError::UnknownJob {
                                    line: 0,
                                    job: c.to_string(),
                                })
                            }
                        };
                        b.add_arc(pu, cu)
                            .map_err(|_| DagmanError::Cyclic { job: p.to_string() })?;
                    }
                }
            }
        }
        b.build().map_err(|e| match e {
            prio_graph::GraphError::Cycle { on_cycle } => DagmanError::Cyclic {
                job: self
                    .job_names()
                    .get(on_cycle as usize)
                    .unwrap_or(&"?")
                    .to_string(),
            },
            other => DagmanError::Malformed {
                line: 0,
                message: other.to_string(),
            },
        })
    }

    /// Looks up the value of a `VARS` macro for a job, if defined.
    pub fn vars_value(&self, job: &str, key: &str) -> Option<&str> {
        self.statements.iter().rev().find_map(|s| match s {
            Statement::Vars { job: j, pairs } if &**j == job => pairs
                .iter()
                .rev()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str()),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_file() -> DagmanFile {
        DagmanFile {
            statements: vec![
                Statement::Comment("# Fig. 3 example".into()),
                Statement::Job {
                    name: "a".into(),
                    submit_file: "a.submit".into(),
                    options: vec![],
                },
                Statement::Job {
                    name: "b".into(),
                    submit_file: "b.submit".into(),
                    options: vec![],
                },
                Statement::Job {
                    name: "c".into(),
                    submit_file: "c.submit".into(),
                    options: vec![],
                },
                Statement::Job {
                    name: "d".into(),
                    submit_file: "d.submit".into(),
                    options: vec![],
                },
                Statement::Job {
                    name: "e".into(),
                    submit_file: "e.submit".into(),
                    options: vec![],
                },
                Statement::ParentChild {
                    parents: vec!["a".into()],
                    children: vec!["b".into()],
                },
                Statement::ParentChild {
                    parents: vec!["c".into()],
                    children: vec!["d".into(), "e".into()],
                },
            ],
        }
    }

    #[test]
    fn job_names_in_order() {
        assert_eq!(fig3_file().job_names(), vec!["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn to_dag_matches_dependencies() {
        let dag = fig3_file().to_dag().unwrap();
        assert_eq!(dag.num_nodes(), 5);
        assert_eq!(dag.num_arcs(), 3);
        let c = dag.find("c").unwrap();
        assert_eq!(dag.out_degree(c), 2);
        assert_eq!(dag.label(NodeId(0)), "a");
    }

    #[test]
    fn multi_parent_child_expands_to_product() {
        let f = DagmanFile {
            statements: vec![
                Statement::Job {
                    name: "p1".into(),
                    submit_file: "x".into(),
                    options: vec![],
                },
                Statement::Job {
                    name: "p2".into(),
                    submit_file: "x".into(),
                    options: vec![],
                },
                Statement::Job {
                    name: "c1".into(),
                    submit_file: "x".into(),
                    options: vec![],
                },
                Statement::Job {
                    name: "c2".into(),
                    submit_file: "x".into(),
                    options: vec![],
                },
                Statement::ParentChild {
                    parents: vec!["p1".into(), "p2".into()],
                    children: vec!["c1".into(), "c2".into()],
                },
            ],
        };
        let dag = f.to_dag().unwrap();
        assert_eq!(dag.num_arcs(), 4);
    }

    #[test]
    fn unknown_job_rejected() {
        let f = DagmanFile {
            statements: vec![
                Statement::Job {
                    name: "a".into(),
                    submit_file: "x".into(),
                    options: vec![],
                },
                Statement::ParentChild {
                    parents: vec!["a".into()],
                    children: vec!["ghost".into()],
                },
            ],
        };
        assert!(matches!(f.to_dag(), Err(DagmanError::UnknownJob { .. })));
    }

    #[test]
    fn duplicate_job_rejected() {
        let f = DagmanFile {
            statements: vec![
                Statement::Job {
                    name: "a".into(),
                    submit_file: "x".into(),
                    options: vec![],
                },
                Statement::Job {
                    name: "a".into(),
                    submit_file: "y".into(),
                    options: vec![],
                },
            ],
        };
        assert!(matches!(f.to_dag(), Err(DagmanError::DuplicateJob { .. })));
    }

    #[test]
    fn cycle_rejected() {
        let f = DagmanFile {
            statements: vec![
                Statement::Job {
                    name: "a".into(),
                    submit_file: "x".into(),
                    options: vec![],
                },
                Statement::Job {
                    name: "b".into(),
                    submit_file: "x".into(),
                    options: vec![],
                },
                Statement::ParentChild {
                    parents: vec!["a".into()],
                    children: vec!["b".into()],
                },
                Statement::ParentChild {
                    parents: vec!["b".into()],
                    children: vec!["a".into()],
                },
            ],
        };
        assert!(matches!(f.to_dag(), Err(DagmanError::Cyclic { .. })));
    }

    #[test]
    fn vars_lookup_takes_last_definition() {
        let f = DagmanFile {
            statements: vec![
                Statement::Job {
                    name: "a".into(),
                    submit_file: "x".into(),
                    options: vec![],
                },
                Statement::Vars {
                    job: "a".into(),
                    pairs: vec![("jobpriority".into(), "1".into())],
                },
                Statement::Vars {
                    job: "a".into(),
                    pairs: vec![("jobpriority".into(), "9".into())],
                },
            ],
        };
        assert_eq!(f.vars_value("a", "jobpriority"), Some("9"));
        assert_eq!(f.vars_value("a", "other"), None);
        assert_eq!(f.vars_value("b", "jobpriority"), None);
    }

    #[test]
    fn submit_file_lookup() {
        assert_eq!(fig3_file().submit_file("c"), Some("c.submit"));
        assert_eq!(fig3_file().submit_file("zz"), None);
    }
}
