//! # prio-graph — DAG substrate for the `dagprio` workspace
//!
//! This crate provides the directed-acyclic-graph machinery that the
//! scheduling heuristic of Malewicz, Foster, Rosenberg and Wilde
//! (*"A Tool for Prioritizing DAGMan Jobs and Its Evaluation"*, 2006) is
//! built on:
//!
//! * a compact, immutable [`Dag`] representation with forward and backward
//!   adjacency and one [`NameTable`] of labels, built through a validating
//!   [`DagBuilder`];
//! * the one name → id index, [`NameIndex`], that every frontend looks
//!   job names up through;
//! * deterministic topological sorting and linear-extension checking
//!   ([`topo`]);
//! * reachability queries, transitive closure and critical-path lengths
//!   ([`reach`]);
//! * *shortcut removal*, i.e. transitive reduction — Step 1 of the paper's
//!   Divide phase ([`reduction`]);
//! * bipartite-dag and connectivity analysis used by the decomposition —
//!   Step 2 of the Divide phase ([`bipartite`]);
//! * Graphviz DOT export used to reproduce the paper's Fig. 5 ([`dot`]).
//!
//! The crate is dependency-free and deterministic: iteration orders are a
//! function of node indices only, never of hash-map order.
//!
//! ## Quick example
//!
//! ```
//! use prio_graph::DagBuilder;
//!
//! let mut b = DagBuilder::new();
//! let a = b.add_node("a");
//! let bb = b.add_node("b");
//! let c = b.add_node("c");
//! b.add_arc(a, bb).unwrap();
//! b.add_arc(a, c).unwrap();
//! let dag = b.build().unwrap();
//! assert_eq!(dag.sources().collect::<Vec<_>>(), vec![a]);
//! assert_eq!(dag.sinks().count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bipartite;
pub mod bitset;
pub mod compose;
pub mod dag;
pub mod dot;
pub mod error;
pub mod labelhash;
pub mod reach;
pub mod reduction;
pub mod scratch;
pub mod topo;

pub use bitset::FixedBitSet;
pub use dag::{Dag, DagBuilder, DagView, InducedCsr, NameTable, NodeId};
pub use error::GraphError;
pub use labelhash::{NameHashBuild, NameHasher, NameIndex, Vacant};
pub use scratch::{GraphScratch, ScratchArena, SubgraphScratch};
