//! Graph substrate for the self-stabilizing constrained-spanning-tree reproduction.
//!
//! This crate provides everything the distributed algorithms assume to exist *outside*
//! of the self-stabilizing state model:
//!
//! * the network itself ([`Graph`]): a simple connected undirected graph with distinct
//!   node identities and (optionally) distinct edge weights, exactly the assumptions of
//!   §II of Blin–Fraigniaud (ICDCS 2015);
//! * graph [`generators`] used as workloads for the experiments;
//! * rooted spanning trees encoded by parent pointers ([`Tree`]), the distributed output
//!   representation used throughout the paper;
//! * sequential *reference* algorithms used as oracles by tests and benchmarks:
//!   BFS ([`bfs`]), minimum-weight spanning trees ([`mst`]: Kruskal, Prim, Borůvka),
//!   nearest common ancestors ([`nca`]), and minimum-degree spanning trees
//!   ([`fr`]: the Fürer–Raghavachari +1-approximation and an exact search for small graphs).
//!
//! Nothing in this crate is distributed; it is the ground truth the distributed layer is
//! checked against.

pub mod bfs;
pub mod fr;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod marks;
pub mod mst;
pub mod mutation;
pub mod nca;
pub mod properties;
pub mod tree;
pub mod union_find;

pub use graph::{EdgeId, Graph};
pub use ids::{Ident, NodeId, Weight};
pub use mutation::{Mutation, MutationOutcome};
pub use tree::Tree;
