//! Digraph and graph algorithms backing the graph-based query classes.
//!
//! The PODS 2012 paper studies approximations of conjunctive queries within
//! classes defined by the **graph** `G(Q)` of a query: bounded treewidth
//! `TW(k)` (with `TW(1)` = acyclic for queries over graphs). Its structural
//! results hinge on digraph combinatorics from Hell & Nešetřil's theory of
//! graph homomorphisms:
//!
//! * oriented paths/cycles written as `{0,1}` strings (`0` = forward edge,
//!   `1` = backward edge), their **net length**;
//! * **balanced** digraphs, **levels** and **height** (Lemma 4.5: between
//!   balanced digraphs of equal height, homomorphisms preserve levels);
//! * bipartiteness (`G → K⃗₂`) and `(k+1)`-colorability (`G → K⃗_{k+1}`),
//!   which characterize nontrivial `TW(k)`-approximations (Thms 5.1, 5.10);
//! * **treewidth** and tree decompositions, the membership test of `TW(k)`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod balance;
pub mod coloring;
pub mod digraph;
pub mod generators;
pub mod oriented;
pub mod treewidth;

pub use balance::{height, is_balanced, levels, BalanceInfo};
pub use coloring::{chromatic_number, is_bipartite, is_k_colorable};
pub use digraph::Digraph;
pub use oriented::OrientedPath;
pub use treewidth::{
    component_decomposition, min_width_decomposition, treewidth, treewidth_at_most, BitGraph,
    TreeDecomposition,
};
