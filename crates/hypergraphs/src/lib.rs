//! Hypergraphs: acyclicity, join trees, and hypertree width.
//!
//! The hypergraph-based tractable classes of the paper (Section 6) are:
//!
//! * `AC` — α-acyclic hypergraphs (Yannakakis' class), decided by **GYO
//!   reduction**, with a **join tree** witness;
//! * `HTW(k)` — hypertree width at most `k` (Gottlob, Leone & Scarcello),
//!   with `AC = HTW(1)`; membership is polynomial for fixed `k` (we
//!   implement a det-k-decomp-style search).
//!
//! Generalized hypertree width (`GHTW(k)`) is not implemented: membership
//! is NP-complete for `k ≥ 3` (Gottlob, Miklós & Schwentick), and no class
//! of the approximation search uses it. Lemma 6.4 closes `HTW(k)` under
//! **induced subhypergraphs** ([`Hypergraph::induced`]) and **edge
//! extensions**; the latter have no method here, and the property tests
//! build them by hand.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod gyo;
pub mod htw;
pub mod hypergraph;
pub mod jointree;

pub use gyo::{gyo_reduce, is_acyclic};
pub use htw::{htw_at_most, HypertreeDecomposition};
pub use hypergraph::Hypergraph;
pub use jointree::JoinTree;
