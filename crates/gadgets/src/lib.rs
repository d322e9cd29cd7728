//! The paper's constructions, implemented as reusable gadget builders.
//!
//! These are the objects behind the lower bounds and examples:
//!
//! * [`prop44`] — Figures 3–5: the family `(Q_n)` with exponentially many
//!   non-equivalent `TW(1)`-approximations (`P₁ = 001000`, `P₂ = 000100`,
//!   the digraph `D`, its folds `D_ac`/`D_bd`, the chains `G_n`, `G_n^s`);
//! * [`tight`] — Proposition 5.6 / Example 5.7: tight acyclic
//!   approximations (`G_k` vs the directed path `P_{k+1}`);
//! * [`dp`] — the appendix of Theorem 4.12 (Figures 6–19): the oriented
//!   paths `P_i = 0^{i+1} 1 0^{11−i}`, the folding paths `P_{ij}`,
//!   `P_{ijk}`, the balanced gadget `Q*`, its acyclic folds `T₁…T₄`, the
//!   auxiliary `T₅`, the connectors `T_{ij}`, `T_{ijk}`, the big target
//!   `T`, and the extended choosers `S̃₂₁`, `S̃₃₄`;
//! * [`decision`] — the decision problems the reduction targets:
//!   `Exact Acyclic Homomorphism` and `Graph Acyclic Approximation`
//!   (both DP-complete);
//! * [`paper_examples`] — the worked queries quoted in the paper
//!   (introduction, Examples 5.7 and 6.6, Propositions 5.9, 5.15).
//!
//! Everything that the paper states *in the text* about these gadgets is
//! machine-checked in this crate's tests with the homomorphism engine
//! (incomparability of cores, uniqueness of homomorphisms, the extended
//! chooser pair tables, levels and heights). The one component whose exact
//! wiring exists only in a lost figure, the plain choosers of Figure 15,
//! is not built: it is replaced by an interface ([`dp::choosers::PairGadget`])
//! and a harness ([`dp::choosers::pair_table`]) that computes the
//! realizable color pairs of any candidate wiring — see [`dp::choosers`].

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod decision;
pub mod dp;
pub mod paper_examples;
pub mod prop44;
pub mod tight;
