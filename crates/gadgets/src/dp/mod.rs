//! The Theorem 4.12 (DP-completeness) gadgetry — the paper's appendix,
//! Figures 6–19.
//!
//! The reduction is from `Exact Four Colorability` to
//! `Graph Acyclic Approximation`. Its raw material is a family of
//! oriented paths of equal net length 11 and height 11 that are pairwise
//! incomparable cores (`P₁ … P₉`), "folding" paths `P_{ij}`, `P_{ijk}`
//! that map exactly into chosen subsets of them, a balanced tree `Q*`
//! whose acyclic folds `T₁ … T₄` are the four "colors", the auxiliary
//! `T₅`, connector trees `T_{ij}`, `T_{ijk}`, the big target `T`
//! (Figure 14), and chooser gadgets assembled from the connectors.
//!
//! Everything specified in the *text* of the appendix is built here and
//! machine-verified in tests. The plain choosers of Figure 15 exist only
//! as a lost figure, so they are not built; the [`choosers`] module
//! substitutes the interface they would implement and the harness that
//! verifies any candidate wiring (the extended choosers, given in the
//! text, are built and pass it).

pub mod anchored;
pub mod big_t;
pub mod choosers;
pub mod connectors;
pub mod core_forcing;
pub mod paths;
pub mod qstar;

pub use anchored::Anchored;
pub use big_t::{big_t, BigT};
pub use connectors::{t_ij, t_ijk};
pub use paths::{p_i, p_ij, p_ijk};
pub use qstar::{q_star, t_5, t_i, QStar};
