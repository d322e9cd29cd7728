//! **Efficient approximations of conjunctive queries** — the algorithms of
//! Barceló, Libkin & Romero (PODS 2012).
//!
//! Given a conjunctive query `Q` that is expensive to evaluate (combined
//! complexity `|D|^O(|Q|)`), a **`C`-approximation** is a query `Q' ∈ C`
//! with `Q' ⊆ Q` such that no `Q'' ∈ C` satisfies `Q' ⊂ Q'' ⊆ Q`
//! (Definition 3.1): the best guaranteed-correct under-approximation of `Q`
//! within a tractable class `C`. This crate computes them:
//!
//! * [`classes`] — the tractable classes as one enum, [`QueryClass`]:
//!   [`QueryClass::TwK`] (`TW(k)`, graph-based), [`QueryClass::Acyclic`]
//!   (`AC`, hypergraph-based), [`QueryClass::HtwK`] (`HTW(k)`,
//!   hypergraph-based), each variant also exported by itself;
//! * [`approx`] — the approximation algorithms. Graph-based classes follow
//!   Theorem 4.1 (approximations live among the **quotients** of the
//!   tableau; enumerate, filter by class, keep the →-minimal ones);
//!   hypergraph-based classes follow Theorem 6.1 / Claim 6.2 (quotients
//!   plus bounded **repair augmentations**, taking ⊆-maximal candidates);
//! * [`trivial`] — the always-present bottom elements `Q^triv`,
//!   `Q^triv₂`, `Q^triv_{k+1}`;
//! * [`trichotomy`] — the structure theorems for queries over graphs
//!   (Theorems 5.1, 5.8, 5.10; Corollaries 5.3, 5.11);
//! * [`strong`] — strong treewidth approximations for higher-arity
//!   vocabularies (§5.3, Propositions 5.13–5.15);
//! * [`identify`] — the `Treewidth-k Approximation` decision problem
//!   (DP-complete, Theorem 4.12).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod approx;
pub mod classes;
pub mod identify;
pub mod over;
pub mod strong;
pub mod trichotomy;
pub mod trivial;

pub use approx::{
    all_approximations, all_approximations_tableaux, walk_approximations_tableaux, ApproxCacheKey,
    ApproxOptions, ApproxReport,
};
pub use classes::{Acyclic, HtwK, QueryClass, TwK};
pub use identify::is_approximation;
pub use trichotomy::{classify_boolean_graph_query, BooleanTrichotomy};
pub use trivial::{trivial_bipartite_query, trivial_k_query, trivial_query};
