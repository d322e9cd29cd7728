//! Conjunctive queries: representation, parsing, tableaux, containment,
//! minimization, and evaluation (naive and Yannakakis).
//!
//! A conjunctive query over a vocabulary `σ` is a formula
//! `Q(x̄) = ∃ȳ ⋀ⱼ R_{iⱼ}(x̄_{iⱼ})`, written in rule notation
//! `Q(x̄) :- R₁(…), …, R_m(…)`. Key facts from Chandra & Merlin used
//! throughout the paper and this crate:
//!
//! * `ā ∈ Q(D)` iff `(T_Q, x̄) → (D, ā)` — evaluation is homomorphism
//!   search from the **tableau**;
//! * `Q ⊆ Q'` iff `(T_{Q'}, x̄') → (T_Q, x̄)` — containment is the dual
//!   homomorphism;
//! * every CQ has a unique **minimized** equivalent whose tableau is the
//!   core of `T_Q`.
//!
//! Evaluation:
//!
//! * [`eval::naive`] — backtracking join (works for every CQ; combined
//!   complexity `|D|^O(|Q|)`);
//! * [`eval::tree`] — Yannakakis' `O(|D|·|Q|)`-flavored algorithm for
//!   **acyclic** CQs (semijoin full reducer over a join tree, then
//!   bottom-up joins with projection), and the same over the bags of a
//!   tree decomposition for `TW(k)`. This is the payoff the paper's
//!   approximations buy: replace `Q` by an acyclic `Q' ⊆ Q` and evaluate
//!   `Q'` with Yannakakis.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ast;
pub mod classes;
pub mod containment;
pub mod eval;
pub mod parser;
pub mod shape;
pub mod tableau;

pub use ast::{Atom, ConjunctiveQuery, VarId};
pub use classes::{query_graph, treewidth_of_query};
pub use containment::{contained_in, equivalent, is_minimized, minimize, strictly_contained_in};
pub use parser::{parse_cq, parse_cq_with_vocab};
pub use shape::QueryShape;
pub use tableau::{query_from_tableau, tableau_of};
