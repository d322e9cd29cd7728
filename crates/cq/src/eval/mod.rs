//! Query evaluation: Yannakakis over a tree — the join tree of an
//! acyclic CQ or the bags of a tree decomposition, one [`TreePlan`] for
//! every query — compiled to the shared physical plan IR of [`ir`],
//! executing on the columnar join kernel of [`flat`] and handing results
//! out as the flat sorted [`Answers`] of [`answers`]. A compiled plan
//! answers through its program alone: [`PlanIr::answers`] for the answer
//! set, [`PlanIr::run_boolean`] for `Q(D) ≠ ∅`. Naive backtracking
//! ([`naive`]) is the oracle the plans are tested against.

pub mod answers;
mod decomposed;
pub mod flat;
pub mod flight;
#[doc(hidden)]
pub mod frozen;
pub mod ir;
pub mod naive;
pub mod tree;
mod yannakakis;

pub use answers::{AnswerRow, Answers, AnswersBuilder, AnswersIter};
pub use flat::{
    bitmap_stats, packed_stats, AtomBinder, BitmapStats, FlatRelation, MatCacheStats,
    MaterializationCache, PackedStats,
};
pub use frozen::*;
pub use ir::{EvalProfile, MatPart, MatSource, NodeSpec, Op, OpProfile, PlanIr};
pub use naive::{eval_boolean_naive, eval_naive, NaivePlan};
pub use tree::TreePlan;
