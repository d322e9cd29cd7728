//! Names only the frozen `cqbench` still calls, one-line delegations that go when it next changes.

use super::{EvalProfile, FlatRelation, MatCacheStats, MaterializationCache, PlanIr, TreePlan};

pub struct AcyclicPlan;
pub struct DecomposedPlan;

impl AcyclicPlan {
    pub fn compile(q: &crate::ConjunctiveQuery) -> Option<TreePlan> {
        TreePlan::join_tree(q)
    }
}

impl DecomposedPlan {
    pub fn compile(q: &crate::ConjunctiveQuery, k: usize) -> Option<TreePlan> {
        TreePlan::within_width(q, k)
    }
}

impl PlanIr {
    pub fn eval_with_cache(
        &self,
        d: &cqapx_structures::Structure,
        cache: &MaterializationCache,
        _: &cqapx_par::ThreadBudget,
    ) -> (super::Answers, MatCacheStats) {
        self.answers(d, Some(cache))
    }
    pub fn run_budget_profiled(
        &self,
        d: &cqapx_structures::Structure,
        cache: Option<&MaterializationCache>,
        _: &cqapx_par::ThreadBudget,
        profile: Option<&mut EvalProfile>,
    ) -> (Option<FlatRelation>, MatCacheStats) {
        self.run(d, cache, profile)
    }
    pub fn run_boolean_budget_profiled(
        &self,
        d: &cqapx_structures::Structure,
        cache: Option<&MaterializationCache>,
        _: &cqapx_par::ThreadBudget,
        profile: Option<&mut EvalProfile>,
    ) -> (bool, MatCacheStats) {
        self.run_boolean(d, cache, profile)
    }
}
