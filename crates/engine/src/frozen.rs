//! Names only the frozen `cqbench` still calls, one-line delegations that go when it next changes.

pub use cqapx_core::QueryClass as ApproxClassChoice;

pub fn choose_plan(
    shape: &cqapx_cq::QueryShape,
    tree: Option<&cqapx_cq::eval::TreePlan>,
    db: &crate::catalog::DatabaseEntry,
    naive_budget: f64,
) -> crate::planner::PlanDecision {
    crate::planner::choose(shape, tree, db, naive_budget)
}
