//! The [`Evaluator`] trait: one interface over the naive backtracking
//! join and compiled Yannakakis plans, so engines and planners can pick a
//! strategy per (query, database) pair and swap it without touching call
//! sites.

use crate::ast::ConjunctiveQuery;
use crate::eval::answers::Answers;
use crate::eval::decomposed::DecomposedPlan;
use crate::eval::flat::{MatCacheStats, MaterializationCache};
use crate::eval::naive::NaivePlan;
use crate::eval::yannakakis::AcyclicPlan;
use cqapx_par::ThreadBudget;
use cqapx_structures::Structure;

/// A prepared evaluation strategy for one conjunctive query.
///
/// Implementations must agree on semantics: `eval` returns exactly
/// `Q(D)` in head order, and `eval_boolean` is `!eval(d).is_empty()`
/// (possibly computed faster).
pub trait Evaluator {
    /// Evaluates `Q(D)`: the full answer set, tuples in head order.
    fn eval(&self, d: &Structure) -> Answers;

    /// Decides `Q(D) ≠ ∅`.
    fn eval_boolean(&self, d: &Structure) -> bool {
        !self.eval(d).is_empty()
    }

    /// Evaluates `Q(D)` through a per-database [`MaterializationCache`],
    /// reporting the cache outcome. Strategies that materialize
    /// hyperedge relations (Yannakakis, the decomposed tier) override
    /// this to share scans across queries; the default ignores the
    /// cache. The [`ThreadBudget`] is unused by every strategy: it
    /// stays only because the frozen `cqbench` calls this signature,
    /// and goes with the next change to `cqbench`.
    fn eval_with_cache(
        &self,
        d: &Structure,
        _cache: &MaterializationCache,
        _budget: &ThreadBudget,
    ) -> (Answers, MatCacheStats) {
        (self.eval(d), MatCacheStats::default())
    }

    /// A short display name for plans/stats, e.g. `"naive"`.
    fn strategy_name(&self) -> &'static str;
}

/// The backtracking-join evaluator; works for every CQ. The tableau's
/// hom-solver is compiled once at construction (see [`NaivePlan`]), so
/// repeated evaluations pay only for the search.
#[derive(Debug, Clone)]
pub struct NaiveEvaluator {
    plan: NaivePlan,
}

impl NaiveEvaluator {
    /// Compiles a query for repeated naive evaluation.
    pub fn new(query: ConjunctiveQuery) -> Self {
        NaiveEvaluator {
            plan: NaivePlan::compile(query),
        }
    }
}

impl Evaluator for NaiveEvaluator {
    fn eval(&self, d: &Structure) -> Answers {
        self.plan.eval_answers(d)
    }

    fn eval_boolean(&self, d: &Structure) -> bool {
        self.plan.eval_boolean(d)
    }

    fn strategy_name(&self) -> &'static str {
        "naive"
    }
}

impl Evaluator for AcyclicPlan {
    fn eval(&self, d: &Structure) -> Answers {
        AcyclicPlan::eval(self, d)
    }

    fn eval_boolean(&self, d: &Structure) -> bool {
        AcyclicPlan::eval_boolean(self, d)
    }

    fn eval_with_cache(
        &self,
        d: &Structure,
        cache: &MaterializationCache,
        _budget: &ThreadBudget,
    ) -> (Answers, MatCacheStats) {
        AcyclicPlan::eval_cached(self, d, Some(cache))
    }

    fn strategy_name(&self) -> &'static str {
        "yannakakis"
    }
}

impl Evaluator for DecomposedPlan {
    fn eval(&self, d: &Structure) -> Answers {
        DecomposedPlan::eval(self, d)
    }

    fn eval_boolean(&self, d: &Structure) -> bool {
        DecomposedPlan::eval_boolean(self, d)
    }

    fn eval_with_cache(
        &self,
        d: &Structure,
        cache: &MaterializationCache,
        _budget: &ThreadBudget,
    ) -> (Answers, MatCacheStats) {
        DecomposedPlan::eval_cached(self, d, Some(cache))
    }

    fn strategy_name(&self) -> &'static str {
        "decomposed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_cq;

    #[test]
    fn trait_objects_agree() {
        let q = parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap();
        let d = Structure::digraph(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)]);
        let evals: Vec<Box<dyn Evaluator>> = vec![
            Box::new(NaiveEvaluator::new(q.clone())),
            Box::new(AcyclicPlan::compile(&q).unwrap()),
            Box::new(DecomposedPlan::compile(&q, 1).unwrap()),
        ];
        let expected = evals[0].eval(&d);
        assert!(!expected.is_empty());
        for e in &evals {
            assert_eq!(e.eval(&d), expected, "{}", e.strategy_name());
            assert!(e.eval_boolean(&d), "{}", e.strategy_name());
        }
    }

    #[test]
    fn default_boolean_matches_eval() {
        let q = parse_cq("Q() :- E(x, y), E(y, x)").unwrap();
        let yes = Structure::digraph(2, &[(0, 1), (1, 0)]);
        let no = Structure::digraph(2, &[(0, 1)]);
        let n = NaiveEvaluator::new(q);
        assert!(n.eval_boolean(&yes));
        assert!(!n.eval_boolean(&no));
    }
}
