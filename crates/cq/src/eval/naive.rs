//! Naive CQ evaluation: backtracking join (homomorphism search from the
//! tableau into the database) — the workspace's **oracle**, not a
//! serving path: the engine answers every request through a prepared
//! query's tree plan, and the tests check that plan's answers against
//! these.
//!
//! Works for every CQ; combined complexity `|D|^O(|Q|)` in the worst case
//! — this is the baseline the paper's approximations beat. [`NaivePlan`]
//! compiles the tableau side once (a [`HomSolver`] with its constraints
//! and incidence lists) so that repeated evaluations — one query against
//! many databases, a membership probe per candidate answer — pay only
//! for the search; the database side rides on the per-structure index
//! cache. The free functions are one-shot sugar over it.

use crate::ast::ConjunctiveQuery;
use crate::eval::answers::{Answers, AnswersBuilder};
use crate::tableau::tableau_of;
use cqapx_structures::{Element, HomSearchStats, HomSolver, Pointed, SearchBudget, Structure};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// A compiled naive evaluator: the query's tableau with its hom-solver
/// compiled once, reusable against any number of databases.
///
/// # Examples
///
/// ```
/// use cqapx_cq::{eval::NaivePlan, parse_cq};
/// use cqapx_structures::Structure;
///
/// let plan = NaivePlan::compile(parse_cq("Q(x) :- E(x, y), E(y, x)").unwrap());
/// let d = Structure::digraph(3, &[(0, 1), (1, 0), (1, 2)]);
/// assert_eq!(plan.eval(&d).len(), 2); // x ∈ {0, 1}
/// ```
#[derive(Debug, Clone)]
pub struct NaivePlan {
    query: ConjunctiveQuery,
    tableau: Pointed,
    solver: HomSolver,
}

impl NaivePlan {
    /// Compiles the tableau of `q` for repeated evaluation.
    pub fn compile(query: ConjunctiveQuery) -> NaivePlan {
        let tableau = tableau_of(&query);
        let solver = HomSolver::compile(&tableau.structure);
        NaivePlan {
            query,
            tableau,
            solver,
        }
    }

    /// The compiled query.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The query's tableau `(T_Q, x̄)`.
    pub fn tableau(&self) -> &Pointed {
        &self.tableau
    }

    /// Streams answers of `Q(D)` to `f` (head-ordered tuples, possibly
    /// with repetitions — one per homomorphism) until `f` breaks or the
    /// optional shared budget runs dry. Returns the search statistics;
    /// answers seen before exhaustion are sound.
    pub fn for_each_answer<F: FnMut(&[Element]) -> ControlFlow<()>>(
        &self,
        d: &Structure,
        budget: Option<&SearchBudget>,
        mut f: F,
    ) -> HomSearchStats {
        let mut run = self.solver.run(d);
        if let Some(b) = budget {
            run = run.budget(b);
        }
        let mut answer: Vec<Element> = Vec::with_capacity(self.tableau.arity());
        run.for_each(|h| {
            answer.clear();
            answer.extend(self.tableau.distinguished().iter().map(|&v| h.apply(v)));
            f(&answer)
        })
    }

    /// Evaluates `Q(D)`: the set of answer tuples, as the tree of row
    /// vectors the rest of the workspace uses as its oracle.
    pub fn eval(&self, d: &Structure) -> BTreeSet<Vec<Element>> {
        self.eval_answers(d).to_btree_set()
    }

    /// Evaluates `Q(D)` into the flat [`Answers`] representation.
    /// Answers accumulate in one row buffer (contiguous, deduplicated
    /// by sorting) instead of a per-answer `Vec` insert into a tree.
    /// The search emits one tuple per homomorphism — possibly far more
    /// than there are distinct answers — so the builder re-dedups
    /// whenever the buffer doubles, keeping peak memory proportional to
    /// the answer set.
    pub fn eval_answers(&self, d: &Structure) -> Answers {
        // No width bound: the oracle canonicalizes through the
        // comparison sort, independent of the packed kernels.
        let mut answers = AnswersBuilder::new(self.query.arity(), 0);
        self.for_each_answer(d, None, |a| {
            answers.push_row(a);
            ControlFlow::Continue(())
        });
        answers.finish()
    }

    /// Decides `Q(D) ≠ ∅`.
    pub fn eval_boolean(&self, d: &Structure) -> bool {
        self.solver.run(d).exists()
    }

    /// Membership check `ā ∈ Q(D)` without materializing the answer set.
    /// A tuple whose length is not the query's arity, or that mentions an
    /// element outside `D`'s universe, is simply not an answer (`false`),
    /// not an error.
    pub fn contains_answer(&self, d: &Structure, answer: &[Element]) -> bool {
        if answer.len() != self.query.arity()
            || answer.iter().any(|&a| (a as usize) >= d.universe_size())
        {
            return false;
        }
        self.solver
            .run(d)
            .pin_tuple(self.tableau.distinguished(), answer)
            .exists()
    }
}

/// Evaluates `Q(D)`: the set of answer tuples.
///
/// # Examples
///
/// ```
/// use cqapx_cq::{eval::eval_naive, parse_cq};
/// use cqapx_structures::Structure;
///
/// let q = parse_cq("Q(x) :- E(x, y), E(y, x)").unwrap();
/// let d = Structure::digraph(3, &[(0, 1), (1, 0), (1, 2)]);
/// let answers = eval_naive(&q, &d);
/// assert_eq!(answers.len(), 2); // x ∈ {0, 1}
/// ```
pub fn eval_naive(q: &ConjunctiveQuery, d: &Structure) -> BTreeSet<Vec<Element>> {
    NaivePlan::compile(q.clone()).eval(d)
}

/// Evaluates a Boolean query (also usable for non-Boolean queries:
/// "is the answer nonempty?").
pub fn eval_boolean_naive(q: &ConjunctiveQuery, d: &Structure) -> bool {
    NaivePlan::compile(q.clone()).eval_boolean(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_cq;

    #[test]
    fn triangle_detection() {
        let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let with = Structure::digraph(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let without = Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(eval_boolean_naive(&q, &with));
        assert!(!eval_boolean_naive(&q, &without));
    }

    #[test]
    fn path_endpoints() {
        let q = parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap();
        let d = Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]);
        let ans = eval_naive(&q, &d);
        assert_eq!(
            ans,
            [vec![0, 2], vec![1, 3]]
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
        let plan = NaivePlan::compile(q);
        assert!(plan.contains_answer(&d, &[0, 2]));
        assert!(!plan.contains_answer(&d, &[0, 3]));
    }

    #[test]
    fn repeated_head_vars() {
        let q = parse_cq("Q(x, x) :- E(x, y)").unwrap();
        let d = Structure::digraph(2, &[(0, 1)]);
        let ans = eval_naive(&q, &d);
        assert_eq!(ans, [vec![0, 0]].into_iter().collect::<BTreeSet<_>>());
    }

    #[test]
    fn empty_database() {
        let q = parse_cq("Q(x) :- E(x, y)").unwrap();
        let d = Structure::digraph(3, &[]);
        assert!(eval_naive(&q, &d).is_empty());
        assert!(!eval_boolean_naive(&q, &d));
    }

    #[test]
    fn plan_reused_across_databases() {
        let plan = NaivePlan::compile(parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
        let d1 = Structure::digraph(3, &[(0, 1), (1, 2)]);
        let d2 = Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(plan.eval(&d1).len(), 1);
        assert_eq!(plan.eval(&d2).len(), 2);
        assert!(plan.eval_boolean(&d2));
        assert!(plan.contains_answer(&d2, &[1, 3]));
        assert!(!plan.contains_answer(&d1, &[1, 3]));
    }

    #[test]
    fn wrong_length_answers_are_not_answers() {
        let plan = NaivePlan::compile(parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
        let d = Structure::digraph(3, &[(0, 1), (1, 2)]);
        assert!(plan.contains_answer(&d, &[0, 2]));
        assert!(!plan.contains_answer(&d, &[0]), "too short");
        assert!(!plan.contains_answer(&d, &[0, 2, 1]), "too long");
    }

    #[test]
    fn budgeted_answers_are_sound() {
        let plan = NaivePlan::compile(parse_cq("Q(x) :- E(x,y), E(y,z), E(z,x)").unwrap());
        let d = Structure::digraph(4, &[(0, 1), (1, 2), (2, 0), (3, 3)]);
        let full = plan.eval(&d);
        let budget = SearchBudget::new(2);
        let mut partial: Vec<Vec<Element>> = Vec::new();
        let stats = plan.for_each_answer(&d, Some(&budget), |a| {
            partial.push(a.to_vec());
            ControlFlow::Continue(())
        });
        for a in &partial {
            assert!(full.contains(a));
        }
        assert!(stats.budget_exhausted || partial.len() >= full.len());
    }
}
