//! Structure theorems for queries over graphs (Section 5).
//!
//! * **Theorem 5.1** (Boolean trichotomy): classify `T_Q` as not
//!   bipartite / bipartite-unbalanced / bipartite-balanced; the acyclic
//!   approximations are resp. only `Q^triv`, only `Q^triv₂`, or all
//!   nontrivial and `K⃗₂`-free. Both tests are polynomial-time.
//! * **Corollary 5.3**: for cyclic Boolean graph CQs, every minimized
//!   acyclic approximation has strictly fewer joins.
//! * **Theorem 5.8** (non-Boolean dichotomy): approximations have a loop
//!   atom iff `T_Q` is not bipartite.
//! * **Theorem 5.10 / Corollary 5.11**: `TW(k)`-approximations have a loop
//!   iff `T_Q` is not `(k+1)`-colorable; a Boolean graph CQ has a
//!   nontrivial `TW(k)`-approximation iff its tableau is `(k+1)`-colorable.
//! * **Proposition 5.12**: testing whether `Q^triv_{k+1}` is a
//!   `TW(k)`-approximation is NP-hard for `k ≥ 2` (the reduction
//!   `G ↦ G^↔ + K⃗_{k+1}` is implemented in `cqapx-gadgets`).
//!
//! Theorem 5.8 and Corollary 5.11 are the decision forms of the
//! approximation search's trivial-quotient cut (`crate::approx`): a
//! quotient of `T_Q` with a block that holds the loop of every relation
//! and the whole head is equivalent to `Q^triv`, so the search expands
//! none and considers `Q^triv` once. For a Boolean graph query every
//! leaf the walk reaches is then loop-free, and an in-class loop-free
//! quotient is a `(k+1)`-colouring of `T_Q`: the walk into `TW(k)`
//! reaches an in-class leaf exactly when Corollary 5.11 promises a
//! nontrivial approximation, and otherwise returns `Q^triv` alone.
//!
//! The search uses these forms, not only mirrors them in that cut: for
//! a Boolean tableau over one binary relation it decides first —
//! {`Q^triv`} when the tableau is not `(k+1)`-colourable, {`Q^triv₂`} for
//! `k = 1` when it is bipartite but unbalanced — and walks only what the
//! decision leaves open. The decision is one pass over the tableau's
//! tuples into one [`Adjacency`] buffer; the public decision forms below
//! read queries the same way.

use cqapx_cq::ConjunctiveQuery;
use cqapx_graphs::coloring::Adjacency;
use cqapx_structures::Vocabulary;

/// The three cases of Theorem 5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BooleanTrichotomy {
    /// `T_Q` is not bipartite: the only acyclic approximation is
    /// `Q^triv() :- E(x,x)`.
    NotBipartite,
    /// `T_Q` is bipartite but not balanced: the only acyclic approximation
    /// is `Q^triv₂() :- E(x,y), E(y,x)`.
    BipartiteUnbalanced,
    /// `T_Q` is bipartite and balanced: all acyclic approximations are
    /// nontrivial and contain no `E(x,y), E(y,x)` pair.
    BipartiteBalanced,
}

/// What §5 says of a Boolean graph query's `TW(k)`-approximations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// The tableau is not `(k+1)`-colourable: {`Q^triv`} (Corollary 5.11,
    /// and Theorem 5.1's first case at `k = 1`).
    Trivial,
    /// `k = 1`, bipartite but unbalanced: {`Q^triv₂`} (Theorem 5.1).
    TrivialBipartite,
    /// Every approximation is nontrivial: only the walk finds them.
    Walk,
}

/// §5 on `g`, the underlying graph of a Boolean graph query's tableau:
/// one breadth-first pass for `k = 1` (bipartite, balanced), an exact
/// `(k+1)`-colouring otherwise.
pub(crate) fn decide(mut g: Adjacency, k: usize) -> Decision {
    let (colourable, balanced) = match k {
        1 => g.levels(),
        _ => (g.colorable(k + 1), true),
    };
    match (colourable, balanced) {
        (false, _) => Decision::Trivial,
        (true, false) => Decision::TrivialBipartite,
        (true, true) => Decision::Walk,
    }
}

/// The underlying graph of a graph CQ's tableau. Asserts that the query
/// is over the graphs vocabulary.
fn tableau_graph(q: &ConjunctiveQuery) -> Adjacency {
    assert_eq!(
        q.vocabulary(),
        &Vocabulary::graphs(),
        "theorem applies to queries over graphs"
    );
    let edges = q.atoms().map(|a| (a.args[0], a.args[1]));
    Adjacency::new(q.var_count(), edges)
}

/// Classifies a Boolean graph CQ per Theorem 5.1 (polynomial time).
///
/// # Examples
///
/// ```
/// use cqapx_core::{classify_boolean_graph_query, BooleanTrichotomy};
/// use cqapx_cq::parse_cq;
///
/// let tri = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
/// assert_eq!(
///     classify_boolean_graph_query(&tri),
///     BooleanTrichotomy::NotBipartite
/// );
///
/// let c4 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap();
/// assert_eq!(
///     classify_boolean_graph_query(&c4),
///     BooleanTrichotomy::BipartiteUnbalanced
/// );
/// ```
pub fn classify_boolean_graph_query(q: &ConjunctiveQuery) -> BooleanTrichotomy {
    assert!(q.is_boolean(), "Theorem 5.1 is about Boolean queries");
    match decide(tableau_graph(q), 1) {
        Decision::Trivial => BooleanTrichotomy::NotBipartite,
        Decision::TrivialBipartite => BooleanTrichotomy::BipartiteUnbalanced,
        Decision::Walk => BooleanTrichotomy::BipartiteBalanced,
    }
}

/// Theorem 5.8, decision form: do the acyclic approximations of the
/// (possibly non-Boolean) graph CQ contain a loop atom `E(x,x)`?
///
/// `true` iff `T_Q` is not bipartite.
pub fn approximations_need_loop(q: &ConjunctiveQuery) -> bool {
    !tableau_graph(q).colorable(2)
}

/// Theorem 5.10, decision form: do the `TW(k)`-approximations of the graph
/// CQ contain a loop atom? `true` iff `T_Q` is not `(k+1)`-colorable.
///
/// Note the complexity gap the paper highlights: for `k = 1` this is
/// bipartiteness (polynomial), for `k ≥ 2` it is `(k+1)`-colorability
/// (NP-complete).
pub fn twk_approximations_need_loop(q: &ConjunctiveQuery, k: usize) -> bool {
    !tableau_graph(q).colorable(k + 1)
}

/// Corollary 5.11: a Boolean graph CQ has a nontrivial
/// `TW(k)`-approximation iff its tableau is `(k+1)`-colorable.
pub fn has_nontrivial_twk_approximation(q: &ConjunctiveQuery, k: usize) -> bool {
    assert!(q.is_boolean(), "Corollary 5.11 is about Boolean queries");
    decide(tableau_graph(q), k) != Decision::Trivial
}

/// `true` when the graph CQ is cyclic (its tableau, viewed as a digraph,
/// has an oriented cycle of length ≥ 3 — equivalently `Q ∉ TW(1)` once
/// loops and double edges are set aside per the query-hypergraph reading).
pub fn is_cyclic_graph_query(q: &ConjunctiveQuery) -> bool {
    !cqapx_cq::classes::is_acyclic_query(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{all_approximations, ApproxOptions};
    use crate::classes::TwK;
    use cqapx_cq::{equivalent, parse_cq, tableau_of};
    use cqapx_graphs::Digraph;

    #[test]
    fn trichotomy_classification() {
        let balanced = parse_cq("Q() :- E(x,y), E(z,y), E(z,u)").unwrap();
        assert_eq!(
            classify_boolean_graph_query(&balanced),
            BooleanTrichotomy::BipartiteBalanced
        );
        let c5 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)").unwrap();
        assert_eq!(
            classify_boolean_graph_query(&c5),
            BooleanTrichotomy::NotBipartite
        );
        let loops = parse_cq("Q() :- E(x,x), E(x,y)").unwrap();
        assert_eq!(
            classify_boolean_graph_query(&loops),
            BooleanTrichotomy::NotBipartite
        );
    }

    #[test]
    fn trichotomy_predicts_approximations() {
        // One query per class; verify the predicted shape of acyclic
        // approximations via the exact algorithm.
        let opts = ApproxOptions::default();

        // Not bipartite → trivial loop only.
        let tri = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let rep = all_approximations(&tri, &TwK(1), &opts);
        assert_eq!(rep.approximations.len(), 1);
        assert!(equivalent(
            &rep.approximations[0],
            &crate::trivial::trivial_query(tri.vocabulary(), 0)
        ));

        // Bipartite unbalanced → K2^<-> only.
        let c4 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap();
        let rep = all_approximations(&c4, &TwK(1), &opts);
        assert_eq!(rep.approximations.len(), 1);
        assert!(equivalent(
            &rep.approximations[0],
            &crate::trivial::trivial_bipartite_query()
        ));

        // Bipartite balanced → nontrivial, no K2^<-> subgoals.
        let q2 = parse_cq(
            "Q() :- E(x,y), E(y,z), E(z,u), E(x1,y1), E(y1,z1), E(z1,u1), E(x,z1), E(y,u1)",
        )
        .unwrap();
        assert_eq!(
            classify_boolean_graph_query(&q2),
            BooleanTrichotomy::BipartiteBalanced
        );
        let rep = all_approximations(&q2, &TwK(1), &opts);
        for a in &rep.approximations {
            // no loop atom, no symmetric pair
            for atom in a.atoms() {
                assert_ne!(atom.args[0], atom.args[1], "no loops in {a}");
            }
            let t = tableau_of(a);
            let g = Digraph::from_structure(&t.structure);
            for (u, v) in g.edges() {
                assert!(!g.has_edge(v, u), "no K2 in {a}");
            }
        }
    }

    #[test]
    fn corollary_53_fewer_joins() {
        // Every minimized acyclic approximation of a cyclic Boolean graph
        // CQ has strictly fewer joins.
        for qs in [
            "Q() :- E(x,y), E(y,z), E(z,x)",
            "Q() :- E(a,b), E(b,c), E(c,d), E(d,a)",
            "Q() :- E(x,y), E(y,z), E(z,u), E(x1,y1), E(y1,z1), E(z1,u1), E(x,z1), E(y,u1)",
        ] {
            let q = parse_cq(qs).unwrap();
            assert!(is_cyclic_graph_query(&q));
            let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
            for a in &rep.approximations {
                assert!(
                    a.join_count() < q.join_count(),
                    "{a} must have fewer joins than {q}"
                );
            }
        }
    }

    #[test]
    fn theorem_58_dichotomy() {
        // Non-bipartite with free vars: loop required.
        let q = parse_cq("Q(x, y) :- E(x,y), E(y,z), E(z,x)").unwrap();
        assert!(approximations_need_loop(&q));
        let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
        for a in &rep.approximations {
            assert!(
                a.atoms().any(|at| at.args[0] == at.args[1]),
                "loop atom required in {a}"
            );
        }
        // Bipartite: some approximation avoids loops.
        let q = parse_cq("Q(x) :- E(x,y), E(z,y), E(z,u), E(x,u)").unwrap();
        assert!(!approximations_need_loop(&q));
        let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
        assert!(rep
            .approximations
            .iter()
            .any(|a| a.atoms().all(|at| at.args[0] != at.args[1])));
    }

    #[test]
    fn corollary_511_characterization() {
        // Wheel with odd rim: chromatic number 4 → no nontrivial TW(2)
        // approximation; but 4-colorable → nontrivial TW(3) approximation.
        use cqapx_graphs::generators::wheel;
        use cqapx_structures::Pointed;
        let q = cqapx_cq::query_from_tableau(&Pointed::boolean(wheel(5).to_structure()));
        assert!(!has_nontrivial_twk_approximation(&q, 2));
        assert!(has_nontrivial_twk_approximation(&q, 3));
        assert!(twk_approximations_need_loop(&q, 2));
        assert!(!twk_approximations_need_loop(&q, 3));
    }
}
