//! The trivial queries: bottom elements of the containment order.
//!
//! * `Q^trivial` — one variable `x`, the conjunction of `R(x, …, x)` over
//!   every relation symbol. Its tableau maps into every tableau via the
//!   constant homomorphism, so `Q^trivial ⊆ Q` for every `Q` (with matching
//!   head shape), and it lies in every class considered (Section 4.1).
//! * `Q^triv₂` — the trivial *bipartite* graph query `E(x,y), E(y,x)`
//!   (tableau `K⃗₂`): contained in every Boolean graph CQ with bipartite
//!   tableau (Theorem 5.1).
//! * `Q^triv_{k+1}` — tableau `K⃗_{k+1}`: treewidth `k`, contained in every
//!   Boolean graph CQ with `(k+1)`-colorable tableau (Section 5.2).

use cqapx_cq::{ConjunctiveQuery, VarId};
use cqapx_graphs::generators::complete_digraph;
use cqapx_structures::{Pointed, Vocabulary};

/// `Q^trivial` for an arbitrary vocabulary, with `arity` head positions
/// (all filled with the single variable `x`).
///
/// # Examples
///
/// ```
/// use cqapx_core::trivial_query;
/// use cqapx_cq::contained_in;
/// use cqapx_structures::Vocabulary;
///
/// let t = trivial_query(&Vocabulary::graphs(), 0);
/// assert_eq!(t.to_string(), "Q() :- E(x, x)");
/// let q = cqapx_cq::parse_cq("Q() :- E(a,b), E(b,c), E(c,a)").unwrap();
/// assert!(contained_in(&t, &q));
/// ```
pub fn trivial_query(vocab: &Vocabulary, arity: usize) -> ConjunctiveQuery {
    assert!(
        !vocab.is_empty(),
        "trivial query needs a nonempty vocabulary"
    );
    let loops = vocab.rel_ids().map(|rel| (rel, vec![0; vocab.arity(rel)]));
    ConjunctiveQuery::new(vocab.clone(), ["x"], vec![0 as VarId; arity], loops)
}

/// The trivial bipartite Boolean graph query `Q^triv₂() :- E(x,y), E(y,x)`.
pub fn trivial_bipartite_query() -> ConjunctiveQuery {
    cqapx_cq::parse_cq("Q() :- E(x, y), E(y, x)").expect("fixed query parses")
}

/// `Q^triv_{k+1}`: the Boolean graph query whose tableau is the complete
/// digraph `K⃗_{k+1}` (treewidth exactly `k` for k ≥ 1).
pub fn trivial_k_query(k: usize) -> ConjunctiveQuery {
    let t = Pointed::boolean(complete_digraph(k + 1).to_structure());
    cqapx_cq::query_from_tableau(&t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{Acyclic, HtwK, TwK};
    use cqapx_cq::{contained_in, parse_cq, tableau_of};

    #[test]
    fn trivial_in_all_classes() {
        let v = Vocabulary::new(vec![("R", 3), ("E", 2)]);
        let t = trivial_query(&v, 0);
        let tab = tableau_of(&t);
        for class in [&TwK(1), &TwK(2), &Acyclic, &HtwK(1)] {
            assert!(class.contains_tableau(&tab), "{}", class.name());
        }
    }

    #[test]
    fn trivial_contained_in_everything() {
        let v = Vocabulary::new(vec![("R", 3)]);
        let t = trivial_query(&v, 0);
        let q = cqapx_cq::parse_cq("Q() :- R(x,u,y), R(y,v,z), R(z,w,x)").unwrap();
        assert!(contained_in(&t, &q));
        // with free variables
        let t1 = trivial_query(&v, 2);
        let q1 = cqapx_cq::parse_cq("Q(x, y) :- R(x,u,y), R(y,v,z)").unwrap();
        assert!(contained_in(&t1, &q1));
    }

    #[test]
    fn trivial_k_query_properties() {
        for k in 1..=3 {
            let q = trivial_k_query(k);
            let t = tableau_of(&q);
            assert!(TwK(k).contains_tableau(&t), "K{} has tw {}", k + 1, k);
            assert!(!TwK(k - 1).contains_tableau(&t));
        }
    }

    #[test]
    fn triv2_contained_in_bipartite_queries() {
        let t2 = trivial_bipartite_query();
        let c4 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap();
        assert!(contained_in(&t2, &c4));
        let c3 = parse_cq("Q() :- E(a,b), E(b,c), E(c,a)").unwrap();
        assert!(!contained_in(&t2, &c3));
    }
}
