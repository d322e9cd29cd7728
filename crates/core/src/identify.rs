//! The `Treewidth-k Approximation` decision problem (Section 4.3).
//!
//! *Input*: a CQ `Q`, a CQ `Q' ∈ C`. *Question*: is `Q'` a
//! `C`-approximation of `Q`? Theorem 4.12 shows this is **DP-complete**
//! already for `k = 1` over graphs, even when both tableaux are cores. The
//! procedure below is the natural NP ∧ coNP decomposition the paper
//! describes:
//!
//! 1. `Q' ⊆ Q` — one homomorphism test (NP);
//! 2. no witness `Q'' ∈ C` with `Q' ⊂ Q'' ⊆ Q` — the paper observes the
//!    witness can always be chosen among structures not exceeding `|Q|`,
//!    specifically among homomorphic images of `T_Q` (quotients), which is
//!    exactly the candidate space we enumerate (coNP) — with the same
//!    walk as the search (`approx::for_each_class_partition`, over
//!    [`in_walk_order`]'s numbering), so a class closed under subgraphs
//!    never sees an out-of-class quotient, and every class skips the
//!    coarsenings of an in-class quotient (if one of those is a witness,
//!    the in-class quotient below it is too) and every quotient with a
//!    block that holds each relation's loop and the whole head. `Q^triv`
//!    maps into those and into their repairs, so if one of them is a
//!    witness, `Q^triv` is too: it is tested first, before the walk.
//!
//! For hypergraph-based classes the witness space additionally includes
//! the bounded repair augmentations of Claim 6.2 (see
//! [`crate::approx`]); completeness is subject to the configured repair
//! cap.

use crate::approx::{for_each_class_partition, in_walk_order, repairs_public, ApproxOptions};
use crate::classes::{ClassKind, QueryClass};
use cqapx_cq::{contained_in, tableau_of, ConjunctiveQuery};
use cqapx_structures::{order, quotient::quotient_pointed, HomSolver, Partition};
use std::ops::ControlFlow;

/// Decides whether `q_prime` is a `C`-approximation of `q`.
///
/// Returns `None` when `opts.max_partitions` partitions were reached
/// without a verdict (the instance is too large for exhaustive search);
/// `Some(true/false)` otherwise.
///
/// # Examples
///
/// ```
/// use cqapx_core::{is_approximation, ApproxOptions, TwK};
/// use cqapx_cq::parse_cq;
///
/// let tri = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
/// let triv = parse_cq("Q() :- E(x,x)").unwrap();
/// let k2 = parse_cq("Q() :- E(x,y), E(y,x)").unwrap();
/// let opts = ApproxOptions::default();
/// assert_eq!(is_approximation(&tri, &triv, &TwK(1), &opts), Some(true));
/// // K2^<-> is not even contained in the triangle query.
/// assert_eq!(is_approximation(&tri, &k2, &TwK(1), &opts), Some(false));
/// ```
pub fn is_approximation(
    q: &ConjunctiveQuery,
    q_prime: &ConjunctiveQuery,
    class: &dyn QueryClass,
    opts: &ApproxOptions,
) -> Option<bool> {
    let tp = tableau_of(q_prime);
    if !class.contains_tableau(&tp) {
        return Some(false);
    }
    if !contained_in(q_prime, q) {
        return Some(false);
    }
    // Search for a witness Q'' ∈ C with Q' ⊂ Q'' ⊆ Q. In tableau terms:
    // T_{Q''} → T_{Q'} (so Q' ⊆ Q'') without the converse, and T_{Q''} a
    // candidate (quotient / repaired quotient of T_Q, so Q'' ⊆ Q).
    // Every test `T_{Q'} → candidate` runs from the one compiled `T_{Q'}`.
    let t = in_walk_order(&tableau_of(q));
    let from_tp = HomSolver::compile(&tp.structure);
    // Breaks when `p`'s quotient, or one of its repairs, is a witness;
    // else answers whether the quotient is in the class.
    let visit = |p: &Partition, known_in_class: bool| {
        let (qt, _) = quotient_pointed(&t, p);
        let mut candidates = Vec::new();
        let in_class = known_in_class || class.contains_tableau(&qt);
        if in_class {
            candidates.push(qt);
        } else if class.kind() == ClassKind::HypergraphClosed && opts.repair_extra_atoms > 0 {
            candidates.extend(repairs_public(&qt, class, opts));
        }
        for cand in candidates {
            if order::hom_exists(&cand, &tp) && !order::hom_exists_compiled(&from_tp, &tp, &cand) {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(in_class)
    };
    // `Q^triv` first: the walk never reaches it.
    let coarsest = Partition::coarsest(t.structure.universe_size());
    let mut found_witness = visit(&coarsest, false).is_break();
    let leaf = |p: &Partition, known| {
        let step = visit(p, known);
        found_witness |= step.is_break();
        step
    };
    let walk = for_each_class_partition(&t, class, opts.max_partitions, || true, leaf);
    if found_witness {
        return Some(false);
    }
    walk.complete.then_some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{Acyclic, TwK};
    use cqapx_cq::{parse_cq, parse_cq_with_vocab};

    fn opts() -> ApproxOptions {
        ApproxOptions::default()
    }

    #[test]
    fn trivial_is_approximation_of_triangle() {
        let tri = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let triv = parse_cq("Q() :- E(x,x)").unwrap();
        assert_eq!(is_approximation(&tri, &triv, &TwK(1), &opts()), Some(true));
    }

    #[test]
    fn k2_is_approximation_of_c4_but_not_of_balanced() {
        let c4 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap();
        let k2 = parse_cq("Q() :- E(x,y), E(y,x)").unwrap();
        assert_eq!(is_approximation(&c4, &k2, &TwK(1), &opts()), Some(true));
        // The trivial loop is contained in C4's query but NOT an
        // approximation (K2 is strictly between).
        let triv = parse_cq("Q() :- E(x,x)").unwrap();
        assert_eq!(is_approximation(&c4, &triv, &TwK(1), &opts()), Some(false));
    }

    #[test]
    fn out_of_class_rejected() {
        let c4 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap();
        assert_eq!(is_approximation(&c4, &c4, &TwK(1), &opts()), Some(false));
        assert_eq!(is_approximation(&c4, &c4, &TwK(2), &opts()), Some(true));
    }

    #[test]
    fn non_contained_rejected() {
        let p2 = parse_cq("Q() :- E(x,y), E(y,z)").unwrap();
        let p5 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f)").unwrap();
        // P5-query ⊆ P2-query, but not the other way; is_approximation(Q=P5, Q'=P2)?
        // P2 is acyclic and P2 ⊇ P5 (P2 not ⊆ P5? hom T_{P2} -> T_{P5}
        // exists? T_{P2} is a 2-path which maps into a 5-path: yes, so
        // P5 ⊆ P2... we need Q' ⊆ Q: is P2 ⊆ P5? T_{P5} → T_{P2}: a 5-path
        // maps into a 2-path? no. So not contained: rejected.
        assert_eq!(is_approximation(&p5, &p2, &TwK(1), &opts()), Some(false));
        // P5 itself is acyclic: its own approximation.
        assert_eq!(is_approximation(&p5, &p5, &TwK(1), &opts()), Some(true));
    }

    #[test]
    fn trivial_quotient_is_the_only_witness_over_two_relations() {
        // Q' has an F-loop the triangle never gives, so Q^triv = E(x,x)
        // lies strictly between Q' and Q: the only witness, and one the
        // walk cuts (every in-class quotient of the triangle loops E).
        let vocab = cqapx_structures::Vocabulary::new(vec![("E", 2), ("F", 2)]);
        let tri = parse_cq_with_vocab("Q() :- E(x,y), E(y,z), E(z,x)", &vocab).unwrap();
        let q_prime = parse_cq_with_vocab("Q() :- E(x,x), F(x,x)", &vocab).unwrap();
        assert_eq!(
            is_approximation(&tri, &q_prime, &TwK(1), &opts()),
            Some(false)
        );
        let triv = parse_cq_with_vocab("Q() :- E(x,x)", &vocab).unwrap();
        assert_eq!(is_approximation(&tri, &triv, &TwK(1), &opts()), Some(true));
    }

    #[test]
    fn example_66_candidates_identified() {
        let q = parse_cq("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)").unwrap();
        let good = parse_cq("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1), R(x1,x3,x5)").unwrap();
        assert_eq!(is_approximation(&q, &good, &Acyclic, &opts()), Some(true));
        let bad = parse_cq("Q() :- R(x, x, x)").unwrap();
        assert_eq!(is_approximation(&q, &bad, &Acyclic, &opts()), Some(false));
    }
}
