//! End-to-end integration: parse → approximate → compile → evaluate,
//! checking the semantic contracts across all crates.

use cq_approx::prelude::*;
use cqapx_cq::eval::naive::eval_naive as naive;
use cqapx_graphs::generators;

/// Soundness of the whole pipeline on real databases: for every database,
/// the approximation's answers are a subset of the exact answers.
#[test]
fn approximation_answers_are_subset_on_random_databases() {
    let queries = [
        "Q() :- E(x,y), E(y,z), E(z,x)",
        "Q(x) :- E(x,y), E(y,z), E(z,x), E(x,w)",
        "Q() :- E(a,b), E(b,c), E(c,d), E(d,a)",
        "Q(a) :- E(a,b), E(b,c), E(c,a), E(a,d), E(d,e), E(e,a)",
    ];
    for qs in queries {
        let q = parse_cq(qs).unwrap();
        let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
        assert!(!rep.approximations.is_empty(), "{qs}");
        for a in &rep.approximations {
            let plan = TreePlan::join_tree(a)
                .unwrap_or_else(|| panic!("TW(1) approximation {a} must be acyclic"));
            for seed in 0..5 {
                let d = generators::random_digraph(14, 0.18, seed).to_structure();
                let exact = naive(&q, &d);
                let approx = plan.ir().answers(&d, None).0;
                assert!(
                    approx.iter().all(|t| exact.contains(t.as_slice())),
                    "soundness of {a} vs {qs} on seed {seed}"
                );
                // Cross-check the two evaluators on the approximation.
                assert_eq!(approx, naive(a, &d), "evaluators agree on {a}");
            }
        }
    }
}

/// The static guarantees: approximations are in-class, contained, minimal
/// among each other (pairwise incomparable).
#[test]
fn approximations_are_pairwise_incomparable() {
    let q = parse_cq("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)").unwrap();
    let rep = all_approximations(&q, &Acyclic, &ApproxOptions::default());
    assert_eq!(rep.approximations.len(), 3);
    for (i, a) in rep.approximations.iter().enumerate() {
        assert!(contained_in(a, &q));
        for (j, b) in rep.approximations.iter().enumerate() {
            if i != j {
                assert!(
                    !contained_in(a, b),
                    "approximations must be ⊆-incomparable: {a} vs {b}"
                );
            }
        }
    }
}

/// `is_approximation` agrees with `all_approximations` on a suite.
#[test]
fn identification_agrees_with_enumeration() {
    let suite = [
        "Q() :- E(x,y), E(y,z), E(z,x)",
        "Q() :- E(a,b), E(b,c), E(c,d), E(d,a)",
        "Q(x) :- E(x,y), E(y,x), E(y,z), E(z,y), E(z,x), E(x,z)",
    ];
    let opts = ApproxOptions::default();
    for qs in suite {
        let q = parse_cq(qs).unwrap();
        let rep = all_approximations(&q, &TwK(1), &opts);
        for a in &rep.approximations {
            assert_eq!(
                is_approximation(&q, a, &TwK(1), &opts),
                Some(true),
                "{a} must identify as an approximation of {qs}"
            );
        }
        // The trivial query is an approximation only when enumeration says
        // so.
        let trivial = cqapx_core::trivial_query(q.vocabulary(), q.arity());
        let is_in = rep.approximations.iter().any(|a| equivalent(a, &trivial));
        assert_eq!(
            is_approximation(&q, &trivial, &TwK(1), &opts),
            Some(is_in),
            "trivial query status for {qs}"
        );
    }
}

/// Minimization commutes with approximation: approximating the minimized
/// query yields the same approximations.
#[test]
fn approximation_invariant_under_minimization() {
    // A redundant query (C3 plus a foldable pendant path).
    let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,x), E(x,w), E(x,v)").unwrap();
    let m = minimize(&q);
    assert!(m.atom_count() < q.atom_count());
    let opts = ApproxOptions::default();
    let rep_q = all_approximations(&q, &TwK(1), &opts);
    let rep_m = all_approximations(&m, &TwK(1), &opts);
    assert_eq!(rep_q.approximations.len(), rep_m.approximations.len());
    for a in &rep_q.approximations {
        assert!(
            rep_m.approximations.iter().any(|b| equivalent(a, b)),
            "approximation sets must agree up to equivalence"
        );
    }
}
