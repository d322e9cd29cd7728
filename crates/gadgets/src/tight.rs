//! Proposition 5.6 / Example 5.7: tight acyclic approximations.
//!
//! `Q'` is a **tight** `C`-approximation of `Q` when additionally no CQ at
//! all (from any class) fits strictly between them. The family: `G_k` is
//! two directed `k`-paths `x₀…x_k`, `y₀…y_k` plus the rungs
//! `(x_i, y_{i+2})`; for `k ≥ 3`, `G_k → P⃗_{k+1}` and the pair forms a
//! *gap* in the homomorphism lattice (Nešetřil–Tardif duality), making the
//! `P⃗_{k+1}`-query a tight acyclic approximation of the `G_k`-query.

use cqapx_graphs::Digraph;
use cqapx_structures::Element;

/// The digraph `G_k` of Proposition 5.6 (`2k + 2` nodes, `3k − 1` edges).
pub fn g_k(k: usize) -> Digraph {
    assert!(k >= 2, "G_k needs k ≥ 2");
    let mut g = Digraph::new(2 * (k + 1));
    let x = |i: usize| i as Element;
    let y = |i: usize| (k + 1 + i) as Element;
    for i in 0..k {
        g.add_edge(x(i), x(i + 1));
        g.add_edge(y(i), y(i + 1));
    }
    for i in 0..=k.saturating_sub(2) {
        g.add_edge(x(i), y(i + 2));
    }
    g
}

/// The digraph of Example 5.7 whose unique acyclic approximation is the
/// path `P⃗₄`.
///
/// The example's *first* picture survives only as an unreadable figure in
/// the source text; its *second* digraph is given in prose — it is exactly
/// the tableau of the introduction's query
/// `Q₂() :- P₃(x,y,z,u), P₃(x',y',z',u'), E(x,z'), E(y,u')`, for which the
/// example states the same `P⃗₄` query is a **tight** acyclic
/// approximation. We build that one.
pub fn example_57() -> Digraph {
    // Two directed 3-paths x→y→z→u and x'→y'→z'→u', plus E(x,z'), E(y,u').
    let mut g = Digraph::new(8);
    // x=0, y=1, z=2, u=3, x'=4, y'=5, z'=6, u'=7
    let (zp, up) = (6, 7);
    for (a, b) in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)] {
        g.add_edge(a, b);
    }
    g.add_edge(0, zp);
    g.add_edge(1, up);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_core::{all_approximations, ApproxOptions, TwK};
    use cqapx_cq::{equivalent, parse_cq, query_from_tableau};
    use cqapx_graphs::{balance, coloring};
    use cqapx_structures::{HomSolver, Pointed};

    #[test]
    fn gk_maps_to_path() {
        // Property 1: G_k → P_{k+1}.
        for k in 3..=6 {
            let g = g_k(k).to_structure();
            let p = Digraph::directed_path(k + 1).to_structure();
            assert!(
                HomSolver::compile(&g).run(&p).exists(),
                "G_{k} → P_{}",
                k + 1
            );
            // And not to the shorter path (G_k has a directed k-path and
            // rungs that stretch it).
            let shorter = Digraph::directed_path(k).to_structure();
            assert!(!HomSolver::compile(&g).run(&shorter).exists());
        }
    }

    #[test]
    fn gk_is_bipartite_balanced_cyclic() {
        for k in 3..=5 {
            let g = g_k(k);
            assert!(coloring::is_bipartite(&g));
            assert!(balance::is_balanced(&g));
            assert!(!cqapx_graphs::BitGraph::underlying(&g).is_forest());
        }
    }

    #[test]
    fn g3_unique_acyclic_approximation_is_p4() {
        // For k = 3 the query has 8 variables: exhaustive search feasible.
        let q = query_from_tableau(&Pointed::boolean(g_k(3).to_structure()));
        let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
        assert!(rep.complete);
        assert_eq!(rep.approximations.len(), 1, "unique approximation");
        let p4 = query_from_tableau(&Pointed::boolean(Digraph::directed_path(4).to_structure()));
        assert!(equivalent(&rep.approximations[0], &p4));
    }

    #[test]
    fn example_57_unique_approximation_is_p4() {
        let d = example_57();
        assert!(coloring::is_bipartite(&d));
        assert!(balance::is_balanced(&d));
        let q = query_from_tableau(&Pointed::boolean(d.to_structure()));
        let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
        assert!(rep.complete);
        assert_eq!(
            rep.approximations.len(),
            1,
            "got {:?}",
            rep.approximations
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
        );
        let p4 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,e)").unwrap();
        assert!(equivalent(&rep.approximations[0], &p4));
    }

    #[test]
    fn no_quotient_strictly_between_g3_and_p4() {
        // Tightness within the (complete, by Thm 4.1) quotient witness
        // space: no quotient Q'' of G_3 with P4-query ⊂ Q'' ⊂ Q.
        use cqapx_structures::{order, partition::for_each_partition, quotient::quotient_pointed};
        use std::ops::ControlFlow;
        let g = Pointed::boolean(g_k(3).to_structure());
        let p4 = Pointed::boolean(Digraph::directed_path(4).to_structure());
        let n = g.structure.universe_size();
        for_each_partition(n, |p| {
            let (qt, _) = quotient_pointed(&g, p);
            // strictly between: T_G ⥛ qt ⥛ p4 — i.e. hom qt→p4 strictly,
            // and hom g→qt strictly.
            let below_p4 = order::hom_exists(&qt, &p4) && !order::hom_exists(&p4, &qt);
            let above_g = !order::hom_exists(&qt, &g);
            assert!(
                !(below_p4 && above_g),
                "no quotient strictly between G_3 and P_4"
            );
            ControlFlow::Continue(())
        });
    }
}
