//! The DP-complete decision problems of Theorem 4.12, plus the source
//! problem of the reduction.
//!
//! * `Exact Four Colorability`: is `G` 4-colorable but not 3-colorable?
//!   (DP-complete, Rothe 2003.)
//! * `Exact Acyclic Homomorphism`: given a digraph `G` and an acyclic
//!   digraph `T`, is `G → T` while `G ↛ S` for every proper subgraph `S`
//!   of `T`?
//! * `Graph Acyclic Approximation`: is `G → T` with no acyclic `T'` such
//!   that `G → T' ⥛ T`? ("acyclic digraph" throughout means the
//!   underlying undirected graph is a forest, the `TW(1)` reading.)
//!
//! The procedures here are the natural exponential ones; Theorem 4.12
//! says nothing fundamentally faster exists (unless the polynomial
//! hierarchy collapses).

use cqapx_graphs::{coloring, BitGraph, Digraph};
use cqapx_structures::{partition::for_each_partition, quotient, HomSolver, Structure};
use std::ops::ControlFlow;

/// `Exact Four Colorability`: `G` is 4-colorable but not 3-colorable.
pub fn exact_four_colorability(g: &Digraph) -> bool {
    coloring::is_k_colorable(g, 4) && !coloring::is_k_colorable(g, 3)
}

/// Generalization: `G` is `k`-colorable but not `(k−1)`-colorable.
pub fn exact_k_colorability(g: &Digraph, k: usize) -> bool {
    coloring::is_k_colorable(g, k) && (k == 0 || !coloring::is_k_colorable(g, k - 1))
}

/// `Exact Acyclic Homomorphism`: `G → T` and `G ↛ S` for every proper
/// subgraph `S ⊊ T`.
///
/// It suffices to test the maximal proper subgraphs `T ∖ {e}` (a
/// homomorphism into any proper subgraph extends to one missing a single
/// edge), so the cost is `(|E(T)| + 1)` homomorphism searches.
///
/// # Panics
///
/// Panics when `T` is not acyclic (underlying forest).
pub fn exact_acyclic_homomorphism(g: &Digraph, t: &Digraph) -> bool {
    assert!(
        BitGraph::underlying(t).is_forest(),
        "T must be an acyclic digraph"
    );
    let from_g = HomSolver::compile(&g.to_structure());
    if !from_g.run(&t.to_structure()).exists() {
        return false;
    }
    for (u, v) in t.edges() {
        let mut sub = Digraph::new(t.n());
        for (a, b) in t.edges() {
            if (a, b) != (u, v) {
                sub.add_edge(a, b);
            }
        }
        if from_g.run(&sub.to_structure()).exists() {
            return false;
        }
    }
    true
}

/// `Graph Acyclic Approximation`: `G → T` and there is no acyclic `T'`
/// with `G → T' ⥛ T` (i.e. `T' → T` but `T ↛ T'`).
///
/// The witness `T'` can always be replaced by the image of the
/// homomorphism from `G`, i.e. by a **quotient** of `G` (the Theorem 4.1
/// argument), so the search space is the partitions of `V(G)` — feasible
/// for small `G`, exponential in general, as Theorem 4.12 predicts.
/// Returns `None` when the partition budget is exhausted first.
pub fn graph_acyclic_approximation(g: &Digraph, t: &Digraph, max_partitions: u64) -> Option<bool> {
    assert!(
        BitGraph::underlying(t).is_forest(),
        "T must be an acyclic digraph"
    );
    let gs = g.to_structure();
    let ts = t.to_structure();
    if !HomSolver::compile(&gs).run(&ts).exists() {
        return Some(false);
    }
    let from_t = HomSolver::compile(&ts);
    let mut budget = max_partitions;
    let mut beaten = false;
    let complete = for_each_partition(g.n(), |p| {
        if budget == 0 {
            return ControlFlow::Break(());
        }
        budget -= 1;
        let (q, _) = quotient::quotient(&gs, p);
        let qd = Digraph::from_structure(&q);
        if !BitGraph::underlying(&qd).is_forest() {
            return ControlFlow::Continue(());
        }
        if HomSolver::compile(&q).run(&ts).exists() && !from_t.run(&q).exists() {
            beaten = true;
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    });
    if beaten {
        Some(false)
    } else if complete {
        Some(true)
    } else {
        None
    }
}

/// Convenience: the structure of the disjoint union `G + H` used by the
/// Proposition 5.12 reduction (`G ↦ G^↔ + K⃗_{k+1}`).
pub fn prop_5_12_instance(undirected_edges: &[(u32, u32)], n: usize, k: usize) -> Structure {
    let g = cqapx_graphs::generators::symmetric(n, undirected_edges);
    let kk = cqapx_graphs::generators::complete_digraph(k + 1);
    g.disjoint_union(&kk).to_structure()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_graphs::generators;

    #[test]
    fn exact_colorability() {
        // K4 is 4- but not 3-colorable.
        assert!(exact_four_colorability(&generators::complete_digraph(4)));
        // K3 is 3-colorable.
        assert!(!exact_four_colorability(&generators::complete_digraph(3)));
        // K5 is not 4-colorable.
        assert!(!exact_four_colorability(&generators::complete_digraph(5)));
        // Odd wheel W5 is exactly 4-chromatic.
        assert!(exact_four_colorability(&generators::wheel(5)));
    }

    #[test]
    fn exact_acyclic_hom_positive() {
        // C4 (bipartite, unbalanced) maps onto K2^<-> exactly: both edges
        // of K2 are used by any homomorphism.
        let c4 = Digraph::cycle(4);
        let k2 = Digraph::from_edges(2, &[(0, 1), (1, 0)]);
        assert!(exact_acyclic_homomorphism(&c4, &k2));
    }

    #[test]
    fn exact_acyclic_hom_negative() {
        // A single edge maps into K2^<-> but never exactly (one edge of
        // K2 suffices).
        let e = Digraph::from_edges(2, &[(0, 1)]);
        let k2 = Digraph::from_edges(2, &[(0, 1), (1, 0)]);
        assert!(!exact_acyclic_homomorphism(&e, &k2));
        // And a triangle does not map to K2 at all.
        let c3 = Digraph::cycle(3);
        assert!(!exact_acyclic_homomorphism(&c3, &k2));
    }

    #[test]
    fn acyclic_approximation_decision() {
        // K2^<-> is an acyclic approximation of C4…
        let c4 = Digraph::cycle(4);
        let k2 = Digraph::from_edges(2, &[(0, 1), (1, 0)]);
        assert_eq!(graph_acyclic_approximation(&c4, &k2, 1 << 20), Some(true));
        // …but the single loop is not (K2 sits strictly between).
        let lp = Digraph::from_edges(1, &[(0, 0)]);
        assert_eq!(graph_acyclic_approximation(&c4, &lp, 1 << 20), Some(false));
        // For the directed path P4 and the tight source G_3:
        let g3 = crate::tight::g_k(3);
        let p4 = Digraph::directed_path(4);
        assert_eq!(graph_acyclic_approximation(&g3, &p4, 1 << 22), Some(true));
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g3 = crate::tight::g_k(3);
        let p4 = Digraph::directed_path(4);
        assert_eq!(graph_acyclic_approximation(&g3, &p4, 3), None);
    }

    #[test]
    fn prop_512_reduction_shape() {
        // Triangle as undirected graph, k = 2: G^<-> + K3.
        let s = prop_5_12_instance(&[(0, 1), (1, 2), (2, 0)], 3, 2);
        assert_eq!(s.universe_size(), 6);
        // G 3-colorable ⇔ the instance is hom-equivalent to K3: here yes.
        let k3 = generators::complete_digraph(3).to_structure();
        assert!(HomSolver::compile(&s).run(&k3).exists());
        assert!(HomSolver::compile(&k3).run(&s).exists());
    }
}
