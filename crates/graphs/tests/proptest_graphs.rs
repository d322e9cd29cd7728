//! Property-based tests for the graph algorithms.

use cqapx_graphs::{balance, coloring, treewidth, BitGraph, Digraph};
use proptest::prelude::*;

fn digraph_strategy(max_n: usize, max_e: usize) -> impl Strategy<Value = Digraph> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_e)
            .prop_map(move |edges| Digraph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Treewidth is monotone under edge addition and bounded by n−1.
    #[test]
    fn treewidth_monotone_and_bounded(g in digraph_strategy(7, 10)) {
        let u = BitGraph::underlying(&g);
        let tw = treewidth::treewidth(&u);
        prop_assert!(tw <= u.n().saturating_sub(1));
        // adding an edge can only increase treewidth
        if u.n() >= 2 {
            let mut bigger = u.clone();
            bigger.add_edge(0, (u.n() - 1) as u32);
            prop_assert!(treewidth::treewidth(&bigger) >= tw);
        }
    }

    /// A witness decomposition validates and has the claimed width.
    #[test]
    fn decompositions_validate(g in digraph_strategy(7, 12)) {
        let u = BitGraph::underlying(&g);
        let tw = treewidth::treewidth(&u);
        let td = treewidth::treewidth_at_most(&u, tw).expect("witness at exact width");
        td.validate(&u).unwrap();
        prop_assert!(td.width() <= tw);
        let exact = treewidth::min_width_decomposition(&u).expect("at most 7 vertices");
        exact.validate(&u).unwrap();
        prop_assert_eq!(exact.width(), tw);
        if tw > 0 {
            prop_assert!(treewidth::treewidth_at_most(&u, tw - 1).is_none());
        }
    }

    /// The decision-only entry (degree-≤-2 reductions, then the search on
    /// the kernel) agrees with the decomposition-building one, and leaves
    /// the graph it was asked about as it found it.
    #[test]
    fn bit_row_decision_agrees_with_decompositions(g in digraph_strategy(12, 30)) {
        let u = BitGraph::underlying(&g);
        let mut bits = u.clone();
        let tw = treewidth::treewidth(&u);
        for k in 0..=4 {
            let expected = treewidth::treewidth_at_most(&u, k).is_some();
            prop_assert_eq!(bits.treewidth_at_most(k), Some(expected), "k = {}", k);
            prop_assert_eq!(tw <= k, expected, "k = {}", k);
        }
        prop_assert_eq!(bits.state(), u.state());
    }

    /// `reduced()` keeps a witness decomposition valid and as wide, leaves
    /// no bag inside a tree neighbour, and is idempotent and
    /// deterministic; every root orients the reduced tree.
    #[test]
    fn reduced_decompositions(g in digraph_strategy(9, 14), extra in 0usize..2) {
        let u = BitGraph::underlying(&g);
        // At the exact width and, one above it, on a looser witness.
        let k = treewidth::treewidth(&u) + extra;
        let td = treewidth::treewidth_at_most(&u, k).expect("witness at or above the width");
        let red = td.clone().reduced();
        red.validate(&u).unwrap();
        prop_assert_eq!(red.width(), td.width());
        prop_assert!(red.bags.len() <= td.bags.len());
        for &(a, b) in &red.tree_edges {
            let inside = |x: usize, y: usize| red.bags[x].iter().all(|v| red.bags[y].contains(v));
            prop_assert!(!inside(a, b) && !inside(b, a), "bags {} and {} nest", a, b);
        }
        prop_assert_eq!(&red.clone().reduced(), &red, "idempotent");
        let again = treewidth::treewidth_at_most(&u, k).unwrap().reduced();
        prop_assert_eq!(&again, &red, "deterministic");
        for (root, height) in red.heights().into_iter().enumerate() {
            let r = red.rooted_at(root);
            prop_assert_eq!(*r.order.last().unwrap(), root);
            prop_assert_eq!(r.parent.iter().filter(|p| p.is_none()).count(), 1);
            // The height is the longest parent chain.
            let depth = |mut x: usize| {
                let mut d = 0;
                while let Some(p) = r.parent[x] {
                    x = p;
                    d += 1;
                }
                d
            };
            prop_assert_eq!((0..red.bags.len()).map(depth).max().unwrap(), height);
        }
    }

    /// k-colorability agrees with homomorphism into K⃗_k (the definition
    /// the paper uses).
    #[test]
    fn coloring_agrees_with_hom(g in digraph_strategy(6, 10), k in 1usize..4) {
        use cqapx_structures::HomSolver;
        let colorable = coloring::is_k_colorable(&g, k);
        let kk = cqapx_graphs::generators::complete_digraph(k).to_structure();
        let via_hom = HomSolver::compile(&g.to_structure()).run(&kk).exists();
        prop_assert_eq!(colorable, via_hom);
    }

    /// Forests have treewidth ≤ 1 and are 2-colorable (loop-free ones).
    #[test]
    fn forests_are_easy(n in 2usize..8, extra in 0usize..3) {
        // random tree by parent links + `extra` forward edges that keep
        // it a forest only when extra = 0
        let mut edges = Vec::new();
        for i in 1..n {
            edges.push(((i / 2) as u32, i as u32));
        }
        let g = Digraph::from_edges(n, &edges);
        let u = BitGraph::underlying(&g);
        prop_assert!(u.is_forest());
        prop_assert!(treewidth::treewidth(&u) <= 1);
        prop_assert!(coloring::is_bipartite(&g));
        let _ = extra;
    }

    /// Balanced digraphs map into directed paths (Hell–Nešetřil), and
    /// level differences match edge orientation.
    #[test]
    fn balanced_iff_hom_to_path(g in digraph_strategy(6, 8)) {
        use cqapx_structures::HomSolver;
        let info = balance::levels(&g);
        let long_path = Digraph::directed_path(12).to_structure();
        let maps = HomSolver::compile(&g.to_structure()).run(&long_path).exists();
        prop_assert_eq!(info.balanced, maps, "balanced ⇔ hom to long path");
        if info.balanced {
            for (u, v) in g.edges() {
                prop_assert_eq!(
                    info.levels[v as usize] - info.levels[u as usize],
                    1,
                    "levels rise by one along edges"
                );
            }
        }
    }

    /// Bipartiteness ⇔ hom to K⃗₂.
    #[test]
    fn bipartite_iff_hom_to_k2(g in digraph_strategy(6, 10)) {
        use cqapx_structures::HomSolver;
        let k2 = Digraph::from_edges(2, &[(0, 1), (1, 0)]).to_structure();
        prop_assert_eq!(
            coloring::is_bipartite(&g),
            HomSolver::compile(&g.to_structure()).run(&k2).exists()
        );
    }
}
