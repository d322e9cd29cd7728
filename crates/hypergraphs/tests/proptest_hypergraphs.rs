//! Property-based tests for the hypergraph algorithms, centred on the
//! paper's Lemma 6.4 closure properties.

use cqapx_hypergraphs::{gyo, htw, Hypergraph};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn hypergraph_strategy(
    max_n: usize,
    max_edges: usize,
    max_arity: usize,
) -> impl Strategy<Value = Hypergraph> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec(
            proptest::collection::btree_set(0..n as u32, 1..=max_arity.min(n)),
            1..=max_edges,
        )
        .prop_map(move |edges| {
            let lists: Vec<Vec<u32>> = edges.into_iter().map(|e| e.into_iter().collect()).collect();
            Hypergraph::from_edges(n, &lists)
        })
    })
}

/// The edge extension of Lemma 6.4: hyperedge `i` of `h` grows by
/// `extra` fresh vertices, appended to the universe.
fn extend_edge(h: &Hypergraph, i: usize, extra: usize) -> Hypergraph {
    let mut edges: Vec<Vec<u32>> = h
        .edges()
        .iter()
        .map(|e| e.iter().copied().collect())
        .collect();
    edges[i].extend((h.n()..h.n() + extra).map(|v| v as u32));
    Hypergraph::from_edges(h.n() + extra, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GYO acyclicity coincides with hypertree width 1 (HTW(1) = AC).
    #[test]
    fn gyo_iff_htw1(h in hypergraph_strategy(6, 6, 3)) {
        prop_assert_eq!(gyo::is_acyclic(&h), htw::htw_at_most(&h, 1).is_some());
    }

    /// Join trees produced by GYO validate.
    #[test]
    fn join_trees_validate(h in hypergraph_strategy(7, 6, 3)) {
        if let Some(jt) = gyo::gyo_reduce(&h).join_tree {
            jt.validate(&h).unwrap();
        }
    }

    /// Hypertree decompositions at the exact width validate, and width−1
    /// is infeasible.
    #[test]
    fn htw_witness_and_tightness(h in hypergraph_strategy(6, 5, 3)) {
        let w = htw::hypertree_width(&h);
        if w >= 1 {
            let d = htw::htw_at_most(&h, w).expect("witness at exact width");
            d.validate(&h).unwrap();
            prop_assert!(d.width() <= w);
            if w > 1 {
                prop_assert!(htw::htw_at_most(&h, w - 1).is_none());
            }
        }
    }

    /// Lemma 6.4: closure under edge extension — extending any hyperedge
    /// with fresh vertices never increases the hypertree width.
    #[test]
    fn edge_extension_preserves_width(
        h in hypergraph_strategy(6, 5, 3),
        which in 0usize..5,
        extra in 1usize..3,
    ) {
        prop_assume!(h.edge_count() > 0);
        let i = which % h.edge_count();
        let w = htw::hypertree_width(&h);
        let ext = extend_edge(&h, i, extra);
        prop_assert!(htw::hypertree_width(&ext) <= w.max(1));
        // and acyclicity is preserved exactly
        prop_assert_eq!(gyo::is_acyclic(&h), gyo::is_acyclic(&ext));
    }

    /// Lemma 6.4: closure under induced subhypergraphs.
    #[test]
    fn induced_preserves_width(
        h in hypergraph_strategy(6, 5, 3),
        keep_mask in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let keep: BTreeSet<u32> = (0..h.n() as u32)
            .filter(|&v| keep_mask.get(v as usize).copied().unwrap_or(false))
            .collect();
        prop_assume!(!keep.is_empty());
        let (ind, _) = h.induced(&keep);
        if ind.edge_count() > 0 {
            prop_assert!(
                htw::hypertree_width(&ind) <= htw::hypertree_width(&h).max(1),
                "induced subhypergraph width must not grow"
            );
        }
    }

    /// Hypertree width is bounded by the edge count and at least 1 for
    /// nonempty hypergraphs.
    #[test]
    fn width_bounds(h in hypergraph_strategy(6, 5, 3)) {
        let w = htw::hypertree_width(&h);
        if h.edge_count() > 0 {
            prop_assert!(w >= 1);
            prop_assert!(w <= h.edge_count());
        }
    }
}
