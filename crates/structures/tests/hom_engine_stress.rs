//! Stress and adversarial tests for the homomorphism engine, including
//! property-based cross-validation against brute force.

use cqapx_structures::{
    core_of, hom_exists, iso::isomorphic_pointed, HomSolver, Pointed, Structure, StructureBuilder,
    Vocabulary,
};
use proptest::prelude::*;
use std::ops::ControlFlow;

/// Brute-force hom existence: try all n^m maps.
fn brute_force_hom(src: &Structure, tgt: &Structure) -> bool {
    let n = src.universe_size();
    let m = tgt.universe_size();
    if n == 0 {
        return true;
    }
    if m == 0 {
        return false;
    }
    let mut map = vec![0u32; n];
    loop {
        let h = cqapx_structures::Homomorphism { map: map.clone() };
        if h.verify(src, tgt) {
            return true;
        }
        // increment
        let mut i = 0;
        loop {
            if i == n {
                return false;
            }
            map[i] += 1;
            if (map[i] as usize) < m {
                break;
            }
            map[i] = 0;
            i += 1;
        }
    }
}

fn digraph_strategy(max_n: usize, max_e: usize) -> impl Strategy<Value = Structure> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_e)
            .prop_map(move |edges| Structure::digraph(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine agrees with brute force on small instances.
    #[test]
    fn engine_matches_brute_force(
        src in digraph_strategy(4, 6),
        tgt in digraph_strategy(4, 6),
    ) {
        prop_assert_eq!(
            HomSolver::compile(&src).run(&tgt).exists(),
            brute_force_hom(&src, &tgt)
        );
    }

    /// Every enumerated solution verifies; the count matches brute force.
    #[test]
    fn enumeration_sound_and_complete(
        src in digraph_strategy(3, 4),
        tgt in digraph_strategy(3, 5),
    ) {
        let mut engine_count = 0u64;
        HomSolver::compile(&src).run(&tgt).for_each(|h| {
            assert!(h.verify(&src, &tgt));
            engine_count += 1;
            ControlFlow::Continue(())
        });
        // brute force count
        let n = src.universe_size();
        let m = tgt.universe_size();
        let mut brute = 0u64;
        if m > 0 {
            let total = (m as u64).pow(n as u32);
            for code in 0..total {
                let mut c = code;
                let map: Vec<u32> = (0..n)
                    .map(|_| {
                        let v = (c % m as u64) as u32;
                        c /= m as u64;
                        v
                    })
                    .collect();
                if (cqapx_structures::Homomorphism { map }).verify(&src, &tgt) {
                    brute += 1;
                }
            }
        } else if n == 0 {
            brute = 1;
        }
        prop_assert_eq!(engine_count, brute);
    }

    /// Hom existence is transitive.
    #[test]
    fn hom_transitive(
        a in digraph_strategy(3, 4),
        b in digraph_strategy(3, 4),
        c in digraph_strategy(3, 4),
    ) {
        let (pa, pb, pc) = (
            Pointed::boolean(a),
            Pointed::boolean(b),
            Pointed::boolean(c),
        );
        if hom_exists(&pa, &pb) && hom_exists(&pb, &pc) {
            prop_assert!(hom_exists(&pa, &pc));
        }
    }

    /// Isomorphic structures are hom-equivalent; cores of hom-equivalent
    /// structures are isomorphic.
    #[test]
    fn cores_of_equivalent_are_isomorphic(s in digraph_strategy(4, 6)) {
        prop_assume!(!s.is_relations_empty());
        let (s, _) = s.restrict_to_adom();
        // Build a hom-equivalent sibling: disjoint union with itself.
        let double = s.disjoint_union(&s);
        let c1 = core_of(&Pointed::boolean(s)).core;
        let c2 = core_of(&Pointed::boolean(double)).core;
        prop_assert!(isomorphic_pointed(&c1, &c2));
    }
}

#[test]
fn pinned_conflicts_are_unsatisfiable() {
    let p = Structure::digraph(2, &[(0, 1)]);
    let c = Structure::digraph(3, &[(0, 1), (1, 2), (2, 0)]);
    // pin both endpoints to the same node: E(x,y) cannot map to a loop.
    assert!(!HomSolver::compile(&p).run(&c).pin(0, 1).pin(1, 1).exists());
    // consistent pins work
    assert!(HomSolver::compile(&p).run(&c).pin(0, 1).pin(1, 2).exists());
}

#[test]
fn higher_arity_mixed_vocabulary() {
    let v = Vocabulary::new(vec![("R", 3), ("E", 2)]);
    let r = v.rel("R").unwrap();
    let e = v.rel("E").unwrap();
    // Source: R(x,y,z), E(z,x). Target: R(0,1,2), E(2,0), R(1,1,1).
    let mut b = StructureBuilder::new(v.clone(), 3);
    b.add(r, &[0, 1, 2]).add(e, &[2, 0]);
    let src = b.finish();
    let mut b = StructureBuilder::new(v, 3);
    b.add(r, &[0, 1, 2]).add(e, &[2, 0]).add(r, &[1, 1, 1]);
    let tgt = b.finish();
    assert_eq!(HomSolver::compile(&src).run(&tgt).count(), 1);
}

#[test]
fn big_tree_into_tree_is_fast() {
    // A balanced oriented tree with 500 nodes into a path: finishes
    // instantly thanks to forward checking (no exponential blowup).
    use cqapx_graphs_free::*;
    mod cqapx_graphs_free {
        // local tiny builder to avoid a dev-dependency cycle
        pub fn comb(n: usize) -> cqapx_structures::Structure {
            let mut edges = Vec::new();
            for i in 0..n {
                if i + 1 < n {
                    edges.push((i as u32, (i + 1) as u32));
                }
            }
            // teeth
            for i in 0..n {
                edges.push((i as u32, (n + i) as u32));
            }
            cqapx_structures::Structure::digraph(2 * n, &edges)
        }
    }
    let big = comb(250);
    let path = {
        let edges: Vec<(u32, u32)> = (0..300).map(|i| (i, i + 1)).collect();
        Structure::digraph(301, &edges)
    };
    // Counted, not timed: the search branches once per source element
    // and never backtracks.
    let mut found = false;
    let stats = HomSolver::compile(&big).run(&path).for_each(|_| {
        found = true;
        ControlFlow::Break(())
    });
    assert!(found, "tree-to-path must have a homomorphism");
    assert_eq!(stats.backtracks, 0, "{stats:?}");
    assert!(stats.nodes <= big.universe_size() as u64, "{stats:?}");
}
