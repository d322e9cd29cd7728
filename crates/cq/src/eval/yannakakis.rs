#[cfg(test)]
mod tests {
    //! The join-tree tests of [`TreePlan`](crate::eval::TreePlan): rooting,
    //! Boolean sweeps and answers against the naive reference.

    use crate::ast::Atom;
    use crate::eval::flat::MaterializationCache;
    use crate::eval::ir::Op;
    use crate::eval::naive::{eval_boolean_naive, eval_naive};
    use crate::eval::tree::{choose_roots, TreePlan};
    use crate::eval::NodeSpec;
    use crate::parser::parse_cq;
    use cqapx_hypergraphs::{gyo, Hypergraph};
    use cqapx_structures::Structure;

    fn check_agrees(q: &str, d: &Structure) {
        let q = parse_cq(q).unwrap();
        let plan = TreePlan::join_tree(&q).unwrap();
        assert_eq!(
            plan.ir().answers(d, None).0,
            eval_naive(&q, d),
            "Yannakakis must agree with naive on {q}"
        );
        assert_eq!(
            plan.ir().run_boolean(d, None, None).0,
            eval_boolean_naive(&q, d)
        );
        // And through a fresh cache, twice (cold then warm).
        let cache = MaterializationCache::new();
        let (cold, s1) = plan.ir().answers(d, Some(&cache));
        let (warm, s2) = plan.ir().answers(d, Some(&cache));
        assert_eq!(cold, eval_naive(&q, d), "cold cache run on {q}");
        assert_eq!(warm, cold, "warm cache run on {q}");
        // The cold run materializes at least once (same-key hyperedges
        // within one query may already hit); the warm run only hits.
        assert!(s1.misses > 0);
        assert_eq!(s2.misses, 0);
        assert_eq!(s2.hits, s1.hits + s1.misses);
    }

    /// The slots the plan's semijoins hand on from, with the columns.
    fn handed(plan: &TreePlan) -> Vec<(usize, Vec<u32>)> {
        (plan.ir().ops().iter())
            .filter_map(|op| match *op {
                Op::Semijoin {
                    source, source_pos, ..
                } => Some((source, plan.ir().words(source_pos).to_vec())),
                _ => None,
            })
            .collect()
    }

    /// An eight-edge directed path, spelled forwards or backwards, is
    /// rooted at the end whose atoms each hand their parent column 0.
    #[test]
    fn boolean_path_is_rooted_where_every_key_leads() {
        let edges: Vec<String> = (0..8).map(|i| format!("E(a{i}, a{})", i + 1)).collect();
        let forwards = edges.join(", ");
        let backwards = edges.iter().rev().cloned().collect::<Vec<_>>().join(", ");
        for body in [forwards, backwards] {
            let plan = TreePlan::join_tree(&parse_cq(&format!("Q() :- {body}")).unwrap()).unwrap();
            let keys = handed(&plan);
            assert_eq!(keys.len(), 7, "{body}");
            assert!(keys.iter().all(|(_, pos)| pos == &[0]), "{body}: {keys:?}");
        }
    }

    /// The head picks the root: `E(x, y)` for the head `x`, and
    /// `E(z, w)` for `w`, though both edges below it then hand on
    /// column 1. The one projection reads the root.
    #[test]
    fn the_head_still_picks_the_root() {
        for (head, root) in [("x", 0), ("w", 2)] {
            let q = parse_cq(&format!("Q({head}) :- E(x, y), E(y, z), E(z, w)")).unwrap();
            let plan = TreePlan::join_tree(&q).unwrap();
            let last = plan.ir().ops().last();
            assert!(
                matches!(last, Some(Op::Project { src, .. }) if *src == root),
                "Q({head}): {last:?}"
            );
        }
    }

    /// A tie keeps GYO's root: in `E(x, y), E(x, z)` either atom hands
    /// the other `x`, its column 0, and GYO roots at `E(x, z)`.
    #[test]
    fn a_tie_keeps_the_given_root() {
        let q = parse_cq("Q() :- E(x, y), E(x, z)").unwrap();
        let mut h = Hypergraph::new(q.var_count());
        for atom in q.atoms() {
            h.add_edge(&atom.args);
        }
        let gyo = gyo::gyo_reduce(&h).join_tree.unwrap().parent;
        assert_eq!(gyo, [Some(1), None]);
        let plan = TreePlan::join_tree(&q).unwrap();
        assert_eq!(handed(&plan), [(0, vec![0])]);
    }

    /// Each tree of a forest gets its own root. GYO hands `compile`
    /// one tree (an atom sharing nothing hangs off another by an empty
    /// key), so the forest is given here: two forward paths, one rooted
    /// mid-way and one at its last atom, are rooted at their first
    /// atoms, and the order still lists children before parents.
    #[test]
    fn a_forest_is_rooted_per_tree() {
        let q = parse_cq("Q() :- E(a0, a1), E(a1, a2), E(a2, a3), E(b0, b1), E(b1, b2), E(b2, b3)")
            .unwrap();
        let atoms: Vec<&Atom> = q.atoms().iter().collect();
        let nodes: Vec<NodeSpec> = (atoms.chunks(1))
            .map(|atoms| NodeSpec { atoms, label: None })
            .collect();
        let mut parent = vec![Some(1), None, Some(1), Some(4), Some(5), None];
        let mut order = vec![0, 2, 1, 3, 4, 5];
        choose_roots(&nodes, &mut parent, &mut order, &[]);
        assert_eq!(parent, [None, Some(0), Some(1), None, Some(3), Some(4)]);
        let position = |u: usize| order.iter().position(|&v| v == u).unwrap();
        assert_eq!(order.len(), 6);
        for (u, p) in parent.iter().enumerate() {
            assert!(p.is_none_or(|p| position(u) < position(p)), "{order:?}");
        }
    }

    #[test]
    fn cyclic_query_rejected() {
        let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        assert!(TreePlan::join_tree(&q).is_none());
    }

    #[test]
    fn join_tree_ir_decides_boolean_by_reduction() {
        let q = parse_cq("Q() :- E(x, y), E(y, z)").unwrap();
        let plan = TreePlan::join_tree(&q).unwrap();
        assert!(plan.ir().reduction_decides());
    }

    /// A `reduction_decides` Boolean plan collapses its semijoin sweep
    /// to bitmap intersections, and its stats count them; the decision
    /// must be the naive reference's and, cold or warm, agree with the
    /// reference join of the plan's materialized nodes, which reads no
    /// bitmap, with cache traffic equal to the full run's — on both
    /// satisfied and unsatisfied instances.
    #[test]
    fn bitmap_boolean_sweep_matches_probe_sweep() {
        let mut edges = Vec::new();
        for u in 0..40u32 {
            edges.push((u, (u * 7 + 3) % 40));
            edges.push((u, (u * 13 + 1) % 40));
        }
        let yes = Structure::digraph(40, &edges);
        let no = Structure::digraph(4, &[(0, 1), (2, 3)]);
        for qs in [
            "Q() :- E(x, y), E(y, z), E(z, w)",
            "Q() :- E(h, a), E(h, b), E(h, c)",
            "Q() :- E(x, y), E(y, y)",
        ] {
            let q = parse_cq(qs).unwrap();
            let plan = TreePlan::join_tree(&q).unwrap();
            assert!(plan.ir().reduction_decides(), "{qs} must be sweep-shaped");
            for d in [&yes, &no] {
                let naive = eval_boolean_naive(&q, d);
                let cache = MaterializationCache::new();
                let (cold, s_cold) = plan.ir().run_boolean(d, Some(&cache), None);
                let (warm, _) = plan.ir().run_boolean(d, Some(&cache), None);
                assert!(s_cold.bitmap_probes > 0, "the sweep reads bitmaps on {qs}");
                assert_eq!(cold, naive, "bitmap sweep wrong on {qs}");
                assert_eq!(warm, naive, "warm bitmap sweep wrong on {qs}");
                plan.ir().assert_output_is_reference_join(d, qs);
                let (_, s_full) = plan.ir().run(d, Some(&MaterializationCache::new()), None);
                assert_eq!(
                    (s_cold.hits, s_cold.misses),
                    (s_full.hits, s_full.misses),
                    "cache traffic must not depend on the kernel ({qs})"
                );
            }
        }
    }

    /// The acyclic tier's sorts — the reducer semijoins' filters and
    /// the final projection — run on packed code words over 80 edges,
    /// as they do at any row count: the answers are the naive reference's, the output relation is the
    /// reference join's, byte for byte, and a warm run adopts every
    /// relation the cold run built.
    #[test]
    fn packed_kernels_identical_on_acyclic_tier() {
        let mut edges = Vec::new();
        for u in 0..40u32 {
            edges.push((u, (u * 7 + 3) % 40));
            edges.push((u, (u * 13 + 1) % 40));
        }
        let d = Structure::digraph(40, &edges);
        for (qs, sorts) in [
            ("Q(x, w) :- E(x, y), E(y, z), E(z, w)", true),
            ("Q(x, y) :- E(x, y), E(y, z)", false),
            ("Q() :- E(x, y), E(y, z), E(z, w)", false),
        ] {
            let q = parse_cq(qs).unwrap();
            let plan = TreePlan::join_tree(&q).unwrap();
            let naive = eval_naive(&q, &d);
            let cache = MaterializationCache::new();
            let (rows, s_cold) = plan.ir().answers(&d, Some(&cache));
            let (boolean, s_warm) = plan.ir().run_boolean(&d, Some(&cache), None);
            assert_eq!(s_cold.packed_sorts > 0, sorts, "radix sorts on {qs}");
            assert_eq!(rows, naive, "naive disagrees on {qs}");
            assert_eq!(boolean, !naive.is_empty(), "boolean wrong on {qs}");
            plan.ir().assert_output_is_reference_join(&d, qs);
            assert_eq!(s_warm.misses, 0, "warm run re-materialized on {qs}");
        }
    }

    #[test]
    fn path_queries_agree() {
        let d = Structure::digraph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (4, 5), (5, 0)]);
        check_agrees("Q(x, w) :- E(x, y), E(y, z), E(z, w)", &d);
        check_agrees("Q() :- E(x, y), E(y, z)", &d);
        check_agrees("Q(y) :- E(x, y), E(y, z)", &d);
    }

    #[test]
    fn star_query() {
        let d = Structure::digraph(5, &[(0, 1), (0, 2), (0, 3), (3, 0)]);
        check_agrees("Q(x) :- E(x, a), E(x, b), E(b, x)", &d);
    }

    #[test]
    fn repeated_variable_atoms() {
        let d = Structure::digraph(3, &[(0, 0), (0, 1), (1, 2)]);
        check_agrees("Q(x) :- E(x, x), E(x, y)", &d);
    }

    #[test]
    fn multiple_atoms_same_varset() {
        // E(x,y) and E(y,x) share the variable set {x,y}: intersected.
        let d = Structure::digraph(4, &[(0, 1), (1, 0), (2, 3)]);
        check_agrees("Q(x) :- E(x, y), E(y, x)", &d);
    }

    #[test]
    fn disconnected_query() {
        let d = Structure::digraph(4, &[(0, 1), (2, 3)]);
        check_agrees("Q(x, u) :- E(x, y), E(u, v)", &d);
        check_agrees("Q() :- E(x, y), E(u, v)", &d);
    }

    #[test]
    fn higher_arity_acyclic() {
        use cqapx_structures::{StructureBuilder, Vocabulary};
        let v = Vocabulary::new(vec![("R", 3), ("S", 2)]);
        let r = v.rel("R").unwrap();
        let s = v.rel("S").unwrap();
        let mut b = StructureBuilder::new(v.clone(), 5);
        b.add(r, &[0, 1, 2])
            .add(r, &[1, 2, 3])
            .add(s, &[2, 4])
            .add(s, &[0, 1]);
        let d = b.finish();
        let q = crate::parser::parse_cq_with_vocab("Q(a, c) :- R(a, b, c), S(c, d)", &v).unwrap();
        let plan = TreePlan::join_tree(&q).unwrap();
        assert_eq!(plan.ir().answers(&d, None).0, eval_naive(&q, &d));
    }

    #[test]
    fn boolean_empty_answer() {
        let q = parse_cq("Q() :- E(x, y), E(y, z)").unwrap();
        let plan = TreePlan::join_tree(&q).unwrap();
        let d = Structure::digraph(2, &[(0, 1)]);
        assert!(!plan.ir().run_boolean(&d, None, None).0);
        assert!(plan.ir().answers(&d, None).0.is_empty());
    }

    #[test]
    fn full_reducer_prunes_dangling() {
        // Classic: path query where early matches dangle.
        let q = parse_cq("Q(a, d) :- E(a, b), E(b, c), E(c, d)").unwrap();
        let plan = TreePlan::join_tree(&q).unwrap();
        // A long "comb" with dead ends.
        let d = Structure::digraph(7, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (1, 6)]);
        assert_eq!(plan.ir().answers(&d, None).0, eval_naive(&q, &d));
    }

    #[test]
    fn cache_shared_across_plans() {
        // Two different prepared queries over the same hyperedge shape
        // share the materialization.
        let d = Structure::digraph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p1 = TreePlan::join_tree(&parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap()).unwrap();
        let p2 = TreePlan::join_tree(&parse_cq("Q(a) :- E(a, b)").unwrap()).unwrap();
        let cache = MaterializationCache::new();
        let (a1, s1) = p1.ir().answers(&d, Some(&cache));
        let (a2, s2) = p2.ir().answers(&d, Some(&cache));
        assert_eq!(a1.len(), 3);
        assert_eq!(a2.len(), 4);
        assert_eq!(s1.misses, 1); // E(x,y) and E(y,z) are one hyperedge key
        assert_eq!(s1.hits, 1);
        assert_eq!(s2.hits, 1); // p2's only hyperedge reuses p1's entry
        assert_eq!(s2.misses, 0);
    }
}
