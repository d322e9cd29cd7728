#[cfg(test)]
mod tests {
    //! The decomposition tests of [`TreePlan`](crate::eval::TreePlan): widths,
    //! connector bags, every root, and answers against the naive reference.

    use crate::classes::query_graph;
    use crate::eval::flat::MaterializationCache;
    use crate::eval::naive::{eval_boolean_naive, eval_naive};
    use crate::eval::TreePlan;
    use crate::parser::parse_cq;
    use cqapx_graphs::treewidth::{treewidth_at_most, TreeDecomposition};
    use cqapx_structures::Structure;

    fn check_agrees(q: &str, k: usize, d: &Structure) {
        let q = parse_cq(q).unwrap();
        let plan = TreePlan::within_width(&q, k).unwrap();
        assert_eq!(
            plan.ir().answers(d, None).0,
            eval_naive(&q, d),
            "decomposed must agree with naive on {q}"
        );
        assert_eq!(
            plan.ir().run_boolean(d, None, None).0,
            eval_boolean_naive(&q, d),
            "boolean disagrees on {q}"
        );
        // Through a fresh cache, cold then warm: identical answers, and
        // the warm run adopts every bag.
        let cache = MaterializationCache::new();
        let (cold, s1) = plan.ir().answers(d, Some(&cache));
        let (warm, s2) = plan.ir().answers(d, Some(&cache));
        assert_eq!(cold, eval_naive(&q, d), "cold cache run on {q}");
        assert_eq!(warm, cold, "warm cache run on {q}");
        assert!(s1.misses > 0, "cold run must materialize on {q}");
        assert_eq!(s2.misses, 0, "warm run must not re-materialize on {q}");
    }

    #[test]
    fn too_wide_rejected() {
        // K4 has treewidth 3.
        let q = parse_cq("Q() :- E(a,b), E(a,c), E(a,d), E(b,c), E(b,d), E(c,d)").unwrap();
        assert!(TreePlan::within_width(&q, 2).is_none());
        let plan = TreePlan::within_width(&q, 3).unwrap();
        assert_eq!(plan.width(), Some(3));
    }

    #[test]
    fn triangle_single_bag() {
        let d = Structure::digraph(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (4, 4)]);
        check_agrees("Q() :- E(x,y), E(y,z), E(z,x)", 2, &d);
        check_agrees("Q(x) :- E(x,y), E(y,z), E(z,x)", 2, &d);
        check_agrees("Q(x, y) :- E(x,y), E(y,z), E(z,x)", 2, &d);
    }

    #[test]
    fn six_cycle_connector_bags() {
        // The width-2 decomposition of C6 has bags whose schemas lose a
        // connector variable — the case where the semijoin sweeps alone
        // are incomplete and the join phase must decide.
        let q = "Q() :- E(a,p), E(p,b), E(b,q), E(q,c), E(c,r), E(r,a)";
        let with_c6 =
            Structure::digraph(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)]);
        check_agrees(q, 2, &with_c6);
        // A digraph with 6-paths but no directed 6-cycle: every bag
        // relation is nonempty yet the answer is empty — the sweeps
        // alone would say "true".
        let no_c6 =
            Structure::digraph(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        check_agrees(q, 2, &no_c6);
        let plan = TreePlan::within_width(&parse_cq(q).unwrap(), 2).unwrap();
        assert!(
            !plan.ir().reduction_decides(),
            "C6 bags must defer Boolean answers to the join phase"
        );
    }

    /// A dense database, three edges a node on `n` nodes: every bag
    /// relation is bitmap-eligible.
    fn dense(n: u32) -> Structure {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for u in 0..n {
            edges.push((u, (u * 11 + 5) % n));
            edges.push((u, (u * 17 + 2) % n));
            edges.push(((u * 3) % n, u));
        }
        Structure::digraph(n as usize, &edges)
    }

    /// The cyclic tier reads column bitmaps in its bag semijoin sweeps,
    /// and its stats count them (the triangle is one bag and sweeps
    /// nothing); the answers and the Boolean answer are
    /// the naive reference's, the output relation is the reference
    /// join's over the materialized bags, which reads no bitmap, and a
    /// warm run adopts every bag the cold run built.
    #[test]
    fn bitmap_kernels_identical_on_cyclic_tier() {
        let q6 = "Q() :- E(a,p), E(p,b), E(b,q), E(q,c), E(c,r), E(r,a)";
        let qtri = "Q(x) :- E(x,y), E(y,z), E(z,x)";
        let d = dense(60);
        for (qs, sweeps) in [(q6, true), (qtri, false)] {
            let q = parse_cq(qs).unwrap();
            let plan = TreePlan::within_width(&q, 2).unwrap();
            let cache = MaterializationCache::new();
            let (rows, s_cold) = plan.ir().answers(&d, Some(&cache));
            let (_, s_warm) = plan.ir().answers(&d, Some(&cache));
            assert_eq!(s_cold.bitmap_probes > 0, sweeps, "bitmaps read on {qs}");
            assert_eq!(rows, eval_naive(&q, &d), "naive disagrees on {qs}");
            assert_eq!(
                plan.ir().run_boolean(&d, None, None).0,
                !rows.is_empty(),
                "boolean on {qs}"
            );
            plan.ir().assert_output_is_reference_join(&d, qs);
            assert_eq!(s_warm.misses, 0, "warm run re-materialized on {qs}");
        }
    }

    /// The cyclic tier sorts on packed code words at every eligible
    /// interface (cross-bag semijoins, bag joins, dedups) over 60
    /// edges, where every sort is of fewer than 512 rows: the answers
    /// and the Boolean answer are the naive reference's, the output
    /// relation is byte for byte the reference join's, which sorts no
    /// word, and a warm run adopts every bag.
    #[test]
    fn packed_kernels_identical_on_cyclic_tier() {
        let q6 = "Q() :- E(a,p), E(p,b), E(b,q), E(q,c), E(c,r), E(r,a)";
        let qpair = "Q(x, y) :- E(x, z), E(z, y), E(x, w), E(w, y)";
        let d = dense(20);
        for qs in [q6, qpair] {
            let q = parse_cq(qs).unwrap();
            let plan = TreePlan::within_width(&q, 2).unwrap();
            let cache = MaterializationCache::new();
            let (rows, s_cold) = plan.ir().answers(&d, Some(&cache));
            let (_, s_warm) = plan.ir().answers(&d, Some(&cache));
            assert!(s_cold.packed_sorts > 0, "radix sorts on {qs}");
            assert_eq!(rows, eval_naive(&q, &d), "naive disagrees on {qs}");
            assert_eq!(
                plan.ir().run_boolean(&d, None, None).0,
                !rows.is_empty(),
                "boolean on {qs}"
            );
            plan.ir().assert_output_is_reference_join(&d, qs);
            assert_eq!(s_warm.misses, 0, "warm run re-materialized on {qs}");
        }
    }

    #[test]
    fn any_decomposition_at_any_root() {
        // A star over C6 whose centre {b, d, f} covers no atom — a shape
        // `compile` never picks — evaluated from each of its bags.
        let q = parse_cq("Q(a, d) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)").unwrap();
        let star = TreeDecomposition::from_bags(
            6,
            [[0, 1, 5], [1, 2, 3], [1, 3, 5], [3, 4, 5]],
            vec![(0, 2), (1, 2), (2, 3)],
        );
        star.validate(&query_graph(&q)).unwrap();
        let d = Structure::digraph(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (0, 6),
                (6, 2),
                (3, 3),
            ],
        );
        let expected = eval_naive(&q, &d);
        assert!(!expected.is_empty());
        for root in 0..star.bag_count() {
            let plan = TreePlan::rooted(&q, star.clone(), root);
            assert_eq!(plan.width(), Some(2));
            let centre = plan.bags().nth(2).unwrap().1;
            assert_eq!(centre.parts.len(), 0, "the centre covers no atom");
            assert_eq!(plan.ir().answers(&d, None).0, expected, "root {root}");
        }
    }

    #[test]
    fn compile_reduces_and_roots_at_the_centre() {
        // One bag per eliminated vertex would be three for the triangle
        // and six for C6; reduced, one and four.
        let tri = parse_cq("Q(x) :- E(x,y), E(y,z), E(z,x)").unwrap();
        assert_eq!(TreePlan::within_width(&tri, 2).unwrap().bags().count(), 1);
        let c6 = parse_cq("Q(a) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)").unwrap();
        let plan = TreePlan::within_width(&c6, 2).unwrap();
        assert_eq!(plan.bags().count(), 4);
        // The four bags form a path; the plan is the one rooted at one
        // of its two middle bags, not at either end.
        let td = treewidth_at_most(&query_graph(&c6), 2).unwrap().reduced();
        let heights = td.heights();
        let centre = (0..4).filter(|&b| heights[b] == 2).collect::<Vec<_>>();
        assert_eq!(centre.len(), 2);
        let same_ops = |root: usize| {
            let rooted = TreePlan::rooted(&c6, td.clone(), root);
            format!("{:?}", rooted.ir()) == format!("{:?}", plan.ir())
        };
        assert!(
            centre.iter().any(|&b| same_ops(b)),
            "compiled at a centre bag"
        );
        assert!((0..4).filter(|b| !centre.contains(b)).all(|b| !same_ops(b)));
    }

    #[test]
    fn free_variable_cycles() {
        let d = Structure::digraph(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 2), (5, 5)]);
        check_agrees("Q(a, c) :- E(a,b), E(b,c), E(c,d), E(d,a)", 2, &d);
        check_agrees("Q(a) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)", 2, &d);
    }

    #[test]
    fn wheel_width_three() {
        // Hub + 4-rim wheel: treewidth 3.
        let q = "Q(h) :- E(h,a), E(h,b), E(h,c), E(h,d), E(a,b), E(b,c), E(c,d), E(d,a)";
        let mut edges = vec![(0u32, 1), (0, 2), (0, 3), (0, 4)];
        edges.extend([(1, 2), (2, 3), (3, 4), (4, 1)]);
        edges.extend([(2, 5), (5, 3)]);
        let d = Structure::digraph(6, &edges);
        assert!(TreePlan::within_width(&parse_cq(q).unwrap(), 2).is_none());
        check_agrees(q, 3, &d);
    }

    #[test]
    fn repeated_vars_and_loops() {
        let d = Structure::digraph(4, &[(0, 0), (0, 1), (1, 2), (2, 0), (3, 3)]);
        check_agrees("Q(x) :- E(x,x), E(x,y), E(y,z), E(z,x)", 2, &d);
        check_agrees("Q() :- E(x,y), E(y,x), E(y,z), E(z,x)", 2, &d);
    }

    #[test]
    fn disconnected_cyclic_components() {
        // Two triangles over disjoint variables: the decomposition tree
        // is glued across components with empty overlaps.
        let d = Structure::digraph(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        check_agrees(
            "Q() :- E(x,y), E(y,z), E(z,x), E(u,v), E(v,w), E(w,u)",
            2,
            &d,
        );
        check_agrees(
            "Q(x, u) :- E(x,y), E(y,z), E(z,x), E(u,v), E(v,w), E(w,u)",
            2,
            &d,
        );
    }

    #[test]
    fn acyclic_queries_also_work() {
        // The tier is not restricted to cyclic queries: a path query has
        // treewidth 1 and the decomposition is a path of edge bags.
        let d = Structure::digraph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        check_agrees("Q(x, z) :- E(x, y), E(y, z)", 1, &d);
        check_agrees("Q() :- E(x, y), E(y, z)", 1, &d);
    }

    #[test]
    fn bag_cache_shared_with_acyclic_plans() {
        // The triangle's single bag joins three edge-shaped parts; a
        // part's key is the plain hyperedge key, so an acyclic plan over
        // E(x, y) shares the part materialization.
        let d = Structure::digraph(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let cache = MaterializationCache::new();
        let tri =
            TreePlan::within_width(&parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap(), 2).unwrap();
        let (_, s1) = tri.ir().answers(&d, Some(&cache));
        // Cold: the triangle bag (and its parts) materialize; the two
        // forward-edge-shaped parts share one key.
        assert!(s1.misses > 0);
        assert!(s1.hits > 0, "same-shape parts within the plan must share");
        let edge = TreePlan::join_tree(&parse_cq("Q(a, b) :- E(a, b)").unwrap()).unwrap();
        let (ans, s2) = edge.ir().answers(&d, Some(&cache));
        assert_eq!(ans.len(), 4);
        assert_eq!(
            (s2.hits, s2.misses),
            (1, 0),
            "hyperedge adopts the part entry"
        );
    }

    #[test]
    fn summaries_expose_bag_shape() {
        let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let plan = TreePlan::within_width(&q, 2).unwrap();
        // Some bag holds the whole triangle: label size 3, all three
        // edge parts joined inside it.
        let (_, full) = (plan.bags())
            .find(|&(size, _)| size == 3)
            .expect("a bag must contain the triangle clique");
        assert_eq!(full.parts.len(), 3);
    }
}
