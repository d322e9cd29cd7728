//! Bounded-treewidth evaluation: Yannakakis over the bags of a tree
//! decomposition, compiled to the shared plan IR.
//!
//! The paper's `TW(k)` classes promise *tractable* evaluation for every
//! query whose graph `G(Q)` has treewidth at most `k` — including the
//! cyclic queries the acyclic tier must reject. The classic recipe:
//!
//! 1. compute a width-`≤ k` [`TreeDecomposition`] of `G(Q)`
//!    (deterministic, exact — `graphs::treewidth::treewidth_at_most`;
//!    [`DecomposedPlan::compile`]) or take the one a prepared query's
//!    shape already found ([`DecomposedPlan::from_decomposition`]),
//!    reduced and rooted at its centre;
//! 2. assign every atom to **every bag containing its variables** (an
//!    atom's variables form a clique of `G(Q)`, so at least one bag
//!    covers it) and **materialize each bag** as the join of its atom
//!    groups — at most `adom^(k+1)` rows, the tractability bound —
//!    by the one bag kernel, a worst-case-optimal multiway join whose
//!    cost does not depend on how the query numbers its variables. Bag
//!    materializations are `MatKey`-cached exactly like hyperedges
//!    and shared across plans (see [`MatSource`]);
//! 3. run the acyclic pipeline over the rooted bag tree: full-reducer
//!    semijoin sweeps as a prefilter, then one join per bag, bottom-up,
//!    projected onto (free ∪ parent-bag) variables. A bag with two or
//!    more children is joined with all of their partials at once, by
//!    the kernel the bags were built with: it binds the kept variables
//!    first and stops at the first witness for the rest, so nothing
//!    wider than the projection is ever materialized (`Q(a) :- C₆`'s
//!    root looks for one `(b, c, f)` per `a`; a Boolean root for one
//!    binding at all). Every operand lies inside `bag ∪ free`, so the
//!    join enumerates no more than a chain of binary joins would hold.
//!
//! Bags may contain *connector* variables none of their own atoms
//! constrain (a width-2 decomposition of the 6-cycle has them), so the
//! bag schemas can violate the running-intersection property that makes
//! the reducer complete on true join trees. The compiled program
//! therefore treats the sweeps as a sound prefilter only and lets the
//! join phase — whose projection keep-sets come from the *bags*, which
//! do satisfy running intersection — decide answers, Boolean ones
//! included. Intermediate relations stay inside `bag ∪ free` variables,
//! keeping evaluation polynomial for fixed `k`.
//!
//! The plan answers through its program: [`PlanIr::answers`] and
//! [`PlanIr::run_boolean`] on [`DecomposedPlan::ir`].
//!
//! [`TreeDecomposition`]: cqapx_graphs::treewidth::TreeDecomposition

use crate::ast::{Atom, ConjunctiveQuery, VarId};
use crate::classes::query_graph;
use crate::eval::ir::{compile_tree, MatSource, NodeSpec, PlanIr};
use cqapx_graphs::treewidth::{treewidth_at_most, TreeDecomposition};
use std::cmp::Reverse;
use std::fmt;

/// Error: the query graph has treewidth above the requested bound, so
/// no decomposition-based plan exists at that width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotDecomposable {
    /// The width bound that was requested.
    pub width_limit: usize,
}

impl fmt::Display for NotDecomposable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query graph has treewidth above {}: no width-bounded decomposition exists",
            self.width_limit
        )
    }
}

impl std::error::Error for NotDecomposable {}

/// A compiled bounded-treewidth evaluation plan for a (typically
/// cyclic) CQ.
///
/// # Examples
///
/// ```
/// use cqapx_cq::{eval::DecomposedPlan, parse_cq};
/// use cqapx_structures::Structure;
///
/// let q = parse_cq("Q(x) :- E(x,y), E(y,z), E(z,x)").unwrap();
/// let plan = DecomposedPlan::compile(&q, 2).unwrap();
/// assert_eq!(plan.width(), 2);
/// let d = Structure::digraph(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
/// let (answers, _) = plan.ir().answers(&d, None);
/// assert_eq!(answers.len(), 3); // x ∈ {0, 1, 2}
/// ```
#[derive(Debug, Clone)]
pub struct DecomposedPlan {
    ir: PlanIr,
    width: usize,
    /// Each bag's size, in bag order.
    bag_sizes: Vec<usize>,
}

impl DecomposedPlan {
    /// Compiles a plan from a width-`≤ k` tree decomposition of `G(Q)`
    /// ([`DecomposedPlan::from_decomposition`]); fails when the treewidth
    /// exceeds `k`.
    pub fn compile(query: &ConjunctiveQuery, k: usize) -> Result<DecomposedPlan, NotDecomposable> {
        let td =
            treewidth_at_most(&query_graph(query), k).ok_or(NotDecomposable { width_limit: k })?;
        Ok(Self::from_decomposition(query, td))
    }

    /// Compiles a plan from a tree decomposition of `G(Q)` someone has
    /// already searched for — a prepared query's shape carries the one
    /// its treewidth was read from.
    ///
    /// The decomposition is [reduced] first — a bag inside a neighbour
    /// costs a materialization, two semijoins and a join and constrains
    /// nothing — and rooted at a bag of minimum height, ties going to
    /// the bag with most head variables, then the lowest index: every
    /// level below the root is one more join whose fan-out multiplies
    /// the partial carried up, while a root with many children is
    /// still one multiway join, and rooting at the head's bag only
    /// spares carrying the head (and is the deepest root there is when
    /// that bag is a leaf).
    ///
    /// [reduced]: TreeDecomposition::reduced
    pub fn from_decomposition(query: &ConjunctiveQuery, td: TreeDecomposition) -> DecomposedPlan {
        let td = td.reduced();
        let heights = td.heights();
        let head = |bag: &[VarId]| query.free_vars().iter().filter(|v| bag.contains(v)).count();
        let root = (0..td.bags.len())
            .min_by_key(|&b| (heights[b], Reverse(head(&td.bags[b])), b))
            .expect("a decomposition has at least one bag");
        Self::compile_rooted(query, td, root)
    }

    /// Compiles a plan over a given tree decomposition of `G(Q)` rooted
    /// at bag `root`; every root of every valid decomposition computes
    /// the same answers. Panics when `td` is not a tree over its bags,
    /// `root` is not one of them, or some atom's variables lie in no bag.
    pub fn compile_rooted(
        query: &ConjunctiveQuery,
        td: TreeDecomposition,
        root: usize,
    ) -> DecomposedPlan {
        let rooted = td.rooted_at(root);
        let (width, bag_sizes) = (td.width(), td.bags.iter().map(Vec::len).collect());
        // Assign each atom to every bag covering its variable set, and
        // group the atoms of a bag by variable set: one part each. A
        // connector bag covering no atom gets the "true" relation. One
        // buffer holds every bag's atoms in turn, and the bags are the
        // labels.
        let covers = |bag: &[VarId], a: &Atom| a.args.iter().all(|v| bag.binary_search(v).is_ok());
        let in_bag = |bag: &[VarId]| query.atoms().iter().filter(|a| covers(bag, a)).count();
        assert!(
            (query.atoms().iter()).all(|a| td.bags.iter().any(|bag| covers(bag, a))),
            "every atom's variable clique must lie in some bag"
        );
        let mut atoms: Vec<&Atom> = Vec::with_capacity(td.bags.iter().map(|b| in_bag(b)).sum());
        for bag in &td.bags {
            let start = atoms.len();
            atoms.extend(query.atoms().iter().filter(|a| covers(bag, a)));
            atoms[start..].sort_by_key(|a| query.atoms().iter().position(|b| b.same_vars(a)));
        }
        let mut rest = &atoms[..];
        let nodes: Vec<NodeSpec> = (td.bags.iter())
            .map(|bag| {
                let (atoms, tail) = rest.split_at(in_bag(bag));
                rest = tail;
                NodeSpec {
                    atoms,
                    label: Some(bag),
                }
            })
            .collect();
        DecomposedPlan {
            ir: compile_tree(&nodes, &rooted.parent, &rooted.order, query.free_vars()),
            width,
            bag_sizes,
        }
    }

    /// The width of the decomposition the plan evaluates over.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The compiled IR program.
    pub fn ir(&self) -> &PlanIr {
        &self.ir
    }

    /// Per-bag cost-model inputs, in bag order: the bag's size and the
    /// source materialized for it, whose parts carry their relations
    /// and cache keys.
    pub fn bags(&self) -> impl Iterator<Item = (usize, &MatSource)> {
        // The program materializes bag `i` first, into slot `i`.
        (self.bag_sizes.iter().copied()).zip(self.ir.materialize_sources())
    }
}

/// The compiled program, moved out of its plan.
impl From<DecomposedPlan> for PlanIr {
    fn from(plan: DecomposedPlan) -> PlanIr {
        plan.ir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::flat::MaterializationCache;
    use crate::eval::naive::{eval_boolean_naive, eval_naive};
    use crate::parser::parse_cq;
    use cqapx_structures::Structure;

    fn check_agrees(q: &str, k: usize, d: &Structure) {
        let q = parse_cq(q).unwrap();
        let plan = DecomposedPlan::compile(&q, k).unwrap();
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
        assert!(DecomposedPlan::compile(&q, 2).is_err());
        let plan = DecomposedPlan::compile(&q, 3).unwrap();
        assert_eq!(plan.width(), 3);
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
        let plan = DecomposedPlan::compile(&parse_cq(q).unwrap(), 2).unwrap();
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
            let plan = DecomposedPlan::compile(&q, 2).unwrap();
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
            let plan = DecomposedPlan::compile(&q, 2).unwrap();
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
        let star = TreeDecomposition {
            bags: vec![vec![0, 1, 5], vec![1, 2, 3], vec![1, 3, 5], vec![3, 4, 5]],
            tree_edges: vec![(0, 2), (1, 2), (2, 3)],
        };
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
        for root in 0..star.bags.len() {
            let plan = DecomposedPlan::compile_rooted(&q, star.clone(), root);
            assert_eq!(plan.width(), 2);
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
        assert_eq!(DecomposedPlan::compile(&tri, 2).unwrap().bags().count(), 1);
        let c6 = parse_cq("Q(a) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)").unwrap();
        let plan = DecomposedPlan::compile(&c6, 2).unwrap();
        assert_eq!(plan.bags().count(), 4);
        // The four bags form a path; the plan is the one rooted at one
        // of its two middle bags, not at either end.
        let td = treewidth_at_most(&query_graph(&c6), 2).unwrap().reduced();
        let heights = td.heights();
        let centre = (0..4).filter(|&b| heights[b] == 2).collect::<Vec<_>>();
        assert_eq!(centre.len(), 2);
        let same_ops = |root: usize| {
            let rooted = DecomposedPlan::compile_rooted(&c6, td.clone(), root);
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
        assert!(DecomposedPlan::compile(&parse_cq(q).unwrap(), 2).is_err());
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
        use crate::eval::yannakakis::AcyclicPlan;
        // The triangle's single bag joins three edge-shaped parts; a
        // part's key is the plain hyperedge key, so an acyclic plan over
        // E(x, y) shares the part materialization.
        let d = Structure::digraph(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let cache = MaterializationCache::new();
        let tri = DecomposedPlan::compile(&parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap(), 2)
            .unwrap();
        let (_, s1) = tri.ir().answers(&d, Some(&cache));
        // Cold: the triangle bag (and its parts) materialize; the two
        // forward-edge-shaped parts share one key.
        assert!(s1.misses > 0);
        assert!(s1.hits > 0, "same-shape parts within the plan must share");
        let edge = AcyclicPlan::compile(&parse_cq("Q(a, b) :- E(a, b)").unwrap()).unwrap();
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
        let plan = DecomposedPlan::compile(&q, 2).unwrap();
        // Some bag holds the whole triangle: label size 3, all three
        // edge parts joined inside it.
        let (_, full) = (plan.bags())
            .find(|&(size, _)| size == 3)
            .expect("a bag must contain the triangle clique");
        assert_eq!(full.parts.len(), 3);
    }
}
