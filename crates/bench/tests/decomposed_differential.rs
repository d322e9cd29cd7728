//! Differential property tests for the bounded-treewidth tier: the
//! `DecomposedPlan` (Yannakakis over tree-decomposition bags on the
//! shared plan IR) against the compiled naive evaluator and the frozen
//! seed-engine backtracking search (`cqapx_bench::baseline::BaselineHom`),
//! on random **cyclic** queries over random digraphs.
//!
//! Query families: oriented cycles `C₃..C₆` (the connector-bag cases),
//! wheels (treewidth 3), the `K₄` clique, double triangles, and random
//! digraph queries — each with random edge orientations and random
//! heads. Every plan is compiled at the query's exact treewidth; full
//! evaluation, Boolean evaluation, and cached evaluation (cold and
//! warm) must all agree with both references.
//!
//! `DecomposedPlan::compile` evaluates one root of the reduced
//! decomposition; `every_root_agrees` compiles all of them
//! (`compile_rooted`), so the answers cannot depend on the root rule.
//!
//! A node with one child or more is one kernel join (`Op::MultiJoin`),
//! and so is the combination of two roots: every check also rebuilds
//! each such op from the same input slots with the reference
//! nested-loop join (`cqapx_bench::reference`) and demands the same
//! bytes, and `wide_nodes_on_cycles` drives nodes with two children or
//! more by name — `C₅`, `C₆`, `C₇` under four heads, at every root of a path
//! and of a star decomposition, on a regular and on a hub-skewed graph.
//! A Boolean root's multi-column edge is the same op with nothing kept;
//! `boolean_cycles_with_and_without_a_witness` drives it through every
//! orientation of `C₄`–`C₆`, on graphs with and without a witness.

use cqapx_bench::baseline::BaselineHom;
use cqapx_bench::reference::assert_join;
use cqapx_cq::eval::{DecomposedPlan, FlatRelation, MaterializationCache, NaivePlan, Op};
use cqapx_cq::{parse_cq, query_graph, tableau_of, treewidth_of_query, ConjunctiveQuery};
use cqapx_graphs::treewidth::{treewidth_at_most, TreeDecomposition};
use cqapx_structures::{Element, Structure};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Frozen-baseline evaluation: enumerate tableau→database homomorphisms
/// with the seed engine and read answers off the distinguished
/// variables.
fn frozen_eval(q: &ConjunctiveQuery, d: &Structure) -> BTreeSet<Vec<Element>> {
    let t = tableau_of(q);
    let mut out = BTreeSet::new();
    BaselineHom::new(&t.structure, d).for_each(|h| {
        out.insert(
            t.distinguished()
                .iter()
                .map(|&v| h[v as usize])
                .collect::<Vec<Element>>(),
        );
        ControlFlow::Continue(())
    });
    out
}

/// Builds a query string from directed atom pairs and a head bitmask
/// over the variables that occur.
fn build_query(edges: &[(u32, u32)], flips: u32, head_bits: u32) -> ConjunctiveQuery {
    let mut used: BTreeSet<u32> = BTreeSet::new();
    let atoms: Vec<String> = edges
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| {
            let (a, b) = if flips >> (i % 32) & 1 == 1 {
                (b, a)
            } else {
                (a, b)
            };
            used.insert(a);
            used.insert(b);
            format!("E(x{a}, x{b})")
        })
        .collect();
    let head: Vec<String> = used
        .iter()
        .filter(|&&v| head_bits >> (v % 32) & 1 == 1)
        .map(|v| format!("x{v}"))
        .collect();
    let text = format!("Q({}) :- {}", head.join(", "), atoms.join(", "));
    parse_cq(&text).expect("generated query must parse")
}

/// The template family: cycles, wheels, K4, double triangles — the
/// shapes with treewidth 2 and 3 the decomposed tier exists for.
fn template_query() -> impl Strategy<Value = ConjunctiveQuery> {
    (0..4u8, 3..=6usize, any::<u32>(), any::<u32>()).prop_map(|(kind, size, flips, head_bits)| {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        match kind {
            0 => {
                // Oriented cycle C_size (tw 2; C6 exercises connector bags).
                for i in 0..size {
                    edges.push((i as u32, ((i + 1) % size) as u32));
                }
            }
            1 => {
                // Wheel: hub 0, rim 1..=m (tw 3).
                let m = size.clamp(3, 5);
                for i in 1..=m {
                    edges.push((0, i as u32));
                    edges.push((i as u32, (i % m + 1) as u32));
                }
            }
            2 => {
                // K4 (tw 3).
                for a in 0..4u32 {
                    for b in (a + 1)..4 {
                        edges.push((a, b));
                    }
                }
            }
            _ => {
                // Two triangles sharing vertex 0 (tw 2, articulation).
                edges.extend([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
            }
        }
        build_query(&edges, flips, head_bits)
    })
}

/// Random digraph queries over up to `max_vars` variables, loops
/// allowed; any treewidth (the plan compiles at the exact width).
fn random_query(max_vars: usize) -> impl Strategy<Value = ConjunctiveQuery> {
    (3..=max_vars).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 2..=2 * n),
            any::<u32>(),
        )
            .prop_map(|(edges, head_bits)| build_query(&edges, 0, head_bits))
    })
}

/// Two random bodies over disjoint variables, a triangle in each so
/// both components are cyclic; loops (repeated variables) and duplicate
/// atoms included. `boolean` empties the head.
fn disconnected_cyclic_query() -> impl Strategy<Value = ConjunctiveQuery> {
    (
        proptest::collection::vec((0..4u32, 0..4u32), 0..=4),
        proptest::collection::vec((4..8u32, 4..8u32), 0..=4),
        any::<u32>(),
        any::<bool>(),
    )
        .prop_map(|(mut edges, other, head_bits, boolean)| {
            edges.extend([(0, 1), (1, 2), (2, 0)]);
            edges.extend(other);
            edges.extend([(4, 5), (5, 6), (6, 4)]);
            build_query(&edges, 0, if boolean { 0 } else { head_bits })
        })
}

/// A random digraph database.
fn digraph(max_n: usize) -> impl Strategy<Value = Structure> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=(3 * n))
            .prop_map(move |edges| Structure::digraph(n, &edges))
    })
}

/// Every join op of `plan`, against the reference join over the same
/// input slots: same schema, same rows in the same (canonical) order,
/// same code width. Returns how many ops with three inputs or more — a
/// node with two children or more — a run reached.
fn check_wide_nodes(plan: &DecomposedPlan, d: &Structure, q: &ConjunctiveQuery) -> usize {
    let (_, slots, _) = plan.ir().run_slots(d, None, None);
    let mut reached = 0;
    for op in plan.ir().ops() {
        let Op::MultiJoin { dst, inputs, vars } = op else {
            continue;
        };
        // An emptiness assertion may have stopped the run before it.
        let Some(got) = &slots[*dst] else { continue };
        let input = |s: &usize| slots[*s].as_ref().expect("operands are written first");
        let parts: Vec<&FlatRelation> = inputs.iter().map(input).collect();
        assert_join(got, &parts, vars, &format!("{op:?} on {q}"));
        reached += usize::from(inputs.len() > 2);
    }
    reached
}

/// The differential check: decomposed ≡ naive ≡ frozen baseline, plus
/// cold-cache ≡ warm-cache ≡ uncached.
fn check(q: &ConjunctiveQuery, d: &Structure) {
    let tw = treewidth_of_query(q);
    let plan = DecomposedPlan::compile(q, tw).expect("compiles at the exact treewidth");
    prop_assert!(plan.width() <= tw, "width above requested bound on {}", q);
    let naive = NaivePlan::compile(q.clone());
    let expected = naive.eval(d);
    prop_assert_eq!(
        &frozen_eval(q, d),
        &expected,
        "frozen baseline disagrees with naive on {}",
        q
    );
    prop_assert_eq!(&plan.eval(d), &expected, "decomposed disagrees on {}", q);
    prop_assert_eq!(
        plan.eval_boolean(d),
        !expected.is_empty(),
        "boolean disagrees on {}",
        q
    );
    check_wide_nodes(&plan, d, q);
    // Cold, then warm, through one cache: same answers, and the warm
    // run adopts every materialization.
    let cache = MaterializationCache::new();
    let (cold, s_cold) = plan.eval_cached(d, Some(&cache));
    let (warm, s_warm) = plan.eval_cached(d, Some(&cache));
    prop_assert_eq!(&cold, &expected, "cold cached run disagrees on {}", q);
    prop_assert_eq!(&warm, &expected, "warm cached run disagrees on {}", q);
    prop_assert!(s_cold.misses > 0, "cold run must materialize on {}", q);
    prop_assert_eq!(
        s_warm.misses,
        0,
        "warm run must not re-materialize on {}",
        q
    );
    // Boolean through the warm cache too.
    let (b, _) = plan.eval_boolean_cached(d, Some(&cache));
    prop_assert_eq!(b, !expected.is_empty());
}

/// Every root of the reduced decomposition computes `Q(D)`: uncached,
/// cold and warm, with the same cache traffic when all of it is done
/// again — and the same traffic at every root, since the bags are.
fn check_every_root(q: &ConjunctiveQuery, d: &Structure) {
    let tw = treewidth_of_query(q);
    let td = treewidth_at_most(&query_graph(q), tw)
        .expect("decomposes at the exact treewidth")
        .reduced();
    let expected = NaivePlan::compile(q.clone()).eval(d);
    let mut traffic = BTreeSet::new();
    for root in 0..td.bags.len() {
        let plan = DecomposedPlan::compile_rooted(q, &td, root);
        prop_assert_eq!(plan.width(), td.width());
        prop_assert_eq!(&plan.eval(d), &expected, "root {} disagrees on {}", root, q);
        prop_assert_eq!(plan.eval_boolean(d), !expected.is_empty());
        check_wide_nodes(&plan, d, q);
        for _ in 0..2 {
            let cache = MaterializationCache::new();
            let (cold, s_cold) = plan.eval_cached(d, Some(&cache));
            let (warm, s_warm) = plan.eval_cached(d, Some(&cache));
            prop_assert_eq!(&cold, &expected, "cold, root {}, on {}", root, q);
            prop_assert_eq!(&warm, &expected, "warm, root {}, on {}", root, q);
            prop_assert_eq!(s_warm.misses, 0, "warm run re-materialized on {}", q);
            traffic.insert((s_cold.hits, s_cold.misses, s_warm.hits, s_warm.misses));
        }
    }
    prop_assert_eq!(
        traffic.len(),
        1,
        "cache traffic moved on {}: {:?}",
        q,
        traffic
    );
}

fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// A seeded 3-out-regular digraph on 400 vertices (no loops).
fn regular_digraph(seed: u64) -> Structure {
    let (n, mut s) = (400u32, seed | 1);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for u in 0..n {
        let first = edges.len();
        while edges.len() - first < 3 {
            let v = (lcg(&mut s) % u64::from(n)) as u32;
            if v != u && !edges[first..].contains(&(u, v)) {
                edges.push((u, v));
            }
        }
    }
    Structure::digraph(n as usize, &edges)
}

/// `wcoj_differential.rs`'s skewed digraph: endpoints drawn with a
/// quadratic bias toward low ids, so a few hubs hold most of the edges.
fn skewed_digraph(n: usize, edges: usize, seed: u64) -> Structure {
    let mut s = seed | 1;
    let mut pick = || {
        let r = (lcg(&mut s) % 1_048_576) as f64 / 1_048_576.0;
        ((r * r * n as f64) as usize).min(n - 1) as u32
    };
    let es: Vec<(u32, u32)> = (0..edges).map(|_| (pick(), pick())).collect();
    Structure::digraph(n, &es)
}

/// The directed cycles `C₅`, `C₆`, `C₇` with no head, one variable,
/// two non-adjacent ones and all of them, at every root of two
/// decompositions whose inner nodes have two children or more: the
/// fan of triangles around `v0` (a path of bags, so every inner root
/// has two) and a star around `{v0, v2, v4}`, which for `C₆` covers no
/// atom and has three leaves. Answers equal the naive
/// evaluator's and every join op equals the reference join, on a
/// regular and on a hub-skewed graph.
#[test]
fn wide_nodes_on_cycles() {
    let dbs = [regular_digraph(0xC1C1E), skewed_digraph(30, 120, 0x5EED)];
    for n in [5u32, 6, 7] {
        let path = TreeDecomposition {
            bags: (1..n - 1).map(|i| vec![0, i, i + 1]).collect(),
            tree_edges: (0..n as usize - 3).map(|i| (i, i + 1)).collect(),
        };
        // Centre `{v0, v2, v4}` with the triangles over `v1` and `v3`
        // as leaves; the rest of the ring, `v4 → … → v0`, is a fan
        // around `v4` hanging off the centre (one more leaf for `C₆`).
        let mut bags = vec![vec![0, 2, 4], vec![0, 1, 2], vec![2, 3, 4]];
        let mut tree_edges = vec![(0, 1), (0, 2)];
        let mut above = 0;
        for i in (5..n).rev() {
            let mut bag = vec![4, i, (i + 1) % n];
            bag.sort_unstable();
            bags.push(bag);
            tree_edges.push((above, bags.len() - 1));
            above = bags.len() - 1;
        }
        let star = TreeDecomposition { bags, tree_edges };
        let atoms: Vec<String> = (0..n)
            .map(|i| format!("E(v{i}, v{})", (i + 1) % n))
            .collect();
        let all: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
        for head in ["", "v0", "v0, v3", &all.join(", ")] {
            let q = parse_cq(&format!("Q({head}) :- {}", atoms.join(", "))).unwrap();
            for d in &dbs {
                let expected = NaivePlan::compile(q.clone()).eval(d);
                for td in [&path, &star] {
                    td.validate(&query_graph(&q))
                        .unwrap_or_else(|e| panic!("C{n}: {e:?}"));
                    let mut reached = 0;
                    for root in 0..td.bags.len() {
                        let plan = DecomposedPlan::compile_rooted(&q, td, root);
                        assert_eq!(plan.eval(d), expected, "root {root} of {td:?} on {q}");
                        reached += check_wide_nodes(&plan, d, &q);
                    }
                    assert!(reached > 0, "no wide node ran on {q} over {td:?}");
                }
            }
        }
    }
}

/// A random DAG on `n` vertices, 3n edge draws, every edge from a lower
/// to a higher id: no directed cycle maps into it.
fn random_dag(n: u32, seed: u64) -> Structure {
    let mut s = seed | 1;
    let mut pick = || (lcg(&mut s) % u64::from(n)) as u32;
    let es: Vec<(u32, u32)> = (0..3 * n)
        .map(|_| (pick(), pick()))
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    Structure::digraph(n as usize, &es)
}

/// Boolean `C₄`, `C₅` and `C₆` in every orientation of their edges, on
/// a hub-skewed graph and on a DAG (no witness for a directed cycle):
/// the naive answer, and every join op — the existence call `C₄`'s root
/// edge becomes included — equal to the reference join. Each length
/// meets both answers.
#[test]
fn boolean_cycles_with_and_without_a_witness() {
    let dbs = [skewed_digraph(30, 120, 0x5EED), random_dag(120, 0xDA6)];
    for n in [4u32, 5, 6] {
        let ring: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let mut answers = BTreeSet::new();
        for flips in 0..1u32 << n {
            let q = build_query(&ring, flips, 0);
            let plan = DecomposedPlan::compile(&q, 2).expect("a cycle has treewidth 2");
            for d in &dbs {
                let expected = NaivePlan::compile(q.clone()).eval_boolean(d);
                answers.insert(expected);
                assert_eq!(plan.eval_boolean(d), expected, "{q}");
                check_wide_nodes(&plan, d, &q);
            }
        }
        assert_eq!(answers.len(), 2, "C{n} meets one answer only");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Templates, random queries and two-component queries (free and
    /// Boolean) at every root of the reduced decomposition.
    #[test]
    fn every_root_agrees(
        t in template_query(),
        r in random_query(6),
        two in disconnected_cyclic_query(),
        d in digraph(7),
    ) {
        for q in [&t, &r, &two] {
            check_every_root(q, &d);
        }
    }

    /// Cycles, wheels, cliques and double triangles with random
    /// orientations and heads.
    #[test]
    fn decomposed_agrees_on_templates(q in template_query(), d in digraph(7)) {
        check(&q, &d);
    }

    /// Random digraph queries (any treewidth, loops and duplicate
    /// atoms included).
    #[test]
    fn decomposed_agrees_on_random_queries(q in random_query(6), d in digraph(7)) {
        check(&q, &d);
    }
}
