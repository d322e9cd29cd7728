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

use cqapx_bench::baseline::BaselineHom;
use cqapx_cq::eval::{DecomposedPlan, MaterializationCache, NaivePlan};
use cqapx_cq::{parse_cq, query_graph, tableau_of, treewidth_of_query, ConjunctiveQuery};
use cqapx_graphs::treewidth::treewidth_at_most;
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
