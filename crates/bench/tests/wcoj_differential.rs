//! Differential property tests for the bag kernel: the multiway
//! (leapfrog-triejoin) build against the reference nested-loop join
//! (`cqapx_bench::reference`) and the compiled naive evaluator, on
//! random cyclic queries over
//! random and skewed (power-law) digraphs, and on every numbering of
//! the variables of the directed cycles C₄, C₅ and C₆.
//!
//! For every generated pair each multi-part bag must be
//! **byte-identical** to the reference join (same schema, same rows
//! in the same canonical order, same code width), with identical
//! answers uncached, cold and warm through a [`MaterializationCache`].
//! The numbering sweep adds a clock-free
//! cost guard: the kernel's cursor advances stay linear in the rows it
//! reads and writes, however the query is spelled.

use cqapx_bench::reference::assert_join;
use cqapx_cq::eval::{
    DecomposedPlan, EvalConfig, FlatRelation, MatCacheStats, MatSource, MaterializationCache,
    NaivePlan,
};
use cqapx_cq::{parse_cq, treewidth_of_query, Atom, ConjunctiveQuery};
use cqapx_structures::{Structure, Vocabulary};
use proptest::prelude::*;
use std::collections::BTreeSet;

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

/// Cyclic template family — the shapes whose bags hold several atom
/// groups and so actually exercise the multiway kernel: oriented cycles
/// C₃..C₆ (connector bags), `K₄`, and double triangles.
fn cyclic_query() -> impl Strategy<Value = ConjunctiveQuery> {
    (0..3u8, 3..=6usize, any::<u32>(), any::<u32>()).prop_map(|(kind, size, flips, head_bits)| {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        match kind {
            0 => {
                for i in 0..size {
                    edges.push((i as u32, ((i + 1) % size) as u32));
                }
            }
            1 => {
                for a in 0..4u32 {
                    for b in (a + 1)..4 {
                        edges.push((a, b));
                    }
                }
            }
            _ => {
                edges.extend([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
            }
        }
        build_query(&edges, flips, head_bits)
    })
}

/// Random digraph queries over up to `max_vars` variables (loops and
/// duplicate atoms allowed, any treewidth).
fn random_query(max_vars: usize) -> impl Strategy<Value = ConjunctiveQuery> {
    (3..=max_vars).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 3..=2 * n),
            any::<u32>(),
        )
            .prop_map(|(edges, head_bits)| build_query(&edges, 0, head_bits))
    })
}

/// A uniform random digraph database.
fn digraph(max_n: usize) -> impl Strategy<Value = Structure> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=(3 * n))
            .prop_map(move |edges| Structure::digraph(n, &edges))
    })
}

fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// A skewed digraph: endpoints drawn with quadratic (power-law-ish)
/// bias toward low ids, so a few hubs concentrate most of the edges —
/// the regime where binary intermediates blow up and the multiway
/// kernel's per-value intersection pays off.
fn skewed_digraph(n: usize, edges: usize, seed: u64) -> Structure {
    let mut s = seed | 1;
    let pick = |s: &mut u64| -> u32 {
        let r = (lcg(s) % 1_048_576) as f64 / 1_048_576.0;
        ((r * r * n as f64) as usize).min(n - 1) as u32
    };
    let es: Vec<(u32, u32)> = (0..edges).map(|_| (pick(&mut s), pick(&mut s))).collect();
    Structure::digraph(n, &es)
}

fn skewed_db(max_n: usize) -> impl Strategy<Value = Structure> {
    (4..=max_n, any::<u64>()).prop_map(|(n, seed)| skewed_digraph(n, 4 * n, seed))
}

/// Each part of a source scanned on its own.
fn part_relations(source: &MatSource, d: &Structure) -> Vec<FlatRelation> {
    let scan = |part: &cqapx_cq::eval::MatPart| {
        let alone = MatSource {
            schema: part.schema.clone(),
            key: part.key.clone(),
            parts: vec![part.clone()],
        };
        alone.materialize(
            d,
            None,
            &mut MatCacheStats::default(),
            EvalConfig::default(),
        )
    };
    source.parts.iter().map(scan).collect()
}

/// Builds every multi-part bag of `plan` with the kernel and checks it
/// against the reference join byte for byte. Returns the rows the
/// kernel read and wrote (part rows + bag rows) and the cursor
/// advances it reported for them.
fn check_bags(plan: &DecomposedPlan, d: &Structure, q: &ConjunctiveQuery) -> (u64, u64) {
    let (mut rows, mut advances) = (0u64, 0u64);
    for source in plan.ir().materialize_sources() {
        if source.parts.len() < 2 {
            continue;
        }
        let mut stats = MatCacheStats::default();
        let got = source.materialize(d, None, &mut stats, EvalConfig::default());
        let parts = part_relations(source, d);
        let refs: Vec<&FlatRelation> = parts.iter().collect();
        assert_join(&got, &refs, &source.schema, &format!("bag of {q}"));
        assert_eq!(
            (stats.binary_bag_builds, stats.wcoj_bag_builds),
            (0, 1),
            "one build, by the kernel, on {q}"
        );
        let scanned: usize = parts.iter().map(FlatRelation::len).sum();
        rows += (scanned + got.len()) as u64;
        advances += stats.cursor_advances;
    }
    (rows, advances)
}

/// The differential check: kernel ≡ reference join ≡ naive, with
/// byte-identical bag relations and cold/warm cache accounting.
fn check(q: &ConjunctiveQuery, d: &Structure) {
    let tw = treewidth_of_query(q);
    let plan = DecomposedPlan::compile(q, tw).expect("compiles at the exact treewidth");
    let expected = NaivePlan::compile(q.clone()).eval(d);
    check_bags(&plan, d, q);

    // Answers: uncached, then cold + warm through one cache; warm runs
    // must not re-materialize.
    assert_eq!(&plan.eval(d), &expected, "uncached eval disagrees on {q}");
    let cache = MaterializationCache::new();
    for run in ["cold", "warm"] {
        let (ans, stats) = plan.eval_cached(d, Some(&cache));
        assert_eq!(&ans, &expected, "{run} cached eval disagrees on {q}");
        if run == "cold" {
            assert!(stats.misses > 0, "cold run must materialize on {q}");
        } else {
            assert_eq!(stats.misses, 0, "warm run re-materialized on {q}");
        }
    }
}

/// A seeded `degree`-out-regular digraph on `n` vertices (no loops).
fn regular_digraph(n: u32, degree: usize, seed: u64) -> Structure {
    let mut s = seed | 1;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for u in 0..n {
        let first = edges.len();
        while edges.len() - first < degree {
            let v = (lcg(&mut s) % u64::from(n)) as u32;
            if v != u && !edges[first..].contains(&(u, v)) {
                edges.push((u, v));
            }
        }
    }
    Structure::digraph(n as usize, &edges)
}

/// Every permutation of `0..n`, by Heap's algorithm.
fn permutations(n: usize) -> Vec<Vec<u32>> {
    fn heap(k: usize, items: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if k <= 1 {
            return out.push(items.clone());
        }
        for i in 0..k {
            heap(k - 1, items, out);
            items.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
        }
    }
    let mut out = Vec::new();
    heap(n, &mut (0..n as u32).collect(), &mut out);
    out
}

/// One constant for every numbering: advances ≤ `ADVANCES_PER_ROW` ×
/// (rows of the parts read + rows of the bags built).
const ADVANCES_PER_ROW: u64 = 2;

/// Answers, bag bytes and the linear cost bound for one spelling.
fn check_spelling(q: &ConjunctiveQuery, d: &Structure, expected: bool) {
    let plan = DecomposedPlan::compile(q, 2).expect("a cycle has treewidth 2");
    assert_eq!(plan.eval_boolean(d), expected, "answer differs on {q}");
    let (rows, advances) = check_bags(&plan, d, q);
    assert!(
        rows > 0,
        "a cycle of four or more has a multi-part bag: {q}"
    );
    assert!(
        advances <= ADVANCES_PER_ROW * rows,
        "{advances} cursor advances for {rows} rows read and written on {q}"
    );
}

/// The cost of a cyclic query must not depend on how it is spelled:
/// all 24 + 120 + 720 numberings of the variables of the directed C₄,
/// C₅ and C₆ give the naive answer, bags identical to the reference
/// join, and a kernel whose cursor advances are linear in its
/// input plus its output. (Ascending-`VarId` enumeration makes a bag
/// whose middle variable carries the highest id lead level 1 with a
/// whole relation per level-0 candidate: |V|² leapfrogs.)
///
/// Every numbering is also decided on a DAG, where no directed cycle
/// has a witness: `C₄`'s plan ends in its root's existence call, which
/// must then search its bags to the end.
#[test]
fn every_numbering_of_a_cycle_costs_the_same() {
    let d = regular_digraph(400, 3, 0xC1C1E);
    let mut s = 0xDA6u64;
    let mut pick = || (lcg(&mut s) % 400) as u32;
    let dag: Vec<(u32, u32)> = (0..1200)
        .map(|_| (pick(), pick()))
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    let dag = Structure::digraph(400, &dag);
    for n in [4usize, 5, 6] {
        let mut expected = None;
        let mut acyclic = None;
        for numbering in permutations(n) {
            let atoms = (0..n)
                .map(|i| Atom {
                    rel: Vocabulary::graphs().rel("E").expect("E"),
                    args: vec![numbering[i], numbering[(i + 1) % n]],
                })
                .collect();
            let names = (0..n).map(|v| format!("v{v}")).collect();
            let q = ConjunctiveQuery::new(Vocabulary::graphs(), names, Vec::new(), atoms);
            // Renamings of one query share one answer: ask the naive
            // evaluator once per cycle length.
            let expected =
                *expected.get_or_insert_with(|| !NaivePlan::compile(q.clone()).eval(&d).is_empty());
            check_spelling(&q, &d, expected);
            let acyclic =
                *acyclic.get_or_insert_with(|| NaivePlan::compile(q.clone()).eval_boolean(&dag));
            let plan = DecomposedPlan::compile(&q, 2).expect("a cycle has treewidth 2");
            assert!(expected && !acyclic, "C{n} must be decided both ways");
            assert_eq!(
                plan.eval_boolean(&dag),
                acyclic,
                "answer on the DAG differs on {q}"
            );
        }
    }
    // The two spellings of C₄ from the issue: 11.6 ms and 3,756 ms at
    // 5000 × 4 before the kernel chose its own order.
    for text in [
        "Q() :- E(a,b), E(b,c), E(c,d), E(d,a)",
        "Q() :- E(a,b), E(c,a), E(b,d), E(d,c)",
    ] {
        let q = parse_cq(text).expect("parses");
        let expected = !NaivePlan::compile(q.clone()).eval(&d).is_empty();
        check_spelling(&q, &d, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cyclic templates (cycles, K4, double triangles) over uniform
    /// random digraphs.
    #[test]
    fn wcoj_agrees_on_cyclic_templates(q in cyclic_query(), d in digraph(8)) {
        check(&q, &d);
    }

    /// Cyclic templates over skewed (hub-heavy) digraphs — the
    /// workloads the kernel exists for.
    #[test]
    fn wcoj_agrees_on_skewed_databases(q in cyclic_query(), d in skewed_db(24)) {
        check(&q, &d);
    }

    /// Random digraph queries (any treewidth, loops and duplicate
    /// atoms) over uniform and skewed databases.
    #[test]
    fn wcoj_agrees_on_random_queries(q in random_query(6), d in digraph(8)) {
        check(&q, &d);
    }

    /// Random queries crossed with skewed databases.
    #[test]
    fn wcoj_agrees_on_random_queries_skewed(q in random_query(5), d in skewed_db(16)) {
        check(&q, &d);
    }
}
