//! The evaluation contract's one harness: every tier returns exactly
//! `Q(D)` — the head projections of the homomorphisms from the tableau
//! of `Q` into `D`, which `eval_naive` enumerates — and every
//! approximation tier returns a sound subset of it.
//!
//! One query generator and one database generator feed one check,
//! [`check`]. The queries are `E`-atoms over numbered variables
//! ([`build_query`]) in four families — forests with reversed twins,
//! duplicates and loops; cycles, wheels, `K₄` and double triangles;
//! random digraph bodies; two cyclic components — with heads of up to
//! three variables drawn with repetition. The databases
//! ([`database_of`]) are uniform, Zipf or hub-skewed digraphs,
//! optionally re-spaced into a larger universe so the `DomainDict` is
//! not the identity. The check has four parts, which the test files run
//! family by family:
//! - [`check_oracle`]: the naive plan, and homomorphisms by their
//!   definition (`cqapx_bench::definitions::Hom`, plain backtracking),
//!   which triangulate the oracle on every shape;
//! - [`check_kernels`]: every multi-part bag of every tree-tier plan,
//!   and every `Op::MultiJoin` a run reaches, rebuilt from the same
//!   inputs by the reference join (`cqapx_bench::reference`) — byte for
//!   byte;
//! - [`check_acyclic`] and [`check_decomposed`]: the join-tree `TreePlan`
//!   when the query is acyclic, and the decomposition `TreePlan` at every
//!   root of the reduced decomposition at the exact treewidth —
//!   uncached, then cold and warm through one cache, full and Boolean.
//!   Cache hits, misses and resident bytes must not move across roots
//!   (the bags are the same);
//! - [`check_engine`]: the engine, cold and warm, on the query and on
//!   its Boolean version, with unbounded caches and with both starved to
//!   one byte.
//!
//! Every answer set passes [`assert_is`]: the oracle's rows as a set,
//! in its order, with `contains` agreeing. [`serve_batches`] runs the
//! engine's batches at 1, 2 and 8 threads, and
//! [`serve_sandwich_batches`] the same on the approximation sandwich.
//!
//! The kernel has one configuration: a column bitmap answers whenever
//! the relation is eligible, and rows that pack into one word are
//! radix-sorted at any size. Which arm ran is read off a run's
//! `MatCacheStats` ([`kernel_stats`]); [`bitmap_ineligible`] pads a
//! database until no relation a plan writes is eligible, and
//! [`scans_unsorted`] tells when a plan must sort a scan.
//!
//! Each test binary compiles this module for itself and uses a part of
//! it, hence `dead_code` is allowed.

#![allow(dead_code)]

use cqapx_bench::definitions::Hom;
use cqapx_bench::reference::reference_join;
use cqapx_bench::workloads::{lcg, skewed_digraph, zipf_db};
use cqapx_core::{all_approximations, ApproxOptions, TwK};
use cqapx_cq::eval::ir::compile_tree;
use cqapx_cq::eval::{
    eval_boolean_naive, eval_naive, Answers, AtomBinder, EvalProfile, FlatRelation, MatCacheStats,
    MaterializationCache, NaivePlan, NodeSpec, Op, PlanIr, TreePlan,
};
use cqapx_cq::{
    parse_cq, parse_cq_with_vocab, query_graph, tableau_of, treewidth_of_query, Atom,
    ConjunctiveQuery,
};
use cqapx_engine::{
    Engine, EngineConfig, EvalMode, MetricsLevel, QueryId, Request, ResponseStatus, StatsSnapshot,
};
use cqapx_graphs::treewidth::treewidth_at_most;
use cqapx_structures::{Element, Structure, StructureBuilder, Vocabulary};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::{ControlFlow, Range, RangeInclusive};

pub type Rows = BTreeSet<Vec<Element>>;

// ---------------------------------------------------------------------
// The generators.
// ---------------------------------------------------------------------

/// The query over atoms `E(x{a}, x{b})`, edge `i` reversed when bit
/// `i % 32` of `flips` is set, whose head lists the occurring variables
/// `head` picks (each index taken modulo their number, so repeats
/// happen).
pub fn build_query(edges: &[(u32, u32)], flips: u32, head: &[usize]) -> ConjunctiveQuery {
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
            used.extend([a, b]);
            format!("E(x{a}, x{b})")
        })
        .collect();
    let used: Vec<u32> = used.into_iter().collect();
    let head: Vec<String> = (head.iter())
        .map(|&h| format!("x{}", used[h % used.len()]))
        .collect();
    let text = format!("Q({}) :- {}", head.join(", "), atoms.join(", "));
    parse_cq(&text).expect("generated query must parse")
}

/// A head of arity 0 to 3, for [`build_query`].
fn head() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..64usize, 0..=3)
}

/// Random forests over up to six variables, spiced with the shapes that
/// exercise the kernel's corners: reversed twins and exact duplicates of
/// an edge (one hyperedge, intersected), loops `E(x, x)`
/// (repeated-variable binders, ear-subsumed hyperedges) and dropped
/// edges (several components). Paths, stars and trees are among them.
pub fn forest() -> impl Strategy<Value = ConjunctiveQuery> {
    (2..=6usize).prop_flat_map(|n| {
        let parents = proptest::collection::vec((0..n as u32, any::<bool>(), 0..4u8), n - 1);
        let loops = proptest::collection::vec(0..n as u32, 0..=2);
        (parents, loops, head()).prop_map(|(parents, loops, head)| {
            let mut edges = Vec::new();
            for (i, &(p, flip, kind)) in parents.iter().enumerate() {
                let (a, b) = ((i + 1) as u32, p.min(i as u32));
                let (a, b) = if flip { (b, a) } else { (a, b) };
                match kind {
                    0 => edges.push((a, b)),
                    1 => edges.extend([(a, b), (b, a)]), // reversed twin
                    2 => edges.extend([(a, b), (a, b)]), // exact duplicate
                    _ => {}                              // dropped
                }
            }
            edges.extend(loops.iter().map(|&v| (v, v)));
            if edges.is_empty() {
                edges.push((0, 1));
            }
            build_query(&edges, 0, &head)
        })
    })
}

/// The shapes of treewidth 2 and 3 the decomposed tier exists for:
/// oriented cycles `C₃..C₆` (`C₆` has connector bags), wheels, `K₄` and
/// two triangles sharing a vertex, every edge's orientation drawn.
pub fn template() -> impl Strategy<Value = ConjunctiveQuery> {
    (0..4u8, 3..=6u32, any::<u32>(), head()).prop_map(|(kind, size, flips, head)| {
        let edges: Vec<(u32, u32)> = match kind {
            0 => (0..size).map(|i| (i, (i + 1) % size)).collect(),
            1 => {
                // Hub 0, rim 1..=m.
                let m = size.clamp(3, 5);
                (1..=m).flat_map(|i| [(0, i), (i, i % m + 1)]).collect()
            }
            2 => (0..4)
                .flat_map(|a| (a + 1..4).map(move |b| (a, b)))
                .collect(),
            _ => vec![(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
        };
        build_query(&edges, flips, &head)
    })
}

/// Random digraph bodies over three to six variables, loops and
/// duplicate atoms allowed: any treewidth.
pub fn random_body() -> impl Strategy<Value = ConjunctiveQuery> {
    (3..=6u32).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 2..=2 * n as usize);
        (edges, head()).prop_map(|(edges, head)| build_query(&edges, 0, &head))
    })
}

/// Two random bodies over disjoint variables with a triangle in each,
/// so both components are cyclic; loops and duplicate atoms included.
pub fn two_cycles() -> impl Strategy<Value = ConjunctiveQuery> {
    (
        proptest::collection::vec((0..4u32, 0..4u32), 0..=4),
        proptest::collection::vec((4..8u32, 4..8u32), 0..=4),
        head(),
    )
        .prop_map(|(mut edges, other, head)| {
            edges.extend([(0, 1), (1, 2), (2, 0)]);
            edges.extend(other);
            edges.extend([(4, 5), (5, 6), (6, 4)]);
            build_query(&edges, 0, &head)
        })
}

/// Every kind [`database_of`] draws.
pub const ANY_KIND: Range<u8> = 0..4;
/// Its uniform kinds.
pub const UNIFORM: Range<u8> = 0..2;
/// Its skewed kinds: Zipf and hub-skewed.
pub const SKEWED: Range<u8> = 2..4;
/// Every gap [`database_of`] re-spaces by; `1` keeps the database dense.
pub const ANY_GAP: RangeInclusive<u32> = 1..=3;

/// A digraph of one of `kinds` with up to four edges per node: uniform
/// (kinds 0 and 1, loops included) on three to ten nodes, else Zipf
/// (kind 2) on as many or hub-skewed (kind 3: quadratic bias toward low
/// ids) on ten to 24, where a few hubs hold most edges; sparse draws
/// give empty answers. Node `v` then moves to `v · gap + gap − 1` in a
/// universe with two spare elements: for `gap > 1` the active domain
/// has holes and the dictionary is not the identity.
pub fn database_of(
    kinds: Range<u8>,
    gaps: RangeInclusive<u32>,
) -> impl Strategy<Value = Structure> {
    (kinds, 3..=10usize, 0..=4usize, (gaps, any::<u64>())).prop_map(
        |(kind, n, density, (gap, seed))| {
            let n = if kind == 3 { 2 * n + 4 } else { n };
            let edges = density * n;
            let base = match kind {
                0 | 1 => {
                    let mut s = seed;
                    let mut pick = || (lcg(&mut s) % n as u64) as u32;
                    let es: Vec<(u32, u32)> = (0..edges).map(|_| (pick(), pick())).collect();
                    Structure::digraph(n, &es)
                }
                2 => zipf_db(n, edges, 1.1, seed),
                _ => skewed_digraph(n, edges, seed),
            };
            let e = base.vocabulary().rel("E").expect("digraph vocabulary");
            let spaced: Vec<(Element, Element)> = base
                .tuples(e)
                .map(|t| (t[0] * gap + gap - 1, t[1] * gap + gap - 1))
                .collect();
            Structure::digraph(n * gap as usize + 2, &spaced)
        },
    )
}

/// Every kind, every gap.
pub fn database() -> impl Strategy<Value = Structure> {
    database_of(ANY_KIND, ANY_GAP)
}

// ---------------------------------------------------------------------
// The check.
// ---------------------------------------------------------------------

/// `got` is `expected`: as a set (both `PartialEq` directions), in
/// length, in iteration order, and under `contains` — probed with
/// every expected row and its neighbours one element up and down.
pub fn assert_is(got: &Answers, expected: &Rows, arity: usize, what: &str) {
    assert_eq!(got, expected, "{what}");
    assert_eq!(expected, got, "{what} (tree on the left)");
    assert_eq!(got.len(), expected.len(), "{what}: len");
    assert_eq!(got.is_empty(), expected.is_empty(), "{what}: is_empty");
    assert_eq!(got.arity(), arity, "{what}: arity");
    assert!(
        got.iter()
            .map(|r| r.as_slice())
            .eq(expected.iter().map(Vec::as_slice)),
        "{what}: iteration order"
    );
    assert!(
        got.iter()
            .zip(got.iter().skip(1))
            .all(|(a, b)| a.as_slice() < b.as_slice()),
        "{what}: rows strictly increasing"
    );
    assert_eq!(&got.to_btree_set(), expected, "{what}: to_btree_set");
    // Rows share one length, so a row with its last element one up
    // (down) is in the set exactly when it is the next (previous) row;
    // only a wrapped element needs the tree.
    let rows: Vec<&Vec<Element>> = expected.iter().collect();
    let mut near = Vec::with_capacity(arity);
    for (i, row) in rows.iter().enumerate() {
        assert!(got.contains(row), "{what}: contains {row:?}");
        let before = i.checked_sub(1).map(|j| rows[j]);
        for (up, neighbour) in [(true, rows.get(i + 1).copied()), (false, before)] {
            near.clone_from(row);
            let Some(last) = near.last_mut() else {
                continue;
            };
            let (value, wrapped) = if up {
                last.overflowing_add(1)
            } else {
                last.overflowing_sub(1)
            };
            *last = value;
            let member = if wrapped {
                expected.contains(&near)
            } else {
                neighbour == Some(&near)
            };
            assert_eq!(got.contains(&near), member, "{what}: contains {near:?}");
        }
    }
    assert!(!got.contains(&vec![0; arity + 1]), "{what}: wrong arity");
}

/// The answers by definition: every tableau → database homomorphism,
/// read off at the head.
fn eval_by_definition(q: &ConjunctiveQuery, d: &Structure) -> Rows {
    let t = tableau_of(q);
    let mut out = BTreeSet::new();
    Hom::new(&t.structure, d).for_each(|h| {
        out.insert(t.distinguished().iter().map(|&v| h[v as usize]).collect());
        ControlFlow::Continue(())
    });
    out
}

/// The oracle, `eval_naive`, triangulated by homomorphisms by
/// definition;
/// the compiled naive plan returns its rows, full and Boolean. Returns
/// the oracle's rows.
pub fn check_oracle(q: &ConjunctiveQuery, d: &Structure) -> Rows {
    let expected = eval_naive(q, d);
    assert_eq!(
        eval_by_definition(q, d),
        expected,
        "definition vs naive, {q}"
    );
    let naive = NaivePlan::compile(q.clone());
    assert_is(
        &naive.eval_answers(d),
        &expected,
        q.arity(),
        &format!("naive plan, {q}"),
    );
    assert_eq!(
        naive.eval_boolean(d),
        !expected.is_empty(),
        "naive Boolean, {q}"
    );
    expected
}

/// The decomposition `TreePlan` at every root of the reduced
/// decomposition of `q` at its exact treewidth.
fn decomposed_roots(q: &ConjunctiveQuery) -> Vec<TreePlan> {
    let tw = treewidth_of_query(q);
    let td = treewidth_at_most(&query_graph(q), tw)
        .expect("decomposes at the exact treewidth")
        .reduced();
    assert!(td.width() <= tw, "width above the treewidth on {q}");
    (0..td.bag_count())
        .map(|root| {
            let plan = TreePlan::rooted(q, td.clone(), root);
            assert_eq!(plan.width(), Some(td.width()));
            plan
        })
        .collect()
}

/// Asserts that `got` is what the kernel must write for
/// `π_keep(⋈ parts)`: schema `keep`, the reference join's rows in order,
/// and its width bound.
pub fn assert_join(got: &FlatRelation, parts: &[&FlatRelation], keep: &[u32], ctx: &str) {
    let parts: Vec<_> = (parts.iter())
        .map(|p| (p.schema(), p.iter_rows().collect(), p.domain_width()))
        .collect();
    let (want, width) = reference_join(&parts, keep);
    assert_eq!(got.schema(), keep, "schema: {ctx}");
    assert_eq!(got.len(), want.len(), "row count: {ctx}");
    let want = want.iter().map(Vec::as_slice);
    assert!(got.iter_rows().eq(want), "rows: {ctx}");
    assert_eq!(got.domain_width(), width, "width: {ctx}");
}

/// Every multi-part bag of `ir`, built by the kernel alone and checked
/// against the reference join of its parts, each scanned on its own:
/// same schema, rows, order and code width, in one build by the
/// multiway kernel. Returns the rows the kernel read and wrote (part
/// rows + bag rows) and the cursor advances it reported for them.
pub fn check_bags(ir: &PlanIr, d: &Structure, what: &str) -> (u64, u64) {
    let (mut rows, mut advances) = (0u64, 0u64);
    for source in ir.materialize_sources().filter(|s| s.parts.len() > 1) {
        let mut stats = MatCacheStats::default();
        let got = ir.materialize(source, d, None, None, &mut stats);
        let parts: Vec<FlatRelation> = (ir.parts(source).iter())
            .map(|part| ir.materialize_part(part, d, &mut MatCacheStats::default()))
            .collect();
        let refs: Vec<&FlatRelation> = parts.iter().collect();
        let schema = ir.words(source.schema);
        assert_join(&got, &refs, schema, &format!("bag of {what}"));
        assert_eq!(
            (stats.binary_bag_builds, stats.wcoj_bag_builds),
            (0, 1),
            "one build, by the kernel: {what}"
        );
        let scanned: usize = parts.iter().map(FlatRelation::len).sum();
        rows += (scanned + got.len()) as u64;
        advances += stats.cursor_advances;
    }
    (rows, advances)
}

/// Every `Op::MultiJoin` a run of `ir` reaches, against the reference
/// join over the same input slots: same schema, same rows in the same
/// (canonical) order, same code width. Returns how many joined three
/// inputs or more — a node with two children or more.
pub fn check_joins(ir: &PlanIr, d: &Structure, what: &str) -> usize {
    let (_, slots, _) = ir.run_slots(d, None, None);
    let mut wide = 0;
    for op in ir.ops() {
        let Op::MultiJoin { dst, inputs, vars } = *op else {
            continue;
        };
        // An emptiness assertion may have stopped the run before it.
        let Some(got) = &slots[dst] else { continue };
        let input = |&s: &u32| {
            slots[s as usize]
                .as_ref()
                .expect("operands are written first")
        };
        let parts: Vec<&FlatRelation> = ir.words(inputs).iter().map(input).collect();
        let vars = ir.words(vars);
        assert_join(
            got,
            &parts,
            vars,
            &format!("{vars:?} of {inputs:?}, {what}"),
        );
        wide += usize::from(inputs.len() > 2);
    }
    wide
}

/// Every tree-tier plan of `q`, named: the join tree when `q` is
/// acyclic, then the decomposition at every root.
pub fn tree_plans(q: &ConjunctiveQuery) -> Vec<(String, PlanIr)> {
    let acyclic = TreePlan::join_tree(q);
    let acyclic = (acyclic.iter()).map(|plan| ("yannakakis".to_string(), plan.ir().clone()));
    let roots = decomposed_roots(q);
    let roots =
        (roots.iter().enumerate()).map(|(root, plan)| (format!("root {root}"), plan.ir().clone()));
    acyclic.chain(roots).collect()
}

/// The kernel against the reference join: every multi-part bag of
/// every tree-tier plan of `q`, and every join op their runs reach.
pub fn check_kernels(q: &ConjunctiveQuery, d: &Structure) {
    for (tier, ir) in tree_plans(q) {
        check_bags(&ir, d, &format!("{tier}, {q}"));
        check_joins(&ir, d, &format!("{tier}, {q}"));
    }
}

/// Hits and misses of a cold and then a warm run through one fresh
/// cache, and the bytes resident after them.
type Traffic = (u32, u32, u32, u32, usize);

/// One plan of a tree tier: its answers — uncached, then cold and warm
/// through one cache, full and Boolean — are the oracle's, and a warm
/// run materializes nothing. Returns the cache traffic.
fn check_plan(
    ir: &PlanIr,
    q: &ConjunctiveQuery,
    d: &Structure,
    expected: &Rows,
    tier: &str,
) -> Traffic {
    let (arity, holds) = (q.arity(), !expected.is_empty());
    let what = format!("{tier}, {q}");
    let (uncached, _) = ir.answers(d, None);
    assert_is(&uncached, expected, arity, &format!("uncached, {what}"));
    let (boolean, _) = ir.run_boolean(d, None, None);
    assert_eq!(boolean, holds, "Boolean, uncached, {what}");
    let cache = MaterializationCache::new();
    let (cold, sc) = ir.answers(d, Some(&cache));
    let (warm, sw) = ir.answers(d, Some(&cache));
    assert_is(&cold, expected, arity, &format!("cold, {what}"));
    assert_is(&warm, expected, arity, &format!("warm, {what}"));
    assert!(sc.misses > 0, "cold run must materialize, {what}");
    assert_eq!(sw.misses, 0, "warm run re-materialized, {what}");
    let (boolean, sb) = ir.run_boolean(d, Some(&cache), None);
    assert_eq!((boolean, sb.misses), (holds, 0), "Boolean, warm, {what}");
    (
        sc.hits,
        sc.misses,
        sw.hits,
        sw.misses,
        cache.resident_bytes(),
    )
}

/// The join-tree `TreePlan`, when `q` is acyclic (see [`check_plan`]). One
/// single-part source per hyperedge: the warm run hits every lookup the
/// cold run made.
pub fn check_acyclic(q: &ConjunctiveQuery, d: &Structure, expected: &Rows) {
    if let Some(plan) = TreePlan::join_tree(q) {
        let (hits, misses, warm_hits, _, _) = check_plan(plan.ir(), q, d, expected, "yannakakis");
        assert_eq!(warm_hits, hits + misses, "warm lookups, yannakakis, {q}");
    }
}

/// The decomposition `TreePlan` at every root (see [`check_plan`]); the cache
/// traffic is the same at every root.
pub fn check_decomposed(q: &ConjunctiveQuery, d: &Structure, expected: &Rows) {
    let traffic: BTreeSet<Traffic> = (decomposed_roots(q).iter().enumerate())
        .map(|(root, plan)| {
            let tier = format!("decomposed at root {root}");
            check_plan(plan.ir(), q, d, expected, &tier)
        })
        .collect();
    assert_eq!(
        traffic.len(),
        1,
        "cache accounting moved across roots on {q}: {traffic:?}"
    );
}

/// Both tree tiers.
pub fn check_tiers(q: &ConjunctiveQuery, d: &Structure, expected: &Rows) {
    check_acyclic(q, d, expected);
    check_decomposed(q, d, expected);
}

/// The kernel counters of one uncached full run of every tree-tier
/// plan of `q` over `d`, each with whether the plan semijoins on one
/// column — the op a column bitmap answers. A run to a nonempty answer
/// reaches every such op.
pub fn kernel_stats(q: &ConjunctiveQuery, d: &Structure) -> Vec<(bool, MatCacheStats)> {
    let one_column =
        |op: &Op| matches!(op, Op::Semijoin { target_pos, .. } if target_pos.len() == 1);
    (tree_plans(q).iter())
        .map(|(_, ir)| (ir.ops().iter().any(one_column), ir.run(d, None, None).1))
        .collect()
}

/// `q` and `d` over the vocabulary `E/2, P/1`, with `P` holding the
/// elements `0..w`: `w` exceeds 64 codes a row of the largest relation
/// (at least 16 rows) that a run of a tree-tier plan of `q` writes on
/// `d`, so every dense bound is too sparse for a column bitmap. The
/// rows of every relation, and the answers over `d`'s own elements,
/// stay as they were.
pub fn bitmap_ineligible(q: &ConjunctiveQuery, d: &Structure) -> (ConjunctiveQuery, Structure) {
    let largest = (tree_plans(q).iter())
        .flat_map(|(_, ir)| {
            let mut profile = EvalProfile::default();
            ir.run(d, None, Some(&mut profile));
            profile.ops.into_iter().map(|op| op.rows)
        })
        .fold(16, usize::max);
    let w = 64 * largest + 1;
    let vocab = Vocabulary::new(vec![("E", 2), ("P", 1)]);
    let (e, p) = (vocab.rel("E").unwrap(), vocab.rel("P").unwrap());
    let (names, head) = (q.var_names().iter(), q.free_vars().to_vec());
    let atoms = q.atoms().map(|a| (a.rel, a.args));
    let pq = ConjunctiveQuery::new(vocab.clone(), names, head, atoms);
    let mut b = StructureBuilder::new(vocab, w.max(d.universe_size()));
    for t in d.tuples(d.vocabulary().rel("E").expect("digraph vocabulary")) {
        b.add(e, t);
    }
    for v in 0..w as Element {
        b.add(p, &[v]);
    }
    (pq, b.finish())
}

/// Whether some atom of `q`, scanned from `d` into its variables in
/// ascending order, comes out unsorted. Every tree-tier plan then sorts
/// that scan: its rows fit a word whenever `d` has an edge.
pub fn scans_unsorted(q: &ConjunctiveQuery, d: &Structure) -> bool {
    q.atoms().any(|atom| {
        let mut vars = atom.args.to_vec();
        vars.sort_unstable();
        vars.dedup();
        let mut scan = FlatRelation::empty(vars.clone());
        let mut words = Vec::new();
        AtomBinder::compile(atom, &mut words).materialize_into(&words, d, &mut scan);
        !scan.iter_rows().is_sorted_by(|x, y| x < y)
    })
}

/// The engine, cold, warm and once more, on `q` and on its Boolean
/// version, with unbounded caches and with both caches starved to one
/// byte — every landing evicts, which costs rebuilds, never answers.
pub fn check_engine(q: &ConjunctiveQuery, d: &Structure, expected: &Rows) {
    let mut queries = vec![(q.clone(), expected.clone())];
    if !q.is_boolean() {
        let boolean = ConjunctiveQuery::new(
            q.vocabulary().clone(),
            q.var_names().iter(),
            Vec::new(),
            q.atoms().map(|a| (a.rel, a.args)),
        );
        let holds: Rows = expected.iter().take(1).map(|_| Vec::new()).collect();
        queries.push((boolean, holds));
    }
    for budget in [0, 1] {
        let engine = Engine::new(EngineConfig {
            threads: 1,
            mat_cache_budget_bytes: Some(budget),
            approx_cache_budget_bytes: Some(budget),
            ..EngineConfig::default()
        });
        let db = engine.register_database("d", d.clone());
        for (query, rows) in &queries {
            let id = engine.prepare_query(query.to_string(), query.clone());
            for run in ["cold", "warm", "again"] {
                let r = engine.execute(&Request::new(id, db));
                let what = format!("engine, {run}, budget {budget}, {:?}, {query}", r.plan);
                assert_eq!(r.status, ResponseStatus::Complete, "{what}");
                assert_is(&r.answers, rows, query.arity(), &what);
            }
        }
        let resident = engine.snapshot().mat_cache_bytes_by_db["d"];
        assert!(budget == 0 || resident <= 1, "{resident} bytes held, {q}");
    }
}

/// The whole contract on `q` over `d`: every part above, every tier.
pub fn check(q: &ConjunctiveQuery, d: &Structure) {
    let expected = check_oracle(q, d);
    check_kernels(q, d);
    check_tiers(q, d, &expected);
    check_engine(q, d, &expected);
}

// ---------------------------------------------------------------------
// Engine batches.
// ---------------------------------------------------------------------

/// Engine thread counts: 1 runs batches sequentially; 2 and 8 under-
/// and over-subscribe the actual machine.
pub const THREADS: [usize; 3] = [1, 2, 8];

/// The batch's queries. None repeats a variable, so planner estimates
/// (which may peek cached cardinalities) cannot depend on the order
/// the batch materializes in either.
const BATCH: [&str; 3] = [
    "Q(x, z) :- E(x, y), E(y, z)",
    "Q() :- E(x,y), E(y,z), E(z,x)",
    "Q(a) :- E(a,b), E(b,c), E(c,d), E(d,a)",
];

/// Serves the batch's queries, each `dup` times, as one batch on a
/// fresh engine at each of [`THREADS`], with both caches at `budget`
/// bytes (`0`: unbounded) and metrics at `Counters`. Every answer must
/// be the oracle's; returns each engine's snapshot, in [`THREADS`]
/// order.
pub fn serve_batches(d: &Structure, budget: usize, dup: usize) -> [StatsSnapshot; 3] {
    let config = EngineConfig {
        mat_cache_budget_bytes: Some(budget),
        approx_cache_budget_bytes: Some(budget),
        ..EngineConfig::default()
    };
    serve(d, &config, &[EvalMode::Exact], dup)
}

/// [`serve_batches`] on the approximation sandwich: a naive budget of
/// zero sends the two cyclic queries there, and each query is served
/// `dup` times exact and `dup` times certain-only, so both caches see
/// traffic — the materialization cache at `mat` bytes and the
/// approximation cache at `approx` (`0`: unbounded). A certain-only
/// answer must be the union of `Q'(D)` over the `TW(1)`-approximations
/// `Q'` of `Q` (for the acyclic query, `Q` itself).
pub fn serve_sandwich_batches(
    d: &Structure,
    mat: usize,
    approx: usize,
    dup: usize,
) -> [StatsSnapshot; 3] {
    let config = EngineConfig {
        naive_cost_budget: 0.0,
        mat_cache_budget_bytes: Some(mat),
        approx_cache_budget_bytes: Some(approx),
        ..EngineConfig::default()
    };
    serve(d, &config, &[EvalMode::Exact, EvalMode::CertainOnly], dup)
}

/// Serves every batch query in every mode of `modes`, each `dup` times,
/// as one batch on a fresh engine per thread count, configured as
/// `config` but for its thread count, with metrics at `Counters`.
fn serve(
    d: &Structure,
    config: &EngineConfig,
    modes: &[EvalMode],
    dup: usize,
) -> [StatsSnapshot; 3] {
    let queries: Vec<ConjunctiveQuery> = BATCH.iter().map(|q| parse_cq(q).unwrap()).collect();
    let certain = |q: &ConjunctiveQuery| -> Rows {
        let options = ApproxOptions::default();
        let approximations = all_approximations(q, &TwK(1), &options).approximations;
        approximations
            .iter()
            .flat_map(|a| eval_naive(a, d))
            .collect()
    };
    let cells: Vec<(usize, EvalMode, Rows)> = (queries.iter().enumerate())
        .flat_map(|(i, q)| {
            modes.iter().map(move |&mode| match mode {
                EvalMode::Exact => (i, mode, eval_naive(q, d)),
                EvalMode::CertainOnly => (i, mode, certain(q)),
            })
        })
        .collect();
    let budgets = (
        config.mat_cache_budget_bytes,
        config.approx_cache_budget_bytes,
    );
    THREADS.map(|threads| {
        let e = Engine::new(EngineConfig {
            threads,
            metrics: MetricsLevel::Counters,
            ..config.clone()
        });
        let db = e.register_database("d", d.clone());
        let ids: Vec<QueryId> = (queries.iter().enumerate())
            .map(|(i, q)| e.prepare_query(format!("q{i}"), q.clone()))
            .collect();
        let reqs: Vec<Request> = (cells.iter())
            .flat_map(|&(i, mode, _)| {
                let req = Request {
                    mode,
                    ..Request::new(ids[i], db)
                };
                std::iter::repeat_n(req, dup)
            })
            .collect();
        for (k, r) in e.execute_batch(&reqs).iter().enumerate() {
            let (i, mode, rows) = &cells[k / dup];
            let q = &queries[*i];
            let what = format!("{threads} threads, budgets {budgets:?}, {mode:?}, {q}");
            assert_is(&r.answers, rows, q.arity(), &what);
        }
        e.snapshot()
    })
}

// ---------------------------------------------------------------------
// The Boolean sweep.
// ---------------------------------------------------------------------

/// The vocabulary of the sweep's queries: `E/2` and `R/3`.
pub fn sweep_vocabulary() -> Vocabulary {
    Vocabulary::new(vec![("E", 2), ("R", 3)])
}

/// `atoms` (over `E/2` and `R/3`) as a query — Boolean, or with the
/// one head variable `head` — and its plan compiled over the rooted
/// forest `parent` (one node per atom, `None` for a root). `parent`
/// must describe a join forest: each atom shares only variables of its
/// parent. `compile_tree` compiles the roots given, mid-way ones
/// included, so scans that hand on a non-leading column stay covered;
/// `TreePlan::join_tree` chooses its own (see [`check_sweep`]).
pub fn sweep_plan(
    atoms: &[String],
    parent: &[Option<usize>],
    head: Option<&str>,
) -> (ConjunctiveQuery, PlanIr) {
    let text = format!("Q({}) :- {}", head.unwrap_or_default(), atoms.join(", "));
    let q = parse_cq_with_vocab(&text, &sweep_vocabulary()).expect("generated query must parse");
    let atoms: Vec<Atom> = q.atoms().collect();
    let nodes: Vec<NodeSpec> = (atoms.chunks(1))
        .map(|atoms| NodeSpec { atoms, label: None })
        .collect();
    // Children before parents: the reverse of a preorder from the roots.
    let mut order = Vec::with_capacity(parent.len());
    let mut stack: Vec<usize> = (0..parent.len()).filter(|&u| parent[u].is_none()).collect();
    while let Some(u) = stack.pop() {
        order.push(u);
        stack.extend((0..parent.len()).filter(|&c| parent[c] == Some(u)));
    }
    order.reverse();
    let ir = compile_tree(&nodes, parent, &order, q.free_vars());
    (q, ir)
}

/// Join forests of two to seven atoms over `E/2` and `R/3`, Boolean
/// or, about half the time, with a head of one variable of the first
/// root, compiled at the root drawn, in four shapes: a directed `E`-path and
/// a path of drawn atoms, each rooted mid-way (the root filtered on two
/// columns); a star whose children mostly share the root's first
/// variable (several filters on one column); and a random forest
/// (sometimes several roots). Outside the directed path an atom shares one
/// variable with its parent, or none (an empty key, another
/// component), or now and then two (a multi-column key, which sends the
/// plan to the kernel sweep); its other places hold fresh variables or
/// repeat its own (`E(y, y)`, `R(x, x, y)`), and a third of the atoms
/// are ternary.
pub fn sweep_forest() -> impl Strategy<Value = (ConjunctiveQuery, PlanIr)> {
    (0..4u8, 2..=7usize, any::<u64>()).prop_map(|(shape, n, seed)| {
        let mut s = seed;
        let mut draw = |k: u64| (lcg(&mut s) % k) as usize;
        let parent: Vec<Option<usize>> = match shape {
            0 | 3 => {
                // Path 0 - 1 - … - (n-1), rooted at `r`.
                let r = draw(n as u64);
                (0..n)
                    .map(|i| match i.cmp(&r) {
                        std::cmp::Ordering::Less => Some(i + 1),
                        std::cmp::Ordering::Equal => None,
                        std::cmp::Ordering::Greater => Some(i - 1),
                    })
                    .collect()
            }
            1 => (0..n).map(|i| (i > 0).then_some(0)).collect(),
            2 => (0..n)
                .map(|i| (i > 0 && draw(8) > 0).then(|| draw(i as u64)))
                .collect(),
            _ => unreachable!("four shapes"),
        };
        let root = parent.iter().position(Option::is_none).expect("a root");
        if shape == 3 {
            let atoms: Vec<String> = (0..n).map(|i| format!("E(x{i}, x{})", i + 1)).collect();
            let head = (draw(2) == 0).then(|| format!("x{}", root + draw(2)));
            return sweep_plan(&atoms, &parent, head.as_deref());
        }
        // Variables top-down, so each atom can draw from its parent's.
        let mut vars: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut atoms = vec![String::new(); n];
        let mut fresh = 0usize;
        let mut todo: Vec<usize> = (0..n).filter(|&u| parent[u].is_none()).collect();
        while let Some(u) = todo.pop() {
            todo.extend((0..n).filter(|&c| parent[c] == Some(u)));
            let arity = if draw(3) == 0 { 3 } else { 2 };
            let mut args: Vec<usize> = Vec::with_capacity(arity);
            if let Some(p) = parent[u] {
                let from = &vars[p];
                let shared = match draw(24) {
                    0..=2 => 0,
                    3 => 2.min(from.len()).min(arity),
                    _ => 1,
                };
                if shape == 1 && shared == 1 && draw(4) > 0 {
                    args.push(from[0]);
                } else {
                    while args.len() < shared {
                        let v = from[draw(from.len() as u64)];
                        if !args.contains(&v) {
                            args.push(v);
                        }
                    }
                }
            }
            while args.len() < arity {
                if !args.is_empty() && draw(5) == 0 {
                    args.push(args[draw(args.len() as u64)]);
                } else {
                    args.push(fresh);
                    fresh += 1;
                }
            }
            for i in (1..arity).rev() {
                args.swap(i, draw(i as u64 + 1));
            }
            let names: Vec<String> = args.iter().map(|v| format!("x{v}")).collect();
            let rel = if arity == 3 { "R" } else { "E" };
            atoms[u] = format!("{rel}({})", names.join(", "));
            args.sort_unstable();
            args.dedup();
            vars[u] = args;
        }
        let head =
            (draw(2) == 0).then(|| format!("x{}", vars[root][draw(vars[root].len() as u64)]));
        sweep_plan(&atoms, &parent, head.as_deref())
    })
}

/// `d`'s edges as `E`, and as `R` every two-edge walk `(a, b, c)` and
/// every edge as `(a, a, b)`: the kinds of [`database_of`] carry over.
pub fn with_ternary(d: &Structure) -> Structure {
    let vocab = sweep_vocabulary();
    let (e, r) = (vocab.rel("E").unwrap(), vocab.rel("R").unwrap());
    let edges = d.tuples(d.vocabulary().rel("E").expect("digraph vocabulary"));
    let mut b = StructureBuilder::new(vocab, d.universe_size());
    for t in edges.clone() {
        b.add(e, t).add(r, &[t[0], t[0], t[1]]);
        for u in edges.clone().filter(|u| u[0] == t[1]) {
            b.add(r, &[t[0], t[1], u[1]]);
        }
    }
    b.finish()
}

/// Whether the live-value sweep runs the reduction `ops[mats..end]`
/// of `ir`, given the materialized `slots`: every op is an assertion or
/// a semijoin on at most one column whose source has a column bitmap.
fn sweep_runs(ir: &PlanIr, slots: &[Option<FlatRelation>], mats: usize, end: usize) -> bool {
    let rel = |s: &usize| slots[*s].as_ref().expect("materialized");
    ir.ops()[mats..end].iter().all(|op| match op {
        Op::AssertNonempty { .. } => true,
        Op::Semijoin {
            source, target_pos, ..
        } => match target_pos.len() {
            0 => true,
            1 => bitmap_eligible(rel(source)),
            _ => false,
        },
        _ => false,
    })
}

/// `FlatRelation`'s own rule for a column bitmap: a dense bound of at
/// most 64 codes per row (of at least 16 rows).
fn bitmap_eligible(r: &FlatRelation) -> bool {
    r.domain_width() > 0 && r.domain_width() as usize <= 64 * r.len().max(16)
}

/// The live-value sweep of `ir` (a join-forest plan of `q`, Boolean or
/// with one head variable) on `d`. `run_boolean`'s verdict — uncached,
/// cold and warm — equals the kernel sweep's over the same materialized
/// slots and `eval_boolean_naive`'s, with the kernel path's counters.
/// When the sweep ran, each of its profiled entries is what the kernel
/// sweep's slots hold at that op, and if its first op is a one-column
/// semijoin it counted bitmap probes. With a head, `run` outputs the
/// kernel path's relation byte for byte (schema, width, rows) — the
/// output slot of the join phase run over the reduced slots — with the
/// kernel path's counters up to its projection when the root's
/// projection was read off the sweep, and all of them otherwise; its
/// profile has the kernel path's labels (read off the sweep, the last
/// is a `project` entry reporting the answers); and `answers` —
/// uncached, cold and warm — is the naive evaluator's. The plan
/// `TreePlan::join_tree` roots by its own rule agrees with `ir`
/// ([`check_chosen_root`]). Returns whether the answers were read off
/// the live-value sweep.
pub fn check_sweep(q: &ConjunctiveQuery, ir: &PlanIr, d: &Structure) -> bool {
    assert!(ir.reduction_decides(), "a join forest: {q}");
    let want = eval_boolean_naive(q, d);
    let (got, stats) = ir.run_boolean(d, None, None);
    let width = (ir.ops().iter())
        .flat_map(Op::dst) // every slot read was written first
        .max()
        .map_or(0, |s| s + 1);
    let mut slots = vec![None; width];
    let mats = ir.materialize_sources().count();
    // A plan with a head joins nothing below its roots (each holds the
    // head or shares nothing with it): its join phase starts at the
    // first root's projection.
    let len = ir.ops().len();
    let project = |op: &Op| matches!(op, Op::Project { .. });
    let reduced = ir.ops().iter().position(project).unwrap_or(len);
    let (_, mut kernel_stats) = ir.run_ops(0..mats, &mut slots, d, None);
    let runs = sweep_runs(ir, &slots, mats, reduced);
    // The projection read off the sweep: the plan's one root onto one
    // column that has a bitmap.
    let swept = runs
        && match &ir.ops()[reduced..] {
            [Op::Project { src, vars, .. }] => {
                let rel = slots[*src].as_ref().expect("materialized");
                vars.len() == 1 && bitmap_eligible(rel)
            }
            _ => q.free_vars().is_empty(),
        };
    let (kernel, sweep_stats) = ir.run_ops(mats..reduced, &mut slots, d, None);
    kernel_stats.add(sweep_stats);
    let what = format!("{q}, {:?}", ir.ops()[mats..].to_vec());
    assert_eq!(kernel, want, "kernel sweep vs naive: {what}");
    assert_eq!(got, want, "live-value sweep vs naive: {what}");
    assert_eq!(stats, kernel_stats, "counters: {what}");
    let probes_first = matches!(
        ir.ops().get(mats),
        Some(Op::Semijoin { target_pos, .. }) if target_pos.len() == 1
    );
    if runs && probes_first {
        assert!(
            stats.bitmap_probes > 0,
            "the sweep counted no probe: {what}"
        );
    }
    if !q.free_vars().is_empty() {
        check_swept_head(q, ir, d, (slots, kernel, kernel_stats), reduced, swept);
    }
    if runs {
        // Op by op: each profiled entry is what the kernel sweep's slots
        // say at that op — a semijoin hands on its source's distinct
        // key values (with an empty key, 1 for a source with a row), an
        // assertion reads 1 for a slot with a row.
        let mut profile = EvalProfile::default();
        ir.run_boolean(d, None, Some(&mut profile));
        let mut slots = vec![None; width];
        ir.run_ops(0..mats, &mut slots, d, None);
        for (i, entry) in (mats..).zip(&profile.ops[mats..]) {
            let rel = |s: usize| slots[s].as_ref().expect("materialized");
            let rows = match ir.ops()[i] {
                Op::Semijoin {
                    source, source_pos, ..
                } => match ir.words(source_pos)[..] {
                    [c] => (rel(source).iter_rows().map(|r| r[c as usize]))
                        .collect::<BTreeSet<_>>()
                        .len(),
                    _ => usize::from(!rel(source).is_empty()),
                },
                Op::AssertNonempty { slot } => usize::from(!rel(slot).is_empty()),
                ref op => unreachable!("the sweep runs semijoins and assertions: {op:?}"),
            };
            assert_eq!(entry.rows, rows, "op {i}: {what}");
            ir.run_ops(i..i + 1, &mut slots, d, None);
        }
    }
    let cache = MaterializationCache::new();
    for run in ["cold", "warm"] {
        let (cached, _) = ir.run_boolean(d, Some(&cache), None);
        assert_eq!(cached, want, "{run}: {what}");
    }
    check_chosen_root(q, ir, d, want);
    swept
}

/// `q` compiled by `TreePlan::join_tree`, which picks its own roots,
/// against the drawn-root plan `ir` whose verdict `want` the kernel
/// sweep and `eval_boolean_naive` gave: cold, then warm through a cache
/// of its own, the same verdict, the same answers when `q` has a head,
/// and the same cache hits and misses. (Atoms with one variable set are
/// one node there, materialized once: their traffic may differ.)
fn check_chosen_root(q: &ConjunctiveQuery, ir: &PlanIr, d: &Structure, want: bool) {
    let plan = TreePlan::join_tree(q).expect("a join forest is acyclic");
    let chosen = plan.ir();
    let what = format!("{q}, {:?}", chosen.ops().to_vec());
    let nodes = |ir: &PlanIr| ir.materialize_sources().count();
    let same_nodes = nodes(chosen) == nodes(ir);
    let traffic = |s: MatCacheStats| (s.hits, s.misses);
    let caches = [MaterializationCache::new(), MaterializationCache::new()];
    for run in ["cold", "warm"] {
        let (drawn, drawn_stats) = ir.run_boolean(d, Some(&caches[0]), None);
        let (got, stats) = chosen.run_boolean(d, Some(&caches[1]), None);
        assert_eq!((got, drawn), (want, want), "{run} verdict: {what}");
        if same_nodes {
            assert_eq!(traffic(stats), traffic(drawn_stats), "{run}: {what}");
        }
        if !q.free_vars().is_empty() {
            let (drawn, drawn_stats) = ir.answers(d, Some(&caches[0]));
            let (got, stats) = chosen.answers(d, Some(&caches[1]));
            assert!(got == drawn, "{run} answers: {what}");
            if same_nodes {
                assert_eq!(traffic(stats), traffic(drawn_stats), "{run}: {what}");
            }
        }
    }
}

/// [`check_sweep`]'s checks of a plan with a head, given the slots,
/// verdict and counters the kernel reduction `ops[..reduced]` left.
fn check_swept_head(
    q: &ConjunctiveQuery,
    ir: &PlanIr,
    d: &Structure,
    (mut slots, alive, mut kernel_stats): (Vec<Option<FlatRelation>>, bool, MatCacheStats),
    reduced: usize,
    swept: bool,
) {
    let what = format!("{q}, {:?}", ir.ops()[reduced..].to_vec());
    let len = ir.ops().len();
    let (alive, join_stats) = match alive {
        true => ir.run_ops(reduced..len, &mut slots, d, None),
        false => (false, MatCacheStats::default()),
    };
    let output = ir.ops().last().and_then(Op::dst).expect("a join phase");
    let kernel = slots[output].take().filter(|_| alive);
    if !swept {
        kernel_stats.add(join_stats);
    }
    let (out, stats) = ir.run(d, None, None);
    assert_eq!(stats, kernel_stats, "run's counters: {what}");
    match (&out, &kernel) {
        (Some(a), Some(b)) => {
            assert_eq!(a.schema(), b.schema(), "schema: {what}");
            assert_eq!(a.domain_width(), b.domain_width(), "width: {what}");
            assert!(a.iter_rows().eq(b.iter_rows()), "rows: {what}");
        }
        (a, b) => assert_eq!(a.is_some(), b.is_some(), "output: {what}"),
    }
    let mut profile = EvalProfile::default();
    ir.run(d, None, Some(&mut profile));
    let mut kernel_profile = EvalProfile::default();
    ir.run_slots(d, None, Some(&mut kernel_profile));
    let labels = |p: &EvalProfile| p.ops.iter().map(|o| o.op).collect::<Vec<_>>();
    assert_eq!(labels(&profile), labels(&kernel_profile), "labels: {what}");
    if let Some(out) = out.as_ref().filter(|_| swept) {
        let last = profile.ops.last().map(|o| (o.op, o.rows));
        assert_eq!(last, Some(("project", out.len())), "last entry: {what}");
    }
    // The naive evaluator's answers, one pinned existence check per
    // element: enumerating every homomorphism of a seven-atom star over
    // the ternary walks takes minutes.
    let naive = NaivePlan::compile(q.clone());
    let expected: Rows = (0..d.universe_size() as Element)
        .map(|a| vec![a])
        .filter(|a| naive.contains_answer(d, a))
        .collect();
    let (uncached, _) = ir.answers(d, None);
    assert_is(&uncached, &expected, 1, &format!("uncached, {what}"));
    let cache = MaterializationCache::new();
    for run in ["cold", "warm"] {
        let (cached, _) = ir.answers(d, Some(&cache));
        assert_is(&cached, &expected, 1, &format!("{run}, {what}"));
    }
}
