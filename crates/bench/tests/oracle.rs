//! The evaluation contract's named sweeps and engine checks, on the
//! oracle harness (`harness/mod.rs`, which states the contract and
//! holds the generators and the check).
//!
//! Two cyclic components run through the whole [`check`]. Named
//! deterministic sweeps drive what random draws rarely reach, with the
//! same fixtures and checks: every numbering of a cycle (with a
//! clock-free cost bound), wide nodes, Boolean cycles with and without
//! a witness, head orders, the packing boundary, radix against
//! comparison `sort_dedup`, the sandwich union, and cached rows never
//! written through. The live-value sweep's differential runs generated
//! join forests, Boolean or with a one-variable head, and five fixed
//! cases; its `#[ignore]`d deep variant, ten times the generated cases:
//! `cargo test --release -p cqapx-bench --test oracle -- --ignored`. The engine section keeps shed, degraded, sandwich
//! and certain-only responses sound.
//!
//! The other families run the harness's parts from their own files:
//! forests in `eval_differential.rs` and `kernel_config_differential.rs`;
//! cyclic templates there and in `decomposed_differential.rs`,
//! `wcoj_differential.rs` and `answers_oracle.rs`; random bodies in
//! `decomposed_differential.rs`, `wcoj_differential.rs` and
//! `tests/proptest_invariants.rs`; engine batches at 1, 2 and 8 threads
//! in `parallel_differential.rs` and `tests/proptest_invariants.rs`.

mod harness;

use cqapx_bench::workloads::{self, random_dag, regular_digraph, skewed_digraph};
use cqapx_core::{all_approximations, Acyclic, ApproxOptions};
use cqapx_cq::eval::{
    eval_naive, AnswersBuilder, AtomBinder, EvalProfile, FlatRelation, MatCacheStats,
    MaterializationCache, NaivePlan, Op, PlanIr, TreePlan,
};
use cqapx_cq::{parse_cq, query_graph, treewidth_of_query, ConjunctiveQuery};
use cqapx_engine::{
    Engine, EngineConfig, EvalMode, MetricsLevel, PlanKind, Request, ResponseStatus,
    DEGRADE_MIN_SAMPLES,
};
use cqapx_graphs::treewidth::TreeDecomposition;
use cqapx_structures::{Element, Structure, Vocabulary};
use harness::{
    assert_is, build_query, check, check_bags, check_joins, check_sweep, database, database_of,
    random_body, sweep_forest, sweep_plan, sweep_vocabulary, two_cycles, with_ternary, Rows,
    ANY_GAP, SKEWED, UNIFORM,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two cyclic components: Cartesian roots, free and Boolean, through
    /// every part of the check.
    #[test]
    fn two_cyclic_components_are_the_oracles(q in two_cycles(), d in database()) {
        check(&q, &d);
    }
}

// ---------------------------------------------------------------------
// Named deterministic sweeps.
// ---------------------------------------------------------------------

/// Every ordering of `items`.
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let first = rest.remove(i);
        out.extend(permutations(&rest).into_iter().map(|mut p| {
            p.insert(0, first.clone());
            p
        }));
    }
    out
}

/// One constant for every numbering: advances ≤ `ADVANCES_PER_ROW` ×
/// (rows of the parts read + rows of the bags built).
const ADVANCES_PER_ROW: u64 = 2;

/// Answers, bag bytes and the linear cost bound for one spelling;
/// returns its plan.
fn check_spelling(q: &ConjunctiveQuery, d: &Structure, expected: bool) -> TreePlan {
    let plan = TreePlan::within_width(q, 2).expect("a cycle has treewidth 2");
    assert_eq!(
        plan.ir().run_boolean(d, None, None).0,
        expected,
        "answer differs on {q}"
    );
    let (rows, advances) = check_bags(plan.ir(), d, &q.to_string());
    assert!(
        rows > 0,
        "a cycle of four or more has a multi-part bag: {q}"
    );
    assert!(
        advances <= ADVANCES_PER_ROW * rows,
        "{advances} cursor advances for {rows} rows read and written on {q}"
    );
    plan
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
    let dag = random_dag(400, 0xDA6);
    for n in [4u32, 5, 6] {
        let mut expected = None;
        let mut acyclic = None;
        for numbering in permutations(&(0..n).collect::<Vec<_>>()) {
            let e = Vocabulary::graphs().rel("E").expect("E");
            let atoms =
                (0..n as usize).map(|i| (e, [numbering[i], numbering[(i + 1) % n as usize]]));
            let names = (0..n).map(|v| format!("v{v}"));
            let q = ConjunctiveQuery::new(Vocabulary::graphs(), names, Vec::new(), atoms);
            // Renamings of one query share one answer: ask the naive
            // evaluator once per cycle length.
            let expected =
                *expected.get_or_insert_with(|| NaivePlan::compile(q.clone()).eval_boolean(&d));
            let plan = check_spelling(&q, &d, expected);
            let acyclic =
                *acyclic.get_or_insert_with(|| NaivePlan::compile(q.clone()).eval_boolean(&dag));
            assert!(expected && !acyclic, "C{n} must be decided both ways");
            assert_eq!(
                plan.ir().run_boolean(&dag, None, None).0,
                acyclic,
                "answer on the DAG differs on {q}"
            );
        }
    }
    // Two spellings of C₄ that took 11.6 ms and 3,756 ms at
    // 5000 × 4 before the kernel chose its own order.
    for text in [
        "Q() :- E(a,b), E(b,c), E(c,d), E(d,a)",
        "Q() :- E(a,b), E(c,a), E(b,d), E(d,c)",
    ] {
        let q = parse_cq(text).expect("parses");
        let expected = NaivePlan::compile(q.clone()).eval_boolean(&d);
        check_spelling(&q, &d, expected);
    }
}

/// The directed cycles `C₅`, `C₆`, `C₇` with no head, one variable,
/// two non-adjacent ones and all of them, at every root of two
/// decompositions whose inner nodes have two children or more: the
/// fan of triangles around `v0` (a path of bags, so every inner root
/// has two) and a star around `{v0, v2, v4}`, which for `C₆` covers no
/// atom and has three leaves. Answers are the oracle's and every join
/// op equals the reference join, on a regular and on a hub-skewed
/// graph.
#[test]
fn wide_nodes_on_cycles() {
    let dbs = [
        regular_digraph(400, 3, 0xC1C1E),
        skewed_digraph(30, 120, 0x5EED),
    ];
    for n in [5u32, 6, 7] {
        let path = TreeDecomposition::from_bags(
            n as usize,
            (1..n - 1).map(|i| [0, i, i + 1]),
            (0..n as usize - 3).map(|i| (i, i + 1)).collect(),
        );
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
        let star = TreeDecomposition::from_bags(n as usize, bags, tree_edges);
        let atoms: Vec<String> = (0..n)
            .map(|i| format!("E(v{i}, v{})", (i + 1) % n))
            .collect();
        let all: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
        for head in ["", "v0", "v0, v3", &all.join(", ")] {
            let q = parse_cq(&format!("Q({head}) :- {}", atoms.join(", "))).unwrap();
            for d in &dbs {
                let expected = eval_naive(&q, d);
                for td in [&path, &star] {
                    td.validate(&query_graph(&q))
                        .unwrap_or_else(|e| panic!("C{n}: {e:?}"));
                    let mut reached = 0;
                    for root in 0..td.bag_count() {
                        let plan = TreePlan::rooted(&q, td.clone(), root);
                        let what = format!("root {root} of {td:?} on {q}");
                        assert_is(&plan.ir().answers(d, None).0, &expected, q.arity(), &what);
                        reached += check_joins(plan.ir(), d, &what);
                    }
                    assert!(reached > 0, "no wide node ran on {q} over {td:?}");
                }
            }
        }
    }
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
            let q = build_query(&ring, flips, &[]);
            let plan = TreePlan::within_width(&q, 2).expect("a cycle has treewidth 2");
            for d in &dbs {
                let expected = NaivePlan::compile(q.clone()).eval_boolean(d);
                answers.insert(expected);
                assert_eq!(plan.ir().run_boolean(d, None, None).0, expected, "{q}");
                check_joins(plan.ir(), d, &q.to_string());
            }
        }
        assert_eq!(answers.len(), 2, "C{n} meets one answer only");
    }
}

/// The plan's root operator emits the answer columns in head order,
/// already canonical, and the boundary adopts them unchecked (debug
/// builds assert the order): so whatever the head order — every permutation, a repeated variable, a Cartesian
/// product of two components — every tier must pass [`check`]. The
/// smaller database keeps `two_hop` and `wedge3` below 512 rows, the
/// larger one puts them above.
#[test]
fn every_head_order_is_the_oracles() {
    let small = workloads::random_db(30, 3.0, 11);
    let large = workloads::random_db(110, 5.0, 5);
    assert!(large.total_tuples() >= 512, "the larger database is large");
    // A sparser graph for the star, whose head takes a cube of each
    // centre's out-degree.
    let sparse = workloads::random_db(24, 2.0, 11);
    let path = "E(x, y), E(y, z)";
    let star = "E(c, a), E(c, b), E(c, d), E(c, e)";
    let pair = "E(x, y), E(u, v)";
    let mut cases: Vec<(String, &Structure)> = Vec::new();
    let mut case = |body: &str, head: &[&str], d| {
        cases.push((format!("Q({}) :- {body}", head.join(", ")), d));
    };
    for d in [&small, &large] {
        for head in permutations(&["x", "z"]) {
            case(path, &head, d); // two_hop
        }
        for head in permutations(&["x", "y", "z"]) {
            case(path, &head, d); // wedge3
        }
    }
    for head in permutations(&["a", "b", "c", "d"]) {
        case(star, &head, &sparse);
    }
    for head in permutations(&["x", "y"]) {
        case("E(x, y)", &head, &small);
        case("E(x, y)", &head, &large);
    }
    for head in [&["z", "x", "z"][..], &["y", "y", "x"], &["z", "z"]] {
        case(path, head, &small);
    }
    case(star, &["e", "c", "e", "a"], &sparse);
    for head in [
        &["x", "u"][..],
        &["u", "x"],
        &["v", "x", "y"],
        &["u", "y", "u"],
    ] {
        case(pair, head, &small);
    }
    for (text, d) in cases {
        check(&parse_cq(&text).unwrap(), d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed ↔ comparison boundary of the canonicalizing sort,
    /// which in-memory structures cannot reach: rows of `arity`
    /// elements below `width` pack into `arity · b` bits. Either side
    /// of 32 bits (`u32` ↔ `u64` words) and of 64 (`u64` words ↔
    /// comparison sort), streamed and unioned through `AnswersBuilder`,
    /// both arms — radix wherever a word holds a row, at any row count,
    /// and the comparison sort past 64 bits or with no bound — must
    /// leave the oracle's bytes.
    #[test]
    fn packing_boundary_is_byte_identical(
        case in 0..12usize,
        seeds in proptest::collection::vec(any::<u64>(), 0..1500),
        split in 0..1500usize,
    ) {
        let (arity, width): (usize, u32) = [
            (1, 1 << 16),         // single columns are their own words
            (1, u32::MAX),
            (2, 1 << 16),         // 32 bits: the last u32 word
            (2, (1 << 16) + 1),   // 34 bits: the first u64 word
            (2, u32::MAX),        // 64 bits
            (3, 1 << 21),         // 63 bits
            (7, 1 << 9),          // 63 bits
            (4, 1 << 16),         // 64 bits
            (8, 1 << 8),          // 64 bits
            (5, 1 << 13),         // 65 bits: comparison arm
            (3, (1 << 21) + 1),   // 66 bits: comparison arm
            (3, 0),               // no bound: comparison arm
        ][case];
        // A few distinct values per column, the extremes among them,
        // so rows repeat and the top bits of every column are used.
        let top = if width == 0 { Element::MAX } else { width - 1 };
        let values = [0, 1, top / 2, top.saturating_sub(1), top];
        let rows: Vec<Vec<Element>> = seeds
            .iter()
            .map(|&s| (0..arity).map(|c| values[(s >> (3 * c)) as usize % 5]).collect())
            .collect();
        let expected: Rows = rows.iter().cloned().collect();
        let split = split.min(rows.len());
        let mut streamed = AnswersBuilder::new(arity, width);
        rows.iter().for_each(|r| streamed.push_row(r));
        // The same rows as a union of two canonical sets.
        let mut union = AnswersBuilder::new(arity, width);
        for half in [&rows[..split], &rows[split..]] {
            let mut part = AnswersBuilder::new(arity, width);
            half.iter().for_each(|r| part.push_row(r));
            union.append(part.finish());
        }
        let what = format!("arity {arity} width {width}");
        assert_is(&streamed.finish(), &expected, arity, &what);
        assert_is(&union.finish(), &expected, arity, &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `sort_dedup` on binder-materialized relations must leave the
    /// oracle's rows — the distinct input rows in ascending order —
    /// byte for byte in the buffer, with the width bound kept, and the
    /// call's own counters show the radix arm ran once, on fewer than
    /// 512 rows: small sorts run on words too. The fixture
    /// appends a reversed scan of the edge relation, twice, to a
    /// straight one, so the input is unsorted and duplicate-heavy.
    #[test]
    fn sort_dedup_radix_is_byte_identical(d in database()) {
        let q = parse_cq("Q(x, y) :- E(x, y), E(y, x)").unwrap();
        let mut schema: Vec<_> = q.atom(0).args.to_vec();
        schema.sort_unstable();
        schema.dedup();
        let mut base = FlatRelation::empty(schema.clone());
        let mut words = Vec::new();
        let straight = AtomBinder::compile(q.atom(0), &mut words);
        let reversed = AtomBinder::compile(q.atom(1), &mut words);
        straight.materialize_into(&words, &d, &mut base);
        reversed.materialize_into(&words, &d, &mut base);
        reversed.materialize_into(&words, &d, &mut base);
        prop_assume!(!base.is_empty());
        prop_assert!(base.len() < 512);

        let oracle: Rows = base.iter_rows().map(<[u32]>::to_vec).collect();
        let mut radix = base.clone();
        let mut stats = MatCacheStats::default();
        radix.sort_dedup(&mut stats);
        prop_assert_eq!(stats.packed_sorts, 1, "the radix arm ran");
        prop_assert_eq!(radix.domain_width(), base.domain_width(), "width differs");
        let radix_rows: Vec<Vec<u32>> = radix.iter_rows().map(<[u32]>::to_vec).collect();
        let oracle_rows: Vec<Vec<u32>> = oracle.into_iter().collect();
        prop_assert_eq!(radix_rows, oracle_rows, "buffer order differs");
    }
}

/// The sandwich tier unions the certain answers of every →-maximal
/// approximation. Example 6.6's ternary triangle has eight acyclic ones
/// once two variables are free, and on a dense relation their answer
/// sets overlap: the union must come out sorted and duplicate-free,
/// equal to the union of the approximations evaluated one by one.
#[test]
fn sandwich_union_of_overlapping_evaluators_is_duplicate_free() {
    let q = parse_cq("Q(x1, x3) :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)").unwrap();
    let d = workloads::random_relation_db(6, 3, 60, 29);
    let approximations = all_approximations(&q, &Acyclic, &ApproxOptions::default()).approximations;
    assert!(approximations.len() >= 2, "several evaluators to union");
    let parts: Vec<Rows> = approximations.iter().map(|a| eval_naive(a, &d)).collect();
    let expected: Rows = parts.iter().flatten().cloned().collect();
    assert!(
        parts.iter().map(BTreeSet::len).sum::<usize>() > expected.len(),
        "the evaluators' answer sets overlap"
    );
    let engine = Engine::new(EngineConfig {
        threads: 1,
        naive_cost_budget: 0.0, // force the sandwich
        approx_class: Acyclic,
        ..EngineConfig::default()
    });
    let db = engine.register_database("d", d.clone());
    let query = engine.prepare_query("q66", q.clone());
    let r = engine.execute(&Request {
        query,
        db,
        mode: EvalMode::CertainOnly,
        timeout: None,
    });
    assert_eq!(r.plan, PlanKind::Sandwich);
    assert_is(&r.answers, &expected, 2, "certain answers");
    let exact = eval_naive(&q, &d);
    assert!(r.answers.iter().all(|row| exact.contains(row.as_slice())));
}

/// Plan slots share the rows of the cache entries they adopt, so no
/// plan shape may ever write through one: Boolean and one-variable
/// heads, identity projections (alone and after a join), Cartesian
/// roots, and decomposed plans with 0-ary connector bags run three
/// times each against one cache, unbounded and then under a budget
/// small enough to evict. After every run each entry reads back
/// byte-identical to its first landing (an evicted one re-lands from
/// the same database, so the bytes must agree all the same), resident
/// bytes stand still unless something was evicted, and the answers are
/// the oracle's.
#[test]
fn cached_rows_are_never_written_through_a_sharing_slot() {
    let edges: Vec<(u32, u32)> = (0..240u32)
        .flat_map(|u| [(u, (u * 7 + 3) % 240), (u, (u + 1) % 200), (u % 50, u)])
        .collect();
    let d = Structure::digraph(260, &edges);
    // The compiler's own (reduced) decompositions cover an atom in every
    // bag here; a star over C6 whose centre {b, d, f} covers none keeps
    // the 0-ary connector bag in the matrix.
    const C6: &str = "Q(a) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)";
    let texts = [
        "Q() :- E(x,y), E(y,z), E(z,w)",
        "Q(x) :- E(x,y), E(y,z), E(z,w)",
        "Q(x,y) :- E(x,y)",
        "Q(x,y,z) :- E(x,y), E(y,z)",
        "Q(x,z) :- E(x,y), E(y,z), E(y,y)",
        "Q(x,u) :- E(x,x), E(u,v), E(v,u)",
        "Q() :- E(x,y), E(u,v), E(v,w)",
        "Q(x) :- E(x,y), E(y,z), E(z,x)",
        "Q() :- E(a,b), E(b,c), E(c,d), E(d,a)",
        "Q(a) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)",
        C6,
    ];
    let star = TreeDecomposition::from_bags(
        6,
        [[1, 3, 5], [0, 1, 5], [1, 2, 3], [3, 4, 5]],
        vec![(0, 1), (0, 2), (0, 3)],
    );
    star.validate(&query_graph(&parse_cq(C6).unwrap())).unwrap();
    let mut landed: Vec<(String, Vec<Vec<u32>>)> = Vec::new();
    let mut connector_bags = 0;
    for budget in [0, 16 << 10] {
        let cache = MaterializationCache::new();
        cache.set_budget_bytes(budget);
        for text in texts {
            let q = parse_cq(text).unwrap();
            let expected = eval_naive(&q, &d);
            let plan = match (TreePlan::join_tree(&q), text) {
                (Some(p), _) => p.ir().clone(),
                (_, C6) => TreePlan::rooted(&q, star.clone(), 0).ir().clone(),
                _ => (TreePlan::within_width(&q, treewidth_of_query(&q)).unwrap())
                    .ir()
                    .clone(),
            };
            connector_bags += (plan.materialize_sources())
                .filter(|s| s.parts.is_empty())
                .count();
            // (evictions, resident bytes) once the previous run was over.
            let mut quiescent: Option<(u64, usize)> = None;
            for run in 0..3 {
                let (answers, _) = plan.answers(&d, Some(&cache));
                let what = format!("{text}, budget {budget}, run {run}");
                assert_is(&answers, &expected, q.arity(), &what);
                for source in plan.materialize_sources() {
                    let mut stats = MatCacheStats::default();
                    let rel = plan.materialize(source, &d, Some(&cache), None, &mut stats);
                    let rows: Vec<Vec<u32>> = rel.iter_rows().map(<[u32]>::to_vec).collect();
                    let key = format!("{:?}", plan.words(source.key));
                    match landed.iter().find(|(k, _)| *k == key) {
                        Some((_, first)) => assert_eq!(&rows, first, "{what}: {key}"),
                        None => landed.push((key, rows)),
                    }
                }
                let now = (cache.evictions(), cache.resident_bytes());
                if let Some(before) = quiescent.replace(now) {
                    assert!(
                        before == now || before.0 != now.0,
                        "{what}: {before:?} -> {now:?}"
                    );
                }
            }
        }
        assert!(
            budget == 0 || cache.evictions() > 0,
            "a {budget}-byte budget evicted nothing"
        );
    }
    assert!(connector_bags > 0, "no plan had a 0-ary connector bag");
}

// ---------------------------------------------------------------------
// Plan shapes.
// ---------------------------------------------------------------------

/// The queries of the benchmark's fourteen cells, in rule syntax (the
/// three random shapes as the benchmark draws them).
const CELL_QUERIES: [&str; 14] = [
    "Q(x, z) :- E(x, y), E(y, z)",
    "Q(x, y, z) :- E(x, y), E(y, z)",
    "Q() :- E(a0,a1), E(a1,a2), E(a2,a3), E(a3,a4), E(a4,a5), E(a5,a6), E(a6,a7), E(a7,a8)",
    "Q() :- E(c,a1), E(c,a2), E(c,a3), E(c,a4), E(c,a5)",
    "Q() :- E(a0,a1), E(a1,a2), E(a2,a3), E(a3,a4), E(a4,a5), E(a5,a6), E(a6,a7), E(a7,a8), E(a8,a9), E(a9,a10)",
    "Q(x) :- E(x,y), E(y,z), E(z,w)",
    "Q(x) :- E(x,y), E(y,z), E(z,x)",
    "Q() :- E(a,b), E(b,c), E(c,d), E(d,a)",
    "Q(a) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)",
    "Q(x) :- E(x,y), F(y,z), E(z,x)",
    Q2,
    "Q() :- E(v1, v0), E(v2, v1), E(v1, v3), E(v4, v0), E(v5, v4), E(v5, v6), E(v7, v1), E(v7, v3), E(v6, v2)",
    "Q() :- E(v1, v0), E(v2, v1), E(v1, v3), E(v4, v0), E(v5, v4), E(v5, v6), E(v7, v1), E(v8, v7), E(v7, v6), E(v3, v4)",
    "Q() :- E(v1, v0), E(v2, v1), E(v1, v3), E(v4, v0), E(v5, v4), E(v5, v6), E(v7, v1), E(v7, v3), E(v6, v2), E(v5, v0), E(v2, v0), E(v1, v6), E(v5, v1), E(v5, v2)",
];

/// The introduction's `Q2`.
const Q2: &str = "Q() :- E(x,y), E(y,z), E(z,u), E(x1,y1), E(y1,z1), E(z1,u1), E(x,z1), E(y,u1)";

/// One line per op of `ir`: its kind, its slots, its operand lists and,
/// for a materialization, its schema, cache key words and parts.
fn render_plan(ir: &PlanIr) -> String {
    let mut out = format!("reduction_decides {}\n", ir.reduction_decides());
    for op in ir.ops() {
        let line = match op {
            Op::Materialize { dst, source } => {
                let parts: Vec<String> = (ir.parts(source).iter())
                    .map(|p| {
                        let rels: Vec<u32> = ir.binders(p).iter().map(|b| b.rel().0).collect();
                        let (schema, key) = (ir.words(p.schema), ir.words(p.key));
                        format!("{schema:?} key {key:?} rels {rels:?}")
                    })
                    .collect();
                let (schema, key) = (ir.words(source.schema), ir.words(source.key));
                let parts = parts.join("; ");
                format!("materialize {dst} schema {schema:?} key {key:?} parts [{parts}]")
            }
            Op::Semijoin {
                target,
                source,
                target_pos,
                source_pos,
            } => {
                let (mine, theirs) = (ir.words(*target_pos), ir.words(*source_pos));
                format!("semijoin {target} {mine:?} by {source} {theirs:?}")
            }
            Op::AssertNonempty { slot } => format!("assert {slot}"),
            Op::MultiJoin { dst, inputs, vars } => {
                let (inputs, vars) = (ir.words(*inputs), ir.words(*vars));
                format!("join {dst} of {inputs:?} keep {vars:?}")
            }
            Op::Project { dst, src, vars } => {
                format!("project {dst} of {src} keep {:?}", ir.words(*vars))
            }
        };
        out.push_str("  ");
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Every plan the golden rendering covers, named: the benchmark cells'
/// prepared plans and every tree-tier plan of theirs, those of `Q2`'s
/// `TW(1)` approximations, and those of the cyclic templates — cycles
/// `C₃..C₆`, wheels, `K₄` and two triangles sharing a vertex — at two
/// orientations, Boolean and with a two-variable head.
fn golden_plans() -> Vec<(String, PlanIr)> {
    use cqapx_core::TwK;
    use cqapx_engine::PreparedQuery;
    fn tiers(plans: &mut Vec<(String, PlanIr)>, what: &str, q: &ConjunctiveQuery) {
        let named = harness::tree_plans(q).into_iter();
        plans.extend(named.map(|(tier, ir)| (format!("{what}, {tier}"), ir)));
    }
    let mut plans = Vec::new();
    for text in CELL_QUERIES {
        let q = parse_cq(text).unwrap();
        let prepared = PreparedQuery::build(text, q.clone());
        tiers(&mut plans, text, &q);
        let tier = match prepared.tree.width() {
            None => "prepared yannakakis",
            Some(_) => "prepared decomposed",
        };
        plans.push((format!("{text}, {tier}"), prepared.tree.ir().clone()));
    }
    let options = ApproxOptions::default();
    let report = all_approximations(&parse_cq(Q2).unwrap(), &TwK(1), &options);
    for (i, a) in report.approximations.iter().enumerate() {
        tiers(&mut plans, &format!("Q2 approximation {i}: {a}"), a);
    }
    let cycle = |n: u32| -> Vec<(u32, u32)> { (0..n).map(|i| (i, (i + 1) % n)).collect() };
    let wheel =
        |m: u32| -> Vec<(u32, u32)> { (1..=m).flat_map(|i| [(0, i), (i, i % m + 1)]).collect() };
    let k4: Vec<(u32, u32)> = (0..4)
        .flat_map(|a| (a + 1..4).map(move |b| (a, b)))
        .collect();
    let bowtie = vec![(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)];
    let shapes = [
        cycle(3),
        cycle(4),
        cycle(5),
        cycle(6),
        wheel(3),
        wheel(4),
        wheel(5),
        k4,
        bowtie,
    ];
    for edges in &shapes {
        for flips in [0, 0x55] {
            for head in [&[][..], &[1, 0]] {
                let q = build_query(edges, flips, head);
                tiers(&mut plans, &format!("{q}"), &q);
            }
        }
    }
    plans
}

/// Every compiled plan the golden rendering covers renders byte for
/// byte as `golden/plan_shapes.txt` records: the same ops in the same
/// order, over the same slots, operand lists and cache keys.
#[test]
fn plan_shapes_match_the_golden_rendering() {
    let mut got = String::new();
    for (name, ir) in golden_plans() {
        got.push_str(&format!("{name}\n{}", render_plan(&ir)));
    }
    let want = include_str!("golden/plan_shapes.txt");
    let first = (got.lines().zip(want.lines())).position(|(a, b)| a != b);
    assert!(
        got == want,
        "first differing line: {:?}",
        first.map(|i| (i + 1, got.lines().nth(i), want.lines().nth(i)))
    );
}

// ---------------------------------------------------------------------
// The Boolean sweep.
// ---------------------------------------------------------------------

/// Generated Boolean join forests (`harness::sweep_forest`) against
/// uniform, Zipf and hub-skewed databases, half of them cut down to a
/// DAG (edges `u < v` only) so long directed paths fail, with a ternary
/// relation derived from their edges.
fn sweep_case() -> impl Strategy<Value = ((ConjunctiveQuery, PlanIr), Structure)> {
    let d = (database_of(UNIFORM, ANY_GAP), database_of(SKEWED, ANY_GAP));
    let d = (any::<bool>(), any::<bool>(), d).prop_map(|(skewed, dag, (u, s))| {
        let d = if skewed { s } else { u };
        let e = d.vocabulary().rel("E").expect("digraph vocabulary");
        let edges = d.tuples(e).map(|t| (t[0], t[1]));
        let edges: Vec<(u32, u32)> = edges.filter(|&(a, b)| !dag || a < b).collect();
        with_ternary(&Structure::digraph(d.universe_size(), &edges))
    });
    (sweep_forest(), d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The live-value sweep decides every generated join forest as the
    /// kernel sweep and the naive evaluator do — paths rooted mid-way,
    /// stars with several filters on the root's column, repeated
    /// variables, ternary atoms and empty keys among them — with the
    /// kernel path's counters, and a one-variable head the root covers
    /// is read off it as the kernel path's projection, byte for byte;
    /// the root `TreePlan::join_tree` chooses answers alike, with the
    /// same cache traffic (see `harness::check_sweep`).
    #[test]
    fn bool_sweep_matches_kernel_and_naive(case in sweep_case()) {
        let ((q, ir), d) = case;
        check_sweep(&q, &ir, &d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_560))]

    /// Ten times the cases of `bool_sweep_matches_kernel_and_naive`.
    #[test]
    #[ignore = "deep sweep differential: run with --ignored"]
    fn deep_bool_sweep_differential(case in sweep_case()) {
        let ((q, ir), d) = case;
        check_sweep(&q, &ir, &d);
    }
}

/// `E` as a structure over the sweep's vocabulary.
fn sweep_db(edges: &[(u32, u32)]) -> Structure {
    let n = edges
        .iter()
        .map(|&(a, b)| a.max(b) as usize + 1)
        .max()
        .unwrap_or(0);
    with_ternary(&Structure::digraph(n, edges))
}

/// A filter that empties a middle node: on the path `E(c, d) ←
/// E(b, c) ← E(a, b)`, no edge into `b` meets an edge out of it, so
/// the middle node's live row is gone at its own assertion — the sweep
/// stops there, as the kernel sweep does, with no two-edge walk.
#[test]
fn bool_sweep_filter_empties_a_middle_node() {
    let atoms = ["E(x2, x3)", "E(x1, x2)", "E(x0, x1)"].map(String::from);
    let (q, ir) = sweep_plan(&atoms, &[None, Some(0), Some(1)], None);
    let d = sweep_db(&[(0, 1), (2, 3)]);
    assert!(check_sweep(&q, &ir, &d), "the live-value sweep ran");
    let mut profile = EvalProfile::default();
    assert!(!ir.run_boolean(&d, None, Some(&mut profile)).0);
    let sweep: Vec<(&str, usize)> = profile.ops[3..].iter().map(|o| (o.op, o.rows)).collect();
    let want = [
        ("semijoin", 2),
        ("assert_nonempty", 1),
        ("semijoin", 0),
        ("assert_nonempty", 0),
    ];
    assert_eq!(sweep, want);
}

/// A run whose first row fails a filter on a non-leading column while
/// a later row of the same run passes: `E(x, y)` holds `(0, 1)` and
/// `(0, 2)`, and only `y = 2` continues. `x = 0` must stay live, or
/// the one witness `5 → 0 → 2 → 3` is lost.
#[test]
fn bool_sweep_keeps_a_run_past_its_failing_first_row() {
    let atoms = ["E(w, x)", "E(x, y)", "E(y, z)"].map(String::from);
    let (q, ir) = sweep_plan(&atoms, &[None, Some(0), Some(1)], None);
    let d = sweep_db(&[(5, 0), (0, 1), (0, 2), (2, 3)]);
    assert!(check_sweep(&q, &ir, &d), "the live-value sweep ran");
    assert!(ir.run_boolean(&d, None, None).0);
}

/// A head column with no bitmap: the root `E(y, x)` has two rows over
/// 2,000 codes — far more than 64 a row — while its child `R` has a row
/// per code. The reduction is swept, but `x` has no column bitmap, so
/// `run` falls back to the kernels, whose projection sorts `x`'s
/// column `[5, 3]`, and answers as they do.
#[test]
fn one_column_head_without_a_bitmap_falls_back() {
    let vocab = sweep_vocabulary();
    let (e, r) = (vocab.rel("E").unwrap(), vocab.rel("R").unwrap());
    let mut b = cqapx_structures::StructureBuilder::new(vocab, 2000);
    b.add(e, &[0, 5]).add(e, &[1, 3]);
    for v in 0..2000 {
        b.add(r, &[v, v, v]);
    }
    let d = b.finish();
    let atoms = ["E(y, x)", "R(y, z, w)"].map(String::from);
    let (q, ir) = sweep_plan(&atoms, &[None, Some(0)], Some("x"));
    assert!(!check_sweep(&q, &ir, &d), "no bitmap on the head column");
    assert!(ir.run_boolean(&d, None, None).1.bitmap_probes > 0);
    assert_eq!(ir.run(&d, None, None).1.packed_sorts, 1);
    let (answers, _) = ir.answers(&d, None);
    assert_is(&answers, &[vec![3], vec![5]].into(), 1, "E's targets");
}

/// A root killed mid-sweep: on the path `E(x0, x1) ← E(x1, x2) ←
/// E(x2, x3)` rooted at the head's atom, over the edges `0 → 1 → 2`,
/// the root's filter leaves no row, so the sweep stops at its
/// assertion and the answer is the empty one of arity 1.
#[test]
fn one_column_head_of_a_killed_root_is_empty() {
    let atoms = ["E(x0, x1)", "E(x1, x2)", "E(x2, x3)"].map(String::from);
    let (q, ir) = sweep_plan(&atoms, &[None, Some(0), Some(1)], Some("x0"));
    let d = sweep_db(&[(0, 1), (1, 2)]);
    assert!(check_sweep(&q, &ir, &d), "read off the sweep");
    let mut profile = EvalProfile::default();
    assert!(ir.run(&d, None, Some(&mut profile)).0.is_none());
    let last = profile.ops.last().map(|o| (o.op, o.rows));
    assert_eq!(last, Some(("assert_nonempty", 0)));
    let (answers, _) = ir.answers(&d, None);
    assert_is(&answers, &Rows::new(), 1, "no three-edge walk");
}

/// A star rooted at its head `c` with two filters on `c`: `c` has an
/// edge in (`{1, 2, 3, 5}`) and starts a two-edge walk (`{0, 1}`). Both
/// hand on their values, neither contains the root's own `{0, 1, 2,
/// 4}`, and the answer is their intersection.
#[test]
fn one_column_head_intersects_two_filters_on_the_root() {
    let atoms = ["E(c, a0)", "E(a1, c)", "E(c, a2)", "E(a2, a3)"].map(String::from);
    let (q, ir) = sweep_plan(&atoms, &[None, Some(0), Some(0), Some(2)], Some("c"));
    let d = sweep_db(&[(0, 1), (1, 2), (2, 3), (4, 5)]);
    assert!(check_sweep(&q, &ir, &d), "read off the sweep");
    let mut profile = EvalProfile::default();
    let out = ir.run(&d, None, Some(&mut profile)).0.expect("an answer");
    // The in-edge child, the walk's leaf into its middle, the middle.
    let handed: Vec<usize> = (profile.ops.iter())
        .filter(|o| o.op == "semijoin")
        .map(|o| o.rows)
        .collect();
    assert_eq!(handed, [4, 4, 2]);
    let last = profile.ops.last().map(|o| (o.op, o.rows));
    assert_eq!(last, Some(("project", 1)));
    assert_eq!(out.iter_rows().collect::<Vec<_>>(), [[1]]);
    let (answers, _) = ir.answers(&d, None);
    assert_is(&answers, &[vec![1]].into(), 1, "in-edge and two-edge walk");
}

// ---------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Admission control and degradation stay sound: a batch deeper
    /// than `max_queue_depth` sheds exactly its tail with empty answer
    /// sets, and every response — complete, shed, degraded, or timed
    /// out — returns a subset of the exact answers.
    #[test]
    fn shed_and_degraded_responses_stay_sound(d in database(), limit in 1..4usize) {
        let e = Engine::new(EngineConfig {
            metrics: MetricsLevel::Counters,
            max_queue_depth: Some(limit),
            ..EngineConfig::default()
        });
        let db = e.register_database("d", d.clone());
        let text =
            "Q() :- E(a,b), E(a,c), E(a,d), E(a,e), E(b,c), E(b,d), E(b,e), E(c,d), E(c,e), E(d,e)";
        let query = parse_cq(text).unwrap();
        let exact = eval_naive(&query, &d);
        let q = e.prepare_query("k5", query);

        let batch: Vec<Request> = (0..6).map(|_| Request::new(q, db)).collect();
        let responses = e.execute_batch(&batch);
        prop_assert_eq!(responses.len(), 6);
        let shed = 6usize.saturating_sub(limit);
        for (i, r) in responses.iter().enumerate() {
            if i < limit.min(6) {
                prop_assert_ne!(r.status, ResponseStatus::Shed, "head request {} shed", i);
            } else {
                prop_assert_eq!(r.status, ResponseStatus::Shed, "tail request {} not shed", i);
                prop_assert!(r.answers.is_empty());
            }
            for a in &r.answers {
                prop_assert!(exact.contains(a.as_slice()), "unsound answer in {:?}", r.status);
            }
        }
        prop_assert_eq!(e.stats().shed, shed as u64);

        // Warm the naive-class histogram, then demand an impossible
        // deadline: whatever the engine does — degrade up front, time
        // out mid-join, or finish a trivially small case — the answers
        // must stay inside the exact set.
        for _ in 0..DEGRADE_MIN_SAMPLES {
            e.execute(&Request::new(q, db));
        }
        let r = e.execute(&Request {
            query: q,
            db,
            mode: EvalMode::Exact,
            timeout: Some(Duration::from_nanos(1)),
        });
        for a in &r.answers {
            prop_assert!(exact.contains(a.as_slice()), "unsound answer in {:?}", r.status);
        }
        if r.status == ResponseStatus::Degraded {
            prop_assert_eq!(e.stats().degraded, 1);
        }
    }

    /// Under a forced approximation sandwich (every cyclic query over
    /// the naive budget), exact mode still answers `Q(D)` and
    /// certain-only mode a sound subset of it.
    #[test]
    fn sandwich_is_exact_on_demand_and_sound_when_certain(q in random_body(), d in database()) {
        let exact = eval_naive(&q, &d);
        let engine = Engine::new(EngineConfig {
            threads: 1,
            naive_cost_budget: 0.0,
            ..EngineConfig::default()
        });
        let db = engine.register_database("d", d.clone());
        let id = engine.prepare_query("q", q.clone());
        let r = engine.execute(&Request::new(id, db));
        assert_is(&r.answers, &exact, q.arity(), &format!("exact mode, {:?}, {q}", r.plan));
        let certain = engine.execute(&Request {
            query: id,
            db,
            mode: EvalMode::CertainOnly,
            timeout: None,
        });
        for a in &certain.answers {
            prop_assert!(exact.contains(a.as_slice()), "certain answer {:?} not in Q(D) on {}", a, q);
        }
    }
}
