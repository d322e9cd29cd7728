//! The answer boundary against the naive oracle: whatever tier
//! produced them, [`Answers`] must be `Q(D)` exactly — equal to
//! `eval_naive`'s tree **as a set and in iteration order**, with
//! `contains` agreeing row by row — under every [`EvalConfig`] a plan
//! can be compiled with, whichever arm its canonicalizing sorts take.
//!
//! One generator drives everything: acyclic and cyclic query shapes
//! whose heads draw up to three variables *with repetition* (arity 0
//! and 1, `Q(x, x)`), over uniform and Zipf digraphs that are
//! optionally re-spaced into a universe larger than the active domain
//! (a non-identity `DomainDict`); sparse draws give empty results. The
//! packing boundary (`arity · b` at 63/64/65 bits, widths `2¹⁶` and
//! `2³² − 1`) is unreachable from in-memory structures, so it is
//! driven through `AnswersBuilder`, which takes the width bound
//! directly and sorts by `PackedMode::Auto`: radix from 512 rows,
//! comparison below, so the row counts drawn reach both arms.
//!
//! Head order gets its own deterministic sweep
//! (`every_head_order_is_the_oracles`): a plan's root operator emits
//! the answer columns in head order and the boundary only checks the
//! row order, so every permutation of the head of a few fixed bodies
//! is compared with the naive plan, byte for byte.

use cqapx_bench::experiments::zipf_db;
use cqapx_bench::workloads;
use cqapx_core::{all_approximations, Acyclic, ApproxOptions};
use cqapx_cq::eval::{
    eval_naive, AcyclicPlan, Answers, AnswersBuilder, DecomposedPlan, EvalConfig,
    MaterializationCache, NaivePlan,
};
use cqapx_cq::{parse_cq, treewidth_of_query, ConjunctiveQuery};
use cqapx_engine::{ApproxClassChoice, Engine, EngineConfig, EvalMode, PlanKind, Request};
use cqapx_structures::{Element, Structure};
use proptest::prelude::*;
use std::collections::BTreeSet;

type Rows = BTreeSet<Vec<Element>>;

/// Paths, stars and trees with reversed twins (acyclic), then cycles,
/// `K4` and the double triangle (cyclic); orientations flipped by
/// `flips`, head = up to three occurring variables, repeats allowed.
fn query() -> impl Strategy<Value = ConjunctiveQuery> {
    (
        0..6u8,
        3..=5u32,
        any::<u32>(),
        proptest::collection::vec(0..64usize, 0..=3),
    )
        .prop_map(|(kind, size, flips, head)| {
            let mut edges: Vec<(u32, u32)> = Vec::new();
            match kind {
                0 => edges.extend((0..size).map(|i| (i, i + 1))),
                1 => edges.extend((1..=size).map(|i| (0, i))),
                2 => {
                    edges.extend((1..=size).map(|i| ((i - 1) / 2, i)));
                    edges.push((1, 0));
                }
                3 => edges.extend((0..size).map(|i| (i, (i + 1) % size))),
                4 => edges.extend((0..4).flat_map(|a| (a + 1..4).map(move |b| (a, b)))),
                _ => edges.extend([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),
            }
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
            let head: Vec<String> = head
                .iter()
                .map(|&h| format!("x{}", used[h % used.len()]))
                .collect();
            let text = format!("Q({}) :- {}", head.join(", "), atoms.join(", "));
            parse_cq(&text).expect("generated query must parse")
        })
}

/// A uniform or Zipf digraph on up to nine nodes, node `v` moved to
/// `v · gap + gap − 1` in a universe with two spare elements: for
/// `gap > 1` the active domain has holes and the dictionary is not the
/// identity.
fn database() -> impl Strategy<Value = Structure> {
    (
        (any::<bool>(), any::<u64>()),
        3..=9usize,
        0..=3usize,
        1..=3u32,
    )
        .prop_map(|((zipf, seed), n, density, gap)| {
            let base = if zipf {
                zipf_db(n, density * n, 1.1, seed)
            } else {
                workloads::random_db(n, density as f64, seed)
            };
            let e = base.vocabulary().rel("E").expect("digraph vocabulary");
            let edges: Vec<(Element, Element)> = base
                .tuples(e)
                .iter()
                .map(|t| (t[0] * gap + gap - 1, t[1] * gap + gap - 1))
                .collect();
            Structure::digraph(n * gap as usize + 2, &edges)
        })
}

/// `got` is `expected`: as a set (both `PartialEq` directions), in
/// length, in iteration order, and under `contains` — probed with
/// every expected row and its neighbours one element up and down.
fn assert_is(got: &Answers, expected: &Rows, arity: usize, what: &str) {
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
    for row in expected {
        assert!(got.contains(row), "{what}: contains {row:?}");
        for nudge in [1, Element::MAX] {
            let mut near = row.clone();
            if let Some(last) = near.last_mut() {
                *last = last.wrapping_add(nudge);
            }
            assert_eq!(
                got.contains(&near),
                expected.contains(&near),
                "{what}: contains {near:?}"
            );
        }
    }
    assert!(!got.contains(&vec![0; arity + 1]), "{what}: wrong arity");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every tier that can run the query — Yannakakis when acyclic and
    /// the decomposed tier at the exact treewidth, each compiled under
    /// every config, and the engine's own choice — returns the oracle's
    /// set, in the oracle's order.
    #[test]
    fn tiers_return_the_oracles_rows_in_order(q in query(), d in database()) {
        let expected = eval_naive(&q, &d);
        let arity = q.arity();
        let mut got: Vec<(String, Answers)> = Vec::new();
        let acyclic = AcyclicPlan::compile(&q).ok();
        let decomposed = DecomposedPlan::compile(&q, treewidth_of_query(&q))
            .expect("compiles at the exact treewidth");
        for config in EvalConfig::lattice() {
            if let Some(plan) = &acyclic {
                let answers = plan.clone().with_eval_config(config).eval(&d);
                got.push((format!("yannakakis, {config:?}"), answers));
            }
            let answers = decomposed.clone().with_eval_config(config).eval(&d);
            got.push((format!("decomposed, {config:?}"), answers));
        }
        let engine = Engine::new(EngineConfig { threads: 1, ..EngineConfig::default() });
        let db = engine.register_database("d", d.clone());
        let id = engine.prepare_query("q", q.clone());
        got.push(("engine".into(), engine.execute(&Request::new(id, db)).answers));
        for (tier, answers) in &got {
            assert_is(answers, &expected, arity, &format!("{tier}, {q}"));
        }
    }

    /// The packed ↔ comparison boundary of the canonicalizing sort:
    /// rows of `arity` elements below `width` pack into `arity · b`
    /// bits. Either side of 32 bits (`u32` ↔ `u64` words) and of 64
    /// (`u64` words ↔ comparison sort), streamed and unioned, both arms
    /// — the radix one from 512 rows to sort — must leave the oracle's
    /// bytes.
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
        approx_class: ApproxClassChoice::Acyclic,
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

/// Every ordering of `vars`.
fn permutations(vars: &[&'static str]) -> Vec<Vec<&'static str>> {
    if vars.len() <= 1 {
        return vec![vars.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..vars.len() {
        let mut rest = vars.to_vec();
        let first = rest.remove(i);
        out.extend(permutations(&rest).into_iter().map(|mut p| {
            p.insert(0, first);
            p
        }));
    }
    out
}

/// The plan's root operator emits the answer columns in head order,
/// already canonical, and the boundary only checks: so whatever the
/// head order — every permutation, a repeated variable, a cartesian
/// product of two components — each tier must return the naive plan's
/// bytes, cold and warm, sequentially and with a second worker — the
/// plans under every config. The larger database puts `two_hop` and
/// `wedge3` above the row counts the parallel kernels start at.
#[test]
fn every_head_order_is_the_oracles() {
    let small = workloads::random_db(40, 3.0, 11);
    let large = workloads::random_db(700, 7.0, 5);
    assert!(large.total_tuples() >= 4096, "parallel kernels start there");
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
        case(star, &head, &small);
    }
    for head in permutations(&["x", "y"]) {
        case("E(x, y)", &head, &small);
        case("E(x, y)", &head, &large);
    }
    for head in [&["z", "x", "z"][..], &["y", "y", "x"], &["z", "z"]] {
        case(path, head, &small);
    }
    case(star, &["e", "c", "e", "a"], &small);
    for head in [
        &["x", "u"][..],
        &["u", "x"],
        &["v", "x", "y"],
        &["u", "y", "u"],
    ] {
        case(pair, head, &small);
    }
    for (text, d) in cases {
        let q = parse_cq(&text).unwrap();
        let expected = NaivePlan::compile(q.clone()).eval_answers(d);
        let mut got: Vec<(String, Answers)> = Vec::new();
        let acyclic = AcyclicPlan::compile(&q).expect("acyclic body");
        let decomposed = DecomposedPlan::compile(&q, 1).expect("treewidth 1");
        let engine = Engine::new(EngineConfig::default());
        let db = engine.register_database("d", d.clone());
        let id = engine.prepare_query("q", q.clone());
        for run in ["cold", "warm"] {
            let answers = engine.execute(&Request::new(id, db)).answers;
            got.push((format!("engine, {run}"), answers));
        }
        for config in EvalConfig::lattice() {
            let acyclic = acyclic.clone().with_eval_config(config);
            let decomposed = decomposed.clone().with_eval_config(config);
            let (c1, c2) = (MaterializationCache::new(), MaterializationCache::new());
            for run in ["cold", "warm"] {
                let tiers = [
                    ("yannakakis", acyclic.eval_cached(d, Some(&c1))),
                    ("decomposed", decomposed.eval_cached(d, Some(&c2))),
                ];
                for (tier, (answers, _)) in tiers {
                    got.push((format!("{tier}, {run}, {config:?}"), answers));
                }
            }
        }
        for (what, answers) in got {
            assert_eq!(answers.arity(), q.arity(), "{text}: {what}");
            assert!(
                answers == expected,
                "{text}: {what}: {} rows, oracle {}",
                answers.len(),
                expected.len()
            );
        }
    }
}
