//! The kernel-configuration lattice: every [`EvalConfig`] — column
//! bitmaps read or not, times packed sorts `Auto`, `On` or `Off` — is a
//! value on the compiled plan, so one process runs them all side by
//! side, split into two axes against the default: probe-only points
//! (the `*_bitmap_equals_probe` tests) and forced packed points (the
//! `*_packed_equals_unpacked` tests). Each must return the naive evaluator's answers in its order
//! (row for row, so every point's answer buffers are byte-identical),
//! full and Boolean, and leave the cache with the same hits, misses and
//! resident bytes, on random acyclic queries and cyclic templates over
//! uniform and Zipf-skewed digraphs, cold, warm and uncached. And
//! `sort_dedup` must be byte-identical
//! between its radix and comparison arms on binder-materialized
//! relations.

use cqapx_cq::eval::{
    AcyclicPlan, Answers, AtomBinder, DecomposedPlan, EvalConfig, FlatRelation, MatCacheStats,
    MaterializationCache, NaivePlan, PackedMode,
};
use cqapx_cq::{parse_cq, treewidth_of_query, ConjunctiveQuery};
use cqapx_structures::Structure;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A random **acyclic** conjunctive query (random forest + reversed
/// twins, duplicates, loops, random head) — the same family the other
/// differential suites use.
fn acyclic_query(max_vars: usize) -> impl Strategy<Value = ConjunctiveQuery> {
    let n = 2..=max_vars;
    n.prop_flat_map(|n| {
        let parents = proptest::collection::vec((0..n as u32, any::<bool>(), 0..4u8), n - 1);
        let loops = proptest::collection::vec(0..n as u32, 0..=2);
        let head = proptest::collection::vec(0..n as u32, 0..=3);
        (parents, loops, head).prop_map(move |(parents, loops, head)| {
            let mut atoms: Vec<String> = Vec::new();
            let mut used = vec![false; n];
            for (i, &(p, flip, kind)) in parents.iter().enumerate() {
                let (a, b) = ((i + 1) as u32, p.min(i as u32));
                if kind == 3 {
                    continue;
                }
                used[a as usize] = true;
                used[b as usize] = true;
                let (a, b) = if flip { (b, a) } else { (a, b) };
                atoms.push(format!("E(x{a}, x{b})"));
                if kind == 1 {
                    atoms.push(format!("E(x{b}, x{a})"));
                }
                if kind == 2 {
                    atoms.push(format!("E(x{a}, x{b})"));
                }
            }
            for &v in &loops {
                used[v as usize] = true;
                atoms.push(format!("E(x{v}, x{v})"));
            }
            if atoms.is_empty() {
                used[0] = true;
                used[1] = true;
                atoms.push("E(x0, x1)".to_string());
            }
            let head: Vec<String> = head
                .into_iter()
                .filter(|&v| used[v as usize])
                .map(|v| format!("x{v}"))
                .collect();
            let text = format!("Q({}) :- {}", head.join(", "), atoms.join(", "));
            parse_cq(&text).expect("generated query must parse")
        })
    })
}

/// Cyclic template queries (oriented cycles, wheels, K4, double
/// triangles) with random orientations and heads.
fn cyclic_query() -> impl Strategy<Value = ConjunctiveQuery> {
    (0..4u8, 3..=6usize, any::<u32>(), any::<u32>()).prop_map(|(kind, size, flips, head_bits)| {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        match kind {
            0 => {
                for i in 0..size {
                    edges.push((i as u32, ((i + 1) % size) as u32));
                }
            }
            1 => {
                let m = size.clamp(3, 5);
                for i in 1..=m {
                    edges.push((0, i as u32));
                    edges.push((i as u32, (i % m + 1) as u32));
                }
            }
            2 => {
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
    })
}

/// A random digraph, uniform or Zipf-skewed: under skew every endpoint
/// `v` collapses to `v²/n`, concentrating edges on low codes — dense
/// hubs where bitmaps answer most probes, heavy key duplication where
/// the radix sort must still leave exactly the comparison sort's bytes.
fn digraph(max_n: usize) -> impl Strategy<Value = Structure> {
    (2..=max_n, any::<bool>()).prop_flat_map(move |(n, skew)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=(4 * n)).prop_map(
            move |mut edges| {
                if skew {
                    for (a, b) in &mut edges {
                        *a = *a * *a / n as u32;
                        *b = *b * *b / n as u32;
                    }
                }
                Structure::digraph(n, &edges)
            },
        )
    })
}

/// The lattice's probe-only points: bitmaps never read, under every
/// packed mode.
fn probe_axis(config: EvalConfig) -> bool {
    !config.bitmaps
}

/// The lattice's forced packed points: radix sorts always or never,
/// bitmaps read as by default. With [`probe_axis`] and the default this
/// covers the whole lattice.
fn packed_axis(config: EvalConfig) -> bool {
    config.bitmaps && config.packed != PackedMode::Auto
}

/// Runs one plan under the default [`EvalConfig`] and every config on
/// `axis` — `answers` full, cached or not, and `holds` Boolean and
/// uncached, each compiling the plan with the config it is given —
/// cold, warm and uncached. Every run must reproduce `expected`, and
/// the cache accounting — hits and misses of the cold and the warm run,
/// resident bytes after them — must be the default config's.
fn check_configs(
    axis: fn(EvalConfig) -> bool,
    answers: impl Fn(EvalConfig, Option<&MaterializationCache>) -> (Answers, MatCacheStats),
    holds: impl Fn(EvalConfig) -> bool,
    expected: &BTreeSet<Vec<u32>>,
    label: &str,
) {
    let mut default = None;
    let default_config = EvalConfig::default();
    for config in EvalConfig::lattice().filter(|&c| c == default_config || axis(c)) {
        let what = format!("{config:?} on {label}");
        let cache = MaterializationCache::new();
        let (cold, sc) = answers(config, Some(&cache));
        let (warm, sw) = answers(config, Some(&cache));
        let (uncached, _) = answers(config, None);
        assert_eq!(&cold, expected, "cold run, {what}");
        assert_eq!(&warm, expected, "warm run, {what}");
        assert_eq!(&uncached, expected, "uncached run, {what}");
        assert_eq!(sw.misses, 0, "warm run re-materialized, {what}");
        assert_eq!(holds(config), !expected.is_empty(), "boolean, {what}");
        let bytes = cache.resident_bytes();
        let accounting = Some((sc.hits, sc.misses, sw.hits, sw.misses, bytes));
        if config == default_config {
            default = accounting;
        } else {
            assert_eq!(
                accounting, default,
                "cache accounting under {config:?} differs from the default's on {label}"
            );
        }
    }
}

/// `AcyclicPlan` under the default and every config on `axis` ≡ naive,
/// full and Boolean (the Boolean path is where `reduction_decides`
/// plans collapse the whole sweep onto bitmaps when they read them).
fn check_acyclic(q: &ConjunctiveQuery, d: &Structure, axis: fn(EvalConfig) -> bool) {
    let plan = AcyclicPlan::compile(q).expect("forest queries are acyclic");
    let with = |config| plan.clone().with_eval_config(config);
    check_configs(
        axis,
        |config, cache| with(config).eval_cached(d, cache),
        |config| with(config).eval_boolean_cached(d, None).0,
        &NaivePlan::compile(q.clone()).eval(d),
        &q.to_string(),
    );
}

/// `DecomposedPlan` (the cyclic tier) under the default and every
/// config on `axis` ≡ naive: bag parts, cross-bag semijoins and the
/// final projection must not move a byte.
fn check_cyclic(q: &ConjunctiveQuery, d: &Structure, axis: fn(EvalConfig) -> bool) {
    let plan = DecomposedPlan::compile(q, treewidth_of_query(q))
        .expect("templates compile at their exact treewidth");
    let with = |config| plan.clone().with_eval_config(config);
    check_configs(
        axis,
        |config, cache| with(config).eval_cached(d, cache),
        |config| with(config).eval_boolean_cached(d, None).0,
        &NaivePlan::compile(q.clone()).eval(d),
        &q.to_string(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Acyclic plans that never read bitmaps ≡ the default's.
    #[test]
    fn acyclic_bitmap_equals_probe(q in acyclic_query(6), d in digraph(9)) {
        check_acyclic(&q, &d, probe_axis);
    }

    /// Cyclic plans that never read bitmaps ≡ the default's.
    #[test]
    fn cyclic_bitmap_equals_probe(q in cyclic_query(), d in digraph(9)) {
        check_cyclic(&q, &d, probe_axis);
    }

    /// Acyclic plans with packed sorts forced on or off ≡ the default's.
    #[test]
    fn acyclic_packed_equals_unpacked(q in acyclic_query(6), d in digraph(9)) {
        check_acyclic(&q, &d, packed_axis);
    }

    /// Cyclic plans with packed sorts forced on or off ≡ the default's.
    #[test]
    fn cyclic_packed_equals_unpacked(q in cyclic_query(), d in digraph(9)) {
        check_cyclic(&q, &d, packed_axis);
    }

    /// `sort_dedup` on binder-materialized relations must be
    /// **byte-identical** — same rows in the same buffer order, same
    /// width bound — between the radix arm (`PackedMode::On`, which the
    /// call's own counters show ran once) and the comparison sort
    /// (`Off`). The fixture unions a straight and a reversed scan of the
    /// edge relation, so the input is unsorted and duplicate-heavy.
    #[test]
    fn sort_dedup_radix_is_byte_identical(d in digraph(9)) {
        let q = parse_cq("Q(x, y) :- E(x, y), E(y, x)").unwrap();
        let atoms = q.atoms();
        let mut schema: Vec<_> = atoms[0].args.clone();
        schema.sort_unstable();
        schema.dedup();
        let mut base = FlatRelation::empty(schema.clone());
        AtomBinder::compile(&atoms[0], &schema).materialize_into(&d, &mut base);
        let mut reversed = FlatRelation::empty(schema.clone());
        AtomBinder::compile(&atoms[1], &schema).materialize_into(&d, &mut reversed);
        base.union_rows(&reversed);
        base.union_rows(&reversed);
        prop_assume!(!base.is_empty());

        let sorted = |packed| {
            let mut rel = base.clone();
            let mut stats = MatCacheStats::default();
            let config = EvalConfig { packed, ..EvalConfig::default() };
            rel.sort_dedup(config, &mut stats);
            (rel, stats.packed_sorts)
        };
        let ((radix, words), (cmp, none)) = (sorted(PackedMode::On), sorted(PackedMode::Off));
        prop_assert_eq!((words, none), (1, 0), "the arms that ran");
        prop_assert_eq!(radix.len(), cmp.len(), "row counts differ");
        prop_assert_eq!(radix.domain_width(), cmp.domain_width(), "width differs");
        let radix_rows: Vec<Vec<u32>> = radix.iter_rows().map(|r| r.to_vec()).collect();
        let cmp_rows: Vec<Vec<u32>> = cmp.iter_rows().map(|r| r.to_vec()).collect();
        prop_assert_eq!(radix_rows, cmp_rows, "buffer order differs");
    }
}
