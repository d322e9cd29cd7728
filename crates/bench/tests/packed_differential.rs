//! Differential property tests for the packed code-word kernels
//! (`CQAPX_PACKED`): evaluation with the packed radix kernels forced
//! **on** must produce identical answers — and identical cache
//! accounting — as the comparison-sort path with them forced
//! **off**, with the naive backtracking evaluator as ground truth, on
//! random acyclic queries and cyclic templates over uniform and
//! Zipf-skewed digraphs, cold and warm cache, under thread budgets
//! {1, 2, 8}. Engine batches must report identical `EngineStats`
//! under both settings, and `sort_dedup` must be **byte-identical**
//! between the radix and comparison sorts on binder-materialized
//! relations.
//!
//! The knob is process-global, so every case serializes on a
//! file-local lock and restores `Auto` before releasing it.

use cqapx_cq::eval::{
    set_packed_mode, AcyclicPlan, Answers, AtomBinder, DecomposedPlan, FlatRelation, MatCacheStats,
    MaterializationCache, NaivePlan, PackedMode,
};
use cqapx_cq::{parse_cq, treewidth_of_query, ConjunctiveQuery};
use cqapx_engine::{Engine, EngineConfig, Request};
use cqapx_par::ThreadBudget;
use cqapx_structures::Structure;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// Serializes cases across this binary's tests: the packed knob is
/// process-global and must not leak between concurrently running tests.
fn knob_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const BUDGETS: [usize; 3] = [1, 2, 8];

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
/// `v` collapses to `v²/n`, concentrating edges on low codes — heavy
/// key-duplication is where the radix sort must still leave exactly
/// the comparison sort's bytes.
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

/// Runs one plan under the packed kernels forced on and forced off —
/// each across thread budgets {1, 2, 8}, cold, warm, and uncached —
/// asserting every run reproduces `expected` and that the cache
/// accounting is mode-independent. Caller must hold [`knob_lock`].
fn check_modes<F>(eval: F, expected: &BTreeSet<Vec<u32>>, label: &str)
where
    F: Fn(Option<&MaterializationCache>, &ThreadBudget) -> (Answers, MatCacheStats),
{
    let mut per_mode: Vec<Vec<(u32, u32, u32, u32)>> = Vec::new();
    for mode in [PackedMode::On, PackedMode::Off] {
        set_packed_mode(mode);
        let mut accounting = Vec::new();
        for threads in BUDGETS {
            let budget = ThreadBudget::new(threads);
            let cache = MaterializationCache::new();
            let (cold, sc) = eval(Some(&cache), &budget);
            let (warm, sw) = eval(Some(&cache), &budget);
            assert_eq!(
                &cold, expected,
                "cold {mode:?} run at {threads} threads disagrees on {label}"
            );
            assert_eq!(
                &warm, expected,
                "warm {mode:?} run at {threads} threads disagrees on {label}"
            );
            assert_eq!(sw.misses, 0, "warm {mode:?} run re-materialized on {label}");
            let (uncached, _) = eval(None, &budget);
            assert_eq!(
                &uncached, expected,
                "uncached {mode:?} run at {threads} threads disagrees on {label}"
            );
            accounting.push((sc.hits, sc.misses, sw.hits, sw.misses));
        }
        per_mode.push(accounting);
    }
    set_packed_mode(PackedMode::Auto);
    assert_eq!(
        per_mode[0], per_mode[1],
        "cache accounting must not depend on the packed mode ({label})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `AcyclicPlan`: packed ≡ unpacked ≡ naive, full and Boolean —
    /// the radix dedup runs on every canonicalizing sort, the packed
    /// index on every eligible two-column key.
    #[test]
    fn acyclic_packed_equals_unpacked(
        q in acyclic_query(6),
        d in digraph(9),
    ) {
        let _g = knob_lock();
        let plan = AcyclicPlan::compile(&q).expect("forest queries are acyclic");
        let expected = NaivePlan::compile(q.clone()).eval(&d);
        check_modes(
            |cache, budget| plan.eval_cached_budget(&d, cache, budget),
            &expected,
            &q.to_string(),
        );
        for mode in [PackedMode::On, PackedMode::Off] {
            set_packed_mode(mode);
            for threads in BUDGETS {
                let (b, _) =
                    plan.eval_boolean_cached_budget(&d, None, &ThreadBudget::new(threads));
                prop_assert_eq!(
                    b,
                    !expected.is_empty(),
                    "boolean {:?} at {} threads on {}", mode, threads, q
                );
            }
        }
        set_packed_mode(PackedMode::Auto);
    }

    /// `DecomposedPlan` (cyclic tier): packed ≡
    /// unpacked ≡ naive — bag parts, cross-bag interfaces, and the
    /// final projection must not move a byte under the knob.
    #[test]
    fn cyclic_packed_equals_unpacked(
        q in cyclic_query(),
        d in digraph(9),
    ) {
        let _g = knob_lock();
        let plan = DecomposedPlan::compile(&q, treewidth_of_query(&q))
            .expect("templates compile at their exact treewidth");
        let expected = NaivePlan::compile(q.clone()).eval(&d);
        check_modes(
            |cache, budget| plan.eval_cached_budget(&d, cache, budget),
            &expected,
            &q.to_string(),
        );
        for mode in [PackedMode::On, PackedMode::Off] {
            set_packed_mode(mode);
            for threads in BUDGETS {
                let (b, _) =
                    plan.eval_boolean_cached_budget(&d, None, &ThreadBudget::new(threads));
                prop_assert_eq!(
                    b,
                    !expected.is_empty(),
                    "boolean {:?} at {} threads on {}", mode, threads, q
                );
            }
        }
        set_packed_mode(PackedMode::Auto);
    }

    /// `sort_dedup` on binder-materialized relations must be
    /// **byte-identical** — same rows in the same buffer order, same
    /// width bound — between the radix path (`on`) and the comparison
    /// sort (`off`). The fixture unions a straight and a reversed scan
    /// of the edge relation, so the input is unsorted and
    /// duplicate-heavy.
    #[test]
    fn sort_dedup_radix_is_byte_identical(
        d in digraph(9),
    ) {
        let _g = knob_lock();
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

        let mut radix = base.clone();
        set_packed_mode(PackedMode::On);
        radix.sort_dedup();
        let mut cmp = base;
        set_packed_mode(PackedMode::Off);
        cmp.sort_dedup();
        set_packed_mode(PackedMode::Auto);

        prop_assert_eq!(radix.len(), cmp.len(), "row counts differ");
        prop_assert_eq!(radix.domain_width(), cmp.domain_width(), "width differs");
        let radix_rows: Vec<Vec<u32>> = radix.iter_rows().map(|r| r.to_vec()).collect();
        let cmp_rows: Vec<Vec<u32>> = cmp.iter_rows().map(|r| r.to_vec()).collect();
        prop_assert_eq!(radix_rows, cmp_rows, "buffer order differs");
    }

    /// Engine batches: answers and `EngineStats` — cache outcomes and
    /// plan-tier counts — must be identical under `CQAPX_PACKED=on`
    /// and `=off`. The packed counters live outside `EngineStats`, so
    /// the two runs must be indistinguishable there.
    #[test]
    fn engine_stats_identical_across_packed_modes(
        d in digraph(8),
        dup in 2..4usize,
    ) {
        let _g = knob_lock();
        let queries = [
            "Q(x, z) :- E(x, y), E(y, z)",
            "Q() :- E(x, y), E(y, z), E(z, w)",
            "Q() :- E(x,y), E(y,z), E(z,x)",
            "Q(a) :- E(a,b), E(b,c), E(c,d), E(d,a)",
        ];
        let mut outcomes = Vec::new();
        for mode in [PackedMode::On, PackedMode::Off] {
            set_packed_mode(mode);
            let e = Engine::new(EngineConfig::default());
            let db = e.register_database("d", d.clone());
            let reqs: Vec<Request> = queries
                .iter()
                .enumerate()
                .flat_map(|(i, q)| {
                    let qid = e.prepare_query(format!("q{i}"), parse_cq(q).unwrap());
                    (0..dup).map(move |_| Request::new(qid, db))
                })
                .collect();
            let responses = e.execute_batch(&reqs);
            let stats = e.stats();
            outcomes.push((
                responses
                    .iter()
                    .map(|r| r.answers.clone())
                    .collect::<Vec<_>>(),
                stats.mat_hits,
                stats.mat_misses,
                stats.plan_yannakakis,
                stats.plan_decomposed,
                stats.plan_naive,
            ));
        }
        set_packed_mode(PackedMode::Auto);
        let (on, off) = (outcomes.remove(0), outcomes.remove(0));
        prop_assert_eq!(&on.0, &off.0, "batch answers differ between packed modes");
        prop_assert_eq!(
            (on.1, on.2),
            (off.1, off.2),
            "mat-cache accounting differs between packed modes"
        );
        prop_assert_eq!(
            (on.3, on.4, on.5),
            (off.3, off.4, off.5),
            "plan tiers differ between packed modes"
        );
    }
}
