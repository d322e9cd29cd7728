//! Differential property tests for the morsel-driven parallel
//! execution layer: evaluation under thread budgets {1, 2, 8} must
//! produce **identical** answer relations — and, thanks to
//! single-flight materialization, identical cache accounting — as the
//! sequential path, for `AcyclicPlan`, `DecomposedPlan`, and the
//! `NaivePlan` ground truth, on random digraph queries, cold and warm
//! cache, plus engine batches whose `EngineStats` must not depend on
//! the thread count.

use cqapx_cq::eval::{AcyclicPlan, Answers, DecomposedPlan, MaterializationCache, NaivePlan};
use cqapx_cq::{parse_cq, query_graph, treewidth_of_query, ConjunctiveQuery};
use cqapx_engine::{
    Engine, EngineConfig, EvalMode, MetricsLevel, Request, ResponseStatus, DEGRADE_MIN_SAMPLES,
};
use cqapx_graphs::treewidth::TreeDecomposition;
use cqapx_par::ThreadBudget;
use cqapx_structures::Structure;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;

/// Thread budgets every differential case runs under. 1 is the
/// sequential compile target; 2 and 8 exercise under- and
/// over-subscription of the actual machine.
const BUDGETS: [usize; 3] = [1, 2, 8];

/// A random **acyclic** conjunctive query (random forest + reversed
/// twins, duplicates, loops, random head) — the same family the
/// columnar-kernel differential tests use.
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

/// Random **cyclic** template queries (oriented cycles, wheels, K4,
/// double triangles) with random orientations and heads — the shapes
/// the decomposed tier serves.
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

/// A random digraph database.
fn digraph(max_n: usize) -> impl Strategy<Value = Structure> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=(3 * n))
            .prop_map(move |edges| Structure::digraph(n, &edges))
    })
}

/// Runs one plan under every budget, cold and warm, against the
/// sequential reference, checking answers and cache accounting.
fn check_budgets<F>(eval: F, expected: &BTreeSet<Vec<u32>>, label: &str)
where
    F: Fn(Option<&MaterializationCache>, &ThreadBudget) -> (Answers, cqapx_cq::eval::MatCacheStats),
{
    let seq_budget = ThreadBudget::new(1);
    let seq_cache = MaterializationCache::new();
    let (seq_cold, sc) = eval(Some(&seq_cache), &seq_budget);
    let (seq_warm, sw) = eval(Some(&seq_cache), &seq_budget);
    assert_eq!(
        &seq_cold, expected,
        "sequential cold run disagrees on {label}"
    );
    assert_eq!(
        &seq_warm, expected,
        "sequential warm run disagrees on {label}"
    );
    assert_eq!(sw.misses, 0, "warm run re-materialized on {label}");
    for threads in BUDGETS {
        let budget = ThreadBudget::new(threads);
        let cache = MaterializationCache::new();
        let (cold, c) = eval(Some(&cache), &budget);
        let (warm, w) = eval(Some(&cache), &budget);
        assert_eq!(
            &cold, expected,
            "cold run at {threads} threads disagrees on {label}"
        );
        assert_eq!(
            &warm, expected,
            "warm run at {threads} threads disagrees on {label}"
        );
        assert_eq!(
            (c.hits, c.misses),
            (sc.hits, sc.misses),
            "cold cache accounting at {threads} threads differs on {label}"
        );
        assert_eq!(
            (w.hits, w.misses),
            (sw.hits, sw.misses),
            "warm cache accounting at {threads} threads differs on {label}"
        );
        // Uncached evaluation too (exercises the no-cache kernels).
        let (uncached, _) = eval(None, &budget);
        assert_eq!(
            &uncached, expected,
            "uncached run at {threads} threads on {label}"
        );
    }
}

/// Plan slots share the rows of the cache entries they adopt, so no
/// plan shape may ever write through one: Boolean and one-variable
/// heads, identity projections (alone and after a join), Cartesian
/// roots, and decomposed plans with 0-ary connector bags run three
/// times each against one engine-owned cache (budgeted or not, as the
/// environment says) at thread budgets 1 and 2. After every run each
/// entry reads back byte-identical to its first landing, resident
/// bytes stand still unless something was evicted, and the answers are
/// the naive evaluator's.
#[test]
fn cached_rows_are_never_written_through_a_sharing_slot() {
    use cqapx_cq::eval::{EvalConfig, MatCacheStats, PlanIr};
    let edges: Vec<(u32, u32)> = (0..240u32)
        .flat_map(|u| [(u, (u * 7 + 3) % 240), (u, (u + 1) % 200), (u % 50, u)])
        .collect();
    let d = Structure::digraph(260, &edges);
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
    // The compiler's own (reduced) decompositions cover an atom in every
    // bag here; a star over C6 whose centre {b, d, f} covers none keeps
    // the 0-ary connector bag in the matrix.
    const C6: &str = "Q(a) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)";
    let star = TreeDecomposition {
        bags: vec![vec![1, 3, 5], vec![0, 1, 5], vec![1, 2, 3], vec![3, 4, 5]],
        tree_edges: vec![(0, 1), (0, 2), (0, 3)],
    };
    star.validate(&query_graph(&parse_cq(C6).unwrap())).unwrap();
    let mut landed: Vec<(String, Vec<Vec<u32>>)> = Vec::new();
    let mut connector_bags = 0;
    for threads in [1, 2] {
        let engine = Engine::new(EngineConfig::default());
        let db = engine.register_database("g", d.clone());
        let entry = engine.database(db).expect("registered");
        let cache = &entry.materialized;
        let budget = ThreadBudget::new(threads);
        for text in texts {
            let q = parse_cq(text).unwrap();
            let expected = NaivePlan::compile(q.clone()).eval(&d);
            let acyclic = AcyclicPlan::compile(&q).ok();
            let decomposed = acyclic.is_none().then(|| match text {
                C6 => DecomposedPlan::compile_rooted(&q, &star, 0),
                _ => DecomposedPlan::compile(&q, treewidth_of_query(&q)).unwrap(),
            });
            let ir: &PlanIr = match (&acyclic, &decomposed) {
                (Some(p), _) => p.ir(),
                (_, Some(p)) => p.ir(),
                _ => unreachable!(),
            };
            connector_bags += ir
                .materialize_sources()
                .filter(|s| s.parts.is_empty())
                .count();
            // (evictions, resident bytes) once the previous run was over.
            let mut quiescent: Option<(u64, usize)> = None;
            for run in 0..3 {
                let (answers, _) = ir.run_answers(q.free_vars(), &d, Some(cache), &budget, None);
                assert_eq!(answers, expected, "{text}, run {run}, {threads} threads");
                // Read every entry back (an evicted one re-lands, from
                // the same database, so the bytes must agree all the
                // same).
                for source in ir.materialize_sources() {
                    let (mut stats, config) = (MatCacheStats::default(), EvalConfig::default());
                    let rel = source.materialize(&d, Some(cache), &mut stats, &budget, config);
                    let rows: Vec<Vec<u32>> = rel.iter_rows().map(<[u32]>::to_vec).collect();
                    let key = format!("{:?}", source.key);
                    match landed.iter().find(|(k, _)| *k == key) {
                        Some((_, first)) => assert_eq!(&rows, first, "{text}, run {run}: {key}"),
                        None => landed.push((key, rows)),
                    }
                }
                let now = (cache.evictions(), cache.resident_bytes());
                if let Some(before) = quiescent.replace(now) {
                    assert!(
                        before == now || before.0 != now.0,
                        "{text}, run {run}: {before:?} -> {now:?}"
                    );
                }
            }
        }
    }
    assert!(connector_bags > 0, "no plan had a 0-ary connector bag");
}

/// The system allocator, counting the calling thread's allocations
/// while that thread has switched its counter on (other tests of this
/// binary run beside it on their own threads).
struct CountingAlloc;

thread_local! {
    static ALLOCS: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`;
// the counter is a const-initialised thread-local `Cell` without a
// destructor, so reading it allocates nothing.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same layout the caller vouched for.
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from `System` with `layout`, as the caller vouches.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A warm two-atom request allocates the same number of times whether
/// or not the database has a dangling tuple: the one semijoin left in
/// the plan costs the same when it removes a row as when it removes
/// none, and the second sweep — which would rebuild the bitmaps of
/// whatever the first one touched — is the join. (`cqbench` draws a
/// new graph per seed, about one in three without an in-degree-0
/// vertex; its allocation counts must not tell them apart.)
#[test]
fn warm_wedge_allocations_ignore_a_dangling_tuple() {
    let mut edges: Vec<(u32, u32)> = (0..400u32)
        .flat_map(|u| [(u, (u * 7 + 3) % 400), (u, (u + 1) % 400)])
        .collect();
    let full = Structure::digraph(402, &edges);
    // Vertex 400 gets an edge out and none in: `E(y,z)` loses one row.
    edges.push((400, 0));
    let dangling = Structure::digraph(402, &edges);
    for text in ["Q(x,y,z) :- E(x,y), E(y,z)", "Q(x,z) :- E(x,y), E(y,z)"] {
        let q = parse_cq(text).unwrap();
        let plan = AcyclicPlan::compile(&q).unwrap();
        let budget = ThreadBudget::new(1);
        let counts = [&full, &dangling].map(|d| {
            let cache = MaterializationCache::new();
            let warm = plan
                .ir()
                .run_answers(q.free_vars(), d, Some(&cache), &budget, None);
            assert_eq!(warm.0, NaivePlan::compile(q.clone()).eval(d), "{text}");
            ALLOCS.with(|n| n.set(Some(0)));
            let again = plan
                .ir()
                .run_answers(q.free_vars(), d, Some(&cache), &budget, None);
            let count = ALLOCS.with(|n| n.replace(None)).expect("switched on");
            assert_eq!(again.0, warm.0, "{text}");
            count
        });
        assert_eq!(counts[0], counts[1], "{text}: full vs dangling");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `AcyclicPlan` under budgets {1, 2, 8} ≡ sequential ≡ naive.
    #[test]
    fn acyclic_parallel_equals_sequential(
        q in acyclic_query(6),
        d in digraph(7),
    ) {
        let plan = AcyclicPlan::compile(&q).expect("forest queries are acyclic");
        let expected = NaivePlan::compile(q.clone()).eval(&d);
        check_budgets(
            |cache, budget| plan.eval_cached_budget(&d, cache, budget),
            &expected,
            &q.to_string(),
        );
        for threads in BUDGETS {
            let (b, _) =
                plan.eval_boolean_cached_budget(&d, None, &ThreadBudget::new(threads));
            prop_assert_eq!(b, !expected.is_empty(), "boolean at {} threads", threads);
        }
    }

    /// `DecomposedPlan` under budgets {1, 2, 8} ≡ sequential ≡ naive.
    #[test]
    fn decomposed_parallel_equals_sequential(
        q in cyclic_query(),
        d in digraph(7),
    ) {
        let plan = DecomposedPlan::compile(&q, treewidth_of_query(&q))
            .expect("templates compile at their exact treewidth");
        let expected = NaivePlan::compile(q.clone()).eval(&d);
        check_budgets(
            |cache, budget| plan.eval_cached_budget(&d, cache, budget),
            &expected,
            &q.to_string(),
        );
        for threads in BUDGETS {
            let (b, _) =
                plan.eval_boolean_cached_budget(&d, None, &ThreadBudget::new(threads));
            prop_assert_eq!(b, !expected.is_empty(), "boolean at {} threads", threads);
        }
    }

    /// Engine batches: answers and `EngineStats` materialization
    /// accounting must be identical whether the engine runs on 1 thread
    /// or oversubscribes 8 — single-flight makes the (miss, hit, …)
    /// totals schedule-independent. The queries avoid repeated
    /// variables so planner estimates (which may peek cached
    /// cardinalities) cannot depend on materialization order either.
    #[test]
    fn engine_batch_stats_identical_across_thread_counts(
        d in digraph(8),
        dup in 2..4usize,
    ) {
        let queries = [
            "Q(x, z) :- E(x, y), E(y, z)",
            "Q() :- E(x,y), E(y,z), E(z,x)",
            "Q(a) :- E(a,b), E(b,c), E(c,d), E(d,a)",
        ];
        let mut outcomes = Vec::new();
        for threads in [1usize, 8] {
            let e = Engine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
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
            ));
        }
        let (a, b) = (outcomes.remove(0), outcomes.remove(0));
        prop_assert_eq!(&a.0, &b.0, "batch answers differ between thread budgets");
        prop_assert_eq!(
            (a.1, a.2),
            (b.1, b.2),
            "mat-cache accounting differs between thread budgets"
        );
        prop_assert_eq!((a.3, a.4), (b.3, b.4), "plan tiers differ");
    }

    /// Metrics accounting under budgets {1, 2, 8}: per-class and
    /// per-database histogram *counts* (latencies obviously vary) and
    /// cache-outcome counters must not depend on the thread budget —
    /// every request is recorded exactly once, whatever schedules it.
    #[test]
    fn engine_metrics_accounting_identical_across_thread_counts(
        d in digraph(8),
        dup in 2..4usize,
    ) {
        let queries = [
            "Q(x, z) :- E(x, y), E(y, z)",
            "Q() :- E(x,y), E(y,z), E(z,x)",
            "Q(a) :- E(a,b), E(b,c), E(c,d), E(d,a)",
        ];
        let mut outcomes = Vec::new();
        for threads in BUDGETS {
            let e = Engine::new(EngineConfig {
                threads,
                metrics: MetricsLevel::Counters,
                ..EngineConfig::default()
            });
            let db = e.register_database("d", d.clone());
            let reqs: Vec<Request> = queries
                .iter()
                .enumerate()
                .flat_map(|(i, q)| {
                    let qid = e.prepare_query(format!("q{i}"), parse_cq(q).unwrap());
                    (0..dup).map(move |_| Request::new(qid, db))
                })
                .collect();
            e.execute_batch(&reqs);
            let snap = e.snapshot();
            let class_counts: Vec<(String, u64)> = snap
                .class_latency
                .iter()
                .map(|(k, h)| (k.clone(), h.count))
                .collect();
            let db_counts: Vec<(String, u64)> = snap
                .db_latency
                .iter()
                .map(|(k, h)| (k.clone(), h.count))
                .collect();
            outcomes.push((
                class_counts,
                db_counts,
                snap.approx_cache_by_db,
                snap.mat_cache_by_db,
            ));
        }
        let reference = outcomes.remove(0);
        for (i, o) in outcomes.into_iter().enumerate() {
            prop_assert_eq!(
                &reference.0, &o.0,
                "class histogram counts differ at budget {}", BUDGETS[i + 1]
            );
            prop_assert_eq!(
                &reference.1, &o.1,
                "db histogram counts differ at budget {}", BUDGETS[i + 1]
            );
            prop_assert_eq!(
                &reference.2, &o.2,
                "approx-cache counters differ at budget {}", BUDGETS[i + 1]
            );
            prop_assert_eq!(
                &reference.3, &o.3,
                "mat-cache counters differ at budget {}", BUDGETS[i + 1]
            );
        }
    }

    /// Admission control and degradation stay sound: a batch deeper
    /// than `max_queue_depth` sheds exactly its tail with empty answer
    /// sets, and every response — complete, shed, degraded, or timed
    /// out — returns a subset of the exact answers.
    #[test]
    fn shed_and_degraded_responses_stay_sound(
        d in digraph(7),
        limit in 1..4usize,
    ) {
        let e = Engine::new(EngineConfig {
            metrics: MetricsLevel::Counters,
            max_queue_depth: Some(limit),
            ..EngineConfig::default()
        });
        let db = e.register_database("d", d.clone());
        let text =
            "Q() :- E(a,b), E(a,c), E(a,d), E(a,e), E(b,c), E(b,d), E(b,e), E(c,d), E(c,e), E(d,e)";
        let query = parse_cq(text).unwrap();
        let exact = NaivePlan::compile(query.clone()).eval(&d);
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
}
