//! The engine's thread count against its results: batches spread over
//! 1, 2 or 8 workers must return the same answers and the same
//! `EngineStats` — single-flight materialization makes the cache
//! accounting independent of the schedule — and one request, which
//! always runs on the thread that executes it, must answer and
//! allocate the same whatever the engine's thread count. Plus the
//! cache-sharing and allocation guards of the plan interpreter, which
//! count the calling thread's allocator calls.

use cqapx_cq::eval::{AcyclicPlan, DecomposedPlan, MaterializationCache, NaivePlan};
use cqapx_cq::{parse_cq, query_graph, treewidth_of_query};
use cqapx_engine::{
    Engine, EngineConfig, EvalMode, MetricsLevel, PlanKind, Request, ResponseStatus,
    DEGRADE_MIN_SAMPLES,
};
use cqapx_graphs::treewidth::TreeDecomposition;
use cqapx_structures::Structure;
use proptest::prelude::*;
use std::time::Duration;

/// Engine thread counts: 1 runs batches sequentially; 2 and 8 under-
/// and over-subscribe the actual machine.
const THREADS: [usize; 3] = [1, 2, 8];

/// A random digraph database.
fn digraph(max_n: usize) -> impl Strategy<Value = Structure> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=(3 * n))
            .prop_map(move |edges| Structure::digraph(n, &edges))
    })
}

/// Plan slots share the rows of the cache entries they adopt, so no
/// plan shape may ever write through one: Boolean and one-variable
/// heads, identity projections (alone and after a join), Cartesian
/// roots, and decomposed plans with 0-ary connector bags run three
/// times each against one engine-owned cache (budgeted or not, as the
/// environment says). After every run each entry reads back
/// byte-identical to its first landing, resident bytes stand still
/// unless something was evicted, and the answers are the naive
/// evaluator's.
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
    let engine = Engine::new(EngineConfig::default());
    let db = engine.register_database("g", d.clone());
    let entry = engine.database(db).expect("registered");
    let cache = &entry.materialized;
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
            let (answers, _) = ir.run_answers(q.free_vars(), &d, Some(cache), None);
            assert_eq!(answers, expected, "{text}, run {run}");
            // Read every entry back (an evicted one re-lands, from
            // the same database, so the bytes must agree all the
            // same).
            for source in ir.materialize_sources() {
                let (mut stats, config) = (MatCacheStats::default(), EvalConfig::default());
                let rel = source.materialize(&d, Some(cache), &mut stats, config);
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
        let counts = [&full, &dangling].map(|d| {
            let cache = MaterializationCache::new();
            let warm = plan.ir().run_answers(q.free_vars(), d, Some(&cache), None);
            assert_eq!(warm.0, NaivePlan::compile(q.clone()).eval(d), "{text}");
            ALLOCS.with(|n| n.set(Some(0)));
            let again = plan.ir().run_answers(q.free_vars(), d, Some(&cache), None);
            let count = ALLOCS.with(|n| n.replace(None)).expect("switched on");
            assert_eq!(again.0, warm.0, "{text}");
            count
        });
        assert_eq!(counts[0], counts[1], "{text}: full vs dangling");
    }
}

/// One request runs start to finish on the thread that executes it,
/// whatever the engine's thread count: engines at 1 and 2 threads serve
/// the same warm requests — `two_hop`'s free join on a 3,000-vertex
/// graph of out-degree 8, and a Boolean C4 on the decomposed tier —
/// with byte-identical answers and the same number of allocator calls
/// on the calling thread.
#[test]
fn one_request_allocates_the_same_at_any_thread_count() {
    let n = 3_000u32;
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (1..=8).map(move |k| (u, (u * 31 + k * 379) % n)))
        .collect();
    let d = Structure::digraph(n as usize, &edges);
    let cells = [
        ("Q(x,z) :- E(x,y), E(y,z)", PlanKind::Yannakakis),
        (
            "Q() :- E(a,b), E(b,c), E(c,d), E(d,a)",
            PlanKind::Decomposed,
        ),
    ];
    let served = [1, 2].map(|threads| {
        let engine = Engine::new(EngineConfig {
            threads,
            naive_cost_budget: 1e18,
            ..EngineConfig::default()
        });
        let db = engine.register_database("g", d.clone());
        cells.map(|(text, tier)| {
            let req = Request::new(engine.prepare_query(text, parse_cq(text).unwrap()), db);
            engine.execute(&req);
            ALLOCS.with(|n| n.set(Some(0)));
            let warm = engine.execute(&req);
            let count = ALLOCS.with(|n| n.replace(None)).expect("switched on");
            assert_eq!(warm.plan, tier, "{text} at {threads} thread(s)");
            assert!(!warm.answers.is_empty(), "{text} at {threads} thread(s)");
            (warm.answers, count)
        })
    });
    for (i, (text, _)) in cells.iter().enumerate() {
        let ((one, one_allocs), (two, two_allocs)) = (&served[0][i], &served[1][i]);
        assert!(one == two, "{text}: answers differ between 1 and 2 threads");
        assert_eq!(
            one_allocs, two_allocs,
            "{text}: allocator calls, 1 vs 2 threads"
        );
    }
}

/// Preparing a query costs less than approximating it. A request that
/// misses the approximation cache after its query and an isomorphic
/// twin were prepared (`cqbench`'s `approx_cold`) prepares twice and
/// searches once, so on the introduction's `Q2` two preparations must
/// call the allocator less often than one search into `TW(1)`: the
/// shape's treewidth search hands its decomposition to the decomposed
/// plan, which no second search rebuilds, and the plan's sources move
/// into it rather than being copied. The plan is the one a search at
/// that width compiles to.
#[test]
fn preparing_twice_allocates_less_than_one_approximation_search() {
    use cqapx_core::{all_approximations_tableaux, ApproxOptions, TwK};
    use cqapx_engine::PreparedQuery;
    let q2 =
        parse_cq("Q() :- E(x,y), E(y,z), E(z,u), E(x1,y1), E(y1,z1), E(z1,u1), E(x,z1), E(y,u1)")
            .unwrap();
    let copy = q2.clone();
    ALLOCS.with(|n| n.set(Some(0)));
    let prepared = PreparedQuery::build("q2", copy);
    let prepare = ALLOCS.with(|n| n.replace(None)).expect("switched on");
    let plan = prepared
        .decomposed
        .as_ref()
        .expect("treewidth 2 is within the limit");
    let searched = DecomposedPlan::compile(&q2, prepared.shape.treewidth).unwrap();
    assert_eq!(format!("{:?}", plan.ir()), format!("{:?}", searched.ir()));
    let options = ApproxOptions::default();
    ALLOCS.with(|n| n.set(Some(0)));
    let (approximations, _) = all_approximations_tableaux(prepared.tableau(), &TwK(1), &options);
    let search = ALLOCS.with(|n| n.replace(None)).expect("switched on");
    assert!(!approximations.is_empty());
    assert!(
        2 * prepare < search,
        "{prepare} allocator calls per preparation, {search} for the search"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
        prop_assert_eq!(&a.0, &b.0, "batch answers differ between thread counts");
        prop_assert_eq!(
            (a.1, a.2),
            (b.1, b.2),
            "mat-cache accounting differs between thread counts"
        );
        prop_assert_eq!((a.3, a.4), (b.3, b.4), "plan tiers differ");
    }

    /// Metrics accounting at 1, 2 and 8 threads: per-class and
    /// per-database histogram *counts* (latencies obviously vary) and
    /// cache-outcome counters must not depend on the thread count —
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
        for threads in THREADS {
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
                "class histogram counts differ at {} threads", THREADS[i + 1]
            );
            prop_assert_eq!(
                &reference.1, &o.1,
                "db histogram counts differ at {} threads", THREADS[i + 1]
            );
            prop_assert_eq!(
                &reference.2, &o.2,
                "approx-cache counters differ at {} threads", THREADS[i + 1]
            );
            prop_assert_eq!(
                &reference.3, &o.3,
                "mat-cache counters differ at {} threads", THREADS[i + 1]
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
