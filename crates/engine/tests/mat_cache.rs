//! Engine-level tests of the per-database relation-materialization
//! cache: identical answers before/after a cache hit, correct behavior
//! across database re-registration (the replacing snapshot gets a fresh
//! cache), sharing across prepared queries, and hit-rate reporting in
//! `EngineStats` — with the kernel counters the same runs report.

use cqapx_cq::parse_cq;
use cqapx_engine::{Engine, EngineConfig, PlanKind, Request};
use cqapx_structures::Structure;

fn path_db(n: u32) -> Structure {
    let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    Structure::digraph(n as usize, &edges)
}

#[test]
fn repeated_requests_hit_and_answers_match() {
    let e = Engine::new(EngineConfig::default());
    let db = e.register_database("p", path_db(6));
    let q = e.prepare_query("two_hop", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
    let req = Request::new(q, db);
    let r1 = e.execute(&req);
    let r2 = e.execute(&req);
    assert_eq!(r1.plan, PlanKind::Yannakakis);
    assert_eq!(r1.answers, r2.answers, "cache hit must not change answers");
    assert_eq!(r1.answers.len(), 4);
    // Cold run materialized; warm run only hit.
    assert!(r1.mat_cache.misses > 0);
    assert_eq!(r2.mat_cache.misses, 0);
    assert!(r2.mat_cache.hits > 0);
    let stats = e.stats();
    assert!(stats.mat_hits > 0, "EngineStats must report mat-cache hits");
    assert!(stats.mat_hit_rate() > 0.0);
    assert!(stats.to_string().contains("mat cache"));
}

#[test]
fn cache_is_shared_across_prepared_queries() {
    let e = Engine::new(EngineConfig::default());
    let db = e.register_database("p", path_db(6));
    let q1 = e.prepare_query("two_hop", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
    let q2 = e.prepare_query("edges", parse_cq("Q(a, b) :- E(a, b)").unwrap());
    let r1 = e.execute(&Request::new(q1, db));
    // q2's single hyperedge has the same canonical key as q1's, so its
    // very first request is served from q1's materialization.
    let r2 = e.execute(&Request::new(q2, db));
    assert!(r1.mat_cache.misses > 0);
    assert_eq!(r2.mat_cache.misses, 0);
    assert!(r2.mat_cache.hits > 0);
    assert_eq!(r2.answers.len(), 5);
}

#[test]
fn reregistration_invalidates_and_recomputes() {
    let e = Engine::new(EngineConfig::default());
    let q = e.prepare_query("two_hop", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());

    let db1 = e.register_database("g", path_db(4));
    let r1a = e.execute(&Request::new(q, db1));
    let r1b = e.execute(&Request::new(q, db1));
    assert_eq!(r1a.answers, r1b.answers);
    assert_eq!(r1a.answers.len(), 2);

    // Re-register the same name with different data: same id, fresh
    // cache — answers must reflect the new snapshot, not a stale entry.
    let held = e.database(db1).expect("registered");
    let db2 = e.register_database("g", path_db(6));
    assert_eq!(db1, db2);
    let r2a = e.execute(&Request::new(q, db2));
    assert!(
        r2a.mat_cache.misses > 0,
        "fresh snapshot must re-materialize, not serve db1's entries"
    );
    assert_eq!(r2a.answers.len(), 4);
    let r2b = e.execute(&Request::new(q, db2));
    assert_eq!(r2a.answers, r2b.answers);
    assert_eq!(r2b.mat_cache.misses, 0);

    // A holder of the superseded snapshot still reads its own data and
    // cache; once it lets go, the snapshot is freed.
    assert_eq!(held.total_tuples(), 3);
    assert!(held.materialized.resident_bytes() > 0);
    let weak = std::sync::Arc::downgrade(&held);
    drop(held);
    assert!(weak.upgrade().is_none());
}

#[test]
fn batch_requests_share_the_cache() {
    let e = Engine::new(EngineConfig::default());
    let db = e.register_database("p", path_db(8));
    let q = e.prepare_query("two_hop", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
    let reqs: Vec<Request> = (0..16).map(|_| Request::new(q, db)).collect();
    let rs = e.execute_batch(&reqs);
    let first = &rs[0].answers;
    for r in &rs {
        assert_eq!(&r.answers, first, "all batch responses must agree");
    }
    let stats = e.stats();
    // 16 requests over one hyperedge key: exactly one materialization
    // wins; every other lookup hits (concurrent misses may race, but
    // hits must dominate).
    assert!(stats.mat_hits > 0);
    assert!(stats.mat_hit_rate() > 0.5, "rate {}", stats.mat_hit_rate());
}

#[test]
fn planner_reads_cached_cardinalities() {
    use cqapx_engine::choose_plan;
    // A query whose only atom is the loop E(x, x): the raw relation
    // statistic counts every edge, the materialized hyperedge only the
    // loops — so a warm cache must tighten the estimate.
    let e = Engine::new(EngineConfig::default());
    let mut edges: Vec<(u32, u32)> = (0..20u32).map(|i| (i, (i + 1) % 20)).collect();
    edges.push((0, 0)); // a single loop
    let db = e.register_database("g", Structure::digraph(20, &edges));
    let q = e.prepare_query("loops_path", parse_cq("Q(x) :- E(x, x), E(x, y)").unwrap());
    let shape = cqapx_cq::QueryShape::of(&parse_cq("Q(x) :- E(x, x), E(x, y)").unwrap());
    let entry = e.database(db).expect("registered");
    let cold = choose_plan(&shape, None, &entry, 1e6).est_naive_cost;
    // Warm the cache through a served request.
    e.execute(&Request::new(q, db));
    let warm = choose_plan(&shape, None, &entry, 1e6).est_naive_cost;
    assert!(
        warm < cold,
        "warm estimate {warm} should beat cold estimate {cold}"
    );
}

/// The kernel counters an engine reports are its own runs': beside a
/// busy engine serving a batch that sorts as code words and sweeps on
/// bitmaps, an idle engine reads zero, the busy one reads what its
/// responses summed to, and `reset_stats` zeroes it.
#[test]
fn kernel_counters_are_per_engine() {
    let edges: Vec<(u32, u32)> = (0..600u32)
        .flat_map(|u| [1, 7, 61, 200].map(|step| (u, (u * 13 + step) % 600)))
        .collect();
    let d = Structure::digraph(600, &edges);
    let (busy, idle) = (
        Engine::new(EngineConfig::default()),
        Engine::new(EngineConfig::default()),
    );
    let db = busy.register_database("d", d.clone());
    idle.register_database("d", d);
    let queries = [
        "Q(x, z) :- E(x, y), E(y, z)",      // 2,400 matches sorted as words
        "Q() :- E(x, y), E(y, z), E(z, w)", // the sweep on bitmaps
    ];
    let requests: Vec<Request> = (queries.iter().enumerate())
        .map(|(i, q)| {
            Request::new(
                busy.prepare_query(format!("q{i}"), parse_cq(q).unwrap()),
                db,
            )
        })
        .collect();
    let responses = busy.execute_batch(&requests);
    let kernels = |e: &Engine| {
        let c = e.snapshot().counters;
        (c.bitmap_probes, c.packed_sorts, c.packed_rows)
    };
    let summed = responses.iter().fold((0, 0, 0), |(p, s, r), resp| {
        let m = resp.mat_cache;
        (p + m.bitmap_probes, s + m.packed_sorts, r + m.packed_rows)
    });
    let (probes, sorts, rows) = kernels(&busy);
    assert!(
        probes > 0 && sorts > 0 && rows >= 2400,
        "{:?}",
        kernels(&busy)
    );
    assert_eq!(kernels(&busy), summed, "the engine sums its responses");
    assert_eq!(kernels(&idle), (0, 0, 0), "the idle engine ran nothing");
    busy.reset_stats();
    assert_eq!(kernels(&busy), (0, 0, 0), "reset_stats clears them");
}
