//! Serving CQs with `cqapx-engine`: catalog, planner, approximation
//! cache, and a parallel batch — the whole subsystem in one tour.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example engine_serving
//! ```

use cq_approx::prelude::*;
use cqapx_engine::EngineConfig;

fn main() {
    // An engine with a deliberately small planner budget (estimated bag
    // rows), so the cyclic query below is forced onto the approximation
    // sandwich on the dense database and we can watch the cache amortize
    // the expensive search.
    let config = EngineConfig {
        naive_cost_budget: 1e4,
        approx_class: TwK(1),
        ..EngineConfig::default()
    };
    let engine = Engine::new(config);

    // ── Catalog: two databases with different statistics ─────────────
    let path = Structure::digraph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    let mut dense_edges: Vec<(u32, u32)> = Vec::new();
    for u in 0..40u32 {
        for v in 0..40u32 {
            if u != v && (u * 7 + v * 3) % 5 != 0 {
                dense_edges.push((u, v));
            }
        }
    }
    let dense = Structure::digraph(40, &dense_edges);
    let db_path = engine.register_database("path6", path);
    let db_dense = engine.register_database("dense40", dense);

    // ── Prepared queries ─────────────────────────────────────────────
    // Acyclic: the planner always picks Yannakakis.
    let two_hop = engine.prepare_query("two_hop", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
    // Cyclic: the decomposed tier on the small path database, sandwich on
    // the dense one.
    let triangle = engine.prepare_query(
        "triangle_members",
        parse_cq("Q(x) :- E(x, y), E(y, z), E(z, x)").unwrap(),
    );

    // ── Single requests: watch the plans differ per database ─────────
    // Certain-only mode: sandwich requests serve the approximation's
    // guaranteed answers immediately (exact mode would run the full
    // join instead and only fall back to the approximation on timeout).
    let certain = |q, db| Request {
        query: q,
        db,
        mode: EvalMode::CertainOnly,
        timeout: None,
    };
    for (label, db) in [("path6", db_path), ("dense40", db_dense)] {
        let r = engine.execute(&certain(triangle, db));
        println!(
            "triangle_members @ {label}: plan={} answers={} status={:?}\n  rationale: {}",
            r.plan,
            r.answers.len(),
            r.status,
            r.plan_reason()
        );
    }

    // ── The cache pays off on repetition (and across renamings) ──────
    let renamed = engine.prepare_query(
        "triangle_renamed",
        parse_cq("Q(a) :- E(a, b), E(b, c), E(c, a)").unwrap(),
    );
    let r = engine.execute(&certain(renamed, db_dense));
    println!(
        "renamed triangle @ dense40: cache_hit={:?} (isomorphic tableau ⇒ shared entry)",
        r.cache_hit
    );

    // ── Parallel batch over the full workload ────────────────────────
    let reqs: Vec<Request> = (0..32)
        .map(|i| {
            let q = if i % 2 == 0 { two_hop } else { triangle };
            let db = if i % 4 < 2 { db_path } else { db_dense };
            Request::new(q, db)
        })
        .collect();
    let responses = engine.execute_batch(&reqs);
    let total: usize = responses.iter().map(|r| r.answers.len()).sum();
    println!(
        "\nbatch of {} requests returned {total} answer tuples",
        reqs.len()
    );

    println!("\n── engine stats ──\n{}", engine.stats());
}
