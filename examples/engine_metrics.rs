//! Observability and admission control with `cqapx-metrics`: latency
//! histograms per query class and per database, per-database cache
//! outcomes, queue-depth shedding, and deadline-aware degradation — the
//! whole metrics layer in one tour.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example engine_metrics
//! ```

use cq_approx::prelude::*;
use cqapx_engine::{EngineConfig, MetricsLevel, ResponseStatus, DEGRADE_MIN_SAMPLES};
use std::time::Duration;

fn main() {
    // Counters (the default) records latency histograms and cache
    // outcomes without a lock or an allocation per request; `None`
    // compiles the whole layer down to one field compare per request.
    let engine = Engine::new(EngineConfig {
        metrics: MetricsLevel::Counters,
        max_queue_depth: Some(4),
        // Keep the clique (treewidth 4) on the tree tier: a bounded run,
        // past the cached width limit, which its deadline can threaten.
        naive_cost_budget: 1e12,
        ..EngineConfig::default()
    });

    let mut edges: Vec<(u32, u32)> = Vec::new();
    for u in 0..14u32 {
        for v in 0..14u32 {
            if u != v && (u + v) % 3 != 0 {
                edges.push((u, v));
            }
        }
    }
    let db = engine.register_database("dense14", Structure::digraph(14, &edges));
    let two_hop = engine.prepare_query("two_hop", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
    let clique = engine.prepare_query(
        "k5",
        parse_cq(
            "Q() :- E(a,b), E(a,c), E(a,d), E(a,e), E(b,c), E(b,d), E(b,e), E(c,d), E(c,e), E(d,e)",
        )
        .unwrap(),
    );

    // A cyclic query lands on the decomposed tier, whose bags the
    // multiway (WCOJ) kernel joins.
    let c4 = engine.prepare_query(
        "c4",
        parse_cq("Q(a, c) :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap(),
    );

    // ── Warm traffic: the classes build their own distributions ──────
    for _ in 0..DEGRADE_MIN_SAMPLES {
        engine.execute(&Request::new(two_hop, db));
        engine.execute(&Request::new(clique, db));
        engine.execute(&Request::new(c4, db));
    }

    // ── Admission control: a batch deeper than the queue sheds ───────
    let storm: Vec<Request> = (0..10).map(|_| Request::new(two_hop, db)).collect();
    let responses = engine.execute_batch(&storm);
    let shed = responses
        .iter()
        .filter(|r| r.status == ResponseStatus::Shed)
        .count();
    println!(
        "storm of {} against queue depth 4: {shed} shed",
        storm.len()
    );
    if let Some(r) = responses.iter().find(|r| r.status == ResponseStatus::Shed) {
        println!("  rationale: {}", r.plan_reason());
    }

    // ── Deadline-aware degradation ───────────────────────────────────
    // The measured p99 of the clique's class says a 1µs deadline is
    // hopeless, so the engine serves the approximation's certain
    // answers up front instead of starting a join it would have to
    // abandon.
    let r = engine.execute(&Request {
        query: clique,
        db,
        mode: EvalMode::Exact,
        timeout: Some(Duration::from_micros(1)),
    });
    println!("\nimpossible deadline: status={:?}", r.status);
    println!("  rationale: {}", r.plan_reason());

    // ── The snapshot: one consistent copy of everything measured ─────
    let snap = engine.snapshot();
    println!("\n── per-class latency ──");
    for (class, h) in &snap.class_latency {
        if h.count == 0 {
            continue;
        }
        println!(
            "  {class:<12} n={:<4} p50={}µs p90={}µs p99={}µs max={}µs",
            h.count, h.p50, h.p90, h.p99, h.max
        );
    }
    println!("\n── per-database latency and cache outcomes ──");
    for (db, h) in &snap.db_latency {
        let count = |by_db: &std::collections::BTreeMap<String, u64>, what: &str| {
            by_db.get(&format!("{db}/{what}")).copied().unwrap_or(0)
        };
        println!(
            "  {db:<12} n={:<4} p99={}µs mat hits={} misses={} approx hits={} misses={}",
            h.count,
            h.p99,
            count(&snap.mat_cache_by_db, "hits"),
            count(&snap.mat_cache_by_db, "misses"),
            count(&snap.approx_cache_by_db, "hits"),
            count(&snap.approx_cache_by_db, "misses"),
        );
    }
    println!("  bag builds: {}", snap.counters.bag_builds);

    println!("\n── cache memory (any level — read from the caches) ──");
    println!(
        "  mat cache     budget={} bytes ({})",
        snap.mat_cache_budget_bytes,
        if snap.mat_cache_budget_bytes == 0 {
            "unbounded; set EngineConfig::mat_cache_budget_bytes to bound it"
        } else {
            "evicting when over"
        }
    );
    for (db, bytes) in &snap.mat_cache_bytes_by_db {
        println!(
            "    {db:<12} resident={bytes:>8}B evictions={} dict={} codes",
            snap.mat_cache_evictions_by_db.get(db).copied().unwrap_or(0),
            snap.dict_size_by_db.get(db).copied().unwrap_or(0),
        );
    }
    println!(
        "  approx cache  resident={}B budget={} evictions={}",
        snap.approx_cache_bytes, snap.approx_cache_budget_bytes, snap.approx_cache_evictions
    );
    // Column bitmaps of cached relations count in `resident` above;
    // how often runs read them is one of this engine's kernel counters.
    println!(
        "\n── kernels (this engine's runs) ──\n  bitmap probes={} packed sorts={} ({} rows)",
        snap.counters.bitmap_probes, snap.counters.packed_sorts, snap.counters.packed_rows
    );

    // ── Epochs: reset, measure clean ─────────────────────────────────
    engine.reset_stats();
    let fresh = engine.snapshot();
    println!(
        "\nafter reset_stats: requests={} recorded classes={}",
        fresh.counters.requests,
        fresh.class_latency.values().filter(|h| h.count > 0).count()
    );

    println!("\n── engine stats ──\n{}", engine.stats());
}
