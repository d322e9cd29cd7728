//! Observability and admission control with `cqapx-metrics`: latency
//! histograms per query class, solver/operator internals at `Debug`,
//! per-request trace events, queue-depth shedding, and deadline-aware
//! degradation — the whole metrics tier in one tour.
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
    // Trace is the most expensive tier: histograms + cache counters
    // (Counters), solver nodes and per-operator timings (Debug), and a
    // bounded ring of structured per-request events (Trace). A
    // production engine would usually run at Counters; `None` compiles
    // the whole layer down to one field compare per request.
    let engine = Engine::new(EngineConfig {
        metrics: MetricsLevel::Trace,
        max_queue_depth: Some(4),
        naive_cost_budget: 1e12, // keep the clique on the naive tier
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
    // multiway (WCOJ) kernel joins — the Debug tier histograms their
    // build time.
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
    println!("\n── solver / operators (Debug tier) ──");
    println!(
        "  solver: {} search nodes, {} AC-3 revisions, {} budget exhaustions",
        snap.solver_nodes, snap.solver_revisions, snap.solver_budget_exhaustions
    );
    for (op, us) in &snap.op_micros {
        let rows = snap.op_rows.get(op).copied().unwrap_or(0);
        println!("  {op:<15} {us:>8}µs {rows:>8} rows");
    }
    println!("\n── bag builds (Debug tier) ──");
    println!("  counter: {}", snap.counters.bag_builds);
    for (kernel, h) in &snap.bag_build_latency {
        if h.count == 0 {
            continue;
        }
        println!(
            "  {kernel:<12} n={:<4} p50={}µs p99={}µs max={}µs (per-response totals)",
            h.count, h.p50, h.p99, h.max
        );
    }

    println!("\n── cache memory (any tier — read from the caches) ──");
    println!(
        "  mat cache     budget={} bytes ({})",
        snap.mat_cache_budget_bytes,
        if snap.mat_cache_budget_bytes == 0 {
            "unbounded; set CQAPX_CACHE_BUDGET, e.g. 64k, to bound it"
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

    println!("\n── trace ring (Trace tier, last few) ──");
    let events = engine.trace_events();
    for ev in events.iter().rev().take(3).rev() {
        println!("  {ev}");
    }

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
