//! `wide_exact`: cyclic queries past the cached width limit's
//! neighbourhood, served exactly. It stands in for a benchmark cell of
//! that name until the benchmark gains one, so it is `#[ignore]`d and
//! meant for a release build:
//!
//! ```text
//! cargo test --release --test wide_exact -- --ignored --nocapture
//! ```
//!
//! Three `Exact` requests: `K5` minus an edge (treewidth 3) with its two
//! non-adjacent vertices as the head, the Boolean 3×3 grid (treewidth
//! 3), both on a random digraph where the backtracking join
//! (`NaivePlan::eval_answers`) takes 20 ms or more, and the Boolean
//! oriented `K5` (treewidth 4) on `examples/engine_metrics.rs`'s
//! `dense14`. For each it prints the engine's p50 — the best of 5
//! rounds of 20 requests — against `NaivePlan`'s on the same inputs,
//! and the status a fresh engine answers under a 1 ms deadline; it
//! fails when the engine is the slower one.

use cqapx_cq::eval::NaivePlan;
use cqapx_cq::parse_cq;
use cqapx_engine::{Engine, EngineConfig, EvalMode, Request};
use cqapx_structures::Structure;
use std::time::{Duration, Instant};

/// A random digraph on `n` vertices, each of the `n·(n−1)` arcs present
/// with probability `percent`%, from a fixed linear congruential stream.
fn random_digraph(n: u32, percent: u64) -> Structure {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (0..n).filter(|&v| v != u) {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if (state >> 33) % 100 < percent {
                edges.push((u, v));
            }
        }
    }
    Structure::digraph(n as usize, &edges)
}

/// `examples/engine_metrics.rs`'s `dense14`.
fn dense14() -> Structure {
    let edges: Vec<(u32, u32)> = (0..14u32)
        .flat_map(|u| (0..14u32).map(move |v| (u, v)))
        .filter(|&(u, v)| u != v && (u + v) % 3 != 0)
        .collect();
    Structure::digraph(14, &edges)
}

/// The median of one round of `20` runs of `f`, best of 5 rounds.
fn p50(mut f: impl FnMut()) -> Duration {
    (0..5)
        .map(|_| {
            let mut round: Vec<Duration> = (0..20)
                .map(|_| {
                    let start = Instant::now();
                    f();
                    start.elapsed()
                })
                .collect();
            round.sort();
            round[round.len() / 2]
        })
        .min()
        .expect("five rounds")
}

#[test]
#[ignore = "timing: run in release"]
fn wide_exact_engine_is_no_slower_than_the_backtracking_join() {
    let k5_minus_edge =
        "Q(d, e) :- E(a,b), E(a,c), E(a,d), E(a,e), E(b,c), E(b,d), E(b,e), E(c,d), E(c,e)";
    let cell = |r: usize, c: usize| format!("x{r}{c}");
    let grid: Vec<String> = (0..3)
        .flat_map(|r| (0..3).map(move |c| (r, c)))
        .flat_map(|(r, c)| {
            let right = (c < 2).then(|| format!("E({}, {})", cell(r, c), cell(r, c + 1)));
            let down = (r < 2).then(|| format!("E({}, {})", cell(r, c), cell(r + 1, c)));
            right.into_iter().chain(down)
        })
        .collect();
    let grid = format!("Q() :- {}", grid.join(", "));
    let k5 =
        "Q() :- E(a,b), E(a,c), E(a,d), E(a,e), E(b,c), E(b,d), E(b,e), E(c,d), E(c,e), E(d,e)";
    let cases = [
        ("k5_minus_edge", k5_minus_edge, random_digraph(60, 30)),
        ("grid3x3", grid.as_str(), random_digraph(15, 30)),
        ("k5_dense14", k5, dense14()),
    ];
    let mut slower = Vec::new();
    for (name, text, d) in &cases {
        let q = parse_cq(text).unwrap();
        let naive = NaivePlan::compile(q.clone());
        let oracle = naive.eval_answers(d);
        let naive_p50 = p50(|| drop(naive.eval_answers(d)));

        let engine = Engine::new(EngineConfig::default());
        let db = engine.register_database(*name, d.clone());
        let id = engine.prepare_query(*name, q.clone());
        let first = engine.execute(&Request::new(id, db));
        assert_eq!(first.answers, oracle, "{name}");
        let engine_p50 = p50(|| drop(engine.execute(&Request::new(id, db))));

        let fresh = Engine::new(EngineConfig::default());
        let (db, id) = (
            fresh.register_database(*name, d.clone()),
            fresh.prepare_query(*name, q),
        );
        let hurried = fresh.execute(&Request {
            query: id,
            db,
            mode: EvalMode::Exact,
            timeout: Some(Duration::from_millis(1)),
        });
        println!(
            "{name}: engine p50 {engine_p50:?} ({} width {:?}) vs NaivePlan p50 {naive_p50:?}; \
             {} answers; under a 1 ms deadline {:?}",
            first.plan,
            first.decomposition_width,
            oracle.len(),
            hurried.status,
        );
        if engine_p50 > naive_p50 {
            slower.push(name);
        }
    }
    assert!(slower.is_empty(), "the engine is slower on {slower:?}");
}
