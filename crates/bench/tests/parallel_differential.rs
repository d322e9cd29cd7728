//! The engine's thread count against its accounting, through the oracle
//! harness (`harness/mod.rs`): batches spread over 1, 2 or 8 workers
//! return the oracle's answers, and both caches' single-flight entries
//! make the accounting independent of the schedule: a relation is
//! materialized once, and an approximation searched once per
//! isomorphism class. The metrics agree with the counters they break
//! down. Under budgets that evict some cache entries but not all, the
//! answers stay the oracle's. The starved-cache variant is
//! `tests/proptest_invariants.rs`'s.

mod harness;

use cqapx_bench::workloads::zipf_db;
use cqapx_core::{ApproxOptions, TwK};
use cqapx_cq::{parse_cq, tableau_of, ConjunctiveQuery};
use cqapx_engine::{
    Engine, EngineConfig, EngineStats, EvalMode, PlanKind, Request, ResponseStatus, StatsSnapshot,
};
use cqapx_structures::iso::isomorphic_pointed;
use cqapx_structures::{Pointed, Structure};
use harness::{database, serve_batches, serve_sandwich_batches, THREADS};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The metrics summed back up — the classes' request counts, then each
/// cache's per-database hits and misses — next to the counters they
/// break down, which they must equal.
fn breakdown(s: &StatsSnapshot) -> ([u64; 5], [u64; 5]) {
    let sum = |by_db: &BTreeMap<String, u64>, what: &str| -> u64 {
        let suffix = format!("/{what}");
        (by_db.iter())
            .filter(|(label, _)| label.ends_with(&suffix))
            .map(|(_, n)| n)
            .sum()
    };
    let (approx, mat) = (&s.approx_cache_by_db, &s.mat_cache_by_db);
    let metrics = [
        s.class_latency.values().map(|h| h.count).sum(),
        sum(approx, "hits"),
        sum(approx, "misses"),
        sum(mat, "hits"),
        sum(mat, "misses"),
    ];
    let c = &s.counters;
    let counters = [
        c.requests,
        c.cache_hits,
        c.cache_misses,
        c.mat_hits,
        c.mat_misses,
    ];
    (metrics, counters)
}

/// The counters without wall time, and without what a schedule decides
/// once a cache evicts: whether a lookup found its entry or an evicted
/// one must be rebuilt (each cache's hits and misses are summed into
/// its hits), and the sorts that rebuild an evicted relation.
fn schedule_free(s: &StatsSnapshot) -> String {
    let c = &s.counters;
    format!(
        "{:?}",
        EngineStats {
            cache_hits: c.cache_hits + c.cache_misses,
            cache_misses: 0,
            mat_hits: c.mat_hits + c.mat_misses,
            mat_misses: 0,
            packed_sorts: 0,
            packed_rows: 0,
            busy: Duration::ZERO,
            ..c.clone()
        }
    )
}

/// Both caches at half the bytes an unbounded run leaves resident, on
/// one fixed Zipf database: at 1, 2 and 8 threads each cache evicts and
/// keeps something, every answer is the oracle's (the harness checks
/// each response), and the metrics add up to the counters. An evicting
/// schedule decides what a later lookup finds, so beyond that the
/// counters agree across thread counts as [`schedule_free`] reads them.
#[test]
fn partial_eviction_keeps_answers_and_accounting() {
    let d = zipf_db(10, 40, 1.1, 5);
    let unbounded = &serve_sandwich_batches(&d, 0, 0, 2)[0];
    let mat = unbounded.mat_cache_bytes_by_db["d"] as usize / 2;
    let approx = unbounded.approx_cache_bytes as usize / 2;
    assert!(
        mat > 0 && approx > 0,
        "both caches hold something unbounded"
    );
    let snaps = serve_sandwich_batches(&d, mat, approx, 2);
    for (snap, threads) in snaps.iter().zip(THREADS) {
        let resident = snap.mat_cache_bytes_by_db["d"];
        assert!(
            snap.mat_cache_evictions_by_db["d"] >= 1,
            "at {threads} threads"
        );
        assert!(
            resident > 0 && resident <= mat as u64,
            "{resident} at {threads} threads"
        );
        assert!(snap.approx_cache_evictions >= 1, "at {threads} threads");
        assert!(snap.approx_cache_bytes > 0, "at {threads} threads");
        assert_eq!(
            schedule_free(snap),
            schedule_free(&snaps[0]),
            "at {threads} threads"
        );
        let (metrics, counters) = breakdown(snap);
        assert_eq!(metrics, counters, "at {threads} threads");
        assert!(
            counters[1] + counters[2] > 0,
            "approximation-cache lookups at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every `EngineStats` counter but `busy` (wall time varies) is the
    /// sequential run's, on the exact batch and on the approximation
    /// sandwich, both caches unbounded.
    #[test]
    fn engine_batch_stats_identical_across_thread_counts(d in database(), dup in 2..4usize) {
        let counters = |s: &StatsSnapshot| {
            format!("{:?}", EngineStats { busy: Duration::ZERO, ..s.counters.clone() })
        };
        for snaps in [serve_batches(&d, 0, dup), serve_sandwich_batches(&d, 0, 0, dup)] {
            for (snap, threads) in snaps.iter().zip(THREADS).skip(1) {
                prop_assert_eq!(counters(&snaps[0]), counters(snap), "at {} threads", threads);
            }
        }
    }

    /// The per-class and per-database histogram counts (latencies vary)
    /// and the per-database cache counters are the sequential run's:
    /// every request is recorded exactly once, whatever schedules it.
    /// At every thread count they add up to the counters: the classes'
    /// counts to `requests`, each cache's per-database hits and misses
    /// to its hits and misses.
    #[test]
    fn engine_metrics_accounting_identical_across_thread_counts(
        d in database(),
        dup in 2..4usize,
    ) {
        let accounting = |s: &StatsSnapshot| {
            let class: Vec<_> = s.class_latency.iter().map(|(k, h)| (k, h.count)).collect();
            let db: Vec<_> = s.db_latency.iter().map(|(k, h)| (k, h.count)).collect();
            format!("{class:?} {db:?} {:?} {:?}", s.approx_cache_by_db, s.mat_cache_by_db)
        };
        let snaps = serve_batches(&d, 0, dup);
        for (snap, threads) in snaps.iter().zip(THREADS) {
            prop_assert_eq!(accounting(&snaps[0]), accounting(snap), "at {} threads", threads);
            let (metrics, counters) = breakdown(snap);
            prop_assert_eq!(metrics, counters, "at {} threads", threads);
        }
    }
}

/// Eight renamings of a directed 10-cycle with one head variable: the
/// `k`-th names variable `i` `v{(3i + k) mod 10}` and starts its body at
/// atom `k`. Its cold `TW(1)` search takes about 30 ms in a debug
/// build, so parallel workers that start together meet inside it.
fn renamings() -> Vec<ConjunctiveQuery> {
    let cycle = |k: usize| {
        let v = |i: usize| format!("v{}", (3 * i + k) % 10);
        let atom = |j: usize| format!("E({},{})", v((j + k) % 10), v((j + k + 1) % 10));
        let body: Vec<String> = (0..10).map(atom).collect();
        parse_cq(&format!("Q({}) :- {}", v(0), body.join(", "))).unwrap()
    };
    (0..8).map(cycle).collect()
}

/// Serves every renaming certain-only, as one batch on a fresh engine
/// with `threads` workers, both caches unbounded. Every response is a
/// sandwich with the first one's answers, and every renaming's
/// approximation is one cache entry. Returns the cache's hits and
/// misses, what the sequential run must match — those, the answers, the
/// cache's bytes and the report's counts, which do not depend on which
/// renaming missed (the cache searches the canonical tableau) — and the
/// report's tableaux.
fn serve_renamings(d: &Structure, threads: usize) -> ((u64, u64), String, Vec<Pointed>) {
    let e = Engine::new(EngineConfig {
        threads,
        naive_cost_budget: 0.0,
        ..EngineConfig::default()
    });
    let db = e.register_database("d", d.clone());
    let queries = renamings();
    let reqs: Vec<Request> = (queries.iter().enumerate())
        .map(|(i, q)| Request {
            mode: EvalMode::CertainOnly,
            ..Request::new(e.prepare_query(format!("r{i}"), q.clone()), db)
        })
        .collect();
    let responses = e.execute_batch(&reqs);
    let counts = (e.cache().hits(), e.cache().misses());
    for r in &responses {
        assert_eq!(
            r.status,
            ResponseStatus::CertainOnly,
            "at {threads} threads"
        );
        assert_eq!(r.plan, PlanKind::Sandwich, "at {threads} threads");
        assert_eq!(r.answers, responses[0].answers, "at {threads} threads");
    }
    let options = ApproxOptions::default();
    let lookup = |q| e.cache().lookup_only(&tableau_of(q), &TwK(1), &options);
    let entries: Vec<_> = queries.iter().map(|q| lookup(q).unwrap()).collect();
    assert!(
        entries.iter().all(|c| Arc::ptr_eq(c, &entries[0])),
        "one entry at {threads} threads"
    );
    let report = &entries[0].report;
    let seen = format!(
        "{counts:?} {:?} {} bytes, {} approximations, {} partitions, {} candidates, {} nodes",
        responses[0].answers.to_btree_set(),
        e.snapshot().approx_cache_bytes,
        report.approximations.len(),
        report.partitions,
        report.candidates,
        report.nodes,
    );
    (counts, seen, report.tableaux.clone())
}

/// Eight isomorphic renamings of one cold certain-only query in one
/// batch: at 1, 2 and 8 workers the approximation search runs once —
/// 1 miss and 7 hits — and the answers, the cache's bytes and the
/// report, up to isomorphism, are the sequential run's.
#[test]
fn isomorphic_renamings_in_one_batch_search_once() {
    let d = zipf_db(10, 40, 1.1, 5);
    let sequential = serve_renamings(&d, 1);
    for threads in THREADS {
        let (counts, seen, tableaux) = serve_renamings(&d, threads);
        assert_eq!(counts, (7, 1), "at {threads} threads");
        assert_eq!(seen, sequential.1, "at {threads} threads");
        assert!(
            tableaux
                .iter()
                .all(|t| sequential.2.iter().any(|s| isomorphic_pointed(s, t))),
            "at {threads} threads"
        );
    }
}

/// [`isomorphic_renamings_in_one_batch_search_once`]'s 8-worker batch,
/// 100 times, for the interleavings one run rarely meets. CI runs it in
/// release.
#[test]
#[ignore]
fn deep_isomorphic_renamings_in_one_batch_search_once() {
    let d = zipf_db(10, 40, 1.1, 5);
    let (_, sequential, _) = serve_renamings(&d, 1);
    for round in 0..100 {
        let (counts, seen, _) = serve_renamings(&d, 8);
        assert_eq!(counts, (7, 1), "round {round}");
        assert_eq!(seen, sequential, "round {round}");
    }
}
