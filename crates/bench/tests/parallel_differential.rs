//! The engine's thread count against its accounting, through the oracle
//! harness (`harness/mod.rs`): batches spread over 1, 2 or 8 workers
//! return the oracle's answers, and single-flight materialization makes
//! the accounting independent of the schedule. The starved-cache
//! variant is `tests/proptest_invariants.rs`'s.

mod harness;

use cqapx_engine::{EngineStats, StatsSnapshot};
use harness::{database, serve_batches, THREADS};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every `EngineStats` counter but `busy` (wall time varies) is the
    /// sequential run's.
    #[test]
    fn engine_batch_stats_identical_across_thread_counts(d in database(), dup in 2..4usize) {
        let counters = |s: &StatsSnapshot| {
            format!("{:?}", EngineStats { busy: Duration::ZERO, ..s.counters.clone() })
        };
        let snaps = serve_batches(&d, 0, dup);
        for (snap, threads) in snaps.iter().zip(THREADS).skip(1) {
            prop_assert_eq!(counters(&snaps[0]), counters(snap), "at {} threads", threads);
        }
    }

    /// The per-class and per-database histogram counts (latencies vary)
    /// and the per-database cache counters are the sequential run's:
    /// every request is recorded exactly once, whatever schedules it.
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
        for (snap, threads) in snaps.iter().zip(THREADS).skip(1) {
            prop_assert_eq!(accounting(&snaps[0]), accounting(snap), "at {} threads", threads);
        }
    }
}
