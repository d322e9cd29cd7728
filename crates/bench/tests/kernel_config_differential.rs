//! The kernel's arms through the oracle harness (`harness/mod.rs`). The
//! kernel has no configuration: a one-column semijoin reads a column
//! bitmap whenever the source is eligible, and rows that pack into one
//! word are radix-sorted at any size. These tests pin which arm runs,
//! from a run's `MatCacheStats`, while both tree tiers — the decomposed
//! one at every root — return the oracle's rows in its order, uncached,
//! cold and warm, full and Boolean:
//! - the `*_bitmap_equals_probe` tests run each query on its database
//!   and on a copy padded until no relation is bitmap-eligible: the
//!   padded runs read no bitmap, and the dense ones read one whenever
//!   the plan semijoins on one column and the answer is nonempty;
//! - the `*_packed_equals_unpacked` tests count a radix sort whenever a
//!   scan needs sorting, though no database has more than 96 edges:
//!   small sorts run on words too.

mod harness;

use cqapx_cq::eval::eval_naive;
use cqapx_cq::ConjunctiveQuery;
use cqapx_structures::Structure;
use harness::{
    bitmap_ineligible, check_tiers, database, forest, kernel_stats, scans_unsorted, template,
};
use proptest::prelude::*;

/// The tiers on `d` and on its padded copy: the oracle's rows on both,
/// no bitmap read on the padded one, and one read on `d` by every plan
/// that semijoins on one column toward a nonempty answer.
fn bitmaps_when_eligible(q: &ConjunctiveQuery, d: &Structure) {
    let expected = eval_naive(q, d);
    check_tiers(q, d, &expected);
    for (one_column, stats) in kernel_stats(q, d) {
        let reads = one_column && !expected.is_empty();
        assert!(stats.bitmap_probes > 0 || !reads, "no bitmap read, {q}");
    }
    let (pq, pd) = bitmap_ineligible(q, d);
    check_tiers(&pq, &pd, &expected);
    for (_, stats) in kernel_stats(&pq, &pd) {
        assert_eq!(stats.bitmap_probes, 0, "bitmap read when ineligible, {q}");
    }
}

/// The tiers on `d`, and a radix sort in every plan's run whenever a
/// scan of `q` comes out unsorted.
fn radix_at_any_size(q: &ConjunctiveQuery, d: &Structure) {
    check_tiers(q, d, &eval_naive(q, d));
    let sorts = scans_unsorted(q, d);
    for (_, stats) in kernel_stats(q, d) {
        assert!(stats.packed_sorts > 0 || !sorts, "no radix sort, {q}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forests read bitmaps exactly when eligible, with the oracle's
    /// answers either way.
    #[test]
    fn acyclic_bitmap_equals_probe(q in forest(), d in database()) {
        bitmaps_when_eligible(&q, &d);
    }

    /// Cyclic templates read bitmaps exactly when eligible, with the
    /// oracle's answers either way.
    #[test]
    fn cyclic_bitmap_equals_probe(q in template(), d in database()) {
        bitmaps_when_eligible(&q, &d);
    }

    /// Forests sort small scans by radix, with the oracle's answers.
    #[test]
    fn acyclic_packed_equals_unpacked(q in forest(), d in database()) {
        radix_at_any_size(&q, &d);
    }

    /// Cyclic templates sort small scans by radix, with the oracle's
    /// answers.
    #[test]
    fn cyclic_packed_equals_unpacked(q in template(), d in database()) {
        radix_at_any_size(&q, &d);
    }
}
