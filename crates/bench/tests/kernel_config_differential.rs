//! The kernel-configuration lattice through the oracle harness
//! (`harness/mod.rs`): every `EvalConfig` — column bitmaps read or not,
//! times packed sorts `Auto`, `On` or `Off` — is a value on the compiled
//! plan, so one process runs them side by side, split into two axes
//! against the default: probe-only points (the `*_bitmap_equals_probe`
//! tests) and forced packed points (the `*_packed_equals_unpacked`
//! tests). On forests and on cyclic templates both tree tiers — the
//! decomposed one at every root — return the oracle's rows in its order
//! at each point, uncached, cold and warm, full and Boolean, and leave
//! the cache with the default's hits, misses and resident bytes.

mod harness;

use cqapx_cq::eval::eval_naive;
use harness::{check_tiers, database, forest, packed_axis, probe_axis, template};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forests whose plans never read bitmaps ≡ the default's.
    #[test]
    fn acyclic_bitmap_equals_probe(q in forest(), d in database()) {
        check_tiers(&q, &d, &eval_naive(&q, &d), probe_axis);
    }

    /// Cyclic templates whose plans never read bitmaps ≡ the default's.
    #[test]
    fn cyclic_bitmap_equals_probe(q in template(), d in database()) {
        check_tiers(&q, &d, &eval_naive(&q, &d), probe_axis);
    }

    /// Forests with packed sorts forced on or off ≡ the default's.
    #[test]
    fn acyclic_packed_equals_unpacked(q in forest(), d in database()) {
        check_tiers(&q, &d, &eval_naive(&q, &d), packed_axis);
    }

    /// Cyclic templates with packed sorts forced on or off ≡ the
    /// default's.
    #[test]
    fn cyclic_packed_equals_unpacked(q in template(), d in database()) {
        check_tiers(&q, &d, &eval_naive(&q, &d), packed_axis);
    }
}
