//! The multiway-join kernel through the oracle harness
//! (`harness/mod.rs`): every multi-part bag of every tree-tier plan —
//! the decomposed tier at every root — and every `Op::MultiJoin` a run
//! reaches equal the reference join
//! (`cqapx_bench::reference`) byte for byte, on cyclic templates and on
//! random digraph bodies, over uniform databases and over Zipf or
//! hub-skewed ones, where a few hubs hold most edges. The sweeps that
//! price the kernel — every numbering of a cycle, wide nodes — are
//! `oracle.rs`'s.

mod harness;

use harness::{check_kernels, database_of, random_body, template, ANY_GAP, SKEWED, UNIFORM};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cyclic templates over uniform databases.
    #[test]
    fn wcoj_agrees_on_cyclic_templates(q in template(), d in database_of(UNIFORM, ANY_GAP)) {
        check_kernels(&q, &d);
    }

    /// Cyclic templates over skewed databases.
    #[test]
    fn wcoj_agrees_on_skewed_databases(q in template(), d in database_of(SKEWED, ANY_GAP)) {
        check_kernels(&q, &d);
    }

    /// Random bodies over uniform databases.
    #[test]
    fn wcoj_agrees_on_random_queries(q in random_body(), d in database_of(UNIFORM, ANY_GAP)) {
        check_kernels(&q, &d);
    }

    /// Random bodies over skewed databases.
    #[test]
    fn wcoj_agrees_on_random_queries_skewed(
        q in random_body(),
        d in database_of(SKEWED, ANY_GAP),
    ) {
        check_kernels(&q, &d);
    }
}
