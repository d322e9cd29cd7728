//! The forest family — random acyclic queries with reversed twins,
//! duplicates and loops — through the oracle harness
//! (`harness/mod.rs`): the oracle triangulated by homomorphisms by
//! definition, the kernel against the reference join, and the engine's
//! cached path. The tree tiers' answers on the same family, with the
//! kernel arm that ran, are `kernel_config_differential.rs`'s.

mod harness;

use cqapx_cq::eval::eval_naive;
use harness::{check_engine, check_kernels, check_oracle, database, forest};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `eval_naive` agrees with homomorphisms by definition and the naive
    /// plan, and every bag and join op of both tree tiers with the
    /// reference join.
    #[test]
    fn kernel_agrees_with_frozen_baseline(q in forest(), d in database()) {
        check_oracle(&q, &d);
        check_kernels(&q, &d);
    }

    /// The engine, cold, warm and once more, on the query and on its
    /// Boolean version, with unbounded caches and with both starved to
    /// one byte: caching changes no answer.
    #[test]
    fn cached_eval_is_transparent(q in forest(), d in database()) {
        check_engine(&q, &d, &eval_naive(&q, &d));
    }
}
