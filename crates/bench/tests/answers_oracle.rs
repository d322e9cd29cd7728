//! The answer boundary through the oracle harness (`harness/mod.rs`):
//! whichever tier the engine dispatches a cyclic template to, its
//! `Answers` are `Q(D)` exactly — `eval_naive`'s rows as a set and in
//! iteration order, with `contains` agreeing (`assert_is`) — cold, warm
//! and again, on the query and on its Boolean version, with unbounded
//! caches and with both starved to one byte. The boundary's
//! deterministic sweeps (head orders, the packing boundary, the
//! sandwich union) are `oracle.rs`'s.

mod harness;

use cqapx_cq::eval::eval_naive;
use harness::{check_engine, database, template};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Templates, through the engine's choice of tier.
    #[test]
    fn tiers_return_the_oracles_rows_in_order(q in template(), d in database()) {
        check_engine(&q, &d, &eval_naive(&q, &d));
    }
}
