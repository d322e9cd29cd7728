//! The decomposed tier through the oracle harness (`harness/mod.rs`):
//! `DecomposedPlan` at every root of the reduced decomposition, at the
//! exact treewidth, returns the oracle's rows on cyclic templates
//! (cycles, wheels, `K₄`, double triangles) and on random digraph
//! bodies of any treewidth.

mod harness;

use cqapx_cq::eval::eval_naive;
use harness::{check_decomposed, check_oracle, database, random_body, template};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Templates: `eval_naive` agrees with homomorphisms by definition
    /// and the naive plan, and every root with it.
    #[test]
    fn decomposed_agrees_on_templates(q in template(), d in database()) {
        let expected = check_oracle(&q, &d);
        check_decomposed(&q, &d, &expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random bodies: every root. (The oracle and
    /// the acyclic tier on this family are
    /// `tests/proptest_invariants.rs`'s.)
    #[test]
    fn decomposed_agrees_on_random_queries(q in random_body(), d in database()) {
        check_decomposed(&q, &d, &eval_naive(&q, &d));
    }
}
