//! Acceptance check for the approximation cache: the second request for
//! an expensive approximation must hit the cache — the very entry the
//! first request computed, with no second search. Checked by counting
//! (pointer identity, hit and miss counters), not by a clock: a timing
//! ratio from one unrepeated miss in an unoptimized test build is noise.

use cqapx_core::{ApproxOptions, TwK};
use cqapx_cq::{parse_cq, tableau_of};
use cqapx_engine::ApproxCache;
use std::sync::Arc;

#[test]
fn cached_approximation_is_10x_faster() {
    // The introduction's Q2: 8 variables, cyclic, with a unique acyclic
    // approximation — the search enumerates Bell(8) = 4140 partitions
    // with treewidth checks, while a cache hit is one signature plus one
    // isomorphism check.
    let q2 =
        parse_cq("Q() :- E(x,y), E(y,z), E(z,u), E(x1,y1), E(y1,z1), E(z1,u1), E(x,z1), E(y,u1)")
            .unwrap();
    let t = tableau_of(&q2);
    let opts = ApproxOptions::default();
    let cache = ApproxCache::new();

    let (first, hit_first) = cache.get_or_compute(&t, &TwK(1), &opts);
    assert!(!hit_first);
    assert_eq!(first.report.approximations.len(), 1);
    assert_eq!((cache.hits(), cache.misses()), (0, 1));

    // A renamed (isomorphic) variant must hit the same entry: the same
    // allocation comes back, one more hit, and no search ran.
    let renamed =
        parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(a1,b1), E(b1,c1), E(c1,d1), E(a,c1), E(b,d1)")
            .unwrap();
    let renamed_tableau = tableau_of(&renamed);
    let (second, hit_second) = cache.get_or_compute(&renamed_tableau, &TwK(1), &opts);
    assert!(hit_second, "isomorphic tableau must hit the cache");
    assert!(
        Arc::ptr_eq(&first, &second),
        "a hit returns the cached entry"
    );
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
}
