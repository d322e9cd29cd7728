//! Property-based tests of the core invariants, on random digraph
//! queries: quotients, cores, containment, the approximation contract,
//! the trichotomy and renaming. Then, on the evaluation oracle harness
//! (`crates/bench/tests/harness/mod.rs`), the random-body family's
//! oracle, acyclic tier and engine, and engine batches under a starved
//! cache.

#[path = "../crates/bench/tests/harness/mod.rs"]
mod harness;

use cq_approx::prelude::*;
use cqapx_core::{walk_approximations_tableaux, ApproxReport};
use cqapx_cq::eval::naive::eval_naive;
use cqapx_structures::{
    core_of, hom_exists, iso::isomorphic_pointed, order, partition::for_each_partition,
    quotient::quotient_pointed,
};
use harness::{
    check_acyclic, check_engine, check_oracle, database, database_of, random_body, serve_batches,
    ANY_KIND, THREADS,
};
use proptest::prelude::*;
use std::ops::ControlFlow;

/// Strategy: a random small digraph (as edge list over n nodes) whose
/// every node is used (resampled via active-domain restriction).
fn digraph_structure(max_n: usize) -> impl Strategy<Value = Structure> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..=(2 * n))
            .prop_map(move |edges| {
                let s = Structure::digraph(n, &edges);
                let (s, _) = s.restrict_to_adom();
                s
            })
            .prop_filter("needs at least one tuple", |s| !s.is_relations_empty())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quotient projections are homomorphisms; hom-composition works.
    #[test]
    fn quotients_are_homomorphic_images(s in digraph_structure(6)) {
        let p = Pointed::boolean(s);
        let n = p.structure.universe_size();
        for_each_partition(n, |part| {
            let (q, h) = quotient_pointed(&p, part);
            assert!(h.verify(&p.structure, &q.structure));
            // T_Q → quotient, always.
            assert!(hom_exists(&p, &q));
            ControlFlow::Continue(())
        });
    }

    /// The core is hom-equivalent to the original and idempotent.
    #[test]
    fn core_equivalent_and_idempotent(s in digraph_structure(7)) {
        let p = Pointed::boolean(s);
        let r = core_of(&p);
        prop_assert!(hom_exists(&p, &r.core));
        prop_assert!(hom_exists(&r.core, &p));
        let r2 = core_of(&r.core);
        prop_assert_eq!(r2.iterations, 0);
    }

    /// Containment duality: Q ⊆ Q' iff the canonical database of Q
    /// satisfies Q' at x̄ — here specialized to Boolean queries:
    /// Q ⊆ Q' iff Q'(T_Q) is true.
    #[test]
    fn containment_matches_canonical_database(
        s1 in digraph_structure(5),
        s2 in digraph_structure(5),
    ) {
        let q1 = query_from_tableau(&Pointed::boolean(s1));
        let q2 = query_from_tableau(&Pointed::boolean(s2));
        let canonical_of_q1 = tableau_of(&q1).structure;
        let q2_true_on_canon = !eval_naive(&q2, &canonical_of_q1).is_empty();
        prop_assert_eq!(contained_in(&q1, &q2), q2_true_on_canon);
    }

    /// Approximations: soundness + class membership + →-minimality among
    /// the in-class quotients.
    #[test]
    fn approximation_contract(s in digraph_structure(5)) {
        let q = query_from_tableau(&Pointed::boolean(s));
        let opts = ApproxOptions::default();
        let rep = all_approximations(&q, &TwK(1), &opts);
        prop_assert!(rep.complete);
        prop_assert!(!rep.approximations.is_empty());
        let tq = tableau_of(&q);
        for a in &rep.approximations {
            prop_assert!(contained_in(a, &q));
            prop_assert!(TwK(1).contains_tableau(&tableau_of(a)));
            // No in-class quotient strictly between T_Q and the
            // approximation.
            let ta = tableau_of(a);
            let n = tq.structure.universe_size();
            for_each_partition(n, |part| {
                let (cand, _) = quotient_pointed(&tq, part);
                if TwK(1).contains_tableau(&cand) {
                    let strictly_between = order::hom_exists(&cand, &ta)
                        && !order::hom_exists(&ta, &cand);
                    assert!(!strictly_between, "quotient strictly between");
                }
                ControlFlow::Continue(())
            });
        }
    }

    /// Theorem 5.1 consistency: the polynomial classifier predicts the
    /// acyclic approximations the walk computes (the search itself
    /// answers the first two cases from the same decision).
    #[test]
    fn trichotomy_consistent(s in digraph_structure(5)) {
        let t = Pointed::boolean(s);
        let q = query_from_tableau(&t);
        let (tableaux, meta) = walk_approximations_tableaux(&t, &TwK(1), &ApproxOptions::default());
        let rep = ApproxReport::from_tableaux(tableaux, meta);
        match classify_boolean_graph_query(&q) {
            BooleanTrichotomy::NotBipartite => {
                prop_assert_eq!(rep.approximations.len(), 1);
                prop_assert_eq!(rep.approximations[0].atom_count(), 1);
            }
            BooleanTrichotomy::BipartiteUnbalanced => {
                prop_assert_eq!(rep.approximations.len(), 1);
                let k2 = parse_cq("Q() :- E(x,y), E(y,x)").unwrap();
                prop_assert!(equivalent(&rep.approximations[0], &k2));
            }
            BooleanTrichotomy::BipartiteBalanced => {
                for a in &rep.approximations {
                    for atom in a.atoms() {
                        prop_assert_ne!(atom.args[0], atom.args[1]);
                    }
                }
            }
        }
    }

    /// The search does not depend on how the query is written: renaming
    /// the variables and reordering the atoms (which changes the order
    /// the partition walk meets its candidates in) gives the same
    /// approximations up to isomorphism. And a `TW(k)`-approximation is
    /// the core of a quotient, so it has at most `|vars(Q)|` variables.
    #[test]
    fn approximations_invariant_under_renaming_and_atom_order(
        s in digraph_structure(6),
        n_free in 0..3usize,
        var_keys in proptest::collection::vec(any::<u32>(), 6),
        atom_keys in proptest::collection::vec(any::<u32>(), 12),
    ) {
        let n = s.universe_size();
        let q = query_from_tableau(&Pointed::new(s, (0..n_free.min(n) as u32).collect()));
        // `rename[v]`: the rank of `v`'s key; atoms sorted by theirs.
        let mut by_key: Vec<usize> = (0..n).collect();
        by_key.sort_by_key(|&v| var_keys[v]);
        let mut rename = vec![0u32; n];
        for (rank, &v) in by_key.iter().enumerate() {
            rename[v] = rank as u32;
        }
        let mut atoms: Vec<(u32, (cqapx_structures::RelId, Vec<u32>))> = q
            .atoms()
            .zip(&atom_keys)
            .map(|(a, &key)| {
                let args = a.args.iter().map(|&v| rename[v as usize]).collect();
                (key, (a.rel, args))
            })
            .collect();
        atoms.sort_by_key(|(key, _)| *key);
        let rewritten = ConjunctiveQuery::new(
            q.vocabulary().clone(),
            (0..n).map(|v| format!("w{v}")),
            q.free_vars().iter().map(|&v| rename[v as usize]).collect(),
            atoms.into_iter().map(|(_, a)| a),
        );
        let opts = ApproxOptions::default();
        for k in [1, 2] {
            let a = all_approximations(&q, &TwK(k), &opts);
            let b = all_approximations(&rewritten, &TwK(k), &opts);
            prop_assert_eq!(a.tableaux.len(), b.tableaux.len());
            for ta in &a.tableaux {
                prop_assert!(ta.structure.universe_size() <= n);
                prop_assert!(b.tableaux.iter().any(|tb| isomorphic_pointed(ta, tb)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random bodies: `eval_naive` agrees with homomorphisms by
    /// definition and the naive plan, and Yannakakis, whenever the body is
    /// acyclic, returns its rows — uncached, cold and warm, full and
    /// Boolean.
    #[test]
    fn yannakakis_equals_naive(q in random_body(), d in database()) {
        let expected = check_oracle(&q, &d);
        check_acyclic(&q, &d, &expected);
    }

    /// The engine's chosen plan returns the oracle's rows, cold, warm
    /// and again, on the query and on its Boolean version, with
    /// unbounded and with starved caches, over dense databases.
    #[test]
    fn engine_plan_matches_naive_and_yannakakis(
        q in random_body(),
        d in database_of(ANY_KIND, 1..=1),
    ) {
        check_engine(&q, &d, &eval_naive(&q, &d));
    }

    /// The same over databases re-spaced into a larger universe, whose
    /// domain dictionary is not the identity.
    #[test]
    fn dense_encoding_agrees_with_hashed_and_naive(
        q in random_body(),
        d in database_of(ANY_KIND, 2..=3),
    ) {
        check_engine(&q, &d, &eval_naive(&q, &d));
    }

    /// A starvation-level cache budget only costs rebuilds, never
    /// answers: batches at 1, 2 and 8 threads with both caches at one
    /// byte return the oracle's answers and hold at most one byte. A
    /// concurrent request can only coalesce onto a flight another one
    /// started, so no schedule looks the cache up (hits + misses) more
    /// often than the sequential run.
    #[test]
    fn tiny_cache_budget_is_correct_and_schedule_independent(
        d in database(),
        dup in 2..4usize,
    ) {
        let snaps = serve_batches(&d, 1, dup);
        let lookups = |i: usize| snaps[i].counters.mat_hits + snaps[i].counters.mat_misses;
        for (i, threads) in THREADS.into_iter().enumerate() {
            let resident = snaps[i].mat_cache_bytes_by_db["d"];
            prop_assert!(resident <= 1, "{} bytes held at {} threads", resident, threads);
            prop_assert!(
                lookups(i) <= lookups(0),
                "{} lookups at {} threads, {} sequentially", lookups(i), threads, lookups(0)
            );
        }
    }
}
