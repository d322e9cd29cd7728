//! Property-based tests of the core invariants, on random digraph
//! queries.

use cq_approx::prelude::*;
use cqapx_cq::eval::naive::eval_naive;
use cqapx_structures::{
    core_of, hom_exists, iso::isomorphic_pointed, order, partition::for_each_partition,
    quotient::quotient_pointed,
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

    /// Yannakakis agrees with naive evaluation on random acyclic queries
    /// (generated as random forests of atoms) and random databases.
    #[test]
    fn yannakakis_equals_naive(
        s in digraph_structure(5),
        db in digraph_structure(8),
    ) {
        let q = query_from_tableau(&Pointed::boolean(s));
        if let Ok(plan) = AcyclicPlan::compile(&q) {
            let exact = eval_naive(&q, &db);
            prop_assert_eq!(plan.eval(&db), exact);
        }
    }

    /// Differential evaluation: naive, Yannakakis (when acyclic), and
    /// the engine's chosen plan return identical answer sets — Boolean
    /// and unary-head variants.
    #[test]
    fn engine_plan_matches_naive_and_yannakakis(
        s in digraph_structure(5),
        db in digraph_structure(7),
    ) {
        use cqapx_engine::{Engine, EngineConfig, Request};

        // Boolean and unary-head variants of the same random body.
        let queries = [
            query_from_tableau(&Pointed::boolean(s.clone())),
            query_from_tableau(&Pointed::new(s, vec![0])),
        ];
        let engine = Engine::new(EngineConfig::default());
        let d = engine.register_database("db", db.clone());
        for (i, q) in queries.into_iter().enumerate() {
            let exact = eval_naive(&q, &db);
            if let Ok(plan) = AcyclicPlan::compile(&q) {
                prop_assert_eq!(plan.eval(&db), exact.clone());
            }
            let qid = engine.prepare_query(format!("q{i}"), q);
            let r = engine.execute(&Request::new(qid, d));
            prop_assert_eq!(r.answers, exact);
        }
    }

    /// Differential evaluation under a forced approximation sandwich:
    /// exact mode must still produce the exact answers, and certain-only
    /// mode a sound subset.
    #[test]
    fn engine_sandwich_is_sound_and_exact_on_demand(
        s in digraph_structure(4),
        db in digraph_structure(7),
    ) {
        use cqapx_engine::{Engine, EngineConfig, EvalMode, Request};

        let q = query_from_tableau(&Pointed::boolean(s));
        let exact = eval_naive(&q, &db);
        let engine = Engine::new(EngineConfig {
            naive_cost_budget: 0.0, // every cyclic query goes sandwich
            ..EngineConfig::default()
        });
        let d = engine.register_database("db", db.clone());
        let qid = engine.prepare_query("q", q);
        let r = engine.execute(&Request::new(qid, d));
        prop_assert_eq!(r.answers, exact.clone());
        let certain = engine.execute(&Request {
            query: qid,
            db: d,
            mode: EvalMode::CertainOnly,
            timeout: None,
        });
        for a in &certain.answers {
            prop_assert!(exact.contains(a.as_slice()), "certain answer {:?} not in Q(D)", a);
        }
    }

    /// Dense-domain dictionary encoding is invisible: engine evaluation
    /// over the dictionary's codes and naive evaluation over the raw
    /// elements agree — cold and warm, Boolean and unary heads,
    /// sequential and parallel thread budgets.
    #[test]
    fn dense_encoding_agrees_with_hashed_and_naive(
        s in digraph_structure(5),
        db in digraph_structure(8),
    ) {
        use cqapx_engine::{Engine, EngineConfig, Request};

        let queries = [
            query_from_tableau(&Pointed::boolean(s.clone())),
            query_from_tableau(&Pointed::new(s, vec![0])),
        ];
        let exact: Vec<_> = queries.iter().map(|q| eval_naive(q, &db)).collect();
        for threads in [1usize, 2] {
            let engine = Engine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            let d = engine.register_database("db", db.clone());
            for (i, q) in queries.iter().enumerate() {
                let qid = engine.prepare_query(format!("q{i}"), q.clone());
                let cold = engine.execute(&Request::new(qid, d));
                let warm = engine.execute(&Request::new(qid, d));
                prop_assert_eq!(&cold.answers, &exact[i], "cold, threads={}", threads);
                prop_assert_eq!(&warm.answers, &exact[i], "warm, threads={}", threads);
            }
        }
    }

    /// A starvation-level cache budget only costs rebuilds, never
    /// answers: every response matches naive evaluation, resident bytes
    /// stay bounded, and the materialization traffic (hits + misses) of
    /// a parallel schedule never exceeds the sequential rebuild count.
    /// (Exact equality does not hold under starvation: a concurrent
    /// request can coalesce onto a still-in-flight or not-yet-evicted
    /// source entry and skip that source's per-part lookups, whereas
    /// the sequential engine re-misses after every synchronous eviction
    /// and redoes them — coalescing can only remove calls, never add.)
    #[test]
    fn tiny_cache_budget_is_correct_and_schedule_independent(
        s in digraph_structure(5),
        db in digraph_structure(8),
    ) {
        use cqapx_engine::{Engine, EngineConfig, Request};

        let q = query_from_tableau(&Pointed::boolean(s));
        let exact = eval_naive(&q, &db);
        let mut outcomes = Vec::new();
        for threads in [1usize, 4] {
            let engine = Engine::new(EngineConfig {
                threads,
                mat_cache_budget_bytes: Some(1), // every landing evicts
                approx_cache_budget_bytes: Some(1),
                ..EngineConfig::default()
            });
            let d = engine.register_database("db", db.clone());
            let qid = engine.prepare_query("q", q.clone());
            for _ in 0..3 {
                let r = engine.execute(&Request::new(qid, d));
                prop_assert_eq!(&r.answers, &exact, "threads={}", threads);
            }
            let snap = engine.snapshot();
            prop_assert!(snap.mat_cache_bytes_by_db["db"] <= 1);
            let stats = engine.stats();
            outcomes.push(stats.mat_hits + stats.mat_misses);
        }
        prop_assert!(
            outcomes[1] <= outcomes[0],
            "parallel traffic {} exceeds sequential rebuild count {}",
            outcomes[1],
            outcomes[0]
        );
    }

    /// Theorem 5.1 consistency: the polynomial classifier predicts the
    /// computed acyclic approximations.
    #[test]
    fn trichotomy_consistent(s in digraph_structure(5)) {
        let q = query_from_tableau(&Pointed::boolean(s));
        let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
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
        let mut atoms: Vec<(u32, cqapx_cq::Atom)> = q
            .atoms()
            .iter()
            .zip(&atom_keys)
            .map(|(a, &key)| {
                let args = a.args.iter().map(|&v| rename[v as usize]).collect();
                (key, cqapx_cq::Atom { rel: a.rel, args })
            })
            .collect();
        atoms.sort_by_key(|(key, _)| *key);
        let rewritten = ConjunctiveQuery::new(
            q.vocabulary().clone(),
            (0..n).map(|v| format!("w{v}")).collect(),
            q.free_vars().iter().map(|&v| rename[v as usize]).collect(),
            atoms.into_iter().map(|(_, a)| a).collect(),
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
