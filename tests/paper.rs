//! The paper's results on the instances of its figures, checked as counts
//! and verdicts, never as clocks.
//!
//! The README's table "The paper's results, as tests" names these tests
//! next to the crates' own tests, which check the rest.

use cqapx_bench::workloads::{cycle_query, fig1_suite, graph_query, random_relation_db};
use cqapx_core::classes::ClassKind;
use cqapx_core::{
    all_approximations, classify_boolean_graph_query, is_approximation, trichotomy,
    trivial_bipartite_query, trivial_k_query, trivial_query, walk_approximations_tableaux, Acyclic,
    ApproxOptions, ApproxReport, BooleanTrichotomy, HtwK, QueryClass, TwK,
};
use cqapx_cq::{contained_in, equivalent, query_from_tableau, tableau_of, ConjunctiveQuery};
use cqapx_gadgets::paper_examples::{
    intro_q2, intro_q2_approx, nonboolean_triangle, prop_5_9_query,
};
use cqapx_gadgets::{decision, prop44, tight};
use cqapx_graphs::{coloring, generators, Digraph};
use cqapx_structures::partition::bell;
use cqapx_structures::{HomSolver, Pointed};

/// The walk's report on `q` in `class`: the search without §5's
/// decision, which would otherwise answer the classifier's cases itself.
fn walk(q: &ConjunctiveQuery, class: &QueryClass) -> ApproxReport {
    let (tableaux, meta) =
        walk_approximations_tableaux(&tableau_of(q), class, &ApproxOptions::default());
    ApproxReport::from_tableaux(tableaux, meta)
}

/// Theorem 5.1's prediction for the `TW(1)`-approximations of a Boolean
/// graph query, against the walk: only `Q^triv` when `T_Q` is not
/// bipartite, only `Q^triv₂` when it is bipartite but unbalanced, and
/// loop-free approximations when it is balanced.
fn trichotomy_agrees(q: &ConjunctiveQuery) -> bool {
    let rep = walk(q, &TwK(1));
    match classify_boolean_graph_query(q) {
        BooleanTrichotomy::NotBipartite => {
            rep.approximations.len() == 1 && rep.approximations[0].atom_count() == 1
        }
        BooleanTrichotomy::BipartiteUnbalanced => {
            rep.approximations.len() == 1
                && equivalent(&rep.approximations[0], &trivial_bipartite_query())
        }
        BooleanTrichotomy::BipartiteBalanced => rep
            .approximations
            .iter()
            .all(|a| a.atoms().all(|at| at.args[0] != at.args[1])),
    }
}

/// Figure 1 (Corollaries 4.2 and 6.5, Theorem 4.1): every query of the
/// suite has an approximation in each of `TW(1)`, `TW(2)`, `AC` and
/// `HTW(2)`; each one is in its class and contained in `Q`; a graph-based
/// class's approximations are cores of quotients, so they have at most
/// `|vars(Q)|` variables. The counts are the number of approximations up
/// to equivalence, which the paper's definition fixes.
#[test]
fn fig1_every_query_has_sound_in_class_approximations() {
    // Approximation counts per query, in class order TW(1), TW(2), AC, HTW(2).
    let expected: [(&str, [usize; 4]); 8] = [
        ("triangle C3", [1, 1, 1, 1]),
        ("directed C4", [1, 1, 1, 1]),
        ("directed C6", [1, 1, 1, 1]),
        ("intro Q2 (balanced)", [1, 1, 1, 1]),
        ("tight G3", [1, 1, 1, 1]),
        ("ternary cycle (Ex 6.6)", [1, 1, 3, 1]),
        ("ternary triangle (intro)", [1, 1, 3, 1]),
        ("free-variable triangle", [2, 1, 2, 1]),
    ];
    let classes = [TwK(1), TwK(2), Acyclic, HtwK(2)];
    let suite = fig1_suite();
    assert_eq!(suite.len(), expected.len());
    for ((name, q), (want_name, counts)) in suite.iter().zip(expected) {
        assert_eq!(*name, want_name);
        for (class, count) in classes.iter().zip(counts) {
            let ctx = format!("{name} into {}", class.name());
            let rep = all_approximations(q, class, &ApproxOptions::default());
            assert!(rep.complete, "{ctx}: search complete");
            assert_eq!(rep.approximations.len(), count, "{ctx}: approximations");
            for a in &rep.approximations {
                assert!(
                    class.contains_tableau(&tableau_of(a)),
                    "{ctx}: {a} in class"
                );
                assert!(contained_in(a, q), "{ctx}: {a} ⊆ Q");
                if class.kind() == ClassKind::SubgraphClosed {
                    assert!(a.var_count() <= q.var_count(), "{ctx}: |{a}| ≤ |Q|");
                }
            }
        }
    }
}

/// Figure 2: the introduction's `Q₂` has exactly one acyclic
/// approximation, the path `P₄`, found among at most Bell(8) partitions.
/// Theorem 5.1 and Corollary 5.3 on six cyclic queries: the polynomial classifier's
/// verdict, and the join counts of `Q` and of each approximation.
#[test]
fn fig2_and_trichotomy_run() {
    let q2 = intro_q2();
    let rep = all_approximations(&q2, &TwK(1), &ApproxOptions::default());
    assert!(rep.complete);
    assert!(rep.partitions <= bell(q2.var_count()));
    assert_eq!(rep.approximations.len(), 1);
    assert!(equivalent(&rep.approximations[0], &intro_q2_approx()));

    use BooleanTrichotomy::*;
    let suite = [
        ("C3", cycle_query(3), NotBipartite, 2, 0),
        ("C5", cycle_query(5), NotBipartite, 4, 0),
        ("C4", cycle_query(4), BipartiteUnbalanced, 3, 1),
        ("C6", cycle_query(6), BipartiteUnbalanced, 5, 1),
        ("Q2", intro_q2(), BipartiteBalanced, 7, 3),
        ("G3", graph_query(&tight::g_k(3)), BipartiteBalanced, 7, 3),
    ];
    for (name, q, class, joins, approx_joins) in suite {
        assert_eq!(classify_boolean_graph_query(&q), class, "{name}");
        assert_eq!(q.join_count(), joins, "{name}");
        let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
        let got: Vec<usize> = rep.approximations.iter().map(|a| a.join_count()).collect();
        assert_eq!(got, [approx_joins], "{name}: joins of its approximations");
    }
}

/// Theorem 5.8 (the non-Boolean triangle's tableau is not bipartite, so
/// every acyclic approximation has a loop atom) and Proposition 5.9 (with
/// free variables the join count need not drop).
#[test]
fn nonboolean_runs() {
    let tri = nonboolean_triangle();
    let rep = all_approximations(&tri, &TwK(1), &ApproxOptions::default());
    assert!(!rep.approximations.is_empty());
    for a in &rep.approximations {
        assert!(
            a.atoms().any(|at| at.args[0] == at.args[1]),
            "Theorem 5.8: {a} has a loop atom"
        );
    }
    let p59 = prop_5_9_query();
    let rep = all_approximations(&p59, &TwK(1), &ApproxOptions::default());
    assert!(!rep.approximations.is_empty());
    for a in &rep.approximations {
        assert_eq!(a.join_count(), p59.join_count(), "Proposition 5.9: {a}");
    }
}

/// Theorem 5.1's prediction agrees with the search on C3–C6.
#[test]
fn cross_check_helper() {
    for k in 3..=6 {
        assert!(trichotomy_agrees(&cycle_query(k)), "C{k}");
    }
}

/// Proposition 4.4 for n = 1..3: the 2ⁿ folds `G_n^s` are pairwise
/// incomparable and `G_n` maps to each, so `Q_n` has at least 2ⁿ
/// non-equivalent `TW(1)`-approximations (eight at n = 3).
#[test]
fn prop_4_4_folds_incomparable_and_receive_g_n() {
    for n in 1..=3 {
        let folds: Vec<_> = prop44::all_words(n)
            .iter()
            .map(|w| prop44::g_n_s(w).to_structure())
            .collect();
        assert_eq!(folds.len(), 1 << n);
        for (i, a) in folds.iter().enumerate() {
            for (j, b) in folds.iter().enumerate() {
                if i != j {
                    assert!(
                        !HomSolver::compile(a).run(b).exists(),
                        "n = {n}: fold {i} ↛ fold {j}"
                    );
                }
            }
        }
        let g_n = prop44::g_n(n).0.to_structure();
        for (i, f) in folds.iter().enumerate() {
            assert!(HomSolver::compile(&g_n).run(f).exists(), "G_{n} → fold {i}");
        }
    }
}

/// Proposition 5.6 at k = 7 and 8: `G_k → P_{k+1}` and `G_k ↛ P_k`.
#[test]
fn prop_5_6_tight_at_k7_and_k8() {
    for k in [7, 8] {
        let g = HomSolver::compile(&tight::g_k(k).to_structure());
        let longer = Digraph::directed_path(k + 1).to_structure();
        let shorter = Digraph::directed_path(k).to_structure();
        assert!(g.run(&longer).exists(), "G_{k} → P_{}", k + 1);
        assert!(!g.run(&shorter).exists(), "G_{k} ↛ P_{k}");
    }
}

/// Corollary 5.11 on W5, W6, K4 and C5 for k = 1..3: the walk finds a
/// `TW(k)`-approximation other than `Q^triv` exactly when the tableau is
/// `(k+1)`-colorable, and the decision form agrees.
#[test]
fn cor_5_11_nontrivial_iff_colorable() {
    let trivial = trivial_query(&cqapx_structures::Vocabulary::graphs(), 0);
    for (name, g, chi) in [
        ("W5", generators::wheel(5), 4),
        ("W6", generators::wheel(6), 3),
        ("K4", generators::complete_digraph(4), 4),
        ("C5", Digraph::cycle(5), 3),
    ] {
        assert_eq!(coloring::chromatic_number(&g), chi, "χ({name})");
        let q = graph_query(&g);
        for k in 1..=3 {
            let colorable = k + 1 >= chi;
            let rep = walk(&q, &TwK(k));
            let nontrivial = rep.approximations.iter().any(|a| !equivalent(a, &trivial));
            assert_eq!(nontrivial, colorable, "{name}, TW({k})");
            assert_eq!(
                trichotomy::has_nontrivial_twk_approximation(&q, k),
                colorable,
                "{name}, k = {k}"
            );
        }
    }
}

/// Proposition 5.12's reduction `G ↦ G^↔ + K⃗₃` at k = 2: `Q^triv₃` is a
/// `TW(2)`-approximation of the instance iff `G` is 3-colorable.
#[test]
fn prop_5_12_reduction_instances() {
    let triangle = [(0, 1), (1, 2), (2, 0)];
    let k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    for (name, edges, n, expect) in [
        ("triangle", &triangle[..], 3, true),
        ("K4", &k4[..], 4, false),
    ] {
        let s = decision::prop_5_12_instance(edges, n, 2);
        let q = query_from_tableau(&Pointed::boolean(s));
        let verdict = is_approximation(&q, &trivial_k_query(2), &TwK(2), &ApproxOptions::default());
        assert_eq!(verdict, Some(expect), "G = {name}");
    }
}

/// Claim 6.2's size bound for a ternary vocabulary: every acyclic
/// approximation of an n-variable query has at most `n + 4n²` variables,
/// on four random ternary queries. The approximations themselves are
/// fixed up to equivalence, so their number and sizes are checked too.
#[test]
fn claim_6_2_size_bound_on_random_ternary_queries() {
    // Per seed: the variable counts of the approximations, ascending.
    let expected: [&[usize]; 4] = [&[3, 3, 3, 3], &[3, 3, 3, 3], &[3], &[5]];
    for (seed, want) in (0..).zip(expected) {
        let (s, _) = random_relation_db(5, 3, 5, seed).restrict_to_adom();
        let q = query_from_tableau(&Pointed::boolean(s));
        let n = q.var_count();
        let rep = all_approximations(&q, &Acyclic, &ApproxOptions::default());
        assert!(rep.complete, "seed {seed}");
        let mut sizes: Vec<usize> = rep.approximations.iter().map(|a| a.var_count()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, want, "seed {seed}: {q}");
        assert!(sizes.iter().all(|&v| v <= n + 4 * n * n), "seed {seed}");
    }
}

/// Theorem 4.12's decision problems on small instances: `K⃗₂` is an acyclic
/// approximation of every even cycle C_2k (k = 2..4), and `G_3` maps onto
/// every edge of `P₄` (Exact Acyclic Homomorphism).
#[test]
fn thm_4_12_decision_procedures() {
    let k2 = Digraph::from_edges(2, &[(0, 1), (1, 0)]);
    for k in 2..=4 {
        let c = Digraph::cycle(2 * k);
        assert_eq!(
            decision::graph_acyclic_approximation(&c, &k2, u64::MAX),
            Some(true),
            "C_{}",
            2 * k
        );
    }
    assert!(decision::exact_acyclic_homomorphism(
        &tight::g_k(3),
        &Digraph::directed_path(4)
    ));
}
