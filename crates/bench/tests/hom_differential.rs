//! Differential property tests: the hom engine (`HomSolver`, cached
//! indexes, the streaming antichain) and the pruned approximation search
//! against the oracles written from the definitions
//! (`cqapx_bench::definitions`) on random structures.
//!
//! The engine's speed comes from its indexes, propagation and pruning;
//! its answers must be the definitions': existence verdicts, witness
//! validity under pins, exclusions and injectivity, core size and
//! idempotence, the order filters and the approximations themselves.

use cqapx_bench::definitions::{self, Hom};
use cqapx_core::approx::{in_walk_order, repairs_public};
use cqapx_core::{
    all_approximations_tableaux, is_approximation, walk_approximations_tableaux, Acyclic,
    ApproxCacheKey, ApproxOptions, HtwK, QueryClass, TwK,
};
use cqapx_cq::{parse_cq, parse_cq_with_vocab, query_from_tableau, tableau_of};
use cqapx_structures::iso::isomorphic_pointed;
use cqapx_structures::partition::{bell, for_each_partition};
use cqapx_structures::quotient::quotient_pointed;
use cqapx_structures::{
    core_of, hom_exists, is_core, order, Element, HomSolver, Homomorphism, Partition, Pointed,
    Structure, StructureBuilder, Vocabulary,
};
use proptest::prelude::*;
use proptest::strategy::Just;
use proptest::test_runner::TestRng;
use std::ops::ControlFlow;

/// A random small digraph with an active universe.
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

/// A random small structure over a binary `E` and a ternary `T` (maybe
/// empty) with an active universe, and a head of one or two of its
/// elements.
fn pointed_structure(max_n: usize) -> impl Strategy<Value = Pointed> {
    (2..=max_n).prop_flat_map(move |n| {
        let v = n as u32;
        (
            proptest::collection::vec((0..v, 0..v), 1..=(2 * n)),
            proptest::collection::vec((0..v, 0..v, 0..v), 0..=n),
            proptest::collection::vec(0..v, 1..=2),
        )
            .prop_map(move |(edges, triples, head)| {
                let vocab = Vocabulary::new(vec![("E", 2), ("T", 3)]);
                let (e, t) = (vocab.rel("E").unwrap(), vocab.rel("T").unwrap());
                let mut b = StructureBuilder::new(vocab, n);
                for (x, y) in edges {
                    b.add(e, &[x, y]);
                }
                for (x, y, z) in triples {
                    b.add(t, &[x, y, z]);
                }
                let (s, _) = b.finish().restrict_to_adom();
                let m = s.universe_size() as u32;
                Pointed::new(s, head.iter().map(|&x| x % m).collect())
            })
    })
}

/// The first member of each hom-equivalence class of `family`, by index,
/// each member compiled once: with [`minimal_elements`], the reference
/// the streaming antichain and the repairing search are checked against,
/// itself checked against the definitions (`order_filters_agree`).
fn dedupe_hom_equivalent(family: &[Pointed]) -> Vec<usize> {
    let solvers: Vec<HomSolver> = (family.iter())
        .map(|p| HomSolver::compile(&p.structure))
        .collect();
    let below =
        |i: usize, j: usize| order::hom_exists_compiled(&solvers[i], &family[i], &family[j]);
    let mut kept: Vec<usize> = Vec::new();
    for i in 0..family.len() {
        if !kept.iter().any(|&k| below(i, k) && below(k, i)) {
            kept.push(i);
        }
    }
    kept
}

/// The →-minimal members of `family`, by index (nothing strictly below
/// them in it), from its hom matrix, each member compiled once.
fn minimal_elements(family: &[Pointed]) -> Vec<usize> {
    let n = family.len();
    let below: Vec<Vec<bool>> = (family.iter())
        .map(|a| {
            let solver = HomSolver::compile(&a.structure);
            (family.iter())
                .map(|b| order::hom_exists_compiled(&solver, a, b))
                .collect()
        })
        .collect();
    (0..n)
        .filter(|&i| !(0..n).any(|j| j != i && below[j][i] && !below[i][j]))
        .collect()
}

/// `core_of(p)` against the core by definition: the same size and
/// hom-equivalent (head to head); the retraction a homomorphism onto the
/// core that maps the head onto the core's head; idempotent, and
/// certified a core by the engine and by the definition.
fn check_core(p: &Pointed) {
    let def_core = definitions::core(p);
    let r = core_of(p);
    prop_assert_eq!(
        def_core.structure.universe_size(),
        r.core.structure.universe_size()
    );
    prop_assert!(hom_exists(&r.core, &def_core));
    prop_assert!(hom_exists(&def_core, &r.core));
    let h = Homomorphism {
        map: r.retraction(),
    };
    prop_assert!(h.verify(&p.structure, &r.core.structure));
    let head: Vec<Element> = p.distinguished().iter().map(|&x| h.apply(x)).collect();
    prop_assert_eq!(head.as_slice(), r.core.distinguished());
    let r2 = core_of(&r.core);
    prop_assert_eq!(r2.iterations, 0);
    prop_assert!(is_core(&r.core));
    prop_assert_eq!(&definitions::core(&r.core), &r.core);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Existence verdicts agree with the definition, and every witness
    /// the new engine returns verifies.
    #[test]
    fn existence_and_witnesses_agree(
        a in digraph_structure(5),
        b in digraph_structure(5),
    ) {
        let want = Hom::new(&a, &b).exists();
        let new = HomSolver::compile(&a).run(&b).find();
        prop_assert_eq!(want, new.is_some());
        if let Some(h) = new {
            prop_assert!(h.verify(&a, &b));
        }
        // And through the compiled-solver API.
        let solver = HomSolver::compile(&a);
        prop_assert_eq!(want, solver.run(&b).exists());
    }

    /// Pins, exclusions and injectivity agree with the definition.
    #[test]
    fn constrained_searches_agree(
        a in digraph_structure(4),
        b in digraph_structure(5),
        pin_seed in 0..16u32,
        excl_seed in 0..16u32,
    ) {
        let ps = (pin_seed as usize) % a.universe_size();
        let pt = (pin_seed as usize / 4) % b.universe_size();
        let ex = (excl_seed as usize) % b.universe_size();

        let want = Hom::new(&a, &b)
            .pin(ps as Element, pt as Element)
            .exclude_target(ex as Element)
            .exists();
        let new = HomSolver::compile(&a)
            .run(&b)
            .pin(ps as Element, pt as Element)
            .exclude_target(ex as Element)
            .find();
        prop_assert_eq!(want, new.is_some());
        if let Some(h) = new {
            prop_assert!(h.verify(&a, &b));
            prop_assert_eq!(h.apply(ps as Element), pt as Element);
            prop_assert!(!h.map.contains(&(ex as Element)));
        }

        let want_inj = Hom::new(&a, &b).injective().exists();
        let new_inj = HomSolver::compile(&a).run(&b).injective().find();
        prop_assert_eq!(want_inj, new_inj.is_some());
        if let Some(h) = new_inj {
            prop_assert!(h.verify(&a, &b));
            prop_assert!(!h.is_non_injective());
        }
    }

    /// `core_of` agrees with the core by definition (same size,
    /// hom-equivalent), is idempotent, and its result is certified by both.
    #[test]
    fn cores_agree_and_are_idempotent(s in digraph_structure(6)) {
        check_core(&Pointed::boolean(s));
    }

    /// The same on structures with a head of one or two elements (which
    /// may repeat) over a binary and a ternary relation: the retraction
    /// fixes the head as well.
    #[test]
    fn pinned_cores_agree_and_are_idempotent(p in pointed_structure(6)) {
        check_core(&p);
    }

    /// The streaming antichain keeps exactly the →-minimal first
    /// representatives that dedup-then-minimality keeps, in the same
    /// order and as they were offered, whatever the arrival order evicts
    /// on the way; a minimizing antichain takes the same verdicts and
    /// holds each member's core instead.
    #[test]
    fn antichain_agrees_with_dedupe_then_minimal(
        family in proptest::collection::vec(digraph_structure(4), 2..=7),
    ) {
        let family: Vec<Pointed> = family.into_iter().map(Pointed::boolean).collect();
        let kept = dedupe_hom_equivalent(&family);
        let reps: Vec<Pointed> = kept.iter().map(|&i| family[i].clone()).collect();
        let expected: Vec<Pointed> = minimal_elements(&reps)
            .into_iter()
            .map(|i| reps[i].clone())
            .collect();
        let (mut chain, mut cored) = (
            order::MinimalAntichain::new(false),
            order::MinimalAntichain::new(true),
        );
        for p in &family {
            prop_assert_eq!(chain.offer(p.clone()), cored.offer(p.clone()));
        }
        let cores = cored.into_members();
        prop_assert_eq!(cores.len(), expected.len());
        for (core, member) in cores.iter().zip(&expected) {
            prop_assert!(is_core(core) && order::hom_equivalent(core, member));
        }
        prop_assert_eq!(expected, chain.into_members());
    }

    /// The order functions (matrix-backed) agree with the pairwise filters
    /// by definition on small families.
    #[test]
    fn order_filters_agree(
        a in digraph_structure(4),
        b in digraph_structure(4),
        c in digraph_structure(4),
    ) {
        let family = vec![
            Pointed::boolean(a),
            Pointed::boolean(b),
            Pointed::boolean(c),
        ];
        prop_assert_eq!(
            definitions::minimal_elements(&family),
            minimal_elements(&family)
        );
        prop_assert_eq!(
            definitions::dedupe_hom_equivalent(&family),
            dedupe_hom_equivalent(&family)
        );
    }
}

/// A random query tableau on at most `max_n` variables over `{E/2}` or
/// `{E/2, F/2}`, Boolean or with one or two free variables.
fn query_tableau(max_n: usize) -> impl Strategy<Value = Pointed> {
    (3..=max_n, 0..2usize, 0..3usize).prop_flat_map(move |(n, extra_rels, n_free)| {
        (
            proptest::collection::vec((0..=extra_rels, 0..n as u32, 0..n as u32), 2..=(2 * n)),
            proptest::collection::vec(0..n as u32, n_free),
        )
            .prop_map(move |(atoms, free)| {
                let rels = [("E", 2), ("F", 2)];
                let vocab = Vocabulary::new(rels[..=extra_rels].to_vec());
                let mut b = StructureBuilder::new(vocab.clone(), n);
                for &(r, x, y) in &atoms {
                    b.add(vocab.rel(rels[r].0).unwrap(), &[x, y]);
                }
                let (s, renamed) = b.finish().restrict_to_adom();
                // Free variables must occur in an atom: skip the others.
                let free = free.iter().filter_map(|&x| renamed[x as usize]).collect();
                Pointed::new(s, free)
            })
    })
}

/// Runs `check` on `cases` values drawn from `strategy`, seeded by `name`
/// the way `proptest!` seeds a test — for properties that need state
/// across cases or a case count chosen by the caller.
fn for_cases<S: Strategy>(name: &str, cases: u32, strategy: S, mut check: impl FnMut(S::Value)) {
    let mut rng = TestRng::deterministic(name);
    let mut accepted = 0;
    while accepted < cases {
        if let Some(value) = strategy.generate(&mut rng) {
            check(value);
            accepted += 1;
        }
    }
}

/// Same approximations up to equivalence, each in the class and
/// contained in `Q`.
fn assert_same_approximations(
    t: &Pointed,
    class: &QueryClass,
    got: &[Pointed],
    expected: &[Pointed],
) {
    let name = class.name();
    assert_eq!(
        got.len(),
        expected.len(),
        "{name}: number of approximations of {t:?}"
    );
    for g in got {
        assert!(
            class.contains_tableau(g),
            "{name}: result outside the class"
        );
        assert!(hom_exists(t, g), "{name}: result not contained in Q");
        assert!(
            expected.iter().any(|e| order::hom_equivalent(g, e)),
            "{name}: result the exhaustive search does not have"
        );
    }
    for e in expected {
        assert!(
            got.iter().any(|g| order::hom_equivalent(g, e)),
            "{name}: exhaustive result missing"
        );
    }
}

/// The search in `class` against the exhaustive scan: the
/// `TW(k)`-approximations by definition for the results (`class` must be
/// `TW(k)` on `t`'s vocabulary), a full partition enumeration for the
/// candidate count — the distinct
/// quotients of the in-class partitions that no strictly finer in-class
/// partition refines and into which `Q^triv` does not map (none of their
/// blocks holds every relation's loop and the whole head), plus one for
/// `Q^triv` itself, under the numbering the search walks (which
/// partitions' *labelled* quotients coincide depends on the numbering).
/// The count is the walk's ([`walk_approximations_tableaux`]); the full
/// search must return the same approximations, and where §5 decided it
/// (no node walked) ones isomorphic to the walk's. Returns how many
/// partitions the walk reached, and whether the search was decided.
fn assert_search_matches_exhaustive(t: &Pointed, class: &QueryClass, k: usize) -> (u64, bool) {
    let n = t.structure.universe_size();
    let ordered = in_walk_order(t);
    let (trivial, _) = quotient_pointed(&ordered, &Partition::coarsest(n));
    let mut in_class = Vec::new();
    for_each_partition(n, |p| {
        let (qt, _) = quotient_pointed(&ordered, p);
        if class.contains_tableau(&qt) {
            in_class.push((p.clone(), qt));
        }
        ControlFlow::Continue(())
    });
    #[allow(clippy::mutable_key_type)]
    let finest_quotients: std::collections::HashSet<&Pointed> = in_class
        .iter()
        .filter(|(p, _)| !in_class.iter().any(|(f, _)| f != p && f.refines(p)))
        .map(|(_, qt)| qt)
        .filter(|qt| !hom_exists(&trivial, qt))
        .collect();
    let expected = definitions::approximations(t, k);
    let (got, meta) = walk_approximations_tableaux(t, class, &ApproxOptions::default());
    let name = class.name();
    assert!(meta.complete, "{name}");
    assert_eq!(
        meta.candidates,
        finest_quotients.len() + 1,
        "{name}: candidates of {t:?}"
    );
    assert!(meta.partitions <= bell(n), "{name}");
    assert_same_approximations(t, class, &got, &expected);
    let (searched, search) = all_approximations_tableaux(t, class, &ApproxOptions::default());
    assert_same_approximations(t, class, &searched, &expected);
    let decided = search.nodes == 0;
    if decided {
        let isomorphic = isomorphic_pointed(&searched[0], &got[0]);
        assert!(got.len() == 1 && isomorphic, "{name}: decided {t:?}");
        assert!(search.complete && (search.partitions, search.candidates) == (0, 1));
    }
    (meta.partitions, decided)
}

/// `t` over its vocabulary plus a ternary relation no atom uses.
fn with_unused_relation(t: &Pointed) -> Pointed {
    let vocab = t.structure.vocabulary();
    let mut rels: Vec<(&str, usize)> = vocab
        .rel_ids()
        .map(|r| (vocab.name(r), vocab.arity(r)))
        .collect();
    rels.push(("T", 3));
    let wider = Vocabulary::new(rels);
    let mut b = StructureBuilder::new(wider.clone(), t.structure.universe_size());
    for r in vocab.rel_ids() {
        let same = wider.rel(vocab.name(r)).unwrap();
        t.structure.tuples(r).for_each(|a| _ = b.add(same, a));
    }
    Pointed::new(b.finish(), t.distinguished().to_vec())
}

/// Prefix pruning, the domination bound and the antichain pass change
/// nothing but time: for classes closed under subgraphs the walk offers
/// every quotient of a finest in-class partition the exhaustive scan
/// finds and returns the same approximations up to equivalence. So does
/// the full search, §5's decision included: over `{E}`, over `{E, F}`,
/// and, for a Boolean query, with an unused ternary relation beside
/// them; it must decide some cases in each class.
fn check_pruned_search(name: &str, cases: u32, max_n: usize) {
    let mut decided = [0; 2];
    for_cases(name, cases, query_tableau(max_n), |t| {
        let wider = t.is_boolean().then(|| with_unused_relation(&t));
        for (k, class) in [(1, TwK(1)), (2, TwK(2))] {
            for t in std::iter::once(&t).chain(&wider) {
                decided[k - 1] += assert_search_matches_exhaustive(t, &class, k).1 as u32;
            }
        }
    });
    assert!(decided.iter().all(|&d| d > 0), "decided {decided:?}");
}

/// Hypergraph-based classes have no prefix cut, only the domination
/// bound — which must bite on some case. Over binary vocabularies no
/// repair can succeed (an extra edge never removes a cycle), and
/// `AC = HTW(1) = TW(1)`, so the `TW(1)`-approximations by definition
/// are still the oracle.
fn check_unpruned_search(name: &str, cases: u32, max_n: usize) {
    let mut some_case_reached_fewer = false;
    for_cases(name, cases, query_tableau(max_n), |t| {
        let all = bell(t.structure.universe_size());
        some_case_reached_fewer |= assert_search_matches_exhaustive(&t, &Acyclic, 1).0 < all;
        some_case_reached_fewer |= assert_search_matches_exhaustive(&t, &HtwK(1), 1).0 < all;
    });
    assert!(some_case_reached_fewer, "domination never cut anything");
}

#[test]
fn pruned_search_agrees_with_exhaustive_baseline() {
    check_pruned_search("pruned_search_agrees_with_exhaustive_baseline", 48, 7);
}

#[test]
fn unpruned_search_agrees_with_exhaustive_baseline() {
    check_unpruned_search("unpruned_search_agrees_with_exhaustive_baseline", 48, 6);
}

/// A random Boolean tableau of at most three atoms over `{R/3}` on at
/// most `max_n` variables: the vocabulary on which Claim 6.2's repairs
/// succeed, so a repaired candidate can be the one a finer in-class
/// quotient dominates. Some draws add `S/2` to the vocabulary, which no
/// atom uses: repairs may then add an atom of a relation `Q` lacks, and
/// `Q^triv` has no loop of it.
fn ternary_tableau(max_n: usize) -> impl Strategy<Value = Pointed> {
    (3..=max_n, 0..2usize).prop_flat_map(|(n, extra_rels)| {
        let var = 0..n as u32;
        proptest::collection::vec((var.clone(), var.clone(), var), 1..=3).prop_map(move |atoms| {
            let vocab = Vocabulary::new([("R", 3), ("S", 2)][..=extra_rels].to_vec());
            let r = vocab.rel("R").unwrap();
            let mut b = StructureBuilder::new(vocab, n);
            for &(x, y, z) in &atoms {
                b.add(r, &[x, y, z]);
            }
            Pointed::boolean(b.finish().restrict_to_adom().0)
        })
    })
}

/// The repairing search against a walk-free pipeline: every partition's
/// quotient, or its repairs when it is outside the class, deduplicated
/// up to equivalence and filtered to the →-minimal ones.
fn assert_repairing_search_matches_exhaustive(t: &Pointed, class: &QueryClass) {
    let opts = ApproxOptions {
        minimize: false,
        ..ApproxOptions::default()
    };
    let mut family = Vec::new();
    for_each_partition(t.structure.universe_size(), |p| {
        let (qt, _) = quotient_pointed(t, p);
        if class.contains_tableau(&qt) {
            family.push(qt);
        } else {
            family.extend(repairs_public(&qt, class, &opts));
        }
        ControlFlow::Continue(())
    });
    let reps: Vec<Pointed> = dedupe_hom_equivalent(&family)
        .into_iter()
        .map(|i| family[i].clone())
        .collect();
    let expected: Vec<Pointed> = minimal_elements(&reps)
        .into_iter()
        .map(|i| reps[i].clone())
        .collect();
    let (got, meta) = all_approximations_tableaux(t, class, &opts);
    assert!(meta.complete);
    assert_same_approximations(t, class, &got, &expected);
}

fn check_repairing_search(name: &str, cases: u32) {
    // Example 6.6: three approximations, one of them a repaired quotient.
    let vocab = Vocabulary::new(vec![("R", 3)]);
    let r = vocab.rel("R").unwrap();
    let mut b = StructureBuilder::new(vocab, 6);
    b.add(r, &[0, 1, 2]).add(r, &[2, 3, 4]).add(r, &[4, 5, 0]);
    assert_repairing_search_matches_exhaustive(&Pointed::boolean(b.finish()), &Acyclic);
    for_cases(name, cases, ternary_tableau(6), |t| {
        assert_repairing_search_matches_exhaustive(&t, &Acyclic);
        assert_repairing_search_matches_exhaustive(&t, &HtwK(1));
    });
}

#[test]
fn repairing_search_agrees_with_exhaustive_pipeline() {
    check_repairing_search("repairing_search_agrees_with_exhaustive_pipeline", 24);
}

/// `is_approximation` shares the pruned walk; its verdict must be the one
/// a scan of all Bell(n) quotients gives. `Q′` is a random quotient of
/// `Q`, so it is always contained in `Q` and often in the class.
fn check_identification(name: &str, cases: u32, max_n: usize) {
    let strategy = query_tableau(max_n).prop_flat_map(|t| {
        let n = t.structure.universe_size();
        (Just(t), proptest::collection::vec(0..n as u32, n))
    });
    let mut verdicts = [0u32; 2];
    for_cases(name, cases, strategy, |(t, labels)| {
        let (tp, _) = quotient_pointed(&t, &Partition::from_labels(&labels));
        let (q, q_prime) = (query_from_tableau(&t), query_from_tableau(&tp));
        for class in [&TwK(1), &Acyclic] {
            let mut beaten = false;
            for_each_partition(t.structure.universe_size(), |p| {
                let (qt, _) = quotient_pointed(&t, p);
                beaten |=
                    class.contains_tableau(&qt) && hom_exists(&qt, &tp) && !hom_exists(&tp, &qt);
                ControlFlow::Continue(())
            });
            let expected = class.contains_tableau(&tp) && !beaten;
            let got = is_approximation(&q, &q_prime, class, &ApproxOptions::default());
            assert_eq!(got, Some(expected), "{}: {q_prime} of {q}", class.name());
            verdicts[expected as usize] += 1;
        }
    });
    assert!(
        verdicts[0] > 0 && verdicts[1] > 0,
        "both verdicts exercised"
    );
}

#[test]
fn identification_agrees_with_exhaustive_witness_search() {
    check_identification(
        "identification_agrees_with_exhaustive_witness_search",
        48,
        6,
    );
}

/// `cqbench`'s four `approx_cold` shapes (its `CELLS` table: the
/// introduction's Q2 and three `Query::random` draws) with their classes
/// and a ceiling on the prefixes the walk visits under any spelling.
const COLD_SHAPES: [(&str, usize, u64); 4] = [
    ("E(x,y), E(y,z), E(z,u), E(x1,y1), E(y1,z1), E(z1,u1), E(x,z1), E(y,u1)", 1, 70),
    ("E(v1,v0), E(v2,v1), E(v1,v3), E(v4,v0), E(v5,v4), E(v5,v6), E(v7,v1), E(v7,v3), E(v6,v2)", 1, 300),
    ("E(v1,v0), E(v2,v1), E(v1,v3), E(v4,v0), E(v5,v4), E(v5,v6), E(v7,v1), E(v8,v7), E(v7,v6), \
      E(v3,v4)", 1, 200),
    ("E(v1,v0), E(v2,v1), E(v1,v3), E(v4,v0), E(v5,v4), E(v5,v6), E(v7,v1), E(v7,v3), E(v6,v2), \
      E(v5,v0), E(v2,v0), E(v1,v6), E(v5,v1), E(v5,v2)", 2, 10),
];

/// How the caller spelled the query changes neither the answer nor the
/// bound on the work: over `cases` scramblings of each shape (variables
/// renamed, atoms shuffled — the parser numbers variables by first
/// occurrence) the approximations stay the same up to equivalence and the
/// prefixes the walk visits stay under the shape's ceiling. The full
/// search returns the same approximations, and §5 decides the last three
/// shapes (not bipartite, bipartite but unbalanced, not 3-colourable)
/// under every spelling: it visits no prefix. (Not within a
/// factor of each other: with the trivial-quotient cut removing most of
/// the tree, what is left depends on where the walk's order first closes
/// a cycle, so the second shape visits 6 to 269 prefixes over its
/// spellings.)
fn check_order_robustness(name: &str, cases: usize) {
    let mut rng = TestRng::deterministic(name);
    let mut shuffle = |items: &mut Vec<String>| {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.below(i as u64 + 1) as usize);
        }
    };
    for (shape, (body, k, ceiling)) in COLD_SHAPES.into_iter().enumerate() {
        let class = TwK(k);
        let t = tableau_of(&parse_cq(&format!("Q() :- {body}")).unwrap());
        let (expected, meta) = walk_approximations_tableaux(&t, &class, &ApproxOptions::default());
        let mut most = meta.nodes;
        let pairs: Vec<(u32, u32)> = t
            .structure
            .tuples(t.structure.vocabulary().rel("E").unwrap())
            .map(|a| (a[0], a[1]))
            .collect();
        for _ in 0..cases {
            let mut names: Vec<String> = (0..t.structure.universe_size())
                .map(|i| format!("n{i}"))
                .collect();
            shuffle(&mut names);
            let atom =
                |&(x, y): &(u32, u32)| format!("E({}, {})", names[x as usize], names[y as usize]);
            let mut atoms: Vec<String> = pairs.iter().map(atom).collect();
            shuffle(&mut atoms);
            let scrambled = tableau_of(&parse_cq(&format!("Q() :- {}", atoms.join(", "))).unwrap());
            let (got, meta) =
                walk_approximations_tableaux(&scrambled, &class, &ApproxOptions::default());
            assert!(meta.complete);
            assert_same_approximations(&scrambled, &class, &got, &expected);
            most = most.max(meta.nodes);
            let (got, meta) =
                all_approximations_tableaux(&scrambled, &class, &ApproxOptions::default());
            assert_same_approximations(&scrambled, &class, &got, &expected);
            assert_eq!(meta.nodes == 0, shape > 0, "{body}: decided");
        }
        assert!(most <= ceiling, "{body}: up to {most} prefixes visited");
    }
}

#[test]
fn search_cost_and_results_do_not_depend_on_the_spelling() {
    check_order_robustness("search_cost_and_results_do_not_depend_on_the_spelling", 40);
}

/// `t` spelled again: a query over `vocab` whose variable `x` is named
/// `v{renaming[x]}`, its atoms in the order of `atoms` (a permutation of
/// the tableau's tuples), parsed and turned back into a tableau. The
/// parser numbers variables as they first occur in the text.
fn respelled(t: &Pointed, renaming: &[u32], atoms: &[usize]) -> Pointed {
    let s = &t.structure;
    let name = |x: &Element| format!("v{}", renaming[*x as usize]);
    let all: Vec<String> = (s.vocabulary().rel_ids())
        .flat_map(|r| s.tuples(r).map(move |u| (r, u)))
        .map(|(r, u)| {
            let args: Vec<String> = u.iter().map(name).collect();
            format!("{}({})", s.vocabulary().name(r), args.join(","))
        })
        .collect();
    let body: Vec<&str> = atoms.iter().map(|&i| all[i].as_str()).collect();
    let head: Vec<String> = t.distinguished().iter().map(name).collect();
    let text = format!("Q({}) :- {}", head.join(","), body.join(", "));
    tableau_of(&parse_cq_with_vocab(&text, s.vocabulary()).unwrap())
}

/// Whether the definitions find an isomorphism `a → b`: equal universe
/// sizes and tuple counts per relation, and an injective homomorphism
/// that maps head to head.
fn isomorphic_by_definition(a: &Pointed, b: &Pointed) -> bool {
    let (s, t) = (&a.structure, &b.structure);
    let counts = s
        .vocabulary()
        .rel_ids()
        .all(|r| s.tuples(r).len() == t.tuples(r).len());
    let pins = a.distinguished().iter().zip(b.distinguished());
    let hom = pins.fold(Hom::new(s, t), |h, (&x, &y)| h.pin(x, y));
    counts
        && a.arity() == b.arity()
        && s.universe_size() == t.universe_size()
        && hom.injective().exists()
}

/// Equal [`ApproxCacheKey`]s hold exactly when the definitions find an
/// isomorphism, on random pointed tableaux over `E/2` and `T/3` with
/// heads of 0–3 variables that may repeat: against a random respelling
/// of each (variables renamed, atoms reordered), which must be equal,
/// against itself under the reversed head, and against the tableau
/// drawn before it. Directed `C6` against two directed triangles is
/// the pair one round of colour refinement conflates.
fn check_canonical_keys(name: &str, cases: u32, max_n: usize) {
    let key = |t: &Pointed| ApproxCacheKey::new(t, &TwK(1), &ApproxOptions::default());
    let c6 =
        tableau_of(&parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)").unwrap());
    let two =
        tableau_of(&parse_cq("Q() :- E(a,b), E(b,c), E(c,a), E(d,e), E(e,f), E(f,d)").unwrap());
    assert!(key(&c6) != key(&two) && !isomorphic_by_definition(&c6, &two));
    let mut rng = TestRng::deterministic(name);
    let mut shuffled = |len: usize| {
        let mut items: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            items.swap(i, rng.below(i as u64 + 1) as usize);
        }
        items
    };
    let strategy = (pointed_structure(max_n), 0..4usize);
    let mut before: Option<Pointed> = None;
    for_cases(name, cases, strategy, |(t, arity)| {
        let head = t
            .distinguished()
            .iter()
            .cycle()
            .take(arity)
            .copied()
            .collect();
        let t = Pointed::new(t.structure, head);
        let n = t.structure.universe_size();
        let renaming: Vec<u32> = shuffled(n).into_iter().map(|x| x as u32).collect();
        let again = respelled(&t, &renaming, &shuffled(t.structure.total_tuples()));
        assert!(isomorphic_by_definition(&t, &again), "{t:?}");
        assert_eq!(key(&t), key(&again), "{t:?} vs {again:?}");
        let reversed = t.distinguished().iter().rev().copied().collect();
        let others = [
            Some(Pointed::new(t.structure.clone(), reversed)),
            before.take(),
        ];
        for other in others.into_iter().flatten() {
            let same = key(&t) == key(&other);
            assert_eq!(
                same,
                isomorphic_by_definition(&t, &other),
                "{t:?} vs {other:?}"
            );
        }
        before = Some(t);
    });
}

#[test]
fn canonical_keys_agree_with_definitions() {
    check_canonical_keys("canonical_keys", 256, 6);
}

/// The labelling's leaves on highly symmetric inputs, pinned: each is at
/// most `n²` for `n` elements (first-path orbit pruning keeps the star's
/// 12! automorphisms to 12 leaves), and every generator found is an
/// automorphism. Colour refinement alone makes `D` discrete.
#[test]
fn canonical_labelling_leaves_on_symmetric_families() {
    use cqapx_gadgets::prop44;
    use cqapx_structures::iso::canonical_form;
    let digraph =
        |n: u32, edges: &[(u32, u32)]| Pointed::boolean(Structure::digraph(n as usize, edges));
    let star: Vec<(u32, u32)> = (1..=12).map(|i| (0, i)).collect();
    let triangles: Vec<(u32, u32)> = (0..24).map(|i| (i, i / 3 * 3 + (i + 1) % 3)).collect();
    let k6: Vec<(u32, u32)> = (0..36)
        .map(|i| (i / 6, i % 6))
        .filter(|(a, b)| a != b)
        .collect();
    let grid: Vec<(u32, u32)> = (0..25)
        .flat_map(|v| {
            [
                (v % 5 < 4).then_some((v, v + 1)),
                (v < 20).then_some((v, v + 5)),
            ]
        })
        .flatten()
        .collect();
    let ring = {
        let vocab = Vocabulary::single(3);
        let mut b = StructureBuilder::new(vocab.clone(), 9);
        let r = vocab.rel("R").unwrap();
        (0..9).for_each(|i| _ = b.add(r, &[i, (i + 1) % 9, (i + 3) % 9]));
        Pointed::boolean(b.finish())
    };
    let d = Pointed::boolean(prop44::digraph_d().0.to_structure());
    let cases = [
        ("star of 12 leaves", digraph(13, &star), 12),
        ("8 directed triangles", digraph(24, &triangles), 15),
        ("K6 both ways", digraph(6, &k6), 6),
        ("oriented 5x5 grid", digraph(25, &grid), 2),
        ("ternary ring n = 9", ring, 2),
        ("Proposition 4.4's D", d, 1),
    ];
    for (name, p, leaves) in cases {
        let n = p.structure.universe_size() as u64;
        let form = canonical_form(&p);
        for g in form.generators() {
            assert_eq!(p.structure.map_image_raw(g), p.structure, "{name}: {g:?}");
        }
        assert_eq!(form.leaves(), leaves, "{name}");
        assert!(leaves <= n * n, "{name}: {leaves} leaves");
    }
}

/// The deep variant CI runs in release mode after the default suite.
#[test]
#[ignore = "deep: 512 cases up to 8 variables, run in release by CI"]
fn deep_approximation_differentials() {
    check_pruned_search("deep_pruned", 512, 8);
    check_unpruned_search("deep_unpruned", 512, 7);
    check_repairing_search("deep_repairing", 512);
    check_identification("deep_identification", 512, 7);
    check_order_robustness("deep_order_robustness", 512);
    check_canonical_keys("deep_canonical_keys", 512, 8);
}
