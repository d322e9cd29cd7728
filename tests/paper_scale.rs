//! The paper's layer at the sizes the paper's figures reach, with exact
//! counts: each entry pins the approximations the search returns, up to
//! equivalence, and the prefixes it walks (`nodes`), both walks counted
//! when it restarts on the core.
//!
//! The graph entries meet the three stages of the search
//! (`cqapx_core::approx`): §5 decides the directed cycles (Theorem 5.1:
//! bipartite but unbalanced, so only `Q^triv₂`) with no walk; the zigzag
//! cycles and the grids are balanced, so they are walked, and restart
//! on their cores (one edge, a directed path) after
//! [`RESTART_NODES`] prefixes; Proposition 4.4's `D` and the
//! introduction's `Q2` are cores, walked as written. The ternary rings
//! `R(vᵢ, vᵢ₊₁, vᵢ₊₃)` are walked into `AC`, a hypergraph-based class,
//! with Claim 6.2's repairs: no decision and no restart apply there.

use cqapx_core::approx::RESTART_NODES;
use cqapx_core::{all_approximations_tableaux, Acyclic, ApproxOptions, QueryClass, TwK};
use cqapx_cq::{parse_cq, tableau_of};
use cqapx_gadgets::prop44;
use cqapx_graphs::{generators, Digraph};
use cqapx_structures::order::{hom_equivalent, hom_exists};
use cqapx_structures::{Element, Pointed, StructureBuilder, Vocabulary};

/// The Boolean query whose tableau is `g`.
fn graph(g: &Digraph) -> Pointed {
    Pointed::boolean(g.to_structure())
}

/// The cycle on `n` vertices whose edges alternate in direction.
fn zigzag(n: Element) -> Digraph {
    let edge = |i: Element| match i % 2 {
        0 => (i, (i + 1) % n),
        _ => ((i + 1) % n, i),
    };
    Digraph::from_edges(n as usize, &(0..n).map(edge).collect::<Vec<_>>())
}

/// The ternary ring `R(vᵢ, vᵢ₊₁, vᵢ₊₃)`, indices modulo `n`.
fn ring(n: Element) -> Pointed {
    let vocab = Vocabulary::new(vec![("R", 3)]);
    let r = vocab.rel("R").unwrap();
    let mut b = StructureBuilder::new(vocab, n as usize);
    for i in 0..n {
        b.add(r, &[i, (i + 1) % n, (i + 3) % n]);
    }
    Pointed::boolean(b.finish())
}

/// Searches `t` in `class` and returns the approximations after checking
/// the search was complete, walked exactly `nodes` prefixes, and
/// returned pairwise non-equivalent queries in the class, each
/// contained in `t`'s query.
fn search(name: &str, t: &Pointed, class: &QueryClass, nodes: u64) -> Vec<Pointed> {
    let (got, meta) = all_approximations_tableaux(t, class, &ApproxOptions::default());
    assert!(meta.complete, "{name}");
    assert_eq!(meta.nodes, nodes, "{name}: prefixes walked");
    for (i, a) in got.iter().enumerate() {
        assert!(class.contains_tableau(a), "{name}: outside the class");
        assert!(hom_exists(t, a), "{name}: not contained in Q");
        let twins = got[..i].iter().filter(|b| hom_equivalent(a, b)).count();
        assert_eq!(twins, 0, "{name}: equivalent approximations");
    }
    got
}

/// The graph entries: each query's approximations are `expected`, up to
/// equivalence.
#[test]
fn graph_queries_at_paper_scale() {
    let path = |k: usize| graph(&Digraph::directed_path(k));
    let both_ways = graph(&Digraph::from_edges(2, &[(0, 1), (1, 0)]));
    let edge = path(1);
    let q2 = "Q() :- E(x,y), E(y,z), E(z,u), E(x1,y1), E(y1,z1), E(z1,u1), E(x,z1), E(y,u1)";
    let cases: [(&str, Pointed, Vec<Pointed>, u64); 8] = [
        (
            "directed C16",
            graph(&Digraph::cycle(16)),
            vec![both_ways.clone()],
            0,
        ),
        (
            "directed C20",
            graph(&Digraph::cycle(20)),
            vec![both_ways],
            0,
        ),
        (
            "zigzag C16",
            graph(&zigzag(16)),
            vec![edge.clone()],
            RESTART_NODES + 3,
        ),
        (
            "zigzag C20",
            graph(&zigzag(20)),
            vec![edge],
            RESTART_NODES + 3,
        ),
        (
            "4×4 grid",
            graph(&generators::grid(4, 4)),
            vec![path(6)],
            RESTART_NODES + 28,
        ),
        (
            "5×5 grid",
            graph(&generators::grid(5, 5)),
            vec![path(8)],
            RESTART_NODES + 45,
        ),
        (
            "Proposition 4.4's D",
            graph(&prop44::digraph_d().0),
            vec![
                graph(&prop44::digraph_d_ac()),
                graph(&prop44::digraph_d_bd()),
            ],
            757,
        ),
        ("Q2", tableau_of(&parse_cq(q2).unwrap()), vec![path(4)], 57),
    ];
    for (name, t, expected, nodes) in cases {
        let got = search(name, &t, &TwK(1), nodes);
        assert_eq!(got.len(), expected.len(), "{name}");
        for e in &expected {
            assert!(got.iter().any(|g| hom_equivalent(g, e)), "{name}: missing");
        }
    }
}

/// The ring of `n` into `AC`: its approximations, up to equivalence,
/// counted as `(how many, variables, atoms)` of their cores, and the
/// prefixes its walk visits.
fn check_ring(n: Element, sizes: &[(usize, usize, usize)], nodes: u64) {
    let name = format!("ring n = {n}");
    let got = search(&name, &ring(n), &Acyclic, nodes);
    let mut seen: Vec<(usize, usize, usize)> = Vec::new();
    for a in &got {
        let size = (a.structure.universe_size(), a.structure.total_tuples());
        match seen.iter_mut().find(|s| (s.1, s.2) == size) {
            Some(s) => s.0 += 1,
            None => seen.push((1, size.0, size.1)),
        }
    }
    seen.sort_unstable_by_key(|s| (s.1, s.2));
    assert_eq!(seen, sizes, "{name}");
}

#[test]
fn ternary_ring_of_seven_into_ac() {
    check_ring(7, &[(6, 3, 6), (30, 3, 7)], 938);
}

/// The deep variant, run in release: the rings of eight and nine.
#[test]
#[ignore = "deep: the rings of eight and nine, seconds in release"]
fn deep_ternary_rings_into_ac() {
    let eight = [
        (2, 3, 4),
        (4, 3, 6),
        (5, 3, 7),
        (12, 3, 8),
        (5, 4, 8),
        (18, 4, 9),
    ];
    check_ring(8, &eight, 4197);
    let nine = [
        (2, 3, 4),
        (2, 3, 6),
        (6, 3, 7),
        (12, 3, 8),
        (15, 3, 9),
        (9, 4, 8),
        (50, 4, 9),
        (42, 4, 10),
        (1, 5, 9),
    ];
    check_ring(9, &nine, 20819);
}
