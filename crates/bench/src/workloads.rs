//! Workload generators: query suites and database families.

use cqapx_cq::{parse_cq, query_from_tableau, ConjunctiveQuery};
use cqapx_graphs::{generators, Digraph};
use cqapx_structures::{Element, Pointed, Structure, StructureBuilder, Vocabulary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Boolean graph query whose tableau is the given digraph.
pub fn graph_query(g: &Digraph) -> ConjunctiveQuery {
    query_from_tableau(&Pointed::boolean(g.to_structure()))
}

/// The oriented-cycle query `C_k` (Boolean).
pub fn cycle_query(k: usize) -> ConjunctiveQuery {
    graph_query(&Digraph::cycle(k))
}

/// A named suite of cyclic queries exercising all three trichotomy
/// classes and both vocabulary styles, used by the Figure 1 experiment.
pub fn fig1_suite() -> Vec<(&'static str, ConjunctiveQuery)> {
    vec![
        ("triangle C3", cycle_query(3)),
        ("directed C4", cycle_query(4)),
        ("directed C6", cycle_query(6)),
        (
            "intro Q2 (balanced)",
            parse_cq(
                "Q() :- E(x,y), E(y,z), E(z,u), E(x1,y1), E(y1,z1), E(z1,u1), E(x,z1), E(y,u1)",
            )
            .unwrap(),
        ),
        ("tight G3", graph_query(&cqapx_gadgets::tight::g_k(3))),
        (
            "ternary cycle (Ex 6.6)",
            parse_cq("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)").unwrap(),
        ),
        (
            "ternary triangle (intro)",
            parse_cq("Q() :- R(x,u,y), R(y,v,z), R(z,w,x)").unwrap(),
        ),
        (
            "free-variable triangle",
            parse_cq("Q(x, y) :- E(x,y), E(y,z), E(z,x)").unwrap(),
        ),
    ]
}

/// A random digraph database (Erdős–Rényi, expected out-degree `d`).
pub fn random_db(n: usize, expected_degree: f64, seed: u64) -> Structure {
    generators::random_digraph(n, expected_degree / n as f64, seed).to_structure()
}

/// One step of the 64-bit linear congruential generator the seeded
/// fixtures below share (Knuth's MMIX constants): advances `s` and
/// returns its top 31 bits.
pub fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// A seeded `degree`-out-regular digraph on `n` vertices (no loops).
pub fn regular_digraph(n: u32, degree: usize, seed: u64) -> Structure {
    let mut s = seed | 1;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for u in 0..n {
        let first = edges.len();
        while edges.len() - first < degree {
            let v = (lcg(&mut s) % u64::from(n)) as u32;
            if v != u && !edges[first..].contains(&(u, v)) {
                edges.push((u, v));
            }
        }
    }
    Structure::digraph(n as usize, &edges)
}

/// A hub-skewed digraph: `edges` edges whose endpoints are drawn with a
/// quadratic bias toward low ids, so a few hubs hold most of them — the
/// regime where binary intermediates blow up and the multiway kernel's
/// per-value intersection pays off.
pub fn skewed_digraph(n: usize, edges: usize, seed: u64) -> Structure {
    let mut s = seed | 1;
    let mut pick = || {
        let r = (lcg(&mut s) % 1_048_576) as f64 / 1_048_576.0;
        ((r * r * n as f64) as usize).min(n - 1) as u32
    };
    let es: Vec<(u32, u32)> = (0..edges).map(|_| (pick(), pick())).collect();
    Structure::digraph(n, &es)
}

/// A digraph on `n` nodes with `edges` edges whose endpoints follow a
/// Zipf(`s`) distribution over node ids — a few hubs collect most of
/// the incidences. The skew regime where a left-deep binary join of a
/// bag's parts would blow up (every pair of hub-incident edges survives
/// the first join) while the multiway kernel's per-value intersections
/// stay output-bounded.
pub fn zipf_db(n: usize, edges: usize, s: f64, seed: u64) -> Structure {
    let mut cum: Vec<f64> = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        total += 1.0 / ((i + 1) as f64).powf(s);
        cum.push(total);
    }
    let mut state = seed | 1;
    let mut pick = || {
        let r = (lcg(&mut state) % (1 << 24)) as f64 / (1u64 << 24) as f64 * total;
        cum.partition_point(|&c| c < r).min(n - 1) as u32
    };
    let es: Vec<(u32, u32)> = (0..edges).map(|_| (pick(), pick())).collect();
    Structure::digraph(n, &es)
}

/// A random DAG on `n` vertices: `3n` edge draws, each edge from the
/// lower id to the higher, loops dropped — no directed cycle maps into
/// it.
pub fn random_dag(n: u32, seed: u64) -> Structure {
    let mut s = seed | 1;
    let mut pick = || (lcg(&mut s) % u64::from(n)) as u32;
    let es: Vec<(u32, u32)> = (0..3 * n)
        .map(|_| (pick(), pick()))
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    Structure::digraph(n as usize, &es)
}

/// A 4-out DAG on `n` vertices in nine layers (`v % 9`): every edge
/// goes one layer up, so there are two-paths everywhere and no closed
/// walk at all.
pub fn nine_layer_dag(n: u32, seed: u64) -> Structure {
    let mut s = seed | 1;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for u in (0..n).filter(|u| u % 9 < 8) {
        let first = edges.len();
        while edges.len() - first < 4 {
            let v = (lcg(&mut s) % u64::from(n / 9)) as u32 * 9 + u % 9 + 1;
            if v < n && !edges[first..].contains(&(u, v)) {
                edges.push((u, v));
            }
        }
    }
    Structure::digraph(n as usize, &edges)
}

/// A random database over a single `arity`-ary relation with `tuples`
/// uniform tuples over `n` constants.
pub fn random_relation_db(n: usize, arity: usize, tuples: usize, seed: u64) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = Vocabulary::single(arity);
    let r = vocab.rel("R").expect("single relation");
    let mut b = StructureBuilder::new(vocab, n);
    for _ in 0..tuples {
        let t: Vec<Element> = (0..arity).map(|_| rng.gen_range(0..n as Element)).collect();
        b.add(r, &t);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_suite_is_cyclic() {
        for (name, q) in fig1_suite() {
            assert!(
                !cqapx_cq::classes::is_acyclic_query(&q) || cqapx_cq::treewidth_of_query(&q) > 1,
                "{name} should be outside TW(1) or AC"
            );
        }
    }
}
