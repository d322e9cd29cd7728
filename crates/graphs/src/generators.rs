//! Digraph generators used by the paper's constructions, tests and
//! benchmarks.

use crate::digraph::Digraph;
use cqapx_structures::Element;

/// The complete digraph `K⃗_m`: edges in both directions between every pair
/// of distinct nodes (no loops). `(K⃗_m)ᵘ = K_m`.
///
/// `K⃗_{k+1}` is the tableau of the trivial query `Q^triv_{k+1}` of
/// Section 5.2 of the paper: it has treewidth `k` and receives every
/// `(k+1)`-colorable digraph.
pub fn complete_digraph(m: usize) -> Digraph {
    let mut g = Digraph::new(m);
    for u in 0..m as Element {
        for v in 0..m as Element {
            if u != v {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// The symmetric version `G^↔` of an undirected edge list: each undirected
/// edge `{a, b}` becomes both `(a, b)` and `(b, a)` (the paper's Prop 5.12
/// reduction).
pub fn symmetric(n: usize, undirected_edges: &[(Element, Element)]) -> Digraph {
    let mut g = Digraph::new(n);
    for &(a, b) in undirected_edges {
        g.add_edge(a, b);
        g.add_edge(b, a);
    }
    g
}

/// The wheel: a directed cycle `0 → 1 → … → n-1 → 0` plus a hub (node `n`)
/// with symmetric edges to every rim node.
pub fn wheel(n: usize) -> Digraph {
    let mut g = Digraph::cycle(n);
    let hub = g.add_node();
    for v in 0..n as Element {
        g.add_edge(hub, v);
        g.add_edge(v, hub);
    }
    g
}

/// An `r × c` directed grid: edges right and down. Balanced and bipartite.
pub fn grid(r: usize, c: usize) -> Digraph {
    let mut g = Digraph::new(r * c);
    let id = |i: usize, j: usize| (i * c + j) as Element;
    for i in 0..r {
        for j in 0..c {
            if j + 1 < c {
                g.add_edge(id(i, j), id(i, j + 1));
            }
            if i + 1 < r {
                g.add_edge(id(i, j), id(i + 1, j));
            }
        }
    }
    g
}

/// An Erdős–Rényi style random digraph `G(n, p)` (no loops), from an
/// explicit RNG-free linear congruential stream so benchmarks are
/// deterministic without extra dependencies in this crate.
pub fn random_digraph(n: usize, p: f64, seed: u64) -> Digraph {
    let mut g = Digraph::new(n);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for u in 0..n as Element {
        for v in 0..n as Element {
            if u != v && next() < p {
                g.add_edge(u, v);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance;
    use crate::coloring;

    /// The "zig-zag" balanced digraph of net length 0 with `2k` edges:
    /// `0 → 1 ← 2 → 3 ← … `. Homomorphically equivalent to a single edge.
    pub(crate) fn zigzag(k: usize) -> Digraph {
        let mut g = Digraph::new(2 * k + 1);
        for i in 0..2 * k {
            if i % 2 == 0 {
                g.add_edge(i as Element, (i + 1) as Element);
            } else {
                g.add_edge((i + 1) as Element, i as Element);
            }
        }
        g
    }

    #[test]
    fn complete_digraph_shape() {
        let k3 = complete_digraph(3);
        assert_eq!(k3.edge_count(), 6);
        assert!(!k3.has_loop());
    }

    #[test]
    fn grid_is_balanced_and_bipartite() {
        let g = grid(3, 4);
        assert!(balance::is_balanced(&g));
        assert!(coloring::is_bipartite(&g));
        assert_eq!(balance::height(&g), 5);
    }

    #[test]
    fn zigzag_equivalent_to_edge() {
        use cqapx_structures::HomSolver;
        let z = zigzag(3).to_structure();
        let e = Digraph::directed_path(1).to_structure();
        assert!(HomSolver::compile(&z).run(&e).exists());
        assert!(HomSolver::compile(&e).run(&z).exists());
    }

    #[test]
    fn random_digraph_deterministic() {
        let a = random_digraph(10, 0.3, 42);
        let b = random_digraph(10, 0.3, 42);
        assert_eq!(a, b);
        let c = random_digraph(10, 0.3, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn tournament_acyclic_direction() {
        // The transitive tournament on 4 nodes: (i, j) for every i < j.
        let t = Digraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(t.edge_count(), 6);
        assert!(balance::is_balanced(&Digraph::directed_path(1)));
        // tournaments have directed triangles? transitive ones do not have
        // directed cycles, but they are unbalanced as oriented cycles exist
        // with nonzero net length (0->1->2 and 0->2).
        assert!(!balance::is_balanced(&t));
    }
}
