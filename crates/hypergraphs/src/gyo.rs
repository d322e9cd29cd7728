//! GYO reduction: α-acyclicity and join trees.
//!
//! The Graham / Yu–Özsoyoğlu reduction repeatedly applies two rules:
//!
//! 1. delete a vertex that occurs in at most one hyperedge (an "ear"
//!    vertex);
//! 2. delete a hyperedge contained in another hyperedge (recording the
//!    containment as a join-tree edge).
//!
//! `H` is **α-acyclic** iff the reduction erases every edge; the recorded
//! containments assemble into a **join tree**, the witness Yannakakis'
//! algorithm evaluates along. Equivalently (the paper's definition), `H`
//! is acyclic iff it has a tree decomposition whose every bag is a
//! hyperedge.

use crate::hypergraph::Hypergraph;
use crate::jointree::JoinTree;

/// Outcome of a GYO reduction.
#[derive(Debug, Clone)]
pub struct GyoResult {
    /// `Some(join tree)` when acyclic, `None` otherwise.
    pub join_tree: Option<JoinTree>,
}

/// Runs the GYO reduction.
///
/// The edges are read, never copied: a vertex deleted by rule 1 occurs
/// in no other live edge, so it is marked deleted once for all of them,
/// and an edge's current set is its vertices not so marked.
pub fn gyo_reduce(h: &Hypergraph) -> GyoResult {
    let m = h.edge_count();
    let edges = h.edges();
    let mut alive: Vec<bool> = vec![true; m];
    let mut parent: Vec<Option<usize>> = vec![None; m];
    let mut deleted: Vec<bool> = vec![false; h.n()];
    let mut occurrence: Vec<u32> = vec![0; h.n()];

    loop {
        let mut changed = false;

        // Rule 1: delete vertices occurring in at most one live edge.
        occurrence.fill(0);
        for e in (0..m).filter(|&i| alive[i]).map(|i| &edges[i]) {
            for &v in e {
                occurrence[v as usize] += 1;
            }
        }
        for (v, &count) in occurrence.iter().enumerate() {
            changed |= count == 1 && !deleted[v];
            deleted[v] |= count <= 1;
        }

        // Rule 2: remove edges contained in another live edge (including
        // edges emptied by rule 1, which are contained in anything).
        for i in 0..m {
            if !alive[i] {
                continue;
            }
            let mut rest = edges[i]
                .iter()
                .filter(|&&v| !deleted[v as usize])
                .peekable();
            if rest.peek().is_none() {
                // Attach to any other live edge, or none if it is the last.
                alive[i] = false;
                changed = true;
                if let Some(j) = (0..m).find(|&j| alive[j]) {
                    parent[i] = Some(j);
                }
                continue;
            }
            let inside = |j: usize| rest.clone().all(|v| edges[j].contains(v));
            if let Some(j) = (0..m).find(|&j| j != i && alive[j] && inside(j)) {
                alive[i] = false;
                parent[i] = Some(j);
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }

    // At most one edge left: acyclic.
    let acyclic = alive.iter().filter(|&&a| a).count() <= 1;
    GyoResult {
        join_tree: acyclic.then_some(JoinTree { n_edges: m, parent }),
    }
}

/// `true` when the hypergraph is α-acyclic.
///
/// # Examples
///
/// ```
/// use cqapx_hypergraphs::{gyo, Hypergraph};
///
/// // A triangle of binary edges is cyclic…
/// let tri = Hypergraph::from_edges(3, &[vec![0, 1], vec![1, 2], vec![2, 0]]);
/// assert!(!gyo::is_acyclic(&tri));
///
/// // …but adding the covering 3-edge makes it acyclic (α-acyclicity is
/// // not closed under subhypergraphs — the paper's Section 6 example).
/// let covered = Hypergraph::from_edges(
///     3,
///     &[vec![0, 1], vec![1, 2], vec![2, 0], vec![0, 1, 2]],
/// );
/// assert!(gyo::is_acyclic(&covered));
/// ```
pub fn is_acyclic(h: &Hypergraph) -> bool {
    gyo_reduce(h).join_tree.is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge_acyclic() {
        let h = Hypergraph::from_edges(3, &[vec![0, 1, 2]]);
        assert!(is_acyclic(&h));
    }

    #[test]
    fn path_of_edges_acyclic() {
        let h = Hypergraph::from_edges(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let r = gyo_reduce(&h);
        let jt = r.join_tree.expect("acyclic");
        jt.validate(&h).unwrap();
    }

    #[test]
    fn triangle_cyclic() {
        let h = Hypergraph::from_edges(3, &[vec![0, 1], vec![1, 2], vec![2, 0]]);
        let r = gyo_reduce(&h);
        assert!(r.join_tree.is_none());
    }

    #[test]
    fn covered_triangle_acyclic() {
        let h = Hypergraph::from_edges(3, &[vec![0, 1, 2], vec![0, 1], vec![1, 2], vec![0, 2]]);
        let r = gyo_reduce(&h);
        let jt = r.join_tree.expect("acyclic");
        jt.validate(&h).unwrap();
        // All binary edges hang off the ternary edge 0.
        assert_eq!(jt.parent[1], Some(0));
        assert_eq!(jt.parent[2], Some(0));
        assert_eq!(jt.parent[3], Some(0));
    }

    #[test]
    fn star_query_acyclic() {
        // R(x,y,z), S(x), T(y), U(z)
        let h = Hypergraph::from_edges(3, &[vec![0, 1, 2], vec![0], vec![1], vec![2]]);
        assert!(is_acyclic(&h));
    }

    #[test]
    fn cycle_of_ternary_edges_cyclic() {
        // R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1) — Example 6.6's query has a
        // Berge cycle through x1, x3, x5: α-cyclic.
        let h = Hypergraph::from_edges(6, &[vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 0]]);
        assert!(!is_acyclic(&h));
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::new(0);
        assert!(is_acyclic(&h));
    }

    #[test]
    fn duplicate_containment_chain() {
        let h = Hypergraph::from_edges(4, &[vec![0, 1, 2, 3], vec![0, 1], vec![0]]);
        let r = gyo_reduce(&h);
        let jt = r.join_tree.expect("acyclic");
        jt.validate(&h).unwrap();
    }
}
