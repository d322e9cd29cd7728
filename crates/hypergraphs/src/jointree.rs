//! Join trees: the acyclicity witness Yannakakis' algorithm walks.

use crate::hypergraph::{bits, Hypergraph};
use serde::{Deserialize, Serialize};

/// A join tree over the hyperedges `0..n_edges` of a hypergraph: a rooted
/// forest by parent links satisfying the *running intersection property* —
/// for every vertex, the edges containing it form a connected subtree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinTree {
    /// Number of hyperedges covered (tree nodes).
    pub n_edges: usize,
    /// Parent of each hyperedge (`None` for roots).
    pub parent: Vec<Option<usize>>,
}

impl JoinTree {
    /// A bottom-up ordering (children before parents): the post-order of
    /// a depth-first walk taking roots and children highest first. Two
    /// allocator calls for any tree: the walk climbs back by the parent
    /// links, so it keeps no stack.
    pub fn bottom_up_order(&self) -> Vec<usize> {
        let n = self.n_edges;
        // Each node's highest child and next lower sibling; the roots are
        // the children of node `n`.
        let mut links: Vec<(Option<usize>, Option<usize>)> = vec![(None, None); n + 1];
        for (u, p) in self.parent.iter().enumerate() {
            let p = p.unwrap_or(n);
            (links[u].1, links[p].0) = (links[p].0, Some(u));
        }
        let mut order = Vec::with_capacity(n);
        let mut next = links[n].0;
        while let Some(mut v) = next {
            while let Some(child) = links[v].0 {
                v = child;
            }
            order.push(v);
            while let (None, Some(p)) = (links[v].1, self.parent[v]) {
                order.push(p);
                v = p;
            }
            next = links[v].1;
        }
        order
    }

    /// Validates the running intersection property against a hypergraph,
    /// and that the parent links are acyclic.
    pub fn validate(&self, h: &Hypergraph) -> Result<(), String> {
        let n = self.n_edges;
        if n != h.edge_count() || self.parent.len() != n {
            return Err(format!(
                "join tree covers {n} edges, hypergraph has {}",
                h.edge_count()
            ));
        }
        // A chain of more than `n` parent links repeats an edge.
        if let Some(e) = (0..n).find(|&e| {
            std::iter::successors(Some(e), |&e| self.parent[e])
                .nth(n)
                .is_some()
        }) {
            return Err(format!("parent links cycle through edge {e}"));
        }
        let links = (0..n).filter_map(|e| Some((e, self.parent[e]?)));
        match split_vertex(h.n(), n, |e| h.row(e), links) {
            Some(v) => Err(format!(
                "vertex {v} occurs in disconnected parts of the join tree"
            )),
            None => Ok(()),
        }
    }
}

/// A vertex `0..n` that the forest `links` over `nodes` nodes does not
/// keep connected: in a forest, the nodes whose bag holds a vertex, less
/// the links between two of them, count the parts they fall in.
pub(crate) fn split_vertex<'a>(
    n: usize,
    nodes: usize,
    bag: impl Fn(usize) -> &'a [u64],
    links: impl Iterator<Item = (usize, usize)>,
) -> Option<usize> {
    let mut parts = vec![0i64; n];
    (0..nodes).for_each(|u| bits(bag(u)).for_each(|v| parts[v] += 1));
    for (a, b) in links {
        let both: Vec<u64> = bag(a).iter().zip(bag(b)).map(|(x, y)| x & y).collect();
        bits(&both).for_each(|v| parts[v] -= 1);
    }
    parts.iter().position(|&p| p > 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottom_up_visits_children_first() {
        // 0 <- 1 <- 2, 0 <- 3
        let jt = JoinTree {
            n_edges: 4,
            parent: vec![None, Some(0), Some(1), Some(0)],
        };
        let order = jt.bottom_up_order();
        let pos = |x: usize| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(2) < pos(1));
        assert!(pos(1) < pos(0));
        assert!(pos(3) < pos(0));
    }

    #[test]
    fn validate_running_intersection() {
        // Edges {0,1},{1,2},{2,3} in a path join tree: valid.
        let h = Hypergraph::from_edges(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let good = JoinTree {
            n_edges: 3,
            parent: vec![Some(1), None, Some(1)],
        };
        good.validate(&h).unwrap();
        // Star around edge 0 breaks it: vertex 2 occurs in edges 1 and 2,
        // which are siblings under 0 but 0 does not contain 2.
        let bad = JoinTree {
            n_edges: 3,
            parent: vec![None, Some(0), Some(0)],
        };
        assert!(bad.validate(&h).is_err());
    }

    #[test]
    fn validate_rejects_cycles() {
        let h = Hypergraph::from_edges(2, &[vec![0], vec![0]]);
        let bad = JoinTree {
            n_edges: 2,
            parent: vec![Some(1), Some(0)],
        };
        assert!(bad.validate(&h).is_err());
    }
}
