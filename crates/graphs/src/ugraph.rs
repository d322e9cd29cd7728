//! Simple undirected graphs (underlying graphs of digraphs, Gaifman graphs
//! of queries).

use crate::digraph::Digraph;
use cqapx_structures::Element;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A simple undirected graph on nodes `0..n`.
///
/// Loops are tracked separately: the **underlying graph** `Gᵘ` of a digraph
/// discards orientations, and for treewidth/coloring purposes loops matter
/// differently (a loop makes a digraph non-`k`-colorable for every `k`, but
/// the hypergraph of the atom `E(x,x)` is a single bag, so the query is
/// acyclic — see the discussion after Theorem 5.8 in the paper).
///
/// # Examples
///
/// ```
/// use cqapx_graphs::{Digraph, UGraph};
///
/// let d = Digraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 2)]);
/// let u = UGraph::underlying(&d);
/// assert_eq!(u.edge_count(), 2); // {0,1} and {1,2}
/// assert!(u.has_edge(1, 2) && !u.has_edge(0, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UGraph {
    n: usize,
    edges: BTreeSet<(Element, Element)>,
    loops: BTreeSet<Element>,
}

impl UGraph {
    /// An empty graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        UGraph {
            n,
            edges: BTreeSet::new(),
            loops: BTreeSet::new(),
        }
    }

    /// Builds from an edge list (unordered pairs; `(v, v)` records a loop).
    pub fn from_edges(n: usize, edges: &[(Element, Element)]) -> Self {
        let mut g = UGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// The underlying undirected graph `Gᵘ` of a digraph.
    pub fn underlying(d: &Digraph) -> Self {
        let mut g = UGraph::new(d.n());
        for (u, v) in d.edges() {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of non-loop edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge (normalized; `(v, v)` records a loop).
    pub fn add_edge(&mut self, u: Element, v: Element) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge out of range"
        );
        if u == v {
            self.loops.insert(u);
        } else {
            self.edges.insert((u.min(v), u.max(v)));
        }
    }

    /// Edge membership (ignores loops).
    pub fn has_edge(&self, u: Element, v: Element) -> bool {
        u != v && self.edges.contains(&(u.min(v), u.max(v)))
    }

    /// Iterates over the non-loop edges as `(min, max)` pairs.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (Element, Element)> + '_ {
        self.edges.iter().copied()
    }

    /// `true` when the graph (ignoring loops) is a forest.
    pub fn is_forest(&self) -> bool {
        !self.union_find().1
    }

    /// Connected components: `(count, component id per node)`, ids in
    /// the order of each component's least node.
    pub(crate) fn components(&self) -> (usize, Vec<u32>) {
        let mut comp = self.union_find().0;
        let mut count = 0;
        for v in 0..self.n {
            // A representative is its component's least node, so it is
            // numbered before any other member reads its id.
            let rep = comp[v] as usize;
            comp[v] = if rep == v {
                count += 1;
                count - 1
            } else {
                comp[rep]
            };
        }
        (count as usize, comp)
    }

    /// Union–find over the edges, in one buffer: each node's component
    /// representative (the component's least node), and whether some
    /// edge closed a cycle.
    fn union_find(&self) -> (Vec<u32>, bool) {
        let mut up: Vec<u32> = (0..self.n as u32).collect();
        let find = |up: &mut [u32], mut v: u32| {
            while up[v as usize] != v {
                up[v as usize] = up[up[v as usize] as usize];
                v = up[v as usize];
            }
            v
        };
        let mut cyclic = false;
        for &(u, v) in &self.edges {
            let (a, b) = (find(&mut up, u), find(&mut up, v));
            cyclic |= a == b;
            up[a.max(b) as usize] = a.min(b);
        }
        for v in 0..self.n as u32 {
            up[v as usize] = find(&mut up, v);
        }
        (up, cyclic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl UGraph {
        /// The complete graph `K_m`.
        pub(crate) fn complete(m: usize) -> Self {
            let mut g = UGraph::new(m);
            for u in 0..m as Element {
                for v in (u + 1)..m as Element {
                    g.add_edge(u, v);
                }
            }
            g
        }
    }

    #[test]
    fn underlying_discards_orientation() {
        let d = Digraph::from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        let u = UGraph::underlying(&d);
        assert_eq!(u.edge_count(), 2);
        assert!(u.has_edge(1, 0));
    }

    #[test]
    fn forest_detection() {
        assert!(UGraph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]).is_forest());
        assert!(!UGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).is_forest());
        // two-node double edge collapses in a simple graph: still forest
        assert!(UGraph::from_edges(2, &[(0, 1), (1, 0)]).is_forest());
        // loops don't affect forest-ness (hypergraph convention)
        assert!(UGraph::from_edges(2, &[(0, 1), (1, 1)]).is_forest());
        // empty graph
        assert!(UGraph::new(5).is_forest());
    }

    #[test]
    fn complete_graph() {
        let k4 = UGraph::complete(4);
        assert_eq!(k4.edge_count(), 6);
        assert!(!k4.is_forest());
    }

    #[test]
    fn components() {
        let g = UGraph::from_edges(5, &[(0, 1), (2, 3)]);
        let (n, comp) = g.components();
        assert_eq!(n, 3);
        assert_eq!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[4]);
    }
}
