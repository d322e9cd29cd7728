//! Directed graphs with conversions to/from relational structures.

use cqapx_structures::{Element, Structure, StructureBuilder, Vocabulary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A directed graph on nodes `0..n` (loops allowed, no parallel edges).
///
/// `Digraph` is a convenience view over relational structures of the
/// graphs vocabulary `{E/2}`: gadget construction and graph algorithms use
/// `Digraph`; the homomorphism machinery uses [`Structure`]. The two
/// convert losslessly.
///
/// # Examples
///
/// ```
/// use cqapx_graphs::Digraph;
///
/// let c3 = Digraph::cycle(3);
/// assert_eq!(c3.n(), 3);
/// assert!(c3.has_edge(2, 0));
/// let s = c3.to_structure();
/// assert_eq!(Digraph::from_structure(&s), c3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Digraph {
    n: usize,
    edges: BTreeSet<(Element, Element)>,
}

impl Digraph {
    /// An empty digraph on `n` nodes.
    pub fn new(n: usize) -> Self {
        Digraph {
            n,
            edges: BTreeSet::new(),
        }
    }

    /// Builds a digraph from an edge list.
    pub fn from_edges(n: usize, edges: &[(Element, Element)]) -> Self {
        let mut g = Digraph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// The directed cycle `0 → 1 → … → n-1 → 0`.
    pub fn cycle(n: usize) -> Self {
        let edges: Vec<(Element, Element)> = (0..n)
            .map(|i| (i as Element, ((i + 1) % n) as Element))
            .collect();
        Digraph::from_edges(n, &edges)
    }

    /// The directed path `P⃗_k` with `k` edges on `k+1` nodes.
    pub fn directed_path(k: usize) -> Self {
        let edges: Vec<(Element, Element)> =
            (0..k).map(|i| (i as Element, (i + 1) as Element)).collect();
        Digraph::from_edges(k + 1, &edges)
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node, returning its index.
    pub fn add_node(&mut self) -> Element {
        let v = self.n as Element;
        self.n += 1;
        v
    }

    /// Adds a directed edge (idempotent).
    ///
    /// # Panics
    ///
    /// Panics when an endpoint is out of range.
    pub fn add_edge(&mut self, u: Element, v: Element) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range 0..{}",
            self.n
        );
        self.edges.insert((u, v));
    }

    /// Edge membership.
    pub fn has_edge(&self, u: Element, v: Element) -> bool {
        self.edges.contains(&(u, v))
    }

    /// Iterates over the edges in sorted order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (Element, Element)> + Clone + '_ {
        self.edges.iter().copied()
    }

    /// The disjoint union; nodes of `other` are shifted by `self.n()`.
    pub fn disjoint_union(&self, other: &Digraph) -> Digraph {
        let off = self.n as Element;
        let mut g = self.clone();
        g.n += other.n;
        for (u, v) in other.edges() {
            g.edges.insert((u + off, v + off));
        }
        g
    }

    /// Glues another digraph into this one, identifying some of its nodes
    /// with existing nodes. `identify[i] = Some(v)` maps node `i` of
    /// `other` to existing node `v`; `None` allocates a fresh node.
    /// Returns the resulting position of every node of `other`.
    ///
    /// This is the workhorse for building the paper's gadgets, which are
    /// assembled by gluing copies of oriented paths at endpoints.
    pub fn glue(&mut self, other: &Digraph, identify: &[Option<Element>]) -> Vec<Element> {
        assert_eq!(identify.len(), other.n(), "one directive per node");
        let placed: Vec<Element> = identify
            .iter()
            .map(|slot| match slot {
                Some(v) => {
                    assert!((*v as usize) < self.n, "glue target out of range");
                    *v
                }
                None => self.add_node(),
            })
            .collect();
        for (u, v) in other.edges() {
            self.add_edge(placed[u as usize], placed[v as usize]);
        }
        placed
    }

    /// Identifies node `b` into node `a` (quotient by merging two nodes),
    /// compacting node indices. Returns the old→new node mapping.
    pub fn identify(&self, a: Element, b: Element) -> (Digraph, Vec<Element>) {
        let map: Vec<Element> = (0..self.n as Element)
            .map(|x| if x == b { a } else { x })
            .collect();
        // compact
        let mut used: Vec<Element> = map.clone();
        used.sort_unstable();
        used.dedup();
        let compact = |x: Element| used.binary_search(&map[x as usize]).unwrap() as Element;
        let mut g = Digraph::new(used.len());
        for (u, v) in self.edges() {
            g.add_edge(compact(u), compact(v));
        }
        let full_map: Vec<Element> = (0..self.n as Element).map(compact).collect();
        (g, full_map)
    }

    /// Converts to a relational structure over the graphs vocabulary.
    pub fn to_structure(&self) -> Structure {
        let vocab = Vocabulary::graphs();
        let e = vocab.rel("E").expect("graphs vocabulary");
        let mut b = StructureBuilder::new(vocab, self.n);
        for (u, v) in self.edges() {
            b.add(e, &[u, v]);
        }
        b.finish()
    }

    /// Reads a digraph back from a structure over the graphs vocabulary.
    ///
    /// # Panics
    ///
    /// Panics when the vocabulary is not `{E/2}`.
    pub fn from_structure(s: &Structure) -> Digraph {
        let e = s
            .vocabulary()
            .rel("E")
            .expect("structure must be over the graphs vocabulary");
        assert_eq!(s.vocabulary().arity(e), 2);
        let mut g = Digraph::new(s.universe_size());
        for t in s.tuples(e) {
            g.add_edge(t[0], t[1]);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treewidth::BitGraph;

    impl Digraph {
        /// Out-neighbours of a node.
        pub(crate) fn successors(&self, u: Element) -> Vec<Element> {
            self.edges
                .range((u, 0)..=(u, Element::MAX))
                .map(|&(_, v)| v)
                .collect()
        }

        /// Reverses every edge.
        pub(crate) fn reverse(&self) -> Digraph {
            let mut g = Digraph::new(self.n);
            for (u, v) in self.edges() {
                g.add_edge(v, u);
            }
            g
        }
    }

    #[test]
    fn cycle_and_path() {
        let c = Digraph::cycle(4);
        assert_eq!(c.edge_count(), 4);
        assert!(c.has_edge(3, 0));
        let p = Digraph::directed_path(3);
        assert_eq!(p.n(), 4);
        assert_eq!(p.edge_count(), 3);
    }

    #[test]
    fn structure_roundtrip() {
        let g = Digraph::from_edges(3, &[(0, 1), (1, 1), (2, 0)]);
        let s = g.to_structure();
        assert_eq!(Digraph::from_structure(&s), g);
    }

    #[test]
    fn glue_paths() {
        // Glue a path of 2 edges between existing nodes 0 and 1.
        let mut g = Digraph::new(2);
        let p = Digraph::directed_path(2);
        let placed = g.glue(&p, &[Some(0), None, Some(1)]);
        assert_eq!(placed[0], 0);
        assert_eq!(placed[2], 1);
        assert_eq!(g.n(), 3);
        assert!(g.has_edge(0, placed[1]));
        assert!(g.has_edge(placed[1], 1));
    }

    #[test]
    fn identify_merges_and_compacts() {
        let g = Digraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (h, map) = g.identify(0, 2);
        assert_eq!(h.n(), 3);
        assert_eq!(map[0], map[2]);
        // C4 with opposite nodes identified: edges (0,1),(1,0),(0,3'),(3',0)
        assert_eq!(h.edge_count(), 4);
    }

    #[test]
    fn weak_components() {
        let g = Digraph::from_edges(5, &[(0, 1), (2, 3)]);
        let (n, comp) = BitGraph::underlying(&g).components();
        assert_eq!(n, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
    }

    #[test]
    fn successors_predecessors() {
        let g = Digraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.successors(0), vec![1, 2]);
        assert_eq!(g.successors(1), vec![2]);
        assert!(g.successors(2).is_empty());
    }

    #[test]
    fn reverse() {
        let g = Digraph::from_edges(2, &[(0, 1)]);
        assert!(g.reverse().has_edge(1, 0));
    }

    #[test]
    fn disjoint_union_shifts() {
        let g = Digraph::cycle(3).disjoint_union(&Digraph::cycle(2));
        assert_eq!(g.n(), 5);
        assert!(g.has_edge(3, 4));
        assert!(g.has_edge(4, 3));
    }
}
