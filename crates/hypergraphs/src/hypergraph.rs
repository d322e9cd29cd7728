//! The hypergraph type and the paper's closure operations.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A vertex of a hypergraph.
pub type Vertex = u32;

/// A finite hypergraph `H = ⟨V, E⟩` on vertices `0..n`.
///
/// Hyperedges are kept as sorted sets; duplicates are retained in insertion
/// order only once (set semantics). Empty hyperedges are not allowed.
///
/// # Examples
///
/// ```
/// use cqapx_hypergraphs::Hypergraph;
///
/// // H(Q) for Q() :- R(x,y,z), R(x,v,v), E(v,z): hyperedges
/// // {x,y,z}, {x,v}, {v,z} (the paper's Section 3 example).
/// let h = Hypergraph::from_edges(4, &[vec![0, 1, 2], vec![0, 3], vec![3, 2]]);
/// assert_eq!(h.n(), 4);
/// assert_eq!(h.edge_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Hypergraph {
    n: usize,
    edges: Vec<BTreeSet<Vertex>>,
}

impl Hypergraph {
    /// An edge-less hypergraph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Hypergraph {
            n,
            edges: Vec::new(),
        }
    }

    /// Builds from an edge list (each edge a list of vertices): the
    /// hypergraph `H(Q)` of a query's atoms or of a tableau's tuples.
    ///
    /// # Panics
    ///
    /// Panics on empty edges or out-of-range vertices.
    pub fn from_edges<E: AsRef<[Vertex]>>(n: usize, edges: impl IntoIterator<Item = E>) -> Self {
        let mut h = Hypergraph::new(n);
        for e in edges {
            h.add_edge(e.as_ref());
        }
        h
    }

    /// Adds a hyperedge (idempotent on equal vertex sets).
    pub fn add_edge(&mut self, vertices: &[Vertex]) {
        assert!(!vertices.is_empty(), "hyperedges must be nonempty");
        for &v in vertices {
            assert!((v as usize) < self.n, "vertex {v} out of range");
        }
        let set: BTreeSet<Vertex> = vertices.iter().copied().collect();
        if !self.edges.contains(&set) {
            self.edges.push(set);
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of hyperedges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The hyperedges.
    pub fn edges(&self) -> &[BTreeSet<Vertex>] {
        &self.edges
    }

    /// One hyperedge.
    pub fn edge(&self, i: usize) -> &BTreeSet<Vertex> {
        &self.edges[i]
    }

    /// The **induced subhypergraph** on `V' ⊆ V`:
    /// `⟨V', {e ∩ V' | e ∈ E}⟩` (empty intersections dropped, vertices
    /// renumbered densely). Returns the subhypergraph and the old→new
    /// vertex map.
    ///
    /// One of the two closure operations of the paper's Theorem 6.1 /
    /// Lemma 6.4.
    pub fn induced(&self, keep: &BTreeSet<Vertex>) -> (Hypergraph, Vec<Option<Vertex>>) {
        let mut remap: Vec<Option<Vertex>> = vec![None; self.n];
        for (new, &old) in keep.iter().enumerate() {
            assert!((old as usize) < self.n, "vertex {old} out of range");
            remap[old as usize] = Some(new as Vertex);
        }
        let mut h = Hypergraph::new(keep.len());
        for e in &self.edges {
            let inter: Vec<Vertex> = e.iter().filter_map(|&v| remap[v as usize]).collect();
            if !inter.is_empty() {
                h.add_edge(&inter);
            }
        }
        (h, remap)
    }

    /// Vertices that occur in at least one hyperedge.
    pub(crate) fn covered_vertices(&self) -> BTreeSet<Vertex> {
        self.edges.iter().flat_map(|e| e.iter().copied()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn induced_subhypergraph() {
        // The paper's Section 6 example: H with {a,b,c},{a,b},{b,c},{a,c};
        // the induced subhypergraph on {a,b,c} is H itself.
        let h = Hypergraph::from_edges(3, &[vec![0, 1, 2], vec![0, 1], vec![1, 2], vec![0, 2]]);
        let all: BTreeSet<Vertex> = [0, 1, 2].into_iter().collect();
        let (ind, _) = h.induced(&all);
        assert_eq!(ind.edge_count(), 4);
        // Induced on {a, b}: edges {a,b} (from both {a,b,c} and {a,b}),
        // {b}, {a}.
        let ab: BTreeSet<Vertex> = [0, 1].into_iter().collect();
        let (ind, remap) = h.induced(&ab);
        assert_eq!(ind.n(), 2);
        assert_eq!(ind.edge_count(), 3); // {0,1}, {1}, {0}
        assert_eq!(remap[2], None);
    }

    #[test]
    fn dedup_edges() {
        let h = Hypergraph::from_edges(2, &[vec![0, 1], vec![1, 0]]);
        assert_eq!(h.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_edge_rejected() {
        let _ = Hypergraph::from_edges(2, &[vec![]]);
    }
}
