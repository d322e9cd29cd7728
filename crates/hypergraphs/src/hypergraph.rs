//! The hypergraph type and the paper's closure operations.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A vertex of a hypergraph.
pub type Vertex = u32;

/// A finite hypergraph `H = ⟨V, E⟩` on vertices `0..n`.
///
/// Each hyperedge is a bit row of `⌈n / 64⌉` words, vertex `v` at bit
/// `v % 64` of word `v / 64`, and the rows sit end to end in one buffer,
/// as in `cqapx_graphs::BitGraph`. An edge equal to an earlier one is
/// dropped; empty hyperedges are not allowed.
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
/// assert!(h.edge(1).eq([0, 3]));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Hypergraph {
    n: usize,
    pub(crate) words: usize,
    rows: Vec<u64>,
}

impl Hypergraph {
    /// Builds from an edge list (each edge a list of vertices): the
    /// hypergraph `H(Q)` of a query's atoms or of a tableau's tuples.
    ///
    /// # Panics
    ///
    /// Panics on empty edges or out-of-range vertices.
    pub fn from_edges<E: AsRef<[Vertex]>>(
        n: usize,
        edges: impl IntoIterator<Item = E, IntoIter: Clone>,
    ) -> Self {
        let mut h = Hypergraph::default();
        h.refill(n, edges);
        h
    }

    /// Makes `self` the hypergraph `from_edges(n, edges)` in its own row
    /// buffer, sized by a first pass over `edges`, and returns it:
    /// checking many hypergraphs in turn allocates only when one
    /// outgrows the buffer.
    pub fn refill<E: AsRef<[Vertex]>>(
        &mut self,
        n: usize,
        edges: impl IntoIterator<Item = E, IntoIter: Clone>,
    ) -> &Self {
        let edges = edges.into_iter();
        (self.n, self.words) = (n, n.div_ceil(64));
        self.rows.clear();
        self.rows.reserve(edges.clone().count() * self.words);
        for e in edges {
            assert!(!e.as_ref().is_empty(), "hyperedges must be nonempty");
            self.push_row(e.as_ref().iter().copied());
        }
        self
    }

    /// Appends the row of `vertices` unless it is empty or repeats one.
    fn push_row(&mut self, vertices: impl Iterator<Item = Vertex>) {
        let start = self.rows.len();
        self.rows.resize(start + self.words, 0);
        for v in vertices {
            assert!((v as usize) < self.n, "vertex {v} out of range");
            self.rows[start + v as usize / 64] |= 1 << (v % 64);
        }
        let (earlier, row) = self.rows.split_at(start);
        // Word by word: a slice `==` would call `memcmp` per earlier row.
        let equal = |r: &[u64]| r.iter().zip(row).all(|(a, b)| a == b);
        if row.iter().all(|&w| w == 0) || earlier.chunks_exact(self.words).any(equal) {
            self.rows.truncate(start);
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of hyperedges.
    pub fn edge_count(&self) -> usize {
        self.rows.len().checked_div(self.words).unwrap_or(0)
    }

    /// Hyperedge `i` as a bit row.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words..][..self.words]
    }

    /// The vertices of hyperedge `i`, ascending.
    pub fn edge(&self, i: usize) -> impl Iterator<Item = Vertex> + '_ {
        bits(self.row(i)).map(|v| v as Vertex)
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
        let (n, rows) = (keep.len(), Vec::new());
        let mut h = Hypergraph {
            n,
            words: n.div_ceil(64),
            rows,
        };
        for i in 0..self.edge_count() {
            h.push_row(self.edge(i).filter_map(|v| remap[v as usize]));
        }
        (h, remap)
    }
}

/// The set bits of a row, ascending.
pub(crate) fn bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    let (mut k, mut word) = (0, row.first().copied().unwrap_or(0));
    std::iter::from_fn(move || {
        while word == 0 {
            k += 1;
            word = *row.get(k)?;
        }
        let bit = word.trailing_zeros() as usize;
        word &= word - 1;
        Some(k * 64 + bit)
    })
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
    fn rows_span_words() {
        let h = Hypergraph::from_edges(130, &[vec![129, 0, 64], vec![63]]);
        assert_eq!(h.words, 3);
        assert_eq!(h.row(0), [1, 1, 2]);
        assert!(h.edge(0).eq([0, 64, 129]));
        assert!(h.edge(1).eq([63]));
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_edge_rejected() {
        let _ = Hypergraph::from_edges(2, &[vec![]]);
    }
}
