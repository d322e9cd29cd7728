//! Hypertree width: a det-k-decomp style membership test.
//!
//! A *(generalized) hypertree decomposition* of `H = ⟨V, E⟩` is a tree
//! decomposition `(T, f)` plus an edge-labeling `c : T → 2^E` with
//! `f(u) ⊆ ⋃c(u)`; its width is `max |c(u)|`. Hypertree decompositions
//! additionally satisfy the "special condition"
//! `⋃c(u) ∩ ⋃{f(t) | t ∈ T_u} ⊆ f(u)`. `HTW(H) ≤ k` is decidable in
//! polynomial time for fixed `k` (Gottlob, Leone & Scarcello); we implement
//! their **det-k-decomp** backtracking scheme over edge-components, which
//! explores decompositions in normal form (where the special condition
//! holds by construction: every bag is `(⋃λ ∩ component) ∪ connector`).
//!
//! `HTW(1)` coincides with α-acyclicity; `htw_at_most(h, 1)` delegates to
//! the GYO reduction for speed and cross-checks the two paths in tests.

use crate::gyo;
use crate::hypergraph::{Hypergraph, Vertex};
use std::collections::{BTreeSet, HashMap};

/// One node of a hypertree decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HtdNode {
    /// The bag `f(u)`.
    pub bag: BTreeSet<Vertex>,
    /// The covering hyperedges `c(u)` (indices into the hypergraph).
    pub cover: Vec<usize>,
}

/// A hypertree decomposition (in det-k-decomp normal form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HypertreeDecomposition {
    /// Decomposition nodes.
    pub nodes: Vec<HtdNode>,
    /// Tree edges between node indices.
    pub tree_edges: Vec<(usize, usize)>,
}

impl HypertreeDecomposition {
    /// The width `max |c(u)|`.
    pub fn width(&self) -> usize {
        self.nodes.iter().map(|n| n.cover.len()).max().unwrap_or(0)
    }

    /// Validates the generalized-hypertree-decomposition conditions:
    /// `(T, f)` is a tree decomposition of `H` and `f(u) ⊆ ⋃c(u)` for all
    /// `u`. (The special condition holds by construction of the search and
    /// is not re-checked.)
    pub fn validate(&self, h: &Hypergraph) -> Result<(), String> {
        let nb = self.nodes.len();
        if nb == 0 {
            return if h.edge_count() == 0 {
                Ok(())
            } else {
                Err("empty decomposition for nonempty hypergraph".into())
            };
        }
        if self.tree_edges.len() + 1 != nb {
            return Err("decomposition is not a tree".into());
        }
        // f(u) ⊆ ∪ c(u)
        for (i, n) in self.nodes.iter().enumerate() {
            let cover: BTreeSet<Vertex> = n
                .cover
                .iter()
                .flat_map(|&e| h.edge(e).iter().copied())
                .collect();
            if !n.bag.is_subset(&cover) {
                return Err(format!("bag {i} not covered by its edge label"));
            }
        }
        // every hyperedge inside some bag
        for (ei, e) in h.edges().iter().enumerate() {
            if !self.nodes.iter().any(|n| e.is_subset(&n.bag)) {
                return Err(format!("hyperedge {ei} not inside any bag"));
            }
        }
        // connectivity of vertex occurrences (in the decomposition tree)
        let mut adj = vec![Vec::new(); nb];
        for &(a, b) in &self.tree_edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        for v in h.covered_vertices() {
            let occ: Vec<usize> = (0..nb)
                .filter(|&i| self.nodes[i].bag.contains(&v))
                .collect();
            if occ.is_empty() {
                return Err(format!("vertex {v} not in any bag"));
            }
            let mut seen = vec![false; nb];
            let mut stack = vec![occ[0]];
            seen[occ[0]] = true;
            let mut reached = 1;
            while let Some(u) = stack.pop() {
                for &w in &adj[u] {
                    if !seen[w] && self.nodes[w].bag.contains(&v) {
                        seen[w] = true;
                        reached += 1;
                        stack.push(w);
                    }
                }
            }
            if reached != occ.len() {
                return Err(format!("vertex {v} occurrences disconnected"));
            }
        }
        Ok(())
    }
}

type EdgeSet = BTreeSet<usize>;

struct Search<'a> {
    h: &'a Hypergraph,
    /// All candidate covers λ with 1 ≤ |λ| ≤ k, precomputed as
    /// (edge indices, union of vertices).
    covers: Vec<(Vec<usize>, BTreeSet<Vertex>)>,
    /// Memo: (component edges, connector) → success subtree root or
    /// known-failure.
    memo: HashMap<(EdgeSet, BTreeSet<Vertex>), Option<Subtree>>,
}

#[derive(Debug, Clone)]
struct Subtree {
    nodes: Vec<HtdNode>,
    edges: Vec<(usize, usize)>,
    root: usize,
}

impl<'a> Search<'a> {
    fn new(h: &'a Hypergraph, k: usize) -> Self {
        // Enumerate subsets of edges of size 1..=k.
        let m = h.edge_count();
        let mut covers = Vec::new();
        let mut stack: Vec<Vec<usize>> = (0..m).map(|i| vec![i]).collect();
        while let Some(set) = stack.pop() {
            let union: BTreeSet<Vertex> = set
                .iter()
                .flat_map(|&e| h.edge(e).iter().copied())
                .collect();
            if set.len() < k {
                for j in (set[set.len() - 1] + 1)..m {
                    let mut next = set.clone();
                    next.push(j);
                    stack.push(next);
                }
            }
            covers.push((set, union));
        }
        // Prefer small covers (finds width-minimal shapes faster).
        covers.sort_by_key(|(s, _)| s.len());
        Search {
            h,
            covers,
            memo: HashMap::new(),
        }
    }

    /// Edge-components of `comp_edges` relative to the bag `chi`: two edges
    /// are connected when they share a vertex outside `chi`.
    fn edge_components(&self, comp_edges: &EdgeSet, chi: &BTreeSet<Vertex>) -> Vec<EdgeSet> {
        let mut remaining: EdgeSet = comp_edges
            .iter()
            .copied()
            .filter(|&e| !self.h.edge(e).is_subset(chi))
            .collect();
        let mut out = Vec::new();
        while let Some(&start) = remaining.iter().next() {
            remaining.remove(&start);
            let mut comp: EdgeSet = [start].into_iter().collect();
            let mut frontier = vec![start];
            while let Some(e) = frontier.pop() {
                let outside: BTreeSet<Vertex> = self
                    .h
                    .edge(e)
                    .iter()
                    .copied()
                    .filter(|v| !chi.contains(v))
                    .collect();
                let adjacent: Vec<usize> = remaining
                    .iter()
                    .copied()
                    .filter(|&f| self.h.edge(f).iter().any(|v| outside.contains(v)))
                    .collect();
                for f in adjacent {
                    remaining.remove(&f);
                    comp.insert(f);
                    frontier.push(f);
                }
            }
            out.push(comp);
        }
        out
    }

    fn decompose(&mut self, comp_edges: &EdgeSet, connector: &BTreeSet<Vertex>) -> Option<Subtree> {
        let key = (comp_edges.clone(), connector.clone());
        if let Some(cached) = self.memo.get(&key) {
            return cached.clone();
        }
        let comp_vertices: BTreeSet<Vertex> = comp_edges
            .iter()
            .flat_map(|&e| self.h.edge(e).iter().copied())
            .collect();
        let mut result: Option<Subtree> = None;

        'covers: for ci in 0..self.covers.len() {
            let (lambda, union) = &self.covers[ci];
            // The connector must be covered.
            if !connector.is_subset(union) {
                continue;
            }
            // Normal-form bag: (∪λ ∩ component vertices) ∪ connector.
            let mut chi: BTreeSet<Vertex> = union.intersection(&comp_vertices).copied().collect();
            chi.extend(connector.iter().copied());
            // Progress: the bag must see into the component.
            if !comp_vertices.is_empty()
                && chi.intersection(&comp_vertices).count()
                    == connector.intersection(&comp_vertices).count()
                && !comp_edges.iter().all(|&e| self.h.edge(e).is_subset(&chi))
            {
                // λ adds nothing beyond the connector but does not finish
                // the component either: no progress.
                continue;
            }
            let lambda = lambda.clone();
            let chi_owned = chi.clone();
            let subcomponents = self.edge_components(comp_edges, &chi_owned);
            // Strict progress: every sub-component must be smaller.
            if subcomponents.iter().any(|c| c.len() >= comp_edges.len()) {
                continue;
            }
            let mut nodes = vec![HtdNode {
                bag: chi_owned.clone(),
                cover: lambda,
            }];
            let mut edges = Vec::new();
            for sub in subcomponents {
                let sub_vertices: BTreeSet<Vertex> = sub
                    .iter()
                    .flat_map(|&e| self.h.edge(e).iter().copied())
                    .collect();
                let sub_connector: BTreeSet<Vertex> =
                    sub_vertices.intersection(&chi_owned).copied().collect();
                match self.decompose(&sub, &sub_connector) {
                    None => continue 'covers,
                    Some(st) => {
                        let off = nodes.len();
                        nodes.extend(st.nodes);
                        edges.extend(st.edges.iter().map(|&(a, b)| (a + off, b + off)));
                        edges.push((0, st.root + off));
                    }
                }
            }
            result = Some(Subtree {
                nodes,
                edges,
                root: 0,
            });
            break;
        }

        self.memo.insert(key, result.clone());
        result
    }
}

/// Decides `htw(H) ≤ k`, returning a witness decomposition.
///
/// `k = 1` delegates to the GYO reduction (`HTW(1)` = α-acyclicity) and
/// materializes the join tree as a decomposition. For `k ≥ 2` this runs the
/// det-k-decomp search: polynomial for fixed `k` (the number of
/// (component, connector) pairs and covers is `O(m^k)`-bounded).
///
/// # Examples
///
/// ```
/// use cqapx_hypergraphs::{htw, Hypergraph};
///
/// let tri = Hypergraph::from_edges(3, &[vec![0, 1], vec![1, 2], vec![2, 0]]);
/// assert!(htw::htw_at_most(&tri, 1).is_none());
/// let d = htw::htw_at_most(&tri, 2).expect("triangle has htw 2");
/// assert!(d.width() <= 2);
/// d.validate(&tri).unwrap();
/// ```
pub fn htw_at_most(h: &Hypergraph, k: usize) -> Option<HypertreeDecomposition> {
    assert!(
        k >= 1,
        "hypertree width is at least 1 for nonempty hypergraphs"
    );
    if h.edge_count() == 0 {
        return Some(HypertreeDecomposition {
            nodes: Vec::new(),
            tree_edges: Vec::new(),
        });
    }
    if k == 1 {
        let r = gyo::gyo_reduce(h);
        let jt = r.join_tree?;
        // Each hyperedge becomes a node with itself as bag and cover.
        let nodes: Vec<HtdNode> = (0..h.edge_count())
            .map(|i| HtdNode {
                bag: h.edge(i).clone(),
                cover: vec![i],
            })
            .collect();
        let mut tree_edges: Vec<(usize, usize)> = jt
            .parent
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (i, p)))
            .collect();
        // Connect forest roots into one tree.
        let roots = jt.roots();
        for w in roots.windows(2) {
            tree_edges.push((w[0], w[1]));
        }
        let d = HypertreeDecomposition { nodes, tree_edges };
        debug_assert!(d.validate(h).is_ok(), "{:?}", d.validate(h));
        return Some(d);
    }

    let mut search = Search::new(h, k);
    let all: EdgeSet = (0..h.edge_count()).collect();
    let components = search.edge_components(&all, &BTreeSet::new());
    let mut nodes = Vec::new();
    let mut tree_edges = Vec::new();
    let mut roots = Vec::new();
    for comp in components {
        let st = search.decompose(&comp, &BTreeSet::new())?;
        let off = nodes.len();
        roots.push(st.root + off);
        nodes.extend(st.nodes);
        tree_edges.extend(st.edges.iter().map(|&(a, b)| (a + off, b + off)));
    }
    for w in roots.windows(2) {
        tree_edges.push((w[0], w[1]));
    }
    let d = HypertreeDecomposition { nodes, tree_edges };
    debug_assert!(d.validate(h).is_ok(), "{:?}", d.validate(h));
    Some(d)
}

/// The exact hypertree width (0 for edge-less hypergraphs).
pub fn hypertree_width(h: &Hypergraph) -> usize {
    if h.edge_count() == 0 {
        return 0;
    }
    for k in 1..=h.edge_count() {
        if htw_at_most(h, k).is_some() {
            return k;
        }
    }
    h.edge_count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_iff_htw1() {
        let cases = [
            (
                Hypergraph::from_edges(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]),
                true,
            ),
            (
                Hypergraph::from_edges(3, &[vec![0, 1], vec![1, 2], vec![2, 0]]),
                false,
            ),
            (
                Hypergraph::from_edges(3, &[vec![0, 1, 2], vec![0, 1], vec![1, 2], vec![0, 2]]),
                true,
            ),
        ];
        for (h, acyclic) in cases {
            assert_eq!(gyo::is_acyclic(&h), acyclic);
            assert_eq!(htw_at_most(&h, 1).is_some(), acyclic);
        }
    }

    #[test]
    fn triangle_width_2() {
        let tri = Hypergraph::from_edges(3, &[vec![0, 1], vec![1, 2], vec![2, 0]]);
        assert_eq!(hypertree_width(&tri), 2);
    }

    #[test]
    fn ternary_cycle_width_2() {
        // Example 6.6's query hypergraph: 3 ternary edges in a cycle.
        let h = Hypergraph::from_edges(6, &[vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 0]]);
        assert_eq!(hypertree_width(&h), 2);
        let d = htw_at_most(&h, 2).unwrap();
        d.validate(&h).unwrap();
    }

    #[test]
    fn long_cycle_width_2() {
        // Binary cycle of length 6: htw 2 (two opposite edges cover a bag).
        let edges: Vec<Vec<Vertex>> = (0..6).map(|i| vec![i, (i + 1) % 6]).collect();
        let h = Hypergraph::from_edges(6, &edges);
        assert_eq!(hypertree_width(&h), 2);
    }

    #[test]
    fn grid_2x3_width_2() {
        // 2x3 grid as binary edges: htw(grid) = 2.
        let mut edges = Vec::new();
        let id = |i: u32, j: u32| i * 3 + j;
        for i in 0..2u32 {
            for j in 0..3u32 {
                if j + 1 < 3 {
                    edges.push(vec![id(i, j), id(i, j + 1)]);
                }
                if i + 1 < 2 {
                    edges.push(vec![id(i, j), id(i + 1, j)]);
                }
            }
        }
        let h = Hypergraph::from_edges(6, &edges);
        let d = htw_at_most(&h, 2).expect("2x3 grid has htw 2");
        d.validate(&h).unwrap();
        assert!(htw_at_most(&h, 1).is_none());
    }

    #[test]
    fn closure_under_edge_extension() {
        // Lemma 6.4: extending an edge with fresh vertices preserves htw≤k.
        // The triangle with its edge {0,1} extended by 3, 4, 5.
        let ext = Hypergraph::from_edges(6, &[vec![0, 1, 3, 4, 5], vec![1, 2], vec![2, 0]]);
        assert_eq!(hypertree_width(&ext), 2);
        // The path 0-1-2 with its edge {1,2} extended by 3, 4.
        let ext = Hypergraph::from_edges(5, &[vec![0, 1], vec![1, 2, 3, 4]]);
        assert!(gyo::is_acyclic(&ext));
    }

    #[test]
    fn closure_under_induced() {
        // Lemma 6.4: induced subhypergraphs preserve htw ≤ k.
        let h = Hypergraph::from_edges(4, &[vec![0, 1, 2], vec![2, 3], vec![3, 0]]);
        let w = hypertree_width(&h);
        let keep: BTreeSet<Vertex> = [0, 2, 3].into_iter().collect();
        let (ind, _) = h.induced(&keep);
        assert!(hypertree_width(&ind) <= w);
    }

    #[test]
    fn empty_hypergraph_decomposition() {
        let h = Hypergraph::new(0);
        let d = htw_at_most(&h, 1).unwrap();
        d.validate(&h).unwrap();
        assert_eq!(hypertree_width(&h), 0);
    }
}
