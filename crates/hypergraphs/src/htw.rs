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
//! `HTW(1)` coincides with α-acyclicity, and the tests check
//! `htw_at_most(h, 1)` against the GYO reduction.
//!
//! The search runs on words: a component is a bit row over the edges,
//! and a bag χ, a connector and a cover's union `⋃λ` are rows over the
//! vertices, like the hypergraph's. The memo, an `FxHashMap` keyed by a
//! component's words and then its connector's, keeps the first cover
//! that decomposes the pair (or that none does); the decomposition is
//! read off it once the search succeeds.

use crate::hypergraph::{bits, Hypergraph};
use crate::jointree::split_vertex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One node of a hypertree decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HtdNode {
    /// The bag `f(u)`, a bit row like [`Hypergraph::row`].
    pub bag: Vec<u64>,
    /// The covering hyperedges `c(u)` (indices into the hypergraph).
    pub cover: Vec<usize>,
}

/// A hypertree decomposition (in det-k-decomp normal form).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
        if nb == 0 && h.edge_count() > 0 {
            return Err("empty decomposition for nonempty hypergraph".into());
        }
        // `nb − 1` edges that close no cycle make a tree.
        let mut up: Vec<usize> = (0..nb).collect();
        let root = |up: &[usize], mut i: usize| {
            while up[i] != i {
                i = up[i];
            }
            i
        };
        let tree = self.tree_edges.iter().all(|&(a, b)| {
            let (a, b) = (root(&up, a), root(&up, b));
            up[a] = b;
            a != b
        });
        if nb > 0 && !(tree && self.tree_edges.len() + 1 == nb) {
            return Err("decomposition is not a tree".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let cover = n
                .cover
                .iter()
                .fold(vec![0; h.words], |c, &e| or(c, h.row(e)));
            if !subset(&n.bag, &cover) {
                return Err(format!("bag {i} not covered by its edge label"));
            }
        }
        let inside = |e: usize| self.nodes.iter().any(|n| subset(h.row(e), &n.bag));
        if let Some(e) = (0..h.edge_count()).find(|&e| !inside(e)) {
            return Err(format!("hyperedge {e} not inside any bag"));
        }
        let links = self.tree_edges.iter().copied();
        match split_vertex(h.n(), nb, |u| &self.nodes[u].bag, links) {
            Some(v) => Err(format!("vertex {v} occurrences disconnected")),
            None => Ok(()),
        }
    }
}

fn or(mut acc: Vec<u64>, row: &[u64]) -> Vec<u64> {
    acc.iter_mut().zip(row).for_each(|(a, &r)| *a |= r);
    acc
}

fn and(mut acc: Vec<u64>, row: &[u64]) -> Vec<u64> {
    acc.iter_mut().zip(row).for_each(|(a, &r)| *a &= r);
    acc
}

/// `a ⊆ b`, as rows.
fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
}

/// The rustc `FxHash` mix of `cqapx_structures::fxhash` (a crate this
/// one does not depend on), for the memo's word keys.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let word = chunk.iter().rev().fold(0, |w, &b| w << 8 | b as u64);
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

struct Search<'a> {
    h: &'a Hypergraph,
    /// Words per edge set.
    ew: usize,
    /// Every cover λ with 1 ≤ |λ| ≤ k, smallest first (finds
    /// width-minimal shapes faster), and `⋃λ` of cover `c` as row `c` of
    /// `unions`.
    lambdas: Vec<Vec<usize>>,
    unions: Vec<u64>,
    /// (component, connector) → the first cover that decomposes it.
    memo: HashMap<Box<[u64]>, Option<usize>, BuildHasherDefault<Fx>>,
}

impl<'a> Search<'a> {
    fn new(h: &'a Hypergraph, k: usize) -> Self {
        // Enumerate subsets of edges of size 1..=k.
        let m = h.edge_count();
        let mut lambdas = Vec::new();
        let mut stack: Vec<Vec<usize>> = (0..m).map(|i| vec![i]).collect();
        while let Some(set) = stack.pop() {
            if set.len() < k {
                for j in (set[set.len() - 1] + 1)..m {
                    let mut next = set.clone();
                    next.push(j);
                    stack.push(next);
                }
            }
            lambdas.push(set);
        }
        lambdas.sort_by_key(|s| s.len());
        let union = |lambda: &Vec<usize>| {
            lambda
                .iter()
                .fold(vec![0; h.words], |u, &e| or(u, h.row(e)))
        };
        let unions = lambdas.iter().flat_map(union).collect();
        let memo = HashMap::default();
        Search {
            h,
            ew: m.div_ceil(64),
            lambdas,
            unions,
            memo,
        }
    }

    /// The vertices of the edges in `edges`.
    fn vertices(&self, edges: &[u64]) -> Vec<u64> {
        bits(edges).fold(vec![0; self.h.words], |u, e| or(u, self.h.row(e)))
    }

    /// The edge-components of `comp` under the bag `chi`, `ew` words
    /// each, by lowest edge: the edges not inside `chi`, two connected
    /// when they share a vertex outside it.
    fn edge_components(&self, comp: &[u64], chi: &[u64]) -> Vec<u64> {
        let h = self.h;
        let mut left: Vec<usize> = bits(comp).filter(|&e| !subset(h.row(e), chi)).collect();
        let mut out = Vec::new();
        while !left.is_empty() {
            let base = out.len();
            out.resize(base + self.ew, 0);
            let mut frontier = vec![left.remove(0)];
            while let Some(e) = frontier.pop() {
                out[base + e / 64] |= 1 << (e % 64);
                let rows = |f: &mut usize| h.row(e).iter().zip(h.row(*f)).zip(chi);
                frontier
                    .extend(left.extract_if(.., |f| rows(f).any(|((&a, &b), &c)| a & b & !c != 0)));
            }
        }
        out
    }

    /// Cover `c`'s normal-form bag on a component with vertices
    /// `vertices`: `(⋃λ ∩ vertices) ∪ connector`.
    fn bag(&self, c: usize, vertices: &[u64], connector: &[u64]) -> Vec<u64> {
        let union = &self.unions[c * self.h.words..][..self.h.words];
        let parts = union.iter().zip(vertices).zip(connector);
        parts.map(|((&u, &v), &x)| (u & v) | x).collect()
    }

    /// Whether `comp` has a decomposition whose root bag holds
    /// `connector`, memoized.
    fn decompose(&mut self, comp: &[u64], connector: &[u64]) -> bool {
        let key: Box<[u64]> = comp.iter().chain(connector).copied().collect();
        if let Some(found) = self.memo.get(&key) {
            return found.is_some();
        }
        let (vertices, edges, ew) = (self.vertices(comp), bits(comp).count(), self.ew);
        let found = (0..self.lambdas.len()).find(|&c| {
            // The connector must be covered.
            if !subset(connector, &self.unions[c * self.h.words..][..self.h.words]) {
                return false;
            }
            // Progress: the bag sees into the component beyond the
            // connector, or holds all of it.
            let chi = self.bag(c, &vertices, connector);
            let sees =
                (chi.iter().zip(&vertices).zip(connector)).any(|((&x, &v), &k)| x & v & !k != 0);
            if !sees && !bits(comp).all(|e| subset(self.h.row(e), &chi)) {
                return false;
            }
            // Strict progress: every sub-component must be smaller.
            let subs = self.edge_components(comp, &chi);
            if subs.chunks(ew).any(|s| bits(s).count() >= edges) {
                return false;
            }
            subs.chunks(ew).all(|sub| {
                let connector = and(self.vertices(sub), &chi);
                self.decompose(sub, &connector)
            })
        });
        self.memo.insert(key, found);
        found.is_some()
    }

    /// Appends the decomposition of a decomposed `comp` under
    /// `connector` to `d`, read off the memo; returns its root node.
    fn build(&self, comp: &[u64], connector: &[u64], d: &mut HypertreeDecomposition) -> usize {
        let key: Box<[u64]> = comp.iter().chain(connector).copied().collect();
        let c = self.memo[&key].expect("decomposed");
        let bag = self.bag(c, &self.vertices(comp), connector);
        let (root, subs) = (d.nodes.len(), self.edge_components(comp, &bag));
        d.nodes.push(HtdNode {
            bag,
            cover: self.lambdas[c].clone(),
        });
        for sub in subs.chunks(self.ew) {
            let connector = and(self.vertices(sub), &d.nodes[root].bag);
            let child = self.build(sub, &connector, d);
            d.tree_edges.push((root, child));
        }
        root
    }
}

/// Decides `htw(H) ≤ k`, returning a witness decomposition: det-k-decomp,
/// polynomial for fixed `k` (the number of (component, connector) pairs
/// and covers is `O(m^k)`-bounded).
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
    let mut d = HypertreeDecomposition::default();
    if h.edge_count() == 0 {
        return Some(d);
    }
    let mut search = Search::new(h, k);
    let (ew, none) = (search.ew, vec![0; h.words]);
    let mut all = vec![u64::MAX; ew];
    all[ew - 1] >>= (64 - h.edge_count() % 64) % 64;
    let components = search.edge_components(&all, &none);
    if !components
        .chunks(ew)
        .all(|comp| search.decompose(comp, &none))
    {
        return None;
    }
    let roots: Vec<usize> = (components.chunks(ew))
        .map(|comp| search.build(comp, &none, &mut d))
        .collect();
    d.tree_edges.extend(roots.windows(2).map(|w| (w[0], w[1])));
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
    use crate::gyo;

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
        let edges: Vec<Vec<u32>> = (0..6).map(|i| vec![i, (i + 1) % 6]).collect();
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
        let keep: std::collections::BTreeSet<u32> = [0, 2, 3].into_iter().collect();
        let (ind, _) = h.induced(&keep);
        assert!(hypertree_width(&ind) <= w);
    }

    #[test]
    fn empty_hypergraph_decomposition() {
        let h = Hypergraph::from_edges(0, Vec::<Vec<u32>>::new());
        let d = htw_at_most(&h, 1).unwrap();
        d.validate(&h).unwrap();
        assert_eq!(hypertree_width(&h), 0);
    }
}
