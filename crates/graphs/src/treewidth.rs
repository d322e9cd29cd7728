//! Treewidth: exact decision procedure and tree decompositions.
//!
//! `TW(k)` — CQs whose Gaifman graph has treewidth at most `k` — is the
//! graph-based tractable class of the paper (Grohe, Schwentick & Segoufin:
//! for graph-based classes, bounded treewidth *characterizes* tractable CQ
//! evaluation). Membership `tw(G) ≤ k` is decidable in linear time for
//! fixed `k` (Bodlaender); here we implement an exact elimination-order
//! branch-and-bound with memoization, plus the special cases the paper
//! leans on:
//!
//! * `tw ≤ 1` ⇔ the graph is a forest (loops ignored — the hypergraph of a
//!   loop atom `E(x,x)` is a single hyperedge, hence acyclic);
//! * loop-free graphs of treewidth ≤ k are `(k+1)`-colorable (used in
//!   Theorem 5.10).
//!
//! The exact search is exponential in the worst case but instantaneous on
//! query-sized graphs (approximation candidates never exceed `|Q|` nodes).
//!
//! One graph type, [`BitGraph`], and three entries over it:
//! [`treewidth_at_most`] returns a witness decomposition;
//! [`min_width_decomposition`] returns one of the exact width, found in
//! the same search that finds the width;
//! [`BitGraph::treewidth_at_most`] only decides, after removing vertices
//! of degree ≤ 2 (Arnborg & Proskurowski; complete for `k = 2`). **The
//! 64-vertex rule:** the search keeps vertex sets in one `u64`, so a
//! component — for the decision, what the reductions leave — of more than
//! 64 vertices is *not certified*: the answer is `None`, never a panic.
//! Up to 64 vertices the search runs on the graph's own rows, one word
//! each; a [`TreeDecomposition`] keeps its bags as bit rows in one buffer.

use crate::digraph::Digraph;
use cqapx_structures::fxhash::FxHashSet;
use cqapx_structures::Element;

/// A tree decomposition of a graph on `0..n`: bags plus tree edges
/// between bag indices. Each bag is one bit row over the vertices, all
/// rows in one buffer as in `Hypergraph`; [`TreeDecomposition::bag`]
/// reads a bag's vertices, ascending. A row has `⌈n/64⌉` words (at least
/// one): past 64 vertices it spans several, though the search builds no
/// component of more than 64 (the module's 64-vertex rule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeDecomposition {
    n: usize,
    words: usize,
    rows: Vec<u64>,
    /// Edges of the decomposition tree (pairs of bag indices).
    pub tree_edges: Vec<(usize, usize)>,
}

/// A [`TreeDecomposition`] oriented for plan compilation: parent links
/// and a bottom-up traversal order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedDecomposition {
    /// Parent bag of each bag (`None` exactly for the root).
    pub parent: Vec<Option<usize>>,
    /// Bottom-up traversal order: children before parents, root last.
    pub order: Vec<usize>,
}

impl TreeDecomposition {
    /// No bags yet over `0..n`, with room for `bags` bags in a tree.
    fn with_room(n: usize, bags: usize) -> TreeDecomposition {
        let words = n.div_ceil(64).max(1);
        let rows = Vec::with_capacity(bags * words);
        let tree_edges = Vec::with_capacity(bags.saturating_sub(1));
        TreeDecomposition {
            n,
            words,
            rows,
            tree_edges,
        }
    }

    /// The decomposition of a graph on `0..n` with the given bags (each
    /// a list of vertices) and tree edges.
    ///
    /// # Panics
    ///
    /// Panics on a bag vertex not below `n`.
    pub fn from_bags<B: AsRef<[Element]>>(
        n: usize,
        bags: impl IntoIterator<Item = B>,
        tree_edges: Vec<(usize, usize)>,
    ) -> TreeDecomposition {
        let mut td = TreeDecomposition::with_room(n, 0);
        td.tree_edges = tree_edges;
        for bag in bags {
            let row = td.push_row();
            for &v in bag.as_ref() {
                assert!((v as usize) < n, "bag vertex {v} out of range");
                row[v as usize / 64] |= 1 << (v % 64);
            }
        }
        td
    }

    /// Appends an empty bag and returns its row.
    fn push_row(&mut self) -> &mut [u64] {
        let at = self.rows.len();
        self.rows.resize(at + self.words, 0);
        &mut self.rows[at..]
    }

    /// Number of bags.
    pub fn bag_count(&self) -> usize {
        self.rows.len() / self.words
    }

    /// Bag `i` as a bit row over the vertices.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words..][..self.words]
    }

    /// The vertices of bag `i`, ascending.
    pub fn bag(&self, i: usize) -> impl Iterator<Item = Element> + '_ {
        let row = self.row(i);
        (0..row.len()).flat_map(move |w| ones(row[w]).map(move |b| (w * 64 + b) as Element))
    }

    /// The number of vertices in bag `i`.
    pub fn bag_len(&self, i: usize) -> usize {
        self.row(i).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when bag `i` holds vertex `v`.
    pub fn contains(&self, i: usize, v: Element) -> bool {
        (v as usize) < self.n && self.rows[i * self.words + v as usize / 64] >> (v % 64) & 1 == 1
    }

    /// Orients the decomposition tree at `root`. Deterministic: the same
    /// decomposition and root always yield the same rooted form. The
    /// neighbour lists and the stack live in `scratch`: after
    /// [`Self::heights`], one buffer of `4 ·` bags words serves both.
    ///
    /// # Panics
    ///
    /// Panics when `root` is not a bag or the edge list is not a tree
    /// over all bags (which [`treewidth_at_most`] guarantees, and
    /// `validate` checks).
    pub fn rooted_at(&self, root: usize, scratch: &mut Vec<usize>) -> RootedDecomposition {
        let n = self.bag_count();
        assert!(root < n, "root {root} is not one of {n} bags");
        // Both directions of every edge as `n · from + to`, sorted: a
        // bag's neighbours are one run, in ascending order.
        let both = |&(a, b): &(usize, usize)| [a * n + b, b * n + a];
        scratch.clear();
        scratch.extend(self.tree_edges.iter().flat_map(both));
        scratch.sort_unstable();
        let m = scratch.len();
        let mut parent: Vec<Option<usize>> = vec![None; n];
        // Only the root is reached without getting a parent.
        let seen = |parent: &[Option<usize>], w: usize| w == root || parent[w].is_some();
        // Iterative DFS from the root, its stack after the lists (`2v` to
        // expand bag `v`, `2v + 1` to emit it); `order` collects the
        // post-order, which is exactly a bottom-up (children-before-
        // parents) order.
        let mut order = Vec::with_capacity(n);
        scratch.push(2 * root);
        while scratch.len() > m {
            let top = scratch.pop().expect("the stack is not empty");
            let v = top / 2;
            if top % 2 == 1 {
                order.push(v);
                continue;
            }
            scratch.push(2 * v + 1);
            let run = |v: usize| scratch[..m].partition_point(|&e| e < v * n);
            for i in run(v)..run(v + 1) {
                let w = scratch[i] % n;
                if !seen(&parent, w) {
                    parent[w] = Some(v);
                    scratch.push(2 * w);
                }
            }
        }
        assert_eq!(order.len(), n, "decomposition tree must be connected");
        RootedDecomposition { parent, order }
    }

    /// The height of the tree rooted at each bag: the number of edges on
    /// the longest path from that bag to a leaf. In a tree the bag
    /// farthest from any bag is an end of a longest path, and a second
    /// sweep from that end finds the other, so three distance sweeps
    /// give every height: the distance to the farther end. They are left
    /// in `scratch`, which holds the three sweeps side by side and their
    /// queue on the way.
    pub fn heights<'s>(&self, scratch: &'s mut Vec<usize>) -> &'s [usize] {
        let n = self.bag_count();
        scratch.clear();
        scratch.resize(3 * n, usize::MAX);
        // A breadth-first sweep from `from` into `scratch[dist..dist + n]`.
        let sweep = |scratch: &mut Vec<usize>, dist: usize, from: usize| {
            scratch.truncate(3 * n);
            scratch[dist + from] = 0;
            scratch.push(from);
            let mut next = 3 * n;
            while let Some(&u) = scratch.get(next) {
                next += 1;
                for &(a, b) in &self.tree_edges {
                    let w = match (a == u, b == u) {
                        (true, _) => b,
                        (_, true) => a,
                        _ => continue,
                    };
                    if scratch[dist + w] == usize::MAX {
                        scratch[dist + w] = scratch[dist + u] + 1;
                        scratch.push(w);
                    }
                }
            }
        };
        let mut from = 0;
        for dist in [0, n, 2 * n].into_iter().filter(|_| n > 0) {
            sweep(scratch, dist, from);
            from = (0..n).max_by_key(|&b| scratch[dist + b]).expect("a bag");
        }
        for b in 0..n {
            scratch[b] = scratch[n + b].max(scratch[2 * n + b]);
        }
        scratch.truncate(n);
        scratch
    }

    /// The decomposition with every bag that is contained in a tree
    /// neighbour contracted into that neighbour, until none is left
    /// ([`treewidth_at_most`] emits one bag per eliminated vertex: a
    /// triangle comes out as `{0,1,2} – {1,2} – {2}`). Contracting an
    /// edge whose one end is a subset of the other keeps all three
    /// decomposition conditions and the larger bag, so the width is
    /// unchanged and the result still [`validate`](Self::validate)s.
    ///
    /// Deterministic and idempotent: the first such edge in list order
    /// goes first; survivors keep their relative order and edges come
    /// out as sorted `(low, high)` pairs. Contracts in place: a bag is
    /// inside another when `row_a & !row_b` is zero in every word.
    pub fn reduced(mut self) -> TreeDecomposition {
        let w = self.words;
        let inside = |rows: &[u64], a: usize, b: usize| {
            (rows[a * w..][..w].iter().zip(&rows[b * w..][..w])).all(|(&x, &y)| x & !y == 0)
        };
        let edges = &mut self.tree_edges;
        while let Some((gone, kept)) = edges.iter().find_map(|&(a, b)| {
            let ab = inside(&self.rows, a, b).then_some((a, b));
            ab.or(inside(&self.rows, b, a).then_some((b, a)))
        }) {
            // `gone`'s other neighbours move to `kept`; bags above it
            // shift down one index.
            self.rows.drain(gone * w..(gone + 1) * w);
            edges.retain(|&e| e != (gone, kept) && e != (kept, gone));
            let moved = |x: usize| if x == gone { kept } else { x };
            let shifted = |x: usize| x - usize::from(x > gone);
            for e in edges.iter_mut() {
                *e = (shifted(moved(e.0)), shifted(moved(e.1)));
            }
        }
        for e in edges.iter_mut() {
            *e = (e.0.min(e.1), e.0.max(e.1));
        }
        edges.sort_unstable();
        self
    }

    /// The width: `max |bag| − 1` (−1 ≡ returns 0 for the empty graph).
    pub fn width(&self) -> usize {
        (0..self.bag_count())
            .map(|b| self.bag_len(b).saturating_sub(1))
            .max()
            .unwrap_or(0)
    }

    /// Validates the three tree-decomposition conditions against a graph:
    /// every vertex covered, every (non-loop) edge inside a bag, and the
    /// bags containing each vertex forming a connected subtree. In a tree
    /// a set of `s` bags is connected exactly when `s − 1` tree edges join
    /// two of them, so the last condition is a count per vertex; the
    /// check allocates one buffer, the tree's own graph.
    pub fn validate(&self, g: &BitGraph) -> Result<(), String> {
        let nb = self.bag_count();
        if self.n != g.n() {
            return Err(format!("bags over {} vertices, not {}", self.n, g.n()));
        }
        // Tree shape: `nb − 1` distinct edges, none closing a cycle.
        if let Some(&(a, b)) = self.tree_edges.iter().find(|&&(a, b)| a.max(b) >= nb) {
            return Err(format!("tree edge ({a},{b}) names no bag"));
        }
        let (mut tree, edges) = (BitGraph::new(nb), self.tree_edges.len());
        let added = (self.tree_edges.iter())
            .filter(|&&(a, b)| tree.add_edge(a as Element, b as Element))
            .count();
        if nb > 0 && (added != edges || edges + 1 != nb || !tree.is_forest()) {
            return Err(format!("{edges} tree edges make no tree of {nb} bags"));
        }
        let bags_with = |v: Element| (0..nb).filter(move |&b| self.contains(b, v));
        for v in 0..g.n() as Element {
            let both = |&&(a, b): &&(usize, usize)| self.contains(a, v) && self.contains(b, v);
            let apart = |u: Element| {
                g.has_edge(u as usize, v as usize) && !bags_with(u).any(|b| self.contains(b, v))
            };
            if bags_with(v).next().is_none() {
                return Err(format!("vertex {v} not covered by any bag"));
            }
            if let Some(u) = (0..v).find(|&u| apart(u)) {
                return Err(format!("edge ({u},{v}) not inside any bag"));
            }
            if self.tree_edges.iter().filter(both).count() + 1 != bags_with(v).count() {
                return Err(format!("occurrences of vertex {v} are disconnected"));
            }
        }
        Ok(())
    }
}

/// The set bits of a word, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
        word &= word - 1;
        Some(bit)
    })
}

/// A simple undirected graph on the vertices `0..n`: adjacency bit-rows
/// (`⌈n/64⌉` words per vertex) whose edge set only grows, with the least
/// vertex of its component per vertex, so an edge that closes a cycle is
/// noticed as it is added. Loops are ignored: the hypergraph of a loop
/// atom `E(x,x)` is one hyperedge, so a loop neither raises the width
/// nor makes a cycle (module docs). The graph `G(Q)` of a query or a
/// tableau ([`BitGraph::gaifman`]), the underlying graph of a digraph
/// ([`BitGraph::underlying`]) and the approximation search's prefix
/// graphs are all this type.
///
/// # Examples
///
/// ```
/// use cqapx_graphs::{BitGraph, Digraph};
///
/// let d = Digraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 2)]);
/// let u = BitGraph::underlying(&d); // {0,1} and {1,2}
/// assert!(u.has_edge(1, 2) && !u.has_edge(0, 2) && !u.has_edge(2, 2));
/// assert!(u.is_forest());
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitGraph {
    n: usize,
    words: usize,
    /// The rows, then per vertex the least vertex of its component, then
    /// the cycle flag: the whole graph in one buffer.
    state: Vec<u64>,
    scratch: Vec<u64>,
}

impl BitGraph {
    /// The edgeless graph on `n` vertices.
    pub fn new(n: usize) -> BitGraph {
        let words = n.div_ceil(64);
        let mut state = vec![0; n * words + n + 1];
        (state[n * words..][..n].iter_mut().zip(0..)).for_each(|(least, v)| *least = v);
        BitGraph {
            n,
            words,
            state,
            scratch: Vec::new(),
        }
    }

    /// The Gaifman graph on `0..n` of `tuples`: an edge between every two
    /// distinct elements of one tuple. A tableau's element `i` is the
    /// query's variable `i`, so this is `G(Q)` of a query and of its
    /// tableau alike.
    pub fn gaifman<T: AsRef<[Element]>>(n: usize, tuples: impl IntoIterator<Item = T>) -> BitGraph {
        let mut g = BitGraph::new(n);
        for t in tuples {
            let t = t.as_ref();
            for (i, &x) in t.iter().enumerate() {
                for &y in &t[i + 1..] {
                    g.add_edge(x, y);
                }
            }
        }
        g
    }

    /// The underlying graph `Gᵘ` of a digraph: orientations and loops
    /// dropped.
    pub fn underlying(d: &Digraph) -> BitGraph {
        BitGraph::gaifman(d.n(), d.edges().map(|(u, v)| [u, v]))
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `true` when `{x, y}` is an edge.
    pub fn has_edge(&self, x: usize, y: usize) -> bool {
        self.state[x * self.words + y / 64] >> (y % 64) & 1 == 1
    }

    /// Adds the edge `{x, y}`; `false` when it is a loop or already there.
    pub fn add_edge(&mut self, x: Element, y: Element) -> bool {
        let (x, y) = (x as usize, y as usize);
        if x == y || self.has_edge(x, y) {
            return false;
        }
        self.state[x * self.words + y / 64] |= 1 << (y % 64);
        self.state[y * self.words + x / 64] |= 1 << (x % 64);
        let (least, cyclic) = self.state[self.n * self.words..].split_at_mut(self.n);
        let (keep, gone) = (least[x].min(least[y]), least[x].max(least[y]));
        cyclic[0] |= u64::from(keep == gone);
        least
            .iter_mut()
            .filter(|c| **c == gone)
            .for_each(|c| *c = keep);
        true
    }

    /// `true` when the graph is a forest (loops ignored): no edge closed
    /// a cycle.
    pub fn is_forest(&self) -> bool {
        self.state[self.n * self.words + self.n] == 0
    }

    /// The graph as words: a search that keeps one graph per depth keeps
    /// their states in one buffer.
    pub fn state(&self) -> &[u64] {
        &self.state
    }

    /// Makes `self` the graph whose [`BitGraph::state`] `from` is, one on
    /// as many vertices.
    pub fn set_state(&mut self, from: &[u64]) {
        self.state.copy_from_slice(from);
    }

    /// Decides `tw ≤ k`, or `None` (module docs). The edges stay as they
    /// are: the reductions run on a copy in the graph's scratch space.
    pub fn treewidth_at_most(&mut self, k: usize) -> Option<bool> {
        let rows = &self.state[..self.n * self.words];
        match k {
            0 => Some(rows.iter().all(|&w| w == 0)),
            1 => Some(self.is_forest()),
            _ => {
                self.scratch.clear();
                self.scratch.extend_from_slice(rows);
                kernel_tw_at_most(&mut self.scratch, self.words, k)
            }
        }
    }
}

/// `tw ≤ k` for `k ≥ 2` on adjacency bit-rows, which it consumes. A
/// vertex of degree ≤ 1 goes; one of degree 2 goes and leaves an edge
/// between its neighbours `u, w` (a minor of the graph before, and a bag
/// `{v, u, w}` hung on any bag holding `u, w` undoes the step). What is
/// left has minimum degree 3: a "no" for `k = 2`, the search's above it.
fn kernel_tw_at_most(rows: &mut [u64], words: usize, k: usize) -> Option<bool> {
    let n = rows.len() / words;
    let mut progress = true;
    while std::mem::take(&mut progress) {
        for v in 0..n {
            let row = &mut rows[v * words..][..words];
            let degree = row.iter().map(|w| w.count_ones()).sum::<u32>() as usize;
            if degree == 0 || degree > 2 {
                continue;
            }
            let mut ends = [v; 2];
            for end in &mut ends[..degree] {
                let w = row.iter().position(|&w| w != 0).expect("a neighbour");
                *end = w * 64 + row[w].trailing_zeros() as usize;
                row[w] &= row[w] - 1;
            }
            let [a, b] = ends;
            rows[a * words + v / 64] &= !(1 << (v % 64));
            rows[b * words + v / 64] &= !(1 << (v % 64));
            if degree == 2 {
                rows[a * words + b / 64] |= 1 << (b % 64);
                rows[b * words + a / 64] |= 1 << (a % 64);
            }
            progress = true;
        }
    }
    let left = (0..n).filter(|v| rows[v * words..][..words].iter().any(|&w| w != 0));
    let size = left.clone().count();
    if k == 2 || size <= k + 1 {
        return Some(size <= k + 1);
    }
    if size > 64 {
        return None;
    }
    let kernel: Vec<usize> = left.collect();
    let bit = |v: usize, u: usize| rows[v * words + u / 64] >> (u % 64) & 1;
    let mask = |&v: &usize| (0..size).fold(0, |m, i| m | bit(v, kernel[i]) << i);
    let adj: Vec<u64> = kernel.iter().map(mask).collect();
    Some(Search::default().run(&adj, !0 >> (64 - size), k))
}

/// The neighbourhood of `v` in the fill-in graph of adjacency masks
/// `adj` after eliminating `elim`: vertices outside `elim` reachable
/// through it.
fn fill_neighbors(adj: &[u64], v: usize, elim: u64) -> u64 {
    let (mut seen, mut frontier, mut result) = (1u64 << v, 1u64 << v, 0u64);
    while frontier != 0 {
        let mut next = 0u64;
        for u in ones(frontier) {
            let nb = adj[u] & !seen;
            result |= nb & !elim;
            next |= nb & elim;
            seen |= nb;
        }
        frontier = next;
    }
    result
}

/// Branch-and-bound over elimination orders with a memo of refuted
/// eliminated-sets. `scratch` holds the order, a vertex per depth, then
/// per depth a mask per fill-degree `≤ k` of the candidates: read in
/// turn, they come in `(fill-degree, vertex)` order.
#[derive(Default)]
struct Search {
    scratch: Vec<u64>,
    dead: FxHashSet<u64>,
}

impl Search {
    /// Decides `tw ≤ k` on `full`; the order then leads `scratch`.
    fn run(&mut self, adj: &[u64], full: u64, k: usize) -> bool {
        let size = full.count_ones() as usize;
        self.scratch.clear();
        self.scratch.resize(size * (k + 2), 0);
        self.dead.clear();
        self.step(adj, full, k, 0)
    }

    fn step(&mut self, adj: &[u64], full: u64, k: usize, elim: u64) -> bool {
        if elim == full {
            return true;
        }
        if self.dead.contains(&elim) {
            return false;
        }
        let depth = elim.count_ones() as usize;
        let level = full.count_ones() as usize + depth * (k + 1);
        self.scratch[level..][..k + 1].fill(0);
        // Gather candidates with fill-degree ≤ k; a simplicial vertex
        // (fill-neighbourhood already a clique) is the only one tried —
        // eliminating it first is always safe.
        for v in ones(full & !elim) {
            let nb = fill_neighbors(adj, v, elim);
            let deg = nb.count_ones() as usize;
            if deg > k {
                continue;
            }
            if ones(nb).all(|a| nb & !fill_neighbors(adj, a, elim) & !(1 << a) == 0) {
                self.scratch[level..][..k + 1].fill(0);
                self.scratch[level] = 1 << v;
                break;
            }
            self.scratch[level + deg] |= 1 << v;
        }
        for deg in 0..=k {
            for v in ones(self.scratch[level + deg]) {
                self.scratch[depth] = v as u64;
                if self.step(adj, full, k, elim | 1 << v) {
                    return true;
                }
            }
        }
        self.dead.insert(elim);
        false
    }
}

/// Appends the bags of one component to `td` from its elimination order
/// (masks `adj` renamed by `name`): bag `off + i` is the one emitted for
/// `order[i]`, hung under the bag of its first fill-neighbour in the
/// order.
fn append_decomposition(
    td: &mut TreeDecomposition,
    adj: &[u64],
    order: &[u64],
    name: impl Fn(usize) -> usize,
) {
    let off = td.bag_count();
    let mut elim = 0u64;
    for (i, &v) in order.iter().enumerate() {
        let rest = fill_neighbors(adj, v as usize, elim);
        let row = td.push_row();
        for u in ones(rest | 1 << v).map(&name) {
            row[u / 64] |= 1 << (u % 64);
        }
        // A vertex isolated in the fill graph hangs under the next bag
        // to keep the tree connected (harmless: they share no vertex);
        // the last vertex is the root.
        let first_successor = (order[i + 1..].iter()).position(|&u| rest >> u & 1 == 1);
        let next = (i + 1 < order.len()).then_some(0);
        if let Some(j) = first_successor.or(next) {
            td.tree_edges.push((off + i, off + i + 1 + j));
        }
        elim |= 1 << v;
    }
}

/// One tree decomposition of `g` from an elimination order per
/// component, found by `search` (`false` gives up): the components'
/// trees in the order of their least vertices, each joined to the next
/// at its first bag. An empty graph gets one empty bag. `None` on a
/// component of more than 64 vertices.
fn decompose(
    g: &BitGraph,
    mut search: impl FnMut(&mut Search, &[u64], u64) -> bool,
) -> Option<TreeDecomposition> {
    let n = g.n;
    let least = &g.state[n * g.words..][..n];
    let members = |l: usize| (0..n).filter(move |&v| least[v] as usize == l);
    let bit = |v: usize, u: usize| g.state[v * g.words + u / 64] >> (u % 64) & 1;
    let leasts = (0..n).filter(|&v| least[v] as usize == v);
    // A bag per vertex (one for the empty graph), a tree edge fewer.
    let mut td = TreeDecomposition::with_room(n, n.max(1));
    let (mut s, mut masks, mut names) = (Search::default(), Vec::new(), Vec::new());
    for l in leasts.clone() {
        let (adj, full) = if g.words == 1 {
            (&g.state[..n], members(l).fold(0, |m, v| m | 1 << v))
        } else {
            names.clear();
            names.extend(members(l));
            if names.len() > 64 {
                return None;
            }
            let mask = |&v: &usize| (0..names.len()).fold(0, |m, i| m | bit(v, names[i]) << i);
            masks.clear();
            masks.extend(names.iter().map(mask));
            (&masks[..], !0 >> (64 - names.len()))
        };
        if !search(&mut s, adj, full) {
            return None;
        }
        let name = |v: usize| if g.words == 1 { v } else { names[v] };
        let order = &s.scratch[..full.count_ones() as usize];
        append_decomposition(&mut td, adj, order, name);
    }
    // The component of least vertex `l` starts at the bag after those of
    // every vertex below it in a component of a lesser least vertex.
    let roots = leasts.map(|l| least.iter().filter(|&&c| (c as usize) < l).count());
    td.tree_edges.extend(roots.clone().zip(roots.skip(1)));
    if n == 0 {
        td.push_row();
    }
    debug_assert!(td.validate(g).is_ok(), "{:?}", td.validate(g));
    Some(td)
}

/// Decides whether `tw(g) ≤ k`, returning a witness decomposition.
///
/// Loops are ignored (see the module docs). Works per connected component;
/// one of more than 64 vertices is not certified: `None`, as above the
/// width.
///
/// **Deterministic**: the same graph always yields the same decomposition
/// — bags in the same order with the same tree edges. The search branches
/// in a fixed order (candidates sorted by `(fill-degree, vertex)`), bags
/// are emitted in elimination order, and no hash-iteration order ever
/// reaches the output; plan compilers and caches may rely on this.
///
/// # Examples
///
/// ```
/// use cqapx_graphs::{treewidth, BitGraph};
///
/// let c4 = BitGraph::gaifman(4, [[0, 1], [1, 2], [2, 3], [3, 0]]);
/// assert!(treewidth::treewidth_at_most(&c4, 2).is_some());
/// assert!(treewidth::treewidth_at_most(&c4, 1).is_none());
/// ```
pub fn treewidth_at_most(g: &BitGraph, k: usize) -> Option<TreeDecomposition> {
    decompose(g, |s, adj, full| s.run(adj, full, k))
}

/// A tree decomposition of `g` of width exactly `tw(g)`, from one search
/// per component at that component's own width — the decomposition and
/// the width in one pass, where asking [`treewidth`] and then
/// [`treewidth_at_most`] searches twice. `None` on the 64-vertex rule.
///
/// A component's width is tried from below: 0 for a lone vertex, 1 for
/// a tree, from 2 up otherwise. So on a connected graph the result is
/// exactly `treewidth_at_most(g, tw(g))`; a component narrower than the
/// widest keeps its own narrower bags.
pub fn min_width_decomposition(g: &BitGraph) -> Option<TreeDecomposition> {
    decompose(g, |s, adj, full| {
        let n = full.count_ones() as usize;
        let degrees: u32 = ones(full).map(|v| adj[v].count_ones()).sum();
        let least = match n {
            1 => 0,
            n if degrees as usize == 2 * (n - 1) => 1,
            _ => 2,
        };
        (least..n).any(|k| s.run(adj, full, k))
    })
}

/// The decomposition that needs no search: one bag per connected
/// component of `g`, holding all of its vertices, in the order of their
/// least vertices, each bag joined to the next. Disjoint bags satisfy
/// running intersection, so it is valid at any size — the fallback for a
/// graph [`min_width_decomposition`] cannot certify (the 64-vertex
/// rule). Its width is the largest component's size minus one.
pub fn component_decomposition(g: &BitGraph) -> TreeDecomposition {
    let n = g.n;
    let least = &g.state[n * g.words..][..n];
    let leasts = (0..n).filter(|&v| least[v] as usize == v);
    let mut td = TreeDecomposition::with_room(n, leasts.clone().count().max(1));
    for l in leasts {
        let row = td.push_row();
        for v in (0..n).filter(|&v| least[v] as usize == l) {
            row[v / 64] |= 1 << (v % 64);
        }
    }
    if n == 0 {
        td.push_row();
    }
    td.tree_edges
        .extend((1..td.bag_count()).map(|b| (b - 1, b)));
    debug_assert!(td.validate(g).is_ok(), "{:?}", td.validate(g));
    td
}

/// The exact treewidth of `g` (0 for edgeless graphs; loops ignored); the
/// upper bound `n − 1` for a graph [`treewidth_at_most`] cannot certify.
pub fn treewidth(g: &BitGraph) -> usize {
    min_width_decomposition(g).map_or(g.n().saturating_sub(1), |td| td.width())
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BitGraph {
        /// The edges as `(x, y)` pairs with `x < y`, in ascending order.
        pub(crate) fn edges(&self) -> impl Iterator<Item = (Element, Element)> + '_ {
            (0..self.n).flat_map(move |x| {
                let ys = (x + 1..self.n).filter(move |&y| self.has_edge(x, y));
                ys.map(move |y| (x as Element, y as Element))
            })
        }

        /// Connected components: `(count, component id per vertex)`, ids in
        /// the order of each component's least vertex.
        pub(crate) fn components(&self) -> (usize, Vec<u32>) {
            let least = &self.state[self.n * self.words..][..self.n];
            let mut comp: Vec<u32> = Vec::with_capacity(self.n);
            let mut count = 0;
            for (v, &l) in least.iter().enumerate() {
                // A component's least vertex is numbered before any other
                // member reads its id.
                let id = if l as usize == v {
                    count += 1;
                    count - 1
                } else {
                    comp[l as usize]
                };
                comp.push(id);
            }
            (count as usize, comp)
        }
    }

    /// The graph on `0..n` with `edges` (`(v, v)` a loop, ignored).
    fn from_edges(n: usize, edges: &[(Element, Element)]) -> BitGraph {
        BitGraph::gaifman(n, edges.iter().map(|&(u, v)| [u, v]))
    }

    /// Every bag's vertices, in bag order.
    fn bags(td: &TreeDecomposition) -> Vec<Vec<Element>> {
        (0..td.bag_count()).map(|b| td.bag(b).collect()).collect()
    }

    /// The complete graph `K_m`: one tuple over every vertex.
    fn complete(m: usize) -> BitGraph {
        BitGraph::gaifman(m, [(0..m as Element).collect::<Vec<_>>()])
    }

    #[test]
    fn trees_have_width_1() {
        let t = from_edges(5, &[(0, 1), (1, 2), (1, 3), (3, 4)]);
        assert_eq!(treewidth(&t), 1);
        let td = treewidth_at_most(&t, 1).unwrap();
        td.validate(&t).unwrap();
        assert!(td.width() <= 1);
    }

    #[test]
    fn cycles_have_width_2() {
        for n in 3..=8 {
            let edges: Vec<(Element, Element)> = (0..n)
                .map(|i| (i as Element, ((i + 1) % n) as Element))
                .collect();
            let c = from_edges(n, &edges);
            assert_eq!(treewidth(&c), 2, "C{n}");
            let td = treewidth_at_most(&c, 2).unwrap();
            td.validate(&c).unwrap();
        }
    }

    #[test]
    fn complete_graphs() {
        for m in 1..=7 {
            let k = complete(m);
            assert_eq!(treewidth(&k), m - 1, "K{m}");
        }
    }

    #[test]
    fn grid_treewidth() {
        // tw(P3 x P3) = 3.
        let g = crate::generators::grid(3, 3);
        let u = BitGraph::underlying(&g);
        assert_eq!(treewidth(&u), 3);
        let td = treewidth_at_most(&u, 3).unwrap();
        td.validate(&u).unwrap();
    }

    #[test]
    fn loops_ignored() {
        let g = from_edges(2, &[(0, 1), (0, 0)]);
        assert_eq!(treewidth(&g), 1);
    }

    #[test]
    fn edgeless() {
        let g = BitGraph::new(4);
        assert_eq!(treewidth(&g), 0);
        let td = treewidth_at_most(&g, 0).unwrap();
        td.validate(&g).unwrap();
    }

    #[test]
    fn disconnected_components() {
        // K4 plus a triangle: tw = 3.
        let mut edges = vec![];
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v));
            }
        }
        edges.extend([(4, 5), (5, 6), (6, 4)]);
        let g = from_edges(7, &edges);
        assert_eq!(treewidth(&g), 3);
        let td = treewidth_at_most(&g, 3).unwrap();
        td.validate(&g).unwrap();
    }

    #[test]
    fn wheel_width_3() {
        let g = crate::generators::wheel(5);
        let u = BitGraph::underlying(&g);
        assert_eq!(treewidth(&u), 3);
    }

    #[test]
    fn wide_components_are_not_certified_instead_of_fatal() {
        // A 70-cycle: no decomposition is built for a component the mask
        // search cannot hold, but the reductions need no search.
        let ring: Vec<(Element, Element)> = (0..70).map(|i| (i, (i + 1) % 70)).collect();
        let c70 = from_edges(70, &ring);
        assert!(treewidth_at_most(&c70, 2).is_none());
        assert_eq!(treewidth(&c70), 69, "the documented upper bound");
        let mut b = c70.clone();
        assert_eq!(b.treewidth_at_most(1), Some(false));
        assert_eq!(b.treewidth_at_most(2), Some(true));
        assert_eq!(b.treewidth_at_most(3), Some(true));
        // A 9×9 grid keeps a 77-vertex kernel: "no" at 2, unknown above.
        let grid = BitGraph::underlying(&crate::generators::grid(9, 9));
        assert!(treewidth_at_most(&grid, 9).is_none());
        let mut b = grid.clone();
        assert_eq!(b.treewidth_at_most(2), Some(false));
        assert_eq!(b.treewidth_at_most(9), None);
    }

    #[test]
    fn validate_catches_bad_decompositions() {
        let c3 = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        // Missing edge coverage.
        let bad = TreeDecomposition::from_bags(3, [[0, 1], [1, 2]], vec![(0, 1)]);
        assert!(bad.validate(&c3).is_err());
        // Disconnected occurrences.
        let p3 = from_edges(3, &[(0, 1), (1, 2)]);
        let bad2 =
            TreeDecomposition::from_bags(3, [&[0, 1][..], &[1, 2], &[0]], vec![(0, 1), (1, 2)]);
        assert!(bad2.validate(&p3).is_err());
    }

    #[test]
    fn k_minus_one_rejected_for_clique() {
        let k5 = complete(5);
        assert!(treewidth_at_most(&k5, 3).is_none());
        assert!(treewidth_at_most(&k5, 4).is_some());
    }

    #[test]
    fn decomposition_is_deterministic() {
        // Same graph, rebuilt from scratch each time: identical bags in
        // identical order with identical tree edges, at every width.
        let build = || {
            let mut edges = vec![(0u32, 1), (1, 2), (2, 3), (3, 0), (1, 3)];
            edges.extend([(4, 5), (5, 6), (6, 4), (2, 4)]);
            from_edges(7, &edges)
        };
        for k in 2..=4 {
            let a = treewidth_at_most(&build(), k).unwrap();
            let b = treewidth_at_most(&build(), k).unwrap();
            assert_eq!(a, b, "width {k}");
            let root = |td: &TreeDecomposition| td.rooted_at(0, &mut Vec::new());
            assert_eq!(root(&a), root(&b), "rooted width {k}");
            assert_eq!(a.reduced(), b.reduced(), "reduced width {k}");
        }
    }

    #[test]
    fn rooted_orients_and_orders() {
        let c5: Vec<(Element, Element)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
        let g = from_edges(5, &c5);
        let td = treewidth_at_most(&g, 2).unwrap();
        for root in 0..td.bag_count() {
            let r = td.rooted_at(root, &mut Vec::new());
            assert_eq!(r.order.len(), td.bag_count());
            assert_eq!(*r.order.last().unwrap(), root);
            // Children before parents, along tree edges only.
            let pos = |x: usize| r.order.iter().position(|&y| y == x).unwrap();
            for u in 0..td.bag_count() {
                match r.parent[u] {
                    Some(p) => {
                        assert!(pos(u) < pos(p), "child {u} must precede parent {p}");
                        assert!(td.tree_edges.contains(&(u, p)) || td.tree_edges.contains(&(p, u)));
                    }
                    None => assert_eq!(u, root),
                }
            }
        }
    }

    #[test]
    fn rooted_on_single_bag() {
        let g = BitGraph::new(1);
        let td = treewidth_at_most(&g, 1).unwrap();
        assert_eq!(td.bag_count(), 1);
        let r = td.rooted_at(0, &mut Vec::new());
        assert_eq!(r.order, vec![0]);
        assert_eq!(r.parent, vec![None]);
        assert_eq!(td.heights(&mut Vec::new()), [0]);
    }

    #[test]
    fn reduced_contracts_contained_bags() {
        // One bag per eliminated vertex: the triangle's two trailing
        // bags sit inside the first.
        let c3 = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let td = treewidth_at_most(&c3, 2).unwrap();
        assert_eq!(td.bag_count(), 3);
        let red = td.reduced();
        assert_eq!(bags(&red), [[0, 1, 2]]);
        assert!(red.tree_edges.is_empty());
        red.validate(&c3).unwrap();
        // C6 at width 2 needs four triangles in a path.
        let c6: Vec<(Element, Element)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let g = from_edges(6, &c6);
        let red = treewidth_at_most(&g, 2).unwrap().reduced();
        red.validate(&g).unwrap();
        assert_eq!(red.bag_count(), 4);
        assert_eq!(red.width(), 2);
        let mut heights = red.heights(&mut Vec::new()).to_vec();
        heights.sort_unstable();
        assert_eq!(heights, vec![2, 2, 3, 3], "a path of four bags");
        assert_eq!(red.clone().reduced(), red, "idempotent");
        // Components glued with empty overlaps stay glued.
        let two = from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let red = treewidth_at_most(&two, 2).unwrap().reduced();
        red.validate(&two).unwrap();
        assert_eq!(bags(&red), [[0, 1, 2], [3, 4, 5]]);
    }

    #[test]
    fn min_width_decomposition_is_the_exact_witness() {
        // Connected: exactly what the search at the exact width builds.
        let c6: Vec<(Element, Element)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let g = from_edges(6, &c6);
        assert_eq!(min_width_decomposition(&g), treewidth_at_most(&g, 2));
        // K4 beside a triangle beside a path: width 3, and each component
        // decomposed at its own width.
        let mut edges = vec![(0u32, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        edges.extend([(4, 5), (5, 6), (6, 4), (7, 8), (8, 9)]);
        let g = from_edges(11, &edges);
        let td = min_width_decomposition(&g).unwrap();
        td.validate(&g).unwrap();
        assert_eq!(td.width(), 3);
        let width_of = |vertex: Element| {
            let bags = (0..td.bag_count()).filter(|&b| td.bag(b).any(|v| v == vertex));
            bags.map(|b| td.bag_len(b) - 1).max().unwrap()
        };
        assert_eq!([0, 4, 7, 10].map(width_of), [3, 2, 1, 0]);
        // The empty graph has one empty bag; a 70-cycle is not certified.
        let empty = min_width_decomposition(&BitGraph::new(0)).unwrap();
        assert_eq!(bags(&empty), [[]]);
        let ring: Vec<(Element, Element)> = (0..70).map(|i| (i, (i + 1) % 70)).collect();
        assert_eq!(min_width_decomposition(&from_edges(70, &ring)), None);
    }

    #[test]
    fn underlying_discards_orientation() {
        let d = Digraph::from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        let u = BitGraph::underlying(&d);
        assert_eq!(u.edges().collect::<Vec<_>>(), [(0, 1), (1, 2)]);
        assert!(u.has_edge(1, 0));
    }

    #[test]
    fn forest_detection() {
        assert!(from_edges(4, &[(0, 1), (1, 2), (1, 3)]).is_forest());
        assert!(!from_edges(3, &[(0, 1), (1, 2), (2, 0)]).is_forest());
        // A two-node double edge collapses in a simple graph: a forest.
        assert!(from_edges(2, &[(0, 1), (1, 0)]).is_forest());
        // Loops do not affect forest-ness (the hypergraph convention).
        assert!(from_edges(2, &[(0, 1), (1, 1)]).is_forest());
        assert!(from_edges(1, &[(0, 0)]).is_forest());
        assert!(BitGraph::new(5).is_forest());
    }

    #[test]
    fn complete_graph() {
        let k4 = complete(4);
        assert_eq!(k4.edges().count(), 6);
        assert!(!k4.is_forest());
    }

    #[test]
    fn components() {
        // Ids follow each component's least vertex, whatever order the
        // edges came in.
        let g = from_edges(5, &[(3, 2), (1, 0)]);
        assert_eq!(g.components(), (3, vec![0, 0, 1, 1, 2]));
        let g = from_edges(5, &[(4, 2), (3, 1)]);
        assert_eq!(g.components(), (3, vec![0, 1, 2, 1, 2]));
    }

    #[test]
    fn components_and_forests_by_union_find() {
        // Components are numbered by their least vertex.
        let g = from_edges(6, &[(4, 1), (5, 3), (3, 0)]);
        assert_eq!(g.components(), (3, vec![0, 1, 2, 0, 1, 0]));
        assert!(g.is_forest());
        let closed = from_edges(6, &[(4, 1), (5, 3), (3, 0), (0, 5)]);
        assert!(!closed.is_forest());
        assert_eq!(closed.components(), g.components());
    }
}
