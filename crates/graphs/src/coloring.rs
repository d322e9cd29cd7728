//! Graph coloring: bipartiteness and `k`-colorability.
//!
//! For digraphs, `G` is `k`-colorable iff `G → K⃗_k` (the complete digraph
//! with edges both ways), iff the underlying undirected graph is
//! `k`-colorable and `G` has no loop. The paper uses:
//!
//! * **bipartiteness** (= 2-colorability) — Theorem 5.1: a Boolean graph CQ
//!   has a non-trivial acyclic approximation iff its tableau is bipartite;
//! * **(k+1)-colorability** — Theorem 5.10 / Corollary 5.11: a Boolean
//!   graph CQ has a non-trivial `TW(k)`-approximation iff its tableau is
//!   `(k+1)`-colorable (every loop-free graph of treewidth ≤ k is
//!   `(k+1)`-colorable).
//!
//! Both checks, and [`crate::balance`]'s levels, run on an [`Adjacency`]
//! built in one pass over the edges: the approximation search decides
//! §5's cases on one straight from a tableau (`cqapx_core::trichotomy`).

use crate::digraph::Digraph;
use cqapx_structures::Element;

/// No label yet: a node not reached, or not colored.
const NONE: u32 = u32::MAX;

/// A digraph's underlying graph in one buffer: `n + 1` offsets, then
/// each node's neighbours, `2w + 1` for an edge out to `w` and `2w` for
/// one in from `w` (a loop is both), then a label per node and a queue
/// of `n` nodes.
#[derive(Debug, Clone)]
pub struct Adjacency {
    n: usize,
    words: Vec<u32>,
}

impl Adjacency {
    /// The underlying graph of the digraph on nodes `0..n` with `edges`,
    /// in one allocation.
    pub fn new<E>(n: usize, edges: E) -> Adjacency
    where
        E: ExactSizeIterator<Item = (Element, Element)> + Clone,
    {
        let labels = n + 1 + 2 * edges.len();
        let mut words = vec![0; labels + 2 * n];
        for (u, v) in edges.clone() {
            words[u as usize + 1] += 1;
            words[v as usize + 1] += 1;
        }
        (0..n).for_each(|v| words[v + 1] += words[v]);
        // Until a check writes them, the labels count the neighbours placed.
        for (u, v) in edges {
            for (x, y, out) in [(u as usize, v, 1), (v as usize, u, 0)] {
                let slot = n + 1 + (words[x] + words[labels + x]) as usize;
                words[labels + x] += 1;
                words[slot] = 2 * y + out;
            }
        }
        Adjacency { n, words }
    }

    /// The underlying graph of `g`.
    pub(crate) fn of(g: &Digraph) -> Adjacency {
        Adjacency::new(g.n(), g.edges())
    }

    /// The label of every node, as the last check left it.
    pub(crate) fn labels(&self) -> &[u32] {
        &self.words[self.words.len() - 2 * self.n..][..self.n]
    }

    /// Offsets, neighbours, labels and queue.
    fn parts(&mut self) -> (&[u32], &[u32], &mut [u32], &mut [u32]) {
        let (n, len) = (self.n, self.words.len());
        let (graph, rest) = self.words.split_at_mut(len - 2 * n);
        let (offsets, neighbours) = graph.split_at(n + 1);
        let (labels, queue) = rest.split_at_mut(n);
        (offsets, neighbours, labels, queue)
    }

    /// Gives every node a potential that rises by one along each edge,
    /// breadth first from the least node of each weakly connected
    /// component, and shifts each component's least potential to 0.
    /// Returns whether the potentials agree along every edge modulo 2
    /// (the graph is bipartite) and exactly (it is balanced, and the
    /// labels are its levels); a loop breaks both.
    pub fn levels(&mut self) -> (bool, bool) {
        let (offsets, neighbours, labels, queue) = self.parts();
        labels.fill(NONE);
        let (mut bipartite, mut balanced, mut tail) = (true, true, 0);
        for start in 0..labels.len() {
            if labels[start] != NONE {
                continue;
            }
            // Potentials stay within `n` of the start's, far from `NONE`.
            let (first, mut head) = (tail, tail);
            (labels[start], queue[tail], tail) = (1 << 31, start as u32, tail + 1);
            while head < tail {
                let u = queue[head] as usize;
                head += 1;
                for &e in &neighbours[offsets[u] as usize..offsets[u + 1] as usize] {
                    let (w, want) = ((e >> 1) as usize, labels[u] + 2 * (e & 1) - 1);
                    if labels[w] == NONE {
                        (labels[w], queue[tail], tail) = (want, w as u32, tail + 1);
                    } else if labels[w] != want {
                        balanced = false;
                        bipartite &= (labels[w] ^ want) & 1 == 0;
                    }
                }
            }
            let component = &queue[first..tail];
            let least = component.iter().map(|&v| labels[v as usize]).min();
            let least = least.expect("a component has its start");
            component.iter().for_each(|&v| labels[v as usize] -= least);
        }
        (bipartite, balanced)
    }

    /// Whether the underlying graph has a proper `k`-coloring (a loop
    /// rules every one out); when it has, the labels are one. Two colors
    /// are the levels' parity; more are searched exactly, by backtracking
    /// on the node with the fewest colors left (DSATUR-style), opening at
    /// most one new color per step.
    pub fn colorable(&mut self, k: usize) -> bool {
        if k == 2 {
            let bipartite = self.levels().0;
            self.parts().2.iter_mut().for_each(|label| *label &= 1);
            return bipartite;
        }
        let (offsets, neighbours, colors, _) = self.parts();
        colors.fill(NONE);
        color_from(offsets, neighbours, colors, k as u32, 0) == Ok(true)
    }
}

/// Extends a partial proper coloring that uses the colors `0..used`. A
/// node on a loop has no color free. `Err` when no recoloring of the
/// colored nodes could help: the uncolored ones then form whole
/// components, so a failure there is final, whatever came before.
fn color_from(
    offsets: &[u32],
    neighbours: &[u32],
    colors: &mut [u32],
    k: u32,
    used: u32,
) -> Result<bool, ()> {
    let free = |colors: &[u32], v: usize, c: u32| {
        let around = &neighbours[offsets[v] as usize..offsets[v + 1] as usize];
        (around.iter()).all(|&e| (e >> 1) as usize != v && colors[(e >> 1) as usize] != c)
    };
    let mut best: Option<(usize, usize)> = None; // (colors left, node)
    for v in (0..colors.len()).filter(|&v| colors[v] == NONE) {
        let left = (0..k).filter(|&c| free(colors, v, c)).count();
        if left == 0 {
            return Ok(false);
        }
        if best.is_none_or(|(fewest, _)| left < fewest) {
            best = Some((left, v));
        }
    }
    let Some((left, v)) = best else {
        return Ok(true);
    };
    for c in 0..=used.min(k - 1) {
        if free(colors, v, c) {
            colors[v] = c;
            if color_from(offsets, neighbours, colors, k, used.max(c + 1))? {
                return Ok(true);
            }
            colors[v] = NONE;
            // With every color free, `v` touches no colored node, and
            // any one color for it does as well as another.
            if left == k as usize {
                return Err(());
            }
        }
    }
    Ok(false)
}

/// `true` when the digraph is bipartite (`G → K⃗₂`).
///
/// # Examples
///
/// ```
/// use cqapx_graphs::{coloring, Digraph};
///
/// assert!(coloring::is_bipartite(&Digraph::cycle(4)));
/// assert!(!coloring::is_bipartite(&Digraph::cycle(3)));
/// ```
pub fn is_bipartite(g: &Digraph) -> bool {
    Adjacency::of(g).levels().0
}

/// `true` when the digraph is `k`-colorable.
pub fn is_k_colorable(g: &Digraph, k: usize) -> bool {
    Adjacency::of(g).colorable(k)
}

/// The chromatic number of the digraph's underlying graph (`usize::MAX`
/// when a loop is present).
pub fn chromatic_number(g: &Digraph) -> usize {
    let mut a = Adjacency::of(g);
    (0..=g.n()).find(|&k| a.colorable(k)).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::ugraph::UGraph;

    /// The labels `colorable(k)` leaves on `g` color every edge's ends
    /// apart, with colors below `k`.
    fn assert_proper(g: &Digraph, k: usize) {
        let mut a = Adjacency::of(g);
        assert!(a.colorable(k));
        for (x, y) in UGraph::underlying(g).edges() {
            assert_ne!(a.labels()[x as usize], a.labels()[y as usize]);
        }
        assert!(a.labels().iter().all(|&c| (c as usize) < k));
    }

    #[test]
    fn cycles() {
        assert!(is_bipartite(&Digraph::cycle(4)));
        assert!(!is_bipartite(&Digraph::cycle(5)));
        assert_eq!(chromatic_number(&Digraph::cycle(5)), 3);
        assert_eq!(chromatic_number(&Digraph::cycle(6)), 2);
    }

    #[test]
    fn loops_kill_coloring() {
        let g = Digraph::from_edges(2, &[(0, 1), (1, 1)]);
        assert!(!is_bipartite(&g));
        assert!(!is_k_colorable(&g, 10));
        assert_eq!(chromatic_number(&g), usize::MAX);
    }

    #[test]
    fn complete_digraphs() {
        for m in 1..=5 {
            let k = generators::complete_digraph(m);
            assert_eq!(chromatic_number(&k), m);
            assert!(is_k_colorable(&k, m));
            assert!(!is_k_colorable(&k, m.saturating_sub(1)));
        }
    }

    #[test]
    fn coloring_is_proper() {
        let g = generators::wheel(5); // odd outer cycle: chromatic number 4
        let k = chromatic_number(&g);
        assert_eq!(k, 4);
        assert_proper(&g, k);
    }

    #[test]
    fn bipartition_is_proper() {
        assert_proper(&Digraph::cycle(8), 2);
        // Two components, one with a 2-cycle: parity still colors it.
        assert_proper(
            &Digraph::from_edges(5, &[(0, 1), (1, 0), (2, 3), (4, 3)]),
            2,
        );
    }

    #[test]
    fn components_are_colored_independently() {
        // Sixteen triangles, then a K4: a failure in the K4 is final, it
        // does not retry the triangles' 6¹⁶ colorings.
        let mut edges: Vec<(Element, Element)> =
            (0..16 * 3).map(|v| (v, v / 3 * 3 + (v + 1) % 3)).collect();
        edges.extend((0..4).flat_map(|x| {
            (0..4)
                .filter(move |&y| y != x)
                .map(move |y| (48 + x, 48 + y))
        }));
        let g = Digraph::from_edges(52, &edges);
        assert!(!is_k_colorable(&g, 3));
        assert!(is_k_colorable(&g, 4));
    }

    #[test]
    fn empty_graph() {
        let g = Digraph::new(0);
        assert!(is_bipartite(&g));
        assert_eq!(chromatic_number(&g), 0);
    }

    #[test]
    fn wheel_chromatic_numbers() {
        // wheel(n) = hub + C_n: odd outer cycle needs 4 colors, even 3.
        assert_eq!(chromatic_number(&generators::wheel(5)), 4);
        assert_eq!(chromatic_number(&generators::wheel(4)), 3);
        assert_eq!(chromatic_number(&generators::wheel(6)), 3);
    }
}
