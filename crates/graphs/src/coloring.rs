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

use crate::digraph::Digraph;
use crate::ugraph::UGraph;
use cqapx_structures::Element;

/// 2-colors the underlying graph; returns the color classes, or `None`
/// when not bipartite (or a loop is present).
pub(crate) fn bipartition(g: &Digraph) -> Option<Vec<u8>> {
    if g.has_loop() {
        return None;
    }
    let u = UGraph::underlying(g);
    let adj = u.adjacency();
    let n = u.n();
    let mut color = vec![u8::MAX; n];
    for start in 0..n {
        if color[start] != u8::MAX {
            continue;
        }
        color[start] = 0;
        let mut stack = vec![start as Element];
        while let Some(x) = stack.pop() {
            for &y in &adj[x as usize] {
                if color[y as usize] == u8::MAX {
                    color[y as usize] = 1 - color[x as usize];
                    stack.push(y);
                } else if color[y as usize] == color[x as usize] {
                    return None;
                }
            }
        }
    }
    Some(color)
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
    bipartition(g).is_some()
}

/// Searches for a proper `k`-coloring of the underlying graph (loops make
/// the digraph uncolorable). Returns a witness coloring.
///
/// Backtracking with MRV on the saturation degree (DSATUR-style), exact.
pub(crate) fn k_coloring(g: &Digraph, k: usize) -> Option<Vec<u32>> {
    if g.has_loop() {
        return None;
    }
    let u = UGraph::underlying(g);
    k_coloring_ugraph(&u, k)
}

/// Exact `k`-coloring of a loop-free undirected graph.
pub(crate) fn k_coloring_ugraph(u: &UGraph, k: usize) -> Option<Vec<u32>> {
    if u.has_any_loop() {
        return None;
    }
    let n = u.n();
    if n == 0 {
        return Some(Vec::new());
    }
    if k == 0 {
        return None;
    }
    let adj = u.adjacency();
    let mut colors: Vec<Option<u32>> = vec![None; n];

    fn assignable(v: usize, c: u32, adj: &[Vec<Element>], colors: &[Option<u32>]) -> bool {
        adj[v].iter().all(|&w| colors[w as usize] != Some(c))
    }

    fn solve(adj: &[Vec<Element>], colors: &mut Vec<Option<u32>>, k: usize, max_used: u32) -> bool {
        // MRV: pick uncolored vertex with fewest available colors.
        let n = colors.len();
        let mut best: Option<(usize, usize)> = None; // (avail, vertex)
        for v in 0..n {
            if colors[v].is_none() {
                let avail = (0..k as u32)
                    .filter(|&c| assignable(v, c, adj, colors))
                    .count();
                if avail == 0 {
                    return false;
                }
                if best.is_none_or(|(a, _)| avail < a) {
                    best = Some((avail, v));
                }
            }
        }
        let v = match best {
            None => return true,
            Some((_, v)) => v,
        };
        // Symmetry breaking: allow at most one brand-new color.
        let cap = (max_used + 1).min(k as u32 - 1);
        for c in 0..=cap {
            if assignable(v, c, adj, colors) {
                colors[v] = Some(c);
                if solve(adj, colors, k, max_used.max(c)) {
                    return true;
                }
                colors[v] = None;
            }
        }
        false
    }

    if solve(&adj, &mut colors, k, 0) {
        Some(colors.into_iter().map(|c| c.unwrap_or(0)).collect())
    } else {
        None
    }
}

/// `true` when the digraph is `k`-colorable.
pub fn is_k_colorable(g: &Digraph, k: usize) -> bool {
    k_coloring(g, k).is_some()
}

/// The chromatic number of the digraph's underlying graph (`usize::MAX`
/// when a loop is present).
pub fn chromatic_number(g: &Digraph) -> usize {
    if g.has_loop() {
        return usize::MAX;
    }
    if g.n() == 0 {
        return 0;
    }
    for k in 1..=g.n() {
        if is_k_colorable(g, k) {
            return k;
        }
    }
    unreachable!("every loop-free graph on n nodes is n-colorable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

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
        let coloring = k_coloring(&g, k).unwrap();
        let u = UGraph::underlying(&g);
        for (a, b) in u.edges() {
            assert_ne!(coloring[a as usize], coloring[b as usize]);
        }
    }

    #[test]
    fn bipartition_is_proper() {
        let g = Digraph::cycle(8);
        let classes = bipartition(&g).unwrap();
        let u = UGraph::underlying(&g);
        for (a, b) in u.edges() {
            assert_ne!(classes[a as usize], classes[b as usize]);
        }
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
