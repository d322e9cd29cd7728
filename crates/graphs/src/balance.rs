//! Balanced digraphs, levels and height.
//!
//! A digraph is **balanced** when every oriented cycle has net length 0
//! (equivalently, `G → P⃗_k` for some directed path `P⃗_k` — Hell &
//! Nešetřil). For a balanced digraph, the **level** of a node `v` is the
//! maximum net length of an oriented path terminating at `v`, and the
//! **height** `hg(G)` is the maximum level. The paper's Lemma 4.5 — any
//! homomorphism between balanced digraphs of equal height preserves levels
//! — drives the lower-bound constructions (Prop 4.4 and Theorem 4.12); the
//! level computations here let the test-suite machine-check those gadgets.

use crate::coloring::Adjacency;
use crate::digraph::Digraph;

/// Balance information for a digraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalanceInfo {
    /// Level of every node (meaningful only when `balanced`).
    pub levels: Vec<i64>,
    /// Height: maximum level.
    pub height: i64,
    /// Whether the digraph is balanced.
    pub balanced: bool,
}

/// Computes balance, levels and height.
///
/// Within each weakly connected component, levels are fixed by a potential
/// function (`pot(v) = pot(u) + 1` along every edge `(u, v)`); the digraph
/// is balanced iff the potential is consistent. The level of a node is its
/// potential normalized so that each component's minimum is 0, which equals
/// the maximum net length of an oriented path ending there
/// ([`Adjacency::levels`]).
///
/// # Examples
///
/// ```
/// use cqapx_graphs::{balance, Digraph, OrientedPath};
///
/// let p = OrientedPath::parse("0101").to_digraph();
/// let info = balance::levels(&p);
/// assert!(info.balanced);
/// assert_eq!(info.height, 1);
///
/// let c3 = Digraph::cycle(3);
/// assert!(!balance::levels(&c3).balanced);
/// ```
pub fn levels(g: &Digraph) -> BalanceInfo {
    let mut a = Adjacency::of(g);
    let balanced = a.levels().1;
    let levels: Vec<i64> = a.labels().iter().map(|&level| level.into()).collect();
    BalanceInfo {
        height: levels.iter().copied().max().unwrap_or(0),
        levels,
        balanced,
    }
}

/// `true` when every oriented cycle of `g` has net length 0.
pub fn is_balanced(g: &Digraph) -> bool {
    levels(g).balanced
}

/// The height `hg(G)` of a balanced digraph.
///
/// # Panics
///
/// Panics when `g` is not balanced (height is undefined).
pub fn height(g: &Digraph) -> i64 {
    let info = levels(g);
    assert!(
        info.balanced,
        "height is only defined for balanced digraphs"
    );
    info.height
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oriented::OrientedPath;

    #[test]
    fn directed_path_levels() {
        let p = Digraph::directed_path(4);
        let info = levels(&p);
        assert!(info.balanced);
        assert_eq!(info.levels, vec![0, 1, 2, 3, 4]);
        assert_eq!(info.height, 4);
    }

    #[test]
    fn directed_cycle_unbalanced() {
        assert!(!is_balanced(&Digraph::cycle(3)));
        assert!(!is_balanced(&Digraph::cycle(4)));
    }

    #[test]
    fn alternating_cycle_balanced() {
        // 0 -> 1 <- 2 -> 3 <- 0: net length 0, balanced.
        let g = Digraph::from_edges(4, &[(0, 1), (2, 1), (2, 3), (0, 3)]);
        let info = levels(&g);
        assert!(info.balanced);
        assert_eq!(info.height, 1);
    }

    #[test]
    fn loops_are_unbalanced() {
        let g = Digraph::from_edges(1, &[(0, 0)]);
        assert!(!is_balanced(&g));
    }

    #[test]
    fn oriented_path_height_is_max_prefix_net() {
        // 001000: net lengths of prefixes: 1,2,1,2,3,4 -> height 4.
        let g = OrientedPath::parse("001000").to_digraph();
        let info = levels(&g);
        assert!(info.balanced);
        assert_eq!(info.height, 4);
        // paper's P_i = 0^{i+1} 1 0^{11-i} all have net length 11 and
        // height 12 (max prefix potential: i+1 rises, one dip, rise to 11;
        // max is 11 at the end? prefix max = max(i+1, 11)).
        for i in 1..=9usize {
            let s = format!("{}1{}", "0".repeat(i + 1), "0".repeat(11 - i));
            let p = OrientedPath::parse(&s);
            assert_eq!(p.net_length(), 11);
            let info = levels(&p.to_digraph());
            assert!(info.balanced);
            assert_eq!(info.height, 11, "P_{i} has height 11");
        }
    }

    #[test]
    fn per_component_normalization() {
        // Two components with different spans.
        let mut g = Digraph::directed_path(2); // levels 0,1,2
        let other = Digraph::directed_path(5); // levels 0..=5
        g = g.disjoint_union(&other);
        let info = levels(&g);
        assert!(info.balanced);
        assert_eq!(info.levels[0], 0);
        assert_eq!(info.levels[2], 2);
        assert_eq!(info.levels[3], 0);
        assert_eq!(info.levels[8], 5);
        assert_eq!(info.height, 5);
    }

    #[test]
    #[should_panic(expected = "balanced")]
    fn height_panics_on_unbalanced() {
        let _ = height(&Digraph::cycle(3));
    }
}
