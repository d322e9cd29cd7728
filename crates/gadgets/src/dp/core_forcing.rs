//! The core-forcing gadgets of the appendix's final construction
//! (Figures 21–22): the oriented paths `W_n = 000(10)^n 0` and their
//! marked variants `W_n^k`.
//!
//! To make the reduction `φ(G)` a *core* (as Theorem 4.12's strengthened
//! statement requires), the appendix attaches to the `k`-th vertex of `G`
//! a gadget `S_n^k` built around `W_n^k` — `W_n` plus one extra edge
//! `z_k → x_k` pointing at the `k`-th "tooth". Claim 8.16: for each `n`,
//! the digraphs `W_n^k` (`1 ≤ k ≤ n`) are pairwise incomparable cores —
//! the marker's position is homomorphism-detectable, which pins every
//! vertex of `φ̃(G)` in place. (The surrounding `S_n^k` exists only in
//! Figure 23, which did not survive extraction; `W_n^k` and its claim are
//! textual and verified here.)

use cqapx_graphs::{Digraph, OrientedPath};
use cqapx_structures::Element;

/// Anchor nodes of `W_n` (Figure 21).
#[derive(Debug, Clone)]
pub struct WPath {
    /// The digraph.
    pub g: Digraph,
    /// The spine start `a` (level 0).
    pub a: Element,
    /// The apex `e` (level 4, the terminal node).
    pub e: Element,
    /// The valley nodes `x₁ … x_n` (level 2).
    pub x: Vec<Element>,
    /// The peak nodes `y₁ … y_n` (level 3).
    pub y: Vec<Element>,
}

/// `W_n = 000(10)^n 0`: a rising 3-path, `n` teeth oscillating between
/// levels 3 and 2, and a final rise to level 4.
pub fn w_n(n: usize) -> WPath {
    assert!(n >= 1);
    let mut s = String::from("000");
    for _ in 0..n {
        s.push_str("10");
    }
    s.push('0');
    let p = OrientedPath::parse(&s);
    let g = p.to_digraph();
    // Node i of the path digraph is position i along the spine:
    // a=0, b=1, c=2, d=3, then x_i = 3 + 2i - 1, y_i = 3 + 2i.
    let x: Vec<Element> = (1..=n).map(|i| (2 + 2 * i) as Element).collect();
    let y: Vec<Element> = (1..=n).map(|i| (3 + 2 * i) as Element).collect();
    let e = (p.len()) as Element;
    WPath { g, a: 0, e, x, y }
}

/// `W_n^k` (Figure 22): `W_n` plus a fresh node `z_k` with the marker
/// edge `z_k → x_k`.
pub fn w_n_k(n: usize, k: usize) -> WPath {
    assert!((1..=n).contains(&k), "need 1 ≤ k ≤ n");
    let mut w = w_n(n);
    let z = w.g.add_node();
    w.g.add_edge(z, w.x[k - 1]);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_graphs::balance;
    use cqapx_structures::{core_ops, HomSolver, Pointed};

    #[test]
    fn w_n_shape() {
        for n in 1..=4 {
            let w = w_n(n);
            let info = balance::levels(&w.g);
            assert!(info.balanced);
            assert_eq!(info.height, 4, "hg(W_n) = 4");
            assert_eq!(info.levels[w.a as usize], 0);
            assert_eq!(info.levels[w.e as usize], 4);
            for &xi in &w.x {
                assert_eq!(info.levels[xi as usize], 2, "valleys at level 2");
            }
            for &yi in &w.y {
                assert_eq!(info.levels[yi as usize], 3, "peaks at level 3");
            }
        }
    }

    #[test]
    fn w_n_k_marker_at_level_1() {
        let w = w_n_k(5, 2);
        let info = balance::levels(&w.g);
        assert!(info.balanced);
        assert_eq!(info.height, 4);
        // the marker z sits one below its valley
        let z = (w.g.n() - 1) as Element;
        assert_eq!(info.levels[z as usize], 1);
    }

    #[test]
    fn claim_8_16_pairwise_incomparable_cores() {
        // For each n, the W_n^k (1 ≤ k ≤ n) are incomparable cores.
        for n in [3usize, 5] {
            let family: Vec<_> = (1..=n).map(|k| w_n_k(n, k).g.to_structure()).collect();
            for (i, a) in family.iter().enumerate() {
                assert!(
                    core_ops::is_core(&Pointed::boolean(a.clone())),
                    "W_{n}^{} is a core",
                    i + 1
                );
                for (j, b) in family.iter().enumerate() {
                    if i != j {
                        assert!(
                            !HomSolver::compile(a).run(b).exists(),
                            "W_{n}^{} ↛ W_{n}^{}",
                            i + 1,
                            j + 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plain_w_n_is_not_a_core_obstacle() {
        // W_n without a marker folds: W_n → W_1 (all teeth collapse).
        let w5 = w_n(5).g.to_structure();
        let w1 = w_n(1).g.to_structure();
        assert!(HomSolver::compile(&w5).run(&w1).exists());
    }
}
