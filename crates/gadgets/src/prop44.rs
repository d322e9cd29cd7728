//! Proposition 4.4: exponentially many non-equivalent
//! `TW(1)`-approximations (Figures 3–5).
//!
//! The construction: `P₁ = 001000` and `P₂ = 000100` are incomparable
//! cores of equal net length. The digraph `D` (Figure 3) wires four fresh
//! copies of them around the 4-node pattern
//! `E = {(a,b), (a,d), (c,b), (c,d)}`; identifying `a ~ c` gives `D_ac`,
//! identifying `b ~ d` gives `D_bd` — two incomparable acyclic cores
//! (Claim 4.6). Chaining `n` copies of `D` gives `G_n` (Figure 5); folding
//! each copy by a letter of `s ∈ {V, H}ⁿ` gives `G_n^s`, and the `2ⁿ`
//! queries `Q_n^s` are pairwise non-equivalent minimized
//! `TW(1)`-approximations of `Q_n` (Claims 4.7–4.9).

use cqapx_graphs::{Digraph, OrientedPath};
use cqapx_structures::Element;

/// `P₁ = 001000`.
pub(crate) fn p1() -> OrientedPath {
    OrientedPath::parse("001000")
}

/// `P₂ = 000100`.
pub(crate) fn p2() -> OrientedPath {
    OrientedPath::parse("000100")
}

/// Anchor nodes of one copy of the digraph `D` inside a larger digraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DAnchors {
    /// The four hub nodes of Figure 3.
    pub a: Element,
    /// Hub `b`.
    pub b: Element,
    /// Hub `c`.
    pub c: Element,
    /// Hub `d`.
    pub d: Element,
    /// Initial node of the copy of `P₁` whose terminal is `a` (the chain
    /// entry point of the copy).
    pub p1_into_a_initial: Element,
    /// Terminal node of the copy of `P₂` that starts at `d` (the chain
    /// exit point of the copy).
    pub p2_from_d_terminal: Element,
}

/// Glues a fresh copy of `D` into `g`, returning its anchors.
///
/// Per Figure 3: base edges `(a,b), (a,d), (c,b), (c,d)`; copies of `P₁`
/// and `P₂` *starting* at `b` and `d`; copies of `P₁` and `P₂` *ending*
/// at `a` and `c`.
pub(crate) fn glue_d(g: &mut Digraph) -> DAnchors {
    let a = g.add_node();
    let b = g.add_node();
    let c = g.add_node();
    let d = g.add_node();
    g.add_edge(a, b);
    g.add_edge(a, d);
    g.add_edge(c, b);
    g.add_edge(c, d);
    // P1 from b (identify initial with b) to a fresh terminal.
    let t1 = g.add_node();
    p1().glue_into(g, b, t1);
    // P2 from d to a fresh terminal.
    let t2 = g.add_node();
    p2().glue_into(g, d, t2);
    // P1 ending at a, fresh initial.
    let s1 = g.add_node();
    p1().glue_into(g, s1, a);
    // P2 ending at c, fresh initial.
    let s2 = g.add_node();
    p2().glue_into(g, s2, c);
    DAnchors {
        a,
        b,
        c,
        d,
        p1_into_a_initial: s1,
        p2_from_d_terminal: t2,
    }
}

/// The digraph `D` of Figure 3 (28 nodes, 28 edges).
pub fn digraph_d() -> (Digraph, DAnchors) {
    let mut g = Digraph::new(0);
    let anchors = glue_d(&mut g);
    (g, anchors)
}

/// `D_ac`: `D` with `a` and `c` identified (Figure 4, left).
pub fn digraph_d_ac() -> Digraph {
    let (g, an) = digraph_d();
    g.identify(an.a, an.c).0
}

/// `D_bd`: `D` with `b` and `d` identified (Figure 4, right).
pub fn digraph_d_bd() -> Digraph {
    let (g, an) = digraph_d();
    g.identify(an.b, an.d).0
}

/// One letter of the folding word `s ∈ {V, H}ⁿ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Identify `a` with `c` (the copy becomes `D_ac`).
    V,
    /// Identify `b` with `d` (the copy becomes `D_bd`).
    H,
}

/// `G_n` (Figure 5): `n` chained copies of `D`, plus the anchors of each
/// copy.
pub fn g_n(n: usize) -> (Digraph, Vec<DAnchors>) {
    assert!(n >= 1);
    let mut g = Digraph::new(0);
    let mut anchors = Vec::with_capacity(n);
    for i in 0..n {
        let an = glue_d(&mut g);
        if i > 0 {
            let prev: &DAnchors = &anchors[i - 1];
            // Edge from the terminal of the P2 starting at d in copy i−1
            // to the initial of the P1 ending at a in copy i.
            g.add_edge(prev.p2_from_d_terminal, an.p1_into_a_initial);
        }
        anchors.push(an);
    }
    (g, anchors)
}

/// `G_n^s`: `G_n` folded copy-by-copy according to `s`.
pub fn g_n_s(s: &[Fold]) -> Digraph {
    let (mut g, anchors) = g_n(s.len());
    // Identify from the last copy backwards so earlier anchor indices stay
    // valid: identify() compacts indices, so re-track via the returned
    // maps instead.
    let mut current = g.clone();
    let mut node_of: Vec<Element> = (0..g.n() as Element).collect();
    for (i, &fold) in s.iter().enumerate() {
        let (x, y) = match fold {
            Fold::V => (anchors[i].a, anchors[i].c),
            Fold::H => (anchors[i].b, anchors[i].d),
        };
        let (next, map) = current.identify(node_of[x as usize], node_of[y as usize]);
        for slot in node_of.iter_mut() {
            *slot = map[*slot as usize];
        }
        current = next;
    }
    g = current;
    g
}

/// All `2ⁿ` folding words of length `n`.
pub fn all_words(n: usize) -> Vec<Vec<Fold>> {
    (0..(1u32 << n))
        .map(|mask| {
            (0..n)
                .map(|i| {
                    if (mask >> i) & 1 == 0 {
                        Fold::V
                    } else {
                        Fold::H
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_graphs::{balance, BitGraph};
    use cqapx_structures::{core_ops, HomSolver, Pointed};

    #[test]
    fn d_shape() {
        let (g, an) = digraph_d();
        assert_eq!(g.n(), 28, "Q_n has 28n variables");
        assert_eq!(g.edge_count(), 28, "29n − 1 edges for n = 1");
        assert!(g.has_edge(an.a, an.b));
        let info = balance::levels(&g);
        assert!(info.balanced);
        assert_eq!(info.height, 9, "Figure 4 levels go up to 9");
    }

    #[test]
    fn dac_dbd_are_incomparable_cores() {
        // Claim 4.6.
        let dac = digraph_d_ac().to_structure();
        let dbd = digraph_d_bd().to_structure();
        assert!(!HomSolver::compile(&dac).run(&dbd).exists(), "D_ac ↛ D_bd");
        assert!(!HomSolver::compile(&dbd).run(&dac).exists(), "D_bd ↛ D_ac");
        assert!(core_ops::is_core(&Pointed::boolean(dac)));
        assert!(core_ops::is_core(&Pointed::boolean(dbd)));
    }

    #[test]
    fn folds_are_acyclic_and_balanced() {
        let dac = digraph_d_ac();
        let dbd = digraph_d_bd();
        assert!(BitGraph::underlying(&dac).is_forest(), "D_ac is acyclic");
        assert!(BitGraph::underlying(&dbd).is_forest(), "D_bd is acyclic");
        assert!(balance::is_balanced(&dac));
        assert!(balance::is_balanced(&dbd));
        assert_eq!(balance::height(&dac), 9, "Figure 4: height 9");
        assert_eq!(balance::height(&dbd), 9);
    }

    #[test]
    fn gn_maps_onto_each_fold() {
        // G_n → G_n^s via the quotient map (Claim 4.8 direction).
        let (g2, _) = g_n(2);
        let g2s = g_n_s(&[Fold::V, Fold::H]);
        assert!(HomSolver::compile(&g2.to_structure())
            .run(&g2s.to_structure())
            .exists());
        assert!(BitGraph::underlying(&g2s).is_forest(), "G_n^s ∈ TW(1)");
    }

    #[test]
    fn folded_words_pairwise_incomparable_n2() {
        // Claim 4.7 for n = 2: the 4 folds are pairwise incomparable cores.
        let words = all_words(2);
        let folds: Vec<_> = words.iter().map(|w| g_n_s(w).to_structure()).collect();
        for (i, a) in folds.iter().enumerate() {
            assert!(
                core_ops::is_core(&Pointed::boolean(a.clone())),
                "fold {i} is a core"
            );
            for (j, b) in folds.iter().enumerate() {
                if i != j {
                    assert!(
                        !HomSolver::compile(a).run(b).exists(),
                        "fold {i} ↛ fold {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn gn_levels_grow() {
        // Figure 5: chained copies occupy disjoint level bands (the i-th
        // copy's levels are shifted by 10).
        let (g3, anchors) = g_n(3);
        let info = balance::levels(&g3);
        assert!(info.balanced);
        assert_eq!(info.height, 29, "G_3 reaches level 29");
        assert_eq!(
            info.levels[anchors[0].a as usize] + 10,
            info.levels[anchors[1].a as usize]
        );
    }
}
