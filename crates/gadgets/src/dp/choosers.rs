//! Choosers: gadgets constraining the joint images of two nodes in `T`.
//!
//! The **extended choosers** are given explicitly in the text
//! (Claim 8.9 / Figures 16–17):
//!
//! * `S̃₂₁ = T₁₂ · T₁₂₅⁻¹ · T₃₄₅` — an extended (2,1)-chooser;
//! * `S̃₃₄ = T₁₂ · T₂₅⁻¹ · T₃₅ · T₁₅⁻¹ · T₂₄₅ · T₃₅⁻¹ · T₁₅` — an
//!   extended (3,4)-chooser;
//!
//! with `a` the terminal of the leading `T₁₂` copy and `b` the overall
//! terminal. An extended `(i,j)`-chooser satisfies: every homomorphism
//! into `T` maps `a` to `t₁` or `t₂`; `h(a) = t₁` forbids `h(b) = t_i`
//! and `h(a) = t₂` forbids `h(b) = t_j`; all other `(h(a), h(b))` pairs
//! over `{t₁ … t₄}` are realizable.
//!
//! The **plain choosers** `S₁₃`, `S₂₁`, `S₃₂` of the paper exist only in
//! Figure 15, whose wiring did not survive the text extraction, so they
//! are not built. [`PairGadget`] is the interface they would implement,
//! and [`pair_table`] is the verification harness: it computes, for any
//! candidate gadget, the exact set of realizable `(h(a), h(b))` pairs
//! (sound by Lemma 4.5: all gadgets are balanced of height 25, so `a`,
//! `b` — level-25 nodes — can only land on `t₁ … t₄`).

use crate::dp::anchored::Anchored;
use crate::dp::big_t::BigT;
use crate::dp::connectors::{t_ij, t_ijk};
use cqapx_structures::{Element, HomSolver};

/// A digraph with two distinguished level-25 nodes `a`, `b` meant to be
/// glued onto color nodes of `T`.
#[derive(Debug, Clone)]
pub struct PairGadget {
    /// The gadget digraph.
    pub g: cqapx_graphs::Digraph,
    /// The first distinguished node.
    pub a: Element,
    /// The second distinguished node.
    pub b: Element,
}

/// `S̃₂₁ = T₁₂ · T₁₂₅⁻¹ · T₃₄₅` (Figure 16).
pub fn extended_chooser_21() -> PairGadget {
    let t12 = t_ij(1, 2);
    let t125_inv = t_ijk(1, 2, 5).inverse();
    let t345 = t_ijk(3, 4, 5);
    let (chain, junctions) = Anchored::chain(&[&t12, &t125_inv, &t345]);
    PairGadget {
        g: chain.g,
        a: junctions[0],
        b: chain.terminal,
    }
}

/// `S̃₃₄ = T₁₂ · T₂₅⁻¹ · T₃₅ · T₁₅⁻¹ · T₂₄₅ · T₃₅⁻¹ · T₁₅` (Figure 17).
pub fn extended_chooser_34() -> PairGadget {
    let t12 = t_ij(1, 2);
    let t25_inv = t_ij(2, 5).inverse();
    let t35 = t_ij(3, 5);
    let t15_inv = t_ij(1, 5).inverse();
    let t245 = t_ijk(2, 4, 5);
    let t35_inv = t_ij(3, 5).inverse();
    let t15 = t_ij(1, 5);
    let (chain, junctions) =
        Anchored::chain(&[&t12, &t25_inv, &t35, &t15_inv, &t245, &t35_inv, &t15]);
    PairGadget {
        g: chain.g,
        a: junctions[0],
        b: chain.terminal,
    }
}

/// Computes the exact set of realizable `(h(a), h(b))` color pairs of a
/// gadget against `T`: entry `[i][j]` is `true` when some homomorphism
/// maps `a ↦ t_{i+1}` and `b ↦ t_{j+1}`.
///
/// By Lemma 4.5 (both sides balanced, equal height 25) every homomorphism
/// maps `a` and `b` onto level-25 nodes of `T`, which are exactly
/// `t₁ … t₄`; the 16 pinned searches below therefore cover all cases.
pub fn pair_table(gadget: &PairGadget, t: &BigT) -> [[bool; 4]; 4] {
    let solver = HomSolver::compile(&gadget.g.to_structure());
    let tgt = t.g.to_structure();
    let mut table = [[false; 4]; 4];
    for (i, &ti) in t.t.iter().enumerate() {
        // Quick reject: can a land on t_i at all?
        if !solver.run(&tgt).pin(gadget.a, ti).exists() {
            continue;
        }
        for (j, &tj) in t.t.iter().enumerate() {
            table[i][j] = solver
                .run(&tgt)
                .pin(gadget.a, ti)
                .pin(gadget.b, tj)
                .exists();
        }
    }
    table
}

/// The expected pair table of an extended `(i, j)`-chooser: `a ∈ {t₁,t₂}`;
/// `(t₁, t_i)` and `(t₂, t_j)` forbidden; everything else allowed.
pub fn expected_extended_table(i: usize, j: usize) -> [[bool; 4]; 4] {
    let mut table = [[false; 4]; 4];
    for (b, row) in table.iter_mut().enumerate().take(2) {
        for (c, cell) in row.iter_mut().enumerate() {
            *cell = !((b == 0 && c == i - 1) || (b == 1 && c == j - 1));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::big_t::big_t;
    use cqapx_graphs::balance;

    #[test]
    fn extended_choosers_are_balanced_height_25() {
        for (g, name) in [
            (extended_chooser_21(), "S~21"),
            (extended_chooser_34(), "S~34"),
        ] {
            let info = balance::levels(&g.g);
            assert!(info.balanced, "{name} balanced");
            assert_eq!(info.height, 25, "{name} height");
            assert_eq!(info.levels[g.a as usize], 25, "{name}: a at level 25");
            assert_eq!(info.levels[g.b as usize], 25, "{name}: b at level 25");
        }
    }

    #[test]
    fn claim_8_9_extended_chooser_21_table() {
        let t = big_t();
        let table = pair_table(&extended_chooser_21(), &t);
        assert_eq!(table, expected_extended_table(2, 1), "S̃₂₁ pair table");
    }

    #[test]
    fn claim_8_9_extended_chooser_34_table() {
        let t = big_t();
        let table = pair_table(&extended_chooser_34(), &t);
        assert_eq!(table, expected_extended_table(3, 4), "S̃₃₄ pair table");
    }
}
