//! The connector trees `T_{ij}` (Claim 8.5) and `T_{ijk}` (Claim 8.6).
//!
//! All share the spine `P` (`p₁ → P₁ → P₈ → p₂`); a folding path is
//! grafted onto the spine:
//!
//! * `T_{ij}`: graft `X_{ij}` by its **terminal** at `P₁`'s terminal,
//!   where `X₁₅ = P₇₉`, `X₂₅ = P₅₉`, `X₃₅ = P₃₉`, `X₁₂ = P₅₇`,
//!   `X₁₃ = P₃₇`, `X₂₃ = P₃₅` (Figure 12);
//! * `T₁₂₅`: graft `P₅₇₉` by its terminal at `P₁`'s terminal;
//!   `T₂₄₅`/`T₃₄₅`: graft `X₂₄₅ = P₂₆₉` / `X₃₄₅ = P₂₄₉` by its
//!   **initial** at `P₈`'s initial (Figure 13).
//!
//! The claims: `T_S → T_k` exactly for `k ∈ S` (with `T₁ … T₅` from
//! [`crate::dp::qstar`]) — machine-verified in the tests below.

use crate::dp::anchored::Anchored;
use crate::dp::paths::{p_i, p_ij, p_ijk};
use cqapx_graphs::{Digraph, OrientedPath};
use cqapx_structures::Element;

/// The spine `P`: `p₁ → P₁ → junction → P₈ → p₂`. Returns the anchored
/// digraph plus `(P₁ terminal, P₈ initial)`.
fn spine() -> (Anchored, Element, Element) {
    let mut g = Digraph::new(2);
    let (pp1, pp2) = (0, 1);
    let p1_init = g.add_node();
    g.add_edge(pp1, p1_init);
    let p1_term = g.add_node();
    p_i(1).glue_into(&mut g, p1_init, p1_term);
    let p8_init = g.add_node();
    g.add_edge(p1_term, p8_init);
    let p8_term = g.add_node();
    p_i(8).glue_into(&mut g, p8_init, p8_term);
    g.add_edge(p8_term, pp2);
    (Anchored::new(g, pp1, pp2), p1_term, p8_init)
}

fn graft_at_terminal(base: &mut Digraph, x: &OrientedPath, at: Element) {
    let s = base.add_node();
    x.glue_into(base, s, at);
}

fn graft_at_initial(base: &mut Digraph, x: &OrientedPath, at: Element) {
    let t = base.add_node();
    x.glue_into(base, at, t);
}

/// `T_{ij}` for `(i,j) ∈ {(1,5), (2,5), (3,5), (1,2), (1,3), (2,3)}`.
pub fn t_ij(i: usize, j: usize) -> Anchored {
    let x = match (i, j) {
        (1, 5) => p_ij(7, 9),
        (2, 5) => p_ij(5, 9),
        (3, 5) => p_ij(3, 9),
        (1, 2) => p_ij(5, 7),
        (1, 3) => p_ij(3, 7),
        (2, 3) => p_ij(3, 5),
        _ => panic!("T_ij defined for (1,5),(2,5),(3,5),(1,2),(1,3),(2,3)"),
    };
    let (mut a, p1_term, _) = spine();
    graft_at_terminal(&mut a.g, &x, p1_term);
    a
}

/// `T_{ijk}` for `(i,j,k) ∈ {(1,2,5), (2,4,5), (3,4,5)}`.
pub fn t_ijk(i: usize, j: usize, k: usize) -> Anchored {
    let (mut a, p1_term, p8_init) = spine();
    match (i, j, k) {
        (1, 2, 5) => graft_at_terminal(&mut a.g, &p_ijk(5, 7, 9), p1_term),
        (2, 4, 5) => graft_at_initial(&mut a.g, &p_ijk(2, 6, 9), p8_init),
        (3, 4, 5) => graft_at_initial(&mut a.g, &p_ijk(2, 4, 9), p8_init),
        _ => panic!("T_ijk defined for (1,2,5),(2,4,5),(3,4,5)"),
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_graphs::{balance, BitGraph};
    use cqapx_structures::HomSolver;

    /// The five targets `T₁ … T₅` as structures.
    fn targets() -> Vec<cqapx_structures::Structure> {
        (1..=5)
            .map(|i| {
                if i == 5 {
                    crate::dp::qstar::t_5().g.to_structure()
                } else {
                    crate::dp::qstar::t_i(i).g.to_structure()
                }
            })
            .collect()
    }

    #[test]
    fn connector_shapes() {
        for &(i, j) in &[(1, 5), (2, 5), (3, 5), (1, 2), (1, 3), (2, 3)] {
            let t = t_ij(i, j);
            assert!(BitGraph::underlying(&t.g).is_forest());
            let info = balance::levels(&t.g);
            assert!(info.balanced);
            assert_eq!(info.height, 25);
            assert_eq!(info.levels[t.initial as usize], 0);
            assert_eq!(info.levels[t.terminal as usize], 25);
        }
        for &(i, j, k) in &[(1, 2, 5), (2, 4, 5), (3, 4, 5)] {
            let t = t_ijk(i, j, k);
            assert!(BitGraph::underlying(&t.g).is_forest());
            assert_eq!(balance::height(&t.g), 25);
        }
    }

    #[test]
    fn claim_8_5_t_ij_mapping_table() {
        let tg = targets();
        for &(i, j) in &[(1, 5), (2, 5), (3, 5), (1, 2), (1, 3), (2, 3)] {
            let tij = t_ij(i, j).g.to_structure();
            for k in 1..=5usize {
                let expected = k == i || k == j;
                assert_eq!(
                    HomSolver::compile(&tij).run(&tg[k - 1]).exists(),
                    expected,
                    "T_{{{i}{j}}} → T_{k} should be {expected}"
                );
            }
        }
    }

    #[test]
    fn claim_8_6_t_ijk_mapping_table() {
        let tg = targets();
        for &(i, j, k) in &[(1, 2, 5), (2, 4, 5), (3, 4, 5)] {
            let tijk = t_ijk(i, j, k).g.to_structure();
            for l in 1..=5usize {
                let expected = l == i || l == j || l == k;
                assert_eq!(
                    HomSolver::compile(&tijk).run(&tg[l - 1]).exists(),
                    expected,
                    "T_{{{i}{j}{k}}} → T_{l} should be {expected}"
                );
            }
        }
    }
}
