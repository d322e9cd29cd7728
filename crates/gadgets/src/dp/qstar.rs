//! The gadget `Q*` (Figure 7) and its acyclic folds `T₁ … T₄`, plus `T₅`
//! (Figures 9–11).
//!
//! `Q*` is the balanced 8-cycle `(a₁ … a₈)` of shape `01010101`, with a
//! copy of `P_i` attached to each `a_i` (odd `i`: `a_i` is the *terminal*
//! of `P_i`; even `i`: the *initial*), plus an entry node `x` feeding the
//! initial of `P₁`'s copy and an exit node `y` fed by the terminal of
//! `P₈`'s copy. It is balanced of height 25; `x` and `y` are its unique
//! level-0 / level-25 nodes.
//!
//! The folds identify opposite cycle nodes, breaking the 8-cycle into a
//! path: `T₁: a₁~a₇, a₂~a₆, a₃~a₅`; `T₂: a₈~a₆, a₁~a₅, a₂~a₄`;
//! `T₃: a₇~a₅, a₈~a₄, a₁~a₃`; `T₄: a₆~a₄, a₇~a₃, a₈~a₂`. They are
//! pairwise incomparable cores, each receives `Q*` by a *unique*
//! homomorphism (Claim 8.3), and each is an acyclic approximation of `Q*`
//! (Claim 8.4).

use crate::dp::anchored::Anchored;
use crate::dp::paths::p_i;
use cqapx_graphs::Digraph;
use cqapx_structures::Element;

/// `Q*` with its anchor nodes.
#[derive(Debug, Clone)]
pub struct QStar {
    /// The digraph.
    pub g: Digraph,
    /// The entry node `x` (level 0).
    pub x: Element,
    /// The exit node `y` (level 25).
    pub y: Element,
    /// The cycle nodes `a₁ … a₈` (index 0 holds `a₁`).
    pub a: [Element; 8],
}

/// Builds `Q*` (Figure 7).
pub fn q_star() -> QStar {
    let mut g = Digraph::new(8);
    let a: [Element; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
    // Balanced cycle 01010101: symbol t ∈ {0,1} orients the edge between
    // a_{t+1} and a_{t+2} (indices mod 8).
    for (idx, ch) in "01010101".chars().enumerate() {
        let u = a[idx];
        let v = a[(idx + 1) % 8];
        match ch {
            '0' => g.add_edge(u, v),
            _ => g.add_edge(v, u),
        }
    }
    // Attach P_i copies.
    let mut free_ends: [Element; 8] = [0; 8];
    for i in 1..=8usize {
        let p = p_i(i);
        if i % 2 == 1 {
            // a_i is the terminal of P_i: glue from a fresh initial.
            let s = g.add_node();
            p.glue_into(&mut g, s, a[i - 1]);
            free_ends[i - 1] = s;
        } else {
            let t = g.add_node();
            p.glue_into(&mut g, a[i - 1], t);
            free_ends[i - 1] = t;
        }
    }
    // x and y.
    let x = g.add_node();
    g.add_edge(x, free_ends[0]);
    let y = g.add_node();
    g.add_edge(free_ends[7], y);
    QStar { g, x, y, a }
}

/// The identification schedule of `T_i` (pairs of cycle indices, 1-based).
fn fold_pairs(i: usize) -> [(usize, usize); 3] {
    match i {
        1 => [(1, 7), (2, 6), (3, 5)],
        2 => [(8, 6), (1, 5), (2, 4)],
        3 => [(7, 5), (8, 4), (1, 3)],
        4 => [(6, 4), (7, 3), (8, 2)],
        _ => panic!("T_i defined for 1 ≤ i ≤ 4"),
    }
}

/// `T_i` for `1 ≤ i ≤ 4`: the corresponding fold of `Q*`, anchored at
/// (the images of) `x` and `y`.
pub fn t_i(i: usize) -> Anchored {
    let q = q_star();
    let mut g = q.g;
    let mut track: Vec<Element> = (0..g.n() as Element).collect();
    for (p, q2) in fold_pairs(i) {
        let u = track[q.a[p - 1] as usize];
        let v = track[q.a[q2 - 1] as usize];
        let (next, map) = g.identify(u, v);
        for slot in track.iter_mut() {
            *slot = map[*slot as usize];
        }
        g = next;
    }
    Anchored::new(g, track[q.x as usize], track[q.y as usize])
}

/// `T₅` (Figure 11), anchored at `x₅` and `y₅`.
pub fn t_5() -> Anchored {
    let mut g = Digraph::new(2);
    let (x5, y5) = (0, 1);
    // spine: x5 -> P1 -> junction -> P8 -> y5
    let p1_init = g.add_node();
    g.add_edge(x5, p1_init);
    let p1_term = g.add_node();
    p_i(1).glue_into(&mut g, p1_init, p1_term);
    let p8_init = g.add_node();
    g.add_edge(p1_term, p8_init);
    let p8_term = g.add_node();
    p_i(8).glue_into(&mut g, p8_init, p8_term);
    g.add_edge(p8_term, y5);
    // P9 copy with terminal at P1's terminal.
    let s = g.add_node();
    p_i(9).glue_into(&mut g, s, p1_term);
    // P9 copy with initial at P8's initial.
    let t = g.add_node();
    p_i(9).glue_into(&mut g, p8_init, t);
    Anchored::new(g, x5, y5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_graphs::{balance, BitGraph};
    use cqapx_structures::{core_ops, HomSolver, Pointed};
    use std::ops::ControlFlow;

    #[test]
    fn q_star_shape() {
        let q = q_star();
        assert_eq!(q.g.n(), 114);
        let info = balance::levels(&q.g);
        assert!(info.balanced, "Q* is balanced");
        assert_eq!(info.height, 25, "hg(Q*) = 25");
        assert_eq!(info.levels[q.x as usize], 0);
        assert_eq!(info.levels[q.y as usize], 25);
        // x and y are the unique extremal nodes.
        let zeros = info.levels.iter().filter(|&&l| l == 0).count();
        let tops = info.levels.iter().filter(|&&l| l == 25).count();
        assert_eq!((zeros, tops), (1, 1));
        // Q* itself is cyclic (the 8-cycle survives).
        assert!(!BitGraph::underlying(&q.g).is_forest());
    }

    #[test]
    fn t_i_are_acyclic_height_25() {
        for i in 1..=4 {
            let t = t_i(i);
            assert!(
                BitGraph::underlying(&t.g).is_forest(),
                "T_{i} must be acyclic"
            );
            let info = balance::levels(&t.g);
            assert!(info.balanced);
            assert_eq!(info.height, 25, "hg(T_{i}) = 25");
            assert_eq!(info.levels[t.initial as usize], 0);
            assert_eq!(info.levels[t.terminal as usize], 25);
        }
        let t5 = t_5();
        assert!(BitGraph::underlying(&t5.g).is_forest());
        let info = balance::levels(&t5.g);
        assert_eq!(info.height, 25);
    }

    #[test]
    fn q_star_maps_to_each_fold() {
        let q = q_star().g.to_structure();
        for i in 1..=4 {
            let t = t_i(i).g.to_structure();
            assert!(HomSolver::compile(&q).run(&t).exists(), "Q* → T_{i}");
        }
    }

    #[test]
    fn claim_8_3_unique_homomorphism() {
        // The homomorphism Q* → T_i is unique.
        let q = q_star().g.to_structure();
        for i in 1..=4 {
            let t = t_i(i).g.to_structure();
            let mut count = 0u32;
            HomSolver::compile(&q).run(&t).for_each(|_| {
                count += 1;
                if count > 1 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert_eq!(count, 1, "exactly one hom Q* → T_{i}");
        }
    }

    #[test]
    fn folds_pairwise_incomparable() {
        let ts: Vec<_> = (1..=5)
            .map(|i| {
                if i == 5 {
                    t_5().g.to_structure()
                } else {
                    t_i(i).g.to_structure()
                }
            })
            .collect();
        for (i, a) in ts.iter().enumerate() {
            for (j, b) in ts.iter().enumerate() {
                if i != j {
                    assert!(
                        !HomSolver::compile(a).run(b).exists(),
                        "T_{} ↛ T_{}",
                        i + 1,
                        j + 1
                    );
                }
            }
        }
    }

    #[test]
    fn t1_is_core() {
        // Representative core check (the others run in the bench harness;
        // each is ~111 retract searches).
        let t1 = t_i(1).g.to_structure();
        assert!(core_ops::is_core(&Pointed::boolean(t1)));
    }

    #[test]
    fn q_star_does_not_map_to_t5() {
        let q = q_star().g.to_structure();
        let t5 = t_5().g.to_structure();
        assert!(!HomSolver::compile(&q).run(&t5).exists(), "Q* ↛ T₅");
    }
}
