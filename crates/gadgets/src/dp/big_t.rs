//! The target digraph `T` of Figure 14.
//!
//! `T` is the disjoint union of the four branches `T_i · T₅⁻¹`
//! (`1 ≤ i ≤ 4`) with all branch-initial nodes identified into the hub
//! `v`. Its level-25 nodes are exactly the four junctions
//! `t_i = y_i ~ y₅`, and its level-0 nodes are `v` and the four free ends
//! `u_i` (the `x₅` of each branch).

use crate::dp::qstar::{t_5, t_i};
use cqapx_graphs::Digraph;
use cqapx_structures::Element;

/// `T` with its distinguished nodes.
#[derive(Debug, Clone)]
pub struct BigT {
    /// The digraph (a tree; 657 nodes).
    pub g: Digraph,
    /// The hub `v` (level 0).
    pub v: Element,
    /// The color nodes `t₁ … t₄` (level 25).
    pub t: [Element; 4],
    /// The free branch ends `u₁ … u₄` (level 0).
    pub u: [Element; 4],
}

/// Builds `T`.
pub fn big_t() -> BigT {
    let t5_inv = t_5().inverse();
    let mut g = Digraph::new(1);
    let v = 0;
    let mut t_nodes = [0; 4];
    let mut u_nodes = [0; 4];
    for i in 1..=4usize {
        let branch_ti = t_i(i);
        // Glue T_i with its initial at v.
        let identify: Vec<Option<Element>> = (0..branch_ti.g.n() as Element)
            .map(|x| {
                if x == branch_ti.initial {
                    Some(v)
                } else {
                    None
                }
            })
            .collect();
        let placed = g.glue(&branch_ti.g, &identify);
        let yi = placed[branch_ti.terminal as usize];
        // Glue T5^{-1} with its initial (= y5) at y_i.
        let identify5: Vec<Option<Element>> = (0..t5_inv.g.n() as Element)
            .map(|x| if x == t5_inv.initial { Some(yi) } else { None })
            .collect();
        let placed5 = g.glue(&t5_inv.g, &identify5);
        t_nodes[i - 1] = yi;
        u_nodes[i - 1] = placed5[t5_inv.terminal as usize];
    }
    BigT {
        g,
        v,
        t: t_nodes,
        u: u_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_graphs::{balance, BitGraph};

    #[test]
    fn big_t_shape() {
        let t = big_t();
        assert!(BitGraph::underlying(&t.g).is_forest(), "T is a tree");
        let info = balance::levels(&t.g);
        assert!(info.balanced);
        assert_eq!(info.height, 25);
        // Level-25 nodes are exactly t1..t4.
        let tops: Vec<Element> = (0..t.g.n() as Element)
            .filter(|&x| info.levels[x as usize] == 25)
            .collect();
        let mut expected = t.t.to_vec();
        expected.sort_unstable();
        assert_eq!(tops, expected);
        // Level-0 nodes are v and u1..u4.
        let bottoms: Vec<Element> = (0..t.g.n() as Element)
            .filter(|&x| info.levels[x as usize] == 0)
            .collect();
        let mut expected = vec![t.v];
        expected.extend(t.u);
        expected.sort_unstable();
        assert_eq!(bottoms, expected);
    }

    #[test]
    fn big_t_is_connected() {
        let t = big_t();
        let u = cqapx_graphs::BitGraph::underlying(&t.g);
        let (mut reached, mut stack) = (vec![0], vec![0]);
        while let Some(x) = stack.pop() {
            for y in (0..u.n()).filter(|&y| u.has_edge(x, y)) {
                if !reached.contains(&y) {
                    reached.push(y);
                    stack.push(y);
                }
            }
        }
        assert_eq!(reached.len(), u.n());
    }
}
