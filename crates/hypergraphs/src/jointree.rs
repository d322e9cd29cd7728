//! Join trees: the acyclicity witness Yannakakis' algorithm walks.

use crate::hypergraph::Hypergraph;
use serde::{Deserialize, Serialize};

/// A join tree over the hyperedges `0..n_edges` of a hypergraph: a rooted
/// forest by parent links satisfying the *running intersection property* —
/// for every vertex, the edges containing it form a connected subtree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinTree {
    /// Number of hyperedges covered (tree nodes).
    pub n_edges: usize,
    /// Parent of each hyperedge (`None` for roots).
    pub parent: Vec<Option<usize>>,
}

impl JoinTree {
    /// Roots of the forest.
    pub(crate) fn roots(&self) -> Vec<usize> {
        (0..self.n_edges)
            .filter(|&i| self.parent[i].is_none())
            .collect()
    }

    /// A bottom-up ordering (children before parents).
    pub fn bottom_up_order(&self) -> Vec<usize> {
        // Each edge's first child and next sibling, ascending.
        let mut links: Vec<(Option<usize>, Option<usize>)> = vec![(None, None); self.n_edges];
        for (u, p) in self.parent.iter().enumerate().rev() {
            if let Some(p) = *p {
                (links[u].1, links[p].0) = (links[p].0, Some(u));
            }
        }
        let mut order = Vec::with_capacity(self.n_edges);
        let mut stack: Vec<(usize, bool)> = self.roots().into_iter().map(|r| (r, false)).collect();
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                order.push(v);
            } else {
                stack.push((v, true));
                let children = std::iter::successors(links[v].0, |&c| links[c].1);
                stack.extend(children.map(|c| (c, false)));
            }
        }
        order
    }

    /// Validates the running intersection property against a hypergraph,
    /// and that the parent links are acyclic.
    pub fn validate(&self, h: &Hypergraph) -> Result<(), String> {
        if self.n_edges != h.edge_count() {
            return Err(format!(
                "join tree covers {} edges, hypergraph has {}",
                self.n_edges,
                h.edge_count()
            ));
        }
        // Acyclicity of parent links.
        for start in 0..self.n_edges {
            let mut seen = vec![false; self.n_edges];
            let mut cur = start;
            loop {
                if seen[cur] {
                    return Err(format!("parent links cycle through edge {cur}"));
                }
                seen[cur] = true;
                match self.parent[cur] {
                    None => break,
                    Some(p) => cur = p,
                }
            }
        }
        // Running intersection: for every vertex, the set of edges
        // containing it must induce a connected subgraph of the forest.
        for v in 0..h.n() as u32 {
            let occ: Vec<usize> = (0..self.n_edges)
                .filter(|&i| h.edge(i).contains(&v))
                .collect();
            if occ.len() <= 1 {
                continue;
            }
            // Union-find style: walk each occurrence's ancestor chain and
            // record the highest occurrence reachable through occurrences.
            // Simpler: build adjacency among occurrences via parent links
            // *within* the occurrence set and count components.
            let mut comp: Vec<usize> = (0..occ.len()).collect();
            fn find(comp: &mut Vec<usize>, i: usize) -> usize {
                if comp[i] != i {
                    let r = find(comp, comp[i]);
                    comp[i] = r;
                }
                comp[i]
            }
            for (ai, &a) in occ.iter().enumerate() {
                if let Some(p) = self.parent[a] {
                    if let Some(bi) = occ.iter().position(|&b| b == p) {
                        let ra = find(&mut comp, ai);
                        let rb = find(&mut comp, bi);
                        comp[ra] = rb;
                    }
                }
            }
            let mut roots: Vec<usize> = (0..occ.len()).map(|i| find(&mut comp, i)).collect();
            roots.sort_unstable();
            roots.dedup();
            if roots.len() != 1 {
                return Err(format!(
                    "vertex {v} occurs in disconnected parts of the join tree"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottom_up_visits_children_first() {
        // 0 <- 1 <- 2, 0 <- 3
        let jt = JoinTree {
            n_edges: 4,
            parent: vec![None, Some(0), Some(1), Some(0)],
        };
        let order = jt.bottom_up_order();
        let pos = |x: usize| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(2) < pos(1));
        assert!(pos(1) < pos(0));
        assert!(pos(3) < pos(0));
    }

    #[test]
    fn validate_running_intersection() {
        // Edges {0,1},{1,2},{2,3} in a path join tree: valid.
        let h = Hypergraph::from_edges(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let good = JoinTree {
            n_edges: 3,
            parent: vec![Some(1), None, Some(1)],
        };
        good.validate(&h).unwrap();
        // Star around edge 0 breaks it: vertex 2 occurs in edges 1 and 2,
        // which are siblings under 0 but 0 does not contain 2.
        let bad = JoinTree {
            n_edges: 3,
            parent: vec![None, Some(0), Some(0)],
        };
        assert!(bad.validate(&h).is_err());
    }

    #[test]
    fn validate_rejects_cycles() {
        let h = Hypergraph::from_edges(2, &[vec![0], vec![0]]);
        let bad = JoinTree {
            n_edges: 2,
            parent: vec![Some(1), Some(0)],
        };
        assert!(bad.validate(&h).is_err());
    }
}
