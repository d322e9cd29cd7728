//! Oriented paths written as `{0,1}` strings.
//!
//! Following Hell & Nešetřil (and the paper's Propositions 4.4 and the
//! appendix), an oriented path is a digraph on nodes `u₀, …, u_n` where for
//! each `i` exactly one of `(u_i, u_{i+1})` ("forward", written `0`) or
//! `(u_{i+1}, u_i)` ("backward", written `1`) is an edge. The **net
//! length** is #forward − #backward. For example `P = 001` is two forward
//! edges followed by a backward edge.

use crate::digraph::Digraph;
use cqapx_structures::Element;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An oriented path described by its `{0,1}` string.
///
/// # Examples
///
/// ```
/// use cqapx_graphs::OrientedPath;
///
/// let p = OrientedPath::parse("001000");
/// assert_eq!(p.len(), 6);
/// assert_eq!(p.net_length(), 4);
/// let g = p.to_digraph();
/// assert_eq!(g.n(), 7);
/// assert!(g.has_edge(0, 1)); // forward
/// assert!(g.has_edge(3, 2)); // backward (third symbol is 1)
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OrientedPath {
    /// `false` = forward edge (`0`), `true` = backward edge (`1`).
    steps: Vec<bool>,
}

impl OrientedPath {
    /// Parses a `{0,1}` string, e.g. `"001000"`.
    ///
    /// # Panics
    ///
    /// Panics on characters other than `0`/`1`.
    pub fn parse(s: &str) -> Self {
        let steps = s
            .chars()
            .map(|c| match c {
                '0' => false,
                '1' => true,
                other => panic!("invalid oriented-path symbol {other:?}"),
            })
            .collect();
        OrientedPath { steps }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` for the empty path (a single node).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Net length: forward edges minus backward edges.
    pub fn net_length(&self) -> i64 {
        self.steps.iter().map(|&b| if b { -1i64 } else { 1 }).sum()
    }

    /// Materializes the path as a digraph on nodes `0..=len()`, with the
    /// initial node `0` and terminal node `len()`.
    pub fn to_digraph(&self) -> Digraph {
        let mut g = Digraph::new(self.len() + 1);
        for (i, &back) in self.steps.iter().enumerate() {
            let (u, v) = (i as Element, (i + 1) as Element);
            if back {
                g.add_edge(v, u);
            } else {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Glues this path into `g` from node `from` to node `to`, creating the
    /// interior nodes fresh. Returns the node sequence `u₀ … u_n` (so
    /// `u₀ = from`, `u_n = to`).
    ///
    /// The paper's figures draw "an edge `uv` labeled with `P`" for exactly
    /// this operation.
    pub fn glue_into(&self, g: &mut Digraph, from: Element, to: Element) -> Vec<Element> {
        let mut nodes = Vec::with_capacity(self.len() + 1);
        nodes.push(from);
        for _ in 1..self.len() {
            nodes.push(g.add_node());
        }
        if self.is_empty() {
            assert_eq!(from, to, "empty path needs matching endpoints");
            return nodes;
        }
        nodes.push(to);
        for (i, &back) in self.steps.iter().enumerate() {
            let (u, v) = (nodes[i], nodes[i + 1]);
            if back {
                g.add_edge(v, u);
            } else {
                g.add_edge(u, v);
            }
        }
        nodes
    }
}

impl fmt::Display for OrientedPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.steps {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_structures::HomSolver;

    impl OrientedPath {
        /// The directed path `0^k` of length `k`.
        pub(crate) fn forward(k: usize) -> Self {
            OrientedPath {
                steps: vec![false; k],
            }
        }

        /// The reversed path walked from the terminal node (swaps the roles of
        /// initial and terminal node; each step flips direction).
        pub(crate) fn reversed(&self) -> OrientedPath {
            OrientedPath {
                steps: self.steps.iter().rev().map(|&b| !b).collect(),
            }
        }

        /// Concatenation: walk `self`, then `other` from `self`'s terminal node.
        pub(crate) fn concat(&self, other: &OrientedPath) -> OrientedPath {
            let mut steps = self.steps.clone();
            steps.extend_from_slice(&other.steps);
            OrientedPath { steps }
        }
    }

    #[test]
    fn parse_and_display() {
        let p = OrientedPath::parse("0101");
        assert_eq!(p.to_string(), "0101");
        assert_eq!(p.net_length(), 0);
    }

    #[test]
    fn forward_path() {
        let p = OrientedPath::forward(3);
        assert_eq!(p.to_string(), "000");
        assert_eq!(p.net_length(), 3);
    }

    #[test]
    fn reversal_negates_net_length() {
        let p = OrientedPath::parse("00100");
        assert_eq!(p.reversed().net_length(), -p.net_length());
        assert_eq!(p.reversed().reversed(), p);
    }

    #[test]
    fn concat_adds_net_length() {
        let a = OrientedPath::parse("001");
        let b = OrientedPath::parse("10");
        let c = a.concat(&b);
        assert_eq!(c.to_string(), "00110");
        assert_eq!(c.net_length(), a.net_length() + b.net_length());
    }

    #[test]
    fn digraph_shape() {
        let p = OrientedPath::parse("01");
        let g = p.to_digraph();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 1));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn glue_into_graph() {
        let mut g = Digraph::new(2);
        let p = OrientedPath::parse("010");
        let nodes = p.glue_into(&mut g, 0, 1);
        assert_eq!(nodes.len(), 4);
        assert_eq!(nodes[0], 0);
        assert_eq!(nodes[3], 1);
        assert_eq!(g.n(), 4);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn paper_p1_p2_incomparable_cores() {
        // Proposition 4.4 uses P1 = 001000 and P2 = 000100 and claims they
        // are incomparable cores. Verify with the hom engine.
        let p1 = OrientedPath::parse("001000").to_digraph().to_structure();
        let p2 = OrientedPath::parse("000100").to_digraph().to_structure();
        assert!(!HomSolver::compile(&p1).run(&p2).exists());
        assert!(!HomSolver::compile(&p2).run(&p1).exists());
        use cqapx_structures::{core_ops, Pointed};
        assert!(core_ops::is_core(&Pointed::boolean(p1)));
        assert!(core_ops::is_core(&Pointed::boolean(p2)));
    }
}
