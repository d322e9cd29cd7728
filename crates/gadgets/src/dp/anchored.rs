//! Digraphs with initial and terminal anchors, and their concatenation
//! calculus (`G · H`, `G⁻¹`) from the appendix.

use cqapx_graphs::Digraph;
use cqapx_structures::Element;

/// A digraph with two distinguished nodes: an initial and a terminal one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anchored {
    /// The underlying digraph.
    pub g: Digraph,
    /// The initial node.
    pub initial: Element,
    /// The terminal node.
    pub terminal: Element,
}

impl Anchored {
    /// Wraps a digraph with anchors.
    pub fn new(g: Digraph, initial: Element, terminal: Element) -> Self {
        assert!((initial as usize) < g.n() && (terminal as usize) < g.n());
        Anchored {
            g,
            initial,
            terminal,
        }
    }

    /// `G⁻¹`: same digraph, anchors swapped.
    pub(crate) fn inverse(&self) -> Anchored {
        Anchored {
            g: self.g.clone(),
            initial: self.terminal,
            terminal: self.initial,
        }
    }

    /// Concatenation `G · H`: disjoint union identifying `G`'s terminal
    /// with `H`'s initial. Returns the composite (anchors: `G`'s initial,
    /// `H`'s terminal) together with the placement of `H`'s nodes.
    pub(crate) fn concat(&self, other: &Anchored) -> (Anchored, Vec<Element>) {
        let mut g = self.g.clone();
        let identify: Vec<Option<Element>> = (0..other.g.n() as Element)
            .map(|v| {
                if v == other.initial {
                    Some(self.terminal)
                } else {
                    None
                }
            })
            .collect();
        let placed = g.glue(&other.g, &identify);
        let composite = Anchored {
            g,
            initial: self.initial,
            terminal: placed[other.terminal as usize],
        };
        (composite, placed)
    }

    /// Chains a sequence of anchored digraphs: `a₁ · a₂ · … · a_m`.
    /// Returns the composite plus, for each stage, the junction node
    /// (where stage `i`'s terminal = stage `i+1`'s initial landed) — these
    /// are the `x₁, x₂, …` of Figures 16 and 17.
    pub(crate) fn chain(parts: &[&Anchored]) -> (Anchored, Vec<Element>) {
        assert!(!parts.is_empty());
        let mut acc = parts[0].clone();
        let mut junctions = Vec::new();
        for p in &parts[1..] {
            junctions.push(acc.terminal);
            let (next, _) = acc.concat(p);
            acc = next;
        }
        (acc, junctions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_graphs::{balance, OrientedPath};

    fn path(s: &str) -> Anchored {
        let p = OrientedPath::parse(s);
        let n = p.len() as Element;
        Anchored::new(p.to_digraph(), 0, n)
    }

    #[test]
    fn concat_glues_at_junction() {
        let a = path("00");
        let b = path("01");
        let (c, _) = a.concat(&b);
        assert_eq!(c.g.n(), 5);
        assert_eq!(c.g.edge_count(), 4);
        assert_eq!(c.initial, 0);
        // net length of composite = 2 + 0
        let info = balance::levels(&c.g);
        assert_eq!(
            info.levels[c.terminal as usize] - info.levels[c.initial as usize],
            2
        );
    }

    #[test]
    fn inverse_swaps() {
        let a = path("001");
        let inv = a.inverse();
        assert_eq!(inv.initial, a.terminal);
        assert_eq!(inv.terminal, a.initial);
        assert_eq!(inv.inverse(), a);
    }

    #[test]
    fn chain_reports_junctions() {
        let a = path("0");
        let (c, junctions) = Anchored::chain(&[&a, &a.inverse(), &a]);
        assert_eq!(junctions.len(), 2);
        assert_eq!(c.g.n(), 4);
        // shape: 0 -> 1 <- 2 -> 3 after gluing? chain: edge up, edge down,
        // edge up: zigzag of 3 edges.
        assert_eq!(c.g.edge_count(), 3);
        let info = balance::levels(&c.g);
        assert!(info.balanced);
        assert_eq!(info.height, 1);
    }
}
