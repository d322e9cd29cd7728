//! The tractable query classes as first-class membership oracles.
//!
//! The paper's layer has three classes, and [`QueryClass`] is one variant
//! each. A class decides membership of a query (given as a tableau) and
//! declares which **closure discipline** it satisfies — the hypothesis
//! the corresponding existence theorem needs:
//!
//! * [`ClassKind::SubgraphClosed`] (Theorem 4.1): graph-based classes
//!   closed under subgraphs, `TW(k)`. Approximations can be chosen among
//!   homomorphic images (quotients) of the tableau.
//! * [`ClassKind::HypergraphClosed`] (Theorem 6.1 / Lemma 6.4):
//!   hypergraph-based classes closed under induced subhypergraphs and edge
//!   extensions, `AC` and `HTW(k)`. Approximations are found among
//!   quotients **augmented** with extra atoms (Claim 6.2 keeps the sizes
//!   polynomial).
//!
//! Membership reads one graph of the query: `TW(k)` its co-occurrence
//! (Gaifman) graph, `AC` and `HTW(k)` its hypergraph, each built from the
//! tuples by one builder ([`BitGraph::gaifman`], [`Hypergraph::from_edges`]).
//! The approximation search asks a class two more questions
//! (`crate::approx`): a graph-based class answers for any query whose
//! graph is the one the walk carries per prefix
//! (`QueryClass::contains_graph`), and every class answers for one
//! whole quotient given as raw tuples (`QueryClass::contains_quotient`),
//! so no structure is built for a quotient outside the class.

use cqapx_graphs::BitGraph;
use cqapx_hypergraphs::{gyo, htw, Hypergraph};
use cqapx_structures::Pointed;

/// Which existence theorem applies to the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKind {
    /// Graph-based, closed under subgraphs (Theorem 4.1).
    SubgraphClosed,
    /// Hypergraph-based, closed under induced subhypergraphs and edge
    /// extensions (Theorem 6.1).
    HypergraphClosed,
}

/// A class of conjunctive queries with decidable membership.
///
/// Every class contains the trivial query `Q^triv` (one variable carrying
/// the loop of every relation): the approximation search cuts every
/// quotient into which it maps (`crate::approx`). `Copy`, `Eq` and `Hash`,
/// so a class is part of an approximation-cache key as it is.
///
/// # Examples
///
/// ```
/// use cqapx_core::classes::QueryClass::{Acyclic, TwK};
/// use cqapx_cq::{parse_cq, tableau_of};
///
/// let tri = tableau_of(&parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap());
/// assert!(!TwK(1).contains_tableau(&tri));
/// assert!(TwK(2).contains_tableau(&tri));
/// assert!(!Acyclic.contains_tableau(&tri));
/// assert_eq!(TwK(2).name(), "TW(2)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// `AC`: queries with an α-acyclic hypergraph (hypergraph-based;
    /// `AC = HTW(1)`, and `AC = TW(1)` over graph vocabularies).
    Acyclic,
    /// `TW(k)`: queries whose graph has treewidth at most `k`
    /// (graph-based). A graph the treewidth decision cannot certify (a
    /// kernel of more than 64 vertices, see `cqapx_graphs::treewidth`)
    /// counts as outside.
    TwK(usize),
    /// `HTW(k)`: queries of hypertree width at most `k` (hypergraph-based).
    HtwK(usize),
}

pub use QueryClass::{Acyclic, HtwK, TwK};

impl QueryClass {
    /// Display name, e.g. `TW(2)`.
    pub fn name(&self) -> String {
        match self {
            Acyclic => "AC".into(),
            TwK(k) => format!("TW({k})"),
            HtwK(k) => format!("HTW({k})"),
        }
    }

    /// Which closure discipline the class satisfies.
    pub fn kind(&self) -> ClassKind {
        match self {
            TwK(_) => ClassKind::SubgraphClosed,
            Acyclic | HtwK(_) => ClassKind::HypergraphClosed,
        }
    }

    /// Membership of the query whose tableau is `t`.
    pub fn contains_tableau(&self, t: &Pointed) -> bool {
        let s = &t.structure;
        let tuples = s.vocabulary().rel_ids().flat_map(|rel| s.tuples(rel));
        self.contains_quotient(s.universe_size(), tuples)
    }

    /// Membership of a query given as raw data — universe size plus the
    /// tuples' element slices — so the search can reject a quotient
    /// without materializing a `Structure`. Agrees with
    /// [`QueryClass::contains_tableau`] on the materialized query.
    pub(crate) fn contains_quotient<'a>(
        &self,
        universe: usize,
        tuples: impl IntoIterator<Item = &'a [u32]>,
    ) -> bool {
        match *self {
            TwK(_) => self.contains_graph(&mut BitGraph::gaifman(universe, tuples)),
            Acyclic => gyo::is_acyclic(&Hypergraph::from_edges(universe, tuples)),
            HtwK(k) => htw::htw_at_most(&Hypergraph::from_edges(universe, tuples), k).is_some(),
        }
    }

    /// For a graph-based class, membership of any query whose
    /// co-occurrence graph (an edge per pair of elements sharing a tuple)
    /// is `g`: the approximation search keeps that graph per prefix of its
    /// partition walk, so a verdict costs no structure, and `false` cuts
    /// the subtree. Leaves `g`'s edges alone (`&mut` lends its scratch
    /// space). A hypergraph-based class's membership is no function of
    /// the graph, and the walk never asks one: it answers `true`, which
    /// cuts nothing.
    pub(crate) fn contains_graph(&self, g: &mut BitGraph) -> bool {
        match *self {
            TwK(k) => g.treewidth_at_most(k) == Some(true),
            Acyclic | HtwK(_) => true,
        }
    }

    /// The treewidth bound under which every member of the class can be
    /// evaluated by a decomposition-based (Yannakakis-over-bags) plan,
    /// when one exists: `Some(k)` for `TW(k)`. Engines use it to compile a
    /// `TreePlan` over a tree decomposition of width `≤ k` for in-class
    /// queries that are not acyclic; `None` means the class gives no width
    /// guarantee (a join-tree `TreePlan` or the naive join must serve
    /// instead). The approximation search answers
    /// §5's Boolean graph queries into `TW(k)` from it without a walk
    /// (`crate::approx`).
    pub fn decomposition_width(&self) -> Option<usize> {
        match *self {
            TwK(k) => Some(k),
            Acyclic | HtwK(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_cq::{parse_cq, tableau_of};

    #[test]
    fn graph_class_membership() {
        let path = parse_cq("Q() :- E(x,y), E(y,z)").unwrap();
        assert!(TwK(1).contains_tableau(&tableau_of(&path)));
        assert!(Acyclic.contains_tableau(&tableau_of(&path)));
        let c4 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap();
        assert!(!TwK(1).contains_tableau(&tableau_of(&c4)));
        assert!(TwK(2).contains_tableau(&tableau_of(&c4)));
        assert!(!Acyclic.contains_tableau(&tableau_of(&c4)));
        assert!(HtwK(2).contains_tableau(&tableau_of(&c4)));
    }

    #[test]
    fn loop_queries_acyclic() {
        let lp = parse_cq("Q() :- E(x, x)").unwrap();
        assert!(TwK(1).contains_tableau(&tableau_of(&lp)));
        assert!(Acyclic.contains_tableau(&tableau_of(&lp)));
        // K2 with a loop: still acyclic / TW(1).
        let q = parse_cq("Q(x,y) :- E(x,y), E(y,x), E(x,x)").unwrap();
        assert!(TwK(1).contains_tableau(&tableau_of(&q)));
        assert!(Acyclic.contains_tableau(&tableau_of(&q)));
    }

    #[test]
    fn ac_and_twk_diverge_on_wide_atoms() {
        // One 5-ary atom: acyclic but treewidth 4.
        let q = parse_cq("Q() :- R(a,b,c,d,e)").unwrap();
        let t = tableau_of(&q);
        assert!(Acyclic.contains_tableau(&t));
        assert!(!TwK(3).contains_tableau(&t));
        assert!(TwK(4).contains_tableau(&t));
    }

    #[test]
    fn names() {
        assert_eq!(TwK(2).name(), "TW(2)");
        assert_eq!(Acyclic.name(), "AC");
        assert_eq!(HtwK(3).name(), "HTW(3)");
    }
}
