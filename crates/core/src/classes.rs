//! The tractable query classes as first-class membership oracles.
//!
//! A [`QueryClass`] decides membership of a query (given as a tableau) and
//! declares which **closure discipline** it satisfies — the hypothesis the
//! corresponding existence theorem needs:
//!
//! * [`ClassKind::SubgraphClosed`] (Theorem 4.1): graph-based classes
//!   closed under subgraphs, e.g. `TW(k)`. Approximations can be chosen
//!   among homomorphic images (quotients) of the tableau.
//! * [`ClassKind::HypergraphClosed`] (Theorem 6.1 / Lemma 6.4):
//!   hypergraph-based classes closed under induced subhypergraphs and edge
//!   extensions, e.g. `AC` and `HTW(k)`. Approximations are found among
//!   quotients **augmented** with extra atoms (Claim 6.2 keeps the sizes
//!   polynomial).
//!
//! Besides [`QueryClass::contains_tableau`] a class offers the search one
//! fast path, by discipline: a graph-based class implements
//! [`QueryClass::contains_graph`] (the walk carries the co-occurrence
//! graph of its prefix), a hypergraph-based one
//! [`QueryClass::contains_quotient`] (one whole quotient, as raw tuples).

use cqapx_graphs::BitGraph;
use cqapx_hypergraphs::{gyo, htw, Hypergraph};
use cqapx_structures::{Pointed, Structure};

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
/// A class must contain the trivial query `Q^triv` (one variable carrying
/// the loop of every relation): the approximation search cuts every
/// quotient into which it maps (`crate::approx`).
pub trait QueryClass {
    /// Display name, e.g. `TW(2)`.
    fn name(&self) -> String;
    /// Which closure discipline the class satisfies.
    fn kind(&self) -> ClassKind;
    /// Membership of the query whose tableau is `t`.
    fn contains_tableau(&self, t: &Pointed) -> bool;
    /// Graph-based classes: membership of any query whose co-occurrence
    /// graph (an edge per pair of elements sharing a tuple) is `g`. The
    /// approximation search keeps that graph per prefix of its partition
    /// walk: a verdict costs no structure, and `false` cuts the subtree.
    ///
    /// Must agree with [`QueryClass::contains_tableau`] and leave `g`'s
    /// edges alone (`&mut` lends its scratch space). The default returns
    /// `None`: membership is not a function of the graph.
    fn contains_graph(&self, _g: &mut BitGraph) -> Option<bool> {
        None
    }

    /// Hypergraph-based classes: membership of a candidate given as raw
    /// data — universe size plus the tuples' element slices — so the
    /// search can reject a quotient without materializing a `Structure`.
    ///
    /// Must agree with [`QueryClass::contains_tableau`] on the
    /// materialized candidate. The default returns `None`: no fast path,
    /// the caller materializes.
    fn contains_quotient(
        &self,
        _universe: usize,
        _tuples: &mut dyn Iterator<Item = &[u32]>,
    ) -> Option<bool> {
        None
    }

    /// The treewidth bound under which every member of the class can be
    /// evaluated by a decomposition-based (Yannakakis-over-bags) plan,
    /// when one exists. Engines use it to compile a `DecomposedPlan`
    /// for in-class queries that are not acyclic; `None` means the
    /// class gives no width guarantee (the acyclic tier or the naive
    /// join must serve instead).
    fn decomposition_width(&self) -> Option<usize> {
        None
    }
}

/// The co-occurrence (Gaifman) graph of a structure: elements as
/// vertices, an edge per pair of distinct elements sharing a tuple.
pub(crate) fn structure_graph(s: &Structure) -> BitGraph {
    let mut g = BitGraph::new(s.universe_size());
    for t in s.vocabulary().rel_ids().flat_map(|rel| s.tuples(rel)) {
        for (i, &x) in t.iter().enumerate() {
            for &y in &t[i + 1..] {
                g.add_edge(x, y);
            }
        }
    }
    g
}

/// The hypergraph of a structure: one hyperedge per tuple's element set.
pub(crate) fn structure_hypergraph(s: &Structure) -> Hypergraph {
    let mut h = Hypergraph::new(s.universe_size());
    for rel in s.vocabulary().rel_ids() {
        for t in s.tuples(rel) {
            let vars: Vec<u32> = t.to_vec();
            h.add_edge(&vars);
        }
    }
    h
}

/// `TW(k)`: queries whose graph has treewidth at most `k` (graph-based).
///
/// # Examples
///
/// ```
/// use cqapx_core::classes::{QueryClass, TwK};
/// use cqapx_cq::{parse_cq, tableau_of};
///
/// let tri = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
/// assert!(!TwK(1).contains_tableau(&tableau_of(&tri)));
/// assert!(TwK(2).contains_tableau(&tableau_of(&tri)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwK(pub usize);

impl QueryClass for TwK {
    fn name(&self) -> String {
        format!("TW({})", self.0)
    }
    fn kind(&self) -> ClassKind {
        ClassKind::SubgraphClosed
    }
    /// A graph the treewidth decision cannot certify (a kernel of more
    /// than 64 vertices, see `cqapx_graphs::treewidth`) counts as outside.
    fn contains_tableau(&self, t: &Pointed) -> bool {
        self.contains_graph(&mut structure_graph(&t.structure)) == Some(true)
    }
    fn contains_graph(&self, g: &mut BitGraph) -> Option<bool> {
        Some(g.treewidth_at_most(self.0) == Some(true))
    }
    fn decomposition_width(&self) -> Option<usize> {
        Some(self.0)
    }
}

/// `AC`: queries with an α-acyclic hypergraph (hypergraph-based;
/// `AC = HTW(1)`, and `AC = TW(1)` over graph vocabularies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Acyclic;

fn hypergraph_from_tuples(universe: usize, tuples: &mut dyn Iterator<Item = &[u32]>) -> Hypergraph {
    let mut h = Hypergraph::new(universe);
    for t in tuples {
        h.add_edge(t);
    }
    h
}

impl QueryClass for Acyclic {
    fn name(&self) -> String {
        "AC".into()
    }
    fn kind(&self) -> ClassKind {
        ClassKind::HypergraphClosed
    }
    fn contains_tableau(&self, t: &Pointed) -> bool {
        gyo::is_acyclic(&structure_hypergraph(&t.structure))
    }
    fn contains_quotient(
        &self,
        universe: usize,
        tuples: &mut dyn Iterator<Item = &[u32]>,
    ) -> Option<bool> {
        Some(gyo::is_acyclic(&hypergraph_from_tuples(universe, tuples)))
    }
}

/// `HTW(k)`: queries of hypertree width at most `k` (hypergraph-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtwK(pub usize);

impl QueryClass for HtwK {
    fn name(&self) -> String {
        format!("HTW({})", self.0)
    }
    fn kind(&self) -> ClassKind {
        ClassKind::HypergraphClosed
    }
    fn contains_tableau(&self, t: &Pointed) -> bool {
        htw::htw_at_most(&structure_hypergraph(&t.structure), self.0).is_some()
    }
    fn contains_quotient(
        &self,
        universe: usize,
        tuples: &mut dyn Iterator<Item = &[u32]>,
    ) -> Option<bool> {
        Some(htw::htw_at_most(&hypergraph_from_tuples(universe, tuples), self.0).is_some())
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
