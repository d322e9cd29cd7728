//! The graph `G(Q)` and hypergraph `H(Q)` of a query, and membership in
//! the paper's tractable classes.
//!
//! * `G(Q)` — nodes are the variables; every atom `R(x₁,…,x_n)` contributes
//!   the clique on its arguments. Graph-based classes: `TW(k)`.
//! * `H(Q)` — nodes are the variables; every atom contributes the
//!   hyperedge of its argument *set*. Hypergraph-based classes: `AC`
//!   (α-acyclic) and `HTW(k)`; `GHTW(k)` is not implemented.
//!
//! For queries over graphs, `AC = TW(1)`; in general the graph-based and
//! hypergraph-based notions are incomparable (Flum, Frick & Grohe).

use crate::ast::ConjunctiveQuery;
use cqapx_graphs::{treewidth, BitGraph};
use cqapx_hypergraphs::{gyo, htw, Hypergraph};

/// The graph `G(Q)`: variables as nodes, co-occurrence edges.
///
/// Self-loops are *not* recorded (a loop atom `E(x,x)` contributes no
/// clique edge); this matches tree decompositions of the query hypergraph,
/// under which `E(x,x)` is acyclic.
pub fn query_graph(q: &ConjunctiveQuery) -> BitGraph {
    BitGraph::gaifman(q.var_count(), q.atoms().map(|a| a.args))
}

/// The hypergraph `H(Q)`: variables as nodes, one hyperedge per atom's
/// variable set.
pub(crate) fn hypergraph_of(q: &ConjunctiveQuery) -> Hypergraph {
    Hypergraph::from_edges(q.var_count(), q.atoms().map(|a| a.args))
}

/// The treewidth of `Q` (treewidth of `G(Q)`, equivalently of `H(Q)`).
pub fn treewidth_of_query(q: &ConjunctiveQuery) -> usize {
    treewidth(&query_graph(q))
}

/// `Q ∈ AC`: the query hypergraph is α-acyclic.
///
/// For queries over graphs this coincides with `TW(1)` (the paper,
/// Section 3): a graph query is acyclic iff its tableau has no oriented
/// cycle of length ≥ 3 once loops are set aside.
pub fn is_acyclic_query(q: &ConjunctiveQuery) -> bool {
    gyo::is_acyclic(&hypergraph_of(q))
}

/// The hypertree width of `H(Q)`.
pub fn hypertree_width_of_query(q: &ConjunctiveQuery) -> usize {
    htw::hypertree_width(&hypergraph_of(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_cq;

    #[test]
    fn triangle_classes() {
        let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        assert_eq!(treewidth_of_query(&q), 2);
        assert!(!is_acyclic_query(&q));
        assert_eq!(hypertree_width_of_query(&q), 2);
    }

    #[test]
    fn path_query_acyclic() {
        let q = parse_cq("Q(x) :- E(x,y), E(y,z), E(z,w)").unwrap();
        assert!(is_acyclic_query(&q));
        assert_eq!(treewidth_of_query(&q), 1);
    }

    #[test]
    fn loop_atom_is_acyclic() {
        // E(x,x): hypergraph is one hyperedge {x} — acyclic, tw 0.
        let q = parse_cq("Q() :- E(x, x)").unwrap();
        assert!(is_acyclic_query(&q));
        assert_eq!(treewidth_of_query(&q), 0);
        // K2 with a loop (the paper's acyclic approximation of the
        // triangle with free variables, §5.1.2) is acyclic too.
        let q = parse_cq("Q(x,y) :- E(x,y), E(y,x), E(x,x)").unwrap();
        assert!(is_acyclic_query(&q));
        assert_eq!(treewidth_of_query(&q), 1);
    }

    #[test]
    fn acyclic_but_high_treewidth() {
        // One big atom: acyclic (single hyperedge) but G(Q) is K5 (tw 4).
        let q = parse_cq("Q() :- R(a, b, c, d, e)").unwrap();
        assert!(is_acyclic_query(&q));
        assert_eq!(treewidth_of_query(&q), 4);
    }

    #[test]
    fn bounded_treewidth_but_cyclic() {
        // A long binary cycle: tw 2, but α-cyclic.
        let q = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)").unwrap();
        assert!(!is_acyclic_query(&q));
        assert_eq!(treewidth_of_query(&q), 2);
    }

    #[test]
    fn section3_example_hypergraph() {
        // Body R(x,y,z), R(x,v,v), E(v,z): hyperedges {x,y,z}, {x,v}, {v,z}.
        let q = parse_cq("Q() :- R(x,y,z), R(x,v,v), E(v,z)").unwrap();
        let h = hypergraph_of(&q);
        assert_eq!(h.edge_count(), 3);
        assert_eq!(h.edge(0).count(), 3);
        assert_eq!(h.edge(1).count(), 2);
    }

    #[test]
    fn example_66_query_classes() {
        let q = parse_cq("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)").unwrap();
        assert!(!is_acyclic_query(&q));
        assert_eq!(hypertree_width_of_query(&q), 2);
        let q1 = parse_cq("Q() :- R(x, y, x)").unwrap();
        assert!(is_acyclic_query(&q1));
    }
}
