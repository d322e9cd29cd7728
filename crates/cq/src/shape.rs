//! Plan-relevant query metadata, computed once per prepared query.
//!
//! A [`QueryShape`] gathers everything a cost-based planner wants to know
//! about a CQ *before* seeing any database: size measures, per-atom
//! materialization keys, and membership in the cheap-to-evaluate classes. The class
//! checks are the expensive part (treewidth is exponential in the width),
//! so the shape is meant to be computed at prepare time and cached
//! alongside the query.

use crate::ast::ConjunctiveQuery;
use crate::classes::{is_acyclic_query, query_graph};
use crate::eval::flat::MatKey;
use cqapx_graphs::{min_width_decomposition, TreeDecomposition};
use cqapx_structures::RelId;

/// Static, database-independent facts about a query that drive planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryShape {
    /// Number of variables `|Q|` (the paper's size measure).
    pub var_count: usize,
    /// Number of body atoms `m`.
    pub atom_count: usize,
    /// Head arity (0 for Boolean queries).
    pub arity: usize,
    /// `m − 1`, the join count.
    pub join_count: usize,
    /// Largest atom arity occurring in the body.
    pub max_atom_arity: usize,
    /// `Q ∈ AC`: an acyclic query evaluates in `O(|D|·|Q|)` via
    /// Yannakakis — the planner's first choice.
    pub acyclic: bool,
    /// Treewidth of `G(Q)`: a tree decomposition's bags hold at most
    /// `|D|^(tw+1)` rows, instead of the `|D|^|Q|` of a backtracking join.
    pub treewidth: usize,
    /// Every body atom's materialization-cache key (the atom taken as
    /// its own hyperedge), in body order, in one word buffer: see
    /// [`QueryShape::atom_keys`].
    keys: Vec<u32>,
}

impl QueryShape {
    /// Computes the shape of a query. Cost: one exact treewidth search on
    /// `G(Q)`, plus a GYO pass when some atom has more than two
    /// arguments — intended for prepare time, not per request.
    pub fn of(q: &ConjunctiveQuery) -> QueryShape {
        QueryShape::with_decomposition(q).0
    }

    /// [`QueryShape::of`], together with the tree decomposition of `G(Q)`
    /// the treewidth was read from: width exactly `treewidth`, or `None`
    /// when `G(Q)` is too wide to certify and `treewidth` is the bound
    /// `|Q| − 1`. A plan compiled from it
    /// ([`TreePlan::from_decomposition`]) costs no second search.
    ///
    /// [`TreePlan::from_decomposition`]: crate::eval::TreePlan::from_decomposition
    pub fn with_decomposition(q: &ConjunctiveQuery) -> (QueryShape, Option<TreeDecomposition>) {
        let graph = query_graph(q);
        let decomposition = min_width_decomposition(&graph);
        let treewidth = (decomposition.as_ref())
            .map_or(q.var_count().saturating_sub(1), TreeDecomposition::width);
        let max_atom_arity = q.atoms().map(|a| a.args.len()).max().unwrap_or(0);
        // Over atoms of at most two arguments `H(Q)` is `G(Q)` plus
        // singletons, and such a hypergraph is acyclic exactly when the
        // graph is a forest (`AC = TW(1)` for queries over graphs).
        let acyclic = match max_atom_arity {
            0..=2 => graph.is_forest(),
            _ => is_acyclic_query(q),
        };
        let mut shape = QueryShape {
            var_count: q.var_count(),
            atom_count: q.atom_count(),
            arity: q.arity(),
            join_count: q.join_count(),
            max_atom_arity,
            acyclic,
            treewidth,
            // Every key, and one atom's schema while its key is written.
            keys: Vec::with_capacity(
                q.atoms().map(|a| 2 + a.args.len()).sum::<usize>() + max_atom_arity,
            ),
        };
        for atom in q.atoms() {
            MatKey::write_atom(atom, &mut shape.keys);
        }
        (shape, decomposition)
    }

    /// Per body atom: its relation and the words of its
    /// materialization-cache key (the atom taken as its own hyperedge).
    /// Lets the planner read **real** cached cardinalities —
    /// repeated-variable filtering included — where a materialization
    /// exists, instead of raw relation statistics.
    pub fn atom_keys(&self) -> impl ExactSizeIterator<Item = (RelId, &[u32])> + Clone {
        // A one-atom key is its relation, its arity and a column per
        // argument.
        let mut rest = &self.keys[..];
        (0..self.atom_count).map(move |_| {
            let (key, tail) = rest.split_at(2 + rest[1] as usize);
            rest = tail;
            (RelId(key[0]), key)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_cq;

    #[test]
    fn shape_of_triangle() {
        let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let s = QueryShape::of(&q);
        assert_eq!(s.var_count, 3);
        assert_eq!(s.atom_count, 3);
        assert_eq!(s.arity, 0);
        assert_eq!(s.join_count, 2);
        assert_eq!(s.max_atom_arity, 2);
        assert!(!s.acyclic);
        assert_eq!(s.treewidth, 2);
        assert_eq!(s.atom_keys().count(), 3);
        assert!(s.atom_keys().all(|(r, _)| r == RelId(0)));
    }

    #[test]
    fn shape_of_path() {
        let q = parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap();
        let s = QueryShape::of(&q);
        assert!(s.acyclic);
        assert_eq!(s.treewidth, 1);
        assert_eq!(s.arity, 2);
    }

    /// Binary queries read acyclicity off `G(Q)`; it must be what GYO
    /// says, loops, two-way edges and components too wide for a
    /// certified treewidth included.
    #[test]
    fn binary_acyclicity_agrees_with_gyo() {
        let path: Vec<String> = (1..70).map(|i| format!("E(x{}, x{i})", i - 1)).collect();
        let ring = format!("{}, E(x69, x0)", path.join(", "));
        let texts = [
            "Q() :- E(x,x)".to_string(),
            "Q(x,y) :- E(x,y), E(y,x), E(x,x)".to_string(),
            "Q() :- E(x,y), E(y,z), E(z,x)".to_string(),
            "Q() :- E(x,y), E(u,v), E(v,w), E(w,u)".to_string(),
            "Q(a) :- E(a,b), E(a,c), E(c,d), E(d,d)".to_string(),
            format!("Q() :- {}", path.join(", ")),
            format!("Q() :- {ring}"),
        ];
        for text in &texts {
            let q = parse_cq(text).unwrap();
            let shape = QueryShape::of(&q);
            assert_eq!(shape.acyclic, is_acyclic_query(&q), "{text}");
        }
        let wide_path = QueryShape::of(&parse_cq(&texts[5]).unwrap());
        assert!(wide_path.acyclic && wide_path.treewidth == 69);
    }
}
