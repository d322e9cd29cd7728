//! Tableaux: the query ↔ structure correspondence.
//!
//! The tableau of `Q(x̄)` is `(T_Q, x̄)`: the body of `Q` viewed as a
//! database whose elements are the variables, with the free variables
//! distinguished and the variable names as element names, one [`Names`]
//! table shared by both. The correspondence is lossless up to atom order
//! and repeated atoms, so the approximation algorithms work entirely on
//! tableaux and convert back to queries at the end: [`query_from_tableau`]
//! writes the query's argument buffer straight from the flat tuples, and
//! a tableau's missing names as `x{e}` into one table, so it allocates
//! per query, never per atom or variable.

use crate::ast::ConjunctiveQuery;
use cqapx_structures::{Names, Pointed, Structure, StructureBuilder};
use std::sync::Arc;

/// The tableau `(T_Q, x̄)` of a query.
///
/// Elements of the structure are the query variables (same indices);
/// element names are the variable names.
///
/// # Examples
///
/// ```
/// use cqapx_cq::{parse_cq, tableau_of};
///
/// let q = parse_cq("Q(x) :- E(x, y), E(y, x)").unwrap();
/// let t = tableau_of(&q);
/// assert_eq!(t.structure.universe_size(), 2);
/// assert_eq!(t.distinguished(), &[0]);
/// ```
pub fn tableau_of(q: &ConjunctiveQuery) -> Pointed {
    let mut b = StructureBuilder::new(q.vocabulary().clone(), q.var_count());
    for rel in q.vocabulary().rel_ids() {
        b.reserve(rel, q.atoms().filter(|a| a.rel == rel).count());
    }
    for a in q.atoms() {
        b.add(a.rel, a.args);
    }
    let mut s = b.finish();
    s.set_names(Arc::clone(&q.names));
    Pointed::new(s, q.free_vars().to_vec())
}

/// The canonical query of a tableau: each tuple becomes an atom; element
/// names become variable names (falling back to `x{e}`).
///
/// Inverse of [`tableau_of`] up to atom order and duplicate atoms.
///
/// # Panics
///
/// Panics when the structure has no tuples (queries need a nonempty body)
/// or when its universe is not active.
pub fn query_from_tableau(t: &Pointed) -> ConjunctiveQuery {
    let s: &Structure = &t.structure;
    assert!(
        !s.is_relations_empty(),
        "a tableau must have at least one tuple"
    );
    assert!(
        s.universe_is_active(),
        "tableau universes must be active (every variable in some atom)"
    );
    let names = match s.names() {
        Some(names) => Arc::clone(names),
        None => {
            let digits = |e: u32| 1 + e.checked_ilog10().unwrap_or(0) as usize;
            let bytes = s.elements().map(|e| 1 + digits(e)).sum();
            let mut names = Names::with_capacity(s.universe_size(), bytes);
            s.elements().for_each(|e| names.push(format_args!("x{e}")));
            Arc::new(names)
        }
    };
    let vocab = s.vocabulary();
    let positions = vocab.rel_ids().map(|rel| s.flat_tuples(rel).len()).sum();
    let mut args = Vec::with_capacity(positions);
    let mut atoms = Vec::with_capacity(s.total_tuples());
    for rel in vocab.rel_ids() {
        for tuple in s.tuples(rel) {
            args.extend_from_slice(tuple);
            atoms.push((rel, args.len() as u32));
        }
    }
    let free = t.distinguished().to_vec();
    ConjunctiveQuery::from_parts(vocab.clone(), (names, free, args, atoms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_cq;

    #[test]
    fn roundtrip() {
        let q = parse_cq("Q(x, z) :- E(x, y), E(y, z), E(z, x)").unwrap();
        let t = tableau_of(&q);
        let q2 = query_from_tableau(&t);
        assert_eq!(q, q2);
    }

    #[test]
    fn duplicate_atoms_collapse() {
        let q = parse_cq("Q() :- E(x, y), E(x, y)").unwrap();
        let t = tableau_of(&q);
        assert_eq!(t.structure.total_tuples(), 1);
        let q2 = query_from_tableau(&t);
        assert_eq!(q2.atom_count(), 1);
    }

    #[test]
    fn boolean_tableau() {
        let q = parse_cq("Q() :- R(x, y, x)").unwrap();
        let t = tableau_of(&q);
        assert!(t.is_boolean());
        let r = q.vocabulary().rel("R").unwrap();
        assert!(t.structure.contains(r, &[0, 1, 0]));
    }

    #[test]
    fn names_preserved() {
        let q = parse_cq("Q(alpha) :- E(alpha, beta)").unwrap();
        let t = tableau_of(&q);
        assert_eq!(t.structure.element_name(0), "alpha");
        let q2 = query_from_tableau(&t);
        assert_eq!(q2.var_name(1), "beta");
    }
}
