//! The conjunctive-query AST.

use cqapx_structures::{RelId, Vocabulary};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A query variable, as a dense index into the query's variable table.
pub type VarId = u32;

/// One atom `R(v₁, …, v_n)` of a query body.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Atom {
    /// The relation symbol.
    pub rel: RelId,
    /// Argument variables (repetitions allowed, e.g. `E(x, x)`).
    pub args: Vec<VarId>,
}

impl Atom {
    /// `true` when both atoms mention the same set of variables: they
    /// are one hyperedge of `H(Q)`.
    pub(crate) fn same_vars(&self, other: &Atom) -> bool {
        let within = |a: &Atom, b: &Atom| a.args.iter().all(|v| b.args.contains(v));
        within(self, other) && within(other, self)
    }
}

/// A conjunctive query `Q(x̄) :- R₁(…), …, R_m(…)`.
///
/// Variables are indices `0..var_count`; `free` lists the head variables
/// (with repetitions allowed, as in `Q(x, x)`), every other variable is
/// existentially quantified. Safety is enforced: every free variable must
/// occur in some atom.
///
/// # Examples
///
/// ```
/// use cqapx_cq::parse_cq;
///
/// let q = parse_cq("Q(x, y) :- E(x, y), E(y, z), E(z, x)").unwrap();
/// assert_eq!(q.arity(), 2);
/// assert_eq!(q.join_count(), 2);  // m - 1 joins for m atoms
/// assert_eq!(q.var_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConjunctiveQuery {
    vocab: Vocabulary,
    /// Shared with the query's tableau: cloning either copies no name.
    pub(crate) var_names: Arc<[String]>,
    free: Vec<VarId>,
    atoms: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Builds a query, checking arities and safety.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatches, out-of-range variables, unsafe free
    /// variables, or an empty body (the paper's CQs always have at least
    /// one atom).
    pub fn new(
        vocab: Vocabulary,
        var_names: Vec<String>,
        free: Vec<VarId>,
        atoms: Vec<Atom>,
    ) -> Self {
        Self::with_names(vocab, var_names.into(), free, atoms)
    }

    /// [`ConjunctiveQuery::new`] over names shared with their holder.
    pub(crate) fn with_names(
        vocab: Vocabulary,
        var_names: Arc<[String]>,
        free: Vec<VarId>,
        atoms: Vec<Atom>,
    ) -> Self {
        assert!(
            !atoms.is_empty(),
            "conjunctive queries need at least one atom"
        );
        let n = var_names.len() as VarId;
        for a in &atoms {
            assert_eq!(
                a.args.len(),
                vocab.arity(a.rel),
                "arity mismatch in atom over {}",
                vocab.name(a.rel)
            );
            for &v in &a.args {
                assert!(v < n, "variable {v} out of range");
            }
        }
        let mut occurs = vec![false; n as usize];
        for a in &atoms {
            for &v in &a.args {
                occurs[v as usize] = true;
            }
        }
        for &v in &free {
            assert!(v < n, "free variable {v} out of range");
            assert!(
                occurs[v as usize],
                "free variable {} must occur in the body (safety)",
                var_names[v as usize]
            );
        }
        // Every variable should occur somewhere (no dangling names).
        for (v, &occ) in occurs.iter().enumerate() {
            assert!(occ, "variable {} occurs in no atom", var_names[v]);
        }
        ConjunctiveQuery {
            vocab,
            var_names,
            free,
            atoms,
        }
    }

    /// The vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Number of variables (free and bound).
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// The display name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v as usize]
    }

    /// All variable names.
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// The head (free) variables, in head order.
    pub fn free_vars(&self) -> &[VarId] {
        &self.free
    }

    /// Number of head positions.
    pub fn arity(&self) -> usize {
        self.free.len()
    }

    /// `true` for Boolean (closed) queries.
    pub fn is_boolean(&self) -> bool {
        self.free.is_empty()
    }

    /// The body atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms `m`.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// The number of joins, `m − 1` (the paper's cost measure).
    pub fn join_count(&self) -> usize {
        self.atoms.len().saturating_sub(1)
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q(")?;
        for (i, &v) in self.free.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.var_names[v as usize])?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", self.vocab.name(a.rel))?;
            for (j, &v) in a.args.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.var_names[v as usize])?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graphs() -> (Vocabulary, RelId) {
        let v = Vocabulary::graphs();
        let e = v.rel("E").unwrap();
        (v, e)
    }

    #[test]
    fn build_and_display() {
        let (v, e) = graphs();
        let q = ConjunctiveQuery::new(
            v,
            vec!["x".into(), "y".into()],
            vec![0],
            vec![Atom {
                rel: e,
                args: vec![0, 1],
            }],
        );
        assert_eq!(q.to_string(), "Q(x) :- E(x, y)");
        assert_eq!(q.arity(), 1);
        assert!(!q.is_boolean());
        assert_eq!(q.join_count(), 0);
    }

    #[test]
    fn repeated_head_variables() {
        let (v, e) = graphs();
        let q = ConjunctiveQuery::new(
            v,
            vec!["x".into()],
            vec![0, 0],
            vec![Atom {
                rel: e,
                args: vec![0, 0],
            }],
        );
        assert_eq!(q.arity(), 2);
        assert_eq!(q.to_string(), "Q(x, x) :- E(x, x)");
    }

    #[test]
    #[should_panic(expected = "safety")]
    fn unsafe_query_rejected() {
        let (v, e) = graphs();
        let _ = ConjunctiveQuery::new(
            v,
            vec!["x".into(), "y".into(), "z".into()],
            vec![2],
            vec![Atom {
                rel: e,
                args: vec![0, 1],
            }],
        );
    }

    #[test]
    #[should_panic(expected = "occurs in no atom")]
    fn dangling_variable_rejected() {
        let (v, e) = graphs();
        let _ = ConjunctiveQuery::new(
            v,
            vec!["x".into(), "y".into(), "z".into()],
            vec![],
            vec![Atom {
                rel: e,
                args: vec![0, 1],
            }],
        );
    }

    #[test]
    #[should_panic(expected = "at least one atom")]
    fn empty_body_rejected() {
        let (v, _) = graphs();
        let _ = ConjunctiveQuery::new(v, vec![], vec![], vec![]);
    }
}
