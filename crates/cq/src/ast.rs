//! The conjunctive-query AST.

use cqapx_structures::{Names, RelId, Vocabulary};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A query variable, as a dense index into the query's variable table.
pub type VarId = u32;

/// One atom `R(v₁, …, v_n)` of a query body: a view of the query's
/// buffers, which [`ConjunctiveQuery::atoms`] and
/// [`ConjunctiveQuery::atom`] lend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Atom<'q> {
    /// The relation symbol.
    pub rel: RelId,
    /// Argument variables (repetitions allowed, e.g. `E(x, x)`).
    pub args: &'q [VarId],
}

impl Atom<'_> {
    /// `true` when both atoms mention the same set of variables: they
    /// are one hyperedge of `H(Q)`.
    pub(crate) fn same_vars(self, other: Atom) -> bool {
        let within = |a: Atom, b: Atom| a.args.iter().all(|v| b.args.contains(v));
        within(self, other) && within(other, self)
    }
}

/// A query's names, head, argument buffer and per-atom relations and
/// argument ends, as [`ConjunctiveQuery::from_parts`] takes them.
pub(crate) type Parts = (Arc<Names>, Vec<VarId>, Vec<VarId>, Vec<(RelId, u32)>);

/// A conjunctive query `Q(x̄) :- R₁(…), …, R_m(…)`.
///
/// Variables are indices `0..var_count`; `free` lists the head variables
/// (with repetitions allowed, as in `Q(x, x)`), every other variable is
/// existentially quantified. Safety is enforced: every free variable must
/// occur in some atom.
///
/// The body is stored flat: one argument buffer and, per atom, its
/// relation and the end of its arguments; [`Self::atoms`] lends views of
/// them. The variable names are one [`Names`] table shared with the
/// query's tableau, so a query is three buffers, besides its head,
/// whatever its number of atoms and variables.
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
    pub(crate) names: Arc<Names>,
    free: Vec<VarId>,
    /// Every atom's arguments, back to back.
    args: Vec<VarId>,
    /// Per atom, its relation and where its arguments end in `args`.
    atoms: Vec<(RelId, u32)>,
}

impl ConjunctiveQuery {
    /// Builds a query from its variable names, its head and its atoms as
    /// `(relation, arguments)` pairs, checking arities and safety.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatches, out-of-range variables, unsafe free
    /// variables, or an empty body (the paper's CQs always have at least
    /// one atom).
    pub fn new<A: AsRef<[VarId]>>(
        vocab: Vocabulary,
        var_names: impl IntoIterator<Item = impl fmt::Display>,
        free: Vec<VarId>,
        atoms: impl IntoIterator<Item = (RelId, A)>,
    ) -> Self {
        let mut args = Vec::new();
        let ends = atoms.into_iter().map(|(rel, a)| {
            args.extend_from_slice(a.as_ref());
            (rel, args.len() as u32)
        });
        let ends = ends.collect();
        let names = Arc::new(var_names.into_iter().collect());
        let q = Self::from_parts(vocab, (names, free, args, ends));
        assert!(
            q.atom_count() > 0,
            "conjunctive queries need at least one atom"
        );
        let mut occurs = vec![false; q.var_count()];
        for a in q.atoms() {
            let (arity, name) = (q.vocab.arity(a.rel), q.vocab.name(a.rel));
            assert_eq!(a.args.len(), arity, "arity mismatch in atom over {name}");
            for &v in a.args {
                *occurs.get_mut(v as usize).expect("variable out of range") = true;
            }
        }
        for &v in &q.free {
            let name = q.names.get(v as usize);
            assert!(
                occurs[v as usize],
                "free variable {name} must occur in the body (safety)"
            );
        }
        // Every variable should occur somewhere (no dangling names).
        for (v, &occ) in occurs.iter().enumerate() {
            assert!(occ, "variable {} occurs in no atom", q.names.get(v));
        }
        q
    }

    /// A query from buffers its builder has already checked: every
    /// atom's arity, every variable named and in some atom, the head
    /// safe, the body nonempty.
    pub(crate) fn from_parts(vocab: Vocabulary, (names, free, args, atoms): Parts) -> Self {
        ConjunctiveQuery {
            vocab,
            names,
            free,
            args,
            atoms,
        }
    }

    /// The vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Number of variables (free and bound).
    pub fn var_count(&self) -> usize {
        self.names.len()
    }

    /// The display name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        self.names.get(v as usize)
    }

    /// All variable names.
    pub fn var_names(&self) -> &Names {
        &self.names
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

    /// Body atom `i`.
    pub fn atom(&self, i: usize) -> Atom<'_> {
        let start = i.checked_sub(1).map_or(0, |j| self.atoms[j].1 as usize);
        let (rel, end) = self.atoms[i];
        Atom {
            rel,
            args: &self.args[start..end as usize],
        }
    }

    /// The body atoms, in body order: views of the query's buffers.
    ///
    /// ```
    /// use cqapx_cq::parse_cq;
    ///
    /// let q = parse_cq("Q(x) :- E(x, y), E(y, y)").unwrap();
    /// let mut loops = q.atoms().filter(|a| a.args[0] == a.args[1]);
    /// assert_eq!(loops.next().map(|a| q.var_name(a.args[0])), Some("y"));
    /// assert_eq!((q.atoms().len(), q.atom(0).args), (2, &[0, 1][..]));
    /// ```
    pub fn atoms(&self) -> impl ExactSizeIterator<Item = Atom<'_>> + DoubleEndedIterator + Clone {
        (0..self.atoms.len()).map(|i| self.atom(i))
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
        let list = |f: &mut fmt::Formatter<'_>, vars: &[VarId]| {
            for (i, &v) in vars.iter().enumerate() {
                let comma = if i > 0 { ", " } else { "" };
                write!(f, "{comma}{}", self.var_name(v))?;
            }
            Ok(())
        };
        write!(f, "Q(")?;
        list(f, &self.free)?;
        write!(f, ") :- ")?;
        for (i, a) in self.atoms().enumerate() {
            let comma = if i > 0 { ", " } else { "" };
            write!(f, "{comma}{}(", self.vocab.name(a.rel))?;
            list(f, a.args)?;
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
        let q = ConjunctiveQuery::new(v, ["x", "y"], vec![0], [(e, [0, 1])]);
        assert_eq!(q.to_string(), "Q(x) :- E(x, y)");
        assert_eq!(q.arity(), 1);
        assert!(!q.is_boolean());
        assert_eq!(q.join_count(), 0);
    }

    #[test]
    fn repeated_head_variables() {
        let (v, e) = graphs();
        let q = ConjunctiveQuery::new(v, ["x"], vec![0, 0], [(e, [0, 0])]);
        assert_eq!(q.arity(), 2);
        assert_eq!(q.to_string(), "Q(x, x) :- E(x, x)");
    }

    #[test]
    #[should_panic(expected = "safety")]
    fn unsafe_query_rejected() {
        let (v, e) = graphs();
        let _ = ConjunctiveQuery::new(v, ["x", "y", "z"], vec![2], [(e, [0, 1])]);
    }

    #[test]
    #[should_panic(expected = "occurs in no atom")]
    fn dangling_variable_rejected() {
        let (v, e) = graphs();
        let _ = ConjunctiveQuery::new(v, ["x", "y", "z"], vec![], [(e, [0, 1])]);
    }

    #[test]
    #[should_panic(expected = "at least one atom")]
    fn empty_body_rejected() {
        let (v, _) = graphs();
        let _ = ConjunctiveQuery::new(v, [""; 0], vec![], [(RelId(0), [0u32; 0]); 0]);
    }
}
