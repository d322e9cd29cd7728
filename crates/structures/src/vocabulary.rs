//! Vocabularies (database schemas): relation names with fixed arities.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a relation symbol inside a [`Vocabulary`].
///
/// `RelId` is an index into the vocabulary's relation table; it is only
/// meaningful together with the vocabulary that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RelId(pub u32);

impl RelId {
    /// The index of this relation inside its vocabulary.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// One relation symbol: a name and an arity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) struct RelationSymbol {
    /// Human-readable name (e.g. `"E"` for the edge relation of a digraph).
    pub name: String,
    /// Number of positions of the relation (must be at least 1).
    pub arity: usize,
}

/// A vocabulary (schema): an ordered list of relation symbols.
///
/// Vocabularies are cheap to clone (the symbol table is shared through an
/// [`Arc`]); two vocabularies are equal when their symbol lists are equal.
///
/// # Examples
///
/// ```
/// use cqapx_structures::Vocabulary;
///
/// let graphs = Vocabulary::graphs();
/// assert_eq!(graphs.arity(graphs.rel("E").unwrap()), 2);
///
/// let v = Vocabulary::new(vec![("R", 3), ("S", 2)]);
/// assert_eq!(v.len(), 2);
/// assert_eq!(v.max_arity(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Vocabulary {
    symbols: Arc<Vec<RelationSymbol>>,
}

impl Vocabulary {
    /// Builds a vocabulary from `(name, arity)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if two relations share a name, or if any arity is zero.
    pub fn new<S: Into<String>>(rels: Vec<(S, usize)>) -> Self {
        let symbols: Vec<RelationSymbol> = rels
            .into_iter()
            .map(|(name, arity)| RelationSymbol {
                name: name.into(),
                arity,
            })
            .collect();
        for s in &symbols {
            assert!(s.arity >= 1, "relation {} must have arity >= 1", s.name);
        }
        for (i, a) in symbols.iter().enumerate() {
            for b in symbols.iter().skip(i + 1) {
                assert_ne!(a.name, b.name, "duplicate relation name {}", a.name);
            }
        }
        Vocabulary {
            symbols: Arc::new(symbols),
        }
    }

    /// The vocabulary of directed graphs: a single binary relation `E`.
    ///
    /// The paper's Sections 4, 5 and the appendix work over this vocabulary.
    pub fn graphs() -> Self {
        Vocabulary::new(vec![("E", 2)])
    }

    /// A vocabulary with a single relation `R` of the given arity.
    ///
    /// Used by the paper's higher-arity examples (§5.3, §6).
    pub fn single(arity: usize) -> Self {
        Vocabulary::new(vec![("R", arity)])
    }

    /// Number of relation symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// `true` when the vocabulary has no relation symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Looks a relation up by name.
    pub fn rel(&self, name: &str) -> Option<RelId> {
        self.symbols
            .iter()
            .position(|s| s.name == name)
            .map(|i| RelId(i as u32))
    }

    /// The arity of a relation.
    pub fn arity(&self, rel: RelId) -> usize {
        self.symbols[rel.index()].arity
    }

    /// The name of a relation.
    pub fn name(&self, rel: RelId) -> &str {
        &self.symbols[rel.index()].name
    }

    /// Iterates over all relation identifiers in order.
    pub fn rel_ids(&self) -> impl Iterator<Item = RelId> + Clone + '_ {
        (0..self.symbols.len() as u32).map(RelId)
    }

    /// The largest arity among the relations (`m` in the paper's bounds).
    ///
    /// Returns 0 for an empty vocabulary.
    pub fn max_arity(&self) -> usize {
        self.symbols.iter().map(|s| s.arity).max().unwrap_or(0)
    }
}

impl fmt::Display for Vocabulary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.symbols.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}/{}", s.name, s.arity)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphs_vocabulary() {
        let v = Vocabulary::graphs();
        assert_eq!(v.len(), 1);
        let e = v.rel("E").unwrap();
        assert_eq!(v.arity(e), 2);
        assert_eq!(v.name(e), "E");
        assert_eq!(v.max_arity(), 2);
        assert!(v.rel("F").is_none());
    }

    #[test]
    fn display() {
        let v = Vocabulary::new(vec![("R", 3), ("S", 1)]);
        assert_eq!(v.to_string(), "{R/3, S/1}");
    }

    #[test]
    fn equality_is_structural() {
        let a = Vocabulary::new(vec![("R", 2)]);
        let b = Vocabulary::new(vec![("R", 2)]);
        assert_eq!(a, b);
        let c = Vocabulary::new(vec![("R", 3)]);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "duplicate relation name")]
    fn duplicate_names_rejected() {
        let _ = Vocabulary::new(vec![("R", 2), ("R", 3)]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn zero_arity_rejected() {
        let _ = Vocabulary::new(vec![("R", 0)]);
    }

    #[test]
    fn rel_ids_in_order() {
        let v = Vocabulary::new(vec![("A", 1), ("B", 2), ("C", 3)]);
        let ids: Vec<_> = v.rel_ids().collect();
        assert_eq!(ids.len(), 3);
        assert_eq!(v.name(ids[0]), "A");
        assert_eq!(v.name(ids[2]), "C");
    }
}
