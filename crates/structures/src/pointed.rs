//! Structures with a tuple of distinguished elements: `(D, ā)`.
//!
//! Tableaux of non-Boolean conjunctive queries have this shape; a
//! homomorphism `(D₁, ā₁) → (D₂, ā₂)` must map `ā₁` to `ā₂` pointwise.

use crate::structure::{Element, Structure};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A structure together with a tuple of distinguished elements.
///
/// The distinguished tuple may repeat elements and may be empty (Boolean
/// case). Distinguished elements must lie in the universe.
///
/// # Examples
///
/// ```
/// use cqapx_structures::{Pointed, Structure};
///
/// // Tableau of Q(x, y) :- E(x,y), E(y,z), E(z,x)  with x=0, y=1, z=2.
/// let t = Structure::digraph(3, &[(0, 1), (1, 2), (2, 0)]);
/// let p = Pointed::new(t, vec![0, 1]);
/// assert_eq!(p.distinguished(), &[0, 1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pointed {
    /// The underlying structure.
    pub structure: Structure,
    distinguished: Vec<Element>,
}

impl Pointed {
    /// Wraps a structure with a distinguished tuple.
    ///
    /// # Panics
    ///
    /// Panics when a distinguished element is outside the universe.
    pub fn new(structure: Structure, distinguished: Vec<Element>) -> Self {
        for &x in &distinguished {
            assert!(
                (x as usize) < structure.universe_size(),
                "distinguished element {x} out of universe"
            );
        }
        Pointed {
            structure,
            distinguished,
        }
    }

    /// A Boolean (empty-tuple) pointed structure.
    pub fn boolean(structure: Structure) -> Self {
        Pointed {
            structure,
            distinguished: Vec::new(),
        }
    }

    /// The distinguished tuple `ā`.
    pub fn distinguished(&self) -> &[Element] {
        &self.distinguished
    }

    /// Number of distinguished positions (free variables of the query).
    pub fn arity(&self) -> usize {
        self.distinguished.len()
    }

    /// `true` when there are no distinguished elements.
    pub fn is_boolean(&self) -> bool {
        self.distinguished.is_empty()
    }
}

impl fmt::Debug for Pointed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pointed(ā = [")?;
        for (i, &x) in self.distinguished.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.structure.element_name(x))?;
        }
        writeln!(f, "])")?;
        write!(f, "{:?}", self.structure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boolean_pointed() {
        let p = Pointed::boolean(Structure::digraph(2, &[(0, 1)]));
        assert!(p.is_boolean());
        assert_eq!(p.arity(), 0);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn distinguished_in_range() {
        let _ = Pointed::new(Structure::digraph(2, &[(0, 1)]), vec![5]);
    }
}
