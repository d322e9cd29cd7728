//! Per-snapshot **domain dictionary**: the active domain of a
//! [`Structure`], interned into dense codes `[0, n)`.
//!
//! The dictionary assigns code `c` to the `c`-th smallest active element,
//! so encoding is canonical (two structures with the same relations get
//! the same codes regardless of how they were built) and **monotone**:
//! `a < b ⇔ encode(a) < encode(b)`. Monotonicity is load-bearing — the
//! columnar kernels keep relations in canonical sorted-dedup form, and a
//! monotone encoding means the canonical form in code space decodes to
//! exactly the canonical form in element space, row for row.
//!
//! Downstream, the dense code width travels with every materialized
//! `FlatRelation`, letting single-column join keys use a direct-addressed
//! (offset/count) index instead of a hash table.
//!
//! Like [`crate::index::StructureIndex`], the dictionary is derived data:
//! built lazily on first use, shared by clones, ignored by equality,
//! hashing, and serialization. Relations are immutable after
//! construction, so it never goes stale.

use crate::bitmap::DomainBitmap;
use crate::structure::{Element, Structure};
use std::sync::Arc;
use std::sync::OnceLock;

/// Sentinel in the reverse map for elements outside the active domain.
pub const NO_CODE: u32 = u32::MAX;

/// The interned active domain of one structure snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainDict {
    /// `elems[c]` is the element with code `c` (ascending, deduplicated).
    elems: Vec<Element>,
    /// `codes[e]` is the code of element `e`, or [`NO_CODE`] when `e` is
    /// not active. Length = universe size.
    codes: Vec<u32>,
    /// `true` when `encode` is the identity on active elements (the
    /// common case: a universe that *is* the active domain, or only has
    /// trailing isolated elements).
    identity: bool,
}

impl DomainDict {
    /// Builds the dictionary of a structure's active domain (the
    /// dictionary half of [`DomainDict::build_with_distinct`]).
    pub fn build(s: &Structure) -> Self {
        Self::build_with_distinct(s).0
    }

    /// Builds the dictionary and, from the same pass, the number of
    /// distinct values in every column of every relation
    /// (`distinct[rel][col]`, relations in `RelId` order): one
    /// sequential pass over each relation's row-major buffer
    /// ([`Structure::flat_tuples`]) sets a bit per value in a
    /// universe-sized bitset per column; a column's distinct count is
    /// its popcount, the active domain is the union of the columns, and
    /// its set bits in ascending order are the codes. No hashing, no
    /// tree: `O(tuples · arity + columns · universe / 64)`.
    pub fn build_with_distinct(s: &Structure) -> (Self, Vec<Vec<usize>>) {
        let width = u32::try_from(s.universe_size()).expect("elements are u32");
        let mut active = DomainBitmap::new(width);
        let mut distinct = Vec::with_capacity(s.vocabulary().len());
        for rel in s.vocabulary().rel_ids() {
            let arity = s.vocabulary().arity(rel);
            let mut columns = vec![DomainBitmap::new(width); arity];
            for row in s.tuples(rel) {
                for (column, &v) in columns.iter_mut().zip(row) {
                    column.set(v);
                }
            }
            columns
                .iter()
                .flat_map(|c| c.iter_ones())
                .for_each(|v| active.set(v));
            distinct.push(columns.iter().map(|c| c.ones() as usize).collect());
        }
        let mut elems = Vec::with_capacity(active.ones() as usize);
        let mut codes = vec![NO_CODE; s.universe_size()];
        let mut identity = true;
        for e in active.iter_ones() {
            identity &= elems.len() == e as usize;
            codes[e as usize] = elems.len() as u32;
            elems.push(e);
        }
        let dict = DomainDict {
            elems,
            codes,
            identity,
        };
        (dict, distinct)
    }

    /// Number of active elements = number of codes = the dense width.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// `true` when the active domain is empty.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// `true` when `encode` is the identity on every active element.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// The dense code of an active element.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds via the `NO_CODE` sentinel reaching a
    /// caller) only if `e` is not active; callers encode elements read
    /// from relation tuples, which are active by definition.
    #[inline]
    pub fn encode(&self, e: Element) -> u32 {
        self.codes[e as usize]
    }

    /// The element behind a code.
    #[inline]
    pub fn decode(&self, c: u32) -> Element {
        self.elems[c as usize]
    }

    /// Heap bytes held by the dictionary (for cache accounting).
    pub fn heap_bytes(&self) -> usize {
        self.elems.capacity() * std::mem::size_of::<Element>()
            + self.codes.capacity() * std::mem::size_of::<u32>()
    }
}

/// The lazily-initialized, clone-shared dictionary slot embedded in
/// [`Structure`]. Mirrors [`crate::index::IndexCell`]: derived data,
/// invisible to equality/hash/serde.
#[derive(Debug, Default)]
pub(crate) struct DictCell(pub(crate) OnceLock<Arc<DomainDict>>);

impl Clone for DictCell {
    fn clone(&self) -> Self {
        DictCell(self.0.clone())
    }
}

impl PartialEq for DictCell {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for DictCell {}

impl std::hash::Hash for DictCell {
    fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::StructureBuilder;
    use crate::vocabulary::Vocabulary;

    #[test]
    fn dense_universe_is_identity() {
        let s = Structure::digraph(3, &[(0, 1), (1, 2), (2, 0)]);
        let d = s.domain_dict();
        assert!(d.is_identity());
        assert_eq!(d.len(), 3);
        for e in 0..3 {
            assert_eq!(d.encode(e), e);
            assert_eq!(d.decode(e), e);
        }
    }

    #[test]
    fn trailing_isolated_elements_stay_identity() {
        // Node 3 is isolated but all active elements keep their value.
        let s = Structure::digraph(4, &[(0, 1), (1, 2)]);
        let d = s.domain_dict();
        assert!(d.is_identity());
        assert_eq!(d.len(), 3);
        assert_eq!(d.encode(2), 2);
    }

    #[test]
    fn gaps_compact_and_stay_monotone() {
        // Node 1 is isolated: adom = {0, 2, 4}.
        let s = Structure::digraph(5, &[(0, 2), (2, 4)]);
        let d = s.domain_dict();
        assert!(!d.is_identity());
        assert_eq!(d.len(), 3);
        assert_eq!(d.encode(0), 0);
        assert_eq!(d.encode(2), 1);
        assert_eq!(d.encode(4), 2);
        assert_eq!(d.decode(1), 2);
        assert_eq!(d.codes[1], NO_CODE);
        // Monotone: order of codes equals order of elements.
        assert!(d.encode(0) < d.encode(2) && d.encode(2) < d.encode(4));
    }

    #[test]
    fn shared_by_clones() {
        let s = Structure::digraph(3, &[(0, 1)]);
        let before = s.domain_dict() as *const DomainDict;
        let t = s.clone();
        assert_eq!(t.domain_dict() as *const DomainDict, before);
    }

    /// Random structures over a vocabulary with a unary, a binary, a
    /// ternary and an always-empty relation, on universes at the bitset
    /// word edges: few tuples leave gaps and an active domain smaller
    /// than the universe, `top` plants the element `universe − 1`.
    fn structures() -> impl proptest::strategy::Strategy<Value = Structure> {
        use proptest::prelude::*;
        let tuples = |arity: usize| proptest::collection::vec(any::<u32>(), 0..=arity * 12);
        (0..14usize, tuples(1), tuples(2), tuples(3)).prop_map(|(u, unary, binary, ternary)| {
            let (universe, top) = ([1usize, 2, 63, 64, 65, 130, 1000][u % 7], u >= 7);
            let v = Vocabulary::new(vec![("U", 1), ("E", 2), ("T", 3), ("Z", 2)]);
            let mut b = StructureBuilder::new(v.clone(), universe);
            for (name, values) in [("U", unary), ("E", binary), ("T", ternary)] {
                let rel = v.rel(name).unwrap();
                for t in values.chunks_exact(v.arity(rel)) {
                    let t: Vec<Element> = t.iter().map(|x| x % universe as u32).collect();
                    b.add(rel, &t);
                }
            }
            if top {
                b.add(v.rel("U").unwrap(), &[universe as Element - 1]);
            }
            b.finish()
        })
    }

    proptest::proptest! {
        /// The bitset pass equals the reference definitions: the
        /// dictionary is `active_domain()` in ascending order, and a
        /// column's distinct count is the size of its value set.
        #[test]
        fn scan_matches_reference_definitions(s in structures()) {
            let (d, distinct) = DomainDict::build_with_distinct(&s);
            let adom: Vec<Element> = s.active_domain().into_iter().collect();
            assert_eq!(d.elems, adom);
            assert_eq!(d.is_identity(), adom.iter().enumerate().all(|(c, &e)| c as Element == e));
            assert_eq!(d.codes.len(), s.universe_size());
            for e in s.elements() {
                match adom.binary_search(&e) {
                    Ok(c) => assert_eq!((d.encode(e), d.decode(c as u32)), (c as u32, e)),
                    Err(_) => assert_eq!(d.codes[e as usize], NO_CODE),
                }
            }
            for rel in s.vocabulary().rel_ids() {
                let naive: Vec<usize> = (0..s.vocabulary().arity(rel))
                    .map(|col| {
                        let values: std::collections::HashSet<Element> =
                            s.tuples(rel).map(|t| t[col]).collect();
                        values.len()
                    })
                    .collect();
                assert_eq!(distinct[rel.index()], naive, "{}", s.vocabulary().name(rel));
            }
            // The registration entry point hands out the same counts
            // and leaves this dictionary installed.
            assert_eq!(s.distinct_per_column(), distinct);
            assert_eq!(s.domain_dict(), &d);
        }
    }

    #[test]
    fn empty_structure() {
        let s = Structure::digraph(2, &[]);
        let d = s.domain_dict();
        assert!(d.is_empty());
        assert!(d.is_identity());
    }
}
