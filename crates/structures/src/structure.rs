//! Finite relational structures (databases).

use crate::dict::{DictCell, DomainDict};
use crate::index::{IndexCell, StructureIndex};
use crate::vocabulary::{RelId, Vocabulary};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::slice::ChunksExact;
use std::sync::Arc;

/// An element of a structure's universe. Elements are dense indices
/// `0..structure.universe_size()`.
pub type Element = u32;

/// A finite relational structure (a database) over a [`Vocabulary`].
///
/// Elements are `0..universe_size()`. Following standard database-theory
/// convention (and the paper), the universe is intended to be the *active
/// domain* — every element should occur in some tuple; structures with
/// isolated elements can be normalized with [`Structure::restrict_to_adom`].
///
/// Each relation is stored as one row-major buffer: `arity` consecutive
/// elements per tuple, rows sorted lexicographically and deduplicated, so
/// structural equality of `Structure` values is set equality of their
/// relations, and tuple id `i` names the `i`-th row. Every arity is at
/// least 1 ([`Vocabulary::new`] asserts it), so a relation's buffer
/// always splits into whole rows.
///
/// # Examples
///
/// ```
/// use cqapx_structures::{Structure, Vocabulary};
///
/// // The directed 3-cycle (tableau of Q1() :- E(x,y),E(y,z),E(z,x)).
/// let c3 = Structure::digraph(3, &[(0, 1), (1, 2), (2, 0)]);
/// assert_eq!(c3.universe_size(), 3);
/// assert_eq!(c3.total_tuples(), 3);
/// let e = c3.vocabulary().rel("E").unwrap();
/// assert!(c3.contains(e, &[0, 1]));
/// assert!(!c3.contains(e, &[1, 0]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Structure {
    vocab: Vocabulary,
    universe_size: usize,
    /// Per relation: sorted, deduplicated rows, row-major.
    relations: Vec<Vec<Element>>,
    /// Optional display names of elements (same length as the universe).
    names: Option<Vec<String>>,
    /// Lazily-built inverted indexes (derived data: ignored by equality
    /// and hashing, shared by clones; see [`crate::index`]).
    index: IndexCell,
    /// Lazily-built active-domain dictionary (derived data, same
    /// contract as `index`; see [`crate::dict`]).
    dict: DictCell,
}

impl Structure {
    /// Creates an empty structure with the given universe size.
    pub fn empty(vocab: Vocabulary, universe_size: usize) -> Self {
        let relations = vec![Vec::new(); vocab.len()];
        Structure {
            vocab,
            universe_size,
            relations,
            names: None,
            index: IndexCell::default(),
            dict: DictCell::default(),
        }
    }

    /// Builds a digraph structure over [`Vocabulary::graphs`].
    ///
    /// `n` is the number of nodes, `edges` the directed edges.
    pub fn digraph(n: usize, edges: &[(Element, Element)]) -> Self {
        let vocab = Vocabulary::graphs();
        let mut b = StructureBuilder::new(vocab.clone(), n);
        let e = vocab.rel("E").expect("graphs vocabulary has E");
        for &(u, v) in edges {
            b.add(e, &[u, v]);
        }
        b.finish()
    }

    /// The vocabulary of this structure.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Number of elements in the universe.
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// Iterates over all elements `0..universe_size()`.
    pub fn elements(&self) -> impl Iterator<Item = Element> {
        0..self.universe_size as Element
    }

    /// The tuples of a relation (sorted, deduplicated), one slice per
    /// row of [`Self::flat_tuples`].
    pub fn tuples(&self, rel: RelId) -> ChunksExact<'_, Element> {
        self.relations[rel.index()].chunks_exact(self.vocab.arity(rel))
    }

    /// Tuple `i` of a relation, the `i`-th of [`Self::tuples`].
    pub fn tuple(&self, rel: RelId, i: usize) -> &[Element] {
        let arity = self.vocab.arity(rel);
        &self.relations[rel.index()][i * arity..(i + 1) * arity]
    }

    /// The inverted indexes of this structure's relations, built lazily on
    /// first use and cached (clones share it). Relations are immutable
    /// after construction, so the cache never goes stale; see
    /// [`crate::index`] for the invalidation contract.
    pub fn index(&self) -> &StructureIndex {
        self.index
            .0
            .get_or_init(|| Arc::new(StructureIndex::build(self)))
    }

    /// The active-domain dictionary of this snapshot: dense codes
    /// `[0, n)` for the `n` active elements, in sorted (canonical)
    /// order. Built lazily on first use and cached; clones share it
    /// (see [`crate::dict`]).
    pub fn domain_dict(&self) -> &DomainDict {
        self.dict
            .0
            .get_or_init(|| Arc::new(DomainDict::build(self)))
    }

    /// The stored tuples of `rel`: one row-major buffer, `arity`
    /// consecutive elements per tuple, tuples in the sorted order of
    /// [`Self::tuples`].
    pub fn flat_tuples(&self, rel: RelId) -> &[Element] {
        &self.relations[rel.index()]
    }

    /// The number of distinct values in every column of every relation
    /// (`[rel][col]`, relations in `RelId` order), counted in the pass
    /// that builds the domain dictionary
    /// ([`DomainDict::build_with_distinct`]) — so this leaves
    /// [`Self::domain_dict`] built: it is the whole once-per-snapshot
    /// scan of a registration.
    pub fn distinct_per_column(&self) -> Vec<Vec<usize>> {
        let (dict, distinct) = DomainDict::build_with_distinct(self);
        self.dict.0.get_or_init(|| Arc::new(dict));
        distinct
    }

    /// Checks whether a tuple is a fact of the relation: a binary search
    /// over whole rows, so a probe of the wrong length is never one.
    pub fn contains(&self, rel: RelId, tuple: &[Element]) -> bool {
        let arity = self.vocab.arity(rel);
        let rows = &self.relations[rel.index()];
        if tuple.len() != arity {
            return false;
        }
        let (mut lo, mut hi) = (0, rows.len() / arity);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match rows[mid * arity..(mid + 1) * arity].cmp(tuple) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// Total number of tuples across all relations (`|D|` up to a constant).
    pub fn total_tuples(&self) -> usize {
        self.vocab.rel_ids().map(|rel| self.tuples(rel).len()).sum()
    }

    /// `true` when every relation is empty.
    pub fn is_relations_empty(&self) -> bool {
        self.relations.iter().all(|r| r.is_empty())
    }

    /// The set of elements that occur in at least one tuple (active domain).
    pub fn active_domain(&self) -> BTreeSet<Element> {
        self.relations.iter().flatten().copied().collect()
    }

    /// `true` when the universe equals the active domain.
    pub fn universe_is_active(&self) -> bool {
        self.active_domain().len() == self.universe_size
    }

    /// Restricts the universe to the active domain, renaming elements to be
    /// dense. Returns the restricted structure and, for each old element,
    /// its new name (or `None` when dropped).
    pub fn restrict_to_adom(&self) -> (Structure, Vec<Option<Element>>) {
        let adom = self.active_domain();
        let mut remap: Vec<Option<Element>> = vec![None; self.universe_size];
        for (new, &old) in adom.iter().enumerate() {
            remap[old as usize] = Some(new as Element);
        }
        let mut b = StructureBuilder::new(self.vocab.clone(), adom.len());
        for rel in self.vocab.rel_ids() {
            for t in self.tuples(rel) {
                let mapped: Vec<Element> = t
                    .iter()
                    .map(|&x| remap[x as usize].expect("active element"))
                    .collect();
                b.add(rel, &mapped);
            }
        }
        let mut out = b.finish();
        if let Some(names) = &self.names {
            let new_names = adom
                .iter()
                .map(|&old| names[old as usize].clone())
                .collect();
            out.names = Some(new_names);
        }
        (out, remap)
    }

    /// Sets display names for elements.
    ///
    /// # Panics
    ///
    /// Panics when the number of names differs from the universe size.
    pub fn set_names<S: Into<String>>(&mut self, names: Vec<S>) {
        assert_eq!(names.len(), self.universe_size, "one name per element");
        self.names = Some(names.into_iter().map(Into::into).collect());
    }

    /// The display name of an element (falls back to `e{index}`).
    pub fn element_name(&self, e: Element) -> String {
        match &self.names {
            Some(names) => names[e as usize].clone(),
            None => format!("e{e}"),
        }
    }

    /// Optional display names of all elements.
    pub fn names(&self) -> Option<&[String]> {
        self.names.as_deref()
    }

    /// Drops display names (useful before comparing structures for equality).
    pub fn clear_names(&mut self) {
        self.names = None;
    }

    /// The disjoint union of two structures over the same vocabulary.
    ///
    /// Elements of `other` are shifted by `self.universe_size()`.
    pub fn disjoint_union(&self, other: &Structure) -> Structure {
        assert_eq!(
            self.vocab, other.vocab,
            "disjoint union needs a common vocabulary"
        );
        let off = self.universe_size as Element;
        let mut b =
            StructureBuilder::new(self.vocab.clone(), self.universe_size + other.universe_size);
        for rel in self.vocab.rel_ids() {
            for t in self.tuples(rel) {
                b.add(rel, t);
            }
            for t in other.tuples(rel) {
                let shifted: Vec<Element> = t.iter().map(|&x| x + off).collect();
                b.add(rel, &shifted);
            }
        }
        b.finish()
    }

    /// The image of this structure under an arbitrary map of elements.
    ///
    /// The result's universe is `0..=max(map)` restricted to the active
    /// domain of the image; every map is a homomorphism *onto its image*, so
    /// this realizes `Im(h)` from the paper.
    pub fn map_image(&self, map: &[Element]) -> Structure {
        assert_eq!(map.len(), self.universe_size, "one image per element");
        let max = map.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut b = StructureBuilder::new(self.vocab.clone(), max);
        for rel in self.vocab.rel_ids() {
            for t in self.tuples(rel) {
                let mapped: Vec<Element> = t.iter().map(|&x| map[x as usize]).collect();
                b.add(rel, &mapped);
            }
        }
        let (img, _) = b.finish().restrict_to_adom();
        img
    }

    /// The substructure induced by keeping only tuples all of whose elements
    /// satisfy `keep`, then restricting to the active domain.
    ///
    /// Returns the substructure and the old→new element mapping.
    pub fn induced<F: Fn(Element) -> bool>(&self, keep: F) -> (Structure, Vec<Option<Element>>) {
        let mut b = StructureBuilder::new(self.vocab.clone(), self.universe_size);
        for rel in self.vocab.rel_ids() {
            for t in self.tuples(rel) {
                if t.iter().all(|&x| keep(x)) {
                    b.add(rel, t);
                }
            }
        }
        b.finish().restrict_to_adom()
    }

    /// `true` when every tuple of every relation of `self` is a tuple of
    /// `other` (containment of databases, `D₁ ⊆ D₂` in the paper).
    pub fn contained_in(&self, other: &Structure) -> bool {
        if self.vocab != other.vocab {
            return false;
        }
        self.vocab
            .rel_ids()
            .all(|rel| self.tuples(rel).all(|t| other.contains(rel, t)))
    }

    /// `true` when `self ⊆ other` and some relation of `other` has a tuple
    /// missing from `self` (strict containment of databases).
    pub fn strictly_contained_in(&self, other: &Structure) -> bool {
        self.contained_in(other) && self.total_tuples() < other.total_tuples()
    }

    /// Checks basic well-formedness: every relation splits into whole
    /// rows of its arity and elements are in range.
    pub fn validate(&self) -> Result<(), String> {
        for rel in self.vocab.rel_ids() {
            let (arity, rows) = (self.vocab.arity(rel), &self.relations[rel.index()]);
            if rows.len() % arity != 0 {
                return Err(format!(
                    "{} holds {} elements, not whole rows of arity {}",
                    self.vocab.name(rel),
                    rows.len(),
                    arity
                ));
            }
            if let Some(&x) = rows.iter().find(|&&x| x as usize >= self.universe_size) {
                return Err(format!(
                    "element {} out of universe 0..{}",
                    x, self.universe_size
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Structure over {} with {} elements:",
            self.vocab, self.universe_size
        )?;
        for rel in self.vocab.rel_ids() {
            write!(f, "  {} = {{", self.vocab.name(rel))?;
            for (i, t) in self.tuples(rel).enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "(")?;
                for (j, &x) in t.iter().enumerate() {
                    if j > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", self.element_name(x))?;
                }
                write!(f, ")")?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

/// Incremental builder of a [`Structure`].
///
/// Collects tuples in any order, row-major per relation;
/// [`StructureBuilder::finish`] sorts and deduplicates each relation.
#[derive(Debug, Clone)]
pub struct StructureBuilder {
    vocab: Vocabulary,
    universe_size: usize,
    relations: Vec<Vec<Element>>,
}

impl StructureBuilder {
    /// Starts a builder for the vocabulary and universe size.
    pub fn new(vocab: Vocabulary, universe_size: usize) -> Self {
        let relations = vec![Vec::new(); vocab.len()];
        StructureBuilder {
            vocab,
            universe_size,
            relations,
        }
    }

    /// Adds a fact. Panics when the arity is wrong or elements are out of
    /// range.
    pub fn add(&mut self, rel: RelId, tuple: &[Element]) -> &mut Self {
        assert_eq!(
            tuple.len(),
            self.vocab.arity(rel),
            "arity mismatch for {}",
            self.vocab.name(rel)
        );
        for &x in tuple {
            assert!(
                (x as usize) < self.universe_size,
                "element {x} out of universe 0..{}",
                self.universe_size
            );
        }
        self.relations[rel.index()].extend_from_slice(tuple);
        self
    }

    /// Grows the universe to at least `n` elements.
    pub fn ensure_universe(&mut self, n: usize) -> &mut Self {
        if n > self.universe_size {
            self.universe_size = n;
        }
        self
    }

    /// Allocates and returns a fresh element.
    pub fn fresh(&mut self) -> Element {
        let e = self.universe_size as Element;
        self.universe_size += 1;
        e
    }

    /// Finalizes the structure (sorting + deduplicating each relation).
    pub fn finish(self) -> Structure {
        let mut relations = self.relations;
        for (rel, rows) in self.vocab.rel_ids().zip(&mut relations) {
            sort_dedup_rows(rows, self.vocab.arity(rel));
        }
        Structure {
            vocab: self.vocab,
            universe_size: self.universe_size,
            relations,
            names: None,
            index: IndexCell::default(),
            dict: DictCell::default(),
        }
    }
}

/// Sorts the rows of a row-major buffer lexicographically and drops
/// repeated rows, gathering them into an exactly sized buffer. Rows that
/// are already strictly increasing are left where they are.
fn sort_dedup_rows(rows: &mut Vec<Element>, arity: usize) {
    if rows.chunks_exact(arity).is_sorted_by(|a, b| a < b) {
        return;
    }
    let mut sorted: Vec<&[Element]> = rows.chunks_exact(arity).collect();
    sorted.sort_unstable();
    sorted.dedup();
    *rows = sorted.concat();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c3() -> Structure {
        Structure::digraph(3, &[(0, 1), (1, 2), (2, 0)])
    }

    /// Builder inputs over a unary, a binary and a ternary relation on a
    /// four-element universe: values in drawn order, so rows repeat and
    /// arrive unsorted.
    fn builder_inputs() -> impl proptest::strategy::Strategy<Value = [Vec<Element>; 3]> {
        use proptest::prelude::*;
        let values = |arity: usize| proptest::collection::vec(0..4u32, 0..=arity * 16);
        (values(1), values(2), values(3)).prop_map(|(u, e, t)| [u, e, t])
    }

    fn hash_of(s: &Structure) -> u64 {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    proptest::proptest! {
        /// The flat store against a `BTreeSet` of rows per relation:
        /// tuple order and count, membership of every row, of every
        /// other row over the universe, of every window straddling two
        /// stored rows, and of probes one element short or long; and two
        /// builds of one set in other orders are equal and hash alike.
        #[test]
        fn flat_store_matches_a_set_of_rows(inputs in builder_inputs()) {
            let v = Vocabulary::new(vec![("U", 1), ("E", 2), ("T", 3)]);
            let mut b = StructureBuilder::new(v.clone(), 4);
            let mut sets = Vec::new();
            for (rel, values) in v.rel_ids().zip(&inputs) {
                let rows = values.chunks_exact(v.arity(rel));
                for t in rows.clone() {
                    b.add(rel, t);
                }
                sets.push(rows.map(<[Element]>::to_vec).collect::<BTreeSet<_>>());
            }
            let s = b.finish();
            s.validate().unwrap();
            let total: usize = sets.iter().map(BTreeSet::len).sum();
            proptest::prop_assert_eq!(s.total_tuples(), total);
            for (rel, set) in v.rel_ids().zip(&sets) {
                let arity = v.arity(rel);
                let rows: Vec<Vec<Element>> = s.tuples(rel).map(<[Element]>::to_vec).collect();
                proptest::prop_assert_eq!(&rows, &set.iter().cloned().collect::<Vec<_>>());
                proptest::prop_assert_eq!(s.tuples(rel).len(), set.len());
                for (i, t) in rows.iter().enumerate() {
                    proptest::prop_assert_eq!(s.tuple(rel, i), t.as_slice());
                    proptest::prop_assert!(s.contains(rel, t));
                    proptest::prop_assert!(!s.contains(rel, &t[1..]));
                    proptest::prop_assert!(!s.contains(rel, &[t.as_slice(), &[0]].concat()));
                }
                for code in 0..4u32.pow(arity as u32) {
                    let probe: Vec<Element> = (0..arity).map(|p| code / 4u32.pow(p as u32) % 4).collect();
                    proptest::prop_assert_eq!(s.contains(rel, &probe), set.contains(&probe));
                }
                for (start, window) in s.flat_tuples(rel).windows(arity).enumerate() {
                    if start % arity != 0 {
                        proptest::prop_assert_eq!(s.contains(rel, window), set.contains(window));
                    }
                }
            }
            // The same sets added backwards (the sort path) and in
            // ascending order (already sorted, kept as built).
            for backwards in [true, false] {
                let mut b = StructureBuilder::new(v.clone(), 4);
                for (rel, set) in v.rel_ids().zip(&sets) {
                    let mut rows: Vec<&Vec<Element>> = set.iter().collect();
                    if backwards {
                        rows.reverse();
                    }
                    for t in rows {
                        b.add(rel, t);
                    }
                }
                let other = b.finish();
                proptest::prop_assert_eq!(&other, &s);
                proptest::prop_assert_eq!(hash_of(&other), hash_of(&s));
            }
        }
    }

    #[test]
    fn digraph_basics() {
        let g = c3();
        let e = g.vocabulary().rel("E").unwrap();
        assert_eq!(g.total_tuples(), 3);
        assert!(g.contains(e, &[0, 1]));
        assert!(!g.contains(e, &[0, 2]));
        assert!(g.universe_is_active());
        g.validate().unwrap();
    }

    #[test]
    fn dedup_on_finish() {
        let g = Structure::digraph(2, &[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(g.total_tuples(), 1);
    }

    #[test]
    fn active_domain_and_restrict() {
        // node 2 is isolated
        let g = Structure::digraph(3, &[(0, 1)]);
        assert!(!g.universe_is_active());
        let (r, remap) = g.restrict_to_adom();
        assert_eq!(r.universe_size(), 2);
        assert_eq!(remap[2], None);
        assert_eq!(remap[0], Some(0));
        assert!(r.universe_is_active());
    }

    #[test]
    fn disjoint_union() {
        let g = c3();
        let u = g.disjoint_union(&g);
        assert_eq!(u.universe_size(), 6);
        assert_eq!(u.total_tuples(), 6);
        let e = u.vocabulary().rel("E").unwrap();
        assert!(u.contains(e, &[3, 4]));
    }

    #[test]
    fn map_image_collapses() {
        let g = c3();
        // collapse all three nodes onto node 0 -> a single loop
        let img = g.map_image(&[0, 0, 0]);
        assert_eq!(img.universe_size(), 1);
        let e = img.vocabulary().rel("E").unwrap();
        assert!(img.contains(e, &[0, 0]));
        assert_eq!(img.total_tuples(), 1);
    }

    #[test]
    fn map_image_identity() {
        let g = c3();
        let img = g.map_image(&[0, 1, 2]);
        assert_eq!(img, g);
    }

    #[test]
    fn containment() {
        let p2 = Structure::digraph(3, &[(0, 1), (1, 2)]);
        let g = c3();
        // p2's tuples are (0,1),(1,2) which are both in c3
        assert!(p2.contained_in(&g));
        assert!(p2.strictly_contained_in(&g));
        assert!(!g.contained_in(&p2));
        assert!(g.contained_in(&g));
        assert!(!g.strictly_contained_in(&g));
    }

    #[test]
    fn induced_substructure() {
        let g = c3();
        let (sub, _) = g.induced(|x| x != 2);
        assert_eq!(sub.total_tuples(), 1);
        assert_eq!(sub.universe_size(), 2);
    }

    #[test]
    fn names_roundtrip() {
        let mut g = Structure::digraph(2, &[(0, 1)]);
        g.set_names(vec!["x", "y"]);
        assert_eq!(g.element_name(0), "x");
        assert_eq!(g.element_name(1), "y");
        g.clear_names();
        assert_eq!(g.element_name(0), "e0");
    }

    #[test]
    fn higher_arity() {
        let v = Vocabulary::single(3);
        let r = v.rel("R").unwrap();
        let mut b = StructureBuilder::new(v, 4);
        b.add(r, &[0, 1, 2]).add(r, &[1, 2, 3]);
        let s = b.finish();
        assert_eq!(s.total_tuples(), 2);
        assert!(s.contains(r, &[0, 1, 2]));
        s.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let v = Vocabulary::graphs();
        let e = v.rel("E").unwrap();
        let mut b = StructureBuilder::new(v, 2);
        b.add(e, &[0]);
    }
}
