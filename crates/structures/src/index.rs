//! Per-structure inverted indexes over relation tuples.
//!
//! Every hot path in the workspace — homomorphism search, core
//! computation, containment, the approximation pipeline — repeatedly asks
//! the same two questions about a structure's relations: *which tuples
//! have value `v` at position `p`?* (the support scan of a table
//! constraint) and *which values occur at position `p` at all?* (the unary
//! pruning of candidate domains). [`StructureIndex`] answers both in O(1)
//! from inverted lists built in one pass over the tuples.
//!
//! The index is built **lazily, once per [`Structure`]**, by
//! [`Structure::index`](crate::Structure::index), and cached behind an
//! `Arc`: clones of a structure share the built index, and repeated
//! searches against the same target (the `O(candidates²)` regime of the
//! minimality filter, or a core computation's `n` exclusion probes per
//! retract) pay the build cost exactly once. The cache never goes stale
//! because a `Structure`'s relations are immutable after
//! [`StructureBuilder::finish`](crate::StructureBuilder::finish) — the
//! only mutators (`set_names`/`clear_names`) touch display names, not
//! tuples. Any future tuple-level mutator must go through the builder,
//! which starts with a fresh, empty cache cell.

use crate::structure::{Element, Structure};
use crate::vocabulary::RelId;
use std::sync::{Arc, OnceLock};

/// A dense bitset over elements `0..n`, the solver's domain
/// representation and the index's occurrence sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ElemSet {
    words: Vec<u64>,
}

impl ElemSet {
    /// Resets to the full set `{0, …, n-1}`, reusing the allocation.
    pub(crate) fn reset_full(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), !0u64);
        if !n.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
    }

    /// Resets to the empty set over `0..n`, reusing the allocation.
    pub(crate) fn reset_empty(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0u64);
    }

    /// Becomes a copy of `other`, reusing the allocation.
    pub(crate) fn copy_from(&mut self, other: &ElemSet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    #[inline]
    pub(crate) fn contains(&self, i: Element) -> bool {
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    #[inline]
    pub(crate) fn insert(&mut self, i: Element) {
        self.words[(i / 64) as usize] |= 1 << (i % 64);
    }

    /// Removes an element; out-of-range removals are no-ops.
    #[inline]
    pub(crate) fn remove(&mut self, i: Element) {
        if let Some(w) = self.words.get_mut((i / 64) as usize) {
            *w &= !(1 << (i % 64));
        }
    }

    pub(crate) fn intersect_with(&mut self, other: &ElemSet) {
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= o;
        }
        // `other` may cover fewer words; anything beyond it is gone.
        for w in self.words.iter_mut().skip(other.words.len()) {
            *w = 0;
        }
    }

    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = Element> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    Some(wi as Element * 64 + b)
                }
            })
        })
    }
}

/// The inverted index of one relation: per-(position, value) tuple lists
/// plus per-position occurrence sets.
#[derive(Debug)]
pub struct RelIndex {
    arity: usize,
    n_values: usize,
    /// `lists[pos * n_values + val]` = ids ([`Structure::tuple`]) of the
    /// tuples with `val` at `pos`.
    lists: Vec<Vec<u32>>,
    /// `occurs[pos]` = the set of values occurring at `pos`.
    occurs: Vec<ElemSet>,
}

impl RelIndex {
    fn build(s: &Structure, rel: RelId) -> RelIndex {
        let arity = s.vocabulary().arity(rel);
        let n_values = s.universe_size();
        let mut lists = vec![Vec::new(); arity * n_values];
        let mut occurs = vec![ElemSet::default(); arity];
        for o in occurs.iter_mut() {
            o.reset_empty(n_values);
        }
        for (ti, t) in s.tuples(rel).enumerate() {
            for (p, &v) in t.iter().enumerate() {
                lists[p * n_values + v as usize].push(ti as u32);
                occurs[p].insert(v);
            }
        }
        RelIndex {
            arity,
            n_values,
            lists,
            occurs,
        }
    }

    /// The arity of the indexed relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Ids of the tuples holding `val` at position `pos`, each readable
    /// with [`Structure::tuple`](crate::Structure::tuple).
    #[inline]
    pub fn matches(&self, pos: usize, val: Element) -> &[u32] {
        &self.lists[pos * self.n_values + val as usize]
    }

    /// The set of values occurring at `pos` of any tuple.
    #[inline]
    pub(crate) fn occurs(&self, pos: usize) -> &ElemSet {
        &self.occurs[pos]
    }

    /// `true` when some tuple has `val` at position `pos`.
    pub fn occurs_at(&self, pos: usize, val: Element) -> bool {
        self.occurs[pos].contains(val)
    }
}

/// Inverted indexes for every relation of a [`Structure`], built once and
/// cached on the structure (see the [module docs](self)).
#[derive(Debug)]
pub struct StructureIndex {
    rels: Vec<RelIndex>,
}

impl StructureIndex {
    pub(crate) fn build(s: &Structure) -> StructureIndex {
        StructureIndex {
            rels: s
                .vocabulary()
                .rel_ids()
                .map(|rel| RelIndex::build(s, rel))
                .collect(),
        }
    }

    /// The index of one relation.
    #[inline]
    pub fn rel(&self, rel: RelId) -> &RelIndex {
        &self.rels[rel.index()]
    }
}

/// The lazily-initialized index slot carried by every [`Structure`].
///
/// Equality, hashing and (stub) serialization of structures ignore the
/// cache; cloning shares the already-built index (relations are immutable
/// after construction, so a shared index can never go stale).
#[derive(Debug, Default)]
pub(crate) struct IndexCell(pub(crate) OnceLock<Arc<StructureIndex>>);

impl Clone for IndexCell {
    fn clone(&self) -> Self {
        IndexCell(self.0.clone())
    }
}

impl PartialEq for IndexCell {
    fn eq(&self, _other: &Self) -> bool {
        true // the cache is derived data, invisible to equality
    }
}

impl Eq for IndexCell {}

impl std::hash::Hash for IndexCell {
    fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::StructureBuilder;
    use crate::vocabulary::Vocabulary;

    #[test]
    fn inverted_lists_match_tuples() {
        let v = Vocabulary::single(3);
        let r = v.rel("R").unwrap();
        let mut b = StructureBuilder::new(v, 4);
        b.add(r, &[0, 1, 2]).add(r, &[1, 1, 3]).add(r, &[2, 1, 0]);
        let s = b.finish();
        let idx = s.index().rel(r);
        assert_eq!(idx.arity(), 3);
        // position 1 is constantly 1.
        assert_eq!(idx.matches(1, 1).len(), 3);
        assert!(idx.matches(1, 0).is_empty());
        assert!(idx.occurs_at(0, 2));
        assert!(!idx.occurs_at(2, 1));
        // Lists hold tuple ids, in the sorted order of `tuples`.
        for &ti in idx.matches(0, 1) {
            assert_eq!(s.tuple(r, ti as usize)[0], 1);
        }
    }

    #[test]
    fn cache_shared_across_clones() {
        let s = Structure::digraph(3, &[(0, 1), (1, 2)]);
        let a = s.index() as *const StructureIndex;
        let s2 = s.clone();
        let b = s2.index() as *const StructureIndex;
        assert_eq!(a, b, "clones share the built index");
    }

    #[test]
    fn equality_ignores_cache() {
        let s = Structure::digraph(3, &[(0, 1), (1, 2)]);
        let t = Structure::digraph(3, &[(0, 1), (1, 2)]);
        let _ = s.index(); // build one side only
        assert_eq!(s, t);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |x: &Structure| {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&s), h(&t));
    }

    #[test]
    fn elemset_basics() {
        let mut s = ElemSet::default();
        s.reset_full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        s.remove(69);
        assert!(!s.contains(69));
        s.remove(1000); // out of range: no-op
        let mut t = ElemSet::default();
        t.reset_empty(70);
        t.insert(3);
        t.insert(64);
        s.intersect_with(&t);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64]);
        assert!(!s.is_empty());
    }
}
