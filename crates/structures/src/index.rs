//! Per-structure inverted indexes over relation tuples.
//!
//! Every hot path in the workspace — homomorphism search, core
//! computation, containment, the approximation pipeline — repeatedly asks
//! the same two questions about a structure's relations: *which tuples
//! have value `v` at position `p`?* (the support scan of a table
//! constraint) and *which values occur at position `p` at all?* (the unary
//! pruning of candidate domains). [`StructureIndex`] answers both in O(1)
//! from inverted lists in compressed sparse rows — per relation an
//! offsets array over every (position, value) followed by its tuple ids,
//! and a bitset of occurring values per position — built in two passes
//! over the tuples. Every relation's offsets and ids share one buffer
//! and every position's bitset another, so an index costs the same
//! three allocations (those two and its `Arc`) whatever the number of
//! relations and tuples.
//!
//! The index is built **lazily, once per [`Structure`]**, by
//! [`Structure::index`](crate::Structure::index), and cached behind an
//! `Arc`: clones of a structure share the built index, and repeated
//! searches against the same target (the `O(candidates²)` regime of the
//! minimality filter, or a core computation's probes, every one against
//! the structure itself) pay the build cost exactly once. The cache never
//! goes stale because a `Structure`'s relations are immutable after
//! [`StructureBuilder::finish`](crate::StructureBuilder::finish) — the
//! only mutator (`set_names`) touches display names, not tuples. Any
//! future tuple-level mutator must go through the builder, which starts
//! with a fresh, empty cache cell.

use crate::structure::{Element, Structure};
use crate::vocabulary::RelId;
use std::sync::{Arc, OnceLock};

/// A dense bitset over elements `0..n`, the solver's domain
/// representation.
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

    /// The set's words, `64 · w + b` for bit `b` of word `w`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
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

    /// Intersects with the set whose words are `other`.
    pub(crate) fn intersect_with(&mut self, other: &[u64]) {
        for (w, o) in self.words.iter_mut().zip(other) {
            *w &= o;
        }
        // `other` may cover fewer words; anything beyond it is gone.
        for w in self.words.iter_mut().skip(other.len()) {
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

/// Inverted indexes for every relation of a [`Structure`], built once and
/// cached on the structure (see the [module docs](self)): two buffers
/// for the whole vocabulary.
#[derive(Debug)]
pub struct StructureIndex {
    n_values: usize,
    /// Per relation `r`, in vocabulary order, `lists[2r]` is where its
    /// `arity · n_values + 1` offsets start in `lists` and `lists[2r + 1]`
    /// its first position among all relations' positions. Each
    /// relation's ids follow its offsets, which are positions in `lists`.
    lists: Vec<u32>,
    /// Per position of every relation, in vocabulary order, a bitset of
    /// `n_values.div_ceil(64)` words: the values occurring there.
    occurs: Vec<u64>,
}

impl StructureIndex {
    pub(crate) fn build(s: &Structure) -> StructureIndex {
        let vocab = s.vocabulary();
        let (n_values, words) = (s.universe_size(), s.universe_size().div_ceil(64));
        let span = |rel: RelId| vocab.arity(rel) * n_values + 1 + s.flat_tuples(rel).len();
        let header = 2 * vocab.len();
        let mut lists = vec![0u32; header + vocab.rel_ids().map(span).sum::<usize>()];
        let positions: usize = vocab.rel_ids().map(|rel| vocab.arity(rel)).sum();
        let mut occurs = vec![0u64; positions * words];
        let word = |x: usize| u32::try_from(x).expect("an index position fits in 32 bits");
        let (mut at, mut first) = (header, 0);
        for rel in vocab.rel_ids() {
            let (arity, rows) = (vocab.arity(rel), s.flat_tuples(rel));
            let (keys, base) = (arity * n_values, at + arity * n_values + 1);
            lists[2 * rel.index()..][..2].copy_from_slice(&[word(at), word(first)]);
            let (starts, ids) = lists[at..][..span(rel)].split_at_mut(keys + 1);
            let occurs = &mut occurs[first * words..][..arity * words];
            // Count each (position, value) one slot ahead, prefix-sum
            // into start offsets, then place every id at its list's
            // cursor; the cursors end one list ahead, so shifting them
            // back restores the starts.
            starts[0] = word(base);
            for t in rows.chunks_exact(arity) {
                for (p, &v) in t.iter().enumerate() {
                    starts[p * n_values + v as usize + 1] += 1;
                    occurs[p * words + (v / 64) as usize] |= 1 << (v % 64);
                }
            }
            for k in 1..starts.len() {
                starts[k] += starts[k - 1];
            }
            for (ti, t) in rows.chunks_exact(arity).enumerate() {
                for (p, &v) in t.iter().enumerate() {
                    let cursor = &mut starts[p * n_values + v as usize];
                    ids[*cursor as usize - base] = ti as u32;
                    *cursor += 1;
                }
            }
            starts.copy_within(..keys, 1);
            starts[0] = word(base);
            (at, first) = (at + span(rel), first + arity);
        }
        StructureIndex {
            n_values,
            lists,
            occurs,
        }
    }

    /// Ids of the `rel` tuples holding `val` at position `pos`, each
    /// readable with [`Structure::tuple`](crate::Structure::tuple), in
    /// ascending order.
    #[inline]
    pub(crate) fn matches(&self, rel: RelId, pos: usize, val: Element) -> &[u32] {
        let k = self.lists[2 * rel.index()] as usize + pos * self.n_values + val as usize;
        &self.lists[self.lists[k] as usize..self.lists[k + 1] as usize]
    }

    /// The words of the set of values occurring at `pos` of any `rel`
    /// tuple.
    #[inline]
    pub(crate) fn occurs(&self, rel: RelId, pos: usize) -> &[u64] {
        let words = self.n_values.div_ceil(64);
        let at = (self.lists[2 * rel.index() + 1] as usize + pos) * words;
        &self.occurs[at..at + words]
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
        let idx = s.index();
        // position 1 is constantly 1.
        assert_eq!(idx.matches(r, 1, 1).len(), 3);
        assert!(idx.matches(r, 1, 0).is_empty());
        assert!(!idx.matches(r, 0, 2).is_empty());
        assert!(idx.matches(r, 2, 1).is_empty());
        // Lists hold tuple ids, in the sorted order of `tuples`.
        for &ti in idx.matches(r, 0, 1) {
            assert_eq!(s.tuple(r, ti as usize)[0], 1);
        }
    }

    /// The per-relation index this module built before its two shared
    /// buffers: per relation an offsets array, an id array and the
    /// occurrence words, three allocations each. The oracle of
    /// [`check_index_against_per_relation_oracle`].
    struct PerRelation {
        n_values: usize,
        starts: Vec<u32>,
        ids: Vec<u32>,
        occurs: Vec<u64>,
    }

    impl PerRelation {
        fn build(s: &Structure, rel: RelId) -> PerRelation {
            let arity = s.vocabulary().arity(rel);
            let n_values = s.universe_size();
            let words = n_values.div_ceil(64);
            let rows = s.flat_tuples(rel);
            let mut starts = vec![0u32; arity * n_values + 1];
            let mut occurs = vec![0u64; arity * words];
            for t in rows.chunks_exact(arity) {
                for (p, &v) in t.iter().enumerate() {
                    starts[p * n_values + v as usize + 1] += 1;
                    occurs[p * words + (v / 64) as usize] |= 1 << (v % 64);
                }
            }
            for k in 1..starts.len() {
                starts[k] += starts[k - 1];
            }
            let mut ids = vec![0u32; rows.len()];
            for (ti, t) in rows.chunks_exact(arity).enumerate() {
                for (p, &v) in t.iter().enumerate() {
                    let cursor = &mut starts[p * n_values + v as usize];
                    ids[*cursor as usize] = ti as u32;
                    *cursor += 1;
                }
            }
            starts.copy_within(..arity * n_values, 1);
            starts[0] = 0;
            PerRelation {
                n_values,
                starts,
                ids,
                occurs,
            }
        }

        fn matches(&self, pos: usize, val: Element) -> &[u32] {
            let k = pos * self.n_values + val as usize;
            &self.ids[self.starts[k] as usize..self.starts[k + 1] as usize]
        }

        fn occurs(&self, pos: usize) -> &[u64] {
            let words = self.n_values.div_ceil(64);
            &self.occurs[pos * words..(pos + 1) * words]
        }
    }

    /// Random structures of one to four relations of arities 1–3
    /// (`Vocabulary::new` refuses arity 0), on universes at the bitset
    /// word edges, some relations empty; arguments drawn from the first
    /// few elements repeat within a tuple. Every relation answers
    /// `matches` and `occurs` at every position and value as the
    /// per-relation oracle does.
    fn check_index_against_per_relation_oracle(name: &str, cases: u32) {
        use proptest::prelude::*;
        use proptest::test_runner::TestRng;
        let arities = proptest::collection::vec(1..=3usize, 1..=4);
        let strategy = (arities, 0..6usize, any::<u64>());
        let mut rng = TestRng::deterministic(name);
        for _ in 0..cases {
            let (arities, u, mut seed) = strategy.generate(&mut rng).expect("nothing is filtered");
            let universe = [1usize, 2, 5, 63, 64, 130][u];
            let names: Vec<String> = (0..arities.len()).map(|i| format!("R{i}")).collect();
            let v = Vocabulary::new(names.iter().map(String::as_str).zip(arities).collect());
            let mut next = || {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (seed >> 33) as usize
            };
            let mut b = StructureBuilder::new(v.clone(), universe);
            for rel in v.rel_ids() {
                let narrow = next() % 2 == 0;
                for _ in 0..next() % 12 {
                    let t: Vec<Element> = (0..v.arity(rel))
                        .map(|_| (next() % if narrow { 3 } else { universe }) as Element)
                        .map(|x| x.min(universe as Element - 1))
                        .collect();
                    b.add(rel, &t);
                }
            }
            let s = b.finish();
            let index = StructureIndex::build(&s);
            for rel in v.rel_ids() {
                let want = PerRelation::build(&s, rel);
                for pos in 0..v.arity(rel) {
                    assert_eq!(index.occurs(rel, pos), want.occurs(pos), "{s:?}");
                    for val in 0..universe as Element {
                        let got = index.matches(rel, pos, val);
                        assert_eq!(got, want.matches(pos, val), "{s:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn index_agrees_with_per_relation_oracle() {
        check_index_against_per_relation_oracle("index_oracle", 256);
    }

    /// The deep variant CI runs in release mode after the default suite.
    #[test]
    #[ignore = "deep: 8,192 random structures, run in release by CI"]
    fn deep_index_agrees_with_per_relation_oracle() {
        check_index_against_per_relation_oracle("deep_index_oracle", 8192);
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
        s.intersect_with(&t.words);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64]);
        assert!(!s.is_empty());
    }
}
