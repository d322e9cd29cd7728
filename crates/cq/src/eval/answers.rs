//! The answer boundary: [`Answers`], one flat sorted buffer per answer
//! set, and the row view [`AnswerRow`] its iteration hands out.
//!
//! Plans compute over dense dictionary codes in a [`FlatRelation`];
//! callers want the structure's elements, in head order, as a set.
//! [`Answers::from_relation`] is the one place that turns the first
//! into the second, and for a compiled plan it has nothing left to do
//! but decode: the plan's last operator already emits the columns in
//! head order and the rows in canonical order (it *is* the answer
//! set's one sort — see `compile_tree`), so its buffer becomes the
//! answer's, unchecked outside debug builds, and is decoded in place.
//! Gathering columns, and sorting when the gather reorders them, are
//! kept for a head that repeats a variable; nothing here allocates per
//! row.

use crate::ast::VarId;
use crate::eval::flat::{FlatRelation, MatCacheStats};
use cqapx_structures::{DomainDict, Element};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Deref;

/// One answer tuple, borrowed from an [`Answers`] buffer.
///
/// A dynamically sized view over `[Element]` (the `Path`/`str`
/// pattern) rather than a plain slice so that call sites written
/// against the former `&Vec<Element>` rows — `row.as_slice()`,
/// `row.len()`, `row[i]`, passing `row` where `&[Element]` is expected
/// — keep compiling: `[T]::as_slice` is not available on slices
/// themselves, a named row type can offer it.
#[derive(PartialEq, Eq)]
#[repr(transparent)]
pub struct AnswerRow([Element]);

impl AnswerRow {
    /// Views a slice of elements as an answer row.
    pub fn new(row: &[Element]) -> &AnswerRow {
        // SAFETY: `AnswerRow` is `#[repr(transparent)]` over
        // `[Element]`, so the two pointers have the same layout and
        // metadata; the returned reference keeps the input's lifetime
        // and shared-borrow provenance.
        unsafe { &*(row as *const [Element] as *const AnswerRow) }
    }

    /// The row's elements, in head order.
    pub fn as_slice(&self) -> &[Element] {
        &self.0
    }
}

impl Deref for AnswerRow {
    type Target = [Element];

    fn deref(&self) -> &[Element] {
        &self.0
    }
}

impl fmt::Debug for AnswerRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// An answer set `Q(D)`: `rows` tuples of `arity` elements each, in
/// head order, stored row-major in a single buffer.
///
/// **Ordering and set semantics.** Rows are strictly increasing in
/// lexicographic order — sorted and duplicate-free — which is exactly
/// the iteration order of the `BTreeSet<Vec<Element>>` this type
/// replaces, so [`Answers::iter`] and a `BTreeSet` of the same tuples
/// walk in lockstep, [`Answers::contains`] is a binary search, and
/// equality is buffer equality. Two empty sets are equal whatever
/// their arity. A Boolean query's "true" is the arity-0 set holding
/// the one empty row; "false" is the empty set.
#[derive(Clone)]
pub struct Answers {
    arity: usize,
    /// Tracked explicitly: arity-0 rows occupy no buffer space.
    rows: usize,
    data: Vec<Element>,
}

impl Answers {
    /// The empty answer set of a query with `arity` head positions.
    pub fn empty(arity: usize) -> Answers {
        Answers {
            arity,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// A Boolean query's answer: the single empty row when `holds`,
    /// no row otherwise.
    pub(crate) fn boolean(holds: bool) -> Answers {
        Answers {
            arity: 0,
            rows: usize::from(holds),
            data: Vec::new(),
        }
    }

    /// The answer boundary: reads a plan's output relation (dense
    /// codes, columns in schema order) out as the answer set for `head`
    /// (duplicate head variables allowed). The rows must be canonical
    /// (strictly increasing), as every [`PlanIr`](crate::eval::PlanIr)
    /// slot's are; debug builds check it.
    ///
    /// When the schema is the head, as a plan's output is unless the
    /// head repeats a variable, the relation's buffer becomes the
    /// answer's with no pass and no allocation. Otherwise the columns
    /// are gathered into head order and sorted only if that reordered
    /// them (counted into `stats`). Then the codes are decoded through
    /// `dict` in place: the encoding is monotone, so the rows stay
    /// strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics if a head variable is missing from the relation's schema.
    pub fn from_relation(
        rel: FlatRelation,
        head: &[VarId],
        dict: &DomainDict,
        stats: &mut MatCacheStats,
    ) -> Answers {
        if head.is_empty() {
            return Answers::boolean(!rel.is_empty());
        }
        debug_assert!(
            rel.iter_rows().is_sorted_by(|x, y| x < y),
            "the answer boundary reads canonical rows"
        );
        let (rows, mut data) = if rel.schema() == head {
            rel.into_raw()
        } else {
            let at = |v| rel.schema().iter().position(|w| w == v);
            let positions: Vec<usize> = (head.iter().map(at))
                .map(|p| p.expect("head variable must be in schema"))
                .collect();
            let mut data = Vec::with_capacity(rel.len() * positions.len());
            for row in rel.iter_rows() {
                data.extend(positions.iter().map(|&p| row[p]));
            }
            let mut out = FlatRelation::from_raw(head.len(), rel.len(), data, rel.domain_width());
            out.sort_dedup(stats);
            out.into_raw()
        };
        if !dict.is_identity() {
            for e in &mut data {
                *e = dict.decode(*e);
            }
        }
        Answers {
            arity: head.len(),
            rows,
            data,
        }
    }

    /// Number of answer tuples.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when there is no answer.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of head positions of every row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Membership by binary search over the sorted rows.
    pub fn contains(&self, row: &[Element]) -> bool {
        if row.len() != self.arity {
            return false;
        }
        if self.arity == 0 {
            return self.rows == 1;
        }
        let (mut lo, mut hi) = (0, self.rows);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.data[mid * self.arity..][..self.arity].cmp(row) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// The rows in increasing lexicographic order.
    pub fn iter(&self) -> AnswersIter<'_> {
        AnswersIter {
            arity: self.arity,
            remaining: self.rows,
            rest: &self.data,
        }
    }

    /// The same set as an owned tree of row vectors — the bridge to
    /// the naive oracle's representation and to callers that want
    /// per-row ownership. Allocates once per row; nothing on the
    /// engine's serving path calls it.
    pub fn to_btree_set(&self) -> BTreeSet<Vec<Element>> {
        self.iter().map(|r| r.to_vec()).collect()
    }
}

impl fmt::Debug for Answers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl PartialEq for Answers {
    fn eq(&self, other: &Answers) -> bool {
        // Equal row counts over equal buffers force equal arities,
        // except between empty sets — which are equal as sets.
        self.rows == other.rows && self.data == other.data
    }
}

impl Eq for Answers {}

impl PartialEq<BTreeSet<Vec<Element>>> for Answers {
    fn eq(&self, other: &BTreeSet<Vec<Element>>) -> bool {
        self.rows == other.len()
            && self
                .iter()
                .zip(other)
                .all(|(mine, theirs)| mine.as_slice() == theirs.as_slice())
    }
}

impl PartialEq<Answers> for BTreeSet<Vec<Element>> {
    fn eq(&self, other: &Answers) -> bool {
        other == self
    }
}

impl From<BTreeSet<Vec<Element>>> for Answers {
    /// Flattens a tree of equal-length rows; the tree's order is the
    /// canonical order already.
    fn from(set: BTreeSet<Vec<Element>>) -> Answers {
        let arity = set.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(set.len() * arity);
        for row in &set {
            assert_eq!(row.len(), arity, "answer rows must share one arity");
            data.extend_from_slice(row);
        }
        Answers {
            arity,
            rows: set.len(),
            data,
        }
    }
}

impl<'a> IntoIterator for &'a Answers {
    type Item = &'a AnswerRow;
    type IntoIter = AnswersIter<'a>;

    fn into_iter(self) -> AnswersIter<'a> {
        self.iter()
    }
}

/// Iterator over the rows of an [`Answers`] set, in order. Counts rows
/// rather than chunking the buffer, so the single empty row of a true
/// Boolean answer is yielded once.
#[derive(Debug, Clone)]
pub struct AnswersIter<'a> {
    arity: usize,
    remaining: usize,
    rest: &'a [Element],
}

impl<'a> Iterator for AnswersIter<'a> {
    type Item = &'a AnswerRow;

    fn next(&mut self) -> Option<&'a AnswerRow> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (row, rest) = self.rest.split_at(self.arity);
        self.rest = rest;
        Some(AnswerRow::new(row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for AnswersIter<'_> {}

/// Accumulates answer tuples that arrive unordered and possibly
/// repeated — one per homomorphism out of the naive search, or whole
/// [`Answers`] sets being unioned — in one flat buffer, and
/// canonicalizes once in [`AnswersBuilder::finish`].
#[derive(Debug)]
pub struct AnswersBuilder {
    flat: FlatRelation,
    /// `true` while the buffer is known sorted and duplicate-free
    /// (empty, or exactly one adopted [`Answers`]).
    canonical: bool,
    /// Row count at which a streaming push re-dedups.
    dedup_at: usize,
}

/// Streamed rows re-dedup whenever the buffer doubles past this many
/// rows: the naive search emits a tuple per homomorphism, possibly far
/// more than there are distinct answers, and peak memory should follow
/// the answer set.
const STREAM_DEDUP_ROWS: usize = 1024;

impl AnswersBuilder {
    /// A builder for tuples of `arity` elements, all `< width` (`0` =
    /// no known bound; a bound lets canonicalization radix-sort packed
    /// rows instead of comparing them).
    pub fn new(arity: usize, width: u32) -> AnswersBuilder {
        AnswersBuilder {
            flat: FlatRelation::from_raw(arity, 0, Vec::new(), width),
            canonical: true,
            dedup_at: STREAM_DEDUP_ROWS,
        }
    }

    /// Appends one tuple.
    pub fn push_row(&mut self, row: &[Element]) {
        self.flat.push_row(row);
        self.canonical = false;
        if self.flat.len() >= self.dedup_at {
            self.canonicalize();
            self.dedup_at = (self.flat.len() * 2).max(STREAM_DEDUP_ROWS);
        }
    }

    /// Unions a whole answer set in: the first one is adopted buffer
    /// and all, later ones are appended for the final sort.
    pub fn append(&mut self, answers: Answers) {
        assert_eq!(answers.arity, self.flat.arity(), "answer arity mismatch");
        if answers.is_empty() {
            return;
        }
        if self.flat.is_empty() {
            let width = self.flat.domain_width();
            self.flat = FlatRelation::from_raw(answers.arity, answers.rows, answers.data, width);
            self.canonical = true;
            return;
        }
        self.flat.extend_raw(answers.rows, &answers.data);
        self.canonical = false;
    }

    fn canonicalize(&mut self) {
        self.flat.sort_dedup(&mut MatCacheStats::default());
        self.canonical = true;
    }

    /// The buffered tuples as a set.
    pub fn finish(mut self) -> Answers {
        if !self.canonical {
            self.canonicalize();
        }
        let arity = self.flat.arity();
        let (rows, data) = self.flat.into_raw();
        Answers { arity, rows, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(rows: &[&[Element]]) -> BTreeSet<Vec<Element>> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    /// The one `unsafe` cast of the workspace's answer path, small
    /// enough for Miri: the view aliases the slice, keeps its length,
    /// and round-trips through both accessors, at arity 0 included.
    #[test]
    fn answer_row_views_the_slice_it_was_given() {
        let data: Vec<Element> = vec![7, 8, 9];
        let row = AnswerRow::new(&data);
        assert_eq!(row.as_slice(), &[7, 8, 9]);
        assert_eq!(row.len(), 3);
        assert_eq!(row[1], 8);
        assert!(std::ptr::eq(row.as_slice().as_ptr(), data.as_ptr()));
        assert_eq!(format!("{row:?}"), "[7, 8, 9]");
        let empty = AnswerRow::new(&data[3..]);
        assert!(empty.is_empty());
        assert_eq!(empty.as_slice(), &[] as &[Element]);
    }

    #[test]
    fn boolean_true_iterates_its_empty_row_once() {
        let yes = Answers::boolean(true);
        assert_eq!((yes.len(), yes.arity()), (1, 0));
        let rows: Vec<&AnswerRow> = yes.iter().collect();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].is_empty());
        assert!(yes.contains(&[]));
        assert!(!yes.contains(&[0]));
        assert_eq!(yes, set(&[&[]]));
        assert_eq!(yes.to_btree_set(), set(&[&[]]));
        assert_eq!(Answers::from(set(&[&[]])), yes);

        let no = Answers::boolean(false);
        assert!(no.is_empty());
        assert_eq!(no.iter().count(), 0);
        assert!(!no.contains(&[]));
        assert_eq!(no, BTreeSet::new());
    }

    #[test]
    fn bridges_agree_with_the_tree() {
        let tree = set(&[&[0, 5], &[0, 7], &[2, 1], &[9, 9]]);
        let answers = Answers::from(tree.clone());
        assert_eq!(answers, tree);
        assert_eq!(tree, answers);
        assert_eq!(answers.to_btree_set(), tree);
        assert_eq!(answers.iter().len(), 4);
        assert!(answers
            .iter()
            .zip(&tree)
            .all(|(a, b)| a.as_slice() == b.as_slice()));
        for row in &tree {
            assert!(answers.contains(row));
        }
        for miss in [&[0, 6][..], &[1, 0], &[9, 10], &[0], &[0, 5, 0]] {
            assert!(!answers.contains(miss), "{miss:?}");
        }
        assert_ne!(answers, set(&[&[0, 5], &[0, 7], &[2, 1], &[9, 8]]));
        assert_ne!(answers, set(&[&[0, 5]]));
        // Empty sets are equal whatever arity they were declared with.
        assert_eq!(Answers::empty(2), Answers::empty(3));
        assert_eq!(Answers::empty(2), BTreeSet::new());
    }

    fn canonical_pairs() -> FlatRelation {
        let mut rel = FlatRelation::empty(vec![0, 1]);
        for row in [[0, 5], [0, 7], [2, 1], [9, 9]] {
            rel.push_row(&row);
        }
        rel
    }

    fn identity() -> DomainDict {
        DomainDict::build(&cqapx_structures::Structure::digraph(0, &[]))
    }

    /// A head in schema order takes the relation's buffer as it is; a
    /// permuted or repeated one is gathered, and the answer is the set
    /// of gathered rows whether or not the gather reordered columns.
    #[test]
    fn boundary_gathers_permuted_and_repeated_heads() {
        let rows: Vec<Vec<Element>> = canonical_pairs().iter_rows().map(<[_]>::to_vec).collect();
        for head in [&[0, 1][..], &[1, 0], &[0, 0, 1], &[1, 0, 1], &[1]] {
            let want: BTreeSet<Vec<Element>> = (rows.iter())
                .map(|r| head.iter().map(|&v| r[v as usize]).collect())
                .collect();
            let mut stats = MatCacheStats::default();
            let got = Answers::from_relation(canonical_pairs(), head, &identity(), &mut stats);
            assert_eq!(got, want, "{head:?}");
        }
    }

    /// The boundary trusts its input's order outside debug builds, and
    /// checks it inside them.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "canonical rows")]
    fn boundary_rejects_rows_out_of_order() {
        let mut rel = FlatRelation::empty(vec![0, 1]);
        rel.push_row(&[2, 1]);
        rel.push_row(&[0, 5]);
        Answers::from_relation(rel, &[0, 1], &identity(), &mut MatCacheStats::default());
    }

    #[test]
    fn builder_dedups_streams_and_unions() {
        let mut b = AnswersBuilder::new(2, 0);
        for i in (0..5000u32).rev() {
            b.push_row(&[i % 7, i % 3]);
        }
        let streamed = b.finish();
        assert_eq!(streamed.len(), 21);

        let left = Answers::from(set(&[&[1, 1], &[2, 2], &[3, 3]]));
        let right = Answers::from(set(&[&[0, 9], &[2, 2], &[4, 0]]));
        for width in [0, 10] {
            let mut u = AnswersBuilder::new(2, width);
            u.append(Answers::empty(2));
            u.append(left.clone());
            u.append(right.clone());
            u.append(left.clone());
            assert_eq!(
                u.finish(),
                set(&[&[0, 9], &[1, 1], &[2, 2], &[3, 3], &[4, 0]])
            );
        }
        let mut solo = AnswersBuilder::new(2, 0);
        solo.append(left.clone());
        assert_eq!(solo.finish(), left);
        assert_eq!(AnswersBuilder::new(3, 0).finish(), Answers::empty(3));
    }
}
