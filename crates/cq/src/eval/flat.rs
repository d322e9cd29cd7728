//! The columnar join kernel: flat row-buffer relations and the
//! compile-once machinery ([`AtomBinder`], `MatKey`,
//! [`MaterializationCache`]) the Yannakakis pipeline runs on. Binders
//! and keys are written into their plan's word buffer; the cache owns
//! a copy of a key only once it inserts it, and looks keys up by their
//! borrowed words.
//!
//! The seed pipeline kept relations as `HashSet<Vec<Element>>`: every
//! semijoin/join/projection allocated a fresh key `Vec` per row and paid
//! a SipHash pass over it. A [`FlatRelation`] instead stores all rows in
//! **one contiguous buffer** (`rows × arity` elements, row-major);
//! duplicate elimination is a lexicographic sort + dedup rather than
//! per-row set insertion, a projection gathers its columns in row order
//! and canonicalizes once, and a semijoin leaves the relation as it is
//! when every row survives. No operator builds a key index: every join
//! — a bag, a tree node with any number of children, a semijoin a
//! column bitmap cannot answer — is one call of the trie kernel below.
//! Rows that landed in a [`MaterializationCache`] are shared, not
//! copied, by every plan slot that adopts them (see
//! `FlatRelation::relabel`).
//!
//! Layout of a relation over schema `(x, y)` with rows `(1,2)`, `(3,4)`:
//!
//! ```text
//! schema:  x  y            data: [1, 2, 3, 4]
//! row 0 →  1  2                   ^--^  row 0 (offset 0·arity)
//! row 1 →  3  4                         ^--^  row 1 (offset 1·arity)
//! ```
//!
//! A canonical relation (rows sorted, duplicate-free) is also a
//! *trie*: rows sharing a prefix are contiguous and the next column is
//! sorted within them. The one join kernel, `multiway_join`, joins the
//! parts of a decomposition bag, a tree node with its children's
//! partials — one child or several — or a semijoin's target with its
//! filter by walking such tries with cursors, variable by variable, in
//! an order it picks from the part schemas and the list of variables to
//! keep, and writes the kept columns in canonical form — at the exact
//! size when the last variable is kept and has a single part, and
//! without looking past the first witness for variables that are not.

use crate::ast::{Atom, VarId};
use crate::eval::answers::Answers;
use crate::eval::flight::{lru, Flight, Ledger};
use crate::eval::ir::Span;
use cqapx_structures::fxhash::FxHashMap;
use cqapx_structures::packed::{radix_dedup, radix_dedup_u32};
use cqapx_structures::{DomainBitmap, DomainDict, Element, RelId, Structure};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

static BITMAP_PROBES: AtomicU64 = AtomicU64::new(0);
static PACKED_ROWS: AtomicU64 = AtomicU64::new(0);

/// What [`MatCacheStats::bitmap_probes`] counts per run, summed over
/// the process: the frozen `cqbench`'s view, read for
/// `flat.bitmap_probes` until that metric reads an engine's own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitmapStats {
    /// Kernel dispatches (semijoins, sweeps) that ran on bitmaps
    /// instead of the join kernel.
    pub probes: u64,
}

/// The current process-wide bitmap counter.
pub fn bitmap_stats() -> BitmapStats {
    BitmapStats {
        probes: BITMAP_PROBES.load(Ordering::Relaxed),
    }
}

/// What [`MatCacheStats::packed_rows`] counts per run, summed over the
/// process: `cqbench`'s `flat.packed_rows`, like [`BitmapStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedStats {
    /// Rows sorted as code words.
    pub rows: u64,
}

/// The current process-wide packed-sort counter.
pub fn packed_stats() -> PackedStats {
    PackedStats {
        rows: PACKED_ROWS.load(Ordering::Relaxed),
    }
}

/// The per-column existence bitmaps of one relation, each built by its
/// first reader and shared by clones through an `Arc` (the
/// [`cqapx_structures::dict`] `DictCell` pattern). Derived data:
/// invisible to the relation's logical value, rebuilt from scratch
/// after any mutation.
#[derive(Debug)]
struct ColumnBitmaps(Vec<OnceLock<DomainBitmap>>);

/// The clone-shared slot holding a relation's [`ColumnBitmaps`].
/// Mutating operations replace the whole cell with a fresh one
/// (clones keep the old, still-valid bitmaps); `relabel` and `clone`
/// share it — same rows, same bitmaps.
#[derive(Debug, Default, Clone)]
struct BitmapCell(OnceLock<Arc<ColumnBitmaps>>);

/// Bits covering every dense code under a width bound: codes are
/// `< width ≤ 2^b`.
fn code_bits(width: u32) -> u32 {
    match width {
        0 | 1 => 0,
        w => 32 - (w - 1).leading_zeros(),
    }
}

/// Inverse of the tight row packing: refills `out` with the `arity`
/// columns of every word, `b ≤ 32` bits apiece, first column highest.
fn unpack_words(
    words: impl ExactSizeIterator<Item = u64>,
    arity: usize,
    b: u32,
    out: &mut Vec<Element>,
) {
    let mask = (1u64 << b) - 1;
    out.clear();
    out.reserve(words.len() * arity);
    for w in words {
        for col in (0..arity as u32).rev() {
            out.push(((w >> (col * b)) & mask) as Element);
        }
    }
}

/// [`unpack_words`] of `u32` words in place: `buf` holds the words and
/// grows to their rows (within its capacity when that was reserved).
/// Word `i` unpacks to positions `i · arity ..`, at or past `i`, so
/// going from the last word down overwrites only words already read.
fn unpack_words_in_place(buf: &mut Vec<u32>, arity: usize, b: u32) {
    let (n, mask) = (buf.len(), ((1u64 << b) - 1) as u32);
    buf.resize(n * arity, 0);
    for i in (0..n).rev() {
        let w = buf[i];
        for (col, to) in buf[i * arity..][..arity].iter_mut().rev().enumerate() {
            *to = (w >> (col as u32 * b)) & mask;
        }
    }
}

/// Row storage of a [`FlatRelation`]: a plain owned buffer, or the
/// bytes of a [`MaterializationCache`] entry shared by every plan slot
/// that adopted it (clone and `FlatRelation::relabel` are then O(1)).
/// Reads deref to the buffer either way; writers ask for
/// [`Rows::make_mut`] once, outside their row loops, and only then is
/// a shared buffer copied.
#[derive(Debug, Clone)]
enum Rows {
    Owned(Vec<Element>),
    Shared(Arc<Vec<Element>>),
}

impl std::ops::Deref for Rows {
    type Target = Vec<Element>;
    fn deref(&self) -> &Vec<Element> {
        match self {
            Rows::Owned(v) => v,
            Rows::Shared(a) => a,
        }
    }
}

impl Rows {
    /// The buffer for in-place mutation (copy-on-write when shared).
    fn make_mut(&mut self) -> &mut Vec<Element> {
        if let Rows::Shared(a) = self {
            *self = Rows::Owned(a.to_vec());
        }
        match self {
            Rows::Owned(v) => v,
            Rows::Shared(_) => unreachable!("just made owned"),
        }
    }

    /// The buffer for overwriting: an owned allocation is handed out
    /// for reuse, shared bytes are left to their other holders.
    fn take_scratch(&mut self) -> Vec<Element> {
        match std::mem::replace(self, Rows::Owned(Vec::new())) {
            Rows::Owned(v) => v,
            Rows::Shared(_) => Vec::new(),
        }
    }
}

/// A relation over distinct variables, stored columnar-flat: one
/// contiguous row-major buffer instead of a hash set of row vectors.
///
/// Invariants: `data.len() == rows * schema.len()`; the schema lists
/// distinct variables. Operations that can produce duplicate rows
/// (`FlatRelation::push_row`, `FlatRelation::project`) are paired
/// with [`FlatRelation::sort_dedup`]; the plan-level operations
/// (materialization, semijoin, join) keep relations duplicate-free.
#[derive(Debug, Clone)]
pub struct FlatRelation {
    /// Distinct variables labelling the columns.
    schema: Vec<VarId>,
    /// Number of rows (tracked explicitly so 0-ary relations — Boolean
    /// intermediates — still distinguish "no row" from "one empty row").
    rows: usize,
    /// Row-major buffer of `rows * schema.len()` elements.
    data: Rows,
    /// Dense-domain guarantee: when nonzero, every element of `data` is
    /// `< domain_width` (the snapshot dictionary's code count). `0`
    /// means "no guarantee": no offsets arrays, bitmaps or code words
    /// over it. Relations
    /// materialized from a [`Structure`] carry the dictionary width;
    /// operators propagate it conservatively.
    domain_width: u32,
    /// Per-column existence bitmaps, built by their first readers (see
    /// [`BitmapCell`]). Invalidated by every mutating operation.
    bitmaps: BitmapCell,
}

impl FlatRelation {
    /// An empty relation over a schema of distinct variables.
    pub fn empty(schema: Vec<VarId>) -> Self {
        FlatRelation {
            schema,
            rows: 0,
            data: Rows::Owned(Vec::new()),
            domain_width: 0,
            bitmaps: BitmapCell::default(),
        }
    }

    /// The 0-ary relation holding the single empty row — the join
    /// identity ("true"). Joining against it is a no-op; semijoining
    /// against it keeps every row.
    pub(crate) fn unit() -> Self {
        FlatRelation {
            schema: Vec::new(),
            rows: 1,
            data: Rows::Owned(Vec::new()),
            domain_width: 0,
            bitmaps: BitmapCell::default(),
        }
    }

    /// A relation over positional columns `0..arity` wrapping a raw
    /// row-major buffer whose elements are all `< domain_width` (`0` =
    /// no bound) — how the answer boundary borrows the kernel's
    /// canonicalization for head-ordered rows.
    pub(crate) fn from_raw(
        arity: usize,
        rows: usize,
        data: Vec<Element>,
        domain_width: u32,
    ) -> Self {
        debug_assert_eq!(data.len(), rows * arity, "buffer must hold rows × arity");
        FlatRelation {
            schema: (0..arity as VarId).collect(),
            rows,
            data: Rows::Owned(data),
            domain_width,
            bitmaps: BitmapCell::default(),
        }
    }

    /// The one-column relation over `var` holding `codes`, which must be
    /// ascending and distinct (canonical) and `< domain_width`.
    pub(crate) fn from_codes(var: VarId, codes: Vec<Element>, domain_width: u32) -> Self {
        debug_assert!(codes.is_sorted_by(|a, b| a < b), "canonical codes");
        FlatRelation {
            schema: vec![var],
            rows: codes.len(),
            data: Rows::Owned(codes),
            domain_width,
            bitmaps: BitmapCell::default(),
        }
    }

    /// The row count and the row-major buffer (copied out if it is
    /// shared), schema dropped.
    pub(crate) fn into_raw(mut self) -> (usize, Vec<Element>) {
        (self.rows, std::mem::take(self.data.make_mut()))
    }

    /// Appends `rows` rows given as one row-major slice. May introduce
    /// duplicates, like [`FlatRelation::push_row`].
    pub(crate) fn extend_raw(&mut self, rows: usize, data: &[Element]) {
        debug_assert_eq!(data.len(), rows * self.schema.len(), "row arity mismatch");
        self.data.make_mut().extend_from_slice(data);
        self.rows += rows;
        self.invalidate_bitmaps();
    }

    /// The dense-domain bound of this relation's elements (`0` = none).
    pub fn domain_width(&self) -> u32 {
        self.domain_width
    }

    /// Heap bytes of this relation (buffer + schema + the word table of
    /// every eligible column, built or not), the unit of cache byte
    /// accounting. The tables are charged whether or not a run ever
    /// builds them, so the bytes stored with a cache entry — and
    /// subtracted at eviction — do not depend on which columns were
    /// read. A shared buffer counts in full for every holder: the
    /// cache charges an entry once, at landing, and the slots that
    /// adopt it are never charged.
    pub(crate) fn heap_bytes(&self) -> usize {
        let words = self.arity() * (self.domain_width as usize).div_ceil(64);
        let tables = if self.bitmap_eligible() { words } else { 0 };
        self.data.capacity() * std::mem::size_of::<Element>()
            + self.schema.capacity() * std::mem::size_of::<VarId>()
            + tables * std::mem::size_of::<u64>()
    }

    /// Whether column bitmaps may be built over this relation: the
    /// dense bound is known and the word table stays within ~8 bytes
    /// per row (beyond that the bitmap is mostly empty words and a
    /// sorted search is cheaper per cache line). A pure function of the
    /// relation, so every kernel dispatch agrees on eligibility. An
    /// eligible column's bitmap is read wherever a kernel dispatch can
    /// use it, and built by its first reader: answering every semijoin
    /// with the multiway kernel instead took `cqbench`'s
    /// `bool_probe_warm` p50 from 0.34 to 5.37 ms.
    fn bitmap_eligible(&self) -> bool {
        self.domain_width > 0 && (self.domain_width as usize) <= 64 * self.rows.max(16)
    }

    /// Whether [`FlatRelation::sort_dedup`] takes the packed radix
    /// path: every row packs into one `u64` code word. Legal only when
    /// the dense-domain bound's bit width `b` gives `arity · b ≤ 64` —
    /// wider rows do not fit a word, and without `domain_width > 0` the
    /// radix passes lose their bounded digits (see
    /// `cqapx_structures::packed`). A pure function of the relation, so
    /// every dispatch site agrees. Legal rows are always packed, at any
    /// row count: against radix sorts from 512 rows only, every
    /// `cqbench` workload and metric stayed within bound, and with no
    /// radix sorts `free_big_answers` was 51 % and `cyclic_bags_cold`
    /// 28 % slower.
    fn packed_sort_wanted(&self) -> bool {
        let a = self.schema.len();
        self.domain_width > 0 && a > 0 && a * code_bits(self.domain_width) as usize <= 64
    }

    /// The relation's per-column bitmap container, created empty on
    /// first use.
    fn column_bitmaps(&self) -> &ColumnBitmaps {
        let new = || ColumnBitmaps((0..self.arity()).map(|_| OnceLock::new()).collect());
        self.bitmaps.0.get_or_init(|| Arc::new(new()))
    }

    /// The existence bitmap of one column, built by its first reader in
    /// one pass over the rows (codes at or above `domain_width` are
    /// ignored) and shared by clones and relabels. `None` when the
    /// relation is ineligible — callers fall back to the multiway
    /// kernel, which answers identically.
    pub(crate) fn column_bitmap(&self, col: usize) -> Option<&DomainBitmap> {
        if !self.bitmap_eligible() {
            return None;
        }
        let bm = self.column_bitmaps().0[col].get_or_init(|| {
            let width = self.domain_width;
            let mut words = vec![0u64; (width as usize).div_ceil(64)];
            for row in self.data.chunks_exact(self.arity()) {
                let v = row[col];
                if v < width {
                    words[(v >> 6) as usize] |= 1 << (v & 63);
                }
            }
            DomainBitmap::from_words(width, words)
        });
        Some(bm)
    }

    /// The column labels.
    pub fn schema(&self) -> &[VarId] {
        &self.schema
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Drops all rows.
    pub(crate) fn clear(&mut self) {
        self.rows = 0;
        let mut data = self.data.take_scratch();
        data.clear();
        self.data = Rows::Owned(data);
        self.invalidate_bitmaps();
    }

    /// Replaces the bitmap cell after a mutation. Clones made before
    /// the mutation keep the old (still-valid-for-them) bitmaps.
    fn invalidate_bitmaps(&mut self) {
        if self.bitmaps.0.get().is_some() {
            self.bitmaps = BitmapCell::default();
        }
    }

    /// The row-major buffer: `len() · arity()` elements.
    pub(crate) fn data(&self) -> &[Element] {
        &self.data
    }

    /// Iterates the rows (empty slices for 0-ary relations).
    pub fn iter_rows(&self) -> impl Iterator<Item = &[Element]> {
        let a = self.schema.len();
        (0..self.rows).map(move |i| &self.data[i * a..(i + 1) * a])
    }

    /// Appends a row (must match the arity). May introduce duplicates;
    /// call [`FlatRelation::sort_dedup`] to normalize.
    pub(crate) fn push_row(&mut self, row: &[Element]) {
        debug_assert_eq!(row.len(), self.schema.len(), "row arity mismatch");
        self.data.make_mut().extend_from_slice(row);
        self.rows += 1;
        self.invalidate_bitmaps();
    }

    /// The same rows under different column labels (`schema` must have
    /// the original arity). This is how cached materializations —
    /// stored under canonical labels — are adopted into a plan's
    /// variable space: cache entries hold shared rows, so adoption is
    /// a new schema over the *same bytes* and the same bitmaps, O(1)
    /// whatever the row count (an owned buffer is copied).
    pub(crate) fn relabel(&self, schema: Vec<VarId>) -> FlatRelation {
        assert_eq!(schema.len(), self.schema.len(), "relabel arity mismatch");
        FlatRelation {
            schema,
            rows: self.rows,
            data: self.data.clone(),
            domain_width: self.domain_width,
            // Same rows, same bitmaps: relabeling shares the cell.
            bitmaps: self.bitmaps.clone(),
        }
    }

    /// Moves the row buffer behind an `Arc` (no copy; nothing to do
    /// when it already is) so that clones and relabels share it. The
    /// cache does this at landing and the plan interpreter for an
    /// identity projection; every other buffer stays plainly owned.
    pub(crate) fn share_rows(&mut self) {
        if let Rows::Owned(v) = &mut self.data {
            self.data = Rows::Shared(Arc::new(std::mem::take(v)));
        }
    }

    /// Whether both relations read the same shared row bytes.
    #[cfg(test)]
    pub(crate) fn shares_rows_with(&self, other: &FlatRelation) -> bool {
        match (&self.data, &other.data) {
            (Rows::Shared(a), Rows::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Sorts rows lexicographically and removes duplicates, leaving the
    /// canonical form all set-level comparisons rely on, its packed
    /// sorts counted into `stats`. Nothing beyond one sequential pass
    /// when the rows already are canonical (scans, cache entries, kernel
    /// outputs and a plan's head-ordered root are) — whichever arm would
    /// have run, and a shared buffer stays shared.
    ///
    /// When the rows pack into single `u64` code words
    /// (`packed_sort_wanted`: `arity · b ≤ 64` over a `b`-bit dense
    /// domain) they are sorted by an LSB **radix sort** over the words.
    /// Packing is monotone — numeric word order is lexicographic row
    /// order — so this is bit-identical to a comparison sort, while a
    /// relation of `n` dense codes sorts in `O(n · passes)` with at most
    /// four byte passes under 64 K codes. Rows with no width bound, or
    /// too wide for a word, take the comparison sort.
    ///
    /// Built bitmaps stay valid across this call: reordering rows and
    /// dropping whole-row duplicates never changes a column's value
    /// *set*, which is all a bitmap records.
    pub fn sort_dedup(&mut self, stats: &mut MatCacheStats) {
        let a = self.schema.len();
        if a == 0 {
            self.rows = self.rows.min(1);
            return;
        }
        if self.data.chunks_exact(a).is_sorted_by(|x, y| x < y) {
            return;
        }
        if self.packed_sort_wanted() {
            return self.sort_dedup_radix(stats);
        }
        self.sort_dedup_cmp()
    }

    /// Drops repeated rows from a buffer that is sorted but for them,
    /// in place.
    fn dedup_sorted(&mut self) {
        let a = self.schema.len();
        if a == 0 || self.rows < 2 {
            self.rows = self.rows.min(1);
            return;
        }
        let data = self.data.make_mut();
        if a == 1 {
            data.dedup();
            self.rows = data.len();
            return;
        }
        let mut kept = 1;
        for i in 1..self.rows {
            if data[i * a..][..a] != data[(kept - 1) * a..][..a] {
                data.copy_within(i * a..(i + 1) * a, kept * a);
                kept += 1;
            }
        }
        data.truncate(kept * a);
        self.rows = kept;
    }

    /// The packed radix arm of [`FlatRelation::sort_dedup`]:
    /// pack → radix sort → word dedup → unpack. Injectivity of the
    /// packing makes word equality row equality, so the dedup is a
    /// word compare per adjacent pair.
    ///
    /// Words are packed **tightly**: with `b` bits covering the dense
    /// bound, a row becomes its columns concatenated `b` bits apiece,
    /// first column highest — monotone for any `b` with every code
    /// `< 2^b` — occupying `arity · b` bits. Rows whose tight word fits
    /// 32 bits (and all
    /// single columns) sort as `u32` keys: half the memory traffic per
    /// pass and at most half the passes of the wide encoding.
    fn sort_dedup_radix(&mut self, stats: &mut MatCacheStats) {
        let a = self.schema.len();
        stats.note_packed(self.rows);
        if a == 1 {
            radix_dedup_u32(self.data.make_mut());
            self.rows = self.data.len();
            return;
        }
        let b = code_bits(self.domain_width);
        debug_assert!(a * b as usize <= 64, "only word-packable rows");
        if a * b as usize <= 32 {
            let mut keys = self.build_words32(b);
            radix_dedup_u32(&mut keys);
            self.refill(keys.iter().map(|&k| u64::from(k)), b);
        } else {
            let mut keys = self.build_words64(b);
            radix_dedup(&mut keys);
            self.refill(keys.iter().copied(), b);
        }
    }

    /// Replaces the rows by the unpacked `words` (`b` bits a column),
    /// reusing an owned buffer and leaving a shared one alone.
    fn refill(&mut self, words: impl ExactSizeIterator<Item = u64>, b: u32) {
        self.rows = words.len();
        let mut data = self.data.take_scratch();
        unpack_words(words, self.schema.len(), b, &mut data);
        self.data = Rows::Owned(data);
    }

    /// Packs every row into a tight `u32` word at per-column bit
    /// width `b` (caller guarantees arity ≥ 2 and `arity · b ≤ 32`).
    fn build_words32(&self, b: u32) -> Vec<u32> {
        self.data
            .chunks_exact(self.schema.len())
            .map(|row| row.iter().fold(0, |w, &c| (w << b) | c))
            .collect()
    }

    /// [`FlatRelation::build_words32`] widened to `u64` words
    /// (`arity · b ≤ 64`).
    fn build_words64(&self, b: u32) -> Vec<u64> {
        self.data
            .chunks_exact(self.schema.len())
            .map(|row| row.iter().fold(0, |w, &c| (w << b) | u64::from(c)))
            .collect()
    }

    /// The comparison arm of [`FlatRelation::sort_dedup`], for rows no
    /// word holds: an index sort, then one gather into a fresh buffer.
    fn sort_dedup_cmp(&mut self) {
        let a = self.schema.len();
        let data = &self.data;
        let mut idx: Vec<u32> = (0..self.rows as u32).collect();
        idx.sort_unstable_by(|&x, &y| {
            let (x, y) = (x as usize * a, y as usize * a);
            data[x..x + a].cmp(&data[y..y + a])
        });
        idx.dedup_by(|&mut x, &mut y| {
            let (x, y) = (x as usize * a, y as usize * a);
            data[x..x + a] == data[y..y + a]
        });
        let mut out = Vec::with_capacity(idx.len() * a);
        for &i in &idx {
            out.extend_from_slice(&data[i as usize * a..][..a]);
        }
        self.rows = idx.len();
        self.data = Rows::Owned(out);
    }

    /// Semijoin `self ⋉ other` on aligned key columns: keeps the rows of
    /// `self` whose `my_pos` columns match some row of `other` on its
    /// `their_pos` columns (distinct positions on each side), its kernel
    /// work counted into `stats`. With empty key positions this is the
    /// cartesian-semantics degenerate case: all rows survive iff `other`
    /// is nonempty. Both operands must be canonical (rows sorted in
    /// their own column order, duplicate-free), as every plan slot is.
    /// Two arms, one survivor set in one order:
    ///
    /// * a single-column key against a source with a column bitmap
    ///   (`bitmap_eligible`) — the bitmap answers "does my code occur
    ///   in the other column?" for each row (`retain_where`);
    /// * anything else — the multiway kernel over `self` and `π_K(other)`
    ///   keeping every column of `self`. `π_K(other)` lists the key in
    ///   `self`'s column order under `self`'s variables, so the kernel
    ///   reads both in their own column order and writes the survivors
    ///   canonical, which is `self`'s order.
    ///
    /// When every row survives nothing changes: rows, order, bitmaps
    /// and sharing all stay. `self` keeps its own width bound.
    pub(crate) fn semijoin_on(
        &mut self,
        my_pos: &[u32],
        other: &FlatRelation,
        their_pos: &[u32],
        stats: &mut MatCacheStats,
    ) {
        debug_assert_eq!(my_pos.len(), their_pos.len(), "key positions must align");
        let canonical = |r: &FlatRelation| r.iter_rows().is_sorted_by(|x, y| x < y);
        debug_assert!(
            canonical(self) && canonical(other),
            "operands must be canonical"
        );
        if my_pos.is_empty() {
            if other.is_empty() {
                self.clear();
            }
            return;
        }
        if my_pos.len() == 1 {
            if let Some(bm) = other.column_bitmap(their_pos[0] as usize) {
                stats.note_bitmap_probe();
                let c = my_pos[0] as usize;
                return self.retain_where(|row| bm.contains(row[c]));
            }
        }
        let mut key: Vec<(&u32, &u32)> = std::iter::zip(my_pos, their_pos).collect();
        key.sort_unstable();
        let theirs: Vec<VarId> = key
            .iter()
            .map(|&(_, &j)| other.schema[j as usize])
            .collect();
        let mut filter = other.project(&theirs, stats);
        let distinct = key.windows(2).all(|w| w[0].0 < w[1].0) && filter.schema.len() == key.len();
        debug_assert!(distinct, "key positions must be distinct on each side");
        filter.schema = key.iter().map(|&(&i, _)| self.schema[i as usize]).collect();
        let parts = [&*self, &filter].into_iter();
        let kept = multiway_join(parts, &self.schema, stats);
        if kept.rows < self.rows {
            self.rows = kept.rows;
            self.data = kept.data;
            self.invalidate_bitmaps();
        }
    }

    /// Keeps the rows that pass `hit`, in order. Rows are tested
    /// **branch-free** into a selection vector (an unconditional store
    /// plus a 0/1 index bump).
    ///
    /// What is stored depends on the buffer, decided once, outside the
    /// row loop: row indices for an owned buffer, which is then
    /// compacted in place; the rows themselves for a buffer shared with
    /// a cache entry, which is left alone — the selection vector *is*
    /// the fresh buffer (one gather, no index pass). When every row
    /// survives nothing changes — rows, order, bitmaps and sharing
    /// all stay (on fully-reducing data, i.e. the second sweep of every
    /// join tree, that is most semijoins). Either way the call makes
    /// the same allocations whether or not a row is removed: a request
    /// costs the same on a database with one dangling tuple as on one
    /// with none.
    fn retain_where(&mut self, hit: impl Fn(&[Element]) -> bool) {
        let a = self.schema.len();
        let shared = matches!(self.data, Rows::Shared(_));
        // Elements stored per survivor.
        let w = if shared { a } else { 1 };
        let mut keep: Vec<Element> = vec![0; self.rows * w];
        let mut n = 0usize;
        for (i, row) in self.data.chunks_exact(a).enumerate() {
            if shared {
                keep[n * a..(n + 1) * a].copy_from_slice(row);
            } else {
                keep[n] = i as Element;
            }
            n += hit(row) as usize;
        }
        if n == self.rows {
            return;
        }
        keep.truncate(n * w);
        match &mut self.data {
            Rows::Owned(data) => {
                for (to, &i) in keep.iter().enumerate() {
                    let i = i as usize * a;
                    data.copy_within(i..i + a, to * a);
                }
                data.truncate(n * a);
            }
            Rows::Shared(_) => self.data = Rows::Owned(keep),
        }
        self.rows = n;
        self.invalidate_bitmaps();
    }

    /// Projection of a canonical relation (rows sorted, duplicate-free,
    /// as every plan slot is) onto a sub-schema (variables must be
    /// present; duplicates collapse to their first occurrence), its
    /// sort counted into `stats`: the kept
    /// columns gathered in this relation's own row order, then
    /// canonicalized — when they lead the schema in order, by dropping
    /// repeats in place, and otherwise by one
    /// [`FlatRelation::sort_dedup`], which meets short runs when a
    /// dropped column separates kept ones. Nothing is joined and no copy
    /// is re-sorted. The width bound is this relation's.
    pub(crate) fn project(&self, vars: &[VarId], stats: &mut MatCacheStats) -> FlatRelation {
        let mut schema: Vec<VarId> = Vec::with_capacity(vars.len());
        for v in vars {
            if !schema.contains(v) {
                schema.push(*v);
            }
        }
        let (a, k) = (self.schema.len(), schema.len());
        let mut data = vec![0; self.rows * k];
        let mut leading = true;
        for (j, v) in schema.iter().enumerate() {
            let at = self.schema.iter().position(|w| w == v);
            let c = at.expect("projected variable must be in the schema");
            leading &= c == j;
            let column = self.data.iter().skip(c).step_by(a);
            for (to, &x) in data.iter_mut().skip(j).step_by(k).zip(column) {
                *to = x;
            }
        }
        let mut out = FlatRelation {
            schema,
            rows: self.rows,
            data: Rows::Owned(data),
            domain_width: self.domain_width,
            bitmaps: BitmapCell::default(),
        };
        if leading {
            debug_assert!(self.iter_rows().is_sorted(), "a canonical relation");
            out.dedup_sorted();
        } else {
            out.sort_dedup(stats);
        }
        out
    }

    /// The decoded answer set for `head` of this canonical relation as a
    /// tree of row vectors — a view of [`Answers::from_relation`], kept
    /// for callers that measure or inspect the boundary per row.
    /// Evaluation itself returns [`Answers`] and never builds the tree.
    pub fn rows_in_head_order_decoded(
        &self,
        head: &[VarId],
        dict: &DomainDict,
    ) -> BTreeSet<Vec<Element>> {
        let mut stats = MatCacheStats::default();
        Answers::from_relation(self.clone(), head, dict, &mut stats).to_btree_set()
    }
}

/// First row in `lo..hi` whose value is `>= v` (`> v` when `strict`),
/// in a column stored every `stride` elements of `col`: galloping
/// search — exponential probe from `lo`, then binary search inside the
/// overshot step. Within a fixed-prefix row range of a sorted relation
/// the column is sorted; the kernel falls back on this wherever a trie
/// has no cheaper way to move (a middle or last column, or a first
/// column without an offsets array).
fn gallop(col: &[Element], stride: usize, lo: usize, hi: usize, v: Element, strict: bool) -> usize {
    let above = |row: usize| {
        let x = col[row * stride];
        if strict {
            x > v
        } else {
            x >= v
        }
    };
    if lo >= hi || above(lo) {
        return lo;
    }
    let mut step = 1usize;
    let mut prev = lo;
    loop {
        let nxt = prev + step;
        if nxt >= hi || above(nxt) {
            // Binary search in (prev, min(nxt, hi)).
            let (mut l, mut h) = (prev + 1, nxt.min(hi));
            while l < h {
                let mid = l + (h - l) / 2;
                if above(mid) {
                    h = mid;
                } else {
                    l = mid + 1;
                }
            }
            return l;
        }
        prev = nxt;
        step <<= 1;
    }
}

/// The level of a variable [`enumeration_order`] has not placed yet.
const UNPLACED: u32 = u32::MAX;

/// The order in which [`multiway_join`] binds the variables of `vars`
/// (the sorted union of the part schemas): `order[l]` is the position
/// in `vars` of the variable level `l` binds, `level_of[i]` the level
/// of `vars[i]`, and `linked` is scratch, a flag per variable. A
/// variable sharing no part with an already placed one waits while some
/// other unplaced variable does, so every level after the first of a
/// connected component has a part whose range the bound prefix already
/// narrowed and only a new cartesian component starts from whole parts.
/// Among the variables that rule admits, the `keep` list goes first, in
/// its own order, then the dropped ones ascending: whatever follows the
/// last kept variable only has to exist.
fn enumeration_order<'a>(
    parts: impl Iterator<Item = &'a FlatRelation> + Clone,
    vars: &[VarId],
    keep: &[VarId],
    order: &mut [u32],
    level_of: &mut [u32],
    linked: &mut [u32],
) {
    let n = vars.len();
    let at = |v: &VarId| {
        vars.binary_search(v)
            .expect("part var must be in the union")
    };
    level_of.fill(UNPLACED);
    linked.fill(0);
    for (l, slot) in order.iter_mut().enumerate() {
        let waits = (0..n).any(|i| level_of[i] == UNPLACED && linked[i] != 0);
        let free = |i: &usize| level_of[*i] == UNPLACED && (linked[*i] != 0 || !waits);
        let next = (keep.iter().map(at).find(free))
            .or_else(|| (0..n).find(free))
            .expect("an unplaced variable remains");
        level_of[next] = l as u32;
        *slot = next as u32;
        for p in parts.clone().filter(|p| p.schema.contains(&vars[next])) {
            for v in &p.schema {
                linked[at(v)] = 1;
            }
        }
    }
}

/// A range of rows `lo..hi` of one trie.
type Run = (usize, usize);

/// One part read as a trie: rows sorted on its columns, which are in
/// enumeration order — the part's own buffer when its schema already
/// is, a re-sorted copy otherwise (see [`multiway_join`]). The offsets
/// array and the copy of the last column live in the kernel's one
/// bookkeeping buffer.
#[derive(Clone, Copy, Default)]
struct Trie<'a> {
    data: &'a [Element],
    arity: usize,
    rows: usize,
    /// `offsets[v]..offsets[v + 1]` is the run of rows whose first
    /// column holds `v`: built over the dense codes when the bound is
    /// known and within 8× the row count (the array is `O(width)` to
    /// fill), empty otherwise — then the first column is searched.
    offsets: &'a [u32],
    /// The last column on its own. The innermost levels do most of a
    /// join's reads, each in a run picked by the columns before it: in
    /// the row-major buffer those runs are `arity` times as many cache
    /// lines, most of them misses once the part outgrows the cache.
    last: &'a [Element],
}

impl<'a> Trie<'a> {
    /// Length of the offsets array over `rel` (`0`: none). The arrays
    /// pay rent end to end: with none at all, `cqbench`'s
    /// `free_big_answers` p50 went 3.27 → 10.19 ms and
    /// `cyclic_bags_cold` 4.33 → 10.86 ms.
    fn offsets_len(rel: &FlatRelation) -> usize {
        let width = rel.domain_width as usize;
        if width > 0 && width <= 8 * rel.rows {
            width + 1
        } else {
            0
        }
    }

    /// Elements of bookkeeping space a trie over `rel` reads: its
    /// offsets array, then its last column.
    fn space(rel: &FlatRelation) -> usize {
        Self::offsets_len(rel) + rel.rows
    }

    /// Fills `space` (zeroed, [`Trie::space`] long) for `rel` in one
    /// pass over its rows.
    fn index(rel: &FlatRelation, space: &mut [u32]) {
        let (offsets, last) = space.split_at_mut(Self::offsets_len(rel));
        let (arity, dense) = (rel.schema.len(), !offsets.is_empty());
        for (row, last) in rel.data.chunks_exact(arity).zip(last) {
            if dense {
                offsets[row[0] as usize + 1] += 1;
            }
            *last = row[arity - 1];
        }
        for v in 1..offsets.len() {
            offsets[v] += offsets[v - 1];
        }
    }

    /// The trie over `rel` whose space [`Trie::index`] filled.
    fn view(rel: &'a FlatRelation, space: &'a [u32]) -> Trie<'a> {
        let (offsets, last) = space.split_at(Self::offsets_len(rel));
        Trie {
            data: &rel.data,
            arity: rel.schema.len(),
            rows: rel.rows,
            offsets,
            last,
        }
    }

    /// Column `col` as a slice to index by `row * stride`.
    #[inline]
    fn column(&self, col: usize) -> (&'a [Element], usize) {
        if col + 1 == self.arity {
            (self.last, 1)
        } else {
            (&self.data[col..], self.arity)
        }
    }

    #[inline]
    fn val(&self, row: usize, col: usize) -> Element {
        let (column, stride) = self.column(col);
        column[row * stride]
    }

    /// [`Trie::seek`] over a nonempty `lo..hi` by plain binary search
    /// with no data-dependent branch: `log₂` of the whole range whatever
    /// the distance, but searches for different values do not wait for
    /// one another.
    #[inline]
    fn lower_bound(&self, col: usize, lo: usize, hi: usize, v: Element) -> usize {
        let (column, stride) = self.column(col);
        let (mut base, mut size) = (lo, hi - lo);
        while size > 1 {
            let half = size / 2;
            let below = column[(base + half) * stride] < v;
            base = std::hint::select_unpredictable(below, base + half, base);
            size -= half;
        }
        base + usize::from(column[base * stride] < v)
    }

    /// First row of `lo..hi` (rows agreeing on the columns before
    /// `col`) whose column `col` is `>= v`.
    #[inline]
    fn seek(&self, col: usize, lo: usize, hi: usize, v: Element) -> usize {
        if lo >= hi || self.val(lo, col) >= v {
            return lo;
        }
        let (column, stride) = self.column(col);
        match self.offsets.get(v as usize) {
            Some(&at) if col == 0 => at as usize,
            _ => gallop(column, stride, lo + 1, hi, v, false),
        }
    }

    /// End of the run of `v`, the value column `col` holds at row `lo`
    /// of `lo..hi`. The last column of a duplicate-free trie is its own
    /// run.
    #[inline]
    fn run_end(&self, col: usize, lo: usize, hi: usize, v: Element) -> usize {
        if col + 1 == self.arity {
            lo + 1
        } else if col == 0 && !self.offsets.is_empty() {
            self.offsets[v as usize + 1] as usize
        } else {
            gallop(&self.data[col..], self.arity, lo + 1, hi, v, true)
        }
    }

    /// The run of `v` in the first column of the whole trie (empty
    /// when absent): two loads of the offsets array, a search of the
    /// sorted column without one.
    #[inline]
    fn find(&self, v: Element) -> Run {
        if !self.offsets.is_empty() {
            return match self.offsets.get(v as usize..v as usize + 2) {
                Some(w) => (w[0] as usize, w[1] as usize),
                None => (0, 0),
            };
        }
        let (column, stride) = self.column(0);
        let lo = gallop(column, stride, 0, self.rows, v, false);
        if lo == self.rows || self.val(lo, 0) != v {
            return (0, 0);
        }
        (lo, self.run_end(0, lo, self.rows, v))
    }
}

/// One cursor position of a multiway join: column `depth` of part
/// `part`, bound at level `level`, with the part's trie and the
/// cursor's state.
#[derive(Clone, Copy, Default)]
struct Slot<'a> {
    trie: Trie<'a>,
    part: usize,
    depth: usize,
    level: usize,
    /// The rows of the part that agree with the current binding on its
    /// earlier columns, as the match on the previous column left them —
    /// set by whichever earlier level bound that column, read by every
    /// visit of this slot's own level in between. A first column
    /// ranges over the whole trie.
    range: Run,
    /// Where a leapfrogging level's cursor stands in `range` (one lead
    /// and a merge of two keep theirs in locals).
    cursor: usize,
    /// The slot of the part's next column, whose `range` a match here
    /// narrows; after a last column, the write-only sink past the last
    /// slot.
    next: usize,
}

/// The slots bound at one level: `start..mid` *lead* — their row
/// ranges are intersected — and `mid..end` are parts entering with
/// their first column while some lead's range is already narrowed:
/// those are *probed* per candidate value ([`Trie::find`]) instead of
/// walked. A level whose slots are all first columns (level 0, or the
/// first level of a cartesian component) leads with all of them.
struct Level {
    start: usize,
    mid: usize,
    end: usize,
    /// The output column of the level's variable; [`DROPPED`] when the
    /// keep list leaves it out.
    col: usize,
}

/// The output column of a variable the keep list drops.
const DROPPED: usize = usize::MAX;

/// The static shape of one multiway join.
struct WcojPlan {
    levels: Vec<Level>,
    /// The first level of the all-dropped suffix (the level count when
    /// the last variable is kept): from here down one complete binding
    /// is as good as all of them.
    exist_from: usize,
    /// The last level is kept and has a single slot: its matches are
    /// the rows of one range, written (or counted) without a search.
    bulk_last: bool,
}

/// Mutable state of one multiway enumeration.
struct WcojRun<'p, 'a> {
    plan: &'p WcojPlan,
    /// The plan's slots, level by level, then the sink.
    slots: Vec<Slot<'a>>,
    /// The kept part of the current binding: one output row.
    binding: Vec<Element>,
    /// The output: rows, or `u32` code words.
    out: Vec<Element>,
    /// Where the next write into a pre-sized output goes.
    at: usize,
    /// Bits per column when the output is code words.
    word: Option<u32>,
    rows: usize,
    /// Cursor moves made: seeks, steps, probes and rows written.
    advances: u64,
    /// `false` while counting: a bulk last level adds up its range
    /// lengths and nothing is written.
    fill: bool,
}

impl<'p, 'a> WcojRun<'p, 'a> {
    fn new(plan: &'p WcojPlan, slots: Vec<Slot<'a>>, kept: usize) -> WcojRun<'p, 'a> {
        WcojRun {
            plan,
            slots,
            binding: vec![0; kept],
            out: Vec::new(),
            at: 0,
            word: None,
            rows: 0,
            advances: 0,
            fill: true,
        }
    }

    /// After a counting pass: the output allocated once, at its exact
    /// size — room for the rows even when it holds words, so that they
    /// unpack where they are — and the counters reset for the writing
    /// pass.
    fn presize(&mut self) {
        self.out = vec![0; self.rows * self.binding.len()];
        (self.rows, self.fill) = (0, true);
    }

    /// Enumerates the extensions of the current binding from `level` on,
    /// appending the kept columns of each complete binding to the
    /// output, and says whether there was one. Values are visited in
    /// ascending order at every level, so the output is sorted on the
    /// enumeration order. From [`WcojPlan::exist_from`] down a level
    /// returns at its first hit: nothing it binds is kept, so one
    /// witness stands for all. A level is specialised by its leads: one
    /// is iterated, two of comparable length are merged on locals,
    /// anything else leapfrogs; the level above a bulk last level with
    /// one lead is one loop that writes the last level's runs itself.
    fn descend(&mut self, level: usize) -> bool {
        let plan = self.plan;
        let Some(lv) = plan.levels.get(level) else {
            self.out.extend_from_slice(&self.binding);
            self.rows += 1;
            return true;
        };
        if plan.bulk_last && level + 2 >= plan.levels.len() {
            if level + 1 == plan.levels.len() {
                return self.write_run(lv.start);
            }
            if lv.mid - lv.start == 1 {
                return self.last_pair(lv);
            }
        }
        let first = level >= plan.exist_from;
        match lv.mid - lv.start {
            1 => {
                let a = self.slots[lv.start];
                let (mut lo, hi) = a.range;
                while lo < hi {
                    let v = a.trie.val(lo, a.depth);
                    let end = a.trie.run_end(a.depth, lo, hi, v);
                    self.advances += 1;
                    self.slots[a.next].range = (lo, end);
                    if self.hit(level, v) && first {
                        return true;
                    }
                    lo = end;
                }
                false
            }
            2 => {
                let (a, b) = (self.slots[lv.start], self.slots[lv.start + 1]);
                let ((mut i, ie), (mut j, je)) = (a.range, b.range);
                // Ranges within 8× of each other merge run by run with
                // no data-dependent branch per step, at a cost linear
                // in both; of a lopsided pair the short range is walked
                // and each of its values looked up in the long one.
                // Both sides pay rent on `cqbench`'s `cyclic_bags_cold`:
                // merging every pair cost 21 % of its throughput, and
                // looking up every pair 6 % on its p50.
                if ie - i > 8 * (je - j) || je - j > 8 * (ie - i) {
                    let (s, l) = if ie - i < je - j { (a, b) } else { (b, a) };
                    let ((mut i, ie), (lo, hi)) = (s.range, l.range);
                    while i < ie {
                        let x = s.trie.val(i, s.depth);
                        let end = s.trie.run_end(s.depth, i, ie, x);
                        let at = l.trie.lower_bound(l.depth, lo, hi, x);
                        self.advances += 1;
                        if at < hi && l.trie.val(at, l.depth) == x {
                            self.slots[s.next].range = (i, end);
                            self.slots[l.next].range = (at, l.trie.run_end(l.depth, at, hi, x));
                            if self.hit(level, x) && first {
                                return true;
                            }
                        }
                        i = end;
                    }
                    return false;
                }
                while i < ie && j < je {
                    let (x, y) = (a.trie.val(i, a.depth), b.trie.val(j, b.depth));
                    let ni = a.trie.run_end(a.depth, i, ie, x);
                    let nj = b.trie.run_end(b.depth, j, je, y);
                    self.advances += 1;
                    if x == y {
                        self.slots[a.next].range = (i, ni);
                        self.slots[b.next].range = (j, nj);
                        if self.hit(level, x) && first {
                            return true;
                        }
                    }
                    (i, j) = (if x <= y { ni } else { i }, if y <= x { nj } else { j });
                }
                false
            }
            _ => self.leapfrog(level),
        }
    }

    /// The general level: every lead seeks the largest value any of
    /// them holds until all agree (leapfrog), so the level costs the
    /// shortest range times a logarithm, not the sum of the ranges.
    fn leapfrog(&mut self, level: usize) -> bool {
        let plan = self.plan;
        let lv = &plan.levels[level];
        for s in &mut self.slots[lv.start..lv.mid] {
            if s.range.0 >= s.range.1 {
                return false;
            }
            s.cursor = s.range.0;
        }
        let leads = lv.mid - lv.start;
        let mut v = Element::MIN;
        loop {
            // Seek every lead to `v`, raising `v` to whatever a lead
            // overshoots to, until all of them sit on it.
            let (mut agreed, mut i) = (0, 0);
            while agreed < leads {
                let s = &mut self.slots[lv.start + i];
                let (t, depth, hi) = (s.trie, s.depth, s.range.1);
                if t.val(s.cursor, depth) < v {
                    s.cursor = t.seek(depth, s.cursor + 1, hi, v);
                    self.advances += 1;
                    if s.cursor >= hi {
                        return false;
                    }
                }
                let x = t.val(s.cursor, depth);
                agreed = if x == v { agreed + 1 } else { 1 };
                v = x;
                i = (i + 1) % leads;
            }
            let mut exhausted = false;
            for i in lv.start..lv.mid {
                let s = self.slots[i];
                let end = s.trie.run_end(s.depth, s.cursor, s.range.1, v);
                self.slots[s.next].range = (s.cursor, end);
                self.slots[i].cursor = end;
                exhausted |= end >= s.range.1;
            }
            self.advances += leads as u64;
            if self.hit(level, v) && level >= plan.exist_from {
                return true;
            }
            if exhausted {
                return false;
            }
        }
    }

    /// Looks `v` up in the probed slots of `lv`, narrowing each one's
    /// next column to its run; `false` at the first that lacks it.
    #[inline]
    fn probe(&mut self, lv: &Level, v: Element) -> bool {
        for i in lv.mid..lv.end {
            self.advances += 1;
            let run = self.slots[i].trie.find(v);
            if run.0 == run.1 {
                return false;
            }
            let next = self.slots[i].next;
            self.slots[next].range = run;
        }
        true
    }

    /// Every lead of `level` holds `v`, each part's next column narrowed
    /// to its run of it: look `v` up in the probed slots, and if all
    /// hold it bind it and go one level down; `true` when that reached
    /// a complete binding.
    #[inline]
    fn hit(&mut self, level: usize, v: Element) -> bool {
        let plan = self.plan;
        let lv = &plan.levels[level];
        if !self.probe(lv, v) {
            return false;
        }
        if lv.col != DROPPED {
            self.binding[lv.col] = v;
        }
        self.descend(level + 1)
    }

    /// The level above a bulk last level, when it has one lead: per
    /// value of the lead, the probed parts' runs are found and the last
    /// level's run — narrowed by this level or by an earlier one — is
    /// written, in one loop with no descent per binding.
    fn last_pair(&mut self, lv: &Level) -> bool {
        let a = self.slots[lv.start];
        let (mut lo, hi) = a.range;
        let mut found = false;
        while lo < hi {
            let v = a.trie.val(lo, a.depth);
            let end = a.trie.run_end(a.depth, lo, hi, v);
            self.advances += 1;
            self.slots[a.next].range = (lo, end);
            if self.probe(lv, v) {
                if lv.col != DROPPED {
                    self.binding[lv.col] = v;
                }
                // The last level's one slot follows this level's.
                found |= self.write_run(lv.end);
            }
            lo = end;
        }
        found
    }

    /// The bulk last level, whose single slot `s` holds its matches as
    /// one range of the part's last column: counted, or written into
    /// the pre-sized output — rows column by column, or one code word
    /// per match, the binding's share of it computed once.
    fn write_run(&mut self, s: usize) -> bool {
        let Slot {
            trie,
            depth,
            range: (lo, hi),
            ..
        } = self.slots[s];
        debug_assert_eq!(depth + 1, trie.arity, "the last level binds last columns");
        let n = hi - lo;
        self.rows += n;
        if !self.fill {
            self.advances += 1;
            return n > 0;
        }
        self.advances += n as u64;
        let (k, pos) = (
            self.binding.len(),
            self.plan.levels[self.plan.levels.len() - 1].col,
        );
        let (at, vals) = (self.at, &trie.last[lo..hi]);
        let others = self.binding.iter().enumerate().filter(|&(j, _)| j != pos);
        match self.word {
            None => {
                let dst = &mut self.out[at..at + n * k];
                for (j, &b) in others {
                    for r in 0..n {
                        dst[r * k + j] = b;
                    }
                }
                for (r, &v) in vals.iter().enumerate() {
                    dst[r * k + pos] = v;
                }
                self.at += n * k;
            }
            Some(b) => {
                let shift = |j: usize| (k - 1 - j) as u32 * b;
                let share = others.fold(0, |w, (j, &x)| w | x << shift(j));
                for (dst, &v) in self.out[at..at + n].iter_mut().zip(vals) {
                    *dst = share | v << shift(pos);
                }
                self.at += n;
            }
        }
        n > 0
    }
}

/// `part` with its columns permuted into enumeration order (`level`
/// maps a variable to the level binding it) and its rows re-sorted;
/// `None` when the part's own column order already is that order.
fn reordered(
    part: &FlatRelation,
    level: impl Fn(&VarId) -> usize,
    stats: &mut MatCacheStats,
) -> Option<FlatRelation> {
    let arity = part.schema.len();
    let mut perm: Vec<usize> = (0..arity).collect();
    perm.sort_by_key(|&c| level(&part.schema[c]));
    if perm.is_sorted() {
        return None;
    }
    let mut data = Vec::with_capacity(part.data.len());
    for row in part.data.chunks_exact(arity) {
        data.extend(perm.iter().map(|&c| row[c]));
    }
    let mut copy = FlatRelation::from_raw(arity, part.rows, data, part.domain_width);
    copy.sort_dedup(stats);
    Some(copy)
}

/// The one join kernel: `π_keep(parts[0] ⋈ … ⋈ parts[n-1])` as one
/// worst-case-optimal join (leapfrog triejoin) of canonical relations —
/// a bag build when `keep` is the sorted variable union, a tree node's
/// join with its children's partials (one or several) when it is less,
/// a semijoin when it is one part's schema, and an existence check when
/// it is empty. Variable by variable, the candidate extensions of the
/// current binding are intersected across every part containing the
/// variable, so the total work is bounded by the fractional-cover (AGM)
/// bound of the join, not by the size of any binary intermediate.
///
/// **Order.** The kernel binds variables in [`enumeration_order`],
/// which it derives from the part schemas and `keep` alone: kept
/// variables as early as connectivity lets them. Any order yields the
/// same *projected* set: a binding survives level `l` iff its
/// projection lies in every part containing variable `l` under the
/// prefix bound so far, so the complete bindings are exactly the tuples
/// whose projection on each part's schema is a row of that part — the
/// natural join — and a kept row is written iff some complete binding
/// extends it, which for the all-dropped suffix of the order is decided
/// by the first one found. Parts whose columns are not in enumeration
/// order are read through a re-sorted copy ([`reordered`]).
///
/// **Cursors.** Every part is a [`Trie`]; a [`Slot`]'s range is always
/// the run of rows agreeing with the current binding on the part's
/// earlier columns, so within it the slot's column is sorted and a
/// cursor only moves forward. A part entering below the first level of
/// its component is looked up per candidate, never walked.
///
/// **Output.** Only kept columns are written, in `keep`'s order. When
/// the order *starts* with `keep` as listed, every level below is
/// existential, each kept row is met once, in order, and nothing is
/// sorted afterwards; otherwise (a dropped variable had to come before
/// a kept one, or a bag's variables not ascending) the rows get one
/// canonicalizing sort. Either way the result is the natural join of
/// the parts projected onto `keep` and canonicalized. When the last
/// level is kept and has a single slot the row count is the sum of its
/// range lengths: a first pass counts without visiting a row and the
/// result is allocated once at its exact size — and when those rows
/// need the sort and fit a `u32` word of the radix arm of
/// [`FlatRelation::sort_dedup`], they are written as its code words
/// instead (first column highest, `b` bits apiece), sorted and
/// deduplicated as words, and unpacked once, inside the buffer that
/// holds them — sized for the rows. Otherwise the buffer grows
/// geometrically.
///
/// **Bookkeeping.** The variable union, the order, and every part's
/// offsets array and last column share one buffer; the slots (with
/// their cursors), the levels and the binding are one buffer each.
/// None of them is sized by a fixed limit.
///
/// Requirements: every part is duplicate-free with its rows sorted in
/// its own column order; `keep` lists distinct variables of the parts.
/// A 0-ary part binds nothing: the true one drops out, and the false
/// one, like any empty part, makes the result empty. The width bound is
/// the largest of the parts' when every part with a column has one.
/// Cursor moves and packed sorts are added to `stats`.
pub(crate) fn multiway_join<'a>(
    parts: impl Iterator<Item = &'a FlatRelation> + Clone,
    keep: &[VarId],
    stats: &mut MatCacheStats,
) -> FlatRelation {
    let mut out = FlatRelation::empty(keep.to_vec());
    if parts
        .clone()
        .all(|p| p.domain_width > 0 || p.schema.is_empty())
    {
        out.domain_width = parts.clone().map(|p| p.domain_width).max().unwrap_or(0);
    }
    if parts.clone().any(|p| p.is_empty()) {
        return out;
    }
    let parts = parts.filter(|p| !p.schema.is_empty());
    let width: usize = parts.clone().map(|p| p.schema.len()).sum();
    if width == 0 {
        out.rows = 1;
        return out;
    }
    // The bookkeeping buffer: the sorted variable union, each
    // variable's level, the order, the link flags; then, part by part,
    // the trie space.
    let space: usize = parts.clone().map(Trie::space).sum();
    let mut book: Vec<u32> = Vec::with_capacity(4 * width + space);
    book.extend(parts.clone().flat_map(|p| p.schema.iter().copied()));
    book.sort_unstable();
    book.dedup();
    let n = book.len();
    book.resize(4 * n, 0);
    let (vars, rest) = book.split_at_mut(n);
    let (level_of, rest) = rest.split_at_mut(n);
    let (order, linked) = rest.split_at_mut(n);
    enumeration_order(parts.clone(), vars, keep, order, level_of, linked);
    let copies: Vec<Option<FlatRelation>> = {
        let level = |v: &VarId| level_of[vars.binary_search(v).expect("in the union")] as usize;
        if parts.clone().all(|p| p.schema.is_sorted_by_key(level)) {
            Vec::new()
        } else {
            parts.clone().map(|p| reordered(p, level, stats)).collect()
        }
    };
    let read = |i: usize, p: &'a FlatRelation| copies.get(i).and_then(Option::as_ref).unwrap_or(p);
    for (i, p) in parts.clone().enumerate() {
        let at = book.len();
        book.resize(at + Trie::space(read(i, p)), 0);
        Trie::index(read(i, p), &mut book[at..]);
    }
    let book = &book[..];
    let (vars, level_of, order) = (&book[..n], &book[n..2 * n], &book[2 * n..3 * n]);
    let level = |v: &VarId| level_of[vars.binary_search(v).expect("in the union")] as usize;
    // One slot per column of every part, level by level, narrowed ones
    // first; then the sink.
    let mut slots: Vec<Slot> = Vec::with_capacity(width + 1);
    let mut at = 4 * n;
    for (part, p) in parts.clone().enumerate() {
        let trie = Trie::view(read(part, p), &book[at..]);
        at += Trie::space(read(part, p));
        for v in &p.schema {
            let depth = p.schema.iter().filter(|w| level(w) < level(v)).count();
            slots.push(Slot {
                trie,
                part,
                depth,
                level: level(v),
                range: if depth == 0 { (0, trie.rows) } else { (0, 0) },
                cursor: 0,
                next: 0,
            });
        }
    }
    slots.sort_unstable_by_key(|s| (s.level, s.depth == 0, s.part));
    let sink = slots.len();
    for i in 0..sink {
        let (part, depth) = (slots[i].part, slots[i].depth + 1);
        let next = slots
            .iter()
            .position(|s| (s.part, s.depth) == (part, depth));
        slots[i].next = next.unwrap_or(sink);
    }
    slots.push(Slot::default());
    let mut levels = Vec::with_capacity(n);
    let mut start = 0;
    for (l, &var) in order.iter().enumerate() {
        let end = start
            + slots[start..sink]
                .iter()
                .take_while(|s| s.level == l)
                .count();
        let narrowed = slots[start..end].iter().filter(|s| s.depth > 0).count();
        let var = vars[var as usize];
        levels.push(Level {
            start,
            mid: if narrowed == 0 { end } else { start + narrowed },
            end,
            col: keep.iter().position(|&v| v == var).unwrap_or(DROPPED),
        });
        start = end;
    }
    let k = keep.len();
    let canonical = levels.iter().take(k).map(|lv| lv.col).eq(0..k);
    let exist_from = levels
        .iter()
        .rposition(|lv| lv.col != DROPPED)
        .map_or(0, |l| l + 1);
    let single = levels.last().is_some_and(|lv| lv.end - lv.start == 1);
    let plan = WcojPlan {
        bulk_last: single && exist_from == levels.len(),
        levels,
        exist_from,
    };
    let mut st = WcojRun::new(&plan, slots, k);
    if plan.bulk_last {
        st.fill = false;
        st.descend(0);
        out.rows = st.rows;
        let b = code_bits(out.domain_width);
        if !canonical && k > 1 && k as u32 * b <= 32 && out.packed_sort_wanted() {
            st.word = Some(b);
        }
        st.presize();
    } else {
        // A part over exactly the kept variables bounds the rows.
        let same =
            |p: &&FlatRelation| p.schema.len() == k && keep.iter().all(|v| p.schema.contains(v));
        let bound = parts.clone().filter(same).map(|p| p.rows).min();
        st.out.reserve_exact(bound.unwrap_or(0) * k);
    }
    st.descend(0);
    stats.cursor_advances += st.advances;
    out.rows = st.rows;
    let Some(b) = st.word else {
        out.data = Rows::Owned(st.out);
        if !canonical {
            out.sort_dedup(stats);
        }
        return out;
    };
    st.out.truncate(out.rows);
    stats.note_packed(out.rows);
    radix_dedup_u32(&mut st.out);
    unpack_words_in_place(&mut st.out, k, b);
    out.rows = st.out.len() / k;
    out.data = Rows::Owned(st.out);
    out
}

/// A compiled tuple→row mapping for one atom: which tuple positions must
/// agree (repeated variables) and which tuple position feeds each output
/// column. Compiling this once per plan removes the `var_count`-sized
/// binding scratch the seed materializer allocated **per tuple**. Both
/// lists are spans of the word buffer the binder was compiled into.
#[derive(Debug, Clone, Copy)]
pub struct AtomBinder {
    rel: RelId,
    /// `(i, j)` pairs of tuple positions that must hold equal values
    /// (the atom repeats a variable at both), flat.
    eq_checks: Span,
    /// For each output column, the tuple position that supplies its
    /// value.
    out_pos: Span,
}

impl AtomBinder {
    /// Compiles the binder of `atom` onto `words`, whose output columns
    /// are the atom's distinct variables, ascending.
    pub fn compile(atom: &Atom, words: &mut Vec<u32>) -> AtomBinder {
        let args = &atom.args;
        let first = |v: VarId| args.iter().position(|&u| u == v).expect("an argument") as u32;
        let start = words.len();
        for (j, &v) in args.iter().enumerate() {
            if first(v) < j as u32 {
                words.extend([first(v), j as u32]);
            }
        }
        let eq_checks = Span::since(start, words);
        let start = words.len();
        words.extend(ascending(args.iter().copied()).map(first));
        AtomBinder {
            rel: atom.rel,
            eq_checks,
            out_pos: Span::since(start, words),
        }
    }

    /// The relation the binder scans.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Scans the atom's relation in `d` and appends one row per
    /// consistent tuple to `out` (arity must match the compiled schema),
    /// reading the binder's lists from `words`, the buffer it was
    /// compiled into. Rows are appended unnormalized; callers finish
    /// with [`FlatRelation::sort_dedup`].
    pub fn materialize_into(&self, words: &[u32], d: &Structure, out: &mut FlatRelation) {
        let (eq_checks, out_pos) = (&words[self.eq_checks.range()], &words[self.out_pos.range()]);
        debug_assert_eq!(out.arity(), out_pos.len(), "binder arity mismatch");
        // Materialization is the dictionary-encode boundary: rows are
        // stored as dense domain codes, and the relation carries the
        // code width, which the kernel's offsets arrays, the bitmaps and
        // the code words rely on.
        // Tuple elements are active by definition, so every encode
        // resolves. When the dictionary is the identity the raw loop
        // avoids the table lookup (and is byte-identical anyway).
        let dict = d.domain_dict();
        out.domain_width = dict.len() as u32;
        out.invalidate_bitmaps();
        // Scans stream the relation's row-major buffer in one
        // sequential pass.
        let arity = d.vocabulary().arity(self.rel);
        let flat = d.flat_tuples(self.rel);
        let data = out.data.make_mut();
        data.reserve((flat.len() / arity) * out_pos.len());
        let consistent = |t: &[Element]| {
            eq_checks
                .chunks_exact(2)
                .all(|e| t[e[0] as usize] == t[e[1] as usize])
        };
        if dict.is_identity() {
            // Whole-tuple scans (no filter, columns in tuple order) are
            // one bulk copy of the image.
            if eq_checks.is_empty()
                && arity == out_pos.len()
                && out_pos.iter().enumerate().all(|(i, &p)| i == p as usize)
            {
                data.extend_from_slice(flat);
                out.rows += flat.len() / arity;
                return;
            }
            for t in flat.chunks_exact(arity).filter(|t| consistent(t)) {
                data.extend(out_pos.iter().map(|&p| t[p as usize]));
                out.rows += 1;
            }
            return;
        }
        for t in flat.chunks_exact(arity).filter(|t| consistent(t)) {
            data.extend(out_pos.iter().map(|&p| dict.encode(t[p as usize])));
            out.rows += 1;
        }
    }
}

/// Each distinct variable of `vars`, ascending: a hyperedge's schema,
/// written without a sort buffer.
pub(crate) fn ascending(vars: impl Iterator<Item = VarId> + Clone) -> impl Iterator<Item = VarId> {
    let first = vars.clone().min();
    std::iter::successors(first, move |&low| vars.clone().filter(|&v| v > low).min())
}

/// The canonical identity of a materialized hyperedge relation,
/// independent of variable names and query identity: each atom of the
/// hyperedge reduced to its relation plus the **column index** (position
/// in the sorted distinct variable list) of every argument, the whole
/// list sorted. Two hyperedges with equal keys materialize to identical
/// row sets over any database — which is what lets a
/// [`MaterializationCache`] share work across prepared queries.
///
/// A key is written flat, into the word buffer of the plan or shape
/// that uses it: per atom its relation, its arity and its column
/// indexes. `MatKey` is the cache's own copy of those words, made when
/// an entry is inserted; lookups borrow the words (`Borrow<[u32]>`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct MatKey {
    atoms: Box<[u32]>,
}

impl Borrow<[u32]> for MatKey {
    fn borrow(&self) -> &[u32] {
        &self.atoms
    }
}

impl MatKey {
    /// Writes the key of a hyperedge onto `words`: `atoms` are every
    /// atom of it, each over all of its variables. The atoms go in
    /// ascending `(relation, arguments)` order without repeats; a
    /// variable's column is the number of distinct smaller ones.
    pub(crate) fn write(atoms: &[&Atom], words: &mut Vec<u32>) -> Span {
        let start = words.len();
        let vars = atoms.iter().flat_map(|a| a.args.iter().copied());
        let col = |v: VarId| ascending(vars.clone()).take_while(|&u| u < v).count() as u32;
        // Column indexes rise with the variables, so ordering by the
        // arguments orders the atoms by their columns too.
        let keyed = atoms.iter().map(|a| (a.rel, &a.args[..]));
        let above = |low: Option<(RelId, &[VarId])>| keyed.clone().filter(|k| low < Some(*k)).min();
        for (rel, args) in std::iter::successors(above(None), |&k| above(Some(k))) {
            words.extend([rel.0, args.len() as u32]);
            words.extend(args.iter().map(|&v| col(v)));
        }
        Span::since(start, words)
    }
}

/// Per-call cache outcome of an evaluation that consulted a
/// [`MaterializationCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatCacheStats {
    /// Hyperedges served from the cache.
    pub hits: u32,
    /// Hyperedges materialized (and inserted) on this call.
    pub misses: u32,
    /// Always 0: the binary bag build is gone. Kept, with
    /// [`MatCacheStats::binary_bag_us`], because the frozen `cqbench`
    /// reads both by name, until a `benchmark` issue drops
    /// `flat.bag_builds_binary`.
    pub binary_bag_builds: u32,
    /// Multi-part bag builds, every one by the multiway kernel.
    pub wcoj_bag_builds: u32,
    /// Always 0, see [`MatCacheStats::binary_bag_builds`].
    pub binary_bag_us: u64,
    /// Microseconds spent in multiway bag builds (join phase only).
    pub wcoj_bag_us: u64,
    /// Cursor moves of the multiway kernel (seeks, steps, probes and
    /// rows written): a timer-free measure of join work.
    pub cursor_advances: u64,
    /// Semijoins and Boolean sweep steps answered by a column bitmap.
    pub bitmap_probes: u64,
    /// Sorts run on packed code words.
    pub packed_sorts: u64,
    /// Rows those sorts read.
    pub packed_rows: u64,
}

impl MatCacheStats {
    /// Accumulates another outcome into this one.
    pub fn add(&mut self, other: MatCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.wcoj_bag_builds += other.wcoj_bag_builds;
        self.wcoj_bag_us += other.wcoj_bag_us;
        self.cursor_advances += other.cursor_advances;
        self.bitmap_probes += other.bitmap_probes;
        self.packed_sorts += other.packed_sorts;
        self.packed_rows += other.packed_rows;
    }

    /// Counts one bitmap dispatch, here and process-wide.
    pub(crate) fn note_bitmap_probe(&mut self) {
        self.bitmap_probes += 1;
        BITMAP_PROBES.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one packed sort over `rows` rows, here and process-wide.
    fn note_packed(&mut self, rows: usize) {
        self.packed_sorts += 1;
        self.packed_rows += rows as u64;
        PACKED_ROWS.fetch_add(rows as u64, Ordering::Relaxed);
    }
}

/// A per-database cache of materialized hyperedge relations, shared
/// across prepared queries and concurrent batch requests: one
/// single-flight [`Flight`] per `MatKey` in a map under one read-write
/// lock (nearly every access is a read), read through poison, budgeted
/// by a [`Ledger`]. An entry keeps the materializing plan's column
/// labels; other plans adopt it with `FlatRelation::relabel`.
///
/// The cache belongs to one immutable database snapshot, so entries
/// never go stale: re-registering a database makes a fresh snapshot
/// with a fresh cache. Unbounded (the default), entries live as long as
/// the snapshot. The cache counts no hits or misses: each lookup
/// returns whether it hit, for the run's [`MatCacheStats`].
#[derive(Debug, Default)]
pub struct MaterializationCache {
    map: RwLock<FxHashMap<MatKey, Arc<Flight<Arc<FlatRelation>>>>>,
    ledger: Ledger,
}

impl MaterializationCache {
    /// An empty cache.
    pub fn new() -> Self {
        MaterializationCache::default()
    }

    /// The cached relation for `key`, or the result of `materialize`
    /// (inserted for later calls), and whether it was a hit. No lock is
    /// held while materializing. The rows are shared, and no operator
    /// writes through a shared buffer, so an entry reads the same for
    /// as long as it lives; an evicted entry's memory is freed when the
    /// last request reading its rows drops them.
    pub fn get_or_materialize(
        &self,
        key: &[u32],
        materialize: impl FnOnce() -> FlatRelation,
    ) -> (Arc<FlatRelation>, bool) {
        let read = self.map.read().unwrap_or_else(PoisonError::into_inner);
        let found = read.get(key).cloned();
        drop(read);
        let flight = found.unwrap_or_else(|| {
            // A racing miss may have inserted the flight since the read:
            // only a true insert copies the key.
            let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
            match map.get(key) {
                Some(f) => Arc::clone(f),
                None => Arc::clone(map.entry(MatKey { atoms: key.into() }).or_default()),
            }
        });
        let (rel, ran) = self.ledger.claim(&flight, || {
            // Rows go behind their `Arc` here, once per landing, so
            // that every later hit adopts them without a copy; buffers
            // that never reach a cache never pay for sharing.
            let mut rel = materialize();
            rel.share_rows();
            // Only the empty column container, shared by every relabel:
            // each bitmap is built by its first reader. The charge counts
            // every eligible column's table, read or not.
            if rel.bitmap_eligible() {
                rel.column_bitmaps();
            }
            let bytes = rel.heap_bytes();
            (Arc::new(rel), bytes)
        });
        let rel = Arc::clone(rel);
        if ran {
            self.sweep();
        }
        (rel, !ran)
    }

    /// Evicts least recently used entries until the budget holds.
    fn sweep(&self) {
        let lock = || self.map.write().unwrap_or_else(PoisonError::into_inner);
        self.ledger.sweep(lock, |map| {
            let key = lru(map.iter().map(|(k, f)| (k, &**f)), None)?.clone();
            map.remove(&key).map(|f| f.charge())
        });
    }

    /// Sets the byte budget (`0` = unbounded) and applies it
    /// immediately if the cache is already over.
    pub fn set_budget_bytes(&self, bytes: usize) {
        self.ledger.set_budget_bytes(bytes);
        self.sweep();
    }

    /// Bytes currently held by landed entries.
    pub fn resident_bytes(&self) -> usize {
        self.ledger.resident_bytes()
    }

    /// Entries evicted since creation.
    pub fn evictions(&self) -> u64 {
        self.ledger.evictions()
    }

    /// The cardinalities of landed materializations under `keys` (each a
    /// `MatKey`'s words), under one read-lock acquisition: the planner's
    /// peek at real cardinalities, neither a hit nor a miss. `None` per
    /// key not yet materialized, an in-flight scan included.
    pub fn peek_cardinalities<'k>(
        &self,
        keys: impl IntoIterator<Item = &'k [u32]>,
    ) -> Vec<Option<usize>> {
        let map = self.map.read().unwrap_or_else(PoisonError::into_inner);
        keys.into_iter()
            .map(|k| map.get(k).and_then(|f| f.landed()).map(|r| r.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workspace's one reference join, shared with `cqapx-bench`.
    mod reference {
        include!("../../../bench/src/reference.rs");
    }

    impl FlatRelation {
        /// The `i`-th row.
        pub(crate) fn row(&self, i: usize) -> &[Element] {
            let a = self.schema.len();
            &self.data[i * a..(i + 1) * a]
        }
    }

    impl MaterializationCache {
        /// The configured byte budget (`0` = unbounded).
        pub(crate) fn budget_bytes(&self) -> usize {
            self.ledger.budget_bytes()
        }

        /// [`MaterializationCache::peek_cardinalities`] of one key.
        pub(crate) fn peek_cardinality(&self, key: &[u32]) -> Option<usize> {
            self.peek_cardinalities([key])[0]
        }

        /// Number of cached hyperedge relations (landed flights only).
        pub(crate) fn len(&self) -> usize {
            self.map
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .values()
                .filter(|f| f.landed().is_some())
                .count()
        }
    }

    impl MatKey {
        /// The key of `atom` taken as its own hyperedge.
        fn of_atom(atom: &Atom) -> MatKey {
            let mut words = Vec::new();
            MatKey::write(&[atom], &mut words);
            MatKey {
                atoms: words.into(),
            }
        }
    }

    /// A key's words, where a lookup borrows them.
    impl std::ops::Deref for MatKey {
        type Target = [u32];

        fn deref(&self) -> &[u32] {
            &self.atoms
        }
    }

    /// Byte equality of row buffers, shared or owned.
    impl PartialEq for Rows {
        fn eq(&self, other: &Rows) -> bool {
            **self == **other
        }
    }

    impl FlatRelation {
        /// The reference join of `parts` onto `keep`, written out as the
        /// relation the kernel must produce.
        pub(crate) fn reference_of(parts: &[&FlatRelation], keep: &[VarId]) -> FlatRelation {
            let parts: Vec<reference::Part> = (parts.iter())
                .map(|p| (&p.schema[..], p.iter_rows().collect(), p.domain_width))
                .collect();
            let (rows, width) = reference::reference_join(&parts, keep);
            let mut out = FlatRelation::empty(keep.to_vec());
            for row in &rows {
                out.push_row(row);
            }
            out.domain_width = width;
            out
        }

        /// The rows in head order, codes left as they are.
        pub(crate) fn rows_in_head_order(&self, head: &[VarId]) -> BTreeSet<Vec<Element>> {
            let identity = DomainDict::build(&Structure::digraph(0, &[]));
            self.rows_in_head_order_decoded(head, &identity)
        }
    }

    /// The canonical form, counters
    /// dropped.
    fn canon(r: &mut FlatRelation) {
        r.sort_dedup(&mut MatCacheStats::default());
    }

    fn rel(schema: &[VarId], rows: &[&[Element]]) -> FlatRelation {
        let mut r = FlatRelation::empty(schema.to_vec());
        for row in rows {
            r.push_row(row);
        }
        canon(&mut r);
        r
    }

    #[test]
    fn sort_dedup_canonicalizes() {
        let mut r = FlatRelation::empty(vec![0, 1]);
        r.push_row(&[3, 4]);
        r.push_row(&[1, 2]);
        r.push_row(&[3, 4]);
        canon(&mut r);
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0), &[1, 2]);
        assert_eq!(r.row(1), &[3, 4]);
    }

    #[test]
    fn nullary_rows_cap_at_one() {
        let mut r = FlatRelation::empty(vec![]);
        r.push_row(&[]);
        r.push_row(&[]);
        canon(&mut r);
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), &[] as &[Element]);
    }

    #[test]
    fn unit_is_join_identity() {
        let t = FlatRelation::unit();
        assert_eq!(t.len(), 1);
        assert_eq!(t.arity(), 0);
        let a = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        for parts in [[&a, &t], [&t, &a]] {
            assert_identical(&kernel(&parts, &[0, 1]), &a, "unit part");
        }
    }

    #[test]
    fn semijoin_filters_and_compacts() {
        let mut a = rel(&[0, 1], &[&[1, 2], &[3, 4], &[5, 6]]);
        let b = rel(&[1, 2], &[&[2, 9], &[6, 9]]);
        // shared var 1: position 1 in a, position 0 in b.
        a.semijoin_on(&[1], &b, &[0], &mut MatCacheStats::default());
        assert_eq!(a.len(), 2);
        assert_eq!(a.row(0), &[1, 2]);
        assert_eq!(a.row(1), &[5, 6]);
    }

    #[test]
    fn semijoin_disjoint_schemas() {
        let mut a = rel(&[0], &[&[1], &[2]]);
        let b = rel(&[1], &[&[7]]);
        a.semijoin_on(&[], &b, &[], &mut MatCacheStats::default());
        assert_eq!(a.len(), 2); // nonempty other: keep all
        let empty = FlatRelation::empty(vec![1]);
        a.semijoin_on(&[], &empty, &[], &mut MatCacheStats::default());
        assert!(a.is_empty()); // empty other: cartesian semantics drop all
    }

    #[test]
    fn join_matches_row_pipeline() {
        let a = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let b = rel(&[1, 2], &[&[2, 5], &[2, 6], &[9, 9]]);
        let j = kernel(&[&a, &b], &[0, 1, 2]);
        assert_eq!(j.schema(), &[0, 1, 2]);
        assert_eq!(j.len(), 2);
        assert_eq!((j.row(0), j.row(1)), (&[1, 2, 5][..], &[1, 2, 6][..]));
        // The order of the parts must not change the answer.
        assert_identical(&kernel(&[&b, &a], &[0, 1, 2]), &j, "parts swapped");
    }

    #[test]
    fn join_cartesian_when_disjoint() {
        let a = rel(&[0], &[&[1], &[2]]);
        let b = rel(&[1], &[&[7], &[8]]);
        assert_eq!(kernel(&[&a, &b], &[0, 1]).len(), 4);
        // With a 0-ary operand (Boolean intermediate).
        let mut t = FlatRelation::empty(vec![]);
        t.push_row(&[]);
        assert_eq!(kernel(&[&a, &t], &[0]).len(), 2);
        assert_eq!(kernel(&[&t, &a], &[0]).len(), 2);
        let f = FlatRelation::empty(vec![]);
        assert_eq!(kernel(&[&a, &f], &[0]).len(), 0);
    }

    #[test]
    fn project_collapses_duplicates_and_dedups() {
        let a = rel(&[0, 1], &[&[1, 2], &[3, 2]]);
        let p = a.project(&[1, 1], &mut MatCacheStats::default());
        assert_eq!(p.schema(), &[1]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.row(0), &[2]);
    }

    #[test]
    fn binder_rejects_inconsistent_repetitions() {
        use crate::parser::parse_cq;
        let q = parse_cq("Q(x) :- E(x, x)").unwrap();
        let mut words = Vec::new();
        let binder = AtomBinder::compile(&q.atoms()[0], &mut words);
        let d = Structure::digraph(3, &[(0, 0), (0, 1), (2, 2)]);
        let mut out = FlatRelation::empty(vec![0]);
        binder.materialize_into(&words, &d, &mut out);
        canon(&mut out);
        assert_eq!(out.len(), 2); // loops at 0 and 2 only
        assert_eq!(out.row(0), &[0]);
        assert_eq!(out.row(1), &[2]);
    }

    #[test]
    fn mat_key_is_name_independent() {
        use crate::parser::parse_cq;
        let q1 = parse_cq("Q() :- E(x, y)").unwrap();
        let q2 = parse_cq("Q() :- E(a, b)").unwrap();
        assert_eq!(
            MatKey::of_atom(&q1.atoms()[0]),
            MatKey::of_atom(&q2.atoms()[0])
        );
        // Within one query, E(x,y) and E(y,x) differ: the second atom's
        // arguments hit the sorted variable list in reverse order.
        let q3 = parse_cq("Q() :- E(x, y), E(y, x)").unwrap();
        assert_ne!(
            MatKey::of_atom(&q3.atoms()[0]),
            MatKey::of_atom(&q3.atoms()[1])
        );
        // And E(y,z) is the same single-atom hyperedge shape as E(x,y).
        let q4 = parse_cq("Q() :- E(x, y), E(y, z)").unwrap();
        assert_eq!(
            MatKey::of_atom(&q4.atoms()[0]),
            MatKey::of_atom(&q4.atoms()[1])
        );
    }

    /// A large relation of pseudo-random rows (duplicates likely; not
    /// normalized).
    fn big_random_rel(schema: &[VarId], n: usize, domain: u32, seed: u64) -> FlatRelation {
        let mut r = FlatRelation::empty(schema.to_vec());
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as u32) % domain
        };
        let row_buf: Vec<Vec<Element>> = (0..n)
            .map(|_| (0..schema.len()).map(|_| next()).collect())
            .collect();
        for row in &row_buf {
            r.push_row(row);
        }
        r
    }

    /// Concurrent misses on one key run the scan exactly once
    /// (single-flight); the waiters return hits, exactly like a
    /// sequential run of the same requests.
    #[test]
    fn single_flight_materializes_once() {
        use std::sync::atomic::AtomicUsize;
        let cache = MaterializationCache::new();
        let q = crate::parser::parse_cq("Q() :- E(x, y)").unwrap();
        let key = MatKey::of_atom(&q.atoms()[0]);
        let runs = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (r, hit) = cache.get_or_materialize(&key, || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        rel(&[0, 1], &[&[1, 2]])
                    });
                    assert_eq!(r.len(), 1);
                    hits.fetch_add(usize::from(hit), Ordering::SeqCst);
                });
            }
        });
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1,
            "one scan under single-flight"
        );
        assert_eq!(hits.load(Ordering::SeqCst), 7);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_hits_and_counts() {
        let cache = MaterializationCache::new();
        let q = crate::parser::parse_cq("Q() :- E(x, y)").unwrap();
        let key = MatKey::of_atom(&q.atoms()[0]);
        let make = || rel(&[0, 1], &[&[1, 2]]);
        let (r1, hit1) = cache.get_or_materialize(&key, make);
        let (r2, hit2) = cache.get_or_materialize(&key, || unreachable!("must hit"));
        assert!(!hit1 && hit2);
        assert_eq!(r1.len(), r2.len());
        assert_eq!(cache.peek_cardinality(&key), Some(1));
        assert_eq!(cache.len(), 1);
    }

    // ── multiway (WCOJ) kernel ──────────────────────────────────────

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn random_rel(schema: &[VarId], rows: usize, dom: u64, seed: &mut u64) -> FlatRelation {
        let mut r = FlatRelation::empty(schema.to_vec());
        for _ in 0..rows {
            let row: Vec<Element> = schema
                .iter()
                .map(|_| (lcg(seed) % dom) as Element)
                .collect();
            r.push_row(&row);
        }
        canon(&mut r);
        r
    }

    fn assert_identical(got: &FlatRelation, want: &FlatRelation, ctx: &str) {
        assert_eq!(got.schema(), want.schema(), "schema differs: {ctx}");
        assert_eq!(got.len(), want.len(), "row count differs: {ctx}");
        assert_eq!(got.data.len(), got.len() * got.arity(), "buffer: {ctx}");
        assert!(got.iter_rows().eq(want.iter_rows()), "rows differ: {ctx}");
    }

    /// The kernel, its stats dropped.
    fn kernel(parts: &[&FlatRelation], keep: &[VarId]) -> FlatRelation {
        multiway_join(parts.iter().copied(), keep, &mut MatCacheStats::default())
    }

    /// [`enumeration_order`] over `schema`, the union of the part
    /// schemas, as positions into it level by level.
    fn order_of(parts: &[&FlatRelation], schema: &[VarId], keep: &[VarId]) -> Vec<usize> {
        let n = schema.len();
        let (mut order, mut level_of, mut linked) = (vec![0; n], vec![0; n], vec![0; n]);
        let parts = parts.iter().copied();
        enumeration_order(parts, schema, keep, &mut order, &mut level_of, &mut linked);
        order.iter().map(|&i| i as usize).collect()
    }

    fn union_schema(schemas: &[&[VarId]]) -> Vec<VarId> {
        let mut schema: Vec<VarId> = schemas.iter().flat_map(|s| s.iter().copied()).collect();
        schema.sort_unstable();
        schema.dedup();
        schema
    }

    /// Every keep list over `schema`: each subset, ascending, the
    /// full schema first (the bag build) — and each of two or more
    /// variables also reversed, an order the enumeration cannot follow.
    fn keep_lists(schema: &[VarId]) -> Vec<Vec<VarId>> {
        let mut lists = Vec::new();
        for mask in (0..1u32 << schema.len()).rev() {
            let pick = |(i, v): (usize, &VarId)| (mask >> i & 1 == 1).then_some(*v);
            let keep: Vec<VarId> = schema.iter().enumerate().filter_map(pick).collect();
            if keep.len() > 1 {
                lists.push(keep.iter().rev().copied().collect());
            }
            lists.push(keep);
        }
        lists
    }

    /// Kernel ≡ reference join (bytes and code width) on random parts
    /// over `schemas` for every keep list, at three sizes, with every
    /// part carrying a dense bound (offsets arrays) and with none
    /// (searched first columns).
    fn check_shape(schemas: &[&[VarId]], seed: &mut u64) {
        let schema = union_schema(schemas);
        for &(dom, rows) in &[(4u64, 12usize), (10, 60), (25, 300)] {
            for dense in [true, false] {
                let rels: Vec<FlatRelation> = schemas
                    .iter()
                    .map(|s| {
                        let mut r = random_rel(s, rows, dom, seed);
                        r.domain_width = if dense { dom as u32 } else { 0 };
                        r
                    })
                    .collect();
                let parts: Vec<&FlatRelation> = rels.iter().collect();
                for keep in keep_lists(&schema) {
                    let got = kernel(&parts, &keep);
                    let want = FlatRelation::reference_of(&parts, &keep);
                    let ctx =
                        format!("{schemas:?} keep {keep:?} dom {dom} rows {rows} dense {dense}");
                    assert_identical(&got, &want, &ctx);
                    assert_eq!(got.domain_width, want.domain_width, "width: {ctx}");
                }
            }
        }
    }

    #[test]
    fn multiway_join_matches_binary_build() {
        let mut seed = 7u64;
        // Path (a part probed below the first level), triangle, two
        // irregular hypergraphs, a cartesian bag, a part that is a
        // strict prefix of another, unary parts, four parts with a
        // four-way level, a part entering at its middle column, three
        // unary parts, and K4 (three-way levels re-entered under one
        // ancestor binding).
        let shapes: [&[&[VarId]]; 11] = [
            &[&[0, 1], &[1, 2]],
            &[&[0, 1], &[1, 2], &[0, 2]],
            &[&[0, 1, 2], &[1, 3], &[2, 3]],
            &[&[0, 2], &[1, 2], &[0, 1, 3]],
            &[&[0, 1], &[2, 3]],
            &[&[0, 1], &[0, 1, 2]],
            &[&[0], &[0, 1], &[1]],
            &[&[0, 3], &[1, 3], &[2, 3], &[3]],
            &[&[0, 1, 2], &[1, 2, 3], &[0, 3]],
            &[&[0], &[1], &[2]],
            &[&[0, 1], &[0, 2], &[0, 3], &[1, 2], &[1, 3], &[2, 3]],
        ];
        for schemas in shapes {
            check_shape(schemas, &mut seed);
        }
    }

    /// Every numbering of a three-variable path and triangle: for four
    /// of the six the middle variable does not come second, so the
    /// order rule postpones an endpoint and some part is read through
    /// its re-sorted copy.
    #[test]
    fn multiway_join_every_variable_order() {
        let mut seed = 23u64;
        let perms: [[VarId; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let sorted = |a: VarId, b: VarId| [a.min(b), a.max(b)];
        for [x, y, z] in perms {
            let (xy, yz, xz) = (sorted(x, y), sorted(y, z), sorted(x, z));
            check_shape(&[&xy, &yz], &mut seed);
            check_shape(&[&xy, &yz, &xz], &mut seed);
        }
        // The order itself: the path with its middle variable last
        // binds 0, then 2 (which 0 reaches), then 1.
        let (a, b) = (rel(&[0, 2], &[&[1, 5]]), rel(&[1, 2], &[&[7, 5]]));
        assert_eq!(order_of(&[&a, &b], &[0, 1, 2], &[0, 1, 2]), [0, 2, 1]);
        // Kept variables go first where a part links them, in the keep
        // list's order; the rest ascending.
        let path = [&rel(&[0, 1], &[&[1, 7]]), &b, &rel(&[2, 3], &[&[5, 9]])];
        let schema = [0, 1, 2, 3];
        assert_eq!(order_of(&path, &schema, &[]), [0, 1, 2, 3]);
        assert_eq!(order_of(&path, &schema, &[2]), [2, 1, 0, 3]);
        assert_eq!(order_of(&path, &schema, &[3, 2]), [3, 2, 1, 0]);
        assert_eq!(order_of(&path, &schema, &[0, 3]), [0, 1, 2, 3]);
        assert_identical(
            &kernel(&[&a, &b], &[0, 1, 2]),
            &rel(&[0, 1, 2], &[&[1, 7, 5]]),
            "flipped path",
        );
    }

    #[test]
    fn multiway_join_empty_part_gives_empty() {
        let a = rel(&[0, 1], &[&[1, 2], &[2, 3]]);
        let b = FlatRelation::empty(vec![1, 2]);
        let out = kernel(&[&a, &b], &[0, 1, 2]);
        assert_eq!(out.schema(), &[0, 1, 2]);
        assert!(out.is_empty());
    }

    #[test]
    fn multiway_join_single_part_is_identity() {
        let a = rel(&[0, 1], &[&[1, 2], &[2, 3], &[5, 1]]);
        assert_identical(&kernel(&[&a], &[0, 1]), &a, "single part");
    }

    /// A 0-ary part binds nothing: "true" drops out of the join and
    /// "false" empties it, wherever it stands among the parts.
    #[test]
    fn multiway_join_nullary_parts() {
        let a = rel(&[0, 1], &[&[1, 2], &[2, 3]]);
        let b = rel(&[1, 2], &[&[2, 4], &[3, 1], &[3, 9]]);
        let (yes, no) = (FlatRelation::unit(), FlatRelation::empty(Vec::new()));
        let want = FlatRelation::reference_of(&[&a, &b], &[0, 1, 2]);
        assert_eq!(want.len(), 3);
        for parts in [[&yes, &a, &b], [&a, &yes, &b], [&a, &b, &yes]] {
            assert_identical(&kernel(&parts, &[0, 1, 2]), &want, "true part");
        }
        for parts in [[&no, &a, &b], [&a, &b, &no]] {
            let out = kernel(&parts, &[0, 1, 2]);
            assert_eq!(out.schema(), &[0, 1, 2]);
            assert!(out.is_empty(), "a false part empties the bag");
        }
        assert_eq!(kernel(&[&yes, &yes], &[]).len(), 1);
        assert_eq!(kernel(&[&yes, &no], &[]).len(), 0);
    }

    /// Cursor moves are linear in input plus output on a path bag,
    /// whichever variable carries the highest id.
    #[test]
    fn multiway_join_advances_are_linear_for_every_order() {
        let mut seed = 5u64;
        for (s1, s2) in [([0, 1], [1, 2]), ([0, 2], [1, 2]), ([0, 1], [0, 2])] {
            let mut rels = [
                random_rel(&s1, 3000, 400, &mut seed),
                random_rel(&s2, 3000, 400, &mut seed),
            ];
            for dense in [true, false] {
                for r in &mut rels {
                    r.domain_width = if dense { 400 } else { 0 };
                }
                let mut stats = MatCacheStats::default();
                let parts = [&rels[0], &rels[1]].into_iter();
                let out = multiway_join(parts, &[0, 1, 2], &mut stats);
                let linear = (rels[0].len() + rels[1].len() + out.len()) as u64;
                assert!(
                    stats.cursor_advances <= 4 * linear,
                    "{} advances for {linear} rows on {s1:?} {s2:?}",
                    stats.cursor_advances
                );
            }
        }
    }

    // ── first-column lookups, semijoins ─────────────────────────────

    /// A dense-coded relation: rows drawn from `[0, width)` with the
    /// width bound installed, as binder materialization would produce.
    fn dense_rel(schema: &[VarId], n: usize, width: u32, seed: u64) -> FlatRelation {
        let mut r = big_random_rel(schema, n, width, seed);
        canon(&mut r);
        r.domain_width = width;
        r
    }

    /// The semijoin by its definition: the rows of `target` whose
    /// `my_pos` columns are the `their_pos` columns of some row of
    /// `source` (a `BTreeSet` of those key tuples), in order, as one
    /// row-major buffer.
    fn semijoin_reference(
        target: &FlatRelation,
        my_pos: &[u32],
        source: &FlatRelation,
        their_pos: &[u32],
    ) -> Vec<Element> {
        let key = |row: &[Element], pos: &[u32]| pos.iter().map(|&i| row[i as usize]).collect();
        let keys: BTreeSet<Vec<Element>> = source.iter_rows().map(|r| key(r, their_pos)).collect();
        let hit = |row: &&[Element]| keys.contains(&key(row, my_pos));
        target.iter_rows().filter(hit).flatten().copied().collect()
    }

    /// A part probed below the first level finds runs through its
    /// offsets array when the dense bound is close to its row count and
    /// by searching its first column when the bound is sparse or
    /// absent; same bytes each way.
    #[test]
    fn multiway_join_with_direct_prefix_probe_matches_binary() {
        let mut seed = 17u64;
        let schemas: [&[VarId]; 3] = [&[0, 1], &[1, 2], &[0, 2]];
        let mut rels: Vec<FlatRelation> = schemas
            .iter()
            .map(|s| random_rel(s, 400, 60, &mut seed))
            .collect();
        for widths in [[60, 60, 60], [60, 4000, 60], [90, 60, 0], [0, 0, 0]] {
            for (r, w) in rels.iter_mut().zip(widths) {
                r.domain_width = w;
            }
            let parts: Vec<&FlatRelation> = rels.iter().collect();
            let dense = Trie::offsets_len(parts[1]) > 0;
            assert_eq!(dense, widths[1] == 60);
            let got = kernel(&parts, &[0, 1, 2]);
            let want = FlatRelation::reference_of(&parts, &[0, 1, 2]);
            assert!(!want.is_empty());
            assert_identical(&got, &want, &format!("widths {widths:?}"));
        }
    }

    /// The offsets array is the kernel's direct index over a part's
    /// first-column codes: a probe value beyond the probed part's own
    /// bound (the other part's is wider) is no slot of it and simply
    /// misses.
    #[test]
    fn direct_index_out_of_range_probe_misses() {
        let mut a = rel(&[0, 1], &[&[1, 2], &[1, 50]]);
        let mut b = rel(&[1, 2], &[&[2, 3], &[2, 4]]);
        (a.domain_width, b.domain_width) = (64, 5);
        assert!(Trie::offsets_len(&b) > 0);
        let want = rel(&[0, 1, 2], &[&[1, 2, 3], &[1, 2, 4]]);
        assert_identical(&kernel(&[&a, &b], &[0, 1, 2]), &want, "probe past 5");
    }

    /// The direct index costs `O(width)` to fill, so a part gets one
    /// only while its bound is at most 8× its rows; past that, and for
    /// every column after the first, runs are found by searching the
    /// sorted column — with the same bytes, on a three-column part
    /// entering below the first level.
    #[test]
    fn direct_index_memory_guard_and_multicolumn_fallback() {
        let mut seed = 29u64;
        let a = random_rel(&[0, 1], 60, 30, &mut seed);
        let mut b = random_rel(&[1, 2, 3], 60, 30, &mut seed);
        let guard = 8 * b.len() as u32;
        for (width, indexed) in [(guard, true), (guard + 1, false), (0, false)] {
            b.domain_width = width;
            assert_eq!(Trie::offsets_len(&b) > 0, indexed, "width {width}");
            for keep in [&[0, 1, 2, 3][..], &[3, 0], &[2]] {
                let want = FlatRelation::reference_of(&[&a, &b], keep);
                assert!(!want.is_empty());
                let ctx = format!("width {width}, keep {keep:?}");
                assert_identical(&kernel(&[&a, &b], keep), &want, &ctx);
            }
        }
    }

    // ── dictionary encoding ─────────────────────────────────────────

    /// Materialization through a non-identity dictionary stores dense
    /// codes; the decoded head-order boundary restores raw elements.
    #[test]
    fn binder_encodes_and_boundary_decodes() {
        use crate::parser::parse_cq;
        // adom = {1, 3, 5} of a universe of 6: codes 0, 1, 2.
        let d = Structure::digraph(6, &[(1, 3), (3, 5)]);
        let dict = d.domain_dict();
        assert!(!dict.is_identity());
        let q = parse_cq("Q(x, y) :- E(x, y)").unwrap();
        let mut out = FlatRelation::empty(vec![0, 1]);
        let mut words = Vec::new();
        AtomBinder::compile(&q.atoms()[0], &mut words).materialize_into(&words, &d, &mut out);
        canon(&mut out);
        assert_eq!(out.domain_width(), 3);
        assert_eq!(out.row(0), &[0, 1]); // (1,3) encoded
        assert_eq!(out.row(1), &[1, 2]); // (3,5) encoded
        let decoded = out.rows_in_head_order_decoded(&[0, 1], dict);
        assert_eq!(
            decoded,
            [vec![1, 3], vec![3, 5]]
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
    }

    // ── byte-accounted eviction ─────────────────────────────────────

    /// Three distinct single-atom keys. Parsed from **one** query:
    /// `RelId`s are per-query, so atoms parsed separately would all get
    /// `RelId(0)` and collide into one `MatKey`.
    fn three_keys() -> [MatKey; 3] {
        let q = crate::parser::parse_cq("Q() :- E(x, y), F(x, y), G(x, y)").unwrap();
        [
            MatKey::of_atom(&q.atoms()[0]),
            MatKey::of_atom(&q.atoms()[1]),
            MatKey::of_atom(&q.atoms()[2]),
        ]
    }

    fn wide_rel(rows: usize, tag: Element) -> FlatRelation {
        let mut r = FlatRelation::empty(vec![0, 1]);
        for i in 0..rows {
            r.push_row(&[i as Element, tag]);
        }
        canon(&mut r);
        r
    }

    /// Landing entries past the budget evicts cold ones; resident bytes
    /// track [`FlatRelation::heap_bytes`] exactly.
    #[test]
    fn eviction_keeps_resident_bytes_bounded() {
        let cache = MaterializationCache::new();
        let one = wide_rel(512, 0).heap_bytes();
        cache.set_budget_bytes(2 * one + one / 2); // room for two entries
        let keys = three_keys();
        for (i, k) in keys.iter().enumerate() {
            cache.get_or_materialize(k, || wide_rel(512, i as Element));
        }
        assert!(cache.resident_bytes() <= cache.budget_bytes());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        // The least recently used entry went first.
        assert_eq!(cache.peek_cardinality(&keys[0]), None);
        assert!(cache.peek_cardinality(&keys[2]).is_some());
    }

    /// Regression (single-flight slot lifecycle): an evicted key's
    /// `OnceLock` flight is gone with the entry, so a re-request
    /// *rebuilds* — it must neither deadlock on the stale landed cell
    /// nor serve the evicted value as a hit.
    #[test]
    fn evicted_entry_rebuilds_instead_of_deadlocking() {
        let cache = MaterializationCache::new();
        cache.set_budget_bytes(1); // everything evicts as soon as it lands
        let [key, _, _] = three_keys();
        let runs = std::sync::atomic::AtomicUsize::new(0);
        let build = || {
            runs.fetch_add(1, Ordering::SeqCst);
            wide_rel(64, 7)
        };
        let (r1, hit1) = cache.get_or_materialize(&key, build);
        assert!(!hit1);
        assert_eq!(cache.len(), 0, "entry evicted on landing");
        // Re-request: a fresh flight must run the builder again.
        let (r2, hit2) = cache.get_or_materialize(&key, build);
        assert!(!hit2, "evicted entry must not count as a hit");
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        assert_eq!(r1.data, r2.data, "rebuild is byte-identical");
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.resident_bytes(), 0);
    }

    /// A hit makes an entry the most recently used: the hot entry
    /// outlives colder, newer ones, and eviction follows the order of
    /// last use, not of landing.
    #[test]
    fn second_chance_spares_hot_entries() {
        let cache = MaterializationCache::new();
        let one = wide_rel(512, 0).heap_bytes();
        cache.set_budget_bytes(2 * one + one / 2);
        let [hot, cold, third] = three_keys();
        cache.get_or_materialize(&hot, || wide_rel(512, 0));
        cache.get_or_materialize(&cold, || wide_rel(512, 1));
        cache.get_or_materialize(&hot, || unreachable!("must hit")); // touch
        cache.get_or_materialize(&third, || wide_rel(512, 2));
        assert!(
            cache.peek_cardinality(&hot).is_some(),
            "touched entry survives"
        );
        assert_eq!(cache.peek_cardinality(&cold), None, "cold entry evicted");
        // Both resident entries hit, `b` before `a`: `b` is the least
        // recently used when `c` lands, not `c` itself.
        let cache = MaterializationCache::new();
        cache.set_budget_bytes(2 * one + one / 2);
        let [a, b, c] = three_keys();
        cache.get_or_materialize(&a, || wide_rel(512, 0));
        cache.get_or_materialize(&b, || wide_rel(512, 1));
        cache.get_or_materialize(&b, || unreachable!("must hit"));
        cache.get_or_materialize(&a, || unreachable!("must hit"));
        cache.get_or_materialize(&c, || wide_rel(512, 2));
        assert_eq!(
            cache.peek_cardinalities([&*a, &*b, &*c]),
            [Some(512), None, Some(512)]
        );
    }

    /// With no budget (the default) nothing ever evicts and the
    /// accounting still tracks resident bytes.
    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = MaterializationCache::new();
        let mut total = 0usize;
        for (i, k) in three_keys().iter().enumerate() {
            let (r, _) = cache.get_or_materialize(k, || wide_rel(256 << i, i as Element));
            total += r.heap_bytes();
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.resident_bytes(), total);
    }

    /// A panic under the cache's one lock poisons it; the cache still
    /// hits, misses, evicts and accounts its bytes as before.
    #[test]
    fn poisoned_locks_still_hit_miss_and_evict() {
        let cache = MaterializationCache::new();
        let one = wide_rel(512, 0).heap_bytes();
        let [a, b, c] = three_keys();
        let (_, first) = cache.get_or_materialize(&a, || wide_rel(512, 0));
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _map = cache.map.write().unwrap();
            panic!("a panic while the cache lock is held");
        }));
        assert!(poisoned.is_err() && cache.map.is_poisoned());
        let (_, missed) = cache.get_or_materialize(&b, || wide_rel(512, 1));
        let (_, hit) = cache.get_or_materialize(&a, || unreachable!("must hit"));
        assert!(hit && !first && !missed);
        cache.set_budget_bytes(2 * one + one / 2); // room for two entries
        let (kept, hit) = cache.get_or_materialize(&c, || wide_rel(512, 2));
        assert_eq!((hit, cache.evictions()), (false, 1));
        assert_eq!(
            cache.peek_cardinalities([&*a, &*b, &*c]),
            [Some(512), None, Some(512)]
        );
        assert_eq!(cache.resident_bytes(), 2 * kept.heap_bytes());
    }

    // ── bitmap existence kernels ────────────────────────────────────

    /// The bitmap semijoin (branch-free selection vector) is the arm
    /// that runs on a dense source, and it must be byte-identical to the
    /// semijoin by its definition — the reference join keeping the
    /// target's columns: same survivors, same order; the target keeps
    /// its width bound.
    #[test]
    fn bitmap_semijoin_is_bit_identical_to_probe() {
        for &(n, m, width) in &[
            (500usize, 300usize, 64u32),
            (3000, 2500, 900),
            (64, 6000, 40),
        ] {
            let a = dense_rel(&[0, 1], n, width, 31);
            let b = dense_rel(&[1, 2], m, width, 32);
            let mut stats = MatCacheStats::default();
            let mut via_bitmap = a.clone();
            via_bitmap.semijoin_on(&[1], &b, &[0], &mut stats);
            assert_eq!(stats.bitmap_probes, 1, "dense fixture takes the bitmap");
            let want = FlatRelation::reference_of(&[&a, &b], &a.schema);
            assert_eq!(via_bitmap.data, want.data, "semijoin bytes differ (n={n})");
            assert_eq!(via_bitmap.rows, want.rows);
            assert_eq!(via_bitmap.domain_width, a.domain_width);
        }
    }

    /// Bitmaps answer only existence, so they survive `sort_dedup` but
    /// must be dropped by any mutation that changes the value set —
    /// a stale cell would silently corrupt later semijoins.
    #[test]
    fn bitmaps_invalidate_on_mutation_and_survive_sort() {
        let mut r = dense_rel(&[0, 1], 200, 32, 77);
        let bm: *const DomainBitmap = r.column_bitmap(0).expect("dense fixture is eligible");
        canon(&mut r);
        assert!(
            std::ptr::eq(bm, r.column_bitmap(0).unwrap()),
            "sort_dedup keeps the cached cell"
        );
        // A clone taken before the mutation keeps the old (valid) cell.
        let snapshot = r.clone();
        r.push_row(&[31, 31]);
        let rebuilt = r.column_bitmap(0).expect("rebuilt after push_row");
        assert!(!std::ptr::eq(bm, rebuilt), "mutation must drop the cell");
        assert!(rebuilt.contains(31));
        assert!(std::ptr::eq(bm, snapshot.column_bitmap(0).unwrap()));
    }

    /// The join kernel keeps a known bound through a unit part, takes
    /// the largest when every part with a column carries one, and has
    /// none when a part's bound is unknown.
    #[test]
    fn join_keeps_domain_width_through_unit_and_unknown() {
        let unit = FlatRelation::unit();
        let dense = dense_rel(&[0, 1], 50, 16, 3);
        let joined = kernel(&[&unit, &dense], &[0, 1]);
        assert_eq!(joined.domain_width, 16, "unit ⋈ dense keeps the bound");
        let mut wider = dense_rel(&[1, 3], 50, 24, 4);
        assert_eq!(kernel(&[&dense, &wider], &[0, 3]).domain_width, 24);
        wider.domain_width = 0;
        let unknown = kernel(&[&dense, &wider], &[0, 3]);
        assert_eq!(unknown.domain_width, 0, "an unknown bound is none");
    }

    /// The columns of `r` whose bitmap has been built.
    fn built_columns(r: &FlatRelation) -> Vec<usize> {
        let cols = r.bitmaps.0.get().map_or(&[][..], |c| &c.0[..]);
        (0..cols.len())
            .filter(|&i| cols[i].get().is_some())
            .collect()
    }

    /// Every landed entry of `cache`, with its key.
    fn landed(cache: &MaterializationCache) -> Vec<(MatKey, Arc<FlatRelation>)> {
        let map = cache.map.read().unwrap();
        let entry = |(k, f): (&MatKey, &Arc<Flight<_>>)| Some((k.clone(), Arc::clone(f.landed()?)));
        map.iter().filter_map(entry).collect()
    }

    /// A landed entry is charged its rows, its schema and the word
    /// table of every eligible column before any bitmap exists; reading
    /// a column through one relabel changes no charge, and a second
    /// relabel reads the same bitmap. An ineligible relation is charged
    /// no table.
    #[test]
    fn cache_accounts_bitmap_bytes() {
        let cache = MaterializationCache::new();
        let [key, other, _] = three_keys();
        let (landed, _) = cache.get_or_materialize(&key, || dense_rel(&[0, 1], 512, 256, 8));
        assert!(landed.bitmap_eligible() && built_columns(&landed).is_empty());
        let raw = landed.data.capacity() * 4 + landed.schema.capacity() * 4;
        let tables = 2 * (256 / 64) * std::mem::size_of::<u64>();
        assert_eq!(cache.resident_bytes(), raw + tables);
        assert_eq!(landed.heap_bytes(), raw + tables);
        let first: *const DomainBitmap = landed.relabel(vec![5, 6]).column_bitmap(1).unwrap();
        assert_eq!(
            cache.resident_bytes(),
            raw + tables,
            "a read is not charged"
        );
        let second = landed.relabel(vec![7, 8]);
        assert!(std::ptr::eq(first, second.column_bitmap(1).unwrap()));
        assert_eq!(built_columns(&landed), [1]);
        // Codes under 2048 over 16 rows: past 64 codes a row.
        let (wide, _) = cache.get_or_materialize(&other, || dense_rel(&[0, 1], 16, 2048, 9));
        assert!(!wide.bitmap_eligible());
        let wide_raw = wide.data.capacity() * 4 + wide.schema.capacity() * 4;
        assert_eq!(wide.heap_bytes(), wide_raw);
        assert_eq!(cache.resident_bytes(), raw + tables + wide_raw);
    }

    /// No column is built at landing. A cold Boolean `C4` over bags,
    /// whose program has no semijoin, leaves every landed entry without
    /// a bitmap; a warm Boolean path sweep builds exactly the columns
    /// its semijoins read, each source's and each target's key column.
    #[test]
    fn landed_entries_build_only_the_columns_a_run_reads() {
        use crate::eval::{Op, TreePlan};
        use cqapx_structures::{StructureBuilder, Vocabulary};
        use std::collections::BTreeMap;
        // `u → u + 1` and `u → u − 3`: every vertex is on a 4-cycle.
        let edges: Vec<(u32, u32)> = (0..300u32)
            .flat_map(|u| [(u, (u + 1) % 300), (u, (u + 297) % 300)])
            .collect();
        let d = Structure::digraph(300, &edges);
        let c4 = crate::parser::parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap();
        let plan = TreePlan::within_width(&c4, 2).unwrap();
        let semijoin = |op: &Op| matches!(op, Op::Semijoin { .. });
        assert!(!plan.ir().ops().iter().any(semijoin));
        let cache = MaterializationCache::new();
        assert!(plan.ir().run_boolean(&d, Some(&cache), None).0);
        let entries = landed(&cache);
        assert!(entries.len() >= 2, "the edge relation and a bag");
        for (_, e) in &entries {
            assert!(e.bitmap_eligible(), "every entry could build bitmaps");
            assert_eq!(built_columns(e), [0usize; 0], "{:?}", e.schema());
        }

        let v = Vocabulary::new(vec![("R", 2), ("S", 2), ("T", 2)]);
        let mut b = StructureBuilder::new(v.clone(), 64);
        for (i, name) in ["R", "S", "T"].into_iter().enumerate() {
            for u in 0..64u32 {
                b.add(v.rel(name).unwrap(), &[u, (u * 5 + i as u32 + 1) % 64]);
            }
        }
        let d = b.finish();
        let rule = "Q() :- R(x, y), S(y, z), T(z, w)";
        let q = crate::parser::parse_cq_with_vocab(rule, &v).unwrap();
        let plan = TreePlan::join_tree(&q).unwrap();
        let ir = plan.ir();
        assert!(ir.reduction_decides());
        let cache = MaterializationCache::new();
        assert!(ir.run_boolean(&d, Some(&cache), None).0);
        let (holds, stats) = ir.run_boolean(&d, Some(&cache), None);
        assert!(holds && stats.hits == 3 && stats.bitmap_probes > 0);
        let key_of: BTreeMap<usize, &[u32]> = (ir.ops().iter())
            .filter_map(|op| match op {
                Op::Materialize { dst, source } => Some((*dst, ir.words(source.key))),
                _ => None,
            })
            .collect();
        let mut read = BTreeSet::new();
        for op in ir.ops() {
            if let Op::Semijoin {
                target,
                source,
                target_pos,
                source_pos,
            } = *op
            {
                read.insert((key_of[&source].to_vec(), ir.words(source_pos)[0] as usize));
                read.insert((key_of[&target].to_vec(), ir.words(target_pos)[0] as usize));
            }
        }
        let built: BTreeSet<(Vec<u32>, usize)> = (landed(&cache).into_iter())
            .flat_map(|(k, e)| built_columns(&e).into_iter().map(move |c| (k.to_vec(), c)))
            .collect();
        assert_eq!(built, read);
        assert!(built.len() < 6, "some column is never read");
    }

    /// Readers adopting one entry, each through its own relabel, read
    /// one column while other threads land and evict other keys under a
    /// budget of about two entries (the shared one among them). Every
    /// reader sees one bitmap, and at quiescence resident bytes are the
    /// charges of the entries still in the map.
    #[test]
    fn concurrent_first_reads_share_one_bitmap_under_eviction() {
        use std::sync::Barrier;
        let q = crate::parser::parse_cq("Q() :- A(x, y), B(x, y), C(x, y), D(x, y)").unwrap();
        let keys: Vec<MatKey> = q.atoms().iter().map(MatKey::of_atom).collect();
        let (shared, others) = keys.split_first().unwrap();
        let one = dense_rel(&[0, 1], 256, 256, 0).heap_bytes();
        let (readers, churners) = (3, 2);
        for seed in 0..300u64 {
            let cache = MaterializationCache::new();
            cache.set_budget_bytes(2 * one + one / 2);
            let col = (seed % 2) as usize;
            // The churn starts once every reader has adopted the entry,
            // so they share it; it may evict the entry while they read.
            let go = Barrier::new(readers + churners);
            let seen: Vec<(FlatRelation, usize)> = std::thread::scope(|s| {
                let (cache, go) = (&cache, &go);
                let read: Vec<_> = (0..readers as VarId)
                    .map(|r| {
                        s.spawn(move || {
                            let build = || dense_rel(&[0, 1], 256, 256, seed);
                            let (entry, _) = cache.get_or_materialize(shared, build);
                            go.wait();
                            let mine = entry.relabel(vec![10 + r, 20 + r]);
                            let at = mine.column_bitmap(col).unwrap() as *const _ as usize;
                            (mine, at)
                        })
                    })
                    .collect();
                for c in 0..churners as u64 {
                    s.spawn(move || {
                        go.wait();
                        for i in 0..4 {
                            let k = &others[((seed + c + i) % 3) as usize];
                            let build = || dense_rel(&[0, 1], 256, 256, seed ^ i);
                            let (entry, _) = cache.get_or_materialize(k, build);
                            entry.column_bitmap(((c + i) % 2) as usize);
                        }
                    });
                }
                read.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let at = seen[0].1;
            assert!(seen.iter().all(|(_, a)| *a == at), "seed {seed}");
            assert_eq!(
                seen[0].0.column_bitmap(col).unwrap() as *const _ as usize,
                at
            );
            let map = cache.map.read().unwrap();
            let charged: usize = map.values().map(|f| f.charge()).sum();
            assert_eq!(cache.resident_bytes(), charged, "seed {seed}");
            assert!(
                cache.resident_bytes() <= cache.budget_bytes(),
                "seed {seed}"
            );
        }
    }

    // ── packed code-word sorts ──────────────────────────────────────

    /// `sort_dedup` on rows that fit a word must leave exactly the
    /// bytes the comparison arm (`sort_dedup_cmp`, called directly)
    /// leaves, for every arity whose rows fit a word (`u32` and `u64`
    /// words, up to exactly 64 bits), including the duplicate-heavy,
    /// already-sorted-width-1 and empty cases — and the radix arm is
    /// the one that ran, once per unsorted input at any row count.
    #[test]
    fn packed_sort_dedup_is_byte_identical_to_comparison() {
        for &(schema, n, width) in &[
            (&[0][..], 900usize, 40u32),
            (&[0, 1][..], 2000, 64),
            (&[0, 1][..], 100, 64),
            (&[0, 1][..], 1500, 3), // duplicate-heavy
            (&[0, 1][..], 0, 16),
            (&[0, 1][..], 700, 1),                    // b = 0: one possible row
            (&[0, 1][..], 2000, 1 << 16),             // 32 bits: last u32 word
            (&[0, 1][..], 2000, (1 << 16) + 1),       // 34 bits: first u64 word
            (&[0, 1][..], 2000, u32::MAX),            // 64 bits at arity 2
            (&[0, 1, 2][..], 2000, 50),               // 18 bits, u32 words
            (&[0, 1, 2][..], 2000, 1 << 11),          // 33 bits: first u64 word
            (&[0, 1, 2][..], 2000, 4000),             // 36 bits, u64 words
            (&[0, 1, 2][..], 2000, 1 << 21),          // 63 bits
            (&[0, 1, 2, 3][..], 2000, 1 << 16),       // 64 bits
            (&[0, 1, 2, 3, 4, 5, 6, 7][..], 1200, 3), // 16 bits, duplicate-heavy
        ] {
            let mut radix = big_random_rel(schema, n, width.max(1), 17);
            radix.domain_width = width;
            let mut cmp = radix.clone();
            let mut stats = MatCacheStats::default();
            radix.sort_dedup(&mut stats);
            cmp.sort_dedup_cmp();
            let sorted = u64::from(n > 0);
            assert_eq!((stats.packed_sorts, stats.packed_rows), (sorted, n as u64));
            assert_eq!(radix.schema, cmp.schema);
            assert_eq!(radix.rows, cmp.rows, "row count (n={n} width={width})");
            assert_eq!(radix.data, cmp.data, "bytes differ (n={n} width={width})");
            assert_eq!(radix.domain_width, cmp.domain_width);
        }
        // Unbounded or wide relations never take the radix path: no
        // word holds their rows.
        let unbounded = big_random_rel(&[0, 1], 600, 50, 23);
        let mut wide = big_random_rel(&[0, 1, 2, 3, 4], 600, 50, 23);
        wide.domain_width = 1 << 13; // 5 × 13 = 65 bits
        assert!(!unbounded.packed_sort_wanted());
        assert!(!wide.packed_sort_wanted());
        let mut stats = MatCacheStats::default();
        unbounded.clone().sort_dedup(&mut stats);
        wide.clone().sort_dedup(&mut stats);
        assert_eq!(stats.packed_sorts, 0, "ineligible inputs skip the counter");
    }

    /// A canonical relation costs `sort_dedup` one pass on either arm —
    /// radix under a width bound, comparison with none — sorts nothing,
    /// and a buffer shared with a cache entry stays shared.
    #[test]
    fn canonical_rows_stay_shared_on_every_sort_arm() {
        let data: Vec<Element> = (0..100_000u32).flat_map(|i| [i / 300, i % 300]).collect();
        for width in [400, 0] {
            let mut cached = FlatRelation::from_raw(2, 100_000, data.clone(), width);
            cached.share_rows();
            assert_eq!(cached.packed_sort_wanted(), width > 0);
            let mut slot = cached.clone();
            let mut stats = MatCacheStats::default();
            slot.sort_dedup(&mut stats);
            assert!(slot.shares_rows_with(&cached), "width {width}");
            assert_eq!((slot.rows, stats.packed_sorts), (100_000, 0));
        }
    }

    /// The packing-width edges — `arity · b` = 32 (the last `u32`
    /// word), 33 (the first `u64` word) and 64 (the last word of all),
    /// at code widths 2¹⁶ and 2³² − 1 among them — through the sort,
    /// the projection and a join that drops nothing, on rows that reach
    /// every column's top bit and arrive ordered on their first column
    /// only (the shape the word sort's run path takes), against a plain
    /// set of rows.
    #[test]
    fn packing_width_edges_sort_and_project_like_a_set() {
        for (arity, width) in [
            (2usize, 1u32 << 16), // 32 bits
            (4, 1 << 8),          // 32 bits
            (3, 1 << 11),         // 33 bits
            (2, u32::MAX),        // 64 bits
            (4, 1 << 16),         // 64 bits
        ] {
            let top = width - 1;
            let values = [0, 1, top / 2, top - 1, top];
            let mut seed = 41u64;
            let mut rows: Vec<Vec<Element>> = (0..3000)
                .map(|_| {
                    (0..arity)
                        .map(|_| values[lcg(&mut seed) as usize % 5])
                        .collect()
                })
                .collect();
            rows.sort_by_key(|r| r[0]);
            let schema: Vec<VarId> = (0..arity as VarId).collect();
            let flat: Vec<Element> = rows.concat();
            // Heads: the columns reversed, and rotated by one.
            let heads: [Vec<VarId>; 2] = [
                schema.iter().rev().copied().collect(),
                schema.iter().cycle().skip(1).take(arity).copied().collect(),
            ];
            let mut stats = MatCacheStats::default();
            let what = format!("arity {arity}, width {width}");
            let mut rel = FlatRelation::from_raw(arity, rows.len(), flat.clone(), width);
            rel.sort_dedup(&mut stats);
            let want: BTreeSet<&[Element]> = rows.iter().map(Vec::as_slice).collect();
            assert!(rel.iter_rows().eq(want.iter().copied()), "sort: {what}");
            // Every value of column 0, so the join drops nothing.
            let all = FlatRelation::from_raw(1, 5, values.to_vec(), width);
            for head in &heads {
                let want: BTreeSet<Vec<Element>> = rows
                    .iter()
                    .map(|r| head.iter().map(|&v| r[v as usize]).collect())
                    .collect();
                let gathered = rel.project(head, &mut stats);
                let parts = [&rel, &all].into_iter();
                let joined = multiway_join(parts, head, &mut stats);
                for got in [gathered, joined] {
                    assert_eq!(got.rows, want.len(), "project: {what}");
                    let want = want.iter().map(Vec::as_slice);
                    assert!(got.iter_rows().eq(want), "project: {what}");
                }
            }
        }
    }

    // ── domain-width propagation (packed eligibility audit) ─────────

    /// Regression: a projection that drops the high column must keep
    /// the low column's `domain_width` — the gather and a one-part
    /// kernel call alike — or downstream packed sorts lose their
    /// eligibility for no reason.
    #[test]
    fn projection_keeps_domain_width_on_surviving_columns() {
        let r = dense_rel(&[0, 1], 300, 24, 9);
        for vars in [&[0][..], &[1][..], &[1, 0][..]] {
            let p = r.project(vars, &mut MatCacheStats::default());
            assert_eq!(p.domain_width(), 24, "project {vars:?}");
            assert_eq!(kernel(&[&r], vars).domain_width(), 24, "kernel {vars:?}");
        }
    }

    /// A duplicate-free relation over `schema` whose codes stay below
    /// `width` (the declared bound; `0` declares none) and reach its
    /// top bit.
    fn bounded_rel(schema: &[VarId], rows: usize, width: u32, seed: &mut u64) -> FlatRelation {
        let dom = u64::from(if width == 0 { 50 } else { width });
        let data: Vec<Element> = (0..rows * schema.len())
            .map(|_| ((lcg(seed) * 3) % dom) as Element)
            .collect();
        let mut r =
            FlatRelation::from_raw(schema.len(), rows, data, width).relabel(schema.to_vec());
        canon(&mut r);
        r
    }

    /// Shared-target and owned-target semijoins must leave the reference
    /// bytes, and the shared original untouched, on both arms (one key
    /// column against a bounded source: the bitmap, which is counted;
    /// against the same rows with no bound, or a wider key: the kernel), with
    /// the key leading and trailing each schema, for each outcome. A
    /// shared target stays shared exactly when nothing drops.
    #[test]
    fn semijoin_on_shared_rows_matches_owned_rows() {
        let mut seed = 16;
        let target = bounded_rel(&[0, 1, 2], 6000, 24, &mut seed);
        let cached = {
            let mut t = target.clone();
            t.share_rows();
            t
        };
        let all = target.clone();
        // Half the codes per column, so every key width filters.
        let some = {
            let mut r = bounded_rel(&[0, 1, 2], 900, 12, &mut seed);
            r.domain_width = 24;
            r
        };
        let none = {
            let mut r = bounded_rel(&[0, 1, 2], 40, 24, &mut seed);
            r.data.make_mut().iter_mut().for_each(|e| *e += 24);
            r.domain_width = 48;
            r
        };
        let empty = bounded_rel(&[0, 1, 2], 0, 24, &mut seed);
        for (source, what) in [
            (&all, "all"),
            (&some, "some"),
            (&none, "none"),
            (&empty, "empty"),
        ] {
            for (keys, lead) in (0..=3u32).flat_map(|k| [(k, true), (k, false)]) {
                let pos: Vec<u32> = if lead {
                    (0..keys).collect()
                } else {
                    (3 - keys..3).collect()
                };
                let want = semijoin_reference(&target, &pos, source, &pos);
                for bounded in [true, false] {
                    let mut source = source.clone();
                    if !bounded {
                        source.domain_width = 0;
                    }
                    let mut stats = MatCacheStats::default();
                    let mut owned = target.clone();
                    owned.semijoin_on(&pos, &source, &pos, &mut stats);
                    let mut shared = cached.clone();
                    assert!(shared.shares_rows_with(&cached));
                    shared.semijoin_on(&pos, &source, &pos, &mut stats);
                    let ctx = format!("{what} source, key {pos:?}, bounded {bounded}");
                    let bitmap = u64::from(keys == 1 && bounded);
                    assert_eq!(stats.bitmap_probes, 2 * bitmap, "{ctx}");
                    assert_eq!(*owned.data, want, "{ctx}");
                    assert_eq!(owned.rows, shared.rows, "{ctx}");
                    assert_eq!(owned.data, shared.data, "{ctx}");
                    assert_eq!(cached.data, target.data, "{ctx}: cached rows changed");
                    let kept_all = owned.rows == target.rows;
                    assert_eq!(shared.shares_rows_with(&cached), kept_all, "{ctx}");
                    assert_eq!(
                        kept_all,
                        what == "all" || (keys == 0 && what != "empty"),
                        "{ctx}"
                    );
                    if what == "some" && keys > 0 {
                        assert!(0 < owned.rows && owned.rows < target.rows, "{ctx}");
                    }
                }
            }
        }
    }

    /// The kernel arm against the reference filter: keys of one, two
    /// and three columns at every placement in a four-column target and
    /// in a four-column source (leading, trailing, interleaved, out of
    /// order across the two), dense bounds and none, an empty source and
    /// an empty target; then a large two-column case. A bounded source's
    /// bound is padded past 64 codes a row, so no column bitmap answers
    /// a one-column key: bitmaps stay unread throughout.
    #[test]
    fn semijoin_kernel_matches_reference_filter() {
        let mut stats = MatCacheStats::default();
        let sparse = |width: u32| if width == 0 { 0 } else { 64 * 200 + 1 };
        let mut seed = 61;
        let placements = |k: usize| -> Vec<Vec<u32>> {
            (0..16usize)
                .map(|m| (0..4).filter(|i| m >> i & 1 == 1).collect())
                .filter(|p: &Vec<u32>| p.len() == k)
                .collect()
        };
        for width in [7u32, 0] {
            // The source draws from fewer codes, so every key filters.
            let target = bounded_rel(&[0, 1, 2, 3], 500, width, &mut seed);
            let mut source = bounded_rel(&[10, 11, 12, 13], 200, 4, &mut seed);
            source.domain_width = sparse(width);
            let empty = bounded_rel(&[10, 11, 12, 13], 0, sparse(width), &mut seed);
            let none = bounded_rel(&[0, 1, 2, 3], 0, width, &mut seed);
            for k in 1..=3 {
                for mine in placements(k) {
                    for theirs in placements(k) {
                        // Also pair the key columns in reverse.
                        let reversed: Vec<u32> = theirs.iter().rev().copied().collect();
                        for theirs in [theirs.clone(), reversed] {
                            for (t, s) in [(&target, &source), (&target, &empty), (&none, &source)]
                            {
                                let mut got = t.clone();
                                got.semijoin_on(&mine, s, &theirs, &mut stats);
                                let want = semijoin_reference(t, &mine, s, &theirs);
                                let ctx = format!("width {width}, {mine:?} ⋉ {theirs:?}");
                                assert_eq!(*got.data, want, "{ctx}");
                                assert_eq!(got.rows * 4, want.len(), "{ctx}");
                                assert_eq!(got.domain_width, t.domain_width, "{ctx}");
                            }
                        }
                    }
                }
            }
        }
        let target = bounded_rel(&[0, 1, 2], 12_000, 400, &mut seed);
        let source = bounded_rel(&[3, 2, 1], 9_000, 200, &mut seed);
        let want = semijoin_reference(&target, &[1, 2], &source, &[2, 1]);
        assert!(!want.is_empty() && want.len() < target.data.len());
        let mut got = target.clone();
        got.semijoin_on(&[1, 2], &source, &[2, 1], &mut stats);
        assert_eq!(*got.data, want, "large two-column key");
        assert_eq!(stats.bitmap_probes, 0);
    }

    /// The two-part kernel join on large operands, under every keep
    /// list shape — a projection that needs the sort, the whole join
    /// reordered, one column, nothing — against the reference join.
    #[test]
    fn fused_join_project_matches_two_steps_in_parallel() {
        let mut seed = 5;
        let l = bounded_rel(&[0, 1, 2], 9000, 300, &mut seed);
        let r = bounded_rel(&[1, 3], 7000, 300, &mut seed);
        for vars in [&[0, 3][..], &[3, 2, 0, 1], &[2], &[]] {
            let want = FlatRelation::reference_of(&[&l, &r], vars);
            assert_identical(&kernel(&[&l, &r], vars), &want, &format!("vars {vars:?}"));
        }
    }

    // ── word output ─────────────────────────────────────────────────

    /// Duplicate-free rows over `schema` under the bound `width`: key
    /// variables (`< 10`) drawn from the first `keys` codes so that two
    /// sides meet, the others from the whole bound, the top code often.
    fn word_rel(
        schema: &[VarId],
        rows: usize,
        width: u32,
        keys: u32,
        seed: &mut u64,
    ) -> FlatRelation {
        let mut data = Vec::with_capacity(rows * schema.len());
        for i in 0..rows * schema.len() {
            let dom = if schema[i % schema.len()] < 10 {
                keys
            } else {
                width
            };
            let x = lcg(seed) as u32;
            data.push(if x.is_multiple_of(8) {
                dom - 1
            } else {
                x % dom
            });
        }
        let mut r =
            FlatRelation::from_raw(schema.len(), rows, data, width).relabel(schema.to_vec());
        canon(&mut r);
        r
    }

    /// `π_vars(l ⋈ r)` by the kernel against the reference join —
    /// schema, rows in order, bound. Rows that need the sort are written
    /// as code words when they fit a `u32` one, and as rows otherwise.
    fn check_word_join(l: &FlatRelation, r: &FlatRelation, vars: &[VarId], ctx: &str) {
        let want = FlatRelation::reference_of(&[l, r], vars);
        let got = multiway_join([l, r].into_iter(), vars, &mut MatCacheStats::default());
        assert_identical(&got, &want, ctx);
        assert_eq!(got.domain_width, want.domain_width, "{ctx}");
    }

    /// Two-part joins whose kept columns need the sort — a key
    /// variable dropped before a kept one — match the reference join on
    /// one- and two-column keys, with rows that fit a `u32` word, rows
    /// that the sort packs into `u64` words (at both packing
    /// boundaries) and rows too wide for a word, kept columns of
    /// `l` only (10, 11), of `r` only (20, 21) and interleaved, keys of
    /// one side past the other's bound, and an empty side; in both
    /// operand orders.
    #[test]
    fn word_join_matches_join_then_project() {
        let mut seed = 23;
        let (wide, past) = ((1 << 16) + 1, (1 << 21) + 1);
        // (left bound, right bound, kept variables); the comment gives
        // the word's bits.
        let cases: [(u32, u32, &[VarId]); 12] = [
            (300, 300, &[10, 20]),                 // 18
            (300, 300, &[10, 20, 11]),             // 27
            (300, 300, &[20, 10, 21, 11]),         // 36
            (300, 300, &[11, 1, 20]),              // 27
            (300, 600, &[10, 20, 11]),             // right keys past 300
            (1 << 16, 1 << 16, &[10, 20]),         // 32, u32
            (1 << 16, 1 << 16, &[10, 11, 20, 21]), // 64
            (1 << 16, 1 << 16, &[10, 20, 11]),     // 48
            (wide, wide, &[20, 10]),               // 34
            (1 << 21, 1 << 21, &[20, 10, 21]),     // 63
            (past, past, &[10, 20, 11]),           // 66: rows
            (past, past, &[20, 10]),               // 44
        ];
        for key in [&[1][..], &[1, 2]] {
            let keys = if key.len() == 1 { 300 } else { 40 };
            let schema = |private: [VarId; 2]| {
                let mut s = vec![private[0]];
                s.extend_from_slice(key);
                s.push(private[1]);
                s
            };
            for &(bw, pw, vars) in &cases {
                let l = word_rel(&schema([10, 11]), 1000, bw, keys, &mut seed);
                let r = word_rel(&schema([20, 21]), 4200, pw, keys * pw / bw, &mut seed);
                for (x, y) in [(&l, &r), (&r, &l)] {
                    let ctx = format!("key {key:?}, bounds {bw}/{pw}, vars {vars:?}");
                    check_word_join(x, y, vars, &ctx);
                }
            }
            let empty = word_rel(&schema([10, 11]), 0, 300, keys, &mut seed);
            let r = word_rel(&schema([20, 21]), 4200, 300, keys, &mut seed);
            for vars in [&[10, 20][..], &[20, 21]] {
                check_word_join(&empty, &r, vars, "empty side");
                check_word_join(&r, &empty, vars, "empty side, swapped");
            }
        }
    }

    /// `wedge3`'s and `two_hop`'s joins, `π_{x,y,z}` and `π_{x,z}` of
    /// `E(x,y) ⋈ E(y,z)`: the first binds its kept variables in order
    /// and writes canonical rows with no sort — no row goes through a
    /// radix sort — and the second, with `y` dropped before `z`, writes
    /// one code word per match, `x` leading, and sorts those — short
    /// runs of equal `x`. Counted on the call's packed counters, not
    /// timed.
    #[test]
    fn canonical_probe_emits_canonical_words() {
        let n = 600u32;
        let mut e = FlatRelation::empty(vec![0, 1]);
        for u in 0..n {
            for k in 1..=8 {
                e.push_row(&[u, (u * 7 + k * 13) % n]);
            }
        }
        canon(&mut e);
        e.domain_width = n;
        let (xy, yz) = (e.relabel(vec![0, 1]), e.relabel(vec![1, 2]));
        for (vars, sorted) in [(&[0, 1, 2][..], 0), (&[0, 2], u64::from(8 * 8 * n))] {
            let mut stats = MatCacheStats::default();
            let parts = [&yz, &xy].into_iter();
            let got = multiway_join(parts, vars, &mut stats);
            assert_identical(
                &got,
                &FlatRelation::reference_of(&[&xy, &yz], vars),
                "wedge",
            );
            let words = (stats.packed_sorts, stats.packed_rows);
            assert_eq!(words, (u64::from(sorted > 0), sorted), "vars {vars:?}");
        }
    }

    /// Widths on both sides of every packing edge of the kernel's word
    /// output: `2b`, `3b`, `4b` at and past 32 and 64 bits, plus "no
    /// bound".
    const WIDTHS: [u32; 10] = [
        0,
        3,
        300,
        1 << 16,
        (1 << 16) + 1,
        1 << 21,
        (1 << 21) + 1,
        1 << 31,
        (1 << 31) + 1,
        u32::MAX,
    ];
    /// Row counts from none to several hundred.
    const SIZES: [usize; 7] = [0, 1, 9, 200, 511, 512, 700];

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The two-part kernel join ≡ the reference join, with the same
        /// schema and the same width bound, on random duplicate-free
        /// operands and keep lists (subsets, the identity, repeats
        /// collapsed, nothing); and the projection of the whole join
        /// onto the keep list is the same set.
        #[test]
        fn fused_join_project_matches_join_then_project(
            arities in (1..=4usize, 1..=4usize, 0..=2usize),
            widths in (0..WIDTHS.len(), 0..WIDTHS.len()),
            sizes in (0..SIZES.len(), 0..SIZES.len()),
            keep in proptest::collection::vec(0..8usize, 0..=5),
            identity in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let (la, ra, shared) = arities;
            let shared = shared.min(la).min(ra);
            let mut seed = seed;
            let left: Vec<VarId> = (0..la as VarId).collect();
            // The right side reuses `shared` of the left's variables,
            // from the back, then brings its own.
            let right: Vec<VarId> = (0..ra)
                .map(|j| if j < shared { (la - 1 - j) as VarId } else { (10 + j) as VarId })
                .collect();
            // A cartesian product of two large sides is no test of the
            // kernel; keep it small.
            let cap = if shared == 0 { 40 } else { usize::MAX };
            let l = bounded_rel(&left, SIZES[sizes.0].min(cap), WIDTHS[widths.0], &mut seed);
            let r = bounded_rel(&right, SIZES[sizes.1].min(cap), WIDTHS[widths.1], &mut seed);
            let mut schema = left.clone();
            schema.extend(right.iter().filter(|v| !left.contains(v)));
            let mut vars: Vec<VarId> = Vec::new();
            let picks = if identity { schema.clone() } else {
                keep.iter().map(|&k| schema[k % schema.len()]).collect()
            };
            for v in picks {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            let want = FlatRelation::reference_of(&[&l, &r], &vars);
            let mut stats = MatCacheStats::default();
            let parts = [&l, &r].into_iter();
            let got = multiway_join(parts, &vars, &mut stats);
            prop_assert_eq!(&got.schema, &want.schema);
            prop_assert_eq!(got.domain_width, want.domain_width);
            prop_assert_eq!(got.rows, want.rows);
            prop_assert_eq!(&got.data, &want.data);
            // The gather over the whole join keeps the same set.
            let alone = FlatRelation::reference_of(&[&l, &r], &schema).project(&vars, &mut stats);
            prop_assert_eq!(&alone.data, &want.data);
        }
    }
}
