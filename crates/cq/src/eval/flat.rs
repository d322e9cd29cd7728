//! The columnar join kernel: flat row-buffer relations and the
//! compile-once machinery ([`AtomBinder`], [`MatKey`],
//! [`MaterializationCache`]) the Yannakakis pipeline runs on.
//!
//! The seed pipeline kept relations as `HashSet<Vec<Element>>`: every
//! semijoin/join/projection allocated a fresh key `Vec` per row and paid
//! a SipHash pass over it. A [`FlatRelation`] instead stores all rows in
//! **one contiguous buffer** (`rows × arity` elements, row-major) and
//! keys rows by hashing the relevant columns in place with the FxHash
//! mixer; duplicate elimination is a lexicographic sort + dedup over row
//! indices rather than per-row set insertion, and a semijoin leaves the
//! relation untouched when every row survives. The only
//! allocations on the hot path are the (reused, chain-linked) key index
//! and the output buffers of joins/projections. Rows that landed in a
//! [`MaterializationCache`] are shared, not copied, by every plan slot
//! that adopts them (see [`FlatRelation::relabel`]).
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
//! sorted within them. The one multiway kernel, `multiway_join`, joins
//! the parts of a decomposition bag — or a tree node with its
//! children's partials — by walking such tries with cursors, variable
//! by variable, in an order it picks from the part schemas and the
//! list of variables to keep, and writes the kept columns in canonical
//! form — at the exact size when the last variable is kept and has a
//! single part, and without looking past the first witness for
//! variables that are not.

use crate::ast::{Atom, VarId};
use crate::eval::answers::Answers;
use cqapx_par::{parallel_chunks, parallel_map, DisjointWriter, ThreadBudget};
use cqapx_structures::fxhash::{FxHashMap, FxHasher};
use cqapx_structures::packed::{pack2, radix_dedup, radix_dedup_u32, radix_sort_pairs};
use cqapx_structures::{DomainBitmap, DomainDict, Element, RelId, Structure};
use std::collections::{BTreeSet, VecDeque};
use std::hash::Hasher;
use std::ops::{BitOr, Shl};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Minimum rows before a kernel even consults the thread budget:
/// below this, thread spawn/join overhead dwarfs the scan, so small
/// relations always take the sequential path (and never touch the
/// budget's atomics).
const PAR_MIN_ROWS: usize = 4096;

/// Rows per morsel for parallel scans: big enough that one atomic
/// claim amortizes over thousands of rows, small enough that the tail
/// of an uneven workload still load-balances.
const MORSEL_ROWS: usize = 2048;

/// How many extra workers a kernel asks the budget for: one per morsel
/// beyond the caller's own, capped so a single huge relation cannot
/// drain the whole budget from concurrent requests.
fn par_want(rows: usize) -> usize {
    (rows / MORSEL_ROWS).saturating_sub(1).min(31)
}

/// Minimum rows before [`PackedMode::Auto`] routes a relation through
/// the packed code-word kernels: below this the comparison sort /
/// hashed build is already a handful of microseconds and the radix
/// passes' fixed costs (histograms, scratch buffer) dominate.
const PACKED_MIN_ROWS: usize = 512;

/// Runtime switch for the direct-addressed single-column index: `0` =
/// consult `CQAPX_DIRECT_INDEX` (default on), `1` = forced on, `2` =
/// forced off. Process-global so benchmarks and differential tests can
/// compare both index representations within one process.
static DIRECT_INDEX_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces the direct-addressed index on or off for the whole process,
/// overriding the `CQAPX_DIRECT_INDEX` environment default. Both index
/// representations produce byte-identical join outputs; this
/// knob exists for benchmarking and differential testing.
pub fn set_direct_index_enabled(on: bool) {
    DIRECT_INDEX_OVERRIDE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

fn direct_index_enabled() -> bool {
    match DIRECT_INDEX_OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            static FROM_ENV: OnceLock<bool> = OnceLock::new();
            *FROM_ENV.get_or_init(|| {
                std::env::var("CQAPX_DIRECT_INDEX")
                    .map(|v| !(v == "0" || v.eq_ignore_ascii_case("off")))
                    .unwrap_or(true)
            })
        }
    }
}

/// Policy for the word-parallel bitmap existence kernels over dense
/// codes (the `CQAPX_BITMAP` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitmapMode {
    /// Bitmaps wherever the existence predicate is a clear win; the
    /// density-adaptive choice (bitmap AND vs galloping search) in the
    /// WCOJ kernel's top-level intersection.
    Auto,
    /// Bitmaps wherever eligible, ignoring the density threshold.
    On,
    /// No bitmaps: every existence test goes through the multiway
    /// kernel or a key index.
    Off,
}

/// Runtime switch for the bitmap existence kernels: `0` = consult
/// `CQAPX_BITMAP` (default auto), otherwise a forced [`BitmapMode`].
/// Process-global so benchmarks and differential tests can compare the
/// bitmap and probe kernels within one process, mirroring
/// [`set_direct_index_enabled`].
static BITMAP_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces the bitmap existence kernels to a mode for the whole
/// process, overriding the `CQAPX_BITMAP` environment default. All
/// modes produce byte-identical outputs — bitmaps only answer
/// existence, never ordering — so this knob exists for benchmarking
/// and differential testing.
pub fn set_bitmap_mode(mode: BitmapMode) {
    let v = match mode {
        BitmapMode::Auto => 1,
        BitmapMode::On => 2,
        BitmapMode::Off => 3,
    };
    BITMAP_OVERRIDE.store(v, Ordering::Relaxed);
}

pub(crate) fn bitmap_mode() -> BitmapMode {
    match BITMAP_OVERRIDE.load(Ordering::Relaxed) {
        1 => BitmapMode::Auto,
        2 => BitmapMode::On,
        3 => BitmapMode::Off,
        _ => {
            static FROM_ENV: OnceLock<BitmapMode> = OnceLock::new();
            *FROM_ENV.get_or_init(|| match std::env::var("CQAPX_BITMAP").as_deref() {
                Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => BitmapMode::Off,
                Ok(v) if v == "1" || v.eq_ignore_ascii_case("on") => BitmapMode::On,
                _ => BitmapMode::Auto,
            })
        }
    }
}

/// Policy for the packed code-word kernels over dense codes (the
/// `CQAPX_PACKED` knob): radix sort-dedup and radix-partitioned join
/// indexes, over rows or keys packed into single `u64` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedMode {
    /// Packed kernels wherever the per-relation heuristic (arity,
    /// dense width, row count) predicts a win.
    Auto,
    /// Packed kernels wherever packing is legal, ignoring the row
    /// threshold.
    On,
    /// No packing: comparison sorts and hashed/direct indexes only.
    Off,
}

/// Runtime switch for the packed code-word kernels: `0` = consult
/// `CQAPX_PACKED` (default auto), otherwise a forced [`PackedMode`].
/// Process-global so benchmarks and differential tests can compare the
/// packed and generic kernels within one process, mirroring
/// [`set_bitmap_mode`].
static PACKED_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces the packed code-word kernels to a mode for the whole
/// process, overriding the `CQAPX_PACKED` environment default. All
/// modes produce byte-identical outputs — packing is monotone, so the
/// radix order is the canonical row order, and packed join groups
/// reproduce the hashed probe order exactly — so this knob exists for
/// benchmarking and differential testing.
pub fn set_packed_mode(mode: PackedMode) {
    let v = match mode {
        PackedMode::Auto => 1,
        PackedMode::On => 2,
        PackedMode::Off => 3,
    };
    PACKED_OVERRIDE.store(v, Ordering::Relaxed);
}

pub(crate) fn packed_mode() -> PackedMode {
    match PACKED_OVERRIDE.load(Ordering::Relaxed) {
        1 => PackedMode::Auto,
        2 => PackedMode::On,
        3 => PackedMode::Off,
        _ => {
            static FROM_ENV: OnceLock<PackedMode> = OnceLock::new();
            *FROM_ENV.get_or_init(|| match std::env::var("CQAPX_PACKED").as_deref() {
                Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => PackedMode::Off,
                Ok(v) if v == "1" || v.eq_ignore_ascii_case("on") => PackedMode::On,
                _ => PackedMode::Auto,
            })
        }
    }
}

/// Test-only: serializes tests (across this crate's modules) that read
/// or flip the process-global kernel knobs, so a forced window in one
/// test cannot leak into another's assertions.
#[cfg(test)]
pub(crate) fn knob_guard() -> std::sync::MutexGuard<'static, ()> {
    static KNOB: Mutex<()> = Mutex::new(());
    KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

/// Test-only: returns the bitmap knob to its env-driven default.
#[cfg(test)]
pub(crate) fn reset_bitmap_override() {
    BITMAP_OVERRIDE.store(0, Ordering::Relaxed);
}

/// Test-only: returns the packed knob to its env-driven default.
#[cfg(test)]
pub(crate) fn reset_packed_override() {
    PACKED_OVERRIDE.store(0, Ordering::Relaxed);
}

/// Column bitmaps built this process (one per (relation, column)).
static BITMAP_BUILDS: AtomicU64 = AtomicU64::new(0);
/// Kernel dispatches answered by a bitmap instead of an index probe.
static BITMAP_PROBES: AtomicU64 = AtomicU64::new(0);
/// Word-table bytes of all currently live column bitmaps.
static BITMAP_RESIDENT: AtomicUsize = AtomicUsize::new(0);

/// Process-wide counters of the bitmap existence kernels, surfaced in
/// `Engine::snapshot()` and `examples/engine_metrics.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitmapStats {
    /// Column bitmaps built since process start.
    pub builds: u64,
    /// Kernel dispatches (semijoins, sweeps, WCOJ intersections) that
    /// ran on bitmaps instead of per-row index probes.
    pub probes: u64,
    /// Word-table bytes of all currently live column bitmaps.
    pub resident_bytes: usize,
}

/// The current process-wide bitmap counters.
pub fn bitmap_stats() -> BitmapStats {
    BitmapStats {
        builds: BITMAP_BUILDS.load(Ordering::Relaxed),
        probes: BITMAP_PROBES.load(Ordering::Relaxed),
        resident_bytes: BITMAP_RESIDENT.load(Ordering::Relaxed),
    }
}

/// Counts one bitmap-kernel dispatch (also from the plan IR's Boolean
/// sweep, which lives in a sibling module).
pub(crate) fn note_bitmap_probe() {
    BITMAP_PROBES.fetch_add(1, Ordering::Relaxed);
}

/// Counts one transient bitmap build (the Boolean sweep's live-row
/// rebuilds, which never become resident).
pub(crate) fn note_bitmap_build() {
    BITMAP_BUILDS.fetch_add(1, Ordering::Relaxed);
}

/// Packed structures built this process (radix-sorted row sets and
/// radix-partitioned join indexes).
static PACKED_BUILDS: AtomicU64 = AtomicU64::new(0);
/// Rows that flowed through a packed kernel (sorted, indexed, or
/// probed as code words).
static PACKED_ROWS: AtomicU64 = AtomicU64::new(0);

/// Process-wide counters of the packed code-word kernels
/// (`CQAPX_PACKED`), surfaced in `Engine::snapshot()` and
/// `examples/engine_metrics.rs`. Packed structures are transient —
/// built inside one kernel dispatch, dropped with it — so unlike the
/// bitmaps there is no resident-bytes gauge to report (and cache byte
/// accounting is untouched by the knob).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedStats {
    /// Packed structures built since process start (radix sorts and
    /// partitioned join indexes).
    pub builds: u64,
    /// Rows processed through packed kernels.
    pub rows: u64,
}

/// The current process-wide packed-kernel counters.
pub fn packed_stats() -> PackedStats {
    PackedStats {
        builds: PACKED_BUILDS.load(Ordering::Relaxed),
        rows: PACKED_ROWS.load(Ordering::Relaxed),
    }
}

/// Counts one packed-kernel dispatch over `rows` rows.
fn note_packed(rows: usize) {
    PACKED_BUILDS.fetch_add(1, Ordering::Relaxed);
    PACKED_ROWS.fetch_add(rows as u64, Ordering::Relaxed);
}

/// The lazily-built per-column existence bitmaps of one relation,
/// shared by clones through an `Arc` (the [`cqapx_structures::dict`]
/// `DictCell` pattern). Derived data: invisible to the relation's
/// logical value, rebuilt from scratch after any mutation.
#[derive(Debug)]
struct ColumnBitmaps {
    cols: Vec<OnceLock<Arc<DomainBitmap>>>,
}

impl ColumnBitmaps {
    fn new(arity: usize) -> Self {
        ColumnBitmaps {
            cols: (0..arity).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Word-table bytes of the columns built so far.
    fn heap_bytes(&self) -> usize {
        self.cols
            .iter()
            .filter_map(|c| c.get())
            .map(|b| b.heap_bytes())
            .sum()
    }
}

impl Drop for ColumnBitmaps {
    fn drop(&mut self) {
        let bytes = self.heap_bytes();
        if bytes > 0 {
            BITMAP_RESIDENT.fetch_sub(bytes, Ordering::Relaxed);
        }
    }
}

/// The clone-shared slot holding a relation's [`ColumnBitmaps`].
/// Mutating operations replace the whole cell with a fresh one
/// (clones keep the old, still-valid bitmaps); `relabel` and `clone`
/// share it — same rows, same bitmaps.
#[derive(Debug, Default)]
struct BitmapCell(OnceLock<Arc<ColumnBitmaps>>);

impl Clone for BitmapCell {
    fn clone(&self) -> Self {
        BitmapCell(self.0.clone())
    }
}

/// Cached sorted word image of an arity-≤2 relation's rows (derived
/// data, like [`BitmapCell`] but order-sensitive): the packed radix
/// sort leaves its sorted distinct key words here so the packed merge
/// intersection can reuse them without re-packing, and the merge
/// stashes its surviving words back for the next part of a multi-part
/// build. Dropped by every mutation ([`FlatRelation::invalidate_bitmaps`]
/// doubles as the derived-data invalidation point), never cloned (a
/// clone re-derives on demand), and never counted by
/// [`FlatRelation::heap_bytes`] — bag materialization drops it before
/// a relation can land in a cache, so the image stays transient and
/// cache byte accounting is identical across packed modes.
#[derive(Debug, Default)]
struct WordsCell(Option<PackedWords>);

impl Clone for WordsCell {
    fn clone(&self) -> Self {
        WordsCell(None)
    }
}

/// A tight packed word image at per-column bit width `b`: `u32` words
/// when both columns fit one half (`2b ≤ 32`), `u64` words otherwise.
#[derive(Debug)]
enum PackedWords {
    /// Words `hi << b | lo` with `2b ≤ 32`.
    W32 {
        /// Per-column bit width the words were packed with.
        b: u32,
        /// Sorted distinct words, one per row.
        keys: Vec<u32>,
    },
    /// Words `hi << b | lo` widened to `u64`.
    W64 {
        /// Per-column bit width the words were packed with.
        b: u32,
        /// Sorted distinct words, one per row.
        keys: Vec<u64>,
    },
}

/// Bits covering every dense code under a width bound: codes are
/// `< width ≤ 2^b`.
fn code_bits(width: u32) -> u32 {
    match width {
        0 | 1 => 0,
        w => 32 - (w - 1).leading_zeros(),
    }
}

/// What the join family emits: code words (`u32`, `u64`) or elements.
trait Word: Copy + Send + From<u32> + Shl<u32, Output = Self> + BitOr<Output = Self> {}
impl<T: Copy + Send + From<u32> + Shl<u32, Output = T> + BitOr<Output = T>> Word for T {}

/// One side's share of a tight output word (`cols` and `b` as in
/// [`FlatRelation::join_cols`]): the columns `side` maps onto `row` at
/// their bit positions, every other column zero.
fn word_share<T: Word>(
    row: &[Element],
    cols: &[usize],
    b: u32,
    side: impl Fn(usize) -> Option<usize>,
) -> T {
    let zero = T::from(0);
    cols.iter().fold(zero, |w, &c| {
        (w << b) | side(c).map_or(zero, |j| T::from(row[j]))
    })
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

/// Sorted-set intersection over packed words: the words of `mine`
/// that appear in `theirs` (both sorted distinct), in order.
fn isect_keys<K: Copy + Ord>(mine: &[K], theirs: &[K]) -> Vec<K> {
    let mut out = Vec::new();
    let mut j = 0usize;
    for &m in mine {
        while j < theirs.len() && theirs[j] < m {
            j += 1;
        }
        if j == theirs.len() {
            break;
        }
        if theirs[j] == m {
            out.push(m);
        }
    }
    out
}

/// Row storage of a [`FlatRelation`]: a plain owned buffer, or the
/// bytes of a [`MaterializationCache`] entry shared by every plan slot
/// that adopted it (clone and [`FlatRelation::relabel`] are then O(1)).
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
/// ([`FlatRelation::push_row`], [`FlatRelation::project`]) are paired
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
    /// means "no guarantee" — the hashed index fallback. Relations
    /// materialized from a [`Structure`] carry the dictionary width;
    /// operators propagate it conservatively.
    domain_width: u32,
    /// Lazily-built per-column existence bitmaps (derived data; see
    /// [`BitmapCell`]). Invalidated by every mutating operation.
    bitmaps: BitmapCell,
    /// Cached sorted word image (derived data; see [`WordsCell`]).
    /// Invalidated by every mutating operation.
    words: WordsCell,
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
            words: WordsCell::default(),
        }
    }

    /// The 0-ary relation holding the single empty row — the join
    /// identity ("true"). Joining against it is a no-op; semijoining
    /// against it keeps every row.
    pub fn unit() -> Self {
        FlatRelation {
            schema: Vec::new(),
            rows: 1,
            data: Rows::Owned(Vec::new()),
            domain_width: 0,
            bitmaps: BitmapCell::default(),
            words: WordsCell::default(),
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
            words: WordsCell::default(),
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

    /// Drops the cached word image (see [`WordsCell`]). Bag
    /// materialization calls this before handing a relation to the
    /// cache layer, keeping the image transient and cache byte
    /// accounting identical across packed modes.
    pub(crate) fn drop_word_image(&mut self) {
        self.words.0 = None;
    }

    /// The width bound of data drawn from both operands of a binary
    /// operator: a 0-ary or **empty** operand contributes no elements
    /// (an unbounded constant/unit side must not erase the other
    /// side's known bound); otherwise both bounds must be known for
    /// the combination to be known.
    fn combine_widths(&self, other: &FlatRelation) -> u32 {
        if self.schema.is_empty() || self.rows == 0 {
            other.domain_width
        } else if other.schema.is_empty() || other.rows == 0 {
            self.domain_width
        } else if self.domain_width > 0 && other.domain_width > 0 {
            self.domain_width.max(other.domain_width)
        } else {
            0
        }
    }

    /// Heap bytes held by this relation (buffer + schema + built
    /// column bitmaps), the unit of cache byte accounting. Cached
    /// relations prebuild their bitmaps at landing (`prebuild_bitmaps`
    /// in [`MaterializationCache::get_or_materialize`]) so the bytes
    /// stored with the cache entry — and subtracted at eviction —
    /// include them. A shared buffer counts in full for every holder:
    /// the cache charges an entry once, at landing, and the slots that
    /// adopt it are never charged.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<Element>()
            + self.schema.capacity() * std::mem::size_of::<VarId>()
            + self.bitmaps.0.get().map_or(0, |c| c.heap_bytes())
    }

    /// Whether column bitmaps may be built over this relation: the
    /// dense bound is known and the word table stays within ~8 bytes
    /// per row (beyond that the bitmap is mostly empty words and a
    /// sorted search is cheaper per cache line). A pure function of the
    /// relation — never of the thread budget — so every kernel
    /// dispatch agrees on eligibility.
    fn bitmap_eligible(&self) -> bool {
        self.domain_width > 0 && (self.domain_width as usize) <= 64 * self.rows.max(16)
    }

    /// Whether [`FlatRelation::sort_dedup_seq`] takes the packed
    /// radix path: every row packs into one `u64` code word. Legal
    /// only when the dense-domain bound's bit width `b` gives
    /// `arity · b ≤ 64` — wider rows do not fit a word, and without
    /// `domain_width > 0` the radix passes lose the bounded-digit
    /// guarantee the `Auto` cost model relies on (see
    /// `cqapx_structures::packed`). A pure function of the relation
    /// and the knob — never of the thread budget — so every dispatch
    /// site agrees.
    fn packed_sort_wanted(&self) -> bool {
        let a = self.schema.len();
        if self.domain_width == 0 || a == 0 || a * code_bits(self.domain_width) as usize > 64 {
            return false;
        }
        match packed_mode() {
            PackedMode::Off => false,
            PackedMode::On => true,
            PackedMode::Auto => self.rows >= PACKED_MIN_ROWS,
        }
    }

    /// Whether the fused `join_cols` on these operands
    /// would dedup through the packed radix sort — the `EvalProfile`
    /// labelling predicate, judged on the very shell the operator
    /// dispatches on.
    pub(crate) fn packed_join_project_would_dispatch(
        &self,
        other: &FlatRelation,
        vars: &[VarId],
    ) -> bool {
        self.join_shell(other, Some(vars)).0.packed_sort_wanted()
    }

    /// Whether `self ⋈ other` would build a packed radix-partitioned
    /// index — the `EvalProfile` labelling predicate, mirroring
    /// [`FlatRelation::join_budget`]'s shared-column and
    /// build-smaller-side choices.
    pub(crate) fn packed_join_would_dispatch(&self, other: &FlatRelation) -> bool {
        let (my_shared, their_shared) = self.shared_columns(other);
        let (build, build_pos) = if self.rows <= other.rows {
            (self, &my_shared)
        } else {
            (other, &their_shared)
        };
        KeyIndex::wants_packed(build, build_pos)
    }

    /// The positions, in `self` and in `other`, of the variables both
    /// schemas hold (the natural-join key), in `self`'s column order.
    fn shared_columns(&self, other: &FlatRelation) -> (Vec<usize>, Vec<usize>) {
        let mut shared = (Vec::new(), Vec::new());
        for (i, v) in self.schema.iter().enumerate() {
            if let Some(j) = other.schema.iter().position(|w| w == v) {
                shared.0.push(i);
                shared.1.push(j);
            }
        }
        shared
    }

    /// Whether a sequential dedup of this relation would take the
    /// packed radix sort — the `EvalProfile` labelling predicate.
    pub(crate) fn packed_dedup_would_dispatch(&self) -> bool {
        self.packed_sort_wanted()
    }

    /// The existence bitmap of one column, built lazily and shared by
    /// clones. `None` when bitmaps are off ([`BitmapMode::Off`]) or
    /// the relation is ineligible — callers fall back to the multiway
    /// kernel, which answers identically.
    pub(crate) fn column_bitmap(&self, col: usize) -> Option<Arc<DomainBitmap>> {
        if bitmap_mode() == BitmapMode::Off || !self.bitmap_eligible() {
            return None;
        }
        let cols = self
            .bitmaps
            .0
            .get_or_init(|| Arc::new(ColumnBitmaps::new(self.schema.len())));
        let a = self.schema.len();
        let bm = cols.cols[col].get_or_init(|| {
            let mut bm = DomainBitmap::new(self.domain_width);
            for i in 0..self.rows {
                bm.set(self.data[i * a + col]);
            }
            BITMAP_BUILDS.fetch_add(1, Ordering::Relaxed);
            BITMAP_RESIDENT.fetch_add(bm.heap_bytes(), Ordering::Relaxed);
            Arc::new(bm)
        });
        Some(Arc::clone(bm))
    }

    /// Eagerly builds every eligible column bitmap. The
    /// materialization cache calls this at entry landing so
    /// [`FlatRelation::heap_bytes`] — stored with the entry and
    /// subtracted at eviction — includes the bitmap words, keeping
    /// the byte budget honest.
    pub(crate) fn prebuild_bitmaps(&self) {
        for c in 0..self.schema.len() {
            let _ = self.column_bitmap(c);
        }
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
    pub fn clear(&mut self) {
        self.rows = 0;
        let mut data = self.data.take_scratch();
        data.clear();
        self.data = Rows::Owned(data);
        self.invalidate_bitmaps();
    }

    /// Replaces the bitmap cell after a mutation. Clones made before
    /// the mutation keep the old (still-valid-for-them) bitmaps. Also
    /// drops the cached word image — every mutation site funnels
    /// through here, so this is the single derived-data invalidation
    /// point (the packed sort and merge re-stash after calling it).
    fn invalidate_bitmaps(&mut self) {
        self.words.0 = None;
        if self.bitmaps.0.get().is_some() {
            self.bitmaps = BitmapCell::default();
        }
    }

    /// Re-targets the buffer to a new schema, dropping all rows but
    /// keeping the allocation — the clear-and-refill scratch pattern of
    /// bag builds.
    pub(crate) fn reset(&mut self, schema: Vec<VarId>) {
        self.schema = schema;
        self.clear();
        self.domain_width = 0;
    }

    /// The `i`-th row.
    pub fn row(&self, i: usize) -> &[Element] {
        let a = self.schema.len();
        &self.data[i * a..(i + 1) * a]
    }

    /// Iterates the rows (empty slices for 0-ary relations).
    pub fn iter_rows(&self) -> impl Iterator<Item = &[Element]> {
        let a = self.schema.len();
        (0..self.rows).map(move |i| &self.data[i * a..(i + 1) * a])
    }

    /// Appends a row (must match the arity). May introduce duplicates;
    /// call [`FlatRelation::sort_dedup`] to normalize.
    pub fn push_row(&mut self, row: &[Element]) {
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
    pub fn relabel(&self, schema: Vec<VarId>) -> FlatRelation {
        assert_eq!(schema.len(), self.schema.len(), "relabel arity mismatch");
        FlatRelation {
            schema,
            rows: self.rows,
            data: self.data.clone(),
            domain_width: self.domain_width,
            // Same rows, same bitmaps: relabeling shares the cell.
            bitmaps: self.bitmaps.clone(),
            words: WordsCell::default(),
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

    /// Appends every row of `other` (whose schema must cover the same
    /// variable set, in any column order), remapping columns by name.
    /// May introduce duplicates; callers finish with
    /// [`FlatRelation::sort_dedup`] — this is the buffer-level half of a
    /// set union.
    pub fn union_rows(&mut self, other: &FlatRelation) {
        assert_eq!(
            {
                let mut a = self.schema.clone();
                a.sort_unstable();
                a
            },
            {
                let mut b = other.schema.clone();
                b.sort_unstable();
                b
            },
            "union operands must range over the same variables"
        );
        self.domain_width = self.combine_widths(other);
        let data = self.data.make_mut();
        if self.schema == other.schema {
            data.extend_from_slice(&other.data);
            self.rows += other.rows;
            self.invalidate_bitmaps();
            return;
        }
        // Column remap: for each of my columns, its position in `other`.
        let from: Vec<usize> = self
            .schema
            .iter()
            .map(|v| other.schema.iter().position(|w| w == v).expect("same vars"))
            .collect();
        data.reserve(other.rows * self.schema.len());
        for row in other.iter_rows() {
            for &p in &from {
                data.push(row[p]);
            }
        }
        self.rows += other.rows;
        self.invalidate_bitmaps();
    }

    /// Sorts rows lexicographically and removes duplicates, leaving the
    /// canonical form all set-level comparisons rely on. Runs under the
    /// process-wide [`ThreadBudget::shared`] budget (sequential unless
    /// `CQAPX_THREADS` is set).
    pub fn sort_dedup(&mut self) {
        self.sort_dedup_budget(ThreadBudget::shared());
    }

    /// [`FlatRelation::sort_dedup`] under an explicit thread budget:
    /// nothing beyond one sequential pass when the rows already are
    /// canonical (scans, cache entries, radix-deduplicated projections
    /// and a plan's head-ordered root are) — whichever arm would have
    /// run, and a shared buffer stays shared; otherwise a parallel
    /// merge sort (morsel-sorted runs, pairwise parallel merges,
    /// parallel gather) when the budget grants extra workers and the
    /// relation is large enough, the plain sequential sort if not. The
    /// canonical output is identical either way — rows that compare
    /// equal are byte-identical, so tie order cannot show.
    ///
    /// Built bitmaps stay valid across this call: reordering rows and
    /// dropping whole-row duplicates never changes a column's value
    /// *set*, which is all a bitmap records.
    pub fn sort_dedup_budget(&mut self, budget: &ThreadBudget) {
        let a = self.schema.len();
        if a == 0 {
            self.rows = self.rows.min(1);
            return;
        }
        if self.data.chunks_exact(a).is_sorted_by(|x, y| x < y) {
            return;
        }
        if self.rows < PAR_MIN_ROWS || budget.capacity() == 0 {
            return self.sort_dedup_seq();
        }
        let lease = budget.claim(par_want(self.rows));
        if lease.extra() == 0 {
            return self.sort_dedup_seq();
        }
        self.words.0 = None;
        let w = lease.workers();
        let n = self.rows;
        let (rows_out, data_out) = {
            let data = &self.data;
            let row_cmp = |x: u32, y: u32| {
                let (x, y) = (x as usize * a, y as usize * a);
                data[x..x + a].cmp(&data[y..y + a])
            };
            // Sorted runs, one per worker-sized slice of the row space.
            let mut runs: Vec<Vec<u32>> = parallel_chunks(n, n.div_ceil(w), w, |_, r| {
                let mut idx: Vec<u32> = (r.start as u32..r.end as u32).collect();
                idx.sort_unstable_by(|&x, &y| row_cmp(x, y));
                idx
            });
            // Pairwise merges, each pair merged on its own worker.
            while runs.len() > 1 {
                let mut pairs: Vec<(Vec<u32>, Option<Vec<u32>>)> = Vec::new();
                let mut it = runs.into_iter();
                while let Some(first) = it.next() {
                    pairs.push((first, it.next()));
                }
                runs = parallel_map(pairs, w, |(left, right)| {
                    let Some(right) = right else { return left };
                    let mut merged = Vec::with_capacity(left.len() + right.len());
                    let (mut i, mut j) = (0, 0);
                    while i < left.len() && j < right.len() {
                        if row_cmp(left[i], right[j]) != std::cmp::Ordering::Greater {
                            merged.push(left[i]);
                            i += 1;
                        } else {
                            merged.push(right[j]);
                            j += 1;
                        }
                    }
                    merged.extend_from_slice(&left[i..]);
                    merged.extend_from_slice(&right[j..]);
                    merged
                });
            }
            let mut idx = runs.pop().expect("at least one run");
            idx.dedup_by(|&mut x, &mut y| {
                let (x, y) = (x as usize * a, y as usize * a);
                data[x..x + a] == data[y..y + a]
            });
            // Parallel gather into the output buffer (morsel order =
            // sorted order).
            let total = idx.len();
            let bufs = parallel_chunks(total, MORSEL_ROWS, w, |_, r| {
                let mut b: Vec<Element> = Vec::with_capacity(r.len() * a);
                for &i in &idx[r] {
                    b.extend_from_slice(&data[i as usize * a..][..a]);
                }
                b
            });
            let mut out = Vec::with_capacity(total * a);
            for b in bufs {
                out.extend_from_slice(&b);
            }
            (total, out)
        };
        self.rows = rows_out;
        self.data = Rows::Owned(data_out);
    }

    /// The sequential sort + dedup (also the `threads = 1` compile
    /// target of [`FlatRelation::sort_dedup_budget`]).
    ///
    /// Narrow relations (arity ≤ 8 — every bag and join-phase
    /// intermediate of practical plans) take a packed fast path: rows
    /// are copied into fixed-size arrays and sorted by value, which
    /// beats the index-indirect comparison sort by avoiding a random
    /// data-buffer read per comparison. `[Element; A]` orders
    /// lexicographically, i.e. exactly the canonical row order, so the
    /// output is bit-identical to the generic path's.
    ///
    /// When the rows pack into single `u64` code words
    /// ([`FlatRelation::packed_sort_wanted`]: `arity · b ≤ 64` over a
    /// `b`-bit dense domain), the comparison sort is replaced by an
    /// LSB **radix sort** over the words. Packing is monotone —
    /// numeric word order is lexicographic row order — so this too is
    /// bit-identical, while a relation of `n` dense codes sorts in
    /// `O(n · passes)` with at most four byte passes under 64 K codes.
    fn sort_dedup_seq(&mut self) {
        // The word image is order-sensitive; drop it before any
        // re-sort (the radix arm stashes a fresh one).
        self.words.0 = None;
        if self.packed_sort_wanted() {
            return self.sort_dedup_radix();
        }
        self.sort_dedup_cmp()
    }

    /// The packed radix arm of [`FlatRelation::sort_dedup_seq`]:
    /// pack → radix sort → word dedup → unpack. Injectivity of the
    /// packing makes word equality row equality, so the dedup is a
    /// word compare per adjacent pair.
    ///
    /// Words are packed **tightly**: with `b` bits covering the dense
    /// bound, a row becomes its columns concatenated `b` bits apiece,
    /// first column highest — monotone for any `b` with every code
    /// `< 2^b`, exactly like the fixed-shift [`pack2`], but occupying
    /// `arity · b` bits. Rows whose tight word fits 32 bits (and all
    /// single columns) sort as `u32` keys: half the memory traffic per
    /// pass and at most half the passes of the wide encoding.
    fn sort_dedup_radix(&mut self) {
        let a = self.schema.len();
        let n = self.rows;
        if a == 1 {
            radix_dedup_u32(self.data.make_mut());
            self.rows = self.data.len();
            note_packed(n);
            return;
        }
        let b = code_bits(self.domain_width);
        debug_assert!(a * b as usize <= 64, "only word-packable rows");
        if a * b as usize <= 32 {
            let mut keys = self.build_words32(b);
            radix_dedup_u32(&mut keys);
            self.refill(keys.iter().map(|&k| u64::from(k)), b);
            if a == 2 {
                self.words.0 = Some(PackedWords::W32 { b, keys });
            }
        } else {
            let mut keys = self.build_words64(b);
            radix_dedup(&mut keys);
            self.refill(keys.iter().copied(), b);
            if a == 2 {
                self.words.0 = Some(PackedWords::W64 { b, keys });
            }
        }
        note_packed(n);
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

    /// The comparison arm of [`FlatRelation::sort_dedup_seq`] (also
    /// the `CQAPX_PACKED=off` pin the differential suites compare the
    /// radix arm against).
    fn sort_dedup_cmp(&mut self) {
        fn packed<const A: usize>(rows: usize, data: &mut Vec<Element>) -> usize {
            let mut packed: Vec<[Element; A]> = Vec::with_capacity(rows);
            for i in 0..rows {
                let mut r = [0; A];
                r.copy_from_slice(&data[i * A..(i + 1) * A]);
                packed.push(r);
            }
            packed.sort_unstable();
            packed.dedup();
            data.clear();
            for r in &packed {
                data.extend_from_slice(r);
            }
            packed.len()
        }
        let a = self.schema.len();
        match a {
            1 => self.rows = packed::<1>(self.rows, self.data.make_mut()),
            2 => self.rows = packed::<2>(self.rows, self.data.make_mut()),
            3 => self.rows = packed::<3>(self.rows, self.data.make_mut()),
            4 => self.rows = packed::<4>(self.rows, self.data.make_mut()),
            5 => self.rows = packed::<5>(self.rows, self.data.make_mut()),
            6 => self.rows = packed::<6>(self.rows, self.data.make_mut()),
            7 => self.rows = packed::<7>(self.rows, self.data.make_mut()),
            8 => self.rows = packed::<8>(self.rows, self.data.make_mut()),
            _ => {
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
        }
    }

    /// Intersection with a same-schema relation; both sides must be in
    /// sorted-dedup form (a single merge walk, no hashing).
    pub fn intersect_sorted(&mut self, other: &FlatRelation) {
        debug_assert_eq!(self.schema, other.schema, "intersect schema mismatch");
        let a = self.schema.len();
        if a == 0 {
            self.rows = self.rows.min(other.rows);
            return;
        }
        // Packed fast path: the merge walk compares words instead of
        // row slices, reusing the sorted word image the radix sort
        // cached on either side. Output bytes are identical — the
        // packing is monotone and injective, so the surviving words
        // unpack to exactly the rows the slice walk keeps.
        if self.packed_intersect_wanted(other) {
            return self.intersect_sorted_packed(other);
        }
        let data = self.data.make_mut();
        let mut w = 0usize; // write row
        let mut j = 0usize; // read row in other
        for i in 0..self.rows {
            let mine = i * a;
            while j < other.rows && other.data[j * a..j * a + a] < data[mine..mine + a] {
                j += 1;
            }
            if j < other.rows && other.data[j * a..j * a + a] == data[mine..mine + a] {
                data.copy_within(mine..mine + a, w * a);
                w += 1;
            }
        }
        self.rows = w;
        data.truncate(w * a);
        self.invalidate_bitmaps();
    }

    /// Whether [`FlatRelation::intersect_sorted`] takes the packed
    /// word-merge path: both sides carry the dense bound, rows pack
    /// into single words, and the knob agrees. A pure function of the
    /// operands and the knob — never of the thread budget — so every
    /// dispatch site agrees.
    fn packed_intersect_wanted(&self, other: &FlatRelation) -> bool {
        if self.domain_width == 0
            || other.domain_width == 0
            || self.schema.is_empty()
            || self.schema.len() > 2
        {
            return false;
        }
        match packed_mode() {
            PackedMode::Off => false,
            PackedMode::On => true,
            PackedMode::Auto => self.rows.max(other.rows) >= PACKED_MIN_ROWS,
        }
    }

    /// The packed arm of [`FlatRelation::intersect_sorted`]: merge
    /// over packed words, reusing the sorted word image the radix
    /// sort stashed on either side when the packing widths line up
    /// (multi-part bag builds sort each part right before
    /// intersecting, so the images are usually hot). The surviving
    /// words are stashed back, so the next part's intersection skips
    /// the re-pack too.
    fn intersect_sorted_packed(&mut self, other: &FlatRelation) {
        let n = self.rows;
        if self.schema.len() == 1 {
            // Single columns are their own words.
            let data = self.data.make_mut();
            let mut w = 0usize;
            let mut j = 0usize;
            for i in 0..n {
                let m = data[i];
                while j < other.rows && other.data[j] < m {
                    j += 1;
                }
                if j == other.rows {
                    break;
                }
                if other.data[j] == m {
                    data[w] = m;
                    w += 1;
                }
            }
            self.rows = w;
            data.truncate(w);
            self.invalidate_bitmaps();
            note_packed(n);
            return;
        }
        // One shared bit width so word order agrees on both sides.
        let b = code_bits(self.domain_width.max(other.domain_width));
        if 2 * b <= 32 {
            let mine = match self.words.0.take() {
                Some(PackedWords::W32 { b: wb, keys }) if wb == b => keys,
                _ => self.build_words32(b),
            };
            let kept = match &other.words.0 {
                Some(PackedWords::W32 { b: wb, keys }) if *wb == b => isect_keys(&mine, keys),
                _ => isect_keys(&mine, &other.build_words32(b)),
            };
            self.refill(kept.iter().map(|&k| u64::from(k)), b);
            self.invalidate_bitmaps();
            self.words.0 = Some(PackedWords::W32 { b, keys: kept });
        } else {
            let mine = match self.words.0.take() {
                Some(PackedWords::W64 { b: wb, keys }) if wb == b => keys,
                _ => self.build_words64(b),
            };
            let kept = match &other.words.0 {
                Some(PackedWords::W64 { b: wb, keys }) if *wb == b => isect_keys(&mine, keys),
                _ => isect_keys(&mine, &other.build_words64(b)),
            };
            self.refill(kept.iter().copied(), b);
            self.invalidate_bitmaps();
            self.words.0 = Some(PackedWords::W64 { b, keys: kept });
        }
        note_packed(n);
    }

    /// FxHash of the key columns of one row, hashed in place (no key
    /// vector is ever materialized).
    #[inline]
    fn hash_key(row: &[Element], pos: &[usize]) -> u64 {
        let mut h = FxHasher::default();
        for &p in pos {
            h.write_u32(row[p]);
        }
        h.finish()
    }

    #[inline]
    fn keys_eq(a: &[Element], a_pos: &[usize], b: &[Element], b_pos: &[usize]) -> bool {
        a_pos.iter().zip(b_pos.iter()).all(|(&i, &j)| a[i] == b[j])
    }

    /// Semijoin `self ⋉ other` on aligned key columns: keeps the rows of
    /// `self` whose `my_pos` columns match some row of `other` on its
    /// `their_pos` columns (distinct positions on each side). With empty
    /// key positions this is the cartesian-semantics degenerate case:
    /// all rows survive iff `other` is nonempty.
    pub fn semijoin_on(&mut self, my_pos: &[usize], other: &FlatRelation, their_pos: &[usize]) {
        self.semijoin_on_budget(my_pos, other, their_pos, ThreadBudget::shared());
    }

    /// [`FlatRelation::semijoin_on`] under an explicit thread budget.
    /// Both operands must be canonical (rows sorted in their own column
    /// order, duplicate-free), as every plan slot is. Two arms, one
    /// survivor set in one order:
    ///
    /// * a single-column key against a source with a column bitmap —
    ///   the bitmap answers "does my code occur in the other column?"
    ///   for each row (`retain_where`);
    /// * anything else — the multiway kernel over `self` and `π_K(other)`
    ///   keeping every column of `self`. `π_K(other)` lists the key in
    ///   `self`'s column order under `self`'s variables, so the kernel
    ///   reads both in their own column order and writes the survivors
    ///   canonical, which is `self`'s order.
    ///
    /// When every row survives nothing is touched: rows, order, bitmaps
    /// and sharing all stay. `self` keeps its own width bound.
    pub fn semijoin_on_budget(
        &mut self,
        my_pos: &[usize],
        other: &FlatRelation,
        their_pos: &[usize],
        budget: &ThreadBudget,
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
            if let Some(bm) = other.column_bitmap(their_pos[0]) {
                note_bitmap_probe();
                let c = my_pos[0];
                return self.retain_where(budget, |row| bm.contains(row[c]));
            }
        }
        let mut key: Vec<(&usize, &usize)> = std::iter::zip(my_pos, their_pos).collect();
        key.sort_unstable();
        let theirs: Vec<VarId> = key.iter().map(|&(_, &j)| other.schema[j]).collect();
        let mut filter = other.project_budget(&theirs, budget);
        let distinct = key.windows(2).all(|w| w[0].0 < w[1].0) && filter.schema.len() == key.len();
        debug_assert!(distinct, "key positions must be distinct on each side");
        filter.schema = key.iter().map(|&(&i, _)| self.schema[i]).collect();
        let mut schema = self.schema.clone();
        schema.sort_unstable();
        let (parts, mut stats) = ([&*self, &filter], MatCacheStats::default());
        let kept = multiway_join(&parts, &schema, &self.schema, budget, &mut stats);
        if kept.rows < self.rows {
            self.rows = kept.rows;
            self.data = kept.data;
            self.invalidate_bitmaps();
        }
    }

    /// Keeps the rows that pass `hit`, in order. Rows are tested
    /// **branch-free** into selection vectors (an unconditional store
    /// plus a 0/1 index bump), over row-range morsels on claimed
    /// workers when the relation is large and the budget grants any.
    ///
    /// What is stored depends on the buffer, decided once, outside the
    /// row loops: row indices for an owned buffer, which is then
    /// compacted in place; the rows themselves for a buffer shared with
    /// a cache entry, which is left alone — the selection vector *is*
    /// the fresh buffer (one gather, no index pass). When every row
    /// survives nothing is touched — rows, order, bitmaps and sharing
    /// all stay (on fully-reducing data, i.e. the second sweep of every
    /// join tree, that is most semijoins). Either way the call makes
    /// the same allocations whether or not a row is removed: a request
    /// costs the same on a database with one dangling tuple as on one
    /// with none.
    fn retain_where(&mut self, budget: &ThreadBudget, hit: impl Fn(&[Element]) -> bool + Sync) {
        let a = self.schema.len();
        let shared = matches!(self.data, Rows::Shared(_));
        // Elements stored per survivor.
        let w = if shared { a } else { 1 };
        let select = |r: std::ops::Range<usize>| {
            let mut keep: Vec<Element> = vec![0; r.len() * w];
            let mut n = 0usize;
            for (i, row) in r
                .clone()
                .zip(self.data[r.start * a..r.end * a].chunks_exact(a))
            {
                if shared {
                    keep[n * a..(n + 1) * a].copy_from_slice(row);
                } else {
                    keep[n] = i as Element;
                }
                n += hit(row) as usize;
            }
            keep.truncate(n * w);
            keep
        };
        let lease = (self.rows >= PAR_MIN_ROWS && budget.capacity() > 0)
            .then(|| budget.claim(par_want(self.rows)))
            .filter(|l| l.extra() > 0);
        let (mut morsels, mut whole);
        let survivors: &mut [Vec<Element>] = match lease {
            Some(lease) => {
                morsels =
                    parallel_chunks(self.rows, MORSEL_ROWS, lease.workers(), |_, r| select(r));
                &mut morsels
            }
            None => {
                whole = select(0..self.rows);
                std::slice::from_mut(&mut whole)
            }
        };
        let n = survivors.iter().map(Vec::len).sum::<usize>() / w;
        if n == self.rows {
            return;
        }
        match &mut self.data {
            Rows::Owned(data) => {
                let kept = survivors.iter().flatten().map(|&i| i as usize * a);
                for (to, i) in kept.enumerate() {
                    data.copy_within(i..i + a, to * a);
                }
                data.truncate(n * a);
            }
            Rows::Shared(_) => {
                self.data = Rows::Owned(match survivors {
                    [one] => std::mem::take(one),
                    many => many.concat(),
                });
            }
        }
        self.rows = n;
        self.invalidate_bitmaps();
    }

    /// Natural join `self ⋈ other`: output schema is `self`'s columns
    /// followed by `other`'s extra columns. Hash join building the key
    /// index on the smaller side; cartesian product when the schemas are
    /// disjoint.
    pub fn join(&self, other: &FlatRelation) -> FlatRelation {
        self.join_budget(other, ThreadBudget::shared())
    }

    /// [`FlatRelation::join`] under an explicit thread budget: the key
    /// index is built on the smaller side (hash-partitioned build when
    /// large), and the larger side probes it over row-range morsels,
    /// each worker emitting into its own output buffer; the buffers are
    /// stitched in morsel order, so the output rows and their order are
    /// identical to the sequential probe loop.
    pub fn join_budget(&self, other: &FlatRelation, budget: &ThreadBudget) -> FlatRelation {
        self.join_cols(other, None, budget)
    }

    /// Projection onto a sub-schema (variables must be present;
    /// duplicates collapse to their first occurrence). The result is
    /// sorted and deduplicated.
    pub fn project(&self, vars: &[VarId]) -> FlatRelation {
        self.project_budget(vars, ThreadBudget::shared())
    }

    /// [`FlatRelation::project`] under an explicit thread budget: the
    /// fused operator against the unit relation.
    pub fn project_budget(&self, vars: &[VarId], budget: &ThreadBudget) -> FlatRelation {
        self.join_cols(&FlatRelation::unit(), Some(vars), budget)
    }

    /// The output shell of `self ⋈ other` kept to `vars` (`None` = the
    /// natural join's own columns) and, per output column, its position
    /// in the concatenated `self ++ other` row. The shell carries the
    /// schema, the width bound, and as its row count the larger
    /// operand's — the probe side's, which is what the packed dedup
    /// dispatch is judged on, before a single match is known.
    fn join_shell(
        &self,
        other: &FlatRelation,
        vars: Option<&[VarId]>,
    ) -> (FlatRelation, Vec<usize>) {
        let a = self.schema.len();
        let mut schema = Vec::new();
        let mut cols = Vec::new();
        match vars {
            None => {
                schema.extend_from_slice(&self.schema);
                cols.extend(0..a);
                for (j, v) in other.schema.iter().enumerate() {
                    if !self.schema.contains(v) {
                        schema.push(*v);
                        cols.push(a + j);
                    }
                }
            }
            Some(vars) => {
                for v in vars {
                    if !schema.contains(v) {
                        schema.push(*v);
                        let mine = self.schema.iter().position(|w| w == v);
                        let theirs = || other.schema.iter().position(|w| w == v);
                        let col = mine.or_else(|| theirs().map(|j| a + j));
                        cols.push(col.expect("projected variable must be in a schema"));
                    }
                }
            }
        }
        let mut out = FlatRelation::empty(schema);
        // When `other` contributes no new variable (a semijoin-shaped
        // join), every output element comes from `self`, so my bound
        // survives even if the other side carries none.
        let covered = other.schema.iter().all(|v| self.schema.contains(v));
        out.domain_width = if covered && self.domain_width > 0 {
            self.domain_width
        } else {
            self.combine_widths(other)
        };
        out.rows = self.rows.max(other.rows);
        (out, cols)
    }

    /// The join family over the one probe loop: the natural join
    /// (`vars` = `None`, rows in probe order), or `π_vars(self ⋈ other)`
    /// as **one operator** (repeated variables collapse to their first
    /// occurrence; both operands must be duplicate-free, as plan slots
    /// are): every match emits only the kept columns, so the full-width
    /// join never exists, and the result is canonical — it may be an
    /// answer set, or feed the multiway kernel, which reads sorted
    /// rows. Kept columns that fit a code word are emitted *as* words,
    /// straight into the radix dedup (the packing is monotone, so sorted
    /// distinct words unpack to sorted distinct rows); anything else
    /// lands as narrow rows in the output buffer and is sorted there.
    /// Joining against [`FlatRelation::unit`] is the plain distinct
    /// projection.
    pub(crate) fn join_cols(
        &self,
        other: &FlatRelation,
        vars: Option<&[VarId]>,
        budget: &ThreadBudget,
    ) -> FlatRelation {
        let a = self.schema.len();
        let (mut out, cols) = self.join_shell(other, vars);
        let packed = vars.is_some() && out.packed_sort_wanted();
        let pick = |s: &[Element], o: &[Element], c: usize| if c < a { s[c] } else { o[c - a] };
        if packed && cols.len() > 1 {
            let b = code_bits(out.domain_width);
            let layout = Some((&cols[..], b));
            let n = if cols.len() * b as usize <= 32 {
                let word = |buf: &mut Vec<u32>, s: &[Element], o: &[Element]| {
                    buf.push(cols.iter().fold(0, |w, &c| (w << b) | pick(s, o, c)))
                };
                let (mut keys, n) = self.join_emit(other, 1, budget, layout, word);
                radix_dedup_u32(&mut keys);
                out.refill(keys.iter().map(|&k| u64::from(k)), b);
                n
            } else {
                let word = |buf: &mut Vec<u64>, s: &[Element], o: &[Element]| {
                    let w = cols
                        .iter()
                        .fold(0, |w, &c| (w << b) | u64::from(pick(s, o, c)));
                    buf.push(w)
                };
                let (mut keys, n) = self.join_emit(other, 1, budget, layout, word);
                radix_dedup(&mut keys);
                out.refill(keys.iter().copied(), b);
                n
            };
            note_packed(n);
            return out;
        }
        // A leading run of `self`'s own columns goes as one slice.
        let lead = (0..cols.len().min(a)).take_while(|&i| cols[i] == i).count();
        let row = |buf: &mut Vec<Element>, s: &[Element], o: &[Element]| {
            buf.extend_from_slice(&s[..lead]);
            for &c in &cols[lead..] {
                buf.push(pick(s, o, c));
            }
        };
        let (data, n) = self.join_emit(other, cols.len(), budget, None, row);
        out.data = Rows::Owned(data);
        out.rows = n;
        match vars {
            None => {}
            Some(_) if packed => out.sort_dedup_radix(),
            Some(_) => out.sort_dedup_budget(budget),
        }
        out
    }

    /// The one probe loop of the join family: `emit(buf, self_row,
    /// other_row)` runs for every matching pair of rows, and the
    /// filled buffer comes back with the match count. The key index is
    /// built on the smaller side (hash-partitioned build when large)
    /// and the larger side probes it — over row-range morsels on
    /// claimed workers when the budget grants any, each emitting into
    /// its own buffer, the buffers stitched in morsel order, so the
    /// emission order is the sequential probe's whatever the budget.
    /// `emit` pushes `per_match` values a pair, which is what the
    /// sequential buffer is pre-sized from.
    ///
    /// A word `layout` (`(cols, b)` of `join_cols`' tight output word)
    /// makes an exact index carry each build row's **share** of the
    /// word in place of its row id: its kept columns at their bit
    /// positions, shifted down to the lowest of them. A match is then
    /// one OR of the probe row's share, computed once per probe row,
    /// with a slot of the group — no build row, column pick or key
    /// compare. A hashed index, or a build share spanning more than
    /// the 32 bits of a slot, keeps row ids and `emit`.
    fn join_emit<T: Word>(
        &self,
        other: &FlatRelation,
        per_match: usize,
        budget: &ThreadBudget,
        layout: Option<(&[usize], u32)>,
        emit: impl Fn(&mut Vec<T>, &[Element], &[Element]) + Sync,
    ) -> (Vec<T>, usize) {
        let (my_shared, their_shared) = self.shared_columns(other);
        let mut buf: Vec<T> = Vec::new();
        if my_shared.is_empty() {
            // Disjoint schemas: cartesian product.
            buf.reserve(self.rows * other.rows * per_match);
            for s in self.iter_rows() {
                for o in other.iter_rows() {
                    emit(&mut buf, s, o);
                }
            }
            return (buf, self.rows * other.rows);
        }
        // Build the index on the smaller side, probe with the larger.
        // `probe_is_other` tracks which operand the probe rows come
        // from, because `emit` takes `self`'s row first.
        let (build, probe, build_pos, probe_pos, probe_is_other) = if self.rows <= other.rows {
            (self, other, &my_shared, &their_shared, true)
        } else {
            (other, self, &their_shared, &my_shared, false)
        };
        let (pa, ba) = (probe.schema.len(), build.schema.len());
        let (pdata, bdata): (&[Element], &[Element]) = (&probe.data, &build.data);
        // Output column `c` of `self ++ other` as a column of `self`
        // (`of_self`) or of `other`, if it is one.
        let a = self.schema.len();
        let side = |of_self: bool| {
            move |c: usize| (of_self == (c < a)).then(|| if c < a { c } else { c - a })
        };
        let (on_build, on_probe) = (side(probe_is_other), side(!probe_is_other));
        // The build share's shift, when a word is emitted and the
        // share — the word's build-side bits — fits a slot.
        let shift = layout.and_then(|(cols, b)| {
            let ones = |c: &usize| u64::from(on_build(*c).is_some()) * ((1 << b) - 1);
            let bits = cols.iter().fold(0, |w, c| (w << b) | ones(c));
            let lo = bits.trailing_zeros() % 64;
            (bits >> lo <= u64::from(u32::MAX)).then_some(lo)
        });
        let payload = |i: usize| match (layout, shift) {
            (Some((cols, b)), Some(lo)) => {
                (word_share::<u64>(&bdata[i * ba..][..ba], cols, b, on_build) >> lo) as u32
            }
            _ => i as u32,
        };
        // One probe morsel: emit every match of rows `range` into `buf`
        // (the sequential loop is the single-morsel case).
        let probe_range = |buf: &mut Vec<T>, range: std::ops::Range<usize>, index: &KeyIndex| {
            let mut rows = 0usize;
            let exact = index.is_exact();
            if let (Some((cols, b)), Some(lo), true) = (layout, shift, exact) {
                for j in range {
                    let prow = &pdata[j * pa..][..pa];
                    let share: T = word_share(prow, cols, b, on_probe);
                    let group = index.group(prow, probe_pos);
                    buf.extend(group.iter().map(|&s| share | T::from(s) << lo));
                    rows += group.len();
                }
                return rows;
            }
            for j in range {
                let prow = &pdata[j * pa..][..pa];
                for m in index.probe_row(prow, probe_pos) {
                    let brow = &bdata[m * ba..][..ba];
                    if exact || Self::keys_eq(prow, probe_pos, brow, build_pos) {
                        let (s, o) = if probe_is_other {
                            (brow, prow)
                        } else {
                            (prow, brow)
                        };
                        emit(buf, s, o);
                        rows += 1;
                    }
                }
            }
            rows
        };
        let index = if probe.rows >= PAR_MIN_ROWS && budget.capacity() > 0 {
            // Build first (own worker claim, released after), then
            // lease the probe — the other order would hand the build's
            // workers to the probe before the build could use them.
            let index = KeyIndex::build_budget(build, build_pos, budget, payload);
            let lease = budget.claim(par_want(probe.rows));
            if lease.extra() > 0 {
                let parts: Vec<(Vec<T>, usize)> =
                    parallel_chunks(probe.rows, MORSEL_ROWS, lease.workers(), |_, r| {
                        let mut buf: Vec<T> = Vec::new();
                        let rows = probe_range(&mut buf, r, &index);
                        (buf, rows)
                    });
                buf.reserve(parts.iter().map(|(b, _)| b.len()).sum());
                let mut rows = 0;
                for (part, n) in parts {
                    buf.extend_from_slice(&part);
                    rows += n;
                }
                return (buf, rows);
            }
            // No probe workers left: sequential probe over the index
            // that was just built (bit-identical to a sequential build).
            index
        } else {
            KeyIndex::build(build, build_pos, payload)
        };
        // A direct index knows every group's size without touching a
        // row, so the buffer is sized once, exactly. The others are
        // not asked: one match per probe row is what a reduced plan
        // slot gives at least, and the buffer doubles from there.
        let matches = index.count_matches(probe, probe_pos[0]);
        buf.reserve(matches.unwrap_or(probe.rows) * per_match);
        let rows = probe_range(&mut buf, 0..probe.rows, &index);
        (buf, rows)
    }

    /// The decoded answer set for `head` as a tree of row vectors — a
    /// view of [`Answers::from_relation`] kept for callers that
    /// measure or inspect the boundary per row. Evaluation itself
    /// returns [`Answers`] and never builds the tree.
    pub fn rows_in_head_order_decoded(
        &self,
        head: &[VarId],
        dict: &DomainDict,
    ) -> BTreeSet<Vec<Element>> {
        Answers::from_relation(self.clone(), head, dict, ThreadBudget::shared()).to_btree_set()
    }
}

#[cfg(test)]
impl FlatRelation {
    /// The rows in head order, codes left as they are.
    pub(crate) fn rows_in_head_order(&self, head: &[VarId]) -> BTreeSet<Vec<Element>> {
        let identity = DomainDict::build(&Structure::digraph(0, &[]));
        self.rows_in_head_order_decoded(head, &identity)
    }
}

/// A key index over the key columns of a [`FlatRelation`], the build
/// side of the join family's probe loop (`FlatRelation::join_emit`) and
/// of nothing else — semijoins run on column bitmaps and the multiway
/// kernel. One of three representations, chosen deterministically at
/// build time:
///
/// * [`KeyIndex::Hashed`] — a chained hash index: a flat power-of-two
///   bucket table (`heads`, addressed by the top hash bits) with rows
///   of one bucket linked through `next`, plus the **per-row key hash
///   computed once at build time** in `hashes`. Storing the hashes pays
///   twice: the probe filters chain entries by stored hash before any
///   column comparison, and the hash-partitioned parallel build reuses
///   the hash pass when distributing rows to bucket-range partitions.
///
/// * [`KeyIndex::Direct`] — a direct-addressed (CSR) index for
///   **single-column keys over a dense domain**: `offsets[v]..
///   offsets[v+1]` delimits the slice of `slots` holding exactly the
///   rows whose key column equals code `v`. No hashing, no collision
///   chains, one array load per probe. Eligible only when the relation
///   carries a dense-domain bound ([`FlatRelation::domain_width`]) and
///   the bound is small enough that the offset table costs no more
///   than the hashed build it replaces.
///
/// * [`KeyIndex::Packed`] — a radix-partitioned index for **two-column
///   keys over a dense domain** (`CQAPX_PACKED`): keys are packed into
///   single `u64` code words, the `(word, row)` pairs radix-sorted,
///   and the distinct words stored CSR-grouped under a **partition
///   directory** over the words' top used bits — each directory slot
///   delimits a cache-sized run of sorted words. A probe is one shift,
///   one directory load, and a word-compare search inside the
///   partition: no hashing, no collision chains, and — because every
///   group holds exactly the rows equal to the probe word — no
///   per-candidate key re-check.
///
/// Buckets of all representations list rows in **ascending row
/// order** (the chained build pushes at the head in descending row
/// order; the direct and packed builds fill forward), so probe
/// sequences — and with them join output buffers — are byte-identical
/// across representations, and a probe side whose columns lead a
/// join's output emits it in order.
///
/// The two exact representations store a `u32` **payload** per row in
/// `slots`, taken at build time: the row id, or — built for a
/// word-emitting join (`FlatRelation::join_emit`) — the row's share of
/// the output word.
enum KeyIndex {
    Hashed {
        /// Bucket heads; length is a power of two.
        heads: Vec<u32>,
        /// Next row in the same bucket.
        next: Vec<u32>,
        /// The key hash of every indexed row, computed once at build.
        hashes: Vec<u64>,
        /// `bucket(h) = h >> shift` — top bits address the table.
        shift: u32,
    },
    Direct {
        /// CSR offsets, length `width + 1`.
        offsets: Vec<u32>,
        /// Row payloads grouped by key code, ascending rows within a
        /// group.
        slots: Vec<u32>,
    },
    Packed {
        /// The distinct packed key words, ascending.
        keys: Vec<u64>,
        /// CSR offsets into `slots`, length `keys.len() + 1`.
        offsets: Vec<u32>,
        /// Row payloads grouped by key word, ascending rows within a
        /// group.
        slots: Vec<u32>,
        /// Partition directory: `dir[d]..dir[d + 1]` delimits the run
        /// of `keys` whose word `>> dir_shift` equals `d`. Length
        /// `partitions + 1`; sized to roughly one key per slot, capped
        /// so the table stays cache-resident.
        dir: Vec<u32>,
        /// Top-used-bits shift addressing the directory.
        dir_shift: u32,
    },
}

const CHAIN_END: u32 = u32::MAX;

impl KeyIndex {
    /// Bucket count and shift for `n` rows: one bucket per row, rounded
    /// up to a power of two (minimum 2, so the shift stays below 64).
    fn table_shape(n: usize) -> (usize, u32) {
        let buckets = n.next_power_of_two().max(2);
        (buckets, 64 - buckets.trailing_zeros())
    }

    /// Whether a build over `pos` takes the direct-addressed
    /// representation: single-column key, dense-domain bound present,
    /// and an offset table no larger than ~4 slots per row (beyond
    /// that the hashed index is both smaller and cache-friendlier).
    /// A pure function of the relation and key — never of the thread
    /// budget — so parallel and sequential builds always agree.
    fn wants_direct(rel: &FlatRelation, pos: &[usize]) -> bool {
        pos.len() == 1
            && rel.domain_width > 0
            && (rel.domain_width as usize) <= 4 * rel.len().max(16)
            && direct_index_enabled()
    }

    /// Counting-sort build of the direct representation: one pass
    /// counts codes, one prefix sum, one fill of `payload(row)` in row
    /// order, so each code's group lists rows ascending — the probe
    /// order of the chained-hash build.
    fn build_direct(rel: &FlatRelation, col: usize, payload: impl Fn(usize) -> u32) -> KeyIndex {
        let n = rel.len();
        let a = rel.schema.len();
        let width = rel.domain_width as usize;
        let mut offsets = vec![0u32; width + 1];
        for i in 0..n {
            offsets[rel.data[i * a + col] as usize + 1] += 1;
        }
        for v in 1..=width {
            offsets[v] += offsets[v - 1];
        }
        let mut cursor = offsets.clone();
        let mut slots = vec![0u32; n];
        for i in 0..n {
            let v = rel.data[i * a + col] as usize;
            slots[cursor[v] as usize] = payload(i);
            cursor[v] += 1;
        }
        KeyIndex::Direct { offsets, slots }
    }

    /// Whether a build over `pos` takes the packed radix-partitioned
    /// representation: a two-column key (single-column keys already
    /// have the cheaper direct/hashed paths) over a dense-domain bound
    /// — the packing invariant — with the `CQAPX_PACKED` knob
    /// consenting. Like [`KeyIndex::wants_direct`], a pure function of
    /// the relation and key, never of the thread budget.
    fn wants_packed(rel: &FlatRelation, pos: &[usize]) -> bool {
        pos.len() == 2
            && rel.domain_width > 0
            && match packed_mode() {
                PackedMode::Off => false,
                PackedMode::On => true,
                PackedMode::Auto => rel.len() >= PACKED_MIN_ROWS,
            }
    }

    /// Packs a probe row's two key columns into the index's word form.
    #[inline]
    fn pack_key(row: &[Element], pos: &[usize]) -> u64 {
        pack2(row[pos[0]], row[pos[1]])
    }

    /// Radix-partitioned build: pack every key, radix-sort the
    /// `(word, payload(row))` pairs — fed in row order, so the stable
    /// passes leave each word group listing rows ascending, the
    /// chained-hash probe order — then lay the groups out CSR and
    /// index the sorted words with a top-bits partition directory.
    fn build_packed(rel: &FlatRelation, pos: &[usize], payload: impl Fn(usize) -> u32) -> KeyIndex {
        let n = rel.len();
        let mut pairs: Vec<(u64, u32)> = (0..n)
            .map(|i| (Self::pack_key(rel.row(i), pos), payload(i)))
            .collect();
        radix_sort_pairs(&mut pairs);
        let mut keys: Vec<u64> = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        let mut slots: Vec<u32> = Vec::with_capacity(n);
        for &(k, row) in &pairs {
            if keys.last() != Some(&k) {
                keys.push(k);
                offsets.push(slots.len() as u32);
            }
            slots.push(row);
        }
        offsets.push(slots.len() as u32);
        // Directory over the top used bits: keys are sorted, so every
        // partition is a contiguous run. One slot per distinct key
        // (rounded to a power of two), capped at 2^16 slots so the
        // table stays cache-resident even for huge builds.
        let used_bits = keys.last().map_or(0, |k| 64 - k.leading_zeros());
        let dir_bits = (64 - (keys.len() as u64).leading_zeros())
            .min(used_bits)
            .min(16);
        let dir_shift = used_bits - dir_bits;
        let mut dir = vec![0u32; (1usize << dir_bits) + 1];
        for &k in &keys {
            dir[(k >> dir_shift) as usize + 1] += 1;
        }
        for d in 1..dir.len() {
            dir[d] += dir[d - 1];
        }
        note_packed(n);
        KeyIndex::Packed {
            keys,
            offsets,
            slots,
            dir,
            dir_shift,
        }
    }

    /// The payloads of the rows matching packed word `k` exactly
    /// (ascending rows), or the empty slice: directory partition, then
    /// a word-compare binary
    /// search inside it. Words above every indexed key shift past the
    /// directory and read as absent, mirroring the direct index's
    /// out-of-range behaviour. Never inlined: [`KeyIndex::group`] runs
    /// once per probe row of every exact-index join, and with this
    /// search inside it the direct arm gets slower.
    #[inline(never)]
    fn packed_group(&self, k: u64) -> &[u32] {
        let KeyIndex::Packed {
            keys,
            offsets,
            slots,
            dir,
            dir_shift,
        } = self
        else {
            unreachable!("packed group on a non-packed index")
        };
        let d = (k >> dir_shift) as usize;
        // `dir` always has at least two fences; a word whose partition
        // shifts past the last fence is above every indexed key.
        if d >= dir.len() - 1 {
            return &[];
        }
        let (lo, hi) = (dir[d] as usize, dir[d + 1] as usize);
        match keys[lo..hi].binary_search(&k) {
            Ok(g) => {
                let g = lo + g;
                &slots[offsets[g] as usize..offsets[g + 1] as usize]
            }
            Err(_) => &[],
        }
    }

    /// The index over `pos`; an exact representation stores
    /// `payload(row)` per row.
    fn build(rel: &FlatRelation, pos: &[usize], payload: impl Fn(usize) -> u32) -> KeyIndex {
        if Self::wants_direct(rel, pos) {
            return Self::build_direct(rel, pos[0], payload);
        }
        if Self::wants_packed(rel, pos) {
            return Self::build_packed(rel, pos, payload);
        }
        let n = rel.len();
        let mut hashes = vec![0u64; n];
        for (i, h) in hashes.iter_mut().enumerate() {
            *h = FlatRelation::hash_key(rel.row(i), pos);
        }
        let (buckets, shift) = Self::table_shape(n);
        let mut heads = vec![CHAIN_END; buckets];
        let mut next = vec![CHAIN_END; n];
        for i in (0..n).rev() {
            let b = (hashes[i] >> shift) as usize;
            next[i] = heads[b];
            heads[b] = i as u32;
        }
        KeyIndex::Hashed {
            heads,
            next,
            hashes,
            shift,
        }
    }

    /// Hash-partitioned parallel build: one worker pass computes the
    /// per-row hashes over morsels, then each worker owns a contiguous
    /// **bucket range** and inserts exactly the rows hashing into it
    /// (reusing the stored hashes), scanning rows in descending order —
    /// the resulting table is bit-identical to the sequential build, so
    /// probe sequences (and join output order) cannot depend on the
    /// thread count.
    fn build_budget(
        rel: &FlatRelation,
        pos: &[usize],
        budget: &ThreadBudget,
        payload: impl Fn(usize) -> u32,
    ) -> KeyIndex {
        let n = rel.len();
        // The direct build is a counting sort — linear, branch-free,
        // already cheaper than the parallel hashed build's hash pass —
        // so it never claims workers (and the representation choice
        // stays budget-independent). The packed build is a handful of
        // radix passes, comparable to the hash pass alone, and stays
        // sequential for the same reason.
        let exact = Self::wants_direct(rel, pos) || Self::wants_packed(rel, pos);
        if exact || n < PAR_MIN_ROWS || budget.capacity() == 0 {
            return Self::build(rel, pos, payload);
        }
        let lease = budget.claim(par_want(n));
        if lease.extra() == 0 {
            return Self::build(rel, pos, payload);
        }
        let w = lease.workers();
        let mut hashes = vec![0u64; n];
        {
            let out = DisjointWriter::new(&mut hashes);
            parallel_chunks(n, MORSEL_ROWS, w, |_, r| {
                for i in r {
                    // SAFETY: morsels are disjoint row ranges; i < n.
                    unsafe { out.write(i, FlatRelation::hash_key(rel.row(i), pos)) };
                }
            });
        }
        let (buckets, shift) = Self::table_shape(n);
        let mut heads = vec![CHAIN_END; buckets];
        let mut next = vec![CHAIN_END; n];
        {
            let hw = DisjointWriter::new(&mut heads);
            let nw = DisjointWriter::new(&mut next);
            let hashes = &hashes;
            // Deliberate tradeoff: every partition rescans the whole
            // hash array (w sequential passes over 8·n bytes total)
            // to find its rows, because the *inserts* — random-access
            // writes into a table larger than cache — are what
            // dominate a large build, and those split w ways. The
            // rescan keeps the build single-phase with zero shared
            // mutable state beyond the partition-owned slots.
            parallel_chunks(buckets, buckets.div_ceil(w), w, |_, bucket_range| {
                for (i, &h) in hashes.iter().enumerate().rev() {
                    let b = (h >> shift) as usize;
                    if bucket_range.contains(&b) {
                        // SAFETY: each bucket lies in exactly one
                        // worker's range, and each row hashes to exactly
                        // one bucket — all slots are partition-owned.
                        unsafe {
                            nw.write(i, hw.read(b));
                            hw.write(b, i as u32);
                        }
                    }
                }
            });
        }
        KeyIndex::Hashed {
            heads,
            next,
            hashes,
            shift,
        }
    }

    /// All candidate row indices for a probe row's key columns (callers
    /// re-check the actual columns; for the direct representation the
    /// candidates already match exactly and the re-check is a trivially
    /// true column compare). Hashed: chain walk filtered by stored
    /// hash. Direct: one slice lookup, out-of-range codes yield
    /// nothing.
    #[inline]
    fn probe_row<'a>(&'a self, row: &[Element], pos: &[usize]) -> ProbeIter<'a> {
        match self {
            KeyIndex::Hashed { .. } => self.probe_hash(FlatRelation::hash_key(row, pos)),
            _ => ProbeIter::Direct(self.group(row, pos).iter()),
        }
    }

    /// The payloads of an exact index's group for a probe row's key
    /// columns; out-of-range codes and absent words yield nothing.
    #[inline]
    fn group(&self, row: &[Element], pos: &[usize]) -> &[u32] {
        match self {
            KeyIndex::Direct { offsets, slots, .. } => {
                let v = row[pos[0]] as usize;
                match offsets.get(v..v + 2) {
                    Some(w) => &slots[w[0] as usize..w[1] as usize],
                    None => &[],
                }
            }
            KeyIndex::Packed { .. } => self.packed_group(Self::pack_key(row, pos)),
            KeyIndex::Hashed { .. } => unreachable!("group of an inexact index"),
        }
    }

    /// How many rows of the index's relation the rows of `probe` match
    /// on its key column `col`, summed over the groups' sizes — known
    /// to a direct index only.
    fn count_matches(&self, probe: &FlatRelation, col: usize) -> Option<usize> {
        let KeyIndex::Direct { offsets, .. } = self else {
            return None;
        };
        let group = |&v: &Element| match offsets.get(v as usize + 1) {
            Some(&end) => (end - offsets[v as usize]) as usize,
            None => 0,
        };
        let keys = probe.data.iter().skip(col).step_by(probe.schema.len());
        Some(keys.map(group).sum())
    }

    /// Whether probe candidates are **exact** matches already: direct
    /// buckets hold exactly the rows whose key column equals the probe
    /// code — and packed groups exactly the rows whose packed key word
    /// equals the probe word — so callers may skip the per-candidate
    /// column re-check that the hashed representation needs against
    /// collisions.
    #[inline]
    fn is_exact(&self) -> bool {
        matches!(self, KeyIndex::Direct { .. } | KeyIndex::Packed { .. })
    }

    #[inline]
    fn probe_hash(&self, hash: u64) -> ProbeIter<'_> {
        match self {
            KeyIndex::Hashed {
                heads,
                next,
                hashes,
                shift,
            } => ProbeIter::Hashed {
                next,
                hashes,
                hash,
                cur: heads[(hash >> shift) as usize],
            },
            KeyIndex::Direct { .. } | KeyIndex::Packed { .. } => {
                unreachable!("hash probe on an exact index")
            }
        }
    }
}

enum ProbeIter<'a> {
    Hashed {
        next: &'a [u32],
        hashes: &'a [u64],
        hash: u64,
        cur: u32,
    },
    Direct(std::slice::Iter<'a, u32>),
}

impl Iterator for ProbeIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            ProbeIter::Hashed {
                next,
                hashes,
                hash,
                cur,
            } => {
                while *cur != CHAIN_END {
                    let r = *cur as usize;
                    *cur = next[r];
                    if hashes[r] == *hash {
                        return Some(r);
                    }
                }
                None
            }
            ProbeIter::Direct(it) => it.next().map(|&r| r as usize),
        }
    }
}

/// Candidates per parallel morsel of the multiway kernel: the unit of
/// work is one first-variable candidate *subtree*, which is far heavier
/// than one row, so the morsel is much smaller than [`MORSEL_ROWS`].
const WCOJ_MORSEL_CANDS: usize = 32;

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

/// The order in which [`multiway_join`] binds the variables of
/// `schema`, as positions into it. A variable sharing no part with an
/// already placed one waits while some other unplaced variable does, so
/// every level after the first of a connected component has a part
/// whose range the bound prefix already narrowed and only a new
/// cartesian component starts from whole parts. Among the variables
/// that rule admits, the `keep` list goes first, in its own order, then
/// the dropped ones ascending: whatever follows the last kept variable
/// only has to exist.
fn enumeration_order(parts: &[&FlatRelation], schema: &[VarId], keep: &[VarId]) -> Vec<usize> {
    let n = schema.len();
    let at = |v: &VarId| schema.binary_search(v).expect("part var must be in schema");
    let (mut placed, mut linked) = (vec![false; n], vec![false; n]);
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let waits = (0..n).any(|i| !placed[i] && linked[i]);
        let free = |i: &usize| !placed[*i] && (linked[*i] || !waits);
        let next = (keep.iter().map(at).find(free))
            .or_else(|| (0..n).find(free))
            .expect("an unplaced variable remains");
        placed[next] = true;
        order.push(next);
        for p in parts.iter().filter(|p| p.schema.contains(&schema[next])) {
            for v in &p.schema {
                linked[at(v)] = true;
            }
        }
    }
    order
}

/// A range of rows `lo..hi` of one trie.
type Run = (usize, usize);

/// One part read as a trie: rows sorted on its columns, which are in
/// enumeration order — the part's own buffer when its schema already
/// is, a re-sorted copy otherwise (see [`multiway_join`]).
struct Trie<'a> {
    data: &'a [Element],
    arity: usize,
    rows: usize,
    /// `offsets[v]..offsets[v + 1]` is the run of rows whose first
    /// column holds `v`: built over the dense codes when the bound is
    /// known and within 8× the row count (the array is `O(width)` to
    /// fill), empty otherwise — then the first column is searched.
    offsets: Vec<u32>,
    /// The last column on its own. The innermost levels do most of a
    /// join's reads, each in a run picked by the columns before it: in
    /// the row-major buffer those runs are `arity` times as many cache
    /// lines, most of them misses once the part outgrows the cache.
    last: &'a [Element],
}

impl<'a> Trie<'a> {
    /// `last` is scratch for the copy of the last column, one element
    /// per row.
    fn new(rel: &'a FlatRelation, last: &'a mut [Element]) -> Trie<'a> {
        let (arity, width) = (rel.schema.len(), rel.domain_width as usize);
        let dense = width > 0 && width <= 8 * rel.rows;
        let mut offsets = vec![0u32; if dense { width + 1 } else { 0 }];
        for (row, last) in rel.data.chunks_exact(arity).zip(last.iter_mut()) {
            if dense {
                offsets[row[0] as usize + 1] += 1;
            }
            *last = row[arity - 1];
        }
        for v in 0..offsets.len().saturating_sub(1) {
            offsets[v + 1] += offsets[v];
        }
        Trie {
            data: &rel.data,
            arity,
            rows: rel.rows,
            offsets,
            last,
        }
    }

    /// Column `col` as a slice to index by `row * stride`.
    #[inline]
    fn column(&self, col: usize) -> (&[Element], usize) {
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
/// `part`, bound at one level.
struct Slot {
    part: usize,
    depth: usize,
    /// This slot's entry in [`WcojRun::range`].
    own: usize,
    /// The entry of the part's next column, which a match here narrows
    /// to the run of the matched value; a write-only sink entry for a
    /// last column.
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
}

/// The output column of a variable the keep list drops.
const DROPPED: usize = usize::MAX;

/// The static shape of one multiway join.
struct WcojPlan<'a> {
    tries: Vec<Trie<'a>>,
    /// All slots, level by level.
    slots: Vec<Slot>,
    levels: Vec<Level>,
    /// Per level, the output column of its variable; [`DROPPED`] for
    /// a variable the keep list leaves out.
    col: Vec<usize>,
    /// The first level of the all-dropped suffix (the level count when
    /// the last variable is kept): from here down one complete binding
    /// is as good as all of them.
    exist_from: usize,
    /// The last level is kept and has a single slot: its matches are
    /// the rows of one range, written (or counted) without a search.
    bulk_last: bool,
}

impl<'a> WcojPlan<'a> {
    /// `tries[p]` reads `parts[p]` in the column order the levels
    /// induce; `level` maps a variable to the level binding it, `col`
    /// a level to its output column.
    fn new(
        parts: &[&FlatRelation],
        tries: Vec<Trie<'a>>,
        col: Vec<usize>,
        level: impl Fn(&VarId) -> usize,
    ) -> WcojPlan<'a> {
        let mut slots = Vec::with_capacity(parts.iter().map(|p| p.schema.len()).sum());
        let mut levels = Vec::with_capacity(col.len());
        for l in 0..col.len() {
            let start = slots.len();
            // A part holding this level's variable binds it at the
            // depth of how many of its variables are bound earlier;
            // narrowed slots go first.
            for deep in [true, false] {
                for (part, rel) in parts.iter().enumerate() {
                    let depth = rel.schema.iter().filter(|v| level(v) < l).count();
                    if rel.schema.iter().any(|v| level(v) == l) && (depth > 0) == deep {
                        let own = slots.len();
                        slots.push(Slot {
                            part,
                            depth,
                            own,
                            next: usize::MAX,
                        });
                    }
                }
            }
            let narrowed = slots[start..].iter().filter(|s| s.depth > 0).count();
            levels.push(Level {
                start,
                mid: if narrowed == 0 {
                    slots.len()
                } else {
                    start + narrowed
                },
                end: slots.len(),
            });
        }
        for i in 0..slots.len() {
            let (part, depth) = (slots[i].part, slots[i].depth + 1);
            let next = slots
                .iter()
                .position(|s: &Slot| (s.part, s.depth) == (part, depth));
            slots[i].next = next.unwrap_or(slots.len());
        }
        let exist_from = col.iter().rposition(|&c| c != DROPPED).map_or(0, |l| l + 1);
        let single = levels.last().is_some_and(|lv| lv.end - lv.start == 1);
        WcojPlan {
            tries,
            slots,
            bulk_last: single && exist_from == levels.len(),
            levels,
            col,
            exist_from,
        }
    }
}

/// Mutable per-worker state of one multiway enumeration.
struct WcojRun<'a> {
    plan: &'a WcojPlan<'a>,
    /// Per slot (plus the sink): the rows of its part that agree with
    /// the current binding on the part's earlier columns, as left by
    /// the match on the previous column — set by whichever earlier
    /// level bound that column, read by every visit of the slot's own
    /// level in between. First-column slots range over the whole trie.
    range: Vec<Run>,
    /// Per slot: where a leapfrogging level's cursor stands in its
    /// range (one lead and a merge of two keep theirs in locals).
    cursor: Vec<usize>,
    /// The kept part of the current binding: one output row.
    binding: Vec<Element>,
    out: Vec<Element>,
    rows: usize,
    /// Cursor moves made: seeks, steps, probes and rows written.
    advances: u64,
    /// `false` while counting: a bulk last level adds up its range
    /// lengths and nothing is written.
    fill: bool,
    /// When set, a level-0 match is recorded here — the value and each
    /// level-0 part's run of it — instead of being descended into.
    candidates: Option<(Vec<Element>, Vec<Run>)>,
}

impl<'a> WcojRun<'a> {
    fn new(plan: &'a WcojPlan<'a>) -> WcojRun<'a> {
        WcojRun {
            plan,
            range: vec![(0, 0); plan.slots.len() + 1],
            cursor: vec![0; plan.slots.len()],
            binding: vec![0; plan.col.iter().filter(|&&c| c != DROPPED).count()],
            out: Vec::new(),
            rows: 0,
            advances: 0,
            fill: true,
            candidates: None,
        }
    }

    #[inline]
    fn entry(&self, s: &Slot) -> Run {
        if s.depth == 0 {
            (0, self.plan.tries[s.part].rows)
        } else {
            self.range[s.own]
        }
    }

    /// Enumerates the extensions of the current binding from `level` on,
    /// appending the kept columns of each complete binding to the
    /// output, and says whether there was one. Values are visited in
    /// ascending order at every level, so the output is sorted on the
    /// enumeration order. From [`WcojPlan::exist_from`] down a level
    /// returns at its first hit: nothing it binds is kept, so one
    /// witness stands for all. A level is specialised by its leads: one
    /// is iterated, two of comparable length are merged on locals,
    /// anything else leapfrogs.
    fn descend(&mut self, level: usize) -> bool {
        let plan = self.plan;
        let Some(lv) = plan.levels.get(level) else {
            self.out.extend_from_slice(&self.binding);
            self.rows += 1;
            return true;
        };
        let first = level >= plan.exist_from;
        let (leads, probes) = (&plan.slots[lv.start..lv.mid], &plan.slots[lv.mid..lv.end]);
        if plan.bulk_last && level + 1 == plan.levels.len() {
            let (s, pos) = (&leads[0], plan.col[level]);
            let (lo, hi) = self.entry(s);
            self.rows += hi - lo;
            if !self.fill {
                self.advances += 1;
                return hi > lo;
            }
            self.advances += (hi - lo) as u64;
            let (t, arity, base) = (&plan.tries[s.part], self.binding.len(), self.out.len());
            self.out.resize(base + (hi - lo) * arity, 0);
            // Column by column: copying the binding row by row is a
            // `memcpy` call per row, most of the cost of a short run.
            let dst = &mut self.out[base..];
            for (j, &b) in self.binding.iter().enumerate() {
                for k in 0..hi - lo {
                    dst[k * arity + j] = b;
                }
            }
            for (k, row) in (lo..hi).enumerate() {
                dst[k * arity + pos] = t.val(row, s.depth);
            }
            return hi > lo;
        }
        match leads {
            [a] => {
                let t = &plan.tries[a.part];
                let (mut lo, hi) = self.entry(a);
                while lo < hi {
                    let v = t.val(lo, a.depth);
                    let end = t.run_end(a.depth, lo, hi, v);
                    self.advances += 1;
                    self.range[a.next] = (lo, end);
                    if self.hit(level, probes, v) && first {
                        return true;
                    }
                    lo = end;
                }
                false
            }
            [a, b] => {
                let ((mut i, ie), (mut j, je)) = (self.entry(a), self.entry(b));
                // Ranges within 8× of each other merge run by run with
                // no data-dependent branch per step, at a cost linear
                // in both; of a lopsided pair the short range is walked
                // and each of its values looked up in the long one.
                if ie - i > 8 * (je - j) || je - j > 8 * (ie - i) {
                    let (s, l) = if ie - i < je - j { (a, b) } else { (b, a) };
                    let (ts, tl) = (&plan.tries[s.part], &plan.tries[l.part]);
                    let ((mut i, ie), (lo, hi)) = (self.entry(s), self.entry(l));
                    while i < ie {
                        let x = ts.val(i, s.depth);
                        let end = ts.run_end(s.depth, i, ie, x);
                        let at = tl.lower_bound(l.depth, lo, hi, x);
                        self.advances += 1;
                        if at < hi && tl.val(at, l.depth) == x {
                            self.range[s.next] = (i, end);
                            self.range[l.next] = (at, tl.run_end(l.depth, at, hi, x));
                            if self.hit(level, probes, x) && first {
                                return true;
                            }
                        }
                        i = end;
                    }
                    return false;
                }
                let (ta, tb) = (&plan.tries[a.part], &plan.tries[b.part]);
                while i < ie && j < je {
                    let (x, y) = (ta.val(i, a.depth), tb.val(j, b.depth));
                    let ni = ta.run_end(a.depth, i, ie, x);
                    let nj = tb.run_end(b.depth, j, je, y);
                    self.advances += 1;
                    if x == y {
                        self.range[a.next] = (i, ni);
                        self.range[b.next] = (j, nj);
                        if self.hit(level, probes, x) && first {
                            return true;
                        }
                    }
                    (i, j) = (if x <= y { ni } else { i }, if y <= x { nj } else { j });
                }
                false
            }
            _ => self.leapfrog(level, leads, probes),
        }
    }

    /// The general level: every lead seeks the largest value any of
    /// them holds until all agree (leapfrog), so the level costs the
    /// shortest range times a logarithm, not the sum of the ranges.
    fn leapfrog(&mut self, level: usize, leads: &[Slot], probes: &[Slot]) -> bool {
        let plan = self.plan;
        for s in leads {
            let (lo, hi) = self.entry(s);
            if lo >= hi {
                return false;
            }
            self.cursor[s.own] = lo;
        }
        let mut v = Element::MIN;
        loop {
            // Seek every lead to `v`, raising `v` to whatever a lead
            // overshoots to, until all of them sit on it.
            let (mut agreed, mut i) = (0, 0);
            while agreed < leads.len() {
                let (s, t) = (&leads[i], &plan.tries[leads[i].part]);
                let (mut lo, hi) = (self.cursor[s.own], self.entry(s).1);
                if t.val(lo, s.depth) < v {
                    lo = t.seek(s.depth, lo + 1, hi, v);
                    self.advances += 1;
                    if lo >= hi {
                        return false;
                    }
                    self.cursor[s.own] = lo;
                }
                let x = t.val(lo, s.depth);
                agreed = if x == v { agreed + 1 } else { 1 };
                v = x;
                i = (i + 1) % leads.len();
            }
            let mut exhausted = false;
            for s in leads {
                let (lo, hi) = (self.cursor[s.own], self.entry(s).1);
                let end = plan.tries[s.part].run_end(s.depth, lo, hi, v);
                self.range[s.next] = (lo, end);
                self.cursor[s.own] = end;
                exhausted |= end >= hi;
            }
            self.advances += leads.len() as u64;
            if self.hit(level, probes, v) && level >= plan.exist_from {
                return true;
            }
            if exhausted {
                return false;
            }
        }
    }

    /// Every lead of `level` holds `v`, each part's next column narrowed
    /// to its run of it: look `v` up in the probed slots, narrowing
    /// those too, and if all hold it bind it and go one level down;
    /// `true` when that reached a complete binding.
    #[inline]
    fn hit(&mut self, level: usize, probes: &[Slot], v: Element) -> bool {
        let plan = self.plan;
        for s in probes {
            self.advances += 1;
            let run = plan.tries[s.part].find(v);
            if run.0 == run.1 {
                return false;
            }
            self.range[s.next] = run;
        }
        if let (0, Some((cands, runs))) = (level, &mut self.candidates) {
            cands.push(v);
            runs.extend(
                plan.slots[..plan.levels[0].end]
                    .iter()
                    .map(|s| self.range[s.next]),
            );
            return false;
        }
        if plan.col[level] != DROPPED {
            self.binding[plan.col[level]] = v;
        }
        self.descend(level + 1)
    }
}

/// `part` with its columns permuted into enumeration order (`level`
/// maps a variable to the level binding it) and its rows re-sorted;
/// `None` when the part's own column order already is that order.
fn reordered(
    part: &FlatRelation,
    level: impl Fn(&VarId) -> usize,
    budget: &ThreadBudget,
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
    copy.sort_dedup_budget(budget);
    Some(copy)
}

/// The multiway kernel: `π_keep(parts[0] ⋈ … ⋈ parts[n-1])` as one
/// worst-case-optimal join (leapfrog triejoin) of canonical relations —
/// a bag build when `keep` is the sorted variable union, a tree node's
/// join with its children's partials when it is less. Variable by
/// variable, the candidate extensions of the current binding are
/// intersected across every part containing the variable, so the total
/// work is bounded by the fractional-cover (AGM) bound of the join, not
/// by the size of any binary intermediate.
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
/// canonicalizing `sort_dedup`. Either way the result is byte-identical
/// to the binary joins of the parts projected onto `keep` and
/// canonicalized. When the last level is kept and has a single slot the
/// row count is the sum of its range lengths: a first pass counts
/// without visiting a row and the result is allocated once at its exact
/// size. Otherwise the buffer grows geometrically.
///
/// Requirements: every part is duplicate-free with its rows sorted in
/// its own column order; `schema` is the sorted union of the part
/// schemas and `keep` lists distinct variables of it.
/// A 0-ary part binds nothing: the true one drops out, and the false
/// one, like any empty part, makes the result empty. Cursor moves are
/// added to `stats.cursor_advances`.
///
/// Under a granting `budget` the enumeration fans out over morsels of
/// the first variable's candidates, each worker enumerating its
/// candidates' subtrees into its own buffer; buffers are stitched in
/// candidate order, so the output is bit-identical to the sequential
/// run.
pub(crate) fn multiway_join(
    parts: &[&FlatRelation],
    schema: &[VarId],
    keep: &[VarId],
    budget: &ThreadBudget,
    stats: &mut MatCacheStats,
) -> FlatRelation {
    debug_assert!(schema.windows(2).all(|w| w[0] < w[1]));
    let mut out = FlatRelation::empty(keep.to_vec());
    let bound = |p: &&FlatRelation| p.domain_width > 0 || p.schema.is_empty();
    if parts.iter().all(bound) {
        out.domain_width = parts.iter().map(|p| p.domain_width).max().unwrap_or(0);
    }
    if parts.iter().any(|p| p.is_empty()) {
        return out;
    }
    let binding: Vec<&FlatRelation>;
    let parts = if parts.iter().any(|p| p.schema.is_empty()) {
        binding = parts
            .iter()
            .copied()
            .filter(|p| !p.schema.is_empty())
            .collect();
        &binding[..]
    } else {
        parts
    };
    if schema.is_empty() {
        out.rows = 1;
        return out;
    }
    let mut order = enumeration_order(parts, schema, keep);
    let mut level_of = vec![0; order.len()];
    for (l, &pos) in order.iter().enumerate() {
        level_of[pos] = l;
    }
    let level = |v: &VarId| level_of[schema.binary_search(v).expect("part var in schema")];
    // From here on a level is known by its output column.
    for pos in &mut order {
        *pos = (keep.iter().position(|v| *v == schema[*pos])).unwrap_or(DROPPED);
    }
    let canonical = order.iter().take(keep.len()).copied().eq(0..keep.len());
    let copies: Vec<Option<FlatRelation>> =
        if parts.iter().all(|p| p.schema.is_sorted_by_key(level)) {
            Vec::new()
        } else {
            parts.iter().map(|p| reordered(p, level, budget)).collect()
        };
    let read = |i: usize| copies.get(i).and_then(Option::as_ref).unwrap_or(parts[i]);
    // One buffer holds every part's last column.
    let mut lasts = vec![0; parts.iter().map(|p| p.rows).sum()];
    let mut rest = &mut lasts[..];
    let tries = (0..parts.len())
        .map(|i| {
            let (last, tail) = std::mem::take(&mut rest).split_at_mut(parts[i].rows);
            rest = tail;
            Trie::new(read(i), last)
        })
        .collect();
    let plan = WcojPlan::new(parts, tries, order, level);
    let mut st = WcojRun::new(&plan);
    let mut fanned_out = false;
    if budget.capacity() > 0 && plan.levels.len() > 1 && plan.exist_from > 0 {
        // Level-0 candidates with each lead part's run, so workers
        // start directly at level 1.
        st.candidates = Some(Default::default());
        st.descend(0);
        let (cands, runs) = st.candidates.take().expect("installed above");
        let lead = &plan.slots[..plan.levels[0].end];
        let want = (cands.len() / WCOJ_MORSEL_CANDS).saturating_sub(1).min(31);
        let lease = budget.claim(want);
        if lease.extra() > 0 {
            let bufs = parallel_chunks(cands.len(), WCOJ_MORSEL_CANDS, lease.workers(), |_, r| {
                let mut st = WcojRun::new(&plan);
                for i in r {
                    // Level 0 picks among all variables: a kept one.
                    st.binding[plan.col[0]] = cands[i];
                    for (k, s) in lead.iter().enumerate() {
                        st.range[s.next] = runs[i * lead.len() + k];
                    }
                    st.descend(1);
                }
                (st.out, st.rows, st.advances)
            });
            st.out.reserve(bufs.iter().map(|(b, _, _)| b.len()).sum());
            for (buf, rows, advances) in bufs {
                st.out.extend_from_slice(&buf);
                st.rows += rows;
                st.advances += advances;
            }
            fanned_out = true;
        }
    }
    if !fanned_out {
        if plan.bulk_last {
            st.fill = false;
            st.descend(0);
            st.out.reserve_exact(st.rows * keep.len());
            (st.rows, st.fill) = (0, true);
        }
        st.descend(0);
    }
    stats.cursor_advances += st.advances;
    out.rows = st.rows;
    out.data = Rows::Owned(st.out);
    if !canonical {
        out.sort_dedup_budget(budget);
    }
    out
}

/// A compiled tuple→row mapping for one atom: which tuple positions must
/// agree (repeated variables) and which tuple position feeds each output
/// column. Compiling this once per plan removes the `var_count`-sized
/// binding scratch the seed materializer allocated **per tuple**.
#[derive(Debug, Clone)]
pub struct AtomBinder {
    rel: RelId,
    /// `(i, j)` pairs of tuple positions that must hold equal values
    /// (the atom repeats a variable at both).
    eq_checks: Vec<(usize, usize)>,
    /// For each output column (schema order), the tuple position that
    /// supplies its value.
    out_pos: Vec<usize>,
}

impl AtomBinder {
    /// Compiles the binder of `atom` for an output schema (the sorted
    /// distinct variables of the atom's hyperedge; every schema variable
    /// must occur in the atom).
    pub fn compile(atom: &Atom, schema: &[VarId]) -> AtomBinder {
        let mut eq_checks = Vec::new();
        let mut first: FxHashMap<VarId, usize> = FxHashMap::default();
        for (j, &v) in atom.args.iter().enumerate() {
            match first.get(&v) {
                Some(&i) => eq_checks.push((i, j)),
                None => {
                    first.insert(v, j);
                }
            }
        }
        let out_pos = schema
            .iter()
            .map(|v| *first.get(v).expect("schema variable must occur in atom"))
            .collect();
        AtomBinder {
            rel: atom.rel,
            eq_checks,
            out_pos,
        }
    }

    /// Scans the atom's relation in `d` and appends one row per
    /// consistent tuple to `out` (arity must match the compiled schema).
    /// Rows are appended unnormalized; callers finish with
    /// [`FlatRelation::sort_dedup`].
    pub fn materialize_into(&self, d: &Structure, out: &mut FlatRelation) {
        debug_assert_eq!(out.arity(), self.out_pos.len(), "binder arity mismatch");
        // Materialization is the dictionary-encode boundary: rows are
        // stored as dense domain codes, and the relation carries the
        // code width so single-column keys can use the direct index.
        // Tuple elements are active by definition, so every encode
        // resolves. When the dictionary is the identity the raw loop
        // avoids the table lookup (and is byte-identical anyway).
        let dict = d.domain_dict();
        out.domain_width = dict.len() as u32;
        out.invalidate_bitmaps();
        // Scans stream the flat row-major image (one sequential pass)
        // instead of chasing a heap allocation per tuple.
        let arity = d.vocabulary().arity(self.rel);
        let flat = d.flat_tuples(self.rel);
        let data = out.data.make_mut();
        data.reserve((flat.len() / arity) * self.out_pos.len());
        if dict.is_identity() {
            // Whole-tuple scans (no filter, columns in tuple order) are
            // one bulk copy of the image.
            if self.eq_checks.is_empty()
                && arity == self.out_pos.len()
                && self.out_pos.iter().enumerate().all(|(i, &p)| i == p)
            {
                data.extend_from_slice(flat);
                out.rows += flat.len() / arity;
                return;
            }
            'rows: for t in flat.chunks_exact(arity) {
                for &(i, j) in &self.eq_checks {
                    if t[i] != t[j] {
                        continue 'rows;
                    }
                }
                for &p in &self.out_pos {
                    data.push(t[p]);
                }
                out.rows += 1;
            }
            return;
        }
        'rows2: for t in flat.chunks_exact(arity) {
            for &(i, j) in &self.eq_checks {
                if t[i] != t[j] {
                    continue 'rows2;
                }
            }
            for &p in &self.out_pos {
                data.push(dict.encode(t[p]));
            }
            out.rows += 1;
        }
    }
}

/// The canonical identity of a materialized hyperedge relation,
/// independent of variable names and query identity: each atom of the
/// hyperedge reduced to its relation plus the **column index** (position
/// in the sorted distinct variable list) of every argument, the whole
/// list sorted. Two hyperedges with equal keys materialize to identical
/// row sets over any database — which is what lets a
/// [`MaterializationCache`] share work across prepared queries.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatKey {
    atoms: Vec<(RelId, Vec<u32>)>,
}

impl MatKey {
    /// The key of a hyperedge: `vars` are the sorted distinct variables,
    /// `atoms` every atom whose variable set equals `vars`.
    pub fn of_group(atoms: &[&Atom], vars: &[VarId]) -> MatKey {
        debug_assert!(vars.windows(2).all(|w| w[0] < w[1]), "vars must be sorted");
        let col =
            |v: VarId| -> u32 { vars.binary_search(&v).expect("atom var must be in vars") as u32 };
        let mut keyed: Vec<(RelId, Vec<u32>)> = atoms
            .iter()
            .map(|a| (a.rel, a.args.iter().map(|&v| col(v)).collect()))
            .collect();
        keyed.sort();
        keyed.dedup();
        MatKey { atoms: keyed }
    }

    /// The key of a single atom taken as its own hyperedge (used by the
    /// planner to look up real cardinalities of cached materializations).
    pub fn of_atom(atom: &Atom) -> MatKey {
        let mut vars: Vec<VarId> = atom.args.clone();
        vars.sort_unstable();
        vars.dedup();
        MatKey::of_group(&[atom], &vars)
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
    /// rows written): a clock-free measure of bag-build work.
    pub cursor_advances: u64,
}

impl MatCacheStats {
    /// Accumulates another outcome into this one.
    pub fn add(&mut self, other: MatCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.wcoj_bag_builds += other.wcoj_bag_builds;
        self.wcoj_bag_us += other.wcoj_bag_us;
        self.cursor_advances += other.cursor_advances;
    }
}

/// A per-database cache of materialized hyperedge relations, keyed by
/// [`MatKey`] and shared across prepared queries and concurrent batch
/// requests. Entries are stored under the materializing plan's own
/// column labels and adopted elsewhere via [`FlatRelation::relabel`]
/// (label-independent by construction of the key).
///
/// Invalidation: the cache is owned by one immutable database snapshot
/// (structures are immutable post-builder), so entries never go stale;
/// re-registering a database creates a fresh snapshot with a fresh,
/// empty cache.
///
/// Retention: entries are kept for the snapshot's lifetime, like the
/// compiled plans of prepared queries — the population is bounded by
/// the distinct hyperedge shapes of the queries actually served, and
/// each entry is at most one relation's worth of elements. Dropping the
/// snapshot (or re-registering its name and dropping the old handle)
/// releases everything.
///
/// Concurrency: materialization is **single-flight** — the map holds
/// one [`OnceLock`] flight per key, so when parallel batch requests
/// miss on the same `MatKey` simultaneously, exactly one scans the
/// database and the rest block on the flight and adopt the result as a
/// hit. This keeps the hit/miss accounting identical to a sequential
/// run of the same requests (one miss, the rest hits) and never burns
/// budgeted worker threads on duplicate scans.
#[derive(Debug, Default)]
pub struct MaterializationCache {
    /// `RwLock`, not `Mutex`: at serving-time hit rates nearly every
    /// access is a read (hits, planner peeks), and parallel batch
    /// workers must not serialize on the warm path.
    map: RwLock<FxHashMap<MatKey, Arc<MatFlight>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Byte budget for resident entries; `0` = unbounded (the default,
    /// under which behavior — including exact hit/miss accounting — is
    /// identical to the pre-budget cache).
    budget: AtomicUsize,
    /// Bytes held by landed entries ([`FlatRelation::heap_bytes`]).
    resident: AtomicUsize,
    /// Entries evicted to stay under budget, since creation.
    evictions: AtomicU64,
    /// Clock ring of insertion keys for the second-chance sweep. May
    /// hold stale keys (evicted then re-inserted entries push again);
    /// the sweep validates each popped key against the map.
    clock: Mutex<VecDeque<MatKey>>,
}

/// One single-flight materialization slot: the first claimant runs the
/// scan inside [`OnceLock::get_or_init`]; concurrent claimants block
/// and share the result.
#[derive(Debug, Default)]
struct MatFlight {
    cell: OnceLock<Arc<FlatRelation>>,
    /// Heap bytes of the landed relation (0 until landing).
    bytes: AtomicUsize,
    /// Referenced since the clock hand last passed (second chance).
    touched: AtomicBool,
}

impl MaterializationCache {
    /// An empty cache.
    pub fn new() -> Self {
        MaterializationCache::default()
    }

    /// The cached relation for `key`, or the result of `materialize`
    /// (inserted for later calls). Returns the relation and whether it
    /// was a hit. No lock is held while materializing; concurrent
    /// misses on the same key are single-flight — one caller runs
    /// `materialize` (and counts the miss), the rest wait on the flight
    /// and count hits, exactly as if they had arrived after it.
    ///
    /// The entry's rows are shared: callers adopt them with
    /// [`FlatRelation::relabel`], which copies nothing, and no operator
    /// writes through a shared buffer, so an entry reads the same for
    /// as long as it lives. The cache owns an entry's bytes only in the
    /// accounting sense: eviction subtracts them from
    /// [`MaterializationCache::resident_bytes`] at once, while the
    /// memory itself is freed when the last request still reading the
    /// rows drops its slot.
    pub fn get_or_materialize(
        &self,
        key: &MatKey,
        materialize: impl FnOnce() -> FlatRelation,
    ) -> (Arc<FlatRelation>, bool) {
        // Bound scope for the read guard: a `match` scrutinee would
        // keep it alive into the write-locking arm and self-deadlock.
        let existing = {
            let map = self.map.read().expect("cache lock poisoned");
            map.get(key).cloned()
        };
        let flight = match existing {
            Some(f) => f,
            None => {
                // Re-check before inserting: a racing caller may have
                // created the flight between the two lock acquisitions,
                // and only a true insert needs to clone the key.
                let mut map = self.map.write().expect("cache lock poisoned");
                match map.get(key) {
                    Some(f) => Arc::clone(f),
                    None => {
                        let f = Arc::clone(map.entry(key.clone()).or_default());
                        // Hand entry before the map lock goes (same
                        // map → clock order as the sweep): a racer
                        // that finds the flight in the map may land it
                        // and sweep at once, and a sweep that cannot
                        // see the key leaves the budget exceeded at
                        // quiescence.
                        self.clock
                            .lock()
                            .expect("clock lock poisoned")
                            .push_back(key.clone());
                        f
                    }
                }
            }
        };
        let mut ran = false;
        let rel = flight.cell.get_or_init(|| {
            ran = true;
            // Rows go behind their `Arc` here, once per landing, so
            // that every later hit adopts them without a copy; buffers
            // that never reach a cache never pay for sharing.
            let mut rel = materialize();
            rel.share_rows();
            let rel = Arc::new(rel);
            // Build the entry's column bitmaps before taking its byte
            // size: the stored bytes — what eviction later subtracts —
            // then include the bitmap words, keeping the budget honest.
            rel.prebuild_bitmaps();
            // Byte accounting must happen *inside* the flight, before
            // the `OnceLock` publishes the cell: the sweep treats a
            // landed cell as evictable and subtracts `flight.bytes`,
            // so a sweeper racing ahead of a post-landing store would
            // subtract 0 while the lander's later `fetch_add` leaks
            // phantom resident bytes that nothing ever reclaims. The
            // `OnceLock`'s release-publication orders these stores
            // before any observer can see the cell as landed.
            let bytes = rel.heap_bytes();
            flight.bytes.store(bytes, Ordering::Relaxed);
            self.resident.fetch_add(bytes, Ordering::Relaxed);
            rel
        });
        let rel = Arc::clone(rel);
        if ran {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.maybe_evict();
        } else {
            flight.touched.store(true, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (rel, !ran)
    }

    /// Second-chance clock sweep, run after a landing pushes resident
    /// bytes past the budget. Un-landed flights are never evicted (a
    /// waiter may be blocked on them); recently-referenced entries get
    /// one pass of grace. Eviction removes the **whole flight** from
    /// the map — including its single-flight `OnceLock` slot — so a
    /// later request for the key starts a fresh flight and rebuilds;
    /// waiters still holding the old `Arc` land normally on it.
    fn maybe_evict(&self) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == 0 || self.resident.load(Ordering::Relaxed) <= budget {
            return;
        }
        let mut map = self.map.write().expect("cache lock poisoned");
        let mut clock = self.clock.lock().expect("clock lock poisoned");
        // Bounded sweep: the first revolution honors second chance; on
        // the second, pressure overrides recency and any landed entry
        // is fair game. The hand is FIFO and survivors re-enter at the
        // tail, so the first `len` pops visit every original entry
        // exactly once — an exact phase boundary. Without the second
        // phase, hits already in flight (flight cloned before this
        // sweep took the map lock) could keep re-setting `touched` and
        // a starvation-level budget would stay exceeded at quiescence.
        // If the hand still finds only un-landed flights, the overage
        // is in-flight work the sweep must not touch.
        let mut grace = clock.len();
        let mut steps = 2 * clock.len() + 2;
        while self.resident.load(Ordering::Relaxed) > budget && steps > 0 {
            steps -= 1;
            let first_pass = grace > 0;
            grace = grace.saturating_sub(1);
            let Some(key) = clock.pop_front() else { break };
            let Some(flight) = map.get(&key) else {
                continue; // stale hand entry: key already evicted
            };
            if flight.cell.get().is_none() {
                clock.push_back(key);
                continue;
            }
            if first_pass && flight.touched.swap(false, Ordering::Relaxed) {
                clock.push_back(key);
                continue;
            }
            let flight = map.remove(&key).expect("checked above");
            self.resident
                .fetch_sub(flight.bytes.load(Ordering::Relaxed), Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sets the byte budget (`0` = unbounded) and applies it
    /// immediately if the cache is already over.
    pub fn set_budget_bytes(&self, bytes: usize) {
        self.budget.store(bytes, Ordering::Relaxed);
        self.maybe_evict();
    }

    /// The configured byte budget (`0` = unbounded).
    pub fn budget_bytes(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Bytes currently held by landed entries.
    pub fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Entries evicted since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The cardinality of a cached materialization, if present (and
    /// landed — an in-flight scan is not peeked, matching "not yet
    /// materialized"). Does not count as a hit or miss — this is the
    /// planner's peek at real cardinalities.
    pub fn peek_cardinality(&self, key: &MatKey) -> Option<usize> {
        self.map
            .read()
            .expect("cache lock poisoned")
            .get(key)
            .and_then(|f| f.cell.get())
            .map(|r| r.len())
    }

    /// The cardinalities of several cached materializations under one
    /// read-lock acquisition (the planner resolves every atom of a query
    /// in one critical section). `None` per key not yet materialized.
    pub fn peek_cardinalities<'k>(
        &self,
        keys: impl IntoIterator<Item = &'k MatKey>,
    ) -> Vec<Option<usize>> {
        let map = self.map.read().expect("cache lock poisoned");
        keys.into_iter()
            .map(|k| map.get(k).and_then(|f| f.cell.get()).map(|r| r.len()))
            .collect()
    }

    /// Total cache hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total cache misses (materializations run) since creation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached hyperedge relations (landed flights only).
    pub fn len(&self) -> usize {
        self.map
            .read()
            .expect("cache lock poisoned")
            .values()
            .filter(|f| f.cell.get().is_some())
            .count()
    }

    /// `true` when nothing has been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte equality of row buffers, shared or owned.
    impl PartialEq for Rows {
        fn eq(&self, other: &Rows) -> bool {
            **self == **other
        }
    }

    fn rel(schema: &[VarId], rows: &[&[Element]]) -> FlatRelation {
        let mut r = FlatRelation::empty(schema.to_vec());
        for row in rows {
            r.push_row(row);
        }
        r.sort_dedup();
        r
    }

    #[test]
    fn sort_dedup_canonicalizes() {
        let mut r = FlatRelation::empty(vec![0, 1]);
        r.push_row(&[3, 4]);
        r.push_row(&[1, 2]);
        r.push_row(&[3, 4]);
        r.sort_dedup();
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0), &[1, 2]);
        assert_eq!(r.row(1), &[3, 4]);
    }

    #[test]
    fn nullary_rows_cap_at_one() {
        let mut r = FlatRelation::empty(vec![]);
        r.push_row(&[]);
        r.push_row(&[]);
        r.sort_dedup();
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), &[] as &[Element]);
    }

    #[test]
    fn unit_is_join_identity() {
        let t = FlatRelation::unit();
        assert_eq!(t.len(), 1);
        assert_eq!(t.arity(), 0);
        let a = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        assert_eq!(
            a.join(&t).rows_in_head_order(&[0, 1]),
            a.rows_in_head_order(&[0, 1])
        );
    }

    #[test]
    fn union_rows_remaps_columns() {
        let mut a = rel(&[0, 1], &[&[1, 2]]);
        let b = rel(&[1, 0], &[&[2, 1], &[9, 8]]);
        a.union_rows(&b);
        a.sort_dedup();
        assert_eq!(a.len(), 2); // (1,2) deduplicated, (8,9) added
        assert_eq!(a.row(0), &[1, 2]);
        assert_eq!(a.row(1), &[8, 9]);
    }

    #[test]
    fn semijoin_filters_and_compacts() {
        let mut a = rel(&[0, 1], &[&[1, 2], &[3, 4], &[5, 6]]);
        let b = rel(&[1, 2], &[&[2, 9], &[6, 9]]);
        // shared var 1: position 1 in a, position 0 in b.
        a.semijoin_on(&[1], &b, &[0]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.row(0), &[1, 2]);
        assert_eq!(a.row(1), &[5, 6]);
    }

    #[test]
    fn semijoin_disjoint_schemas() {
        let mut a = rel(&[0], &[&[1], &[2]]);
        let b = rel(&[1], &[&[7]]);
        a.semijoin_on(&[], &b, &[]);
        assert_eq!(a.len(), 2); // nonempty other: keep all
        let empty = FlatRelation::empty(vec![1]);
        a.semijoin_on(&[], &empty, &[]);
        assert!(a.is_empty()); // empty other: cartesian semantics drop all
    }

    #[test]
    fn join_matches_row_pipeline() {
        let a = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let b = rel(&[1, 2], &[&[2, 5], &[2, 6], &[9, 9]]);
        let j = a.join(&b);
        assert_eq!(j.schema(), &[0, 1, 2]);
        assert_eq!(j.len(), 2);
        assert_eq!(
            j.rows_in_head_order(&[0, 1, 2]),
            [vec![1, 2, 5], vec![1, 2, 6]]
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
        // Build-side choice must not change the answer.
        let j2 = b.join(&a);
        assert_eq!(
            j.rows_in_head_order(&[0, 1, 2]),
            j2.rows_in_head_order(&[0, 1, 2])
        );
    }

    #[test]
    fn join_cartesian_when_disjoint() {
        let a = rel(&[0], &[&[1], &[2]]);
        let b = rel(&[1], &[&[7], &[8]]);
        assert_eq!(a.join(&b).len(), 4);
        // With a 0-ary operand (Boolean intermediate).
        let mut t = FlatRelation::empty(vec![]);
        t.push_row(&[]);
        assert_eq!(a.join(&t).len(), 2);
        assert_eq!(t.join(&a).len(), 2);
        let f = FlatRelation::empty(vec![]);
        assert_eq!(a.join(&f).len(), 0);
    }

    #[test]
    fn project_collapses_duplicates_and_dedups() {
        let a = rel(&[0, 1], &[&[1, 2], &[3, 2]]);
        let p = a.project(&[1, 1]);
        assert_eq!(p.schema(), &[1]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.row(0), &[2]);
    }

    #[test]
    fn intersect_sorted_walks() {
        let mut a = rel(&[0, 1], &[&[1, 2], &[3, 4], &[5, 6]]);
        let b = rel(&[0, 1], &[&[3, 4], &[5, 6], &[7, 8]]);
        a.intersect_sorted(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.row(0), &[3, 4]);
        assert_eq!(a.row(1), &[5, 6]);
    }

    #[test]
    fn binder_rejects_inconsistent_repetitions() {
        use crate::parser::parse_cq;
        let q = parse_cq("Q(x) :- E(x, x)").unwrap();
        let binder = AtomBinder::compile(&q.atoms()[0], &[0]);
        let d = Structure::digraph(3, &[(0, 0), (0, 1), (2, 2)]);
        let mut out = FlatRelation::empty(vec![0]);
        binder.materialize_into(&d, &mut out);
        out.sort_dedup();
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
    /// normalized) for exercising the parallel kernel paths.
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

    /// Every parallel kernel must reproduce the sequential output bit
    /// for bit — same rows, same order, same buffer contents.
    #[test]
    fn parallel_kernels_are_bit_identical_to_sequential() {
        let seq = ThreadBudget::sequential();
        let par = ThreadBudget::new(4);
        let a = big_random_rel(&[0, 1, 2], 12_000, 40, 1);
        let b = big_random_rel(&[1, 3], 9_000, 40, 2);

        // sort_dedup: parallel merge sort vs sequential sort.
        let mut s1 = a.clone();
        s1.sort_dedup_budget(&seq);
        let mut s2 = a.clone();
        s2.sort_dedup_budget(&par);
        assert_eq!(s1.rows, s2.rows);
        assert_eq!(s1.data, s2.data, "sort_dedup outputs must be identical");

        let mut b1 = b.clone();
        b1.sort_dedup_budget(&seq);

        // join: partitioned build + morsel probe vs sequential loop.
        let j1 = s1.join_budget(&b1, &seq);
        let j2 = s1.join_budget(&b1, &par);
        assert_eq!(j1.schema, j2.schema);
        assert_eq!(j1.rows, j2.rows);
        assert_eq!(j1.data, j2.data, "join outputs must be identical");
        // Both build-side choices (probe = other / probe = self).
        let j3 = b1.join_budget(&s1, &seq);
        let j4 = b1.join_budget(&s1, &par);
        assert_eq!(j3.data, j4.data, "swapped join outputs must be identical");

        // semijoin: morsel probe + ordered compaction vs sequential.
        let mut m1 = s1.clone();
        m1.semijoin_on_budget(&[1], &b1, &[0], &seq);
        let mut m2 = s1.clone();
        m2.semijoin_on_budget(&[1], &b1, &[0], &par);
        assert_eq!(m1.rows, m2.rows);
        assert_eq!(m1.data, m2.data, "semijoin outputs must be identical");

        // project: morsel gather + parallel sort vs sequential.
        let p1 = s1.project_budget(&[2, 0], &seq);
        let p2 = s1.project_budget(&[2, 0], &par);
        assert_eq!(p1.schema, p2.schema);
        assert_eq!(p1.data, p2.data, "project outputs must be identical");
    }

    /// A zero-capacity budget must never spawn — and must leave results
    /// unchanged even right at the morsel-size boundaries.
    #[test]
    fn sequential_budget_is_the_default_path() {
        let seq = ThreadBudget::sequential();
        assert_eq!(seq.capacity(), 0);
        let mut r = big_random_rel(&[0, 1], PAR_MIN_ROWS + 1, 10, 3);
        let mut expected = r.clone();
        expected.sort_dedup_budget(&ThreadBudget::new(1));
        r.sort_dedup_budget(&seq);
        assert_eq!(r.data, expected.data);
    }

    /// Concurrent misses on one key run the scan exactly once
    /// (single-flight); the waiters account as hits, exactly like a
    /// sequential run of the same requests.
    #[test]
    fn single_flight_materializes_once() {
        use std::sync::atomic::AtomicUsize;
        let cache = MaterializationCache::new();
        let q = crate::parser::parse_cq("Q() :- E(x, y)").unwrap();
        let key = MatKey::of_atom(&q.atoms()[0]);
        let runs = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (r, _) = cache.get_or_materialize(&key, || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        rel(&[0, 1], &[&[1, 2]])
                    });
                    assert_eq!(r.len(), 1);
                });
            }
        });
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1,
            "one scan under single-flight"
        );
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
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
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
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
        r.sort_dedup();
        r
    }

    /// The binary reference build: left-deep joins, canonical project.
    fn binary_reference(parts: &[&FlatRelation], schema: &[VarId]) -> FlatRelation {
        let budget = &ThreadBudget::sequential();
        let mut acc: Option<FlatRelation> = None;
        for &p in parts {
            acc = Some(match acc {
                None => p.clone(),
                Some(a) => a.join_budget(p, budget),
            });
        }
        acc.unwrap().project_budget(schema, budget)
    }

    fn assert_identical(got: &FlatRelation, want: &FlatRelation, ctx: &str) {
        assert_eq!(got.schema(), want.schema(), "schema differs: {ctx}");
        assert_eq!(got.len(), want.len(), "row count differs: {ctx}");
        assert_eq!(got.data.len(), got.len() * got.arity(), "buffer: {ctx}");
        assert!(got.iter_rows().eq(want.iter_rows()), "rows differ: {ctx}");
    }

    /// The kernel under a sequential budget, its stats dropped.
    fn kernel(parts: &[&FlatRelation], keep: &[VarId]) -> FlatRelation {
        let schemas: Vec<&[VarId]> = parts.iter().map(|p| p.schema()).collect();
        let (schema, budget) = (union_schema(&schemas), ThreadBudget::sequential());
        multiway_join(parts, &schema, keep, &budget, &mut MatCacheStats::default())
    }

    fn union_schema(schemas: &[&[VarId]]) -> Vec<VarId> {
        let mut schema: Vec<VarId> = schemas.iter().flat_map(|s| s.iter().copied()).collect();
        schema.sort_unstable();
        schema.dedup();
        schema
    }

    /// Every keep list over `schema`: each subset, ascending, the
    /// full schema first (the bag build, which must reproduce the
    /// bytes of the binary build) — and each of two or more variables
    /// also reversed, an order the enumeration cannot follow.
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

    /// Kernel ≡ binary reference (bytes and code width) on random parts
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
                let joined = binary_reference(&parts, &schema);
                for keep in keep_lists(&schema) {
                    let got = kernel(&parts, &keep);
                    let want = joined.project(&keep);
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
        assert_eq!(
            enumeration_order(&[&a, &b], &[0, 1, 2], &[0, 1, 2]),
            [0, 2, 1]
        );
        // Kept variables go first where a part links them, in the keep
        // list's order; the rest ascending.
        let path = [&rel(&[0, 1], &[&[1, 7]]), &b, &rel(&[2, 3], &[&[5, 9]])];
        let schema = [0, 1, 2, 3];
        assert_eq!(enumeration_order(&path, &schema, &[]), [0, 1, 2, 3]);
        assert_eq!(enumeration_order(&path, &schema, &[2]), [2, 1, 0, 3]);
        assert_eq!(enumeration_order(&path, &schema, &[3, 2]), [3, 2, 1, 0]);
        assert_eq!(enumeration_order(&path, &schema, &[0, 3]), [0, 1, 2, 3]);
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
        let want = binary_reference(&[&a, &b], &[0, 1, 2]);
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
                let budget = ThreadBudget::sequential();
                let parts = [&rels[0], &rels[1]];
                let out = multiway_join(&parts, &[0, 1, 2], &[0, 1, 2], &budget, &mut stats);
                let linear = (rels[0].len() + rels[1].len() + out.len()) as u64;
                assert!(
                    stats.cursor_advances <= 4 * linear,
                    "{} advances for {linear} rows on {s1:?} {s2:?}",
                    stats.cursor_advances
                );
            }
        }
    }

    // ── direct-addressed index ──────────────────────────────────────

    /// A dense-coded relation: rows drawn from `[0, width)` with the
    /// width bound installed, as binder materialization would produce.
    fn dense_rel(schema: &[VarId], n: usize, width: u32, seed: u64) -> FlatRelation {
        let mut r = big_random_rel(schema, n, width, seed);
        r.sort_dedup();
        r.domain_width = width;
        r
    }

    /// The semijoin by its definition: the rows of `target` whose
    /// `my_pos` columns are the `their_pos` columns of some row of
    /// `source` (a `BTreeSet` of those key tuples), in order, as one
    /// row-major buffer.
    fn semijoin_reference(
        target: &FlatRelation,
        my_pos: &[usize],
        source: &FlatRelation,
        their_pos: &[usize],
    ) -> Vec<Element> {
        let key = |row: &[Element], pos: &[usize]| pos.iter().map(|&i| row[i]).collect();
        let keys: BTreeSet<Vec<Element>> = source.iter_rows().map(|r| key(r, their_pos)).collect();
        let hit = |row: &&[Element]| keys.contains(&key(row, my_pos));
        target.iter_rows().filter(hit).flatten().copied().collect()
    }

    /// Joins through every index representation must be byte-identical
    /// — same rows, same order: direct vs hashed on a one-column key,
    /// packed vs hashed on two, each hashed build also partitioned under
    /// four threads (the last fixture is large enough for that). All
    /// three list a group's rows ascending, so when the larger side
    /// probes the join comes out sorted. Semijoins on the same keys
    /// build no index, whatever the knobs: they match the reference.
    #[test]
    fn direct_index_is_bit_identical_to_hashed() {
        let _g = knob_guard();
        let (seq, par) = (ThreadBudget::sequential(), ThreadBudget::new(4));
        for &(n, m, width) in &[
            (500usize, 300usize, 64u32),
            (3000, 2500, 900),
            (64, 6000, 40),
            (7000, 5000, 2500),
        ] {
            for key in 1..=2usize {
                let (sa, sb): (&[VarId], &[VarId]) = match key {
                    1 => (&[0, 1], &[1, 2]),
                    _ => (&[0, 1, 2], &[1, 2, 3]),
                };
                let a = dense_rel(sa, n, width, 11);
                let b = dense_rel(sb, m, width, 22);
                let (pa, pb): (Vec<usize>, Vec<usize>) = ((1..=key).collect(), (0..key).collect());
                let want = semijoin_reference(&a, &pa, &b, &pb);
                let run = |budget: &ThreadBudget| {
                    let mut sj = a.clone();
                    sj.semijoin_on_budget(&pa, &b, &pb, budget);
                    assert_eq!(
                        *sj.data, want,
                        "semijoin bytes differ, n={n}, {key} columns"
                    );
                    a.join_budget(&b, budget)
                };
                set_direct_index_enabled(true);
                set_packed_mode(PackedMode::On);
                let a_builds = a.len() <= b.len();
                let (build, build_pos) = if a_builds { (&a, &pa) } else { (&b, &pb) };
                assert!(KeyIndex::build(build, build_pos, |i| i as u32).is_exact());
                let exact = run(&seq);
                // Force the hashed representation for the comparison runs.
                set_direct_index_enabled(false);
                set_packed_mode(PackedMode::Off);
                for (budget, what) in [(&seq, "hashed"), (&par, "partitioned")] {
                    let join = run(budget);
                    let ctx = format!("{what}, n={n}, {key}-column key");
                    assert_eq!(exact.schema, join.schema, "{ctx}");
                    assert_eq!(exact.data, join.data, "join bytes differ: {ctx}");
                    assert_eq!(exact.domain_width, join.domain_width, "{ctx}");
                }
                if !a_builds {
                    assert!(exact.iter_rows().is_sorted(), "n={n}, {key}-column key");
                }
            }
        }
        DIRECT_INDEX_OVERRIDE.store(0, Ordering::Relaxed);
        reset_packed_override();
    }

    /// Probe values outside the dense bound (possible when the probe
    /// side carries a wider — or no — bound) must simply miss: a join
    /// probing a direct index with codes past its width.
    #[test]
    fn direct_index_out_of_range_probe_misses() {
        let _g = knob_guard();
        set_direct_index_enabled(true);
        let b = dense_rel(&[1, 2], 100, 16, 5);
        assert!(matches!(
            KeyIndex::build(&b, &[0], |i| i as u32),
            KeyIndex::Direct { .. }
        ));
        // More rows than `b`, so `b` builds; codes up to 19 ≥ width 16.
        let rows: Vec<[Element; 2]> = (0..200).map(|i| [i, i % 20]).collect();
        let a = rel(&[0, 1], &rows.iter().map(|r| &r[..]).collect::<Vec<_>>());
        let joined = a.join_budget(&b, &ThreadBudget::sequential());
        let hits = |v: Element| b.iter_rows().filter(|r| r[0] == v).count();
        assert_eq!(joined.len(), rows.iter().map(|r| hits(r[1])).sum::<usize>());
        assert!(!joined.is_empty() && joined.iter_rows().all(|r| r[1] < 16));
        DIRECT_INDEX_OVERRIDE.store(0, Ordering::Relaxed);
    }

    /// A sparse bound (width ≫ rows) must fall back to the hashed
    /// representation; multi-column keys always do.
    #[test]
    fn direct_index_memory_guard_and_multicolumn_fallback() {
        let _g = knob_guard();
        let small = dense_rel(&[0, 1], 20, 1000, 9);
        assert!(
            !KeyIndex::wants_direct(&small, &[0]),
            "width 1000 ≫ 4·max(20,16)"
        );
        let dense = dense_rel(&[0, 1], 500, 64, 9);
        assert!(!KeyIndex::wants_direct(&dense, &[0, 1]), "two-column key");
        let unbounded = rel(&[0, 1], &[&[1, 2]]);
        assert!(!KeyIndex::wants_direct(&unbounded, &[0]), "no width bound");
    }

    /// A part probed below the first level finds runs through its
    /// offsets array when the dense bound is close to its row count and
    /// by searching its first column when the bound is sparse or
    /// absent, out-of-range probe values included; same bytes each way.
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
            let dense = !Trie::new(parts[1], &mut vec![0; parts[1].len()])
                .offsets
                .is_empty();
            assert_eq!(dense, widths[1] == 60);
            let got = kernel(&parts, &[0, 1, 2]);
            let want = binary_reference(&parts, &[0, 1, 2]);
            assert!(!want.is_empty());
            assert_identical(&got, &want, &format!("widths {widths:?}"));
        }
        // A probe value beyond the probed part's bound simply misses.
        let mut a = rel(&[0, 1], &[&[1, 2], &[1, 50]]);
        let mut b = rel(&[1, 2], &[&[2, 3], &[2, 4]]);
        (a.domain_width, b.domain_width) = (64, 5);
        assert!(!Trie::new(&b, &mut [0; 2]).offsets.is_empty());
        assert_eq!(kernel(&[&a, &b], &[0, 1, 2]).len(), 2);
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
        AtomBinder::compile(&q.atoms()[0], &[0, 1]).materialize_into(&d, &mut out);
        out.sort_dedup();
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
        r.sort_dedup();
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
        // The clock hand moved through the oldest entry first.
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
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.resident_bytes(), 0);
    }

    /// Recently-hit entries survive one clock pass (second chance): the
    /// hot entry outlives colder, newer ones.
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

    // ── bitmap existence kernels ────────────────────────────────────

    /// The bitmap semijoin (branch-free selection vector) must be
    /// byte-identical to the kernel arm — same survivors, same order,
    /// same width bound — sequentially and under morsel fan-out.
    #[test]
    fn bitmap_semijoin_is_bit_identical_to_probe() {
        let _g = knob_guard();
        for &(n, m, width) in &[
            (500usize, 300usize, 64u32),
            (3000, 2500, 900),
            (64, 6000, 40),
        ] {
            let a = dense_rel(&[0, 1], n, width, 31);
            let b = dense_rel(&[1, 2], m, width, 32);
            for threads in [1usize, 4] {
                let budget = ThreadBudget::new(threads);
                set_bitmap_mode(BitmapMode::On);
                let probes = BITMAP_PROBES.load(Ordering::Relaxed);
                let mut via_bitmap = a.clone();
                via_bitmap.semijoin_on_budget(&[1], &b, &[0], &budget);
                assert!(
                    BITMAP_PROBES.load(Ordering::Relaxed) > probes,
                    "dense fixture must take the bitmap path"
                );
                set_bitmap_mode(BitmapMode::Off);
                let mut via_probe = a.clone();
                via_probe.semijoin_on_budget(&[1], &b, &[0], &budget);
                assert_eq!(
                    via_bitmap.data, via_probe.data,
                    "semijoin bytes differ (n={n}, {threads} threads)"
                );
                assert_eq!(via_bitmap.rows, via_probe.rows);
                assert_eq!(via_bitmap.domain_width, via_probe.domain_width);
            }
        }
        BITMAP_OVERRIDE.store(0, Ordering::Relaxed);
    }

    /// Bitmaps answer only existence, so they survive `sort_dedup` but
    /// must be dropped by any mutation that changes the value set —
    /// a stale cell would silently corrupt later semijoins.
    #[test]
    fn bitmaps_invalidate_on_mutation_and_survive_sort() {
        let _g = knob_guard();
        set_bitmap_mode(BitmapMode::On);
        let mut r = dense_rel(&[0, 1], 200, 32, 77);
        let bm = r.column_bitmap(0).expect("dense fixture is eligible");
        r.sort_dedup();
        assert!(
            Arc::ptr_eq(&bm, &r.column_bitmap(0).unwrap()),
            "sort_dedup keeps the cached cell"
        );
        // A clone taken before the mutation keeps the old (valid) cell.
        let snapshot = r.clone();
        r.push_row(&[31, 31]);
        let rebuilt = r.column_bitmap(0).expect("rebuilt after push_row");
        assert!(!Arc::ptr_eq(&bm, &rebuilt), "mutation must drop the cell");
        assert!(rebuilt.contains(31));
        assert!(Arc::ptr_eq(&bm, &snapshot.column_bitmap(0).unwrap()));
        BITMAP_OVERRIDE.store(0, Ordering::Relaxed);
    }

    /// Regression: joining with the unit (or an empty) relation must
    /// keep the other side's known bound instead of clearing it, and a
    /// semijoin-shaped join (no extra columns) keeps `self`'s bound.
    #[test]
    fn combine_widths_keeps_bound_through_unit_and_empty() {
        let unit = FlatRelation::unit();
        let dense = dense_rel(&[0, 1], 50, 16, 3);
        assert_eq!(unit.combine_widths(&dense), 16);
        assert_eq!(dense.combine_widths(&unit), 16);
        let empty = FlatRelation::empty(vec![2]);
        assert_eq!(dense.combine_widths(&empty), 16);

        let budget = ThreadBudget::sequential();
        let joined = unit.join_budget(&dense, &budget);
        assert_eq!(joined.domain_width, 16, "unit ⋈ dense keeps the bound");
        // Semijoin-shaped: other contributes no new columns, so the
        // output rows are a subset of self's — self's bound holds even
        // if the other side's is unknown.
        let mut wide = dense_rel(&[1, 3], 50, 16, 4);
        wide.domain_width = 0;
        let shaped = dense.join_budget(&wide.project(&[1]), &budget);
        assert_eq!(shaped.schema, vec![0, 1]);
        assert_eq!(shaped.domain_width, 16, "their_extra is empty");
    }

    /// Cached materializations prebuild their bitmaps, and the bytes
    /// stored with the entry — hence resident accounting and eviction —
    /// include the word tables.
    #[test]
    fn cache_accounts_bitmap_bytes() {
        let _g = knob_guard();
        set_bitmap_mode(BitmapMode::On);
        let cache = MaterializationCache::new();
        let [key, _, _] = three_keys();
        let bare = dense_rel(&[0, 1], 512, 256, 8);
        let raw = bare.heap_bytes(); // no bitmaps built yet
        let (landed, _) = cache.get_or_materialize(&key, || dense_rel(&[0, 1], 512, 256, 8));
        assert!(
            landed.heap_bytes() > raw,
            "landed entry carries bitmap words"
        );
        assert_eq!(cache.resident_bytes(), landed.heap_bytes());
        BITMAP_OVERRIDE.store(0, Ordering::Relaxed);
    }

    // ── packed code-word kernels ────────────────────────────────────

    /// The radix `sort_dedup` fast path must leave exactly the bytes
    /// the comparison sort leaves, for every arity whose rows fit a
    /// word (`u32` and `u64` words, up to exactly 64 bits), including
    /// the duplicate-heavy, already-sorted-width-1 and empty cases.
    #[test]
    fn packed_sort_dedup_is_byte_identical_to_comparison() {
        let _g = knob_guard();
        for &(schema, n, width) in &[
            (&[0][..], 900usize, 40u32),
            (&[0, 1][..], 2000, 64),
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
            set_packed_mode(PackedMode::On);
            radix.sort_dedup();
            set_packed_mode(PackedMode::Off);
            cmp.sort_dedup();
            assert_eq!(radix.schema, cmp.schema);
            assert_eq!(radix.rows, cmp.rows, "row count (n={n} width={width})");
            assert_eq!(radix.data, cmp.data, "bytes differ (n={n} width={width})");
            assert_eq!(radix.domain_width, cmp.domain_width);
        }
        // Unbounded or wide relations must never take the radix path
        // even when forced on: the knob selects among eligible
        // representations, it does not create eligibility.
        let mut unbounded = big_random_rel(&[0, 1], 600, 50, 23);
        let mut wide = big_random_rel(&[0, 1, 2, 3, 4], 600, 50, 23);
        wide.domain_width = 1 << 13; // 5 × 13 = 65 bits
        set_packed_mode(PackedMode::On);
        assert!(!unbounded.packed_sort_wanted());
        assert!(!wide.packed_sort_wanted());
        let before = packed_stats().builds;
        unbounded.sort_dedup();
        wide.sort_dedup();
        assert_eq!(
            packed_stats().builds,
            before,
            "ineligible inputs skip the counter"
        );
        reset_packed_override();
    }

    /// A canonical relation costs `sort_dedup` one pass on every arm —
    /// sequential radix, sequential comparison, parallel merge — and a
    /// buffer shared with a cache entry stays shared.
    #[test]
    fn canonical_rows_stay_shared_on_every_sort_arm() {
        let _g = knob_guard();
        let data: Vec<Element> = (0..100_000u32).flat_map(|i| [i / 300, i % 300]).collect();
        let mut cached = FlatRelation::from_raw(2, 100_000, data, 400);
        cached.share_rows();
        for mode in [PackedMode::On, PackedMode::Off] {
            set_packed_mode(mode);
            for threads in [1, 2] {
                let mut slot = cached.clone();
                slot.sort_dedup_budget(&ThreadBudget::new(threads));
                assert!(
                    slot.shares_rows_with(&cached),
                    "{mode:?}, {threads} thread(s)"
                );
                assert_eq!(slot.rows, 100_000);
            }
        }
        reset_packed_override();
    }

    /// The packing-width edges — `arity · b` = 32 (the last `u32`
    /// word), 33 (the first `u64` word) and 64 (the last word of all),
    /// at code widths 2¹⁶ and 2³² − 1 among them — through the sort and
    /// through the fused join→project, on rows that reach every
    /// column's top bit and arrive ordered on their first column only
    /// (the shape the word sort's run path takes), against a plain set
    /// of rows.
    #[test]
    fn packing_width_edges_sort_and_project_like_a_set() {
        let _g = knob_guard();
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
            for mode in [PackedMode::On, PackedMode::Off] {
                set_packed_mode(mode);
                let what = format!("arity {arity}, width {width}, {mode:?}");
                let mut rel = FlatRelation::from_raw(arity, rows.len(), flat.clone(), width);
                rel.sort_dedup();
                let want: BTreeSet<&[Element]> = rows.iter().map(Vec::as_slice).collect();
                assert!(rel.iter_rows().eq(want.iter().copied()), "sort: {what}");
                // Every value of column 0, so the join drops nothing.
                let all = FlatRelation::from_raw(1, 5, values.to_vec(), width);
                for (other, head) in [&FlatRelation::unit(), &all].into_iter().zip(&heads) {
                    let got = rel.join_cols(other, Some(head), ThreadBudget::shared());
                    let want: BTreeSet<Vec<Element>> = rows
                        .iter()
                        .map(|r| head.iter().map(|&v| r[v as usize]).collect())
                        .collect();
                    assert_eq!(got.rows, want.len(), "project: {what}");
                    let got: BTreeSet<Vec<Element>> = got.iter_rows().map(<[_]>::to_vec).collect();
                    assert_eq!(got, want, "project: {what}");
                }
            }
        }
        reset_packed_override();
    }

    /// Joins on a two-column key through the packed radix-partitioned
    /// index must be byte-identical to the hashed path — same rows, same
    /// order — sequentially and under a granting thread budget. The
    /// semijoin on that key matches the reference under both knobs.
    #[test]
    fn packed_index_is_bit_identical_to_hashed() {
        let _g = knob_guard();
        for &(n, m, width) in &[(800usize, 600usize, 12u32), (2500, 2000, 48)] {
            let a = dense_rel(&[0, 1, 2], n, width, 31);
            let b = dense_rel(&[1, 2, 3], m, width, 32);
            let want = semijoin_reference(&a, &[1, 2], &b, &[0, 1]);
            let semijoin = |threads: usize| {
                let mut sj = a.clone();
                sj.semijoin_on_budget(&[1, 2], &b, &[0, 1], &ThreadBudget::new(threads));
                assert_eq!(
                    *sj.data, want,
                    "semijoin bytes differ (n={n}, {threads} threads)"
                );
            };
            // Shared columns {1, 2}: a genuine two-column key.
            set_packed_mode(PackedMode::On);
            assert!(
                KeyIndex::wants_packed(&b, &[0, 1]),
                "fixture must be eligible"
            );
            let before = packed_stats();
            let packed = a.join_budget(&b, &ThreadBudget::sequential());
            let packed_par = a.join_budget(&b, &ThreadBudget::new(4));
            let after = packed_stats();
            assert!(
                after.builds > before.builds,
                "packed builds must be counted"
            );
            assert!(after.rows > before.rows, "packed rows must be counted");
            semijoin(1);
            semijoin(4);

            set_packed_mode(PackedMode::Off);
            let hashed = a.join_budget(&b, &ThreadBudget::sequential());
            semijoin(1);
            reset_packed_override();

            assert_eq!(packed.schema, hashed.schema);
            assert_eq!(packed.data, hashed.data, "join bytes differ (n={n})");
            assert_eq!(packed.domain_width, hashed.domain_width);
            assert_eq!(packed_par.data, hashed.data, "parallel join bytes differ");
        }
    }

    /// Packed-index edge cases: empty build side, single key, and
    /// probe words past the maximum key (possible when the probe side
    /// carries a wider — or no — bound) must simply miss.
    #[test]
    fn packed_index_edge_cases() {
        let _g = knob_guard();
        set_packed_mode(PackedMode::On);
        let empty = {
            let mut r = FlatRelation::empty(vec![0, 1]);
            r.domain_width = 8;
            r
        };
        let row_id = |i: usize| i as u32;
        let idx = KeyIndex::build_packed(&empty, &[0, 1], row_id);
        let has = |idx: &KeyIndex, k: u64| !idx.packed_group(k).is_empty();
        assert!(!has(&idx, pack2(0, 0)));

        let mut one = FlatRelation::empty(vec![0, 1]);
        one.push_row(&[0, 0]);
        one.domain_width = 1;
        let idx = KeyIndex::build_packed(&one, &[0, 1], row_id);
        assert!(has(&idx, pack2(0, 0)));
        assert!(!has(&idx, pack2(0, 1)));
        assert!(!has(&idx, pack2(7, 7)), "past-the-directory probe misses");
        assert!(!has(&idx, u64::MAX));

        let b = dense_rel(&[0, 1], 700, 20, 5);
        let idx = KeyIndex::build_packed(&b, &[0, 1], row_id);
        assert!(idx.is_exact(), "packed candidates need no re-check");
        for (i, row) in b.iter_rows().enumerate() {
            assert_eq!(idx.packed_group(pack2(row[0], row[1])), [i as u32]);
        }
        assert!(!has(&idx, pack2(20, 0)), "width is exclusive");
        assert!(!has(&idx, pack2(1_000_000, 3)));
        reset_packed_override();
    }

    /// The ascending-row group order inside the packed index must
    /// match the chained-hash bucket order exactly — this is the
    /// invariant the join byte-identity rests on.
    #[test]
    fn packed_groups_list_rows_ascending() {
        let _g = knob_guard();
        set_packed_mode(PackedMode::On);
        let mut r = FlatRelation::empty(vec![0, 1]);
        for i in 0..600u32 {
            r.push_row(&[i % 7, i % 3]);
        }
        r.domain_width = 7;
        let idx = KeyIndex::build_packed(&r, &[0, 1], |i| i as u32);
        for key in (0..7u32).flat_map(|h| (0..3u32).map(move |l| pack2(h, l))) {
            let group = idx.packed_group(key);
            assert!(!group.is_empty());
            assert!(
                group.windows(2).all(|w| w[0] < w[1]),
                "group for {key:#x} must list rows strictly ascending"
            );
        }
        reset_packed_override();
    }

    // ── domain-width propagation (packed eligibility audit) ─────────

    /// Regression: a projection that drops the high column must keep
    /// the low column's `domain_width` — both the sorting projection
    /// and the hash-distinct variant — or downstream packed kernels
    /// lose their eligibility for no reason.
    #[test]
    fn projection_keeps_domain_width_on_surviving_columns() {
        let r = dense_rel(&[0, 1], 300, 24, 9);
        for vars in [&[0][..], &[1][..], &[1, 0][..]] {
            assert_eq!(r.project(vars).domain_width(), 24, "project {vars:?}");
            assert_eq!(
                r.join_cols(&FlatRelation::unit(), Some(vars), ThreadBudget::shared())
                    .domain_width(),
                24,
                "distinct {vars:?}"
            );
        }
    }

    /// Regression: unioning into a freshly reset (empty) accumulator —
    /// the bag-build scratch pattern — must adopt the incoming bound,
    /// and a union of two bounded sides keeps the max; one unknown
    /// side poisons the bound conservatively.
    #[test]
    fn union_rows_propagates_domain_width_conservatively() {
        let dense = dense_rel(&[0, 1], 100, 16, 2);
        let mut scratch = dense_rel(&[0, 1], 10, 8, 6);
        scratch.reset(vec![0, 1]);
        assert_eq!(scratch.domain_width(), 0, "reset clears the bound");
        scratch.union_rows(&dense);
        assert_eq!(
            scratch.domain_width(),
            16,
            "empty accumulator adopts the bound"
        );
        let wider = dense_rel(&[0, 1], 100, 32, 7);
        scratch.union_rows(&wider);
        assert_eq!(
            scratch.domain_width(),
            32,
            "bounded ∪ bounded keeps the max"
        );
        let mut unknown = big_random_rel(&[0, 1], 50, 16, 8);
        unknown.sort_dedup();
        scratch.union_rows(&unknown);
        assert_eq!(scratch.domain_width(), 0, "unknown side poisons the bound");
    }

    #[test]
    fn multiway_join_parallel_is_bit_identical() {
        // Enough level-0 candidates (> 2·WCOJ_MORSEL_CANDS) to engage
        // the morsel fan-out under a granting budget.
        let mut seed = 99u64;
        let schemas: [&[VarId]; 3] = [&[0, 1], &[1, 2], &[0, 2]];
        let rels: Vec<FlatRelation> = schemas
            .iter()
            .map(|s| random_rel(s, 900, 200, &mut seed))
            .collect();
        let parts: Vec<&FlatRelation> = rels.iter().collect();
        // The full bag, then keep lists whose dropped suffix is an
        // existence check below the fanned-out level (`[0]`), spans it
        // (`[]`, which must not fan out) or is empty with a sort after
        // (`[2, 0]`).
        for keep in [&[0, 1, 2][..], &[0], &[2, 0], &[]] {
            let mut seq_stats = MatCacheStats::default();
            let sequential = ThreadBudget::sequential();
            let seq = multiway_join(&parts, &[0, 1, 2], keep, &sequential, &mut seq_stats);
            assert!(!seq.is_empty(), "triangle join must produce rows");
            for threads in [2usize, 4, 8] {
                let budget = ThreadBudget::new(threads);
                let mut stats = MatCacheStats::default();
                let par = multiway_join(&parts, &[0, 1, 2], keep, &budget, &mut stats);
                assert_identical(&par, &seq, &format!("{threads} threads, keep {keep:?}"));
                assert!(stats.cursor_advances >= seq_stats.cursor_advances);
            }
        }
        // One level leaves nothing below level 0 to fan out.
        let ones: Vec<FlatRelation> = (0..2)
            .map(|_| random_rel(&[0], 400, 300, &mut seed))
            .collect();
        let budget = ThreadBudget::new(4);
        for parts in [vec![&ones[0]], vec![&ones[0], &ones[1]]] {
            let mut stats = MatCacheStats::default();
            let par = multiway_join(&parts, &[0], &[0], &budget, &mut stats);
            assert_identical(&par, &kernel(&parts, &[0]), "one level, four threads");
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
        r.sort_dedup();
        r
    }

    /// Shared-target and owned-target semijoins must leave the reference
    /// bytes, and the shared original untouched, on both arms (one key
    /// column with bitmaps on: bitmap; anything else: the kernel), with
    /// the key leading and trailing each schema, for each outcome,
    /// sequentially and over morsels. A shared target stays shared
    /// exactly when nothing drops.
    #[test]
    fn semijoin_on_shared_rows_matches_owned_rows() {
        let _g = knob_guard(); // the kernels bump counters other tests read
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
        let budgets = [ThreadBudget::sequential(), ThreadBudget::new(2)];
        for (source, what) in [
            (&all, "all"),
            (&some, "some"),
            (&none, "none"),
            (&empty, "empty"),
        ] {
            for (keys, lead) in (0..=3usize).flat_map(|k| [(k, true), (k, false)]) {
                let pos: Vec<usize> = if lead {
                    (0..keys).collect()
                } else {
                    (3 - keys..3).collect()
                };
                let want = semijoin_reference(&target, &pos, source, &pos);
                for (budget, mode) in budgets
                    .iter()
                    .flat_map(|b| [(b, BitmapMode::On), (b, BitmapMode::Off)])
                {
                    set_bitmap_mode(mode);
                    let mut owned = target.clone();
                    owned.semijoin_on_budget(&pos, source, &pos, budget);
                    let mut shared = cached.clone();
                    assert!(shared.shares_rows_with(&cached));
                    shared.semijoin_on_budget(&pos, source, &pos, budget);
                    let ctx = format!("{what} source, key {pos:?}, bitmaps {mode:?}");
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
        BITMAP_OVERRIDE.store(0, Ordering::Relaxed);
    }

    /// The kernel arm against the reference filter: keys of one, two
    /// and three columns at every placement in a four-column target and
    /// in a four-column source (leading, trailing, interleaved, out of
    /// order across the two), dense bounds and none, an empty source and
    /// an empty target; then a large two-column case fanned out over 1,
    /// 2 and 4 threads, byte-identical.
    #[test]
    fn semijoin_kernel_matches_reference_filter() {
        let _g = knob_guard();
        set_bitmap_mode(BitmapMode::Off);
        let mut seed = 61;
        let placements = |k: usize| -> Vec<Vec<usize>> {
            (0..16usize)
                .map(|m| (0..4).filter(|i| m >> i & 1 == 1).collect())
                .filter(|p: &Vec<usize>| p.len() == k)
                .collect()
        };
        for width in [7u32, 0] {
            // The source draws from fewer codes, so every key filters.
            let target = bounded_rel(&[0, 1, 2, 3], 500, width, &mut seed);
            let mut source = bounded_rel(&[10, 11, 12, 13], 200, 4, &mut seed);
            source.domain_width = width;
            let empty = bounded_rel(&[10, 11, 12, 13], 0, width, &mut seed);
            let none = bounded_rel(&[0, 1, 2, 3], 0, width, &mut seed);
            for k in 1..=3 {
                for mine in placements(k) {
                    for theirs in placements(k) {
                        // Also pair the key columns in reverse.
                        let reversed: Vec<usize> = theirs.iter().rev().copied().collect();
                        for theirs in [theirs.clone(), reversed] {
                            for (t, s) in [(&target, &source), (&target, &empty), (&none, &source)]
                            {
                                let mut got = t.clone();
                                got.semijoin_on(&mine, s, &theirs);
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
        for threads in [1, 2, 4] {
            let mut got = target.clone();
            got.semijoin_on_budget(&[1, 2], &source, &[2, 1], &ThreadBudget::new(threads));
            assert_eq!(*got.data, want, "{threads} threads");
        }
        BITMAP_OVERRIDE.store(0, Ordering::Relaxed);
    }

    /// Timing, so ignored by default (`cargo test --release -p cqapx-cq
    /// --lib -- --ignored --nocapture existence`): the Boolean `C₄`
    /// root's existence call over its two 80k-row bags (5000 vertices ×
    /// 4 out-edges) against the packed-word semijoin arm it replaced —
    /// a radix-partitioned index over the child's `(b, d)` and a
    /// selection vector over the root's — with a witness and with the
    /// child's `d` shifted past every code (no witness). Medians of 21
    /// interleaved runs; the call must stay within 1.25× of the arm.
    #[test]
    #[ignore]
    fn existence_call_against_packed_semijoin_arm() {
        let n = 5000u32;
        let mut seed = 0xC4;
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        for (u, succ) in out.iter_mut().enumerate() {
            while succ.len() < 4 {
                let v = (lcg(&mut seed) % u64::from(n)) as u32;
                if v != u as u32 && !succ.contains(&v) {
                    succ.push(v);
                }
            }
        }
        // Root (a, b, d): d → a → b. Child (b, c, d): b → c → d.
        let (mut root, mut child) = (
            FlatRelation::empty(vec![0, 1, 3]),
            FlatRelation::empty(vec![1, 2, 3]),
        );
        for (x, succ) in out.iter().enumerate() {
            for &y in succ {
                for &z in &out[y as usize] {
                    child.push_row(&[x as u32, y, z]);
                    root.push_row(&[y, z, x as u32]);
                }
            }
        }
        root.sort_dedup();
        child.sort_dedup();
        (root.domain_width, child.domain_width) = (n, n);
        root.share_rows();
        let mut shifted = child.clone();
        shifted
            .data
            .make_mut()
            .iter_mut()
            .skip(2)
            .step_by(3)
            .for_each(|d| *d += n);
        shifted.domain_width = 2 * n;
        let seq = ThreadBudget::sequential();
        let median = |mut t: Vec<f64>| {
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        };
        for (child, witness) in [(&child, true), (&shifted, false)] {
            let (mut call, mut arm, mut advances) = (Vec::new(), Vec::new(), 0);
            for _ in 0..21 {
                let t0 = std::time::Instant::now();
                let mut stats = MatCacheStats::default();
                let found = multiway_join(&[&root, child], &[0, 1, 2, 3], &[], &seq, &mut stats);
                call.push(t0.elapsed().as_secs_f64() * 1e3);
                assert_eq!(found.len(), usize::from(witness));
                advances = stats.cursor_advances;
                let t0 = std::time::Instant::now();
                let index = KeyIndex::build_packed(child, &[0, 2], |i| i as u32);
                let mut kept = root.clone();
                kept.retain_where(&seq, |r| !index.packed_group(pack2(r[1], r[2])).is_empty());
                arm.push(t0.elapsed().as_secs_f64() * 1e3);
                assert_eq!(kept.is_empty(), !witness);
            }
            let (call, arm) = (median(call), median(arm));
            println!(
                "witness {witness}: {} + {} rows, existence call {call:.3} ms \
                 ({advances} advances), packed arm {arm:.3} ms",
                root.len(),
                child.len()
            );
            assert!(call <= 1.25 * arm, "{call:.3} ms against {arm:.3} ms");
        }
    }

    /// The fused join→project on large operands, every dedup path,
    /// sequentially and over morsels, against join-then-project.
    #[test]
    fn fused_join_project_matches_two_steps_in_parallel() {
        let _g = knob_guard();
        let mut seed = 5;
        let l = bounded_rel(&[0, 1, 2], 9000, 300, &mut seed);
        let r = bounded_rel(&[1, 3], 7000, 300, &mut seed);
        for vars in [&[0, 3][..], &[3, 2, 0, 1], &[2], &[]] {
            let want = l.join(&r).project(vars);
            for budget in [ThreadBudget::sequential(), ThreadBudget::new(4)] {
                let mut got = l.join_cols(&r, Some(vars), &budget);
                assert_eq!(got.schema, want.schema);
                assert_eq!(got.rows, want.rows, "fused output must be duplicate-free");
                got.sort_dedup();
                assert_eq!(got.data, want.data, "vars {vars:?}");
            }
        }
    }

    // ── word-emitting joins ─────────────────────────────────────────

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
        r.sort_dedup();
        r
    }

    /// `l.join_cols(r, vars)` on the word path against `join_budget` +
    /// `project_budget` over the same operands — schema, rows in order,
    /// bound — under 1, 2 and 4 threads; then its emission against the
    /// row-id loop's, word for word, sequential and over morsels.
    /// Returns whether the share loop emitted (no match took `emit`).
    fn check_word_join(l: &FlatRelation, r: &FlatRelation, vars: &[VarId], ctx: &str) -> bool {
        let seq = ThreadBudget::sequential();
        let want = l.join_budget(r, &seq).project_budget(vars, &seq);
        for threads in [1, 2, 4] {
            let got = l.join_cols(r, Some(vars), &ThreadBudget::new(threads));
            assert_eq!(got.schema, want.schema, "{ctx}");
            assert_eq!(got.data, want.data, "{ctx}, {threads} threads");
            assert_eq!(got.domain_width, want.domain_width, "{ctx}");
        }
        let (shell, cols) = l.join_shell(r, Some(vars));
        let b = code_bits(shell.domain_width);
        let word = shell.packed_sort_wanted() && cols.len() > 1 && cols.len() as u32 * b <= 64;
        assert!(word, "{ctx}: not a word join");
        let (a, calls) = (l.arity(), AtomicUsize::new(0));
        let emit = |buf: &mut Vec<u64>, s: &[Element], o: &[Element]| {
            calls.fetch_add(1, Ordering::Relaxed);
            let pick = |c: usize| u64::from(if c < a { s[c] } else { o[c - a] });
            buf.push(cols.iter().fold(0, |w, &c| (w << b) | pick(c)));
        };
        let rows = l.join_emit(r, 1, &seq, None, emit);
        calls.store(0, Ordering::Relaxed);
        let words = l.join_emit(r, 1, &seq, Some((&cols, b)), emit);
        let shared = calls.load(Ordering::Relaxed) == 0;
        assert_eq!(words, rows, "{ctx}: emission differs from the row-id loop");
        for threads in [2, 4] {
            let par = l.join_emit(r, 1, &ThreadBudget::new(threads), Some((&cols, b)), emit);
            assert_eq!(par, rows, "{ctx}: {threads}-thread emission differs");
        }
        shared
    }

    /// The word path of `join_cols` — the share loop where the index is
    /// exact and the build's kept columns span at most 32 bits, the
    /// row-id loop elsewhere — matches the two-step reference on one-
    /// and two-column keys (direct / hashed, packed), `u32` and `u64`
    /// words at both packing boundaries, kept columns of the build side
    /// `l` only (10, 11), of the probe side `r` only (20, 21) and
    /// interleaved, probe codes past the build's bound, and an empty
    /// build side; in both operand orders.
    #[test]
    fn word_join_matches_join_then_project() {
        let _g = knob_guard();
        set_direct_index_enabled(true);
        set_packed_mode(PackedMode::Auto);
        let mut seed = 23;
        let wide = (1 << 16) + 1;
        // (build bound, probe bound, kept variables, the build's share
        // fits a slot); the comment gives the word's bits.
        let cases: [(u32, u32, &[VarId], bool); 19] = [
            (300, 300, &[10, 11], true),         // 18
            (300, 300, &[20, 21], true),         // 18
            (300, 300, &[10, 20, 11], true),     // 27
            (300, 300, &[20, 10, 21, 11], true), // 36
            (300, 300, &[10, 20, 21, 11], false),
            (300, 300, &[11, 1, 20], true),
            (300, 600, &[10, 20, 11], true), // probe keys past 300
            (300, 600, &[20, 21], true),
            (1 << 16, 1 << 16, &[10, 11], true), // 32, u32
            (1 << 16, 1 << 16, &[20, 21], true), // 32, u32
            (1 << 16, 1 << 16, &[10, 11, 20, 21], true), // 64, shift 32
            (1 << 16, 1 << 16, &[10, 20, 11], false), // 48
            (1 << 16, 1 << 16, &[10, 20, 21, 11], false), // 64
            (wide, wide, &[10, 11], false),      // 34
            (wide, wide, &[20, 21], true),
            (wide, wide, &[20, 10, 21], true),
            (1 << 21, 1 << 21, &[20, 10, 21], true), // 63, shift 21
            (1 << 21, 1 << 21, &[10, 20, 11], false),
            (1 << 21, 1 << 21, &[10, 11], false), // 42
        ];
        for key in [&[1][..], &[1, 2]] {
            let keys = if key.len() == 1 { 300 } else { 40 };
            let schema = |private: [VarId; 2]| {
                let mut s = vec![private[0]];
                s.extend_from_slice(key);
                s.push(private[1]);
                s
            };
            for &(bw, pw, vars, fits) in &cases {
                let l = word_rel(&schema([10, 11]), 1000, bw, keys, &mut seed);
                let r = word_rel(&schema([20, 21]), 4200, pw, keys * pw / bw, &mut seed);
                assert!(l.len() < r.len() && r.len() >= PAR_MIN_ROWS);
                // Two-column keys index packed, one-column keys direct
                // under a dense bound and hashed under a wide one.
                let exact = key.len() == 2 || bw == 300;
                for (x, y) in [(&l, &r), (&r, &l)] {
                    let ctx = format!("key {key:?}, bounds {bw}/{pw}, vars {vars:?}");
                    assert_eq!(check_word_join(x, y, vars, &ctx), exact && fits, "{ctx}");
                }
            }
            let empty = word_rel(&schema([10, 11]), 0, 300, keys, &mut seed);
            let r = word_rel(&schema([20, 21]), 4200, 300, keys, &mut seed);
            for vars in [&[10, 20][..], &[20, 21]] {
                assert!(check_word_join(&empty, &r, vars, "empty build"));
                assert!(check_word_join(&r, &empty, vars, "empty build, swapped"));
            }
        }
        DIRECT_INDEX_OVERRIDE.store(0, Ordering::Relaxed);
        reset_packed_override();
    }

    /// A `wedge3`-shaped root, `π_{x,y,z}(E(y,z) ⋈ E(x,y))`: the probe
    /// side `E(x,y)` is canonical and leads the output, the build side
    /// `E(y,z)` adds `z` in ascending groups, so the share loop emits
    /// the answer words already in order and the dedup finds no
    /// descent. `two_hop`'s `π_{x,z}` emits runs instead. Counted on the
    /// emitted words, not timed.
    #[test]
    fn canonical_probe_emits_canonical_words() {
        let _g = knob_guard();
        set_direct_index_enabled(true);
        set_packed_mode(PackedMode::Auto);
        let n = 600u32;
        let mut e = FlatRelation::empty(vec![0, 1]);
        for u in 0..n {
            for k in 1..=8 {
                e.push_row(&[u, (u * 7 + k * 13) % n]);
            }
        }
        e.sort_dedup();
        e.domain_width = n;
        // Equal sizes: the left operand `E(y,z)` builds.
        let (xy, yz) = (e.relabel(vec![0, 1]), e.relabel(vec![1, 2]));
        for (vars, in_order) in [(&[0, 1, 2][..], true), (&[0, 2], false)] {
            assert!(check_word_join(&yz, &xy, vars, "wedge"), "share loop");
            let (shell, cols) = yz.join_shell(&xy, Some(vars));
            let layout = Some((&cols[..], code_bits(shell.domain_width)));
            let no_rows = |_: &mut Vec<u64>, _: &[Element], _: &[Element]| unreachable!();
            let (words, matches) =
                yz.join_emit(&xy, 1, &ThreadBudget::sequential(), layout, no_rows);
            assert_eq!(matches, 8 * 8 * n as usize);
            assert_eq!(words.is_sorted(), in_order, "vars {vars:?}");
        }
        DIRECT_INDEX_OVERRIDE.store(0, Ordering::Relaxed);
        reset_packed_override();
    }

    /// Widths on both sides of every packing edge of the fused dedup:
    /// `2b`, `3b`, `4b` at and past 32 and 64 bits, plus "no bound".
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
    /// Row counts around `PACKED_MIN_ROWS`, where `Auto` flips.
    const SIZES: [usize; 7] = [0, 1, 9, 200, 511, 512, 700];

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// fused `join_cols` ≡ `join_budget` then `project_budget`
        /// as a set, with the same schema and the same width bound, on
        /// random duplicate-free operands and keep-lists (subsets,
        /// the identity, repeats, nothing).
        #[test]
        fn fused_join_project_matches_join_then_project(
            arities in (1..=4usize, 1..=4usize, 0..=2usize),
            widths in (0..WIDTHS.len(), 0..WIDTHS.len()),
            sizes in (0..SIZES.len(), 0..SIZES.len()),
            keep in proptest::collection::vec(0..8usize, 0..=5),
            identity in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let _g = knob_guard();
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
            // dedup; keep it small.
            let cap = if shared == 0 { 40 } else { usize::MAX };
            let l = bounded_rel(&left, SIZES[sizes.0].min(cap), WIDTHS[widths.0], &mut seed);
            let r = bounded_rel(&right, SIZES[sizes.1].min(cap), WIDTHS[widths.1], &mut seed);
            let joined = l.join(&r);
            let vars: Vec<VarId> = if identity {
                joined.schema.clone()
            } else {
                keep.iter().map(|&k| joined.schema[k % joined.schema.len()]).collect()
            };
            let want = joined.project(&vars);
            let mut got = l.join_cols(&r, Some(&vars), ThreadBudget::shared());
            prop_assert_eq!(&got.schema, &want.schema);
            prop_assert_eq!(got.domain_width, want.domain_width);
            prop_assert_eq!(got.rows, want.rows, "fused output must be duplicate-free");
            got.sort_dedup();
            prop_assert_eq!(&got.data, &want.data);
            // The one-slot projection is the same operator.
            let mut alone = joined.join_cols(&FlatRelation::unit(), Some(&vars), ThreadBudget::shared());
            prop_assert_eq!(alone.domain_width, want.domain_width);
            alone.sort_dedup();
            prop_assert_eq!(&alone.data, &want.data);
        }
    }
}
