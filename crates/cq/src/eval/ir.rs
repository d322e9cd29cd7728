//! The unified physical plan IR: one explicit operator set over
//! [`FlatRelation`] buffers, shared by every compiled evaluation
//! strategy.
//!
//! A [`PlanIr`] is a straight-line program over numbered relation
//! *slots*. The operators are the classical physical algebra:
//!
//! | operator             | effect                                                |
//! |----------------------|-------------------------------------------------------|
//! | [`Op::Materialize`]  | scan/adopt a [`MatSource`] into a slot (cache-aware: a hit shares the cached rows, it does not copy them); a multi-part bag is the worst-case-optimal multiway join of its parts, the one bag kernel |
//! | [`Op::Semijoin`]     | `target ⋉ source` on aligned key columns: a one-column key against a source column bitmap filters row by row, any other key is the multiway kernel over the target and the source's key projection; nothing is touched when every row survives. In a Boolean sweep of one-column keys: the source's live key values, recorded as a filter on the target |
//! | [`Op::AssertNonempty`] | abort with the empty answer when a slot ran dry; in a Boolean sweep, when no row passes the slot's filters |
//! | [`Op::MultiJoin`]    | the join: `π_vars(⋈ inputs)` by the one kernel bags are built with — kept variables are enumerated first, what follows them is an existence check, no intermediate exists, and the rows come out canonical; a tree node with its children's partials (one or several), two roots combined, or a Boolean root with one child (`vars` empty: the first witness decides) |
//! | [`Op::Project`]      | distinct projection of one slot: the kept columns gathered in the slot's row order, then canonicalized; the identity projection shares the slot's rows. As a join tree's whole join phase onto one column: the slot's live values after the live-value sweep, no row copied |
//!
//! A [`TreePlan`](crate::eval::TreePlan) — Yannakakis over a GYO join
//! tree or over the bags of a tree decomposition — compiles to this IR
//! through [`compile_tree`], which keeps the query's head. A compiled
//! plan answers through one entry point, [`PlanIr::answers`], and
//! decides `Q(D) ≠ ∅` through [`PlanIr::run_boolean`]; evaluation is a
//! single interpreter loop, so cache adoption, statistics, and kernel
//! improvements land in one place. A plan is flat: every operand list, schema, cache key and
//! binder list is a [`Span`] of one word buffer ([`PlanIr::words`]).
//!
//! [`compile_tree`] takes per-node [`NodeSpec`]s — the atoms of a
//! relation source plus a *connectivity label* — and a rooted tree. For join trees the
//! label **is** the node's schema and the semijoin sweeps alone decide
//! Boolean answers (classical Yannakakis), on live-value filters when
//! every key has one column ([`PlanIr::run_boolean`]; the sweep reads
//! each slot once and mutates none) — and a one-column head the root
//! covers is that root's live values ([`PlanIr::run`]). For tree decompositions the
//! label is the bag, which may strictly contain the schema of the
//! atoms materialized in it; the sweeps are then only a sound prefilter
//! and the bottom-up join phase decides everything (the compiler
//! detects which case it is in — see [`PlanIr::reduction_decides`]).

use crate::ast::{Atom, VarId};
use crate::eval::answers::Answers;
use crate::eval::flat::{
    multiway_join, push_ascending, AtomBinder, FlatRelation, MatCacheStats, MatKey,
    MaterializationCache,
};
use cqapx_structures::{DomainBitmap, Element, SearchBudget, Structure};
use std::borrow::Cow;
use std::ops::Range;

/// Index of a relation slot in a [`PlanIr`] program.
pub(crate) type Slot = usize;

/// One operator's share of a profiled run: wall time and the row count
/// of its primary output slot after execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Operator kind (`"materialize"`, `"semijoin"`, …).
    pub op: &'static str,
    /// Wall-clock microseconds spent in the operator.
    pub micros: u64,
    /// Rows in the operator's output slot when it finished; an
    /// assertion's, the rows of the slot it checked. Entries of the
    /// live-value sweep (see [`PlanIr::run_boolean`]) report what the
    /// op decided instead: a semijoin, the number of live values it
    /// hands to its target; an assertion, whether the slot still has a
    /// live row (1 or 0). A projection read off the sweep reports its
    /// answers.
    pub rows: usize,
}

/// A per-operator execution profile of one [`PlanIr`] run, collected
/// only when the caller passes one (the benchmark's layer ledger; the
/// engine never does): the hot path pays a single `Option` branch per
/// operator. Entries appear in execution order; an aborted run
/// (emptiness assertion fired) profiles the prefix that ran.
#[derive(Debug, Clone, Default)]
pub struct EvalProfile {
    /// Per-operator timings/row counts, in execution order.
    pub ops: Vec<OpProfile>,
}

/// A run of one of a plan's buffers: `len` entries from `start` — of
/// its words for a schema, a cache key or an operand list, of its parts
/// for a source's parts, of its binders for a part's binders. `Copy`:
/// every variable-length field of a plan is one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The entries of `buf` from `start` to its end.
    pub(crate) fn since<T>(start: usize, buf: &[T]) -> Span {
        let (start, len) = (start as u32, (buf.len() - start) as u32);
        Span { start, len }
    }

    /// Number of entries.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// `true` for a run of no entries.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One sub-hyperedge of a [`MatSource`]: the atoms sharing one variable
/// set, compiled to binders, with its own cache identity.
#[derive(Debug, Clone, Copy)]
pub struct MatPart {
    /// Sorted distinct variables of the sub-hyperedge (words).
    pub schema: Span,
    /// Cache identity of this sub-hyperedge alone: a `MatKey`'s words.
    pub key: Span,
    /// Compiled binders, one per atom with this variable set (binders).
    pub binders: Span,
}

/// The relation source of one plan node: a group of sub-hyperedges whose
/// natural join (then canonicalized onto `schema`) is the node relation.
///
/// * join-tree nodes have exactly one part whose schema equals the
///   source schema — the hyperedge itself;
/// * tree-decomposition bags join every covering atom group — the bag
///   materialization, built by the one bag kernel (the multiway join
///   of `flat`): there is no second build path and nothing to choose;
/// * a node with **no** parts materializes to the 0-ary "true" relation
///   (a connector bag none of whose atoms it covers).
///
/// Sources (and, on a miss, their individual parts) go through the
/// per-database [`MaterializationCache`] keyed by `MatKey`, so a bag
/// is cached exactly like a hyperedge and either can adopt the other's
/// entry when the keys coincide. Read through its plan:
/// [`PlanIr::words`], [`PlanIr::parts`], [`PlanIr::materialize`].
#[derive(Debug, Clone, Copy)]
pub struct MatSource {
    /// Sorted distinct variables of the whole source, the union of the
    /// part schemas (words): a single part's own.
    pub schema: Span,
    /// Cache identity of the joined source (words): a single part's own.
    pub key: Span,
    /// The sub-hyperedges joined to form the relation (parts).
    pub parts: Span,
}

/// One instruction of a [`PlanIr`] program. Its operand lists are
/// spans of the plan's words ([`PlanIr::words`]).
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Materialize (or adopt from the cache) a source into `dst`.
    Materialize {
        /// Destination slot.
        dst: Slot,
        /// What to materialize.
        source: MatSource,
    },
    /// Semijoin `target ⋉ source` on aligned key columns.
    Semijoin {
        /// Slot filtered.
        target: Slot,
        /// Slot probed for matches.
        source: Slot,
        /// Key column positions in the target's schema.
        target_pos: Span,
        /// Key column positions in the source's schema.
        source_pos: Span,
    },
    /// Abort the program (empty answer) when the slot has no rows.
    AssertNonempty {
        /// Slot checked.
        slot: Slot,
    },
    /// `π_vars(⋈ inputs)` into `dst` by the one join kernel (operands
    /// are kept and must be canonical, as is the result): a tree node
    /// with its children's partials, one or several; the cartesian
    /// combination of two roots; or a Boolean root with one child and
    /// nothing kept.
    MultiJoin {
        /// Destination slot.
        dst: Slot,
        /// Operand slots.
        inputs: Span,
        /// Variables kept (each must occur in an operand's schema).
        vars: Span,
    },
    /// Projection of `src` onto `vars` into `dst` (canonical): the kept
    /// columns gathered in `src`'s row order, then canonicalized.
    Project {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
        /// Variables kept (must occur in the source schema).
        vars: Span,
    },
}

impl Op {
    /// Metrics label of the operator: one per variant. `cqbench` sums
    /// the `join` and `project` prefixes.
    fn label(&self) -> &'static str {
        match self {
            Op::Materialize { .. } => "materialize",
            Op::Semijoin { .. } => "semijoin",
            Op::AssertNonempty { .. } => "assert_nonempty",
            Op::MultiJoin { .. } => "join",
            Op::Project { .. } => "project",
        }
    }

    /// The slot the operator writes; an assertion writes none.
    pub fn dst(&self) -> Option<Slot> {
        match self {
            Op::AssertNonempty { .. } => None,
            Op::Semijoin { target: dst, .. }
            | Op::Materialize { dst, .. }
            | Op::MultiJoin { dst, .. }
            | Op::Project { dst, .. } => Some(*dst),
        }
    }
}

/// A compiled physical plan: a straight-line operator program over
/// relation slots, with a designated output slot.
///
/// A plan allocates per plan, not per atom: every variable-length field
/// — schemas, cache keys, binder lists, semijoin key positions, join
/// and projection operands, the head — is a [`Span`] of one exactly
/// sized word buffer, and the sources' parts and the parts' binders
/// each live in one buffer of their own.
#[derive(Debug, Clone, Default)]
pub struct PlanIr {
    /// Number of relation slots the program uses.
    slots: usize,
    /// The instructions, executed in order.
    ops: Vec<Op>,
    /// Every variable-length field of the program.
    words: Vec<u32>,
    /// Every source's parts, in op order.
    parts: Vec<MatPart>,
    /// Every part's binders, in part order.
    binders: Vec<AtomBinder>,
    /// Length of the materialize-and-reduce prefix (see
    /// [`PlanIr::reduction_decides`]).
    bool_len: usize,
    /// `true` when surviving the reduction prefix alone proves the
    /// answer nonempty (labels equal schemas: a genuine join tree, where
    /// the full reducer establishes global consistency). When `false`
    /// (decomposition bags with connector-only variables, or a root edge
    /// only the join reads), Boolean evaluation runs the join phase too.
    reduction_decides: bool,
    /// Slot holding the final relation after a full run.
    output: Slot,
    /// The compiled query's free variables, in head order: the columns
    /// answers come out in.
    head: Span,
}

impl PlanIr {
    /// The operators, in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The words of `span`: a schema, a cache key or an operand list.
    pub fn words(&self, span: Span) -> &[u32] {
        &self.words[span.range()]
    }

    /// The parts of `source`.
    pub fn parts(&self, source: &MatSource) -> &[MatPart] {
        &self.parts[source.parts.range()]
    }

    /// The binders of `part`, which read their lists off the plan's
    /// words.
    pub fn binders(&self, part: &MatPart) -> &[AtomBinder] {
        &self.binders[part.binders.range()]
    }

    /// The slots a span of operand words names.
    fn slots_of(&self, inputs: Span) -> impl Iterator<Item = Slot> + Clone + '_ {
        self.words(inputs).iter().map(|&s| s as Slot)
    }

    /// Whether the reduction prefix alone decides Boolean answers.
    pub fn reduction_decides(&self) -> bool {
        self.reduction_decides
    }

    /// The materialization sources of the program, in op order.
    pub fn materialize_sources(&self) -> impl Iterator<Item = &MatSource> {
        self.ops.iter().filter_map(|op| match op {
            Op::Materialize { source, .. } => Some(source),
            _ => None,
        })
    }

    /// Materializes `source`, one of the plan's, against `d`, adopting
    /// from / inserting into `cache` when given. Multi-part sources are
    /// cached at both levels: the joined source under its own key and,
    /// on a source miss, each part under its key (so single-atom parts
    /// are shared with the plans that use them as whole hyperedges). A
    /// lookup borrows the key's words: only an insert copies them. A bag
    /// build charges `budget` (see [`PlanIr::answers_within`]).
    pub fn materialize(
        &self,
        source: &MatSource,
        d: &Structure,
        cache: Option<&MaterializationCache>,
        budget: Option<&SearchBudget>,
        stats: &mut MatCacheStats,
    ) -> FlatRelation {
        if source.parts.is_empty() {
            return FlatRelation::unit();
        }
        let fresh = |stats: &mut MatCacheStats| match self.parts(source) {
            // The source *is* its single part, under the part's key.
            [part] => self.materialize_part(part, d, stats),
            parts => {
                let mut rels: Vec<FlatRelation> = Vec::with_capacity(parts.len());
                for part in parts {
                    let fresh = |s: &mut MatCacheStats| self.materialize_part(part, d, s);
                    rels.push(self.adopt(cache, part.key, part.schema, stats, fresh));
                }
                // One build path: the multiway kernel, which leaves the
                // rows canonical on the sorted source schema (column
                // order and row order), so cache entries are
                // label-independent.
                let t0 = std::time::Instant::now();
                let out = multiway_join(rels.iter(), self.words(source.schema), budget, stats);
                stats.wcoj_bag_builds += 1;
                stats.wcoj_bag_us += t0.elapsed().as_micros() as u64;
                out
            }
        };
        self.adopt(cache, source.key, source.schema, stats, fresh)
    }

    /// `build`'s relation, or with a cache the entry under `key` (built
    /// on a miss), counted and adopted on `schema`.
    fn adopt(
        &self,
        cache: Option<&MaterializationCache>,
        key: Span,
        schema: Span,
        stats: &mut MatCacheStats,
        build: impl FnOnce(&mut MatCacheStats) -> FlatRelation,
    ) -> FlatRelation {
        let Some(c) = cache else {
            return build(stats);
        };
        let (rel, hit) = c.get_or_materialize(self.words(key), || build(stats));
        stats.hits += u32::from(hit);
        stats.misses += u32::from(!hit);
        rel.relabel(self.words(schema).to_vec())
    }

    /// Scans `part`'s atoms, each into its canonical relation, and
    /// intersects them (they share a schema) one at a time by the join
    /// kernel, keeping the whole schema. Uncached.
    pub fn materialize_part(
        &self,
        part: &MatPart,
        d: &Structure,
        stats: &mut MatCacheStats,
    ) -> FlatRelation {
        let schema = self.words(part.schema);
        let scan = |binder: &AtomBinder, stats: &mut MatCacheStats| {
            let mut rel = FlatRelation::empty(schema.to_vec());
            binder.materialize_into(&self.words, d, &mut rel);
            rel.sort_dedup(stats);
            rel
        };
        let (first, rest) = self
            .binders(part)
            .split_first()
            .expect("a part has an atom");
        let mut acc = scan(first, stats);
        for binder in rest {
            let next = scan(binder, stats);
            acc = multiway_join([&acc, &next].into_iter(), schema, None, stats);
        }
        acc
    }

    /// Executes `self.ops[range]` in op order on `input`. Returns
    /// `false` when an [`Op::AssertNonempty`] fired or the budget ran dry
    /// (the answer is empty).
    fn exec(
        &self,
        range: std::ops::Range<usize>,
        slots: &mut [Option<FlatRelation>],
        input: Input<'_>,
        stats: &mut MatCacheStats,
        mut profile: Option<&mut EvalProfile>,
    ) -> bool {
        let Input { d, cache, budget } = input;
        fn rel(s: &Option<FlatRelation>) -> &FlatRelation {
            s.as_ref().expect("slot written before use")
        }
        for op in &self.ops[range] {
            let t0 = profile.is_some().then(std::time::Instant::now);
            // The slot written, an assertion's the one checked, and
            // whether the run goes on.
            let (written, alive) = match *op {
                Op::Materialize { dst, source } => {
                    slots[dst] = Some(self.materialize(&source, d, cache, budget, stats));
                    (dst, true)
                }
                Op::Semijoin {
                    target,
                    source,
                    target_pos,
                    source_pos,
                } => {
                    // In place: the target is filtered against the source,
                    // neither relation cloned.
                    let [t, s] = (slots.get_disjoint_mut([target, source]))
                        .expect("semijoin target and source differ");
                    let t = t.as_mut().expect("slot written before use");
                    let (tp, sp) = (self.words(target_pos), self.words(source_pos));
                    t.semijoin_on(tp, rel(s), sp, stats);
                    (target, true)
                }
                Op::AssertNonempty { slot } => (slot, !rel(&slots[slot]).is_empty()),
                Op::MultiJoin { dst, inputs, vars } => {
                    let parts = self.slots_of(inputs).map(|s| rel(&slots[s]));
                    slots[dst] = Some(multiway_join(parts, self.words(vars), budget, stats));
                    (dst, true)
                }
                Op::Project { dst, src, vars } => {
                    // Every slot of a compiled tree is duplicate-free
                    // (materializations are canonical; joins of
                    // duplicate-free inputs are duplicate-free), so a
                    // keep-list equal to the full schema is the
                    // identity: both slots then share one buffer.
                    let (vars, source) = (self.words(vars), slots[src].as_mut());
                    let source = source.expect("slot written before use");
                    let out = if vars == source.schema() {
                        source.share_rows();
                        source.relabel(vars.to_vec())
                    } else {
                        source.project(vars, stats)
                    };
                    slots[dst] = Some(out);
                    (dst, true)
                }
            };
            record(profile.as_deref_mut(), op.label(), t0, || {
                rel(&slots[written]).len()
            });
            if !alive || stats.timed_out {
                return false;
            }
        }
        true
    }

    /// Runs the program to its output relation, optionally collecting a
    /// per-operator [`EvalProfile`] (`None` costs one branch per
    /// operator). `None` means the answer is empty (an emptiness
    /// assertion fired). A join tree whose join phase is one
    /// [`Op::Project`] onto one column — the root covers the head — is
    /// answered off the live-value sweep of [`PlanIr::run_boolean`]: the
    /// root's live values on that column, when it has a column bitmap.
    /// Every other plan runs op by op, as [`PlanIr::run_slots`] does.
    pub fn run(
        &self,
        d: &Structure,
        cache: Option<&MaterializationCache>,
        profile: Option<&mut EvalProfile>,
    ) -> (Option<FlatRelation>, MatCacheStats) {
        self.run_on(Input::cached(d, cache), profile)
    }

    /// [`PlanIr::run`] on `input`.
    fn run_on(
        &self,
        input: Input<'_>,
        profile: Option<&mut EvalProfile>,
    ) -> (Option<FlatRelation>, MatCacheStats) {
        if let (true, &[Op::Project { src, vars, .. }]) =
            (self.reduction_decides, &self.ops[self.bool_len..])
        {
            if let [var] = self.words(vars)[..] {
                let (alive, out, stats) =
                    self.run_reduced(self.ops.len(), Some((src, var)), input, profile);
                return (out.filter(|_| alive), stats);
            }
        }
        let mut stats = MatCacheStats::default();
        let mut slots: Vec<Option<FlatRelation>> = vec![None; self.slots];
        let alive = self.exec(0..self.ops.len(), &mut slots, input, &mut stats, profile);
        (slots[self.output].take().filter(|_| alive), stats)
    }

    /// The full run with every slot handed back as the program left it
    /// (`None`: never written) and whether it ran to the end (`false`:
    /// an emptiness assertion fired) — what it takes to check one
    /// operator's output against another build from the same inputs.
    pub fn run_slots(
        &self,
        d: &Structure,
        cache: Option<&MaterializationCache>,
        profile: Option<&mut EvalProfile>,
    ) -> (bool, Vec<Option<FlatRelation>>, MatCacheStats) {
        let mut stats = MatCacheStats::default();
        let mut slots: Vec<Option<FlatRelation>> = vec![None; self.slots];
        let input = Input::cached(d, cache);
        let alive = self.exec(0..self.ops.len(), &mut slots, input, &mut stats, profile);
        (alive, slots, stats)
    }

    /// Runs the ops `range` of the program alone, over `slots` as an
    /// earlier run left them (`(false, _)`: an emptiness assertion
    /// fired) — what it takes to measure one operator on the inputs it
    /// reads in a plan.
    pub fn run_ops(
        &self,
        range: std::ops::Range<usize>,
        slots: &mut [Option<FlatRelation>],
        d: &Structure,
        cache: Option<&MaterializationCache>,
    ) -> (bool, MatCacheStats) {
        let mut stats = MatCacheStats::default();
        let alive = self.exec(range, slots, Input::cached(d, cache), &mut stats, None);
        (alive, stats)
    }

    /// The answer set of the compiled query, in head order: the Boolean
    /// short-cut ([`PlanIr::run_boolean`]) when the head is empty,
    /// otherwise the full run read out through the answer boundary,
    /// where the dense codes plan intermediates hold are decoded back to
    /// the structure's elements. Also reports the cache outcome.
    pub fn answers(
        &self,
        d: &Structure,
        cache: Option<&MaterializationCache>,
    ) -> (Answers, MatCacheStats) {
        self.answers_on(Input::cached(d, cache))
    }

    /// [`PlanIr::answers`] of a bounded run: no materialization is read
    /// from or written to a cache, and its bag builds and joins charge
    /// their cursor moves to `budget` (unbounded when `None`). When the budget
    /// runs dry the run stops, [`MatCacheStats::timed_out`] is set, and
    /// the answer is empty — a sound subset. So a cut-short bag never
    /// lands in a cache.
    pub fn answers_within(
        &self,
        d: &Structure,
        budget: Option<&SearchBudget>,
    ) -> (Answers, MatCacheStats) {
        self.answers_on(Input {
            d,
            cache: None,
            budget,
        })
    }

    /// [`PlanIr::answers`] on `input`.
    fn answers_on(&self, input: Input<'_>) -> (Answers, MatCacheStats) {
        if self.head.is_empty() {
            let (nonempty, stats) = self.run_boolean_on(input, None);
            return (Answers::boolean(nonempty), stats);
        }
        let (result, mut stats) = self.run_on(input, None);
        let head = self.words(self.head);
        let answers = match result {
            None => Answers::empty(head.len()),
            Some(rel) => Answers::from_relation(rel, head, input.d.domain_dict(), &mut stats),
        };
        (answers, stats)
    }

    /// Decides whether the answer is nonempty, running only as much of
    /// the program as the plan shape requires, optionally collecting a
    /// per-operator [`EvalProfile`]. A `reduction_decides` plan runs its
    /// reduction alone, swept on live-value filters when every key has
    /// one column, whose profile entries report what each op decided
    /// (see [`OpProfile`]).
    pub fn run_boolean(
        &self,
        d: &Structure,
        cache: Option<&MaterializationCache>,
        profile: Option<&mut EvalProfile>,
    ) -> (bool, MatCacheStats) {
        self.run_boolean_on(Input::cached(d, cache), profile)
    }

    /// [`PlanIr::run_boolean`] on `input`.
    fn run_boolean_on(
        &self,
        input: Input<'_>,
        profile: Option<&mut EvalProfile>,
    ) -> (bool, MatCacheStats) {
        if self.reduction_decides {
            let (alive, _, stats) = self.run_reduced(self.bool_len, None, input, profile);
            return (alive, stats);
        }
        let (out, stats) = self.run_on(input, profile);
        (out.is_some_and(|r| !r.is_empty()), stats)
    }

    /// The one orchestration of a plan the reduction decides: every
    /// source materialized once (cache accounting identical to the full
    /// run), then the reduction swept on live-value filters
    /// ([`PlanIr::bitmap_bool_sweep`]). With `head = (slot, variable)`
    /// the output is that slot's live values on the variable's column,
    /// ascending — sorted and distinct, so canonical — under the slot's
    /// width bound, profiled as one `project` entry reporting the
    /// answers. When the sweep is ineligible, or the head's column has
    /// no bitmap, `ops[mat_len..end]` run by the kernels over the same
    /// slots instead and the output is the output slot. Returns whether
    /// no assertion fired, the output, and the counters.
    fn run_reduced(
        &self,
        end: usize,
        head: Option<(Slot, VarId)>,
        input: Input<'_>,
        mut profile: Option<&mut EvalProfile>,
    ) -> (bool, Option<FlatRelation>, MatCacheStats) {
        let mut stats = MatCacheStats::default();
        let mut slots: Vec<Option<FlatRelation>> = vec![None; self.slots];
        // Every materialization comes first.
        let mat_len = self.materialize_sources().count().min(self.bool_len);
        let p = profile.as_deref_mut();
        if !self.exec(0..mat_len, &mut slots, input, &mut stats, p) {
            debug_assert!(stats.timed_out, "materializations assert nothing");
            return (false, None, stats);
        }
        let rel = |s: Slot| slots[s].as_ref().expect("slot written before use");
        let head = head.map(|(s, v)| {
            let col = rel(s).schema().iter().position(|&w| w == v);
            (s, v, col.expect("projected variable must be in the schema"))
        });
        let readable = head.is_none_or(|(s, _, col)| rel(s).column_bitmap(col).is_some());
        // Per slot, `Some(false)` once it has no live row (for good:
        // filters only remove rows), `Some(true)` when a read found one
        // and no filter came since; on the stack up to 16 slots.
        let (mut inline, mut heap) = ([None; 16], None);
        let live = match self.slots {
            k if k <= inline.len() => &mut inline[..k],
            k => &mut heap.insert(vec![None; k])[..],
        };
        let p = profile.as_deref_mut();
        let swept = readable.then(|| self.bitmap_bool_sweep(mat_len, &slots, live, &mut stats, p));
        let Some(swept) = swept.flatten() else {
            let alive = self.exec(mat_len..end, &mut slots, input, &mut stats, profile);
            return (alive, slots[self.output].take(), stats);
        };
        match (swept, head) {
            (None, _) => (false, None, stats),
            (Some(_), None) => (true, None, stats),
            (Some(filters), Some((s, var, col))) => {
                let t0 = profile.is_some().then(std::time::Instant::now);
                let values = live_values(rel(s), s, col, &filters, live);
                // One allocation, of the answers' size.
                let mut codes =
                    Vec::with_capacity(values.as_ref().map_or(0, |v| v.ones()) as usize);
                codes.extend(values.iter().flat_map(|v| v.iter_ones()));
                record(profile, "project", t0, || codes.len());
                let out = FlatRelation::from_codes(var, codes, rel(s).domain_width());
                (true, Some(out), stats)
            }
        }
    }

    /// The full-reducer sweep `ops[mat_len..bool_len]` over **live-value
    /// filters**: a semijoin reads its source's live values on the key
    /// column and records them as a filter on the target's key column;
    /// an assertion asks whether the slot still has a live row. A slot
    /// is read once — when it next serves as a source or is asserted —
    /// under every filter recorded on it so far, by one pass over its
    /// rows ([`scan`]), or by none when each filter contains the slot's
    /// own cached bitmap of its column: a source then hands that bitmap
    /// on. Slots are never mutated.
    ///
    /// Exactness: the kernel path keeps a row of a target exactly when
    /// its key value is among the source's surviving values, so a row
    /// survives a slot's semijoins exactly when it passes each of their
    /// tests. The filters recorded on a slot are those values, each read
    /// under the filters its source had by then: they are the live-row
    /// mask's row predicate, and every assertion and every verdict is
    /// the kernel path's. An empty key kills its target exactly when
    /// the source has no live row, as there.
    ///
    /// Profiled entries carry the kernel path's labels. A semijoin
    /// reports the number of live values it hands to its target (with
    /// an empty key, 1 or 0), an assertion whether the slot still has a
    /// live row (1 or 0).
    ///
    /// Returns `None` (before any profile entry) when a sweep op is
    /// ineligible — a multi-column key, a fused root edge, or a source
    /// without a dense bound; the caller then runs the kernel path.
    /// Otherwise the filters the sweep recorded, with `alive` (one flag
    /// per slot, all `None` on entry) for the caller to read any slot's
    /// live values off — or `None` when an assertion fired. Each
    /// one-column semijoin counts one bitmap probe into `stats`.
    fn bitmap_bool_sweep<'a>(
        &self,
        mat_len: usize,
        slots: &'a [Option<FlatRelation>],
        alive: &mut [Option<bool>],
        stats: &mut MatCacheStats,
        mut profile: Option<&mut EvalProfile>,
    ) -> Option<Option<Vec<Filter<'a>>>> {
        let sweep = &self.ops[mat_len..self.bool_len];
        let rel = |s: Slot| slots[s].as_ref().expect("slot written before use");
        // Validate every op up front — warming the source bitmaps from
        // the relation caches — so an ineligible sweep falls back
        // before any profile entry or counter moves.
        let eligible = |op: &Op| match *op {
            Op::AssertNonempty { .. } => true,
            Op::Semijoin {
                source, source_pos, ..
            } => match self.words(source_pos)[..] {
                [] => true,
                [col] => rel(source).column_bitmap(col as usize).is_some(),
                _ => false,
            },
            _ => false,
        };
        if !sweep.iter().all(eligible) {
            return None;
        }
        // Every filter recorded so far, at most one per slot and column
        // (a second one is intersected in).
        let semijoins = sweep.iter().filter(|op| matches!(op, Op::Semijoin { .. }));
        let mut filters: Vec<Filter> = Vec::with_capacity(semijoins.count());
        for op in sweep {
            let t0 = profile.is_some().then(std::time::Instant::now);
            let rows = match *op {
                Op::AssertNonempty { slot } => {
                    usize::from(has_live_row(rel(slot), slot, &filters, alive))
                }
                Op::Semijoin {
                    target,
                    source,
                    target_pos,
                    source_pos,
                } => {
                    let handed = match self.words(source_pos).first() {
                        None => usize::from(has_live_row(rel(source), source, &filters, alive)),
                        Some(&col) => {
                            stats.note_bitmap_probe();
                            let col = col as usize;
                            let values = live_values(rel(source), source, col, &filters, alive);
                            let handed = values.as_ref().map_or(0, |v| v.ones() as usize);
                            // Values that contain the target's own bitmap
                            // of the column remove no row: not recorded.
                            let key = (target, self.words(target_pos)[0] as usize);
                            let own = rel(target).column_bitmap(key.1);
                            let values = values.filter(|v| !own.is_some_and(|o| o.subset_of(v)));
                            match (values, filters.iter_mut().find(|f| (f.0, f.1) == key)) {
                                (Some(v), Some(f)) => f.2 = Cow::Owned(f.2.and(&v)),
                                (Some(v), None) => filters.push((key.0, key.1, v)),
                                (None, _) => {}
                            }
                            handed
                        }
                    };
                    // No live value kills the target; a new filter may
                    // remove its rows.
                    alive[target] = if handed == 0 {
                        Some(false)
                    } else {
                        alive[target].filter(|&a| !a)
                    };
                    handed
                }
                _ => unreachable!("validated before the sweep"),
            };
            record(profile.as_deref_mut(), op.label(), t0, || rows);
            if matches!(op, Op::AssertNonempty { .. }) && rows == 0 {
                return Some(None);
            }
        }
        Some(Some(filters))
    }
}

/// What one run reads: the database, the cache its materializations go
/// through, and the step budget its multiway joins charge.
#[derive(Clone, Copy)]
struct Input<'r> {
    d: &'r Structure,
    cache: Option<&'r MaterializationCache>,
    budget: Option<&'r SearchBudget>,
}

impl<'r> Input<'r> {
    /// An unbounded run through `cache`, if any.
    fn cached(d: &'r Structure, cache: Option<&'r MaterializationCache>) -> Input<'r> {
        Input {
            d,
            cache,
            budget: None,
        }
    }
}

/// Appends `op`'s entry to `profile`, if there is one: the time since
/// `t0` and the row count `rows` reports.
fn record(
    profile: Option<&mut EvalProfile>,
    op: &'static str,
    t0: Option<std::time::Instant>,
    rows: impl FnOnce() -> usize,
) {
    if let Some(p) = profile {
        let micros = t0.map_or(0, |t| t.elapsed().as_micros() as u64);
        p.ops.push(OpProfile {
            op,
            micros,
            rows: rows(),
        });
    }
}

/// One filter of the Boolean sweep: `(slot, column, live values)` — the
/// live values a semijoin source handed on: its cached column bitmap
/// when no filter removed a row of it, else the bitmap a read built.
type Filter<'a> = (Slot, usize, Cow<'a, DomainBitmap>);

/// Whether slot `s` (relation `rel`) still has a live row, read at most
/// once per filter it receives.
fn has_live_row(
    rel: &FlatRelation,
    s: Slot,
    filters: &[Filter],
    alive: &mut [Option<bool>],
) -> bool {
    *alive[s].get_or_insert_with(|| match binding(s, filters).next() {
        None => !rel.is_empty(),
        Some(_) => scan(rel, binding(s, filters), None),
    })
}

/// The live values of slot `s` (relation `rel`) on column `col`, `None`
/// when no row is live.
fn live_values<'a>(
    rel: &'a FlatRelation,
    s: Slot,
    col: usize,
    filters: &[Filter],
    alive: &mut [Option<bool>],
) -> Option<Cow<'a, DomainBitmap>> {
    if alive[s] == Some(false) {
        return None;
    }
    let values = match binding(s, filters).next() {
        None => Cow::Borrowed(rel.column_bitmap(col).expect("validated before the sweep")),
        Some(_) => {
            // A plain word table: the row loop keeps no count per bit.
            let mut words = vec![0u64; (rel.domain_width() as usize).div_ceil(64)];
            scan(rel, binding(s, filters), Some((col, &mut words)));
            Cow::Owned(DomainBitmap::from_words(rel.domain_width(), words))
        }
    };
    alive[s] = Some(!values.is_empty());
    (!values.is_empty()).then_some(values)
}

/// The filters recorded on slot `s`, as `(column, live values)`.
fn binding<'f>(
    s: Slot,
    filters: &'f [Filter<'_>],
) -> impl Iterator<Item = (usize, &'f DomainBitmap)> {
    (filters.iter().filter(move |f| f.0 == s)).map(|(_, col, values)| (*col, &**values))
}

/// One pass over `rel`'s rows under the filters `binding` (not empty,
/// one per column), hoisted out of the row loop, with binary rows in
/// their own loop: each live row's value on column `c` is set in `out`,
/// or with `out = None` the pass stops at the first live row. Returns
/// whether a row is live.
fn scan<'f>(
    rel: &FlatRelation,
    binding: impl Iterator<Item = (usize, &'f DomainBitmap)>,
    out: Option<(usize, &mut [u64])>,
) -> bool {
    let (mut lead, mut second, mut rest) = (None, None, Vec::new());
    for (col, values) in binding {
        match col {
            0 => lead = Some(values),
            1 if rel.arity() == 2 => second = Some(values),
            _ => rest.push((col, values)),
        }
    }
    if rel.arity() == 2 {
        let second = |row: &[Element]| second.is_none_or(|f| f.contains(row[1]));
        return scan_rows(rel.data(), 2, lead, second, out);
    }
    let rest = |row: &[Element]| rest.iter().all(|&(c, f)| f.contains(row[c]));
    scan_rows(rel.data(), rel.arity(), lead, rest, out)
}

/// [`scan`]'s row loop over `arity`-wide rows, with the leading
/// column's filter `lead` and the other columns' test `rest`. Slots
/// are canonical, so the rows of one leading value are consecutive:
/// once that value is filtered out — or set, when `c` is the leading
/// column — the rest of its run is skipped.
#[inline(always)]
fn scan_rows(
    data: &[Element],
    arity: usize,
    lead: Option<&DomainBitmap>,
    rest: impl Fn(&[Element]) -> bool,
    mut out: Option<(usize, &mut [u64])>,
) -> bool {
    let Some(&first) = data.first() else {
        return false;
    };
    // `open`: the current leading value is neither filtered out nor set.
    let (mut value, mut open, mut found) = (!first, false, false);
    for row in data.chunks_exact(arity) {
        if row[0] != value {
            value = row[0];
            open = lead.is_none_or(|f| f.contains(value));
        }
        if open && rest(row) {
            let Some((c, words)) = out.as_mut() else {
                return true;
            };
            let v = row[*c];
            words[(v >> 6) as usize] |= 1 << (v & 63);
            (open, found) = (*c != 0, true);
        }
    }
    found
}

/// One node of the tree a plan is compiled from.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec<'a> {
    /// The atoms the node's source materializes, those sharing one
    /// variable set adjacent: one part each. None give the 0-ary "true"
    /// relation (a connector bag).
    pub atoms: &'a [Atom<'a>],
    /// Connectivity label, a bit row over the query's variables holding
    /// the node's schema: the variable set guaranteed to satisfy the
    /// running-intersection property over the tree — the whole bag of a
    /// tree-decomposition node. `None` for a join-tree node, whose label
    /// is its schema.
    pub label: Option<&'a [u64]>,
}

/// The number of variables the bit row `row` holds.
fn row_len(row: &[u64]) -> usize {
    row.iter().map(|w| w.count_ones() as usize).sum()
}

/// Compiles the Yannakakis pipeline over a rooted tree (or forest) of
/// nodes into a [`PlanIr`] program:
///
/// 1. materialize every node source;
/// 2. full reducer — semijoins leaves→root then root→leaves on the
///    columns the adjacent *schemas* share, with emptiness assertions
///    (the second sweep skips the nodes the join phase never reads
///    again and those it joins into their parent unchanged — that join
///    is their semijoin — so a Boolean join tree is one sweep). When the
///    join phase runs, the first sweep skips the edge into a root from
///    its only live child: the root's join with it drops the same root
///    rows, and the second sweep leaves the child the same rows. If
///    that sweep skips the child too, only the join decides emptiness
///    ([`PlanIr::reduction_decides`]). In a Boolean join tree
///    a root's emptiness check is all that reads the root, so its last
///    incoming edge with a key of two or more columns (its semijoins
///    commute) is not a semijoin: it is one [`Op::MultiJoin`] of the
///    root and that child keeping nothing, which stops at its first
///    witness, asserted nonempty. Only two parts are fused: one call
///    over the root and k children could backtrack across children
///    that are independent given the root, at up to the product of
///    their fan-outs. One-column edges stay semijoins, for the bitmap
///    sweep;
/// 3. unless the query is Boolean and the reduction decides it: one op
///    per node, bottom-up — the node joined with its live children's
///    partials and projected onto its free variables plus the variables
///    its parent's *label* retains: an [`Op::Project`] of a node with no
///    live child, one [`Op::MultiJoin`] over the node and all its
///    partials otherwise — never a chain of two-input joins: the kernel
///    enumerates the kept variables first and only checks that the
///    rest — the node's own variables nothing above needs — has a
///    witness. Every operand lies inside `label ∪ free`, so the op
///    enumerates at most the bindings a chain's widest intermediate
///    would hold, and the bound per node is what it was. Roots are
///    combined by (cartesian) kernel joins, the last one keeping the
///    head. A plan's **one root** keeps the head's distinct variables
///    *in head order*, and is an op even when it drops no column: every
///    op writes its slot canonical, so the answer boundary receives
///    `schema == head`, rows in order, with nothing left to gather or
///    sort.
///
/// `parent`/`order` describe the rooted tree (children before parents
/// in `order`), compiled as rooted; `free` lists the query's free
/// variables, the head the program keeps for [`PlanIr::answers`]. On a
/// genuine join tree (every label equal to its schema) the join phase
/// skips every subtree whose join would be the identity after the full
/// reducer: `Q(x) :- E(x,y), E(y,z), E(z,w)` rooted at `E(x,y)` (as
/// `TreePlan::join_tree` roots it) runs no join at all, and its one
/// projection, of the root onto `x`, is read off the live-value sweep
/// ([`PlanIr::run`]).
///
/// Node `u`'s source is written into the plan and materialized into
/// slot `u`, first. Every buffer the plan keeps is sized before it is
/// filled — the word buffer from a bound, then cut to its length — and
/// the join phase's keep-lists are worked out in one scratch buffer, so
/// a compile allocates per plan, not per node or atom.
pub fn compile_tree(
    nodes: &[NodeSpec],
    parent: &[Option<usize>],
    order: &[usize],
    free: &[VarId],
) -> PlanIr {
    let n = nodes.len();
    assert_eq!(parent.len(), n);
    assert_eq!(order.len(), n);
    let mut plan = PlanIr::with_room(nodes, parent, free);
    let words = &mut plan.words;
    plan.head = push(words, free.iter().copied());

    // Node `u`'s source goes to slot `u`; each node's children,
    // ascending, are linked through the node states.
    let mut at = vec![NodeState::default(); n];
    for (u, node) in nodes.iter().enumerate() {
        let source = write_source(node.atoms, words, &mut plan.parts, &mut plan.binders);
        at[u].schema = source.schema;
        plan.ops.push(Op::Materialize { dst: u, source });
    }
    for (u, p) in parent.iter().enumerate().rev() {
        if let Some(p) = *p {
            (at[u].next, at[p].first) = (at[p].first, Some(u));
        }
    }
    let schema = |at: &[NodeState], u: usize| at[u].schema.range();
    let own = |u: usize| {
        nodes[u]
            .label
            .is_none_or(|l| row_len(l) == schema(&at, u).len())
    };
    let reduction_decides = (0..n).all(own);
    let ops = &mut plan.ops;
    let mut slots = n; // slots 0..n hold the node relations

    // The join phase, statically first (children before parents): the
    // keep-list of `u` is the schema of `u`'s projected subtree join —
    // the free variables plus the variables the parent's label retains
    // — and `at[u].whole` says that projection drops nothing. The lists
    // go to `scratch`, after the head's distinct variables.
    //
    // `at[u].dead`: the join phase needs nothing from `u`'s subtree. On a
    // genuine join tree the first sweep already leaves every row of a
    // node with a match all the way down each child's subtree, so
    // joining a child whose kept variables the node already has is the
    // identity: no op for it, and none for anything below it.
    let mut scratch: Vec<u32> = Vec::with_capacity(room(nodes, parent, free)[1]);
    let distinct = (free.iter().enumerate()).filter(|&(i, v)| !free[..i].contains(v));
    scratch.extend(distinct.map(|(_, &v)| v));
    let head = Span::since(0, &scratch);
    let one_root = parent.iter().filter(|p| p.is_none()).count() == 1;
    for &u in order {
        let start = scratch.len();
        scratch.extend_from_slice(&words[schema(&at, u)]);
        for c in children(&at, u) {
            for i in at[c].keep.range() {
                if !scratch[start..].contains(&scratch[i]) {
                    scratch.push(scratch[i]);
                }
            }
        }
        let joined = scratch.len();
        let above = parent[u].map(|p| (nodes[p].label, &words[schema(&at, p)]));
        let mut kept = start;
        for i in start..joined {
            let v = scratch[i];
            let held = |(l, s): (Option<&[u64]>, &[u32])| {
                l.map_or(s.contains(&v), |l| l[v as usize / 64] >> (v % 64) & 1 == 1)
            };
            if free.contains(&v) || above.is_some_and(held) {
                (scratch[kept], kept) = (v, kept + 1);
            }
        }
        scratch.truncate(kept);
        at[u].whole = kept == joined;
        at[u].keep = Span::since(start, &scratch);
        if parent[u].is_none() && one_root {
            // The one root's output is the answer set: its columns go
            // out in head order, and anything short of that is a
            // projection, which orders the rows as well.
            at[u].whole &= scratch[start..] == scratch[head.range()];
            scratch.truncate(start);
            at[u].keep = head;
        }
        let above = parent[u].map(|p| &words[schema(&at, p)]);
        let keep = &scratch[at[u].keep.range()];
        at[u].dead = reduction_decides && above.is_some_and(|s| keep.iter().all(|v| s.contains(v)));
    }
    for &u in order.iter().rev() {
        at[u].dead |= parent[u].is_some_and(|p| at[p].dead);
    }

    // `fused`: the child whose edge a Boolean root checks with one
    // existence call — the last in `order` with a multi-column key.
    let boolean = free.is_empty() && reduction_decides;
    for &u in order.iter().filter(|_| boolean) {
        let child = &words[schema(&at, u)];
        let shared = |p: usize| {
            child
                .iter()
                .filter(|v| words[schema(&at, p)].contains(v))
                .count()
        };
        match parent[u] {
            Some(p) if parent[p].is_none() && shared(p) > 1 => at[p].fused = Some(u),
            _ => {}
        }
    }
    // A root's only live child is joined into it, which drops the root
    // rows a leaves → root semijoin would: none on that edge. A dead
    // node is never read again; a live one with no live child to join
    // and nothing to project away is handed to its parent `as_is`, and
    // that join drops exactly the rows the semijoin would have, at the
    // same probe per row.
    for u in 0..n {
        let only_child = |p: usize| parent[p].is_none() && children(&at, p).count() == 1;
        let joined = !boolean && !at[u].dead && parent[u].is_some_and(only_child);
        let as_is = (at[u].dead || at[u].whole) && children(&at, u).all(|c| at[c].dead);
        (at[u].joined, at[u].as_is) = (joined, as_is);
    }
    // Full reducer: leaves → root …
    for &u in order {
        if let Some(p) = parent[u].filter(|&p| at[p].fused != Some(u) && !at[u].joined) {
            let (child_pos, parent_pos) = edge_key(words, &mut at, u, p);
            ops.push(Op::Semijoin {
                target: p,
                source: u,
                target_pos: parent_pos,
                source_pos: child_pos,
            });
        }
        let mut slot = u;
        if let Some(c) = at[u].fused {
            (slot, slots) = (slots, slots + 1);
            let inputs = push(words, [u, c].map(|s| s as u32));
            let vars = Span::default();
            ops.push(Op::MultiJoin {
                dst: slot,
                inputs,
                vars,
            });
        }
        ops.push(Op::AssertNonempty { slot });
    }
    // … then root → leaves, but only into nodes the join phase computes
    // on. A root edge that no sweep reads leaves the verdict to the join.
    let reduction_decides = reduction_decides && !at.iter().any(|s| s.joined && s.as_is);
    for &u in order.iter().rev() {
        if let Some(p) = parent[u].filter(|_| !at[u].as_is) {
            let (child_pos, parent_pos) = edge_key(words, &mut at, u, p);
            ops.push(Op::Semijoin {
                target: u,
                source: p,
                target_pos: child_pos,
                source_pos: parent_pos,
            });
            ops.push(Op::AssertNonempty { slot: u });
        }
    }
    (plan.bool_len, plan.reduction_decides) = (ops.len(), reduction_decides);
    // A Boolean join tree's prefix is the whole program. Its output slot
    // is unused by Boolean callers: the last node in `order` (the root
    // of the last-compiled tree).
    plan.output = *order.last().expect("at least one node");
    if boolean {
        plan.slots = slots;
        plan.words.shrink_to_fit();
        return plan;
    }

    // Then the ops, one per live node over its live children's partials:
    // a projection of a node with none, the join kernel over the node
    // and its partials otherwise. `partial` is the slot holding the
    // projected join of the node's subtree; every one is canonical.
    for &u in order {
        if at[u].dead {
            continue;
        }
        let (dst, vars) = (
            slots,
            push(words, scratch[at[u].keep.range()].iter().copied()),
        );
        slots += 1;
        ops.push({
            let mut live = children(&at, u).filter(|&c| !at[c].dead).peekable();
            match live.peek() {
                None => Op::Project { dst, src: u, vars },
                Some(_) => {
                    let partials = live.map(|c| at[c].partial as u32);
                    let inputs = push(words, std::iter::once(u as u32).chain(partials));
                    Op::MultiJoin { dst, inputs, vars }
                }
            }
        });
        at[u].partial = dst;
    }

    // Combine the roots (cartesian join across components), the last
    // combination in head order. The others keep a prefix of one run of
    // the roots' kept variables, laid down first.
    let roots = || (0..n).filter(|&u| parent[u].is_none());
    let (first, last) = (roots().next(), roots().next_back());
    let run = roots().filter(|&r| Some(r) != last);
    let mut kept = push(
        words,
        run.flat_map(|r| &scratch[at[r].keep.range()]).copied(),
    );
    kept.len = 0;
    for r in roots() {
        kept.len += at[r].keep.len;
        if Some(r) == first {
            plan.output = at[r].partial;
            continue;
        }
        let vars = match Some(r) == last {
            true => push(words, scratch[head.range()].iter().copied()),
            false => kept,
        };
        let inputs = push(words, [plan.output, at[r].partial].map(|s| s as u32));
        ops.push(Op::MultiJoin {
            dst: slots,
            inputs,
            vars,
        });
        (plan.output, slots) = (slots, slots + 1);
    }
    plan.slots = slots;
    plan.words.shrink_to_fit();
    plan
}

/// What [`compile_tree`] knows and decides per node.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    /// The node's first child and its next sibling, ascending.
    first: Option<usize>,
    next: Option<usize>,
    /// The node's schema (words).
    schema: Span,
    /// The schema of the node's projected subtree join (scratch).
    keep: Span,
    /// The key of the edge above the node: its column positions in the
    /// node's schema and in its parent's (words), once written.
    key: Option<(Span, Span)>,
    /// The node's projected subtree join drops no column.
    whole: bool,
    /// The join phase needs nothing from the node's subtree.
    dead: bool,
    /// The only child of a root, joined into it: no leaves → root
    /// semijoin.
    joined: bool,
    /// Handed to its parent's join as it is: no root → leaves semijoin.
    as_is: bool,
    /// A Boolean root's child checked with one existence call.
    fused: Option<usize>,
    /// The slot holding the projected join of the node's subtree.
    partial: Slot,
}

fn children(at: &[NodeState], u: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors(at[u].first, |&c| at[c].next)
}

/// Appends `items` to `words`, as a span.
fn push(words: &mut Vec<u32>, items: impl IntoIterator<Item = u32>) -> Span {
    let start = words.len();
    words.extend(items);
    Span::since(start, words)
}

/// The key of the edge from `u` up to `p` — the positions, in `u`'s
/// schema and in `p`'s (both sorted), of the variables they share —
/// written to `words` the first time, shared by both sweeps.
fn edge_key(words: &mut Vec<u32>, at: &mut [NodeState], u: usize, p: usize) -> (Span, Span) {
    if let Some(key) = at[u].key {
        return key;
    }
    let (child, parent) = (at[u].schema.range(), at[p].schema.range());
    let position = |words: &[u32], i: usize| words[parent.clone()].binary_search(&words[i]).ok();
    let start = words.len();
    for i in child.clone() {
        if position(words, i).is_some() {
            words.push((i - child.start) as u32);
        }
    }
    let child_pos = Span::since(start, words);
    let start = words.len();
    for i in child {
        if let Some(j) = position(words, i) {
            words.push(j as u32);
        }
    }
    let key = (child_pos, Span::since(start, words));
    at[u].key = Some(key);
    key
}

/// Writes the source of `atoms` — atoms sharing one variable set
/// adjacent — into a plan's buffers: per group a part with its schema,
/// key and binders, then, when there is not exactly one part, the
/// union schema and the key of the whole group.
fn write_source(
    atoms: &[Atom],
    words: &mut Vec<u32>,
    parts: &mut Vec<MatPart>,
    binders: &mut Vec<AtomBinder>,
) -> MatSource {
    let first = parts.len();
    for group in atoms.chunk_by(|a, b| a.same_vars(*b)) {
        let schema = push_ascending(words, group[0].args.iter().copied());
        let key = MatKey::write(group, schema, words);
        let start = binders.len();
        binders.extend(group.iter().map(|&a| AtomBinder::compile(a, words)));
        let binders = Span::since(start, binders);
        parts.push(MatPart {
            schema,
            key,
            binders,
        });
    }
    let own = Span::since(first, parts);
    if let [part] = parts[own.range()] {
        // A single part is the whole source and keeps the only key.
        return MatSource {
            schema: part.schema,
            key: part.key,
            parts: own,
        };
    }
    let schema = push_ascending(words, atoms.iter().flat_map(|a| a.args.iter().copied()));
    MatSource {
        schema,
        key: MatKey::write(atoms, schema, words),
        parts: own,
    }
}

/// Bounds on the words a plan over `nodes` keeps — per argument of an
/// atom, part and source schemas one each, keys one each plus two per
/// atom, binders two and the edge above the node two; per node, its
/// op's kept variables (free or in the parent's label) and operands,
/// one fused or root combination's, and the head twice — and on the
/// keep-lists [`compile_tree`] works out: per node its schema and its
/// children's lists, then its own.
fn room(nodes: &[NodeSpec], parent: &[Option<usize>], free: &[VarId]) -> [usize; 2] {
    let arguments = |u: usize| nodes[u].atoms.iter().map(|a| a.args.len()).sum::<usize>();
    let label = |u: usize| nodes[u].label.map_or(arguments(u), row_len);
    let kept = |u: usize| free.len() + parent[u].map_or(0, label);
    let words = |u: usize| 4 * nodes[u].atoms.len() + 8 * arguments(u) + kept(u) + free.len() + 6;
    let scratch = |u: usize| arguments(u) + 2 * kept(u);
    let room = |[w, s]: [usize; 2], u: usize| [w + words(u), s + scratch(u)];
    (0..nodes.len()).fold([2 * free.len(), free.len()], room)
}

impl PlanIr {
    /// An empty program over `nodes` with room for all it will hold.
    fn with_room(nodes: &[NodeSpec], parent: &[Option<usize>], free: &[VarId]) -> PlanIr {
        let groups = |node: &NodeSpec| node.atoms.chunk_by(|a, b| a.same_vars(*b)).count();
        PlanIr {
            ops: Vec::with_capacity(7 * nodes.len()),
            words: Vec::with_capacity(room(nodes, parent, free)[0]),
            parts: Vec::with_capacity(nodes.iter().map(groups).sum()),
            binders: Vec::with_capacity(nodes.iter().map(|node| node.atoms.len()).sum()),
            ..PlanIr::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_cq;

    impl PlanIr {
        /// Checks a full uncached run's output against the reference join
        /// of the program's materialized sources — which sorts no row as a
        /// code word and reads no bitmap — on the output's schema: the same
        /// rows in the same order, or nothing when an emptiness assertion
        /// stopped the run.
        pub(crate) fn assert_output_is_reference_join(&self, d: &Structure, what: &str) {
            let mats = self.materialize_sources().count();
            let mut slots = vec![None; self.slots];
            self.run_ops(0..mats, &mut slots, d, None);
            let parts: Vec<&FlatRelation> = slots.iter().flatten().collect();
            match self.run(d, None, None).0 {
                Some(out) => {
                    let want = FlatRelation::reference_of(&parts, out.schema());
                    assert!(out.iter_rows().eq(want.iter_rows()), "output rows: {what}");
                }
                None => {
                    let want = FlatRelation::reference_of(&parts, &[]);
                    assert!(
                        want.is_empty(),
                        "the run stopped on a nonempty join: {what}"
                    );
                }
            }
        }
    }

    /// The plan of one node over `atoms`, and its source.
    fn one_node(atoms: &[Atom]) -> (PlanIr, MatSource) {
        let node = NodeSpec { atoms, label: None };
        let ir = compile_tree(&[node], &[None], &[0], &[]);
        let source = *ir.materialize_sources().next().expect("one node");
        (ir, source)
    }

    fn source_of(q: &str) -> (PlanIr, MatSource) {
        let q = parse_cq(q).unwrap();
        one_node(&q.atoms().collect::<Vec<_>>())
    }

    #[test]
    fn source_from_groups_unions_schemas() {
        let (ir, s) = source_of("Q() :- E(x, y), E(y, z)");
        assert_eq!(ir.words(s.schema), [0, 1, 2]);
        assert_eq!(ir.parts(&s).len(), 2);
        assert_eq!(ir.words(ir.parts(&s)[0].schema), [0, 1]);
        assert_eq!(ir.words(ir.parts(&s)[1].schema), [1, 2]);
    }

    #[test]
    fn empty_source_materializes_true() {
        let (ir, src) = one_node(&[]);
        assert!(src.schema.is_empty() && src.key.is_empty());
        let d = Structure::digraph(2, &[]);
        let mut stats = MatCacheStats::default();
        let r = ir.materialize(&src, &d, None, None, &mut stats);
        assert_eq!(r.len(), 1);
        assert_eq!(r.arity(), 0);
        assert_eq!(stats, MatCacheStats::default());
    }

    #[test]
    fn multipart_source_joins_and_caches_both_levels() {
        let (ir, src) = source_of("Q() :- E(x, y), E(y, z)");
        let d = Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]);
        let cache = MaterializationCache::new();
        let mut stats = MatCacheStats::default();
        let r = ir.materialize(&src, &d, Some(&cache), None, &mut stats);
        assert_eq!(r.schema(), &[0, 1, 2]);
        assert_eq!(r.len(), 2); // 0-1-2 and 1-2-3
                                // Cold: source miss + two part misses, all inserted.
        assert_eq!((stats.hits, stats.misses), (1, 2)); // parts share the E(x,y)-shape key!
        assert_eq!(cache.len(), 2); // the part shape + the joined source
                                    // Warm: a single source-level hit.
        let mut warm = MatCacheStats::default();
        let r2 = ir.materialize(&src, &d, Some(&cache), None, &mut warm);
        assert_eq!((warm.hits, warm.misses), (1, 0));
        assert_eq!(
            r.rows_in_head_order(&[0, 1, 2]),
            r2.rows_in_head_order(&[0, 1, 2])
        );
    }

    /// A part whose atoms share one variable set — the same atom twice,
    /// `F` in both directions — is their intersection, built by the join
    /// kernel keeping the whole schema: canonical, under the scan's
    /// width, and equal to the naive answer to the same atoms.
    #[test]
    fn same_schema_atoms_intersect_on_the_materialize_path() {
        use crate::eval::naive::eval_naive;
        use cqapx_structures::{StructureBuilder, Vocabulary};
        let v = Vocabulary::new(vec![("E", 2), ("F", 2)]);
        let (e, f) = (v.rel("E").unwrap(), v.rel("F").unwrap());
        let mut b = StructureBuilder::new(v.clone(), 40);
        for u in 0..40u32 {
            b.add(e, &[u, (u * 7 + 3) % 40]).add(e, &[u, (u + 1) % 40]);
            b.add(f, &[u, (u + 1) % 40]).add(f, &[(u + 1) % 40, u]);
            b.add(f, &[(u * 7 + 3) % 40, u]);
        }
        let d = b.finish();
        let rule = "Q(x, y) :- E(x, y), F(x, y), E(x, y), F(y, x)";
        let q = crate::parser::parse_cq_with_vocab(rule, &v).unwrap();
        let (ir, src) = one_node(&q.atoms().collect::<Vec<_>>());
        let parts = ir.parts(&src);
        assert_eq!((parts.len(), ir.binders(&parts[0]).len()), (1, 4));
        let mut stats = MatCacheStats::default();
        let got = ir.materialize(&src, &d, None, None, &mut stats);
        assert_eq!(got.schema(), &[0, 1]);
        assert_eq!(got.domain_width(), d.domain_dict().len() as u32);
        let rows: Vec<&[u32]> = got.iter_rows().collect();
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "canonical rows");
        let want = eval_naive(&q, &d);
        assert_eq!(got.len(), want.len());
        assert!(got.len() > 40, "both directions of the ring and more");
        assert_eq!(
            got.rows_in_head_order_decoded(&[0, 1], d.domain_dict()),
            want
        );
        assert!(
            stats.cursor_advances > 0,
            "the kernel intersected the scans"
        );
    }

    /// The reference build of a source: its parts scanned, then the
    /// reference join onto its schema.
    fn reference(ir: &PlanIr, src: &MatSource, d: &Structure) -> FlatRelation {
        let mut stats = MatCacheStats::default();
        let scan = |p: &MatPart| ir.materialize_part(p, d, &mut stats);
        let parts: Vec<FlatRelation> = ir.parts(src).iter().map(scan).collect();
        FlatRelation::reference_of(&parts.iter().collect::<Vec<_>>(), ir.words(src.schema))
    }

    #[test]
    fn forced_strategies_build_identical_relations() {
        // Triangle bag over a pseudo-random digraph, under every
        // numbering of its variables: the kernel's build must agree
        // with the reference join byte-for-byte (schema, sorted rows and
        // code width), and the stats attribute it to the one path.
        let edges: Vec<(u32, u32)> = (0..120u32)
            .flat_map(|u| {
                [
                    (u, (u * 7 + 3) % 120),
                    (u, (u + 1) % 120),
                    ((u * 5) % 120, u),
                ]
            })
            .filter(|&(a, b)| a != b)
            .collect();
        let d = Structure::digraph(120, &edges);
        for q in [
            "Q(x,y,z) :- E(x,y), E(y,z), E(z,x)",
            "Q(x,z,y) :- E(x,y), E(y,z), E(z,x)",
            "Q(y,x,z) :- E(x,y), E(y,z), E(z,x)",
            "Q(a,c,b) :- E(a,b), E(b,c)",
            "Q(b,a,c) :- E(a,b), E(b,c)",
        ] {
            let (ir, src) = source_of(q);
            let mut stats = MatCacheStats::default();
            let got = ir.materialize(&src, &d, None, None, &mut stats);
            let want = reference(&ir, &src, &d);
            assert!(!want.is_empty(), "fixture must produce rows on {q}");
            assert_eq!(got.schema(), want.schema(), "{q}");
            assert_eq!(got.domain_width(), want.domain_width(), "{q}");
            assert!(got.iter_rows().eq(want.iter_rows()), "bytes differ on {q}");
            assert_eq!((stats.binary_bag_builds, stats.wcoj_bag_builds), (0, 1));
            assert!(
                stats.cursor_advances > 0,
                "the kernel counts its work on {q}"
            );
        }
    }

    #[test]
    fn ops_union_dedup_project_roundtrip() {
        // A hand-built program: materialize E, assert it nonempty,
        // project it to its first column.
        let (mut ir, source) = source_of("Q() :- E(x, y)");
        let vars = push(&mut ir.words, [0]);
        ir.ops = vec![
            Op::Materialize { dst: 0, source },
            Op::AssertNonempty { slot: 0 },
            Op::Project {
                dst: 1,
                src: 0,
                vars,
            },
        ];
        (ir.slots, ir.bool_len, ir.reduction_decides, ir.output) = (2, 2, true, 1);
        let d = Structure::digraph(3, &[(0, 1), (1, 0), (1, 2)]);
        let (out, _) = ir.run(&d, None, None);
        // The sources of E, each once: {0, 1}.
        let out = out.unwrap();
        assert_eq!(out.iter_rows().collect::<Vec<_>>(), [[0], [1]]);
        let (b, _) = ir.run_boolean(&d, None, None);
        assert!(b);
        // Empty database: the assertion aborts both runs.
        let empty = Structure::digraph(3, &[]);
        assert!(ir.run(&empty, None, None).0.is_none());
        assert!(!ir.run_boolean(&empty, None, None).0);
    }

    #[test]
    fn profiled_run_records_every_op_and_matches_unprofiled() {
        use crate::eval::TreePlan;
        let q = parse_cq("Q(x1, x4) :- E(x1,x2), E(x2,x3), E(x3,x4)").unwrap();
        let plan = TreePlan::join_tree(&q).unwrap();
        let d = Structure::digraph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (plain, _) = plan.ir().run(&d, None, None);
        let mut profile = EvalProfile::default();
        let (profiled, _) = plan.ir().run(&d, None, Some(&mut profile));
        assert_eq!(
            plain.unwrap().rows_in_head_order(&[0, 3]),
            profiled.unwrap().rows_in_head_order(&[0, 3]),
            "profiling must not change answers"
        );
        // A completed run profiles every instruction.
        assert_eq!(profile.ops.len(), plan.ir().ops().len());
        assert!(profile.ops.iter().any(|o| o.op == "materialize"));
        assert!(profile.ops.iter().any(|o| o.op == "semijoin"));
        // An aborted run profiles the prefix, ending at the assertion.
        let empty = Structure::digraph(5, &[]);
        let mut aborted = EvalProfile::default();
        let (none, _) = plan.ir().run(&empty, None, Some(&mut aborted));
        assert!(none.is_none());
        assert!(aborted.ops.len() < plan.ir().ops().len());
        assert_eq!(aborted.ops.last().unwrap().op, "assert_nonempty");
        // Every join is one profiled op under the one label the
        // benchmark's `join` prefix catches; the root, a node with two
        // children, writes the answers.
        let c6 = parse_cq("Q(a) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)").unwrap();
        let plan = crate::eval::TreePlan::within_width(&c6, 2).unwrap();
        let ring = Structure::digraph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let (plain, _) = plan.ir().run(&ring, None, None);
        let mut profile = EvalProfile::default();
        let (profiled, _) = plan.ir().run(&ring, None, Some(&mut profile));
        assert_eq!(plain.unwrap().len(), 6);
        assert_eq!(profiled.unwrap().len(), 6);
        assert_eq!(profile.ops.len(), plan.ir().ops().len());
        let joins = (plan.ir().ops().iter()).filter(|op| matches!(op, Op::MultiJoin { .. }));
        let labelled = profile.ops.iter().filter(|o| o.op == "join");
        assert_eq!(labelled.count(), joins.count());
        let root = profile.ops.last().expect("a completed run");
        assert_eq!((root.op, root.rows), ("join", 6));
    }

    /// A profiled Boolean sweep records one entry per op it ran, under
    /// the kernel path's labels and in its order, stopping at the same
    /// assertion; an assertion reports 1 or 0, a semijoin the live
    /// values it hands on. Profiling changes neither the verdict nor the
    /// counters.
    #[test]
    fn profiled_bool_sweep_records_each_op_it_ran() {
        use crate::eval::TreePlan;
        let [cyclic, dag] = cyclic_and_acyclic();
        // Three edges: the two-edge path holds, and its semijoin hands
        // on a known number of values (below).
        let tiny = Structure::digraph(3, &[(0, 1), (1, 2), (2, 2)]);
        for rule in [
            "Q() :- E(a0,a1), E(a1,a2), E(a2,a3), E(a3,a4), E(a4,a5), E(a5,a6)",
            "Q() :- E(c,a1), E(c,a2), E(a3,c), E(c,a4)",
            "Q() :- E(x,y), E(y,z)",
        ] {
            let q = parse_cq(rule).unwrap();
            let plan = TreePlan::join_tree(&q).unwrap();
            let ir = plan.ir();
            assert!(ir.reduction_decides() && ir.bool_len == ir.ops.len());
            for d in [&cyclic, &dag, &tiny] {
                let (verdict, stats) = ir.run_boolean(d, None, None);
                let mut profile = EvalProfile::default();
                let (profiled, profiled_stats) = ir.run_boolean(d, None, Some(&mut profile));
                assert_eq!((profiled, profiled_stats), (verdict, stats), "{rule}");
                assert!(stats.bitmap_probes > 0, "the bitmap sweep ran: {rule}");
                let mut kernel = EvalProfile::default();
                let (alive, _, _) = ir.run_slots(d, None, Some(&mut kernel));
                assert_eq!(alive, verdict, "{rule}");
                let labels = |p: &EvalProfile| p.ops.iter().map(|o| o.op).collect::<Vec<_>>();
                assert_eq!(labels(&profile), labels(&kernel), "{rule}");
                let sweep = &profile.ops[ir.materialize_sources().count()..];
                for (entry, op) in sweep
                    .iter()
                    .zip(&ir.ops[ir.materialize_sources().count()..])
                {
                    if let Op::AssertNonempty { .. } = op {
                        assert!(entry.rows <= 1, "{rule}: {entry:?}");
                    }
                }
                let last = profile.ops.last().unwrap();
                assert_eq!(last.rows == 0, !verdict, "{rule}: {last:?}");
            }
        }
        let q = parse_cq("Q() :- E(x,y), E(y,z)").unwrap();
        let plan = TreePlan::join_tree(&q).unwrap();
        let mut profile = EvalProfile::default();
        plan.ir().run_boolean(&tiny, None, Some(&mut profile));
        let sweep: Vec<(&str, usize)> = profile.ops[2..].iter().map(|o| (o.op, o.rows)).collect();
        // The leaf hands on its live values, then both slots are
        // asserted: `{1, 2}` from `E(x, y)` on `y`, or `{0, 1, 2}` from
        // `E(y, z)` on `y`, whichever the plan has for its leaf.
        assert!(
            matches!(
                sweep[..],
                [
                    ("semijoin", 2 | 3),
                    ("assert_nonempty", 1),
                    ("assert_nonempty", 1)
                ]
            ),
            "{sweep:?}"
        );
    }

    /// `three_hop_head`'s join phase is one projection of the root onto
    /// `x`, read off the live-value sweep whether or not the run is
    /// profiled: the same output and counters either way, uncached and
    /// warm. The profile has one entry per entry of the kernel path's
    /// (`run_slots`), under the same labels: the sweep's entries are the
    /// Boolean run's, and the last is `("project", answers)`. The output
    /// is the kernel path's, byte for byte, and so are the counters —
    /// its projection of the leading column sorts nothing.
    #[test]
    fn profiled_swept_projection_matches_unprofiled() {
        use crate::eval::TreePlan;
        let q = parse_cq("Q(x) :- E(x,y), E(y,z), E(z,w)").unwrap();
        let plan = TreePlan::join_tree(&q).unwrap();
        let ir = plan.ir();
        assert!(
            matches!(ir.ops[ir.bool_len..], [Op::Project { vars, .. }] if ir.words(vars) == [0])
        );
        let labels = |p: &EvalProfile| p.ops.iter().map(|o| o.op).collect::<Vec<_>>();
        let [cyclic, dag] = cyclic_and_acyclic();
        let warm = MaterializationCache::new();
        for d in [&cyclic, &dag] {
            ir.run(d, Some(&warm), None);
            for cache in [None, Some(&warm)] {
                let (plain, stats) = ir.run(d, cache, None);
                let mut profile = EvalProfile::default();
                let (profiled, profiled_stats) = ir.run(d, cache, Some(&mut profile));
                let (plain, profiled) = (plain.unwrap(), profiled.unwrap());
                assert!(plain.iter_rows().eq(profiled.iter_rows()));
                assert_eq!(stats, profiled_stats);
                let mut kernel = EvalProfile::default();
                let (alive, mut slots, kernel_stats) = ir.run_slots(d, cache, Some(&mut kernel));
                let want = slots[ir.output].take().filter(|_| alive).unwrap();
                assert_eq!(plain.schema(), want.schema());
                assert_eq!(plain.domain_width(), want.domain_width());
                assert!(plain.iter_rows().eq(want.iter_rows()));
                assert_eq!(stats, kernel_stats);
                assert_eq!(labels(&profile), labels(&kernel));
                let mut boolean = EvalProfile::default();
                ir.run_boolean(d, cache, Some(&mut boolean));
                let entries =
                    |ops: &[OpProfile]| ops.iter().map(|o| (o.op, o.rows)).collect::<Vec<_>>();
                let (last, swept) = profile.ops.split_last().unwrap();
                assert_eq!(entries(swept), entries(&boolean.ops));
                assert_eq!((last.op, last.rows), ("project", plain.len()));
                assert!(plain.len() > 1);
            }
        }
    }

    #[test]
    fn warm_boolean_run_copies_no_cached_row() {
        use crate::eval::TreePlan;
        // A directed cycle reduces nothing: every semijoin keeps every
        // row, so even the kernel sweep must leave the slots alone.
        let edges: Vec<(u32, u32)> = (0..700u32).map(|u| (u, (u + 1) % 700)).collect();
        let d = Structure::digraph(700, &edges);
        let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,w), E(y,u)").unwrap();
        let plan = TreePlan::join_tree(&q).unwrap();
        let ir = plan.ir();
        assert!(ir.reduction_decides());
        let cache = MaterializationCache::new();
        assert!(ir.run_boolean(&d, Some(&cache), None).0);
        let resident = cache.resident_bytes();
        let mut stats = MatCacheStats::default();
        let mut slots: Vec<Option<FlatRelation>> = vec![None; ir.slots];
        let mat_len = ir.materialize_sources().count();
        assert!(ir.exec(
            0..mat_len,
            &mut slots,
            Input::cached(&d, Some(&cache)),
            &mut stats,
            None
        ));
        assert_eq!((stats.hits as usize, stats.misses), (mat_len, 0));
        // Both sweep paths: the live-value sweep and the semijoin
        // kernels.
        let alive = &mut vec![None; ir.slots];
        let sweep = ir.bitmap_bool_sweep(mat_len, &slots, alive, &mut stats, None);
        assert!(matches!(sweep, Some(Some(_))));
        let sweep = mat_len..ir.bool_len;
        assert!(ir.exec(
            sweep,
            &mut slots,
            Input::cached(&d, Some(&cache)),
            &mut stats,
            None
        ));
        for (dst, source) in ir.materialize_sources().enumerate() {
            let key = ir.words(source.key);
            let (entry, hit) = cache.get_or_materialize(key, || unreachable!("warm"));
            assert!(hit);
            let slot = slots[dst].as_ref().unwrap();
            assert!(slot.shares_rows_with(&entry), "slot {dst} copied its rows");
            assert_eq!(slot.schema(), ir.words(source.schema));
        }
        assert_eq!(cache.resident_bytes(), resident);
    }

    /// Joins of a node with one child: kernel calls over two inputs
    /// that keep a variable.
    fn joins_in(ir: &PlanIr) -> usize {
        let join = |op: &&Op| matches!(op, Op::MultiJoin { inputs, vars, .. } if inputs.len() == 2 && !vars.is_empty());
        ir.ops.iter().filter(join).count()
    }

    fn semijoins_in(ir: &PlanIr) -> usize {
        let semijoin = |op: &&Op| matches!(op, Op::Semijoin { .. });
        ir.ops.iter().filter(semijoin).count()
    }

    /// One join-tree node per atom of `atoms`, in order.
    fn atom_nodes<'a>(atoms: &'a [Atom<'a>]) -> Vec<NodeSpec<'a>> {
        (atoms.chunks(1))
            .map(|atoms| NodeSpec { atoms, label: None })
            .collect()
    }

    /// The atoms of `q`, in body order.
    fn atoms_of(q: &crate::ast::ConjunctiveQuery) -> Vec<Atom<'_>> {
        q.atoms().collect()
    }

    #[test]
    fn join_tree_elides_identity_joins_but_decomposition_keeps_them() {
        use crate::eval::TreePlan;
        let q = parse_cq("Q(x) :- E(x,y), E(y,z), E(z,w)").unwrap();
        let plan = TreePlan::join_tree(&q).unwrap();
        assert_eq!(joins_in(plan.ir()), 0, "{:?}", plan.ir().ops);
        // Two free variables two hops apart: one join must stay.
        let q2 = parse_cq("Q(x, z) :- E(x,y), E(y,z), E(z,w)").unwrap();
        let ir2 = TreePlan::join_tree(&q2).unwrap();
        assert_eq!(joins_in(ir2.ir()), 1);
        // The second sweep reaches only what the join phase computes
        // on: nothing when the root covers the head or is joined with
        // unchanged leaves (that join drops the same rows), the inner
        // node of a path whose ends are both free. The first skips a
        // root's only live child, whose join with the root is that
        // semijoin too: a two-atom free query has none at all.
        assert_eq!((semijoins_in(plan.ir()), semijoins_in(ir2.ir())), (2, 2));
        for (rule, semijoins) in [
            ("Q() :- E(x,y), E(y,z), E(z,w)", 2),
            ("Q(x, y, z) :- E(x,y), E(y,z)", 0),
            ("Q(x, z) :- E(x,y), E(y,z)", 0),
            ("Q(x, w) :- E(x,y), E(y,z), E(z,w)", 2),
        ] {
            let q = parse_cq(rule).unwrap();
            let ir = TreePlan::join_tree(&q).unwrap();
            assert_eq!(
                semijoins_in(ir.ir()),
                semijoins,
                "{rule}: {:?}",
                ir.ir().ops
            );
        }
        // The same three atoms as bags, the middle one also carrying
        // `x` as a connector-only variable: the sweeps no longer decide
        // and every join is back.
        let atoms = atoms_of(&q);
        let nodes = atom_nodes(&atoms);
        let mut bags = nodes.clone();
        bags[1].label = Some(&[0b111]); // the bit row of x, y and z
        let (parent, order) = ([None, Some(0), Some(1)], [2, 1, 0]);
        let tree = compile_tree(&nodes, &parent, &order, q.free_vars());
        let decomp = compile_tree(&bags, &parent, &order, q.free_vars());
        assert!(tree.reduction_decides() && !decomp.reduction_decides());
        assert_eq!((joins_in(&tree), joins_in(&decomp)), (0, 2));
        // … and so is the second sweep into every bag that is projected
        // before it is joined (the leaf loses `w`), while the root, whose
        // only child is now live, is no longer semijoined.
        assert_eq!((semijoins_in(&tree), semijoins_in(&decomp)), (2, 3));
        let d = Structure::digraph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 5), (4, 0)]);
        let want = plan.ir().answers(&d, None).0;
        for ir in [&tree, &decomp] {
            let (got, _) = ir.answers(&d, None);
            assert_eq!(got, want);
        }
    }

    /// The leaves → root semijoin stays wherever the join phase does
    /// not read the edge or the root has more than one child: into a
    /// root whose only child is dead (`Q(x)` is answered off the
    /// live-value sweep), into a root with two children, and throughout
    /// a Boolean join tree, whose sweep is the whole program.
    #[test]
    fn root_semijoins_stay_where_no_join_reads_the_edge() {
        use crate::eval::TreePlan;
        let into_root = |ir: &PlanIr, root: Slot| {
            (ir.ops.iter())
                .filter(|op| matches!(op, Op::Semijoin { target, .. } if *target == root))
                .count()
        };
        let root = |ir: &PlanIr| match ir.ops.last() {
            Some(Op::Project { src, .. }) => *src,
            Some(Op::MultiJoin { inputs, .. }) => ir.words(*inputs)[0] as Slot,
            op => panic!("no root op: {op:?}"),
        };
        let plan = TreePlan::join_tree(&parse_cq("Q(x) :- E(x,y), E(y,z)").unwrap()).unwrap();
        let ir = plan.ir();
        assert_eq!(into_root(ir, root(ir)), 1, "{:?}", ir.ops);
        assert!(ir.reduction_decides());
        // Rooted at the middle atom: two children, both semijoined.
        let q = parse_cq("Q(x, w) :- E(x,y), E(y,z), E(z,w)").unwrap();
        let (parent, order) = ([Some(1), None, Some(1)], [0, 2, 1]);
        let ir = compile_tree(&atom_nodes(&atoms_of(&q)), &parent, &order, q.free_vars());
        assert_eq!(into_root(&ir, 1), 2, "{:?}", ir.ops);
        // A Boolean join tree keeps its whole sweep.
        for rule in ["Q() :- E(x,y), E(y,z)", "Q() :- E(x,y), E(y,z), E(z,w)"] {
            let plan = TreePlan::join_tree(&parse_cq(rule).unwrap()).unwrap();
            let ir = plan.ir();
            assert_eq!(semijoins_in(ir), ir.materialize_sources().count() - 1);
            assert_eq!(ir.bool_len, ir.ops.len(), "{rule}");
        }
    }

    /// A free query whose root–child edge empties the answer stops at
    /// the child's assertion when the child is semijoined from the root,
    /// though no semijoin went into the root: on a graph with two-edge
    /// paths and no three-edge one, `Q(x, w)` over a three-edge path
    /// rooted at an end profiles no `join`. Where no sweep reads that
    /// edge (`Q(x, z)` over two edges), the reduction no longer decides,
    /// so Boolean evaluation runs the join and gets the verdict right.
    #[test]
    fn an_edge_that_empties_the_answer_stops_at_the_childs_assertion() {
        use crate::eval::TreePlan;
        let d = Structure::digraph(4, &[(0, 1), (1, 2), (3, 1)]);
        let q = parse_cq("Q(x, w) :- E(x,y), E(y,z), E(z,w)").unwrap();
        let (parent, order) = ([None, Some(0), Some(1)], [2, 1, 0]);
        let ir = compile_tree(&atom_nodes(&atoms_of(&q)), &parent, &order, q.free_vars());
        assert!(ir.reduction_decides());
        assert!(!(ir.ops.iter()).any(|op| matches!(op, Op::Semijoin { target: 0, .. })));
        let mut profile = EvalProfile::default();
        assert!(ir.run(&d, None, Some(&mut profile)).0.is_none());
        let labels: Vec<&str> = profile.ops.iter().map(|p| p.op).collect();
        assert_eq!(labels.last(), Some(&"assert_nonempty"), "{labels:?}");
        assert!(!labels.contains(&"join"), "{labels:?}");
        assert!(ir.answers(&d, None).0.is_empty());
        assert!(!ir.run_boolean(&d, None, None).0);
        // Two disjoint edges: both atoms hold rows, and none joins.
        let q = parse_cq("Q(x, z) :- E(x,y), E(y,z)").unwrap();
        let plan = TreePlan::join_tree(&q).unwrap();
        assert!(!plan.ir().reduction_decides(), "{:?}", plan.ir().ops);
        let d = Structure::digraph(4, &[(0, 1), (2, 3)]);
        assert!(!plan.ir().run_boolean(&d, None, None).0);
        assert!(plan.ir().answers(&d, None).0.is_empty());
    }

    /// A plan with one root hands the answer boundary its columns in
    /// head order, whatever order the head lists them in (repeated
    /// head variables once), and its rows in canonical order: every
    /// root is a projection or a kernel join.
    #[test]
    fn single_root_output_is_head_ordered_and_canonical() {
        use crate::eval::TreePlan;
        let edges: Vec<(u32, u32)> = (0..40u32)
            .flat_map(|u| [(u, (u * 7 + 3) % 40), (u, (u + 1) % 40), ((u * 5) % 40, u)])
            .collect();
        let d = Structure::digraph(40, &edges);
        for (rule, schema) in [
            ("Q(x, z) :- E(x,y), E(y,z)", &[0, 2][..]),
            ("Q(z, x) :- E(x,y), E(y,z)", &[2, 0]),
            ("Q(x, y, z) :- E(x,y), E(y,z)", &[0, 1, 2]),
            ("Q(z, x, y) :- E(x,y), E(y,z)", &[2, 0, 1]),
            ("Q(y, z, x) :- E(x,y), E(y,z)", &[1, 2, 0]),
            ("Q(y, x) :- E(x,y)", &[1, 0]),
            ("Q(z, x, z) :- E(x,y), E(y,z)", &[2, 0]),
            ("Q(b, c, a) :- E(c,a), E(c,b), E(c,d)", &[2, 0, 1]),
            ("Q(z, x) :- E(x,y), E(y,z), E(z,x)", &[2, 0]),
        ] {
            let q = parse_cq(rule).unwrap();
            let ir = match TreePlan::join_tree(&q) {
                Some(plan) => plan.ir().clone(),
                None => TreePlan::within_width(&q, 2).unwrap().ir().clone(),
            };
            let (out, _) = ir.run(&d, None, None);
            let out = out.expect("nonempty on this graph");
            assert_eq!(out.schema(), schema, "{rule}: {:?}", ir.ops);
            let rows: Vec<&[u32]> = out.iter_rows().collect();
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "{rule}: row order");
        }
        // Covering the head from the root still costs no join at all.
        let q = parse_cq("Q(x) :- E(x,y), E(y,z), E(z,w)").unwrap();
        assert_eq!(joins_in(TreePlan::join_tree(&q).unwrap().ir()), 0);
    }

    /// The kernel has no fixed limit on variables per op: a path of 69
    /// edges with all 70 variables in the head, rooted at one end, is a
    /// chain of one-child joins whose root keeps all 70, and it answers
    /// as the naive evaluator does on a 75-vertex ring — one walk per
    /// start.
    #[test]
    fn seventy_variable_head_joins_through_one_child() {
        use crate::eval::naive::eval_naive;
        let head: Vec<String> = (0..70).map(|i| format!("x{i}")).collect();
        let atoms: Vec<String> = (1..70).map(|i| format!("E(x{}, x{i})", i - 1)).collect();
        let q = parse_cq(&format!("Q({}) :- {}", head.join(", "), atoms.join(", "))).unwrap();
        let parent: Vec<Option<usize>> = (0..69usize).map(|i| i.checked_sub(1)).collect();
        let order: Vec<usize> = (0..69).rev().collect();
        let ir = compile_tree(&atom_nodes(&atoms_of(&q)), &parent, &order, q.free_vars());
        let one_child = |op: &Op| matches!(op, Op::MultiJoin { inputs, .. } if inputs.len() == 2);
        assert_eq!(ir.ops.iter().filter(|op| one_child(op)).count(), 68);
        let root = ir.ops.last();
        assert!(
            matches!(root, Some(op @ Op::MultiJoin { vars, .. }) if one_child(op) && vars.len() == 70),
            "{root:?}"
        );
        let ring: Vec<(u32, u32)> = (0..75).map(|u| (u, (u + 1) % 75)).collect();
        let d = Structure::digraph(75, &ring);
        let (answers, _) = ir.answers(&d, None);
        assert_eq!(answers.len(), 75);
        assert_eq!(answers, eval_naive(&q, &d));
    }

    /// A head-ordered root is one kernel join under the one label
    /// `join`, whatever it writes: `wedge3`'s binds the head in order
    /// and writes its rows with no sort, `two_hop`'s drops `y` before
    /// `z` and sorts its matches as code words, as small sorts are too
    /// — 240 of them — so the root's packed counters count one sort of
    /// the matches there, and nothing for `wedge3`.
    #[test]
    fn head_ordered_root_is_labelled_as_it_dispatches() {
        use crate::eval::TreePlan;
        let edges: Vec<(u32, u32)> = (0..60u32)
            .flat_map(|u| [(u, (u * 7 + 3) % 60), (u, (u + 1) % 60)])
            .collect();
        let d = Structure::digraph(60, &edges);
        for (rule, sorts) in [
            ("Q(x, y, z) :- E(x,y), E(y,z)", false),
            ("Q(x, z) :- E(x,y), E(y,z)", true),
        ] {
            let q = parse_cq(rule).unwrap();
            let plan = TreePlan::join_tree(&q).unwrap();
            let ir = plan.ir();
            let root = ir.ops.len() - 1;
            assert!(matches!(
                ir.ops[root],
                Op::MultiJoin { inputs, vars, .. } if inputs.len() == 2 && ir.words(vars) == q.free_vars()
            ));
            let mut stats = MatCacheStats::default();
            let mut slots: Vec<Option<FlatRelation>> = vec![None; ir.slots];
            assert!(ir.exec(
                0..root,
                &mut slots,
                Input::cached(&d, None),
                &mut stats,
                None
            ));
            let (mut stats, mut profile) = (MatCacheStats::default(), EvalProfile::default());
            let (s, profiled) = (&mut stats, Some(&mut profile));
            assert!(ir.exec(
                root..root + 1,
                &mut slots,
                Input::cached(&d, None),
                s,
                profiled
            ));
            assert_eq!(profile.ops[0].op, "join");
            assert_eq!(
                profile.ops[0].rows,
                plan.ir().answers(&d, None).0.len(),
                "{rule}"
            );
            let want = if sorts { (1, 240) } else { (0, 0) };
            let got = (stats.packed_sorts, stats.packed_rows);
            assert_eq!(got, want, "{rule}");
        }
        // `Q(a) :- C6`: the root has two children and is the multiway
        // op over the head; its rows are the answers and its cursor
        // moves land in the run's own stats.
        let q = parse_cq("Q(a) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)").unwrap();
        let plan = crate::eval::TreePlan::within_width(&q, 2).unwrap();
        let ir = plan.ir();
        let root = ir.ops.len() - 1;
        assert!(
            matches!(ir.ops[root], Op::MultiJoin { inputs, vars, .. } if inputs.len() == 3 && ir.words(vars) == q.free_vars())
        );
        let mut stats = MatCacheStats::default();
        let mut slots: Vec<Option<FlatRelation>> = vec![None; ir.slots];
        assert!(ir.exec(
            0..root,
            &mut slots,
            Input::cached(&d, None),
            &mut stats,
            None
        ));
        let before = stats.cursor_advances;
        let mut profile = EvalProfile::default();
        let profiled = Some(&mut profile);
        assert!(ir.exec(
            root..root + 1,
            &mut slots,
            Input::cached(&d, None),
            &mut stats,
            profiled
        ));
        assert_eq!(profile.ops[0].op, "join");
        assert_eq!(profile.ops[0].rows, plan.ir().answers(&d, None).0.len());
        assert!(profile.ops[0].rows > 0 && stats.cursor_advances > before);
    }

    /// One op per node: two or more live children are one kernel
    /// join over all of them, never a chain of two-input ones, on join
    /// trees and decompositions alike — and the six plans of the
    /// benchmark's warm workloads have no such node.
    #[test]
    fn wide_nodes_are_one_multiway_join() {
        use crate::eval::TreePlan;
        let multiway = |ir: &PlanIr| {
            let wide = |op: &&Op| matches!(op, Op::MultiJoin { inputs, .. } if inputs.len() > 2);
            ir.ops.iter().filter(wide).count()
        };
        for rule in [
            "Q(x, z) :- E(x,y), E(y,z)",
            "Q(x, y, z) :- E(x,y), E(y,z)",
            "Q() :- E(a0,a1), E(a1,a2), E(a2,a3), E(a3,a4), E(a4,a5), E(a5,a6), E(a6,a7), E(a7,a8)",
            "Q() :- E(c,a1), E(c,a2), E(c,a3), E(c,a4), E(c,a5)",
            "Q() :- E(a0,a1), E(a1,a2), E(a2,a3), E(a3,a4), E(a4,a5), E(a5,a6), E(a6,a7), E(a7,a8), E(a8,a9), E(a9,a10)",
            "Q(x) :- E(x,y), E(y,z), E(z,w)",
        ] {
            let plan = TreePlan::join_tree(&parse_cq(rule).unwrap()).unwrap();
            assert_eq!(multiway(plan.ir()), 0, "{rule}");
        }
        // An edge with a free pendant at either end, every variable in
        // the head: both pendants hang off the edge.
        let star = parse_cq("Q(a, b, x, y) :- E(a,b), E(a,x), E(b,y)").unwrap();
        let plan = TreePlan::join_tree(&star).unwrap();
        assert_eq!((multiway(plan.ir()), joins_in(plan.ir())), (1, 0));
        // The star decomposition of C6 around a centre covering no
        // atom, rooted there: three children, one op.
        let c6 = parse_cq("Q(a, d) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)").unwrap();
        let td = cqapx_graphs::treewidth::TreeDecomposition::from_bags(
            6,
            [[0, 1, 5], [1, 2, 3], [1, 3, 5], [3, 4, 5]],
            vec![(0, 2), (1, 2), (2, 3)],
        );
        let centred = TreePlan::rooted(&c6, td, 2);
        assert_eq!((multiway(centred.ir()), joins_in(centred.ir())), (1, 0));
        assert!(matches!(
            centred.ir().ops.last(),
            Some(Op::MultiJoin { inputs, .. }) if inputs.len() == 4
        ));
        let d = Structure::digraph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 1)]);
        for (q, got) in [
            (&star, plan.ir().answers(&d, None).0),
            (&c6, centred.ir().answers(&d, None).0),
        ] {
            assert_eq!(got, crate::eval::naive::eval_naive(q, &d), "{q}");
        }
    }

    /// Graphs to decide Boolean cycles on: a regular digraph full of
    /// directed cycles, and a DAG (`u < v`) with none.
    fn cyclic_and_acyclic() -> [Structure; 2] {
        let edges: Vec<(u32, u32)> = (0..60u32)
            .flat_map(|u| [(u, (u * 7 + 3) % 60), (u, (u + 1) % 60), ((u * 5) % 60, u)])
            .filter(|&(a, b)| a != b)
            .collect();
        let dag: Vec<(u32, u32)> = edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        [Structure::digraph(60, &edges), Structure::digraph(60, &dag)]
    }

    /// The Boolean `C₄` plan decides its two bags' edge with one
    /// existence call: no semijoin into the root, a `MultiJoin` of the
    /// root and its child keeping nothing, asserted nonempty — with the
    /// naive answer on data with and without a witness.
    #[test]
    fn boolean_c4_root_is_one_existence_call() {
        use crate::eval::naive::eval_boolean_naive;
        use crate::eval::TreePlan;
        let c4 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap();
        let plan = TreePlan::within_width(&c4, 2).unwrap();
        let ir = plan.ir();
        assert!(ir.reduction_decides());
        let [.., Op::MultiJoin { dst, inputs, vars }, Op::AssertNonempty { slot }] = &ir.ops[..]
        else {
            panic!("{:?}", ir.ops)
        };
        assert!(vars.is_empty() && slot == dst && inputs.len() == 2);
        assert_eq!((semijoins_in(ir), ir.bool_len), (0, ir.ops.len()));
        for (d, witness) in cyclic_and_acyclic().iter().zip([true, false]) {
            assert_eq!(eval_boolean_naive(&c4, d), witness);
            assert_eq!(plan.ir().run_boolean(d, None, None).0, witness);
        }
    }

    /// Boolean paths and stars have one-column edges only: they compile
    /// op for op as before — one semijoin per edge and one assertion per
    /// node after the scans, no existence call, no extra slot.
    #[test]
    fn boolean_paths_and_stars_keep_their_semijoins() {
        use crate::eval::TreePlan;
        for rule in [
            "Q() :- E(a0,a1), E(a1,a2), E(a2,a3), E(a3,a4), E(a4,a5), E(a5,a6), E(a6,a7), E(a7,a8)",
            "Q() :- E(c,a1), E(c,a2), E(c,a3), E(c,a4), E(c,a5)",
            "Q() :- E(x,y), E(y,z), E(z,w)",
        ] {
            let q = parse_cq(rule).unwrap();
            let plan = TreePlan::join_tree(&q).unwrap();
            let (ir, n) = (plan.ir(), q.atoms().len());
            let sweep = &ir.ops[n..];
            assert!(ir.ops[..n]
                .iter()
                .all(|op| matches!(op, Op::Materialize { .. })));
            let edge =
                |op: &&Op| matches!(op, Op::Semijoin { target_pos, .. } if target_pos.len() == 1);
            let check = |op: &&Op| matches!(op, Op::AssertNonempty { slot } if *slot < n);
            assert_eq!(sweep.iter().filter(edge).count(), n - 1, "{rule}");
            assert_eq!(sweep.iter().filter(check).count(), n, "{rule}");
            assert_eq!((sweep.len(), ir.slots), (2 * n - 1, n), "{rule}");
        }
    }

    /// A Boolean forest of two `C₄`-shaped trees fuses one edge per
    /// root: in the first the root has two children over two-column
    /// keys, and only the later one in `order` is fused — the other
    /// stays a semijoin.
    #[test]
    fn boolean_forest_fuses_one_edge_per_root() {
        use crate::eval::naive::eval_boolean_naive;
        let q = parse_cq(
            "Q() :- E(a,b), E(d,a), E(b,c), E(c,d), E(a,e), E(e,b), \
             E(f,g), E(i,f), E(g,h), E(h,i)",
        )
        .unwrap();
        // Two atoms a node: `E(a,b), E(d,a)`, then `E(b,c), E(c,d)`, …
        let atoms = atoms_of(&q);
        let nodes: Vec<NodeSpec> = (atoms.chunks(2))
            .map(|atoms| NodeSpec { atoms, label: None })
            .collect();
        let parent = [None, Some(0), Some(0), None, Some(3)];
        let ir = compile_tree(&nodes, &parent, &[1, 2, 0, 4, 3], &[]);
        let fused: Vec<&[u32]> = (ir.ops.iter())
            .filter_map(|op| match *op {
                Op::MultiJoin { inputs, vars, .. } if vars.is_empty() => Some(ir.words(inputs)),
                _ => None,
            })
            .collect();
        assert_eq!(fused, [[0, 2], [3, 4]]);
        let semijoins: Vec<(Slot, Slot)> = (ir.ops.iter())
            .filter_map(|op| match op {
                Op::Semijoin { target, source, .. } => Some((*target, *source)),
                _ => None,
            })
            .collect();
        assert_eq!(semijoins, [(0, 1)]);
        for d in cyclic_and_acyclic() {
            assert_eq!(ir.run_boolean(&d, None, None).0, eval_boolean_naive(&q, &d));
        }
    }

    #[test]
    fn join_and_semijoin_ops() {
        let q = parse_cq("Q() :- E(x, y), E(y, z)").unwrap();
        let atoms = atoms_of(&q);
        let mut ir = PlanIr::with_room(&[], &[], &[]);
        let (words, parts, binders) = (&mut ir.words, &mut ir.parts, &mut ir.binders);
        let e = write_source(&atoms[..1], words, parts, binders);
        let e2 = write_source(&atoms[1..], words, parts, binders);
        let [target_pos, source_pos] = [[1], [0]].map(|pos| push(words, pos));
        let (inputs, vars) = (push(words, [0, 1]), push(words, [0, 1, 2]));
        ir.ops = vec![
            Op::Materialize { dst: 0, source: e },
            Op::Materialize { dst: 1, source: e2 },
            // Keep only edges with an outgoing continuation …
            Op::Semijoin {
                target: 0,
                source: 1,
                target_pos,
                source_pos,
            },
            // … then build the 2-hop join.
            Op::MultiJoin {
                dst: 2,
                inputs,
                vars,
            },
        ];
        (ir.slots, ir.bool_len, ir.reduction_decides, ir.output) = (3, 4, true, 2);
        let d = Structure::digraph(4, &[(0, 1), (1, 2), (3, 3)]);
        let (out, _) = ir.run(&d, None, None);
        let out = out.unwrap();
        assert_eq!(out.schema(), &[0, 1, 2]);
        // Paths: 0→1→2 and 3→3→3.
        assert_eq!(out.len(), 2);
    }
}
