//! The workspace-wide homomorphism solver: compiled sources, indexed
//! targets, a GAC propagation queue, and shared step budgets.
//!
//! Finding a homomorphism `D₁ → D₂` is exactly solving a CSP (Kolaitis &
//! Vardi): variables are the elements of `D₁`, candidate domains are sets
//! of elements of `D₂`, and every tuple of `D₁` is a table constraint
//! whose allowed assignments are the tuples of the corresponding target
//! relation. [`HomSolver`] is that CSP with the *source-side* work —
//! constraint extraction, incidence lists, repeated-variable patterns —
//! done once by [`HomSolver::compile`], so that many targets and variants
//! (pins, exclusions, injectivity) can be solved against one compiled
//! source without re-setup. The *target-side* work, the inverted indexes
//! driving support scans, comes from [`Structure::index`] and is likewise
//! built once per structure and shared by every search against it.
//!
//! # The GAC loop
//!
//! The solver maintains **generalized arc consistency** with an AC-3
//! style worklist over table constraints. Each variable holds a bitset
//! domain of candidate target elements. Revising a constraint scans its
//! supported target tuples — seeded from the shortest inverted list of an
//! already-assigned position, or the full relation when none is assigned
//! — and intersects every unassigned variable's domain with the values
//! that appear in some supporting tuple. Variables whose domains shrink
//! re-enqueue their incident constraints; a domain wipe-out fails the
//! current branch. Search interleaves this propagation with
//! minimum-remaining-values branching (domain size, then degree), undoing
//! domain shrinks through a trail on backtrack.
//!
//! # Allocation
//!
//! A compiled source keeps its lists as spans of one `u32` buffer: the
//! constraints, every constraint's tuple and its repetition pattern, and
//! the incidence lists of the source variables as compressed sparse rows
//! (offsets, then the lists). So [`HomSolver::compile`] calls the
//! allocator once, whatever the number of atoms, and a target's
//! [`StructureIndex`] is laid out the same way, every relation's lists in
//! one buffer. A search keeps its state — domains and support sets as
//! bitsets, the trail, the assignment with the queue flags, the queue,
//! the level marks — in flat buffers from a thread-local pool, each
//! sized to its bound when a run takes it, and reads a variable's values
//! off its domain, restored after each value. So a run on a fresh thread
//! calls the allocator once per buffer, and a warm run — on sources and
//! targets no larger than earlier runs on its thread — only for the
//! witness [`HomRun::find`] returns, and once for the witness
//! [`HomRun::for_each`] refills per solution; [`HomRun::exists`] and
//! [`HomRun::count`] assemble none.
//!
//! # Budget semantics
//!
//! A [`SearchBudget`] is a shared, thread-safe **step counter**: every
//! branching decision (search node) costs one step, and a search whose
//! budget runs dry stops and reports
//! [`HomSearchStats::budget_exhausted`](crate::hom::HomSearchStats).
//! Because the counter is shared (cheaply cloneable, atomically
//! decremented), one budget can bound the *total* hom work of a composite
//! computation — an engine request fanning out into several searches, a
//! decision procedure — giving every layer the same cooperative
//! cancellation mechanism.

use crate::hom::{HomSearchStats, Homomorphism};
use crate::index::{fill, holds, put, size, StructureIndex};
use crate::structure::{Element, Structure};
use crate::vocabulary::{RelId, Vocabulary};
use std::cell::RefCell;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared step counter bounding homomorphism-search work.
///
/// Cloning shares the counter; see the [module docs](self) for the exact
/// semantics. One step = one branching decision.
#[derive(Debug, Clone)]
pub struct SearchBudget {
    steps: Arc<AtomicU64>,
}

impl SearchBudget {
    /// A budget of `steps` search nodes, to be shared by any number of
    /// searches.
    pub fn new(steps: u64) -> Self {
        SearchBudget {
            steps: Arc::new(AtomicU64::new(steps)),
        }
    }

    /// The steps left.
    pub fn remaining(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Spends `n` steps. Returns `false` — without charging — when the
    /// budget was already exhausted; a final partial charge saturates to
    /// zero. The join kernel charges its cursor moves here too.
    pub fn charge(&self, n: u64) -> bool {
        self.steps
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (cur > 0).then(|| cur.saturating_sub(n))
            })
            .is_ok()
    }
}

/// A source structure compiled for homomorphism search: reusable across
/// any number of targets and variants.
///
/// # Examples
///
/// ```
/// use cqapx_structures::{HomSolver, Structure};
///
/// let c6 = Structure::digraph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
/// let solver = HomSolver::compile(&c6);
/// let c3 = Structure::digraph(3, &[(0, 1), (1, 2), (2, 0)]);
/// let c4 = Structure::digraph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert!(solver.run(&c3).exists()); // wrap twice
/// assert!(!solver.run(&c4).exists()); // 4 ∤ 6
/// ```
#[derive(Clone)]
pub struct HomSolver {
    vocab: Vocabulary,
    n_source: usize,
    /// The source's tuples (the constraints) and their positions.
    m: usize,
    positions: usize,
    /// One buffer: per constraint its relation and its tuple's span, three
    /// words; the tuples, back to back (the `p`-th variable of a tuple
    /// must map to the target tuple's `p`-th value); parallel to them,
    /// per position the first position of its tuple holding the same
    /// variable; then the incidence offsets, one per source variable and
    /// one more, and between offsets `v` and `v + 1` the constraints
    /// incident to variable `v`, ascending.
    words: Vec<u32>,
}

impl HomSolver {
    /// Compiles the source side of the CSP: constraints, incidence lists,
    /// repeated-variable patterns. Every list is a span of one buffer, so
    /// a compile calls the allocator once, whatever the number of atoms.
    pub fn compile(source: &Structure) -> HomSolver {
        let vocab = source.vocabulary().clone();
        let (n_source, m) = (source.universe_size(), source.total_tuples());
        let positions = (vocab.rel_ids())
            .map(|rel| source.flat_tuples(rel).len())
            .sum();
        // A variable is incident once per tuple it occurs in, so the
        // lists take at most a word per position; the rest is cut off.
        let lists = 3 * m + 2 * positions + n_source + 1;
        let mut words = vec![0u32; lists + positions];
        let (constraints, rest) = words.split_at_mut(3 * m);
        let (vars, rest) = rest.split_at_mut(positions);
        let (first, rest) = rest.split_at_mut(positions);
        let (incident_at, incident) = rest.split_at_mut(n_source + 1);
        let rows = vocab
            .rel_ids()
            .flat_map(|rel| source.tuples(rel).map(move |t| (rel, t)));
        let mut at = 0;
        for ((rel, t), c) in rows.zip(constraints.chunks_exact_mut(3)) {
            for (p, &v) in t.iter().enumerate() {
                let f = t.iter().position(|&u| u == v).expect("`v` is at `p`");
                incident_at[v as usize + 1] += u32::from(f == p);
                first[at + p] = f as u32;
            }
            vars[at..at + t.len()].copy_from_slice(t);
            c.copy_from_slice(&[rel.0, at as u32, (at + t.len()) as u32]);
            at += t.len();
        }
        // Prefix sums make each variable's count its start, which serves
        // as its cursor while the constraints are placed; each cursor ends
        // at the next variable's start, so a shift restores the starts.
        for v in 1..incident_at.len() {
            incident_at[v] += incident_at[v - 1];
        }
        for (ci, c) in constraints.chunks_exact(3).enumerate() {
            for p in c[1]..c[2] {
                if first[p as usize] == p - c[1] {
                    let cursor = &mut incident_at[vars[p as usize] as usize];
                    incident[*cursor as usize] = ci as u32;
                    *cursor += 1;
                }
            }
        }
        let used = incident_at[n_source] as usize;
        incident_at.copy_within(..n_source, 1);
        incident_at[0] = 0;
        words.truncate(lists + used);
        HomSolver {
            vocab,
            n_source,
            m,
            positions,
            words,
        }
    }

    /// Constraint `ci`: its relation, its source tuple and the tuple's
    /// repetition pattern.
    #[inline]
    fn constraint(&self, ci: usize) -> (RelId, &[Element], &[u32]) {
        let (c, vars) = (&self.words[3 * ci..], &self.words[3 * self.m..]);
        let span = c[1] as usize..c[2] as usize;
        (
            RelId(c[0]),
            &vars[span.clone()],
            &vars[self.positions..][span],
        )
    }

    /// The incidence offsets, then the lists they delimit.
    #[inline]
    fn incidence(&self) -> (&[u32], &[u32]) {
        self.words[3 * self.m + 2 * self.positions..].split_at(self.n_source + 1)
    }

    /// The constraints incident to source variable `v`.
    #[inline]
    fn incident(&self, v: Element) -> &[u32] {
        let (at, lists) = self.incidence();
        &lists[at[v as usize] as usize..at[v as usize + 1] as usize]
    }

    /// `true` when every source element occurs in some tuple: the source's
    /// universe is its active domain.
    pub(crate) fn constrains_every_element(&self) -> bool {
        self.incidence().0.windows(2).all(|w| w[0] < w[1])
    }

    /// Starts a search against a target; configure the returned run with
    /// pins / exclusions / injectivity / a budget, then execute it.
    ///
    /// # Panics
    ///
    /// Panics when the target's vocabulary differs from the source's.
    pub fn run<'s, 't>(&'s self, target: &'t Structure) -> HomRun<'s, 't> {
        assert_eq!(
            &self.vocab,
            target.vocabulary(),
            "homomorphisms need a common vocabulary"
        );
        let mut sc = SCRATCH_POOL
            .with(|p| p.borrow_mut().pop())
            .unwrap_or_default();
        sc.fit(self, target.universe_size());
        HomRun {
            solver: self,
            target,
            sc,
            within: None,
            injective: false,
            budget: None,
        }
    }
}

impl std::fmt::Debug for HomSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HomSolver")
            .field("source_size", &self.n_source)
            .field("constraints", &self.m)
            .finish()
    }
}

/// One configured search of a compiled source against a target. Its pins
/// and exclusions are staged in a search scratch taken from the thread's
/// pool, which the search hands back: a warm run allocates nothing.
pub struct HomRun<'s, 't> {
    solver: &'s HomSolver,
    target: &'t Structure,
    sc: Scratch,
    /// The target elements the image may use, when not all of them.
    within: Option<&'t [u64]>,
    injective: bool,
    budget: Option<SearchBudget>,
}

impl<'s, 't> HomRun<'s, 't> {
    /// Forces `h(src) = tgt`.
    pub fn pin(mut self, src: Element, tgt: Element) -> Self {
        self.sc.pins.push((src, tgt));
        self
    }

    /// Forces `h(src[i]) = tgt[i]` for every position.
    pub fn pin_tuple(mut self, src: &[Element], tgt: &[Element]) -> Self {
        assert_eq!(src.len(), tgt.len(), "pinned tuples must align");
        (self.sc.pins).extend(src.iter().copied().zip(tgt.iter().copied()));
        self
    }

    /// Forbids a target element from appearing in the image.
    pub fn exclude_target(mut self, t: Element) -> Self {
        self.sc.excluded.push(t);
        self
    }

    /// Confines the image to the target elements in `allowed`: a search
    /// into the substructure the target induces on them, over the
    /// target's own index.
    pub(crate) fn within(mut self, allowed: &'t [u64]) -> Self {
        self.within = Some(allowed);
        self
    }

    /// Requires the homomorphism to be injective on elements.
    pub fn injective(mut self) -> Self {
        self.injective = true;
        self
    }

    /// Shares an existing step budget with this search (see
    /// [`SearchBudget`]).
    pub fn budget(mut self, budget: &SearchBudget) -> Self {
        self.budget = Some(budget.clone());
        self
    }

    /// Finds one homomorphism, if any: the one witness the search
    /// assembles, moved out.
    pub fn find(self) -> Option<Homomorphism> {
        let mut map = Vec::new();
        self.find_into(&mut map).then_some(Homomorphism { map })
    }

    /// [`Self::find`] into `map`, which keeps its allocation: `true` when
    /// a homomorphism was found and written there; `map` is left as it
    /// was otherwise.
    pub(crate) fn find_into(self, map: &mut Vec<Element>) -> bool {
        let mut found = false;
        self.solve(|a| {
            map.clear();
            map.extend_from_slice(a);
            found = true;
            ControlFlow::Break(())
        });
        found
    }

    /// `true` when a homomorphism exists; stops at the first one without
    /// assembling it.
    pub fn exists(self) -> bool {
        let mut found = false;
        self.solve(|_| {
            found = true;
            ControlFlow::Break(())
        });
        found
    }

    /// Enumerates homomorphisms until the callback breaks; returns the
    /// search statistics. Every solution is written into one reused
    /// witness.
    pub fn for_each<F: FnMut(&Homomorphism) -> ControlFlow<()>>(self, mut f: F) -> HomSearchStats {
        let mut h = Homomorphism { map: Vec::new() };
        self.solve(|a| {
            h.map.clear();
            h.map.extend_from_slice(a);
            f(&h)
        })
    }

    /// Counts all homomorphisms.
    pub fn count(self) -> u64 {
        let mut n = 0u64;
        self.solve(|_| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    }

    /// Runs the search, handing each complete assignment to `leaf`.
    fn solve<F: FnMut(&[Element]) -> ControlFlow<()>>(self, mut leaf: F) -> HomSearchStats {
        let mut sc = self.sc;
        let mut stats = HomSearchStats::default();
        {
            let mut search = Search {
                solver: self.solver,
                target: self.target,
                idx: self.target.index(),
                w: self.target.universe_size().div_ceil(64),
                injective: self.injective,
                budget: self.budget.as_ref(),
                sc: &mut sc,
                revisions: 0,
            };
            if search.setup(self.within) {
                // Root-level arc consistency (its trail level is never
                // undone).
                search.new_level();
                if search.propagate(0..search.solver.m as u32) {
                    let _ = search.search(&mut leaf, &mut stats);
                }
            }
            stats.revisions = search.revisions;
        }
        put_scratch(sc);
        stats
    }
}

/// The value of an unassigned variable.
const NONE: u32 = u32::MAX;

/// Reusable search buffers, pooled per thread (pooling rather than a
/// single slot keeps re-entrant solves — a `for_each` callback starting
/// another search — safe). Bitsets over the target take `w` words each.
#[derive(Default)]
struct Scratch {
    /// Per source variable its domain, then one support set per
    /// position of the widest constraint.
    sets: Vec<u64>,
    /// Saved domains, last saved last: per entry the domain's words
    /// before it shrank, then its variable.
    trail: Vec<u64>,
    /// Trail length at each decision level.
    marks: Vec<usize>,
    /// Per source variable its value or [`NONE`]; per constraint 1 while
    /// it is queued; then room for one tuple, or for the positions of a
    /// constraint's support sets.
    ints: Vec<u32>,
    /// The queued constraints.
    queue: Vec<u32>,
    /// The run's pins and excluded target elements.
    pins: Vec<(Element, Element)>,
    excluded: Vec<Element>,
}

impl Scratch {
    /// Sizes the buffers for a run of `solver` against a target of `n_t`
    /// elements, each to its bound — the trail to one saved domain per
    /// variable and per constraint, which it outgrows only in a search
    /// that shrinks more domains than that along one path — so a scratch
    /// fresh from the pool calls the allocator once per buffer.
    fn fit(&mut self, solver: &HomSolver, n_t: usize) {
        let (n_s, m, w) = (solver.n_source, solver.m, n_t.div_ceil(64));
        let arity = solver.vocab.max_arity();
        self.sets.clear();
        self.sets.resize((n_s + arity) * w, 0);
        self.ints.clear();
        self.ints.resize(n_s + m + arity, 0);
        self.ints[..n_s].fill(NONE);
        self.trail.clear();
        self.trail.reserve((w + 1) * (n_s + m));
        self.marks.clear();
        self.marks.reserve(n_s + 1);
        self.queue.clear();
        self.queue.reserve(m);
        self.pins.clear();
        self.excluded.clear();
    }
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

fn put_scratch(sc: Scratch) {
    SCRATCH_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < 8 {
            pool.push(sc);
        }
    });
}

/// Queues constraint `ci` unless `queued`, its flag among every
/// constraint's, says it is queued already.
#[inline]
fn enqueue(queued: &mut [u32], queue: &mut Vec<u32>, ci: u32) {
    if queued[ci as usize] == 0 {
        queued[ci as usize] = 1;
        queue.push(ci);
    }
}

/// The least element of the bitset `set` that is at least `from`.
fn next_from(set: &[u64], from: Element) -> Option<Element> {
    let at = (from / 64) as usize;
    let mut word = *set.get(at)? & (!0u64 << (from % 64));
    for i in at.. {
        if word != 0 {
            return Some(i as Element * 64 + word.trailing_zeros());
        }
        word = *set.get(i + 1)?;
    }
    None
}

struct Search<'a> {
    solver: &'a HomSolver,
    target: &'a Structure,
    idx: &'a StructureIndex,
    /// Words per bitset over the target.
    w: usize,
    injective: bool,
    budget: Option<&'a SearchBudget>,
    sc: &'a mut Scratch,
    /// AC-3 revisions performed, folded into
    /// [`HomSearchStats::revisions`] when the search returns.
    revisions: u64,
}

impl Search<'_> {
    /// The words of variable `v`'s domain.
    #[inline]
    fn domain(&self, v: usize) -> &[u64] {
        &self.sc.sets[v * self.w..(v + 1) * self.w]
    }

    /// Initializes domains from the index's occurrence sets, pins,
    /// exclusions and the allowed image. Returns `false` on an immediate
    /// wipe-out.
    fn setup(&mut self, within: Option<&[u64]>) -> bool {
        let (n_s, n_t, w) = (self.solver.n_source, self.target.universe_size(), self.w);
        if n_t == 0 && n_s > 0 {
            return false;
        }
        let sc = &mut *self.sc;
        let domains = &mut sc.sets[..n_s * w];
        (0..n_s).for_each(|v| fill(&mut domains[v * w..(v + 1) * w], n_t));
        let mut intersect = |v: usize, other: &[u64]| {
            // `other` may cover fewer words; anything beyond it is gone.
            let words = other.iter().chain(std::iter::repeat(&0));
            (domains[v * w..(v + 1) * w].iter_mut())
                .zip(words)
                .for_each(|(d, o)| *d &= o);
        };
        // Unary pruning: a constrained variable can only take values that
        // occur at the right (relation, position).
        for ci in 0..self.solver.m {
            let (rel, vars, _) = self.solver.constraint(ci);
            for (p, &v) in vars.iter().enumerate() {
                intersect(v as usize, self.idx.occurs(rel, p));
            }
        }
        if let Some(allowed) = within {
            (0..n_s).for_each(|v| intersect(v, allowed));
        }
        for &e in &sc.excluded {
            for v in (0..n_s).filter(|_| e < n_t as Element) {
                put(&mut domains[v * w..(v + 1) * w], e, false);
            }
        }
        for &(s, t) in &sc.pins {
            assert!((s as usize) < n_s, "pinned source element out of range");
            assert!((t as usize) < n_t, "pinned target element out of range");
            let d = &mut domains[s as usize * w..(s as usize + 1) * w];
            let keep = holds(d, t);
            d.fill(0);
            put(d, t, keep);
        }
        if self.injective && n_s > n_t {
            return false;
        }
        !(0..n_s).any(|v| size(&domains[v * w..(v + 1) * w]) == 0)
    }

    fn new_level(&mut self) {
        self.sc.marks.push(self.sc.trail.len());
    }

    fn undo_level(&mut self) {
        let mark = self.sc.marks.pop().expect("matching trail level");
        let (sc, w) = (&mut *self.sc, self.w);
        while sc.trail.len() > mark {
            let end = sc.trail.len() - 1;
            let u = sc.trail[end] as usize;
            sc.sets[u * w..(u + 1) * w].copy_from_slice(&sc.trail[end - w..end]);
            sc.trail.truncate(end - w);
        }
    }

    /// AC-3 propagation seeded from the constraints `seeds` — every one
    /// at the root, after that those incident to the variable just
    /// assigned (MAC) — cascading through domain shrinks, until a
    /// fixpoint or a wipe-out.
    fn propagate(&mut self, seeds: impl Iterator<Item = u32>) -> bool {
        let n_s = self.solver.n_source;
        let sc = &mut *self.sc;
        seeds.for_each(|ci| enqueue(&mut sc.ints[n_s..], &mut sc.queue, ci));
        while let Some(ci) = self.sc.queue.pop() {
            self.sc.ints[n_s + ci as usize] = 0;
            if !self.revise(ci as usize) {
                let sc = &mut *self.sc;
                for c in sc.queue.drain(..) {
                    sc.ints[n_s + c as usize] = 0;
                }
                return false;
            }
        }
        true
    }

    /// Generalized arc consistency on one table constraint under the
    /// current partial assignment: intersects each unassigned variable's
    /// domain with its supported values, and queues the other
    /// constraints incident to each variable it shrinks. Returns `false`
    /// on a wipe-out.
    fn revise(&mut self, ci: usize) -> bool {
        self.revisions += 1;
        let ((rel, vars, first), idx) = (self.solver.constraint(ci), self.idx);
        let (n_s, m, w) = (self.solver.n_source, self.solver.m, self.w);
        let sc = &mut *self.sc;
        let (assigned, rest) = sc.ints.split_at_mut(n_s);
        let (queued, spare) = rest.split_at_mut(m);

        // Fully assigned: a membership test.
        if vars.iter().all(|&v| assigned[v as usize] != NONE) {
            let tuple = &mut spare[..vars.len()];
            for (x, &v) in tuple.iter_mut().zip(vars) {
                *x = assigned[v as usize];
            }
            return self.target.contains(rel, tuple);
        }

        // Seed the support scan from the shortest inverted list of an
        // assigned position; fall back to the full relation.
        let mut best: Option<&[u32]> = None;
        for (p, &v) in vars.iter().enumerate() {
            if assigned[v as usize] != NONE {
                let list = idx.matches(rel, p, assigned[v as usize]);
                if best.is_none_or(|b| list.len() < b.len()) {
                    best = Some(list);
                }
            }
        }

        // One support set per distinct unassigned variable, at its
        // first position.
        let mut k = 0;
        for (p, &v) in vars.iter().enumerate() {
            if first[p] as usize == p && assigned[v as usize] == NONE {
                spare[k] = p as u32;
                k += 1;
            }
        }
        let positions = &spare[..k];
        let (domains, supports) = sc.sets.split_at_mut(n_s * w);
        let supports = &mut supports[..k * w];
        supports.fill(0);
        let mut consider = |t: &[Element]| {
            for (p, &v) in vars.iter().enumerate() {
                let fits = match assigned[v as usize] {
                    NONE => holds(&domains[v as usize * w..], t[p]),
                    val => t[p] == val,
                };
                if !fits || t[p] != t[first[p] as usize] {
                    return;
                }
            }
            for (j, &p) in positions.iter().enumerate() {
                let x = t[p as usize];
                put(&mut supports[j * w..], x, true);
            }
        };
        match best {
            Some(list) => {
                for &ti in list {
                    consider(self.target.tuple(rel, ti as usize));
                }
            }
            None => {
                for t in self.target.tuples(rel) {
                    consider(t);
                }
            }
        }

        // Apply the supports as new domains, the last position's first
        // (they are subsets of the old domains by construction).
        for j in (0..k).rev() {
            let u = vars[positions[j] as usize] as usize;
            let (du, sup) = (
                &mut domains[u * w..(u + 1) * w],
                &supports[j * w..(j + 1) * w],
            );
            let left = size(sup);
            if left < size(du) {
                sc.trail.extend_from_slice(du);
                sc.trail.push(u as u64);
                du.copy_from_slice(sup);
                for &cj in self.solver.incident(u as Element) {
                    if cj as usize != ci {
                        enqueue(queued, &mut sc.queue, cj);
                    }
                }
                if left == 0 {
                    return false;
                }
            }
        }
        true
    }

    /// Minimum-remaining-values with degree tiebreak.
    fn select_var(&self) -> Option<Element> {
        let mut best: Option<(usize, usize, Element)> = None;
        for v in 0..self.solver.n_source {
            if self.sc.ints[v] == NONE {
                let dom = size(self.domain(v));
                let deg = self.solver.incident(v as Element).len();
                let key = (dom, usize::MAX - deg, v as Element);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, v)| v)
    }

    /// Branches on the variable [`Self::select_var`] picks, trying its
    /// values in ascending order. Each value's level is undone before
    /// the next, so the domain read for the next value is the one the
    /// branching started from.
    fn search<F: FnMut(&[Element]) -> ControlFlow<()>>(
        &mut self,
        f: &mut F,
        stats: &mut HomSearchStats,
    ) -> ControlFlow<()> {
        let n_s = self.solver.n_source;
        let Some(var) = self.select_var() else {
            return f(&self.sc.ints[..n_s]);
        };
        let mut flow = ControlFlow::Continue(());
        let mut next = next_from(self.domain(var as usize), 0);
        while let Some(val) = next {
            if let Some(b) = self.budget {
                if !b.charge(1) {
                    stats.budget_exhausted = true;
                    flow = ControlFlow::Break(());
                    break;
                }
            }
            stats.nodes += 1;
            self.new_level();
            self.sc.ints[var as usize] = val;
            let mut ok = true;
            if self.injective {
                // Forward-check injectivity: val leaves every other domain.
                for u in (0..n_s).filter(|&u| u != var as usize) {
                    if self.sc.ints[u] == NONE && holds(self.domain(u), val) {
                        let (sc, w) = (&mut *self.sc, self.w);
                        sc.trail.extend_from_slice(&sc.sets[u * w..(u + 1) * w]);
                        sc.trail.push(u as u64);
                        let d = &mut sc.sets[u * w..(u + 1) * w];
                        put(d, val, false);
                        if size(d) == 0 {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok {
                let solver = self.solver;
                ok = self.propagate(solver.incident(var).iter().copied());
            }
            let res = if ok {
                self.search(f, stats)
            } else {
                stats.backtracks += 1;
                ControlFlow::Continue(())
            };
            self.sc.ints[var as usize] = NONE;
            self.undo_level();
            if res.is_break() {
                flow = ControlFlow::Break(());
                break;
            }
            next = next_from(self.domain(var as usize), val + 1);
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Structure {
        let edges: Vec<(Element, Element)> = (0..n)
            .map(|i| (i as Element, ((i + 1) % n) as Element))
            .collect();
        Structure::digraph(n, &edges)
    }

    #[test]
    fn compiled_source_reused_across_targets() {
        let solver = HomSolver::compile(&cycle(6));
        assert!(solver.run(&cycle(3)).exists());
        assert!(solver.run(&cycle(2)).exists());
        assert!(!solver.run(&cycle(4)).exists());
        assert!(!solver.run(&cycle(5)).exists());
        // Reuse with variants against the same target.
        let c3 = cycle(3);
        assert_eq!(solver.run(&c3).count(), 3);
        assert!(solver.run(&c3).pin(0, 1).exists());
        assert!(!solver.run(&c3).injective().exists()); // 6 > 3 elements
    }

    #[test]
    fn shared_budget_cancels_across_runs() {
        let budget = SearchBudget::new(5);
        let solver = HomSolver::compile(&cycle(12));
        let mut exhausted = 0;
        for _ in 0..3 {
            let stats = solver
                .run(&cycle(4))
                .budget(&budget)
                .for_each(|_| ControlFlow::Continue(()));
            if stats.budget_exhausted {
                exhausted += 1;
            }
        }
        assert_eq!(budget.steps.load(Ordering::Relaxed), 0);
        assert!(exhausted >= 1, "the shared budget ran dry");
        // An exhausted budget stops a fresh search immediately.
        let b2 = SearchBudget::new(0);
        let stats = solver
            .run(&cycle(4))
            .budget(&b2)
            .for_each(|_| ControlFlow::Continue(()));
        assert!(stats.budget_exhausted);
        assert_eq!(stats.nodes, 0);
    }

    #[test]
    fn budget_charge_saturates() {
        let b = SearchBudget::new(3);
        assert!(b.charge(2));
        assert!(b.charge(5)); // partial final charge allowed
        assert_eq!(b.steps.load(Ordering::Relaxed), 0);
        assert!(!b.charge(1));
        assert_eq!(b.steps.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn stats_count_ac3_revisions() {
        // Any constrained search does at least one root revision, and
        // branching (MAC) revises again below the root.
        let solver = HomSolver::compile(&cycle(4));
        let stats = solver
            .run(&cycle(8))
            .for_each(|_| ControlFlow::Continue(()));
        assert!(stats.nodes > 0);
        assert!(stats.revisions > stats.nodes, "MAC revises per branch");
    }

    #[test]
    fn reentrant_solves_are_safe() {
        // A callback that itself runs a search must not corrupt scratch.
        let solver = HomSolver::compile(&cycle(3));
        let c3 = cycle(3);
        let mut inner_ok = true;
        solver.run(&c3).for_each(|_| {
            inner_ok &= HomSolver::compile(&cycle(6)).run(&c3).exists();
            ControlFlow::Continue(())
        });
        assert!(inner_ok);
    }

    #[test]
    #[should_panic(expected = "common vocabulary")]
    fn vocabulary_mismatch_panics() {
        let v = Vocabulary::single(3);
        let s = Structure::empty(v, 1);
        let _ = HomSolver::compile(&cycle(3)).run(&s);
    }
}
