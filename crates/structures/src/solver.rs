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
//! A compiled source keeps its lists in flat buffers, compressed sparse
//! rows (one offsets array plus one flat array): every constraint's
//! tuple and its repetition pattern are spans of two buffers, and the
//! incidence lists of the source variables sit behind one offsets array. So [`HomSolver::compile`] calls the allocator
//! a fixed number of times, whatever the number of atoms, and a target's
//! [`StructureIndex`] is laid out the same way, every relation's lists in
//! one buffer. Search
//! buffers (domains, trail, queue, value stacks, spare bitsets, and the
//! run's pins and exclusions) live in a thread-local pool, and a run
//! hands its root level's saved domains back to it. So a warm run — on
//! sources and targets no larger than earlier runs on its thread — calls
//! the allocator only for the witness [`HomRun::find`] returns, and once
//! for the witness
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
use crate::index::{ElemSet, StructureIndex};
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

    /// Spends `n` steps. Returns `false` — without charging — when the
    /// budget was already exhausted; a final partial charge saturates to
    /// zero.
    pub(crate) fn charge(&self, n: u64) -> bool {
        self.steps
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (cur > 0).then(|| cur.saturating_sub(n))
            })
            .is_ok()
    }
}

/// One table constraint of the compiled source: a source tuple, as a span
/// of the solver's flat buffers.
#[derive(Clone, Copy)]
struct Constraint {
    /// Relation index (into `Vocabulary::rel_ids` order).
    rel: u32,
    /// The tuple is `HomSolver::vars[start..end]`, its repetition pattern
    /// `HomSolver::first[start..end]`.
    start: u32,
    end: u32,
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
    constraints: Vec<Constraint>,
    /// Every constraint's source tuple, back to back: `vars[p]` must map
    /// to the target tuple's `p`-th value.
    vars: Vec<Element>,
    /// Parallel to `vars`: per position of a tuple, the first position of
    /// that tuple holding the same variable (positions counted within the
    /// tuple), so the variable occurs first at `p` iff `first[p] == p`.
    first: Vec<u32>,
    /// `incident[incident_at[v]..incident_at[v + 1]]`: the constraints
    /// incident to source variable `v`, ascending.
    incident_at: Vec<u32>,
    incident: Vec<u32>,
}

impl HomSolver {
    /// Compiles the source side of the CSP: constraints, incidence lists,
    /// repeated-variable patterns. Every list lands in a flat buffer, so
    /// a compile calls the allocator a fixed number of times, whatever
    /// the number of atoms.
    pub fn compile(source: &Structure) -> HomSolver {
        let vocab = source.vocabulary().clone();
        let n_source = source.universe_size();
        let n_vars = vocab
            .rel_ids()
            .map(|rel| source.flat_tuples(rel).len())
            .sum();
        let mut constraints = Vec::with_capacity(source.total_tuples());
        let (mut vars, mut first) = (Vec::with_capacity(n_vars), Vec::with_capacity(n_vars));
        let mut incident_at = vec![0u32; n_source + 1];
        for rel in vocab.rel_ids() {
            for t in source.tuples(rel) {
                for (p, &v) in t.iter().enumerate() {
                    let f = t.iter().position(|&u| u == v).expect("`v` is at `p`");
                    incident_at[v as usize + 1] += u32::from(f == p);
                    first.push(f as u32);
                }
                let start = vars.len() as u32;
                vars.extend_from_slice(t);
                let end = vars.len() as u32;
                constraints.push(Constraint {
                    rel: rel.0,
                    start,
                    end,
                });
            }
        }
        // Prefix sums make each variable's count its start, which serves
        // as its cursor while the constraints are placed; each cursor ends
        // at the next variable's start, so a shift restores the starts.
        for v in 1..incident_at.len() {
            incident_at[v] += incident_at[v - 1];
        }
        let mut incident = vec![0u32; incident_at[n_source] as usize];
        for (ci, c) in constraints.iter().enumerate() {
            for p in c.start..c.end {
                if first[p as usize] == p - c.start {
                    let cursor = &mut incident_at[vars[p as usize] as usize];
                    incident[*cursor as usize] = ci as u32;
                    *cursor += 1;
                }
            }
        }
        incident_at.copy_within(..n_source, 1);
        incident_at[0] = 0;
        HomSolver {
            vocab,
            n_source,
            constraints,
            vars,
            first,
            incident_at,
            incident,
        }
    }

    /// A constraint's source tuple and its repetition pattern.
    #[inline]
    fn tuple(&self, c: Constraint) -> (&[Element], &[u32]) {
        let span = c.start as usize..c.end as usize;
        (&self.vars[span.clone()], &self.first[span])
    }

    /// The constraints incident to source variable `v`.
    #[inline]
    fn incident(&self, v: Element) -> &[u32] {
        let at = &self.incident_at[v as usize..v as usize + 2];
        &self.incident[at[0] as usize..at[1] as usize]
    }

    /// `true` when every source element occurs in some tuple: the source's
    /// universe is its active domain.
    pub(crate) fn constrains_every_element(&self) -> bool {
        self.incident_at.windows(2).all(|w| w[0] < w[1])
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
        let mut sc = take_scratch();
        sc.pins.clear();
        sc.excluded.clear();
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
            .field("constraints", &self.constraints.len())
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
    within: Option<&'t ElemSet>,
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
    pub(crate) fn within(mut self, allowed: &'t ElemSet) -> Self {
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
            map.extend(a.iter().map(|x| x.expect("complete assignment")));
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
            h.map
                .extend(a.iter().map(|x| x.expect("complete assignment")));
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
    fn solve<F: FnMut(&[Option<Element>]) -> ControlFlow<()>>(self, mut leaf: F) -> HomSearchStats {
        let mut sc = self.sc;
        let mut stats = HomSearchStats::default();
        {
            let mut search = Search {
                solver: self.solver,
                target: self.target,
                idx: self.target.index(),
                n_target: self.target.universe_size(),
                injective: self.injective,
                budget: self.budget.as_ref(),
                sc: &mut sc,
                revisions: 0,
            };
            if search.setup(self.within) {
                // Root-level arc consistency (its trail level is never
                // undone).
                search.new_level();
                if search.propagate_all() {
                    let _ = search.search(&mut leaf, &mut stats, 0);
                }
            }
            stats.revisions = search.revisions;
        }
        // The root level is never undone: its saved domains go back to
        // the pool, so the next run on this thread shrinks its root
        // domains without allocating.
        sc.pool.extend(sc.trail.drain(..).map(|(_, saved)| saved));
        put_scratch(sc);
        stats
    }
}

/// Reusable search buffers, pooled per thread (pooling rather than a
/// single slot keeps re-entrant solves — a `for_each` callback starting
/// another search — safe).
#[derive(Default)]
struct Scratch {
    domains: Vec<ElemSet>,
    assignment: Vec<Option<Element>>,
    /// Saved `(variable, previous domain)` pairs.
    trail: Vec<(u32, ElemSet)>,
    /// Trail length at each decision level.
    marks: Vec<usize>,
    queue: Vec<u32>,
    queued: Vec<bool>,
    shrunk: Vec<Element>,
    /// Per distinct unassigned variable of the constraint under revision:
    /// its first position and the values some supporting tuple gives it.
    support: Vec<(u32, ElemSet)>,
    tuple_buf: Vec<Element>,
    /// Per-depth candidate-value buffers.
    vals: Vec<Vec<Element>>,
    /// Spare bitsets.
    pool: Vec<ElemSet>,
    /// The run's pins and excluded target elements.
    pins: Vec<(Element, Element)>,
    excluded: Vec<Element>,
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

fn take_scratch() -> Scratch {
    SCRATCH_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default()
}

fn put_scratch(sc: Scratch) {
    SCRATCH_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < 8 {
            pool.push(sc);
        }
    });
}

struct Search<'a> {
    solver: &'a HomSolver,
    target: &'a Structure,
    idx: &'a StructureIndex,
    n_target: usize,
    injective: bool,
    budget: Option<&'a SearchBudget>,
    sc: &'a mut Scratch,
    /// AC-3 revisions performed, folded into
    /// [`HomSearchStats::revisions`] when the search returns.
    revisions: u64,
}

impl Search<'_> {
    /// Initializes domains from the index's occurrence sets, pins,
    /// exclusions and the allowed image. Returns `false` on an immediate
    /// wipe-out.
    fn setup(&mut self, within: Option<&ElemSet>) -> bool {
        let n_s = self.solver.n_source;
        let n_t = self.n_target;
        let sc = &mut *self.sc;
        sc.trail.clear();
        sc.marks.clear();
        sc.queue.clear();
        sc.queued.clear();
        sc.queued.resize(self.solver.constraints.len(), false);
        sc.shrunk.clear();
        if sc.domains.len() < n_s {
            sc.domains.resize_with(n_s, ElemSet::default);
        }
        for d in sc.domains[..n_s].iter_mut() {
            d.reset_full(n_t);
        }
        sc.assignment.clear();
        sc.assignment.resize(n_s, None);
        if sc.vals.len() < n_s + 1 {
            sc.vals.resize_with(n_s + 1, Vec::new);
        }
        if n_t == 0 && n_s > 0 {
            return false;
        }

        // Unary pruning: a constrained variable can only take values that
        // occur at the right (relation, position).
        for c in &self.solver.constraints {
            for (p, &v) in self.solver.tuple(*c).0.iter().enumerate() {
                sc.domains[v as usize].intersect_with(self.idx.occurs(RelId(c.rel), p));
            }
        }
        if let Some(allowed) = within {
            for d in sc.domains[..n_s].iter_mut() {
                d.intersect_with(allowed.words());
            }
        }
        for &e in &sc.excluded {
            for d in sc.domains[..n_s].iter_mut() {
                d.remove(e);
            }
        }
        for &(s, t) in &sc.pins {
            assert!((s as usize) < n_s, "pinned source element out of range");
            assert!((t as usize) < n_t, "pinned target element out of range");
            let keep = sc.domains[s as usize].contains(t);
            sc.domains[s as usize].reset_empty(n_t);
            if keep {
                sc.domains[s as usize].insert(t);
            }
        }
        if self.injective && n_s > n_t {
            return false;
        }
        !(n_s > 0 && sc.domains[..n_s].iter().any(|d| d.is_empty()))
    }

    fn new_level(&mut self) {
        self.sc.marks.push(self.sc.trail.len());
    }

    fn undo_level(&mut self) {
        let mark = self.sc.marks.pop().expect("matching trail level");
        while self.sc.trail.len() > mark {
            let (u, dom) = self.sc.trail.pop().expect("trail entry");
            let shrunk = std::mem::replace(&mut self.sc.domains[u as usize], dom);
            self.sc.pool.push(shrunk);
        }
    }

    /// Root-level propagation over every constraint.
    fn propagate_all(&mut self) -> bool {
        let sc = &mut *self.sc;
        sc.queue.clear();
        for ci in 0..self.solver.constraints.len() as u32 {
            sc.queue.push(ci);
            sc.queued[ci as usize] = true;
        }
        self.drain_queue()
    }

    /// Propagation seeded from the constraints incident to `var` (MAC).
    fn propagate_from(&mut self, var: Element) -> bool {
        let sc = &mut *self.sc;
        sc.queue.clear();
        for &ci in self.solver.incident(var) {
            if !sc.queued[ci as usize] {
                sc.queued[ci as usize] = true;
                sc.queue.push(ci);
            }
        }
        self.drain_queue()
    }

    /// AC-3 worklist: revise queued constraints, cascading through domain
    /// shrinks, until a fixpoint or a wipe-out.
    fn drain_queue(&mut self) -> bool {
        while let Some(ci) = self.sc.queue.pop() {
            self.sc.queued[ci as usize] = false;
            if !self.revise(ci as usize) {
                for &c in &self.sc.queue {
                    self.sc.queued[c as usize] = false;
                }
                self.sc.queue.clear();
                // A wiped-out revise may have recorded shrunk variables;
                // drop them so the next propagation doesn't re-enqueue
                // their constraints against restored domains.
                self.sc.shrunk.clear();
                return false;
            }
            let mut shrunk = std::mem::take(&mut self.sc.shrunk);
            for &v in &shrunk {
                for &cj in self.solver.incident(v) {
                    if cj != ci && !self.sc.queued[cj as usize] {
                        self.sc.queued[cj as usize] = true;
                        self.sc.queue.push(cj);
                    }
                }
            }
            shrunk.clear();
            self.sc.shrunk = shrunk;
        }
        true
    }

    /// Generalized arc consistency on one table constraint under the
    /// current partial assignment: intersects each unassigned variable's
    /// domain with its supported values. Shrunk variables are appended to
    /// `sc.shrunk`; returns `false` on a wipe-out.
    fn revise(&mut self, ci: usize) -> bool {
        self.revisions += 1;
        let c = self.solver.constraints[ci];
        let (vars, first) = self.solver.tuple(c);
        let (rel, idx) = (RelId(c.rel), self.idx);
        let sc = &mut *self.sc;

        // Fully assigned: a membership test.
        if vars.iter().all(|&v| sc.assignment[v as usize].is_some()) {
            sc.tuple_buf.clear();
            sc.tuple_buf
                .extend(vars.iter().map(|&v| sc.assignment[v as usize].unwrap()));
            return self.target.contains(rel, &sc.tuple_buf);
        }

        // Seed the support scan from the shortest inverted list of an
        // assigned position; fall back to the full relation.
        let mut best: Option<&[u32]> = None;
        for (p, &v) in vars.iter().enumerate() {
            if let Some(val) = sc.assignment[v as usize] {
                let list = idx.matches(rel, p, val);
                if best.is_none_or(|b| list.len() < b.len()) {
                    best = Some(list);
                }
            }
        }

        // One support set per distinct unassigned variable, kept with its
        // first position.
        debug_assert!(sc.support.is_empty());
        for (p, &v) in vars.iter().enumerate() {
            if first[p] as usize == p && sc.assignment[v as usize].is_none() {
                let mut s = sc.pool.pop().unwrap_or_default();
                s.reset_empty(self.n_target);
                sc.support.push((p as u32, s));
            }
        }

        {
            let (assignment, domains, support) = (&sc.assignment, &sc.domains, &mut sc.support);
            let mut consider = |t: &[Element]| {
                for (p, &v) in vars.iter().enumerate() {
                    let fits = match assignment[v as usize] {
                        Some(val) => t[p] == val,
                        None => domains[v as usize].contains(t[p]),
                    };
                    if !fits || t[p] != t[first[p] as usize] {
                        return;
                    }
                }
                for (p, sup) in support.iter_mut() {
                    sup.insert(t[*p as usize]);
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
        }

        // Apply the supports as new domains (they are subsets of the old
        // domains by construction).
        let mut wiped = false;
        while let Some((p, sup)) = sc.support.pop() {
            if wiped {
                sc.pool.push(sup);
                continue;
            }
            let u = vars[p as usize];
            let du = &mut sc.domains[u as usize];
            if sup.count() < du.count() {
                if sup.is_empty() {
                    wiped = true;
                }
                sc.shrunk.push(u);
                sc.trail.push((u, std::mem::replace(du, sup)));
            } else {
                sc.pool.push(sup);
            }
        }
        !wiped
    }

    /// Minimum-remaining-values with degree tiebreak.
    fn select_var(&self) -> Option<Element> {
        let mut best: Option<(usize, usize, Element)> = None;
        for v in 0..self.solver.n_source {
            if self.sc.assignment[v].is_none() {
                let dom = self.sc.domains[v].count();
                let deg = self.solver.incident(v as Element).len();
                let key = (dom, usize::MAX - deg, v as Element);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, v)| v)
    }

    fn search<F: FnMut(&[Option<Element>]) -> ControlFlow<()>>(
        &mut self,
        f: &mut F,
        stats: &mut HomSearchStats,
        depth: usize,
    ) -> ControlFlow<()> {
        let Some(var) = self.select_var() else {
            return f(&self.sc.assignment);
        };
        let mut vals = std::mem::take(&mut self.sc.vals[depth]);
        vals.clear();
        vals.extend(self.sc.domains[var as usize].iter());
        let mut flow = ControlFlow::Continue(());
        for &val in &vals {
            if let Some(b) = self.budget {
                if !b.charge(1) {
                    stats.budget_exhausted = true;
                    flow = ControlFlow::Break(());
                    break;
                }
            }
            stats.nodes += 1;
            self.new_level();
            self.sc.assignment[var as usize] = Some(val);
            let mut ok = true;
            if self.injective {
                // Forward-check injectivity: val leaves every other domain.
                let sc = &mut *self.sc;
                for u in 0..self.solver.n_source {
                    if u != var as usize
                        && sc.assignment[u].is_none()
                        && sc.domains[u].contains(val)
                    {
                        let mut nd = sc.pool.pop().unwrap_or_default();
                        nd.copy_from(&sc.domains[u]);
                        nd.remove(val);
                        sc.trail
                            .push((u as u32, std::mem::replace(&mut sc.domains[u], nd)));
                        if sc.domains[u].is_empty() {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok {
                ok = self.propagate_from(var);
            }
            let res = if ok {
                self.search(f, stats, depth + 1)
            } else {
                stats.backtracks += 1;
                ControlFlow::Continue(())
            };
            self.sc.assignment[var as usize] = None;
            self.undo_level();
            if res.is_break() {
                flow = ControlFlow::Break(());
                break;
            }
        }
        self.sc.vals[depth] = vals;
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
