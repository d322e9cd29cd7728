//! The approximation algorithms (Theorems 4.1 and 6.1).
//!
//! Both existence proofs construct approximations inside a bounded
//! candidate space:
//!
//! * **Graph-based classes** (Theorem 4.1): the candidates are the
//!   homomorphic images of the tableau `(Im(h), h(x̄))` — equivalently, its
//!   **quotients** by partitions of the variables. Every `C`-approximation
//!   is equivalent to a →-minimal in-class quotient.
//! * **Hypergraph-based classes** (Theorem 6.1 / Claim 6.2): classes like
//!   `AC` are *not* closed under subgraphs, and approximations may need
//!   **more atoms** than `Q` (Example 6.6's `Q'₃` adds a covering atom to
//!   the tableau). The candidate space becomes quotients **augmented** with
//!   extra atoms over the quotient's variables (optionally padded with
//!   fresh variables — the Claim 6.2 edge-extension move); the claim bounds
//!   the number of needed extra atoms by `ℓ·n^m`. We search augmentations
//!   by increasing size, keeping inclusion-minimal in-class repairs, with a
//!   configurable cap ([`ApproxOptions::repair_extra_atoms`], default 1 —
//!   enough for every example in the paper; raise it for exhaustiveness on
//!   wilder vocabularies). A repair is class-checked from raw tuples, the
//!   quotient's followed by its extra atoms, on one reused hypergraph row
//!   buffer, and built only on a hit ([`repairs_public`]).
//!
//! The exact pipeline is `decide → walk → restart on the core`. *Decide*
//! (§5, `crate::trichotomy`): in `TW(k)`, a Boolean query whose atoms use
//! one binary relation has only `Q^triv` when its tableau is not
//! `(k+1)`-colourable (Corollary 5.11), and for `k = 1` only `Q^triv₂`
//! when it is bipartite but unbalanced (Theorem 5.1); one pass over the
//! tuples says so, and nothing is walked. *Walk*: put the variables in
//! an atom-completing order ([`in_walk_order`]) → walk the partition
//! tree finest first → fingerprint each in-class quotient reached (and
//! class-check the ones a hypergraph-based class leaves open) → stream
//! the candidates through a →-minimal antichain of cores. *Restart*:
//! equivalent queries have the same approximations (Chandra & Merlin),
//! so a graph-based walk that minimizes computes the tableau's core once
//! it has visited [`RESTART_NODES`] prefixes, and walks the core instead
//! if it is smaller; no query that walks less pays for a core.
//!
//! The walk is a branch-and-bound with three cuts
//! (`for_each_class_partition`) that carries what it knows of
//! the prefix quotient, one level per depth (`PrefixGraphs`): a node
//! reads only the atoms its newest variable completes. A graph-based
//! class reads its verdict — for prefixes and leaves alike — off the
//! carried co-occurrence graph (`QueryClass::contains_graph`).
//! *Domination*, for every class: the canonical map `T_Q/π → T_Q/π′` of a
//! refinement `π ≤ π′` is a homomorphism, so once `T_Q/π` is in the
//! class, no coarsening of `π` — nor any repair built on one — can be
//! →-minimal without being equivalent to it; partitions arrive after
//! all their refinements, so only the finest in-class quotients are
//! ever built. *Subgraph closure*, for the graph-based classes: a prefix
//! of a restricted growth string fixes a subgraph of every quotient
//! below it, so an out-of-class prefix cuts its whole subtree.
//! *The trivial quotient*, for every class: `Q^triv`, the quotient by the
//! coarsest partition, is one element carrying the loop of every
//! relation of `Q` and the whole head; every candidate maps into it, so
//! it is the top of the → order. Once one block `b` of a prefix quotient
//! holds the loop `R(b, …, b)` of every relation `Q` uses (an arity-0
//! atom is in every quotient) and, when `Q` has free variables, every
//! distinguished variable, `Q^triv` maps into the prefix quotient. That
//! is a substructure of every quotient below the prefix and of every
//! Claim 6.2 repair of those, so each of them receives a homomorphism
//! from `Q^triv`, itself a candidate: none is →-minimal unless equivalent
//! to `Q^triv`, and none is an identification witness unless `Q^triv` is
//! one. The subtree is cut, and both callers consider `Q^triv` once,
//! explicitly: the search offers it last, identification tests it first.
//! (Every built-in class contains `Q^triv`; the cut relies on it.)
//! Theorem 5.8 and Corollary 5.11 are the decision forms of this cut.
//! Corollaries 4.3 and 6.5 bound the search by single-exponential time,
//! and Proposition 4.11 shows no polynomial algorithm exists unless
//! P = NP.

use crate::classes::{ClassKind, QueryClass, TwK};
use crate::trichotomy::{decide, Decision};
use cqapx_cq::{query_from_tableau, tableau_of, ConjunctiveQuery};
use cqapx_graphs::coloring::Adjacency;
use cqapx_graphs::BitGraph;
use cqapx_hypergraphs::Hypergraph;
use cqapx_structures::fxhash::{FxHashMap, FxHashSet, FxHasher};
use cqapx_structures::iso::{signature_pointed, IsoSignature};
use cqapx_structures::order::MinimalAntichain;
use cqapx_structures::partition::{walk_partitions, Walk};
use cqapx_structures::{core_of, Partition, Pointed, RelId, StructureBuilder, Vocabulary};
use std::cmp::Reverse;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::time::Instant;

/// Tuning knobs for the approximation search.
///
/// `PartialEq`/`Eq`/`Hash` are derived so the whole struct can sit
/// inside [`ApproxCacheKey`]: every field influences the result, and
/// embedding the struct (rather than a hand-picked fingerprint) keeps
/// future fields automatically part of the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ApproxOptions {
    /// Cap on the number of partitions reached (those no cut of the walk
    /// removed). When hit, the result is still sound but flagged
    /// incomplete; the trivial quotient is offered either way.
    pub max_partitions: u64,
    /// For hypergraph-based classes: maximum number of extra atoms added
    /// to a quotient when repairing it into the class.
    pub repair_extra_atoms: usize,
    /// For hypergraph-based classes: also try repair atoms padded with one
    /// fresh variable (the Claim 6.2 edge-extension shape).
    pub padded_repairs: bool,
    /// Minimize (core) the resulting approximations.
    pub minimize: bool,
}

impl Default for ApproxOptions {
    fn default() -> Self {
        ApproxOptions {
            max_partitions: 2_000_000,
            repair_extra_atoms: 1,
            padded_repairs: false,
            minimize: true,
        }
    }
}

/// The result of an approximation computation. The counts and times of
/// the run read through it: `report.partitions` is `report.meta.partitions`.
#[derive(Debug, Clone)]
pub struct ApproxReport {
    /// The approximations, as queries (minimized when requested).
    pub approximations: Vec<ConjunctiveQuery>,
    /// The approximations, as tableaux.
    pub tableaux: Vec<Pointed>,
    /// What the search did to find them.
    pub meta: ApproxReportMeta,
}

impl std::ops::Deref for ApproxReport {
    type Target = ApproxReportMeta;
    fn deref(&self) -> &ApproxReportMeta {
        &self.meta
    }
}

/// A stable, hashable cache key for approximation results: the tableau's
/// isomorphism-invariant signature plus the class and the options.
///
/// Two queries whose tableaux are isomorphic (same query up to variable
/// renaming) produce equal keys, so a cache keyed by `ApproxCacheKey` can
/// share one [`ApproxReport`] between them. Signature equality is
/// necessary but not sufficient for isomorphism, so a cache must confirm
/// candidate hits with `isomorphic_pointed` against a stored
/// representative tableau — see `cqapx-engine`'s approximation cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ApproxCacheKey {
    /// Isomorphism-invariant signature of the query tableau.
    pub signature: IsoSignature,
    /// The class approximated into.
    pub class: QueryClass,
    /// The [`ApproxOptions`] the result was computed under.
    pub options: ApproxOptions,
}

impl ApproxCacheKey {
    /// Builds the key for approximating tableau `t` within `class` under
    /// `opts`.
    pub fn new(t: &Pointed, class: &QueryClass, opts: &ApproxOptions) -> ApproxCacheKey {
        ApproxCacheKey {
            signature: signature_pointed(t),
            class: *class,
            options: opts.clone(),
        }
    }
}

/// `t` with its variables renumbered into the order the walk places
/// them: always the one with the most neighbours already placed, then the
/// highest degree, then the lowest index (maximum-cardinality search on
/// the co-occurrence graph). Atoms complete, and cycles close, as early
/// as the query allows, however the caller numbered its variables. The
/// search and [`crate::identify::is_approximation`] walk this tableau:
/// their partitions and quotients are over its numbering. `t` is a
/// tableau: every element occurs in some atom.
pub fn in_walk_order(t: &Pointed) -> Pointed {
    let s = &t.structure;
    let g = BitGraph::gaifman(
        s.universe_size(),
        s.vocabulary().rel_ids().flat_map(|r| s.tuples(r)),
    );
    let degree = |v: usize| (0..g.n()).filter(|&u| g.has_edge(v, u)).count();
    // The order so far, then each variable's position in it.
    let mut walk = vec![0u32; 2 * g.n()];
    let (order, position) = walk.split_at_mut(g.n());
    for i in 0..g.n() {
        let before = &order[..i];
        let placed = |v: usize| before.iter().filter(|&&u| g.has_edge(v, u as _)).count();
        let free = (0..g.n()).filter(|&v| !before.contains(&(v as u32)));
        let next = free.max_by_key(|&v| (placed(v), degree(v), Reverse(v)));
        let v = next.expect("a variable is left");
        (position[v], order[i]) = (i as u32, v as u32);
    }
    // A permutation of a tableau's active universe: nothing to restrict.
    let distinguished = t.distinguished().iter().map(|&x| position[x as usize]);
    Pointed::new(t.structure.map_image_raw(position), distinguished.collect())
}

/// What the walk knows along its current branch, one level per depth.
/// Level `d` is derived from the level the walk entered last at a smaller
/// depth and the atoms that variable `d − 1` completes, so backtracking
/// costs nothing. Three things are carried, all in one flat scratch:
///
/// * for a graph-based class, the co-occurrence graph (blocks as
///   vertices; the vertices no block uses yet stay isolated) and the
///   class's verdict on it, asked again only when an edge was actually
///   new. Level `d` is level `d − 1` plus the new atoms' pairs: a copy of
///   the parent's rows and a bit per pair. One graph is derived and
///   asked;
/// * for every class, which loops `R(b, …, b)` the block `b` of variable
///   `d − 1` holds, a bit per relation `Q` uses. An atom completed at
///   depth `d` can loop only on that block, so level `d` is the level at
///   which the block's previous variable joined it (none for a new
///   block) plus the new atoms' loops;
/// * which kept in-class leaves refine the prefix (the domination cut):
///   level `d`'s list is its parent's, filtered, plus the leaves kept
///   since the walk entered the parent, which lie below it and are
///   listed nowhere else. Each list is stacked on its parent's.
struct PrefixGraphs<'a> {
    /// The atoms of arity ≥ 1, each with its relation's bit, by largest
    /// variable.
    atoms: Vec<(usize, &'a [u32])>,
    /// The graph of the level derived last.
    graph: BitGraph,
    /// Per depth `stride` words: `END`, where its list ends; `SINCE`, the
    /// leaves kept when the walk entered it; its `VERDICT`; its graph's
    /// [`BitGraph::state`] (`len` words, none for a hypergraph-based
    /// class); its loop bits (`w` words). Then a bit for every relation
    /// of arity ≥ 1 that `Q` uses (arity-0 atoms are in every prefix
    /// quotient), then the lists.
    levels: Vec<u64>,
    stride: usize,
    len: usize,
    w: usize,
    /// The kept leaves, `n + 1` words each: per element the previous
    /// element of its block (`NONE` for a block's first), then the least
    /// index from which all elements are singletons.
    kept: Vec<u32>,
    n: usize,
    head: &'a [u32],
}

const END: usize = 0;
const SINCE: usize = 1;
const VERDICT: usize = 2;
const STATE: usize = 3;
const NONE: u32 = u32::MAX;

impl<'a> PrefixGraphs<'a> {
    /// Over the atoms and the head of `t`.
    fn new(t: &'a Pointed, class: &QueryClass) -> Self {
        let (s, n) = (&t.structure, t.structure.universe_size());
        let used = || (s.vocabulary().rel_ids()).filter(|&rel| !s.flat_tuples(rel).is_empty());
        let mut atoms = Vec::with_capacity(used().map(|rel| s.tuples(rel).len()).sum());
        for (bit, rel) in used().enumerate() {
            atoms.extend(s.tuples(rel).map(|a| (bit, a)));
        }
        atoms.sort_by_key(|(_, a)| a.iter().max().copied());
        let (mut graph, relations) = (BitGraph::new(n), used().count());
        let graphs = class.kind() == ClassKind::SubgraphClosed;
        let (len, w) = (
            graph.state().len() * usize::from(graphs),
            relations.div_ceil(64),
        );
        let stride = STATE + len + w;
        // Room for the lists' first words before the scratch grows.
        let mut levels = Vec::with_capacity((n + 1) * (stride + 1) + w);
        levels.resize((n + 1) * stride + w, 0);
        (0..relations).for_each(|r| levels[(n + 1) * stride + r / 64] |= 1 << (r % 64));
        levels[END] = levels.len() as u64;
        levels[VERDICT] = u64::from(graphs && class.contains_graph(&mut graph));
        levels[STATE..][..len].copy_from_slice(&graph.state()[..len]);
        let (kept, head) = (Vec::new(), t.distinguished());
        PrefixGraphs {
            atoms,
            graph,
            levels,
            stride,
            len,
            w,
            kept,
            n,
            head,
        }
    }

    /// Word `at` of level `d`.
    fn word(&self, d: usize, at: usize) -> usize {
        self.levels[d * self.stride + at] as usize
    }

    /// Where in `atoms` are the atoms variable `d − 1` completes.
    fn completed(&self, d: usize) -> std::ops::Range<usize> {
        let done = |d| (self.atoms).partition_point(|(_, a)| a.iter().all(|&e| (e as usize) < d));
        done(d - 1)..done(d)
    }

    /// Derives the list of prefix `p`'s level (`p.len() ≥ 1`) and answers
    /// whether a kept leaf on it refines every partition below `p`. A
    /// leaf stays listed iff element `d − 1` opens a block in it or joins
    /// its predecessor's block in `p` too; it refines everything below
    /// once its blocks lie inside the prefix and its elements past it are
    /// singletons.
    fn dominated(&mut self, p: &Partition) -> bool {
        let (d, labels, n, kept) = (p.len(), p.labels(), self.n, &self.kept);
        // Level 0's list is empty, and ends where the lists begin.
        let parent = self.word(d.saturating_sub(2), END)..self.word(d - 1, END);
        let since = self.word(d - 1, SINCE);
        self.levels.truncate(parent.end);
        let mut refines = false;
        let mut stays = |e: usize, levels: &mut Vec<u64>| {
            let prev = kept[e * (n + 1) + d - 1];
            if prev == NONE || labels[prev as usize] == labels[d - 1] {
                refines |= kept[e * (n + 1) + n] as usize <= d;
                levels.push(e as u64);
            }
        };
        for i in parent {
            stays(self.levels[i] as usize, &mut self.levels);
        }
        (since..kept.len() / (n + 1)).for_each(|e| stays(e, &mut self.levels));
        let (end, at) = (self.levels.len() as u64, d * self.stride);
        (self.levels[at + END], self.levels[at + SINCE]) = (end, (kept.len() / (n + 1)) as u64);
        refines
    }

    /// Keeps the in-class leaf `p` for the domination cut.
    fn keep(&mut self, p: &Partition) {
        let labels = p.labels();
        let prev = |x: usize| labels[..x].iter().rposition(|&b| b == labels[x]);
        let tail = (0..self.n).rev().find(|&x| prev(x).is_some());
        (self.kept).extend((0..self.n).map(|x| prev(x).map_or(NONE, |j| j as u32)));
        self.kept.push(tail.map_or(0, |x| x as u32 + 1));
    }

    /// Derives the loops of the block of prefix `p`'s newest variable and
    /// answers whether `Q^triv` maps into the prefix quotient through that
    /// block: it holds
    /// every relation's loop and every distinguished variable. Along a
    /// branch that no earlier answer cut, no other block can: its loops
    /// and its part of the head were complete at the level where its last
    /// variable joined it, which would have answered `true` already.
    fn holds_trivial(&mut self, p: &Partition) -> bool {
        let (d, labels, w) = (p.len(), p.labels(), self.w);
        let Some(&b) = labels.last() else {
            return false;
        };
        let loops = |d: usize| d * self.stride + STATE + self.len;
        let here = loops(d);
        match labels[..d - 1].iter().rposition(|&l| l == b) {
            Some(j) => self
                .levels
                .copy_within(loops(j + 1)..loops(j + 1) + w, here),
            None => self.levels[here..here + w].fill(0),
        }
        for (bit, a) in self.atoms[self.completed(d)].iter() {
            if a.iter().all(|&e| labels[e as usize] == b) {
                self.levels[here + bit / 64] |= 1 << (bit % 64);
            }
        }
        let all = loops(self.n + 1) - STATE - self.len;
        self.levels[here..here + w] == self.levels[all..all + w]
            && (self.head.iter()).all(|&x| labels.get(x as usize) == Some(&b))
    }

    /// Derives the graph of prefix `p` from its parent's and returns the
    /// class's verdict on the prefix quotient: `false` rules out every
    /// quotient below. A hypergraph-based class rules out nothing here.
    fn enter(&mut self, p: &Partition, class: &QueryClass) -> bool {
        let (d, labels, len, state) = (p.len(), p.labels(), self.len, |d| d * self.stride + STATE);
        if len == 0 || d == 0 {
            return len == 0 || self.word(0, VERDICT) == 1;
        }
        self.graph.set_state(&self.levels[state(d - 1)..][..len]);
        let mut grew = false;
        for (_, a) in &self.atoms[self.completed(d)] {
            for (i, &x) in a.iter().enumerate() {
                for &y in &a[i + 1..] {
                    grew |= self.graph.add_edge(labels[x as usize], labels[y as usize]);
                }
            }
        }
        let verdict = match grew {
            true => class.contains_graph(&mut self.graph),
            false => self.word(d - 1, VERDICT) == 1,
        };
        self.levels[d * self.stride + VERDICT] = u64::from(verdict);
        self.levels[state(d)..][..len].copy_from_slice(self.graph.state());
        verdict
    }
}

/// Walks the partitions of `t`'s variables whose quotients can be
/// candidates for `class`, finest first, reaching at most
/// `max_partitions` of them. A leaf is reached when no cut removes it;
/// `leaf` sees each one, with whether the class's graph verdict already
/// says "in the class" (for a graph-based class a leaf is reached only
/// then), and answers whether the plain quotient is in the class.
/// (`leaf` breaking, the cap, or `keep_walking` answering `false` when
/// the walk visits its [`RESTART_NODES`]-th prefix, ends the walk.)
/// The coarsest partition of `n ≥ 1` variables is never reached (the
/// third cut removes it), so callers consider `Q^triv` themselves. Returns the walk's part of the report;
/// the rest is left at zero.
///
/// **Domination** (module docs). A partition arrives after all of its
/// refinements, so the in-class leaves reached are the finest ones; they
/// are kept, and a prefix is cut when one refines everything below it.
///
/// **Subgraph closure.** For a [`ClassKind::SubgraphClosed`] class a
/// prefix of length `d` fixes the images of the atoms over the first
/// `d` variables, and those form a subgraph of every quotient below the
/// prefix; so once `QueryClass::contains_graph` rejects their graph
/// (`PrefixGraphs`), no quotient below is in the class and the subtree
/// is cut — the leaf itself included, which is never fingerprinted.
/// [`ClassKind::HypergraphClosed`] classes do not have this bound: a
/// variable prefix is not an induced subhypergraph, and their repairs
/// start from out-of-class quotients.
///
/// **The trivial quotient**, for every class (module docs). Once one
/// block of the prefix quotient holds the loop of every relation of `Q`
/// and every distinguished variable (`PrefixGraphs::holds_trivial`),
/// `Q^triv` maps into every quotient below and into every repair of
/// those: none of them can be →-minimal or a witness unless `Q^triv` is
/// one, so the subtree is cut. No quotient with such a block is reached,
/// and so none is kept for domination; that loses nothing, since every
/// coarsening of such a quotient has one too.
pub(crate) fn for_each_class_partition(
    t: &Pointed,
    class: &QueryClass,
    max_partitions: u64,
    mut keep_walking: impl FnMut() -> bool,
    mut leaf: impl FnMut(&Partition, bool) -> ControlFlow<(), bool>,
) -> ApproxReportMeta {
    let n = t.structure.universe_size();
    let mut graphs = PrefixGraphs::new(t, class);
    let known_in_class = class.kind() == ClassKind::SubgraphClosed;
    let (mut nodes, mut reached, mut dominated) = (0u64, 0u64, 0u64);
    let complete = walk_partitions(n, |p| {
        nodes += 1;
        if nodes == RESTART_NODES && !keep_walking() {
            return Walk::Stop;
        }
        if !p.is_empty() && graphs.dominated(p) {
            dominated += 1;
            return Walk::Prune;
        }
        if graphs.holds_trivial(p) {
            return Walk::Prune;
        }
        if !graphs.enter(p, class) {
            return Walk::Prune;
        }
        if p.len() < n {
            return Walk::Descend;
        }
        if reached == max_partitions {
            return Walk::Stop;
        }
        reached += 1;
        let ControlFlow::Continue(in_class) = leaf(p, known_in_class) else {
            return Walk::Stop;
        };
        if in_class {
            graphs.keep(p);
        }
        Walk::Descend
    });
    ApproxReportMeta {
        nodes,
        partitions: reached,
        dominated,
        complete,
        ..ApproxReportMeta::default()
    }
}

/// Streams the candidate tableaux for a query tableau into `emit`, in
/// the order the partition walk meets them: the in-class quotients no
/// finer in-class quotient dominates and, for hypergraph-based classes,
/// the repaired out-of-class ones. Returns the walk's counts.
///
/// Distinct partitions frequently induce the *same* quotient, so each
/// quotient the walk hands over — none that a graph-based class rejects
/// — is fingerprinted first: block count, mapped distinguished tuple
/// and, per relation, its deduplicated tuple count and its sorted mapped
/// tuples, written at the end of the arena that keeps the fingerprints
/// seen ([`Fingerprints`]), with no structure built. Only unseen
/// fingerprints get class-checked from the arena, where the walk's graph
/// did not already say, and materialized from it when in the class or
/// repaired. The fingerprint determines the pointed quotient, so
/// in-class quotients need no second dedup among themselves.
///
/// The walk never reaches the coarsest partition, so its quotient,
/// `Q^triv`, is offered last, once, whether or not the walk was capped,
/// and unchecked: one element has an edgeless Gaifman graph and the
/// hypergraph `{0}`, in `TW(k)`, `AC` and `HTW(k)` alike.
/// It stands for every quotient the third cut removed; the antichain
/// rejects it after one hom test whenever a member maps into it.
fn candidates(
    t: &Pointed,
    class: &QueryClass,
    opts: &ApproxOptions,
    keep_walking: impl FnMut() -> bool,
    mut emit: impl FnMut(Pointed),
) -> ApproxReportMeta {
    let s = &t.structure;
    let vocab = s.vocabulary();
    let head = t.distinguished().len();
    let wants_repairs = class.kind() == ClassKind::HypergraphClosed && opts.repair_extra_atoms > 0;

    // Room for four fingerprints of the largest size before it grows.
    let mut seen = Fingerprints::default();
    let flat: usize = vocab.rel_ids().map(|rel| s.flat_tuples(rel).len()).sum();
    seen.arena.reserve(4 * (4 + head + vocab.len() + flat));
    // Repaired quotients can coincide with each other and with in-class
    // quotients, so a search that repairs dedups whole candidates too.
    // (`Structure`'s interior mutability is only its derived index cache,
    // which equality and hashing ignore — the key is logically immutable.)
    #[allow(clippy::mutable_key_type)]
    let mut seen_structs: FxHashSet<Pointed> = FxHashSet::default();
    // Reusable scratch: a u64 packing buffer for low arities, and the
    // mapped tuples and their sort order for the generic path.
    let (mut packed, mut mapped, mut order): (Vec<u64>, Vec<u32>, Vec<usize>) = Default::default();
    let mut rows = Hypergraph::default();

    let mut visit = |p: &Partition, known_in_class: bool| -> bool {
        let labels = p.labels();
        let (fp, start) = seen.open();
        fp.push(p.n_blocks() as u32);
        // The mapped distinguished tuple is part of the pointed quotient's
        // identity: equal structures with differently-mapped free
        // variables are different candidates.
        fp.extend(t.distinguished().iter().map(|&x| labels[x as usize]));
        for rel in vocab.rel_ids() {
            let (w, flat) = (vocab.arity(rel), s.flat_tuples(rel));
            // The relation's deduplicated tuple count comes first:
            // relations are written in fixed order and each relation's
            // arity is fixed, so the count makes the encoding uniquely
            // parseable — without it, a tuple of one relation could be
            // misread as belonging to the next, making distinct
            // quotients collide on multi-relation vocabularies.
            let count = fp.len();
            fp.push(0);
            if w <= 2 {
                // Pack each mapped tuple into one u64: a plain integer
                // sort + dedup, much cheaper than slice-compare sorting.
                let pack = |a: &[u32]| {
                    a.iter()
                        .fold(0, |v, &e| v << 32 | labels[e as usize] as u64)
                };
                packed.clear();
                packed.extend(flat.chunks_exact(w).map(pack));
                packed.sort_unstable();
                packed.dedup();
                for &v in &packed {
                    fp.extend_from_slice(&[(v >> 32) as u32, v as u32][2 - w..]);
                }
            } else {
                mapped.clear();
                mapped.extend(flat.iter().map(|&e| labels[e as usize]));
                let tuple = |i: usize| &mapped[i * w..(i + 1) * w];
                order.clear();
                order.extend(0..mapped.len() / w);
                order.sort_unstable_by(|&a, &b| tuple(a).cmp(tuple(b)));
                order.dedup_by(|a, b| tuple(*a) == tuple(*b));
                order.iter().for_each(|&i| fp.extend_from_slice(tuple(i)));
            }
            fp[count] = ((fp.len() - count - 1) / w) as u32;
        }
        if let Some(in_class) = seen.seen() {
            return in_class;
        }
        // First sighting of this quotient: unless the walk knows it,
        // class-check it from the fingerprint; materialize a `Pointed`
        // only when it is actually a candidate (or feeds the repair
        // search).
        let n_blocks = p.n_blocks();
        let in_class = known_in_class || {
            let tuples = fingerprint_relations(&seen.arena[start..], head, vocab)
                .flat_map(|(rel, flat)| flat.chunks_exact(vocab.arity(rel)));
            class.contains_quotient(n_blocks, tuples, &mut rows)
        };
        seen.keep(in_class);
        if !in_class && !wants_repairs {
            return false;
        }
        let fp = &seen.arena[start..];
        let mut b = StructureBuilder::new(vocab.clone(), n_blocks);
        for (rel, flat) in fingerprint_relations(fp, head, vocab) {
            b.reserve(rel, flat.len() / vocab.arity(rel));
            flat.chunks_exact(vocab.arity(rel))
                .for_each(|tup| _ = b.add(rel, tup));
        }
        // After the block count, `fp` opens with the mapped distinguished tuple.
        let qt = Pointed::new(b.finish(), fp[1..=head].to_vec());
        if in_class {
            if !wants_repairs || seen_structs.insert(qt.clone()) {
                emit(qt);
            }
        } else if wants_repairs {
            for repaired in repairs_public(&qt, class, opts) {
                if seen_structs.insert(repaired.clone()) {
                    emit(repaired);
                }
            }
        }
        in_class
    };
    let counts = for_each_class_partition(t, class, opts.max_partitions, keep_walking, |p, k| {
        ControlFlow::Continue(visit(p, k))
    });
    visit(&Partition::coarsest(s.universe_size()), true);
    counts
}

/// Each relation of `vocab` with its tuples in the quotient fingerprint
/// `fp` ([`candidates`]): after the block count and `head` mapped
/// distinguished elements, per relation its tuple count, then its tuples.
fn fingerprint_relations<'f>(
    fp: &'f [u32],
    head: usize,
    vocab: &'f Vocabulary,
) -> impl Iterator<Item = (RelId, &'f [u32])> + Clone + 'f {
    vocab.rel_ids().scan(1 + head, move |at, rel| {
        let flat = &fp[*at + 1..][..fp[*at] as usize * vocab.arity(rel)];
        *at += 1 + flat.len();
        Some((rel, flat))
    })
}

/// The quotient fingerprints a search has seen, each with whether the
/// plain quotient was in the class, in one arena: per fingerprint the
/// arena position of the last earlier one with the same hash plus one (0
/// for none), the verdict, the length, then the fingerprint, written at
/// the arena's end and dropped again if seen.
#[derive(Default)]
struct Fingerprints {
    arena: Vec<u32>,
    /// Where the fingerprint being written starts, its three words first.
    open: usize,
    /// Per hash, the arena position of the last fingerprint with it.
    last: FxHashMap<u64, u32>,
}

impl Fingerprints {
    /// Opens a fingerprint at the arena's end, dropping one left open:
    /// the arena to write it to, and where it starts there.
    fn open(&mut self) -> (&mut Vec<u32>, usize) {
        self.arena.truncate(self.open);
        self.arena.extend([0; 3]);
        (&mut self.arena, self.open + 3)
    }

    fn hash(&self) -> u64 {
        let mut h = FxHasher::default();
        self.arena[self.open + 3..].hash(&mut h);
        h.finish()
    }

    /// The verdict kept with an earlier fingerprint equal to the open one.
    fn seen(&self) -> Option<bool> {
        let fp = &self.arena[self.open + 3..];
        let mut at = *self.last.get(&self.hash())? as usize;
        while self.arena[at + 3..][..self.arena[at + 2] as usize] != *fp {
            at = self.arena[at].checked_sub(1)? as usize;
        }
        Some(self.arena[at + 1] == 1)
    }

    /// Keeps the open fingerprint, unseen, with its verdict.
    fn keep(&mut self, in_class: bool) {
        let end = u32::try_from(self.arena.len()).expect("fingerprints fit in 32-bit positions");
        let at = self.open as u32;
        let prev = self.last.insert(self.hash(), at);
        let words = [prev.map_or(0, |p| p + 1), u32::from(in_class), end - at - 3];
        self.arena[self.open..][..3].copy_from_slice(&words);
        self.open = self.arena.len();
    }
}

/// Inclusion-minimal augmentations of `qt` with up to
/// `opts.repair_extra_atoms` extra atoms that land in the class (the
/// Claim 6.2 move), by size, then in the order of their extra atoms. A
/// candidate without padding is class-checked from raw tuples in one
/// reused row buffer and built only on a hit; a padded one is built
/// first, which numbers its fresh elements. Exposed for the `identify`
/// decision procedure.
pub fn repairs_public(qt: &Pointed, class: &QueryClass, opts: &ApproxOptions) -> Vec<Pointed> {
    let s = &qt.structure;
    let vocab = s.vocabulary().clone();
    let u = s.universe_size();
    // Candidate extra atoms `(relation, start in flat, padded)`: every
    // missing tuple over the quotient's elements (the first position
    // fastest); optionally, tuples with exactly one fresh padding element
    // (the marker `u`) in each position, the others over the quotient's.
    let digits = |code: usize, len| (0..len).map(move |p| (code / u.pow(p as u32) % u) as u32);
    let (mut extras, mut flat): (Vec<(RelId, usize, bool)>, Vec<u32>) = (Vec::new(), Vec::new());
    for rel in vocab.rel_ids() {
        let arity = vocab.arity(rel);
        for code in 0..u.pow(arity as u32) {
            let start = flat.len();
            flat.extend(digits(code, arity));
            match s.contains(rel, &flat[start..]) {
                true => flat.truncate(start),
                false => extras.push((rel, start, false)),
            }
        }
        let padded = opts.padded_repairs && arity >= 2;
        let bases = u.pow(arity.max(1) as u32 - 1);
        for code in 0..if padded { arity * bases } else { 0 } {
            let start = flat.len();
            flat.extend(digits(code / arity, arity - 1));
            flat.insert(start + code % arity, u as u32);
            extras.push((rel, start, true));
        }
    }
    let tuple = |i: usize| &flat[extras[i].1..][..vocab.arity(extras[i].0)];

    let build = |subset: &[usize]| -> Pointed {
        let n_pads = subset.iter().filter(|&&i| extras[i].2).count();
        let mut b = StructureBuilder::new(vocab.clone(), u + n_pads);
        for rel in vocab.rel_ids() {
            for t in s.tuples(rel) {
                b.add(rel, t);
            }
        }
        let mut next_pad = u as u32;
        for &i in subset {
            let fresh = |&x: &u32| if x == u as u32 { next_pad } else { x };
            b.add(extras[i].0, &tuple(i).iter().map(fresh).collect::<Vec<_>>());
            next_pad += extras[i].2 as u32;
        }
        Pointed::new(b.finish(), qt.distinguished().to_vec())
    };
    let mut rows = Hypergraph::default();
    let mut hit = |subset: &[usize]| -> Option<Pointed> {
        if subset.iter().any(|&i| extras[i].2) {
            return Some(build(subset)).filter(|cand| class.contains_tableau(cand));
        }
        let extra = subset.iter().map(|&i| tuple(i));
        let tuples = vocab.rel_ids().flat_map(|rel| s.tuples(rel)).chain(extra);
        let in_class = class.contains_quotient(u, tuples, &mut rows);
        in_class.then(|| build(subset))
    };

    // Search by increasing repair size, keeping inclusion-minimal hits;
    // only a size below the cap keeps its misses to extend.
    let mut hits: Vec<Vec<usize>> = Vec::new();
    let mut out = Vec::new();
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    let mut subset = Vec::new();
    for size in 1..=opts.repair_extra_atoms {
        let mut next = Vec::new();
        for base in &frontier {
            let start = base.last().map_or(0, |&l| l + 1);
            for i in start..extras.len() {
                subset.clear();
                subset.extend(base.iter().chain([&i]));
                // skip supersets of known hits (inclusion-minimality)
                if hits.iter().any(|h| h.iter().all(|x| subset.contains(x))) {
                    continue;
                }
                if let Some(cand) = hit(&subset) {
                    hits.push(subset.clone());
                    out.push(cand);
                } else if size < opts.repair_extra_atoms {
                    next.push(subset.clone());
                }
            }
        }
        frontier = next;
    }
    out
}

/// The prefixes a graph-based walk that minimizes visits before the
/// search computes the tableau's core and restarts on it if it is smaller
/// (module docs): above every `approx_cold` walk of the benchmark under
/// any spelling (at most 300, `hom_differential.rs`), and low enough that
/// a restart on a small core stays within 10³ nodes.
pub const RESTART_NODES: u64 = 512;

/// Computes all `C`-approximations of a tableau, as tableaux.
///
/// This is Theorem 4.1's (resp. 6.1's) procedure run to completion:
/// candidates, filtered by class, →-minimal elements, cores, after §5's
/// decision and with a restart on the core (module docs). The returned
/// tableaux are pairwise non-equivalent: cores of quotients of `t` (or
/// of its core) up to a renaming, or with `minimize` off the quotients
/// themselves, over the numbering [`in_walk_order`] gives what was walked.
pub fn all_approximations_tableaux(
    t: &Pointed,
    class: &QueryClass,
    opts: &ApproxOptions,
) -> (Vec<Pointed>, ApproxReportMeta) {
    if let Some(decided) = decided(t, class, opts) {
        return decided;
    }
    let restarts = opts.minimize && class.kind() == ClassKind::SubgraphClosed;
    let mut smaller = None;
    let (found, first) = search(t, class, opts, || {
        let core = restarts.then(|| core_of(t).core);
        smaller = core.filter(|c| c.structure.universe_size() < t.structure.universe_size());
        smaller.is_none()
    });
    let Some(core) = smaller else {
        return (found, first);
    };
    let (found, mut meta) = search(&core, class, opts, || true);
    meta.nodes += first.nodes;
    meta.walk_us += first.walk_us + first.antichain_us + first.core_us;
    (found, meta)
}

/// The walk alone: [`all_approximations_tableaux`] with neither §5's
/// decision nor the restart, over `t` as given. Its counts are the walk's
/// on `t`, which the tests that pin the walk read.
pub fn walk_approximations_tableaux(
    t: &Pointed,
    class: &QueryClass,
    opts: &ApproxOptions,
) -> (Vec<Pointed>, ApproxReportMeta) {
    search(t, class, opts, || true)
}

/// The search's report when §5 names the one approximation of `t` in
/// `class`, a `TW(k)`, as the walk would return it: `Q^triv`, the
/// quotient by the coarsest partition, or `Q^triv₂`, which the walk
/// returns only cored.
fn decided(
    t: &Pointed,
    class: &QueryClass,
    opts: &ApproxOptions,
) -> Option<(Vec<Pointed>, ApproxReportMeta)> {
    let TwK(k) = *class else {
        return None;
    };
    let s = &t.structure;
    // A Boolean tableau whose atoms use one relation, a binary one.
    let mut used = (s.vocabulary().rel_ids()).filter(|&r| !s.flat_tuples(r).is_empty());
    let binary = |e: &RelId| t.is_boolean() && s.vocabulary().arity(*e) == 2;
    let e = used.next().filter(|e| binary(e) && used.next().is_none())?;
    let edges = s.flat_tuples(e).chunks_exact(2).map(|a| (a[0], a[1]));
    let (n, atoms): (usize, &[u32]) = match decide(Adjacency::new(s.universe_size(), edges), k) {
        Decision::Trivial => (1, &[0, 0]),
        Decision::TrivialBipartite if opts.minimize => (2, &[0, 1, 1, 0]),
        _ => return None,
    };
    let mut b = StructureBuilder::new(s.vocabulary().clone(), n);
    b.reserve(e, n);
    atoms.chunks_exact(2).for_each(|a| _ = b.add(e, a));
    let meta = ApproxReportMeta {
        candidates: 1,
        complete: true,
        ..ApproxReportMeta::default()
    };
    Some((vec![Pointed::boolean(b.finish())], meta))
}

/// One walk of `t`, its candidates streamed through the antichain.
fn search(
    t: &Pointed,
    class: &QueryClass,
    opts: &ApproxOptions,
    keep_walking: impl FnMut() -> bool,
) -> (Vec<Pointed>, ApproxReportMeta) {
    // One pass: a candidate with a current minimal element below it is
    // dropped after that hom test; any other evicts what it maps into.
    let mut minimal = MinimalAntichain::new(opts.minimize);
    let (mut n_candidates, mut offers) = (0usize, std::time::Duration::ZERO);
    let start = Instant::now();
    let mut meta = candidates(&in_walk_order(t), class, opts, keep_walking, |c| {
        n_candidates += 1;
        let offered = Instant::now();
        minimal.offer(c);
        offers += offered.elapsed();
    });
    meta.candidates = n_candidates;
    let (search, cores) = (start.elapsed(), minimal.core_time());
    meta.walk_us = (search - offers).as_micros() as u64;
    meta.antichain_us = (offers - cores).as_micros() as u64;
    meta.core_us = cores.as_micros() as u64;
    // A minimizing antichain holds its members' cores: nothing left to
    // minimize.
    (minimal.into_members(), meta)
}

/// Counts and times of a tableau-level approximation run.
///
/// A search that §5 decided (module docs) walked nothing: it reports
/// 1 candidate (the one approximation), 0 partitions, 0 dominated, 0
/// nodes, zero times, and `complete`. A search that restarted on the
/// core reports the walk of the core, with both walks' nodes and times.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApproxReportMeta {
    /// Number of candidates offered to the →-minimal antichain: the
    /// distinct quotients of the in-class partitions no finer in-class
    /// partition refines and no block of which holds every relation's
    /// loop and the whole head, the repaired out-of-class ones, and
    /// `Q^triv` (the coarsest partition's quotient), offered last.
    ///
    /// The count belongs to the spelling that was searched: the walk's
    /// order (`in_walk_order`) breaks ties by input index, so isomorphic
    /// renamings of one query can offer different numbers of candidates
    /// for the same partitions, and a report the engine's cache shares
    /// keeps the count of whichever request searched first.
    pub candidates: usize,
    /// Number of partitions reached (leaves of the walk; pruned subtrees
    /// and dominated leaves are not counted).
    pub partitions: u64,
    /// Number of leaves skipped plus subtrees cut because an in-class
    /// partition found earlier refines all of them.
    pub dominated: u64,
    /// `false` when a cap was hit; the output is then still sound (each
    /// returned query is in the class and contained in `Q`) but might miss
    /// approximations or return non-minimal ones.
    pub complete: bool,
    /// Number of prefixes the walk visited, cut ones included: its work.
    /// After a restart on the core, both walks' prefixes.
    pub nodes: u64,
    /// Microseconds in the walk (fingerprints, quotients, repairs), …
    pub walk_us: u64,
    /// … in the antichain's hom tests, …
    pub antichain_us: u64,
    /// … and in its members' core computations: together, the search.
    /// (A first walk that a restart abandoned counts as walk.)
    pub core_us: u64,
}

impl ApproxReport {
    /// The report of one [`all_approximations_tableaux`] run.
    pub fn from_tableaux(tableaux: Vec<Pointed>, meta: ApproxReportMeta) -> ApproxReport {
        ApproxReport {
            approximations: tableaux.iter().map(query_from_tableau).collect(),
            tableaux,
            meta,
        }
    }
}

/// Computes all `C`-approximations of a query.
///
/// # Examples
///
/// ```
/// use cqapx_core::{all_approximations, ApproxOptions, TwK};
/// use cqapx_cq::parse_cq;
///
/// // The triangle has only the trivial acyclic approximation E(x,x).
/// let tri = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
/// let rep = all_approximations(&tri, &TwK(1), &ApproxOptions::default());
/// assert!(rep.complete);
/// assert_eq!(rep.approximations.len(), 1);
/// let trivial = parse_cq("Q() :- E(x, x)").unwrap();
/// assert!(cqapx_cq::equivalent(&rep.approximations[0], &trivial));
/// ```
pub fn all_approximations(
    q: &ConjunctiveQuery,
    class: &QueryClass,
    opts: &ApproxOptions,
) -> ApproxReport {
    let t = tableau_of(q);
    let (tableaux, meta) = all_approximations_tableaux(&t, class, opts);
    ApproxReport::from_tableaux(tableaux, meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{Acyclic, HtwK};
    use cqapx_cq::{contained_in, equivalent, parse_cq};
    use cqapx_structures::iso::isomorphic_pointed;
    use cqapx_structures::partition::for_each_partition;
    use cqapx_structures::quotient::quotient_pointed;
    use cqapx_structures::{order, Structure, Vocabulary};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::collections::HashSet;

    fn opts() -> ApproxOptions {
        ApproxOptions::default()
    }

    /// The walk's report on `q` as written: no decision, no restart.
    fn walk(q: &ConjunctiveQuery, class: &QueryClass, opts: &ApproxOptions) -> ApproxReport {
        let (tableaux, meta) = walk_approximations_tableaux(&tableau_of(q), class, opts);
        ApproxReport::from_tableaux(tableaux, meta)
    }

    #[test]
    fn triangle_trivial_approximation() {
        // Theorem 5.1 first case: non-bipartite tableau → only Q^triv.
        let tri = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        for class in [&TwK(1), &Acyclic] {
            let rep = all_approximations(&tri, class, &opts());
            assert_eq!(rep.approximations.len(), 1, "{}", class.name());
            let a = &rep.approximations[0];
            assert_eq!(a.atom_count(), 1);
            assert!(contained_in(a, &tri));
            assert!(equivalent(a, &parse_cq("Q() :- E(x, x)").unwrap()));
        }
    }

    #[test]
    fn c4_bipartite_unbalanced_gives_k2() {
        // Theorem 5.1 second case: C4 is bipartite but unbalanced → the
        // only acyclic approximation is K2^<->.
        let c4 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap();
        let rep = all_approximations(&c4, &TwK(1), &opts());
        assert!(rep.complete);
        assert_eq!(rep.approximations.len(), 1);
        let a = &rep.approximations[0];
        let k2 = parse_cq("Q() :- E(x,y), E(y,x)").unwrap();
        assert!(equivalent(a, &k2));
    }

    #[test]
    fn intro_q2_approximated_by_p4() {
        // Introduction / Example 5.7: Q2's unique acyclic approximation is
        // the path of length 4.
        let q2 = parse_cq(
            "Q() :- E(x,y), E(y,z), E(z,u), E(x1,y1), E(y1,z1), E(z1,u1), E(x,z1), E(y,u1)",
        )
        .unwrap();
        let rep = all_approximations(&q2, &TwK(1), &opts());
        assert!(rep.complete);
        assert_eq!(rep.approximations.len(), 1);
        let p4 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,e)").unwrap();
        assert!(equivalent(&rep.approximations[0], &p4));
    }

    #[test]
    fn every_approximation_is_sound() {
        let q = parse_cq("Q(x) :- E(x,y), E(y,z), E(z,x), E(x,w), E(w,x)").unwrap();
        for class in [&TwK(1), &TwK(2), &Acyclic] {
            let rep = all_approximations(&q, class, &opts());
            assert!(!rep.approximations.is_empty(), "{}", class.name());
            for a in &rep.approximations {
                assert!(contained_in(a, &q), "{} ⊆ Q for {}", a, class.name());
                assert!(
                    class.contains_tableau(&tableau_of(a)),
                    "{a} in {}",
                    class.name()
                );
            }
        }
    }

    #[test]
    fn tw2_approximation_of_k4() {
        // K4^<-> (treewidth 3): TW(2)-approximations exist (Cor 4.2), and
        // since K4's tableau is not 3-colorable, all have a loop (Thm 5.10).
        let k4 = parse_cq(
            "Q() :- E(a,b), E(b,a), E(a,c), E(c,a), E(a,d), E(d,a), E(b,c), E(c,b), E(b,d), E(d,b), E(c,d), E(d,c)",
        )
        .unwrap();
        let rep = all_approximations(&k4, &TwK(2), &opts());
        assert!(!rep.approximations.is_empty());
        for a in &rep.approximations {
            let t = tableau_of(a);
            let has_loop = a
                .atoms()
                .iter()
                .any(|atom| atom.args.iter().all(|&v| v == atom.args[0]));
            assert!(has_loop, "non-3-colorable ⇒ loop in {a}");
            assert!(TwK(2).contains_tableau(&t));
        }
    }

    #[test]
    fn example_66_three_acyclic_approximations() {
        // Example 6.6: the ternary triangle has exactly 3 non-equivalent
        // acyclic approximations, including one with MORE atoms than Q.
        let q = parse_cq("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)").unwrap();
        let rep = all_approximations(&q, &Acyclic, &opts());
        assert!(rep.complete);
        let expected = [
            parse_cq("Q() :- R(x, y, x)").unwrap(),
            parse_cq("Q() :- R(x1,x2,x3), R(x3,x4,x2), R(x2,x6,x1)").unwrap(),
            parse_cq("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1), R(x1,x3,x5)").unwrap(),
        ];
        assert_eq!(
            rep.approximations.len(),
            3,
            "got: {:#?}",
            rep.approximations
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
        );
        for e in &expected {
            assert!(
                rep.approximations.iter().any(|a| equivalent(a, e)),
                "missing {e}"
            );
        }
    }

    /// `repairs_public` as it was before it checked candidates from raw
    /// tuples: every candidate built, then class-checked.
    fn built_repairs(qt: &Pointed, class: &QueryClass, opts: &ApproxOptions) -> Vec<Pointed> {
        let s = &qt.structure;
        let (vocab, u) = (s.vocabulary(), s.universe_size() as u32);
        // Every tuple of `len` elements below `u`, the first fastest.
        let tuples = |len: usize| {
            (0..u.pow(len as u32)).map(move |code| {
                (0..len)
                    .map(|p| code / u.pow(p as u32) % u)
                    .collect::<Vec<_>>()
            })
        };
        let mut extras: Vec<(RelId, Vec<u32>, bool)> = Vec::new();
        for rel in vocab.rel_ids() {
            let arity = vocab.arity(rel);
            let missing = tuples(arity).filter(|t| !s.contains(rel, t));
            extras.extend(missing.map(|t| (rel, t, false)));
            if opts.padded_repairs && arity >= 2 {
                for base in tuples(arity - 1) {
                    for pad in 0..arity {
                        let mut t = base.clone();
                        t.insert(pad, u);
                        extras.push((rel, t, true));
                    }
                }
            }
        }
        let build = |subset: &[usize]| {
            let n_pads = subset.iter().filter(|&&i| extras[i].2).count();
            let mut b = StructureBuilder::new(vocab.clone(), u as usize + n_pads);
            for rel in vocab.rel_ids() {
                for t in s.tuples(rel) {
                    b.add(rel, t);
                }
            }
            let mut next_pad = u;
            for &i in subset {
                let (rel, t, padded) = &extras[i];
                let t: Vec<u32> = t
                    .iter()
                    .map(|&x| if x == u { next_pad } else { x })
                    .collect();
                next_pad += *padded as u32;
                b.add(*rel, &t);
            }
            Pointed::new(b.finish(), qt.distinguished().to_vec())
        };
        let (mut hits, mut out, mut frontier) =
            (Vec::<Vec<usize>>::new(), Vec::new(), vec![vec![]]);
        for _ in 0..opts.repair_extra_atoms {
            let mut next = Vec::new();
            for base in &frontier {
                for i in base.last().map_or(0, |&l| l + 1)..extras.len() {
                    let mut subset: Vec<usize> = base.clone();
                    subset.push(i);
                    if hits.iter().any(|h| h.iter().all(|x| subset.contains(x))) {
                        continue;
                    }
                    let cand = build(&subset);
                    if class.contains_tableau(&cand) {
                        hits.push(subset);
                        out.push(cand);
                    } else {
                        next.push(subset);
                    }
                }
            }
            frontier = next;
        }
        out
    }

    /// Checking a repair from raw tuples and building it only on a hit
    /// returns what building every candidate returned, in its order:
    /// on Example 6.6's query and on the ternary ring `R(vᵢ, vᵢ₊₁, vᵢ₊₃)`
    /// of seven and its quotients of three elements (the only ones a
    /// single atom repairs into `AC`), padded and not, with one extra atom
    /// and, on every twentieth quotient, two.
    #[test]
    fn repairs_match_building_every_candidate() {
        let q = parse_cq("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)").unwrap();
        let vocab = Vocabulary::new(vec![("R", 3)]);
        let r = vocab.rel("R").unwrap();
        let mut b = StructureBuilder::new(vocab, 7);
        for i in 0..7 {
            b.add(r, &[i, (i + 1) % 7, (i + 3) % 7]);
        }
        let ring = Pointed::boolean(b.finish());
        let mut cases = vec![(tableau_of(&q), 1), (ring.clone(), 1)];
        for_each_partition(7, |p| {
            if p.n_blocks() == 3 {
                let most = 1 + (cases.len() % 20 == 0) as usize;
                cases.push((quotient_pointed(&ring, p).0, most));
            }
            ControlFlow::Continue(())
        });
        let mut repaired = 0;
        for (t, most) in &cases {
            for (padded_repairs, repair_extra_atoms) in
                (1..=*most).flat_map(|n| [(false, n), (true, n)])
            {
                let opts = ApproxOptions {
                    padded_repairs,
                    repair_extra_atoms,
                    ..opts()
                };
                for class in [Acyclic, HtwK(1)] {
                    let got = repairs_public(t, &class, &opts);
                    assert_eq!(got, built_repairs(t, &class, &opts), "{opts:?}");
                    repaired += got.len();
                }
            }
        }
        assert!(repaired > 500, "{repaired} repairs");
    }

    #[test]
    fn free_variables_change_approximations() {
        // §5.1.2 / Theorem 5.8: Q(x,y) :- E(x,y),E(y,z),E(z,x) has the
        // acyclic approximation E(x,y),E(y,x),E(x,x). Its looped block
        // {x, z} misses y, so the trivial-quotient cut must not fire.
        let q = parse_cq("Q(x, y) :- E(x,y), E(y,z), E(z,x)").unwrap();
        let rep = all_approximations(&q, &TwK(1), &opts());
        let expected = parse_cq("Q(x, y) :- E(x,y), E(y,x), E(x,x)").unwrap();
        assert!(
            rep.approximations.iter().any(|a| equivalent(a, &expected)),
            "got {:?}",
            rep.approximations
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn in_class_query_is_its_own_approximation() {
        let q = parse_cq("Q(x) :- E(x,y), E(y,z)").unwrap();
        let rep = all_approximations(&q, &TwK(1), &opts());
        assert_eq!(rep.approximations.len(), 1);
        assert!(equivalent(&rep.approximations[0], &q));
        // The identity is the first leaf and dominates all the others;
        // `Q^triv` is offered after it and rejected.
        assert_eq!((rep.partitions, rep.candidates), (1, 2));
        assert!(rep.dominated > 0);
    }

    #[test]
    fn theorem_5_1_first_case_reaches_no_leaf() {
        // Every loop-free quotient of an odd cycle keeps an odd cycle, and
        // the only loop-free quotient of K4↔ is K4 itself: outside the
        // class. Every other quotient has a block holding E's loop. The
        // walk reaches no leaf, and `Q^triv` is the one candidate.
        let k4 = (0..4).flat_map(|a| {
            (0..4)
                .filter(move |&b| b != a)
                .map(move |b| format!("E(v{a},v{b})"))
        });
        let cases = [
            ("E(x,y), E(y,z), E(z,x)".to_string(), 1),
            ("E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)".to_string(), 1),
            (k4.collect::<Vec<_>>().join(", "), 2),
        ];
        let trivial = parse_cq("Q() :- E(x, x)").unwrap();
        for (body, k) in cases {
            let q = parse_cq(&format!("Q() :- {body}")).unwrap();
            let rep = walk(&q, &TwK(k), &opts());
            assert!(rep.complete, "{body}");
            assert_eq!((rep.partitions, rep.candidates), (0, 1), "{body}");
            assert_eq!(rep.approximations.len(), 1, "{body}");
            assert!(equivalent(&rep.approximations[0], &trivial), "{body}");
        }
    }

    #[test]
    fn a_loop_of_one_relation_does_not_cut_when_another_occurs() {
        // Merging y and z loops E, but F's loop is nowhere: the walk must
        // reach that quotient, the one approximation, strictly below
        // `Q^triv = E(x,x), F(x,x)`.
        let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,x), F(x,w)").unwrap();
        let rep = all_approximations(&q, &TwK(1), &opts());
        assert!(rep.complete && rep.partitions > 0);
        assert_eq!(rep.approximations.len(), 1);
        let expected = parse_cq("Q() :- E(x,y), E(y,x), E(y,y), F(x,w)").unwrap();
        let got = &rep.approximations[0];
        assert!(equivalent(got, &expected), "{got}");
    }

    /// Ground truth for `candidates` (no repair succeeding): the distinct
    /// quotients of the in-class partitions that no strictly finer
    /// in-class partition refines and into which `Q^triv` does not map,
    /// over all Bell(n) partitions, each fully materialized, plus one for
    /// `Q^triv` — under the walk's own numbering: which partitions'
    /// *labelled* quotients coincide depends on it.
    fn exhaustive_candidates(t: &Pointed, class: &QueryClass) -> usize {
        let t = &in_walk_order(t);
        let (trivial, _) = quotient_pointed(t, &Partition::coarsest(t.structure.universe_size()));
        let mut in_class: Vec<(Partition, Pointed)> = Vec::new();
        for_each_partition(t.structure.universe_size(), |p| {
            let (qt, _) = quotient_pointed(t, p);
            if class.contains_tableau(&qt) {
                in_class.push((p.clone(), qt));
            }
            ControlFlow::Continue(())
        });
        #[allow(clippy::mutable_key_type)]
        let finest: HashSet<&Pointed> = in_class
            .iter()
            .filter(|(p, _)| !in_class.iter().any(|(f, _)| f != p && f.refines(p)))
            .map(|(_, qt)| qt)
            .filter(|qt| !order::hom_exists(&trivial, qt))
            .collect();
        finest.len() + 1
    }

    #[test]
    fn multi_relation_fingerprints_do_not_collide() {
        // Regression: without a length prefix per relation, the quotient
        // fingerprint of a multi-relation vocabulary was ambiguous (a
        // tuple of E could be misread as a tuple of F), silently dropping
        // distinct candidates. The triangle 0-1-2 keeps the identity out
        // of the class, so each merge of two corners is a finest in-class
        // partition; two of the three quotients, {E(0,0), E(0,1), E(1,0);
        // F(1,1)} and {E(0,0), E(0,1); F(1,0), F(1,1)}, read the same
        // once the counts are gone.
        let v = cqapx_structures::Vocabulary::new(vec![("E", 2), ("F", 2)]);
        let e = v.rel("E").unwrap();
        let f = v.rel("F").unwrap();
        let mut b = StructureBuilder::new(v, 3);
        b.add(e, &[2, 0]).add(e, &[0, 0]).add(e, &[0, 1]);
        b.add(f, &[1, 1]).add(f, &[1, 2]);
        let t = Pointed::boolean(b.finish());
        assert!(!TwK(1).contains_tableau(&t));
        let (_, meta) = all_approximations_tableaux(&t, &TwK(1), &opts());
        assert_eq!(meta.candidates, 3);
        assert_eq!(meta.candidates, exhaustive_candidates(&t, &TwK(1)));
    }

    #[test]
    fn c6_into_tw1_prunes_the_partition_tree() {
        // Branch-and-bound reaches 5 of Bell(6) = 203 partitions and
        // still offers every quotient of a finest in-class partition
        // with no fully looped block the exhaustive scan finds, then
        // `Q^triv`; the hypergraph discipline has no subgraph bound, so
        // it reaches more, and offers the same ones.
        let c6 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)").unwrap();
        let expected = exhaustive_candidates(&tableau_of(&c6), &TwK(1));
        let rep = walk(&c6, &TwK(1), &opts());
        assert!(rep.complete);
        assert_eq!((rep.partitions, rep.candidates, rep.nodes), (5, 6, 66));
        assert_eq!(rep.candidates, expected);
        assert!(rep.dominated > 0);
        let ac = walk(&c6, &Acyclic, &opts());
        assert_eq!((ac.partitions, ac.nodes), (31, 97));
        assert_eq!(ac.candidates, expected);
        assert!(ac.dominated > rep.dominated);
    }

    #[test]
    fn incomplete_flag_when_capped() {
        let q = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,g), E(g,h), E(h,a)")
            .unwrap();
        // C8 reaches 14 leaves. The coarsest partition's quotient is
        // offered after the walk whether or not it was capped, so even
        // a cap of one leaf leaves a sound approximation.
        for max_partitions in [10, 1] {
            let mut o = opts();
            o.max_partitions = max_partitions;
            let rep = walk(&q, &TwK(1), &o);
            assert!(!rep.complete);
            assert_eq!(rep.partitions, max_partitions);
            assert!(!rep.approximations.is_empty());
            for a in &rep.approximations {
                assert!(contained_in(a, &q));
                assert!(TwK(1).contains_tableau(&tableau_of(a)));
            }
            // Bipartite but unbalanced: §5 decides it, whatever the cap.
            let (got, meta) = all_approximations_tableaux(&tableau_of(&q), &TwK(1), &o);
            assert!(meta.complete && got.len() == 1);
        }
    }

    #[test]
    fn section_5_decides_before_walking() {
        // Directed C8 (unbalanced), and a triangle over a binary relation
        // of another name beside a ternary one no atom uses (not
        // bipartite): one approximation each, the walk's, and no node.
        let v = Vocabulary::new(vec![("R", 2), ("T", 3)]);
        let r = v.rel("R").unwrap();
        let mut b = StructureBuilder::new(v, 3);
        b.add(r, &[0, 1]).add(r, &[1, 2]).add(r, &[2, 0]);
        let c8 = (0..8).map(|i| (i, (i + 1) % 8)).collect::<Vec<_>>();
        let cases = [
            Pointed::boolean(Structure::digraph(8, &c8)),
            Pointed::boolean(b.finish()),
        ];
        for t in &cases {
            let (got, meta) = all_approximations_tableaux(t, &TwK(1), &opts());
            let (walked, by_walk) = walk_approximations_tableaux(t, &TwK(1), &opts());
            assert!(meta.complete && by_walk.nodes > 0);
            let counts = (meta.nodes, meta.partitions, meta.candidates);
            assert_eq!(counts, (0, 0, 1));
            assert!(got.len() == 1 && walked.len() == 1);
            assert!(isomorphic_pointed(&got[0], &walked[0]));
        }
        // Unminimized, the walk's answer for C8 is a quotient, not
        // `Q^triv₂`: it walks. A head, or a second relation, walks too.
        let unminimized = ApproxOptions {
            minimize: false,
            ..opts()
        };
        let (_, meta) = all_approximations_tableaux(&cases[0], &TwK(1), &unminimized);
        assert!(meta.nodes > 0);
        for q in [
            "Q(x) :- E(x,y), E(y,z), E(z,x)",
            "Q() :- E(x,y), F(y,x), E(y,z)",
        ] {
            let (_, meta) =
                all_approximations_tableaux(&tableau_of(&parse_cq(q).unwrap()), &TwK(1), &opts());
            assert!(meta.nodes > 0, "{q}");
        }
    }

    #[test]
    fn unminimized_results_are_quotients_not_cores() {
        // An in-class query that is not a core: its only candidate
        // besides `Q^triv` is itself. The antichain works on the core either way; what comes
        // back is the quotient as offered unless minimization is on.
        let t = tableau_of(&parse_cq("Q(x) :- E(x,y), E(x,z), E(z,w)").unwrap());
        let unminimized = ApproxOptions {
            minimize: false,
            ..opts()
        };
        let (got, meta) = all_approximations_tableaux(&t, &TwK(1), &unminimized);
        assert_eq!((got.len(), meta.candidates), (1, 2));
        assert!(isomorphic_pointed(&got[0], &t));
        let (got, _) = all_approximations_tableaux(&t, &TwK(1), &opts());
        assert_eq!(got[0].structure.universe_size(), 3);
        assert!(order::hom_equivalent(&got[0], &t));
    }

    #[test]
    fn walk_order_completes_atoms_early() {
        // A variable of highest degree first, then always one next to
        // what is placed: the triangle closes before the pendant path
        // is touched.
        let q = parse_cq("Q() :- E(p1,p2), E(p2,a), E(a,h), E(b,h), E(a,b), E(h,c)").unwrap();
        let (t, ordered) = (tableau_of(&q), in_walk_order(&tableau_of(&q)));
        assert!(isomorphic_pointed(&t, &ordered));
        let e = ordered.structure.vocabulary().rel("E").unwrap();
        let closes_at = |a: &[u32]| a.iter().max().copied();
        let mut depths: Vec<_> = ordered.structure.tuples(e).map(closes_at).collect();
        depths.sort_unstable();
        assert_eq!(depths, [1, 2, 2, 3, 4, 5].map(Some));
    }

    /// The quotient of the atoms over `p`'s variables by `p`.
    fn prefix_quotient(t: &Pointed, p: &Partition) -> Pointed {
        let s = &t.structure;
        let mut b = StructureBuilder::new(s.vocabulary().clone(), p.n_blocks());
        for rel in s.vocabulary().rel_ids() {
            let inside = |a: &&[u32]| a.iter().all(|&e| (e as usize) < p.len());
            for a in s.tuples(rel).filter(inside) {
                let image: Vec<u32> = a.iter().map(|&e| p.block_of(e as usize)).collect();
                b.add(rel, &image);
            }
        }
        Pointed::boolean(b.finish())
    }

    /// Whether `Q^triv` maps into the prefix quotient with its head —
    /// never while a distinguished variable is not placed.
    fn trivial_maps_into_prefix(t: &Pointed, p: &Partition) -> bool {
        let placed = |&x: &u32| ((x as usize) < p.len()).then(|| p.block_of(x as usize));
        let Some(head) = t.distinguished().iter().map(placed).collect() else {
            return false;
        };
        let (trivial, _) = quotient_pointed(t, &Partition::coarsest(t.structure.universe_size()));
        order::hom_exists(
            &trivial,
            &Pointed::new(prefix_quotient(t, p).structure, head),
        )
    }

    /// At every prefix `descend` lets the walk reach, the carried graph's
    /// verdict is the class's on the materialized prefix quotient —
    /// out-of-class prefixes and what lies below them included — and the
    /// carried loops say whether `Q^triv` maps into it. (The loops speak
    /// for the newest block only, so below a prefix they answered `true`
    /// for, the walk's cut, the answer is the ancestor's.)
    fn assert_carried_graphs_agree(t: &Pointed, descend: impl Fn(&Partition) -> bool) {
        let n = t.structure.universe_size();
        for class in [TwK(1), TwK(2), TwK(3)] {
            let mut graphs = PrefixGraphs::new(t, &class);
            let mut cut = vec![false; n + 1];
            walk_partitions(n, |p| {
                let d = p.len();
                cut[d] = graphs.holds_trivial(p) || cut[d - 1];
                assert_eq!(cut[d], trivial_maps_into_prefix(t, p), "{p:?} of {t:?}");
                let expected = class.contains_tableau(&prefix_quotient(t, p));
                assert_eq!(graphs.enter(p, &class), expected, "{p:?} of {t:?}");
                match descend(p) {
                    true => Walk::Descend,
                    false => Walk::Prune,
                }
            });
        }
    }

    /// Loops, antiparallel and repeated pairs, ternary atoms, two
    /// relations, variables that occur in no atom, and a head of up to
    /// two variables on some cases.
    fn mixed_tableau(max_n: usize) -> impl Strategy<Value = Pointed> {
        (2..=max_n).prop_flat_map(|n| {
            let var = 0..n as u32;
            let edges = proptest::collection::vec((var.clone(), var.clone(), 0..2u32), 0..=8);
            let triples = proptest::collection::vec((var.clone(), var.clone(), var.clone()), 0..=2);
            let head = proptest::collection::vec(var, 0..=2);
            (edges, triples, head).prop_map(move |(edges, triples, head)| {
                let vocab = Vocabulary::new(vec![("E", 2), ("R", 3)]);
                let (e, r) = (vocab.rel("E").unwrap(), vocab.rel("R").unwrap());
                let mut b = StructureBuilder::new(vocab, n);
                for &(x, y, both_ways) in &edges {
                    b.add(e, &[x, y]);
                    if both_ways == 1 {
                        b.add(e, &[y, x]);
                    }
                }
                for &(x, y, z) in &triples {
                    b.add(r, &[x, y, z]);
                }
                Pointed::new(b.finish(), head.clone())
            })
        })
    }

    /// Two fingerprints whose hashes collide share a chain: each is found
    /// with its own verdict past the other, and an unseen one that
    /// collides with both is not found.
    #[test]
    fn colliding_fingerprints_are_told_apart() {
        let mut seen = Fingerprints::default();
        let write = |seen: &mut Fingerprints, fp: &[u32]| seen.open().0.extend_from_slice(fp);
        write(&mut seen, &[1, 2, 3]);
        seen.keep(true);
        write(&mut seen, &[1, 2, 4]);
        let first = seen.last.values().copied().next().unwrap();
        // Point the second fingerprint's hash at the first: a collision.
        seen.last.insert(seen.hash(), first);
        assert_eq!(seen.seen(), None);
        seen.keep(false);
        write(&mut seen, &[1, 2, 3]);
        assert_eq!(seen.seen(), Some(true));
        write(&mut seen, &[1, 2, 4]);
        assert_eq!(seen.seen(), Some(false));
        for unseen in [&[1, 2, 5][..], &[1, 2], &[1, 2, 3, 4]] {
            write(&mut seen, unseen);
            let second = *seen.last.values().max().unwrap();
            seen.last.insert(seen.hash(), second);
            assert_eq!(seen.seen(), None, "{unseen:?}");
        }
    }

    /// The walk's bookkeeping as it was before one flat scratch and one
    /// fingerprint arena held it, kept as their oracle: per-depth
    /// `Vec`s of graph states, verdicts and loop words, `n + 1` separate
    /// lists of the kept leaves alive at each depth, and a map from each
    /// boxed fingerprint to its verdict, over per-relation buffers.
    mod oracle {
        use crate::approx::{repairs_public, ApproxOptions, ApproxReportMeta, RESTART_NODES};
        use crate::classes::{ClassKind, QueryClass};
        use cqapx_graphs::BitGraph;
        use cqapx_hypergraphs::Hypergraph;
        use cqapx_structures::fxhash::{FxHashMap, FxHashSet};
        use cqapx_structures::partition::{walk_partitions, Walk};
        use cqapx_structures::{Partition, Pointed, RelId, StructureBuilder};
        use std::ops::ControlFlow;

        struct PrefixGraphs<'a> {
            /// The atoms of arity ≥ 1, each with its relation's bit;
            /// `atoms[done[d - 1]..done[d]]` have largest variable `d − 1`.
            atoms: Vec<(usize, &'a [u32])>,
            done: Vec<usize>,
            /// The graph of the level derived last.
            graph: BitGraph,
            /// Per depth, the [`BitGraph::state`] of that level's graph.
            saved: Vec<u64>,
            /// The class's verdict per depth; empty for a hypergraph-based class,
            /// which reads no graph.
            verdicts: Vec<bool>,
            /// `all.len()` words per depth: the loop bits of that depth's block.
            loops: Vec<u64>,
            /// A bit for every relation of arity ≥ 1 that `Q` uses: arity-0 atoms
            /// are in every prefix quotient.
            all: Vec<u64>,
            head: &'a [u32],
        }

        impl<'a> PrefixGraphs<'a> {
            /// Over the atoms and the head of `t`.
            fn new(t: &'a Pointed, class: &QueryClass) -> Self {
                let s = &t.structure;
                let n = s.universe_size();
                let mut atoms: Vec<(usize, &[u32])> = Vec::new();
                let mut relations = 0;
                for rel in s.vocabulary().rel_ids() {
                    if !s.flat_tuples(rel).is_empty() {
                        atoms.extend(s.tuples(rel).map(|a| (relations, a)));
                        relations += 1;
                    }
                }
                atoms.sort_by_key(|(_, a)| a.iter().max().copied());
                let done = |d| atoms.partition_point(|(_, a)| a.iter().all(|&e| (e as usize) < d));
                let mut all = vec![0u64; relations.div_ceil(64)];
                (0..relations).for_each(|r| all[r / 64] |= 1 << (r % 64));
                let mut graph = BitGraph::new(n);
                let (mut saved, mut verdicts) = (Vec::new(), Vec::new());
                if class.kind() == ClassKind::SubgraphClosed {
                    verdicts = vec![class.contains_graph(&mut graph); n + 1];
                    saved = graph.state().repeat(n + 1);
                }
                PrefixGraphs {
                    graph,
                    saved,
                    verdicts,
                    done: (0..=n).map(done).collect(),
                    atoms,
                    loops: vec![0; (n + 1) * all.len()],
                    all,
                    head: t.distinguished(),
                }
            }

            /// Derives the loops of the block of prefix `p`'s newest variable and
            /// answers whether `Q^triv` maps into the prefix quotient through that
            /// block: it holds
            /// every relation's loop and every distinguished variable. Along a
            /// branch that no earlier answer cut, no other block can: its loops
            /// and its part of the head were complete at the level where its last
            /// variable joined it, which would have answered `true` already.
            fn holds_trivial(&mut self, p: &Partition) -> bool {
                let (d, labels, w) = (p.len(), p.labels(), self.all.len());
                let Some(&b) = labels.last() else {
                    return false;
                };
                let (before, here) = self.loops.split_at_mut(d * w);
                let here = &mut here[..w];
                match labels[..d - 1].iter().rposition(|&l| l == b) {
                    Some(j) => here.copy_from_slice(&before[(j + 1) * w..(j + 2) * w]),
                    None => here.fill(0),
                }
                for &(bit, a) in &self.atoms[self.done[d - 1]..self.done[d]] {
                    if a.iter().all(|&e| labels[e as usize] == b) {
                        here[bit / 64] |= 1 << (bit % 64);
                    }
                }
                *here == *self.all
                    && self
                        .head
                        .iter()
                        .all(|&x| labels.get(x as usize) == Some(&b))
            }

            /// Derives the graph of prefix `p` from its parent's and returns the
            /// class's verdict on the prefix quotient: `false` rules out every
            /// quotient below. A hypergraph-based class rules out nothing here.
            fn enter(&mut self, p: &Partition, class: &QueryClass) -> bool {
                let (d, labels) = (p.len(), p.labels());
                if self.verdicts.is_empty() {
                    return true;
                }
                if d == 0 {
                    return self.verdicts[0];
                }
                let len = self.graph.state().len();
                self.graph.set_state(&self.saved[(d - 1) * len..][..len]);
                let g = &mut self.graph;
                let mut grew = false;
                for (_, a) in &self.atoms[self.done[d - 1]..self.done[d]] {
                    for (i, &x) in a.iter().enumerate() {
                        for &y in &a[i + 1..] {
                            grew |= g.add_edge(labels[x as usize], labels[y as usize]);
                        }
                    }
                }
                self.verdicts[d] = if grew {
                    class.contains_graph(g)
                } else {
                    self.verdicts[d - 1]
                };
                self.saved[d * len..][..len].copy_from_slice(g.state());
                self.verdicts[d]
            }
        }

        pub(super) fn walk(
            t: &Pointed,
            class: &QueryClass,
            max_partitions: u64,
            mut keep_walking: impl FnMut() -> bool,
            mut leaf: impl FnMut(&Partition, bool) -> ControlFlow<(), bool>,
        ) -> ApproxReportMeta {
            let n = t.structure.universe_size();
            let mut graphs = PrefixGraphs::new(t, class);
            let known_in_class = class.kind() == ClassKind::SubgraphClosed;
            // The in-class leaves kept so far, `n + 1` words each: per element
            // the previous element of its block (`NONE` for a block's first),
            // then `tail`, the least index from which all elements are
            // singletons. `alive[d]` lists the kept leaves whose restriction to
            // the first `d` elements refines the current prefix of length `d`.
            const NONE: u32 = u32::MAX;
            let mut kept: Vec<u32> = Vec::new();
            let mut alive: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
            let (mut nodes, mut reached, mut dominated) = (0u64, 0u64, 0u64);
            let complete = walk_partitions(n, |p| {
                nodes += 1;
                if nodes == RESTART_NODES && !keep_walking() {
                    return Walk::Stop;
                }
                let (d, labels) = (p.len(), p.labels());
                if d > 0 {
                    // A kept leaf stays alive iff element `d-1` opens a block in
                    // it or joins its predecessor's block in the prefix too.
                    let (parents, here) = alive.split_at_mut(d);
                    here[0].clear();
                    here[0].extend(parents[d - 1].iter().copied().filter(|&e| {
                        let prev = kept[e * (n + 1) + d - 1];
                        prev == NONE || labels[prev as usize] == labels[d - 1]
                    }));
                    // Blocks inside the prefix, singletons after it: the leaf
                    // refines every partition below.
                    if here[0].iter().any(|&e| kept[e * (n + 1) + n] as usize <= d) {
                        dominated += 1;
                        return Walk::Prune;
                    }
                }
                if graphs.holds_trivial(p) {
                    return Walk::Prune;
                }
                if !graphs.enter(p, class) {
                    return Walk::Prune;
                }
                if d < n {
                    return Walk::Descend;
                }
                if reached == max_partitions {
                    return Walk::Stop;
                }
                reached += 1;
                let ControlFlow::Continue(in_class) = leaf(p, known_in_class) else {
                    return Walk::Stop;
                };
                if in_class {
                    let prev = |x: usize| labels[..x].iter().rposition(|&b| b == labels[x]);
                    let tail = (0..n).rev().find(|&x| prev(x).is_some());
                    // Every ancestor's prefix is this leaf's own.
                    let entry = kept.len() / (n + 1);
                    alive.iter_mut().for_each(|list| list.push(entry));
                    kept.extend((0..n).map(|x| prev(x).map_or(NONE, |j| j as u32)));
                    kept.push(tail.map_or(0, |x| x as u32 + 1));
                }
                Walk::Descend
            });
            ApproxReportMeta {
                nodes,
                partitions: reached,
                dominated,
                complete,
                ..ApproxReportMeta::default()
            }
        }

        pub(super) fn candidates(
            t: &Pointed,
            class: &QueryClass,
            opts: &ApproxOptions,
            keep_walking: impl FnMut() -> bool,
            mut emit: impl FnMut(Pointed),
        ) -> ApproxReportMeta {
            let s = &t.structure;
            let vocab = s.vocabulary().clone();
            // Per relation: (id, arity, concatenated source tuple elements).
            let rels: Vec<(RelId, usize, &[u32])> = vocab
                .rel_ids()
                .map(|rel| (rel, vocab.arity(rel), s.flat_tuples(rel)))
                .collect();
            let wants_repairs =
                class.kind() == ClassKind::HypergraphClosed && opts.repair_extra_atoms > 0;

            // Fingerprint → was the plain quotient in the class.
            let mut seen_fp: FxHashMap<Box<[u32]>, bool> = FxHashMap::default();
            // Repaired quotients can coincide with each other and with in-class
            // quotients, so a search that repairs dedups whole candidates too.
            // (`Structure`'s interior mutability is only its derived index cache,
            // which equality and hashing ignore — the key is logically immutable.)
            #[allow(clippy::mutable_key_type)]
            let mut seen_structs: FxHashSet<Pointed> = FxHashSet::default();
            // Reusable scratch: per-relation sorted/deduplicated mapped tuples,
            // a u64 packing buffer for low arities, a chunk-sort order, a swap
            // buffer for the generic path, and the fingerprint itself.
            let mut mapped_rel: Vec<Vec<u32>> = vec![Vec::new(); rels.len()];
            let mut packed: Vec<u64> = Vec::new();
            let mut order: Vec<usize> = Vec::new();
            let mut sorted: Vec<u32> = Vec::new();
            let mut fp: Vec<u32> = Vec::new();
            let mut rows = Hypergraph::default();

            let mut visit = |p: &Partition, known_in_class: bool| -> bool {
                let labels = p.labels();
                fp.clear();
                fp.push(p.n_blocks() as u32);
                // The mapped distinguished tuple is part of the pointed quotient's
                // identity: equal structures with differently-mapped free
                // variables are different candidates.
                fp.extend(t.distinguished().iter().map(|&x| labels[x as usize]));
                for (ri, (_, arity, flat)) in rels.iter().enumerate() {
                    let w = *arity;
                    let buf = &mut mapped_rel[ri];
                    buf.clear();
                    if w == 0 {
                        fp.push(0);
                        continue;
                    }
                    if w <= 2 {
                        // Pack each mapped tuple into one u64: a plain integer
                        // sort + dedup, much cheaper than slice-compare sorting.
                        packed.clear();
                        if w == 1 {
                            packed.extend(flat.iter().map(|&e| labels[e as usize] as u64));
                        } else {
                            for pair in flat.chunks_exact(2) {
                                packed.push(
                                    ((labels[pair[0] as usize] as u64) << 32)
                                        | labels[pair[1] as usize] as u64,
                                );
                            }
                        }
                        packed.sort_unstable();
                        packed.dedup();
                        for &v in &packed {
                            if w == 2 {
                                buf.push((v >> 32) as u32);
                            }
                            buf.push(v as u32);
                        }
                    } else {
                        buf.extend(flat.iter().map(|&e| labels[e as usize]));
                        let n_tuples = buf.len() / w;
                        order.clear();
                        order.extend(0..n_tuples);
                        order.sort_unstable_by(|&a, &b| {
                            buf[a * w..(a + 1) * w].cmp(&buf[b * w..(b + 1) * w])
                        });
                        sorted.clear();
                        let mut prev: Option<usize> = None;
                        for &i in &order {
                            let tup = &buf[i * w..(i + 1) * w];
                            if prev.is_none_or(|pi| &buf[pi * w..(pi + 1) * w] != tup) {
                                sorted.extend_from_slice(tup);
                                prev = Some(i);
                            }
                        }
                        std::mem::swap(buf, &mut sorted);
                    }
                    // Prefix the relation's deduplicated tuple count: relations
                    // are emitted in fixed order and each relation's arity is
                    // fixed, so the length prefix makes the encoding uniquely
                    // parseable — without it, a tuple of one relation could be
                    // misread as belonging to the next, making distinct
                    // quotients collide on multi-relation vocabularies.
                    fp.push((buf.len() / w) as u32);
                    fp.extend_from_slice(buf);
                }
                if let Some(&in_class) = seen_fp.get(fp.as_slice()) {
                    return in_class;
                }

                // First sighting of this quotient: unless the walk knows it,
                // class-check it from the raw buffers; materialize a `Pointed`
                // only when it is actually a candidate (or feeds the repair
                // search).
                let n_blocks = p.n_blocks();
                let tuples = (rels.iter().zip(mapped_rel.iter()))
                    .flat_map(|((_, w, _), buf)| buf.chunks_exact(*w));
                let in_class =
                    known_in_class || class.contains_quotient(n_blocks, tuples, &mut rows);
                if !in_class && !wants_repairs {
                    seen_fp.insert(fp.as_slice().into(), false);
                    return false;
                }

                let mut b = StructureBuilder::new(vocab.clone(), n_blocks);
                for ((rel, w, _), buf) in rels.iter().zip(mapped_rel.iter()) {
                    b.reserve(*rel, buf.len() / w);
                    for tup in buf.chunks_exact(*w) {
                        b.add(*rel, tup);
                    }
                }
                // After the block count, `fp` opens with the mapped distinguished tuple.
                let qt = Pointed::new(b.finish(), fp[1..=t.distinguished().len()].to_vec());

                seen_fp.insert(fp.as_slice().into(), in_class);
                if in_class {
                    if !wants_repairs || seen_structs.insert(qt.clone()) {
                        emit(qt);
                    }
                } else if wants_repairs {
                    for repaired in repairs_public(&qt, class, opts) {
                        if seen_structs.insert(repaired.clone()) {
                            emit(repaired);
                        }
                    }
                }
                in_class
            };
            let counts = walk(t, class, opts.max_partitions, keep_walking, |p, k| {
                ControlFlow::Continue(visit(p, k))
            });
            visit(&Partition::coarsest(s.universe_size()), true);
            counts
        }
    }

    /// On random tableaux (`mixed_tableau`, restricted to its active
    /// domain) walked into `TW(1)`, `TW(2)`, `AC` and `HTW(2)`, uncapped
    /// and capped at three leaves, minimized and not: the flat scratch
    /// and the fingerprint arena stream the candidates the oracle's
    /// bookkeeping streams, in order, with the same `nodes`,
    /// `partitions`, `dominated` and `complete`, and the search returns
    /// the approximations the oracle's stream leaves in the antichain,
    /// in order, with that many candidates.
    fn check_walk_against_oracle(name: &str, cases: u32, max_n: usize) {
        let (mut rng, strategy) = (TestRng::deterministic(name), mixed_tableau(max_n));
        let mut walked = 0;
        for _ in 0..cases {
            let t = strategy.generate(&mut rng).expect("nothing is filtered");
            let (s, remap) = t.structure.restrict_to_adom();
            let head = t.distinguished().iter().filter_map(|&x| remap[x as usize]);
            if s.universe_size() == 0 {
                continue;
            }
            let t = Pointed::new(s, head.collect());
            let ordered = in_walk_order(&t);
            for class in [TwK(1), TwK(2), Acyclic, HtwK(2)] {
                for (max_partitions, minimize) in [(2_000_000, true), (3, true), (2_000_000, false)]
                {
                    let opts = ApproxOptions {
                        max_partitions,
                        minimize,
                        ..opts()
                    };
                    let mut got = Vec::new();
                    let meta = candidates(&ordered, &class, &opts, || true, |c| got.push(c));
                    let mut want = Vec::new();
                    let want_meta =
                        oracle::candidates(&ordered, &class, &opts, || true, |c| want.push(c));
                    let what = format!("{} {opts:?} on {t:?}", class.name());
                    let counts =
                        |m: &ApproxReportMeta| (m.nodes, m.partitions, m.dominated, m.complete);
                    assert_eq!(counts(&meta), counts(&want_meta), "{what}");
                    assert_eq!(got, want, "{what}");
                    let mut antichain = MinimalAntichain::new(minimize);
                    want.into_iter().for_each(|c| _ = antichain.offer(c));
                    let (found, meta) = walk_approximations_tableaux(&t, &class, &opts);
                    assert_eq!(
                        (meta.candidates, counts(&meta)),
                        (got.len(), counts(&want_meta))
                    );
                    assert_eq!(found, antichain.into_members(), "{what}");
                    walked += meta.nodes;
                }
            }
        }
        assert!(walked > u64::from(cases), "{walked} nodes walked");
    }

    #[test]
    fn walk_agrees_with_oracle_bookkeeping() {
        check_walk_against_oracle("walk_oracle", 32, 6);
    }

    /// The deep variant CI runs in release mode after the default suite.
    #[test]
    #[ignore = "deep: 512 cases up to 8 variables, run in release by CI"]
    fn deep_walk_agrees_with_oracle_bookkeeping() {
        check_walk_against_oracle("deep_walk_oracle", 512, 8);
    }

    fn check_carried_graphs(name: &str, cases: u32, max_n: usize) {
        let (mut rng, strategy) = (TestRng::deterministic(name), mixed_tableau(max_n));
        for _ in 0..cases {
            let t = strategy.generate(&mut rng).expect("nothing is filtered");
            assert_carried_graphs_agree(&t, |_| true);
        }
        // Rows wider than one word: a 70-variable path, in every class,
        // along the identity's branch and one step off it.
        let path: Vec<(u32, u32)> = (0..69).map(|i| (i, i + 1)).collect();
        let t = in_walk_order(&Pointed::boolean(Structure::digraph(70, &path)));
        assert_carried_graphs_agree(&t, |p| p.n_blocks() == p.len());
        // Loop bits wider than one word: 65 unary relations, split
        // between two variables, and a third variable on an edge.
        let names: Vec<String> = (0..65).map(|i| format!("U{i}")).collect();
        let mut rels: Vec<(&str, usize)> = names.iter().map(|u| (u.as_str(), 1)).collect();
        rels.push(("E", 2));
        let vocab = Vocabulary::new(rels);
        let e = vocab.rel("E").unwrap();
        let mut b = StructureBuilder::new(vocab.clone(), 3);
        for (i, u) in names.iter().enumerate() {
            b.add(vocab.rel(u).unwrap(), &[i as u32 % 2]);
        }
        b.add(e, &[0, 2]).add(e, &[2, 1]);
        assert_carried_graphs_agree(&Pointed::boolean(b.finish()), |_| true);
    }

    #[test]
    fn carried_graph_agrees_with_materialized_prefix_quotient() {
        check_carried_graphs("carried_graph", 64, 7);
    }

    /// The deep variant CI runs in release mode after the default suite.
    #[test]
    #[ignore = "deep: 512 cases up to 8 variables, run in release by CI"]
    fn deep_carried_graph_agrees_with_materialized_prefix_quotient() {
        check_carried_graphs("deep_carried_graph", 512, 8);
    }
}
