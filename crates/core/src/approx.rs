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
//!   wilder vocabularies).
//!
//! The exact pipeline is `walk the partition tree finest first →
//! fingerprint and class-check each quotient reached → stream the
//! candidates through a →-minimal antichain → minimize (core)`. The walk
//! is a branch-and-bound with two cuts (`for_each_class_partition`).
//! *Domination*, for every class: the canonical map `T_Q/π → T_Q/π′` of a
//! refinement `π ≤ π′` is a homomorphism, so once `T_Q/π` is in the
//! class, no coarsening of `π` — nor any repair built on one — can be
//! →-minimal without being equivalent to it; partitions arrive after
//! all their refinements, so only the finest in-class quotients are
//! ever built. *Subgraph closure*, for the graph-based classes: a prefix
//! of a restricted growth string fixes a subgraph of every quotient
//! below it, so an out-of-class prefix cuts its whole subtree.
//! Corollaries 4.3 and 6.5 bound the search by single-exponential time,
//! and Proposition 4.11 shows no polynomial algorithm exists unless
//! P = NP. [`one_approximation`] is the anytime variant: greedy merging
//! with a beam, sound (`Q' ⊆ Q` and `Q' ∈ C` always) but not guaranteed
//! →-minimal.

use crate::classes::{ClassKind, QueryClass};
use cqapx_cq::{query_from_tableau, tableau_of, ConjunctiveQuery};
use cqapx_structures::fxhash::{FxHashMap, FxHashSet};
use cqapx_structures::iso::{signature_pointed, IsoSignature};
use cqapx_structures::order::{self, MinimalAntichain};
use cqapx_structures::partition::{walk_partitions, Walk};
use cqapx_structures::{
    core_of, quotient::quotient_pointed, Partition, Pointed, SearchBudget, StructureBuilder,
};
use std::collections::HashSet;
use std::ops::ControlFlow;

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
    /// incomplete; the trivial quotient is still offered.
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

/// The result of an approximation computation.
#[derive(Debug, Clone)]
pub struct ApproxReport {
    /// The approximations, as queries (minimized when requested).
    pub approximations: Vec<ConjunctiveQuery>,
    /// The approximations, as tableaux.
    pub tableaux: Vec<Pointed>,
    /// Number of candidates offered to the →-minimal antichain: the
    /// distinct quotients of the in-class partitions no finer in-class
    /// partition refines, plus the repaired out-of-class ones.
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
}

/// A stable, hashable cache key for approximation results: the tableau's
/// isomorphism-invariant signature plus the class name and an options
/// fingerprint.
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
    /// The class name, e.g. `"TW(1)"` (classes are identified by name).
    pub class: String,
    /// The [`ApproxOptions`] the result was computed under.
    pub options: ApproxOptions,
}

impl ApproxCacheKey {
    /// Builds the key for approximating tableau `t` within `class` under
    /// `opts`.
    pub fn new(t: &Pointed, class: &dyn QueryClass, opts: &ApproxOptions) -> ApproxCacheKey {
        ApproxCacheKey {
            signature: signature_pointed(t),
            class: class.name(),
            options: opts.clone(),
        }
    }
}

/// Walks the partitions of `t`'s variables whose quotients can be
/// candidates for `class`, finest first, calling `leaf` on at most
/// `max_partitions` of them; `leaf` answers whether the plain quotient is
/// in the class. Returns how many leaves were reached, how many leaves
/// and subtrees the domination bound skipped, and whether the walk ran
/// to completion (`leaf` breaking, or the cap, ends it).
///
/// **Domination** (module docs). A partition arrives after all of its
/// refinements, so the in-class leaves reached are the finest ones; they
/// are kept, and a prefix is cut when one refines everything below it.
///
/// **Subgraph closure.** For a [`ClassKind::SubgraphClosed`] class a
/// prefix of length `d` fixes the images of the atoms over the first
/// `d` variables, and those form a subgraph of every quotient below the
/// prefix; so once [`QueryClass::contains_quotient`] rejects them, no
/// quotient below is in the class and the subtree is cut. (Only depths
/// at which some atom has just become fully labelled are tested.)
/// [`ClassKind::HypergraphClosed`] classes have the first bound only: a
/// variable prefix is not an induced subhypergraph, and their repairs
/// start from out-of-class quotients.
pub(crate) fn for_each_class_partition(
    t: &Pointed,
    class: &dyn QueryClass,
    max_partitions: u64,
    mut leaf: impl FnMut(&Partition) -> ControlFlow<(), bool>,
) -> (u64, u64, bool) {
    let s = &t.structure;
    let n = s.universe_size();
    // Atoms in the order they become fully labelled, and per depth how
    // many are complete: `done[d]` counts the atoms over `{0, …, d-1}`.
    let mut atoms: Vec<&[u32]> = Vec::new();
    if class.kind() == ClassKind::SubgraphClosed {
        let rels = s.vocabulary().rel_ids();
        atoms.extend(rels.flat_map(|rel| s.tuples(rel)).map(|a| &a[..]));
        atoms.sort_by_key(|a| a.iter().max().copied());
    }
    let done: Vec<usize> = (0..=n)
        .map(|d| atoms.partition_point(|a| a.iter().all(|&e| (e as usize) < d)))
        .collect();
    let mut mapped: Vec<u32> = Vec::new();
    // The in-class leaves kept so far, `n + 1` words each: per element
    // the previous element of its block (`NONE` for a block's first),
    // then `tail`, the least index from which all elements are
    // singletons. `alive[d]` lists the kept leaves whose restriction to
    // the first `d` elements refines the current prefix of length `d`.
    const NONE: u32 = u32::MAX;
    let mut kept: Vec<u32> = Vec::new();
    let mut alive: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    let (mut reached, mut dominated) = (0u64, 0u64);
    let complete = walk_partitions(n, |p| {
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
        if d == n {
            if reached == max_partitions {
                return Walk::Stop;
            }
            reached += 1;
            let ControlFlow::Continue(in_class) = leaf(p) else {
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
            return Walk::Descend;
        }
        if done[d] == done[d - 1] {
            return Walk::Descend;
        }
        mapped.clear();
        for a in &atoms[..done[d]] {
            mapped.extend(a.iter().map(|&e| labels[e as usize]));
        }
        let mut rest = mapped.as_slice();
        let mut images = atoms[..done[d]].iter().map(|a| {
            let (image, tail) = rest.split_at(a.len());
            rest = tail;
            image
        });
        match class.contains_quotient(p.n_blocks(), &mut images) {
            Some(false) => Walk::Prune,
            _ => Walk::Descend,
        }
    });
    (reached, dominated, complete)
}

/// Streams the candidate tableaux for a query tableau into `emit`, in
/// the order the partition walk meets them: the in-class quotients no
/// finer in-class quotient dominates and, for hypergraph-based classes,
/// the repaired out-of-class ones. Returns the walk's counts.
///
/// Distinct partitions frequently induce the *same* quotient, so each
/// quotient is fingerprinted first — block count, mapped distinguished
/// tuple and the per-relation sorted mapped tuples, computed into
/// reusable scratch buffers with no structure built — and only unseen
/// fingerprints get materialized and class-checked. The fingerprint
/// determines the pointed quotient, so in-class quotients need no second
/// dedup among themselves.
///
/// A walk the cap cut short has not reached its last leaf, the coarsest
/// partition, so that one's quotient — the trivial query, in every
/// built-in class — is visited on the way out.
fn candidates(
    t: &Pointed,
    class: &dyn QueryClass,
    opts: &ApproxOptions,
    mut emit: impl FnMut(Pointed),
) -> (u64, u64, bool) {
    let s = &t.structure;
    let vocab = s.vocabulary().clone();
    // Per relation: (id, arity, concatenated source tuple elements).
    let rels: Vec<(cqapx_structures::RelId, usize, &[u32])> = vocab
        .rel_ids()
        .map(|rel| (rel, vocab.arity(rel), s.flat_tuples(rel)))
        .collect();
    let wants_repairs = class.kind() == ClassKind::HypergraphClosed && opts.repair_extra_atoms > 0;

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

    let mut visit = |p: &Partition| -> bool {
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

        // First sighting of this quotient: class-check it from the raw
        // buffers when the class supports that; materialize a `Pointed`
        // only when it is actually a candidate (or feeds the repair
        // search).
        let n_blocks = p.n_blocks();
        let verdict = class.contains_quotient(
            n_blocks,
            &mut rels
                .iter()
                .zip(mapped_rel.iter())
                .filter(|((_, w, _), _)| *w > 0)
                .flat_map(|((_, w, _), buf)| buf.chunks_exact(*w)),
        );
        if verdict == Some(false) && !wants_repairs {
            seen_fp.insert(fp.as_slice().into(), false);
            return false;
        }

        let mut b = StructureBuilder::new(vocab.clone(), n_blocks);
        for ((rel, w, _), buf) in rels.iter().zip(mapped_rel.iter()) {
            if *w == 0 {
                continue;
            }
            for tup in buf.chunks_exact(*w) {
                b.add(*rel, tup);
            }
        }
        // After the block count, `fp` opens with the mapped distinguished tuple.
        let qt = Pointed::new(b.finish(), fp[1..=t.distinguished().len()].to_vec());

        let in_class = verdict.unwrap_or_else(|| class.contains_tableau(&qt));
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
    let counts @ (.., complete) = for_each_class_partition(t, class, opts.max_partitions, |p| {
        ControlFlow::Continue(visit(p))
    });
    if !complete {
        visit(&Partition::coarsest(s.universe_size()));
    }
    counts
}

/// Inclusion-minimal augmentations of `qt` with up to
/// `opts.repair_extra_atoms` extra atoms that land in the class (the
/// Claim 6.2 move). Exposed for the `identify` decision procedure.
pub fn repairs_public(qt: &Pointed, class: &dyn QueryClass, opts: &ApproxOptions) -> Vec<Pointed> {
    let s = &qt.structure;
    let vocab = s.vocabulary().clone();
    let u = s.universe_size();
    // Candidate extra atoms: every missing tuple over the quotient's
    // elements; optionally, tuples with exactly one fresh padding element.
    #[derive(Clone)]
    struct Extra {
        rel: cqapx_structures::RelId,
        tuple: Vec<u32>,
        padded: bool,
    }
    let mut extras: Vec<Extra> = Vec::new();
    for rel in vocab.rel_ids() {
        let arity = vocab.arity(rel);
        let mut tuple = vec![0u32; arity];
        loop {
            if !s.contains(rel, &tuple) {
                extras.push(Extra {
                    rel,
                    tuple: tuple.clone(),
                    padded: false,
                });
            }
            // increment base-u counter
            let mut pos = 0;
            loop {
                if pos == arity {
                    break;
                }
                tuple[pos] += 1;
                if (tuple[pos] as usize) < u {
                    break;
                }
                tuple[pos] = 0;
                pos += 1;
            }
            if pos == arity {
                break;
            }
        }
        if opts.padded_repairs && arity >= 2 {
            // One fresh element (marker u) in each position, others over U.
            let mut base = vec![0u32; arity - 1];
            loop {
                for pad_pos in 0..arity {
                    let mut tuple = Vec::with_capacity(arity);
                    let mut bi = 0;
                    for p in 0..arity {
                        if p == pad_pos {
                            tuple.push(u as u32); // fresh marker
                        } else {
                            tuple.push(base[bi]);
                            bi += 1;
                        }
                    }
                    extras.push(Extra {
                        rel,
                        tuple,
                        padded: true,
                    });
                }
                let mut pos = 0;
                loop {
                    if pos == arity - 1 {
                        break;
                    }
                    base[pos] += 1;
                    if (base[pos] as usize) < u {
                        break;
                    }
                    base[pos] = 0;
                    pos += 1;
                }
                if pos == arity - 1 || arity == 1 {
                    break;
                }
            }
        }
    }

    let build = |subset: &[usize]| -> Pointed {
        let n_pads = subset.iter().filter(|&&i| extras[i].padded).count();
        let mut b = StructureBuilder::new(vocab.clone(), u + n_pads);
        for rel in vocab.rel_ids() {
            for t in s.tuples(rel) {
                b.add(rel, t);
            }
        }
        let mut next_pad = u as u32;
        for &i in subset {
            let e = &extras[i];
            if e.padded {
                let tuple: Vec<u32> = e
                    .tuple
                    .iter()
                    .map(|&x| if x == u as u32 { next_pad } else { x })
                    .collect();
                next_pad += 1;
                b.add(e.rel, &tuple);
            } else {
                b.add(e.rel, &e.tuple);
            }
        }
        Pointed::new(b.finish(), qt.distinguished().to_vec())
    };

    // Search by increasing repair size, keeping inclusion-minimal hits.
    let mut hits: Vec<Vec<usize>> = Vec::new();
    let mut out = Vec::new();
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    for _size in 1..=opts.repair_extra_atoms {
        let mut next = Vec::new();
        for base in &frontier {
            let start = base.last().map_or(0, |&l| l + 1);
            for i in start..extras.len() {
                let mut subset = base.clone();
                subset.push(i);
                // skip supersets of known hits (inclusion-minimality)
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

/// Computes all `C`-approximations of a tableau, as tableaux.
///
/// This is Theorem 4.1's (resp. 6.1's) procedure run to completion:
/// candidates, filtered by class, →-minimal elements, cores. The returned
/// tableaux are pairwise non-equivalent.
pub fn all_approximations_tableaux(
    t: &Pointed,
    class: &dyn QueryClass,
    opts: &ApproxOptions,
) -> (Vec<Pointed>, ApproxReportMeta) {
    // One pass: a candidate with a current minimal element below it is
    // dropped after that hom test; any other evicts what it maps into.
    let mut minimal = MinimalAntichain::new();
    let mut n_candidates = 0usize;
    let (partitions, dominated, complete) = candidates(t, class, opts, |c| {
        n_candidates += 1;
        minimal.offer(c);
    });
    let mut result = minimal.into_members();
    if opts.minimize {
        // Antichain members are pairwise incomparable, so their cores are
        // pairwise non-isomorphic: nothing to dedup.
        result = result.iter().map(|p| core_of(p).core).collect();
    }
    (
        result,
        ApproxReportMeta {
            candidates: n_candidates,
            partitions,
            dominated,
            complete,
        },
    )
}

/// Bookkeeping from a tableau-level approximation run.
#[derive(Debug, Clone, Copy)]
pub struct ApproxReportMeta {
    /// Candidates offered to the antichain.
    pub candidates: usize,
    /// Partitions reached (pruned and dominated ones are not counted).
    pub partitions: u64,
    /// Leaves skipped plus subtrees cut by the domination bound.
    pub dominated: u64,
    /// Whether the enumeration was exhaustive.
    pub complete: bool,
}

impl ApproxReport {
    /// The report of one [`all_approximations_tableaux`] run.
    pub fn from_tableaux(tableaux: Vec<Pointed>, meta: ApproxReportMeta) -> ApproxReport {
        ApproxReport {
            approximations: tableaux.iter().map(query_from_tableau).collect(),
            tableaux,
            candidates: meta.candidates,
            partitions: meta.partitions,
            dominated: meta.dominated,
            complete: meta.complete,
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
    class: &dyn QueryClass,
    opts: &ApproxOptions,
) -> ApproxReport {
    let t = tableau_of(q);
    let (tableaux, meta) = all_approximations_tableaux(&t, class, opts);
    ApproxReport::from_tableaux(tableaux, meta)
}

/// Greedy anytime approximation: beam search over variable merges.
///
/// Starts from the identity partition and merges pairs of variables until
/// the quotient lands in the class (the coarsest quotient always does —
/// it is `Q^trivial`). The result is **sound** — in the class and
/// contained in `Q` — and among the candidates the beam saw it is
/// →-minimal, but global approximation-hood is only guaranteed by the
/// exhaustive [`all_approximations`] (Proposition 4.11: that cannot be
/// polynomial unless P = NP).
pub fn one_approximation(
    q: &ConjunctiveQuery,
    class: &dyn QueryClass,
    beam_width: usize,
) -> ConjunctiveQuery {
    one_approximation_budgeted(q, class, beam_width, None)
}

/// [`one_approximation`] under a shared [`SearchBudget`]: the anytime
/// variant cooperating with the workspace-wide cancellation mechanism
/// (the same step counter the hom solver and the serving engine charge).
///
/// The beam checks the budget between layers and between merge batches;
/// once it runs dry the search stops expanding and falls back to the
/// best in-class quotient found so far (or the always-in-class trivial
/// quotient), so the result stays **sound** — in the class and contained
/// in `Q` — under any budget, including an already-cancelled one.
pub fn one_approximation_budgeted(
    q: &ConjunctiveQuery,
    class: &dyn QueryClass,
    beam_width: usize,
    budget: Option<&SearchBudget>,
) -> ConjunctiveQuery {
    let t = tableau_of(q);
    let n = t.structure.universe_size();
    if class.contains_tableau(&t) {
        return q.clone();
    }
    let out_of_budget = |b: Option<&SearchBudget>| b.is_some_and(|b| b.is_exhausted());
    let mut beam: Vec<Partition> = vec![Partition::identity(n)];
    let mut found: Vec<Pointed> = Vec::new();
    while found.is_empty() && !beam.is_empty() && !out_of_budget(budget) {
        let mut next: Vec<Partition> = Vec::new();
        let mut seen: HashSet<Vec<u32>> = HashSet::new();
        'expand: for p in &beam {
            if out_of_budget(budget) {
                break 'expand;
            }
            for a in 0..n {
                for b in (a + 1)..n {
                    if p.block_of(a) == p.block_of(b) {
                        continue;
                    }
                    let merged = p.merge(a, b);
                    if !seen.insert(merged.labels().to_vec()) {
                        continue;
                    }
                    // Each examined quotient is one cooperative step.
                    if let Some(bu) = budget {
                        if !bu.charge(1) {
                            break 'expand;
                        }
                    }
                    let (qt, _) = quotient_pointed(&t, &merged);
                    if class.contains_tableau(&qt) {
                        found.push(qt);
                    } else if next.len() < beam_width {
                        next.push(merged);
                    }
                }
            }
        }
        beam = next;
    }
    if found.is_empty() {
        // Fall back to the coarsest quotient (the trivial query).
        let (qt, _) = quotient_pointed(&t, &Partition::coarsest(n));
        debug_assert!(class.contains_tableau(&qt), "trivial quotient is in class");
        found.push(qt);
    }
    // Among found candidates of this layer, return a →-minimal one,
    // minimized.
    let min = order::minimal_elements(&found);
    let best = core_of(&found[min[0]]).core;
    query_from_tableau(&best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{Acyclic, HtwK, TwK};
    use cqapx_cq::{contained_in, equivalent, parse_cq};
    use cqapx_structures::partition::{bell, for_each_partition};

    fn opts() -> ApproxOptions {
        ApproxOptions::default()
    }

    #[test]
    fn triangle_trivial_approximation() {
        // Theorem 5.1 first case: non-bipartite tableau → only Q^triv.
        let tri = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        for class in [&TwK(1) as &dyn QueryClass, &Acyclic] {
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
        for class in [&TwK(1) as &dyn QueryClass, &TwK(2), &Acyclic] {
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

    #[test]
    fn free_variables_change_approximations() {
        // §5.1.2: Q(x,y) :- E(x,y),E(y,z),E(z,x) has the acyclic
        // approximation E(x,y),E(y,x),E(x,x).
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
    fn one_approximation_is_sound() {
        let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,x), E(z,w), E(w,v), E(v,z)").unwrap();
        for class in [&TwK(1) as &dyn QueryClass, &Acyclic, &HtwK(2)] {
            let a = one_approximation(&q, class, 32);
            assert!(contained_in(&a, &q), "{}", class.name());
            assert!(class.contains_tableau(&tableau_of(&a)));
        }
    }

    #[test]
    fn in_class_query_is_its_own_approximation() {
        let q = parse_cq("Q(x) :- E(x,y), E(y,z)").unwrap();
        let rep = all_approximations(&q, &TwK(1), &opts());
        assert_eq!(rep.approximations.len(), 1);
        assert!(equivalent(&rep.approximations[0], &q));
        // The identity is the first leaf and dominates all the others.
        assert_eq!((rep.partitions, rep.candidates), (1, 1));
        assert!(rep.dominated > 0);
        let one = one_approximation(&q, &TwK(1), 8);
        assert!(equivalent(&one, &q));
    }

    /// Ground truth for `candidates` (no repair succeeding): the distinct
    /// quotients of the in-class partitions that no strictly finer
    /// in-class partition refines, over all Bell(n) partitions, each
    /// fully materialized.
    fn exhaustive_candidates(t: &Pointed, class: &dyn QueryClass) -> usize {
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
            .collect();
        finest.len()
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
        // Branch-and-bound reaches fewer than Bell(6) = 203 partitions and
        // still offers every quotient of a finest in-class partition the
        // exhaustive scan finds; the hypergraph discipline has the
        // domination bound alone, so it reaches more, and the same ones.
        let c6 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)").unwrap();
        let expected = exhaustive_candidates(&tableau_of(&c6), &TwK(1));
        let rep = all_approximations(&c6, &TwK(1), &opts());
        assert!(rep.complete);
        assert!(rep.partitions < bell(6), "reached {}", rep.partitions);
        assert_eq!(rep.candidates, expected);
        assert!(rep.dominated > 0);
        let ac = all_approximations(&c6, &Acyclic, &opts());
        assert!(rep.partitions < ac.partitions && ac.partitions < bell(6));
        assert_eq!(ac.candidates, expected);
        assert!(ac.dominated > rep.dominated);
    }

    #[test]
    fn incomplete_flag_when_capped() {
        let q = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)").unwrap();
        // The coarsest partition is the walk's last leaf, so a capped
        // walk visits it on the way out: even a cap of one leaf (the
        // identity, out of class) leaves the trivial approximation.
        for max_partitions in [10, 1] {
            let mut o = opts();
            o.max_partitions = max_partitions;
            let rep = all_approximations(&q, &TwK(1), &o);
            assert!(!rep.complete);
            assert_eq!(rep.partitions, max_partitions);
            assert!(!rep.approximations.is_empty());
            for a in &rep.approximations {
                assert!(contained_in(a, &q));
                assert!(TwK(1).contains_tableau(&tableau_of(a)));
            }
        }
    }
}
