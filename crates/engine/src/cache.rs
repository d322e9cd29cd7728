//! The approximation cache: the single-exponential `C`-approximation
//! search runs **once per query-isomorphism-class**, and every later
//! request — same query text, renamed variables, or a different prepared
//! query with an isomorphic tableau — reuses the `ApproxReport` and its
//! compiled evaluation plans.
//!
//! Keying is two-level, reusing `cqapx_structures::iso`:
//!
//! 1. an [`ApproxCacheKey`] — the tableau's isomorphism-*invariant*
//!    signature plus class name and option fingerprint — names a bucket;
//! 2. within a bucket, each isomorphism class met so far is one member:
//!    its first tableau, compiled once ([`CompiledPointed`]), and one
//!    [`Flight`] for its approximations. A lookup confirms a member by
//!    exact isomorphism (signatures can collide; isomorphism cannot).
//!
//! The search runs inside the member's flight, so a parallel batch of
//! isomorphic queries runs it once: one miss, and the rest wait and
//! hit. The bucket map's lock, read through poison, is held only for
//! snapshots (one `Arc` clone) and inserts; confirmations and searches
//! run outside it. A [`Ledger`] charges entries estimated bytes and
//! evicts them least recently used first, as in the materialization
//! cache.

use cqapx_core::{
    all_approximations_tableaux, ApproxCacheKey, ApproxOptions, ApproxReport, QueryClass,
};
use cqapx_cq::eval::flight::{lru, Flight, Ledger};
use cqapx_cq::eval::{Answers, MatCacheStats, MaterializationCache, NaivePlan, PlanIr, TreePlan};
use cqapx_cq::ConjunctiveQuery;
use cqapx_structures::iso::CompiledPointed;
use cqapx_structures::{Pointed, Structure};
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// How one cached approximation is evaluated: one arm per algorithm.
#[derive(Debug)]
pub enum ApproxPlan {
    /// Yannakakis over a tree: a join tree when the approximation is
    /// acyclic, else the bags of a tree decomposition when the class
    /// certifies a width (`QueryClass::decomposition_width`, e.g.
    /// `TW(k)`).
    Tree(PlanIr),
    /// Backtracking, the last resort (still cheap, the approximation is
    /// in-class). Boxed: the arm would otherwise size every entry.
    Naive(Box<NaivePlan>),
}

impl ApproxPlan {
    /// Compiles `q`, an approximation in a class whose decomposition
    /// width is `width` (if it certifies one). A tree plan's program is
    /// moved out of it, not cloned.
    fn compile(q: &ConjunctiveQuery, width: Option<usize>) -> ApproxPlan {
        match TreePlan::join_tree(q).or_else(|| TreePlan::within_width(q, width?)) {
            Some(plan) => ApproxPlan::Tree(plan.into()),
            None => ApproxPlan::Naive(Box::new(NaivePlan::compile(q.clone()))),
        }
    }

    /// Evaluates `Q'(D)` through the database's materialization cache
    /// (the naive arm reads none) and reports the cache outcome.
    pub fn answers(&self, d: &Structure, cache: &MaterializationCache) -> (Answers, MatCacheStats) {
        match self {
            ApproxPlan::Tree(ir) => ir.answers(d, Some(cache)),
            ApproxPlan::Naive(plan) => (plan.eval_answers(d), MatCacheStats::default()),
        }
    }
}

/// A cached approximation result: the report plus one compiled
/// [`ApproxPlan`] per approximation.
pub struct CachedApproximation {
    /// The full approximation report (sound under-approximations of the
    /// represented query, →-maximal within the class).
    pub report: ApproxReport,
    /// One plan per `report.approximations[i]`.
    pub evaluators: Vec<ApproxPlan>,
}

impl CachedApproximation {
    /// Estimated resident bytes of this entry: the retained tableaux
    /// (the dominant allocations) plus a fixed overhead per compiled
    /// plan. It steers eviction and budget comparisons, never answers.
    fn estimated_bytes(&self, representative: &Pointed) -> usize {
        let tableaux: usize = self.report.tableaux.iter().map(pointed_bytes).sum();
        tableaux + pointed_bytes(representative) + self.evaluators.len() * 256 + 128
    }
}

/// Estimated resident bytes of a tableau: its tuple storage, stored once
/// and indexed once (the lazy inverted index roughly doubles it), plus
/// id-sized bookkeeping per element and a fixed allocation overhead.
fn pointed_bytes(p: &Pointed) -> usize {
    let s = &p.structure;
    let tuple_elems: usize = (s.vocabulary().rel_ids())
        .map(|r| s.flat_tuples(r).len())
        .sum();
    let structure =
        tuple_elems * 2 * size_of::<u32>() + s.universe_size() * size_of::<usize>() + 64;
    structure + std::mem::size_of_val(p.distinguished())
}

/// One isomorphism class: the tableau it was first met as, and the
/// flight its approximations land in.
struct Member {
    representative: CompiledPointed,
    flight: Flight<Arc<CachedApproximation>>,
}

/// A bucket's members. Inserting one replaces the whole list, so a
/// snapshot is one `Arc` clone, and a changed bucket is a new pointer.
type Bucket = Arc<[Arc<Member>]>;

/// A concurrent map from tableaux, up to isomorphism, to shared
/// [`CachedApproximation`]s (see the module documentation).
#[derive(Default)]
pub struct ApproxCache {
    buckets: Mutex<HashMap<ApproxCacheKey, Bucket>>,
    ledger: Ledger,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ApproxCache {
    /// An empty cache.
    pub fn new() -> Self {
        ApproxCache::default()
    }

    /// Returns the cached approximation of `t` within `class` under
    /// `opts`, computing and inserting it on a miss. The `bool` is `true`
    /// on a hit. A request isomorphic to one still searching waits for
    /// that search and hits.
    pub fn get_or_compute(
        &self,
        t: &Pointed,
        class: &QueryClass,
        opts: &ApproxOptions,
    ) -> (Arc<CachedApproximation>, bool) {
        let (member, value, ran) = self.land(t, class, opts);
        if ran {
            self.sweep(Some(&member.flight));
        }
        (value, !ran)
    }

    /// The member isomorphic to `t` and its value: landed by this call,
    /// a counted miss (`true`), or found landed or waited for, a counted
    /// hit. Sweeping after a miss is the caller's step.
    fn land(
        &self,
        t: &Pointed,
        class: &QueryClass,
        opts: &ApproxOptions,
    ) -> (Arc<Member>, Arc<CachedApproximation>, bool) {
        let member = self.member(ApproxCacheKey::new(t, class, opts), t);
        let (value, ran) = self.ledger.claim(&member.flight, || {
            let (tableaux, meta) = all_approximations_tableaux(t, class, opts);
            let report = ApproxReport::from_tableaux(tableaux, meta);
            let width = class.decomposition_width();
            let evaluators = (report.approximations.iter())
                .map(|q| ApproxPlan::compile(q, width))
                .collect();
            let value = CachedApproximation { report, evaluators };
            let bytes = value.estimated_bytes(member.representative.pointed());
            (Arc::new(value), bytes)
        });
        let value = Arc::clone(value);
        let counter = if ran { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        (member, value, ran)
    }

    /// Evicts down to the budget, never `keep` (see [`lru`]).
    fn sweep(&self, keep: Option<&Flight<Arc<CachedApproximation>>>) {
        self.ledger.sweep(|| self.buckets(), |b| evict_lru(b, keep));
    }

    /// The member of `key`'s bucket isomorphic to `t`, inserted
    /// un-landed when there is none. An insert that finds the bucket
    /// changed since its snapshot confirms only the members it has not
    /// seen, outside the lock, and tries again.
    fn member(&self, key: ApproxCacheKey, t: &Pointed) -> Arc<Member> {
        let (mut seen, mut fresh) = (None::<Bucket>, None);
        loop {
            let mut buckets = self.buckets();
            let now = buckets.get(&key).cloned();
            let unchanged = now.as_deref().map(<[_]>::as_ptr) == seen.as_deref().map(<[_]>::as_ptr);
            if let (true, Some(fresh)) = (unchanged, &fresh) {
                let grown = members(&now).iter().cloned().chain([Arc::clone(fresh)]);
                buckets.insert(key, grown.collect());
                return Arc::clone(fresh);
            }
            drop(buckets);
            let old = members(&seen);
            let mut unseen =
                (members(&now).iter()).filter(|m| !old.iter().any(|o| Arc::ptr_eq(o, m)));
            if let Some(m) = unseen.find(|m| m.representative.isomorphic_to(t)) {
                return Arc::clone(m);
            }
            seen = now;
            fresh.get_or_insert_with(|| {
                let representative = CompiledPointed::new(t.clone());
                Arc::new(Member {
                    representative,
                    flight: Flight::default(),
                })
            });
        }
    }

    /// Sets the byte budget (`0` = unbounded) and applies it
    /// immediately if the cache is already over.
    pub(crate) fn set_budget_bytes(&self, bytes: usize) {
        self.ledger.set_budget_bytes(bytes);
        self.sweep(None);
    }

    /// The configured byte budget (`0` = unbounded).
    pub(crate) fn budget_bytes(&self) -> usize {
        self.ledger.budget_bytes()
    }

    /// Estimated bytes of all retained entries.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.ledger.resident_bytes()
    }

    /// Entries evicted by the byte budget so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.ledger.evictions()
    }

    /// Peeks for a cached approximation without ever computing one or
    /// waiting for one being computed — the probe for paths already over
    /// a deadline. Finding one is a hit; finding none is not a miss.
    pub fn lookup_only(
        &self,
        t: &Pointed,
        class: &QueryClass,
        opts: &ApproxOptions,
    ) -> Option<Arc<CachedApproximation>> {
        let key = ApproxCacheKey::new(t, class, opts);
        let bucket = self.buckets().get(&key).cloned()?;
        let landed = |m: &&Arc<Member>| m.flight.landed().is_some();
        let member = (bucket.iter().filter(landed)).find(|m| m.representative.isomorphic_to(t))?;
        // Landed, so the claim returns at once, and stamps a hit.
        let (value, _) = self.ledger.claim(&member.flight, || unreachable!("landed"));
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(value))
    }

    /// The bucket map, through poison.
    fn buckets(&self) -> MutexGuard<'_, HashMap<ApproxCacheKey, Bucket>> {
        self.buckets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= computations run) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Removes the least recently used landed member other than `keep`
/// from its bucket, and the bucket once empty; returns its charge.
/// Evicts nothing once `keep` has left the map (see [`lru`]).
fn evict_lru(
    buckets: &mut HashMap<ApproxCacheKey, Bucket>,
    keep: Option<&Flight<Arc<CachedApproximation>>>,
) -> Option<usize> {
    let all = || (buckets.values()).flat_map(|b| b.iter().map(|m| (m, &m.flight)));
    let held = keep.is_none_or(|k| all().any(|(_, f)| std::ptr::eq(f, k)));
    let victim = Arc::clone(lru(all(), keep).filter(|_| held)?);
    let other = |m: &&Arc<Member>| !Arc::ptr_eq(m, &victim);
    buckets.retain(|_, b| {
        if b.iter().any(|m| Arc::ptr_eq(m, &victim)) {
            *b = b.iter().filter(other).cloned().collect();
        }
        !b.is_empty()
    });
    Some(victim.flight.charge())
}

/// The members of a bucket snapshot (none when there was no bucket).
fn members(bucket: &Option<Bucket>) -> &[Arc<Member>] {
    bucket.as_deref().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_core::TwK;
    use cqapx_cq::{parse_cq, tableau_of};
    use std::sync::Barrier;

    impl ApproxCache {
        /// Number of cached isomorphism classes (landed members only).
        fn len(&self) -> usize {
            let buckets = self.buckets();
            let members = buckets.values().flat_map(|b| b.iter());
            members.filter(|m| m.flight.landed().is_some()).count()
        }
    }

    /// `lookup_only` never waits on a search: while the flight of an
    /// isomorphic tableau is un-landed it finds nothing, and once that
    /// flight lands it hits, as does `get_or_compute`.
    #[test]
    fn lookup_only_skips_an_unlanded_flight() {
        let cache = ApproxCache::new();
        let opts = ApproxOptions::default();
        let t = tableau_of(&parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap());
        let renamed = tableau_of(&parse_cq("Q() :- E(b,c), E(c,a), E(a,b)").unwrap());
        let member = cache.member(ApproxCacheKey::new(&t, &TwK(1), &opts), &t);
        let (inside, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            let search = s.spawn(|| {
                let make = || {
                    inside.wait();
                    release.wait();
                    (ApproxCache::new().get_or_compute(&t, &TwK(1), &opts).0, 1)
                };
                cache.ledger.claim(&member.flight, make).1
            });
            inside.wait();
            assert!(cache.lookup_only(&renamed, &TwK(1), &opts).is_none());
            release.wait();
            assert!(search.join().unwrap(), "the search ran in the flight");
        });
        assert!(cache.lookup_only(&renamed, &TwK(1), &opts).is_some());
        assert!(cache.get_or_compute(&renamed, &TwK(1), &opts).1);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 0, 1));
    }

    #[test]
    fn structure_estimate_scales_with_tuples() {
        let boolean = |edges: &[(u32, u32)]| Pointed::boolean(Structure::digraph(4, edges));
        let small = boolean(&[(0, 1)]);
        let big = boolean(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(pointed_bytes(&big) > pointed_bytes(&small));
        let p = Pointed::new(Structure::digraph(4, &[(0, 1)]), vec![0, 1]);
        assert!(pointed_bytes(&p) > pointed_bytes(&small));
    }

    #[test]
    fn second_lookup_hits() {
        let cache = ApproxCache::new();
        let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let t = tableau_of(&q);
        let opts = ApproxOptions::default();
        let (a, hit_a) = cache.get_or_compute(&t, &TwK(1), &opts);
        let (b, hit_b) = cache.get_or_compute(&t, &TwK(1), &opts);
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn isomorphic_queries_share_an_entry() {
        let cache = ApproxCache::new();
        let q1 = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let q2 = parse_cq("Q() :- E(b,c), E(c,a), E(a,b)").unwrap(); // renamed
        let opts = ApproxOptions::default();
        let (a, _) = cache.get_or_compute(&tableau_of(&q1), &TwK(1), &opts);
        let (b, hit) = cache.get_or_compute(&tableau_of(&q2), &TwK(1), &opts);
        assert!(hit, "isomorphic tableau must hit");
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// The class is part of the key: one tableau under three classes
    /// lands as three members, and each hits only under its own class.
    #[test]
    fn different_class_is_a_different_entry() {
        use cqapx_core::Acyclic;
        let cache = ApproxCache::new();
        let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let t = tableau_of(&q);
        let opts = ApproxOptions::default();
        for class in [TwK(1), TwK(2), Acyclic] {
            assert!(!cache.get_or_compute(&t, &class, &opts).1, "{class:?}");
        }
        assert_eq!(cache.len(), 3);
        for class in [TwK(1), TwK(2), Acyclic] {
            assert!(cache.get_or_compute(&t, &class, &opts).1, "{class:?}");
        }
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (3, 3, 3));
    }

    #[test]
    fn unbounded_default_never_evicts() {
        let cache = ApproxCache::new();
        let opts = ApproxOptions::default();
        let q1 = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let q2 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap();
        cache.get_or_compute(&tableau_of(&q1), &TwK(1), &opts);
        cache.get_or_compute(&tableau_of(&q2), &TwK(1), &opts);
        assert_eq!(cache.budget_bytes(), 0);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 2);
        assert!(cache.resident_bytes() > 0);
    }

    #[test]
    fn tiny_budget_evicts_cold_entry_and_recomputes_on_return() {
        let cache = ApproxCache::new();
        cache.set_budget_bytes(1); // every insert overflows; newest survives
        let opts = ApproxOptions::default();
        let q1 = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let q2 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap();
        let (a, _) = cache.get_or_compute(&tableau_of(&q1), &TwK(1), &opts);
        cache.get_or_compute(&tableau_of(&q2), &TwK(1), &opts);
        // Inserting q2 evicted q1 (the just-inserted entry is exempt).
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
        // A return visit recomputes — and still yields a sound entry.
        let (b, hit) = cache.get_or_compute(&tableau_of(&q1), &TwK(1), &opts);
        assert!(!hit, "evicted entry must miss");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.report.approximations.len(), a.report.approximations.len());
        assert_eq!(cache.misses(), 3);
    }

    /// Two misses land before either sweeps, one entry within the budget
    /// and one over it alone, and the over-budget landing sweeps first:
    /// it evicts the other entry and stays, admitted once. The second
    /// sweep's own entry has gone, so it evicts nothing, and the
    /// survivor stays resident with its exact charge: evicting it would
    /// empty the cache.
    #[test]
    fn a_sweep_whose_landing_was_evicted_evicts_nothing() {
        let cache = ApproxCache::new();
        let opts = ApproxOptions::default();
        let tri = tableau_of(&parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap());
        let c4 = tableau_of(&parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap());
        let landed = [&tri, &c4].map(|t| cache.land(t, &TwK(1), &opts).0);
        let [small, large] = landed.each_ref().map(|m| m.flight.charge());
        assert!(small < large, "{small} < {large}");
        cache.ledger.set_budget_bytes(small);
        cache.sweep(Some(&landed[1].flight));
        cache.sweep(Some(&landed[0].flight));
        assert_eq!((cache.len(), cache.evictions()), (1, 1));
        assert_eq!(cache.resident_bytes(), large);
        assert!(cache.lookup_only(&c4, &TwK(1), &opts).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    /// A panic under the bucket lock poisons it; the cache still hits,
    /// misses and evicts as before.
    #[test]
    fn poisoned_lock_still_hits_misses_and_evicts() {
        let cache = ApproxCache::new();
        let opts = ApproxOptions::default();
        let q1 = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let q2 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap();
        cache.get_or_compute(&tableau_of(&q1), &TwK(1), &opts);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _buckets = cache.buckets.lock().unwrap();
            panic!("a panic while the bucket lock is held");
        }));
        assert!(poisoned.is_err() && cache.buckets.is_poisoned());
        assert!(cache.get_or_compute(&tableau_of(&q1), &TwK(1), &opts).1);
        cache.set_budget_bytes(1); // the next insert evicts q1
        assert!(!cache.get_or_compute(&tableau_of(&q2), &TwK(1), &opts).1);
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (1, 2, 1));
        assert_eq!(cache.len(), 1);
        assert!(cache
            .lookup_only(&tableau_of(&q1), &TwK(1), &opts)
            .is_none());
    }

    #[test]
    fn cached_evaluators_are_sound() {
        let cache = ApproxCache::new();
        let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let (c, _) = cache.get_or_compute(&tableau_of(&q), &TwK(1), &ApproxOptions::default());
        // The triangle's TW(1)-approximation is E(x,x): true iff a loop.
        let looped = Structure::digraph(2, &[(0, 0), (0, 1)]);
        let plain = Structure::digraph(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(c.report.approximations.len(), 1);
        let eval_boolean = |d: &Structure| {
            let (answers, _) = c.evaluators[0].answers(d, &MaterializationCache::new());
            !answers.is_empty()
        };
        assert!(eval_boolean(&looped));
        assert!(!eval_boolean(&plain));
    }

    /// Every arm of [`ApproxPlan`] answers as the naive oracle does on
    /// its approximation. `T4`, the transitive tournament, reaches each
    /// arm, and the tree arm both ways: into `TW(1)` with one head
    /// variable (one acyclic approximation, a join tree), into `TW(2)`
    /// with all four (six cyclic ones, each over a decomposition's bags)
    /// and Boolean into `HTW(2)` (one, naive: the class certifies no
    /// decomposition width). Each plan runs on a database where its
    /// answer is empty and one where it is not, cold and then warm
    /// through one cache; the warm run misses nothing.
    #[test]
    fn every_arm_answers_as_the_naive_oracle() {
        use cqapx_core::HtwK;
        use cqapx_cq::eval::eval_naive;
        const T4: &str = "E(a,b), E(a,c), E(a,d), E(b,c), E(b,d), E(c,d)";
        let arm_of = |p: &ApproxPlan| match p {
            ApproxPlan::Tree(_) => "tree",
            ApproxPlan::Naive(_) => "naive",
        };
        let cases = [
            ("Q(a)", TwK(1), 1, "tree"),
            ("Q(a,b,c,d)", TwK(2), 6, "tree"),
            ("Q()", HtwK(2), 1, "naive"),
        ];
        // A proper quotient of a tournament has a loop, and T4 itself
        // needs a transitive 4-tournament, so the loop-free database
        // without one answers nothing; a vertex with a loop answers
        // every approximation.
        let empty = Structure::digraph(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let full = Structure::digraph(3, &[(0, 1), (1, 1), (1, 2), (2, 1)]);
        for (head, class, count, arm) in cases {
            let q = parse_cq(&format!("{head} :- {T4}")).unwrap();
            let cache = ApproxCache::new();
            let (c, _) = cache.get_or_compute(&tableau_of(&q), &class, &ApproxOptions::default());
            assert_eq!(c.evaluators.len(), count, "{head} into {}", class.name());
            for (plan, approx) in c.evaluators.iter().zip(&c.report.approximations) {
                assert_eq!(arm_of(plan), arm, "{approx}");
                for (d, nonempty) in [(&empty, false), (&full, true)] {
                    let want = eval_naive(approx, d);
                    assert_eq!(!want.is_empty(), nonempty, "{approx}");
                    let materialized = MaterializationCache::new();
                    let (cold, _) = plan.answers(d, &materialized);
                    let (warm, stats) = plan.answers(d, &materialized);
                    assert_eq!(cold, want, "cold, {approx}");
                    assert_eq!(warm, want, "warm, {approx}");
                    assert_eq!(stats.misses, 0, "warm run re-materialized, {approx}");
                }
            }
        }
    }
}
