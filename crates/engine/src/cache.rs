//! The approximation cache: the single-exponential `C`-approximation
//! search runs **once per query-isomorphism-class**, and every later
//! request — same query text, renamed variables, or a different prepared
//! query with an isomorphic tableau — reuses the `ApproxReport` and its
//! compiled evaluation plans.
//!
//! Keying is two-level, reusing `cqapx_structures::iso`:
//!
//! 1. an [`ApproxCacheKey`] — the tableau's isomorphism-*invariant*
//!    signature plus class name and option fingerprint — buckets
//!    candidates in a hash map;
//! 2. within a bucket, [`isomorphic_pointed`] against each entry's stored
//!    representative tableau confirms the hit exactly (signatures can
//!    collide; isomorphism cannot).

use crate::memory::pointed_bytes;
use cqapx_core::{
    all_approximations_tableaux, ApproxCacheKey, ApproxOptions, ApproxReport, QueryClass,
};
use cqapx_cq::eval::{
    AcyclicPlan, Answers, DecomposedPlan, MatCacheStats, MaterializationCache, NaivePlan, PlanIr,
};
use cqapx_cq::ConjunctiveQuery;
use cqapx_par::ThreadBudget;
use cqapx_structures::iso::isomorphic_pointed;
use cqapx_structures::{Pointed, Structure};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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
        if let Ok(plan) = AcyclicPlan::compile(q) {
            return ApproxPlan::Tree(plan.into());
        }
        match width.map(|k| DecomposedPlan::compile(q, k)) {
            Some(Ok(plan)) => ApproxPlan::Tree(plan.into()),
            _ => ApproxPlan::Naive(Box::new(NaivePlan::compile(q.clone()))),
        }
    }

    /// Evaluates `Q'(D)` through the database's materialization cache
    /// (the naive arm reads none) and reports the cache outcome. The
    /// budget is unused: it stays only because the frozen `cqbench`
    /// calls this signature, and goes with the next change to
    /// `cqbench`.
    pub fn eval_with_cache(
        &self,
        d: &Structure,
        cache: &MaterializationCache,
        _budget: &ThreadBudget,
    ) -> (Answers, MatCacheStats) {
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
    /// Wall time of the (single) computation this entry amortizes.
    pub compute_time: Duration,
}

impl CachedApproximation {
    /// Estimated resident bytes of this entry: the retained tableaux
    /// (the dominant allocations) plus a fixed overhead per compiled
    /// plan. An estimate — it steers eviction and budget
    /// comparisons, never answers.
    fn estimated_bytes(&self, representative: &Pointed) -> usize {
        let tableaux: usize = self.report.tableaux.iter().map(pointed_bytes).sum();
        tableaux + pointed_bytes(representative) + self.evaluators.len() * 256 + 128
    }
}

struct Entry {
    representative: Arc<Pointed>,
    value: Arc<CachedApproximation>,
    /// Estimated bytes this entry pins (accounted into `resident`).
    bytes: usize,
}

impl Entry {
    /// Eviction score: measured rebuild cost per resident byte. Low
    /// scores (cheap searches pinning many bytes) evict first, so the
    /// budget preferentially retains the entries whose
    /// single-exponential searches were most expensive to amortize.
    fn cost_per_byte(&self) -> f64 {
        self.value.compute_time.as_nanos() as f64 / self.bytes.max(1) as f64
    }
}

/// A concurrent map from canonicalized tableaux to shared
/// [`CachedApproximation`]s.
///
/// The bucket map's lock is held only for pointer-sized snapshots and
/// inserts; the isomorphism confirmations (worst-case exponential
/// backtracking) run outside it, so one pathological pair never stalls
/// unrelated requests.
/// When a budget is set ([`ApproxCache::set_budget_bytes`]), inserts
/// that push the estimated resident bytes over it evict entries in
/// ascending rebuild-cost-per-byte order (compute time / bytes)
/// until the cache fits again — the just-inserted entry is exempt, so
/// one oversized entry is admitted rather than thrashed. Budget `0`
/// (the default) means unbounded, preserving exact legacy behavior.
///
/// The bucket lock is read through poison: no caller code runs under
/// it, so the map is valid after any panic.
#[derive(Default)]
pub struct ApproxCache {
    buckets: Mutex<HashMap<ApproxCacheKey, Vec<Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Byte ceiling; `0` = unbounded.
    budget: AtomicUsize,
    /// Estimated bytes of all retained entries.
    resident: AtomicUsize,
    evictions: AtomicU64,
}

impl ApproxCache {
    /// An empty cache.
    pub fn new() -> Self {
        ApproxCache::default()
    }

    /// Returns the cached approximation of `t` within `class` under
    /// `opts`, computing and inserting it on a miss. The `bool` is `true`
    /// on a hit.
    ///
    /// The expensive computation runs outside the cache lock; two racing
    /// misses on the same tableau both compute, and the loser either
    /// adopts the incumbent or (if the insert interleaves) adds a benign
    /// duplicate entry — both values are correct for every isomorphic
    /// tableau, so duplicates cost memory, never answers.
    pub fn get_or_compute(
        &self,
        t: &Pointed,
        class: &dyn QueryClass,
        opts: &ApproxOptions,
    ) -> (Arc<CachedApproximation>, bool) {
        let key = ApproxCacheKey::new(t, class, opts);
        if let Some(v) = self.confirm(self.snapshot(&key), t) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (v, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);

        let start = Instant::now();
        let (tableaux, meta) = all_approximations_tableaux(t, class, opts);
        let report = ApproxReport::from_tableaux(tableaux, meta);
        let width = class.decomposition_width();
        let evaluators = (report.approximations.iter())
            .map(|q| ApproxPlan::compile(q, width))
            .collect();
        let value = Arc::new(CachedApproximation {
            report,
            evaluators,
            compute_time: start.elapsed(),
        });

        // Racing computation may have landed first; adopt the incumbent
        // (isomorphism checked outside the lock on a snapshot).
        if let Some(v) = self.confirm(self.snapshot(&key), t) {
            return (v, false);
        }
        let representative = Arc::new(t.clone());
        let bytes = value.estimated_bytes(&representative);
        let mut buckets = self.buckets();
        buckets.entry(key).or_default().push(Entry {
            representative,
            value: Arc::clone(&value),
            bytes,
        });
        self.resident.fetch_add(bytes, Ordering::Relaxed);
        self.maybe_evict(&mut buckets, &value);
        drop(buckets);
        (value, false)
    }

    /// Evicts entries (cheapest rebuild cost per byte first) until the
    /// estimated resident bytes fit the budget again. `keep` — the
    /// entry whose insert triggered the sweep — is exempt, so an entry
    /// larger than the whole budget is admitted once instead of being
    /// rebuilt on every request.
    fn maybe_evict(
        &self,
        buckets: &mut HashMap<ApproxCacheKey, Vec<Entry>>,
        keep: &Arc<CachedApproximation>,
    ) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        while self.resident.load(Ordering::Relaxed) > budget {
            let victim = buckets
                .iter()
                .flat_map(|(k, entries)| {
                    entries
                        .iter()
                        .enumerate()
                        .map(move |(i, e)| (k.clone(), i, e))
                })
                .filter(|(_, _, e)| !Arc::ptr_eq(&e.value, keep))
                .min_by(|a, b| a.2.cost_per_byte().total_cmp(&b.2.cost_per_byte()))
                .map(|(k, i, _)| (k, i));
            let Some((key, i)) = victim else {
                break; // only the protected entry is left
            };
            let entries = buckets.get_mut(&key).expect("victim bucket exists");
            let evicted = entries.remove(i);
            if entries.is_empty() {
                buckets.remove(&key);
            }
            self.resident.fetch_sub(evicted.bytes, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sets the byte budget (`0` = unbounded). Takes effect at the next
    /// insert; already-resident entries are not swept eagerly.
    pub fn set_budget_bytes(&self, bytes: usize) {
        self.budget.store(bytes, Ordering::Relaxed);
    }

    /// The configured byte budget (`0` = unbounded).
    pub fn budget_bytes(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Estimated bytes of all retained entries.
    pub fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Entries evicted by the byte budget so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Peeks for a cached approximation without ever computing one —
    /// the safe probe for paths that are already over a deadline.
    /// Counts as a hit when it finds an entry; a fruitless peek is not
    /// counted as a miss (no computation was skipped or run).
    pub fn lookup_only(
        &self,
        t: &Pointed,
        class: &dyn QueryClass,
        opts: &ApproxOptions,
    ) -> Option<Arc<CachedApproximation>> {
        let key = ApproxCacheKey::new(t, class, opts);
        let found = self.confirm(self.snapshot(&key), t);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// The bucket map, through poison.
    fn buckets(&self) -> MutexGuard<'_, HashMap<ApproxCacheKey, Vec<Entry>>> {
        self.buckets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Clones a bucket's entries under the lock (Arc bumps only).
    fn snapshot(&self, key: &ApproxCacheKey) -> Vec<(Arc<Pointed>, Arc<CachedApproximation>)> {
        let buckets = self.buckets();
        buckets
            .get(key)
            .map(|entries| {
                entries
                    .iter()
                    .map(|e| (Arc::clone(&e.representative), Arc::clone(&e.value)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Confirms a bucket hit by exact isomorphism, outside any lock.
    fn confirm(
        &self,
        entries: Vec<(Arc<Pointed>, Arc<CachedApproximation>)>,
        t: &Pointed,
    ) -> Option<Arc<CachedApproximation>> {
        entries
            .into_iter()
            .find(|(rep, _)| isomorphic_pointed(rep, t))
            .map(|(_, v)| v)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= computations run) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct cached isomorphism classes.
    pub fn len(&self) -> usize {
        self.buckets().values().map(|v| v.len()).sum()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_core::TwK;
    use cqapx_cq::{parse_cq, tableau_of};

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

    #[test]
    fn different_class_is_a_different_entry() {
        let cache = ApproxCache::new();
        let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let t = tableau_of(&q);
        let opts = ApproxOptions::default();
        cache.get_or_compute(&t, &TwK(1), &opts);
        let (_, hit) = cache.get_or_compute(&t, &TwK(2), &opts);
        assert!(!hit);
        assert_eq!(cache.len(), 2);
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
            let (answers, _) = c.evaluators[0].eval_with_cache(
                d,
                &MaterializationCache::new(),
                &ThreadBudget::sequential(),
            );
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
        let cases: [(&str, &dyn QueryClass, usize, &str); 3] = [
            ("Q(a)", &TwK(1), 1, "tree"),
            ("Q(a,b,c,d)", &TwK(2), 6, "tree"),
            ("Q()", &HtwK(2), 1, "naive"),
        ];
        // A proper quotient of a tournament has a loop, and T4 itself
        // needs a transitive 4-tournament, so the loop-free database
        // without one answers nothing; a vertex with a loop answers
        // every approximation.
        let empty = Structure::digraph(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let full = Structure::digraph(3, &[(0, 1), (1, 1), (1, 2), (2, 1)]);
        let budget = ThreadBudget::sequential();
        for (head, class, count, arm) in cases {
            let q = parse_cq(&format!("{head} :- {T4}")).unwrap();
            let cache = ApproxCache::new();
            let (c, _) = cache.get_or_compute(&tableau_of(&q), class, &ApproxOptions::default());
            assert_eq!(c.evaluators.len(), count, "{head} into {}", class.name());
            for (plan, approx) in c.evaluators.iter().zip(&c.report.approximations) {
                assert_eq!(arm_of(plan), arm, "{approx}");
                for (d, nonempty) in [(&empty, false), (&full, true)] {
                    let want = eval_naive(approx, d);
                    assert_eq!(!want.is_empty(), nonempty, "{approx}");
                    let materialized = MaterializationCache::new();
                    let (cold, _) = plan.eval_with_cache(d, &materialized, &budget);
                    let (warm, stats) = plan.eval_with_cache(d, &materialized, &budget);
                    assert_eq!(cold, want, "cold, {approx}");
                    assert_eq!(warm, want, "warm, {approx}");
                    assert_eq!(stats.misses, 0, "warm run re-materialized, {approx}");
                }
            }
        }
    }
}
