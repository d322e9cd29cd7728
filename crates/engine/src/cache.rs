//! The approximation cache: the single-exponential `C`-approximation
//! search runs **once per query-isomorphism-class**, and every later
//! request — same query text, renamed variables, reordered atoms, or a
//! different prepared query with an isomorphic tableau — reuses the
//! `ApproxReport` and its compiled evaluation plans.
//!
//! The key is exact: an [`ApproxCacheKey`] holds the tableau's vocabulary
//! and canonical words (`cqapx_structures::iso::canonical_form`), the
//! class and the options, and equal keys mean isomorphic tableaux. One
//! map goes from key to member: the class's canonical tableau (its first
//! spelling, relabelled) and one [`Flight`] for its approximations. A
//! lookup labels in the thread's scratch and looks the words up borrowed,
//! so a hit allocates nothing; debug builds check it with
//! `isomorphic_pointed`. A miss searches the canonical tableau inside the
//! flight, so a parallel batch of isomorphic queries searches once, and
//! the report's counts do not depend on the spelling that missed. The
//! map's lock, read through poison, is held only to look up or insert. A
//! [`Ledger`] charges entries estimated bytes and evicts them least
//! recently used first, as in the materialization cache.

use cqapx_core::{
    all_approximations_tableaux, ApproxCacheKey, ApproxOptions, ApproxReport, QueryClass,
};
use cqapx_cq::eval::flight::{lru, Flight, Ledger};
use cqapx_cq::eval::{PlanIr, TreePlan};
use cqapx_cq::{ConjunctiveQuery, QueryShape};
use cqapx_structures::iso::{canonical_form, isomorphic_pointed};
use cqapx_structures::{Pointed, Vocabulary};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Compiles `q`, an approximation in a class whose decomposition width
/// is `width` (if it certifies one), to the program of its tree plan:
/// over a join tree when it is acyclic, else over a decomposition at
/// the class's width, else over the one its treewidth search finds (or
/// component bags). The program is moved out of the plan, not cloned.
fn compile(q: &ConjunctiveQuery, width: Option<usize>) -> PlanIr {
    let plan = TreePlan::join_tree(q).or_else(|| TreePlan::within_width(q, width?));
    let plan = plan
        .unwrap_or_else(|| TreePlan::over_decomposition(q, QueryShape::with_decomposition(q).1));
    plan.into()
}

/// A cached approximation result: the report plus one compiled tree
/// program per approximation.
pub struct CachedApproximation {
    /// The full approximation report (sound under-approximations of the
    /// represented query, →-maximal within the class).
    pub report: ApproxReport,
    /// One plan per `report.approximations[i]`, evaluated through the
    /// database's materialization cache ([`PlanIr::answers`]).
    pub evaluators: Vec<PlanIr>,
}

impl CachedApproximation {
    /// Estimated resident bytes of this entry: the retained tableaux
    /// (the dominant allocations) plus a fixed overhead per compiled
    /// plan. It steers eviction and budget comparisons, never answers.
    fn estimated_bytes(&self, canonical: &Pointed) -> usize {
        let tableaux: usize = self.report.tableaux.iter().map(pointed_bytes).sum();
        tableaux + pointed_bytes(canonical) + self.evaluators.len() * 256 + 128
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

/// One isomorphism class: its canonical tableau, which a miss searches,
/// and the flight its approximations land in.
struct Member {
    canonical: Pointed,
    flight: Flight<Arc<CachedApproximation>>,
}

/// A key's fields, borrowed, in their order: a tuple hashes as the
/// derived `Hash` of a struct of the same fields does.
type Parts<'a> = (&'a Vocabulary, &'a QueryClass, &'a ApproxOptions, &'a [u32]);

/// What the map hashes and compares, so that a lookup by borrowed parts
/// builds no key.
trait Keyed {
    fn parts(&self) -> Parts<'_>;
}

impl Keyed for ApproxCacheKey {
    fn parts(&self) -> Parts<'_> {
        (&self.vocabulary, &self.class, &self.options, &self.words)
    }
}

impl Keyed for Parts<'_> {
    fn parts(&self) -> Parts<'_> {
        *self
    }
}

impl<'a> Borrow<dyn Keyed + 'a> for ApproxCacheKey {
    fn borrow(&self) -> &(dyn Keyed + 'a) {
        self
    }
}

impl Hash for dyn Keyed + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn Keyed + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn Keyed + '_ {}

/// A concurrent map from tableaux, up to isomorphism, to shared
/// [`CachedApproximation`]s (see the module documentation).
#[derive(Default)]
pub struct ApproxCache {
    members: Mutex<HashMap<ApproxCacheKey, Arc<Member>>>,
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
        let member = self.member(t, class, opts);
        let (value, ran) = self.ledger.claim(&member.flight, || {
            let (tableaux, meta) = all_approximations_tableaux(&member.canonical, class, opts);
            let report = ApproxReport::from_tableaux(tableaux, meta);
            let width = class.decomposition_width();
            let evaluators = (report.approximations.iter())
                .map(|q| compile(q, width))
                .collect();
            let value = CachedApproximation { report, evaluators };
            let bytes = value.estimated_bytes(&member.canonical);
            (Arc::new(value), bytes)
        });
        let value = Arc::clone(value);
        let counter = if ran { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        (member, value, ran)
    }

    /// Evicts down to the budget, never `keep` (see [`lru`]).
    fn sweep(&self, keep: Option<&Flight<Arc<CachedApproximation>>>) {
        self.ledger.sweep(|| self.members(), |m| evict_lru(m, keep));
    }

    /// The member `t` belongs to, inserted un-landed when there is none.
    /// A racing insert of the same key wins, and this one is dropped.
    fn member(&self, t: &Pointed, class: &QueryClass, opts: &ApproxOptions) -> Arc<Member> {
        let (form, vocabulary) = (canonical_form(t), t.structure.vocabulary());
        if let Some(member) = self.find(t, (vocabulary, class, opts, form.words())) {
            return member;
        }
        let member = Arc::new(Member {
            canonical: form.tableau(vocabulary),
            flight: Flight::default(),
        });
        let key = ApproxCacheKey {
            vocabulary: vocabulary.clone(),
            class: *class,
            options: opts.clone(),
            words: form.words().into(),
        };
        Arc::clone(self.members().entry(key).or_insert(member))
    }

    /// The member stored under `key`, the parts of `t`'s key.
    fn find(&self, t: &Pointed, key: Parts<'_>) -> Option<Arc<Member>> {
        let member = Arc::clone(self.members().get(&key as &dyn Keyed)?);
        debug_assert!(isomorphic_pointed(&member.canonical, t), "{t:?}");
        Some(member)
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
        let (form, vocabulary) = (canonical_form(t), t.structure.vocabulary());
        let member = self.find(t, (vocabulary, class, opts, form.words()))?;
        member.flight.landed()?;
        // Landed, so the claim returns at once, and stamps a hit.
        let (value, _) = self.ledger.claim(&member.flight, || unreachable!("landed"));
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(value))
    }

    /// The member map, through poison.
    fn members(&self) -> MutexGuard<'_, HashMap<ApproxCacheKey, Arc<Member>>> {
        self.members.lock().unwrap_or_else(PoisonError::into_inner)
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

/// Removes the least recently used landed member other than `keep`;
/// returns its charge. Evicts nothing once `keep` has left the map (see
/// [`lru`]).
fn evict_lru(
    members: &mut HashMap<ApproxCacheKey, Arc<Member>>,
    keep: Option<&Flight<Arc<CachedApproximation>>>,
) -> Option<usize> {
    let held = keep.is_none_or(|k| members.values().any(|m| std::ptr::eq(&m.flight, k)));
    let all = members.values().map(|m| (m, &m.flight));
    let victim = Arc::clone(lru(all, keep).filter(|_| held)?);
    members.retain(|_, m| !Arc::ptr_eq(m, &victim));
    Some(victim.flight.charge())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_core::TwK;
    use cqapx_cq::eval::MaterializationCache;
    use cqapx_cq::{parse_cq, tableau_of};
    use cqapx_structures::Structure;
    use std::sync::Barrier;

    impl ApproxCache {
        /// Number of cached isomorphism classes (landed members only).
        fn len(&self) -> usize {
            let members = self.members();
            members
                .values()
                .filter(|m| m.flight.landed().is_some())
                .count()
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
        let member = cache.member(&t, &TwK(1), &opts);
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

    /// A stored key and its borrowed parts hash alike, as the map's
    /// borrowed lookup needs: the key's derived `Hash` visits its fields
    /// in the order of the parts' tuple.
    #[test]
    fn a_key_and_its_parts_hash_alike() {
        use std::hash::BuildHasher;
        let t = tableau_of(&parse_cq("Q(x) :- E(x,y), E(y,z), E(z,x)").unwrap());
        let key = ApproxCacheKey::new(&t, &TwK(2), &ApproxOptions::default());
        let state = std::collections::hash_map::RandomState::new();
        let parts: &dyn Keyed = &key.parts();
        assert_eq!(state.hash_one(&key), state.hash_one(parts));
        assert!(parts == Borrow::<dyn Keyed>::borrow(&key));
    }

    /// Colour refinement cannot tell the directed `C6` from two directed
    /// triangles, but the key can: they land as two entries, and each is
    /// hit only by its own renamings, atoms reordered.
    #[test]
    fn c6_and_two_triangles_are_two_entries() {
        let cache = ApproxCache::new();
        let opts = ApproxOptions::default();
        let t = |text: &str| tableau_of(&parse_cq(text).unwrap());
        let c6 = "Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)";
        let c6_renamed = "Q() :- E(v,w), E(z,u), E(x,y), E(u,v), E(y,z), E(w,x)";
        let two = "Q() :- E(a,b), E(b,c), E(c,a), E(d,e), E(e,f), E(f,d)";
        let two_renamed = "Q() :- E(y,z), E(u,v), E(z,x), E(v,w), E(x,y), E(w,u)";
        let (c6, two) = ([c6, c6_renamed].map(t), [two, two_renamed].map(t));
        let (a, hit_a) = cache.get_or_compute(&c6[0], &TwK(1), &opts);
        let (b, hit_b) = cache.get_or_compute(&two[0], &TwK(1), &opts);
        assert!(!hit_a && !hit_b && !Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
        let (a2, hit) = cache.get_or_compute(&c6[1], &TwK(1), &opts);
        assert!(hit && Arc::ptr_eq(&a, &a2));
        let (b2, hit) = cache.get_or_compute(&two[1], &TwK(1), &opts);
        assert!(hit && Arc::ptr_eq(&b, &b2));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 2, 2));
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

    /// A panic under the member lock poisons it; the cache still hits,
    /// misses and evicts as before.
    #[test]
    fn poisoned_lock_still_hits_misses_and_evicts() {
        let cache = ApproxCache::new();
        let opts = ApproxOptions::default();
        let q1 = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        let q2 = parse_cq("Q() :- E(a,b), E(b,c), E(c,d), E(d,a)").unwrap();
        cache.get_or_compute(&tableau_of(&q1), &TwK(1), &opts);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _members = cache.members.lock().unwrap();
            panic!("a panic while the member lock is held");
        }));
        assert!(poisoned.is_err() && cache.members.is_poisoned());
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
            let (answers, _) = c.evaluators[0].answers(d, Some(&MaterializationCache::new()));
            !answers.is_empty()
        };
        assert!(eval_boolean(&looped));
        assert!(!eval_boolean(&plain));
    }

    /// Every way an approximation compiles answers as the naive oracle
    /// does on it. `T4`, the transitive tournament, reaches each: into
    /// `TW(1)` with one head variable (one acyclic approximation, a join
    /// tree), into `TW(2)` with all four (six cyclic ones, each over a
    /// decomposition at the class's width) and Boolean into `HTW(2)`
    /// (one, over the decomposition its treewidth search finds: the
    /// class certifies no decomposition width). Each plan runs on a
    /// database where its answer is empty and one where it is not, cold
    /// and then warm through one cache; the warm run misses nothing.
    #[test]
    fn every_arm_answers_as_the_naive_oracle() {
        use cqapx_core::HtwK;
        use cqapx_cq::eval::eval_naive;
        const T4: &str = "E(a,b), E(a,c), E(a,d), E(b,c), E(b,d), E(c,d)";
        let cases = [
            ("Q(a)", TwK(1), 1, None),
            ("Q(a,b,c,d)", TwK(2), 6, Some(2)),
            ("Q()", HtwK(2), 1, Some(3)),
        ];
        // A proper quotient of a tournament has a loop, and T4 itself
        // needs a transitive 4-tournament, so the loop-free database
        // without one answers nothing; a vertex with a loop answers
        // every approximation.
        let empty = Structure::digraph(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let full = Structure::digraph(3, &[(0, 1), (1, 1), (1, 2), (2, 1)]);
        for (head, class, count, width) in cases {
            let q = parse_cq(&format!("{head} :- {T4}")).unwrap();
            let cache = ApproxCache::new();
            let (c, _) = cache.get_or_compute(&tableau_of(&q), &class, &ApproxOptions::default());
            assert_eq!(c.evaluators.len(), count, "{head} into {}", class.name());
            for (plan, approx) in c.evaluators.iter().zip(&c.report.approximations) {
                let tw = QueryShape::of(approx).treewidth;
                assert_eq!(
                    TreePlan::join_tree(approx).map_or(Some(tw), |_| None),
                    width
                );
                for (d, nonempty) in [(&empty, false), (&full, true)] {
                    let want = eval_naive(approx, d);
                    assert_eq!(!want.is_empty(), nonempty, "{approx}");
                    let materialized = MaterializationCache::new();
                    let (cold, _) = plan.answers(d, Some(&materialized));
                    let (warm, stats) = plan.answers(d, Some(&materialized));
                    assert_eq!(cold, want, "cold, {approx}");
                    assert_eq!(warm, want, "warm, {approx}");
                    assert_eq!(stats.misses, 0, "warm run re-materialized, {approx}");
                }
            }
        }
    }
}
