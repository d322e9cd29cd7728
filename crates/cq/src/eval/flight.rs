//! The single-flight core of both engine caches. Each cache keeps its
//! [`Flight`]s in a map under one lock; a [`Ledger`] lands a flight,
//! charged and stamped before it publishes, and sweeps the map down to
//! the byte budget by [`lru`]. Claimants of an un-landed flight block on
//! it and hit, as if they had come after its first claimant, so hit and
//! miss counts do not depend on the schedule. A computation that panics
//! lands nothing; the next claimant runs it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One cache entry: its value and byte charge once landed, and the
/// ledger's tick at its landing or latest hit.
#[derive(Debug)]
pub struct Flight<V> {
    cell: OnceLock<(V, usize)>,
    last: AtomicU64,
}

impl<V> Default for Flight<V> {
    fn default() -> Self {
        let (cell, last) = (OnceLock::new(), AtomicU64::new(0));
        Flight { cell, last }
    }
}

impl<V> Flight<V> {
    /// The value, once landed.
    pub fn landed(&self) -> Option<&V> {
        self.cell.get().map(|(value, _)| value)
    }

    /// The bytes charged for the value (0 until it lands).
    pub fn charge(&self) -> usize {
        self.cell.get().map_or(0, |&(_, bytes)| bytes)
    }
}

/// The byte budget (`0` = unbounded), the bytes charged to landed
/// flights still in the cache, the evictions and the recency clock, all
/// relaxed: a stamp only ranks victims, and a landing's stores are
/// ordered by its flight's publication.
#[derive(Debug, Default)]
pub struct Ledger {
    budget: AtomicUsize,
    resident: AtomicUsize,
    evictions: AtomicU64,
    tick: AtomicU64,
}

impl Ledger {
    /// `flight`'s value, computed by `make` (value and charge) if this
    /// is its first claimant, else waited for; `true` when this call
    /// computed it, a miss. A landing is stamped and charged before it
    /// publishes, so no sweep sees a landed flight uncharged.
    pub fn claim<'f, V>(
        &self,
        flight: &'f Flight<V>,
        make: impl FnOnce() -> (V, usize),
    ) -> (&'f V, bool) {
        let mut ran = false;
        let (value, _) = flight.cell.get_or_init(|| {
            ran = true;
            let (value, bytes) = make();
            self.stamp(flight);
            self.resident.fetch_add(bytes, Ordering::Relaxed);
            (value, bytes)
        });
        if !ran {
            self.stamp(flight);
        }
        (value, ran)
    }

    fn stamp<V>(&self, flight: &Flight<V>) {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        flight.last.store(now, Ordering::Relaxed);
    }

    /// While the resident bytes exceed the budget, calls `evict_lru`
    /// under the lock `lock` takes: it removes the flight [`lru`] names
    /// (never an un-landed one: a claimant may wait on it) and returns
    /// its charge, or `None` when none is evictable.
    pub fn sweep<G>(
        &self,
        lock: impl FnOnce() -> G,
        mut evict_lru: impl FnMut(&mut G) -> Option<usize>,
    ) {
        let budget = self.budget_bytes();
        if budget == 0 || self.resident_bytes() <= budget {
            return;
        }
        let mut guard = lock();
        while self.resident_bytes() > budget {
            let Some(bytes) = evict_lru(&mut guard) else {
                break;
            };
            self.resident.fetch_sub(bytes, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sets the byte budget; the cache sweeps next.
    pub fn set_budget_bytes(&self, bytes: usize) {
        self.budget.store(bytes, Ordering::Relaxed);
    }

    /// The byte budget (`0` = unbounded).
    pub fn budget_bytes(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Bytes charged to landed flights still in the cache.
    pub fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Flights evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// The victim rule: the name of the least recently used landed flight
/// among `flights`, other than `keep`. The approximation cache keeps
/// the flight whose landing started the sweep, so an entry larger than
/// the budget is admitted once, not recomputed on every request; the
/// materialization cache keeps none, and rebuilds such an entry.
pub fn lru<'a, I, V: 'a>(
    flights: impl IntoIterator<Item = (I, &'a Flight<V>)>,
    keep: Option<&Flight<V>>,
) -> Option<I> {
    let kept = |f: &Flight<V>| keep.is_some_and(|k| std::ptr::eq(k, f));
    (flights.into_iter())
        .filter(|(_, f)| f.landed().is_some() && !kept(f))
        .min_by_key(|(_, f)| f.last.load(Ordering::Relaxed))
        .map(|(name, _)| name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A `make` that panics lands and charges nothing; the next claimant
    /// runs `make` again, counts the one miss, and the resident bytes are
    /// exactly its charge.
    #[test]
    fn a_panicking_make_lands_nothing_and_the_next_claimant_computes() {
        let (ledger, flight) = (Ledger::default(), Flight::<u32>::default());
        let failed = catch_unwind(AssertUnwindSafe(|| {
            ledger.claim(&flight, || panic!("make fails"));
        }));
        assert!(failed.is_err());
        assert_eq!((flight.landed(), flight.charge()), (None, 0));
        assert_eq!(ledger.resident_bytes(), 0);
        let mut misses = 0;
        for _ in 0..2 {
            let (value, ran) = ledger.claim(&flight, || (7, 40));
            assert_eq!(*value, 7);
            misses += usize::from(ran);
        }
        assert_eq!(misses, 1);
        assert_eq!((flight.charge(), ledger.resident_bytes()), (40, 40));
    }

    /// The victim is the landed flight stamped longest ago, never an
    /// un-landed one or `keep`; a hit restamps.
    #[test]
    fn lru_names_the_least_recently_used_landed_flight() {
        let ledger = Ledger::default();
        let flights: [Flight<u32>; 4] = Default::default();
        for f in &flights[..3] {
            ledger.claim(f, || (0, 1));
        }
        let named = || flights.iter().enumerate();
        assert_eq!(lru(named(), None), Some(0));
        assert_eq!(lru(named(), Some(&flights[0])), Some(1));
        let hit = |i: usize| ledger.claim(&flights[i], || unreachable!("landed"));
        hit(0);
        hit(1);
        assert_eq!(lru(named(), None), Some(2));
        hit(2);
        assert_eq!(lru(named(), None), Some(0), "flight 3 never landed");
    }
}
