//! The engine: catalog + cache + planner + parallel batch execution.

use crate::cache::{ApproxCache, CachedApproximation};
use crate::catalog::{Catalog, DatabaseEntry, DbId, PreparedQuery, QueryId};
use crate::planner::{choose, PlanDecision, PlanKind, PlanReason};
use cqapx_core::{ApproxOptions, QueryClass};
use cqapx_cq::eval::{Answers, AnswersBuilder, MatCacheStats, NaivePlan};
use cqapx_metrics::{Histogram, HistogramSnapshot, MetricsLevel};
use cqapx_par::{default_threads, parallel_map, ThreadBudget};
use cqapx_structures::{SearchBudget, Structure};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Engine-wide tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The engine's **total** worker-thread budget for batches: a batch
    /// spreads its requests over up to this many workers, and
    /// concurrent batches share the one pool. One request always runs
    /// on the thread that executes it. `0` = available parallelism;
    /// `1` = fully sequential execution.
    pub threads: usize,
    /// Planner budget: estimated branch nodes the naive join may cost
    /// before the planner switches to the approximation sandwich.
    pub naive_cost_budget: f64,
    /// Class for sandwich approximations.
    pub approx_class: QueryClass,
    /// Options for the (cached) approximation search.
    pub approx_options: ApproxOptions,
    /// Default per-request timeout (individual requests may override).
    ///
    /// The deadline bounds **join evaluation** (naive search nodes and
    /// answer enumeration). It does not bound a first-time approximation
    /// search on the certain-answer path — that work is amortized across
    /// all requests for the query's isomorphism class and is treated as
    /// prepare-style work — nor the in-class approximation evaluators
    /// (tractable by construction). Pre-warm the cache with a
    /// [`EvalMode::CertainOnly`] request if first-request latency
    /// matters.
    pub default_timeout: Option<Duration>,
    /// Search-node budget granted per millisecond of remaining deadline
    /// (converts wall timeouts into hom-search node budgets, so even
    /// fruitless searches stop near the deadline).
    pub nodes_per_ms: u64,
    /// How much the engine instruments itself (see [`MetricsLevel`]);
    /// `Counters` by default. [`MetricsLevel::None`] skips the latency
    /// histograms and the per-database counters; [`EngineStats`] is
    /// counted on every request at every level. `Counters` is also
    /// what powers deadline-aware degradation — without latency
    /// histograms there is no p99 to predict from.
    pub metrics: MetricsLevel,
    /// Admission control: the maximum number of requests that may be
    /// outstanding (admitted and not yet finished) at once. Requests
    /// arriving beyond the limit are not planned or evaluated at all —
    /// they return immediately with [`ResponseStatus::Shed`] and empty
    /// (vacuously sound) answers. `None` disables shedding.
    pub max_queue_depth: Option<usize>,
    /// Byte budget for **each** registered database's relation-
    /// materialization cache; `None` and `Some(0)` both mean unbounded.
    /// An over-budget cache evicts its least recently used relations
    /// (landed or hit) under its one lock; evicted relations are rebuilt
    /// byte-identically on the next request.
    pub mat_cache_budget_bytes: Option<usize>,
    /// Byte budget for the shared approximation cache; `None` and
    /// `Some(0)` both mean unbounded. An over-budget cache evicts its
    /// least recently used approximations, never the one just landed.
    pub approx_cache_budget_bytes: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            naive_cost_budget: 5e7,
            approx_class: QueryClass::TwK(1),
            approx_options: ApproxOptions::default(),
            default_timeout: None,
            nodes_per_ms: 50_000,
            metrics: MetricsLevel::Counters,
            max_queue_depth: None,
            mat_cache_budget_bytes: None,
            approx_cache_budget_bytes: None,
        }
    }
}

/// Samples a query class's latency histogram must hold before its p99
/// is trusted to predict a deadline miss (and trigger the sandwich
/// downgrade). Below this, the engine optimistically runs the chosen
/// plan and lets the deadline budget bound it.
pub const DEGRADE_MIN_SAMPLES: u64 = 16;

/// How much of the answer a request wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// The exact answer `Q(D)` (sandwich plans refine via the exact join).
    #[default]
    Exact,
    /// Only guaranteed-correct answers, as fast as possible: sandwich
    /// plans stop at `Q'(D) ⊆ Q(D)` without refining.
    CertainOnly,
}

/// One unit of work for [`Engine::execute_batch`].
#[derive(Debug, Clone)]
pub struct Request {
    /// The prepared query to evaluate.
    pub query: QueryId,
    /// The registered database to evaluate on.
    pub db: DbId,
    /// Exact or certain-only.
    pub mode: EvalMode,
    /// Per-request timeout override (falls back to the engine default).
    /// Bounds join evaluation, not a first-time approximation search —
    /// see [`EngineConfig::default_timeout`].
    pub timeout: Option<Duration>,
}

impl Request {
    /// An exact-mode request with the engine's default timeout.
    pub fn new(query: QueryId, db: DbId) -> Self {
        Request {
            query,
            db,
            mode: EvalMode::Exact,
            timeout: None,
        }
    }
}

/// Completeness of a response's answer set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// `answers` is exactly `Q(D)`.
    Complete,
    /// `answers ⊆ Q(D)`: the certain answers of the approximation
    /// (requested via [`EvalMode::CertainOnly`]).
    CertainOnly,
    /// The deadline or node budget cut evaluation short; `answers` is
    /// still sound (`⊆ Q(D)`) but possibly incomplete.
    TimedOut,
    /// The measured p99 of the query's class predicted the exact plan
    /// would miss its deadline, so the engine served the approximation's
    /// certain answers up front: `answers ⊆ Q(D)`, possibly incomplete,
    /// delivered in time instead of timing out.
    Degraded,
    /// Admission control rejected the request at the door (queue depth
    /// over [`EngineConfig::max_queue_depth`]): nothing was planned or
    /// evaluated; `answers` is empty (vacuously sound).
    Shed,
    /// The request could not be served — an unknown id, a query and a
    /// database over different vocabularies, or a panic while planning
    /// or evaluating: `answers` is empty.
    Failed,
}

/// The outcome of one request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Answer tuples (sound in every status; complete only in
    /// [`ResponseStatus::Complete`]): one flat buffer of rows in head
    /// order, sorted and duplicate-free.
    pub answers: Answers,
    /// Completeness of `answers`.
    pub status: ResponseStatus,
    /// The plan the engine chose.
    pub plan: PlanKind,
    /// Width of the query's compiled tree decomposition, when it has
    /// one (set whether or not the decomposed tier was chosen —
    /// observability parity with `mat_cache`).
    pub decomposition_width: Option<usize>,
    /// For sandwich plans: whether the approximation came from the cache.
    pub cache_hit: Option<bool>,
    /// Relation-materialization cache outcome of this request: how many
    /// hyperedge scans were skipped (hits) vs run (misses). All-zero for
    /// plans that never materialize (naive backtracking).
    pub mat_cache: MatCacheStats,
    /// Wall time of this request.
    pub wall: Duration,
    /// The planner's full decision (estimates, budget, rationale).
    decision: PlanDecision,
    /// What happened after planning, appended to the rationale.
    note: ReasonNote,
}

/// Execution-path modifier appended to the planner's rationale.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ReasonNote {
    /// The plan ran as chosen.
    None,
    /// Sandwich plan in exact mode: the full join ran under the
    /// deadline, the approximation stood by as fallback.
    ExactFallback,
    /// Deadline-aware degradation fired: measured class p99 (µs) vs
    /// the deadline headroom (µs) that was left.
    Degraded { p99_us: u64, headroom_us: u64 },
}

impl Response {
    /// The planner's rationale, rendered on demand — requests nobody
    /// inspects never pay for the formatting (this used to be an eager
    /// `String` built on every request).
    pub fn plan_reason(&self) -> String {
        let mut text = self.decision.describe();
        match self.note {
            ReasonNote::None => {}
            ReasonNote::ExactFallback => {
                text.push_str(
                    "; exact mode: full join under the deadline, approximation as fallback",
                );
            }
            ReasonNote::Degraded {
                p99_us,
                headroom_us,
            } => {
                text.push_str(&format!(
                    "; degraded: measured class p99 {p99_us}µs exceeds the {headroom_us}µs left before the deadline — serving certain answers up front"
                ));
            }
        }
        text
    }
}

/// Aggregate serving statistics.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Requests served.
    pub requests: u64,
    /// Requests answered exactly.
    pub complete: u64,
    /// Requests answered with certain answers only.
    pub certain_only: u64,
    /// Requests cut short by deadline/budget.
    pub timed_out: u64,
    /// Requests downgraded to certain answers up front because the
    /// measured class p99 predicted a deadline miss.
    pub degraded: u64,
    /// Requests rejected by queue-depth admission control.
    pub shed: u64,
    /// Requests answered [`ResponseStatus::Failed`].
    pub failed: u64,
    /// Plan counts.
    pub plan_yannakakis: u64,
    /// Plan counts.
    pub plan_decomposed: u64,
    /// Plan counts.
    pub plan_naive: u64,
    /// Plan counts.
    pub plan_sandwich: u64,
    /// Approximation-cache hits (sandwich requests that skipped the
    /// single-exponential search because the isomorphism-keyed cache held
    /// the query's approximation).
    pub cache_hits: u64,
    /// Approximation-cache misses (searches actually run).
    pub cache_misses: u64,
    /// Relation-materialization cache hits: hyperedge scans skipped
    /// because the per-database cache already held the relation.
    pub mat_hits: u64,
    /// Relation-materialization cache misses: hyperedge relations
    /// actually scanned (and inserted for later requests).
    pub mat_misses: u64,
    /// Multi-part bags built (each by the multiway kernel).
    pub bag_builds: u64,
    /// Semijoins and Boolean sweep steps answered by a column bitmap.
    pub bitmap_probes: u64,
    /// Sorts run on packed code words.
    pub packed_sorts: u64,
    /// Rows those sorts read.
    pub packed_rows: u64,
    /// Total answer tuples returned.
    pub answers: u64,
    /// Summed per-request wall time (across workers; exceeds elapsed
    /// wall clock under parallelism).
    pub busy: Duration,
}

impl EngineStats {
    /// Cache hit rate in `[0, 1]` (0 when no sandwich request ran yet).
    fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Materialization-cache hit rate in `[0, 1]` (0 when no request
    /// materialized a hyperedge relation yet).
    pub fn mat_hit_rate(&self) -> f64 {
        let total = self.mat_hits + self.mat_misses;
        if total == 0 {
            0.0
        } else {
            self.mat_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "requests        {}", self.requests)?;
        writeln!(
            f,
            "  complete {} · certain-only {} · timed-out {} · degraded {} · shed {}",
            self.complete, self.certain_only, self.timed_out, self.degraded, self.shed
        )?;
        writeln!(
            f,
            "plans           yannakakis {} · decomposed {} · naive {} · sandwich {}",
            self.plan_yannakakis, self.plan_decomposed, self.plan_naive, self.plan_sandwich
        )?;
        writeln!(
            f,
            "approx cache    hits {} · misses {} (hit rate {:.1}%)",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hit_rate()
        )?;
        writeln!(
            f,
            "mat cache       hits {} · misses {} (hit rate {:.1}%)",
            self.mat_hits,
            self.mat_misses,
            100.0 * self.mat_hit_rate()
        )?;
        writeln!(f, "bag builds      {}", self.bag_builds)?;
        writeln!(
            f,
            "kernels         bitmap probes {} · packed sorts {} ({} rows)",
            self.bitmap_probes, self.packed_sorts, self.packed_rows
        )?;
        writeln!(f, "answers         {}", self.answers)?;
        write!(f, "busy time       {:?}", self.busy)
    }
}

/// The classes request latency is recorded under, in index order: the
/// four plan tiers, then degraded and shed requests. Those two get
/// their own classes because their latencies describe the degraded
/// path, not the tier the planner picked, and must not feed back into
/// its p99.
const CLASSES: [&str; 6] = [
    "yannakakis",
    "decomposed",
    "naive",
    "sandwich",
    "degraded",
    "shed",
];

/// The index in [`CLASSES`] of a response with this status and plan.
fn class_of(status: ResponseStatus, plan: PlanKind) -> usize {
    match (status, plan) {
        (ResponseStatus::Shed, _) | (_, PlanKind::Shed) => 5,
        (ResponseStatus::Degraded, _) => 4,
        (_, PlanKind::Yannakakis) => 0,
        (_, PlanKind::Decomposed) => 1,
        (_, PlanKind::Naive) => 2,
        (_, PlanKind::Sandwich) => 3,
    }
}

/// A point-in-time copy of everything the engine measures: the
/// aggregate counters, cache memory and occupancy, plus, when the
/// metrics level records them, the latency distributions and the
/// per-database cache outcomes. Taken by [`Engine::snapshot`];
/// [`Engine::reset_stats`] zeroes the counters and the recorded
/// instruments so serving epochs (warmup vs measurement) don't
/// accumulate into each other.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// The aggregate counters ([`Engine::stats`]), the kernel counters
    /// of this engine's runs among them.
    pub counters: EngineStats,
    /// The level the engine records at.
    pub level: MetricsLevel,
    /// Latency quantiles of every query class (the four plan tiers,
    /// `"degraded"`, `"shed"`); values in microseconds. Empty below
    /// `Counters`.
    pub class_latency: BTreeMap<String, HistogramSnapshot>,
    /// Latency quantiles by database registration name. Empty below
    /// `Counters`.
    pub db_latency: BTreeMap<String, HistogramSnapshot>,
    /// Approximation-cache outcomes by database (`"<db>/hits"`,
    /// `"<db>/misses"`). Empty below `Counters`.
    pub approx_cache_by_db: BTreeMap<String, u64>,
    /// Materialization-cache outcomes by database, same label scheme.
    /// Empty below `Counters`.
    pub mat_cache_by_db: BTreeMap<String, u64>,
    /// Resident bytes of each database's materialization cache, by
    /// registration name: the cache of the entry registered last.
    /// Authoritative — read from the caches at snapshot time, at every
    /// metrics level.
    pub mat_cache_bytes_by_db: BTreeMap<String, u64>,
    /// Budget-driven evictions of each database's materialization
    /// cache, by registration name.
    pub mat_cache_evictions_by_db: BTreeMap<String, u64>,
    /// Domain-dictionary sizes (distinct active-domain elements) by
    /// registration name.
    pub dict_size_by_db: BTreeMap<String, u64>,
    /// Per-database materialization-cache byte budget (`0` = unbounded).
    pub mat_cache_budget_bytes: u64,
    /// Estimated resident bytes of the approximation cache.
    pub approx_cache_bytes: u64,
    /// Approximation-cache byte budget (`0` = unbounded).
    pub approx_cache_budget_bytes: u64,
    /// Approximation-cache entries evicted by the byte budget.
    pub approx_cache_evictions: u64,
    /// Outstanding admitted requests at snapshot time.
    pub queue_depth: i64,
    /// Total claimable extra workers (threads − 1).
    pub workers_capacity: usize,
    /// Unclaimed workers at snapshot time.
    pub workers_available: i64,
}

/// A stateful query-serving engine: register databases, prepare queries,
/// then execute single requests or parallel batches.
///
/// # Examples
///
/// ```
/// use cqapx_engine::{Engine, EngineConfig, Request};
/// use cqapx_cq::parse_cq;
/// use cqapx_structures::Structure;
///
/// let engine = Engine::new(EngineConfig::default());
/// let db = engine.register_database("path", Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]));
/// let q = engine.prepare_query("ends", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
/// let resp = engine.execute(&Request::new(q, db));
/// assert_eq!(resp.answers.len(), 2);
/// ```
pub struct Engine {
    config: EngineConfig,
    /// Read through poison: only catalog code runs under the lock, so a
    /// panic under it leaves the catalog whole.
    catalog: RwLock<Catalog>,
    cache: ApproxCache,
    /// Read through a poisoned lock too: a panic under it leaves the
    /// counters at worst one request behind.
    stats: Mutex<EngineStats>,
    /// The engine-wide worker budget ([`EngineConfig::threads`] total
    /// workers), from which batch execution claims its workers.
    budget: ThreadBudget,
    /// Request latency by class, indexed as [`CLASSES`]; recorded at
    /// [`MetricsLevel::Counters`].
    class_latency: [Histogram; CLASSES.len()],
    /// Outstanding admitted requests — the queue depth admission
    /// control compares against [`EngineConfig::max_queue_depth`].
    /// Incremented at submission (before any planning), decremented
    /// when the request's [`Admission`] drops, unwinding included.
    inflight: AtomicUsize,
}

/// An admitted request's place in the queue, given back on drop — also
/// when the request unwinds.
struct Admission<'e>(&'e AtomicUsize);

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        let threads = if config.threads == 0 {
            default_threads()
        } else {
            config.threads
        };
        let cache = ApproxCache::new();
        cache.set_budget_bytes(config.approx_cache_budget_bytes.unwrap_or(0));
        Engine {
            config,
            catalog: RwLock::new(Catalog::new()),
            cache,
            stats: Mutex::new(EngineStats::default()),
            budget: ThreadBudget::new(threads),
            class_latency: Default::default(),
            inflight: AtomicUsize::new(0),
        }
    }

    /// Registers a database: scans statistics and builds the domain
    /// dictionary (`DatabaseEntry::build`), applies the
    /// materialization-cache byte budget (see
    /// [`EngineConfig::mat_cache_budget_bytes`]), and only then takes
    /// the catalog's write lock, for a push or a swap — requests
    /// resolving other databases never wait for a snapshot's scan. A name
    /// registered again keeps its id and counters; its old snapshot is
    /// freed here, after the lock is released, or with the last request
    /// in flight that still holds it.
    pub fn register_database(&self, name: impl Into<String>, s: Structure) -> DbId {
        let entry = DatabaseEntry::build(name, s);
        entry.materialized.set_budget_bytes(self.mat_budget());
        let (id, replaced) = self.write_catalog().insert_database(entry);
        drop(replaced);
        id
    }

    /// Prepares a query (shape and plans, [`PreparedQuery::build`]) and
    /// takes the catalog's write lock only for the push or swap, as
    /// [`Engine::register_database`] does, with the same rule for a
    /// name prepared again.
    pub fn prepare_query(&self, name: impl Into<String>, q: cqapx_cq::ConjunctiveQuery) -> QueryId {
        let entry = PreparedQuery::build(name, q);
        let (id, replaced) = self.write_catalog().insert_query(entry);
        drop(replaced);
        id
    }

    /// The catalog entry behind a database id: the immutable snapshot,
    /// its statistics, and its materialization cache.
    pub fn database(&self, id: DbId) -> Option<Arc<DatabaseEntry>> {
        self.read_catalog().database(id)
    }

    /// The catalog, for reading, through poison.
    fn read_catalog(&self) -> RwLockReadGuard<'_, Catalog> {
        self.catalog.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The catalog, for writing, through poison.
    fn write_catalog(&self) -> RwLockWriteGuard<'_, Catalog> {
        self.catalog.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The approximation cache (hit/miss counters, size).
    pub fn cache(&self) -> &ApproxCache {
        &self.cache
    }

    /// A snapshot of the aggregate statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Whether the engine records latencies and per-database cache
    /// outcomes.
    fn counting(&self) -> bool {
        self.config.metrics.at_least(MetricsLevel::Counters)
    }

    /// The per-database materialization-cache byte budget (`0` =
    /// unbounded).
    fn mat_budget(&self) -> usize {
        self.config.mat_cache_budget_bytes.unwrap_or(0)
    }

    /// A consistent point-in-time copy of everything measured: counters,
    /// latency quantiles, per-database cache outcomes, cache memory and
    /// occupancy.
    pub fn snapshot(&self) -> StatsSnapshot {
        let counting = self.counting();
        let mut class_latency = BTreeMap::new();
        if counting {
            for (class, h) in CLASSES.iter().zip(&self.class_latency) {
                class_latency.insert(class.to_string(), h.snapshot());
            }
        }
        // Memory and dictionaries come from the caches themselves, at
        // every metrics level.
        let mut mat_bytes = BTreeMap::new();
        let mut mat_evictions = BTreeMap::new();
        let mut dict_sizes = BTreeMap::new();
        let mut db_latency = BTreeMap::new();
        let mut approx_by_db = BTreeMap::new();
        let mut mat_by_db = BTreeMap::new();
        for d in self.read_catalog().databases() {
            mat_bytes.insert(d.name.clone(), d.materialized.resident_bytes() as u64);
            mat_evictions.insert(d.name.clone(), d.materialized.evictions());
            dict_sizes.insert(d.name.clone(), d.structure.domain_dict().len() as u64);
            if counting {
                let c = &d.counters;
                db_latency.insert(d.name.clone(), c.latency.snapshot());
                approx_by_db.insert(format!("{}/hits", d.name), c.approx_hits.get());
                approx_by_db.insert(format!("{}/misses", d.name), c.approx_misses.get());
                mat_by_db.insert(format!("{}/hits", d.name), c.mat_hits.get());
                mat_by_db.insert(format!("{}/misses", d.name), c.mat_misses.get());
            }
        }
        StatsSnapshot {
            counters: self.stats(),
            level: self.config.metrics,
            class_latency,
            db_latency,
            approx_cache_by_db: approx_by_db,
            mat_cache_by_db: mat_by_db,
            mat_cache_bytes_by_db: mat_bytes,
            mat_cache_evictions_by_db: mat_evictions,
            dict_size_by_db: dict_sizes,
            mat_cache_budget_bytes: self.mat_budget() as u64,
            approx_cache_bytes: self.cache.resident_bytes() as u64,
            approx_cache_budget_bytes: self.cache.budget_bytes() as u64,
            approx_cache_evictions: self.cache.evictions(),
            queue_depth: self.inflight.load(Ordering::Relaxed) as i64,
            workers_capacity: self.budget.capacity(),
            workers_available: self.budget.available() as i64,
        }
    }

    /// Zeroes the aggregate counters, the class latency histograms and
    /// every database's counters. Cache contents, memory and eviction
    /// counts stay.
    /// Serving epochs — warmup vs measurement — call this between
    /// phases so distributions don't accumulate across them. Quiesce
    /// in-flight batches first: resetting under concurrent recorders
    /// loses those increments, and a degrading engine forgets the p99
    /// it predicts from.
    pub fn reset_stats(&self) {
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner) = EngineStats::default();
        for h in &self.class_latency {
            h.reset();
        }
        for d in self.read_catalog().databases() {
            d.counters.reset();
        }
    }

    /// Admission control at submission time: count this request against
    /// the queue and decide whether it may run. The request counts for
    /// as long as the [`Admission`] lives; `Err((depth, limit))` means
    /// it must be shed (and it no longer counts).
    fn admit(&self) -> Result<Admission<'_>, (usize, usize)> {
        let depth = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        let admitted = Admission(&self.inflight);
        match self.config.max_queue_depth {
            Some(limit) if depth > limit => Err((depth, limit)),
            _ => Ok(admitted),
        }
    }

    /// The response of a request nothing was evaluated for: shed at
    /// admission, or failed. The answer set is empty (vacuously sound).
    fn unserved(&self, arity: usize, status: ResponseStatus, reason: PlanReason) -> Response {
        Response {
            answers: Answers::empty(arity),
            status,
            plan: PlanKind::Shed,
            decomposition_width: None,
            cache_hit: None,
            mat_cache: MatCacheStats::default(),
            wall: Duration::ZERO,
            decision: PlanDecision {
                kind: PlanKind::Shed,
                est_naive_cost: 0.0,
                est_decomposed_cost: None,
                decomposition_width: None,
                naive_budget: self.config.naive_cost_budget,
                reason,
            },
            note: ReasonNote::None,
        }
    }

    /// Executes one request synchronously.
    ///
    /// A request that cannot be served is answered
    /// [`ResponseStatus::Failed`]: an unknown id, a (query, database)
    /// pair over different vocabularies — planning with another
    /// vocabulary's statistics would silently mis-cost, and evaluation
    /// would fail deep inside the join — or a panic while planning or
    /// evaluating. The engine keeps serving: the request gives back its
    /// place in the queue, and no lock stays poisoned.
    pub fn execute(&self, req: &Request) -> Response {
        let resp = self.serve(req, self.admit());
        self.record(&resp);
        resp
    }

    /// Executes a batch in parallel (scoped worker threads, input order
    /// preserved). Each request carries its own deadline.
    ///
    /// Batch workers are claimed from the engine's [`ThreadBudget`], so
    /// concurrent batches share the one configured core budget; each
    /// request runs start to finish on the worker that took it.
    ///
    /// Admission control sees the whole backlog: every request counts
    /// against the queue at submission (here, in input order), so with
    /// [`EngineConfig::max_queue_depth`] set, a batch deeper than the
    /// remaining headroom has its tail shed deterministically — those
    /// responses come back [`ResponseStatus::Shed`] without planning or
    /// evaluation. A request that cannot be served is answered
    /// [`ResponseStatus::Failed`], as [`Engine::execute`] says, and the
    /// others are answered as ever.
    pub fn execute_batch(&self, reqs: &[Request]) -> Vec<Response> {
        // Each admission rides in its work item, given back when served.
        let work: Vec<_> = reqs.iter().map(|r| (r, self.admit())).collect();
        let lease = self.budget.claim(work.len().saturating_sub(1));
        let responses = parallel_map(work, lease.workers(), |(req, admission)| {
            self.serve(req, admission)
        });
        drop(lease);
        for r in &responses {
            self.record(r);
        }
        responses
    }

    /// The response to `req` under its admission: shed when refused,
    /// otherwise planned and evaluated — [`ResponseStatus::Failed`] when
    /// that panics.
    fn serve(&self, req: &Request, admission: Result<Admission<'_>, (usize, usize)>) -> Response {
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (q, d) = self.resolve(req);
            let Err((depth, limit)) = admission else {
                return self.run(req, &q, &d);
            };
            let r = self.unserved(
                q.query().arity(),
                ResponseStatus::Shed,
                PlanReason::QueueFull(depth, limit),
            );
            self.note_response(&d, &r);
            r
        }));
        served.unwrap_or_else(|_| {
            let arity = self
                .read_catalog()
                .query(req.query)
                .map(|q| q.query().arity());
            self.unserved(
                arity.unwrap_or(0),
                ResponseStatus::Failed,
                PlanReason::Failed,
            )
        })
    }

    /// The request's snapshot: its prepared query and database entry.
    /// Panics on an unknown id and on a vocabulary mismatch, which
    /// [`Engine::execute`] answers as failed.
    fn resolve(&self, req: &Request) -> (Arc<PreparedQuery>, Arc<DatabaseEntry>) {
        let catalog = self.read_catalog();
        let q = catalog
            .query(req.query)
            .unwrap_or_else(|| panic!("unknown query id {:?}", req.query));
        let d = catalog
            .database(req.db)
            .unwrap_or_else(|| panic!("unknown database id {:?}", req.db));
        assert_eq!(
            q.query().vocabulary(),
            d.structure.vocabulary(),
            "query {:?} and database {:?} have different vocabularies",
            q.name,
            d.name
        );
        (q, d)
    }

    fn record(&self, r: &Response) {
        let mut s = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        s.requests += 1;
        match r.status {
            ResponseStatus::Complete => s.complete += 1,
            ResponseStatus::CertainOnly => s.certain_only += 1,
            ResponseStatus::TimedOut => s.timed_out += 1,
            ResponseStatus::Degraded => s.degraded += 1,
            ResponseStatus::Shed => s.shed += 1,
            ResponseStatus::Failed => s.failed += 1,
        }
        match r.plan {
            PlanKind::Yannakakis => s.plan_yannakakis += 1,
            PlanKind::Decomposed => s.plan_decomposed += 1,
            PlanKind::Naive => s.plan_naive += 1,
            PlanKind::Sandwich => s.plan_sandwich += 1,
            PlanKind::Shed => {} // not a plan; counted via `shed` or `failed`
        }
        match r.cache_hit {
            Some(true) => s.cache_hits += 1,
            Some(false) => s.cache_misses += 1,
            None => {}
        }
        s.mat_hits += r.mat_cache.hits as u64;
        s.mat_misses += r.mat_cache.misses as u64;
        s.bag_builds += r.mat_cache.wcoj_bag_builds as u64;
        s.bitmap_probes += r.mat_cache.bitmap_probes;
        s.packed_sorts += r.mat_cache.packed_sorts;
        s.packed_rows += r.mat_cache.packed_rows;
        s.answers += r.answers.len() as u64;
        s.busy += r.wall;
    }

    fn run(&self, req: &Request, q: &PreparedQuery, d: &DatabaseEntry) -> Response {
        #[cfg(test)]
        tests::panics_when_asked(q);
        let start = Instant::now();
        let deadline = req
            .timeout
            .or(self.config.default_timeout)
            .and_then(|t| start.checked_add(t)); // past `Instant`'s range: none
                                                 // One shared step budget per request: the naive-join searches a
                                                 // request fans into all charge the same counter, so the join
                                                 // phase as a whole — not each sub-search — honors the deadline.
                                                 // (As documented on `EngineConfig::default_timeout`, the
                                                 // deadline bounds join evaluation; in-class approximation
                                                 // evaluators are tractable by construction and run unbudgeted.)
        let budget = deadline.map(|dl| {
            let remaining_ms = dl
                .saturating_duration_since(Instant::now())
                .as_millis()
                .max(1) as u64;
            SearchBudget::new(remaining_ms.saturating_mul(self.config.nodes_per_ms))
        });
        let decision: PlanDecision = choose(
            &q.shape,
            q.tree.as_deref(),
            d,
            self.config.naive_cost_budget,
        );
        let mut note = ReasonNote::None;
        let mut mat_cache = MatCacheStats::default();

        // Deadline-aware degradation: when the measured p99 of this
        // query class says the exact plan will blow the deadline anyway,
        // don't start it — serve the approximation's certain answers up
        // front (a sound subset, delivered in time) instead of timing
        // out. Only the tiers whose runtime the deadline actually
        // threatens are considered: the naive join (unless the answer is
        // provably empty, which is instant) and the sandwich in exact
        // mode (whose exact phase is the same naive join).
        let mut degrade: Option<(u64, u64)> = None;
        if let Some(dl) = deadline {
            let threatened = match decision.kind {
                PlanKind::Naive => decision.est_naive_cost > 0.0,
                PlanKind::Sandwich => req.mode == EvalMode::Exact,
                _ => false,
            };
            if threatened && self.counting() {
                let class = class_of(ResponseStatus::Complete, decision.kind);
                let h = self.class_latency[class].snapshot();
                let headroom_us = dl.saturating_duration_since(Instant::now()).as_micros() as u64;
                if h.count >= DEGRADE_MIN_SAMPLES && h.p99 > headroom_us {
                    degrade = Some((h.p99, headroom_us));
                }
            }
        }

        let (answers, status, cache_hit) = if let Some((p99_us, headroom_us)) = degrade {
            note = ReasonNote::Degraded {
                p99_us,
                headroom_us,
            };
            let (certain, hit, mstats) = self.certain_answers(q, d);
            mat_cache.add(mstats);
            (certain, ResponseStatus::Degraded, Some(hit))
        } else {
            match decision.kind {
                PlanKind::Yannakakis | PlanKind::Decomposed => {
                    // The prepared query's one tree plan: the join tree
                    // when acyclic, else the decomposition. Polynomial for
                    // the prepared shape, so it runs unbudgeted under the
                    // deadline policy.
                    let tree = q.tree.as_ref().expect("the tree tiers need a tree plan");
                    let (answers, mstats) = tree.ir().answers(&d.structure, Some(&d.materialized));
                    mat_cache.add(mstats);
                    (answers, ResponseStatus::Complete, None)
                }
                PlanKind::Shed => unreachable!("the planner never sheds; admission control does"),
                PlanKind::Naive => {
                    let (answers, timed_out) =
                        self.eval_naive_bounded(&q.naive, &d.structure, deadline, budget.as_ref());
                    let status = if timed_out {
                        ResponseStatus::TimedOut
                    } else {
                        ResponseStatus::Complete
                    };
                    (answers, status, None)
                }
                PlanKind::Sandwich => match req.mode {
                    EvalMode::CertainOnly => {
                        // Certain answers: the union over all →-maximal
                        // in-class approximations, each a sound
                        // under-approximation.
                        let (certain, hit, mstats) = self.certain_answers(q, d);
                        mat_cache.add(mstats);
                        (certain, ResponseStatus::CertainOnly, Some(hit))
                    }
                    EvalMode::Exact => {
                        // Exact mode wants Q(D) itself, so run the full join
                        // under the deadline first; the approximation rescues
                        // a cut-short join with its certain answers.
                        note = ReasonNote::ExactFallback;
                        let (exact, timed_out) = self.eval_naive_bounded(
                            &q.naive,
                            &d.structure,
                            deadline,
                            budget.as_ref(),
                        );
                        if timed_out {
                            // Already over the deadline: only a *cached*
                            // approximation may be consulted — starting the
                            // single-exponential search here would blow the
                            // timeout by orders of magnitude.
                            match self.cache.lookup_only(
                                q.tableau(),
                                &self.config.approx_class,
                                &self.config.approx_options,
                            ) {
                                Some(cached) => {
                                    let (answers, mstats) =
                                        self.union_certain(exact, &cached, q, d);
                                    mat_cache.add(mstats);
                                    (answers, ResponseStatus::TimedOut, Some(true))
                                }
                                None => (exact, ResponseStatus::TimedOut, None),
                            }
                        } else {
                            (exact, ResponseStatus::Complete, None)
                        }
                    }
                },
            }
        };
        let plan = if status == ResponseStatus::Degraded {
            PlanKind::Sandwich
        } else {
            decision.kind
        };
        let r = Response {
            answers,
            status,
            plan,
            decomposition_width: decision.decomposition_width,
            cache_hit,
            mat_cache,
            wall: start.elapsed(),
            decision,
            note,
        };
        self.note_response(d, &r);
        r
    }

    /// Records one finished response at `Counters`: its latency under
    /// its class and its database, and its cache outcomes. Every
    /// instrument is an atomic reached without a lookup, so this takes
    /// no lock and allocates nothing.
    fn note_response(&self, d: &DatabaseEntry, r: &Response) {
        if !self.counting() {
            return;
        }
        let us = r.wall.as_micros() as u64;
        let c = &d.counters;
        self.class_latency[class_of(r.status, r.plan)].record(us);
        c.latency.record(us);
        match r.cache_hit {
            Some(true) => c.approx_hits.inc(),
            Some(false) => c.approx_misses.inc(),
            None => {}
        }
        c.mat_hits.add(r.mat_cache.hits as u64);
        c.mat_misses.add(r.mat_cache.misses as u64);
    }

    /// The cached approximation for a prepared query, from the
    /// isomorphism-keyed shared cache (computed there on a miss). The
    /// engine holds no other reference to it, so the cache's byte budget
    /// bounds what stays resident.
    fn approximation_of(&self, q: &PreparedQuery) -> (Arc<CachedApproximation>, bool) {
        let (class, opts) = (&self.config.approx_class, &self.config.approx_options);
        self.cache.get_or_compute(q.tableau(), class, opts)
    }

    /// The certain answers of the cached approximation: the union of
    /// `Q'(D)` over every →-maximal in-class approximation `Q' ⊆ Q`,
    /// evaluated through the database's materialization cache. Returns
    /// the cache-hit flag of the lookup and the materialization outcome.
    fn certain_answers(
        &self,
        q: &PreparedQuery,
        d: &DatabaseEntry,
    ) -> (Answers, bool, MatCacheStats) {
        let (cached, hit) = self.approximation_of(q);
        let none = Answers::empty(q.query().arity());
        let (answers, mat) = self.union_certain(none, &cached, q, d);
        (answers, hit, mat)
    }

    /// `seed ∪ ⋃ Q'(D)` over the approximation's plans: every
    /// set lands in one flat buffer, canonicalized once at the end (a
    /// lone non-empty set is passed through untouched).
    fn union_certain(
        &self,
        seed: Answers,
        cached: &CachedApproximation,
        q: &PreparedQuery,
        d: &DatabaseEntry,
    ) -> (Answers, MatCacheStats) {
        let mut union = answers_builder(q.query().arity(), &d.structure);
        union.append(seed);
        let mut mat = MatCacheStats::default();
        for plan in &cached.evaluators {
            let (certain, mstats) = plan.answers(&d.structure, &d.materialized);
            union.append(certain);
            mat.add(mstats);
        }
        (union.finish(), mat)
    }

    /// Naive evaluation under a deadline: answers stream out of the
    /// prepared query's compiled [`NaivePlan`]; the deadline is checked
    /// at every found answer, and the request's shared [`SearchBudget`]
    /// (the remaining wall time converted into solver steps) stops even
    /// answer-free subtrees near the deadline. Returns
    /// `(answers, timed_out)`; answers are sound either way.
    fn eval_naive_bounded(
        &self,
        plan: &NaivePlan,
        d: &Structure,
        deadline: Option<Instant>,
        budget: Option<&SearchBudget>,
    ) -> (Answers, bool) {
        let mut answers = answers_builder(plan.query().arity(), d);
        let mut timed_out = false;
        let stats = plan.for_each_answer(d, budget, |a| {
            if deadline.is_some_and(|dl| Instant::now() >= dl) {
                timed_out = true;
                return ControlFlow::Break(());
            }
            answers.push_row(a);
            ControlFlow::Continue(())
        });
        (answers.finish(), timed_out || stats.budget_exhausted)
    }
}

/// A builder for answer tuples over `d`: its elements are bounded by
/// the universe size, which lets canonicalization pack rows.
fn answers_builder(arity: usize, d: &Structure) -> AnswersBuilder {
    AnswersBuilder::new(arity, u32::try_from(d.universe_size()).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_cq::eval::naive::eval_naive;
    use cqapx_cq::parse_cq;

    const C4: &str = "Q() :- E(a, b), E(b, c), E(c, d), E(d, a)";

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    /// The name that makes a prepared query's request panic in
    /// evaluation: an injected fault.
    const PANICS: &str = "panics when run";

    /// The evaluation hook: panics on a query prepared as [`PANICS`].
    pub(super) fn panics_when_asked(q: &PreparedQuery) {
        assert_ne!(q.name, PANICS, "an injected panic in evaluation");
    }

    /// A batch with one request that panics in evaluation answers it
    /// `Failed`, with no answers, and every other request as a batch
    /// without it does, at one thread and at two; the statistics count
    /// the failure, and the queue is empty afterwards.
    #[test]
    fn a_panicking_request_is_answered_failed_and_the_batch_served() {
        for threads in [1, 2] {
            let e = Engine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            let db = e.register_database("p", Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]));
            let ends = e.prepare_query("ends", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
            let bad = e.prepare_query(PANICS, parse_cq("Q(x) :- E(x, y)").unwrap());
            let c4 = e.prepare_query("c4", parse_cq(C4).unwrap());
            let [ends, bad, c4] = [ends, bad, c4].map(|q| Request::new(q, db));
            let good = e.execute_batch(&[ends.clone(), c4.clone()]);
            let got = e.execute_batch(&[ends, bad, c4]);
            assert_eq!(got[1].status, ResponseStatus::Failed, "threads {threads}");
            assert!(got[1].answers.is_empty());
            for (r, want) in [&got[0], &got[2]].into_iter().zip(&good) {
                assert_eq!((r.status, &r.answers), (want.status, &want.answers));
            }
            assert_eq!((e.stats().requests, e.stats().failed), (5, 1));
            assert_eq!(e.snapshot().queue_depth, 0, "threads {threads}");
        }
    }

    #[test]
    fn acyclic_query_served_by_yannakakis() {
        let e = engine();
        let db = e.register_database("p", Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]));
        let q = e.prepare_query("ends", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
        let r = e.execute(&Request::new(q, db));
        assert_eq!(r.plan, PlanKind::Yannakakis);
        assert_eq!(r.status, ResponseStatus::Complete);
        assert_eq!(r.answers.len(), 2);
        assert_eq!(e.stats().plan_yannakakis, 1);
    }

    /// A panic while the statistics lock is held poisons it; the engine
    /// still answers, and still counts what it serves.
    #[test]
    fn poisoned_stats_lock_still_counts_requests() {
        let e = engine();
        let db = e.register_database("p", Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]));
        let q = e.prepare_query("ends", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = e.stats.lock().unwrap();
            panic!("a recorder panics while holding the statistics lock");
        }));
        assert!(poisoned.is_err() && e.stats.is_poisoned());
        let r = e.execute(&Request::new(q, db));
        assert_eq!((r.status, r.answers.len()), (ResponseStatus::Complete, 2));
        assert_eq!((e.stats().requests, e.stats().complete), (1, 1));
        e.reset_stats();
        assert_eq!(e.stats().requests, 0);
    }

    /// A registration and a preparation hold the catalog's write lock
    /// for the push, not for the scan or the compilation: both builders
    /// run to completion while this very thread holds the lock for
    /// reading, which a builder that touched the catalog could not.
    #[test]
    fn registration_scans_outside_the_catalog_lock() {
        let e = engine();
        let held = e.catalog.read().expect("catalog lock");
        let edges: Vec<(u32, u32)> = (0..2_000u32).map(|i| (i % 499, (i * 7919) % 499)).collect();
        let entry = DatabaseEntry::build("big", Structure::digraph(499, &edges));
        let query = PreparedQuery::build("c4", parse_cq(C4).unwrap());
        assert!(held.database_by_name("big").is_none() && held.query_by_name("c4").is_none());
        drop(held);
        let mut catalog = e.catalog.write().expect("catalog lock");
        let (db, q) = (
            catalog.insert_database(entry).0,
            catalog.insert_query(query).0,
        );
        drop(catalog);
        assert_eq!(
            e.execute(&Request::new(q, db)).status,
            ResponseStatus::Complete
        );
    }

    /// Legal queries the `u64`-mask treewidth search cannot hold (a
    /// 70-variable cycle, a 9×9 grid) prepare with an uncertified shape
    /// instead of panicking inside the catalog lock and poisoning it.
    #[test]
    fn wide_queries_prepare_and_leave_the_catalog_usable() {
        let e = engine();
        let var = |i: usize| format!("v{i}");
        let cycle: Vec<String> = (0..70)
            .map(|i| format!("E({}, {})", var(i), var((i + 1) % 70)))
            .collect();
        let cell = |r: usize, c: usize| var(9 * r + c);
        let grid: Vec<String> = (0..9)
            .flat_map(|r| (0..8).map(move |c| (r, c)))
            .flat_map(|(r, c)| {
                let along = format!("E({}, {})", cell(r, c), cell(r, c + 1));
                [along, format!("E({}, {})", cell(c, r), cell(c + 1, r))]
            })
            .collect();
        // Into a directed C5 both have five homomorphisms, one per image
        // of the first variable (the naive join enumerates them all).
        let d = Structure::digraph(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let db = e.register_database("d", d.clone());
        for (name, atoms) in [("c70", cycle), ("grid", grid)] {
            let q = parse_cq(&format!("Q() :- {}", atoms.join(", "))).unwrap();
            let id = e.prepare_query(name, q.clone());
            let prepared = e.catalog.read().unwrap().query(id).unwrap();
            assert!(prepared.tree.is_none() && !prepared.shape.acyclic);
            let r = e.execute(&Request::new(id, db));
            assert_eq!(r.status, ResponseStatus::Complete, "{name}");
            assert_eq!(r.answers.len(), 1, "{name}");
            assert_eq!(r.answers, eval_naive(&q, &d), "{name}");
            let after = e.prepare_query("c4", parse_cq(C4).unwrap());
            assert_eq!(e.read_catalog().query_by_name("c4"), Some(after));
        }
    }

    #[test]
    fn snapshot_reports_cache_memory_and_dictionaries() {
        let e = engine();
        let db = e.register_database("p", Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]));
        let q = e.prepare_query("ends", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
        e.execute(&Request::new(q, db));
        let snap = e.snapshot();
        // Unbounded default: relations stay resident, nothing evicts.
        assert_eq!(snap.mat_cache_budget_bytes, 0);
        assert!(snap.mat_cache_bytes_by_db["p"] > 0);
        assert_eq!(snap.mat_cache_evictions_by_db["p"], 0);
        // digraph(4, path) has the full universe active: dictionary of 4.
        assert_eq!(snap.dict_size_by_db["p"], 4);
        assert_eq!(snap.approx_cache_budget_bytes, 0);
        assert_eq!(snap.approx_cache_evictions, 0);
    }

    #[test]
    fn tiny_mat_budget_stays_correct_and_reports_evictions() {
        let bounded = Engine::new(EngineConfig {
            mat_cache_budget_bytes: Some(1), // every landing evicts
            ..EngineConfig::default()
        });
        let unbounded = engine();
        for e in [&bounded, &unbounded] {
            e.register_database(
                "p",
                Structure::digraph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]),
            );
            e.prepare_query("ends", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
        }
        let run = |e: &Engine| {
            let q = e.read_catalog().query_by_name("ends").unwrap();
            let db = e.read_catalog().database_by_name("p").unwrap();
            (0..3)
                .map(|_| e.execute(&Request::new(q, db)).answers)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&bounded), run(&unbounded));
        let snap = bounded.snapshot();
        assert_eq!(snap.mat_cache_budget_bytes, 1);
        assert!(snap.mat_cache_evictions_by_db["p"] >= 1);
        assert!(snap.mat_cache_bytes_by_db["p"] <= 1);
    }

    /// A graph-vocabulary query and a ternary-vocabulary database.
    fn mismatched(e: &Engine) -> Request {
        use cqapx_structures::{StructureBuilder, Vocabulary};
        let v = Vocabulary::new(vec![("R", 3)]);
        let r = v.rel("R").unwrap();
        let mut b = StructureBuilder::new(v, 3);
        b.add(r, &[0, 1, 2]);
        let db = e.register_database("ternary", b.finish());
        let q = e.prepare_query("edge", parse_cq("Q(x, y) :- E(x, y)").unwrap());
        Request::new(q, db)
    }

    /// The door refuses a pair over different vocabularies …
    #[test]
    #[should_panic(expected = "different vocabularies")]
    fn vocabulary_mismatch_rejected_at_the_door() {
        let e = engine();
        e.resolve(&mismatched(&e));
    }

    /// … and the request is answered `Failed`, with no answers.
    #[test]
    fn a_vocabulary_mismatch_is_answered_failed() {
        let e = engine();
        let r = e.execute(&mismatched(&e));
        assert_eq!((r.status, r.answers.len()), (ResponseStatus::Failed, 0));
        assert_eq!(
            (r.answers.arity(), r.decision.reason),
            (2, PlanReason::Failed)
        );
        assert_eq!(e.stats().failed, 1);
    }

    #[test]
    fn cyclic_bounded_treewidth_served_decomposed_exactly() {
        let e = engine();
        let db = e.register_database(
            "tri",
            Structure::digraph(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]),
        );
        let q = e.prepare_query(
            "triangle",
            parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap(),
        );
        let r = e.execute(&Request::new(q, db));
        assert_eq!(r.plan, PlanKind::Decomposed);
        assert_eq!(r.decomposition_width, Some(2));
        assert_eq!(r.status, ResponseStatus::Complete);
        assert_eq!(r.answers.len(), 1); // Boolean true: the empty tuple
        assert_eq!(e.stats().plan_decomposed, 1);
        // The bag materializations landed in the database's cache.
        assert!(r.mat_cache.misses > 0);
    }

    #[test]
    fn cyclic_above_width_limit_served_naive_exactly() {
        let e = engine();
        // K5 (treewidth 4) on its own clique digraph: cyclic, no
        // decomposed plan at the prepare-time width limit, cheap here.
        let edges: Vec<(u32, u32)> = (0..5u32)
            .flat_map(|u| (0..5u32).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        let db = e.register_database("k5", Structure::digraph(5, &edges));
        let k5 =
            "Q() :- E(a,b), E(a,c), E(a,d), E(a,e), E(b,c), E(b,d), E(b,e), E(c,d), E(c,e), E(d,e)";
        let q = e.prepare_query("k5", parse_cq(k5).unwrap());
        let r = e.execute(&Request::new(q, db));
        assert_eq!(r.plan, PlanKind::Naive);
        assert_eq!(r.decomposition_width, None);
        assert_eq!(r.status, ResponseStatus::Complete);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn sandwich_serves_certain_answers_and_caches() {
        let e = Engine::new(EngineConfig {
            naive_cost_budget: 0.0, // force the sandwich
            ..EngineConfig::default()
        });
        let db = e.register_database("loops", Structure::digraph(3, &[(0, 0), (0, 1), (1, 2)]));
        let q = e.prepare_query(
            "triangle",
            parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap(),
        );
        let req = Request {
            query: q,
            db,
            mode: EvalMode::CertainOnly,
            timeout: None,
        };
        let r1 = e.execute(&req);
        assert_eq!(r1.plan, PlanKind::Sandwich);
        assert_eq!(r1.status, ResponseStatus::CertainOnly);
        assert_eq!(r1.cache_hit, Some(false));
        // The TW(1)-approximation of the triangle is E(x,x); the loop at 0
        // makes it true — a certain answer (0→0→0 is a real triangle hom).
        assert_eq!(r1.answers.len(), 1);
        let r2 = e.execute(&req);
        assert_eq!(r2.cache_hit, Some(true));
        assert_eq!(r2.answers, r1.answers);
        assert_eq!(e.stats().cache_hits, 1);
    }

    /// The approximation cache's byte budget bounds what stays resident:
    /// nothing else in the engine holds an approximation, so an evicted
    /// one is dropped.
    #[test]
    fn evicted_approximations_are_dropped() {
        let e = Engine::new(EngineConfig {
            naive_cost_budget: 0.0,             // force the sandwich
            approx_cache_budget_bytes: Some(1), // every insert evicts the rest
            ..EngineConfig::default()
        });
        let db = e.register_database("loops", Structure::digraph(3, &[(0, 0), (0, 1), (1, 2)]));
        let serve = |name: String, body: &str| {
            let query = e.prepare_query(name, parse_cq(&format!("Q() :- {body}")).unwrap());
            let req = Request {
                query,
                db,
                mode: EvalMode::CertainOnly,
                timeout: None,
            };
            assert_eq!(e.execute(&req).plan, PlanKind::Sandwich);
            query
        };
        let a = serve("a".into(), "E(x,y), E(y,z), E(z,x)");
        let prepared = e.catalog.read().unwrap().query(a).unwrap();
        let (entry, hit) = e.approximation_of(&prepared);
        assert!(hit);
        let weak = Arc::downgrade(&entry);
        drop(entry);
        // A triangle with a pendant path of `i` edges: pairwise
        // non-isomorphic, all cyclic.
        for i in 1..=50 {
            let path: String = (0..i).map(|j| format!(", E(p{j},p{})", j + 1)).collect();
            serve(
                format!("b{i}"),
                &format!("E(x,y), E(y,z), E(z,x), E(x,p0){path}"),
            );
        }
        assert!(
            weak.upgrade().is_none(),
            "an evicted approximation stays pinned"
        );
        assert!(e.cache.evictions() >= 50);
    }

    #[test]
    fn sandwich_exact_mode_refines_to_exact() {
        let e = Engine::new(EngineConfig {
            naive_cost_budget: 0.0,
            ..EngineConfig::default()
        });
        let s = Structure::digraph(4, &[(0, 1), (1, 2), (2, 0), (3, 3)]);
        let db = e.register_database("d", s.clone());
        let query = parse_cq("Q(x) :- E(x,y), E(y,z), E(z,x)").unwrap();
        let q = e.prepare_query("tri-x", query.clone());
        let r = e.execute(&Request::new(q, db));
        assert_eq!(r.plan, PlanKind::Sandwich);
        assert_eq!(r.status, ResponseStatus::Complete);
        assert_eq!(r.answers, eval_naive(&query, &s));
        assert_eq!(r.answers.len(), 4); // 0,1,2 from the triangle + 3's loop
    }

    #[test]
    fn batch_runs_in_parallel_and_aggregates_stats() {
        let e = engine();
        let db = e.register_database(
            "p",
            Structure::digraph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]),
        );
        let q1 = e.prepare_query("hop2", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
        let q2 = e.prepare_query("tri", parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap());
        let reqs: Vec<Request> = (0..8)
            .map(|i| Request::new(if i % 2 == 0 { q1 } else { q2 }, db))
            .collect();
        let rs = e.execute_batch(&reqs);
        assert_eq!(rs.len(), 8);
        for (i, r) in rs.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(r.answers.len(), 3);
            } else {
                assert!(r.answers.is_empty()); // no triangle in a path
            }
        }
        let stats = e.stats();
        assert_eq!(stats.requests, 8);
        assert_eq!(stats.plan_yannakakis, 4);
        assert_eq!(stats.plan_decomposed, 4); // the triangle has treewidth 2
    }

    #[test]
    fn timeout_yields_sound_partial_answers() {
        let e = Engine::new(EngineConfig {
            nodes_per_ms: 1, // starve the search
            ..EngineConfig::default()
        });
        // Dense-ish digraph so the search has real work. The query is a
        // K5 clique: treewidth 4 exceeds the decomposed-tier width
        // limit, so the planner sends it to the (starved) naive join.
        let edges: Vec<(u32, u32)> = (0..15u32)
            .flat_map(|u| {
                (0..15u32)
                    .filter(move |&v| v != u && (u + v) % 3 != 0)
                    .map(move |v| (u, v))
            })
            .collect();
        let db = e.register_database("dense", Structure::digraph(15, &edges));
        let query = parse_cq(
            "Q(a) :- E(a,b), E(a,c), E(a,d), E(a,e), E(b,c), E(b,d), E(b,e), E(c,d), E(c,e), E(d,e)",
        )
        .unwrap();
        let q = e.prepare_query("k5-a", query.clone());
        let full = eval_naive(&query, &Structure::digraph(15, &edges));
        let req = Request {
            query: q,
            db,
            mode: EvalMode::Exact,
            timeout: Some(Duration::from_millis(1)),
        };
        let r = e.execute(&req);
        // Whatever came back is sound.
        for a in &r.answers {
            assert!(full.contains(a.as_slice()));
        }
        if r.status == ResponseStatus::TimedOut {
            assert!(r.answers.len() <= full.len());
        } else {
            assert_eq!(r.answers, full);
        }
    }

    #[test]
    fn stats_display_renders() {
        let e = engine();
        let db = e.register_database("p", Structure::digraph(2, &[(0, 1)]));
        let q = e.prepare_query("edge", parse_cq("Q(x, y) :- E(x, y)").unwrap());
        e.execute(&Request::new(q, db));
        let text = e.stats().to_string();
        assert!(text.contains("requests"));
        assert!(text.contains("hit rate"));
    }

    fn engine_at(level: MetricsLevel) -> Engine {
        Engine::new(EngineConfig {
            metrics: level,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn batch_over_queue_limit_sheds_the_tail_deterministically() {
        let e = Engine::new(EngineConfig {
            metrics: MetricsLevel::Counters,
            max_queue_depth: Some(2),
            ..EngineConfig::default()
        });
        let db = e.register_database("p", Structure::digraph(3, &[(0, 1), (1, 2)]));
        let q = e.prepare_query("hop2", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
        let reqs: Vec<Request> = (0..5).map(|_| Request::new(q, db)).collect();
        let rs = e.execute_batch(&reqs);
        assert_eq!(rs.len(), 5);
        // Admission sees the batch in input order: the first two fit,
        // the remaining three are shed without planning or evaluation.
        for r in &rs[..2] {
            assert_eq!(r.status, ResponseStatus::Complete);
            assert_eq!(r.answers.len(), 1);
        }
        for r in &rs[2..] {
            assert_eq!(r.status, ResponseStatus::Shed);
            assert_eq!(r.plan, PlanKind::Shed);
            assert!(r.answers.is_empty());
            assert!(r.plan_reason().contains("admission control"));
        }
        let s = e.stats();
        assert_eq!(s.requests, 5);
        assert_eq!(s.shed, 3);
        assert_eq!(s.complete, 2);
        // Shed latencies land in their own class, not a plan tier's.
        assert_eq!(e.snapshot().class_latency["shed"].count, 3);
        // The queue drained: a fresh request is admitted again.
        assert_eq!(
            e.execute(&Request::new(q, db)).status,
            ResponseStatus::Complete
        );
    }

    // A cyclic query above the decomposed-tier width limit on a database
    // where it is genuinely expensive: the planner's naive tier, with
    // real work for the deadline to threaten.
    fn k5_on_dense(e: &Engine) -> (QueryId, DbId, Structure) {
        let edges: Vec<(u32, u32)> = (0..12u32)
            .flat_map(|u| {
                (0..12u32)
                    .filter(move |&v| v != u && (u + v) % 3 != 0)
                    .map(move |v| (u, v))
            })
            .collect();
        let s = Structure::digraph(12, &edges);
        let db = e.register_database("dense", s.clone());
        let k5 =
            "Q() :- E(a,b), E(a,c), E(a,d), E(a,e), E(b,c), E(b,d), E(b,e), E(c,d), E(c,e), E(d,e)";
        let q = e.prepare_query("k5", parse_cq(k5).unwrap());
        (q, db, s)
    }

    #[test]
    fn predicted_deadline_miss_degrades_to_certain_answers() {
        let e = engine_at(MetricsLevel::Counters);
        let (q, db, s) = k5_on_dense(&e);
        let exact = {
            let query = parse_cq(
                "Q() :- E(a,b), E(a,c), E(a,d), E(a,e), E(b,c), E(b,d), E(b,e), E(c,d), E(c,e), E(d,e)",
            )
            .unwrap();
            eval_naive(&query, &s)
        };
        // Warm the class histogram with unhurried exact runs.
        for _ in 0..DEGRADE_MIN_SAMPLES {
            let r = e.execute(&Request::new(q, db));
            assert_eq!(r.plan, PlanKind::Naive);
        }
        assert!(e.snapshot().class_latency["naive"].p99 > 0);
        // A deadline far below the measured p99: the engine should not
        // even start the join.
        let r = e.execute(&Request {
            query: q,
            db,
            mode: EvalMode::Exact,
            timeout: Some(Duration::from_nanos(1)),
        });
        assert_eq!(r.status, ResponseStatus::Degraded);
        assert_eq!(r.plan, PlanKind::Sandwich);
        assert!(r.plan_reason().contains("degraded"));
        for a in &r.answers {
            assert!(
                exact.contains(a.as_slice()),
                "degraded answers must stay sound"
            );
        }
        let snap = e.snapshot();
        assert_eq!(snap.counters.degraded, 1);
        // Degraded latencies get their own class so they don't drag the
        // naive p99 the prediction reads.
        assert_eq!(snap.class_latency["degraded"].count, 1);
        assert_eq!(snap.class_latency["naive"].count, DEGRADE_MIN_SAMPLES);
    }

    #[test]
    fn metrics_level_none_records_nothing() {
        let e = engine_at(MetricsLevel::None);
        let db = e.register_database("p", Structure::digraph(3, &[(0, 1), (1, 2)]));
        let q = e.prepare_query("hop2", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
        e.execute(&Request::new(q, db));
        let snap = e.snapshot();
        assert!(snap.class_latency.is_empty());
        assert!(snap.db_latency.is_empty());
        assert!(snap.mat_cache_by_db.is_empty());
        // Aggregate counters still work — they predate the metrics layer.
        assert_eq!(snap.counters.requests, 1);
    }

    #[test]
    fn reset_stats_starts_a_fresh_epoch() {
        let e = engine_at(MetricsLevel::Counters);
        let db = e.register_database("p", Structure::digraph(3, &[(0, 1), (1, 2)]));
        let q = e.prepare_query("hop2", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
        for _ in 0..4 {
            e.execute(&Request::new(q, db));
        }
        let warm = e.snapshot();
        assert_eq!(warm.counters.requests, 4);
        let h = &warm.class_latency["yannakakis"];
        assert_eq!(h.count, 4);
        assert!(h.p50 <= h.p99 && h.p99 <= h.max);
        e.reset_stats();
        let fresh = e.snapshot();
        assert_eq!(fresh.counters.requests, 0);
        assert!(fresh.class_latency.values().all(|h| h.count == 0));
        assert!(fresh.db_latency.values().all(|h| h.count == 0));
        assert!(fresh.mat_cache_by_db.values().all(|&c| c == 0));

        // A name registered again keeps its counters: requests before
        // and after count under the name, and one reset zeroes them.
        e.execute(&Request::new(q, db));
        let again = e.register_database("p", Structure::digraph(3, &[(0, 1), (1, 2)]));
        e.execute(&Request::new(q, again));
        let both = e.snapshot();
        assert_eq!(both.db_latency["p"].count, 2);
        assert!(both.mat_cache_by_db["p/misses"] > 0);
        e.reset_stats();
        let fresh = e.snapshot();
        assert_eq!(fresh.db_latency["p"].count, 0);
        assert!(fresh.mat_cache_by_db.values().all(|&c| c == 0));
        assert!(fresh.approx_cache_by_db.values().all(|&c| c == 0));
    }

    /// A timeout past `Instant`'s range is no deadline: the request is
    /// answered in full, as without one, and leaves the queue.
    #[test]
    fn huge_timeout_is_no_deadline() {
        let e = Engine::new(EngineConfig {
            max_queue_depth: Some(1),
            ..EngineConfig::default()
        });
        let (q, db, _) = k5_on_dense(&e);
        let huge = Request {
            timeout: Some(Duration::MAX),
            ..Request::new(q, db)
        };
        let answers: Vec<Answers> = (0..2)
            .map(|_| {
                let r = e.execute(&huge);
                assert_eq!(
                    (r.status, r.plan),
                    (ResponseStatus::Complete, PlanKind::Naive)
                );
                r.answers
            })
            .collect();
        let plain = e.execute(&Request::new(q, db));
        assert_eq!(plain.status, ResponseStatus::Complete);
        assert!(answers.iter().all(|a| *a == plain.answers));
    }

    /// A batch with an unknown id answers it `Failed` and gives back the
    /// places its requests took in the queue, at one thread and at two.
    #[test]
    fn a_panicking_batch_releases_its_admissions() {
        for threads in [1, 2] {
            let e = Engine::new(EngineConfig {
                threads,
                max_queue_depth: Some(2),
                ..EngineConfig::default()
            });
            let db = e.register_database("p", Structure::digraph(3, &[(0, 1), (1, 2)]));
            let q = e.prepare_query("hop2", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
            let batch = [Request::new(q, db), Request::new(q, DbId(7))];
            for _ in 0..2 {
                let answered = e.execute_batch(&batch);
                assert_eq!(answered[0].status, ResponseStatus::Complete);
                assert_eq!(
                    answered[1].status,
                    ResponseStatus::Failed,
                    "unknown database id"
                );
                assert_eq!(e.snapshot().queue_depth, 0, "threads {threads}");
            }
            let r = e.execute(&batch[0]);
            assert_eq!((r.status, r.answers.len()), (ResponseStatus::Complete, 1));
        }
    }

    /// An admission is given back when its holder unwinds, also when the
    /// holder is a work item that a batch worker panics on.
    #[test]
    fn an_unwinding_request_leaves_the_queue() {
        let e = engine();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _admitted = e.admit().unwrap();
            panic!("a request panics while admitted");
        }));
        assert!(unwound.is_err());
        assert_eq!(e.inflight.load(Ordering::Relaxed), 0);
        let work: Vec<_> = (0..4).map(|_| e.admit()).collect();
        assert_eq!(e.inflight.load(Ordering::Relaxed), 4);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(work, 2, |admission| {
                assert!(admission.is_ok());
                panic!("a batch worker panics");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(e.inflight.load(Ordering::Relaxed), 0);
    }

    /// A panic under the catalog's write lock poisons it; registration,
    /// preparation, execution and the statistics go on as before.
    #[test]
    fn poisoned_locks_do_not_stop_the_engine() {
        let e = engine();
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _catalog = e.catalog.write().unwrap();
            panic!("a panic while the catalog's write lock is held");
        }));
        assert!(poisoned.is_err() && e.catalog.is_poisoned());
        let db = e.register_database("p", Structure::digraph(3, &[(0, 1), (1, 2)]));
        let q = e.prepare_query("hop2", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
        let r = e.execute(&Request::new(q, db));
        assert_eq!((r.status, r.answers.len()), (ResponseStatus::Complete, 1));
        assert_eq!(
            e.execute_batch(&[Request::new(q, db)])[0].answers,
            r.answers
        );
        assert_eq!(
            (
                e.read_catalog().database_by_name("p"),
                e.read_catalog().query_by_name("hop2")
            ),
            (Some(db), Some(q))
        );
        assert!(e.snapshot().dict_size_by_db["p"] == 3);
        e.reset_stats();
        assert_eq!(e.stats().requests, 0);
    }

    /// Registering a name again keeps its id and swaps the entry behind
    /// it: a holder of the old entry still reads the old data, requests
    /// read the new, and the old entry is freed with its last holder.
    /// The same holds for a query name prepared again.
    #[test]
    fn a_superseded_snapshot_is_freed_with_its_last_holder() {
        let e = engine();
        let db = e.register_database("g", Structure::digraph(3, &[(0, 1), (1, 2)]));
        let other = e.register_database("h", Structure::digraph(2, &[(0, 1)]));
        let q = e.prepare_query("hop2", parse_cq("Q(x, z) :- E(x, y), E(y, z)").unwrap());
        assert_eq!(e.execute(&Request::new(q, db)).answers.len(), 1);
        let held = e.database(db).unwrap();
        let path4 = Structure::digraph(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(e.register_database("g", path4), db);
        assert_eq!(held.total_tuples(), 2);
        assert_eq!(e.execute(&Request::new(q, db)).answers.len(), 2);
        let weak = Arc::downgrade(&held);
        drop(held);
        assert!(weak.upgrade().is_none(), "the old snapshot is freed");

        let held = e.read_catalog().query(q).unwrap();
        let edges = parse_cq("Q(x, y) :- E(x, y)").unwrap();
        assert_eq!(e.prepare_query("hop2", edges), q);
        assert_eq!(held.query().atoms().len(), 2);
        assert_eq!(e.execute(&Request::new(q, db)).answers.len(), 3);
        let weak = Arc::downgrade(&held);
        drop(held);
        assert!(weak.upgrade().is_none(), "the old preparation is freed");

        let snap = e.snapshot();
        let names = |m: &BTreeMap<String, u64>| m.keys().cloned().collect::<Vec<_>>();
        assert_eq!(names(&snap.mat_cache_bytes_by_db), ["g", "h"]);
        assert_eq!(names(&snap.dict_size_by_db), ["g", "h"]);
        assert_eq!(names(&snap.mat_cache_evictions_by_db), ["g", "h"]);
        assert_eq!(snap.db_latency.keys().collect::<Vec<_>>(), ["g", "h"]);
        assert_eq!(snap.mat_cache_by_db.len(), 4);
        let live = e.database(db).unwrap().materialized.resident_bytes() as u64;
        assert_eq!(snap.mat_cache_bytes_by_db["g"], live);
        assert_eq!(snap.db_latency["g"].count, 3);
        assert_ne!(db, other);
    }
}
