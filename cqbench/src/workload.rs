//! The four workloads: their inputs, the engine set-up each needs, and
//! the one operation each measures. `README.md` records why each
//! exists and which layer does little in it.
//!
//! Every engine is built from [`Inputs::config`], which sets every
//! `EngineConfig` field explicitly; `threads` is 1 on every measured
//! path. An operation reads every answer row and drops the response
//! inside its timed section, and is checked against the oracle outside
//! it.

use crate::input::{layered_dag, oracle, regular_edges, Db, Digest, Query, Rng};
use crate::trace::Recorder;
use crate::CountingAlloc;
use cqapx_core::ApproxOptions;
use cqapx_cq::eval::MatCacheStats;
use cqapx_cq::{parse_cq_with_vocab, tableau_of};
use cqapx_engine::{
    ApproxClassChoice, DbId, Engine, EngineConfig, EvalMode, MetricsLevel, PlanKind, QueryId,
    Request, Response, ResponseStatus,
};
use cqapx_structures::{Structure, StructureBuilder, Vocabulary};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = [
    "free_big_answers",
    "bool_probe_warm",
    "cyclic_bags_cold",
    "approx_cold",
];

/// Every cell: `(workload, cell, database, query)`, queries in
/// [`Query::parse`]'s notation; `random V A` is [`Query::random`] drawn
/// from [`SHAPE_SEED`]. `q2_tw1` is the introduction's Q2.
pub const CELLS: [(usize, &str, usize, &str); 14] = [
    (0, "two_hop", 0, "x,z: E x y, E y z"),
    (0, "wedge3", 0, "x,y,z: E x y, E y z"),
    (
        1,
        "path8",
        0,
        ": E a0 a1, E a1 a2, E a2 a3, E a3 a4, E a4 a5, E a5 a6, E a6 a7, E a7 a8",
    ),
    (1, "star5", 0, ": E c a1, E c a2, E c a3, E c a4, E c a5"),
    (
        1,
        "path10",
        1,
        ": E a0 a1, E a1 a2, E a2 a3, E a3 a4, E a4 a5, E a5 a6, E a6 a7, E a7 a8, E a8 a9, E a9 a10",
    ),
    (1, "three_hop_head", 1, "x: E x y, E y z, E z w"),
    (2, "triangle_members", 0, "x: E x y, E y z, E z x"),
    (2, "c4", 0, ": E a b, E b c, E c d, E d a"),
    (2, "c6_head", 0, "a: E a b, E b c, E c d, E d e, E e f, E f a"),
    (2, "ef_triangle", 1, "x: E x y, F y z, E z x"),
    (
        3,
        "q2_tw1",
        0,
        ": E x y, E y z, E z u, E x1 y1, E y1 z1, E z1 u1, E x z1, E y u1",
    ),
    (3, "rand8_tw1", 0, "random 8 9"),
    (3, "rand9_tw1", 0, "random 9 10"),
    (3, "rand8_tw2", 0, "random 8 14"),
];

/// The one table of sizes. `FULL` was tuned on seed 7 so that a round
/// takes about 0.3 s on the calibration machine, then frozen.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Rounds of a run, whatever `--seconds` says, at least.
    pub min_rounds: usize,
    /// Nominal length of one round in seconds: `--seconds` buys
    /// `seconds / round_s` rounds.
    pub round_s: f64,
    /// Set-ups from scratch behind `setup_s`.
    pub setups: usize,
    /// Per workload: `(vertices, out-degree, operations of each cell
    /// per round)`.
    pub workloads: [(usize, usize, usize); 4],
}

pub const FULL: Sizes = Sizes {
    min_rounds: 48,
    round_s: 0.3,
    setups: 5,
    workloads: [(3000, 8, 5), (19998, 4, 16), (5000, 4, 2), (24, 3, 8)],
};

pub const SMOKE: Sizes = Sizes {
    min_rounds: 8,
    // `--seconds` buys nothing at smoke sizes.
    round_s: f64::INFINITY,
    setups: 2,
    workloads: [(300, 6, 2), (1800, 3, 2), (400, 3, 1), (24, 3, 1)],
};

/// Layers of the DAG `path10` is false on (its longest walk has 8 edges).
const DAG_LAYERS: usize = 9;
/// Seed of the random query shapes of `approx_cold`: `--seed` renames
/// their variables, never changes a shape, so the approximation search
/// is the same on every seed.
const SHAPE_SEED: u64 = 1000;

/// How one operation of a workload drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One exact request against a warm materialization cache.
    Warm,
    /// A snapshot refresh (re-registration under the same name) and its
    /// first exact request.
    ColdBags,
    /// A fresh engine, a certain-answers request that misses the
    /// approximation cache, and a renamed copy that hits it.
    ColdApprox,
}

#[derive(Debug, Clone)]
pub struct Cell {
    pub name: &'static str,
    /// Index into [`Inputs::templates`].
    pub db: usize,
    /// Rule text handed to the engine's parser.
    pub text: String,
    /// `ColdApprox` only: an isomorphic copy with other variable names.
    pub twin_text: String,
    pub class: ApproxClassChoice,
    /// The plan every response must report.
    pub plan: PlanKind,
    /// The oracle's count and digest of `Q(D)`.
    pub expected: Digest,
    /// `ColdApprox` only: the oracle's `Q(D)`, which certain answers
    /// must stay inside.
    pub superset: HashSet<Vec<u32>>,
}

/// Everything generated from `--seed`; the program under test receives
/// only these.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: &'static str,
    pub kind: Kind,
    /// One pristine structure per database: only ever cloned, so no
    /// clone inherits an index, dictionary or flat image built earlier.
    pub templates: Vec<Structure>,
    pub cells: Vec<Cell>,
    /// The cell of each operation of a round; every round is the same.
    pub order: Vec<usize>,
    pub naive_cost_budget: f64,
}

fn structure(db: &Db) -> Structure {
    let vocab = Vocabulary::new(db.rels.iter().map(|(name, _)| (*name, 2)).collect());
    let mut b = StructureBuilder::new(vocab.clone(), db.universe);
    for (name, edges) in &db.rels {
        let rel = vocab.rel(name).expect("relation of its own vocabulary");
        for &(u, v) in edges {
            b.add(rel, &[u, v]);
        }
    }
    b.finish()
}

/// Generates a workload's inputs and runs the oracle on them.
pub fn generate(workload: &str, seed: u64, sizes: &Sizes) -> Result<Inputs, String> {
    let w = WORKLOADS
        .iter()
        .position(|name| *name == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"))?;
    let mut rng = Rng::new(seed);
    let (n, degree, reps) = sizes.workloads[w];
    let graph = |rng: &mut Rng| regular_edges(0..n, 0..n, degree, rng);
    let db = |rels| Db { universe: n, rels };
    let (kind, budget, plan, dbs) = match w {
        0 => (
            Kind::Warm,
            5e7,
            PlanKind::Yannakakis,
            vec![db(vec![("E", graph(&mut rng))])],
        ),
        1 => {
            let random = graph(&mut rng);
            let dag = layered_dag(n, DAG_LAYERS, degree, &mut rng);
            let dbs = vec![db(vec![("E", random)]), db(vec![("E", dag)])];
            (Kind::Warm, 5e7, PlanKind::Yannakakis, dbs)
        }
        2 => {
            let ef = db(vec![("E", graph(&mut rng)), ("F", graph(&mut rng))]);
            let dbs = vec![db(vec![("E", graph(&mut rng))]), ef];
            // 5e7, the engine's default, sends these to the sandwich
            // tier; the decomposed tier is the subject.
            (Kind::ColdBags, 1e18, PlanKind::Decomposed, dbs)
        }
        // Nothing nonempty costs 0, so every cyclic query goes to the
        // sandwich tier however small the database.
        _ => (
            Kind::ColdApprox,
            0.0,
            PlanKind::Sandwich,
            vec![db(vec![("E", graph(&mut rng))])],
        ),
    };
    let mut cells = Vec::new();
    for &(_, cell, db, spec) in CELLS.iter().filter(|c| c.0 == w) {
        let rels: Vec<&str> = dbs[db].rels.iter().map(|r| r.0).collect();
        let query = match spec.strip_prefix("random ") {
            Some(shape) => {
                let (vars, atoms) = shape.split_once(' ').expect("random V A");
                let (vars, atoms) = (vars.parse().expect("V"), atoms.parse().expect("A"));
                Query::random(vars, atoms, &mut Rng::new(SHAPE_SEED))
            }
            None => Query::parse(spec, &rels),
        };
        let class = ApproxClassChoice::TwK(if cell.ends_with("_tw2") { 2 } else { 1 });
        // `approx_cold`: the seed names the variables and scrambles the
        // twin, nothing else — any reordering of the query itself changes
        // the order the search meets its candidates in, and with it the
        // allocation count, by a few percent.
        let mut twin_text = String::new();
        let mut prefix = "v".to_string();
        if kind == Kind::ColdApprox {
            prefix = format!("s{seed}_");
            twin_text = query.scrambled(&mut rng).text(&rels, "w");
        }
        let mut seen = Digest::default();
        let mut superset = HashSet::new();
        oracle(&query, &dbs[db], |row| {
            seen.add(row);
            if kind == Kind::ColdApprox {
                superset.insert(row.to_vec());
            }
        });
        cells.push(Cell {
            name: cell,
            db,
            text: query.text(&rels, &prefix),
            twin_text,
            class,
            plan,
            expected: seen,
            superset,
        });
    }
    let mut order: Vec<usize> = (0..cells.len())
        .flat_map(|c| std::iter::repeat_n(c, reps))
        .collect();
    rng.shuffle(&mut order);
    Ok(Inputs {
        workload: WORKLOADS[w],
        kind,
        templates: dbs.iter().map(structure).collect(),
        cells,
        order,
        naive_cost_budget: budget,
    })
}

impl Inputs {
    /// The engine configuration of this workload, every field explicit:
    /// nothing is left to `Default` or to the environment.
    pub fn config(
        &self,
        class: ApproxClassChoice,
        threads: usize,
        metrics: MetricsLevel,
    ) -> EngineConfig {
        EngineConfig {
            threads,
            naive_cost_budget: self.naive_cost_budget,
            approx_class: class,
            approx_options: approx_options(),
            default_timeout: None,
            nodes_per_ms: 50_000,
            metrics,
            max_queue_depth: None,
            // `Some(0)`: unbounded whatever the environment says.
            mat_cache_budget_bytes: Some(0),
            approx_cache_budget_bytes: Some(0),
        }
    }
}

fn db_name(db: usize) -> String {
    format!("db{db}")
}

pub fn approx_options() -> ApproxOptions {
    ApproxOptions {
        max_partitions: 2_000_000,
        repair_extra_atoms: 1,
        padded_repairs: false,
        minimize: true,
    }
}

/// What the first operation of a cell saw; every later one must see the
/// same.
#[derive(Debug, Clone, PartialEq)]
struct Pinned {
    digest: Digest,
    mat: (u32, u32),
    candidates: usize,
    partitions: u64,
}

/// A set-up engine (or, for the cold workloads, what the next round
/// needs to build one) plus the operation counters of its rounds.
pub struct Ctx {
    pub threads: usize,
    pub metrics: MetricsLevel,
    pub engine: Option<Engine>,
    pub(crate) dbs: Vec<DbId>,
    queries: Vec<QueryId>,
    /// Pre-cloned structures for the operations of the round under way,
    /// last operation first.
    clones: Vec<Structure>,
    pinned: Vec<Option<Pinned>>,
    pub attempted: u64,
    pub failed: u64,
}

fn prepare_all(inputs: &Inputs, engine: &Engine) -> Vec<QueryId> {
    inputs
        .cells
        .iter()
        .map(|cell| {
            let vocab = inputs.templates[cell.db].vocabulary();
            let q = parse_cq_with_vocab(&cell.text, vocab).expect("generated rule text parses");
            engine.prepare_query(cell.name, q)
        })
        .collect()
}

/// `Engine::new`, `register_database` and `prepare_query` as far as the
/// workload keeps them across rounds. The caller times this together
/// with one warm-up [`round`]: that is `setup_s`.
pub fn setup(inputs: &Inputs, threads: usize, metrics: MetricsLevel) -> Ctx {
    let mut ctx = Ctx {
        threads,
        metrics,
        engine: None,
        dbs: Vec::new(),
        queries: Vec::new(),
        clones: Vec::new(),
        pinned: vec![None; inputs.cells.len()],
        attempted: 0,
        failed: 0,
    };
    if inputs.kind == Kind::Warm {
        let engine = Engine::new(inputs.config(inputs.cells[0].class, threads, metrics));
        ctx.dbs = (0..inputs.templates.len())
            .map(|db| engine.register_database(db_name(db), inputs.templates[db].clone()))
            .collect();
        ctx.queries = prepare_all(inputs, &engine);
        ctx.engine = Some(engine);
    }
    ctx
}

/// One round: the operations of [`Inputs::order`], each timed on its
/// own, with the probe run between them.
///
/// What a cold workload needs before its operations is done here,
/// untimed: structures are cloned ahead, and `cyclic_bags_cold` gets a
/// fresh engine with its queries prepared — the catalog keeps every
/// superseded snapshot alive, so one engine across all rounds would
/// grow by a database per operation.
pub fn round(
    inputs: &Inputs,
    ctx: &mut Ctx,
    probe: &mut Probe,
    rec: &mut Recorder,
    count_allocs: bool,
) -> Round {
    if inputs.kind != Kind::Warm {
        ctx.clones = inputs
            .order
            .iter()
            .rev()
            .map(|&c| inputs.templates[inputs.cells[c].db].clone())
            .collect();
    }
    if inputs.kind == Kind::ColdBags {
        ctx.engine = None; // drop the previous round's snapshots first
        let engine = Engine::new(inputs.config(inputs.cells[0].class, ctx.threads, ctx.metrics));
        ctx.queries = prepare_all(inputs, &engine);
        ctx.engine = Some(engine);
    }
    let mut out = Round::default();
    let every = inputs.order.len().div_ceil(PROBES_PER_ROUND);
    for (i, &c) in inputs.order.iter().enumerate() {
        if i % every == 0 {
            out.probe_s += probe.run();
            out.probes += 1;
        }
        let cell = &inputs.cells[c];
        rec.request(cell.name);
        let clone = ctx.clones.pop();
        let started = Instant::now();
        if count_allocs {
            CountingAlloc::counting(true);
        }
        let done = catch_unwind(AssertUnwindSafe(|| match inputs.kind {
            Kind::Warm => warm(inputs, ctx, c, rec),
            Kind::ColdBags => cold_bags(inputs, ctx, c, clone.expect("cloned ahead"), rec),
            Kind::ColdApprox => cold_approx(inputs, ctx, c, clone.expect("cloned ahead"), rec),
        }));
        CountingAlloc::counting(false);
        let (latency, ok) = done.unwrap_or_else(|_| {
            rec.unwind();
            (started.elapsed().as_secs_f64(), false)
        });
        ctx.attempted += 1;
        ctx.failed += u64::from(!ok);
        out.latencies.push(latency);
    }
    out
}

/// The machine-speed probe: a fixed amount of work that touches nothing
/// of the program under test — a sort of 128 Ki pseudo-random words, in
/// buffers allocated once — run [`PROBES_PER_ROUND`] times between the
/// operations of every round.
///
/// On a shared machine whole runs, not just rounds, execute at a
/// different speed than their neighbours in time; the probe sees the
/// speed the operations beside it see, so a round's timings are
/// reported at the speed at which the probe takes [`PROBE_NOMINAL_S`]
/// (see `run::speed`). It allocates nothing while it runs and its two
/// buffers (2 MiB) are read front to back, so neither the heap nor the
/// cache lines the program leaves behind reach it by more than a
/// percent; what it follows is how fast the processor executes, not
/// how far away memory is.
pub struct Probe {
    keys: Vec<u64>,
    sorted: Vec<u64>,
}

/// Probe calls spread over the operations of one round.
pub const PROBES_PER_ROUND: usize = 8;
/// What one probe call takes on the calibration machine when nothing
/// disturbs it: the speed all timings are reported at.
pub const PROBE_NOMINAL_S: f64 = 0.00245;

impl Probe {
    pub fn new() -> Probe {
        let mut rng = Rng::new(0x5EED);
        let keys: Vec<u64> = (0..1 << 17).map(|_| rng.next_u64()).collect();
        Probe {
            sorted: keys.clone(),
            keys,
        }
    }

    /// One probe call; returns the seconds it took.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        std::hint::black_box(self.sorted[self.sorted.len() / 2]);
        start.elapsed().as_secs_f64()
    }
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Seconds of each operation, in [`Inputs::order`].
    pub latencies: Vec<f64>,
    /// Seconds of the probe calls made between them, and their number.
    pub probe_s: f64,
    pub probes: usize,
}

/// What reading a response to its last row shows.
struct Seen {
    digest: Digest,
    status: ResponseStatus,
    plan: PlanKind,
    cache_hit: Option<bool>,
    mat: MatCacheStats,
    inside_superset: bool,
}

/// Reads every answer row, then drops the response.
fn consume(resp: Response, superset: Option<&HashSet<Vec<u32>>>) -> Seen {
    let mut digest = Digest::default();
    let mut inside_superset = true;
    for row in &resp.answers {
        digest.add(row);
        if let Some(all) = superset {
            inside_superset &= all.contains(row.as_slice());
        }
    }
    Seen {
        digest,
        status: resp.status,
        plan: resp.plan,
        cache_hit: resp.cache_hit,
        mat: resp.mat_cache,
        inside_superset,
    }
}

/// Counts taken from the response of a traced operation.
fn note_counts(rec: &mut Recorder, seen: &Seen) {
    if !rec.on {
        return;
    }
    rec.count("egress.rows", seen.digest.rows as f64);
    rec.count("flat.mat_hits", seen.mat.hits as f64);
    rec.count("flat.mat_misses", seen.mat.misses as f64);
    rec.count("flat.bag_builds_wcoj", seen.mat.wcoj_bag_builds as f64);
    rec.count("flat.bag_builds_binary", seen.mat.binary_bag_builds as f64);
    let bag_us = seen.mat.wcoj_bag_us + seen.mat.binary_bag_us;
    rec.count("flat.bag_build_us", bag_us as f64);
    for (kind, name) in [
        (PlanKind::Yannakakis, "planner.share_yannakakis"),
        (PlanKind::Decomposed, "planner.share_decomposed"),
        (PlanKind::Naive, "planner.share_naive"),
        (PlanKind::Sandwich, "planner.share_sandwich"),
    ] {
        rec.count(name, f64::from(u8::from(seen.plan == kind)));
    }
}

/// Counts taken from an engine's snapshot, under the current request's
/// cell: per operation where an operation owns its engine, otherwise
/// once the traced rounds are over — a snapshot between two 0.2 ms
/// requests would cost the next one more than its spans do.
pub fn note_engine(rec: &mut Recorder, engine: &Engine) {
    if !rec.on {
        return;
    }
    let snap = engine.snapshot();
    let total = |m: &std::collections::BTreeMap<String, u64>| m.values().sum::<u64>() as f64;
    rec.count(
        "flat.mat_resident_bytes",
        total(&snap.mat_cache_bytes_by_db),
    );
    rec.count("flat.mat_evictions", total(&snap.mat_cache_evictions_by_db));
    rec.count(
        "catalog.dict_size",
        snap.dict_size_by_db.values().copied().max().unwrap_or(0) as f64,
    );
    rec.count(
        "approx_cache.resident_bytes",
        snap.approx_cache_bytes as f64,
    );
}

fn complete_and_correct(seen: &Seen, cell: &Cell) -> bool {
    seen.status == ResponseStatus::Complete
        && seen.plan == cell.plan
        && seen.digest == cell.expected
}

/// Compares with what the cell's first operation saw, or records it.
fn same_as_pinned(slot: &mut Option<Pinned>, now: Pinned) -> bool {
    match slot {
        Some(first) => *first == now,
        None => {
            *slot = Some(now);
            true
        }
    }
}

fn warm(inputs: &Inputs, ctx: &mut Ctx, c: usize, rec: &mut Recorder) -> (f64, bool) {
    let cell = &inputs.cells[c];
    let engine = ctx.engine.as_ref().expect("warm workloads keep an engine");
    let request = Request::new(ctx.queries[c], ctx.dbs[cell.db]);
    let start = Instant::now();
    rec.enter("engine.request");
    let resp = rec.span("engine.execute", || engine.execute(&request));
    let seen = rec.span("egress.consume_drop", || consume(resp, None));
    rec.exit();
    let latency = start.elapsed().as_secs_f64();
    note_counts(rec, &seen);
    (latency, complete_and_correct(&seen, cell))
}

fn cold_bags(
    inputs: &Inputs,
    ctx: &mut Ctx,
    c: usize,
    snapshot: Structure,
    rec: &mut Recorder,
) -> (f64, bool) {
    let cell = &inputs.cells[c];
    let engine = ctx.engine.as_ref().expect("the round built an engine");
    let name = db_name(cell.db);
    let start = Instant::now();
    rec.enter("engine.request");
    let db = rec.span("catalog.register", || {
        engine.register_database(name, snapshot)
    });
    let request = Request::new(ctx.queries[c], db);
    let resp = rec.span("engine.execute", || engine.execute(&request));
    let seen = rec.span("egress.consume_drop", || consume(resp, None));
    rec.exit();
    let latency = start.elapsed().as_secs_f64();
    note_counts(rec, &seen);
    // A fresh snapshot carries nothing over: at least one miss, and the
    // same hit/miss pair every time (same-key hyperedges inside one
    // request may still hit).
    let pinned = Pinned {
        digest: seen.digest,
        mat: (seen.mat.hits, seen.mat.misses),
        candidates: 0,
        partitions: 0,
    };
    let ok = complete_and_correct(&seen, cell)
        && seen.mat.misses >= 1
        && same_as_pinned(&mut ctx.pinned[c], pinned);
    (latency, ok)
}

fn cold_approx(
    inputs: &Inputs,
    ctx: &mut Ctx,
    c: usize,
    database: Structure,
    rec: &mut Recorder,
) -> (f64, bool) {
    let cell = &inputs.cells[c];
    let vocab = inputs.templates[cell.db].vocabulary();
    let config = inputs.config(cell.class, ctx.threads, ctx.metrics);
    let name = db_name(cell.db);
    let start = Instant::now();
    rec.enter("engine.request");
    let engine = rec.span("engine.new", || Engine::new(config));
    let db = rec.span("catalog.register", || {
        engine.register_database(name, database)
    });
    let mut certain = |text: &str, name: &'static str, execute: &'static str| {
        let q = rec.span("parser.parse", || parse_cq_with_vocab(text, vocab));
        let q = q.expect("generated rule text parses");
        let query = rec.span("catalog.prepare", || engine.prepare_query(name, q));
        let request = Request {
            query,
            db,
            mode: EvalMode::CertainOnly,
            timeout: None,
        };
        let resp = rec.span(execute, || engine.execute(&request));
        rec.span("egress.consume_drop", || {
            consume(resp, Some(&cell.superset))
        })
    };
    let miss = certain(&cell.text, "query", "engine.execute");
    let hit = certain(&cell.twin_text, "twin", "engine.execute_hit");
    rec.exit();
    let latency = start.elapsed().as_secs_f64();

    rec.count("approx_cache.hits", engine.cache().hits() as f64);
    rec.count("approx_cache.misses", engine.cache().misses() as f64);
    note_counts(rec, &miss);
    note_engine(rec, &engine);
    // The report both responses were served from.
    let q = parse_cq_with_vocab(&cell.text, vocab).expect("generated rule text parses");
    let report = engine.cache().lookup_only(
        &tableau_of(&q),
        cell.class.as_class().as_ref(),
        &approx_options(),
    );
    let Some(report) = report else {
        return (latency, false);
    };
    let pinned = Pinned {
        digest: miss.digest,
        mat: (0, 0),
        candidates: report.report.candidates,
        partitions: report.report.partitions,
    };
    let ok = [&miss, &hit].iter().all(|seen| {
        seen.status == ResponseStatus::CertainOnly && seen.plan == cell.plan && seen.inside_superset
    }) && miss.cache_hit == Some(false)
        && hit.cache_hit == Some(true)
        && miss.digest == hit.digest
        && report.report.complete
        && same_as_pinned(&mut ctx.pinned[c], pinned);
    (latency, ok)
}
