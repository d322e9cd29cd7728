//! The traced run: per-layer metrics measured from outside the program.
//!
//! Two paths run under one span recorder. The **engine path** replays
//! whole rounds through the same operation code as the timed rounds,
//! with spans at the engine boundary (`engine.request` → `engine.execute`
//! / `egress.consume_drop`). The **shadow path** takes the same inputs
//! and calls each layer's public functions one by one — parser, catalog,
//! planner, plan IR, answer decode, approximation search and cache — one
//! span per call, counts recorded at the same boundaries. Replays are a
//! fixed number, never time-boxed.
//!
//! A metric is the mean over the workload's cells of the per-cell median
//! over replays (counts repeat exactly, so their median is their value);
//! a layer a workload does not reach reports 0.

use crate::run::{cell_quantile, geomean, median, speed};
use crate::trace::Recorder;
use crate::workload::{approx_options, note_engine, round, setup, Ctx, Inputs, Kind, Probe, Round};
use crate::CountingAlloc;
use cqapx_core::all_approximations_tableaux;
use cqapx_cq::eval::{
    bitmap_stats, packed_stats, AcyclicPlan, DecomposedPlan, EvalProfile, FlatRelation, NaivePlan,
    PlanIr,
};
use cqapx_cq::{parse_cq_with_vocab, tableau_of, QueryShape};
use cqapx_engine::{choose_plan, ApproxCache, DatabaseEntry, Engine, MetricsLevel};
use cqapx_par::ThreadBudget;
use cqapx_structures::signature_pointed;
use std::collections::BTreeMap;
use std::io::BufWriter;
use std::ops::ControlFlow;

/// Whole rounds replayed on the engine path.
const ENGINE_ROUNDS: usize = 2;
/// Replays of each cell on the shadow path.
const SHADOW_REPLAYS: usize = 3;
/// Rounds behind each side of `metrics.counters_overhead_share` and
/// `par.t2_over_t1`, and how many of them — the fastest — are read.
const VARIANT_ROUNDS: usize = 3;
const VARIANT_QUIET: usize = 2;

/// `(metric, span or count it is read from, scale)`: spans are in
/// seconds, counts in their own unit.
const SOURCES: [(&str, &str, f64); 39] = [
    ("parser.parse_us", "parser.parse", 1e6),
    ("catalog.register_ms", "catalog.register", 1e3),
    ("catalog.prepare_ms", "catalog.prepare", 1e3),
    ("catalog.dict_size", "catalog.dict_size", 1.0),
    ("planner.choose_us", "planner.choose", 1e6),
    ("planner.share_yannakakis", "planner.share_yannakakis", 1.0),
    ("planner.share_decomposed", "planner.share_decomposed", 1.0),
    ("planner.share_naive", "planner.share_naive", 1.0),
    ("planner.share_sandwich", "planner.share_sandwich", 1.0),
    ("ir.run_us", "ir.run", 1e6),
    ("ir.materialize_us", "ir.materialize_us", 1.0),
    ("ir.semijoin_us", "ir.semijoin_us", 1.0),
    ("ir.join_us", "ir.join_us", 1.0),
    ("ir.project_us", "ir.project_us", 1.0),
    ("ir.rows_out", "ir.rows_out", 1.0),
    ("flat.bag_build_us", "flat.bag_build_us", 1.0),
    ("flat.bag_builds_wcoj", "flat.bag_builds_wcoj", 1.0),
    ("flat.bag_builds_binary", "flat.bag_builds_binary", 1.0),
    ("flat.mat_hits", "flat.mat_hits", 1.0),
    ("flat.mat_misses", "flat.mat_misses", 1.0),
    ("flat.mat_resident_bytes", "flat.mat_resident_bytes", 1.0),
    ("flat.mat_evictions", "flat.mat_evictions", 1.0),
    ("egress.decode_us", "egress.decode", 1e6),
    ("egress.consume_drop_us", "egress.consume_drop", 1e6),
    ("egress.rows", "egress.rows", 1.0),
    ("engine.execute_us", "engine.execute", 1e6),
    ("approx.search_ms", "approx.search", 1e3),
    ("approx.candidates", "approx.candidates", 1.0),
    ("approx.partitions", "approx.partitions", 1.0),
    ("approx.results", "approx.results", 1.0),
    ("approx.certain_eval_us", "approx.certain_eval", 1e6),
    ("iso.signature_us", "iso.signature", 1e6),
    ("solver.nodes", "solver.nodes", 1.0),
    ("solver.revisions", "solver.revisions", 1.0),
    ("approx_cache.miss_ms", "approx_cache.miss", 1e3),
    ("approx_cache.iso_hit_us", "approx_cache.iso_hit", 1e6),
    ("approx_cache.hits", "approx_cache.hits", 1.0),
    ("approx_cache.misses", "approx_cache.misses", 1.0),
    (
        "approx_cache.resident_bytes",
        "approx_cache.resident_bytes",
        1.0,
    ),
];

/// Runs the traced run on a set-up workload and returns every metric it
/// yields. `quiet_p50` is each cell's untraced quiet-round latency in
/// seconds at reference speed, the base of `trace.overhead_share`.
pub fn traced(
    inputs: &Inputs,
    ctx: &mut Ctx,
    probe: &mut Probe,
    quiet_p50: &[f64],
) -> BTreeMap<String, f64> {
    let mut rec = Recorder::new(true);
    let kernels = || (packed_stats().rows, bitmap_stats().probes);
    let before = kernels();
    let engine_rounds: Vec<Round> = (0..ENGINE_ROUNDS)
        .map(|_| round(inputs, ctx, probe, &mut rec, false))
        .collect();
    let after = kernels();
    if let Some(engine) = &ctx.engine {
        for cell in &inputs.cells {
            rec.request(cell.name);
            note_engine(&mut rec, engine);
        }
    }
    for c in 0..inputs.cells.len() {
        for _ in 0..SHADOW_REPLAYS {
            rec.request(inputs.cells[c].name);
            rec.enter("shadow");
            match inputs.kind {
                Kind::ColdApprox => shadow_approx(inputs, c, &mut rec),
                _ => shadow_eval(inputs, ctx, c, &mut rec),
            }
            rec.exit();
        }
    }

    let cells = inputs.cells.len() as f64;
    let layer = |source: &str| -> f64 {
        let per_cell = inputs.cells.iter().map(|cell| {
            let values = rec.values(cell.name, source);
            if values.is_empty() {
                0.0
            } else {
                median(&values)
            }
        });
        per_cell.sum::<f64>() / cells
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = BTreeMap::new();
    for (metric, source, scale) in SOURCES {
        out.insert(metric.to_string(), layer(source) * scale);
    }
    let rows = out["egress.rows"];
    let egress_us = out["egress.decode_us"] + out["egress.consume_drop_us"];
    let execute_us = out["engine.execute_us"];
    let attributed_us = out["planner.choose_us"]
        + out["ir.run_us"]
        + out["egress.decode_us"]
        + out["approx_cache.miss_ms"] * 1e3
        + out["approx.certain_eval_us"];
    let (hits, misses) = (out["flat.mat_hits"], out["flat.mat_misses"]);
    let at_reference = engine_rounds.iter().map(|r| (r, speed(r)));
    let traced_p50 = cell_quantile(&inputs.order, inputs.cells.len(), at_reference, 0.5);
    let engine_ops = (ENGINE_ROUNDS * inputs.order.len()) as f64;
    // [the measured engine, metrics off, two threads]
    let variants = [(1, MetricsLevel::None), (2, MetricsLevel::Counters)];
    let latency = variant_latencies(inputs, ctx, probe, &variants);
    let mut put = |name: &str, value: f64| out.insert(name.to_string(), value);
    put("egress.ns_per_row", ratio(egress_us * 1e3, rows));
    put("egress.allocs_per_row", ratio(layer("egress.allocs"), rows));
    put("flat.mat_hit_rate", ratio(hits, hits + misses));
    put("flat.packed_rows", (after.0 - before.0) as f64 / engine_ops);
    put(
        "flat.bitmap_probes",
        (after.1 - before.1) as f64 / engine_ops,
    );
    put("engine.overhead_us", execute_us - attributed_us);
    put(
        "engine.unattributed_share",
        ratio(execute_us - attributed_us, execute_us),
    );
    put(
        "trace.overhead_share",
        ratio(geomean(&traced_p50), geomean(quiet_p50)) - 1.0,
    );
    put(
        "metrics.counters_overhead_share",
        ratio(latency[0], latency[1]) - 1.0,
    );
    put("par.t2_over_t1", ratio(latency[2], latency[0]));

    let path = format!(
        "{}/target/trace-{}.jsonl",
        env!("CARGO_MANIFEST_DIR"),
        inputs.workload
    );
    let written = std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/target"))
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| rec.write_jsonl(&mut BufWriter::new(file)));
    match written {
        Ok(()) => eprintln!("cqbench: {} spans written to {path}", rec.spans.len()),
        Err(why) => eprintln!("cqbench: could not write {path}: {why}"),
    }
    out
}

/// Geometric-mean latency over cells (seconds, at reference speed) of
/// the measured engine and of one freshly set-up engine per
/// `(threads, metrics level)` variant, in that order. They take their
/// rounds in turn, so a disturbance lands on all of them, and each is
/// read from its fastest [`VARIANT_QUIET`] rounds. The variants'
/// operations count towards the run's attempted and failed.
fn variant_latencies(
    inputs: &Inputs,
    ctx: &mut Ctx,
    probe: &mut Probe,
    variants: &[(usize, MetricsLevel)],
) -> Vec<f64> {
    let mut off = Recorder::new(false);
    let mut engines: Vec<Ctx> = variants
        .iter()
        .map(|&(threads, metrics)| {
            let mut variant = setup(inputs, threads, metrics);
            round(inputs, &mut variant, probe, &mut off, false);
            variant
        })
        .collect();
    let mut rounds: Vec<Vec<Round>> = vec![Vec::new(); 1 + variants.len()];
    for _ in 0..VARIANT_ROUNDS {
        let in_turn = std::iter::once(&mut *ctx).chain(engines.iter_mut());
        for (engine, rounds) in in_turn.zip(&mut rounds) {
            rounds.push(round(inputs, engine, probe, &mut off, false));
        }
    }
    for variant in &engines {
        ctx.attempted += variant.attempted;
        ctx.failed += variant.failed;
    }
    let wall = |r: &Round| r.latencies.iter().sum::<f64>();
    rounds
        .iter_mut()
        .map(|rounds| {
            rounds.sort_by(|a, b| wall(a).total_cmp(&wall(b)));
            let quiet = rounds.iter().take(VARIANT_QUIET).map(|r| (r, speed(r)));
            geomean(&cell_quantile(
                &inputs.order,
                inputs.cells.len(),
                quiet,
                0.5,
            ))
        })
        .collect()
}

/// Parser and catalog calls on a fresh engine; returns that engine, the
/// registered database and the parsed query.
fn shadow_catalog(
    inputs: &Inputs,
    c: usize,
    rec: &mut Recorder,
) -> (Engine, cqapx_engine::DbId, cqapx_cq::ConjunctiveQuery) {
    let cell = &inputs.cells[c];
    let template = &inputs.templates[cell.db];
    let q = rec
        .span("parser.parse", || {
            parse_cq_with_vocab(&cell.text, template.vocabulary())
        })
        .expect("generated rule text parses");
    let engine = Engine::new(inputs.config(cell.class, 1, MetricsLevel::Counters));
    let clone = template.clone();
    let db = rec.span("catalog.register", || {
        engine.register_database("shadow", clone)
    });
    let prepared = q.clone();
    rec.span("catalog.prepare", || {
        engine.prepare_query(cell.name, prepared)
    });
    (engine, db, q)
}

/// The evaluation layers of one cell, call by call: plan choice, the
/// plan-IR run with its operator profile, and the answer boundary. The
/// warm workloads run against the measured engine's own (warm) database
/// entry, `cyclic_bags_cold` against a freshly registered one.
fn shadow_eval(inputs: &Inputs, ctx: &Ctx, c: usize, rec: &mut Recorder) {
    let cell = &inputs.cells[c];
    let (fresh, fresh_db, q) = shadow_catalog(inputs, c, rec);
    let entry = match (inputs.kind, &ctx.engine) {
        (Kind::Warm, Some(engine)) => engine.database(ctx.dbs[cell.db]),
        _ => fresh.database(fresh_db),
    }
    .expect("registered database");
    let shape = QueryShape::of(&q);
    rec.enter("plan.compile");
    let acyclic = shape
        .acyclic
        .then(|| AcyclicPlan::compile(&q).expect("acyclic shape compiles"));
    let decomposed = (!shape.acyclic).then(|| {
        DecomposedPlan::compile(&q, shape.treewidth).expect("decomposes at its treewidth")
    });
    rec.exit();
    rec.span("planner.choose", || {
        choose_plan(
            &shape,
            decomposed.as_ref(),
            &entry,
            inputs.naive_cost_budget,
        )
    });
    let ir = match (&acyclic, &decomposed) {
        (Some(plan), _) => plan.ir(),
        (_, Some(plan)) => plan.ir(),
        _ => unreachable!("a query is acyclic or not"),
    };
    if inputs.kind == Kind::Warm {
        // Requests of a warm workload find the processor's caches warm
        // too; the catalog calls above have just flushed them.
        shadow_run(ir, &q, &entry, &mut Recorder::new(false));
    }
    shadow_run(ir, &q, &entry, rec);
}

/// One plan-IR run with its operator profile, then the answer boundary.
fn shadow_run(
    ir: &PlanIr,
    q: &cqapx_cq::ConjunctiveQuery,
    entry: &DatabaseEntry,
    rec: &mut Recorder,
) {
    let budget = ThreadBudget::new(1);
    let cache = Some(&entry.materialized);
    let mut profile = EvalProfile::default();
    rec.enter("ir.run");
    let (relation, rows_out) = if q.is_boolean() {
        let (alive, _) =
            ir.run_boolean_budget_profiled(&entry.structure, cache, &budget, Some(&mut profile));
        (None, usize::from(alive))
    } else {
        let (relation, _) =
            ir.run_budget_profiled(&entry.structure, cache, &budget, Some(&mut profile));
        let rows = relation.as_ref().map_or(0, |r| r.len());
        (relation, rows)
    };
    rec.exit();
    rec.count("ir.rows_out", rows_out as f64);
    for (prefixes, name) in [
        (&["materialize"][..], "ir.materialize_us"),
        (&["semijoin"][..], "ir.semijoin_us"),
        (&["join"][..], "ir.join_us"),
        (&["project", "dedup"][..], "ir.project_us"),
    ] {
        let us: u64 = profile
            .ops
            .iter()
            .filter(|o| prefixes.iter().any(|p| o.op.starts_with(p)))
            .map(|o| o.micros)
            .sum();
        rec.count(name, us as f64);
    }
    // The answer boundary: timed with the allocator's counters off,
    // then once more, untimed, with them on.
    let decode = |r: &FlatRelation| {
        r.rows_in_head_order_decoded(q.free_vars(), entry.structure.domain_dict())
    };
    let answers = rec.span("egress.decode", || relation.as_ref().map(decode));
    drop(answers);
    let before = CountingAlloc::totals().0;
    CountingAlloc::counting(true);
    let answers = relation.as_ref().map(decode);
    let read: usize = answers.iter().flatten().map(Vec::len).sum();
    drop(answers);
    CountingAlloc::counting(false);
    std::hint::black_box(read);
    rec.count("egress.allocs", (CountingAlloc::totals().0 - before) as f64);
}

/// The approximation layers of one cell: signature, the full search,
/// the cache on a miss and on an isomorphic hit, certain-answer
/// evaluation, and the exact naive search the sandwich stands in for.
fn shadow_approx(inputs: &Inputs, c: usize, rec: &mut Recorder) {
    let cell = &inputs.cells[c];
    let (engine, db, q) = shadow_catalog(inputs, c, rec);
    let entry = engine.database(db).expect("registered database");
    let shape = QueryShape::of(&q);
    rec.span("planner.choose", || {
        choose_plan(&shape, None, &entry, inputs.naive_cost_budget)
    });
    let tableau = tableau_of(&q);
    let twin = parse_cq_with_vocab(&cell.twin_text, entry.structure.vocabulary())
        .expect("generated rule text parses");
    let twin = tableau_of(&twin);
    let class = cell.class.as_class();
    let options = approx_options();
    rec.span("iso.signature", || signature_pointed(&tableau));
    let (results, meta) = rec.span("approx.search", || {
        all_approximations_tableaux(&tableau, class.as_ref(), &options)
    });
    rec.count("approx.candidates", meta.candidates as f64);
    rec.count("approx.partitions", meta.partitions as f64);
    rec.count("approx.results", results.len() as f64);
    let cache = ApproxCache::new();
    let (cached, _) = rec.span("approx_cache.miss", || {
        cache.get_or_compute(&tableau, class.as_ref(), &options)
    });
    rec.span("approx_cache.iso_hit", || {
        cache.lookup_only(&twin, class.as_ref(), &options)
    });
    let budget = ThreadBudget::new(1);
    rec.span("approx.certain_eval", || {
        for evaluator in &cached.evaluators {
            evaluator.eval_with_cache(&entry.structure, &entry.materialized, &budget);
        }
    });
    let exact = NaivePlan::compile(q);
    let stats = exact.for_each_answer(&entry.structure, None, |_| ControlFlow::Continue(()));
    rec.count("solver.nodes", stats.nodes as f64);
    rec.count("solver.revisions", stats.revisions as f64);
}
