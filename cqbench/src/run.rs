//! Runs a workload: set-up, fixed-work rounds, the quiet-round rule,
//! reference-speed timings, the counted pass, and the metrics computed
//! from them.

use crate::layers;
use crate::trace::Recorder;
use crate::workload::{
    generate, round, setup, Ctx, Inputs, Probe, Round, Sizes, CELLS, PROBE_NOMINAL_S, WORKLOADS,
};
use crate::CountingAlloc;
use cqapx_engine::MetricsLevel;
use std::collections::BTreeMap;
use std::time::Instant;

/// Rounds a segment of `run all` gives one workload before moving on to
/// the next, so that a disturbance of a minute cannot land on every
/// round of one workload.
const SEGMENT_ROUNDS: usize = 6;
/// Rounds of the counted pass; their counts must agree exactly.
const COUNTED_ROUNDS: usize = 2;

/// The fastest eighth of the rounds, at least six (all of them when
/// there are fewer): the only sample timing metrics are computed from.
/// Disturbances on a shared machine are one-sided and last seconds, so
/// the fastest rounds are the least disturbed ones.
pub fn quiet_rounds(walls: &[f64]) -> Vec<usize> {
    let mut by_wall: Vec<usize> = (0..walls.len()).collect();
    by_wall.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]).then(a.cmp(&b)));
    by_wall.truncate((walls.len() / 8).max(6));
    by_wall
}

/// How fast the machine ran during a round, as its probe calls saw it:
/// 1 is the calibration machine undisturbed, below 1 is slower. A
/// duration measured in the round, times this, is that duration at
/// reference speed — which is how every end-to-end timing is reported,
/// because on a shared machine a whole run can be a fifth slower than
/// the next one for reasons that have nothing to do with the program.
/// `host.speed` and the `host.raw_*` metrics say how much was corrected.
pub fn speed(round: &Round) -> f64 {
    if round.probe_s > 0.0 {
        PROBE_NOMINAL_S * round.probes as f64 / round.probe_s
    } else {
        1.0
    }
}

/// Linear-interpolated quantile of unsorted values (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let at = q * (n - 1) as f64;
            let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (logs / values.len().max(1) as f64).exp()
}

/// Quantile `q` of each cell's latencies over rounds of latencies (in
/// operation order), each latency scaled by its round's factor.
pub fn cell_quantile<'a>(
    order: &[usize],
    cells: usize,
    rounds: impl Iterator<Item = (&'a Round, f64)>,
    q: f64,
) -> Vec<f64> {
    let mut by_cell = vec![Vec::new(); cells];
    for (round, scale) in rounds {
        for (&c, &latency) in order.iter().zip(&round.latencies) {
            by_cell[c].push(latency * scale);
        }
    }
    by_cell.iter().map(|l| quantile(l, q)).collect()
}

/// Seconds this thread has spent on a CPU (`/proc/self/schedstat`).
fn on_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What one run of one workload reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is wrong beyond failed operations.
    pub problems: Vec<String>,
    pub end_to_end: BTreeMap<String, f64>,
    /// The run-level metrics always; all of them when the run was traced.
    pub per_layer: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// One workload between set-up and report; `run all` keeps four of
/// these and feeds them rounds in turn.
pub struct Session {
    pub inputs: Inputs,
    ctx: Ctx,
    probe: Probe,
    seed: u64,
    generate_s: f64,
    /// Set-up time at reference speed, and as the clock read it.
    setup_s: (f64, f64),
    /// Operations of the set-ups that were measured and thrown away.
    earlier: (u64, u64),
    rounds: Vec<Round>,
    on_cpu_s: f64,
    wall_s: f64,
}

impl Session {
    /// Generates the inputs (reported as `host.generate_s`, not as
    /// set-up) and sets the program up.
    pub fn prepare(workload: &str, seed: u64, sizes: &Sizes) -> Result<Session, String> {
        let started = Instant::now();
        let inputs = generate(workload, seed, sizes)?;
        let generate_s = started.elapsed().as_secs_f64();
        Ok(Session::with_inputs(inputs, seed, generate_s, sizes))
    }

    /// Sets the program up [`Sizes::setups`] times from scratch —
    /// engine, databases, queries, one warm-up round — on inputs made
    /// (or tampered with) elsewhere, and keeps the last. `setup_s` is
    /// the median of the set-ups, each without its probe calls and at
    /// the speed they saw.
    pub fn with_inputs(inputs: Inputs, seed: u64, generate_s: f64, sizes: &Sizes) -> Session {
        let mut probe = Probe::new();
        let mut earlier = (0, 0);
        let (mut at_reference, mut raw) = (Vec::new(), Vec::new());
        let mut kept: Option<Ctx> = None;
        for _ in 0..sizes.setups.max(1) {
            if let Some(ctx) = kept.take() {
                earlier = (earlier.0 + ctx.attempted, earlier.1 + ctx.failed);
            }
            let started = Instant::now();
            let mut ctx = setup(&inputs, 1, MetricsLevel::Counters);
            let off = &mut Recorder::new(false);
            let warm_up = round(&inputs, &mut ctx, &mut probe, off, false);
            let own = started.elapsed().as_secs_f64() - warm_up.probe_s;
            raw.push(own);
            at_reference.push(own * speed(&warm_up));
            kept = Some(ctx);
        }
        Session {
            inputs,
            ctx: kept.expect("at least one set-up"),
            probe,
            seed,
            generate_s,
            setup_s: (median(&at_reference), median(&raw)),
            earlier,
            rounds: Vec::new(),
            on_cpu_s: 0.0,
            wall_s: 0.0,
        }
    }

    pub fn run_rounds(&mut self, n: usize) {
        let (cpu, wall) = (on_cpu_s(), Instant::now());
        for _ in 0..n {
            let off = &mut Recorder::new(false);
            let round = round(&self.inputs, &mut self.ctx, &mut self.probe, off, false);
            self.rounds.push(round);
        }
        self.on_cpu_s += on_cpu_s() - cpu;
        self.wall_s += wall.elapsed().as_secs_f64();
    }

    /// Allocations and KiB requested per operation, counted over
    /// [`COUNTED_ROUNDS`] rounds with the allocator's counters on. The
    /// rounds do identical work, so their counts must agree exactly.
    pub fn counted_pass(&mut self) -> Result<(f64, f64), String> {
        let mut per_round = Vec::new();
        for _ in 0..COUNTED_ROUNDS {
            let before = CountingAlloc::totals();
            let off = &mut Recorder::new(false);
            round(&self.inputs, &mut self.ctx, &mut self.probe, off, true);
            let after = CountingAlloc::totals();
            per_round.push((after.0 - before.0, after.1 - before.1));
        }
        if per_round.iter().any(|r| *r != per_round[0]) {
            return Err(format!(
                "allocation counts differ between identical rounds: {per_round:?}"
            ));
        }
        let ops = self.inputs.order.len() as f64;
        let (allocs, bytes) = per_round[0];
        Ok((allocs as f64 / ops, bytes as f64 / 1024.0 / ops))
    }

    /// The counted pass, the metrics and — when asked — the traced run.
    pub fn finish(mut self, trace: bool) -> Outcome {
        let mut problems = Vec::new();
        let (allocs, kib) = self.counted_pass().unwrap_or_else(|why| {
            problems.push(why);
            (0.0, 0.0)
        });
        let (order, cells) = (&self.inputs.order, self.inputs.cells.len());
        let ops = order.len();
        let rounds = &self.rounds;
        let walls: Vec<f64> = rounds.iter().map(|r| r.latencies.iter().sum()).collect();
        let quiet = quiet_rounds(&walls);
        // Quiet rounds at reference speed, and as the clock read them.
        let p50 = |scaled: bool| -> Vec<f64> {
            let picked = quiet
                .iter()
                .map(|&r| (&rounds[r], if scaled { speed(&rounds[r]) } else { 1.0 }));
            cell_quantile(order, cells, picked, 0.5)
        };
        let (quiet_p50, raw_p50) = (p50(true), p50(false));
        let quiet_wall: f64 = quiet.iter().map(|&r| walls[r] * speed(&rounds[r])).sum();
        let raw_wall: f64 = quiet.iter().map(|&r| walls[r]).sum();
        let quiet_ops = (quiet.len() * ops) as f64;

        let mut end_to_end = BTreeMap::new();
        let mut put = |name: &str, value: f64| end_to_end.insert(name.to_string(), value);
        put("setup_s", self.setup_s.0);
        put("latency_p50_ms", geomean(&quiet_p50) * 1e3);
        put("throughput_ops_s", quiet_ops / quiet_wall);
        put("allocs_per_op", allocs);
        put("alloc_kib_per_op", kib);

        // The run-level per-layer metrics cost nothing and are always
        // there; the traced run adds the rest.
        let mut per_layer = BTreeMap::new();
        {
            let all = rounds.iter().map(|r| (r, 1.0));
            let p95 = cell_quantile(order, cells, all, 0.95);
            let quiet_walls: Vec<f64> = quiet.iter().map(|&r| walls[r]).collect();
            let speeds: Vec<f64> = quiet.iter().map(|&r| speed(&rounds[r])).collect();
            let mut put = |name: &str, value: f64| per_layer.insert(name.to_string(), value);
            put("engine.latency_p95_ms", geomean(&p95) * 1e3);
            put(
                "engine.all_rounds_ops_s",
                (walls.len() * ops) as f64 / walls.iter().sum::<f64>(),
            );
            put("host.speed", median(&speeds));
            put("host.raw_latency_p50_ms", geomean(&raw_p50) * 1e3);
            put("host.raw_throughput_ops_s", quiet_ops / raw_wall);
            put("host.raw_setup_s", self.setup_s.1);
            put("host.cpu_over_wall", self.on_cpu_s / self.wall_s);
            put("host.quiet_over_all", median(&quiet_walls) / median(&walls));
            put("host.rounds", walls.len() as f64);
            put("host.generate_s", self.generate_s);
            for (_, cell, _, _) in CELLS {
                let mine = self.inputs.cells.iter().position(|c| c.name == cell);
                let p50 = mine.map_or(0.0, |c| quiet_p50[c] * 1e3);
                put(&format!("cell.{cell}.p50_ms"), p50);
            }
        }
        if trace {
            let traced = layers::traced(&self.inputs, &mut self.ctx, &mut self.probe, &quiet_p50);
            per_layer.extend(traced);
        }
        // After the traced run, so that everything the run did is in it.
        end_to_end.insert("peak_rss_mb".to_string(), peak_rss_mib());
        let attempted = self.earlier.0 + self.ctx.attempted;
        let failed = self.earlier.1 + self.ctx.failed;
        let share = failed as f64 / attempted.max(1) as f64;
        per_layer.insert("engine.failed_share".to_string(), share);
        Outcome {
            workload: self.inputs.workload,
            seed: self.seed,
            attempted,
            failed,
            problems,
            end_to_end,
            per_layer,
        }
    }
}

/// Rounds of a run: `seconds` of nominal rounds, never fewer than the
/// table's minimum. Work is fixed by this count and the seed, not by
/// how fast the rounds turn out to run.
pub fn rounds_for(seconds: f64, sizes: &Sizes) -> usize {
    ((seconds / sizes.round_s).round() as usize).max(sizes.min_rounds)
}

/// Runs one workload, or all four with their rounds interleaved in
/// segments (w1, w2, w3, w4, w1, …).
pub fn run(
    which: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &Sizes,
) -> Result<Vec<Outcome>, String> {
    let names: Vec<&str> = if which == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![which]
    };
    let mut sessions = Vec::new();
    for name in names {
        sessions.push(Session::prepare(name, seed, sizes)?);
    }
    let mut left = rounds_for(seconds, sizes);
    while left > 0 {
        let n = left.min(SEGMENT_ROUNDS);
        sessions.iter_mut().for_each(|s| s.run_rounds(n));
        left -= n;
    }
    Ok(sessions.into_iter().map(|s| s.finish(trace)).collect())
}
