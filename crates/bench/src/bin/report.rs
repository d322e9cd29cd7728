//! The experiment report harness: regenerates each table/figure of the
//! paper as a printed experiment.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cqapx-bench --bin report              # everything
//! cargo run --release -p cqapx-bench --bin report -- fig1 dp   # selected
//! ```
//!
//! Experiment ids: fig1 fig2 prop44 trichotomy speedup tight nonboolean
//! twk strong hyper dp engine hom eval
//!
//! The `engine` experiment additionally writes `BENCH_engine.json`
//! (queries/sec, cache hit rate) and the `hom` experiment writes
//! `BENCH_hom.json` (new vs pre-refactor hom engine) for machine-readable
//! perf tracking; `eval` writes `BENCH_eval.json` (columnar join kernel
//! vs the frozen row-based evaluator, materialization-cache hit rate).

use cqapx_bench as bench;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = [
        "fig1",
        "fig2",
        "prop44",
        "trichotomy",
        "speedup",
        "tight",
        "nonboolean",
        "twk",
        "strong",
        "hyper",
        "dp",
        "engine",
        "hom",
        "eval",
    ];
    let selected: Vec<&str> = if args.is_empty() {
        all.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    for id in selected {
        let output = match id {
            "fig1" => bench::exp_fig1(),
            "fig2" => bench::exp_fig2(),
            "prop44" => bench::exp_prop44(3),
            "trichotomy" => bench::exp_trichotomy(),
            "speedup" => bench::exp_speedup(),
            "tight" => bench::exp_tight(),
            "nonboolean" => bench::exp_nonboolean(),
            "twk" => bench::exp_twk(),
            "strong" => bench::exp_strong(),
            "hyper" => bench::exp_hyper(),
            "dp" => bench::exp_dp(),
            "engine" => bench::exp_engine(),
            "hom" => bench::exp_hom(),
            "eval" => bench::exp_eval(),
            other => {
                eprintln!("unknown experiment id {other}; known: {all:?}");
                std::process::exit(2);
            }
        };
        println!("{}", "=".repeat(72));
        println!("{output}");
    }
}
