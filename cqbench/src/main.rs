//! `cqbench run <workload|all> --seed N [--trace 0|1] [--smoke]` and
//! `cqbench compare a.json b.json`. The driver's form
//! `--workload W --seed N --seconds S --trace T` is accepted as well.

use cqbench::report::{compare, render, Spec};
use cqbench::run::run;
use cqbench::workload::{FULL, SMOKE};
use std::process::ExitCode;

const USAGE: &str = "usage: cqbench run <workload|all> --seed N [--trace 0|1] [--smoke]
       cqbench --workload <workload|all> --seed N --seconds S --trace 0|1
       cqbench compare a.json b.json";

/// `BENCHMARK.json`'s `run_seconds`, when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;

/// Keeps freed memory in the process. By default glibc trims the heap
/// whenever a response of tens of megabytes is dropped and grows it
/// again for the next one; every page of that is a fault, and a page
/// fault in a virtual machine is work for the hypervisor whose cost
/// changes with the host's mood — measured here as a tenth of
/// `free_big_answers`' latency and most of its run-to-run spread. The
/// benchmark measures the engine, so it takes the faults once.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores three integers in the allocator's
    // parameters; it is called before the first thread is spawned.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_TOP_PAD, 64 << 20);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn main() -> ExitCode {
    keep_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("cqbench: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::built_in();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err("compare takes two files".into());
        };
        let read =
            |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
        let (table, any_worse) = compare(&read(a)?, &read(b)?, &spec);
        print!("{table}");
        return Ok(ExitCode::from(u8::from(any_worse)));
    }

    // The kernel knobs read the environment behind `EngineConfig`'s back.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("CQAPX_"))
    {
        return Err(format!(
            "{} is set; the benchmark measures the configuration it states, unset it",
            name.to_string_lossy()
        ));
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, DEFAULT_SECONDS, false, false);
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut value = |what: &str| rest.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" | "--workload" => workload = Some(value("a workload")?.clone()),
            "--seed" => {
                seed = Some(
                    value("a number")?
                        .parse::<u64>()
                        .map_err(|e| e.to_string())?,
                )
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse::<f64>()
                    .map_err(|e| e.to_string())?
            }
            "--trace" => trace = value("0 or 1")? == "1",
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("no workload given")?;
    let seed = seed.ok_or("no --seed given")?;
    let sizes = if smoke { &SMOKE } else { &FULL };
    let outcomes = run(&workload, seed, seconds, trace, sizes)?;
    let mut all_correct = true;
    for outcome in &outcomes {
        print!("{}", render(outcome, trace, &spec)?);
        all_correct &= outcome.correct();
    }
    Ok(ExitCode::from(u8::from(!all_correct)))
}
