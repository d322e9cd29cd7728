//! End-to-end checks of the benchmark itself, at smoke sizes.

use cqbench::report::{compare, quartiles, render, verdict, Json, Spec, Verdict};
use cqbench::run::{quiet_rounds, run, Session};
use cqbench::workload::{generate, CELLS, SMOKE, WORKLOADS};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// The allocator's counters are process-wide: tests that run engines
/// take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn every_workload_passes_and_reports_exactly_the_declared_metrics() {
    let _turn = serial();
    let spec = Spec::built_in();
    let outcomes = run("all", 7, 0.0, true, &SMOKE).unwrap();
    assert_eq!(outcomes.len(), WORKLOADS.len());
    let names = |specs: &[cqbench::report::MetricSpec]| -> BTreeSet<String> {
        specs.iter().map(|m| m.name.clone()).collect()
    };
    for outcome in &outcomes {
        assert!(
            outcome.correct(),
            "{}: {:?}",
            outcome.workload,
            outcome.problems
        );
        assert!(outcome.attempted > 0 && outcome.failed == 0);
        let measured: BTreeSet<String> = outcome.end_to_end.keys().cloned().collect();
        assert_eq!(measured, names(&spec.end_to_end), "{}", outcome.workload);
        let measured: BTreeSet<String> = outcome.per_layer.keys().cloned().collect();
        assert_eq!(measured, names(&spec.per_layer), "{}", outcome.workload);
        assert!(outcome.end_to_end.values().all(|v| *v > 0.0));
        // Both forms of the result line parse and carry the contract's keys.
        for traced in [false, true] {
            let text = render(outcome, traced, &spec).unwrap();
            let last = Json::parse(text.lines().last().unwrap()).unwrap();
            let Json::Obj(fields) = &last else {
                panic!("result is an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        }
    }
    // Each workload is dominated by the layer it was chosen for.
    let layer = |w: usize, name: &str| outcomes[w].per_layer[name];
    assert_eq!(layer(0, "planner.share_yannakakis"), 1.0);
    assert_eq!(layer(1, "flat.mat_hit_rate"), 1.0);
    assert_eq!(layer(2, "planner.share_decomposed"), 1.0);
    assert!(layer(2, "flat.mat_misses") >= 1.0);
    assert_eq!(layer(3, "planner.share_sandwich"), 1.0);
    assert_eq!(layer(3, "approx_cache.misses"), 1.0);
    assert_eq!(layer(3, "approx_cache.hits"), 1.0);
    assert!(layer(3, "approx.search_ms") > 0.0 && layer(3, "approx.partitions") > 0.0);
    assert_eq!(layer(0, "approx.search_ms"), 0.0);
    assert!(layer(0, "egress.rows") > 1000.0 && layer(0, "egress.allocs_per_row") >= 1.0);
}

#[test]
fn names_in_code_and_benchmark_json_agree_and_are_well_formed() {
    let spec = Spec::built_in();
    assert_eq!(spec.workloads, WORKLOADS);
    let well_formed = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut all = BTreeSet::new();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(well_formed(&m.name), "{}", m.name);
        assert!(all.insert(m.name.clone()), "{} declared twice", m.name);
    }
    assert!(spec.workloads.iter().all(|w| well_formed(w)));
    assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    for (_, cell, _, _) in CELLS {
        assert!(all.contains(&format!("cell.{cell}.p50_ms")), "{cell}");
    }
    assert!(spec.per_layer.len() <= 128);
}

#[test]
fn a_corrupted_oracle_digest_fails_operations() {
    let _turn = serial();
    let mut inputs = generate("free_big_answers", 3, &SMOKE).unwrap();
    inputs.cells[0].expected.sum ^= 1;
    let mut session = Session::with_inputs(inputs, 3, 0.0, &SMOKE);
    session.run_rounds(2);
    let outcome = session.finish(false);
    assert!(outcome.failed > 0 && outcome.failed < outcome.attempted);
    assert!(!outcome.correct());
    let spec = Spec::built_in();
    let text = render(&outcome, false, &spec).unwrap();
    assert!(text.lines().last().unwrap().contains("\"correct\":false"));
}

#[test]
fn a_forced_wrong_plan_fails_operations() {
    let _turn = serial();
    // With nothing to spend, the planner sends the cyclic queries to the
    // sandwich tier; answers stay right, the plan is not the expected one.
    let mut inputs = generate("cyclic_bags_cold", 3, &SMOKE).unwrap();
    inputs.naive_cost_budget = 1.0;
    let mut session = Session::with_inputs(inputs, 3, 0.0, &SMOKE);
    session.run_rounds(1);
    let outcome = session.finish(false);
    assert_eq!(outcome.failed, outcome.attempted);
}

#[test]
fn allocation_counts_repeat_across_two_passes() {
    let _turn = serial();
    for workload in WORKLOADS {
        let mut session = Session::prepare(workload, 11, &SMOKE).unwrap();
        let first = session.counted_pass().unwrap();
        let second = session.counted_pass().unwrap();
        assert_eq!(first, second, "{workload}");
        assert!(first.0 > 0.0 && first.1 > 0.0);
    }
}

#[test]
fn quiet_rounds_are_the_fastest_eighth_but_at_least_six() {
    // 48 rounds: six quiet ones, whichever position they are in.
    let mut walls: Vec<f64> = (0..48).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    for i in [5, 11, 23, 30, 41, 47] {
        walls[i] = 0.5 + i as f64 * 0.001;
    }
    assert_eq!(quiet_rounds(&walls), [5, 11, 23, 30, 41, 47]);
    // 80 rounds: a tenth of them.
    let walls: Vec<f64> = (0..80).map(|i| ((i * 37) % 80) as f64).collect();
    let quiet = quiet_rounds(&walls);
    assert_eq!(quiet.len(), 10);
    assert!(quiet.iter().all(|&r| walls[r] < 10.0));
    // Fewer than six: all of them; ties break by position.
    assert_eq!(quiet_rounds(&[2.0, 1.0, 1.0]), [1, 2, 0]);
}

#[test]
fn quartiles_are_pythons_exclusive_method() {
    // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
    let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
    assert_eq!(quartiles(&v), (3.5, 13.5, 31.0));
    // statistics.quantiles([3, 1, 2], n=4)
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
}

#[test]
fn compare_verdicts_on_hand_made_runs() {
    let tight = |m: f64| -> Vec<f64> { (0..10).map(|i| m * (1.0 + 0.001 * i as f64)).collect() };
    let wide = |m: f64| -> Vec<f64> { (0..10).map(|i| m * (1.0 + 0.05 * i as f64)).collect() };
    assert_eq!(
        verdict(&tight(10.0), &tight(10.5), false, 0.1),
        Verdict::Within
    );
    assert_eq!(
        verdict(&tight(10.0), &tight(11.5), false, 0.1),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&tight(10.0), &tight(8.0), false, 0.1),
        Verdict::Better
    );
    // Higher is better: the same numbers read the other way.
    assert_eq!(
        verdict(&tight(10.0), &tight(11.5), true, 0.1),
        Verdict::Better
    );
    assert_eq!(
        verdict(&tight(10.0), &tight(8.0), true, 0.1),
        Verdict::Worse
    );
    // Spread wider than the bound: unresolved unless the sides are disjoint.
    assert_eq!(
        verdict(&wide(10.0), &tight(10.5), false, 0.1),
        Verdict::Unresolved
    );
    assert_eq!(
        verdict(&wide(10.0), &tight(9.0), false, 0.1),
        Verdict::Better
    );
    assert_eq!(
        verdict(&wide(10.0), &wide(20.0), false, 0.1),
        Verdict::Worse
    );
    // A zero bound: no rise at all.
    assert_eq!(verdict(&[0.0; 5], &[0.0; 5], false, 0.0), Verdict::Within);
    assert_eq!(
        verdict(&[0.0; 5], &[0.0, 0.0, 0.1, 0.1, 0.1], false, 0.0),
        Verdict::Worse
    );

    let spec = Spec::built_in();
    let record = |latency: f64, failed: u32| {
        format!(
            "noise\n{{\"workload\":\"approx_cold\",\"seed\":1,\"trace\":0,\"correct\":true,\"attempted\":100,\"failed\":{failed},\"metrics\":{{\"latency_p50_ms\":{{\"value\":{latency},\"unit\":\"ms\"}}}}}}\n"
        )
    };
    let a: String = (0..10).map(|i| record(10.0 + 0.01 * i as f64, 0)).collect();
    let slower: String = (0..10).map(|i| record(13.0 + 0.01 * i as f64, 0)).collect();
    let failing: String = (0..10).map(|i| record(10.0 + 0.01 * i as f64, 1)).collect();
    let (table, any_worse) = compare(&a, &a, &spec);
    assert!(!any_worse && table.contains("within"), "{table}");
    let (table, any_worse) = compare(&a, &slower, &spec);
    assert!(any_worse && table.contains("worse"), "{table}");
    let (table, any_worse) = compare(&a, &failing, &spec);
    assert!(any_worse, "{table}");
    let row = table.lines().find(|l| l.contains("failed_share")).unwrap();
    assert!(row.ends_with("worse"), "{row}");
}
