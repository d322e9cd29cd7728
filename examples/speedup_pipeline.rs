//! The paper's motivating pipeline, end to end: take an expensive cyclic
//! query, compute its acyclic approximation **once** (static analysis),
//! then answer a stream of databases with Yannakakis instead of the
//! backtracking join — trading completeness for guaranteed-correct
//! answers and `O(|D| · |Q'|)` evaluation.
//!
//! Run with `cargo run --release --example speedup_pipeline`.

use cq_approx::prelude::*;
use cqapx_graphs::generators;
use std::time::Instant;

fn main() {
    // A "brutal" cyclic pattern: a 4-clique of symmetric edges with a
    // pendant path — treewidth 3.
    let q = parse_cq(
        "Q(p) :- E(a,b), E(b,a), E(a,c), E(c,a), E(a,d), E(d,a), \
                 E(b,c), E(c,b), E(b,d), E(d,b), E(c,d), E(d,c), \
                 E(a,p), E(p,p2), E(p2,p3)",
    )
    .unwrap();
    println!("Q = {q}");
    println!("treewidth(Q) = {}", cq_approx::cq::treewidth_of_query(&q));

    // Static step: the exact TW(1)-approximation search, run once.
    let t0 = Instant::now();
    let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
    let q_prime = rep.approximations[0].clone();
    println!(
        "Q' = {q_prime}   (one of {}, found in {:.2?}, sound: {})",
        rep.approximations.len(),
        t0.elapsed(),
        contained_in(&q_prime, &q)
    );

    let plan = AcyclicPlan::compile(&q_prime).expect("acyclic");

    // Dynamic step: evaluate on growing random databases.
    println!(
        "\n{:>8} {:>14} {:>14} {:>9} {:>9}",
        "|D| nodes", "naive Q", "Yannakakis Q'", "ans Q", "ans Q'"
    );
    for n in [50usize, 100, 200, 400] {
        let d = generators::random_digraph(n, 8.0 / n as f64, 42).to_structure();
        let t0 = Instant::now();
        let full = eval_naive(&q, &d);
        let t_naive = t0.elapsed();
        let t0 = Instant::now();
        let approx = plan.ir().answers(&d, None).0;
        let t_yann = t0.elapsed();
        // Soundness on real data: approximate answers ⊆ exact answers.
        assert!(approx.iter().all(|a| full.contains(a.as_slice())));
        println!(
            "{:>8} {:>14.2?} {:>14.2?} {:>9} {:>9}",
            n,
            t_naive,
            t_yann,
            full.len(),
            approx.len()
        );
    }
    println!("\nEvery tuple the approximation returns is a correct answer of Q.");
}
