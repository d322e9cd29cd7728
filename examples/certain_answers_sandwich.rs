//! The under/over sandwich: certain vs candidate answers.
//!
//! The paper computes maximally-contained under-approximations; its
//! conclusion lists overapproximations as future work. `cqapx-core`
//! implements a sound version of both directions, giving for any cyclic
//! query `Q` a pair `Q⁻ ⊆ Q ⊆ Q⁺` of tractable queries:
//! `Q⁻`'s answers are certainly correct, `Q⁺`'s answers are the only
//! candidates — and both evaluate with Yannakakis.
//!
//! Run with `cargo run --release --example certain_answers_sandwich`.

use cq_approx::core::over;
use cq_approx::prelude::*;

fn main() {
    // "Find a that lies on a triangle" — cyclic, NP-hard combined
    // complexity.
    let q = parse_cq("Q(a) :- E(a,b), E(b,c), E(c,a)").unwrap();
    println!("Q  = {q}\n");

    let (under, over) = over::sandwich(&q, &TwK(1), &ApproxOptions::default());
    let over = over.expect("overapproximation exists");
    println!("Q⁻ = {under}   (maximally contained, Thm 4.1)");
    println!("Q⁺ = {over}   (sound overapproximation, §7 extension)\n");
    assert!(contained_in(&under, &q));
    assert!(contained_in(&q, &over));

    // Evaluate all three on a database: two triangles sharing structure
    // with some almost-triangles.
    let d = Structure::digraph(
        8,
        &[
            (0, 1),
            (1, 2),
            (2, 0), // triangle on 0,1,2
            (3, 4),
            (4, 5),
            (5, 3), // triangle on 3,4,5
            (6, 7),
            (7, 6), // a 2-cycle (almost)
            (2, 6),
            (6, 3),
        ],
    );
    let plan_under = AcyclicPlan::compile(&under).unwrap();
    let plan_over = AcyclicPlan::compile(&over).unwrap();
    let certain = plan_under.ir().answers(&d, None).0;
    let exact = eval_naive(&q, &d);
    let candidates = plan_over.ir().answers(&d, None).0;

    println!("certain answers   (Q⁻, Yannakakis): {certain:?}");
    println!("exact answers     (Q,  naive):      {exact:?}");
    println!("candidate answers (Q⁺, Yannakakis): {candidates:?}");

    assert!(certain.iter().all(|t| exact.contains(t.as_slice())));
    assert!(exact.iter().all(|t| candidates.contains(t)));
    println!(
        "\nsandwich holds: {} certain ⊆ {} exact ⊆ {} candidates",
        certain.len(),
        exact.len(),
        candidates.len()
    );
    println!(
        "error bound on this database: at most {} answers undecided",
        candidates.len() - certain.len()
    );
}
