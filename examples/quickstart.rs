//! Quickstart: approximate a cyclic query by an acyclic one and evaluate
//! both on a small database.
//!
//! Run with `cargo run --example quickstart`.

use cq_approx::prelude::*;

fn main() {
    // The paper's introduction, query Q2: two 3-paths with two cross
    // edges — cyclic, so combined complexity |D|^O(|Q|) in general.
    let q =
        parse_cq("Q() :- E(x,y), E(y,z), E(z,u), E(x1,y1), E(y1,z1), E(z1,u1), E(x,z1), E(y,u1)")
            .unwrap();
    println!("query Q:    {q}");
    println!(
        "  cyclic:   {}",
        !cq_approx::cq::classes::is_acyclic_query(&q)
    );

    // Classify per Theorem 5.1: bipartite + balanced means nontrivial
    // acyclic approximations exist.
    println!("  class:    {:?}", classify_boolean_graph_query(&q));

    // Compute all acyclic (TW(1)) approximations exactly.
    let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
    println!(
        "  visited {} prefixes, reached {} partitions ({} leaves and subtrees dominated by a \
         finer in-class one), {} candidates, complete = {}",
        rep.nodes, rep.partitions, rep.dominated, rep.candidates, rep.complete
    );
    println!(
        "  walk {} µs, antichain {} µs, cores {} µs",
        rep.walk_us, rep.antichain_us, rep.core_us
    );
    for a in &rep.approximations {
        println!("approximation: {a}");
    }
    let q_prime = &rep.approximations[0];
    assert!(contained_in(q_prime, &q), "approximations are sound");

    // Evaluate both on a database: a long directed path. The original
    // query is FALSE here (no cross edges), the approximation is TRUE —
    // and correct whenever it says true on databases where they agree.
    let d = Structure::digraph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    let plan = AcyclicPlan::compile(q_prime).expect("approximation is acyclic");
    println!("\ndatabase: directed path with 6 nodes");
    println!(
        "  Q' (Yannakakis): {}",
        plan.ir().run_boolean(&d, None, None).0
    );
    println!("  Q  (naive):      {}", !eval_naive(&q, &d).is_empty());

    // The price of the approximation is possible incompleteness: on the
    // canonical database of Q (its own tableau), Q is true but the
    // strictly-contained Q' is not — Q' never lies, it only abstains.
    let t = tableau_of(&q);
    let d2 = t.structure.clone();
    println!("\ndatabase: the tableau of Q itself (canonical database)");
    println!(
        "  Q' (Yannakakis): {}  <- may miss answers…",
        plan.ir().run_boolean(&d2, None, None).0
    );
    println!(
        "  Q  (naive):      {}   <- …that the exact query has",
        !eval_naive(&q, &d2).is_empty()
    );
    assert!(
        !plan.ir().run_boolean(&d2, None, None).0 || !eval_naive(&q, &d2).is_empty(),
        "soundness: whenever Q' answers true, so does Q"
    );
}
