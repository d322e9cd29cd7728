//! A tour of the Theorem 4.12 machinery: the DP-hardness gadgets of the
//! appendix, machine-verified live.
//!
//! Run with `cargo run --release --example dp_gadget_tour`.

use cq_approx::gadgets::decision;
use cq_approx::gadgets::dp;
use cq_approx::graphs::{balance, generators, BitGraph, Digraph};
use cq_approx::structures::HomSolver;
use std::time::Instant;

fn main() {
    println!("== oriented-path alphabet ==");
    for i in 1..=9 {
        let p = dp::p_i(i);
        println!("P_{i} = {p}   (net {}, 13 edges)", p.net_length());
    }

    println!("\n== Q* and its folds ==");
    let q = dp::q_star();
    let info = balance::levels(&q.g);
    println!(
        "Q*: {} nodes, balanced = {}, height = {}",
        q.g.n(),
        info.balanced,
        info.height
    );
    for i in 1..=4 {
        let t = dp::t_i(i);
        println!(
            "T_{i}: {} nodes, acyclic = {}, Q* → T_{i}: {}",
            t.g.n(),
            BitGraph::underlying(&t.g).is_forest(),
            HomSolver::compile(&q.g.to_structure())
                .run(&t.g.to_structure())
                .exists()
        );
    }

    println!("\n== the big target T (Figure 14) ==");
    let t = dp::big_t();
    println!(
        "T: {} nodes, tree = {}, colors t1..t4 at level 25",
        t.g.n(),
        BitGraph::underlying(&t.g).is_forest()
    );

    println!("\n== extended chooser pair tables (Claim 8.9) ==");
    for (gadget, name, (i, j)) in [
        (dp::choosers::extended_chooser_21(), "S~21", (2, 1)),
        (dp::choosers::extended_chooser_34(), "S~34", (3, 4)),
    ] {
        let t0 = Instant::now();
        let table = dp::choosers::pair_table(&gadget, &t);
        let ok = table == dp::choosers::expected_extended_table(i, j);
        println!(
            "{name} ({} nodes): verified in {:.2?} — {}",
            gadget.g.n(),
            t0.elapsed(),
            ok
        );
        for (bi, row) in table.iter().enumerate() {
            let cells: Vec<&str> = row.iter().map(|&c| if c { "✓" } else { "·" }).collect();
            println!("   a=t{}: b ∈ [{}]", bi + 1, cells.join(" "));
        }
    }

    println!("\n== the decision problems ==");
    // Exact Four Colorability on small graphs.
    for (name, g) in [
        ("K4", generators::complete_digraph(4)),
        ("K3", generators::complete_digraph(3)),
        ("odd wheel W5", generators::wheel(5)),
    ] {
        println!(
            "exact-4-colorable({name}) = {}",
            decision::exact_four_colorability(&g)
        );
    }
    // Exact Acyclic Homomorphism / Graph Acyclic Approximation.
    let c4 = Digraph::cycle(4);
    let k2 = Digraph::from_edges(2, &[(0, 1), (1, 0)]);
    println!(
        "exact-acyclic-hom(C4, K2^<->) = {}",
        decision::exact_acyclic_homomorphism(&c4, &k2)
    );
    println!(
        "graph-acyclic-approximation(C4, K2^<->) = {:?}",
        decision::graph_acyclic_approximation(&c4, &k2, 1 << 20)
    );
    let lp = Digraph::from_edges(1, &[(0, 0)]);
    println!(
        "graph-acyclic-approximation(C4, loop)   = {:?} (K2 sits strictly between)",
        decision::graph_acyclic_approximation(&c4, &lp, 1 << 20)
    );
}
