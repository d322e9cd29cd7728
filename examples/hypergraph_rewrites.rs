//! Hypergraph-based approximations (Section 6): beyond graphs, acyclic
//! approximations can even have MORE atoms than the query they
//! approximate.
//!
//! Run with `cargo run --example hypergraph_rewrites`.

use cq_approx::prelude::*;
use cqapx_cq::classes;

fn main() {
    // Example 6.6: three ternary atoms forming a Berge cycle.
    let q = parse_cq("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)").unwrap();
    println!("Q = {q}");
    println!("  acyclic: {}", classes::is_acyclic_query(&q));
    println!(
        "  hypertree width: {}",
        classes::hypertree_width_of_query(&q)
    );

    let rep = all_approximations(&q, &Acyclic, &ApproxOptions::default());
    println!(
        "\n{} non-equivalent acyclic approximations (reached {} partitions):",
        rep.approximations.len(),
        rep.partitions
    );
    for a in &rep.approximations {
        let delta = a.join_count() as i64 - q.join_count() as i64;
        let tag = match delta.signum() {
            -1 => "fewer joins than Q",
            0 => "as many joins as Q",
            _ => "MORE joins than Q (a covering atom was added)",
        };
        println!("  {a}\n      → {tag}");
    }

    // The same query has a width-2 hypertree decomposition, so its
    // HTW(2)-approximation is the query itself.
    let rep2 = all_approximations(&q, &HtwK(2), &ApproxOptions::default());
    println!("\nHTW(2)-approximations:");
    for a in &rep2.approximations {
        println!("  {a}   (equivalent to Q: {})", equivalent(a, &q));
    }

    // Intro's ternary triangle: padding the middle positions opens up
    // approximations the graph version does not have.
    let q = parse_cq("Q() :- R(x,u,y), R(y,v,z), R(z,w,x)").unwrap();
    println!("\nQ = {q}");
    let rep = all_approximations(&q, &Acyclic, &ApproxOptions::default());
    for a in &rep.approximations {
        println!("  acyclic approximation: {a}");
    }
}
