//! Theorem 5.1: polynomial classification vs exponential
//! approximation — the complexity gap, measured.

use cqapx_bench::workloads;
use cqapx_core::{all_approximations, classify_boolean_graph_query, ApproxOptions, TwK};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_trichotomy(c: &mut Criterion) {
    let mut group = c.benchmark_group("trichotomy");
    group.sample_size(10);
    let suite = [
        ("C3", workloads::cycle_query(3)),
        ("C6", workloads::cycle_query(6)),
        (
            "Q2",
            cqapx_cq::parse_cq(
                "Q() :- E(x,y), E(y,z), E(z,u), E(x1,y1), E(y1,z1), E(z1,u1), E(x,z1), E(y,u1)",
            )
            .unwrap(),
        ),
    ];
    for (name, q) in &suite {
        group.bench_function(format!("classify/{name}"), |b| {
            b.iter(|| classify_boolean_graph_query(q))
        });
        group.bench_function(format!("approximate/{name}"), |b| {
            b.iter(|| all_approximations(q, &TwK(1), &ApproxOptions::default()).approximations)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trichotomy);
criterion_main!(benches);
