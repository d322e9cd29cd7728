//! Theorem 5.10, Corollary 5.11: `(k+1)`-colorability tests vs the
//! full TW(k)-approximation decision.

use cqapx_bench::workloads;
use cqapx_core::{is_approximation, trichotomy, ApproxOptions, TwK};
use cqapx_graphs::{coloring, generators};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_twk(c: &mut Criterion) {
    let mut group = c.benchmark_group("twk_colorability");
    group.sample_size(10);
    for (name, g) in [
        ("W5", generators::wheel(5)),
        ("K4", generators::complete_digraph(4)),
        ("W7", generators::wheel(7)),
    ] {
        let q = workloads::graph_query(&g);
        group.bench_function(format!("colorability_3/{name}"), |b| {
            b.iter(|| coloring::is_k_colorable(&g, 3))
        });
        group.bench_function(format!("nontrivial_tw2/{name}"), |b| {
            b.iter(|| trichotomy::has_nontrivial_twk_approximation(&q, 2))
        });
    }
    // Prop 5.12 reduction instance: deciding whether Q^triv_3 is a TW(2)
    // approximation (NP-hard in general).
    group.bench_function("prop512_identify_triangle", |b| {
        let s = cqapx_gadgets::decision::prop_5_12_instance(&[(0, 1), (1, 2), (2, 0)], 3, 2);
        let q = cqapx_cq::query_from_tableau(&cqapx_structures::Pointed::boolean(s));
        let triv3 = cqapx_core::trivial_k_query(2);
        b.iter(|| {
            assert_eq!(
                is_approximation(&q, &triv3, &TwK(2), &ApproxOptions::default()),
                Some(true)
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_twk);
criterion_main!(benches);
