//! Proposition 5.6: the tight family — hom checks scale with k, the
//! exhaustive uniqueness search pays Bell(2k+2).

use cqapx_bench::workloads;
use cqapx_core::{all_approximations, ApproxOptions, TwK};
use cqapx_gadgets::tight;
use cqapx_graphs::Digraph;
use cqapx_structures::HomProblem;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_tight(c: &mut Criterion) {
    let mut group = c.benchmark_group("tight");
    group.sample_size(10);
    for k in [3usize, 5, 8] {
        group.bench_with_input(BenchmarkId::new("gk_to_path", k), &k, |b, &k| {
            let g = tight::g_k(k).to_structure();
            let p = Digraph::directed_path(k + 1).to_structure();
            b.iter(|| assert!(HomProblem::new(&g, &p).exists()))
        });
    }
    group.bench_function("g3_exhaustive_unique", |b| {
        let q = workloads::graph_query(&tight::g_k(3));
        b.iter(|| {
            let rep = all_approximations(&q, &TwK(1), &ApproxOptions::default());
            assert_eq!(rep.approximations.len(), 1);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tight);
criterion_main!(benches);
