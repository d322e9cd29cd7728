//! Theorem 4.12: gadget verification costs and the exponential
//! growth of the Graph Acyclic Approximation decision procedure.

use cqapx_gadgets::{decision, dp};
use cqapx_graphs::Digraph;
use cqapx_structures::HomProblem;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_gadgets");
    group.sample_size(10);

    group.bench_function("build_big_T", |b| b.iter(|| dp::big_t().g.n()));

    group.bench_function("claim_8_3_unique_hom", |b| {
        let q = dp::q_star().g.to_structure();
        let t1 = dp::t_i(1).g.to_structure();
        b.iter(|| assert_eq!(HomProblem::new(&q, &t1).count(Some(2)), 1))
    });

    group.bench_function("claim_8_9_chooser_table_21", |b| {
        let t = dp::big_t();
        let g = dp::choosers::extended_chooser_21();
        b.iter(|| dp::choosers::pair_table(&g, &t))
    });

    for k in [2usize, 3, 4] {
        group.bench_with_input(
            BenchmarkId::new("graph_acyclic_approximation_C2k", 2 * k),
            &k,
            |b, &k| {
                let cyc = Digraph::cycle(2 * k);
                let k2 = Digraph::from_edges(2, &[(0, 1), (1, 0)]);
                b.iter(|| {
                    assert_eq!(
                        decision::graph_acyclic_approximation(&cyc, &k2, u64::MAX),
                        Some(true)
                    )
                })
            },
        );
    }

    group.bench_function("exact_acyclic_homomorphism_G3_P4", |b| {
        let g3 = cqapx_gadgets::tight::g_k(3);
        let p4 = Digraph::directed_path(4);
        b.iter(|| decision::exact_acyclic_homomorphism(&g3, &p4))
    });
    group.finish();
}

criterion_group!(benches, bench_dp);
criterion_main!(benches);
