//! Hom-engine microbenchmarks: the refactored solver vs the frozen seed
//! engine on the workloads of `exp_hom` (see `BENCH_hom.json` for the
//! tracked numbers).

use cqapx_bench::{baseline, workloads};
use cqapx_core::{all_approximations_tableaux, ApproxOptions, QueryClass, TwK};
use cqapx_cq::tableau_of;
use cqapx_structures::{core_of, HomProblem, HomSolver, Pointed};
use criterion::{criterion_group, criterion_main, Criterion};

fn cycle_union() -> Pointed {
    let mut g = cqapx_graphs::Digraph::cycle(3).to_structure();
    for k in [6usize, 9, 12] {
        g = g.disjoint_union(&cqapx_graphs::Digraph::cycle(k).to_structure());
    }
    Pointed::boolean(g)
}

fn bench_hom_checks(c: &mut Criterion) {
    let mut group = c.benchmark_group("hom_engine");
    group.sample_size(10);
    let pij = cqapx_gadgets::dp::p_ij(2, 5).to_digraph().to_structure();
    let paths: Vec<_> = (1..=7)
        .map(|i| cqapx_gadgets::dp::p_i(i).to_digraph().to_structure())
        .collect();
    group.bench_function("seed_engine/p25_row", |b| {
        b.iter(|| {
            paths
                .iter()
                .filter(|p| baseline::BaselineHom::new(&pij, p).exists())
                .count()
        })
    });
    group.bench_function("one_shot/p25_row", |b| {
        b.iter(|| {
            paths
                .iter()
                .filter(|p| HomProblem::new(&pij, p).exists())
                .count()
        })
    });
    group.bench_function("compiled/p25_row", |b| {
        b.iter(|| {
            let solver = HomSolver::compile(&pij);
            paths.iter().filter(|p| solver.run(p).exists()).count()
        })
    });
    group.finish();
}

fn bench_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("core");
    group.sample_size(10);
    let p = cycle_union();
    group.bench_function("seed_engine/cycle_union", |b| {
        b.iter(|| baseline::baseline_core_of(&p).structure.universe_size())
    });
    group.bench_function("solver/cycle_union", |b| {
        b.iter(|| core_of(&p).core.structure.universe_size())
    });
    group.finish();
}

fn bench_approx(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx_search");
    group.sample_size(10);
    let t = tableau_of(&workloads::random_cyclic_query(8, 0));
    let in_class = |qt: &Pointed| TwK(1).contains_tableau(qt);
    group.bench_function("seed_engine/random8_tw1", |b| {
        b.iter(|| baseline::baseline_all_approximations_tableaux(&t, &in_class, u64::MAX).len())
    });
    group.bench_function("pruned_antichain/random8_tw1", |b| {
        b.iter(|| {
            all_approximations_tableaux(&t, &TwK(1), &ApproxOptions::default())
                .0
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hom_checks, bench_core, bench_approx);
criterion_main!(benches);
