//! Figures 3–5: building and verifying the exponential family of
//! Proposition 4.4 (construction, fold incomparability, core checks).

use cqapx_gadgets::prop44;
use cqapx_structures::{core_ops, HomProblem, Pointed};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_prop44(c: &mut Criterion) {
    let mut group = c.benchmark_group("prop44");
    group.sample_size(10);

    group.bench_function("build_G3", |b| b.iter(|| prop44::g_n(3).0.n()));

    group.bench_function("claim_4_6_incomparable", |b| {
        let dac = prop44::digraph_d_ac().to_structure();
        let dbd = prop44::digraph_d_bd().to_structure();
        b.iter(|| {
            assert!(!HomProblem::new(&dac, &dbd).exists());
            assert!(!HomProblem::new(&dbd, &dac).exists());
        })
    });

    group.bench_function("core_check_D_ac", |b| {
        let dac = Pointed::boolean(prop44::digraph_d_ac().to_structure());
        b.iter(|| assert!(core_ops::is_core(&dac)))
    });

    for n in 1..=2usize {
        group.bench_with_input(BenchmarkId::new("fold_family", n), &n, |b, &n| {
            let words = prop44::all_words(n);
            b.iter(|| {
                let folds: Vec<_> = words
                    .iter()
                    .map(|w| prop44::g_n_s(w).to_structure())
                    .collect();
                for (i, a) in folds.iter().enumerate() {
                    for (j, bb) in folds.iter().enumerate() {
                        if i != j {
                            assert!(!HomProblem::new(a, bb).exists());
                        }
                    }
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_prop44);
criterion_main!(benches);
