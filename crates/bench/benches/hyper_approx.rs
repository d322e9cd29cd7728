//! Section 6: hypergraph-based approximation costs (Example 6.6
//! recovery, hypertree-width membership checks, repair search).

use cqapx_core::{all_approximations, Acyclic, ApproxOptions, HtwK, QueryClass};
use cqapx_cq::{parse_cq, tableau_of};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_hyper(c: &mut Criterion) {
    let mut group = c.benchmark_group("hyper_approx");
    group.sample_size(10);
    let q66 = parse_cq("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)").unwrap();

    group.bench_function("example_66_acyclic", |b| {
        b.iter(|| {
            let rep = all_approximations(&q66, &Acyclic, &ApproxOptions::default());
            assert_eq!(rep.approximations.len(), 3);
        })
    });

    group.bench_function("example_66_htw2_membership", |b| {
        let t = tableau_of(&q66);
        b.iter(|| assert!(HtwK(2).contains_tableau(&t)))
    });

    let intro = parse_cq("Q() :- R(x,u,y), R(y,v,z), R(z,w,x)").unwrap();
    group.bench_function("intro_ternary_acyclic", |b| {
        b.iter(|| all_approximations(&intro, &Acyclic, &ApproxOptions::default()).approximations)
    });
    group.finish();
}

criterion_group!(benches, bench_hyper);
criterion_main!(benches);
