//! Figure 1: time to compute approximations per class, over the
//! paper-derived query suite.

use cqapx_bench::workloads;
use cqapx_core::{all_approximations, Acyclic, ApproxOptions, HtwK, QueryClass, TwK};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_fig1(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_summary");
    group.sample_size(10);
    let opts = ApproxOptions::default();
    for (name, q) in workloads::fig1_suite() {
        let classes: Vec<(&str, Box<dyn QueryClass>)> = vec![
            ("TW1", Box::new(TwK(1))),
            ("TW2", Box::new(TwK(2))),
            ("AC", Box::new(Acyclic)),
            ("HTW2", Box::new(HtwK(2))),
        ];
        for (cname, class) in classes {
            group.bench_function(format!("{name}/{cname}"), |b| {
                b.iter(|| {
                    let rep = all_approximations(&q, class.as_ref(), &opts);
                    assert!(!rep.approximations.is_empty());
                    rep.approximations.len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
