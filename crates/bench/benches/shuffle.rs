//! RDD shuffle micro-benchmark: reduce_by_key and the statistics of a PDE
//! pre-shuffle (the substrate behind Figures 5, 7 and 13).
use criterion::{criterion_group, criterion_main, Criterion};
use shark_rdd::RddContext;

fn bench_shuffle(c: &mut Criterion) {
    let mut g = c.benchmark_group("shuffle");
    g.sample_size(shark_bench::samples(10));
    g.bench_function("reduce_by_key_50k", |b| {
        b.iter(|| {
            let ctx = RddContext::local();
            let n = shark_bench::scaled(50_000) as i64;
            let rdd = ctx.parallelize((0i64..n).collect(), 16);
            rdd.map(|x| (x % 1000, 1i64))
                .reduce_by_key(16, |a, b| a + b)
                .collect()
                .unwrap()
        })
    });
    g.bench_function("pre_shuffle_statistics_50k", |b| {
        b.iter(|| {
            let ctx = RddContext::local();
            let n = shark_bench::scaled(50_000) as i64;
            let rdd = ctx.parallelize((0i64..n).collect(), 16);
            let pre = rdd.map(|x| (x % 1000, x)).shuffle(64).run().unwrap();
            pre.summary().skew_factor()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_shuffle);
criterion_main!(benches);
