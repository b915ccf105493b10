//! E7: Theorem 1's worst-case pattern family `((t ⊕ t) ⊕ t)…` on a
//! single-instance, single-activity log — evaluation time explodes with
//! the operator count `k` and grows polynomially (degree ≈ k+1) in the
//! log size `m`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wlq_engine::{Query, Strategy};
use wlq_pattern::theorem1_worst_case;
use wlq_workflow::generator::worst_case_log;

fn bench_vary_m(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_theorem1_vary_m");
    group.sample_size(10);
    let k = 2;
    let query = Query::new(theorem1_worst_case("t", k)).strategy(Strategy::NaivePaper);
    for m in [8usize, 16, 32] {
        let log = worst_case_log("t", m);
        group.bench_with_input(BenchmarkId::new(format!("k{k}"), m), &m, |b, _| {
            b.iter(|| black_box(query.count(&log)));
        });
    }
    group.finish();
}

fn bench_vary_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_theorem1_vary_k");
    group.sample_size(10);
    let m = 16;
    let log = worst_case_log("t", m);
    for k in [1usize, 2, 3] {
        let query = Query::new(theorem1_worst_case("t", k)).strategy(Strategy::NaivePaper);
        group.bench_with_input(BenchmarkId::new(format!("m{m}"), k), &k, |b, _| {
            b.iter(|| black_box(query.count(&log)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vary_m, bench_vary_k);
criterion_main!(benches);
