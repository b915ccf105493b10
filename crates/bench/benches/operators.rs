//! E3–E6: Lemma 1 per-operator complexity shapes.
//!
//! Each group sweeps one operator's driving parameter (`n` for ⊙/→, the
//! incident width `k` for ⊗/⊕) so the Criterion report exposes the growth
//! curve the paper claims.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wlq_bench::{common_tail_incidents, shared_prefix_incidents, singleton_incidents};
use wlq_engine::naive;

/// E3: consecutive, time O(n1·n2).
fn bench_consecutive(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_consecutive");
    group.sample_size(20);
    for n in [64usize, 128, 256, 512] {
        let left = singleton_incidents(n, 2, 2);
        let right = singleton_incidents(n, 3, 2);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| black_box(naive::consecutive_eval(&left, &right)));
        });
    }
    group.finish();
}

/// E4: sequential, time O(n1·n2) (output-bound: all pairs match).
fn bench_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_sequential");
    group.sample_size(10);
    for n in [64usize, 128, 256, 512] {
        let left = singleton_incidents(n, 2, 1);
        let right = singleton_incidents(n, 2 + n as u32, 1);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| black_box(naive::sequential_eval(&left, &right)));
        });
    }
    group.finish();
}

/// E5: choice, printed variant time O(n1·n2·min(k1,k2)); union variant for
/// contrast.
fn bench_choice(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_choice");
    group.sample_size(15);
    let n = 256;
    for k in [2usize, 8, 32] {
        let left = shared_prefix_incidents(n, k);
        let right = left.clone();
        group.bench_with_input(BenchmarkId::new("printed", k), &k, |b, _| {
            b.iter(|| black_box(naive::choice_eval_as_printed(&left, &right)));
        });
        group.bench_with_input(BenchmarkId::new("union", k), &k, |b, _| {
            b.iter(|| black_box(naive::choice_eval(&left, &right)));
        });
    }
    group.finish();
}

/// E6: parallel, time O(n1·n2·(k1+k2)) with overlapping ranges.
fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_parallel");
    group.sample_size(10);
    let n = 128;
    for k in [2usize, 8, 32] {
        let left = common_tail_incidents(n, k);
        let right = left.clone();
        group.bench_with_input(BenchmarkId::new("naive", k), &k, |b, _| {
            b.iter(|| black_box(naive::parallel_eval(&left, &right)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_consecutive,
    bench_sequential,
    bench_choice,
    bench_parallel
);
criterion_main!(benches);
