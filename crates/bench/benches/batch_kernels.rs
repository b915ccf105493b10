//! The flat arena-backed kernels: [`wlq_engine::combine_batch_into`] over
//! prebuilt [`IncidentBatch`] inputs with a recycled output batch (exactly
//! how the evaluator drives the kernels). The join workloads (⊙/→) are
//! the ones the flat layout targets: unions become bump-appends into the
//! shared position pool and no per-incident `Vec` is ever allocated.
//! Whole-evaluator runs on the adversarial pair logs live in the
//! `planner` bench (`sequential_pairlog`, `plan_count`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wlq_engine::{combine_batch_into, Incident, IncidentBatch};
use wlq_log::{IsLsn, Wid};
use wlq_pattern::Op;

const WID: Wid = Wid(1);

/// Singleton incidents at `start, start + step, …` (`n` of them).
fn singletons(start: u32, step: u32, n: u32) -> Vec<Incident> {
    (0..n)
        .map(|i| Incident::singleton(WID, IsLsn(start + i * step)))
        .collect()
}

/// Width-2 incidents `{p, p + 1}` for `p = start, start + step, …`.
fn pairs(start: u32, step: u32, n: u32) -> Vec<Incident> {
    (0..n)
        .map(|i| {
            let p = start + i * step;
            Incident::from_positions(WID, vec![IsLsn(p), IsLsn(p + 1)])
        })
        .collect()
}

fn batch_of(incidents: &[Incident]) -> IncidentBatch {
    IncidentBatch::from_incidents(WID, incidents)
}

/// Benchmark one operator's kernel on one fixture pair.
fn bench_kernel_case(
    group: &mut criterion::BenchmarkGroup<'_>,
    op: Op,
    name: &str,
    left: &[Incident],
    right: &[Incident],
) {
    let (lb, rb) = (batch_of(left), batch_of(right));
    let mut out = IncidentBatch::new(WID);
    group.bench_with_input(BenchmarkId::new("batch", name), &(), |b, ()| {
        b.iter(|| {
            combine_batch_into(op, &lb, &rb, &mut out);
            black_box(out.len())
        });
    });
}

/// ⊙: every left incident chains into exactly one right incident.
fn bench_consecutive(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_consecutive");
    group.sample_size(10);
    for n in [256u32, 1024, 4096] {
        let left = singletons(0, 2, n);
        let right = singletons(1, 2, n);
        bench_kernel_case(
            &mut group,
            Op::Consecutive,
            &format!("dense_{n}"),
            &left,
            &right,
        );
    }
    group.finish();
}

/// →: all-pairs join, the quadratic worst case (~n²/2 output incidents).
fn bench_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_sequential");
    group.sample_size(10);
    for n in [64u32, 128, 256] {
        let left = singletons(0, 2, n);
        let right = singletons(1, 2, n);
        bench_kernel_case(
            &mut group,
            Op::Sequential,
            &format!("allpairs_{n}"),
            &left,
            &right,
        );
        let left = pairs(0, 4, n);
        let right = pairs(2, 4, n);
        bench_kernel_case(
            &mut group,
            Op::Sequential,
            &format!("width2_{n}"),
            &left,
            &right,
        );
    }
    group.finish();
}

/// ⊗: interleaved union — a linear merge.
fn bench_choice(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_choice");
    group.sample_size(10);
    for n in [1024u32, 4096] {
        let left = singletons(0, 2, n);
        let right = singletons(1, 2, n);
        bench_kernel_case(
            &mut group,
            Op::Choice,
            &format!("interleaved_{n}"),
            &left,
            &right,
        );
    }
    group.finish();
}

/// ⊕: disjoint all-pairs unions (the concat fast path) at modest sizes.
fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_parallel");
    group.sample_size(10);
    for n in [64u32, 128] {
        let left = pairs(0, 4, n);
        let right = pairs(2, 4, n);
        bench_kernel_case(
            &mut group,
            Op::Parallel,
            &format!("disjoint_{n}"),
            &left,
            &right,
        );
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
