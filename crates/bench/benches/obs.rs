//! Profiling-off overhead check for the execution profiler.
//!
//! The `wlq-obs` design promise is that profiling costs nothing unless a
//! profiled entry point runs: there is one executor, and unprofiled calls
//! pass it a no-op probe that compiles away. These groups make that claim
//! measurable:
//!
//! * **`unprofiled_pairlog`** — `Query::find` under the default
//!   planned strategy on the `A -> B` pair log, the workload
//!   `sequential_pairlog/planned` times in `BENCH_planner.json` plus one
//!   plan per call. These numbers must stay within noise of that
//!   baseline.
//! * **`profiled_pairlog`** — the same workload through
//!   `Query::profile`, quantifying what turning the
//!   profiler *on* costs (timer reads and counter accumulation per node
//!   per instance).
//! * **`profiled_generator`** — profiling overhead on a branchy
//!   generator log where per-node bookkeeping is a larger fraction of
//!   the work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wlq_engine::Query;
use wlq_workflow::generator;

/// The planner bench's regression fixture: n A's then n B's, `A -> B`.
fn bench_pairlog(c: &mut Criterion) {
    let query = Query::parse("A -> B").unwrap();
    let mut group = c.benchmark_group("unprofiled_pairlog");
    group.sample_size(10);
    for n in [500usize, 2000] {
        let log = generator::pair_log("A", n, "B", n, true);
        group.bench_with_input(BenchmarkId::new("planned", n), &query, |b, q| {
            b.iter(|| black_box(q.find(&log).unwrap()));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("profiled_pairlog");
    group.sample_size(10);
    for n in [500usize, 2000] {
        let log = generator::pair_log("A", n, "B", n, true);
        group.bench_with_input(BenchmarkId::new("planned", n), &query, |b, q| {
            b.iter(|| black_box(q.profile(&log).unwrap()));
        });
    }
    group.finish();
}

/// Profiling on a branchy multi-operator pattern over a generator log.
fn bench_generator(c: &mut Criterion) {
    let log = generator::uniform_log(200, 40, 8, 0xB0B);
    let query = Query::parse("(T0 ~> T1) -> (T2 | T3)").unwrap();
    let mut group = c.benchmark_group("profiled_generator");
    group.sample_size(10);
    group.bench_function("unprofiled", |b| {
        b.iter(|| black_box(query.find(&log).unwrap()));
    });
    group.bench_function("profiled", |b| {
        b.iter(|| black_box(query.profile(&log).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_pairlog, bench_generator);
criterion_main!(benches);
