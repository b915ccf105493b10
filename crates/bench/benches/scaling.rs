//! E10: evaluation scaling with log size and with per-instance
//! parallelism (the engine's worker pool of `std::thread::scope`
//! threads).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wlq_engine::Evaluator;
use wlq_pattern::Pattern;
use wlq_workflow::{scenarios, simulate, SimulationConfig};

fn bench_log_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_log_size");
    group.sample_size(10);
    let p: Pattern = "SeeDoctor -> (UpdateRefer -> GetReimburse)"
        .parse()
        .unwrap();
    for instances in [100usize, 400, 1600] {
        let log = simulate(
            &scenarios::clinic::model(),
            &SimulationConfig::new(instances, 11),
        );
        let eval = Evaluator::new(&log);
        group.bench_with_input(BenchmarkId::from_parameter(instances), &p, |b, p| {
            b.iter(|| black_box(eval.evaluate(p)));
        });
    }
    group.finish();
}

fn bench_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_threads");
    group.sample_size(10);
    let p: Pattern = "T0 ~> T1".parse().unwrap();
    let log = wlq_workflow::generator::uniform_log(64, 2000, 5, 13);
    let eval = Evaluator::with_strategy(&log, wlq_engine::Strategy::NaivePaper);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &p, |b, p| {
            b.iter(|| black_box(eval.evaluate_parallel(p, threads)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_log_size, bench_threads);
criterion_main!(benches);
