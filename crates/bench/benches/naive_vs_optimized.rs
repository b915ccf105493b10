//! E8: the paper's Algorithm 1 operators vs the default planned
//! evaluation (cost-based rewrites over the flat batch kernels), on
//! realistic (simulated clinic) and adversarial (pair-log) workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wlq_engine::{Evaluator, Strategy};
use wlq_pattern::Pattern;
use wlq_workflow::{generator, scenarios, simulate, SimulationConfig};

fn bench_clinic_patterns(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_clinic");
    group.sample_size(10);
    let log = simulate(&scenarios::clinic::model(), &SimulationConfig::new(400, 5));
    let patterns = [
        ("selective_seq", "UpdateRefer -> GetReimburse"),
        ("consecutive", "GetRefer ~> CheckIn"),
        ("three_chain", "SeeDoctor -> PayTreatment -> GetReimburse"),
        ("choice", "UpdateRefer | CompleteRefer"),
    ];
    for (name, src) in patterns {
        let p: Pattern = src.parse().unwrap();
        group.bench_with_input(BenchmarkId::new("naive", name), &p, |b, p| {
            let eval = Evaluator::with_strategy(&log, Strategy::NaivePaper);
            b.iter(|| black_box(eval.evaluate(p)));
        });
        group.bench_with_input(BenchmarkId::new("planned", name), &p, |b, p| {
            let eval = Evaluator::with_strategy(&log, Strategy::Planned);
            b.iter(|| black_box(eval.evaluate(p)));
        });
    }
    group.finish();
}

fn bench_adversarial_consecutive(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_adversarial");
    group.sample_size(10);
    for n in [500usize, 1000, 2000] {
        let log = generator::pair_log("A", n, "B", n, true);
        let p: Pattern = "A ~> B".parse().unwrap();
        group.bench_with_input(BenchmarkId::new("naive", n), &p, |b, p| {
            let eval = Evaluator::with_strategy(&log, Strategy::NaivePaper);
            b.iter(|| black_box(eval.evaluate(p)));
        });
        group.bench_with_input(BenchmarkId::new("planned", n), &p, |b, p| {
            let eval = Evaluator::with_strategy(&log, Strategy::Planned);
            b.iter(|| black_box(eval.evaluate(p)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_clinic_patterns,
    bench_adversarial_consecutive
);
criterion_main!(benches);
