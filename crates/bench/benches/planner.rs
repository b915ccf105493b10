//! Cost-based planning across log shapes (`Strategy::Planned`, the
//! default):
//!
//! * **`sequential_pairlog`** — the adversarial `A -> B` pair log: one
//!   wide `→` join whose binary-search kernel emits `Θ(n1·n2)` unions
//!   into the root batch kept as the answer.
//! * **`dense`/`sparse`/`skewed` logs** — generator workloads where the
//!   planner's rewrite choice has to not regress across log shapes.
//! * **`plan_count`** — `count()` on chains, where the planner routes to
//!   the enumeration-free DP.
//!
//! Planning overhead itself is measured by `plan_only`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wlq_engine::{Evaluator, Planner, Strategy};
use wlq_log::Log;
use wlq_pattern::Pattern;
use wlq_workflow::generator;

/// Evaluate one pattern on one log under the planner.
fn bench_eval_case(
    group: &mut criterion::BenchmarkGroup<'_>,
    log: &Log,
    src: &str,
    param: impl std::fmt::Display,
) {
    let p: Pattern = src.parse().unwrap();
    let eval = Evaluator::with_strategy(log, Strategy::Planned);
    group.bench_with_input(BenchmarkId::new("planned", &param), &p, |b, p| {
        b.iter(|| black_box(eval.evaluate(p)));
    });
}

/// The adversarial fixture: n A's then n B's, `A -> B` (~n²/2 out).
fn bench_sequential_pairlog(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequential_pairlog");
    group.sample_size(10);
    for n in [500usize, 2000] {
        let log = generator::pair_log("A", n, "B", n, true);
        bench_eval_case(&mut group, &log, "A -> B", n);
    }
    group.finish();
}

/// Uniform logs: every activity equally likely (dense postings).
fn bench_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_dense");
    group.sample_size(10);
    let log = generator::uniform_log(50, 80, 4, 7);
    for (name, src) in [
        ("seq_chain", "A -> B -> C"),
        ("mixed", "(A ~> B) | (C -> D)"),
        ("parallel", "A & D"),
    ] {
        bench_eval_case(&mut group, &log, src, name);
    }
    group.finish();
}

/// Sparse logs: a large alphabet thins each activity's postings.
fn bench_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_sparse");
    group.sample_size(10);
    let log = generator::uniform_log(50, 80, 26, 11);
    for (name, src) in [
        ("seq_chain", "A -> B -> C"),
        ("choice_of_seqs", "(A -> B) | (A -> C)"),
    ] {
        bench_eval_case(&mut group, &log, src, name);
    }
    group.finish();
}

/// Skewed logs: Zipf-ish activity frequencies, where per-instance posting
/// maxima diverge from whole-log means.
fn bench_skewed(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_skewed");
    group.sample_size(10);
    let log = generator::skewed_log(50, 80, 8, 13);
    for (name, src) in [
        ("hot_hot", "A -> B"),
        ("hot_cold", "A -> H"),
        ("cold_hot", "H -> A"),
    ] {
        bench_eval_case(&mut group, &log, src, name);
    }
    group.finish();
}

/// Counting on chains: the planner routes to the enumeration-free DP.
fn bench_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_count");
    group.sample_size(10);
    for n in [500usize, 2000] {
        let log = generator::pair_log("A", n, "B", n, true);
        let p: Pattern = "A -> B".parse().unwrap();
        let eval = Evaluator::with_strategy(&log, Strategy::Planned);
        group.bench_with_input(BenchmarkId::new("planned", n), &p, |b, p| {
            b.iter(|| black_box(eval.count(p)));
        });
    }
    group.finish();
}

/// Planning overhead alone: candidate enumeration + costing + operator
/// selection, no execution.
fn bench_plan_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_only");
    group.sample_size(10);
    let log = generator::uniform_log(50, 80, 8, 17);
    let planner = Planner::from_log(&log);
    for (name, src) in [
        ("atom", "A"),
        ("chain4", "A -> B -> C -> D"),
        ("choice_of_seqs", "(A -> B) | (A -> C) | (A ~> D)"),
    ] {
        let p: Pattern = src.parse().unwrap();
        group.bench_with_input(BenchmarkId::new(name, "plan"), &p, |b, p| {
            b.iter(|| black_box(planner.plan(p).cost()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sequential_pairlog,
    bench_dense,
    bench_sparse,
    bench_skewed,
    bench_count,
    bench_plan_only
);
criterion_main!(benches);
