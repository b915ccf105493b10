//! E9: rewrite ablation — patterns as written vs the planner's chosen
//! tree (choice factoring, chain re-parenthesisation, commutative
//! reordering) on a selectivity-skewed log. Both trees run the paper's
//! operators: the planned strategy would re-plan either tree itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wlq_engine::{Evaluator, Planner, Strategy};
use wlq_pattern::Pattern;
use wlq_workflow::generator::skewed_log;

fn bench_rewrites(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_rewrite");
    group.sample_size(10);
    let log = skewed_log(40, 120, 8, 7);
    let planner = Planner::from_log(&log);
    let eval = Evaluator::with_strategy(&log, Strategy::NaivePaper);

    let cases = [
        ("skewed_chain", "T0 -> T1 -> T5 -> T6"),
        (
            "shared_prefix_choice",
            "(T0 -> T1 -> T6) | (T0 -> T1 -> T7)",
        ),
        ("parallel_choice", "(T0 & T6) | (T0 & T7)"),
        ("commutative_chain", "T0 & T1 & T6"),
    ];
    for (name, src) in cases {
        let p: Pattern = src.parse().unwrap();
        let planned = planner.plan(&p).pattern().clone();
        assert_eq!(eval.evaluate(&p), eval.evaluate(&planned));
        group.bench_with_input(BenchmarkId::new("as_written", name), &p, |b, p| {
            b.iter(|| black_box(eval.evaluate(p)));
        });
        group.bench_with_input(BenchmarkId::new("planned", name), &planned, |b, p| {
            b.iter(|| black_box(eval.evaluate(p)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rewrites);
criterion_main!(benches);
