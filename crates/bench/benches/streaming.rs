//! E11: incremental (streaming) evaluation vs per-append batch
//! re-evaluation — the runtime-monitoring ablation.
//!
//! The paper motivates log queries for monitoring current executions; a
//! monitor that re-evaluates the whole log after every append pays
//! `O(n · eval(n))`, while the streaming evaluator pays only for new
//! incidents. This bench measures a full replay of a simulated clinic log
//! both ways.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wlq_engine::{Query, StreamingEvaluator};
use wlq_log::Log;
use wlq_pattern::Pattern;
use wlq_workflow::{scenarios, simulate, SimulationConfig};

fn replay_streaming(log: &Log, pattern: &Pattern) -> usize {
    let mut stream = StreamingEvaluator::new(pattern.clone());
    let mut total = 0;
    for record in log.iter() {
        total += stream.append(record).expect("valid log").len();
    }
    total
}

fn replay_batch(log: &Log, pattern: &Pattern) -> usize {
    // Re-evaluate the growing prefix after every append, as a naive
    // monitor would.
    let query = Query::new(pattern.clone());
    let mut last = 0;
    for lsn in 1..=log.len() as u64 {
        let prefix = log.prefix(wlq_log::Lsn(lsn)).expect("nonempty prefix");
        last = query.count(&prefix).expect("one worker counts");
    }
    last
}

fn bench_monitoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_streaming");
    group.sample_size(10);
    let pattern: Pattern = "UpdateRefer -> GetReimburse".parse().unwrap();
    for instances in [10usize, 20, 40] {
        let log = simulate(
            &scenarios::clinic::model(),
            &SimulationConfig::new(instances, 5),
        );
        group.bench_with_input(BenchmarkId::new("streaming", instances), &log, |b, log| {
            b.iter(|| black_box(replay_streaming(log, &pattern)))
        });
        group.bench_with_input(
            BenchmarkId::new("batch_per_append", instances),
            &log,
            |b, log| b.iter(|| black_box(replay_batch(log, &pattern))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_monitoring);
criterion_main!(benches);
