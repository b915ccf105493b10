//! The load pass per format: `read_text`, `read_binary` and `read_csv`
//! of one encoded clinic log, and `Log::new` of its records; then the
//! same log in two shapes that the binary decoder's table of recent
//! activity names and the usual text layout do not serve.
//!
//! The log is `wlq simulate clinic 2000 7` (18 671 records), generated
//! and encoded once, untimed. Each routine decodes the same bytes and
//! drops the log it made, so a sample is one whole load: interning,
//! head parsing, map checks and the Definition 2 pass. Before timing,
//! every decoder's log is checked to equal the generated one.
//!
//! `decode_names48` is that log with every task renamed to one of 48
//! names that share one slot of the table (one length, one first and
//! one last eight bytes), the next record's name never the last one's:
//! every binary record misses the table and goes to the hash table.
//! `decode_tabs` is the clinic text with every field padded by tabs
//! instead of spaces.
//!
//! Run with `cargo bench -p wlq-bench --bench decode`; `-- --test` runs
//! each routine once, untimed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use wlq_log::io::{binary, csv, text};
use wlq_log::{Log, LogRecord};
use wlq_workflow::{scenarios, simulate, SimulationConfig};

fn clinic() -> Log {
    simulate(&scenarios::clinic::model(), &SimulationConfig::new(2000, 7))
}

/// [`clinic`] with each task named `Activity<NN>OfTheLog` by its lsn
/// modulo 48.
fn names48(log: &Log) -> Log {
    let records = log
        .records()
        .iter()
        .map(|r| {
            let name = match r.activity().as_str() {
                "START" | "END" => r.activity().as_str().to_string(),
                _ => format!("Activity{:02}OfTheLog", r.lsn().get() % 48),
            };
            LogRecord::new(
                r.lsn(),
                r.wid(),
                r.is_lsn(),
                name,
                r.input().clone(),
                r.output().clone(),
            )
        })
        .collect();
    Log::new(records).unwrap()
}

fn bench_decode(c: &mut Criterion) {
    let log = clinic();
    let txt = text::write_text(&log);
    let bin = binary::write_binary(&log);
    let comma = csv::write_csv(&log);
    let records = log.records().to_vec();
    assert_eq!(text::read_text(&txt).unwrap(), log);
    assert_eq!(binary::read_binary(bin.clone()).unwrap(), log);
    assert_eq!(csv::read_csv(&comma).unwrap(), log);
    assert_eq!(Log::new(records.clone()).unwrap(), log);

    let mut group = c.benchmark_group("decode_clinic2000");
    group.sample_size(30);
    group.bench_function("read_text", |b| {
        b.iter(|| black_box(text::read_text(&txt).unwrap()).len())
    });
    // `read_binary` takes its buffer by value, so each sample copies the
    // input first; `clone_binary` times that copy alone.
    group.bench_function("read_binary", |b| {
        b.iter(|| black_box(binary::read_binary(bin.clone()).unwrap()).len())
    });
    group.bench_function("clone_binary", |b| b.iter(|| black_box(bin.clone()).len()));
    group.bench_function("read_csv", |b| {
        b.iter(|| black_box(csv::read_csv(&comma).unwrap()).len())
    });
    // `Log::new` consumes its records, so the copy it gets is part of
    // each sample; `clone_records` times that copy alone.
    group.bench_function("log_new", |b| {
        b.iter(|| black_box(Log::new(records.clone()).unwrap()).len())
    });
    group.bench_function("clone_records", |b| {
        b.iter(|| black_box(records.clone()).len())
    });
    group.finish();

    let renamed = names48(&log);
    let txt48 = text::write_text(&renamed);
    let bin48 = binary::write_binary(&renamed);
    assert_eq!(text::read_text(&txt48).unwrap(), renamed);
    assert_eq!(binary::read_binary(bin48.clone()).unwrap(), renamed);
    let mut group = c.benchmark_group("decode_names48");
    group.sample_size(30);
    group.bench_function("read_text", |b| {
        b.iter(|| black_box(text::read_text(&txt48).unwrap()).len())
    });
    group.bench_function("read_binary", |b| {
        b.iter(|| black_box(binary::read_binary(bin48.clone()).unwrap()).len())
    });
    group.finish();

    let tabs = txt.replace(" | ", "\t|\t");
    assert_eq!(text::read_text(&tabs).unwrap(), log);
    let mut group = c.benchmark_group("decode_tabs");
    group.sample_size(30);
    group.bench_function("read_text", |b| {
        b.iter(|| black_box(text::read_text(&tabs).unwrap()).len())
    });
    group.finish();
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
