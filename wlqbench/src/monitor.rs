//! `clinic_monitor`: replay a log record by record, in lsn order, into
//! four standing `StreamingEvaluator`s. One sample is one record appended
//! to all four.

use std::time::{Duration, Instant};

use wlq_engine::StreamingEvaluator;
use wlq_log::LogRecord;
use wlq_pattern::Pattern;

use crate::inputs::{self, Format, Source};
use crate::mix::{self, Answer, Expected, MONITOR_RULES};
use crate::report::{RunResult, TraceFacts};
use crate::stats::{median, quantile};
use crate::{alloc, finish_trace, host, more_setups, trace, Params, Tally, SPAN_CAPACITY};

/// In a traced run, one sample in this many is traced; the others give
/// the untraced latency the tracing overhead is measured against.
const TRACE_EVERY: usize = 64;
/// Most replays a run times; a replay of the 2 000-instance clinic log
/// takes ~0.1 s.
const MAX_TIMED_REPLAYS: usize = 400;

pub fn standing(rules: &[Pattern]) -> Vec<StreamingEvaluator> {
    rules.iter().cloned().map(StreamingEvaluator::new).collect()
}

/// One sample: `record` appended to every standing evaluator, adding the
/// incidents each fires to `fired`. Returns how many appends failed.
pub fn sample(
    record: &LogRecord,
    evaluators: &mut [StreamingEvaluator],
    fired: &mut [usize],
) -> u64 {
    let _root = trace::root(trace::OP);
    let mut errors = 0;
    for (evaluator, fired) in evaluators.iter_mut().zip(fired) {
        let appended = mix::guarded(|| {
            trace::span("streaming.append", || evaluator.append(record)).map_err(|e| e.to_string())
        });
        match appended {
            Ok(new) => *fired += new.len(),
            Err(_) => errors += 1,
        }
    }
    errors
}

pub fn run(p: &Params, source: Source) -> Result<RunResult, String> {
    let mut files = source
        .files(p.seed, &[Format::Bin])
        .map_err(|e| e.to_string())?;
    let path = files.remove(0);
    // Each rule's final streamed set must equal its batch result.
    let (expected, records) = {
        let log = inputs::read_log(&path, Format::Bin)?;
        (mix::reference(&log, MONITOR_RULES)?, log.len())
    };
    let mut facts = TraceFacts {
        records,
        ..TraceFacts::default()
    };

    if p.trace {
        trace::start(SPAN_CAPACITY);
    }
    // A slot is a record's position in the log; a round is a replay.
    let mut tally = Tally::new(records, MAX_TIMED_REPLAYS);
    let mut speed = host::Speed::new();
    let base = alloc::reset_peak();
    let mut setup_s = Vec::new();
    let (log, rules, mut evaluators) = loop {
        let last = !more_setups(&setup_s);
        let _root = trace::root(trace::SETUP);
        let before = speed.factor();
        let start = Instant::now();
        let log = inputs::read_log(&path, Format::Bin)?;
        let rules = MONITOR_RULES
            .iter()
            .map(|q| trace::span("pattern.parse", || mix::parse(q.src)))
            .collect::<Result<Vec<_>, _>>()?;
        let evaluators = standing(&rules);
        setup_s.push(speed.scale(before, start.elapsed().as_secs_f64()));
        if last {
            break (log, rules, evaluators);
        }
        drop(evaluators);
        trace::span("log.drop", || drop(log));
    };

    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    // Whole replays repeat until the deadline, so every run samples each
    // stage of the replay alike, and every replay is checked.
    for replay in 0..MAX_TIMED_REPLAYS {
        let live_before = alloc::live();
        let mut fired = vec![0usize; rules.len()];
        let mut errors = 0u64;
        for (i, record) in log.iter().enumerate() {
            let traced = p.trace && i % TRACE_EVERY == 0;
            trace::set_active(traced);
            // Latencies are scaled to nominal host speed, as in
            // `closed_loop`.
            let before = speed.factor();
            let start = Instant::now();
            errors += sample(record, &mut evaluators, &mut fired);
            if !traced {
                let seconds = start.elapsed().as_secs_f64();
                let seconds = if p.trace {
                    seconds
                } else {
                    speed.scale(before, seconds)
                };
                tally.record(i, seconds);
            }
        }
        trace::set_active(false);
        if replay == 0 {
            facts.streaming_heap_per_record =
                (alloc::live() as f64 - live_before as f64) / records.max(1) as f64;
        }
        let right = evaluators
            .iter()
            .zip(&fired)
            .zip(&expected)
            .all(|((evaluator, &fired), expected)| matches(evaluator, fired, expected));
        tally.count(records as u64, if right { errors } else { records as u64 });
        if Instant::now() >= deadline {
            break;
        }
        drop(evaluators);
        evaluators = standing(&rules);
    }
    let peak_mb = alloc::peak_mb_above(base);

    let mut result = tally.result();
    if p.trace {
        facts.untraced_op_ns = tally.mean_ns();
        finish_trace(&mut result, "clinic_monitor", &facts)?;
        return Ok(result);
    }
    result.set("setup_s", median(&setup_s));
    tally.report(&mut result, 1);
    result.set("peak_heap_mb", peak_mb);
    let pooled: Vec<f64> = tally.per_slot.iter().flatten().copied().collect();
    result.note(format!(
        "append_p50_us {:.4} us  append_p99_us {:.4} us  ({} replays of {records} records, {} rules)",
        median(&pooled) * 1e6,
        quantile(&pooled, 0.99) * 1e6,
        pooled.len() / records.max(1),
        rules.len()
    ));
    Ok(result)
}

/// Whether a rule's streamed set equals the batch result, with the
/// per-append fired counts summing to its size.
fn matches(evaluator: &StreamingEvaluator, fired: usize, expected: &Expected) -> bool {
    fired == expected.incidents && Answer::of_set(&evaluator.incidents()) == expected.answer
}
