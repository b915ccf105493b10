//! `clinic_session` and `wide_instances`: load one binary log and build
//! one `Evaluator` at set-up, then loop a query mix against it.

use std::time::{Duration, Instant};

use wlq_engine::Evaluator;
use wlq_log::LogStats;

use crate::inputs::{self, Format, Source};
use crate::mix::{self, Expected, Kind, Outcome, Q};
use crate::report::{RunResult, TraceFacts};
use crate::stats::median;
use crate::{
    alloc, closed_loop, finish_trace, host, more_setups, probe, trace, Params, SPAN_CAPACITY,
};

pub fn run(p: &Params, source: Source, name: &str, mix: &[Q]) -> Result<RunResult, String> {
    let mut files = source
        .files(p.seed, &[Format::Bin])
        .map_err(|e| e.to_string())?;
    let path = files.remove(0);
    let (expected, records) = {
        let log = inputs::read_log(&path, Format::Bin)?;
        (mix::reference(&log, mix)?, log.len())
    };
    let mut facts = TraceFacts {
        records,
        ..TraceFacts::default()
    };

    if p.trace {
        trace::start(SPAN_CAPACITY);
    }
    let mut speed = host::Speed::new();
    let base = alloc::reset_peak();
    // Set-up is repeated; every repetition but the last is dropped again
    // (outside the timing) before the next one starts.
    let mut setup_s = Vec::new();
    while more_setups(&setup_s) {
        let _root = trace::root(trace::SETUP);
        let before = speed.factor();
        let start = Instant::now();
        let log = inputs::read_log(&path, Format::Bin)?;
        let eval = trace::span("eval.new", || Evaluator::new(&log));
        setup_s.push(speed.scale(before, start.elapsed().as_secs_f64()));
        drop(eval);
        trace::span("log.drop", || drop(log));
    }
    let root = trace::root(trace::SETUP);
    let before = speed.factor();
    let start = Instant::now();
    let log = inputs::read_log(&path, Format::Bin)?;
    let eval = trace::span("eval.new", || Evaluator::new(&log));
    setup_s.push(speed.scale(before, start.elapsed().as_secs_f64()));
    let stats = trace::recording().then(|| probe::rebuilds(&log, false).0);
    drop(root);

    let tally = closed_loop(p, mix.len(), |i| {
        query(&eval, stats.as_ref(), &mix[i], &expected[i], &mut facts)
    });
    let peak_mb = alloc::peak_mb_above(base);

    let mut result = tally.result();
    if p.trace {
        facts.untraced_op_ns = tally.mean_ns();
        // The 2-thread list against its 1-thread twin, both untraced.
        let two = mix.iter().position(|q| q.threads > 1);
        let twin = two.and_then(|two| {
            let one = mix
                .iter()
                .position(|q| q.threads == 1 && q.src == mix[two].src)?;
            Some((one, two))
        });
        if let Some((one, two)) = twin {
            facts.speedup_2t =
                tally.quantile_ms(0.5, |j| j == one) / tally.quantile_ms(0.5, |j| j == two);
        }
        finish_trace(&mut result, name, &facts)?;
        return Ok(result);
    }
    result.set("setup_s", median(&setup_s));
    tally.report(&mut result, records);
    result.set("peak_heap_mb", peak_mb);
    for (i, q) in mix.iter().enumerate() {
        result.note(format!(
            "query {i}: p50 {:>10.4} ms  p90 {:>10.4} ms  {:?} {} thread(s)  {}",
            tally.quantile_ms(0.5, |j| j == i),
            tally.quantile_ms(0.9, |j| j == i),
            q.kind,
            q.threads,
            q.src
        ));
    }
    Ok(result)
}

/// One query against the session's evaluator; returns its latency
/// (answer checking left out) and whether the answer was right.
pub fn query(
    eval: &Evaluator<'_>,
    stats: Option<&LogStats>,
    q: &Q,
    expected: &Expected,
    facts: &mut TraceFacts,
) -> (Duration, bool) {
    let _root = trace::root(trace::OP);
    let start = Instant::now();
    let outcome = mix::guarded(|| {
        let pattern = trace::span("pattern.parse", || mix::parse(q.src))?;
        if let (Some(stats), Some(planner), true) = (stats, eval.planner(), trace::recording()) {
            probe::plan(eval.log(), stats, planner, q, false, expected, facts)?;
        }
        Ok(match (q.kind, q.threads) {
            (Kind::Count, _) => Outcome::Count(trace::span("eval.count", || eval.count(&pattern))),
            (Kind::Exists, _) => {
                Outcome::Exists(trace::span("eval.exists", || eval.exists(&pattern)))
            }
            (Kind::List, 1) => Outcome::List(trace::span("eval.list", || eval.evaluate(&pattern))),
            (Kind::List, threads) => Outcome::List(
                trace::span("parallel.list_2t", || {
                    eval.evaluate_parallel(&pattern, threads)
                })
                .map_err(|e| e.to_string())?,
            ),
        })
    });
    let mut elapsed = start.elapsed();
    let ok = trace::excluded("bench.check", || {
        outcome
            .as_ref()
            .is_ok_and(|outcome| outcome.answer() == expected.answer)
    });
    if ok && q.threads == 1 && trace::recording() {
        if let Ok(outcome) = &outcome {
            facts.incidents += outcome.incidents() as u64;
        }
    }
    let start = Instant::now();
    trace::span("eval.result_drop", || drop(outcome));
    elapsed += start.elapsed();
    (elapsed, ok)
}
