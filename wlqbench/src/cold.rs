//! `clinic_cold`: every operation is one `wlq query`-shaped pipeline —
//! read the file, decode it, run one `Query`, render the answer, drop
//! everything — alternating the binary and the text file.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use wlq_engine::Query;

use crate::inputs::{self, Format, Source};
use crate::mix::{self, Expected, Kind, Outcome, CLINIC_COLD_MIX, Q};
use crate::report::{RunResult, TraceFacts};
use crate::stats::median;
use crate::{
    alloc, closed_loop, finish_trace, host, more_setups, probe, trace, Params, SPAN_CAPACITY,
};

pub fn run(p: &Params, source: Source) -> Result<RunResult, String> {
    let formats = [Format::Bin, Format::Text];
    let paths = source.files(p.seed, &formats).map_err(|e| e.to_string())?;
    let (expected, records) = {
        let log = inputs::read_log(&paths[0], Format::Bin)?;
        (mix::reference(&log, CLINIC_COLD_MIX)?, log.len())
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
    // Set-up: warm-up loads of each file, so the page cache and the
    // allocator are in the state every timed pipeline sees.
    let mut setup_s = Vec::new();
    loop {
        let last = !more_setups(&setup_s);
        let _root = trace::root(trace::SETUP);
        let before = speed.factor();
        let start = Instant::now();
        for (path, format) in paths.iter().zip(formats) {
            let log = inputs::read_log(path, format)?;
            trace::span("log.drop", || drop(log));
        }
        setup_s.push(speed.scale(before, start.elapsed().as_secs_f64()));
        if last {
            break;
        }
    }

    // One round runs every query of the mix on each file once: query
    // `i % 7` on the binary file for even `i`, the text file for odd.
    let n = CLINIC_COLD_MIX.len();
    let tally = closed_loop(p, 2 * n, |i| {
        let q = &CLINIC_COLD_MIX[i % n];
        pipeline(
            &paths[i % 2],
            formats[i % 2],
            q,
            &expected[i % n],
            &mut facts,
        )
    });
    let peak_mb = alloc::peak_mb_above(base);

    let mut result = tally.result();
    if p.trace {
        facts.untraced_op_ns = tally.mean_ns();
        finish_trace(&mut result, "clinic_cold", &facts)?;
        return Ok(result);
    }
    result.set("setup_s", median(&setup_s));
    tally.report(&mut result, records);
    result.set("peak_heap_mb", peak_mb);
    result.note(format!(
        "bin_query_p50_ms {:.4} ms  text_query_p50_ms {:.4} ms  ({} pipelines, {records} records each)",
        tally.quantile_ms(0.5, |i| i % 2 == 0),
        tally.quantile_ms(0.5, |i| i % 2 == 1),
        result.attempted,
    ));
    Ok(result)
}

/// One pipeline; returns its latency (answer checking left out) and
/// whether the answer was right.
pub fn pipeline(
    path: &Path,
    format: Format,
    q: &Q,
    expected: &Expected,
    facts: &mut TraceFacts,
) -> (Duration, bool) {
    let _root = trace::root(trace::OP);
    let start = Instant::now();
    let done = mix::guarded(|| {
        let log = inputs::read_log(path, format)?;
        if trace::recording() {
            let (stats, planner) = probe::rebuilds(&log, true);
            probe::plan(&log, &stats, &planner, q, true, expected, facts)?;
        }
        let query =
            trace::span("pattern.parse", || Query::parse(q.src)).map_err(|e| e.to_string())?;
        let outcome = match q.kind {
            Kind::Count => trace::span("eval.count", || query.count(&log)).map(Outcome::Count),
            Kind::Exists => trace::span("eval.exists", || query.exists(&log)).map(Outcome::Exists),
            Kind::List => trace::span("eval.list", || query.find(&log)).map(Outcome::List),
        }
        .map_err(|e| e.to_string())?;
        trace::span("render", || drop(black_box(outcome.render())));
        Ok((outcome, log))
    });
    let mut elapsed = start.elapsed();
    let ok = trace::excluded("bench.check", || {
        done.as_ref()
            .is_ok_and(|(outcome, _)| outcome.answer() == expected.answer)
    });
    if ok && trace::recording() {
        if let Ok((outcome, _)) = &done {
            facts.incidents += outcome.incidents() as u64;
        }
    }
    let start = Instant::now();
    if let Ok((outcome, log)) = done {
        trace::span("eval.result_drop", || drop(outcome));
        trace::span("log.drop", || drop(log));
    }
    elapsed += start.elapsed();
    (elapsed, ok)
}
