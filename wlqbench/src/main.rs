//! End-to-end benchmark of `wlq`.
//!
//! ```text
//! wlqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! wlqbench --smoke
//! ```
//!
//! Each workload is a single-process closed loop: one client, no think
//! time, at most two threads. Inputs are generated from the seed and
//! cached as files under `work/inputs/`; every answer is checked against
//! the paper's naive oracle. An untraced run prints the end-to-end
//! metrics; a traced run records spans around each layer's calls, writes
//! them to `work/traces/<workload>.jsonl` and prints the per-layer
//! metrics. The last line of standard output is one JSON object.

mod alloc;
mod cold;
mod host;
mod inputs;
mod mix;
mod monitor;
mod probe;
mod report;
mod session;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::{Format, Source};
use report::{RunResult, TraceFacts, END_TO_END, PER_LAYER};
use wlq_engine::Evaluator;
use wlq_log::LogStats;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Whether, after the set-up repetitions timed so far, another one is
/// needed before the last: at least three run, and quick ones repeat
/// until about two seconds have been spent, up to 40, so the median spans
/// more than one of a shared host's quiet or contended spells. The last
/// repetition's state is the one the timed loop uses; `setup_s` is their
/// median.
pub fn more_setups(times: &[f64]) -> bool {
    let runs = times.len() + 1;
    let spent = times.iter().sum::<f64>() + times.last().copied().unwrap_or(0.0);
    runs < 3 || (runs < 40 && spent < 2.0)
}

/// Span buffer of a traced run.
pub const SPAN_CAPACITY: usize = 1 << 19;
/// Most rounds a closed loop runs, however quick they are.
const MAX_ROUNDS: usize = 1 << 12;

/// The workloads, with the input each runs on. The three clinic workloads
/// share one 2 000-instance log per seed (~18 000 records, ~18 MB of
/// heap): on a shared host, query times over larger logs are bound by
/// memory that other tenants contend for, and their run-to-run spread
/// was wider than the bounds.
const WORKLOADS: &[(&str, Source)] = &[
    ("clinic_cold", Source::Clinic { instances: 2_000 }),
    ("clinic_session", Source::Clinic { instances: 2_000 }),
    ("clinic_monitor", Source::Clinic { instances: 2_000 }),
    (
        "wide_instances",
        Source::Skewed {
            instances: 50,
            length: 2_000,
            alphabet: 8,
        },
    ),
];

pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The metrics a run prints: end-to-end untraced, per-layer traced.
fn metrics(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn run_workload(name: &str, p: &Params, source: Source) -> Result<RunResult, String> {
    match name {
        "clinic_cold" => cold::run(p, source),
        "clinic_session" => session::run(p, source, name, mix::CLINIC_MIX),
        "clinic_monitor" => monitor::run(p, source),
        "wide_instances" => session::run(p, source, name, mix::WIDE_MIX),
        _ => Err(format!("unknown workload {name:?}")),
    }
}

/// Latencies of a closed loop, kept per operation slot of the round, at
/// nominal host speed (see [`host`]) in an untraced run and as measured in
/// a traced one. The latency metrics are per-slot quantiles over rounds,
/// averaged over the slots: slots differ in cost, so a quantile of the
/// pooled samples would fall in the gap between two slots' latencies.
pub struct Tally {
    attempted: u64,
    failed: u64,
    per_slot: Vec<Vec<f64>>,
}

impl Tally {
    /// An empty tally of `slots` slots. Capacity for `rounds` rounds is
    /// reserved up front, so the peak heap does not depend on how many
    /// rounds a run completes.
    pub fn new(slots: usize, rounds: usize) -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            per_slot: (0..slots).map(|_| Vec::with_capacity(rounds)).collect(),
        }
    }

    /// Keeps one latency of slot `i`, in seconds.
    pub fn record(&mut self, i: usize, seconds: f64) {
        self.per_slot[i].push(seconds);
    }

    /// Counts `n` operations, `failed` of them failed or wrong.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Mean untraced latency in ns.
    pub fn mean_ns(&self) -> f64 {
        let (sum, n) =
            (self.per_slot.iter().flatten()).fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
        sum / n.max(1) as f64 * 1e9
    }

    /// Operations per second of untraced busy time.
    pub fn rate(&self) -> f64 {
        1e9 / self.mean_ns()
    }

    /// The mean over the slots `keep` selects of each slot's
    /// `q`-quantile latency, in ms.
    pub fn quantile_ms(&self, q: f64, keep: impl Fn(usize) -> bool) -> f64 {
        let slots: Vec<f64> = (self.per_slot.iter().enumerate())
            .filter(|(i, v)| keep(*i) && !v.is_empty())
            .map(|(_, v)| stats::quantile(v, q))
            .collect();
        slots.iter().sum::<f64>() / slots.len().max(1) as f64 * 1e3
    }

    pub fn result(&self) -> RunResult {
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            ..RunResult::default()
        }
    }

    /// Sets the latency and throughput metrics; an operation covers
    /// `records` records.
    pub fn report(&self, result: &mut RunResult, records: usize) {
        result.set("query_p50_ms", self.quantile_ms(0.5, |_| true));
        result.set("query_p90_ms", self.quantile_ms(0.9, |_| true));
        result.set("queries_per_s", self.rate());
        result.set("records_per_s", self.rate() * records as f64);
    }
}

/// Runs rounds of `round` operations until `p.seconds` have passed,
/// checking the clock only between rounds so every run covers whole
/// rounds. `op(i)` runs slot `i` and returns its latency and whether its
/// answer was right. In a traced run each slot runs twice, traced and
/// untraced in alternating order; only untraced latencies are kept.
pub fn closed_loop(
    p: &Params,
    round: usize,
    mut op: impl FnMut(usize) -> (Duration, bool),
) -> Tally {
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let mut tally = Tally::new(round, MAX_ROUNDS);
    let mut turn = 0usize;
    let mut speed = host::Speed::new();
    for _ in 0..MAX_ROUNDS {
        for i in 0..round {
            let passes: &[bool] = match (p.trace, turn % 2) {
                (false, _) => &[false],
                (true, 0) => &[true, false],
                (true, _) => &[false, true],
            };
            turn += 1;
            for &traced in passes {
                trace::set_active(traced);
                let before = speed.factor();
                let (latency, ok) = op(i);
                tally.count(1, u64::from(!ok));
                if !traced {
                    let seconds = latency.as_secs_f64();
                    let seconds = if p.trace {
                        seconds
                    } else {
                        speed.scale(before, seconds)
                    };
                    tally.record(i, seconds);
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    trace::set_active(false);
    tally
}

/// Ends a traced run: sweeps every layer over the Figure 3 log, writes
/// the spans out and derives the per-layer metrics from them.
pub fn finish_trace(result: &mut RunResult, name: &str, facts: &TraceFacts) -> Result<(), String> {
    let swept = trace::open_reserve();
    sweep()?;
    let spans = trace::finish();
    let dir = inputs::work_dir().join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{name}.jsonl"));
    std::fs::write(&path, trace::to_jsonl(&spans)).map_err(|e| e.to_string())?;
    result.note(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    report::per_layer(result, &spans[..swept], &spans[swept..], facts);
    Ok(())
}

/// One traced pass of every workload's operations over the paper's
/// Figure 3 log, so a per-layer time of a layer the workload itself never
/// calls is still measured, in the same run, rather than read as 0.
fn sweep() -> Result<(), String> {
    let formats = [Format::Bin, Format::Text];
    let paths = Source::Figure3
        .files(0, &formats)
        .map_err(|e| e.to_string())?;
    let log = inputs::read_log(&paths[0], Format::Bin)?;
    let mut facts = TraceFacts::default();
    let cold = mix::reference(&log, mix::CLINIC_COLD_MIX)?;
    let queries = mix::reference(&log, mix::CLINIC_MIX)?;
    let (eval, stats) = (Evaluator::new(&log), LogStats::compute(&log));
    let rules = (mix::MONITOR_RULES.iter())
        .map(|q| mix::parse(q.src))
        .collect::<Result<Vec<_>, _>>()?;
    let mut evaluators = monitor::standing(&rules);
    let mut fired = vec![0; rules.len()];

    trace::set_active(true);
    for (q, expected) in mix::CLINIC_COLD_MIX.iter().zip(&cold) {
        for (path, format) in paths.iter().zip(formats) {
            cold::pipeline(path, format, q, expected, &mut facts);
        }
    }
    for (q, expected) in mix::CLINIC_MIX.iter().zip(&queries) {
        session::query(&eval, Some(&stats), q, expected, &mut facts);
    }
    for record in log.iter() {
        monitor::sample(record, &mut evaluators, &mut fired);
    }
    trace::set_active(false);
    Ok(())
}

struct Args {
    workload: String,
    params: Params,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let missing = |what: &str| format!("missing --{what}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("workload"))?,
        params: Params {
            seed: seed.ok_or_else(|| missing("seed"))?,
            seconds: seconds.ok_or_else(|| missing("seconds"))?,
            trace: trace.unwrap_or(false),
        },
    })
}

/// Every workload on tiny inputs, traced and untraced: every metric must
/// be emitted with its unit and no operation may fail. `BENCHMARK.json`
/// must list the same metrics.
fn smoke() -> Result<(), String> {
    let clinic = Source::Clinic { instances: 200 };
    let cases = [
        ("clinic_cold", Source::Figure3),
        ("clinic_cold", clinic),
        ("clinic_session", Source::Figure3),
        ("clinic_session", clinic),
        ("clinic_monitor", Source::Figure3),
        ("clinic_monitor", clinic),
        (
            "wide_instances",
            Source::Skewed {
                instances: 4,
                length: 100,
                alphabet: 8,
            },
        ),
    ];
    for (name, source) in cases {
        for trace in [false, true] {
            let p = Params {
                seed: 7,
                seconds: 0.05,
                trace,
            };
            let result = run_workload(name, &p, source)?;
            let table = metrics(trace);
            let line = result.json(table)?;
            let case = format!("{name} on {source:?}, trace {trace}");
            if result.attempted == 0 || result.failed != 0 {
                return Err(format!("{case}: {line}"));
            }
            // Every end-to-end metric and every per-layer time must be a
            // positive measurement; per-layer counts may be 0.
            let must_be_positive = |unit: &str| !trace || ["s", "ms", "us", "ns"].contains(&unit);
            let zero =
                (table.iter()).find(|(m, u)| must_be_positive(u) && result.metrics[m] <= 0.0);
            if let Some((metric, _)) = zero {
                return Err(format!("{case}: {metric} is not positive: {line}"));
            }
            println!("smoke {case}: {} operations, all right", result.attempted);
        }
    }
    let manifest = include_str!("../../BENCHMARK.json");
    for (name, _) in WORKLOADS {
        if !manifest.contains(&format!("{{\"name\": \"{name}\", \"why\": ")) {
            return Err(format!("BENCHMARK.json does not list workload {name}"));
        }
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if !manifest.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")) {
            return Err(format!("BENCHMARK.json does not list {name} in {unit}"));
        }
    }
    let listed = manifest.matches("{\"name\": ").count();
    let known = WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len();
    if listed != known {
        return Err(format!(
            "BENCHMARK.json lists {listed} names, the benchmark {known}"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        return match smoke() {
            Ok(()) => {
                println!("smoke ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = parse_args(&args).and_then(|a| {
        let source = WORKLOADS
            .iter()
            .find(|(name, _)| *name == a.workload)
            .map(|(_, source)| *source)
            .ok_or_else(|| format!("unknown workload {:?}", a.workload))?;
        let result = run_workload(&a.workload, &a.params, source)?;
        let table = metrics(a.params.trace);
        let line = result.json(table)?;
        Ok((a, result, table, line))
    });
    match outcome {
        Ok((a, result, table, line)) => {
            println!(
                "# {} seed {} trace {} ({} attempted, {} failed, failed_ratio {})",
                a.workload,
                a.params.seed,
                u8::from(a.params.trace),
                result.attempted,
                result.failed,
                result.failed as f64 / result.attempted.max(1) as f64
            );
            for note in &result.notes {
                println!("# {note}");
            }
            for (name, unit) in table {
                println!("# {name:<34} {:>16.6} {unit}", result.metrics[name]);
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wlqbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_metrics_average_per_slot_quantiles() {
        let mut tally = Tally::new(2, 10);
        for round in 1..=10 {
            tally.record(0, 1e-3 * round as f64);
            tally.record(1, 10e-3);
        }
        let mut result = RunResult::default();
        tally.report(&mut result, 100);
        // Over 1..=10 ms, slot 0's median is 5.5 ms and its 90th
        // percentile 9.1 ms; slot 1 always takes 10 ms. The mean latency
        // is 7.75 ms.
        let close = |name: &str, want: f64| (result.metrics[name] / want - 1.0).abs() < 1e-9;
        assert!(close("query_p50_ms", (5.5 + 10.0) / 2.0));
        assert!(close("query_p90_ms", (9.1 + 10.0) / 2.0));
        assert!(close("queries_per_s", 1e3 / 7.75));
        assert!(close("records_per_s", 100.0 * 1e3 / 7.75));
    }
}
