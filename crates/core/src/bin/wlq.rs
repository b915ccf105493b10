//! `wlq` — command-line interface to the workflow-log query engine.
//!
//! ```text
//! wlq simulate <clinic|order|loan|helpdesk> <instances> <seed> [out-file]
//! wlq stats    <log-file>
//! wlq validate <log-file>
//! wlq query    <log-file> <pattern> [--count|--exists|--by-instance]
//!              [--naive] [--threads N]
//!              [--profile] [--trace-out <trace-file>]
//! wlq explain  <log-file> <pattern> [--analyze]
//!              [--threads N] [--trace-out <trace-file>]
//! wlq explain  --analyze <pattern> --log <log-file>
//! wlq trace-check <trace-file>
//! wlq timeline <log-file> <pattern> [step]
//! wlq spans    <log-file> <pattern>
//! wlq mine     <log-file> [min-support]
//! wlq check    <pattern> [--log <log-file>] [--format human|json]
//!              [--deny-warnings] [--cost-budget N]
//! wlq conform  <clinic|order|loan|helpdesk> <log-file>
//! wlq audit    <log-file> [rules-file]
//! wlq convert  <in-file> <out-file>
//! wlq dot      <clinic|order|loan|helpdesk>
//! wlq example
//! ```
//!
//! Log files are read/written by extension: `.csv` (CSV), `.bin`
//! (binary), `.xes` (IEEE XES subset), anything else the Figure 3-style
//! text table.
//!
//! ## Exit codes
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success |
//! | 1 | domain failure (e.g. `conform` found violating instances, or `check` found lint errors) |
//! | 2 | usage error (unknown command/scenario/flag, bad argument) |
//! | 3 | pattern or rule-file parse error |
//! | 4 | file I/O error |
//! | 5 | malformed log file |
//! | 6 | engine evaluation error |

use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufWriter, ErrorKind, Write};
use std::process::ExitCode;
use std::time::Instant;

use wlq::{
    denies, io, mine_relations, render_human, render_json, render_parse_error, render_trace,
    scenarios, simulate, validate_trace, Analyzer, EngineError, ExecutionProfile, IncidentSet, Log,
    LogStats, Pattern, Planner, Query, SimulationConfig, Strategy, Wid, WorkflowModel,
};

/// A CLI failure, categorised for its exit code.
#[derive(Debug)]
enum CliError {
    /// The invocation itself was wrong (exit 2).
    Usage(String),
    /// A pattern or rule file failed to parse (exit 3).
    Parse(String),
    /// A file could not be read or written (exit 4).
    Io(String),
    /// A log file was read but is not a valid log (exit 5).
    InvalidLog(String),
    /// The engine reported an evaluation error (exit 6).
    Engine(EngineError),
    /// The command ran but the answer is a failure, e.g. a
    /// non-conforming log (exit 1).
    Domain(String),
    /// Standard output could not be written (exit 4; a closed pipe ends
    /// the command quietly instead).
    Stdout(std::io::Error),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Domain(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Parse(_) => 3,
            CliError::Io(_) | CliError::Stdout(_) => 4,
            CliError::InvalidLog(_) => 5,
            CliError::Engine(_) => 6,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::Parse(m)
            | CliError::Io(m)
            | CliError::InvalidLog(m)
            | CliError::Domain(m) => f.write_str(m),
            CliError::Engine(e) => write!(f, "{e}"),
            CliError::Stdout(e) => write!(f, "cannot write to standard output: {e}"),
        }
    }
}

impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        CliError::Engine(e)
    }
}

/// Every write to standard output goes through `?`.
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Stdout(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = BufWriter::new(std::io::stdout().lock());
    let result = run(&args, &mut out);
    let flushed = out.flush().map_err(CliError::Stdout);
    match result.and(flushed) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed its end (`wlq … | head`): it has read all it
        // wanted, so there is nothing left to report.
        Err(CliError::Stdout(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `wlq help` for usage");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "help" | "--help" | "-h" => {
            write!(out, "{}", usage())?;
            Ok(())
        }
        "example" => {
            write!(out, "{}", io::text::write_text(&wlq::paper::figure3_log()))?;
            Ok(())
        }
        "simulate" => cmd_simulate(&args[1..], out),
        "stats" => cmd_stats(&args[1..], out),
        "validate" => cmd_validate(&args[1..], out),
        "query" => cmd_query(&args[1..], out),
        "explain" => cmd_explain(&args[1..], out),
        "trace-check" => cmd_trace_check(&args[1..], out),
        "timeline" => cmd_timeline(&args[1..], out),
        "spans" => cmd_spans(&args[1..], out),
        "mine" => cmd_mine(&args[1..], out),
        "check" => cmd_check(&args[1..], out),
        "conform" => cmd_conform(&args[1..], out),
        "convert" => cmd_convert(&args[1..], out),
        "audit" => cmd_audit(&args[1..], out),
        "dot" => cmd_dot(&args[1..], out),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn usage() -> String {
    "wlq — query workflow logs with incident patterns\n\
     \n\
     commands:\n\
     \x20 simulate <clinic|order|loan|helpdesk> <instances> <seed> [out-file]\n\
     \x20 stats    <log-file>\n\
     \x20 validate <log-file>\n\
     \x20 query    <log-file> <pattern> [--count|--exists|--by-instance] [--naive] [--threads N]\n\
     \x20          [--profile] [--trace-out <trace-file>]\n\
     \x20 explain  <log-file> <pattern> [--analyze] [--threads N] [--trace-out <trace-file>]\n\
     \x20          (--analyze also accepts: explain --analyze <pattern> --log <log-file>)\n\
     \x20 trace-check <trace-file>\n\
     \x20 timeline <log-file> <pattern> [step]\n\
     \x20 spans    <log-file> <pattern>\n\
     \x20 mine     <log-file> [min-support]\n\
     \x20 check    <pattern> [--log <log-file>] [--format human|json] [--deny-warnings] [--cost-budget N]\n\
     \x20 conform  <clinic|order|loan|helpdesk> <log-file>\n\
     \x20 audit    <log-file> [rules-file]\n\
     \x20 convert  <in-file> <out-file>\n\
     \x20 dot      <clinic|order|loan|helpdesk>\n\
     \x20 example\n\
     \n\
     exit codes: 0 ok, 1 domain failure, 2 usage, 3 pattern/rules parse,\n\
     4 file I/O, 5 malformed log, 6 engine error\n\
     \n\
     pattern syntax: activity names composed with ~> (consecutive), -> (sequential),\n\
     | (choice), & (parallel); !A negates; A[out.balance > 5000] filters attributes.\n"
        .to_string()
}

fn usage_err(msg: &str) -> CliError {
    CliError::Usage(msg.to_string())
}

fn scenario_model(name: &str) -> Result<WorkflowModel, CliError> {
    match name {
        "clinic" => Ok(scenarios::clinic::model()),
        "order" => Ok(scenarios::order::model()),
        "loan" => Ok(scenarios::loan::model()),
        "helpdesk" => Ok(scenarios::helpdesk::model()),
        other => Err(CliError::Usage(format!(
            "unknown scenario {other:?} (expected clinic, order, loan, or helpdesk)"
        ))),
    }
}

fn read_log(path: &str) -> Result<Log, CliError> {
    let read_err = |e: std::io::Error| CliError::Io(format!("cannot read {path}: {e}"));
    if path.ends_with(".bin") {
        let raw = std::fs::read(path).map_err(read_err)?;
        io::binary::read_binary(raw.into())
            .map_err(|e| CliError::InvalidLog(format!("{path}: {e}")))
    } else {
        let text = std::fs::read_to_string(path).map_err(read_err)?;
        let parsed = if path.ends_with(".csv") {
            io::csv::read_csv(&text)
        } else if path.ends_with(".xes") {
            io::xes::read_xes(&text)
        } else {
            io::text::read_text(&text)
        };
        parsed.map_err(|e| CliError::InvalidLog(format!("{path}: {e}")))
    }
}

fn write_log(log: &Log, path: &str) -> Result<(), CliError> {
    let write_err = |e: std::io::Error| CliError::Io(format!("cannot write {path}: {e}"));
    if path.ends_with(".bin") {
        std::fs::write(path, io::binary::write_binary(log)).map_err(write_err)
    } else if path.ends_with(".csv") {
        std::fs::write(path, io::csv::write_csv(log)).map_err(write_err)
    } else if path.ends_with(".xes") {
        std::fs::write(path, io::xes::write_xes(log)).map_err(write_err)
    } else {
        std::fs::write(path, io::text::write_text(log)).map_err(write_err)
    }
}

/// Parses a pattern, rendering failures with the same caret snippet the
/// analyzer uses so the offending token is pointed at directly.
fn parse_pattern(src: &str) -> Result<Pattern, CliError> {
    src.parse().map_err(|e| parse_failure(src, &e))
}

fn parse_failure(src: &str, err: &wlq::ParsePatternError) -> CliError {
    // `main` prefixes the message with "error: ", which the renderer
    // also emits — drop the renderer's copy.
    let rendered = render_parse_error(src, err);
    let msg = rendered.strip_prefix("error: ").unwrap_or(&rendered);
    CliError::Parse(msg.trim_end().to_string())
}

fn cmd_simulate(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [scenario, instances, seed, rest @ ..] = args else {
        return Err(usage_err(
            "usage: simulate <scenario> <instances> <seed> [out-file]",
        ));
    };
    let model = scenario_model(scenario)?;
    let instances: usize = instances
        .parse()
        .map_err(|_| CliError::Usage(format!("instances must be a number, got {instances:?}")))?;
    let seed: u64 = seed
        .parse()
        .map_err(|_| CliError::Usage(format!("seed must be a number, got {seed:?}")))?;
    let log = simulate(&model, &SimulationConfig::new(instances, seed));
    match rest {
        [] => write!(out, "{}", io::text::write_text(&log))?,
        [path] => {
            write_log(&log, path)?;
            writeln!(
                out,
                "wrote {} records ({} instances) to {path}",
                log.len(),
                log.num_instances()
            )?;
        }
        _ => return Err(usage_err("too many arguments to simulate")),
    }
    Ok(())
}

fn cmd_stats(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [path] = args else {
        return Err(usage_err("usage: stats <log-file>"));
    };
    let log = read_log(path)?;
    write!(out, "{}", LogStats::compute(&log))?;
    Ok(())
}

fn cmd_validate(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [path] = args else {
        return Err(usage_err("usage: validate <log-file>"));
    };
    let log = read_log(path)?;
    writeln!(
        out,
        "valid log: {} records, {} instances ({} completed)",
        log.len(),
        log.num_instances(),
        log.wids().filter(|&w| log.is_completed(w)).count()
    )?;
    Ok(())
}

fn cmd_query(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [path, pattern_src, flags @ ..] = args else {
        return Err(usage_err("usage: query <log-file> <pattern> [flags]"));
    };
    let log = read_log(path)?;
    let mut query = Query::parse(pattern_src).map_err(|e| parse_failure(pattern_src, &e))?;
    let mut mode = "list";
    let mut naive = false;
    let mut profile = false;
    let mut trace_out: Option<&str> = None;
    let mut iter = flags.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--count" => mode = "count",
            "--exists" => mode = "exists",
            "--by-instance" => mode = "by-instance",
            "--naive" => {
                naive = true;
                query = query.strategy(Strategy::NaivePaper);
            }
            "--threads" => {
                let n: usize = iter
                    .next()
                    .ok_or_else(|| usage_err("--threads needs a number"))?
                    .parse()
                    .map_err(|_| usage_err("--threads needs a number"))?;
                query = query.threads(n);
            }
            "--profile" => profile = true,
            "--trace-out" => {
                trace_out = Some(
                    iter.next()
                        .ok_or_else(|| usage_err("--trace-out needs a file"))?
                        .as_str(),
                );
            }
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    if trace_out.is_some() && !profile {
        return Err(usage_err("--trace-out requires --profile"));
    }
    if profile {
        let pattern = query.pattern();
        let profile = if mode == "count" || mode == "exists" {
            // Profiled counts answer through the unprofiled call. When
            // that call is the counting DP, no executor runs, so there is
            // no per-node table to print, only the DP's wall time.
            let counted = !naive && Planner::from_log(&log).plan(pattern).is_counting_chain();
            if counted && trace_out.is_some() {
                return Err(usage_err(
                    "--trace-out traces the executor, but the counting DP answers this query",
                ));
            }
            let start = Instant::now();
            let answer = if mode == "count" {
                query.count(&log)?.to_string()
            } else {
                query.exists(&log)?.to_string()
            };
            let wall = start.elapsed();
            writeln!(out, "{answer}\n")?;
            if counted {
                writeln!(out, "count DP : {wall:?}")?;
                return Ok(());
            }
            query.profile(&log)?.1
        } else {
            // Listings answer from the profiled run's set: the probe is
            // read-only, so it is the set the unprofiled run returns.
            let (incidents, profile) = query.profile(&log)?;
            print_listing(mode, &incidents, out)?;
            writeln!(out)?;
            profile
        };
        write!(out, "{profile}")?;
        if let Some(path) = trace_out {
            write_trace(&profile, path, out)?;
        }
        return Ok(());
    }
    match mode {
        "count" => writeln!(out, "{}", query.count(&log)?)?,
        "exists" => writeln!(out, "{}", query.exists(&log)?)?,
        "by-instance" => print_counts(&query.count_by_instance(&log)?, out)?,
        _ => print_listing(mode, &query.find(&log)?, out)?,
    }
    Ok(())
}

/// Prints a query's incidents: per-instance counts in `by-instance`
/// mode, otherwise a header and the first 50 incidents.
fn print_listing(mode: &str, incidents: &IncidentSet, out: &mut dyn Write) -> Result<(), CliError> {
    if mode == "by-instance" {
        return print_counts(&incidents.counts_by_wid(), out);
    }
    writeln!(
        out,
        "{} incident(s) in {} instance(s)",
        incidents.len(),
        incidents.num_matched_instances()
    )?;
    for incident in incidents.iter().take(50) {
        writeln!(out, "  {incident}")?;
    }
    if incidents.len() > 50 {
        writeln!(out, "  … {} more", incidents.len() - 50)?;
    }
    Ok(())
}

/// Prints per-instance incident counts, one `wid` per line.
fn print_counts(counts: &BTreeMap<Wid, usize>, out: &mut dyn Write) -> Result<(), CliError> {
    for (wid, count) in counts {
        writeln!(out, "wid {wid}: {count}")?;
    }
    Ok(())
}

fn cmd_explain(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    const USAGE: &str = "usage: explain <log-file> <pattern> [--analyze] \
                         [--threads N] [--trace-out <trace-file>] \
                         (or: explain --analyze <pattern> --log <log-file>)";
    let mut positional: Vec<&str> = Vec::new();
    let mut analyze = false;
    let mut log_path: Option<&str> = None;
    let mut threads = 1usize;
    let mut trace_out: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            // --analyze: actually execute the plan and print per-node
            // actuals (rows, pairs, bytes, wall time) next to the
            // planner's estimates, with a Q-error column.
            "--analyze" => analyze = true,
            "--log" => {
                log_path = Some(
                    iter.next()
                        .ok_or_else(|| usage_err("--log needs a file"))?
                        .as_str(),
                );
            }
            "--threads" => {
                threads = iter
                    .next()
                    .ok_or_else(|| usage_err("--threads needs a number"))?
                    .parse()
                    .map_err(|_| usage_err("--threads needs a number"))?;
            }
            "--trace-out" => {
                trace_out = Some(
                    iter.next()
                        .ok_or_else(|| usage_err("--trace-out needs a file"))?
                        .as_str(),
                );
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag {flag:?}")))
            }
            other => positional.push(other),
        }
    }
    if trace_out.is_some() && !analyze {
        return Err(usage_err("--trace-out requires --analyze"));
    }
    let (path, pattern_src) = match (log_path, positional.as_slice()) {
        (Some(path), [pattern]) => (path, *pattern),
        (None, [path, pattern]) => (*path, *pattern),
        _ => return Err(usage_err(USAGE)),
    };
    let log = read_log(path)?;
    let pattern = parse_pattern(pattern_src)?;
    if analyze {
        let (_, profile) = Query::new(pattern).threads(threads).profile(&log)?;
        write!(out, "{profile}")?;
        if let Some(path) = trace_out {
            write_trace(&profile, path, out)?;
        }
        return Ok(());
    }
    // Without --analyze: the plan the query would run, without running
    // it.
    write!(out, "{}", Planner::from_log(&log).plan(&pattern))?;
    Ok(())
}

/// Writes a profile's JSON Lines trace to `path` and confirms.
fn write_trace(
    profile: &ExecutionProfile,
    path: &str,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let trace = render_trace(profile);
    std::fs::write(path, &trace).map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
    writeln!(
        out,
        "wrote trace ({} events) to {path}",
        trace.lines().count()
    )?;
    Ok(())
}

/// `wlq trace-check <trace-file>` — validates a JSON Lines execution
/// trace against the schema `--trace-out` emits (exit 1 if invalid).
fn cmd_trace_check(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [path] = args else {
        return Err(usage_err("usage: trace-check <trace-file>"));
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    match validate_trace(&text) {
        Ok(summary) => {
            writeln!(
                out,
                "valid trace: version {}, {} node(s), {} worker(s), {} event(s), {} incident(s)",
                summary.version,
                summary.nodes,
                summary.workers,
                summary.events,
                summary.total_incidents
            )?;
            Ok(())
        }
        Err(e) => Err(CliError::Domain(format!("invalid trace {path}: {e}"))),
    }
}

fn cmd_timeline(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (path, pattern_src, step) = match args {
        [path, pattern] => (path, pattern, 0usize),
        [path, pattern, step] => (
            path,
            pattern,
            step.parse()
                .map_err(|_| CliError::Usage(format!("step must be a number, got {step:?}")))?,
        ),
        _ => return Err(usage_err("usage: timeline <log-file> <pattern> [step]")),
    };
    let log = read_log(path)?;
    let pattern = parse_pattern(pattern_src)?;
    let step = if step == 0 {
        (log.len() / 10).max(1)
    } else {
        step
    };
    writeln!(out, "{:>10} {:>12} {:>8}", "up to lsn", "incidents", "new")?;
    for point in wlq::timeline(&log, &pattern, step)? {
        writeln!(
            out,
            "{:>10} {:>12} {:>8}",
            point.lsn.get(),
            point.incidents,
            point.delta
        )?;
    }
    Ok(())
}

fn cmd_spans(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [path, pattern_src] = args else {
        return Err(usage_err("usage: spans <log-file> <pattern>"));
    };
    let log = read_log(path)?;
    let query = Query::parse(pattern_src).map_err(|e| parse_failure(pattern_src, &e))?;
    match query.span_stats(&log)? {
        Some(stats) => writeln!(out, "{stats}")?,
        None => writeln!(out, "no incidents")?,
    }
    Ok(())
}

fn cmd_mine(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (path, min_support) = match args {
        [path] => (path, 2),
        [path, support] => (
            path,
            support.parse().map_err(|_| {
                CliError::Usage(format!("min-support must be a number, got {support:?}"))
            })?,
        ),
        _ => return Err(usage_err("usage: mine <log-file> [min-support]")),
    };
    let log = read_log(path)?;
    let relations = mine_relations(&log, min_support);
    writeln!(
        out,
        "{} relation(s) with support ≥ {min_support}:",
        relations.len()
    )?;
    for relation in relations {
        writeln!(
            out,
            "  {:<40} support {}",
            relation.pattern.to_string(),
            relation.support
        )?;
    }
    Ok(())
}

/// `wlq check <pattern> …` — the static analyzer.
///
/// Exit code 0 when the pattern is clean (or has only allowed
/// warnings/hints), 1 when a lint error fires or `--deny-warnings`
/// upgrades a warning, 3 on parse errors.
fn cmd_check(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    const USAGE: &str =
        "usage: check <pattern> [--log <log-file>] [--format human|json] [--deny-warnings] [--cost-budget N]";
    let [pattern_src, flags @ ..] = args else {
        return Err(usage_err(USAGE));
    };
    let mut log_path: Option<&str> = None;
    let mut format = "human";
    let mut deny_warnings = false;
    let mut cost_budget: Option<f64> = None;
    let mut iter = flags.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--log" => {
                log_path = Some(
                    iter.next()
                        .ok_or_else(|| usage_err("--log needs a file"))?
                        .as_str(),
                );
            }
            "--format" => {
                format = iter
                    .next()
                    .ok_or_else(|| usage_err("--format needs `human` or `json`"))?
                    .as_str();
                if format != "human" && format != "json" {
                    return Err(CliError::Usage(format!(
                        "--format must be `human` or `json`, got {format:?}"
                    )));
                }
            }
            "--deny-warnings" => deny_warnings = true,
            "--cost-budget" => {
                let n: f64 = iter
                    .next()
                    .ok_or_else(|| usage_err("--cost-budget needs a number"))?
                    .parse()
                    .map_err(|_| usage_err("--cost-budget needs a number"))?;
                cost_budget = Some(n);
            }
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let mut analyzer = match log_path {
        Some(path) => Analyzer::with_log(&read_log(path)?),
        None => Analyzer::new(),
    };
    if let Some(budget) = cost_budget {
        analyzer = analyzer.cost_budget(budget);
    }
    let report = analyzer
        .analyze_source(pattern_src)
        .map_err(|e| parse_failure(pattern_src, &e))?;
    match format {
        "json" => writeln!(out, "{}", render_json(pattern_src, &report))?,
        _ => write!(out, "{}", render_human(pattern_src, &report))?,
    }
    let denied = report
        .diagnostics
        .iter()
        .filter(|d| denies(d.severity, deny_warnings))
        .count();
    if denied > 0 {
        Err(CliError::Domain(format!(
            "check failed: {denied} denied diagnostic(s)"
        )))
    } else {
        Ok(())
    }
}

fn cmd_conform(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [scenario, path] = args else {
        return Err(usage_err("usage: conform <scenario> <log-file>"));
    };
    let model = scenario_model(scenario)?;
    let log = read_log(path)?;
    let report = model.check_log(&log);
    let violations = report.violations();
    for (wid, verdict) in &report.verdicts {
        writeln!(out, "wid {wid}: {verdict:?}")?;
    }
    if violations.is_empty() {
        writeln!(out, "log conforms to {}", model.name())?;
        Ok(())
    } else {
        Err(CliError::Domain(format!(
            "{} instance(s) violate the model",
            violations.len()
        )))
    }
}

fn cmd_audit(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (path, rules) = match args {
        [path] => (path, wlq::rules::RuleSet::clinic_fraud()),
        [path, rules_file] => {
            let text = std::fs::read_to_string(rules_file)
                .map_err(|e| CliError::Io(format!("cannot read {rules_file}: {e}")))?;
            (
                path,
                wlq::rules::RuleSet::parse(&text).map_err(|e| CliError::Parse(e.to_string()))?,
            )
        }
        _ => return Err(usage_err("usage: audit <log-file> [rules-file]")),
    };
    let log = read_log(path)?;
    let report = rules.audit(&log)?;
    write!(out, "{report}")?;
    for (wid, hits) in report.repeat_offenders(2).into_iter().take(10) {
        writeln!(
            out,
            "  repeat offender: instance {wid} tripped {hits} rules"
        )?;
    }
    Ok(())
}

fn cmd_convert(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [input, output] = args else {
        return Err(usage_err("usage: convert <in-file> <out-file>"));
    };
    let log = read_log(input)?;
    write_log(&log, output)?;
    writeln!(out, "converted {} records: {input} -> {output}", log.len())?;
    Ok(())
}

fn cmd_dot(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [scenario] = args else {
        return Err(usage_err("usage: dot <scenario>"));
    };
    write!(out, "{}", scenario_model(scenario)?.to_dot())?;
    Ok(())
}
