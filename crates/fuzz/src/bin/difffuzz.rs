//! `wlq-difffuzz` — differential fuzzer across all evaluation strategies.
//!
//! ```text
//! wlq-difffuzz [--iters N] [--seed S] [--fixture-dir DIR]
//! ```
//!
//! Each iteration generates a random valid log and a random pattern over
//! its alphabet, evaluates the pair under NaivePaper (the reference) /
//! the Algorithm 2 incident tree / Planned evaluate, count and exists /
//! `Query` count and exists, count on 4 threads and find_first /
//! parallel Planned (1, 4) / streaming-replay / profiled {NaivePaper,
//! Planned} x (1, 4) / fast_count, and cross-checks the results. It also
//! mutates a valid log into a Definition 2 violation and asserts that
//! `Log::new` rejects it with a typed error. Last, it puts `balance`
//! conditions on the pattern's atoms and checks that pattern the same
//! way, which adds `Query::find` on 1 and 4 threads over the log's binary
//! and text round trips, whose attribute maps are decoded lazily.
//!
//! On divergence the pair is shrunk to a minimal reproducer, written to
//! the fixture directory (replayed by `tests/regressions.rs`), and the
//! process exits 1. Exit 0 means every iteration agreed; exit 2 is a
//! usage error. A panic anywhere is itself a finding: the engine API is
//! supposed to be panic-free on all inputs.

use std::process::ExitCode;

use rand::{rngs::StdRng, SeedableRng};

use wlq_fuzz::{
    check, invalid_records, random_log, random_pattern_for, shrink, with_predicates, Divergence,
    InvalidKind,
};
use wlq_log::Log;
use wlq_pattern::Pattern;

struct Options {
    iters: u64,
    seed: u64,
    fixture_dir: String,
}

fn parse_int(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        iters: 1000,
        seed: 0xD1FF,
        fixture_dir: concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures").to_string(),
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--iters" => {
                let v = iter.next().ok_or("--iters needs a number")?;
                opts.iters = parse_int(v).ok_or_else(|| format!("bad --iters value {v:?}"))?;
            }
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a number")?;
                opts.seed = parse_int(v).ok_or_else(|| format!("bad --seed value {v:?}"))?;
            }
            "--fixture-dir" => {
                opts.fixture_dir = iter.next().ok_or("--fixture-dir needs a path")?.clone();
            }
            "--help" | "-h" => {
                return Err(
                    "usage: wlq-difffuzz [--iters N] [--seed S] [--fixture-dir DIR]".to_string(),
                )
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

fn persist_fixture(dir: &str, stem: &str, log: &Log, pattern: &Pattern) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create fixture dir {dir}: {e}");
        return;
    }
    let log_path = format!("{dir}/{stem}.log");
    let pat_path = format!("{dir}/{stem}.pattern");
    if let Err(e) = std::fs::write(&log_path, wlq_log::io::text::write_text(log)) {
        eprintln!("warning: cannot write {log_path}: {e}");
    }
    if let Err(e) = std::fs::write(&pat_path, format!("{pattern}\n")) {
        eprintln!("warning: cannot write {pat_path}: {e}");
    }
    eprintln!("reproducer written to {log_path} and {pat_path}");
}

/// Reports a divergence of iteration `i`, shrinks the pair and writes the
/// reproducer; the process then exits 1.
fn diverged(
    opts: &Options,
    i: u64,
    divergence: &Divergence,
    log: Log,
    pattern: Pattern,
) -> ExitCode {
    eprintln!("iteration {i}: {divergence}");
    eprintln!("  pattern: {pattern}");
    eprintln!(
        "  log: {} record(s), {} instance(s)",
        log.len(),
        log.num_instances()
    );
    let (min_log, min_pattern) = shrink(log, pattern);
    eprintln!(
        "  shrunk to {} record(s), pattern {min_pattern}",
        min_log.len()
    );
    persist_fixture(
        &opts.fixture_dir,
        &format!("div-{:x}-{i}", opts.seed),
        &min_log,
        &min_pattern,
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    println!(
        "wlq-difffuzz: {} iteration(s), seed {:#x}",
        opts.iters, opts.seed
    );
    for i in 0..opts.iters {
        // Derive a per-iteration rng so any failure replays from (seed, i)
        // alone, independent of how much entropy earlier iterations drew.
        let mut rng = StdRng::seed_from_u64(opts.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        // Differential trial on a valid log.
        let log = random_log(&mut rng);
        let pattern = random_pattern_for(&mut rng, &log);
        if let Some(divergence) = check(&log, &pattern) {
            return diverged(&opts, i, &divergence, log, pattern);
        }

        // Adversarial trial: a Definition 2 violation must be rejected
        // with a typed error (reaching here at all means no panic).
        let kind = InvalidKind::ALL[(i % InvalidKind::ALL.len() as u64) as usize];
        let records = invalid_records(&mut rng, kind);
        if let Ok(accepted) = Log::new(records) {
            eprintln!(
                "iteration {i}: invalid log ({kind:?}) was ACCEPTED: {} record(s)",
                accepted.len()
            );
            return ExitCode::FAILURE;
        }

        // The same pattern with attribute conditions: it also runs on
        // the log's binary and text round trips, decoded lazily.
        let predicated = with_predicates(&mut rng, &pattern);
        if let Some(divergence) = check(&log, &predicated) {
            return diverged(&opts, i, &divergence, log, predicated);
        }

        if (i + 1) % 500 == 0 {
            println!("  {} iteration(s) clean", i + 1);
        }
    }
    println!(
        "all {} iteration(s) agreed across every strategy",
        opts.iters
    );
    ExitCode::SUCCESS
}
