//! Query mixes, reference answers and answer checking.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use wlq_engine::{Evaluator, IncidentSet, Strategy};
use wlq_log::Log;
use wlq_pattern::Pattern;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Count,
    Exists,
    List,
}

/// One query of a mix: what to ask, and with how many threads.
#[derive(Debug, Clone, Copy)]
pub struct Q {
    pub kind: Kind,
    pub src: &'static str,
    pub threads: usize,
}

const fn q(kind: Kind, src: &'static str, threads: usize) -> Q {
    Q { kind, src, threads }
}

/// The clinic mix. `clinic_cold` runs all but the last entry;
/// `clinic_session` runs all of it.
pub const CLINIC_MIX: &[Q] = &[
    q(Kind::Count, "UpdateRefer -> GetReimburse", 1),
    // A match exists, so early exit is possible.
    q(Kind::Exists, "UpdateRefer -> GetReimburse", 1),
    // No match, so the whole log is scanned.
    q(Kind::Exists, "GetReimburse -> UpdateRefer", 1),
    q(Kind::Count, "SeeDoctor & PayTreatment", 1),
    q(Kind::Count, "SeeDoctor ~> !PayTreatment", 1),
    q(
        Kind::List,
        "(GetRefer ~> CheckIn) -> (UpdateRefer | TakeTreatment)",
        1,
    ),
    q(Kind::List, "GetRefer[balance > 5000] -> UpdateRefer", 1),
    q(
        Kind::List,
        "(GetRefer ~> CheckIn) -> (UpdateRefer | TakeTreatment)",
        2,
    ),
];

/// The mix `clinic_cold` runs: one process per query, single-threaded.
pub const CLINIC_COLD_MIX: &[Q] = CLINIC_MIX.split_at(7).0;

/// The wide-instance mix.
pub const WIDE_MIX: &[Q] = &[
    q(Kind::List, "T3 -> T4", 1),
    q(Kind::List, "(T2 ~> T3) -> T5", 1),
    q(Kind::Count, "T4 & T5", 1),
    q(Kind::Count, "T5 -> T6 -> T7", 1),
    q(Kind::Count, "(T3 | T4) -> !T0", 1),
    q(Kind::List, "T3 -> T4", 2),
];

/// The standing rules of `clinic_monitor`; each is checked as a list.
pub const MONITOR_RULES: &[Q] = &[
    q(Kind::List, "UpdateRefer -> GetReimburse", 1),
    q(Kind::List, "GetReimburse -> UpdateRefer", 1),
    q(Kind::List, "SeeDoctor & PayTreatment", 1),
    q(Kind::List, "GetRefer[balance > 5000] -> UpdateRefer", 1),
];

/// The answer to one query, small enough to keep and compare: a list is
/// kept as its size and a digest of its incidents in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    Count(usize),
    Exists(bool),
    List { len: usize, digest: u64 },
}

impl Answer {
    pub fn of_set(set: &IncidentSet) -> Answer {
        // FNV-1a over (wid, positions) of each incident.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for incident in set.iter() {
            eat(incident.wid().0);
            for p in incident.positions() {
                eat(u64::from(p.0));
            }
            eat(u64::MAX);
        }
        Answer::List {
            len: set.len(),
            digest: h,
        }
    }
}

/// What a query returned, before checking.
pub enum Outcome {
    Count(usize),
    Exists(bool),
    List(IncidentSet),
}

impl Outcome {
    pub fn answer(&self) -> Answer {
        match self {
            Outcome::Count(n) => Answer::Count(*n),
            Outcome::Exists(b) => Answer::Exists(*b),
            Outcome::List(set) => Answer::of_set(set),
        }
    }

    /// Incidents the query counted or listed.
    pub fn incidents(&self) -> usize {
        match self {
            Outcome::Count(n) => *n,
            Outcome::Exists(_) => 0,
            Outcome::List(set) => set.len(),
        }
    }

    /// The answer as `wlq query` prints it.
    pub fn render(&self) -> String {
        match self {
            Outcome::Count(n) => format!("{n}\n"),
            Outcome::Exists(b) => format!("{b}\n"),
            Outcome::List(set) => {
                let mut out = format!(
                    "{} incident(s) in {} instance(s)\n",
                    set.len(),
                    set.num_matched_instances()
                );
                for incident in set.iter().take(50) {
                    let _ = writeln!(out, "  {incident}");
                }
                if set.len() > 50 {
                    let _ = writeln!(out, "  … {} more", set.len() - 50);
                }
                out
            }
        }
    }
}

/// A query's expected answer and its result size, from the paper's
/// naive oracle.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    pub answer: Answer,
    /// `|incL(p)|`, the planner's root estimate is compared with it.
    pub incidents: usize,
}

/// Reference answers for `mix`, computed with Algorithm 1's operators
/// (`Strategy::NaivePaper`), never with a measured path.
pub fn reference(log: &Log, mix: &[Q]) -> Result<Vec<Expected>, String> {
    let oracle = Evaluator::with_strategy(log, Strategy::NaivePaper);
    mix.iter()
        .map(|q| {
            let pattern = parse(q.src)?;
            // Counting through the oracle materializes one instance at a
            // time; only lists need the whole set.
            let (answer, incidents) = match q.kind {
                Kind::Count => {
                    let n = oracle.count(&pattern);
                    (Answer::Count(n), n)
                }
                Kind::Exists => {
                    let n = oracle.count(&pattern);
                    (Answer::Exists(n > 0), n)
                }
                Kind::List => {
                    let set = oracle.evaluate(&pattern);
                    (Answer::of_set(&set), set.len())
                }
            };
            Ok(Expected { answer, incidents })
        })
        .collect()
}

pub fn parse(src: &str) -> Result<Pattern, String> {
    src.parse::<Pattern>().map_err(|e| format!("{src}: {e}"))
}

/// Runs `f`, turning a panic into an error so one bad operation counts as
/// failed instead of ending the run.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::paper;

    #[test]
    fn figure3_reference_answers() {
        let log = paper::figure3_log();
        let refs = reference(&log, CLINIC_MIX).unwrap();
        assert_eq!(refs[0].answer, Answer::Count(1));
        assert_eq!(refs[1].answer, Answer::Exists(true));
        assert_eq!(refs[2].answer, Answer::Exists(false));
        // The 2-thread query repeats the one before it.
        assert_eq!(refs[5].answer, refs[7].answer);
    }

    #[test]
    fn digest_depends_on_positions() {
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        let a = eval.evaluate(&parse("SeeDoctor -> PayTreatment").unwrap());
        let b = eval.evaluate(&parse("SeeDoctor ~> PayTreatment").unwrap());
        assert_eq!(Answer::of_set(&a), Answer::of_set(&a.clone()));
        assert_ne!(Answer::of_set(&a), Answer::of_set(&b));
    }
}
