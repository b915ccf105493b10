//! Differential soundness check for the static analyzer.
//!
//! The contract under test: whenever [`wlq_analysis::Report::unsatisfiable`]
//! is `true`, the engine finds **zero** incidents for that pattern on the
//! log the analyzer saw — an `unsatisfiable` verdict for a pattern with
//! non-empty `incL(p)` would be a false proof, the one bug class the
//! analyzer must never have.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use wlq_analysis::Analyzer;
use wlq_engine::{IncidentSet, Query, Strategy};
use wlq_fuzz::{random_log, random_pattern_for};
use wlq_log::Log;
use wlq_pattern::Pattern;

/// `incL(pattern)` by the paper-faithful naive oracle.
fn naive(log: &Log, pattern: &Pattern) -> IncidentSet {
    let q = Query::new(pattern.clone()).strategy(Strategy::NaivePaper);
    q.find(log).unwrap()
}

/// One soundness trial: a random log, a random pattern over its
/// alphabet, and the analyzer's verdict cross-checked against the
/// paper-faithful reference evaluator.
fn trial(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let log = random_log(&mut rng);
    let pattern = random_pattern_for(&mut rng, &log);
    let report = Analyzer::with_log(&log).analyze_pattern(&pattern);
    if report.unsatisfiable() {
        let incidents = naive(&log, &pattern);
        assert_eq!(
            incidents.len(),
            0,
            "FALSE UNSATISFIABLE (seed {seed}): pattern `{pattern}` has \
             {} incident(s) but the analyzer proved incL(p) = ∅",
            incidents.len()
        );
    }
}

#[test]
fn seeded_sweep_never_yields_a_false_unsatisfiable() {
    for seed in 0..400 {
        trial(seed);
    }
}

proptest! {
    /// Property form of the same contract, exploring seeds beyond the
    /// deterministic sweep.
    #[test]
    fn unsatisfiable_verdicts_imply_zero_incidents(seed in any::<u64>()) {
        trial(seed);
    }
}

/// The analyzer's unsatisfiability proofs are log-independent: a
/// flagged pattern stays empty on *every* random log, not just the one
/// it was analyzed against.
#[test]
fn structural_proofs_hold_across_logs() {
    let unsat_sources = [
        "A -> START",
        "A ~> START",
        "END -> A",
        "END ~> A",
        "START & (START ~> A)",
        "A[x = 1, x = 2]",
    ];
    for (i, src) in unsat_sources.iter().enumerate() {
        let pattern: Pattern = src.parse().expect("parses");
        let report = Analyzer::new().analyze_pattern(&pattern);
        assert!(report.unsatisfiable(), "{src} should be provably empty");
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(i as u64));
            let log = random_log(&mut rng);
            let incidents = naive(&log, &pattern);
            assert_eq!(
                incidents.len(),
                0,
                "{src} matched on a random log (seed {seed})"
            );
        }
    }
}

/// Conversely, patterns the engine *does* match are never flagged — a
/// direct regression guard for record-level negation (`t ⊙ ¬t` is
/// satisfiable) and boundary-adjacent shapes.
#[test]
fn satisfiable_shapes_on_figure3_are_not_flagged() {
    let log = wlq_log::paper::figure3_log();
    let analyzer = Analyzer::with_log(&log);
    for src in [
        "CheckIn ~> !CheckIn",
        "!PayTreatment ~> SeeDoctor",
        "START ~> GetRefer",
        "UpdateRefer -> GetReimburse",
        "!START",
    ] {
        let pattern: Pattern = src.parse().expect("parses");
        let incidents = naive(&log, &pattern);
        assert!(!incidents.is_empty(), "{src} should match Figure 3");
        let report = analyzer.analyze_pattern(&pattern);
        assert!(
            !report.unsatisfiable(),
            "{src} matches {} incident(s) yet was flagged unsatisfiable",
            incidents.len()
        );
    }
}
