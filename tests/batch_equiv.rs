//! Equivalence suite for the flat arena-backed evaluation path.
//!
//! Random logs × random patterns (depth ≤ 4): [`Strategy::NaivePaper`]
//! and [`Strategy::Planned`] must produce identical incident sets, the
//! planned evaluator's ref-based `count`/`exists` (which never
//! materialise an incident) must agree with the materialised answers, and
//! per-instance batches built bottom-up by the kernels must be finished.
//! Deeper trees than `laws.rs` samples, because the batch path recycles
//! operator batches through its arena at every internal node — depth is
//! exactly what stresses the recycling.

use proptest::prelude::*;

use wlq::{
    attrs, combine_batch, Incident, IncidentBatch, IncidentSet, Log, LogBuilder, Op, Pattern,
    Query, Strategy as EvalStrategy, Wid,
};

const ALPHABET: [&str; 4] = ["A", "B", "C", "D"];

/// Random patterns over the alphabet, depth ≤ 4 (up to 16 leaves).
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    let leaf = prop_oneof![
        4 => (0..ALPHABET.len()).prop_map(|i| Pattern::atom(ALPHABET[i])),
        1 => (0..ALPHABET.len()).prop_map(|i| Pattern::not_atom(ALPHABET[i])),
    ];
    leaf.prop_recursive(4, 16, 2, |inner| {
        (0..4u8, inner.clone(), inner).prop_map(|(op, l, r)| {
            let op = match op {
                0 => Op::Consecutive,
                1 => Op::Sequential,
                2 => Op::Choice,
                _ => Op::Parallel,
            };
            Pattern::binary(op, l, r)
        })
    })
}

/// Random logs: 1–4 instances, each 0–10 task records, interleaved.
fn arb_log() -> impl Strategy<Value = Log> {
    prop::collection::vec(prop::collection::vec(0..ALPHABET.len(), 0..10), 1..5).prop_map(
        |instances| {
            let mut b = LogBuilder::new();
            let wids: Vec<_> = instances.iter().map(|_| b.start_instance()).collect();
            let longest = instances.iter().map(Vec::len).max().unwrap_or(0);
            for step in 0..longest {
                for (i, acts) in instances.iter().enumerate() {
                    if let Some(&a) = acts.get(step) {
                        b.append(wids[i], ALPHABET[a], attrs! {}, attrs! {})
                            .unwrap();
                    }
                }
            }
            b.build().unwrap()
        },
    )
}

/// The incidents of `pattern` in instance `wid`, as `strategy` finds
/// them.
fn listed(log: &Log, pattern: &Pattern, strategy: EvalStrategy, wid: Wid) -> Vec<Incident> {
    let set = Query::new(pattern.clone())
        .strategy(strategy)
        .find(log)
        .unwrap();
    set.for_wid(wid).map(|o| o.to_incident()).collect()
}

/// `pattern` in instance `wid`, evaluated bottom-up on the batch kernels
/// with every intermediate result left in flat form.
fn instance_batch(log: &Log, pattern: &Pattern, wid: Wid) -> IncidentBatch {
    match pattern {
        Pattern::Atom(_) => {
            IncidentBatch::from_incidents(wid, &listed(log, pattern, EvalStrategy::NaivePaper, wid))
        }
        Pattern::Binary { op, left, right } => combine_batch(
            *op,
            &instance_batch(log, left, wid),
            &instance_batch(log, right, wid),
        ),
    }
}

/// The answer as the CLI lists it: one incident per line, in set order.
fn rendered(set: &IncidentSet) -> String {
    set.iter().map(|o| format!("{o}\n")).collect()
}

/// Planned answers keep the executor's batches, whose pools still hold
/// positions of incidents that the dedup in `finish_runs` (`⊙`/`→`) or
/// `finish_full` (`⊕`) dropped; they must
/// equal the same incidents listed per instance and built through
/// `from_partitions`.
#[test]
fn flat_sets_equal_listed_incidents_despite_pool_slack() {
    let log = {
        let mut b = LogBuilder::new();
        for acts in [
            &["A", "B", "A", "B", "C"][..],
            &["B", "A", "C", "B"],
            &["C"],
        ] {
            let w = b.start_instance();
            for act in acts {
                b.append(w, *act, attrs! {}, attrs! {}).unwrap();
            }
        }
        b.build().unwrap()
    };
    for src in [
        "A | A",
        "(A ~> B) | (A ~> B)",
        "A & A",
        "A & B",
        "(A ~> B) & (B ~> C)",
        "(A -> B) & (A -> B)",
        "(A | (A -> B)) -> ((B -> C) | C)",
    ] {
        let p: Pattern = src.parse().unwrap();
        let naive = |w| (w, listed(&log, &p, EvalStrategy::NaivePaper, w));
        let listed = IncidentSet::from_partitions(log.wids().map(naive));
        let flat = Query::new(p).find(&log).unwrap();
        assert_eq!(flat, listed, "{src}");
        assert_eq!(rendered(&flat), rendered(&listed), "{src}");
        assert_eq!(flat.to_string(), listed.to_string(), "{src}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The naive oracle and the planned batch executor compute the same
    /// `incL(p)`, by value and as rendered, sequentially and on 1, 2 and
    /// 4 workers.
    #[test]
    fn batch_equals_naive_and_optimized(log in arb_log(), p in arb_pattern()) {
        let planned = Query::new(p.clone());
        let naive = planned.clone().strategy(EvalStrategy::NaivePaper).find(&log).unwrap();
        let expected = rendered(&naive);
        let mut sets = Vec::new();
        for threads in [1, 2, 4] {
            let set = planned.clone().threads(threads).find(&log).unwrap();
            sets.push((format!("find on {threads} thread(s)"), set));
        }
        for (path, set) in &sets {
            prop_assert_eq!(set, &naive, "{} diverged on {}", path, &p);
            prop_assert_eq!(&rendered(set), &expected, "{} rendered differently on {}", path, &p);
        }
    }

    /// Ref-based counting and existence agree with materialised results.
    #[test]
    fn batch_count_and_exists_need_no_materialisation(log in arb_log(), p in arb_pattern()) {
        let batch = Query::new(p.clone());
        let reference = batch.clone().strategy(EvalStrategy::NaivePaper);
        let materialised = reference.find(&log).unwrap();
        prop_assert_eq!(Ok(materialised.len()), batch.count(&log), "count diverged on {}", &p);
        prop_assert_eq!(reference.count(&log), batch.count(&log), "count diverged on {}", &p);
        prop_assert_eq!(reference.exists(&log), batch.exists(&log), "exists diverged on {}", &p);
    }

    /// Per-instance batch evaluation round-trips through the flat layout:
    /// the converted incidents equal the classic per-instance evaluation,
    /// already sorted and deduplicated.
    #[test]
    fn instance_batches_are_finished(log in arb_log(), p in arb_pattern()) {
        for wid in log.wids() {
            let flat = instance_batch(&log, &p, wid);
            flat.debug_check_invariants();
            let incidents = flat.into_incidents();
            prop_assert!(incidents.windows(2).all(|w| w[0] < w[1]), "unfinished batch for {}", &p);
            prop_assert_eq!(&incidents, &listed(&log, &p, EvalStrategy::NaivePaper, wid));
            prop_assert_eq!(&incidents, &listed(&log, &p, EvalStrategy::Planned, wid));
        }
    }

    /// Parallel batch evaluation (per-worker arenas) equals sequential.
    #[test]
    fn parallel_batch_workers_agree(log in arb_log(), p in arb_pattern()) {
        let sequential = Query::new(p.clone()).find(&log).unwrap();
        let parallel = Query::new(p.clone()).threads(3).find(&log).unwrap();
        prop_assert_eq!(sequential, parallel, "parallel batch diverged on {}", &p);
    }
}
