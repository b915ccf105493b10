//! Negated-atom semantics at instance boundaries.
//!
//! `¬t` admits every record whose activity is not `t` — *including* the
//! `START` and `END` boundary markers (Definition 4 quantifies over all
//! records of the instance). These tests pin that behaviour down at the
//! boundaries and check every evaluation strategy agrees on it.

use wlq::{IncidentSet, Log, Query, Strategy, StreamingEvaluator, END_ACTIVITY, START_ACTIVITY};

fn figure3() -> Log {
    wlq::paper::figure3_log()
}

/// Evaluates `src` under every strategy and asserts they agree; returns
/// the common result.
fn all_strategies(log: &Log, src: &str) -> IncidentSet {
    let planned = Query::parse(src).unwrap();
    let naive = planned.clone().strategy(Strategy::NaivePaper);
    let reference = naive.find(log).unwrap();
    assert_eq!(
        planned.count(log),
        Ok(reference.len()),
        "Planned count on {src}"
    );
    for threads in [1, 4] {
        assert_eq!(
            planned.clone().threads(threads).find(log).unwrap(),
            reference,
            "parallel({threads}) diverged on {src}"
        );
    }
    let mut stream = StreamingEvaluator::new(planned.pattern().clone());
    for record in log.iter() {
        stream.append(record).unwrap();
    }
    assert_eq!(stream.incidents(), reference, "streaming diverged on {src}");
    reference
}

#[test]
fn negated_start_matches_every_non_start_record() {
    let log = figure3();
    // 20 records, 3 instances, hence 3 STARTs: ¬START has 17 incidents.
    assert_eq!(all_strategies(&log, "!START").len(), 17);
    // And the identity holds structurally, not just numerically.
    let starts = log.iter().filter(|r| r.is_start()).count();
    assert_eq!(all_strategies(&log, "!START").len(), log.len() - starts);
}

#[test]
fn negated_end_matches_every_non_end_record() {
    let log = figure3();
    let ends = log.iter().filter(|r| r.is_end()).count();
    assert_eq!(all_strategies(&log, "!END").len(), log.len() - ends);
}

#[test]
fn negated_atoms_admit_the_boundary_markers_themselves() {
    let log = figure3();
    // ¬SeeDoctor includes the START and END records of every instance.
    let see_doctor = log
        .iter()
        .filter(|r| r.activity().as_str() == "SeeDoctor")
        .count();
    assert_eq!(see_doctor, 4);
    assert_eq!(
        all_strategies(&log, "!SeeDoctor").len(),
        log.len() - see_doctor
    );
}

#[test]
fn negation_consecutive_to_start_sees_the_second_record() {
    let log = figure3();
    // `START ~> ¬t`: one incident per instance whose second record (the
    // record at instance position 2) is not a `t` record.
    for t in ["GetRefer", "SeeDoctor", "Zmissing"] {
        let expected = log
            .wids()
            .filter(|&w| {
                log.record(w, wlq::IsLsn(2))
                    .is_some_and(|r| r.activity().as_str() != t)
            })
            .count();
        let got = all_strategies(&log, &format!("START ~> !{t}"));
        assert_eq!(got.len(), expected, "START ~> !{t}");
    }
}

#[test]
fn negation_consecutive_to_end_sees_the_penultimate_record() {
    let log = figure3();
    // `¬t ~> END`: for each *completed* instance, one incident when the
    // record right before END is not a `t` record.
    for t in ["CompleteRefer", "GetReimburse", "Zmissing"] {
        let expected = log
            .wids()
            .filter(|&w| log.is_completed(w))
            .filter(|&w| {
                let end_pos = log.instance_len(w) as u32;
                log.record(w, wlq::IsLsn(end_pos - 1))
                    .is_some_and(|r| r.activity().as_str() != t)
            })
            .count();
        let got = all_strategies(&log, &format!("!{t} ~> END"));
        assert_eq!(got.len(), expected, "!{t} ~> END");
    }
}

#[test]
fn double_negation_chains_at_both_boundaries_agree_across_strategies() {
    let log = figure3();
    // No numeric anchor here — the point is cross-strategy agreement on
    // patterns where negation touches both boundaries at once.
    for src in [
        "START ~> !START",
        "!END ~> END",
        "!START ~> !END",
        "START -> !SeeDoctor -> END",
        "(!GetRefer ~> END) | (START ~> !GetRefer)",
        "!Zmissing",
    ] {
        let _ = all_strategies(&log, src);
    }
}

#[test]
fn negation_boundaries_agree_on_a_log_with_open_instances() {
    // An instance without END is still running; `¬t ~> END` must only
    // fire for the completed one, and `¬END` must cover every record of
    // the open one.
    let mut b = wlq::LogBuilder::new();
    let done = b.start_instance();
    let open = b.start_instance();
    b.append(done, "GetRefer", wlq::AttrMap::new(), wlq::AttrMap::new())
        .unwrap();
    b.append(open, "GetRefer", wlq::AttrMap::new(), wlq::AttrMap::new())
        .unwrap();
    b.append(open, "SeeDoctor", wlq::AttrMap::new(), wlq::AttrMap::new())
        .unwrap();
    b.end_instance(done).unwrap();
    let log = b.build().unwrap();

    assert!(log.is_completed(done));
    assert!(!log.is_completed(open));

    // ¬GetRefer ~> END: only the completed instance has an END, and its
    // predecessor is GetRefer, so nothing matches.
    assert_eq!(all_strategies(&log, "!GetRefer ~> END").len(), 0);
    // ¬SeeDoctor ~> END: the completed instance's END follows GetRefer.
    assert_eq!(all_strategies(&log, "!SeeDoctor ~> END").len(), 1);
    // ¬END covers every record of the open instance and all but END of
    // the completed one.
    assert_eq!(all_strategies(&log, "!END").len(), log.len() - 1);
    // START ~> ¬START fires once per instance, open or not.
    assert_eq!(all_strategies(&log, "START ~> !START").len(), 2);
}

const _: () = {
    // The boundary marker names the tests rely on.
    assert!(!START_ACTIVITY.is_empty());
    assert!(!END_ACTIVITY.is_empty());
};
