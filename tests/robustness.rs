//! Failure injection and fuzz-style robustness.
//!
//! Corrupt valid artifacts in every structured way and assert the library
//! (a) detects the corruption with a typed error and (b) never panics on
//! arbitrary junk input.

use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest, ProptestConfig};

use wlq::{io, paper, Log, LogError, LogRecord, Lsn, ParseLogError, Pattern, Query, Verdict, Wid};
use wlq_workflow::{scenarios, simulate, SimulationConfig};

// ───────────────────────── log-structure corruption ─────────────────────

fn records() -> Vec<LogRecord> {
    paper::figure3_log().into_records()
}

#[test]
fn dropping_any_interior_record_is_detected() {
    // Removing any non-final record breaks the lsn bijection, so
    // validation must fail. (Dropping the *last* record produces a valid
    // shorter log — a prefix — which is undetectable by design: logs are
    // append-only and every prefix of a valid log is valid.)
    let base = records();
    for i in 0..base.len() - 1 {
        let mut rs = base.clone();
        rs.remove(i);
        assert!(
            Log::new(rs).is_err(),
            "deletion of record {i} went undetected"
        );
    }
    // The final record's deletion yields exactly the length-19 prefix.
    let mut rs = base.clone();
    rs.pop();
    assert_eq!(
        Log::new(rs).unwrap(),
        paper::figure3_log().prefix(Lsn(19)).unwrap()
    );
}

#[test]
fn duplicating_any_record_is_detected() {
    let base = records();
    for i in 0..base.len() {
        let mut rs = base.clone();
        rs.push(base[i].clone());
        assert!(
            Log::new(rs).is_err(),
            "duplication of record {i} went undetected"
        );
    }
}

#[test]
fn swapping_same_instance_records_is_detected() {
    // Swapping the *positions* (lsns stay with the slots) of two records
    // of the same instance reverses their is-lsn order.
    let log = paper::figure3_log();
    let base = records();
    let mut candidates = 0;
    for i in 0..base.len() {
        for j in i + 1..base.len() {
            if base[i].wid() != base[j].wid() {
                continue;
            }
            candidates += 1;
            let mut rs = base.clone();
            let (li, lj) = (rs[i].lsn(), rs[j].lsn());
            let (mut a, mut b) = (rs[j].clone(), rs[i].clone());
            // Re-stamp lsns so condition 1 still holds; only order breaks.
            a = LogRecord::new(
                li,
                a.wid(),
                a.is_lsn(),
                a.activity().clone(),
                a.input().clone(),
                a.output().clone(),
            );
            b = LogRecord::new(
                lj,
                b.wid(),
                b.is_lsn(),
                b.activity().clone(),
                b.input().clone(),
                b.output().clone(),
            );
            rs[i] = a;
            rs[j] = b;
            assert!(
                matches!(Log::new(rs), Err(LogError::NonConsecutiveIsLsn { .. })),
                "swap {i}<->{j} went undetected"
            );
        }
    }
    assert!(candidates > 10, "test should exercise many swaps");
    let _ = log;
}

#[test]
fn relabeling_a_record_to_another_instance_is_detected() {
    let base = records();
    let mut detected = 0;
    let mut total = 0;
    for i in 1..base.len() {
        let r = &base[i];
        let other = if r.wid() == Wid(1) { Wid(2) } else { Wid(1) };
        let mut rs = base.clone();
        rs[i] = LogRecord::new(
            r.lsn(),
            other,
            r.is_lsn(),
            r.activity().clone(),
            r.input().clone(),
            r.output().clone(),
        );
        total += 1;
        if Log::new(rs).is_err() {
            detected += 1;
        }
    }
    // Moving a record between instances breaks is-lsn continuity in both
    // instances; every such corruption must be caught.
    assert_eq!(detected, total);
}

// ───────────────────────── serialized-form corruption ───────────────────

#[test]
fn truncated_binary_never_panics_and_always_errors() {
    let log = paper::figure3_log();
    let bytes = io::binary::write_binary(&log);
    for cut in 0..bytes.len().min(200) {
        let result = io::binary::read_binary(bytes.slice(0..cut));
        assert!(result.is_err(), "truncation at {cut} produced a log");
    }
}

#[test]
fn bitflipped_binary_never_panics() {
    let log = paper::figure3_log();
    let bytes = io::binary::write_binary(&log).to_vec();
    // Flip one byte at a spread of positions; decoding must either fail
    // cleanly or produce a (possibly different) valid log — never panic.
    for pos in (0..bytes.len()).step_by(7) {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0xFF;
        let _ = io::binary::read_binary(corrupted.into());
    }
}

#[test]
fn mangled_text_lines_error_with_line_numbers() {
    let log = paper::figure3_log();
    let text = io::text::write_text(&log);
    let lines: Vec<&str> = text.lines().collect();
    // Drop each data line except the last (dropping the final line yields
    // a valid prefix): lsn gap detected.
    for skip in 1..lines.len() - 1 {
        let mangled: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        assert!(matches!(
            io::text::read_text(&mangled),
            Err(ParseLogError::Invalid(_))
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pattern parser never panics on arbitrary input.
    #[test]
    fn pattern_parser_never_panics(input in "\\PC*") {
        let _ = Pattern::parse(&input);
    }

    /// The pattern parser accepts everything the printer emits, even for
    /// arbitrary activity-name-shaped fragments combined randomly.
    #[test]
    fn parser_accepts_operator_soup_or_rejects_cleanly(
        parts in prop::collection::vec(
            prop::sample::select(vec!["A", "B", "->", "~>", "|", "&", "(", ")", "!", "[x>1]"]),
            0..12,
        )
    ) {
        let joined = parts.join(" ");
        match Pattern::parse(&joined) {
            Ok(p) => {
                // Anything accepted must round-trip.
                let reparsed = Pattern::parse(&p.to_string()).unwrap();
                prop_assert_eq!(reparsed, p);
            }
            Err(e) => prop_assert!(e.position <= joined.len()),
        }
    }

    /// The text log reader never panics on arbitrary input.
    #[test]
    fn text_reader_never_panics(input in "\\PC*") {
        let _ = io::text::read_text(&input);
    }

    /// The CSV log reader never panics on arbitrary input.
    #[test]
    fn csv_reader_never_panics(input in "\\PC*") {
        let _ = io::csv::read_csv(&input);
    }

    /// The XES reader never panics on arbitrary input.
    #[test]
    fn xes_reader_never_panics(input in "\\PC*") {
        let _ = io::xes::read_xes(&input);
    }

    /// The binary reader never panics on arbitrary bytes.
    #[test]
    fn binary_reader_never_panics(input in prop::collection::vec(prop::num::u8::ANY, 0..256)) {
        let _ = io::binary::read_binary(input.into());
    }
}

// ───────────────────────── semantic fault injection ─────────────────────

#[test]
fn conformance_catches_injected_reorderings() {
    // Take a conforming clinic log and move one UpdateRefer record after
    // the instance's GetReimburse — the clinic model cannot produce that.
    let model = scenarios::clinic::model();
    let log = simulate(&model, &SimulationConfig::new(60, 99));
    let victim = log
        .wids()
        .find(|&w| {
            let acts: Vec<&str> = log.instance(w).map(|r| r.activity().as_str()).collect();
            acts.contains(&"UpdateRefer")
        })
        .expect("some instance updates its referral");

    // Rebuild the victim instance with UpdateRefer moved to the end
    // (before END), re-numbering is-lsns.
    let mut b = wlq::LogBuilder::new();
    let w = b.start_instance();
    let mut update = None;
    let tasks: Vec<_> = log
        .instance(victim)
        .filter(|r| !r.is_start() && !r.is_end())
        .cloned()
        .collect();
    for r in &tasks {
        if r.activity().as_str() == "UpdateRefer" && update.is_none() {
            update = Some(r.clone());
            continue;
        }
        b.append(
            w,
            r.activity().clone(),
            r.input().clone(),
            r.output().clone(),
        )
        .unwrap();
    }
    let moved = update.expect("victim has an update");
    b.append(
        w,
        moved.activity().clone(),
        moved.input().clone(),
        moved.output().clone(),
    )
    .unwrap();
    b.end_instance(w).unwrap();
    let corrupted = b.build().unwrap();

    let report = model.check_log(&corrupted);
    assert_eq!(report.verdicts[&w], Verdict::Violating);

    // And the paper's anomaly query sees the reordering too: the update
    // now happens after reimbursement.
    let anomaly = Query::parse("GetReimburse -> UpdateRefer").unwrap();
    assert_eq!(anomaly.exists(&corrupted), Ok(true));
}

#[test]
fn prefix_of_conforming_log_stays_conforming() {
    let model = scenarios::order::model();
    let log = simulate(&model, &SimulationConfig::new(15, 4));
    for upto in [5u64, 20, 50, log.len() as u64] {
        let prefix = log.prefix(Lsn(upto.min(log.len() as u64))).unwrap();
        let report = model.check_log(&prefix);
        assert!(
            report.is_conforming(),
            "prefix at {upto} violates: {:?}",
            report.violations()
        );
    }
}

#[test]
fn merged_logs_answer_queries_like_their_parts() {
    let clinic = simulate(&scenarios::clinic::model(), &SimulationConfig::new(20, 1));
    let loans = simulate(&scenarios::loan::model(), &SimulationConfig::new(20, 2));
    let merged = Log::merge([clinic.clone(), loans.clone()]).unwrap();
    for src in [
        "UpdateRefer -> GetReimburse",
        "Submit -> Reject",
        "GetRefer | Submit",
    ] {
        let count = |log: &Log| Query::parse(src).unwrap().count(log).unwrap();
        assert_eq!(count(&merged), count(&clinic) + count(&loans), "{src}");
    }
}
