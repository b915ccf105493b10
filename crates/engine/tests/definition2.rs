//! Definition 2's per-instance conditions (2–4) are decided in one place,
//! `InstanceState::admit`: `Log::new` and a `StreamingEvaluator` replay
//! of the same records refuse every mutant of a valid log with the same
//! error, a record that breaks two conditions at once included, and
//! accept the valid log alike.

use proptest::prelude::{any, prop, prop_assert, prop_assert_eq, proptest, Strategy};

use wlq_engine::{EngineError, StreamingEvaluator};
use wlq_log::{attrs, Activity, AttrMap, Log, LogBuilder, LogError, LogRecord, Lsn, Wid};

/// A random log's records: per instance, a list of activities,
/// interleaved round-robin; every second instance ends.
fn arb_records() -> impl Strategy<Value = Vec<LogRecord>> {
    prop::collection::vec(prop::collection::vec("[A-C]", 0..6), 1..4).prop_map(|instances| {
        let mut b = LogBuilder::new();
        let wids: Vec<_> = instances.iter().map(|_| b.start_instance()).collect();
        let longest = instances.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..longest {
            for (tasks, &wid) in instances.iter().zip(&wids) {
                if let Some(act) = tasks.get(step) {
                    b.append(wid, act.as_str(), attrs! {}, attrs! {}).unwrap();
                }
            }
        }
        for &wid in wids.iter().step_by(2) {
            b.end_instance(wid).unwrap();
        }
        b.build().unwrap().into_records()
    })
}

/// `r` with another is-lsn and activity, at the same lsn.
fn remade(r: &LogRecord, is_lsn: u32, activity: Activity) -> LogRecord {
    let (input, output) = (r.input().clone(), r.output().clone());
    LogRecord::new(r.lsn(), r.wid(), is_lsn, activity, input, output)
}

/// Mutants of `records` that keep condition 1 (lsns `1..=n` in order)
/// and break conditions 2–4, singly and two at once; `pick` chooses the
/// records.
fn mutants(records: &[LogRecord], pick: usize) -> Vec<(&'static str, Vec<LogRecord>)> {
    let n = records.len();
    let k = pick % n;
    let is_lsn = |r: &LogRecord| r.is_lsn().get();
    // A non-START record, from the `k`th on.
    let task = (k..n).chain(0..k).find(|&j| !records[j].is_start());
    let mut out = Vec::new();
    let mut with = |name, j: usize, record: LogRecord| {
        let mut m = records.to_vec();
        m[j] = record;
        out.push((name, m));
    };
    // Condition 2: a START runs another activity, or another record
    // runs START at its own is-lsn.
    let swapped = if records[k].is_start() {
        Activity::new("A")
    } else {
        Activity::start()
    };
    with("2", k, remade(&records[k], is_lsn(&records[k]), swapped));
    if let Some(j) = task {
        let r = &records[j];
        let name = r.activity().clone();
        // Condition 3: a record skips an is-lsn.
        with("3", j, remade(r, is_lsn(r) + 1, name.clone()));
        // Conditions 2 and 3: a record runs START and skips an is-lsn.
        with("2+3 START", j, remade(r, is_lsn(r) + 1, Activity::start()));
        // Conditions 2 and 3: a record that is not START takes is-lsn 1.
        with("2+3 is-lsn 1", j, remade(r, 1, name));
    }
    // Condition 4, alone and with condition 2: an ended instance runs one
    // more record, a task or a second START.
    if let Some(end) = records.iter().find(|r| r.is_end()) {
        for (name, is_lsn, activity) in [
            ("4", is_lsn(end) + 1, Activity::new("A")),
            ("4+2", 1, Activity::start()),
        ] {
            let (input, output) = (end.input().clone(), end.output().clone());
            let mut m = records.to_vec();
            m.push(LogRecord::new(
                n as u64 + 1,
                end.wid(),
                is_lsn,
                activity,
                input,
                output,
            ));
            out.push((name, m));
        }
    }
    out
}

/// The first error a streaming replay of `records` meets, if any.
fn replay(records: &[LogRecord]) -> Option<EngineError> {
    let mut stream = StreamingEvaluator::new("A -> B".parse().unwrap());
    records.iter().find_map(|r| stream.append(r).err())
}

proptest! {
    #[test]
    fn log_new_and_streaming_replay_refuse_alike(
        records in arb_records(),
        pick in any::<usize>(),
    ) {
        prop_assert!(Log::new(records.clone()).is_ok());
        prop_assert_eq!(replay(&records), None);
        let mutated = mutants(&records, pick);
        prop_assert!(mutated.len() >= 3);
        for (name, mutant) in mutated {
            let err: LogError = Log::new(mutant.clone()).unwrap_err();
            prop_assert_eq!(replay(&mutant), Some(EngineError::InvalidLog(err)), "mutant {}", name);
        }
    }
}

/// A record that runs START at is-lsn 3 breaks condition 2 and
/// condition 3: both refuse it for condition 2, checked first.
#[test]
fn a_record_breaking_conditions_2_and_3_is_a_start_mismatch() {
    let records = vec![
        LogRecord::start(1u64, 1u64),
        LogRecord::new(2u64, 1u64, 3u32, "START", AttrMap::new(), AttrMap::new()),
    ];
    let err = Log::new(records.clone()).unwrap_err();
    assert_eq!(
        err,
        LogError::StartMismatch {
            lsn: Lsn(2),
            wid: Wid(1)
        }
    );
    assert_eq!(replay(&records), Some(EngineError::InvalidLog(err)));
}
