//! The index a [`Log`] is loaded with agrees with a reference read
//! straight off [`Log::instance`] and the records, on logs with sparse
//! workflow ids, for activity names the log never runs, and however the
//! log was made: records given in any order, logs derived by projection,
//! prefix, filter and merge, logs decoded from every format, and records
//! whose activity names are separate allocations. The per-activity
//! instance lists are checked against the same id columns, and postings
//! cursors against the random-access postings, over ascending walks with
//! gaps, repeats and seeks past the last instance, for absent ids and for
//! activities every instance runs, and with two cursors fed alternating
//! claims as two pool workers would.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::{any, prop, prop_assert, prop_assert_eq, proptest, ProptestConfig};
use proptest::TestCaseResult;

use wlq_log::{
    io, Activity, ActivityId, AttrMap, IsLsn, Log, LogBuilder, LogIndex, LogRecord, LogStats, Lsn,
    Wid,
};

/// Sparse instance ids: `LogBuilder` only numbers instances `1..=n`.
const WIDS: [u64; 4] = [3, 7, 1_000_000, u64::MAX - 1];
const NAMES: [&str; 4] = ["A", "B", "C", "D"];
/// Every name a query may ask about, including one no log contains.
const PROBES: [&str; 7] = ["A", "B", "C", "D", "START", "END", "Zed"];

/// The records of a valid log: instance `i` gets wid `WIDS[i]`, runs
/// `START`, its tasks and, when `ended`, `END`; `picks` decides which
/// pending instance writes the next record. Every record's activity is
/// its own allocation.
fn sparse_records(instances: &[(Vec<usize>, bool)], picks: &[usize]) -> Vec<LogRecord> {
    let mut queues: Vec<(Wid, Vec<&str>)> = instances
        .iter()
        .zip(WIDS)
        .map(|((tasks, ended), wid)| {
            let mut names = vec!["START"];
            names.extend(tasks.iter().map(|&t| NAMES[t]));
            if *ended {
                names.push("END");
            }
            names.reverse();
            (Wid(wid), names)
        })
        .collect();
    let mut next_is_lsn = vec![1u32; queues.len()];
    let mut records = Vec::new();
    let mut step = 0;
    loop {
        let pending: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].1.is_empty())
            .collect();
        if pending.is_empty() {
            break;
        }
        let i = pending[picks[step % picks.len()] % pending.len()];
        step += 1;
        let (wid, names) = &mut queues[i];
        let name = names.pop().unwrap();
        let lsn = records.len() as u64 + 1;
        records.push(LogRecord::new(
            lsn,
            *wid,
            next_is_lsn[i],
            name,
            AttrMap::new(),
            AttrMap::new(),
        ));
        next_is_lsn[i] += 1;
    }
    records
}

fn sparse_log(instances: &[(Vec<usize>, bool)], picks: &[usize]) -> Log {
    Log::new(sparse_records(instances, picks)).unwrap()
}

/// The statistics by a walk over the records.
fn walked_stats(log: &Log) -> LogStats {
    let mut activity_counts: BTreeMap<Activity, usize> = BTreeMap::new();
    for r in log.iter() {
        *activity_counts.entry(r.activity().clone()).or_insert(0) += 1;
    }
    let lens: Vec<usize> = log.wids().map(|w| log.instance(w).count()).collect();
    LogStats {
        num_records: log.len(),
        num_instances: log.num_instances(),
        completed_instances: log
            .wids()
            .filter(|&w| log.instance(w).last().is_some_and(LogRecord::is_end))
            .count(),
        activity_counts,
        min_instance_len: lens.iter().copied().min().unwrap_or(0),
        max_instance_len: lens.iter().copied().max().unwrap_or(0),
    }
}

/// Checks every read of `log.index()` against the records.
fn matches_instance_scan(log: &Log) -> TestCaseResult {
    let index = log.index();
    prop_assert_eq!(&LogIndex::build(log), index);

    let wids: Vec<Wid> = log.wids().collect();
    prop_assert_eq!(index.wids().collect::<Vec<_>>(), wids.clone());
    prop_assert_eq!(index.instance_wids(), wids.as_slice());
    prop_assert_eq!(index.num_instances(), log.num_instances());
    prop_assert_eq!(index.num_records(), log.len());
    prop_assert_eq!(LogStats::from_index(index), walked_stats(log));

    // The symbol table: the distinct names, sorted, ids by position.
    let mut names: Vec<&str> = log.iter().map(|r| r.activity().as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let table: Vec<&str> = index.activities().iter().map(Activity::as_str).collect();
    prop_assert_eq!(&table, &names);
    prop_assert_eq!(log.activities(), index.activities());
    for (id, name) in (0..).map(ActivityId).zip(&names) {
        prop_assert_eq!(index.activity_id(name), Some(id));
        let total = log.iter().filter(|r| r.activity() == name).count();
        prop_assert_eq!(index.activity_count(id), total);
        // The instances running `id`: the ordinals whose id column holds it.
        let running: Vec<u32> = (0..wids.len())
            .filter(|&o| index.instance_activities(o).contains(&id))
            .map(|o| o as u32)
            .collect();
        prop_assert_eq!(index.activity_instances(id), running.as_slice());
    }
    prop_assert_eq!(
        index.activity_instances(ActivityId(names.len() as u32)),
        &[] as &[u32]
    );

    for (ordinal, &wid) in wids.iter().enumerate() {
        let records: Vec<&LogRecord> = log.instance(wid).collect();
        let sequence: Vec<&str> = records.iter().map(|r| r.activity().as_str()).collect();
        prop_assert_eq!(index.ordinal(wid), Some(ordinal));
        prop_assert_eq!(index.instance_len(wid), sequence.len());
        let column: Vec<&str> = index
            .instance_activities(ordinal)
            .iter()
            .map(|&id| index.activity(id).unwrap().as_str())
            .collect();
        prop_assert_eq!(&column, &sequence);
        for (record, is_lsn) in records.iter().zip(1..) {
            let offset = index.record_offset(ordinal, IsLsn(is_lsn)).unwrap();
            prop_assert!(std::ptr::eq(&log.records()[offset], *record));
        }
        for is_lsn in 0..=sequence.len() as u32 + 1 {
            let expected = (is_lsn as usize)
                .checked_sub(1)
                .and_then(|i| sequence.get(i).copied());
            let at = index.record_offset(ordinal, IsLsn(is_lsn));
            prop_assert_eq!(
                at.map(|offset| log.records()[offset].activity().as_str()),
                expected
            );
        }
        for name in PROBES {
            let positions = |keep: bool| -> Vec<IsLsn> {
                (1..)
                    .zip(&sequence)
                    .filter(|&(_, &a)| (a == name) == keep)
                    .map(|(p, _)| IsLsn(p))
                    .collect()
            };
            let hits = positions(true);
            let id = index.activity_id(name);
            let postings = id.map_or(&[] as &[IsLsn], |id| index.instance_postings(ordinal, id));
            prop_assert_eq!(postings, hits.as_slice());
            // The complement, `¬name`'s positions, off the id column.
            let complement: Vec<IsLsn> = (1..)
                .zip(index.instance_activities(ordinal))
                .filter(|&(_, &a)| Some(a) != id)
                .map(|(p, _)| IsLsn(p))
                .collect();
            prop_assert_eq!(complement, positions(false));
        }
    }

    for name in PROBES {
        let total = log.iter().filter(|r| r.activity().as_str() == name).count();
        let count = index
            .activity_id(name)
            .map_or(0, |id| index.activity_count(id));
        prop_assert_eq!(count, total);
    }

    // Instances the log does not hold read as empty.
    let absent = (0..).map(Wid).find(|w| !wids.contains(w)).unwrap();
    prop_assert_eq!(index.ordinal(absent), None);
    prop_assert_eq!(index.instance_len(absent), 0);
    let past = wids.len();
    let start = index.activity_id("START").unwrap();
    prop_assert_eq!(index.instance_postings(past, start), &[] as &[IsLsn]);
    prop_assert_eq!(index.instance_activities(past), &[] as &[ActivityId]);
    prop_assert_eq!(index.record_offset(past, IsLsn(1)), None);
    Ok(())
}

/// A log of one instance per task list, wids `1..=n`, each ended when
/// its flag is set: long enough for cursors to skip instances.
fn built_log(instances: &[(Vec<usize>, bool)]) -> Log {
    let mut b = LogBuilder::new();
    for (tasks, ended) in instances {
        let w = b.start_instance();
        for &t in tasks {
            b.append(w, NAMES[t], AttrMap::new(), AttrMap::new())
                .unwrap();
        }
        if *ended {
            b.end_instance(w).unwrap();
        }
    }
    b.build().unwrap()
}

/// The is-lsns of activity `id` in instance `ordinal`, off the id column.
fn walked_postings(index: &LogIndex, ordinal: usize, id: ActivityId) -> Vec<IsLsn> {
    let column = if ordinal < index.num_instances() {
        index.instance_activities(ordinal)
    } else {
        &[]
    };
    (1..)
        .zip(column)
        .filter(|&(_, &a)| a == id)
        .map(|(p, _)| IsLsn(p))
        .collect()
}

/// Ascending ordinals from `steps`: each step moves on by its gap (0
/// repeats the last seek), from ordinal 0; they run past the last
/// instance when the gaps add up to that.
fn ascending(steps: &[usize]) -> Vec<usize> {
    steps
        .iter()
        .scan(0, |at, &gap| {
            *at += gap;
            Some(*at)
        })
        .collect()
}

/// Every id the index issued (`START`'s, which every instance runs,
/// among them) and one it did not.
fn probe_ids(index: &LogIndex) -> Vec<ActivityId> {
    (0..=index.activities().len() as u32)
        .map(ActivityId)
        .collect()
}

/// A deterministic permutation of `records` driven by `seed`.
fn shuffled(mut records: Vec<LogRecord>, mut seed: u64) -> Vec<LogRecord> {
    for i in (1..records.len()).rev() {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (seed >> 33) as usize % (i + 1);
        records.swap(i, j);
    }
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_index_matches_instance_scan(
        instances in prop::collection::vec(
            (prop::collection::vec(0..NAMES.len(), 0..8), prop::bool::ANY),
            1..5,
        ),
        picks in prop::collection::vec(0..16usize, 1..12),
    ) {
        matches_instance_scan(&sparse_log(&instances, &picks))?;
    }

    /// `Log::new` sorts records given in any order and indexes them as if
    /// they had arrived sorted.
    #[test]
    fn shuffled_records_index_like_sorted_ones(
        instances in prop::collection::vec(
            (prop::collection::vec(0..NAMES.len(), 0..8), prop::bool::ANY),
            1..5,
        ),
        picks in prop::collection::vec(0..16usize, 1..12),
        seed in any::<u64>(),
    ) {
        let records = sparse_records(&instances, &picks);
        let sorted = Log::new(records.clone()).unwrap();
        let log = Log::new(shuffled(records, seed)).unwrap();
        matches_instance_scan(&log)?;
        prop_assert_eq!(log.index(), sorted.index());
        prop_assert_eq!(log, sorted);
    }

    /// Logs derived by projection and by the whole-log operations are
    /// indexed like any other.
    #[test]
    fn derived_logs_index_like_their_records(
        instances in prop::collection::vec(
            (prop::collection::vec(0..NAMES.len(), 0..8), prop::bool::ANY),
            1..5,
        ),
        picks in prop::collection::vec(0..16usize, 1..12),
        cut in 1..40u64,
    ) {
        let log = sparse_log(&instances, &picks);
        for wid in log.wids() {
            matches_instance_scan(&log.project_instance(wid).unwrap())?;
        }
        matches_instance_scan(&log.prefix(Lsn(cut.min(log.len() as u64))).unwrap())?;
        if let Ok(kept) = log.filter_instances(|w| w.get() % 2 == 1) {
            matches_instance_scan(&kept)?;
        }
        matches_instance_scan(&Log::merge([log.clone(), log]).unwrap())?;
    }

    /// Every decoder's load pass builds the index of the source log.
    #[test]
    fn decoded_logs_index_like_their_source(
        instances in prop::collection::vec(
            (prop::collection::vec(0..NAMES.len(), 0..8), prop::bool::ANY),
            1..5,
        ),
        picks in prop::collection::vec(0..16usize, 1..12),
    ) {
        let log = sparse_log(&instances, &picks);
        let decoded = [
            io::text::read_text(&io::text::write_text(&log)).unwrap(),
            io::binary::read_binary(io::binary::write_binary(&log)).unwrap(),
            io::csv::read_csv(&io::csv::write_csv(&log)).unwrap(),
            io::xes::read_xes(&io::xes::write_xes(&log)).unwrap(),
        ];
        for back in &decoded {
            matches_instance_scan(back)?;
            prop_assert_eq!(back.index(), log.index());
        }
    }

    /// A cursor walked over ascending ordinals, with gaps, repeated seeks
    /// and seeks past the last instance, reads what the random access and
    /// the id column read, for every id, an absent one and `START`
    /// included; the totals and largest per-instance counts read off the
    /// layout equal the walked ones.
    #[test]
    fn cursors_read_the_postings_of_every_instance_they_seek(
        instances in prop::collection::vec(
            (prop::collection::vec(0..NAMES.len(), 0..6), prop::bool::ANY),
            1..40,
        ),
        steps in prop::collection::vec(0..4usize, 1..60),
    ) {
        let log = built_log(&instances);
        let index = log.index();
        let start = index.activity_id("START").unwrap();
        prop_assert_eq!(index.activity_instances(start).len(), index.num_instances());
        let seeks = ascending(&steps);
        for id in probe_ids(index) {
            let mut cursor = index.postings_cursor(id);
            for &ordinal in &seeks {
                let walked = walked_postings(index, ordinal, id);
                prop_assert_eq!(cursor.seek(ordinal), walked.as_slice());
                prop_assert_eq!(index.instance_postings(ordinal, id), walked.as_slice());
            }
            // A seek back still answers.
            let first = walked_postings(index, 0, id);
            prop_assert_eq!(cursor.seek(0), first.as_slice());
            let total: usize = (0..index.num_instances())
                .map(|o| walked_postings(index, o, id).len())
                .sum();
            prop_assert_eq!(index.activity_count(id), total);
        }
    }

    /// Two cursors over one activity, fed alternating runs of ascending
    /// claims as two pool workers would be, each read every claimed
    /// instance's postings.
    #[test]
    fn two_cursors_fed_alternating_claims_agree(
        instances in prop::collection::vec(
            (prop::collection::vec(0..NAMES.len(), 0..6), prop::bool::ANY),
            1..40,
        ),
        claims in prop::collection::vec(prop::bool::ANY, 1..40),
    ) {
        let log = built_log(&instances);
        let index = log.index();
        for id in probe_ids(index) {
            let mut workers = [index.postings_cursor(id), index.postings_cursor(id)];
            // Ordinal `o` goes to the worker `claims[o]` names; the calls
            // interleave in ordinal order, each worker's ascending.
            for (ordinal, &second) in claims.iter().enumerate() {
                let walked = walked_postings(index, ordinal, id);
                let cursor = &mut workers[usize::from(second)];
                prop_assert_eq!(cursor.seek(ordinal), walked.as_slice());
            }
        }
    }
}

/// Records whose names are separate allocations, clones of one shared
/// string, or a mix of both get one id per distinct name.
#[test]
fn separate_allocations_get_one_id_per_name() {
    let shared: Arc<str> = Arc::from("A");
    let record = |lsn: u64, wid: u64, is_lsn: u32, activity: Activity| {
        LogRecord::new(lsn, wid, is_lsn, activity, AttrMap::new(), AttrMap::new())
    };
    let log = Log::new(vec![
        LogRecord::start(1u64, 1u64),
        record(2, 1, 2, Activity::from(Arc::clone(&shared))),
        record(3, 1, 3, Activity::new("A")),
        LogRecord::start(4u64, 2u64),
        record(5, 2, 2, Activity::new(String::from("B"))),
        record(6, 2, 3, Activity::from(Arc::clone(&shared))),
        record(7, 1, 4, Activity::new("B")),
        record(8, 2, 4, Activity::new("A")),
    ])
    .unwrap();
    matches_instance_scan(&log).unwrap();
    let index = log.index();
    let names: Vec<&str> = index.activities().iter().map(Activity::as_str).collect();
    assert_eq!(names, ["A", "B", "START"]);
    assert_eq!(index.activity_count(ActivityId(0)), 4);
    let [a, b] = ["A", "B"].map(|name| index.activity_id(name).unwrap());
    assert_eq!(index.ordinal(Wid(2)), Some(1));
    assert_eq!(index.instance_postings(0, a), &[IsLsn(2), IsLsn(3)]);
    assert_eq!(index.instance_postings(1, a), &[IsLsn(3), IsLsn(4)]);
    assert_eq!(index.instance_postings(1, b), &[IsLsn(2)]);
}
