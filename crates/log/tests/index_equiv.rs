//! The dense [`LogIndex`] agrees with a reference read straight off
//! [`Log::instance`], on logs with sparse workflow ids and for activity
//! names the log never runs.

use proptest::prelude::{prop, prop_assert_eq, proptest, ProptestConfig};

use wlq_log::{AttrMap, IsLsn, Log, LogIndex, LogRecord, LogStats, Wid};

/// Sparse instance ids: `LogBuilder` only numbers instances `1..=n`.
const WIDS: [u64; 4] = [3, 7, 1_000_000, u64::MAX - 1];
const NAMES: [&str; 4] = ["A", "B", "C", "D"];
/// Every name a query may ask about, including one no log contains.
const PROBES: [&str; 7] = ["A", "B", "C", "D", "START", "END", "Zed"];

/// Builds a valid log through `Log::new`: instance `i` gets wid
/// `WIDS[i]`, runs `START`, its tasks and, when `ended`, `END`; `picks`
/// decides which pending instance writes the next record.
fn sparse_log(instances: &[(Vec<usize>, bool)], picks: &[usize]) -> Log {
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
    Log::new(records).unwrap()
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
        let log = sparse_log(&instances, &picks);
        let index = LogIndex::build(&log);

        let wids: Vec<Wid> = log.wids().collect();
        prop_assert_eq!(index.wids().collect::<Vec<_>>(), wids.clone());
        prop_assert_eq!(index.instance_wids(), wids.as_slice());
        prop_assert_eq!(index.num_instances(), log.num_instances());
        prop_assert_eq!(LogStats::from_index(&index), LogStats::compute(&log));

        for &wid in &wids {
            let sequence: Vec<&str> = log.instance(wid).map(|r| r.activity().as_str()).collect();
            prop_assert_eq!(index.instance_len(wid), sequence.len());
            for is_lsn in 0..=sequence.len() as u32 + 1 {
                let expected = (is_lsn as usize)
                    .checked_sub(1)
                    .and_then(|i| sequence.get(i).copied());
                prop_assert_eq!(
                    index.activity_at(wid, IsLsn(is_lsn)).map(|a| a.as_str()),
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
                prop_assert_eq!(index.postings(wid, name), hits.as_slice());
                prop_assert_eq!(index.complement_postings(wid, name), positions(false));
            }
        }

        for name in PROBES {
            let total = log.iter().filter(|r| r.activity().as_str() == name).count();
            prop_assert_eq!(index.total_count(name), total);
        }

        // Instances the log does not hold read as empty.
        let absent = Wid(5);
        prop_assert_eq!(index.postings(absent, "START"), &[] as &[IsLsn]);
        prop_assert_eq!(index.complement_postings(absent, "A"), Vec::<IsLsn>::new());
        prop_assert_eq!(index.instance_len(absent), 0);
        prop_assert_eq!(index.activity_at(absent, IsLsn(1)), None);
    }
}
