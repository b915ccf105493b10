//! The [`Log`] container and its validity checking (Definition 2).

use std::collections::BTreeMap;
use std::fmt;

use crate::error::LogError;
use crate::names::Activity;
use crate::record::{IsLsn, LogRecord, Lsn, Wid};

/// A workflow log: a nonempty, totally-ordered collection of [`LogRecord`]s
/// satisfying the four conditions of Definition 2.
///
/// 1. The log sequence numbers of the records are exactly `1..=|L|`.
/// 2. `is-lsn(l) = 1` iff `act(l) = START`.
/// 3. Each instance's is-lsns are consecutive from 1, and a record with
///    `is-lsn = k+1` appears after the record with `is-lsn = k` of the same
///    instance.
/// 4. An `END` record is the last record of its instance.
///
/// A `Log` is immutable once constructed; [`Log::new`] validates all four
/// conditions and builds a per-instance index. For incremental construction
/// use [`LogBuilder`](crate::LogBuilder); for append-only consumption (the
/// streaming evaluator) see [`Log::records`] and the engine crate.
///
/// # Examples
///
/// ```
/// use wlq_log::{Log, LogRecord, AttrMap};
///
/// let log = Log::new(vec![
///     LogRecord::start(1u64, 1u64),
///     LogRecord::new(2u64, 1u64, 2u32, "GetRefer", AttrMap::new(), AttrMap::new()),
/// ])?;
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.num_instances(), 1);
/// # Ok::<(), wlq_log::LogError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log {
    /// Records sorted by lsn; `records[i].lsn() == i + 1`.
    records: Vec<LogRecord>,
    /// For each instance, the positions of its records in `records`, in
    /// is-lsn order.
    by_wid: BTreeMap<Wid, Vec<usize>>,
}

impl Log {
    /// Builds a log from records, validating Definition 2.
    ///
    /// The records may be supplied in any order; they are sorted by lsn.
    ///
    /// # Errors
    ///
    /// Returns a [`LogError`] describing the first violated condition.
    pub fn new(mut records: Vec<LogRecord>) -> Result<Self, LogError> {
        if records.is_empty() {
            return Err(LogError::Empty);
        }
        records.sort_by_key(LogRecord::lsn);

        // Condition 1: lsns are a bijection with 1..=|L|.
        for (i, r) in records.iter().enumerate() {
            let expected = Lsn(i as u64 + 1);
            let found = r.lsn();
            if found != expected {
                // Distinguish duplicates from gaps for better messages.
                if i > 0 && records[i - 1].lsn() == found {
                    return Err(LogError::DuplicateLsn(found));
                }
                return Err(LogError::LsnGap { expected, found });
            }
        }

        // Conditions 2–4, checked in one pass in lsn order.
        let mut by_wid: BTreeMap<Wid, Vec<usize>> = BTreeMap::new();
        let mut next_is_lsn: BTreeMap<Wid, IsLsn> = BTreeMap::new();
        let mut closed: BTreeMap<Wid, bool> = BTreeMap::new();
        for (i, r) in records.iter().enumerate() {
            let wid = r.wid();
            if closed.get(&wid).copied().unwrap_or(false) {
                return Err(LogError::RecordAfterEnd { wid, lsn: r.lsn() });
            }
            // Condition 2: is-lsn = 1 iff START.
            if (r.is_lsn() == IsLsn::FIRST) != r.is_start() {
                return Err(LogError::StartMismatch { lsn: r.lsn(), wid });
            }
            // Condition 3: consecutive is-lsn per instance, in lsn order.
            let expected = next_is_lsn.get(&wid).copied().unwrap_or(IsLsn::FIRST);
            if r.is_lsn() != expected {
                return Err(LogError::NonConsecutiveIsLsn {
                    wid,
                    expected,
                    found: r.is_lsn(),
                });
            }
            next_is_lsn.insert(wid, expected.next());
            if r.is_end() {
                closed.insert(wid, true);
            }
            by_wid.entry(wid).or_default().push(i);
        }

        Ok(Log { records, by_wid })
    }

    /// Number of records, `|L|`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the log holds no records. Always `false` for a
    /// validated log (Definition 2 requires nonemptiness); provided for
    /// the standard container contract.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in lsn order.
    #[must_use]
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Iterates over records in lsn order.
    pub fn iter(&self) -> std::slice::Iter<'_, LogRecord> {
        self.records.iter()
    }

    /// Looks up the record with global sequence number `lsn`.
    #[must_use]
    pub fn get(&self, lsn: Lsn) -> Option<&LogRecord> {
        let idx = lsn.get().checked_sub(1)? as usize;
        self.records.get(idx)
    }

    /// Looks up a record by `(wid, is-lsn)` — the coordinates incident
    /// semantics work in.
    #[must_use]
    pub fn record(&self, wid: Wid, is_lsn: IsLsn) -> Option<&LogRecord> {
        let positions = self.by_wid.get(&wid)?;
        let idx = (is_lsn.get() as usize).checked_sub(1)?;
        positions.get(idx).map(|&p| &self.records[p])
    }

    /// The distinct instance ids present, in ascending order.
    pub fn wids(&self) -> impl Iterator<Item = Wid> + '_ {
        self.by_wid.keys().copied()
    }

    /// Each instance with the offsets of its records in
    /// [`records`](Self::records), in is-lsn order; wids ascending.
    pub(crate) fn instance_offsets(&self) -> impl Iterator<Item = (Wid, &[usize])> + '_ {
        self.by_wid.iter().map(|(&wid, ps)| (wid, ps.as_slice()))
    }

    /// Number of distinct workflow instances.
    #[must_use]
    pub fn num_instances(&self) -> usize {
        self.by_wid.len()
    }

    /// The records of instance `wid` in is-lsn order (empty if unknown).
    pub fn instance(&self, wid: Wid) -> impl Iterator<Item = &LogRecord> + '_ {
        self.by_wid
            .get(&wid)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .map(move |&p| &self.records[p])
    }

    /// Number of records of instance `wid` (0 if unknown).
    #[must_use]
    pub fn instance_len(&self, wid: Wid) -> usize {
        self.by_wid.get(&wid).map_or(0, Vec::len)
    }

    /// Returns `true` if instance `wid` has an `END` record.
    #[must_use]
    pub fn is_completed(&self, wid: Wid) -> bool {
        self.by_wid
            .get(&wid)
            .and_then(|ps| ps.last())
            .is_some_and(|&p| self.records[p].is_end())
    }

    /// The distinct activity names occurring in the log, sorted.
    #[must_use]
    pub fn activities(&self) -> Vec<Activity> {
        let mut set: Vec<Activity> = self.records.iter().map(|r| r.activity().clone()).collect();
        set.sort();
        set.dedup();
        set
    }

    /// Consumes the log, returning its records in lsn order.
    #[must_use]
    pub fn into_records(self) -> Vec<LogRecord> {
        self.records
    }

    /// Extracts the single-instance sub-log of `wid`, re-numbering lsns to
    /// `1..` while preserving order (used by partitioned evaluation).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::UnknownInstance`] if `wid` is not in the log.
    pub fn project_instance(&self, wid: Wid) -> Result<Log, LogError> {
        let positions = self
            .by_wid
            .get(&wid)
            .ok_or(LogError::UnknownInstance(wid))?;
        let mut records: Vec<LogRecord> =
            positions.iter().map(|&p| self.records[p].clone()).collect();
        for (i, r) in records.iter_mut().enumerate() {
            r.set_lsn(Lsn(i as u64 + 1));
        }
        Log::new(records)
    }
}

impl fmt::Display for Log {
    /// Prints the log as a Figure 3-style table, one record per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "lsn | wid | is-lsn | t | αin | αout")?;
        for r in &self.records {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Log {
    type Item = &'a LogRecord;
    type IntoIter = std::slice::Iter<'a, LogRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrMap;

    fn rec(lsn: u64, wid: u64, is_lsn: u32, act: &str) -> LogRecord {
        LogRecord::new(lsn, wid, is_lsn, act, AttrMap::new(), AttrMap::new())
    }

    fn small_valid() -> Vec<LogRecord> {
        vec![
            LogRecord::start(1, 1u64),
            LogRecord::start(2, 2u64),
            rec(3, 1, 2, "A"),
            rec(4, 2, 2, "B"),
            rec(5, 1, 3, "C"),
            LogRecord::end(6, 1u64, 4u32),
        ]
    }

    #[test]
    fn valid_log_is_accepted_and_indexed() {
        let log = Log::new(small_valid()).unwrap();
        assert_eq!(log.len(), 6);
        assert_eq!(log.num_instances(), 2);
        assert_eq!(log.wids().collect::<Vec<_>>(), vec![Wid(1), Wid(2)]);
        assert_eq!(log.instance_len(Wid(1)), 4);
        assert_eq!(log.instance_len(Wid(2)), 2);
        assert!(log.is_completed(Wid(1)));
        assert!(!log.is_completed(Wid(2)));
    }

    #[test]
    fn records_may_arrive_unsorted() {
        let mut rs = small_valid();
        rs.reverse();
        let log = Log::new(rs).unwrap();
        assert_eq!(log.records()[0].lsn(), Lsn(1));
        assert_eq!(log.records()[5].lsn(), Lsn(6));
    }

    #[test]
    fn empty_log_is_rejected() {
        assert_eq!(Log::new(vec![]), Err(LogError::Empty));
    }

    #[test]
    fn duplicate_lsn_is_rejected() {
        let rs = vec![LogRecord::start(1, 1u64), rec(1, 1, 2, "A")];
        assert_eq!(Log::new(rs), Err(LogError::DuplicateLsn(Lsn(1))));
    }

    #[test]
    fn lsn_gap_is_rejected() {
        let rs = vec![LogRecord::start(1, 1u64), rec(3, 1, 2, "A")];
        assert_eq!(
            Log::new(rs),
            Err(LogError::LsnGap {
                expected: Lsn(2),
                found: Lsn(3)
            })
        );
    }

    #[test]
    fn lsn_zero_is_rejected() {
        let rs = vec![LogRecord::new(
            0u64,
            1u64,
            1u32,
            "START",
            AttrMap::new(),
            AttrMap::new(),
        )];
        assert_eq!(
            Log::new(rs),
            Err(LogError::LsnGap {
                expected: Lsn(1),
                found: Lsn(0)
            })
        );
    }

    #[test]
    fn first_record_of_instance_must_be_start() {
        // Condition 2: is-lsn 1 with non-START activity.
        let rs = vec![rec(1, 1, 1, "A")];
        assert_eq!(
            Log::new(rs),
            Err(LogError::StartMismatch {
                lsn: Lsn(1),
                wid: Wid(1)
            })
        );
    }

    #[test]
    fn start_with_later_is_lsn_is_rejected() {
        // Condition 2, other direction: START with is-lsn ≠ 1.
        let rs = vec![
            LogRecord::start(1, 1u64),
            LogRecord::new(2u64, 1u64, 2u32, "START", AttrMap::new(), AttrMap::new()),
        ];
        assert_eq!(
            Log::new(rs),
            Err(LogError::StartMismatch {
                lsn: Lsn(2),
                wid: Wid(1)
            })
        );
    }

    #[test]
    fn is_lsn_gap_within_instance_is_rejected() {
        let rs = vec![LogRecord::start(1, 1u64), rec(2, 1, 3, "A")];
        assert_eq!(
            Log::new(rs),
            Err(LogError::NonConsecutiveIsLsn {
                wid: Wid(1),
                expected: IsLsn(2),
                found: IsLsn(3)
            })
        );
    }

    #[test]
    fn is_lsn_must_increase_in_lsn_order() {
        // Instance records must appear in is-lsn order by lsn: here is-lsn 3
        // comes before is-lsn 2 globally.
        let rs = vec![
            LogRecord::start(1, 1u64),
            rec(2, 1, 3, "A"),
            rec(3, 1, 2, "B"),
        ];
        assert!(matches!(
            Log::new(rs),
            Err(LogError::NonConsecutiveIsLsn { .. })
        ));
    }

    #[test]
    fn record_after_end_is_rejected() {
        let rs = vec![
            LogRecord::start(1, 1u64),
            LogRecord::end(2, 1u64, 2u32),
            rec(3, 1, 3, "A"),
        ];
        assert_eq!(
            Log::new(rs),
            Err(LogError::RecordAfterEnd {
                wid: Wid(1),
                lsn: Lsn(3)
            })
        );
    }

    #[test]
    fn get_by_lsn_and_by_wid_islsn() {
        let log = Log::new(small_valid()).unwrap();
        assert_eq!(log.get(Lsn(3)).unwrap().activity().as_str(), "A");
        assert_eq!(log.get(Lsn(0)), None);
        assert_eq!(log.get(Lsn(7)), None);
        assert_eq!(
            log.record(Wid(2), IsLsn(2)).unwrap().activity().as_str(),
            "B"
        );
        assert_eq!(log.record(Wid(2), IsLsn(3)), None);
        assert_eq!(log.record(Wid(9), IsLsn(1)), None);
    }

    #[test]
    fn instance_iterates_in_is_lsn_order() {
        let log = Log::new(small_valid()).unwrap();
        let acts: Vec<_> = log
            .instance(Wid(1))
            .map(|r| r.activity().as_str().to_string())
            .collect();
        assert_eq!(acts, ["START", "A", "C", "END"]);
    }

    #[test]
    fn activities_are_sorted_and_deduped() {
        let log = Log::new(small_valid()).unwrap();
        let acts: Vec<_> = log
            .activities()
            .iter()
            .map(|a| a.as_str().to_string())
            .collect();
        assert_eq!(acts, ["A", "B", "C", "END", "START"]);
    }

    #[test]
    fn project_instance_renumbers_lsns() {
        let log = Log::new(small_valid()).unwrap();
        let sub = log.project_instance(Wid(2)).unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.records()[0].lsn(), Lsn(1));
        assert_eq!(sub.records()[1].lsn(), Lsn(2));
        assert_eq!(sub.records()[1].activity().as_str(), "B");
        assert!(log.project_instance(Wid(9)).is_err());
    }

    #[test]
    fn display_has_header_and_one_line_per_record() {
        let log = Log::new(small_valid()).unwrap();
        let text = log.to_string();
        assert_eq!(text.lines().count(), 7);
        assert!(text.starts_with("lsn | wid"));
    }
}
