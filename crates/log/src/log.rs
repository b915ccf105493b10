//! The [`Log`] container and its validity checking (Definition 2).

use std::collections::HashMap;
use std::fmt;

use crate::error::LogError;
use crate::index::{rank, ActivityId, LogIndex, Symbols};
use crate::names::{Activity, FxBuildHasher};
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
/// conditions and, while it loads the records, lays out the log's
/// [`LogIndex`] ([`Log::index`]). Two logs are equal when their records
/// are. For incremental construction
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
#[derive(Debug, Clone)]
pub struct Log {
    /// Records sorted by lsn; `records[i].lsn() == i + 1`.
    records: Vec<LogRecord>,
    /// The dense index; its record-offset column also serves the log's
    /// own `(wid, is-lsn)` lookups.
    index: LogIndex,
}

/// Equality of the records: the index is a function of them.
impl PartialEq for Log {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
    }
}

impl Eq for Log {}

/// Per-instance validation state, indexed by first-appearance ordinal.
struct Instance {
    wid: Wid,
    /// Records seen so far, which is also the last is-lsn seen.
    len: u32,
    /// An `END` record has been seen.
    closed: bool,
}

impl Log {
    /// Builds a log from records, validating Definition 2.
    ///
    /// The records may be supplied in any order; they are sorted by lsn
    /// unless they already ascend. Conditions 2–4 are checked in one pass
    /// in lsn order over dense per-instance state, which also sizes each
    /// instance and notes each record's instance ordinal. A second pass
    /// places each record in the CSR columns of the log's [`LogIndex`]
    /// and gives it its activity id.
    ///
    /// # Errors
    ///
    /// Returns a [`LogError`] describing the first violated condition, or
    /// [`LogError::TooManyRecords`] past `u32::MAX` records.
    pub fn new(records: Vec<LogRecord>) -> Result<Self, LogError> {
        Self::load(records, None)
    }

    /// [`Log::new`] for decoded records whose activities a decoder has
    /// already numbered: record `i` runs `seen[ids[i]]`, ids dense in
    /// first-seen order. The load pass then hashes no activity name. If
    /// the records need sorting, the numbers are dropped and worked out
    /// again, as for [`Log::new`].
    pub(crate) fn with_activity_ids(
        records: Vec<LogRecord>,
        ids: Vec<u32>,
        seen: Vec<Activity>,
    ) -> Result<Self, LogError> {
        Self::load(records, Some((ids, seen)))
    }

    fn load(
        mut records: Vec<LogRecord>,
        mut activity_ids: Option<(Vec<u32>, Vec<Activity>)>,
    ) -> Result<Self, LogError> {
        if records.is_empty() {
            return Err(LogError::Empty);
        }
        // The index stores record offsets as `u32`.
        if u32::try_from(records.len()).is_err() {
            return Err(LogError::TooManyRecords(records.len()));
        }
        if !records.is_sorted_by_key(LogRecord::lsn) {
            records.sort_by_key(LogRecord::lsn);
            activity_ids = None;
        }

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

        // Conditions 2–4, checked in one pass in lsn order. Instances get
        // ordinals in order of first appearance, and each record's ordinal
        // is kept for the placement pass. Activities are numbered in
        // first-seen order too, by name, unless a decoder numbered them.
        let mut ordinals: HashMap<Wid, u32, FxBuildHasher> = HashMap::default();
        let mut instances: Vec<Instance> = Vec::new();
        let mut record_ordinals: Vec<u32> = Vec::with_capacity(records.len());
        let mut symbols = Symbols::default();
        let (mut ids, decoded) = match activity_ids {
            Some((ids, seen)) => (ids, Some(seen)),
            None => (Vec::with_capacity(records.len()), None),
        };
        for r in &records {
            if decoded.is_none() {
                ids.push(symbols.id(r.activity()));
            }
            let wid = r.wid();
            let ordinal = *ordinals.entry(wid).or_insert_with(|| {
                instances.push(Instance {
                    wid,
                    len: 0,
                    closed: false,
                });
                // Fewer instances than records, which fit in `u32`.
                (instances.len() - 1) as u32
            });
            record_ordinals.push(ordinal);
            let state = &mut instances[ordinal as usize];
            if state.closed {
                return Err(LogError::RecordAfterEnd { wid, lsn: r.lsn() });
            }
            // Condition 2: is-lsn = 1 iff START.
            if (r.is_lsn() == IsLsn::FIRST) != r.is_start() {
                return Err(LogError::StartMismatch { lsn: r.lsn(), wid });
            }
            // Condition 3: consecutive is-lsn per instance, in lsn order.
            if u64::from(r.is_lsn().get()) != u64::from(state.len) + 1 {
                return Err(LogError::NonConsecutiveIsLsn {
                    wid,
                    expected: IsLsn(state.len.saturating_add(1)),
                    found: r.is_lsn(),
                });
            }
            state.len = r.is_lsn().get();
            state.closed = r.is_end();
        }
        drop(ordinals);

        // The CSR layout, instances by ascending wid; `next[k]` is the
        // entry instance `k`'s next record lands on, first its is-lsn 1.
        let mut order: Vec<u32> = (0..instances.len() as u32).collect();
        order.sort_unstable_by_key(|&k| instances[k as usize].wid);
        let mut next = vec![0u32; instances.len()];
        let mut starts = Vec::with_capacity(order.len() + 1);
        starts.push(0);
        for &k in &order {
            let k = k as usize;
            next[k] = starts[starts.len() - 1];
            // The entries number the records, which fit in `u32`.
            starts.push(next[k] + instances[k].len);
        }
        let wids = order.iter().map(|&k| instances[k as usize].wid).collect();

        // The columns. An instance's records come in is-lsn order from 1
        // (condition 3), so record `i` is the next entry of its instance's
        // range; the pass reads the two scratch columns, not the records.
        // First-seen activity numbers are renumbered into name order.
        let seen = decoded.unwrap_or_else(|| symbols.into_seen());
        let (names, rank) = rank(&seen);
        let mut offsets = vec![0u32; records.len()];
        let mut activities = vec![ActivityId(0); records.len()];
        for (i, (&ordinal, &id)) in (0u32..).zip(record_ordinals.iter().zip(&ids)) {
            let entry = &mut next[ordinal as usize];
            offsets[*entry as usize] = i;
            activities[*entry as usize] = rank[id as usize];
            *entry += 1;
        }

        let index = LogIndex::from_columns(names, wids, starts, activities, offsets);
        Ok(Log { records, index })
    }

    /// The log's dense index (symbol table, instance ordinals, CSR
    /// columns and postings), built with the log; the postings are
    /// grouped on the first call.
    #[must_use]
    pub fn index(&self) -> &LogIndex {
        self.index.group();
        &self.index
    }

    /// The offsets in `records` of instance `wid`'s records, in is-lsn
    /// order.
    fn positions(&self, wid: Wid) -> Option<&[u32]> {
        Some(self.index.instance_records(self.index.ordinal(wid)?))
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
        let idx = (is_lsn.get() as usize).checked_sub(1)?;
        self.positions(wid)?
            .get(idx)
            .map(|&p| &self.records[p as usize])
    }

    /// The distinct instance ids present, in ascending order.
    pub fn wids(&self) -> impl Iterator<Item = Wid> + '_ {
        self.index.wids()
    }

    /// Number of distinct workflow instances.
    #[must_use]
    pub fn num_instances(&self) -> usize {
        self.index.num_instances()
    }

    /// The records of instance `wid` in is-lsn order (empty if unknown).
    pub fn instance(&self, wid: Wid) -> impl Iterator<Item = &LogRecord> + '_ {
        self.positions(wid)
            .unwrap_or_default()
            .iter()
            .map(move |&p| &self.records[p as usize])
    }

    /// Number of records of instance `wid` (0 if unknown).
    #[must_use]
    pub fn instance_len(&self, wid: Wid) -> usize {
        self.positions(wid).map_or(0, <[u32]>::len)
    }

    /// Returns `true` if instance `wid` has an `END` record.
    #[must_use]
    pub fn is_completed(&self, wid: Wid) -> bool {
        self.positions(wid)
            .and_then(<[u32]>::last)
            .is_some_and(|&p| self.records[p as usize].is_end())
    }

    /// The distinct activity names occurring in the log, sorted: the
    /// index's symbol table.
    #[must_use]
    pub fn activities(&self) -> Vec<Activity> {
        self.index.activities().to_vec()
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
        let positions = self.positions(wid).ok_or(LogError::UnknownInstance(wid))?;
        let mut records: Vec<LogRecord> = positions
            .iter()
            .map(|&p| self.records[p as usize].clone())
            .collect();
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
    fn postings_are_grouped_on_first_use_however_reached() {
        // The log's own field, read before `index()` has grouped anything.
        let log = Log::new(small_valid()).unwrap();
        let a = log.index.activity_id("A").unwrap();
        assert_eq!(log.index.instance_postings(0, a), &[IsLsn(2)]);
        let log = Log::new(small_valid()).unwrap();
        assert_eq!(log.index.activity_count(a), 1);
        assert_eq!(log.index().instance_postings(0, a), &[IsLsn(2)]);
        assert_eq!(log.index(), &Log::new(small_valid()).unwrap().index);
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
