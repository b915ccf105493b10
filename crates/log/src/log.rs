//! The [`Log`] container and its validity checking (Definition 2).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use bytes::BytesMut;

use crate::attrs::{AttrDict, AttrMapRef, MapColumns, NO_MAP};
use crate::error::LogError;
use crate::index::{rank, ActivityId, LogIndex};
use crate::io::{binary, Load};
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
/// A `Log` is immutable once constructed. Every log is made by one load
/// pass, which [`Log::new`] and the binary, text, CSV and XES readers
/// share: it validates all four conditions and, in the same pass, lays
/// out the log's [`LogIndex`] ([`Log::index`]). The index's columns hold
/// every record's lsn, wid, is-lsn and activity, and the log keeps its
/// attribute maps as columns too: per record, the number of each of its
/// two maps in its activity's lazy attribute block (8 bytes). Queries
/// read the maps through [`Log::maps`]. The [`LogRecord`]s are built,
/// once, only when a caller asks for them: [`records`](Self::records),
/// [`iter`](Self::iter), [`get`](Self::get), [`record`](Self::record),
/// [`instance`](Self::instance), [`into_records`](Self::into_records),
/// equality and `Display`.
///
/// Two logs are equal when their records are. For incremental
/// construction use [`LogBuilder`](crate::LogBuilder); for append-only
/// consumption (the streaming evaluator) see [`Log::records`] and the
/// engine crate.
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
    /// The dense index; its columns are the records' lsns, wids, is-lsns
    /// and activities, and its record-offset column also serves the
    /// log's own `(wid, is-lsn)` lookups.
    index: LogIndex,
    /// The maps and the records built from the columns, boxed: one
    /// allocation per log, so that a `Log` moves as its index and a
    /// pointer.
    decoded: Box<Decoded>,
}

/// A log's maps as columns, and its records, built from the index and
/// the columns on first request.
#[derive(Debug, Clone)]
struct Decoded {
    maps: MapColumns,
    records: OnceLock<Vec<LogRecord>>,
}

/// Equality of the records.
impl PartialEq for Log {
    fn eq(&self, other: &Self) -> bool {
        self.records() == other.records()
    }
}

impl Eq for Log {}

/// Numbers instances in first-seen order by wid.
#[derive(Default)]
struct Instances {
    ordinals: HashMap<Wid, u32, FxBuildHasher>,
    /// The wids by ordinal.
    wids: Vec<Wid>,
}

impl Instances {
    /// The ordinal of `wid`, numbered on first sight.
    fn ordinal(&mut self, wid: Wid) -> u32 {
        let wids = &mut self.wids;
        *self.ordinals.entry(wid).or_insert_with(|| {
            wids.push(wid);
            // Past `u32::MAX` instances there are more records than the
            // load pass accepts.
            u32::try_from(wids.len() - 1).unwrap_or(u32::MAX)
        })
    }
}

/// A load's records as columns, in file order: 14 bytes per record
/// while each lsn is its row's position plus one.
pub(crate) struct Rows {
    /// The lsns, once one is not its row's position plus one; until then
    /// they are implied.
    lsns: Option<Vec<u64>>,
    /// First-seen instance ordinals.
    ordinals: Vec<u32>,
    instances: Instances,
    is_lsns: Vec<IsLsn>,
    /// First-seen activity ids.
    activities: Vec<u32>,
    /// Whether the input and the output map are non-empty.
    filled: Vec<[bool; 2]>,
}

impl Rows {
    /// Rows with room for `n` records.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Rows {
            lsns: None,
            ordinals: Vec::with_capacity(n),
            instances: Instances::default(),
            is_lsns: Vec::with_capacity(n),
            activities: Vec::with_capacity(n),
            filled: Vec::with_capacity(n),
        }
    }

    /// Adds a record: its lsn, wid, is-lsn and first-seen activity id,
    /// and whether each of its maps is non-empty.
    pub(crate) fn push(
        &mut self,
        (lsn, wid, is_lsn, activity): (u64, u64, u32, u32),
        filled: [bool; 2],
    ) {
        let at = self.activities.len() as u64;
        match &mut self.lsns {
            Some(lsns) => lsns.push(lsn),
            None if lsn == at + 1 => {}
            None => self.lsns = Some((1..=at).chain([lsn]).collect()),
        }
        self.ordinals.push(self.instances.ordinal(Wid(wid)));
        self.is_lsns.push(IsLsn(is_lsn));
        self.activities.push(activity);
        self.filled.push(filled);
    }

    /// The lsn of row `i`.
    fn lsn(&self, i: usize) -> Lsn {
        Lsn(self.lsns.as_ref().map_or(i as u64 + 1, |lsns| lsns[i]))
    }

    /// Each row's map numbers in its activity's block, [`NO_MAP`] for an
    /// empty map: a block numbers its maps as the load filed them, in
    /// file order, input before output.
    fn number_maps(&self, activities: usize) -> Vec<[u32; 2]> {
        let mut next = vec![0u32; activities];
        (self.activities.iter().zip(&self.filled))
            .map(|(&activity, filled)| {
                filled.map(|filled| {
                    let next = &mut next[activity as usize];
                    if !filled {
                        return NO_MAP;
                    }
                    *next += 1;
                    *next - 1
                })
            })
            .collect()
    }

    /// Sorts the rows, and `maps` with them, by lsn, stably, unless they
    /// already ascend.
    fn sort(&mut self, maps: &mut Vec<[u32; 2]>) {
        fn permute<T: Copy>(column: &mut Vec<T>, order: &[u32]) {
            *column = order.iter().map(|&i| column[i as usize]).collect();
        }
        let Some(lsns) = &mut self.lsns else {
            return;
        };
        if lsns.is_sorted() {
            return;
        }
        // Fewer rows than `u32::MAX`: `Log::decoded` checked.
        let mut order: Vec<u32> = (0..lsns.len() as u32).collect();
        order.sort_by_key(|&i| lsns[i as usize]);
        permute(lsns, &order);
        permute(&mut self.ordinals, &order);
        permute(&mut self.is_lsns, &order);
        permute(&mut self.activities, &order);
        permute(maps, &order);
    }
}

/// Per-instance validation state, indexed by first-appearance ordinal.
struct Instance {
    wid: Wid,
    /// Records seen so far, which is also the last is-lsn seen.
    len: u32,
    /// An `END` record has been seen.
    closed: bool,
}

/// Refuses an empty log, and one whose record offsets do not fit the
/// index's `u32`.
fn check_len(len: usize) -> Result<(), LogError> {
    if len == 0 {
        return Err(LogError::Empty);
    }
    if u32::try_from(len).is_err() {
        return Err(LogError::TooManyRecords(len));
    }
    Ok(())
}

/// Checks Definition 2 over `rows`, sorted by lsn, whose first-seen
/// activity ids name `seen`, and lays out their index. Returns it with
/// each first-seen id's final [`ActivityId`].
///
/// Condition 1 is checked first. Conditions 2–4 are checked in one pass
/// in lsn order over dense per-instance state, which also sizes each
/// instance. A second pass places each record in the CSR columns.
fn layout(rows: &Rows, seen: &[Activity]) -> Result<(LogIndex, Vec<ActivityId>), LogError> {
    let Rows {
        ordinals,
        instances: Instances { wids, .. },
        is_lsns,
        activities: ids,
        ..
    } = rows;
    // Condition 1: lsns are a bijection with 1..=|L|.
    for i in 0..ids.len() {
        let expected = Lsn(i as u64 + 1);
        let found = rows.lsn(i);
        if found != expected {
            // Distinguish duplicates from gaps for better messages.
            if i > 0 && rows.lsn(i - 1) == found {
                return Err(LogError::DuplicateLsn(found));
            }
            return Err(LogError::LsnGap { expected, found });
        }
    }

    // Conditions 2–4, checked in one pass in lsn order.
    let id_of = |is: fn(&Activity) -> bool| seen.iter().position(is).map(|id| id as u32);
    let (start, end) = (id_of(Activity::is_start), id_of(Activity::is_end));
    let mut instances: Vec<Instance> = (wids.iter())
        .map(|&wid| Instance {
            wid,
            len: 0,
            closed: false,
        })
        .collect();
    for (i, (&ordinal, &id)) in ordinals.iter().zip(ids).enumerate() {
        let (lsn, is_lsn) = (rows.lsn(i), is_lsns[i]);
        let state = &mut instances[ordinal as usize];
        let wid = state.wid;
        if state.closed {
            return Err(LogError::RecordAfterEnd { wid, lsn });
        }
        // Condition 2: is-lsn = 1 iff START.
        if (is_lsn == IsLsn::FIRST) != (Some(id) == start) {
            return Err(LogError::StartMismatch { lsn, wid });
        }
        // Condition 3: consecutive is-lsn per instance, in lsn order.
        if u64::from(is_lsn.get()) != u64::from(state.len) + 1 {
            return Err(LogError::NonConsecutiveIsLsn {
                wid,
                expected: IsLsn(state.len.saturating_add(1)),
                found: is_lsn,
            });
        }
        state.len = is_lsn.get();
        state.closed = Some(id) == end;
    }

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
    // range; the pass reads the ordinal and id columns, not the records.
    // First-seen activity numbers are renumbered into name order.
    let (names, rank) = rank(seen);
    let mut offsets = vec![0u32; ids.len()];
    let mut activities = vec![ActivityId(0); ids.len()];
    for (i, (&ordinal, &id)) in (0u32..).zip(ordinals.iter().zip(ids)) {
        let entry = &mut next[ordinal as usize];
        offsets[*entry as usize] = i;
        activities[*entry as usize] = rank[id as usize];
        *entry += 1;
    }

    let index = LogIndex::from_columns(names, wids, starts, activities, offsets);
    Ok((index, rank))
}

/// A log's records in lsn order, built from its index and map columns.
fn build_records(index: &LogIndex, maps: &MapColumns) -> Vec<LogRecord> {
    let (starts, activities, offsets) = index.columns();
    let (wids, names) = (index.instance_wids(), index.activities());
    // Each record's instance ordinal and entry, by lsn.
    let mut at = vec![(0u32, 0u32); offsets.len()];
    for (ordinal, span) in (0u32..).zip(starts.windows(2)) {
        for entry in span[0]..span[1] {
            at[offsets[entry as usize] as usize] = (ordinal, entry);
        }
    }
    (1u64..)
        .zip(at)
        .map(|(lsn, (ordinal, entry))| {
            let ordinal = ordinal as usize;
            let activity = activities[entry as usize].index();
            let [input, output] = maps.maps(activity, entry as usize);
            let is_lsn = entry - starts[ordinal] + 1;
            let name = names[activity].clone();
            LogRecord::new(lsn, wids[ordinal], is_lsn, name, input, output)
        })
        .collect()
}

impl Log {
    /// Builds a log from records, validating Definition 2, through the
    /// decoders' load pass: the records are filed as the binary decoder
    /// files a file's. Each record's lsn, wid, is-lsn and activity go
    /// into the load's columns, and each non-empty map is appended, as
    /// the binary format encodes it, to one buffer that its activity's
    /// lazy attribute block shares. The log keeps no record; like a
    /// decoded log's, they are built on first request.
    ///
    /// The records may be supplied in any order; they are sorted by lsn
    /// unless they already ascend. Conditions 2–4 are checked in one pass
    /// in lsn order over dense per-instance state, which also sizes each
    /// instance. A second pass places each record in the CSR columns of
    /// the log's [`LogIndex`] and gives it its activity id.
    ///
    /// # Errors
    ///
    /// Returns a [`LogError`] describing the first violated condition, or
    /// [`LogError::TooManyRecords`] past `u32::MAX` records, or past
    /// `u32::MAX` attribute entries over all the maps.
    pub fn new(records: Vec<LogRecord>) -> Result<Self, LogError> {
        let len = records.len();
        check_len(len)?;
        let mut load = Load::with_capacity(len);
        let mut maps = BytesMut::default();
        for record in records {
            let activity = load.names.activity_id(record.activity().as_str());
            let mut filled = [false; 2];
            for (filled, map) in filled.iter_mut().zip([record.input(), record.output()]) {
                let encode = |buf: &mut BytesMut| binary::put_entries(buf, map);
                *filled = (load.put_map(&mut maps, activity, map.len(), encode))
                    .ok_or(LogError::TooManyRecords(len))?;
            }
            let (lsn, wid, is_lsn) = (record.lsn(), record.wid(), record.is_lsn());
            load.push((lsn.get(), wid.get(), is_lsn.get(), activity), filled);
        }
        load.finish(Some(Vec::from(maps.freeze())), 0)
    }

    /// The log of a load's `rows`, whose first-seen activity ids name
    /// `seen`, and whose non-empty maps the load filed into `blocks`,
    /// by first-seen activity id. The rows are sorted by lsn unless they
    /// already ascend.
    pub(crate) fn decoded(
        mut rows: Rows,
        seen: &[Activity],
        blocks: Vec<Option<Arc<AttrDict>>>,
    ) -> Result<Self, LogError> {
        check_len(rows.activities.len())?;
        let mut maps = rows.number_maps(seen.len());
        rows.sort(&mut maps);
        let (index, rank) = layout(&rows, seen)?;
        // The blocks by final activity id, and the map numbers by entry;
        // a load with no non-empty map has no blocks.
        let mut by_id = vec![None; seen.len()];
        for (block, id) in blocks.into_iter().zip(&rank) {
            by_id[id.index()] = block;
        }
        let numbers = if by_id.iter().all(Option::is_none) {
            Vec::new()
        } else {
            let (_, _, offsets) = index.columns();
            offsets.iter().map(|&i| maps[i as usize]).collect()
        };
        Ok(Log {
            index,
            decoded: Box::new(Decoded {
                maps: MapColumns::new(by_id, numbers),
                records: OnceLock::new(),
            }),
        })
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
        self.index.num_records()
    }

    /// Returns `true` if the log holds no records. Always `false` for a
    /// validated log (Definition 2 requires nonemptiness); provided for
    /// the standard container contract.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All records in lsn order, built on the first call of this or any
    /// other method that lends out records, and kept.
    #[must_use]
    pub fn records(&self) -> &[LogRecord] {
        let Decoded { maps, records } = &*self.decoded;
        records.get_or_init(|| build_records(&self.index, maps))
    }

    /// The input and output maps (`αin`, `αout`) of the record at
    /// `(ordinal, is_lsn)`, where `ordinal` is the instance's ordinal in
    /// [`Log::index`]; `None` if there is no such record. Builds no
    /// record: reads the map columns, parsing the activity's attribute
    /// block on its first read.
    #[must_use]
    pub fn maps(&self, ordinal: usize, is_lsn: IsLsn) -> Option<[AttrMapRef<'_>; 2]> {
        let entry = self.index.entry(ordinal, is_lsn)?;
        let (_, activities, _) = self.index.columns();
        Some(self.decoded.maps.view(activities[entry].index(), entry))
    }

    /// Iterates over records in lsn order.
    pub fn iter(&self) -> std::slice::Iter<'_, LogRecord> {
        self.records().iter()
    }

    /// Looks up the record with global sequence number `lsn`.
    #[must_use]
    pub fn get(&self, lsn: Lsn) -> Option<&LogRecord> {
        let idx = lsn.get().checked_sub(1)? as usize;
        self.records().get(idx)
    }

    /// Looks up a record by `(wid, is-lsn)` — the coordinates incident
    /// semantics work in.
    #[must_use]
    pub fn record(&self, wid: Wid, is_lsn: IsLsn) -> Option<&LogRecord> {
        let idx = (is_lsn.get() as usize).checked_sub(1)?;
        let &offset = self.positions(wid)?.get(idx)?;
        self.records().get(offset as usize)
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
        let positions = self.positions(wid).unwrap_or_default();
        let records = if positions.is_empty() {
            &[]
        } else {
            self.records()
        };
        positions.iter().map(move |&p| &records[p as usize])
    }

    /// Number of records of instance `wid` (0 if unknown).
    #[must_use]
    pub fn instance_len(&self, wid: Wid) -> usize {
        self.positions(wid).map_or(0, <[u32]>::len)
    }

    /// Returns `true` if instance `wid` has an `END` record.
    #[must_use]
    pub fn is_completed(&self, wid: Wid) -> bool {
        self.index
            .ordinal(wid)
            .and_then(|ordinal| self.index.instance_activities(ordinal).last())
            .and_then(|&id| self.index.activity(id))
            .is_some_and(Activity::is_end)
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
        let Decoded { maps, records } = *self.decoded;
        records
            .into_inner()
            .unwrap_or_else(|| build_records(&self.index, &maps))
    }

    /// Extracts the single-instance sub-log of `wid`, re-numbering lsns to
    /// `1..` while preserving order (used by partitioned evaluation).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::UnknownInstance`] if `wid` is not in the log.
    pub fn project_instance(&self, wid: Wid) -> Result<Log, LogError> {
        if self.positions(wid).is_none() {
            return Err(LogError::UnknownInstance(wid));
        }
        let mut records: Vec<LogRecord> = self.instance(wid).cloned().collect();
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
        for r in self {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Log {
    type Item = &'a LogRecord;
    type IntoIter = std::slice::Iter<'a, LogRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
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

    /// Whether a log has built its records.
    fn built(log: &Log) -> bool {
        log.decoded.records.get().is_some()
    }

    #[test]
    fn decoded_logs_lend_maps_and_build_records_only_when_asked() {
        let text = "1 | 7 | 1 | START | - | -\n\
                    2 | 7 | 2 | A | x=1 | y=2, z=3\n\
                    3 | 9 | 1 | START | - | -\n\
                    4 | 7 | 3 | END | - | -\n";
        let log = crate::io::text::read_text(text).unwrap();
        assert_eq!((log.len(), log.num_instances()), (4, 2));
        assert!(log.is_completed(Wid(7)) && !log.is_completed(Wid(9)));
        let [input, output] = log.maps(0, IsLsn(2)).unwrap();
        assert_eq!(input.get("x"), Some(&crate::Value::Int(1)));
        assert_eq!(output.len(), 2);
        assert!(log.maps(0, IsLsn(1)).unwrap().iter().all(|m| m.is_empty()));
        assert_eq!(log.maps(0, IsLsn(4)), None);
        assert_eq!(log.maps(2, IsLsn(1)), None);
        assert_eq!(log.maps(0, IsLsn(0)), None);
        assert!(!built(&log));
        let record = log.record(Wid(7), IsLsn(2)).unwrap();
        assert!(built(&log));
        assert_eq!((record.lsn(), record.activity().as_str()), (Lsn(2), "A"));
        assert_eq!(record.output().to_string(), "y=2, z=3");
        assert_eq!(log.maps(0, IsLsn(2)).unwrap()[1], record.output().view());
        // A log built from records keeps columns too.
        let rebuilt = Log::new(log.clone().into_records()).unwrap();
        assert_eq!(rebuilt.maps(0, IsLsn(2)), log.maps(0, IsLsn(2)));
        assert!(!built(&rebuilt));
        assert_eq!(rebuilt, log);
    }

    #[test]
    fn unsorted_decoded_rows_are_sorted_with_their_maps() {
        // Lsns out of order from the first row, and from a later one.
        for text in [
            "2 | 1 | 2 | A | - | x=2\n1 | 1 | 1 | START | - | -\n3 | 1 | 3 | B | y=3 | -\n",
            "1 | 1 | 1 | START | - | -\n3 | 1 | 3 | B | y=3 | -\n2 | 1 | 2 | A | - | x=2\n",
        ] {
            let log = crate::io::text::read_text(text).unwrap();
            let [_, output] = log.maps(0, IsLsn(2)).unwrap();
            assert_eq!(output.get("x"), Some(&crate::Value::Int(2)));
            assert_eq!(log.maps(0, IsLsn(3)).unwrap()[0].len(), 1);
            assert_eq!(log.get(Lsn(2)).unwrap().activity().as_str(), "A");
            assert_eq!(log.get(Lsn(3)).unwrap().input().to_string(), "y=3");
        }
        let text = "1 | 1 | 1 | START | - | -\n1 | 1 | 2 | A | - | -\n";
        assert_eq!(
            crate::io::text::read_text(text),
            Err(LogError::DuplicateLsn(Lsn(1)).into())
        );
    }

    #[test]
    fn display_has_header_and_one_line_per_record() {
        let log = Log::new(small_valid()).unwrap();
        let text = log.to_string();
        assert_eq!(text.lines().count(), 7);
        assert!(text.starts_with("lsn | wid"));
    }
}
