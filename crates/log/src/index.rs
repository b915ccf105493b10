//! The dense index over a [`Log`] that query evaluation reads.
//!
//! Algorithm 2 of the paper assumes "an index structure for each workflow id
//! and activity … used to generate log records for an activity node in
//! constant time". [`LogIndex`] is that structure. It belongs to the log:
//! [`Log::new`] builds it in the same pass that checks Definition 2, and
//! [`Log::index`] lends it out, so no query indexes a log again. Its
//! layout is dense:
//!
//! - a symbol table interning each activity name as an [`ActivityId`]; ids
//!   follow name order;
//! - instance *ordinals* `0..n`, in ascending [`Wid`] order;
//! - an activity-id column in (instance, is-lsn) order, with CSR offsets:
//!   instance `o` owns entries `starts[o]..starts[o + 1]`, entry `i` of
//!   that range holding is-lsn `i + 1`;
//! - a record-offset column (`u32`) over the same entries, mapping
//!   (ordinal, is-lsn) to the record's position in [`Log::records`]; the
//!   log's own `(wid, is-lsn)` lookups read this column too, so it is
//!   stored once;
//! - postings over the same entries: each instance's is-lsns grouped by
//!   activity id, ascending within a group, with per-activity totals;
//! - per activity id, the ordinals of the instances it occurs in,
//!   ascending, in CSR form: one `u32` per (instance, activity) pair and
//!   one offset per id.
//!
//! The load pass fills the symbol table and the columns. The postings and
//! the per-activity instance lists are grouped from the activity-id
//! column on the first [`Log::index`] call, so a log that is only
//! replayed record by record (the streaming evaluator) never holds them.
//! Equality compares the columns; everything grouped is a function of
//! them.
//!
//! The load pass takes each record's activity id from the decoder that
//! interned the name (binary, text, CSV), or else maps the name to its id
//! itself; it keeps each record's instance ordinal from the validation
//! pass, so no wid is looked up twice. Its tables hash with the crate's
//! seeded Fx-style hasher; see the [`names`](crate::names) module docs
//! for the trust model.
//!
//! The engine resolves atoms to ids once per query and then works on
//! ordinals and ids only. The `Wid`/`&str` methods are allocation-free
//! wrappers for callers that hold names.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

use crate::log::Log;
use crate::names::{Activity, FxBuildHasher};
use crate::record::{IsLsn, Wid};

/// The dense id of an activity name in one [`LogIndex`]'s symbol table.
///
/// Ids are only meaningful for the index that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActivityId(pub u32);

impl ActivityId {
    /// The id as a position in per-activity tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Position of `is_lsn` in its instance's span (`is-lsn - 1`).
fn slot(is_lsn: IsLsn) -> usize {
    (is_lsn.get() as usize).wrapping_sub(1)
}

/// A dense inverted index over a log: interned activity ids, instance
/// ordinals, and per-instance postings in CSR form (see the module docs).
///
/// # Examples
///
/// ```
/// use wlq_log::{paper, Wid, IsLsn};
///
/// let log = paper::figure3_log();
/// let idx = log.index();
/// // SeeDoctor executed at is-lsn 4 and 6 in instance 1 (l9, l11).
/// assert_eq!(idx.postings(Wid(1), "SeeDoctor"), &[IsLsn(4), IsLsn(6)]);
/// // The same lookup in ids and ordinals.
/// let id = idx.activity_id("SeeDoctor").unwrap();
/// assert_eq!(idx.instance_postings(0, id), &[IsLsn(4), IsLsn(6)]);
/// // SeeDoctor runs in instances 1 and 2 (ordinals 0 and 1), not in 3.
/// assert_eq!(idx.activity_instances(id), &[0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct LogIndex {
    /// Symbol table: `names[id]`, sorted.
    names: Vec<Activity>,
    /// Instance ids by ordinal, ascending.
    wids: Vec<Wid>,
    /// CSR offsets into the per-entry columns; `len = wids.len() + 1`.
    starts: Vec<u32>,
    /// Activity id per entry, in (instance, is-lsn) order.
    activities: Vec<ActivityId>,
    /// Offset in [`Log::records`] per entry.
    records: Vec<u32>,
    /// The postings, grouped on first use (boxed: a `Log` that never
    /// groups them stays small).
    grouped: OnceLock<Box<Grouped>>,
}

/// The postings column, the per-activity instance lists and the
/// per-activity statistics read off them.
#[derive(Debug, Clone)]
struct Grouped {
    /// Per instance, its is-lsns grouped by activity id.
    postings: Vec<IsLsn>,
    /// CSR offsets into `instances`; `len = names.len() + 1`.
    instance_starts: Vec<u32>,
    /// Per activity id, the ordinals of the instances it occurs in,
    /// ascending: id `a` owns `instance_starts[a]..instance_starts[a + 1]`.
    instances: Vec<u32>,
    /// Executions per activity id over the whole log.
    totals: Vec<usize>,
    /// Largest per-instance posting count per activity id.
    max_postings: Vec<usize>,
}

/// Equality of the columns; the grouped postings are derived from them,
/// so whether they have been built yet does not matter.
impl PartialEq for LogIndex {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
            && self.wids == other.wids
            && self.starts == other.starts
            && self.activities == other.activities
            && self.records == other.records
    }
}

impl Eq for LogIndex {}

/// Numbers activity names densely in first-seen order during the load
/// pass, by name, for records that no decoder numbered.
#[derive(Default)]
pub(crate) struct Symbols<'a> {
    /// First-seen id by name.
    by_name: HashMap<&'a str, u32, FxBuildHasher>,
    /// The names in first-seen order.
    seen: Vec<Activity>,
}

impl<'a> Symbols<'a> {
    /// The first-seen id of `activity`. The `as u32` cannot truncate: a
    /// log has fewer distinct activities than records, and
    /// [`Log::new`] rejects logs of more than `u32::MAX` records.
    pub(crate) fn id(&mut self, activity: &'a Activity) -> u32 {
        let seen = &mut self.seen;
        *self.by_name.entry(activity.as_str()).or_insert_with(|| {
            seen.push(activity.clone());
            (seen.len() - 1) as u32
        })
    }

    /// The names in first-seen order: id `i` names entry `i`.
    pub(crate) fn into_seen(self) -> Vec<Activity> {
        self.seen
    }
}

/// The symbol table in name order, and each first-seen id's rank in it
/// (the final [`ActivityId`]).
pub(crate) fn rank(seen: &[Activity]) -> (Vec<Activity>, Vec<ActivityId>) {
    let mut order: Vec<usize> = (0..seen.len()).collect();
    order.sort_unstable_by(|&a, &b| seen[a].cmp(&seen[b]));
    let mut rank = vec![ActivityId(0); order.len()];
    for (new, &old) in order.iter().enumerate() {
        rank[old] = ActivityId(new as u32);
    }
    let names = order.iter().map(|&old| seen[old].clone()).collect();
    (names, rank)
}

impl LogIndex {
    /// The index over columns [`Log::new`] built in its load pass.
    pub(crate) fn from_columns(
        names: Vec<Activity>,
        wids: Vec<Wid>,
        starts: Vec<u32>,
        activities: Vec<ActivityId>,
        records: Vec<u32>,
    ) -> Self {
        LogIndex {
            names,
            wids,
            starts,
            activities,
            records,
            grouped: OnceLock::new(),
        }
    }

    /// A copy of the index `log` already owns.
    ///
    /// Kept for callers written before the log owned its index; new code
    /// borrows [`Log::index`] instead, which costs nothing.
    #[must_use]
    pub fn build(log: &Log) -> Self {
        log.index().clone()
    }

    /// Groups the postings now unless that was already done.
    pub(crate) fn group(&self) {
        self.grouped();
    }

    /// The grouped postings and instance lists, built from the
    /// activity-id column on first use.
    fn grouped(&self) -> &Grouped {
        self.grouped.get_or_init(|| {
            let mut postings = Vec::with_capacity(self.activities.len());
            let mut totals = vec![0; self.names.len()];
            let mut max_postings = vec![0; self.names.len()];
            // Instances per id, shifted by one: the prefix sums below turn
            // it into the CSR offsets.
            let mut instance_starts = vec![0u32; self.names.len() + 1];
            // Per instance, `(id, is-lsn)` packed into one sortable word.
            let mut keys: Vec<u64> = Vec::new();
            // The ids each instance runs, instance after instance.
            let mut runs: Vec<u32> = Vec::with_capacity(self.activities.len());
            let mut run_starts: Vec<u32> = Vec::with_capacity(self.wids.len() + 1);
            for ordinal in 0..self.wids.len() {
                keys.clear();
                keys.extend(
                    (1u32..)
                        .zip(self.instance_activities(ordinal))
                        .map(|(p, id)| u64::from(id.0) << 32 | u64::from(p)),
                );
                keys.sort_unstable();
                // The low half is the is-lsn, the high half the id.
                postings.extend(keys.iter().map(|&key| IsLsn(key as u32)));
                run_starts.push(runs.len() as u32);
                for run in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
                    let id = (run[0] >> 32) as usize;
                    totals[id] += run.len();
                    max_postings[id] = max_postings[id].max(run.len());
                    instance_starts[id + 1] += 1;
                    runs.push(id as u32);
                }
            }
            run_starts.push(runs.len() as u32);
            // The `u32` sums cannot overflow: there are no more (instance,
            // activity) pairs than records, and `Log::new` rejects logs of
            // more than `u32::MAX` records.
            for id in 0..self.names.len() {
                instance_starts[id + 1] += instance_starts[id];
            }
            // Each id's next free slot; ordinals arrive in ascending order.
            let mut fill = instance_starts.clone();
            let mut instances = vec![0u32; runs.len()];
            for (ordinal, span) in run_starts.windows(2).enumerate() {
                for &id in &runs[span[0] as usize..span[1] as usize] {
                    instances[fill[id as usize] as usize] = ordinal as u32;
                    fill[id as usize] += 1;
                }
            }
            Box::new(Grouped {
                postings,
                instance_starts,
                instances,
                totals,
                max_postings,
            })
        })
    }

    // ----- symbol table -------------------------------------------------

    /// The id of `activity`, if it occurs in the log.
    #[must_use]
    pub fn activity_id(&self, activity: &str) -> Option<ActivityId> {
        self.names
            .binary_search_by(|name| name.as_str().cmp(activity))
            .ok()
            .map(|i| ActivityId(i as u32))
    }

    /// The name of activity `id`.
    #[must_use]
    pub fn activity(&self, id: ActivityId) -> Option<&Activity> {
        self.names.get(id.index())
    }

    /// The distinct activity names, sorted; position `i` has id `i`.
    #[must_use]
    pub fn activities(&self) -> &[Activity] {
        &self.names
    }

    /// Executions of activity `id` across all instances.
    #[must_use]
    pub fn activity_count(&self, id: ActivityId) -> usize {
        self.grouped().totals.get(id.index()).copied().unwrap_or(0)
    }

    /// The largest number of executions of activity `id` in one instance.
    #[must_use]
    pub fn max_instance_postings(&self, id: ActivityId) -> usize {
        self.grouped()
            .max_postings
            .get(id.index())
            .copied()
            .unwrap_or(0)
    }

    /// The ordinals of the instances in which activity `id` occurs,
    /// ascending (empty for an id the index did not issue).
    #[must_use]
    pub fn activity_instances(&self, id: ActivityId) -> &[u32] {
        let grouped = self.grouped();
        match grouped.instance_starts.get(id.index()..id.index() + 2) {
            Some(&[lo, hi]) => &grouped.instances[lo as usize..hi as usize],
            _ => &[],
        }
    }

    // ----- ordinals -----------------------------------------------------

    /// Number of instances.
    #[must_use]
    pub fn num_instances(&self) -> usize {
        self.wids.len()
    }

    /// Number of records indexed, `|L|`.
    #[must_use]
    pub fn num_records(&self) -> usize {
        self.activities.len()
    }

    /// The instance ids by ordinal: `instance_wids()[o]` is the wid of
    /// ordinal `o`, ascending.
    #[must_use]
    pub fn instance_wids(&self) -> &[Wid] {
        &self.wids
    }

    /// The ordinal of instance `wid`.
    #[must_use]
    pub fn ordinal(&self, wid: Wid) -> Option<usize> {
        self.wids.binary_search(&wid).ok()
    }

    /// The entries of ordinal `o` in the per-entry columns (empty if out
    /// of range).
    #[inline]
    fn span(&self, ordinal: usize) -> Range<usize> {
        match self.starts.get(ordinal..ordinal.saturating_add(2)) {
            Some(&[lo, hi]) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }

    /// The activity ids of instance `ordinal` in is-lsn order: entry `i`
    /// is the activity at is-lsn `i + 1`.
    #[must_use]
    #[inline]
    pub fn instance_activities(&self, ordinal: usize) -> &[ActivityId] {
        &self.activities[self.span(ordinal)]
    }

    /// The offsets in [`Log::records`] of instance `ordinal`'s records,
    /// in is-lsn order.
    #[inline]
    pub(crate) fn instance_records(&self, ordinal: usize) -> &[u32] {
        &self.records[self.span(ordinal)]
    }

    /// The is-lsns at which activity `id` executed in instance `ordinal`,
    /// ascending.
    #[must_use]
    #[inline]
    pub fn instance_postings(&self, ordinal: usize, id: ActivityId) -> &[IsLsn] {
        // The engine calls this per instance and atom. Grouping is a tail
        // call out of line, so this path makes no call and saves no
        // registers for one.
        let Some(grouped) = self.grouped.get() else {
            return self.instance_postings_after_grouping(ordinal, id);
        };
        let span = self.span(ordinal);
        let column = &self.activities[span.clone()];
        let group = &grouped.postings[span];
        let lo = group.partition_point(|&p| column[slot(p)] < id);
        let len = group[lo..].partition_point(|&p| column[slot(p)] == id);
        &group[lo..lo + len]
    }

    /// [`instance_postings`](Self::instance_postings) on an index whose
    /// postings are not grouped yet.
    #[cold]
    #[inline(never)]
    fn instance_postings_after_grouping(&self, ordinal: usize, id: ActivityId) -> &[IsLsn] {
        self.group();
        self.instance_postings(ordinal, id)
    }

    /// The offset in [`Log::records`] of the record at `(ordinal,
    /// is_lsn)`.
    #[must_use]
    #[inline]
    pub fn record_offset(&self, ordinal: usize, is_lsn: IsLsn) -> Option<usize> {
        self.instance_records(ordinal)
            .get(slot(is_lsn))
            .map(|&offset| offset as usize)
    }

    // ----- wid / name wrappers ------------------------------------------

    /// The instance ids covered by the index, ascending.
    pub fn wids(&self) -> impl Iterator<Item = Wid> + '_ {
        self.wids.iter().copied()
    }

    /// The is-lsns at which `activity` executed in instance `wid`,
    /// ascending; empty if it never did.
    #[must_use]
    pub fn postings(&self, wid: Wid, activity: &str) -> &[IsLsn] {
        match (self.ordinal(wid), self.activity_id(activity)) {
            (Some(ordinal), Some(id)) => self.instance_postings(ordinal, id),
            _ => &[],
        }
    }

    /// Number of records of instance `wid` (0 if unknown).
    #[must_use]
    pub fn instance_len(&self, wid: Wid) -> usize {
        self.ordinal(wid).map_or(0, |o| self.span(o).len())
    }

    /// The activity executed at `(wid, is_lsn)`.
    #[must_use]
    pub fn activity_at(&self, wid: Wid, is_lsn: IsLsn) -> Option<&Activity> {
        let column = self.instance_activities(self.ordinal(wid)?);
        self.activity(*column.get(slot(is_lsn))?)
    }

    /// The is-lsns of instance `wid` whose activity is *not* `activity`
    /// (matches the negated atomic pattern `¬t`), ascending.
    #[must_use]
    pub fn complement_postings(&self, wid: Wid, activity: &str) -> Vec<IsLsn> {
        let Some(ordinal) = self.ordinal(wid) else {
            return Vec::new();
        };
        let id = self.activity_id(activity);
        (1..)
            .zip(self.instance_activities(ordinal))
            .filter(|&(_, &a)| Some(a) != id)
            .map(|(p, _)| IsLsn(p))
            .collect()
    }

    /// Count of executions of `activity` across all instances; this is the
    /// selectivity statistic the optimizer uses.
    #[must_use]
    pub fn total_count(&self, activity: &str) -> usize {
        self.activity_id(activity)
            .map_or(0, |id| self.activity_count(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrMap;
    use crate::builder::LogBuilder;
    use crate::record::LogRecord;

    fn sample() -> Log {
        let mut b = LogBuilder::new();
        let w1 = b.start_instance();
        let w2 = b.start_instance();
        for a in ["A", "B", "A"] {
            b.append(w1, a, AttrMap::new(), AttrMap::new()).unwrap();
        }
        b.append(w2, "B", AttrMap::new(), AttrMap::new()).unwrap();
        b.end_instance(w1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn postings_are_per_instance_and_sorted() {
        let log = sample();
        let idx = log.index();
        assert_eq!(idx.postings(Wid(1), "A"), &[IsLsn(2), IsLsn(4)]);
        assert_eq!(idx.postings(Wid(1), "B"), &[IsLsn(3)]);
        assert_eq!(idx.postings(Wid(2), "A"), &[] as &[IsLsn]);
        assert_eq!(idx.postings(Wid(2), "B"), &[IsLsn(2)]);
    }

    #[test]
    fn start_and_end_are_indexed_like_activities() {
        let log = sample();
        let idx = log.index();
        assert_eq!(idx.postings(Wid(1), "START"), &[IsLsn(1)]);
        assert_eq!(idx.postings(Wid(1), "END"), &[IsLsn(5)]);
        assert_eq!(idx.postings(Wid(2), "END"), &[] as &[IsLsn]);
    }

    #[test]
    fn activity_at_reads_the_sequence() {
        let log = sample();
        let idx = log.index();
        assert_eq!(idx.activity_at(Wid(1), IsLsn(2)).unwrap().as_str(), "A");
        assert_eq!(idx.activity_at(Wid(1), IsLsn(5)).unwrap().as_str(), "END");
        assert_eq!(idx.activity_at(Wid(1), IsLsn(6)), None);
        assert_eq!(idx.activity_at(Wid(9), IsLsn(1)), None);
    }

    #[test]
    fn complement_postings_match_negated_atoms() {
        let log = sample();
        let idx = log.index();
        assert_eq!(
            idx.complement_postings(Wid(1), "A"),
            vec![IsLsn(1), IsLsn(3), IsLsn(5)]
        );
        assert_eq!(idx.complement_postings(Wid(9), "A"), Vec::<IsLsn>::new());
    }

    #[test]
    fn total_count_sums_instances() {
        let log = sample();
        let idx = log.index();
        assert_eq!(idx.total_count("A"), 2);
        assert_eq!(idx.total_count("B"), 2);
        assert_eq!(idx.total_count("START"), 2);
        assert_eq!(idx.total_count("Nope"), 0);
    }

    #[test]
    fn instance_len_matches_log() {
        let log = sample();
        let idx = log.index();
        assert_eq!(idx.instance_len(Wid(1)), log.instance_len(Wid(1)));
        assert_eq!(idx.instance_len(Wid(2)), log.instance_len(Wid(2)));
        assert_eq!(idx.num_instances(), 2);
    }

    #[test]
    fn index_of_figure3_matches_example5() {
        let log = crate::paper::figure3_log();
        let idx = log.index();
        // Example 5: incL(SeeDoctor) = {l9, l11, l13, l17}.
        let mut hits: Vec<(Wid, IsLsn)> = Vec::new();
        for w in idx.wids() {
            for &p in idx.postings(w, "SeeDoctor") {
                hits.push((w, p));
            }
        }
        let lsns: Vec<u64> = hits
            .iter()
            .map(|&(w, p)| log.record(w, p).unwrap().lsn().get())
            .collect();
        assert_eq!(lsns, vec![9, 11, 13, 17]);
    }

    #[test]
    fn single_record_instances_index_cleanly() {
        let log = Log::new(vec![LogRecord::start(1, 1u64)]).unwrap();
        let idx = log.index();
        assert_eq!(idx.instance_len(Wid(1)), 1);
        assert_eq!(idx.postings(Wid(1), "START"), &[IsLsn(1)]);
    }

    #[test]
    fn ids_follow_name_order_and_ordinals_follow_wids() {
        let log = sample();
        let idx = log.index();
        let names: Vec<&str> = idx.activities().iter().map(Activity::as_str).collect();
        assert_eq!(names, ["A", "B", "END", "START"]);
        assert_eq!(idx.activity_id("B"), Some(ActivityId(1)));
        assert_eq!(idx.activity_id("Nope"), None);
        assert_eq!(idx.activity(ActivityId(2)).unwrap().as_str(), "END");
        assert_eq!(idx.activity(ActivityId(9)), None);
        assert_eq!(idx.instance_wids(), &[Wid(1), Wid(2)]);
        assert_eq!(idx.ordinal(Wid(2)), Some(1));
        assert_eq!(idx.ordinal(Wid(3)), None);
        assert_eq!(idx.num_records(), 7);
    }

    #[test]
    fn id_columns_and_postings_by_ordinal() {
        let log = sample();
        let idx = log.index();
        let [a, b, end, start] = [0, 1, 2, 3].map(ActivityId);
        assert_eq!(idx.instance_activities(0), &[start, a, b, a, end]);
        assert_eq!(idx.instance_activities(1), &[start, b]);
        assert_eq!(idx.instance_activities(2), &[] as &[ActivityId]);
        assert_eq!(idx.instance_postings(0, a), &[IsLsn(2), IsLsn(4)]);
        assert_eq!(idx.instance_postings(1, a), &[] as &[IsLsn]);
        assert_eq!(idx.instance_postings(7, a), &[] as &[IsLsn]);
        assert_eq!(idx.activity_count(a), 2);
        assert_eq!(idx.max_instance_postings(a), 2);
        assert_eq!(idx.max_instance_postings(b), 1);
        for (ordinal, wid) in idx.wids().enumerate() {
            for record in log.instance(wid) {
                let offset = idx.record_offset(ordinal, record.is_lsn()).unwrap();
                assert_eq!(&log.records()[offset], record);
            }
        }
        assert_eq!(idx.record_offset(1, IsLsn(3)), None);
        assert_eq!(idx.record_offset(0, IsLsn(0)), None);
    }

    #[test]
    fn activity_instances_list_the_ordinals_running_each_id() {
        let log = sample();
        let idx = log.index();
        let [a, b, end, start] = [0, 1, 2, 3].map(ActivityId);
        assert_eq!(idx.activity_instances(a), &[0]);
        assert_eq!(idx.activity_instances(b), &[0, 1]);
        assert_eq!(idx.activity_instances(end), &[0]);
        assert_eq!(idx.activity_instances(start), &[0, 1]);
        assert_eq!(idx.activity_instances(ActivityId(4)), &[] as &[u32]);
        // Figure 3: CheckIn runs in wids 1 and 2, not in wid 3.
        let log = crate::paper::figure3_log();
        let idx = log.index();
        let check_in = idx.activity_id("CheckIn").unwrap();
        assert_eq!(idx.activity_instances(check_in), &[0, 1]);
    }
}
