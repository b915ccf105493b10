//! Secondary indexes over a [`Log`] used by query evaluation.
//!
//! Algorithm 2 of the paper assumes "an index structure for each workflow id
//! and activity … used to generate log records for an activity node in
//! constant time". [`LogIndex`] is that structure, laid out densely and
//! built in one pass over the log:
//!
//! - a symbol table interning each activity name as an [`ActivityId`]; ids
//!   follow name order;
//! - instance *ordinals* `0..n`, in ascending [`Wid`] order;
//! - an activity-id column in (instance, is-lsn) order, with CSR offsets:
//!   instance `o` owns entries `starts[o]..starts[o + 1]`, entry `i` of
//!   that range holding is-lsn `i + 1`;
//! - a record-offset column over the same entries, mapping (ordinal,
//!   is-lsn) to the record's position in [`Log::records`];
//! - postings over the same entries: each instance's is-lsns grouped by
//!   activity id, ascending within a group.
//!
//! The engine resolves atoms to ids once per query and then works on
//! ordinals and ids only. The `Wid`/`&str` methods are allocation-free
//! wrappers for callers that hold names.

use std::collections::HashMap;
use std::ops::Range;

use crate::log::Log;
use crate::names::Activity;
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
/// use wlq_log::{paper, LogIndex, Wid, IsLsn};
///
/// let log = paper::figure3_log();
/// let idx = LogIndex::build(&log);
/// // SeeDoctor executed at is-lsn 4 and 6 in instance 1 (l9, l11).
/// assert_eq!(idx.postings(Wid(1), "SeeDoctor"), &[IsLsn(4), IsLsn(6)]);
/// // The same lookup in ids and ordinals.
/// let id = idx.activity_id("SeeDoctor").unwrap();
/// assert_eq!(idx.instance_postings(0, id), &[IsLsn(4), IsLsn(6)]);
/// ```
#[derive(Debug, Clone)]
pub struct LogIndex {
    /// Symbol table: `names[id]`, sorted.
    names: Vec<Activity>,
    /// Executions per activity id over the whole log.
    totals: Vec<usize>,
    /// Largest per-instance posting count per activity id.
    max_postings: Vec<usize>,
    /// Instance ids by ordinal, ascending.
    wids: Vec<Wid>,
    /// CSR offsets into the three per-entry columns; `len = wids.len() + 1`.
    starts: Vec<usize>,
    /// Activity id per entry, in (instance, is-lsn) order.
    activities: Vec<ActivityId>,
    /// Offset in [`Log::records`] per entry.
    records: Vec<usize>,
    /// Per instance, its is-lsns grouped by activity id.
    postings: Vec<IsLsn>,
}

impl LogIndex {
    /// Builds the index in a single pass over the log.
    #[must_use]
    pub fn build(log: &Log) -> Self {
        let all = log.records();
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut seen: Vec<&Activity> = Vec::new();
        let mut wids = Vec::with_capacity(log.num_instances());
        let mut starts = Vec::with_capacity(log.num_instances() + 1);
        let mut activities = Vec::with_capacity(all.len());
        let mut records = Vec::with_capacity(all.len());
        starts.push(0);
        // The `as u32` casts below cannot truncate: a log has fewer than
        // 2³² distinct activities (each needs its own record), and an
        // instance at most 2³² − 1 records (is-lsns are `u32`).
        for (wid, offsets) in log.instance_offsets() {
            for &offset in offsets {
                let activity = all[offset].activity();
                let id = *ids.entry(activity.as_str()).or_insert_with(|| {
                    seen.push(activity);
                    (seen.len() - 1) as u32
                });
                activities.push(ActivityId(id));
                records.push(offset);
            }
            wids.push(wid);
            starts.push(activities.len());
        }

        // Renumber the first-seen ids so that ids follow name order.
        let mut order: Vec<usize> = (0..seen.len()).collect();
        order.sort_unstable_by(|&a, &b| seen[a].cmp(seen[b]));
        let mut rank = vec![ActivityId(0); order.len()];
        for (new, &old) in order.iter().enumerate() {
            rank[old] = ActivityId(new as u32);
        }
        for id in &mut activities {
            *id = rank[id.index()];
        }
        let names: Vec<Activity> = order.iter().map(|&old| seen[old].clone()).collect();

        let mut postings = Vec::with_capacity(all.len());
        let mut totals = vec![0; names.len()];
        let mut max_postings = vec![0; names.len()];
        for span in starts.windows(2) {
            let column = &activities[span[0]..span[1]];
            let base = postings.len();
            postings.extend((1..=column.len() as u32).map(IsLsn));
            let group = &mut postings[base..];
            group.sort_unstable_by_key(|&p| (column[slot(p)], p));
            for run in group.chunk_by(|&a, &b| column[slot(a)] == column[slot(b)]) {
                let id = column[slot(run[0])].index();
                totals[id] += run.len();
                max_postings[id] = max_postings[id].max(run.len());
            }
        }

        LogIndex {
            names,
            totals,
            max_postings,
            wids,
            starts,
            activities,
            records,
            postings,
        }
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
        self.totals.get(id.index()).copied().unwrap_or(0)
    }

    /// The largest number of executions of activity `id` in one instance.
    #[must_use]
    pub fn max_instance_postings(&self, id: ActivityId) -> usize {
        self.max_postings.get(id.index()).copied().unwrap_or(0)
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
    fn span(&self, ordinal: usize) -> Range<usize> {
        match self.starts.get(ordinal..ordinal.saturating_add(2)) {
            Some(&[lo, hi]) => lo..hi,
            _ => 0..0,
        }
    }

    /// The activity ids of instance `ordinal` in is-lsn order: entry `i`
    /// is the activity at is-lsn `i + 1`.
    #[must_use]
    pub fn instance_activities(&self, ordinal: usize) -> &[ActivityId] {
        &self.activities[self.span(ordinal)]
    }

    /// The is-lsns at which activity `id` executed in instance `ordinal`,
    /// ascending.
    #[must_use]
    pub fn instance_postings(&self, ordinal: usize, id: ActivityId) -> &[IsLsn] {
        let span = self.span(ordinal);
        let column = &self.activities[span.clone()];
        let group = &self.postings[span];
        let lo = group.partition_point(|&p| column[slot(p)] < id);
        let len = group[lo..].partition_point(|&p| column[slot(p)] == id);
        &group[lo..lo + len]
    }

    /// The offset in [`Log::records`] of the record at `(ordinal,
    /// is_lsn)`.
    #[must_use]
    pub fn record_offset(&self, ordinal: usize, is_lsn: IsLsn) -> Option<usize> {
        self.records[self.span(ordinal)].get(slot(is_lsn)).copied()
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
        let idx = LogIndex::build(&log);
        assert_eq!(idx.postings(Wid(1), "A"), &[IsLsn(2), IsLsn(4)]);
        assert_eq!(idx.postings(Wid(1), "B"), &[IsLsn(3)]);
        assert_eq!(idx.postings(Wid(2), "A"), &[] as &[IsLsn]);
        assert_eq!(idx.postings(Wid(2), "B"), &[IsLsn(2)]);
    }

    #[test]
    fn start_and_end_are_indexed_like_activities() {
        let idx = LogIndex::build(&sample());
        assert_eq!(idx.postings(Wid(1), "START"), &[IsLsn(1)]);
        assert_eq!(idx.postings(Wid(1), "END"), &[IsLsn(5)]);
        assert_eq!(idx.postings(Wid(2), "END"), &[] as &[IsLsn]);
    }

    #[test]
    fn activity_at_reads_the_sequence() {
        let idx = LogIndex::build(&sample());
        assert_eq!(idx.activity_at(Wid(1), IsLsn(2)).unwrap().as_str(), "A");
        assert_eq!(idx.activity_at(Wid(1), IsLsn(5)).unwrap().as_str(), "END");
        assert_eq!(idx.activity_at(Wid(1), IsLsn(6)), None);
        assert_eq!(idx.activity_at(Wid(9), IsLsn(1)), None);
    }

    #[test]
    fn complement_postings_match_negated_atoms() {
        let idx = LogIndex::build(&sample());
        assert_eq!(
            idx.complement_postings(Wid(1), "A"),
            vec![IsLsn(1), IsLsn(3), IsLsn(5)]
        );
        assert_eq!(idx.complement_postings(Wid(9), "A"), Vec::<IsLsn>::new());
    }

    #[test]
    fn total_count_sums_instances() {
        let idx = LogIndex::build(&sample());
        assert_eq!(idx.total_count("A"), 2);
        assert_eq!(idx.total_count("B"), 2);
        assert_eq!(idx.total_count("START"), 2);
        assert_eq!(idx.total_count("Nope"), 0);
    }

    #[test]
    fn instance_len_matches_log() {
        let log = sample();
        let idx = LogIndex::build(&log);
        assert_eq!(idx.instance_len(Wid(1)), log.instance_len(Wid(1)));
        assert_eq!(idx.instance_len(Wid(2)), log.instance_len(Wid(2)));
        assert_eq!(idx.num_instances(), 2);
    }

    #[test]
    fn index_of_figure3_matches_example5() {
        let log = crate::paper::figure3_log();
        let idx = LogIndex::build(&log);
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
        let idx = LogIndex::build(&log);
        assert_eq!(idx.instance_len(Wid(1)), 1);
        assert_eq!(idx.postings(Wid(1), "START"), &[IsLsn(1)]);
    }

    #[test]
    fn ids_follow_name_order_and_ordinals_follow_wids() {
        let idx = LogIndex::build(&sample());
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
        let idx = LogIndex::build(&log);
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
}
