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
//! - the grouped half, laid out by activity: per activity id the ordinals
//!   of the instances it occurs in, ascending, in CSR form (one `u32` per
//!   (instance, activity) *pair* and one offset per id); per pair, where
//!   its is-lsns start in one postings column (one `u32` per pair, and one
//!   more to end the last); and that column, which holds every entry's
//!   is-lsn ordered by activity id, then ordinal, then is-lsn.
//!
//! The load pass fills the symbol table and the columns. The grouped half
//! is laid out from the activity-id column on the first [`Log::index`]
//! call, in one counting pass and one filling pass with no sort, so a log
//! that is only replayed record by record (the streaming evaluator) never
//! holds it. Equality compares the columns; everything grouped is a
//! function of them.
//!
//! Algorithm 2's constant-time lookup holds amortized: a
//! [`PostingsCursor`] walks one activity's pairs forward, so a walk over
//! ascending ordinals (the executor's leaf scans, the counting DP, the
//! miner) finds each instance's postings in amortized constant time, and
//! without any search for an activity every instance runs.
//! [`LogIndex::instance_postings`] is the random access: one search in the
//! activity's instance list. An activity's total and its largest
//! per-instance count are read off its pair offsets.
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
/// ordinals, and postings laid out by activity (see the module docs).
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

/// The grouped half of the index, laid out by activity: per activity id
/// the ordinals of the instances it occurs in, and per (activity,
/// instance) pair where its is-lsns start in one postings column.
#[derive(Debug, Clone)]
struct Grouped {
    /// CSR offsets into `instances`; `len = names.len() + 1`.
    instance_starts: Vec<u32>,
    /// Per activity id, the ordinals of the instances it occurs in,
    /// ascending: id `a` owns pairs `instance_starts[a]..instance_starts[a + 1]`.
    instances: Vec<u32>,
    /// Per pair, where its is-lsns start in `postings`; one more entry
    /// ends the last pair, so pair `k` owns `pair_starts[k]..pair_starts[k + 1]`.
    pair_starts: Vec<u32>,
    /// Every entry's is-lsn, ordered by activity id, then ordinal, then
    /// is-lsn.
    postings: Vec<IsLsn>,
}

impl Grouped {
    /// The pairs of activity `id` (empty for an id the index did not
    /// issue).
    fn pairs(&self, id: ActivityId) -> Range<usize> {
        match self.instance_starts.get(id.index()..id.index() + 2) {
            Some(&[lo, hi]) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }
}

/// A forward cursor over one activity's postings, instance by instance
/// ([`LogIndex::postings_cursor`]).
///
/// [`seek`](Self::seek) gallops forward from the pair the last seek
/// stopped at, so a walk over ascending ordinals costs amortized constant
/// time per seek plus the logarithm of each gap; an activity that every
/// instance runs needs no search at all. A seek to an ordinal below the
/// last one still answers, by searching from the first pair.
///
/// # Examples
///
/// ```
/// use wlq_log::{paper, IsLsn};
///
/// let log = paper::figure3_log();
/// let idx = log.index();
/// let mut cursor = idx.postings_cursor(idx.activity_id("SeeDoctor").unwrap());
/// assert_eq!(cursor.seek(0), &[IsLsn(4), IsLsn(6)]);
/// assert_eq!(cursor.seek(2), &[] as &[IsLsn]);
/// ```
#[derive(Debug, Clone)]
pub struct PostingsCursor<'a> {
    /// The activity's instance ordinals, ascending.
    instances: &'a [u32],
    /// Where each of its pairs starts in `postings`, and where the last
    /// one ends.
    starts: &'a [u32],
    /// The whole postings column.
    postings: &'a [IsLsn],
    /// The first pair whose ordinal the last seek did not pass.
    at: usize,
    /// Every instance runs the activity: pair `o` is ordinal `o`.
    dense: bool,
}

impl<'a> PostingsCursor<'a> {
    /// The is-lsns at which the activity executed in instance `ordinal`,
    /// ascending; empty if it never did there.
    #[inline]
    pub fn seek(&mut self, ordinal: usize) -> &'a [IsLsn] {
        let pair = if self.dense {
            ordinal
        } else {
            self.at = self.find(ordinal);
            self.at
        };
        match (self.instances.get(pair), self.starts.get(pair..pair + 2)) {
            (Some(&o), Some(&[lo, hi])) if o as usize == ordinal => self
                .postings
                .get(lo as usize..hi as usize)
                .unwrap_or_default(),
            _ => &[],
        }
    }

    /// The first pair whose ordinal is at least `ordinal`: galloping
    /// forward from `at`, or from the first pair when
    /// `ordinal` lies below the last seek's.
    #[inline]
    fn find(&self, ordinal: usize) -> usize {
        let below = |&o: &u32| (o as usize) < ordinal;
        let backward = self
            .at
            .checked_sub(1)
            .and_then(|before| self.instances.get(before))
            .is_some_and(|o| !below(o));
        let from = if backward { 0 } else { self.at };
        let rest = self.instances.get(from..).unwrap_or_default();
        match rest.first() {
            Some(o) if below(o) => {}
            _ => return from,
        }
        // `rest[..lo]` lies below `ordinal`; probe `rest[2·lo - 1]`
        // until one does not.
        let mut lo = 1;
        while rest.get(2 * lo - 1).is_some_and(below) {
            lo *= 2;
        }
        let hi = (2 * lo).min(rest.len());
        from + lo + rest.get(lo..hi).unwrap_or_default().partition_point(below)
    }
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
        self.grouped
            .get_or_init(|| Box::new(self.group_by_activity()))
    }

    /// Lays the postings out by activity in one counting pass over the
    /// activity-id column and one filling pass. The `u32` counts cannot
    /// overflow: there are no more pairs than entries, and [`Log::new`]
    /// rejects logs of more than `u32::MAX` records.
    fn group_by_activity(&self) -> Grouped {
        let ids = self.names.len();
        // Per id, shifted by one so the prefix sums below turn them into
        // offsets: its entries, and its pairs (counted at their first
        // entry, found by the last ordinal each id was seen in).
        let mut posting_starts = vec![0u32; ids + 1];
        let mut instance_starts = vec![0u32; ids + 1];
        let mut seen_in = vec![u32::MAX; ids];
        for ordinal in 0..self.wids.len() as u32 {
            for &id in self.instance_activities(ordinal as usize) {
                let id = id.index();
                posting_starts[id + 1] += 1;
                if seen_in[id] != ordinal {
                    seen_in[id] = ordinal;
                    instance_starts[id + 1] += 1;
                }
            }
        }
        for id in 0..ids {
            posting_starts[id + 1] += posting_starts[id];
            instance_starts[id + 1] += instance_starts[id];
        }
        let pairs = instance_starts[ids] as usize;
        let mut instances = vec![0u32; pairs];
        let mut pair_starts = vec![0u32; pairs + 1];
        let mut postings = vec![IsLsn(0); self.activities.len()];
        // Each id's next free pair and posting; ordinals and is-lsns
        // arrive in ascending order.
        let mut next_pair = instance_starts.clone();
        let mut next_posting = posting_starts;
        seen_in.fill(u32::MAX);
        for ordinal in 0..self.wids.len() as u32 {
            for (p, &id) in (1u32..).zip(self.instance_activities(ordinal as usize)) {
                let id = id.index();
                if seen_in[id] != ordinal {
                    seen_in[id] = ordinal;
                    let pair = next_pair[id] as usize;
                    instances[pair] = ordinal;
                    pair_starts[pair] = next_posting[id];
                    next_pair[id] += 1;
                }
                postings[next_posting[id] as usize] = IsLsn(p);
                next_posting[id] += 1;
            }
        }
        pair_starts[pairs] = self.activities.len() as u32;
        Grouped {
            instance_starts,
            instances,
            pair_starts,
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

    /// Executions of activity `id` across all instances: where its
    /// first pair starts in the postings column to where its last ends.
    #[must_use]
    pub fn activity_count(&self, id: ActivityId) -> usize {
        let grouped = self.grouped();
        let pairs = grouped.pairs(id);
        match (
            grouped.pair_starts.get(pairs.start),
            grouped.pair_starts.get(pairs.end),
        ) {
            (Some(&lo), Some(&hi)) => (hi - lo) as usize,
            _ => 0,
        }
    }

    /// The largest number of executions of activity `id` in one
    /// instance, read off its pairs' extents.
    #[must_use]
    pub fn max_instance_postings(&self, id: ActivityId) -> usize {
        let grouped = self.grouped();
        let pairs = grouped.pairs(id);
        grouped
            .pair_starts
            .get(pairs.start..pairs.end + 1)
            .unwrap_or_default()
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// The ordinals of the instances in which activity `id` occurs,
    /// ascending (empty for an id the index did not issue).
    #[must_use]
    pub fn activity_instances(&self, id: ActivityId) -> &[u32] {
        let grouped = self.grouped();
        &grouped.instances[grouped.pairs(id)]
    }

    /// A cursor over activity `id`'s postings, instance by instance (no
    /// postings for an id the index did not issue). Walks over ascending
    /// ordinals read every instance's postings through one.
    #[must_use]
    pub fn postings_cursor(&self, id: ActivityId) -> PostingsCursor<'_> {
        let grouped = self.grouped();
        let pairs = grouped.pairs(id);
        let instances = &grouped.instances[pairs.clone()];
        PostingsCursor {
            instances,
            starts: &grouped.pair_starts[pairs.start..pairs.end + 1],
            postings: &grouped.postings,
            at: 0,
            dense: instances.len() == self.wids.len(),
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

    /// The entry of `(ordinal, is_lsn)` in the per-entry columns.
    #[inline]
    pub(crate) fn entry(&self, ordinal: usize, is_lsn: IsLsn) -> Option<usize> {
        let span = self.span(ordinal);
        let entry = span.start.checked_add(slot(is_lsn))?;
        (entry < span.end).then_some(entry)
    }

    /// The CSR offsets, the activity-id column and the record-offset
    /// column.
    pub(crate) fn columns(&self) -> (&[u32], &[ActivityId], &[u32]) {
        (&self.starts, &self.activities, &self.records)
    }

    /// The is-lsns at which activity `id` executed in instance `ordinal`,
    /// ascending: a random access, one search in the activity's instance
    /// list. Walks over ascending ordinals read them through a
    /// [`postings_cursor`](Self::postings_cursor) instead.
    #[must_use]
    pub fn instance_postings(&self, ordinal: usize, id: ActivityId) -> &[IsLsn] {
        self.postings_cursor(id).seek(ordinal)
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
