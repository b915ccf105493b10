//! Incident sets: `incL(p)`, stored flat in a few shared segments.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use wlq_log::Wid;

use crate::batch::{BatchArena, IncidentBatch, Incidents};
use crate::incident::{Incident, IncidentView};

/// Ref room of the first shared segment a set opens; each later one has
/// twice the room of the one before, up to [`SEGMENT_REFS`].
const FIRST_SEGMENT_REFS: usize = 64;

/// Ref room of a full shared segment (64 KiB of refs).
const SEGMENT_REFS: usize = 4096;

/// Pooled positions of a full shared segment of four-record incidents.
const SEGMENT_POSITIONS: usize = 4 * SEGMENT_REFS;

thread_local! {
    /// The open segment of the last set dropped on this thread, emptied,
    /// for the next set built here to open first. A session listing one
    /// query after another then reuses it instead of handing it back to
    /// the allocator, which would return it, and the free pages below it,
    /// to the system only to fault fresh pages in for the next answer.
    static SPARE: Cell<Option<IncidentBatch>> = const { Cell::new(None) };
}

/// A new segment with room for `refs` incidents over `positions` pooled
/// positions. Segments are read through runs, which carry the instance,
/// so a segment's own `wid` is left at 0.
fn segment(refs: usize, positions: usize) -> IncidentBatch {
    IncidentBatch::with_capacity(Wid(0), refs, positions)
}

/// A shared segment with room for `refs` incidents over `positions`
/// pooled positions: this thread's spare when it has that room.
fn shared_segment(refs: usize, positions: usize) -> IncidentBatch {
    let spare = SPARE.try_with(Cell::take).ok().flatten();
    match spare {
        Some(spare) if spare.fits(refs, positions) => spare,
        _ => segment(refs, positions),
    }
}

/// Whether `refs` incidents over `positions` pooled positions take more
/// than a quarter of a full shared segment. A large root output that does
/// not fit the open segment becomes a segment of its own.
fn is_large(refs: usize, positions: usize) -> bool {
    4 * refs > SEGMENT_REFS || 4 * positions > SEGMENT_POSITIONS
}

/// One matched instance's incidents: refs `start..end` of a segment.
#[derive(Debug, Clone, Copy)]
struct Run {
    wid: Wid,
    segment: usize,
    start: usize,
    end: usize,
}

impl Run {
    fn len(&self) -> usize {
        self.end - self.start
    }
}

/// The set of all incidents of a pattern in a log (`incL(p)`), partitioned
/// by workflow instance.
///
/// Incidents never span instances (Definition 4 requires
/// `wid(o1) = wid(o2)`), so the per-`wid` partition is lossless and is the
/// unit of work for partitioned parallel evaluation. The set stores it
/// flat: a few *segments*, each an [`IncidentBatch`]-style position pool
/// plus refs, and one index of runs ascending by `wid`, each naming a
/// matched instance's segment and ref range. Evaluation copies a small
/// root output into the open shared segment, whose room doubles from one
/// segment to the next, and moves a large one in as a segment of its own,
/// so a listing makes a few heap calls however many instances match.
/// Within an instance, incidents are sorted (by `first`, then full
/// position vector — the ordering the paper's Algorithm 1 assumes) and
/// deduplicated (incident *sets* contain each set of records once).
/// Iteration yields borrowed [`IncidentView`]s, so reading a result
/// allocates nothing. Dropping one frees a few buffers and keeps its open
/// shared segment for the next set built on the same thread.
///
/// # Examples
///
/// ```
/// use wlq_engine::{Incident, IncidentSet};
/// use wlq_log::{IsLsn, Wid};
///
/// let mut set = IncidentSet::new();
/// set.insert(Incident::singleton(Wid(1), IsLsn(4)));
/// set.insert(Incident::singleton(Wid(2), IsLsn(2)));
/// set.insert(Incident::singleton(Wid(1), IsLsn(4))); // duplicate, ignored
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.for_wid(Wid(1)).count(), 1);
/// let o = set.iter().next().unwrap();
/// assert_eq!((o.wid(), o.positions()), (Wid(1), &[IsLsn(4)][..]));
/// assert_eq!(set.to_string(), "{{4}@wid1, {2}@wid2}");
/// ```
#[derive(Clone, Default)]
pub struct IncidentSet {
    /// Pools and refs of the runs. A segment's own `wid` is not read,
    /// and its pool may hold positions no run's ref points at.
    segments: Vec<IncidentBatch>,
    /// One nonempty run per matched instance, strictly ascending by `wid`.
    runs: Vec<Run>,
    /// The shared segment small runs are copied into, once one is open.
    open: Option<usize>,
}

impl IncidentSet {
    /// Creates an empty incident set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set whose open segment has room for exactly `refs`
    /// incidents over `positions` pooled positions, for a caller that
    /// knows its answer's size before copying it in.
    pub(crate) fn with_room(refs: usize, positions: usize) -> Self {
        IncidentSet {
            segments: vec![shared_segment(refs, positions)],
            runs: Vec::new(),
            open: Some(0),
        }
    }

    /// Builds a set from per-instance incident lists.
    ///
    /// Lists of one instance are united, each instance's incidents are
    /// sorted and deduplicated, and empty lists are dropped.
    #[must_use]
    pub fn from_partitions(parts: impl IntoIterator<Item = (Wid, Vec<Incident>)>) -> Self {
        let mut by_wid: BTreeMap<Wid, Vec<Incident>> = BTreeMap::new();
        for (wid, incidents) in parts {
            by_wid.entry(wid).or_default().extend(incidents);
        }
        let mut set = IncidentSet::new();
        let mut batch = IncidentBatch::new(Wid(0));
        for (wid, mut incidents) in by_wid {
            incidents.sort_unstable();
            incidents.dedup();
            batch.reset(wid);
            batch.extend_incidents(&incidents);
            set.push_copy(&batch);
        }
        set
    }

    /// Adds instance `batch.wid()`'s finished root batch, which must come
    /// after every instance already in the set: the sink of every
    /// evaluation that keeps its answer. A batch that fits the open
    /// segment, or is small, is copied into the open segment (a new one
    /// when the open one is short) and goes back to `arena`. A large batch
    /// that does not fit becomes a segment of its own, moved, not copied.
    pub(crate) fn push(&mut self, batch: IncidentBatch, arena: &mut BatchArena) {
        let fits_open =
            (self.open).is_some_and(|open| self.segments[open].fits(batch.len(), batch.pool_len()));
        if fits_open || !is_large(batch.len(), batch.pool_len()) {
            self.push_copy(&batch);
            arena.recycle(batch);
            return;
        }
        debug_assert!(self.runs.last().is_none_or(|run| run.wid < batch.wid()));
        self.runs.push(Run {
            wid: batch.wid(),
            segment: self.segments.len(),
            start: 0,
            end: batch.len(),
        });
        self.segments.push(batch);
    }

    /// [`push`](Self::push) for a borrowed batch: its incidents are
    /// always copied.
    pub(crate) fn push_copy(&mut self, batch: &IncidentBatch) {
        if batch.is_empty() {
            return;
        }
        debug_assert!(self.runs.last().is_none_or(|run| run.wid < batch.wid()));
        let segment = self.room_for(batch.len(), batch.pool_len());
        let start = self.segments[segment].len();
        self.segments[segment].append(batch);
        self.runs.push(Run {
            wid: batch.wid(),
            segment,
            start,
            end: start + batch.len(),
        });
    }

    /// A segment with room for `refs` more incidents over `positions`
    /// more pooled positions: the open one when it has that room. Else a
    /// small run opens the next shared segment, with twice the open one's
    /// ref room up to a full segment and pool room for incidents as long
    /// as the run's, and a large run gets a segment of its own, sized to
    /// it.
    fn room_for(&mut self, refs: usize, positions: usize) -> usize {
        let open = self
            .open
            .filter(|&open| self.segments[open].fits(refs, positions));
        if let Some(open) = open {
            return open;
        }
        let at = self.segments.len();
        if is_large(refs, positions) {
            self.segments.push(segment(refs, positions));
            return at;
        }
        let room = (self.open)
            .map_or(FIRST_SEGMENT_REFS, |open| {
                2 * self.segments[open].capacity()
            })
            .min(SEGMENT_REFS)
            .max(refs);
        let per_ref = positions.div_ceil(refs.max(1)).max(1);
        (self.segments).push(shared_segment(room, (room * per_ref).max(positions)));
        self.open = Some(at);
        at
    }

    /// The run of instance `wid`: `Ok` with its index, or `Err` with
    /// where it would go.
    fn run_of(&self, wid: Wid) -> Result<usize, usize> {
        self.runs.binary_search_by_key(&wid, |run| run.wid)
    }

    /// The incidents of `run`, borrowed from its segment.
    fn view(&self, run: &Run) -> Incidents<'_> {
        self.segments[run.segment].run(run.wid, run.start..run.end)
    }

    /// Total number of incidents across all instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.iter().map(Run::len).sum()
    }

    /// Whether the set holds no incidents (the query found nothing).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Inserts an incident, keeping per-instance order and uniqueness.
    /// Returns `true` if it was new.
    ///
    /// A new instance's incident goes to the open segment. A run grows in
    /// place when it ends its segment; otherwise it first moves to a
    /// segment of its own, where later inserts grow it in place.
    pub fn insert(&mut self, incident: Incident) -> bool {
        let (wid, positions) = (incident.wid(), incident.positions());
        let at = match self.run_of(wid) {
            Ok(at) => at,
            Err(at) => {
                let segment = self.room_for(1, positions.len());
                let start = self.segments[segment].len();
                self.segments[segment].push_sorted_positions(positions);
                let end = start + 1;
                (self.runs).insert(
                    at,
                    Run {
                        wid,
                        segment,
                        start,
                        end,
                    },
                );
                return true;
            }
        };
        let mut run = self.runs[at];
        let Err(place) = self.segments[run.segment].find(run.start..run.end, positions) else {
            return false;
        };
        if run.end != self.segments[run.segment].len() {
            let pooled: usize = self.view(&run).map(|o| o.len()).sum();
            let mut own = segment(2 * run.len(), 2 * pooled);
            for o in self.view(&run) {
                own.push_sorted_positions(o.positions());
            }
            run = Run {
                segment: self.segments.len(),
                start: 0,
                end: run.len(),
                ..run
            };
            self.segments.push(own);
        }
        self.segments[run.segment].insert_at(run.start + place, positions);
        self.runs[at] = Run {
            end: run.end + 1,
            ..run
        };
        true
    }

    /// Whether `incident` is in the set.
    #[must_use]
    pub fn contains(&self, incident: &Incident) -> bool {
        self.run_of(incident.wid()).is_ok_and(|at| {
            let run = &self.runs[at];
            (self.segments[run.segment].find(run.start..run.end, incident.positions())).is_ok()
        })
    }

    /// The incidents of one instance, sorted (none if it has no match).
    pub fn for_wid(&self, wid: Wid) -> impl Iterator<Item = IncidentView<'_>> {
        let run = self.run_of(wid).ok().map(|at| &self.runs[at]);
        run.map(|run| self.view(run)).into_iter().flatten()
    }

    /// The instances that have at least one incident, ascending.
    pub fn wids(&self) -> impl Iterator<Item = Wid> + '_ {
        self.runs.iter().map(|run| run.wid)
    }

    /// Iterates over all incidents, by instance then in-instance order.
    pub fn iter(&self) -> impl Iterator<Item = IncidentView<'_>> {
        self.into_iter()
    }

    /// Number of instances with at least one incident.
    #[must_use]
    pub fn num_matched_instances(&self) -> usize {
        self.runs.len()
    }

    /// Per-instance incident counts.
    #[must_use]
    pub fn counts_by_wid(&self) -> BTreeMap<Wid, usize> {
        self.runs.iter().map(|run| (run.wid, run.len())).collect()
    }

    /// Merges another incident set into this one (set union).
    ///
    /// `other`'s segments join this set's and the two run indices are
    /// merged by `wid`, so an instance matched on one side only is not
    /// copied: joining the parts of parallel workers, whose instances
    /// are disjoint, copies no incident. An instance matched on both is
    /// united into a segment of its own.
    pub fn merge(&mut self, mut other: IncidentSet) {
        if self.runs.is_empty() {
            *self = other;
            return;
        }
        let shift = self.segments.len();
        self.segments.append(&mut other.segments);
        self.open = self.open.or(other.open.map(|open| open + shift));
        let mut mine = std::mem::take(&mut self.runs).into_iter().peekable();
        let mut theirs = (std::mem::take(&mut other.runs).into_iter())
            .map(|run| Run {
                segment: run.segment + shift,
                ..run
            })
            .peekable();
        let mut runs = Vec::with_capacity(mine.len() + theirs.len());
        loop {
            let order = match (mine.peek(), theirs.peek()) {
                (Some(a), Some(b)) => a.wid.cmp(&b.wid),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            runs.extend(match order {
                Ordering::Less => mine.next(),
                Ordering::Greater => theirs.next(),
                Ordering::Equal => (mine.next().zip(theirs.next())).map(|(a, b)| self.union(a, b)),
            });
        }
        self.runs = runs;
    }

    /// The union of two runs of one instance, in a segment of its own:
    /// `a`'s segment when `a` is all it holds, else a new one.
    fn union(&mut self, a: Run, b: Run) -> Run {
        let mut out = segment(a.len() + b.len(), 0);
        let (mut xs, mut ys) = (self.view(&a).peekable(), self.view(&b).peekable());
        loop {
            let next = match (xs.peek(), ys.peek()) {
                (Some(x), Some(y)) => match x.positions().cmp(y.positions()) {
                    Ordering::Less => xs.next(),
                    Ordering::Greater => ys.next(),
                    Ordering::Equal => {
                        ys.next();
                        xs.next()
                    }
                },
                (Some(_), None) => xs.next(),
                (None, _) => ys.next(),
            };
            let Some(o) = next else { break };
            out.push_sorted_positions(o.positions());
        }
        let end = out.len();
        let sole = a.start == 0 && a.end == self.segments[a.segment].len();
        let segment = if sole {
            self.segments[a.segment] = out;
            a.segment
        } else {
            self.segments.push(out);
            self.segments.len() - 1
        };
        Run {
            wid: a.wid,
            segment,
            start: 0,
            end,
        }
    }
}

/// Hands a shared open segment to this thread's spare.
impl Drop for IncidentSet {
    fn drop(&mut self) {
        let Some(open) = self.open.filter(|&open| open < self.segments.len()) else {
            return;
        };
        if self.segments[open].capacity() <= SEGMENT_REFS {
            let mut spare = self.segments.swap_remove(open);
            spare.reset(Wid(0));
            // A thread being torn down has no spare to keep.
            let _ = SPARE.try_with(|slot| slot.set(Some(spare)));
        }
    }
}

impl FromIterator<Incident> for IncidentSet {
    fn from_iter<I: IntoIterator<Item = Incident>>(iter: I) -> Self {
        let mut set = IncidentSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<Incident> for IncidentSet {
    fn extend<I: IntoIterator<Item = Incident>>(&mut self, iter: I) {
        for incident in iter {
            self.insert(incident);
        }
    }
}

/// The incidents of an [`IncidentSet`], by instance then in-instance
/// order, borrowed from its segments.
#[derive(Debug, Clone)]
pub struct IncidentSetIter<'a> {
    set: &'a IncidentSet,
    runs: std::slice::Iter<'a, Run>,
    run: Option<Incidents<'a>>,
}

impl<'a> Iterator for IncidentSetIter<'a> {
    type Item = IncidentView<'a>;

    fn next(&mut self) -> Option<IncidentView<'a>> {
        loop {
            if let Some(o) = self.run.as_mut().and_then(Iterator::next) {
                return Some(o);
            }
            let run = self.runs.next()?;
            self.run = Some(self.set.view(run));
        }
    }
}

impl<'a> IntoIterator for &'a IncidentSet {
    type Item = IncidentView<'a>;
    type IntoIter = IncidentSetIter<'a>;

    fn into_iter(self) -> IncidentSetIter<'a> {
        IncidentSetIter {
            set: self,
            runs: self.runs.iter(),
            run: None,
        }
    }
}

/// Equality by content: the same incidents of the same instances. How
/// they are laid out in segments, and pool positions no ref points at,
/// do not count.
impl PartialEq for IncidentSet {
    fn eq(&self, other: &Self) -> bool {
        self.runs.len() == other.runs.len()
            && (self.runs.iter().zip(&other.runs))
                .all(|(a, b)| a.wid == b.wid && a.len() == b.len())
            && self.iter().eq(other.iter())
    }
}

impl Eq for IncidentSet {}

impl fmt::Debug for IncidentSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for IncidentSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, incident) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{incident}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use wlq_log::IsLsn;

    fn inc(wid: u64, ps: &[u32]) -> Incident {
        Incident::from_positions(Wid(wid), ps.iter().map(|&p| IsLsn(p)).collect())
    }

    /// The set of one finished batch, pushed as evaluation does.
    fn of_batch(batch: IncidentBatch) -> IncidentSet {
        let mut set = IncidentSet::new();
        set.push(batch, &mut BatchArena::new());
        set
    }

    fn owned(set: &IncidentSet, wid: u64) -> Vec<Incident> {
        set.for_wid(Wid(wid)).map(|o| o.to_incident()).collect()
    }

    #[test]
    fn insert_dedups_and_sorts() {
        let mut set = IncidentSet::new();
        assert!(set.insert(inc(1, &[5])));
        assert!(set.insert(inc(1, &[2])));
        assert!(!set.insert(inc(1, &[5])));
        assert_eq!(set.len(), 2);
        assert_eq!(owned(&set, 1), [inc(1, &[2]), inc(1, &[5])]);
    }

    #[test]
    fn merge_unions_overlapping_and_new_instances() {
        let mut a = IncidentSet::from_partitions(vec![
            (Wid(1), vec![inc(1, &[1]), inc(1, &[3]), inc(1, &[5])]),
            (Wid(2), vec![inc(2, &[2])]),
        ]);
        let b = IncidentSet::from_partitions(vec![
            (Wid(1), vec![inc(1, &[2]), inc(1, &[3]), inc(1, &[9])]),
            (Wid(3), vec![inc(3, &[7])]),
        ]);
        a.merge(b);
        assert_eq!(
            owned(&a, 1),
            [
                inc(1, &[1]),
                inc(1, &[2]),
                inc(1, &[3]),
                inc(1, &[5]),
                inc(1, &[9])
            ]
        );
        assert_eq!(owned(&a, 2), [inc(2, &[2])]);
        assert_eq!(owned(&a, 3), [inc(3, &[7])]);
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn from_partitions_drops_empty_and_dedups() {
        let set = IncidentSet::from_partitions(vec![
            (Wid(1), vec![inc(1, &[5]), inc(1, &[2]), inc(1, &[5])]),
            (Wid(2), vec![]),
        ]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.num_matched_instances(), 1);
        assert_eq!(set.for_wid(Wid(2)).count(), 0);
    }

    #[test]
    fn contains_and_wids() {
        let set: IncidentSet = vec![inc(1, &[1]), inc(3, &[2])].into_iter().collect();
        assert!(set.contains(&inc(1, &[1])));
        assert!(!set.contains(&inc(2, &[1])));
        assert_eq!(set.wids().collect::<Vec<_>>(), vec![Wid(1), Wid(3)]);
    }

    #[test]
    fn merge_is_set_union() {
        let mut a: IncidentSet = vec![inc(1, &[1]), inc(1, &[2])].into_iter().collect();
        let b: IncidentSet = vec![inc(1, &[2]), inc(2, &[1])].into_iter().collect();
        a.merge(b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn counts_by_wid_reports_per_instance() {
        let set: IncidentSet = vec![inc(1, &[1]), inc(1, &[2]), inc(2, &[9])]
            .into_iter()
            .collect();
        let counts = set.counts_by_wid();
        assert_eq!(counts[&Wid(1)], 2);
        assert_eq!(counts[&Wid(2)], 1);
    }

    #[test]
    fn display_lists_incidents() {
        let set: IncidentSet = vec![inc(2, &[5, 9])].into_iter().collect();
        assert_eq!(set.to_string(), "{{5, 9}@wid2}");
        assert_eq!(IncidentSet::new().to_string(), "{}");
    }

    #[test]
    fn iteration_orders_by_wid_then_first() {
        let set: IncidentSet = vec![inc(2, &[1]), inc(1, &[7]), inc(1, &[3])]
            .into_iter()
            .collect();
        let order: Vec<String> = set.iter().map(|o| o.to_string()).collect();
        assert_eq!(order, ["{3}@wid1", "{7}@wid1", "{1}@wid2"]);
    }

    /// Batches the kernels finished with pool positions no ref points at
    /// compare equal to the same incidents built from lists.
    #[test]
    fn equality_ignores_unreferenced_pool_positions() {
        let wid = Wid(4);
        let lsns = |ps: &[u32]| ps.iter().map(|&p| IsLsn(p)).collect::<Vec<_>>();
        // `finish_runs` drops the second [1, 9]; its positions stay pooled.
        let mut deduped = IncidentBatch::new(wid);
        for ps in [&[1, 9][..], &[1, 2], &[1, 9], &[4]] {
            deduped.push_sorted_positions(&lsns(ps));
        }
        deduped.finish_runs();
        // `{1}, {2} ⊕ {1}, {2}`: the shared-record pairs roll back, and
        // `finish_full` drops the second union {1, 2}.
        let both = IncidentBatch::from_incidents(wid, &[inc(4, &[1]), inc(4, &[2])]);
        let mut parallel = IncidentBatch::new(wid);
        kernels::parallel_kernel(&both, &both, &mut parallel);
        for (batch, expected) in [
            (
                deduped,
                vec![inc(4, &[1, 2]), inc(4, &[1, 9]), inc(4, &[4])],
            ),
            (parallel, vec![inc(4, &[1, 2])]),
        ] {
            let positions: usize = expected.iter().map(Incident::len).sum();
            assert!(batch.pool_len() > positions, "no slack to ignore");
            let flat = of_batch(batch);
            let listed = IncidentSet::from_partitions([(wid, expected.clone())]);
            assert_eq!(flat, listed);
            assert_eq!(flat.to_string(), listed.to_string());
            assert_eq!(owned(&flat, 4), expected);
        }
    }

    #[test]
    fn views_render_and_order_like_incidents() {
        let incidents = vec![
            inc(1, &[2, 5]),
            inc(1, &[2, 7]),
            inc(1, &[3]),
            inc(3, &[1, 4, 8]),
        ];
        let set: IncidentSet = incidents.iter().cloned().rev().collect();
        let views: Vec<IncidentView<'_>> = set.iter().collect();
        assert_eq!(views.len(), incidents.len());
        for (view, incident) in views.iter().zip(&incidents) {
            assert_eq!(view.to_string(), incident.to_string());
            assert_eq!(view.to_incident(), *incident);
            assert_eq!(
                (view.wid(), view.first(), view.last(), view.len()),
                (
                    incident.wid(),
                    incident.first(),
                    incident.last(),
                    incident.len()
                )
            );
        }
        let by_ref: Vec<Incident> = (&set).into_iter().map(|o| o.to_incident()).collect();
        assert_eq!(by_ref, incidents);
    }

    mod model {
        use super::*;
        use proptest::prelude::{
            any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, ProptestConfig,
        };

        type Model = BTreeMap<Wid, Vec<Incident>>;

        /// Instances as `(wid gap, incidents, pool slack)`: mostly a few
        /// incidents, sometimes more than a quarter of a full segment.
        fn arb_instances() -> impl proptest::strategy::Strategy<Value = Vec<(u64, usize, bool)>> {
            let size = prop_oneof![8 => 1usize..9, 1 => 1_100usize..1_400];
            prop::collection::vec((1u64..4, size, any::<bool>()), 1..300)
        }

        /// Instance `wid`'s `n` incidents, sorted: singletons and pairs.
        fn incidents(wid: Wid, n: usize) -> Vec<Incident> {
            let mut out: Vec<Incident> = (1..=n)
                .map(|i| {
                    let i = u32::try_from(i).unwrap();
                    let ps = if i % 3 == 0 { vec![i, i + 2] } else { vec![i] };
                    Incident::from_positions(wid, ps.into_iter().map(IsLsn).collect())
                })
                .collect();
            out.sort_unstable();
            out
        }

        /// The model and the finished root batches evaluation would push.
        fn build(instances: &[(u64, usize, bool)]) -> (Model, Vec<IncidentBatch>) {
            let (mut model, mut batches, mut wid) = (Model::new(), Vec::new(), 0);
            for &(gap, n, slack) in instances {
                wid += gap;
                let list = incidents(Wid(wid), n);
                let batch = if slack {
                    // Duplicates dropped by the fixup leave pool positions
                    // no ref points at.
                    let mut batch = IncidentBatch::new(Wid(wid));
                    for o in list.iter().rev().chain(list.first()) {
                        batch.push_sorted_positions(o.positions());
                    }
                    batch.finish_full();
                    batch
                } else {
                    IncidentBatch::from_incidents(Wid(wid), &list)
                };
                model.insert(Wid(wid), list);
                batches.push(batch);
            }
            (model, batches)
        }

        /// The batches pushed into `workers` parts, instance `i` to part
        /// `i % workers`, and the parts joined as parallel evaluation does.
        fn joined(batches: &[IncidentBatch], workers: usize) -> IncidentSet {
            let mut arena = BatchArena::new();
            let mut parts = vec![IncidentSet::new(); workers];
            for (i, batch) in batches.iter().enumerate() {
                parts[i % workers].push(batch.clone(), &mut arena);
            }
            crate::parallel::join(parts)
        }

        fn rendered(model: &Model) -> String {
            let all: Vec<String> = model.values().flatten().map(ToString::to_string).collect();
            format!("{{{}}}", all.join(", "))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Sets built as evaluation builds them, on 1, 2 and 4 workers,
            /// read back exactly as the model.
            #[test]
            fn flat_sets_read_as_the_model(instances in arb_instances()) {
                let (model, batches) = build(&instances);
                let listed = IncidentSet::from_partitions(model.clone());
                let flat: Vec<Incident> = model.values().flatten().cloned().collect();
                for workers in [1, 2, 4] {
                    let set = joined(&batches, workers);
                    let got: Vec<Incident> = set.iter().map(|o| o.to_incident()).collect();
                    prop_assert_eq!(&got, &flat, "{} workers", workers);
                    prop_assert_eq!(set.len(), flat.len());
                    prop_assert_eq!(set.wids().collect::<Vec<_>>(), model.keys().copied().collect::<Vec<_>>());
                    let counts: BTreeMap<Wid, usize> = model.iter().map(|(w, l)| (*w, l.len())).collect();
                    prop_assert_eq!(set.counts_by_wid(), counts);
                    for (&wid, list) in &model {
                        let got: Vec<Incident> = set.for_wid(wid).map(|o| o.to_incident()).collect();
                        prop_assert_eq!(&got, list);
                        prop_assert!(set.contains(&list[list.len() / 2]));
                        let absent = Incident::singleton(wid, IsLsn(u32::MAX));
                        prop_assert!(!set.contains(&absent));
                        prop_assert_eq!(set.for_wid(Wid(wid.0 + 1_000_000)).count(), 0);
                    }
                    prop_assert_eq!(set.to_string(), rendered(&model));
                    prop_assert_eq!(&set, &listed);
                    // Small outputs past the first segment's room span
                    // more than one segment.
                    let small: usize = model.values().map(Vec::len).filter(|&n| n < 9).sum();
                    prop_assert!(set.segments.len() > usize::from(small > FIRST_SEGMENT_REFS));
                }
            }

            /// `merge` of overlapping sets and `insert` in any order equal
            /// the model's union.
            #[test]
            fn merge_and_insert_are_set_union(instances in arb_instances(), cut in 0usize..300) {
                let (model, batches) = build(&instances);
                let cut = cut.min(batches.len());
                // Both halves hold the instances around the cut.
                let low = joined(&batches[..(cut + 2).min(batches.len())], 2);
                let high = joined(&batches[cut.saturating_sub(2)..], 1);
                let listed = IncidentSet::from_partitions(model.clone());
                let mut union = low.clone();
                union.merge(high.clone());
                prop_assert_eq!(&union, &listed);
                let mut union = high;
                union.merge(low);
                prop_assert_eq!(&union, &listed);
                // Instances alternate, each incident inserted twice.
                let small = model.iter().filter(|(_, list)| list.len() < 9);
                let mut inserted = IncidentSet::new();
                let mut expected = Model::new();
                for round in 0..2 {
                    for (&wid, list) in small.clone() {
                        for o in list.iter().rev() {
                            prop_assert_eq!(inserted.insert(o.clone()), round == 0);
                        }
                        expected.insert(wid, list.clone());
                    }
                }
                prop_assert_eq!(inserted, IncidentSet::from_partitions(expected));
            }
        }
    }
}
