//! Flat, arena-backed incident storage for the operator hot path.
//!
//! The classic representation — `Vec<Incident>` with one heap-allocated
//! position vector per incident — makes every operator union allocate, and
//! every comparison chase a pointer. [`IncidentBatch`] instead stores all
//! incidents of one `(wid, subpattern)` evaluation in struct-of-arrays
//! form: a single shared position *pool* (`Vec<IsLsn>`) plus lightweight
//! [`IncidentRef`] entries `{offset, len, first, last}` pointing into it.
//!
//! Invariants (checked in debug builds by
//! [`IncidentBatch::debug_check_invariants`]):
//!
//! - the pool is append-only for the duration of one evaluation: kernels
//!   only ever bump-append positions (a failed parallel merge may truncate
//!   back to its own mark, never below committed data);
//! - every ref's slice is strictly ascending and nonempty, with
//!   `first`/`last` caching its endpoints so comparisons and the
//!   `⊙`/`→` join conditions never touch the pool;
//! - finished batches keep their refs sorted by `(first, slice lex)`,
//!   which — because `slice[0] == first` — is exactly the derived
//!   [`Incident`] order within a wid, so [`IncidentBatch::iter`] yields
//!   incidents in set order straight from the refs.
//!
//! The same pool-plus-refs layout stores the answer: an
//! [`IncidentSet`](crate::IncidentSet) is a few batches used as segments,
//! each holding the root outputs of many matched instances copied back to
//! back, or one large root output moved in as the executor left it.
//!
//! [`BatchArena`] recycles spent batches so a long evaluation (or a
//! parallel worker sweeping many instances) reuses its pool and ref
//! allocations instead of returning them to the allocator.

use std::cmp::Ordering;
use std::ops::Range;

use wlq_log::{IsLsn, Wid};

use crate::incident::{Incident, IncidentView};

/// A reference to one incident inside an [`IncidentBatch`]'s pool.
///
/// `first` and `last` are cached copies of the slice endpoints: the
/// consecutive/sequential join conditions (`first(o2) = last(o1) + 1`,
/// `first(o2) > last(o1)`) and the primary sort key read only this struct,
/// never the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncidentRef {
    offset: u32,
    len: u32,
    first: IsLsn,
    last: IsLsn,
}

impl IncidentRef {
    /// `first(o)`: the smallest position, without touching the pool.
    #[must_use]
    pub fn first(&self) -> IsLsn {
        self.first
    }

    /// `last(o)`: the largest position, without touching the pool.
    #[must_use]
    pub fn last(&self) -> IsLsn {
        self.last
    }

    /// Number of positions in the incident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always `false`: incidents are nonempty by Definition 4.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    fn range(&self) -> std::ops::Range<usize> {
        self.offset as usize..self.offset as usize + self.len as usize
    }
}

/// All incidents of one `(wid, subpattern)` evaluation, in flat
/// struct-of-arrays form.
///
/// # Examples
///
/// ```
/// use wlq_engine::IncidentBatch;
/// use wlq_log::{IsLsn, Wid};
///
/// let batch = IncidentBatch::from_sorted_positions(Wid(1), [IsLsn(2), IsLsn(5)]);
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.iter().nth(1).unwrap().first(), IsLsn(5));
/// let incidents = batch.into_incidents();
/// assert_eq!(incidents[1].first(), IsLsn(5));
/// ```
#[derive(Debug, Clone)]
pub struct IncidentBatch {
    wid: Wid,
    pool: Vec<IsLsn>,
    refs: Vec<IncidentRef>,
}

impl IncidentBatch {
    /// An empty batch for one workflow instance.
    #[must_use]
    pub fn new(wid: Wid) -> Self {
        IncidentBatch {
            wid,
            pool: Vec::new(),
            refs: Vec::new(),
        }
    }

    /// An empty batch with pre-sized pool and ref storage.
    #[must_use]
    pub fn with_capacity(wid: Wid, incidents: usize, positions: usize) -> Self {
        IncidentBatch {
            wid,
            pool: Vec::with_capacity(positions),
            refs: Vec::with_capacity(incidents),
        }
    }

    /// Pre-sizes storage for `refs` more incidents and `positions` more
    /// pooled positions. Kernels that can compute their exact output size
    /// up front call this once so emission never reallocates the pool —
    /// reallocation during a wide `→` join would copy the entire
    /// partially-built pool, and was the root cause of the batch
    /// strategy's sequential end-to-end regression.
    pub fn reserve(&mut self, refs: usize, positions: usize) {
        self.refs.reserve(refs);
        self.pool.reserve(positions);
    }

    /// Keeps the first `len` incidents; the pool keeps the positions of
    /// the dropped ones, which no ref points at.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.refs.truncate(len);
    }

    /// Clears the batch for reuse, keeping allocations.
    pub fn reset(&mut self, wid: Wid) {
        self.wid = wid;
        self.pool.clear();
        self.refs.clear();
    }

    /// The workflow instance all incidents belong to.
    #[must_use]
    pub fn wid(&self) -> Wid {
        self.wid
    }

    /// Number of incidents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// `true` if the batch holds no incidents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Total pooled positions (diagnostics; larger than the sum of
    /// incident sizes only transiently inside a kernel).
    #[must_use]
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// The incident refs, in storage order (sorted once a kernel or
    /// constructor has finished).
    #[must_use]
    pub fn refs(&self) -> &[IncidentRef] {
        &self.refs
    }

    /// The position slice of a ref *obtained from this batch*.
    ///
    /// # Panics
    ///
    /// May panic (or return the wrong slice) if `r` came from a different
    /// batch.
    #[must_use]
    pub fn positions(&self, r: &IncidentRef) -> &[IsLsn] {
        &self.pool[r.range()]
    }

    fn push_ref(&mut self, offset: usize, len: usize, first: IsLsn, last: IsLsn) {
        debug_assert!(len > 0, "incidents are nonempty");
        // A u32 ref layout caps each per-instance pool at 2^32 positions —
        // far above any real instance; the guard keeps the cast lossless.
        assert!(
            offset <= u32::MAX as usize && len <= u32::MAX as usize,
            "position pool exceeds u32::MAX entries"
        );
        #[allow(clippy::cast_possible_truncation)]
        self.refs.push(IncidentRef {
            offset: offset as u32,
            len: len as u32,
            first,
            last,
        });
    }

    /// Appends a one-record incident. Leaf emission: calling this over an
    /// ascending posting list yields a finished (sorted) batch.
    pub fn push_singleton(&mut self, position: IsLsn) {
        let offset = self.pool.len();
        self.pool.push(position);
        self.push_ref(offset, 1, position, position);
    }

    /// Appends an incident given its strictly ascending position slice.
    pub fn push_sorted_positions(&mut self, positions: &[IsLsn]) {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must be ascending"
        );
        let offset = self.pool.len();
        self.pool.extend_from_slice(positions);
        self.push_ref(
            offset,
            positions.len(),
            positions[0],
            positions[positions.len() - 1],
        );
    }

    /// Appends the union of two incidents whose ranges do not interleave:
    /// every position of `low` precedes every position of `high`. This is
    /// the zero-compare union of the `⊙`/`→` kernels — the join condition
    /// `first(high) > last(low)` already guarantees the layout, so the
    /// union is a bump-append of both slices.
    pub fn push_concat(&mut self, low: &[IsLsn], high: &[IsLsn]) {
        debug_assert!(
            low.last() < high.first(),
            "push_concat requires disjoint, ordered operands"
        );
        let offset = self.pool.len();
        self.pool.extend_from_slice(low);
        self.pool.extend_from_slice(high);
        self.push_ref(offset, low.len() + high.len(), low[0], high[high.len() - 1]);
    }

    /// Appends the union of an incident and one position past all of its
    /// own: [`push_concat`](Self::push_concat) with a singleton `high`,
    /// which the `⊙`/`→` kernels emit without slicing the singleton out of
    /// its batch's pool.
    pub fn push_concat_one(&mut self, low: &[IsLsn], high: IsLsn) {
        debug_assert!(
            low.last() < Some(&high),
            "push_concat_one requires an ordered operand"
        );
        let offset = self.pool.len();
        self.pool.extend_from_slice(low);
        self.pool.push(high);
        self.push_ref(offset, low.len() + 1, low[0], high);
    }

    /// Current pool end — the rollback point for a speculative merge.
    #[must_use]
    pub fn pool_mark(&self) -> usize {
        self.pool.len()
    }

    /// Rolls an uncommitted merge back to `mark` (the `⊕` kernel aborting
    /// on a shared position). Never truncates below committed refs.
    pub fn truncate_pool(&mut self, mark: usize) {
        debug_assert!(
            self.refs.last().is_none_or(|r| r.range().end <= mark),
            "truncating below committed refs"
        );
        self.pool.truncate(mark);
    }

    /// Appends one position of an in-progress merge (commit with
    /// [`commit_ref`](Self::commit_ref) or abandon with
    /// [`truncate_pool`](Self::truncate_pool)).
    pub fn push_position(&mut self, position: IsLsn) {
        self.pool.push(position);
    }

    /// Seals the positions appended since `mark` into a new incident.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if nothing was appended or the run is not
    /// strictly ascending.
    pub fn commit_ref(&mut self, mark: usize) {
        let len = self.pool.len() - mark;
        debug_assert!(len > 0, "committing an empty incident");
        debug_assert!(
            self.pool[mark..].windows(2).all(|w| w[0] < w[1]),
            "committed positions must be ascending"
        );
        let (first, last) = (self.pool[mark], self.pool[self.pool.len() - 1]);
        self.push_ref(mark, len, first, last);
    }

    /// Builds a batch from a sorted, deduplicated incident list (the
    /// boundary conversion used when only one side of a combine is already
    /// in batch form).
    #[must_use]
    pub fn from_incidents(wid: Wid, incidents: &[Incident]) -> Self {
        let mut batch = IncidentBatch::new(wid);
        batch.extend_incidents(incidents);
        batch
    }

    /// Appends a sorted, deduplicated incident list of this batch's
    /// instance to an empty batch, first growing its storage, when short,
    /// to exactly the room the list needs (as `from_incidents` sizes a
    /// new batch).
    pub(crate) fn extend_incidents(&mut self, incidents: &[Incident]) {
        let positions: usize = incidents.iter().map(Incident::len).sum();
        self.pool.reserve_exact(positions);
        self.refs.reserve_exact(incidents.len());
        for incident in incidents {
            debug_assert_eq!(incident.wid(), self.wid, "incident from another instance");
            self.push_sorted_positions(incident.positions());
        }
        debug_assert!(
            incidents.windows(2).all(|w| w[0] < w[1]),
            "input must be sorted+deduped"
        );
    }

    /// A batch of singletons from ascending positions (leaf evaluation).
    #[must_use]
    pub fn from_sorted_positions(wid: Wid, positions: impl IntoIterator<Item = IsLsn>) -> Self {
        let mut batch = IncidentBatch::new(wid);
        for p in positions {
            batch.push_singleton(p);
        }
        debug_assert!(batch.refs.windows(2).all(|w| w[0].first < w[1].first));
        batch
    }

    /// Converts to the classic representation, preserving order.
    #[must_use]
    pub fn into_incidents(self) -> Vec<Incident> {
        self.iter().map(|o| o.to_incident()).collect()
    }

    /// The incidents in ref order (set order once finished), borrowed
    /// from the pool.
    #[must_use]
    pub fn iter(&self) -> Incidents<'_> {
        Incidents {
            wid: self.wid,
            pool: &self.pool,
            refs: self.refs.iter(),
        }
    }

    /// Where `positions` sits among the finished refs `refs` of this
    /// batch: `Ok` with its index in `refs` when present, `Err` with its
    /// sorted insertion point there.
    pub(crate) fn find(&self, refs: Range<usize>, positions: &[IsLsn]) -> Result<usize, usize> {
        // Slice order is incident order: a slice starts with its `first`.
        self.refs[refs].binary_search_by(|r| self.pool[r.range()].cmp(positions))
    }

    /// Adds one incident, given its strictly ascending positions, as ref
    /// `at`: the positions go to the end of the pool and the ref into
    /// place, shifting the refs from `at` on.
    pub(crate) fn insert_at(&mut self, at: usize, positions: &[IsLsn]) {
        self.push_sorted_positions(positions);
        self.refs[at..].rotate_right(1);
    }

    /// Adds every incident of the finished batch `new`, none of which may
    /// already be present, keeping this batch finished. The positions go to
    /// the end of the pool (only those `new`'s refs point at) and the refs
    /// are merged from the back, so the cost is `new.len()` plus the number
    /// of refs sorting after `new`'s first incident, with no allocation
    /// beyond the two vectors' growth.
    pub(crate) fn absorb(&mut self, new: &IncidentBatch) {
        debug_assert_eq!(self.wid, new.wid, "absorbing another instance");
        let positions: usize = new.refs.iter().map(IncidentRef::len).sum();
        self.pool.reserve(positions);
        for r in &new.refs {
            self.pool.extend_from_slice(new.positions(r));
        }
        let mut end = self.pool.len();
        // The guard of `push_ref`: every offset below is at most `end`.
        assert!(
            end <= u32::MAX as usize,
            "position pool exceeds u32::MAX entries"
        );
        let (mut i, mut j) = (self.refs.len(), new.refs.len());
        // Placeholders, all overwritten by the merge.
        self.refs.extend_from_slice(&new.refs);
        while j > 0 {
            let r = new.refs[j - 1];
            let offset = end - r.len();
            #[allow(clippy::cast_possible_truncation)]
            let moved = IncidentRef {
                offset: offset as u32,
                ..r
            };
            if i > 0 && self.cmp_within(&self.refs[i - 1], &moved) == Ordering::Greater {
                self.refs[i + j - 1] = self.refs[i - 1];
                i -= 1;
            } else {
                self.refs[i + j - 1] = moved;
                j -= 1;
                end = offset;
            }
        }
        self.debug_check_invariants();
    }

    /// Ref capacity: the incidents the batch holds before its refs grow.
    pub(crate) fn capacity(&self) -> usize {
        self.refs.capacity()
    }

    /// Whether `refs` more incidents over `positions` more pooled
    /// positions fit without either vector growing, and with every
    /// offset still a `u32`.
    pub(crate) fn fits(&self, refs: usize, positions: usize) -> bool {
        let pooled = self.pool.len() + positions;
        self.refs.len() + refs <= self.refs.capacity()
            && pooled <= self.pool.capacity()
            && pooled <= u32::MAX as usize
    }

    /// Appends every incident of `other`, a batch of any instance, after
    /// this batch's: its pool is copied whole and its refs are shifted to
    /// the copy. This fills an [`IncidentSet`](crate::IncidentSet)'s
    /// shared segments; the caller checks [`fits`](Self::fits) first.
    pub(crate) fn append(&mut self, other: &IncidentBatch) {
        debug_assert!(self.pool.len() + other.pool.len() <= u32::MAX as usize);
        // Lossless: `fits` held for the whole of `other`'s pool.
        #[allow(clippy::cast_possible_truncation)]
        let base = self.pool.len() as u32;
        self.pool.extend_from_slice(&other.pool);
        self.refs.extend(other.refs.iter().map(|r| IncidentRef {
            offset: r.offset + base,
            ..*r
        }));
    }

    /// The incidents of refs `refs`, as incidents of instance `wid` (a
    /// run of an [`IncidentSet`](crate::IncidentSet) segment).
    pub(crate) fn run(&self, wid: Wid, refs: Range<usize>) -> Incidents<'_> {
        Incidents {
            wid,
            pool: &self.pool,
            refs: self.refs.get(refs).unwrap_or_default().iter(),
        }
    }

    /// Compares two refs of *this* batch in incident order: by the cached
    /// `first` (no pool access), then by position-slice lexicographic
    /// order. Since `slice[0] == first`, this equals the derived
    /// [`Incident`] ordering within one wid.
    #[must_use]
    pub fn cmp_within(&self, a: &IncidentRef, b: &IncidentRef) -> Ordering {
        a.first
            .cmp(&b.first)
            .then_with(|| self.positions(a).cmp(self.positions(b)))
    }

    /// Compares a ref of `self` against a ref of `other` in incident
    /// order (the `⊗` kernel's merge comparator).
    #[must_use]
    pub fn cmp_across(&self, a: &IncidentRef, other: &IncidentBatch, b: &IncidentRef) -> Ordering {
        a.first
            .cmp(&b.first)
            .then_with(|| self.positions(a).cmp(other.positions(b)))
    }

    /// Restores full sorted order when only the primary key is already in
    /// place: refs must arrive sorted by `first` (guaranteed by the
    /// `⊙`/`→` kernels, which scan a first-sorted left input and emit
    /// unions keeping the left operand's `first`); each maximal run of
    /// equal `first` is then sorted by slice order and duplicates — which
    /// can only occur within a run, as equal incidents share `first` —
    /// are dropped. This replaces the blanket output re-sort of the
    /// classic operators with `O(Σ run log run)` work, zero when every
    /// `first` is distinct.
    pub fn finish_runs(&mut self) {
        let IncidentBatch { pool, refs, .. } = self;
        debug_assert!(
            refs.windows(2).all(|w| w[0].first <= w[1].first),
            "runs out of order"
        );
        let n = refs.len();
        let mut start = 0;
        while start < n {
            let mut end = start + 1;
            while end < n && refs[end].first == refs[start].first {
                end += 1;
            }
            if end - start > 1 {
                refs[start..end].sort_unstable_by(|a, b| pool[a.range()].cmp(&pool[b.range()]));
            }
            start = end;
        }
        refs.dedup_by(|a, b| pool[a.range()] == pool[b.range()]);
        self.debug_check_invariants();
    }

    /// Restores full sorted order with no precondition (the `⊕` kernel,
    /// whose unions take `first` from either operand).
    pub fn finish_full(&mut self) {
        let IncidentBatch { pool, refs, .. } = self;
        refs.sort_unstable_by(|a, b| {
            a.first
                .cmp(&b.first)
                .then_with(|| pool[a.range()].cmp(&pool[b.range()]))
        });
        refs.dedup_by(|a, b| pool[a.range()] == pool[b.range()]);
        self.debug_check_invariants();
    }

    /// Debug-build validation of the layout invariants; a no-op in
    /// release builds.
    pub fn debug_check_invariants(&self) {
        #[cfg(debug_assertions)]
        {
            for r in &self.refs {
                let slice = &self.pool[r.range()];
                assert!(!slice.is_empty(), "empty incident ref");
                assert!(
                    slice.windows(2).all(|w| w[0] < w[1]),
                    "unsorted incident slice"
                );
                assert_eq!(r.first, slice[0], "stale cached first");
                assert_eq!(r.last, slice[slice.len() - 1], "stale cached last");
            }
            assert!(
                self.refs
                    .windows(2)
                    .all(|w| self.cmp_within(&w[0], &w[1]) == Ordering::Less),
                "finished batch refs must be strictly sorted"
            );
        }
    }
}

/// Logical equality: the same instance and the same incidents in the same
/// order. Pool positions no ref points at (left by the dedup in
/// `finish_runs` or `finish_full`, or by `truncate`) and the pool's
/// layout do not count.
impl PartialEq for IncidentBatch {
    fn eq(&self, other: &Self) -> bool {
        self.wid == other.wid && self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for IncidentBatch {}

impl<'a> IntoIterator for &'a IncidentBatch {
    type Item = IncidentView<'a>;
    type IntoIter = Incidents<'a>;

    fn into_iter(self) -> Incidents<'a> {
        self.iter()
    }
}

/// The incidents of one batch, returned by [`IncidentBatch::iter`].
#[derive(Debug, Clone)]
pub struct Incidents<'a> {
    wid: Wid,
    pool: &'a [IsLsn],
    refs: std::slice::Iter<'a, IncidentRef>,
}

impl<'a> Iterator for Incidents<'a> {
    type Item = IncidentView<'a>;

    fn next(&mut self) -> Option<IncidentView<'a>> {
        let r = self.refs.next()?;
        Some(IncidentView::new(
            self.wid,
            r.first,
            r.last,
            &self.pool[r.range()],
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.refs.size_hint()
    }
}

impl ExactSizeIterator for Incidents<'_> {}

/// A free-list of spent [`IncidentBatch`]es.
///
/// Evaluation allocates one output batch per operator node and retires
/// both inputs immediately after combining; recycling them means a whole
/// query — or a parallel worker's whole sweep of instances — touches the
/// allocator only while high-water marks still grow. Arenas are never
/// shared: each worker owns its own.
#[derive(Debug, Default)]
pub struct BatchArena {
    free: Vec<IncidentBatch>,
}

impl BatchArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        BatchArena::default()
    }

    /// A cleared batch for `wid`, reusing a retired batch's allocations
    /// when one is available.
    pub fn alloc(&mut self, wid: Wid) -> IncidentBatch {
        match self.free.pop() {
            Some(mut batch) => {
                batch.reset(wid);
                batch
            }
            None => IncidentBatch::new(wid),
        }
    }

    /// Returns a batch's allocations to the free-list.
    pub fn recycle(&mut self, batch: IncidentBatch) {
        self.free.push(batch);
    }

    /// Number of batches currently pooled.
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lsns(ps: &[u32]) -> Vec<IsLsn> {
        ps.iter().map(|&p| IsLsn(p)).collect()
    }

    #[test]
    fn round_trips_incident_lists() {
        let incidents = vec![
            Incident::from_positions(Wid(3), lsns(&[1, 4])),
            Incident::from_positions(Wid(3), lsns(&[2])),
            Incident::from_positions(Wid(3), lsns(&[2, 5, 7])),
        ];
        let batch = IncidentBatch::from_incidents(Wid(3), &incidents);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.pool_len(), 6);
        assert_eq!(batch.iter().nth(2).unwrap().positions(), lsns(&[2, 5, 7]));
        batch.debug_check_invariants();
        assert_eq!(batch.into_incidents(), incidents);
    }

    #[test]
    fn concat_union_caches_endpoints() {
        let mut batch = IncidentBatch::new(Wid(1));
        batch.push_concat(&lsns(&[2, 3]), &lsns(&[5, 9]));
        let r = batch.refs()[0];
        assert_eq!((r.first(), r.last(), r.len()), (IsLsn(2), IsLsn(9), 4));
        assert_eq!(batch.positions(&r), lsns(&[2, 3, 5, 9]).as_slice());
    }

    #[test]
    fn finish_runs_sorts_ties_and_dedups() {
        let mut batch = IncidentBatch::new(Wid(1));
        // Three incidents sharing first=1, one duplicated, plus a later one.
        batch.push_sorted_positions(&lsns(&[1, 9]));
        batch.push_sorted_positions(&lsns(&[1, 2]));
        batch.push_sorted_positions(&lsns(&[1, 9]));
        batch.push_sorted_positions(&lsns(&[4]));
        batch.finish_runs();
        let out: Vec<&[IsLsn]> = batch.iter().map(|o| o.positions()).collect();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], lsns(&[1, 2]).as_slice());
        assert_eq!(out[1], lsns(&[1, 9]).as_slice());
        assert_eq!(out[2], lsns(&[4]).as_slice());
    }

    #[test]
    fn speculative_merge_rolls_back_cleanly() {
        let mut batch = IncidentBatch::new(Wid(1));
        batch.push_singleton(IsLsn(1));
        let mark = batch.pool_mark();
        batch.push_position(IsLsn(3));
        batch.push_position(IsLsn(4));
        batch.truncate_pool(mark); // abandoned: operands shared a record
        let mark = batch.pool_mark();
        batch.push_position(IsLsn(5));
        batch.commit_ref(mark);
        batch.finish_full();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.iter().nth(1).unwrap().positions(), lsns(&[5]));
    }

    #[test]
    fn absorb_merges_new_incidents_in_order() {
        let mut held = IncidentBatch::from_sorted_positions(Wid(1), lsns(&[1, 3, 5]));
        let mut delta = IncidentBatch::new(Wid(1));
        delta.push_sorted_positions(&lsns(&[1, 6]));
        delta.push_sorted_positions(&lsns(&[4, 6]));
        delta.push_sorted_positions(&lsns(&[6]));
        held.absorb(&delta);
        let out: Vec<&[IsLsn]> = held.iter().map(|o| o.positions()).collect();
        let expected = [&[1][..], &[1, 6], &[3], &[4, 6], &[5], &[6]].map(lsns);
        assert_eq!(out, expected.iter().map(Vec::as_slice).collect::<Vec<_>>());
    }

    #[test]
    fn arena_recycles_allocations() {
        let mut arena = BatchArena::new();
        let mut batch = arena.alloc(Wid(1));
        batch.push_singleton(IsLsn(1));
        arena.recycle(batch);
        assert_eq!(arena.pooled(), 1);
        let again = arena.alloc(Wid(2));
        assert!(again.is_empty());
        assert_eq!(again.wid(), Wid(2));
        assert_eq!(arena.pooled(), 0);
    }
}
