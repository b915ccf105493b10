//! Incident sets: `incL(p)`, one finished batch per matched instance.

use std::collections::BTreeMap;
use std::fmt;

use wlq_log::Wid;

use crate::batch::IncidentBatch;
use crate::incident::{Incident, IncidentView};
use crate::kernels;

/// The set of all incidents of a pattern in a log (`incL(p)`), partitioned
/// by workflow instance.
///
/// Incidents never span instances (Definition 4 requires
/// `wid(o1) = wid(o2)`), so the per-`wid` partition is lossless and is the
/// unit of work for partitioned parallel evaluation. The set stores it
/// flat: one finished [`IncidentBatch`] per matched instance, ascending by
/// `wid` — for a planned query, the very batch the executor's root node
/// produced, moved in without a copy. Within an instance, incidents are
/// sorted (by `first`, then full position vector — the ordering the
/// paper's Algorithm 1 assumes) and deduplicated (incident *sets* contain
/// each set of records once). Iteration yields borrowed
/// [`IncidentView`]s, so reading a result allocates nothing and dropping
/// one frees two buffers per matched instance.
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
#[derive(Clone, Default, PartialEq, Eq)]
pub struct IncidentSet {
    /// Nonempty, finished batches, strictly ascending by `wid`.
    batches: Vec<IncidentBatch>,
}

impl IncidentSet {
    /// Creates an empty incident set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from finished per-instance batches with distinct
    /// wids, in any order; empty batches are dropped.
    pub(crate) fn from_batches(mut batches: Vec<IncidentBatch>) -> Self {
        batches.retain(|batch| !batch.is_empty());
        batches.sort_unstable_by_key(IncidentBatch::wid);
        debug_assert!(batches.windows(2).all(|w| w[0].wid() < w[1].wid()));
        IncidentSet { batches }
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
        Self::from_batches(
            by_wid
                .into_iter()
                .map(|(wid, mut incidents)| {
                    incidents.sort_unstable();
                    incidents.dedup();
                    IncidentBatch::from_incidents(wid, &incidents)
                })
                .collect(),
        )
    }

    /// The batch of instance `wid`, if it has incidents.
    fn batch(&self, wid: Wid) -> Option<&IncidentBatch> {
        let at = self
            .batches
            .binary_search_by_key(&wid, IncidentBatch::wid)
            .ok()?;
        self.batches.get(at)
    }

    /// Total number of incidents across all instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.batches.iter().map(IncidentBatch::len).sum()
    }

    /// Whether the set holds no incidents (the query found nothing).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Inserts an incident, keeping per-instance order and uniqueness.
    /// Returns `true` if it was new.
    pub fn insert(&mut self, incident: Incident) -> bool {
        match (self.batches).binary_search_by_key(&incident.wid(), IncidentBatch::wid) {
            Ok(at) => self.batches[at].insert(incident.positions()),
            Err(at) => {
                let mut batch = IncidentBatch::new(incident.wid());
                batch.push_sorted_positions(incident.positions());
                self.batches.insert(at, batch);
                true
            }
        }
    }

    /// Whether `incident` is in the set.
    #[must_use]
    pub fn contains(&self, incident: &Incident) -> bool {
        self.batch(incident.wid())
            .is_some_and(|batch| batch.find(incident.positions()).is_ok())
    }

    /// The incidents of one instance, sorted (none if it has no match).
    pub fn for_wid(&self, wid: Wid) -> impl Iterator<Item = IncidentView<'_>> {
        self.batch(wid).into_iter().flatten()
    }

    /// The instances that have at least one incident, ascending.
    pub fn wids(&self) -> impl Iterator<Item = Wid> + '_ {
        self.batches.iter().map(IncidentBatch::wid)
    }

    /// Iterates over all incidents, by instance then in-instance order.
    pub fn iter(&self) -> impl Iterator<Item = IncidentView<'_>> {
        self.into_iter()
    }

    /// Number of instances with at least one incident.
    #[must_use]
    pub fn num_matched_instances(&self) -> usize {
        self.batches.len()
    }

    /// Per-instance incident counts.
    #[must_use]
    pub fn counts_by_wid(&self) -> BTreeMap<Wid, usize> {
        (self.batches.iter())
            .map(|batch| (batch.wid(), batch.len()))
            .collect()
    }

    /// Merges another incident set into this one (set union).
    ///
    /// Instances matched on one side only move over whole; instances
    /// matched on both are united by the `⊗` kernel's linear merge.
    pub fn merge(&mut self, other: IncidentSet) {
        for batch in other.batches {
            match (self.batches).binary_search_by_key(&batch.wid(), IncidentBatch::wid) {
                Ok(at) => {
                    let mut union = IncidentBatch::new(batch.wid());
                    kernels::choice_kernel(&self.batches[at], &batch, &mut union);
                    self.batches[at] = union;
                }
                Err(at) => self.batches.insert(at, batch),
            }
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

impl<'a> IntoIterator for &'a IncidentSet {
    type Item = IncidentView<'a>;
    type IntoIter = std::iter::Flatten<std::slice::Iter<'a, IncidentBatch>>;

    fn into_iter(self) -> Self::IntoIter {
        self.batches.iter().flatten()
    }
}

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
    use wlq_log::IsLsn;

    fn inc(wid: u64, ps: &[u32]) -> Incident {
        Incident::from_positions(Wid(wid), ps.iter().map(|&p| IsLsn(p)).collect())
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
            let flat = IncidentSet::from_batches(vec![batch]);
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
}
