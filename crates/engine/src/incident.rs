//! Incidents (Definition 4): the matches of a pattern in a log.

use std::fmt;

use wlq_log::{IsLsn, Wid};

/// An incident of a pattern in a log: a nonempty set of log records of a
/// single workflow instance, identified by their `(wid, is-lsn)`
/// coordinates.
///
/// The paper's `first(o)` and `last(o)` functions are derivable: for every
/// operator of Definition 4 they coincide with the minimum and maximum
/// is-lsn in the set (proved by a straightforward induction), so an
/// incident stores its positions sorted and exposes
/// [`first`](Self::first) / [`last`](Self::last) as the endpoints.
///
/// # Examples
///
/// ```
/// use wlq_engine::Incident;
/// use wlq_log::{IsLsn, Wid};
///
/// let a = Incident::singleton(Wid(2), IsLsn(5));
/// let b = Incident::singleton(Wid(2), IsLsn(9));
/// let joined = a.union(&b);
/// assert_eq!(joined.first(), IsLsn(5));
/// assert_eq!(joined.last(), IsLsn(9));
/// assert_eq!(joined.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Incident {
    wid: Wid,
    /// Sorted ascending, deduplicated, nonempty.
    positions: Vec<IsLsn>,
}

impl Incident {
    /// An incident of an atomic pattern: one record.
    #[must_use]
    pub fn singleton(wid: Wid, position: IsLsn) -> Self {
        Incident {
            wid,
            positions: vec![position],
        }
    }

    /// Builds an incident from arbitrary positions (sorted and deduped).
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty — incidents are nonempty by
    /// Definition 4.
    #[must_use]
    pub fn from_positions(wid: Wid, mut positions: Vec<IsLsn>) -> Self {
        assert!(
            !positions.is_empty(),
            "incidents are nonempty sets of log records"
        );
        positions.sort_unstable();
        positions.dedup();
        Incident { wid, positions }
    }

    /// Builds an incident from positions already strictly ascending and
    /// nonempty — the batch-to-incident boundary conversion, which must
    /// not pay [`from_positions`](Self::from_positions)' re-sort.
    pub(crate) fn from_sorted_positions_unchecked(wid: Wid, positions: Vec<IsLsn>) -> Self {
        debug_assert!(
            !positions.is_empty(),
            "incidents are nonempty sets of log records"
        );
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must be ascending"
        );
        Incident { wid, positions }
    }

    /// The workflow instance this incident belongs to, `wid(o)`.
    #[must_use]
    pub fn wid(&self) -> Wid {
        self.wid
    }

    /// `first(o)`: the smallest is-lsn in the incident.
    #[must_use]
    pub fn first(&self) -> IsLsn {
        // Nonempty by construction (both constructors enforce it).
        self.positions[0]
    }

    /// `last(o)`: the largest is-lsn in the incident.
    #[must_use]
    pub fn last(&self) -> IsLsn {
        self.positions[self.positions.len() - 1]
    }

    /// Number of log records in the incident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Incidents are never empty; provided for container-contract symmetry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The sorted is-lsns of the incident's records.
    #[must_use]
    pub fn positions(&self) -> &[IsLsn] {
        &self.positions
    }

    /// Whether the incident contains the record at `position`.
    #[must_use]
    pub fn contains(&self, position: IsLsn) -> bool {
        self.positions.binary_search(&position).is_ok()
    }

    /// Whether two incidents share no log records — the parallel
    /// operator's side condition (`o1 ∩ o2 = ∅`). Linear in the incident
    /// sizes (sorted merge), as in the paper's Lemma 1 analysis, with a
    /// constant-time range shortcut when the incidents don't overlap.
    #[must_use]
    pub fn is_disjoint(&self, other: &Incident) -> bool {
        if self.wid != other.wid {
            return true;
        }
        // Range shortcut: non-overlapping spans cannot share records.
        if self.last() < other.first() || other.last() < self.first() {
            return true;
        }
        let (mut i, mut j) = (0, 0);
        while i < self.positions.len() && j < other.positions.len() {
            match self.positions[i].cmp(&other.positions[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// The union `o1 ∪ o2` (sorted merge).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the wids differ — Definition 4 only ever
    /// unions incidents of the same instance.
    #[must_use]
    pub fn union(&self, other: &Incident) -> Incident {
        debug_assert_eq!(self.wid, other.wid, "union across instances");
        let mut positions = Vec::with_capacity(self.positions.len() + other.positions.len());
        let (mut i, mut j) = (0, 0);
        while i < self.positions.len() && j < other.positions.len() {
            match self.positions[i].cmp(&other.positions[j]) {
                std::cmp::Ordering::Less => {
                    positions.push(self.positions[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    positions.push(other.positions[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    positions.push(self.positions[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        positions.extend_from_slice(&self.positions[i..]);
        positions.extend_from_slice(&other.positions[j..]);
        Incident {
            wid: self.wid,
            positions,
        }
    }
}

/// Prints like the paper: `{l5, l9}@wid2` using instance-local
/// coordinates (`is-lsn`), since global lsns require the log.
fn write_incident(f: &mut fmt::Formatter<'_>, wid: Wid, positions: &[IsLsn]) -> fmt::Result {
    write!(f, "{{")?;
    for (i, p) in positions.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{p}")?;
    }
    write!(f, "}}@wid{wid}")
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_incident(f, self.wid, &self.positions)
    }
}

/// One incident of an [`IncidentBatch`](crate::IncidentBatch) or
/// [`IncidentSet`](crate::IncidentSet), borrowed from the batch's shared
/// position pool: the [`Incident`] accessors without an allocation.
///
/// # Examples
///
/// ```
/// use wlq_engine::IncidentBatch;
/// use wlq_log::{IsLsn, Wid};
///
/// let mut batch = IncidentBatch::new(Wid(2));
/// batch.push_sorted_positions(&[IsLsn(5), IsLsn(9)]);
/// let o = batch.iter().next().unwrap();
/// assert_eq!((o.first(), o.last(), o.len()), (IsLsn(5), IsLsn(9), 2));
/// assert_eq!(o.to_string(), "{5, 9}@wid2");
/// assert_eq!(o.to_incident().to_string(), o.to_string());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncidentView<'a> {
    wid: Wid,
    first: IsLsn,
    last: IsLsn,
    positions: &'a [IsLsn],
}

impl<'a> IncidentView<'a> {
    /// A view of `positions` (strictly ascending, nonempty, with the given
    /// endpoints) in instance `wid`.
    pub(crate) fn new(wid: Wid, first: IsLsn, last: IsLsn, positions: &'a [IsLsn]) -> Self {
        debug_assert_eq!(positions.first(), Some(&first), "stale cached first");
        debug_assert_eq!(positions.last(), Some(&last), "stale cached last");
        IncidentView {
            wid,
            first,
            last,
            positions,
        }
    }

    /// The workflow instance this incident belongs to, `wid(o)`.
    #[must_use]
    pub fn wid(&self) -> Wid {
        self.wid
    }

    /// `first(o)`: the smallest is-lsn in the incident.
    #[must_use]
    pub fn first(&self) -> IsLsn {
        self.first
    }

    /// `last(o)`: the largest is-lsn in the incident.
    #[must_use]
    pub fn last(&self) -> IsLsn {
        self.last
    }

    /// Number of log records in the incident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Always `false`: incidents are nonempty by Definition 4.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The sorted is-lsns of the incident's records.
    #[must_use]
    pub fn positions(&self) -> &'a [IsLsn] {
        self.positions
    }

    /// An owned copy of the incident.
    #[must_use]
    pub fn to_incident(&self) -> Incident {
        Incident::from_sorted_positions_unchecked(self.wid, self.positions.to_vec())
    }
}

impl fmt::Display for IncidentView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_incident(f, self.wid, self.positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inc(wid: u64, ps: &[u32]) -> Incident {
        Incident::from_positions(Wid(wid), ps.iter().map(|&p| IsLsn(p)).collect())
    }

    #[test]
    fn singleton_has_equal_endpoints() {
        let o = Incident::singleton(Wid(1), IsLsn(4));
        assert_eq!(o.first(), IsLsn(4));
        assert_eq!(o.last(), IsLsn(4));
        assert_eq!(o.len(), 1);
        assert!(!o.is_empty());
        assert_eq!(o.wid(), Wid(1));
    }

    #[test]
    fn from_positions_sorts_and_dedups() {
        let o = inc(1, &[5, 2, 5, 9]);
        assert_eq!(o.positions(), &[IsLsn(2), IsLsn(5), IsLsn(9)]);
        assert_eq!(o.first(), IsLsn(2));
        assert_eq!(o.last(), IsLsn(9));
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_incident_panics() {
        let _ = Incident::from_positions(Wid(1), vec![]);
    }

    #[test]
    fn contains_uses_binary_search() {
        let o = inc(1, &[2, 5, 9]);
        assert!(o.contains(IsLsn(5)));
        assert!(!o.contains(IsLsn(4)));
    }

    #[test]
    fn disjointness_detects_overlap() {
        assert!(inc(1, &[1, 3]).is_disjoint(&inc(1, &[2, 4])));
        assert!(!inc(1, &[1, 3]).is_disjoint(&inc(1, &[3, 4])));
        // Different instances are trivially disjoint.
        assert!(inc(1, &[3]).is_disjoint(&inc(2, &[3])));
        // Range shortcut path.
        assert!(inc(1, &[1, 2]).is_disjoint(&inc(1, &[5, 6])));
    }

    #[test]
    fn union_merges_sorted() {
        let o = inc(1, &[1, 5]).union(&inc(1, &[3, 5, 9]));
        assert_eq!(o.positions(), &[IsLsn(1), IsLsn(3), IsLsn(5), IsLsn(9)]);
    }

    #[test]
    fn ordering_is_by_wid_then_positions() {
        let mut v = vec![inc(2, &[1]), inc(1, &[9]), inc(1, &[2, 3]), inc(1, &[2])];
        v.sort();
        assert_eq!(
            v,
            vec![inc(1, &[2]), inc(1, &[2, 3]), inc(1, &[9]), inc(2, &[1])]
        );
    }

    #[test]
    fn display_shows_positions_and_wid() {
        assert_eq!(inc(2, &[5, 9]).to_string(), "{5, 9}@wid2");
    }
}
