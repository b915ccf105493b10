//! Incremental, always-valid log construction.

use std::collections::BTreeMap;

use crate::attrs::AttrMap;
use crate::error::LogError;
use crate::log::Log;
use crate::names::Activity;
use crate::record::{IsLsn, LogRecord, Lsn, Wid};

/// Builds a [`Log`] record by record, maintaining Definition 2 by
/// construction: the builder assigns `lsn` and `is-lsn`, emits `START`
/// records on instance creation, and refuses appends to closed instances.
///
/// This is how a workflow engine writes its log: interleaved appends from
/// many live instances, each append producing the next global `lsn`.
///
/// # Examples
///
/// ```
/// use wlq_log::{attrs, LogBuilder};
///
/// let mut b = LogBuilder::new();
/// let w1 = b.start_instance();
/// let w2 = b.start_instance();
/// b.append(w1, "GetRefer", attrs! {}, attrs! { "balance" => 1000i64 })?;
/// b.append(w2, "GetRefer", attrs! {}, attrs! { "balance" => 2000i64 })?;
/// b.end_instance(w1)?;
/// let log = b.build()?;
/// assert_eq!(log.len(), 5); // 2 STARTs + 2 appends + 1 END
/// # Ok::<(), wlq_log::LogError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogBuilder {
    records: Vec<LogRecord>,
    next_wid: u64,
    state: BTreeMap<Wid, InstanceState>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InstanceState {
    next_is_lsn: IsLsn,
    closed: bool,
}

impl LogBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no record has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn next_lsn(&self) -> Lsn {
        Lsn(self.records.len() as u64 + 1)
    }

    /// Opens a new workflow instance, writing its `START` record, and
    /// returns the fresh instance id.
    pub fn start_instance(&mut self) -> Wid {
        self.next_wid += 1;
        let wid = Wid(self.next_wid);
        self.records.push(LogRecord::start(self.next_lsn(), wid));
        self.state.insert(
            wid,
            InstanceState {
                next_is_lsn: IsLsn(2),
                closed: false,
            },
        );
        wid
    }

    /// Opens an instance with a caller-chosen id (e.g. when replaying an
    /// external log).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::DuplicateLsn`] — never; returns
    /// [`LogError::InstanceClosed`] if `wid` was already started (open or
    /// closed).
    pub fn start_instance_with_id(&mut self, wid: Wid) -> Result<(), LogError> {
        if self.state.contains_key(&wid) {
            return Err(LogError::InstanceClosed(wid));
        }
        self.next_wid = self.next_wid.max(wid.get());
        self.records.push(LogRecord::start(self.next_lsn(), wid));
        self.state.insert(
            wid,
            InstanceState {
                next_is_lsn: IsLsn(2),
                closed: false,
            },
        );
        Ok(())
    }

    /// Appends an activity execution to instance `wid`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::UnknownInstance`] if `wid` was never started,
    /// [`LogError::InstanceClosed`] if it already has an `END` record, and
    /// [`LogError::IsLsnOverflow`] if it has no is-lsn left to give the
    /// record; nothing is written then.
    pub fn append(
        &mut self,
        wid: Wid,
        activity: impl Into<Activity>,
        input: AttrMap,
        output: AttrMap,
    ) -> Result<&LogRecord, LogError> {
        let lsn = self.next_lsn();
        let st = self
            .state
            .get_mut(&wid)
            .ok_or(LogError::UnknownInstance(wid))?;
        if st.closed {
            return Err(LogError::InstanceClosed(wid));
        }
        let next = st
            .next_is_lsn
            .checked_next()
            .ok_or(LogError::IsLsnOverflow(wid))?;
        let rec = LogRecord::new(lsn, wid, st.next_is_lsn, activity, input, output);
        st.next_is_lsn = next;
        self.records.push(rec);
        Ok(&self.records[self.records.len() - 1])
    }

    /// Closes instance `wid` with an `END` record.
    ///
    /// # Errors
    ///
    /// Same conditions as [`append`](Self::append).
    pub fn end_instance(&mut self, wid: Wid) -> Result<(), LogError> {
        let lsn = self.next_lsn();
        let st = self
            .state
            .get_mut(&wid)
            .ok_or(LogError::UnknownInstance(wid))?;
        if st.closed {
            return Err(LogError::InstanceClosed(wid));
        }
        let next = st
            .next_is_lsn
            .checked_next()
            .ok_or(LogError::IsLsnOverflow(wid))?;
        self.records.push(LogRecord::end(lsn, wid, st.next_is_lsn));
        st.next_is_lsn = next;
        st.closed = true;
        Ok(())
    }

    /// Returns `true` if `wid` is started and not yet closed.
    #[must_use]
    pub fn is_open(&self, wid: Wid) -> bool {
        self.state.get(&wid).is_some_and(|s| !s.closed)
    }

    /// The instance ids currently open.
    pub fn open_instances(&self) -> impl Iterator<Item = Wid> + '_ {
        self.state
            .iter()
            .filter(|(_, s)| !s.closed)
            .map(|(w, _)| *w)
    }

    /// A view of the records written so far, in lsn order.
    #[must_use]
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Finalises the builder into a validated [`Log`].
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Empty`] if nothing was written. Any other error
    /// would indicate a bug in the builder, since appends maintain the
    /// invariants; the result is re-validated regardless (defence in depth).
    pub fn build(self) -> Result<Log, LogError> {
        Log::new(self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;

    #[test]
    fn builder_assigns_lsn_and_is_lsn() {
        let mut b = LogBuilder::new();
        let w1 = b.start_instance();
        let w2 = b.start_instance();
        assert_eq!(w1, Wid(1));
        assert_eq!(w2, Wid(2));
        b.append(w1, "A", attrs! {}, attrs! {}).unwrap();
        b.append(w2, "B", attrs! {}, attrs! {}).unwrap();
        b.append(w1, "C", attrs! {}, attrs! {}).unwrap();
        let log = b.build().unwrap();
        assert_eq!(log.len(), 5);
        let r = log.get(Lsn(5)).unwrap();
        assert_eq!(r.wid(), w1);
        assert_eq!(r.is_lsn(), IsLsn(3));
        assert_eq!(r.activity().as_str(), "C");
    }

    #[test]
    fn appends_to_unknown_instance_fail() {
        let mut b = LogBuilder::new();
        let err = b.append(Wid(7), "A", attrs! {}, attrs! {}).unwrap_err();
        assert_eq!(err, LogError::UnknownInstance(Wid(7)));
    }

    #[test]
    fn appends_after_end_fail() {
        let mut b = LogBuilder::new();
        let w = b.start_instance();
        b.end_instance(w).unwrap();
        assert_eq!(
            b.append(w, "A", attrs! {}, attrs! {}).unwrap_err(),
            LogError::InstanceClosed(w)
        );
        assert_eq!(b.end_instance(w).unwrap_err(), LogError::InstanceClosed(w));
    }

    #[test]
    fn open_instances_tracks_lifecycle() {
        let mut b = LogBuilder::new();
        let w1 = b.start_instance();
        let w2 = b.start_instance();
        assert!(b.is_open(w1));
        b.end_instance(w1).unwrap();
        assert!(!b.is_open(w1));
        assert_eq!(b.open_instances().collect::<Vec<_>>(), vec![w2]);
    }

    #[test]
    fn explicit_ids_are_honoured_and_deduplicated() {
        let mut b = LogBuilder::new();
        b.start_instance_with_id(Wid(10)).unwrap();
        assert!(b.start_instance_with_id(Wid(10)).is_err());
        // Auto ids continue after the explicit one.
        let w = b.start_instance();
        assert_eq!(w, Wid(11));
    }

    #[test]
    fn an_instance_out_of_is_lsns_takes_no_record() {
        let mut b = LogBuilder::new();
        let w = b.start_instance();
        let other = b.start_instance();
        b.state.get_mut(&w).unwrap().next_is_lsn = IsLsn(u32::MAX);
        assert_eq!(
            b.append(w, "A", attrs! {}, attrs! {}).unwrap_err(),
            LogError::IsLsnOverflow(w)
        );
        assert_eq!(b.end_instance(w).unwrap_err(), LogError::IsLsnOverflow(w));
        assert!(b.is_open(w));
        assert_eq!(b.len(), 2);
        // Other instances are unaffected.
        b.append(other, "A", attrs! {}, attrs! {}).unwrap();
        assert_eq!(b.records()[2].is_lsn(), IsLsn(2));
    }

    #[test]
    fn empty_builder_fails_to_build() {
        assert_eq!(LogBuilder::new().build(), Err(LogError::Empty));
    }

    #[test]
    fn built_logs_are_always_valid() {
        // Interleave heavily; the result must pass Log::new validation.
        let mut b = LogBuilder::new();
        let wids: Vec<Wid> = (0..5).map(|_| b.start_instance()).collect();
        for round in 0..10 {
            for (i, &w) in wids.iter().enumerate() {
                if (round + i) % 3 == 0 {
                    b.append(w, "T", attrs! {}, attrs! {}).unwrap();
                }
            }
        }
        for &w in &wids[..2] {
            b.end_instance(w).unwrap();
        }
        let log = b.build().unwrap();
        assert_eq!(log.num_instances(), 5);
        assert!(log.is_completed(Wid(1)));
        assert!(!log.is_completed(Wid(5)));
    }
}
