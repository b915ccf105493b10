//! Incremental, always-valid log construction.

use crate::attrs::{AttrMap, AttrMapRef};
use crate::error::LogError;
use crate::io::{binary, Load};
use crate::log::{InstanceState, Log};
use crate::names::{Activity, END_ACTIVITY, START_ACTIVITY};
use crate::record::{Lsn, Wid};

/// Builds a [`Log`] record by record, maintaining Definition 2 by
/// construction: the builder assigns `lsn` and `is-lsn`, emits `START`
/// records on instance creation, and refuses appends to closed instances.
///
/// This is how a workflow engine writes its log: interleaved appends from
/// many live instances, each append producing the next global `lsn`.
/// Each record is filed into the load pass as it is written, its maps
/// encoded and dropped at once, as [`Log::new`] files its records; no
/// record is kept.
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
#[derive(Default)]
pub struct LogBuilder {
    load: Load,
    next_wid: u64,
    /// Each instance's wid and place in Definition 2, by the load's
    /// instance ordinal.
    instances: Vec<(Wid, InstanceState)>,
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
        self.load.len()
    }

    /// Returns `true` if no record has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens a new workflow instance, writing its `START` record, and
    /// returns the fresh instance id.
    pub fn start_instance(&mut self) -> Wid {
        self.next_wid += 1;
        let wid = Wid(self.next_wid);
        self.start(wid);
        wid
    }

    /// Opens an instance with a caller-chosen id (e.g. when replaying an
    /// external log).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::InstanceClosed`] if `wid` was already started
    /// (open or closed).
    pub fn start_instance_with_id(&mut self, wid: Wid) -> Result<(), LogError> {
        if self.load.instance(wid).is_some() {
            return Err(LogError::InstanceClosed(wid));
        }
        self.next_wid = self.next_wid.max(wid.get());
        self.start(wid);
        Ok(())
    }

    /// Writes the `START` record of the new instance `wid`.
    fn start(&mut self, wid: Wid) {
        // A new instance's first record, without maps, is always filed.
        let _ = self.file(wid, START_ACTIVITY, [AttrMapRef::EMPTY; 2]);
    }

    /// Appends an activity execution to instance `wid`, and returns the
    /// record's lsn.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::UnknownInstance`] if `wid` was never started,
    /// [`LogError::InstanceClosed`] if it already has an `END` record,
    /// and otherwise the error [`InstanceState::admit`] gives the record
    /// (e.g. [`LogError::IsLsnOverflow`] if the instance has no is-lsn
    /// left after it); nothing is written then. Returns
    /// [`LogError::TooManyRecords`] once the maps written hold more
    /// entries than `u32` ids can number; [`build`](Self::build) then
    /// fails alike.
    pub fn append(
        &mut self,
        wid: Wid,
        activity: impl Into<Activity>,
        input: AttrMap,
        output: AttrMap,
    ) -> Result<Lsn, LogError> {
        let activity = activity.into();
        self.open(wid)?;
        self.file(wid, activity.as_str(), [input.view(), output.view()])
    }

    /// Closes instance `wid` with an `END` record.
    ///
    /// # Errors
    ///
    /// Same conditions as [`append`](Self::append).
    pub fn end_instance(&mut self, wid: Wid) -> Result<(), LogError> {
        self.open(wid)?;
        self.file(wid, END_ACTIVITY, [AttrMapRef::EMPTY; 2])?;
        Ok(())
    }

    /// Instance `wid`'s place in Definition 2, if it was started.
    fn state(&self, wid: Wid) -> Option<InstanceState> {
        let ordinal = self.load.instance(wid)?;
        self.instances.get(ordinal).map(|&(_, state)| state)
    }

    /// `Ok` if `wid` is started and not yet closed.
    fn open(&self, wid: Wid) -> Result<(), LogError> {
        match self.state(wid) {
            None => Err(LogError::UnknownInstance(wid)),
            Some(state) if state.ended => Err(LogError::InstanceClosed(wid)),
            Some(_) => Ok(()),
        }
    }

    /// Files the next record of instance `wid`, the first of a new one,
    /// if Definition 2 admits it, and returns its lsn.
    fn file(
        &mut self,
        wid: Wid,
        activity: &str,
        maps: [AttrMapRef<'_>; 2],
    ) -> Result<Lsn, LogError> {
        let ordinal = self.load.instance(wid);
        let mut state = self.state(wid).unwrap_or_default();
        let (lsn, is_lsn) = (Lsn(self.len() as u64 + 1), state.next);
        let kind = [activity == START_ACTIVITY, activity == END_ACTIVITY];
        state.admit(wid, lsn, is_lsn, kind)?;
        (self
            .load
            .file((lsn, wid, is_lsn), activity, maps.map(binary::entries)))
        .ok_or(LogError::TooManyRecords(self.len() + 1))?;
        match ordinal.and_then(|o| self.instances.get_mut(o)) {
            Some(place) => place.1 = state,
            None => self.instances.push((wid, state)),
        }
        Ok(lsn)
    }

    /// Returns `true` if `wid` is started and not yet closed.
    #[must_use]
    pub fn is_open(&self, wid: Wid) -> bool {
        self.open(wid).is_ok()
    }

    /// The instance ids currently open, in the order they were started.
    pub fn open_instances(&self) -> impl Iterator<Item = Wid> + '_ {
        (self.instances.iter())
            .filter(|(_, state)| !state.ended)
            .map(|&(wid, _)| wid)
    }

    /// Finalises the builder into a validated [`Log`].
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Empty`] if nothing was written. Any other error
    /// would indicate a bug in the builder, since appends maintain the
    /// invariants; the load pass re-validates the result regardless
    /// (defence in depth).
    pub fn build(self) -> Result<Log, LogError> {
        self.load.finish(None, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;
    use crate::record::IsLsn;

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
        b.instances[0].1.next = IsLsn(u32::MAX);
        assert_eq!(
            b.append(w, "A", attrs! {}, attrs! {}).unwrap_err(),
            LogError::IsLsnOverflow(w)
        );
        assert_eq!(b.end_instance(w).unwrap_err(), LogError::IsLsnOverflow(w));
        assert!(b.is_open(w));
        assert_eq!(b.len(), 2);
        // Other instances are unaffected.
        assert_eq!(b.append(other, "A", attrs! {}, attrs! {}), Ok(Lsn(3)));
        let log = b.build().unwrap();
        assert_eq!(log.get(Lsn(3)).unwrap().is_lsn(), IsLsn(2));
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
