//! Whole-log operations: merging, prefixes, and instance filtering.
//!
//! These are the warehouse-free counterparts of ETL plumbing: combine the
//! logs of several engines into one queryable log, or look at a log "as
//! of" an earlier point in time.

use crate::error::LogError;
use crate::io::{binary, Load};
use crate::log::{Log, Row};
use crate::record::{Lsn, Wid};

/// Files a source log's row (its wid, is-lsn, activity and maps, read
/// off the source's columns) as `load`'s next record, under `wid`: no
/// source record is built.
fn file(load: &mut Load, (_, is_lsn, activity, maps): Row<'_>, wid: Wid) -> Result<(), LogError> {
    let lsn = Lsn(load.len() as u64 + 1);
    (load.file(
        (lsn, wid, is_lsn),
        activity.as_str(),
        maps.map(binary::entries),
    ))
    .ok_or(LogError::TooManyRecords(load.len() + 1))
}

impl Log {
    /// Merges several logs into one, interleaving records in their
    /// original per-log order (round-robin by global position, stable
    /// within each input) and renumbering `lsn`s to `1..`. Workflow
    /// instance ids are re-assigned densely in order of first appearance
    /// so instances from different inputs never collide.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Empty`] if `logs` is empty. Any other error
    /// would indicate an invariant bug, since each input is already a
    /// valid log and the merge preserves per-instance record order.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlq_log::{attrs, Log, LogBuilder};
    ///
    /// let mut a = LogBuilder::new();
    /// let w = a.start_instance();
    /// a.append(w, "A", attrs! {}, attrs! {})?;
    /// let a = a.build()?;
    ///
    /// let mut b = LogBuilder::new();
    /// let w = b.start_instance();
    /// b.append(w, "B", attrs! {}, attrs! {})?;
    /// let b = b.build()?;
    ///
    /// let merged = Log::merge([a, b])?;
    /// assert_eq!(merged.len(), 4);
    /// assert_eq!(merged.num_instances(), 2);
    /// # Ok::<(), wlq_log::LogError>(())
    /// ```
    pub fn merge(logs: impl IntoIterator<Item = Log>) -> Result<Log, LogError> {
        let sources: Vec<Log> = logs.into_iter().collect();
        let orders: Vec<Vec<(u32, u32)>> = sources.iter().map(Log::lsn_order).collect();
        // Per source, the merged wid of each instance ordinal, once seen.
        let mut wids: Vec<Vec<Option<Wid>>> = (sources.iter())
            .map(|log| vec![None; log.num_instances()])
            .collect();
        let mut next_wid = 0u64;
        let mut load = Load::with_capacity(sources.iter().map(Log::len).sum());

        // Round-robin over the sources to interleave fairly; within each
        // source, original order (and thus per-instance order) is kept.
        let longest = orders.iter().map(Vec::len).max().unwrap_or(0);
        for cursor in 0..longest {
            for ((source, order), wids) in sources.iter().zip(&orders).zip(&mut wids) {
                let Some(&at) = order.get(cursor) else {
                    continue;
                };
                let wid = *wids[at.0 as usize].get_or_insert_with(|| {
                    next_wid += 1;
                    Wid(next_wid)
                });
                file(&mut load, source.row(at), wid)?;
            }
        }
        load.finish(None, 0)
    }

    /// The log "as of" global sequence number `upto` (inclusive): the
    /// prefix containing records `1..=upto`. Since every prefix of a
    /// valid log is valid (END records stay last, is-lsns stay
    /// consecutive), this always succeeds for `upto ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Empty`] when `upto` is 0.
    pub fn prefix(&self, upto: Lsn) -> Result<Log, LogError> {
        let n = (upto.get() as usize).min(self.len());
        let mut load = Load::with_capacity(n);
        for &at in &self.lsn_order()[..n] {
            let row = self.row(at);
            file(&mut load, row, row.0)?;
        }
        load.finish(None, 0)
    }

    /// A new log containing only the instances accepted by `keep`,
    /// renumbering `lsn`s to `1..` but keeping `wid`s and record order.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Empty`] when no instance is kept.
    pub fn filter_instances(&self, mut keep: impl FnMut(Wid) -> bool) -> Result<Log, LogError> {
        let mut load = Load::default();
        for at in self.lsn_order() {
            let row = self.row(at);
            if keep(row.0) {
                file(&mut load, row, row.0)?;
            }
        }
        load.finish(None, 0)
    }

    /// Extracts the single-instance sub-log of `wid`, re-numbering lsns to
    /// `1..` while preserving order (used by partitioned evaluation).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::UnknownInstance`] if `wid` is not in the log.
    pub fn project_instance(&self, wid: Wid) -> Result<Log, LogError> {
        if self.instance_len(wid) == 0 {
            return Err(LogError::UnknownInstance(wid));
        }
        self.filter_instances(|w| w == wid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;
    use crate::builder::LogBuilder;
    use crate::paper;
    use crate::record::IsLsn;

    fn two_instance_log(acts: &[&str]) -> Log {
        let mut b = LogBuilder::new();
        let w1 = b.start_instance();
        let w2 = b.start_instance();
        for (i, act) in acts.iter().enumerate() {
            let w = if i % 2 == 0 { w1 } else { w2 };
            b.append(w, *act, attrs! {}, attrs! {}).unwrap();
        }
        b.end_instance(w1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn merge_renumbers_wids_and_lsns() {
        let a = two_instance_log(&["A", "B"]);
        let b = two_instance_log(&["C", "D", "E"]);
        let merged = Log::merge([a.clone(), b.clone()]).unwrap();
        assert_eq!(merged.len(), a.len() + b.len());
        assert_eq!(merged.num_instances(), 4);
        // lsns are 1..=len (validated by Log::new), wids dense 1..=4.
        assert_eq!(
            merged.wids().map(Wid::get).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn merge_preserves_per_instance_sequences() {
        let a = two_instance_log(&["A", "B", "C"]);
        let b = paper::figure3_log();
        let merged = Log::merge([a, b.clone()]).unwrap();
        // Find the merged instance matching Figure 3's wid 2 by looking
        // for the UpdateRefer activity.
        let update = merged
            .iter()
            .find(|r| r.activity().as_str() == "UpdateRefer")
            .unwrap();
        let acts: Vec<&str> = merged
            .instance(update.wid())
            .map(|r| r.activity().as_str())
            .collect();
        let orig: Vec<&str> = b.instance(Wid(2)).map(|r| r.activity().as_str()).collect();
        assert_eq!(acts, orig);
    }

    #[test]
    fn merge_of_single_log_is_isomorphic() {
        let log = paper::figure3_log();
        let merged = Log::merge([log.clone()]).unwrap();
        assert_eq!(merged.len(), log.len());
        // Same activity multiset per instance count.
        assert_eq!(merged.num_instances(), log.num_instances());
    }

    #[test]
    fn merge_of_nothing_is_an_error() {
        assert_eq!(Log::merge(Vec::<Log>::new()), Err(LogError::Empty));
    }

    #[test]
    fn prefix_is_valid_and_truncates() {
        let log = paper::figure3_log();
        let prefix = log.prefix(Lsn(8)).unwrap();
        assert_eq!(prefix.len(), 8);
        assert_eq!(prefix.num_instances(), 3);
        // wid 1 has records l1, l3, l4 in the prefix.
        assert_eq!(prefix.instance_len(Wid(1)), 3);
        // Beyond the end clamps.
        assert_eq!(log.prefix(Lsn(999)).unwrap().len(), 20);
        assert_eq!(log.prefix(Lsn(0)), Err(LogError::Empty));
    }

    #[test]
    fn every_prefix_of_a_valid_log_is_valid() {
        let log = two_instance_log(&["A", "B", "C", "D", "E"]);
        for upto in 1..=log.len() as u64 {
            let p = log.prefix(Lsn(upto)).unwrap();
            assert_eq!(p.len(), upto as usize);
        }
    }

    #[test]
    fn filter_instances_keeps_selected_wids() {
        let log = paper::figure3_log();
        let only2 = log.filter_instances(|w| w == Wid(2)).unwrap();
        assert_eq!(only2.num_instances(), 1);
        assert_eq!(only2.instance_len(Wid(2)), 9);
        let first = only2.get(Lsn(1)).unwrap();
        assert_eq!((first.wid(), first.is_lsn()), (Wid(2), IsLsn(1)));
        assert!(log.filter_instances(|_| false).is_err());
    }
}
