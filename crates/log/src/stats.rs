//! Descriptive statistics over a log, used for reporting and by the
//! cost-based optimizer (activity selectivities).

use std::collections::BTreeMap;
use std::fmt;

use crate::index::{ActivityId, LogIndex};
use crate::log::Log;
use crate::names::{Activity, END_ACTIVITY};

/// Summary statistics of a [`Log`].
///
/// ```
/// use wlq_log::{paper, LogStats};
///
/// let stats = LogStats::compute(&paper::figure3_log());
/// assert_eq!(stats.num_records, 20);
/// assert_eq!(stats.num_instances, 3);
/// assert_eq!(stats.activity_count("SeeDoctor"), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogStats {
    /// Total number of records, `|L|`.
    pub num_records: usize,
    /// Number of distinct workflow instances.
    pub num_instances: usize,
    /// Number of instances closed by an `END` record.
    pub completed_instances: usize,
    /// Executions per activity name (including `START`/`END`).
    pub activity_counts: BTreeMap<Activity, usize>,
    /// Length of the shortest instance.
    pub min_instance_len: usize,
    /// Length of the longest instance.
    pub max_instance_len: usize,
}

impl LogStats {
    /// The statistics of `log`, read off the index it was loaded with.
    #[must_use]
    pub fn compute(log: &Log) -> Self {
        Self::from_index(log.index())
    }

    /// The statistics read off a log's index, without a pass over its
    /// records: counts come from the symbol table, lengths from the
    /// instance offsets.
    #[must_use]
    pub fn from_index(index: &LogIndex) -> Self {
        let end = index.activity_id(END_ACTIVITY);
        let mut min_len = usize::MAX;
        let mut max_len = 0;
        let mut completed = 0;
        for ordinal in 0..index.num_instances() {
            let column = index.instance_activities(ordinal);
            min_len = min_len.min(column.len());
            max_len = max_len.max(column.len());
            if end.is_some() && column.last().copied() == end {
                completed += 1;
            }
        }
        let activity_counts = index
            .activities()
            .iter()
            .zip(0..)
            .map(|(name, id)| (name.clone(), index.activity_count(ActivityId(id))))
            .collect();
        LogStats {
            num_records: index.num_records(),
            num_instances: index.num_instances(),
            completed_instances: completed,
            activity_counts,
            min_instance_len: if min_len == usize::MAX { 0 } else { min_len },
            max_instance_len: max_len,
        }
    }

    /// Executions of `activity`, 0 if it never ran.
    #[must_use]
    pub fn activity_count(&self, activity: &str) -> usize {
        self.activity_counts.get(activity).copied().unwrap_or(0)
    }

    /// The fraction of records carrying `activity` — the selectivity
    /// statistic driving join-order choices in the optimizer.
    #[must_use]
    pub fn selectivity(&self, activity: &str) -> f64 {
        if self.num_records == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.activity_count(activity) as f64 / self.num_records as f64
        }
    }

    /// Mean records per instance.
    #[must_use]
    pub fn mean_instance_len(&self) -> f64 {
        if self.num_instances == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.num_records as f64 / self.num_instances as f64
        }
    }
}

impl fmt::Display for LogStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "records: {}, instances: {} ({} completed), instance length: {}..{} (mean {:.1})",
            self.num_records,
            self.num_instances,
            self.completed_instances,
            self.min_instance_len,
            self.max_instance_len,
            self.mean_instance_len(),
        )?;
        for (act, n) in &self.activity_counts {
            writeln!(f, "  {act}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn figure3_statistics() {
        let stats = LogStats::compute(&paper::figure3_log());
        assert_eq!(stats.num_records, 20);
        assert_eq!(stats.num_instances, 3);
        assert_eq!(stats.completed_instances, 0);
        assert_eq!(stats.activity_count("START"), 3);
        assert_eq!(stats.activity_count("SeeDoctor"), 4);
        assert_eq!(stats.activity_count("PayTreatment"), 3);
        assert_eq!(stats.activity_count("UpdateRefer"), 1);
        assert_eq!(stats.activity_count("Missing"), 0);
        assert_eq!(stats.min_instance_len, 2);
        assert_eq!(stats.max_instance_len, 9);
    }

    /// The statistics by a walk over the records, as a reference.
    fn record_walk(log: &Log) -> LogStats {
        let mut activity_counts: BTreeMap<Activity, usize> = BTreeMap::new();
        for r in log.iter() {
            *activity_counts.entry(r.activity().clone()).or_insert(0) += 1;
        }
        let lens: Vec<usize> = log.wids().map(|w| log.instance_len(w)).collect();
        LogStats {
            num_records: log.len(),
            num_instances: log.num_instances(),
            completed_instances: log.wids().filter(|&w| log.is_completed(w)).count(),
            activity_counts,
            min_instance_len: lens.iter().copied().min().unwrap_or(0),
            max_instance_len: lens.iter().copied().max().unwrap_or(0),
        }
    }

    #[test]
    fn index_statistics_equal_a_log_pass() {
        let log = paper::figure3_log();
        assert_eq!(LogStats::compute(&log), record_walk(&log));
        assert_eq!(LogStats::from_index(log.index()), record_walk(&log));
        let mut b = crate::LogBuilder::new();
        let w = b.start_instance();
        b.start_instance();
        b.end_instance(w).unwrap();
        let log = b.build().unwrap();
        let stats = LogStats::compute(&log);
        assert_eq!(stats.completed_instances, 1);
        assert_eq!(stats, record_walk(&log));
    }

    #[test]
    fn selectivity_and_mean_length() {
        let stats = LogStats::compute(&paper::figure3_log());
        let sel = stats.selectivity("SeeDoctor");
        assert!((sel - 0.2).abs() < 1e-12);
        assert!((stats.mean_instance_len() - 20.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.selectivity("Missing"), 0.0);
    }

    #[test]
    fn display_lists_every_activity() {
        let stats = LogStats::compute(&paper::figure3_log());
        let text = stats.to_string();
        assert!(text.contains("records: 20"));
        assert!(text.contains("SeeDoctor: 4"));
        assert!(text.contains("UpdateRefer: 1"));
    }
}
