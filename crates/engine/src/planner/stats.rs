//! Per-task cardinality and span statistics feeding the planner.
//!
//! [`wlq_log::LogStats`] carries whole-log activity counts — the input to
//! the pattern-level cost model. The planner additionally wants
//! *per-instance* shape: how many postings of each activity the densest
//! instance holds (the per-`wid` join sizes the kernels actually see),
//! and how skewed that distribution is. The log's
//! [`wlq_log::LogIndex`] records both when it groups its postings, so
//! collecting them costs one read of its symbol table and instance
//! offsets, and no pass over the log.

use std::collections::BTreeMap;

use wlq_log::{Activity, ActivityId, LogIndex, LogStats};

/// Statistics driving plan selection: whole-log counts plus per-instance
/// posting maxima.
#[derive(Debug, Clone)]
pub struct PlanStats {
    log_stats: LogStats,
    max_postings: BTreeMap<Activity, usize>,
}

impl PlanStats {
    /// Reads the statistics off a log's activity index.
    #[must_use]
    pub fn compute(index: &LogIndex) -> Self {
        let max_postings = index
            .activities()
            .iter()
            .zip(0..)
            .map(|(name, id)| (name.clone(), index.max_instance_postings(ActivityId(id))))
            .collect();
        PlanStats {
            log_stats: LogStats::from_index(index),
            max_postings,
        }
    }

    /// The whole-log statistics (activity counts, instance lengths).
    #[must_use]
    pub fn log_stats(&self) -> &LogStats {
        &self.log_stats
    }

    /// The largest per-instance posting count of `activity` — the worst
    /// single-`wid` operand size a kernel will see for that leaf.
    #[must_use]
    pub fn max_instance_postings(&self, activity: &str) -> usize {
        self.max_postings.get(activity).copied().unwrap_or(0)
    }

    /// Mean postings of `activity` per instance.
    #[must_use]
    pub fn mean_instance_postings(&self, activity: &str) -> f64 {
        let instances = self.log_stats.num_instances.max(1);
        #[allow(clippy::cast_precision_loss)]
        {
            self.log_stats.activity_count(activity) as f64 / instances as f64
        }
    }

    /// Skew of `activity` across instances: max over mean posting count
    /// (≥ 1 whenever the activity occurs; 0 when it never does). A high
    /// value means whole-log estimates understate the densest instance.
    #[must_use]
    pub fn skew(&self, activity: &str) -> f64 {
        let mean = self.mean_instance_postings(activity);
        if mean == 0.0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            (self.max_instance_postings(activity) as f64 / mean).max(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::paper;

    fn stats() -> PlanStats {
        let log = paper::figure3_log();
        PlanStats::compute(log.index())
    }

    #[test]
    fn max_postings_track_the_densest_instance() {
        let s = stats();
        // SeeDoctor: wid1 has two, wid2 has two, wid3 none.
        assert_eq!(s.max_instance_postings("SeeDoctor"), 2);
        assert_eq!(s.max_instance_postings("UpdateRefer"), 1);
        assert_eq!(s.max_instance_postings("Missing"), 0);
    }

    #[test]
    fn skew_is_at_least_one_for_present_activities() {
        let s = stats();
        assert!(s.skew("SeeDoctor") >= 1.0);
        assert_eq!(s.skew("Missing"), 0.0);
        // SeeDoctor: 4 total over 3 instances (mean 4/3), max 2 → 1.5.
        assert!((s.skew("SeeDoctor") - 1.5).abs() < 1e-9);
    }

    #[test]
    fn mean_postings_divide_by_instances() {
        let s = stats();
        assert!((s.mean_instance_postings("START") - 1.0).abs() < 1e-9);
    }
}
