//! Incident span analytics: how far apart are a pattern's endpoints?
//!
//! The span of an incident is `last(o) − first(o)`, in records of its
//! instance — a process-latency proxy ("how many steps between updating a
//! referral and cashing it out?"). [`SpanStats`] summarises a result
//! set's spans; [`Query::span_stats`] computes it directly.

use wlq_log::Log;

use crate::error::EngineError;
use crate::incident_set::IncidentSet;
use crate::query::Query;

/// Distribution summary of incident spans (in instance-record steps).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Number of incidents summarised.
    pub count: usize,
    /// Smallest span (0 for single-record incidents).
    pub min: u32,
    /// Largest span.
    pub max: u32,
    /// Mean span.
    pub mean: f64,
    /// Median span.
    pub median: u32,
}

impl SpanStats {
    /// Computes span statistics over an incident set; `None` if empty.
    #[must_use]
    pub fn compute(incidents: &IncidentSet) -> Option<SpanStats> {
        let mut spans: Vec<u32> = incidents
            .iter()
            .map(|o| o.last().get() - o.first().get())
            .collect();
        if spans.is_empty() {
            return None;
        }
        spans.sort_unstable();
        let count = spans.len();
        #[allow(clippy::cast_precision_loss)]
        let mean = spans.iter().map(|&s| f64::from(s)).sum::<f64>() / count as f64;
        Some(SpanStats {
            count,
            min: spans[0],
            max: spans[count - 1],
            mean,
            median: spans[count / 2],
        })
    }
}

impl std::fmt::Display for SpanStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} incidents, span min {} / median {} / mean {:.1} / max {}",
            self.count, self.min, self.median, self.mean, self.max
        )
    }
}

impl Query {
    /// Runs the query and summarises the spans of its incidents;
    /// `Ok(None)` when nothing matches.
    ///
    /// # Errors
    ///
    /// Same conditions as [`find`](Self::find).
    pub fn span_stats(&self, log: &Log) -> Result<Option<SpanStats>, EngineError> {
        Ok(SpanStats::compute(&self.find(log)?))
    }

    /// Returns up to `limit` incidents, the first in set order (by `wid`,
    /// then within an instance), stopping evaluation as soon as the quota
    /// is reached.
    ///
    /// Useful for "show me a few examples" exploration on large logs —
    /// the remaining instances are never evaluated. It runs on the
    /// calling thread, whatever thread count is configured.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoWorkers`] if the configured thread count
    /// is 0, as every other `Query` entry point does.
    pub fn find_first(&self, log: &Log, limit: usize) -> Result<IncidentSet, EngineError> {
        self.require_workers()?;
        Ok(self.evaluator(log).first(self.pattern(), limit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::paper;

    #[test]
    fn span_stats_of_the_anomaly_query() {
        let log = paper::figure3_log();
        let q = Query::parse("UpdateRefer -> GetReimburse").unwrap();
        let stats = q.span_stats(&log).unwrap().unwrap();
        // {l14, l20} = is-lsns 5 and 9 → span 4.
        assert_eq!(stats.count, 1);
        assert_eq!(stats.min, 4);
        assert_eq!(stats.max, 4);
        assert_eq!(stats.median, 4);
        assert!((stats.mean - 4.0).abs() < 1e-9);
    }

    #[test]
    fn span_stats_none_when_no_match() {
        let log = paper::figure3_log();
        let q = Query::parse("Nope").unwrap();
        assert!(q.span_stats(&log).unwrap().is_none());
    }

    #[test]
    fn atomic_incidents_have_zero_span() {
        let log = paper::figure3_log();
        let stats = Query::parse("SeeDoctor")
            .unwrap()
            .span_stats(&log)
            .unwrap()
            .unwrap();
        assert_eq!(stats.count, 4);
        assert_eq!(stats.min, 0);
        assert_eq!(stats.max, 0);
    }

    #[test]
    fn span_distribution_over_multiple_incidents() {
        let log = paper::figure3_log();
        // SeeDoctor ~> PayTreatment: three incidents, each span 1.
        let stats = Query::parse("SeeDoctor ~> PayTreatment")
            .unwrap()
            .span_stats(&log)
            .unwrap()
            .unwrap();
        assert_eq!(stats.count, 3);
        assert_eq!((stats.min, stats.median, stats.max), (1, 1, 1));
        // Display is informative.
        assert!(stats.to_string().contains("3 incidents"));
    }

    #[test]
    fn find_first_respects_the_limit_and_is_a_subset() {
        // Two SeeDoctor records in each of two instances: limits cut
        // inside an instance's batch as well as between instances, and
        // the answer is the first incidents in set order.
        let log = paper::figure3_log();
        for strategy in [crate::Strategy::NaivePaper, crate::Strategy::Planned] {
            let q = Query::parse("SeeDoctor").unwrap().strategy(strategy);
            let all = q.find(&log).unwrap();
            for limit in 0..=5 {
                let some = q.find_first(&log, limit).unwrap();
                assert_eq!(some.len(), limit.min(all.len()));
                let first: IncidentSet = all.iter().take(limit).map(|o| o.to_incident()).collect();
                assert_eq!(some, first, "{strategy:?}, limit {limit}");
            }
        }
    }
}
