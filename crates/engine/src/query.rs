//! High-level query API: parse once, choose a strategy, project results.

use std::collections::BTreeMap;

use wlq_log::{Log, Value, Wid};
use wlq_pattern::{ParsePatternError, Pattern};

use crate::batch::{IncidentBatch, IncidentRef};
use crate::error::EngineError;
use crate::eval::{Evaluator, Strategy};
use crate::incident_set::IncidentSet;

/// A reusable incident-pattern query with evaluation options.
///
/// This is the one way to ask a query. The pattern runs as written:
/// under [`Strategy::Planned`] the planner chooses the equivalent tree
/// to run (see [`crate::planner`]), and there is no separate
/// pre-optimization pass.
///
/// Evaluation entry points return `Result<_, EngineError>`: with the
/// default configuration they always succeed, but a misconfigured thread
/// count or a worker panic surfaces as a typed [`EngineError`] instead of
/// aborting the caller.
///
/// # Examples
///
/// ```
/// use wlq_engine::Query;
/// use wlq_log::paper;
///
/// let log = paper::figure3_log();
/// let q = Query::parse("UpdateRefer -> GetReimburse")?;
/// assert!(q.exists(&log)?);
/// assert_eq!(q.count(&log)?, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    pattern: Pattern,
    strategy: Strategy,
    pub(crate) threads: usize,
}

impl Query {
    /// Builds a query from an already-constructed pattern.
    #[must_use]
    pub fn new(pattern: Pattern) -> Self {
        Query {
            pattern,
            strategy: Strategy::default(),
            threads: 1,
        }
    }

    /// Parses the pattern text syntax into a query.
    ///
    /// # Errors
    ///
    /// Returns the parser's [`ParsePatternError`] on malformed input.
    pub fn parse(src: &str) -> Result<Self, ParsePatternError> {
        Ok(Query::new(Pattern::parse(src)?))
    }

    /// Chooses the operator implementations (default:
    /// [`Strategy::Planned`]).
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the number of worker threads for evaluation (default 1).
    ///
    /// The value is not validated here: evaluation methods report a zero
    /// thread count as [`EngineError::NoWorkers`] when they run.
    ///
    /// ```
    /// use wlq_engine::Query;
    /// use wlq_log::paper;
    ///
    /// let log = paper::figure3_log();
    /// let q = Query::parse("SeeDoctor -> PayTreatment")?;
    /// assert_eq!(q.clone().threads(4).find(&log)?, q.find(&log)?);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The query's pattern.
    #[must_use]
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// [`EngineError::NoWorkers`] if the configured thread count is 0,
    /// for entry points that run on the calling thread.
    pub(crate) fn require_workers(&self) -> Result<(), EngineError> {
        if self.threads == 0 {
            return Err(EngineError::NoWorkers);
        }
        Ok(())
    }

    /// The evaluator over `log`, read off the index the log was loaded
    /// with.
    pub(crate) fn evaluator<'l>(&self, log: &'l Log) -> Evaluator<'l> {
        Evaluator::with_strategy(log, self.strategy)
    }

    /// Evaluates the query, returning all incidents.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoWorkers`] if the configured thread count
    /// is 0 and [`EngineError::WorkerPanicked`] if a parallel worker
    /// panics.
    pub fn find(&self, log: &Log) -> Result<IncidentSet, EngineError> {
        self.evaluator(log)
            .evaluate_parallel(&self.pattern, self.threads)
    }

    /// Whether the log contains any incident of the pattern.
    ///
    /// Under [`Strategy::Planned`], a query in the countable fragment (see
    /// [`fast_count`](crate::fast_count)) uses the enumeration-free
    /// counting DP; other queries use per-instance evaluation with early
    /// exit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`find`](Self::find).
    pub fn exists(&self, log: &Log) -> Result<bool, EngineError> {
        self.require_workers()?;
        Ok(self.evaluator(log).exists(&self.pattern))
    }

    /// The number of incidents, `|incL(p)|`.
    ///
    /// Under [`Strategy::Planned`], a query in the countable fragment is
    /// counted by the enumeration-free dynamic program of
    /// [`fast_count`](crate::fast_count). Other queries run their plan and
    /// count each instance's incidents without keeping them, on the worker
    /// pool when more than one thread is configured.
    ///
    /// # Errors
    ///
    /// Same conditions as [`find`](Self::find), plus
    /// [`EngineError::CountOverflow`] when the count does not fit in
    /// `usize`.
    pub fn count(&self, log: &Log) -> Result<usize, EngineError> {
        let count = self
            .evaluator(log)
            .count_parallel(&self.pattern, self.threads)?;
        // Counts saturate at `usize::MAX`; that value means "too many".
        if count == usize::MAX {
            Err(EngineError::CountOverflow)
        } else {
            Ok(count)
        }
    }

    /// Incident counts per workflow instance (instances with none are
    /// omitted). Each instance's incidents are counted and dropped, never
    /// kept, on the worker pool when more than one thread is configured.
    ///
    /// # Errors
    ///
    /// Same conditions as [`find`](Self::find).
    pub fn count_by_instance(&self, log: &Log) -> Result<BTreeMap<Wid, usize>, EngineError> {
        let counts =
            self.evaluator(log)
                .per_instance(&self.pattern, self.threads, IncidentBatch::len)?;
        Ok(counts.into_iter().collect())
    }

    /// Counts *matching instances* grouped by the value of `attr` at each
    /// instance's first incident record — e.g. group referral anomalies by
    /// `hospital`, or by a `year` attribute.
    ///
    /// For every instance with at least one incident, the earliest incident
    /// is taken, and the value of `attr` is read from the αout (then αin)
    /// map of its first record; instances where the attribute is undefined
    /// there fall back to scanning the instance's earlier records for the
    /// latest write to `attr`, and group under [`Value::Undefined`] if no
    /// record defines it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`find`](Self::find).
    pub fn count_instances_by_attr(
        &self,
        log: &Log,
        attr: &str,
    ) -> Result<BTreeMap<Value, usize>, EngineError> {
        // Only each matched instance's first incident is kept.
        let firsts = self
            .evaluator(log)
            .per_instance(&self.pattern, self.threads, |batch| {
                batch.refs().first().map(IncidentRef::first)
            })?;
        let mut out: BTreeMap<Value, usize> = BTreeMap::new();
        for (wid, first) in firsts {
            // Every matched instance has a first incident.
            if let Some(first) = first {
                *out.entry(attr_value_at(log, wid, first, attr)).or_insert(0) += 1;
            }
        }
        Ok(out)
    }
}

/// The value of `attr` visible at `(wid, position)`: the latest write (or
/// read) of the attribute at or before that record.
fn attr_value_at(log: &Log, wid: Wid, position: wlq_log::IsLsn, attr: &str) -> Value {
    let Some(ordinal) = log.index().ordinal(wid) else {
        return Value::Undefined;
    };
    (1..=position.get())
        .rev()
        .find_map(|p| {
            let [input, output] = log.maps(ordinal, wlq_log::IsLsn(p))?;
            output.get(attr).or_else(|| input.get(attr))
        })
        .cloned()
        .unwrap_or(Value::Undefined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::paper;

    #[test]
    fn parse_and_count_on_figure3() {
        let log = paper::figure3_log();
        let q = Query::parse("SeeDoctor ~> PayTreatment").unwrap();
        assert_eq!(q.count(&log).unwrap(), 3);
        assert!(Query::parse("A -> ").is_err());
    }

    #[test]
    fn optimization_does_not_change_results() {
        // The planner's chosen tree, run by the paper's operators, finds
        // what the query finds.
        let log = paper::figure3_log();
        let naive = Evaluator::with_strategy(&log, Strategy::NaivePaper);
        let planner = crate::planner::Planner::from_log(&log);
        for src in [
            "SeeDoctor -> UpdateRefer -> GetReimburse",
            "(GetRefer -> CheckIn) | (GetRefer -> SeeDoctor)",
            "SeeDoctor & PayTreatment & UpdateRefer",
        ] {
            let q = Query::parse(src).unwrap();
            let planned = planner.plan(q.pattern());
            assert_eq!(
                q.find(&log).unwrap(),
                naive.evaluate(planned.pattern()),
                "planning changed results of {src}"
            );
        }
    }

    #[test]
    fn strategies_and_threads_agree() {
        let log = paper::figure3_log();
        let q = Query::parse("GetRefer -> (SeeDoctor & PayTreatment)").unwrap();
        let reference = q.clone().strategy(Strategy::NaivePaper).find(&log).unwrap();
        for strategy in [Strategy::NaivePaper, Strategy::Planned] {
            for threads in [1, 4] {
                let q = q.clone().strategy(strategy).threads(threads);
                assert_eq!(q.find(&log).unwrap(), reference, "{strategy:?} x {threads}");
                // Not a chain: count runs the plan it computed.
                assert_eq!(
                    q.count(&log).unwrap(),
                    reference.len(),
                    "{strategy:?} x {threads}"
                );
                assert!(q.exists(&log).unwrap(), "{strategy:?} x {threads}");
            }
        }
    }

    #[test]
    fn count_by_instance_reports_wid2_anomaly() {
        let log = paper::figure3_log();
        let q = Query::parse("UpdateRefer -> GetReimburse").unwrap();
        let counts = q.count_by_instance(&log).unwrap();
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[&Wid(2)], 1);
    }

    #[test]
    fn group_by_attribute_hospital() {
        let log = paper::figure3_log();
        // Which hospitals do referrals come from (per instance)?
        let q = Query::parse("GetRefer").unwrap();
        let groups = q.count_instances_by_attr(&log, "hospital").unwrap();
        assert_eq!(groups[&Value::from("Public Hospital")], 2);
        assert_eq!(groups[&Value::from("People Hospital")], 1);
    }

    #[test]
    fn group_by_attribute_uses_latest_write_before_match() {
        let log = paper::figure3_log();
        // Group reimbursements by balance at the time of reimbursement:
        // wid1 reimburses with balance written at GetRefer (1000), wid2
        // after the update (5000).
        let q = Query::parse("GetReimburse").unwrap();
        let groups = q.count_instances_by_attr(&log, "balance").unwrap();
        // The GetReimburse record itself writes balance=0 — the *latest
        // write at or before* the record is its own output.
        assert_eq!(groups[&Value::Int(0)], 2);
    }

    #[test]
    fn group_by_missing_attribute_is_undefined() {
        let log = paper::figure3_log();
        let q = Query::parse("START").unwrap();
        let groups = q.count_instances_by_attr(&log, "nonexistent").unwrap();
        assert_eq!(groups[&Value::Undefined], 3);
    }

    #[test]
    fn profile_reports_plan_and_counts() {
        let log = paper::figure3_log();
        let q = Query::parse("UpdateRefer -> GetReimburse").unwrap();
        let (incidents, profile) = q.profile(&log).unwrap();
        assert_eq!(incidents, q.find(&log).unwrap());
        assert_eq!(incidents.len(), 1);
        assert_eq!(profile.total_incidents, 1);
        let text = profile.to_string();
        assert!(
            text.contains("query    : UpdateRefer -> GetReimburse"),
            "{text}"
        );
        assert!(
            text.contains("plan     : UpdateRefer -> GetReimburse"),
            "{text}"
        );
        assert!(text.contains("instances: 1 of 3"), "{text}");
    }

    #[test]
    fn zero_threads_is_a_typed_error_everywhere() {
        let log = paper::figure3_log();
        let q = Query::new(Pattern::atom("A")).threads(0);
        assert_eq!(q.find(&log).unwrap_err(), crate::EngineError::NoWorkers);
        assert_eq!(q.count(&log).unwrap_err(), crate::EngineError::NoWorkers);
        assert_eq!(q.exists(&log).unwrap_err(), crate::EngineError::NoWorkers);
        assert_eq!(
            q.count_by_instance(&log).unwrap_err(),
            crate::EngineError::NoWorkers
        );
        assert_eq!(
            q.count_instances_by_attr(&log, "x").unwrap_err(),
            crate::EngineError::NoWorkers
        );
        assert_eq!(
            q.find_first(&log, 1).unwrap_err(),
            crate::EngineError::NoWorkers
        );
        assert_eq!(q.profile(&log).unwrap_err(), crate::EngineError::NoWorkers);
    }
}
