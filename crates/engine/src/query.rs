//! High-level query API: parse once, choose a strategy, project results.

use std::collections::BTreeMap;
use std::time::Duration;

use wlq_log::{Log, LogStats, Value, Wid};
use wlq_pattern::{Optimizer, ParsePatternError, Pattern};

use crate::counting;
use crate::error::EngineError;
use crate::eval::{Evaluator, Strategy};
use crate::incident_set::IncidentSet;
use crate::parallel::evaluate_parallel;

/// A reusable incident-pattern query with evaluation options.
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
    optimize: bool,
    threads: usize,
}

impl Query {
    /// Builds a query from an already-constructed pattern.
    #[must_use]
    pub fn new(pattern: Pattern) -> Self {
        Query {
            pattern,
            strategy: Strategy::default(),
            optimize: true,
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

    /// Enables or disables algebraic pre-optimization (default: enabled).
    #[must_use]
    pub fn optimize(mut self, enabled: bool) -> Self {
        self.optimize = enabled;
        self
    }

    /// Sets the number of worker threads for evaluation (default 1).
    ///
    /// The value is not validated here: evaluation methods report a zero
    /// thread count as [`EngineError::NoWorkers`] when they run.
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

    /// The configured strategy (internal: used by the span/limit helpers).
    pub(crate) fn strategy_setting(&self) -> Strategy {
        self.strategy
    }

    /// The pattern that will actually run against `log` (after algebraic
    /// optimization, if enabled).
    ///
    /// This is the pattern-level plan only. Under [`Strategy::Planned`]
    /// the evaluator additionally runs its own cost-based physical pass —
    /// candidate rewrites plus per-node operator selection; see
    /// [`crate::planner`] and [`Evaluator::physical_plan`].
    #[must_use]
    pub fn plan(&self, log: &Log) -> Pattern {
        if self.optimize {
            Optimizer::new(LogStats::compute(log)).optimize(&self.pattern)
        } else {
            self.pattern.clone()
        }
    }

    /// The evaluator over `log` and the pattern it runs, both read off
    /// the index the log was loaded with.
    fn planned<'l>(&self, log: &'l Log) -> (Evaluator<'l>, Pattern) {
        (Evaluator::with_strategy(log, self.strategy), self.plan(log))
    }

    /// Evaluates the query, returning all incidents.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoWorkers`] if the configured thread count
    /// is 0 and [`EngineError::WorkerPanicked`] if a parallel worker
    /// panics.
    pub fn find(&self, log: &Log) -> Result<IncidentSet, EngineError> {
        let (eval, plan) = self.planned(log);
        eval.evaluate_parallel(&plan, self.threads)
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
        if self.threads == 0 {
            return Err(EngineError::NoWorkers);
        }
        // The countable fragment is decided on the query as written,
        // before optimization: a rewrite cannot hide a countable query.
        if self.strategy == Strategy::Planned {
            if let Some(found) = counting::exists(log.index(), &self.pattern) {
                return Ok(found);
            }
        }
        let (eval, plan) = self.planned(log);
        Ok(eval.exists(&plan))
    }

    /// The number of incidents, `|incL(p)|`.
    ///
    /// Under [`Strategy::Planned`], a query in the countable fragment —
    /// decided on the pattern as written, before optimization — is
    /// counted by the enumeration-free dynamic program of
    /// [`fast_count`](crate::fast_count). Other queries run the optimized
    /// plan: on one thread through [`Evaluator::count`], which counts
    /// without materializing; on more, through parallel evaluation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`find`](Self::find), plus
    /// [`EngineError::CountOverflow`] when the count does not fit in
    /// `usize`.
    pub fn count(&self, log: &Log) -> Result<usize, EngineError> {
        if self.threads == 0 {
            return Err(EngineError::NoWorkers);
        }
        let counted = if self.strategy == Strategy::Planned {
            counting::count(log.index(), &self.pattern)
        } else {
            None
        };
        let count = match counted {
            Some(count) => count,
            None => {
                let (eval, plan) = self.planned(log);
                if self.threads > 1 {
                    eval.evaluate_parallel(&plan, self.threads)?.len()
                } else {
                    eval.count(&plan)
                }
            }
        };
        // Counts saturate at `usize::MAX`; that value means "too many".
        if count == usize::MAX {
            Err(EngineError::CountOverflow)
        } else {
            Ok(count)
        }
    }

    /// Incident counts per workflow instance (instances with none are
    /// omitted).
    ///
    /// # Errors
    ///
    /// Same conditions as [`find`](Self::find).
    pub fn count_by_instance(&self, log: &Log) -> Result<BTreeMap<Wid, usize>, EngineError> {
        Ok(self.find(log)?.counts_by_wid())
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
        let incidents = self.find(log)?;
        let mut out: BTreeMap<Value, usize> = BTreeMap::new();
        for wid in incidents.wids() {
            // Every listed instance has a first incident.
            if let Some(first_incident) = incidents.for_wid(wid).next() {
                let value = attr_value_at(log, wid, first_incident.first(), attr);
                *out.entry(value).or_insert(0) += 1;
            }
        }
        Ok(out)
    }

    /// Runs the query and reports timing plus plan information.
    ///
    /// # Errors
    ///
    /// Same conditions as [`find`](Self::find).
    pub fn profile(&self, log: &Log) -> Result<QueryProfile, EngineError> {
        let start = std::time::Instant::now();
        let plan = self.plan(log);
        let plan_time = start.elapsed();
        let start = std::time::Instant::now();
        let incidents = evaluate_parallel(log, &plan, self.threads, self.strategy)?;
        let eval_time = start.elapsed();
        Ok(QueryProfile {
            pattern: self.pattern.to_string(),
            plan: plan.to_string(),
            incidents,
            plan_time,
            eval_time,
        })
    }
}

/// The value of `attr` visible at `(wid, position)`: the latest write (or
/// read) of the attribute at or before that record.
fn attr_value_at(log: &Log, wid: Wid, position: wlq_log::IsLsn, attr: &str) -> Value {
    let mut latest = Value::Undefined;
    for record in log.instance(wid) {
        if record.is_lsn() > position {
            break;
        }
        if let Some(v) = record
            .output()
            .get(attr)
            .or_else(|| record.input().get(attr))
        {
            latest = v.clone();
        }
    }
    latest
}

/// The result of [`Query::profile`].
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// The query pattern as written.
    pub pattern: String,
    /// The optimized plan that actually ran.
    pub plan: String,
    /// The incidents found.
    pub incidents: IncidentSet,
    /// Time spent in the optimizer.
    pub plan_time: Duration,
    /// Time spent evaluating.
    pub eval_time: Duration,
}

impl std::fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "query : {}", self.pattern)?;
        writeln!(f, "plan  : {}", self.plan)?;
        writeln!(
            f,
            "result: {} incidents in {} instances",
            self.incidents.len(),
            self.incidents.num_matched_instances()
        )?;
        writeln!(
            f,
            "time  : plan {:?}, eval {:?}",
            self.plan_time, self.eval_time
        )
    }
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
        let log = paper::figure3_log();
        for src in [
            "SeeDoctor -> UpdateRefer -> GetReimburse",
            "(GetRefer -> CheckIn) | (GetRefer -> SeeDoctor)",
            "SeeDoctor & PayTreatment & UpdateRefer",
        ] {
            let with = Query::parse(src)
                .unwrap()
                .optimize(true)
                .find(&log)
                .unwrap();
            let without = Query::parse(src)
                .unwrap()
                .optimize(false)
                .find(&log)
                .unwrap();
            assert_eq!(with, without, "optimize changed results of {src}");
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
        let profile = q.profile(&log).unwrap();
        assert_eq!(profile.incidents.len(), 1);
        let text = profile.to_string();
        assert!(text.contains("UpdateRefer -> GetReimburse"));
        assert!(text.contains("1 incidents in 1 instances"));
    }

    #[test]
    fn zero_threads_is_a_typed_error_everywhere() {
        let log = paper::figure3_log();
        let q = Query::new(Pattern::atom("A")).threads(0);
        assert_eq!(q.find(&log).unwrap_err(), crate::EngineError::NoWorkers);
        assert_eq!(q.count(&log).unwrap_err(), crate::EngineError::NoWorkers);
        assert_eq!(q.exists(&log).unwrap_err(), crate::EngineError::NoWorkers);
        assert_eq!(q.profile(&log).unwrap_err(), crate::EngineError::NoWorkers);
        assert_eq!(
            q.count_by_instance(&log).unwrap_err(),
            crate::EngineError::NoWorkers
        );
        assert_eq!(
            q.count_instances_by_attr(&log, "x").unwrap_err(),
            crate::EngineError::NoWorkers
        );
    }
}
