//! `EXPLAIN`-style plan reports: the optimizer's estimates side by side
//! with per-node actuals from a traced evaluation.

use std::fmt;
use std::time::Duration;

use wlq_log::{Log, LogStats};
use wlq_pattern::{Optimizer, Pattern};

use crate::eval::Strategy;
use crate::incident_set::IncidentSet;
use crate::planner::Planner;
use crate::tree::IncidentTree;

/// One row of an [`Explain`] report: a node of the evaluated plan.
#[derive(Debug, Clone)]
pub struct ExplainRow {
    /// The sub-pattern, as text.
    pub pattern: String,
    /// Tree depth (root = 0).
    pub depth: usize,
    /// The cost model's estimated incident count for this node.
    pub estimated: f64,
    /// The actual incident count produced.
    pub actual: usize,
    /// Wall-clock time spent at this node (children excluded).
    pub elapsed: Duration,
}

/// The result of [`Explain::run`]: what plan ran, what each node cost,
/// and how good the estimates were.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The query as written.
    pub query: String,
    /// The plan that ran (after optimization, if enabled).
    pub plan: String,
    /// The cost-based physical plan (rewrite choice, per-node physical
    /// operators, scored candidates), rendered when the strategy is
    /// [`Strategy::Planned`].
    pub physical_plan: Option<String>,
    /// Per-node rows in post-order (evaluation order).
    pub rows: Vec<ExplainRow>,
    /// The final incident set.
    pub incidents: IncidentSet,
}

impl Explain {
    /// Evaluates `pattern` over `log` with per-node tracing, optionally
    /// applying the algebraic optimizer first, and returns the annotated
    /// plan.
    #[must_use]
    pub fn run(log: &Log, pattern: &Pattern, optimize: bool, strategy: Strategy) -> Explain {
        let index = log.index();
        let optimizer = Optimizer::new(LogStats::from_index(index));
        let plan = if optimize {
            optimizer.optimize(pattern)
        } else {
            pattern.clone()
        };
        let model = optimizer.model();

        let physical_plan = (strategy == Strategy::Planned)
            .then(|| Planner::new(log, index).plan(&plan).to_string());
        let tree = IncidentTree::from_pattern(&plan);
        let (incidents, trace) = tree.evaluate_traced(log, strategy);

        let rows = trace
            .nodes
            .iter()
            .map(|node| {
                // Trace patterns are printed from real Patterns, so they
                // re-parse; fall back to the actual count as the estimate
                // if one somehow doesn't.
                #[allow(clippy::cast_precision_loss)]
                let estimated = node
                    .pattern
                    .parse::<Pattern>()
                    .map_or(node.incidents.len() as f64, |sub| {
                        model.estimate_incidents(&sub)
                    });
                ExplainRow {
                    pattern: node.pattern.clone(),
                    depth: node.depth,
                    estimated,
                    actual: node.incidents.len(),
                    elapsed: node.elapsed,
                }
            })
            .collect();

        Explain {
            query: pattern.to_string(),
            plan: plan.to_string(),
            physical_plan,
            rows,
            incidents,
        }
    }

    /// The worst estimate-vs-actual ratio across nodes (≥ 1; 1 = perfect).
    /// Nodes where both sides are zero count as perfect.
    #[must_use]
    pub fn max_estimation_error(&self) -> f64 {
        self.rows
            .iter()
            .map(|row| {
                let est = row.estimated.max(1.0);
                #[allow(clippy::cast_precision_loss)]
                let act = (row.actual as f64).max(1.0);
                (est / act).max(act / est)
            })
            .fold(1.0, f64::max)
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "query: {}", self.query)?;
        writeln!(f, "plan : {}", self.plan)?;
        if let Some(physical) = &self.physical_plan {
            writeln!(f, "physical plan:")?;
            for line in physical.lines() {
                writeln!(f, "  {line}")?;
            }
        }
        writeln!(f, "{:>10} {:>10} {:>12}  node", "est", "actual", "time")?;
        for row in &self.rows {
            writeln!(
                f,
                "{:>10.1} {:>10} {:>12?}  {:indent$}{}",
                row.estimated,
                row.actual,
                row.elapsed,
                "",
                row.pattern,
                indent = row.depth * 2,
            )?;
        }
        writeln!(f, "total: {} incidents", self.incidents.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use wlq_log::paper;

    fn parse(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    #[test]
    fn explain_matches_plain_evaluation() {
        let log = paper::figure3_log();
        let p = parse("SeeDoctor -> (UpdateRefer -> GetReimburse)");
        let explain = Explain::run(&log, &p, false, Strategy::Planned);
        assert_eq!(explain.incidents, Evaluator::new(&log).evaluate(&p));
        assert_eq!(explain.rows.len(), 5);
        assert_eq!(explain.plan, explain.query);
    }

    #[test]
    fn leaf_estimates_are_exact_on_atoms() {
        let log = paper::figure3_log();
        let explain = Explain::run(&log, &parse("SeeDoctor"), false, Strategy::Planned);
        assert_eq!(explain.rows.len(), 1);
        assert!((explain.rows[0].estimated - 4.0).abs() < 1e-9);
        assert_eq!(explain.rows[0].actual, 4);
        assert!((explain.max_estimation_error() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn optimized_plan_is_reported_when_it_differs() {
        let log = paper::figure3_log();
        let p = parse("(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)");
        let explain = Explain::run(&log, &p, true, Strategy::Planned);
        assert_eq!(explain.query, p.to_string());
        assert_eq!(explain.plan, "SeeDoctor -> (PayTreatment | UpdateRefer)");
        // Still the same result.
        assert_eq!(explain.incidents, Evaluator::new(&log).evaluate(&p));
    }

    #[test]
    fn display_renders_a_table() {
        let log = paper::figure3_log();
        let explain = Explain::run(
            &log,
            &parse("UpdateRefer -> GetReimburse"),
            false,
            Strategy::Planned,
        );
        let text = explain.to_string();
        assert!(text.contains("query: UpdateRefer -> GetReimburse"));
        assert!(text.contains("total: 1 incidents"));
        assert!(text.contains("UpdateRefer"));
    }

    #[test]
    fn physical_plan_renders_only_under_planned() {
        let log = paper::figure3_log();
        let p = parse("SeeDoctor -> PayTreatment");
        let naive = Explain::run(&log, &p, true, Strategy::NaivePaper);
        assert!(naive.physical_plan.is_none());
        let planned = Explain::run(&log, &p, true, Strategy::Planned);
        let physical = planned.physical_plan.as_deref().unwrap();
        assert!(physical.contains("chosen:"), "{physical}");
        assert!(physical.contains("scan SeeDoctor"), "{physical}");
        assert!(planned.to_string().contains("physical plan:"));
        // Same results either way.
        assert_eq!(planned.incidents, naive.incidents);
    }

    #[test]
    fn estimation_error_is_bounded_on_the_example_log() {
        let log = paper::figure3_log();
        let explain = Explain::run(
            &log,
            &parse("SeeDoctor -> PayTreatment"),
            false,
            Strategy::Planned,
        );
        // Estimates are heuristic but should be within two orders of
        // magnitude on this tiny log.
        assert!(explain.max_estimation_error() < 100.0);
    }
}
