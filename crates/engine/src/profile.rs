//! Instrumented evaluation.
//!
//! There is no profiled executor: [`Query::profile`] runs the production
//! executor — the planned tree's `run`, or the naive
//! oracle's recursion — with a [`Metrics`] probe instead of the
//! no-op one, on the same worker pool as [`Query::find`].
//! The probe accumulates per-node [`NodeMetrics`] into a plain `Vec`
//! indexed by the node's pre-order id. This module only assembles the
//! header (node shapes with estimates), the comparison models, and the
//! [`ExecutionProfile`]; unprofiled calls pass the no-op probe, which
//! compiles to the bare executor.
//!
//! Two metric-design rules keep the profiler read-only:
//!
//! * **No instrumentation inside kernels.** `pairs_compared` is modelled
//!   deterministically from operand and output sizes per operator — the
//!   `⊙`/`→` kernels `n1·⌈log₂ n2⌉ + out` (one partner-run binary search
//!   per left incident), the `⊗` merge `n1 + n2`, the `⊕` kernel `n1·n2`,
//!   and `n1·n2` for every operator of the naive oracle (Algorithm 1's
//!   nested loops) — so the kernels the unprofiled path runs are
//!   byte-for-byte the ones profiled runs execute.
//! * **Collectors are worker-local.** Parallel workers each fill their
//!   own probe (and report their own instance count and busy time,
//!   exposing skew); the vectors merge by addition after the pool joins.
//!   No atomics, no shared state, no effect on scheduling.
//!
//! Profiled and unprofiled evaluation must return identical incident
//! sets — `wlq-difffuzz` cross-checks this for both strategies.

use std::time::Instant;

use wlq_log::{Log, LogIndex, LogStats};
use wlq_obs::{ExecutionProfile, NodeMetrics, NodeShape, ProfiledNode, WorkerProfile};
use wlq_pattern::{Op, Pattern};

use crate::error::EngineError;
use crate::eval::Strategy;
use crate::incident_set::IncidentSet;
use crate::planner::PlanCost;
use crate::probe::{Event, Output, Probe};
use crate::query::Query;

/// The metrics probe: one [`NodeMetrics`] per plan node, by pre-order id.
/// The strategy says which implementations ran the joins: the naive
/// oracle's nested loops or the batch kernels.
struct Metrics {
    strategy: Strategy,
    nodes: Vec<NodeMetrics>,
}

impl Probe for Metrics {
    type Mark = Instant;

    fn start(&self) -> Instant {
        Instant::now()
    }

    fn record(&mut self, node: usize, mark: Instant, event: impl FnOnce() -> Event) {
        let wall = mark.elapsed();
        let Some(m) = self.nodes.get_mut(node) else {
            return;
        };
        let (Output { incidents, bytes }, scanned, pairs) = match event() {
            Event::Scan { scanned, out } => (out, scanned, 0),
            Event::Join {
                op,
                left,
                right,
                out,
            } => {
                let pairs = join_pairs(self.strategy, op, left, right, out.incidents);
                (out, 0, pairs)
            }
        };
        m.wall += wall;
        m.records_scanned += scanned;
        m.pairs_compared += pairs;
        m.incidents_emitted += incidents as u64;
        m.output_bytes += bytes;
    }
}

impl Query {
    /// Profiled [`find`](Query::find) under the query's strategy and
    /// thread count: returns the same incident set plus an
    /// [`ExecutionProfile`] with per-node counters, planner estimates next
    /// to actuals (under [`Strategy::Planned`]), and a per-worker
    /// breakdown.
    ///
    /// # Errors
    ///
    /// Same conditions as [`find`](Query::find).
    ///
    /// # Examples
    ///
    /// ```
    /// use wlq_engine::Query;
    /// use wlq_log::paper;
    ///
    /// let log = paper::figure3_log();
    /// let q = Query::parse("UpdateRefer -> GetReimburse")?;
    /// let (incidents, profile) = q.profile(&log)?;
    /// assert_eq!(incidents.len() as u64, profile.total_incidents);
    /// println!("{profile}");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn profile(&self, log: &Log) -> Result<(IncidentSet, ExecutionProfile), EngineError> {
        let start = Instant::now();
        let (eval, pattern, threads) = (self.evaluator(log), self.pattern(), self.threads);
        let plan = eval.physical_plan(pattern);
        let (shapes, plan_text, rule) = match &plan {
            Some(plan) => (
                plan.root()
                    .rows()
                    .into_iter()
                    .map(|row| NodeShape {
                        label: row.label,
                        pattern: row.pattern,
                        depth: row.depth,
                        estimate: Some(row.estimate),
                        cost: Some(row.cost),
                    })
                    .collect::<Vec<_>>(),
                plan.pattern().to_string(),
                Some(plan.rule().to_string()),
            ),
            None => (
                pattern_shapes(eval.index(), pattern),
                pattern.to_string(),
                None,
            ),
        };
        let node_count = shapes.len();
        let results = eval.pool(threads, eval.candidates(pattern), |claims| {
            let busy = Instant::now();
            let mut probe = Metrics {
                strategy: eval.strategy(),
                nodes: vec![NodeMetrics::new(); node_count],
            };
            let mut claimed = 0u64;
            let claims = claims.inspect(|_| claimed += 1);
            let part = eval.collect(pattern, plan.as_ref(), claims, &mut probe);
            (part, claimed, probe.nodes, busy.elapsed())
        })?;

        let mut merged = vec![NodeMetrics::new(); node_count];
        let mut workers = Vec::with_capacity(results.len());
        let mut parts = Vec::new();
        for (worker, (part, claimed, metrics, wall)) in results.into_iter().enumerate() {
            for (dst, src) in merged.iter_mut().zip(&metrics) {
                *dst += src;
            }
            workers.push(WorkerProfile {
                worker,
                instances: claimed,
                incidents: part.len() as u64,
                wall,
            });
            parts.push(part);
        }
        let set = crate::parallel::join(parts);
        let profile = ExecutionProfile {
            query: pattern.to_string(),
            plan: plan_text,
            strategy: strategy_name(eval.strategy()).to_string(),
            rule,
            threads,
            nodes: shapes
                .into_iter()
                .zip(merged)
                .map(|(shape, metrics)| ProfiledNode { shape, metrics })
                .collect(),
            workers,
            log_instances: eval.index().num_instances() as u64,
            total_wall: start.elapsed(),
            total_incidents: set.len() as u64,
        };
        Ok((set, profile))
    }
}

/// Pre-order [`NodeShape`]s of the pattern as written (the naive
/// oracle's tree), with the planner's cardinality estimates and no cost
/// column.
fn pattern_shapes(index: &LogIndex, pattern: &Pattern) -> Vec<NodeShape> {
    let cost = PlanCost::new(LogStats::from_index(index));
    // Pre-order pops a node's depth and pushes its children's.
    let mut depths = vec![0];
    pattern
        .subpatterns()
        .map(|p| {
            let depth = depths.pop().unwrap_or_default();
            let label = match p {
                Pattern::Atom(_) => format!("scan {p}"),
                Pattern::Binary { op, .. } => {
                    depths.extend([depth + 1, depth + 1]);
                    op.name().to_string()
                }
            };
            NodeShape {
                label,
                pattern: p.to_string(),
                depth,
                estimate: Some(cost.estimate_incidents(p)),
                cost: None,
            }
        })
        .collect()
}

/// Display name of a strategy, as it appears in profiles and traces.
fn strategy_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::NaivePaper => "naive-paper",
        Strategy::Planned => "planned",
    }
}

/// `⌈log₂ n⌉`, clamped to at least 1 (a binary search probes at least
/// once).
fn ceil_log2(n: u64) -> u64 {
    if n <= 1 {
        1
    } else {
        u64::from(64 - (n - 1).leading_zeros())
    }
}

/// The modelled comparison count of one `op` join under `strategy` (see
/// the module docs for the formulas).
fn join_pairs(strategy: Strategy, op: Op, n1: usize, n2: usize, out: usize) -> u64 {
    let (n1, n2, out) = (n1 as u64, n2 as u64, out as u64);
    match (strategy, op) {
        (Strategy::NaivePaper, _) | (Strategy::Planned, Op::Parallel) => n1 * n2,
        (Strategy::Planned, Op::Consecutive | Op::Sequential) => n1 * ceil_log2(n2) + out,
        (Strategy::Planned, Op::Choice) => n1 + n2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::paper;
    use wlq_obs::{render_trace, validate_trace};

    fn query(src: &str, strategy: Strategy) -> Query {
        Query::parse(src).unwrap().strategy(strategy)
    }

    #[test]
    fn profiled_matches_unprofiled_for_every_strategy() {
        let log = paper::figure3_log();
        for strategy in [Strategy::NaivePaper, Strategy::Planned] {
            for src in [
                "SeeDoctor",
                "UpdateRefer -> GetReimburse",
                "GetRefer ~> !CheckIn",
                "(SeeDoctor & PayTreatment) | UpdateRefer",
                "Nope ~> SeeDoctor",
            ] {
                let q = query(src, strategy);
                let (set, profile) = q.profile(&log).unwrap();
                assert_eq!(set, q.find(&log).unwrap(), "{strategy:?} on {src}");
                assert_eq!(
                    profile.total_incidents,
                    set.len() as u64,
                    "{strategy:?} on {src}"
                );
                // The root node's emission counter is the |incL(p)|
                // decomposition: per-instance root outputs sum to the
                // query answer.
                assert_eq!(
                    profile.nodes[0].metrics.incidents_emitted,
                    set.len() as u64,
                    "{strategy:?} on {src}"
                );
            }
        }
    }

    #[test]
    fn planned_profile_carries_estimates_and_costs() {
        let log = paper::figure3_log();
        let q = Query::parse("SeeDoctor -> PayTreatment").unwrap();
        let (_, profile) = q.profile(&log).unwrap();
        assert_eq!(profile.strategy, "planned");
        assert!(profile.rule.is_some());
        assert_eq!(profile.nodes.len(), 3);
        for node in &profile.nodes {
            assert!(node.shape.estimate.is_some());
            assert!(node.shape.cost.is_some());
            assert!(node.q_error().is_some());
        }
        // Leaf scans report their postings as records scanned.
        let scans: u64 = profile
            .nodes
            .iter()
            .filter(|n| n.shape.label.starts_with("scan"))
            .map(|n| n.metrics.records_scanned)
            .sum();
        assert_eq!(scans, 4 + 3); // 4 SeeDoctor + 3 PayTreatment records
    }

    #[test]
    fn leaf_estimates_are_exact_on_atoms() {
        let log = paper::figure3_log();
        let (_, profile) = Query::parse("SeeDoctor").unwrap().profile(&log).unwrap();
        assert_eq!(profile.nodes.len(), 1);
        let leaf = &profile.nodes[0];
        assert_eq!(leaf.shape.estimate, Some(4.0));
        assert_eq!(leaf.metrics.incidents_emitted, 4);
        assert_eq!(leaf.q_error(), Some(1.0));
    }

    #[test]
    fn parallel_profile_exposes_per_worker_breakdown() {
        let log = paper::figure3_log();
        let q = Query::parse("GetRefer -> CheckIn").unwrap();
        let (seq_set, seq_profile) = q.profile(&log).unwrap();
        let (par_set, par_profile) = q.threads(2).profile(&log).unwrap();
        assert_eq!(seq_set, par_set);
        assert_eq!(par_profile.workers.len(), 2);
        // The run visits the query's candidates: Figure 3 has 3
        // instances, but wid 3 runs no CheckIn and cannot hold an incident.
        assert_eq!(par_profile.visited_instances(), 2);
        assert_eq!(par_profile.log_instances, 3);
        // Merged totals are identical to the sequential run's counters
        // for every deterministic metric (wall time differs).
        for (seq, par) in seq_profile.nodes.iter().zip(&par_profile.nodes) {
            assert_eq!(seq.metrics.incidents_emitted, par.metrics.incidents_emitted);
            assert_eq!(seq.metrics.records_scanned, par.metrics.records_scanned);
            assert_eq!(seq.metrics.pairs_compared, par.metrics.pairs_compared);
            assert_eq!(seq.metrics.output_bytes, par.metrics.output_bytes);
        }
        assert!(par_profile.skew().is_some());
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let log = paper::figure3_log();
        let q = Query::parse("A").unwrap().threads(0);
        let err = q.profile(&log).unwrap_err();
        assert_eq!(err, EngineError::NoWorkers);
    }

    #[test]
    fn short_circuited_subtrees_keep_node_indices_aligned() {
        let log = paper::figure3_log();
        // Left side never matches: the right subtree is skipped per
        // instance, but its nodes must still exist (zeroed) in the
        // profile rather than shifting later siblings' counters.
        for strategy in [Strategy::NaivePaper, Strategy::Planned] {
            let q = query("Nope ~> (SeeDoctor -> PayTreatment)", strategy);
            let (set, profile) = q.profile(&log).unwrap();
            assert!(set.is_empty());
            assert_eq!(profile.nodes.len(), 5, "{strategy:?}");
            assert_eq!(profile.nodes[0].metrics.incidents_emitted, 0);
        }
        // A skipped subtree followed by a live sibling: the sibling's
        // counters land on its own row.
        for strategy in [Strategy::NaivePaper, Strategy::Planned] {
            let q = query("(Nope ~> SeeDoctor) | PayTreatment", strategy);
            let (set, profile) = q.profile(&log).unwrap();
            assert_eq!(set.len(), 3, "{strategy:?}");
            let row = |label: &str| {
                profile
                    .nodes
                    .iter()
                    .find(|n| n.shape.label == label)
                    .unwrap()
                    .metrics
            };
            assert_eq!(row("scan SeeDoctor").incidents_emitted, 0, "{strategy:?}");
            assert_eq!(
                row("scan PayTreatment").incidents_emitted,
                3,
                "{strategy:?}"
            );
            assert_eq!(row("scan PayTreatment").records_scanned, 3, "{strategy:?}");
        }
    }

    #[test]
    fn profile_round_trips_through_the_trace_format() {
        let log = paper::figure3_log();
        let q = Query::parse("GetRefer -> CheckIn -> SeeDoctor").unwrap();
        let (_, profile) = q.threads(2).profile(&log).unwrap();
        let trace = render_trace(&profile);
        let summary = validate_trace(&trace).unwrap();
        assert_eq!(summary.nodes, profile.nodes.len());
        assert_eq!(summary.workers, profile.workers.len());
        assert_eq!(summary.total_incidents, profile.total_incidents);
    }

    #[test]
    fn comparison_models_are_the_documented_formulas() {
        assert_eq!(ceil_log2(1), 1);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        let (naive, planned) = (Strategy::NaivePaper, Strategy::Planned);
        assert_eq!(join_pairs(naive, Op::Sequential, 3, 5, 2), 15);
        assert_eq!(join_pairs(planned, Op::Sequential, 3, 8, 2), 3 * 3 + 2);
        assert_eq!(join_pairs(planned, Op::Choice, 3, 5, 8), 8);
        assert_eq!(join_pairs(planned, Op::Parallel, 3, 5, 2), 15);
        assert_eq!(join_pairs(naive, Op::Choice, 3, 5, 8), 15);
    }
}
