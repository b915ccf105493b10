//! Execution profiles: a pre-order node tree with estimates next to
//! actuals, plus per-worker breakdowns.

use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

use crate::metrics::{q_error, NodeMetrics};

/// The static shape of one profiled node, known before execution: its
/// display label, sub-pattern text, tree depth, and — when a cost-based
/// plan produced it — the planner's cardinality estimate and cost.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeShape {
    /// Display label, e.g. `scan SeeDoctor` or `sequential`.
    pub label: String,
    /// The sub-pattern this node evaluates, as text.
    pub pattern: String,
    /// Tree depth (root = 0).
    pub depth: usize,
    /// The planner's estimated incident count, when one exists.
    pub estimate: Option<f64>,
    /// The planner's estimated cost of this subtree, when one exists.
    pub cost: Option<f64>,
}

/// One node of an [`ExecutionProfile`]: shape plus measured counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledNode {
    /// The node's static shape (label, pattern, depth, estimates).
    pub shape: NodeShape,
    /// The counters the engine accumulated at this node, merged across
    /// all workers.
    pub metrics: NodeMetrics,
}

impl ProfiledNode {
    /// The Q-error of the planner's estimate against the measured
    /// incident count, when an estimate exists.
    #[must_use]
    pub fn q_error(&self) -> Option<f64> {
        self.shape
            .estimate
            .map(|est| q_error(est, self.metrics.incidents_emitted))
    }
}

/// One worker's share of a profiled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Worker index (0-based).
    pub worker: usize,
    /// Workflow instances this worker swept.
    pub instances: u64,
    /// Incidents this worker emitted at the root.
    pub incidents: u64,
    /// Busy wall-clock time (instance evaluation only, queue idle
    /// excluded).
    pub wall: Duration,
}

/// A completed profiled evaluation: what ran, what each node did, and how
/// the work spread over workers.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionProfile {
    /// The query as given.
    pub query: String,
    /// The pattern that actually executed (the planner's chosen rewrite
    /// under the planned strategy; the query itself otherwise).
    pub plan: String,
    /// The strategy name, e.g. `planned`.
    pub strategy: String,
    /// The rewrite rule that produced the executed pattern, when the
    /// cost-based planner chose one.
    pub rule: Option<String>,
    /// Worker threads requested.
    pub threads: usize,
    /// The plan tree in pre-order, with merged per-node counters.
    pub nodes: Vec<ProfiledNode>,
    /// Per-worker breakdown (one entry even for sequential runs).
    pub workers: Vec<WorkerProfile>,
    /// Workflow instances in the log. The workers' `instances` sum to how
    /// many of them the run visited; a planned run skips those that
    /// cannot hold an incident.
    pub log_instances: u64,
    /// Wall-clock time of the whole run (planning included).
    pub total_wall: Duration,
    /// `|incL(p)|`: incidents the run produced.
    pub total_incidents: u64,
}

impl ExecutionProfile {
    /// Worker skew: the largest worker busy-time divided by the mean.
    /// `1.0` means perfectly balanced; `None` without workers.
    #[must_use]
    pub fn skew(&self) -> Option<f64> {
        if self.workers.is_empty() {
            return None;
        }
        let max = self.workers.iter().map(|w| w.wall).max()?;
        let sum: Duration = self.workers.iter().map(|w| w.wall).sum();
        let mean = sum.as_secs_f64() / self.workers.len() as f64;
        if mean <= 0.0 {
            return Some(1.0);
        }
        Some(max.as_secs_f64() / mean)
    }

    /// Workflow instances the run visited, over all workers.
    #[must_use]
    pub fn visited_instances(&self) -> u64 {
        self.workers.iter().map(|w| w.instances).sum()
    }

    /// The worst per-node Q-error, over nodes that carry an estimate.
    /// `None` when no node does (non-planned strategies never do).
    #[must_use]
    pub fn max_q_error(&self) -> Option<f64> {
        self.nodes
            .iter()
            .filter_map(ProfiledNode::q_error)
            .fold(None, |acc, q| Some(acc.map_or(q, |a: f64| a.max(q))))
    }
}

impl fmt::Display for ExecutionProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "query    : {}", self.query)?;
        match &self.rule {
            Some(rule) => writeln!(f, "plan     : {}  [{rule}]", self.plan)?,
            None => writeln!(f, "plan     : {}", self.plan)?,
        }
        writeln!(
            f,
            "strategy : {}, {} thread(s)",
            self.strategy, self.threads
        )?;
        writeln!(
            f,
            "instances: {} of {}",
            self.visited_instances(),
            self.log_instances
        )?;
        writeln!(
            f,
            "{:>10} {:>10} {:>12} {:>10} {:>12} {:>10} {:>8}  node",
            "actual", "scanned", "pairs", "bytes", "time", "est", "q-err"
        )?;
        for node in &self.nodes {
            let est = node
                .shape
                .estimate
                .map_or_else(|| "-".to_string(), |e| format!("{e:.1}"));
            let q = node
                .q_error()
                .map_or_else(|| "-".to_string(), |q| format!("{q:.2}"));
            writeln!(
                f,
                "{:>10} {:>10} {:>12} {:>10} {:>12?} {:>10} {:>8}  {:indent$}{}",
                node.metrics.incidents_emitted,
                node.metrics.records_scanned,
                node.metrics.pairs_compared,
                node.metrics.output_bytes,
                node.metrics.wall,
                est,
                q,
                "",
                node.shape.label,
                indent = node.shape.depth * 2,
            )?;
        }
        if !self.workers.is_empty() {
            writeln!(f, "workers:")?;
            for w in &self.workers {
                writeln!(
                    f,
                    "  worker {}: {} instance(s), {} incident(s), {:?}",
                    w.worker, w.instances, w.incidents, w.wall
                )?;
            }
            if self.workers.len() > 1 {
                if let Some(skew) = self.skew() {
                    writeln!(f, "skew     : max/mean worker busy time = {skew:.2}")?;
                }
            }
        }
        writeln!(
            f,
            "total    : {} incident(s) in {:?}",
            self.total_incidents, self.total_wall
        )
    }
}

/// Escapes `s` as a JSON string literal (quotes included), mirroring the
/// analyzer's renderer so every `wlq` JSON surface escapes identically.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an optional float as a JSON number, `null` when absent or
/// non-finite.
pub(crate) fn json_num(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExecutionProfile {
        let shapes = [
            ("sequential", "A -> B", 0, Some(2.0)),
            ("scan A", "A", 1, Some(1.5)),
            ("scan B", "B", 1, Some(4.0)),
        ];
        ExecutionProfile {
            query: "A -> B".to_string(),
            plan: "A -> B".to_string(),
            strategy: "planned".to_string(),
            rule: Some("original".to_string()),
            threads: 2,
            nodes: shapes
                .into_iter()
                .map(|(label, pattern, depth, estimate)| ProfiledNode {
                    shape: NodeShape {
                        label: label.to_string(),
                        pattern: pattern.to_string(),
                        depth,
                        estimate,
                        cost: Some(10.0),
                    },
                    metrics: NodeMetrics {
                        wall: Duration::from_micros(5),
                        records_scanned: 4,
                        pairs_compared: 8,
                        incidents_emitted: 4,
                        output_bytes: 64,
                    },
                })
                .collect(),
            workers: vec![
                WorkerProfile {
                    worker: 0,
                    instances: 2,
                    incidents: 3,
                    wall: Duration::from_micros(30),
                },
                WorkerProfile {
                    worker: 1,
                    instances: 1,
                    incidents: 1,
                    wall: Duration::from_micros(10),
                },
            ],
            log_instances: 5,
            total_wall: Duration::from_micros(50),
            total_incidents: 4,
        }
    }

    #[test]
    fn display_renders_tree_workers_and_totals() {
        let text = sample().to_string();
        assert!(text.contains("query    : A -> B"), "{text}");
        assert!(text.contains("sequential"), "{text}");
        assert!(text.contains("  scan A"), "{text}");
        assert!(text.contains("instances: 3 of 5"), "{text}");
        assert!(text.contains("worker 1: 1 instance(s)"), "{text}");
        assert!(text.contains("skew     :"), "{text}");
        assert!(text.contains("total    : 4 incident(s)"), "{text}");
    }

    #[test]
    fn skew_is_max_over_mean() {
        let profile = sample();
        // Busy times 30us and 10us: mean 20us, max 30us -> skew 1.5.
        assert!((profile.skew().unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn q_error_tracks_estimate_vs_actual() {
        let profile = sample();
        // Root: est 2.0 vs actual 4 -> 2.0; scan B: est 4.0 vs 4 -> 1.0.
        assert!((profile.nodes[0].q_error().unwrap() - 2.0).abs() < 1e-9);
        assert!((profile.nodes[2].q_error().unwrap() - 1.0).abs() < 1e-9);
        // scan A is the worst: est 1.5 vs actual 4.
        assert!((profile.max_q_error().unwrap() - 4.0 / 1.5).abs() < 1e-9);
    }

    #[test]
    fn json_escapes_and_orders_keys() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_num(None), "null");
        assert_eq!(json_num(Some(f64::NAN)), "null");
        assert_eq!(json_num(Some(1.5)), "1.5");
    }
}
