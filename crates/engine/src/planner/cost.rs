//! The planner's cost model: cardinality estimates from the log's
//! activity statistics, and the price of each operator's batch kernel.
//!
//! Cardinalities come from [`LogStats`]: atoms use exact activity counts
//! and composites uniform-placement approximations
//! ([`PlanCost::combine_estimate`]). Each operator node is then priced
//! by the one kernel that executes it ([`crate::kernels`]):
//!
//! | operator | kernel | cost shape |
//! |---|---|---|
//! | `⊙`/`→` | binary-search partner runs | `n1·log n2 + copy` |
//! | `⊗` | sorted merge | `(n1+n2)·min(k1,k2)` |
//! | `⊕` | pairwise disjointness merge | `n1·n2·(k1+k2)` |
//!
//! where `copy = out·(k1+k2)` is the unavoidable cost of writing the
//! output unions into the pool. The same prices score whole candidate
//! trees ([`super::Planner::plan`]) and drive the chain-parenthesisation
//! DP that produces one of those candidates, so the two never disagree.

use wlq_log::LogStats;
use wlq_pattern::{Op, Pattern};

/// Estimated shape of one join node: input cardinalities, subtree
/// widths, and output cardinality.
#[derive(Debug, Clone, Copy)]
pub struct JoinShape {
    /// Estimated left input cardinality.
    pub n1: f64,
    /// Estimated right input cardinality.
    pub n2: f64,
    /// Number of atoms in the left subtree (incident width).
    pub k1: f64,
    /// Number of atoms in the right subtree (incident width).
    pub k2: f64,
    /// Estimated output cardinality.
    pub out: f64,
}

/// The planner's one cost model: cardinality estimates plus per-operator
/// kernel pricing.
#[derive(Debug, Clone)]
pub struct PlanCost {
    num_records: f64,
    num_instances: f64,
    stats: LogStats,
}

impl PlanCost {
    /// Builds the model from a log's activity statistics.
    #[must_use]
    pub fn new(stats: LogStats) -> Self {
        #[allow(clippy::cast_precision_loss)]
        PlanCost {
            num_records: stats.num_records.max(1) as f64,
            num_instances: stats.num_instances.max(1) as f64,
            stats,
        }
    }

    /// Estimated `|incL(p)|` across the whole log.
    ///
    /// Atoms use exact activity counts (a predicate is assumed to keep
    /// half); composites combine their children's estimates with
    /// [`combine_estimate`](Self::combine_estimate).
    #[must_use]
    pub fn estimate_incidents(&self, p: &Pattern) -> f64 {
        match p {
            Pattern::Atom(a) => {
                #[allow(clippy::cast_precision_loss)]
                let present = self.stats.activity_count(a.activity.as_str()) as f64;
                let count = if a.negated {
                    self.num_records - present
                } else {
                    present
                };
                // Each predicate filters; assume selectivity 1/2.
                count * 0.5_f64.powi(a.predicates.len() as i32)
            }
            Pattern::Binary { op, left, right } => self.combine_estimate(
                *op,
                self.estimate_incidents(left),
                self.estimate_incidents(right),
            ),
        }
    }

    /// Estimated output size of combining incident sets of sizes `n1`,
    /// `n2` under `op`: a pair of incidents of one instance is adjacent
    /// with probability `≈ 1/m`, ordered with probability `≈ 1/2`, and
    /// lands in the same instance with probability `≈ 1/W`.
    #[must_use]
    pub fn combine_estimate(&self, op: Op, n1: f64, n2: f64) -> f64 {
        match op {
            Op::Consecutive => n1 * n2 / self.num_records,
            Op::Sequential => n1 * n2 / (2.0 * self.num_instances),
            Op::Choice => n1 + n2,
            Op::Parallel => n1 * n2 / self.num_instances,
        }
    }

    /// Estimated cost of scanning one leaf (one pass over the index's
    /// posting lists — bounded by the record count).
    #[must_use]
    pub fn leaf_cost(&self) -> f64 {
        self.num_records
    }

    /// Prices one `op` node over children estimated at `n1`/`n2`
    /// incidents of `k1`/`k2` atoms: the node's shape (with its output
    /// estimate), and the work of the operator's batch kernel on it,
    /// children excluded.
    #[must_use]
    pub fn price_join(
        &self,
        op: Op,
        (n1, k1): (f64, f64),
        (n2, k2): (f64, f64),
    ) -> (JoinShape, f64) {
        let out = self.combine_estimate(op, n1, n2);
        let copy = out * (k1 + k2);
        let cost = match op {
            Op::Consecutive | Op::Sequential => n1 * (n2 + 2.0).log2() + copy,
            Op::Choice => (n1 + n2) * k1.min(k2).max(1.0),
            Op::Parallel => n1 * n2 * (k1 + k2).max(1.0),
        };
        let shape = JoinShape {
            n1,
            n2,
            k1,
            k2,
            out,
        };
        (shape, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::paper;

    fn cost() -> PlanCost {
        PlanCost::new(LogStats::compute(&paper::figure3_log()))
    }

    fn parse(s: &str) -> Pattern {
        s.parse().expect("valid pattern")
    }

    #[test]
    fn atom_estimates_use_exact_counts() {
        let c = cost();
        assert_eq!(c.estimate_incidents(&parse("SeeDoctor")), 4.0);
        assert_eq!(c.estimate_incidents(&parse("UpdateRefer")), 1.0);
        assert_eq!(c.estimate_incidents(&parse("!SeeDoctor")), 16.0);
        assert_eq!(c.estimate_incidents(&parse("Missing")), 0.0);
    }

    #[test]
    fn predicate_estimates_halve_counts() {
        let n = cost().estimate_incidents(&parse("SeeDoctor[x > 1]"));
        assert_eq!(n, 2.0);
    }

    #[test]
    fn choice_estimate_is_additive() {
        let n = cost().estimate_incidents(&parse("SeeDoctor | PayTreatment"));
        assert_eq!(n, 7.0);
    }

    #[test]
    fn sequential_joins_are_priced_by_the_binary_search_kernel() {
        let c = cost();
        let (shape, work) = c.price_join(Op::Sequential, (6.0, 1.0), (2.0, 2.0));
        assert_eq!(shape.out, c.combine_estimate(Op::Sequential, 6.0, 2.0));
        assert_eq!(work, 6.0 * 4.0_f64.log2() + shape.out * 3.0);
    }

    #[test]
    fn choice_and_parallel_use_the_batch_kernels() {
        let c = cost();
        let (_, choice) = c.price_join(Op::Choice, (10.0, 1.0), (10.0, 2.0));
        assert_eq!(choice, 20.0);
        let (_, parallel) = c.price_join(Op::Parallel, (10.0, 1.0), (10.0, 2.0));
        assert_eq!(parallel, 300.0);
    }
}
