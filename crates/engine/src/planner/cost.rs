//! The planner's cost model: Lemma-1 logical bounds plus per-physical-
//! operator refinements.
//!
//! Logical estimates (output cardinalities, Algorithm-1 work shapes) are
//! delegated to the pattern crate's [`CostModel`], fed with the same
//! [`wlq_log::LogStats`] the algebraic optimizer uses — one source of
//! truth for selectivities. On top of that, this module prices the
//! *physical* alternatives for each operator so the planner can pick a
//! kernel per node:
//!
//! | operator | physical | cost shape |
//! |---|---|---|
//! | `⊙`/`→` | nested loop | `n1·n2 + copy` |
//! | `⊙`/`→` | batch kernel | `n1·log n2 + copy` |
//! | `→` | sort-merge | `n1 + n2 + copy` |
//! | `⊗` | batch kernel | `(n1+n2)·min(k1,k2)` |
//! | `⊕` | batch kernel | `n1·n2·(k1+k2)` |
//!
//! where `copy = out·(k1+k2)` is the unavoidable cost of writing the
//! output unions into the pool.

use wlq_pattern::{CostModel, Op, Pattern};

use super::plan::PhysOp;
use super::stats::PlanStats;

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

/// Cost model combining the pattern-level estimates with physical
/// operator pricing.
#[derive(Debug, Clone)]
pub struct PlanCost {
    model: CostModel,
    stats: PlanStats,
}

impl PlanCost {
    /// Builds the model from collected plan statistics.
    #[must_use]
    pub fn new(stats: PlanStats) -> Self {
        PlanCost {
            model: CostModel::new(stats.log_stats().clone()),
            stats,
        }
    }

    /// The underlying pattern-level cost model.
    #[must_use]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The statistics the model was built from.
    #[must_use]
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// Estimated `|incL(p)|` (delegates to the shared model).
    #[must_use]
    pub fn estimate_incidents(&self, p: &Pattern) -> f64 {
        self.model.estimate_incidents(p)
    }

    /// Estimated cost of scanning one leaf (one pass over the index's
    /// posting lists — bounded by the record count).
    #[must_use]
    pub fn leaf_cost(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.stats.log_stats().num_records.max(1) as f64
        }
    }

    /// Estimated work of one `(op, phys)` node on inputs of the given
    /// [`JoinShape`].
    #[must_use]
    pub fn physical_cost(&self, op: Op, phys: PhysOp, shape: JoinShape) -> f64 {
        let JoinShape {
            n1,
            n2,
            k1,
            k2,
            out,
        } = shape;
        let copy = out * (k1 + k2);
        match (phys, op) {
            (PhysOp::NestedLoop, Op::Consecutive | Op::Sequential) => n1 * n2 + copy,
            (PhysOp::BatchKernel, Op::Consecutive | Op::Sequential) => {
                n1 * (n2 + 2.0).log2() + copy
            }
            (PhysOp::SortMergeSeq, _) => n1 + n2 + copy,
            (_, Op::Choice) => (n1 + n2) * k1.min(k2).max(1.0),
            (_, Op::Parallel) => n1 * n2 * (k1 + k2).max(1.0),
        }
    }

    /// Chooses the cheapest applicable physical operator for one node.
    ///
    /// The sort-merge sequential join is only offered when the left child
    /// is a leaf: leaf batches are singleton runs, so their refs are
    /// strictly ascending in `last` and the kernel's monotone-cursor
    /// precondition is guaranteed rather than probed.
    #[must_use]
    pub fn choose_physical(&self, op: Op, left_is_leaf: bool, shape: JoinShape) -> (PhysOp, f64) {
        let mut options: Vec<PhysOp> = Vec::with_capacity(3);
        match op {
            Op::Sequential => {
                if left_is_leaf {
                    options.push(PhysOp::SortMergeSeq);
                }
                options.push(PhysOp::BatchKernel);
                options.push(PhysOp::NestedLoop);
            }
            Op::Consecutive => {
                options.push(PhysOp::BatchKernel);
                options.push(PhysOp::NestedLoop);
            }
            // ⊗/⊕ have a single physical implementation (the nested-loop
            // dispatch delegates to the same kernels).
            Op::Choice | Op::Parallel => options.push(PhysOp::BatchKernel),
        }
        let mut best = (PhysOp::BatchKernel, f64::INFINITY);
        for phys in options {
            let cost = self.physical_cost(op, phys, shape);
            if cost < best.1 {
                best = (phys, cost);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::paper;

    fn cost() -> PlanCost {
        let log = paper::figure3_log();
        PlanCost::new(PlanStats::compute(log.index()))
    }

    fn shape(n1: f64, n2: f64, k1: f64, k2: f64, out: f64) -> JoinShape {
        JoinShape {
            n1,
            n2,
            k1,
            k2,
            out,
        }
    }

    #[test]
    fn sort_merge_wins_wide_leaf_joins() {
        let c = cost();
        let (phys, _) = c.choose_physical(
            Op::Sequential,
            true,
            shape(1000.0, 1000.0, 1.0, 1.0, 250_000.0),
        );
        assert_eq!(phys, PhysOp::SortMergeSeq);
    }

    #[test]
    fn sort_merge_not_offered_for_composite_lefts() {
        let c = cost();
        let (phys, _) = c.choose_physical(
            Op::Sequential,
            false,
            shape(1000.0, 1000.0, 2.0, 1.0, 250_000.0),
        );
        assert_ne!(phys, PhysOp::SortMergeSeq);
    }

    #[test]
    fn nested_loop_wins_tiny_inputs() {
        let c = cost();
        // n2 = 1: one probe beats a log-factor binary search setup.
        let (phys, _) = c.choose_physical(Op::Consecutive, false, shape(2.0, 1.0, 1.0, 1.0, 0.5));
        assert_eq!(phys, PhysOp::NestedLoop);
    }

    #[test]
    fn choice_and_parallel_use_the_batch_kernels() {
        let c = cost();
        for op in [Op::Choice, Op::Parallel] {
            let (phys, _) = c.choose_physical(op, true, shape(10.0, 10.0, 1.0, 1.0, 20.0));
            assert_eq!(phys, PhysOp::BatchKernel);
        }
    }
}
