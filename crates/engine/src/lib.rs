//! # wlq-engine — incident-pattern query evaluation
//!
//! The evaluation half of *"Querying Workflow Logs"*: given a
//! [`wlq_pattern::Pattern`] and a [`wlq_log::Log`], compute the incident
//! set `incL(p)` of Definition 4.
//!
//! * [`Incident`] / [`IncidentSet`] — the semantic objects; a set keeps
//!   the executor's per-instance batches and lends out [`IncidentView`]s.
//! * [`naive`] — the paper's Algorithm 1 operators, complexity-faithful,
//!   and their one dispatch [`naive::combine`]: the reference oracle
//!   ([`Strategy::NaivePaper`]).
//! * [`batch`] / [`kernels`] — the evaluation hot path: flat arena-backed
//!   [`IncidentBatch`] storage with zero-copy, output-sensitive operator
//!   kernels producing identical results.
//! * [`planner`] — the one query optimizer: Theorem 2–5 rewrites
//!   (including a chain-parenthesisation DP), a Lemma-1-style cost
//!   model, and per-node physical operator selection (drives the default
//!   [`Strategy::Planned`]).
//! * [`IncidentTree`] — Definition 6 trees with post-order evaluation
//!   (Algorithms 2–3) running Algorithm 1's operators, and per-node
//!   traces: the oracle's other formulation.
//! * [`Evaluator`] — the one per-instance executor, with
//!   short-circuiting, and the one loop that runs it over a query's
//!   instances for every entry point (listing, counting, `exists`,
//!   [`Query::find_first`], the worker pool); a planned query visits only
//!   its candidate instances, those running every activity it needs.
//!   [`evaluate_parallel`] runs it on the engine's one worker pool.
//! * [`StreamingEvaluator`] — incremental evaluation over an append-only
//!   log (runtime monitoring).
//! * [`profile_evaluation`] (cargo feature `profiling`, on by default) —
//!   the same executor and pool with a metrics probe, recording
//!   per-operator [`wlq_obs::NodeMetrics`] and per-worker skew; the
//!   unprofiled path passes a no-op probe that compiles away.
//! * [`Query`] — parse-once, run-many facade with counting/grouping
//!   projections; it runs the pattern as written and leaves rewriting
//!   to the planner.
//!
//! ## Quick start
//!
//! ```
//! use wlq_engine::Query;
//! use wlq_log::paper;
//!
//! let log = paper::figure3_log();
//! let anomalies = Query::parse("UpdateRefer -> GetReimburse")?;
//! assert_eq!(anomalies.count(&log)?, 1); // instance 2 misbehaves
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod bindings;
mod bounded_equiv;
mod candidates;
mod counting;
mod error;
mod eval;
mod incident;
mod incident_set;
mod mining;
mod parallel;
mod probe;
#[cfg(feature = "profiling")]
mod profile;
mod query;
mod resolve;
mod spans;
mod streaming;
mod timeline;
mod tree;

pub mod batch;
pub mod kernels;
pub mod naive;
pub mod planner;

pub use batch::{BatchArena, IncidentBatch, IncidentRef, Incidents};
pub use bindings::{BoundIncident, LabelledPattern};
pub use bounded_equiv::{equivalent_up_to, BoundedEquiv};
pub use counting::fast_count;
pub use error::EngineError;
pub use eval::{leaf_incidents, Evaluator, Strategy};
pub use incident::{Incident, IncidentView};
pub use incident_set::IncidentSet;
pub use kernels::{combine_batch, combine_batch_into};
pub use mining::{mine_relations, MinedRelation};
pub use parallel::evaluate_parallel;
pub use planner::{
    JoinShape, PhysOp, PhysicalPlan, PlanCost, PlanNode, PlanRow, Planner, RewriteCandidate,
};
#[cfg(feature = "profiling")]
pub use profile::profile_evaluation;
pub use query::Query;
pub use resolve::{IncidentInLog, IncidentSetInLog};
pub use spans::SpanStats;
pub use streaming::{SharedStreamingEvaluator, StreamingEvaluator};
pub use timeline::{timeline, TimelinePoint};
pub use tree::{EvalTrace, IncidentTree, Node, NodeTrace};

/// The paper's optimized operators as the planned strategy evaluates them:
/// the default batch kernels behind [`combine_batch`], over sorted incident
/// lists. Test-only; its tests check each operator against Algorithm 1's
/// naive definition in [`naive`].
#[cfg(test)]
mod optimized {
    use crate::batch::IncidentBatch;
    use crate::incident::Incident;
    use crate::kernels::combine_batch;
    use wlq_pattern::Op;

    fn eval(op: Op, left: &[Incident], right: &[Incident]) -> Vec<Incident> {
        let wid = left
            .first()
            .or(right.first())
            .map_or(wlq_log::Wid(0), Incident::wid);
        let lb = IncidentBatch::from_incidents(wid, left);
        let rb = IncidentBatch::from_incidents(wid, right);
        combine_batch(op, &lb, &rb).into_incidents()
    }

    pub(crate) fn consecutive_eval(left: &[Incident], right: &[Incident]) -> Vec<Incident> {
        eval(Op::Consecutive, left, right)
    }

    pub(crate) fn sequential_eval(left: &[Incident], right: &[Incident]) -> Vec<Incident> {
        eval(Op::Sequential, left, right)
    }

    pub(crate) fn choice_eval(left: &[Incident], right: &[Incident]) -> Vec<Incident> {
        eval(Op::Choice, left, right)
    }

    pub(crate) fn parallel_eval(left: &[Incident], right: &[Incident]) -> Vec<Incident> {
        eval(Op::Parallel, left, right)
    }

    mod tests {
        use super::*;
        use crate::naive;
        use wlq_log::{IsLsn, Wid};

        fn inc(ps: &[u32]) -> Incident {
            Incident::from_positions(Wid(1), ps.iter().map(|&p| IsLsn(p)).collect())
        }

        /// Overlapping, multi-position incidents: shared firsts, nested and
        /// interleaved spans.
        fn fixture_a() -> Vec<Incident> {
            let mut v = vec![
                inc(&[1]),
                inc(&[1, 2]),
                inc(&[2]),
                inc(&[3, 5]),
                inc(&[4]),
                inc(&[6, 7, 8]),
            ];
            v.sort_unstable();
            v
        }

        fn fixture_b() -> Vec<Incident> {
            let mut v = vec![inc(&[2, 3]), inc(&[3]), inc(&[5]), inc(&[6]), inc(&[9])];
            v.sort_unstable();
            v
        }

        #[test]
        fn consecutive_matches_naive() {
            let (a, b) = (fixture_a(), fixture_b());
            assert_eq!(consecutive_eval(&a, &b), naive::consecutive_eval(&a, &b));
            assert_eq!(consecutive_eval(&b, &a), naive::consecutive_eval(&b, &a));
            assert_eq!(consecutive_eval(&a, &a), naive::consecutive_eval(&a, &a));
        }

        #[test]
        fn sequential_matches_naive() {
            let (a, b) = (fixture_a(), fixture_b());
            assert_eq!(sequential_eval(&a, &b), naive::sequential_eval(&a, &b));
            assert_eq!(sequential_eval(&b, &a), naive::sequential_eval(&b, &a));
            assert_eq!(sequential_eval(&a, &a), naive::sequential_eval(&a, &a));
        }

        #[test]
        fn choice_matches_naive() {
            let (a, b) = (fixture_a(), fixture_b());
            assert_eq!(choice_eval(&a, &b), naive::choice_eval(&a, &b));
            assert_eq!(choice_eval(&b, &a), naive::choice_eval(&b, &a));
            // Overlapping inputs exercise the dedup path.
            assert_eq!(choice_eval(&a, &a), naive::choice_eval(&a, &a));
            assert_eq!(choice_eval(&a, &a), a);
        }

        #[test]
        fn parallel_matches_naive() {
            let (a, b) = (fixture_a(), fixture_b());
            assert_eq!(parallel_eval(&a, &b), naive::parallel_eval(&a, &b));
            assert_eq!(parallel_eval(&b, &a), naive::parallel_eval(&b, &a));
            assert_eq!(parallel_eval(&a, &a), naive::parallel_eval(&a, &a));
        }

        #[test]
        fn empty_inputs() {
            let a = fixture_a();
            let empty: Vec<Incident> = Vec::new();
            assert!(consecutive_eval(&empty, &a).is_empty());
            assert!(consecutive_eval(&a, &empty).is_empty());
            assert!(sequential_eval(&empty, &a).is_empty());
            assert!(sequential_eval(&a, &empty).is_empty());
            assert_eq!(choice_eval(&empty, &a), a);
            assert_eq!(choice_eval(&a, &empty), a);
            assert!(parallel_eval(&empty, &a).is_empty());
            assert!(parallel_eval(&a, &empty).is_empty());
        }

        #[test]
        fn sequential_binary_search_boundary() {
            // o1.last() equal to some firsts: strict inequality must hold.
            let left = vec![inc(&[3])];
            let right = vec![inc(&[3]), inc(&[3, 9]), inc(&[4])];
            let out = sequential_eval(&left, &right);
            assert_eq!(out, vec![inc(&[3, 4])]);
            assert_eq!(out, naive::sequential_eval(&left, &right));
        }
    }
}
