//! # wlq-engine — incident-pattern query evaluation
//!
//! The evaluation half of *"Querying Workflow Logs"*: given a
//! [`wlq_pattern::Pattern`] and a [`wlq_log::Log`], compute the incident
//! set `incL(p)` of Definition 4.
//!
//! * [`Incident`] / [`IncidentSet`] — the semantic objects; a set keeps
//!   its incidents in a few shared segments, indexed by `wid`, and lends
//!   out [`IncidentView`]s.
//! * [`naive`] — the paper's Algorithm 1 operators, complexity-faithful,
//!   and their one dispatch [`naive::combine`]: the reference oracle
//!   ([`Strategy::NaivePaper`]).
//! * [`batch`] / [`kernels`] — the evaluation hot path: flat arena-backed
//!   [`IncidentBatch`] storage and one zero-copy, output-sensitive kernel
//!   per operator, producing identical results.
//! * [`planner`] — the one query optimizer: Theorem 2–5 rewrites
//!   (including a chain-parenthesisation DP) chosen by a Lemma-1-style
//!   cost model that prices each operator by its kernel (drives the
//!   default [`Strategy::Planned`]).
//! * [`IncidentTree`] — Definition 6 trees with post-order evaluation
//!   (Algorithms 2–3) running Algorithm 1's operators, and per-node
//!   traces: the oracle's other formulation.
//! * [`Query`] — the one way to ask a query: parse once, run many, with
//!   counting and grouping projections. It runs the pattern as written
//!   and leaves rewriting to the planner. Every call runs the engine's
//!   one per-instance executor, with short-circuiting, over the query's
//!   instances (a planned query visits only its candidate instances,
//!   those running every activity it needs), on the engine's one worker
//!   pool when [`Query::threads`] is above 1.
//!   [`Query::profile`] runs the same executor and pool with a metrics
//!   probe, recording per-operator [`wlq_obs::NodeMetrics`] and
//!   per-worker skew; the unprofiled path passes a no-op probe that
//!   compiles away.
//! * [`StreamingEvaluator`] — incremental evaluation over an append-only
//!   log (runtime monitoring).
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
mod profile;
mod query;
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
pub use eval::{Evaluator, Strategy};
pub use incident::{Incident, IncidentView};
pub use incident_set::{IncidentSet, IncidentSetIter};
pub use kernels::{combine_batch, combine_batch_into};
pub use mining::{mine_relations, MinedRelation};
pub use planner::{
    JoinShape, PhysicalPlan, PlanCost, PlanNode, PlanRow, Planner, RewriteCandidate,
};
pub use query::Query;
pub use spans::SpanStats;
pub use streaming::{SharedStreamingEvaluator, StreamingEvaluator};
pub use timeline::{timeline, TimelinePoint};
pub use tree::{EvalTrace, IncidentTree, Node, NodeTrace};

/// The paper's optimized operators as the planned strategy evaluates them:
/// each operator's one batch kernel behind [`combine_batch`], over sorted
/// incident lists. Test-only; its tests check each operator against
/// Algorithm 1's naive definition in [`naive`] on overlapping inputs.
#[cfg(test)]
mod optimized {
    mod tests {
        use crate::batch::IncidentBatch;
        use crate::incident::Incident;
        use crate::kernels::combine_batch;
        use crate::naive;
        use wlq_log::{IsLsn, Wid};
        use wlq_pattern::Op;

        fn eval(op: Op, left: &[Incident], right: &[Incident]) -> Vec<Incident> {
            let lb = IncidentBatch::from_incidents(Wid(1), left);
            let rb = IncidentBatch::from_incidents(Wid(1), right);
            combine_batch(op, &lb, &rb).into_incidents()
        }

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

        fn assert_matches_naive(op: Op) {
            let (a, b) = (fixture_a(), fixture_b());
            for (xs, ys) in [(&a, &b), (&b, &a), (&a, &a)] {
                assert_eq!(eval(op, xs, ys), naive::combine(op, xs, ys), "{op:?}");
            }
        }

        #[test]
        fn consecutive_matches_naive() {
            assert_matches_naive(Op::Consecutive);
        }

        #[test]
        fn sequential_matches_naive() {
            assert_matches_naive(Op::Sequential);
        }

        #[test]
        fn choice_matches_naive() {
            assert_matches_naive(Op::Choice);
            // Overlapping inputs exercise the dedup path.
            let a = fixture_a();
            assert_eq!(eval(Op::Choice, &a, &a), a);
        }

        #[test]
        fn parallel_matches_naive() {
            assert_matches_naive(Op::Parallel);
        }

        #[test]
        fn empty_inputs() {
            let a = fixture_a();
            let empty: Vec<Incident> = Vec::new();
            for op in [Op::Consecutive, Op::Sequential, Op::Parallel] {
                assert!(eval(op, &empty, &a).is_empty(), "{op:?}");
                assert!(eval(op, &a, &empty).is_empty(), "{op:?}");
            }
            assert_eq!(eval(Op::Choice, &empty, &a), a);
            assert_eq!(eval(Op::Choice, &a, &empty), a);
        }
    }
}
