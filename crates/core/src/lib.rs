//! # WLQ — querying workflow logs
//!
//! A full Rust implementation of *"Querying Workflow Logs"* (Yan Tang,
//! Isaac Mackey, Jianwen Su): an algebraic query language over workflow
//! execution logs based on **incident patterns**, with four BPMN-inspired
//! composition operators — consecutive `⊙` (`~>`), sequential `→` (`->`),
//! choice `⊗` (`|`), and parallel `⊕` (`&`).
//!
//! This crate is the facade: it re-exports the whole API surface and adds
//! the paper's motivating analyses as ready-made queries ([`analyses`]).
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | Log model | [`wlq_log`] | records, logs, validation, indexes, serialization |
//! | Workflow engine | [`wlq_workflow`] | models, simulator, scenarios, generators |
//! | Pattern algebra | [`wlq_pattern`] | AST, parser, laws (Theorems 2–5), rewrites |
//! | Evaluation | [`wlq_engine`] | naive + optimized operators, the query planner, trees, parallel, streaming |
//! | Observability | [`wlq_obs`] | per-operator metrics, execution profiles, JSON Lines traces |
//! | Static analysis | [`wlq_analysis`] | span-anchored lints, unsatisfiability proofs, cost budget |
//!
//! ## Quick start
//!
//! ```
//! use wlq::prelude::*;
//!
//! // Enact the paper's clinic referral process…
//! let model = wlq::scenarios::clinic::model();
//! let log = simulate(&model, &SimulationConfig::new(50, 42));
//!
//! // …and ask the paper's question: does anyone update their referral
//! // before being reimbursed?
//! let q = Query::parse("UpdateRefer -> GetReimburse")?;
//! println!("{} anomalous incident(s)", q.count(&log)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub use wlq_analysis::{
    denies, line_col, render_human, render_json, render_parse_error, Analyzer, Diagnostic,
    LintCode, Report, Severity, DEFAULT_COST_BUDGET,
};
pub use wlq_engine::{
    combine_batch, combine_batch_into, equivalent_up_to, fast_count, mine_relations, timeline,
    BatchArena, BoundIncident, BoundedEquiv, EngineError, EvalTrace, Incident, IncidentBatch,
    IncidentRef, IncidentSet, IncidentSetIter, IncidentTree, IncidentView, Incidents, JoinShape,
    LabelledPattern, MinedRelation, Node, NodeTrace, PhysicalPlan, PlanCost, PlanNode, PlanRow,
    Planner, Query, RewriteCandidate, SharedStreamingEvaluator, SpanStats, Strategy,
    StreamingEvaluator, TimelinePoint,
};
pub use wlq_log::{
    attrs, io, paper, Activity, AttrMap, AttrName, IsLsn, Log, LogBuilder, LogError, LogIndex,
    LogRecord, LogStats, Lsn, ParseLogError, Value, Wid, END_ACTIVITY, START_ACTIVITY,
};
pub use wlq_obs::{
    q_error, render_trace, validate_trace, ExecutionProfile, NodeMetrics, NodeShape, ProfiledNode,
    TraceError, TraceSummary, WorkerProfile, TRACE_SCHEMA_VERSION,
};
pub use wlq_pattern::{
    ac_equivalent, algebra, canonicalize, choice_normal_form, from_postfix, is_valid_pattern,
    random_pattern, rewrite, sequential_chain, theorem1_worst_case, to_postfix, to_symbolic, Atom,
    CmpOp, Op, ParseErrorKind, ParsePatternError, Pattern, PatternGenConfig, PatternSpans,
    PostfixError, PostfixItem, Predicate, Scope, Span, SpannedPattern,
};
pub use wlq_workflow::{
    generator, scenarios, simulate, ConformanceReport, DataEffect, ModelBuilder, ModelError,
    NodeDef, NodeId, SimulationConfig, Verdict, WorkflowModel,
};

pub mod rules;

/// Everything most programs need, for `use wlq::prelude::*`.
pub mod prelude {
    pub use wlq_engine::{Incident, IncidentSet, Query, Strategy, StreamingEvaluator};
    pub use wlq_log::{attrs, AttrMap, Log, LogBuilder, LogStats, Value, Wid};
    pub use wlq_pattern::{Op, Pattern};
    pub use wlq_workflow::{simulate, SimulationConfig, WorkflowModel};
}

pub mod analyses {
    //! The paper's motivating analyses, packaged as functions.
    //!
    //! The introduction asks two questions of the clinic referral log:
    //!
    //! 1. *"How many students every year get referrals with balance >
    //!    $5,000?"* — [`high_balance_referrals`] (the amount is a
    //!    parameter; grouping uses any attribute, e.g. `year`, when the
    //!    log records one).
    //! 2. *"Are there any students updating their referral after they
    //!    already got reimbursed?"* — [`update_after_reimburse`], and its
    //!    mirror [`update_before_reimburse`] from Section 2.

    use std::collections::BTreeMap;

    use wlq_engine::{EngineError, Query};
    use wlq_log::{Log, Value, Wid};
    use wlq_pattern::{CmpOp, Pattern, Predicate};

    /// Instances whose referral was issued (or later updated to) a balance
    /// strictly above `threshold`. Uses the attribute-predicate extension.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`EngineError`] (impossible for these
    /// default-configured queries).
    pub fn high_balance_referrals(log: &Log, threshold: i64) -> Result<Vec<Wid>, EngineError> {
        let refer = Pattern::Atom(
            wlq_pattern::Atom::new("GetRefer").with_predicate(Predicate::new(
                "balance",
                CmpOp::Gt,
                threshold,
            )),
        );
        let update = Pattern::Atom(
            wlq_pattern::Atom::new("UpdateRefer").with_predicate(Predicate::new(
                "balance",
                CmpOp::Gt,
                threshold,
            )),
        );
        Ok(Query::new(refer.alt(update)).find(log)?.wids().collect())
    }

    /// Like [`high_balance_referrals`], additionally grouped by the value
    /// of `group_attr` (e.g. a `year` attribute) at the matching record.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`EngineError`] (impossible for these
    /// default-configured queries).
    pub fn high_balance_referrals_by(
        log: &Log,
        threshold: i64,
        group_attr: &str,
    ) -> Result<BTreeMap<Value, usize>, EngineError> {
        let refer = Pattern::Atom(
            wlq_pattern::Atom::new("GetRefer").with_predicate(Predicate::new(
                "balance",
                CmpOp::Gt,
                threshold,
            )),
        );
        Query::new(refer).count_instances_by_attr(log, group_attr)
    }

    /// The Section 2 query: instances where a referral update happens
    /// *before* a reimbursement (`UpdateRefer → GetReimburse`).
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`EngineError`] (impossible for these
    /// default-configured queries).
    pub fn update_before_reimburse(log: &Log) -> Result<Vec<Wid>, EngineError> {
        static_query("UpdateRefer -> GetReimburse", log)
    }

    /// The introduction's fraud hint: instances updating a referral
    /// *after* already being reimbursed (`GetReimburse → UpdateRefer`).
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`EngineError`] (impossible for these
    /// default-configured queries).
    pub fn update_after_reimburse(log: &Log) -> Result<Vec<Wid>, EngineError> {
        static_query("GetReimburse -> UpdateRefer", log)
    }

    fn static_query(pattern: &str, log: &Log) -> Result<Vec<Wid>, EngineError> {
        let query = Query::parse(pattern).map_err(EngineError::Pattern)?;
        Ok(query.find(log)?.wids().collect())
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use wlq_log::paper;

        #[test]
        fn figure3_update_before_reimburse_is_wid2() {
            let log = paper::figure3_log();
            assert_eq!(update_before_reimburse(&log).unwrap(), vec![Wid(2)]);
            assert!(update_after_reimburse(&log).unwrap().is_empty());
        }

        #[test]
        fn figure3_high_balance_thresholds() {
            let log = paper::figure3_log();
            // Initial balances: 1000, 2000, 500; wid 2 updates to 5000.
            assert_eq!(
                high_balance_referrals(&log, 5000).unwrap(),
                Vec::<Wid>::new()
            );
            assert_eq!(high_balance_referrals(&log, 4999).unwrap(), vec![Wid(2)]);
            assert_eq!(
                high_balance_referrals(&log, 900).unwrap(),
                vec![Wid(1), Wid(2)]
            );
            assert_eq!(
                high_balance_referrals(&log, 100).unwrap(),
                vec![Wid(1), Wid(2), Wid(3)]
            );
        }

        #[test]
        fn grouping_by_hospital_counts_instances() {
            let log = paper::figure3_log();
            let groups = high_balance_referrals_by(&log, 900, "hospital").unwrap();
            assert_eq!(groups[&Value::from("Public Hospital")], 1);
            assert_eq!(groups[&Value::from("People Hospital")], 1);
        }
    }
}
