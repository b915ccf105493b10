//! End-to-end pipelines at moderate scale: simulate → serialize → reload
//! → plan → evaluate (sequential, parallel, both strategies).

use wlq::prelude::*;
use wlq::{io, scenarios, Planner};

fn battery() -> Vec<Pattern> {
    [
        "GetRefer ~> CheckIn",
        "UpdateRefer -> GetReimburse",
        "SeeDoctor -> PayTreatment -> GetReimburse",
        "UpdateRefer | (SeeDoctor & PayTreatment)",
        "CheckIn -> (UpdateRefer | GetReimburse)",
        "!SeeDoctor ~> PayTreatment",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect()
}

#[test]
fn clinic_pipeline_all_paths_agree() {
    let log = simulate(&scenarios::clinic::model(), &SimulationConfig::new(150, 5));
    let naive = Evaluator::with_strategy(&log, Strategy::NaivePaper);
    let planned = Evaluator::with_strategy(&log, Strategy::Planned);
    let planner = Planner::from_log(&log);
    for p in battery() {
        let reference = naive.evaluate(&p);
        assert_eq!(planned.evaluate(&p), reference, "naive vs planned on {p}");
        let plan = planner.plan(&p);
        let rewritten = plan.pattern();
        assert_eq!(
            naive.evaluate(rewritten),
            reference,
            "planner broke {p} => {rewritten}"
        );
        let parallel = wlq::evaluate_parallel(&log, &p, 4, Strategy::Planned).unwrap();
        assert_eq!(parallel, reference, "parallel eval on {p}");
    }
}

#[test]
fn simulated_logs_survive_serialization() {
    let log = simulate(&scenarios::loan::model(), &SimulationConfig::new(60, 11));
    let from_csv = io::csv::read_csv(&io::csv::write_csv(&log)).unwrap();
    assert_eq!(from_csv, log);
    let from_bin = io::binary::read_binary(io::binary::write_binary(&log)).unwrap();
    assert_eq!(from_bin, log);
    let from_text = io::text::read_text(&io::text::write_text(&log)).unwrap();
    assert_eq!(from_text, log);
}

#[test]
fn clinic_invariants_hold_as_queries() {
    let log = simulate(&scenarios::clinic::model(), &SimulationConfig::new(200, 21));
    let eval = Evaluator::new(&log);
    // Model invariant: PayTreatment is always immediately preceded by
    // SeeDoctor, so the negated-consecutive pattern finds nothing.
    assert_eq!(
        eval.count(&"!SeeDoctor ~> PayTreatment".parse().unwrap()),
        0
    );
    // Every instance starts GetRefer ~> CheckIn.
    assert_eq!(
        eval.matching_instances(&"GetRefer ~> CheckIn".parse().unwrap())
            .len(),
        200
    );
    // Reimbursement requires an active referral: CompleteRefer never
    // precedes GetReimburse.
    assert_eq!(
        eval.count(&"CompleteRefer -> GetReimburse".parse().unwrap()),
        0
    );
}

#[test]
fn order_parallel_block_queries() {
    let log = simulate(&scenarios::order::model(), &SimulationConfig::new(120, 33));
    let eval = Evaluator::new(&log);
    // The ⊕ pattern matches every instance regardless of interleaving.
    let par: Pattern = "(PickItems -> Ship) & (CreateInvoice -> CollectPayment)"
        .parse()
        .unwrap();
    assert_eq!(eval.matching_instances(&par).len(), 120);
    // A strict sequencing misses instances where invoicing finished first.
    let seq: Pattern = "(PickItems -> Ship) -> (CreateInvoice -> CollectPayment)"
        .parse()
        .unwrap();
    assert!(eval.matching_instances(&seq).len() < 120);
    // Every order eventually closes: CloseOrder → END consecutively.
    assert_eq!(
        eval.matching_instances(&"CloseOrder ~> END".parse().unwrap())
            .len(),
        120
    );
}

#[test]
fn loan_choice_queries_partition_outcomes() {
    let log = simulate(&scenarios::loan::model(), &SimulationConfig::new(250, 77));
    let eval = Evaluator::new(&log);
    let disbursed = eval.matching_instances(&"Disburse".parse().unwrap());
    let approved = eval.matching_instances(&"(AutoApprove | Approve) -> Disburse".parse().unwrap());
    // Disbursement happens only after an approval of either kind.
    assert_eq!(disbursed, approved);
    // No instance is both auto-approved and manually approved.
    assert_eq!(eval.count(&"AutoApprove -> Approve".parse().unwrap()), 0);
    assert_eq!(eval.count(&"Approve -> AutoApprove".parse().unwrap()), 0);
}

#[test]
fn query_builder_threads_and_strategies_compose() {
    let log = simulate(&scenarios::clinic::model(), &SimulationConfig::new(80, 9));
    let q = Query::parse("SeeDoctor -> (UpdateRefer -> GetReimburse)").unwrap();
    let base = q.clone().find(&log).unwrap();
    for threads in [1, 2, 8] {
        for strategy in [Strategy::NaivePaper, Strategy::Planned] {
            let got = q
                .clone()
                .threads(threads)
                .strategy(strategy)
                .find(&log)
                .unwrap();
            assert_eq!(got, base, "threads={threads} strategy={strategy:?}");
        }
    }
}

#[test]
fn profile_reports_are_consistent() {
    let log = simulate(&scenarios::clinic::model(), &SimulationConfig::new(50, 3));
    let q = Query::parse("(GetRefer -> GetReimburse) | (GetRefer -> CompleteRefer)").unwrap();
    let (incidents, profile) =
        wlq::profile_evaluation(&log, q.pattern(), Strategy::Planned, 2).unwrap();
    assert_eq!(incidents, q.find(&log).unwrap());
    assert_eq!(profile.total_incidents, incidents.len() as u64);
    // The plan that ran is the planner's, and it names the shared prefix.
    assert_eq!(
        profile.plan,
        Planner::from_log(&log)
            .plan(q.pattern())
            .pattern()
            .to_string()
    );
    assert!(profile.plan.contains("GetRefer"));
}
