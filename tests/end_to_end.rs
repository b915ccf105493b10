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
    let naive = |p: &Pattern| {
        let q = Query::new(p.clone()).strategy(Strategy::NaivePaper);
        q.find(&log).unwrap()
    };
    let planner = Planner::from_log(&log);
    for p in battery() {
        let reference = naive(&p);
        let planned = Query::new(p.clone());
        assert_eq!(
            planned.find(&log).unwrap(),
            reference,
            "naive vs planned on {p}"
        );
        let plan = planner.plan(&p);
        let rewritten = plan.pattern();
        assert_eq!(
            naive(rewritten),
            reference,
            "planner broke {p} => {rewritten}"
        );
        let parallel = planned.threads(4).find(&log).unwrap();
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
    let query = |src: &str| Query::parse(src).unwrap();
    // Model invariant: PayTreatment is always immediately preceded by
    // SeeDoctor, so the negated-consecutive pattern finds nothing.
    assert_eq!(query("!SeeDoctor ~> PayTreatment").count(&log), Ok(0));
    // Every instance starts GetRefer ~> CheckIn.
    let opened = query("GetRefer ~> CheckIn")
        .count_by_instance(&log)
        .unwrap();
    assert_eq!(opened.len(), 200);
    // Reimbursement requires an active referral: CompleteRefer never
    // precedes GetReimburse.
    assert_eq!(query("CompleteRefer -> GetReimburse").count(&log), Ok(0));
}

#[test]
fn order_parallel_block_queries() {
    let log = simulate(&scenarios::order::model(), &SimulationConfig::new(120, 33));
    let matching = |src: &str| {
        let q = Query::parse(src).unwrap();
        q.find(&log).unwrap().num_matched_instances()
    };
    // The ⊕ pattern matches every instance regardless of interleaving.
    let par = "(PickItems -> Ship) & (CreateInvoice -> CollectPayment)";
    assert_eq!(matching(par), 120);
    // A strict sequencing misses instances where invoicing finished first.
    let seq = "(PickItems -> Ship) -> (CreateInvoice -> CollectPayment)";
    assert!(matching(seq) < 120);
    // Every order eventually closes: CloseOrder → END consecutively.
    assert_eq!(matching("CloseOrder ~> END"), 120);
}

#[test]
fn loan_choice_queries_partition_outcomes() {
    let log = simulate(&scenarios::loan::model(), &SimulationConfig::new(250, 77));
    let query = |src: &str| Query::parse(src).unwrap();
    let matching = |src: &str| query(src).find(&log).unwrap().wids().collect::<Vec<_>>();
    let disbursed = matching("Disburse");
    let approved = matching("(AutoApprove | Approve) -> Disburse");
    // Disbursement happens only after an approval of either kind.
    assert_eq!(disbursed, approved);
    // No instance is both auto-approved and manually approved.
    assert_eq!(query("AutoApprove -> Approve").count(&log), Ok(0));
    assert_eq!(query("Approve -> AutoApprove").count(&log), Ok(0));
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
    let (incidents, profile) = q.clone().threads(2).profile(&log).unwrap();
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
