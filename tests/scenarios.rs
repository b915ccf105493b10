//! Scenario-level acceptance tests: each shipped workflow model, enacted
//! at scale, answers its domain's questions correctly through the query
//! language alone (no peeking at the simulator's internals).

use wlq::prelude::*;
use wlq::{analyses, scenarios};

#[test]
fn clinic_referral_protocol_is_visible_through_queries() {
    let log = simulate(
        &scenarios::clinic::model(),
        &SimulationConfig::new(300, 101),
    );
    let query = |src: &str| Query::parse(src).unwrap();
    let count = |src: &str| query(src).count(&log).unwrap();

    // Protocol: every instance begins START ~> GetRefer ~> CheckIn.
    let opening = query("START ~> GetRefer ~> CheckIn");
    assert_eq!(opening.count_by_instance(&log).unwrap().len(), 300);

    // Payments imply a visit: SeeDoctor ~> PayTreatment covers every
    // payment.
    let pays = count("PayTreatment");
    let visits_then_pay = count("SeeDoctor ~> PayTreatment");
    assert_eq!(pays, visits_then_pay);

    // Completion follows reimbursement consecutively in this model.
    let complete = count("CompleteRefer");
    let reimburse_then_complete = count("GetReimburse ~> CompleteRefer");
    assert_eq!(complete, reimburse_then_complete);
}

#[test]
fn clinic_anomaly_rates_are_plausible() {
    let log = simulate(
        &scenarios::clinic::model(),
        &SimulationConfig::new(500, 202),
    );
    // Updates before reimbursement occur in a meaningful minority of
    // instances (the loop enters UpdateRefer with weight 0.15).
    let anomalous = analyses::update_before_reimburse(&log).unwrap();
    assert!(
        anomalous.len() > 25 && anomalous.len() < 475,
        "implausible anomaly count {}",
        anomalous.len()
    );
    // Updating *after* reimbursement is impossible in this model: the
    // loop is left for good once GetReimburse runs.
    assert!(analyses::update_after_reimburse(&log).unwrap().is_empty());
}

#[test]
fn clinic_high_balance_analysis_matches_threshold_semantics() {
    let log = simulate(
        &scenarios::clinic::model(),
        &SimulationConfig::new(200, 303),
    );
    // Balances are drawn from 500..=8000, updates add 3000 each.
    let over_zero = analyses::high_balance_referrals(&log, 0).unwrap();
    assert_eq!(over_zero.len(), 200, "every referral has positive balance");
    let over_max = analyses::high_balance_referrals(&log, 1_000_000).unwrap();
    assert!(over_max.is_empty());
    // Monotonicity in the threshold.
    let t1 = analyses::high_balance_referrals(&log, 2000).unwrap().len();
    let t2 = analyses::high_balance_referrals(&log, 6000).unwrap().len();
    assert!(t1 >= t2);
}

#[test]
fn order_join_semantics_are_queryable() {
    let log = simulate(&scenarios::order::model(), &SimulationConfig::new(150, 404));
    let query = |src: &str| Query::parse(src).unwrap();
    // CloseOrder strictly after both Ship and CollectPayment:
    let both_then_close = query("(Ship & CollectPayment) -> CloseOrder");
    assert_eq!(both_then_close.count_by_instance(&log).unwrap().len(), 150);
    // An order is never shipped twice.
    assert_eq!(query("Ship -> Ship").count(&log), Ok(0));
}

#[test]
fn loan_every_instance_reaches_a_terminal_decision() {
    let log = simulate(&scenarios::loan::model(), &SimulationConfig::new(300, 505));
    let query = |src: &str| Query::parse(src).unwrap();
    let matching = |src: &str| query(src).count_by_instance(&log).unwrap().into_keys();
    let disbursed: std::collections::BTreeSet<Wid> = matching("Disburse ~> END").collect();
    let rejected_final: std::collections::BTreeSet<Wid> = matching("Reject -> END").collect();
    // Every instance ends disbursed or rejected; none both ways at END.
    let union: Vec<_> = disbursed.union(&rejected_final).collect();
    assert_eq!(union.len(), 300);
    // A loan that disbursed was never rejected *after* signing.
    assert_eq!(query("SignContract -> Reject").count(&log), Ok(0));
}

#[test]
fn loan_appeals_reenter_review() {
    let log = simulate(&scenarios::loan::model(), &SimulationConfig::new(400, 606));
    let count = |src: &str| Query::parse(src).unwrap().count(&log).unwrap();
    let appeals = count("Appeal");
    let appeal_then_review = count("Appeal ~> ManualReview");
    assert_eq!(appeals, appeal_then_review, "every appeal goes to review");
    assert!(appeals > 0, "seed produced no appeals; pick another seed");
}

#[test]
fn scenario_logs_are_deterministic_and_distinct() {
    for model in [
        scenarios::clinic::model(),
        scenarios::order::model(),
        scenarios::loan::model(),
    ] {
        let a = simulate(&model, &SimulationConfig::new(25, 1));
        let b = simulate(&model, &SimulationConfig::new(25, 1));
        assert_eq!(a, b, "{} not deterministic", model.name());
        let c = simulate(&model, &SimulationConfig::new(25, 2));
        assert_ne!(a, c, "{} ignores its seed", model.name());
    }
}

#[test]
fn injected_drift_is_caught_by_conformance() {
    use wlq::generator::inject_reorder_anomalies;
    let model = scenarios::clinic::model();
    let clean = simulate(&model, &SimulationConfig::new(80, 42));
    assert!(model.check_log(&clean).is_conforming());

    let (drifted, tampered) = inject_reorder_anomalies(&clean, 0.5, 13);
    let report = model.check_log(&drifted);
    let violations = report.violations();
    // Soundness: only tampered instances may violate.
    for wid in &violations {
        assert!(tampered.contains(wid));
    }
    // Sensitivity: a decent share of the tampering is detectable (some
    // reorders are behaviour-preserving, so 100% recall is impossible).
    assert!(
        violations.len() * 2 >= tampered.len() / 2,
        "only {} of {} tampered instances detected",
        violations.len(),
        tampered.len()
    );
}
