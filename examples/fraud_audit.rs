//! Fraud audit over a simulated clinic referral log.
//!
//! The paper's conclusion suggests incident-pattern queries for
//! "detecting anomalous or malicious behavior, with applications in fraud
//! detection". This example simulates a busy clinic and runs the built-in
//! rule battery ([`wlq::rules::RuleSet::clinic_fraud`]) plus a custom
//! rule, then drills into the worst offender.
//!
//! ```sh
//! cargo run -p wlq-core --example fraud_audit
//! ```

use wlq::prelude::*;
use wlq::rules::RuleSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = wlq::scenarios::clinic::model();
    let log = simulate(&model, &SimulationConfig::new(2_000, 1234));
    println!(
        "audit over {} instances / {} records\n",
        log.num_instances(),
        log.len()
    );

    // The built-in battery, extended with a custom rule.
    let mut rules = RuleSet::clinic_fraud();
    rules.add(
        "marathon-referral",
        "five or more doctor visits on one referral",
        "SeeDoctor -> SeeDoctor -> SeeDoctor -> SeeDoctor -> SeeDoctor",
    )?;
    println!("rules:\n{}", rules.to_text());

    let report = rules.audit(&log)?;
    print!("{report}");

    let offenders = report.repeat_offenders(3);
    println!("\n{} instance(s) tripped 3+ rules", offenders.len());
    for (wid, hits) in offenders.iter().take(5) {
        println!(
            "  instance {wid}: {hits} rules — {}",
            report.flagged[wid].join(", ")
        );
    }

    // Drill into the worst offender: its trace, then its anomaly
    // incidents as is-lsn positions within the instance.
    if let Some((wid, _)) = offenders.first() {
        let sub = log.filter_instances(|w| w == *wid)?;
        println!("\nworst offender (instance {wid}) trace:");
        for record in sub.iter().take(15) {
            println!("  {record}");
        }
        let q = Query::parse("UpdateRefer -> GetReimburse")?;
        let incidents = q.find(&sub)?;
        if !incidents.is_empty() {
            println!("  anomaly incidents: {incidents}");
        }
    }

    // Dollar-weighted view: group high-balance referrals by hospital.
    println!("\nhigh-balance (> $6000) referrals by hospital:");
    for (hospital, count) in wlq::analyses::high_balance_referrals_by(&log, 6000, "hospital")? {
        println!("  {hospital:<18} {count}");
    }

    // Process-latency view: how many steps from update to reimbursement?
    if let Some(stats) = Query::parse("UpdateRefer -> GetReimburse")?.span_stats(&log)? {
        println!("\nupdate→reimburse spans: {stats}");
    }
    Ok(())
}
