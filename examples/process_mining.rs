//! Process exploration across three workflow scenarios.
//!
//! Shows the ad hoc exploration style the paper argues for: no ETL, no
//! warehouse schema — point incident patterns straight at the log and
//! iterate. Covers the order-fulfillment scenario's parallel block (the
//! `⊕` operator) and the loan scenario's choice structure (`⊗`), plus
//! cost-based query planning and the incident-tree trace.
//!
//! ```sh
//! cargo run -p wlq-core --example process_mining
//! ```

use wlq::prelude::*;
use wlq::{IncidentTree, Planner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── Orders: the parallel block. ────────────────────────────────────
    let orders = simulate(
        &wlq::scenarios::order::model(),
        &SimulationConfig::new(400, 99),
    );
    println!(
        "── order fulfillment ({} instances) ──",
        orders.num_instances()
    );

    // Shipping and invoicing happen in parallel: the ⊕ pattern matches
    // regardless of interleaving order.
    let par = Query::parse("(PickItems -> Ship) & (CreateInvoice -> CollectPayment)")?;
    println!("parallel ship/invoice incidents : {}", par.count(&orders)?);
    // Sequential would miss the interleavings where invoicing finished first:
    let seq = Query::parse("(PickItems -> Ship) -> (CreateInvoice -> CollectPayment)")?;
    println!("strictly-sequenced incidents    : {}", seq.count(&orders)?);

    // ── Loans: the choice structure. ───────────────────────────────────
    let loans = simulate(
        &wlq::scenarios::loan::model(),
        &SimulationConfig::new(400, 7),
    );
    println!(
        "\n── loan origination ({} instances) ──",
        loans.num_instances()
    );
    let approved = Query::parse("(AutoApprove | Approve) -> Disburse")?;
    let rejected = Query::parse("Reject")?;
    let appealed = Query::parse("Reject -> Appeal -> ManualReview")?;
    println!(
        "approved & disbursed            : {} instances",
        approved.count_by_instance(&loans)?.len()
    );
    println!(
        "rejected at least once          : {} instances",
        rejected.count_by_instance(&loans)?.len()
    );
    println!(
        "appealed after rejection        : {} instances",
        appealed.count_by_instance(&loans)?.len()
    );

    // ── The planner at work. ───────────────────────────────────────────
    let pattern: Pattern = "(Submit -> Approve) | (Submit -> Reject)".parse()?;
    let plan = Planner::from_log(&loans).plan(&pattern);
    println!("\nplanner: {pattern}  ⇒  {}", plan.pattern());
    println!(
        "estimated cost {:.0} → {:.0} ({})",
        plan.original_cost(),
        plan.cost(),
        plan.rule()
    );

    // ── Incident-tree trace (the paper's Example 5 walkthrough). ──────
    let tree = IncidentTree::from_pattern(&"Submit -> (Reject -> Appeal)".parse()?);
    let (_, trace) = tree.evaluate_traced(&loans);
    println!("\nincident-tree evaluation trace:\n{trace}");
    Ok(())
}
