//! Runtime monitoring with the streaming evaluator.
//!
//! The paper frames log querying as analysis of "past and current"
//! executions. This example wires a [`StreamingEvaluator`] behind a live
//! workflow engine: records are appended one at a time and the monitor
//! raises an alert the moment an anomalous pattern *completes* — no
//! re-evaluation of the whole log per event.
//!
//! ```sh
//! cargo run -p wlq-core --example streaming_monitor
//! ```

use wlq::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = wlq::scenarios::clinic::model();
    let log = simulate(&model, &SimulationConfig::new(300, 2024));

    // Monitors: one per rule, fed record-by-record as if live.
    let mut monitors = vec![
        (
            "update-before-reimburse",
            StreamingEvaluator::new("UpdateRefer -> GetReimburse".parse()?),
        ),
        (
            "triple-doctor-visit",
            StreamingEvaluator::new("SeeDoctor -> SeeDoctor -> SeeDoctor".parse()?),
        ),
        (
            "instant-reimburse",
            StreamingEvaluator::new("CheckIn ~> GetReimburse".parse()?),
        ),
    ];

    let mut alerts = 0usize;
    for record in log.iter() {
        for (name, monitor) in &mut monitors {
            let fresh = monitor.append(record)?;
            for incident in fresh {
                alerts += 1;
                if alerts <= 10 {
                    println!(
                        "ALERT [{name}] at lsn {}: instance {} completed {incident}",
                        record.lsn(),
                        incident.wid(),
                    );
                }
            }
        }
    }
    if alerts > 10 {
        println!("… {} more alerts suppressed", alerts - 10);
    }

    // The streaming results coincide with batch evaluation of the final log.
    println!("\nconsistency check (streaming ≡ batch):");
    for (name, monitor) in &monitors {
        let batch = Query::new(monitor.pattern().clone()).find(&log)?;
        let ok = batch == monitor.incidents();
        println!(
            "  {name:<26} {} incidents, matches batch: {ok}",
            monitor.incidents().len()
        );
        assert!(ok);
    }
    Ok(())
}
