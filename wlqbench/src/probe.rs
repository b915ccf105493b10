//! Traced-only measurements of work the measured entry points do inside
//! themselves. Each runs in an excluded `trace.probe` span, apart from
//! the operation, so deleting one of these APIs deletes only its span.

use std::hint::black_box;

use wlq_engine::{fast_count, Evaluator, Planner};
use wlq_log::{Log, LogIndex, LogStats};
use wlq_pattern::Optimizer;

use crate::mix::{self, Expected, Kind, Q};
use crate::report::TraceFacts;
use crate::trace;

/// The rebuilds `Query` does on every call: statistics, index, planner
/// and, when `evaluator` is set, the evaluator. Returns the statistics and
/// planner for [`plan`].
pub fn rebuilds(log: &Log, evaluator: bool) -> (LogStats, Planner) {
    trace::excluded("trace.probe", || {
        let stats = trace::span("log.stats", || LogStats::compute(log));
        let index = trace::span("log.index_build", || LogIndex::build(log));
        let planner = trace::span("planner.new", || Planner::new(log, &index));
        if evaluator {
            drop(trace::span("eval.new", || Evaluator::new(log)));
        }
        (stats, planner)
    })
}

/// Pattern optimization, physical planning (with the root estimate's
/// q-error against the reference size) and, for chains the planner sends
/// to the counting DP, the DP itself. `Query` plans the optimized
/// pattern; a bare `Evaluator` plans the pattern as written.
pub fn plan(
    log: &Log,
    stats: &LogStats,
    planner: &Planner,
    q: &Q,
    via_query: bool,
    expected: &Expected,
    facts: &mut TraceFacts,
) -> Result<(), String> {
    trace::excluded("trace.probe", || {
        let pattern = mix::parse(q.src)?;
        let stats = stats.clone();
        let optimized = trace::span("pattern.optimize", || {
            Optimizer::new(stats).optimize(&pattern)
        });
        let planned = if via_query { &optimized } else { &pattern };
        let plan = trace::span("planner.plan", || planner.plan(planned));
        facts
            .q_errors
            .push((plan.root().estimate(), expected.incidents as f64));
        if q.kind != Kind::List && plan.is_counting_chain() {
            black_box(trace::span("counting.fast_count", || {
                fast_count(log, plan.pattern())
            }));
        }
        Ok(())
    })
}
