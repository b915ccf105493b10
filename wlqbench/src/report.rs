//! Metric names and units, the run result, and the per-layer metrics
//! derived from a traced run's spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{self, OpBreakdown, Span};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("records_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; see [`per_layer`] for
/// layers the workload never calls.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("log.read_ms", "ms"),
    ("log.decode_bin_ms", "ms"),
    ("log.decode_text_ms", "ms"),
    ("log.validate_ms", "ms"),
    ("log.drop_ms", "ms"),
    ("log.decode_allocs_per_record", "count"),
    ("log.heap_bytes_per_record", "B"),
    ("log.stats_ms", "ms"),
    ("log.index_build_ms", "ms"),
    ("planner.new_ms", "ms"),
    ("eval.evaluator_new_ms", "ms"),
    ("pattern.optimize_us", "us"),
    ("planner.plan_us", "us"),
    ("planner.root_q_error", "x"),
    ("eval.count_ms", "ms"),
    ("eval.exists_ms", "ms"),
    ("eval.list_ms", "ms"),
    ("eval.allocs_per_query", "count"),
    ("eval.incidents_per_s", "1/s"),
    ("eval.result_drop_ms", "ms"),
    ("counting.fast_count_ms", "ms"),
    ("counting.fast_count_allocs", "count"),
    ("parallel.list_2t_ms", "ms"),
    ("parallel.speedup_2t", "x"),
    ("streaming.append_ns_per_rule", "ns"),
    ("streaming.allocs_per_append", "count"),
    ("streaming.heap_bytes_per_record", "B"),
    ("render.ms", "ms"),
    ("trace.overhead_ratio", "x"),
    ("trace.unattributed_ms", "ms"),
];

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line: every metric of `table`, in order, with its unit.
    pub fn json(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Facts about a traced run that spans alone do not carry.
#[derive(Debug, Default)]
pub struct TraceFacts {
    /// Records of the log each decode span decoded.
    pub records: usize,
    /// `(root estimate, actual result size)` per planned query.
    pub q_errors: Vec<(f64, f64)>,
    /// Incidents counted or listed by the traced `eval.count` and
    /// `eval.list` spans.
    pub incidents: u64,
    /// Median untraced latency of a list query at 1 thread over the same
    /// query at 2 threads.
    pub speedup_2t: f64,
    /// Live heap the standing evaluators keep per replayed record.
    pub streaming_heap_per_record: f64,
    /// Mean latency of the same operations run untraced.
    pub untraced_op_ns: f64,
}

/// Mean `q`-error, as a geometric mean over planned queries: 1 is a
/// perfect estimate.
fn q_error(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = pairs
        .iter()
        .map(|&(est, act)| {
            let (e, a) = (est.max(1.0), act.max(1.0));
            (e / a).max(a / e).ln()
        })
        .sum();
    (log_sum / pairs.len() as f64).exp()
}

/// Fills in every per-layer metric from the spans of a traced run: the
/// workload's own, and the sweep's over the Figure 3 log. A per-call time
/// of a layer the workload never calls is taken from the sweep, so it is
/// still a measurement; counts and ratios come from the workload alone
/// and read 0 for a layer it never calls.
pub fn per_layer(result: &mut RunResult, spans: &[Span], sweep: &[Span], facts: &TraceFacts) {
    let by = trace::by_name(spans);
    let swept = trace::by_name(sweep);
    let get = |name: &str| by.get(name).copied().unwrap_or_default();
    let timed = |name: &str| match by.get(name) {
        Some(agg) if agg.calls > 0 => *agg,
        _ => swept.get(name).copied().unwrap_or_default(),
    };
    let ms = |name: &str| timed(name).mean_ms();

    result.set("log.read_ms", ms("log.read"));
    result.set("log.decode_bin_ms", ms("log.decode_bin"));
    result.set("log.decode_text_ms", ms("log.decode_text"));
    result.set("log.validate_ms", ms("log.validate"));
    result.set("log.drop_ms", ms("log.drop"));
    let (bin, text) = (get("log.decode_bin"), get("log.decode_text"));
    let decoded = ((bin.calls + text.calls) as f64 * facts.records as f64).max(1.0);
    result.set(
        "log.decode_allocs_per_record",
        (bin.allocs + text.allocs) as f64 / decoded,
    );
    result.set(
        "log.heap_bytes_per_record",
        (bin.bytes + text.bytes) as f64 / decoded,
    );
    result.set("log.stats_ms", ms("log.stats"));
    result.set("log.index_build_ms", ms("log.index_build"));
    result.set("planner.new_ms", ms("planner.new"));
    result.set("eval.evaluator_new_ms", ms("eval.new"));
    result.set(
        "pattern.optimize_us",
        timed("pattern.optimize").mean_ns() / 1e3,
    );
    result.set("planner.plan_us", timed("planner.plan").mean_ns() / 1e3);
    result.set("planner.root_q_error", q_error(&facts.q_errors));

    result.set("eval.count_ms", ms("eval.count"));
    result.set("eval.exists_ms", ms("eval.exists"));
    result.set("eval.list_ms", ms("eval.list"));
    let (count, exists, list) = (get("eval.count"), get("eval.exists"), get("eval.list"));
    let queries = (count.calls + exists.calls + list.calls).max(1) as f64;
    result.set(
        "eval.allocs_per_query",
        (count.allocs + exists.allocs + list.allocs) as f64 / queries,
    );
    let busy_s = (count.ns + list.ns) as f64 / 1e9;
    result.set(
        "eval.incidents_per_s",
        if busy_s > 0.0 {
            facts.incidents as f64 / busy_s
        } else {
            0.0
        },
    );
    result.set("eval.result_drop_ms", ms("eval.result_drop"));

    result.set("counting.fast_count_ms", ms("counting.fast_count"));
    result.set(
        "counting.fast_count_allocs",
        get("counting.fast_count").allocs_per_call(),
    );

    result.set("parallel.list_2t_ms", ms("parallel.list_2t"));
    result.set("parallel.speedup_2t", facts.speedup_2t);

    result.set(
        "streaming.append_ns_per_rule",
        timed("streaming.append").mean_ns(),
    );
    result.set(
        "streaming.allocs_per_append",
        get("streaming.append").allocs_per_call(),
    );
    result.set(
        "streaming.heap_bytes_per_record",
        facts.streaming_heap_per_record,
    );
    result.set("render.ms", ms("render"));

    let ops = OpBreakdown::of(spans);
    let traced_op_ns = ops.op_ns as f64 / ops.ops.max(1) as f64;
    result.set(
        "trace.overhead_ratio",
        if facts.untraced_op_ns > 0.0 {
            traced_op_ns / facts.untraced_op_ns
        } else {
            0.0
        },
    );
    result.set("trace.unattributed_ms", ops.unattributed_ms_per_op());

    result.note(format!(
        "traced ops: {} (mean {:.4} ms traced, {:.4} ms untraced)",
        ops.ops,
        traced_op_ns / 1e6,
        facts.untraced_op_ns / 1e6
    ));
    for line in ops.table().lines() {
        result.note(line.to_string());
    }
    for (name, agg) in &by {
        let mut line = String::new();
        let _ = write!(
            line,
            "span {name:<22} calls {:>8}  mean {:>12.4} ms  allocs/call {:>12.1}",
            agg.calls,
            agg.mean_ms(),
            agg.allocs_per_call()
        );
        result.note(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_is_symmetric_and_one_when_exact() {
        assert_eq!(q_error(&[(10.0, 10.0)]), 1.0);
        let a = q_error(&[(100.0, 10.0)]);
        let b = q_error(&[(10.0, 100.0)]);
        assert!((a - 10.0).abs() < 1e-9 && (b - 10.0).abs() < 1e-9);
    }

    #[test]
    fn json_lists_metrics_in_table_order() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.set("b", 2.5);
        r.set("a", 1.0);
        let line = r.json(&[("a", "ms"), ("b", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.0, \"unit\": \"ms\"}, \"b\": {\"value\": 2.5, \"unit\": \"s\"}}}"
        );
        assert!(r.json(&[("c", "ms")]).is_err());
    }
}
