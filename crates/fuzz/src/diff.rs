//! Differential evaluation: run one `(log, pattern)` pair under every
//! strategy and report the first disagreement.

use std::fmt;

use wlq_engine::{fast_count, IncidentSet, IncidentTree, Query, Strategy, StreamingEvaluator};
use wlq_log::io::binary::{read_binary, write_binary};
use wlq_log::io::text::{read_text, write_text};
use wlq_log::Log;
use wlq_pattern::Pattern;

/// A cross-strategy disagreement on one `(log, pattern)` pair.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The strategy that disagreed with the naive reference.
    pub strategy: String,
    /// Incident count under the paper-faithful naive evaluation.
    pub expected: usize,
    /// Incident count (or error text) the diverging strategy produced.
    pub got: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} diverged: naive found {} incident(s), got {}",
            self.strategy, self.expected, self.got
        )
    }
}

fn against(reference: &IncidentSet, name: &str, got: &IncidentSet) -> Option<Divergence> {
    if got == reference {
        None
    } else {
        Some(Divergence {
            strategy: name.to_string(),
            expected: reference.len(),
            got: format!("{} incident(s)", got.len()),
        })
    }
}

/// An entry point that failed where the reference found `expected`
/// incidents.
fn failed(name: &str, expected: usize, e: impl fmt::Display) -> Divergence {
    Divergence {
        strategy: name.to_string(),
        expected,
        got: format!("error: {e}"),
    }
}

/// [`against`] for an entry point that may fail: an error diverges too.
fn found(
    reference: &IncidentSet,
    name: &str,
    got: Result<IncidentSet, impl fmt::Display>,
) -> Option<Divergence> {
    match got {
        Ok(set) => against(reference, name, &set),
        Err(e) => Some(failed(name, reference.len(), e)),
    }
}

/// A pattern with attribute conditions, run by `Query::find` on 1 and 4
/// threads over copies of `log` that went through the binary and the
/// text encoding. Their maps are decoded lazily, one activity's block on
/// the first read of any of its maps, so each run gets a fresh copy: on
/// 4 threads, workers race to read a block first.
fn check_decoded(log: &Log, pattern: &Pattern, reference: &IncidentSet) -> Option<Divergence> {
    if !pattern.has_predicates() {
        return None;
    }
    for threads in [1usize, 4] {
        let copies = [
            ("binary", read_binary(write_binary(log))),
            ("text", read_text(&write_text(log))),
        ];
        for (format, copy) in copies {
            let name = format!("Query::find on {threads} thread(s), {format} copy");
            let got = copy.map_err(|e| e.to_string()).and_then(|copy| {
                let query = Query::new(pattern.clone()).threads(threads);
                query.find(&copy).map_err(|e| e.to_string())
            });
            if let Some(d) = found(reference, &name, got) {
                return Some(d);
            }
        }
    }
    None
}

/// Evaluates `pattern` over `log` under every strategy and cross-checks
/// the results against the paper-faithful naive evaluation. Returns the
/// first divergence, or `None` when all strategies agree.
///
/// Oracles covered: `NaivePaper` (reference); the incident tree's
/// post-order evaluation (Algorithm 2 with Algorithm 1's operators);
/// `Planned` (the cost-based planner, `Query`'s default) through
/// `Query::{find, count, exists}` (they decide countability and plan on
/// the query as written), `Query::count` on 4 threads, and
/// `Query::find_first` for a limit of half the answer and one past all
/// of it (the reference's first incidents in set order); for a pattern
/// with attribute conditions, `Query::find` on 1 and 4 threads over the
/// log's binary and text round trips, whose maps decode lazily;
/// `Query::find` on 4 workers; a full streaming replay, checking each
/// append's delta (in the appended record's instance, ending at it,
/// disjoint from every earlier delta) and the deltas' union;
/// `Query::profile` under both strategies with 1 and 4 workers (the
/// profile probe must be strictly read-only); and — when the pattern is
/// in the countable fragment — the `fast_count` DP.
#[must_use]
pub fn check(log: &Log, pattern: &Pattern) -> Option<Divergence> {
    let naive = Query::new(pattern.clone()).strategy(Strategy::NaivePaper);
    let reference = match naive.find(log) {
        Ok(set) => set,
        Err(e) => return Some(failed("NaivePaper", 0, e)),
    };

    // Algorithm 2: the incident tree evaluated node by node over all
    // instances, the paper's other formulation of the same semantics.
    let tree = IncidentTree::from_pattern(pattern).evaluate(log);
    if let Some(d) = against(&reference, "tree", &tree) {
        return Some(d);
    }

    // The CLI's path: `Query` with default options. The planner picks an
    // arbitrary equivalent rewrite, and count/exists take the counting DP
    // for the countable fragment — check all three entry points.
    let query = Query::new(pattern.clone());
    if let Some(d) = found(&reference, "Query::find", query.find(log)) {
        return Some(d);
    }
    match query.count(log) {
        Ok(n) if n == reference.len() => {}
        got => {
            return Some(Divergence {
                strategy: "Query::count".to_string(),
                expected: reference.len(),
                got: format!("{got:?} (count only)"),
            });
        }
    }
    match query.exists(log) {
        Ok(found) if found != reference.is_empty() => {}
        got => {
            return Some(Divergence {
                strategy: "Query::exists".to_string(),
                expected: reference.len(),
                got: format!("exists = {got:?}"),
            });
        }
    }
    match query.clone().threads(4).count(log) {
        Ok(n) if n == reference.len() => {}
        got => {
            return Some(Divergence {
                strategy: "Query::threads(4).count".to_string(),
                expected: reference.len(),
                got: format!("{got:?} (count only)"),
            });
        }
    }
    let n = reference.len();
    for limit in [n.div_ceil(2), n + 1] {
        let first: IncidentSet = reference
            .iter()
            .take(limit)
            .map(|o| o.to_incident())
            .collect();
        let name = format!("Query::find_first({limit})");
        if let Some(d) = found(&first, &name, query.find_first(log, limit)) {
            return Some(d);
        }
    }

    if let Some(d) = check_decoded(log, pattern, &reference) {
        return Some(d);
    }

    let parallel = query.clone().threads(4).find(log);
    if let Some(d) = found(&reference, "Query::threads(4).find", parallel) {
        return Some(d);
    }

    // Streaming: every append's delta lies in the appended record's
    // instance and ends at it, deltas are pairwise disjoint, and both
    // their union and the accumulated set equal the reference.
    let mut stream = StreamingEvaluator::new(pattern.clone());
    let mut deltas = IncidentSet::new();
    for record in log.iter() {
        let delta = match stream.append(record) {
            Ok(delta) => delta,
            Err(e) => {
                return Some(Divergence {
                    strategy: "streaming-replay".to_string(),
                    expected: reference.len(),
                    got: format!("rejected valid record at lsn {}: {e}", record.lsn()),
                });
            }
        };
        for incident in delta {
            let fault = if incident.wid() != record.wid() || incident.last() != record.is_lsn() {
                Some("does not end at")
            } else if deltas.contains(&incident) {
                Some("repeats an earlier delta at")
            } else {
                None
            };
            if let Some(why) = fault {
                return Some(Divergence {
                    strategy: "streaming-delta".to_string(),
                    expected: reference.len(),
                    got: format!("delta {incident} {why} the append of lsn {}", record.lsn()),
                });
            }
            deltas.insert(incident);
        }
    }
    if let Some(d) = against(&reference, "streaming-delta-union", &deltas) {
        return Some(d);
    }
    if let Some(d) = against(&reference, "streaming-replay", &stream.incidents()) {
        return Some(d);
    }

    // Profiled execution runs the same executor with a metrics probe; it
    // must return the same incident set, with counters consistent with it.
    for strategy in [Strategy::NaivePaper, Strategy::Planned] {
        for threads in [1usize, 4] {
            let name = format!("profiled({threads}, {strategy:?})");
            let q = Query::new(pattern.clone()).strategy(strategy);
            let (set, profile) = match q.threads(threads).profile(log) {
                Ok(run) => run,
                Err(e) => return Some(failed(&name, reference.len(), e)),
            };
            if let Some(d) = against(&reference, &name, &set) {
                return Some(d);
            }
            let root_emitted = profile
                .nodes
                .first()
                .map_or(0, |n| n.metrics.incidents_emitted);
            if profile.total_incidents != reference.len() as u64
                || root_emitted != reference.len() as u64
            {
                return Some(Divergence {
                    strategy: name,
                    expected: reference.len(),
                    got: format!(
                        "profile counters: total {}, root emitted {root_emitted}",
                        profile.total_incidents
                    ),
                });
            }
        }
    }

    if let Some(count) = fast_count(log, pattern) {
        if count != reference.len() {
            return Some(Divergence {
                strategy: "fast_count".to_string(),
                expected: reference.len(),
                got: format!("{count} (count only)"),
            });
        }
    }

    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn figure3_battery_has_no_divergence() {
        let log = wlq_log::paper::figure3_log();
        for src in [
            "SeeDoctor",
            "UpdateRefer -> GetReimburse",
            "GetRefer ~> CheckIn",
            "!SeeDoctor ~> PayTreatment",
            "(SeeDoctor & PayTreatment) | UpdateRefer",
            "START ~> GetRefer",
            "!GetRefer ~> END",
            "(SeeDoctor | CheckIn) -> !PayTreatment",
            "SeeDoctor & PayTreatment",
            "SeeDoctor & SeeDoctor",
        ] {
            let p: Pattern = src.parse().unwrap();
            assert!(check(&log, &p).is_none(), "diverged on {src}");
        }
    }

    #[test]
    fn random_smoke_runs_clean() {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        for _ in 0..25 {
            let log = crate::gen::random_log(&mut rng);
            let p = crate::gen::random_pattern_for(&mut rng, &log);
            assert!(check(&log, &p).is_none(), "diverged on {p} over {log}");
            let p = crate::gen::with_predicates(&mut rng, &p);
            assert!(check(&log, &p).is_none(), "diverged on {p} over {log}");
        }
    }
}
