//! Pattern discovery: mine frequent behavioural relations from a log.
//!
//! The inverse of querying — instead of checking a pattern the analyst
//! wrote, propose patterns the log supports. [`mine_relations`] computes,
//! for every ordered activity pair, in how many instances the pair occurs
//! consecutively (`a ⊙ b`), sequentially (`a → b`), and in both orders
//! without sharing records (`a ⊕ b`), yielding ready-to-run [`Pattern`]s
//! ranked by instance support. This is the "directly-follows" style
//! analysis of process-mining tools, expressed in the paper's algebra.

use std::collections::BTreeMap;

use wlq_log::{Activity, ActivityId, IsLsn, Log};
use wlq_pattern::{Op, Pattern};

/// One mined relation with its support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedRelation {
    /// The relation as an incident pattern, ready to evaluate.
    pub pattern: Pattern,
    /// The relation's operator.
    pub op: Op,
    /// The two activities involved.
    pub activities: (Activity, Activity),
    /// Number of instances with at least one incident of the pattern.
    pub support: usize,
}

/// Mines all pairwise relations with instance support at least
/// `min_support`, sorted by descending support (ties broken by activity
/// names). `START`/`END` markers are excluded.
///
/// # Examples
///
/// ```
/// use wlq_engine::mine_relations;
/// use wlq_log::paper;
/// use wlq_pattern::Op;
///
/// let mined = mine_relations(&paper::figure3_log(), 2);
/// // GetRefer ~> CheckIn holds in both active referral instances.
/// assert!(mined.iter().any(|r| {
///     r.op == Op::Consecutive
///         && r.activities.0 == "GetRefer"
///         && r.activities.1 == "CheckIn"
///         && r.support >= 2
/// }));
/// ```
#[must_use]
pub fn mine_relations(log: &Log, min_support: usize) -> Vec<MinedRelation> {
    let index = log.index();
    // Every activity but the markers, with a cursor over its postings:
    // walked over the instances in ordinal (wid) order, each finds an
    // instance's postings in amortized constant time.
    let (activities, mut cursors): (Vec<&Activity>, Vec<_>) = (0u32..)
        .zip(index.activities())
        .filter(|(_, a)| !a.is_start() && !a.is_end())
        .map(|(id, a)| (a, index.postings_cursor(ActivityId(id))))
        .unzip();
    let mut postings: Vec<&[IsLsn]> = Vec::with_capacity(activities.len());

    // support[(a, b, op)] = number of instances where the relation holds.
    let mut support: BTreeMap<(Activity, Activity, Op), usize> = BTreeMap::new();
    for ordinal in 0..index.num_instances() {
        postings.clear();
        postings.extend(cursors.iter_mut().map(|c| c.seek(ordinal)));
        for (&a, &pa) in activities.iter().zip(&postings) {
            if pa.is_empty() {
                continue;
            }
            for (&b, &pb) in activities.iter().zip(&postings) {
                if pb.is_empty() {
                    continue;
                }
                let consecutive = pa.iter().any(|&x| {
                    x.checked_next()
                        .is_some_and(|n| pb.binary_search(&n).is_ok())
                });
                // ∃ x ∈ pa, y ∈ pb with x < y ⇔ min(pa) < max(pb);
                // pb is nonempty (checked above), so indexing is safe.
                let sequential = pa[0] < pb[pb.len() - 1];
                // Parallel: both executed with at least one record each,
                // sharing none — for distinct activities this just means
                // both occur; for a == b it needs two executions.
                let parallel = if a == b { pa.len() >= 2 } else { true };
                if consecutive {
                    *support
                        .entry((a.clone(), b.clone(), Op::Consecutive))
                        .or_insert(0) += 1;
                }
                if sequential {
                    *support
                        .entry((a.clone(), b.clone(), Op::Sequential))
                        .or_insert(0) += 1;
                }
                if parallel && a <= b {
                    *support
                        .entry((a.clone(), b.clone(), Op::Parallel))
                        .or_insert(0) += 1;
                }
            }
        }
    }

    let mut out: Vec<MinedRelation> = support
        .into_iter()
        .filter(|&(_, count)| count >= min_support)
        .map(|((a, b, op), count)| MinedRelation {
            pattern: Pattern::binary(op, Pattern::atom(a.as_str()), Pattern::atom(b.as_str())),
            op,
            activities: (a, b),
            support: count,
        })
        .collect();
    out.sort_by(|x, y| {
        y.support
            .cmp(&x.support)
            .then_with(|| x.activities.cmp(&y.activities))
            .then_with(|| x.op.cmp(&y.op))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;
    use wlq_log::paper;

    #[test]
    fn mined_relations_actually_hold() {
        // Every mined relation, evaluated as a query, must match in at
        // least `support` instances.
        let log = paper::figure3_log();
        for relation in mine_relations(&log, 1) {
            let q = Query::new(relation.pattern.clone());
            let matched = q.find(&log).unwrap().num_matched_instances();
            assert!(
                matched >= relation.support,
                "{} claims support {} but matches {}",
                relation.pattern,
                relation.support,
                matched
            );
        }
    }

    #[test]
    fn figure3_directly_follows_relations() {
        let log = paper::figure3_log();
        let mined = mine_relations(&log, 2);
        let find = |a: &str, b: &str, op: Op| {
            mined
                .iter()
                .find(|r| r.activities.0 == a && r.activities.1 == b && r.op == op)
                .map(|r| r.support)
        };
        // GetRefer ~> CheckIn in wid 1 and 2.
        assert_eq!(find("GetRefer", "CheckIn", Op::Consecutive), Some(2));
        // SeeDoctor ~> PayTreatment in wid 1 and 2.
        assert_eq!(find("SeeDoctor", "PayTreatment", Op::Consecutive), Some(2));
        // UpdateRefer only happens in one instance: below min_support 2.
        assert_eq!(find("UpdateRefer", "GetReimburse", Op::Sequential), None);
    }

    #[test]
    fn min_support_filters_and_ordering_is_descending() {
        let log = paper::figure3_log();
        let all = mine_relations(&log, 1);
        let frequent = mine_relations(&log, 3);
        assert!(frequent.len() < all.len());
        for pair in all.windows(2) {
            assert!(pair[0].support >= pair[1].support);
        }
        for r in &frequent {
            assert!(r.support >= 3);
        }
    }

    #[test]
    fn start_end_markers_are_not_mined() {
        let log = paper::figure3_log();
        for r in mine_relations(&log, 1) {
            assert_ne!(r.activities.0.as_str(), "START");
            assert_ne!(r.activities.1.as_str(), "END");
        }
    }

    #[test]
    fn self_parallel_requires_two_executions() {
        let log = paper::figure3_log();
        let mined = mine_relations(&log, 1);
        // SeeDoctor runs twice in wids 1 and 2 → self-parallel support 2.
        let self_par = mined
            .iter()
            .find(|r| {
                r.op == Op::Parallel
                    && r.activities.0 == "SeeDoctor"
                    && r.activities.1 == "SeeDoctor"
            })
            .unwrap();
        assert_eq!(self_par.support, 2);
        // UpdateRefer runs once: no self-parallel entry.
        assert!(!mined.iter().any(|r| r.op == Op::Parallel
            && r.activities.0 == "UpdateRefer"
            && r.activities.1 == "UpdateRefer"));
    }
}
