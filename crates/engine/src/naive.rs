//! Algorithm 1 of the paper: nested-loop evaluation of the four operators.
//!
//! Each function combines the incident lists of two sub-patterns *within a
//! single workflow instance* (the paper makes the same single-`wid`
//! simplification in Section 3.1; the per-instance partition is applied a
//! level up by the tree evaluator).
//!
//! Complexities match Lemma 1: `O(n1·n2)` for consecutive and sequential,
//! `O(n1·n2·min(k1,k2))` for choice (as printed), `O(n1·n2·(k1+k2))` for
//! parallel. Outputs are sorted and deduplicated so that they denote
//! incident *sets*.

use wlq_pattern::Op;

use crate::incident::Incident;

/// Algorithm 1's operator for `op` over two incident lists of one
/// instance: the reference every other implementation is checked against.
#[must_use]
pub fn combine(op: Op, left: &[Incident], right: &[Incident]) -> Vec<Incident> {
    match op {
        Op::Consecutive => consecutive_eval(left, right),
        Op::Sequential => sequential_eval(left, right),
        Op::Choice => choice_eval(left, right),
        Op::Parallel => parallel_eval(left, right),
    }
}

/// `CONSECUTIVE-EVAL` (Algorithm 1, lines 1–6): all `o1 ∪ o2` with
/// `last(o1) + 1 = first(o2)`.
#[must_use]
pub fn consecutive_eval(inc1: &[Incident], inc2: &[Incident]) -> Vec<Incident> {
    let mut out = Vec::new();
    for o1 in inc1 {
        for o2 in inc2 {
            if o1.last().checked_next() == Some(o2.first()) {
                out.push(o1.union(o2));
            }
        }
    }
    finish(out)
}

/// `SEQUENTIAL-EVAL` (Algorithm 1, lines 7–12): all `o1 ∪ o2` with
/// `last(o1) < first(o2)`.
#[must_use]
pub fn sequential_eval(inc1: &[Incident], inc2: &[Incident]) -> Vec<Incident> {
    let mut out = Vec::new();
    for o1 in inc1 {
        for o2 in inc2 {
            if o1.last() < o2.first() {
                out.push(o1.union(o2));
            }
        }
    }
    finish(out)
}

/// `CHOICE-EVAL` with the semantics of Definition 4: the
/// duplicate-eliminating union of the two incident lists.
///
/// The paper's *printed* pseudo-code for choice instead pairs up incidents
/// and only emits those that find an equal partner, which loses incidents
/// unique to one side; the accompanying prose and Definition 4 describe a
/// union with duplicate elimination, which is what this function computes.
/// The printed variant is preserved as [`choice_eval_as_printed`] for the
/// Lemma 1 cost benchmark and for documentation of the erratum.
#[must_use]
pub fn choice_eval(inc1: &[Incident], inc2: &[Incident]) -> Vec<Incident> {
    let mut out = Vec::with_capacity(inc1.len() + inc2.len());
    out.extend_from_slice(inc1);
    out.extend_from_slice(inc2);
    finish(out)
}

/// A faithful transcription of the paper's printed `CHOICE-EVAL`
/// pseudo-code (Algorithm 1, lines 13–23): for every pair `(o1, o2)`,
/// compare element-wise and emit both when identical.
///
/// This computes `incL(p1) ∩ incL(p2)` rather than the union that
/// Definition 4 prescribes — see [`choice_eval`] for the corrected
/// operator. Exposed only to document and benchmark the erratum.
#[must_use]
pub fn choice_eval_as_printed(inc1: &[Incident], inc2: &[Incident]) -> Vec<Incident> {
    let mut out = Vec::new();
    for o1 in inc1 {
        for o2 in inc2 {
            if o1.len() == o2.len() && o1.positions() == o2.positions() {
                out.push(o1.clone());
                out.push(o2.clone());
            }
        }
    }
    finish(out)
}

/// `PARALLEL-EVAL` (Algorithm 1, lines 24–34): all `o1 ∪ o2` with
/// `o1 ∩ o2 = ∅`.
#[must_use]
pub fn parallel_eval(inc1: &[Incident], inc2: &[Incident]) -> Vec<Incident> {
    let mut out = Vec::new();
    for o1 in inc1 {
        for o2 in inc2 {
            if o1.is_disjoint(o2) {
                out.push(o1.union(o2));
            }
        }
    }
    finish(out)
}

/// Sorts by `(first, …)` and removes duplicate incidents, restoring the
/// ordered-set invariant the next operator up relies on.
fn finish(mut out: Vec<Incident>) -> Vec<Incident> {
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::{IsLsn, Wid};

    fn inc(ps: &[u32]) -> Incident {
        Incident::from_positions(Wid(1), ps.iter().map(|&p| IsLsn(p)).collect())
    }

    #[test]
    fn consecutive_requires_adjacency() {
        let left = vec![inc(&[2]), inc(&[4])];
        let right = vec![inc(&[3]), inc(&[9])];
        let out = consecutive_eval(&left, &right);
        assert_eq!(out, vec![inc(&[2, 3])]);
    }

    #[test]
    fn consecutive_uses_last_of_left_and_first_of_right() {
        let left = vec![inc(&[1, 4])];
        let right = vec![inc(&[5, 7])];
        assert_eq!(consecutive_eval(&left, &right), vec![inc(&[1, 4, 5, 7])]);
        // last = 4, so a right starting at 6 does not match.
        assert!(consecutive_eval(&left, &[inc(&[6])]).is_empty());
    }

    #[test]
    fn sequential_requires_strict_order_with_gap_allowed() {
        let left = vec![inc(&[2]), inc(&[5])];
        let right = vec![inc(&[4]), inc(&[6])];
        let out = sequential_eval(&left, &right);
        assert_eq!(out, vec![inc(&[2, 4]), inc(&[2, 6]), inc(&[5, 6])]);
    }

    #[test]
    fn sequential_rejects_overlap() {
        // last(o1)=5 is not < first(o2)=5.
        assert!(sequential_eval(&[inc(&[5])], &[inc(&[5])]).is_empty());
        assert!(sequential_eval(&[inc(&[2, 6])], &[inc(&[4])]).is_empty());
    }

    #[test]
    fn choice_is_duplicate_eliminating_union() {
        let left = vec![inc(&[1]), inc(&[2])];
        let right = vec![inc(&[2]), inc(&[3])];
        let out = choice_eval(&left, &right);
        assert_eq!(out, vec![inc(&[1]), inc(&[2]), inc(&[3])]);
    }

    #[test]
    fn printed_choice_is_an_intersection() {
        let left = vec![inc(&[1]), inc(&[2])];
        let right = vec![inc(&[2]), inc(&[3])];
        let out = choice_eval_as_printed(&left, &right);
        // Only the shared incident survives — the erratum.
        assert_eq!(out, vec![inc(&[2])]);
    }

    #[test]
    fn parallel_requires_disjointness() {
        let left = vec![inc(&[1, 3])];
        let right = vec![inc(&[2]), inc(&[3])];
        let out = parallel_eval(&left, &right);
        assert_eq!(out, vec![inc(&[1, 2, 3])]);
    }

    #[test]
    fn parallel_allows_interleaving_shuffles() {
        // ⊕ is a shuffle: right may start before left ends.
        let left = vec![inc(&[1, 4])];
        let right = vec![inc(&[2, 3])];
        assert_eq!(parallel_eval(&left, &right), vec![inc(&[1, 2, 3, 4])]);
    }

    #[test]
    fn outputs_are_sorted_and_deduped() {
        // Two different pairs producing the same union must collapse.
        let left = vec![inc(&[1]), inc(&[1, 2])];
        let right = vec![inc(&[2, 3]), inc(&[3])];
        let out = sequential_eval(&left, &right);
        assert_eq!(out, vec![inc(&[1, 2, 3]), inc(&[1, 3])]);
    }

    #[test]
    fn empty_inputs_produce_empty_outputs() {
        assert!(consecutive_eval(&[], &[inc(&[1])]).is_empty());
        assert!(sequential_eval(&[inc(&[1])], &[]).is_empty());
        assert!(parallel_eval(&[], &[]).is_empty());
        assert_eq!(choice_eval(&[], &[inc(&[1])]), vec![inc(&[1])]);
    }
}
