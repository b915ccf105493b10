//! Zero-copy operator kernels over [`IncidentBatch`]es.
//!
//! Each kernel implements one operator of Definition 4 directly on the
//! flat layout of [`crate::batch`], with two structural wins over the
//! classic `Vec<Incident>` operators:
//!
//! - **unions are bump-appends**: the `⊙`/`→` join conditions imply every
//!   right-operand position exceeds every left-operand position, so a
//!   union is `push_concat` — two slice copies into the shared pool, no
//!   per-incident allocation and no element-wise merge;
//! - **output order comes from input order**: scanning a first-sorted
//!   left input and emitting unions that keep the left operand's `first`
//!   yields output already sorted by `first`, so the blanket re-sort of
//!   the classic operators shrinks to a per-equal-`first`-run fixup
//!   ([`IncidentBatch::finish_runs`]); `⊗` is a plain sorted merge
//!   needing no fixup at all, and only `⊕` still pays a full sort.
//!
//! Each operator has exactly one kernel, reached through
//! [`combine_batch_into`]: the planned executor and the streaming
//! evaluator both call it, and the planner prices each operator node by
//! its kernel's cost alone. All kernels produce exactly the incident sets
//! of [`crate::naive`] (property-tested in `tests/batch_equiv.rs`).

use std::cell::RefCell;

use wlq_pattern::Op;

use crate::batch::{IncidentBatch, IncidentRef};

fn check_operands(left: &IncidentBatch, right: &IncidentBatch, out: &IncidentBatch) {
    debug_assert_eq!(left.wid(), right.wid(), "operands from different instances");
    debug_assert_eq!(
        left.wid(),
        out.wid(),
        "output batch bound to another instance"
    );
    left.debug_check_invariants();
    right.debug_check_invariants();
}

/// Whether every left ref has a strictly distinct `first`.
///
/// When this holds, the `⊙`/`→` kernel output is fully sorted and
/// duplicate-free *by construction*, and the `finish_runs` fixup can be
/// skipped entirely: each output keeps its left operand's `first`, so
/// outputs from different lefts are strictly ordered by that key, and
/// outputs from one left share an identical prefix (the left's slice) and
/// differ only in their right suffix — which is appended in the right
/// batch's strictly ascending `(first, lex)` order.
fn distinct_firsts(refs: &[IncidentRef]) -> bool {
    refs.windows(2).all(|w| w[0].first() < w[1].first())
}

thread_local! {
    /// The `→` kernel's suffix position sums, reused across calls.
    static SUFFIX: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Fills `sums` with the suffix position sums over `refs`: `sums[i]` =
/// total positions held by `refs[i..]`. Lets the `→` kernel compute its
/// exact output size (and reserve pool space once) before emitting
/// anything.
fn position_suffix_sums(refs: &[IncidentRef], sums: &mut Vec<usize>) {
    sums.clear();
    sums.resize(refs.len() + 1, 0);
    for i in (0..refs.len()).rev() {
        sums[i] = sums[i + 1] + refs[i].len();
    }
}

/// Dispatches one operator to its batch kernel, writing into a fresh
/// batch.
#[must_use]
pub fn combine_batch(op: Op, left: &IncidentBatch, right: &IncidentBatch) -> IncidentBatch {
    let mut out = IncidentBatch::new(left.wid());
    combine_batch_into(op, left, right, &mut out);
    out
}

/// Dispatches one operator to its batch kernel, reusing `out`'s
/// allocations (cleared first).
pub fn combine_batch_into(
    op: Op,
    left: &IncidentBatch,
    right: &IncidentBatch,
    out: &mut IncidentBatch,
) {
    out.reset(left.wid());
    match op {
        Op::Consecutive => consecutive_kernel(left, right, out),
        Op::Sequential => sequential_kernel(left, right, out),
        Op::Choice => choice_kernel(left, right, out),
        Op::Parallel => parallel_kernel(left, right, out),
    }
}

/// `⊙` (consecutive): unions of pairs with `first(o2) = last(o1) + 1`.
///
/// The right refs are sorted by `first`, so each left incident's partners
/// are one contiguous run found by binary search on the cached keys — the
/// pool is touched only to copy the union out, and not at all for a
/// singleton partner, whose one position is its key.
pub fn consecutive_kernel(left: &IncidentBatch, right: &IncidentBatch, out: &mut IncidentBatch) {
    check_operands(left, right, out);
    let rrefs = right.refs();
    for lref in left.refs() {
        // An incident ending at `u32::MAX` has no consecutive partner.
        let Some(probe) = lref.last().checked_next() else {
            continue;
        };
        let start = rrefs.partition_point(|r| r.first() < probe);
        let lpos = left.positions(lref);
        for rref in rrefs[start..].iter().take_while(|r| r.first() == probe) {
            if rref.len() == 1 {
                out.push_concat_one(lpos, probe);
            } else {
                out.push_concat(lpos, right.positions(rref));
            }
        }
    }
    if distinct_firsts(left.refs()) {
        out.debug_check_invariants();
    } else {
        out.finish_runs();
    }
}

/// `→` (sequential): unions of pairs with `first(o2) > last(o1)`.
///
/// Partners are the suffix of the first-sorted right refs past a single
/// `partition_point`. The kernel runs in two passes, each finding every
/// left's partner start: the first accumulates the exact output size, so
/// the output pool and refs are reserved in one shot (a wide `→` join
/// emits `Θ(n1·n2)` positions — growing the pool incrementally re-copies
/// it `O(log)` times, which dominated the sort it was meant to save); the
/// second emits every union as a concat. When every right ref is a
/// singleton, a suffix's positions are its length and each union is the
/// left slice and one position; otherwise they come from
/// suffix sums in a per-thread buffer reused across calls, so the kernel
/// makes no heap call beyond its output's. When left `first`s are
/// strictly distinct the output is sorted and deduplicated by
/// construction and the `finish_runs` fixup is skipped.
pub fn sequential_kernel(left: &IncidentBatch, right: &IncidentBatch, out: &mut IncidentBatch) {
    check_operands(left, right, out);
    let (lrefs, rrefs) = (left.refs(), right.refs());
    if lrefs.is_empty() || rrefs.is_empty() {
        return;
    }
    let start = |lref: &IncidentRef| rrefs.partition_point(|r| r.first() <= lref.last());
    let singletons = rrefs.iter().all(|r| r.len() == 1);
    let (mut total_refs, mut total_positions) = (0usize, 0usize);
    SUFFIX.with_borrow_mut(|suffix| {
        if !singletons {
            position_suffix_sums(rrefs, suffix);
        }
        for lref in lrefs {
            let start = start(lref);
            let partners = rrefs.len() - start;
            let tail = if singletons {
                partners
            } else {
                suffix.get(start).copied().unwrap_or_default()
            };
            total_refs += partners;
            total_positions += partners * lref.len() + tail;
        }
    });
    out.reserve(total_refs, total_positions);
    for lref in lrefs {
        let lpos = left.positions(lref);
        let partners = &rrefs[start(lref)..];
        if singletons {
            for rref in partners {
                out.push_concat_one(lpos, rref.first());
            }
        } else {
            for rref in partners {
                out.push_concat(lpos, right.positions(rref));
            }
        }
    }
    if distinct_firsts(lrefs) {
        out.debug_check_invariants();
    } else {
        out.finish_runs();
    }
}

/// `⊗` (choice): the union of both incident lists.
///
/// Both inputs are sorted, so this is a linear two-pointer merge over the
/// refs; the output is fully sorted and deduplicated by construction.
pub fn choice_kernel(left: &IncidentBatch, right: &IncidentBatch, out: &mut IncidentBatch) {
    check_operands(left, right, out);
    let (lrefs, rrefs) = (left.refs(), right.refs());
    let (mut i, mut j) = (0, 0);
    while i < lrefs.len() && j < rrefs.len() {
        match left.cmp_across(&lrefs[i], right, &rrefs[j]) {
            std::cmp::Ordering::Less => {
                out.push_sorted_positions(left.positions(&lrefs[i]));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push_sorted_positions(right.positions(&rrefs[j]));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push_sorted_positions(left.positions(&lrefs[i]));
                i += 1;
                j += 1;
            }
        }
    }
    for lref in &lrefs[i..] {
        out.push_sorted_positions(left.positions(lref));
    }
    for rref in &rrefs[j..] {
        out.push_sorted_positions(right.positions(rref));
    }
    out.debug_check_invariants();
}

/// `⊕` (parallel): unions of record-disjoint pairs.
///
/// Non-overlapping ranges (the common case) take the concat fast path on
/// the cached endpoints alone; interleaved ranges run a fused
/// disjointness-check-and-merge that speculatively appends into the pool
/// and rolls back to its mark on the first shared position. Unions here
/// may take `first` from either operand, so this is the one kernel that
/// still needs a full output sort.
pub fn parallel_kernel(left: &IncidentBatch, right: &IncidentBatch, out: &mut IncidentBatch) {
    check_operands(left, right, out);
    for lref in left.refs() {
        let lpos = left.positions(lref);
        'pairs: for rref in right.refs() {
            if lref.last() < rref.first() {
                out.push_concat(lpos, right.positions(rref));
                continue;
            }
            if rref.last() < lref.first() {
                out.push_concat(right.positions(rref), lpos);
                continue;
            }
            let rpos = right.positions(rref);
            let mark = out.pool_mark();
            let (mut a, mut b) = (0, 0);
            while a < lpos.len() && b < rpos.len() {
                match lpos[a].cmp(&rpos[b]) {
                    std::cmp::Ordering::Less => {
                        out.push_position(lpos[a]);
                        a += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        out.push_position(rpos[b]);
                        b += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        // Shared record: the pair is not parallel.
                        out.truncate_pool(mark);
                        continue 'pairs;
                    }
                }
            }
            for &p in &lpos[a..] {
                out.push_position(p);
            }
            for &p in &rpos[b..] {
                out.push_position(p);
            }
            out.commit_ref(mark);
        }
    }
    out.finish_full();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incident::Incident;
    use crate::naive;
    use wlq_log::{IsLsn, Wid};

    const WID: Wid = Wid(7);

    fn incident(ps: &[u32]) -> Incident {
        Incident::from_positions(WID, ps.iter().map(|&p| IsLsn(p)).collect())
    }

    fn fixture_a() -> Vec<Incident> {
        vec![
            incident(&[1]),
            incident(&[1, 2]),
            incident(&[3]),
            incident(&[4, 6]),
        ]
    }

    fn fixture_b() -> Vec<Incident> {
        vec![
            incident(&[2]),
            incident(&[3, 5]),
            incident(&[4]),
            incident(&[7]),
        ]
    }

    fn run(op: Op, left: &[Incident], right: &[Incident]) -> Vec<Incident> {
        let lb = IncidentBatch::from_incidents(WID, left);
        let rb = IncidentBatch::from_incidents(WID, right);
        combine_batch(op, &lb, &rb).into_incidents()
    }

    #[test]
    fn an_incident_ending_at_the_last_is_lsn_has_no_consecutive_partner() {
        let last = u32::MAX;
        let left = vec![incident(&[1, last]), incident(&[last - 1])];
        let right = vec![
            incident(&[2]),
            incident(&[last - 1, last]),
            incident(&[last]),
        ];
        let reference = naive::consecutive_eval(&left, &right);
        assert_eq!(reference, vec![incident(&[last - 1, last])]);
        assert_eq!(run(Op::Consecutive, &left, &right), reference);
    }

    #[test]
    fn kernels_match_reference_operators_on_fixtures() {
        let (a, b) = (fixture_a(), fixture_b());
        for (xs, ys) in [(&a, &b), (&b, &a), (&a, &a), (&b, &b)] {
            for op in [Op::Consecutive, Op::Sequential, Op::Choice, Op::Parallel] {
                assert_eq!(run(op, xs, ys), naive::combine(op, xs, ys), "{op:?}");
            }
        }
    }

    #[test]
    fn empty_sides_behave_like_reference() {
        let a = fixture_a();
        let empty: Vec<Incident> = Vec::new();
        for op in [Op::Consecutive, Op::Sequential, Op::Choice, Op::Parallel] {
            assert_eq!(run(op, &a, &empty), naive::combine(op, &a, &empty));
            assert_eq!(run(op, &empty, &a), naive::combine(op, &empty, &a));
            assert_eq!(run(op, &empty, &empty), Vec::new());
        }
    }

    #[test]
    fn sequential_binary_search_boundary() {
        // o1.last() equal to some firsts: strict inequality must hold.
        let left = vec![incident(&[3])];
        let right = vec![incident(&[3]), incident(&[3, 9]), incident(&[4])];
        let out = run(Op::Sequential, &left, &right);
        assert_eq!(out, vec![incident(&[3, 4])]);
        assert_eq!(out, naive::sequential_eval(&left, &right));
    }

    #[test]
    fn sequential_output_needs_no_global_sort() {
        // Two left incidents share first=1 (via different shapes) so the
        // run fixup is exercised; the kernel output must still be the
        // reference's sorted set.
        let left = vec![incident(&[1]), incident(&[1, 3])];
        let right = vec![incident(&[2]), incident(&[4]), incident(&[5])];
        assert_eq!(
            run(Op::Sequential, &left, &right),
            naive::sequential_eval(&left, &right)
        );
    }

    /// `op` over `left` and `right` as a root join's answer: the kernel's
    /// batch moved into an [`IncidentSet`](crate::IncidentSet), as the
    /// executor does.
    fn root_set(op: Op, left: &[Incident], right: &[Incident]) -> crate::IncidentSet {
        let lb = IncidentBatch::from_incidents(WID, left);
        let rb = IncidentBatch::from_incidents(WID, right);
        let mut set = crate::IncidentSet::new();
        set.push(combine_batch(op, &lb, &rb), &mut crate::BatchArena::new());
        set
    }

    #[test]
    fn root_batch_lists_the_kernel_output_in_set_order() {
        // Strictly distinct left firsts: the root's batch, kept as the
        // answer, holds exactly the kernel's incidents in set order.
        let left = vec![incident(&[1]), incident(&[2, 3]), incident(&[5])];
        let right = fixture_b();
        for op in [Op::Consecutive, Op::Sequential] {
            let listed: Vec<Incident> = (root_set(op, &left, &right).iter())
                .map(|o| o.to_incident())
                .collect();
            assert_eq!(listed, run(op, &left, &right), "{op:?}");
        }
    }

    #[test]
    fn root_batch_with_pool_slack_equals_the_reference_set() {
        // fixture_a repeats first=1, so the root's output needs the run
        // fixup and its pool keeps positions of dropped duplicates; `⊗`
        // and `⊕` have no concat form. The answer must still equal the
        // reference's incidents built from lists.
        let (a, b) = (fixture_a(), fixture_b());
        for op in [Op::Consecutive, Op::Sequential, Op::Choice, Op::Parallel] {
            for (xs, ys) in [(&a, &b), (&a, &a)] {
                let reference =
                    crate::IncidentSet::from_partitions([(WID, naive::combine(op, xs, ys))]);
                assert_eq!(root_set(op, xs, ys), reference, "{op:?}");
            }
        }
    }

    #[test]
    fn parallel_rolls_back_overlapping_pairs() {
        // [1,4] vs [4] overlaps (skipped); [1,4] vs [2,6] interleaves
        // (fused merge); [3] vs [4] concats.
        let left = vec![incident(&[1, 4]), incident(&[3])];
        let right = vec![incident(&[2, 6]), incident(&[4])];
        assert_eq!(
            run(Op::Parallel, &left, &right),
            naive::parallel_eval(&left, &right)
        );
    }
}
