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
//! Beyond the four logical kernels, two alternative *physical* operators
//! exist for the planner to choose from: [`sequential_sort_merge_kernel`]
//! replaces the per-left binary search of the `→` kernel with a single
//! monotone cursor when the left refs arrive ordered by `last`, and
//! [`nested_loop_kernel`] is the paper's Algorithm 1 join for inputs too
//! small to amortise any setup.
//!
//! All kernels produce exactly the incident sets of [`crate::naive`]
//! (property-tested in `tests/batch_equiv.rs`).

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

/// Suffix position sums over `refs`: `out[i]` = total positions held by
/// `refs[i..]`. Lets the `→` kernels compute their exact output size (and
/// reserve pool space once) before emitting anything.
fn position_suffix_sums(refs: &[IncidentRef]) -> Vec<usize> {
    let mut sums = vec![0usize; refs.len() + 1];
    for i in (0..refs.len()).rev() {
        sums[i] = sums[i + 1] + refs[i].len();
    }
    sums
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
/// pool is touched only to copy the union out.
pub fn consecutive_kernel(left: &IncidentBatch, right: &IncidentBatch, out: &mut IncidentBatch) {
    check_operands(left, right, out);
    let rrefs = right.refs();
    for lref in left.refs() {
        // An incident ending at `u32::MAX` has no consecutive partner.
        let Some(probe) = lref.last().checked_next() else {
            continue;
        };
        let start = rrefs.partition_point(|r| r.first() < probe);
        for rref in rrefs[start..].iter().take_while(|r| r.first() == probe) {
            out.push_concat(left.positions(lref), right.positions(rref));
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
/// `partition_point`. The kernel runs in two passes: the first finds each
/// left's partner start and accumulates the exact output size, so the
/// output pool and refs are reserved in one shot (a wide `→` join emits
/// `Θ(n1·n2)` positions — growing the pool incrementally re-copies it
/// `O(log)` times, which dominated the sort it was meant to save); the
/// second emits every union as a concat. When left `first`s are strictly
/// distinct the output is sorted and deduplicated by construction and the
/// `finish_runs` fixup is skipped.
pub fn sequential_kernel(left: &IncidentBatch, right: &IncidentBatch, out: &mut IncidentBatch) {
    check_operands(left, right, out);
    let (lrefs, rrefs) = (left.refs(), right.refs());
    if lrefs.is_empty() || rrefs.is_empty() {
        return;
    }
    let suffix = position_suffix_sums(rrefs);
    let mut starts = Vec::with_capacity(lrefs.len());
    let (mut total_refs, mut total_positions) = (0usize, 0usize);
    for lref in lrefs {
        let last = lref.last();
        let start = rrefs.partition_point(|r| r.first() <= last);
        let partners = rrefs.len() - start;
        total_refs += partners;
        total_positions += partners * lref.len() + suffix[start];
        starts.push(start);
    }
    out.reserve(total_refs, total_positions);
    for (lref, &start) in lrefs.iter().zip(&starts) {
        let lpos = left.positions(lref);
        for rref in &rrefs[start..] {
            out.push_concat(lpos, right.positions(rref));
        }
    }
    if distinct_firsts(lrefs) {
        out.debug_check_invariants();
    } else {
        out.finish_runs();
    }
}

/// `→` (sequential) as a sort-merge join: exploits per-`wid` span
/// ordering to replace the per-left binary search with one forward
/// cursor.
///
/// When the left refs are non-decreasing in their cached `last` (always
/// true when every left incident is width 1, e.g. a leaf operand — then
/// `last == first` and the batch sort order makes them ascending), the
/// partner-suffix start index is monotone across lefts, so a single
/// cursor sweeps the right refs once: `O(n1 + n2 + |out|)` instead of
/// `O(n1·log n2 + |out|)`. The sizing pass walks the cursor once and the
/// emitting pass walks it again, so the kernel needs no scratch memory:
/// the positions held by the partner suffix shrink as the cursor moves.
/// Falls back to [`sequential_kernel`] when the precondition does not
/// hold, so it is correct on any input.
pub fn sequential_sort_merge_kernel(
    left: &IncidentBatch,
    right: &IncidentBatch,
    out: &mut IncidentBatch,
) {
    check_operands(left, right, out);
    let (lrefs, rrefs) = (left.refs(), right.refs());
    if lrefs.is_empty() || rrefs.is_empty() {
        return;
    }
    if !lrefs.windows(2).all(|w| w[0].last() <= w[1].last()) {
        sequential_kernel(left, right, out);
        return;
    }
    let mut suffix: usize = rrefs.iter().map(IncidentRef::len).sum();
    let (mut cursor, mut total_refs, mut total_positions) = (0usize, 0usize, 0usize);
    for lref in lrefs {
        while let Some(r) = rrefs.get(cursor).filter(|r| r.first() <= lref.last()) {
            suffix -= r.len();
            cursor += 1;
        }
        let partners = rrefs.len() - cursor;
        total_refs += partners;
        total_positions += partners * lref.len() + suffix;
    }
    out.reserve(total_refs, total_positions);
    let mut cursor = 0usize;
    for lref in lrefs {
        while rrefs.get(cursor).is_some_and(|r| r.first() <= lref.last()) {
            cursor += 1;
        }
        let lpos = left.positions(lref);
        for rref in &rrefs[cursor..] {
            out.push_concat(lpos, right.positions(rref));
        }
    }
    if distinct_firsts(lrefs) {
        out.debug_check_invariants();
    } else {
        out.finish_runs();
    }
}

/// The paper's Algorithm 1 nested-loop join as a physical operator over
/// batches: every `(left, right)` pair is tested against the operator's
/// join condition, `O(n1·n2)` probes regardless of output size. The
/// planner picks this when inputs are tiny enough that the batch kernels'
/// setup (binary searches, suffix sums) costs more than brute force. `⊗`
/// and `⊕` have no cheaper-on-tiny-inputs variant and delegate to their
/// kernels.
pub fn nested_loop_kernel(
    op: Op,
    left: &IncidentBatch,
    right: &IncidentBatch,
    out: &mut IncidentBatch,
) {
    check_operands(left, right, out);
    match op {
        Op::Consecutive => {
            for lref in left.refs() {
                let probe = lref.last().checked_next();
                for rref in right.refs() {
                    if Some(rref.first()) == probe {
                        out.push_concat(left.positions(lref), right.positions(rref));
                    }
                }
            }
        }
        Op::Sequential => {
            for lref in left.refs() {
                let last = lref.last();
                for rref in right.refs() {
                    if rref.first() > last {
                        out.push_concat(left.positions(lref), right.positions(rref));
                    }
                }
            }
        }
        Op::Choice => return choice_kernel(left, right, out),
        Op::Parallel => return parallel_kernel(left, right, out),
    }
    // Rights are scanned in sorted order, so the emission order matches
    // the batch kernels' and the same finish logic applies.
    if distinct_firsts(left.refs()) {
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
    use crate::{naive, optimized};
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
        let (lb, rb) = (
            IncidentBatch::from_incidents(WID, &left),
            IncidentBatch::from_incidents(WID, &right),
        );
        let mut out = IncidentBatch::new(WID);
        nested_loop_kernel(Op::Consecutive, &lb, &rb, &mut out);
        assert_eq!(out.into_incidents(), reference);
    }

    #[test]
    fn kernels_match_reference_operators_on_fixtures() {
        let (a, b) = (fixture_a(), fixture_b());
        for (xs, ys) in [(&a, &b), (&b, &a), (&a, &a), (&b, &b)] {
            assert_eq!(
                run(Op::Consecutive, xs, ys),
                naive::consecutive_eval(xs, ys)
            );
            assert_eq!(run(Op::Sequential, xs, ys), naive::sequential_eval(xs, ys));
            assert_eq!(run(Op::Choice, xs, ys), naive::choice_eval(xs, ys));
            assert_eq!(run(Op::Parallel, xs, ys), naive::parallel_eval(xs, ys));
        }
    }

    /// The alternative physical operators the planner may pick for a join
    /// (nested loop for every operator, sort-merge for `;`) agree with the
    /// optimized operators, the default kernels the planned path runs.
    #[test]
    fn kernels_match_optimized_operators_on_fixtures() {
        let (a, b) = (fixture_a(), fixture_b());
        for (xs, ys) in [(&a, &b), (&b, &a), (&a, &a)] {
            assert_eq!(
                run_nested(Op::Consecutive, xs, ys),
                optimized::consecutive_eval(xs, ys)
            );
            assert_eq!(
                run_nested(Op::Sequential, xs, ys),
                optimized::sequential_eval(xs, ys)
            );
            assert_eq!(run_sort_merge(xs, ys), optimized::sequential_eval(xs, ys));
            assert_eq!(
                run_nested(Op::Choice, xs, ys),
                optimized::choice_eval(xs, ys)
            );
            assert_eq!(
                run_nested(Op::Parallel, xs, ys),
                optimized::parallel_eval(xs, ys)
            );
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

    fn run_sort_merge(left: &[Incident], right: &[Incident]) -> Vec<Incident> {
        let lb = IncidentBatch::from_incidents(WID, left);
        let rb = IncidentBatch::from_incidents(WID, right);
        let mut out = IncidentBatch::new(WID);
        sequential_sort_merge_kernel(&lb, &rb, &mut out);
        out.into_incidents()
    }

    fn run_nested(op: Op, left: &[Incident], right: &[Incident]) -> Vec<Incident> {
        let lb = IncidentBatch::from_incidents(WID, left);
        let rb = IncidentBatch::from_incidents(WID, right);
        let mut out = IncidentBatch::new(WID);
        nested_loop_kernel(op, &lb, &rb, &mut out);
        out.into_incidents()
    }

    #[test]
    fn sort_merge_matches_reference_on_fixtures() {
        let (a, b) = (fixture_a(), fixture_b());
        let empty: Vec<Incident> = Vec::new();
        for (xs, ys) in [(&a, &b), (&b, &a), (&a, &a), (&a, &empty), (&empty, &b)] {
            assert_eq!(run_sort_merge(xs, ys), naive::sequential_eval(xs, ys));
        }
    }

    #[test]
    fn sort_merge_falls_back_when_lasts_are_not_monotone() {
        // lasts 9 then 2: the monotone-cursor precondition fails and the
        // kernel must detour through the binary-search path.
        let left = vec![incident(&[1, 9]), incident(&[2])];
        let right = vec![incident(&[3]), incident(&[5]), incident(&[10])];
        assert_eq!(
            run_sort_merge(&left, &right),
            naive::sequential_eval(&left, &right)
        );
    }

    #[test]
    fn sort_merge_handles_shared_firsts() {
        // Lefts share first=1 (run fixup required) while lasts stay
        // monotone, so the cursor path runs and still must finish runs.
        let left = vec![incident(&[1]), incident(&[1, 3])];
        let right = vec![incident(&[2]), incident(&[4]), incident(&[5])];
        assert_eq!(
            run_sort_merge(&left, &right),
            naive::sequential_eval(&left, &right)
        );
    }

    /// The root batches an answer is made of: `op` over `left` and
    /// `right` under every physical operator the planner may give a root
    /// join, each moved into an [`IncidentSet`](crate::IncidentSet) as the
    /// executor does.
    fn root_sets(op: Op, left: &[Incident], right: &[Incident]) -> Vec<crate::IncidentSet> {
        let lb = IncidentBatch::from_incidents(WID, left);
        let rb = IncidentBatch::from_incidents(WID, right);
        let mut roots = vec![combine_batch(op, &lb, &rb)];
        let mut nested = IncidentBatch::new(WID);
        nested_loop_kernel(op, &lb, &rb, &mut nested);
        roots.push(nested);
        if op == Op::Sequential {
            let mut merged = IncidentBatch::new(WID);
            sequential_sort_merge_kernel(&lb, &rb, &mut merged);
            roots.push(merged);
        }
        roots
            .into_iter()
            .map(|root| crate::IncidentSet::from_batches(vec![root]))
            .collect()
    }

    #[test]
    fn materialize_join_matches_kernel_plus_drain() {
        // Strictly distinct left firsts: the root's batch, kept as the
        // answer, holds exactly the kernel's incidents in set order.
        let left = vec![incident(&[1]), incident(&[2, 3]), incident(&[5])];
        let right = fixture_b();
        for op in [Op::Consecutive, Op::Sequential] {
            let kernel = run(op, &left, &right);
            for set in root_sets(op, &left, &right) {
                let listed: Vec<Incident> = set.iter().map(|o| o.to_incident()).collect();
                assert_eq!(listed, kernel, "{op:?}");
            }
        }
    }

    #[test]
    fn materialize_join_declines_fixup_cases() {
        // fixture_a repeats first=1, so the root's output needs the run
        // fixup and its pool keeps positions of dropped duplicates; `⊗`
        // and `⊕` have no concat form. The answer must still equal the
        // reference's incidents built from lists.
        let (a, b) = (fixture_a(), fixture_b());
        for op in [Op::Consecutive, Op::Sequential, Op::Choice, Op::Parallel] {
            for (xs, ys) in [(&a, &b), (&a, &a)] {
                let reference =
                    crate::IncidentSet::from_partitions([(WID, naive::combine(op, xs, ys))]);
                for set in root_sets(op, xs, ys) {
                    assert_eq!(set, reference, "{op:?}");
                }
            }
        }
    }

    #[test]
    fn nested_loop_matches_reference_on_fixtures() {
        let (a, b) = (fixture_a(), fixture_b());
        for op in [Op::Consecutive, Op::Sequential, Op::Choice, Op::Parallel] {
            for (xs, ys) in [(&a, &b), (&b, &a), (&a, &a)] {
                assert_eq!(run_nested(op, xs, ys), naive::combine(op, xs, ys));
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
