//! Operator-level property tests: the naive (Algorithm 1) operators and
//! the flat batch kernels agree on *arbitrary* incident lists — including
//! multi-record incidents with overlapping spans, the shapes that stress
//! the merge/rollback/run-fixup paths — and the operators' semantic
//! postconditions hold on every output of both.

use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest, Strategy};

use wlq_engine::{combine_batch, naive, Incident, IncidentBatch};
use wlq_log::{IsLsn, Wid};
use wlq_pattern::Op;

/// Arbitrary sorted, deduplicated incident lists of one instance, with
/// incidents of 1–4 records at positions 1–12 (dense, so overlaps and
/// adjacencies are common).
fn arb_incidents() -> impl Strategy<Value = Vec<Incident>> {
    prop::collection::vec(prop::collection::btree_set(1u32..13, 1..5), 0..8).prop_map(|sets| {
        let mut incidents: Vec<Incident> = sets
            .into_iter()
            .map(|positions| {
                Incident::from_positions(Wid(1), positions.into_iter().map(IsLsn).collect())
            })
            .collect();
        incidents.sort_unstable();
        incidents.dedup();
        incidents
    })
}

/// The batch kernel for `op`, over lists converted at the boundary.
fn batch(op: Op, left: &[Incident], right: &[Incident]) -> Vec<Incident> {
    let lb = IncidentBatch::from_incidents(Wid(1), left);
    let rb = IncidentBatch::from_incidents(Wid(1), right);
    combine_batch(op, &lb, &rb).into_incidents()
}

/// Both implementations of `op`: the naive reference and the batch kernel.
fn both(op: Op, left: &[Incident], right: &[Incident]) -> [Vec<Incident>; 2] {
    [naive::combine(op, left, right), batch(op, left, right)]
}

proptest! {
    /// All four operators: naive ≡ batch kernel on arbitrary inputs.
    #[test]
    fn implementations_agree(left in arb_incidents(), right in arb_incidents()) {
        for op in Op::ALL {
            let [reference, kernel] = both(op, &left, &right);
            prop_assert_eq!(&reference, &kernel);
        }
    }

    /// Definition 4 postconditions hold on every output incident.
    #[test]
    fn outputs_satisfy_definition4(left in arb_incidents(), right in arb_incidents()) {
        // Consecutive: output = o1 ∪ o2 with last(o1)+1 = first(o2); since
        // outputs don't record the split, check the verifiable parts:
        // sortedness, dedup, and span containment.
        for op in [Op::Consecutive, Op::Sequential, Op::Parallel] {
            for out in both(op, &left, &right) {
                prop_assert!(out.windows(2).all(|w| w[0] < w[1]), "{op:?} unsorted/dup");
                for o in &out {
                    // Every output is a union of one left and one right
                    // incident: its records are covered by some such pair.
                    let covered = left.iter().any(|l| {
                        right.iter().any(|r| {
                            let matches = match op {
                                Op::Consecutive => l.last().get() + 1 == r.first().get(),
                                Op::Sequential => l.last() < r.first(),
                                Op::Parallel => l.is_disjoint(r),
                                Op::Choice => unreachable!(),
                            };
                            matches && &l.union(r) == o
                        })
                    });
                    prop_assert!(covered, "{op:?} produced unjustified incident {o}");
                }
            }
        }
        // Choice: exactly the set union.
        for union in both(Op::Choice, &left, &right) {
            for o in &union {
                prop_assert!(left.contains(o) || right.contains(o));
            }
            for o in left.iter().chain(right.iter()) {
                prop_assert!(union.contains(o));
            }
        }
    }

    /// Completeness: every qualifying pair appears in the output.
    #[test]
    fn outputs_are_complete(left in arb_incidents(), right in arb_incidents()) {
        for ((seq, cons), par) in both(Op::Sequential, &left, &right)
            .into_iter()
            .zip(both(Op::Consecutive, &left, &right))
            .zip(both(Op::Parallel, &left, &right))
        {
            for l in &left {
                for r in &right {
                    if l.last() < r.first() {
                        prop_assert!(seq.contains(&l.union(r)), "missing seq {l} ∪ {r}");
                    }
                    if l.last().get() + 1 == r.first().get() {
                        prop_assert!(cons.contains(&l.union(r)), "missing cons {l} ∪ {r}");
                    }
                    if l.is_disjoint(r) {
                        prop_assert!(par.contains(&l.union(r)), "missing par {l} ∪ {r}");
                    }
                }
            }
        }
    }

    /// Output-size bounds of Lemma 1 hold.
    #[test]
    fn lemma1_size_bounds(left in arb_incidents(), right in arb_incidents()) {
        let (n1, n2) = (left.len(), right.len());
        for op in [Op::Consecutive, Op::Sequential, Op::Parallel] {
            for out in both(op, &left, &right) {
                prop_assert!(out.len() <= n1 * n2, "{op:?}");
            }
        }
        for out in both(Op::Choice, &left, &right) {
            prop_assert!(out.len() <= n1 + n2);
        }
    }
}
