//! Exhaustive small-scope verification (bounded model checking).
//!
//! Property tests sample; these tests *enumerate*. Over every
//! single-instance log up to length 5 on the alphabet `{A, B}` (and every
//! two-instance split of those), and every pattern in a bounded family,
//! we verify:
//!
//! * the Theorems 2–5 laws hold exactly,
//! * the naive and planned strategies agree (`evaluate` and `count`),
//! * the streaming evaluator agrees with batch.
//!
//! Within these bounds the theorems are *proved* for this implementation,
//! not just sampled.

use wlq::{attrs, IncidentSet, Log, LogBuilder, Op, Pattern, Query, Strategy, StreamingEvaluator};

/// `incL(p)` under the default strategy.
fn find(log: &Log, p: &Pattern) -> IncidentSet {
    Query::new(p.clone()).find(log).unwrap()
}

const ALPHABET: [&str; 2] = ["A", "B"];
const MAX_LEN: usize = 5;

/// Every single-instance log with 0..=MAX_LEN task records over {A, B}.
fn all_single_instance_logs() -> Vec<Log> {
    let mut logs = Vec::new();
    for len in 0..=MAX_LEN {
        for mask in 0..(1usize << len) {
            let mut b = LogBuilder::new();
            let w = b.start_instance();
            for bit in 0..len {
                let act = ALPHABET[(mask >> bit) & 1];
                b.append(w, act, attrs! {}, attrs! {}).unwrap();
            }
            logs.push(b.build().unwrap());
        }
    }
    logs
}

/// All atomic patterns over the alphabet (positive and negated).
fn atoms() -> Vec<Pattern> {
    let mut out = Vec::new();
    for a in ALPHABET {
        out.push(Pattern::atom(a));
        out.push(Pattern::not_atom(a));
    }
    out
}

/// All patterns with exactly one operator over atomic operands.
fn depth2() -> Vec<Pattern> {
    let mut out = Vec::new();
    for op in Op::ALL {
        for l in atoms() {
            for r in atoms() {
                out.push(Pattern::binary(op, l.clone(), r));
            }
        }
    }
    out
}

#[test]
fn exhaustive_theorem2_associativity_on_atoms() {
    let logs = all_single_instance_logs();
    let atoms = atoms();
    for op in Op::ALL {
        for p1 in &atoms {
            for p2 in &atoms {
                for p3 in &atoms {
                    let left = Pattern::binary(
                        op,
                        Pattern::binary(op, p1.clone(), p2.clone()),
                        p3.clone(),
                    );
                    let right = Pattern::binary(
                        op,
                        p1.clone(),
                        Pattern::binary(op, p2.clone(), p3.clone()),
                    );
                    for log in &logs {
                        assert_eq!(
                            find(log, &left),
                            find(log, &right),
                            "T2 failed: {left} vs {right} on {log}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn exhaustive_theorem4_mixed_associativity_on_atoms() {
    let logs = all_single_instance_logs();
    let atoms = atoms();
    for (t1, t2) in [
        (Op::Consecutive, Op::Sequential),
        (Op::Sequential, Op::Consecutive),
    ] {
        for p1 in &atoms {
            for p2 in &atoms {
                for p3 in &atoms {
                    let a = Pattern::binary(
                        t1,
                        p1.clone(),
                        Pattern::binary(t2, p2.clone(), p3.clone()),
                    );
                    let b = Pattern::binary(
                        t2,
                        Pattern::binary(t1, p1.clone(), p2.clone()),
                        p3.clone(),
                    );
                    for log in &logs {
                        assert_eq!(
                            find(log, &a),
                            find(log, &b),
                            "T4 failed: {a} vs {b} on {log}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn exhaustive_theorem3_commutativity_on_depth2() {
    let logs = all_single_instance_logs();
    for p in depth2() {
        let Pattern::Binary {
            op,
            ref left,
            ref right,
        } = p
        else {
            unreachable!()
        };
        if !op.is_commutative() {
            continue;
        }
        let swapped = Pattern::binary(op, right.as_ref().clone(), left.as_ref().clone());
        for log in &logs {
            assert_eq!(find(log, &p), find(log, &swapped), "T3 failed: {p}");
        }
    }
}

#[test]
fn exhaustive_theorem5_distributivity_on_atoms() {
    let logs = all_single_instance_logs();
    let atoms = atoms();
    for op in Op::ALL {
        for p1 in &atoms {
            for p2 in &atoms {
                for p3 in &atoms {
                    // Left distributivity.
                    let lhs = Pattern::binary(op, p1.clone(), p2.clone().alt(p3.clone()));
                    let rhs = Pattern::binary(op, p1.clone(), p2.clone()).alt(Pattern::binary(
                        op,
                        p1.clone(),
                        p3.clone(),
                    ));
                    // Right distributivity.
                    let lhs2 = Pattern::binary(op, p1.clone().alt(p2.clone()), p3.clone());
                    let rhs2 = Pattern::binary(op, p1.clone(), p3.clone()).alt(Pattern::binary(
                        op,
                        p2.clone(),
                        p3.clone(),
                    ));
                    for log in &logs {
                        assert_eq!(find(log, &lhs), find(log, &rhs), "T5L: {lhs}");
                        assert_eq!(find(log, &lhs2), find(log, &rhs2), "T5R: {lhs2}");
                    }
                }
            }
        }
    }
}

#[test]
fn exhaustive_strategies_agree_on_depth2() {
    let logs = all_single_instance_logs();
    for p in depth2() {
        for log in &logs {
            let planned = Query::new(p.clone());
            let naive = planned.clone().strategy(Strategy::NaivePaper).find(log);
            let naive = naive.unwrap();
            assert_eq!(naive, find(log, &p), "strategy mismatch: {p} on {log}");
            assert_eq!(
                Ok(naive.len()),
                planned.count(log),
                "planned count mismatch: {p} on {log}"
            );
        }
    }
}

#[test]
fn exhaustive_streaming_agrees_on_depth2() {
    let logs = all_single_instance_logs();
    for p in depth2() {
        for log in &logs {
            let mut stream = StreamingEvaluator::new(p.clone());
            for record in log.iter() {
                stream.append(record).unwrap();
            }
            let batch = find(log, &p);
            assert_eq!(
                stream.incidents(),
                batch,
                "streaming mismatch: {p} on {log}"
            );
        }
    }
}

#[test]
fn exhaustive_two_instance_splits_behave_like_projections() {
    // Splitting a trace over two instances: incidents never cross
    // instances, so evaluating on the interleaved two-instance log equals
    // the union of evaluating each instance's projection.
    let atoms = atoms();
    for len in 0..=4usize {
        for mask in 0..(1usize << len) {
            for split in 0..(1usize << len) {
                let mut b = LogBuilder::new();
                let w1 = b.start_instance();
                let w2 = b.start_instance();
                for bit in 0..len {
                    let act = ALPHABET[(mask >> bit) & 1];
                    let w = if (split >> bit) & 1 == 0 { w1 } else { w2 };
                    b.append(w, act, attrs! {}, attrs! {}).unwrap();
                }
                let log = b.build().unwrap();
                for a in &atoms {
                    for bpat in &atoms {
                        let p = a.clone().seq(bpat.clone());
                        let whole = find(&log, &p);
                        let mut by_parts = 0usize;
                        for wid in log.wids() {
                            by_parts += find(&log.project_instance(wid).unwrap(), &p).len();
                        }
                        assert_eq!(whole.len(), by_parts, "{p} on {log}");
                    }
                }
            }
        }
    }
}
