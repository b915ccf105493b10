//! Plan-equivalence suite for the cost-based query planner.
//!
//! Random logs × random patterns (depth ≤ 4): every rewrite candidate the
//! planner enumerates (Theorems 2–5) must evaluate to exactly the same
//! `incL(p)` as the original pattern, and the chosen physical plan — with
//! agree with the paper-faithful naive evaluation. On `~>`/`->` chains,
//! the planner's choice is the cheapest parenthesisation by its own cost.

use proptest::prelude::*;

use wlq::{attrs, Log, LogBuilder, Op, Pattern, Planner, Query, Strategy as EvalStrategy};

const ALPHABET: [&str; 4] = ["A", "B", "C", "D"];

/// Random patterns over the alphabet, depth ≤ 4 (up to 16 leaves).
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    let leaf = prop_oneof![
        4 => (0..ALPHABET.len()).prop_map(|i| Pattern::atom(ALPHABET[i])),
        1 => (0..ALPHABET.len()).prop_map(|i| Pattern::not_atom(ALPHABET[i])),
    ];
    leaf.prop_recursive(4, 16, 2, |inner| {
        (0..4u8, inner.clone(), inner).prop_map(|(op, l, r)| {
            let op = match op {
                0 => Op::Consecutive,
                1 => Op::Sequential,
                2 => Op::Choice,
                _ => Op::Parallel,
            };
            Pattern::binary(op, l, r)
        })
    })
}

/// Random `~>`/`->` chains of 3–5 atoms: the operands and the operators
/// between them.
fn arb_chain() -> impl Strategy<Value = (Vec<Pattern>, Vec<Op>)> {
    let atom = prop_oneof![
        4 => (0..ALPHABET.len()).prop_map(|i| Pattern::atom(ALPHABET[i])),
        1 => (0..ALPHABET.len()).prop_map(|i| Pattern::not_atom(ALPHABET[i])),
    ];
    let op = prop_oneof![Just(Op::Consecutive), Just(Op::Sequential)];
    (
        prop::collection::vec(atom, 3..6),
        prop::collection::vec(op, 4..5),
    )
        .prop_map(|(operands, mut ops)| {
            ops.truncate(operands.len() - 1);
            (operands, ops)
        })
}

/// Every parenthesisation of a chain, operators kept in place.
fn parenthesisations(operands: &[Pattern], ops: &[Op]) -> Vec<Pattern> {
    if operands.len() == 1 {
        return vec![operands[0].clone()];
    }
    let mut out = Vec::new();
    for k in 0..ops.len() {
        for l in parenthesisations(&operands[..=k], &ops[..k]) {
            for r in parenthesisations(&operands[k + 1..], &ops[k + 1..]) {
                out.push(Pattern::binary(ops[k], l.clone(), r));
            }
        }
    }
    out
}

/// Random logs: 1–4 instances, each 0–10 task records, interleaved.
fn arb_log() -> impl Strategy<Value = Log> {
    prop::collection::vec(prop::collection::vec(0..ALPHABET.len(), 0..10), 1..5).prop_map(
        |instances| {
            let mut b = LogBuilder::new();
            let wids: Vec<_> = instances.iter().map(|_| b.start_instance()).collect();
            let longest = instances.iter().map(Vec::len).max().unwrap_or(0);
            for step in 0..longest {
                for (i, acts) in instances.iter().enumerate() {
                    if let Some(&a) = acts.get(step) {
                        b.append(wids[i], ALPHABET[a], attrs! {}, attrs! {})
                            .unwrap();
                    }
                }
            }
            b.build().unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Theorem 2–5 rewrites are semantics-preserving: every candidate tree
    /// the planner enumerates has the same incident set as the original.
    #[test]
    fn every_rewrite_candidate_preserves_incidents(log in arb_log(), p in arb_pattern()) {
        let naive = |p: &Pattern| Query::new(p.clone()).strategy(EvalStrategy::NaivePaper);
        let expected = naive(&p).find(&log).unwrap();
        let planner = Planner::from_log(&log);
        for candidate in planner.candidates(&p) {
            let got = naive(&candidate.pattern).find(&log).unwrap();
            prop_assert_eq!(
                &expected,
                &got,
                "rewrite {} ({}) of {} changed incL(p)",
                &candidate.pattern,
                candidate.rule,
                &p
            );
        }
    }

    /// The chosen physical plan — rewrite plus per-node operators — still
    /// computes exactly `incL(p)`, whichever candidate won.
    #[test]
    fn planned_execution_matches_naive(log in arb_log(), p in arb_pattern()) {
        let planned = Query::new(p.clone());
        let expected = planned.clone().strategy(EvalStrategy::NaivePaper).find(&log).unwrap();
        let got = planned.find(&log).unwrap();
        prop_assert_eq!(&expected, &got, "planned evaluation diverged on {}", &p);
        // count/exists go through their own routing (counting DP for
        // chains, ref counting otherwise) — check them independently.
        prop_assert_eq!(Ok(expected.len()), planned.count(&log), "planned count diverged on {}", &p);
        prop_assert_eq!(
            Ok(!expected.is_empty()),
            planned.exists(&log),
            "planned exists diverged on {}",
            &p
        );
    }

    /// The chain DP is optimal under the planner's own cost: no
    /// parenthesisation of a chain, scored as written, is cheaper than the
    /// plan of any of them. The plan also prints and re-parses to itself.
    #[test]
    fn chain_dp_is_optimal_under_plan_cost(log in arb_log(), chain in arb_chain()) {
        let (operands, ops) = chain;
        // The chain as the parser builds it: left-deep.
        let p = ops
            .iter()
            .zip(&operands[1..])
            .fold(operands[0].clone(), |acc, (op, q)| Pattern::binary(*op, acc, q.clone()));
        let planner = Planner::from_log(&log);
        let plan = planner.plan(&p);
        let reparsed: Pattern = plan.pattern().to_string().parse().unwrap();
        prop_assert_eq!(&reparsed, plan.pattern());
        for t in parenthesisations(&operands, &ops) {
            let written = planner.plan(&t).original_cost();
            prop_assert!(
                plan.cost() <= written * (1.0 + 1e-9),
                "plan {} of {} costs {} but {} scores {}",
                plan.pattern(),
                &p,
                plan.cost(),
                &t,
                written
            );
        }
    }
}
