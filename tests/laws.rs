//! Property-based verification of the paper's Section 4 theorems.
//!
//! Every law is checked semantically: two patterns are equivalent
//! (Definition 5) iff they produce the same incident set on *all* logs, so
//! each property samples random logs and random sub-patterns and compares
//! `incL` on both sides. Sampling cannot prove the theorems, but a
//! violation would disprove the implementation — and none is found across
//! thousands of cases.

use proptest::prelude::*;

use wlq::{attrs, IncidentSet, Log, LogBuilder, Op, Pattern, Query, Strategy as EvalStrategy};

const ALPHABET: [&str; 4] = ["A", "B", "C", "D"];

/// Random patterns over a small alphabet, depth ≤ 3 (up to 4 leaves).
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    let leaf = prop_oneof![
        4 => (0..ALPHABET.len()).prop_map(|i| Pattern::atom(ALPHABET[i])),
        1 => (0..ALPHABET.len()).prop_map(|i| Pattern::not_atom(ALPHABET[i])),
    ];
    leaf.prop_recursive(3, 8, 2, |inner| {
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

/// Random logs: 1–3 instances, each 0–8 task records over the alphabet,
/// interleaved round-robin.
fn arb_log() -> impl Strategy<Value = Log> {
    prop::collection::vec(prop::collection::vec(0..ALPHABET.len(), 0..8), 1..4).prop_map(
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

fn inc(log: &Log, p: &Pattern) -> IncidentSet {
    Query::new(p.clone()).find(log).unwrap()
}

fn assert_equiv(log: &Log, p: &Pattern, q: &Pattern) -> Result<(), TestCaseError> {
    prop_assert_eq!(inc(log, p), inc(log, q), "patterns {} vs {}", p, q);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Theorem 2: (p1 θ p2) θ p3 ≡ p1 θ (p2 θ p3) for every operator.
    #[test]
    fn theorem2_associativity(
        log in arb_log(),
        p1 in arb_pattern(),
        p2 in arb_pattern(),
        p3 in arb_pattern(),
        op_idx in 0..4usize,
    ) {
        let op = Op::ALL[op_idx];
        let left = Pattern::binary(op, Pattern::binary(op, p1.clone(), p2.clone()), p3.clone());
        let right = Pattern::binary(op, p1, Pattern::binary(op, p2, p3));
        assert_equiv(&log, &left, &right)?;
    }

    /// Theorem 3: ⊗ and ⊕ are commutative.
    #[test]
    fn theorem3_commutativity(
        log in arb_log(),
        p1 in arb_pattern(),
        p2 in arb_pattern(),
        commutative in prop::bool::ANY,
    ) {
        let op = if commutative { Op::Choice } else { Op::Parallel };
        let a = Pattern::binary(op, p1.clone(), p2.clone());
        let b = Pattern::binary(op, p2, p1);
        assert_equiv(&log, &a, &b)?;
    }

    /// Non-commutativity sanity: → and ⊙ are NOT commutative (there exist
    /// logs distinguishing them) — checked as "equivalence may fail", by
    /// verifying the canonical counterexample.
    #[test]
    fn sequential_is_not_commutative_on_ordered_logs(_x in 0..1u8) {
        let mut b = LogBuilder::new();
        let w = b.start_instance();
        b.append(w, "A", attrs! {}, attrs! {}).unwrap();
        b.append(w, "B", attrs! {}, attrs! {}).unwrap();
        let log = b.build().unwrap();
        let ab: Pattern = "A -> B".parse().unwrap();
        let ba: Pattern = "B -> A".parse().unwrap();
        prop_assert_ne!(inc(&log, &ab), inc(&log, &ba));
    }

    /// Theorem 4: ⊙ and → associate with each other in both arrangements.
    #[test]
    fn theorem4_mixed_associativity(
        log in arb_log(),
        p1 in arb_pattern(),
        p2 in arb_pattern(),
        p3 in arb_pattern(),
        cons_first in prop::bool::ANY,
    ) {
        let (t1, t2) = if cons_first {
            (Op::Consecutive, Op::Sequential)
        } else {
            (Op::Sequential, Op::Consecutive)
        };
        // p1 θ1 (p2 θ2 p3) ≡ (p1 θ1 p2) θ2 p3
        let a = Pattern::binary(t1, p1.clone(), Pattern::binary(t2, p2.clone(), p3.clone()));
        let b = Pattern::binary(t2, Pattern::binary(t1, p1, p2), p3);
        assert_equiv(&log, &a, &b)?;
    }

    /// Theorem 5 part 1: left distributivity of every θ over ⊗.
    #[test]
    fn theorem5_left_distributivity(
        log in arb_log(),
        p1 in arb_pattern(),
        p2 in arb_pattern(),
        p3 in arb_pattern(),
        op_idx in 0..4usize,
    ) {
        let op = Op::ALL[op_idx];
        let lhs = Pattern::binary(op, p1.clone(), p2.clone().alt(p3.clone()));
        let rhs = Pattern::binary(op, p1.clone(), p2).alt(Pattern::binary(op, p1, p3));
        assert_equiv(&log, &lhs, &rhs)?;
    }

    /// Theorem 5 part 2: right distributivity of every θ over ⊗.
    #[test]
    fn theorem5_right_distributivity(
        log in arb_log(),
        p1 in arb_pattern(),
        p2 in arb_pattern(),
        p3 in arb_pattern(),
        op_idx in 0..4usize,
    ) {
        let op = Op::ALL[op_idx];
        let lhs = Pattern::binary(op, p1.clone().alt(p2.clone()), p3.clone());
        let rhs = Pattern::binary(op, p1, p3.clone()).alt(Pattern::binary(op, p2, p3));
        assert_equiv(&log, &lhs, &rhs)?;
    }

    /// The naive (Algorithm 1) oracle and the optimized evaluation —
    /// planner rewrites over the flat batch kernels — are semantically
    /// identical.
    #[test]
    fn naive_equals_optimized(log in arb_log(), p in arb_pattern()) {
        let naive = Query::new(p.clone()).strategy(EvalStrategy::NaivePaper).find(&log);
        prop_assert_eq!(naive.unwrap(), inc(&log, &p));
    }

    /// AC-canonicalization (associativity + commutativity) preserves
    /// semantics.
    #[test]
    fn canonicalization_preserves_semantics(log in arb_log(), p in arb_pattern()) {
        let c = wlq::canonicalize(&p);
        assert_equiv(&log, &p, &c)?;
    }

    /// Every single-step law rewrite anywhere in the tree preserves
    /// semantics.
    #[test]
    fn all_law_rewrites_preserve_semantics(log in arb_log(), p in arb_pattern()) {
        for (law, q) in wlq::algebra::all_rewrites(&p) {
            prop_assert_eq!(
                inc(&log, &p),
                inc(&log, &q),
                "law {} broke {} => {}",
                law, &p, &q
            );
        }
    }

    /// The query planner's chosen tree is equivalent to its input.
    #[test]
    fn optimizer_preserves_semantics(log in arb_log(), p in arb_pattern()) {
        let plan = wlq::Planner::from_log(&log).plan(&p);
        assert_equiv(&log, &p, plan.pattern())?;
    }

    /// Choice normal form is a sound decomposition: the union of the
    /// alternatives' incident sets equals the original's.
    #[test]
    fn choice_normal_form_is_sound(log in arb_log(), p in arb_pattern()) {
        let mut union = IncidentSet::new();
        for alt in wlq::choice_normal_form(&p) {
            union.merge(inc(&log, &alt));
        }
        prop_assert_eq!(union, inc(&log, &p));
    }

    /// Parse/display round-trip on random patterns.
    #[test]
    fn display_parse_round_trip(p in arb_pattern()) {
        let printed = p.to_string();
        let reparsed: Pattern = printed.parse().unwrap();
        prop_assert_eq!(reparsed, p);
    }

    /// Postfix (shunting-yard) round-trip on random patterns.
    #[test]
    fn postfix_round_trip(p in arb_pattern()) {
        let rpn = wlq::to_postfix(&p);
        let back = wlq::from_postfix(rpn).unwrap();
        prop_assert_eq!(back, p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Labelled (binding-aware) evaluation projects exactly onto plain
    /// evaluation: same incident sets, with each binding inside its
    /// incident.
    #[test]
    fn bindings_project_onto_plain_incidents(
        log in arb_log(),
        chain in prop::collection::vec((0..ALPHABET.len(), 0..4u8), 1..4),
    ) {
        // Build a labelled chain v0:X op v1:Y op …
        let mut src = String::new();
        for (i, &(name, op)) in chain.iter().enumerate() {
            if i > 0 {
                src.push_str(match op % 4 {
                    0 => " ~> ",
                    1 => " -> ",
                    2 => " | ",
                    _ => " & ",
                });
            }
            src.push_str(&format!("v{i}:{}", ALPHABET[name]));
        }
        let lp = wlq::LabelledPattern::parse(&src).unwrap();
        let bound = lp.evaluate(&log);
        let plain = inc(&log, lp.pattern());
        // Every bound incident is a plain incident and each binding is a
        // member record of it.
        for b in &bound {
            prop_assert!(plain.contains(&b.incident), "{src}");
            for pos in b.bindings.values() {
                prop_assert!(b.incident.contains(*pos));
            }
        }
        // Every plain incident is realised by at least one assignment.
        for o in plain.iter() {
            prop_assert!(
                bound.iter().any(|b| b.incident == o.to_incident()),
                "{src}: incident {o} has no assignment"
            );
        }
    }
}
