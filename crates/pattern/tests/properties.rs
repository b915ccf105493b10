//! Property tests of the pattern crate: canonical forms, reshaping,
//! rewrites, and syntax round-trips — all over randomly generated
//! patterns.

use proptest::prelude::{prop_assert, prop_assert_eq, prop_oneof, proptest, Strategy};

use wlq_pattern::{
    ac_equivalent, algebra, canonicalize, choice_normal_form, from_postfix, rewrite, to_postfix,
    Op, Pattern,
};

const ALPHABET: [&str; 4] = ["A", "B", "C", "D"];

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

proptest! {
    /// Canonicalization is idempotent and sound for AC-equivalence.
    #[test]
    fn canonicalize_is_idempotent(p in arb_pattern()) {
        let once = canonicalize(&p);
        prop_assert_eq!(canonicalize(&once), once.clone());
        prop_assert!(ac_equivalent(&p, &once));
    }

    /// Reassociation and commutation rewrites do not change the canonical
    /// form (they are exactly what AC-canonicalization quotients out).
    #[test]
    fn ac_rewrites_preserve_canonical_form(p in arb_pattern()) {
        let canon = canonicalize(&p);
        for (law, q) in algebra::all_rewrites(&p) {
            if law.contains("reassociate") || law.contains("commute") {
                prop_assert_eq!(
                    canonicalize(&q),
                    canon.clone(),
                    "{} changed the canonical form of {}",
                    law,
                    &p
                );
            }
        }
    }

    /// Left-deep and right-deep reshaping are AC-equivalent to the input
    /// and mutually inverse in canonical form.
    #[test]
    fn reshaping_is_ac_equivalent(p in arb_pattern()) {
        let ld = rewrite::left_deep(&p);
        let rd = rewrite::right_deep(&p);
        prop_assert!(ac_equivalent(&p, &ld));
        prop_assert!(ac_equivalent(&p, &rd));
        prop_assert_eq!(rewrite::left_deep(&rd), ld);
    }

    /// Postfix and display round-trips are lossless.
    #[test]
    fn syntax_round_trips(p in arb_pattern()) {
        prop_assert_eq!(from_postfix(to_postfix(&p)).unwrap(), p.clone());
        let printed = p.to_string();
        let reparsed: Pattern = printed.parse().unwrap();
        prop_assert_eq!(reparsed, p);
    }

    /// The number of choice-normal-form alternatives is the product of
    /// per-subtree alternative counts (and the alternatives are
    /// choice-free).
    #[test]
    fn cnf_count_and_shape(p in arb_pattern()) {
        fn expected(p: &Pattern) -> usize {
            match p {
                Pattern::Atom(_) => 1,
                Pattern::Binary { op: Op::Choice, left, right } => {
                    expected(left) + expected(right)
                }
                Pattern::Binary { left, right, .. } => expected(left) * expected(right),
            }
        }
        let alts = choice_normal_form(&p);
        prop_assert_eq!(alts.len(), expected(&p));
        for alt in &alts {
            for sub in alt.subpatterns() {
                prop_assert!(sub.op() != Some(Op::Choice), "choice survived CNF");
            }
        }
    }

    /// Simplification is idempotent, AC-sound for choice-free patterns,
    /// and never grows the pattern.
    #[test]
    fn simplify_discipline(p in arb_pattern()) {
        let s = p.simplify();
        prop_assert_eq!(s.simplify(), s.clone());
        prop_assert!(s.num_atoms() <= p.num_atoms());
        if !p.subpatterns().any(|q| q.op() == Some(Op::Choice)) {
            prop_assert!(ac_equivalent(&p, &s));
        }
    }

    /// Structural metrics are consistent: a binary tree with k operators
    /// has k+1 atoms, and postfix length is atoms + operators.
    #[test]
    fn structural_metrics(p in arb_pattern()) {
        prop_assert_eq!(p.num_atoms(), p.num_operators() + 1);
        prop_assert_eq!(to_postfix(&p).len(), p.num_atoms() + p.num_operators());
        prop_assert!(p.depth() <= p.num_atoms());
        let multiset_total: usize = p.activity_multiset().values().sum();
        prop_assert_eq!(multiset_total, p.num_atoms());
    }
}
