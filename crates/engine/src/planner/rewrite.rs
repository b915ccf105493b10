//! Candidate enumeration: the equivalent trees the planner costs.
//!
//! Every candidate is derived from the input pattern by rewrites the
//! paper proves semantics-preserving:
//!
//! * **Theorems 2/4** (associativity of `⊙`/`→`/`⊗`/`⊕` and of mixed
//!   sequence chains): left-deep and right-deep reshapes, plus a
//!   matrix-chain DP that picks the cheapest parenthesisation of every
//!   `{⊙, →}` chain.
//! * **Theorem 3** (commutativity of `⊗`/`⊕`): the same reshape orders
//!   commutative chain operands smallest-first.
//! * **Theorem 5** (distributivity over `⊗`): factoring shared operands
//!   out of choices, and — bounded, since it is exponential — the inverse
//!   distribution to choice normal form.
//!
//! The DP prices a tree exactly as [`super::Planner::plan`] scores
//! candidates — the leaf scan per atom, [`PlanCost::price_join`] per
//! operator — so its parenthesisation is the cheapest under the planner's
//! own cost. The set always contains the original pattern, so costing
//! candidates can never regress: the worst case is choosing the tree
//! that was going to run anyway. Equivalence of every candidate is
//! differentially verified (`wlq-difffuzz` and `tests/plan_equiv.rs`).

use wlq_pattern::algebra::flatten_chain;
use wlq_pattern::rewrite::{factor, left_deep, right_deep};
use wlq_pattern::{choice_normal_form, from_alternatives, Op, Pattern};

use super::cost::PlanCost;
use super::plan::build_node;

/// One equivalent rewriting of the query, labelled with the rule that
/// produced it.
#[derive(Debug, Clone)]
pub struct RewriteCandidate {
    /// The rewritten pattern.
    pub pattern: Pattern,
    /// The rewrite rule (for `explain` output).
    pub rule: &'static str,
}

/// Distribution to choice normal form is exponential in the number of
/// choice operators; only expansions up to this many alternatives are
/// considered.
const MAX_ALTERNATIVES: usize = 8;

fn push(out: &mut Vec<RewriteCandidate>, pattern: Pattern, rule: &'static str) {
    if !out.iter().any(|c| c.pattern == pattern) {
        out.push(RewriteCandidate { pattern, rule });
    }
}

/// Enumerates the candidate trees for `p`, deduplicated, original first.
#[must_use]
pub fn candidates(cost: &PlanCost, p: &Pattern) -> Vec<RewriteCandidate> {
    let mut out = Vec::with_capacity(6);
    push(&mut out, p.clone(), "original");
    let factored = factor(p);
    let reshaped = reshape(cost, &factored);
    push(&mut out, factored, "factor common choice operands (Thm 5)");
    push(&mut out, reshaped, "cost-based reshape (Thms 2-4)");
    push(&mut out, left_deep(p), "left-deep chains (Thms 2/4)");
    push(&mut out, right_deep(p), "right-deep chains (Thms 2/4)");
    let alternatives = choice_normal_form(p);
    if alternatives.len() > 1 && alternatives.len() <= MAX_ALTERNATIVES {
        if let Some(distributed) = from_alternatives(&alternatives) {
            push(&mut out, distributed, "distribute over choice (Thm 5)");
        }
    }
    out
}

/// Bottom-up reshaping: the cheapest parenthesisation of every `{⊙, →}`
/// chain, and smallest-first operands in every `⊗`/`⊕` chain (Theorems 2
/// and 3 make any order of those equivalent).
fn reshape(cost: &PlanCost, p: &Pattern) -> Pattern {
    let Pattern::Binary { op, .. } = p else {
        return p.clone();
    };
    let chain = flatten_chain(p);
    let mut operands = vec![reshape(cost, &chain.first)];
    let mut ops = Vec::with_capacity(chain.rest.len());
    for (o, q) in &chain.rest {
        ops.push(*o);
        operands.push(reshape(cost, q));
    }
    if operands.len() > 2 {
        if !op.is_commutative() {
            return parenthesize(cost, &operands, &ops);
        }
        operands.sort_by(|a, b| {
            cost.estimate_incidents(a)
                .total_cmp(&cost.estimate_incidents(b))
        });
    }
    let mut operands = operands.into_iter();
    let Some(first) = operands.next() else {
        return p.clone();
    };
    ops.into_iter()
        .zip(operands)
        .fold(first, |acc, (o, q)| Pattern::binary(o, acc, q))
}

/// Matrix-chain DP over a `{⊙, →}` chain of at least one operand
/// (Theorems 2 and 4 make every parenthesisation equivalent): each
/// sub-chain takes the split that minimises its cost as the planner
/// scores trees. Estimates do not depend on the split — each operator
/// divides by its own constant once — so the optimum is exact.
fn parenthesize(cost: &PlanCost, operands: &[Pattern], ops: &[Op]) -> Pattern {
    /// The cheapest tree found over one sub-chain.
    #[derive(Clone, Copy)]
    struct Cell {
        estimate: f64,
        cost: f64,
        split: usize,
    }
    let n = operands.len();
    let mut best = vec![
        vec![
            Cell {
                estimate: 0.0,
                cost: 0.0,
                split: 0,
            };
            n
        ];
        n
    ];
    // atoms[i]: atoms in operands[..i], so a sub-chain's width is a
    // difference.
    let mut atoms = vec![0usize; n + 1];
    for (i, q) in operands.iter().enumerate() {
        let node = build_node(cost, q);
        best[i][i] = Cell {
            estimate: node.estimate(),
            cost: node.cost(),
            split: i,
        };
        atoms[i + 1] = atoms[i] + q.num_atoms();
    }
    #[allow(clippy::cast_precision_loss)]
    let width = |i: usize, j: usize| (atoms[j + 1] - atoms[i]) as f64;
    for span in 1..n {
        for i in 0..n - span {
            let j = i + span;
            for k in i..j {
                let (l, r) = (best[i][k], best[k + 1][j]);
                let (shape, node) = cost.price_join(
                    ops[k],
                    (l.estimate, width(i, k)),
                    (r.estimate, width(k + 1, j)),
                );
                let total = l.cost + r.cost + node;
                if k == i || total < best[i][j].cost {
                    best[i][j] = Cell {
                        estimate: shape.out,
                        cost: total,
                        split: k,
                    };
                }
            }
        }
    }

    fn rebuild(
        operands: &[Pattern],
        ops: &[Op],
        best: &[Vec<Cell>],
        i: usize,
        j: usize,
    ) -> Pattern {
        if i == j {
            return operands[i].clone();
        }
        let k = best[i][j].split;
        Pattern::binary(
            ops[k],
            rebuild(operands, ops, best, i, k),
            rebuild(operands, ops, best, k + 1, j),
        )
    }
    rebuild(operands, ops, &best, 0, n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::{paper, LogStats};
    use wlq_pattern::ac_equivalent;

    fn parse(s: &str) -> Pattern {
        s.parse().expect("valid pattern")
    }

    fn cost() -> PlanCost {
        PlanCost::new(LogStats::compute(&paper::figure3_log()))
    }

    /// The planner's score of `p` as written.
    fn score(p: &Pattern) -> f64 {
        build_node(&cost(), p).cost()
    }

    #[test]
    fn original_is_always_first() {
        let p = parse("SeeDoctor -> PayTreatment");
        let cands = candidates(&cost(), &p);
        assert_eq!(cands[0].pattern, p);
        assert_eq!(cands[0].rule, "original");
    }

    #[test]
    fn atoms_yield_a_single_candidate() {
        let cands = candidates(&cost(), &parse("SeeDoctor"));
        assert_eq!(cands.len(), 1);
    }

    #[test]
    fn candidates_are_deduplicated() {
        let p = parse("SeeDoctor -> PayTreatment");
        let cands = candidates(&cost(), &p);
        for (i, a) in cands.iter().enumerate() {
            for b in &cands[i + 1..] {
                assert_ne!(a.pattern, b.pattern, "duplicate candidate {}", a.pattern);
            }
        }
    }

    #[test]
    fn factored_and_distributed_shapes_both_appear() {
        let p = parse("(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)");
        let cands = candidates(&cost(), &p);
        let rules: Vec<&str> = cands.iter().map(|c| c.rule).collect();
        assert!(rules.iter().any(|r| r.contains("factor")), "{rules:?}");
        // The original is already in distributed form, so re-distribution
        // dedups away; the factored tree must be a genuine alternative.
        assert!(cands
            .iter()
            .any(|c| c.pattern == parse("SeeDoctor -> (PayTreatment | UpdateRefer)")));
    }

    #[test]
    fn deep_reshapes_cover_both_directions() {
        let p = parse("A -> (B -> (C -> D))");
        let cands = candidates(&cost(), &p);
        assert!(cands
            .iter()
            .any(|c| c.pattern == parse("((A -> B) -> C) -> D")));
        assert!(cands.iter().any(|c| c.pattern == p));
    }

    #[test]
    fn reshape_orders_commutative_chains_smallest_first() {
        // SeeDoctor (4) | UpdateRefer (1) | PayTreatment (3).
        let p = parse("SeeDoctor | UpdateRefer | PayTreatment");
        assert_eq!(
            reshape(&cost(), &p),
            parse("UpdateRefer | PayTreatment | SeeDoctor")
        );
    }

    #[test]
    fn reshape_preserves_sequential_operand_order() {
        let q = reshape(&cost(), &parse("SeeDoctor -> UpdateRefer -> GetReimburse"));
        // → is not commutative: only the parenthesisation may differ.
        let chain = flatten_chain(&q);
        let names: Vec<String> = std::iter::once(chain.first.to_string())
            .chain(chain.rest.iter().map(|(_, p)| p.to_string()))
            .collect();
        assert_eq!(names, ["SeeDoctor", "UpdateRefer", "GetReimburse"]);
    }

    #[test]
    fn chain_dp_prefers_selective_joins_first() {
        // START (3) -> SeeDoctor (4) -> UpdateRefer (1): whatever shape
        // wins, it is the same chain and no dearer than the input.
        let p = parse("(START -> SeeDoctor) -> UpdateRefer");
        let q = reshape(&cost(), &p);
        assert!(score(&q) <= score(&p));
        assert!(ac_equivalent(&q, &p));
    }

    #[test]
    fn reshape_is_ac_equivalent_on_chains() {
        for src in [
            "SeeDoctor -> UpdateRefer -> GetReimburse",
            "CheckIn ~> SeeDoctor -> PayTreatment ~> TakeTreatment",
            "SeeDoctor & PayTreatment & UpdateRefer",
        ] {
            let p = parse(src);
            let q = reshape(&cost(), &p);
            assert!(ac_equivalent(&p, &q), "{src} reshaped to {q}");
        }
    }
}
