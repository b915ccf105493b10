//! Enumeration-free counting for chain patterns.
//!
//! `|incL(p)|` for a chain of atoms `a1 θ1 a2 θ2 …` (each `θi` consecutive
//! or sequential) can be computed *without materialising a single
//! incident*: a left-to-right dynamic program over each instance counts,
//! for every prefix length `j`, the assignments whose `j`-th record ends
//! at or before the current position. One pass per instance gives the
//! exact count in `O(m·k)` — breaking through the `Θ(n1·n2)` output bound
//! of Lemma 1 whenever only the count (or existence) is needed.
//!
//! Chains are exactly the patterns whose incidents are strictly
//! increasing position tuples, so distinct assignments are distinct
//! incident sets and the DP count equals `|incL(p)|`.
//!
//! The chain's atoms are resolved to activity ids once per query, and the
//! DP runs over each instance's activity-id column of a
//! [`LogIndex`](wlq_log::LogIndex) with two buffers reused across
//! instances.
//!
//! [`Query::count`](crate::Query::count) uses this fast path
//! automatically when the (optimized) plan is a supported chain.

use wlq_log::{ActivityId, Log, LogIndex};
use wlq_pattern::{Atom, Op, Pattern};

/// The operator linking two adjacent chain atoms: a strict subset of
/// [`Op`], so downstream code cannot observe a choice/parallel operator
/// inside a chain by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainOp {
    /// `~>` — the next record is the immediate successor.
    Cons,
    /// `->` — the next record is any later record.
    Seq,
}

/// A flattened `~>`/`->` chain. The first atom is stored apart from the
/// `(operator, atom)` tail, so "every non-first step has an operator" is a
/// structural fact rather than a runtime invariant to `expect` on.
#[derive(Debug, Clone)]
struct Chain {
    first: Atom,
    tail: Vec<(ChainOp, Atom)>,
}

impl Chain {
    /// The atoms in order, paired with the operator *before* each
    /// (`None` exactly for the first).
    fn steps(&self) -> impl Iterator<Item = (Option<ChainOp>, &Atom)> {
        std::iter::once((None, &self.first))
            .chain(self.tail.iter().map(|(op, atom)| (Some(*op), atom)))
    }
}

/// Flattens `pattern` into a `~>`/`->` chain of atoms, or `None` if the
/// pattern contains a choice or parallel operator anywhere, or uses
/// attribute predicates (which need record access). Nested `~>`/`->`
/// parenthesisations *are* supported — any shape whose operators are all
/// consecutive/sequential flattens to the same chain — which is what lets
/// the planner route every rewriting of a chain pattern here.
fn as_chain(pattern: &Pattern) -> Option<Chain> {
    fn walk(p: &Pattern, atoms: &mut Vec<Atom>, ops: &mut Vec<ChainOp>) -> bool {
        match p {
            Pattern::Atom(atom) => {
                if !atom.predicates.is_empty() {
                    return false;
                }
                atoms.push(atom.clone());
                true
            }
            Pattern::Binary {
                op: op @ (Op::Consecutive | Op::Sequential),
                left,
                right,
            } => {
                // The operator sits between left's last atom and right's
                // first atom, in any parenthesisation.
                if !walk(left, atoms, ops) {
                    return false;
                }
                ops.push(if *op == Op::Consecutive {
                    ChainOp::Cons
                } else {
                    ChainOp::Seq
                });
                walk(right, atoms, ops)
            }
            Pattern::Binary { .. } => false,
        }
    }
    let mut atoms = Vec::new();
    let mut ops = Vec::new();
    if !walk(pattern, &mut atoms, &mut ops) {
        return None;
    }
    // A successful walk pushes one operator per binary node visited, i.e.
    // exactly one fewer than the atoms it flattens.
    debug_assert_eq!(ops.len() + 1, atoms.len());
    let mut atoms = atoms.into_iter();
    let first = atoms.next()?;
    Some(Chain {
        first,
        tail: ops.into_iter().zip(atoms).collect(),
    })
}

/// A chain resolved against one index, with the DP's buffers: built once
/// per query, then run over each instance's activity-id column.
struct ChainCounter<'i> {
    index: &'i LogIndex,
    /// Per chain atom: the operator before it (`None` exactly for the
    /// first), its activity id (`None` if the log never runs it) and
    /// whether it is negated.
    steps: Vec<(Option<ChainOp>, Option<ActivityId>, bool)>,
    /// `cum[j]`: assignments of the first `j+1` atoms whose last record
    /// lies strictly before the current position.
    cum: Vec<usize>,
    /// `exact[j]`: the same, with the last record at the current
    /// position.
    exact: Vec<usize>,
}

impl<'i> ChainCounter<'i> {
    fn new(chain: &Chain, index: &'i LogIndex) -> Self {
        let steps: Vec<_> = chain
            .steps()
            .map(|(op, atom)| (op, index.activity_id(atom.activity.as_str()), atom.negated))
            .collect();
        let k = steps.len();
        ChainCounter {
            index,
            steps,
            cum: vec![0; k],
            exact: vec![0; k],
        }
    }

    /// Whether a positive atom names an activity the log never runs, so
    /// no instance can match.
    fn unmatchable(&self) -> bool {
        self.steps
            .iter()
            .any(|&(_, id, negated)| id.is_none() && !negated)
    }

    /// `|incL(chain)|` within instance `ordinal`.
    fn instance(&mut self, ordinal: usize) -> usize {
        self.cum.fill(0);
        self.exact.fill(0);
        for &activity in self.index.instance_activities(ordinal) {
            // Highest j first: `exact[j - 1]` still holds the previous
            // position's value when `~>` reads it.
            for j in (0..self.steps.len()).rev() {
                let (op_before, id, negated) = self.steps[j];
                self.exact[j] = if (Some(activity) == id) == negated {
                    0
                } else {
                    match op_before {
                        None => 1,
                        Some(ChainOp::Seq) => self.cum[j - 1],
                        Some(ChainOp::Cons) => self.exact[j - 1],
                    }
                };
            }
            // Fold this position into the cumulative counts *after*
            // computing exact (cum must lag by one position).
            for (cum, exact) in self.cum.iter_mut().zip(&self.exact) {
                *cum += exact;
            }
        }
        self.cum.last().copied().unwrap_or(0)
    }

    fn total(mut self) -> usize {
        if self.unmatchable() {
            return 0;
        }
        (0..self.index.num_instances())
            .map(|ordinal| self.instance(ordinal))
            .sum()
    }

    /// Whether some instance has a match; stops at the first.
    fn any(mut self) -> bool {
        !self.unmatchable()
            && (0..self.index.num_instances()).any(|ordinal| self.instance(ordinal) > 0)
    }
}

/// [`fast_count`] over a prebuilt index.
pub(crate) fn chain_count(index: &LogIndex, pattern: &Pattern) -> Option<usize> {
    Some(ChainCounter::new(&as_chain(pattern)?, index).total())
}

/// Whether a chain pattern has an incident, by the same DP, stopping at
/// the first instance that has one; `None` if the pattern is not a
/// supported chain.
pub(crate) fn chain_exists(index: &LogIndex, pattern: &Pattern) -> Option<bool> {
    Some(ChainCounter::new(&as_chain(pattern)?, index).any())
}

/// Counts `|incL(pattern)|` without materialising incidents, if the
/// pattern is a supported chain. Returns `None` (caller falls back to
/// full evaluation) otherwise. The log is indexed only for supported
/// chains; the DP then runs over the index's activity-id column.
///
/// # Examples
///
/// ```
/// use wlq_engine::{fast_count, Evaluator};
/// use wlq_log::paper;
///
/// let log = paper::figure3_log();
/// let p = "SeeDoctor -> PayTreatment".parse().unwrap();
/// assert_eq!(fast_count(&log, &p), Some(Evaluator::new(&log).count(&p)));
/// ```
#[must_use]
pub fn fast_count(log: &Log, pattern: &Pattern) -> Option<usize> {
    let chain = as_chain(pattern)?;
    Some(ChainCounter::new(&chain, &LogIndex::build(log)).total())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use proptest::prelude::{prop, proptest, ProptestConfig};
    use wlq_log::{attrs, paper, LogBuilder, LogRecord};

    use crate::eval::Strategy;

    fn check(log: &Log, src: &str) {
        let p: Pattern = src.parse().unwrap();
        let fast = fast_count(log, &p).unwrap_or_else(|| panic!("{src} not a chain"));
        // The DP must agree with every enumeration path: the naive
        // oracle's count, and the planned executor's full enumeration
        // (its `count` takes this same DP for chains).
        for strategy in [Strategy::NaivePaper, Strategy::Planned] {
            let eval = Evaluator::with_strategy(log, strategy);
            assert_eq!(fast, eval.count(&p), "{src} under {strategy:?}");
            assert_eq!(fast, eval.evaluate(&p).len(), "{src} under {strategy:?}");
        }
    }

    #[test]
    fn chain_counts_match_enumeration_on_figure3() {
        let log = paper::figure3_log();
        for src in [
            "SeeDoctor",
            "!SeeDoctor",
            "SeeDoctor -> PayTreatment",
            "SeeDoctor ~> PayTreatment",
            "GetRefer ~> CheckIn -> GetReimburse",
            "SeeDoctor -> SeeDoctor",
            "START -> !START -> END",
            "SeeDoctor -> UpdateRefer -> GetReimburse",
        ] {
            check(&log, src);
        }
    }

    #[test]
    fn unsupported_shapes_return_none() {
        let log = paper::figure3_log();
        for src in [
            "A | B",
            "A & B",
            "(A | B) -> C",
            "A -> (B & C)",
            "GetRefer[out.balance > 100]",
        ] {
            let p: Pattern = src.parse().unwrap();
            assert_eq!(fast_count(&log, &p), None, "{src}");
        }
    }

    #[test]
    fn planner_routes_counts_through_the_right_path() {
        let log = paper::figure3_log();
        let planned = Evaluator::with_strategy(&log, Strategy::Planned);
        let reference = Evaluator::with_strategy(&log, Strategy::NaivePaper);
        // Nested `~>`/`->` parenthesisations flatten to chains: the plan
        // flags the counting DP and the count matches enumeration.
        for src in [
            "SeeDoctor -> (UpdateRefer -> GetReimburse)",
            "(GetRefer ~> CheckIn) -> GetReimburse",
            "START -> (!START ~> END)",
        ] {
            let p: Pattern = src.parse().unwrap();
            let plan = planned.physical_plan(&p).unwrap();
            assert!(plan.is_counting_chain(), "{src} should take the DP");
            assert_eq!(planned.count(&p), reference.count(&p), "{src}");
        }
        // Choice/parallel/predicates must NOT be flagged — they fall back
        // to plan execution, still with the correct count.
        for src in [
            "SeeDoctor | UpdateRefer",
            "SeeDoctor & PayTreatment",
            "(CheckIn | SeeDoctor) -> GetReimburse",
            "GetRefer[out.balance > 100] -> SeeDoctor",
        ] {
            let p: Pattern = src.parse().unwrap();
            let plan = planned.physical_plan(&p).unwrap();
            assert!(!plan.is_counting_chain(), "{src} must not take the DP");
            assert_eq!(planned.count(&p), reference.count(&p), "{src}");
        }
    }

    #[test]
    fn quadratic_output_counted_in_linear_time() {
        // n A's then n B's: |incL(A -> B)| = n² but the count never
        // materialises it.
        let n = 500;
        let mut b = LogBuilder::new();
        let w = b.start_instance();
        for _ in 0..n {
            b.append(w, "A", attrs! {}, attrs! {}).unwrap();
        }
        for _ in 0..n {
            b.append(w, "B", attrs! {}, attrs! {}).unwrap();
        }
        let log = b.build().unwrap();
        let p: Pattern = "A -> B".parse().unwrap();
        assert_eq!(fast_count(&log, &p), Some(n * n));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random multi-instance logs with sparse wids × random chains:
        /// DP count ≡ enumeration count, and the early-exit existence
        /// check ≡ count > 0.
        #[test]
        fn fast_count_equals_enumeration(
            instances in prop::collection::vec(prop::collection::vec(0..3usize, 0..10), 1..5),
            chain in prop::collection::vec((0..4usize, prop::bool::ANY, prop::bool::ANY), 1..4),
        ) {
            // "D" never occurs in the log: an unknown activity in a chain.
            const NAMES: [&str; 4] = ["A", "B", "C", "D"];
            // `LogBuilder` numbers instances 1..=n; `Log::new` takes any.
            const WIDS: [u64; 4] = [3, 7, 1_000_000, u64::MAX - 1];
            // Instances interleave round-robin, each opening with START.
            let mut records = Vec::new();
            let longest = instances.iter().map(Vec::len).max().unwrap_or(0);
            for step in 0..=longest {
                for (tasks, wid) in instances.iter().zip(WIDS) {
                    let lsn = records.len() as u64 + 1;
                    if step == 0 {
                        records.push(LogRecord::start(lsn, wid));
                    } else if let Some(&t) = tasks.get(step - 1) {
                        let is_lsn = step as u32 + 1;
                        records.push(LogRecord::new(lsn, wid, is_lsn, NAMES[t], attrs! {}, attrs! {}));
                    }
                }
            }
            let log = Log::new(records).unwrap();

            let mut pattern: Option<Pattern> = None;
            for &(name, negated, consecutive) in &chain {
                let atom = if negated {
                    Pattern::not_atom(NAMES[name])
                } else {
                    Pattern::atom(NAMES[name])
                };
                pattern = Some(match pattern {
                    None => atom,
                    Some(acc) if consecutive => acc.cons(atom),
                    Some(acc) => acc.seq(atom),
                });
            }
            let pattern = pattern.expect("nonempty chain");
            let fast = fast_count(&log, &pattern).expect("chain supported");
            let slow = Evaluator::with_strategy(&log, Strategy::NaivePaper).count(&pattern);
            assert_eq!(fast, slow, "{pattern} on {log}");
            let planned = Evaluator::new(&log);
            assert_eq!(planned.count(&pattern), slow, "{pattern} on {log}");
            assert_eq!(planned.exists(&pattern), slow > 0, "{pattern} on {log}");
            let index = LogIndex::build(&log);
            assert_eq!(chain_exists(&index, &pattern), Some(slow > 0), "{pattern} on {log}");
            assert_eq!(chain_count(&index, &pattern), Some(slow), "{pattern} on {log}");
        }
    }
}
