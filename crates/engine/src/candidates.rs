//! Candidate instances: the instances that can hold an incident of a
//! query.
//!
//! By Definition 4 an incident lies inside one instance. An incident of
//! `p1 ⊙ p2`, `p1 → p2` or `p1 ⊕ p2` contains an incident of both
//! operands, and one of `p1 ⊗ p2` an incident of either. An atom `t`,
//! with or without predicates, matches only records of activity `t`. So
//! an instance holds an incident of `p` only if it is in `p`'s candidate
//! set:
//!
//! - `t`: the instances in which `t` occurs (none if it never does; all
//!   of them, with nothing to merge, if every instance runs it);
//! - `¬t`: every instance;
//! - `p1 ⊗ p2`: the union of the operands' sets;
//! - `p1 ⊙ p2`, `p1 → p2`, `p1 ⊕ p2`: their intersection.
//!
//! The planner's rewrites (Theorems 2–5) are equivalent patterns, with the
//! same incidents, so the set is built from the query as written. The
//! lists are the index's [`activity_instances`](LogIndex::activity_instances),
//! merged lazily over borrowed slices: a query holds one node per pattern
//! node, never a copy of an instance list. The naive oracle visits
//! [`every`](Candidates::every) instance instead.

use wlq_log::LogIndex;
use wlq_pattern::{Op, Pattern};

/// The candidate instance ordinals of one query, ascending.
#[derive(Debug)]
pub(crate) struct Candidates<'i> {
    root: Node<'i>,
    /// The smallest ordinal not yet yielded; `None` once past `u32::MAX`.
    next: Option<u32>,
}

/// One node of the merge: each answers [`seek`](Node::seek) with its
/// smallest ordinal at or past a target, where a node's targets never
/// decrease.
#[derive(Debug)]
enum Node<'i> {
    /// Every ordinal below `end`.
    All { end: u32 },
    /// The ordinals of a sorted list not yet passed.
    List(&'i [u32]),
    /// The ordinals of either side (`⊗`).
    Union(Box<Node<'i>>, Box<Node<'i>>),
    /// The ordinals of both sides (`⊙`, `→`, `⊕`).
    Both(Box<Node<'i>>, Box<Node<'i>>),
}

impl<'i> Node<'i> {
    fn of(pattern: &Pattern, index: &'i LogIndex) -> Self {
        match pattern {
            Pattern::Atom(atom) if atom.negated => Node::every(index),
            Pattern::Atom(atom) => {
                let list = index
                    .activity_id(atom.activity.as_str())
                    .map_or(&[][..], |id| index.activity_instances(id));
                // A list of every instance (`START`, or a task every
                // instance runs) rules nothing out.
                if list.len() == index.num_instances() {
                    Node::every(index)
                } else {
                    Node::List(list)
                }
            }
            Pattern::Binary { op, left, right } => {
                let (left, right) = (Node::of(left, index), Node::of(right, index));
                match (op, left, right) {
                    (Op::Choice, all @ Node::All { .. }, _)
                    | (Op::Choice, _, all @ Node::All { .. }) => all,
                    (Op::Choice, Node::List([]), other) | (Op::Choice, other, Node::List([])) => {
                        other
                    }
                    (Op::Choice, left, right) => Node::Union(Box::new(left), Box::new(right)),
                    (_, Node::All { .. }, other) | (_, other, Node::All { .. }) => other,
                    (_, Node::List([]), _) | (_, _, Node::List([])) => Node::List(&[]),
                    (_, left, right) => Node::Both(Box::new(left), Box::new(right)),
                }
            }
        }
    }

    /// Every instance of `index`. Ordinals fit in `u32`: an instance has
    /// at least one record and a log at most `u32::MAX` of them.
    fn every(index: &LogIndex) -> Self {
        Node::All {
            end: index.num_instances() as u32,
        }
    }

    /// The smallest ordinal at or past `target`, if any.
    fn seek(&mut self, target: u32) -> Option<u32> {
        match self {
            Node::All { end } => (target < *end).then_some(target),
            Node::List(list) => {
                // Targets never decrease, so passed ordinals are dropped.
                while let [first, rest @ ..] = *list {
                    if *first >= target {
                        return Some(*first);
                    }
                    *list = rest;
                }
                None
            }
            Node::Union(left, right) => match (left.seek(target), right.seek(target)) {
                (Some(l), Some(r)) => Some(l.min(r)),
                (l, r) => l.or(r),
            },
            Node::Both(left, right) => {
                // Leapfrog: each side seeks the other's candidate until
                // they meet.
                let mut target = target;
                loop {
                    let l = left.seek(target)?;
                    let r = right.seek(l)?;
                    if l == r {
                        return Some(l);
                    }
                    target = r;
                }
            }
        }
    }
}

impl<'i> Candidates<'i> {
    /// The candidates of `pattern` over `index` (see the module docs).
    pub(crate) fn new(pattern: &Pattern, index: &'i LogIndex) -> Self {
        Candidates {
            root: Node::of(pattern, index),
            next: Some(0),
        }
    }

    /// Every instance of `index`, in ordinal order.
    pub(crate) fn every(index: &LogIndex) -> Self {
        Candidates {
            root: Node::every(index),
            next: Some(0),
        }
    }
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let ordinal = self.root.seek(self.next?)?;
        self.next = ordinal.checked_add(1);
        Some(ordinal as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Query, Strategy};
    use proptest::prelude::{prop, prop_assert, prop_assert_eq, prop_oneof, proptest, Just};
    use proptest::strategy::Strategy as _;
    use std::collections::BTreeSet;
    use wlq_log::{attrs, paper, AttrMap, Log, LogBuilder, Wid};

    fn candidates(src: &str) -> Vec<usize> {
        let log = paper::figure3_log();
        Candidates::new(&src.parse().unwrap(), log.index()).collect()
    }

    #[test]
    fn rules_on_figure3() {
        // Figure 3: wids 1 and 2 run CheckIn, only wid 2 runs UpdateRefer,
        // every instance runs GetRefer, none runs Nope.
        assert_eq!(candidates("CheckIn"), [0, 1]);
        assert_eq!(candidates("UpdateRefer[balance > 0]"), [1]);
        assert_eq!(candidates("Nope"), [] as [usize; 0]);
        assert_eq!(candidates("!CheckIn"), [0, 1, 2]);
        assert_eq!(candidates("UpdateRefer | Nope"), [1]);
        assert_eq!(candidates("Nope | !Nope"), [0, 1, 2]);
        assert_eq!(candidates("GetRefer -> CheckIn"), [0, 1]);
        assert_eq!(candidates("CheckIn ~> UpdateRefer"), [1]);
        assert_eq!(candidates("CheckIn & Nope"), [] as [usize; 0]);
        assert_eq!(candidates("!GetRefer -> CheckIn"), [0, 1]);
        assert_eq!(candidates("(UpdateRefer | CheckIn) & GetRefer"), [0, 1]);
    }

    #[test]
    fn every_visits_all_instances() {
        let log = paper::figure3_log();
        let all: Vec<usize> = Candidates::every(log.index()).collect();
        assert_eq!(all, [0, 1, 2]);
    }

    fn list(list: &[u32]) -> Box<Node<'_>> {
        Box::new(Node::List(list))
    }

    fn run(root: Node<'_>) -> Vec<usize> {
        Candidates {
            root,
            next: Some(0),
        }
        .collect()
    }

    #[test]
    fn leapfrog_meets_on_interleaved_lists() {
        let a = [1, 4, 5, 9, 12, 20];
        let b = [0, 4, 6, 9, 13, 20, 21];
        let c = [2, 3, 9, 20];
        assert_eq!(run(Node::Both(list(&a), list(&b))), [4, 9, 20]);
        let both = Box::new(Node::Both(list(&a), list(&b)));
        assert_eq!(run(Node::Union(both, list(&c))), [2, 3, 4, 9, 20]);
        let both = Box::new(Node::Both(list(&a), list(&b)));
        assert_eq!(run(Node::Both(both, list(&c))), [9, 20]);
        assert_eq!(run(Node::List(&[u32::MAX])), [u32::MAX as usize]);
    }

    /// A log of the fuzz generator's shape: 1–6 interleaved instances over
    /// `T0..T{alphabet}`, some closed by `END`, some records writing a
    /// `balance`. Each event picks an open instance and closes it (about
    /// one in twelve) or appends an activity, with a `balance` about one
    /// time in three.
    fn fuzz_shaped_log(
        alphabet: usize,
        instances: usize,
        events: &[(usize, u32, u32, i64)],
    ) -> Log {
        let mut b = LogBuilder::new();
        let mut open: Vec<Wid> = (0..instances).map(|_| b.start_instance()).collect();
        for &(pick, dice, name, balance) in events {
            if open.is_empty() {
                break;
            }
            let wid = open[pick % open.len()];
            if dice < 8 {
                b.end_instance(wid).unwrap();
                open.retain(|&w| w != wid);
                continue;
            }
            let output = if dice < 38 {
                attrs! { "balance" => balance }
            } else {
                AttrMap::new()
            };
            let name = format!("T{}", name as usize % alphabet);
            b.append(wid, name, AttrMap::new(), output).unwrap();
        }
        b.build().unwrap()
    }

    /// Pattern text over `T0..T5` (`T5` and beyond some logs' alphabets)
    /// and `Zmissing`, which no log runs, with negations and `balance`
    /// predicates.
    fn pattern_text() -> impl proptest::strategy::Strategy<Value = String> {
        let name = prop_oneof![
            4 => (0..6usize).prop_map(|i| format!("T{i}")),
            1 => Just("Zmissing".to_string()),
        ];
        let leaf = (name, 0..4u32, 0..4u32, 0..10_000i64).prop_map(|(name, neg, pred, k)| {
            let not = if neg == 0 { "!" } else { "" };
            if pred == 0 {
                format!("{not}{name}[balance > {k}]")
            } else {
                format!("{not}{name}")
            }
        });
        leaf.prop_recursive(3, 12, 2, |inner| {
            (
                prop::sample::select(vec!["~>", "->", "|", "&"]),
                inner.clone(),
                inner,
            )
                .prop_map(|(op, l, r)| format!("({l}) {op} ({r})"))
        })
    }

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every instance the naive oracle matches is a candidate, and the
        /// planned strategy, which visits only candidates, matches the
        /// same instances.
        #[test]
        fn every_matched_instance_is_a_candidate(
            alphabet in 2..6usize,
            instances in 1..7usize,
            events in prop::collection::vec((0..6usize, 0..100u32, 0..5u32, 0..10_000i64), 0..31),
            src in pattern_text(),
        ) {
            let log = fuzz_shaped_log(alphabet, instances, &events);
            let pattern = src.parse().unwrap();
            let index = log.index();
            let candidates: BTreeSet<Wid> = Candidates::new(&pattern, index)
                .map(|ordinal| index.instance_wids()[ordinal])
                .collect();
            let matching = |strategy| {
                let q = Query::new(pattern.clone()).strategy(strategy);
                q.find(&log).unwrap().wids().collect::<Vec<_>>()
            };
            let matched = matching(Strategy::NaivePaper);
            for wid in &matched {
                prop_assert!(candidates.contains(wid), "{} matched {:?}, candidates {:?}", src, wid, candidates);
            }
            prop_assert_eq!(matching(Strategy::Planned), matched, "{}", src);
        }
    }
}
