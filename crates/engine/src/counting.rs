//! Enumeration-free counting for the countable fragment.
//!
//! `count`/`exists` need `|incL(p)|`, not `incL(p)`. For the patterns of
//! the *countable fragment* that number follows from per-instance counts
//! without materialising a single incident, which breaks through the
//! output bound of Lemma 1:
//!
//! * an **activity class** is a `|`-tree of predicate-free atoms, negated
//!   ones included: `(T3 | T4)` admits T3 and T4, `!T0` every activity
//!   but T0. Its incidents are the singletons of the records it admits,
//!   so it is counted from postings;
//! * a **class chain** `c1 θ1 c2 θ2 … ck` (each `θ` is `~>` or `->`, any
//!   parenthesisation) is counted by a left-to-right dynamic program over
//!   each instance's activity-id column, in `O(m·k)`;
//! * a **product** `p & q` of countable patterns counts as
//!   `count(p)·count(q)` per instance, when the pattern alone proves that
//!   no activity satisfies a class of both sides.
//!
//! Each incident is counted exactly once:
//!
//! * a chain's incidents are strictly increasing position tuples, one
//!   record per step, so distinct assignments are distinct incident sets;
//! * in a product with class-disjoint sides every `o1 ∈ incL(p)` and
//!   `o2 ∈ incL(q)` are disjoint, so every pair combines, and a union
//!   splits back into exactly one pair: `o1` is its part whose activities
//!   lie in `p`'s classes.
//!
//! Disjointness is decided on the pattern, not on the log, so `A & A`,
//! `!A & B` and `(A | B) & B` are outside the fragment and stay on the
//! executor.
//!
//! This module owns the fragment: [`Query`](crate::Query)'s
//! `count`/`exists` ask [`count`]/[`exists`] first, on the pattern as written, under
//! [`Strategy::Planned`](crate::Strategy::Planned), and the planner
//! reports [`is_countable`]'s verdict on the query. The counters walk
//! only the query's candidate instances (`crate::candidates`): the
//! others hold no incident, so they add nothing to a count.
//!
//! Counts saturate at `usize::MAX`. Every value the counters hold is
//! `min(true count, usize::MAX)`: saturating addition and multiplication
//! of non-negative numbers preserve that, so a result below `usize::MAX`
//! is exact even when a prefix count on the way saturated.

use wlq_log::{ActivityId, Log, LogIndex, PostingsCursor};
use wlq_pattern::{Atom, Op, Pattern};

use crate::candidates::Candidates;

/// A set of activities a pattern can describe without the log: exactly
/// `names`, or, when `complement` is set, every activity except `names`.
#[derive(Debug, Clone)]
struct Class<'p> {
    complement: bool,
    /// Sorted and deduplicated.
    names: Vec<&'p str>,
}

impl<'p> Class<'p> {
    /// `t` admits `{t}`; `!t` admits everything but `t`.
    fn atom(atom: &'p Atom) -> Self {
        Class {
            complement: atom.negated,
            names: vec![atom.activity.as_str()],
        }
    }

    fn admits(&self, name: &str) -> bool {
        self.names.binary_search(&name).is_ok() != self.complement
    }

    fn union(self, other: Self) -> Self {
        match (self.complement, other.complement) {
            (false, false) => {
                let mut names = self.names;
                names.extend(other.names);
                names.sort_unstable();
                names.dedup();
                Class {
                    complement: false,
                    names,
                }
            }
            // Excluded from the union: what neither side admits.
            (true, _) => Class {
                complement: true,
                names: self
                    .names
                    .into_iter()
                    .filter(|name| !other.admits(name))
                    .collect(),
            },
            (false, true) => other.union(self),
        }
    }

    /// Whether no activity name at all is admitted by both. Two
    /// complements always share one.
    fn is_disjoint(&self, other: &Self) -> bool {
        match (self.complement, other.complement) {
            (true, true) => false,
            (false, _) => self.names.iter().all(|name| !other.admits(name)),
            (true, false) => other.is_disjoint(self),
        }
    }

    /// The distinct ids of the log's activities in `names`; names the log
    /// never runs have none.
    fn named_ids<'i>(&'i self, index: &'i LogIndex) -> impl Iterator<Item = ActivityId> + 'i {
        self.names.iter().filter_map(|name| index.activity_id(name))
    }
}

/// The operator linking two adjacent chain steps: a strict subset of
/// [`Op`], so a chain holds no choice or parallel operator by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainOp {
    /// `~>` — the next record is the immediate successor.
    Cons,
    /// `->` — the next record is any later record.
    Seq,
}

/// A pattern of the countable fragment, as written: log-independent.
#[derive(Debug, Clone)]
enum Shape<'p> {
    /// A class chain. The first class is stored apart from the
    /// `(operator, class)` tail, so every later step has an operator by
    /// construction.
    Chain {
        first: Class<'p>,
        tail: Vec<(ChainOp, Class<'p>)>,
    },
    /// `left & right` over class-disjoint sides.
    Product(Box<Shape<'p>>, Box<Shape<'p>>),
}

impl<'p> Shape<'p> {
    /// `pattern` in the fragment, or `None` if it is outside.
    fn of(pattern: &'p Pattern) -> Option<Self> {
        if let Pattern::Binary {
            op: Op::Parallel,
            left,
            right,
        } = pattern
        {
            let (left, right) = (Shape::of(left)?, Shape::of(right)?);
            return left
                .domain()
                .is_disjoint(&right.domain())
                .then(|| Shape::Product(Box::new(left), Box::new(right)));
        }
        let mut classes = Vec::new();
        let mut ops = Vec::new();
        chain(pattern, &mut classes, &mut ops)?;
        let mut classes = classes.into_iter();
        let first = classes.next()?;
        Some(Shape::Chain {
            first,
            tail: ops.into_iter().zip(classes).collect(),
        })
    }

    /// Every activity some step admits.
    fn domain(&self) -> Class<'p> {
        match self {
            Shape::Chain { first, tail } => tail
                .iter()
                .fold(first.clone(), |acc, (_, class)| acc.union(class.clone())),
            Shape::Product(left, right) => left.domain().union(right.domain()),
        }
    }
}

/// Flattens a `~>`/`->` tree into its classes and the operators between
/// them, or `None` if some operand is not a class.
fn chain<'p>(p: &'p Pattern, classes: &mut Vec<Class<'p>>, ops: &mut Vec<ChainOp>) -> Option<()> {
    match p {
        Pattern::Binary {
            op: op @ (Op::Consecutive | Op::Sequential),
            left,
            right,
        } => {
            // The operator sits between left's last step and right's
            // first, in any parenthesisation.
            chain(left, classes, ops)?;
            ops.push(if *op == Op::Consecutive {
                ChainOp::Cons
            } else {
                ChainOp::Seq
            });
            chain(right, classes, ops)
        }
        _ => {
            classes.push(class(p)?);
            Some(())
        }
    }
}

/// A `|`-tree of predicate-free atoms as the class it admits.
fn class(p: &Pattern) -> Option<Class<'_>> {
    match p {
        Pattern::Atom(atom) => atom.predicates.is_empty().then(|| Class::atom(atom)),
        Pattern::Binary {
            op: Op::Choice,
            left,
            right,
        } => Some(class(left)?.union(class(right)?)),
        Pattern::Binary { .. } => None,
    }
}

/// A lone class resolved against one index: a cursor over the postings
/// of each of its names the log runs. The counters visit ascending
/// ordinals, so each cursor finds an instance's postings in amortized
/// constant time, and without a search for an activity every instance
/// runs; their lengths are the named records.
struct ClassCounter<'i> {
    complement: bool,
    named: Vec<PostingsCursor<'i>>,
}

impl ClassCounter<'_> {
    fn instance(&mut self, index: &LogIndex, ordinal: usize) -> usize {
        let named: usize = self
            .named
            .iter_mut()
            .map(|cursor| cursor.seek(ordinal).len())
            .sum();
        if self.complement {
            index
                .instance_activities(ordinal)
                .len()
                .saturating_sub(named)
        } else {
            named
        }
    }
}

/// A class chain of at least two steps resolved against one index, with
/// the DP's buffers: built once per query, run over each instance.
struct ChainCounter {
    /// `links[j - 1]` joins step `j - 1` to step `j`.
    links: Vec<ChainOp>,
    /// Mask words per activity id.
    words: usize,
    /// `table[id * words..][..words]`: bit `j % 64` of word `j / 64` is
    /// set when activity `id` satisfies step `j`. One more all-zero row
    /// at the end stands for "no record" before an instance's first.
    table: Vec<u64>,
    /// Some step admits no activity of the log.
    unmatchable: bool,
    /// `cum[j]`: assignments of steps `0..=j` whose last record lies
    /// strictly before the current position.
    cum: Vec<usize>,
    /// `exact[j]`: the same, with the last record at the position where
    /// step `j` last matched; `~>` reads it only when that was the
    /// previous position, as the previous record's row tells.
    exact: Vec<usize>,
}

impl ChainCounter {
    fn new(first: &Class<'_>, tail: &[(ChainOp, Class<'_>)], index: &LogIndex) -> Self {
        let k = tail.len() + 1;
        let words = k.div_ceil(64);
        let activities = index.activities().len();
        let mut table = vec![0; (activities + 1) * words];
        let mut unmatchable = false;
        let classes = std::iter::once(first).chain(tail.iter().map(|(_, class)| class));
        for (j, class) in classes.enumerate() {
            let (word, bit) = (j / 64, 1u64 << (j % 64));
            let mut named = 0;
            if class.complement {
                for row in table.chunks_exact_mut(words).take(activities) {
                    row[word] |= bit;
                }
                for id in class.named_ids(index) {
                    table[id.index() * words + word] &= !bit;
                    named += 1;
                }
                unmatchable |= named == activities;
            } else {
                for id in class.named_ids(index) {
                    table[id.index() * words + word] |= bit;
                    named += 1;
                }
                unmatchable |= named == 0;
            }
        }
        ChainCounter {
            links: tail.iter().map(|&(op, _)| op).collect(),
            words,
            table,
            unmatchable,
            cum: vec![0; k],
            exact: vec![0; k],
        }
    }

    /// The chain's incidents within instance `ordinal`.
    fn instance(&mut self, index: &LogIndex, ordinal: usize) -> usize {
        if self.words == 1 {
            self.walk::<1>(index, ordinal)
        } else {
            self.walk::<0>(index, ordinal)
        }
    }

    /// The DP over one instance, with `WORDS` mask words per activity, or
    /// [`Self::words`] when `WORDS` is 0. Chains of up to 64 steps take
    /// `WORDS = 1`, which the compiler turns into a single table load per
    /// record.
    fn walk<const WORDS: usize>(&mut self, index: &LogIndex, ordinal: usize) -> usize {
        let ChainCounter {
            links,
            words,
            table,
            cum,
            exact,
            ..
        } = self;
        let words = if WORDS == 0 { *words } else { WORDS };
        cum.fill(0);
        // Row start of the previous record's activity.
        let mut before = table.len() - words;
        for &activity in index.instance_activities(ordinal) {
            let start = activity.index() * words;
            let Some(row) = table.get(start..start + words) else {
                continue;
            };
            // Highest step first: step `j` reads `cum[j - 1]` and
            // `exact[j - 1]` before this position updates them, so `cum`
            // lags by one position and `~>` sees the previous one.
            for (word, &mask) in row.iter().enumerate().rev() {
                let mut bits = mask;
                while bits != 0 {
                    let bit = 63 - bits.leading_zeros() as usize;
                    bits ^= 1 << bit;
                    let j = word * 64 + bit;
                    let n = match j.checked_sub(1) {
                        None => 1,
                        Some(i) => match links[i] {
                            ChainOp::Seq => cum[i],
                            ChainOp::Cons if table[before + i / 64] >> (i % 64) & 1 == 1 => {
                                exact[i]
                            }
                            ChainOp::Cons => 0,
                        },
                    };
                    exact[j] = n;
                    cum[j] = cum[j].saturating_add(n);
                }
            }
            before = start;
        }
        cum.last().copied().unwrap_or(0)
    }
}

/// A [`Shape`] resolved against one index.
enum Counter<'i> {
    Class(ClassCounter<'i>),
    Chain(ChainCounter),
    Product(Box<Counter<'i>>, Box<Counter<'i>>),
}

impl<'i> Counter<'i> {
    fn new(shape: &Shape<'_>, index: &'i LogIndex) -> Self {
        match shape {
            Shape::Chain { first, tail } if tail.is_empty() => Counter::Class(ClassCounter {
                complement: first.complement,
                named: (first.named_ids(index))
                    .map(|id| index.postings_cursor(id))
                    .collect(),
            }),
            Shape::Chain { first, tail } => Counter::Chain(ChainCounter::new(first, tail, index)),
            Shape::Product(left, right) => Counter::Product(
                Box::new(Counter::new(left, index)),
                Box::new(Counter::new(right, index)),
            ),
        }
    }

    /// Whether no instance can have an incident.
    fn unmatchable(&self) -> bool {
        match self {
            Counter::Class(class) => !class.complement && class.named.is_empty(),
            Counter::Chain(chain) => chain.unmatchable,
            Counter::Product(left, right) => left.unmatchable() || right.unmatchable(),
        }
    }

    /// The incidents within instance `ordinal`.
    fn instance(&mut self, index: &LogIndex, ordinal: usize) -> usize {
        match self {
            Counter::Class(class) => class.instance(index, ordinal),
            Counter::Chain(chain) => chain.instance(index, ordinal),
            Counter::Product(left, right) => match left.instance(index, ordinal) {
                0 => 0,
                n => n.saturating_mul(right.instance(index, ordinal)),
            },
        }
    }

    /// The incidents within the `candidates` instances; the others hold
    /// none.
    fn total(mut self, index: &LogIndex, candidates: Candidates<'_>) -> usize {
        if self.unmatchable() {
            return 0;
        }
        candidates.fold(0, |total: usize, ordinal| {
            total.saturating_add(self.instance(index, ordinal))
        })
    }

    /// Whether some of the `candidates` instances has an incident; stops
    /// at the first.
    fn any(mut self, index: &LogIndex, mut candidates: Candidates<'_>) -> bool {
        !self.unmatchable() && candidates.any(|ordinal| self.instance(index, ordinal) > 0)
    }
}

/// Whether `pattern`, as written, is in the countable fragment.
pub(crate) fn is_countable(pattern: &Pattern) -> bool {
    Shape::of(pattern).is_some()
}

/// `|incL(pattern)|` over a prebuilt index, saturating at `usize::MAX`;
/// `None` if the pattern is outside the fragment.
pub(crate) fn count(index: &LogIndex, pattern: &Pattern) -> Option<usize> {
    let counter = Counter::new(&Shape::of(pattern)?, index);
    Some(counter.total(index, Candidates::new(pattern, index)))
}

/// Whether `pattern` has an incident, stopping at the first instance
/// with one; `None` if the pattern is outside the fragment.
pub(crate) fn exists(index: &LogIndex, pattern: &Pattern) -> Option<bool> {
    let counter = Counter::new(&Shape::of(pattern)?, index);
    Some(counter.any(index, Candidates::new(pattern, index)))
}

/// Counts `|incL(pattern)|` without materialising incidents, if the
/// pattern is in the countable fragment (see the module docs): a
/// `~>`/`->` chain of activity classes, or a `&` of such patterns whose
/// classes cannot share an activity. Returns `None` (caller falls back to
/// full evaluation) otherwise; the log is indexed only for countable
/// patterns.
///
/// The count saturates at `usize::MAX`: a result of `usize::MAX` means
/// "at least that many". [`Query::count`](crate::Query::count) reports it
/// as [`EngineError::CountOverflow`](crate::EngineError::CountOverflow).
///
/// # Examples
///
/// ```
/// use wlq_engine::{fast_count, Query};
/// use wlq_log::paper;
///
/// let log = paper::figure3_log();
/// for src in ["SeeDoctor -> PayTreatment", "(SeeDoctor | CheckIn) -> !PayTreatment"] {
///     let q = Query::parse(src)?;
///     assert_eq!(fast_count(&log, q.pattern()), Some(q.count(&log)?));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn fast_count(log: &Log, pattern: &Pattern) -> Option<usize> {
    count(log.index(), pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::{EngineError, Query};
    use proptest::prelude::{prop, proptest, ProptestConfig};
    use wlq_log::{attrs, paper, LogBuilder, LogRecord};
    use wlq_workflow::generator;

    use crate::eval::Strategy;

    fn check(log: &Log, src: &str) {
        let p: Pattern = src.parse().unwrap();
        let fast = fast_count(log, &p).unwrap_or_else(|| panic!("{src} not countable"));
        // The DP must agree with every enumeration path: the naive
        // oracle's count, and the planned executor's full enumeration
        // (its `count` takes this same DP for countable patterns).
        for strategy in [Strategy::NaivePaper, Strategy::Planned] {
            let eval = Evaluator::with_strategy(log, strategy);
            assert_eq!(fast, eval.count(&p), "{src} under {strategy:?}");
            assert_eq!(fast, eval.evaluate(&p).len(), "{src} under {strategy:?}");
        }
    }

    /// One instance: after START, `n` records of each `(activity, n)`
    /// in turn.
    fn blocks(runs: &[(&str, usize)]) -> Log {
        let mut b = LogBuilder::new();
        let w = b.start_instance();
        for &(activity, n) in runs {
            for _ in 0..n {
                b.append(w, activity, attrs! {}, attrs! {}).unwrap();
            }
        }
        b.build().unwrap()
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
    fn class_chains_and_disjoint_products_match_enumeration_on_figure3() {
        let log = paper::figure3_log();
        for src in [
            // Classes: choices of positive and negated atoms.
            "SeeDoctor | PayTreatment",
            "SeeDoctor | SeeDoctor",
            "SeeDoctor | !SeeDoctor",
            "!SeeDoctor | !PayTreatment",
            "!SeeDoctor | SeeDoctor | PayTreatment",
            "Unknown | GetRefer",
            "!Unknown",
            // Class chains.
            "(SeeDoctor | CheckIn) -> !PayTreatment",
            "(GetRefer | Unknown) ~> CheckIn",
            "(UpdateRefer | TakeTreatment) -> (GetReimburse | !START)",
            "!START ~> (!SeeDoctor | PayTreatment) -> END",
            "(SeeDoctor | !SeeDoctor) ~> (SeeDoctor | !SeeDoctor)",
            "Unknown -> (SeeDoctor | PayTreatment)",
            // Class-disjoint products.
            "SeeDoctor & PayTreatment",
            "!SeeDoctor & SeeDoctor",
            "(GetRefer ~> CheckIn) & (SeeDoctor -> PayTreatment)",
            "(SeeDoctor | CheckIn) & (PayTreatment | GetReimburse) & UpdateRefer",
            "(SeeDoctor -> SeeDoctor) & (PayTreatment | Unknown)",
            "SeeDoctor & Unknown",
            "(!SeeDoctor | PayTreatment) & SeeDoctor",
        ] {
            check(&log, src);
        }
    }

    #[test]
    fn unsupported_shapes_return_none() {
        let log = paper::figure3_log();
        for src in [
            "A -> (B & C)",
            "(A & B) ~> C",
            "(A -> B) | C",
            "(A | B) & B",
            "GetRefer[out.balance > 100]",
            "GetRefer[out.balance > 100] | SeeDoctor",
        ] {
            let p: Pattern = src.parse().unwrap();
            assert_eq!(fast_count(&log, &p), None, "{src}");
        }
    }

    #[test]
    fn overlapping_products_stay_on_the_executor() {
        // `A & A` over n A's: C(n, 2) unordered pairs, not the n² a
        // product would count.
        let n = 30;
        let log = blocks(&[("A", n)]);
        let p: Pattern = "A & A".parse().unwrap();
        assert_eq!(fast_count(&log, &p), None);
        assert_eq!(Evaluator::new(&log).count(&p), n * (n - 1) / 2);
        assert_eq!(Query::new(p).count(&log), Ok(n * (n - 1) / 2));

        let log = paper::figure3_log();
        let naive = Evaluator::with_strategy(&log, Strategy::NaivePaper);
        let planned = Evaluator::new(&log);
        for src in [
            "SeeDoctor & SeeDoctor",
            "!SeeDoctor & PayTreatment",
            "!SeeDoctor & !PayTreatment",
            "(SeeDoctor | PayTreatment) & PayTreatment",
            "(SeeDoctor -> PayTreatment) & PayTreatment",
            "(START -> !START) & END",
        ] {
            let p: Pattern = src.parse().unwrap();
            assert_eq!(fast_count(&log, &p), None, "{src}");
            let expected = naive.count(&p);
            assert_eq!(planned.count(&p), expected, "{src}");
            assert_eq!(planned.exists(&p), expected > 0, "{src}");
            assert_eq!(Query::new(p).count(&log), Ok(expected), "{src}");
        }
    }

    #[test]
    fn planner_routes_counts_through_the_right_path() {
        let log = paper::figure3_log();
        let planned = Evaluator::with_strategy(&log, Strategy::Planned);
        let reference = Evaluator::with_strategy(&log, Strategy::NaivePaper);
        // Nested `~>`/`->` parenthesisations flatten to chains, choices of
        // atoms are classes and class-disjoint `&` is a product: the plan
        // flags the counting DP and the count matches enumeration.
        for src in [
            "SeeDoctor -> (UpdateRefer -> GetReimburse)",
            "(GetRefer ~> CheckIn) -> GetReimburse",
            "START -> (!START ~> END)",
            "SeeDoctor | UpdateRefer",
            "SeeDoctor & PayTreatment",
            "(CheckIn | SeeDoctor) -> GetReimburse",
        ] {
            let p: Pattern = src.parse().unwrap();
            let plan = planned.physical_plan(&p).unwrap();
            assert!(plan.is_counting_chain(), "{src} should take the DP");
            assert!(plan.to_string().contains("enumeration-free counting DP"));
            assert_eq!(planned.count(&p), reference.count(&p), "{src}");
        }
        // Overlapping products, choices of chains and predicates must
        // NOT be flagged: they fall back to plan execution, still with
        // the correct count.
        for src in [
            "SeeDoctor & SeeDoctor",
            "(SeeDoctor -> PayTreatment) | UpdateRefer",
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
        let log = blocks(&[("A", n), ("B", n)]);
        let p: Pattern = "A -> B".parse().unwrap();
        assert_eq!(fast_count(&log, &p), Some(n * n));
        let p: Pattern = "A & B".parse().unwrap();
        assert_eq!(fast_count(&log, &p), Some(n * n));
    }

    #[test]
    fn counts_past_usize_are_exact_or_a_typed_error() {
        // One instance: START, then 200 000 records of `t`.
        let log = generator::worst_case_log("t", 200_000);
        let count = |src: &str| Query::parse(src).unwrap().count(&log);
        // C(200000, 3) fits.
        assert_eq!(count("t -> t -> t"), Ok(1_333_313_333_400_000));
        // C(200000, 5) ≈ 2.67·10²⁴ does not: a typed error, not a wrap.
        let five: Pattern = "t -> t -> t -> t -> t".parse().unwrap();
        assert_eq!(
            count("t -> t -> t -> t -> t"),
            Err(EngineError::CountOverflow)
        );
        assert_eq!(fast_count(&log, &five), Some(usize::MAX));
        assert_eq!(Evaluator::new(&log).count(&five), usize::MAX);
        assert_eq!(Query::new(five).exists(&log), Ok(true));
        // A saturated prefix that no record completes is still exact.
        assert_eq!(count("t -> t -> t -> t -> t -> !t"), Ok(0));
        assert_eq!(count("(t -> t -> t -> t -> t) & u"), Ok(0));
        assert_eq!(
            count("(t -> t -> t -> t -> t) & START"),
            Err(EngineError::CountOverflow)
        );

        // A product of two counts that fit, whose product does not.
        let n = 100_000;
        let log = blocks(&[("a", n), ("b", n)]);
        let count = |src: &str| Query::parse(src).unwrap().count(&log);
        assert_eq!(count("(a -> a) & b"), Ok(n * (n - 1) / 2 * n));
        assert_eq!(
            count("(a -> a -> a) & (b -> b -> b)"),
            Err(EngineError::CountOverflow)
        );
    }

    #[test]
    fn chains_longer_than_one_mask_word_count_exactly() {
        // 70 steps span two mask words; C(80, 70) = C(80, 10) fits.
        let log = blocks(&[("A", 80)]);
        let src = vec!["A"; 70].join(" -> ");
        assert_eq!(
            count(log.index(), &src.parse().unwrap()),
            Some(1_646_492_110_120)
        );
        // A `~>` link across the word boundary: 80 - 69 windows of 70.
        let src = vec!["A"; 70].join(" ~> ");
        assert_eq!(count(log.index(), &src.parse().unwrap()), Some(11));
    }

    /// One side of a generated pattern: steps of `(atoms, consecutive)`,
    /// each atom `(name, negated when 0)`.
    type Side = Vec<(Vec<(usize, usize)>, bool)>;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random multi-instance logs with sparse wids × random class
        /// chains and `&`-products of them: DP count ≡ enumeration count
        /// under `Strategy::NaivePaper`, the early-exit existence check ≡
        /// count > 0, and overlapping products fall back correctly.
        #[test]
        fn fast_count_equals_enumeration(
            instances in prop::collection::vec(prop::collection::vec(0..3usize, 0..10), 1..5),
            sides in prop::collection::vec(
                prop::collection::vec(
                    (prop::collection::vec((0..4usize, 0..4usize), 1..3), prop::bool::ANY),
                    1..4,
                ),
                1..3,
            ),
        ) {
            // "D" never occurs in the log: an unknown activity.
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

            let side = |side: &Side| {
                let mut pattern: Option<Pattern> = None;
                for (atoms, consecutive) in side {
                    let class = atoms
                        .iter()
                        .map(|&(name, negated)| if negated == 0 {
                            Pattern::not_atom(NAMES[name])
                        } else {
                            Pattern::atom(NAMES[name])
                        })
                        .reduce(Pattern::alt)
                        .expect("nonempty class");
                    pattern = Some(match pattern {
                        None => class,
                        Some(acc) if *consecutive => acc.cons(class),
                        Some(acc) => acc.seq(class),
                    });
                }
                pattern.expect("nonempty chain")
            };
            let pattern = sides.iter().map(side).reduce(Pattern::par).expect("nonempty");
            let slow = Evaluator::with_strategy(&log, Strategy::NaivePaper).count(&pattern);
            let fast = fast_count(&log, &pattern);
            if sides.len() == 1 {
                assert!(fast.is_some(), "{pattern} is a class chain");
            }
            if let Some(fast) = fast {
                assert_eq!(fast, slow, "{pattern} on {log}");
            }
            let planned = Evaluator::new(&log);
            assert_eq!(planned.count(&pattern), slow, "{pattern} on {log}");
            assert_eq!(planned.exists(&pattern), slow > 0, "{pattern} on {log}");
            let query = Query::new(pattern.clone());
            assert_eq!(query.count(&log), Ok(slow), "{pattern} on {log}");
            assert_eq!(query.exists(&log), Ok(slow > 0), "{pattern} on {log}");
            let index = log.index();
            assert_eq!(exists(index, &pattern), fast.map(|n| n > 0), "{pattern} on {log}");
            assert_eq!(count(index, &pattern), fast, "{pattern} on {log}");
        }
    }
}
