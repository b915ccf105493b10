//! Incremental evaluation over an append-only log.
//!
//! Workflow logs only ever grow, and the paper motivates log querying for
//! *runtime* monitoring as well as post-hoc analysis. The
//! [`StreamingEvaluator`] maintains, for every node of the incident tree,
//! the incidents seen so far, and updates them per appended record using
//! the delta rule
//!
//! ```text
//! Δ(p1 θ p2) = (Δ1 θ old2) ∪ ((old1 ∪ Δ1) θ Δ2)
//! ```
//!
//! which enumerates exactly the new pairs. Appends are `O(delta work)`
//! instead of re-evaluating the whole log, and the evaluator reports the
//! *new root incidents* per append — a monitoring callback can alert the
//! moment an anomalous pattern completes.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use wlq_log::{IsLsn, LogError, LogRecord, Wid};
use wlq_pattern::{Atom, Op, Pattern};

use crate::batch::IncidentBatch;
use crate::error::EngineError;
use crate::eval::{combine, Strategy};
use crate::incident::Incident;
use crate::incident_set::IncidentSet;

/// A node of the streaming incident tree, holding accumulated incidents.
#[derive(Debug, Clone)]
enum SNode {
    Leaf {
        atom: Atom,
        incidents: BTreeMap<Wid, Vec<Incident>>,
    },
    Op {
        op: Op,
        left: Box<SNode>,
        right: Box<SNode>,
        incidents: BTreeMap<Wid, Vec<Incident>>,
    },
}

impl SNode {
    fn from_pattern(p: &Pattern) -> SNode {
        match p {
            Pattern::Atom(a) => SNode::Leaf {
                atom: a.clone(),
                incidents: BTreeMap::new(),
            },
            Pattern::Binary { op, left, right } => SNode::Op {
                op: *op,
                left: Box::new(SNode::from_pattern(left)),
                right: Box::new(SNode::from_pattern(right)),
                incidents: BTreeMap::new(),
            },
        }
    }

    fn incidents(&self, wid: Wid) -> &[Incident] {
        let map = match self {
            SNode::Leaf { incidents, .. } | SNode::Op { incidents, .. } => incidents,
        };
        map.get(&wid).map_or(&[], Vec::as_slice)
    }

    fn incidents_map(&self) -> &BTreeMap<Wid, Vec<Incident>> {
        match self {
            SNode::Leaf { incidents, .. } | SNode::Op { incidents, .. } => incidents,
        }
    }

    /// Absorbs `delta` into this node's incident list for `wid`, returning
    /// only the incidents that were actually new.
    fn absorb(&mut self, wid: Wid, delta: Vec<Incident>) -> Vec<Incident> {
        let map = match self {
            SNode::Leaf { incidents, .. } | SNode::Op { incidents, .. } => incidents,
        };
        let list = map.entry(wid).or_default();
        let mut fresh = Vec::with_capacity(delta.len());
        for incident in delta {
            if let Err(pos) = list.binary_search(&incident) {
                list.insert(pos, incident.clone());
                fresh.push(incident);
            }
        }
        fresh
    }

    /// Processes one appended record, returning this node's new incidents.
    fn push(&mut self, record: &LogRecord, strategy: Strategy) -> Vec<Incident> {
        let wid = record.wid();
        match self {
            SNode::Leaf { atom, .. } => {
                let matches_activity = if atom.negated {
                    record.activity() != &atom.activity
                } else {
                    record.activity() == &atom.activity
                };
                let matches = matches_activity
                    && atom
                        .predicates
                        .iter()
                        .all(|p| p.matches(record.input(), record.output()));
                if matches {
                    let delta = vec![Incident::singleton(wid, record.is_lsn())];
                    self.absorb(wid, delta)
                } else {
                    Vec::new()
                }
            }
            SNode::Op {
                op, left, right, ..
            } => {
                let op = *op;
                // Snapshot the left side *before* the record is applied.
                let old_left: Vec<Incident> = left.incidents(wid).to_vec();
                let delta_left = left.push(record, strategy);
                let delta_right = right.push(record, strategy);
                // Every term below is sorted and deduplicated (leaf
                // emission appends in is-lsn order, operators finish
                // sorted), so deltas union by linear merge.
                let delta = match op {
                    Op::Choice => merge_sorted(delta_left, delta_right),
                    _ => {
                        // New pairs: (Δ1 × old2) ∪ ((old1 ∪ Δ1) × Δ2).
                        let old_right: Vec<Incident> = {
                            // right already absorbed its delta; exclude it
                            // for the first term to avoid double counting.
                            let full = right.incidents(wid);
                            full.iter()
                                .filter(|o| delta_right.binary_search(o).is_err())
                                .cloned()
                                .collect()
                        };
                        let first = combine(strategy, op, &delta_left, &old_right);
                        let new_left = merge_sorted(old_left, delta_left);
                        let second = combine(strategy, op, &new_left, &delta_right);
                        merge_sorted(first, second)
                    }
                };
                self.absorb(wid, delta)
            }
        }
    }
}

/// Evaluates a pattern incrementally over an append-only record stream.
///
/// # Examples
///
/// ```
/// use wlq_engine::StreamingEvaluator;
/// use wlq_log::paper;
/// use wlq_pattern::Pattern;
///
/// let p: Pattern = "UpdateRefer -> GetReimburse".parse().unwrap();
/// let mut stream = StreamingEvaluator::new(p);
/// let mut alerts = 0;
/// for record in paper::figure3_log().iter() {
///     alerts += stream.append(record).unwrap().len();
/// }
/// assert_eq!(alerts, 1); // the wid-2 anomaly fires exactly once
/// ```
#[derive(Debug, Clone)]
pub struct StreamingEvaluator {
    pattern: Pattern,
    strategy: Strategy,
    root: SNode,
    next_is_lsn: BTreeMap<Wid, IsLsn>,
    closed: BTreeMap<Wid, bool>,
    records_seen: usize,
}

impl StreamingEvaluator {
    /// Creates a streaming evaluator for `pattern` with the default
    /// ([`Strategy::Planned`]) operator implementations.
    #[must_use]
    pub fn new(pattern: Pattern) -> Self {
        Self::with_strategy(pattern, Strategy::default())
    }

    /// Creates a streaming evaluator with an explicit strategy.
    #[must_use]
    pub fn with_strategy(pattern: Pattern, strategy: Strategy) -> Self {
        let root = SNode::from_pattern(&pattern);
        StreamingEvaluator {
            pattern,
            strategy,
            root,
            next_is_lsn: BTreeMap::new(),
            closed: BTreeMap::new(),
            records_seen: 0,
        }
    }

    /// The pattern being monitored.
    #[must_use]
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Number of records consumed so far.
    #[must_use]
    pub fn records_seen(&self) -> usize {
        self.records_seen
    }

    /// Appends one record, returning the *new* root incidents it completes.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidLog`] if the record violates the
    /// per-instance ordering invariants of Definition 2 (non-consecutive
    /// `is-lsn`, record after `END`, or a non-`START` first record).
    pub fn append(&mut self, record: &LogRecord) -> Result<Vec<Incident>, EngineError> {
        let wid = record.wid();
        if self.closed.get(&wid).copied().unwrap_or(false) {
            return Err(LogError::RecordAfterEnd {
                wid,
                lsn: record.lsn(),
            }
            .into());
        }
        let expected = self.next_is_lsn.get(&wid).copied().unwrap_or(IsLsn::FIRST);
        if record.is_lsn() != expected {
            return Err(LogError::NonConsecutiveIsLsn {
                wid,
                expected,
                found: record.is_lsn(),
            }
            .into());
        }
        if (record.is_lsn() == IsLsn::FIRST) != record.is_start() {
            return Err(LogError::StartMismatch {
                lsn: record.lsn(),
                wid,
            }
            .into());
        }
        self.next_is_lsn.insert(wid, expected.next());
        if record.is_end() {
            self.closed.insert(wid, true);
        }
        self.records_seen += 1;
        Ok(self.root.push(record, self.strategy))
    }

    /// The full incident set accumulated so far (equals a batch evaluation
    /// of the records seen).
    #[must_use]
    pub fn incidents(&self) -> IncidentSet {
        // Each node list is sorted and duplicate-free already.
        IncidentSet::from_batches(
            (self.root.incidents_map().iter())
                .map(|(&wid, incidents)| IncidentBatch::from_incidents(wid, incidents))
                .collect(),
        )
    }
}

/// A thread-safe wrapper around [`StreamingEvaluator`] for concurrent
/// producers (e.g. a workflow engine's worker threads appending to the
/// log), using a [`parking_lot::Mutex`].
#[derive(Debug)]
pub struct SharedStreamingEvaluator {
    inner: Mutex<StreamingEvaluator>,
}

impl SharedStreamingEvaluator {
    /// Wraps a streaming evaluator for shared use.
    #[must_use]
    pub fn new(pattern: Pattern) -> Self {
        SharedStreamingEvaluator {
            inner: Mutex::new(StreamingEvaluator::new(pattern)),
        }
    }

    /// Appends a record under the lock; see [`StreamingEvaluator::append`].
    ///
    /// # Errors
    ///
    /// Propagates the wrapped evaluator's [`EngineError`]s.
    pub fn append(&self, record: &LogRecord) -> Result<Vec<Incident>, EngineError> {
        self.inner.lock().append(record)
    }

    /// Snapshot of the accumulated incident set.
    #[must_use]
    pub fn incidents(&self) -> IncidentSet {
        self.inner.lock().incidents()
    }

    /// Number of records consumed.
    #[must_use]
    pub fn records_seen(&self) -> usize {
        self.inner.lock().records_seen()
    }
}

/// Unions two sorted, deduplicated incident lists in `O(n1 + n2)`.
fn merge_sorted(a: Vec<Incident>, b: Vec<Incident>) -> Vec<Incident> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut xs, mut ys) = (a.into_iter().peekable(), b.into_iter().peekable());
    while let (Some(x), Some(y)) = (xs.peek(), ys.peek()) {
        match x.cmp(y) {
            std::cmp::Ordering::Less => {
                if let Some(x) = xs.next() {
                    out.push(x);
                }
            }
            std::cmp::Ordering::Greater => {
                if let Some(y) = ys.next() {
                    out.push(y);
                }
            }
            std::cmp::Ordering::Equal => {
                if let Some(x) = xs.next() {
                    out.push(x);
                }
                ys.next();
            }
        }
    }
    out.extend(xs);
    out.extend(ys);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use wlq_log::paper;

    fn parse(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    fn replay(pattern: &str) -> (StreamingEvaluator, IncidentSet) {
        let log = paper::figure3_log();
        let mut stream = StreamingEvaluator::new(parse(pattern));
        let mut all_deltas = IncidentSet::new();
        for record in log.iter() {
            for incident in stream.append(record).unwrap() {
                assert!(all_deltas.insert(incident), "duplicate delta reported");
            }
        }
        (stream, all_deltas)
    }

    #[test]
    fn streaming_matches_batch_on_figure3() {
        let log = paper::figure3_log();
        let batch = Evaluator::new(&log);
        for src in [
            "SeeDoctor",
            "!SeeDoctor",
            "UpdateRefer -> GetReimburse",
            "SeeDoctor -> (UpdateRefer -> GetReimburse)",
            "GetRefer ~> CheckIn",
            "SeeDoctor & PayTreatment",
            "(GetRefer -> CheckIn) | UpdateRefer",
        ] {
            let (stream, deltas) = replay(src);
            let expected = batch.evaluate(&parse(src));
            assert_eq!(
                stream.incidents(),
                expected,
                "accumulated mismatch on {src}"
            );
            assert_eq!(deltas, expected, "delta union mismatch on {src}");
        }
    }

    #[test]
    fn all_strategies_stream_identically() {
        let log = paper::figure3_log();
        for src in [
            "SeeDoctor ~> PayTreatment",
            "GetRefer -> (SeeDoctor & PayTreatment)",
        ] {
            let mut sets = Vec::new();
            for strategy in [Strategy::NaivePaper, Strategy::Planned] {
                let mut stream = StreamingEvaluator::with_strategy(parse(src), strategy);
                for record in log.iter() {
                    stream.append(record).unwrap();
                }
                sets.push(stream.incidents());
            }
            assert_eq!(sets[0], sets[1], "planned streaming mismatch on {src}");
        }
    }

    #[test]
    fn deltas_fire_at_completion_time() {
        let log = paper::figure3_log();
        let mut stream = StreamingEvaluator::new(parse("UpdateRefer -> GetReimburse"));
        let mut fired_at = None;
        for record in log.iter() {
            let delta = stream.append(record).unwrap();
            if !delta.is_empty() {
                assert!(fired_at.is_none());
                fired_at = Some(record.lsn().get());
            }
        }
        // The anomaly completes exactly when l20 (wid 2's GetReimburse)
        // arrives.
        assert_eq!(fired_at, Some(20));
    }

    #[test]
    fn records_seen_counts_appends() {
        let (stream, _) = replay("SeeDoctor");
        assert_eq!(stream.records_seen(), 20);
    }

    #[test]
    fn out_of_order_appends_are_rejected() {
        let log = paper::figure3_log();
        let mut stream = StreamingEvaluator::new(parse("A"));
        // Skipping the START record of wid 1 violates is-lsn continuity.
        let err = stream.append(&log.records()[2]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidLog(LogError::NonConsecutiveIsLsn { .. })
        ));
    }

    #[test]
    fn appends_after_end_are_rejected() {
        use wlq_log::LogRecord;
        let mut stream = StreamingEvaluator::new(parse("A"));
        stream.append(&LogRecord::start(1, 1u64)).unwrap();
        stream.append(&LogRecord::end(2, 1u64, 2u32)).unwrap();
        let extra = LogRecord::new(
            3u64,
            1u64,
            3u32,
            "A",
            Default::default(),
            Default::default(),
        );
        assert!(matches!(
            stream.append(&extra).unwrap_err(),
            EngineError::InvalidLog(LogError::RecordAfterEnd { .. })
        ));
    }

    #[test]
    fn first_record_must_be_start() {
        use wlq_log::LogRecord;
        let mut stream = StreamingEvaluator::new(parse("A"));
        let bad = LogRecord::new(
            1u64,
            1u64,
            1u32,
            "A",
            Default::default(),
            Default::default(),
        );
        assert!(matches!(
            stream.append(&bad).unwrap_err(),
            EngineError::InvalidLog(LogError::StartMismatch { .. })
        ));
    }

    #[test]
    fn shared_evaluator_is_usable_across_threads() {
        let log = paper::figure3_log();
        let shared = SharedStreamingEvaluator::new(parse("SeeDoctor"));
        // Appends must stay in per-wid order; split by instance across
        // threads (each instance's records stay ordered).
        crossbeam::thread::scope(|scope| {
            for wid in log.wids() {
                let shared = &shared;
                let records: Vec<_> = log.instance(wid).cloned().collect();
                scope.spawn(move |_| {
                    for r in records {
                        shared.append(&r).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(shared.records_seen(), 20);
        assert_eq!(shared.incidents().len(), 4);
    }

    #[test]
    fn choice_deltas_are_deduplicated() {
        let (stream, deltas) = replay("SeeDoctor | SeeDoctor");
        assert_eq!(stream.incidents().len(), 4);
        assert_eq!(deltas.len(), 4);
    }
}
