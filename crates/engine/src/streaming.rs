//! Incremental evaluation over an append-only log.
//!
//! Workflow logs only ever grow, and the paper motivates log querying for
//! *runtime* monitoring as well as post-hoc analysis. The
//! [`StreamingEvaluator`] keeps the pattern's incident tree and, per
//! appended record, computes every node's *delta*: the incidents the
//! record adds at that node. The root's delta is what `append` returns, so
//! a monitoring callback can alert the moment an anomalous pattern
//! completes.
//!
//! # The delta rule
//!
//! Let the appended record have is-lsn `k` in its instance. `k` is the
//! largest position of the instance so far (Definition 2 makes is-lsns
//! consecutive), so:
//!
//! > **Lemma.** Every incident an append adds at any node contains `k`,
//! > and no incident present before the append contains it.
//!
//! The second half holds because `k` did not exist before. The first is by
//! induction over the tree: a leaf's delta is `{k}` or nothing; an
//! operator's new incidents are unions with a new operand (or, for `⊗`, a
//! new operand itself), which contains `k` by induction. Write `Δ1`/`Δ2`
//! for the children's deltas and `L`/`R` for their full lists of the
//! instance *after* the append. Then, with no snapshot of old lists:
//!
//! - `⊗`: `Δ = Δ1 ∪ Δ2`.
//! - `⊙` and `→`: `Δ = L θ Δ2`. A pair with a new left operand would need
//!   a right operand starting after `last(o1) = k`, and none exists; so
//!   every new pair takes its right operand from `Δ2` and its left one
//!   from anywhere in `L`.
//! - `⊕`: `Δ = (Δ1 ⊕ R) ∪ (L ⊕ Δ2)`. `Δ1 ⊕ Δ2` is empty, since both
//!   operands contain `k`, so `R` may include `Δ2`.
//! - When both child deltas are empty, the node does nothing.
//!
//! Each delta is new at its node by the lemma, so merging it in needs no
//! duplicate check, and the deltas of successive appends are disjoint.
//!
//! # Storage
//!
//! One instance table, looked up once per append, holds each instance's
//! next is-lsn, its closed flag and its *row*: the full list of every node
//! the rule reads (the left child of `⊙`/`→`, both children of `⊕`) and
//! of the root. A row is allocated when the instance first holds an
//! incident. An operator's or the root's list is a finished
//! [`IncidentBatch`]; a leaf's list is just its ascending positions, the
//! first few kept inside the row, and is laid out as a batch only when a
//! join reads it. Deltas live in per-node scratch batches reused across
//! appends, and the operators run the batch kernels on them directly.
//! When an instance's `END` arrives, no later record can reach it, so its
//! row is freed and only the root's batch is kept, for
//! [`StreamingEvaluator::incidents`].

use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Mutex, MutexGuard, PoisonError};

use wlq_log::{IsLsn, LogError, LogRecord, Wid};
use wlq_pattern::{Atom, Op, Pattern};

use crate::batch::IncidentBatch;
use crate::error::EngineError;
use crate::incident::Incident;
use crate::incident_set::IncidentSet;
use crate::kernels::combine_batch_into;

/// What a node of the streaming tree computes.
#[derive(Debug, Clone)]
enum Kind {
    Leaf(Atom),
    /// Children are indices of earlier nodes (the tree is in post-order).
    Op {
        op: Op,
        left: usize,
        right: usize,
    },
}

#[derive(Debug, Clone)]
struct Node {
    kind: Kind,
    /// Index into an instance's row, when the node's full list is read by
    /// its parent's rule or the node is the root.
    row: Option<usize>,
    /// The incidents the current append adds here.
    delta: IncidentBatch,
}

/// Leaf positions a row holds before the list moves to the heap. A clinic
/// instance matches any one activity at most a few times.
const INLINE: usize = 8;

/// A node's full list in one instance.
#[derive(Debug, Clone)]
enum Held {
    /// A non-root leaf's first positions, ascending.
    Inline { len: u8, positions: [IsLsn; INLINE] },
    /// A non-root leaf's positions, ascending, once past `INLINE`.
    Spilled(Vec<IsLsn>),
    /// An operator's or the root's finished batch.
    Batch(IncidentBatch),
}

impl Held {
    const LEAF: Held = Held::Inline {
        len: 0,
        positions: [IsLsn(0); INLINE],
    };

    /// Merges this append's delta, which by the lemma holds only new
    /// incidents, all ending after the list's.
    fn absorb(&mut self, delta: &IncidentBatch) {
        if let Held::Batch(batch) = self {
            return batch.absorb(delta);
        }
        // A leaf's delta is the singleton of the appended record.
        for o in delta.iter() {
            match self {
                Held::Inline { len, positions } => {
                    if let Some(slot) = positions.get_mut(usize::from(*len)) {
                        *slot = o.first();
                        *len += 1;
                    } else {
                        let mut list = positions.to_vec();
                        list.push(o.first());
                        *self = Held::Spilled(list);
                    }
                }
                Held::Spilled(list) => list.push(o.first()),
                Held::Batch(_) => {}
            }
        }
    }

    /// The list as a batch: a batch as it is, a leaf's positions laid out
    /// as singletons in `buf`.
    fn batch<'a>(&'a self, buf: &'a mut IncidentBatch) -> &'a IncidentBatch {
        let positions = match self {
            Held::Batch(batch) => return batch,
            Held::Inline { len, positions } => &positions[..usize::from(*len)],
            Held::Spilled(list) => list,
        };
        for &p in positions {
            buf.push_singleton(p);
        }
        buf
    }
}

/// One workflow instance seen by the evaluator.
#[derive(Debug, Clone)]
struct Instance {
    next: IsLsn,
    closed: bool,
    /// The full lists of the nodes with a `row`; empty until the instance
    /// first holds an incident, and again once it has ended.
    row: Box<[Held]>,
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
    /// The incident tree in post-order: children first, the root last.
    nodes: Vec<Node>,
    /// An empty row; the root's list is its last entry.
    empty_row: Box<[Held]>,
    instances: HashMap<Wid, Instance>,
    /// The root's nonempty batches of ended instances.
    ended: Vec<IncidentBatch>,
    /// Scratch: the two operands a join reads, laid out as batches, and
    /// the two joins whose union is a `⊕` delta.
    scratch: [IncidentBatch; 4],
    records_seen: usize,
}

impl StreamingEvaluator {
    /// Creates a streaming evaluator for `pattern`; its operators run the
    /// batch kernels.
    #[must_use]
    pub fn new(pattern: Pattern) -> Self {
        let mut nodes = Vec::new();
        flatten(&pattern, &mut nodes);
        let mut read = vec![false; nodes.len()];
        if let Some(root) = read.last_mut() {
            *root = true;
        }
        for node in &nodes {
            if let Kind::Op { op, left, right } = node.kind {
                read[left] = true;
                read[right] |= op == Op::Parallel;
            }
        }
        let mut row = Vec::new();
        let last = nodes.len().saturating_sub(1);
        for (i, node) in nodes.iter_mut().enumerate() {
            if read[i] {
                node.row = Some(row.len());
                row.push(match node.kind {
                    Kind::Leaf(_) if i != last => Held::LEAF,
                    _ => Held::Batch(IncidentBatch::new(Wid(0))),
                });
            }
        }
        StreamingEvaluator {
            pattern,
            nodes,
            empty_row: row.into_boxed_slice(),
            instances: HashMap::new(),
            ended: Vec::new(),
            scratch: std::array::from_fn(|_| IncidentBatch::new(Wid(0))),
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
    /// A record that extends no incident costs one instance lookup and a
    /// test per leaf; the returned vector allocates only when the root
    /// fires.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidLog`] if the record violates the
    /// per-instance ordering invariants of Definition 2 (non-consecutive
    /// `is-lsn`, record after `END`, or a non-`START` first record), or
    /// if its instance has no is-lsn left after it
    /// ([`LogError::IsLsnOverflow`]); nothing is recorded then.
    pub fn append(&mut self, record: &LogRecord) -> Result<Vec<Incident>, EngineError> {
        let wid = record.wid();
        let entry = self.instances.entry(wid);
        let (expected, closed) = match &entry {
            Entry::Occupied(seen) => (seen.get().next, seen.get().closed),
            Entry::Vacant(_) => (IsLsn::FIRST, false),
        };
        if closed {
            return Err(LogError::RecordAfterEnd {
                wid,
                lsn: record.lsn(),
            }
            .into());
        }
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
        let next = expected
            .checked_next()
            .ok_or(LogError::IsLsnOverflow(wid))?;
        let instance = entry.or_insert_with(|| Instance {
            next: IsLsn::FIRST,
            closed: false,
            row: Box::default(),
        });
        instance.next = next;
        self.records_seen += 1;

        let rows = Rows {
            row: &mut instance.row,
            empty: &self.empty_row,
        };
        push(&mut self.nodes, rows, &mut self.scratch, record);
        let fired = (self.nodes.last()).map_or_else(Vec::new, |root| {
            root.delta.iter().map(|o| o.to_incident()).collect()
        });
        if record.is_end() {
            // `append` rejects any later record of the instance, so only
            // the root's list is read again.
            instance.closed = true;
            let mut row = std::mem::take(&mut instance.row).into_vec();
            if let Some(Held::Batch(root)) = row.pop() {
                if !root.is_empty() {
                    self.ended.push(root);
                }
            }
        }
        Ok(fired)
    }

    /// The full incident set accumulated so far (equals a batch evaluation
    /// of the records seen).
    #[must_use]
    pub fn incidents(&self) -> IncidentSet {
        let open = (self.instances.values()).filter_map(|instance| match instance.row.last() {
            Some(Held::Batch(root)) => Some(root),
            _ => None,
        });
        let mut roots: Vec<&IncidentBatch> = self.ended.iter().chain(open).collect();
        roots.sort_unstable_by_key(|root| root.wid());
        let (refs, positions) = (roots.iter()).fold((0, 0), |(refs, positions), root| {
            (refs + root.len(), positions + root.pool_len())
        });
        let mut set = IncidentSet::with_room(refs, positions);
        for root in roots {
            set.push_copy(root);
        }
        set
    }
}

/// Appends the nodes of `p` to `nodes` in post-order.
fn flatten(p: &Pattern, nodes: &mut Vec<Node>) {
    let kind = match p {
        Pattern::Atom(atom) => Kind::Leaf(atom.clone()),
        Pattern::Binary { op, left, right } => {
            flatten(left, nodes);
            let left = nodes.len() - 1;
            flatten(right, nodes);
            Kind::Op {
                op: *op,
                left,
                right: nodes.len() - 1,
            }
        }
    };
    nodes.push(Node {
        kind,
        row: None,
        delta: IncidentBatch::new(Wid(0)),
    });
}

/// The row of the instance an append reaches, and the empty row it is
/// created from.
struct Rows<'a> {
    row: &'a mut Box<[Held]>,
    empty: &'a [Held],
}

impl Rows<'_> {
    /// Node `n`'s full list, as a batch borrowed from the row or laid out
    /// in `buf`.
    fn full<'b>(&'b self, n: &Node, buf: &'b mut IncidentBatch, wid: Wid) -> &'b IncidentBatch {
        buf.reset(wid);
        match n.row.and_then(|at| self.row.get(at)) {
            Some(held) => held.batch(buf),
            None => buf,
        }
    }

    /// Merges node `n`'s nonempty delta into its list, creating the
    /// instance's row on its first incident.
    fn absorb(&mut self, n: &Node, wid: Wid) {
        let Some(at) = n.row else {
            return;
        };
        if self.row.is_empty() {
            let mut row = Box::<[Held]>::from(self.empty);
            for held in &mut row {
                if let Held::Batch(batch) = held {
                    batch.reset(wid);
                }
            }
            *self.row = row;
        }
        if let Some(held) = self.row.get_mut(at) {
            held.absorb(&n.delta);
        }
    }
}

/// Runs the delta rule for one record over the whole tree, leaving each
/// node's delta in its scratch and merging it into the instance's row.
fn push(
    nodes: &mut [Node],
    mut rows: Rows<'_>,
    scratch: &mut [IncidentBatch; 4],
    record: &LogRecord,
) {
    let wid = record.wid();
    let [lbuf, rbuf, a, b] = scratch;
    for i in 0..nodes.len() {
        let (below, rest) = nodes.split_at_mut(i);
        let Some(node) = rest.first_mut() else {
            break;
        };
        node.delta.reset(wid);
        match &node.kind {
            Kind::Leaf(atom) => {
                if matches(atom, record) {
                    node.delta.push_singleton(record.is_lsn());
                }
            }
            Kind::Op { op, left, right } => {
                let (l, r) = (&below[*left], &below[*right]);
                let (d1, d2) = (&l.delta, &r.delta);
                let out = &mut node.delta;
                match op {
                    _ if d1.is_empty() && d2.is_empty() => {}
                    Op::Choice => combine_batch_into(Op::Choice, d1, d2, out),
                    Op::Consecutive | Op::Sequential => {
                        if !d2.is_empty() {
                            combine_batch_into(*op, rows.full(l, lbuf, wid), d2, out);
                        }
                    }
                    Op::Parallel if d2.is_empty() => {
                        combine_batch_into(Op::Parallel, d1, rows.full(r, rbuf, wid), out);
                    }
                    Op::Parallel if d1.is_empty() => {
                        combine_batch_into(Op::Parallel, rows.full(l, lbuf, wid), d2, out);
                    }
                    Op::Parallel => {
                        combine_batch_into(Op::Parallel, d1, rows.full(r, rbuf, wid), a);
                        combine_batch_into(Op::Parallel, rows.full(l, lbuf, wid), d2, b);
                        combine_batch_into(Op::Choice, a, b, out);
                    }
                }
            }
        }
        if !node.delta.is_empty() {
            rows.absorb(node, wid);
        }
    }
}

/// Whether `record` is an incident of the atomic pattern `atom`.
fn matches(atom: &Atom, record: &LogRecord) -> bool {
    (record.activity() == &atom.activity) != atom.negated
        && (atom.predicates.iter()).all(|p| p.matches(record.input(), record.output()))
}

/// A thread-safe wrapper around [`StreamingEvaluator`] for concurrent
/// producers (e.g. a workflow engine's worker threads appending to the
/// log), behind a [`std::sync::Mutex`].
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

    /// The wrapped evaluator. A panic under the lock poisons it; later
    /// callers take the evaluator over as it stands instead of panicking
    /// in turn, as the worker pool's claims do.
    fn lock(&self) -> MutexGuard<'_, StreamingEvaluator> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends a record under the lock; see [`StreamingEvaluator::append`].
    ///
    /// # Errors
    ///
    /// Propagates the wrapped evaluator's [`EngineError`]s.
    pub fn append(&self, record: &LogRecord) -> Result<Vec<Incident>, EngineError> {
        self.lock().append(record)
    }

    /// Snapshot of the accumulated incident set.
    #[must_use]
    pub fn incidents(&self) -> IncidentSet {
        self.lock().incidents()
    }

    /// Number of records consumed.
    #[must_use]
    pub fn records_seen(&self) -> usize {
        self.lock().records_seen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, Strategy};
    use wlq_log::{paper, AttrMap};

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
        // The stream's kernels against the naive oracle's Algorithm 1
        // operators, on all four operators.
        let log = paper::figure3_log();
        let naive = Evaluator::with_strategy(&log, Strategy::NaivePaper);
        for src in [
            "SeeDoctor ~> PayTreatment",
            "GetRefer -> (SeeDoctor & PayTreatment)",
            "(SeeDoctor | CheckIn) -> !PayTreatment",
        ] {
            let mut stream = StreamingEvaluator::new(parse(src));
            for record in log.iter() {
                stream.append(record).unwrap();
            }
            assert_eq!(
                stream.incidents(),
                naive.evaluate(&parse(src)),
                "streaming mismatch on {src}"
            );
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
    fn an_instance_out_of_is_lsns_is_a_typed_error() {
        let mut stream = StreamingEvaluator::new(parse("A ~> A"));
        stream.append(&LogRecord::start(1u64, 1u64)).unwrap();
        stream.append(&LogRecord::start(2u64, 2u64)).unwrap();
        if let Some(instance) = stream.instances.get_mut(&Wid(1)) {
            instance.next = IsLsn(u32::MAX);
        }
        let last = |lsn: u64, wid: u64, is_lsn: u32| {
            LogRecord::new(lsn, wid, is_lsn, "A", AttrMap::new(), AttrMap::new())
        };
        assert_eq!(
            stream.append(&last(3, 1, u32::MAX)).unwrap_err(),
            EngineError::InvalidLog(LogError::IsLsnOverflow(Wid(1)))
        );
        assert_eq!(stream.records_seen(), 2);
        // Other instances are unaffected.
        stream.append(&last(4, 2, 2)).unwrap();
        assert_eq!(stream.append(&last(5, 2, 3)).unwrap().len(), 1);
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
        std::thread::scope(|scope| {
            for wid in log.wids() {
                let shared = &shared;
                let records: Vec<_> = log.instance(wid).cloned().collect();
                scope.spawn(move || {
                    for r in records {
                        shared.append(&r).unwrap();
                    }
                });
            }
        });
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
