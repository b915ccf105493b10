//! The evaluator: strategies, leaf evaluation, the one per-instance
//! executor and the one loop that runs it over a query's instances.
//!
//! A query is planned once. [`Evaluator::drive`] turns the physical plan
//! into an [`Exec`] tree whose atoms are resolved to the index's activity
//! ids and postings cursors and whose nodes carry their pre-order ids,
//! once per run (a pool worker's run included), and then runs it over
//! ascending instance ordinals and ids only.
//! The naive oracle recurses over the pattern as written. Both report to
//! a [`Probe`]: [`NoProbe`] here, the metrics probe when profiling. Every
//! entry point — listing, counting, `exists`, the worker pool,
//! `Query::profile` and `Query::find_first` — is [`Evaluator::drive`]
//! with a different sink.

use std::ops::ControlFlow;

use wlq_log::{ActivityId, IsLsn, Log, LogIndex, PostingsCursor, Wid};
use wlq_pattern::{Atom, Op, Pattern};

use crate::batch::{BatchArena, IncidentBatch};
use crate::candidates::Candidates;
use crate::counting;
use crate::error::EngineError;
use crate::incident::Incident;
use crate::incident_set::IncidentSet;
use crate::planner::{PhysicalPlan, PlanNode, Planner};
use crate::probe::{Event, NoProbe, Output, Probe};
use crate::{kernels, naive};

/// Which operator implementations the evaluator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// The paper's Algorithm 1: nested-loop joins, `O(n1·n2)` per operator,
    /// over the pattern as written. The reference oracle.
    NaivePaper,
    /// Cost-based planning over the flat arena-backed [`IncidentBatch`]
    /// layout: the query is rewritten via the paper's Theorem 2–5
    /// equivalences, the cheapest tree is chosen by Lemma-1-style
    /// estimates, and each node runs its operator's one batch kernel;
    /// `count()`/`exists()` route the countable fragment to the
    /// enumeration-free counting DP (see [`fast_count`](crate::fast_count)).
    /// Produces identical incident sets; see `crate::planner` and
    /// `crate::kernels`.
    #[default]
    Planned,
}

/// An atom resolved against an index: its activity id, `None` when the
/// activity never occurs in the log, and a cursor over its postings.
#[derive(Debug)]
pub(crate) struct Leaf<'p> {
    atom: &'p Atom,
    id: Option<ActivityId>,
    postings: Option<PostingsCursor<'p>>,
}

impl<'p> Leaf<'p> {
    fn resolve(atom: &'p Atom, index: &'p LogIndex) -> Self {
        let id = index.activity_id(atom.activity.as_str());
        Leaf {
            atom,
            id,
            postings: id.map(|id| index.postings_cursor(id)),
        }
    }

    /// Calls `emit` with every matching position of instance `ordinal`,
    /// ascending, and returns how many index candidates it examined: the
    /// activity's postings for `t`, read through the leaf's cursor (a run
    /// over ascending ordinals seeks each in amortized constant time), or
    /// a walk of the id column for `¬t` (the whole instance when `t` never
    /// occurs), each filtered by the atom's attribute predicates
    /// (extension).
    fn scan(
        &mut self,
        log: &Log,
        index: &LogIndex,
        ordinal: usize,
        mut emit: impl FnMut(IsLsn),
    ) -> u64 {
        let atom = self.atom;
        let admits = |p: IsLsn| {
            if atom.predicates.is_empty() {
                return true;
            }
            // Index positions always have a record in the log the index
            // was built from; a miss conservatively admits nothing.
            let Some([input, output]) = log.maps(ordinal, p) else {
                return false;
            };
            atom.predicates
                .iter()
                .all(|pred| pred.matches(input, output))
        };
        if atom.negated {
            let column = index.instance_activities(ordinal);
            for (p, &id) in (1..).zip(column) {
                let p = IsLsn(p);
                if Some(id) != self.id && admits(p) {
                    emit(p);
                }
            }
            column.len() as u64
        } else if let Some(cursor) = &mut self.postings {
            let postings = cursor.seek(ordinal);
            for &p in postings {
                if admits(p) {
                    emit(p);
                }
            }
            postings.len() as u64
        } else {
            0
        }
    }
}

/// The incidents of an atomic pattern in one instance: every record whose
/// activity matches (`t`), or doesn't (`¬t`), filtered by the atom's
/// attribute predicates (extension).
pub(crate) fn leaf_incidents(atom: &Atom, log: &Log, index: &LogIndex, wid: Wid) -> Vec<Incident> {
    let mut out = Vec::new();
    if let Some(ordinal) = index.ordinal(wid) {
        Leaf::resolve(atom, index).scan(log, index, ordinal, |p| {
            out.push(Incident::singleton(wid, p));
        });
    }
    out
}

/// A physical plan with its atoms resolved and its nodes numbered in
/// pre-order (the probe's node ids), built once per run of
/// [`Evaluator::drive`] and run once per instance.
#[derive(Debug)]
pub(crate) enum Exec<'p> {
    Leaf {
        id: usize,
        leaf: Leaf<'p>,
    },
    Join {
        id: usize,
        op: Op,
        left: Box<Exec<'p>>,
        right: Box<Exec<'p>>,
    },
}

impl<'p> Exec<'p> {
    /// The subtree at `node`, numbering from `next`.
    fn build(node: &'p PlanNode, index: &'p LogIndex, next: &mut usize) -> Self {
        let id = *next;
        *next += 1;
        match node {
            PlanNode::Leaf { atom, .. } => Exec::Leaf {
                id,
                leaf: Leaf::resolve(atom, index),
            },
            PlanNode::Join {
                op, left, right, ..
            } => Exec::Join {
                id,
                op: *op,
                left: Box::new(Exec::build(left, index, next)),
                right: Box::new(Exec::build(right, index, next)),
            },
        }
    }
}

/// The per-log executor that [`Query`](crate::Query) runs; ask queries
/// through `Query`.
///
/// The evaluator reads the activity index the log was loaded with
/// ([`Log::index`]); construction only gathers the planner's statistics,
/// and each [`evaluate`](Self::evaluate) call runs in time bounded by
/// Lemma 1 / Theorem 1. It stays public, hidden from the docs, only for
/// callers that time one evaluator reused across many queries.
///
/// # Examples
///
/// ```
/// use wlq_engine::Evaluator;
/// use wlq_log::paper;
/// use wlq_pattern::Pattern;
///
/// let log = paper::figure3_log();
/// let eval = Evaluator::new(&log);
/// // "Any students updating their referral before being reimbursed?"
/// let p: Pattern = "UpdateRefer -> GetReimburse".parse().unwrap();
/// assert!(eval.exists(&p));
/// assert_eq!(eval.count(&p), 1);
/// ```
#[doc(hidden)]
#[derive(Debug)]
pub struct Evaluator<'a> {
    log: &'a Log,
    index: &'a LogIndex,
    strategy: Strategy,
    planner: Option<Planner>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with the default ([`Strategy::Planned`])
    /// strategy.
    #[must_use]
    pub fn new(log: &'a Log) -> Self {
        Self::with_strategy(log, Strategy::default())
    }

    /// Creates an evaluator with an explicit strategy.
    #[must_use]
    pub fn with_strategy(log: &'a Log, strategy: Strategy) -> Self {
        let index = log.index();
        let planner = (strategy == Strategy::Planned).then(|| Planner::new(log, index));
        Evaluator {
            log,
            index,
            strategy,
            planner,
        }
    }

    /// The log being queried.
    #[must_use]
    pub fn log(&self) -> &'a Log {
        self.log
    }

    /// The log's activity index.
    pub(crate) fn index(&self) -> &'a LogIndex {
        self.index
    }

    /// The active strategy.
    pub(crate) fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The query planner, when the strategy is [`Strategy::Planned`].
    #[must_use]
    pub fn planner(&self) -> Option<&Planner> {
        self.planner.as_ref()
    }

    /// Plans `pattern` with the cost-based planner, when the strategy is
    /// [`Strategy::Planned`].
    pub(crate) fn physical_plan(&self, pattern: &Pattern) -> Option<PhysicalPlan> {
        self.planner.as_ref().map(|pl| pl.plan(pattern))
    }

    /// The instances a query over `pattern` visits: under
    /// [`Strategy::Planned`] its candidates, the only instances that can
    /// hold an incident (see `crate::candidates`); under the naive oracle
    /// every instance, so the oracle checks the skipping.
    pub(crate) fn candidates(&self, pattern: &Pattern) -> Candidates<'a> {
        match self.strategy {
            Strategy::Planned => Candidates::new(pattern, self.index),
            Strategy::NaivePaper => Candidates::every(self.index),
        }
    }

    /// Executes `exec` for instance `ordinal`, drawing and retiring
    /// batches in the caller's arena.
    fn run<P: Probe>(
        &self,
        exec: &mut Exec<'_>,
        ordinal: usize,
        wid: Wid,
        arena: &mut BatchArena,
        probe: &mut P,
    ) -> IncidentBatch {
        match exec {
            Exec::Leaf { id, leaf } => {
                let mark = probe.start();
                let mut batch = arena.alloc(wid);
                let scanned = leaf.scan(self.log, self.index, ordinal, |p| batch.push_singleton(p));
                probe.record(*id, mark, || Event::Scan {
                    scanned,
                    out: Output::batch(&batch),
                });
                batch
            }
            Exec::Join {
                id,
                op,
                left,
                right,
            } => {
                let l = self.run(left, ordinal, wid, arena, probe);
                // Short-circuit: for the three conjunctive operators an
                // empty side forces an empty result.
                if l.is_empty() && *op != Op::Choice {
                    return l;
                }
                let r = self.run(right, ordinal, wid, arena, probe);
                let mark = probe.start();
                let mut out = arena.alloc(wid);
                kernels::combine_batch_into(*op, &l, &r, &mut out);
                probe.record(*id, mark, || Event::Join {
                    op: *op,
                    left: l.len(),
                    right: r.len(),
                    out: Output::batch(&out),
                });
                arena.recycle(l);
                arena.recycle(r);
                out
            }
        }
    }

    /// The naive oracle for instance `ordinal`: Algorithm 1's operators
    /// over the pattern as written, node `id` being `pattern`'s pre-order
    /// id.
    fn naive<P: Probe>(
        &self,
        pattern: &Pattern,
        id: usize,
        ordinal: usize,
        wid: Wid,
        probe: &mut P,
    ) -> Vec<Incident> {
        match pattern {
            Pattern::Atom(atom) => {
                let mark = probe.start();
                let mut out = Vec::new();
                let scanned =
                    Leaf::resolve(atom, self.index).scan(self.log, self.index, ordinal, |p| {
                        out.push(Incident::singleton(wid, p))
                    });
                probe.record(id, mark, || Event::Scan {
                    scanned,
                    out: Output::classic(&out),
                });
                out
            }
            Pattern::Binary { op, left, right } => {
                let l = self.naive(left, id + 1, ordinal, wid, probe);
                // Short-circuit: for the three conjunctive operators an
                // empty side forces an empty result.
                if l.is_empty() && *op != Op::Choice {
                    return Vec::new();
                }
                // The left subtree has `2·atoms − 1` nodes.
                let r = self.naive(right, id + 2 * left.num_atoms(), ordinal, wid, probe);
                let mark = probe.start();
                let out = naive::combine(*op, &l, &r);
                probe.record(id, mark, || Event::Join {
                    op: *op,
                    left: l.len(),
                    right: r.len(),
                    out: Output::classic(&out),
                });
                out
            }
        }
    }

    /// The one loop over a query's instances: runs `plan` (the naive
    /// oracle over `pattern` without one) for every instance in `ordinals`
    /// (a query's [`candidates`](Self::candidates) or a worker's claims of
    /// them), in order, and hands each matched instance's
    /// root batch to `sink`, which keeps it or recycles it into the arena,
    /// and may stop the run. An empty root batch goes back to the arena.
    pub(crate) fn drive<P: Probe>(
        &self,
        pattern: &Pattern,
        plan: Option<&PhysicalPlan>,
        ordinals: impl IntoIterator<Item = usize>,
        probe: &mut P,
        mut sink: impl FnMut(IncidentBatch, &mut BatchArena) -> ControlFlow<()>,
    ) {
        // One tree per run, so each pool worker's leaf cursors walk its
        // own ascending claims.
        let mut exec = plan.map(|plan| Exec::build(plan.root(), self.index, &mut 0));
        let wids = self.index.instance_wids();
        let mut arena = BatchArena::new();
        for ordinal in ordinals {
            let Some(&wid) = wids.get(ordinal) else {
                return;
            };
            let batch = match &mut exec {
                Some(exec) => self.run(exec, ordinal, wid, &mut arena, probe),
                None => {
                    let mut batch = arena.alloc(wid);
                    batch.extend_incidents(&self.naive(pattern, 0, ordinal, wid, probe));
                    batch
                }
            };
            if batch.is_empty() {
                arena.recycle(batch);
            } else if sink(batch, &mut arena).is_break() {
                return;
            }
        }
    }

    /// [`drive`](Self::drive) over the query's candidates, planned once,
    /// unprofiled.
    pub(crate) fn each(
        &self,
        pattern: &Pattern,
        sink: impl FnMut(IncidentBatch, &mut BatchArena) -> ControlFlow<()>,
    ) {
        let (plan, candidates) = (self.physical_plan(pattern), self.candidates(pattern));
        self.drive(pattern, plan.as_ref(), candidates, &mut NoProbe, sink);
    }

    /// The incident set of every matched instance in `ordinals`: each
    /// root batch goes to [`IncidentSet::push`].
    pub(crate) fn collect<P: Probe>(
        &self,
        pattern: &Pattern,
        plan: Option<&PhysicalPlan>,
        ordinals: impl IntoIterator<Item = usize>,
        probe: &mut P,
    ) -> IncidentSet {
        let mut set = IncidentSet::new();
        self.drive(pattern, plan, ordinals, probe, |batch, arena| {
            set.push(batch, arena);
            ControlFlow::Continue(())
        });
        set
    }

    /// The number of incidents in `ordinals`, saturating; each root batch
    /// is counted and recycled, never kept.
    fn tally(
        &self,
        pattern: &Pattern,
        plan: Option<&PhysicalPlan>,
        ordinals: impl IntoIterator<Item = usize>,
    ) -> usize {
        let mut total: usize = 0;
        self.drive(pattern, plan, ordinals, &mut NoProbe, |batch, arena| {
            total = total.saturating_add(batch.len());
            arena.recycle(batch);
            ControlFlow::Continue(())
        });
        total
    }

    /// The count of the enumeration-free DP, when the strategy is
    /// [`Strategy::Planned`] and `pattern` is in its countable fragment.
    /// The fragment is decided on the pattern as written, before
    /// planning: a rewrite cannot hide a countable query.
    fn counted(&self, pattern: &Pattern) -> Option<usize> {
        (self.strategy == Strategy::Planned)
            .then(|| counting::count(self.index, pattern))
            .flatten()
    }

    /// Computes `incL(p)`: all incidents of `p` in the log.
    ///
    /// Under [`Strategy::Planned`] the pattern is planned once and the
    /// chosen physical tree runs per candidate instance in the flat
    /// [`IncidentBatch`] layout, with one [`BatchArena`] reused across all
    /// instances; each matched instance's root batch is copied into the
    /// set's open segment, or moved in whole when it is large, so no
    /// incident is allocated on its own.
    #[must_use]
    pub fn evaluate(&self, pattern: &Pattern) -> IncidentSet {
        let plan = self.physical_plan(pattern);
        let candidates = self.candidates(pattern);
        self.collect(pattern, plan.as_ref(), candidates, &mut NoProbe)
    }

    /// Whether any incident of `p` exists. Stops at the first instance
    /// with one; under [`Strategy::Planned`] patterns of the countable
    /// fragment skip enumeration via the counting DP.
    #[must_use]
    pub fn exists(&self, pattern: &Pattern) -> bool {
        if self.strategy == Strategy::Planned {
            if let Some(found) = counting::exists(self.index, pattern) {
                return found;
            }
        }
        let mut found = false;
        self.each(pattern, |batch, arena| {
            arena.recycle(batch);
            found = true;
            ControlFlow::Break(())
        });
        found
    }

    /// Number of incidents of `p` in the log, `|incL(p)|`, saturating at
    /// `usize::MAX` (a count that large means "at least that many";
    /// [`Query::count`](crate::Query::count) reports it as an error).
    ///
    /// Under [`Strategy::Planned`] the countable fragment — `~>`/`->`
    /// chains of activity classes and class-disjoint `&` products of them
    /// — skips enumeration entirely via the dynamic program of
    /// [`fast_count`](crate::fast_count); other patterns count
    /// [`IncidentBatch`] refs directly, so no incident is ever
    /// materialized.
    #[must_use]
    pub fn count(&self, pattern: &Pattern) -> usize {
        if let Some(n) = self.counted(pattern) {
            return n;
        }
        let plan = self.physical_plan(pattern);
        self.tally(pattern, plan.as_ref(), self.candidates(pattern))
    }

    /// [`count`](Self::count) on up to `threads` workers: the counting DP
    /// when it applies, otherwise each worker counts the instances it
    /// claims and no incident set is built.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoWorkers`] if `threads` is 0 and
    /// [`EngineError::WorkerPanicked`] if a worker thread panics.
    pub(crate) fn count_parallel(
        &self,
        pattern: &Pattern,
        threads: usize,
    ) -> Result<usize, EngineError> {
        match threads {
            0 => return Err(EngineError::NoWorkers),
            1 => return Ok(self.count(pattern)),
            _ => {}
        }
        if let Some(n) = self.counted(pattern) {
            return Ok(n);
        }
        let plan = self.physical_plan(pattern);
        let parts = self.pool(threads, self.candidates(pattern), |claims| {
            self.tally(pattern, plan.as_ref(), claims)
        })?;
        Ok(parts.into_iter().fold(0, usize::saturating_add))
    }

    /// The first `limit` incidents of `p` in set order (by instance, then
    /// within it), evaluating instances only until they are in.
    pub(crate) fn first(&self, pattern: &Pattern, limit: usize) -> IncidentSet {
        let mut set = IncidentSet::new();
        let mut left = limit;
        if left > 0 {
            self.each(pattern, |mut batch, arena| {
                batch.truncate(left);
                left -= batch.len();
                set.push(batch, arena);
                if left == 0 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::paper;

    fn parse(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    #[test]
    fn example3_update_before_reimburse() {
        // incL(UpdateRefer → GetReimburse) = {{l14, l20}}.
        let log = paper::figure3_log();
        for strategy in [Strategy::NaivePaper, Strategy::Planned] {
            let eval = Evaluator::with_strategy(&log, strategy);
            let set = eval.evaluate(&parse("UpdateRefer -> GetReimburse"));
            assert_eq!(set.len(), 1);
            let o = set.iter().next().unwrap();
            let lsns: Vec<u64> = o
                .positions()
                .iter()
                .map(|&p| log.record(o.wid(), p).unwrap().lsn().get())
                .collect();
            assert_eq!(lsns, vec![14, 20]);
        }
    }

    #[test]
    fn example3_second_pattern_corrected() {
        // The paper's Example 3 says {l13, l14, l19} but l19 is
        // TakeTreatment; Definition 4 (and the paper's own Example 5)
        // give {l13, l14, l20}.
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        let set = eval.evaluate(&parse("SeeDoctor -> (UpdateRefer -> GetReimburse)"));
        assert_eq!(set.len(), 1);
        let o = set.iter().next().unwrap();
        let lsns: Vec<u64> = o
            .positions()
            .iter()
            .map(|&p| log.record(o.wid(), p).unwrap().lsn().get())
            .collect();
        assert_eq!(lsns, vec![13, 14, 20]);
    }

    #[test]
    fn atomic_patterns_count_matching_records() {
        let log = paper::figure3_log();
        for strategy in [Strategy::NaivePaper, Strategy::Planned] {
            let eval = Evaluator::with_strategy(&log, strategy);
            assert_eq!(eval.count(&parse("SeeDoctor")), 4);
            assert_eq!(eval.count(&parse("START")), 3);
            assert_eq!(eval.count(&parse("Missing")), 0);
            assert_eq!(eval.count(&parse("!START")), 17);
        }
    }

    #[test]
    fn consecutive_vs_sequential_on_figure3() {
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        // SeeDoctor immediately followed by PayTreatment: wid1 twice
        // (l9-l10, l11-l12) and wid2 once (l17-l18).
        assert_eq!(eval.count(&parse("SeeDoctor ~> PayTreatment")), 3);
        // With gaps allowed there are more.
        let seq = eval.count(&parse("SeeDoctor -> PayTreatment"));
        assert!(seq > 3, "sequential should dominate consecutive, got {seq}");
    }

    #[test]
    fn choice_counts_union() {
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        assert_eq!(
            eval.count(&parse("SeeDoctor | UpdateRefer")),
            eval.count(&parse("SeeDoctor")) + eval.count(&parse("UpdateRefer"))
        );
        // Choice of a pattern with itself deduplicates.
        assert_eq!(eval.count(&parse("SeeDoctor | SeeDoctor")), 4);
    }

    #[test]
    fn parallel_requires_distinct_records() {
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        // SeeDoctor ⊕ SeeDoctor: ordered pairs of distinct SeeDoctor
        // records of one instance: wid1 has 2 (2 ordered pairs), wid2 has
        // 2 — but incidents are *sets*, so {a,b} = {b,a}: 1 per instance…
        // each unordered pair appears once after dedup.
        assert_eq!(eval.count(&parse("SeeDoctor & SeeDoctor")), 2);
    }

    #[test]
    fn exists_and_matching_instances() {
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        assert!(eval.exists(&parse("UpdateRefer -> GetReimburse")));
        assert!(!eval.exists(&parse("GetReimburse -> UpdateRefer")));
        let matching = |src| eval.evaluate(&parse(src)).wids().collect::<Vec<_>>();
        assert_eq!(matching("GetRefer"), vec![Wid(1), Wid(2), Wid(3)]);
        assert_eq!(matching("UpdateRefer"), vec![Wid(2)]);
    }

    #[test]
    fn predicates_filter_leaves() {
        // The intro query: referrals with balance > 5000 — none initially,
        // but > 900 matches wid 1 and 2.
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        assert_eq!(eval.count(&parse("GetRefer[out.balance > 5000]")), 0);
        assert_eq!(eval.count(&parse("GetRefer[out.balance > 900]")), 2);
        assert_eq!(eval.count(&parse("GetRefer[out.balance > 100]")), 3);
        // The update raised wid 2's balance to 5000: visible at UpdateRefer.
        assert_eq!(eval.count(&parse("UpdateRefer[out.balance >= 5000]")), 1);
    }

    #[test]
    fn strategies_agree_on_a_pattern_battery() {
        let log = paper::figure3_log();
        let naive = Evaluator::with_strategy(&log, Strategy::NaivePaper);
        let planned = Evaluator::with_strategy(&log, Strategy::Planned);
        for src in [
            "GetRefer ~> CheckIn",
            "GetRefer -> GetReimburse",
            "SeeDoctor & PayTreatment",
            "(GetRefer -> CheckIn) | (SeeDoctor ~> PayTreatment)",
            "!CheckIn ~> SeeDoctor",
            "START -> (UpdateRefer | CompleteRefer)",
            "(SeeDoctor & SeeDoctor) -> GetReimburse",
        ] {
            let p = parse(src);
            let reference = naive.evaluate(&p);
            assert_eq!(reference.len(), naive.count(&p), "naive count on {src}");
            assert_eq!(
                !reference.is_empty(),
                naive.exists(&p),
                "naive exists on {src}"
            );
            assert_eq!(reference, planned.evaluate(&p), "planned mismatch on {src}");
            assert_eq!(
                reference.len(),
                planned.count(&p),
                "planned count mismatch on {src}"
            );
            assert_eq!(
                naive.exists(&p),
                planned.exists(&p),
                "planned exists mismatch on {src}"
            );
        }
    }

    #[test]
    fn empty_side_short_circuit_is_semantically_neutral() {
        let log = paper::figure3_log();
        let eval = Evaluator::new(&log);
        // Left side never matches: conjunctive composites are empty…
        assert_eq!(eval.count(&parse("Nope ~> SeeDoctor")), 0);
        assert_eq!(eval.count(&parse("Nope -> SeeDoctor")), 0);
        assert_eq!(eval.count(&parse("Nope & SeeDoctor")), 0);
        // …but choice still yields the right side.
        assert_eq!(eval.count(&parse("Nope | SeeDoctor")), 4);
    }
}
