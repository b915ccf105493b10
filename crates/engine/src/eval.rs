//! The evaluator: strategies, leaf evaluation, and the per-instance
//! evaluation driver.
//!
//! Batch and planned evaluation first turn the query into an [`Exec`]
//! tree whose atoms are resolved to the index's activity ids, once per
//! query; the per-instance loops then run over instance ordinals and ids
//! only.

use std::ops::ControlFlow;

use wlq_log::{ActivityId, IsLsn, Log, LogIndex, Wid};
use wlq_pattern::{Atom, Op, Pattern};

use crate::batch::{BatchArena, IncidentBatch};
use crate::counting;
use crate::incident::Incident;
use crate::incident_set::IncidentSet;
use crate::planner::{PhysOp, PhysicalPlan, PlanNode, Planner};
use crate::{kernels, naive, optimized};

/// Which operator implementations the evaluator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// The paper's Algorithm 1: nested-loop joins, `O(n1·n2)` per operator.
    NaivePaper,
    /// Index- and merge-based operators (output-sensitive where possible)
    /// over the classic one-allocation-per-incident representation.
    /// Produces identical incident sets; see `crate::optimized`.
    Optimized,
    /// The optimized operators over the flat arena-backed
    /// [`IncidentBatch`] layout: unions are bump-appends into a shared
    /// position pool and output stays sorted by construction where input
    /// order guarantees it. Produces identical incident sets; see
    /// `crate::batch` and `crate::kernels`.
    Batch,
    /// Cost-based planning on top of the batch layout: the query is
    /// rewritten via the paper's Theorem 2–5 equivalences, the cheapest
    /// tree is chosen by Lemma-1-style estimates, and each node gets a
    /// physical operator (nested loop, batch kernel, or sort-merge
    /// sequential join); `count()`/`exists()` route chain patterns to the
    /// enumeration-free counting DP. Produces identical incident sets;
    /// see `crate::planner`.
    #[default]
    Planned,
}

/// Combines two per-instance incident lists under `op` using `strategy`.
///
/// This is the dispatch point between the paper-faithful and optimized
/// operator implementations; both produce the same sorted, deduplicated
/// output.
#[must_use]
pub fn combine(strategy: Strategy, op: Op, left: &[Incident], right: &[Incident]) -> Vec<Incident> {
    match (strategy, op) {
        (Strategy::NaivePaper, Op::Consecutive) => naive::consecutive_eval(left, right),
        (Strategy::NaivePaper, Op::Sequential) => naive::sequential_eval(left, right),
        (Strategy::NaivePaper, Op::Choice) => naive::choice_eval(left, right),
        (Strategy::NaivePaper, Op::Parallel) => naive::parallel_eval(left, right),
        (Strategy::Optimized, Op::Consecutive) => optimized::consecutive_eval(left, right),
        (Strategy::Optimized, Op::Sequential) => optimized::sequential_eval(left, right),
        (Strategy::Optimized, Op::Choice) => optimized::choice_eval(left, right),
        (Strategy::Optimized, Op::Parallel) => optimized::parallel_eval(left, right),
        (Strategy::Batch | Strategy::Planned, _) => {
            // Boundary conversion for callers holding classic incident
            // lists (trees, streaming deltas); the evaluator's own batch
            // path stays flat end-to-end and never comes through here.
            let Some(wid) = left.first().or_else(|| right.first()).map(Incident::wid) else {
                return Vec::new();
            };
            let l = IncidentBatch::from_incidents(wid, left);
            let r = IncidentBatch::from_incidents(wid, right);
            kernels::combine_batch(op, &l, &r).into_incidents()
        }
    }
}

/// An atom resolved against an index: its activity id, `None` when the
/// activity never occurs in the log.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Leaf<'p> {
    atom: &'p Atom,
    id: Option<ActivityId>,
}

impl<'p> Leaf<'p> {
    fn resolve(atom: &'p Atom, index: &LogIndex) -> Self {
        Leaf {
            atom,
            id: index.activity_id(atom.activity.as_str()),
        }
    }

    /// Calls `emit` with every matching position of instance `ordinal`,
    /// ascending: the activity's postings for `t`, a walk of the id column
    /// for `¬t` (the whole instance when `t` never occurs), each filtered
    /// by the atom's attribute predicates (extension).
    fn scan(self, log: &Log, index: &LogIndex, ordinal: usize, mut emit: impl FnMut(IsLsn)) {
        let admits = |p: IsLsn| {
            if self.atom.predicates.is_empty() {
                return true;
            }
            // Index positions always have a record in the log the index
            // was built from; a miss conservatively admits nothing.
            let Some(record) = index
                .record_offset(ordinal, p)
                .and_then(|offset| log.records().get(offset))
            else {
                return false;
            };
            self.atom
                .predicates
                .iter()
                .all(|pred| pred.matches(record.input(), record.output()))
        };
        if self.atom.negated {
            for (p, &id) in (1..).zip(index.instance_activities(ordinal)) {
                let p = IsLsn(p);
                if Some(id) != self.id && admits(p) {
                    emit(p);
                }
            }
        } else if let Some(id) = self.id {
            for &p in index.instance_postings(ordinal, id) {
                if admits(p) {
                    emit(p);
                }
            }
        }
    }
}

/// The incidents of an atomic pattern in one instance: every record whose
/// activity matches (`t`), or doesn't (`¬t`), filtered by the atom's
/// attribute predicates (extension).
#[must_use]
pub fn leaf_incidents(atom: &Atom, log: &Log, index: &LogIndex, wid: Wid) -> Vec<Incident> {
    let mut out = Vec::new();
    if let Some(ordinal) = index.ordinal(wid) {
        Leaf::resolve(atom, index).scan(log, index, ordinal, |p| {
            out.push(Incident::singleton(wid, p));
        });
    }
    out
}

/// Like [`leaf_incidents`], emitting straight into a pooled
/// [`IncidentBatch`]: one position per matching record, no per-incident
/// allocation. Postings are ascending, so the batch is born finished.
pub fn leaf_batch(
    atom: &Atom,
    log: &Log,
    index: &LogIndex,
    wid: Wid,
    arena: &mut BatchArena,
) -> IncidentBatch {
    let mut batch = arena.alloc(wid);
    if let Some(ordinal) = index.ordinal(wid) {
        Leaf::resolve(atom, index).scan(log, index, ordinal, |p| batch.push_singleton(p));
    }
    batch
}

/// A query tree over the batch kernels with its atoms resolved, built
/// once per query and run once per instance.
#[derive(Debug)]
pub(crate) enum Exec<'p> {
    Leaf(Leaf<'p>),
    Join {
        op: Op,
        phys: PhysOp,
        left: Box<Exec<'p>>,
        right: Box<Exec<'p>>,
    },
}

impl<'p> Exec<'p> {
    /// A physical plan, with the operators it chose.
    fn plan(node: &'p PlanNode, index: &LogIndex) -> Self {
        match node {
            PlanNode::Leaf { atom, .. } => Exec::Leaf(Leaf::resolve(atom, index)),
            PlanNode::Join {
                op,
                phys,
                left,
                right,
                ..
            } => Exec::Join {
                op: *op,
                phys: *phys,
                left: Box::new(Exec::plan(left, index)),
                right: Box::new(Exec::plan(right, index)),
            },
        }
    }

    /// A pattern as written, with the batch kernel at every join.
    fn pattern(pattern: &'p Pattern, index: &LogIndex) -> Self {
        match pattern {
            Pattern::Atom(atom) => Exec::Leaf(Leaf::resolve(atom, index)),
            Pattern::Binary { op, left, right } => Exec::Join {
                op: *op,
                phys: PhysOp::BatchKernel,
                left: Box::new(Exec::pattern(left, index)),
                right: Box::new(Exec::pattern(right, index)),
            },
        }
    }
}

/// Evaluates incident-pattern queries over one log.
///
/// Construction builds the per-instance activity index once
/// ([`LogIndex`]); each [`evaluate`](Self::evaluate) call then runs in
/// time bounded by Lemma 1 / Theorem 1.
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
#[derive(Debug)]
pub struct Evaluator<'a> {
    log: &'a Log,
    index: LogIndex,
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
        let index = LogIndex::build(log);
        let planner = (strategy == Strategy::Planned).then(|| Planner::new(log, &index));
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

    /// The evaluator's activity index.
    #[must_use]
    pub fn index(&self) -> &LogIndex {
        &self.index
    }

    /// The active strategy.
    #[must_use]
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The query planner, when the strategy is [`Strategy::Planned`].
    #[must_use]
    pub fn planner(&self) -> Option<&Planner> {
        self.planner.as_ref()
    }

    /// Plans `pattern` with the cost-based planner, when the strategy is
    /// [`Strategy::Planned`] (for `explain`-style inspection).
    #[must_use]
    pub fn physical_plan(&self, pattern: &Pattern) -> Option<PhysicalPlan> {
        self.planner.as_ref().map(|pl| pl.plan(pattern))
    }

    /// What the batch paths run for `pattern`: the plan's tree under
    /// [`Strategy::Planned`], the pattern itself under
    /// [`Strategy::Batch`], and `None` for the classic operators.
    pub(crate) fn exec<'p>(
        &self,
        pattern: &'p Pattern,
        plan: Option<&'p PhysicalPlan>,
    ) -> Option<Exec<'p>> {
        match plan {
            Some(plan) => Some(Exec::plan(plan.root(), &self.index)),
            None if self.strategy == Strategy::Batch => Some(Exec::pattern(pattern, &self.index)),
            None => None,
        }
    }

    /// Executes `exec` for instance `ordinal`, drawing and retiring
    /// batches in the caller's arena.
    fn run(
        &self,
        exec: &Exec<'_>,
        ordinal: usize,
        wid: Wid,
        arena: &mut BatchArena,
    ) -> IncidentBatch {
        match exec {
            Exec::Leaf(leaf) => {
                let mut batch = arena.alloc(wid);
                leaf.scan(self.log, &self.index, ordinal, |p| batch.push_singleton(p));
                batch
            }
            Exec::Join {
                op,
                phys,
                left,
                right,
            } => {
                let l = self.run(left, ordinal, wid, arena);
                // Short-circuit: for the three conjunctive operators an
                // empty side forces an empty result.
                if l.is_empty() && *op != Op::Choice {
                    return l;
                }
                let r = self.run(right, ordinal, wid, arena);
                let mut out = arena.alloc(wid);
                match phys {
                    PhysOp::NestedLoop => kernels::nested_loop_kernel(*op, &l, &r, &mut out),
                    PhysOp::BatchKernel => kernels::combine_batch_into(*op, &l, &r, &mut out),
                    PhysOp::SortMergeSeq => kernels::sequential_sort_merge_kernel(&l, &r, &mut out),
                }
                arena.recycle(l);
                arena.recycle(r);
                out
            }
        }
    }

    /// Executes `exec` for instance `ordinal` and materializes the result
    /// as classic incidents.
    ///
    /// The root join gets the late-materialization treatment: when it is
    /// a `⊙`/`→` node, [`kernels::materialize_join`] writes each union
    /// straight into its final `Vec` instead of round-tripping the full
    /// output through a batch pool plus [`IncidentBatch::drain_incidents`]
    /// — at the query boundary that round-trip is pure overhead, and for
    /// wide joins it re-copies every emitted position.
    fn materialize(
        &self,
        exec: &Exec<'_>,
        ordinal: usize,
        wid: Wid,
        arena: &mut BatchArena,
    ) -> Vec<Incident> {
        if let Exec::Join {
            op: op @ (Op::Consecutive | Op::Sequential),
            left,
            right,
            ..
        } = exec
        {
            let l = self.run(left, ordinal, wid, arena);
            if l.is_empty() {
                arena.recycle(l);
                return Vec::new();
            }
            let r = self.run(right, ordinal, wid, arena);
            let direct = kernels::materialize_join(*op, &l, &r);
            if let Some(incidents) = direct {
                arena.recycle(l);
                arena.recycle(r);
                return incidents;
            }
            let mut out = arena.alloc(wid);
            kernels::combine_batch_into(*op, &l, &r, &mut out);
            arena.recycle(l);
            arena.recycle(r);
            let incidents = out.drain_incidents();
            arena.recycle(out);
            return incidents;
        }
        let mut batch = self.run(exec, ordinal, wid, arena);
        let incidents = batch.drain_incidents();
        arena.recycle(batch);
        incidents
    }

    /// Runs `exec` over the instances in ordinal order, handing each
    /// result to `visit` until it breaks.
    fn sweep(
        &self,
        exec: &Exec<'_>,
        mut visit: impl FnMut(Wid, &IncidentBatch) -> ControlFlow<()>,
    ) {
        let mut arena = BatchArena::new();
        for (ordinal, &wid) in self.index.instance_wids().iter().enumerate() {
            let batch = self.run(exec, ordinal, wid, &mut arena);
            let flow = visit(wid, &batch);
            arena.recycle(batch);
            if flow.is_break() {
                return;
            }
        }
    }

    /// Materializes `exec` for every instance in `ordinals` (a range of
    /// ordinals, or all of them).
    pub(crate) fn materialize_instances(
        &self,
        exec: &Exec<'_>,
        ordinals: impl IntoIterator<Item = usize>,
        arena: &mut BatchArena,
    ) -> Vec<(Wid, Vec<Incident>)> {
        let wids = self.index.instance_wids();
        ordinals
            .into_iter()
            .filter_map(|ordinal| {
                let wid = *wids.get(ordinal)?;
                Some((wid, self.materialize(exec, ordinal, wid, arena)))
            })
            .collect()
    }

    /// Computes `incL(p)`: all incidents of `p` in the log.
    ///
    /// Under [`Strategy::Batch`] and [`Strategy::Planned`] the whole
    /// evaluation stays in the flat [`IncidentBatch`] layout, converting
    /// to [`Incident`]s only here at the query boundary; one
    /// [`BatchArena`] is reused across all instances. [`Strategy::Planned`]
    /// additionally plans the pattern once and executes the chosen
    /// physical tree per instance, materializing the root join directly.
    #[must_use]
    pub fn evaluate(&self, pattern: &Pattern) -> IncidentSet {
        let plan = self.physical_plan(pattern);
        let parts = match self.exec(pattern, plan.as_ref()) {
            Some(exec) => self.materialize_instances(
                &exec,
                0..self.index.num_instances(),
                &mut BatchArena::new(),
            ),
            None => self
                .index
                .wids()
                .map(|wid| (wid, self.evaluate_instance(pattern, wid)))
                .collect(),
        };
        IncidentSet::from_partitions(parts)
    }

    /// Computes the incidents of `p` within a single instance.
    #[must_use]
    pub fn evaluate_instance(&self, pattern: &Pattern, wid: Wid) -> Vec<Incident> {
        let plan = self.physical_plan(pattern);
        if let Some(exec) = self.exec(pattern, plan.as_ref()) {
            let Some(ordinal) = self.index.ordinal(wid) else {
                return Vec::new();
            };
            return self.materialize(&exec, ordinal, wid, &mut BatchArena::new());
        }
        match pattern {
            Pattern::Atom(atom) => leaf_incidents(atom, self.log, &self.index, wid),
            Pattern::Binary { op, left, right } => {
                let l = self.evaluate_instance(left, wid);
                // Short-circuit: for the three conjunctive operators an
                // empty side forces an empty result.
                if l.is_empty() && *op != Op::Choice {
                    return Vec::new();
                }
                let r = self.evaluate_instance(right, wid);
                combine(self.strategy, *op, &l, &r)
            }
        }
    }

    /// Computes the incidents of `p` within one instance in flat batch
    /// form, regardless of the configured strategy.
    #[must_use]
    pub fn evaluate_instance_batch(&self, pattern: &Pattern, wid: Wid) -> IncidentBatch {
        let mut arena = BatchArena::new();
        match self.index.ordinal(wid) {
            Some(ordinal) => self.run(
                &Exec::pattern(pattern, &self.index),
                ordinal,
                wid,
                &mut arena,
            ),
            None => arena.alloc(wid),
        }
    }

    /// Whether any incident of `p` exists. Stops at the first instance
    /// with one; under [`Strategy::Planned`] chain patterns skip
    /// enumeration via the counting DP.
    #[must_use]
    pub fn exists(&self, pattern: &Pattern) -> bool {
        let plan = self.physical_plan(pattern);
        if let Some(found) = plan
            .as_ref()
            .filter(|plan| plan.is_counting_chain())
            .and_then(|plan| counting::chain_exists(&self.index, plan.pattern()))
        {
            return found;
        }
        match self.exec(pattern, plan.as_ref()) {
            Some(exec) => {
                let mut found = false;
                self.sweep(&exec, |_, batch| {
                    found = !batch.is_empty();
                    if found {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                found
            }
            None => self
                .index
                .wids()
                .any(|wid| !self.evaluate_instance(pattern, wid).is_empty()),
        }
    }

    /// Number of incidents of `p` in the log, `|incL(p)|`.
    ///
    /// Under [`Strategy::Batch`] this counts [`IncidentBatch`] refs
    /// directly — no incident is ever materialized. Under
    /// [`Strategy::Planned`], `~>`/`->` chains of predicate-free atoms
    /// additionally skip enumeration entirely via the `O(m·k)` dynamic
    /// program of [`fast_count`](crate::fast_count).
    #[must_use]
    pub fn count(&self, pattern: &Pattern) -> usize {
        let plan = self.physical_plan(pattern);
        if let Some(n) = plan
            .as_ref()
            .filter(|plan| plan.is_counting_chain())
            .and_then(|plan| counting::chain_count(&self.index, plan.pattern()))
        {
            return n;
        }
        match self.exec(pattern, plan.as_ref()) {
            Some(exec) => {
                let mut n = 0;
                self.sweep(&exec, |_, batch| {
                    n += batch.len();
                    ControlFlow::Continue(())
                });
                n
            }
            None => self
                .index
                .wids()
                .map(|wid| self.evaluate_instance(pattern, wid).len())
                .sum(),
        }
    }

    /// The instances containing at least one incident of `p`.
    #[must_use]
    pub fn matching_instances(&self, pattern: &Pattern) -> Vec<Wid> {
        let plan = self.physical_plan(pattern);
        match self.exec(pattern, plan.as_ref()) {
            Some(exec) => {
                let mut wids = Vec::new();
                self.sweep(&exec, |wid, batch| {
                    if !batch.is_empty() {
                        wids.push(wid);
                    }
                    ControlFlow::Continue(())
                });
                wids
            }
            None => self
                .index
                .wids()
                .filter(|&wid| !self.evaluate_instance(pattern, wid).is_empty())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::paper;

    fn parse(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    fn fig3_eval(strategy: Strategy) -> (Log, Strategy) {
        (paper::figure3_log(), strategy)
    }

    #[test]
    fn example3_update_before_reimburse() {
        // incL(UpdateRefer → GetReimburse) = {{l14, l20}}.
        let log = paper::figure3_log();
        for strategy in [
            Strategy::NaivePaper,
            Strategy::Optimized,
            Strategy::Batch,
            Strategy::Planned,
        ] {
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
        let (log, s) = fig3_eval(Strategy::Optimized);
        let eval = Evaluator::with_strategy(&log, s);
        assert_eq!(eval.count(&parse("SeeDoctor")), 4);
        assert_eq!(eval.count(&parse("START")), 3);
        assert_eq!(eval.count(&parse("Missing")), 0);
        assert_eq!(eval.count(&parse("!START")), 17);
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
        assert_eq!(
            eval.matching_instances(&parse("GetRefer")),
            vec![Wid(1), Wid(2), Wid(3)]
        );
        assert_eq!(eval.matching_instances(&parse("UpdateRefer")), vec![Wid(2)]);
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
        let opt = Evaluator::with_strategy(&log, Strategy::Optimized);
        let batch = Evaluator::with_strategy(&log, Strategy::Batch);
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
            assert_eq!(naive.evaluate(&p), opt.evaluate(&p), "mismatch on {src}");
            assert_eq!(
                naive.evaluate(&p),
                batch.evaluate(&p),
                "batch mismatch on {src}"
            );
            assert_eq!(
                naive.count(&p),
                batch.count(&p),
                "batch count mismatch on {src}"
            );
            assert_eq!(
                naive.exists(&p),
                batch.exists(&p),
                "batch exists mismatch on {src}"
            );
            assert_eq!(
                naive.evaluate(&p),
                planned.evaluate(&p),
                "planned mismatch on {src}"
            );
            assert_eq!(
                naive.count(&p),
                planned.count(&p),
                "planned count mismatch on {src}"
            );
            assert_eq!(
                naive.exists(&p),
                planned.exists(&p),
                "planned exists mismatch on {src}"
            );
            assert_eq!(
                naive.matching_instances(&p),
                planned.matching_instances(&p),
                "planned matching_instances mismatch on {src}"
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
