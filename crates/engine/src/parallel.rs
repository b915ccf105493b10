//! Partitioned parallel evaluation and the engine's one worker pool.
//!
//! Incidents never span workflow instances, so `incL(p)` decomposes into
//! independent per-instance subproblems (the paper's Algorithm 2 iterates
//! over `widSet` sequentially). [`Evaluator::pool`] distributes a query's
//! candidate instances over the caller's thread and scoped worker threads
//! ([`std::thread::scope`]) through one shared candidate source; a
//! multi-threaded `Query::find`, `Query::count` and `Query::profile` all
//! run on it, each worker running the one per-instance loop over its
//! claims.
//!
//! The entry points are panic-free: a zero worker count is reported as
//! [`EngineError::NoWorkers`], and a panicking worker is contained at the
//! thread boundary and surfaced as [`EngineError::WorkerPanicked`].

use std::any::Any;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use wlq_log::Wid;
use wlq_pattern::Pattern;

use crate::batch::IncidentBatch;
use crate::candidates::Candidates;
use crate::error::EngineError;
use crate::eval::Evaluator;
use crate::incident_set::IncidentSet;
use crate::probe::NoProbe;

/// Renders a worker panic payload for [`EngineError::WorkerPanicked`].
fn describe_panic(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The union of the workers' parts, whose instances are disjoint.
pub(crate) fn join(parts: Vec<IncidentSet>) -> IncidentSet {
    parts.into_iter().fold(IncidentSet::new(), |mut set, part| {
        set.merge(part);
        set
    })
}

/// The instance ordinals one worker claims, one at a time, from the
/// pool's shared candidate source.
pub(crate) struct Claims<'a, 'i>(&'a Mutex<Candidates<'i>>);

impl Iterator for Claims<'_, '_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        // Workers run their code with the lock released, so a panic
        // cannot leave the source half-advanced.
        self.0.lock().unwrap_or_else(PoisonError::into_inner).next()
    }
}

impl Evaluator<'_> {
    /// Multi-threaded [`evaluate`](Evaluator::evaluate) on the worker
    /// pool: the same incident set, with instances claimed from a shared
    /// queue so skewed instance sizes still balance.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoWorkers`] if `num_threads` is 0 and
    /// [`EngineError::WorkerPanicked`] if a worker thread panics.
    pub fn evaluate_parallel(
        &self,
        pattern: &Pattern,
        num_threads: usize,
    ) -> Result<IncidentSet, EngineError> {
        // Plan and resolve once; workers share the immutable tree. Each
        // worker builds a part, and the parts' run indices are merged by
        // wid without copying an incident.
        let plan = self.physical_plan(pattern);
        let parts = self.pool(num_threads, self.candidates(pattern), |claims| {
            self.collect(pattern, plan.as_ref(), claims, &mut NoProbe)
        })?;
        Ok(join(parts))
    }

    /// `f` of each matched instance's root batch, with the instance's wid,
    /// on up to `threads` workers, in no particular order. No batch is
    /// kept, so only one value per matched instance is.
    ///
    /// # Errors
    ///
    /// As [`evaluate_parallel`](Self::evaluate_parallel).
    pub(crate) fn per_instance<T: Send>(
        &self,
        pattern: &Pattern,
        threads: usize,
        f: impl Fn(&IncidentBatch) -> T + Sync,
    ) -> Result<Vec<(Wid, T)>, EngineError> {
        let plan = self.physical_plan(pattern);
        let parts = self.pool(threads, self.candidates(pattern), |claims| {
            let mut kept = Vec::new();
            self.drive(
                pattern,
                plan.as_ref(),
                claims,
                &mut NoProbe,
                |batch, arena| {
                    kept.push((batch.wid(), f(&batch)));
                    arena.recycle(batch);
                    ControlFlow::Continue(())
                },
            );
            kept
        })?;
        Ok(parts.into_iter().flatten().collect())
    }

    /// The worker pool: runs `work` on up to `threads` workers (never more
    /// than there are instances), each handed the [`Claims`] it draws from
    /// `candidates`, and returns every worker's result in worker order.
    /// Each worker owns whatever `work` builds — arena, probe, results —
    /// so nothing is shared but the candidate source. The last worker runs
    /// on the caller's thread, whose per-thread buffers are warm, and the
    /// others on scoped threads; every worker's panic is caught.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoWorkers`] if `threads` is 0 and
    /// [`EngineError::WorkerPanicked`] if a worker panics.
    pub(crate) fn pool<'i, T: Send>(
        &self,
        threads: usize,
        candidates: Candidates<'i>,
        work: impl Fn(Claims<'_, 'i>) -> T + Sync,
    ) -> Result<Vec<T>, EngineError> {
        if threads == 0 {
            return Err(EngineError::NoWorkers);
        }
        let panicked = |payload: Box<dyn Any + Send>| EngineError::WorkerPanicked {
            detail: describe_panic(payload.as_ref()),
        };
        let source = Mutex::new(candidates);
        let claims = || Claims(&source);
        // The caller's own worker, the last.
        let own = || panic::catch_unwind(AssertUnwindSafe(|| work(claims()))).map_err(panicked);
        let workers = threads.min(self.index().num_instances());
        if workers <= 1 {
            return Ok(vec![own()?]);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|_| scope.spawn(|| work(claims())))
                .collect();
            let own = own();
            // Joining every handle — all of them, before looking at any
            // result — contains worker panics here rather than letting the
            // scope re-raise them on the caller.
            let mut joined: Vec<_> = handles
                .into_iter()
                .map(|handle| handle.join().map_err(panicked))
                .collect();
            joined.push(own);
            joined.into_iter().collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Query, Strategy};
    use wlq_log::{attrs, paper, Log, LogBuilder};

    /// `src` found on `threads` workers under `strategy`.
    fn find(log: &Log, src: &str, threads: usize, strategy: Strategy) -> IncidentSet {
        let q = Query::parse(src).unwrap().strategy(strategy);
        q.threads(threads).find(log).unwrap()
    }

    /// A log with many instances of varied lengths.
    fn many_instances(n: u64) -> Log {
        let mut b = LogBuilder::new();
        for i in 0..n {
            let w = b.start_instance();
            let len = 2 + (i % 7);
            for j in 0..len {
                let act = match (i + j) % 4 {
                    0 => "A",
                    1 => "B",
                    2 => "C",
                    _ => "D",
                };
                b.append(w, act, attrs! {}, attrs! {}).unwrap();
            }
            if i % 3 == 0 {
                b.end_instance(w).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn parallel_matches_sequential_on_figure3() {
        let log = paper::figure3_log();
        for threads in [1, 2, 3, 8] {
            for src in [
                "SeeDoctor -> PayTreatment",
                "GetRefer ~> CheckIn",
                "A | SeeDoctor",
            ] {
                assert_eq!(
                    find(&log, src, threads, Strategy::NaivePaper),
                    find(&log, src, 1, Strategy::NaivePaper),
                    "threads={threads} pattern={src}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_many_instances() {
        let log = many_instances(64);
        for src in ["A -> B", "A & (B | C)", "!A ~> D", "A -> B -> C"] {
            for threads in [2, 4] {
                assert_eq!(
                    find(&log, src, threads, Strategy::NaivePaper),
                    find(&log, src, 1, Strategy::NaivePaper),
                    "threads={threads} pattern={src}"
                );
            }
        }
    }

    #[test]
    fn all_strategies_work_under_parallelism() {
        let log = many_instances(16);
        let src = "A -> (B & C)";
        let naive = find(&log, src, 4, Strategy::NaivePaper);
        assert_eq!(naive, find(&log, src, 1, Strategy::NaivePaper));
        assert_eq!(naive, find(&log, src, 4, Strategy::Planned));
    }

    #[test]
    fn planned_workers_match_sequential_on_many_instances() {
        let log = many_instances(48);
        for src in ["A -> B", "(A & D) | (B ~> C)", "!A ~> D", "A -> B -> C"] {
            for threads in [2, 5] {
                assert_eq!(
                    find(&log, src, threads, Strategy::Planned),
                    find(&log, src, 1, Strategy::Planned),
                    "threads={threads} pattern={src}"
                );
            }
        }
    }

    /// Planned workers (per-worker arenas) against the naive oracle, on
    /// the operators the batch kernels run.
    #[test]
    fn batch_workers_match_sequential_on_many_instances() {
        let log = many_instances(48);
        for src in ["A -> B", "(A & D) | (B ~> C)", "!A ~> D"] {
            for threads in [2, 5] {
                assert_eq!(
                    find(&log, src, threads, Strategy::Planned),
                    find(&log, src, 1, Strategy::NaivePaper),
                    "threads={threads} pattern={src}"
                );
            }
        }
    }

    #[test]
    fn more_threads_than_instances_is_fine() {
        let log = paper::figure3_log(); // 3 instances
        let set = find(&log, "GetRefer", 64, Strategy::Planned);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn zero_threads_is_a_typed_error_not_a_panic() {
        let log = paper::figure3_log();
        let q = Query::parse("A").unwrap().threads(0);
        let err = q.find(&log).unwrap_err();
        assert_eq!(err, EngineError::NoWorkers);
    }

    #[test]
    fn pool_catches_worker_panics() {
        let log = many_instances(8);
        let eval = Evaluator::new(&log);
        let every = || Candidates::every(eval.index());
        for threads in [1, 2] {
            let err = eval
                .pool(threads, every(), |claims| {
                    for ordinal in claims {
                        assert!(ordinal < 4, "worker hit ordinal {ordinal}");
                    }
                })
                .unwrap_err();
            assert!(
                matches!(&err, EngineError::WorkerPanicked { detail } if detail.contains("worker hit")),
                "{threads} thread(s): {err:?}"
            );
        }
        // Every ordinal is claimed exactly once across workers.
        let mut claimed: Vec<usize> = eval
            .pool(3, every(), |claims| claims.collect::<Vec<_>>())
            .unwrap()
            .concat();
        claimed.sort_unstable();
        assert_eq!(claimed, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn panic_payloads_render_for_str_and_string() {
        assert_eq!(describe_panic(&"boom"), "boom");
        assert_eq!(describe_panic(&String::from("kaboom")), "kaboom");
        assert_eq!(describe_panic(&42usize), "non-string panic payload");
    }
}
