//! Partitioned parallel evaluation.
//!
//! Incidents never span workflow instances, so `incL(p)` decomposes into
//! independent per-instance subproblems (the paper's Algorithm 2 iterates
//! over `widSet` sequentially). [`evaluate_parallel`] distributes the
//! instances over worker threads with [`crossbeam`] scoped threads and a
//! shared atomic work queue, then merges the per-instance results.
//!
//! The entry points are panic-free: a zero worker count is reported as
//! [`EngineError::NoWorkers`], and a panicking worker is contained at the
//! thread boundary and surfaced as [`EngineError::WorkerPanicked`].

use std::sync::atomic::{AtomicUsize, Ordering};

use wlq_log::{Log, Wid};
use wlq_pattern::Pattern;

use crate::batch::BatchArena;
use crate::error::EngineError;
use crate::eval::{Evaluator, Strategy};
use crate::incident::Incident;
use crate::incident_set::IncidentSet;

/// Renders a worker panic payload for [`EngineError::WorkerPanicked`].
pub(crate) fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluates `pattern` over `log` using up to `num_threads` workers.
///
/// Produces exactly the same incident set as
/// [`Evaluator::evaluate`]; instances are claimed from a shared queue so
/// skewed instance sizes still balance.
///
/// # Errors
///
/// Returns [`EngineError::NoWorkers`] if `num_threads` is 0 and
/// [`EngineError::WorkerPanicked`] if a worker thread panics.
///
/// # Examples
///
/// ```
/// use wlq_engine::{evaluate_parallel, Evaluator, Strategy};
/// use wlq_log::paper;
/// use wlq_pattern::Pattern;
///
/// let log = paper::figure3_log();
/// let p: Pattern = "SeeDoctor -> PayTreatment".parse()?;
/// let par = evaluate_parallel(&log, &p, 4, Strategy::Optimized)?;
/// assert_eq!(par, Evaluator::new(&log).evaluate(&p));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn evaluate_parallel(
    log: &Log,
    pattern: &Pattern,
    num_threads: usize,
    strategy: Strategy,
) -> Result<IncidentSet, EngineError> {
    Evaluator::with_strategy(log, strategy).evaluate_parallel(pattern, num_threads)
}

impl Evaluator<'_> {
    /// Multi-threaded [`evaluate`](Evaluator::evaluate): instances are
    /// claimed from a shared queue by up to `num_threads` crossbeam scoped
    /// threads. Reuses this evaluator's prebuilt index, so repeated
    /// parallel queries pay the indexing cost once.
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
        if num_threads == 0 {
            return Err(EngineError::NoWorkers);
        }
        let instances = self.index().num_instances();
        if num_threads == 1 || instances <= 1 {
            return Ok(self.evaluate(pattern));
        }
        // Plan and resolve once, outside the scope; workers share the
        // immutable tree.
        let plan = self.physical_plan(pattern);
        let exec = self.exec(pattern, plan.as_ref());

        // One entry per worker: the (wid, incidents) pairs it swept.
        type WorkerParts = Vec<Vec<(Wid, Vec<Incident>)>>;

        let next = AtomicUsize::new(0);
        let workers = num_threads.min(instances);
        let scope_result: std::thread::Result<Result<WorkerParts, EngineError>> =
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let next = &next;
                        let exec = &exec;
                        scope.spawn(move |_| {
                            // Instances are claimed one ordinal at a time.
                            let claims = std::iter::from_fn(|| {
                                let ordinal = next.fetch_add(1, Ordering::Relaxed);
                                (ordinal < instances).then_some(ordinal)
                            });
                            match exec {
                                // Each worker owns its arena: batches for
                                // the instances it sweeps recycle
                                // worker-locally, with no cross-thread
                                // sharing.
                                Some(exec) => {
                                    self.materialize_instances(exec, claims, &mut BatchArena::new())
                                }
                                None => claims
                                    .filter_map(|ordinal| {
                                        let wid = *self.index().instance_wids().get(ordinal)?;
                                        Some((wid, self.evaluate_instance(pattern, wid)))
                                    })
                                    .collect(),
                            }
                        })
                    })
                    .collect();
                // Joining every handle contains worker panics here rather
                // than letting the scope re-raise them on the caller.
                let mut parts = Vec::with_capacity(handles.len());
                for handle in handles {
                    match handle.join() {
                        Ok(part) => parts.push(part),
                        Err(payload) => {
                            return Err(EngineError::WorkerPanicked {
                                detail: describe_panic(payload.as_ref()),
                            })
                        }
                    }
                }
                Ok(parts)
            });
        let results = match scope_result {
            Ok(inner) => inner?,
            // Real crossbeam reports unjoined child panics through the
            // scope result; the std-backed shim never takes this path
            // because every handle is joined above.
            Err(payload) => {
                return Err(EngineError::WorkerPanicked {
                    detail: describe_panic(payload.as_ref()),
                })
            }
        };

        Ok(IncidentSet::from_partitions(results.into_iter().flatten()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::{attrs, paper, LogBuilder};

    fn parse(s: &str) -> Pattern {
        s.parse().unwrap()
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
        let reference = Evaluator::new(&log);
        for threads in [1, 2, 3, 8] {
            for src in [
                "SeeDoctor -> PayTreatment",
                "GetRefer ~> CheckIn",
                "A | SeeDoctor",
            ] {
                let p = parse(src);
                assert_eq!(
                    evaluate_parallel(&log, &p, threads, Strategy::Optimized).unwrap(),
                    reference.evaluate(&p),
                    "threads={threads} pattern={src}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_many_instances() {
        let log = many_instances(64);
        let reference = Evaluator::new(&log);
        for src in ["A -> B", "A & (B | C)", "!A ~> D", "A -> B -> C"] {
            let p = parse(src);
            for threads in [2, 4] {
                assert_eq!(
                    evaluate_parallel(&log, &p, threads, Strategy::Optimized).unwrap(),
                    reference.evaluate(&p),
                    "threads={threads} pattern={src}"
                );
            }
        }
    }

    #[test]
    fn all_strategies_work_under_parallelism() {
        let log = many_instances(16);
        let p = parse("A -> (B & C)");
        let naive = evaluate_parallel(&log, &p, 4, Strategy::NaivePaper).unwrap();
        assert_eq!(
            naive,
            evaluate_parallel(&log, &p, 4, Strategy::Optimized).unwrap()
        );
        assert_eq!(
            naive,
            evaluate_parallel(&log, &p, 4, Strategy::Batch).unwrap()
        );
        assert_eq!(
            naive,
            evaluate_parallel(&log, &p, 4, Strategy::Planned).unwrap()
        );
    }

    #[test]
    fn planned_workers_match_sequential_on_many_instances() {
        let log = many_instances(48);
        let reference = Evaluator::with_strategy(&log, Strategy::Planned);
        for src in ["A -> B", "(A & D) | (B ~> C)", "!A ~> D", "A -> B -> C"] {
            let p = parse(src);
            for threads in [2, 5] {
                assert_eq!(
                    evaluate_parallel(&log, &p, threads, Strategy::Planned).unwrap(),
                    reference.evaluate(&p),
                    "threads={threads} pattern={src}"
                );
            }
        }
    }

    #[test]
    fn batch_workers_match_sequential_on_many_instances() {
        let log = many_instances(48);
        let reference = Evaluator::with_strategy(&log, Strategy::Batch);
        for src in ["A -> B", "(A & D) | (B ~> C)", "!A ~> D"] {
            let p = parse(src);
            for threads in [2, 5] {
                assert_eq!(
                    evaluate_parallel(&log, &p, threads, Strategy::Batch).unwrap(),
                    reference.evaluate(&p),
                    "threads={threads} pattern={src}"
                );
            }
        }
    }

    #[test]
    fn more_threads_than_instances_is_fine() {
        let log = paper::figure3_log(); // 3 instances
        let p = parse("GetRefer");
        let set = evaluate_parallel(&log, &p, 64, Strategy::Optimized).unwrap();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn zero_threads_is_a_typed_error_not_a_panic() {
        let log = paper::figure3_log();
        let err = evaluate_parallel(&log, &parse("A"), 0, Strategy::Optimized).unwrap_err();
        assert_eq!(err, EngineError::NoWorkers);
    }

    #[test]
    fn panic_payloads_render_for_str_and_string() {
        assert_eq!(describe_panic(&"boom"), "boom");
        assert_eq!(describe_panic(&String::from("kaboom")), "kaboom");
        assert_eq!(describe_panic(&42usize), "non-string panic payload");
    }
}
