//! The streaming evaluator's heap use on a simulated clinic log (500
//! instances, each run to its `END`) replayed into the four monitor rules
//! of the end-to-end benchmark:
//!
//! - at most 0.5 allocations per single-rule append, on average;
//! - none for an append that matches no leaf, once its instance is known
//!   (an `END` aside, which retires the instance);
//! - once every instance has ended, live heap within twice the root's
//!   answers at their exact size, plus the instance table.
//!
//! This file holds a single test because it installs a counting global
//! allocator, and tests running concurrently in the same binary would
//! show up in its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wlq_engine::{IncidentBatch, IncidentRef, StreamingEvaluator};
use wlq_log::IsLsn;
use wlq_pattern::Pattern;
use wlq_workflow::{scenarios, simulate, SimulationConfig};

/// Counts allocations (a `realloc` counts as one) and live heap bytes.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract for `ptr`, `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The monitor rules of the end-to-end benchmark's `clinic_monitor`.
const RULES: [&str; 4] = [
    "UpdateRefer -> GetReimburse",
    "GetReimburse -> UpdateRefer",
    "SeeDoctor & PayTreatment",
    "GetRefer[balance > 5000] -> UpdateRefer",
];

/// Heap bytes the instance table may keep per instance seen: a 32-byte
/// entry at a hash-table load of at least 7/16.
const TABLE_BYTES_PER_INSTANCE: usize = 80;

/// Runs `f`, returning its result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn streaming_heap_use_is_bounded() {
    // Every simulated instance runs to its END.
    let log = simulate(&scenarios::clinic::model(), &SimulationConfig::new(500, 7));
    // The log builds its records on the first call that lends them out,
    // and parses an activity's attribute block on the first read of one
    // of its maps: do both here, so that no rule's heap window counts
    // the log's own memory.
    for record in log.iter() {
        let _ = (record.input().len(), record.output().len());
    }
    let instances = log.num_instances();
    let mut total_allocs = 0;
    for src in RULES {
        let pattern: Pattern = src.parse().unwrap();
        let named = pattern.activities();
        let live_before = LIVE.load(Ordering::Relaxed);
        let mut stream = StreamingEvaluator::new(pattern);
        for record in log.iter() {
            let (fired, allocs) = counted(|| stream.append(record).unwrap());
            drop(fired);
            total_allocs += allocs;
            // `END` also retires the instance, which may grow the list of
            // ended instances' answers.
            let known = record.is_lsn() != IsLsn::FIRST;
            if known && !record.is_end() && !named.contains(record.activity()) {
                assert_eq!(
                    allocs,
                    0,
                    "{src}: the append of lsn {} matches no leaf but allocated",
                    record.lsn()
                );
            }
        }
        let retained = LIVE.load(Ordering::Relaxed) - live_before;
        // The root's incidents at their exact size: per matched instance a
        // batch, per incident a ref and its positions. The evaluator's
        // batches grew by doubling, so they may take twice that.
        let answers = stream.incidents();
        let exact = answers.num_matched_instances() * size_of::<IncidentBatch>()
            + (answers.iter())
                .map(|o| size_of::<IncidentRef>() + o.len() * size_of::<IsLsn>())
                .sum::<usize>();
        let bound = 2 * exact + TABLE_BYTES_PER_INSTANCE * instances + 4096;
        assert!(
            retained <= bound,
            "{src}: {retained} heap bytes kept after every instance ended \
             (bound {bound}: {} answers, {instances} instances)",
            answers.len()
        );
    }
    let mean = total_allocs as f64 / (RULES.len() * log.len()) as f64;
    assert!(mean <= 0.5, "{mean:.3} allocations per single-rule append");
}
