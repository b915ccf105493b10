//! A query reads the index its log was loaded with: `Query::count`,
//! `Query::exists` and `fast_count` allocate a few KiB of planning and
//! counting state per call, however large the log, instead of indexing
//! the log again (which takes over 300 KB on the log used here). Only the
//! first call that reads an attribute may allocate more: it decodes the
//! read activity's attribute block, which must take well under what every
//! block of the log takes. And a
//! query plans once per call: `Query::find_first` allocates what
//! `Query::find` does, not a plan per instance.
//!
//! The counting global allocator counts per thread, so tests running
//! concurrently in the same binary do not show up in each other's
//! counts; every query measured here runs on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wlq_engine::{fast_count, Query};
use wlq_log::{io, LogIndex};
use wlq_workflow::{scenarios, simulate, SimulationConfig};

/// Counts bytes requested from the heap by allocations and
/// reallocations, per thread.
struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(n: usize) {
    // A `Cell` has no destructor, so the slot outlives every allocation
    // of its thread; `try_with` only guards the unreachable case.
    let _ = BYTES.try_with(|bytes| bytes.set(bytes.get() + n));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// Per-call allocation allowed: planning and counting state for a
/// handful of activities, independent of the log's size.
const BOUND: usize = 16 * 1024;

#[test]
fn queries_do_not_index_the_log_per_call() {
    let simulated = simulate(
        &scenarios::clinic::model(),
        &SimulationConfig::new(3_300, 7),
    );
    let log = io::binary::read_binary(io::binary::write_binary(&simulated)).unwrap();
    assert!(log.len() >= 30_000, "{} records", log.len());
    // The postings are grouped on the first `index()` call; every query
    // after that only reads them.
    let (_, first) = bytes(|| log.index().num_records());
    let (_, rebuild) = bytes(|| LogIndex::build(&log));
    assert!(rebuild > 300_000, "an index copy takes {rebuild} bytes");
    assert!(first < rebuild, "grouping took {first} bytes");

    // A decoded log parses an activity's attribute block on the first
    // read of one of its maps, once. Forcing every block of a second copy
    // gives the scale the first predicate call is held to.
    let copy = io::binary::read_binary(io::binary::write_binary(&simulated)).unwrap();
    let (_, forced) = bytes(|| {
        copy.iter()
            .map(|r| r.input().len() + r.output().len())
            .sum::<usize>()
    });
    let mut decoded = false;

    let queries = [
        // Counted by the enumeration-free DP.
        "UpdateRefer -> GetReimburse",
        "SeeDoctor & PayTreatment",
        // Planned evaluation: a predicate, and a match that never occurs.
        "GetRefer[balance > 5000] -> UpdateRefer",
        "GetReimburse -> UpdateRefer",
    ];
    for src in queries {
        let query = Query::parse(src).unwrap();
        let pattern = query.pattern().clone();
        let (count, counted) = bytes(|| query.count(&log).unwrap());
        let (found, existed) = bytes(|| query.exists(&log).unwrap());
        let (fast, fast_counted) = bytes(|| fast_count(&log, &pattern));
        assert_eq!(found, count > 0, "{src}");
        assert!(fast.is_none_or(|n| n == count), "{src}");
        for (what, n) in [
            ("Query::count", counted),
            ("Query::exists", existed),
            ("fast_count", fast_counted),
        ] {
            // The first call that reads attributes may decode `GetRefer`'s
            // block, a fraction of all of them; every later call reads it.
            let bound = if src.contains('[') && !std::mem::replace(&mut decoded, true) {
                forced / 3
            } else {
                BOUND
            };
            assert!(
                n < bound,
                "{what}({src}): {n} bytes per call (bound {bound}, an index copy {rebuild}, \
                 every block {forced})"
            );
        }
    }
}

/// `find_first` with no limit runs what `find` runs: one plan, the
/// query's candidates, one arena. Planning once per instance instead
/// costs a plan's few KiB two thousand times over.
#[test]
fn find_first_plans_once_per_call() {
    let simulated = simulate(
        &scenarios::clinic::model(),
        &SimulationConfig::new(2_000, 7),
    );
    let log = io::binary::read_binary(io::binary::write_binary(&simulated)).unwrap();
    // Group the postings before measuring either query.
    let _ = log.index();
    for src in [
        "GetRefer[balance > 5000] -> UpdateRefer",
        "SeeDoctor & PayTreatment",
        "CheckIn ~> SeeDoctor",
    ] {
        let query = Query::parse(src).unwrap();
        // Each call starts with the open segment the answer before it
        // left for reuse on this thread.
        let (all, found) = bytes(|| query.find(&log).unwrap());
        drop(all);
        let (first, firsted) = bytes(|| query.find_first(&log, usize::MAX).unwrap());
        assert_eq!(first, query.find(&log).unwrap(), "{src}");
        assert!(
            firsted <= found + BOUND,
            "find_first({src}) took {firsted} bytes, find {found} (slack {BOUND})"
        );
    }
}
