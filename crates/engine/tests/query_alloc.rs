//! A query reads the index its log was loaded with: `Query::count`,
//! `Query::exists` and `fast_count` allocate a few KiB of planning and
//! counting state per call, however large the log, instead of indexing
//! the log again (which takes over 300 KB on the log used here).
//!
//! This file holds a single test because it installs a counting global
//! allocator, and tests running concurrently in the same binary would
//! show up in its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wlq_engine::{fast_count, Query};
use wlq_log::{io, LogIndex};
use wlq_workflow::{scenarios, simulate, SimulationConfig};

/// Counts bytes requested from the heap by allocations and
/// reallocations.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated while `f` runs.
fn bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
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
            assert!(
                n < BOUND,
                "{what}({src}): {n} bytes per call (bound {BOUND}, an index copy {rebuild})"
            );
        }
    }
}
