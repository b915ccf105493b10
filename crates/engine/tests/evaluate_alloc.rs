//! Listing a query's incidents allocates per instance and plan node, not
//! per incident: an answer keeps the executor's per-instance batches, so
//! `Query::find` on one and on two workers, and dropping its result, each
//! stay far below one heap call per incident.
//!
//! This file holds a single test because it installs a counting global
//! allocator, and tests running concurrently in the same binary would
//! show up in its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wlq_engine::Query;
use wlq_log::{attrs, Log, LogBuilder};

/// Counts heap calls: allocations, reallocations and frees.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap calls made while `f` runs.
fn calls<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - before)
}

const INSTANCES: usize = 8;
const RUN: usize = 150;

/// `INSTANCES` instances of `RUN` `A`s followed by `RUN` `B`s: `RUN²`
/// incidents of `A -> B` in each.
fn log() -> Log {
    let mut b = LogBuilder::new();
    for _ in 0..INSTANCES {
        let w = b.start_instance();
        for activity in ["A", "B"] {
            for _ in 0..RUN {
                b.append(w, activity, attrs! {}, attrs! {}).unwrap();
            }
        }
        b.end_instance(w).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn listing_allocates_per_instance_not_per_incident() {
    let log = log();
    let query = Query::parse("A -> B").unwrap();
    let incidents = INSTANCES * RUN * RUN;
    // Per instance and plan node: a few batch buffers and kernel scratch
    // vectors; the constant covers planning and starting two workers. The
    // bound (984) is far below one call per incident (180 000).
    let nodes = 2 * query.pattern().num_atoms() - 1;
    let bound = 16 * INSTANCES * nodes + 600;

    let (set, evaluated) = calls(|| query.find(&log).unwrap());
    assert_eq!(set.len(), incidents);
    let ((), dropped) = calls(|| drop(set));
    let two = query.clone().threads(2);
    let (set, parallel) = calls(|| two.find(&log).unwrap());
    assert_eq!(set.len(), incidents);
    let ((), dropped_parallel) = calls(|| drop(set));

    for (what, n) in [
        ("find", evaluated),
        ("drop", dropped),
        ("find on 2 threads", parallel),
        ("drop after find on 2 threads", dropped_parallel),
    ] {
        assert!(
            n < bound,
            "{what}: {n} heap calls for {incidents} incidents (bound {bound})"
        );
    }
}
