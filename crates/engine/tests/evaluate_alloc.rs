//! Listing a query's incidents allocates per plan node and answer
//! segment, not per incident or per matched instance: an answer copies
//! small per-instance outputs into a few shared segments and moves large
//! ones in whole, so `Query::find` on one and on two workers, and
//! dropping its result, stay far below one heap call per incident, and
//! below one per matched instance.
//!
//! The file installs a counting global allocator. Its tests take one lock
//! in turn, since tests running concurrently in the same binary would
//! show up in each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// Held by each test while it counts.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    let _serial = serial();
    let log = log();
    let query = Query::parse("A -> B").unwrap();
    let incidents = INSTANCES * RUN * RUN;
    // Per instance and plan node: a few batch buffers, as each instance's
    // output is large enough to move into the answer whole; the constant
    // covers planning and starting two workers. The bound (396) is far
    // below one call per incident (180 000).
    let nodes = 2 * query.pattern().num_atoms() - 1;
    let bound = 4 * INSTANCES * nodes + 300;

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

/// `instances` instances of `A`, `B`, `C`: one incident of `A -> B` each.
fn small_instances(instances: usize) -> Log {
    let mut b = LogBuilder::new();
    for _ in 0..instances {
        let w = b.start_instance();
        for activity in ["A", "B", "C"] {
            b.append(w, activity, attrs! {}, attrs! {}).unwrap();
        }
        b.end_instance(w).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn listing_small_instances_allocates_per_segment_not_per_instance() {
    let _serial = serial();
    let query = Query::parse("A -> B").unwrap();
    let two = query.clone().threads(2);
    // Heap calls of a listing and of dropping its answer, on 1 and 2
    // workers.
    let measure = |instances: usize| {
        let log = small_instances(instances);
        let mut out = Vec::new();
        for q in [&query, &two] {
            let (set, found) = calls(|| q.find(&log).unwrap());
            assert_eq!(set.num_matched_instances(), instances);
            let ((), dropped) = calls(|| drop(set));
            out.extend([found, dropped]);
        }
        out
    };
    let (half, full) = (measure(1_000), measure(2_000));
    for (i, what) in [
        "find",
        "drop",
        "find on 2 threads",
        "drop after find on 2 threads",
    ]
    .into_iter()
    .enumerate()
    {
        // Far below one call per matched instance (2 000)…
        let bound = if what.starts_with("drop") { 32 } else { 300 };
        assert!(
            full[i] < bound,
            "{what}: {} heap calls (bound {bound})",
            full[i]
        );
        // …and twice the instances add only a segment or two and index
        // growth.
        assert!(
            full[i] <= half[i] + 24,
            "{what}: {} heap calls on 2 000 instances, {} on 1 000",
            full[i],
            half[i]
        );
    }
}
