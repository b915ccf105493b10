//! Decoding a clinic log allocates far less than once per record: the
//! records' attribute maps are runs of one per-load entry dictionary, so a
//! map needs no vector of its own, and each distinct `name=value` entry
//! is parsed and stored once per load.
//!
//! This file holds a single test because it installs a counting global
//! allocator, and tests running concurrently in the same binary would
//! show up in its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wlq_log::io;
use wlq_workflow::{scenarios, simulate, SimulationConfig};

/// Counts allocations and reallocations.
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

/// Allowed heap calls per decoded record, `Log::new` included. With one
/// vector per non-empty map the clinic log takes about 1.4.
const BOUND: f64 = 0.25;

#[test]
fn decoding_allocates_far_less_than_once_per_record() {
    let log = simulate(&scenarios::clinic::model(), &SimulationConfig::new(500, 11));
    let attributes: usize = log.iter().map(|r| r.input().len() + r.output().len()).sum();
    assert!(attributes > 2 * log.len(), "{attributes} attribute entries");
    let bin = io::binary::write_binary(&log);
    let text = io::text::write_text(&log);

    let (decoded, bin_calls) = calls(|| io::binary::read_binary(bin).unwrap());
    assert_eq!(decoded, log);
    drop(decoded);
    let (decoded, text_calls) = calls(|| io::text::read_text(&text).unwrap());
    assert_eq!(decoded, log);

    for (format, n) in [("binary", bin_calls), ("text", text_calls)] {
        let per_record = n as f64 / log.len() as f64;
        assert!(
            per_record <= BOUND,
            "{format}: {n} heap calls for {} records ({per_record:.3} per record)",
            log.len()
        );
    }
}
