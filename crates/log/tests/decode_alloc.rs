//! Decoder preallocation stays bounded by the input: a binary header that
//! claims far more records than the bytes can hold is rejected without
//! reserving memory for them.
//!
//! This file holds a single test because it installs a counting global
//! allocator, and tests running concurrently in the same binary would
//! show up in its peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use wlq_log::{io, ParseLogError};

/// Tracks live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap growth while `f` runs, above what was live when it started.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

#[test]
fn oversized_record_counts_reserve_nothing() {
    const MIB: usize = 1 << 20;
    let header = |count: u64, body: &[u8]| {
        let mut raw = b"WLQ1".to_vec();
        raw.extend_from_slice(&count.to_le_bytes());
        raw.extend_from_slice(body);
        Bytes::from(raw)
    };

    // A 12-byte file claiming 2⁶⁰ records.
    let data = header(1 << 60, &[]);
    let (result, peak) = peak_growth(|| io::binary::read_binary(data));
    assert!(
        matches!(result, Err(ParseLogError::BadShape { .. })),
        "{result:?}"
    );
    assert!(peak < MIB, "peak {peak} bytes");

    // One record whose input map claims 2³² − 1 entries.
    let mut record = Vec::new();
    record.extend_from_slice(&1u64.to_le_bytes()); // lsn
    record.extend_from_slice(&1u64.to_le_bytes()); // wid
    record.extend_from_slice(&1u32.to_le_bytes()); // is-lsn
    record.extend_from_slice(&5u32.to_le_bytes());
    record.extend_from_slice(b"START");
    record.extend_from_slice(&u32::MAX.to_le_bytes()); // input map
    let data = header(u64::MAX, &record);
    let (result, peak) = peak_growth(|| io::binary::read_binary(data));
    match result {
        Err(ParseLogError::BadShape { message, .. }) => {
            assert_eq!(message, "truncated record 0");
        }
        other => panic!("expected a truncated record, got {other:?}"),
    }
    assert!(peak < MIB, "peak {peak} bytes");
}
