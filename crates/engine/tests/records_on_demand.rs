//! A decoded log keeps its columns, not a `LogRecord` per record, and no
//! count, exists or list builds records, predicate queries included.
//!
//! After every decoder's log of a simulated clinic has answered
//! `Query::{count, exists, find}` of a chain and of a predicate query,
//! its live heap is bounded by its attribute maps (their undecoded bytes,
//! a 4-byte offset per map, and the one block the predicate parses) plus
//! 32 bytes per record: the index's columns and postings (~17), the two map
//! numbers (8) and what the queries leave in per-thread buffers. A log
//! holding a 72-byte record per record exceeds it. Asking for the records
//! afterwards then costs those 72 bytes per record: no query built them,
//! and neither did comparing two decoded logs.
//!
//! This file holds a single test because it installs a counting global
//! allocator, and tests running concurrently in the same binary would
//! show up in its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wlq_engine::Query;
use wlq_log::{io, IsLsn, Log, LogRecord};
use wlq_workflow::{scenarios, simulate, SimulationConfig};

/// Tracks live heap bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Live heap growth while `f` runs (negative growth reads 0).
fn growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let out = f();
    (out, LIVE.load(Ordering::Relaxed).saturating_sub(before))
}

/// Allowed live heap per record beyond the attribute maps.
const PER_RECORD: usize = 32;

/// The bytes a text or CSV decoder copies of one line's map fields: each
/// non-empty one, untrimmed, and a line end. The clinic's values hold no
/// separator, so the fields are the line's last two.
fn copied_fields(text: &str, sep: char, skip: usize) -> usize {
    text.lines()
        .skip(skip)
        .map(|line| {
            let fields: Vec<&str> = line.split(sep).collect();
            assert_eq!(fields.len(), 6, "{line}");
            (fields[4..].iter())
                .filter(|f| !matches!(f.trim(), "" | "-"))
                .map(|f| f.len() + 1)
                .sum::<usize>()
        })
        .sum()
}

/// The heap that parsing `activity`'s attribute block adds to a fresh
/// decoded copy.
fn parsed_block(log: &Log, activity: &str) -> usize {
    let index = log.index();
    let id = index.activity_id(activity).unwrap();
    let ordinal = index.activity_instances(id)[0];
    let p = index.instance_postings(ordinal as usize, id)[0];
    let (entries, parsed) = growth(|| log.maps(ordinal as usize, p).unwrap().map(|m| m.len()));
    assert!(
        entries.iter().sum::<usize>() > 0,
        "{activity} reads no attribute"
    );
    parsed
}

#[test]
fn queries_build_no_records_and_a_decoded_log_keeps_columns() {
    let log = simulate(&scenarios::clinic::model(), &SimulationConfig::new(2000, 7));
    let n = log.len();
    let maps: usize = (log.iter())
        .map(|r| usize::from(!r.input().is_empty()) + usize::from(!r.output().is_empty()))
        .sum();
    let bin = io::binary::write_binary(&log);
    let text = io::text::write_text(&log);
    let csv = io::csv::write_csv(&log);
    // The binary decoder keeps its input but for each record's lsn, wid,
    // is-lsn and activity name.
    let heads: usize = log.iter().map(|r| 24 + r.activity().as_str().len()).sum();
    let sources = [
        bin.len() - 12 - heads,
        copied_fields(&text, '|', 1),
        copied_fields(&csv, ',', 1),
    ];
    drop(log);
    let decoders: [&dyn Fn() -> Log; 3] = [
        &|| io::binary::read_binary(bin.clone()).unwrap(),
        &|| io::text::read_text(&text).unwrap(),
        &|| io::csv::read_csv(&csv).unwrap(),
    ];
    for (decode, source) in decoders.into_iter().zip(sources) {
        let parsed = parsed_block(&decode(), "GetRefer");
        let (log, held) = growth(|| {
            let log = decode();
            for src in [
                "UpdateRefer -> GetReimburse",
                "GetRefer[balance > 5000] -> UpdateRefer",
            ] {
                let q = Query::parse(src).unwrap();
                assert!(q.count(&log).unwrap() > 0, "{src}");
                assert!(q.exists(&log).unwrap(), "{src}");
                assert!(!q.find(&log).unwrap().is_empty(), "{src}");
            }
            log
        });
        let bound = source + 4 * maps + parsed + PER_RECORD * n;
        assert!(
            held <= bound,
            "{held} B live, over {bound} B: {source} B of maps, {maps} map offsets, \
             {parsed} B parsed, {n} records ({:.1} B per record beyond the maps)",
            (held - source - 4 * maps - parsed) as f64 / n as f64,
        );
        let (records, built) = growth(|| log.records().len());
        assert_eq!(records, n);
        assert!(
            built >= n * std::mem::size_of::<LogRecord>(),
            "records built before they were asked for: {built} B for {n}"
        );
        assert_eq!(
            log.maps(0, IsLsn(1)).map(|[i, o]| i.len() + o.len()),
            Some(0)
        );
    }
    // Equality reads the columns: comparing two decodes of the binary
    // builds neither log's records.
    let [a, b] = [(); 2].map(|()| io::binary::read_binary(bin.clone()).unwrap());
    assert_eq!(a, b);
    for log in [&a, &b] {
        let (records, built) = growth(|| log.records().len());
        assert_eq!(records, n);
        assert!(
            built >= n * std::mem::size_of::<LogRecord>(),
            "records built by the comparison: {built} B for {n}"
        );
    }
}
