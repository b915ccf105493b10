//! A decoded log frees its undecoded attribute maps once every block of
//! them is built.
//!
//! The binary and text decoders keep a load's maps undecoded, in one
//! source that every activity's block shares, and build a block on the
//! first read of any of its maps. A built block drops its share of the
//! source and its map starts. So reading an activity's maps first adds
//! its dictionary, but reading them last, after every other block was
//! built, also frees the whole source: the two growths differ by at
//! least the source's bytes. A block that kept the source after being
//! built would make them equal.
//!
//! This file holds a single test because it installs a counting global
//! allocator, and tests running concurrently in the same binary would
//! show up in its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use wlq_log::{io, ActivityId, IsLsn, Log};
use wlq_workflow::{scenarios, simulate, SimulationConfig};

/// Tracks live heap bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Live heap change while `f` runs, negative when it frees more than it
/// allocates.
fn change(f: impl FnOnce()) -> isize {
    let before = LIVE.load(Ordering::Relaxed);
    f();
    LIVE.load(Ordering::Relaxed) - before
}

/// Reads every map of activity `id`'s records.
fn read_maps(log: &Log, id: ActivityId) -> usize {
    let index = log.index();
    let mut entries = 0;
    for &ordinal in index.activity_instances(id) {
        for &p in index.instance_postings(ordinal as usize, id) {
            let [input, output] = log.maps(ordinal as usize, p).unwrap();
            entries += input.len() + output.len();
        }
    }
    entries
}

/// The bytes the text decoder copies of one line's map fields: each
/// non-empty one, untrimmed, and a line end. The clinic's values hold no
/// separator, so the fields are the line's last two.
fn copied_fields(text: &str) -> usize {
    text.lines()
        .skip(1)
        .map(|line| {
            let fields: Vec<&str> = line.split('|').collect();
            assert_eq!(fields.len(), 6, "{line}");
            (fields[4..].iter())
                .filter(|f| !matches!(f.trim(), "" | "-"))
                .map(|f| f.len() + 1)
                .sum::<usize>()
        })
        .sum()
}

#[test]
fn the_undecoded_maps_leave_the_heap_once_every_block_is_built() {
    let log = simulate(&scenarios::clinic::model(), &SimulationConfig::new(2000, 7));
    let bin = io::binary::write_binary(&log);
    let text = io::text::write_text(&log);
    // The binary decoder keeps its input but for each record's lsn, wid,
    // is-lsn and activity name.
    let heads: usize = log.iter().map(|r| 24 + r.activity().as_str().len()).sum();
    let sources = [bin.len() - 12 - heads, copied_fields(&text)];
    drop(log);
    let decoders: [&dyn Fn() -> Log; 2] =
        [&|| io::binary::read_binary(bin.clone()).unwrap(), &|| {
            io::text::read_text(&text).unwrap()
        }];
    for (decode, source) in decoders.into_iter().zip(sources) {
        let probe = decode();
        let last = probe.index().activity_id("GetRefer").unwrap();
        let ids = (0..probe.index().activities().len() as u32).map(ActivityId);
        let others: Vec<ActivityId> = ids.filter(|&id| id != last).collect();
        drop(probe);

        // Each log groups its index before the measured reads.
        let first = decode();
        let _ = first.index();
        let read_first = change(|| assert!(read_maps(&first, last) > 0, "GetRefer has no map"));

        let every = decode();
        let _ = every.index();
        for &id in &others {
            read_maps(&every, id);
        }
        let read_last = change(|| {
            read_maps(&every, last);
        });
        assert!(
            read_first - read_last >= source as isize,
            "reading the last block freed {} B, not the {source} B of undecoded maps",
            read_first - read_last,
        );
        assert_eq!(
            every.maps(0, IsLsn(1)).map(|[i, o]| i.len() + o.len()),
            Some(0)
        );
    }
}
