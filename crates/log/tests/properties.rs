//! Property tests of the log crate: builder validity, serialization
//! round-trips over randomly-shaped logs with arbitrary attribute values,
//! decoder robustness under byte mutations, decode interning, attribute
//! maps shared through a load's dictionary, lazily decoded attribute
//! blocks, records built on demand, and index consistency.

use proptest::prelude::{
    any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, Strategy,
};

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use std::sync::Barrier;

use wlq_log::{
    attrs, io, Activity, AttrMap, IsLsn, Log, LogBuilder, LogError, LogRecord, LogStats,
    ParseLogError, Value,
};

/// Arbitrary attribute values covering every kind.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Undefined),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // NaN payload bits are canonicalised: the text formats encode
        // NaN as a token, so only sign and canonical payload survive.
        any::<f64>().prop_map(|x| {
            Value::Float(if x.is_nan() {
                if x.is_sign_negative() {
                    -f64::NAN
                } else {
                    f64::NAN
                }
            } else {
                x
            })
        }),
        "[ -~]{0,12}".prop_map(Value::from), // printable ASCII incl. specials
    ]
}

fn arb_map() -> impl Strategy<Value = AttrMap> {
    prop::collection::vec(("[a-z]{1,6}", arb_value()), 0..4)
        .prop_map(|entries| entries.into_iter().collect())
}

/// A random multi-instance log: per instance, a list of
/// `(activity, input, output)` task records, interleaved round-robin.
fn arb_log() -> impl Strategy<Value = Log> {
    prop::collection::vec(
        prop::collection::vec(("[A-E]", arb_map(), arb_map()), 0..6),
        1..4,
    )
    .prop_map(|instances| {
        let mut b = LogBuilder::new();
        let wids: Vec<_> = instances.iter().map(|_| b.start_instance()).collect();
        let longest = instances.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..longest {
            for (i, tasks) in instances.iter().enumerate() {
                if let Some((act, input, output)) = tasks.get(step) {
                    b.append(wids[i], act.as_str(), input.clone(), output.clone())
                        .unwrap();
                }
            }
        }
        // Close every second instance.
        for (i, &wid) in wids.iter().enumerate() {
            if i % 2 == 0 {
                b.end_instance(wid).unwrap();
            }
        }
        b.build().unwrap()
    })
}

/// Activity names built to meet in the binary decoder's table of recent
/// names: runs of one length and first eight bytes, runs of one length
/// and first and last eight bytes, one-byte names, names of more than 16
/// bytes, non-ASCII names, and 300 numbered names, more than the table's
/// 256 slots.
fn activity_pool() -> Vec<String> {
    let mut pool: Vec<String> = ('A'..='Z').map(|c| format!("Referral{c}")).collect();
    pool.extend(('A'..='Z').map(|c| format!("Referral_{c}_Updated")));
    pool.extend(["A", "B", "x", "é", "Überprüfung", "检查", "Zahlung€"].map(String::from));
    pool.extend((0..4).map(|i| format!("AVeryLongActivityNameOverSixteenBytes{i}")));
    pool.extend((0..300).map(|i| format!("T{i}")));
    pool
}

/// A log over [`activity_pool`] names: either a few short instances of
/// drawn names with maps, or one instance running every name of the
/// pool from a drawn offset and one running drawn names.
fn arb_named_log() -> impl Strategy<Value = Log> {
    let pool = activity_pool();
    let name = prop::sample::select(pool.clone());
    let narrow = prop::collection::vec(
        prop::collection::vec((name.clone(), arb_map(), arb_map()), 0..6),
        1..4,
    );
    let wide = (0..pool.len(), prop::collection::vec(name, 0..40)).prop_map(move |(at, more)| {
        let mut all = pool.clone();
        all.rotate_left(at);
        let task = |n| (n, AttrMap::new(), AttrMap::new());
        vec![
            all.into_iter().map(task).collect(),
            more.into_iter().map(task).collect(),
        ]
    });
    prop_oneof![narrow, wide].prop_map(|instances: Vec<Vec<(String, AttrMap, AttrMap)>>| {
        let mut b = LogBuilder::new();
        for tasks in instances {
            let wid = b.start_instance();
            for (act, input, output) in tasks {
                b.append(wid, act.as_str(), input, output).unwrap();
            }
            b.end_instance(wid).unwrap();
        }
        b.build().unwrap()
    })
}

/// A seeded splitmix64 stream for byte mutations.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One random edit of `data`: flip a byte, truncate, insert a byte, or
/// duplicate a span in place.
fn mutate(data: &mut Vec<u8>, mix: &mut Mix) {
    if data.is_empty() {
        data.push(mix.next() as u8);
        return;
    }
    let at = mix.below(data.len());
    match mix.below(4) {
        0 => data[at] ^= 1 << mix.below(8),
        1 => data.truncate(at),
        2 => data.insert(at, mix.next() as u8),
        _ => {
            let len = 1 + mix.below((data.len() - at).min(16));
            let span = data[at..at + len].to_vec();
            data.splice(at..at, span);
        }
    }
}

/// A binary-format string: `u32` length, then the bytes.
fn bin_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A binary-format map entry: name, then a string value (tag 4).
fn bin_entry(out: &mut Vec<u8>, name: &str, value: &str) {
    bin_str(out, name);
    out.push(4);
    bin_str(out, value);
}

/// A binary-format value: its tag, then its payload.
fn bin_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Undefined => out.push(0),
        Value::Bool(b) => out.extend_from_slice(&[1, u8::from(*b)]),
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(3);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            bin_str(out, s);
        }
    }
}

/// `records`, in the order given, hand-encoded as a `WLQ1` file.
fn bin_log(records: &[LogRecord]) -> Vec<u8> {
    let mut out = b"WLQ1".to_vec();
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for r in records {
        out.extend_from_slice(&r.lsn().get().to_le_bytes());
        out.extend_from_slice(&r.wid().get().to_le_bytes());
        out.extend_from_slice(&r.is_lsn().get().to_le_bytes());
        bin_str(&mut out, r.activity().as_str());
        for map in [r.input(), r.output()] {
            out.extend_from_slice(&(map.len() as u32).to_le_bytes());
            for (name, value) in map {
                bin_str(&mut out, name.as_str());
                bin_value(&mut out, value);
            }
        }
    }
    out
}

/// Records that break Definition 2, and a test of the error they raise.
type Mutant = (Vec<LogRecord>, fn(&LogError) -> bool);

/// Definition 2 mutants of `records`, a valid log's in lsn order whose
/// first instance has ended (as `arb_log`'s has), each at a record
/// `pick` chooses, with the error each must raise.
fn mutants(records: &[LogRecord], pick: usize) -> Vec<Mutant> {
    let remade = |r: &LogRecord, lsn: u64, is_lsn: u32, activity: Activity| {
        LogRecord::new(
            lsn,
            r.wid(),
            is_lsn,
            activity,
            r.input().clone(),
            r.output().clone(),
        )
    };
    let lsn = |r: &LogRecord| r.lsn().get();
    let is_lsn = |r: &LogRecord| r.is_lsn().get();
    let n = records.len();
    let k = pick % n;
    let mut out: Vec<Mutant> = Vec::new();
    // Condition 1: a record takes its predecessor's lsn.
    if n > 1 {
        let mut m = records.to_vec();
        let d = 1 + pick % (n - 1);
        m[d] = remade(&m[d], d as u64, is_lsn(&m[d]), m[d].activity().clone());
        out.push((m, |e| matches!(e, LogError::DuplicateLsn(_))));
    }
    // Condition 1: every record from the `k`th on moves one lsn up.
    let mut m = records.to_vec();
    for r in &mut m[k..] {
        *r = remade(r, lsn(r) + 1, is_lsn(r), r.activity().clone());
    }
    out.push((m, |e| matches!(e, LogError::LsnGap { .. })));
    // Condition 2: a START record runs another activity, or another
    // record runs START.
    let mut m = records.to_vec();
    let swapped = if m[k].is_start() {
        Activity::new("A")
    } else {
        Activity::start()
    };
    m[k] = remade(&m[k], lsn(&m[k]), is_lsn(&m[k]), swapped);
    out.push((m, |e| matches!(e, LogError::StartMismatch { .. })));
    // Condition 3: a record after a START skips an is-lsn.
    let mut m = records.to_vec();
    if let Some(j) = (k..n).chain(0..k).find(|&j| !m[j].is_start()) {
        m[j] = remade(
            &m[j],
            lsn(&m[j]),
            is_lsn(&m[j]) + 1,
            m[j].activity().clone(),
        );
        out.push((m, |e| matches!(e, LogError::NonConsecutiveIsLsn { .. })));
    }
    // Condition 4: an ended instance runs one more record.
    if let Some(end) = records.iter().find(|r| r.is_end()) {
        let mut m = records.to_vec();
        m.push(remade(
            end,
            n as u64 + 1,
            is_lsn(end) + 1,
            Activity::new("A"),
        ));
        out.push((m, |e| matches!(e, LogError::RecordAfterEnd { .. })));
    }
    out
}

/// Asserts that every record naming the same activity shares one string
/// allocation.
fn activities_are_shared(log: &Log) -> Result<(), String> {
    let mut first: std::collections::HashMap<&str, *const u8> = Default::default();
    for r in log.iter() {
        let name = r.activity().as_str();
        let ptr = *first.entry(name).or_insert(name.as_ptr());
        if ptr != name.as_ptr() {
            return Err(format!("record {} holds its own copy of {name}", r.lsn()));
        }
    }
    Ok(())
}

/// `log` through every decoder: text, CSV, binary and XES.
fn decode_all(log: &Log) -> [Log; 4] {
    [
        io::text::read_text(&io::text::write_text(log)).unwrap(),
        io::csv::read_csv(&io::csv::write_csv(log)).unwrap(),
        io::binary::read_binary(io::binary::write_binary(log)).unwrap(),
        io::xes::read_xes(&io::xes::write_xes(log)).unwrap(),
    ]
}

/// Every record's input and output map, in lsn order.
fn maps(log: &Log) -> Vec<&AttrMap> {
    log.iter().flat_map(|r| [r.input(), r.output()]).collect()
}

/// Every record's maps as [`Log::maps`] lends them without building a
/// record, as queries read them, in (instance, is-lsn) order, copied out.
fn lent_maps(log: &Log) -> Vec<[AttrMap; 2]> {
    let index = log.index();
    let mut out = Vec::new();
    for ordinal in 0..index.num_instances() {
        for p in 1..=index.instance_activities(ordinal).len() as u32 {
            let maps = log.maps(ordinal, IsLsn(p)).expect("every entry has maps");
            out.push(maps.map(|m| m.iter().map(|(k, v)| (k.clone(), v.clone())).collect()));
        }
    }
    out
}

/// Every record's maps in (instance, is-lsn) order, read off the records.
fn record_maps(log: &Log) -> Vec<[AttrMap; 2]> {
    (log.wids().flat_map(|wid| log.instance(wid)))
        .map(|r| [r.input().clone(), r.output().clone()])
        .collect()
}

fn hash_of<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

#[test]
fn maps_and_records_stay_small() {
    assert_eq!(std::mem::size_of::<AttrMap>(), 16);
    assert!(std::mem::size_of::<LogRecord>() <= 72);
}

#[test]
fn decoded_maps_equal_literal_maps() {
    let mut b = LogBuilder::new();
    let w = b.start_instance();
    let referral = attrs! { "referId" => "034d1", "balance" => 1000i64 };
    b.append(w, "GetRefer", attrs! {}, referral.clone())
        .unwrap();
    b.append(
        w,
        "CheckIn",
        referral.clone(),
        attrs! { "referState" => "active" },
    )
    .unwrap();
    let log = b.build().unwrap();
    for decoded in decode_all(&log) {
        let input = decoded.records()[2].input();
        assert_eq!(input, &referral);
        assert_eq!(input.cmp(&referral), Ordering::Equal);
        assert_eq!(hash_of(input), hash_of(&referral));
        assert_eq!(input.to_string(), "balance=1000, referId=034d1");
    }
}

#[test]
fn binary_maps_with_repeated_or_unsorted_names_decode_last_wins() {
    let mut raw = b"WLQ1".to_vec();
    raw.extend_from_slice(&1u64.to_le_bytes());
    raw.extend_from_slice(&1u64.to_le_bytes()); // lsn
    raw.extend_from_slice(&1u64.to_le_bytes()); // wid
    raw.extend_from_slice(&1u32.to_le_bytes()); // is-lsn
    bin_str(&mut raw, "START");
    let input = [("b", "1"), ("a", "2"), ("b", "3"), ("c", "4"), ("a", "5")];
    raw.extend_from_slice(&(input.len() as u32).to_le_bytes());
    for (name, value) in input {
        bin_entry(&mut raw, name, value);
    }
    raw.extend_from_slice(&2u32.to_le_bytes());
    bin_entry(&mut raw, "z", "last");
    bin_entry(&mut raw, "z", "first");
    let log = io::binary::read_binary(raw.into()).unwrap();
    let record = &log.records()[0];
    assert_eq!(
        record.input(),
        &attrs! { "a" => "5", "b" => "3", "c" => "4" }
    );
    assert_eq!(record.output(), &attrs! { "z" => "first" });
    // Re-encoding writes the canonical, sorted form.
    let again = io::binary::read_binary(io::binary::write_binary(&log)).unwrap();
    assert_eq!(again, log);
}

proptest! {
    /// Byte mutations of every encoding (binary, text, CSV, XES) decode
    /// to a log or a typed error, never a panic; whatever decodes is a
    /// valid log whose records, rebuilt, give the same log and index.
    /// Comparing the records reads every map, so every lazy attribute
    /// block of a log that decodes is parsed here, and each map must
    /// still hold an entry if its encoding had one: a map that passed the
    /// load's framing check must parse.
    #[test]
    fn mutated_encodings_decode_or_fail_typed(log in arb_log(), seed in any::<u64>()) {
        let mut mix = Mix(seed);
        let encodings = [
            io::binary::write_binary(&log).to_vec(),
            io::text::write_text(&log).into_bytes(),
            io::csv::write_csv(&log).into_bytes(),
            io::xes::write_xes(&log).into_bytes(),
        ];
        for (format, clean) in encodings.iter().enumerate() {
            for _ in 0..8 {
                let mut data = clean.clone();
                for _ in 0..=mix.below(3) {
                    mutate(&mut data, &mut mix);
                }
                let decoded = match format {
                    0 => io::binary::read_binary(data.into()),
                    1 => io::text::read_text(&String::from_utf8_lossy(&data)),
                    2 => io::csv::read_csv(&String::from_utf8_lossy(&data)),
                    _ => io::xes::read_xes(&String::from_utf8_lossy(&data)),
                };
                if let Ok(decoded) = decoded {
                    // The maps queries read, then the records built on
                    // demand, which read every map again.
                    let lent = lent_maps(&decoded);
                    prop_assert_eq!(decoded.records().len(), decoded.len());
                    prop_assert_eq!(lent, record_maps(&decoded));
                    for map in maps(&decoded) {
                        prop_assert_eq!(map.is_empty(), map.iter().next().is_none());
                    }
                    let rebuilt = Log::new(decoded.clone().into_records()).unwrap();
                    prop_assert_eq!(rebuilt.index(), decoded.index());
                    prop_assert_eq!(rebuilt, decoded);
                }
            }
        }
    }

    /// Every decoder returns the source log, and records naming the same
    /// activity share one string allocation.
    #[test]
    fn decoded_logs_equal_source_and_share_names(log in arb_log()) {
        let decoded = [
            io::text::read_text(&io::text::write_text(&log)).unwrap(),
            io::csv::read_csv(&io::csv::write_csv(&log)).unwrap(),
            io::binary::read_binary(io::binary::write_binary(&log)).unwrap(),
        ];
        for back in &decoded {
            prop_assert_eq!(back, &log);
            prop_assert_eq!(activities_are_shared(back), Ok(()));
        }
    }

    /// A map cloned out of a decoded record shares the load's
    /// dictionary; writing to it copies it out first, so no other record
    /// of the log, nor the log's equality with its source, changes.
    #[test]
    fn writes_to_a_decoded_map_leave_the_log_unchanged(
        log in arb_log(),
        pick in any::<usize>(),
        op in 0..3u8,
    ) {
        for decoded in decode_all(&log) {
            let records = decoded.records();
            let record = &records[pick % records.len()];
            let other = records[(pick / 7) % records.len()].output();
            for map in [record.input(), record.output()] {
                let mut copy = map.clone();
                match op {
                    0 => {
                        copy.set("zz", 1i64);
                        for name in map.names() {
                            copy.set(name.clone(), Value::Undefined);
                        }
                    }
                    1 => {
                        for name in map.names() {
                            prop_assert!(copy.remove(name.as_str()).is_some());
                        }
                        prop_assert!(copy.is_empty());
                    }
                    _ => {
                        copy.apply(other);
                        copy.apply(&attrs! { "a" => "new" });
                    }
                }
                prop_assert_eq!(&decoded, &log);
                prop_assert_eq!(maps(&decoded), maps(&log));
            }
        }
    }

    /// Maps decoded into a dictionary compare, order and hash exactly like
    /// the hand-built maps (`set`, as `attrs!` uses) they came from, in
    /// every format.
    #[test]
    fn decoded_maps_compare_order_and_hash_like_built_ones(log in arb_log()) {
        let built = maps(&log);
        for decoded in decode_all(&log) {
            let decoded = maps(&decoded);
            prop_assert_eq!(decoded.len(), built.len());
            for (m, b) in decoded.iter().zip(&built) {
                prop_assert_eq!(hash_of(m), hash_of(b));
                for (m2, b2) in decoded.iter().zip(&built) {
                    prop_assert_eq!(m.cmp(m2), b.cmp(b2));
                    prop_assert_eq!(m.cmp(b2), b.cmp(b2));
                    prop_assert_eq!(*m == *m2, *b == *b2);
                }
            }
        }
    }

    /// A decoded log's maps are parsed one activity block at a time, on
    /// the first read of any of the block's maps. The binary and text
    /// round trips' maps equal the source's whichever order the blocks
    /// are forced in, and when two threads read a block first at once.
    #[test]
    fn lazy_blocks_decode_to_the_source_maps_in_any_order(
        log in arb_log(),
        seed in any::<u64>(),
    ) {
        let copies = || {
            [
                io::binary::read_binary(io::binary::write_binary(&log)).unwrap(),
                io::text::read_text(&io::text::write_text(&log)).unwrap(),
            ]
        };
        let mut activities = log.activities();
        let mut mix = Mix(seed);
        for i in (1..activities.len()).rev() {
            activities.swap(i, mix.below(i + 1));
        }
        let runs = |decoded: &Log, activity: &Activity| -> Vec<(AttrMap, AttrMap)> {
            decoded
                .iter()
                .filter(|r| r.activity() == activity)
                .map(|r| (r.input().clone(), r.output().clone()))
                .collect()
        };
        for decoded in copies() {
            for activity in &activities {
                prop_assert_eq!(runs(&decoded, activity), runs(&log, activity));
            }
        }
        for decoded in copies() {
            for activity in &activities {
                let barrier = Barrier::new(2);
                let read = || {
                    barrier.wait();
                    runs(&decoded, activity)
                };
                let (a, b) = std::thread::scope(|s| {
                    let a = s.spawn(read);
                    let b = s.spawn(read);
                    (a.join().unwrap(), b.join().unwrap())
                });
                prop_assert_eq!(&a, &runs(&log, activity));
                prop_assert_eq!(&b, &runs(&log, activity));
            }
        }
    }

    /// Whatever the builder produces, `Log::new` accepts (valid by
    /// construction, revalidated on assembly).
    #[test]
    fn builder_output_is_always_valid(log in arb_log()) {
        let records = log.clone().into_records();
        prop_assert_eq!(Log::new(records).unwrap(), log);
    }

    /// Text, CSV, binary, and XES round-trip arbitrary logs byte-exactly
    /// — including NaN floats, quotes, separators, and ⊥ values.
    #[test]
    fn all_formats_round_trip(log in arb_log()) {
        let text = io::text::write_text(&log);
        prop_assert_eq!(&io::text::read_text(&text).unwrap(), &log);
        let csv = io::csv::write_csv(&log);
        prop_assert_eq!(&io::csv::read_csv(&csv).unwrap(), &log);
        let bin = io::binary::write_binary(&log);
        prop_assert_eq!(&io::binary::read_binary(bin).unwrap(), &log);
        let xes = io::xes::write_xes(&log);
        prop_assert_eq!(&io::xes::read_xes(&xes).unwrap(), &log);
    }

    /// Every decoder's records, built on demand, equal `Log::new` of the
    /// same records, whether they are built before or after the maps are
    /// read the way queries read them; and the maps lent without records
    /// are the records' maps.
    #[test]
    fn records_built_on_demand_equal_the_given_records(log in arb_log()) {
        let given = Log::new(log.records().to_vec()).unwrap();
        let expected = record_maps(&given);
        for first in decode_all(&log) {
            prop_assert_eq!(first.records(), given.records());
            prop_assert_eq!(lent_maps(&first), expected.clone());
        }
        for later in decode_all(&log) {
            prop_assert_eq!(lent_maps(&later), expected.clone());
            prop_assert_eq!(later.records(), given.records());
        }
        for consumed in decode_all(&log) {
            prop_assert_eq!(Log::new(consumed.into_records()).unwrap(), given.clone());
        }
    }

    /// `Log::new` is the decoders' load pass: a log built from records
    /// agrees with that log through each of the four decoders in its
    /// records, its index and the maps it lends without building a
    /// record. Every Definition 2 mutant of the records (a duplicate lsn,
    /// an lsn gap, a START mismatch, a skipped is-lsn, a record after
    /// END) makes `Log::new` fail with the error the binary decoder
    /// raises for the same records hand-encoded.
    #[test]
    fn log_new_agrees_with_every_decoder(log in arb_log(), pick in any::<usize>()) {
        let records = log.records().to_vec();
        let given = Log::new(records.clone()).unwrap();
        for decoded in decode_all(&log) {
            prop_assert_eq!(decoded.index(), given.index());
            prop_assert_eq!(lent_maps(&decoded), lent_maps(&given));
            prop_assert_eq!(decoded.records(), given.records());
        }
        let mutated = mutants(&records, pick);
        prop_assert!(mutated.len() >= 4);
        for (mutant, expected) in mutated {
            let err = Log::new(mutant.clone()).unwrap_err();
            prop_assert!(expected(&err), "unexpected error {:?}", err);
            let read = io::binary::read_binary(bin_log(&mutant).into());
            prop_assert_eq!(read, Err(ParseLogError::Invalid(err)));
        }
    }

    /// Activity names that share a slot of the binary decoder's table of
    /// recent names (equal length, first and last eight bytes), names of
    /// one byte, of more than 16 bytes and not ASCII, and logs naming more
    /// activities than the table has slots: `Log::new` and the four
    /// decoders give equal logs.
    #[test]
    fn colliding_activity_names_decode_alike(log in arb_named_log()) {
        let given = Log::new(log.records().to_vec()).unwrap();
        for decoded in decode_all(&log) {
            prop_assert_eq!(decoded.index(), given.index());
            prop_assert_eq!(decoded.records(), given.records());
            prop_assert_eq!(&decoded, &given);
        }
    }

    /// Two threads racing to ask one decoded log for its records first
    /// get the same records: they are built once.
    #[test]
    fn racing_first_calls_to_records_get_one_slice(log in arb_log()) {
        for decoded in decode_all(&log) {
            let barrier = Barrier::new(2);
            let read = || {
                barrier.wait();
                let records = decoded.records();
                (records.as_ptr() as usize, records.len())
            };
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(read);
                let b = s.spawn(read);
                (a.join().unwrap(), b.join().unwrap())
            });
            prop_assert_eq!(a, b);
            prop_assert_eq!(a, (decoded.records().as_ptr() as usize, log.len()));
        }
    }

    /// The index agrees with a direct scan for every (wid, activity).
    #[test]
    fn index_matches_direct_scan(log in arb_log()) {
        let index = log.index();
        for wid in log.wids() {
            for activity in log.activities() {
                let scanned: Vec<_> = log
                    .instance(wid)
                    .filter(|r| r.activity() == &activity)
                    .map(wlq_log::LogRecord::is_lsn)
                    .collect();
                prop_assert_eq!(
                    index.postings(wid, activity.as_str()),
                    scanned.as_slice()
                );
                // Complement partitions the instance.
                let complement = index.complement_postings(wid, activity.as_str());
                prop_assert_eq!(
                    complement.len() + scanned.len(),
                    log.instance_len(wid)
                );
            }
        }
    }

    /// Statistics are internally consistent.
    #[test]
    fn stats_are_consistent(log in arb_log()) {
        let stats = LogStats::compute(&log);
        prop_assert_eq!(stats.num_records, log.len());
        prop_assert_eq!(stats.num_instances, log.num_instances());
        let total: usize = stats.activity_counts.values().sum();
        prop_assert_eq!(total, log.len());
        prop_assert!(stats.min_instance_len <= stats.max_instance_len);
        prop_assert!(
            stats.completed_instances <= stats.num_instances,
            "completed > total"
        );
    }

    /// Every prefix of a valid log is valid, and prefixes nest.
    #[test]
    fn prefixes_are_valid_and_monotone(log in arb_log()) {
        let mut previous_len = 0;
        for upto in 1..=log.len() as u64 {
            let prefix = log.prefix(wlq_log::Lsn(upto)).unwrap();
            prop_assert_eq!(prefix.len(), upto as usize);
            prop_assert!(prefix.len() >= previous_len);
            previous_len = prefix.len();
        }
    }

    /// Merging a log with Figure 3 preserves both sides' instance shapes.
    #[test]
    fn merge_preserves_instance_multisets(log in arb_log()) {
        let fig3 = wlq_log::paper::figure3_log();
        let merged = Log::merge([log.clone(), fig3.clone()]).unwrap();
        prop_assert_eq!(merged.len(), log.len() + fig3.len());
        prop_assert_eq!(
            merged.num_instances(),
            log.num_instances() + fig3.num_instances()
        );
        // Per-instance length multiset is preserved.
        let mut expected: Vec<usize> = log
            .wids()
            .map(|w| log.instance_len(w))
            .chain(fig3.wids().map(|w| fig3.instance_len(w)))
            .collect();
        let mut actual: Vec<usize> =
            merged.wids().map(|w| merged.instance_len(w)).collect();
        expected.sort_unstable();
        actual.sort_unstable();
        prop_assert_eq!(expected, actual);
    }
}
