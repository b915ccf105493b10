//! Compact binary log encoding built on [`bytes`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  "WLQ1"          4 bytes
//! count  u64             number of records
//! record*:
//!   lsn    u64
//!   wid    u64
//!   is_lsn u32
//!   act    str           (u32 length + UTF-8 bytes)
//!   input  map           (u32 count, then per entry: str name, value)
//!   output map
//! value: 1 tag byte then payload
//!   0 = undefined, 1 = bool (u8), 2 = int (i64), 3 = float (f64 bits),
//!   4 = str
//! ```

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use super::Load;
use crate::attrs::{AttrMap, DictBuilder};
use crate::error::ParseLogError;
use crate::log::Log;
use crate::names::{AttrName, Interner};
use crate::Value;

const MAGIC: &[u8; 4] = b"WLQ1";

/// Encodes a log into the binary format.
#[must_use]
pub fn write_binary(log: &Log) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 * log.len());
    buf.put_slice(MAGIC);
    buf.put_u64_le(log.len() as u64);
    for r in log.iter() {
        buf.put_u64_le(r.lsn().get());
        buf.put_u64_le(r.wid().get());
        buf.put_u32_le(r.is_lsn().get());
        put_str(&mut buf, r.activity().as_str());
        put_map(&mut buf, r.input());
        put_map(&mut buf, r.output());
    }
    buf.freeze()
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_map(buf: &mut BytesMut, map: &AttrMap) {
    buf.put_u32_le(map.len() as u32);
    for (k, v) in map.iter() {
        put_str(buf, k.as_str());
        put_value(buf, v);
    }
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Undefined => buf.put_u8(0),
        Value::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(u8::from(*b));
        }
        Value::Int(i) => {
            buf.put_u8(2);
            buf.put_i64_le(*i);
        }
        Value::Float(x) => {
            buf.put_u8(3);
            buf.put_u64_le(x.to_bits());
        }
        Value::Str(s) => {
            buf.put_u8(4);
            put_str(buf, s);
        }
    }
}

/// The fewest bytes one encoded record takes: lsn, wid, is-lsn, an empty
/// activity name and two empty maps.
const MIN_RECORD_BYTES: usize = 8 + 8 + 4 + 4 + 4 + 4;

/// Decodes a log from the binary format.
///
/// The decoder reads the buffer in place, and activity names are
/// interned. Each map's framing is checked at load: lengths, value tags
/// and the UTF-8 of names and string values. The maps themselves are not
/// parsed: the log keeps `data` (moved, not copied), compacted in place to
/// the maps' bytes, and each map's offset in its activity's block; a
/// block's maps are parsed into a dictionary of entries on the first read
/// of any of them (see [`AttrMap`]). A query that reads no attribute
/// parses none, and a log with no non-empty map keeps no input bytes.
/// Preallocation is bounded by the input's length, whatever its header
/// claims.
///
/// # Errors
///
/// Returns [`ParseLogError::BadShape`] on truncated or corrupt input and
/// [`ParseLogError::Invalid`] if the decoded records violate Definition 2.
pub fn read_binary(data: Bytes) -> Result<Log, ParseLogError> {
    fn bad(message: impl Into<String>) -> ParseLogError {
        ParseLogError::BadShape {
            line: 0,
            message: message.into(),
        }
    }
    let mut data = Vec::from(data);
    let mut header = Cursor { data: &data };
    let (Some(magic), Some(count)) = (header.array::<4>(), header.u64()) else {
        return Err(bad("input shorter than header"));
    };
    if &magic != MAGIC {
        return Err(bad("bad magic, not a WLQ1 binary log"));
    }
    let mut at = data.len() - header.data.len();
    let fit = header.data.len() / MIN_RECORD_BYTES;
    let mut load = Load::with_capacity(usize::try_from(count).map_or(fit, |n| n.min(fit)));
    // The maps' bytes move down to the front as records are read: `kept`
    // bytes of maps so far.
    let mut kept = 0;
    for i in 0..count {
        let truncated = || bad(format!("truncated record {i}"));
        let rest = data.get(at..).ok_or_else(truncated)?;
        let (maps, end) = record(rest, kept, &mut load).ok_or_else(truncated)?;
        data.copy_within(at + maps..at + end, kept);
        kept += end - maps;
        at += end;
    }
    if at != data.len() {
        return Err(bad("trailing bytes after last record"));
    }
    data.truncate(kept);
    data.shrink_to_fit();
    load.finish(Some(data), 0)
}

/// A cursor over undecoded bytes. Every read returns `None` when the
/// input ends too early.
struct Cursor<'a> {
    data: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.data.split_first_chunk::<N>()?;
        self.data = rest;
        Some(*head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.array::<1>().map(|[b]| b)
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `len` bytes.
    fn bytes(&mut self, len: usize) -> Option<&'a [u8]> {
        if self.data.len() < len {
            return None;
        }
        let (raw, rest) = self.data.split_at(len);
        self.data = rest;
        Some(raw)
    }

    /// A string's bytes, not yet checked to be UTF-8.
    fn raw_str(&mut self) -> Option<&'a [u8]> {
        let len = usize::try_from(self.u32()?).ok()?;
        self.bytes(len)
    }

    fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.raw_str()?).ok()
    }

    /// The bytes of one map entry (name, then tagged value), checked for
    /// length and tag only.
    fn entry(&mut self) -> Option<&'a [u8]> {
        let all = self.data;
        self.raw_str()?;
        self.value(Self::raw_str)?;
        Some(&all[..all.len() - self.data.len()])
    }

    /// Checks one map entry as a load does: lengths, the tag, and that the
    /// name and a string value are UTF-8.
    fn checked_entry(&mut self) -> Option<()> {
        self.utf8()?;
        self.value(Self::utf8)
    }

    /// Checks that a string is UTF-8; most are ASCII, tested inline.
    fn utf8(&mut self) -> Option<()> {
        let raw = self.raw_str()?;
        (raw.is_ascii() || std::str::from_utf8(raw).is_ok()).then_some(())
    }

    /// Passes over a tagged value, reading a string value with `string`.
    fn value<T>(&mut self, string: fn(&mut Self) -> Option<T>) -> Option<()> {
        match self.u8()? {
            0 => {}
            1 => {
                self.u8()?;
            }
            2 | 3 => {
                self.u64()?;
            }
            4 => {
                string(self)?;
            }
            _ => return None,
        }
        Some(())
    }
}

/// Parses the bytes of one map entry that [`Cursor::entry`] delimited,
/// checking its strings are UTF-8.
fn parse_entry(entry: &[u8], names: &mut Interner) -> Option<(AttrName, Value)> {
    let mut cursor = Cursor { data: entry };
    let name = names.attr_name(cursor.str()?);
    let value = match cursor.u8()? {
        0 => Value::Undefined,
        1 => Value::Bool(cursor.u8()? != 0),
        2 => Value::Int(i64::from_le_bytes(cursor.array()?)),
        3 => Value::Float(f64::from_bits(cursor.u64()?)),
        4 => Value::Str(Arc::from(cursor.str()?)),
        _ => return None,
    };
    Some((name, value))
}

/// Decodes the record `input` starts with. Its two maps are checked and
/// filed into its activity's block at the offsets they will have once
/// moved to byte `kept` of the compacted maps. Returns where in `input`
/// the maps start, and where the record ends.
fn record(input: &[u8], kept: usize, load: &mut Load) -> Option<(usize, usize)> {
    let mut cursor = Cursor { data: input };
    let lsn = cursor.u64()?;
    let wid = cursor.u64()?;
    let is_lsn = cursor.u32()?;
    let activity = load.names.activity_id(cursor.str()?);
    let maps = input.len() - cursor.data.len();
    let input_map = map(&mut cursor, kept, activity, load)?;
    let outputs = kept + (input.len() - cursor.data.len()) - maps;
    let output_map = map(&mut cursor, outputs, activity, load)?;
    load.push((lsn, wid, is_lsn, activity), [input_map, output_map]);
    Some((maps, input.len() - cursor.data.len()))
}

/// Checks the map `input` starts with, and files it into `activity`'s
/// block at offset `at` unless it is empty; returns whether it was.
fn map(input: &mut Cursor<'_>, at: usize, activity: u32, load: &mut Load) -> Option<bool> {
    let count = input.u32()?;
    for _ in 0..count {
        input.checked_entry()?;
    }
    if count == 0 {
        return Some(false);
    }
    load.blocks.map(activity, at, count).map(|()| true)
}

/// Parses the map a load checked at byte `at` of `data` into `dict`,
/// which ends no run. A read past the input, or an entry that does not
/// parse, ends the map early; a checked map has neither.
pub(crate) fn decode_map(data: &[u8], at: usize, dict: &mut DictBuilder) {
    let mut input = Cursor {
        data: data.get(at..).unwrap_or_default(),
    };
    for _ in 0..input.u32().unwrap_or(0) {
        let Some(entry) = input.entry() else {
            return;
        };
        match dict.entry(entry, |names| parse_entry(entry, names).ok_or(())) {
            Ok(id) => dict.push(id),
            Err(()) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn figure3_round_trips_through_binary() {
        let log = paper::figure3_log();
        let bytes = write_binary(&log);
        let back = read_binary(bytes).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_binary(Bytes::from_static(b"NOPE00000000")).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let log = paper::figure3_log();
        let bytes = write_binary(&log);
        let truncated = bytes.slice(0..bytes.len() - 3);
        assert!(read_binary(truncated).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let log = paper::figure3_log();
        let mut raw = write_binary(&log).to_vec();
        raw.push(0xFF);
        assert!(read_binary(Bytes::from(raw)).is_err());
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(read_binary(Bytes::new()).is_err());
    }

    #[test]
    fn all_value_kinds_round_trip() {
        let mut b = crate::LogBuilder::new();
        let w = b.start_instance();
        b.append(
            w,
            "A",
            crate::attrs! {
                "u" => crate::Value::Undefined,
                "b" => true,
                "i" => -9i64,
                "f" => 2.5f64,
                "s" => "text",
            },
            crate::AttrMap::new(),
        )
        .unwrap();
        let log = b.build().unwrap();
        let back = read_binary(write_binary(&log)).unwrap();
        assert_eq!(back, log);
    }
}
