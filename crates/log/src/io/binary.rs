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

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::attrs::AttrMap;
use crate::error::ParseLogError;
use crate::log::Log;
use crate::names::Interner;
use crate::record::LogRecord;
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

/// The fewest bytes one map entry takes: an empty name and an undefined
/// value.
const MIN_ENTRY_BYTES: usize = 4 + 1;

/// Decodes a log from the binary format.
///
/// The decoder reads the buffer in place: each string costs one UTF-8
/// check and a lookup in a per-decode intern table, so the records of the
/// decoded log share one allocation per distinct name or string value.
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
    let mut input = Reader {
        data: data.chunk(),
        names: Interner::default(),
    };
    let (Some(magic), Some(count)) = (input.array::<4>(), input.u64()) else {
        return Err(bad("input shorter than header"));
    };
    if &magic != MAGIC {
        return Err(bad("bad magic, not a WLQ1 binary log"));
    }
    let fit = input.data.len() / MIN_RECORD_BYTES;
    let mut records = Vec::with_capacity(usize::try_from(count).map_or(fit, |n| n.min(fit)));
    for i in 0..count {
        let record = input
            .record()
            .ok_or_else(|| bad(format!("truncated record {i}")))?;
        records.push(record);
    }
    if !input.data.is_empty() {
        return Err(bad("trailing bytes after last record"));
    }
    Ok(Log::new(records)?)
}

/// A cursor over the undecoded bytes plus the decode's intern table.
/// Every read returns `None` when the input ends too early or a string
/// is not UTF-8.
struct Reader<'a> {
    data: &'a [u8],
    names: Interner,
}

impl<'a> Reader<'a> {
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

    fn str(&mut self) -> Option<&'a str> {
        let len = usize::try_from(self.u32()?).ok()?;
        if self.data.len() < len {
            return None;
        }
        let (raw, rest) = self.data.split_at(len);
        self.data = rest;
        std::str::from_utf8(raw).ok()
    }

    fn record(&mut self) -> Option<LogRecord> {
        let lsn = self.u64()?;
        let wid = self.u64()?;
        let is_lsn = self.u32()?;
        let activity = self.str()?;
        let activity = self.names.activity(activity);
        let input = self.map()?;
        let output = self.map()?;
        Some(LogRecord::new(lsn, wid, is_lsn, activity, input, output))
    }

    fn map(&mut self) -> Option<AttrMap> {
        let count = usize::try_from(self.u32()?).ok()?;
        let mut map = AttrMap::with_capacity(count.min(self.data.len() / MIN_ENTRY_BYTES));
        for _ in 0..count {
            let name = self.str()?;
            let name = self.names.attr_name(name);
            let value = self.value()?;
            // Maps this crate writes are name-sorted; others still decode
            // last-wins.
            map.push_sorted(name, value);
        }
        Some(map)
    }

    fn value(&mut self) -> Option<Value> {
        Some(match self.u8()? {
            0 => Value::Undefined,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(i64::from_le_bytes(self.array()?)),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => {
                let s = self.str()?;
                Value::Str(self.names.intern(s))
            }
            _ => return None,
        })
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
