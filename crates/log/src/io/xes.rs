//! XES export/import (a pragmatic subset).
//!
//! [XES](https://xes-standard.org/) is the IEEE interchange format for
//! process-mining event logs (ProM, pm4py, Disco all speak it). This
//! module writes a WLQ log as XES — one `<trace>` per workflow instance,
//! one `<event>` per record — and reads back the same subset, so WLQ logs
//! can round-trip into the wider process-mining ecosystem.
//!
//! Mapping:
//!
//! * trace attribute `concept:name` ← the instance's `wid`,
//! * event attribute `concept:name` ← the activity name,
//! * event attribute `wlq:islsn` ← the record's `is-lsn`,
//! * record αin/αout entries become `wlq:in:<name>` / `wlq:out:<name>`
//!   string/int/float/boolean attributes.
//!
//! `START`/`END` records are exported like any other event so the
//! round-trip is exact. The reader is a small recursive-descent XML
//! parser restricted to the subset this writer emits (plus arbitrary
//! whitespace); it is not a general XML parser.

use std::borrow::Cow;
use std::fmt::Write as _;

use bytes::{BufMut, BytesMut};

use super::{binary, Load};
use crate::error::ParseLogError;
use crate::log::Log;
use crate::record::Wid;
use crate::{AttrMap, Value};

/// Serializes a log as an XES document.
#[must_use]
pub fn write_xes(log: &Log) -> String {
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str("<log xes.version=\"1.0\" xmlns=\"http://www.xes-standard.org/\">\n");
    for wid in log.wids() {
        let _ = writeln!(out, "  <trace>");
        let _ = writeln!(
            out,
            "    <string key=\"concept:name\" value=\"{}\"/>",
            wid.get()
        );
        for record in log.instance(wid) {
            let _ = writeln!(out, "    <event>");
            let _ = writeln!(
                out,
                "      <string key=\"concept:name\" value=\"{}\"/>",
                escape(record.activity().as_str())
            );
            let _ = writeln!(
                out,
                "      <int key=\"wlq:islsn\" value=\"{}\"/>",
                record.is_lsn().get()
            );
            let _ = writeln!(
                out,
                "      <int key=\"wlq:lsn\" value=\"{}\"/>",
                record.lsn().get()
            );
            write_map(&mut out, "wlq:in:", record.input());
            write_map(&mut out, "wlq:out:", record.output());
            let _ = writeln!(out, "    </event>");
        }
        let _ = writeln!(out, "  </trace>");
    }
    out.push_str("</log>\n");
    out
}

fn write_map(out: &mut String, prefix: &str, map: &AttrMap) {
    for (name, value) in map.iter() {
        let key = format!("{prefix}{}", escape(name.as_str()));
        let line = match value {
            Value::Undefined => format!("<string key=\"{key}\" value=\"⊥\"/>"),
            Value::Bool(b) => format!("<boolean key=\"{key}\" value=\"{b}\"/>"),
            Value::Int(i) => format!("<int key=\"{key}\" value=\"{i}\"/>"),
            Value::Float(x) => {
                // `{x}` prints both NaN signs as "NaN"; keep the sign so
                // bit-level equality (total_cmp) survives the round trip.
                let rendered = if x.is_nan() && x.is_sign_negative() {
                    "-NaN".to_string()
                } else {
                    format!("{x}")
                };
                format!("<float key=\"{key}\" value=\"{rendered}\"/>")
            }
            Value::Str(s) => format!("<string key=\"{key}\" value=\"{}\"/>", escape(s)),
        };
        let _ = writeln!(out, "      {line}");
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// `s` with the entities [`escape`] writes replaced; borrowed when it
/// holds none.
fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    Cow::Owned(
        s.replace("&quot;", "\"")
            .replace("&gt;", ">")
            .replace("&lt;", "<")
            .replace("&amp;", "&"),
    )
}

/// Parses a log from the XES subset emitted by [`write_xes`].
///
/// Each event's attribute entries are parsed and checked as they are
/// read, then filed with the event into the load pass that
/// [`Log::new`] and the other decoders share: its maps are encoded as
/// the binary format encodes them, into one buffer that every activity's
/// lazy attribute block shares.
///
/// # Errors
///
/// Returns [`ParseLogError`] for malformed documents, missing mandatory
/// keys, or record sets violating Definition 2.
pub fn read_xes(text: &str) -> Result<Log, ParseLogError> {
    let mut load = Load::with_capacity(0);
    let mut maps = BytesMut::default();
    let mut parser = XmlScanner::new(text);
    let mut current_wid: Option<Wid> = None;
    let mut event: Option<EventBuilder> = None;

    while let Some(tag) = parser.next_tag()? {
        match tag.name.as_str() {
            "trace" if !tag.closing => current_wid = None,
            "event" if !tag.closing => event = Some(EventBuilder::default()),
            "event" if tag.closing => {
                let builder = event
                    .take()
                    .ok_or_else(|| bad(parser.line, "</event> without <event>"))?;
                let wid = current_wid
                    .ok_or_else(|| bad(parser.line, "event before trace concept:name"))?;
                builder.file(wid, parser.line, &mut load, &mut maps)?;
            }
            "string" | "int" | "float" | "boolean" => {
                let key = tag
                    .attr("key")
                    .ok_or_else(|| bad(parser.line, "attribute without key"))?;
                let value = tag
                    .attr("value")
                    .ok_or_else(|| bad(parser.line, "attribute without value"))?;
                if let Some(ev) = event.as_mut() {
                    ev.set(&tag.name, &key, &value, parser.line)?;
                } else if key == "concept:name" {
                    // Trace-level name: the instance id.
                    let wid: u64 = value
                        .parse()
                        .map_err(|_| bad(parser.line, "trace concept:name is not a wid"))?;
                    current_wid = Some(Wid(wid));
                }
            }
            _ => {}
        }
    }
    Ok(load.finish(Some(Vec::from(maps.freeze())), 0)?)
}

fn bad(line: usize, message: impl Into<String>) -> ParseLogError {
    ParseLogError::BadShape {
        line,
        message: message.into(),
    }
}

#[derive(Default)]
struct EventBuilder {
    activity: Option<String>,
    is_lsn: Option<u32>,
    lsn: Option<u64>,
    /// The αin and αout entries, in document order, as the binary
    /// format encodes them, and how many each holds.
    maps: [(BytesMut, usize); 2],
}

/// Parses an attribute's `value` by its tag name.
fn parse_value(kind: &str, raw: &str, line: usize) -> Result<Value, ParseLogError> {
    Ok(match kind {
        "int" => Value::Int(raw.parse().map_err(|_| bad(line, "bad int"))?),
        "float" => Value::Float(raw.parse().map_err(|_| bad(line, "bad float"))?),
        "boolean" => Value::Bool(raw == "true"),
        _ => {
            if raw == "⊥" {
                Value::Undefined
            } else {
                Value::from(unescape(raw).as_ref())
            }
        }
    })
}

impl EventBuilder {
    fn set(&mut self, kind: &str, key: &str, raw: &str, line: usize) -> Result<(), ParseLogError> {
        let value = parse_value(kind, raw, line)?;
        let ((entries, count), name) = if let Some(name) = key.strip_prefix("wlq:in:") {
            (&mut self.maps[0], name)
        } else if let Some(name) = key.strip_prefix("wlq:out:") {
            (&mut self.maps[1], name)
        } else {
            match key {
                "concept:name" => self.activity = Some(unescape(raw).into_owned()),
                "wlq:islsn" => {
                    self.is_lsn =
                        Some(value.as_int().ok_or_else(|| bad(line, "islsn not int"))? as u32);
                }
                "wlq:lsn" => {
                    self.lsn = Some(value.as_int().ok_or_else(|| bad(line, "lsn not int"))? as u64);
                }
                _ => {} // foreign XES attributes are ignored
            }
            return Ok(());
        };
        binary::put_str(entries, &unescape(name));
        binary::put_value(entries, &value);
        *count += 1;
        Ok(())
    }

    /// Files the event, a record of instance `wid`, into `load`, and its
    /// maps into `maps`.
    fn file(
        self,
        wid: Wid,
        line: usize,
        load: &mut Load,
        maps: &mut BytesMut,
    ) -> Result<(), ParseLogError> {
        let activity = self
            .activity
            .ok_or_else(|| bad(line, "event without concept:name"))?;
        let is_lsn = self
            .is_lsn
            .ok_or_else(|| bad(line, "event without wlq:islsn"))?;
        let lsn = self.lsn.ok_or_else(|| bad(line, "event without wlq:lsn"))?;
        let activity = load.names.activity_id(&activity);
        let mut filled = [false; 2];
        for (filled, (entries, count)) in filled.iter_mut().zip(self.maps) {
            let entries = entries.freeze();
            let put = |buf: &mut BytesMut| buf.put_slice(entries.as_ref());
            *filled = (load.put_map(maps, activity, count, put))
                .ok_or_else(|| bad(line, "more attribute entries than u32 can number"))?;
        }
        load.push((lsn, wid.get(), is_lsn, activity), filled);
        Ok(())
    }
}

/// A found tag: name, attributes, and whether it was `</closing>`.
struct Tag {
    name: String,
    closing: bool,
    attrs: Vec<(String, String)>,
}

impl Tag {
    fn attr(&self, name: &str) -> Option<String> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    }
}

/// A minimal XML tag scanner for the subset we emit.
struct XmlScanner<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> XmlScanner<'a> {
    fn new(text: &'a str) -> Self {
        XmlScanner {
            rest: text,
            line: 1,
        }
    }

    fn next_tag(&mut self) -> Result<Option<Tag>, ParseLogError> {
        loop {
            let Some(start) = self.rest.find('<') else {
                return Ok(None);
            };
            self.line += self.rest[..start].matches('\n').count();
            self.rest = &self.rest[start..];
            let end = self
                .rest
                .find('>')
                .ok_or_else(|| bad(self.line, "unterminated tag"))?;
            let body = &self.rest[1..end];
            self.rest = &self.rest[end + 1..];
            if body.starts_with('?') || body.starts_with('!') {
                continue; // declaration or comment
            }
            let closing = body.starts_with('/');
            let body = body.trim_start_matches('/').trim_end_matches('/').trim();
            let (name, attr_text) = match body.split_once(char::is_whitespace) {
                Some((n, rest)) => (n, rest),
                None => (body, ""),
            };
            return Ok(Some(Tag {
                name: name.to_string(),
                closing,
                attrs: parse_attrs(attr_text, self.line)?,
            }));
        }
    }
}

fn parse_attrs(text: &str, line: usize) -> Result<Vec<(String, String)>, ParseLogError> {
    let mut attrs = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| bad(line, "attribute without '='"))?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        if !after.starts_with('"') {
            return Err(bad(line, "attribute value not quoted"));
        }
        let close = after[1..]
            .find('"')
            .ok_or_else(|| bad(line, "unterminated attribute value"))?;
        attrs.push((key, after[1..=close].to_string()));
        rest = after[close + 2..].trim_start();
    }
    Ok(attrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn figure3_round_trips_through_xes() {
        let log = paper::figure3_log();
        let xes = write_xes(&log);
        let back = read_xes(&xes).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn document_structure_is_xes_shaped() {
        let xes = write_xes(&paper::figure3_log());
        assert!(xes.starts_with("<?xml"));
        assert!(xes.contains("<log xes.version=\"1.0\""));
        assert_eq!(xes.matches("<trace>").count(), 3);
        assert_eq!(xes.matches("<event>").count(), 20);
        assert!(xes.contains("<string key=\"concept:name\" value=\"CheckIn\"/>"));
    }

    #[test]
    fn xml_escaping_round_trips() {
        use crate::{attrs, LogBuilder};
        let mut b = LogBuilder::new();
        let w = b.start_instance();
        b.append(w, "A", attrs! { "note" => "a<b & \"c\">d" }, attrs! {})
            .unwrap();
        let log = b.build().unwrap();
        let back = read_xes(&write_xes(&log)).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn all_value_kinds_round_trip() {
        use crate::{attrs, LogBuilder};
        let mut b = LogBuilder::new();
        let w = b.start_instance();
        b.append(
            w,
            "A",
            attrs! {
                "u" => Value::Undefined,
                "t" => true,
                "i" => -7i64,
                "f" => 1.25f64,
                "s" => "text",
            },
            attrs! {},
        )
        .unwrap();
        let log = b.build().unwrap();
        assert_eq!(read_xes(&write_xes(&log)).unwrap(), log);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(read_xes("").is_err()); // empty: no records → invalid log
        assert!(read_xes("<log><trace><event></event></trace></log>").is_err());
        assert!(read_xes("<log><unterminated").is_err());
        assert!(
            read_xes("<log><event><string key=\"concept:name\" value=\"A\"/></event></log>")
                .is_err()
        );
    }

    #[test]
    fn foreign_attributes_are_tolerated() {
        // A hand-written trace with extra XES attributes we don't model.
        let xes = r#"<?xml version="1.0"?>
<log>
  <string key="meta" value="ignored"/>
  <trace>
    <string key="concept:name" value="1"/>
    <event>
      <string key="concept:name" value="START"/>
      <string key="org:resource" value="alice"/>
      <int key="wlq:islsn" value="1"/>
      <int key="wlq:lsn" value="1"/>
    </event>
  </trace>
</log>"#;
        let log = read_xes(xes).unwrap();
        assert_eq!(log.len(), 1);
        assert!(log.records()[0].is_start());
    }
}
