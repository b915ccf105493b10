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

use std::fmt::Write as _;

use crate::attrs::DictBuilder;
use crate::error::ParseLogError;
use crate::log::Log;
use crate::record::{LogRecord, Wid};
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

fn unescape(s: &str) -> String {
    s.replace("&quot;", "\"")
        .replace("&gt;", ">")
        .replace("&lt;", "<")
        .replace("&amp;", "&")
}

/// Parses a log from the XES subset emitted by [`write_xes`].
///
/// # Errors
///
/// Returns [`ParseLogError`] for malformed documents, missing mandatory
/// keys, or record sets violating Definition 2.
pub fn read_xes(text: &str) -> Result<Log, ParseLogError> {
    let mut records: Vec<LogRecord> = Vec::new();
    let mut activities: Vec<u32> = Vec::new();
    let mut parser = XmlScanner::new(text);
    let mut current_wid: Option<Wid> = None;
    let mut event: Option<EventBuilder> = None;
    let mut dict = DictBuilder::default();

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
                let (record, activity) = builder.finish(wid, parser.line, &mut dict)?;
                records.push(record);
                activities.push(activity);
            }
            "string" | "int" | "float" | "boolean" => {
                let key = tag
                    .attr("key")
                    .ok_or_else(|| bad(parser.line, "attribute without key"))?;
                let value = tag
                    .attr("value")
                    .ok_or_else(|| bad(parser.line, "attribute without value"))?;
                if let Some(ev) = event.as_mut() {
                    ev.set(&mut dict, &tag.name, &key, &value, parser.line)?;
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
    let names = std::mem::take(&mut dict.names);
    dict.freeze(&mut records);
    Ok(Log::with_activity_ids(
        records,
        activities,
        names.into_activities(),
    )?)
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
    /// The dictionary ids of the αin and αout entries, in document order.
    input: Vec<u32>,
    output: Vec<u32>,
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
                Value::from(unescape(raw))
            }
        }
    })
}

impl EventBuilder {
    fn set(
        &mut self,
        dict: &mut DictBuilder,
        kind: &str,
        key: &str,
        raw: &str,
        line: usize,
    ) -> Result<(), ParseLogError> {
        let (ids, name) = if let Some(name) = key.strip_prefix("wlq:in:") {
            (&mut self.input, name)
        } else if let Some(name) = key.strip_prefix("wlq:out:") {
            (&mut self.output, name)
        } else {
            let value = parse_value(kind, raw, line)?;
            match key {
                "concept:name" => self.activity = Some(unescape(raw)),
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
        // The entry's bytes: the name and the kind, each length-prefixed,
        // then the raw value.
        let mut entry = Vec::with_capacity(8 + name.len() + kind.len() + raw.len());
        for part in [name, kind] {
            entry.extend_from_slice(&(part.len() as u32).to_le_bytes());
            entry.extend_from_slice(part.as_bytes());
        }
        entry.extend_from_slice(raw.as_bytes());
        ids.push(dict.entry(&entry, |names| {
            parse_value(kind, raw, line).map(|value| (names.attr_name(&unescape(name)), value))
        })?);
        Ok(())
    }

    /// The event's record, and its activity's first-seen id.
    fn finish(
        self,
        wid: Wid,
        line: usize,
        dict: &mut DictBuilder,
    ) -> Result<(LogRecord, u32), ParseLogError> {
        let activity = self
            .activity
            .ok_or_else(|| bad(line, "event without concept:name"))?;
        let is_lsn = self
            .is_lsn
            .ok_or_else(|| bad(line, "event without wlq:islsn"))?;
        let lsn = self.lsn.ok_or_else(|| bad(line, "event without wlq:lsn"))?;
        let mut map = |ids: Vec<u32>| {
            for id in ids {
                dict.push(id);
            }
            dict.finish_map()
                .ok_or_else(|| bad(line, "more attribute entries than u32 can number"))
        };
        let input = map(self.input)?;
        let output = map(self.output)?;
        let id = dict.names.activity_id(&activity);
        let activity = dict.names.activity_name(id);
        Ok((
            LogRecord::new(lsn, wid, is_lsn, activity, input, output),
            id,
        ))
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
