//! Log serialization: a human-readable text table, CSV, and a compact
//! binary encoding.
//!
//! There is no standard interchange structure for workflow logs (the paper
//! notes real systems spread them over several stores), so this module
//! provides three self-describing formats:
//!
//! * [`text`] — the pipe-separated table of the paper's Figure 3; good for
//!   eyeballing and for docs/tests.
//! * [`csv`] — comma-separated with quoting; good for spreadsheets and
//!   external tools.
//! * [`binary`] — length-prefixed binary built on [`bytes`]; good for
//!   large benchmark logs.
//! * [`xes`] — a pragmatic subset of the IEEE XES standard, for
//!   interchange with process-mining tools (ProM, pm4py).

pub mod binary;
pub mod csv;
mod scan;
pub mod text;
pub mod xes;

use std::sync::Arc;

use crate::attrs::{Blocks, DictBuilder, Source};
use crate::log::Rows;
use crate::names::{AttrName, Interner};
use crate::value::parse_scalar;
use crate::{AttrMap, Log, ParseLogError, Value};

/// Renders a value for the text/CSV formats. Strings that would not
/// re-parse as the same string (they look numeric/boolean, are empty,
/// have surrounding whitespace, or contain separator characters) are
/// double-quoted with backslash escapes; everything else uses the plain
/// [`Value`] display.
pub(crate) fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) if needs_quoting(s) => {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                if c == '"' || c == '\\' {
                    out.push('\\');
                }
                out.push(c);
            }
            out.push('"');
            out
        }
        Value::Float(x) => {
            // Floats must re-parse as floats: integral values get a
            // trailing `.0`, non-finite values use the reserved tokens
            // recognised by `parse_rendered_value`.
            if x.is_nan() {
                if x.is_sign_negative() {
                    "-NaN".to_string()
                } else {
                    "NaN".to_string()
                }
            } else if x.is_infinite() {
                if *x > 0.0 {
                    "inf".to_string()
                } else {
                    "-inf".to_string()
                }
            } else {
                let mut s = format!("{x}");
                if !s.contains(['.', 'e', 'E']) {
                    s.push_str(".0");
                }
                s
            }
        }
        other => other.to_string(),
    }
}

fn needs_quoting(s: &str) -> bool {
    if s.is_empty() || s.trim() != s {
        return true;
    }
    if s.contains(['"', '\\', ',', ';', '|', '=']) {
        return true;
    }
    // The reserved non-finite float tokens must stay floats.
    if matches!(s, "NaN" | "-NaN" | "inf" | "-inf") {
        return true;
    }
    // Would it re-parse as a non-string value? (Value's FromStr is
    // infallible: Err = Infallible.)
    let reparsed: Value = match s.parse() {
        Ok(v) => v,
        Err(never) => match never {},
    };
    !matches!(reparsed, Value::Str(_))
}

/// Parses a rendered value: a double-quoted token is unescaped into a
/// string; anything else goes through [`Value`]'s `FromStr`.
pub(crate) fn parse_rendered_value(s: &str) -> Value {
    let s = scan::trim(s);
    match s {
        "NaN" => return Value::Float(f64::NAN),
        "-NaN" => return Value::Float(-f64::NAN),
        "inf" => return Value::Float(f64::INFINITY),
        "-inf" => return Value::Float(f64::NEG_INFINITY),
        _ => {}
    }
    if let Some(inner) = s.strip_prefix('"').and_then(|rest| rest.strip_suffix('"')) {
        if !inner.contains('\\') {
            return Value::Str(Arc::from(inner));
        }
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                if let Some(next) = chars.next() {
                    out.push(next);
                }
            } else {
                out.push(c);
            }
        }
        return Value::from(out);
    }
    parse_scalar(s).unwrap_or_else(|| Value::Str(Arc::from(s)))
}

/// Renders an attribute map as `name=value` entries joined by `sep`
/// (empty string for an empty map).
pub(crate) fn render_map(map: &AttrMap, sep: &str) -> String {
    let mut out = String::new();
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.push_str(k.as_str());
        out.push('=');
        out.push_str(&render_value(v));
    }
    out
}

/// Checks and parses the first four fields of a record: `lsn`, `wid` and
/// `is-lsn` as decimal numbers, and a non-empty activity name, interned
/// in `names` and returned as its first-seen id. The text and CSV
/// decoders share it, so each of these errors is raised in one place.
pub(crate) fn parse_head(
    [lsn, wid, is_lsn, activity]: [&str; 4],
    line_no: usize,
    names: &mut Interner,
) -> Result<(u64, u64, u32, u32), ParseLogError> {
    let number = |field: &'static str, text: &str| ParseLogError::BadNumber {
        line: line_no,
        field,
        text: text.to_string(),
    };
    let lsn = scan::parse_u64(lsn).ok_or_else(|| number("lsn", lsn))?;
    let wid = scan::parse_u64(wid).ok_or_else(|| number("wid", wid))?;
    let is_lsn = scan::parse_u32(is_lsn).ok_or_else(|| number("is-lsn", is_lsn))?;
    if activity.is_empty() {
        return Err(ParseLogError::BadShape {
            line: line_no,
            message: "activity name is empty".to_string(),
        });
    }
    Ok((lsn, wid, is_lsn, names.activity_id(activity)))
}

/// One load of the binary, text or CSV decoder: the interned activity
/// names, the records as columns (each with its activity id and whether
/// each of its maps is non-empty), and their non-empty attribute maps
/// filed undecoded into per-activity [`Blocks`], input before output.
/// No [`LogRecord`](crate::LogRecord) or [`AttrMap`] is made.
pub(crate) struct Load {
    pub(crate) names: Interner,
    pub(crate) blocks: Blocks,
    rows: Rows,
    /// Text and CSV: the non-empty map fields, each ended by a `\n`.
    fields: String,
}

impl Load {
    /// A load expecting up to `records` records.
    pub(crate) fn with_capacity(records: usize) -> Self {
        Load {
            names: Interner::default(),
            blocks: Blocks::default(),
            rows: Rows::with_capacity(records),
            fields: String::new(),
        }
    }

    /// Adds a record whose activity has id `activity`, and whose input
    /// and output maps are non-empty as `filled` says.
    pub(crate) fn push(&mut self, head: (u64, u64, u32, u32), filled: [bool; 2]) {
        self.rows.push(head, filled);
    }

    /// A non-empty text or CSV map of `activity`: its `field` (which
    /// holds no line end), split into `pieces` of one untrimmed
    /// `name=value` entry each. Each entry is checked to have a `=` and a
    /// non-empty name, and the field is copied out, to be parsed with its
    /// activity's block on first read.
    pub(crate) fn text_map<'a>(
        &mut self,
        activity: u32,
        field: &str,
        pieces: impl IntoIterator<Item = &'a str>,
        line_no: usize,
    ) -> Result<(), ParseLogError> {
        let mut count = 0u32;
        for piece in pieces {
            // What `split_entry` checks, without splitting: a name before
            // the first `=` (trimming the piece first moves no `=`).
            let name = piece.as_bytes().iter().position(|&b| b == b'=');
            if name.is_none_or(|eq| scan::trim(&piece[..eq]).is_empty()) {
                split_entry(scan::trim(piece), line_no)?;
            }
            count = count.saturating_add(1);
        }
        let at = self.fields.len();
        self.fields.push_str(field);
        self.fields.push('\n');
        self.blocks
            .map(activity, at, count)
            .ok_or_else(|| ParseLogError::BadShape {
                line: line_no,
                message: "more attribute entries than u32 can number".to_string(),
            })
    }

    /// The log: the records validated with the decoder's activity ids,
    /// and the blocks given the binary `maps` (the input compacted to its
    /// maps), or else the copied text fields, whose entries `sep`
    /// separates. A log with no non-empty map keeps neither.
    pub(crate) fn finish(self, maps: Option<Vec<u8>>, sep: u8) -> Result<Log, ParseLogError> {
        let Load {
            names,
            blocks,
            rows,
            mut fields,
        } = self;
        let blocks = blocks.finish(|| match maps {
            Some(maps) => Source::Binary(Arc::new(maps)),
            None => {
                fields.shrink_to_fit();
                Source::Text(Arc::new(fields), sep)
            }
        });
        Ok(Log::decoded(rows, &names.into_activities(), blocks)?)
    }
}

/// Parses the entries of a text or CSV map field that a load checked,
/// separated by `sep`, into `dict`, which ends no run. An entry that does
/// not parse is passed over; a checked field has none.
pub(crate) fn decode_entries(field: &str, sep: u8, dict: &mut DictBuilder) {
    for pair in scan::split_quoted(field, sep) {
        let pair = scan::trim(pair);
        if let Ok(id) = dict.entry(pair.as_bytes(), |names| parse_entry(pair, 0, names)) {
            dict.push(id);
        }
    }
}

/// Splits one trimmed `name=value` entry into its trimmed name and its
/// value text, or says why it is not one.
fn split_entry(pair: &str, line_no: usize) -> Result<(&str, &str), ParseLogError> {
    let Some((name, value)) = pair.split_once('=') else {
        return Err(ParseLogError::BadShape {
            line: line_no,
            message: format!("attribute entry {pair:?} is not name=value"),
        });
    };
    let name = scan::trim(name);
    if name.is_empty() {
        return Err(ParseLogError::BadShape {
            line: line_no,
            message: "attribute name is empty".to_string(),
        });
    }
    Ok((name, value))
}

/// Parses one trimmed `name=value` entry, interning the name in `names`.
fn parse_entry(
    pair: &str,
    line_no: usize,
    names: &mut Interner,
) -> Result<(AttrName, Value), ParseLogError> {
    let (name, value) = split_entry(pair, line_no)?;
    Ok((names.attr_name(name), parse_rendered_value(value)))
}

/// An upper bound on the records in a line-per-record text: its line
/// count. Sizing the record vector by it avoids regrowth.
pub(crate) fn line_count(text: &str) -> usize {
    scan::count(text.as_bytes(), b'\n') + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_values_render_unquoted() {
        assert_eq!(render_value(&Value::Int(42)), "42");
        assert_eq!(render_value(&Value::from("active")), "active");
        assert_eq!(
            render_value(&Value::from("Public Hospital")),
            "Public Hospital"
        );
        assert_eq!(render_value(&Value::Undefined), "⊥");
    }

    #[test]
    fn ambiguous_strings_are_quoted() {
        // Numeric-looking strings (hex ids with only digit/e characters).
        assert_eq!(render_value(&Value::from("12e34")), "\"12e34\"");
        assert_eq!(render_value(&Value::from("12345")), "\"12345\"");
        assert_eq!(render_value(&Value::from("true")), "\"true\"");
        assert_eq!(render_value(&Value::from("")), "\"\"");
        assert_eq!(render_value(&Value::from("a,b")), "\"a,b\"");
        assert_eq!(render_value(&Value::from("x=y")), "\"x=y\"");
    }

    #[test]
    fn rendered_values_round_trip() {
        for v in [
            Value::Int(-3),
            Value::Float(2.5),
            Value::Bool(false),
            Value::Undefined,
            Value::from("plain"),
            Value::from("12e34"),
            Value::from("999"),
            Value::from("with \"quotes\" and \\slash"),
            Value::from("a;b,c|d=e"),
            Value::from(" padded "),
            // Floats that print like integers or reserved tokens.
            Value::Float(0.0),
            Value::Float(-7.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            // Strings colliding with the reserved float tokens.
            Value::from("NaN"),
            Value::from("-NaN"),
            Value::from("inf"),
            Value::from("-inf"),
            // Strings containing the field separator.
            Value::from("a|b"),
        ] {
            let rendered = render_value(&v);
            let back = parse_rendered_value(&rendered);
            assert_eq!(back, v, "failed on {rendered}");
        }
    }

    #[test]
    fn integral_floats_render_distinguishably_from_ints() {
        assert_eq!(render_value(&Value::Float(3.0)), "3.0");
        assert_eq!(render_value(&Value::Int(3)), "3");
    }

    #[test]
    fn split_entries_respects_quotes() {
        let split = |s, sep| scan::split_quoted(s, sep).collect::<Vec<_>>();
        assert_eq!(split(r#"a="x,y", b=2"#, b','), [r#"a="x,y""#, " b=2"]);
        assert_eq!(
            split(r#"a="he said \";\"";b=1"#, b';'),
            [r#"a="he said \";\"""#, "b=1"]
        );
        // Unquoted backslashes escape nothing; multi-byte text is kept.
        assert_eq!(split(r"é\|ü|", b'|'), [r"é\", "ü", ""]);
        assert_eq!(split("", b','), [""]);
    }

    #[test]
    fn quoted_and_plain_values_parse() {
        assert_eq!(parse_rendered_value(" active "), Value::from("active"));
        assert_eq!(parse_rendered_value(r#""a\"b""#), Value::from("a\"b"));
        assert_eq!(parse_rendered_value(r#""12""#), Value::from("12"));
        assert_eq!(parse_rendered_value("12"), Value::Int(12));
    }

    /// The maps of one load, each checked at load and parsed when read
    /// from its block; one record per map, all of one activity.
    fn parse_all(maps: &[&str], sep: u8) -> Result<Vec<AttrMap>, ParseLogError> {
        let mut load = Load::with_capacity(maps.len());
        let activity = load.names.activity_id(crate::START_ACTIVITY);
        for (i, text) in maps.iter().enumerate() {
            let pieces = scan::split_quoted(text, sep);
            load.text_map(activity, text, pieces, i + 1)?;
            let n = i as u64 + 1;
            load.push((n, n, 1, activity), [true, false]);
        }
        let log = load.finish(None, sep)?;
        Ok(log.iter().map(|r| r.input().clone()).collect())
    }

    #[test]
    fn parse_entries_is_last_wins_and_names_bad_pairs() {
        let maps = parse_all(&["b=1, a = x ,b=2", "a = x", "a=x"], b',').unwrap();
        assert_eq!(maps[0].to_string(), "a=x, b=2");
        // The same entry written alike, or not, parses alike.
        assert_eq!(maps[1], maps[2]);
        assert_eq!(maps[1].get("a"), Some(&Value::from("x")));
        assert!(matches!(
            parse_all(&["a=1", "a=1;novalue"], b';'),
            Err(ParseLogError::BadShape { line: 2, .. })
        ));
        assert!(parse_all(&[" =1"], b',').is_err());
        // A bad entry is never cached: it fails every time it appears.
        assert!(parse_all(&["a=1", "b"], b',').is_err());
        assert!(parse_all(&["b", "b"], b',').is_err());
    }
}
