//! The pipe-separated text format of Figure 3.
//!
//! One record per line, six `|`-separated fields:
//!
//! ```text
//! lsn | wid | is-lsn | activity | αin | αout
//! 4 | 1 | 3 | CheckIn | balance=1000, referId=034d1 | referState=active
//! ```
//!
//! Attribute maps are comma-separated `name=value` pairs, or `-` when
//! empty. A leading header line (starting with `lsn`) is written by
//! [`write_text`] and skipped by [`read_text`]. Attribute names must not
//! contain `=`, `,`, or `|`; values must not contain `,` or `|` (the
//! formats in this crate target the paper's value universe, not arbitrary
//! binary data — use [`crate::io::binary`] for that).

use crate::attrs::{AttrMap, DictBuilder};
use crate::error::ParseLogError;
use crate::log::Log;
use crate::record::LogRecord;

/// Renders a log as a Figure 3-style table with a header line.
///
/// Unlike [`LogRecord`]'s human-oriented `Display`, this renderer quotes
/// attribute values that would otherwise be ambiguous (numeric-looking
/// strings, separators), so [`read_text`] round-trips losslessly.
#[must_use]
pub fn write_text(log: &Log) -> String {
    let mut out = String::from("lsn | wid | is-lsn | t | in | out\n");
    for r in log.iter() {
        let render = |m: &AttrMap| {
            if m.is_empty() {
                "-".to_string()
            } else {
                super::render_map(m, ", ")
            }
        };
        out.push_str(&format!(
            "{} | {} | {} | {} | {} | {}\n",
            r.lsn(),
            r.wid(),
            r.is_lsn(),
            r.activity(),
            render(r.input()),
            render(r.output()),
        ));
    }
    out
}

/// Parses a log from the text format.
///
/// Fields and map entries are borrowed slices of `text`. Activity and
/// attribute names are interned, and the attribute maps are runs of one
/// per-load dictionary of `name=value` entries, so a repeated name or
/// entry is stored once and no map allocates on its own.
///
/// # Errors
///
/// Returns [`ParseLogError`] if a line is malformed or the records do not
/// form a valid log (Definition 2).
pub fn read_text(text: &str) -> Result<Log, ParseLogError> {
    let mut records = Vec::with_capacity(super::line_count(text));
    let mut dict = DictBuilder::default();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with("lsn") {
            continue;
        }
        records.push(parse_line(trimmed, line_no, &mut dict)?);
    }
    dict.freeze(&mut records);
    Ok(Log::new(records)?)
}

fn parse_line(
    line: &str,
    line_no: usize,
    dict: &mut DictBuilder,
) -> Result<LogRecord, ParseLogError> {
    // Quote-aware split: a '|' inside a quoted attribute value is data.
    let fields = super::split_exact(line, b'|').map_err(|found| ParseLogError::BadShape {
        line: line_no,
        message: format!("expected 6 '|'-separated fields, found {found}"),
    })?;
    let [lsn, wid, is_lsn, activity, input, output] = fields.map(str::trim);
    let number = |field: &'static str, text: &str| ParseLogError::BadNumber {
        line: line_no,
        field,
        text: text.to_string(),
    };
    let lsn: u64 = lsn.parse().map_err(|_| number("lsn", lsn))?;
    let wid: u64 = wid.parse().map_err(|_| number("wid", wid))?;
    let is_lsn: u32 = is_lsn.parse().map_err(|_| number("is-lsn", is_lsn))?;
    if activity.is_empty() {
        return Err(ParseLogError::BadShape {
            line: line_no,
            message: "activity name is empty".to_string(),
        });
    }
    let activity = dict.names.activity(activity);
    let input = parse_attr_map(input, line_no, dict)?;
    let output = parse_attr_map(output, line_no, dict)?;
    Ok(LogRecord::new(lsn, wid, is_lsn, activity, input, output))
}

fn parse_attr_map(
    text: &str,
    line_no: usize,
    dict: &mut DictBuilder,
) -> Result<AttrMap, ParseLogError> {
    if text.is_empty() || text == "-" {
        return Ok(AttrMap::new());
    }
    super::parse_entries(text, b',', line_no, dict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::record::{Lsn, Wid};
    use crate::Value;

    #[test]
    fn figure3_round_trips() {
        let log = paper::figure3_log();
        let text = write_text(&log);
        let back = read_text(&text).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn header_comments_and_blank_lines_are_skipped() {
        let text = "\
lsn | wid | is-lsn | t | in | out
# a comment

1 | 1 | 1 | START | - | -
2 | 1 | 2 | A | x=1 | y=2
";
        let log = read_text(text).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(
            log.get(Lsn(2)).unwrap().input().get_or_undefined("x"),
            Value::Int(1)
        );
    }

    #[test]
    fn wrong_field_count_is_reported_with_line_number() {
        let err = read_text("1 | 1 | 1 | START | -").unwrap_err();
        assert!(matches!(err, ParseLogError::BadShape { line: 1, .. }));
    }

    #[test]
    fn bad_numbers_name_the_field() {
        let err = read_text("x | 1 | 1 | START | - | -").unwrap_err();
        assert!(matches!(err, ParseLogError::BadNumber { field: "lsn", .. }));
        let err = read_text("1 | y | 1 | START | - | -").unwrap_err();
        assert!(matches!(err, ParseLogError::BadNumber { field: "wid", .. }));
        let err = read_text("1 | 1 | z | START | - | -").unwrap_err();
        assert!(matches!(
            err,
            ParseLogError::BadNumber {
                field: "is-lsn",
                ..
            }
        ));
    }

    #[test]
    fn malformed_attribute_pairs_are_rejected() {
        let err = read_text("1 | 1 | 1 | START | novalue | -").unwrap_err();
        assert!(matches!(err, ParseLogError::BadShape { .. }));
        let err = read_text("1 | 1 | 1 | START | =1 | -").unwrap_err();
        assert!(matches!(err, ParseLogError::BadShape { .. }));
    }

    #[test]
    fn empty_activity_is_rejected() {
        let err = read_text("1 | 1 | 1 |  | - | -").unwrap_err();
        assert!(matches!(err, ParseLogError::BadShape { .. }));
    }

    #[test]
    fn invalid_log_structure_is_reported() {
        // Valid lines but is-lsn 1 is not START.
        let err = read_text("1 | 1 | 1 | A | - | -").unwrap_err();
        assert!(matches!(err, ParseLogError::Invalid(_)));
    }

    #[test]
    fn values_with_spaces_survive() {
        let text = "1 | 1 | 1 | START | - | -\n2 | 1 | 2 | A | - | hospital=Public Hospital";
        let log = read_text(text).unwrap();
        assert_eq!(
            log.record(Wid(1), 2u32.into())
                .unwrap()
                .output()
                .get_or_undefined("hospital"),
            Value::from("Public Hospital")
        );
    }
}
