//! CSV serialization of logs.
//!
//! Six columns: `lsn,wid,is_lsn,activity,input,output`. The attribute-map
//! columns hold `name=value` pairs separated by `;` and are quoted when
//! they contain commas, quotes, or newlines (RFC 4180-style doubling of
//! quotes). A small hand-rolled CSV reader/writer keeps the crate free of
//! external parsing dependencies.

use std::borrow::Cow;

use super::scan::{find_any, split_quoted, trim};
use super::Load;
use crate::attrs::AttrMap;
use crate::error::ParseLogError;
use crate::log::Log;

/// Renders a log as CSV with a header row.
#[must_use]
pub fn write_csv(log: &Log) -> String {
    let mut out = String::from("lsn,wid,is_lsn,activity,input,output\n");
    for r in log.iter() {
        out.push_str(&r.lsn().to_string());
        out.push(',');
        out.push_str(&r.wid().to_string());
        out.push(',');
        out.push_str(&r.is_lsn().to_string());
        out.push(',');
        push_field(&mut out, r.activity().as_str());
        out.push(',');
        push_field(&mut out, &attr_map_field(r.input()));
        out.push(',');
        push_field(&mut out, &attr_map_field(r.output()));
        out.push('\n');
    }
    out
}

fn attr_map_field(map: &AttrMap) -> String {
    super::render_map(map, ";")
}

fn push_field(out: &mut String, field: &str) {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Parses a log from CSV produced by [`write_csv`] (or compatible).
///
/// Unquoted columns are borrowed from `text`; only quoted columns are
/// unescaped into new strings. Activity names are interned, and the map
/// columns are checked and kept undecoded in per-activity blocks, as in
/// [`read_text`](super::text::read_text).
///
/// # Errors
///
/// Returns [`ParseLogError`] on malformed rows or an invalid log.
pub fn read_csv(text: &str) -> Result<Log, ParseLogError> {
    let mut load = Load::with_capacity(super::line_count(text));
    let mut fields = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if trim(line).is_empty() || (line_no == 1 && line.starts_with("lsn")) {
            continue;
        }
        split_csv_line(line, line_no, &mut fields)?;
        let [lsn, wid, is_lsn, activity, input, output] = &fields[..] else {
            return Err(ParseLogError::BadShape {
                line: line_no,
                message: format!("expected 6 columns, found {}", fields.len()),
            });
        };
        let head = [lsn, wid, is_lsn, activity].map(|field| &**field);
        let head = super::parse_head(head, line_no, &mut load.names)?;
        let input = semi_map(&mut load, head.3, input, line_no)?;
        let output = semi_map(&mut load, head.3, output, line_no)?;
        load.push(head, [input, output]);
    }
    load.finish(None, b';')
}

/// An attribute map of `activity` from its `;`-separated column, checked
/// and filed into the activity's block unless it is empty; whether it
/// was.
fn semi_map(
    load: &mut Load,
    activity: u32,
    text: &str,
    line_no: usize,
) -> Result<bool, ParseLogError> {
    if trim(text).is_empty() {
        return Ok(false);
    }
    load.text_map(activity, text, split_quoted(text, b';'), line_no)?;
    Ok(true)
}

/// Splits one CSV row into `fields` (cleared first). A column holding a
/// quote is unescaped (`""` inside quotes is a literal `"`) into a new
/// string; every other column borrows from `line`.
fn split_csv_line<'a>(
    line: &'a str,
    line_no: usize,
    fields: &mut Vec<Cow<'a, str>>,
) -> Result<(), ParseLogError> {
    fields.clear();
    let bytes = line.as_bytes();
    let (mut start, mut i, mut quoted) = (0, 0, false);
    while let Some(j) = find_any(bytes, i, [b',', b'"']) {
        if bytes[j] == b',' {
            // `j` holds an ASCII byte, hence a character boundary.
            fields.push(csv_field(&line[start..j], quoted));
            (start, i, quoted) = (j + 1, j + 1, false);
            continue;
        }
        // An opening quote: skip to its closing one; inside quotes `""`
        // is data.
        quoted = true;
        i = j + 1;
        loop {
            let Some(k) = find_any(bytes, i, [b'"']) else {
                return Err(ParseLogError::BadShape {
                    line: line_no,
                    message: "unterminated quoted field".to_string(),
                });
            };
            i = k + 1;
            if bytes.get(i) != Some(&b'"') {
                break;
            }
            i += 1;
        }
    }
    fields.push(csv_field(&line[start..], quoted));
    Ok(())
}

/// One column of a row, unescaped if it holds a quote.
fn csv_field(raw: &str, quoted: bool) -> Cow<'_, str> {
    if !quoted {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                out.push('"');
                chars.next();
            }
            '"' => in_quotes = !in_quotes,
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::record::Lsn;

    #[test]
    fn figure3_round_trips_through_csv() {
        let log = paper::figure3_log();
        let csv = write_csv(&log);
        let back = read_csv(&csv).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn header_is_emitted_once_and_skipped_on_read() {
        let log = paper::figure3_log();
        let csv = write_csv(&log);
        assert!(csv.starts_with("lsn,wid,is_lsn,activity,input,output\n"));
        assert_eq!(csv.lines().count(), 21);
    }

    #[test]
    fn quoted_fields_handle_commas_and_quotes() {
        let mut fields = Vec::new();
        split_csv_line(r#"1,"a,b","say ""hi""",c"#, 1, &mut fields).unwrap();
        assert_eq!(fields, vec!["1", "a,b", "say \"hi\"", "c"]);
        assert!(matches!(fields[0], Cow::Borrowed(_)));
        // Quotes mid-column and an empty quoted column.
        split_csv_line(r#"a"b,c"d,"",x"#, 1, &mut fields).unwrap();
        assert_eq!(fields, vec!["ab,cd", "", "x"]);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(split_csv_line(r#"1,"oops"#, 3, &mut Vec::new()).is_err());
    }

    /// The byte-at-a-time row splitter that the word-at-a-time one
    /// replaced: the columns, or `None` for an unterminated quote.
    fn bytewise_columns(line: &str) -> Option<Vec<Cow<'_, str>>> {
        let bytes = line.as_bytes();
        let mut fields = Vec::new();
        let (mut start, mut i, mut quoted, mut in_quotes) = (0, 0, false, false);
        while i < bytes.len() {
            match bytes[i] {
                b'"' if in_quotes && bytes.get(i + 1) == Some(&b'"') => i += 1,
                b'"' => {
                    in_quotes = !in_quotes;
                    quoted = true;
                }
                b',' if !in_quotes => {
                    fields.push(csv_field(&line[start..i], quoted));
                    (start, quoted) = (i + 1, false);
                }
                _ => {}
            }
            i += 1;
        }
        (!in_quotes).then(|| {
            fields.push(csv_field(&line[start..], quoted));
            fields
        })
    }

    proptest::proptest! {
        #[test]
        fn row_split_matches_the_bytewise_oracle(
            tokens in proptest::collection::vec(
                proptest::sample::select(vec![",", ",", "\"", "\"\"", "a", " ", "é", "\\", ";", "=7"]),
                0..24,
            )
        ) {
            let line = tokens.concat();
            let mut fields = Vec::new();
            let split = split_csv_line(&line, 1, &mut fields).ok().map(|()| fields);
            proptest::prop_assert_eq!(split, bytewise_columns(&line));
        }
    }

    #[test]
    fn wrong_column_count_is_rejected() {
        let err = read_csv("1,1,1,START,").unwrap_err();
        assert!(matches!(err, ParseLogError::BadShape { .. }));
    }

    #[test]
    fn values_containing_commas_survive() {
        // An attribute value with a comma forces quoting of the map column.
        let mut b = crate::LogBuilder::new();
        let w = b.start_instance();
        b.append(
            w,
            "A",
            crate::attrs! { "note" => "x, y" },
            crate::AttrMap::new(),
        )
        .unwrap();
        let log = b.build().unwrap();
        let back = read_csv(&write_csv(&log)).unwrap();
        assert_eq!(
            back.get(Lsn(2)).unwrap().input().get_or_undefined("note"),
            crate::Value::from("x, y")
        );
    }

    #[test]
    fn bad_attribute_pair_is_rejected() {
        let err = read_csv("1,1,1,START,broken,").unwrap_err();
        assert!(matches!(err, ParseLogError::BadShape { .. }));
    }
}
