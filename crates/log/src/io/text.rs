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
//! [`write_text`] and skipped by [`read_text`], as are blank lines and
//! `#` comments. Lines end in LF or CRLF; the last line may have no
//! ending.
//! Attribute names must not contain `=`, `,`, or `|`; a value that holds
//! a separator, or would read back as another value, is written
//! double-quoted with backslash escapes (the formats in this crate target
//! the paper's value universe, not arbitrary binary data — use
//! [`crate::io::binary`] for that).
//!
//! [`read_text`] splits the whole text in one scan that tests eight bytes
//! per step for a line end, a `|`, a `,`, a quote or a backslash, and
//! visits only those bytes: line ends, field ends and map entry ends come
//! out of the same pass, and a `|` or `,` inside quotes is data. Fields
//! and entries are trimmed bytewise at ASCII edges (Unicode edges go to
//! [`str::trim`]), and `lsn`, `wid` and `is-lsn` are read from their digit
//! bytes (anything else goes to [`str::parse`]), so every value and every
//! error is what the plain `str` methods give.

use super::scan::{find_any, trim, Separators};
use super::Load;
use crate::attrs::AttrMap;
use crate::error::ParseLogError;
use crate::log::Log;

/// Renders a log as a Figure 3-style table with a header line.
///
/// Unlike [`LogRecord`](crate::LogRecord)'s human-oriented `Display`, this renderer quotes
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
/// Fields and map entries are borrowed slices of `text`, and activity
/// names are interned. Each map entry is checked at load (it has a `=`
/// and a non-empty name), and the map fields are copied, undecoded, into
/// one block per activity; a block's maps are parsed into a dictionary
/// of `name=value` entries on the first read of any of them (see
/// [`AttrMap`]). A query that reads no attribute parses none.
///
/// # Errors
///
/// Returns [`ParseLogError`] if a line is malformed or the records do not
/// form a valid log (Definition 2).
pub fn read_text(text: &str) -> Result<Log, ParseLogError> {
    let mut load = Load::with_capacity(super::line_count(text));
    let mut entries = Vec::new();
    let mut lines = Lines::new(text);
    while let Some((line_no, fields)) = lines.next_record(&mut entries) {
        let (head, inputs, maps) = fields.map_err(|found| ParseLogError::BadShape {
            line: line_no,
            message: format!("expected 6 '|'-separated fields, found {found}"),
        })?;
        let head = super::parse_head(head.map(trim), line_no, &mut load.names)?;
        let (input, output) = entries.split_at(inputs);
        let input = attr_map(&mut load, head.3, (maps[0], input), line_no)?;
        let output = attr_map(&mut load, head.3, (maps[1], output), line_no)?;
        load.push(head, [input, output]);
    }
    load.finish(None, b',')
}

/// A record line's first four fields, how many of the pieces in the
/// caller's `entries` are the input map's (the rest are the output
/// map's), and the two map fields whole; or, if the line does not have
/// six fields, how many it has.
type Fields<'a> = Result<([&'a str; 4], usize, [&'a str; 2]), usize>;

/// The record lines of a text, each split into its fields in the one
/// quote-aware scan that also finds the line ends. A `|` or `,` inside a
/// quoted value is data, and a map field is split on `,` as its end is
/// sought, so each byte is scanned once. Pieces are untrimmed: the first
/// and last hold the line's edges (a CRLF line's `\r` among them).
struct Lines<'a> {
    text: &'a str,
    seps: Separators<'a>,
    /// Where the next line starts.
    start: usize,
    /// The number of the line last started.
    line_no: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines {
            text,
            seps: Separators::lines(text, [b'|', b',']),
            start: 0,
            line_no: 0,
        }
    }

    /// The next record line's number and [`Fields`], its map pieces
    /// left in `entries`. Blank lines, `#` comments and the `lsn` header
    /// are passed over. The scan does not resume after a line that
    /// fails.
    fn next_record(&mut self, entries: &mut Vec<&'a str>) -> Option<(usize, Fields<'a>)> {
        while self.start < self.text.len() {
            self.line_no += 1;
            if self.is_record() {
                return Some((self.line_no, self.fields(entries)));
            }
            self.start = match self.seps.find(|&(_, sep)| sep == b'\n') {
                Some((end, _)) => end + 1,
                None => self.text.len(),
            };
        }
        None
    }

    /// Whether the line at `start`, trimmed, is neither empty nor a
    /// comment or header.
    fn is_record(&self) -> bool {
        let rest = &self.text.as_bytes()[self.start..];
        let lead = rest
            .iter()
            .position(|&b| !matches!(b, b'\t' | b'\x0b' | b'\x0c' | b'\r' | b' '))
            .unwrap_or(rest.len());
        match rest.get(lead) {
            None | Some(b'\n' | b'#') => false,
            Some(b'l') => !rest[lead..].starts_with(b"lsn"),
            Some(b) if b.is_ascii() => true,
            // Unicode whitespace may lead: trim the whole line.
            Some(_) => {
                let end = find_any(rest, lead, [b'\n']).unwrap_or(rest.len());
                let line = trim(&self.text[self.start..self.start + end]);
                !(line.is_empty() || line.starts_with('#') || line.starts_with("lsn"))
            }
        }
    }

    /// Splits the line at `start` and moves `start` to the next line.
    fn fields(&mut self, entries: &mut Vec<&'a str>) -> Fields<'a> {
        let text = self.text;
        let mut from = self.start;
        let mut head = [""; 4];
        for (found, field) in head.iter_mut().enumerate() {
            // A `,` before the maps is data.
            match self.seps.find(|&(_, sep)| sep != b',') {
                // Separators are ASCII, hence character boundaries.
                Some((end, b'|')) => *field = &text[from..end],
                _ => return Err(found + 1),
            }
            from += field.len() + 1;
        }
        entries.clear();
        let mut inputs = None;
        let maps = from;
        loop {
            let (end, sep) = self.seps.next().unwrap_or((text.len(), b'\n'));
            entries.push(&text[from..end]);
            from = end + 1;
            match (sep, inputs) {
                (b',', _) => {}
                (b'|', None) => inputs = Some((entries.len(), end)),
                // A `|` after the output map: count the fields after it.
                (b'|', Some(_)) => {
                    let more = self
                        .seps
                        .by_ref()
                        .take_while(|&(_, sep)| sep != b'\n')
                        .filter(|&(_, sep)| sep == b'|')
                        .count();
                    return Err(7 + more);
                }
                (_, None) => return Err(5),
                (_, Some((inputs, input_end))) => {
                    self.start = from;
                    let fields = [&text[maps..input_end], &text[input_end + 1..end]];
                    return Ok((head, inputs, fields));
                }
            }
        }
    }
}

/// An attribute map of `activity` from its field and the field's pieces,
/// checked and filed into the activity's block unless it is empty;
/// whether it was.
fn attr_map(
    load: &mut Load,
    activity: u32,
    (field, pieces): (&str, &[&str]),
    line_no: usize,
) -> Result<bool, ParseLogError> {
    if is_empty_map(pieces) {
        return Ok(false);
    }
    load.text_map(activity, field, pieces.iter().copied(), line_no)?;
    Ok(true)
}

/// Whether a map field, given as its pieces, is blank or `-`: one piece,
/// since neither holds a `,`.
fn is_empty_map(pieces: &[&str]) -> bool {
    matches!(pieces, [only] if matches!(trim(only), "" | "-"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::scan::bytewise_split;
    use crate::paper;
    use crate::record::{Lsn, Wid};
    use crate::Value;
    use proptest::prelude::*;

    /// A record line as the decoder reads it: the trimmed first four
    /// fields, then each map as `None` if empty, else its trimmed entries.
    type Split = ([String; 4], Option<Vec<String>>, Option<Vec<String>>);

    /// The lines as the decoder split them before the one-scan split:
    /// `str::lines`, each line trimmed, split on `|` by the bytewise
    /// oracle, and each trimmed map field split again on `,`. Ends at the
    /// first line without six fields.
    fn split_by_oracle(text: &str) -> Vec<(usize, Result<Split, usize>)> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with("lsn") {
                continue;
            }
            let fields = bytewise_split(line, b'|');
            let [lsn, wid, is_lsn, activity, input, output] = fields[..] else {
                out.push((i + 1, Err(fields.len())));
                break;
            };
            let map = |field: &str| {
                let field = field.trim();
                (!field.is_empty() && field != "-").then(|| {
                    let entries = bytewise_split(field, b',');
                    entries.iter().map(|e| e.trim().to_string()).collect()
                })
            };
            let head = [lsn, wid, is_lsn, activity].map(|f| f.trim().to_string());
            out.push((i + 1, Ok((head, map(input), map(output)))));
        }
        out
    }

    /// The same through [`Lines`].
    fn split_by_lines(text: &str) -> Vec<(usize, Result<Split, usize>)> {
        let mut out = Vec::new();
        let mut lines = Lines::new(text);
        let mut entries = Vec::new();
        while let Some((line_no, fields)) = lines.next_record(&mut entries) {
            let Ok((head, inputs, _)) = fields else {
                out.push((line_no, fields.map(|_| unreachable!())));
                break;
            };
            let map = |pieces: &[&str]| {
                (!is_empty_map(pieces))
                    .then(|| pieces.iter().map(|e| trim(e).to_string()).collect())
            };
            let (input, output) = entries.split_at(inputs);
            let head = head.map(|f| trim(f).to_string());
            out.push((line_no, Ok((head, map(input), map(output)))));
        }
        out
    }

    /// Texts of lines of four to eight `|`-joined fields over separators,
    /// quotes, escapes (an open quote and a backslash that ends a line
    /// among them), comment and header starts, and ASCII and Unicode
    /// whitespace, ended by LF or CRLF.
    fn texts() -> impl Strategy<Value = String> {
        let tokens = prop::sample::select(vec![
            ",", ",", "\"", "\\", "\"\\", " ", " ", "\t", "\r", "\u{b}", "\u{a0}", "\u{3000}", "#",
            "lsn", "-", "=", "é", "7", "a",
        ]);
        let field = prop::collection::vec(tokens, 0..6).prop_map(|tokens| tokens.concat());
        let line = prop::collection::vec(field, 4..9).prop_map(|fields| fields.join("|"));
        let ending = prop::sample::select(vec!["\n", "\r\n", "\n\n"]);
        prop::collection::vec((line, ending), 0..6).prop_map(|lines| {
            lines
                .into_iter()
                .map(|(line, end)| line + end)
                .collect::<String>()
        })
    }

    #[test]
    fn a_line_end_closes_quotes_and_escapes() {
        // An open quote and an escape at the end of a skipped line, then
        // of a record line, must not reach into the next line.
        let text = "# \"\\\n\"a|b\" | 1 | 1 | START | - | x=\"\\\r\n|2 | 1 | 2 | A | - | -";
        assert_eq!(split_by_lines(text), split_by_oracle(text));
        assert_eq!(split_by_lines(text).len(), 2);
    }

    proptest! {
        #[test]
        fn one_scan_split_matches_the_line_by_line_oracle(text in texts()) {
            prop_assert_eq!(split_by_lines(&text), split_by_oracle(&text));
            // Without the last line ending, too.
            let cut = text.trim_end_matches(['\r', '\n']);
            prop_assert_eq!(split_by_lines(cut), split_by_oracle(cut));
        }
    }

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
