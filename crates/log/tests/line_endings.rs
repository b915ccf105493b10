//! Line endings of the line-per-record formats: text and CSV with CRLF
//! endings, or without a final newline, decode to the log their LF form
//! decodes to, and a bad line is reported under the number it has with LF
//! endings.

use wlq_log::io::{csv, text};
use wlq_log::{paper, Log, ParseLogError};

type Reader = fn(&str) -> Result<Log, ParseLogError>;

/// Figure 3's log written in each format, with its reader.
fn formats() -> [(&'static str, String, Reader); 2] {
    let log = paper::figure3_log();
    [
        ("text", text::write_text(&log), text::read_text),
        ("csv", csv::write_csv(&log), csv::read_csv),
    ]
}

fn crlf(lf: &str) -> String {
    lf.replace('\n', "\r\n")
}

/// `lf` with CRLF endings, and both without the last line ending.
fn variants(lf: &str) -> [String; 3] {
    [
        crlf(lf),
        lf.strip_suffix('\n').unwrap_or(lf).to_string(),
        crlf(lf).strip_suffix("\r\n").unwrap_or(lf).to_string(),
    ]
}

/// `lf` with line `line_no` (1-based) replaced by `with`.
fn replace_line(lf: &str, line_no: usize, with: &str) -> String {
    let mut lines: Vec<&str> = lf.lines().collect();
    lines[line_no - 1] = with;
    lines.join("\n") + "\n"
}

#[test]
fn crlf_and_a_missing_final_newline_decode_like_lf() {
    let log = paper::figure3_log();
    for (name, lf, read) in formats() {
        let expected = read(&lf).unwrap();
        assert_eq!(expected, log, "{name}");
        for variant in variants(&lf) {
            assert_eq!(read(&variant).unwrap(), expected, "{name}: {variant:?}");
        }
    }
}

#[test]
fn a_bad_line_keeps_its_lf_line_number() {
    for (name, lf, read) in formats() {
        // Line 5 is the record with lsn 4; the fifth line of each broken
        // copy is made bad in three ways.
        let sep = if name == "text" { " | " } else { "," };
        let fields: Vec<String> = lf
            .lines()
            .nth(4)
            .unwrap()
            .split(sep)
            .map(String::from)
            .collect();
        let bad_number = std::iter::once("x".to_string())
            .chain(fields[1..].iter().cloned())
            .collect::<Vec<_>>()
            .join(sep);
        let short = fields[..4].join(sep);
        let long = format!("{}{sep}extra", fields.join(sep));
        for bad in [bad_number, short, long] {
            let broken = replace_line(&lf, 5, &bad);
            let expected = read(&broken).unwrap_err();
            match &expected {
                ParseLogError::BadNumber { line, field, text } => {
                    assert_eq!((*line, *field, text.as_str()), (5, "lsn", "x"), "{name}")
                }
                ParseLogError::BadShape { line, .. } => assert_eq!(*line, 5, "{name}: {bad}"),
                other => panic!("{name}: {bad}: {other:?}"),
            }
            for variant in variants(&broken) {
                assert_eq!(read(&variant).unwrap_err(), expected, "{name}: {variant:?}");
            }
        }
    }
}

#[test]
fn blank_and_comment_lines_count_under_crlf() {
    let (_, lf, read) = formats()[0].clone();
    let mut lines: Vec<&str> = lf.lines().collect();
    lines.insert(2, "# a comment");
    lines.insert(3, "");
    lines[6] = "x | 1 | 3 | CheckIn | - | -";
    let broken = lines.join("\r\n") + "\r\n";
    assert_eq!(
        read(&broken).unwrap_err(),
        ParseLogError::BadNumber {
            line: 7,
            field: "lsn",
            text: "x".to_string()
        }
    );
}
