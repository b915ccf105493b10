//! Error types for log construction, validation, and parsing.

use std::fmt;

use crate::record::{IsLsn, Lsn, Wid};

/// Violations of the log validity conditions of Definition 2, plus
/// structural errors detectable during construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// A log must be a nonempty set of records.
    Empty,
    /// Two records share a log sequence number (violates condition 1).
    DuplicateLsn(Lsn),
    /// The set of lsns is not exactly `1..=|L|` (violates condition 1).
    LsnGap {
        /// The lsn that was expected at this position.
        expected: Lsn,
        /// The lsn that was found.
        found: Lsn,
    },
    /// A record has `is-lsn = 1` but its activity is not `START`, or has
    /// activity `START` with `is-lsn ≠ 1` (violates condition 2).
    StartMismatch {
        /// The offending record's lsn.
        lsn: Lsn,
        /// The offending record's wid.
        wid: Wid,
    },
    /// The is-lsns of an instance are not consecutive from 1 (violates
    /// condition 3).
    NonConsecutiveIsLsn {
        /// The instance in which the gap occurs.
        wid: Wid,
        /// The is-lsn that was expected next for this instance.
        expected: IsLsn,
        /// The is-lsn that was found.
        found: IsLsn,
    },
    /// A record of an instance appears after that instance's `END` record
    /// (violates condition 4).
    RecordAfterEnd {
        /// The instance that was already closed.
        wid: Wid,
        /// The lsn of the offending record.
        lsn: Lsn,
    },
    /// An operation referenced an instance id that the log (or builder)
    /// does not know.
    UnknownInstance(Wid),
    /// An append was attempted on an instance already closed by `END`.
    InstanceClosed(Wid),
    /// The log has more records than its index can address (`u32::MAX`);
    /// holds the number of records supplied.
    TooManyRecords(usize),
    /// An instance already holds a record at the last is-lsn, `u32::MAX`,
    /// so it can take no further record.
    IsLsnOverflow(Wid),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Empty => write!(f, "log must contain at least one record"),
            LogError::DuplicateLsn(lsn) => write!(f, "duplicate log sequence number {lsn}"),
            LogError::LsnGap { expected, found } => {
                write!(f, "log sequence numbers are not 1..=|L|: expected {expected}, found {found}")
            }
            LogError::StartMismatch { lsn, wid } => write!(
                f,
                "record {lsn} of instance {wid} violates the START convention (is-lsn = 1 iff activity = START)"
            ),
            LogError::NonConsecutiveIsLsn { wid, expected, found } => write!(
                f,
                "instance {wid} has non-consecutive is-lsn: expected {expected}, found {found}"
            ),
            LogError::RecordAfterEnd { wid, lsn } => {
                write!(f, "record {lsn} of instance {wid} appears after the instance's END record")
            }
            LogError::UnknownInstance(wid) => write!(f, "unknown workflow instance {wid}"),
            LogError::InstanceClosed(wid) => {
                write!(f, "workflow instance {wid} is already closed by END")
            }
            LogError::TooManyRecords(n) => {
                write!(f, "log has {n} records, more than the {} a log may hold", u32::MAX)
            }
            LogError::IsLsnOverflow(wid) => write!(
                f,
                "workflow instance {wid} has no is-lsn left after {}",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for LogError {}

/// Errors raised while parsing a textual or CSV log representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseLogError {
    /// A line did not have the expected number of fields.
    BadShape {
        /// 1-based line number.
        line: usize,
        /// What was wrong with the line.
        message: String,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The field name (`lsn`, `wid`, or `is-lsn`).
        field: &'static str,
        /// The raw text that failed to parse.
        text: String,
    },
    /// The parsed records do not form a valid log.
    Invalid(LogError),
}

impl fmt::Display for ParseLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseLogError::BadShape { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ParseLogError::BadNumber { line, field, text } => {
                write!(f, "line {line}: field {field} is not a number: {text:?}")
            }
            ParseLogError::Invalid(e) => write!(f, "parsed records form an invalid log: {e}"),
        }
    }
}

impl std::error::Error for ParseLogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseLogError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LogError> for ParseLogError {
    fn from(e: LogError) -> Self {
        ParseLogError::Invalid(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let msgs = [
            LogError::Empty.to_string(),
            LogError::DuplicateLsn(Lsn(3)).to_string(),
            LogError::LsnGap {
                expected: Lsn(2),
                found: Lsn(5),
            }
            .to_string(),
            LogError::StartMismatch {
                lsn: Lsn(1),
                wid: Wid(1),
            }
            .to_string(),
            LogError::NonConsecutiveIsLsn {
                wid: Wid(2),
                expected: IsLsn(3),
                found: IsLsn(5),
            }
            .to_string(),
            LogError::RecordAfterEnd {
                wid: Wid(1),
                lsn: Lsn(9),
            }
            .to_string(),
            LogError::UnknownInstance(Wid(4)).to_string(),
            LogError::InstanceClosed(Wid(4)).to_string(),
            LogError::TooManyRecords(1 << 33).to_string(),
            LogError::IsLsnOverflow(Wid(4)).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase() || m.starts_with("log"));
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn parse_error_wraps_log_error_as_source() {
        use std::error::Error;
        let e: ParseLogError = LogError::Empty.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("invalid log"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LogError>();
        assert_send_sync::<ParseLogError>();
    }
}
