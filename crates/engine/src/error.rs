//! The engine's error taxonomy.
//!
//! Every fallible path reachable from the public evaluation API reports a
//! typed [`EngineError`] instead of panicking: parallel evaluation with an
//! impossible worker count, a worker thread dying mid-query, an invalid
//! record pushed into a streaming evaluator, a malformed pattern handed to
//! a high-level entry point, or a degenerate sampling step. Callers (the
//! `wlq` CLI, the differential fuzzer, embedding services) can match on
//! the variant and map it to a distinct exit code or retry policy.

use std::fmt;

use wlq_log::LogError;
use wlq_pattern::ParsePatternError;

/// An error produced by query evaluation.
///
/// The taxonomy is deliberately small and closed: each variant corresponds
/// to one class of misuse or failure, and each carries enough structured
/// context to diagnose the problem without re-running the query.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// Parallel evaluation was requested with zero worker threads.
    NoWorkers,
    /// A worker thread panicked during parallel evaluation. The panic is
    /// contained at the thread boundary and surfaced here instead of
    /// aborting the caller.
    WorkerPanicked {
        /// The panic payload, when it was a string (the common case).
        detail: String,
    },
    /// A record pushed into a streaming evaluator violates the log
    /// validity conditions of Definition 2.
    InvalidLog(LogError),
    /// A pattern failed to parse (wraps the parser's byte-offset error).
    Pattern(ParsePatternError),
    /// A sampling or stepping parameter was zero where a positive value is
    /// required (e.g. [`timeline`](crate::timeline) with `step == 0`).
    ZeroStep,
    /// An incident count does not fit in `usize`. Counting is exact up
    /// to `usize::MAX - 1`; beyond that the count is refused rather than
    /// wrapped.
    CountOverflow,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoWorkers => {
                write!(f, "parallel evaluation needs at least one worker thread")
            }
            EngineError::WorkerPanicked { detail } => {
                write!(f, "a worker thread panicked during evaluation: {detail}")
            }
            EngineError::InvalidLog(e) => write!(f, "invalid log record: {e}"),
            EngineError::Pattern(e) => write!(f, "invalid pattern: {e}"),
            EngineError::ZeroStep => write!(f, "step must be positive"),
            EngineError::CountOverflow => {
                write!(f, "the incident count does not fit in {} bits", usize::BITS)
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::InvalidLog(e) => Some(e),
            EngineError::Pattern(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LogError> for EngineError {
    fn from(e: LogError) -> Self {
        EngineError::InvalidLog(e)
    }
}

impl From<ParsePatternError> for EngineError {
    fn from(e: ParsePatternError) -> Self {
        EngineError::Pattern(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::{IsLsn, Wid};

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let msgs = [
            EngineError::NoWorkers.to_string(),
            EngineError::WorkerPanicked {
                detail: "boom".into(),
            }
            .to_string(),
            EngineError::InvalidLog(LogError::NonConsecutiveIsLsn {
                wid: Wid(1),
                expected: IsLsn(2),
                found: IsLsn(4),
            })
            .to_string(),
            EngineError::ZeroStep.to_string(),
            EngineError::CountOverflow.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn sources_chain_to_wrapped_errors() {
        use std::error::Error;
        let e: EngineError = LogError::Empty.into();
        assert!(e.source().is_some());
        assert!(EngineError::NoWorkers.source().is_none());
    }

    #[test]
    fn pattern_errors_convert() {
        let parse_err = "A ->".parse::<wlq_pattern::Pattern>().unwrap_err();
        let e: EngineError = parse_err.clone().into();
        assert_eq!(e, EngineError::Pattern(parse_err));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineError>();
    }
}
