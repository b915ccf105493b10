//! Differential fuzzing for the WLQ evaluation strategies.
//!
//! The engine ships several independent implementations of `incL(p)`
//! (Definition 4): the paper-faithful naive operators, the Algorithm 2
//! incident tree, the planned
//! executor over the arena-backed batch kernels (sequential, on the
//! worker pool, and with the profiler's probe), the delta-rule streaming
//! evaluator, and the counting DP for chains. They must all agree on
//! every valid log. This crate generates random `(log, pattern)` pairs,
//! evaluates each pair under every strategy, and reports the first
//! disagreement — shrunk to a minimal reproducer — as a bug.
//!
//! Invalid logs (Definition 2 violations) are fuzzed too: every
//! construction and streaming path must reject them with a typed error,
//! never a panic.
//!
//! The `wlq-difffuzz` binary drives the loop; see `tests/regressions.rs`
//! for the replay of previously shrunk counterexamples.

pub mod diff;
pub mod gen;
pub mod shrink;

pub use diff::{check, Divergence};
pub use gen::{invalid_records, random_log, random_pattern_for, InvalidKind};
pub use shrink::shrink;
