//! # wlq-obs — execution observability
//!
//! The runtime-profiling companion to `wlq-engine`: plain-data metric
//! counters the engine fills in per plan node, an [`ExecutionProfile`]
//! aggregating them across parallel workers, and a versioned JSON Lines
//! trace format with a validator for CI.
//!
//! This crate is deliberately engine-agnostic (std only, no dependency on
//! the engine crates). Nothing here observes a running evaluation by
//! itself; the engine's executor, run with its metrics probe, *pushes*
//! numbers into these structs.
//!
//! * [`NodeMetrics`] — the per-node counters (wall time, records scanned,
//!   pairs compared, incidents emitted, output bytes).
//! * [`ExecutionProfile`] — one profiled run: a pre-order node tree with
//!   estimates next to actuals (Q-error), plus per-worker breakdowns.
//! * [`render_trace`] / [`validate_trace`] — the span-style JSON Lines
//!   trace (schema version [`TRACE_SCHEMA_VERSION`]) and its checker.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod metrics;
mod profile;
mod trace;

pub use metrics::{q_error, NodeMetrics};
pub use profile::{ExecutionProfile, NodeShape, ProfiledNode, WorkerProfile};
pub use trace::{render_trace, validate_trace, TraceError, TraceSummary, TRACE_SCHEMA_VERSION};
