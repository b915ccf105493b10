//! # wlq-analysis — static analysis for incident patterns
//!
//! A lint pass that vets a Definition-3 pattern *before* the engine
//! runs it, the way SIGNAL and PQL validate process queries ahead of
//! execution:
//!
//! * **Unsatisfiability proofs** (errors `WLQ001`–`WLQ003`): shapes
//!   that can never match on any Definition-2 log — records forced
//!   before `START` or after `END`, parallel operands both claiming the
//!   unique boundary record, contradictory predicate conjunctions.
//! * **Log-aware checks** (warnings): activities that occur in no
//!   record of the checked log (`WLQ101`), and a cost budget
//!   (`WLQ105`) read off the engine's [`wlq_engine::Planner`], which
//!   also suggests the planner's chosen Theorem 2–5 rewrite.
//! * **Redundancy and style** (`WLQ102`–`WLQ104`): duplicate choice
//!   branches, identical parallel operands, negation-only patterns.
//!
//! Diagnostics are anchored to byte spans of the source text via
//! [`wlq_pattern::SpannedPattern`], rendered either rustc-style with
//! carets ([`render_human`]) or as stable JSON ([`render_json`]).
//!
//! ## Quick start
//!
//! ```
//! use wlq_analysis::{render_human, Analyzer};
//! use wlq_log::paper;
//!
//! let analyzer = Analyzer::with_log(&paper::figure3_log());
//! let report = analyzer.analyze_source("SeeDoctor -> PayTreatment")?;
//! assert!(report.is_clean());
//!
//! let report = analyzer.analyze_source("PayTreatment -> START")?;
//! assert!(report.unsatisfiable());
//! println!("{}", render_human("PayTreatment -> START", &report));
//! # Ok::<(), wlq_pattern::ParsePatternError>(())
//! ```
//!
//! The soundness contract: [`Report::unsatisfiable`] is `true` only for
//! patterns with `incL(p) = ∅` on every valid log — differentially
//! checked against the engine by the fuzz suite.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod analyzer;
mod diag;
mod render;
mod rules;

pub use analyzer::{Analyzer, DEFAULT_COST_BUDGET};
pub use diag::{Diagnostic, LintCode, Report, Severity};
pub use render::{denies, line_col, render_human, render_json, render_parse_error};
