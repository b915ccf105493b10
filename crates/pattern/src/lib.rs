//! # wlq-pattern — the incident-pattern algebra
//!
//! Incident patterns (Definition 3 of *"Querying Workflow Logs"*) are the
//! query expressions of WLQ: atomic patterns `t` / `¬t` composed with four
//! BPMN-inspired binary operators — consecutive `⊙`, sequential `→`,
//! choice `⊗`, and parallel `⊕`.
//!
//! This crate provides:
//!
//! * the [`Pattern`] AST and combinators,
//! * a text syntax with a shunting-yard parser
//!   ([`Pattern::parse`], [`to_postfix`], [`from_postfix`]), including a
//!   span-preserving mode ([`Pattern::parse_spanned`]) for diagnostics,
//! * the algebraic laws of Theorems 2–5 as rewrites ([`algebra`]) and
//!   reshaping utilities ([`rewrite`]). Choosing among the equivalent
//!   trees they produce is the engine's query planner's job.
//!
//! ## Quick start
//!
//! ```
//! use wlq_pattern::Pattern;
//!
//! // "Did anyone update a referral before being reimbursed?"
//! let p: Pattern = "UpdateRefer -> GetReimburse".parse()?;
//! assert_eq!(p.num_operators(), 1);
//! assert_eq!(wlq_pattern::to_symbolic(&p), "UpdateRefer → GetReimburse");
//! # Ok::<(), wlq_pattern::ParsePatternError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod ast;
mod builders;
mod display;
mod error;
mod parser;
mod span;
mod token;

pub mod algebra;
pub mod rewrite;
pub mod shunting;

mod random;

pub use algebra::{ac_equivalent, canonicalize};
pub use ast::{Atom, CmpOp, Op, Pattern, Predicate, Scope};
pub use display::to_symbolic;
pub use error::{ParseErrorKind, ParsePatternError};
pub use parser::is_valid_pattern;
pub use random::{random_pattern, sequential_chain, theorem1_worst_case, PatternGenConfig};
pub use rewrite::{choice_normal_form, from_alternatives};
pub use shunting::{from_postfix, to_postfix, PostfixError, PostfixItem};
pub use span::{PatternSpans, Span, SpannedPattern};
pub use token::{tokenize, Spanned, Token};

/// Compatibility stand-in for the pattern-level optimizer this crate no
/// longer has: it returns the pattern unchanged, which is what a query
/// does now that the engine's planner is the only optimizer.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct Optimizer;

impl Optimizer {
    /// Accepts (and ignores) a log's statistics.
    #[must_use]
    pub fn new(_stats: wlq_log::LogStats) -> Self {
        Optimizer
    }

    /// Returns `p` unchanged.
    #[must_use]
    pub fn optimize(&self, p: &Pattern) -> Pattern {
        p.clone()
    }
}
