//! Cost-based query planning: algebraic rewrites costed per operator.
//!
//! The planner sits between parsing and evaluation. Given a pattern it
//!
//! 1. enumerates equivalent trees via the paper's Theorem 2–5 rewrites
//!    ([`RewriteCandidate`]), one of them the cheapest parenthesisation
//!    of every chain under the planner's own cost,
//! 2. costs every candidate bottom-up from the log's activity counts,
//!    with Lemma-1-style per-operator bounds priced by the one batch
//!    kernel each operator has ([`PlanCost`], the one cost model), and
//! 3. picks the cheapest tree ([`PhysicalPlan`]) — plus a flag routing
//!    `count()`/`exists()` to the enumeration-free counting DP when the
//!    pattern is a `~>`/`→` chain.
//!
//! The planner chooses the tree, not how a node runs: every operator
//! node executes its operator's kernel in [`crate::kernels`].
//!
//! Rewrites never change semantics: every candidate evaluates to the same
//! `incL(p)` (differentially verified by `wlq-difffuzz` and the
//! `plan_equiv` proptest). Because the original pattern is always among
//! the candidates, planning can never pick a tree worse than not planning
//! — by its own estimates — and [`crate::Strategy::Planned`] is therefore
//! the default strategy.

mod cost;
mod plan;
mod rewrite;

pub use cost::{JoinShape, PlanCost};
pub use plan::{PhysicalPlan, PlanNode, PlanRow, Planner};
pub use rewrite::{candidates, RewriteCandidate};
