//! Cost-based query planning: algebraic rewrites plus per-node physical
//! operator selection.
//!
//! The planner sits between parsing and evaluation. Given a pattern it
//!
//! 1. enumerates equivalent trees via the paper's Theorem 2–5 rewrites
//!    ([`RewriteCandidate`]), one of them the cheapest parenthesisation
//!    of every chain under the planner's own cost,
//! 2. costs every candidate bottom-up from the log's activity counts,
//!    with Lemma-1-style per-operator bounds refined per physical
//!    implementation ([`PlanCost`], the one cost model), and
//! 3. picks the cheapest tree with a physical operator chosen per node
//!    ([`PhysicalPlan`]): nested loop, batch kernel, or the sort-merge
//!    sequential join — plus a flag routing `count()`/`exists()` to the
//!    enumeration-free counting DP when the pattern is a `~>`/`→` chain.
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
pub use plan::{PhysOp, PhysicalPlan, PlanNode, PlanRow, Planner};
pub use rewrite::{candidates, RewriteCandidate};
