//! Physical plans: the chosen rewrite as a costed operator tree.

use std::fmt;

use wlq_log::{Log, LogIndex, LogStats};
use wlq_pattern::{Atom, Op, Pattern};

use super::cost::PlanCost;
use super::rewrite::{candidates, RewriteCandidate};

/// One node of a physical plan, annotated with the cost model's
/// estimates.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// A leaf: one index posting scan.
    Leaf {
        /// The atomic pattern to scan.
        atom: Atom,
        /// Estimated incidents produced.
        estimate: f64,
        /// Estimated scan cost.
        cost: f64,
    },
    /// An operator node, executed by the operator's batch kernel.
    Join {
        /// The operator.
        op: Op,
        /// Left input plan.
        left: Box<PlanNode>,
        /// Right input plan.
        right: Box<PlanNode>,
        /// Estimated incidents produced.
        estimate: f64,
        /// Estimated total cost of this subtree (children included).
        cost: f64,
    },
}

/// One row of a rendered plan tree, in pre-order: the single source of
/// truth for every plan display — `Display for PhysicalPlan` (which `wlq
/// explain` prints) and the profiler's `--analyze` tree both consume
/// these rows instead of keeping their own formatters.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRow {
    /// Tree depth (root = 0).
    pub depth: usize,
    /// Display label: `scan <atom>` for leaves, the operator's name for
    /// joins.
    pub label: String,
    /// The sub-pattern this node evaluates, as text.
    pub pattern: String,
    /// Estimated incidents produced.
    pub estimate: f64,
    /// Estimated total cost of the subtree (children included).
    pub cost: f64,
    /// Whether the node is a leaf scan.
    pub is_leaf: bool,
}

impl PlanNode {
    /// Estimated incidents this node produces.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        match self {
            PlanNode::Leaf { estimate, .. } | PlanNode::Join { estimate, .. } => *estimate,
        }
    }

    /// Estimated total cost of this subtree.
    #[must_use]
    pub fn cost(&self) -> f64 {
        match self {
            PlanNode::Leaf { cost, .. } | PlanNode::Join { cost, .. } => *cost,
        }
    }

    /// Whether this node is a leaf scan.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self, PlanNode::Leaf { .. })
    }

    /// Rebuilds the logical pattern this plan evaluates.
    #[must_use]
    pub fn pattern(&self) -> Pattern {
        match self {
            PlanNode::Leaf { atom, .. } => Pattern::Atom(atom.clone()),
            PlanNode::Join {
                op, left, right, ..
            } => Pattern::binary(*op, left.pattern(), right.pattern()),
        }
    }

    /// Number of nodes in this subtree.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        match self {
            PlanNode::Leaf { .. } => 1,
            PlanNode::Join { left, right, .. } => 1 + left.num_nodes() + right.num_nodes(),
        }
    }

    /// The plan tree flattened to display rows in pre-order.
    #[must_use]
    pub fn rows(&self) -> Vec<PlanRow> {
        let mut rows = Vec::with_capacity(self.num_nodes());
        self.collect_rows(0, &mut rows);
        rows
    }

    fn collect_rows(&self, depth: usize, rows: &mut Vec<PlanRow>) {
        match self {
            PlanNode::Leaf {
                atom,
                estimate,
                cost,
            } => {
                let pattern = Pattern::Atom(atom.clone());
                rows.push(PlanRow {
                    depth,
                    label: format!("scan {pattern}"),
                    pattern: pattern.to_string(),
                    estimate: *estimate,
                    cost: *cost,
                    is_leaf: true,
                });
            }
            PlanNode::Join {
                op,
                left,
                right,
                estimate,
                cost,
            } => {
                rows.push(PlanRow {
                    depth,
                    label: op.name().to_string(),
                    pattern: self.pattern().to_string(),
                    estimate: *estimate,
                    cost: *cost,
                    is_leaf: false,
                });
                left.collect_rows(depth + 1, rows);
                right.collect_rows(depth + 1, rows);
            }
        }
    }

    fn render(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in self.rows() {
            let indent = row.depth * 2;
            if row.is_leaf {
                writeln!(f, "{:indent$}{}  (est {:.1})", "", row.label, row.estimate)?;
            } else {
                writeln!(
                    f,
                    "{:indent$}{}  (est {:.1}, cost {:.0})",
                    "", row.label, row.estimate, row.cost
                )?;
            }
        }
        Ok(())
    }
}

/// A costed physical plan: the winning rewrite as an operator tree with
/// per-node estimates, and the scored alternatives (for `explain`).
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    query: Pattern,
    root: PlanNode,
    rule: &'static str,
    pattern: Pattern,
    countable: bool,
    scored: Vec<(String, f64)>,
}

impl PhysicalPlan {
    /// The query as given to the planner.
    #[must_use]
    pub fn query(&self) -> &Pattern {
        &self.query
    }

    /// The root of the physical operator tree.
    #[must_use]
    pub fn root(&self) -> &PlanNode {
        &self.root
    }

    /// The rewrite rule that produced the winning tree.
    #[must_use]
    pub fn rule(&self) -> &'static str {
        self.rule
    }

    /// The rewritten pattern the plan evaluates (equivalent to the query
    /// by Theorems 2–5).
    #[must_use]
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Estimated total cost of the plan.
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.root.cost()
    }

    /// Whether `count()`/`exists()` route to the enumeration-free
    /// counting DP ([`crate::fast_count`]) instead of executing the plan:
    /// the counting module's verdict on the [`query`](Self::query) as
    /// given, which no rewrite can change.
    #[must_use]
    pub fn is_counting_chain(&self) -> bool {
        self.countable
    }

    /// Estimated total cost of the query as written: the score of the
    /// "original" candidate, which every plan considers first.
    #[must_use]
    pub fn original_cost(&self) -> f64 {
        self.scored.first().map_or(self.cost(), |&(_, cost)| cost)
    }

    /// Every candidate considered, as `(rule: pattern, estimated cost)`,
    /// in enumeration order.
    #[must_use]
    pub fn scored_candidates(&self) -> &[(String, f64)] {
        &self.scored
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chosen: {}  [{}]  (cost {:.0})",
            self.pattern,
            self.rule,
            self.cost()
        )?;
        if self.countable {
            writeln!(f, "count/exists: enumeration-free counting DP")?;
        }
        self.root.render(f)?;
        if self.scored.len() > 1 {
            writeln!(f, "candidates considered:")?;
            for (label, cost) in &self.scored {
                writeln!(f, "  {label}  (cost {cost:.0})")?;
            }
        }
        Ok(())
    }
}

/// Costs `p` as written: a leaf scan per atom, the operator's batch
/// kernel per operator node.
pub(super) fn build_node(cost: &PlanCost, p: &Pattern) -> PlanNode {
    match p {
        Pattern::Atom(atom) => PlanNode::Leaf {
            atom: atom.clone(),
            estimate: cost.estimate_incidents(p),
            cost: cost.leaf_cost(),
        },
        Pattern::Binary { op, left, right } => {
            let l = build_node(cost, left);
            let r = build_node(cost, right);
            #[allow(clippy::cast_precision_loss)]
            let (shape, node_cost) = cost.price_join(
                *op,
                (l.estimate(), left.num_atoms() as f64),
                (r.estimate(), right.num_atoms() as f64),
            );
            PlanNode::Join {
                op: *op,
                estimate: shape.out,
                cost: l.cost() + r.cost() + node_cost,
                left: Box::new(l),
                right: Box::new(r),
            }
        }
    }
}

/// The query planner: enumerates equivalent trees, costs them, and picks
/// the cheapest.
#[derive(Debug, Clone)]
pub struct Planner {
    cost: PlanCost,
}

impl Planner {
    /// Builds a planner for a log from its activity index
    /// ([`Log::index`]); the statistics are read off the index alone.
    #[must_use]
    pub fn new(_log: &Log, index: &LogIndex) -> Self {
        Planner::from_stats(LogStats::from_index(index))
    }

    /// Builds a planner from a log's activity statistics.
    #[must_use]
    pub fn from_stats(stats: LogStats) -> Self {
        Planner {
            cost: PlanCost::new(stats),
        }
    }

    /// Builds a planner from a log alone, over the log's own index.
    #[must_use]
    pub fn from_log(log: &Log) -> Self {
        Planner::new(log, log.index())
    }

    /// The planner's cost model.
    #[must_use]
    pub fn cost(&self) -> &PlanCost {
        &self.cost
    }

    /// The equivalent rewritings considered for `p` (original first).
    #[must_use]
    pub fn candidates(&self, p: &Pattern) -> Vec<RewriteCandidate> {
        candidates(&self.cost, p)
    }

    /// Plans `p`: costs every candidate rewrite and returns the cheapest
    /// as an operator tree. The candidate set
    /// always includes `p` itself, so planning never regresses by its own
    /// estimate.
    #[must_use]
    pub fn plan(&self, p: &Pattern) -> PhysicalPlan {
        let mut scored = Vec::new();
        let mut best: Option<(PlanNode, &'static str, Pattern)> = None;
        for candidate in self.candidates(p) {
            let node = build_node(&self.cost, &candidate.pattern);
            let cost = node.cost();
            scored.push((format!("{}: {}", candidate.rule, candidate.pattern), cost));
            let better = match &best {
                None => true,
                Some((current, _, _)) => cost < current.cost(),
            };
            if better {
                best = Some((node, candidate.rule, candidate.pattern));
            }
        }
        // `candidates` always returns at least the original pattern, so
        // `best` is always set; the fallback keeps the API panic-free.
        let (root, rule, pattern) =
            best.unwrap_or_else(|| (build_node(&self.cost, p), "original", p.clone()));
        PhysicalPlan {
            query: p.clone(),
            countable: crate::counting::is_countable(p),
            root,
            rule,
            pattern,
            scored,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_log::paper;

    fn parse(s: &str) -> Pattern {
        s.parse().expect("valid pattern")
    }

    fn planner_for(log: &Log) -> Planner {
        Planner::from_log(log)
    }

    #[test]
    fn chosen_pattern_is_always_equivalent_shape() {
        let log = paper::figure3_log();
        let planner = planner_for(&log);
        for src in [
            "SeeDoctor -> UpdateRefer -> GetReimburse",
            "(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)",
            "SeeDoctor & PayTreatment",
        ] {
            let p = parse(src);
            let plan = planner.plan(&p);
            // The plan's pattern round-trips from its own operator tree.
            assert_eq!(&plan.root().pattern(), plan.pattern(), "{src}");
            assert_eq!(plan.query(), &p);
        }
    }

    #[test]
    fn planning_never_regresses_by_its_own_estimate() {
        let log = paper::figure3_log();
        let planner = planner_for(&log);
        for src in [
            "SeeDoctor",
            "START -> SeeDoctor -> UpdateRefer",
            "(GetRefer -> CheckIn) | (GetRefer -> SeeDoctor) | UpdateRefer",
        ] {
            let p = parse(src);
            let plan = planner.plan(&p);
            assert!(plan.scored_candidates()[0].0.starts_with("original"));
            let original = plan.original_cost();
            assert!(
                plan.cost() <= original + 1e-9,
                "{src}: chose {} over original ({} > {original})",
                plan.pattern(),
                plan.cost()
            );
        }
    }

    #[test]
    fn planner_factors_common_work() {
        let log = paper::figure3_log();
        let plan = planner_for(&log).plan(&parse(
            "(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)",
        ));
        assert_eq!(
            plan.pattern(),
            &parse("SeeDoctor -> (PayTreatment | UpdateRefer)")
        );
        assert!(plan.cost() < plan.original_cost());
        assert!(plan.scored_candidates().len() > 1);
    }

    #[test]
    fn planning_never_regresses_on_negated_and_parallel_patterns() {
        let log = paper::figure3_log();
        let planner = planner_for(&log);
        for src in [
            "!START -> END",
            "(SeeDoctor & CheckIn) | GetRefer",
            "START ~> GetRefer ~> CheckIn",
        ] {
            let plan = planner.plan(&parse(src));
            assert!(
                plan.cost() <= plan.original_cost() + 1e-9,
                "{src}: chose {} over original ({} > {})",
                plan.pattern(),
                plan.cost(),
                plan.original_cost()
            );
            // The chosen tree is the cheapest candidate the planner scored.
            let cheapest = plan
                .scored_candidates()
                .iter()
                .map(|(_, c)| *c)
                .fold(f64::INFINITY, f64::min);
            assert!((plan.cost() - cheapest).abs() < 1e-9, "{src}");
        }
    }

    #[test]
    fn costs_grow_with_pattern_size() {
        let log = paper::figure3_log();
        let planner = planner_for(&log);
        let small = planner.plan(&parse("SeeDoctor"));
        let big = planner.plan(&parse("SeeDoctor -> PayTreatment -> GetReimburse"));
        assert!(big.cost() > small.cost());
    }

    #[test]
    fn counting_chain_flag_tracks_fast_count_support() {
        let log = paper::figure3_log();
        let planner = planner_for(&log);
        assert!(planner.plan(&parse("A ~> B -> !C")).is_counting_chain());
        assert!(planner.plan(&parse("A | B")).is_counting_chain());
        assert!(planner.plan(&parse("A & B")).is_counting_chain());
        assert!(planner
            .plan(&parse("(A | B) -> !C & C"))
            .is_counting_chain());
        assert!(!planner.plan(&parse("A & A")).is_counting_chain());
        assert!(!planner.plan(&parse("!A & B")).is_counting_chain());
        assert!(!planner.plan(&parse("(A | B) & B")).is_counting_chain());
        assert!(!planner
            .plan(&parse("GetRefer[out.balance > 100]"))
            .is_counting_chain());
    }

    #[test]
    fn rows_flatten_the_tree_in_pre_order() {
        let log = paper::figure3_log();
        let plan = planner_for(&log).plan(&parse("SeeDoctor -> (UpdateRefer ~> GetReimburse)"));
        let rows = plan.root().rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows.len(), plan.root().num_nodes());
        assert_eq!(rows[0].depth, 0);
        assert!(!rows[0].is_leaf);
        assert!(rows[1].is_leaf, "pre-order: left leaf second, got {rows:?}");
        assert_eq!(rows[1].pattern, "SeeDoctor");
        // The Display output is rendered from the same rows.
        let text = plan.to_string();
        for row in &rows {
            assert!(
                text.contains(&row.label),
                "missing {:?} in {text}",
                row.label
            );
        }
    }

    #[test]
    fn display_renders_the_operator_tree() {
        let log = paper::figure3_log();
        let plan = planner_for(&log).plan(&parse("SeeDoctor -> PayTreatment"));
        let text = plan.to_string();
        assert!(text.contains("chosen:"), "{text}");
        assert!(text.contains("scan SeeDoctor"), "{text}");
        assert!(text.contains("\nsequential  (est"), "{text}");
    }
}
