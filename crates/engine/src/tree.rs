//! Incident trees (Definition 6) and their post-order evaluation
//! (Algorithms 2 and 3) with Algorithm 1's operators, including per-node
//! traces for `EXPLAIN`-style output.

use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

use wlq_log::{Log, LogIndex, Wid};
use wlq_pattern::{Atom, Op, Pattern, PostfixItem};

use crate::eval::leaf_incidents;
use crate::incident::Incident;
use crate::incident_set::IncidentSet;
use crate::naive;

/// A binary tree with operator and activity nodes (Definition 6) — the
/// evaluation plan of a pattern.
///
/// The tree is isomorphic to the [`Pattern`] AST; it exists as a separate
/// structure because the paper's Algorithm 3 constructs it explicitly from
/// the postfix form, and because evaluation annotates its nodes with
/// incident sets ([`IncidentTree::evaluate_traced`]). Evaluation runs
/// Algorithm 1's operators ([`naive::combine`]) node by node over every
/// instance, so the tree is a reference for the planned executor.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentTree {
    root: Node,
}

/// A node of an incident tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// An activity (leaf) node, holding an atomic pattern.
    Activity(Atom),
    /// An operator node with two children.
    Operator {
        /// The pattern operator.
        op: Op,
        /// Left child.
        left: Box<Node>,
        /// Right child.
        right: Box<Node>,
    },
}

impl Node {
    fn from_pattern(p: &Pattern) -> Node {
        match p {
            Pattern::Atom(a) => Node::Activity(a.clone()),
            Pattern::Binary { op, left, right } => Node::Operator {
                op: *op,
                left: Box::new(Node::from_pattern(left)),
                right: Box::new(Node::from_pattern(right)),
            },
        }
    }

    fn to_pattern(&self) -> Pattern {
        match self {
            Node::Activity(a) => Pattern::Atom(a.clone()),
            Node::Operator { op, left, right } => {
                Pattern::binary(*op, left.to_pattern(), right.to_pattern())
            }
        }
    }
}

/// The per-node record of a traced evaluation, in post-order.
#[derive(Debug, Clone)]
pub struct NodeTrace {
    /// The sub-pattern this node represents, as text.
    pub pattern: String,
    /// Tree depth of the node (root = 0).
    pub depth: usize,
    /// The node's full incident set.
    pub incidents: IncidentSet,
    /// Wall-clock time spent producing this node's output (children
    /// excluded).
    pub elapsed: Duration,
}

/// The result of [`IncidentTree::evaluate_traced`]: the root incident set
/// plus one [`NodeTrace`] per node in post-order (the evaluation order of
/// Algorithm 2).
#[derive(Debug, Clone)]
pub struct EvalTrace {
    /// Per-node traces, post-order.
    pub nodes: Vec<NodeTrace>,
}

impl EvalTrace {
    /// The root node's trace (the final result).
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty, which cannot happen for a tree
    /// produced from a pattern.
    #[must_use]
    pub fn root(&self) -> &NodeTrace {
        &self.nodes[self.nodes.len() - 1]
    }

    /// Total operator work time across all nodes.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.nodes.iter().map(|n| n.elapsed).sum()
    }
}

impl fmt::Display for EvalTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for node in &self.nodes {
            writeln!(
                f,
                "{:indent$}{} ⇒ {} incidents",
                "",
                node.pattern,
                node.incidents.len(),
                indent = node.depth * 2,
            )?;
        }
        Ok(())
    }
}

impl IncidentTree {
    /// Builds the incident tree of a pattern (the recursive descent half of
    /// Algorithm 3).
    #[must_use]
    pub fn from_pattern(p: &Pattern) -> Self {
        IncidentTree {
            root: Node::from_pattern(p),
        }
    }

    /// Builds the incident tree from a postfix item sequence — the
    /// stack-machine half of Algorithm 3 (the paper converts the infix
    /// query with shunting-yard first; see [`wlq_pattern::to_postfix`]).
    ///
    /// # Errors
    ///
    /// Returns [`wlq_pattern::PostfixError`] on ill-formed sequences.
    pub fn from_postfix(
        items: impl IntoIterator<Item = PostfixItem>,
    ) -> Result<Self, wlq_pattern::PostfixError> {
        let pattern = wlq_pattern::from_postfix(items)?;
        Ok(Self::from_pattern(&pattern))
    }

    /// The pattern this tree represents.
    #[must_use]
    pub fn to_pattern(&self) -> Pattern {
        self.root.to_pattern()
    }

    /// Number of nodes (operators + activities).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Activity(_) => 1,
                Node::Operator { left, right, .. } => 1 + count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Post-order evaluation (Algorithm 2): leaves produce their activity's
    /// records via the per-instance index, operator nodes combine their
    /// children with Algorithm 1's operators.
    #[must_use]
    pub fn evaluate(&self, log: &Log) -> IncidentSet {
        fn eval(node: &Node, log: &Log, index: &LogIndex) -> Parts {
            match node {
                Node::Activity(atom) => leaf_parts(atom, log, index),
                Node::Operator { op, left, right } => {
                    let l = eval(left, log, index);
                    let r = eval(right, log, index);
                    combine_parts(*op, &l, &r, index)
                }
            }
        }
        IncidentSet::from_partitions(eval(&self.root, log, log.index()))
    }

    /// Like [`evaluate`](Self::evaluate) but records every node's incident
    /// set and timing — the trace shown in the paper's Example 5.
    #[must_use]
    pub fn evaluate_traced(&self, log: &Log) -> (IncidentSet, EvalTrace) {
        fn eval(
            node: &Node,
            depth: usize,
            log: &Log,
            index: &LogIndex,
            out: &mut Vec<NodeTrace>,
        ) -> Parts {
            let (parts, start) = match node {
                Node::Activity(atom) => {
                    let start = Instant::now();
                    (leaf_parts(atom, log, index), start)
                }
                Node::Operator { op, left, right } => {
                    let l = eval(left, depth + 1, log, index, out);
                    let r = eval(right, depth + 1, log, index, out);
                    let start = Instant::now();
                    (combine_parts(*op, &l, &r, index), start)
                }
            };
            let elapsed = start.elapsed();
            out.push(NodeTrace {
                pattern: node.to_pattern().to_string(),
                depth,
                incidents: IncidentSet::from_partitions(
                    parts
                        .iter()
                        .map(|(wid, incidents)| (*wid, incidents.clone())),
                ),
                elapsed,
            });
            parts
        }
        let mut nodes = Vec::with_capacity(self.num_nodes());
        let parts = eval(&self.root, 0, log, log.index(), &mut nodes);
        (IncidentSet::from_partitions(parts), EvalTrace { nodes })
    }
}

/// One node's incidents, listed per instance.
type Parts = BTreeMap<Wid, Vec<Incident>>;

/// An activity node's incidents in every instance.
fn leaf_parts(atom: &Atom, log: &Log, index: &LogIndex) -> Parts {
    (index.wids())
        .map(|wid| (wid, leaf_incidents(atom, log, index, wid)))
        .collect()
}

/// Combines two nodes' incidents per instance (the `for i ∈ widSet` loop
/// of Algorithm 2, line 13–14).
fn combine_parts(op: Op, left: &Parts, right: &Parts, index: &LogIndex) -> Parts {
    fn of(parts: &Parts, wid: Wid) -> &[Incident] {
        parts.get(&wid).map_or(&[], Vec::as_slice)
    }
    (index.wids())
        .map(|wid| (wid, naive::combine(op, of(left, wid), of(right, wid))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, Strategy};
    use wlq_log::paper;
    use wlq_pattern::to_postfix;

    fn pattern(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    #[test]
    fn tree_round_trips_pattern() {
        let p = pattern("SeeDoctor -> (UpdateRefer -> GetReimburse)");
        let tree = IncidentTree::from_pattern(&p);
        assert_eq!(tree.to_pattern(), p);
        assert_eq!(tree.num_nodes(), 5);
    }

    #[test]
    fn tree_from_postfix_matches_algorithm3() {
        let p = pattern("(A | B) -> C");
        let tree = IncidentTree::from_postfix(to_postfix(&p)).unwrap();
        assert_eq!(tree.to_pattern(), p);
    }

    #[test]
    fn figure4_tree_evaluates_example5() {
        // The running example: the root yields {l13, l14, l20} ≙
        // positions {4, 5, 9} of wid 2.
        let log = paper::figure3_log();
        let p = pattern("SeeDoctor -> (UpdateRefer -> GetReimburse)");
        let set = IncidentTree::from_pattern(&p).evaluate(&log);
        assert_eq!(set.len(), 1);
        let o = set.iter().next().unwrap();
        assert_eq!(o.wid(), wlq_log::Wid(2));
        let lsns: Vec<u64> = o
            .positions()
            .iter()
            .map(|&p| log.record(o.wid(), p).unwrap().lsn().get())
            .collect();
        assert_eq!(lsns, vec![13, 14, 20]);
        // Algorithm 2 node by node equals the naive evaluator's
        // instance-by-instance recursion.
        let naive = Evaluator::with_strategy(&log, Strategy::NaivePaper);
        assert_eq!(set, naive.evaluate(&p));
    }

    #[test]
    fn trace_reports_per_node_sets_in_post_order() {
        let log = paper::figure3_log();
        let tree =
            IncidentTree::from_pattern(&pattern("SeeDoctor -> (UpdateRefer -> GetReimburse)"));
        let (set, trace) = tree.evaluate_traced(&log);
        assert_eq!(trace.nodes.len(), 5);
        // Post-order: SeeDoctor, UpdateRefer, GetReimburse, inner ->, root.
        assert_eq!(trace.nodes[0].pattern, "SeeDoctor");
        assert_eq!(trace.nodes[0].incidents.len(), 4); // l9, l11, l13, l17
        assert_eq!(trace.nodes[1].pattern, "UpdateRefer");
        assert_eq!(trace.nodes[1].incidents.len(), 1);
        assert_eq!(trace.nodes[2].pattern, "GetReimburse");
        assert_eq!(trace.nodes[2].incidents.len(), 2); // l15, l20
        assert_eq!(trace.nodes[3].pattern, "UpdateRefer -> GetReimburse");
        assert_eq!(trace.nodes[3].incidents.len(), 1); // {l14, l20}
        assert_eq!(
            trace.root().pattern,
            "SeeDoctor -> (UpdateRefer -> GetReimburse)"
        );
        assert_eq!(trace.root().incidents, set);
        // Depths: leaves of the inner node are depth 2.
        assert_eq!(trace.nodes[0].depth, 1);
        assert_eq!(trace.nodes[1].depth, 2);
        assert_eq!(trace.root().depth, 0);
    }

    #[test]
    fn trace_display_indents_by_depth() {
        let log = paper::figure3_log();
        let tree = IncidentTree::from_pattern(&pattern("UpdateRefer -> GetReimburse"));
        let (_, trace) = tree.evaluate_traced(&log);
        let text = trace.to_string();
        assert!(text.contains("UpdateRefer ⇒ 1 incidents"));
        assert!(text.contains("UpdateRefer -> GetReimburse ⇒ 1 incidents"));
    }

    #[test]
    fn negated_leaf_counts_complement() {
        let log = paper::figure3_log();
        let tree = IncidentTree::from_pattern(&pattern("!SeeDoctor"));
        let set = tree.evaluate(&log);
        assert_eq!(set.len(), 20 - 4);
    }
}
