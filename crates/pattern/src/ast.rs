//! The incident-pattern AST (Definition 3).

use std::collections::BTreeMap;
use std::fmt;

use wlq_log::{Activity, AttrMapRef, AttrName, Value};

/// The four binary pattern operators of Definition 3, inspired by BPMN
/// gateways.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Op {
    /// `p1 ⊙ p2`: `p1` and `p2` executed consecutively
    /// (`last(o1) + 1 = first(o2)`).
    Consecutive,
    /// `p1 → p2`: `p1` executed before `p2` (`last(o1) < first(o2)`).
    Sequential,
    /// `p1 ⊗ p2`: one of `p1`, `p2` executed.
    Choice,
    /// `p1 ⊕ p2`: both executed, sharing no log records.
    Parallel,
}

impl Op {
    /// All four operators, in Definition 3 order.
    pub const ALL: [Op; 4] = [Op::Consecutive, Op::Sequential, Op::Choice, Op::Parallel];

    /// The Unicode symbol used by the paper.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Consecutive => "⊙",
            Op::Sequential => "→",
            Op::Choice => "⊗",
            Op::Parallel => "⊕",
        }
    }

    /// The ASCII spelling used by the text syntax
    /// (see [`crate::parse`](crate::Pattern::parse)).
    #[must_use]
    pub fn ascii(self) -> &'static str {
        match self {
            Op::Consecutive => "~>",
            Op::Sequential => "->",
            Op::Choice => "|",
            Op::Parallel => "&",
        }
    }

    /// Operator name as used in the paper's prose.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Op::Consecutive => "consecutive",
            Op::Sequential => "sequential",
            Op::Choice => "choice",
            Op::Parallel => "parallel",
        }
    }

    /// Whether the operator is commutative (Theorem 3: only `⊗` and `⊕`).
    #[must_use]
    pub fn is_commutative(self) -> bool {
        matches!(self, Op::Choice | Op::Parallel)
    }

    /// Binding strength for parsing and printing; higher binds tighter.
    ///
    /// Consecutive and sequential share a level — Theorem 4 shows they
    /// associate freely with each other — and bind tighter than parallel,
    /// which binds tighter than choice. All levels are left-associative.
    #[must_use]
    pub fn precedence(self) -> u8 {
        match self {
            Op::Consecutive | Op::Sequential => 3,
            Op::Parallel => 2,
            Op::Choice => 1,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Which attribute map of a record an [atom predicate](Predicate) reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Scope {
    /// Look in `αin` only (`in.` prefix in the text syntax).
    Input,
    /// Look in `αout` only (`out.` prefix).
    Output,
    /// Look in `αout` first, then `αin` (no prefix). Matches the intuition
    /// "the value of the attribute at this record".
    #[default]
    Any,
}

/// Comparison operators usable in atom predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The textual spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Evaluates the comparison on an [`Ordering`](std::cmp::Ordering).
    #[must_use]
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An attribute condition on an atomic pattern — the WLQ *extension* that
/// makes the paper's motivating queries ("referrals with balance > $5,000")
/// expressible. Not part of the paper's Definition 3.
///
/// In the text syntax: `GetRefer[out.balance > 5000]`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Predicate {
    /// Which map to read the attribute from.
    pub scope: Scope,
    /// The attribute compared.
    pub attr: AttrName,
    /// The comparison operator.
    pub op: CmpOp,
    /// The constant compared against.
    pub value: Value,
}

impl Predicate {
    /// Creates a predicate over [`Scope::Any`].
    pub fn new(attr: impl Into<AttrName>, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate {
            scope: Scope::Any,
            attr: attr.into(),
            op,
            value: value.into(),
        }
    }

    /// Restricts the predicate to a map.
    #[must_use]
    pub fn scoped(mut self, scope: Scope) -> Self {
        self.scope = scope;
        self
    }

    /// Tests the predicate against a record's input/output maps, owned
    /// (`&AttrMap`) or borrowed from a log ([`AttrMapRef`]).
    ///
    /// Numeric comparisons coerce between `Int` and `Float`
    /// ([`Value::numeric_cmp`]); other kinds compare only within their kind,
    /// and an undefined attribute satisfies no comparison except `!=`.
    #[must_use]
    pub fn matches<'a>(
        &self,
        input: impl Into<AttrMapRef<'a>>,
        output: impl Into<AttrMapRef<'a>>,
    ) -> bool {
        let (input, output) = (input.into(), output.into());
        let actual = match self.scope {
            Scope::Input => input.get(self.attr.as_str()),
            Scope::Output => output.get(self.attr.as_str()),
            Scope::Any => output
                .get(self.attr.as_str())
                .or_else(|| input.get(self.attr.as_str())),
        };
        let Some(actual) = actual else {
            // Absent attribute: only `!=` can hold.
            return self.op == CmpOp::Ne;
        };
        let ord = if actual.kind() == self.value.kind() {
            actual.cmp(&self.value)
        } else if let Some(ord) = actual.numeric_cmp(&self.value) {
            ord
        } else {
            return self.op == CmpOp::Ne;
        };
        self.op.eval(ord)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix = match self.scope {
            Scope::Input => "in.",
            Scope::Output => "out.",
            Scope::Any => "",
        };
        let quoted;
        let value: &dyn fmt::Display = match &self.value {
            Value::Str(s) => {
                quoted = format!("{s:?}");
                &quoted
            }
            other => other,
        };
        write!(f, "{prefix}{} {} {value}", self.attr, self.op)
    }
}

/// An atomic pattern: `t` or `¬t` for an activity name `t`, optionally
/// carrying [`Predicate`]s (extension).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Atom {
    /// The activity name `t ∈ T`.
    pub activity: Activity,
    /// `true` for the negative pattern `¬t` ("any activity other than `t`").
    pub negated: bool,
    /// Conjunction of attribute conditions; empty in the paper's core
    /// algebra.
    pub predicates: Vec<Predicate>,
}

impl Atom {
    /// The positive atom `t`.
    pub fn new(activity: impl Into<Activity>) -> Self {
        Atom {
            activity: activity.into(),
            negated: false,
            predicates: Vec::new(),
        }
    }

    /// The negative atom `¬t`.
    pub fn negative(activity: impl Into<Activity>) -> Self {
        Atom {
            activity: activity.into(),
            negated: true,
            predicates: Vec::new(),
        }
    }

    /// Adds an attribute condition (builder style).
    #[must_use]
    pub fn with_predicate(mut self, p: Predicate) -> Self {
        self.predicates.push(p);
        self
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            f.write_str("!")?;
        }
        write!(f, "{}", self.activity)?;
        if !self.predicates.is_empty() {
            f.write_str("[")?;
            for (i, p) in self.predicates.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{p}")?;
            }
            f.write_str("]")?;
        }
        Ok(())
    }
}

/// An incident pattern (Definition 3): an atomic pattern or a binary
/// composition under one of the four [`Op`]s.
///
/// Build patterns with the combinators, the [`parse`](Self::parse) text
/// syntax, or [`from_postfix`](crate::shunting::from_postfix):
///
/// ```
/// use wlq_pattern::Pattern;
///
/// // The paper's Example 3 pattern, three equivalent spellings:
/// let a = Pattern::atom("SeeDoctor")
///     .seq(Pattern::atom("UpdateRefer").seq(Pattern::atom("GetReimburse")));
/// let b: Pattern = "SeeDoctor -> (UpdateRefer -> GetReimburse)".parse()?;
/// let c: Pattern = "SeeDoctor → (UpdateRefer → GetReimburse)".parse()?;
/// assert_eq!(a, b);
/// assert_eq!(b, c);
/// # Ok::<(), wlq_pattern::ParsePatternError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Pattern {
    /// An atomic pattern `t` or `¬t`.
    Atom(Atom),
    /// A composite pattern `left op right`.
    Binary {
        /// The composition operator.
        op: Op,
        /// Left sub-pattern.
        left: Box<Pattern>,
        /// Right sub-pattern.
        right: Box<Pattern>,
    },
}

impl Pattern {
    /// The positive atomic pattern `t`.
    pub fn atom(activity: impl Into<Activity>) -> Self {
        Pattern::Atom(Atom::new(activity))
    }

    /// The negative atomic pattern `¬t`.
    pub fn not_atom(activity: impl Into<Activity>) -> Self {
        Pattern::Atom(Atom::negative(activity))
    }

    /// Composes two patterns under `op`.
    #[must_use]
    pub fn binary(op: Op, left: Pattern, right: Pattern) -> Self {
        Pattern::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self ⊙ other` (consecutive).
    #[must_use]
    pub fn cons(self, other: Pattern) -> Self {
        Pattern::binary(Op::Consecutive, self, other)
    }

    /// `self → other` (sequential).
    #[must_use]
    pub fn seq(self, other: Pattern) -> Self {
        Pattern::binary(Op::Sequential, self, other)
    }

    /// `self ⊗ other` (choice).
    #[must_use]
    pub fn alt(self, other: Pattern) -> Self {
        Pattern::binary(Op::Choice, self, other)
    }

    /// `self ⊕ other` (parallel).
    #[must_use]
    pub fn par(self, other: Pattern) -> Self {
        Pattern::binary(Op::Parallel, self, other)
    }

    /// Returns the atom if this pattern is atomic.
    #[must_use]
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Pattern::Atom(a) => Some(a),
            Pattern::Binary { .. } => None,
        }
    }

    /// The operator if this pattern is composite.
    #[must_use]
    pub fn op(&self) -> Option<Op> {
        match self {
            Pattern::Atom(_) => None,
            Pattern::Binary { op, .. } => Some(*op),
        }
    }

    /// Number of atomic patterns (leaves). The paper's `k_i` ("number of
    /// activity names in `p_i`") in Lemma 1.
    #[must_use]
    pub fn num_atoms(&self) -> usize {
        match self {
            Pattern::Atom(_) => 1,
            Pattern::Binary { left, right, .. } => left.num_atoms() + right.num_atoms(),
        }
    }

    /// Number of operators. The paper's `k` in Theorem 1.
    #[must_use]
    pub fn num_operators(&self) -> usize {
        match self {
            Pattern::Atom(_) => 0,
            Pattern::Binary { left, right, .. } => 1 + left.num_operators() + right.num_operators(),
        }
    }

    /// Height of the pattern tree; an atom has depth 1.
    #[must_use]
    pub fn depth(&self) -> usize {
        match self {
            Pattern::Atom(_) => 1,
            Pattern::Binary { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    /// The multiset of activity names in the pattern, as `name → count`.
    ///
    /// Section 3.1 uses this to decide whether a choice needs duplicate
    /// elimination (only when both sides have the same multiset).
    #[must_use]
    pub fn activity_multiset(&self) -> BTreeMap<Activity, usize> {
        fn walk(p: &Pattern, out: &mut BTreeMap<Activity, usize>) {
            match p {
                Pattern::Atom(a) => *out.entry(a.activity.clone()).or_insert(0) += 1,
                Pattern::Binary { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        let mut out = BTreeMap::new();
        walk(self, &mut out);
        out
    }

    /// Returns `true` if any atom is negated.
    #[must_use]
    pub fn has_negation(&self) -> bool {
        match self {
            Pattern::Atom(a) => a.negated,
            Pattern::Binary { left, right, .. } => left.has_negation() || right.has_negation(),
        }
    }

    /// Returns `true` if any atom carries predicates (i.e. the pattern uses
    /// the extension beyond the paper's core algebra).
    #[must_use]
    pub fn has_predicates(&self) -> bool {
        match self {
            Pattern::Atom(a) => !a.predicates.is_empty(),
            Pattern::Binary { left, right, .. } => left.has_predicates() || right.has_predicates(),
        }
    }

    /// Pre-order iteration over all subpatterns, root first.
    pub fn subpatterns(&self) -> impl Iterator<Item = &Pattern> {
        let mut stack = vec![self];
        std::iter::from_fn(move || {
            let next = stack.pop()?;
            if let Pattern::Binary { left, right, .. } = next {
                stack.push(right);
                stack.push(left);
            }
            Some(next)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> Pattern {
        Pattern::atom(name)
    }

    #[test]
    fn combinators_build_the_expected_tree() {
        let pat = p("A").seq(p("B").cons(p("C")));
        assert_eq!(pat.op(), Some(Op::Sequential));
        let Pattern::Binary { right, .. } = &pat else {
            panic!()
        };
        assert_eq!(right.op(), Some(Op::Consecutive));
        assert_eq!(pat.num_atoms(), 3);
        assert_eq!(pat.num_operators(), 2);
        assert_eq!(pat.depth(), 3);
    }

    #[test]
    fn atom_accessors() {
        let a = Pattern::not_atom("X");
        let atom = a.as_atom().unwrap();
        assert!(atom.negated);
        assert_eq!(atom.activity.as_str(), "X");
        assert!(p("A").seq(p("B")).as_atom().is_none());
    }

    #[test]
    fn activity_multiset_counts_duplicates() {
        let pat = p("A").alt(p("A").par(p("B")));
        let ms = pat.activity_multiset();
        let a: Activity = "A".into();
        let b: Activity = "B".into();
        assert_eq!(ms[&a], 2);
        assert_eq!(ms[&b], 1);
    }

    #[test]
    fn negation_and_predicate_flags() {
        assert!(!p("A").has_negation());
        assert!(Pattern::not_atom("A").has_negation());
        assert!(p("A").seq(Pattern::not_atom("B")).has_negation());
        let with_pred =
            Pattern::Atom(Atom::new("A").with_predicate(Predicate::new("x", CmpOp::Gt, 5i64)));
        assert!(with_pred.has_predicates());
        assert!(!p("A").has_predicates());
    }

    #[test]
    fn operator_metadata() {
        assert!(Op::Choice.is_commutative());
        assert!(Op::Parallel.is_commutative());
        assert!(!Op::Sequential.is_commutative());
        assert!(!Op::Consecutive.is_commutative());
        assert_eq!(Op::Consecutive.precedence(), Op::Sequential.precedence());
        assert!(Op::Parallel.precedence() < Op::Sequential.precedence());
        assert!(Op::Choice.precedence() < Op::Parallel.precedence());
        for op in Op::ALL {
            assert!(!op.symbol().is_empty());
            assert!(!op.ascii().is_empty());
            assert!(!op.name().is_empty());
        }
    }

    #[test]
    fn subpatterns_visits_every_node_root_first() {
        let pat = p("A").seq(p("B").alt(p("C")));
        let nodes: Vec<&Pattern> = pat.subpatterns().collect();
        assert_eq!(nodes.len(), 5);
        assert_eq!(nodes[0], &pat);
        assert_eq!(nodes[1], &p("A"));
    }

    #[test]
    fn cmp_op_eval_covers_all_orderings() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.eval(Equal) && !CmpOp::Eq.eval(Less));
        assert!(CmpOp::Ne.eval(Less) && !CmpOp::Ne.eval(Equal));
        assert!(CmpOp::Lt.eval(Less) && !CmpOp::Lt.eval(Equal));
        assert!(CmpOp::Le.eval(Equal) && !CmpOp::Le.eval(Greater));
        assert!(CmpOp::Gt.eval(Greater) && !CmpOp::Gt.eval(Equal));
        assert!(CmpOp::Ge.eval(Equal) && !CmpOp::Ge.eval(Less));
    }

    #[test]
    fn predicate_matches_scopes_and_coercion() {
        use wlq_log::attrs;
        let input = attrs! { "balance" => 1000i64, "state" => "start" };
        let output = attrs! { "balance" => 5000i64 };

        // Any scope prefers output.
        assert!(Predicate::new("balance", CmpOp::Gt, 2000i64).matches(&input, &output));
        // Input scope sees 1000.
        assert!(!Predicate::new("balance", CmpOp::Gt, 2000i64)
            .scoped(Scope::Input)
            .matches(&input, &output));
        // Output scope.
        assert!(Predicate::new("balance", CmpOp::Eq, 5000i64)
            .scoped(Scope::Output)
            .matches(&input, &output));
        // Int vs float coercion.
        assert!(Predicate::new("balance", CmpOp::Lt, 5000.5f64).matches(&input, &output));
        // Strings compare lexically.
        assert!(Predicate::new("state", CmpOp::Eq, "start").matches(&input, &output));
        // Missing attribute: only != holds.
        assert!(Predicate::new("missing", CmpOp::Ne, 1i64).matches(&input, &output));
        assert!(!Predicate::new("missing", CmpOp::Eq, 1i64).matches(&input, &output));
        // Type mismatch (string vs int): only != holds.
        assert!(!Predicate::new("state", CmpOp::Lt, 1i64).matches(&input, &output));
        assert!(Predicate::new("state", CmpOp::Ne, 1i64).matches(&input, &output));
    }

    #[test]
    fn predicate_display_is_readable() {
        let p1 = Predicate::new("balance", CmpOp::Gt, 5000i64);
        assert_eq!(p1.to_string(), "balance > 5000");
        let p2 = Predicate::new("state", CmpOp::Eq, "active").scoped(Scope::Output);
        assert_eq!(p2.to_string(), "out.state = \"active\"");
        let p3 = Predicate::new("x", CmpOp::Le, 1.5f64).scoped(Scope::Input);
        assert_eq!(p3.to_string(), "in.x <= 1.5");
    }

    #[test]
    fn atom_display_includes_negation_and_predicates() {
        assert_eq!(Atom::new("A").to_string(), "A");
        assert_eq!(Atom::negative("A").to_string(), "!A");
        let a = Atom::new("GetRefer").with_predicate(Predicate::new("balance", CmpOp::Gt, 5000i64));
        assert_eq!(a.to_string(), "GetRefer[balance > 5000]");
    }
}
