//! Variable bindings: the `x : t` atoms of the paper's formal language.
//!
//! The paper's incident definition assigns *variables* to log records
//! ("an assignment is a 1-1 mapping from V to N+ … maps all variables in
//! e to actual log records"). The plain evaluator drops the variable
//! names, as the paper's own examples do; this module keeps them, so a
//! query can label atoms and read back which record matched which label:
//!
//! ```text
//! upd:UpdateRefer -> reim:GetReimburse
//! ```
//!
//! yields, per incident, the assignment `{upd ↦ l14, reim ↦ l20}`.
//!
//! Labels use the text syntax `var:Activity` (parsed here, since the core
//! grammar deliberately omits variables, matching the published
//! presentation).

use std::collections::{BTreeMap, BTreeSet};

use wlq_log::{IsLsn, Log, LogIndex, Wid};
use wlq_pattern::{Atom, Op, ParseErrorKind, ParsePatternError, Pattern};

use crate::eval::leaf_incidents;
use crate::incident::Incident;

/// An incident plus the variable assignment that produced it
/// (the paper's `(L, e)-qualified assignment` restricted to this match).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundIncident {
    /// The underlying incident (set of records).
    pub incident: Incident,
    /// Variable name → the bound record's is-lsn within the incident's
    /// instance. Only labelled atoms contribute entries.
    pub bindings: BTreeMap<String, IsLsn>,
}

impl BoundIncident {
    /// Resolves a binding to its global log sequence number. Returns
    /// `None` when the variable is unbound or the incident did not come
    /// from `log`.
    #[must_use]
    pub fn lsn_of(&self, var: &str, log: &Log) -> Option<wlq_log::Lsn> {
        let position = *self.bindings.get(var)?;
        let index = log.index();
        let offset = index.record_offset(index.ordinal(self.incident.wid())?, position)?;
        Some(wlq_log::Lsn(offset as u64 + 1))
    }
}

/// A pattern whose atoms may carry variable labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelledPattern {
    pattern: Pattern,
    /// Post-order atom index → label (if any). Atom order mirrors
    /// [`wlq_pattern::to_postfix`].
    labels: Vec<Option<String>>,
}

impl LabelledPattern {
    /// Parses the labelled syntax `var:Activity` (labels optional per
    /// atom, each directly before its activity). Everything else matches
    /// the core grammar.
    ///
    /// # Errors
    ///
    /// Returns the core parser's error, with label-specific problems
    /// (duplicate variable, label on a negated atom, label not directly
    /// followed by its activity) reported as [`ParsePatternError`]s at
    /// the label's offset.
    pub fn parse(src: &str) -> Result<LabelledPattern, ParsePatternError> {
        // One scan strips the `var:` prefixes to the core syntax and
        // records each atom's label: outside predicates every identifier
        // is an atom's activity, and atoms in source order are the
        // pattern's postfix leaf order.
        let mut core = String::with_capacity(src.len());
        let mut labels: Vec<Option<String>> = Vec::new();
        let mut label: Option<String> = None;
        let mut seen = BTreeSet::new();
        let mut chars = src.char_indices().peekable();
        let (mut in_brackets, mut in_string, mut after_not) = (false, false, false);
        while let Some((i, c)) = chars.next() {
            // Inside predicates (and their string literals) nothing is a
            // label — copy verbatim.
            if in_string {
                core.push(c);
                if c == '\\' {
                    if let Some((_, esc)) = chars.next() {
                        core.push(esc);
                    }
                } else if c == '"' {
                    in_string = false;
                }
                continue;
            }
            if in_brackets {
                core.push(c);
                match c {
                    ']' => in_brackets = false,
                    '"' => in_string = true,
                    _ => {}
                }
                continue;
            }
            if !is_ident_start(c) {
                in_brackets = c == '[';
                if !c.is_whitespace() {
                    after_not = matches!(c, '!' | '¬');
                }
                core.push(c);
                continue;
            }
            let mut ident = String::from(c);
            while let Some((_, d)) = chars.next_if(|&(_, d)| d.is_alphanumeric() || d == '_') {
                ident.push(d);
            }
            if chars.next_if(|&(_, d)| d == ':').is_none() {
                core.push_str(&ident);
                labels.push(label.take());
                after_not = false;
                continue;
            }
            let problem = match chars.peek() {
                _ if after_not => Some("on a negated atom"),
                _ if label.is_some() => Some("after another label"),
                Some(&(_, '!' | '¬')) => Some("on a negated atom"),
                Some(&(_, d)) if is_ident_start(d) => None,
                _ => Some("not directly followed by its activity"),
            };
            if let Some(problem) = problem {
                return Err(ParsePatternError {
                    position: i,
                    kind: ParseErrorKind::UnexpectedToken(format!("label {ident:?} {problem}")),
                });
            }
            if !seen.insert(ident.clone()) {
                return Err(ParsePatternError {
                    position: i,
                    kind: ParseErrorKind::BadPredicate(format!("duplicate variable {ident:?}")),
                });
            }
            label = Some(ident);
        }
        let pattern: Pattern = core.parse()?;
        Ok(LabelledPattern { pattern, labels })
    }

    /// The underlying (label-free) pattern.
    #[must_use]
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The label of the `i`-th atom (postfix order), if any.
    #[must_use]
    pub fn label(&self, atom_index: usize) -> Option<&str> {
        self.labels.get(atom_index).and_then(Option::as_deref)
    }

    /// Evaluates, returning incidents with their variable assignments.
    #[must_use]
    pub fn evaluate(&self, log: &Log) -> Vec<BoundIncident> {
        let index = log.index();
        let mut out = Vec::new();
        for wid in index.wids() {
            let mut atom_counter = 0usize;
            out.extend(eval_bound(
                &self.pattern,
                &self.labels,
                &mut atom_counter,
                log,
                index,
                wid,
            ));
        }
        out
    }
}

/// Whether `c` starts an identifier (an activity or a label).
fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// Recursive evaluation threading bindings alongside incidents.
fn eval_bound(
    pattern: &Pattern,
    labels: &[Option<String>],
    atom_counter: &mut usize,
    log: &Log,
    index: &LogIndex,
    wid: Wid,
) -> Vec<BoundIncident> {
    match pattern {
        Pattern::Atom(atom) => {
            let label = labels.get(*atom_counter).and_then(Option::as_ref);
            *atom_counter += 1;
            atom_incidents(atom, label, log, index, wid)
        }
        Pattern::Binary { op, left, right } => {
            let l = eval_bound(left, labels, atom_counter, log, index, wid);
            let r = eval_bound(right, labels, atom_counter, log, index, wid);
            combine_bound(*op, &l, &r)
        }
    }
}

fn atom_incidents(
    atom: &Atom,
    label: Option<&String>,
    log: &Log,
    index: &LogIndex,
    wid: Wid,
) -> Vec<BoundIncident> {
    leaf_incidents(atom, log, index, wid)
        .into_iter()
        .map(|incident| {
            let mut bindings = BTreeMap::new();
            if let Some(var) = label {
                bindings.insert(var.clone(), incident.first());
            }
            BoundIncident { incident, bindings }
        })
        .collect()
}

fn combine_bound(op: Op, left: &[BoundIncident], right: &[BoundIncident]) -> Vec<BoundIncident> {
    let mut out = Vec::new();
    match op {
        Op::Choice => {
            out.extend_from_slice(left);
            for r in right {
                if !out.contains(r) {
                    out.push(r.clone());
                }
            }
        }
        _ => {
            for l in left {
                for r in right {
                    let ok = match op {
                        Op::Consecutive => {
                            l.incident.last().checked_next() == Some(r.incident.first())
                        }
                        Op::Sequential => l.incident.last() < r.incident.first(),
                        // Choice is handled by the arm above; treating it
                        // as a filter here would be wrong, so reject.
                        Op::Parallel | Op::Choice => l.incident.is_disjoint(&r.incident),
                    };
                    if ok {
                        let mut bindings = l.bindings.clone();
                        bindings.extend(r.bindings.clone());
                        out.push(BoundIncident {
                            incident: l.incident.union(&r.incident),
                            bindings,
                        });
                    }
                }
            }
        }
    }
    out.sort_by(|a, b| {
        a.incident
            .cmp(&b.incident)
            .then_with(|| a.bindings.cmp(&b.bindings))
    });
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;
    use wlq_log::paper;

    #[test]
    fn labels_parse_and_strip_to_the_core_pattern() {
        let lp = LabelledPattern::parse("upd:UpdateRefer -> reim:GetReimburse").unwrap();
        assert_eq!(lp.pattern().to_string(), "UpdateRefer -> GetReimburse");
        assert_eq!(lp.label(0), Some("upd"));
        assert_eq!(lp.label(1), Some("reim"));
    }

    #[test]
    fn unlabelled_atoms_are_allowed() {
        let lp = LabelledPattern::parse("SeeDoctor -> (u:UpdateRefer -> GetReimburse)").unwrap();
        assert_eq!(lp.label(0), None);
        assert_eq!(lp.label(1), Some("u"));
        assert_eq!(lp.label(2), None);
    }

    #[test]
    fn duplicate_variables_are_rejected() {
        assert!(LabelledPattern::parse("x:A -> x:B").is_err());
    }

    fn label_error(src: &str) -> ParsePatternError {
        match LabelledPattern::parse(src) {
            Ok(lp) => panic!("{src} parsed to {lp:?}"),
            Err(e) => e,
        }
    }

    #[test]
    fn a_label_before_a_negation_is_rejected_at_the_label() {
        let e = label_error("x:!A -> B");
        assert_eq!(e.position, 0);
        assert!(e.to_string().contains("negated atom"), "{e}");
        let e = label_error("x:A & y:¬B");
        assert_eq!(e.position, 6);
        assert!(e.to_string().contains("negated atom"), "{e}");
    }

    #[test]
    fn a_label_after_a_negation_is_rejected_at_the_label() {
        let e = label_error("!x:A -> B");
        assert_eq!(e.position, 1);
        assert!(e.to_string().contains("negated atom"), "{e}");
        let e = label_error("A -> ¬ y:B");
        assert_eq!(e.position, "A -> ¬ ".len());
    }

    #[test]
    fn a_label_must_directly_precede_its_activity() {
        assert_eq!(label_error("A -> x: B").position, 5);
        assert_eq!(label_error("x:(A -> B)").position, 0);
        assert_eq!(label_error("x:y:A").position, 2);
    }

    #[test]
    fn predicates_and_string_literals_are_not_labels() {
        // `state` / string contents must not be mistaken for labels.
        let lp = LabelledPattern::parse(r#"g:GetRefer[state = "a:b", out.balance > 5] -> CheckIn"#)
            .unwrap();
        assert_eq!(lp.label(0), Some("g"));
        assert_eq!(lp.label(1), None);
        let atom = match lp.pattern() {
            Pattern::Binary { left, .. } => left.as_atom().unwrap(),
            Pattern::Atom(a) => a,
        };
        assert_eq!(atom.predicates.len(), 2);
        assert_eq!(atom.predicates[0].value, wlq_log::Value::from("a:b"));
    }

    #[test]
    fn bindings_name_the_matched_records() {
        let log = paper::figure3_log();
        let lp = LabelledPattern::parse("upd:UpdateRefer -> reim:GetReimburse").unwrap();
        let bound = lp.evaluate(&log);
        assert_eq!(bound.len(), 1);
        let b = &bound[0];
        assert_eq!(b.lsn_of("upd", &log).unwrap().get(), 14);
        assert_eq!(b.lsn_of("reim", &log).unwrap().get(), 20);
        assert_eq!(b.lsn_of("nope", &log), None);
    }

    #[test]
    fn bound_evaluation_matches_plain_evaluation() {
        let log = paper::figure3_log();
        for src in [
            "a:GetRefer ~> b:CheckIn",
            "x:SeeDoctor & y:PayTreatment",
            "u:UpdateRefer | c:CompleteRefer",
            "s:SeeDoctor -> (u:UpdateRefer -> r:GetReimburse)",
        ] {
            let lp = LabelledPattern::parse(src).unwrap();
            let bound = lp.evaluate(&log);
            let plain = Query::new(lp.pattern().clone()).find(&log).unwrap();
            let bound_incidents: Vec<&Incident> = bound.iter().map(|b| &b.incident).collect();
            assert_eq!(bound_incidents.len(), plain.len(), "{src}");
            for incident in &bound_incidents {
                assert!(plain.contains(incident), "{src}");
            }
        }
    }

    #[test]
    fn choice_keeps_only_the_taken_branch_bindings() {
        let log = paper::figure3_log();
        let lp = LabelledPattern::parse("u:UpdateRefer | c:CompleteRefer").unwrap();
        let bound = lp.evaluate(&log);
        assert_eq!(bound.len(), 2);
        for b in &bound {
            // Exactly one variable bound per incident.
            assert_eq!(b.bindings.len(), 1);
        }
    }

    #[test]
    fn parallel_binds_both_sides() {
        let log = paper::figure3_log();
        let lp = LabelledPattern::parse("a:SeeDoctor & b:SeeDoctor").unwrap();
        let bound = lp.evaluate(&log);
        // Two instances with two SeeDoctor records each; as *bound*
        // matches, (a,b) and (b,a) assignments are distinct (the paper's
        // assignments are 1-1 maps), so 2 per instance.
        assert_eq!(bound.len(), 4);
        for b in &bound {
            assert_eq!(b.bindings.len(), 2);
            assert_ne!(b.bindings["a"], b.bindings["b"]);
        }
    }
}
