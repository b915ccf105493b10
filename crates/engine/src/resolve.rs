//! Resolving incidents back to log records and paper-style rendering.
//!
//! Incidents are stored as `(wid, is-lsn)` coordinates; these helpers tie
//! them back to a [`Log`] — fetching the actual [`LogRecord`]s and
//! printing incidents with the paper's global-`lsn` notation
//! (`{l13, l14, l20}`).

use std::fmt;

use wlq_log::{Log, LogRecord, Lsn};

use crate::incident::IncidentView;
use crate::incident_set::IncidentSet;

impl<'a> IncidentView<'a> {
    /// The records of this incident, in is-lsn order.
    ///
    /// # Panics
    ///
    /// Panics if the incident did not come from `log` (a coordinate does
    /// not resolve).
    #[must_use]
    pub fn records<'l>(&self, log: &'l Log) -> Vec<&'l LogRecord> {
        self.positions()
            .iter()
            .map(|&p| match log.record(self.wid(), p) {
                Some(record) => record,
                None => panic!("incident coordinate {p}@wid{} not in this log", self.wid()),
            })
            .collect()
    }

    /// The global log sequence numbers of this incident's records,
    /// ascending by is-lsn.
    ///
    /// # Panics
    ///
    /// Panics if the incident did not come from `log`.
    #[must_use]
    pub fn lsns(&self, log: &Log) -> Vec<Lsn> {
        self.records(log).iter().map(|r| r.lsn()).collect()
    }

    /// A display adapter rendering the incident in the paper's notation:
    /// `{l13, l14, l20}`.
    #[must_use]
    pub fn display_in(self, log: &'a Log) -> IncidentInLog<'a> {
        IncidentInLog {
            incident: self,
            log,
        }
    }
}

/// Paper-notation display adapter returned by [`IncidentView::display_in`].
///
/// ```
/// use wlq_engine::Query;
/// use wlq_log::paper;
///
/// let log = paper::figure3_log();
/// let set = Query::parse("UpdateRefer -> GetReimburse")
///     .unwrap()
///     .find(&log)
///     .unwrap();
/// let o = set.iter().next().unwrap();
/// assert_eq!(o.display_in(&log).to_string(), "{l14, l20}");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IncidentInLog<'a> {
    incident: IncidentView<'a>,
    log: &'a Log,
}

impl fmt::Display for IncidentInLog<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, lsn) in self.incident.lsns(self.log).iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "l{lsn}")?;
        }
        write!(f, "}}")
    }
}

impl IncidentSet {
    /// A display adapter rendering the whole set in the paper's notation:
    /// `{{l14, l20}, {l13, l14, l20}}`.
    #[must_use]
    pub fn display_in<'a>(&'a self, log: &'a Log) -> IncidentSetInLog<'a> {
        IncidentSetInLog { set: self, log }
    }
}

/// Paper-notation display adapter returned by [`IncidentSet::display_in`].
#[derive(Debug, Clone, Copy)]
pub struct IncidentSetInLog<'a> {
    set: &'a IncidentSet,
    log: &'a Log,
}

impl fmt::Display for IncidentSetInLog<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, incident) in self.set.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", incident.display_in(self.log))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use wlq_log::paper;
    use wlq_pattern::Pattern;

    fn figure3_set(src: &str) -> (Log, IncidentSet) {
        let log = paper::figure3_log();
        let p: Pattern = src.parse().unwrap();
        let set = Evaluator::new(&log).evaluate(&p);
        (log, set)
    }

    #[test]
    fn records_resolve_in_is_lsn_order() {
        let (log, set) = figure3_set("UpdateRefer -> GetReimburse");
        let o = set.iter().next().unwrap();
        let records = o.records(&log);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].activity().as_str(), "UpdateRefer");
        assert_eq!(records[1].activity().as_str(), "GetReimburse");
    }

    #[test]
    fn lsns_match_the_paper() {
        let (log, set) = figure3_set("SeeDoctor -> (UpdateRefer -> GetReimburse)");
        let o = set.iter().next().unwrap();
        assert_eq!(
            o.lsns(&log).iter().map(|l| l.get()).collect::<Vec<_>>(),
            vec![13, 14, 20]
        );
    }

    #[test]
    fn paper_notation_rendering() {
        let (log, set) = figure3_set("UpdateRefer -> GetReimburse");
        assert_eq!(set.display_in(&log).to_string(), "{{l14, l20}}");
        let o = set.iter().next().unwrap();
        assert_eq!(o.display_in(&log).to_string(), "{l14, l20}");
    }

    #[test]
    fn multiple_incidents_render_comma_separated() {
        let (log, set) = figure3_set("SeeDoctor ~> PayTreatment");
        let text = set.display_in(&log).to_string();
        assert_eq!(text, "{{l9, l10}, {l11, l12}, {l17, l18}}");
    }
}
