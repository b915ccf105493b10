//! A miniature ETL/data-warehouse baseline — the traditional pipeline of
//! the paper's Figure 1, built to quantify its Figure 2 argument.
//!
//! The warehouse performs classic ETL: **extract** a fact table
//! `(wid, is-lsn, activity)` plus the attribute columns chosen *at ETL
//! time*, **transform** activity names through a dictionary encoding, and
//! **load** into sorted columnar vectors. Queries then run as sort-merge
//! joins over the facts — fast, but only over what was extracted: a
//! query touching an attribute that was not in the ETL column list
//! requires re-running ETL (the paper's "if timestamps are not
//! extracted, analysis of activity duration is not possible").

use std::collections::{BTreeMap, HashMap};

use wlq_log::{Log, Value, Wid};

/// The warehouse: dictionary-encoded facts plus extracted attribute
/// columns.
#[derive(Debug, Clone)]
pub struct Warehouse {
    /// `(wid, is-lsn, activity-id)`, sorted by `(activity-id, wid, is-lsn)`
    /// — i.e. clustered for activity lookups, like a warehouse index.
    facts: Vec<(u64, u32, u32)>,
    dictionary: HashMap<String, u32>,
    /// Extracted attribute columns: name → `(wid, is-lsn) → value`
    /// (values from αout, the "current value after the activity").
    columns: HashMap<String, BTreeMap<(u64, u32), Value>>,
}

impl Warehouse {
    /// Runs ETL over `log`, extracting only the listed attributes.
    #[must_use]
    pub fn etl(log: &Log, extracted_attrs: &[&str]) -> Warehouse {
        let mut dictionary: HashMap<String, u32> = HashMap::new();
        let mut facts: Vec<(u64, u32, u32)> = Vec::with_capacity(log.len());
        let mut columns: HashMap<String, BTreeMap<(u64, u32), Value>> = extracted_attrs
            .iter()
            .map(|a| ((*a).to_string(), BTreeMap::new()))
            .collect();
        for record in log.iter() {
            let next_id = dictionary.len() as u32;
            let id = *dictionary
                .entry(record.activity().as_str().to_string())
                .or_insert(next_id);
            facts.push((record.wid().get(), record.is_lsn().get(), id));
            for attr in extracted_attrs {
                if let Some(v) = record.output().get(attr) {
                    columns
                        .get_mut(*attr)
                        .expect("column pre-created")
                        .insert((record.wid().get(), record.is_lsn().get()), v.clone());
                }
            }
        }
        facts.sort_unstable_by_key(|&(wid, islsn, act)| (act, wid, islsn));
        Warehouse {
            facts,
            dictionary,
            columns,
        }
    }

    /// Whether `attr` was extracted at ETL time.
    #[must_use]
    pub fn has_column(&self, attr: &str) -> bool {
        self.columns.contains_key(attr)
    }

    fn rows_of(&self, activity: &str) -> &[(u64, u32, u32)] {
        let Some(&id) = self.dictionary.get(activity) else {
            return &[];
        };
        let start = self.facts.partition_point(|&(_, _, a)| a < id);
        let end = self.facts.partition_point(|&(_, _, a)| a <= id);
        &self.facts[start..end]
    }

    /// OLAP-style query: the number of `(a-row, b-row)` pairs within one
    /// instance with the `a` row strictly earlier — the warehouse
    /// rendition of `incL(a → b)` for atomic operands. Sort-merge over
    /// the two activity clusters.
    #[must_use]
    pub fn count_sequential_pairs(&self, a: &str, b: &str) -> usize {
        let rows_a = self.rows_of(a);
        let rows_b = self.rows_of(b);
        // Both slices are sorted by (wid, is-lsn); merge per wid.
        let mut count = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < rows_a.len() && j < rows_b.len() {
            let wid_a = rows_a[i].0;
            let wid_b = rows_b[j].0;
            match wid_a.cmp(&wid_b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let wid = wid_a;
                    let end_a = rows_a[i..].partition_point(|r| r.0 == wid) + i;
                    let end_b = rows_b[j..].partition_point(|r| r.0 == wid) + j;
                    // For each a-position, count b-positions after it.
                    for &(_, pa, _) in &rows_a[i..end_a] {
                        let first_after = rows_b[j..end_b].partition_point(|r| r.1 <= pa) + j;
                        count += end_b - first_after;
                    }
                    i = end_a;
                    j = end_b;
                }
            }
        }
        count
    }

    /// Warehouse query over an extracted attribute: instances where
    /// `attr`'s extracted value ever exceeded `threshold`.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnMissing`] — "re-run ETL" — when `attr` was not
    /// extracted (the inflexibility the paper calls out).
    pub fn instances_with_attr_over(
        &self,
        attr: &str,
        threshold: i64,
    ) -> Result<Vec<Wid>, ColumnMissing> {
        let column = self
            .columns
            .get(attr)
            .ok_or_else(|| ColumnMissing(attr.to_string()))?;
        let mut out: Vec<Wid> = column
            .iter()
            .filter(|(_, v)| v.as_int().is_some_and(|i| i > threshold))
            .map(|(&(wid, _), _)| Wid(wid))
            .collect();
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }
}

/// The warehouse cannot answer: the attribute was not extracted at ETL
/// time. The only remedy is re-running ETL with the column added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMissing(pub String);

impl std::fmt::Display for ColumnMissing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "attribute {:?} was not extracted; re-run ETL", self.0)
    }
}

impl std::error::Error for ColumnMissing {}

#[cfg(test)]
mod tests {
    use super::*;
    use wlq_engine::Query;
    use wlq_log::paper;

    #[test]
    fn warehouse_pair_counts_match_the_query_engine() {
        let log = paper::figure3_log();
        let warehouse = Warehouse::etl(&log, &[]);
        for (a, b) in [
            ("UpdateRefer", "GetReimburse"),
            ("SeeDoctor", "PayTreatment"),
            ("GetRefer", "CheckIn"),
            ("Missing", "CheckIn"),
        ] {
            let query = Query::parse(&format!("{a} -> {b}")).unwrap();
            assert_eq!(
                warehouse.count_sequential_pairs(a, b),
                query.count(&log).unwrap(),
                "{a} -> {b}"
            );
        }
    }

    #[test]
    fn unextracted_attributes_force_re_etl() {
        let log = paper::figure3_log();
        let narrow = Warehouse::etl(&log, &["balance"]);
        assert!(narrow.has_column("balance"));
        assert!(!narrow.has_column("receipt1"));
        assert!(narrow.instances_with_attr_over("balance", 1500).is_ok());
        assert!(narrow.instances_with_attr_over("receipt1", 0).is_err());
        // After "re-running ETL" with the extra column it works.
        let wide = Warehouse::etl(&log, &["balance", "receipt1"]);
        let hits = wide.instances_with_attr_over("receipt1", 500).unwrap();
        assert_eq!(hits, vec![Wid(1), Wid(2)]);
    }

    #[test]
    fn extracted_attribute_queries_match_predicates() {
        let log = paper::figure3_log();
        let warehouse = Warehouse::etl(&log, &["balance"]);
        // Warehouse: instances whose balance ever exceeded 1500 (αout).
        let wh = warehouse.instances_with_attr_over("balance", 1500).unwrap();
        // WLQ equivalent: any record writing balance > 1500.
        let q =
            Query::parse("GetRefer[out.balance > 1500] | UpdateRefer[out.balance > 1500]").unwrap();
        let direct: Vec<Wid> = q.find(&log).unwrap().wids().collect();
        assert_eq!(wh, direct);
    }
}
