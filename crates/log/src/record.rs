//! Log records (Definition 1) and the identifier newtypes they use.

use std::fmt;

use crate::attrs::AttrMap;
use crate::names::Activity;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($inner:ty)) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        #[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw numeric value.
            #[must_use]
            pub fn get(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }

        impl From<$name> for $inner {
            fn from(v: $name) -> Self {
                v.0
            }
        }
    };
}

id_type! {
    /// A log sequence number: the global, totally-ordered position of a
    /// record in the log (`lsn ∈ N+`, Definition 1). Valid logs number their
    /// records `1..=|L|` (Definition 2, condition 1).
    Lsn(u64)
}

id_type! {
    /// A workflow instance id (`wid ∈ N+`, Definition 1). All records of one
    /// enactment share a `Wid`.
    Wid(u64)
}

id_type! {
    /// An instance-specific log sequence number (`is-lsn ∈ N+`,
    /// Definition 1): the position of a record *within its instance*. Valid
    /// logs number each instance's records consecutively from 1
    /// (Definition 2, conditions 2–3). Incident semantics (`first`, `last`,
    /// consecutive/sequential ordering) are defined over `IsLsn`.
    IsLsn(u32)
}

impl IsLsn {
    /// The `is-lsn` of every `START` record.
    pub const FIRST: IsLsn = IsLsn(1);

    /// The successor position, or `None` past `u32::MAX`: the consecutive
    /// operator's `last(o1) + 1 = first(o2)` check reads it, and an
    /// incident ending at `u32::MAX` has no consecutive partner.
    #[must_use]
    pub fn checked_next(self) -> Option<IsLsn> {
        self.0.checked_add(1).map(IsLsn)
    }
}

/// A workflow log record (Definition 1): the effect of executing one
/// activity in one workflow instance.
///
/// `l = (lsn, wid, is-lsn, t, αin, αout)` — see the accessors
/// [`lsn`](Self::lsn), [`wid`](Self::wid), [`is_lsn`](Self::is_lsn),
/// [`activity`](Self::activity) (`act(l)` in the paper),
/// [`input`](Self::input) (`αin(l)`), and [`output`](Self::output)
/// (`αout(l)`).
///
/// A record is 72 bytes. A [`Log`](crate::Log) built by
/// [`Log::new`](crate::Log::new) keeps the records it is given; a decoded
/// log keeps the same six components as columns of its index and its
/// attribute blocks, and builds its records only when a caller asks for
/// them ([`Log::records`](crate::Log::records)). Queries never do.
///
/// # Examples
///
/// The record `l4` from the paper's Example 1:
///
/// ```
/// use wlq_log::{attrs, LogRecord};
///
/// let l = LogRecord::new(
///     4, 1, 3, "CheckIn",
///     attrs! { "referId" => "034d1", "referState" => "start", "balance" => 1000i64 },
///     attrs! { "referState" => "active" },
/// );
/// assert_eq!(l.lsn().get(), 4);
/// assert_eq!(l.wid().get(), 1);
/// assert_eq!(l.is_lsn().get(), 3);
/// assert_eq!(l.activity(), "CheckIn");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LogRecord {
    lsn: Lsn,
    wid: Wid,
    is_lsn: IsLsn,
    activity: Activity,
    input: AttrMap,
    output: AttrMap,
}

impl LogRecord {
    /// Creates a record from its six components.
    pub fn new(
        lsn: impl Into<Lsn>,
        wid: impl Into<Wid>,
        is_lsn: impl Into<IsLsn>,
        activity: impl Into<Activity>,
        input: AttrMap,
        output: AttrMap,
    ) -> Self {
        LogRecord {
            lsn: lsn.into(),
            wid: wid.into(),
            is_lsn: is_lsn.into(),
            activity: activity.into(),
            input,
            output,
        }
    }

    /// Creates the `START` record opening instance `wid` (is-lsn 1, empty
    /// maps).
    pub fn start(lsn: impl Into<Lsn>, wid: impl Into<Wid>) -> Self {
        LogRecord::new(
            lsn,
            wid,
            IsLsn::FIRST,
            Activity::start(),
            AttrMap::new(),
            AttrMap::new(),
        )
    }

    /// Creates the `END` record closing instance `wid` (empty maps).
    pub fn end(lsn: impl Into<Lsn>, wid: impl Into<Wid>, is_lsn: impl Into<IsLsn>) -> Self {
        LogRecord::new(
            lsn,
            wid,
            is_lsn,
            Activity::end(),
            AttrMap::new(),
            AttrMap::new(),
        )
    }

    /// The global log sequence number, `lsn(l)`.
    #[must_use]
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// The workflow instance id, `wid(l)`.
    #[must_use]
    pub fn wid(&self) -> Wid {
        self.wid
    }

    /// The instance-specific log sequence number, `is-lsn(l)`.
    #[must_use]
    pub fn is_lsn(&self) -> IsLsn {
        self.is_lsn
    }

    /// The activity name, `act(l)`.
    #[must_use]
    pub fn activity(&self) -> &Activity {
        &self.activity
    }

    /// The input map `αin(l)`: attributes (and values) read by the activity.
    #[must_use]
    pub fn input(&self) -> &AttrMap {
        &self.input
    }

    /// The output map `αout(l)`: attributes (and values) written.
    #[must_use]
    pub fn output(&self) -> &AttrMap {
        &self.output
    }

    /// Returns `true` if this is a `START` record.
    #[must_use]
    pub fn is_start(&self) -> bool {
        self.activity.is_start()
    }

    /// Returns `true` if this is an `END` record.
    #[must_use]
    pub fn is_end(&self) -> bool {
        self.activity.is_end()
    }

    /// The input and output maps, for a decoder attaching its attribute
    /// dictionary.
    pub(crate) fn maps_mut(&mut self) -> [&mut AttrMap; 2] {
        [&mut self.input, &mut self.output]
    }

    /// Re-stamps the global `lsn` (used by log mergers and builders).
    pub(crate) fn set_lsn(&mut self, lsn: Lsn) {
        self.lsn = lsn;
    }
}

impl fmt::Display for LogRecord {
    /// One line of the paper's Figure 3 table:
    /// `lsn | wid | is-lsn | activity | αin | αout`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | {} | {} | {} | {} | {}",
            self.lsn, self.wid, self.is_lsn, self.activity, self.input, self.output
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;

    #[test]
    fn accessors_extract_all_components() {
        let l = LogRecord::new(
            4u64,
            1u64,
            3u32,
            "CheckIn",
            attrs! { "referId" => "034d1" },
            attrs! { "referState" => "active" },
        );
        assert_eq!(l.lsn(), Lsn(4));
        assert_eq!(l.wid(), Wid(1));
        assert_eq!(l.is_lsn(), IsLsn(3));
        assert_eq!(l.activity().as_str(), "CheckIn");
        assert_eq!(l.input().len(), 1);
        assert_eq!(l.output().len(), 1);
    }

    #[test]
    fn start_records_have_is_lsn_one_and_empty_maps() {
        let s = LogRecord::start(1u64, 7u64);
        assert!(s.is_start());
        assert!(!s.is_end());
        assert_eq!(s.is_lsn(), IsLsn::FIRST);
        assert!(s.input().is_empty());
        assert!(s.output().is_empty());
    }

    #[test]
    fn end_records_are_detected() {
        let e = LogRecord::end(9u64, 7u64, 5u32);
        assert!(e.is_end());
        assert!(!e.is_start());
        assert!(e.input().is_empty());
    }

    #[test]
    fn checked_next_increments() {
        assert_eq!(IsLsn(1).checked_next(), Some(IsLsn(2)));
        assert_eq!(
            IsLsn::FIRST.checked_next().and_then(IsLsn::checked_next),
            Some(IsLsn(3))
        );
    }

    #[test]
    fn checked_next_stops_at_the_last_position() {
        assert_eq!(IsLsn(1).checked_next(), Some(IsLsn(2)));
        assert_eq!(IsLsn(u32::MAX - 1).checked_next(), Some(IsLsn(u32::MAX)));
        assert_eq!(IsLsn(u32::MAX).checked_next(), None);
    }

    #[test]
    fn display_matches_figure3_layout() {
        let l = LogRecord::new(
            4u64,
            1u64,
            3u32,
            "CheckIn",
            attrs! { "balance" => 1000i64 },
            AttrMap::new(),
        );
        assert_eq!(l.to_string(), "4 | 1 | 3 | CheckIn | balance=1000 | -");
    }

    #[test]
    fn id_types_convert_and_display() {
        let lsn: Lsn = 42u64.into();
        assert_eq!(u64::from(lsn), 42);
        assert_eq!(lsn.to_string(), "42");
        assert_eq!(Wid(3).get(), 3);
        assert_eq!(IsLsn(2).get(), 2);
    }
}
