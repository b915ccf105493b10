//! Names for activities and attributes.
//!
//! The paper assumes pairwise-disjoint countably infinite sets `T` of
//! activity names and `A` of attribute names. Both are represented as
//! reference-counted strings with newtypes keeping the two namespaces apart
//! at the type level ([C-NEWTYPE]). Clones share one allocation.
//!
//! The log decoders intern while they decode: one `Interner` per decode
//! hands out a single `Arc<str>` per distinct activity name, attribute
//! name and unquoted string value, so every record of a decoded log that
//! names `SeeDoctor` points at the same bytes. The table is dropped when
//! decoding ends; the log keeps only the shared strings. Names built by
//! hand ([`Activity::new`], `From<&str>`) are not interned. Separately,
//! the [`LogIndex`](crate::LogIndex) symbol table maps each distinct
//! activity name to a dense [`ActivityId`](crate::ActivityId).

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

macro_rules! name_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates a name from anything string-like.
            pub fn new(s: impl AsRef<str>) -> Self {
                Self(Arc::from(s.as_ref()))
            }

            /// Returns the name as a string slice.
            #[must_use]
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                Self::new(s)
            }
        }

        /// Takes the shared string as is, without copying it.
        impl From<Arc<str>> for $name {
            fn from(s: Arc<str>) -> Self {
                Self(s)
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        impl Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }

        impl PartialEq<str> for $name {
            fn eq(&self, other: &str) -> bool {
                self.as_str() == other
            }
        }

        impl PartialEq<&str> for $name {
            fn eq(&self, other: &&str) -> bool {
                self.as_str() == *other
            }
        }
    };
}

name_type! {
    /// An activity name, an element of the paper's set `T`.
    ///
    /// ```
    /// use wlq_log::Activity;
    /// let a = Activity::new("CheckIn");
    /// assert_eq!(a, "CheckIn");
    /// ```
    Activity
}

name_type! {
    /// An attribute name, an element of the paper's set `A`.
    ///
    /// ```
    /// use wlq_log::AttrName;
    /// let a = AttrName::new("balance");
    /// assert_eq!(a.as_str(), "balance");
    /// ```
    AttrName
}

impl Activity {
    /// The reserved activity name of the first record of every instance.
    #[must_use]
    pub fn start() -> Self {
        Activity::new(START_ACTIVITY)
    }

    /// The reserved activity name of the final record of a completed
    /// instance.
    #[must_use]
    pub fn end() -> Self {
        Activity::new(END_ACTIVITY)
    }

    /// Returns `true` if this is the reserved `START` activity.
    #[must_use]
    pub fn is_start(&self) -> bool {
        self.as_str() == START_ACTIVITY
    }

    /// Returns `true` if this is the reserved `END` activity.
    #[must_use]
    pub fn is_end(&self) -> bool {
        self.as_str() == END_ACTIVITY
    }
}

/// The reserved name of the record that opens every workflow instance.
pub const START_ACTIVITY: &str = "START";

/// The reserved name of the record that closes a completed instance.
pub const END_ACTIVITY: &str = "END";

/// A per-decode string table: [`intern`](Self::intern) returns the one
/// shared `Arc<str>` for each distinct string it has seen.
#[derive(Default)]
pub(crate) struct Interner {
    strings: HashSet<Arc<str>>,
}

impl Interner {
    /// The shared copy of `s`, allocated on first sight.
    pub(crate) fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(shared) = self.strings.get(s) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(s);
        self.strings.insert(Arc::clone(&shared));
        shared
    }

    /// [`intern`](Self::intern) as an activity name.
    pub(crate) fn activity(&mut self, s: &str) -> Activity {
        Activity(self.intern(s))
    }

    /// [`intern`](Self::intern) as an attribute name.
    pub(crate) fn attr_name(&mut self, s: &str) -> AttrName {
        AttrName(self.intern(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_compare_by_content() {
        assert_eq!(Activity::new("A"), Activity::from("A"));
        assert_ne!(Activity::new("A"), Activity::new("B"));
        assert_eq!(
            AttrName::new("balance"),
            AttrName::from("balance".to_string())
        );
    }

    #[test]
    fn names_are_usable_as_str_keyed_map_keys() {
        let mut set = HashSet::new();
        set.insert(Activity::new("SeeDoctor"));
        assert!(set.contains("SeeDoctor"));
        assert!(!set.contains("CheckIn"));
    }

    #[test]
    fn start_end_constructors_and_predicates() {
        assert!(Activity::start().is_start());
        assert!(Activity::end().is_end());
        assert!(!Activity::new("CheckIn").is_start());
        assert!(!Activity::start().is_end());
        assert_eq!(Activity::start().as_str(), START_ACTIVITY);
        assert_eq!(Activity::end().as_str(), END_ACTIVITY);
    }

    #[test]
    fn display_prints_raw_name() {
        assert_eq!(Activity::new("GetRefer").to_string(), "GetRefer");
        assert_eq!(AttrName::new("referId").to_string(), "referId");
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_traits_are_implemented() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<Activity>();
        assert_serde::<AttrName>();
    }

    #[test]
    fn interner_shares_one_allocation_per_string() {
        let mut table = Interner::default();
        let a = table.activity("SeeDoctor");
        let b = table.activity("SeeDoctor");
        let c = table.attr_name("SeeDoctor");
        assert_eq!(a, b);
        assert_eq!(a.as_str().as_ptr(), b.as_str().as_ptr());
        assert_eq!(a.as_str().as_ptr(), c.as_str().as_ptr());
        assert_ne!(
            table.activity("CheckIn").as_str().as_ptr(),
            a.as_str().as_ptr()
        );
    }

    #[test]
    fn from_arc_keeps_the_allocation() {
        let shared: Arc<str> = Arc::from("balance");
        let name = AttrName::from(Arc::clone(&shared));
        assert_eq!(name.as_str().as_ptr(), shared.as_ptr());
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = vec![Activity::new("b"), Activity::new("a"), Activity::new("c")];
        v.sort();
        assert_eq!(
            v,
            vec![Activity::new("a"), Activity::new("b"), Activity::new("c")]
        );
    }
}
