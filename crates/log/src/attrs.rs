//! Attribute maps: the `αin` / `αout` components of a log record.
//!
//! A *map* in the paper is a partial function `A → D` with finite domain.
//! [`AttrMap`] realises this as a vector of `(name, value)` entries sorted
//! by [`AttrName`] with no name repeated, so display and serialization are
//! deterministic. Maps hold a handful of entries, so a sorted vector (one
//! allocation, binary-search lookups) beats a tree map on both memory and
//! time.

use std::fmt;

use crate::names::AttrName;
use crate::value::Value;

/// A finite partial map from attribute names to values.
///
/// Used for both the input map `αin` (attributes *read* by an activity) and
/// the output map `αout` (attributes *written*).
///
/// # Examples
///
/// ```
/// use wlq_log::{AttrMap, Value};
///
/// let mut m = AttrMap::new();
/// m.set("balance", 1000i64);
/// m.set("referState", "active");
/// assert_eq!(m.get("balance"), Some(&Value::Int(1000)));
/// assert_eq!(m.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(
    feature = "serde",
    derive(serde::Serialize, serde::Deserialize),
    serde(
        into = "std::collections::BTreeMap<AttrName, Value>",
        from = "std::collections::BTreeMap<AttrName, Value>"
    )
)]
pub struct AttrMap {
    /// Sorted by name, names unique.
    entries: Vec<(AttrName, Value)>,
}

impl AttrMap {
    /// Creates an empty map (the `-` entries of the paper's Figure 3).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map with room for `n` entries (for decoders that know the
    /// entry count up front).
    pub(crate) fn with_capacity(n: usize) -> Self {
        AttrMap {
            entries: Vec::with_capacity(n),
        }
    }

    /// Returns the number of attributes in the map.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the map defines no attribute.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn find(&self, name: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.as_str().cmp(name))
    }

    /// Sets `name` to `value`, returning the previous value if any.
    pub fn set(&mut self, name: impl Into<AttrName>, value: impl Into<Value>) -> Option<Value> {
        let name = name.into();
        let value = value.into();
        match self.find(name.as_str()) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (name, value));
                None
            }
        }
    }

    /// Appends an entry whose name sorts after every name in the map —
    /// the order decoders meet them in files this crate writes. A name
    /// out of order or already present falls back to [`set`](Self::set),
    /// so the result is the same as `set` either way (last write wins).
    pub(crate) fn push_sorted(&mut self, name: AttrName, value: Value) {
        match self.entries.last() {
            Some((last, _)) if last.as_str() >= name.as_str() => {
                self.set(name, value);
            }
            _ => self.entries.push((name, value)),
        }
    }

    /// Builder-style [`set`](Self::set); handy for literal maps.
    ///
    /// ```
    /// use wlq_log::AttrMap;
    /// let m = AttrMap::new().with("a", 1i64).with("b", "x");
    /// assert_eq!(m.len(), 2);
    /// ```
    #[must_use]
    pub fn with(mut self, name: impl Into<AttrName>, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Looks up the value of `name`, or `None` if the map does not define it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.find(name).ok().map(|i| &self.entries[i].1)
    }

    /// Looks up `name`, treating absence as the undefined value `⊥`.
    ///
    /// This matches the paper's convention that an attribute outside the
    /// map's domain is undefined.
    #[must_use]
    pub fn get_or_undefined(&self, name: &str) -> Value {
        self.get(name).cloned().unwrap_or(Value::Undefined)
    }

    /// Returns `true` if the map defines `name`.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// Removes `name` from the map, returning its value if present.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.find(name).ok().map(|i| self.entries.remove(i).1)
    }

    /// Iterates over `(name, value)` pairs in attribute-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttrName, &Value)> {
        self.into_iter()
    }

    /// Iterates over the attribute names (the map's domain) in order.
    pub fn names(&self) -> impl Iterator<Item = &AttrName> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Merges `other` into `self`; entries of `other` win on conflicts.
    ///
    /// Used by the workflow engine to apply an activity's output map to an
    /// instance's attribute store.
    pub fn apply(&mut self, other: &AttrMap) {
        for (k, v) in other.iter() {
            self.set(k.clone(), v.clone());
        }
    }
}

impl fmt::Display for AttrMap {
    /// Formats the map the way the paper's Figure 3 does:
    /// `a=1, b=x`, or `-` when empty.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return f.write_str("-");
        }
        let mut first = true;
        for (k, v) in self {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        Ok(())
    }
}

impl<N: Into<AttrName>, V: Into<Value>> FromIterator<(N, V)> for AttrMap {
    fn from_iter<I: IntoIterator<Item = (N, V)>>(iter: I) -> Self {
        let mut m = AttrMap::new();
        m.extend(iter);
        m
    }
}

impl<N: Into<AttrName>, V: Into<Value>> Extend<(N, V)> for AttrMap {
    fn extend<I: IntoIterator<Item = (N, V)>>(&mut self, iter: I) {
        for (n, v) in iter {
            self.set(n, v);
        }
    }
}

impl IntoIterator for AttrMap {
    type Item = (AttrName, Value);
    type IntoIter = std::vec::IntoIter<(AttrName, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a AttrMap {
    type Item = (&'a AttrName, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (AttrName, Value)>,
        fn(&'a (AttrName, Value)) -> (&'a AttrName, &'a Value),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

#[cfg(feature = "serde")]
impl From<AttrMap> for std::collections::BTreeMap<AttrName, Value> {
    fn from(map: AttrMap) -> Self {
        map.entries.into_iter().collect()
    }
}

#[cfg(feature = "serde")]
impl From<std::collections::BTreeMap<AttrName, Value>> for AttrMap {
    fn from(map: std::collections::BTreeMap<AttrName, Value>) -> Self {
        // A BTreeMap iterates in name order with unique names.
        AttrMap {
            entries: map.into_iter().collect(),
        }
    }
}

/// Convenience macro for attribute-map literals.
///
/// ```
/// use wlq_log::{attrs, Value};
/// let m = attrs! { "referId" => "034d1", "balance" => 1000i64 };
/// assert_eq!(m.get("balance"), Some(&Value::Int(1000)));
/// ```
#[macro_export]
macro_rules! attrs {
    () => { $crate::AttrMap::new() };
    ($($name:expr => $value:expr),+ $(,)?) => {{
        let mut m = $crate::AttrMap::new();
        $( m.set($name, $value); )+
        m
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_displays_as_dash() {
        assert_eq!(AttrMap::new().to_string(), "-");
        assert!(AttrMap::new().is_empty());
    }

    #[test]
    fn set_get_remove_round_trip() {
        let mut m = AttrMap::new();
        assert_eq!(m.set("a", 1i64), None);
        assert_eq!(m.set("a", 2i64), Some(Value::Int(1)));
        assert_eq!(m.get("a"), Some(&Value::Int(2)));
        assert_eq!(m.remove("a"), Some(Value::Int(2)));
        assert!(m.is_empty());
    }

    #[test]
    fn get_or_undefined_models_partial_function() {
        let m = attrs! { "x" => 1i64 };
        assert_eq!(m.get_or_undefined("x"), Value::Int(1));
        assert_eq!(m.get_or_undefined("missing"), Value::Undefined);
    }

    #[test]
    fn display_is_sorted_and_comma_separated() {
        let m = attrs! { "b" => 2i64, "a" => 1i64 };
        assert_eq!(m.to_string(), "a=1, b=2");
    }

    #[test]
    fn apply_overwrites_and_extends() {
        let mut store = attrs! { "balance" => 1000i64, "state" => "start" };
        let out = attrs! { "state" => "active", "receipt" => 560i64 };
        store.apply(&out);
        assert_eq!(store.get_or_undefined("state"), Value::from("active"));
        assert_eq!(store.get_or_undefined("balance"), Value::Int(1000));
        assert_eq!(store.get_or_undefined("receipt"), Value::Int(560));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut m: AttrMap = vec![("a", 1i64), ("b", 2i64)].into_iter().collect();
        m.extend(vec![("c", 3i64)]);
        assert_eq!(m.len(), 3);
        let names: Vec<_> = m.names().map(AttrName::to_string).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn push_sorted_appends_in_order_and_falls_back_to_set() {
        let mut m = AttrMap::with_capacity(3);
        m.push_sorted(AttrName::new("a"), Value::Int(1));
        m.push_sorted(AttrName::new("c"), Value::Int(3));
        // Out of order: lands in place.
        m.push_sorted(AttrName::new("b"), Value::Int(2));
        // Duplicate of the last and of an earlier name: last write wins.
        m.push_sorted(AttrName::new("c"), Value::Int(30));
        m.push_sorted(AttrName::new("a"), Value::Int(10));
        assert_eq!(m, attrs! { "a" => 10i64, "b" => 2i64, "c" => 30i64 });
        assert_eq!(m.to_string(), "a=10, b=2, c=30");
    }

    #[test]
    fn lookups_find_every_entry_and_nothing_else() {
        let m: AttrMap = ["d", "b", "f", "a", "e"]
            .iter()
            .zip(1i64..)
            .map(|(&n, v)| (n, v))
            .collect();
        for (n, v) in [("d", 1i64), ("b", 2), ("f", 3), ("a", 4), ("e", 5)] {
            assert_eq!(m.get(n), Some(&Value::Int(v)));
            assert!(m.contains(n));
        }
        for n in ["", "c", "g", "aa"] {
            assert_eq!(m.get(n), None);
            assert!(!m.contains(n));
        }
        let names: Vec<_> = m.names().map(AttrName::as_str).collect();
        assert_eq!(names, ["a", "b", "d", "e", "f"]);
    }

    #[test]
    fn order_and_hash_match_a_name_sorted_tree_map() {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::BTreeMap;
        use std::hash::{Hash, Hasher};
        fn hash_of<T: Hash>(t: &T) -> u64 {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }
        let maps = [
            attrs! {},
            attrs! { "a" => 1i64 },
            attrs! { "a" => 2i64 },
            attrs! { "a" => 1i64, "b" => "x" },
            attrs! { "b" => 1i64 },
        ];
        let trees: Vec<BTreeMap<AttrName, Value>> = maps
            .iter()
            .map(|m| m.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .collect();
        for (m1, t1) in maps.iter().zip(&trees) {
            assert_eq!(hash_of(m1), hash_of(t1));
            for (m2, t2) in maps.iter().zip(&trees) {
                assert_eq!(m1.cmp(m2), t1.cmp(t2));
            }
        }
    }

    #[test]
    fn maps_are_comparable_and_hashable() {
        use std::collections::HashSet;
        let a = attrs! { "x" => 1i64 };
        let b = attrs! { "x" => 1i64 };
        let c = attrs! { "x" => 2i64 };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }
}
