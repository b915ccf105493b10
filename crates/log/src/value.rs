//! Attribute values stored in workflow logs.
//!
//! The paper assumes a countably infinite domain `D` of values plus the
//! undefined value `⊥`. We model `D` as a small dynamically-typed universe
//! ([`Value`]) sufficient for the workloads in the paper (identifiers,
//! strings, amounts, states) and `⊥` as [`Value::Undefined`].

use std::fmt;
use std::sync::Arc;

/// A value of a workflow attribute.
///
/// `Value` is the Rust rendering of the paper's value domain `D ∪ {⊥}`.
/// Values are cheap to clone (strings are reference counted) and have total
/// equality, ordering, and hashing so they can be used as grouping keys.
///
/// # Examples
///
/// ```
/// use wlq_log::Value;
///
/// let balance = Value::Int(1000);
/// assert!(balance > Value::Int(500));
/// assert_eq!(Value::from("active"), Value::Str("active".into()));
/// ```
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Value {
    /// The undefined value `⊥`: the attribute has no value.
    Undefined,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer (amounts, counters, years).
    Int(i64),
    /// A 64-bit float. Compared with [`f64::total_cmp`], so `NaN` is
    /// permitted and ordered after all other floats.
    Float(f64),
    /// A shared string (states, identifiers, names).
    Str(Arc<str>),
}

impl Value {
    /// Returns `true` if this value is the undefined value `⊥`.
    ///
    /// ```
    /// use wlq_log::Value;
    /// assert!(Value::Undefined.is_undefined());
    /// assert!(!Value::Int(0).is_undefined());
    /// ```
    #[must_use]
    pub fn is_undefined(&self) -> bool {
        matches!(self, Value::Undefined)
    }

    /// Returns the integer payload if this value is an [`Value::Int`].
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float payload, widening integers, if numeric.
    #[must_use]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            #[allow(clippy::cast_precision_loss)]
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the string payload if this value is a [`Value::Str`].
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload if this value is a [`Value::Bool`].
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric comparison across `Int` and `Float`, `None` for other kinds.
    ///
    /// Used by the attribute-predicate query extension, where `balance >
    /// 5000` should hold whether `balance` was logged as an integer or a
    /// float.
    #[must_use]
    pub fn numeric_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            _ => {
                let a = self.as_float()?;
                let b = other.as_float()?;
                Some(a.total_cmp(&b))
            }
        }
    }

    /// A short lowercase name of the value's kind, for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Undefined => "undefined",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
        }
    }

    fn discriminant(&self) -> u8 {
        match self {
            Value::Undefined => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Undefined, Value::Undefined) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b).is_eq(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: kinds are ordered `Undefined < Bool < Int < Float < Str`,
    /// values within a kind by their natural order (floats by
    /// [`f64::total_cmp`]).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.discriminant().cmp(&other.discriminant()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.discriminant().hash(state);
        match self {
            Value::Undefined => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl Default for Value {
    /// The default value is `⊥` (undefined), matching the paper's convention
    /// that attributes are undefined until written.
    fn default() -> Self {
        Value::Undefined
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Undefined => write!(f, "⊥"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Self {
        Value::Str(s)
    }
}

/// Parses a value from its textual form, used by the text and CSV log
/// readers. The undefined marker is `⊥` or the empty string; `true`/`false`
/// parse as booleans; integer and float literals parse numerically;
/// everything else is a string.
impl std::str::FromStr for Value {
    type Err = std::convert::Infallible;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(parse_value(s))
    }
}

fn parse_value(s: &str) -> Value {
    parse_scalar(s).unwrap_or_else(|| Value::Str(Arc::from(s)))
}

/// [`Value`]'s `FromStr` for every kind but strings: `None` means `s`
/// parses as the string `s` itself, which the caller may intern.
pub(crate) fn parse_scalar(s: &str) -> Option<Value> {
    match s {
        "" | "⊥" | "_|_" => return Some(Value::Undefined),
        "true" => return Some(Value::Bool(true)),
        "false" => return Some(Value::Bool(false)),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Some(Value::Int(i));
    }
    if looks_numeric(s) {
        if let Ok(x) = s.parse::<f64>() {
            return Some(Value::Float(x));
        }
    }
    None
}

/// Guards float parsing so strings like `"inf"` or `"nan"` stay strings.
fn looks_numeric(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_digit() || c == '-' || c == '+' || c == '.' => {}
        _ => return false,
    }
    s.chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn undefined_is_default_and_detectable() {
        assert_eq!(Value::default(), Value::Undefined);
        assert!(Value::default().is_undefined());
    }

    #[test]
    fn accessors_return_expected_payloads() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::from("x").as_int(), None);
        assert_eq!(Value::Undefined.as_float(), None);
    }

    #[test]
    fn equality_is_structural_within_kind() {
        assert_eq!(Value::Int(3), Value::Int(3));
        assert_ne!(Value::Int(3), Value::Float(3.0));
        assert_eq!(Value::from("a"), Value::from("a"));
        assert_ne!(Value::from("a"), Value::from("b"));
    }

    #[test]
    fn float_equality_uses_total_order_semantics() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn ordering_is_total_across_kinds() {
        let mut vs = [
            Value::from("z"),
            Value::Float(1.5),
            Value::Int(10),
            Value::Bool(false),
            Value::Undefined,
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Undefined);
        assert_eq!(vs[1], Value::Bool(false));
        assert_eq!(vs[2], Value::Int(10));
        assert_eq!(vs[3], Value::Float(1.5));
        assert_eq!(vs[4], Value::from("z"));
    }

    #[test]
    fn numeric_cmp_crosses_int_and_float() {
        assert_eq!(
            Value::Int(5).numeric_cmp(&Value::Float(4.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Float(2.0).numeric_cmp(&Value::Int(2)),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::from("x").numeric_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn hash_agrees_with_eq() {
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::Int(42)));
        assert_eq!(hash_of(&Value::from("s")), hash_of(&Value::from("s")));
        assert_eq!(
            hash_of(&Value::Float(f64::NAN)),
            hash_of(&Value::Float(f64::NAN))
        );
    }

    #[test]
    fn display_round_trips_through_parse() {
        for v in [
            Value::Undefined,
            Value::Bool(true),
            Value::Int(-17),
            Value::Float(3.25),
            Value::from("People Hospital"),
        ] {
            let s = v.to_string();
            let back: Value = s.parse().unwrap();
            assert_eq!(back, v, "round-trip failed for {s}");
        }
    }

    #[test]
    fn parse_keeps_odd_strings_as_strings() {
        for s in ["inf", "nan", "1.2.3", "034d1", "-", "+"] {
            let v: Value = s.parse().unwrap();
            assert_eq!(v, Value::from(s), "{s} should parse as a string");
        }
    }

    #[test]
    fn parse_recognises_scalars() {
        assert_eq!("42".parse::<Value>().unwrap(), Value::Int(42));
        assert_eq!("-1".parse::<Value>().unwrap(), Value::Int(-1));
        assert_eq!("2.5".parse::<Value>().unwrap(), Value::Float(2.5));
        assert_eq!("true".parse::<Value>().unwrap(), Value::Bool(true));
        assert_eq!("⊥".parse::<Value>().unwrap(), Value::Undefined);
        assert_eq!("".parse::<Value>().unwrap(), Value::Undefined);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_traits_are_implemented() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<Value>();
        assert_serde::<crate::LogRecord>();
        assert_serde::<crate::AttrMap>();
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(Value::Undefined.kind(), "undefined");
        assert_eq!(Value::Int(1).kind(), "int");
        assert_eq!(Value::Float(1.0).kind(), "float");
        assert_eq!(Value::Bool(true).kind(), "bool");
        assert_eq!(Value::from("s").kind(), "str");
    }
}
