//! Names for activities and attributes.
//!
//! The paper assumes pairwise-disjoint countably infinite sets `T` of
//! activity names and `A` of attribute names. Both are represented as
//! reference-counted strings with newtypes keeping the two namespaces apart
//! at the type level ([C-NEWTYPE]). Clones share one allocation.
//!
//! The log decoders intern while they decode: one `Interner` per load
//! hands out a single `Arc<str>` per distinct activity name, so every
//! record of a decoded log that names `SeeDoctor` points at the same
//! bytes. Attribute names are interned the same way where maps are
//! parsed: per load for XES, and per activity block, on the block's
//! first read, for the binary, text and CSV decoders (see the `attrs`
//! module, where attribute values live too). Each table is dropped when
//! its decoding ends; the log keeps only the shared strings. Names built
//! by hand ([`Activity::new`], `From<&str>`) are not interned.
//!
//! The interner also numbers activity names densely in first-seen order.
//! The binary, text and CSV decoders record each record's number, use it
//! to file the record's attribute maps into that activity's lazy block
//! (see the `attrs` module), and hand the numbers to the log's load pass,
//! which renumbers them into the [`ActivityId`](crate::ActivityId)s of
//! name order without hashing a name again. Records built by hand get
//! their first-seen numbers in [`Log::new`](crate::Log::new), from a
//! by-name map.
//!
//! These per-load tables (the interners, the attribute dictionaries'
//! entry lookups, the instance map of a load or of `Log::new`, and, for
//! records no decoder numbered, the activity map) hash with
//! `FxBuildHasher`, a multiply-rotate hash in the style of rustc's
//! `FxHasher`, instead of the standard SipHash. It is several times
//! cheaper on short names but is not a keyed cryptographic hash. Each
//! table starts its hasher from a fresh random seed (drawn from std's
//! `RandomState`), so which keys share a bucket is not fixed in advance:
//! an unseeded Fx hash of a one-word key is an invertible function of the
//! key, and a file could pick instance ids that all land in one bucket
//! and make every load quadratic. The trust model: seeding makes such
//! collisions a matter of chance rather than of choice, but the hash is
//! not proven collision-resistant, so a crafted input can at worst make
//! one decode slower (a table probe degrades towards a scan of the
//! colliding entries). It cannot change what is decoded, because every
//! probe still compares the full key. The tables live for one load and
//! are never exposed, so no state carries over between inputs.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
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

/// A multiply-rotate hash in the style of rustc's `FxHasher`, for the
/// short-lived tables of one load, started from a per-table random seed
/// (see the module docs for the trust model).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FxBuildHasher {
    seed: u64,
}

impl FxBuildHasher {
    /// A hasher whose states start from `seed`.
    pub(crate) fn with_seed(seed: u64) -> Self {
        FxBuildHasher { seed }
    }
}

/// A fresh random seed per table.
impl Default for FxBuildHasher {
    fn default() -> Self {
        Self::with_seed(RandomState::new().hash_one(0u64))
    }
}

/// The state of [`FxBuildHasher`]: one word, folded one word at a time.
pub(crate) struct FxHasher(u64);

const FX_K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_K);
    }
}

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher(self.seed)
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0; 8];
            w.copy_from_slice(word);
            self.add(u64::from_le_bytes(w));
        }
        // The last 1–7 bytes as one word, read with loads that may
        // overlap rather than a variable-length copy. For a given tail
        // length, every byte lands in the word.
        let tail = words.remainder();
        let n = tail.len();
        if n >= 4 {
            let (mut lo, mut hi) = ([0; 4], [0; 4]);
            lo.copy_from_slice(&tail[..4]);
            hi.copy_from_slice(&tail[n - 4..]);
            self.add(u64::from(u32::from_le_bytes(lo)) | u64::from(u32::from_le_bytes(hi)) << 32);
        } else if n > 0 {
            let bytes = [tail[0], tail[n / 2], tail[n - 1], n as u8];
            self.add(u64::from(u32::from_le_bytes(bytes)));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's high bits are its best mixed; tables index buckets
    /// by the low bits, so rotate the high bits down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A per-decode table of activity and attribute names: each distinct
/// name is allocated once and shared. Activity names also get dense ids
/// in first-seen order, which the decoders hand to the log's load pass
/// and use to pick each map's attribute block.
#[derive(Default)]
pub(crate) struct Interner {
    strings: HashSet<Arc<str>, FxBuildHasher>,
    /// The activity names by first-seen id, and each name's id.
    activities: Vec<Activity>,
    activity_ids: HashMap<Arc<str>, u32, FxBuildHasher>,
}

impl Interner {
    /// The shared copy of `s`, allocated on first sight.
    fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(shared) = self.strings.get(s) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(s);
        self.strings.insert(Arc::clone(&shared));
        shared
    }

    /// The dense first-seen id of activity `s`, interned on first sight.
    /// The `as u32` cannot truncate before `Log::new` rejects the load:
    /// each record names one activity, and a log has at most `u32::MAX`
    /// records.
    pub(crate) fn activity_id(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.activity_ids.get(s) {
            return id;
        }
        let shared = self.intern(s);
        let id = self.activities.len() as u32;
        self.activities.push(Activity(Arc::clone(&shared)));
        self.activity_ids.insert(shared, id);
        id
    }

    /// The activity name of first-seen id `id`.
    pub(crate) fn activity_name(&self, id: u32) -> Activity {
        self.activities[id as usize].clone()
    }

    /// The activity names in first-seen order: id `i` names entry `i`.
    pub(crate) fn into_activities(self) -> Vec<Activity> {
        self.activities
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
        let (see, again) = (
            table.activity_id("SeeDoctor"),
            table.activity_id("SeeDoctor"),
        );
        assert_eq!(see, again);
        let check_in = table.activity_id("CheckIn");
        assert_ne!(check_in, see);
        let a = table.activity_name(see);
        let c = table.attr_name("SeeDoctor");
        assert_eq!(a.as_str().as_ptr(), c.as_str().as_ptr());
        assert_ne!(
            table.activity_name(check_in).as_str().as_ptr(),
            a.as_str().as_ptr()
        );
    }

    #[test]
    fn fx_hash_spreads_short_names() {
        let fx = FxBuildHasher::default();
        let names = ["A", "B", "SeeDoctor", "SeeDoctors", "UpdateRefer"];
        let hashes: HashSet<u64> = names.iter().map(|n| fx.hash_one(n)).collect();
        assert_eq!(hashes.len(), names.len());
        assert_eq!(fx.hash_one("CheckIn"), fx.hash_one(String::from("CheckIn")));
    }

    /// The bucket (low bits) and control tag (top 7 bits) a hash table
    /// derives from a key's hash.
    fn slot(fx: FxBuildHasher, key: u64) -> (u64, u64) {
        let h = fx.hash_one(key);
        (h & 1023, h >> 57)
    }

    #[test]
    fn seeding_spreads_keys_built_to_collide_under_a_fixed_seed() {
        // The inverse of the multiplier mod 2^64, by Newton's iteration.
        let mut inverse = FX_K;
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(FX_K.wrapping_mul(inverse)));
        }
        assert_eq!(FX_K.wrapping_mul(inverse), 1);
        // Under a zero seed `x * K⁻¹` hashes to `x` rotated, so small `x`
        // all share bucket and tag: a table of them degrades to a scan.
        let keys: Vec<u64> = (0..1024u64).map(|x| x.wrapping_mul(inverse)).collect();
        let fixed: HashSet<(u64, u64)> = keys
            .iter()
            .map(|&k| slot(FxBuildHasher::with_seed(0), k))
            .collect();
        assert_eq!(fixed.len(), 1);
        for _ in 0..4 {
            let fx = FxBuildHasher::default();
            let buckets: HashSet<u64> = keys.iter().map(|&k| slot(fx, k).0).collect();
            assert!(buckets.len() > 512, "{} of 1024 buckets", buckets.len());
        }
        assert_ne!(
            FxBuildHasher::default().hash_one(7u64),
            FxBuildHasher::default().hash_one(7u64)
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
