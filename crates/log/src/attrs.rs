//! Attribute maps: the `αin` / `αout` components of a log record.
//!
//! A *map* in the paper is a partial function `A → D` with finite domain.
//! [`AttrMap`] realises it as a run of an attribute dictionary: a shared,
//! immutable table of `(name, value)` entries plus one column of entry
//! ids, in which every map is a name-sorted run with no name repeated.
//! Display and serialization are therefore deterministic, and lookups
//! binary-search the run.
//!
//! **Lazy blocks.** Most queries read no attribute, so the binary, text
//! and CSV decoders do not parse maps at load. They check each map's
//! framing (binary: lengths, value tags, UTF-8 of names and string
//! values; text and CSV: every entry has a `=` and a non-empty name; all:
//! the load's entries fit `u32` ids), so a malformed input is still a
//! typed error at load, and file the map into its activity's [`Block`]
//! as the block's next map number. No [`AttrMap`] is made at load: the
//! log keeps one [`MapColumns`], the blocks by activity and two
//! map numbers per record, and lends maps out as [`AttrMapRef`] views
//! ([`Log::maps`](crate::Log::maps)) or, when a caller asks for records,
//! as maps that point at their block. The blocks share the load's
//! undecoded maps (the binary input compacted in place, or the copied
//! text fields). The first read of any map of a block (a lookup, `len`,
//! iteration, equality, order, hash, display, serialization or a write)
//! parses all of the block's maps into a dictionary of its own, once,
//! through a `OnceLock`: threads racing to read a block first wait for
//! one of them to build it. A built block drops its share of the
//! undecoded maps and its map starts, so once every block is built the
//! load's undecoded maps are freed. Since the load checked everything
//! that can fail, the parse cannot fail; it has no panic path, and would
//! end a map early on an entry the load should have refused. A query that reads no
//! attribute parses none, and `GetRefer[balance > 5000]` parses
//! `GetRefer`'s block only.
//!
//! [`Log::new`](crate::Log::new) and the XES decoder (which parses and
//! checks each entry as it reads it) file their maps the same way: they
//! append each non-empty map, as the binary format encodes it, to one
//! buffer of the load, which its blocks share as they would a binary
//! input. So every map of a log is a map of a block.
//!
//! The workflow model repeats attributes by design (each `αin` reads what
//! an earlier `αout` wrote), so a block's dictionary holds each distinct
//! entry once ([`DictBuilder`]; once per 16 384 new entries on larger
//! blocks). Each non-empty map of a record holds one clone of its
//! block: a map is 16 bytes with no allocation of its own. Maps built by
//! hand are one-map dictionaries. Mutation is
//! copy-on-write: a map that is the only user of its dictionary and
//! covers all of its id column changes in place; any other map, a
//! block's included, is first copied out into a dictionary of its own.
//! Equality, order and hashing are by content, never by dictionary
//! identity.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::names::{AttrName, FxBuildHasher, Interner};
use crate::value::Value;

/// `(name, value)` entries and the entry-id column whose runs are maps.
/// Immutable once a second map shares it.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttrDict {
    entries: Vec<(AttrName, Value)>,
    ids: Vec<u32>,
    /// Set for an activity's block of undecoded maps: `entries` and `ids`
    /// are then empty, and the block builds its own dictionary on the
    /// first read of any of its maps.
    block: Option<Box<Block>>,
}

/// One activity's attribute maps in one load, kept undecoded until one of
/// them is read. The load checked their framing, so decoding them cannot
/// fail.
#[derive(Debug)]
struct Block {
    /// The undecoded maps until the block is built, which takes them: a
    /// built block holds neither its share of the load's source nor its
    /// starts, and the source is freed once its last block is built.
    pending: Mutex<Option<Pending>>,
    built: OnceLock<Built>,
}

/// A block's maps before it is built.
#[derive(Debug, Clone)]
struct Pending {
    /// The load's undecoded maps.
    source: Source,
    /// Where in `source` each of the block's maps starts, by map number.
    starts: Starts,
}

impl Clone for Block {
    fn clone(&self) -> Self {
        Block {
            pending: Mutex::new(self.pending().clone()),
            built: self.built.clone(),
        }
    }
}

/// Where each map of a block starts in its load's source, in map order:
/// each start as a `u32` step from the one before (the first from 0),
/// 4 bytes per map. A start that is no such step (one past `u32::MAX`
/// bytes further on) is kept whole in `far`, and its step reads
/// `u32::MAX`.
#[derive(Debug, Clone, Default)]
struct Starts {
    steps: Vec<u32>,
    far: Vec<usize>,
    /// The last start pushed.
    last: usize,
}

impl Starts {
    fn push(&mut self, at: usize) {
        let step = at
            .checked_sub(self.last)
            .and_then(|step| u32::try_from(step).ok());
        match step {
            Some(step) if step != u32::MAX => self.steps.push(step),
            _ => {
                self.steps.push(u32::MAX);
                self.far.push(at);
            }
        }
        self.last = at;
    }

    fn len(&self) -> usize {
        self.steps.len()
    }

    /// The starts, in map order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut far = self.far.iter();
        self.steps.iter().scan(0usize, move |at, &step| {
            *at = match step {
                u32::MAX => far.next().copied().unwrap_or(*at),
                step => *at + step as usize,
            };
            Some(*at)
        })
    }
}

/// The undecoded maps of one load, which its blocks share.
#[derive(Debug, Clone)]
pub(crate) enum Source {
    /// Binary maps as encoded (count, then entries), one after another:
    /// the input buffer, compacted in place to its maps' bytes, or the
    /// buffer [`Log::new`](crate::Log::new) or the XES decoder encoded
    /// them into.
    Binary(Arc<Vec<u8>>),
    /// Text or CSV map fields, each ended by a `\n` (which no field
    /// holds), their entries separated by the byte.
    Text(Arc<String>, u8),
}

/// A block decoded: its maps are the runs `ids[runs[k]..runs[k + 1]]` of
/// `dict`.
#[derive(Debug, Clone, Default)]
struct Built {
    dict: AttrDict,
    runs: Vec<u32>,
}

impl Block {
    /// The pending maps. The lock is only held to take or clone them,
    /// which cannot panic, so a poisoned lock still guards a whole value.
    fn pending(&self) -> MutexGuard<'_, Option<Pending>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The decoded block, built on the first call from the pending maps,
    /// which it then drops. Concurrent first calls block until one of them
    /// has built it.
    fn built(&self) -> &Built {
        self.built.get_or_init(|| {
            // Only a build that panicked after taking them leaves none.
            let Some(Pending { source, starts }) = self.pending().take() else {
                return Built::default();
            };
            let mut dict = DictBuilder::default();
            let mut runs = Vec::with_capacity(starts.len() + 1);
            runs.push(0);
            for at in starts.iter() {
                match &source {
                    Source::Binary(maps) => crate::io::binary::decode_map(maps, at, &mut dict),
                    Source::Text(fields, sep) => {
                        let field = fields.get(at..).unwrap_or_default();
                        let field = field.split('\n').next().unwrap_or_default();
                        crate::io::decode_entries(field, *sep, &mut dict);
                    }
                }
                // A load keeps fewer than `u32::MAX` entries, so run ends
                // fit in `u32`.
                runs.push(dict.end_run() as u32);
            }
            Built {
                dict: dict.into_dict(),
                runs,
            }
        })
    }
}

impl AttrDict {
    /// Map `number` of this block, decoding the block unless that was
    /// done already; empty if this is no block or has no such map.
    fn block_map(&self, number: u32) -> AttrMapRef<'_> {
        let Some(block) = &self.block else {
            return AttrMapRef::EMPTY;
        };
        let built = block.built();
        let number = number as usize;
        match built.runs.get(number..number.saturating_add(2)) {
            Some(&[lo, hi]) => AttrMapRef {
                ids: built
                    .dict
                    .ids
                    .get(lo as usize..hi as usize)
                    .unwrap_or_default(),
                entries: &built.dict.entries,
            },
            _ => AttrMapRef::EMPTY,
        }
    }
}

/// The map number of an empty map in [`MapColumns`]; a block holds fewer
/// maps than entries, and a load fewer than `u32::MAX` entries.
pub(crate) const NO_MAP: u32 = u32::MAX;

/// A log's attribute maps: per activity id, the block of its
/// non-empty maps, and per index entry (a record, in (instance, is-lsn)
/// order) its input and output map numbers in its activity's block, or
/// [`NO_MAP`]. A log with no non-empty map keeps no numbers.
#[derive(Debug, Clone, Default)]
pub(crate) struct MapColumns {
    blocks: Vec<Option<Arc<AttrDict>>>,
    numbers: Vec<[u32; 2]>,
}

impl MapColumns {
    /// The columns over `blocks`, by activity id, and `numbers`, by
    /// entry.
    pub(crate) fn new(blocks: Vec<Option<Arc<AttrDict>>>, numbers: Vec<[u32; 2]>) -> Self {
        MapColumns { blocks, numbers }
    }

    /// The block of `activity` and the map numbers of `entry`, if either
    /// map is non-empty.
    fn find(&self, activity: usize, entry: usize) -> Option<(&Arc<AttrDict>, [u32; 2])> {
        let numbers = *self.numbers.get(entry)?;
        let block = self.blocks.get(activity)?.as_ref()?;
        Some((block, numbers))
    }

    /// The input and output maps of `entry`, whose activity has id
    /// `activity`, borrowed.
    pub(crate) fn view(&self, activity: usize, entry: usize) -> [AttrMapRef<'_>; 2] {
        match self.find(activity, entry) {
            Some((block, numbers)) => numbers.map(|n| block.block_map(n)),
            None => [AttrMapRef::EMPTY; 2],
        }
    }

    /// The input and output maps of `entry` as maps of their own, each
    /// pointing at its block.
    pub(crate) fn maps(&self, activity: usize, entry: usize) -> [AttrMap; 2] {
        let Some((block, numbers)) = self.find(activity, entry) else {
            return [AttrMap::new(), AttrMap::new()];
        };
        numbers.map(|number| match number {
            NO_MAP => AttrMap::new(),
            number => AttrMap {
                dict: Some(Arc::clone(block)),
                start: number,
                len: 1,
            },
        })
    }
}

/// A borrowed attribute map: what a [`Log`](crate::Log) lends out of a
/// record's attributes without building the record
/// ([`Log::maps`](crate::Log::maps)), and what [`AttrMap::view`] lends of
/// an owned map. Its entries are sorted by name, names unique.
#[derive(Clone, Copy)]
pub struct AttrMapRef<'a> {
    ids: &'a [u32],
    entries: &'a [(AttrName, Value)],
}

impl<'a> AttrMapRef<'a> {
    /// The empty map.
    pub const EMPTY: AttrMapRef<'static> = AttrMapRef {
        ids: &[],
        entries: &[],
    };

    /// Returns the number of attributes in the map.
    #[must_use]
    pub fn len(self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the map defines no attribute.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.ids.is_empty()
    }

    /// The position in the run of `name`, or where it would go.
    fn find(self, name: &str) -> Result<usize, usize> {
        let entries = self.entries;
        self.ids
            .binary_search_by(|&id| entries[id as usize].0.as_str().cmp(name))
    }

    /// Looks up the value of `name`, or `None` if the map does not define it.
    #[must_use]
    pub fn get(self, name: &str) -> Option<&'a Value> {
        let i = self.find(name).ok()?;
        Some(&self.entries[self.ids[i] as usize].1)
    }

    /// Returns `true` if the map defines `name`.
    #[must_use]
    pub fn contains(self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// Iterates over `(name, value)` pairs in attribute-name order.
    pub fn iter(self) -> AttrIter<'a> {
        AttrIter {
            ids: self.ids.iter(),
            entries: self.entries,
        }
    }
}

impl<'a> From<&'a AttrMap> for AttrMapRef<'a> {
    fn from(map: &'a AttrMap) -> Self {
        map.view()
    }
}

impl<'a> IntoIterator for AttrMapRef<'a> {
    type Item = (&'a AttrName, &'a Value);
    type IntoIter = AttrIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for AttrMapRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(*self).finish()
    }
}

/// Equal when the entries are, whichever dictionaries hold them.
impl PartialEq for AttrMapRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(*other)
    }
}

impl Eq for AttrMapRef<'_> {}

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
#[derive(Clone, Default)]
#[cfg_attr(
    feature = "serde",
    derive(serde::Serialize, serde::Deserialize),
    serde(
        into = "std::collections::BTreeMap<AttrName, Value>",
        from = "std::collections::BTreeMap<AttrName, Value>"
    )
)]
pub struct AttrMap {
    /// `None` exactly for the empty map, which allocates nothing.
    dict: Option<Arc<AttrDict>>,
    /// The map is the run `ids[start..start + len]` of the dictionary:
    /// sorted by name, names unique. In a block, the map is the block's
    /// map number `start`, and `len` is 1: a block holds non-empty maps
    /// only. `len` is 0 exactly for the empty map.
    start: u32,
    len: u32,
}

impl AttrMap {
    /// Creates an empty map (the `-` entries of the paper's Figure 3).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the number of attributes in the map.
    #[must_use]
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// Returns `true` if the map defines no attribute.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The map, borrowed; a map of a block decodes the block first,
    /// unless that was done already.
    #[must_use]
    pub fn view(&self) -> AttrMapRef<'_> {
        let Some(dict) = &self.dict else {
            return AttrMapRef::EMPTY;
        };
        if dict.block.is_some() {
            return dict.block_map(self.start);
        }
        let start = self.start as usize;
        AttrMapRef {
            ids: &dict.ids[start..start + self.len as usize],
            entries: &dict.entries,
        }
    }

    /// The dictionary to change the map in, copy-on-write: the map's own
    /// if no other map shares it and the map's run is its whole id
    /// column, otherwise a one-map copy of the map that replaces it.
    /// Either way the run is then the whole id column, in the same order.
    fn make_mut(&mut self) -> &mut AttrDict {
        let owned = match &mut self.dict {
            Some(dict) => {
                dict.block.is_none()
                    && self.start == 0
                    && self.len as usize == dict.ids.len()
                    && Arc::get_mut(dict).is_some()
            }
            None => false,
        };
        if !owned {
            let entries: Vec<_> = self.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            // A map has fewer than `u32::MAX` entries (a load checks it).
            self.len = entries.len() as u32;
            let copy = AttrDict {
                ids: (0..self.len).collect(),
                entries,
                block: None,
            };
            self.dict = Some(Arc::new(copy));
            self.start = 0;
        }
        // The dictionary is unshared by now, so this never clones it.
        Arc::make_mut(self.dict.get_or_insert_with(Arc::default))
    }

    /// Sets `name` to `value`, returning the previous value if any.
    pub fn set(&mut self, name: impl Into<AttrName>, value: impl Into<Value>) -> Option<Value> {
        let name = name.into();
        let value = value.into();
        let found = self.view().find(name.as_str());
        let dict = self.make_mut();
        match found {
            // Names are unique in the run, so no other position shares
            // this entry.
            Ok(i) => Some(std::mem::replace(
                &mut dict.entries[dict.ids[i] as usize].1,
                value,
            )),
            Err(i) => {
                dict.ids.insert(i, dict.entries.len() as u32);
                dict.entries.push((name, value));
                self.len += 1;
                None
            }
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
        self.view().get(name)
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
        self.view().contains(name)
    }

    /// Removes `name` from the map, returning its value if present.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let i = self.view().find(name).ok()?;
        let dict = self.make_mut();
        let id = dict.ids.remove(i) as usize;
        // Move the last entry into the freed slot and renumber it.
        let last = dict.entries.len() - 1;
        let (_, value) = dict.entries.swap_remove(id);
        if let Some(moved) = dict.ids.iter_mut().find(|moved| **moved as usize == last) {
            *moved = id as u32;
        }
        self.len -= 1;
        if self.len == 0 {
            self.dict = None;
        }
        Some(value)
    }

    /// Iterates over `(name, value)` pairs in attribute-name order.
    pub fn iter(&self) -> AttrIter<'_> {
        self.view().iter()
    }

    /// Iterates over the attribute names (the map's domain) in order.
    pub fn names(&self) -> impl Iterator<Item = &AttrName> {
        self.iter().map(|(k, _)| k)
    }

    /// Merges `other` into `self`; entries of `other` win on conflicts.
    ///
    /// Used by the workflow engine to apply an activity's output map to an
    /// instance's attribute store.
    pub fn apply(&mut self, other: &AttrMap) {
        for (k, v) in other {
            self.set(k.clone(), v.clone());
        }
    }
}

/// The `(name, value)` entries of an [`AttrMap`], in name order.
#[derive(Debug, Clone)]
pub struct AttrIter<'a> {
    ids: std::slice::Iter<'a, u32>,
    entries: &'a [(AttrName, Value)],
}

impl<'a> Iterator for AttrIter<'a> {
    type Item = (&'a AttrName, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        let (k, v) = &self.entries[*self.ids.next()? as usize];
        Some((k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for AttrIter<'_> {}

impl fmt::Debug for AttrMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self).finish()
    }
}

/// Equal when the entries are, whichever dictionaries hold them.
impl PartialEq for AttrMap {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other)
    }
}

impl Eq for AttrMap {}

impl PartialOrd for AttrMap {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic over the entries in name order, as for a name-sorted
/// vector or tree map of them.
impl Ord for AttrMap {
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other)
    }
}

/// Hashes like a name-sorted tree map of the entries: length, then each
/// entry.
impl Hash for AttrMap {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for entry in self {
            entry.hash(state);
        }
    }
}

impl fmt::Display for AttrMap {
    /// Formats the map the way the paper's Figure 3 does:
    /// `a=1, b=x`, or `-` when empty.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
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
        let entries: Vec<_> = self.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a AttrMap {
    type Item = (&'a AttrName, &'a Value);
    type IntoIter = AttrIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(feature = "serde")]
impl From<AttrMap> for std::collections::BTreeMap<AttrName, Value> {
    fn from(map: AttrMap) -> Self {
        map.into_iter().collect()
    }
}

#[cfg(feature = "serde")]
impl From<std::collections::BTreeMap<AttrName, Value>> for AttrMap {
    fn from(map: std::collections::BTreeMap<AttrName, Value>) -> Self {
        map.into_iter().collect()
    }
}

/// The most slots [`DictBuilder`]'s lookup table grows to: 256 KiB, so it
/// stays in a core's cache however many entries a load has.
const MAX_SLOTS: usize = 1 << 15;

/// Fills the attribute dictionary of one block, and interns its
/// attribute names.
///
/// A block's first read looks each entry up by its encoded bytes
/// ([`entry`](Self::entry)), so only bytes it has not met recently are
/// parsed; pushes the entry ids of one map in file order
/// ([`push`](Self::push)); and ends the map
/// ([`end_run`](Self::end_run)).
///
/// The lookup table is open-addressed by a hash of the bytes under a
/// per-load random seed ([`FxBuildHasher`]), and a hit always compares
/// the full bytes: colliding keys cost probe time, never a wrong entry.
/// The table is bounded: once half of [`MAX_SLOTS`] entries are in it, it
/// is emptied and starts over. An entry met again after that is parsed
/// and stored again, which costs memory but never correctness, since maps
/// compare by content. On a load whose entries never repeat, a table
/// grown to hold them all cost more decode time than the dictionary
/// saved.
#[derive(Default)]
pub(crate) struct DictBuilder {
    /// The attribute names.
    names: Interner,
    dict: AttrDict,
    /// Where the map being built starts in `dict.ids`, and whether its
    /// names have failed to ascend.
    run_start: usize,
    unsorted: bool,
    /// The first entry added since the table was last emptied; entry
    /// `first + i`'s encoded bytes end at `key_ends[i]` in `keys`.
    first: usize,
    keys: Vec<u8>,
    key_ends: Vec<usize>,
    /// Probed linearly from the top bits of a key's hash; a slot holds
    /// the hash's high half above the entry id plus one, or 0 when
    /// empty. At most half full.
    slots: Vec<u64>,
    hasher: FxBuildHasher,
}

impl DictBuilder {
    /// The id of the entry encoded as `key`; unless the table holds it,
    /// `make` parses it, interning its name in [`names`](Self::names), or
    /// fails and adds nothing.
    pub(crate) fn entry<E>(
        &mut self,
        key: &[u8],
        make: impl FnOnce(&mut Interner) -> Result<(AttrName, Value), E>,
    ) -> Result<u32, E> {
        if 2 * self.key_ends.len() >= self.slots.len() {
            self.grow_or_empty();
        }
        // Fx mixes poorly into low bits: take the top bits of a product.
        let tag = self
            .hasher
            .hash_one(key)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> 32;
        let mask = self.slots.len() - 1;
        let mut slot = (tag >> (32 - self.slots.len().trailing_zeros())) as usize;
        while self.slots[slot] != 0 {
            if self.slots[slot] >> 32 == tag {
                let id = (self.slots[slot] as u32).wrapping_sub(1);
                let i = id as usize - self.first;
                let start = if i == 0 { 0 } else { self.key_ends[i - 1] };
                if &self.keys[start..self.key_ends[i]] == key {
                    return Ok(id);
                }
            }
            slot = (slot + 1) & mask;
        }
        let entry = make(&mut self.names)?;
        // A load keeps fewer than `u32::MAX` entries (`Blocks::map`), so
        // ids fit.
        let id = self.dict.entries.len() as u32;
        self.dict.entries.push(entry);
        self.keys.extend_from_slice(key);
        self.key_ends.push(self.keys.len());
        self.slots[slot] = tag << 32 | u64::from(id.wrapping_add(1));
        Ok(id)
    }

    /// Doubles the table below [`MAX_SLOTS`], placing every entry again
    /// by its tag; at [`MAX_SLOTS`] empties it.
    fn grow_or_empty(&mut self) {
        if self.slots.len() >= MAX_SLOTS {
            self.slots.fill(0);
            self.keys.clear();
            self.key_ends.clear();
            self.first = self.dict.entries.len();
            return;
        }
        let len = (2 * self.slots.len()).max(64);
        let shift = 64 - len.trailing_zeros();
        let mut slots = vec![0u64; len];
        for &full in self.slots.iter().filter(|&&full| full != 0) {
            let mut slot = (full >> shift) as usize;
            while slots[slot] != 0 {
                slot = (slot + 1) & (len - 1);
            }
            slots[slot] = full;
        }
        self.slots = slots;
    }

    /// Appends entry `id` to the map being built.
    pub(crate) fn push(&mut self, id: u32) {
        let entries = &self.dict.entries;
        if let Some(&last) = self.dict.ids[self.run_start..].last() {
            self.unsorted |= entries[last as usize].0.as_str() >= entries[id as usize].0.as_str();
        }
        self.dict.ids.push(id);
    }

    /// Ends the map whose ids were pushed since the last call, and
    /// returns where its run ends in the id column. A name out of order
    /// or repeated is sorted into place, and the last write of a name
    /// wins.
    pub(crate) fn end_run(&mut self) -> usize {
        let ids = &mut self.dict.ids;
        if std::mem::take(&mut self.unsorted) {
            let entries = &self.dict.entries;
            let name = |id: &u32| entries[*id as usize].0.as_str();
            let mut run = ids.split_off(self.run_start);
            // Reversed, a stable sort puts each name's last write first,
            // and `dedup_by` keeps the first.
            run.reverse();
            run.sort_by(|a, b| name(a).cmp(name(b)));
            run.dedup_by(|a, b| name(a) == name(b));
            ids.append(&mut run);
        }
        self.run_start = ids.len();
        ids.len()
    }

    /// The dictionary built, its lookup table and names dropped.
    fn into_dict(self) -> AttrDict {
        let mut dict = self.dict;
        dict.entries.shrink_to_fit();
        dict.ids.shrink_to_fit();
        dict
    }
}

/// Files a load's non-empty maps into one lazy [`Block`] per activity, as
/// the load meets them, and numbers them in their block; [`finish`](Self::finish) makes the blocks, given the load's
/// undecoded maps.
#[derive(Default)]
pub(crate) struct Blocks {
    /// By activity id: where its maps start in the load's [`Source`].
    starts: Vec<Starts>,
    /// Encoded entries so far, over every map of the load.
    entries: u64,
}

impl Blocks {
    /// Files a map of `activity` with `count > 0` entries, starting at
    /// byte `at` of the load's source, as the block's next map. `None`
    /// once the load has more entries than `u32` ids can number; that
    /// bound keeps every block's entry ids, and so its map numbers, below
    /// [`NO_MAP`].
    pub(crate) fn map(&mut self, activity: u32, at: usize, count: u32) -> Option<()> {
        self.entries += u64::from(count);
        if self.entries >= u64::from(u32::MAX) {
            return None;
        }
        let activity = activity as usize;
        if activity >= self.starts.len() {
            self.starts.resize_with(activity + 1, Starts::default);
        }
        self.starts[activity].push(at);
        Some(())
    }

    /// The blocks by activity id, each sharing `source`, the load's
    /// undecoded maps; `None` for an activity with no non-empty map. A
    /// load with no non-empty map makes no source.
    pub(crate) fn finish(self, source: impl FnOnce() -> Source) -> Vec<Option<Arc<AttrDict>>> {
        if self.entries == 0 {
            return Vec::new();
        }
        let source = source();
        self.starts
            .into_iter()
            .map(|mut starts| {
                (starts.len() > 0).then(|| {
                    starts.steps.shrink_to_fit();
                    let block = Block {
                        pending: Mutex::new(Some(Pending {
                            source: source.clone(),
                            starts,
                        })),
                        built: OnceLock::new(),
                    };
                    Arc::new(AttrDict {
                        block: Some(Box::new(block)),
                        ..AttrDict::default()
                    })
                })
            })
            .collect()
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
    use bytes::BufMut;

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

    /// Files maps given as `(name, value)` entries, in order, into one
    /// activity's block through [`Blocks`], as a load does, encoded as
    /// the binary format encodes them; returns them as a log's records
    /// hold them.
    fn decode(maps: &[&[(&str, i64)]]) -> Vec<AttrMap> {
        let mut bytes = bytes::BytesMut::default();
        let mut blocks = Blocks::default();
        let (mut numbers, mut filed) = (Vec::new(), 0);
        for map in maps {
            let at = bytes.len();
            bytes.put_u32_le(map.len() as u32);
            for &(name, value) in *map {
                crate::io::binary::put_str(&mut bytes, name);
                crate::io::binary::put_value(&mut bytes, &Value::Int(value));
            }
            let number = if map.is_empty() {
                NO_MAP
            } else {
                blocks.map(0, at, map.len() as u32).unwrap();
                filed += 1;
                filed - 1
            };
            numbers.push([number, NO_MAP]);
        }
        let blocks = blocks.finish(|| Source::Binary(Arc::new(Vec::from(bytes.freeze()))));
        let columns = MapColumns::new(blocks, numbers);
        (0..maps.len())
            .map(|entry| {
                let [input, _] = columns.maps(0, entry);
                input
            })
            .collect()
    }

    #[test]
    fn dictionary_maps_dedupe_sort_and_keep_the_last_write() {
        let maps = decode(&[
            &[("a", 1), ("c", 3)],
            // Out of order, and repeated names: sorted, last write wins.
            &[("c", 3), ("a", 1), ("b", 2), ("c", 30), ("a", 10)],
            &[],
            &[("a", 1), ("c", 3)],
        ]);
        assert_eq!(maps[0], attrs! { "a" => 1i64, "c" => 3i64 });
        assert_eq!(maps[1], attrs! { "a" => 10i64, "b" => 2i64, "c" => 30i64 });
        assert_eq!(maps[1].to_string(), "a=10, b=2, c=30");
        assert!(maps[2].is_empty() && maps[2].dict.is_none());
        assert_eq!(maps[3], maps[0]);
        // One block, whose dictionary holds each distinct entry once.
        let dict = maps[0].dict.as_ref().unwrap();
        assert!(Arc::ptr_eq(dict, maps[1].dict.as_ref().unwrap()));
        let block = dict.block.as_ref().unwrap();
        assert_eq!(block.built().dict.entries.len(), 5);
        assert_eq!(std::mem::size_of::<AttrMap>(), 16);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn map_starts_are_kept_as_steps_and_far_ones_whole() {
        let far = 1usize << 32;
        let at = [0, 5, 5, 7, far + 7, far + 9, 3, 1 << 40, (1 << 40) + 1];
        let mut starts = Starts::default();
        for &a in &at {
            starts.push(a);
        }
        assert_eq!(starts.iter().collect::<Vec<_>>(), at);
        assert_eq!(starts.len(), at.len());
        assert_eq!(starts.far, [far + 7, 3, 1 << 40]);
    }

    #[test]
    fn a_full_lookup_table_starts_over_and_entries_stay_right() {
        let mut b = DictBuilder::default();
        let mut add = |i: usize| {
            b.entry::<()>(format!("k={i}").as_bytes(), |names| {
                Ok((names.attr_name("k"), Value::Int(i as i64)))
            })
        };
        // Past half of `MAX_SLOTS` distinct entries the table is emptied.
        let n = MAX_SLOTS / 2 + 10;
        for i in 0..n {
            assert_eq!(add(i), Ok(i as u32));
        }
        // A recent entry is still found without parsing; an early one is
        // parsed and stored again, equal to its first copy.
        let recent = b.entry::<()>(format!("k={}", n - 1).as_bytes(), |_| Err(()));
        assert_eq!(recent, Ok(n as u32 - 1));
        let early = b.entry::<()>(b"k=0", |names| Ok((names.attr_name("k"), Value::Int(0))));
        assert_eq!(early, Ok(n as u32));
        assert_eq!(b.dict.entries[n], b.dict.entries[0]);
        assert_eq!(b.slots.len(), MAX_SLOTS);
    }

    #[test]
    fn writes_copy_a_shared_map_out_and_change_an_owned_one_in_place() {
        let maps = decode(&[&[("a", 1), ("b", 2)], &[("a", 1)]]);
        let mut m = maps[0].clone();
        assert_eq!(m.set("a", 5i64), Some(Value::Int(1)));
        assert_eq!(maps[0].get("a"), Some(&Value::Int(1)));
        assert_eq!(maps[1].get("a"), Some(&Value::Int(1)));
        // Now the only user of a one-map copy: later writes stay in it.
        let own = Arc::as_ptr(m.dict.as_ref().unwrap());
        m.set("c", 3i64);
        assert_eq!(m.remove("a"), Some(Value::Int(5)));
        assert_eq!(Arc::as_ptr(m.dict.as_ref().unwrap()), own);
        assert_eq!(m, attrs! { "b" => 2i64, "c" => 3i64 });
        assert_eq!(m.remove("b"), Some(Value::Int(2)));
        assert_eq!(m.remove("c"), Some(Value::Int(3)));
        assert!(m.is_empty() && m.dict.is_none());
        assert_eq!(maps[0], attrs! { "a" => 1i64, "b" => 2i64 });
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

    // A map's only interior mutability is its block's decode-once cache,
    // which never changes what it hashes or compares to.
    #[allow(clippy::mutable_key_type)]
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
