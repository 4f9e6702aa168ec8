//! Bitset signatures and their supporting machinery: [`NodeSet`], raw
//! word-slice operations ([`wordset`]) for arena-pooled signature storage,
//! and per-node Zobrist keys ([`ZobristTable`]) for O(1) incremental
//! signature hashing.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::NodeId;

/// A compact bitset over node ids.
///
/// `NodeSet` is the representation of the paper's *zero-indegree set
/// signature* `z` (§3.1): the dynamic-programming scheduler memoizes one state
/// per distinct `NodeSet`, so equality and hashing are content-based and
/// independent of capacity (trailing zero words are ignored).
///
/// # Example
///
/// ```
/// use serenity_ir::{NodeSet, NodeId};
///
/// let mut z = NodeSet::with_capacity(100);
/// z.insert(NodeId::from_index(3));
/// z.insert(NodeId::from_index(70));
/// assert_eq!(z.len(), 2);
/// assert!(z.contains(NodeId::from_index(3)));
/// let ids: Vec<usize> = z.iter().map(|n| n.index()).collect();
/// assert_eq!(ids, [3, 70]);
/// ```
#[derive(Debug, Clone, Default, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        NodeSet::default()
    }

    /// Creates an empty set pre-sized for ids `< capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        NodeSet { words: vec![0; capacity.div_ceil(64)] }
    }

    /// Builds a set from an iterator of node ids.
    pub fn from_ids<I: IntoIterator<Item = NodeId>>(ids: I) -> Self {
        let mut set = NodeSet::new();
        for id in ids {
            set.insert(id);
        }
        set
    }

    fn slot(id: NodeId) -> (usize, u64) {
        (id.index() / 64, 1u64 << (id.index() % 64))
    }

    /// Inserts `id`; returns `true` if it was not already present.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let (word, bit) = Self::slot(id);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let had = self.words[word] & bit != 0;
        self.words[word] |= bit;
        !had
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let (word, bit) = Self::slot(id);
        if word >= self.words.len() {
            return false;
        }
        let had = self.words[word] & bit != 0;
        self.words[word] &= !bit;
        had
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: NodeId) -> bool {
        let (word, bit) = Self::slot(id);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all ids.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Whether every id of `self` is also in `other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        self.words.iter().enumerate().all(|(i, &w)| {
            let o = other.words.get(i).copied().unwrap_or(0);
            w & !o == 0
        })
    }

    /// Inserts every id of `other` into `self`.
    pub fn union_with(&mut self, other: &NodeSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (i, &w) in other.words.iter().enumerate() {
            self.words[i] |= w;
        }
    }

    /// Keeps only ids present in both sets.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Iterates over the ids in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { words: &self.words, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// The backing bit words (64 ids per word, low bit = low id).
    ///
    /// Exposed so arena-pooled search engines can copy signatures into flat
    /// word pools and operate on them with [`wordset`] without owning a
    /// `NodeSet` per state.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    fn significant_words(&self) -> &[u64] {
        let last = self.words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        &self.words[..last]
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        self.significant_words() == other.significant_words()
    }
}

impl Hash for NodeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &w in self.significant_words() {
            state.write_u64(w);
        }
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        NodeSet::from_ids(iter)
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{id}")?;
        }
        f.write_str("}")
    }
}

/// Iterator over the ids of a [`NodeSet`] in increasing order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(NodeId::from_index(self.word_idx * 64 + bit));
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Set operations on raw `&[u64]` bit-word slices.
///
/// The DP and beam schedulers store thousands of signatures per search
/// step, as inline `[u64; W]` arrays or, past 128 nodes, in flat word pools
/// (one allocation per step instead of two per state). These helpers
/// mirror the [`NodeSet`] operations on such arrays and pool slices. All
/// functions tolerate length mismatches by treating missing high words as
/// zero, matching `NodeSet`'s capacity-independent semantics — except
/// [`wordset::insert`], which requires the slice to cover the id.
pub mod wordset {
    use crate::NodeId;

    #[inline]
    fn slot(id: NodeId) -> (usize, u64) {
        (id.index() / 64, 1u64 << (id.index() % 64))
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(words: &[u64], id: NodeId) -> bool {
        let (word, bit) = slot(id);
        words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Inserts `id`.
    ///
    /// # Panics
    ///
    /// Panics if the slice is too short to hold `id` — pool slices are
    /// pre-sized to the graph's word count.
    #[inline]
    pub fn insert(words: &mut [u64], id: NodeId) {
        let (word, bit) = slot(id);
        words[word] |= bit;
    }

    /// ORs `mask` into `words` (missing high words of either side are
    /// treated as zero).
    #[inline]
    pub fn union_into(words: &mut [u64], mask: &[u64]) {
        for (w, &m) in words.iter_mut().zip(mask) {
            *w |= m;
        }
    }

    /// Removes `id` (a no-op when the slice does not cover it).
    #[inline]
    pub fn remove(words: &mut [u64], id: NodeId) {
        let (word, bit) = slot(id);
        if let Some(w) = words.get_mut(word) {
            *w &= !bit;
        }
    }

    /// Whether every id of `sub` is also in `sup`.
    #[inline]
    pub fn is_subset(sub: &[u64], sup: &[u64]) -> bool {
        sub.iter().enumerate().all(|(i, &w)| w & !sup.get(i).copied().unwrap_or(0) == 0)
    }

    /// Whether every id of `sub` is in `sup ∪ {extra}` — the "all consumers
    /// of `p` have run once `extra` does" test of the free rule, one word
    /// operation per 64 nodes.
    #[inline]
    pub fn is_subset_with(sub: &[u64], sup: &[u64], extra: NodeId) -> bool {
        let (xw, xb) = slot(extra);
        sub.iter().enumerate().all(|(i, &w)| {
            let mut uncovered = w & !sup.get(i).copied().unwrap_or(0);
            if i == xw {
                uncovered &= !xb;
            }
            uncovered == 0
        })
    }

    /// Whether `a ∩ b` contains any id other than `skip` — the "some other
    /// slab member already ran" test of the alloc rule.
    #[inline]
    pub fn intersects_excluding(a: &[u64], b: &[u64], skip: NodeId) -> bool {
        let (sw, sb) = slot(skip);
        a.iter().zip(b.iter()).enumerate().any(|(i, (&x, &y))| {
            let mut both = x & y;
            if i == sw {
                both &= !sb;
            }
            both != 0
        })
    }

    /// Iterates the ids of a word slice in increasing order.
    pub fn iter(words: &[u64]) -> super::Iter<'_> {
        super::Iter { words, word_idx: 0, current: words.first().copied().unwrap_or(0) }
    }
}

/// Per-node 64-bit Zobrist keys for incremental signature hashing.
///
/// A signature's hash is the XOR of its members' keys, so inserting or
/// removing a node updates the hash in O(1) — the DP scheduler carries the
/// hash in each state and never rehashes a signature's words on memo lookup.
/// Keys are derived deterministically (splitmix64 from a fixed seed), so
/// hashes are reproducible across runs and threads.
///
/// Zobrist hashes can collide; exact engines must confirm candidate equality
/// by comparing set contents on hash hits.
///
/// # Example
///
/// ```
/// use serenity_ir::{NodeId, NodeSet, ZobristTable};
///
/// let table = ZobristTable::new(8);
/// let mut set = NodeSet::with_capacity(8);
/// let mut hash = table.hash_set(&set);
/// set.insert(NodeId::from_index(3));
/// hash ^= table.key(NodeId::from_index(3));
/// assert_eq!(hash, table.hash_set(&set));
/// ```
#[derive(Debug, Clone)]
pub struct ZobristTable {
    keys: Vec<u64>,
}

impl ZobristTable {
    /// Builds keys for node ids `< capacity`.
    pub fn new(capacity: usize) -> Self {
        // splitmix64: the standard 64-bit mixer; passes through every value
        // exactly once, so keys are distinct and well distributed.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let keys = (0..capacity)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect();
        ZobristTable { keys }
    }

    /// The key of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the table's capacity.
    #[inline]
    pub fn key(&self, id: NodeId) -> u64 {
        self.keys[id.index()]
    }

    /// Hash of a set given as raw bit words (XOR of member keys).
    pub fn hash_words(&self, words: &[u64]) -> u64 {
        wordset::iter(words).fold(0, |h, id| h ^ self.key(id))
    }

    /// Hash of a [`NodeSet`] (XOR of member keys).
    pub fn hash_set(&self, set: &NodeSet) -> u64 {
        self.hash_words(set.as_words())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn id(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn hash_of(set: &NodeSet) -> u64 {
        let mut h = DefaultHasher::new();
        set.hash(&mut h);
        h.finish()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new();
        assert!(s.insert(id(5)));
        assert!(!s.insert(id(5)));
        assert!(s.contains(id(5)));
        assert!(s.remove(id(5)));
        assert!(!s.remove(id(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn growth_across_words() {
        let mut s = NodeSet::new();
        s.insert(id(0));
        s.insert(id(64));
        s.insert(id(191));
        assert_eq!(s.len(), 3);
        let v: Vec<usize> = s.iter().map(|n| n.index()).collect();
        assert_eq!(v, [0, 64, 191]);
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = NodeSet::with_capacity(256);
        let mut b = NodeSet::new();
        a.insert(id(3));
        b.insert(id(3));
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn equality_after_remove() {
        let mut a = NodeSet::new();
        a.insert(id(100));
        a.remove(id(100));
        assert_eq!(a, NodeSet::new());
        assert_eq!(hash_of(&a), hash_of(&NodeSet::new()));
    }

    #[test]
    fn subset_and_union() {
        let a = NodeSet::from_ids([id(1), id(2)]);
        let b = NodeSet::from_ids([id(1), id(2), id(70)]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        let mut c = a.clone();
        c.union_with(&b);
        assert_eq!(c, b);
    }

    #[test]
    fn intersect() {
        let mut a = NodeSet::from_ids([id(1), id(2), id(65)]);
        let b = NodeSet::from_ids([id(2), id(65), id(99)]);
        a.intersect_with(&b);
        assert_eq!(a, NodeSet::from_ids([id(2), id(65)]));
    }

    #[test]
    fn display_lists_members() {
        let s = NodeSet::from_ids([id(2), id(0)]);
        assert_eq!(s.to_string(), "{n0,n2}");
    }

    #[test]
    fn from_iterator() {
        let s: NodeSet = [id(9), id(1)].into_iter().collect();
        assert_eq!(s.len(), 2);
    }
}
