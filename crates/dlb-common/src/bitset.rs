//! A fixed-capacity bitset over `u64` words.
//!
//! The engine's hot scans — steal-candidate selection, end-of-operator
//! sweeps — iterate "every live operator" many times per simulated run. A
//! dense index set over machine words turns those scans from `O(total ops)`
//! with a per-op branch into a walk over the set bits only, one cache line
//! per 512 indices (cf. the bitset used by CeresDB's `common_types`).
//!
//! Iteration order is **ascending index order**, which callers rely on for
//! determinism: replacing a `for i in 0..n` scan with a bitset walk visits
//! the surviving candidates in exactly the same order.

/// A fixed-capacity set of `usize` indices backed by `u64` words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of indices currently in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no index is set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grows the capacity to hold indices `0..capacity` (never shrinks).
    pub fn grow(&mut self, capacity: usize) {
        let words = capacity.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
    }

    /// Inserts `index`; returns `true` when it was not already present.
    /// Grows the backing storage as needed.
    pub fn insert(&mut self, index: usize) -> bool {
        self.grow(index + 1);
        let (w, b) = (index / 64, index % 64);
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Removes `index`; returns `true` when it was present.
    pub fn remove(&mut self, index: usize) -> bool {
        let (w, b) = (index / 64, index % 64);
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let mask = 1u64 << b;
        let present = *word & mask != 0;
        *word &= !mask;
        self.len -= present as usize;
        present
    }

    /// True when `index` is in the set.
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|w| w & (1u64 << (index % 64)) != 0)
    }

    /// Extracts the bits for indices `base..base + len` (with `len <= 64`)
    /// as one word: bit `j` of the result is set iff `base + j` is in the
    /// set. Indices past the backing storage read as zero.
    ///
    /// This is the hot-scan primitive: a contiguous id range (one query's
    /// operators, one node's threads) becomes a single word that can be
    /// intersected with other masks and walked bit by bit.
    pub fn extract_range(&self, base: usize, len: usize) -> u64 {
        debug_assert!(len <= 64, "extract_range covers at most one word");
        if len == 0 {
            return 0;
        }
        let (w, off) = (base / 64, base % 64);
        let mut x = self.words.get(w).copied().unwrap_or(0) >> off;
        if off != 0 {
            x |= self.words.get(w + 1).copied().unwrap_or(0) << (64 - off);
        }
        if len < 64 {
            x &= (1u64 << len) - 1;
        }
        x
    }

    /// The smallest index `>= from` in the set, if any. Walking
    /// `next_from(start)` onwards and then `next_from(0)` up to `start`
    /// visits the set in rotated order, as `(start..n).chain(0..start)`
    /// filtered by membership would.
    pub fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = self.words.get(w)? & (u64::MAX << (from % 64));
        while word == 0 {
            w += 1;
            word = *self.words.get(w)?;
        }
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    /// Removes every index.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates the set indices in ascending order.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = BitIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = BitSet::default();
        for i in iter {
            set.insert(i);
        }
        set
    }
}

/// Ascending-order iterator over a [`BitSet`].
#[derive(Debug, Clone)]
pub struct BitIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_round_trip() {
        let mut s = BitSet::with_capacity(10);
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(64));
        assert!(s.contains(3));
        assert!(s.contains(64));
        assert!(!s.contains(5));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.remove(1000));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iterates_in_ascending_order_across_words() {
        let indices = [0usize, 1, 63, 64, 65, 127, 128, 300];
        let s: BitSet = indices.iter().copied().collect();
        let out: Vec<usize> = s.iter().collect();
        assert_eq!(out, indices);
    }

    #[test]
    fn matches_a_linear_scan_with_filter() {
        // The determinism contract: walking the set visits exactly the
        // indices a `(0..n).filter(..)` scan would, in the same order.
        let keep = |i: usize| i.is_multiple_of(3) || i.is_multiple_of(7);
        let n = 500;
        let s: BitSet = (0..n).filter(|&i| keep(i)).collect();
        let linear: Vec<usize> = (0..n).filter(|&i| keep(i)).collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), linear);
        assert_eq!(s.len(), linear.len());
        // The rotated walk from any start, word boundaries included, visits
        // what `(start..n).chain(0..start).filter(..)` does.
        for start in [0usize, 1, 63, 64, 65, 127, 128, 250, 499] {
            let rotated: Vec<usize> = (start..n).chain(0..start).filter(|&i| keep(i)).collect();
            let mut walk = Vec::new();
            let mut from = start;
            while let Some(i) = s.next_from(from) {
                walk.push(i);
                from = i + 1;
            }
            from = 0;
            while let Some(i) = s.next_from(from).filter(|&i| i < start) {
                walk.push(i);
                from = i + 1;
            }
            assert_eq!(walk, rotated, "start {start}");
        }
        assert_eq!(s.next_from(n), None);
        assert_eq!(s.next_from(10_000), None);
    }

    #[test]
    fn extract_range_matches_contains() {
        let indices = [0usize, 1, 63, 64, 65, 127, 128, 300];
        let s: BitSet = indices.iter().copied().collect();
        for base in [0usize, 1, 60, 64, 100, 290, 400] {
            // The next member at or after `base`, across empty words too.
            let next = indices.iter().copied().find(|&i| i >= base);
            assert_eq!(s.next_from(base), next, "next_from {base}");
            for len in [0usize, 1, 5, 64] {
                let word = s.extract_range(base, len);
                for j in 0..len {
                    assert_eq!(
                        word >> j & 1 == 1,
                        s.contains(base + j),
                        "base {base} len {len} bit {j}"
                    );
                }
            }
        }
        // Full-word extraction at an unaligned base.
        assert_eq!(s.extract_range(63, 64) & 0b111, 0b111);
    }

    #[test]
    fn clear_empties_and_capacity_is_reusable() {
        let mut s: BitSet = (0..100).collect();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        s.insert(99);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![99]);
    }
}
