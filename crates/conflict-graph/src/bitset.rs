//! A small fixed-capacity bit set used for adjacency rows and vertex subsets.
//!
//! The workspace deals with graphs of at most a few thousand vertices, so a
//! dense `u64`-word bit set is both the simplest and the fastest choice for
//! membership tests, intersections and popcounts that the independent-set
//! routines perform in their inner loops.

use serde::{Deserialize, Serialize};

/// Dense bit set over the universe `0..len`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty bit set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bit set containing every element of the universe `0..len`.
    ///
    /// Fills whole `u64` words and masks the tail — `O(len/64)` instead of
    /// the per-bit insert loop this used to be.
    pub fn full(len: usize) -> Self {
        let mut words = vec![!0u64; len.div_ceil(64)];
        let tail_bits = len % 64;
        if tail_bits != 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << tail_bits) - 1;
            }
        }
        BitSet { words, len }
    }

    /// Creates a bit set from an iterator of indices.
    ///
    /// # Panics
    /// Panics if any index is `>= len`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(len: usize, iter: I) -> Self {
        let mut s = Self::new(len);
        for i in iter {
            assert!(i < len, "index {i} out of bounds for BitSet of len {len}");
            s.words[i / 64] |= 1u64 << (i % 64);
        }
        s
    }

    /// Size of the universe (not the number of set bits).
    pub fn universe_len(&self) -> usize {
        self.len
    }

    /// Inserts `idx` into the set. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `idx >= universe_len()`.
    pub fn insert(&mut self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "index {idx} out of bounds for BitSet of len {}",
            self.len
        );
        let w = idx / 64;
        let b = idx % 64;
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `idx` from the set. Returns `true` if it was present.
    pub fn remove(&mut self, idx: usize) -> bool {
        assert!(idx < self.len);
        let w = idx / 64;
        let b = idx % 64;
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test.
    pub fn contains(&self, idx: usize) -> bool {
        if idx >= self.len {
            return false;
        }
        self.words[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Number of elements in the set (word-level popcount).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing `u64` words (low bit of word 0 is element 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Iterates over the indices contained in the set in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Returns the number of elements present in both `self` and `other`
    /// (word-level `and` + popcount, no per-bit work).
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Returns `true` if `self` and `other` share at least one element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    /// Panics if the universes differ in size.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
    }

    /// Returns `true` if every element of `self` is contained in `other`.
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Collects the contents into a `Vec<usize>`.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129), "double insert reports not-new");
        assert!(s.contains(0));
        assert!(s.contains(64));
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let idx = [3usize, 7, 64, 65, 127, 128, 199];
        let s = BitSet::from_indices(200, idx.iter().copied());
        assert_eq!(s.to_vec(), idx.to_vec());
    }

    #[test]
    fn full_contains_everything() {
        let s = BitSet::full(77);
        assert_eq!(s.count(), 77);
        assert!((0..77).all(|i| s.contains(i)));
        assert!(!s.contains(77));
    }

    #[test]
    fn full_masks_the_tail_word_exactly() {
        // word-boundary universes: the tail mask must not leak ghost bits
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 192] {
            let s = BitSet::full(len);
            assert_eq!(s.count(), len, "len {len}");
            assert_eq!(s.words().len(), len.div_ceil(64));
            assert!(!s.contains(len));
            assert_eq!(s.to_vec(), (0..len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_indices(100, [1, 2, 3, 50, 99]);
        let b = BitSet::from_indices(100, [2, 3, 4, 99]);
        assert_eq!(a.intersection_count(&b), 3);
        assert!(a.intersects(&b));

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 2, 3, 4, 50, 99]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![2, 3, 99]);

        assert!(i.is_subset_of(&a));
        assert!(i.is_subset_of(&b));
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn out_of_universe_contains_is_false() {
        let s = BitSet::from_indices(10, [0, 9]);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic]
    fn out_of_universe_insert_panics() {
        let mut s = BitSet::new(10);
        s.insert(10);
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::from_indices(64, 0..64);
        assert_eq!(s.count(), 64);
        s.clear();
        assert!(s.is_empty());
    }

    proptest! {
        #[test]
        fn prop_roundtrip_through_indices(len in 1usize..300, picks in prop::collection::vec(0usize..300, 0..80)) {
            let picks: Vec<usize> = picks.into_iter().filter(|&p| p < len).collect();
            let s = BitSet::from_indices(len, picks.iter().copied());
            let mut sorted: Vec<usize> = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(s.to_vec(), sorted.clone());
            prop_assert_eq!(s.count(), sorted.len());
        }

        #[test]
        fn prop_union_intersection_counts(len in 1usize..200,
                                          a in prop::collection::vec(0usize..200, 0..60),
                                          b in prop::collection::vec(0usize..200, 0..60)) {
            let a: Vec<usize> = a.into_iter().filter(|&p| p < len).collect();
            let b: Vec<usize> = b.into_iter().filter(|&p| p < len).collect();
            let sa = BitSet::from_indices(len, a.iter().copied());
            let sb = BitSet::from_indices(len, b.iter().copied());
            let mut un = sa.clone();
            un.union_with(&sb);
            // |A ∪ B| = |A| + |B| - |A ∩ B|
            prop_assert_eq!(un.count() + sa.intersection_count(&sb), sa.count() + sb.count());
        }
    }
}
