//! Channel bundles `T ⊆ [k]` represented as bit sets.
//!
//! The paper allows up to `k` channels per auction; this crate supports
//! `k ≤ 64` which is far beyond the channel counts of realistic secondary
//! spectrum markets (and of the experiments, which use `k ≤ 16`).

use serde::{Deserialize, Serialize};

/// Maximum number of channels supported by [`ChannelSet`].
pub const MAX_CHANNELS: usize = 64;

/// A set of channels out of `[k]`, stored as a bit mask.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct ChannelSet(u64);

impl ChannelSet {
    /// The empty bundle.
    pub fn empty() -> Self {
        ChannelSet(0)
    }

    /// The full bundle `[k] = {0, …, k−1}`.
    ///
    /// # Panics
    /// Panics if `k > 64`.
    pub fn full(k: usize) -> Self {
        assert!(
            k <= MAX_CHANNELS,
            "at most {MAX_CHANNELS} channels are supported"
        );
        if k == 64 {
            ChannelSet(u64::MAX)
        } else {
            ChannelSet((1u64 << k) - 1)
        }
    }

    /// The singleton bundle `{j}`.
    ///
    /// # Panics
    /// Panics if `j >= 64`.
    pub fn singleton(j: usize) -> Self {
        assert!(j < MAX_CHANNELS);
        ChannelSet(1u64 << j)
    }

    /// Builds a bundle from channel indices.
    pub fn from_channels<I: IntoIterator<Item = usize>>(channels: I) -> Self {
        let mut s = ChannelSet(0);
        for j in channels {
            s = s.with(j);
        }
        s
    }

    /// Builds a bundle from a raw bit mask.
    pub fn from_bits(bits: u64) -> Self {
        ChannelSet(bits)
    }

    /// The raw bit mask.
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// Returns `true` if channel `j` is in the bundle.
    pub fn contains(&self, j: usize) -> bool {
        j < MAX_CHANNELS && self.0 & (1u64 << j) != 0
    }

    /// The bundle with channel `j` added.
    pub fn with(&self, j: usize) -> Self {
        assert!(j < MAX_CHANNELS);
        ChannelSet(self.0 | (1u64 << j))
    }

    /// The bundle with channel `j` removed.
    pub fn without(&self, j: usize) -> Self {
        assert!(j < MAX_CHANNELS);
        ChannelSet(self.0 & !(1u64 << j))
    }

    /// Union of two bundles.
    pub fn union(&self, other: ChannelSet) -> Self {
        ChannelSet(self.0 | other.0)
    }

    /// Returns `true` if the two bundles share at least one channel.
    pub fn intersects(&self, other: ChannelSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Returns `true` if `self ⊆ other`.
    pub fn is_subset_of(&self, other: ChannelSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Number of channels in the bundle.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` for the empty bundle.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over the channel indices in the bundle, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(j)
            }
        })
    }

    /// Iterates over **all** subsets of `[k]` (including the empty set and
    /// `[k]` itself). Intended for small `k` only (`2^k` bundles).
    pub fn all_bundles(k: usize) -> impl Iterator<Item = ChannelSet> {
        assert!(
            k <= 24,
            "enumerating all bundles is only supported for k ≤ 24"
        );
        (0u64..(1u64 << k)).map(ChannelSet)
    }

    /// Sum of the prices of the channels in the bundle.
    pub fn total_price(&self, prices: &[f64]) -> f64 {
        self.iter().map(|j| prices[j]).sum()
    }
}

impl std::fmt::Display for ChannelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, j) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{j}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_membership() {
        let s = ChannelSet::from_channels([0, 3, 5]);
        assert!(s.contains(0) && s.contains(3) && s.contains(5));
        assert!(!s.contains(1) && !s.contains(63));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(ChannelSet::empty().is_empty());
        assert_eq!(ChannelSet::full(4).len(), 4);
        assert_eq!(ChannelSet::full(64).len(), 64);
        assert_eq!(ChannelSet::singleton(7).len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = ChannelSet::from_channels([0, 1, 2]);
        let b = ChannelSet::from_channels([2, 3]);
        assert_eq!(a.union(b), ChannelSet::from_channels([0, 1, 2, 3]));
        assert!(a.intersects(b));
        assert!(!a.intersects(ChannelSet::singleton(5)));
        assert!(ChannelSet::from_channels([0, 1]).is_subset_of(a));
        assert!(!a.is_subset_of(b));
    }

    #[test]
    fn iteration_order_is_ascending() {
        let s = ChannelSet::from_channels([5, 1, 9]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5, 9]);
        assert_eq!(s.to_string(), "{1,5,9}");
    }

    #[test]
    fn all_bundles_enumerates_power_set() {
        let bundles: Vec<ChannelSet> = ChannelSet::all_bundles(3).collect();
        assert_eq!(bundles.len(), 8);
        assert!(bundles.contains(&ChannelSet::empty()));
        assert!(bundles.contains(&ChannelSet::full(3)));
    }

    #[test]
    fn prices_are_summed_over_members() {
        let prices = [1.0, 2.0, 4.0, 8.0];
        let s = ChannelSet::from_channels([1, 3]);
        assert_eq!(s.total_price(&prices), 10.0);
        assert_eq!(ChannelSet::empty().total_price(&prices), 0.0);
    }

    proptest! {
        #[test]
        fn prop_with_without_roundtrip(bits in any::<u64>(), j in 0usize..64) {
            let s = ChannelSet::from_bits(bits);
            prop_assert!(s.with(j).contains(j));
            prop_assert!(!s.without(j).contains(j));
            prop_assert_eq!(s.with(j).without(j), s.without(j));
        }

        #[test]
        fn prop_union_intersection_cardinalities(a in any::<u64>(), b in any::<u64>()) {
            let sa = ChannelSet::from_bits(a);
            let sb = ChannelSet::from_bits(b);
            let both = ChannelSet::from_bits(a & b);
            prop_assert_eq!(sa.union(sb).len() + both.len(), sa.len() + sb.len());
            prop_assert_eq!(sa.intersects(sb), !both.is_empty());
        }
    }
}
