//! Bidder valuations and demand oracles (Section 2.2 of the paper).
//!
//! The paper puts no restriction on the valuations `b_{v,T}` — not even
//! monotonicity — and accesses them through *demand oracles*: given
//! per-channel prices `p_j`, a bidder reports the bundle maximizing
//! `b_{v,T} − Σ_{j∈T} p_j`. This module provides the [`Valuation`] trait
//! (value queries plus a demand oracle) and the bidding languages used by
//! the examples and experiments:
//!
//! * [`TabularValuation`] — arbitrary, possibly non-monotone `b_{v,T}` given
//!   explicitly for a list of bundles (everything else is 0),
//! * [`XorValuation`] — XOR of atomic bids (value of `T` = best atomic bid
//!   contained in `T`),
//! * [`SingleMindedValuation`] — a single desired bundle,
//! * [`AdditiveValuation`], [`UnitDemandValuation`],
//!   [`BudgetedAdditiveValuation`], [`SymmetricValuation`] — standard
//!   classes with efficient exact demand oracles.

use crate::channels::ChannelSet;
use crate::snapshot::ValuationSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A bidder valuation over bundles of `k` channels, queried by value or by
/// demand oracle.
pub trait Valuation: Send + Sync {
    /// The number of channels `k` this valuation is defined over.
    fn num_channels(&self) -> usize;

    /// The value `b_{v,T}` of bundle `T`. Must return 0 for the empty
    /// bundle unless the bidder genuinely values "nothing" (the paper allows
    /// arbitrary values, but the LP only ever queries non-empty bundles with
    /// positive value).
    fn value(&self, bundle: ChannelSet) -> f64;

    /// The demand oracle: a bundle maximizing `value(T) − Σ_{j∈T} prices[j]`.
    ///
    /// The default implementation searches all `2^k` bundles (exact for any
    /// valuation, exponential in `k`); implementations with structure
    /// override it with polynomial exact versions.
    fn demand(&self, prices: &[f64]) -> ChannelSet {
        assert_eq!(prices.len(), self.num_channels());
        let k = self.num_channels();
        assert!(
            k <= 20,
            "default demand oracle only supports k ≤ 20; override it"
        );
        let mut best = ChannelSet::empty();
        let mut best_utility = self.value(best) - 0.0;
        for bundle in ChannelSet::all_bundles(k) {
            let utility = self.value(bundle) - bundle.total_price(prices);
            if utility > best_utility + 1e-12 {
                best_utility = utility;
                best = bundle;
            }
        }
        best
    }

    /// Top-`p` demand oracle: up to `p` **distinct** bundles in
    /// non-increasing utility order, each with strictly positive utility
    /// at `prices`, led by the [`Valuation::demand`] bundle. The master is
    /// seeded with each bidder's top bundles at zero prices
    /// ([`crate::solver::SolverBuilder::seed_top_bundles`]);
    /// the pricing loop asks for `p = 1`.
    ///
    /// The default returns just the demand bundle; structured bidding
    /// languages override it where runner-up bundles are cheap to
    /// enumerate.
    fn demand_top(&self, prices: &[f64], p: usize) -> Vec<ChannelSet> {
        let best = self.demand(prices);
        if p == 0 || best.is_empty() {
            return Vec::new();
        }
        vec![best]
    }

    /// The bidder's maximum value over all bundles (demand at zero prices).
    fn max_value(&self) -> f64 {
        let prices = vec![0.0; self.num_channels()];
        self.value(self.demand(&prices))
    }

    /// A serializable snapshot of this valuation, or `None` for custom
    /// types outside the built-in bidding languages. Snapshots feed the
    /// persistence seam ([`crate::snapshot`]) and the sealed-bid
    /// commitment payloads, so the encoding must be canonical: two
    /// semantically equal valuations of the same class must snapshot
    /// equal (up to [`ValuationSnapshot::canonical`]).
    fn snapshot(&self) -> Option<ValuationSnapshot> {
        None
    }
}

/// Arbitrary valuations given explicitly for a list of bundles; every bundle
/// not listed has value 0. Not necessarily monotone.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TabularValuation {
    num_channels: usize,
    table: HashMap<u64, f64>,
}

impl TabularValuation {
    /// Creates a tabular valuation from `(bundle, value)` pairs.
    pub fn new(num_channels: usize, entries: Vec<(ChannelSet, f64)>) -> Self {
        let mut table = HashMap::with_capacity(entries.len());
        for (bundle, value) in entries {
            table.insert(bundle.bits(), value);
        }
        TabularValuation {
            num_channels,
            table,
        }
    }
}

impl Valuation for TabularValuation {
    fn num_channels(&self) -> usize {
        self.num_channels
    }

    fn value(&self, bundle: ChannelSet) -> f64 {
        self.table.get(&bundle.bits()).copied().unwrap_or(0.0)
    }

    fn demand(&self, prices: &[f64]) -> ChannelSet {
        assert_eq!(prices.len(), self.num_channels);
        // With non-negative prices it suffices to compare the listed bundles
        // and the empty bundle; with (unusual) negative prices the exhaustive
        // default is used for exactness when k is small.
        if prices.iter().any(|&p| p < 0.0) && self.num_channels <= 20 {
            let mut best = ChannelSet::empty();
            let mut best_utility = self.value(best);
            for bundle in ChannelSet::all_bundles(self.num_channels) {
                let utility = self.value(bundle) - bundle.total_price(prices);
                if utility > best_utility + 1e-12 {
                    best_utility = utility;
                    best = bundle;
                }
            }
            return best;
        }
        let mut best = ChannelSet::empty();
        let mut best_utility = self.value(best);
        for (&bits, &value) in &self.table {
            let bundle = ChannelSet::from_bits(bits);
            let utility = value - bundle.total_price(prices);
            if utility > best_utility + 1e-12 {
                best_utility = utility;
                best = bundle;
            }
        }
        best
    }

    fn demand_top(&self, prices: &[f64], p: usize) -> Vec<ChannelSet> {
        // Negative prices fall back to the (exact) single-column default;
        // otherwise the listed bundles are the only candidates, so the
        // top-p improving bundles come from one sort.
        if p <= 1 || prices.iter().any(|&p| p < 0.0) {
            let best = self.demand(prices);
            return if p == 0 || best.is_empty() {
                Vec::new()
            } else {
                vec![best]
            };
        }
        let baseline = self.value(ChannelSet::empty());
        let mut candidates: Vec<(f64, u64)> = self
            .table
            .iter()
            .map(|(&bits, &value)| {
                (
                    value - ChannelSet::from_bits(bits).total_price(prices),
                    bits,
                )
            })
            .filter(|&(utility, bits)| bits != 0 && utility > baseline + 1e-12)
            .collect();
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        candidates
            .into_iter()
            .take(p)
            .map(|(_, bits)| ChannelSet::from_bits(bits))
            .collect()
    }

    fn snapshot(&self) -> Option<ValuationSnapshot> {
        // The hash map iterates in arbitrary order; sort so equal tables
        // always snapshot equal.
        let mut entries: Vec<(u64, f64)> = self.table.iter().map(|(&b, &v)| (b, v)).collect();
        entries.sort_by_key(|e| e.0);
        Some(ValuationSnapshot::Tabular {
            num_channels: self.num_channels,
            entries,
        })
    }
}

/// XOR bidding language: atomic bids `(S_i, v_i)`; the value of `T` is the
/// largest `v_i` with `S_i ⊆ T` (0 if none). Monotone by construction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct XorValuation {
    num_channels: usize,
    bids: Vec<(ChannelSet, f64)>,
}

impl XorValuation {
    /// Creates an XOR valuation from atomic bids.
    pub fn new(num_channels: usize, bids: Vec<(ChannelSet, f64)>) -> Self {
        XorValuation { num_channels, bids }
    }

    /// The atomic bids.
    pub fn bids(&self) -> &[(ChannelSet, f64)] {
        &self.bids
    }
}

impl Valuation for XorValuation {
    fn num_channels(&self) -> usize {
        self.num_channels
    }

    fn value(&self, bundle: ChannelSet) -> f64 {
        self.bids
            .iter()
            .filter(|(s, _)| s.is_subset_of(bundle))
            .map(|&(_, v)| v)
            .fold(0.0, f64::max)
    }

    fn demand(&self, prices: &[f64]) -> ChannelSet {
        assert_eq!(prices.len(), self.num_channels);
        // The optimal bundle is an atomic bid's bundle (taking more channels
        // can only add cost at non-negative prices), possibly extended with
        // negatively-priced channels.
        let free_channels: ChannelSet =
            ChannelSet::from_channels((0..self.num_channels).filter(|&j| prices[j] < 0.0));
        let mut best = free_channels;
        let mut best_utility = self.value(best) - best.total_price(prices);
        for &(bundle, _) in &self.bids {
            let candidate = bundle.union(free_channels);
            let utility = self.value(candidate) - candidate.total_price(prices);
            if utility > best_utility + 1e-12 {
                best_utility = utility;
                best = candidate;
            }
        }
        if best_utility < 0.0 {
            ChannelSet::empty()
        } else {
            best
        }
    }

    fn demand_top(&self, prices: &[f64], p: usize) -> Vec<ChannelSet> {
        if p <= 1 {
            let best = self.demand(prices);
            return if p == 0 || best.is_empty() {
                Vec::new()
            } else {
                vec![best]
            };
        }
        // Candidates are exactly the atomic-bid bundles extended with the
        // negatively-priced channels (see `demand`); rank them by utility
        // and keep the distinct positive-utility prefix.
        let free_channels: ChannelSet =
            ChannelSet::from_channels((0..self.num_channels).filter(|&j| prices[j] < 0.0));
        let mut candidates: Vec<(f64, u64)> = self
            .bids
            .iter()
            .map(|&(bundle, _)| bundle.union(free_channels))
            .chain(std::iter::once(free_channels))
            .filter(|candidate| !candidate.is_empty())
            .map(|candidate| {
                (
                    self.value(candidate) - candidate.total_price(prices),
                    candidate.bits(),
                )
            })
            .filter(|&(utility, _)| utility > 1e-12)
            .collect();
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        candidates.dedup_by_key(|c| c.1);
        candidates
            .into_iter()
            .take(p)
            .map(|(_, bits)| ChannelSet::from_bits(bits))
            .collect()
    }

    fn snapshot(&self) -> Option<ValuationSnapshot> {
        Some(ValuationSnapshot::Xor {
            num_channels: self.num_channels,
            bids: self.bids.iter().map(|&(s, v)| (s.bits(), v)).collect(),
        })
    }
}

/// A single-minded bidder: value `v` for any superset of the desired bundle,
/// 0 otherwise.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SingleMindedValuation {
    num_channels: usize,
    desired: ChannelSet,
    value: f64,
}

impl SingleMindedValuation {
    /// Creates a single-minded valuation.
    pub fn new(num_channels: usize, desired: ChannelSet, value: f64) -> Self {
        SingleMindedValuation {
            num_channels,
            desired,
            value,
        }
    }

    /// The desired bundle.
    pub fn desired(&self) -> ChannelSet {
        self.desired
    }
}

impl Valuation for SingleMindedValuation {
    fn num_channels(&self) -> usize {
        self.num_channels
    }

    fn value(&self, bundle: ChannelSet) -> f64 {
        if self.desired.is_subset_of(bundle) {
            self.value
        } else {
            0.0
        }
    }

    fn demand(&self, prices: &[f64]) -> ChannelSet {
        assert_eq!(prices.len(), self.num_channels);
        let utility = self.value - self.desired.total_price(prices);
        if utility > 0.0 {
            self.desired
        } else {
            ChannelSet::empty()
        }
    }

    fn snapshot(&self) -> Option<ValuationSnapshot> {
        Some(ValuationSnapshot::SingleMinded {
            num_channels: self.num_channels,
            desired: self.desired.bits(),
            value: self.value,
        })
    }
}

/// Additive valuation: per-channel values, `b(T) = Σ_{j∈T} w_j`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdditiveValuation {
    channel_values: Vec<f64>,
}

impl AdditiveValuation {
    /// Creates an additive valuation from per-channel values.
    pub fn new(channel_values: Vec<f64>) -> Self {
        AdditiveValuation { channel_values }
    }
}

impl Valuation for AdditiveValuation {
    fn num_channels(&self) -> usize {
        self.channel_values.len()
    }

    fn value(&self, bundle: ChannelSet) -> f64 {
        bundle.iter().map(|j| self.channel_values[j]).sum()
    }

    fn demand(&self, prices: &[f64]) -> ChannelSet {
        assert_eq!(prices.len(), self.num_channels());
        ChannelSet::from_channels(
            (0..self.channel_values.len()).filter(|&j| self.channel_values[j] - prices[j] > 0.0),
        )
    }

    fn snapshot(&self) -> Option<ValuationSnapshot> {
        Some(ValuationSnapshot::Additive {
            channel_values: self.channel_values.clone(),
        })
    }
}

/// Unit-demand valuation: `b(T) = max_{j∈T} w_j` — the bidder can only use
/// one channel.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UnitDemandValuation {
    channel_values: Vec<f64>,
}

impl UnitDemandValuation {
    /// Creates a unit-demand valuation from per-channel values.
    pub fn new(channel_values: Vec<f64>) -> Self {
        UnitDemandValuation { channel_values }
    }
}

impl Valuation for UnitDemandValuation {
    fn num_channels(&self) -> usize {
        self.channel_values.len()
    }

    fn value(&self, bundle: ChannelSet) -> f64 {
        bundle
            .iter()
            .map(|j| self.channel_values[j])
            .fold(0.0, f64::max)
    }

    fn demand(&self, prices: &[f64]) -> ChannelSet {
        assert_eq!(prices.len(), self.num_channels());
        let mut best = ChannelSet::empty();
        let mut best_utility = 0.0;
        #[allow(clippy::needless_range_loop)]
        for j in 0..self.channel_values.len() {
            let utility = self.channel_values[j] - prices[j];
            if utility > best_utility + 1e-12 {
                best_utility = utility;
                best = ChannelSet::singleton(j);
            }
        }
        best
    }

    fn snapshot(&self) -> Option<ValuationSnapshot> {
        Some(ValuationSnapshot::UnitDemand {
            channel_values: self.channel_values.clone(),
        })
    }
}

/// Budgeted-additive valuation: `b(T) = min(budget, Σ_{j∈T} w_j)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BudgetedAdditiveValuation {
    channel_values: Vec<f64>,
    budget: f64,
}

impl BudgetedAdditiveValuation {
    /// Creates a budgeted-additive valuation.
    pub fn new(channel_values: Vec<f64>, budget: f64) -> Self {
        BudgetedAdditiveValuation {
            channel_values,
            budget,
        }
    }
}

impl Valuation for BudgetedAdditiveValuation {
    fn num_channels(&self) -> usize {
        self.channel_values.len()
    }

    fn value(&self, bundle: ChannelSet) -> f64 {
        let sum: f64 = bundle.iter().map(|j| self.channel_values[j]).sum();
        sum.min(self.budget)
    }

    // Demand for budgeted-additive valuations is a knapsack-type problem;
    // the exact exhaustive default oracle is used (the experiments keep
    // k ≤ 16). A bidder with more channels should wrap this class and
    // provide an approximate oracle explicitly.

    fn snapshot(&self) -> Option<ValuationSnapshot> {
        Some(ValuationSnapshot::BudgetedAdditive {
            channel_values: self.channel_values.clone(),
            budget: self.budget,
        })
    }
}

/// Symmetric valuation: the value depends only on the number of channels,
/// `b(T) = v_{|T|}` for a given vector `v_0 = 0, v_1, …, v_k`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SymmetricValuation {
    /// `per_cardinality[c]` is the value of any bundle with `c` channels;
    /// index 0 must be 0.
    per_cardinality: Vec<f64>,
}

impl SymmetricValuation {
    /// Creates a symmetric valuation from per-cardinality values
    /// (`per_cardinality[0]` is forced to 0, and the vector length must be
    /// `k + 1`).
    pub fn new(mut per_cardinality: Vec<f64>) -> Self {
        assert!(!per_cardinality.is_empty());
        per_cardinality[0] = 0.0;
        SymmetricValuation { per_cardinality }
    }
}

impl Valuation for SymmetricValuation {
    fn num_channels(&self) -> usize {
        self.per_cardinality.len() - 1
    }

    fn value(&self, bundle: ChannelSet) -> f64 {
        self.per_cardinality[bundle.len().min(self.per_cardinality.len() - 1)]
    }

    fn demand(&self, prices: &[f64]) -> ChannelSet {
        assert_eq!(prices.len(), self.num_channels());
        // Exact: for each cardinality c, the cheapest c channels are optimal.
        let mut order: Vec<usize> = (0..self.num_channels()).collect();
        order.sort_by(|&a, &b| {
            prices[a]
                .partial_cmp(&prices[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut best = ChannelSet::empty();
        let mut best_utility = 0.0;
        let mut bundle = ChannelSet::empty();
        let mut cost = 0.0;
        for (c, &j) in order.iter().enumerate() {
            bundle = bundle.with(j);
            cost += prices[j];
            let utility = self.per_cardinality[c + 1] - cost;
            if utility > best_utility + 1e-12 {
                best_utility = utility;
                best = bundle;
            }
        }
        best
    }

    fn snapshot(&self) -> Option<ValuationSnapshot> {
        Some(ValuationSnapshot::Symmetric {
            per_cardinality: self.per_cardinality.clone(),
        })
    }
}

/// Checks that a demand-oracle answer is at least as good as every bundle in
/// `candidates` — a helper used by tests and by the mechanism's sanity
/// checks.
pub fn demand_is_optimal_among(
    valuation: &dyn Valuation,
    prices: &[f64],
    candidates: &[ChannelSet],
) -> bool {
    let answer = valuation.demand(prices);
    let answer_utility = valuation.value(answer) - answer.total_price(prices);
    candidates.iter().all(|&c| {
        let u = valuation.value(c) - c.total_price(prices);
        answer_utility >= u - 1e-9
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_bundles(k: usize) -> Vec<ChannelSet> {
        ChannelSet::all_bundles(k).collect()
    }

    #[test]
    fn tabular_valuation_values_and_demand() {
        let v = TabularValuation::new(
            3,
            vec![
                (ChannelSet::from_channels([0]), 5.0),
                (ChannelSet::from_channels([1, 2]), 8.0),
                (ChannelSet::from_channels([0, 1, 2]), 6.0), // non-monotone!
            ],
        );
        assert_eq!(v.value(ChannelSet::from_channels([0])), 5.0);
        assert_eq!(v.value(ChannelSet::from_channels([1])), 0.0);
        assert_eq!(v.value(ChannelSet::full(3)), 6.0);
        // with cheap prices the bidder wants {1,2}
        let d = v.demand(&[1.0, 1.0, 1.0]);
        assert_eq!(d, ChannelSet::from_channels([1, 2]));
        // with expensive channel 2 the bidder switches to {0}
        let d2 = v.demand(&[1.0, 1.0, 10.0]);
        assert_eq!(d2, ChannelSet::from_channels([0]));
        // if everything is overpriced the bidder demands nothing
        let d3 = v.demand(&[100.0, 100.0, 100.0]);
        assert!(d3.is_empty());
    }

    #[test]
    fn xor_valuation_takes_best_contained_bid() {
        let v = XorValuation::new(
            3,
            vec![
                (ChannelSet::from_channels([0]), 4.0),
                (ChannelSet::from_channels([1, 2]), 7.0),
            ],
        );
        assert_eq!(v.value(ChannelSet::from_channels([0, 1])), 4.0);
        assert_eq!(v.value(ChannelSet::full(3)), 7.0);
        assert_eq!(v.value(ChannelSet::from_channels([2])), 0.0);
        assert!(v.max_value() == 7.0);
        let d = v.demand(&[0.5, 3.0, 3.0]);
        assert_eq!(d, ChannelSet::from_channels([0]));
    }

    #[test]
    fn single_minded_demand_is_all_or_nothing() {
        let v = SingleMindedValuation::new(4, ChannelSet::from_channels([1, 3]), 10.0);
        assert_eq!(v.value(ChannelSet::from_channels([1, 3])), 10.0);
        assert_eq!(v.value(ChannelSet::full(4)), 10.0);
        assert_eq!(v.value(ChannelSet::from_channels([1])), 0.0);
        assert_eq!(
            v.demand(&[1.0, 4.0, 1.0, 4.0]),
            ChannelSet::from_channels([1, 3])
        );
        assert!(v.demand(&[1.0, 6.0, 1.0, 6.0]).is_empty());
    }

    #[test]
    fn additive_and_unit_demand() {
        let add = AdditiveValuation::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(add.value(ChannelSet::full(3)), 6.0);
        assert_eq!(
            add.demand(&[2.0, 2.0, 1.0]),
            ChannelSet::from_channels([0, 2])
        );
        let unit = UnitDemandValuation::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(unit.value(ChannelSet::full(3)), 3.0);
        assert_eq!(unit.demand(&[2.5, 0.1, 0.1]), ChannelSet::singleton(2));
    }

    #[test]
    fn budgeted_additive_caps_value() {
        let v = BudgetedAdditiveValuation::new(vec![4.0, 4.0, 4.0], 6.0);
        assert_eq!(v.value(ChannelSet::singleton(0)), 4.0);
        assert_eq!(v.value(ChannelSet::full(3)), 6.0);
        // at price 1 each, taking two channels gives 6 - 2 = 4, taking three
        // gives 6 - 3 = 3, taking one gives 3 -> demand has two channels
        let d = v.demand(&[1.0, 1.0, 1.0]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn symmetric_valuation_picks_cheapest_channels() {
        let v = SymmetricValuation::new(vec![0.0, 5.0, 8.0, 9.0]);
        assert_eq!(v.value(ChannelSet::from_channels([0, 2])), 8.0);
        let d = v.demand(&[4.0, 0.5, 2.0]);
        // cheapest channels are 1 (0.5) and 2 (2.0): utilities are
        // c=1: 5-0.5=4.5, c=2: 8-2.5=5.5, c=3: 9-6.5=2.5 -> take {1,2}
        assert_eq!(d, ChannelSet::from_channels([1, 2]));
    }

    #[test]
    fn default_demand_oracle_is_exact_for_tabular() {
        let v = TabularValuation::new(
            4,
            vec![
                (ChannelSet::from_channels([0, 1]), 9.0),
                (ChannelSet::from_channels([2]), 3.0),
                (ChannelSet::from_channels([0, 2, 3]), 11.0),
            ],
        );
        let prices = [2.0, 3.0, 1.0, 4.0];
        assert!(demand_is_optimal_among(&v, &prices, &all_bundles(4)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn prop_structured_demand_oracles_are_exact(
            kind in 0usize..5,
            values in prop::collection::vec(0.0f64..10.0, 5),
            prices in prop::collection::vec(0.0f64..10.0, 5),
            budget in 1.0f64..20.0,
        ) {
            let k = 5;
            let valuation: Box<dyn Valuation> = match kind {
                0 => Box::new(AdditiveValuation::new(values.clone())),
                1 => Box::new(UnitDemandValuation::new(values.clone())),
                2 => Box::new(BudgetedAdditiveValuation::new(values.clone(), budget)),
                3 => {
                    let mut per_card = vec![0.0];
                    let mut acc = 0.0;
                    for v in &values {
                        acc += v;
                        per_card.push(acc);
                    }
                    Box::new(SymmetricValuation::new(per_card))
                }
                _ => Box::new(XorValuation::new(
                    k,
                    vec![
                        (ChannelSet::from_channels([0, 1]), values[0] + values[1]),
                        (ChannelSet::from_channels([2]), values[2]),
                        (ChannelSet::from_channels([3, 4]), values[3]),
                    ],
                )),
            };
            prop_assert!(demand_is_optimal_among(valuation.as_ref(), &prices, &all_bundles(k)),
                "demand oracle of kind {kind} is not exact");
        }

        #[test]
        fn prop_xor_valuation_is_monotone(
            bids in prop::collection::vec((0u64..32, 0.0f64..10.0), 1..6),
            bundle in 0u64..32,
            extra in 0usize..5,
        ) {
            let v = XorValuation::new(5, bids.into_iter().map(|(b, val)| (ChannelSet::from_bits(b), val)).collect());
            let t = ChannelSet::from_bits(bundle);
            prop_assert!(v.value(t.with(extra)) >= v.value(t) - 1e-12);
        }
    }
}
