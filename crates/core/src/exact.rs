//! Exact optimal allocations by branch and bound.
//!
//! The combinatorial auction problem with conflict graph generalizes both
//! weighted independent set and combinatorial auctions, so exact solutions
//! are only tractable for small instances. This solver assigns the bidders
//! one by one (each receiving one of the `2^k` bundles), tracks the winner
//! sets per channel, prunes infeasible branches and uses the sum of the
//! remaining bidders' maximum values as an optimistic bound.
//!
//! It provides the ground truth against which the LP-rounding pipeline and
//! the greedy baselines are measured in the experiments (empirical
//! approximation ratios) and in the property-based tests.

use crate::allocation::Allocation;
use crate::channels::ChannelSet;
use crate::instance::AuctionInstance;

/// Hard limit on the number of explored search nodes (safety valve; the
/// solver returns the best allocation found so far when it is hit).
const NODE_LIMIT: usize = 5_000_000;

/// Result of the exact solver.
#[derive(Clone, Debug)]
pub struct ExactOutcome {
    /// The best allocation found.
    pub allocation: Allocation,
    /// Its social welfare.
    pub welfare: f64,
    /// Whether the search completed (true) or hit the node limit (false).
    pub proven_optimal: bool,
    /// Number of search nodes explored.
    pub nodes: usize,
}

struct Search<'a> {
    instance: &'a AuctionInstance,
    /// candidate bundles (with positive value) per bidder, plus the empty
    /// bundle implicitly
    candidate_bundles: Vec<Vec<(ChannelSet, f64)>>,
    /// suffix_max[v] = sum over bidders >= v of their maximum bundle value
    suffix_max: Vec<f64>,
    best_welfare: f64,
    best_bundles: Vec<ChannelSet>,
    nodes: usize,
    truncated: bool,
}

impl<'a> Search<'a> {
    fn assign(
        &mut self,
        bidder: usize,
        winners: &mut Vec<Vec<usize>>,
        bundles: &mut Vec<ChannelSet>,
        welfare: f64,
    ) {
        self.nodes += 1;
        if self.nodes > NODE_LIMIT {
            self.truncated = true;
            return;
        }
        if welfare > self.best_welfare {
            self.best_welfare = welfare;
            self.best_bundles = bundles.clone();
        }
        if bidder >= self.instance.num_bidders() {
            return;
        }
        if welfare + self.suffix_max[bidder] <= self.best_welfare + 1e-12 {
            return; // cannot beat the incumbent
        }
        // Branch 1..m: give the bidder one of its candidate bundles.
        let candidates = self.candidate_bundles[bidder].clone();
        for (bundle, value) in candidates {
            // feasibility check channel by channel
            let mut ok = true;
            for j in bundle.iter() {
                let mut trial = winners[j].clone();
                trial.push(bidder);
                if !self.instance.conflicts.is_channel_feasible(&trial, j) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue;
            }
            for j in bundle.iter() {
                winners[j].push(bidder);
            }
            bundles[bidder] = bundle;
            self.assign(bidder + 1, winners, bundles, welfare + value);
            bundles[bidder] = ChannelSet::empty();
            for j in bundle.iter() {
                winners[j].pop();
            }
            if self.truncated {
                return;
            }
        }
        // Branch 0: the bidder gets nothing.
        self.assign(bidder + 1, winners, bundles, welfare);
    }
}

/// Computes the optimal allocation of a (small) instance by branch and
/// bound.
pub fn solve_exact(instance: &AuctionInstance) -> ExactOutcome {
    let n = instance.num_bidders();
    let k = instance.num_channels;
    assert!(
        k <= 16,
        "exact search enumerates 2^k bundles per bidder; k ≤ 16 required"
    );

    let candidate_bundles: Vec<Vec<(ChannelSet, f64)>> = (0..n)
        .map(|v| {
            let mut cands: Vec<(ChannelSet, f64)> = ChannelSet::all_bundles(k)
                .filter(|b| !b.is_empty())
                .map(|b| (b, instance.value(v, b)))
                .filter(|&(_, val)| val > 0.0)
                .collect();
            // explore valuable bundles first so good incumbents appear early
            cands.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            cands
        })
        .collect();

    let mut suffix_max = vec![0.0; n + 1];
    for v in (0..n).rev() {
        let best = candidate_bundles[v]
            .iter()
            .map(|&(_, val)| val)
            .fold(0.0, f64::max);
        suffix_max[v] = suffix_max[v + 1] + best;
    }

    let mut search = Search {
        instance,
        candidate_bundles,
        suffix_max,
        best_welfare: 0.0,
        best_bundles: vec![ChannelSet::empty(); n],
        nodes: 0,
        truncated: false,
    };
    let mut winners: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut bundles = vec![ChannelSet::empty(); n];
    search.assign(0, &mut winners, &mut bundles, 0.0);

    let allocation = Allocation::from_bundles(search.best_bundles);
    debug_assert!(allocation.is_feasible(instance));
    ExactOutcome {
        welfare: search.best_welfare,
        allocation,
        proven_optimal: !search.truncated,
        nodes: search.nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ConflictStructure;
    use crate::valuation::{AdditiveValuation, Valuation, XorValuation};
    use ssa_conflict_graph::{ConflictGraph, VertexOrdering, WeightedConflictGraph};
    use std::sync::Arc;

    fn xor_bidder(k: usize, bids: Vec<(Vec<usize>, f64)>) -> Arc<dyn Valuation> {
        Arc::new(XorValuation::new(
            k,
            bids.into_iter()
                .map(|(chs, v)| (ChannelSet::from_channels(chs), v))
                .collect(),
        ))
    }

    #[test]
    fn exact_on_independent_bidders_serves_everyone() {
        let g = ConflictGraph::new(3);
        let bidders: Vec<Arc<dyn Valuation>> = vec![
            xor_bidder(2, vec![(vec![0], 2.0)]),
            xor_bidder(2, vec![(vec![1], 3.0)]),
            Arc::new(AdditiveValuation::new(vec![1.0, 1.0])),
        ];
        let inst = AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(3),
            1.0,
        );
        let out = solve_exact(&inst);
        assert!(out.proven_optimal);
        assert!((out.welfare - 7.0).abs() < 1e-9);
        assert!(out.allocation.is_feasible(&inst));
    }

    #[test]
    fn exact_on_clique_single_channel_picks_best_bidder() {
        let g = ConflictGraph::clique(4);
        let bidders: Vec<Arc<dyn Valuation>> = (0..4)
            .map(|i| xor_bidder(1, vec![(vec![0], 1.0 + i as f64)]))
            .collect();
        let inst = AuctionInstance::new(
            1,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(4),
            1.0,
        );
        let out = solve_exact(&inst);
        assert!((out.welfare - 4.0).abs() < 1e-9);
        assert_eq!(out.allocation.num_served(), 1);
    }

    #[test]
    fn exact_uses_channel_reuse_across_the_graph() {
        // path 0-1-2: bidders 0 and 2 can share the channel, 1 cannot join
        let g = ConflictGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let bidders: Vec<Arc<dyn Valuation>> = vec![
            xor_bidder(1, vec![(vec![0], 3.0)]),
            xor_bidder(1, vec![(vec![0], 4.0)]),
            xor_bidder(1, vec![(vec![0], 3.0)]),
        ];
        let inst = AuctionInstance::new(
            1,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(3),
            1.0,
        );
        let out = solve_exact(&inst);
        assert!(
            (out.welfare - 6.0).abs() < 1e-9,
            "serving 0 and 2 beats serving 1"
        );
    }

    #[test]
    fn exact_respects_weighted_aggregation() {
        // three bidders each hitting bidder 3 with 0.5: at most two of them
        // can share the channel with 3
        let mut g = WeightedConflictGraph::new(4);
        for u in 0..3 {
            g.set_weight(u, 3, 0.5);
        }
        let bidders: Vec<Arc<dyn Valuation>> = (0..4)
            .map(|i| xor_bidder(1, vec![(vec![0], if i == 3 { 10.0 } else { 1.0 })]))
            .collect();
        let inst = AuctionInstance::new(
            1,
            bidders,
            ConflictStructure::Weighted(g),
            VertexOrdering::identity(4),
            1.0,
        );
        let out = solve_exact(&inst);
        // serve bidder 3 plus one of the others = 11
        assert!((out.welfare - 11.0).abs() < 1e-9);
        assert!(out.allocation.is_feasible(&inst));
    }

    #[test]
    fn exact_is_an_upper_bound_for_greedy() {
        use crate::greedy::{greedy_by_bundle_value, greedy_channel_by_channel};
        let g = ConflictGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let bidders: Vec<Arc<dyn Valuation>> = (0..5)
            .map(|i| {
                xor_bidder(
                    2,
                    vec![(vec![0], 1.0 + i as f64), (vec![0, 1], 2.5 + i as f64)],
                )
            })
            .collect();
        let inst = AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(5),
            1.0,
        );
        let exact = solve_exact(&inst);
        let g1 = greedy_channel_by_channel(&inst).social_welfare(&inst);
        let g2 = greedy_by_bundle_value(&inst).social_welfare(&inst);
        assert!(exact.welfare >= g1 - 1e-9);
        assert!(exact.welfare >= g2 - 1e-9);
    }
}
