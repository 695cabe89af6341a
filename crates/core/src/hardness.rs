//! Lower-bound instance constructions (Theorems 5, 6 and 18).
//!
//! The paper complements its algorithms with hardness results:
//!
//! * **Theorem 5** — for `k = 1` no `ρ/2^O(√log ρ)` approximation exists
//!   (from independent set in bounded-degree graphs). The corresponding
//!   hard *family* is bounded-degree graphs; [`bounded_degree_instance`]
//!   builds such instances so the experiments can measure how the
//!   heuristics degrade as the degree (and hence ρ) grows.
//! * **Theorem 6** — even for `ρ = 1` no `k^(1/2−ε)` approximation exists
//!   (ordinary combinatorial auctions); [`clique_auction_instance`] builds
//!   the clique-conflict instances with single-minded bidders on disjoint
//!   "private" channel bundles that exhibit the `√k` behaviour.
//! * **Theorem 18** — for asymmetric channels no `ρ·k/2^O(√log ρk)`
//!   approximation exists. [`theorem_18_instance`] implements the paper's
//!   reduction verbatim: the edges of a bounded-degree graph are partitioned
//!   into `k` per-channel conflict graphs, each of inductive independence
//!   number at most `ρ = d/k`, and every bidder values only the full bundle
//!   `[k]`; feasible allocations of value `b` then correspond exactly to
//!   independent sets of size `b` in the original graph.

use crate::channels::ChannelSet;
use crate::instance::{AuctionInstance, ConflictStructure};
use crate::valuation::{SingleMindedValuation, Valuation, XorValuation};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ssa_conflict_graph::{ConflictGraph, VertexOrdering};
use std::sync::Arc;

/// Builds a random graph with maximum degree (approximately) `degree` on `n`
/// vertices, plus single-channel unit-value bidders — the hard family behind
/// Theorem 5.
pub fn bounded_degree_instance(n: usize, degree: usize, seed: u64) -> AuctionInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = ConflictGraph::new(n);
    // random near-regular graph: repeatedly add edges between low-degree pairs
    let target_edges = n * degree / 2;
    let mut attempts = 0;
    while g.num_edges() < target_edges && attempts < 20 * target_edges.max(1) {
        attempts += 1;
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v && g.degree(u) < degree && g.degree(v) < degree {
            g.add_edge(u, v);
        }
    }
    let bidders: Vec<Arc<dyn Valuation>> = (0..n)
        .map(|_| {
            Arc::new(XorValuation::new(1, vec![(ChannelSet::singleton(0), 1.0)]))
                as Arc<dyn Valuation>
        })
        .collect();
    let ordering = VertexOrdering::identity(n);
    let rho = ssa_conflict_graph::certified_rho(&g, &ordering).rho_ceil();
    AuctionInstance::new(1, bidders, ConflictStructure::Binary(g), ordering, rho)
}

/// Builds the `ρ = 1` hard family of Theorem 6: a clique conflict graph
/// (an ordinary combinatorial auction) with `k` channels and `k`
/// single-minded bidders — one per "private" channel — plus one bidder that
/// wants the whole spectrum. The optimum serves the `k` singletons (welfare
/// `k`), while bundle-greedy style algorithms are attracted by the big
/// bidder (welfare `√k`-ish when its value is `√k`).
pub fn clique_auction_instance(k: usize) -> AuctionInstance {
    let n = k + 1;
    let g = ConflictGraph::clique(n);
    let mut bidders: Vec<Arc<dyn Valuation>> = Vec::with_capacity(n);
    for j in 0..k {
        bidders.push(Arc::new(SingleMindedValuation::new(
            k,
            ChannelSet::singleton(j),
            1.0,
        )));
    }
    // the grand bidder wants everything and is worth sqrt(k)+epsilon, which
    // is exactly the trade-off the sqrt(k) lower bound is built on
    bidders.push(Arc::new(SingleMindedValuation::new(
        k,
        ChannelSet::full(k),
        (k as f64).sqrt() + 0.5,
    )));
    let ordering = VertexOrdering::identity(n);
    AuctionInstance::new(k, bidders, ConflictStructure::Binary(g), ordering, 1.0)
}

/// The edge-partition construction of Theorem 18.
///
/// Given a base conflict graph `G` (ideally of bounded degree `d`) and a
/// number of channels `k`, the edges incident to each vertex from
/// lower-indexed vertices are distributed round-robin over the `k`
/// per-channel graphs, so each per-channel graph has inductive independence
/// number at most `⌈d/k⌉` for the identity ordering. Every bidder values
/// only the full bundle `[k]` at 1, so an allocation of welfare `b`
/// corresponds to an independent set of size `b` in `G`.
pub fn theorem_18_instance(base: &ConflictGraph, k: usize, seed: u64) -> AuctionInstance {
    let n = base.num_vertices();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graphs: Vec<ConflictGraph> = (0..k).map(|_| ConflictGraph::new(n)).collect();
    // distribute each vertex's backward edges over the channels so each
    // channel receives at most ceil(backward_degree / k) of them
    for v in 0..n {
        let mut backward: Vec<usize> = base
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| u < v)
            .collect();
        backward.shuffle(&mut rng);
        for (idx, u) in backward.into_iter().enumerate() {
            graphs[idx % k].add_edge(u, v);
        }
    }
    let bidders: Vec<Arc<dyn Valuation>> = (0..n)
        .map(|_| {
            Arc::new(XorValuation::new(k, vec![(ChannelSet::full(k), 1.0)])) as Arc<dyn Valuation>
        })
        .collect();
    let ordering = VertexOrdering::identity(n);
    let rho = crate::asymmetric::certified_rho_across_channels(&graphs, &ordering).rho_ceil();
    AuctionInstance::new(
        k,
        bidders,
        ConflictStructure::AsymmetricBinary(graphs),
        ordering,
        rho,
    )
}

/// The size of the maximum independent set of the base graph equals the
/// optimal welfare of the Theorem 18 instance built from it — exposed for
/// the experiments to compute the exact optimum cheaply on the base graph
/// instead of the auction instance.
pub fn theorem_18_optimum(base: &ConflictGraph) -> f64 {
    ssa_conflict_graph::exact_max_weight_independent_set(base, &vec![1.0; base.num_vertices()])
        .total_weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_exact;
    use crate::solver::SolverBuilder;

    #[test]
    fn bounded_degree_instance_respects_degree_and_rho() {
        let inst = bounded_degree_instance(30, 4, 7);
        if let ConflictStructure::Binary(g) = &inst.conflicts {
            assert!(g.max_degree() <= 4);
            assert!(
                inst.rho <= 4.0 + 1e-9,
                "rho {} exceeds the degree bound",
                inst.rho
            );
        } else {
            panic!("expected a binary structure");
        }
    }

    #[test]
    fn clique_auction_instance_has_rho_one_and_known_optimum() {
        let k = 4;
        let inst = clique_auction_instance(k);
        assert_eq!(inst.num_bidders(), k + 1);
        let exact = solve_exact(&inst);
        // the k singleton bidders together are worth k > sqrt(k) + 0.5
        assert!((exact.welfare - k as f64).abs() < 1e-9);
    }

    #[test]
    fn theorem_18_instance_welfare_equals_independent_set() {
        // base graph: a 5-cycle; maximum independent set has size 2
        let base = ConflictGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let optimum = theorem_18_optimum(&base);
        assert_eq!(optimum, 2.0);
        let inst = theorem_18_instance(&base, 2, 3);
        let exact = solve_exact(&inst);
        assert!(
            (exact.welfare - optimum).abs() < 1e-9,
            "auction optimum {} must equal the base independent-set optimum {}",
            exact.welfare,
            optimum
        );
    }

    #[test]
    fn theorem_18_per_channel_rho_is_reduced() {
        // base graph with max degree 4 split over 2 channels: each channel
        // graph has backward degree at most 2, so rho (identity ordering) is
        // at most ceil(4/2) = 2... the certified value may be smaller.
        let base = ConflictGraph::from_edges(
            8,
            &[
                (0, 4),
                (1, 4),
                (2, 4),
                (3, 4),
                (0, 5),
                (1, 5),
                (2, 6),
                (3, 7),
            ],
        );
        let inst = theorem_18_instance(&base, 2, 11);
        assert!(inst.rho <= 2.0 + 1e-9);
    }

    #[test]
    fn pipeline_runs_on_theorem_18_instances() {
        let base = ConflictGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let inst = theorem_18_instance(&base, 3, 5);
        let solver = SolverBuilder::new().build();
        let outcome = solver.solve(&inst);
        assert!(outcome.allocation.is_feasible(&inst));
        // welfare can only come from bidders holding the full bundle
        for v in 0..inst.num_bidders() {
            let b = outcome.allocation.bundle(v);
            assert!(b.is_empty() || b == ChannelSet::full(3) || inst.value(v, b) == 0.0);
        }
    }
}
