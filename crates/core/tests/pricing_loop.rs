//! The pricing loop itself must reach the LP optimum: with favorite-only
//! seeding (`seed_top_bundles = 1`) the initial master misses most of the
//! optimum's support, so the demand oracles really generate columns over
//! several rounds. On random and degenerate (duplicated-row) instances the
//! converged objective must match ground-truth bundle enumeration.

use proptest::prelude::*;
use ssa_conflict_graph::{ConflictGraph, VertexOrdering};
use ssa_core::lp_formulation::{solve_relaxation, solve_relaxation_explicit};
use ssa_core::{
    AuctionInstance, ConflictStructure, SolverBuilder, TabularValuation, Valuation, XorValuation,
};
use std::sync::Arc;

/// A bidder described by plain data so proptest can shrink it.
#[derive(Debug, Clone)]
enum BidderSpec {
    /// XOR over atomic (channel, value) bids.
    Xor(Vec<(usize, f64)>),
    /// Tabular over explicit (bundle bits, value) rows.
    Tabular(Vec<(u64, f64)>),
}

impl BidderSpec {
    fn build(&self, k: usize) -> Arc<dyn Valuation> {
        match self {
            BidderSpec::Xor(bids) => {
                let bids = bids
                    .iter()
                    .map(|&(j, v)| (ssa_core::ChannelSet::from_channels([j % k]), v))
                    .collect();
                Arc::new(XorValuation::new(k, bids))
            }
            BidderSpec::Tabular(rows) => {
                let mask = (1u64 << k) - 1;
                let rows = rows
                    .iter()
                    // `.max(1)`: an empty bundle with positive value is
                    // semantically bogus (the paper normalizes b_{v,∅} = 0)
                    // and would be free welfare only the enumerating
                    // formulation can see.
                    .map(|&(bits, v)| (ssa_core::ChannelSet::from_bits((bits & mask).max(1)), v))
                    .collect();
                Arc::new(TabularValuation::new(k, rows))
            }
        }
    }
}

#[derive(Debug, Clone)]
struct InstanceSpec {
    num_channels: usize,
    bidders: Vec<BidderSpec>,
    edges: Vec<(usize, usize)>,
    /// Indices of bidders whose valuation is overwritten with bidder 0's —
    /// duplicated bidders on a shared clique produce duplicated master rows
    /// and massively degenerate duals.
    duplicates: Vec<usize>,
}

impl InstanceSpec {
    fn build(&self) -> AuctionInstance {
        let n = self.bidders.len();
        let mut bidders: Vec<Arc<dyn Valuation>> = self
            .bidders
            .iter()
            .map(|b| b.build(self.num_channels))
            .collect();
        for &d in &self.duplicates {
            let d = d % n;
            bidders[d] = bidders[0].clone();
        }
        let edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .map(|&(u, v)| (u % n, v % n))
            .filter(|&(u, v)| u != v)
            .collect();
        AuctionInstance::new(
            self.num_channels,
            bidders,
            ConflictStructure::Binary(ConflictGraph::from_edges(n, &edges)),
            VertexOrdering::identity(n),
            1.0,
        )
    }
}

prop_compose! {
    /// One bidder: XOR or tabular, with values from a coarse half-integer
    /// grid so ties between bidders (and thus degenerate bases) are
    /// likely, not pathological.
    fn bidder_strategy()(
        is_xor in prop::bool::ANY,
        xor in prop::collection::vec((0usize..3, 1u32..7), 1..4),
        tabular in prop::collection::vec((1u64..8, 1u32..7), 1..4),
    ) -> BidderSpec {
        if is_xor {
            BidderSpec::Xor(xor.into_iter().map(|(j, v)| (j, v as f64 * 0.5)).collect())
        } else {
            BidderSpec::Tabular(
                tabular.into_iter().map(|(b, v)| (b, v as f64 * 0.5)).collect(),
            )
        }
    }
}

prop_compose! {
    fn instance_strategy()(k in 2usize..4, n in 3usize..7)(
        k in Just(k),
        bidders in prop::collection::vec(bidder_strategy(), n),
        edges in prop::collection::vec((0usize..n, 0usize..n), 0..(2 * n)),
        duplicates in prop::collection::vec(0usize..n, 0..3),
    ) -> InstanceSpec {
        InstanceSpec { num_channels: k, bidders, edges, duplicates }
    }
}

fn options() -> SolverBuilder {
    // Favorite-only seeding: these instances have 1–3 bundles per bidder,
    // so the default top-4 seed would pre-solve them and the pricing loop
    // under test would never execute.
    SolverBuilder::new().seed_top_bundles(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pricing loop converges to the same optimum as ground-truth bundle
    /// enumeration on the same instance, and the pricing loop ran.
    #[test]
    fn favorite_only_pricing_reaches_the_enumerated_optimum(spec in instance_strategy()) {
        let instance = spec.build();
        let reference = solve_relaxation_explicit(&instance);
        prop_assert!(reference.converged);
        let tol = 1e-5 * (1.0 + reference.objective.abs());
        let frac = solve_relaxation(&instance, &options());
        prop_assert!(frac.converged, "did not converge");
        prop_assert!(
            (frac.objective - reference.objective).abs() < tol,
            "{} vs reference {}",
            frac.objective,
            reference.objective
        );
        prop_assert!(frac.satisfies_constraints(&instance, 1e-6));
        prop_assert!(frac.info.pricing_rounds >= 1);
    }
}

/// Five identical bidders pairwise in conflict: every master row looks the
/// same and the duals are maximally degenerate. The favorite-only master
/// must grow through the oracle and still land on the enumeration optimum.
#[test]
fn favorite_only_pricing_generates_columns_on_a_degenerate_clique() {
    let n = 5;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    let bidder: Arc<dyn Valuation> = Arc::new(XorValuation::new(
        2,
        vec![
            (ssa_core::ChannelSet::from_channels([0]), 2.0),
            (ssa_core::ChannelSet::from_channels([1]), 2.0),
            (ssa_core::ChannelSet::from_channels([0, 1]), 3.0),
        ],
    ));
    let instance = AuctionInstance::new(
        2,
        vec![bidder; n],
        ConflictStructure::Binary(ConflictGraph::from_edges(n, &edges)),
        VertexOrdering::identity(n),
        1.0,
    );
    let reference = solve_relaxation_explicit(&instance);
    let frac = solve_relaxation(&instance, &options());
    assert!(frac.converged, "did not converge");
    assert!(
        (frac.objective - reference.objective).abs() < 1e-5 * (1.0 + reference.objective.abs()),
        "{} vs reference {}",
        frac.objective,
        reference.objective
    );
    assert!(
        frac.info.columns_generated > 0,
        "the oracle generated no columns"
    );
}
