//! Property-based integration tests over randomly generated markets.

use proptest::prelude::*;
use spectrum_auctions::auction::exact::solve_exact;
use spectrum_auctions::auction::greedy::{greedy_by_bundle_value, greedy_channel_by_channel};
use spectrum_auctions::auction::solver::{SolverBuilder, SpectrumAuctionSolver};
use spectrum_auctions::workloads::{
    disk_scenario, protocol_scenario, ScenarioConfig, ValuationProfile,
};

fn config(n: usize, k: usize, seed: u64, mixed: bool) -> ScenarioConfig {
    let mut c = ScenarioConfig::new(n, k, seed);
    c.valuations = if mixed {
        ValuationProfile::Mixed
    } else {
        ValuationProfile::Xor
    };
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariants on random protocol-model markets: the LP upper-bounds the
    /// exact optimum, every algorithm's output is feasible and no algorithm
    /// exceeds the exact optimum.
    #[test]
    fn random_protocol_markets_satisfy_pipeline_invariants(
        seed in 0u64..1000,
        n in 6usize..10,
        k in 1usize..4,
        mixed in any::<bool>(),
        delta in 0.5f64..2.0,
    ) {
        let generated = protocol_scenario(&config(n, k, seed, mixed), delta);
        let instance = &generated.instance;

        let exact = solve_exact(instance);
        prop_assert!(exact.proven_optimal);
        prop_assert!(exact.allocation.is_feasible(instance));

        let solver = SolverBuilder::new().rounding(seed, 16).build();
        let outcome = solver.solve(instance);
        prop_assert!(outcome.allocation.is_feasible(instance));
        prop_assert!(outcome.lp_objective >= exact.welfare - 1e-5);
        prop_assert!(outcome.welfare <= exact.welfare + 1e-6);

        let g1 = greedy_channel_by_channel(instance);
        let g2 = greedy_by_bundle_value(instance);
        prop_assert!(g1.is_feasible(instance));
        prop_assert!(g2.is_feasible(instance));
        prop_assert!(g1.social_welfare(instance) <= exact.welfare + 1e-6);
        prop_assert!(g2.social_welfare(instance) <= exact.welfare + 1e-6);
    }

    /// Disk-graph markets: Proposition 9's rho bound holds and the pipeline
    /// stays feasible.
    #[test]
    fn random_disk_markets_respect_rho_bound(
        seed in 0u64..1000,
        n in 6usize..14,
        k in 1usize..3,
        min_r in 1.0f64..4.0,
        spread in 1.0f64..6.0,
    ) {
        let generated = disk_scenario(&config(n, k, seed, false), min_r, min_r + spread);
        prop_assert!(generated.certified_rho <= 5.0 + 1e-9);
        let solver = SpectrumAuctionSolver::default();
        let outcome = solver.solve(&generated.instance);
        prop_assert!(outcome.allocation.is_feasible(&generated.instance));
    }
}
