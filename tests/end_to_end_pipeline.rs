//! Integration tests: the full pipeline (workload generator → interference
//! model → LP relaxation → rounding → feasible allocation) across all
//! interference models.

use spectrum_auctions::auction::solver::{SolverBuilder, SpectrumAuctionSolver};
use spectrum_auctions::interference::{PowerAssignment, SinrParameters};
use spectrum_auctions::workloads::{
    asymmetric_scenario, disk_scenario, physical_scenario, power_control_scenario,
    protocol_scenario, ScenarioConfig, ValuationProfile,
};

fn solver() -> SpectrumAuctionSolver {
    SolverBuilder::new().rounding(5, 32).build()
}

#[test]
fn protocol_model_pipeline_produces_feasible_allocations() {
    for seed in [1u64, 2, 3] {
        let mut config = ScenarioConfig::new(18, 3, seed);
        config.valuations = ValuationProfile::Mixed;
        let generated = protocol_scenario(&config, 1.0);
        let outcome = solver().solve(&generated.instance);
        assert!(outcome.allocation.is_feasible(&generated.instance));
        assert!(outcome.lp_converged, "column generation should converge");
        assert!(outcome.lp_objective > 0.0);
        // the LP optimum never exceeds the sum of all maximum values
        assert!(outcome.lp_objective <= generated.instance.welfare_upper_bound() + 1e-6);
    }
}

#[test]
fn disk_model_pipeline_respects_proposition_9() {
    let config = ScenarioConfig::new(25, 2, 9);
    let generated = disk_scenario(&config, 4.0, 10.0);
    assert!(
        generated.certified_rho <= 5.0 + 1e-9,
        "Proposition 9: disk graphs have rho <= 5, got {}",
        generated.certified_rho
    );
    let outcome = solver().solve(&generated.instance);
    assert!(outcome.allocation.is_feasible(&generated.instance));
}

#[test]
fn physical_model_pipeline_is_sinr_consistent() {
    let config = ScenarioConfig::new(16, 2, 21);
    let params = SinrParameters::new(3.0, 1.0, 0.02);
    let (generated, physical) = physical_scenario(&config, params, PowerAssignment::Linear);
    let outcome = solver().solve(&generated.instance);
    assert!(outcome.allocation.is_feasible(&generated.instance));
    // independence in the affectance-weighted conflict graph implies the
    // relaxed SINR constraint; with the conservative weights the winner sets
    // should in fact satisfy the raw constraint in the vast majority of
    // cases — assert it does for this fixed seed
    for j in 0..generated.instance.num_channels {
        let winners = outcome.allocation.winners_of_channel(j);
        assert!(
            physical.is_feasible_set(&winners),
            "channel {j} winners {winners:?} violate the SINR constraint"
        );
    }
}

#[test]
fn power_control_pipeline_always_yields_schedulable_sets() {
    let config = ScenarioConfig::new(14, 2, 33);
    let (generated, pc) = power_control_scenario(&config, SinrParameters::new(3.0, 1.0, 0.05));
    let outcome = solver().solve(&generated.instance);
    assert!(outcome.allocation.is_feasible(&generated.instance));
    for j in 0..generated.instance.num_channels {
        let winners = outcome.allocation.winners_of_channel(j);
        let powers = pc.power_control(&winners);
        assert!(powers.is_some(), "winners of channel {j} not schedulable");
        if let Some(result) = powers {
            assert!(pc.validate_powers(&winners, &result.powers));
        }
    }
}

#[test]
fn asymmetric_pipeline_uses_the_k_factor_guarantee() {
    let config = ScenarioConfig::new(12, 3, 41);
    let generated = asymmetric_scenario(&config, 1.0);
    let outcome = solver().solve(&generated.instance);
    assert!(outcome.allocation.is_feasible(&generated.instance));
    // for asymmetric channels the factor is 8·k·ρ
    let expected = 8.0 * 3.0 * generated.instance.rho;
    assert!((outcome.guarantee_factor - expected).abs() < 1e-9);
}

#[test]
fn pipeline_is_reproducible_given_seeds() {
    let config = ScenarioConfig::new(15, 2, 55);
    let a = protocol_scenario(&config, 1.0);
    let b = protocol_scenario(&config, 1.0);
    let oa = solver().solve(&a.instance);
    let ob = solver().solve(&b.instance);
    assert_eq!(oa.allocation.bundles(), ob.allocation.bundles());
    assert!((oa.welfare - ob.welfare).abs() < 1e-12);
    assert!((oa.lp_objective - ob.lp_objective).abs() < 1e-9);
}

/// The column-generation relaxation (demand-oracle pricing) reaches the
/// optimum of the explicit relaxation over every bundle.
#[test]
fn lp_relaxation_matches_the_enumerated_optimum() {
    use spectrum_auctions::auction::lp_formulation::solve_relaxation_explicit;

    let mut config = ScenarioConfig::new(16, 3, 77);
    config.valuations = ValuationProfile::Mixed;
    let generated = protocol_scenario(&config, 1.0);

    let solver = SolverBuilder::new().rounding(5, 16).build();
    let outcome = solver.solve(&generated.instance);
    assert!(outcome.allocation.is_feasible(&generated.instance));
    assert!(outcome.lp_converged, "column generation did not converge");
    assert!(outcome.lp_info.engine.simplex_iterations > 0);
    assert_eq!(
        outcome.lp_info.per_round_iterations.iter().sum::<usize>(),
        outcome.lp_info.engine.simplex_iterations
    );
    let explicit = solve_relaxation_explicit(&generated.instance).objective;
    let obj = outcome.lp_objective;
    assert!(
        (obj - explicit).abs() < 1e-6 * (1.0 + explicit.abs()),
        "column generation {obj} vs enumeration {explicit}"
    );
}
