//! Integration tests validating the paper's stated bounds end to end
//! (the same checks the experiment harness reports quantitatively).

use spectrum_auctions::auction::exact::solve_exact;
use spectrum_auctions::auction::lp_formulation::solve_relaxation_explicit;
use spectrum_auctions::auction::rounding::{round_binary, RoundingOptions};
use spectrum_auctions::auction::solver::{guarantee_factor, SolverBuilder};
use spectrum_auctions::workloads::{protocol_scenario, ScenarioConfig, ValuationProfile};

/// Theorem 3: the expected welfare of Algorithm 1 is at least
/// `b*/(8√k·ρ)`. We check that the best of many trials clears the bound and
/// that the empirical *mean* over trials clears it as well (within
/// statistical slack).
#[test]
fn theorem_3_bound_holds_on_protocol_instances() {
    for seed in [3u64, 17, 29] {
        let mut config = ScenarioConfig::new(14, 4, seed);
        config.valuations = ValuationProfile::Xor;
        let generated = protocol_scenario(&config, 1.0);
        let instance = &generated.instance;
        let fractional = solve_relaxation_explicit(instance);
        let bound = fractional.objective / guarantee_factor(instance);

        // empirical mean over independent single-trial roundings
        let trials = 60;
        let mut welfare_sum = 0.0;
        for t in 0..trials {
            let outcome = round_binary(
                instance,
                &fractional,
                &RoundingOptions {
                    seed: 1000 + t,
                    trials: 1,
                },
            );
            welfare_sum += outcome.welfare;
        }
        let mean = welfare_sum / trials as f64;
        assert!(
            mean >= bound * 0.9,
            "seed {seed}: mean rounded welfare {mean} below 0.9 × Theorem 3 bound {bound}"
        );
    }
}

/// Lemma 4: conditioned on surviving the rounding stage, the probability of
/// removal in the conflict-resolution stage is at most 1/2.
#[test]
fn lemma_4_removal_probability() {
    let mut config = ScenarioConfig::new(20, 4, 77);
    config.clustered = true; // denser conflicts stress the resolution stage
    let generated = protocol_scenario(&config, 1.0);
    let instance = &generated.instance;
    let fractional = solve_relaxation_explicit(instance);
    let outcome = round_binary(
        instance,
        &fractional,
        &RoundingOptions {
            seed: 5,
            trials: 500,
        },
    );
    assert!(
        outcome.stats.removal_rate() <= 0.55,
        "empirical removal rate {} exceeds Lemma 4's 1/2 (plus slack)",
        outcome.stats.removal_rate()
    );
}

/// The LP relaxation really relaxes the problem: its optimum is an upper
/// bound on the exact optimum, and the pipeline's welfare is a lower bound.
#[test]
fn lp_sandwiches_the_exact_optimum() {
    for seed in [2u64, 4, 6] {
        let mut config = ScenarioConfig::new(9, 3, seed);
        config.valuations = ValuationProfile::Mixed;
        let generated = protocol_scenario(&config, 1.5);
        let instance = &generated.instance;
        let exact = solve_exact(instance);
        assert!(exact.proven_optimal);
        let solver = SolverBuilder::new().rounding(3, 64).build();
        let outcome = solver.solve(instance);
        assert!(
            outcome.lp_objective >= exact.welfare - 1e-6,
            "seed {seed}: LP {} below exact optimum {}",
            outcome.lp_objective,
            exact.welfare
        );
        assert!(
            outcome.welfare <= exact.welfare + 1e-6,
            "seed {seed}: rounded welfare {} exceeds the exact optimum {}",
            outcome.welfare,
            exact.welfare
        );
    }
}

/// Proposition 13: the certified ρ of protocol-model instances never
/// exceeds the angular bound, and it shrinks as Δ grows.
#[test]
fn proposition_13_rho_bound_and_monotonicity() {
    let config = ScenarioConfig::new(40, 1, 13);
    let tight = protocol_scenario(&config, 0.5);
    let loose = protocol_scenario(&config, 3.0);
    assert!(tight.certified_rho <= tight.theoretical_rho.unwrap() + 1e-9);
    assert!(loose.certified_rho <= loose.theoretical_rho.unwrap() + 1e-9);
    assert!(
        loose.theoretical_rho.unwrap() <= tight.theoretical_rho.unwrap(),
        "a larger guard zone gives a smaller rho bound"
    );
}
