//! Integration tests for the Lavi–Swamy mechanism on generated markets.

use spectrum_auctions::mechanism::lavi_swamy::verify_cover;
use spectrum_auctions::mechanism::TruthfulMechanism;
use spectrum_auctions::workloads::{
    disk_scenario, protocol_scenario, ScenarioConfig, ValuationProfile,
};

#[test]
fn mechanism_on_protocol_market_is_consistent() {
    let mut config = ScenarioConfig::new(10, 2, 19);
    config.valuations = ValuationProfile::Xor;
    let generated = protocol_scenario(&config, 1.0);
    let instance = &generated.instance;

    let mechanism = TruthfulMechanism::default();
    let outcome = mechanism.run(instance, 7);

    // the drawn allocation is feasible and the lottery is a distribution
    assert!(outcome.allocation.is_feasible(instance));
    let total_probability: f64 = outcome.decomposition.support.iter().map(|(p, _)| p).sum();
    assert!((total_probability - 1.0).abs() < 1e-6);
    for (_, allocation) in &outcome.decomposition.support {
        assert!(allocation.is_feasible(instance));
    }

    // the decomposition covers x*/alpha_eff
    assert!(verify_cover(
        &outcome.decomposition,
        &outcome.vcg.fractional,
        1e-6
    ));

    // expected welfare meets the certified factor
    assert!(
        outcome.expected_welfare(instance) + 1e-9
            >= outcome.vcg.fractional.objective / outcome.decomposition.effective_alpha
    );

    // payments: non-negative, individually rational for the realized draw
    for v in 0..instance.num_bidders() {
        assert!(outcome.payments[v] >= 0.0);
        let value = instance.value(v, outcome.allocation.bundle(v));
        assert!(outcome.payments[v] <= value + 1e-6);
        assert!(outcome.expected_utility(instance, v) >= -1e-6);
    }
}

#[test]
fn mechanism_on_disk_market_collects_bounded_revenue() {
    let config = ScenarioConfig::new(8, 2, 23);
    let generated = disk_scenario(&config, 5.0, 12.0);
    let instance = &generated.instance;
    let mechanism = TruthfulMechanism::default();
    let outcome = mechanism.run(instance, 3);
    let revenue: f64 = outcome.payments.iter().sum();
    let welfare = outcome.allocation.social_welfare(instance);
    assert!(revenue >= 0.0);
    assert!(
        revenue <= welfare + 1e-6,
        "revenue {revenue} exceeds realized welfare {welfare}"
    );
}

#[test]
fn mechanism_runs_are_reproducible() {
    let config = ScenarioConfig::new(9, 2, 29);
    let generated = protocol_scenario(&config, 1.0);
    let mechanism = TruthfulMechanism::default();
    let a = mechanism.run(&generated.instance, 11);
    let b = mechanism.run(&generated.instance, 11);
    assert_eq!(a.allocation.bundles(), b.allocation.bundles());
    assert_eq!(a.payments, b.payments);
}
