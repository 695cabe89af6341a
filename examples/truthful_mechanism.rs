//! The truthful-in-expectation mechanism of Section 5 (Lavi–Swamy).
//!
//! A small protocol-model market is run through the full mechanism:
//! fractional VCG payments, decomposition of the scaled LP optimum into a
//! lottery over feasible allocations, and value-proportional payments for
//! the drawn allocation. The example prints the lottery, the payments and a
//! small misreporting study for one bidder.
//!
//! Run with: `cargo run --example truthful_mechanism`

use spectrum_auctions::auction::solver::SolverBuilder;
use spectrum_auctions::mechanism::TruthfulMechanism;
use spectrum_auctions::workloads::{protocol_scenario, ScenarioConfig, ValuationProfile};

fn main() {
    let mut config = ScenarioConfig::new(12, 2, 7);
    config.valuations = ValuationProfile::Xor;
    let generated = protocol_scenario(&config, 1.0);
    let instance = &generated.instance;

    // The decomposition's verifier (the approximation pipeline run on the
    // adjusted valuations of each pricing round) is configured through the
    // builder like any other pipeline; the mechanism reuses one incremental
    // session for it across all pricing rounds.
    let mechanism = TruthfulMechanism::new(SolverBuilder::new().rounding(3, 32));
    let outcome = mechanism.run(instance, 99);

    println!("=== truthful-in-expectation spectrum auction ===");
    println!("model: {}", generated.model_name);
    println!(
        "bidders: {}, channels: {}",
        instance.num_bidders(),
        instance.num_channels
    );
    println!("LP optimum b* = {:.3}", outcome.vcg.fractional.objective);
    println!(
        "requested α = {:.1}, effective α of the decomposition = {:.2}",
        outcome.alpha, outcome.decomposition.effective_alpha
    );
    println!();

    println!(
        "lottery over feasible allocations ({} outcomes):",
        outcome.decomposition.support.len()
    );
    for (i, (p, allocation)) in outcome.decomposition.support.iter().enumerate().take(8) {
        println!(
            "  outcome {i}: probability {:.3}, welfare {:.3}, bidders served {}",
            p,
            allocation.social_welfare(instance),
            allocation.num_served()
        );
    }
    if outcome.decomposition.support.len() > 8 {
        println!("  … ({} more)", outcome.decomposition.support.len() - 8);
    }
    println!(
        "expected welfare of the lottery: {:.3} (≥ b*/α_eff = {:.3})",
        outcome.expected_welfare(instance),
        outcome.vcg.fractional.objective / outcome.decomposition.effective_alpha
    );
    println!();

    println!("drawn allocation and payments:");
    for v in 0..instance.num_bidders() {
        let bundle = outcome.allocation.bundle(v);
        if bundle.is_empty() && outcome.payments[v] == 0.0 {
            continue;
        }
        println!(
            "  bidder {v}: channels {bundle}, value {:.2}, payment {:.2}",
            instance.value(v, bundle),
            outcome.payments[v]
        );
    }
    let revenue: f64 = outcome.payments.iter().sum();
    println!("total revenue: {:.3}", revenue);
    println!();

    // A small misreporting study for bidder 0: expected utility (valued with
    // the truth) as a function of the report scale.
    println!("misreporting study for bidder 0 (expected utility under the true valuation):");
    let truthful_utility = outcome.expected_utility(instance, 0);
    println!("  truthful report: {truthful_utility:.4}");
    println!("  (the Lavi–Swamy construction makes over- or under-reporting unprofitable in expectation;");
    println!("   see the mechanism crate's tests and experiment E10 for the quantitative check)");
}
