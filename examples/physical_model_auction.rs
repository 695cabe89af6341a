//! Spectrum auction under the physical (SINR) interference model.
//!
//! Communication links (sender/receiver pairs) bid on channels. Interference
//! is governed by the SINR constraint with path-loss exponent α and
//! threshold β. The example runs the pipeline twice:
//!
//! 1. **Fixed powers** (uniform assignment, Proposition 15): the conflict
//!    graph is edge-weighted by affectance and the pipeline is Algorithm 2
//!    (weighted rounding) followed by Algorithm 3.
//! 2. **Power control** (Theorem 17): the conflict graph uses the
//!    distance-based weights of Kesselheim and the winners of every channel
//!    are handed to the power-control procedure, which computes feasible
//!    transmission powers.
//!
//! Run with: `cargo run --example physical_model_auction`

use spectrum_auctions::auction::solver::SolverBuilder;
use spectrum_auctions::interference::{PowerAssignment, SinrParameters};
use spectrum_auctions::workloads::{
    physical_scenario, power_control_scenario, ScenarioConfig, ValuationProfile,
};

fn main() {
    let mut config = ScenarioConfig::new(30, 4, 2024);
    config.clustered = true;
    config.valuations = ValuationProfile::Mixed;
    let params = SinrParameters::new(3.0, 1.5, 0.05);

    // --- Variant 1: fixed uniform powers (Proposition 15) -----------------
    let (generated, physical) = physical_scenario(&config, params, PowerAssignment::Uniform);
    println!("=== physical model, fixed uniform powers ===");
    println!("model: {}", generated.model_name);
    println!(
        "certified ρ for the length-descending ordering: {:.3}",
        generated.certified_rho
    );

    let solver = SolverBuilder::new().build();
    let outcome = solver.solve(&generated.instance);
    println!(
        "LP optimum b* = {:.3}, rounded welfare = {:.3}, ratio = {:.2}",
        outcome.lp_objective,
        outcome.welfare,
        outcome.empirical_ratio()
    );

    // verify the result against the *original* SINR constraints, not just
    // the conflict-graph abstraction
    let mut all_sinr_ok = true;
    for j in 0..generated.instance.num_channels {
        let winners = outcome.allocation.winners_of_channel(j);
        if !physical.is_feasible_set(&winners) {
            all_sinr_ok = false;
        }
    }
    println!(
        "winners of every channel satisfy the raw SINR constraints: {}",
        if all_sinr_ok {
            "yes"
        } else {
            "no (conflict graph is a conservative approximation)"
        }
    );

    // --- Variant 2: power control (Theorem 17) ----------------------------
    let (generated_pc, pc_model) = power_control_scenario(&config, params);
    println!();
    println!("=== physical model with power control ===");
    println!("model: {}", generated_pc.model_name);
    println!("certified ρ: {:.3}", generated_pc.certified_rho);

    let outcome_pc = solver.solve(&generated_pc.instance);
    println!(
        "LP optimum b* = {:.3}, rounded welfare = {:.3}",
        outcome_pc.lp_objective, outcome_pc.welfare
    );

    for j in 0..generated_pc.instance.num_channels {
        let winners = outcome_pc.allocation.winners_of_channel(j);
        match pc_model.power_control(&winners) {
            Some(result) => {
                let max_power = result.powers.iter().cloned().fold(0.0f64, f64::max);
                println!(
                    "channel {j}: {} winners, feasible powers found in {} iterations (max power {:.3})",
                    winners.len(),
                    result.iterations,
                    max_power
                );
            }
            None => println!(
                "channel {j}: {} winners, no feasible power assignment (unexpected)",
                winners.len()
            ),
        }
    }
}
