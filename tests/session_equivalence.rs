//! Session-vs-scratch equivalence: for random mutation streams
//! (arrivals / departures / re-bids), [`AuctionSession::resolve_relaxation`]
//! must reach the same LP optimum as a from-scratch `solve_relaxation` of
//! the mutated instance, because the warm paths (dual-simplex row
//! absorption, in-place column re-pricing, warm-from-pool rebuilds) only
//! change the starting basis, never the feasible region.
//!
//! [`AuctionSession::resolve_relaxation`]:
//! spectrum_auctions::auction::session::AuctionSession::resolve_relaxation

use spectrum_auctions::auction::lp_formulation::solve_relaxation;
use spectrum_auctions::auction::solver::SolverBuilder;
use spectrum_auctions::workloads::{
    apply_event, dynamic_market_scenario, DynamicMarketConfig, ScenarioConfig, ValuationProfile,
};

fn run_stream(seed: u64, dynamics: &DynamicMarketConfig) {
    let mut config = ScenarioConfig::new(8, 2, seed);
    config.valuations = ValuationProfile::Mixed;
    let scenario = dynamic_market_scenario(&config, dynamics, 1.0);

    let options = SolverBuilder::new().options();
    let mut session = SolverBuilder::new().session(scenario.initial.instance.clone());
    session
        .resolve_relaxation()
        .expect("initial resolve failed");
    for (step, event) in scenario.events.iter().enumerate() {
        apply_event(&mut session, event);
        let warm = session
            .resolve_relaxation()
            .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
        let scratch = solve_relaxation(session.instance(), &options.lp);
        assert!(
            warm.converged && scratch.converged,
            "seed {seed} step {step}: non-converged"
        );
        let scale = 1.0 + scratch.objective.abs();
        assert!(
            (warm.objective - scratch.objective).abs() <= 1e-5 * scale,
            "seed {seed} step {step} ({event:?}): \
             warm {} vs scratch {}",
            warm.objective,
            scratch.objective
        );
        assert!(
            warm.satisfies_constraints(session.instance(), 1e-6),
            "seed {seed} step {step}: infeasible warm LP"
        );
    }
}

/// Mixed arrival/departure/re-bid streams.
#[test]
fn session_matches_scratch_on_mixed_mutation_streams() {
    for seed in [11u64, 23] {
        run_stream(
            seed,
            &DynamicMarketConfig {
                num_events: 6,
                ..Default::default()
            },
        );
    }
}

/// Pure-arrival streams exercise the dual-simplex row path specifically.
#[test]
fn session_matches_scratch_on_arrival_streams() {
    run_stream(41, &DynamicMarketConfig::arrivals_only(5));
}

/// Pure re-bid streams exercise the in-place re-pricing path specifically.
#[test]
fn session_matches_scratch_on_rebid_streams() {
    run_stream(59, &DynamicMarketConfig::rebids_only(5));
}

/// Pure departure streams exercise the basis-preserving removal path
/// (columns fixed at zero + rows deactivated behind relief columns, primal
/// resume) specifically — every resolve is debug-recertified against a
/// from-scratch solve.
#[test]
fn session_matches_scratch_on_departure_streams() {
    run_stream(67, &DynamicMarketConfig::departures_only(5));
}

/// Departure-heavy mixed streams: deactivations interleaved with arrivals
/// (a master carrying relief columns must survive the dual row path or
/// fall back soundly) and re-bids, with enough churn to cross the
/// compaction threshold on longer runs.
#[test]
fn session_matches_scratch_on_departure_heavy_streams() {
    for seed in [73u64, 97] {
        run_stream(
            seed,
            &DynamicMarketConfig {
                num_events: 8,
                arrival_weight: 0.25,
                departure_weight: 0.55,
                rebid_weight: 0.2,
            },
        );
    }
}
