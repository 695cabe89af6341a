//! Session-vs-scratch equivalence: for random mutation streams
//! (arrivals / departures / re-bids), [`AuctionSession::resolve_relaxation`]
//! must reach the same LP optimum as a from-scratch `solve_relaxation` of
//! the mutated instance, because the warm paths (dual-simplex row
//! absorption, in-place column re-pricing, warm-from-pool rebuilds) only
//! change the starting basis, never the feasible region. `solve_relaxation`
//! is itself a fresh session's cold resolve, so every step is also checked
//! against the enumerated master (`solve_relaxation_explicit`), which
//! builds its own master with every bundle and no column generation.
//!
//! [`AuctionSession::resolve_relaxation`]:
//! spectrum_auctions::auction::session::AuctionSession::resolve_relaxation

use spectrum_auctions::auction::lp_formulation::{
    solve_relaxation, solve_relaxation_explicit, try_solve_relaxation, RelaxationInfo,
};
use spectrum_auctions::auction::solver::SolverBuilder;
use spectrum_auctions::auction::AuctionInstance;
use spectrum_auctions::interference::{PowerAssignment, SinrParameters};
use spectrum_auctions::workloads::{
    apply_event, dynamic_market_scenario, physical_scenario, protocol_scenario,
    DynamicMarketConfig, ScenarioConfig, ValuationProfile,
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
        let explicit = solve_relaxation_explicit(session.instance());
        assert!(
            warm.converged && scratch.converged && explicit.converged,
            "seed {seed} step {step}: non-converged"
        );
        for (reference, label) in [(&scratch, "scratch"), (&explicit, "explicit")] {
            let scale = 1.0 + reference.objective.abs();
            assert!(
                (warm.objective - reference.objective).abs() <= 1e-5 * scale,
                "seed {seed} step {step} ({event:?}): \
                 warm {} vs {label} {}",
                warm.objective,
                reference.objective
            );
        }
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

/// Every counter of a relaxation solve, with the float density as bits, so
/// two solves compare equal only if they took the same trajectory.
fn trajectory(info: &RelaxationInfo) -> (Vec<usize>, Vec<usize>, Vec<usize>, u64) {
    let counters = vec![
        info.rounds,
        info.num_columns,
        info.engine.simplex_iterations,
        info.pricing_rounds,
        info.columns_generated,
        info.pool_hits,
        info.pool_evictions,
        info.engine.refactorizations,
        info.engine.forced_refactorizations,
        info.engine.degenerate_pivots,
        info.engine.dual_pivots,
        info.rows_deactivated,
        info.compactions,
        info.engine.ftran_sparse_hits,
        info.engine.ftran_dense_fallbacks,
        info.engine.btran_sparse_hits,
        info.engine.btran_dense_fallbacks,
    ];
    (
        counters,
        info.per_round_iterations.clone(),
        info.columns_per_round.clone(),
        info.engine.avg_result_density.to_bits(),
    )
}

/// The one-shot entry points and a fresh session's cold resolve build and
/// solve the same master: identical counters, objective bits and support
/// for the relaxation, and the same allocation and welfare after rounding.
#[test]
fn one_shot_solves_match_a_fresh_session_resolve() {
    let protocol = protocol_scenario(&ScenarioConfig::new(400, 4, 1), 1.0).instance;
    let physical = physical_scenario(
        &ScenarioConfig::new(200, 4, 1),
        SinrParameters::new(3.0, 1.0, 0.02),
        PowerAssignment::Uniform,
    )
    .0
    .instance;
    let check = |label: &str, instance: &AuctionInstance| {
        let options = SolverBuilder::new().options();
        let one_shot =
            try_solve_relaxation(instance, &options.lp).expect("one-shot relaxation failed");
        let session = SolverBuilder::new()
            .session(instance.clone())
            .resolve_relaxation()
            .expect("session relaxation failed");
        assert_eq!(
            trajectory(&one_shot.info),
            trajectory(&session.info),
            "{label}: relaxation counters"
        );
        assert_eq!(
            one_shot.objective.to_bits(),
            session.objective.to_bits(),
            "{label}: objective {} vs {}",
            one_shot.objective,
            session.objective
        );
        assert_eq!(one_shot.entries, session.entries, "{label}: support");

        let solved = SolverBuilder::new()
            .build()
            .try_solve(instance)
            .expect("one-shot clear failed");
        let resolved = SolverBuilder::new()
            .session(instance.clone())
            .resolve()
            .expect("session clear failed");
        assert_eq!(
            solved.allocation, resolved.allocation,
            "{label}: allocation"
        );
        assert_eq!(
            solved.welfare.to_bits(),
            resolved.welfare.to_bits(),
            "{label}: welfare {} vs {}",
            solved.welfare,
            resolved.welfare
        );
    };
    check("protocol n = 400", &protocol);
    check("physical n = 200", &physical);
}
