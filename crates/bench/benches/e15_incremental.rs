//! E15: incremental solving — warm `AuctionSession::resolve()` vs cold
//! `SpectrumAuctionSolver::solve()` across mutation sizes.
//!
//! A dynamic protocol-model market of `n` bidders is solved once to prime
//! the session (outside timing), then mutated by a batch of `m` events.
//! The *warm* measurement clones the primed session, applies the batch and
//! resolves — paying the session clone, the dual-simplex row absorption
//! (arrivals) or in-place re-pricing (re-bids), and the rounding stage.
//! The *cold* baseline runs the one-shot pipeline on the mutated instance.
//! `session_clone` measures the clone alone (the criterion shim offers only
//! `iter`, so the warm numbers include one deep session copy per iteration
//! that a long-lived production session would not pay).
//!
//! Both paths are asserted to reach the same LP optimum before timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssa_core::solver::SolverBuilder;
use ssa_workloads::{
    apply_event, dynamic_market_scenario, DynamicMarketConfig, DynamicMarketScenario,
    ScenarioConfig,
};
use std::time::Duration;

/// Rounding trials per pipeline run (both paths pay the same rounding bill;
/// kept small so the LP stage dominates, as in a production re-solve).
const TRIALS: usize = 4;
const K: usize = 4;

fn bench_case(
    group: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    n: usize,
    scenario: &DynamicMarketScenario,
) {
    let mut base = SolverBuilder::new()
        .rounding(1, TRIALS)
        .session(scenario.initial.instance.clone());
    base.resolve().expect("priming resolve failed");

    let mutated = {
        let mut s = base.clone();
        for event in &scenario.events {
            apply_event(&mut s, event);
        }
        s.instance().clone()
    };
    let solver = SolverBuilder::new().rounding(1, TRIALS).build();

    // equivalence gate before timing: warm and cold agree on the LP optimum
    {
        let mut warm_session = base.clone();
        for event in &scenario.events {
            apply_event(&mut warm_session, event);
        }
        let warm = warm_session.resolve().expect("warm resolve failed");
        let cold = solver.solve(&mutated);
        assert!(
            warm.lp_converged && cold.lp_converged,
            "{label}: non-converged"
        );
        assert!(
            (warm.lp_objective - cold.lp_objective).abs() < 1e-5 * (1.0 + cold.lp_objective.abs()),
            "{label}: warm {} vs cold {}",
            warm.lp_objective,
            cold.lp_objective
        );
    }

    group.bench_with_input(
        BenchmarkId::new("warm_resolve", format!("n{n}_{label}")),
        &(&base, &scenario.events),
        |b, (base, events)| {
            b.iter(|| {
                let mut session = (*base).clone();
                for event in events.iter() {
                    apply_event(&mut session, event);
                }
                session.resolve().expect("warm resolve failed")
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("cold_solve", format!("n{n}_{label}")),
        &mutated,
        |b, instance| b.iter(|| solver.solve(instance)),
    );
    group.bench_with_input(
        BenchmarkId::new("session_clone", format!("n{n}_{label}")),
        &base,
        |b, base| b.iter(|| base.clone()),
    );
}

fn bench_e15(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_incremental");

    for &n in &[200usize, 800] {
        let config = ScenarioConfig::new(n, K, 9000 + n as u64);
        // arrival batches: the dual-simplex row path
        for &m in &[1usize, 4, 16] {
            let scenario =
                dynamic_market_scenario(&config, &DynamicMarketConfig::arrivals_only(m), 1.0);
            bench_case(&mut group, &format!("add{m}"), n, &scenario);
        }
        // re-bid batch: the in-place re-pricing path
        let scenario = dynamic_market_scenario(&config, &DynamicMarketConfig::rebids_only(4), 1.0);
        bench_case(&mut group, "rebid4", n, &scenario);
        // departure batch: since PR 5 this rides the basis-preserving
        // deactivation path (columns retired at objective 0 + relief
        // columns, primal resume) — e16_churn measures it at depth; kept here for
        // continuity with the PR 4 numbers
        let scenario =
            dynamic_market_scenario(&config, &DynamicMarketConfig::departures_only(4), 1.0);
        bench_case(&mut group, "depart4", n, &scenario);
    }

    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! { name = benches; config = config(); targets = bench_e15 }
criterion_main!(benches);
