//! E16: market churn — interleaved arrival/departure/re-bid streams on a
//! long-lived [`AuctionSession`] vs one-shot cold solves.
//!
//! PR 5's row-lifecycle refactor routes **departures** through in-place
//! row deactivation (the departed bidder's columns are fixed at zero, its
//! `k + 1` rows are relaxed behind relief columns, and the surviving basis
//! resumes with primal pivots) instead of the warm-from-pool rebuild that
//! made e15's departure numbers an honest wash (1.02×/1.08×). This bench
//! measures that path directly:
//!
//! * `warm_resolve` / `cold_solve` / `session_clone` — same protocol as
//!   e15 (the warm side pays one deep session clone + the mutation batch +
//!   rounding per iteration; `session_clone` isolates the clone).
//! * `depart4` — four pure departures: the headline basis-preserving
//!   removal measurement (the acceptance bar is ≥3× over cold at n = 800).
//! * `churn16` — the default mixed stream (16 events, 40% arrivals / 30%
//!   departures / 30% re-bids): every warm path interleaved. Mixed batches
//!   ride the session's staged two-phase repair — a primal resume absorbs
//!   the re-bids/departures (restoring dual feasibility), then the staged
//!   arrival rows land and the dual simplex repairs them — so the warm
//!   side wins even when a batch mixes all three mutation kinds.
//!
//! Both paths are asserted to reach the same LP optimum before timing.
//!
//! [`AuctionSession`]: ssa_core::session::AuctionSession

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssa_core::solver::SolverBuilder;
use ssa_workloads::{
    apply_event, dynamic_market_scenario, DynamicMarketConfig, DynamicMarketScenario,
    ScenarioConfig,
};
use std::time::Duration;

/// Rounding trials per pipeline run (both paths pay the same rounding bill).
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

fn bench_e16(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_churn");

    for &n in &[200usize, 800] {
        let config = ScenarioConfig::new(n, K, 16000 + n as u64);
        // departures broken out: the basis-preserving removal path
        let scenario =
            dynamic_market_scenario(&config, &DynamicMarketConfig::departures_only(4), 1.0);
        bench_case(&mut group, "depart4", n, &scenario);
        // the default interleaved mix: every warm path exercised
        let scenario = dynamic_market_scenario(&config, &DynamicMarketConfig::default(), 1.0);
        bench_case(&mut group, "churn16", n, &scenario);
    }

    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! { name = benches; config = config(); targets = bench_e16 }
criterion_main!(benches);
