//! E11 kernels: head-to-head timing of the paper's pipeline and the
//! baselines (greedy heuristics, edge-based LP, exact branch and bound).

use criterion::{criterion_group, criterion_main, Criterion};
use ssa_core::edge_lp::edge_lp_baseline;
use ssa_core::exact::solve_exact;
use ssa_core::greedy::{greedy_by_bundle_value, greedy_channel_by_channel};
use ssa_core::solver::SpectrumAuctionSolver;
use ssa_workloads::{protocol_scenario, ScenarioConfig, ValuationProfile};
use std::time::Duration;

fn bench_e11(c: &mut Criterion) {
    let mut config = ScenarioConfig::new(10, 3, 11);
    config.valuations = ValuationProfile::Mixed;
    let generated = protocol_scenario(&config, 1.0);
    let instance = &generated.instance;
    let mut group = c.benchmark_group("e11_baselines");
    group.bench_function("lp_rounding_pipeline", |b| {
        let solver = SpectrumAuctionSolver::default();
        b.iter(|| solver.solve(instance))
    });
    group.bench_function("greedy_channel_by_channel", |b| {
        b.iter(|| greedy_channel_by_channel(instance))
    });
    group.bench_function("greedy_by_bundle_value", |b| {
        b.iter(|| greedy_by_bundle_value(instance))
    });
    group.bench_function("edge_lp_baseline", |b| {
        b.iter(|| edge_lp_baseline(instance))
    });
    group.bench_function("exact_branch_and_bound", |b| {
        b.iter(|| solve_exact(instance))
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! { name = benches; config = config(); targets = bench_e11 }
criterion_main!(benches);
