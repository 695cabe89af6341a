//! E10 (Section 5) kernels: fractional VCG and the Lavi–Swamy decomposition.

use criterion::{criterion_group, criterion_main, Criterion};
use ssa_core::solver::{guarantee_factor, SolverBuilder};
use ssa_mechanism::lavi_swamy::decompose;
use ssa_mechanism::vcg::fractional_vcg;
use ssa_mechanism::TruthfulMechanism;
use ssa_workloads::{protocol_scenario, ScenarioConfig};
use std::time::Duration;

fn bench_e10(c: &mut Criterion) {
    let generated = protocol_scenario(&ScenarioConfig::new(10, 2, 10), 1.0);
    let instance = &generated.instance;
    c.bench_function("e10_mechanism/fractional_vcg", |b| {
        b.iter(|| fractional_vcg(instance))
    });
    let vcg = fractional_vcg(instance);
    let alpha = guarantee_factor(instance);
    c.bench_function("e10_mechanism/decomposition", |b| {
        b.iter(|| decompose(instance, &vcg.fractional, alpha, &SolverBuilder::new()))
    });
    c.bench_function("e10_mechanism/full_mechanism", |b| {
        let mechanism = TruthfulMechanism::default();
        b.iter(|| mechanism.run(instance, 42))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! { name = benches; config = config(); targets = bench_e10 }
criterion_main!(benches);
