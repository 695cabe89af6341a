//! Asymmetric channels (Section 6): every channel has its own conflict
//! graph, e.g. because different primary users block different regions on
//! different frequencies.
//!
//! The example builds (a) a random asymmetric scenario and (b) the explicit
//! Theorem 18 hard instance, and reports how the approximation behaves on
//! both — the guarantee degrades from `O(ρ·√k)` to `O(ρ·k)`, which
//! Theorem 18 shows is unavoidable.
//!
//! Run with: `cargo run --example asymmetric_channels`

use spectrum_auctions::auction::exact::solve_exact;
use spectrum_auctions::auction::hardness::{theorem_18_instance, theorem_18_optimum};
use spectrum_auctions::auction::solver::SolverBuilder;
use spectrum_auctions::conflict_graph::ConflictGraph;
use spectrum_auctions::workloads::{asymmetric_scenario, ScenarioConfig};

fn main() {
    // --- (a) random asymmetric scenario -----------------------------------
    let config = ScenarioConfig::new(16, 3, 31);
    let generated = asymmetric_scenario(&config, 1.0);
    let solver = SolverBuilder::new().build();
    let outcome = solver.solve(&generated.instance);

    println!("=== random asymmetric-channel market ===");
    println!("model: {}", generated.model_name);
    println!("ρ across channels: {:.2}", generated.certified_rho);
    println!("LP optimum b* = {:.3}", outcome.lp_objective);
    println!("rounded welfare = {:.3}", outcome.welfare);
    println!(
        "guarantee factor 8·k·ρ = {:.1}  (note: k, not √k)",
        outcome.guarantee_factor
    );
    println!();

    // --- (b) the Theorem 18 construction -----------------------------------
    // base graph: a circulant-style bounded-degree graph
    let n = 14;
    let mut edges = Vec::new();
    for v in 0..n {
        edges.push((v, (v + 1) % n));
        edges.push((v, (v + 2) % n));
    }
    let base = ConflictGraph::from_edges(n, &edges);
    let k = 2;
    let hard = theorem_18_instance(&base, k, 5);
    let optimum = theorem_18_optimum(&base);
    let exact = solve_exact(&hard);
    let outcome_hard = solver.solve(&hard);

    println!(
        "=== Theorem 18 hard instance (edge partition of a degree-4 graph over {k} channels) ==="
    );
    println!("independent-set optimum of the base graph: {optimum}");
    println!(
        "exact auction optimum:                     {:.3}",
        exact.welfare
    );
    println!(
        "LP relaxation value:                       {:.3}",
        outcome_hard.lp_objective
    );
    println!(
        "rounded welfare:                           {:.3}",
        outcome_hard.welfare
    );
    println!(
        "empirical approximation ratio (opt/alg):   {:.2}  (guarantee: {:.1})",
        if outcome_hard.welfare > 0.0 {
            exact.welfare / outcome_hard.welfare
        } else {
            f64::INFINITY
        },
        outcome_hard.guarantee_factor
    );
    println!();
    println!("Theorem 18: feasible allocations of value b correspond exactly to independent sets");
    println!("of size b in the base graph, so no algorithm can beat ρ·k/2^O(√log ρk) in general.");
}
