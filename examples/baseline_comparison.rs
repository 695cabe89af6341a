//! Head-to-head comparison of the paper's LP-rounding pipeline against the
//! baselines on small instances where the exact optimum is computable.
//!
//! For several protocol-model markets the example prints the exact optimum,
//! the LP relaxation value, the welfare of the LP-rounding pipeline, the two
//! greedy heuristics and the edge-based-LP baseline, along with each
//! method's empirical approximation ratio.
//!
//! Run with: `cargo run --example baseline_comparison`

use spectrum_auctions::auction::edge_lp::edge_lp_baseline;
use spectrum_auctions::auction::exact::solve_exact;
use spectrum_auctions::auction::greedy::{greedy_by_bundle_value, greedy_channel_by_channel};
use spectrum_auctions::auction::solver::SolverBuilder;
use spectrum_auctions::workloads::{protocol_scenario, ScenarioConfig, ValuationProfile};

fn main() {
    println!(
        "{:<6} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "seed", "exact", "LP b*", "LP-round", "greedy-ch", "greedy-bd", "edge-LP"
    );
    println!("{}", "-".repeat(70));

    let mut totals = [0.0f64; 4];
    let mut exact_total = 0.0;
    for seed in 0..6u64 {
        let mut config = ScenarioConfig::new(10, 3, 100 + seed);
        config.valuations = ValuationProfile::Mixed;
        let generated = protocol_scenario(&config, 1.0);
        let instance = &generated.instance;

        let exact = solve_exact(instance);
        let solver = SolverBuilder::new().rounding(1, 64).build();
        let lp_round = solver.solve(instance);
        let greedy_channel = greedy_channel_by_channel(instance).social_welfare(instance);
        let greedy_bundle = greedy_by_bundle_value(instance).social_welfare(instance);
        let edge = edge_lp_baseline(instance).welfare;

        println!(
            "{:<6} {:>8.2} {:>8.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            seed,
            exact.welfare,
            lp_round.lp_objective,
            lp_round.welfare,
            greedy_channel,
            greedy_bundle,
            edge
        );
        exact_total += exact.welfare;
        totals[0] += lp_round.welfare;
        totals[1] += greedy_channel;
        totals[2] += greedy_bundle;
        totals[3] += edge;
    }

    println!("{}", "-".repeat(70));
    println!("aggregate fraction of the exact optimum captured:");
    println!(
        "  LP rounding (paper):     {:.1} %",
        100.0 * totals[0] / exact_total
    );
    println!(
        "  greedy per channel:      {:.1} %",
        100.0 * totals[1] / exact_total
    );
    println!(
        "  greedy by bundle value:  {:.1} %",
        100.0 * totals[2] / exact_total
    );
    println!(
        "  edge-based LP baseline:  {:.1} %",
        100.0 * totals[3] / exact_total
    );
    println!();
    println!("On small instances all methods are close; the LP-rounding pipeline is the only one");
    println!("with a provable worst-case guarantee (Theorem 3), which experiment E11 probes on");
    println!("larger and more adversarial inputs.");
}
