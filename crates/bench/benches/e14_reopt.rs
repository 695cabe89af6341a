//! E14: warm solve after row additions — re-solving a packing LP (the
//! master shape) after a batch of appended rows with
//! [`solve_with_warm_start`] resuming the recorded basis (a row prefix of
//! the grown LP, repaired by the engine's dual simplex loop), vs a cold
//! re-solve of the grown LP. Every cell asserts the two reach the same
//! optimum before its time is recorded, and that the seeds' warm solves
//! spent dual pivots between them.
//!
//! A plain main, not Criterion: each cell is one solve per seed and the
//! medians across seeds are the statistic. The smoke run
//! (`SSA_BENCH_SMOKE=1`, CI) shrinks the grid to one tiny cell.
//!
//! ```bash
//! cargo bench -p ssa-bench --bench e14_reopt
//! ```
//!
//! [`solve_with_warm_start`]: ssa_lp::solve_with_warm_start

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssa_bench::table::Table;
use ssa_lp::{solve, solve_with_warm_start, LinearProgram, LpStatus, Relation, Sense};
use std::time::Instant;

const SEEDS: [u64; 5] = [77, 1234, 5150, 90210, 424242];

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Bounded random packing LP (the master shape).
fn random_packing_lp(seed: u64, cols: usize) -> LinearProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (cols / 2).max(1);
    let per_row = 8.min(cols);
    let mut lp = LinearProgram::new(Sense::Maximize);
    for _ in 0..cols {
        lp.add_variable(rng.random_range(1.0..10.0));
    }
    for _ in 0..rows {
        let mut coeffs = Vec::with_capacity(per_row);
        for _ in 0..per_row {
            coeffs.push((rng.random_range(0..cols), rng.random_range(0.1..3.0)));
        }
        lp.add_constraint(coeffs, Relation::Le, rng.random_range(2.0..15.0));
    }
    for j in 0..cols {
        lp.add_constraint(vec![(j, 1.0)], Relation::Le, rng.random_range(0.5..4.0));
    }
    lp
}

/// The same LP with `extra` additional random coupling rows appended.
fn with_extra_rows(lp: &LinearProgram, seed: u64, extra: usize) -> LinearProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = lp.num_variables();
    let mut grown = lp.clone();
    for _ in 0..extra {
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for _ in 0..8.min(n) {
            coeffs.push((rng.random_range(0..n), rng.random_range(0.2..2.0)));
        }
        grown.add_constraint(coeffs, Relation::Le, rng.random_range(1.0..6.0));
    }
    grown
}

fn reopt_sweep(smoke: bool) -> Table {
    let cells: Vec<(usize, usize)> = if smoke {
        vec![(60, 4)]
    } else {
        vec![(200, 4), (800, 4), (800, 16)]
    };
    let mut table = Table::new(
        "E14",
        "warm solve after row additions vs cold re-solve (multi-seed medians)",
        &["n", "rows", "dual_ms", "cold_ms"],
    );
    for &(n, extra) in &cells {
        let mut dual_times = Vec::new();
        let mut cold_times = Vec::new();
        let mut dual_pivots = 0usize;
        for &seed in &SEEDS {
            let base = random_packing_lp(seed + n as u64, n);
            let (first, state) = solve_with_warm_start(&base, None);
            assert_eq!(first.status, LpStatus::Optimal);
            let grown = with_extra_rows(&base, seed ^ 0x5a5a, extra);
            let t0 = Instant::now();
            let cold = solve(&grown);
            cold_times.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            let (re, _) = solve_with_warm_start(&grown, Some(state));
            dual_times.push(t0.elapsed().as_secs_f64() * 1e3);
            dual_pivots += re.stats.dual_pivots;
            assert_eq!(re.status, cold.status);
            if cold.status == LpStatus::Optimal {
                assert!(
                    (re.objective - cold.objective).abs() < 1e-6 * (1.0 + cold.objective.abs()),
                    "n = {n}: dual {} vs cold {}",
                    re.objective,
                    cold.objective
                );
            }
        }
        assert!(
            dual_pivots > 0,
            "n = {n}: appended packing rows must be repaired by dual pivots"
        );
        table.push_row(vec![
            n.to_string(),
            extra.to_string(),
            format!("{:.2}", median(dual_times)),
            format!("{:.2}", median(cold_times)),
        ]);
    }
    table
}

fn main() {
    let smoke = std::env::var_os("SSA_BENCH_SMOKE").is_some_and(|v| v != "0");
    println!("{}", reopt_sweep(smoke).render());
}
