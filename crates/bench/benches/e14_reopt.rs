//! E14: warm solve after row additions — re-solving a packing master after
//! a batch of rows appended through [`MasterProblem::add_row`], which
//! resumes the recorded basis (a row prefix of the grown master, repaired
//! by the engine's dual simplex loop), vs a cold solve of the grown LP.
//! Every cell asserts the two reach the same optimum before its time is
//! recorded, and that the seeds' warm solves spent dual pivots between
//! them.
//!
//! A plain main, not Criterion: each cell is one solve per seed and the
//! medians across seeds are the statistic. The smoke run
//! (`SSA_BENCH_SMOKE=1`, CI) shrinks the grid to one tiny cell.
//!
//! ```bash
//! cargo bench -p ssa-bench --bench e14_reopt
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssa_bench::table::Table;
use ssa_lp::{solve, GeneratedColumn, LinearProgram, LpStatus, MasterProblem, Relation, Sense};
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

/// `extra` random coupling rows `(coeffs, rhs)` over `n` variables.
fn extra_rows(n: usize, seed: u64, extra: usize) -> Vec<(Vec<(usize, f64)>, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..extra)
        .map(|_| {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for _ in 0..8.min(n) {
                coeffs.push((rng.random_range(0..n), rng.random_range(0.2..2.0)));
            }
            (coeffs, rng.random_range(1.0..6.0))
        })
        .collect()
}

/// The master with `lp`'s rows and columns (column `j` tagged `j`).
fn master_of(lp: &LinearProgram) -> MasterProblem {
    let rows = lp
        .constraints()
        .iter()
        .map(|c| (c.relation, c.rhs))
        .collect();
    let mut master = MasterProblem::new(lp.sense(), rows);
    let mut columns = vec![Vec::new(); lp.num_variables()];
    for (i, c) in lp.constraints().iter().enumerate() {
        for &(j, a) in &c.coeffs {
            columns[j].push((i, a));
        }
    }
    for (j, coeffs) in columns.into_iter().enumerate() {
        master.add_column(GeneratedColumn {
            objective: lp.objective()[j],
            coeffs,
            tag: j as u64,
        });
    }
    master
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
            let mut master = master_of(&base);
            let first = master.solve();
            assert_eq!(first.status, LpStatus::Optimal);
            let rows = extra_rows(n, seed ^ 0x5a5a, extra);
            let mut grown = base.clone();
            for (coeffs, rhs) in &rows {
                grown.add_constraint(coeffs.clone(), Relation::Le, *rhs);
            }
            let t0 = Instant::now();
            let cold = solve(&grown);
            cold_times.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            for (coeffs, rhs) in rows {
                master.add_row(Relation::Le, rhs, coeffs);
            }
            let re = master.solve();
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
