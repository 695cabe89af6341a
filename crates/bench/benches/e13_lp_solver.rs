//! E13 kernels: the LP solver.
//!
//! Two comparisons across n ∈ {50, 200, 800, 2000}:
//!
//! * `dense` vs `revised` — one-shot solves of random sparse packing LPs
//!   (the shape of relaxations (1)/(4)) by the dense tableau oracle and by
//!   the revised simplex (steepest edge over Forrest–Tomlin LU). The dense
//!   tableau is timed only up to n = 200.
//! * `cg_cold` vs `cg_warm` — the same column-generation run with every
//!   round solving a fresh master from scratch vs one live master resuming
//!   the previous round's optimal basis (the warm-start win, kept as a
//!   regression guard).
//!
//! A third group, `refactor`, times the basis refactorization
//! ([`ForrestTomlinLu::refactor`]) on its own: master-shaped bases at
//! m ∈ {200, 2000, 10000} (the exchange's small markets up to E12's
//! n = 2000 protocol master) and the m = 10000 identity a cold start
//! factors.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssa_lp::basis::SparseColumn;
use ssa_lp::column_generation::{GeneratedColumn, MasterProblem};
use ssa_lp::{dense, solve, ForrestTomlinLu, LinearProgram, LpStatus, Relation, Sense};
use std::time::Duration;

/// Random sparse packing LP: `cols` variables, `cols / 2` coupling rows
/// with ~8 non-zeros each, plus one bound row `x_j ≤ u_j` per variable.
///
/// The bound rows make the LP provably bounded (the seed generator left
/// uncovered columns unbounded, so large instances terminated at the first
/// unbounded ray instead of exercising the full pivot path) and match the
/// master shape of relaxations (1)/(4), whose rows are dominated by the
/// per-bidder `Σ_T x_{v,T} ≤ 1` bounds.
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

/// Knapsack-with-bounds master over `n` items: 1 capacity row + n bound
/// rows, priced one best-reduced-cost item per round — the link-auction
/// column-generation shape with an m × m-ish master and one new column per
/// re-solve.
struct KnapsackInstance {
    values: Vec<f64>,
    weights: Vec<f64>,
    capacity: f64,
}

impl KnapsackInstance {
    fn new(seed: u64, n: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        KnapsackInstance {
            values: (0..n).map(|_| rng.random_range(1.0..10.0)).collect(),
            weights: (0..n).map(|_| rng.random_range(0.5..4.0)).collect(),
            capacity: n as f64 / 8.0,
        }
    }

    fn rows(&self) -> Vec<(Relation, f64)> {
        let mut rows = vec![(Relation::Le, self.capacity)];
        for _ in 0..self.values.len() {
            rows.push((Relation::Le, 1.0));
        }
        rows
    }

    fn master(&self) -> MasterProblem {
        MasterProblem::new(Sense::Maximize, self.rows())
    }

    fn best_column(&self, duals: &[f64]) -> Vec<GeneratedColumn> {
        let mut best: Option<(f64, GeneratedColumn)> = None;
        for i in 0..self.values.len() {
            let col = GeneratedColumn {
                objective: self.values[i],
                coeffs: vec![(0, self.weights[i]), (i + 1, 1.0)],
                tag: i as u64,
            };
            let rc = col.reduced_cost(duals);
            if rc > 1e-7 && best.as_ref().map(|(b, _)| rc > *b).unwrap_or(true) {
                best = Some((rc, col));
            }
        }
        best.map(|(_, c)| c).into_iter().collect()
    }

    /// Column generation with warm-started master re-solves (the default).
    fn run_warm(&self) -> f64 {
        let mut master = self.master();
        let mut source = |duals: &[f64]| self.best_column(duals);
        let result = master
            .generate_columns(&mut source, 200)
            .expect("cg failed");
        result.solution.objective
    }

    /// The same pricing loop with every round solving a fresh master over
    /// the columns found so far, from a cold start (the seed behavior).
    fn run_cold(&self) -> f64 {
        let mut columns: Vec<GeneratedColumn> = Vec::new();
        loop {
            let mut master = self.master();
            for col in &columns {
                master.add_column(col.clone());
            }
            let solution = master.solve();
            assert_eq!(solution.status, LpStatus::Optimal);
            let mut added = false;
            for col in self.best_column(&solution.duals) {
                if col.reduced_cost(&solution.duals) > 1e-7 && !master.contains_tag(col.tag) {
                    columns.push(col);
                    added = true;
                }
            }
            if !added {
                return solution.objective;
            }
        }
    }
}

fn bench_e13(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_lp_solver");
    for &n in &[50usize, 200, 800, 2000] {
        let lp = random_packing_lp(77 + n as u64, n);
        let revised = solve(&lp);
        assert_eq!(revised.status, LpStatus::Optimal, "grid LP must be bounded");
        // The counters make the (smoke) run prove which path executed: the
        // solve must record indexed solves with genuinely sparse results.
        assert!(
            revised.stats.ftran_sparse_hits > 0 && revised.stats.btran_sparse_hits > 0,
            "hyper-sparse kernels never produced a sparse result at n = {n}: {:?}",
            revised.stats
        );
        assert!(
            revised.stats.avg_result_density < 1.0,
            "avg result density {} should reflect sparse results at n = {n}",
            revised.stats.avg_result_density
        );
        // The dense tableau is O(m · n_total) *per pivot*: at n = 800 (m =
        // 1200 rows) a single solve would dominate the whole bench, so it is
        // checked and timed only up to n = 200.
        if n <= 200 {
            let d = dense::solve(&lp);
            assert_eq!(d.status, LpStatus::Optimal);
            assert!(
                (d.objective - revised.objective).abs() < 1e-6 * (1.0 + revised.objective.abs()),
                "dense {} vs revised {} at n = {n}",
                d.objective,
                revised.objective
            );
            group.bench_with_input(BenchmarkId::new("dense", n), &lp, |b, lp| {
                b.iter(|| dense::solve(lp))
            });
        }
        group.bench_with_input(BenchmarkId::new("revised", n), &lp, |b, lp| {
            b.iter(|| solve(lp))
        });

        if n >= 2000 {
            // The column-generation comparison stays at
            // the PR 1 sizes: a cold cg run at n = 2000 re-solves a growing
            // master thousands of times and would dominate the bench without
            // adding information (the warm-vs-cold ratio is size-stable).
            continue;
        }
        let knapsack = KnapsackInstance::new(13 + n as u64, n);
        // consistency first: all paths must agree before being timed
        let warm = knapsack.run_warm();
        let cold = knapsack.run_cold();
        assert!(
            (warm - cold).abs() < 1e-5 * (1.0 + warm.abs()),
            "warm {warm} vs cold {cold} at n = {n}"
        );
        group.bench_with_input(BenchmarkId::new("cg_cold", n), &knapsack, |b, k| {
            b.iter(|| k.run_cold())
        });
        group.bench_with_input(BenchmarkId::new("cg_warm", n), &knapsack, |b, k| {
            b.iter(|| k.run_warm())
        });
    }
    group.finish();
}

/// A basis shaped like a column-generation master's: unit slack columns,
/// a third of them replaced by bundle columns of 3–12 rows (1.0 on the row
/// whose slack the bundle replaced, interference coefficients in
/// [0.1, 1) elsewhere).
fn master_basis(seed: u64, m: usize) -> Vec<SparseColumn> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cols: Vec<SparseColumn> = (0..m).map(|r| vec![(r, 1.0)]).collect();
    for _ in 0..m / 3 {
        let own = rng.random_range(0..m);
        let mut col = vec![(own, 1.0)];
        let len = rng.random_range(3usize..13);
        while col.len() < len {
            let r = rng.random_range(0..m);
            if col.iter().all(|e| e.0 != r) {
                col.push((r, rng.random_range(0.1..1.0)));
            }
        }
        cols[own] = col;
    }
    cols
}

fn bench_refactor(c: &mut Criterion) {
    let mut group = c.benchmark_group("refactor");
    // one call is one sample, so take many: the m = 200 cell is ~0.1 ms
    group.sample_size(200);
    let mut cases: Vec<(&str, usize, Vec<SparseColumn>)> = Vec::new();
    for m in [200usize, 2000, 10_000] {
        // the first seed whose basis is nonsingular, so every cell times a
        // complete elimination
        let cols = (0..)
            .map(|seed| master_basis(seed + m as u64, m))
            .find(|cols| ForrestTomlinLu::default().refactor(m, cols))
            .expect("some seed gives a nonsingular basis");
        cases.push(("master", m, cols));
    }
    cases.push((
        "identity",
        10_000,
        (0..10_000).map(|r| vec![(r, 1.0)]).collect(),
    ));
    for (shape, m, cols) in &cases {
        // one factorization rebuilt over and over, as the simplex does
        let mut factor = ForrestTomlinLu::default();
        group.bench_with_input(BenchmarkId::new(*shape, m), cols, |b, cols| {
            b.iter(|| {
                assert!(factor.refactor(*m, cols));
                factor.num_rows()
            })
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! { name = benches; config = config(); targets = bench_e13, bench_refactor }
criterion_main!(benches);
