//! The original dense two-phase tableau simplex, kept as a reference
//! implementation.
//!
//! [`crate::simplex`] (the default solver) is a sparse revised simplex; this
//! module preserves the seed's dense tableau `[B⁻¹A | B⁻¹b]` method. It is
//! retained for three reasons: property tests assert the revised solver
//! matches it to 1e-6 on objectives and duals, the `e13_lp_solver` bench
//! measures the speedup against it, and it is an independent oracle when
//! debugging numerical issues. New code should call [`crate::simplex::solve`].

// The dense tableau is index-heavy by nature; the range loops mirror the
// textbook presentation and are kept as-is in this frozen reference module.
#![allow(clippy::needless_range_loop)]

use crate::problem::{LinearProgram, Relation, Sense};
use crate::simplex::{pivot_budget, LpSolution, LpStatus, STALL_THRESHOLD, TOLERANCE};

/// Solves a linear program with the dense two-phase primal tableau simplex.
pub fn solve(lp: &LinearProgram) -> LpSolution {
    Tableau::build(lp).solve()
}

struct Tableau<'a> {
    lp: &'a LinearProgram,
    m: usize,
    /// total number of columns (original + slack + surplus + artificial)
    n_total: usize,
    n_original: usize,
    /// row-major tableau, m rows × (n_total + 1); last column is the rhs
    t: Vec<f64>,
    /// objective coefficients (maximization form) for all columns
    cost: Vec<f64>,
    /// basis variable of each row
    basis: Vec<usize>,
    /// first artificial column index (columns ≥ this are artificial)
    first_artificial: usize,
    /// per original constraint: the identity column created for it and the
    /// sign applied when normalizing the rhs
    identity_col: Vec<usize>,
    row_sign: Vec<f64>,
    iterations: usize,
}

impl<'a> Tableau<'a> {
    fn build(lp: &'a LinearProgram) -> Self {
        let m = lp.num_constraints();
        let n = lp.num_variables();

        // Count extra columns.
        let mut num_slack = 0usize;
        let mut num_surplus = 0usize;
        let mut num_artificial = 0usize;
        // effective relation after normalizing rhs >= 0
        let mut eff: Vec<(Relation, f64)> = Vec::with_capacity(m);
        for c in lp.constraints() {
            let (rel, sign) = if c.rhs < 0.0 {
                let flipped = match c.relation {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
                (flipped, -1.0)
            } else {
                (c.relation, 1.0)
            };
            match rel {
                Relation::Le => num_slack += 1,
                Relation::Ge => {
                    num_surplus += 1;
                    num_artificial += 1;
                }
                Relation::Eq => num_artificial += 1,
            }
            eff.push((rel, sign));
        }

        let n_total = n + num_slack + num_surplus + num_artificial;
        let width = n_total + 1;
        let mut t = vec![0.0; m * width];
        let mut basis = vec![0usize; m];
        let mut identity_col = vec![0usize; m];
        let mut row_sign = vec![1.0; m];

        let slack_base = n;
        let surplus_base = n + num_slack;
        let artificial_base = n + num_slack + num_surplus;
        let mut next_slack = slack_base;
        let mut next_surplus = surplus_base;
        let mut next_artificial = artificial_base;

        for (i, c) in lp.constraints().iter().enumerate() {
            let (rel, sign) = eff[i];
            row_sign[i] = sign;
            let row = &mut t[i * width..(i + 1) * width];
            for &(v, a) in &c.coeffs {
                row[v] += sign * a;
            }
            row[n_total] = sign * c.rhs;
            match rel {
                Relation::Le => {
                    row[next_slack] = 1.0;
                    basis[i] = next_slack;
                    identity_col[i] = next_slack;
                    next_slack += 1;
                }
                Relation::Ge => {
                    row[next_surplus] = -1.0;
                    row[next_artificial] = 1.0;
                    basis[i] = next_artificial;
                    identity_col[i] = next_artificial;
                    next_surplus += 1;
                    next_artificial += 1;
                }
                Relation::Eq => {
                    row[next_artificial] = 1.0;
                    basis[i] = next_artificial;
                    identity_col[i] = next_artificial;
                    next_artificial += 1;
                }
            }
        }

        // Maximization costs for the original problem.
        let mut cost = vec![0.0; n_total];
        let sense_sign = match lp.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        for (v, &c) in lp.objective().iter().enumerate() {
            cost[v] = sense_sign * c;
        }

        Tableau {
            lp,
            m,
            n_total,
            n_original: n,
            t,
            cost,
            basis,
            first_artificial: artificial_base,
            identity_col,
            row_sign,
            iterations: 0,
        }
    }

    #[inline]
    fn width(&self) -> usize {
        self.n_total + 1
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.t[r * self.width() + c]
    }

    fn objective_of_basis(&self, cost: &[f64]) -> f64 {
        (0..self.m)
            .map(|r| cost[self.basis[r]] * self.at(r, self.n_total))
            .sum()
    }

    /// Runs simplex iterations with the given cost vector; only columns
    /// below `enter_bound` may enter the basis. Returns `None` on success
    /// (optimal for this cost) or `Some(status)` if unbounded / iteration
    /// limit.
    fn iterate(&mut self, cost: &[f64], enter_bound: usize) -> Option<LpStatus> {
        let width = self.width();
        let mut stall = 0usize;
        let mut last_obj = self.objective_of_basis(cost);
        loop {
            if self.iterations >= pivot_budget(self.m, self.n_total) {
                return Some(LpStatus::IterationLimit);
            }
            // y = c_B^T B^{-1} is implicit: reduced cost of column j is
            // cost[j] - sum_r cost[basis[r]] * t[r][j].
            let mut entering: Option<usize> = None;
            let use_bland = stall >= STALL_THRESHOLD;
            let mut best_rc = TOLERANCE;
            for j in 0..enter_bound {
                let mut rc = cost[j];
                for r in 0..self.m {
                    let cb = cost[self.basis[r]];
                    if cb != 0.0 {
                        rc -= cb * self.t[r * width + j];
                    }
                }
                if rc > TOLERANCE {
                    if use_bland {
                        entering = Some(j);
                        break;
                    }
                    if rc > best_rc {
                        best_rc = rc;
                        entering = Some(j);
                    }
                }
            }
            let Some(e) = entering else {
                return None; // optimal for this cost vector
            };

            // Ratio test.
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.m {
                let a = self.t[r * width + e];
                if a > TOLERANCE {
                    let ratio = self.t[r * width + self.n_total] / a;
                    let better = ratio < best_ratio - TOLERANCE
                        || (ratio < best_ratio + TOLERANCE
                            && leaving
                                .map(|l| self.basis[r] < self.basis[l])
                                .unwrap_or(true));
                    if better {
                        best_ratio = ratio;
                        leaving = Some(r);
                    }
                }
            }
            let Some(l) = leaving else {
                return Some(LpStatus::Unbounded);
            };

            self.pivot(l, e);
            self.iterations += 1;

            let obj = self.objective_of_basis(cost);
            if obj > last_obj + TOLERANCE {
                stall = 0;
            } else {
                stall += 1;
            }
            last_obj = obj;
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.width();
        let pivot_value = self.t[row * width + col];
        debug_assert!(pivot_value.abs() > 1e-12, "pivot element too small");
        // normalize pivot row
        let inv = 1.0 / pivot_value;
        for j in 0..width {
            self.t[row * width + j] *= inv;
        }
        // eliminate the column from all other rows
        for r in 0..self.m {
            if r == row {
                continue;
            }
            let factor = self.t[r * width + col];
            if factor != 0.0 {
                for j in 0..width {
                    let delta = factor * self.t[row * width + j];
                    self.t[r * width + j] -= delta;
                }
                // clamp tiny residues on the pivot column to exactly zero
                self.t[r * width + col] = 0.0;
            }
        }
        self.basis[row] = col;
    }

    fn solve(mut self) -> LpSolution {
        let has_artificials = self.first_artificial < self.n_total;

        if has_artificials {
            // Phase 1: maximize -(sum of artificials).
            let mut phase1_cost = vec![0.0; self.n_total];
            for j in self.first_artificial..self.n_total {
                phase1_cost[j] = -1.0;
            }
            if let Some(status) = self.iterate(&phase1_cost, self.n_total) {
                // Unbounded cannot happen in phase 1 (objective bounded by 0),
                // so this is an iteration limit.
                return self.extract(status);
            }
            let phase1_obj = self.objective_of_basis(&phase1_cost);
            if phase1_obj < -1e-6 {
                return self.extract(LpStatus::Infeasible);
            }
            self.drive_out_artificials();
        }

        // Phase 2 with the original costs; artificial columns may not enter.
        let cost = self.cost.clone();
        let status = match self.iterate(&cost, self.first_artificial) {
            None => LpStatus::Optimal,
            Some(s) => s,
        };
        self.extract(status)
    }

    /// After phase 1, pivots basic artificial variables (at value 0) out of
    /// the basis where possible so that phase 2 starts from a clean basis.
    fn drive_out_artificials(&mut self) {
        let width = self.width();
        for r in 0..self.m {
            if self.basis[r] >= self.first_artificial {
                // find any eligible non-artificial column with nonzero entry
                let mut target = None;
                for j in 0..self.first_artificial {
                    if self.t[r * width + j].abs() > TOLERANCE {
                        target = Some(j);
                        break;
                    }
                }
                if let Some(j) = target {
                    self.pivot(r, j);
                }
                // if no such column exists the row is redundant; the
                // artificial stays basic at value 0 which is harmless because
                // artificials are barred from re-entering in phase 2.
            }
        }
    }

    fn extract(&self, status: LpStatus) -> LpSolution {
        let width = self.width();
        let mut x = vec![0.0; self.n_original];
        for r in 0..self.m {
            let b = self.basis[r];
            if b < self.n_original {
                x[b] = self.t[r * width + self.n_total].max(0.0);
            }
        }
        // duals of the maximization form: y_i = Σ_r cost[basis[r]] * B^{-1}[r][i],
        // and column `identity_col[i]` of the tableau is exactly B^{-1} e_i.
        let sense_sign = match self.lp.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        let mut duals = vec![0.0; self.m];
        for i in 0..self.m {
            let col = self.identity_col[i];
            let mut y = 0.0;
            for r in 0..self.m {
                let cb = self.cost[self.basis[r]];
                if cb != 0.0 {
                    y += cb * self.t[r * width + col];
                }
            }
            duals[i] = sense_sign * self.row_sign[i] * y;
        }
        let objective = self.lp.objective_value(&x);
        LpSolution {
            status,
            objective,
            x,
            duals,
            // The tableau has no factorization to count: only its pivots
            // are reported.
            stats: crate::simplex::SolveStats {
                simplex_iterations: self.iterations,
                ..Default::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_reference_still_solves_the_basic_packing_lp() {
        // max 3x + 2y  s.t. x + y <= 4, x <= 2, y <= 3  -> 10 at (2, 2)
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(3.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 3.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 10.0).abs() < 1e-7);
    }
}
