//! **Dual simplex** reoptimization after row additions.
//!
//! The primal warm-start path ([`crate::simplex::solve_with_warm_start`])
//! resumes cheaply only when the constraint **rows are unchanged** and the
//! column set grew — the restricted-master situation of column generation.
//! When rows are *added* (a new bidder enters the auction, a new conflict
//! constraint is discovered, a cutting plane lands in the master) the old
//! optimal basis is no longer primal feasible, and the seed behavior was a
//! full cold re-solve.
//!
//! This module closes that gap with the classic observation: extending the
//! old optimal basis by the **logical columns of the new rows** yields a
//! basis that is **dual feasible** (the new rows' duals are zero, so every
//! reduced cost is unchanged) but possibly primal infeasible (a new row may
//! cut off the old optimum). The dual simplex method restores primal
//! feasibility while *maintaining* dual feasibility:
//!
//! 1. **leaving row**: **dual steepest-edge** (Forrest–Goldfarb reference
//!    weights): the row maximizing `x_B[l]² / γ_l`, where `γ_l`
//!    approximates `‖e_l B⁻¹‖²`. The weights are updated from the entering
//!    column's FTRAN image — which the pivot already pays for — so DSE
//!    costs no extra solves over the old most-negative-value rule; it picks
//!    rows whose repair makes *geometric* progress instead of rows that
//!    merely look bad in un-normalized units (after stalls the rule
//!    degrades to first-violated-row, Bland-style, which terminates),
//! 2. **pivot row**: `ρ = e_l B⁻¹` (one BTRAN through the same
//!    [`crate::basis::ForrestTomlinLu`] the primal engine uses),
//! 3. **dual ratio test**: among nonbasic columns with `α_j = ρ·a_j < 0`,
//!    enter the one minimizing `rc_j / α_j` (keeping all reduced costs
//!    non-positive), falling back to a smallest-index rule after stalls,
//! 4. terminate **optimal** when `x_B ≥ 0`, or **infeasible** when a
//!    violated row has no negative entry (a Farkas certificate).
//!
//! Internally every `≤`/`≥` row is folded into a `≤` row (a `≥` row is
//! negated, so its right-hand side may go negative — the dual method does
//! not mind), which makes one slack per row the only logical column and
//! maps the primal engine's `Surplus(i)` basis members onto the folded
//! slack exactly. LPs with equality rows, or warm bases carrying a basic
//! artificial, are not eligible and fall back to the primal path.
//!
//! The public entry point [`reoptimize_after_row_additions`] never returns
//! a wrong answer on ineligible input: every fallback re-solves through
//! [`crate::simplex`], and the dual loop itself hands its repaired basis to
//! the primal engine for final pricing/extraction, so the reported solution
//! always satisfies the primal engine's invariants (and its
//! [`crate::simplex::SolveStats::dual_pivots`] records the repair work).

use crate::basis::{ForrestTomlinLu, SparseColumn, SparseVector};
use crate::problem::{CscMatrix, LinearProgram, Relation, Sense};
use crate::simplex::{
    solve_with_warm_start, BasisVar, LpSolution, SimplexOptions, SolveStats, WarmStart,
};

/// Result of a dual-simplex reoptimization.
#[derive(Debug)]
pub struct DualReoptimization {
    /// The solution of the full (rows-added) problem.
    pub solution: LpSolution,
    /// Resumable state for the next re-solve (primal or dual).
    pub warm: WarmStart,
    /// Whether the dual path actually ran (`false` means the input was
    /// ineligible — equality rows, foreign basis — and the primal engine
    /// solved from scratch).
    pub used_dual_path: bool,
}

/// Re-solves `lp` starting from `prior`, the optimal basis of a previous
/// solve of the **same LP minus some trailing rows** (columns may also have
/// grown; new columns start nonbasic). Runs the dual simplex to repair
/// primal feasibility, then resumes the primal engine from the repaired
/// basis for final pricing and extraction.
///
/// Falls back to a plain primal solve (reporting `used_dual_path: false`)
/// when the LP has equality rows, the prior basis does not map onto this
/// problem, or the extended basis is not dual feasible (the prior state was
/// not an optimum of a row-prefix of `lp`).
pub fn reoptimize_after_row_additions(
    lp: &LinearProgram,
    options: &SimplexOptions,
    prior: WarmStart,
) -> DualReoptimization {
    let Some(mut dual) = DualSimplex::build(lp, options) else {
        return primal_fallback(lp, options, Some(prior));
    };
    if !dual.install(&prior) {
        return primal_fallback(lp, options, Some(prior));
    }
    match dual.run() {
        DualStatus::PrimalFeasible => {
            let repair = dual.repair_stats();
            let warm = dual.into_warm_start();
            // Final pricing + extraction through the primal engine: the
            // repaired basis is primal feasible and (up to drift) dual
            // feasible, so this typically takes zero pivots — and reuses
            // the primal engine's extraction conventions verbatim. (The
            // primal engine re-anchors the adopted factorization's sparsity
            // baseline, so its stats cover the resume only; the repair's
            // solves are merged in afterwards.)
            let (mut solution, warm) = solve_with_warm_start(lp, options, Some(warm));
            solution.stats.merge(&repair);
            DualReoptimization {
                solution,
                warm,
                used_dual_path: true,
            }
        }
        DualStatus::Infeasible => {
            // The dual method's unbounded ray is a Farkas certificate, but
            // callers expect the primal engine's infeasibility report (and
            // its phase-1 certificate): produce it from a cold start. The
            // dual pivots spent discovering the certificate are reported.
            let repair = dual.repair_stats();
            let mut out = primal_fallback(lp, options, None);
            out.solution.stats.merge(&repair);
            out.used_dual_path = true;
            out
        }
        DualStatus::IterationLimit => primal_fallback(lp, options, None),
    }
}

fn primal_fallback(
    lp: &LinearProgram,
    options: &SimplexOptions,
    warm: Option<WarmStart>,
) -> DualReoptimization {
    // A prior state whose row count differs is rejected by the primal
    // engine's own validation, so passing it through is safe either way.
    let (solution, warm) = solve_with_warm_start(lp, options, warm);
    DualReoptimization {
        solution,
        warm,
        used_dual_path: false,
    }
}

enum DualStatus {
    /// `x_B ≥ 0` reached: the basis is optimal (dual feasibility was
    /// maintained throughout).
    PrimalFeasible,
    /// A violated row with no negative pivot-row entry: no feasible point.
    Infeasible,
    /// Pivot budget exhausted before primal feasibility.
    IterationLimit,
}

/// The dual-simplex core over the folded all-`≤` form.
struct DualSimplex<'a> {
    lp: &'a LinearProgram,
    tol: f64,
    max_iterations: usize,
    stall_threshold: usize,
    refactor_interval: usize,

    m: usize,
    n: usize,
    /// structural columns + one slack per row
    n_total: usize,
    /// structural columns with the fold signs applied
    cols: CscMatrix,
    /// row-major adjacency of `cols` ([`CscMatrix::row_major`]): lets the
    /// dual ratio test scatter a sparse pivot row into the touched columns
    /// instead of sweeping all `n_total` columns
    rows_adj: Vec<Vec<(usize, f64)>>,
    /// folded rhs (may be negative — that is the dual method's job)
    b: Vec<f64>,
    /// maximization costs per global column (slacks cost 0)
    cost: Vec<f64>,
    /// Structural columns barred from the dual phase and exempt from the
    /// dual-feasibility screen: variables fixed at zero (they may never
    /// enter any basis) and **relief columns** of deactivated rows. A
    /// relief column legitimately has `rc = y_i > 0` when its row was
    /// binding at the prior optimum — it must *enter*, which is the primal
    /// engine's job after the repair: barring it here keeps the dual
    /// invariant over the remaining columns, and the final primal resume
    /// (which re-prices every column) brings it in. An infeasibility
    /// verdict reached while relief columns are barred may be spurious, but
    /// that path already falls back to a full primal solve, so the answer
    /// stays correct either way.
    barred: Vec<bool>,

    basis: Vec<usize>,
    in_basis: Vec<bool>,
    factor: ForrestTomlinLu,
    xb: Vec<f64>,

    iterations: usize,
}

impl<'a> DualSimplex<'a> {
    /// Builds the folded form; `None` when the LP has equality rows (not
    /// expressible with one slack per row — the caller falls back).
    fn build(lp: &'a LinearProgram, options: &SimplexOptions) -> Option<Self> {
        let m = lp.num_constraints();
        let n = lp.num_variables();
        let mut row_sign = vec![1.0f64; m];
        let mut b = vec![0.0f64; m];
        for (i, c) in lp.constraints().iter().enumerate() {
            let sign = match c.relation {
                Relation::Le => 1.0,
                Relation::Ge => -1.0,
                Relation::Eq => return None,
            };
            row_sign[i] = sign;
            b[i] = sign * c.rhs;
        }
        let mut cols = lp.to_csc();
        for (val, &row) in cols.values.iter_mut().zip(cols.row_idx.iter()) {
            *val *= row_sign[row];
        }
        let rows_adj = cols.row_major();
        let n_total = n + m;
        let sense_sign = match lp.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        let mut cost = vec![0.0f64; n_total];
        for (v, &c) in lp.objective().iter().enumerate() {
            cost[v] = sense_sign * c;
        }
        let barred: Vec<bool> = (0..n)
            .map(|j| lp.is_variable_fixed(j) || lp.is_relief_variable(j))
            .collect();
        let max_iterations = if options.max_iterations == 0 {
            200 * (m + n_total) + 10_000
        } else {
            options.max_iterations
        };
        Some(DualSimplex {
            lp,
            tol: options.tolerance,
            max_iterations,
            stall_threshold: options.stall_threshold,
            refactor_interval: options.refactor_interval,
            m,
            n,
            n_total,
            cols,
            rows_adj,
            b,
            cost,
            barred,
            basis: Vec::new(),
            in_basis: vec![false; n_total],
            factor: ForrestTomlinLu::default(),
            xb: Vec::new(),
            iterations: 0,
        })
    }

    /// Global column index of the slack of row `i`.
    #[inline]
    fn slack_col(&self, i: usize) -> usize {
        self.n + i
    }

    /// Visits the sparse entries of global column `j` (fold signs applied).
    #[inline]
    fn for_each_entry(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        if j < self.n {
            let (rows, vals) = self.cols.column(j);
            for (&r, &a) in rows.iter().zip(vals.iter()) {
                if a != 0.0 {
                    f(r, a);
                }
            }
        } else {
            f(j - self.n, 1.0);
        }
    }

    fn sparse_column(&self, j: usize) -> SparseColumn {
        let mut col = SparseColumn::new();
        self.for_each_entry(j, |r, v| col.push((r, v)));
        col
    }

    /// Maps a prior basis member onto the folded column space. `Surplus(i)`
    /// of a `≥` row *is* the slack of the negated row (`a·x − s = rhs ⟺
    /// −a·x + s = −rhs`), so both logicals land on the same folded slack.
    fn map_prior(&self, var: BasisVar) -> Option<usize> {
        match var {
            BasisVar::Structural(j) => (j < self.n).then_some(j),
            BasisVar::Slack(i) => (i < self.m
                && matches!(self.lp.constraints()[i].relation, Relation::Le))
            .then(|| self.slack_col(i)),
            BasisVar::Surplus(i) => (i < self.m
                && matches!(self.lp.constraints()[i].relation, Relation::Ge))
            .then(|| self.slack_col(i)),
            // a basic artificial (a redundant row in the prior solve) has no
            // folded counterpart — the caller falls back to the primal path
            BasisVar::Artificial(_) => None,
        }
    }

    /// Installs `prior` (covering a row prefix) extended by the new rows'
    /// slacks, refactorizes from **this** problem's columns, and verifies
    /// dual feasibility. Returns `false` when anything does not fit.
    fn install(&mut self, prior: &WarmStart) -> bool {
        let m_old = prior.basis.len();
        if m_old > self.m {
            return false;
        }
        let mut basis = Vec::with_capacity(self.m);
        for &var in &prior.basis {
            match self.map_prior(var) {
                Some(c) => basis.push(c),
                None => return false,
            }
        }
        for i in m_old..self.m {
            basis.push(self.slack_col(i));
        }
        let mut in_basis = vec![false; self.n_total];
        for &c in &basis {
            if in_basis[c] {
                return false; // duplicated member: corrupt state
            }
            in_basis[c] = true;
        }
        self.basis = basis;
        self.in_basis = in_basis;
        if !self.refactor() {
            return false;
        }
        // Mirror of the primal engine's screen: a *fixed* column basic at
        // a positive value may only ride along when harmless (≤-row slack
        // consumption); otherwise fall back so the eventual cold start
        // pins it at exactly 0. Relief columns are exempt — being basic at
        // a positive value is precisely how they keep a deactivated row
        // slack.
        for (r, &c) in self.basis.iter().enumerate() {
            if c < self.n
                && self.xb[r] > 1e-9
                && self.lp.is_variable_fixed(c)
                && !self.lp.fixed_value_is_harmless(c)
            {
                return false;
            }
        }
        // Dual feasibility of the extended basis: with the new rows' duals
        // at zero every reduced cost equals its value at the prior optimum,
        // so rc ≤ 0 must hold for all nonbasic columns. A violation means
        // `prior` was not an optimal basis of a row-prefix of this LP.
        let mut y = vec![0.0f64; self.m];
        let cb: Vec<f64> = self.basis.iter().map(|&c| self.cost[c]).collect();
        self.factor.btran(&cb, &mut y);
        let dual_tol = self.tol.max(1e-7);
        for j in 0..self.n_total {
            if self.in_basis[j] || (j < self.n && self.barred[j]) {
                continue;
            }
            if self.reduced_cost(&y, j) > dual_tol {
                return false;
            }
        }
        true
    }

    #[inline]
    fn reduced_cost(&self, y: &[f64], j: usize) -> f64 {
        let mut rc = self.cost[j];
        self.for_each_entry(j, |i, a| {
            rc -= y[i] * a;
        });
        rc
    }

    fn refactor(&mut self) -> bool {
        let cols: Vec<SparseColumn> = self.basis.iter().map(|&c| self.sparse_column(c)).collect();
        if !self.factor.refactor(self.m, &cols) {
            return false;
        }
        if self.xb.len() != self.m {
            self.xb = vec![0.0; self.m];
        }
        let (factor, xb) = (&self.factor, &mut self.xb);
        factor.ftran_dense(&self.b, xb);
        true
    }

    /// FTRAN of global column `j` into a [`SparseVector`] (indexed below
    /// the factorization's density cutoff, dense above it).
    fn ftran_into(&self, j: usize, w: &mut SparseVector, scratch: &mut SparseColumn) {
        scratch.clear();
        self.for_each_entry(j, |r, v| scratch.push((r, v)));
        self.factor.ftran_sparse_into(scratch, w);
    }

    /// This repair's work: its dual pivots plus the factorization's
    /// cumulative hyper-sparse counters. The factor is created fresh per
    /// repair, so no baseline subtraction is needed.
    fn repair_stats(&self) -> SolveStats {
        SolveStats {
            dual_pivots: self.iterations,
            ..SolveStats::of_sparsity(self.factor.sparsity_stats())
        }
    }

    /// Total primal infeasibility `Σ max(0, −x_B)`, the quantity the dual
    /// method drives to zero (used for stall detection).
    fn infeasibility(&self) -> f64 {
        self.xb.iter().map(|&x| (-x).max(0.0)).sum()
    }

    /// Recomputes the full nonbasic reduced-cost vector from fresh duals
    /// (`O(nnz)` plus one BTRAN) — used at entry and after refactorizations;
    /// between them the vector is maintained **incrementally** by the pivot
    /// update `rc_j ← rc_j − θ_d·α_j`, which reuses the pivot-row products
    /// the ratio test computed anyway, so a dual pivot pays one BTRAN (the
    /// pivot row) and one FTRAN (the entering column) — the same
    /// linear-algebra bill as a primal pivot.
    fn recompute_reduced_costs(&self, rc: &mut [f64], y: &mut [f64]) {
        let cb: Vec<f64> = self.basis.iter().map(|&c| self.cost[c]).collect();
        self.factor.btran(&cb, y);
        for (j, r) in rc.iter_mut().enumerate() {
            *r = if self.in_basis[j] {
                0.0
            } else {
                self.reduced_cost(y, j)
            };
        }
    }

    /// The dual-simplex loop: repair primal feasibility while keeping dual
    /// feasibility.
    fn run(&mut self) -> DualStatus {
        let m = self.m;
        let mut y = vec![0.0f64; m];
        let mut rho = SparseVector::zeros(m);
        let mut w = SparseVector::zeros(m);
        let mut rc = vec![0.0f64; self.n_total];
        // scatter workspace for the ratio test: `alpha_ws[j] = ρ·a_j` for
        // the candidate columns touched by the pivot row's support
        let mut alpha_ws = vec![0.0f64; self.n_total];
        let mut in_cand = vec![false; self.n_total];
        let mut cand: Vec<usize> = Vec::with_capacity(self.n_total);
        // Dual steepest-edge reference weights: `gamma[r]` approximates
        // `‖e_r B⁻¹‖²` for the current basis. Initialized to the exact
        // value for slack-heavy extended bases (1.0) and maintained by the
        // Forrest–Goldfarb reference update from the entering column's
        // FTRAN image — no additional BTRAN/FTRAN per pivot.
        let mut gamma = vec![1.0f64; m];
        // nonbasic columns touched by the current pivot row: `(j, α_j)`
        let mut touched: Vec<(usize, f64)> = Vec::with_capacity(self.n_total);
        let mut col_scratch = SparseColumn::new();
        let mut stall = 0usize;
        let mut last_infeas = f64::INFINITY;
        self.recompute_reduced_costs(&mut rc, &mut y);
        loop {
            if self.iterations >= self.max_iterations {
                return DualStatus::IterationLimit;
            }
            if self.refactor_interval > 0
                && self.factor.updates_since_refactor() >= self.refactor_interval
            {
                if !self.refactor() {
                    return DualStatus::IterationLimit;
                }
                // rebuilds reset incremental drift in x_B and rc alike
                self.recompute_reduced_costs(&mut rc, &mut y);
            }

            let use_bland = stall >= self.stall_threshold;
            // Leaving row: dual steepest-edge (max `x² / γ` among violated
            // rows), or the first violated row under the anti-cycling
            // override.
            let infeas_tol = self.tol.max(1e-9);
            let mut leaving: Option<usize> = None;
            let mut best_score = 0.0f64;
            for (r, &x) in self.xb.iter().enumerate() {
                if x < -infeas_tol {
                    if use_bland {
                        leaving = Some(r);
                        break;
                    }
                    let score = x * x / gamma[r].max(1e-12);
                    if leaving.is_none() || score > best_score {
                        best_score = score;
                        leaving = Some(r);
                    }
                }
            }
            let Some(l) = leaving else {
                return DualStatus::PrimalFeasible;
            };

            // Pivot row of the outgoing basis.
            self.factor.btran_unit_into(l, &mut rho);

            // Scatter the pivot row into the columns it touches: for every
            // support row `i`, walk that row's structural entries (plus its
            // slack, coefficient 1), accumulating `α_j = ρ·a_j`. A column
            // the scatter misses has α_j = 0 exactly, so it can be neither
            // an entering candidate nor an rc-update target — restricting
            // the ratio test to the candidate list is exact, including the
            // Farkas (infeasibility) verdict.
            cand.clear();
            {
                let rows_adj = &self.rows_adj;
                let in_basis = &self.in_basis;
                let barred = &self.barred;
                let n = self.n;
                rho.for_each_nonzero(|i, ri| {
                    let js = n + i; // slack of folded row i
                    if !in_basis[js] {
                        if !in_cand[js] {
                            in_cand[js] = true;
                            cand.push(js);
                        }
                        alpha_ws[js] += ri;
                    }
                    for &(j, a) in &rows_adj[i] {
                        if in_basis[j] || barred[j] {
                            continue;
                        }
                        if !in_cand[j] {
                            in_cand[j] = true;
                            cand.push(j);
                        }
                        alpha_ws[j] += ri * a;
                    }
                });
            }

            // Dual ratio test over the candidates. The default is a
            // two-pass Harris test: pass 1 relaxes dual feasibility by
            // `dual_feas` to obtain a bound on the dual step θ_d, pass 2
            // takes the best-conditioned pivot (largest |α|) whose exact
            // ratio stays within the bound. Under the anti-cycling override
            // the textbook smallest-ratio / smallest-index rule is kept.
            let pivot_tol = 1e-9;
            let mut entering: Option<usize> = None;
            let mut best_alpha = 0.0f64;
            if use_bland {
                let mut best_ratio = f64::INFINITY;
                for &j in &cand {
                    let alpha = alpha_ws[j];
                    if alpha >= -pivot_tol {
                        continue;
                    }
                    // clamp tiny positive drift so ratios stay non-negative
                    let ratio = rc[j].min(0.0) / alpha;
                    let better = ratio < best_ratio - self.tol
                        || (ratio < best_ratio + self.tol
                            && entering.map(|e| j < e).unwrap_or(true));
                    if better || entering.is_none() {
                        best_ratio = ratio;
                        best_alpha = alpha;
                        entering = Some(j);
                    }
                }
            } else {
                let dual_feas = self.tol.max(1e-9);
                let mut theta_max = f64::INFINITY;
                for &j in &cand {
                    let alpha = alpha_ws[j];
                    if alpha < -pivot_tol {
                        let bound = (rc[j].min(0.0) - dual_feas) / alpha;
                        if bound < theta_max {
                            theta_max = bound;
                        }
                    }
                }
                if theta_max.is_finite() {
                    for &j in &cand {
                        let alpha = alpha_ws[j];
                        if alpha < -pivot_tol
                            && rc[j].min(0.0) / alpha <= theta_max
                            && (entering.is_none() || alpha.abs() > best_alpha.abs())
                        {
                            best_alpha = alpha;
                            entering = Some(j);
                        }
                    }
                }
            }
            // Materialize the touched set for the incremental rc update and
            // restore the scatter workspace's all-zero invariant.
            touched.clear();
            for &j in &cand {
                let alpha = alpha_ws[j];
                if alpha != 0.0 {
                    touched.push((j, alpha));
                }
                alpha_ws[j] = 0.0;
                in_cand[j] = false;
            }
            let Some(e) = entering else {
                // Row l reads `Σ α_j x_j = x_B[l] < 0` with every nonbasic
                // α_j ≥ 0 and every x_j ≥ 0: no feasible point exists.
                return DualStatus::Infeasible;
            };

            // FTRAN the entering column and pivot exactly like the primal
            // method: θ = x_B[l] / w_l ≥ 0 because both are negative.
            self.ftran_into(e, &mut w, &mut col_scratch);
            if w.value(l).abs() <= 1e-12 {
                // drifted pivot row: refactorize and retry this iteration
                if !self.refactor() {
                    return DualStatus::IterationLimit;
                }
                self.recompute_reduced_costs(&mut rc, &mut y);
                continue;
            }
            let theta = self.xb[l] / w.value(l);
            {
                let xb = &mut self.xb;
                w.for_each_nonzero(|r, a| {
                    if r != l {
                        xb[r] -= theta * a;
                    }
                });
            }
            self.xb[l] = theta;

            // Dual steepest-edge reference update (Forrest–Goldfarb): the
            // entering column's FTRAN image `w` — already computed for the
            // pivot — bounds how every row norm can have grown:
            // `γ_r ← max(γ_r, (w_r / w_l)² · γ_l)`, `γ_l ← γ_l / w_l²`.
            // Weights only ever *grow* between resets, so checking the
            // blow-up trigger against the entries updated this pivot (plus
            // γ_l) is enough: any weight above the threshold was detected
            // at the pivot that set it.
            {
                let wl = w.value(l);
                let gamma_l = gamma[l].max(1.0);
                let inv_wl2 = 1.0 / (wl * wl);
                let mut max_gamma = 0.0f64;
                {
                    let gamma = &mut gamma;
                    w.for_each_nonzero(|r, wr| {
                        if r != l {
                            let candidate = wr * wr * inv_wl2 * gamma_l;
                            if candidate > gamma[r] {
                                gamma[r] = candidate;
                            }
                            max_gamma = max_gamma.max(gamma[r]);
                        }
                    });
                }
                gamma[l] = (gamma_l * inv_wl2).max(1.0);
                max_gamma = max_gamma.max(gamma[l]);
                if max_gamma > 1e12 {
                    // degenerate reference framework: restart the weights
                    gamma.fill(1.0);
                }
            }
            let leaving_col = self.basis[l];
            self.in_basis[leaving_col] = false;
            self.in_basis[e] = true;
            self.basis[l] = e;
            let refactored = if self.factor.update_sparse(l, &w) {
                false
            } else if self.refactor() {
                true
            } else {
                return DualStatus::IterationLimit;
            };
            self.iterations += 1;

            if refactored {
                self.recompute_reduced_costs(&mut rc, &mut y);
            } else {
                // Incremental dual update from the already-computed pivot
                // row: `θ_d = rc_e / α_e`, `rc_j ← rc_j − θ_d·α_j` for the
                // touched nonbasic columns; the leaving column has α = 1
                // (it *was* basis position l), so its new rc is −θ_d ≤ 0.
                let theta_d = rc[e].min(0.0) / best_alpha;
                for &(j, alpha) in &touched {
                    if !self.in_basis[j] {
                        rc[j] -= theta_d * alpha;
                    }
                }
                rc[e] = 0.0;
                rc[leaving_col] = -theta_d;
            }

            let infeas = self.infeasibility();
            if infeas < last_infeas - self.tol {
                stall = 0;
            } else {
                stall += 1;
            }
            last_infeas = infeas;
        }
    }

    /// Emits the repaired basis for the primal engine, mapping folded
    /// slacks back onto the primal engine's `Slack`/`Surplus` identities.
    fn into_warm_start(self) -> WarmStart {
        let basis = self
            .basis
            .iter()
            .map(|&c| {
                if c < self.n {
                    BasisVar::Structural(c)
                } else {
                    let i = c - self.n;
                    match self.lp.constraints()[i].relation {
                        Relation::Le => BasisVar::Slack(i),
                        Relation::Ge => BasisVar::Surplus(i),
                        Relation::Eq => unreachable!("Eq rows are rejected in build"),
                    }
                }
            })
            .collect();
        // The factorization inverts the *folded* basis, which differs from
        // the primal engine's rhs-normalized fold by a ±1 row scaling
        // whenever the two folds disagree on a row. The primal engine's
        // residual check repairs that case with one refactorization; when
        // the folds agree (all-`≤` rows with non-negative rhs — the master
        // shape) the factorization is adopted as-is.
        WarmStart::from_parts(basis, self.factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use crate::problem::{LinearProgram, Relation, Sense};
    use crate::simplex::{solve, LpStatus, SimplexOptions};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random bounded packing LP (the master shape).
    fn random_packing_lp(seed: u64, n: usize, m: usize) -> LinearProgram {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lp = LinearProgram::new(Sense::Maximize);
        for _ in 0..n {
            lp.add_variable(rng.random_range(1.0..10.0));
        }
        for _ in 0..m {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for j in 0..n {
                if rng.random_range(0.0..1.0) < 0.6 {
                    coeffs.push((j, rng.random_range(0.1..4.0)));
                }
            }
            lp.add_constraint(coeffs, Relation::Le, rng.random_range(1.0..15.0));
        }
        for j in 0..n {
            lp.add_constraint(vec![(j, 1.0)], Relation::Le, rng.random_range(0.5..4.0));
        }
        lp
    }

    #[test]
    fn tightening_row_is_repaired_by_the_dual_path() {
        // max 3x + 2y, x + y <= 4, x <= 2, y <= 3 -> (2, 2), obj 10.
        // Adding x + y <= 1 cuts the optimum off: the dual path must land on
        // the new optimum 3 (x = 1).
        let options = SimplexOptions::default();
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(3.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 3.0);
        let (first, state) = solve_with_warm_start(&lp, &options, None);
        assert_eq!(first.status, LpStatus::Optimal);

        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        let re = reoptimize_after_row_additions(&lp, &options, state);
        assert!(re.used_dual_path, "packing rows must take the dual path");
        assert_eq!(re.solution.status, LpStatus::Optimal);
        assert!((re.solution.objective - 3.0).abs() < 1e-7);
        assert!(re.solution.stats.dual_pivots > 0);
        assert!(lp.is_feasible(&re.solution.x, 1e-7));
    }

    #[test]
    fn slack_row_addition_needs_no_pivots() {
        let options = SimplexOptions::default();
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let (_, state) = solve_with_warm_start(&lp, &options, None);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 10.0);
        let re = reoptimize_after_row_additions(&lp, &options, state);
        assert!(re.used_dual_path);
        assert_eq!(re.solution.status, LpStatus::Optimal);
        assert!((re.solution.objective - 2.0).abs() < 1e-9);
        assert_eq!(re.solution.stats.dual_pivots, 0, "non-binding row");
        assert_eq!(
            re.solution.stats.simplex_iterations, 0,
            "primal resume needs no work"
        );
    }

    #[test]
    fn infeasible_after_row_addition_is_detected() {
        // x <= 2 optimal at 2; adding x >= 5 makes the LP infeasible.
        let options = SimplexOptions::default();
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let (_, state) = solve_with_warm_start(&lp, &options, None);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 5.0);
        let re = reoptimize_after_row_additions(&lp, &options, state);
        assert_eq!(re.solution.status, LpStatus::Infeasible);
    }

    #[test]
    fn equality_rows_fall_back_to_the_primal_path() {
        let options = SimplexOptions::default();
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 3.0);
        let (_, state) = solve_with_warm_start(&lp, &options, None);
        lp.add_constraint(vec![(y, 1.0)], Relation::Eq, 1.0);
        let re = reoptimize_after_row_additions(&lp, &options, state);
        assert!(!re.used_dual_path, "Eq rows are not dual-eligible");
        assert_eq!(re.solution.status, LpStatus::Optimal);
        assert!((re.solution.objective - 4.0).abs() < 1e-7); // x=2, y=1
    }

    #[test]
    fn foreign_warm_start_falls_back_and_still_solves() {
        // A basis from an unrelated LP (different coefficients): the dual
        // install's dual-feasibility check must reject it.
        let options = SimplexOptions::default();
        let mut donor = LinearProgram::new(Sense::Maximize);
        let d = donor.add_variable(0.1);
        donor.add_constraint(vec![(d, 1.0)], Relation::Le, 1.0);
        let (_, state) = solve_with_warm_start(&donor, &options, None);

        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(5.0);
        lp.add_constraint(vec![(x, 2.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 3.0);
        let re = reoptimize_after_row_additions(&lp, &options, state);
        assert_eq!(re.solution.status, LpStatus::Optimal);
        assert!((re.solution.objective - 10.0).abs() < 1e-7);
    }

    #[test]
    fn repaired_state_keeps_working_for_further_rounds() {
        // add rows twice, reoptimizing dually each time, then grow a column
        // and resume primally — the warm state must stay coherent across
        // both engines' paths.
        let options = SimplexOptions::default();
        let mut lp = random_packing_lp(5, 6, 4);
        let (first, state) = solve_with_warm_start(&lp, &options, None);
        assert_eq!(first.status, LpStatus::Optimal);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 0.7);
        let re1 = reoptimize_after_row_additions(&lp, &options, state);
        assert!(re1.used_dual_path);
        lp.add_constraint(vec![(2, 1.0), (3, 1.0)], Relation::Le, 0.5);
        let re2 = reoptimize_after_row_additions(&lp, &options, re1.warm);
        assert!(re2.used_dual_path);
        let cold = solve(&lp, &options);
        assert!((re2.solution.objective - cold.objective).abs() < 1e-6);

        // column growth on top of the dually repaired basis
        let z = lp.add_variable(100.0);
        lp.add_constraint(vec![(z, 1.0)], Relation::Le, 0.25);
        // (new row referencing only the new column: the prior basis rows are
        // a prefix, so the dual path applies again)
        let re3 = reoptimize_after_row_additions(&lp, &options, re2.warm);
        let cold3 = solve(&lp, &options);
        assert_eq!(re3.solution.status, LpStatus::Optimal);
        assert!((re3.solution.objective - cold3.objective).abs() < 1e-6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random packing LP, then random extra `≤` rows (sometimes
        /// duplicated for degeneracy): dual reoptimization must match a
        /// dense cold solve of the grown LP.
        #[test]
        fn prop_dual_reopt_matches_dense_after_row_additions(
            seed in 0u64..10_000,
            n in 2usize..8,
            m in 1usize..6,
            extra in 1usize..5,
            dup in any::<bool>(),
        ) {
            let options = SimplexOptions::default();
            let mut lp = random_packing_lp(seed, n, m);
            let (first, state) = solve_with_warm_start(&lp, &options, None);
            prop_assert_eq!(first.status, LpStatus::Optimal);

            let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
            let mut last_coeffs: Vec<(usize, f64)> = Vec::new();
            let mut last_rhs = 1.0;
            for _ in 0..extra {
                let mut coeffs: Vec<(usize, f64)> = Vec::new();
                for j in 0..n {
                    if rng.random_range(0.0..1.0) < 0.7 {
                        coeffs.push((j, rng.random_range(0.1..3.0)));
                    }
                }
                let rhs = rng.random_range(0.2..3.0);
                lp.add_constraint(coeffs.clone(), Relation::Le, rhs);
                last_coeffs = coeffs;
                last_rhs = rhs;
            }
            if dup && !last_coeffs.is_empty() {
                // an exactly repeated row: the repaired basis is degenerate
                lp.add_constraint(last_coeffs, Relation::Le, last_rhs);
            }

            let re = reoptimize_after_row_additions(&lp, &options, state);
            let reference = dense::solve(&lp, &SimplexOptions::default());
            prop_assert_eq!(re.solution.status, reference.status);
            if re.solution.status == LpStatus::Optimal {
                prop_assert!(lp.is_feasible(&re.solution.x, 1e-6));
                prop_assert!(
                    (re.solution.objective - reference.objective).abs()
                        < 1e-6 * (1.0 + reference.objective.abs()),
                    "dual reopt {} vs dense {}",
                    re.solution.objective, reference.objective
                );
                // strong duality of the reported duals
                let priced: f64 = lp
                    .constraints()
                    .iter()
                    .zip(re.solution.duals.iter())
                    .map(|(c, &y)| c.rhs * y)
                    .sum();
                prop_assert!((priced - re.solution.objective).abs()
                    < 1e-5 * (1.0 + re.solution.objective.abs()));
            }
        }

        /// Forcing infeasibility with a demanding `≥` row: the dual path
        /// must agree with the dense oracle that no point exists.
        #[test]
        fn prop_dual_reopt_detects_infeasibility(
            seed in 0u64..10_000,
            n in 2usize..6,
            m in 1usize..5,
        ) {
            let options = SimplexOptions::default();
            let mut lp = random_packing_lp(seed, n, m);
            let (first, state) = solve_with_warm_start(&lp, &options, None);
            prop_assert_eq!(first.status, LpStatus::Optimal);
            // every variable is bounded by its bound row, so demanding more
            // than the summed bounds is infeasible
            let total_bound: f64 = lp
                .constraints()
                .iter()
                .filter(|c| c.coeffs.len() == 1 && c.coeffs[0].1 == 1.0)
                .map(|c| c.rhs)
                .sum();
            let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0)).collect();
            lp.add_constraint(coeffs, Relation::Ge, total_bound + 5.0);

            let re = reoptimize_after_row_additions(&lp, &options, state);
            let reference = dense::solve(&lp, &SimplexOptions::default());
            prop_assert_eq!(reference.status, LpStatus::Infeasible);
            prop_assert_eq!(re.solution.status, LpStatus::Infeasible);
        }
    }
}
