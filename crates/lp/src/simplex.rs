//! A sparse **revised simplex** engine: primal steepest-edge pricing
//! ([`crate::pricing`]) over a Forrest–Tomlin LU factorization of the basis
//! ([`crate::basis`]).
//!
//! Instead of the dense tableau `[B⁻¹A | B⁻¹b]` (`m · n_total` entries
//! touched per pivot) the revised method keeps only a factorization of the
//! basis, whose FTRAN/BTRAN cost is proportional to the factor sparsity
//! rather than `m²`, and moves the entering column and the pivot row
//! through it as indexed [`SparseVector`]s. After `stall_threshold` pivots without objective
//! improvement the core overrides steepest edge with Bland's rule (first
//! improving index, smallest-ratio/smallest-index leaving row), which
//! guarantees termination.
//!
//! **Refactorization**: every [`SimplexOptions::refactor_interval`] pivots
//! (and whenever the factorization declines an update or a warm-started
//! basis looks inconsistent) the factorization is rebuilt from the basis
//! columns and the basic solution is recomputed as `x_B = B⁻¹ b`. The
//! number of refactorizations and degenerate pivots is reported in
//! [`LpSolution::stats`] so benches can attribute time per stage.
//!
//! **Warm starts**: [`solve_with_warm_start`] accepts the [`WarmStart`]
//! returned by a previous solve over the *same rows* and resumes from that
//! basis, skipping phase 1 entirely. The state carries the basis *and* its
//! factorization (moved, not copied), so a warm re-solve pays no
//! re-factorization. Column generation exploits this: new columns enter
//! nonbasic, so each master re-solve continues from the previous optimum.
//!
//! Packing LPs (all `≤` constraints with non-negative right-hand sides) are
//! detected automatically and start from the all-slack basis, skipping
//! phase 1; general `≥`/`=` rows go through a standard two-phase scheme with
//! artificial variables. The dense tableau solver survives as
//! [`crate::dense`]; property tests assert the engine agrees with it to
//! 1e-6.

use crate::basis::{ForrestTomlinLu, SparseColumn, SparseVector, SparsityStats};
use crate::pricing::SteepestEdgePricing;
use crate::problem::{CscMatrix, LinearProgram, Relation, Sense};
use serde::{Deserialize, Serialize};

/// Termination status of a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The iteration limit was hit before optimality was proven.
    IterationLimit,
}

/// Engine counters of one solve, or of many solves merged with
/// [`SolveStats::merge`] — the one counters record of the LP stack.
///
/// Every layer above embeds it rather than re-declaring its fields: a
/// column-generation run merges its master re-solves
/// ([`crate::ColumnGenerationResult::stats`]), the auction relaxation
/// reports it as `RelaxationInfo::engine`, and the exchange merges every
/// drained resolve into `ExchangeStats::lp`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Simplex pivots across both phases.
    pub simplex_iterations: usize,
    /// Factorization rebuilds, **total** (scheduled periodic hygiene plus
    /// stability-forced; the forced subset is
    /// [`forced_refactorizations`](Self::forced_refactorizations)).
    pub refactorizations: usize,
    /// Stability-forced factorization rebuilds: the factorization declined
    /// a pivot update (unstable FT diagonal, full row-eta file) or a
    /// numerically degenerate direction forced a rebuild-and-retry. The
    /// scheduled-hygiene count is `refactorizations − forced_refactorizations`.
    pub forced_refactorizations: usize,
    /// Pivots whose leaving variable was already at zero.
    pub degenerate_pivots: usize,
    /// Dual-simplex reoptimization pivots ([`crate::dual`]) that repaired
    /// primal feasibility after row additions before this (primal) solve
    /// resumed. Always 0 on the plain primal path.
    pub dual_pivots: usize,
    /// FTRANs answered on the hyper-sparse (Gilbert–Peierls) path, whose
    /// cost was proportional to the solve graph reached from the RHS
    /// support rather than to `m`.
    pub ftran_sparse_hits: usize,
    /// FTRANs that bailed to the dense kernel (result density above the
    /// cutoff).
    pub ftran_dense_fallbacks: usize,
    /// BTRANs answered on the hyper-sparse path (unit-RHS pivot rows).
    pub btran_sparse_hits: usize,
    /// BTRANs that bailed to the dense kernel.
    pub btran_dense_fallbacks: usize,
    /// Mean result density (pattern length / m) across all tracked
    /// FTRAN/BTRAN solves; dense fallbacks count as density 1.0. Reads 1.0
    /// when no solves were tracked.
    pub avg_result_density: f64,
}

impl Default for SolveStats {
    fn default() -> Self {
        SolveStats {
            simplex_iterations: 0,
            refactorizations: 0,
            forced_refactorizations: 0,
            degenerate_pivots: 0,
            dual_pivots: 0,
            ftran_sparse_hits: 0,
            ftran_dense_fallbacks: 0,
            btran_sparse_hits: 0,
            btran_dense_fallbacks: 0,
            avg_result_density: 1.0,
        }
    }
}

impl SolveStats {
    /// The hyper-sparse counters of a factorization's solves (every other
    /// counter 0).
    pub(crate) fn of_sparsity(sp: SparsityStats) -> Self {
        SolveStats {
            ftran_sparse_hits: sp.ftran_sparse as usize,
            ftran_dense_fallbacks: sp.ftran_dense as usize,
            btran_sparse_hits: sp.btran_sparse as usize,
            btran_dense_fallbacks: sp.btran_dense as usize,
            avg_result_density: sp.avg_density(),
            ..SolveStats::default()
        }
    }

    /// FTRAN/BTRAN solves the sparsity counters tracked.
    pub fn tracked_solves(&self) -> usize {
        self.ftran_sparse_hits
            + self.ftran_dense_fallbacks
            + self.btran_sparse_hits
            + self.btran_dense_fallbacks
    }

    /// Folds `other` into `self`: every counter adds, and the result
    /// density becomes the tracked-solve-weighted mean of both sides. A
    /// side that tracked no solve carries no weight, so merging into a
    /// default record adopts `other`'s density and merging a record with
    /// no tracked solve keeps `self`'s.
    pub fn merge(&mut self, other: &SolveStats) {
        let theirs = other.tracked_solves() as f64;
        if theirs > 0.0 {
            let mine = self.tracked_solves() as f64;
            self.avg_result_density = (self.avg_result_density * mine
                + other.avg_result_density * theirs)
                / (mine + theirs);
        }
        self.simplex_iterations += other.simplex_iterations;
        self.refactorizations += other.refactorizations;
        self.forced_refactorizations += other.forced_refactorizations;
        self.degenerate_pivots += other.degenerate_pivots;
        self.dual_pivots += other.dual_pivots;
        self.ftran_sparse_hits += other.ftran_sparse_hits;
        self.ftran_dense_fallbacks += other.ftran_dense_fallbacks;
        self.btran_sparse_hits += other.btran_sparse_hits;
        self.btran_dense_fallbacks += other.btran_dense_fallbacks;
    }
}

/// Result of a simplex solve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value in the problem's original sense (meaningful only when
    /// `status == Optimal` or `IterationLimit`).
    pub objective: f64,
    /// Primal values indexed by variable.
    pub x: Vec<f64>,
    /// Dual values indexed by constraint, in the convention that strong
    /// duality `Σ_i duals[i] · rhs[i] = objective` holds at optimality.
    pub duals: Vec<f64>,
    /// Engine statistics for this solve (pivots, refactorizations, …).
    pub stats: SolveStats,
}

/// Solver options.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SimplexOptions {
    /// Numerical tolerance for feasibility, pricing and pivoting decisions.
    pub tolerance: f64,
    /// Maximum number of pivots across both phases. `0` means automatic:
    /// `200 · (m + n_total) + 10_000`, recomputed from the problem actually
    /// being solved — so in column generation the budget grows with the
    /// restricted master's *current* column count rather than staying pinned
    /// at the seed LP's size.
    pub max_iterations: usize,
    /// After this many consecutive pivots without objective improvement the
    /// solver switches to Bland's rule to escape potential cycling.
    pub stall_threshold: usize,
    /// Rebuild the basis factorization after this many updates (numerical
    /// hygiene). `0` disables periodic refactorization (the factorization
    /// may still force one by declining an update).
    pub refactor_interval: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            tolerance: 1e-9,
            max_iterations: 0,
            stall_threshold: 64,
            refactor_interval: 256,
        }
    }
}

/// Identity of a basis member, stable across re-solves of a problem whose
/// rows are fixed but whose column set grows (the restricted master of
/// column generation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BasisVar {
    /// Structural variable `j` of the [`LinearProgram`].
    Structural(usize),
    /// Slack of row `i` (a `≤` row after rhs normalization).
    Slack(usize),
    /// Surplus of row `i` (a `≥` row after rhs normalization).
    Surplus(usize),
    /// Artificial of row `i` (`≥` or `=` rows; basic only at value 0 after
    /// phase 1, or marking a redundant row).
    Artificial(usize),
}

/// Resumable solver state: the optimal basis of a previous solve together
/// with its factorization.
///
/// Valid for re-solves of an LP with the **same constraint rows** (same
/// relations and right-hand sides); the column set may have grown, because
/// new columns start nonbasic and therefore do not touch `B`. This is
/// exactly the restricted-master situation in column generation.
#[derive(Clone, Debug)]
pub struct WarmStart {
    /// One basis member per row.
    pub basis: Vec<BasisVar>,
    /// The factorization matching `basis` (moved in and out of the solver,
    /// never copied on the warm path).
    factor: ForrestTomlinLu,
}

impl WarmStart {
    /// Assembles a state from a basis and a matching factorization (used by
    /// [`crate::dual`], which maintains both itself).
    pub(crate) fn from_parts(basis: Vec<BasisVar>, factor: ForrestTomlinLu) -> Self {
        WarmStart { basis, factor }
    }

    /// Number of rows this state was built for.
    pub fn num_rows(&self) -> usize {
        self.basis.len()
    }

    /// Keeps the basis but drops the factorization, forcing the next solve
    /// to refactorize from the *target problem's* columns.
    ///
    /// This is the sound way to seed a **different** problem (another
    /// channel's master, the next edge LP in a sweep): the basis identities
    /// carry over, but the stored `B⁻¹` was computed from the donor's
    /// constraint matrix and silently priced the new problem wrong when the
    /// matrices differ. Re-solving the *same* rows with grown columns (the
    /// restricted-master path) should keep the factorization and not call
    /// this.
    pub fn into_basis_only(self) -> WarmStart {
        WarmStart {
            factor: ForrestTomlinLu::default(),
            basis: self.basis,
        }
    }
}

/// Solves a linear program with the sparse revised simplex method.
pub fn solve(lp: &LinearProgram, options: &SimplexOptions) -> LpSolution {
    solve_with_warm_start(lp, options, None).0
}

/// Solves a linear program, optionally resuming from the basis of a
/// previous solve over the same rows, and returns the solution together
/// with the final basis for future warm starts.
///
/// The state is taken **by value**: its factorization is moved into the
/// solver and moved back out, so a warm re-solve never copies it (at master
/// sizes of ~10³ rows those copies would dominate the handful of pivots a
/// warm re-solve actually needs). A basis-only state
/// ([`WarmStart::into_basis_only`]) costs one refactorization from the
/// basis columns.
pub fn solve_with_warm_start(
    lp: &LinearProgram,
    options: &SimplexOptions,
    warm: Option<WarmStart>,
) -> (LpSolution, WarmStart) {
    let mut solver = Revised::build(lp, options);
    let status = solver.run(warm);
    let solution = solver.extract(status);
    let state = solver.into_warm_start();
    (solution, state)
}

struct Revised<'a> {
    lp: &'a LinearProgram,
    tol: f64,
    max_iterations: usize,
    stall_threshold: usize,
    refactor_interval: usize,

    m: usize,
    n: usize,
    n_total: usize,
    /// structural columns with row-normalization signs already applied
    cols: CscMatrix,
    /// per-row sign applied to normalize rhs ≥ 0
    row_sign: Vec<f64>,
    /// normalized rhs (≥ 0)
    b: Vec<f64>,
    /// layout of logical columns (index into the global column space)
    slack_col: Vec<Option<usize>>,
    surplus_col: Vec<Option<usize>>,
    art_col: Vec<Option<usize>>,
    /// inverse layout: what each global column is
    kind: Vec<BasisVar>,
    first_artificial: usize,
    /// maximization costs per global column (original objective)
    cost: Vec<f64>,
    /// per global column: may it enter a basis? `false` for structural
    /// variables fixed at zero ([`LinearProgram::fix_variables_at_zero`]);
    /// logical columns are always enterable. A fixed column arriving basic
    /// through a warm start may stay basic until it leaves naturally.
    enterable: Vec<bool>,

    /// basis member (global column index) per row
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    factor: ForrestTomlinLu,
    /// current basic solution B⁻¹ b
    xb: Vec<f64>,

    /// Factorization sparsity counters at solve start (the factorization's
    /// counters are monotone over its lifetime, which for a warm-started
    /// solve began in a *previous* solve); [`Revised::extract`] reports the
    /// delta since this snapshot.
    sparsity_baseline: SparsityStats,

    iterations: usize,
    refactorizations: usize,
    forced_refactorizations: usize,
    degenerate_pivots: usize,
    /// Set when a mid-solve refactorization found the current basis
    /// numerically singular (the factorization is then empty, per the
    /// [`ForrestTomlinLu::refactor`] contract). [`Revised::run`] answers
    /// with one cold restart — the collapse reflects numerical breakdown of
    /// the pivot path, not the LP.
    factor_failed: bool,
}

impl<'a> Revised<'a> {
    fn build(lp: &'a LinearProgram, options: &SimplexOptions) -> Self {
        let m = lp.num_constraints();
        let n = lp.num_variables();

        let mut row_sign = vec![1.0f64; m];
        let mut b = vec![0.0f64; m];
        let mut eff: Vec<Relation> = Vec::with_capacity(m);
        for (i, c) in lp.constraints().iter().enumerate() {
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
            row_sign[i] = sign;
            b[i] = sign * c.rhs;
            eff.push(rel);
        }

        // Structural columns in CSC form with the row signs folded in.
        let mut cols = lp.to_csc();
        for (val, &row) in cols.values.iter_mut().zip(cols.row_idx.iter()) {
            *val *= row_sign[row];
        }

        // Logical column layout: slacks, then surpluses, then artificials —
        // the same index discipline as the dense solver, so Bland's rule
        // visits columns in the same order.
        let mut slack_col = vec![None; m];
        let mut surplus_col = vec![None; m];
        let mut art_col = vec![None; m];
        let mut kind: Vec<BasisVar> = (0..n).map(BasisVar::Structural).collect();
        let mut next = n;
        for (i, rel) in eff.iter().enumerate() {
            if matches!(rel, Relation::Le) {
                slack_col[i] = Some(next);
                kind.push(BasisVar::Slack(i));
                next += 1;
            }
        }
        for (i, rel) in eff.iter().enumerate() {
            if matches!(rel, Relation::Ge) {
                surplus_col[i] = Some(next);
                kind.push(BasisVar::Surplus(i));
                next += 1;
            }
        }
        let first_artificial = next;
        for (i, rel) in eff.iter().enumerate() {
            if matches!(rel, Relation::Ge | Relation::Eq) {
                art_col[i] = Some(next);
                kind.push(BasisVar::Artificial(i));
                next += 1;
            }
        }
        let n_total = next;

        let sense_sign = match lp.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        let mut cost = vec![0.0f64; n_total];
        for (v, &c) in lp.objective().iter().enumerate() {
            cost[v] = sense_sign * c;
        }

        let mut enterable = vec![true; n_total];
        for (v, e) in enterable.iter_mut().enumerate().take(n) {
            *e = !lp.is_variable_fixed(v);
        }

        let max_iterations = if options.max_iterations == 0 {
            200 * (m + n_total) + 10_000
        } else {
            options.max_iterations
        };

        Revised {
            lp,
            tol: options.tolerance,
            max_iterations,
            stall_threshold: options.stall_threshold,
            refactor_interval: options.refactor_interval,
            m,
            n,
            n_total,
            cols,
            row_sign,
            b,
            slack_col,
            surplus_col,
            art_col,
            kind,
            first_artificial,
            cost,
            enterable,
            basis: Vec::new(),
            in_basis: vec![false; n_total],
            factor: ForrestTomlinLu::default(),
            xb: Vec::new(),
            sparsity_baseline: SparsityStats::default(),
            iterations: 0,
            refactorizations: 0,
            forced_refactorizations: 0,
            degenerate_pivots: 0,
            factor_failed: false,
        }
    }

    /// Visits the sparse entries of global column `j` (signs applied).
    #[inline]
    fn for_each_entry(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        match self.kind[j] {
            BasisVar::Structural(v) => {
                let (rows, vals) = self.cols.column(v);
                for (&r, &a) in rows.iter().zip(vals.iter()) {
                    if a != 0.0 {
                        f(r, a);
                    }
                }
            }
            BasisVar::Slack(i) | BasisVar::Artificial(i) => f(i, 1.0),
            BasisVar::Surplus(i) => f(i, -1.0),
        }
    }

    /// Materializes global column `j` as a sparse `(row, value)` vector.
    fn sparse_column(&self, j: usize) -> SparseColumn {
        let mut col = SparseColumn::new();
        self.for_each_entry(j, |r, v| col.push((r, v)));
        col
    }

    /// Maps a stable basis identity to the current global column index.
    fn column_of(&self, var: BasisVar) -> Option<usize> {
        match var {
            BasisVar::Structural(j) => (j < self.n).then_some(j),
            BasisVar::Slack(i) => self.slack_col.get(i).copied().flatten(),
            BasisVar::Surplus(i) => self.surplus_col.get(i).copied().flatten(),
            BasisVar::Artificial(i) => self.art_col.get(i).copied().flatten(),
        }
    }

    /// Installs the cold-start identity basis (slack or artificial per row).
    fn cold_basis(&mut self) {
        self.basis = (0..self.m)
            .map(|i| {
                self.slack_col[i]
                    .or(self.art_col[i])
                    .expect("every row creates an identity column")
            })
            .collect();
        self.in_basis = vec![false; self.n_total];
        for &c in &self.basis {
            self.in_basis[c] = true;
        }
        // Identity-creating columns are exactly e_i, so B = I; factorizing
        // it is trivial for every representation.
        let ok = self.refactor();
        debug_assert!(ok, "the identity basis cannot be singular");
        self.xb = self.b.clone();
        // Installing the starting basis is not a hygiene event: the stats
        // counter covers only rebuilds *during* the solve, so cold and warm
        // solves of the same work read the same.
        self.refactorizations = 0;
        self.forced_refactorizations = 0;
    }

    /// Attempts to install a warm-start basis; returns `false` if the state
    /// does not fit this problem (the caller then cold-starts, overwriting
    /// any partial state installed here).
    fn try_warm_basis(&mut self, warm: WarmStart) -> bool {
        if warm.basis.len() != self.m {
            return false;
        }
        let mut basis = Vec::with_capacity(self.m);
        for &var in &warm.basis {
            match self.column_of(var) {
                Some(c) => basis.push(c),
                None => return false,
            }
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
        if warm.factor.num_rows() == self.m {
            // adopt the factorization without any rebuild. Its
            // sparsity counters carry history from the donor solve — re-anchor
            // the baseline so extract() reports only this solve's work.
            self.factor = warm.factor;
            self.sparsity_baseline = self.factor.sparsity_stats();
            self.xb = vec![0.0; self.m];
            let (factor, xb) = (&self.factor, &mut self.xb);
            factor.ftran_dense(&self.b, xb);
            // Validate the adopted factorization against *this* problem's
            // basis columns: a state recycled across different constraint
            // matrices (same shape, different coefficients) would price
            // every reduced cost against a stale B⁻¹ and can terminate
            // "optimal" at a wrong vertex. ‖B·x_B − b‖∞ is O(nnz) and
            // catches that; one refactorization repairs it.
            if self.residual_inf_norm() > 1e-6 && !self.refactor() {
                return false;
            }
        } else if !self.refactor() {
            // basis-only seed: one rebuild from the basis
            return false;
        }
        // The rows are supposed to be unchanged, so the previous basic
        // solution must still be (near-)feasible. If it is not — caller
        // reused state across incompatible problems, or drift built up —
        // refactorize once, then give up on the warm start.
        if self.min_xb() < -1e-7 && !(self.refactor() && self.min_xb() >= -1e-7) {
            return false;
        }
        for v in &mut self.xb {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        // A fixed column that arrived basic may only stay when that is
        // provably harmless (it consumes ≤-row slack only — the packing
        // shape). Otherwise reject the warm start: the cold start keeps
        // every fixed variable at exactly 0, so covering and minimization
        // shapes report the true fixed-at-zero optimum instead of letting
        // a zero-cost basic column satisfy `≥` rows for free. The value
        // does NOT matter: the `enterable` mask only bars *entering*, so
        // even a fixed column basic at 0 would be free to grow as later
        // pivots of other columns shift the basic solution — e.g. a fixed
        // column with a −1 coefficient silently relaxing its row.
        for &c in self.basis.iter() {
            if let BasisVar::Structural(v) = self.kind[c] {
                if self.lp.is_variable_fixed(v) && !self.lp.fixed_value_is_harmless(v) {
                    return false;
                }
            }
        }
        // Adopting/converting the starting basis is install work, not a
        // hygiene rebuild (see cold_basis).
        self.refactorizations = 0;
        self.forced_refactorizations = 0;
        true
    }

    fn min_xb(&self) -> f64 {
        self.xb.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// `‖B·x_B − b‖∞` for the current basis and basic solution: a cheap
    /// consistency check that the factorization actually inverts this
    /// problem's basis matrix.
    fn residual_inf_norm(&self) -> f64 {
        let mut residual = self.b.clone();
        for (c, &col) in self.basis.iter().enumerate() {
            let xc = self.xb[c];
            if xc != 0.0 {
                self.for_each_entry(col, |r, v| residual[r] -= v * xc);
            }
        }
        residual.iter().fold(0.0f64, |acc, &r| acc.max(r.abs()))
    }

    /// Rebuilds the factorization from the basis columns and recomputes
    /// `x_B`. Returns `false` if the basis matrix is numerically singular.
    fn refactor(&mut self) -> bool {
        let cols: Vec<SparseColumn> = self.basis.iter().map(|&c| self.sparse_column(c)).collect();
        if !self.factor.refactor(self.m, &cols) {
            self.factor_failed = true;
            return false;
        }
        self.refactorizations += 1;
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

    /// Reduced cost of column `j` at duals `y`.
    #[inline]
    fn reduced_cost(&self, cost: &[f64], y: &[f64], j: usize) -> f64 {
        let mut rc = cost[j];
        self.for_each_entry(j, |i, a| {
            rc -= y[i] * a;
        });
        rc
    }

    fn objective_of_basis(&self, cost: &[f64]) -> f64 {
        (0..self.m).map(|r| cost[self.basis[r]] * self.xb[r]).sum()
    }

    /// Applies the pivot (leaving row `l`, entering column `e`, direction
    /// `w = B⁻¹ a_e`) to the basic solution, the basis bookkeeping, and the
    /// factorization. Returns `false` only when the factorization declined
    /// the update *and* the recovery refactorization failed.
    fn pivot(&mut self, l: usize, e: usize, w: &SparseVector) -> bool {
        let wl = w.value(l);
        debug_assert!(wl.abs() > 1e-12, "pivot element too small");
        let theta = self.xb[l] / wl;
        let xb = &mut self.xb;
        w.for_each_nonzero(|r, a| {
            if r != l {
                let xr = &mut xb[r];
                *xr -= theta * a;
                if *xr < 0.0 && *xr > -1e-11 {
                    *xr = 0.0;
                }
            }
        });
        self.xb[l] = theta;

        self.in_basis[self.basis[l]] = false;
        self.in_basis[e] = true;
        self.basis[l] = e;

        if !self.factor.update_sparse(l, w) {
            // The factorization declined (unstable FT diagonal or a full
            // row-eta file): rebuild from the already-updated basis
            // columns. This is a stability-forced rebuild, not hygiene.
            self.forced_refactorizations += 1;
            return self.refactor();
        }
        true
    }

    /// Runs simplex iterations with the given cost vector and entering
    /// filter. Returns `None` when optimal for this cost, or a terminal
    /// status.
    ///
    /// The duals `y = c_B B⁻¹` are maintained **incrementally** whenever the
    /// pivot row `ρ = e_l B⁻¹` is available (`y' = y + (rc_e / w_l)·ρ`, the
    /// textbook dual update): the pivot row is exactly the BTRAN that
    /// steepest edge already pays for its weight update, so caching it for
    /// the dual update means a pivot costs **one** BTRAN total instead of
    /// two. When the pricer skips the pivot row (empty candidate list) `y`
    /// is recomputed from scratch, and optimality claimed under
    /// incrementally updated duals is always re-certified against freshly
    /// computed ones before being returned.
    fn iterate(
        &mut self,
        cost: &[f64],
        allow_enter: impl Fn(usize) -> bool,
        pricer: &mut SteepestEdgePricing,
    ) -> Option<LpStatus> {
        let m = self.m;
        let mut y = vec![0.0f64; m];
        let mut cb = vec![0.0f64; m];
        let mut w = SparseVector::zeros(m);
        let mut rho_buf = SparseVector::zeros(m);
        let mut col_scratch = SparseColumn::new();
        let mut stall = 0usize;
        let mut last_obj = self.objective_of_basis(cost);
        // `y_valid`: y holds (possibly incrementally updated) duals for the
        // current basis. `y_fresh`: y was recomputed by a full BTRAN for the
        // current basis, so an empty pricing scan is a proof of optimality.
        let mut y_valid = false;
        let mut y_fresh = false;
        loop {
            if self.iterations >= self.max_iterations {
                return Some(LpStatus::IterationLimit);
            }
            if self.refactor_interval > 0
                && self.factor.updates_since_refactor() >= self.refactor_interval
            {
                // Debug builds verify the update path against the rebuild it
                // is about to be replaced by: the pivot-updated factors and
                // a from-scratch refactorization must produce the same
                // basic solution (catches FT/eta algebra drift at the site
                // where it would otherwise be silently erased).
                #[cfg(debug_assertions)]
                let xb_updated: Vec<f64> = {
                    let mut v = vec![0.0f64; m];
                    self.factor.ftran_dense(&self.b, &mut v);
                    v
                };
                if !self.refactor() {
                    // A singular rebuild means the factorization had drifted
                    // beyond repair; continuing would price against garbage.
                    return Some(LpStatus::IterationLimit);
                }
                #[cfg(debug_assertions)]
                {
                    let scale = 1.0 + self.xb.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
                    for (r, (&upd, &fresh)) in xb_updated.iter().zip(self.xb.iter()).enumerate() {
                        debug_assert!(
                            (upd - fresh).abs() <= 1e-4 * scale,
                            "updated factors disagree with fresh refactor at row {r}: \
                             {upd} vs {fresh}"
                        );
                    }
                }
                // the rebuild resets accumulated drift; so should the duals
                y_valid = false;
                // steepest edge resets its candidate weights to exact norms
                // against the fresh factors (one sparse FTRAN per candidate)
                {
                    let this = &*self;
                    let scratch =
                        std::cell::RefCell::new((SparseVector::zeros(m), SparseColumn::new()));
                    let exact = |j: usize| -> f64 {
                        let (w, cs) = &mut *scratch.borrow_mut();
                        this.ftran_into(j, w, cs);
                        let mut s = 0.0;
                        w.for_each_nonzero(|_, v| s += v * v);
                        s
                    };
                    pricer.notify_refactor(&exact);
                }
            }

            if !y_valid {
                for (r, c) in cb.iter_mut().enumerate() {
                    *c = cost[self.basis[r]];
                }
                self.factor.btran(&cb, &mut y);
                y_valid = true;
                y_fresh = true;
            }

            let use_bland = stall >= self.stall_threshold;
            let select =
                |this: &Self, y: &[f64], pricer: &mut SteepestEdgePricing| -> Option<usize> {
                    let rc = |j: usize| this.reduced_cost(cost, y, j);
                    let eligible = |j: usize| !this.in_basis[j] && allow_enter(j);
                    if use_bland {
                        // Anti-cycling override: Bland's rule instead of steepest
                        // edge (guaranteed to terminate).
                        (0..this.n_total).find(|&j| eligible(j) && rc(j) > this.tol)
                    } else {
                        pricer.select_entering(this.n_total, this.tol, &eligible, &rc)
                    }
                };
            let e = match select(self, &y, pricer) {
                Some(e) => e,
                None if y_fresh => return None,
                None => {
                    // Optimality under incrementally updated duals is only a
                    // candidate: recompute y exactly and ask again.
                    for (r, c) in cb.iter_mut().enumerate() {
                        *c = cost[self.basis[r]];
                    }
                    self.factor.btran(&cb, &mut y);
                    y_fresh = true;
                    select(self, &y, pricer)?
                }
            };
            // reduced cost of the entering column under the current duals,
            // needed for the incremental dual update after the pivot
            let rc_e = self.reduced_cost(cost, &y, e);

            self.ftran_into(e, &mut w, &mut col_scratch);
            // the FTRAN image is in hand: its squared norm is the exact
            // steepest-edge weight of the entering column, free of charge
            let mut w_norm_sq = 0.0f64;
            w.for_each_nonzero(|_, v| w_norm_sq += v * v);
            pricer.observe_entering(e, w_norm_sq);

            // Ratio test over the pivot column's support only. The default
            // is a two-pass Harris test: pass 1 finds the *relaxed* minimum
            // ratio (each basic value granted `feas` of slack), pass 2 picks
            // the largest-magnitude pivot element whose ratio stays within
            // that bound — trading a harmless O(feas) primal infeasibility
            // for a far better-conditioned pivot on degenerate LPs, where
            // the textbook rule is forced onto whichever tiny pivot attains
            // the exact minimum. Under the Bland override the textbook
            // smallest-ratio / smallest-index rule is kept (the termination
            // guarantee needs it).
            let mut leaving: Option<usize> = None;
            let mut col_max = 0.0f64;
            if use_bland {
                let mut best_ratio = f64::INFINITY;
                w.for_each_nonzero(|r, a| {
                    if a > self.tol {
                        let ratio = self.xb[r] / a;
                        let better = ratio < best_ratio - self.tol
                            || (ratio < best_ratio + self.tol
                                && leaving
                                    .map(|l| self.basis[r] < self.basis[l])
                                    .unwrap_or(true));
                        if better {
                            best_ratio = ratio;
                            leaving = Some(r);
                        }
                    }
                });
            } else {
                let feas = self.tol.max(1e-9);
                let mut theta_max = f64::INFINITY;
                w.for_each_nonzero(|r, a| {
                    if a > self.tol {
                        col_max = col_max.max(a);
                        let bound = (self.xb[r].max(0.0) + feas) / a;
                        if bound < theta_max {
                            theta_max = bound;
                        }
                    }
                });
                if theta_max.is_finite() {
                    let mut best_piv = 0.0f64;
                    w.for_each_nonzero(|r, a| {
                        if a > self.tol && self.xb[r].max(0.0) / a <= theta_max {
                            let better = a > best_piv
                                || (a == best_piv
                                    && leaving
                                        .map(|l| self.basis[r] < self.basis[l])
                                        .unwrap_or(true));
                            if better {
                                best_piv = a;
                                leaving = Some(r);
                            }
                        }
                    });
                }
            }
            let Some(l) = leaving else {
                if !y_fresh {
                    // The entering column was priced under incrementally
                    // updated duals; like the optimality exit, an unbounded
                    // verdict must not rest on drifted reduced costs.
                    // Recompute y and re-price from scratch.
                    for (r, c) in cb.iter_mut().enumerate() {
                        *c = cost[self.basis[r]];
                    }
                    self.factor.btran(&cb, &mut y);
                    y_fresh = true;
                    continue;
                }
                return Some(LpStatus::Unbounded);
            };

            // Harris pivot floor: an absolutely tiny pivot always forces a
            // rebuild-and-retry; a pivot that is merely tiny *relative* to
            // the column's largest eligible element (< 1e-7·col_max) is
            // treated as a drift signal and triggers an early
            // refactorization — but only while there are accumulated updates
            // for the rebuild to undo, so a floor violation against fresh
            // factors is accepted rather than looped on. Both are
            // stability-forced, not hygiene.
            let wl_abs = w.value(l).abs();
            let pivot_floor = (1e-7 * col_max).max(1e-12);
            if wl_abs <= 1e-12 || (wl_abs < pivot_floor && self.factor.updates_since_refactor() > 0)
            {
                self.forced_refactorizations += 1;
                if !self.refactor() {
                    return Some(LpStatus::IterationLimit);
                }
                continue;
            }

            if self.xb[l] <= self.tol {
                self.degenerate_pivots += 1;
            }

            // The weight update needs the pivot row of the *outgoing* basis;
            // compute it before the factorization is updated, and only when
            // asked.
            let rho_valid = pricer.wants_pivot_row();
            if rho_valid {
                self.factor.btran_unit_into(l, &mut rho_buf);
            }
            let leaving_col = self.basis[l];
            let wl = w.value(l);

            if !self.pivot(l, e, &w) {
                return Some(LpStatus::IterationLimit);
            }
            self.iterations += 1;

            {
                let rho = &rho_buf;
                let alpha = |j: usize| -> f64 {
                    if !rho_valid {
                        return 0.0;
                    }
                    let mut a = 0.0;
                    self.for_each_entry(j, |i, v| a += rho.value(i) * v);
                    a
                };
                pricer.notify_pivot(e, leaving_col, wl, &alpha);
            }

            if rho_valid {
                // The pivot row was already paid for (weight update):
                // reuse it for the textbook dual update
                // `y' = y + (rc_e / w_l)·ρ` instead of a fresh BTRAN next
                // iteration — over ρ's support only. The update is exact in
                // exact arithmetic; drift is bounded by the refactor-interval
                // reset and the fresh re-certification before any optimality
                // claim.
                let theta_d = rc_e / wl;
                rho_buf.for_each_nonzero(|i, ri| y[i] += theta_d * ri);
                y_fresh = false;
            } else {
                y_valid = false;
            }

            let obj = self.objective_of_basis(cost);
            if obj > last_obj + self.tol {
                stall = 0;
            } else {
                stall += 1;
            }
            last_obj = obj;
        }
    }

    /// Drives phase-1 artificials out of the basis where possible. Returns
    /// `false` only on an unrecoverable factorization failure.
    fn drive_out_artificials(&mut self) -> bool {
        let m = self.m;
        let mut w = SparseVector::zeros(m);
        let mut rho = vec![0.0f64; m];
        let mut col_scratch = SparseColumn::new();
        #[allow(clippy::needless_range_loop)] // r indexes basis, rho and w
        for r in 0..m {
            if !matches!(self.kind[self.basis[r]], BasisVar::Artificial(_)) {
                continue;
            }
            // Find a non-artificial, nonbasic column whose FTRAN has a
            // non-zero pivot element in row r. The pivot element alone is
            // (row r of B⁻¹) · a_j — one BTRAN-unit, then O(nnz) per
            // candidate.
            self.factor.btran_unit(r, &mut rho);
            let mut target = None;
            for j in 0..self.first_artificial {
                if self.in_basis[j] || !self.enterable[j] {
                    continue;
                }
                let mut alpha = 0.0;
                self.for_each_entry(j, |i, a| {
                    alpha += rho[i] * a;
                });
                if alpha.abs() > self.tol {
                    target = Some(j);
                    break;
                }
            }
            if let Some(j) = target {
                self.ftran_into(j, &mut w, &mut col_scratch);
                if w.value(r).abs() > 1e-12 && !self.pivot(r, j, &w) {
                    return false;
                }
            }
            // Otherwise the row is redundant: the artificial stays basic at
            // value 0 and is barred from re-entering in phase 2.
        }
        true
    }

    /// Seeds exact steepest-edge weights for an identity starting basis:
    /// `B = I` makes `‖B⁻¹a_j‖² = ‖a_j‖²`, a pure column scan (no solves).
    fn seed_identity_weights(&self, pricer: &mut SteepestEdgePricing) {
        let norm_sq = |j: usize| -> f64 {
            let mut s = 0.0;
            self.for_each_entry(j, |_, v| s += v * v);
            s
        };
        pricer.seed_reference_weights(self.n_total, &norm_sq);
    }

    fn run(&mut self, warm: Option<WarmStart>) -> LpStatus {
        let status = self.run_attempt(warm);
        if !self.factor_failed {
            return status;
        }
        // The factorization collapsed mid-solve: a refactorization found the
        // current basis numerically singular. Pivots are selected against
        // the *factorized* (drifted) basis, and a run of tiny-pivot steps —
        // degenerate masters with near-duplicate columns do this at depth —
        // can walk the true basis singular while every per-pivot guard
        // passes. The status in hand reflects that breakdown, not the LP:
        // restart once from the cold slack basis with fresh numerics (the
        // restarted path re-prices every column and does not revisit the
        // collapsed basis). Counters accumulate across both attempts — the
        // discarded pivots were real work.
        self.factor_failed = false;
        let (prior_refactors, prior_forced) = (self.refactorizations, self.forced_refactorizations);
        let status = self.run_attempt(None);
        self.refactorizations += prior_refactors;
        self.forced_refactorizations += prior_forced;
        status
    }

    fn run_attempt(&mut self, warm: Option<WarmStart>) -> LpStatus {
        let mut pricer = SteepestEdgePricing::default();
        let warm_ok = match warm {
            Some(state) => self.try_warm_basis(state),
            None => false,
        };
        // true while the installed basis is still the cold identity (slack /
        // artificial per row) — the only state where exact steepest-edge
        // weights are free to seed
        let mut basis_is_identity = false;
        if !warm_ok {
            self.cold_basis();
            basis_is_identity = true;
            let has_artificials = self.first_artificial < self.n_total;
            let needs_phase1 = has_artificials
                && self
                    .basis
                    .iter()
                    .any(|&c| matches!(self.kind[c], BasisVar::Artificial(_)));
            if needs_phase1 {
                let mut phase1_cost = vec![0.0f64; self.n_total];
                for c in phase1_cost[self.first_artificial..].iter_mut() {
                    *c = -1.0;
                }
                let enterable = self.enterable.clone();
                pricer.reset(self.n_total);
                self.seed_identity_weights(&mut pricer);
                basis_is_identity = false; // phase 1 moves the basis off I
                if let Some(status) = self.iterate(&phase1_cost, |j| enterable[j], &mut pricer) {
                    // Phase 1 is bounded by 0, so this is an iteration limit.
                    return status;
                }
                let infeasibility = -self.objective_of_basis(&phase1_cost);
                if infeasibility > 1e-6 {
                    return LpStatus::Infeasible;
                }
                if !self.drive_out_artificials() {
                    return LpStatus::IterationLimit;
                }
            }
        }

        // Phase 2 with the original costs; artificials may not (re-)enter,
        // and neither may fixed columns.
        let cost = self.cost.clone();
        let first_artificial = self.first_artificial;
        let enterable = self.enterable.clone();
        pricer.reset(self.n_total);
        if basis_is_identity {
            // packing LPs start phase 2 directly at the slack basis
            self.seed_identity_weights(&mut pricer);
        }
        match self.iterate(&cost, |j| j < first_artificial && enterable[j], &mut pricer) {
            None => LpStatus::Optimal,
            Some(s) => s,
        }
    }

    fn extract(&self, status: LpStatus) -> LpSolution {
        let mut x = vec![0.0f64; self.n];
        for (r, &c) in self.basis.iter().enumerate() {
            if let BasisVar::Structural(j) = self.kind[c] {
                x[j] = self.xb[r].max(0.0);
            }
        }
        let sense_sign = match self.lp.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        // y = c_B B⁻¹ with the original maximization costs, then undo the
        // row normalization signs and the sense flip.
        let cb: Vec<f64> = (0..self.m).map(|r| self.cost[self.basis[r]]).collect();
        let mut y = vec![0.0f64; self.m];
        self.factor.btran(&cb, &mut y);
        let duals: Vec<f64> = (0..self.m)
            .map(|i| sense_sign * self.row_sign[i] * y[i])
            .collect();
        let objective = self.lp.objective_value(&x);
        let sp = self
            .factor
            .sparsity_stats()
            .delta_since(self.sparsity_baseline);
        LpSolution {
            status,
            objective,
            x,
            duals,
            stats: SolveStats {
                simplex_iterations: self.iterations,
                refactorizations: self.refactorizations,
                forced_refactorizations: self.forced_refactorizations,
                degenerate_pivots: self.degenerate_pivots,
                ..SolveStats::of_sparsity(sp)
            },
        }
    }

    fn into_warm_start(self) -> WarmStart {
        WarmStart {
            basis: self.basis.iter().map(|&c| self.kind[c]).collect(),
            factor: self.factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use crate::problem::{LinearProgram, Relation, Sense};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn simple_packing_lp() {
        // max 3x + 2y  s.t. x + y <= 4, x <= 2, y <= 3
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(3.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 3.0);
        let options = SimplexOptions::default();
        let sol = solve(&lp, &options);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 10.0, 1e-7); // x=2, y=2
        assert_close(sol.x[x], 2.0, 1e-7);
        assert_close(sol.x[y], 2.0, 1e-7);
        assert!(lp.is_feasible(&sol.x, 1e-7));
        // strong duality
        let dual_obj: f64 = sol.duals[0] * 4.0 + sol.duals[1] * 2.0 + sol.duals[2] * 3.0;
        assert_close(dual_obj, 10.0, 1e-7);
        // duals of <= constraints in a maximization are non-negative
        assert!(sol.duals.iter().all(|&d| d >= -1e-9));
    }

    fn counters(sparse: usize, dense: usize, density: f64) -> SolveStats {
        SolveStats {
            simplex_iterations: 7,
            refactorizations: 2,
            forced_refactorizations: 1,
            degenerate_pivots: 3,
            dual_pivots: 4,
            ftran_sparse_hits: sparse,
            ftran_dense_fallbacks: dense,
            btran_sparse_hits: sparse,
            btran_dense_fallbacks: 0,
            avg_result_density: density,
        }
    }

    #[test]
    fn solve_stats_merge_adds_counters_and_weights_density_by_tracked_solves() {
        let a = counters(3, 1, 0.25); // 7 tracked solves
        let b = counters(1, 0, 0.75); // 2 tracked solves

        // Merging a default record changes nothing.
        let mut same = a;
        same.merge(&SolveStats::default());
        assert_eq!(same, a);

        let mut sum = a;
        sum.merge(&b);
        assert_eq!(sum.simplex_iterations, 14);
        assert_eq!(sum.refactorizations, 4);
        assert_eq!(sum.forced_refactorizations, 2);
        assert_eq!(sum.degenerate_pivots, 6);
        assert_eq!(sum.dual_pivots, 8);
        assert_eq!(sum.ftran_sparse_hits, 4);
        assert_eq!(sum.ftran_dense_fallbacks, 1);
        assert_eq!(sum.btran_sparse_hits, 4);
        assert_eq!(sum.btran_dense_fallbacks, 0);
        assert_eq!(sum.tracked_solves(), 9);
        assert_eq!(
            sum.avg_result_density,
            (0.25 * 7.0 + 0.75 * 2.0) / (7.0 + 2.0)
        );

        // A side with no tracked solves adds its pivots but not its density.
        let untracked = counters(0, 0, 0.0);
        let mut kept = a;
        kept.merge(&untracked);
        assert_eq!(kept.simplex_iterations, 14);
        assert_eq!(kept.avg_result_density, a.avg_result_density);
        let mut adopted = untracked;
        adopted.merge(&b);
        assert_eq!(adopted.avg_result_density, b.avg_result_density);
    }

    #[test]
    fn degenerate_clique_lp() {
        // The edge-based independent-set LP on a triangle: max x0+x1+x2 with
        // pairwise sums <= 1. Optimum 1.5 (all at 1/2) — the integrality-gap
        // example from Section 2.1.
        let mut lp = LinearProgram::new(Sense::Maximize);
        let v: Vec<usize> = (0..3).map(|_| lp.add_variable(1.0)).collect();
        for i in 0..3 {
            for j in (i + 1)..3 {
                lp.add_constraint(vec![(v[i], 1.0), (v[j], 1.0)], Relation::Le, 1.0);
            }
        }
        let options = SimplexOptions::default();
        let sol = solve(&lp, &options);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 1.5, 1e-7);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y  s.t. x + y >= 4, x >= 1 -> x=4, y=0, objective 8.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(2.0);
        let y = lp.add_variable(3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 1.0);
        let options = SimplexOptions::default();
        let sol = solve(&lp, &options);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 8.0, 1e-7);
        assert_close(sol.x[x], 4.0, 1e-7);
        assert_close(sol.x[y], 0.0, 1e-7);
        // strong duality for the minimization
        let dual_obj: f64 = sol.duals[0] * 4.0 + sol.duals[1] * 1.0;
        assert_close(dual_obj, 8.0, 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // max x + 2y s.t. x + y = 3, y <= 2 -> x=1, y=2, objective 5
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 2.0);
        let options = SimplexOptions::default();
        let sol = solve(&lp, &options);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 5.0, 1e-7);
        assert_close(sol.x[x], 1.0, 1e-7);
        assert_close(sol.x[y], 2.0, 1e-7);
    }

    #[test]
    fn infeasible_problem_detected() {
        // x <= 1 and x >= 2 simultaneously
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        let options = SimplexOptions::default();
        let sol = solve(&lp, &options);
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_problem_detected() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(0.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 5.0);
        let _ = x;
        let options = SimplexOptions::default();
        let sol = solve(&lp, &options);
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // -x <= -2  ===  x >= 2; minimize x -> 2
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, -1.0)], Relation::Le, -2.0);
        let options = SimplexOptions::default();
        let sol = solve(&lp, &options);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.0, 1e-7);
    }

    #[test]
    fn zero_constraint_problem() {
        // no constraints, maximize 0 over x >= 0: optimal 0
        let mut lp = LinearProgram::new(Sense::Maximize);
        lp.add_variable(0.0);
        let options = SimplexOptions::default();
        let sol = solve(&lp, &options);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 0.0, 1e-9);
    }

    #[test]
    fn duals_price_binding_constraints_only() {
        // max x + y s.t. x <= 1, y <= 1, x + y <= 5 (slack constraint)
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 5.0);
        let options = SimplexOptions::default();
        let sol = solve(&lp, &options);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.duals[0], 1.0, 1e-7);
        assert_close(sol.duals[1], 1.0, 1e-7);
        assert_close(sol.duals[2], 0.0, 1e-7);
    }

    #[test]
    fn warm_start_resumes_without_pivots() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(3.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 3.0);
        let options = SimplexOptions::default();
        let (first, state) = solve_with_warm_start(&lp, &options, None);
        assert_eq!(first.status, LpStatus::Optimal);
        assert!(first.stats.simplex_iterations > 0);
        // Re-solving the unchanged LP from the optimal basis needs 0 pivots.
        let (second, _) = solve_with_warm_start(&lp, &options, Some(state));
        assert_eq!(second.status, LpStatus::Optimal);
        assert_eq!(second.stats.simplex_iterations, 0);
        assert_close(second.objective, first.objective, 1e-9);
    }

    #[test]
    fn warm_start_after_adding_a_column() {
        // Solve, then add a new structural variable (as column generation
        // does) and resume: the old basis stays valid, the new column enters.
        let options = SimplexOptions::default();
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let (first, state) = solve_with_warm_start(&lp, &options, None);
        assert_close(first.objective, 2.0, 1e-9);

        let mut grown = LinearProgram::new(Sense::Maximize);
        let x2 = grown.add_variable(1.0);
        let z = grown.add_variable(5.0);
        grown.add_constraint(vec![(x2, 1.0), (z, 1.0)], Relation::Le, 2.0);
        let (second, _) = solve_with_warm_start(&grown, &options, Some(state));
        assert_eq!(second.status, LpStatus::Optimal);
        assert_close(second.objective, 10.0, 1e-9);
        assert_close(second.x[z], 2.0, 1e-9);
    }

    #[test]
    fn basis_only_warm_start_is_refactorized_once() {
        // A basis-only state (the factorization dropped, as when seeding a
        // different problem) resumes the optimal basis via a single
        // refactorization from the basis columns.
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(3.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let options = SimplexOptions::default();
        let (first, state) = solve_with_warm_start(&lp, &options, None);
        assert_eq!(first.status, LpStatus::Optimal);
        let (second, state2) = solve_with_warm_start(&lp, &options, Some(state.into_basis_only()));
        assert_eq!(second.status, LpStatus::Optimal);
        assert_eq!(
            second.stats.simplex_iterations, 0,
            "optimal basis needs no pivots after the rebuild"
        );
        assert_close(second.objective, first.objective, 1e-9);
        assert_eq!(state2.num_rows(), 2);
    }

    #[test]
    fn warm_start_across_different_matrices_is_repaired() {
        // Two LPs with identical rows (same count, relations, rhs) but
        // different coefficient patterns: adopting the first solve's
        // factorization verbatim would price the second LP against a stale
        // B⁻¹ and could terminate "optimal" at a wrong vertex. The
        // residual check must detect the mismatch, refactorize, and still
        // reach the true optimum.
        let options = SimplexOptions::default();
        let mut a = LinearProgram::new(Sense::Maximize);
        let ax = a.add_variable(1.0);
        let ay = a.add_variable(1.0);
        a.add_constraint(vec![(ax, 1.0)], Relation::Le, 1.0);
        a.add_constraint(vec![(ay, 1.0)], Relation::Le, 1.0);
        let (first, state) = solve_with_warm_start(&a, &options, None);
        assert_eq!(first.status, LpStatus::Optimal);

        let mut b = LinearProgram::new(Sense::Maximize);
        let bx = b.add_variable(4.0);
        let by = b.add_variable(2.0);
        b.add_constraint(vec![(by, 1.0)], Relation::Le, 1.0);
        b.add_constraint(vec![(bx, 1.0), (by, 1.0)], Relation::Le, 1.0);
        let cold = solve(&b, &options);
        let (warmed, _) = solve_with_warm_start(&b, &options, Some(state));
        assert_eq!(warmed.status, LpStatus::Optimal);
        assert_close(warmed.objective, cold.objective, 1e-7);
        assert!(b.is_feasible(&warmed.x, 1e-7));
    }

    #[test]
    fn mismatched_warm_start_falls_back_to_cold() {
        let mut a = LinearProgram::new(Sense::Maximize);
        let x = a.add_variable(1.0);
        a.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        let options = SimplexOptions::default();
        let (_, state) = solve_with_warm_start(&a, &options, None);

        // different row count: the state must be rejected, not trusted
        let mut b = LinearProgram::new(Sense::Maximize);
        let u = b.add_variable(1.0);
        b.add_constraint(vec![(u, 1.0)], Relation::Le, 1.0);
        b.add_constraint(vec![(u, 1.0)], Relation::Le, 3.0);
        let (sol, _) = solve_with_warm_start(&b, &options, Some(state));
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 1.0, 1e-9);
    }

    /// Fixing a column that is basic in a **covering** (minimize / `≥`) LP
    /// must not let its lingering value satisfy the rows for free: the
    /// warm-start screen rejects the basis and the cold start reports the
    /// true fixed-at-zero optimum (the review repro for the unsound case).
    #[test]
    fn fixed_basic_columns_are_evicted_on_covering_lps() {
        let options = SimplexOptions::default();
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x1 = lp.add_variable(1.0);
        let x2 = lp.add_variable(2.0);
        lp.add_constraint(vec![(x1, 1.0), (x2, 1.0)], Relation::Ge, 1.0);
        let (first, state) = solve_with_warm_start(&lp, &options, None);
        assert_eq!(first.status, LpStatus::Optimal);
        assert_close(first.objective, 1.0, 1e-7); // x1 = 1 basic

        lp.fix_variables_at_zero(&[x1]);
        let (fixed, _) = solve_with_warm_start(&lp, &options, Some(state));
        assert_eq!(fixed.status, LpStatus::Optimal);
        assert_close(fixed.objective, 2.0, 1e-7); // x2 = 1, not x1 for free
        assert_close(fixed.x[x1], 0.0, 1e-9);
    }

    /// Deterministic seeded random packing LP used by the
    /// engine-vs-dense equivalence tests.
    fn random_packing_lp(seed: u64, n: usize, m: usize) -> LinearProgram {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lp = LinearProgram::new(Sense::Maximize);
        for _ in 0..n {
            lp.add_variable(rng.random_range(0.0..10.0));
        }
        for _ in 0..m {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for j in 0..n {
                if rng.random_range(0.0..1.0) < 0.6 {
                    coeffs.push((j, rng.random_range(0.1..5.0)));
                }
            }
            lp.add_constraint(coeffs, Relation::Le, rng.random_range(1.0..20.0));
        }
        lp
    }

    #[test]
    fn revised_matches_dense_on_seeded_packing_lps() {
        for seed in 0..20u64 {
            let n = 1 + (seed as usize % 12);
            let m = 1 + ((seed as usize * 7) % 10);
            let lp = random_packing_lp(seed, n, m);
            let reference = dense::solve(&lp, &SimplexOptions::default());
            let revised = solve(&lp, &SimplexOptions::default());
            let label = format!("seed {seed}");
            assert_eq!(revised.status, reference.status, "{label}");
            if revised.status == LpStatus::Optimal {
                assert!(
                    (revised.objective - reference.objective).abs() < 1e-6,
                    "{label}: revised {} vs dense {}",
                    revised.objective,
                    reference.objective
                );
                assert!(lp.is_feasible(&revised.x, 1e-6));
                // The optimal basis (and hence the duals) need not be
                // unique, but both dual vectors must price the rhs to
                // the optimum.
                let price = |duals: &[f64]| -> f64 {
                    lp.constraints()
                        .iter()
                        .zip(duals.iter())
                        .map(|(c, &y)| c.rhs * y)
                        .sum()
                };
                assert!(
                    (price(&revised.duals) - price(&reference.duals)).abs() < 1e-6,
                    "{label}: dual objectives differ"
                );
            }
        }
    }

    #[test]
    fn revised_matches_dense_on_degenerate_and_rank_deficient_lps() {
        // Degenerate: many redundant copies of the same binding row;
        // rank-deficient: an equality row repeated verbatim (phase 1 leaves
        // a zero-valued artificial basic for the redundant copy). The engine
        // must terminate (Bland fallback) and agree with the oracle.
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let n = 2 + (seed as usize % 4);
            let mut lp = LinearProgram::new(Sense::Maximize);
            for _ in 0..n {
                lp.add_variable(rng.random_range(0.5..5.0));
            }
            let coeffs: Vec<(usize, f64)> =
                (0..n).map(|j| (j, rng.random_range(0.5..2.0))).collect();
            let rhs = rng.random_range(1.0..4.0);
            // the same packing row three times (degeneracy)
            for _ in 0..3 {
                lp.add_constraint(coeffs.clone(), Relation::Le, rhs);
            }
            // a repeated equality row (rank deficiency)
            let eq: Vec<(usize, f64)> = vec![(0, 1.0)];
            let eq_rhs = rhs / 2.0;
            lp.add_constraint(eq.clone(), Relation::Eq, eq_rhs);
            lp.add_constraint(eq, Relation::Eq, eq_rhs);
            for j in 0..n {
                lp.add_constraint(vec![(j, 1.0)], Relation::Le, 3.0);
            }
            let reference = dense::solve(&lp, &SimplexOptions::default());
            let sol = solve(&lp, &SimplexOptions::default());
            let label = format!("seed {seed}");
            assert_eq!(sol.status, reference.status, "{label}");
            if sol.status == LpStatus::Optimal {
                assert!(lp.is_feasible(&sol.x, 1e-6), "{label}");
                assert!(
                    (sol.objective - reference.objective).abs() < 1e-6,
                    "{label}: {} vs dense {}",
                    sol.objective,
                    reference.objective
                );
            }
        }
    }

    /// Degenerate triangle-clique LP with a duplicated packing row and a
    /// repeated equality row (rank deficiency): the stress shape for the
    /// anti-cycling test.
    fn degenerate_duplicated_lp() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Maximize);
        for _ in 0..3 {
            lp.add_variable(1.0);
        }
        for a in 0..3 {
            for b in (a + 1)..3 {
                lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Le, 1.0);
            }
        }
        // a duplicated row and a repeated equality (phase 1 leaves a
        // zero-valued artificial basic for the redundant copy)
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(0, 1.0)], Relation::Eq, 0.5);
        lp.add_constraint(vec![(0, 1.0)], Relation::Eq, 0.5);
        lp
    }

    /// With `stall_threshold: 0` every pivot takes the Bland override
    /// (first improving column, smallest-index row), in the primal core and
    /// in the dual repair alike. That anti-cycling path must still reach the
    /// dense oracle's answer on random packing LPs and on the degenerate,
    /// rank-deficient stress LP — solved cold, and re-solved after a
    /// duplicated tightening row is appended through the dual path.
    #[test]
    fn bland_override_matches_dense_on_primal_and_row_append_paths() {
        let bland = SimplexOptions {
            stall_threshold: 0,
            ..Default::default()
        };
        let check = |lp: &LinearProgram, sol: &LpSolution, label: &str| {
            let reference = dense::solve(lp, &SimplexOptions::default());
            assert_eq!(sol.status, reference.status, "{label}");
            if sol.status == LpStatus::Optimal {
                assert!(lp.is_feasible(&sol.x, 1e-7), "{label}");
                assert!(
                    (sol.objective - reference.objective).abs() < 1e-7,
                    "{label}: {} vs dense {}",
                    sol.objective,
                    reference.objective
                );
            }
        };
        let mut lps: Vec<LinearProgram> = (0..6u64)
            .map(|s| random_packing_lp(400 + s, 4 + s as usize, 3 + s as usize))
            .collect();
        lps.push(degenerate_duplicated_lp());
        let mut dual_pivots = 0usize;
        for (k, lp) in lps.iter().enumerate() {
            let (first, state) = solve_with_warm_start(lp, &bland, None);
            check(lp, &first, &format!("lp {k} primal"));
            // halve the largest primal value: the old optimum violates the
            // appended rows, so the dual repair has to pivot
            let j = (0..first.x.len())
                .max_by(|&a, &b| first.x[a].total_cmp(&first.x[b]))
                .expect("every test LP has variables");
            let mut grown = lp.clone();
            for _ in 0..2 {
                grown.add_constraint(vec![(j, 1.0)], Relation::Le, first.x[j] / 2.0);
            }
            let appended = crate::dual::reoptimize_after_row_additions(&grown, &bland, state);
            check(&grown, &appended.solution, &format!("lp {k} row append"));
            dual_pivots += appended.solution.stats.dual_pivots;
        }
        assert!(dual_pivots > 0, "the dual repair never pivoted");
    }

    // Random packing LPs: the solution must be feasible, match the dense
    // reference, and satisfy weak/strong duality.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_random_packing_lps_are_solved_consistently(
            n in 1usize..8,
            m in 1usize..8,
            obj in prop::collection::vec(0.0f64..10.0, 8),
            rows in prop::collection::vec(prop::collection::vec(0.0f64..5.0, 8), 8),
            rhs in prop::collection::vec(1.0f64..20.0, 8),
        ) {
            let mut lp = LinearProgram::new(Sense::Maximize);
            for &c in obj.iter().take(n) {
                lp.add_variable(c);
            }
            for i in 0..m {
                let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, rows[i][j])).collect();
                lp.add_constraint(coeffs, Relation::Le, rhs[i]);
            }
            let sol = solve(&lp, &SimplexOptions::default());
            // packing LPs with x = 0 feasible are never infeasible
            prop_assert_ne!(sol.status, LpStatus::Infeasible);
            if sol.status == LpStatus::Optimal {
                prop_assert!(lp.is_feasible(&sol.x, 1e-6));
                // weak duality: b^T y >= c^T x for feasible dual y
                let dual_obj: f64 = (0..m).map(|i| sol.duals[i] * rhs[i]).sum();
                prop_assert!(dual_obj >= sol.objective - 1e-5);
                // strong duality within tolerance
                prop_assert!((dual_obj - sol.objective).abs() < 1e-4 * (1.0 + sol.objective.abs()));
                // dual feasibility: A^T y >= c (for maximization with <=)
                for j in 0..n {
                    let lhs: f64 = (0..m).map(|i| sol.duals[i] * rows[i][j]).sum();
                    prop_assert!(lhs >= obj[j] - 1e-5);
                }
                // and the dense reference finds the same optimum
                let reference = dense::solve(&lp, &SimplexOptions::default());
                prop_assert_eq!(reference.status, LpStatus::Optimal);
                prop_assert!((sol.objective - reference.objective).abs() < 1e-6,
                    "{} vs dense {}", sol.objective, reference.objective);
            }
        }

        #[test]
        fn prop_random_mixed_lps_feasible_solutions(
            n in 1usize..6,
            obj in prop::collection::vec(-5.0f64..5.0, 6),
            rows in prop::collection::vec(prop::collection::vec(-3.0f64..3.0, 6), 6),
            rhs in prop::collection::vec(-5.0f64..5.0, 6),
            rels in prop::collection::vec(0u8..3, 6),
            m in 1usize..6,
        ) {
            let mut lp = LinearProgram::new(Sense::Maximize);
            for &c in obj.iter().take(n) {
                lp.add_variable(c);
            }
            for i in 0..m {
                let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, rows[i][j])).collect();
                let rel = match rels[i] % 3 {
                    0 => Relation::Le,
                    1 => Relation::Ge,
                    _ => Relation::Eq,
                };
                lp.add_constraint(coeffs, rel, rhs[i]);
            }
            // always bound the variables so "unbounded" cannot occur and the
            // optimal face is a polytope
            for j in 0..n {
                lp.add_constraint(vec![(j, 1.0)], Relation::Le, 10.0);
            }
            let sol = solve(&lp, &SimplexOptions::default());
            match sol.status {
                LpStatus::Optimal => {
                    prop_assert!(lp.is_feasible(&sol.x, 1e-5));
                    let reference = dense::solve(&lp, &SimplexOptions::default());
                    if reference.status == LpStatus::Optimal {
                        prop_assert!((sol.objective - reference.objective).abs()
                            < 1e-5 * (1.0 + sol.objective.abs()),
                            "{} vs dense {}", sol.objective, reference.objective);
                    }
                }
                LpStatus::Infeasible => {
                    // the dense reference must agree that no point exists
                    let reference = dense::solve(&lp, &SimplexOptions::default());
                    prop_assert_ne!(reference.status, LpStatus::Optimal);
                }
                LpStatus::Unbounded => prop_assert!(false, "bounded LP reported unbounded"),
                LpStatus::IterationLimit => { /* extremely unlikely; accept */ }
            }
        }

    }
}
