//! A sparse **revised simplex** engine: primal steepest-edge pricing
//! ([`crate::pricing`]) over a Forrest–Tomlin LU factorization of the basis
//! ([`crate::basis`]).
//!
//! Instead of the dense tableau `[B⁻¹A | B⁻¹b]` (`m · n_total` entries
//! touched per pivot) the revised method keeps only a factorization of the
//! basis, whose FTRAN/BTRAN cost is proportional to the factor sparsity
//! rather than `m²`, and moves the entering column and the pivot row
//! through it as indexed [`SparseVector`]s. After 64 pivots without objective
//! improvement the core overrides steepest edge with Bland's rule (first
//! improving index, smallest-ratio/smallest-index leaving row), which
//! guarantees termination.
//!
//! The engine has no options. Its tolerance (1e-9), stall threshold (64),
//! refactor interval (256) and pivot budget (`200 · (m + n_total) +
//! 10 000`) are constants of this module, and [`crate::dense`] reads the
//! same ones.
//!
//! **Refactorization**: every 256 pivots
//! (and whenever the factorization declines an update or a resumed basis
//! looks inconsistent) the factorization is rebuilt from the basis
//! columns and the basic solution is recomputed as `x_B = B⁻¹ b`. The
//! number of refactorizations and degenerate pivots is reported in
//! [`LpSolution::stats`] so benches can attribute time per stage.
//!
//! **One live engine per master**: a [`crate::MasterProblem`] keeps its
//! engine (columns, layout, costs, basis, factorization) for life and
//! appends columns to it in place. New columns enter nonbasic, so each
//! re-solve resumes the previous optimum over the factorization it left
//! behind. The one-shot [`solve`] builds a throwaway engine, started cold.
//!
//! **Appended rows** touch existing columns, so the next solve rebuilds
//! the columns once and extends the recorded basis (a *row prefix*) by the
//! appended rows' logicals. That keeps it dual feasible (the new rows'
//! duals are zero, so no reduced cost moves) but leaves it primal
//! infeasible wherever a new row cuts the old optimum off. A **dual
//! simplex** loop on the same basis, factorization and `x_B` then restores
//! `x_B ≥ 0` — dual steepest-edge row choice, a two-pass Harris dual ratio
//! test over the sparse pivot row, and incrementally updated reduced costs
//! — and the solve continues straight into primal phase 2. Dual pivots
//! share the pivot budget with the primal ones ([`SolveStats::dual_pivots`]).
//!
//! Packing LPs (all `≤` constraints with non-negative right-hand sides) are
//! detected automatically and start from the all-slack basis, skipping
//! phase 1; general `≥`/`=` rows go through a standard two-phase scheme with
//! artificial variables. The dense tableau solver survives as
//! [`crate::dense`]; property tests assert the engine agrees with it to
//! 1e-6.

use crate::basis::{ForrestTomlinLu, SolveScratch, SparseColumn, SparseVector};
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
    /// Dual-simplex pivots that repaired primal feasibility after rows were
    /// appended to a solved master, before primal phase 2 resumed. They
    /// count against the same pivot budget as
    /// [`simplex_iterations`](Self::simplex_iterations); always 0 unless the
    /// recorded basis covered a row prefix.
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

/// Numerical tolerance for feasibility, pricing and pivoting decisions.
pub(crate) const TOLERANCE: f64 = 1e-9;

/// After this many consecutive pivots without objective improvement the
/// engine switches to Bland's rule to escape potential cycling.
pub(crate) const STALL_THRESHOLD: usize = 64;

/// Basis updates between scheduled factorization rebuilds (numerical
/// hygiene; the factorization may also force a rebuild by declining an
/// update).
const REFACTOR_INTERVAL: usize = 256;

/// Column entries (mean structural column nnz times members) one pool
/// chunk of a pivot's candidate pass walks at least: the pass is mapped
/// through the work-stealing pool once the list fills two such chunks, and
/// runs inline on the calling thread below that. Swept from 2¹³ to 2¹⁸ on
/// a 2-core host: on the dense physical-model masters 2¹³ pooled 94% of the
/// passes and read fastest; the protocol model's sparse masters pool a
/// third of theirs at 2¹³ without slowing, and the exchange's small masters
/// pool none. Values below 2¹³ were not tried.
const POOL_CHUNK_ENTRIES: usize = 1 << 13;

/// The automatic pivot budget of one solve, across both phases and the dual
/// row repair: `200 · (m + n_total) + 10 000`, recomputed from the problem
/// actually being solved — so in column generation it grows with the
/// restricted master's *current* column count.
pub(crate) fn pivot_budget(m: usize, n_total: usize) -> usize {
    200 * (m + n_total) + 10_000
}

/// The pivot limits of one solve. Every public entry point solves with
/// [`Limits::DEFAULT`]; only this crate's tests pass other values, to reach
/// the anti-cycling override and the iteration-limit paths on small LPs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Limits {
    /// Pivot budget; `None` is the automatic [`pivot_budget`].
    pub(crate) max_iterations: Option<usize>,
    /// See [`STALL_THRESHOLD`].
    pub(crate) stall_threshold: usize,
    /// See [`POOL_CHUNK_ENTRIES`].
    pub(crate) pool_chunk_entries: usize,
}

impl Limits {
    pub(crate) const DEFAULT: Limits = Limits {
        max_iterations: None,
        stall_threshold: STALL_THRESHOLD,
        pool_chunk_entries: POOL_CHUNK_ENTRIES,
    };
}

/// What a logical column of the engine's layout is (global columns below
/// `n` are the structurals).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Logical {
    /// Slack of row `i` (a `≤` row after rhs normalization).
    Slack(usize),
    /// Surplus of row `i` (a `≥` row after rhs normalization).
    Surplus(usize),
    /// Artificial of row `i` (`≥` or `=` rows; basic only at value 0 after
    /// phase 1, or marking a redundant row).
    Artificial(usize),
}

/// Solves a linear program with the sparse revised simplex method, on a
/// throwaway engine built from `lp` and started cold.
pub fn solve(lp: &LinearProgram) -> LpSolution {
    Revised::build(lp).solve(lp)
}

/// How [`Revised::try_warm_basis`] installed the recorded basis.
enum Install {
    /// The basis cannot resume: cold-start.
    Rejected,
    /// The basis covers every row and is feasible: resume phase 2.
    Resumed,
    /// The row prefix was extended: [`Revised::dual_repair`] runs first.
    RowsAppended,
}

/// How [`Revised::dual_repair`] ended.
enum Repair {
    /// `x_B ≥ 0`: primal phase 2 resumes from the repaired basis.
    Done,
    /// Cold-start: the extended basis was not dual feasible, or a violated
    /// row had no entering candidate (a Farkas row, so the primal engine
    /// issues its own infeasibility report).
    Cold,
    /// The pivot budget ran out, or a rebuild found the basis singular.
    Stopped,
}

/// The engine state of one LP, kept across its solves and updated in place
/// as columns and objectives change. Each solve is handed the LP itself
/// (row-major rows, sense). Every structural and logical column may enter
/// a basis; artificials enter only in phase 1.
#[derive(Clone, Debug)]
pub(crate) struct Revised {
    /// pivot limits of every solve; [`Limits::DEFAULT`] outside this
    /// crate's tests
    pub(crate) limits: Limits,
    /// this solve's pivot budget
    max_iterations: usize,

    m: usize,
    n: usize,
    n_total: usize,
    /// structural columns with the row signs ([`row_sign`]) applied
    cols: CscMatrix,
    /// normalized rhs (≥ 0); like `xb`, held only during a solve
    b: Vec<f64>,
    /// what each logical column `n + k` is (the layout, by kind:
    /// [`Revised::logical_columns`] maps rows to their logicals)
    logical: Vec<Logical>,
    first_artificial: usize,
    /// maximization costs per global column (original objective)
    cost: Vec<f64>,

    /// basis member (global column index) per row; empty before the first
    /// solve, a row prefix once rows were appended since the last one
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    factor: ForrestTomlinLu,
    /// current basic solution B⁻¹ b
    xb: Vec<f64>,
    /// the factorization's solve workspaces, held only during a solve
    scratch: SolveScratch,

    /// this solve's counters
    counts: SolveStats,
    /// summed pattern sizes and lengths of this solve's indexed
    /// FTRAN/BTRAN results ([`Revised::count_solve`])
    result_nnz: usize,
    result_len: usize,
    /// Set when a mid-solve refactorization found the current basis
    /// numerically singular (the factorization is then empty, per the
    /// [`ForrestTomlinLu::refactor`] contract). [`Revised::run`] answers
    /// with one cold restart — the collapse reflects numerical breakdown of
    /// the pivot path, not the LP.
    factor_failed: bool,
}

impl Revised {
    /// A cold engine for `lp`: its columns, logical layout and costs, and no
    /// basis yet.
    pub(crate) fn build(lp: &LinearProgram) -> Self {
        let m = lp.num_constraints();
        let n = lp.num_variables();

        let mut eff: Vec<Relation> = Vec::with_capacity(m);
        for (i, c) in lp.constraints().iter().enumerate() {
            let sign = row_sign(lp, i);
            eff.push(match c.relation {
                Relation::Le if sign < 0.0 => Relation::Ge,
                Relation::Ge if sign < 0.0 => Relation::Le,
                rel => rel,
            });
        }

        // Structural columns in CSC form with the row signs folded in.
        let mut cols = lp.to_csc();
        for (val, &row) in cols.values.iter_mut().zip(cols.row_idx.iter()) {
            *val *= row_sign(lp, row);
        }

        // Logical column layout: slacks, then surpluses, then artificials —
        // the same index discipline as the dense solver, so Bland's rule
        // visits columns in the same order.
        let eff = &eff;
        let rows = |keep: fn(Relation) -> bool| (0..m).filter(move |&i| keep(eff[i]));
        let mut logical: Vec<Logical> = rows(|r| r == Relation::Le).map(Logical::Slack).collect();
        logical.extend(rows(|r| r == Relation::Ge).map(Logical::Surplus));
        let first_artificial = n + logical.len();
        logical.extend(rows(|r| r != Relation::Le).map(Logical::Artificial));
        let n_total = n + logical.len();

        let mut engine = Revised {
            max_iterations: 0,
            limits: Limits::DEFAULT,
            m,
            n,
            n_total,
            cols,
            b: Vec::new(),
            logical,
            first_artificial,
            cost: vec![0.0; n_total],
            basis: Vec::new(),
            in_basis: vec![false; n_total],
            factor: ForrestTomlinLu::default(),
            xb: Vec::new(),
            scratch: SolveScratch::default(),
            counts: SolveStats::default(),
            result_nnz: 0,
            result_len: 0,
            factor_failed: false,
        };
        for v in 0..n {
            engine.refresh_column(lp, v);
        }
        engine
    }

    /// Appends `lp`'s newest variable, which touches `rows` (any order,
    /// repeats allowed), to the column store: its entries close those rows
    /// of `lp`, so the store stays bit-equal to [`LinearProgram::to_csc`].
    /// A no-op while the next sync rebuilds anyway ([`stale`](Self::stale)).
    pub(crate) fn append_column(&mut self, lp: &LinearProgram, rows: impl Iterator<Item = usize>) {
        if self.stale(lp) {
            return;
        }
        let mut rows: Vec<usize> = rows.collect();
        rows.sort_unstable();
        rows.dedup();
        for r in rows {
            let &(v, a) = lp.constraints()[r].coeffs.last().expect("the new entry");
            debug_assert_eq!(v, lp.num_variables() - 1, "the newest variable");
            self.cols.row_idx.push(r);
            self.cols.values.push(a * row_sign(lp, r));
        }
        self.cols.col_ptr.push(self.cols.row_idx.len());
    }

    /// Re-reads structural `v`'s cost from `lp` (a column still waiting for
    /// [`sync`](Self::sync) reads it there).
    pub(crate) fn refresh_column(&mut self, lp: &LinearProgram, v: usize) {
        if v < self.n {
            self.cost[v] = sense_sign(lp) * lp.objective()[v];
        }
    }

    /// Whether the next sync rebuilds the engine from `lp`: appended rows
    /// touch existing columns, and a fresh engine (no basis yet) builds its
    /// store once, exact-size, rather than column by column.
    fn stale(&self, lp: &LinearProgram) -> bool {
        self.m != lp.num_constraints() || self.basis.is_empty()
    }

    /// Brings the layout up to `lp`: appended columns are spliced in after
    /// the structurals, shifting every logical index in one pass; a stale
    /// engine is rebuilt from `lp`, keeping the basis as a row prefix.
    pub(crate) fn sync(&mut self, lp: &LinearProgram) {
        if self.stale(lp) {
            let mut fresh = Revised::build(lp);
            fresh.limits = self.limits;
            let [slack, surplus, art] = fresh.logical_columns();
            fresh.basis = self
                .basis
                .iter()
                .map(|&c| {
                    let (at, i) = match c.checked_sub(self.n).map(|k| self.logical[k]) {
                        None => return c,
                        Some(Logical::Slack(i)) => (&slack, i),
                        Some(Logical::Surplus(i)) => (&surplus, i),
                        Some(Logical::Artificial(i)) => (&art, i),
                    };
                    at[i].expect("an old row keeps its relation and logicals")
                })
                .collect();
            *self = fresh;
            return;
        }
        let (n, grown) = (self.n, self.cols.num_cols());
        debug_assert_eq!(grown, lp.num_variables(), "every column reached the store");
        if grown == n {
            return;
        }
        let shift = grown - n;
        self.cost
            .splice(n..n, (n..grown).map(|v| sense_sign(lp) * lp.objective()[v]));
        self.in_basis
            .splice(n..n, std::iter::repeat_n(false, shift));
        for c in self.basis.iter_mut().filter(|c| **c >= n) {
            *c += shift;
        }
        self.first_artificial += shift;
        self.n = grown;
        self.n_total += shift;
        // a fleet keeps one engine per market: drop the growth slack
        self.cols.row_idx.shrink_to_fit();
        self.cols.values.shrink_to_fit();
        self.cols.col_ptr.shrink_to_fit();
        self.cost.shrink_to_fit();
        self.in_basis.shrink_to_fit();
    }

    /// Solves `lp`, resuming the recorded basis, or cold when there is none.
    pub(crate) fn solve(&mut self, lp: &LinearProgram) -> LpSolution {
        self.sync(lp);
        let budget = pivot_budget(self.m, self.n_total);
        self.max_iterations = self.limits.max_iterations.unwrap_or(budget);
        self.counts = SolveStats::default();
        (self.result_nnz, self.result_len) = (0, 0);
        self.factor_failed = false;
        let rhs = lp.constraints().iter().enumerate();
        self.b = rhs.map(|(i, c)| row_sign(lp, i) * c.rhs).collect();
        let status = self.run(lp);
        let solution = self.extract(lp, status);
        (self.b, self.xb) = (Vec::new(), Vec::new());
        self.scratch = SolveScratch::default();
        solution
    }

    /// Visits the sparse entries of global column `j` (signs applied).
    #[inline]
    fn for_each_entry(&self, j: usize, f: impl FnMut(usize, f64)) {
        Self::column_entries(self.n, &self.logical, &self.cols, j, f);
    }

    /// [`for_each_entry`](Self::for_each_entry) on borrowed parts, so a
    /// caller can visit columns while it holds the factorization mutably.
    #[inline]
    fn column_entries(
        n: usize,
        logical: &[Logical],
        cols: &CscMatrix,
        j: usize,
        mut f: impl FnMut(usize, f64),
    ) {
        let Some(k) = j.checked_sub(n) else {
            let (rows, vals) = cols.column(j);
            for (&r, &a) in rows.iter().zip(vals.iter()) {
                if a != 0.0 {
                    f(r, a);
                }
            }
            return;
        };
        match logical[k] {
            Logical::Slack(i) | Logical::Artificial(i) => f(i, 1.0),
            Logical::Surplus(i) => f(i, -1.0),
        }
    }

    /// Each row's logical column of each kind, `[slack, surplus,
    /// artificial][row]`, from the layout.
    fn logical_columns(&self) -> [Vec<Option<usize>>; 3] {
        let mut at = [vec![None; self.m], vec![None; self.m], vec![None; self.m]];
        for (k, &var) in self.logical.iter().enumerate() {
            let (which, i) = match var {
                Logical::Slack(i) => (0, i),
                Logical::Surplus(i) => (1, i),
                Logical::Artificial(i) => (2, i),
            };
            at[which][i] = Some(self.n + k);
        }
        at
    }

    /// Installs the cold-start identity basis (slack or artificial per row).
    fn cold_basis(&mut self) {
        let [slack, _, art] = self.logical_columns();
        self.basis = (0..self.m)
            .map(|i| {
                slack[i]
                    .or(art[i])
                    .expect("every row creates an identity column")
            })
            .collect();
        self.in_basis = vec![false; self.n_total];
        for &c in &self.basis {
            self.in_basis[c] = true;
        }
        // Identity-creating columns are exactly e_i, so B = I: its unit
        // factors are installed directly, and x_B = b.
        self.factor.install_identity(self.m);
        self.xb = self.b.clone();
    }

    /// Runs an install step without counting its rebuilds: installing a
    /// starting basis is not a hygiene event, so the refactorization
    /// counters cover only rebuilds *during* the solve, and cold and warm
    /// solves of the same work read the same.
    fn uncounted<T>(&mut self, step: impl FnOnce(&mut Self) -> T) -> T {
        let counted = self.counts;
        let out = step(self);
        self.counts.refactorizations = counted.refactorizations;
        self.counts.forced_refactorizations = counted.forced_refactorizations;
        out
    }

    /// Installs the recorded basis: as is over its factorization, or, as a
    /// **row prefix**, extended by the appended rows' logicals and
    /// refactorized once for [`Revised::dual_repair`]. On rejection the
    /// caller cold-starts, overwriting any partial state installed here.
    fn try_warm_basis(&mut self, lp: &LinearProgram) -> Install {
        let appended = self.basis.len() < self.m;
        if appended {
            // The repair keeps one logical basic per appended row, which an
            // equality row does not have, and a basic artificial (a
            // redundant row of the prior solve) has no place in a
            // dual-feasible start.
            let artificial = self.basis.iter().any(|&c| c >= self.first_artificial);
            if artificial || lp.constraints().iter().any(|c| c.relation == Relation::Eq) {
                return Install::Rejected;
            }
            let [slack, surplus, _] = self.logical_columns();
            let logicals = (self.basis.len()..self.m).map(|i| slack[i].or(surplus[i]));
            self.basis
                .extend(logicals.map(|c| c.expect("an inequality row has a logical")));
            // the sync rebuild that left the prefix cleared `in_basis`
            for &c in &self.basis {
                self.in_basis[c] = true;
            }
            if !self.refactor() {
                return Install::Rejected;
            }
        } else if self.factor.num_rows() != self.m || !self.recompute_xb() {
            // a factorization that collapsed in the last solve: start cold
            return Install::Rejected;
        }
        if appended {
            return Install::RowsAppended;
        }
        // The rows are unchanged, so the previous basic solution must still
        // be (near-)feasible.
        if !self.clamp_feasible_xb() {
            return Install::Rejected;
        }
        Install::Resumed
    }

    /// Recomputes `x_B = B⁻¹b` through the installed factorization and
    /// validates it against the basis columns: a factorization that no
    /// longer inverts `B` would price every reduced cost against a stale
    /// B⁻¹ and can terminate "optimal" at a wrong vertex. ‖B·x_B − b‖∞ is
    /// O(nnz) and catches that; one refactorization repairs it. Returns
    /// `false` only if that rebuild fails.
    fn recompute_xb(&mut self) -> bool {
        self.xb = vec![0.0; self.m];
        self.factor
            .ftran_dense(&self.b, &mut self.xb, &mut self.scratch);
        self.residual_inf_norm() <= 1e-6 || self.refactor()
    }

    /// Accepts the installed basic solution as primal feasible and clamps
    /// its tiny negatives to 0. If it is not (near-)feasible — drift built
    /// up — refactorize once, then give up (`false`).
    fn clamp_feasible_xb(&mut self) -> bool {
        if self.min_xb() < -1e-7 && !(self.refactor() && self.min_xb() >= -1e-7) {
            return false;
        }
        for v in &mut self.xb {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
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
    /// The columns are written straight into the rebuild's one column
    /// buffer, not collected as a `Vec` per column.
    fn refactor(&mut self) -> bool {
        let (n, logical, cols, basis) = (self.n, &self.logical, &self.cols, &self.basis);
        let rebuilt = self.factor.refactor_columns(self.m, |c, out| {
            Self::column_entries(n, logical, cols, basis[c], |r, v| out.push((r, v)))
        });
        if !rebuilt {
            self.factor_failed = true;
            return false;
        }
        self.counts.refactorizations += 1;
        if self.xb.len() != self.m {
            self.xb = vec![0.0; self.m];
        }
        self.factor
            .ftran_dense(&self.b, &mut self.xb, &mut self.scratch);
        true
    }

    /// FTRAN of global column `j` into a [`SparseVector`] (indexed below
    /// the factorization's density cutoff, dense above it), counted.
    fn ftran_into(&mut self, j: usize, w: &mut SparseVector, col: &mut SparseColumn) {
        col.clear();
        self.for_each_entry(j, |r, v| col.push((r, v)));
        self.factor.ftran_sparse_into(col, w, &mut self.scratch);
        self.count_solve(true, w);
    }

    /// Pivot-row BTRAN (`ρ = e_l B⁻¹`) into a [`SparseVector`], counted.
    fn btran_row_into(&mut self, l: usize, rho: &mut SparseVector) {
        self.factor.btran_unit_into(l, rho, &mut self.scratch);
        self.count_solve(false, rho);
    }

    /// Counts one indexed FTRAN (`ftran`) or pivot-row BTRAN result `v`
    /// into this solve's counters. A dense fallback counts `m` result
    /// entries; an empty factorization answered nothing and counts nothing.
    fn count_solve(&mut self, ftran: bool, v: &SparseVector) {
        let m = self.factor.num_rows();
        if m == 0 {
            return;
        }
        let c = &mut self.counts;
        let (hits, fallbacks) = if ftran {
            (&mut c.ftran_sparse_hits, &mut c.ftran_dense_fallbacks)
        } else {
            (&mut c.btran_sparse_hits, &mut c.btran_dense_fallbacks)
        };
        if v.is_sparse() {
            *hits += 1;
            self.result_nnz += v.pattern().len();
        } else {
            *fallbacks += 1;
            self.result_nnz += m;
        }
        self.result_len += m;
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

        if !self.factor.update_sparse(l, w, &mut self.scratch) {
            // The factorization declined (unstable FT diagonal or a full
            // row-eta file): rebuild from the already-updated basis
            // columns. This is a stability-forced rebuild, not hygiene.
            self.counts.forced_refactorizations += 1;
            return self.refactor();
        }
        true
    }

    /// Runs simplex iterations with the given cost vector; only columns
    /// below `enter_bound` may enter. Returns `None` when optimal for this
    /// cost, or a terminal status.
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
    ///
    /// The dual update runs **before** the steepest-edge weight pass, so
    /// that pass walks each candidate column once for both its pivot-row
    /// entry `α_j` and its next reduced cost `c_j − y'·a_j` (the fused pass
    /// of [`crate::pricing`]), on the pool once the list's columns fill two
    /// chunks of [`POOL_CHUNK_ENTRIES`] entries. Every full BTRAN of `y`
    /// drops the stored reduced costs.
    fn iterate(
        &mut self,
        cost: &[f64],
        enter_bound: usize,
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
            if self.counts.simplex_iterations + self.counts.dual_pivots >= self.max_iterations {
                return Some(LpStatus::IterationLimit);
            }
            if self.factor.updates_since_refactor() >= REFACTOR_INTERVAL {
                // Debug builds verify the update path against the rebuild it
                // is about to be replaced by: the pivot-updated factors and
                // a from-scratch refactorization must produce the same
                // basic solution (catches FT/eta algebra drift at the site
                // where it would otherwise be silently erased).
                #[cfg(debug_assertions)]
                let xb_updated: Vec<f64> = {
                    let mut v = vec![0.0f64; m];
                    self.factor.ftran_dense(&self.b, &mut v, &mut self.scratch);
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
                // against the fresh factors (one sparse FTRAN per candidate,
                // in `w`, which holds nothing until the entering FTRAN)
                pricer.notify_refactor(&mut |j| {
                    self.ftran_into(j, &mut w, &mut col_scratch);
                    let mut s = 0.0;
                    w.for_each_nonzero(|_, v| s += v * v);
                    s
                });
            }

            if !y_valid {
                for (r, c) in cb.iter_mut().enumerate() {
                    *c = cost[self.basis[r]];
                }
                self.factor.btran(&cb, &mut y, &mut self.scratch);
                pricer.invalidate_reduced_costs();
                y_valid = true;
                y_fresh = true;
            }

            let use_bland = stall >= self.limits.stall_threshold;
            let select =
                |this: &Self, y: &[f64], pricer: &mut SteepestEdgePricing| -> Option<usize> {
                    let rc = |j: usize| this.reduced_cost(cost, y, j);
                    let eligible = |j: usize| !this.in_basis[j] && j < enter_bound;
                    if use_bland {
                        // Anti-cycling override: Bland's rule instead of steepest
                        // edge (guaranteed to terminate).
                        (0..this.n_total).find(|&j| eligible(j) && rc(j) > TOLERANCE)
                    } else {
                        pricer.select_entering(this.n_total, TOLERANCE, &eligible, &rc)
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
                    self.factor.btran(&cb, &mut y, &mut self.scratch);
                    pricer.invalidate_reduced_costs();
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
                    if a > TOLERANCE {
                        let ratio = self.xb[r] / a;
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
                });
            } else {
                let feas = TOLERANCE;
                let mut theta_max = f64::INFINITY;
                w.for_each_nonzero(|r, a| {
                    if a > TOLERANCE {
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
                        if a > TOLERANCE && self.xb[r].max(0.0) / a <= theta_max {
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
                    self.factor.btran(&cb, &mut y, &mut self.scratch);
                    pricer.invalidate_reduced_costs();
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
                self.counts.forced_refactorizations += 1;
                if !self.refactor() {
                    return Some(LpStatus::IterationLimit);
                }
                continue;
            }

            if self.xb[l] <= TOLERANCE {
                self.counts.degenerate_pivots += 1;
            }

            // The weight update needs the pivot row of the *outgoing* basis;
            // compute it before the factorization is updated, and only when
            // asked.
            let rho_valid = pricer.wants_pivot_row();
            if rho_valid {
                self.btran_row_into(l, &mut rho_buf);
            }
            let leaving_col = self.basis[l];
            let wl = w.value(l);

            if !self.pivot(l, e, &w) {
                return Some(LpStatus::IterationLimit);
            }
            self.counts.simplex_iterations += 1;

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

            {
                // One walk of column j for both α_j = ρ·a_j and the next
                // reduced cost under y', in `reduced_cost`'s entry order and
                // arithmetic, so the stored value is bit-equal to the one
                // the next `select_entering` would compute.
                // Under the Bland override the pass skips the reduced costs:
                // the next pick most likely takes the override too and does
                // not read the list, and if it does not, it prices the list
                // itself.
                let fused = rho_valid && !use_bland;
                let (rho, y) = (&rho_buf, &y);
                let this = &*self;
                let pass = |j: usize| -> (f64, f64) {
                    let (mut a, mut rc) = (0.0, cost[j]);
                    if fused {
                        this.for_each_entry(j, |i, v| {
                            a += rho.value(i) * v;
                            rc -= y[i] * v;
                        });
                    } else if rho_valid {
                        this.for_each_entry(j, |i, v| a += rho.value(i) * v);
                    }
                    (a, rc)
                };
                let mean_nnz = self.cols.nnz().div_ceil(self.n.max(1)).max(1);
                let min_len = self.limits.pool_chunk_entries / mean_nnz;
                pricer.notify_pivot(e, leaving_col, wl, fused, min_len, &pass);
            }

            let obj = self.objective_of_basis(cost);
            if obj > last_obj + TOLERANCE {
                stall = 0;
            } else {
                stall += 1;
            }
            last_obj = obj;
        }
    }

    /// Recomputes the nonbasic reduced costs `rc_j = c_j − y·a_j` from fresh
    /// duals `y = c_B B⁻¹` (one BTRAN plus `O(nnz)`); basic columns read 0.
    fn recompute_reduced_costs(&mut self, rc: &mut [f64], y: &mut [f64]) {
        let cb: Vec<f64> = self.basis.iter().map(|&c| self.cost[c]).collect();
        self.factor.btran(&cb, y, &mut self.scratch);
        for (j, r) in rc.iter_mut().enumerate() {
            *r = if self.in_basis[j] {
                0.0
            } else {
                self.reduced_cost(&self.cost, y, j)
            };
        }
    }

    /// The **dual simplex** loop: repairs primal feasibility of a basis
    /// extended by appended rows' logicals while keeping it dual feasible,
    /// on this engine's basis, factorization and `x_B`.
    ///
    /// 1. **leaving row**: dual steepest edge, the violated row maximizing
    ///    `x_B[l]² / γ_l`, where `γ_l` approximates `‖e_l B⁻¹‖²` and is
    ///    updated from the entering column's FTRAN image (Forrest–Goldfarb),
    ///    so the rule costs no extra solves; after `stall_threshold` pivots
    ///    without progress, the first violated row (Bland);
    /// 2. **pivot row** `ρ = e_l B⁻¹` (one BTRAN), scattered over the rows
    ///    of its support to form `α_j = ρ·a_j` for the touched columns only;
    /// 3. **dual ratio test**: a two-pass Harris test over the columns with
    ///    `α_j < 0` (smallest ratio, smallest index under the override);
    /// 4. the reduced costs follow incrementally, `rc_j ← rc_j − θ_d·α_j`,
    ///    from the pivot row the ratio test already formed, so a dual pivot
    ///    pays one BTRAN and one FTRAN, like a primal one.
    ///
    /// Artificials never enter. The repair starts from an optimal basis of
    /// the row prefix, so every other column must have `rc ≤ 0`; a column
    /// priced or appended since that optimum (a relief column whose row was
    /// binding, say) can break that, and the solve then starts cold.
    fn dual_repair(&mut self, lp: &LinearProgram) -> Repair {
        let (m, n_total, first_artificial) = (self.m, self.n_total, self.first_artificial);
        let [slack_col, surplus_col, _] = self.logical_columns();
        let mut y = vec![0.0f64; m];
        let mut rho = SparseVector::zeros(m);
        let mut w = SparseVector::zeros(m);
        let mut rc = vec![0.0f64; n_total];
        // scatter workspace for the ratio test: `alpha_ws[j] = ρ·a_j` for
        // the candidate columns touched by the pivot row's support
        let mut alpha_ws = vec![0.0f64; n_total];
        let mut in_cand = vec![false; n_total];
        let mut cand: Vec<usize> = Vec::with_capacity(n_total);
        // Dual steepest-edge reference weights, exact (1.0) for the
        // slack-heavy extended basis at the start.
        let mut gamma = vec![1.0f64; m];
        // nonbasic columns touched by the current pivot row: `(j, α_j)`
        let mut touched: Vec<(usize, f64)> = Vec::with_capacity(n_total);
        let mut col_scratch = SparseColumn::new();
        let mut stall = 0usize;
        let mut last_infeas = f64::INFINITY;
        self.recompute_reduced_costs(&mut rc, &mut y);
        // With the new rows' duals at zero every reduced cost equals its
        // value at the prior optimum, so rc ≤ 0 must hold for every column
        // that may enter. A violation means the state was not an optimal
        // basis of a row prefix of this LP.
        let dual_tol = 1e-7;
        if (0..first_artificial).any(|j| !self.in_basis[j] && rc[j] > dual_tol) {
            return Repair::Cold;
        }
        loop {
            if self.counts.simplex_iterations + self.counts.dual_pivots >= self.max_iterations {
                return Repair::Stopped;
            }
            if self.factor.updates_since_refactor() >= REFACTOR_INTERVAL {
                if !self.refactor() {
                    return Repair::Stopped;
                }
                // rebuilds reset incremental drift in x_B and rc alike
                self.recompute_reduced_costs(&mut rc, &mut y);
            }

            let use_bland = stall >= self.limits.stall_threshold;
            let infeas_tol = TOLERANCE;
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
                return Repair::Done;
            };

            // Pivot row of the outgoing basis.
            self.btran_row_into(l, &mut rho);

            // Scatter the pivot row into the columns it touches: for every
            // support row `i`, walk its logicals and its structural entries
            // (already row-major, sorted by column), accumulating
            // `α_j = ρ·a_j`. A column the scatter misses has α_j = 0
            // exactly, so it can be neither an entering candidate nor an
            // rc-update target — restricting the ratio test to the
            // candidate list is exact, including the Farkas verdict.
            cand.clear();
            {
                let in_basis = &self.in_basis;
                let (slack_col, surplus_col) = (&slack_col, &surplus_col);
                rho.for_each_nonzero(|i, ri| {
                    let sign = row_sign(lp, i);
                    let logicals = [(slack_col[i], 1.0), (surplus_col[i], -1.0)]
                        .into_iter()
                        .filter_map(|(c, a)| c.map(|c| (c, a)));
                    let structurals = lp.constraints()[i]
                        .coeffs
                        .iter()
                        .map(|&(j, a)| (j, sign * a));
                    for (j, a) in logicals.chain(structurals) {
                        if a == 0.0 || in_basis[j] || j >= first_artificial {
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
                    let better = ratio < best_ratio - TOLERANCE
                        || (ratio < best_ratio + TOLERANCE
                            && entering.map(|e| j < e).unwrap_or(true));
                    if better || entering.is_none() {
                        best_ratio = ratio;
                        best_alpha = alpha;
                        entering = Some(j);
                    }
                }
            } else {
                let dual_feas = TOLERANCE;
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
                return Repair::Cold;
            };

            // θ = x_B[l] / w_l ≥ 0 because both are negative.
            self.ftran_into(e, &mut w, &mut col_scratch);
            let wl = w.value(l);
            if wl.abs() <= 1e-12 {
                // drifted pivot row: rebuild and retry this iteration
                self.counts.forced_refactorizations += 1;
                if !self.refactor() {
                    return Repair::Stopped;
                }
                self.recompute_reduced_costs(&mut rc, &mut y);
                continue;
            }

            // Dual steepest-edge reference update (Forrest–Goldfarb): the
            // entering column's FTRAN image bounds how every row norm can
            // have grown: `γ_r ← max(γ_r, (w_r / w_l)² · γ_l)`,
            // `γ_l ← γ_l / w_l²`. Weights only grow between resets, so
            // checking the blow-up trigger against the entries updated
            // this pivot (plus γ_l) is enough.
            {
                let gamma_l = gamma[l].max(1.0);
                let inv_wl2 = 1.0 / (wl * wl);
                let mut max_gamma = 0.0f64;
                w.for_each_nonzero(|r, wr| {
                    if r != l {
                        let candidate = wr * wr * inv_wl2 * gamma_l;
                        if candidate > gamma[r] {
                            gamma[r] = candidate;
                        }
                        max_gamma = max_gamma.max(gamma[r]);
                    }
                });
                gamma[l] = (gamma_l * inv_wl2).max(1.0);
                max_gamma = max_gamma.max(gamma[l]);
                if max_gamma > 1e12 {
                    // degenerate reference framework: restart the weights
                    gamma.fill(1.0);
                }
            }
            let leaving_col = self.basis[l];
            let rebuilds = self.counts.refactorizations;
            if !self.pivot(l, e, &w) {
                return Repair::Stopped;
            }
            self.counts.dual_pivots += 1;

            if self.counts.refactorizations > rebuilds {
                self.recompute_reduced_costs(&mut rc, &mut y);
            } else {
                // Incremental dual update from the pivot row: `θ_d =
                // rc_e / α_e`, `rc_j ← rc_j − θ_d·α_j` for the touched
                // nonbasic columns; the leaving column has α = 1 (it *was*
                // basis position l), so its new rc is −θ_d ≤ 0.
                let theta_d = rc[e].min(0.0) / best_alpha;
                for &(j, alpha) in &touched {
                    if !self.in_basis[j] {
                        rc[j] -= theta_d * alpha;
                    }
                }
                rc[e] = 0.0;
                rc[leaving_col] = -theta_d;
            }

            // total primal infeasibility, the quantity the loop drives to 0
            let infeas: f64 = self.xb.iter().map(|&x| (-x).max(0.0)).sum();
            if infeas < last_infeas - TOLERANCE {
                stall = 0;
            } else {
                stall += 1;
            }
            last_infeas = infeas;
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
            if self.basis[r] < self.first_artificial {
                continue;
            }
            // Find a non-artificial, nonbasic column whose FTRAN has a
            // non-zero pivot element in row r. The pivot element alone is
            // (row r of B⁻¹) · a_j — one BTRAN-unit, then O(nnz) per
            // candidate.
            self.factor.btran_unit(r, &mut rho, &mut self.scratch);
            let mut target = None;
            for j in 0..self.first_artificial {
                if self.in_basis[j] {
                    continue;
                }
                let mut alpha = 0.0;
                self.for_each_entry(j, |i, a| {
                    alpha += rho[i] * a;
                });
                if alpha.abs() > TOLERANCE {
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

    fn run(&mut self, lp: &LinearProgram) -> LpStatus {
        let status = self.run_attempt(lp, true);
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
        self.run_attempt(lp, false)
    }

    /// One attempt at the solve: resumes the recorded basis when `resume`
    /// holds and there is one, and starts cold otherwise.
    fn run_attempt(&mut self, lp: &LinearProgram, resume: bool) -> LpStatus {
        let mut pricer = SteepestEdgePricing::default();
        let install = if resume && !self.basis.is_empty() {
            self.uncounted(|s| s.try_warm_basis(lp))
        } else {
            Install::Rejected
        };
        let warm_ok = match install {
            Install::Rejected => false,
            Install::Resumed => true,
            Install::RowsAppended => match self.dual_repair(lp) {
                // The dual → primal seam: recompute x_B from the factors
                // and clamp it, exactly as a resumed state is installed.
                Repair::Done => self.uncounted(|s| s.recompute_xb() && s.clamp_feasible_xb()),
                Repair::Cold => false,
                Repair::Stopped => return LpStatus::IterationLimit,
            },
        };
        // true while the installed basis is still the cold identity (slack /
        // artificial per row) — the only state where exact steepest-edge
        // weights are free to seed
        let mut basis_is_identity = false;
        if !warm_ok {
            self.cold_basis();
            basis_is_identity = true;
            if self.basis.iter().any(|&c| c >= self.first_artificial) {
                let mut phase1_cost = vec![0.0f64; self.n_total];
                for c in phase1_cost[self.first_artificial..].iter_mut() {
                    *c = -1.0;
                }
                pricer.reset(self.n_total);
                self.seed_identity_weights(&mut pricer);
                basis_is_identity = false; // phase 1 moves the basis off I
                if let Some(status) = self.iterate(&phase1_cost, self.n_total, &mut pricer) {
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

        // Phase 2 with the original costs; artificials may not (re-)enter.
        // The loop reads the costs only through its argument, so they are
        // lent out rather than copied.
        let cost = std::mem::take(&mut self.cost);
        pricer.reset(self.n_total);
        if basis_is_identity {
            // packing LPs start phase 2 directly at the slack basis
            self.seed_identity_weights(&mut pricer);
        }
        let status = self.iterate(&cost, self.first_artificial, &mut pricer);
        self.cost = cost;
        status.unwrap_or(LpStatus::Optimal)
    }

    fn extract(&mut self, lp: &LinearProgram, status: LpStatus) -> LpSolution {
        let mut x = vec![0.0f64; self.n];
        for (r, &c) in self.basis.iter().enumerate() {
            if c < self.n {
                x[c] = self.xb[r].max(0.0);
            }
        }
        let sense_sign = sense_sign(lp);
        // y = c_B B⁻¹ with the original maximization costs, then undo the
        // row normalization signs and the sense flip.
        let cb: Vec<f64> = (0..self.m).map(|r| self.cost[self.basis[r]]).collect();
        let mut y = vec![0.0f64; self.m];
        self.factor.btran(&cb, &mut y, &mut self.scratch);
        let duals: Vec<f64> = (0..self.m)
            .map(|i| sense_sign * row_sign(lp, i) * y[i])
            .collect();
        let objective = lp.objective_value(&x);
        if self.result_len > 0 {
            self.counts.avg_result_density = self.result_nnz as f64 / self.result_len as f64;
        }
        LpSolution {
            status,
            objective,
            x,
            duals,
            stats: self.counts,
        }
    }
}

/// The sign that normalizes row `i` of `lp` to a non-negative rhs.
fn row_sign(lp: &LinearProgram, i: usize) -> f64 {
    if lp.constraints()[i].rhs < 0.0 {
        -1.0
    } else {
        1.0
    }
}

/// `1` for a maximization, `−1` for a minimization: the engine maximizes.
fn sense_sign(lp: &LinearProgram) -> f64 {
    match lp.sense() {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_generation::{GeneratedColumn, MasterProblem};
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
        let sol = solve(&lp);
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
        let sol = solve(&lp);
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
        let sol = solve(&lp);
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
        let sol = solve(&lp);
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
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_problem_detected() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(0.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 5.0);
        let _ = x;
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // -x <= -2  ===  x >= 2; minimize x -> 2
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, -1.0)], Relation::Le, -2.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.0, 1e-7);
    }

    #[test]
    fn zero_constraint_problem() {
        // no constraints, maximize 0 over x >= 0: optimal 0
        let mut lp = LinearProgram::new(Sense::Maximize);
        lp.add_variable(0.0);
        let sol = solve(&lp);
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
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.duals[0], 1.0, 1e-7);
        assert_close(sol.duals[1], 1.0, 1e-7);
        assert_close(sol.duals[2], 0.0, 1e-7);
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

    #[test]
    fn warm_start_resumes_without_pivots() {
        let mut master = master_of(&tightening_lp());
        let first = master.solve();
        assert_eq!(first.status, LpStatus::Optimal);
        assert!(first.stats.simplex_iterations > 0);
        // Re-solving the unchanged master resumes its optimal basis and
        // factorization: no pivot, no rebuild.
        let second = master.solve();
        assert_eq!(second.status, LpStatus::Optimal);
        assert_eq!(second.stats.simplex_iterations, 0);
        assert_eq!(second.stats.refactorizations, 0);
        assert_close(second.objective, first.objective, 1e-9);
    }

    #[test]
    fn warm_start_after_adding_a_column() {
        // Solve, then add a new column (as column generation does) and
        // resume: the old basis stays valid, the new column enters.
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let mut master = master_of(&lp);
        let first = master.solve();
        assert_close(first.objective, 2.0, 1e-9);

        master.add_column(GeneratedColumn {
            objective: 5.0,
            coeffs: vec![(0, 1.0)],
            tag: 1,
        });
        let second = master.solve();
        assert_eq!(second.status, LpStatus::Optimal);
        assert_close(second.objective, 10.0, 1e-9);
        assert_close(second.x[1], 2.0, 1e-9);
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

    /// The fused candidate pass gives the same trajectory inline and on
    /// the pool: a dense packing LP solves to bit-identical primal values,
    /// duals and counters with every pass inline and with every pass
    /// mapped through the pool (which fans out once it has two workers).
    #[test]
    fn pooled_candidate_pass_matches_the_inline_pass_bit_for_bit() {
        let lp = random_packing_lp(17, 800, 250);
        let solve_with = |pool_chunk_entries: usize| {
            let mut engine = Revised::build(&lp);
            engine.limits = Limits {
                pool_chunk_entries,
                ..Limits::DEFAULT
            };
            engine.solve(&lp)
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let inline = solve_with(usize::MAX);
        assert_eq!(inline.status, LpStatus::Optimal);
        assert!(inline.stats.simplex_iterations > 0);
        let pooled = solve_with(0);
        assert_eq!(pooled.status, inline.status);
        assert_eq!(bits(&pooled.x), bits(&inline.x), "x");
        assert_eq!(bits(&pooled.duals), bits(&inline.duals), "duals");
        assert_eq!(pooled.stats, inline.stats, "stats");
        assert_eq!(pooled.objective.to_bits(), inline.objective.to_bits());
    }

    #[test]
    fn revised_matches_dense_on_seeded_packing_lps() {
        for seed in 0..20u64 {
            let n = 1 + (seed as usize % 12);
            let m = 1 + ((seed as usize * 7) % 10);
            let lp = random_packing_lp(seed, n, m);
            let reference = dense::solve(&lp);
            let revised = solve(&lp);
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
            let reference = dense::solve(&lp);
            let sol = solve(&lp);
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

    /// With a stall threshold of 0 every pivot takes the Bland override
    /// (first improving column, smallest-index row), in the primal core and
    /// in the dual repair alike. That anti-cycling path must still reach the
    /// dense oracle's answer on random packing LPs and on the degenerate,
    /// rank-deficient stress LP — solved cold, and re-solved after a
    /// duplicated tightening row is appended through the dual path.
    #[test]
    fn bland_override_matches_dense_on_primal_and_row_append_paths() {
        let bland = Limits {
            stall_threshold: 0,
            ..Limits::DEFAULT
        };
        let check = |lp: &LinearProgram, sol: &LpSolution, label: &str| {
            let reference = dense::solve(lp);
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
            let mut master = master_of(lp);
            master.engine.limits = bland;
            let first = master.solve();
            check(lp, &first, &format!("lp {k} primal"));
            // halve the largest primal value: the old optimum violates the
            // appended rows, so the dual repair has to pivot
            let j = (0..first.x.len())
                .max_by(|&a, &b| first.x[a].total_cmp(&first.x[b]))
                .expect("every test LP has variables");
            for _ in 0..2 {
                master.add_row(Relation::Le, first.x[j] / 2.0, vec![(j, 1.0)]);
            }
            let appended = master.solve();
            check(&master.lp, &appended, &format!("lp {k} row append"));
            dual_pivots += appended.stats.dual_pivots;
        }
        assert!(dual_pivots > 0, "the dual repair never pivoted");
    }

    /// Random bounded packing LP (the master shape): packing rows plus one
    /// upper-bound row per variable.
    fn random_bounded_packing_lp(seed: u64, n: usize, m: usize) -> LinearProgram {
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

    /// max 3x + 2y, x + y ≤ 4, x ≤ 2, y ≤ 3 → (2, 2), objective 10.
    fn tightening_lp() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(3.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 3.0);
        lp
    }

    #[test]
    fn tightening_row_is_repaired_by_the_dual_path() {
        // Adding x + y <= 1 cuts the optimum (2, 2) off: the dual repair
        // must land on the new optimum 3 (x = 1).
        let mut master = master_of(&tightening_lp());
        let first = master.solve();
        assert_eq!(first.status, LpStatus::Optimal);

        master.add_row(Relation::Le, 1.0, vec![(0, 1.0), (1, 1.0)]);
        let re = master.solve();
        assert_eq!(re.status, LpStatus::Optimal);
        assert!((re.objective - 3.0).abs() < 1e-7);
        assert!(
            re.stats.dual_pivots > 0,
            "packing rows must take the dual path"
        );
        assert!(master.lp.is_feasible(&re.x, 1e-7));
    }

    /// The row repair and primal phase 2 draw on one pivot budget: with
    /// a pivot budget of 1 the repair spends the one pivot, reports it, and
    /// stops, instead of handing the rest of the solve a fresh budget.
    #[test]
    fn row_append_repair_shares_the_pivot_budget() {
        let mut master = master_of(&tightening_lp());
        master.solve();
        master.add_row(Relation::Le, 1.0, vec![(0, 1.0), (1, 1.0)]);
        master.add_row(Relation::Le, 0.5, vec![(0, 1.0)]);
        let mut limited = master.clone();
        limited.engine.limits = Limits {
            max_iterations: Some(1),
            ..Limits::DEFAULT
        };
        let re = limited.solve();
        assert_eq!(re.status, LpStatus::IterationLimit);
        assert!(re.stats.dual_pivots + re.stats.simplex_iterations <= 1);
        assert_eq!(re.stats.dual_pivots, 1);

        // the default budget finishes the repair: x = 0.5, y = 0.5
        let full = master.solve();
        assert_eq!(full.status, LpStatus::Optimal);
        assert_eq!(full.stats.dual_pivots, 2);
        assert_close(full.objective, 2.5, 1e-7);
    }

    #[test]
    fn slack_row_addition_needs_no_pivots() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let mut master = master_of(&lp);
        master.solve();
        master.add_row(Relation::Le, 10.0, vec![(x, 1.0)]);
        let re = master.solve();
        assert_eq!(re.status, LpStatus::Optimal);
        assert!((re.objective - 2.0).abs() < 1e-9);
        assert_eq!(re.stats.dual_pivots, 0, "non-binding row");
        assert_eq!(
            re.stats.simplex_iterations, 0,
            "primal resume needs no work (a cold start would pivot x in)"
        );
    }

    #[test]
    fn infeasible_after_row_addition_is_detected() {
        // x <= 2 optimal at 2; adding x >= 5 makes the LP infeasible.
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let mut master = master_of(&lp);
        master.solve();
        master.add_row(Relation::Ge, 5.0, vec![(x, 1.0)]);
        let re = master.solve();
        assert_eq!(re.status, LpStatus::Infeasible);
    }

    #[test]
    fn equality_rows_fall_back_to_the_primal_path() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 3.0);
        let mut master = master_of(&lp);
        master.solve();
        master.add_row(Relation::Eq, 1.0, vec![(y, 1.0)]);
        let re = master.solve();
        assert_eq!(re.stats.dual_pivots, 0, "Eq rows are not dual-eligible");
        assert_eq!(re.status, LpStatus::Optimal);
        assert!((re.objective - 4.0).abs() < 1e-7); // x=2, y=1
    }

    #[test]
    fn repaired_state_keeps_working_for_further_rounds() {
        // add rows twice, repairing each time, then grow a column and a row
        // together — the engine must stay coherent across the dual repair
        // and the primal resume.
        let mut master = master_of(&random_bounded_packing_lp(5, 6, 4));
        let first = master.solve();
        assert_eq!(first.status, LpStatus::Optimal);
        master.add_row(Relation::Le, 0.7, vec![(0, 1.0), (1, 1.0)]);
        let re1 = master.solve();
        // the first cut misses the optimum: the extended basis answers
        // without a pivot, where a cold start needs three
        assert_eq!(re1.stats.dual_pivots + re1.stats.simplex_iterations, 0);
        master.add_row(Relation::Le, 0.5, vec![(2, 1.0), (3, 1.0)]);
        let re2 = master.solve();
        assert!(re2.stats.dual_pivots > 0, "the second cut binds");
        let cold = solve(&master.lp);
        assert!((re2.objective - cold.objective).abs() < 1e-6);

        // column growth on top of the dually repaired basis
        let z = master.num_columns();
        master.add_column(GeneratedColumn {
            objective: 100.0,
            coeffs: Vec::new(),
            tag: z as u64,
        });
        // (new row referencing only the new column: the prior basis rows are
        // a prefix, so the dual path applies again)
        master.add_row(Relation::Le, 0.25, vec![(z, 1.0)]);
        let re3 = master.solve();
        let cold3 = solve(&master.lp);
        assert_eq!(re3.status, LpStatus::Optimal);
        assert!((re3.objective - cold3.objective).abs() < 1e-6);
    }

    /// The engine's column store and layout must equal a fresh build over
    /// the master's LP, bit for bit: before the next solve's sync for the
    /// columns appended in place (unless the engine is stale), and after it
    /// for the whole layout.
    fn assert_engine_matches_lp(master: &mut MasterProblem, step: &str) {
        let fresh = Revised::build(&master.lp);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let same_columns = |engine: &Revised, when: &str| {
            assert_eq!(engine.cols.col_ptr, fresh.cols.col_ptr, "{step} {when}");
            assert_eq!(engine.cols.row_idx, fresh.cols.row_idx, "{step} {when}");
            assert_eq!(
                bits(&engine.cols.values),
                bits(&fresh.cols.values),
                "{step} {when}"
            );
        };
        if !master.engine.stale(&master.lp) {
            same_columns(&master.engine, "in place");
        }
        master.engine.sync(&master.lp);
        let engine = &master.engine;
        same_columns(engine, "synced");
        assert_eq!(
            (engine.m, engine.n, engine.n_total, engine.first_artificial),
            (fresh.m, fresh.n, fresh.n_total, fresh.first_artificial),
            "{step}"
        );
        assert_eq!(engine.logical, fresh.logical, "{step}");
        assert_eq!(engine.logical_columns(), fresh.logical_columns(), "{step}");
        assert_eq!(bits(&engine.cost), bits(&fresh.cost), "{step}");
        let in_basis: Vec<usize> = (0..engine.n_total)
            .filter(|&c| engine.in_basis[c])
            .collect();
        if engine.basis.len() == engine.m {
            let mut basis = engine.basis.clone();
            basis.sort_unstable();
            assert_eq!(in_basis, basis, "{step}: in_basis marks the basis");
        }
    }

    /// A seeded random master lifecycle — columns with unsorted and
    /// repeated row entries, deactivations, retirements, re-pricings, appended
    /// rows and solves in between, over `≤` rows, `≥` rows and `≤` rows
    /// with a negative rhs (row signs folded in) — keeps the in-place
    /// column store equal to a fresh `to_csc` of the master's LP after
    /// every step.
    #[test]
    fn in_place_column_store_matches_a_fresh_build() {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(7100 + seed);
            let rows: Vec<(Relation, f64)> = (0..6)
                .map(|i| match i % 3 {
                    0 => (Relation::Le, rng.random_range(1.0..6.0)),
                    1 => (Relation::Ge, rng.random_range(0.0..0.5)),
                    _ => (Relation::Le, rng.random_range(-0.5..3.0)),
                })
                .collect();
            let mut master = MasterProblem::new(Sense::Maximize, rows);
            let mut next_tag = 0u64;
            for step in 0..60 {
                let m = master.num_rows();
                let n = master.num_columns();
                let label = format!("seed {seed} step {step}");
                match rng.random_range(0..7) {
                    0 | 1 => {
                        let entries: Vec<(usize, f64)> = (0..rng.random_range(1..7))
                            .map(|_| (rng.random_range(0..m), rng.random_range(-1.0..3.0)))
                            .collect();
                        master.add_column(GeneratedColumn {
                            objective: rng.random_range(-1.0..5.0),
                            coeffs: entries,
                            tag: next_tag,
                        });
                        next_tag += 1;
                    }
                    2 => {
                        let active: Vec<usize> =
                            (0..m).filter(|&i| master.is_row_active(i)).collect();
                        if !active.is_empty() {
                            let row = active[rng.random_range(0..active.len())];
                            master.deactivate_rows(&[row]);
                        }
                    }
                    3 if n > 0 => {
                        // retire packing columns, zero-price the others
                        let c = rng.random_range(0..n);
                        if master.is_packing_column(c) {
                            master.retire_columns(&[c]);
                        } else {
                            master.set_column_objective(c, 0.0);
                        }
                    }
                    4 if n > 0 => {
                        let c = rng.random_range(0..n);
                        master.set_column_objective(c, rng.random_range(0.0..4.0));
                    }
                    5 if n > 0 => {
                        let coeffs: Vec<(usize, f64)> = (0..rng.random_range(1..4))
                            .map(|_| (rng.random_range(0..n), rng.random_range(0.1..2.0)))
                            .collect();
                        master.add_row(Relation::Le, rng.random_range(0.5..4.0), coeffs);
                    }
                    _ => {
                        master.solve();
                    }
                }
                assert_engine_matches_lp(&mut master, &label);
            }
        }
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
            let sol = solve(&lp);
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
                let reference = dense::solve(&lp);
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
            let sol = solve(&lp);
            match sol.status {
                LpStatus::Optimal => {
                    prop_assert!(lp.is_feasible(&sol.x, 1e-5));
                    let reference = dense::solve(&lp);
                    if reference.status == LpStatus::Optimal {
                        prop_assert!((sol.objective - reference.objective).abs()
                            < 1e-5 * (1.0 + sol.objective.abs()),
                            "{} vs dense {}", sol.objective, reference.objective);
                    }
                }
                LpStatus::Infeasible => {
                    // the dense reference must agree that no point exists
                    let reference = dense::solve(&lp);
                    prop_assert_ne!(reference.status, LpStatus::Optimal);
                }
                LpStatus::Unbounded => prop_assert!(false, "bounded LP reported unbounded"),
                LpStatus::IterationLimit => { /* extremely unlikely; accept */ }
            }
        }

        /// Random bounded packing LP, then random extra rows (sometimes
        /// duplicated for degeneracy): the warm solve of the grown LP must
        /// match a dense cold solve. Without `mixed` every extra row is a
        /// `≤` row with positive data (the master shape); with it the rows
        /// mix `≥` rows, `≤` rows with a negative rhs and negative
        /// coefficients.
        #[test]
        fn prop_dual_reopt_matches_dense_after_row_additions(
            seed in 0u64..10_000,
            n in 2usize..8,
            m in 1usize..6,
            extra in 1usize..5,
            dup in any::<bool>(),
            mixed in any::<bool>(),
        ) {
            let mut master = master_of(&random_bounded_packing_lp(seed, n, m));
            let first = master.solve();
            prop_assert_eq!(first.status, LpStatus::Optimal);

            let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
            let mut last_coeffs: Vec<(usize, f64)> = Vec::new();
            let (mut last_relation, mut last_rhs) = (Relation::Le, 1.0);
            for _ in 0..extra {
                let mut coeffs: Vec<(usize, f64)> = Vec::new();
                for j in 0..n {
                    if rng.random_range(0.0..1.0) < 0.7 {
                        let a = if mixed {
                            rng.random_range(-1.0..3.0)
                        } else {
                            rng.random_range(0.1..3.0)
                        };
                        coeffs.push((j, a));
                    }
                }
                let (relation, rhs) = if !mixed {
                    (Relation::Le, rng.random_range(0.2..3.0))
                } else {
                    match rng.random_range(0..3) {
                        0 => (Relation::Le, rng.random_range(0.2..3.0)),
                        1 => (Relation::Ge, rng.random_range(0.0..1.5)),
                        _ => (Relation::Le, rng.random_range(-1.0..-0.05)),
                    }
                };
                master.add_row(relation, rhs, coeffs.clone());
                last_coeffs = coeffs;
                (last_relation, last_rhs) = (relation, rhs);
            }
            if dup && !last_coeffs.is_empty() {
                // an exactly repeated row: the repaired basis is degenerate
                master.add_row(last_relation, last_rhs, last_coeffs);
            }

            let re = master.solve();
            let lp = &master.lp;
            let reference = dense::solve(lp);
            prop_assert_eq!(re.status, reference.status);
            if re.status == LpStatus::Optimal {
                prop_assert!(lp.is_feasible(&re.x, 1e-6));
                prop_assert!(
                    (re.objective - reference.objective).abs()
                        < 1e-6 * (1.0 + reference.objective.abs()),
                    "dual reopt {} vs dense {}",
                    re.objective, reference.objective
                );
                // strong duality of the reported duals
                let priced: f64 = lp
                    .constraints()
                    .iter()
                    .zip(re.duals.iter())
                    .map(|(c, &y)| c.rhs * y)
                    .sum();
                prop_assert!((priced - re.objective).abs()
                    < 1e-5 * (1.0 + re.objective.abs()));
            }
        }

        /// Forcing infeasibility with a demanding `≥` row: the warm solve
        /// must agree with the dense oracle that no point exists.
        #[test]
        fn prop_dual_reopt_detects_infeasibility(
            seed in 0u64..10_000,
            n in 2usize..6,
            m in 1usize..5,
        ) {
            let mut master = master_of(&random_bounded_packing_lp(seed, n, m));
            let first = master.solve();
            prop_assert_eq!(first.status, LpStatus::Optimal);
            // every variable is bounded by its bound row, so demanding more
            // than the summed bounds is infeasible
            let total_bound: f64 = master
                .lp
                .constraints()
                .iter()
                .filter(|c| c.coeffs.len() == 1 && c.coeffs[0].1 == 1.0)
                .map(|c| c.rhs)
                .sum();
            let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0)).collect();
            master.add_row(Relation::Ge, total_bound + 5.0, coeffs);

            let re = master.solve();
            let reference = dense::solve(&master.lp);
            prop_assert_eq!(reference.status, LpStatus::Infeasible);
            prop_assert_eq!(re.status, LpStatus::Infeasible);
        }

    }
}
