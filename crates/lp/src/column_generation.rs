//! Column generation: a restricted master plus a pricing oracle.
//!
//! The paper's LP relaxations (1) and (4) have one variable `x_{v,T}` per
//! bidder `v` and channel bundle `T ⊆ [k]` — exponentially many. Section 2.2
//! solves them with the ellipsoid method on the dual, separating with demand
//! oracles. This module implements the equivalent primal view: a restricted
//! master LP over the columns generated so far, and a pricing oracle that is
//! handed the current duals and returns columns with improving reduced cost.
//! In the auction crate the pricing oracle is exactly a demand-oracle query
//! at the bidder-specific channel prices `p_{v,j} = Σ_{u : v ∈ Γπ(u)} y_{u,j}`
//! derived from the dual (2) of the paper.
//!
//! The same loop ([`ColumnGeneration::run`]) drives the Lavi–Swamy
//! decomposition (Section 5), whose master is a covering LP and whose
//! pricing oracle is the approximation algorithm itself. A managed
//! [`ColumnPool`] remembers discovered columns across solves (the auction
//! session seeds rebuilt masters from it).
//!
//! **Row lifecycle.** Masters are no longer append-only:
//! [`MasterProblem::deactivate_rows`] relaxes rows in place (each gains a
//! relief column; the recorded basis stays valid and primal feasible, so
//! the next [`MasterProblem::solve_warm`] is a plain primal resume),
//! [`MasterProblem::fix_columns`] retires columns at zero, and
//! [`MasterProblem::compact`] physically removes the accumulated deadweight
//! once [`MasterProblem::deadweight_fraction`] passes the caller's
//! threshold, remapping the warm basis. This is what turns bidder
//! *departures* into the cheap re-pricing shape instead of a rebuild; see
//! [`crate::problem`] for the state machine and the basis-validity
//! contract at the factorization seam.

use crate::basis::ForrestTomlinLu;
use crate::dual;
use crate::problem::{LinearProgram, Relation, Sense};
use crate::simplex::{
    solve, solve_with_warm_start, BasisVar, LpSolution, LpStatus, SimplexOptions, SolveStats,
    WarmStart,
};
use serde::{Deserialize, Serialize};

/// Column-tag address space. Native caller tags (in the auction:
/// `bidder << 32 | bundle`) must stay below [`DEAD_COLUMN_TAG_BASE`]; the
/// upper ranges are reserved for solver-internal columns:
///
/// | range | meaning |
/// |---|---|
/// | `[0, 1<<62)` | native columns (caller tags) |
/// | `[1<<62, 3<<62)` | dead columns — fixed at zero, tag tombstoned so the original native tag can be re-used |
/// | `[3<<62, 2⁶⁴)` | row-relief columns of deactivated rows |
pub const DEAD_COLUMN_TAG_BASE: u64 = 1 << 62;

/// First tag of the row-relief range (see [`DEAD_COLUMN_TAG_BASE`]).
pub const ROW_RELIEF_TAG_BASE: u64 = 0xC000_0000_0000_0000;

/// Whether a master column tag is a native caller tag (as opposed to a
/// solver-internal dead or relief column). Extraction and column scans up
/// the stack must skip non-native tags.
pub fn is_native_tag(tag: u64) -> bool {
    tag < DEAD_COLUMN_TAG_BASE
}

/// Whether a master column tag marks a row-relief column of a deactivated
/// row.
pub fn is_relief_tag(tag: u64) -> bool {
    tag >= ROW_RELIEF_TAG_BASE
}

/// A column produced by a pricing oracle.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GeneratedColumn {
    /// Objective coefficient of the column.
    pub objective: f64,
    /// Sparse constraint coefficients as `(row index, coefficient)` pairs.
    pub coeffs: Vec<(usize, f64)>,
    /// Caller-defined identifier (e.g. an index into a bundle table); used to
    /// de-duplicate columns across pricing rounds.
    pub tag: u64,
}

impl GeneratedColumn {
    /// Reduced cost of the column at the given duals (maximization
    /// convention: positive means improving).
    pub fn reduced_cost(&self, duals: &[f64]) -> f64 {
        let priced: f64 = self.coeffs.iter().map(|&(r, a)| duals[r] * a).sum();
        self.objective - priced
    }

    fn is_improving(&self, duals: &[f64], sense: Sense, tolerance: f64) -> bool {
        let rc = self.reduced_cost(duals);
        match sense {
            Sense::Maximize => rc > tolerance,
            Sense::Minimize => rc < -tolerance,
        }
    }
}

/// A pricing oracle: sees the master duals, returns improving columns.
pub trait ColumnSource {
    /// Returns candidate columns for the current duals. Returning an empty
    /// vector (or only columns already present / not improving) terminates
    /// the column-generation loop.
    fn generate(&mut self, duals: &[f64]) -> Vec<GeneratedColumn>;
}

impl<F> ColumnSource for F
where
    F: FnMut(&[f64]) -> Vec<GeneratedColumn>,
{
    fn generate(&mut self, duals: &[f64]) -> Vec<GeneratedColumn> {
        self(duals)
    }
}

/// The restricted master problem: a fixed set of rows plus a growing set of
/// columns.
#[derive(Clone, Debug)]
pub struct MasterProblem {
    rows: Vec<(Relation, f64)>,
    columns: Vec<GeneratedColumn>,
    seen_tags: std::collections::HashSet<u64>,
    /// The master LP, maintained incrementally: [`MasterProblem::add_column`]
    /// appends a variable and its coefficients instead of rebuilding the
    /// whole program on every solve.
    lp: LinearProgram,
    /// Basis of the most recent [`MasterProblem::solve_warm`]: the rows are
    /// fixed and columns only ever get appended (entering nonbasic), so the
    /// previous optimal basis remains valid across re-solves.
    warm: Option<WarmStart>,
    /// Rows appended by [`MasterProblem::add_row`] since the last solve.
    /// While non-zero, the recorded basis covers only a row prefix and the
    /// next [`MasterProblem::solve_warm`] goes through the dual-simplex
    /// reoptimization path instead of the (row-invariant) primal resume.
    pending_rows: usize,
    /// Dual-simplex pivots spent by the most recent solve (0 on the primal
    /// path).
    last_dual_pivots: usize,
    /// Next tag for dead-column tombstones ([`DEAD_COLUMN_TAG_BASE`]).
    next_dead_tag: u64,
    /// Next tag for row-relief columns ([`ROW_RELIEF_TAG_BASE`]).
    next_relief_tag: u64,
    /// Lifetime count of rows deactivated on this master (survives
    /// compaction — it is churn attribution, not a size).
    rows_deactivated: usize,
    /// Lifetime count of [`MasterProblem::compact`] runs.
    compactions: usize,
}

/// Index maps returned by [`MasterProblem::compact`]: `None` marks a
/// removed row / column, `Some(new)` the post-compaction index. Callers
/// that track master row or column indices (the session's row layout)
/// must remap through this.
#[derive(Clone, Debug)]
pub struct CompactionReport {
    /// Old master row index → new master row index.
    pub row_map: Vec<Option<usize>>,
    /// Old master column index → new master column index.
    pub column_map: Vec<Option<usize>>,
    /// Whether the recorded warm-start basis survived the remap (when
    /// `false` the next solve is cold).
    pub kept_basis: bool,
}

impl MasterProblem {
    /// Creates a master problem with the given sense and rows
    /// `(relation, rhs)`; initially it has no columns.
    pub fn new(sense: Sense, rows: Vec<(Relation, f64)>) -> Self {
        let mut lp = LinearProgram::new(sense);
        for &(rel, rhs) in &rows {
            lp.add_constraint(Vec::new(), rel, rhs);
        }
        MasterProblem {
            rows,
            columns: Vec::new(),
            seen_tags: std::collections::HashSet::new(),
            lp,
            warm: None,
            pending_rows: 0,
            last_dual_pivots: 0,
            next_dead_tag: DEAD_COLUMN_TAG_BASE,
            next_relief_tag: ROW_RELIEF_TAG_BASE,
            rows_deactivated: 0,
            compactions: 0,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The rows `(relation, rhs)` this master was built with.
    pub fn rows(&self) -> &[(Relation, f64)] {
        &self.rows
    }

    /// Number of columns added so far.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Whether a column with this tag has already been added.
    pub fn contains_tag(&self, tag: u64) -> bool {
        self.seen_tags.contains(&tag)
    }

    /// The columns added so far, in insertion order (their index is the
    /// variable index in the solved LP).
    pub fn columns(&self) -> &[GeneratedColumn] {
        &self.columns
    }

    /// Adds a column unless one with the same tag has already been added.
    /// Returns `true` if the column was added.
    pub fn add_column(&mut self, column: GeneratedColumn) -> bool {
        if !self.seen_tags.insert(column.tag) {
            return false;
        }
        for &(r, _) in &column.coeffs {
            assert!(r < self.rows.len(), "column references unknown row {r}");
        }
        let var = self.lp.add_variable(column.objective);
        for &(r, a) in &column.coeffs {
            self.lp.add_coefficient(r, var, a);
        }
        self.columns.push(column);
        true
    }

    /// Changes the objective coefficient of an existing column (e.g. a
    /// bidder re-bidding in a long-lived session: the column's bundle and
    /// constraint coefficients are unchanged, only its value moves).
    ///
    /// The recorded warm-start basis stays **fully valid**: the constraint
    /// matrix is untouched, so the basis is still primal feasible and its
    /// factorization still factors the same `B`. Only dual feasibility is
    /// lost, which is exactly what the next
    /// [`solve_warm`](Self::solve_warm) repairs with ordinary primal
    /// pivots — no refactorization, no phase 1.
    ///
    /// # Panics
    /// Panics if `index` is not an existing column.
    pub fn set_column_objective(&mut self, index: usize, objective: f64) {
        self.columns[index].objective = objective;
        // column index == variable index by construction
        self.lp.set_objective_coefficient(index, objective);
    }

    /// Appends a constraint row (e.g. a newly discovered conflict, or the
    /// rows of a bidder joining mid-auction). `coeffs` gives the new row's
    /// coefficients on **existing columns** by column index; columns added
    /// later receive their coefficient through
    /// [`GeneratedColumn::coeffs`] as usual.
    ///
    /// The recorded warm-start basis stays valid as a *row prefix*: the next
    /// [`solve_warm`](Self::solve_warm) extends it with the new rows'
    /// logicals and reoptimizes with the **dual simplex**
    /// ([`crate::dual`]) instead of re-solving from scratch. Returns the new
    /// row's index.
    pub fn add_row(&mut self, relation: Relation, rhs: f64, coeffs: Vec<(usize, f64)>) -> usize {
        for &(c, _) in &coeffs {
            assert!(c < self.columns.len(), "row references unknown column {c}");
        }
        // column index == variable index by construction
        let row = self.lp.add_constraint(coeffs, relation, rhs);
        self.rows.push((relation, rhs));
        self.pending_rows += 1;
        row
    }

    // -- row / column lifecycle --------------------------------------------

    /// Relaxes master rows to non-binding **in place** — the
    /// basis-preserving half of a departure. Each row gains a
    /// zero-objective relief column (appended like any other column, so the
    /// `column index == variable index` invariant holds and the recorded
    /// basis stays valid *and primal feasible*); the next
    /// [`solve_warm`](Self::solve_warm) resumes with ordinary primal
    /// pivots, entering the relief columns of rows that were binding. Row
    /// indices never shift — deactivated rows keep their slot until
    /// [`compact`](Self::compact).
    ///
    /// # Panics
    /// Panics if a row does not exist, is already deactivated, or is an
    /// equality row.
    pub fn deactivate_rows(&mut self, rows: &[usize]) {
        let relief = self.lp.deactivate_rows(rows);
        for (&row, var) in rows.iter().zip(relief) {
            debug_assert_eq!(var, self.columns.len(), "column/variable alignment");
            // Mirror the exact coefficient the LP layer just appended (the
            // relief variable has the highest index, so it sorts last)
            // instead of re-deriving the sign convention here.
            let &(relief_var, sign) = self.lp.constraints()[row]
                .coeffs
                .last()
                .expect("the LP layer appended the relief coefficient");
            debug_assert_eq!(relief_var, var, "relief coefficient sorts last");
            let tag = self.next_relief_tag;
            self.next_relief_tag += 1;
            self.seen_tags.insert(tag);
            self.columns.push(GeneratedColumn {
                objective: 0.0,
                coeffs: vec![(row, sign)],
                tag,
            });
        }
        self.rows_deactivated += rows.len();
    }

    /// Fixes master columns at zero — the other half of a departure: the
    /// objective coefficient drops to 0, the engines bar the column from
    /// entering any basis, and its tag is **tombstoned** into the dead
    /// range so the native tag can be re-used later (bidder indices shift
    /// after a departure; see [`set_column_tag`](Self::set_column_tag)).
    /// The constraint matrix is untouched, so the recorded basis stays
    /// primal feasible and the next solve is a plain primal resume.
    ///
    /// # Panics
    /// Panics if a column does not exist, or if it is a **relief column**
    /// of a deactivated row — fixing one would bar it from entering and
    /// silently re-impose the row it exists to relax; that is a caller
    /// indexing bug, not a retirement.
    pub fn fix_columns(&mut self, cols: &[usize]) {
        for &idx in cols {
            assert!(
                !is_relief_tag(self.columns[idx].tag),
                "column {idx} is the relief column of a deactivated row and cannot be fixed"
            );
        }
        self.lp.fix_variables_at_zero(cols);
        // If a freshly fixed, non-harmless column sits in the recorded
        // basis (even at value 0 — basic values drift with later pivots),
        // the basis must not be resumed: the primal engine validates and
        // rejects it, but the dual row-addition repair path trusts the
        // recorded state as-is, so scrub it here.
        if let Some(warm) = &self.warm {
            let poisoned = warm.basis.iter().any(|b| match *b {
                BasisVar::Structural(v) => cols.contains(&v) && !self.lp.fixed_value_is_harmless(v),
                _ => false,
            });
            if poisoned {
                self.warm = None;
            }
        }
        for &idx in cols {
            let col = &mut self.columns[idx];
            if col.tag >= DEAD_COLUMN_TAG_BASE {
                continue; // already tombstoned
            }
            self.seen_tags.remove(&col.tag);
            col.objective = 0.0;
            col.tag = self.next_dead_tag;
            self.next_dead_tag += 1;
            self.seen_tags.insert(col.tag);
        }
    }

    /// Re-tags an existing column (e.g. re-keying surviving bidders'
    /// columns after a departure shifted bidder indices down).
    ///
    /// # Panics
    /// Panics if the column does not exist or the new tag is already held
    /// by a different column.
    pub fn set_column_tag(&mut self, index: usize, tag: u64) {
        let old = self.columns[index].tag;
        if old == tag {
            return;
        }
        assert!(
            !self.seen_tags.contains(&tag),
            "tag {tag} is already held by another column"
        );
        self.seen_tags.remove(&old);
        self.seen_tags.insert(tag);
        self.columns[index].tag = tag;
    }

    /// Whether master row `i` is still active.
    pub fn is_row_active(&self, i: usize) -> bool {
        self.lp.is_row_active(i)
    }

    /// Number of rows still active.
    pub fn num_active_rows(&self) -> usize {
        self.lp.num_active_rows()
    }

    /// Lifetime count of rows deactivated on this master (churn
    /// attribution; survives compaction).
    pub fn rows_deactivated(&self) -> usize {
        self.rows_deactivated
    }

    /// Lifetime count of [`compact`](Self::compact) runs.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Fraction of the master occupied by deadweight: deactivated rows plus
    /// dead (fixed / relief) columns over all rows + columns.
    pub fn deadweight_fraction(&self) -> f64 {
        let dead_rows = self.rows.len() - self.lp.num_active_rows();
        let dead_cols = self.lp.num_dead_variables();
        let total = self.rows.len() + self.columns.len();
        if total == 0 {
            0.0
        } else {
            (dead_rows + dead_cols) as f64 / total as f64
        }
    }

    /// Physically removes deactivated rows and dead columns, remapping the
    /// surviving columns' coefficients and — when every recorded basis
    /// member survives the remap — the warm-start basis (basis identities
    /// only; the factorization is rebuilt from the compacted matrix on the
    /// next solve, which validates it through the ordinary warm-start
    /// path). Callers that track master row/column indices must remap them
    /// through the returned [`CompactionReport`].
    pub fn compact(&mut self) -> CompactionReport {
        let old_warm = self.warm.take();
        let maps = self.lp.compact();
        let mut new_rows = Vec::with_capacity(self.lp.num_constraints());
        for (i, &row) in self.rows.iter().enumerate() {
            if maps.row_map[i].is_some() {
                new_rows.push(row);
            }
        }
        self.rows = new_rows;
        let mut new_columns = Vec::with_capacity(self.lp.num_variables());
        for (j, col) in self.columns.iter().enumerate() {
            if maps.var_map[j].is_none() {
                continue;
            }
            let coeffs: Vec<(usize, f64)> = col
                .coeffs
                .iter()
                .filter_map(|&(r, a)| maps.row_map[r].map(|nr| (nr, a)))
                .collect();
            new_columns.push(GeneratedColumn {
                objective: col.objective,
                coeffs,
                tag: col.tag,
            });
        }
        self.columns = new_columns;
        self.seen_tags = self.columns.iter().map(|c| c.tag).collect();
        debug_assert_eq!(self.columns.len(), self.lp.num_variables());
        debug_assert_eq!(self.rows.len(), self.lp.num_constraints());

        let mut kept_basis = false;
        if let Some(w) = old_warm {
            let mut basis = Vec::with_capacity(self.rows.len());
            for var in w.basis {
                let mapped = match var {
                    BasisVar::Structural(j) => maps
                        .var_map
                        .get(j)
                        .copied()
                        .flatten()
                        .map(BasisVar::Structural),
                    BasisVar::Slack(i) => {
                        maps.row_map.get(i).copied().flatten().map(BasisVar::Slack)
                    }
                    BasisVar::Surplus(i) => maps
                        .row_map
                        .get(i)
                        .copied()
                        .flatten()
                        .map(BasisVar::Surplus),
                    BasisVar::Artificial(i) => maps
                        .row_map
                        .get(i)
                        .copied()
                        .flatten()
                        .map(BasisVar::Artificial),
                };
                if let Some(v) = mapped {
                    basis.push(v);
                }
            }
            if basis.len() == self.rows.len() {
                // Exactly one member vanished per removed row (the typical
                // post-solve state: each deactivated row's relief or slack
                // was basic): the remapped basis is handed back basis-only
                // and refactorized from the compacted matrix on install.
                self.warm = Some(WarmStart::from_parts(basis, ForrestTomlinLu::default()));
                kept_basis = true;
            }
        }
        self.pending_rows = 0;
        self.compactions += 1;
        CompactionReport {
            row_map: maps.row_map,
            column_map: maps.var_map,
            kept_basis,
        }
    }

    /// Compacts when the [`deadweight_fraction`](Self::deadweight_fraction)
    /// has reached `threshold` (and there is any deadweight at all);
    /// returns the report when a compaction ran.
    pub fn maybe_compact(&mut self, threshold: f64) -> Option<CompactionReport> {
        let f = self.deadweight_fraction();
        if f > 0.0 && f >= threshold {
            Some(self.compact())
        } else {
            None
        }
    }

    /// Dual-simplex pivots spent by the most recent
    /// [`solve_warm`](Self::solve_warm) (non-zero only right after rows were
    /// added through [`add_row`](Self::add_row)).
    pub fn last_dual_pivots(&self) -> usize {
        self.last_dual_pivots
    }

    /// The restricted master as a [`LinearProgram`] (a clone of the
    /// incrementally maintained program).
    pub fn to_linear_program(&self) -> LinearProgram {
        self.lp.clone()
    }

    /// Solves the current restricted master from a cold start.
    pub fn solve(&self, options: &SimplexOptions) -> LpSolution {
        solve(&self.lp, options)
    }

    /// Solves the current restricted master, resuming from the basis of the
    /// previous `solve_warm` call (if any) and recording the new basis for
    /// the next round. Columns added since the last solve enter nonbasic,
    /// so a re-solve typically needs only the handful of pivots that bring
    /// the new columns in — instead of re-running phase 1 / the all-slack
    /// start from scratch.
    pub fn solve_warm(&mut self, options: &SimplexOptions) -> LpSolution {
        if self.pending_rows > 0 {
            self.pending_rows = 0;
            if let Some(prior) = self.warm.take() {
                // rows grew since the basis was recorded: repair primal
                // feasibility with the dual simplex instead of cold-starting
                let re = dual::reoptimize_after_row_additions(&self.lp, options, prior);
                self.warm = Some(re.warm);
                self.last_dual_pivots = re.solution.stats.dual_pivots;
                return re.solution;
            }
        }
        let (solution, state) = solve_with_warm_start(&self.lp, options, self.warm.take());
        self.warm = Some(state);
        self.last_dual_pivots = 0;
        solution
    }

    /// The warm-start state recorded by the last
    /// [`solve_warm`](Self::solve_warm), if any.
    pub fn warm_start(&self) -> Option<&WarmStart> {
        self.warm.as_ref()
    }

    /// Drops the recorded warm-start basis (the next solve is cold).
    pub fn reset_warm_start(&mut self) {
        self.warm = None;
    }
}

/// Outcome of a column-generation run.
#[derive(Clone, Debug)]
pub struct ColumnGenerationResult {
    /// Solution of the final restricted master.
    pub solution: LpSolution,
    /// Number of pricing rounds performed.
    pub rounds: usize,
    /// Whether the loop stopped because no improving column was found
    /// (`true`) or because the round limit was hit (`false`).
    pub converged: bool,
    /// Rounds in which the pricing oracle was actually queried (the final
    /// confirming round included).
    pub pricing_rounds: usize,
    /// Total columns adopted by the master during this run.
    pub columns_generated: usize,
    /// Engine counters of every master re-solve of this run, merged.
    pub stats: SolveStats,
    /// Pivots of each master re-solve, in order — the warm-start win is the
    /// drop after round 0.
    pub per_round_iterations: Vec<usize>,
    /// Columns adopted per pricing round — the trajectory observable: a
    /// healthy run adopts steadily and then dries up, an oscillating one
    /// keeps re-discovering.
    pub columns_per_round: Vec<usize>,
}

/// Failure of a column-generation run.
///
/// The seed implementation silently returned the truncated master solution
/// when the simplex hit its pivot budget; callers could not tell a genuine
/// optimum from an arbitrary interrupted basis. The condition is now a
/// proper error carrying the partial result, so callers decide explicitly
/// whether a truncated solution is acceptable.
#[derive(Clone, Debug)]
pub enum ColumnGenerationError {
    /// A master solve stopped at [`LpStatus::IterationLimit`] before proving
    /// optimality; the partial result is attached (boxed: the error path is
    /// cold and the result carries the full master solution).
    IterationLimit {
        /// State at the interrupted solve (solution is *not* optimal).
        partial: Box<ColumnGenerationResult>,
    },
}

impl std::fmt::Display for ColumnGenerationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnGenerationError::IterationLimit { partial } => write!(
                f,
                "restricted master hit the simplex iteration limit after {} rounds \
                 ({} iterations in the last solve)",
                partial.rounds, partial.solution.stats.simplex_iterations
            ),
        }
    }
}

impl std::error::Error for ColumnGenerationError {}

/// Driver for the restricted-master / pricing loop.
#[derive(Clone, Debug)]
pub struct ColumnGeneration {
    /// Simplex options used for every master solve.
    pub simplex: SimplexOptions,
    /// Maximum number of pricing rounds.
    pub max_rounds: usize,
    /// Reduced-cost tolerance below which a column is not considered
    /// improving.
    pub reduced_cost_tolerance: f64,
}

impl Default for ColumnGeneration {
    fn default() -> Self {
        ColumnGeneration {
            simplex: SimplexOptions::default(),
            max_rounds: 200,
            reduced_cost_tolerance: 1e-7,
        }
    }
}

/// Adds the improving columns among `cols` to the master. Returns how many
/// the master actually adopted.
fn adopt_improving(
    master: &mut MasterProblem,
    cols: Vec<GeneratedColumn>,
    duals: &[f64],
    sense: Sense,
    tolerance: f64,
) -> usize {
    let mut added = 0usize;
    for col in cols {
        if col.is_improving(duals, sense, tolerance) && master.add_column(col) {
            added += 1;
        }
    }
    added
}

impl ColumnGeneration {
    /// Runs column generation: repeatedly solve the restricted master
    /// (warm-started from the previous round's optimal basis), hand the
    /// duals to `source`, and add every returned column that has improving
    /// reduced cost. Terminates when no new improving column arrives or
    /// `max_rounds` is reached.
    ///
    /// # Errors
    /// Returns [`ColumnGenerationError::IterationLimit`] when a master
    /// solve exhausts its pivot budget: the attached partial solution is a
    /// feasible but non-optimal basis whose duals cannot be trusted for
    /// pricing.
    pub fn run(
        &self,
        master: &mut MasterProblem,
        source: &mut dyn ColumnSource,
    ) -> Result<ColumnGenerationResult, ColumnGenerationError> {
        let sense = master.lp.sense();
        let mut rounds = 0usize;
        let mut pricing_rounds = 0usize;
        let mut columns_generated = 0usize;
        let mut stats = SolveStats::default();
        let mut per_round_iterations = Vec::new();
        let mut columns_per_round = Vec::new();
        // `Ok(converged)` breaks the loop; the result is assembled on the
        // single exit path below.
        let (solution, outcome) = loop {
            let solution = master.solve_warm(&self.simplex);
            if rounds == 0 {
                // Seeding with the first solve (rather than merging it into
                // the default) keeps its density bit for bit.
                stats = solution.stats;
            } else {
                stats.merge(&solution.stats);
            }
            per_round_iterations.push(solution.stats.simplex_iterations);
            rounds += 1;
            if solution.status == LpStatus::IterationLimit {
                break (solution, Err(()));
            }
            if rounds > self.max_rounds {
                // `rounds` counts master solves actually performed, so the
                // per-round iteration list stays one entry per round even on
                // the truncated path.
                break (solution, Ok(false));
            }
            // An infeasible or unbounded master cannot be priced further.
            if solution.status != LpStatus::Optimal {
                break (solution, Ok(false));
            }
            pricing_rounds += 1;
            let added = adopt_improving(
                master,
                source.generate(&solution.duals),
                &solution.duals,
                sense,
                self.reduced_cost_tolerance,
            );
            columns_per_round.push(added);
            columns_generated += added;
            if added == 0 {
                break (solution, Ok(true));
            }
        };
        let result = ColumnGenerationResult {
            solution,
            rounds,
            converged: outcome == Ok(true),
            pricing_rounds,
            columns_generated,
            stats,
            per_round_iterations,
            columns_per_round,
        };
        match outcome {
            Ok(_) => Ok(result),
            Err(()) => Err(ColumnGenerationError::IterationLimit {
                partial: Box::new(result),
            }),
        }
    }
}

/// Default capacity of a [`ColumnPool`] when the caller does not size it.
pub const DEFAULT_POOL_CAPACITY: usize = 4096;

/// A pooled column plus its usefulness bookkeeping. See [`ColumnPool`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PooledColumn {
    /// The column itself (its coefficients are meaningful only relative to
    /// the origin master's rows).
    pub column: GeneratedColumn,
    /// Caller-defined origin id (in the auction session: the bidder whose
    /// bundle this is).
    pub origin: usize,
    /// Pool scan clock at insertion.
    pub born_scan: u64,
    /// Pool scan clock of the last recorded hit (insertion counts as the
    /// zeroth hit so fresh columns aren't instant eviction bait).
    pub last_hit_scan: u64,
    /// Times this column was adopted / re-used after insertion.
    pub hits: usize,
    /// Reduced cost observed at the most recent scan that priced it
    /// (`NaN` until a scan reaches it).
    pub last_reduced_cost: f64,
}

/// First-class managed column pool: every column any oracle discovers,
/// with per-column age / hit / last-reduced-cost metadata, a bounded size,
/// and LRU-by-usefulness eviction (fewest hits first, least-recently-hit
/// among ties).
///
/// Its counters are observable: [`hits`](Self::hits),
/// [`evictions`](Self::evictions), [`insertions`](Self::insertions).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ColumnPool {
    entries: Vec<PooledColumn>,
    capacity: usize,
    clock: u64,
    insertions: usize,
    hits: usize,
    evictions: usize,
}

impl ColumnPool {
    /// An empty pool holding at most `capacity` columns (0 is treated as
    /// unbounded, matching the historical behavior).
    pub fn with_capacity(capacity: usize) -> Self {
        ColumnPool {
            entries: Vec::new(),
            capacity,
            clock: 0,
            insertions: 0,
            hits: 0,
            evictions: 0,
        }
    }

    /// An unbounded pool.
    pub fn unbounded() -> Self {
        Self::with_capacity(0)
    }

    /// Current number of pooled columns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime number of columns accepted (monotone — unlike
    /// [`len`](Self::len), which eviction can shrink; use this as the
    /// "has the pool grown since I last looked" signal).
    pub fn insertions(&self) -> usize {
        self.insertions
    }

    /// Lifetime number of recorded hits (adoptions / re-uses).
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Lifetime number of evictions.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// The pooled columns in insertion order (eviction may leave gaps in
    /// seniority, never in the order).
    pub fn entries(&self) -> &[PooledColumn] {
        &self.entries
    }

    /// Whether a column with this tag is pooled.
    pub fn contains_tag(&self, tag: u64) -> bool {
        self.entries.iter().any(|e| e.column.tag == tag)
    }

    /// Offers a column; returns `true` if it was new (by tag) and
    /// accepted. Accepting past capacity evicts the least useful column:
    /// fewest hits, then least recently hit, then oldest.
    pub fn offer(&mut self, column: GeneratedColumn, origin: usize) -> bool {
        if self.contains_tag(column.tag) {
            return false;
        }
        self.entries.push(PooledColumn {
            column,
            origin,
            born_scan: self.clock,
            last_hit_scan: self.clock,
            hits: 0,
            last_reduced_cost: f64::NAN,
        });
        self.insertions += 1;
        if self.capacity > 0 && self.entries.len() > self.capacity {
            self.evict_least_useful();
        }
        true
    }

    fn evict_least_useful(&mut self) {
        // Never evict the newest entry (it was just offered for a reason).
        let candidates = self.entries.len().saturating_sub(1);
        let victim = (0..candidates).min_by_key(|&i| {
            let e = &self.entries[i];
            (e.hits, e.last_hit_scan, e.born_scan)
        });
        if let Some(i) = victim {
            self.entries.remove(i);
            self.evictions += 1;
        }
    }

    /// Records an adoption / re-use of the tagged column.
    pub fn note_hit(&mut self, tag: u64) {
        let clock = self.clock;
        if let Some(e) = self.entries.iter_mut().find(|e| e.column.tag == tag) {
            e.hits += 1;
            e.last_hit_scan = clock;
            self.hits += 1;
        }
    }

    /// Scans the pool at the given duals and returns clones of the
    /// improving columns among those `eligible` admits (callers gate on
    /// row-set identity — a coefficient on "row i" only means something
    /// under the origin master's rows). Advances the scan clock and stamps
    /// every priced entry's [`PooledColumn::last_reduced_cost`]. The
    /// **whole** pool is rescanned every call: a column rejected at one
    /// round's duals can become improving after other columns pivot in,
    /// so a forward-only cursor would silently withhold it.
    pub fn scan(
        &mut self,
        duals: &[f64],
        sense: Sense,
        tolerance: f64,
        mut eligible: impl FnMut(&PooledColumn) -> bool,
    ) -> Vec<GeneratedColumn> {
        self.clock += 1;
        let mut improving = Vec::new();
        for e in self.entries.iter_mut() {
            if !eligible(e) || e.column.coeffs.iter().any(|&(r, _)| r >= duals.len()) {
                continue;
            }
            let rc = e.column.reduced_cost(duals);
            e.last_reduced_cost = rc;
            let is_improving = match sense {
                Sense::Maximize => rc > tolerance,
                Sense::Minimize => rc < -tolerance,
            };
            if is_improving {
                improving.push(e.column.clone());
            }
        }
        improving
    }

    /// Retains / re-keys entries: `f` returns the (possibly new) tag to
    /// keep an entry under, or `None` to drop it (dropping this way is
    /// **not** counted as an eviction — it is caller-driven retirement,
    /// e.g. a departed bidder's columns). Used by long-lived sessions
    /// whose native tags embed indices that shift on departure.
    pub fn retain_map(&mut self, mut f: impl FnMut(&PooledColumn) -> Option<u64>) {
        let mut kept = Vec::with_capacity(self.entries.len());
        for mut e in std::mem::take(&mut self.entries) {
            if let Some(tag) = f(&e) {
                e.column.tag = tag;
                kept.push(e);
            }
        }
        self.entries = kept;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A knapsack-style LP solved by column generation over single-item
    /// columns: max Σ value_i x_i s.t. Σ weight_i x_i <= capacity, x_i <= 1.
    /// The pricing oracle proposes the item with the best reduced cost.
    #[test]
    fn knapsack_lp_via_column_generation() {
        let values = [6.0, 10.0, 12.0];
        let weights = [1.0, 2.0, 3.0];
        let capacity = 5.0;
        // rows: 0 = capacity, 1..=3 = per-item upper bounds
        let mut rows = vec![(Relation::Le, capacity)];
        for _ in 0..3 {
            rows.push((Relation::Le, 1.0));
        }
        let mut master = MasterProblem::new(Sense::Maximize, rows);

        let mut source = |duals: &[f64]| -> Vec<GeneratedColumn> {
            let mut best: Option<GeneratedColumn> = None;
            for i in 0..3 {
                let col = GeneratedColumn {
                    objective: values[i],
                    coeffs: vec![(0, weights[i]), (i + 1, 1.0)],
                    tag: i as u64,
                };
                let rc = col.reduced_cost(duals);
                if rc > 1e-7 {
                    match &best {
                        None => best = Some(col),
                        Some(b) => {
                            if rc > b.reduced_cost(duals) {
                                best = Some(col);
                            }
                        }
                    }
                }
            }
            best.into_iter().collect()
        };

        let cg = ColumnGeneration::default();
        let result = cg
            .run(&mut master, &mut source)
            .expect("column generation failed");
        assert!(result.converged);
        assert_eq!(result.solution.status, LpStatus::Optimal);
        // LP optimum: take items 1, 2, 3 fully (total weight 6 > 5), so the
        // fractional optimum is x = (1, 1, 2/3): 6 + 10 + 8 = 24.
        assert!((result.solution.objective - 24.0).abs() < 1e-5);
        // stats: one entry per master re-solve, totals add up
        assert_eq!(result.per_round_iterations.len(), result.rounds);
        assert_eq!(
            result.per_round_iterations.iter().sum::<usize>(),
            result.stats.simplex_iterations
        );
    }

    #[test]
    fn empty_master_with_no_columns_is_fine() {
        let mut master = MasterProblem::new(Sense::Maximize, vec![(Relation::Le, 1.0)]);
        let mut source = |_: &[f64]| Vec::<GeneratedColumn>::new();
        let cg = ColumnGeneration::default();
        let result = cg
            .run(&mut master, &mut source)
            .expect("column generation failed");
        assert!(result.converged);
        assert_eq!(result.solution.objective, 0.0);
        assert_eq!(result.rounds, 1);
    }

    #[test]
    fn duplicate_tags_are_rejected() {
        let mut master = MasterProblem::new(Sense::Maximize, vec![(Relation::Le, 1.0)]);
        let col = GeneratedColumn {
            objective: 1.0,
            coeffs: vec![(0, 1.0)],
            tag: 7,
        };
        assert!(master.add_column(col.clone()));
        assert!(!master.add_column(col));
        assert_eq!(master.num_columns(), 1);
    }

    #[test]
    fn loop_terminates_when_oracle_keeps_repeating_columns() {
        // The oracle always proposes the same column; after the first round
        // the de-duplication must stop the loop.
        let mut master = MasterProblem::new(Sense::Maximize, vec![(Relation::Le, 2.0)]);
        let mut calls = 0usize;
        let mut source = |_duals: &[f64]| {
            calls += 1;
            vec![GeneratedColumn {
                objective: 1.0,
                coeffs: vec![(0, 1.0)],
                tag: 0,
            }]
        };
        let cg = ColumnGeneration::default();
        let result = cg
            .run(&mut master, &mut source)
            .expect("column generation failed");
        assert!(result.converged);
        assert!(result.rounds <= 3);
        assert!((result.solution.objective - 2.0).abs() < 1e-6);
    }

    /// Warm-started and cold-started column generation must agree: the warm
    /// path only changes the starting basis of each re-solve, never the
    /// optimum. Uses seeded knapsack-style masters of growing size.
    #[test]
    fn warm_and_cold_column_generation_reach_the_same_objective() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let num_items = 4 + (seed as usize % 6);
            let values: Vec<f64> = (0..num_items)
                .map(|_| rng.random_range(1.0..10.0))
                .collect();
            let weights: Vec<f64> = (0..num_items).map(|_| rng.random_range(0.5..4.0)).collect();
            let capacity = rng.random_range(3.0..8.0);

            let build_master = || {
                let mut rows = vec![(Relation::Le, capacity)];
                for _ in 0..num_items {
                    rows.push((Relation::Le, 1.0));
                }
                MasterProblem::new(Sense::Maximize, rows)
            };
            let make_source = |values: Vec<f64>, weights: Vec<f64>| {
                move |duals: &[f64]| -> Vec<GeneratedColumn> {
                    let mut best: Option<(f64, GeneratedColumn)> = None;
                    for i in 0..values.len() {
                        let col = GeneratedColumn {
                            objective: values[i],
                            coeffs: vec![(0, weights[i]), (i + 1, 1.0)],
                            tag: i as u64,
                        };
                        let rc = col.reduced_cost(duals);
                        if rc > 1e-7 && best.as_ref().map(|(b, _)| rc > *b).unwrap_or(true) {
                            best = Some((rc, col));
                        }
                    }
                    best.map(|(_, c)| c).into_iter().collect()
                }
            };

            // warm (the default run loop)
            let cg = ColumnGeneration::default();
            let mut warm_master = build_master();
            let mut warm_source = make_source(values.clone(), weights.clone());
            let warm = cg
                .run(&mut warm_master, &mut warm_source)
                .expect("warm run failed");

            // cold: identical pricing loop but every master solve from scratch
            let mut cold_master = build_master();
            let cold_source = make_source(values.clone(), weights.clone());
            let cold_solution = loop {
                let solution = cold_master.solve(&cg.simplex);
                assert_eq!(solution.status, LpStatus::Optimal);
                let candidates = cold_source(&solution.duals);
                let mut added = false;
                for col in candidates {
                    if col.reduced_cost(&solution.duals) > cg.reduced_cost_tolerance
                        && cold_master.add_column(col)
                    {
                        added = true;
                    }
                }
                if !added {
                    break solution;
                }
            };

            assert!(warm.converged);
            assert!(
                (warm.solution.objective - cold_solution.objective).abs() < 1e-6,
                "seed {seed}: warm {} vs cold {}",
                warm.solution.objective,
                cold_solution.objective
            );
        }
    }

    /// Rows added through `add_row` must be absorbed by the dual-simplex
    /// path on the next warm solve — matching a cold solve of the grown
    /// master exactly, and reporting the repair pivots.
    #[test]
    fn row_additions_reoptimize_through_the_dual_simplex() {
        let mut master = MasterProblem::new(
            Sense::Maximize,
            vec![
                (Relation::Le, 4.0),
                (Relation::Le, 1.0),
                (Relation::Le, 1.0),
            ],
        );
        for i in 0..2 {
            master.add_column(GeneratedColumn {
                objective: 3.0 - i as f64,
                coeffs: vec![(0, 1.0), (i + 1, 1.0)],
                tag: i as u64,
            });
        }
        let options = SimplexOptions::default();
        let first = master.solve_warm(&options);
        assert_eq!(first.status, LpStatus::Optimal);
        assert!((first.objective - 5.0).abs() < 1e-7); // both columns at 1
        assert_eq!(master.last_dual_pivots(), 0);

        // a joint cap that cuts the optimum off
        master.add_row(Relation::Le, 1.0, vec![(0, 1.0), (1, 1.0)]);
        let second = master.solve_warm(&options);
        assert_eq!(second.status, LpStatus::Optimal);
        assert!((second.objective - 3.0).abs() < 1e-7); // only column 0
        assert!(master.last_dual_pivots() > 0, "dual repair must have run");

        // a cold solve of the same grown master agrees
        let cold = master.solve(&options);
        assert!((cold.objective - second.objective).abs() < 1e-9);

        // and the master keeps working for further column growth
        master.add_column(GeneratedColumn {
            objective: 10.0,
            coeffs: vec![(0, 1.0)],
            tag: 99,
        });
        let third = master.solve_warm(&options);
        assert_eq!(third.status, LpStatus::Optimal);
        assert!(third.objective > 3.0);
        assert_eq!(master.last_dual_pivots(), 0);
    }

    /// Re-pricing a column keeps the recorded basis usable: the next warm
    /// solve must reach the optimum of the re-priced LP (matching a cold
    /// solve) with plain primal pivots.
    #[test]
    fn repriced_columns_resume_from_the_recorded_basis() {
        let mut master = MasterProblem::new(
            Sense::Maximize,
            vec![
                (Relation::Le, 2.0),
                (Relation::Le, 1.0),
                (Relation::Le, 1.0),
            ],
        );
        for i in 0..2 {
            master.add_column(GeneratedColumn {
                objective: if i == 0 { 5.0 } else { 1.0 },
                coeffs: vec![(0, 1.0), (i + 1, 1.0)],
                tag: i as u64,
            });
        }
        let options = SimplexOptions::default();
        let first = master.solve_warm(&options);
        assert_eq!(first.status, LpStatus::Optimal);
        assert!((first.objective - 6.0).abs() < 1e-7);

        // the cheap column becomes the valuable one and vice versa
        master.set_column_objective(0, 0.5);
        master.set_column_objective(1, 7.0);
        let second = master.solve_warm(&options);
        assert_eq!(second.status, LpStatus::Optimal);
        assert!(
            (second.objective - 7.5).abs() < 1e-7,
            "{}",
            second.objective
        );
        let cold = master.solve(&options);
        assert!((cold.objective - second.objective).abs() < 1e-9);
        assert_eq!(master.columns()[1].objective, 7.0);
    }

    #[test]
    fn iteration_limit_is_surfaced_as_an_error() {
        // A pivot budget of 1 cannot optimize a 3-column master: the run
        // must fail loudly instead of returning the truncated solution.
        let mut master = MasterProblem::new(
            Sense::Maximize,
            vec![
                (Relation::Le, 4.0),
                (Relation::Le, 1.0),
                (Relation::Le, 1.0),
                (Relation::Le, 1.0),
            ],
        );
        for i in 0..3 {
            master.add_column(GeneratedColumn {
                objective: (i + 1) as f64,
                coeffs: vec![(0, 1.0), (i + 1, 1.0)],
                tag: i as u64,
            });
        }
        let cg = ColumnGeneration {
            simplex: SimplexOptions {
                max_iterations: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut source = |_: &[f64]| Vec::<GeneratedColumn>::new();
        match cg.run(&mut master, &mut source) {
            Err(ColumnGenerationError::IterationLimit { partial }) => {
                assert_eq!(partial.solution.status, LpStatus::IterationLimit);
            }
            other => panic!("expected IterationLimit error, got {other:?}"),
        }
    }

    #[test]
    fn covering_master_in_minimization_sense() {
        // min Σ λ_l s.t. coverage >= demand; columns are "patterns".
        // Two rows with demand 1 each; pattern A covers row 0, pattern B
        // covers row 1, pattern C covers both. Optimum: take C once.
        let rows = vec![(Relation::Ge, 1.0), (Relation::Ge, 1.0)];
        let mut master = MasterProblem::new(Sense::Minimize, rows);
        // seed with the two singleton patterns so the master is feasible
        master.add_column(GeneratedColumn {
            objective: 1.0,
            coeffs: vec![(0, 1.0)],
            tag: 0,
        });
        master.add_column(GeneratedColumn {
            objective: 1.0,
            coeffs: vec![(1, 1.0)],
            tag: 1,
        });
        let mut source = |duals: &[f64]| {
            // propose the combined pattern when its reduced cost is negative
            let col = GeneratedColumn {
                objective: 1.0,
                coeffs: vec![(0, 1.0), (1, 1.0)],
                tag: 2,
            };
            if col.reduced_cost(duals) < -1e-7 {
                vec![col]
            } else {
                Vec::new()
            }
        };
        let cg = ColumnGeneration::default();
        let result = cg
            .run(&mut master, &mut source)
            .expect("column generation failed");
        assert!(result.converged);
        assert!((result.solution.objective - 1.0).abs() < 1e-6);
        assert_eq!(master.num_columns(), 3);
    }

    /// Deactivating the binding capacity row must free the optimum through
    /// the relief column on a plain warm resume — no rebuild, no row
    /// renumbering — and a later compaction must physically remove the row
    /// while preserving the optimum.
    #[test]
    fn deactivating_a_binding_row_relaxes_the_master_in_place() {
        let mut master = MasterProblem::new(
            Sense::Maximize,
            vec![
                (Relation::Le, 1.0), // shared capacity (binding)
                (Relation::Le, 1.0),
                (Relation::Le, 1.0),
            ],
        );
        for i in 0..2 {
            master.add_column(GeneratedColumn {
                objective: 3.0 - i as f64,
                coeffs: vec![(0, 1.0), (i + 1, 1.0)],
                tag: i as u64,
            });
        }
        let options = SimplexOptions::default();
        let first = master.solve_warm(&options);
        assert_eq!(first.status, LpStatus::Optimal);
        assert!((first.objective - 3.0).abs() < 1e-7); // capacity binds

        master.deactivate_rows(&[0]);
        assert_eq!(master.rows_deactivated(), 1);
        assert_eq!(master.num_active_rows(), 2);
        assert!(!master.is_row_active(0));
        let second = master.solve_warm(&options);
        assert_eq!(second.status, LpStatus::Optimal);
        assert!(
            (second.objective - 5.0).abs() < 1e-7,
            "both columns fully served once the capacity row is relaxed, got {}",
            second.objective
        );
        // the relaxed row's dual is (numerically) zero at the new optimum
        assert!(second.duals[0].abs() < 1e-6);

        let report = master.compact();
        assert_eq!(master.compactions(), 1);
        assert_eq!(report.row_map, vec![None, Some(0), Some(1)]);
        assert_eq!(master.num_rows(), 2);
        assert_eq!(master.num_columns(), 2); // relief column removed
        let third = master.solve_warm(&options);
        assert_eq!(third.status, LpStatus::Optimal);
        assert!((third.objective - 5.0).abs() < 1e-7);
    }

    /// Fixing a column at zero retires it even when it was basic at a
    /// positive value, tombstones its tag so the native tag can be re-used,
    /// and compaction removes it physically.
    #[test]
    fn fixed_columns_are_retired_and_their_tags_freed() {
        let mut master = MasterProblem::new(
            Sense::Maximize,
            vec![(Relation::Le, 2.0), (Relation::Le, 1.0)],
        );
        master.add_column(GeneratedColumn {
            objective: 5.0,
            coeffs: vec![(0, 1.0), (1, 1.0)],
            tag: 7,
        });
        let options = SimplexOptions::default();
        let first = master.solve_warm(&options);
        assert!((first.objective - 5.0).abs() < 1e-7);

        master.fix_columns(&[0]);
        assert!(!master.contains_tag(7), "the native tag must be freed");
        // the freed tag can be re-used by a different column
        assert!(master.add_column(GeneratedColumn {
            objective: 2.0,
            coeffs: vec![(0, 1.0)],
            tag: 7,
        }));
        let second = master.solve_warm(&options);
        assert_eq!(second.status, LpStatus::Optimal);
        assert!(
            (second.objective - 4.0).abs() < 1e-7,
            "only the replacement column may carry value, got {}",
            second.objective
        );
        let report = master.compact();
        assert_eq!(report.column_map, vec![None, Some(0)]);
        assert_eq!(master.num_columns(), 1);
        let third = master.solve_warm(&options);
        assert!((third.objective - 4.0).abs() < 1e-7);
    }

    /// The full lifecycle — deactivate → re-solve → compact → re-solve →
    /// grow — must match `lp::dense` on the independently built survivor LP
    /// at every step, including duplicated (degenerate / rank-deficient)
    /// rows.
    #[test]
    fn lifecycle_matches_dense_on_the_survivor_lp() {
        use crate::dense;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(5200 + seed);
            let n_cols = 5 + (seed as usize % 4);
            let n_shared = 3 + (seed as usize % 2);
            // shared packing rows; row n_shared duplicates row 0 verbatim
            // (deactivating one of the pair leaves a degenerate twin, and
            // deactivating both leaves a rank-deficient history)
            let mut rows: Vec<(Relation, f64)> = (0..n_shared)
                .map(|_| (Relation::Le, rng.random_range(1.0..5.0)))
                .collect();
            rows.push(rows[0]);
            let bound_base = rows.len();
            for _ in 0..n_cols {
                rows.push((Relation::Le, rng.random_range(0.5..2.0)));
            }
            // column data: coefficients on shared rows (the duplicate row
            // copies row 0's coefficient) + its own bound row
            let objectives: Vec<f64> = (0..n_cols).map(|_| rng.random_range(1.0..8.0)).collect();
            let shared: Vec<Vec<f64>> = (0..n_cols)
                .map(|_| {
                    (0..n_shared)
                        .map(|_| {
                            if rng.random_range(0.0..1.0) < 0.7 {
                                rng.random_range(0.2..2.0)
                            } else {
                                0.0
                            }
                        })
                        .collect()
                })
                .collect();
            let column = |c: usize| -> GeneratedColumn {
                let mut coeffs: Vec<(usize, f64)> = Vec::new();
                for (r, &a) in shared[c].iter().enumerate() {
                    if a != 0.0 {
                        coeffs.push((r, a));
                    }
                }
                if shared[c][0] != 0.0 {
                    coeffs.push((n_shared, shared[c][0])); // the duplicate row
                }
                coeffs.push((bound_base + c, 1.0));
                GeneratedColumn {
                    objective: objectives[c],
                    coeffs,
                    tag: c as u64,
                }
            };

            // deactivate the duplicate pair's second copy plus one more
            // shared row; fix one column that the first solve likely serves
            let kill_rows = vec![n_shared, 1usize];
            let kill_cols = vec![0usize];

            // the survivor LP, built independently for the dense oracle
            let dense_survivor = |extra: Option<(f64, Vec<(usize, f64)>)>| -> LinearProgram {
                let mut lp = LinearProgram::new(Sense::Maximize);
                let mut var_of = vec![None; n_cols + 1];
                for c in 0..n_cols {
                    if !kill_cols.contains(&c) {
                        var_of[c] = Some(lp.add_variable(objectives[c]));
                    }
                }
                if let Some((obj, _)) = &extra {
                    var_of[n_cols] = Some(lp.add_variable(*obj));
                }
                let survives = |r: usize| !kill_rows.contains(&r);
                for (r, &(rel, rhs)) in rows.iter().enumerate() {
                    if !survives(r) {
                        continue;
                    }
                    let mut coeffs: Vec<(usize, f64)> = Vec::new();
                    for c in 0..n_cols {
                        let Some(v) = var_of[c] else { continue };
                        let a = if r < n_shared {
                            shared[c][r]
                        } else if r == n_shared {
                            shared[c][0]
                        } else if r == bound_base + c {
                            1.0
                        } else {
                            0.0
                        };
                        if a != 0.0 {
                            coeffs.push((v, a));
                        }
                    }
                    if let Some((_, extra_coeffs)) = &extra {
                        if let Some(v) = var_of[n_cols] {
                            for &(er, a) in extra_coeffs {
                                if er == r {
                                    coeffs.push((v, a));
                                }
                            }
                        }
                    }
                    lp.add_constraint(coeffs, rel, rhs);
                }
                lp
            };

            let options = &SimplexOptions::default();
            let label = format!("seed {seed}");
            let mut master = MasterProblem::new(Sense::Maximize, rows.clone());
            for c in 0..n_cols {
                master.add_column(column(c));
            }
            let first = master.solve_warm(options);
            assert_eq!(first.status, LpStatus::Optimal, "{label}");

            // deactivate + fix, then a warm primal resume
            master.fix_columns(&kill_cols);
            master.deactivate_rows(&kill_rows);
            let warm = master.solve_warm(options);
            assert_eq!(warm.status, LpStatus::Optimal, "{label}");
            let oracle = dense::solve(&dense_survivor(None), &SimplexOptions::default());
            assert_eq!(oracle.status, LpStatus::Optimal, "{label}");
            assert!(
                (warm.objective - oracle.objective).abs() < 1e-6,
                "{label}: warm-after-deactivation {} vs dense survivor {}",
                warm.objective,
                oracle.objective
            );

            // compact, re-solve, and compare again
            let report = master.compact();
            for &r in &kill_rows {
                assert!(report.row_map[r].is_none(), "{label}");
            }
            for &c in &kill_cols {
                assert!(report.column_map[c].is_none(), "{label}");
            }
            let compacted = master.solve_warm(options);
            assert_eq!(compacted.status, LpStatus::Optimal, "{label}");
            assert!(
                (compacted.objective - oracle.objective).abs() < 1e-6,
                "{label}: post-compaction {} vs dense survivor {}",
                compacted.objective,
                oracle.objective
            );

            // the master keeps working: grow a column on remapped rows
            let new_row = report.row_map[2].expect("row 2 survives");
            let extra_obj = 6.0;
            assert!(master.add_column(GeneratedColumn {
                objective: extra_obj,
                coeffs: vec![(new_row, 1.0)],
                tag: 4096,
            }));
            let grown = master.solve_warm(options);
            assert_eq!(grown.status, LpStatus::Optimal, "{label}");
            let oracle_grown = dense::solve(
                &dense_survivor(Some((extra_obj, vec![(2, 1.0)]))),
                &SimplexOptions::default(),
            );
            assert!(
                (grown.objective - oracle_grown.objective).abs() < 1e-6,
                "{label}: grown {} vs dense {}",
                grown.objective,
                oracle_grown.objective
            );
        }
    }

    /// Deactivation composes with the dual-simplex row-addition path: rows
    /// added after a deactivation are still absorbed warm, and the optimum
    /// matches a cold solve.
    #[test]
    fn deactivation_composes_with_row_additions() {
        let mut master = MasterProblem::new(
            Sense::Maximize,
            vec![
                (Relation::Le, 2.0),
                (Relation::Le, 1.0),
                (Relation::Le, 1.0),
            ],
        );
        for i in 0..2 {
            master.add_column(GeneratedColumn {
                objective: 2.0 + i as f64,
                coeffs: vec![(0, 1.0), (i + 1, 1.0)],
                tag: i as u64,
            });
        }
        let options = SimplexOptions::default();
        let first = master.solve_warm(&options);
        assert_eq!(first.status, LpStatus::Optimal);

        // relax the shared capacity, resume, then tighten with a new row
        master.deactivate_rows(&[0]);
        let relaxed = master.solve_warm(&options);
        assert!((relaxed.objective - 5.0).abs() < 1e-7);
        master.add_row(Relation::Le, 0.5, vec![(1, 1.0)]);
        let tightened = master.solve_warm(&options);
        assert_eq!(tightened.status, LpStatus::Optimal);
        let cold = master.solve(&options);
        assert!(
            (tightened.objective - cold.objective).abs() < 1e-9,
            "warm {} vs cold {}",
            tightened.objective,
            cold.objective
        );
        assert!((tightened.objective - 3.5).abs() < 1e-7);
    }

    /// Regression: a column with a negative row coefficient that sits in
    /// the recorded basis — even at value 0 — must poison the warm start
    /// when fixed, because later pivots of *other* columns can grow a
    /// basic variable the enterable mask no longer protects. A fixed
    /// column left basic this way silently relaxes its row and reports an
    /// objective above the true optimum.
    #[test]
    fn fixing_a_basic_nonharmless_column_scrubs_the_warm_start() {
        let rows = vec![(Relation::Le, 1.0), (Relation::Le, 1.0)];
        let mut master = MasterProblem::new(Sense::Maximize, rows);
        master.add_column(GeneratedColumn {
            objective: 1.0,
            coeffs: vec![(0, 1.0)],
            tag: 0,
        });
        master.add_column(GeneratedColumn {
            objective: 0.5,
            coeffs: vec![(0, -1.0), (1, 1.0)],
            tag: 1,
        });
        let first = master.solve_warm(&SimplexOptions::default());
        assert_eq!(first.status, LpStatus::Optimal);
        assert!((first.objective - 2.5).abs() < 1e-6, "{}", first.objective);
        assert!(master.warm_start().is_some());
        master.fix_columns(&[1]);
        assert!(
            master.warm_start().is_none(),
            "a basic non-harmless column must poison the recorded basis"
        );
        let refixed = master.solve_warm(&SimplexOptions::default());
        assert_eq!(refixed.status, LpStatus::Optimal);
        assert!(
            (refixed.objective - 1.0).abs() < 1e-6,
            "{}",
            refixed.objective
        );
        assert!(refixed.x[1].abs() < 1e-9, "fixed column active");
    }

    #[test]
    fn column_pool_evicts_the_least_useful_entry() {
        let col = |tag: u64| GeneratedColumn {
            objective: tag as f64,
            coeffs: vec![(0, 1.0)],
            tag,
        };
        let mut pool = ColumnPool::with_capacity(2);
        assert!(pool.offer(col(0), 0));
        assert!(!pool.offer(col(0), 0), "duplicate tags are rejected");
        assert!(pool.offer(col(1), 0));
        pool.note_hit(0);
        // Over capacity: the un-hit entry 1 is the least useful (fewest
        // hits), so it goes — not the just-inserted entry 2.
        assert!(pool.offer(col(2), 1));
        assert_eq!(pool.len(), 2);
        assert!(pool.contains_tag(0) && pool.contains_tag(2) && !pool.contains_tag(1));
        assert_eq!(pool.insertions(), 3);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.evictions(), 1);
    }

    #[test]
    fn column_pool_scan_stamps_reduced_costs_and_returns_improving_clones() {
        let mut pool = ColumnPool::unbounded();
        pool.offer(
            GeneratedColumn {
                objective: 5.0,
                coeffs: vec![(0, 1.0)],
                tag: 7,
            },
            0,
        );
        pool.offer(
            GeneratedColumn {
                objective: 1.0,
                coeffs: vec![(0, 1.0)],
                tag: 8,
            },
            0,
        );
        let improving = pool.scan(&[2.0], Sense::Maximize, 1e-7, |_| true);
        assert_eq!(improving.len(), 1);
        assert_eq!(improving[0].tag, 7);
        for e in pool.entries() {
            let expected = e.column.objective - 2.0;
            assert!((e.last_reduced_cost - expected).abs() < 1e-12);
        }
        // Ineligible entries are skipped without a reduced-cost stamp.
        let none = pool.scan(&[0.0], Sense::Maximize, 1e-7, |_| false);
        assert!(none.is_empty());
    }
}
