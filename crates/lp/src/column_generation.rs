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
//! The same loop ([`MasterProblem::generate_columns`]) drives the Lavi–Swamy
//! decomposition (Section 5), whose master is a covering LP and whose
//! pricing oracle is the approximation algorithm itself.
//!
//! **Row lifecycle.** Masters are no longer append-only, and
//! [`MasterProblem`] is the one owner of what a bidder *departure* leaves
//! behind: [`MasterProblem::deactivate_rows`] relaxes rows in place (each
//! gains a relief column; the recorded basis stays valid and primal
//! feasible, so the next [`MasterProblem::solve`] is a plain primal
//! resume), [`MasterProblem::add_row`] appends rows (the next solve repairs
//! the recorded basis with the dual simplex), and
//! [`MasterProblem::retire_columns`] zero-prices packing columns and
//! tombstones their tags. This is what turns departures into the cheap
//! re-pricing shape instead of a rebuild. The LP underneath stays a plain
//! LP: relief and retired columns are ordinary columns that may enter or
//! stay basic, which cannot move the optimum of a packing master (a column
//! with objective 0 and non-negative `≤`-row coefficients can always be
//! zeroed at the same value). Rows and columns never move during a
//! master's life; once [`MasterProblem::deadweight_fraction`] passes the
//! caller's limit, the caller drops the master and builds a fresh one from
//! the surviving columns.

use crate::problem::{LinearProgram, Relation, Sense};
use crate::simplex::{LpSolution, LpStatus, Revised, SolveStats};
use serde::{Deserialize, Serialize};

/// Column-tag address space. Native caller tags (in the auction:
/// `bidder << 32 | bundle`) must stay below [`DEAD_COLUMN_TAG_BASE`]; the
/// upper ranges are reserved for solver-internal columns:
///
/// | range | meaning |
/// |---|---|
/// | `[0, 1<<62)` | native columns (caller tags) |
/// | `[1<<62, 3<<62)` | retired columns — zero-priced, tag tombstoned so the original native tag can be re-used |
/// | `[3<<62, 2⁶⁴)` | row-relief columns of deactivated rows |
pub const DEAD_COLUMN_TAG_BASE: u64 = 1 << 62;

/// First tag of the row-relief range (see [`DEAD_COLUMN_TAG_BASE`]).
pub const ROW_RELIEF_TAG_BASE: u64 = 0xC000_0000_0000_0000;

/// Whether a master column tag is a native caller tag (as opposed to a
/// solver-internal retired or relief column). Extraction and column scans up
/// the stack must skip non-native tags.
pub fn is_native_tag(tag: u64) -> bool {
    tag < DEAD_COLUMN_TAG_BASE
}

/// Whether a master column tag marks a row-relief column of a deactivated
/// row.
pub fn is_relief_tag(tag: u64) -> bool {
    tag >= ROW_RELIEF_TAG_BASE
}

/// Reduced cost a generated column must beat to count as improving.
const REDUCED_COST_TOLERANCE: f64 = 1e-7;

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

    fn is_improving(&self, duals: &[f64], sense: Sense) -> bool {
        let rc = self.reduced_cost(duals);
        match sense {
            Sense::Maximize => rc > REDUCED_COST_TOLERANCE,
            Sense::Minimize => rc < -REDUCED_COST_TOLERANCE,
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
    /// The master LP, maintained incrementally: [`MasterProblem::add_column`]
    /// appends a variable and its coefficients instead of rebuilding the
    /// whole program on every solve. It is the master's only row-major
    /// copy of its rows and columns.
    pub(crate) lp: LinearProgram,
    /// Tag per column (column index == variable index of `lp`).
    tags: Vec<u64>,
    seen_tags: std::collections::HashSet<u64>,
    /// The simplex engine over `lp`, kept for the master's life: its basis
    /// stays valid as columns (nonbasic) and rows (a row prefix) are added.
    pub(crate) engine: Revised,
    /// Next tag for retired-column tombstones ([`DEAD_COLUMN_TAG_BASE`]).
    next_dead_tag: u64,
    /// Next tag for row-relief columns ([`ROW_RELIEF_TAG_BASE`]).
    next_relief_tag: u64,
}

impl MasterProblem {
    /// Creates a master problem with the given sense and rows
    /// `(relation, rhs)`; initially it has no columns.
    pub fn new(sense: Sense, rows: Vec<(Relation, f64)>) -> Self {
        let mut lp = LinearProgram::new(sense);
        for (rel, rhs) in rows {
            lp.add_constraint(Vec::new(), rel, rhs);
        }
        MasterProblem {
            engine: Revised::build(&lp),
            lp,
            tags: Vec::new(),
            seen_tags: std::collections::HashSet::new(),
            next_dead_tag: DEAD_COLUMN_TAG_BASE,
            next_relief_tag: ROW_RELIEF_TAG_BASE,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.lp.num_constraints()
    }

    /// Number of columns added so far.
    pub fn num_columns(&self) -> usize {
        self.tags.len()
    }

    /// Whether a column with this tag has already been added.
    pub fn contains_tag(&self, tag: u64) -> bool {
        self.seen_tags.contains(&tag)
    }

    /// The tag of each column, in column order (a column's index is its
    /// variable index in the solved LP).
    pub fn tags(&self) -> &[u64] {
        &self.tags
    }

    /// Adds a column unless one with the same tag has already been added.
    /// Returns `true` if the column was added.
    pub fn add_column(&mut self, column: GeneratedColumn) -> bool {
        if !self.seen_tags.insert(column.tag) {
            return false;
        }
        for &(r, _) in &column.coeffs {
            assert!(r < self.num_rows(), "column references unknown row {r}");
        }
        let var = self.lp.add_variable(column.objective);
        for &(r, a) in &column.coeffs {
            self.lp.add_coefficient(r, var, a);
        }
        self.engine
            .append_column(&self.lp, column.coeffs.iter().map(|e| e.0));
        self.tags.push(column.tag);
        true
    }

    /// Changes the objective coefficient of an existing column (e.g. a
    /// bidder re-bidding in a long-lived session: the column's bundle and
    /// constraint coefficients are unchanged, only its value moves).
    ///
    /// The recorded basis stays **fully valid**: the constraint matrix is
    /// untouched, so the basis is still primal feasible and its
    /// factorization still factors the same `B`. Only dual feasibility is
    /// lost, which is exactly what the next [`solve`](Self::solve) repairs
    /// with ordinary primal pivots — no refactorization, no phase 1.
    ///
    /// # Panics
    /// Panics if `index` is not an existing column.
    pub fn set_column_objective(&mut self, index: usize, objective: f64) {
        // column index == variable index by construction
        self.lp.set_objective_coefficient(index, objective);
        self.engine.refresh_column(&self.lp, index);
    }

    /// Appends a constraint row (e.g. a newly discovered conflict, or the
    /// rows of a bidder joining mid-auction). `coeffs` gives the new row's
    /// coefficients on **existing columns** by column index; columns added
    /// later receive their coefficient through
    /// [`GeneratedColumn::coeffs`] as usual.
    ///
    /// The new row touches existing columns, so the next
    /// [`solve`](Self::solve) rebuilds the engine's columns once. The
    /// recorded basis stays valid as a *row prefix*: that solve extends it
    /// with the new rows' logicals and repairs it with the engine's **dual
    /// simplex** loop ([`crate::simplex`]) instead of re-solving from
    /// scratch. Returns the new row's index.
    pub fn add_row(&mut self, relation: Relation, rhs: f64, coeffs: Vec<(usize, f64)>) -> usize {
        for &(c, _) in &coeffs {
            assert!(c < self.tags.len(), "row references unknown column {c}");
        }
        // column index == variable index by construction
        self.lp.add_constraint(coeffs, relation, rhs)
    }

    // -- row / column lifecycle --------------------------------------------

    /// Relaxes master rows to non-binding **in place** — the
    /// basis-preserving half of a departure. Each row gains a
    /// zero-objective relief column (`−1` on a `≤` row, `+1` on a `≥` row,
    /// tagged in the relief range): `a·x − t ≤ rhs` with `t ≥ 0` unbounded
    /// is no constraint at all. The column is appended like any other, so
    /// the `column index == variable index` invariant holds and the
    /// recorded basis stays valid *and primal feasible*; the next
    /// [`solve`](Self::solve) resumes with ordinary primal pivots, entering
    /// the relief columns of rows that were binding. At that optimum the
    /// row's dual is (numerically) zero, since the relief column's reduced
    /// cost is `±y_i`. Row indices never shift — deactivated rows keep
    /// their slot for the master's life.
    ///
    /// # Panics
    /// Panics if a row does not exist, is already deactivated, or is an
    /// equality row (it would need a *free* relief column, which the
    /// engine does not model).
    pub fn deactivate_rows(&mut self, rows: &[usize]) {
        for &row in rows {
            assert!(self.is_row_active(row), "row {row} is already deactivated");
            let sign = match self.lp.constraints()[row].relation {
                Relation::Le => -1.0,
                Relation::Ge => 1.0,
                Relation::Eq => panic!("equality rows cannot be deactivated in place"),
            };
            let var = self.lp.add_variable(0.0);
            debug_assert_eq!(var, self.tags.len(), "column/variable alignment");
            self.lp.add_coefficient(row, var, sign);
            self.engine.append_column(&self.lp, std::iter::once(row));
            let tag = self.next_relief_tag;
            self.next_relief_tag += 1;
            self.seen_tags.insert(tag);
            self.tags.push(tag);
        }
    }

    /// Retires master columns — the other half of a departure: the
    /// objective coefficient drops to 0 and the tag is **tombstoned** into
    /// the dead range, so the native tag can be re-used later (bidder
    /// indices shift after a departure; see
    /// [`set_column_tag`](Self::set_column_tag)). The column stays in the
    /// LP and may enter or stay basic like any other: zeroing a packing
    /// column keeps every point feasible at the same objective, so it can
    /// never change the optimum. The constraint matrix is untouched, so the
    /// recorded basis stays primal feasible and the next solve is a plain
    /// primal resume.
    ///
    /// # Panics
    /// Panics if a column does not exist or is not a packing column
    /// (every coefficient non-negative, on a `≤` row with non-negative
    /// rhs): a zero-priced column on a covering row could satisfy it for
    /// free, and a relief column would keep relaxing its row.
    pub fn retire_columns(&mut self, cols: &[usize]) {
        for &idx in cols {
            assert!(
                self.is_packing_column(idx),
                "column {idx} is not a packing column and cannot be retired"
            );
            self.set_column_objective(idx, 0.0);
            let tag = &mut self.tags[idx];
            if *tag >= DEAD_COLUMN_TAG_BASE {
                continue; // already tombstoned
            }
            self.seen_tags.remove(tag);
            *tag = self.next_dead_tag;
            self.next_dead_tag += 1;
            self.seen_tags.insert(*tag);
        }
    }

    /// Whether every coefficient of column `idx` is non-negative and sits
    /// on a `≤` row with non-negative rhs.
    pub(crate) fn is_packing_column(&self, idx: usize) -> bool {
        assert!(idx < self.tags.len(), "column {idx} does not exist");
        self.lp.constraints().iter().all(|c| {
            match c.coeffs.binary_search_by_key(&idx, |&(v, _)| v) {
                Err(_) => true,
                Ok(pos) => {
                    let a = c.coeffs[pos].1;
                    a == 0.0 || (c.relation == Relation::Le && a >= 0.0 && c.rhs >= 0.0)
                }
            }
        })
    }

    /// Re-tags an existing column (e.g. re-keying surviving bidders'
    /// columns after a departure shifted bidder indices down).
    ///
    /// # Panics
    /// Panics if the column does not exist or the new tag is already held
    /// by a different column.
    pub fn set_column_tag(&mut self, index: usize, tag: u64) {
        let old = self.tags[index];
        if old == tag {
            return;
        }
        assert!(
            !self.seen_tags.contains(&tag),
            "tag {tag} is already held by another column"
        );
        self.seen_tags.remove(&old);
        self.seen_tags.insert(tag);
        self.tags[index] = tag;
    }

    /// Whether master row `i` is still active (has no relief column).
    pub fn is_row_active(&self, i: usize) -> bool {
        let coeffs = &self.lp.constraints()[i].coeffs;
        coeffs.iter().all(|&(v, _)| !is_relief_tag(self.tags[v]))
    }

    /// Lifetime count of rows deactivated on this master (churn
    /// attribution): one relief column each.
    pub fn rows_deactivated(&self) -> usize {
        self.tags.iter().filter(|&&tag| is_relief_tag(tag)).count()
    }

    /// Fraction of the master occupied by deadweight: deactivated rows plus
    /// dead (retired / relief) columns over all rows + columns.
    pub fn deadweight_fraction(&self) -> f64 {
        let dead_rows = self.rows_deactivated();
        let dead_cols = self.tags.iter().filter(|&&tag| !is_native_tag(tag)).count();
        let total = self.num_rows() + self.num_columns();
        if total == 0 {
            0.0
        } else {
            (dead_rows + dead_cols) as f64 / total as f64
        }
    }

    /// Solves the current restricted master on its live engine: a resume
    /// of the previous solve, or cold on a fresh master (and after a
    /// factorization collapse). New columns enter nonbasic; new rows are
    /// absorbed by the dual row repair ([`SolveStats::dual_pivots`]).
    pub fn solve(&mut self) -> LpSolution {
        self.engine.solve(&self.lp)
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

impl MasterProblem {
    /// Runs column generation: repeatedly solve the restricted master
    /// (warm-started from the previous round's optimal basis), hand the
    /// duals to `source`, and add every returned column that has improving
    /// reduced cost. Terminates when no new improving column arrives or
    /// after `max_rounds` pricing rounds.
    ///
    /// # Errors
    /// Returns [`ColumnGenerationError::IterationLimit`] when a master
    /// solve exhausts its pivot budget: the attached partial solution is a
    /// feasible but non-optimal basis whose duals cannot be trusted for
    /// pricing.
    pub fn generate_columns(
        &mut self,
        source: &mut dyn ColumnSource,
        max_rounds: usize,
    ) -> Result<ColumnGenerationResult, ColumnGenerationError> {
        let sense = self.lp.sense();
        let mut rounds = 0usize;
        let mut pricing_rounds = 0usize;
        let mut columns_generated = 0usize;
        let mut stats = SolveStats::default();
        let mut per_round_iterations = Vec::new();
        let mut columns_per_round = Vec::new();
        // `Ok(converged)` breaks the loop; the result is assembled on the
        // single exit path below.
        let (solution, outcome) = loop {
            let solution = self.solve();
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
            if rounds > max_rounds {
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
            let mut added = 0usize;
            for col in source.generate(&solution.duals) {
                if col.is_improving(&solution.duals, sense) && self.add_column(col) {
                    added += 1;
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::Limits;

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

        let result = master
            .generate_columns(&mut source, 200)
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
        let result = master
            .generate_columns(&mut source, 200)
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
        let result = master
            .generate_columns(&mut source, 200)
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
            let mut warm_master = build_master();
            let mut warm_source = make_source(values.clone(), weights.clone());
            let warm = warm_master
                .generate_columns(&mut warm_source, 200)
                .expect("warm run failed");

            // cold: identical pricing loop but every master solve from scratch
            let mut cold_master = build_master();
            let cold_source = make_source(values.clone(), weights.clone());
            let cold_solution = loop {
                let solution = crate::simplex::solve(&cold_master.lp);
                assert_eq!(solution.status, LpStatus::Optimal);
                let candidates = cold_source(&solution.duals);
                let mut added = false;
                for col in candidates {
                    if col.reduced_cost(&solution.duals) > REDUCED_COST_TOLERANCE
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
        let first = master.solve();
        assert_eq!(first.status, LpStatus::Optimal);
        assert!((first.objective - 5.0).abs() < 1e-7); // both columns at 1
        assert_eq!(first.stats.dual_pivots, 0);

        // a joint cap that cuts the optimum off
        master.add_row(Relation::Le, 1.0, vec![(0, 1.0), (1, 1.0)]);
        let second = master.solve();
        assert_eq!(second.status, LpStatus::Optimal);
        assert!((second.objective - 3.0).abs() < 1e-7); // only column 0
        assert!(second.stats.dual_pivots > 0, "dual repair must have run");

        // a cold solve of the same grown master agrees
        let cold = crate::simplex::solve(&master.lp);
        assert!((cold.objective - second.objective).abs() < 1e-9);

        // and the master keeps working for further column growth
        master.add_column(GeneratedColumn {
            objective: 10.0,
            coeffs: vec![(0, 1.0)],
            tag: 99,
        });
        let third = master.solve();
        assert_eq!(third.status, LpStatus::Optimal);
        assert!(third.objective > 3.0);
        assert_eq!(third.stats.dual_pivots, 0);
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
        let first = master.solve();
        assert_eq!(first.status, LpStatus::Optimal);
        assert!((first.objective - 6.0).abs() < 1e-7);

        // the cheap column becomes the valuable one and vice versa
        master.set_column_objective(0, 0.5);
        master.set_column_objective(1, 7.0);
        let second = master.solve();
        assert_eq!(second.status, LpStatus::Optimal);
        assert!(
            (second.objective - 7.5).abs() < 1e-7,
            "{}",
            second.objective
        );
        let cold = crate::simplex::solve(&master.lp);
        assert!((cold.objective - second.objective).abs() < 1e-9);
        assert_eq!(master.lp.objective()[1], 7.0);
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
        master.engine.limits = Limits {
            max_iterations: Some(1),
            ..Limits::DEFAULT
        };
        let mut source = |_: &[f64]| Vec::<GeneratedColumn>::new();
        match master.generate_columns(&mut source, 200) {
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
        let result = master
            .generate_columns(&mut source, 200)
            .expect("column generation failed");
        assert!(result.converged);
        assert!((result.solution.objective - 1.0).abs() < 1e-6);
        assert_eq!(master.num_columns(), 3);
    }

    /// Deactivating the binding capacity row must free the optimum through
    /// the relief column on a plain warm resume — no rebuild, no row
    /// renumbering.
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
        let first = master.solve();
        assert_eq!(first.status, LpStatus::Optimal);
        assert!((first.objective - 3.0).abs() < 1e-7); // capacity binds

        master.deactivate_rows(&[0]);
        assert_eq!(master.rows_deactivated(), 1);
        assert!(!master.is_row_active(0));
        assert!(master.is_row_active(1) && master.is_row_active(2));
        let second = master.solve();
        assert_eq!(second.status, LpStatus::Optimal);
        assert!(
            (second.objective - 5.0).abs() < 1e-7,
            "both columns fully served once the capacity row is relaxed, got {}",
            second.objective
        );
        // the relaxed row's dual is (numerically) zero at the new optimum
        assert!(second.duals[0].abs() < 1e-6);
    }

    /// `tags()` must name each column at its current index through every
    /// lifecycle step, and the warm optimum must put each tag's
    /// hand-computed value at that index: four columns `x_c ≤ c + 1` under
    /// a shared capacity `Σ x_c ≤ 1`, objectives 4, −1, 2, 1 (column 1 is
    /// never served, so retiring it moves no other value).
    #[test]
    fn tags_follow_their_columns_through_the_lifecycle() {
        let mut rows = vec![(Relation::Le, 1.0)];
        rows.extend((0..4).map(|c| (Relation::Le, c as f64 + 1.0)));
        let mut master = MasterProblem::new(Sense::Maximize, rows);
        for (c, objective) in [4.0, -1.0, 2.0, 1.0].into_iter().enumerate() {
            master.add_column(GeneratedColumn {
                objective,
                coeffs: vec![(0, 1.0), (c + 1, 1.0)],
                tag: 10 + c as u64,
            });
        }
        let check = |master: &mut MasterProblem, step: &str, want: &[(u64, f64)]| {
            let tags: Vec<u64> = want.iter().map(|&(tag, _)| tag).collect();
            assert_eq!(master.tags(), &tags[..], "{step}: tags");
            let solution = master.solve();
            assert_eq!(solution.status, LpStatus::Optimal, "{step}");
            for (idx, &(tag, x)) in want.iter().enumerate() {
                assert!(
                    (solution.x[idx] - x).abs() < 1e-9,
                    "{step}: column {idx} (tag {tag:#x}) at {}, want {x}",
                    solution.x[idx]
                );
            }
        };
        let relief = ROW_RELIEF_TAG_BASE;
        let dead = DEAD_COLUMN_TAG_BASE;

        // the capacity binds: only the most valuable column is served
        check(
            &mut master,
            "added",
            &[(10, 1.0), (11, 0.0), (12, 0.0), (13, 0.0)],
        );
        // relaxing the capacity appends its relief column, which absorbs
        // the excess 1 + 3 + 4 − 1
        master.deactivate_rows(&[0]);
        check(
            &mut master,
            "deactivated",
            &[(10, 1.0), (11, 0.0), (12, 3.0), (13, 4.0), (relief, 7.0)],
        );
        // retiring column 1 tombstones its tag and frees 11
        master.retire_columns(&[1]);
        assert!(!master.contains_tag(11));
        check(
            &mut master,
            "retired",
            &[(10, 1.0), (dead, 0.0), (12, 3.0), (13, 4.0), (relief, 7.0)],
        );
        // re-keying column 3 onto the freed tag moves no value
        master.set_column_tag(3, 11);
        assert!(!master.contains_tag(13));
        check(
            &mut master,
            "retagged",
            &[(10, 1.0), (dead, 0.0), (12, 3.0), (11, 4.0), (relief, 7.0)],
        );
        // an appended row caps column 2 through the dual row repair
        master.add_row(Relation::Le, 2.5, vec![(2, 1.0)]);
        check(
            &mut master,
            "row added",
            &[(10, 1.0), (dead, 0.0), (12, 2.5), (11, 4.0), (relief, 6.5)],
        );
    }

    /// Retiring a column zero-prices it even when it was basic at a
    /// positive value, moves its tag out of the native range and counts it
    /// as deadweight; a second retirement of the same column is a no-op.
    #[test]
    fn retiring_clears_the_objective_and_marks_the_column() {
        let mut master = MasterProblem::new(
            Sense::Maximize,
            vec![(Relation::Le, 2.0), (Relation::Le, 1.0)],
        );
        master.add_column(GeneratedColumn {
            objective: 5.0,
            coeffs: vec![(0, 1.0), (1, 1.0)],
            tag: 7,
        });
        let first = master.solve();
        assert!((first.x[0] - 1.0).abs() < 1e-7, "the column starts basic");

        master.retire_columns(&[0]);
        assert_eq!(master.lp.objective()[0], 0.0);
        assert!(!is_native_tag(master.tags()[0]));
        assert!(!is_relief_tag(master.tags()[0]));
        assert_eq!(master.rows_deactivated(), 0);
        // one retired column of one, over two rows
        assert!((master.deadweight_fraction() - 1.0 / 3.0).abs() < 1e-12);

        let tombstone = master.tags()[0];
        master.retire_columns(&[0]);
        assert_eq!(master.tags()[0], tombstone, "retiring twice keeps the tag");
        assert!((master.deadweight_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    /// A retired column's native tag is freed for a different column, and
    /// only that replacement carries value afterwards.
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
        let first = master.solve();
        assert!((first.objective - 5.0).abs() < 1e-7);

        master.retire_columns(&[0]);
        assert!(!master.contains_tag(7), "the native tag must be freed");
        // the freed tag can be re-used by a different column
        assert!(master.add_column(GeneratedColumn {
            objective: 2.0,
            coeffs: vec![(0, 1.0)],
            tag: 7,
        }));
        let second = master.solve();
        assert_eq!(second.status, LpStatus::Optimal);
        assert!(
            (second.objective - 4.0).abs() < 1e-7,
            "only the replacement column may carry value, got {}",
            second.objective
        );
    }

    /// The full lifecycle — deactivate → re-solve → grow → re-solve — must
    /// match `lp::dense` on the independently built survivor LP
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
            // shared row; retire one column that the first solve likely
            // serves
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

            let label = format!("seed {seed}");
            let mut master = MasterProblem::new(Sense::Maximize, rows.clone());
            for c in 0..n_cols {
                master.add_column(column(c));
            }
            let first = master.solve();
            assert_eq!(first.status, LpStatus::Optimal, "{label}");

            // deactivate + retire, then a warm primal resume
            master.retire_columns(&kill_cols);
            master.deactivate_rows(&kill_rows);
            let warm = master.solve();
            assert_eq!(warm.status, LpStatus::Optimal, "{label}");
            let oracle = dense::solve(&dense_survivor(None));
            assert_eq!(oracle.status, LpStatus::Optimal, "{label}");
            assert!(
                (warm.objective - oracle.objective).abs() < 1e-6,
                "{label}: warm-after-deactivation {} vs dense survivor {}",
                warm.objective,
                oracle.objective
            );

            // the master keeps working: grow a column on a surviving row
            let extra_obj = 6.0;
            assert!(master.add_column(GeneratedColumn {
                objective: extra_obj,
                coeffs: vec![(2, 1.0)],
                tag: 4096,
            }));
            let grown = master.solve();
            assert_eq!(grown.status, LpStatus::Optimal, "{label}");
            let oracle_grown = dense::solve(&dense_survivor(Some((extra_obj, vec![(2, 1.0)]))));
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
        let first = master.solve();
        assert_eq!(first.status, LpStatus::Optimal);

        // relax the shared capacity, resume, then tighten with a new row
        master.deactivate_rows(&[0]);
        let relaxed = master.solve();
        assert!((relaxed.objective - 5.0).abs() < 1e-7);
        master.add_row(Relation::Le, 0.5, vec![(1, 1.0)]);
        let tightened = master.solve();
        assert_eq!(tightened.status, LpStatus::Optimal);
        let cold = crate::simplex::solve(&master.lp);
        assert!(
            (tightened.objective - cold.objective).abs() < 1e-9,
            "warm {} vs cold {}",
            tightened.objective,
            cold.objective
        );
        assert!((tightened.objective - 3.5).abs() < 1e-7);
    }

    /// A master cloned mid-life carries its live engine with it: the clone
    /// and the original, given the same mutations, run the same pivots to
    /// bit-equal primal and dual values.
    #[test]
    fn a_cloned_master_resumes_identically() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(4242);
        let rows: Vec<(Relation, f64)> = (0..8)
            .map(|_| (Relation::Le, rng.random_range(1.0..4.0)))
            .collect();
        let mut column = |tag: u64| GeneratedColumn {
            objective: rng.random_range(1.0..6.0),
            coeffs: (0..3)
                .map(|_| (rng.random_range(0..8), rng.random_range(0.2..2.0)))
                .collect(),
            tag,
        };
        let mut master = MasterProblem::new(Sense::Maximize, rows);
        for tag in 0..10 {
            master.add_column(column(tag));
        }
        master.solve();
        master.set_column_objective(3, 9.0);
        master.solve();

        let mut twin = master.clone();
        let mutations: Vec<GeneratedColumn> = (10..14).map(&mut column).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut pivots = Vec::new();
        for round in 0..3 {
            for m in [&mut master, &mut twin] {
                match round {
                    0 => {
                        for col in &mutations {
                            m.add_column(col.clone());
                        }
                    }
                    1 => {
                        m.deactivate_rows(&[2]);
                        m.retire_columns(&[0]);
                    }
                    _ => {
                        m.add_row(Relation::Le, 0.5, vec![(3, 1.0), (11, 1.0)]);
                    }
                }
            }
            let (a, b) = (master.solve(), twin.solve());
            assert_eq!(a.status, b.status, "round {round}");
            assert_eq!(a.stats, b.stats, "round {round}");
            assert_eq!(bits(&a.x), bits(&b.x), "round {round}");
            assert_eq!(bits(&a.duals), bits(&b.duals), "round {round}");
            pivots.push(a.stats.simplex_iterations + a.stats.dual_pivots);
        }
        assert!(
            pivots.iter().any(|&p| p > 0),
            "the resumes pivoted: {pivots:?}"
        );
    }

    /// Deactivation appends one relief column per row, `−1` on a `≤` row
    /// and `+1` on a `≥` row, at objective 0 and in the relief tag range;
    /// afterwards the rows bind nothing.
    #[test]
    fn deactivation_appends_relief_columns() {
        let mut master = MasterProblem::new(
            Sense::Maximize,
            vec![(Relation::Le, 2.0), (Relation::Ge, 1.0)],
        );
        master.add_column(GeneratedColumn {
            objective: 1.0,
            coeffs: vec![(0, 1.0), (1, 1.0)],
            tag: 0,
        });
        master.deactivate_rows(&[0, 1]);
        assert_eq!(master.rows_deactivated(), 2);
        assert!(!master.is_row_active(0) && !master.is_row_active(1));
        assert!(master.tags()[1..].iter().all(|&tag| is_relief_tag(tag)));
        assert_eq!(master.lp.objective()[1..], [0.0, 0.0]);
        let rows = master.lp.constraints();
        assert_eq!(rows[0].coeffs.last(), Some(&(1, -1.0)));
        assert_eq!(rows[1].coeffs.last(), Some(&(2, 1.0)));
        // big relief values absorb any activity
        assert!(master.lp.is_feasible(&[50.0, 48.0, 0.0], 1e-9));
        // two relief columns of three, plus two dead rows, over five
        assert!((master.deadweight_fraction() - 4.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equality rows cannot be deactivated")]
    fn equality_rows_cannot_be_deactivated() {
        let mut master = MasterProblem::new(Sense::Maximize, vec![(Relation::Eq, 1.0)]);
        master.deactivate_rows(&[0]);
    }

    /// A column with a negative row coefficient is not a packing column:
    /// zero-priced, it could still grow and relax its row, so retiring it
    /// is refused at the call.
    #[test]
    #[should_panic(expected = "not a packing column")]
    fn retiring_a_negative_coefficient_column_panics() {
        let rows = vec![(Relation::Le, 1.0), (Relation::Le, 1.0)];
        let mut master = MasterProblem::new(Sense::Maximize, rows);
        master.add_column(GeneratedColumn {
            objective: 0.5,
            coeffs: vec![(0, -1.0), (1, 1.0)],
            tag: 0,
        });
        master.retire_columns(&[0]);
    }

    /// A zero-priced column on a covering row would satisfy it for free,
    /// so retiring one is refused at the call.
    #[test]
    #[should_panic(expected = "not a packing column")]
    fn retiring_a_covering_column_panics() {
        let mut master = MasterProblem::new(Sense::Minimize, vec![(Relation::Ge, 1.0)]);
        master.add_column(GeneratedColumn {
            objective: 1.0,
            coeffs: vec![(0, 1.0)],
            tag: 0,
        });
        master.retire_columns(&[0]);
    }
}
