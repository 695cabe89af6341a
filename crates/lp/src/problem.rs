//! Sparse linear-program models with a managed **row lifecycle**.
//!
//! Rows used to be append-only; dynamic markets (bidders leaving as often
//! as they arrive) need the inverse primitive too. A row now carries a
//! [`RowState`]:
//!
//! ```text
//!            add_constraint                 deactivate_rows
//!   (none) ────────────────▶ Active ────────────────────────▶ Deactivated
//! ```
//!
//! * [`LinearProgram::deactivate_rows`] relaxes rows to non-binding **in
//!   place**, without touching any existing column or invalidating a
//!   recorded basis: each deactivated `≤`/`≥` row gains a zero-objective
//!   **relief variable** (`−1` for `≤`, `+1` for `≥`) whose growth absorbs
//!   the constraint (`a·x − t ≤ rhs` with `t ≥ 0` unbounded is no
//!   constraint at all). New columns enter nonbasic, so a warm basis stays
//!   valid and primal feasible and the next solve resumes with ordinary
//!   primal pivots — the basis-preserving departure path.
//! * [`LinearProgram::fix_variables_at_zero`] retires columns: the
//!   objective coefficient drops to zero and every engine (revised, dense,
//!   dual) bars the column from entering a basis. A fixed column arriving
//!   *basic* through a warm start keeps its value only when that is
//!   provably harmless (pure `≤`-row slack consumption — the auction
//!   masters' packing shape); any other shape makes the engines reject
//!   the warm start and cold-start, where fixed columns are exactly zero,
//!   so the reported optimum is the fixed-at-zero optimum in every case.
//!
//! Rows and variables never move: a deactivated row keeps its index and
//! its relief variable for the life of the LP. Callers that want the
//! deadweight gone build a fresh LP from the survivors.
//!
//! The factorization seam ([`crate::basis`]) never sees an invalid basis:
//! deactivation only ever *adds* nonbasic columns.

use serde::{Deserialize, Serialize};

/// Optimization direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Relation of a linear constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Relation {
    /// `a·x ≤ rhs`
    Le,
    /// `a·x ≥ rhs`
    Ge,
    /// `a·x = rhs`
    Eq,
}

/// A single linear constraint with sparse coefficients.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Constraint {
    /// Sparse coefficients as `(variable index, coefficient)` pairs.
    pub coeffs: Vec<(usize, f64)>,
    /// The relation between the left-hand side and `rhs`.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// Activation state of a constraint row (see the [module docs](self) for
/// the lifecycle diagram).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RowState {
    /// The row constrains the feasible region (the only state rows had
    /// before the lifecycle refactor).
    Active,
    /// The row has been relaxed to non-binding in place (its relief
    /// variable absorbs any activity); it keeps its index.
    Deactivated,
}

/// A linear program over non-negative variables.
///
/// All variables implicitly satisfy `x ≥ 0`; upper bounds (e.g. `x ≤ 1`)
/// are modeled as explicit constraints, matching how the paper writes its
/// relaxations (constraints (1c)/(4c)).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinearProgram {
    sense: Sense,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    /// Activation state per row (parallel to `constraints`).
    row_state: Vec<RowState>,
    /// Variables fixed at zero (barred from entering any basis).
    var_fixed: Vec<bool>,
    /// Relief variables created by
    /// [`deactivate_rows`](Self::deactivate_rows).
    var_relief: Vec<bool>,
}

impl LinearProgram {
    /// Creates an empty LP with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        LinearProgram {
            sense,
            objective: Vec::new(),
            constraints: Vec::new(),
            row_state: Vec::new(),
            var_fixed: Vec::new(),
            var_relief: Vec::new(),
        }
    }

    /// Optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a variable with the given objective coefficient and returns its
    /// index.
    pub fn add_variable(&mut self, objective_coefficient: f64) -> usize {
        self.objective.push(objective_coefficient);
        self.var_fixed.push(false);
        self.var_relief.push(false);
        self.objective.len() - 1
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.objective.len()
    }

    /// Objective coefficients indexed by variable.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Changes the objective coefficient of an existing variable.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    pub fn set_objective_coefficient(&mut self, var: usize, value: f64) {
        self.objective[var] = value;
    }

    /// Adds a constraint and returns its index.
    ///
    /// Coefficients referring to the same variable multiple times are summed.
    ///
    /// # Panics
    /// Panics if any referenced variable does not exist or any value is NaN.
    pub fn add_constraint(
        &mut self,
        coeffs: Vec<(usize, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> usize {
        assert!(!rhs.is_nan(), "constraint rhs must not be NaN");
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(coeffs.len());
        let mut sorted = coeffs;
        sorted.sort_by_key(|&(v, _)| v);
        for (v, c) in sorted {
            assert!(
                v < self.num_variables(),
                "constraint references unknown variable {v}"
            );
            assert!(!c.is_nan(), "constraint coefficient must not be NaN");
            match merged.last_mut() {
                Some(&mut (lv, ref mut lc)) if lv == v => *lc += c,
                _ => merged.push((v, c)),
            }
        }
        self.constraints.push(Constraint {
            coeffs: merged,
            relation,
            rhs,
        });
        self.row_state.push(RowState::Active);
        self.constraints.len() - 1
    }

    /// Adds `coeff` to variable `var`'s coefficient in constraint `row`,
    /// keeping the row's sparse coefficients sorted.
    ///
    /// This is the incremental path used by the column-generation master:
    /// appending a freshly created variable (the common case) is `O(1)`
    /// because its index is larger than everything already in the row.
    ///
    /// # Panics
    /// Panics if `row` or `var` does not exist, or `coeff` is NaN.
    pub fn add_coefficient(&mut self, row: usize, var: usize, coeff: f64) {
        assert!(
            var < self.num_variables(),
            "coefficient references unknown variable {var}"
        );
        assert!(!coeff.is_nan(), "constraint coefficient must not be NaN");
        let coeffs = &mut self.constraints[row].coeffs;
        match coeffs.binary_search_by_key(&var, |&(v, _)| v) {
            Ok(pos) => coeffs[pos].1 += coeff,
            Err(pos) => coeffs.insert(pos, (var, coeff)),
        }
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints (active **and** deactivated — deactivated rows
    /// keep their index).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    // -- row lifecycle ------------------------------------------------------

    /// Whether row `i` is [`RowState::Active`].
    pub fn is_row_active(&self, i: usize) -> bool {
        self.row_state[i] == RowState::Active
    }

    /// Number of rows still [`RowState::Active`].
    pub fn num_active_rows(&self) -> usize {
        self.row_state
            .iter()
            .filter(|&&s| s == RowState::Active)
            .count()
    }

    /// Whether variable `j` has been fixed at zero. Relief variables are
    /// **not** fixed (they must stay enterable to do their job); test them
    /// with [`is_relief_variable`](Self::is_relief_variable).
    pub fn is_variable_fixed(&self, j: usize) -> bool {
        self.var_fixed[j]
    }

    /// Whether variable `j` is a relief variable of a deactivated row.
    pub fn is_relief_variable(&self, j: usize) -> bool {
        self.var_relief[j]
    }

    /// Number of dead variables: fixed at zero, or relief variables of
    /// deactivated rows.
    pub fn num_dead_variables(&self) -> usize {
        self.var_fixed
            .iter()
            .zip(&self.var_relief)
            .filter(|&(&f, &r)| f || r)
            .count()
    }

    /// Relaxes the given rows to non-binding **in place**, keeping every
    /// recorded basis over this LP valid (see the [module docs](self)):
    /// each row gains a fresh zero-objective relief variable (`−1` on a `≤`
    /// row, `+1` on a `≥` row) and moves to [`RowState::Deactivated`]. The
    /// relief variables are returned in row order; they start nonbasic, so
    /// a subsequent warm-started solve resumes with primal pivots (the
    /// relief column enters exactly when the deactivated row was binding).
    ///
    /// At any later optimum the deactivated row's dual is (numerically)
    /// zero: the relief column's reduced cost is `±y_i`, so optimality
    /// forces `y_i ≈ 0` — pricing oracles need no special casing.
    ///
    /// # Panics
    /// Panics if a row does not exist, is already deactivated, or is an
    /// equality row (`=` rows would need a *free* relief variable, which
    /// the engines do not model; the stack only deactivates packing rows).
    pub fn deactivate_rows(&mut self, rows: &[usize]) -> Vec<usize> {
        let mut relief = Vec::with_capacity(rows.len());
        for &i in rows {
            assert!(i < self.constraints.len(), "row {i} does not exist");
            assert!(
                self.row_state[i] == RowState::Active,
                "row {i} is already deactivated"
            );
            let sign = match self.constraints[i].relation {
                Relation::Le => -1.0,
                Relation::Ge => 1.0,
                Relation::Eq => panic!("equality rows cannot be deactivated in place"),
            };
            let var = self.add_variable(0.0);
            self.add_coefficient(i, var, sign);
            self.var_relief[var] = true;
            self.row_state[i] = RowState::Deactivated;
            relief.push(var);
        }
        relief
    }

    /// Fixes the given variables at zero: their objective coefficient is
    /// cleared and every engine bars them from entering a basis. A fixed
    /// variable that arrives *basic* through a warm start may keep its
    /// value only when that is provably harmless
    /// ([`fixed_value_is_harmless`](Self::fixed_value_is_harmless): the
    /// column only consumes `≤`-row slack — the packing shape of the
    /// auction masters, where zeroing a zero-objective column never
    /// changes the optimum); otherwise the engines reject the warm start
    /// and cold-start, which keeps every fixed variable at exactly 0, so
    /// the reported optimum is the fixed-at-zero optimum in **all** cases
    /// (covering/minimization included).
    ///
    /// # Panics
    /// Panics if a variable does not exist.
    pub fn fix_variables_at_zero(&mut self, vars: &[usize]) {
        for &j in vars {
            assert!(j < self.num_variables(), "variable {j} does not exist");
            self.objective[j] = 0.0;
            self.var_fixed[j] = true;
        }
    }

    /// Whether a fixed variable retaining a positive basic value cannot
    /// change the fixed-at-zero optimum: every coefficient is non-negative
    /// on a `≤` row with non-negative right-hand side (so the lingering
    /// value only consumes slack — zeroing it stays feasible and, since
    /// the objective coefficient is 0, leaves the objective unchanged).
    /// Covering (`≥`/`=`) participation is *not* harmless: a zero-cost
    /// basic column could satisfy a covering row for free and report an
    /// objective below the true fixed-at-zero optimum.
    pub fn fixed_value_is_harmless(&self, j: usize) -> bool {
        self.constraints
            .iter()
            .all(|c| match c.coeffs.binary_search_by_key(&j, |&(v, _)| v) {
                Err(_) => true,
                Ok(pos) => {
                    let a = c.coeffs[pos].1;
                    a == 0.0 || (c.relation == Relation::Le && a >= 0.0 && c.rhs >= 0.0)
                }
            })
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective
            .iter()
            .zip(x.iter())
            .map(|(c, v)| c * v)
            .sum()
    }

    /// Builds the compressed-sparse-column view of the constraint matrix
    /// used by the revised simplex: one sparse column per variable.
    ///
    /// Constraints are stored row-wise for cheap model building; the solver
    /// prices and FTRANs over columns, so it needs the transpose. The
    /// conversion is a single counting pass plus a single fill pass,
    /// `O(nnz)`.
    pub fn to_csc(&self) -> CscMatrix {
        let n = self.num_variables();
        let mut col_len = vec![0usize; n];
        for c in &self.constraints {
            for &(v, _) in &c.coeffs {
                col_len[v] += 1;
            }
        }
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        col_ptr.push(0);
        for &len in &col_len {
            acc += len;
            col_ptr.push(acc);
        }
        let mut row_idx = vec![0usize; acc];
        let mut values = vec![0.0f64; acc];
        let mut cursor: Vec<usize> = col_ptr[..n].to_vec();
        for (row, c) in self.constraints.iter().enumerate() {
            for &(v, a) in &c.coeffs {
                let p = cursor[v];
                row_idx[p] = row;
                values[p] = a;
                cursor[v] += 1;
            }
        }
        CscMatrix {
            num_rows: self.constraints.len(),
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Checks primal feasibility of `x` (non-negativity plus every
    /// constraint) within tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_variables() {
            return false;
        }
        if x.iter().any(|&v| v < -tol || v.is_nan()) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.coeffs.iter().map(|&(v, a)| a * x[v]).sum();
            match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

/// Compressed-sparse-column matrix: the constraint matrix transposed into
/// per-variable columns, consumed by the revised simplex.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CscMatrix {
    /// Number of rows (constraints).
    pub num_rows: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes column `j`'s entries.
    pub col_ptr: Vec<usize>,
    /// Row index of each stored entry.
    pub row_idx: Vec<usize>,
    /// Value of each stored entry.
    pub values: Vec<f64>,
}

impl CscMatrix {
    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The sparse column `j` as parallel `(rows, values)` slices.
    pub fn column(&self, j: usize) -> (&[usize], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csc_matches_row_storage() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(2.0);
        let z = lp.add_variable(0.0);
        lp.add_constraint(vec![(x, 1.0), (z, 3.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(y, -2.0)], Relation::Ge, -1.0);
        lp.add_constraint(vec![(x, 5.0), (y, 6.0), (z, 7.0)], Relation::Eq, 8.0);
        let csc = lp.to_csc();
        assert_eq!(csc.num_rows, 3);
        assert_eq!(csc.num_cols(), 3);
        assert_eq!(csc.nnz(), 6);
        let (rows_x, vals_x) = csc.column(x);
        assert_eq!(rows_x, &[0, 2]);
        assert_eq!(vals_x, &[1.0, 5.0]);
        let (rows_y, vals_y) = csc.column(y);
        assert_eq!(rows_y, &[1, 2]);
        assert_eq!(vals_y, &[-2.0, 6.0]);
        let (rows_z, vals_z) = csc.column(z);
        assert_eq!(rows_z, &[0, 2]);
        assert_eq!(vals_z, &[3.0, 7.0]);
    }

    #[test]
    fn build_small_lp() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(3.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        assert_eq!(lp.num_variables(), 2);
        assert_eq!(lp.num_constraints(), 2);
        assert_eq!(lp.objective_value(&[2.0, 2.0]), 10.0);
        assert!(lp.is_feasible(&[2.0, 2.0], 1e-9));
        assert!(!lp.is_feasible(&[3.0, 2.0], 1e-9));
        assert!(!lp.is_feasible(&[-0.1, 0.0], 1e-9));
    }

    #[test]
    fn duplicate_coefficients_are_merged() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        let c = lp.add_constraint(vec![(x, 1.0), (x, 2.0)], Relation::Le, 6.0);
        assert_eq!(lp.constraints()[c].coeffs, vec![(x, 3.0)]);
        assert!(lp.is_feasible(&[2.0], 1e-9));
        assert!(!lp.is_feasible(&[2.1], 1e-9));
    }

    #[test]
    fn equality_and_ge_feasibility() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Ge, 1.0);
        assert!(lp.is_feasible(&[2.0, 1.0], 1e-9));
        assert!(!lp.is_feasible(&[2.0, 0.5], 1e-9));
        assert!(!lp.is_feasible(&[3.0, 1.0], 1e-9));
    }

    #[test]
    #[should_panic]
    fn unknown_variable_rejected() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        lp.add_constraint(vec![(0, 1.0)], Relation::Le, 1.0);
    }

    #[test]
    fn deactivation_adds_relief_variables_and_flips_state() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        let r0 = lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let r1 = lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 1.0);
        let relief = lp.deactivate_rows(&[r0, r1]);
        assert_eq!(relief.len(), 2);
        assert!(!lp.is_row_active(r0) && !lp.is_row_active(r1));
        assert_eq!(lp.num_active_rows(), 0);
        assert!(lp.is_relief_variable(relief[0]));
        assert_eq!(lp.objective()[relief[0]], 0.0);
        // relief signs: −1 on the ≤ row, +1 on the ≥ row
        assert_eq!(lp.constraints()[r0].coeffs.last(), Some(&(relief[0], -1.0)));
        assert_eq!(lp.constraints()[r1].coeffs.last(), Some(&(relief[1], 1.0)));
        // the rows are now satisfiable at any x: big relief values absorb it
        assert!(lp.is_feasible(&[50.0, 48.0, 0.0], 1e-9));
    }

    #[test]
    #[should_panic]
    fn equality_rows_cannot_be_deactivated() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(1.0);
        let r = lp.add_constraint(vec![(x, 1.0)], Relation::Eq, 1.0);
        lp.deactivate_rows(&[r]);
    }

    #[test]
    fn fixed_value_harmlessness_distinguishes_packing_from_covering() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 1.0);
        lp.fix_variables_at_zero(&[x]);
        // x participates in a covering row: a lingering basic value would
        // satisfy the row for free — not harmless
        assert!(!lp.fixed_value_is_harmless(x));

        let mut packing = LinearProgram::new(Sense::Maximize);
        let p = packing.add_variable(1.0);
        packing.add_constraint(vec![(p, 1.0)], Relation::Le, 2.0);
        packing.fix_variables_at_zero(&[p]);
        assert!(packing.fixed_value_is_harmless(p));
    }

    #[test]
    fn fixing_clears_the_objective_and_marks_the_variable() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(3.0);
        let y = lp.add_variable(2.0);
        lp.fix_variables_at_zero(&[x]);
        assert!(lp.is_variable_fixed(x));
        assert!(!lp.is_variable_fixed(y));
        assert_eq!(lp.objective()[x], 0.0);
        assert_eq!(lp.num_dead_variables(), 1);
    }
}
