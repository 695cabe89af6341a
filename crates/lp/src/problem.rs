//! Sparse linear-program models: a sense, an objective and constraints over
//! non-negative variables, nothing else.
//!
//! Rows and variables only ever grow. What a departure leaves behind in an
//! auction master (relief columns on relaxed rows, zero-priced retired
//! columns) is plain LP data here; the tags that tell those columns apart
//! live in [`crate::column_generation::MasterProblem`].

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
}

impl LinearProgram {
    /// Creates an empty LP with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        LinearProgram {
            sense,
            objective: Vec::new(),
            constraints: Vec::new(),
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

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
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
}
