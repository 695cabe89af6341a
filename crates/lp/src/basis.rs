//! The basis factorization of the revised simplex.
//!
//! The revised method needs four linear-algebra primitives per iteration —
//! FTRAN (`w = B⁻¹ a`), BTRAN (`y = cᵦ B⁻¹`), a single row of `B⁻¹` (the
//! steepest-edge pivot row, and the row that drives artificials out), and
//! a rank-one pivot update — plus a periodic rebuild from the basis
//! columns. [`ForrestTomlinLu`] provides all of them: a
//! **Markowitz-ordered** LU (choose the pivot minimizing the fill bound
//! `(r−1)(c−1)` among entries passing the relative threshold
//! `|B_pq| ≥ 0.1 · max_p |B_pq|`, with explicit row *and* column
//! permutations) combined with genuine **Forrest–Tomlin updates of `U`**: a
//! basis change replaces one column of `U` by the spike `s = U·w` (free
//! from the pivot FTRAN image `w = B⁻¹ a_e`), moves that column last in the
//! triangular order, and eliminates the displaced row of `U` with a short
//! **row eta** of multipliers. `U` itself stays triangular with bounded
//! fill (only the spike column is added), so FTRAN/BTRAN stay
//! `O(nnz(L) + nnz(U) + nnz(row etas))`, and the update cost tracks the
//! *row* structure of `U`, not the full FTRAN image. Unstable replacements
//! (tiny new diagonal relative to the spike) and a full row-eta file are
//! declined, which makes the simplex core refactorize.
//!
//! FTRAN of a sparse right-hand side and the pivot-row BTRAN run
//! hyper-sparse (Gilbert–Peierls) into a [`SparseVector`] and fall back to
//! the dense kernels by themselves once the reach passes a density cutoff;
//! [`SparsityStats`] counts both outcomes. The property tests check the
//! factorization by its residuals and the simplex built on it against the
//! dense oracle ([`crate::dense`]).
//!
//! ## The Forrest–Tomlin update in formulas
//!
//! Write the factorized basis as `B = L_eff · U` (all prior row etas folded
//! into `L_eff⁻¹ = Rₖ ⋯ R₁ L⁻¹`). Replacing the basis column with stable
//! id `t` by the entering column `a` gives `B' = L_eff (U + (s − U e_t) e_tᵀ)`
//! with spike `s = L_eff⁻¹ a = U w`, where `w = B⁻¹ a` is the FTRAN image
//! the simplex pivot already computed. Moving column/row `t` to the last
//! position leaves `U` upper triangular except for the displaced row `t`,
//! whose entries are eliminated left to right by multipliers
//! `μ_j = rowval_j / U_jj`; those multipliers form the new row eta
//! `R = I − e_t μᵀ`, the new diagonal is `d = s_t − Σ_j μ_j s_j`, and the
//! spike entries become column `t` of the updated `U`.

/// A sparse column of the basis matrix: `(row index, value)` pairs.
pub type SparseColumn = Vec<(usize, f64)>;

/// A solve result that is **indexed when sparse, plain when dense**.
///
/// The dense `values` array (length `m`) is always authoritative: `value(i)`
/// and [`values`](Self::values) are valid in both representations. When
/// [`is_sparse`](Self::is_sparse) is `true`, `pattern` lists every index
/// that *may* be non-zero (a superset — entries can cancel to exact zero),
/// so consumers iterate [`for_each_nonzero`](Self::for_each_nonzero) in
/// `O(nnz)` instead of `O(m)`. When it is `false` the result came from a
/// dense kernel (fallback above the density cutoff) and iteration scans the
/// full array.
#[derive(Clone, Debug, Default)]
pub struct SparseVector {
    values: Vec<f64>,
    pattern: Vec<usize>,
    sparse: bool,
}

impl SparseVector {
    /// An all-zero sparse vector of length `m`.
    pub fn zeros(m: usize) -> Self {
        SparseVector {
            values: vec![0.0; m],
            pattern: Vec::new(),
            sparse: true,
        }
    }

    /// Length of the dense view.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector has length zero.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the indexed pattern is valid (`false` means the result was
    /// produced by a dense kernel and only the dense view is meaningful).
    pub fn is_sparse(&self) -> bool {
        self.sparse
    }

    /// Upper bound on the number of non-zeros: the pattern length when
    /// sparse, `m` when dense.
    pub fn nnz_upper_bound(&self) -> usize {
        if self.sparse {
            self.pattern.len()
        } else {
            self.values.len()
        }
    }

    /// The dense view (always valid, length `m`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Entry `i` of the dense view.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// The index pattern (meaningful only when [`is_sparse`](Self::is_sparse)).
    pub fn pattern(&self) -> &[usize] {
        &self.pattern
    }

    /// Visits every non-zero entry as `(index, value)` — over the pattern
    /// when sparse, over the full array when dense.
    #[inline]
    pub fn for_each_nonzero(&self, mut f: impl FnMut(usize, f64)) {
        if self.sparse {
            for &i in &self.pattern {
                let v = self.values[i];
                if v != 0.0 {
                    f(i, v);
                }
            }
        } else {
            for (i, &v) in self.values.iter().enumerate() {
                if v != 0.0 {
                    f(i, v);
                }
            }
        }
    }

    /// Resets to an all-zero **sparse** vector of length `m`, clearing the
    /// previous contents in `O(previous nnz)` when possible.
    pub fn begin(&mut self, m: usize) {
        if self.values.len() == m {
            if self.sparse {
                for &i in &self.pattern {
                    self.values[i] = 0.0;
                }
            } else {
                self.values.fill(0.0);
            }
        } else {
            self.values.clear();
            self.values.resize(m, 0.0);
        }
        self.pattern.clear();
        self.sparse = true;
    }

    /// Resets to an all-zero **dense** vector of length `m` (for results
    /// produced by dense kernels).
    pub fn begin_dense(&mut self, m: usize) {
        self.begin(m);
        self.sparse = false;
    }
}

/// Cumulative hyper-sparse solve counters of one factorization (monotone
/// over its lifetime; take deltas across a solve to attribute per-solve
/// work). Only the sparse-capable entry points
/// ([`ForrestTomlinLu::ftran_sparse_into`] /
/// [`ForrestTomlinLu::btran_unit_into`]) are tracked: `*_sparse +
/// *_dense` is the number of tracked solves, and the density sums cover
/// both (a dense fallback counts `m / m`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SparsityStats {
    /// FTRAN solves answered by the hyper-sparse (Gilbert–Peierls) path.
    pub ftran_sparse: u64,
    /// FTRAN solves that fell back to the dense kernel (reach exceeded the
    /// density cutoff).
    pub ftran_dense: u64,
    /// Pivot-row BTRANs answered by the hyper-sparse path.
    pub btran_sparse: u64,
    /// Pivot-row BTRANs that fell back to the dense kernel.
    pub btran_dense: u64,
    /// Summed result pattern sizes over all tracked solves.
    pub result_nnz: u64,
    /// Summed result lengths (`m`) over all tracked solves.
    pub result_len: u64,
}

impl SparsityStats {
    /// Field-wise difference against an earlier snapshot of the same
    /// factorization (saturating, so a factorization swap never underflows).
    pub fn delta_since(self, baseline: SparsityStats) -> SparsityStats {
        SparsityStats {
            ftran_sparse: self.ftran_sparse.saturating_sub(baseline.ftran_sparse),
            ftran_dense: self.ftran_dense.saturating_sub(baseline.ftran_dense),
            btran_sparse: self.btran_sparse.saturating_sub(baseline.btran_sparse),
            btran_dense: self.btran_dense.saturating_sub(baseline.btran_dense),
            result_nnz: self.result_nnz.saturating_sub(baseline.result_nnz),
            result_len: self.result_len.saturating_sub(baseline.result_len),
        }
    }

    /// Average result density (`nnz / m`) over the tracked solves, `1.0`
    /// when nothing was tracked.
    pub fn avg_density(self) -> f64 {
        if self.result_len > 0 {
            self.result_nnz as f64 / self.result_len as f64
        } else {
            1.0
        }
    }
}

/// Interior-mutability counters behind [`SparsityStats`]: the solve methods
/// take `&self`, so the factorizations count through `Cell`s.
#[derive(Clone, Debug, Default)]
struct SparsityCounters {
    ftran_sparse: std::cell::Cell<u64>,
    ftran_dense: std::cell::Cell<u64>,
    btran_sparse: std::cell::Cell<u64>,
    btran_dense: std::cell::Cell<u64>,
    result_nnz: std::cell::Cell<u64>,
    result_len: std::cell::Cell<u64>,
}

impl SparsityCounters {
    fn record_ftran(&self, sparse: bool, nnz: usize, m: usize) {
        if sparse {
            self.ftran_sparse.set(self.ftran_sparse.get() + 1);
        } else {
            self.ftran_dense.set(self.ftran_dense.get() + 1);
        }
        self.result_nnz.set(self.result_nnz.get() + nnz as u64);
        self.result_len.set(self.result_len.get() + m as u64);
    }

    fn record_btran(&self, sparse: bool, nnz: usize, m: usize) {
        if sparse {
            self.btran_sparse.set(self.btran_sparse.get() + 1);
        } else {
            self.btran_dense.set(self.btran_dense.get() + 1);
        }
        self.result_nnz.set(self.result_nnz.get() + nnz as u64);
        self.result_len.set(self.result_len.get() + m as u64);
    }

    fn snapshot(&self) -> SparsityStats {
        SparsityStats {
            ftran_sparse: self.ftran_sparse.get(),
            ftran_dense: self.ftran_dense.get(),
            btran_sparse: self.btran_sparse.get(),
            btran_dense: self.btran_dense.get(),
            result_nnz: self.result_nnz.get(),
            result_len: self.result_len.get(),
        }
    }
}

/// Gilbert–Peierls symbolic phase: an iterative DFS over the solve graph
/// from the right-hand side's support. `child(node, k)` returns the `k`-th
/// out-neighbor of `node` (or `None` past the end). On success, `post`
/// holds the reached nodes in **postorder** — iterate it in reverse for a
/// topological order of the numeric updates — and `visited` is marked for
/// every reached node (callers clear the marks via `post` when done).
/// Returns `false` (with `post` emptied and all marks unwound) as soon as
/// more than `cap` nodes are reached: the result would be too dense for
/// the sparse kernel to pay, and the caller falls back to the dense one.
fn symbolic_reach(
    support: impl IntoIterator<Item = usize>,
    child: impl Fn(usize, usize) -> Option<usize>,
    visited: &mut [bool],
    stack: &mut Vec<(usize, usize)>,
    post: &mut Vec<usize>,
    cap: usize,
) -> bool {
    post.clear();
    stack.clear();
    for s0 in support {
        if visited[s0] {
            continue;
        }
        if post.len() + 1 > cap {
            for &(n, _) in stack.iter() {
                visited[n] = false;
            }
            for &n in post.iter() {
                visited[n] = false;
            }
            post.clear();
            stack.clear();
            return false;
        }
        visited[s0] = true;
        stack.push((s0, 0));
        while let Some(&(node, cursor)) = stack.last() {
            stack.last_mut().expect("stack is non-empty").1 += 1;
            match child(node, cursor) {
                Some(c) if !visited[c] => {
                    if post.len() + stack.len() + 1 > cap {
                        for &(n, _) in stack.iter() {
                            visited[n] = false;
                        }
                        for &n in post.iter() {
                            visited[n] = false;
                        }
                        post.clear();
                        stack.clear();
                        return false;
                    }
                    visited[c] = true;
                    stack.push((c, 0));
                }
                Some(_) => {}
                None => {
                    stack.pop();
                    post.push(node);
                }
            }
        }
    }
    true
}

/// One Forrest–Tomlin row eta: the multipliers `μ` that eliminated the
/// displaced row `t` of `U` after its column moved to the last triangular
/// position (`R = I − e_t μᵀ`, entries in column-uid space). FTRAN applies
/// `x_t ← x_t − Σ_j μ_j x_j`; BTRAN applies `x_j ← x_j − μ_j x_t`.
#[derive(Clone, Debug)]
struct RowEta {
    t: usize,
    entries: Vec<(usize, f64)>,
}

/// Markowitz-ordered sparse LU factors with Forrest–Tomlin `U`-updates.
///
/// The factorization pivots on `(row, column)` pairs chosen to minimize the
/// Markowitz fill bound `(r−1)(c−1)` among entries passing a relative
/// stability threshold, storing the row permutation in `prow` and the
/// column permutation in `slot_of_uid` (`uid` = factorization step, the
/// *stable* identity of a `U` column across updates). Updates follow the
/// classic Forrest–Tomlin scheme (see the module docs): the spike column
/// `s = U·w` replaces column `t`, the displaced row is eliminated by a
/// short row eta, and `U` stays triangular in the explicit `order` / `pos`
/// column ordering.
///
/// All vectors indexed "by basis position" refer to the slot `r` of the
/// simplex basis (`basis[r]` is the member whose column occupies position
/// `r`); vectors indexed "by row" refer to original constraint rows. The
/// two spaces have the same length `m` but are permuted relative to each
/// other inside the LU representation.
#[derive(Clone, Debug, Default)]
pub struct ForrestTomlinLu {
    m: usize,
    /// Columns of unit-lower-triangular `L` per step: `(original row, mult)`
    /// for rows pivoted *after* that step.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// `prow[k]` = original row pivoted at step `k`.
    prow: Vec<usize>,
    /// Diagonal of `U` per column uid.
    diag: Vec<f64>,
    /// Off-diagonal entries of `U`, column-wise: `ucols[j]` = `(row uid, value)`.
    ucols: Vec<Vec<(usize, f64)>>,
    /// The same entries row-wise: `urows[i]` = `(column uid, value)`.
    urows: Vec<Vec<(usize, f64)>>,
    /// Column uids in triangular order (entry `(i, j)` of `U` requires
    /// `pos[i] ≤ pos[j]`).
    order: Vec<usize>,
    /// `pos[uid]` = position of that column in `order`.
    pos: Vec<usize>,
    /// Basis slot occupied by each `U` column uid (the column permutation).
    slot_of_uid: Vec<usize>,
    /// Inverse of `slot_of_uid`.
    uid_of_slot: Vec<usize>,
    /// Forrest–Tomlin row etas, in creation order.
    etas: Vec<RowEta>,
    /// Total entries across the row etas (bounds FTRAN/BTRAN cost).
    eta_entries: usize,
    /// Reusable solve workspaces (FTRAN rhs / BTRAN cost / permuted
    /// solution / unit-cost vector): the solve methods take `&self` and run
    /// once per pivot, so these avoid a heap allocation per call.
    /// `scratch_unit` is separate because `btran_unit` calls `btran`, which
    /// borrows the other two.
    scratch_x: std::cell::RefCell<Vec<f64>>,
    scratch_c: std::cell::RefCell<Vec<f64>>,
    scratch_s: std::cell::RefCell<Vec<f64>>,
    scratch_unit: std::cell::RefCell<Vec<f64>>,
    /// `step_of_row[r]` = step (= uid) that pivoted original row `r`
    /// (inverse of `prow`); drives the hyper-sparse L-phase reachability.
    step_of_row: Vec<usize>,
    /// Row-wise mirror of `l_cols`: `l_rows[r]` = `(step k, value)` for every
    /// entry of row `r` in `L` (the transposed-solve adjacency for BTRAN).
    l_rows: Vec<Vec<(usize, f64)>>,
    /// Hyper-sparse solve workspaces: two value scratches with an all-zero
    /// invariant between calls, DFS marks/stack, per-phase reach lists, and
    /// a support buffer.
    sp_x: std::cell::RefCell<Vec<f64>>,
    sp_z: std::cell::RefCell<Vec<f64>>,
    sp_mark: std::cell::RefCell<Vec<bool>>,
    sp_stack: std::cell::RefCell<Vec<(usize, usize)>>,
    sp_reach_a: std::cell::RefCell<Vec<usize>>,
    sp_reach_b: std::cell::RefCell<Vec<usize>>,
    sp_support: std::cell::RefCell<Vec<usize>>,
    /// Hyper-sparse solve counters (monotone over the lifetime).
    counters: SparsityCounters,
}

impl ForrestTomlinLu {
    /// Tiny pivots below this are treated as singular.
    const SINGULAR_TOL: f64 = 1e-12;
    /// New diagonals below this refuse the FT update (forces refactor).
    const UPDATE_TOL: f64 = 1e-9;
    /// Relative stability floor: the new diagonal must not be smaller than
    /// this fraction of the spike's largest entry.
    const UPDATE_REL_TOL: f64 = 1e-9;
    /// Entries below this are dropped from stored factors.
    const DROP_TOL: f64 = 1e-12;
    /// Markowitz relative pivot threshold: a pivot must reach this fraction
    /// of the largest entry in its column.
    const PIVOT_THRESHOLD: f64 = 0.1;
    /// How many minimum-count candidate columns one pivot search examines
    /// before settling.
    const SEARCH_COLS: usize = 8;

    /// Row-eta capacity: once the file holds more than `4m + 64` entries the
    /// update declines and the core refactorizes.
    fn eta_capacity(&self) -> usize {
        4 * self.m + 64
    }

    /// Forward elimination `L⁻¹` (row permutation folded in) on the dense
    /// scratch `x` indexed by original row; afterwards `x[prow[k]]` holds the
    /// step-space value `z_k`.
    fn forward(&self, x: &mut [f64]) {
        for k in 0..self.m {
            let z = x[self.prow[k]];
            if z != 0.0 {
                for &(r, lv) in &self.l_cols[k] {
                    x[r] -= z * lv;
                }
            }
        }
    }

    /// Applies the row etas (FTRAN direction, creation order) to the
    /// uid-indexed vector `z`.
    fn apply_etas_ftran(&self, z: &mut [f64]) {
        for eta in &self.etas {
            let mut acc = z[eta.t];
            for &(j, mu) in &eta.entries {
                acc -= mu * z[j];
            }
            z[eta.t] = acc;
        }
    }

    /// Applies the transposed row etas (BTRAN direction, reverse order) to
    /// the uid-indexed vector `s`.
    fn apply_etas_btran(&self, s: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let st = s[eta.t];
            if st != 0.0 {
                for &(j, mu) in &eta.entries {
                    s[j] -= mu * st;
                }
            }
        }
    }

    /// Backward substitution `U ŵ = z` over the triangular order; writes the
    /// solution into `w` indexed by basis slot.
    fn backward(&self, z: &mut [f64], w: &mut [f64]) {
        for v in w.iter_mut() {
            *v = 0.0;
        }
        for p in (0..self.m).rev() {
            let j = self.order[p];
            let v = z[j] / self.diag[j];
            w[self.slot_of_uid[j]] = v;
            if v != 0.0 {
                for &(i, uv) in &self.ucols[j] {
                    z[i] -= uv * v;
                }
            }
        }
    }

    fn lu_solve_into(&self, x: &mut [f64], w: &mut [f64]) {
        if self.m == 0 {
            // empty state (failed refactor): solves write zeros
            w.fill(0.0);
            return;
        }
        self.forward(x);
        // move to uid (= step) space: z_k lives at x[prow[k]]
        let mut z = self.scratch_s.borrow_mut();
        z.clear();
        z.extend(self.prow.iter().map(|&r| x[r]));
        self.apply_etas_ftran(&mut z);
        self.backward(&mut z, w);
    }

    /// Clears every factor structure: the state promised by a failed
    /// [`refactor`](Self::refactor) (`num_rows() == 0`, solves write
    /// zeros). `order`/`pos`/`uid_of_slot` are cleared too — they are the
    /// only vectors `refactor` does not rebuild-or-clear up front, and a
    /// stale `order` over empty `ucols` is exactly the shape that turns a
    /// post-failure BTRAN into an out-of-bounds index.
    fn reset_to_empty(&mut self) {
        self.m = 0;
        self.l_cols.clear();
        self.prow.clear();
        self.diag.clear();
        self.ucols.clear();
        self.urows.clear();
        self.order.clear();
        self.pos.clear();
        self.slot_of_uid.clear();
        self.uid_of_slot.clear();
        self.etas.clear();
        self.eta_entries = 0;
        self.step_of_row.clear();
        self.l_rows.clear();
    }

    /// Density cutoff for the hyper-sparse solves: once a symbolic reach
    /// exceeds this many nodes the result is dense enough that the plain
    /// kernels win, so the solve bails and re-runs densely.
    fn sparse_cap(&self) -> usize {
        (self.m / 4).max(4)
    }

    /// Gilbert–Peierls FTRAN into an indexed result; `false` means the
    /// reach exceeded the density cutoff and the caller should run the
    /// dense kernel instead.
    fn ftran_hyper_sparse(&self, entries: &[(usize, f64)], w: &mut SparseVector) -> bool {
        let m = self.m;
        let cap = self.sparse_cap();
        if entries.len() > cap {
            return false;
        }
        let mut x = self.sp_x.borrow_mut(); // original-row space
        if x.len() < m {
            x.resize(m, 0.0);
        }
        let mut z = self.sp_z.borrow_mut(); // uid space
        if z.len() < m {
            z.resize(m, 0.0);
        }
        let mut mark = self.sp_mark.borrow_mut();
        if mark.len() < m {
            mark.resize(m, false);
        }
        let mut stack = self.sp_stack.borrow_mut();
        let mut reach_l = self.sp_reach_a.borrow_mut();
        let mut reach_u = self.sp_reach_b.borrow_mut();
        let mut zpat = self.sp_support.borrow_mut();

        // --- L phase (original-row space) ---
        let ok = symbolic_reach(
            entries.iter().filter(|e| e.1 != 0.0).map(|e| e.0),
            |r, i| self.l_cols[self.step_of_row[r]].get(i).map(|e| e.0),
            &mut mark,
            &mut stack,
            &mut reach_l,
            cap,
        );
        if !ok {
            return false;
        }
        for &(r, a) in entries {
            x[r] += a;
        }
        for &r in reach_l.iter().rev() {
            let v = x[r];
            if v != 0.0 {
                for &(rr, lv) in &self.l_cols[self.step_of_row[r]] {
                    x[rr] -= v * lv;
                }
            }
        }
        // move to uid (= step) space, restoring x and the L marks as we go
        zpat.clear();
        for &r in reach_l.iter() {
            mark[r] = false;
            let v = x[r];
            x[r] = 0.0;
            if v != 0.0 {
                let k = self.step_of_row[r];
                z[k] = v;
                zpat.push(k);
            }
        }

        // --- row etas (uid space), value-transition pattern pushes; a
        // duplicate push after an exact cancellation is tolerated (the DFS
        // below dedups, and the cleanup loops are idempotent).
        for eta in &self.etas {
            let old = z[eta.t];
            let mut acc = old;
            for &(j, mu) in &eta.entries {
                acc -= mu * z[j];
            }
            if acc != old {
                if old == 0.0 {
                    zpat.push(eta.t);
                }
                z[eta.t] = acc;
            }
        }
        if zpat.len() > cap {
            for &k in zpat.iter() {
                z[k] = 0.0;
            }
            return false;
        }

        // --- U backward (uid space): edges j → i along ucols[j] ---
        let ok = symbolic_reach(
            zpat.iter().copied(),
            |j, idx| self.ucols[j].get(idx).map(|e| e.0),
            &mut mark,
            &mut stack,
            &mut reach_u,
            cap,
        );
        if !ok {
            for &k in zpat.iter() {
                z[k] = 0.0;
            }
            return false;
        }
        w.begin(m);
        for &j in reach_u.iter().rev() {
            let v = z[j] / self.diag[j];
            let slot = self.slot_of_uid[j];
            w.values[slot] = v;
            w.pattern.push(slot);
            if v != 0.0 {
                for &(i, uv) in &self.ucols[j] {
                    z[i] -= uv * v;
                }
            }
        }
        // zpat ⊆ reach_u, so this restores the all-zero invariant on z
        for &j in reach_u.iter() {
            z[j] = 0.0;
            mark[j] = false;
        }
        true
    }

    /// Gilbert–Peierls pivot-row BTRAN into an indexed result; same
    /// bail-to-dense contract as
    /// [`ftran_hyper_sparse`](Self::ftran_hyper_sparse).
    fn btran_unit_hyper_sparse(&self, r: usize, y: &mut SparseVector) -> bool {
        let m = self.m;
        let cap = self.sparse_cap();
        let mut c = self.sp_x.borrow_mut(); // uid space (cost image)
        if c.len() < m {
            c.resize(m, 0.0);
        }
        let mut s = self.sp_z.borrow_mut(); // uid space (Uᵀ solution)
        if s.len() < m {
            s.resize(m, 0.0);
        }
        let mut mark = self.sp_mark.borrow_mut();
        if mark.len() < m {
            mark.resize(m, false);
        }
        let mut stack = self.sp_stack.borrow_mut();
        let mut reach_u = self.sp_reach_a.borrow_mut();
        let mut reach_lt = self.sp_reach_b.borrow_mut();
        let mut spat = self.sp_support.borrow_mut();

        // --- Uᵀ phase (uid space): the unit cost vector has a single
        // nonzero at the uid occupying slot r; value flows i → j along
        // urows[i]; pull-based numeric over the reach.
        let t0 = self.uid_of_slot[r];
        c[t0] = 1.0;
        let ok = symbolic_reach(
            std::iter::once(t0),
            |i, idx| self.urows[i].get(idx).map(|e| e.0),
            &mut mark,
            &mut stack,
            &mut reach_u,
            cap,
        );
        if !ok {
            c[t0] = 0.0;
            return false;
        }
        for &j in reach_u.iter().rev() {
            let mut v = c[j];
            for &(i, uv) in &self.ucols[j] {
                v -= uv * s[i];
            }
            s[j] = v / self.diag[j];
        }
        c[t0] = 0.0;
        spat.clear();
        spat.extend(reach_u.iter().copied());
        for &j in reach_u.iter() {
            mark[j] = false;
        }

        // --- transposed row etas (reverse order), value-transition pushes
        for eta in self.etas.iter().rev() {
            let st = s[eta.t];
            if st != 0.0 {
                for &(j, mu) in &eta.entries {
                    if s[j] == 0.0 {
                        spat.push(j);
                    }
                    s[j] -= mu * st;
                }
            }
        }
        if spat.len() > cap {
            for &j in spat.iter() {
                s[j] = 0.0;
            }
            return false;
        }

        // --- Lᵀ phase (step space; uid = step) ---
        let ok = symbolic_reach(
            spat.iter().copied(),
            |j, idx| self.l_rows[self.prow[j]].get(idx).map(|e| e.0),
            &mut mark,
            &mut stack,
            &mut reach_lt,
            cap,
        );
        if !ok {
            for &j in spat.iter() {
                s[j] = 0.0;
            }
            return false;
        }
        y.begin(m);
        // scatter first, then clear: spat may hold duplicates, so the two
        // loops must not be fused (a fused loop would re-read a cleared 0.0)
        for &k in spat.iter() {
            y.values[self.prow[k]] = s[k];
        }
        for &k in spat.iter() {
            s[k] = 0.0;
        }
        for &k in reach_lt.iter().rev() {
            let pr = self.prow[k];
            let mut acc = y.values[pr];
            for &(rr, lv) in &self.l_cols[k] {
                acc -= lv * y.values[rr];
            }
            y.values[pr] = acc;
            y.pattern.push(pr);
        }
        for &k in reach_lt.iter() {
            mark[k] = false;
        }
        true
    }
}

impl ForrestTomlinLu {
    /// Number of rows of the factorized basis (0 before the first
    /// [`refactor`](Self::refactor)).
    pub fn num_rows(&self) -> usize {
        self.m
    }

    /// Rebuilds the factorization from scratch. `cols[c]` is the sparse
    /// column (by original row index) of the basis member at position `c`.
    /// Returns `false` when the basis matrix is numerically singular; the
    /// factorization is then left **empty** (`num_rows()` returns 0, solves
    /// write zeros) until the next successful refactor. Callers that keep
    /// going after a failure therefore get well-defined garbage (zero duals
    /// under a non-optimal status), never a partially-built factor.
    pub fn refactor(&mut self, m: usize, cols: &[SparseColumn]) -> bool {
        assert_eq!(cols.len(), m, "one column per basis position");
        self.m = m;
        self.etas.clear();
        self.eta_entries = 0;
        self.l_cols.clear();
        self.prow.clear();
        self.diag.clear();
        self.ucols.clear();
        self.urows.clear();
        self.slot_of_uid.clear();

        // Active-submatrix storage: rows hold (column, value) sorted by
        // column; columns hold candidate row lists with lazy deletion
        // (entries are validated against the row storage before use).
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for (c, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                if v != 0.0 {
                    rows[r].push((c, v));
                }
            }
        }
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut col_count = vec![0usize; m];
        let mut row_count = vec![0usize; m];
        for (r, row) in rows.iter_mut().enumerate() {
            row.sort_unstable_by_key(|e| e.0);
            // collapse duplicate column entries
            let mut out: Vec<(usize, f64)> = Vec::with_capacity(row.len());
            for &(c, v) in row.iter() {
                match out.last_mut() {
                    Some(last) if last.0 == c => last.1 += v,
                    _ => out.push((c, v)),
                }
            }
            out.retain(|&(_, v)| v != 0.0);
            for &(c, _) in &out {
                col_rows[c].push(r);
                col_count[c] += 1;
            }
            row_count[r] = out.len();
            *row = out;
        }
        let mut active_row = vec![true; m];
        let mut active_col = vec![true; m];
        let mut active_cols: Vec<usize> = (0..m).collect();

        // Looks up the value of column `c` in row `r` (rows stay sorted).
        let value_in = |rows: &[Vec<(usize, f64)>], r: usize, c: usize| -> Option<f64> {
            rows[r]
                .binary_search_by_key(&c, |e| e.0)
                .ok()
                .map(|idx| rows[r][idx].1)
        };

        // Best stable pivot inside column `c`: minimize (r−1)(c−1) among
        // entries within PIVOT_THRESHOLD of the column max.
        let best_in_col = |rows: &[Vec<(usize, f64)>],
                           col_rows: &[Vec<usize>],
                           active_row: &[bool],
                           row_count: &[usize],
                           col_count: &[usize],
                           c: usize|
         -> Option<(usize, f64, usize)> {
            let mut colmax = 0.0f64;
            for &r in &col_rows[c] {
                if active_row[r] {
                    if let Some(v) = value_in(rows, r, c) {
                        colmax = colmax.max(v.abs());
                    }
                }
            }
            if colmax <= Self::SINGULAR_TOL {
                return None;
            }
            let floor = (Self::PIVOT_THRESHOLD * colmax).max(Self::SINGULAR_TOL);
            let mut best: Option<(usize, f64, usize)> = None;
            for &r in &col_rows[c] {
                if !active_row[r] {
                    continue;
                }
                let Some(v) = value_in(rows, r, c) else {
                    continue;
                };
                if v.abs() < floor {
                    continue;
                }
                let cost = (row_count[r] - 1) * (col_count[c] - 1);
                let better = match best {
                    None => true,
                    Some((_, bv, bc)) => cost < bc || (cost == bc && v.abs() > bv.abs()),
                };
                if better {
                    best = Some((r, v, cost));
                }
            }
            best
        };

        let mut pending_urows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        for _ in 0..m {
            // --- Markowitz pivot search ---
            active_cols.retain(|&c| active_col[c]);
            let mut min_cnt = usize::MAX;
            let mut cand: Vec<usize> = Vec::with_capacity(Self::SEARCH_COLS);
            for &c in &active_cols {
                let cc = col_count[c];
                if cc == 0 {
                    self.reset_to_empty();
                    return false; // numerically empty column: singular
                }
                if cc < min_cnt {
                    min_cnt = cc;
                    cand.clear();
                }
                if cc == min_cnt && cand.len() < Self::SEARCH_COLS {
                    cand.push(c);
                }
                if min_cnt == 1 && cand.len() >= Self::SEARCH_COLS {
                    break;
                }
            }
            let mut best: Option<(usize, usize, f64, usize)> = None; // (r, c, v, cost)
            for &c in &cand {
                if let Some((r, v, cost)) =
                    best_in_col(&rows, &col_rows, &active_row, &row_count, &col_count, c)
                {
                    let better = match best {
                        None => true,
                        Some((_, _, bv, bc)) => cost < bc || (cost == bc && v.abs() > bv.abs()),
                    };
                    if better {
                        best = Some((r, c, v, cost));
                    }
                }
            }
            if best.is_none() {
                // the minimum-count columns had no stable entry: widen the
                // search to every active column before declaring failure
                for &c in &active_cols {
                    if let Some((r, v, cost)) =
                        best_in_col(&rows, &col_rows, &active_row, &row_count, &col_count, c)
                    {
                        let better = match best {
                            None => true,
                            Some((_, _, bv, bc)) => cost < bc || (cost == bc && v.abs() > bv.abs()),
                        };
                        if better {
                            best = Some((r, c, v, cost));
                        }
                    }
                }
            }
            let Some((p, q, piv, _)) = best else {
                self.reset_to_empty();
                return false; // no stable pivot anywhere: singular
            };

            // --- elimination step ---
            self.prow.push(p);
            self.slot_of_uid.push(q);
            self.diag.push(piv);
            active_row[p] = false;
            active_col[q] = false;
            // the pivot row's remaining active entries become row k of U
            let prow_entries: Vec<(usize, f64)> = rows[p]
                .iter()
                .filter(|&&(c, _)| active_col[c])
                .copied()
                .collect();
            for &(c, _) in &prow_entries {
                col_count[c] -= 1;
            }
            // eliminate column q from every active row; self-deduping: the
            // merge removes the q entry, so stale duplicates in col_rows[q]
            // simply fail the lookup
            let mut lcol: Vec<(usize, f64)> = Vec::new();
            let rlist = std::mem::take(&mut col_rows[q]);
            for r in rlist {
                if !active_row[r] {
                    continue;
                }
                let Some(v) = value_in(&rows, r, q) else {
                    continue;
                };
                let mult = v / piv;
                lcol.push((r, mult));
                // rows[r] ← rows[r] − mult · pivot_row, dropping the q entry
                let old = std::mem::take(&mut rows[r]);
                let mut out: Vec<(usize, f64)> = Vec::with_capacity(old.len() + prow_entries.len());
                let (mut a, mut bb) = (0usize, 0usize);
                while a < old.len() || bb < prow_entries.len() {
                    let ac = old.get(a).map(|e| e.0).unwrap_or(usize::MAX);
                    let bc = prow_entries.get(bb).map(|e| e.0).unwrap_or(usize::MAX);
                    if ac < bc {
                        if ac != q {
                            out.push(old[a]);
                        }
                        a += 1;
                    } else if bc < ac {
                        let nv = -mult * prow_entries[bb].1;
                        if nv.abs() > 1e-14 {
                            out.push((bc, nv));
                            col_count[bc] += 1;
                            col_rows[bc].push(r);
                        }
                        bb += 1;
                    } else {
                        let nv = old[a].1 - mult * prow_entries[bb].1;
                        if nv.abs() > 1e-14 {
                            out.push((ac, nv));
                        } else {
                            col_count[ac] -= 1;
                        }
                        a += 1;
                        bb += 1;
                    }
                }
                row_count[r] = out.len();
                rows[r] = out;
            }
            self.l_cols.push(lcol);
            pending_urows.push(prow_entries);
        }

        // finalize: map pending U rows (slot-indexed columns) to uid space
        self.uid_of_slot = vec![0usize; m];
        for (uid, &slot) in self.slot_of_uid.iter().enumerate() {
            self.uid_of_slot[slot] = uid;
        }
        self.ucols = vec![Vec::new(); m];
        self.urows = vec![Vec::new(); m];
        for (i, entries) in pending_urows.into_iter().enumerate() {
            for (slot, v) in entries {
                let j = self.uid_of_slot[slot];
                self.urows[i].push((j, v));
                self.ucols[j].push((i, v));
            }
        }
        self.order = (0..m).collect();
        self.pos = (0..m).collect();

        // row-wise L mirror + permutation inverse for the hyper-sparse solves
        self.step_of_row.clear();
        self.step_of_row.resize(m, 0);
        for (k, &r) in self.prow.iter().enumerate() {
            self.step_of_row[r] = k;
        }
        self.l_rows.clear();
        self.l_rows.resize(m, Vec::new());
        for (k, lcol) in self.l_cols.iter().enumerate() {
            for &(r, lv) in lcol {
                self.l_rows[r].push((k, lv));
            }
        }
        true
    }

    /// FTRAN with a sparse right-hand side: `w = B⁻¹ a` where `a` is given
    /// as `(row, value)` entries. `w` (length `m`) is indexed by basis
    /// position.
    pub fn ftran_sparse(&self, entries: &[(usize, f64)], w: &mut [f64]) {
        if self.m == 0 {
            w.fill(0.0);
            return;
        }
        let mut x = self.scratch_x.borrow_mut();
        x.clear();
        x.resize(self.m, 0.0);
        for &(i, a) in entries {
            x[i] += a;
        }
        self.lu_solve_into(&mut x, w);
    }

    /// FTRAN with a dense right-hand side (used to recompute `x_B = B⁻¹ b`).
    pub fn ftran_dense(&self, rhs: &[f64], w: &mut [f64]) {
        let mut x = self.scratch_x.borrow_mut();
        x.clear();
        x.extend_from_slice(rhs);
        self.lu_solve_into(&mut x, w);
    }

    /// BTRAN: `y = cᵦ B⁻¹` for the basic cost vector `cb` (indexed by basis
    /// position); `y` (length `m`) is indexed by original row.
    pub fn btran(&self, cb: &[f64], y: &mut [f64]) {
        // y = cᵦ B⁻¹ in uid space: solve Uᵀ s = ĉ over ascending positions,
        // apply the transposed row etas in reverse, then the transposed
        // forward elimination back in original-row space.
        let m = self.m;
        let mut c = self.scratch_c.borrow_mut();
        c.clear();
        c.extend(self.slot_of_uid.iter().map(|&slot| cb[slot]));
        let mut s = self.scratch_s.borrow_mut();
        s.clear();
        s.resize(m, 0.0);
        for p in 0..m {
            let j = self.order[p];
            let mut v = c[j];
            for &(i, uv) in &self.ucols[j] {
                v -= uv * s[i];
            }
            s[j] = v / self.diag[j];
        }
        self.apply_etas_btran(&mut s);
        for v in y.iter_mut() {
            *v = 0.0;
        }
        for k in 0..m {
            y[self.prow[k]] = s[k];
        }
        for k in (0..m).rev() {
            let mut acc = y[self.prow[k]];
            for &(r, lv) in &self.l_cols[k] {
                acc -= lv * y[r];
            }
            y[self.prow[k]] = acc;
        }
    }

    /// Row `r` of `B⁻¹` (`rho = eᵣᵀ B⁻¹`, indexed by original row): the
    /// dense pivot row, used to drive artificials out.
    pub fn btran_unit(&self, r: usize, rho: &mut [f64]) {
        if self.m == 0 {
            rho.fill(0.0);
            return;
        }
        let mut cb = self.scratch_unit.borrow_mut();
        cb.clear();
        cb.resize(self.m, 0.0);
        cb[r] = 1.0;
        self.btran(&cb, rho);
    }

    /// FTRAN with a sparse right-hand side into an indexed result: the
    /// hyper-sparse (Gilbert–Peierls) path while the reach stays below the
    /// density cutoff, the dense kernel (with `w` marked dense) otherwise.
    /// `w` keeps its current length when the factorization is empty.
    pub fn ftran_sparse_into(&self, entries: &[(usize, f64)], w: &mut SparseVector) {
        let m = self.m;
        if m == 0 {
            let keep = w.len();
            w.begin(keep);
            return;
        }
        if self.ftran_hyper_sparse(entries, w) {
            self.counters.record_ftran(true, w.pattern.len(), m);
        } else {
            w.begin_dense(m);
            self.ftran_sparse(entries, &mut w.values);
            self.counters.record_ftran(false, m, m);
        }
    }

    /// Pivot-row BTRAN (`rho = eᵣᵀ B⁻¹`) into an indexed result; same
    /// sparse-or-dense contract as
    /// [`ftran_sparse_into`](Self::ftran_sparse_into).
    pub fn btran_unit_into(&self, r: usize, rho: &mut SparseVector) {
        let m = self.m;
        if m == 0 {
            let keep = rho.len();
            rho.begin(keep);
            return;
        }
        if self.btran_unit_hyper_sparse(r, rho) {
            self.counters.record_btran(true, rho.pattern.len(), m);
        } else {
            rho.begin_dense(m);
            self.btran_unit(r, &mut rho.values);
            self.counters.record_btran(false, m, m);
        }
    }

    /// [`update`](Self::update) from an indexed FTRAN image: the spike is
    /// built from the image's pattern instead of an `O(m)` scan.
    pub fn update_sparse(&mut self, l: usize, w: &SparseVector) -> bool {
        if !w.is_sparse() {
            return self.update(l, w.values());
        }
        let m = self.m;
        if m == 0 {
            return false;
        }
        let t = self.uid_of_slot[l];

        // sparse spike FTRAN: s = U ŵ accumulated over the image's support
        // only; the pattern is collected by value transitions and deduped by
        // the sort, so the commit visits it in the dense scan's ascending
        // index order.
        let mut s = vec![0.0f64; m];
        let mut spat: Vec<usize> = Vec::with_capacity(2 * w.pattern.len() + 8);
        w.for_each_nonzero(|slot, v| {
            let j = self.uid_of_slot[slot];
            if s[j] == 0.0 {
                spat.push(j);
            }
            s[j] += self.diag[j] * v;
            for &(i, uv) in &self.ucols[j] {
                if s[i] == 0.0 {
                    spat.push(i);
                }
                s[i] += uv * v;
            }
        });
        spat.sort_unstable();
        spat.dedup();
        self.eliminate_and_commit(t, &s, spat.iter().copied())
    }

    /// Cumulative hyper-sparse solve counters over this factorization's
    /// lifetime.
    pub fn sparsity_stats(&self) -> SparsityStats {
        self.counters.snapshot()
    }

    /// Applies the pivot that replaces the basis column at position `l` by
    /// the column whose FTRAN image is `w`.
    ///
    /// Returns `false` when the update is declined for stability or
    /// capacity reasons — the caller must then refactor from the (already
    /// updated) basis columns; the factorization state is unspecified until
    /// it does.
    pub fn update(&mut self, l: usize, w: &[f64]) -> bool {
        let m = self.m;
        if m == 0 {
            return false;
        }
        let t = self.uid_of_slot[l];

        // spike s = U ŵ, where ŵ is the FTRAN image mapped to uid space
        let mut s = vec![0.0f64; m];
        for j in 0..m {
            let v = w[self.slot_of_uid[j]];
            if v != 0.0 {
                s[j] += self.diag[j] * v;
                for &(i, uv) in &self.ucols[j] {
                    s[i] += uv * v;
                }
            }
        }
        self.eliminate_and_commit(t, &s, 0..m)
    }

    /// The second half of both updates: eliminates the displaced row `t`
    /// against the spike `s` and, when the new diagonal passes the
    /// stability and capacity gates, installs `s` as column `t`. `support`
    /// lists, in ascending order, every index where `s` may be non-zero.
    fn eliminate_and_commit(
        &mut self,
        t: usize,
        s: &[f64],
        support: impl Iterator<Item = usize> + Clone,
    ) -> bool {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let s_inf = support.clone().fold(0.0f64, |acc, j| acc.max(s[j].abs()));

        // Eliminate the displaced row t left to right (ascending triangular
        // position); fill only spreads rightward, so each column is popped
        // at most once after its value is final.
        let mut rowval = vec![0.0f64; self.m];
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
        for &(j, v) in &self.urows[t] {
            rowval[j] = v;
            heap.push(Reverse((self.pos[j], j)));
        }
        let mut mus: Vec<(usize, f64)> = Vec::new();
        let mut d = s[t];
        while let Some(Reverse((_, j))) = heap.pop() {
            let v = rowval[j];
            rowval[j] = 0.0;
            if v.abs() <= Self::DROP_TOL {
                continue;
            }
            let mu = v / self.diag[j];
            mus.push((j, mu));
            d -= mu * s[j];
            for &(j2, v2) in &self.urows[j] {
                if j2 == t || v2 == 0.0 {
                    continue;
                }
                if rowval[j2] == 0.0 {
                    heap.push(Reverse((self.pos[j2], j2)));
                }
                rowval[j2] -= mu * v2;
            }
        }

        // stability / capacity gate — nothing has been mutated yet
        if d.abs() <= Self::UPDATE_TOL
            || d.abs() < Self::UPDATE_REL_TOL * s_inf
            || self.eta_entries + mus.len() > self.eta_capacity()
        {
            return false;
        }

        // commit: drop the old row/column t from both mirrors, install the
        // spike as the new column t, move t to the back of the order
        let old_row = std::mem::take(&mut self.urows[t]);
        for &(j, _) in &old_row {
            self.ucols[j].retain(|&(i, _)| i != t);
        }
        let old_col = std::mem::take(&mut self.ucols[t]);
        for &(i, _) in &old_col {
            self.urows[i].retain(|&(j, _)| j != t);
        }
        let mut newcol: Vec<(usize, f64)> = Vec::new();
        for i in support {
            let v = s[i];
            if i != t && v.abs() > Self::DROP_TOL {
                newcol.push((i, v));
                self.urows[i].push((t, v));
            }
        }
        self.ucols[t] = newcol;
        self.diag[t] = d;
        let p = self.pos[t];
        self.order.remove(p);
        self.order.push(t);
        for (idx, &u) in self.order.iter().enumerate().skip(p) {
            self.pos[u] = idx;
        }
        self.eta_entries += mus.len();
        self.etas.push(RowEta { t, entries: mus });
        true
    }

    /// Number of successful [`update`](Self::update)s since the last
    /// [`refactor`](Self::refactor).
    pub fn updates_since_refactor(&self) -> usize {
        self.etas.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Dense m × m reference multiply: B w for basis columns `cols`.
    fn apply_b(m: usize, cols: &[SparseColumn], w: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0f64; m];
        for (c, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                out[r] += v * w[c];
            }
        }
        out
    }

    fn random_basis(seed: u64, m: usize) -> Vec<SparseColumn> {
        let mut rng = StdRng::seed_from_u64(seed);
        // diagonally-dominant so the basis is comfortably nonsingular
        (0..m)
            .map(|c| {
                let mut col: SparseColumn = vec![(c, 2.0 + rng.random_range(0.0..3.0))];
                for _ in 0..3 {
                    let r = rng.random_range(0..m);
                    if r != c {
                        col.push((r, rng.random_range(-0.4..0.4)));
                    }
                }
                col
            })
            .collect()
    }

    fn check_roundtrip(factor: &mut ForrestTomlinLu, seed: u64, m: usize) {
        let cols = random_basis(seed, m);
        assert!(factor.refactor(m, &cols), "random basis must factorize");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);

        // FTRAN: B w = a
        let mut a: Vec<(usize, f64)> = Vec::new();
        for r in 0..m {
            if rng.random_range(0.0..1.0) < 0.5 {
                a.push((r, rng.random_range(-2.0..2.0)));
            }
        }
        let mut w = vec![0.0f64; m];
        factor.ftran_sparse(&a, &mut w);
        let bw = apply_b(m, &cols, &w);
        let mut dense_a = vec![0.0f64; m];
        for &(r, v) in &a {
            dense_a[r] += v;
        }
        for r in 0..m {
            assert!(
                (bw[r] - dense_a[r]).abs() < 1e-8,
                "ftran row {r}: {} vs {}",
                bw[r],
                dense_a[r]
            );
        }

        // BTRAN: y B = cb, i.e. y · (column c) = cb[c]
        let cb: Vec<f64> = (0..m).map(|_| rng.random_range(-3.0..3.0)).collect();
        let mut y = vec![0.0f64; m];
        factor.btran(&cb, &mut y);
        for (c, col) in cols.iter().enumerate() {
            let dot: f64 = col.iter().map(|&(r, v)| y[r] * v).sum();
            assert!(
                (dot - cb[c]).abs() < 1e-8,
                "btran col {c}: {dot} vs {}",
                cb[c]
            );
        }

        // btran_unit row r agrees with btran on e_r
        let r = m / 2;
        let mut rho = vec![0.0f64; m];
        factor.btran_unit(r, &mut rho);
        let mut er = vec![0.0f64; m];
        er[r] = 1.0;
        let mut yr = vec![0.0f64; m];
        factor.btran(&er, &mut yr);
        for i in 0..m {
            assert!((rho[i] - yr[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn forrest_tomlin_roundtrips() {
        for seed in 0..6u64 {
            let m = 3 + (seed as usize % 8);
            check_roundtrip(&mut ForrestTomlinLu::default(), seed, m);
        }
    }

    /// Eight updates in a row keep FTRAN and BTRAN exact: both are checked
    /// by their residuals against the updated basis columns,
    /// `‖B·w − a‖` and `‖yB − c_B‖`.
    #[test]
    fn forrest_tomlin_solves_stay_exact_after_updates() {
        let m = 12;
        let mut cols = random_basis(99, m);
        let mut ft = ForrestTomlinLu::default();
        assert!(ft.refactor(m, &cols));
        let mut rng = StdRng::seed_from_u64(4242);
        let mut applied = 0usize;
        for _ in 0..8 {
            // a random replacement column
            let mut e: SparseColumn = Vec::new();
            for r in 0..m {
                if rng.random_range(0.0..1.0) < 0.4 {
                    e.push((r, rng.random_range(-2.0..2.0)));
                }
            }
            e.push((rng.random_range(0..m), 3.0));
            let mut w = vec![0.0f64; m];
            ft.ftran_sparse(&e, &mut w);
            let bw = apply_b(m, &cols, &w);
            let mut dense_e = vec![0.0f64; m];
            for &(r, v) in &e {
                dense_e[r] += v;
            }
            for r in 0..m {
                assert!((bw[r] - dense_e[r]).abs() < 1e-7, "ftran residual at {r}");
            }
            // choose a pivot position with a healthy element
            let l = (0..m)
                .max_by(|&a, &b| w[a].abs().partial_cmp(&w[b].abs()).unwrap())
                .unwrap();
            if w[l].abs() < 1e-6 {
                continue;
            }
            assert!(ft.update(l, &w));
            cols[l] = e;
            applied += 1;
            // the duals of the updated basis: y · (column c) = cb[c]
            let cb: Vec<f64> = (0..m).map(|_| rng.random_range(-1.0..1.0)).collect();
            let mut y = vec![0.0f64; m];
            ft.btran(&cb, &mut y);
            for (c, col) in cols.iter().enumerate() {
                let dot: f64 = col.iter().map(|&(r, v)| y[r] * v).sum();
                assert!((dot - cb[c]).abs() < 1e-6, "btran residual at {c}");
            }
        }
        assert_eq!(ft.updates_since_refactor(), applied);
    }

    #[test]
    fn singular_basis_is_rejected() {
        let m = 4;
        // two identical columns
        let mut cols = random_basis(7, m);
        cols[2] = cols[1].clone();
        assert!(!ForrestTomlinLu::default().refactor(m, &cols));
    }

    /// A failed refactor must leave the factorization *empty*, not partially
    /// built: `num_rows() == 0` and every solve writes zeros. The crash this
    /// pins down came from the session's deep-arrival path — a singular
    /// rebuild mid-solve left stale `order` over cleared `ucols`, and the
    /// next BTRAN (extracting duals for the failed solve) indexed out of
    /// bounds.
    #[test]
    fn failed_refactor_leaves_a_safe_empty_state() {
        let m = 6;
        let good = random_basis(11, m);
        let mut singular = random_basis(11, m);
        singular[3] = singular[4].clone();
        let mut factor = ForrestTomlinLu::default();
        // a prior *successful* factorization populates every structure, so
        // this exercises failure-after-success, not the fresh state
        assert!(factor.refactor(m, &good), "good basis");
        assert!(!factor.refactor(m, &singular), "singular");
        assert_eq!(factor.num_rows(), 0, "empty after failure");

        // every solve entry point is callable and writes zeros
        let cb = vec![1.0f64; m];
        let mut y = vec![f64::NAN; m];
        factor.btran(&cb, &mut y);
        assert!(y.iter().all(|&v| v == 0.0), "btran zeros");
        let mut rho = vec![f64::NAN; m];
        factor.btran_unit(2, &mut rho);
        assert!(rho.iter().all(|&v| v == 0.0), "btran_unit zeros");
        let mut w = vec![f64::NAN; m];
        factor.ftran_dense(&cb, &mut w);
        assert!(w.iter().all(|&v| v == 0.0), "ftran_dense zeros");
        let mut w2 = vec![f64::NAN; m];
        factor.ftran_sparse(&[(1, 1.0)], &mut w2);
        assert!(w2.iter().all(|&v| v == 0.0), "ftran_sparse zeros");

        // and the factorization recovers on the next successful refactor
        assert!(factor.refactor(m, &good), "recovers");
        assert_eq!(factor.num_rows(), m);
        let mut w3 = vec![0.0f64; m];
        factor.ftran_dense(&cb, &mut w3);
        let bw = apply_b(m, &good, &w3);
        for r in 0..m {
            assert!((bw[r] - cb[r]).abs() < 1e-8, "row {r}");
        }
    }

    /// FT-updated factors must agree with a from-scratch refactorization of
    /// the same (updated) basis columns through a *long* pivot sequence —
    /// the invariant the debug-assertions check in the simplex core also
    /// enforces per scheduled refactor.
    #[test]
    fn forrest_tomlin_long_sequence_matches_fresh_refactor() {
        for seed in [5u64, 17, 23] {
            let m = 24;
            let mut cols = random_basis(seed, m);
            let mut ft = ForrestTomlinLu::default();
            assert!(ft.refactor(m, &cols));
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let mut applied = 0usize;
            let mut w = vec![0.0f64; m];
            while applied < 40 {
                let mut e: SparseColumn = Vec::new();
                for r in 0..m {
                    if rng.random_range(0.0..1.0) < 0.3 {
                        e.push((r, rng.random_range(-2.0..2.0)));
                    }
                }
                e.push((rng.random_range(0..m), 2.5));
                ft.ftran_sparse(&e, &mut w);
                let l = (0..m)
                    .max_by(|&a, &b| w[a].abs().partial_cmp(&w[b].abs()).unwrap())
                    .unwrap();
                if w[l].abs() < 1e-4 || !ft.update(l, &w) {
                    continue;
                }
                cols[l] = e;
                applied += 1;
                if applied.is_multiple_of(10) {
                    // compare the updated factors against a fresh refactor
                    let mut fresh = ForrestTomlinLu::default();
                    assert!(fresh.refactor(m, &cols));
                    let rhs: Vec<f64> = (0..m).map(|_| rng.random_range(-2.0..2.0)).collect();
                    let mut w_upd = vec![0.0f64; m];
                    let mut w_fresh = vec![0.0f64; m];
                    ft.ftran_dense(&rhs, &mut w_upd);
                    fresh.ftran_dense(&rhs, &mut w_fresh);
                    for i in 0..m {
                        assert!(
                            (w_upd[i] - w_fresh[i]).abs() < 1e-6,
                            "seed {seed}: ftran drift {} at {i} after {applied} updates",
                            (w_upd[i] - w_fresh[i]).abs()
                        );
                    }
                    let mut y_upd = vec![0.0f64; m];
                    let mut y_fresh = vec![0.0f64; m];
                    ft.btran(&rhs, &mut y_upd);
                    fresh.btran(&rhs, &mut y_fresh);
                    for i in 0..m {
                        assert!(
                            (y_upd[i] - y_fresh[i]).abs() < 1e-6,
                            "seed {seed}: btran drift at {i} after {applied} updates"
                        );
                    }
                }
            }
            assert_eq!(ft.updates_since_refactor(), 40);
        }
    }

    /// Block size of [`block_basis`] (coupling never crosses a block).
    const BLOCK: usize = 6;

    /// A block-diagonal locally-coupled basis: diagonal dominance plus a
    /// few entries inside the column's own 6-row block. Unlike
    /// `random_basis`, whose uniformly random structure makes almost every
    /// triangular reach dense (even a plain band chains structurally to the
    /// end of the matrix), disconnected blocks keep the solve-graph reach
    /// genuinely bounded — the regime the hyper-sparse path exists for, and
    /// the shape auction LPs (mostly-slack bases, few-row bundle columns)
    /// actually have.
    fn block_basis(seed: u64, m: usize) -> Vec<SparseColumn> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|c| {
                let base = c - (c % BLOCK);
                let width = BLOCK.min(m - base);
                let mut col: SparseColumn = vec![(c, 2.0 + rng.random_range(0.0..3.0))];
                for _ in 0..2 {
                    let r = base + rng.random_range(0..width);
                    if r != c {
                        col.push((r, rng.random_range(-0.4..0.4)));
                    }
                }
                col
            })
            .collect()
    }

    /// Asserts the indexed result equals the dense reference: every dense
    /// value matches, and (when sparse) the pattern covers every nonzero.
    fn assert_sv_matches(sv: &SparseVector, dense: &[f64], tol: f64, ctx: &str) {
        assert_eq!(sv.len(), dense.len(), "{ctx}: length");
        for (i, &dv) in dense.iter().enumerate() {
            assert!(
                (sv.value(i) - dv).abs() <= tol,
                "{ctx}: value {i}: {} vs {dv}",
                sv.value(i)
            );
        }
        if sv.is_sparse() {
            let mut inpat = vec![false; dense.len()];
            for &i in sv.pattern() {
                inpat[i] = true;
            }
            for (i, &dv) in dense.iter().enumerate() {
                assert!(
                    dv.abs() <= tol || inpat[i],
                    "{ctx}: nonzero {i} missing from pattern"
                );
            }
        }
    }

    /// Hyper-sparse FTRAN/BTRAN must equal the dense kernels — exact
    /// indices, values within tolerance — on fresh factors and through a
    /// pivot-update sequence.
    #[test]
    fn sparse_into_matches_dense_kernels() {
        for seed in 0..8u64 {
            let m = 40 + 20 * (seed as usize % 4);
            let mut cols = block_basis(seed.wrapping_mul(71) + 3, m);
            let mut factor = ForrestTomlinLu::default();
            assert!(factor.refactor(m, &cols), "seed {seed}: refactor");
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
            let mut w_sv = SparseVector::zeros(m);
            let mut rho_sv = SparseVector::zeros(m);
            let mut pivots = 0usize;
            for round in 0..30 {
                // block-local sparse rhs (1–3 entries) so the hyper-sparse
                // path is actually the one exercised
                let anchor = rng.random_range(0..m);
                let base = anchor - (anchor % BLOCK);
                let width = BLOCK.min(m - base);
                let mut e: SparseColumn = vec![(anchor, 2.5)];
                for _ in 0..2 {
                    if rng.random_range(0.0..1.0) < 0.7 {
                        let r = base + rng.random_range(0..width);
                        e.push((r, rng.random_range(-2.0..2.0)));
                    }
                }
                let mut w_dense = vec![f64::NAN; m];
                factor.ftran_sparse(&e, &mut w_dense);
                factor.ftran_sparse_into(&e, &mut w_sv);
                assert_sv_matches(&w_sv, &w_dense, 1e-7, &format!("ftran r{round}"));

                let r = rng.random_range(0..m);
                let mut rho_dense = vec![f64::NAN; m];
                factor.btran_unit(r, &mut rho_dense);
                factor.btran_unit_into(r, &mut rho_sv);
                assert_sv_matches(&rho_sv, &rho_dense, 1e-7, &format!("btran r{round}"));

                // pivot through the indexed update every few rounds so the
                // spike path gets covered too
                if round % 3 == 0 {
                    let l = (0..m)
                        .max_by(|&a, &b| {
                            w_sv.value(a)
                                .abs()
                                .partial_cmp(&w_sv.value(b).abs())
                                .unwrap()
                        })
                        .unwrap();
                    if w_sv.value(l).abs() > 1e-4 && factor.update_sparse(l, &w_sv) {
                        cols[l] = e;
                        pivots += 1;
                    }
                }
            }
            assert!(pivots > 0, "seed {seed}: sequence never pivoted");
            let stats = factor.sparsity_stats();
            assert!(
                stats.ftran_sparse > 0 && stats.btran_sparse > 0,
                "seed {seed}: hyper-sparse path never taken: {stats:?}"
            );
            assert!(
                stats.avg_density() < 1.0,
                "seed {seed}: density not tracked"
            );
            // refactor from the updated columns and re-check once more
            assert!(factor.refactor(m, &cols), "seed {seed}: re-refactor");
            let e = vec![(m / 2, 1.0)];
            let mut w_dense = vec![f64::NAN; m];
            factor.ftran_sparse(&e, &mut w_dense);
            factor.ftran_sparse_into(&e, &mut w_sv);
            assert_sv_matches(&w_sv, &w_dense, 1e-7, "post-refactor");
        }
    }

    /// Dense results (above the density cutoff) must come back marked dense
    /// and still be correct — exercised with a deliberately dense rhs.
    #[test]
    fn sparse_into_falls_back_dense_above_cutoff() {
        let m = 60;
        let cols = random_basis(21, m);
        let mut ft = ForrestTomlinLu::default();
        assert!(ft.refactor(m, &cols));
        let e: SparseColumn = (0..m).map(|r| (r, 1.0 + 0.01 * r as f64)).collect();
        let mut w_dense = vec![f64::NAN; m];
        ft.ftran_sparse(&e, &mut w_dense);
        let mut w_sv = SparseVector::zeros(m);
        ft.ftran_sparse_into(&e, &mut w_sv);
        assert!(!w_sv.is_sparse(), "a full rhs must take the dense fallback");
        assert_sv_matches(&w_sv, &w_dense, 1e-9, "dense fallback");
        let stats = ft.sparsity_stats();
        assert!(stats.ftran_dense > 0, "fallback must be counted: {stats:?}");
    }

    /// The empty state (failed refactor) answers the indexed entry points
    /// with all-zero vectors of the caller's length.
    #[test]
    fn sparse_into_empty_state_writes_zeros() {
        let m = 6;
        let mut singular = random_basis(11, m);
        singular[3] = singular[4].clone();
        let mut factor = ForrestTomlinLu::default();
        assert!(!factor.refactor(m, &singular));
        let mut w = SparseVector::zeros(m);
        factor.ftran_sparse_into(&[(1, 1.0)], &mut w);
        assert_eq!(w.len(), m, "keeps length");
        assert!(w.values().iter().all(|&v| v == 0.0), "zeros");
        let mut rho = SparseVector::zeros(m);
        factor.btran_unit_into(2, &mut rho);
        assert!(rho.values().iter().all(|&v| v == 0.0), "zeros");
    }

    /// Sparse FT updates (spike built from the image's support) must track a
    /// fresh refactorization through a long random pivot sequence, exactly
    /// like the dense-update variant of this test above.
    #[test]
    fn forrest_tomlin_long_sparse_sequence_matches_fresh_refactor() {
        for seed in [9u64, 31, 47] {
            let m = 48;
            let mut cols = block_basis(seed, m);
            let mut ft = ForrestTomlinLu::default();
            assert!(ft.refactor(m, &cols));
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let mut applied = 0usize;
            let mut w = SparseVector::zeros(m);
            let mut guard = 0usize;
            while applied < 40 {
                guard += 1;
                assert!(guard < 4000, "seed {seed}: pivot sequence stalled");
                let anchor = rng.random_range(0..m);
                let base = anchor - (anchor % BLOCK);
                let width = BLOCK.min(m - base);
                let mut e: SparseColumn = vec![(anchor, 2.5)];
                for _ in 0..3 {
                    if rng.random_range(0.0..1.0) < 0.6 {
                        let r = base + rng.random_range(0..width);
                        e.push((r, rng.random_range(-2.0..2.0)));
                    }
                }
                ft.ftran_sparse_into(&e, &mut w);
                let l = (0..m)
                    .max_by(|&a, &b| w.value(a).abs().partial_cmp(&w.value(b).abs()).unwrap())
                    .unwrap();
                if w.value(l).abs() < 1e-4 || !ft.update_sparse(l, &w) {
                    continue;
                }
                cols[l] = e;
                applied += 1;
                if applied.is_multiple_of(10) {
                    let mut fresh = ForrestTomlinLu::default();
                    assert!(fresh.refactor(m, &cols));
                    let rhs: Vec<f64> = (0..m).map(|_| rng.random_range(-2.0..2.0)).collect();
                    let mut w_upd = vec![0.0f64; m];
                    let mut w_fresh = vec![0.0f64; m];
                    ft.ftran_dense(&rhs, &mut w_upd);
                    fresh.ftran_dense(&rhs, &mut w_fresh);
                    for i in 0..m {
                        assert!(
                            (w_upd[i] - w_fresh[i]).abs() < 1e-6,
                            "seed {seed}: sparse-update ftran drift {} at {i} after {applied}",
                            (w_upd[i] - w_fresh[i]).abs()
                        );
                    }
                    // and the hyper-sparse solves drift no further than the
                    // dense ones
                    let r = rng.random_range(0..m);
                    let mut rho_dense = vec![0.0f64; m];
                    ft.btran_unit(r, &mut rho_dense);
                    let mut rho_sv = SparseVector::zeros(m);
                    ft.btran_unit_into(r, &mut rho_sv);
                    assert_sv_matches(&rho_sv, &rho_dense, 1e-7, "mid-sequence btran");
                }
            }
            assert_eq!(ft.updates_since_refactor(), 40);
        }
    }
}
