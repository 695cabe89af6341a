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
//! declined, which makes the simplex core refactorize. The rebuild itself
//! is `O(nnz(B) + nnz(L+U))` up to a logarithmic count-tree term.
//!
//! FTRAN of a sparse right-hand side and the pivot-row BTRAN run
//! hyper-sparse (Gilbert–Peierls) into a [`SparseVector`] and fall back to
//! the dense kernels by themselves once the reach passes a density cutoff;
//! [`SparseVector::is_sparse`] tells the two outcomes apart, and the
//! simplex engine counts them into its [`SolveStats`](crate::SolveStats).
//! Every solve reads the factorization through `&self` and works in a
//! caller-owned [`SolveScratch`], so one factorization can be shared
//! across threads, each with its own scratch. The property tests check the
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// The caller-owned workspaces of the [`ForrestTomlinLu`] solves and
/// updates. A solve only reads the factorization, so threads that share one
/// factorization each bring their own scratch. The buffers grow to `m` on
/// first use and are reused after; the hyper-sparse and update ones are all
/// zero (marks all unset, heap empty) between calls.
#[derive(Clone, Debug, Default)]
pub struct SolveScratch {
    /// Dense kernels: FTRAN rhs, BTRAN cost, the permuted solution, and
    /// the unit cost of `btran_unit` (separate, because it calls `btran`).
    x: Vec<f64>,
    c: Vec<f64>,
    s: Vec<f64>,
    unit: Vec<f64>,
    /// Hyper-sparse kernels: two value scratches, DFS marks and stack,
    /// per-phase reach lists, and a support buffer.
    sp_x: Vec<f64>,
    sp_z: Vec<f64>,
    mark: Vec<bool>,
    stack: Vec<(usize, usize)>,
    reach_a: Vec<usize>,
    reach_b: Vec<usize>,
    support: Vec<usize>,
    /// Forrest–Tomlin updates: the spike `s = U ŵ` and its pattern, the
    /// displaced row's values, and the elimination's position heap.
    spike: Vec<f64>,
    spike_pattern: Vec<usize>,
    rowval: Vec<f64>,
    heap: BinaryHeap<Reverse<(usize, usize)>>,
}

impl SolveScratch {
    /// Grows the hyper-sparse value scratches and marks to `m` (they grow
    /// together, and growing keeps them all zero).
    fn grow_sparse(&mut self, m: usize) {
        if self.sp_x.len() < m {
            self.sp_x.resize(m, 0.0);
            self.sp_z.resize(m, 0.0);
            self.mark.resize(m, false);
        }
    }

    /// Grows the update's value scratches to `m` (growing keeps them all
    /// zero).
    fn grow_update(&mut self, m: usize) {
        if self.spike.len() < m {
            self.spike.resize(m, 0.0);
            self.rowval.resize(m, 0.0);
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

/// Variable-length lists in one flat buffer: list `i` is
/// `entries[start[i]..start[i] + len[i]]`, inside a slot of `cap[i]`
/// entries. A list that outgrows its slot moves to the end of the buffer
/// with room to double, and the order of a list's entries is exactly that
/// of a `Vec` given the same pushes and retains. A vacated slot is not
/// reused, so the buffer holds a list's history only up to a factor of
/// two of its largest size; [`reset`](Self::reset) reclaims it all.
#[derive(Clone, Debug, Default)]
struct SlotLists<T> {
    start: Vec<usize>,
    len: Vec<usize>,
    cap: Vec<usize>,
    entries: Vec<T>,
}

impl<T> std::ops::Index<usize> for SlotLists<T> {
    type Output = [T];

    fn index(&self, i: usize) -> &[T] {
        &self.entries[self.start[i]..self.start[i] + self.len[i]]
    }
}

impl<T: Copy + Default> SlotLists<T> {
    /// `n` empty lists of capacity 0: set `cap`, then [`lay_out`](Self::lay_out).
    fn new(n: usize) -> Self {
        let mut lists = SlotLists::default();
        lists.reset(n);
        lists
    }

    /// Empties `self` into `n` lists of capacity 0, keeping the buffers.
    fn reset(&mut self, n: usize) {
        for v in [&mut self.start, &mut self.len, &mut self.cap] {
            v.clear();
            v.resize(n, 0);
        }
        self.entries.clear();
    }

    /// Places the slots back to back at their current capacities.
    fn lay_out(&mut self) {
        let mut at = 0;
        for (start, &cap) in self.start.iter_mut().zip(&self.cap) {
            *start = at;
            at += cap;
        }
        self.entries.resize(at, T::default());
    }

    /// Appends to list `i`, whose slot must have room.
    fn push_in_place(&mut self, i: usize, v: T) {
        debug_assert!(self.len[i] < self.cap[i], "slot {i} is full");
        self.entries[self.start[i] + self.len[i]] = v;
        self.len[i] += 1;
    }

    /// Appends to list `i`, moving it to the end of the buffer first when
    /// its slot is full.
    fn push(&mut self, i: usize, v: T) {
        if self.len[i] == self.cap[i] {
            let (old, len) = (self.start[i], self.len[i]);
            let at = self.entries.len();
            self.entries.extend_from_within(old..old + len);
            self.start[i] = at;
            self.cap[i] = 2 * len + 4;
            self.entries.resize(at + self.cap[i], T::default());
        }
        self.push_in_place(i, v);
    }

    /// Keeps the entries of list `i` that pass `keep`, in order.
    fn retain(&mut self, i: usize, mut keep: impl FnMut(&T) -> bool) {
        let (start, len) = (self.start[i], self.len[i]);
        let mut kept = start;
        for at in start..start + len {
            if keep(&self.entries[at]) {
                self.entries[kept] = self.entries[at];
                kept += 1;
            }
        }
        self.len[i] = kept - start;
    }

    /// Overwrites list `i` with `new`, moving it to the end of the buffer
    /// with room to double when it no longer fits its slot.
    fn replace(&mut self, i: usize, new: &[T]) {
        if new.len() > self.cap[i] {
            let at = self.entries.len();
            self.start[i] = at;
            self.cap[i] = 2 * new.len();
            self.entries.extend_from_slice(new);
            self.entries.resize(at + self.cap[i], T::default());
        } else {
            let at = self.start[i];
            self.entries[at..at + new.len()].copy_from_slice(new);
        }
        self.len[i] = new.len();
    }
}

impl SlotLists<(usize, f64)> {
    /// Appends `(c, v)` to row `r`, or adds `v` to the row's last entry
    /// when that is column `c` already (rows fill in column order).
    fn push_summing(&mut self, r: usize, c: usize, v: f64) {
        let end = self.start[r] + self.len[r];
        match self.entries[self.start[r]..end].last_mut() {
            Some(last) if last.0 == c => last.1 += v,
            _ => self.push_in_place(r, (c, v)),
        }
    }

    /// The value of column `c` in row `r` (rows stay sorted by column).
    fn value(&self, r: usize, c: usize) -> Option<f64> {
        let row = &self[r];
        row.binary_search_by_key(&c, |e| e.0)
            .ok()
            .map(|at| row[at].1)
    }
}

/// A minimum tournament tree over the active columns' counts (inactive
/// columns hold `usize::MAX`). It plays the part of count buckets that
/// stay ordered by column index: the minimum count is the root, and the
/// lowest-index columns of that count are the leftmost leaves holding it.
/// A count change walks one leaf-to-root path, stopping where the minimum
/// no longer changes.
struct CountTree {
    leaves: usize,
    node: Vec<usize>,
}

impl CountTree {
    fn new(counts: &[usize]) -> Self {
        let leaves = counts.len().next_power_of_two();
        let mut node = vec![usize::MAX; 2 * leaves];
        node[leaves..leaves + counts.len()].copy_from_slice(counts);
        for i in (1..leaves).rev() {
            node[i] = node[2 * i].min(node[2 * i + 1]);
        }
        CountTree { leaves, node }
    }

    fn min(&self) -> usize {
        self.node[1]
    }

    /// Sets the count of column `c`; `usize::MAX` takes it out of the
    /// search.
    fn set(&mut self, c: usize, count: usize) {
        let mut i = self.leaves + c;
        self.node[i] = count;
        while i > 1 {
            i /= 2;
            let least = self.node[2 * i].min(self.node[2 * i + 1]);
            if self.node[i] == least {
                break;
            }
            self.node[i] = least;
        }
    }

    /// The (at most `limit`) lowest-index columns of minimum count, in
    /// index order: descend to the leftmost leaf holding the minimum, then
    /// climb to the nearest right sibling that holds it and descend again,
    /// so neighbouring leaves cost O(1) each.
    fn lowest(&self, limit: usize, out: &mut Vec<usize>) {
        out.clear();
        let target = self.min();
        let mut i = 1;
        loop {
            while i < self.leaves {
                i = if self.node[2 * i] == target {
                    2 * i
                } else {
                    2 * i + 1
                };
            }
            out.push(i - self.leaves);
            if out.len() == limit {
                return;
            }
            loop {
                while i % 2 == 1 {
                    i /= 2;
                    if i == 0 {
                        return; // climbed past the root: no more leaves
                    }
                }
                i += 1;
                if self.node[i] == target {
                    break;
                }
            }
        }
    }
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
/// A rebuild ([`refactor`](Self::refactor)) costs `O(nnz(B) + nnz(L+U))`
/// plus `O(log m)` per column-count change. Its pivot search takes the
/// lowest-index minimum-count columns from a count tree (the ordered form
/// of Suhl & Suhl's count buckets) instead of scanning every active
/// column, and reuses each column's last search answer until the column
/// or one of its rows changes. The tie-break is fixed — lowest cost, then
/// largest `|v|`, then the candidate met first in column-index order — so
/// the factors do not depend on how the search is organised. The active
/// submatrix and its column lists live in flat slot lists, and `L` is
/// stored flat. `U` keeps one exactly sized `Vec` per row and column,
/// because the Forrest–Tomlin update grows and frees them one at a time
/// (a flat `U` kept the slots its growing lists left behind, and raised
/// clear-physical's peak RSS by half).
///
/// All vectors indexed "by basis position" refer to the slot `r` of the
/// simplex basis (`basis[r]` is the member whose column occupies position
/// `r`); vectors indexed "by row" refer to original constraint rows. The
/// two spaces have the same length `m` but are permuted relative to each
/// other inside the LU representation.
#[derive(Clone, Debug, Default)]
pub struct ForrestTomlinLu {
    m: usize,
    /// Columns of unit-lower-triangular `L` per step, back to back: step
    /// `k` owns `l_entries[l_start[k]..l_start[k + 1]]`, the
    /// `(original row, mult)` pairs for rows pivoted *after* that step.
    l_start: Vec<usize>,
    l_entries: Vec<(usize, f64)>,
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
    /// `step_of_row[r]` = step (= uid) that pivoted original row `r`
    /// (inverse of `prow`); drives the hyper-sparse L-phase reachability.
    step_of_row: Vec<usize>,
    /// Row-wise mirror of `L`: `l_rows[r]` = `(step k, value)` for every
    /// entry of row `r`, in step order (the transposed-solve adjacency for
    /// BTRAN).
    l_rows: SlotLists<(usize, f64)>,
}

impl ForrestTomlinLu {
    /// Tiny pivots below this are treated as singular.
    const SINGULAR_TOL: f64 = 1e-12;
    /// New diagonals below this refuse the FT update (forces refactor).
    const UPDATE_TOL: f64 = 1e-9;
    /// Relative stability floor: the new diagonal must not be smaller than
    /// this fraction of the spike's largest entry.
    const UPDATE_REL_TOL: f64 = 1e-9;
    /// Entries below this are dropped from stored factors by the
    /// Forrest–Tomlin update.
    const DROP_TOL: f64 = 1e-12;
    /// Fill below this is dropped during a rebuild's elimination: two
    /// decades under `DROP_TOL`, because a rebuild starts from the exact
    /// basis columns while an update works on spikes that already carry
    /// rounding error.
    const FILL_DROP_TOL: f64 = 1e-14;
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

    /// Column `k` of `L`: `(original row, multiplier)` for the rows pivoted
    /// after step `k`.
    fn l_col(&self, k: usize) -> &[(usize, f64)] {
        &self.l_entries[self.l_start[k]..self.l_start[k + 1]]
    }

    /// Row `r` of `L` (original row): `(step, multiplier)` in step order.
    fn l_row(&self, r: usize) -> &[(usize, f64)] {
        &self.l_rows[r]
    }

    /// Forward elimination `L⁻¹` (row permutation folded in) on the dense
    /// scratch `x` indexed by original row; afterwards `x[prow[k]]` holds the
    /// step-space value `z_k`.
    fn forward(&self, x: &mut [f64]) {
        for k in 0..self.m {
            let z = x[self.prow[k]];
            if z != 0.0 {
                for &(r, lv) in self.l_col(k) {
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

    fn lu_solve_into(&self, x: &mut [f64], w: &mut [f64], z: &mut Vec<f64>) {
        if self.m == 0 {
            // empty state (failed refactor): solves write zeros
            w.fill(0.0);
            return;
        }
        self.forward(x);
        // move to uid (= step) space: z_k lives at x[prow[k]]
        z.clear();
        z.extend(self.prow.iter().map(|&r| x[r]));
        self.apply_etas_ftran(z);
        self.backward(z, w);
    }

    /// Clears every factor structure: the state promised by a failed
    /// [`refactor`](Self::refactor) (`num_rows() == 0`, solves write
    /// zeros). `order`/`pos`/`uid_of_slot` are cleared too — they are the
    /// only vectors `refactor` does not rebuild-or-clear up front, and a
    /// stale `order` over empty `ucols` is exactly the shape that turns a
    /// post-failure BTRAN into an out-of-bounds index.
    fn reset_to_empty(&mut self) {
        self.m = 0;
        self.l_start.clear();
        self.l_entries.clear();
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
        self.l_rows.reset(0);
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
    fn ftran_hyper_sparse(
        &self,
        entries: &[(usize, f64)],
        w: &mut SparseVector,
        scratch: &mut SolveScratch,
    ) -> bool {
        let m = self.m;
        let cap = self.sparse_cap();
        if entries.len() > cap {
            return false;
        }
        scratch.grow_sparse(m);
        // x in original-row space, z in uid space
        let SolveScratch {
            sp_x: x,
            sp_z: z,
            mark,
            stack,
            reach_a: reach_l,
            reach_b: reach_u,
            support: zpat,
            ..
        } = scratch;

        // --- L phase (original-row space) ---
        let ok = symbolic_reach(
            entries.iter().filter(|e| e.1 != 0.0).map(|e| e.0),
            |r, i| self.l_col(self.step_of_row[r]).get(i).map(|e| e.0),
            mark,
            stack,
            reach_l,
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
                for &(rr, lv) in self.l_col(self.step_of_row[r]) {
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
            mark,
            stack,
            reach_u,
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
    fn btran_unit_hyper_sparse(
        &self,
        r: usize,
        y: &mut SparseVector,
        scratch: &mut SolveScratch,
    ) -> bool {
        let m = self.m;
        let cap = self.sparse_cap();
        scratch.grow_sparse(m);
        // both in uid space: c the cost image, s the Uᵀ solution
        let SolveScratch {
            sp_x: c,
            sp_z: s,
            mark,
            stack,
            reach_a: reach_u,
            reach_b: reach_lt,
            support: spat,
            ..
        } = scratch;

        // --- Uᵀ phase (uid space): the unit cost vector has a single
        // nonzero at the uid occupying slot r; value flows i → j along
        // urows[i]; pull-based numeric over the reach.
        let t0 = self.uid_of_slot[r];
        c[t0] = 1.0;
        let ok = symbolic_reach(
            std::iter::once(t0),
            |i, idx| self.urows[i].get(idx).map(|e| e.0),
            mark,
            stack,
            reach_u,
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
            |j, idx| self.l_row(self.prow[j]).get(idx).map(|e| e.0),
            mark,
            stack,
            reach_lt,
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
            for &(rr, lv) in self.l_col(k) {
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
    ///
    /// Entries of one column that share a row are summed in column order;
    /// explicit and summed-to-zero entries are dropped. Each elimination
    /// step examines the (at most `SEARCH_COLS` = 8) lowest-index active
    /// columns of minimum count and pivots on the entry of lowest
    /// Markowitz cost `(r−1)(c−1)` among those passing the relative
    /// threshold; ties go to the larger `|v|`, then to the candidate met
    /// first. Only when none of them holds an entry above `SINGULAR_TOL`
    /// does the search widen to every active column, in index order. A
    /// rebuild costs `O(nnz(B) + nnz(L + U))` plus `O(log m)` per
    /// column-count change; its scratch is a fixed handful of flat
    /// buffers.
    pub fn refactor(&mut self, m: usize, cols: &[SparseColumn]) -> bool {
        assert_eq!(cols.len(), m, "one column per basis position");
        self.refactor_columns(m, |c, out| out.extend_from_slice(&cols[c]))
    }

    /// [`refactor`](Self::refactor) with the basis columns written by
    /// `column(c, out)`, which appends the `(row, value)` entries of the
    /// member at position `c` to `out` (one buffer for all positions).
    pub(crate) fn refactor_columns(
        &mut self,
        m: usize,
        mut column: impl FnMut(usize, &mut Vec<(usize, f64)>),
    ) -> bool {
        // the basis columns, back to back: position `c` owns
        // `entries[start[c]..start[c + 1]]`
        let mut start = Vec::with_capacity(m + 1);
        let mut entries = Vec::new();
        for c in 0..m {
            start.push(entries.len());
            column(c, &mut entries);
        }
        start.push(entries.len());
        let rebuilt = self.factorize(m, &start, &entries);
        if !rebuilt {
            self.reset_to_empty();
        }
        rebuilt
    }

    /// Installs the factorization of the `m × m` identity, with basis
    /// position `c` holding `e_c`, directly: `L` empty, unit diagonal, `U`
    /// without off-diagonal entries, no row etas. That is the state a
    /// [`refactor`](Self::refactor) of `I` builds, without its elimination.
    pub(crate) fn install_identity(&mut self, m: usize) {
        self.reset_to_empty();
        self.m = m;
        self.l_start.resize(m + 1, 0);
        self.prow.extend(0..m);
        self.diag.resize(m, 1.0);
        self.ucols.resize_with(m, Vec::new);
        self.urows.resize_with(m, Vec::new);
        self.order.extend(0..m);
        self.pos.extend(0..m);
        self.slot_of_uid.extend(0..m);
        self.uid_of_slot.extend(0..m);
        self.step_of_row.extend(0..m);
        self.l_rows.reset(m);
    }

    /// The Markowitz elimination of [`refactor`](Self::refactor) over the
    /// columns laid out as in [`refactor_columns`](Self::refactor_columns);
    /// `false` means singular (the caller empties the factorization). Its
    /// scratch is a fixed handful of flat buffers, dropped on return: kept
    /// per thread across rebuilds, it held about 4 MB through
    /// clear-physical's pivot loops and no rebuild got faster.
    fn factorize(&mut self, m: usize, col_start: &[usize], col_entries: &[(usize, f64)]) -> bool {
        self.m = m;
        self.etas.clear();
        self.eta_entries = 0;
        self.prow.clear();
        self.diag.clear();
        self.slot_of_uid.clear();
        self.l_start.clear();
        self.l_entries.clear();

        // Active rows hold (column, value) sorted by column: one pass sizes
        // each row's slot, a second fills it column by column, summing
        // entries that repeat a row within one column.
        let mut rows = SlotLists::new(m);
        for &(r, v) in col_entries {
            if v != 0.0 {
                rows.cap[r] += 1;
            }
        }
        rows.lay_out();
        for c in 0..m {
            for &(r, v) in &col_entries[col_start[c]..col_start[c + 1]] {
                if v != 0.0 {
                    rows.push_summing(r, c, v);
                }
            }
        }
        // Columns hold their candidate rows in ascending order, with lazy
        // deletion: an entry is validated against the row storage before
        // use, and only rows that left the active submatrix are compacted
        // away, so the order of the valid entries is exactly their order
        // of arrival.
        let mut col_count = vec![0usize; m];
        for r in 0..m {
            rows.retain(r, |e| e.1 != 0.0);
            for &(c, _) in &rows[r] {
                col_count[c] += 1;
            }
        }
        let mut col_rows = SlotLists::new(m);
        col_rows.cap.copy_from_slice(&col_count);
        col_rows.lay_out();
        for r in 0..m {
            for &(c, _) in &rows[r] {
                col_rows.push_in_place(c, r);
            }
        }
        let mut active_row = vec![true; m];
        let mut active_col = vec![true; m];
        let mut counts = CountTree::new(&col_count);
        // Each column's last best_in_col answer, reused while fresh: an
        // answer depends only on the column's entries and count and on the
        // lengths of its rows, so it goes stale when the column is in a
        // pivot row or one of its rows changes length in a merge.
        let mut col_best: Vec<Option<(usize, f64, usize)>> = vec![None; m];
        let mut col_best_fresh = vec![false; m];
        let mut cand = Vec::with_capacity(Self::SEARCH_COLS);
        let mut col_vals = Vec::new(); // the active entries of one column
        let mut pivot_row = Vec::new(); // without its pivot entry
        let mut merged = Vec::new();

        for _ in 0..m {
            // --- Markowitz pivot search ---
            if counts.min() == 0 {
                return false; // numerically empty column: singular
            }
            counts.lowest(Self::SEARCH_COLS, &mut cand);
            let mut best: Option<(usize, usize, f64, usize)> = None; // (r, c, v, cost)
            let mut consider = |c: usize, best: &mut Option<(usize, usize, f64, usize)>| {
                if !col_best_fresh[c] {
                    col_best[c] = Self::best_in_col(
                        &rows,
                        &col_rows,
                        &active_row,
                        col_count[c],
                        c,
                        &mut col_vals,
                    );
                    col_best_fresh[c] = true;
                }
                if let Some((r, v, cost)) = col_best[c] {
                    let better = match *best {
                        None => true,
                        Some((_, _, bv, bc)) => cost < bc || (cost == bc && v.abs() > bv.abs()),
                    };
                    if better {
                        *best = Some((r, c, v, cost));
                    }
                }
            };
            for &c in cand.iter() {
                consider(c, &mut best);
            }
            if best.is_none() {
                // the minimum-count columns had no stable entry: widen the
                // search to every active column before declaring failure
                for c in (0..m).filter(|&c| active_col[c]) {
                    consider(c, &mut best);
                }
            }
            let Some((p, q, piv, _)) = best else {
                return false; // no stable pivot anywhere: singular
            };

            // --- elimination step ---
            self.prow.push(p);
            self.slot_of_uid.push(q);
            self.diag.push(piv);
            self.l_start.push(self.l_entries.len());
            active_row[p] = false;
            active_col[q] = false;
            counts.set(q, usize::MAX);
            // the pivot row's remaining entries become row k of U (they
            // stay in the row's slot, which no later step writes)
            pivot_row.clear();
            pivot_row.extend(rows[p].iter().filter(|&&(c, _)| active_col[c]));
            for &(c, _) in pivot_row.iter() {
                col_count[c] -= 1;
            }
            // eliminate column q from every active row; stale and repeated
            // entries of col_rows[q] fail the lookup (the merge removes the
            // q entry), and no fill lands in column q, so its list stays put
            let (q_start, q_len) = (col_rows.start[q], col_rows.len[q]);
            for idx in q_start..q_start + q_len {
                let r = col_rows.entries[idx];
                if !active_row[r] {
                    continue;
                }
                let Some(v) = rows.value(r, q) else {
                    continue;
                };
                let mult = v / piv;
                self.l_entries.push((r, mult));
                // rows[r] ← rows[r] − mult · pivot_row, dropping the q entry
                merged.clear();
                let old = &rows[r];
                let (mut a, mut b) = (0usize, 0usize);
                while a < old.len() || b < pivot_row.len() {
                    let ac = old.get(a).map_or(usize::MAX, |e| e.0);
                    let bc = pivot_row.get(b).map_or(usize::MAX, |e| e.0);
                    if ac < bc {
                        if ac != q {
                            merged.push(old[a]);
                        }
                        a += 1;
                    } else if bc < ac {
                        let nv = -mult * pivot_row[b].1;
                        if nv.abs() > Self::FILL_DROP_TOL {
                            merged.push((bc, nv));
                            col_count[bc] += 1;
                            if col_rows.len[bc] == col_rows.cap[bc] {
                                // make room by dropping the rows that left
                                // the active submatrix (they never return)
                                col_rows.retain(bc, |&row| active_row[row]);
                            }
                            col_rows.push(bc, r);
                        }
                        b += 1;
                    } else {
                        let nv = old[a].1 - mult * pivot_row[b].1;
                        if nv.abs() > Self::FILL_DROP_TOL {
                            merged.push((ac, nv));
                        } else {
                            col_count[ac] -= 1;
                        }
                        a += 1;
                        b += 1;
                    }
                }
                if merged.len() != old.len() {
                    // a new row length moves the cost of every entry in it
                    for &(c, _) in merged.iter() {
                        col_best_fresh[c] = false;
                    }
                }
                rows.replace(r, &merged);
            }
            // only the pivot row's columns changed entries or count in this
            // step
            for &(c, _) in pivot_row.iter() {
                counts.set(c, col_count[c]);
                col_best_fresh[c] = false;
            }
        }
        self.l_start.push(self.l_entries.len());

        // finalize: U rows (slot-indexed columns) to uid space, each U row
        // and column sized exactly by a counting pass
        self.uid_of_slot.clear();
        self.uid_of_slot.resize(m, 0);
        for (uid, &slot) in self.slot_of_uid.iter().enumerate() {
            self.uid_of_slot[slot] = uid;
        }
        col_count.clear();
        col_count.resize(m, 0);
        for (&p, &q) in self.prow.iter().zip(&self.slot_of_uid) {
            for &(slot, _) in &rows[p] {
                if slot != q {
                    col_count[self.uid_of_slot[slot]] += 1;
                }
            }
        }
        self.ucols.clear();
        self.ucols
            .extend(col_count.iter().map(|&n| Vec::with_capacity(n)));
        self.urows.clear();
        self.urows.extend(
            self.prow
                .iter()
                .map(|&p| Vec::with_capacity(rows[p].len() - 1)),
        );
        for (i, (&p, &q)) in self.prow.iter().zip(&self.slot_of_uid).enumerate() {
            for &(slot, v) in &rows[p] {
                if slot != q {
                    let j = self.uid_of_slot[slot];
                    self.urows[i].push((j, v));
                    self.ucols[j].push((i, v));
                }
            }
        }
        self.order.clear();
        self.order.extend(0..m);
        self.pos.clear();
        self.pos.extend(0..m);

        // row-wise L mirror + permutation inverse for the hyper-sparse solves
        self.step_of_row.clear();
        self.step_of_row.resize(m, 0);
        for (k, &r) in self.prow.iter().enumerate() {
            self.step_of_row[r] = k;
        }
        self.l_rows.reset(m);
        for &(r, _) in &self.l_entries {
            self.l_rows.cap[r] += 1;
        }
        self.l_rows.lay_out();
        for k in 0..m {
            for &(r, lv) in &self.l_entries[self.l_start[k]..self.l_start[k + 1]] {
                self.l_rows.push_in_place(r, (k, lv));
            }
        }
        true
    }

    /// Best stable pivot inside active column `c` (of `count` active
    /// entries): the lowest Markowitz cost `(r−1)(c−1)` among entries
    /// within `PIVOT_THRESHOLD` of the column max, then the largest `|v|`,
    /// then the first in `col_rows` order. `None` when the column max is
    /// at most `SINGULAR_TOL`.
    /// `col_vals` is scratch for the column's active entries.
    fn best_in_col(
        rows: &SlotLists<(usize, f64)>,
        col_rows: &SlotLists<usize>,
        active_row: &[bool],
        count: usize,
        c: usize,
        col_vals: &mut Vec<(usize, f64)>,
    ) -> Option<(usize, f64, usize)> {
        col_vals.clear();
        let mut colmax = 0.0f64;
        for &r in &col_rows[c] {
            if active_row[r] {
                if let Some(v) = rows.value(r, c) {
                    colmax = colmax.max(v.abs());
                    col_vals.push((r, v));
                }
            }
        }
        if colmax <= Self::SINGULAR_TOL {
            return None;
        }
        let floor = (Self::PIVOT_THRESHOLD * colmax).max(Self::SINGULAR_TOL);
        let mut best: Option<(usize, f64, usize)> = None;
        for &(r, v) in col_vals.iter() {
            if v.abs() < floor {
                continue;
            }
            let cost = (rows.len[r] - 1) * (count - 1);
            let better = match best {
                None => true,
                Some((_, bv, bc)) => cost < bc || (cost == bc && v.abs() > bv.abs()),
            };
            if better {
                best = Some((r, v, cost));
            }
        }
        best
    }

    /// FTRAN with a sparse right-hand side: `w = B⁻¹ a` where `a` is given
    /// as `(row, value)` entries. `w` (length `m`) is indexed by basis
    /// position.
    pub fn ftran_sparse(
        &self,
        entries: &[(usize, f64)],
        w: &mut [f64],
        scratch: &mut SolveScratch,
    ) {
        if self.m == 0 {
            w.fill(0.0);
            return;
        }
        let x = &mut scratch.x;
        x.clear();
        x.resize(self.m, 0.0);
        for &(i, a) in entries {
            x[i] += a;
        }
        self.lu_solve_into(x, w, &mut scratch.s);
    }

    /// FTRAN with a dense right-hand side (used to recompute `x_B = B⁻¹ b`).
    pub fn ftran_dense(&self, rhs: &[f64], w: &mut [f64], scratch: &mut SolveScratch) {
        scratch.x.clear();
        scratch.x.extend_from_slice(rhs);
        self.lu_solve_into(&mut scratch.x, w, &mut scratch.s);
    }

    /// BTRAN: `y = cᵦ B⁻¹` for the basic cost vector `cb` (indexed by basis
    /// position); `y` (length `m`) is indexed by original row.
    pub fn btran(&self, cb: &[f64], y: &mut [f64], scratch: &mut SolveScratch) {
        // y = cᵦ B⁻¹ in uid space: solve Uᵀ s = ĉ over ascending positions,
        // apply the transposed row etas in reverse, then the transposed
        // forward elimination back in original-row space.
        let m = self.m;
        let SolveScratch { c, s, .. } = scratch;
        c.clear();
        c.extend(self.slot_of_uid.iter().map(|&slot| cb[slot]));
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
        self.apply_etas_btran(s);
        for v in y.iter_mut() {
            *v = 0.0;
        }
        for k in 0..m {
            y[self.prow[k]] = s[k];
        }
        for k in (0..m).rev() {
            let mut acc = y[self.prow[k]];
            for &(r, lv) in self.l_col(k) {
                acc -= lv * y[r];
            }
            y[self.prow[k]] = acc;
        }
    }

    /// Row `r` of `B⁻¹` (`rho = eᵣᵀ B⁻¹`, indexed by original row): the
    /// dense pivot row, used to drive artificials out.
    pub fn btran_unit(&self, r: usize, rho: &mut [f64], scratch: &mut SolveScratch) {
        if self.m == 0 {
            rho.fill(0.0);
            return;
        }
        let mut cb = std::mem::take(&mut scratch.unit);
        cb.clear();
        cb.resize(self.m, 0.0);
        cb[r] = 1.0;
        self.btran(&cb, rho, scratch);
        scratch.unit = cb;
    }

    /// FTRAN with a sparse right-hand side into an indexed result: the
    /// hyper-sparse (Gilbert–Peierls) path while the reach stays below the
    /// density cutoff, the dense kernel (with `w` marked dense) otherwise;
    /// [`SparseVector::is_sparse`] tells which answered. `w` keeps its
    /// current length, all zero and sparse, when the factorization is
    /// empty.
    pub fn ftran_sparse_into(
        &self,
        entries: &[(usize, f64)],
        w: &mut SparseVector,
        scratch: &mut SolveScratch,
    ) {
        let m = self.m;
        if m == 0 {
            let keep = w.len();
            w.begin(keep);
        } else if !self.ftran_hyper_sparse(entries, w, scratch) {
            w.begin_dense(m);
            self.ftran_sparse(entries, &mut w.values, scratch);
        }
    }

    /// Pivot-row BTRAN (`rho = eᵣᵀ B⁻¹`) into an indexed result; same
    /// sparse-or-dense contract as
    /// [`ftran_sparse_into`](Self::ftran_sparse_into).
    pub fn btran_unit_into(&self, r: usize, rho: &mut SparseVector, scratch: &mut SolveScratch) {
        let m = self.m;
        if m == 0 {
            let keep = rho.len();
            rho.begin(keep);
        } else if !self.btran_unit_hyper_sparse(r, rho, scratch) {
            rho.begin_dense(m);
            self.btran_unit(r, &mut rho.values, scratch);
        }
    }

    /// [`update`](Self::update) from an indexed FTRAN image: the spike is
    /// built from the image's pattern instead of an `O(m)` scan.
    pub fn update_sparse(
        &mut self,
        l: usize,
        w: &SparseVector,
        scratch: &mut SolveScratch,
    ) -> bool {
        if !w.is_sparse() {
            return self.update(l, w.values(), scratch);
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
        scratch.grow_update(m);
        let mut s = std::mem::take(&mut scratch.spike);
        let mut spat = std::mem::take(&mut scratch.spike_pattern);
        spat.clear();
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
        let committed = self.eliminate_and_commit(t, &s, spat.iter().copied(), scratch);
        for &i in &spat {
            s[i] = 0.0;
        }
        (scratch.spike, scratch.spike_pattern) = (s, spat);
        committed
    }

    /// Applies the pivot that replaces the basis column at position `l` by
    /// the column whose FTRAN image is `w`.
    ///
    /// Returns `false` when the update is declined for stability or
    /// capacity reasons — the caller must then refactor from the (already
    /// updated) basis columns; the factorization state is unspecified until
    /// it does.
    pub fn update(&mut self, l: usize, w: &[f64], scratch: &mut SolveScratch) -> bool {
        let m = self.m;
        if m == 0 {
            return false;
        }
        let t = self.uid_of_slot[l];

        // spike s = U ŵ, where ŵ is the FTRAN image mapped to uid space
        scratch.grow_update(m);
        let mut s = std::mem::take(&mut scratch.spike);
        for j in 0..m {
            let v = w[self.slot_of_uid[j]];
            if v != 0.0 {
                s[j] += self.diag[j] * v;
                for &(i, uv) in &self.ucols[j] {
                    s[i] += uv * v;
                }
            }
        }
        let committed = self.eliminate_and_commit(t, &s, 0..m, scratch);
        s[..m].fill(0.0);
        scratch.spike = s;
        committed
    }

    /// The second half of both updates: eliminates the displaced row `t`
    /// against the spike `s` and, when the new diagonal passes the
    /// stability and capacity gates, installs `s` as column `t`. `support`
    /// lists, in ascending order, every index where `s` may be non-zero.
    /// The elimination leaves `scratch`'s row values all zero and its heap
    /// empty, on both outcomes.
    fn eliminate_and_commit(
        &mut self,
        t: usize,
        s: &[f64],
        support: impl Iterator<Item = usize> + Clone,
        scratch: &mut SolveScratch,
    ) -> bool {
        let s_inf = support.clone().fold(0.0f64, |acc, j| acc.max(s[j].abs()));

        // Eliminate the displaced row t left to right (ascending triangular
        // position); fill only spreads rightward, so each column is popped
        // at most once after its value is final, and every entry written
        // is zeroed again when it pops.
        let SolveScratch { rowval, heap, .. } = scratch;
        debug_assert!(heap.is_empty());
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
        let mut sc = SolveScratch::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);

        // FTRAN: B w = a
        let mut a: Vec<(usize, f64)> = Vec::new();
        for r in 0..m {
            if rng.random_range(0.0..1.0) < 0.5 {
                a.push((r, rng.random_range(-2.0..2.0)));
            }
        }
        let mut w = vec![0.0f64; m];
        factor.ftran_sparse(&a, &mut w, &mut sc);
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
        factor.btran(&cb, &mut y, &mut sc);
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
        factor.btran_unit(r, &mut rho, &mut sc);
        let mut er = vec![0.0f64; m];
        er[r] = 1.0;
        let mut yr = vec![0.0f64; m];
        factor.btran(&er, &mut yr, &mut sc);
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
        let mut sc = SolveScratch::default();
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
            ft.ftran_sparse(&e, &mut w, &mut sc);
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
            assert!(ft.update(l, &w, &mut sc));
            cols[l] = e;
            applied += 1;
            // the duals of the updated basis: y · (column c) = cb[c]
            let cb: Vec<f64> = (0..m).map(|_| rng.random_range(-1.0..1.0)).collect();
            let mut y = vec![0.0f64; m];
            ft.btran(&cb, &mut y, &mut sc);
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
        let mut sc = SolveScratch::default();
        let cb = vec![1.0f64; m];
        let mut y = vec![f64::NAN; m];
        factor.btran(&cb, &mut y, &mut sc);
        assert!(y.iter().all(|&v| v == 0.0), "btran zeros");
        let mut rho = vec![f64::NAN; m];
        factor.btran_unit(2, &mut rho, &mut sc);
        assert!(rho.iter().all(|&v| v == 0.0), "btran_unit zeros");
        let mut w = vec![f64::NAN; m];
        factor.ftran_dense(&cb, &mut w, &mut sc);
        assert!(w.iter().all(|&v| v == 0.0), "ftran_dense zeros");
        let mut w2 = vec![f64::NAN; m];
        factor.ftran_sparse(&[(1, 1.0)], &mut w2, &mut sc);
        assert!(w2.iter().all(|&v| v == 0.0), "ftran_sparse zeros");

        // and the factorization recovers on the next successful refactor
        assert!(factor.refactor(m, &good), "recovers");
        assert_eq!(factor.num_rows(), m);
        let mut w3 = vec![0.0f64; m];
        factor.ftran_dense(&cb, &mut w3, &mut sc);
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
            let mut sc = SolveScratch::default();
            let mut w = vec![0.0f64; m];
            while applied < 40 {
                let mut e: SparseColumn = Vec::new();
                for r in 0..m {
                    if rng.random_range(0.0..1.0) < 0.3 {
                        e.push((r, rng.random_range(-2.0..2.0)));
                    }
                }
                e.push((rng.random_range(0..m), 2.5));
                ft.ftran_sparse(&e, &mut w, &mut sc);
                let l = (0..m)
                    .max_by(|&a, &b| w[a].abs().partial_cmp(&w[b].abs()).unwrap())
                    .unwrap();
                if w[l].abs() < 1e-4 || !ft.update(l, &w, &mut sc) {
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
                    ft.ftran_dense(&rhs, &mut w_upd, &mut sc);
                    fresh.ftran_dense(&rhs, &mut w_fresh, &mut sc);
                    for i in 0..m {
                        assert!(
                            (w_upd[i] - w_fresh[i]).abs() < 1e-6,
                            "seed {seed}: ftran drift {} at {i} after {applied} updates",
                            (w_upd[i] - w_fresh[i]).abs()
                        );
                    }
                    let mut y_upd = vec![0.0f64; m];
                    let mut y_fresh = vec![0.0f64; m];
                    ft.btran(&rhs, &mut y_upd, &mut sc);
                    fresh.btran(&rhs, &mut y_fresh, &mut sc);
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
            let mut sc = SolveScratch::default();
            // sparse FTRAN and BTRAN answers, and the summed result nnz and
            // length (a dense answer counts its full length)
            let (mut ftran_hits, mut btran_hits, mut nnz, mut len) = (0, 0, 0, 0);
            let mut count = |v: &SparseVector| {
                nnz += if v.is_sparse() {
                    v.pattern().len()
                } else {
                    v.len()
                };
                len += v.len();
                v.is_sparse()
            };
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
                factor.ftran_sparse(&e, &mut w_dense, &mut sc);
                factor.ftran_sparse_into(&e, &mut w_sv, &mut sc);
                assert_sv_matches(&w_sv, &w_dense, 1e-7, &format!("ftran r{round}"));
                ftran_hits += usize::from(count(&w_sv));

                let r = rng.random_range(0..m);
                let mut rho_dense = vec![f64::NAN; m];
                factor.btran_unit(r, &mut rho_dense, &mut sc);
                factor.btran_unit_into(r, &mut rho_sv, &mut sc);
                assert_sv_matches(&rho_sv, &rho_dense, 1e-7, &format!("btran r{round}"));
                btran_hits += usize::from(count(&rho_sv));

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
                    if w_sv.value(l).abs() > 1e-4 && factor.update_sparse(l, &w_sv, &mut sc) {
                        cols[l] = e;
                        pivots += 1;
                    }
                }
            }
            assert!(pivots > 0, "seed {seed}: sequence never pivoted");
            assert!(
                ftran_hits > 0 && btran_hits > 0,
                "seed {seed}: hyper-sparse path never taken: {ftran_hits} {btran_hits}"
            );
            assert!(nnz < len, "seed {seed}: no result was sparse");
            // refactor from the updated columns and re-check once more
            assert!(factor.refactor(m, &cols), "seed {seed}: re-refactor");
            let e = vec![(m / 2, 1.0)];
            let mut w_dense = vec![f64::NAN; m];
            factor.ftran_sparse(&e, &mut w_dense, &mut sc);
            factor.ftran_sparse_into(&e, &mut w_sv, &mut sc);
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
        let mut sc = SolveScratch::default();
        let mut w_dense = vec![f64::NAN; m];
        ft.ftran_sparse(&e, &mut w_dense, &mut sc);
        let mut w_sv = SparseVector::zeros(m);
        ft.ftran_sparse_into(&e, &mut w_sv, &mut sc);
        assert!(!w_sv.is_sparse(), "a full rhs must take the dense fallback");
        assert_sv_matches(&w_sv, &w_dense, 1e-9, "dense fallback");
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
        let mut sc = SolveScratch::default();
        let mut w = SparseVector::zeros(m);
        factor.ftran_sparse_into(&[(1, 1.0)], &mut w, &mut sc);
        assert_eq!(w.len(), m, "keeps length");
        assert!(w.values().iter().all(|&v| v == 0.0), "zeros");
        let mut rho = SparseVector::zeros(m);
        factor.btran_unit_into(2, &mut rho, &mut sc);
        assert!(rho.values().iter().all(|&v| v == 0.0), "zeros");
    }

    /// Solves read the factorization and write only caller-owned scratch,
    /// so a factorization can be shared across threads.
    #[test]
    fn factorization_is_send_and_sync() {
        fn shared<T: Send + Sync>() {}
        shared::<ForrestTomlinLu>();
    }

    /// Two threads share one updated factorization, each with its own
    /// scratch, and get bit for bit the answers of one thread alone, on the
    /// hyper-sparse and the dense paths.
    #[test]
    fn threads_sharing_a_factorization_match_one_thread() {
        let m = 48;
        let mut factor = ForrestTomlinLu::default();
        assert!(factor.refactor(m, &block_basis(13, m)));
        let mut sc = SolveScratch::default();
        let mut w = SparseVector::zeros(m);
        for r in [3, 20, 41] {
            factor.ftran_sparse_into(&[(r, 2.5), ((r + 1) % m, 0.5)], &mut w, &mut sc);
            assert!(factor.update_sparse(r, &w, &mut sc), "update at {r}");
        }
        // block-local right-hand sides (hyper-sparse) and one full one
        // (dense fallback)
        let mut rhs: Vec<SparseColumn> = (0..m)
            .map(|r| vec![(r, 1.0), (r - r % BLOCK, 0.5)])
            .collect();
        rhs.push((0..m).map(|r| (r, 1.0 + 0.01 * r as f64)).collect());
        let solve_all = |factor: &ForrestTomlinLu| -> Vec<Vec<u64>> {
            let mut sc = SolveScratch::default();
            let (mut w, mut rho) = (SparseVector::zeros(m), SparseVector::zeros(m));
            let mut y = vec![0.0f64; m];
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            let mut out = Vec::new();
            for (r, e) in rhs.iter().enumerate() {
                factor.ftran_sparse_into(e, &mut w, &mut sc);
                factor.btran_unit_into(r % m, &mut rho, &mut sc);
                factor.btran(w.values(), &mut y, &mut sc);
                out.extend([bits(w.values()), bits(rho.values()), bits(&y)]);
            }
            out
        };
        let alone = solve_all(&factor);
        // both threads start solving together, so their solves overlap
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        solve_all(&factor)
                    })
                })
                .collect();
            for thread in threads {
                assert!(
                    thread.join().expect("solver thread") == alone,
                    "a thread's answers differ"
                );
            }
        });
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
            let mut sc = SolveScratch::default();
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
                ft.ftran_sparse_into(&e, &mut w, &mut sc);
                let l = (0..m)
                    .max_by(|&a, &b| w.value(a).abs().partial_cmp(&w.value(b).abs()).unwrap())
                    .unwrap();
                if w.value(l).abs() < 1e-4 || !ft.update_sparse(l, &w, &mut sc) {
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
                    ft.ftran_dense(&rhs, &mut w_upd, &mut sc);
                    fresh.ftran_dense(&rhs, &mut w_fresh, &mut sc);
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
                    ft.btran_unit(r, &mut rho_dense, &mut sc);
                    let mut rho_sv = SparseVector::zeros(m);
                    ft.btran_unit_into(r, &mut rho_sv, &mut sc);
                    assert_sv_matches(&rho_sv, &rho_dense, 1e-7, "mid-sequence btran");
                }
            }
            assert_eq!(ft.updates_since_refactor(), 40);
        }
    }

    /// The directly installed identity answers every FTRAN, BTRAN and
    /// Forrest–Tomlin update bit for bit like a `refactor` of `I`, through
    /// a pivot sequence that replaces unit columns by master-shaped ones.
    #[test]
    fn installed_identity_matches_a_refactored_identity() {
        let m = 40;
        let identity: Vec<SparseColumn> = (0..m).map(|r| vec![(r, 1.0)]).collect();
        let mut refactored = ForrestTomlinLu::default();
        assert!(refactored.refactor(m, &identity));
        let mut installed = ForrestTomlinLu::default();
        // over a factorization that held something else before
        assert!(installed.refactor(m, &master_basis(5, m, 12)));
        installed.install_identity(m);
        assert_eq!(
            factor_fingerprint(&installed),
            factor_fingerprint(&refactored)
        );

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(0x1D);
        let (mut sc_r, mut sc_i) = (SolveScratch::default(), SolveScratch::default());
        let (mut w_r, mut w_i) = (SparseVector::zeros(m), SparseVector::zeros(m));
        let (mut rho_r, mut rho_i) = (SparseVector::zeros(m), SparseVector::zeros(m));
        let mut applied = 0usize;
        for step in 0..200 {
            if applied == 24 {
                break;
            }
            let replacement = &master_basis(100 + step, m, 1);
            let Some((_, col)) = replacement
                .iter()
                .enumerate()
                .find(|(r, c)| c.len() > 1 || c[0].0 != *r)
            else {
                continue;
            };
            refactored.ftran_sparse_into(col, &mut w_r, &mut sc_r);
            installed.ftran_sparse_into(col, &mut w_i, &mut sc_i);
            assert_eq!(bits(w_r.values()), bits(w_i.values()), "ftran at {step}");
            let r = rng.random_range(0..m);
            refactored.btran_unit_into(r, &mut rho_r, &mut sc_r);
            installed.btran_unit_into(r, &mut rho_i, &mut sc_i);
            assert_eq!(
                bits(rho_r.values()),
                bits(rho_i.values()),
                "btran at {step}"
            );
            let cb: Vec<f64> = (0..m).map(|_| rng.random_range(-2.0..2.0)).collect();
            let (mut y_r, mut y_i) = (vec![0.0; m], vec![0.0; m]);
            refactored.btran(&cb, &mut y_r, &mut sc_r);
            installed.btran(&cb, &mut y_i, &mut sc_i);
            assert_eq!(bits(&y_r), bits(&y_i), "dense btran at {step}");
            let l = (0..m)
                .max_by(|&a, &b| w_r.value(a).abs().total_cmp(&w_r.value(b).abs()))
                .unwrap();
            let (ok_r, ok_i) = (
                refactored.update_sparse(l, &w_r, &mut sc_r),
                installed.update_sparse(l, &w_i, &mut sc_i),
            );
            assert_eq!(ok_r, ok_i, "update at {step}");
            assert!(ok_r, "update at {step}");
            assert_eq!(
                factor_fingerprint(&installed),
                factor_fingerprint(&refactored)
            );
            applied += 1;
        }
        assert_eq!(applied, 24);
        assert_eq!(installed.updates_since_refactor(), 24);
    }

    /// A master-shaped basis: unit slack columns, `bundles` of them replaced
    /// by bundle columns of 3–8 distinct rows (1.0 on the row whose slack
    /// the bundle replaced, interference coefficients elsewhere).
    fn master_basis(seed: u64, m: usize, bundles: usize) -> Vec<SparseColumn> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cols: Vec<SparseColumn> = (0..m).map(|r| vec![(r, 1.0)]).collect();
        for _ in 0..bundles {
            let own = rng.random_range(0..m);
            let mut col: SparseColumn = vec![(own, 1.0)];
            let len = rng.random_range(3usize..9);
            while col.len() < len {
                let r = rng.random_range(0..m);
                if col.iter().all(|e| e.0 != r) {
                    let v = if rng.random_bool(0.5) {
                        1.0
                    } else {
                        rng.random_range(0.25..1.0)
                    };
                    col.push((r, v));
                }
            }
            cols[own] = col;
        }
        cols
    }

    /// FNV-1a over the words of a factorization: `m`, then per step the
    /// pivot row, the basis slot, the bits of the diagonal, and the `L`
    /// column, `U` column and `U` row entries in storage order.
    fn factor_fingerprint(f: &ForrestTomlinLu) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(f.num_rows() as u64);
        for k in 0..f.num_rows() {
            eat(f.prow[k] as u64);
            eat(f.slot_of_uid[k] as u64);
            eat(f.diag[k].to_bits());
            for entries in [f.l_col(k), &f.ucols[k], &f.urows[k]] {
                eat(entries.len() as u64);
                for &(i, v) in entries {
                    eat(i as u64);
                    eat(v.to_bits());
                }
            }
        }
        h
    }

    /// The seeded bases of the pinned-factor test: each reaches a branch of
    /// the pivot rule or of the input cleanup.
    fn pinned_cases() -> Vec<(&'static str, Vec<SparseColumn>)> {
        let mut cases: Vec<(&'static str, Vec<SparseColumn>)> = vec![
            ("master_60", master_basis(4, 60, 20)),
            ("master_200", master_basis(2, 200, 70)),
            ("master_crowded_120", master_basis(3, 120, 100)),
            // ties among more than SEARCH_COLS singletons: count, cost and
            // |v| all equal, so the lowest column index wins
            ("identity_50", (0..50).map(|r| vec![(r, 1.0)]).collect()),
            // singletons on a row permutation whose |v| differ: the largest
            // |v| among the first SEARCH_COLS candidates wins
            (
                "permuted_singletons_40",
                (0..40)
                    .map(|c| {
                        let v = match c % 3 {
                            0 => 2.0,
                            1 => -1.0,
                            _ => -2.0,
                        };
                        vec![((c * 7) % 40, v)]
                    })
                    .collect(),
            ),
            // every column has count 2, cost 1 and |v| = 1
            (
                "circulant_25",
                (0..25)
                    .map(|c| vec![(c, 1.0), ((c + 1) % 25, 1.0)])
                    .collect(),
            ),
            (
                "circulant_signed_27",
                (0..27)
                    .map(|c| vec![(c, 1.0), ((c + 1) % 27, -1.0), ((c + 3) % 27, 1.0)])
                    .collect(),
            ),
            // the only minimum-count column holds entries at SINGULAR_TOL,
            // so the first step widens the search; fill later lifts that
            // column above the tolerance and the rebuild succeeds
            (
                "widened_search_3",
                vec![
                    vec![(0, 1e-12), (1, 1e-12)],
                    vec![(0, 1.0), (1, -1.0), (2, 1.0)],
                    vec![(0, 1.0), (1, 1.0), (2, 3.0)],
                ],
            ),
            // the same shape, but the tiny column never recovers: singular
            // in the last step
            (
                "widened_then_singular_3",
                vec![
                    vec![(0, 1e-13), (1, 1e-13)],
                    vec![(0, 1.0), (1, 1.0), (2, 1.0)],
                    vec![(0, 1.0), (1, 2.0), (2, 1.0)],
                ],
            ),
            // the pivot row carries a 1e-15 entry: its fill into the
            // other row falls below the drop tolerance
            (
                "tiny_fill_dropped_3",
                vec![
                    vec![(0, 1.0), (1, 1.0)],
                    vec![(0, 1e-15), (2, 1.0)],
                    vec![(1, 1.0), (2, 1.0)],
                ],
            ),
            // an empty column behind more than SEARCH_COLS singletons
            (
                "empty_after_singletons_12",
                (0..12)
                    .map(|c| match c {
                        10 => Vec::new(),
                        11 => vec![(10, 1.0), (11, 1.0)],
                        _ => vec![(c, 1.0)],
                    })
                    .collect(),
            ),
        ];
        // duplicate (row, value) entries, explicit zeros and a duplicate
        // pair that cancels, inside one column
        let mut dups = random_basis(5, 16);
        dups[3].extend([(7, 0.0), (9, 0.5), (9, 0.25), (2, 1.5), (2, -1.5)]);
        dups[8] = vec![(8, 3.0), (8, 0.0), (13, 0.5), (13, -0.5), (1, 0.25)];
        dups[11].extend([(4, 0.75), (4, 0.75), (0, 0.0)]);
        cases.push(("duplicates_and_zeros_16", dups));
        // two equal columns: singular partway through the elimination
        let mut twins = random_basis(7, 10);
        twins[6] = twins[2].clone();
        cases.push(("singular_mid_elimination_10", twins));
        // small-integer bases: exact cancellation drops fill, later steps
        // refill the same positions
        for (name, seed) in [
            ("integer_14_a", 0u64),
            ("integer_14_b", 1),
            ("integer_14_c", 2),
        ] {
            let mut rng = StdRng::seed_from_u64(0x1A7E + seed);
            let cols = (0..14)
                .map(|c| {
                    let mut col: SparseColumn = vec![(c, 1.0)];
                    for r in 0..14 {
                        if r != c && rng.random_bool(0.35) {
                            col.push((r, [-2.0, -1.0, 1.0, 2.0][rng.random_range(0..4usize)]));
                        }
                    }
                    col
                })
                .collect();
            cases.push((name, cols));
        }
        // magnitudes spanning six decades: the threshold filter rejects
        // cheap but small entries (no libm call, so the values are the same
        // on every platform)
        let mut rng = StdRng::seed_from_u64(0x5CA1E);
        let spread_value = |rng: &mut StdRng| {
            let decade = [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2][rng.random_range(0..6usize)];
            decade * rng.random_range(1.0..10.0)
        };
        let spread = (0..30)
            .map(|c| {
                let mut col: SparseColumn = vec![(c, spread_value(&mut rng))];
                for _ in 0..3 {
                    let r = rng.random_range(0..30);
                    if r != c {
                        col.push((r, spread_value(&mut rng)));
                    }
                }
                col
            })
            .collect();
        cases.push(("magnitude_spread_30", spread));
        cases
    }

    /// The factors of every pinned case — pivot rows, column permutation,
    /// diagonal bits, `L` and `U` entries — are fixed: a change to the
    /// rebuild must reproduce them bit for bit (the simplex trajectory
    /// depends on them). Each case runs both in a fresh factorization and
    /// in one factorization reused across every case in turn, so state
    /// kept between rebuilds cannot leak into the factors.
    #[test]
    fn refactor_pivot_sequence_is_pinned() {
        const PINNED: &[(&str, bool, u64)] = &[
            ("master_60", true, 0xf1654e8e76a29202),
            ("master_200", true, 0x0fbbeb2c531d40d8),
            ("master_crowded_120", true, 0x45901a95f19b78dd),
            ("identity_50", true, 0x689b209fcdaeb2d7),
            ("permuted_singletons_40", true, 0xaae400e9b4f687dc),
            ("circulant_25", true, 0xe35ee48bd97192dc),
            ("circulant_signed_27", true, 0xc989f1b184de8f21),
            ("widened_search_3", true, 0x1bcd579ab9d728aa),
            ("widened_then_singular_3", false, 0xa8c7f832281a39c5),
            ("tiny_fill_dropped_3", true, 0xd61782062a6409e4),
            ("empty_after_singletons_12", false, 0xa8c7f832281a39c5),
            ("duplicates_and_zeros_16", true, 0x3d764e09a9794616),
            ("singular_mid_elimination_10", false, 0xa8c7f832281a39c5),
            ("integer_14_a", true, 0x84a85724288a8922),
            ("integer_14_b", true, 0x92d1e4276668ccc3),
            ("integer_14_c", true, 0xb5de1483b0574b08),
            ("magnitude_spread_30", true, 0x34d076a6ab69e06d),
        ];
        let mut reused = ForrestTomlinLu::default();
        let mut got = Vec::new();
        for (name, cols) in pinned_cases() {
            let m = cols.len();
            let mut fresh = ForrestTomlinLu::default();
            let ok = fresh.refactor(m, &cols);
            let print = factor_fingerprint(&fresh);
            assert_eq!(reused.refactor(m, &cols), ok, "{name}: reused verdict");
            assert_eq!(factor_fingerprint(&reused), print, "{name}: reused factors");
            got.push((name, ok, print));
        }
        let listing: String = got
            .iter()
            .map(|(name, ok, print)| format!("(\"{name}\", {ok}, {print:#018x}),\n"))
            .collect();
        assert_eq!(got.len(), PINNED.len(), "case list changed:\n{listing}");
        for (&(name, ok, print), &(want_name, want_ok, want_print)) in got.iter().zip(PINNED) {
            assert_eq!(name, want_name, "case order changed:\n{listing}");
            assert_eq!(
                (ok, print),
                (want_ok, want_print),
                "{name}: factors moved:\n{listing}"
            );
        }
    }

    /// How [`slack_heavy_basis`] disturbs its basis.
    #[derive(Clone, Copy, Debug)]
    enum Disturbance {
        None,
        /// A column copied to a second position, scaled by 1.25–1.75, plus
        /// a unit entry on that position's own row: nonsingular (the pair
        /// spans what a slack there would), but all other rows repeat.
        NearDuplicate,
        /// The same, unscaled: singular.
        Duplicate,
        /// A numerically empty column (no entries, an explicit zero, or a
        /// pair that sums to zero) behind `SEARCH_COLS` singletons:
        /// singular.
        EmptyAfterSingletons,
    }

    /// A slack-heavy basis: unit slacks with `bundle_pct` percent of the
    /// positions replaced by bundle columns of 2–8 rows (1.0 on the
    /// position's own row, coefficients in ±[0.1, 1) elsewhere), then
    /// disturbed. Returns the columns and whether they are singular by
    /// construction.
    fn slack_heavy_basis(
        seed: u64,
        m: usize,
        bundle_pct: usize,
        disturbance: Disturbance,
    ) -> (Vec<SparseColumn>, bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cols: Vec<SparseColumn> = Vec::with_capacity(m);
        for own in 0..m {
            let mut col: SparseColumn = vec![(own, 1.0)];
            if rng.random_range(0..100usize) < bundle_pct {
                let len = rng.random_range(2usize..9).min(m);
                while col.len() < len {
                    let r = rng.random_range(0..m);
                    if col.iter().all(|e| e.0 != r) {
                        let v = rng.random_range(0.1..1.0);
                        col.push((r, if rng.random_bool(0.5) { v } else { -v }));
                    }
                }
            }
            cols.push(col);
        }
        let searched = ForrestTomlinLu::SEARCH_COLS;
        let singular = match disturbance {
            Disturbance::None => false,
            Disturbance::NearDuplicate | Disturbance::Duplicate if m >= 2 => {
                let from = rng.random_range(0..m);
                let to = (from + 1 + rng.random_range(0..m - 1)) % m;
                let mut copy = cols[from].clone();
                if let Disturbance::NearDuplicate = disturbance {
                    let scale = rng.random_range(1.25..1.75);
                    for e in &mut copy {
                        e.1 *= scale;
                    }
                    copy.push((to, 1.0));
                }
                cols[to] = copy;
                matches!(disturbance, Disturbance::Duplicate)
            }
            Disturbance::EmptyAfterSingletons if m > searched => {
                for (c, col) in cols.iter_mut().enumerate().take(searched) {
                    *col = vec![(c, 1.0)];
                }
                let at = rng.random_range(searched..m);
                let r = rng.random_range(0..m);
                cols[at] = match rng.random_range(0..3usize) {
                    0 => Vec::new(),
                    1 => vec![(r, 0.0)],
                    _ => vec![(r, 1.0), (r, -1.0)],
                };
                true
            }
            _ => false,
        };
        (cols, singular)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// On slack-heavy bases up to m = 300: a successful rebuild solves
        /// exactly (FTRAN and BTRAN residuals against the basis columns,
        /// dense and indexed), and a failed one — always the verdict on a
        /// basis singular by construction — leaves the empty state whose
        /// solves write zeros.
        #[test]
        fn prop_refactor_solves_or_empties_on_slack_heavy_bases(
            seed in 0u64..1_000_000,
            m in 1usize..300,
            bundle_pct in 0usize..70,
            kind in 0u8..4,
        ) {
            let disturbance = [
                Disturbance::None,
                Disturbance::NearDuplicate,
                Disturbance::Duplicate,
                Disturbance::EmptyAfterSingletons,
            ][kind as usize];
            let (cols, singular) = slack_heavy_basis(seed, m, bundle_pct, disturbance);
            let mut factor = ForrestTomlinLu::default();
            let ok = factor.refactor(m, &cols);
            proptest::prop_assert!(!(ok && singular), "a singular basis factorized");
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFAC7);
            let a: SparseColumn = (0..1 + m / 20)
                .map(|_| (rng.random_range(0..m), rng.random_range(-2.0..2.0)))
                .collect();
            let cb: Vec<f64> = (0..m).map(|_| rng.random_range(-2.0..2.0)).collect();
            let r = rng.random_range(0..m);
            let mut w = vec![f64::NAN; m];
            let mut y = vec![f64::NAN; m];
            let mut w_sv = SparseVector::zeros(m);
            let mut rho_sv = SparseVector::zeros(m);
            let mut sc = SolveScratch::default();
            factor.ftran_sparse(&a, &mut w, &mut sc);
            factor.btran(&cb, &mut y, &mut sc);
            factor.ftran_sparse_into(&a, &mut w_sv, &mut sc);
            factor.btran_unit_into(r, &mut rho_sv, &mut sc);
            if !ok {
                proptest::prop_assert_eq!(factor.num_rows(), 0);
                let mut w_dense = vec![f64::NAN; m];
                factor.ftran_dense(&cb, &mut w_dense, &mut sc);
                let mut rho = vec![f64::NAN; m];
                factor.btran_unit(r, &mut rho, &mut sc);
                for v in [&w, &y, &w_dense, &rho, w_sv.values(), rho_sv.values()] {
                    proptest::prop_assert!(v.iter().all(|&x| x == 0.0), "a failed rebuild must solve to zeros");
                }
                return Ok(());
            }
            proptest::prop_assert_eq!(factor.num_rows(), m);
            let mut dense_a = vec![0.0f64; m];
            for &(i, v) in &a {
                dense_a[i] += v;
            }
            let bw = apply_b(m, &cols, &w);
            let bw_sv = apply_b(m, &cols, w_sv.values());
            for i in 0..m {
                proptest::prop_assert!((bw[i] - dense_a[i]).abs() < 1e-8, "ftran residual at {}", i);
                proptest::prop_assert!((bw_sv[i] - dense_a[i]).abs() < 1e-8, "indexed ftran residual at {}", i);
            }
            for (c, col) in cols.iter().enumerate() {
                let dot: f64 = col.iter().map(|&(i, v)| y[i] * v).sum();
                proptest::prop_assert!((dot - cb[c]).abs() < 1e-8, "btran residual at {}", c);
                let unit: f64 = col.iter().map(|&(i, v)| rho_sv.value(i) * v).sum();
                let want = if c == r { 1.0 } else { 0.0 };
                proptest::prop_assert!((unit - want).abs() < 1e-8, "pivot-row btran residual at {}", c);
            }
        }
    }
}
