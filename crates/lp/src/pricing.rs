//! Primal steepest-edge pricing for the revised simplex.
//!
//! Pricing decides which nonbasic column enters the basis each pivot.
//! [`SteepestEdgePricing`] keeps a **candidate list** (partial pricing): a
//! rotating window of columns is scanned to keep a short list of improving
//! candidates, and the entering column maximizes `rc² / γ_j`. The weights
//! track the exact edge norms `γ_j = 1 + ‖B⁻¹ a_j‖²`, initialized
//! **exactly** at the slack basis (`B = I ⇒ γ_j = 1 + ‖a_j‖²`), updated per
//! pivot with the Forrest–Goldfarb reference formulas driven by quantities
//! the core already computes (the entering column's FTRAN image gives the
//! exact `γ_q`; the pivot-row BTRAN gives the `α_j`), and **reset to exact
//! values** for the candidate set at every scheduled refactorization. No
//! extra linear solves per pivot. Optimality is still exact: the rule only
//! reports "no entering column" after a full wrap over every column found
//! nothing improving.
//!
//! The simplex core owns the reduced-cost computation and hands it to the
//! rule as a closure, so the rule never sees the basis factorization. After
//! `stall_threshold` pivots without objective improvement the core bypasses
//! the rule with Bland's first-improving-index choice, which guarantees
//! termination.
//!
//! ## Steepest-edge weight updates in formulas
//!
//! After a pivot with entering column `q`, leaving slot `l`, pivot row `α`
//! (`α_j = (e_lᵀ B⁻¹ A)_j`) and exact entering norm `γ_q = 1 + ‖B⁻¹ a_q‖²`
//! (one dot product over the FTRAN image, no extra solve), the reference
//! bounds are
//!
//! ```text
//! γ_j  ← max(γ_j, (α_j / α_q)² · γ_q)        (candidates j ≠ q)
//! γ_l  ← max(γ_q / α_q², 1)                  (the leaving variable)
//! ```
//!
//! — the same Forrest–Goldfarb scheme the dual row repair of
//! [`crate::simplex`] uses for its dual steepest-edge weights. The `max` form drops the exact
//! cross term (which would need a second BTRAN per pivot) but never
//! *under*-estimates a norm that the update touches, and the periodic exact
//! reset at refactorization stops long-run drift.

/// Primal steepest-edge pricing with a candidate list.
///
/// The weights approximate the exact edge norms `γ_j = 1 + ‖B⁻¹a_j‖²` (so
/// the entering column maximizes `rc_j² / γ_j`, the squared objective rate
/// of change per unit distance along the edge). Three exactness anchors
/// keep them honest without any extra linear solves:
///
/// 1. **Slack-basis seed** — at a cold start `B = I`, so
///    [`seed_reference_weights`](Self::seed_reference_weights) installs
///    the exact `1 + ‖a_j‖²` for every column.
/// 2. **Exact entering norm** — the core reports `‖B⁻¹a_e‖²` of the
///    entering column's FTRAN image each pivot
///    ([`observe_entering`](Self::observe_entering)); the
///    Forrest–Goldfarb candidate/leaving updates in
///    [`notify_pivot`](Self::notify_pivot) are driven by that exact
///    `γ_q` rather than a drifting estimate.
/// 3. **Refactorization reset** — each scheduled refactor, the candidate
///    list's weights are recomputed exactly from the fresh factors
///    ([`notify_refactor`](Self::notify_refactor)); the work is bounded
///    by the list length, which partial pricing already caps.
///
/// The candidate list is refilled from a rotating cursor whenever it runs
/// thin, and an empty full-wrap scan certifies optimality exactly like a
/// full scan would.
#[derive(Clone, Debug, Default)]
pub struct SteepestEdgePricing {
    weights: Vec<f64>,
    candidates: Vec<usize>,
    in_list: Vec<bool>,
    cursor: usize,
    /// Largest weight seen since the last framework reset.
    max_weight: f64,
    /// Exact `γ_q = 1 + ‖B⁻¹a_q‖²` of the last observed entering column.
    entering_norm: f64,
    /// Which column `entering_norm` belongs to.
    entering_col: usize,
}

impl SteepestEdgePricing {
    /// Weights above this trigger a reference-framework reset (matches the
    /// dual steepest-edge reset of the dual row repair in
    /// [`crate::simplex`]).
    const WEIGHT_RESET: f64 = 1e12;

    /// Refill chunk: how many *new improving* candidates one select call
    /// tries to harvest before stopping the scan (half the column count:
    /// a thinner list keeps entering columns with stale scores and pays for
    /// it in pivots).
    fn chunk(n_total: usize) -> usize {
        (n_total / 2).clamp(64, 2048)
    }

    /// Keep scanning while the list is thinner than this.
    fn min_keep(n_total: usize) -> usize {
        (n_total / 8).clamp(16, 256)
    }

    /// Resets per-solve state for a problem with `n_total` columns.
    pub fn reset(&mut self, n_total: usize) {
        self.weights.clear();
        self.weights.resize(n_total, 1.0);
        self.candidates.clear();
        self.in_list.clear();
        self.in_list.resize(n_total, false);
        self.cursor = 0;
        self.max_weight = 1.0;
        self.entering_norm = 1.0;
        self.entering_col = usize::MAX;
    }

    /// Chooses the entering column, or `None` when provably optimal.
    ///
    /// `eligible(j)` is `true` for nonbasic columns the current phase
    /// allows to enter; `rc(j)` is the reduced cost of column `j` under the
    /// current duals (maximization convention: improving means `rc > tol`).
    /// `None` is returned **only** when no eligible column is improving —
    /// the simplex core takes it as proof of optimality for the phase.
    pub fn select_entering(
        &mut self,
        n_total: usize,
        tol: f64,
        eligible: &dyn Fn(usize) -> bool,
        rc: &dyn Fn(usize) -> f64,
    ) -> Option<usize> {
        if self.weights.len() != n_total {
            self.weights.resize(n_total, 1.0);
            self.in_list.resize(n_total, false);
        }
        let mut best: Option<(usize, f64)> = None;
        let mut kept = Vec::with_capacity(self.candidates.len());
        for &j in &self.candidates {
            if !eligible(j) {
                self.in_list[j] = false;
                continue;
            }
            let r = rc(j);
            if r > tol {
                let score = r * r / self.weights[j];
                if best.as_ref().map(|&(_, s)| score > s).unwrap_or(true) {
                    best = Some((j, score));
                }
                kept.push(j);
            } else {
                self.in_list[j] = false;
            }
        }
        self.candidates = kept;

        // refill from the rotating cursor when the list runs thin; a full
        // wrap with nothing improving proves optimality
        if self.candidates.len() < Self::min_keep(n_total) {
            let chunk = Self::chunk(n_total);
            let mut scanned = 0usize;
            let mut found = 0usize;
            while scanned < n_total && (found < chunk || best.is_none()) {
                let j = self.cursor;
                self.cursor = (self.cursor + 1) % n_total.max(1);
                scanned += 1;
                if self.in_list[j] || !eligible(j) {
                    continue;
                }
                let r = rc(j);
                if r > tol {
                    self.candidates.push(j);
                    self.in_list[j] = true;
                    found += 1;
                    let score = r * r / self.weights[j];
                    if best.as_ref().map(|&(_, s)| score > s).unwrap_or(true) {
                        best = Some((j, score));
                    }
                }
            }
        }
        best.map(|(j, _)| j)
    }

    /// Whether [`notify_pivot`](Self::notify_pivot) needs the pivot row:
    /// it only feeds candidate weight updates, so the core skips the BTRAN
    /// that produces it while the list is empty.
    pub fn wants_pivot_row(&self) -> bool {
        !self.candidates.is_empty()
    }

    /// Observes a pivot: column `entering` replaced `leaving` (now
    /// nonbasic); `alpha_entering` is the pivot element and `alpha(j)`
    /// evaluates the pivot row `(eᵣᵀ B⁻¹ A)_j` at other columns. The
    /// closure dots column `j` against the core's indexed BTRAN image, so
    /// each evaluation costs `O(nnz(A_j))` however dense `eᵣᵀ B⁻¹` came out.
    pub fn notify_pivot(
        &mut self,
        entering: usize,
        leaving: usize,
        alpha_entering: f64,
        alpha: &dyn Fn(usize) -> f64,
    ) {
        if alpha_entering.abs() <= 1e-12 {
            return;
        }
        // exact γ_q when the core observed this column's FTRAN, else the
        // stored reference weight
        let gq = if self.entering_col == entering {
            self.entering_norm
        } else {
            self.weights.get(entering).copied().unwrap_or(1.0).max(1.0)
        };
        let inv_aq2 = 1.0 / (alpha_entering * alpha_entering);
        for i in 0..self.candidates.len() {
            let j = self.candidates[i];
            if j == entering {
                continue;
            }
            let aj = alpha(j);
            if aj != 0.0 {
                let cand = aj * aj * inv_aq2 * gq;
                if cand > self.weights[j] {
                    self.weights[j] = cand;
                    if cand > self.max_weight {
                        self.max_weight = cand;
                    }
                }
            }
        }
        if leaving < self.weights.len() {
            self.weights[leaving] = (gq * inv_aq2).max(1.0);
        }
        if entering < self.in_list.len() && self.in_list[entering] {
            self.in_list[entering] = false;
            self.candidates.retain(|&j| j != entering);
        }
        if self.max_weight > Self::WEIGHT_RESET {
            for w in &mut self.weights {
                *w = 1.0;
            }
            self.max_weight = 1.0;
        }
    }

    /// Seeds exact reference weights for an **identity** starting basis
    /// (`B = I ⇒ ‖B⁻¹a_j‖² = ‖a_j‖²`): `norm_sq(j)` is the squared norm of
    /// column `j` of the constraint matrix.
    pub fn seed_reference_weights(&mut self, n_total: usize, norm_sq: &dyn Fn(usize) -> f64) {
        if self.weights.len() != n_total {
            self.weights.resize(n_total, 1.0);
            self.in_list.resize(n_total, false);
        }
        for (j, w) in self.weights.iter_mut().enumerate() {
            *w = 1.0 + norm_sq(j);
        }
        self.max_weight = self.weights.iter().cloned().fold(1.0, f64::max);
    }

    /// Observes the exact squared norm `‖B⁻¹a_e‖²` of the entering column's
    /// FTRAN image, which the core computes anyway for the ratio test.
    pub fn observe_entering(&mut self, entering: usize, norm_sq: f64) {
        self.entering_col = entering;
        self.entering_norm = 1.0 + norm_sq;
        if entering < self.weights.len() {
            self.weights[entering] = self.entering_norm;
        }
    }

    /// Notifies the rule of a scheduled refactorization; `norm_sq(j)`
    /// computes the exact `‖B⁻¹a_j‖²` for one column (one sparse FTRAN
    /// against the freshly built factors).
    pub fn notify_refactor(&mut self, norm_sq: &mut dyn FnMut(usize) -> f64) {
        // exact reset for the candidate set — bounded by the list length
        // (≤ min_keep + chunk), amortized over the refactor interval
        let mut max_w = 1.0f64;
        for &j in &self.candidates {
            self.weights[j] = 1.0 + norm_sq(j);
            max_w = max_w.max(self.weights[j]);
        }
        self.max_weight = max_w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steepest_edge_seeds_exact_slack_basis_weights() {
        // column norms ‖a_j‖²: picks rc²/(1+‖a_j‖²) maximizer
        let rc = [2.0, 2.0, 1.0];
        let norms = [8.0, 0.0, 0.0];
        let mut p = SteepestEdgePricing::default();
        p.reset(rc.len());
        p.seed_reference_weights(rc.len(), &|j| norms[j]);
        assert_eq!(p.weights, vec![9.0, 1.0, 1.0]);
        // 4/9 < 4/1: column 1 wins despite the tie on reduced cost
        let pick = p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]);
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn steepest_edge_uses_exact_entering_norm_for_updates() {
        let rc = [3.0, 1.0, 2.0];
        let mut p = SteepestEdgePricing::default();
        p.reset(rc.len());
        assert_eq!(
            p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]),
            Some(0)
        );
        // core observed ‖B⁻¹a_0‖² = 3 → γ_0 = 4 exactly
        p.observe_entering(0, 3.0);
        // pivot: α_0 = 2, pivot row α = [2, 1, 0]; leaving slot maps to
        // column 1's weight slot via the leaving id
        p.notify_pivot(0, 1, 2.0, &|j| [2.0, 1.0, 0.0][j]);
        // candidate 2 was in the list with α_2 = 0 → untouched (weight 1);
        // candidate 1: α_1 = 1 → max(1, (1/2)²·4) = 1 (no increase beyond 1)
        // leaving weight: max(γ_q/α_q², 1) = max(4/4, 1) = 1
        assert!((p.weights[1] - 1.0).abs() < 1e-12);
        // now a pivot with a stronger row: α_entering = 0.5
        p.observe_entering(2, 15.0); // γ_2 = 16
        p.notify_pivot(2, 0, 0.5, &|j| [0.0, 1.0, 0.5][j]);
        // leaving weight for column 0: max(16/0.25, 1) = 64
        assert!((p.weights[0] - 64.0).abs() < 1e-12);
    }

    #[test]
    fn steepest_edge_refactor_reset_refreshes_candidates() {
        let rc = [1.0, 1.0, 1.0];
        let mut p = SteepestEdgePricing::default();
        p.reset(rc.len());
        // populate the candidate list
        let _ = p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]);
        assert!(!p.candidates.is_empty());
        p.notify_refactor(&mut |j| (j as f64) * 10.0);
        for &j in &p.candidates {
            assert!((p.weights[j] - (1.0 + j as f64 * 10.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn steepest_edge_certifies_optimality() {
        let rc = [-1.0, -0.5, 0.0];
        let mut p = SteepestEdgePricing::default();
        p.reset(rc.len());
        assert_eq!(
            p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]),
            None
        );
    }

    fn rcs() -> Vec<f64> {
        vec![-1.0, 0.5, 3.0, 0.0, 2.0, -0.2]
    }

    // The two candidate-list tests below keep the Devex names: the
    // candidate list and its reference-framework weights are the Devex
    // machinery that steepest edge refines.

    #[test]
    fn devex_ignores_ineligible_columns() {
        let rc = rcs();
        let mut p = SteepestEdgePricing::default();
        p.reset(rc.len());
        let pick = p.select_entering(rc.len(), 1e-9, &|j| j != 2, &|j| rc[j]);
        assert_eq!(pick, Some(4));
    }

    #[test]
    fn devex_candidate_list_survives_across_calls() {
        let mut rc = rcs();
        let mut p = SteepestEdgePricing::default();
        p.reset(rc.len());
        assert_eq!(
            p.select_entering(rc.len(), 1e-9, &|_| true, &|j| rc[j]),
            Some(2)
        );
        // column 2 entered the basis: mark ineligible, its candidate entry
        // must be pruned rather than returned again
        rc[2] = -5.0;
        let pick = p.select_entering(rc.len(), 1e-9, &|j| j != 2, &|j| rc[j]);
        assert_eq!(pick, Some(4));
    }
}
