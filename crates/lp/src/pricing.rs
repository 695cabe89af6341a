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
//! rule as closures, so the rule never sees the basis factorization. After
//! `stall_threshold` pivots without objective improvement the core bypasses
//! the rule with Bland's first-improving-index choice, which guarantees
//! termination.
//!
//! ## One walk per candidate column per pivot
//!
//! The weight update needs `α_j = ρ·a_j` for every list member, and the
//! next [`select_entering`](SteepestEdgePricing::select_entering) needs
//! `rc_j = c_j − y'·a_j` for the same members under the updated duals.
//! Both are dot products over column `j`'s entries, so the core updates
//! `y` before the weight pass and hands
//! [`notify_pivot`](SteepestEdgePricing::notify_pivot) one closure that
//! returns `(α_j, rc_j)` from a single walk of the column, in the entry
//! order and with the operations of the core's own reduced-cost closure
//! (so the value is bit-equal to what that closure would return). The rule
//! stores the pass per list member and the next `select_entering` reads the
//! stored reduced costs instead of walking the list's columns again; only
//! the refill scan calls `rc(j)`.
//!
//! The stored values are valid from a fused pass (`fused` true in
//! `notify_pivot`) until the next `select_entering`, which consumes them,
//! and the core drops them
//! ([`invalidate_reduced_costs`](SteepestEdgePricing::invalidate_reduced_costs))
//! whenever it recomputes `y` by a full BTRAN. A non-fused pivot leaves
//! none. Under `debug_assertions` `select_entering` checks every stored
//! value against a fresh `rc(j)` bit for bit. The pass is mapped through
//! the work-stealing pool in chunks of at least the `min_len` members the
//! core asks for, so only a long list of dense columns leaves the calling
//! thread; the weight update still reads the pass in list order, so weights
//! and ties do not depend on the pool size.
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

use rayon::prelude::*;

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
    /// The last pivot's pass, `(α_j, rc_j)` per list member in list order.
    pass: Vec<(f64, f64)>,
    /// Whether `pass` holds the reduced costs the next
    /// [`select_entering`](Self::select_entering) would compute.
    rc_valid: bool,
    /// The list's second buffer: `select_entering` writes the kept members
    /// here and swaps it with `candidates`.
    spare: Vec<usize>,
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
        self.pass.clear();
        self.rc_valid = false;
    }

    /// Drops the reduced costs stored by the last fused
    /// [`notify_pivot`](Self::notify_pivot): the core calls this whenever it
    /// recomputes the duals from scratch.
    pub fn invalidate_reduced_costs(&mut self) {
        self.rc_valid = false;
    }

    /// Chooses the entering column, or `None` when provably optimal.
    ///
    /// `eligible(j)` is `true` for nonbasic columns the current phase
    /// allows to enter; `rc(j)` is the reduced cost of column `j` under the
    /// current duals (maximization convention: improving means `rc > tol`).
    /// `None` is returned **only** when no eligible column is improving —
    /// the simplex core takes it as proof of optimality for the phase.
    ///
    /// The list pass reads the reduced costs stored by the last fused
    /// [`notify_pivot`](Self::notify_pivot) while they are valid, and
    /// consumes them; the refill scan always calls `rc(j)`.
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
        let stored = std::mem::take(&mut self.rc_valid);
        let mut best: Option<(usize, f64)> = None;
        let mut kept = std::mem::take(&mut self.spare);
        kept.clear();
        for (i, &j) in self.candidates.iter().enumerate() {
            if !eligible(j) {
                self.in_list[j] = false;
                continue;
            }
            let r = if stored {
                let r = self.pass[i].1;
                debug_assert_eq!(
                    r.to_bits(),
                    rc(j).to_bits(),
                    "stored reduced cost of column {j} is stale"
                );
                r
            } else {
                rc(j)
            };
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
        self.spare = std::mem::replace(&mut self.candidates, kept);

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
    /// nonbasic), and `alpha_entering` is the pivot element.
    ///
    /// `pass(j)` walks column `j` once and returns `(α_j, rc_j)`: the pivot
    /// row `(eᵣᵀ B⁻¹ A)_j` of the outgoing basis and, when `fused`, the
    /// reduced cost under the duals the core has already updated for this
    /// pivot (otherwise `rc_j` is meaningless). The core dots column `j`
    /// against its indexed BTRAN image, so each call costs `O(nnz(A_j))`
    /// however dense `eᵣᵀ B⁻¹` came out. The pass covers every list member
    /// but `entering` and is mapped through the work-stealing pool in chunks
    /// of at least `min_len` members (a shorter list runs inline), into a
    /// buffer in list order; the weight update then reads it sequentially,
    /// and the next [`select_entering`](Self::select_entering) reads its
    /// reduced costs if `fused`.
    pub fn notify_pivot(
        &mut self,
        entering: usize,
        leaving: usize,
        alpha_entering: f64,
        fused: bool,
        min_len: usize,
        pass: &(dyn Fn(usize) -> (f64, f64) + Sync),
    ) {
        self.rc_valid = false;
        if alpha_entering.abs() <= 1e-12 {
            return;
        }
        self.candidates
            .par_iter()
            .with_min_len(min_len)
            .map(|&j| if j == entering { (0.0, 0.0) } else { pass(j) })
            .collect_into_vec(&mut self.pass);
        self.rc_valid = fused;
        // exact γ_q when the core observed this column's FTRAN, else the
        // stored reference weight
        let gq = if self.entering_col == entering {
            self.entering_norm
        } else {
            self.weights.get(entering).copied().unwrap_or(1.0).max(1.0)
        };
        let inv_aq2 = 1.0 / (alpha_entering * alpha_entering);
        for (&j, &(aj, _)) in self.candidates.iter().zip(&self.pass) {
            if j == entering {
                continue;
            }
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
            // a column is listed at most once; its pass entry goes with it
            if let Some(i) = self.candidates.iter().position(|&j| j == entering) {
                self.candidates.remove(i);
                self.pass.remove(i);
            }
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
        p.notify_pivot(0, 1, 2.0, false, 1, &|j| ([2.0, 1.0, 0.0][j], 0.0));
        // candidate 2 was in the list with α_2 = 0 → untouched (weight 1);
        // candidate 1: α_1 = 1 → max(1, (1/2)²·4) = 1 (no increase beyond 1)
        // leaving weight: max(γ_q/α_q², 1) = max(4/4, 1) = 1
        assert!((p.weights[1] - 1.0).abs() < 1e-12);
        // now a pivot with a stronger row: α_entering = 0.5
        p.observe_entering(2, 15.0); // γ_2 = 16
        p.notify_pivot(2, 0, 0.5, false, 1, &|j| ([0.0, 1.0, 0.5][j], 0.0));
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

    /// The stored reduced costs live from a fused pivot to the next
    /// select: that select, the invalidation call and a non-fused pivot
    /// each drop them.
    #[test]
    fn stored_reduced_costs_live_from_a_fused_pivot_to_the_next_select() {
        // columns 0–3 are improving; column 4 is the basic leaving column
        let rc = [3.0, 1.0, 2.0, 0.5, -1.0];
        let next = [0.0, 0.25, 1.5, 0.75, -2.0];
        let pass = |j: usize| (0.5, next[j]);
        let listed = || {
            let mut p = SteepestEdgePricing::default();
            p.reset(rc.len());
            assert_eq!(
                p.select_entering(rc.len(), 1e-9, &|j| j != 4, &|j| rc[j]),
                Some(0)
            );
            assert_eq!(p.candidates, vec![0, 1, 2, 3]);
            assert!(!p.rc_valid);
            p
        };

        // a fused pivot, inline or on the pool, stores (α_j, rc_j) per
        // remaining member in list order, and drops the entering column's
        // entry
        for min_len in [usize::MAX, 1] {
            let mut p = listed();
            p.notify_pivot(0, 4, 1.0, true, min_len, &pass);
            assert!(p.rc_valid, "min_len {min_len}");
            assert_eq!(p.candidates, vec![1, 2, 3], "min_len {min_len}");
            assert_eq!(p.pass, vec![(0.5, 0.25), (0.5, 1.5), (0.5, 0.75)]);
        }

        // the next select consumes them (and agrees with `rc` on them)
        let mut p = listed();
        p.notify_pivot(0, 4, 1.0, true, 1, &pass);
        let pick = p.select_entering(rc.len(), 1e-9, &|j| j > 0 && j != 4, &|j| next[j]);
        assert_eq!(pick, Some(2));
        assert!(!p.rc_valid);

        // the invalidation call drops them
        p.notify_pivot(2, 4, 1.0, true, 1, &pass);
        assert!(p.rc_valid);
        p.invalidate_reduced_costs();
        assert!(!p.rc_valid);

        // and so does a pivot whose pass fused no reduced costs
        p.notify_pivot(1, 4, 1.0, true, 1, &pass);
        assert!(p.rc_valid);
        p.notify_pivot(3, 4, 1.0, false, 1, &pass);
        assert!(!p.rc_valid);
    }

    /// Debug builds check every stored reduced cost against a fresh `rc(j)`.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is stale")]
    fn a_stale_stored_reduced_cost_fails_the_debug_check() {
        let rc = [3.0, 1.0, 2.0];
        let mut p = SteepestEdgePricing::default();
        p.reset(rc.len());
        assert_eq!(p.select_entering(3, 1e-9, &|_| true, &|j| rc[j]), Some(0));
        // the pass reports 7.0 for column 1, but `rc` says 1.0
        p.notify_pivot(0, 2, 1.0, true, 1, &|j| (0.5, [0.0, 7.0, 2.0][j]));
        let _ = p.select_entering(3, 1e-9, &|j| j != 0, &|j| rc[j]);
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
