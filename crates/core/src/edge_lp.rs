//! The classical *edge-based* LP relaxation for weighted independent set
//! (Section 2.1 of the paper), used as a baseline.
//!
//! For a single channel the edge LP is
//!
//! ```text
//!   max  Σ_v b_v · x_v    s.t.  x_u + x_v ≤ 1 for every edge {u, v},  0 ≤ x ≤ 1
//! ```
//!
//! Its integrality gap is `n/2` already on a clique (all `x_v = 1/2`), which
//! is the paper's motivation for the inductive-independence-number LP. The
//! multi-channel generalization used here treats the channels independently
//! and rounds each channel's LP greedily. Experiment E11 compares this
//! baseline against the paper's relaxation.

use crate::allocation::Allocation;
use crate::instance::AuctionInstance;
use ssa_lp::{GeneratedColumn, MasterProblem, Relation, Sense};

/// Result of the edge-based LP baseline.
#[derive(Clone, Debug)]
pub struct EdgeLpOutcome {
    /// The (per-channel independently) rounded feasible allocation.
    pub allocation: Allocation,
    /// Social welfare of the allocation.
    pub welfare: f64,
    /// Sum of the per-channel edge-LP optima (an upper bound for
    /// *single-minded, per-channel additive* instances only — reported for
    /// comparison, not as a certified bound).
    pub lp_objective: f64,
    /// Simplex pivots of each per-channel edge-LP solve. With symmetric
    /// channels the constraint rows are identical across channels, so every
    /// channel after the first re-prices its predecessor's master and
    /// resumes from its optimal basis and factorization — these counts make
    /// that cross-channel batching win measurable.
    pub per_channel_iterations: Vec<usize>,
}

/// The conflict edges `(v, u)`, `v < u`, of one channel's edge LP.
fn channel_edges(instance: &AuctionInstance, channel: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for v in 0..instance.num_bidders() {
        for u in instance.conflicts.interacting(v, channel) {
            if u > v && instance.conflicts.symmetric_weight(u, v, channel) >= 1.0 {
                edges.push((v, u));
            }
        }
    }
    edges
}

/// The single-channel edge LP over `edges` as a master: one bound row
/// `x_v ≤ 1` per bidder, then one row per edge, and one column per bidder
/// (tagged by its index) with objective 0 until it is priced.
fn edge_lp_master(n: usize, edges: &[(usize, usize)]) -> MasterProblem {
    let rows = vec![(Relation::Le, 1.0); n + edges.len()];
    let mut master = MasterProblem::new(Sense::Maximize, rows);
    let mut coeffs: Vec<Vec<(usize, f64)>> = (0..n).map(|v| vec![(v, 1.0)]).collect();
    for (e, &(v, u)) in edges.iter().enumerate() {
        coeffs[v].push((n + e, 1.0));
        coeffs[u].push((n + e, 1.0));
    }
    for (v, coeffs) in coeffs.into_iter().enumerate() {
        master.add_column(GeneratedColumn {
            objective: 0.0,
            coeffs,
            tag: v as u64,
        });
    }
    master
}

/// Runs the edge-LP baseline: per channel, solve the edge LP on the bidders'
/// marginal values for that channel, then round greedily by decreasing
/// fractional value subject to feasibility.
///
/// Per-channel LPs share their bound rows, and with symmetric conflict
/// structures their edge rows too. While the rows repeat, one master serves
/// the channel sequence: only the objective (the marginal weights) changes,
/// so each channel re-prices the master's columns and resumes from the
/// previous channel's optimal basis and factorization. A channel whose
/// edges differ gets a fresh master, solved cold.
pub fn edge_lp_baseline(instance: &AuctionInstance) -> EdgeLpOutcome {
    let n = instance.num_bidders();
    let mut allocation = Allocation::empty(n);
    let mut lp_objective = 0.0;
    let mut per_channel_iterations = Vec::with_capacity(instance.num_channels);
    let mut shared: Option<(Vec<(usize, usize)>, MasterProblem)> = None;
    for j in 0..instance.num_channels {
        let weights: Vec<f64> = (0..n)
            .map(|v| {
                let current = allocation.bundle(v);
                instance.value(v, current.with(j)) - instance.value(v, current)
            })
            .collect();
        let edges = channel_edges(instance, j);
        if shared.as_ref().is_none_or(|(prev, _)| *prev != edges) {
            let master = edge_lp_master(n, &edges);
            shared = Some((edges, master));
        }
        let (_, master) = shared.as_mut().expect("a master for this channel");
        for (v, &w) in weights.iter().enumerate() {
            master.set_column_objective(v, w.max(0.0));
        }
        let solution = master.solve();
        per_channel_iterations.push(solution.stats.simplex_iterations);
        lp_objective += solution.objective;
        let x = solution.x;
        // round: consider bidders by decreasing x_v * weight, add if feasible
        let mut order: Vec<usize> = (0..n)
            .filter(|&v| weights[v] > 0.0 && x[v] > 1e-9)
            .collect();
        order.sort_by(|&a, &b| {
            (x[b] * weights[b])
                .partial_cmp(&(x[a] * weights[a]))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut winners: Vec<usize> = Vec::new();
        for v in order {
            let mut trial = winners.clone();
            trial.push(v);
            if instance.conflicts.is_channel_feasible(&trial, j) {
                winners = trial;
                allocation.set_bundle(v, allocation.bundle(v).with(j));
            }
        }
    }
    let welfare = allocation.social_welfare(instance);
    EdgeLpOutcome {
        allocation,
        welfare,
        lp_objective,
        per_channel_iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::ChannelSet;
    use crate::instance::ConflictStructure;
    use crate::valuation::{UnitDemandValuation, Valuation, XorValuation};
    use ssa_conflict_graph::{ConflictGraph, VertexOrdering};
    use std::sync::Arc;

    #[test]
    fn clique_integrality_gap_shows_up_in_lp_objective() {
        // clique of 6 bidders, one channel, unit values: the edge LP optimum
        // is n/2 = 3 although only one bidder can win.
        let n = 6;
        let g = ConflictGraph::clique(n);
        let bidders: Vec<Arc<dyn Valuation>> = (0..n)
            .map(|_| {
                Arc::new(XorValuation::new(1, vec![(ChannelSet::singleton(0), 1.0)]))
                    as Arc<dyn Valuation>
            })
            .collect();
        let inst = AuctionInstance::new(
            1,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(n),
            1.0,
        );
        let out = edge_lp_baseline(&inst);
        assert!((out.lp_objective - n as f64 / 2.0).abs() < 1e-5);
        assert!(out.allocation.is_feasible(&inst));
        assert!(
            (out.welfare - 1.0).abs() < 1e-9,
            "only one clique member can win"
        );
    }

    #[test]
    fn independent_bidders_all_win() {
        let n = 4;
        let g = ConflictGraph::new(n);
        let bidders: Vec<Arc<dyn Valuation>> = (0..n)
            .map(|i| {
                Arc::new(UnitDemandValuation::new(vec![1.0 + i as f64, 0.5])) as Arc<dyn Valuation>
            })
            .collect();
        let inst = AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(n),
            1.0,
        );
        let out = edge_lp_baseline(&inst);
        assert!(out.allocation.is_feasible(&inst));
        assert!((out.welfare - (1.0 + 2.0 + 3.0 + 4.0)).abs() < 1e-9);
    }

    /// A 6-cycle with single-channel bidders: the even bidders want channel
    /// 0 and the odd ones channel 1, so each channel's edge LP is optimal on
    /// an independent set — 1 + 2.4 + 3.8 on channel 0 and 1.7 + 3.1 + 4.5
    /// on channel 1, which re-prices and resumes channel 0's master.
    #[test]
    fn baseline_matches_the_hand_computed_edge_lp_optimum() {
        let g = ConflictGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let bidders: Vec<Arc<dyn Valuation>> = (0..6)
            .map(|i| {
                Arc::new(XorValuation::new(
                    2,
                    vec![(ChannelSet::singleton(i % 2), 1.0 + i as f64 * 0.7)],
                )) as Arc<dyn Valuation>
            })
            .collect();
        let inst = AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(6),
            1.0,
        );
        let out = edge_lp_baseline(&inst);
        assert!(out.allocation.is_feasible(&inst));
        assert!(
            (out.lp_objective - 16.5).abs() < 1e-6,
            "{} vs 16.5",
            out.lp_objective
        );
    }

    #[test]
    fn allocation_is_always_feasible_on_paths() {
        let g = ConflictGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let bidders: Vec<Arc<dyn Valuation>> = (0..5)
            .map(|i| {
                Arc::new(XorValuation::new(
                    2,
                    vec![(ChannelSet::singleton(i % 2), 1.0 + (i as f64) * 0.3)],
                )) as Arc<dyn Valuation>
            })
            .collect();
        let inst = AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(5),
            1.0,
        );
        let out = edge_lp_baseline(&inst);
        assert!(out.allocation.is_feasible(&inst));
        assert!(out.welfare > 0.0);
    }
}
