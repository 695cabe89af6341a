//! Fractional VCG: the truthful payment rule on the LP relaxation.
//!
//! For the LP relaxation (1)/(4), the allocation rule "solve the LP on the
//! reported valuations" is an exact welfare maximizer over the *fractional*
//! polytope, so charging classical VCG payments
//!
//! ```text
//!   p_v = OPT_LP(without v) − (OPT_LP(all) − value_v(x*))
//! ```
//!
//! makes truthful reporting a dominant strategy for the fractional rule.
//! The Lavi–Swamy mechanism scales both the allocation (via the
//! decomposition of `x*/α`) and the payments by the same factor, preserving
//! truthfulness in expectation.

use serde::{Deserialize, Serialize};
use ssa_core::lp_formulation::{solve_relaxation_oracle, FractionalAssignment};
use ssa_core::valuation::{TabularValuation, Valuation};
use ssa_core::AuctionInstance;
use std::sync::Arc;

/// The result of the fractional VCG computation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FractionalVcg {
    /// LP optimum on the full bidder set.
    pub fractional: FractionalAssignment,
    /// Per-bidder fractional value `Σ_T b_{v,T}·x*_{v,T}`.
    pub fractional_values: Vec<f64>,
    /// LP optima with each bidder removed.
    pub objectives_without: Vec<f64>,
    /// VCG payments for the fractional rule (clamped at 0 against numerical
    /// noise).
    pub payments: Vec<f64>,
}

impl FractionalVcg {
    /// The fractional utility `value − payment` of each bidder under the
    /// fractional VCG rule.
    pub fn fractional_utilities(&self) -> Vec<f64> {
        self.fractional_values
            .iter()
            .zip(self.payments.iter())
            .map(|(v, p)| v - p)
            .collect()
    }
}

/// Replaces bidder `v`'s valuation with the zero valuation.
fn without_bidder(instance: &AuctionInstance, v: usize) -> AuctionInstance {
    let mut bidders = instance.bidders.clone();
    bidders[v] =
        Arc::new(TabularValuation::new(instance.num_channels, Vec::new())) as Arc<dyn Valuation>;
    AuctionInstance::new(
        instance.num_channels,
        bidders,
        instance.conflicts.clone(),
        instance.ordering.clone(),
        instance.rho,
    )
}

/// Computes the fractional VCG payments: one LP solve for the full instance
/// and one per bidder with that bidder removed.
pub fn fractional_vcg(instance: &AuctionInstance) -> FractionalVcg {
    let fractional = solve_relaxation_oracle(instance);
    let n = instance.num_bidders();
    let mut fractional_values = vec![0.0; n];
    for e in &fractional.entries {
        fractional_values[e.bidder] += e.value * e.x;
    }
    let mut objectives_without = vec![0.0; n];
    let mut payments = vec![0.0; n];
    for v in 0..n {
        // A bidder with zero fractional value cannot affect the optimum and
        // pays nothing; skip the expensive re-solve.
        if fractional_values[v] <= 1e-12 {
            objectives_without[v] = fractional.objective;
            payments[v] = 0.0;
            continue;
        }
        let reduced = without_bidder(instance, v);
        let sol = solve_relaxation_oracle(&reduced);
        objectives_without[v] = sol.objective;
        let externality = sol.objective - (fractional.objective - fractional_values[v]);
        payments[v] = externality.max(0.0);
    }
    FractionalVcg {
        fractional,
        fractional_values,
        objectives_without,
        payments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_conflict_graph::{ConflictGraph, VertexOrdering};
    use ssa_core::instance::ConflictStructure;
    use ssa_core::valuation::XorValuation;
    use ssa_core::ChannelSet;

    fn xor_bidder(k: usize, bids: Vec<(Vec<usize>, f64)>) -> Arc<dyn Valuation> {
        Arc::new(XorValuation::new(
            k,
            bids.into_iter()
                .map(|(chs, v)| (ChannelSet::from_channels(chs), v))
                .collect(),
        ))
    }

    /// Clique of 2 bidders, 1 channel: an ordinary single-item auction. The
    /// LP optimum with the identity ordering serves both fractionally, so
    /// this test uses a clique with 3 bidders where the ordering effects are
    /// still simple enough to reason about payments being bounded by values.
    #[test]
    fn payments_are_nonnegative_and_bounded_by_values() {
        let g = ConflictGraph::clique(3);
        let bidders = vec![
            xor_bidder(1, vec![(vec![0], 10.0)]),
            xor_bidder(1, vec![(vec![0], 6.0)]),
            xor_bidder(1, vec![(vec![0], 3.0)]),
        ];
        let inst = AuctionInstance::new(
            1,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(3),
            1.0,
        );
        let vcg = fractional_vcg(&inst);
        assert_eq!(vcg.payments.len(), 3);
        for v in 0..3 {
            assert!(vcg.payments[v] >= -1e-9, "VCG payments are non-negative");
            assert!(
                vcg.payments[v] <= vcg.fractional_values[v] + 1e-6,
                "bidder {v} pays {} more than its fractional value {}",
                vcg.payments[v],
                vcg.fractional_values[v]
            );
        }
        // fractional utilities are individually rational
        for u in vcg.fractional_utilities() {
            assert!(u >= -1e-6);
        }
    }

    #[test]
    fn bidders_without_competition_pay_nothing() {
        // no conflicts and disjoint desired channels: removing a bidder does
        // not help the others, so the externality (and payment) is zero
        let g = ConflictGraph::new(3);
        let bidders = vec![
            xor_bidder(3, vec![(vec![0], 4.0)]),
            xor_bidder(3, vec![(vec![1], 5.0)]),
            xor_bidder(3, vec![(vec![2], 6.0)]),
        ];
        let inst = AuctionInstance::new(
            3,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(3),
            1.0,
        );
        let vcg = fractional_vcg(&inst);
        for v in 0..3 {
            assert!(
                vcg.payments[v].abs() < 1e-6,
                "payment {} should be 0",
                vcg.payments[v]
            );
        }
        assert!((vcg.fractional.objective - 15.0).abs() < 1e-6);
    }

    #[test]
    fn truthful_reporting_maximizes_fractional_utility() {
        // The fractional rule is exactly truthful: misreporting (scaling the
        // valuation) never increases utility measured with the true values.
        let g = ConflictGraph::clique(2);
        let true_value = 8.0;
        let rival_value = 5.0;
        let make_instance = |reported: f64| {
            let bidders = vec![
                xor_bidder(1, vec![(vec![0], reported)]),
                xor_bidder(1, vec![(vec![0], rival_value)]),
            ];
            AuctionInstance::new(
                1,
                bidders,
                ConflictStructure::Binary(g.clone()),
                VertexOrdering::identity(2),
                1.0,
            )
        };
        // utility of bidder 0 under the fractional VCG rule with true value
        let utility_of = |reported: f64| {
            let inst = make_instance(reported);
            let vcg = fractional_vcg(&inst);
            // true utility: true value times the fractional share received,
            // minus the payment
            let share = if reported > 0.0 {
                vcg.fractional_values[0] / reported
            } else {
                0.0
            };
            true_value * share - vcg.payments[0]
        };
        let truthful = utility_of(true_value);
        for misreport in [0.5, 2.0, 4.0, 6.0, 12.0, 20.0] {
            let lied = utility_of(misreport);
            assert!(
                lied <= truthful + 1e-6,
                "misreporting {misreport} gives utility {lied} > truthful {truthful}"
            );
        }
    }
}
