//! Auction instances: bidders, channels and conflict structure.

use crate::channels::ChannelSet;
use crate::valuation::Valuation;
use ssa_conflict_graph::{ConflictGraph, VertexOrdering, WeightedConflictGraph};
use std::sync::Arc;

/// The conflict structure of an instance.
///
/// The paper treats three settings: unweighted conflict graphs (Section 2),
/// edge-weighted conflict graphs (Section 3), and *asymmetric channels*
/// where each channel has its own conflict graph (Section 6).
#[derive(Clone)]
pub enum ConflictStructure {
    /// One unweighted conflict graph shared by all channels.
    Binary(ConflictGraph),
    /// One edge-weighted conflict graph shared by all channels.
    Weighted(WeightedConflictGraph),
    /// One unweighted conflict graph per channel (asymmetric channels).
    AsymmetricBinary(Vec<ConflictGraph>),
    /// One edge-weighted conflict graph per channel (asymmetric channels).
    AsymmetricWeighted(Vec<WeightedConflictGraph>),
}

impl ConflictStructure {
    /// Number of bidders (vertices) the structure is defined over.
    pub fn num_bidders(&self) -> usize {
        match self {
            ConflictStructure::Binary(g) => g.num_vertices(),
            ConflictStructure::Weighted(g) => g.num_vertices(),
            ConflictStructure::AsymmetricBinary(gs) => gs.first().map_or(0, |g| g.num_vertices()),
            ConflictStructure::AsymmetricWeighted(gs) => gs.first().map_or(0, |g| g.num_vertices()),
        }
    }

    /// Returns `true` for the asymmetric-channel variants.
    pub fn is_asymmetric(&self) -> bool {
        matches!(
            self,
            ConflictStructure::AsymmetricBinary(_) | ConflictStructure::AsymmetricWeighted(_)
        )
    }

    /// Returns `true` for the edge-weighted variants.
    pub fn is_weighted(&self) -> bool {
        matches!(
            self,
            ConflictStructure::Weighted(_) | ConflictStructure::AsymmetricWeighted(_)
        )
    }

    /// The symmetrized weight `w̄(u, v)` on channel `j` (1.0 / 0.0 for the
    /// binary variants).
    pub fn symmetric_weight(&self, u: usize, v: usize, channel: usize) -> f64 {
        match self {
            ConflictStructure::Binary(g) => {
                if g.has_edge(u, v) {
                    1.0
                } else {
                    0.0
                }
            }
            ConflictStructure::Weighted(g) => g.symmetric_weight(u, v),
            ConflictStructure::AsymmetricBinary(gs) => {
                if gs[channel].has_edge(u, v) {
                    1.0
                } else {
                    0.0
                }
            }
            ConflictStructure::AsymmetricWeighted(gs) => gs[channel].symmetric_weight(u, v),
        }
    }

    /// Checks whether `winners` may share channel `j`.
    pub fn is_channel_feasible(&self, winners: &[usize], channel: usize) -> bool {
        match self {
            ConflictStructure::Binary(g) => g.is_independent(winners),
            ConflictStructure::Weighted(g) => g.is_independent(winners),
            ConflictStructure::AsymmetricBinary(gs) => gs[channel].is_independent(winners),
            ConflictStructure::AsymmetricWeighted(gs) => gs[channel].is_independent(winners),
        }
    }

    /// Returns the structure with bidder `v` removed from every conflict
    /// graph; bidders above `v` shift down by one (a departure in a dynamic
    /// market — see [`crate::session::AuctionSession::remove_bidder`]).
    pub fn without_bidder(&self, v: usize) -> ConflictStructure {
        match self {
            ConflictStructure::Binary(g) => ConflictStructure::Binary(g.without_vertex(v)),
            ConflictStructure::Weighted(g) => ConflictStructure::Weighted(g.without_vertex(v)),
            ConflictStructure::AsymmetricBinary(gs) => ConflictStructure::AsymmetricBinary(
                gs.iter().map(|g| g.without_vertex(v)).collect(),
            ),
            ConflictStructure::AsymmetricWeighted(gs) => ConflictStructure::AsymmetricWeighted(
                gs.iter().map(|g| g.without_vertex(v)).collect(),
            ),
        }
    }

    /// The vertices `u` that interact with `v` on channel `j` (have an edge
    /// or positive symmetric weight), used to build LP columns.
    pub fn interacting(&self, v: usize, channel: usize) -> Vec<usize> {
        match self {
            ConflictStructure::Binary(g) => g.neighbors(v).to_vec(),
            ConflictStructure::Weighted(g) => g.interacting_neighbors(v),
            ConflictStructure::AsymmetricBinary(gs) => gs[channel].neighbors(v).to_vec(),
            ConflictStructure::AsymmetricWeighted(gs) => gs[channel].interacting_neighbors(v),
        }
    }
}

/// A complete auction instance: `k` channels, one valuation per bidder, a
/// conflict structure, the ordering `π` and the inductive independence
/// number ρ that the LP relaxation should use.
#[derive(Clone)]
pub struct AuctionInstance {
    /// Number of channels `k`.
    pub num_channels: usize,
    /// One valuation per bidder.
    pub bidders: Vec<Arc<dyn Valuation>>,
    /// The conflict structure.
    pub conflicts: ConflictStructure,
    /// The ordering `π` certifying the inductive independence number.
    pub ordering: VertexOrdering,
    /// The value of ρ used as the right-hand side of constraints (1b)/(4b).
    pub rho: f64,
}

impl AuctionInstance {
    /// Creates an instance, validating dimensions.
    ///
    /// # Panics
    /// Panics if the bidder count, ordering length and conflict-structure
    /// size disagree, if any bidder's `num_channels` mismatches, if ρ is not
    /// at least 1, or if an asymmetric structure does not have exactly one
    /// graph per channel.
    pub fn new(
        num_channels: usize,
        bidders: Vec<Arc<dyn Valuation>>,
        conflicts: ConflictStructure,
        ordering: VertexOrdering,
        rho: f64,
    ) -> Self {
        assert!(num_channels >= 1, "at least one channel is required");
        assert_eq!(
            bidders.len(),
            conflicts.num_bidders(),
            "bidders vs conflict graph size"
        );
        assert_eq!(bidders.len(), ordering.len(), "bidders vs ordering length");
        assert!(
            rho >= 1.0 && rho.is_finite(),
            "rho must be >= 1 (got {rho})"
        );
        for (i, b) in bidders.iter().enumerate() {
            assert_eq!(
                b.num_channels(),
                num_channels,
                "bidder {i} is defined over {} channels, instance has {num_channels}",
                b.num_channels()
            );
        }
        match &conflicts {
            ConflictStructure::AsymmetricBinary(gs) => {
                assert_eq!(
                    gs.len(),
                    num_channels,
                    "one conflict graph per channel required"
                )
            }
            ConflictStructure::AsymmetricWeighted(gs) => {
                assert_eq!(
                    gs.len(),
                    num_channels,
                    "one conflict graph per channel required"
                )
            }
            _ => {}
        }
        AuctionInstance {
            num_channels,
            bidders,
            conflicts,
            ordering,
            rho,
        }
    }

    /// Number of bidders.
    pub fn num_bidders(&self) -> usize {
        self.bidders.len()
    }

    /// The value bidder `v` assigns to `bundle`.
    pub fn value(&self, v: usize, bundle: ChannelSet) -> f64 {
        self.bidders[v].value(bundle)
    }

    /// Sum of every bidder's maximum value — a crude upper bound on the
    /// social welfare, useful for sanity checks.
    pub fn welfare_upper_bound(&self) -> f64 {
        self.bidders.iter().map(|b| b.max_value()).sum()
    }

    /// The bidders `u` that list `v` in their backward neighborhood on
    /// channel `j` — i.e. the rows (u, j) of constraint (1b)/(4b) in which a
    /// column of bidder `v` appears — together with the coefficient
    /// `w̄(v, u)`.
    pub fn forward_rows(&self, v: usize, channel: usize) -> Vec<(usize, f64)> {
        self.conflicts
            .interacting(v, channel)
            .into_iter()
            .filter(|&u| self.ordering.precedes(v, u))
            .map(|u| (u, self.conflicts.symmetric_weight(v, u, channel)))
            .filter(|&(_, w)| w > 0.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valuation::AdditiveValuation;
    use ssa_conflict_graph::ConflictGraph;

    fn additive_bidders(n: usize, k: usize) -> Vec<Arc<dyn Valuation>> {
        (0..n)
            .map(|i| {
                Arc::new(AdditiveValuation::new(vec![1.0 + i as f64; k])) as Arc<dyn Valuation>
            })
            .collect()
    }

    #[test]
    fn instance_construction_checks_dimensions() {
        let g = ConflictGraph::from_edges(3, &[(0, 1)]);
        let inst = AuctionInstance::new(
            2,
            additive_bidders(3, 2),
            ConflictStructure::Binary(g),
            VertexOrdering::identity(3),
            1.0,
        );
        assert_eq!(inst.num_bidders(), 3);
        assert_eq!(inst.num_channels, 2);
        assert!(inst.welfare_upper_bound() > 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_bidder_channels_rejected() {
        let g = ConflictGraph::new(1);
        AuctionInstance::new(
            3,
            additive_bidders(1, 2),
            ConflictStructure::Binary(g),
            VertexOrdering::identity(1),
            1.0,
        );
    }

    #[test]
    #[should_panic]
    fn asymmetric_structure_needs_one_graph_per_channel() {
        let gs = vec![ConflictGraph::new(2)];
        AuctionInstance::new(
            2,
            additive_bidders(2, 2),
            ConflictStructure::AsymmetricBinary(gs),
            VertexOrdering::identity(2),
            1.0,
        );
    }

    #[test]
    fn forward_rows_follow_ordering_and_weights() {
        let g = ConflictGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let inst = AuctionInstance::new(
            1,
            additive_bidders(3, 1),
            ConflictStructure::Binary(g),
            VertexOrdering::identity(3),
            1.0,
        );
        // bidder 0 precedes its neighbors 1 and 2, so it appears in their rows
        let rows0 = inst.forward_rows(0, 0);
        assert_eq!(rows0, vec![(1, 1.0), (2, 1.0)]);
        // bidder 2 precedes nobody it conflicts with
        assert!(inst.forward_rows(2, 0).is_empty());
    }

    #[test]
    fn channel_feasibility_dispatches_per_structure() {
        let g0 = ConflictGraph::from_edges(2, &[(0, 1)]);
        let g1 = ConflictGraph::new(2);
        let conflicts = ConflictStructure::AsymmetricBinary(vec![g0, g1]);
        assert!(!conflicts.is_channel_feasible(&[0, 1], 0));
        assert!(conflicts.is_channel_feasible(&[0, 1], 1));
        assert!(conflicts.is_asymmetric());
        assert!(!conflicts.is_weighted());
    }
}
