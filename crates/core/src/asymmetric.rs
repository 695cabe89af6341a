//! Helpers for the asymmetric-channel setting of Section 6.
//!
//! With asymmetric channels every channel `j` has its own conflict graph
//! `G_j = (V, E_j)` (or edge-weight function `w_j`). The LP relaxation and
//! the rounding algorithms handle this through
//! [`crate::instance::ConflictStructure::AsymmetricBinary`] /
//! [`AsymmetricWeighted`](crate::instance::ConflictStructure::AsymmetricWeighted);
//! the sampling probability drops from `x/(2√k·ρ)` to `x/(2k·ρ)` and the
//! guarantee becomes `O(ρ·k)` — which Theorem 18 shows is essentially best
//! possible.
//!
//! This module provides the glue used by the experiments: certifying a
//! single ρ that is valid for *all* per-channel graphs under one common
//! ordering.

use ssa_conflict_graph::{certified_rho, ConflictGraph, InductiveBound, VertexOrdering};

/// The inductive independence number certified across all per-channel
/// graphs for a common ordering: the maximum of the per-channel values.
pub fn certified_rho_across_channels(
    graphs: &[ConflictGraph],
    ordering: &VertexOrdering,
) -> InductiveBound {
    let mut best = InductiveBound {
        rho: 0.0,
        is_exact: true,
        worst_vertex: None,
    };
    for g in graphs {
        let b = certified_rho(g, ordering);
        if b.rho > best.rho {
            best.rho = b.rho;
            best.worst_vertex = b.worst_vertex;
        }
        best.is_exact &= b.is_exact;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rho_across_channels_is_the_maximum() {
        let g0 = ConflictGraph::from_edges(4, &[(0, 1)]); // rho 1
        let g1 = ConflictGraph::from_edges(4, &[(0, 3), (1, 3), (2, 3)]); // star, rho depends on ordering
        let ordering = VertexOrdering::identity(4);
        let bound = certified_rho_across_channels(&[g0.clone(), g1.clone()], &ordering);
        let b0 = certified_rho(&g0, &ordering);
        let b1 = certified_rho(&g1, &ordering);
        assert_eq!(bound.rho, b0.rho.max(b1.rho));
    }
}
