//! Total vertex orderings `π` and backward neighborhoods `Γπ(v)`.
//!
//! The inductive independence number (Definitions 1 and 2 of the paper) is a
//! property of the graph *together with* an ordering: it bounds the size (or
//! weight) of any independent set inside the backward neighborhood of each
//! vertex. The LP relaxation and the rounding algorithms only ever need the
//! ordering and the backward neighborhoods, which is what this module
//! provides.

use crate::unweighted::ConflictGraph;
use crate::weighted::WeightedConflictGraph;
use crate::VertexId;
use serde::{Deserialize, Serialize};

/// A total ordering `π` over the vertices `0..n`.
///
/// `π(v)` is the *position* of vertex `v`; position 0 comes first. The
/// interference-model crates construct orderings with provable ρ bounds
/// (e.g. by decreasing disk radius or decreasing link length); generic
/// heuristics live in [`crate::inductive`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VertexOrdering {
    /// position[v] = π(v)
    position: Vec<usize>,
    /// order[i] = the vertex at position i (inverse of `position`)
    order: Vec<VertexId>,
}

impl VertexOrdering {
    /// The identity ordering `π(v) = v`.
    pub fn identity(n: usize) -> Self {
        VertexOrdering {
            position: (0..n).collect(),
            order: (0..n).collect(),
        }
    }

    /// Builds an ordering from the sequence of vertices listed first to last.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_order(order: Vec<VertexId>) -> Self {
        let n = order.len();
        let mut position = vec![usize::MAX; n];
        for (pos, &v) in order.iter().enumerate() {
            assert!(v < n, "vertex {v} out of range in ordering of length {n}");
            assert_eq!(
                position[v],
                usize::MAX,
                "vertex {v} appears twice in ordering"
            );
            position[v] = pos;
        }
        VertexOrdering { position, order }
    }

    /// Builds an ordering by sorting vertices by a key, largest key first.
    ///
    /// Ties are broken by vertex id, making the result deterministic.
    pub fn by_key_descending<K: PartialOrd>(n: usize, key: impl Fn(VertexId) -> K) -> Self {
        let mut order: Vec<VertexId> = (0..n).collect();
        order.sort_by(|&a, &b| {
            key(b)
                .partial_cmp(&key(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        Self::from_order(order)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` for the empty ordering.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Position `π(v)` of vertex `v`.
    pub fn position(&self, v: VertexId) -> usize {
        self.position[v]
    }

    /// Vertices in order, first to last.
    pub fn as_order(&self) -> &[VertexId] {
        &self.order
    }

    /// Returns `true` if `u` precedes `v` in the ordering.
    pub fn precedes(&self, u: VertexId, v: VertexId) -> bool {
        self.position[u] < self.position[v]
    }

    /// Backward neighborhood `Γπ(v)` in an unweighted conflict graph: the
    /// neighbors of `v` that precede `v`.
    pub fn backward_neighborhood(&self, g: &ConflictGraph, v: VertexId) -> Vec<VertexId> {
        g.neighbors(v)
            .iter()
            .copied()
            .filter(|&u| self.precedes(u, v))
            .collect()
    }

    /// Weighted backward neighborhood of `v`: all vertices `u` preceding `v`
    /// with `w̄(u, v) > 0`, together with that symmetrized weight.
    pub fn weighted_backward_neighborhood(
        &self,
        g: &WeightedConflictGraph,
        v: VertexId,
    ) -> Vec<(VertexId, f64)> {
        g.interacting_neighbors(v)
            .into_iter()
            .filter(|&u| self.precedes(u, v))
            .map(|u| (u, g.symmetric_weight(u, v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_ordering() {
        let o = VertexOrdering::identity(4);
        assert_eq!(o.len(), 4);
        for v in 0..4 {
            assert_eq!(o.position(v), v);
            assert_eq!(o.as_order()[v], v);
        }
        assert!(o.precedes(0, 3));
        assert!(!o.precedes(3, 0));
    }

    #[test]
    fn from_order_roundtrip() {
        let o = VertexOrdering::from_order(vec![2, 0, 3, 1]);
        assert_eq!(o.position(2), 0);
        assert_eq!(o.position(0), 1);
        assert_eq!(o.position(3), 2);
        assert_eq!(o.position(1), 3);
        assert_eq!(o.as_order()[0], 2);
        assert!(o.precedes(2, 1));
    }

    #[test]
    #[should_panic]
    fn duplicate_vertex_panics() {
        VertexOrdering::from_order(vec![0, 0, 1]);
    }

    #[test]
    fn by_key_orderings() {
        let radii = [3.0, 1.0, 2.0, 5.0];
        let desc = VertexOrdering::by_key_descending(4, |v| radii[v]);
        assert_eq!(desc.as_order(), &[3, 0, 2, 1]);
    }

    #[test]
    fn ties_broken_by_vertex_id() {
        let keys = [1.0, 1.0, 0.5];
        let desc = VertexOrdering::by_key_descending(3, |v| keys[v]);
        assert_eq!(desc.as_order(), &[0, 1, 2]);
    }

    #[test]
    fn backward_neighborhood_in_path() {
        let g = ConflictGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let o = VertexOrdering::identity(4);
        assert_eq!(o.backward_neighborhood(&g, 0), Vec::<usize>::new());
        assert_eq!(o.backward_neighborhood(&g, 2), vec![1]);
        let rev = VertexOrdering::from_order(vec![3, 2, 1, 0]);
        assert_eq!(rev.backward_neighborhood(&g, 2), vec![3]);
    }

    #[test]
    fn weighted_backward_neighborhood_uses_symmetric_weights() {
        let mut g = WeightedConflictGraph::new(3);
        g.set_weight(0, 2, 0.4);
        g.set_weight(2, 0, 0.1);
        g.set_weight(1, 2, 0.2);
        let o = VertexOrdering::identity(3);
        let bn = o.weighted_backward_neighborhood(&g, 2);
        assert_eq!(bn.len(), 2);
        let w0 = bn.iter().find(|&&(u, _)| u == 0).unwrap().1;
        assert!((w0 - 0.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_position_and_order_are_inverse(perm in prop::collection::vec(0usize..20, 1..20)) {
            // turn an arbitrary vector into a permutation by ranking
            let n = perm.len();
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by_key(|&i| (perm[i], i));
            let o = VertexOrdering::from_order(idx);
            for v in 0..n {
                prop_assert_eq!(o.as_order()[o.position(v)], v);
            }
            for p in 0..n {
                prop_assert_eq!(o.position(o.as_order()[p]), p);
            }
        }

        #[test]
        fn prop_reversed_flips_precedence(perm in prop::collection::vec(0usize..20, 2..20)) {
            let n = perm.len();
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by_key(|&i| (perm[i], i));
            let o = VertexOrdering::from_order(idx);
            let r = VertexOrdering::from_order(o.as_order().iter().rev().copied().collect());
            for u in 0..n {
                for v in 0..n {
                    if u != v {
                        prop_assert_eq!(o.precedes(u, v), r.precedes(v, u));
                    }
                }
            }
        }
    }
}
