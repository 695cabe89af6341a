//! Edge-weighted conflict graphs (Section 3 of the paper).
//!
//! Between every ordered pair of vertices `(u, v)` there is a non-negative
//! weight `w(u, v)` describing how much interference `u` inflicts on `v`.
//! A set `M` is **independent** iff for every `v ∈ M` the total incoming
//! weight `Σ_{u ∈ M, u ≠ v} w(u, v)` is strictly below 1.
//!
//! The rounding analysis of the paper works with the *symmetrized* weights
//! `w̄(u, v) = w(u, v) + w(v, u)`, which this module exposes as
//! [`WeightedConflictGraph::symmetric_weight`].

use crate::unweighted::ConflictGraph;
use crate::VertexId;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// An edge-weighted conflict graph over vertices `0..n` with directed,
/// non-negative weights.
///
/// Weights are stored sparsely as per-source adjacency lists `(target,
/// weight)`; a missing entry means weight 0. Entries with weight 0 are never
/// stored.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WeightedConflictGraph {
    n: usize,
    /// out[u] = list of (v, w(u, v)) with w > 0, sorted by v.
    out: Vec<Vec<(VertexId, f64)>>,
    /// incoming[v] = list of (u, w(u, v)) with w > 0, sorted by u.
    incoming: Vec<Vec<(VertexId, f64)>>,
}

impl WeightedConflictGraph {
    /// Creates a weighted conflict graph with `n` vertices and all weights 0.
    pub fn new(n: usize) -> Self {
        WeightedConflictGraph {
            n,
            out: vec![Vec::new(); n],
            incoming: vec![Vec::new(); n],
        }
    }

    /// Builds a weighted graph by evaluating an incoming-weight-row function
    /// for every vertex **in parallel**.
    ///
    /// `row(v)` returns the list of `(u, w(u, v))` pairs with positive
    /// weight (self-pairs and non-positive weights are dropped; rows need
    /// not be sorted). This replaces per-entry [`set_weight`] calls — each
    /// of which binary-searches and shifts two sorted vectors — with one
    /// parallel row computation plus an `O(nnz)` transpose, and is the bulk
    /// path used by the physical (SINR) affectance matrix.
    ///
    /// [`set_weight`]: WeightedConflictGraph::set_weight
    ///
    /// # Panics
    /// Panics if a row references a vertex `>= n` or contains a NaN weight.
    pub fn from_incoming_rows(
        n: usize,
        row: impl Fn(VertexId) -> Vec<(VertexId, f64)> + Sync,
    ) -> Self {
        let mut incoming: Vec<Vec<(VertexId, f64)>> = (0..n)
            .into_par_iter()
            .map(|v| {
                let mut entries: Vec<(VertexId, f64)> = row(v)
                    .into_iter()
                    .filter(|&(u, w)| {
                        assert!(!w.is_nan(), "weight must not be NaN");
                        u != v && w > 0.0
                    })
                    .collect();
                entries.sort_unstable_by_key(|&(u, _)| u);
                entries.dedup_by(|a, b| {
                    if a.0 == b.0 {
                        b.1 += a.1;
                        true
                    } else {
                        false
                    }
                });
                entries
            })
            .collect();
        for entries in &incoming {
            for &(u, _) in entries {
                assert!(
                    u < n,
                    "incoming row references vertex {u} out of bounds (n={n})"
                );
            }
        }
        // Transpose: iterating v in ascending order keeps each out-list
        // sorted by target without a second sort.
        let mut out: Vec<Vec<(VertexId, f64)>> = vec![Vec::new(); n];
        for (v, entries) in incoming.iter_mut().enumerate() {
            for &mut (u, w) in entries {
                out[u].push((v, w));
            }
        }
        WeightedConflictGraph { n, out, incoming }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of stored (non-zero, directed) weight entries.
    pub fn num_weighted_pairs(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Sets the directed weight `w(u, v)`.
    ///
    /// Weights are clamped below at 0; setting a weight to 0 removes the
    /// entry. Self-weights (`u == v`) are ignored.
    ///
    /// # Panics
    /// Panics if `u >= n`, `v >= n`, or the weight is NaN.
    pub fn set_weight(&mut self, u: VertexId, v: VertexId, w: f64) {
        assert!(
            u < self.n && v < self.n,
            "weight ({u},{v}) out of bounds (n={})",
            self.n
        );
        assert!(!w.is_nan(), "weight must not be NaN");
        if u == v {
            return;
        }
        let w = w.max(0.0);
        Self::upsert(&mut self.out[u], v, w);
        Self::upsert(&mut self.incoming[v], u, w);
    }

    fn upsert(list: &mut Vec<(VertexId, f64)>, key: VertexId, w: f64) {
        match list.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(pos) => {
                if w == 0.0 {
                    list.remove(pos);
                } else {
                    list[pos].1 = w;
                }
            }
            Err(pos) => {
                if w > 0.0 {
                    list.insert(pos, (key, w));
                }
            }
        }
    }

    /// Returns the directed weight `w(u, v)` (0 if unset).
    pub fn weight(&self, u: VertexId, v: VertexId) -> f64 {
        if u >= self.n || v >= self.n || u == v {
            return 0.0;
        }
        match self.out[u].binary_search_by_key(&v, |&(k, _)| k) {
            Ok(pos) => self.out[u][pos].1,
            Err(_) => 0.0,
        }
    }

    /// Returns the symmetrized weight `w̄(u, v) = w(u, v) + w(v, u)` used by
    /// Definition 2 and the rounding algorithms.
    pub fn symmetric_weight(&self, u: VertexId, v: VertexId) -> f64 {
        self.weight(u, v) + self.weight(v, u)
    }

    /// Outgoing weighted neighbors of `u`: pairs `(v, w(u, v))` with positive
    /// weight, sorted by `v`.
    pub fn out_neighbors(&self, u: VertexId) -> &[(VertexId, f64)] {
        &self.out[u]
    }

    /// Incoming weighted neighbors of `v`: pairs `(u, w(u, v))` with positive
    /// weight, sorted by `u`.
    pub fn in_neighbors(&self, v: VertexId) -> &[(VertexId, f64)] {
        &self.incoming[v]
    }

    /// All vertices `u` with `w̄(u, v) > 0`, i.e. that interact with `v` in
    /// either direction. Sorted and deduplicated.
    pub fn interacting_neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let mut ns: Vec<VertexId> = self.out[v]
            .iter()
            .map(|&(u, _)| u)
            .chain(self.incoming[v].iter().map(|&(u, _)| u))
            .collect();
        ns.sort_unstable();
        ns.dedup();
        ns
    }

    /// Total incoming weight into `v` from the members of `set` (excluding
    /// `v` itself).
    pub fn incoming_weight_from(&self, v: VertexId, set: &[VertexId]) -> f64 {
        set.iter()
            .filter(|&&u| u != v)
            .map(|&u| self.weight(u, v))
            .sum()
    }

    /// Returns `true` if `set` is independent: every member receives total
    /// incoming weight strictly below 1 from the other members.
    pub fn is_independent(&self, set: &[VertexId]) -> bool {
        set.iter().all(|&v| self.incoming_weight_from(v, set) < 1.0)
    }

    /// Converts an unweighted conflict graph to a weighted one in which each
    /// edge `{u, v}` gets weight 1 in both directions.
    ///
    /// With these weights a set is independent in the weighted sense iff it
    /// is independent in the unweighted sense, so the weighted machinery
    /// strictly generalizes the unweighted one.
    pub fn from_unweighted(g: &ConflictGraph) -> Self {
        let mut w = WeightedConflictGraph::new(g.num_vertices());
        for (u, v) in g.edges() {
            w.set_weight(u, v, 1.0);
            w.set_weight(v, u, 1.0);
        }
        w
    }

    /// Returns a copy of the graph with one additional vertex (id `n`) and
    /// the given directed weights to/from existing vertices — a bidder
    /// arriving in a dynamic market.
    ///
    /// # Panics
    /// Panics if a listed endpoint is not an existing vertex or a weight is
    /// NaN.
    pub fn with_appended_vertex(
        &self,
        outgoing: &[(VertexId, f64)],
        incoming: &[(VertexId, f64)],
    ) -> WeightedConflictGraph {
        let n = self.n;
        let mut g = WeightedConflictGraph::new(n + 1);
        for u in 0..n {
            for &(v, w) in &self.out[u] {
                g.set_weight(u, v, w);
            }
        }
        for &(v, w) in outgoing {
            assert!(v < n, "new vertex's neighbor {v} out of bounds (n={n})");
            g.set_weight(n, v, w);
        }
        for &(u, w) in incoming {
            assert!(u < n, "new vertex's neighbor {u} out of bounds (n={n})");
            g.set_weight(u, n, w);
        }
        g
    }

    /// Returns a copy of the graph with vertex `v` removed; vertices above
    /// `v` shift down by one (a bidder leaving a dynamic market).
    ///
    /// # Panics
    /// Panics if `v` is not a vertex.
    pub fn without_vertex(&self, v: VertexId) -> WeightedConflictGraph {
        assert!(v < self.n, "vertex {v} out of bounds (n={})", self.n);
        let map = |u: VertexId| if u > v { u - 1 } else { u };
        let mut g = WeightedConflictGraph::new(self.n - 1);
        for u in 0..self.n {
            if u == v {
                continue;
            }
            for &(t, w) in &self.out[u] {
                if t != v {
                    g.set_weight(map(u), map(t), w);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn weights_default_to_zero() {
        let g = WeightedConflictGraph::new(4);
        assert_eq!(g.weight(0, 1), 0.0);
        assert_eq!(g.symmetric_weight(2, 3), 0.0);
        assert!(g.is_independent(&[0, 1, 2, 3]));
    }

    #[test]
    fn from_incoming_rows_matches_set_weight_construction() {
        let n = 5;
        let weight_of = |u: usize, v: usize| -> f64 {
            if u == v {
                0.0
            } else {
                ((u * 7 + v * 3) % 4) as f64 * 0.2
            }
        };
        let mut reference = WeightedConflictGraph::new(n);
        for u in 0..n {
            for v in 0..n {
                let w = weight_of(u, v);
                if u != v && w > 0.0 {
                    reference.set_weight(u, v, w);
                }
            }
        }
        let bulk = WeightedConflictGraph::from_incoming_rows(n, |v| {
            (0..n).map(|u| (u, weight_of(u, v))).collect()
        });
        assert_eq!(bulk.num_weighted_pairs(), reference.num_weighted_pairs());
        for u in 0..n {
            assert_eq!(
                bulk.out_neighbors(u),
                reference.out_neighbors(u),
                "out row {u}"
            );
            assert_eq!(
                bulk.in_neighbors(u),
                reference.in_neighbors(u),
                "in row {u}"
            );
            for v in 0..n {
                assert_eq!(bulk.weight(u, v), reference.weight(u, v));
            }
        }
    }

    #[test]
    fn from_incoming_rows_drops_self_and_nonpositive_and_merges_duplicates() {
        let g = WeightedConflictGraph::from_incoming_rows(3, |v| match v {
            0 => vec![(0, 5.0), (1, 0.0), (2, -1.0)], // all dropped
            1 => vec![(0, 0.3), (0, 0.2)],            // merged to 0.5
            _ => vec![(1, 0.7)],
        });
        assert_eq!(g.num_weighted_pairs(), 2);
        assert_eq!(g.weight(0, 1), 0.5);
        assert_eq!(g.weight(1, 2), 0.7);
        assert_eq!(g.weight(0, 0), 0.0);
        assert_eq!(g.in_neighbors(0), &[]);
    }

    #[test]
    fn set_and_get_directed_weights() {
        let mut g = WeightedConflictGraph::new(3);
        g.set_weight(0, 1, 0.4);
        g.set_weight(1, 0, 0.3);
        assert_eq!(g.weight(0, 1), 0.4);
        assert_eq!(g.weight(1, 0), 0.3);
        assert!((g.symmetric_weight(0, 1) - 0.7).abs() < 1e-12);
        assert!((g.symmetric_weight(1, 0) - 0.7).abs() < 1e-12);
        // overwrite
        g.set_weight(0, 1, 0.9);
        assert_eq!(g.weight(0, 1), 0.9);
        // remove by setting zero
        g.set_weight(0, 1, 0.0);
        assert_eq!(g.weight(0, 1), 0.0);
        assert_eq!(g.num_weighted_pairs(), 1);
    }

    #[test]
    fn self_weights_ignored() {
        let mut g = WeightedConflictGraph::new(2);
        g.set_weight(1, 1, 5.0);
        assert_eq!(g.weight(1, 1), 0.0);
        assert_eq!(g.num_weighted_pairs(), 0);
    }

    #[test]
    fn independence_threshold_is_strict() {
        let mut g = WeightedConflictGraph::new(3);
        // 0 and 1 together put exactly 1.0 onto 2 -> not independent
        g.set_weight(0, 2, 0.5);
        g.set_weight(1, 2, 0.5);
        assert!(!g.is_independent(&[0, 1, 2]));
        assert!(g.is_independent(&[0, 2]));
        assert!(g.is_independent(&[1, 2]));
        assert!(g.is_independent(&[0, 1]));
    }

    #[test]
    fn aggregation_of_many_weak_interferers() {
        // The motivating example of Section 3: many far-away devices, each
        // individually harmless, jointly exceed the interference budget.
        let mut g = WeightedConflictGraph::new(6);
        for u in 0..5 {
            g.set_weight(u, 5, 0.21);
        }
        assert!(g.is_independent(&[0, 1, 2, 3, 5])); // 4 * 0.21 = 0.84 < 1
        assert!(!g.is_independent(&[0, 1, 2, 3, 4, 5])); // 5 * 0.21 = 1.05 >= 1
    }

    #[test]
    fn from_unweighted_preserves_independence() {
        let g = ConflictGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let w = WeightedConflictGraph::from_unweighted(&g);
        let sets: Vec<Vec<usize>> = vec![vec![0, 2, 3], vec![0, 1], vec![2, 4], vec![1, 3]];
        for s in sets {
            assert_eq!(g.is_independent(&s), w.is_independent(&s), "set {s:?}");
        }
    }

    #[test]
    fn interacting_neighbors_covers_both_directions() {
        let mut g = WeightedConflictGraph::new(4);
        g.set_weight(0, 2, 0.3);
        g.set_weight(3, 0, 0.2);
        assert_eq!(g.interacting_neighbors(0), vec![2, 3]);
        assert_eq!(g.interacting_neighbors(1), Vec::<usize>::new());
    }

    proptest! {
        #[test]
        fn prop_symmetric_weight_is_symmetric(
            n in 2usize..15,
            entries in prop::collection::vec((0usize..15, 0usize..15, 0.0f64..2.0), 0..40)
        ) {
            let mut g = WeightedConflictGraph::new(n);
            for (u, v, w) in entries {
                if u < n && v < n {
                    g.set_weight(u, v, w);
                }
            }
            for u in 0..n {
                for v in 0..n {
                    prop_assert!((g.symmetric_weight(u, v) - g.symmetric_weight(v, u)).abs() < 1e-12);
                }
            }
        }

        #[test]
        fn prop_subsets_of_independent_sets_are_independent(
            n in 2usize..12,
            entries in prop::collection::vec((0usize..12, 0usize..12, 0.0f64..0.5), 0..40),
            mask in prop::collection::vec(prop::bool::ANY, 12)
        ) {
            let mut g = WeightedConflictGraph::new(n);
            for (u, v, w) in entries {
                if u < n && v < n {
                    g.set_weight(u, v, w);
                }
            }
            let full: Vec<usize> = (0..n).collect();
            if g.is_independent(&full) {
                let sub: Vec<usize> = (0..n).filter(|&v| mask[v]).collect();
                prop_assert!(g.is_independent(&sub));
            }
        }
    }
}
