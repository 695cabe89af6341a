//! Unweighted conflict graphs (Problem 1, Section 2 of the paper).
//!
//! Vertices are bidders; an edge `{u, v}` means `u` and `v` may never share a
//! channel. The feasible per-channel allocations are exactly the independent
//! sets of the graph.

use crate::bitset::BitSet;
use crate::VertexId;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// An undirected, unweighted conflict graph over vertices `0..n`.
///
/// Internally stores both an adjacency bit matrix (for `O(1)` edge queries
/// and fast intersection with vertex subsets) and sorted neighbor lists (for
/// cache-friendly iteration over sparse neighborhoods).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConflictGraph {
    n: usize,
    adj_rows: Vec<BitSet>,
    neighbors: Vec<Vec<VertexId>>,
    num_edges: usize,
}

impl ConflictGraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        ConflictGraph {
            n,
            adj_rows: (0..n).map(|_| BitSet::new(n)).collect(),
            neighbors: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Creates a graph with `n` vertices from an edge list.
    ///
    /// Self-loops are ignored; duplicate edges are inserted once.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut g = Self::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Builds a graph by evaluating an adjacency-row function for every
    /// vertex **in parallel**.
    ///
    /// `row(v)` returns the bit set of neighbors of `v` (self-bits are
    /// ignored). The relation is expected to be symmetric — geometric
    /// conflict predicates (disk intersection, guard zones, distance-2) all
    /// are — but a serial `O(nnz)` symmetrization pass repairs any stray
    /// one-directional bits rather than producing a corrupt graph.
    ///
    /// This is the bulk path the interference models use: each row is an
    /// independent computation, so construction scales with cores instead
    /// of running the serial double loop of `add_edge`.
    ///
    /// # Panics
    /// Panics if some row's universe size is not `n`.
    pub fn from_symmetric_rows(n: usize, row: impl Fn(VertexId) -> BitSet + Sync) -> Self {
        let rows: Vec<BitSet> = (0..n).into_par_iter().map(row).collect();
        Self::from_bitset_rows(rows)
    }

    /// Builds a graph from precomputed adjacency rows (see
    /// [`ConflictGraph::from_symmetric_rows`]).
    ///
    /// # Panics
    /// Panics if some row's universe size differs from the number of rows.
    pub fn from_bitset_rows(mut rows: Vec<BitSet>) -> Self {
        let n = rows.len();
        for (v, row) in rows.iter_mut().enumerate() {
            assert_eq!(
                row.universe_len(),
                n,
                "adjacency row {v} has universe {} but the graph has {n} vertices",
                row.universe_len()
            );
            row.remove(v);
        }
        // Symmetrization: u ∈ rows[v] must imply v ∈ rows[u]. Collect the
        // missing transposed bits first (cannot mutate rows while iterating
        // them), then patch — both passes are O(nnz).
        let mut missing: Vec<(VertexId, VertexId)> = Vec::new();
        for (v, row) in rows.iter().enumerate() {
            for u in row.iter() {
                if !rows[u].contains(v) {
                    missing.push((u, v));
                }
            }
        }
        for (u, v) in missing {
            rows[u].insert(v);
        }
        let neighbors: Vec<Vec<VertexId>> = rows.par_iter().map(|row| row.to_vec()).collect();
        let degree_sum: usize = neighbors.iter().map(Vec::len).sum();
        ConflictGraph {
            n,
            adj_rows: rows,
            neighbors,
            num_edges: degree_sum / 2,
        }
    }

    /// Creates the complete graph (clique) on `n` vertices.
    ///
    /// With a clique conflict graph the auction degenerates to an ordinary
    /// combinatorial auction: each channel can be won by at most one bidder.
    pub fn clique(n: usize) -> Self {
        let mut g = Self::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adds the undirected edge `{u, v}`. Ignores self-loops and duplicates.
    ///
    /// # Panics
    /// Panics if `u >= n` or `v >= n`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of bounds (n={})",
            self.n
        );
        if u == v || self.adj_rows[u].contains(v) {
            return;
        }
        self.adj_rows[u].insert(v);
        self.adj_rows[v].insert(u);
        self.neighbors[u].push(v);
        self.neighbors[v].push(u);
        self.num_edges += 1;
    }

    /// Returns `true` if `{u, v}` is an edge.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u < self.n && self.adj_rows[u].contains(v)
    }

    /// Neighbors of `v` (unsorted, in insertion order).
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[v]
    }

    /// Adjacency row of `v` as a bit set.
    pub fn adjacency_row(&self, v: VertexId) -> &BitSet {
        &self.adj_rows[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors[v].len()
    }

    /// Maximum degree over all vertices, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Iterator over all edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors[u]
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Returns `true` if `set` is an independent set: no two members share an
    /// edge.
    pub fn is_independent(&self, set: &[VertexId]) -> bool {
        for (i, &u) in set.iter().enumerate() {
            for &v in &set[i + 1..] {
                if self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Builds the subgraph induced by `vertices`.
    ///
    /// Returns the induced [`ConflictGraph`] together with the mapping from
    /// new vertex ids (positions in `vertices`) to original vertex ids.
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> (ConflictGraph, Vec<VertexId>) {
        let mapping: Vec<VertexId> = vertices.to_vec();
        let mut g = ConflictGraph::new(vertices.len());
        for (i, &u) in vertices.iter().enumerate() {
            for (j, &v) in vertices.iter().enumerate().skip(i + 1) {
                if self.has_edge(u, v) {
                    g.add_edge(i, j);
                }
            }
        }
        (g, mapping)
    }

    /// Returns a copy of the graph with one additional vertex (id `n`, the
    /// new largest id) connected to the given existing vertices — a bidder
    /// arriving in a dynamic market.
    ///
    /// # Panics
    /// Panics if a listed neighbor is not an existing vertex.
    pub fn with_appended_vertex(&self, neighbors: &[VertexId]) -> ConflictGraph {
        let n = self.n;
        let mut g = ConflictGraph::new(n + 1);
        for (u, v) in self.edges() {
            g.add_edge(u, v);
        }
        for &u in neighbors {
            assert!(u < n, "new vertex's neighbor {u} out of bounds (n={n})");
            g.add_edge(u, n);
        }
        g
    }

    /// Returns a copy of the graph with vertex `v` removed; vertices above
    /// `v` shift down by one (a bidder leaving a dynamic market).
    ///
    /// # Panics
    /// Panics if `v` is not a vertex.
    pub fn without_vertex(&self, v: VertexId) -> ConflictGraph {
        assert!(v < self.n, "vertex {v} out of bounds (n={})", self.n);
        let keep: Vec<VertexId> = (0..self.n).filter(|&u| u != v).collect();
        self.induced_subgraph(&keep).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn path(n: usize) -> ConflictGraph {
        let edges: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        ConflictGraph::from_edges(n, &edges)
    }

    #[test]
    fn empty_graph_everything_independent() {
        let g = ConflictGraph::new(5);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_independent(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn clique_only_singletons_independent() {
        let g = ConflictGraph::clique(6);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.max_degree(), 5);
        for v in 0..6 {
            assert!(g.is_independent(&[v]));
        }
        assert!(!g.is_independent(&[0, 1]));
        assert!(!g.is_independent(&[2, 5]));
    }

    #[test]
    fn duplicate_edges_and_self_loops_ignored() {
        let g = ConflictGraph::from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn path_graph_independence() {
        let g = path(5);
        assert!(g.is_independent(&[0, 2, 4]));
        assert!(!g.is_independent(&[0, 1]));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn edges_iterator_consistent_with_count() {
        let g = ConflictGraph::from_edges(6, &[(0, 3), (1, 2), (4, 5), (0, 5)]);
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 3), (0, 5), (1, 2), (4, 5)]);
        assert_eq!(es.len(), g.num_edges());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = ConflictGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let (sub, map) = g.induced_subgraph(&[1, 2, 4]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(map, vec![1, 2, 4]);
        assert!(sub.has_edge(0, 1)); // 1-2
        assert!(!sub.has_edge(1, 2)); // 2-4 not an edge in g
        assert_eq!(sub.num_edges(), 1);
    }

    #[test]
    fn from_symmetric_rows_matches_edge_construction() {
        let edges = [(0usize, 3usize), (1, 2), (4, 5), (0, 5), (2, 4)];
        let reference = ConflictGraph::from_edges(6, &edges);
        let parallel = ConflictGraph::from_symmetric_rows(6, |v| {
            BitSet::from_indices(
                6,
                edges.iter().flat_map(|&(a, b)| {
                    [(a, b), (b, a)]
                        .into_iter()
                        .filter(move |&(x, _)| x == v)
                        .map(|(_, y)| y)
                }),
            )
        });
        assert_eq!(parallel.num_edges(), reference.num_edges());
        for u in 0..6 {
            for v in 0..6 {
                assert_eq!(
                    parallel.has_edge(u, v),
                    reference.has_edge(u, v),
                    "edge ({u},{v})"
                );
            }
            let mut a = parallel.neighbors(u).to_vec();
            let mut b = reference.neighbors(u).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn from_symmetric_rows_repairs_asymmetric_input_and_drops_self_loops() {
        // row 0 claims the edge {0,1}; row 1 omits it; row 2 has a self-loop
        let g = ConflictGraph::from_bitset_rows(vec![
            BitSet::from_indices(3, [1]),
            BitSet::new(3),
            BitSet::from_indices(3, [2]),
        ]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(2, 2));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn from_symmetric_rows_scales_to_larger_graphs() {
        // ring of 500 vertices built in parallel, verified against add_edge
        let n = 500;
        let parallel = ConflictGraph::from_symmetric_rows(n, |v| {
            BitSet::from_indices(n, [(v + 1) % n, (v + n - 1) % n])
        });
        let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let reference = ConflictGraph::from_edges(n, &edges);
        assert_eq!(parallel.num_edges(), reference.num_edges());
        for v in 0..n {
            assert_eq!(parallel.degree(v), 2);
        }
    }

    prop_compose! {
        fn arb_graph()(n in 1usize..30)
                     (n in Just(n),
                      edges in prop::collection::vec((0..n, 0..n), 0..60)) -> ConflictGraph {
            ConflictGraph::from_edges(n, &edges)
        }
    }

    proptest! {
        #[test]
        fn prop_edge_symmetry(g in arb_graph()) {
            for u in 0..g.num_vertices() {
                for v in 0..g.num_vertices() {
                    prop_assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
                }
            }
        }

        #[test]
        fn prop_degree_sum_is_twice_edges(g in arb_graph()) {
            let sum: usize = (0..g.num_vertices()).map(|v| g.degree(v)).sum();
            prop_assert_eq!(sum, 2 * g.num_edges());
        }

        #[test]
        fn prop_singletons_and_empty_always_independent(g in arb_graph()) {
            prop_assert!(g.is_independent(&[]));
            for v in 0..g.num_vertices() {
                prop_assert!(g.is_independent(&[v]));
            }
        }
    }
}
