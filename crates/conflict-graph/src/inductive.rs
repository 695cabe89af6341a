//! The inductive independence number ρ (Definitions 1 and 2 of the paper).
//!
//! For an ordering `π`, the inductive independence number is the largest
//! size (unweighted case) or `w̄`-weight (weighted case) of an independent
//! set inside a backward neighborhood `Γπ(v)`. The LP relaxations (1b)/(4b)
//! are parameterized by this quantity, so the reproduction needs to
//! *certify* it for the orderings the interference models produce:
//!
//! * [`certified_rho_for_ordering`] / [`certified_rho_for_ordering_weighted`]
//!   compute the exact value of ρ for a **given** ordering whenever the
//!   backward neighborhoods are small enough to search exhaustively, and a
//!   safe upper bound otherwise,
//! * [`greedy_ordering_search`] / [`greedy_ordering_search_weighted`] build
//!   an ordering bottom-up (analogous to the degeneracy ordering) when no
//!   model-specific ordering is available,
//! * [`exact_inductive_independence_number`] brute-forces all orderings on
//!   tiny graphs and is used to validate the heuristics in tests.

use crate::independent_set::{
    exact_max_weight_independent_set, exact_max_weight_independent_set_weighted,
    greedy_max_weight_independent_set,
};
use crate::ordering::VertexOrdering;
use crate::unweighted::ConflictGraph;
use crate::weighted::WeightedConflictGraph;
use crate::VertexId;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Default maximum backward-neighborhood size for which ρ is certified by an
/// exhaustive independent-set search.
pub const DEFAULT_EXACT_LIMIT: usize = 28;

/// A (possibly certified) bound on the inductive independence number for a
/// specific ordering.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InductiveBound {
    /// The value of ρ for the ordering (exact if `is_exact`, otherwise an
    /// upper bound).
    pub rho: f64,
    /// Whether every backward neighborhood was searched exhaustively.
    pub is_exact: bool,
    /// A vertex whose backward neighborhood attains (or forces) the bound.
    pub worst_vertex: Option<VertexId>,
}

impl InductiveBound {
    /// ρ rounded up to an integer, never below 1. The LP constraints use ρ as
    /// a right-hand side, so a value below 1 would only make the relaxation
    /// tighter than the paper's; clamping keeps the guarantees comparable.
    pub fn rho_ceil(&self) -> f64 {
        self.rho.max(1.0)
    }
}

/// Computes ρ for `ordering` on an unweighted conflict graph.
///
/// For every vertex `v`, the maximum independent set inside the backward
/// neighborhood `Γπ(v)` is computed exactly when `|Γπ(v)| <= exact_limit`;
/// larger neighborhoods fall back to the trivial upper bound `|Γπ(v)|`
/// (reported as non-exact).
pub fn certified_rho_for_ordering(
    g: &ConflictGraph,
    ordering: &VertexOrdering,
    exact_limit: usize,
) -> InductiveBound {
    assert_eq!(ordering.len(), g.num_vertices());
    // Every vertex's backward-neighborhood search is independent, so the
    // sweep — the hot loop of every interference-model build — runs one
    // row per task in parallel and max-reduces the per-vertex values.
    let per_vertex: Vec<(usize, bool)> = (0..g.num_vertices())
        .into_par_iter()
        .map(|v| {
            let backward = ordering.backward_neighborhood(g, v);
            if backward.len() <= exact_limit {
                let (sub, _) = g.induced_subgraph(&backward);
                let value =
                    exact_max_weight_independent_set(&sub, &vec![1.0; sub.num_vertices()]).len();
                (value, true)
            } else {
                // too large to search exhaustively: a greedy clique cover of
                // the backward neighborhood still upper-bounds its
                // independence number (and is much tighter than the
                // neighborhood size on the geometric graphs of Section 4)
                let (sub, _) = g.induced_subgraph(&backward);
                let value =
                    crate::independent_set::clique_cover_upper_bound(&sub).min(backward.len());
                (value, false)
            }
        })
        .collect();
    let mut rho = 0usize;
    let mut worst = None;
    let mut exact = true;
    for (v, &(value, was_exact)) in per_vertex.iter().enumerate() {
        exact &= was_exact;
        if value > rho {
            rho = value;
            worst = Some(v);
        }
    }
    InductiveBound {
        rho: rho as f64,
        is_exact: exact,
        worst_vertex: worst,
    }
}

/// Convenience wrapper using [`DEFAULT_EXACT_LIMIT`].
pub fn certified_rho(g: &ConflictGraph, ordering: &VertexOrdering) -> InductiveBound {
    certified_rho_for_ordering(g, ordering, DEFAULT_EXACT_LIMIT)
}

fn induced_weighted_subgraph(
    g: &WeightedConflictGraph,
    vertices: &[VertexId],
) -> WeightedConflictGraph {
    let mut sub = WeightedConflictGraph::new(vertices.len());
    for (i, &u) in vertices.iter().enumerate() {
        for (j, &v) in vertices.iter().enumerate() {
            if i != j {
                let w = g.weight(u, v);
                if w > 0.0 {
                    sub.set_weight(i, j, w);
                }
            }
        }
    }
    sub
}

/// Computes ρ for `ordering` on an edge-weighted conflict graph
/// (Definition 2).
///
/// For every vertex `v` we maximize `Σ_{u ∈ M} w̄(u, v)` over independent
/// sets `M` of predecessors of `v`. The maximization is exact when the
/// number of interacting predecessors is at most `exact_limit`; otherwise the
/// trivial bound `Σ_u w̄(u, v)` over all interacting predecessors is used
/// (reported as non-exact).
pub fn certified_rho_for_ordering_weighted(
    g: &WeightedConflictGraph,
    ordering: &VertexOrdering,
    exact_limit: usize,
) -> InductiveBound {
    assert_eq!(ordering.len(), g.num_vertices());
    // Parallel per-vertex sweep, mirroring `certified_rho_for_ordering`.
    let per_vertex: Vec<(f64, bool)> = (0..g.num_vertices())
        .into_par_iter()
        .map(|v| {
            let backward = ordering.weighted_backward_neighborhood(g, v);
            if backward.is_empty() {
                (0.0, true)
            } else if backward.len() <= exact_limit {
                let vertices: Vec<VertexId> = backward.iter().map(|&(u, _)| u).collect();
                let weights: Vec<f64> = backward.iter().map(|&(_, w)| w).collect();
                let sub = induced_weighted_subgraph(g, &vertices);
                (
                    exact_max_weight_independent_set_weighted(&sub, &weights).total_weight,
                    true,
                )
            } else {
                (backward.iter().map(|&(_, w)| w).sum(), false)
            }
        })
        .collect();
    let mut rho = 0.0f64;
    let mut worst = None;
    let mut exact = true;
    for (v, &(value, was_exact)) in per_vertex.iter().enumerate() {
        exact &= was_exact;
        if value > rho {
            rho = value;
            worst = Some(v);
        }
    }
    InductiveBound {
        rho,
        is_exact: exact,
        worst_vertex: worst,
    }
}

/// Convenience wrapper using [`DEFAULT_EXACT_LIMIT`].
pub fn certified_rho_weighted(
    g: &WeightedConflictGraph,
    ordering: &VertexOrdering,
) -> InductiveBound {
    certified_rho_for_ordering_weighted(g, ordering, DEFAULT_EXACT_LIMIT)
}

/// Builds an ordering for an unweighted conflict graph by a greedy
/// elimination analogous to the degeneracy ordering: repeatedly place the
/// vertex whose neighborhood within the remaining vertices contains the
/// smallest (greedily estimated) independent set at the *last* free
/// position.
///
/// Returns the ordering together with its certified ρ.
pub fn greedy_ordering_search(g: &ConflictGraph) -> (VertexOrdering, InductiveBound) {
    let n = g.num_vertices();
    let mut remaining: Vec<bool> = vec![true; n];
    let mut reverse_order: Vec<VertexId> = Vec::with_capacity(n);
    for _ in 0..n {
        // score(v) = greedy independent set size inside N(v) ∩ remaining
        let mut best: Option<(usize, VertexId)> = None;
        for v in 0..n {
            if !remaining[v] {
                continue;
            }
            let nbrs: Vec<VertexId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| remaining[u])
                .collect();
            let (sub, _) = g.induced_subgraph(&nbrs);
            let score =
                greedy_max_weight_independent_set(&sub, &vec![1.0; sub.num_vertices()]).len();
            match best {
                None => best = Some((score, v)),
                Some((s, b)) => {
                    if score < s || (score == s && v < b) {
                        best = Some((score, v));
                    }
                }
            }
        }
        let (_, v) = best.expect("there is always a remaining vertex");
        remaining[v] = false;
        reverse_order.push(v);
    }
    reverse_order.reverse();
    let ordering = VertexOrdering::from_order(reverse_order);
    let bound = certified_rho(g, &ordering);
    (ordering, bound)
}

/// Weighted analogue of [`greedy_ordering_search`]: repeatedly place the
/// vertex with the smallest total interacting weight from the remaining
/// vertices at the last free position.
pub fn greedy_ordering_search_weighted(
    g: &WeightedConflictGraph,
) -> (VertexOrdering, InductiveBound) {
    let n = g.num_vertices();
    let mut remaining: Vec<bool> = vec![true; n];
    let mut reverse_order: Vec<VertexId> = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best: Option<(f64, VertexId)> = None;
        for v in 0..n {
            if !remaining[v] {
                continue;
            }
            let score: f64 = g
                .interacting_neighbors(v)
                .into_iter()
                .filter(|&u| remaining[u])
                .map(|u| g.symmetric_weight(u, v))
                .sum();
            match best {
                None => best = Some((score, v)),
                Some((s, b)) => {
                    if score < s || (score == s && v < b) {
                        best = Some((score, v));
                    }
                }
            }
        }
        let (_, v) = best.expect("there is always a remaining vertex");
        remaining[v] = false;
        reverse_order.push(v);
    }
    reverse_order.reverse();
    let ordering = VertexOrdering::from_order(reverse_order);
    let bound = certified_rho_weighted(g, &ordering);
    (ordering, bound)
}

/// Exact inductive independence number of a *small* unweighted graph,
/// obtained by brute force over all orderings.
///
/// Returns an optimal ordering and its ρ. Cost is `O(n! · poly)`, so this is
/// only intended for `n ≤ 9` (validation of heuristics in tests and in the
/// hardness experiments).
///
/// # Panics
/// Panics if `g.num_vertices() > 10`.
pub fn exact_inductive_independence_number(g: &ConflictGraph) -> (VertexOrdering, usize) {
    let n = g.num_vertices();
    assert!(
        n <= 10,
        "exact search over orderings is factorial; n = {n} is too large"
    );
    let mut best: Option<(usize, Vec<VertexId>)> = None;
    let mut perm: Vec<VertexId> = (0..n).collect();
    permute(&mut perm, 0, &mut |p: &[VertexId]| {
        let ordering = VertexOrdering::from_order(p.to_vec());
        let bound = certified_rho_for_ordering(g, &ordering, usize::MAX);
        let rho = bound.rho as usize;
        match &best {
            None => best = Some((rho, p.to_vec())),
            Some((b, _)) => {
                if rho < *b {
                    best = Some((rho, p.to_vec()));
                }
            }
        }
    });
    let (rho, order) = best.unwrap_or((0, Vec::new()));
    (VertexOrdering::from_order(order), rho)
}

fn permute(items: &mut Vec<VertexId>, start: usize, visit: &mut impl FnMut(&[VertexId])) {
    if start == items.len() {
        visit(items);
        return;
    }
    for i in start..items.len() {
        items.swap(start, i);
        permute(items, start + 1, visit);
        items.swap(start, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_graph_has_rho_zero() {
        let g = ConflictGraph::new(5);
        let b = certified_rho(&g, &VertexOrdering::identity(5));
        assert_eq!(b.rho, 0.0);
        assert!(b.is_exact);
        assert_eq!(b.rho_ceil(), 1.0, "LP always uses at least 1");
    }

    #[test]
    fn clique_has_rho_one_for_any_ordering() {
        let g = ConflictGraph::clique(6);
        let b = certified_rho(&g, &VertexOrdering::identity(6));
        assert_eq!(b.rho, 1.0);
        assert!(b.is_exact);
        let b2 = certified_rho(&g, &VertexOrdering::from_order((0..6).rev().collect()));
        assert_eq!(b2.rho, 1.0);
    }

    #[test]
    fn star_rho_depends_on_ordering() {
        // star with center 0: if the center comes last, its backward
        // neighborhood is all leaves (an independent set of size n-1); if the
        // center comes first, every leaf sees only the center (rho = 1).
        let g = ConflictGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let center_last = VertexOrdering::from_order(vec![1, 2, 3, 4, 0]);
        let b_bad = certified_rho(&g, &center_last);
        assert_eq!(b_bad.rho, 4.0);
        assert_eq!(b_bad.worst_vertex, Some(0));
        let center_first = VertexOrdering::from_order(vec![0, 1, 2, 3, 4]);
        let b_good = certified_rho(&g, &center_first);
        assert_eq!(b_good.rho, 1.0);
    }

    #[test]
    fn greedy_ordering_finds_good_star_ordering() {
        let g = ConflictGraph::from_edges(7, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]);
        let (_, bound) = greedy_ordering_search(&g);
        assert_eq!(
            bound.rho, 1.0,
            "star graphs have inductive independence number 1"
        );
    }

    #[test]
    fn exact_search_on_path() {
        // A path has inductive independence number 1 (order along the path).
        let g = ConflictGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (ordering, rho) = exact_inductive_independence_number(&g);
        assert_eq!(rho, 1);
        let check = certified_rho(&g, &ordering);
        assert_eq!(check.rho, 1.0);
    }

    #[test]
    fn exact_search_on_cycle() {
        // C5: ordering the cycle along the circle yields rho <= 2; no ordering
        // achieves rho < 1 (there are edges). The last vertex of any ordering
        // of C5 has two neighbors which are non-adjacent, hence rho = 2.
        let g = ConflictGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let (_, rho) = exact_inductive_independence_number(&g);
        assert_eq!(rho, 2);
    }

    #[test]
    fn weighted_rho_on_unit_weights_matches_unweighted() {
        let g =
            ConflictGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let wg = WeightedConflictGraph::from_unweighted(&g);
        let ordering = VertexOrdering::identity(6);
        let bu = certified_rho(&g, &ordering);
        let bw = certified_rho_weighted(&wg, &ordering);
        // With unit edge weights w̄ = 2 on every edge, each backward neighbor
        // contributes 2, and weighted independence only allows singletons
        // among mutually adjacent predecessors. The weighted rho is therefore
        // exactly twice the unweighted one whenever the maximizing set is a
        // single-channel independent set. We only assert the ratio bound.
        assert!(bw.rho <= 2.0 * bu.rho + 1e-9);
        assert!(bw.rho >= bu.rho - 1e-9);
    }

    #[test]
    fn weighted_rho_simple_instance() {
        let mut g = WeightedConflictGraph::new(3);
        g.set_weight(0, 2, 0.3);
        g.set_weight(1, 2, 0.4);
        // 0 and 1 do not interact, so M = {0, 1} is independent and
        // contributes w̄(0,2) + w̄(1,2) = 0.7 at vertex 2.
        let b = certified_rho_weighted(&g, &VertexOrdering::identity(3));
        assert!((b.rho - 0.7).abs() < 1e-9);
        assert_eq!(b.worst_vertex, Some(2));
        assert!(b.is_exact);
    }

    #[test]
    fn greedy_weighted_ordering_is_no_worse_than_identity_on_star() {
        let mut g = WeightedConflictGraph::new(5);
        for leaf in 1..5 {
            g.set_weight(leaf, 0, 0.9);
            g.set_weight(0, leaf, 0.9);
        }
        let id_bound = certified_rho_weighted(&g, &VertexOrdering::from_order(vec![1, 2, 3, 4, 0]));
        let (_, greedy_bound) = greedy_ordering_search_weighted(&g);
        assert!(greedy_bound.rho <= id_bound.rho + 1e-9);
    }

    prop_compose! {
        fn arb_graph()(n in 2usize..7)
                      (n in Just(n),
                       edges in prop::collection::vec((0..n, 0..n), 0..20)) -> ConflictGraph {
            ConflictGraph::from_edges(n, &edges)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_greedy_ordering_at_least_exact_optimum(g in arb_graph()) {
            let (_, greedy_bound) = greedy_ordering_search(&g);
            let (_, exact_rho) = exact_inductive_independence_number(&g);
            // the heuristic can only overestimate the optimal rho
            prop_assert!(greedy_bound.rho as usize >= exact_rho);
        }

        #[test]
        fn prop_certified_rho_bounds_backward_independent_sets(g in arb_graph()) {
            let ordering = VertexOrdering::identity(g.num_vertices());
            let bound = certified_rho(&g, &ordering);
            // Definition 1: for every vertex and every independent set in its
            // backward neighborhood, the intersection size is at most rho.
            for v in 0..g.num_vertices() {
                let backward = ordering.backward_neighborhood(&g, v);
                let (sub, _) = g.induced_subgraph(&backward);
                let best = exact_max_weight_independent_set(&sub, &vec![1.0; sub.num_vertices()]);
                prop_assert!(best.len() as f64 <= bound.rho + 1e-9);
            }
        }

        #[test]
        fn prop_weighted_rho_never_below_unweighted_rho_on_unit_conversion(g in arb_graph()) {
            let ordering = VertexOrdering::identity(g.num_vertices());
            let wg = WeightedConflictGraph::from_unweighted(&g);
            let bu = certified_rho(&g, &ordering);
            let bw = certified_rho_weighted(&wg, &ordering);
            prop_assert!(bw.rho >= bu.rho - 1e-9);
        }
    }
}
