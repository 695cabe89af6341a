//! The LP relaxations (1) and (4) of the paper and their asymmetric-channel
//! variant (Section 6), solved through demand oracles.
//!
//! Variables are `x_{v,T}` for every bidder `v` and bundle `T ⊆ [k]`;
//! constraints are
//!
//! * `(v, j)` rows — for every bidder `v` and channel `j`, the bidders `u`
//!   in the backward neighborhood `Γπ(v)` may carry at most ρ units of
//!   (weighted) fractional assignment of channel `j`:
//!   `Σ_{u ∈ Γπ(v)} Σ_{T ∋ j} w̄(u,v) · x_{u,T} ≤ ρ`
//!   (`w̄ ≡ 1` in the unweighted case),
//! * bidder rows — `Σ_T x_{v,T} ≤ 1`.
//!
//! The number of variables is exponential in `k`; following Section 2.2 the
//! LP is solved with only oracle access to the valuations. Where the paper
//! separates the dual with the ellipsoid method, this implementation runs
//! the equivalent primal column-generation loop: the restricted master is
//! solved by simplex, the duals `y_{v,j}` are turned into bidder-specific
//! channel prices `p_{v,j} = Σ_{u : v ∈ Γπ(u)} w̄(v,u) · y_{u,j}`, and each
//! bidder's demand oracle proposes the bundle of maximum utility at those
//! prices; bundles whose utility exceeds the bidder's dual `z_v` enter the
//! master as new columns.
//!
//! That master and its pricing loop live in one place, [`AuctionSession`]:
//! the one-shot entry points here run a throwaway session's cold resolve.
//! This module keeps the relaxation's types and options, and the enumerated
//! master ([`solve_relaxation_explicit`]) that serves as the independent
//! reference.

use crate::channels::ChannelSet;
use crate::instance::AuctionInstance;
use crate::session::AuctionSession;
use crate::solver::{SolveError, SolverOptions};
use serde::{Deserialize, Serialize};
use ssa_lp::{
    is_native_tag, ColumnGeneration, GeneratedColumn, LpStatus, MasterProblem, Relation, Sense,
    SolveStats,
};

/// One non-zero variable `x_{v,T}` of the fractional solution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FractionalEntry {
    /// The bidder `v`.
    pub bidder: usize,
    /// The bundle `T`.
    pub bundle: ChannelSet,
    /// The fractional assignment `x_{v,T} ∈ (0, 1]`.
    pub x: f64,
    /// The bidder's value `b_{v,T}` for the bundle.
    pub value: f64,
}

/// What the LP engine did to solve the relaxation — the stage-level
/// attribution the perf benches diff across PRs: the column-generation and
/// session counters, plus the engine's [`SolveStats`] merged over every
/// master re-solve in [`engine`](Self::engine).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RelaxationInfo {
    /// Master pricing rounds of the column-generation loop (1 for the
    /// explicit enumeration path).
    pub rounds: usize,
    /// Bundle columns in the final restricted master (solver-internal
    /// relief and dead columns are not counted).
    pub num_columns: usize,
    /// Pivots of each master re-solve in order (the warm-start win is the
    /// drop after round 0).
    pub per_round_iterations: Vec<usize>,
    /// Oracle pricing rounds (columns actually asked for — excludes the
    /// final empty round that certifies optimality only when the master
    /// converged in round one).
    pub pricing_rounds: usize,
    /// Columns adopted by the master in each pricing round, in order — the
    /// dual-oscillation fingerprint: a long tail of 1s means the
    /// trajectory thrashes.
    pub columns_per_round: Vec<usize>,
    /// Total columns adopted by the master across all pricing rounds.
    pub columns_generated: usize,
    /// Columns this solve adopted from the session's managed
    /// [`ssa_lp::ColumnPool`] (0 on one-shot solves: their throwaway
    /// session's pool starts empty).
    pub pool_hits: usize,
    /// Pool entries evicted (bounded-capacity LRU-by-usefulness) while
    /// absorbing this solve's discoveries. A one-shot solve reports its
    /// throwaway session's pool, which evicts only when the master holds
    /// more bundle columns than `LpFormulationOptions::column_pool_capacity`.
    pub pool_evictions: usize,
    /// Rows deactivated in place on the master over its lifetime (the
    /// session's basis-preserving departure path; always 0 on one-shot
    /// solves).
    pub rows_deactivated: usize,
    /// Master compactions over its lifetime (deadweight physically removed
    /// once it passed `LpFormulationOptions::compaction_threshold`).
    pub compactions: usize,
    /// Engine counters (pivots, refactorizations, hyper-sparse solves,
    /// result density) merged over every master re-solve.
    pub engine: SolveStats,
}

/// Read-only bridge for the benchmark package, which still reads the
/// engine counters flat off the info (`info.simplex_iterations`). Code in
/// this workspace reads `info.engine.*`; the bridge goes once the
/// benchmark does too.
impl std::ops::Deref for RelaxationInfo {
    type Target = SolveStats;
    fn deref(&self) -> &SolveStats {
        &self.engine
    }
}

impl RelaxationInfo {
    fn from_solution(solution: &ssa_lp::LpSolution, rounds: usize, num_columns: usize) -> Self {
        RelaxationInfo {
            rounds,
            num_columns,
            per_round_iterations: vec![solution.stats.simplex_iterations],
            engine: solution.stats,
            ..RelaxationInfo::default()
        }
    }

    /// Attribution of a column-generation run on a session master (cold
    /// and warm paths alike; the one-shot entry points run a throwaway
    /// session).
    pub(crate) fn from_cg(result: &ssa_lp::ColumnGenerationResult, num_columns: usize) -> Self {
        RelaxationInfo {
            rounds: result.rounds,
            num_columns,
            per_round_iterations: result.per_round_iterations.clone(),
            pricing_rounds: result.pricing_rounds,
            columns_per_round: result.columns_per_round.clone(),
            columns_generated: result.columns_generated,
            engine: result.stats,
            ..RelaxationInfo::default()
        }
    }
}

/// A fractional solution of the relaxation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FractionalAssignment {
    /// Non-zero entries (x > tolerance).
    pub entries: Vec<FractionalEntry>,
    /// Objective value `Σ b_{v,T} · x_{v,T}` of the relaxation.
    pub objective: f64,
    /// Whether column generation converged (no improving column left), i.e.
    /// the value is the true LP optimum rather than a lower bound.
    pub converged: bool,
    /// Number of pricing rounds performed.
    pub rounds: usize,
    /// Number of columns in the final restricted master.
    pub num_columns: usize,
    /// LP attribution: the engine's iteration/refactorization counters.
    pub info: RelaxationInfo,
}

impl FractionalAssignment {
    /// Total fractional assignment of bidder `v` (should be ≤ 1).
    pub fn bidder_total(&self, v: usize) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.bidder == v)
            .map(|e| e.x)
            .sum()
    }

    /// Checks that the solution satisfies the relaxation's constraints on
    /// the given instance (used by tests and by the solver's verification
    /// step).
    pub fn satisfies_constraints(&self, instance: &AuctionInstance, tol: f64) -> bool {
        let n = instance.num_bidders();
        let k = instance.num_channels;
        // bidder constraints
        for v in 0..n {
            if self.bidder_total(v) > 1.0 + tol {
                return false;
            }
        }
        // (v, j) constraints: accumulate weighted load per row
        let mut load = vec![0.0f64; n * k];
        for e in &self.entries {
            for j in e.bundle.iter() {
                for (row_bidder, w) in instance.forward_rows(e.bidder, j) {
                    load[row_bidder * k + j] += w * e.x;
                }
            }
        }
        load.iter().all(|&l| l <= instance.rho + tol)
    }
}

/// Options controlling how the relaxation is built and solved.
#[derive(Clone, Debug)]
pub struct LpFormulationOptions {
    /// Column-generation driver settings (master simplex options, round
    /// limit, reduced-cost tolerance).
    pub column_generation: ColumnGeneration,
    /// Each bidder's top `seed_top_bundles` zero-price bundles are seeded
    /// into every rebuilt restricted master (a session's first resolve,
    /// which is also what the one-shot entry points run). The default of
    /// `4` is the E12-measured sweet spot: a seed-depth sweep at
    /// n ∈ {200, 800, 2000} showed depth 4 puts the optimum's support in
    /// the initial master and collapses the pricing loop to a single round
    /// at every scale
    /// (n = 2000: 9916 → 6439 total pivots, 12.7 s → 7.4 s, zero columns
    /// generated), while depth 1 (the pre-PR 10 behavior) lets the first
    /// round dump one column per unsatisfied bidder and the re-solve then
    /// fights their mutual degeneracy. Depths past the valuation profile's
    /// bundle count are free (`demand_top` saturates).
    pub seed_top_bundles: usize,
    /// Capacity of the session's managed column pool
    /// ([`ssa_lp::ColumnPool`]): bundles remembered across resolves for
    /// warm seeding, with LRU-by-usefulness eviction past the cap. `0`
    /// means unbounded (the pre-PR 10 behavior).
    pub column_pool_capacity: usize,
    /// If `true`, skip column generation and enumerate **all** bundles with
    /// positive value as columns (exponential in `k`; only sensible for
    /// small `k`, used by tests as ground truth).
    pub enumerate_all_bundles: bool,
    /// Entries with `x` below this threshold are dropped from the reported
    /// solution.
    pub support_tolerance: f64,
    /// Session masters compact (physically remove deactivated rows and
    /// dead columns, remapping the warm basis) once the deadweight fraction
    /// reaches this threshold. `1.0` effectively disables compaction.
    pub compaction_threshold: f64,
}

impl Default for LpFormulationOptions {
    fn default() -> Self {
        LpFormulationOptions {
            column_generation: ColumnGeneration::default(),
            seed_top_bundles: 4,
            column_pool_capacity: 8192,
            enumerate_all_bundles: false,
            support_tolerance: 1e-9,
            compaction_threshold: 0.25,
        }
    }
}

/// Packs `(bidder, bundle)` into the 64-bit column tag every master uses
/// for column identity (bidder in the high 32 bits, bundle bits low — the
/// source of the `k ≤ 32` limit). The session's pool, the master and the
/// extraction all share this one encoding.
pub(crate) fn column_tag(bidder: usize, bundle: ChannelSet) -> u64 {
    ((bidder as u64) << 32) | bundle.bits()
}

/// Inverse of [`column_tag`].
pub(crate) fn decode_column_tag(tag: u64) -> (usize, ChannelSet) {
    (
        (tag >> 32) as usize,
        ChannelSet::from_bits(tag & 0xFFFF_FFFF),
    )
}

/// The enumerated master's column of `(bidder, bundle)` under the canonical
/// row layout of [`master_rows`]: row `v·k + j` for constraint `(v, j)`,
/// row `n·k + v` for bidder `v`.
fn column_for(instance: &AuctionInstance, bidder: usize, bundle: ChannelSet) -> GeneratedColumn {
    let k = instance.num_channels;
    let n = instance.num_bidders();
    let mut coeffs: Vec<(usize, f64)> = Vec::new();
    for j in bundle.iter() {
        for (v, w) in instance.forward_rows(bidder, j) {
            coeffs.push((v * k + j, w));
        }
    }
    coeffs.push((n * k + bidder, 1.0));
    GeneratedColumn {
        objective: instance.value(bidder, bundle),
        coeffs,
        tag: column_tag(bidder, bundle),
    }
}

pub(crate) fn master_rows(instance: &AuctionInstance) -> Vec<(Relation, f64)> {
    let n = instance.num_bidders();
    let k = instance.num_channels;
    let mut rows = Vec::with_capacity(n * k + n);
    for _ in 0..n * k {
        rows.push((Relation::Le, instance.rho));
    }
    for _ in 0..n {
        rows.push((Relation::Le, 1.0));
    }
    rows
}

/// Solves the LP relaxation of the instance (legacy, infallible entry
/// point: an interrupted solve degrades into its non-converged partial
/// result instead of an error).
///
/// With the default options this is the cold resolve of a throwaway
/// [`AuctionSession`] over a clone of the instance: column generation
/// through the bidders' demand oracles on the session's master. With
/// [`LpFormulationOptions::enumerate_all_bundles`] all `2^k` bundles per
/// bidder are materialized up front instead (ground truth for small `k`).
pub fn solve_relaxation(
    instance: &AuctionInstance,
    options: &LpFormulationOptions,
) -> FractionalAssignment {
    try_solve_relaxation(instance, options)
        .or_else(|error| match error {
            SolveError::IterationLimit { partial, .. } => Ok(*partial),
            other => Err(other),
        })
        .expect("x = 0 is feasible, so a well-formed instance's relaxation is never infeasible")
}

/// Solves the LP relaxation, surfacing an interrupted solve — a master out
/// of simplex pivots *or* column generation out of pricing rounds — as
/// [`SolveError::IterationLimit`] (with the partial result attached) and an
/// infeasible master as [`SolveError::Infeasible`], instead of the legacy
/// degrade-gracefully behavior of [`solve_relaxation`]. `Ok` therefore
/// always carries a converged, true LP optimum.
///
/// Column generation runs as
/// [`AuctionSession::resolve_relaxation`] on a throwaway session, so a
/// one-shot solve and a session's first resolve are the same computation.
pub fn try_solve_relaxation(
    instance: &AuctionInstance,
    options: &LpFormulationOptions,
) -> Result<FractionalAssignment, SolveError> {
    if options.enumerate_all_bundles {
        return solve_enumerated(instance, options);
    }
    let options = SolverOptions {
        lp: options.clone(),
        ..Default::default()
    };
    AuctionSession::new(instance.clone(), options).resolve_relaxation()
}

/// Maps a terminal master status (and a pricing-round-budget truncation,
/// which leaves the last master solve `Optimal` but the column generation
/// unconverged) to the strict-path error, if any. Shared by the `try_*`
/// entry points and [`crate::session::AuctionSession`], so every strict
/// caller has the same contract: `Ok` implies the reported objective is the
/// true LP optimum.
pub(crate) fn strict_status_error(
    status: LpStatus,
    fractional: &FractionalAssignment,
) -> Result<(), SolveError> {
    match status {
        LpStatus::Optimal if fractional.converged => Ok(()),
        // The simplex pivot budget or the pricing-round budget ran out: the
        // partial objective is only a lower bound.
        LpStatus::Optimal | LpStatus::IterationLimit => Err(SolveError::IterationLimit {
            rounds: fractional.rounds,
            partial: Box::new(fractional.clone()),
        }),
        // A bounded packing master cannot be unbounded; treat both terminal
        // failures as the malformed-instance error.
        LpStatus::Infeasible | LpStatus::Unbounded => Err(SolveError::Infeasible),
    }
}

/// Offers the master seed set to `add`: the caller's column pool
/// (re-priced at the current valuations) followed by each bidder's top
/// `seed_top` zero-price bundles, with one positive-value filter.
///
/// `seed_top` is the E12-measured lever against pricing-loop degeneracy:
/// with only the single favorite seeded (`seed_top = 1`), the first
/// pricing round returns one improving column per unsatisfied bidder —
/// hundreds at once at n = 2000 — and the warm re-solve fights their
/// mutual degeneracy pivot by pivot (~40% of the run's pivots). Seeding
/// each bidder's top four instead puts the optimum's support in the
/// initial master and the loop converges in one round at every measured
/// scale (n = 2000: 9916 → 6439 pivots, zero generated columns).
pub(crate) fn seed_columns(
    instance: &AuctionInstance,
    pool: &[(usize, ChannelSet)],
    seed_top: usize,
    mut add: impl FnMut(usize, ChannelSet),
) {
    for &(bidder, bundle) in pool {
        if !bundle.is_empty() && instance.value(bidder, bundle) > 0.0 {
            add(bidder, bundle);
        }
    }
    let zero_prices = vec![0.0; instance.num_channels];
    for bidder in 0..instance.num_bidders() {
        for bundle in instance.bidders[bidder].demand_top(&zero_prices, seed_top.max(1)) {
            if !bundle.is_empty() && instance.value(bidder, bundle) > 0.0 {
                add(bidder, bundle);
            }
        }
    }
}

/// The enumerated master: every positive-value bundle of every bidder as a
/// column of the canonical layout, solved once. Independent of the
/// session's column-generation master, which makes it the reference the
/// tests check that master against.
fn solve_enumerated(
    instance: &AuctionInstance,
    options: &LpFormulationOptions,
) -> Result<FractionalAssignment, SolveError> {
    let mut master = MasterProblem::new(Sense::Maximize, master_rows(instance));
    for bidder in 0..instance.num_bidders() {
        for bundle in ChannelSet::all_bundles(instance.num_channels) {
            if !bundle.is_empty() && instance.value(bidder, bundle) > 0.0 {
                master.add_column(column_for(instance, bidder, bundle));
            }
        }
    }
    let solution = master.solve(&options.column_generation.simplex);
    let status = solution.status;
    let info = RelaxationInfo::from_solution(&solution, 1, master.num_columns());
    let fractional = extract(
        instance,
        &master,
        solution,
        status == LpStatus::Optimal,
        info,
        options.support_tolerance,
    );
    strict_status_error(status, &fractional)?;
    Ok(fractional)
}

pub(crate) fn extract(
    instance: &AuctionInstance,
    master: &MasterProblem,
    solution: ssa_lp::LpSolution,
    converged: bool,
    info: RelaxationInfo,
    support_tolerance: f64,
) -> FractionalAssignment {
    let mut entries = Vec::new();
    let mut objective = 0.0;
    if solution.status == LpStatus::Optimal || solution.status == LpStatus::IterationLimit {
        for (idx, col) in master.columns().iter().enumerate() {
            if !is_native_tag(col.tag) {
                // Solver-internal columns assign nothing: relief columns
                // carry deactivated rows, dead tombstones are departed
                // bidders' retired bundles.
                continue;
            }
            let x = solution.x.get(idx).copied().unwrap_or(0.0);
            if x > support_tolerance {
                let (bidder, bundle) = decode_column_tag(col.tag);
                let value = instance.value(bidder, bundle);
                objective += value * x;
                entries.push(FractionalEntry {
                    bidder,
                    bundle,
                    x,
                    value,
                });
            }
        }
    }
    FractionalAssignment {
        entries,
        objective,
        converged,
        rounds: info.rounds,
        num_columns: info.num_columns,
        info,
    }
}

/// Convenience: solve the relaxation with exhaustive bundle enumeration
/// (exact LP optimum; exponential in `k`).
pub fn solve_relaxation_explicit(instance: &AuctionInstance) -> FractionalAssignment {
    let options = LpFormulationOptions {
        enumerate_all_bundles: true,
        ..Default::default()
    };
    solve_relaxation(instance, &options)
}

/// Convenience: default column-generation solve.
pub fn solve_relaxation_oracle(instance: &AuctionInstance) -> FractionalAssignment {
    solve_relaxation(instance, &LpFormulationOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ConflictStructure;
    use crate::valuation::{AdditiveValuation, TabularValuation, Valuation, XorValuation};
    use ssa_conflict_graph::{ConflictGraph, VertexOrdering, WeightedConflictGraph};
    use std::sync::Arc;

    fn xor_bidder(k: usize, bids: Vec<(Vec<usize>, f64)>) -> Arc<dyn Valuation> {
        Arc::new(XorValuation::new(
            k,
            bids.into_iter()
                .map(|(chs, v)| (ChannelSet::from_channels(chs), v))
                .collect(),
        ))
    }

    /// Two conflicting bidders, one channel: the LP can give each half of
    /// the channel (rho = 1 ⇒ constraint x_{1,{0}} ≤ 1 for the later
    /// vertex's row); the LP optimum is therefore at least the best single
    /// bidder and at most the sum.
    #[test]
    fn single_channel_conflict_pair() {
        let g = ConflictGraph::from_edges(2, &[(0, 1)]);
        let bidders = vec![
            xor_bidder(1, vec![(vec![0], 4.0)]),
            xor_bidder(1, vec![(vec![0], 3.0)]),
        ];
        let inst = AuctionInstance::new(
            1,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(2),
            1.0,
        );
        let frac = solve_relaxation_oracle(&inst);
        assert!(frac.converged);
        // Constraint (1b) for v=1, j=0 restricts only bidder 0 (backward
        // neighbor), so x_{0,{0}} ≤ 1 and x_{1,{0}} ≤ 1: the relaxation can
        // serve both fully and its optimum is 7.
        assert!(
            (frac.objective - 7.0).abs() < 1e-6,
            "objective {}",
            frac.objective
        );
        assert!(frac.satisfies_constraints(&inst, 1e-7));
    }

    #[test]
    fn oracle_and_explicit_formulations_agree() {
        // 4 bidders on a path, 2 channels, mixed valuations
        let g = ConflictGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let bidders: Vec<Arc<dyn Valuation>> = vec![
            xor_bidder(2, vec![(vec![0], 3.0), (vec![0, 1], 5.0)]),
            Arc::new(AdditiveValuation::new(vec![2.0, 2.5])),
            xor_bidder(2, vec![(vec![1], 4.0)]),
            Arc::new(TabularValuation::new(
                2,
                vec![
                    (ChannelSet::from_channels([0]), 1.5),
                    (ChannelSet::from_channels([0, 1]), 6.0),
                ],
            )),
        ];
        let inst = AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(4),
            1.0,
        );
        let oracle = solve_relaxation_oracle(&inst);
        let explicit = solve_relaxation_explicit(&inst);
        assert!(oracle.converged);
        assert!(
            (oracle.objective - explicit.objective).abs() < 1e-5,
            "column generation ({}) vs explicit ({})",
            oracle.objective,
            explicit.objective
        );
        assert!(oracle.satisfies_constraints(&inst, 1e-6));
        assert!(explicit.satisfies_constraints(&inst, 1e-6));
    }

    #[test]
    fn relaxation_upper_bounds_any_feasible_allocation() {
        // independent bidders (no conflicts): LP optimum equals the sum of
        // max values
        let g = ConflictGraph::new(3);
        let bidders: Vec<Arc<dyn Valuation>> = vec![
            xor_bidder(2, vec![(vec![0], 2.0), (vec![1], 3.0)]),
            xor_bidder(2, vec![(vec![0, 1], 7.0)]),
            Arc::new(AdditiveValuation::new(vec![1.0, 1.0])),
        ];
        let inst = AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(3),
            1.0,
        );
        let frac = solve_relaxation_oracle(&inst);
        assert!((frac.objective - (3.0 + 7.0 + 2.0)).abs() < 1e-6);
        // every bidder's total assignment is at most 1
        for v in 0..3 {
            assert!(frac.bidder_total(v) <= 1.0 + 1e-7);
        }
    }

    #[test]
    fn weighted_relaxation_uses_symmetric_weights() {
        // Two bidders whose mutual weight is 0.4+0.4=0.8 < 1: they are in
        // fact compatible, and the (v, j) constraint with rho = 1 does not
        // prevent serving both fully.
        let mut g = WeightedConflictGraph::new(2);
        g.set_weight(0, 1, 0.4);
        g.set_weight(1, 0, 0.4);
        let bidders = vec![
            xor_bidder(1, vec![(vec![0], 1.0)]),
            xor_bidder(1, vec![(vec![0], 1.0)]),
        ];
        let inst = AuctionInstance::new(
            1,
            bidders,
            ConflictStructure::Weighted(g),
            VertexOrdering::identity(2),
            1.0,
        );
        let frac = solve_relaxation_oracle(&inst);
        assert!((frac.objective - 2.0).abs() < 1e-6);
        assert!(frac.satisfies_constraints(&inst, 1e-7));
    }

    #[test]
    fn oracle_and_explicit_formulations_agree_on_weighted_conflicts() {
        let mut g = WeightedConflictGraph::new(3);
        g.set_weight(0, 1, 0.6);
        g.set_weight(1, 0, 0.6);
        g.set_weight(1, 2, 0.5);
        g.set_weight(2, 1, 0.5);
        let bidders = vec![
            xor_bidder(2, vec![(vec![0], 2.0), (vec![0, 1], 3.0)]),
            xor_bidder(2, vec![(vec![0], 1.5), (vec![1], 2.5)]),
            xor_bidder(2, vec![(vec![1], 2.0)]),
        ];
        let inst = AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::Weighted(g),
            VertexOrdering::identity(3),
            1.0,
        );
        let explicit = solve_relaxation_explicit(&inst);
        let oracle = solve_relaxation_oracle(&inst);
        assert!(oracle.converged);
        assert!(
            (oracle.objective - explicit.objective).abs() < 1e-5 * (1.0 + explicit.objective),
            "oracle {} vs explicit {}",
            oracle.objective,
            explicit.objective
        );
        assert!(oracle.satisfies_constraints(&inst, 1e-6));
    }

    #[test]
    fn asymmetric_channels_use_per_channel_graphs() {
        // channel 0: clique on {0,1}; channel 1: no conflicts.
        let g0 = ConflictGraph::from_edges(2, &[(0, 1)]);
        let g1 = ConflictGraph::new(2);
        let bidders = vec![
            xor_bidder(2, vec![(vec![0], 5.0), (vec![1], 4.0)]),
            xor_bidder(2, vec![(vec![0], 5.0), (vec![1], 4.0)]),
        ];
        let inst = AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::AsymmetricBinary(vec![g0, g1]),
            VertexOrdering::identity(2),
            1.0,
        );
        let frac = solve_relaxation_explicit(&inst);
        // each bidder takes one bundle; channel 0 admits both only
        // fractionally via the (1,0) row, channel 1 admits both.
        assert!(frac.objective >= 8.0 - 1e-6);
        assert!(frac.satisfies_constraints(&inst, 1e-6));
    }

    #[test]
    fn clique_with_many_channels_behaves_like_combinatorial_auction() {
        // 3 bidders in a clique (ordinary combinatorial auction), 2 channels,
        // single-minded for disjoint bundles: all can be served.
        let g = ConflictGraph::clique(3);
        let bidders: Vec<Arc<dyn Valuation>> = vec![
            xor_bidder(2, vec![(vec![0], 3.0)]),
            xor_bidder(2, vec![(vec![1], 2.0)]),
            xor_bidder(2, vec![(vec![0, 1], 4.0)]),
        ];
        let inst = AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(3),
            1.0,
        );
        let frac = solve_relaxation_explicit(&inst);
        // The LP relaxation of this combinatorial auction has optimum 5
        // (bidders 0 and 1) — bidder 2 conflicts with both on its channels
        // only through rows of later vertices; with the identity ordering the
        // binding rows are those of bidder 2, limiting 0 and 1 to a combined
        // load of rho = 1 per channel... the exact value depends on the
        // ordering, so we only check bounds and constraint satisfaction.
        assert!(frac.objective >= 4.0 - 1e-6);
        assert!(frac.objective <= 9.0 + 1e-6);
        assert!(frac.satisfies_constraints(&inst, 1e-6));
    }
}
