//! The end-to-end solving pipeline: LP relaxation → randomized rounding →
//! (for weighted graphs) Algorithm 3 → verified feasible allocation.
//!
//! This is the "public entry point" a user of the library calls: it hides
//! the choice between Algorithm 1 and Algorithm 2/3 behind the instance's
//! conflict structure and always re-validates the returned allocation
//! against the original constraints.
//!
//! Guarantees reproduced (in expectation over the rounding stage):
//!
//! | structure | guarantee | source |
//! |---|---|---|
//! | binary, symmetric channels | `b*/(8·√k·ρ)` | Theorem 3 |
//! | weighted, symmetric channels | `b*/(16·√k·ρ·⌈log n⌉)` | Lemmas 7 + 8 |
//! | binary/weighted, asymmetric channels | `b*/(8·k·ρ)` resp. `b*/(16·k·ρ·⌈log n⌉)` | Section 6 |

use crate::allocation::Allocation;
use crate::conflict_resolution::make_feasible;
use crate::instance::AuctionInstance;
use crate::lp_formulation::{
    solve_relaxation, try_solve_relaxation, FractionalAssignment, RelaxationInfo,
};
use crate::rounding::{round_binary, round_weighted_partial, RoundingOptions, RoundingStats};
use crate::session::AuctionSession;

/// Typed failure of the solving pipeline, returned by the fallible entry
/// points: the session's [`AuctionSession::resolve`] and
/// [`AuctionSession::resolve_relaxation`], and the one-shot
/// [`SpectrumAuctionSolver::try_solve`] and
/// [`crate::lp_formulation::try_solve_relaxation`], which run a throwaway
/// session's cold resolve and so fail the same way.
///
/// The legacy entry points ([`SpectrumAuctionSolver::solve`],
/// [`crate::lp_formulation::solve_relaxation`]) keep their historical
/// degrade-gracefully behavior: an interrupted LP is returned as a
/// non-converged lower bound and the final feasibility check is a
/// `debug_assert!`. New code should prefer the `try_*`/`resolve` paths and
/// match on this error instead.
#[derive(Clone, Debug)]
pub enum SolveError {
    /// A budget ran out before optimality was proven — either a master LP
    /// solve exhausted its simplex pivot budget, or column generation hit
    /// its pricing-round cap ([`crate::session::AuctionSession`] and the
    /// `try_*` entry points treat both the same: `Ok` always means the
    /// reported LP value is the true optimum). The partial result is
    /// attached (boxed — the error path is cold): its objective is a valid
    /// lower bound, its duals are untrusted.
    IterationLimit {
        /// Pricing rounds performed before the interrupted solve.
        rounds: usize,
        /// The truncated, explicitly non-converged fractional solution.
        partial: Box<FractionalAssignment>,
    },
    /// The relaxation master reported an infeasible (or, equivalently for a
    /// bounded packing master, unbounded) LP. This cannot happen for a
    /// well-formed [`AuctionInstance`] — the all-zero assignment is always
    /// feasible — so it indicates inconsistent session mutations or a bug.
    Infeasible,
    /// The rounding stage produced an allocation that failed the final
    /// feasibility re-check against the original constraints. The violating
    /// channels are attached.
    InfeasibleRounding {
        /// Channels whose winner set violates the conflict structure.
        violated_channels: Vec<usize>,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::IterationLimit { rounds, partial } => write!(
                f,
                "relaxation solve ran out of budget (simplex pivots or pricing rounds) after \
                 {rounds} pricing rounds (partial objective {:.6} is a lower bound)",
                partial.objective
            ),
            SolveError::Infeasible => {
                write!(f, "relaxation master is infeasible (malformed instance)")
            }
            SolveError::InfeasibleRounding { violated_channels } => write!(
                f,
                "rounding produced an infeasible allocation (bug): violated channels {violated_channels:?}"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// The one configuration of the pipeline: a fluent builder covering
/// column generation and the rounding stage, producing either a one-shot
/// [`SpectrumAuctionSolver`] or a long-lived incremental [`AuctionSession`].
///
/// ```
/// use ssa_core::solver::SolverBuilder;
///
/// let solver = SolverBuilder::new().seed_top_bundles(4).rounding(7, 32).build();
/// # let _ = solver;
/// ```
///
/// Everything else the pipeline reads is fixed: the LP engine's
/// tolerances, stall threshold, refactor interval and pivot budget and the
/// master's reduced-cost tolerance are constants of `ssa_lp`, and the
/// support tolerance and the session's deadweight limit are constants of
/// the modules that read them.
#[derive(Clone, Debug)]
pub struct SolverBuilder {
    pub(crate) rounding: RoundingOptions,
    pub(crate) max_pricing_rounds: usize,
    pub(crate) seed_top_bundles: usize,
}

impl Default for SolverBuilder {
    fn default() -> Self {
        SolverBuilder {
            rounding: RoundingOptions::default(),
            max_pricing_rounds: 200,
            seed_top_bundles: 4,
        }
    }
}

impl SolverBuilder {
    /// Starts from the default configuration (top-4 seeding, at most 200
    /// pricing rounds, 16 rounding trials with seed 1).
    pub fn new() -> Self {
        SolverBuilder::default()
    }

    /// Seeds each rebuilt restricted master (a session's first resolve,
    /// which is also what the one-shot entry points run) with each bidder's
    /// top `s` zero-price bundles instead of just the favorite; `1`
    /// recovers the classic favorite-only seed.
    ///
    /// The default of 4 is the E12-measured sweet spot: it puts the
    /// optimum's support in the initial master and collapses the pricing
    /// loop to a single round at every measured scale (n = 2000: 9916 →
    /// 6439 total pivots). Depths past the valuation profile's bundle count
    /// are free (`demand_top` saturates).
    pub fn seed_top_bundles(mut self, s: usize) -> Self {
        self.seed_top_bundles = s.max(1);
        self
    }

    /// Configures the randomized rounding stage: RNG seed and number of
    /// independent trials (the best allocation is kept). Rounding needs at
    /// least one trial, so `0` is treated as `1`.
    pub fn rounding(mut self, seed: u64, trials: usize) -> Self {
        self.rounding = RoundingOptions {
            seed,
            trials: trials.max(1),
        };
        self
    }

    /// Caps the number of column-generation pricing rounds per relaxation
    /// solve (default 200).
    pub fn max_pricing_rounds(mut self, rounds: usize) -> Self {
        self.max_pricing_rounds = rounds;
        self
    }

    /// Builds the one-shot solver.
    pub fn build(self) -> SpectrumAuctionSolver {
        SpectrumAuctionSolver::new(self)
    }

    /// Opens an incremental [`AuctionSession`] over `instance`: the session
    /// owns the instance, caches LP state across [`resolve`] calls and
    /// accepts mutations (bidders arriving/leaving, re-bids, ρ and channel
    /// changes) between them.
    ///
    /// [`resolve`]: AuctionSession::resolve
    pub fn session(self, instance: AuctionInstance) -> AuctionSession {
        AuctionSession::new(instance, self)
    }
}

/// The outcome of the end-to-end pipeline.
#[derive(Clone, Debug)]
pub struct AuctionOutcome {
    /// The feasible allocation produced.
    pub allocation: Allocation,
    /// Social welfare of `allocation`.
    pub welfare: f64,
    /// Objective value of the LP relaxation (`b*` in the paper's notation —
    /// an upper bound on the optimal welfare when column generation
    /// converged).
    pub lp_objective: f64,
    /// Whether the LP was solved to optimality (column generation
    /// converged).
    pub lp_converged: bool,
    /// LP attribution: the column-generation counters, plus the engine's
    /// pivots, refactorizations and sparse solves in `lp_info.engine` — so
    /// benches can attribute time per stage.
    pub lp_info: RelaxationInfo,
    /// The a-priori guarantee of the pipeline on this instance: welfare is,
    /// in expectation, at least `lp_objective / guarantee_factor`.
    pub guarantee_factor: f64,
    /// Statistics of the rounding stage (experiment E2).
    pub rounding_stats: RoundingStats,
    /// Number of candidate allocations Algorithm 3 generated (0 for binary
    /// structures, which skip Algorithm 3).
    pub resolution_candidates: usize,
}

impl AuctionOutcome {
    /// The empirical ratio `lp_objective / welfare` (∞ if the welfare is 0
    /// but the LP found value). Smaller is better; compare against
    /// `guarantee_factor`.
    pub fn empirical_ratio(&self) -> f64 {
        if self.welfare <= 0.0 {
            if self.lp_objective <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.lp_objective / self.welfare
        }
    }
}

/// The a-priori guarantee factor of the pipeline for the given instance.
pub fn guarantee_factor(instance: &AuctionInstance) -> f64 {
    let k = instance.num_channels as f64;
    let n = instance.num_bidders() as f64;
    let scale = if instance.conflicts.is_asymmetric() {
        k
    } else {
        k.sqrt()
    };
    if instance.conflicts.is_weighted() {
        16.0 * scale * instance.rho * n.log2().ceil().max(1.0)
    } else {
        8.0 * scale * instance.rho
    }
}

/// The end-to-end solver: the one-shot pipeline under a [`SolverBuilder`]
/// configuration (prefer [`SolverBuilder::build`]).
#[derive(Clone, Debug, Default)]
pub struct SpectrumAuctionSolver {
    /// The configuration.
    pub options: SolverBuilder,
}

impl SpectrumAuctionSolver {
    /// Creates a solver with the given configuration.
    pub fn new(options: SolverBuilder) -> Self {
        SpectrumAuctionSolver { options }
    }

    /// Runs the full pipeline on an instance (legacy, infallible entry
    /// point). Prefer [`try_solve`](Self::try_solve) in new code: it
    /// surfaces interrupted LPs and infeasible roundings as a typed
    /// [`SolveError`] instead of degrading or asserting.
    ///
    /// # Panics
    /// Panics **in debug builds only** if the produced allocation fails the
    /// final feasibility re-check — that would indicate a bug, not a
    /// property of the input. (Release builds return the allocation as-is;
    /// use [`try_solve`](Self::try_solve) to get the check everywhere.)
    pub fn solve(&self, instance: &AuctionInstance) -> AuctionOutcome {
        let fractional = solve_relaxation(instance, &self.options);
        self.round_fractional(instance, &fractional)
    }

    /// Runs the full pipeline, surfacing failures as [`SolveError`]: an
    /// iteration-limited master becomes [`SolveError::IterationLimit`]
    /// (instead of a silently non-converged outcome) and a rounding that
    /// fails the final feasibility re-check becomes
    /// [`SolveError::InfeasibleRounding`] (instead of an `assert!`).
    ///
    /// The relaxation is a throwaway [`AuctionSession`]'s cold resolve
    /// ([`try_solve_relaxation`]); the rounding runs here rather than
    /// through [`AuctionSession::resolve`], whose debug-build
    /// re-certification would solve the relaxation a second time.
    pub fn try_solve(&self, instance: &AuctionInstance) -> Result<AuctionOutcome, SolveError> {
        let fractional = try_solve_relaxation(instance, &self.options)?;
        self.try_round_fractional(instance, &fractional)
    }

    /// Rounds an already-computed fractional solution (used by the
    /// mechanism, which needs to reuse one LP solution for many rounding
    /// runs). Legacy path: the final feasibility re-check is a
    /// `debug_assert!`; prefer
    /// [`try_round_fractional`](Self::try_round_fractional).
    pub fn round_fractional(
        &self,
        instance: &AuctionInstance,
        fractional: &FractionalAssignment,
    ) -> AuctionOutcome {
        let outcome = self.round_unchecked(instance, fractional);
        debug_assert!(
            outcome.allocation.is_feasible(instance),
            "pipeline produced an infeasible allocation (bug): violated channels {:?}",
            outcome.allocation.violated_channels(instance)
        );
        outcome
    }

    /// Rounds an already-computed fractional solution, returning
    /// [`SolveError::InfeasibleRounding`] if the result fails the final
    /// feasibility re-check (in every build profile, not just debug).
    pub fn try_round_fractional(
        &self,
        instance: &AuctionInstance,
        fractional: &FractionalAssignment,
    ) -> Result<AuctionOutcome, SolveError> {
        let outcome = self.round_unchecked(instance, fractional);
        if !outcome.allocation.is_feasible(instance) {
            return Err(SolveError::InfeasibleRounding {
                violated_channels: outcome.allocation.violated_channels(instance),
            });
        }
        Ok(outcome)
    }

    fn round_unchecked(
        &self,
        instance: &AuctionInstance,
        fractional: &FractionalAssignment,
    ) -> AuctionOutcome {
        let (allocation, welfare, stats, candidates) = if instance.conflicts.is_weighted() {
            let partial = round_weighted_partial(instance, fractional, &self.options.rounding);
            let resolved = make_feasible(instance, &partial.allocation);
            (
                resolved.allocation,
                resolved.welfare,
                partial.stats,
                resolved.candidates,
            )
        } else {
            let outcome = round_binary(instance, fractional, &self.options.rounding);
            (outcome.allocation, outcome.welfare, outcome.stats, 0)
        };
        AuctionOutcome {
            welfare,
            lp_objective: fractional.objective,
            lp_converged: fractional.converged,
            lp_info: fractional.info.clone(),
            guarantee_factor: guarantee_factor(instance),
            rounding_stats: stats,
            resolution_candidates: candidates,
            allocation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::ChannelSet;
    use crate::exact::solve_exact;
    use crate::instance::ConflictStructure;
    use crate::valuation::{Valuation, XorValuation};
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

    fn cycle_instance(n: usize, k: usize) -> AuctionInstance {
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = ConflictGraph::from_edges(n, &edges);
        let bidders: Vec<Arc<dyn Valuation>> = (0..n)
            .map(|i| {
                xor_bidder(
                    k,
                    vec![
                        (vec![i % k], 2.0 + (i % 3) as f64),
                        ((0..k).collect(), 3.0 + (i % 3) as f64),
                    ],
                )
            })
            .collect();
        AuctionInstance::new(
            k,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(n),
            2.0,
        )
    }

    #[test]
    fn binary_pipeline_is_feasible_and_within_guarantee() {
        let inst = cycle_instance(8, 2);
        let solver = SolverBuilder::new().rounding(9, 64).build();
        let outcome = solver.solve(&inst);
        assert!(outcome.allocation.is_feasible(&inst));
        assert!(outcome.lp_converged);
        assert!(outcome.welfare > 0.0);
        // best-of-64 trials should certainly reach the expectation guarantee
        assert!(
            outcome.welfare * outcome.guarantee_factor >= outcome.lp_objective - 1e-6,
            "welfare {} times factor {} below LP {}",
            outcome.welfare,
            outcome.guarantee_factor,
            outcome.lp_objective
        );
        // the LP objective upper-bounds the exact optimum
        let exact = solve_exact(&inst);
        assert!(outcome.lp_objective >= exact.welfare - 1e-6);
    }

    #[test]
    fn weighted_pipeline_runs_algorithm_3() {
        let n = 6;
        let mut g = WeightedConflictGraph::new(n);
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    g.set_weight(u, v, 0.3);
                }
            }
        }
        let bidders: Vec<Arc<dyn Valuation>> = (0..n)
            .map(|i| {
                xor_bidder(
                    2,
                    vec![(vec![0], 1.0 + i as f64), (vec![1], 1.5 + i as f64)],
                )
            })
            .collect();
        let inst = AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::Weighted(g),
            VertexOrdering::identity(n),
            2.0,
        );
        let solver = SolverBuilder::new().rounding(13, 32).build();
        let outcome = solver.solve(&inst);
        assert!(outcome.allocation.is_feasible(&inst));
        assert!(outcome.welfare > 0.0);
        assert!(outcome.guarantee_factor >= 16.0);
    }

    #[test]
    fn asymmetric_pipeline_uses_per_channel_graphs() {
        // channel 0 is a clique (only one winner), channel 1 is conflict-free
        let n = 4;
        let g0 = ConflictGraph::clique(n);
        let g1 = ConflictGraph::new(n);
        let bidders: Vec<Arc<dyn Valuation>> = (0..n)
            .map(|i| xor_bidder(2, vec![(vec![0], 4.0 + i as f64), (vec![1], 3.0)]))
            .collect();
        let inst = AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::AsymmetricBinary(vec![g0, g1]),
            VertexOrdering::identity(n),
            1.0,
        );
        let solver = SolverBuilder::new().rounding(21, 64).build();
        let outcome = solver.solve(&inst);
        assert!(outcome.allocation.is_feasible(&inst));
        // guarantee factor uses k, not sqrt(k), for asymmetric channels
        assert!((outcome.guarantee_factor - 8.0 * 2.0 * 1.0).abs() < 1e-9);
        // channel 0 must have at most one winner
        assert!(outcome.allocation.winners_of_channel(0).len() <= 1);
    }

    #[test]
    fn zero_rounding_trials_round_once() {
        let inst = cycle_instance(8, 2);
        let outcome = SolverBuilder::new()
            .rounding(3, 0)
            .build()
            .try_solve(&inst)
            .expect("a zero-trial builder still solves");
        assert!(outcome.allocation.is_feasible(&inst));
    }

    #[test]
    fn try_solve_surfaces_pricing_round_truncation() {
        let inst = cycle_instance(8, 2);
        let solver = SolverBuilder::new().max_pricing_rounds(0).build();
        match solver.try_solve(&inst) {
            Err(SolveError::IterationLimit { partial, .. }) => {
                assert!(!partial.converged);
                assert!(partial.objective >= 0.0);
            }
            other => panic!("expected IterationLimit, got {other:?}"),
        }
        // the legacy path still degrades gracefully on the same options
        let outcome = solver.solve(&inst);
        assert!(!outcome.lp_converged);
        // and with the default budget the strict path converges
        let outcome = SolverBuilder::new()
            .build()
            .try_solve(&inst)
            .expect("default budget converges");
        assert!(outcome.lp_converged);
    }
}
