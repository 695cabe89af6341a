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
    solve_relaxation, try_solve_relaxation, FractionalAssignment, LpFormulationOptions,
    RelaxationInfo,
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

/// Options of the end-to-end solver.
///
/// This struct predates [`SolverBuilder`] and is kept as a thin
/// compatibility shim so existing call sites keep compiling; it only nests
/// the per-stage option structs. New code should configure the pipeline
/// through [`SolverBuilder`], which covers every knob in one place:
///
/// ```
/// use ssa_core::solver::SolverBuilder;
///
/// let solver = SolverBuilder::new().seed_top_bundles(4).rounding(7, 32).build();
/// # let _ = solver;
/// ```
#[derive(Clone, Debug, Default)]
pub struct SolverOptions {
    /// How the LP relaxation is built and solved.
    pub lp: LpFormulationOptions,
    /// How the rounding stage is run.
    pub rounding: RoundingOptions,
}

/// The one way to configure the pipeline: a fluent builder covering column
/// generation and the rounding stage, producing either a
/// one-shot [`SpectrumAuctionSolver`] or a long-lived incremental
/// [`AuctionSession`].
///
/// Replaces the former `SolverOptions` → `LpFormulationOptions` →
/// `SimplexOptions` → `RoundingOptions` nesting (each with its own `with_*`
/// forwarding) that accreted over three PRs of engine growth; those structs
/// remain as shims reachable through [`SolverBuilder::options`].
#[derive(Clone, Debug, Default)]
pub struct SolverBuilder {
    options: SolverOptions,
}

impl SolverBuilder {
    /// Starts from the default configuration (top-4 seeding, 16 rounding
    /// trials with seed 1).
    pub fn new() -> Self {
        SolverBuilder::default()
    }

    /// Caps the session column pool ([`ssa_lp::ColumnPool`]) at `capacity`
    /// entries with LRU-by-usefulness eviction; `0` means unbounded.
    pub fn column_pool_capacity(mut self, capacity: usize) -> Self {
        self.options.lp.column_pool_capacity = capacity;
        self
    }

    /// Seeds the initial restricted master with each bidder's top `s`
    /// zero-price bundles instead of just the favorite. The default (4)
    /// is the measured degeneracy killer at scale — see
    /// [`LpFormulationOptions::seed_top_bundles`](crate::LpFormulationOptions::seed_top_bundles);
    /// `1` recovers the classic favorite-only seed.
    pub fn seed_top_bundles(mut self, s: usize) -> Self {
        self.options.lp.seed_top_bundles = s.max(1);
        self
    }

    /// Configures the randomized rounding stage: RNG seed and number of
    /// independent trials (the best allocation is kept). Rounding needs at
    /// least one trial, so `0` is treated as `1`.
    pub fn rounding(mut self, seed: u64, trials: usize) -> Self {
        self.options.rounding = RoundingOptions {
            seed,
            trials: trials.max(1),
        };
        self
    }

    /// Caps the number of column-generation pricing rounds per relaxation
    /// solve.
    pub fn max_pricing_rounds(mut self, rounds: usize) -> Self {
        self.options.lp.column_generation.max_rounds = rounds;
        self
    }

    /// Enumerates **all** bundles with positive value up front instead of
    /// generating columns through the demand oracles (exponential in `k`;
    /// ground truth for small instances).
    pub fn enumerate_all_bundles(mut self, enumerate: bool) -> Self {
        self.options.lp.enumerate_all_bundles = enumerate;
        self
    }

    /// The assembled [`SolverOptions`] — the escape hatch for call sites
    /// that still need the shim structs (e.g. to tweak a simplex tolerance).
    pub fn options(self) -> SolverOptions {
        self.options
    }

    /// Builds the one-shot solver.
    pub fn build(self) -> SpectrumAuctionSolver {
        SpectrumAuctionSolver::new(self.options)
    }

    /// Opens an incremental [`AuctionSession`] over `instance`: the session
    /// owns the instance, caches LP state across [`resolve`] calls and
    /// accepts mutations (bidders arriving/leaving, re-bids, ρ and channel
    /// changes) between them.
    ///
    /// [`resolve`]: AuctionSession::resolve
    pub fn session(self, instance: AuctionInstance) -> AuctionSession {
        AuctionSession::new(instance, self.options)
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

/// The end-to-end solver.
#[derive(Clone, Debug, Default)]
pub struct SpectrumAuctionSolver {
    /// Solver options.
    pub options: SolverOptions,
}

impl SpectrumAuctionSolver {
    /// Creates a solver with the given options.
    pub fn new(options: SolverOptions) -> Self {
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
        let fractional = solve_relaxation(instance, &self.options.lp);
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
        let fractional = try_solve_relaxation(instance, &self.options.lp)?;
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
    use crate::exact::solve_exact_default;
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
        let solver = SpectrumAuctionSolver::new(SolverOptions {
            rounding: RoundingOptions {
                seed: 9,
                trials: 64,
            },
            ..Default::default()
        });
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
        let exact = solve_exact_default(&inst);
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
        let solver = SpectrumAuctionSolver::new(SolverOptions {
            rounding: RoundingOptions {
                seed: 13,
                trials: 32,
            },
            ..Default::default()
        });
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
        let solver = SpectrumAuctionSolver::new(SolverOptions {
            rounding: RoundingOptions {
                seed: 21,
                trials: 64,
            },
            ..Default::default()
        });
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
