//! The Lavi–Swamy decomposition: writing the scaled LP optimum `x*/α` as a
//! convex combination of feasible integral allocations (Section 5).
//!
//! The decomposition LP has one variable `λ_l` per feasible integral
//! allocation and requires `Σ_l λ_l·X_l ⪰ x*/α` with `Σ λ_l` as small as
//! possible. Its dual has one variable per support pair `(v, T)` of `x*`,
//! which can be read as an *adjusted valuation profile*; separating the
//! dual means solving the combinatorial auction for those adjusted
//! valuations, which is exactly what the paper's approximation algorithm is
//! for. This module runs that loop as column generation:
//!
//! * the master is seeded with the **singleton allocations** (bidder `v`
//!   receives bundle `T`, everyone else nothing) for every support pair —
//!   these are always feasible, so a valid cover exists from round one;
//! * each pricing round builds a [`TabularValuation`] profile from the
//!   current duals and runs the LP-rounding pipeline on it; the resulting
//!   integral allocation enters the master if it improves the cover.
//!
//! The adjusted instances of successive pricing rounds differ **only in
//! their valuations** (the conflict structure, ordering and ρ never move),
//! so the verifier keeps one [`AuctionSession`] alive across the whole
//! decomposition: each round swaps the valuations in through
//! [`AuctionSession::update_valuation`] — which re-prices the session
//! master's columns in place and resumes its recorded basis — instead of
//! rebuilding the relaxation LP from scratch.
//!
//! If the randomized verifier achieves its `α = 8√k·ρ` (resp. `16√k·ρ·⌈log
//! n⌉`) guarantee on every pricing round, the final objective is at most 1
//! and `x*/α` is covered; otherwise the measured objective is reported as
//! the *effective* scale factor `α_eff = α · Σλ` so the caller can charge
//! payments consistently.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use ssa_core::allocation::Allocation;
use ssa_core::lp_formulation::FractionalAssignment;
use ssa_core::session::AuctionSession;
use ssa_core::solver::{SolveError, SolverBuilder, SpectrumAuctionSolver};
use ssa_core::valuation::{TabularValuation, Valuation};
use ssa_core::{AuctionInstance, ChannelSet};
use ssa_lp::{GeneratedColumn, MasterProblem, Relation, Sense};
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum number of pricing rounds of the decomposition master.
const MAX_ROUNDS: usize = 40;

/// Probabilities at or below this threshold are dropped (and the remaining
/// distribution re-normalized).
const PROBABILITY_TOLERANCE: f64 = 1e-9;

/// A convex combination of feasible integral allocations dominating
/// `x*/α_eff`.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// `(probability, allocation)` pairs; probabilities sum to 1.
    pub support: Vec<(f64, Allocation)>,
    /// The scale factor the decomposition actually achieves: the cover
    /// dominates `x*/effective_alpha` componentwise.
    pub effective_alpha: f64,
    /// The theoretical factor `α` that was requested.
    pub requested_alpha: f64,
    /// Number of pricing rounds used.
    pub rounds: usize,
}

impl Decomposition {
    /// Expected welfare of the distribution on the given instance.
    pub fn expected_welfare(&self, instance: &AuctionInstance) -> f64 {
        self.support
            .iter()
            .map(|(p, a)| p * a.social_welfare(instance))
            .sum()
    }

    /// Expected value received by a single bidder.
    pub fn expected_value_of(&self, instance: &AuctionInstance, bidder: usize) -> f64 {
        self.support
            .iter()
            .map(|(p, a)| p * instance.value(bidder, a.bundle(bidder)))
            .sum()
    }

    /// Samples one allocation according to the probabilities.
    pub fn sample(&self, rng: &mut StdRng) -> &Allocation {
        let target: f64 = rng.random();
        let mut acc = 0.0;
        for (p, a) in &self.support {
            acc += p;
            if target < acc {
                return a;
            }
        }
        &self
            .support
            .last()
            .expect("decomposition support is never empty")
            .1
    }
}

/// The singleton allocation assigning `bundle` to `bidder` and nothing to
/// anyone else; feasible for every conflict structure because a single
/// winner can never violate an independence constraint.
fn singleton_allocation(n: usize, bidder: usize, bundle: ChannelSet) -> Allocation {
    let mut a = Allocation::empty(n);
    a.set_bundle(bidder, bundle);
    a
}

fn allocation_column(
    allocation: &Allocation,
    support_index: &HashMap<(usize, u64), usize>,
    tag: u64,
) -> GeneratedColumn {
    let mut coeffs = Vec::new();
    for v in 0..allocation.num_bidders() {
        let bundle = allocation.bundle(v);
        if bundle.is_empty() {
            continue;
        }
        if let Some(&row) = support_index.get(&(v, bundle.bits())) {
            coeffs.push((row, 1.0));
        }
    }
    GeneratedColumn {
        objective: 1.0,
        coeffs,
        tag,
    }
}

/// Decomposes `x*/α` into a convex combination of feasible integral
/// allocations.
///
/// `alpha` is the requested scale factor (the pipeline's guarantee factor);
/// the decomposition reports the factor it actually certifies. `verifier`
/// configures the approximation pipeline run on each round's adjusted
/// valuations.
pub fn decompose(
    instance: &AuctionInstance,
    fractional: &FractionalAssignment,
    alpha: f64,
    verifier: &SolverBuilder,
) -> Decomposition {
    assert!(alpha >= 1.0, "alpha must be at least 1");
    let n = instance.num_bidders();
    // Support pairs of x*, each becoming a covering row with rhs x*_{v,T}/α.
    let support: Vec<(usize, ChannelSet, f64)> = fractional
        .entries
        .iter()
        .filter(|e| e.x > 1e-12 && !e.bundle.is_empty())
        .map(|e| (e.bidder, e.bundle, e.x))
        .collect();
    if support.is_empty() {
        return Decomposition {
            support: vec![(1.0, Allocation::empty(n))],
            effective_alpha: alpha,
            requested_alpha: alpha,
            rounds: 0,
        };
    }
    let mut support_index: HashMap<(usize, u64), usize> = HashMap::new();
    let mut rows: Vec<(Relation, f64)> = Vec::with_capacity(support.len());
    for (row, &(bidder, bundle, x)) in support.iter().enumerate() {
        support_index.insert((bidder, bundle.bits()), row);
        rows.push((Relation::Ge, x / alpha));
    }

    let mut master = MasterProblem::new(Sense::Minimize, rows);
    // Track the actual allocations per column tag so the final distribution
    // can be reconstructed.
    let mut allocations: Vec<Allocation> = Vec::new();

    // Seed: one singleton allocation per support pair (always feasible).
    for &(bidder, bundle, _) in &support {
        let allocation = singleton_allocation(n, bidder, bundle);
        let tag = allocations.len() as u64;
        let column = allocation_column(&allocation, &support_index, tag);
        master.add_column(column);
        allocations.push(allocation);
    }

    // Column generation: duals = adjusted valuations; verifier = our solver.
    let solver = SpectrumAuctionSolver::new(verifier.clone());
    let support_for_pricing = support.clone();
    let support_index_for_pricing = support_index.clone();
    // next_tag is shared with the outer allocation list through a RefCell-free
    // trick: the closure pushes into a local buffer which we merge after the
    // run. Simpler: the closure owns a Vec of produced allocations keyed by
    // tag offset.
    let base_tag = allocations.len() as u64;
    let mut produced: Vec<Allocation> = Vec::new();
    // One verifier session shared by every pricing round: the adjusted
    // instances differ only in their valuations, so re-bidding through the
    // session reuses the master's columns and warm basis instead of
    // paying a cold LP start per round.
    let mut verifier_session: Option<AuctionSession> = None;
    let pricing_rounds;
    {
        let produced_ref = &mut produced;
        let session_ref = &mut verifier_session;
        let mut pricing = |duals: &[f64]| -> Vec<GeneratedColumn> {
            // adjusted valuations: bidder v values exactly bundle T at the
            // dual of row (v, T) (non-negative for a covering LP)
            let mut per_bidder: Vec<Vec<(ChannelSet, f64)>> = vec![Vec::new(); n];
            for (row, &(bidder, bundle, _)) in support_for_pricing.iter().enumerate() {
                let y = duals[row].max(0.0);
                if y > 1e-12 {
                    per_bidder[bidder].push((bundle, y));
                }
            }
            if per_bidder.iter().all(|b| b.is_empty()) {
                return Vec::new();
            }
            let bidders: Vec<Arc<dyn Valuation>> = per_bidder
                .into_iter()
                .map(|entries| {
                    Arc::new(TabularValuation::new(instance.num_channels, entries))
                        as Arc<dyn Valuation>
                })
                .collect();
            let session = match session_ref {
                Some(session) => {
                    // one batch: a single master-column scan re-prices all
                    // n bidders' master columns at the new adjusted valuations
                    session.update_valuations(bidders.into_iter().enumerate().collect());
                    session
                }
                None => {
                    let adjusted = AuctionInstance::new(
                        instance.num_channels,
                        bidders,
                        instance.conflicts.clone(),
                        instance.ordering.clone(),
                        instance.rho,
                    );
                    session_ref.insert(AuctionSession::new(adjusted, verifier.clone()))
                }
            };
            let outcome = match session.resolve() {
                Ok(outcome) => outcome,
                // An out-of-budget verifier degrades to the legacy lenient
                // solve for this round (its truncated answer only weakens
                // the cover, never corrupts it)...
                Err(SolveError::IterationLimit { .. }) => solver.solve(session.instance()),
                // ...but an infeasible LP or rounding is a bug and must stay
                // as loud as the pre-session release assert was.
                Err(e) => panic!("Lavi-Swamy verifier failed: {e}"),
            };
            // clean: keep only bundles that correspond to support pairs
            let mut allocation = Allocation::empty(n);
            for v in 0..n {
                let b = outcome.allocation.bundle(v);
                if !b.is_empty() && support_index_for_pricing.contains_key(&(v, b.bits())) {
                    allocation.set_bundle(v, b);
                }
            }
            let tag = base_tag + produced_ref.len() as u64;
            let column = allocation_column(&allocation, &support_index_for_pricing, tag);
            produced_ref.push(allocation);
            vec![column]
        };
        // The decomposition master is seeded with the always-feasible
        // singleton columns, so even an iteration-limited run leaves a
        // usable cover; the final solve below resumes from where the run
        // stopped and finishes the weights.
        pricing_rounds = match master.generate_columns(&mut pricing, MAX_ROUNDS) {
            Ok(result) => result.rounds,
            Err(ssa_lp::ColumnGenerationError::IterationLimit { partial }) => partial.rounds,
        };
    }
    allocations.extend(produced);

    // Final solve of the master to get the cover weights: a resume, which
    // takes no pivot after a converged run.
    let solution = master.solve();
    let rounds = pricing_rounds;

    // Collect the distribution: weights of the master columns, normalized.
    let mut weighted: Vec<(f64, Allocation)> = Vec::new();
    let mut total = 0.0;
    for (idx, &tag) in master.tags().iter().enumerate() {
        let lambda = solution.x.get(idx).copied().unwrap_or(0.0);
        if lambda > PROBABILITY_TOLERANCE {
            let allocation = allocations[tag as usize].clone();
            weighted.push((lambda, allocation));
            total += lambda;
        }
    }
    if weighted.is_empty() || total <= 0.0 {
        return Decomposition {
            support: vec![(1.0, Allocation::empty(n))],
            effective_alpha: f64::INFINITY,
            requested_alpha: alpha,
            rounds,
        };
    }

    // If the cover needs total weight Σλ ≤ 1 we can pad with the empty
    // allocation to reach exactly 1 while still covering x*/α; otherwise we
    // normalize and the certified factor becomes α·Σλ.
    let effective_alpha;
    if total <= 1.0 + 1e-9 {
        effective_alpha = alpha;
        let slack = (1.0 - total).max(0.0);
        if slack > PROBABILITY_TOLERANCE {
            weighted.push((slack, Allocation::empty(n)));
        }
        // re-normalize against numerical drift
        let sum: f64 = weighted.iter().map(|(p, _)| p).sum();
        for (p, _) in weighted.iter_mut() {
            *p /= sum;
        }
    } else {
        effective_alpha = alpha * total;
        for (p, _) in weighted.iter_mut() {
            *p /= total;
        }
    }

    Decomposition {
        support: weighted,
        effective_alpha,
        requested_alpha: alpha,
        rounds,
    }
}

/// Checks that the decomposition's expected assignment dominates
/// `x*/effective_alpha` componentwise (within tolerance). Used by tests and
/// by the experiment harness.
pub fn verify_cover(
    decomposition: &Decomposition,
    fractional: &FractionalAssignment,
    tol: f64,
) -> bool {
    for entry in &fractional.entries {
        if entry.x <= 1e-12 || entry.bundle.is_empty() {
            continue;
        }
        let required = entry.x / decomposition.effective_alpha;
        let covered: f64 = decomposition
            .support
            .iter()
            .filter(|(_, a)| a.bundle(entry.bidder) == entry.bundle)
            .map(|(p, _)| p)
            .sum();
        if covered + tol < required {
            return false;
        }
    }
    true
}

/// Serializable summary of a decomposition, for experiment reports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DecompositionSummary {
    /// Number of allocations in the support.
    pub support_size: usize,
    /// The requested α.
    pub requested_alpha: f64,
    /// The certified effective α.
    pub effective_alpha: f64,
    /// Sum of probabilities (should be 1).
    pub total_probability: f64,
}

impl DecompositionSummary {
    /// Builds the summary.
    pub fn new(d: &Decomposition) -> Self {
        DecompositionSummary {
            support_size: d.support.len(),
            requested_alpha: d.requested_alpha,
            effective_alpha: d.effective_alpha,
            total_probability: d.support.iter().map(|(p, _)| p).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use ssa_conflict_graph::{ConflictGraph, VertexOrdering};
    use ssa_core::instance::ConflictStructure;
    use ssa_core::lp_formulation::solve_relaxation_explicit;
    use ssa_core::solver::guarantee_factor;
    use ssa_core::valuation::XorValuation;

    fn xor_bidder(k: usize, bids: Vec<(Vec<usize>, f64)>) -> Arc<dyn Valuation> {
        Arc::new(XorValuation::new(
            k,
            bids.into_iter()
                .map(|(chs, v)| (ChannelSet::from_channels(chs), v))
                .collect(),
        ))
    }

    fn path_instance() -> AuctionInstance {
        let g = ConflictGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let bidders = vec![
            xor_bidder(2, vec![(vec![0], 4.0), (vec![0, 1], 5.0)]),
            xor_bidder(2, vec![(vec![1], 3.0)]),
            xor_bidder(2, vec![(vec![0], 2.0), (vec![1], 2.5)]),
            xor_bidder(2, vec![(vec![0, 1], 6.0)]),
        ];
        AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(4),
            1.0,
        )
    }

    #[test]
    fn decomposition_is_a_probability_distribution_over_feasible_allocations() {
        let inst = path_instance();
        let frac = solve_relaxation_explicit(&inst);
        let alpha = guarantee_factor(&inst);
        let d = decompose(&inst, &frac, alpha, &SolverBuilder::new());
        let total: f64 = d.support.iter().map(|(p, _)| p).sum();
        assert!((total - 1.0).abs() < 1e-6, "probabilities sum to {total}");
        for (p, a) in &d.support {
            assert!(*p >= 0.0);
            assert!(a.is_feasible(&inst));
        }
        assert!(d.effective_alpha.is_finite());
    }

    #[test]
    fn decomposition_covers_the_scaled_fractional_optimum() {
        let inst = path_instance();
        let frac = solve_relaxation_explicit(&inst);
        let alpha = guarantee_factor(&inst);
        let d = decompose(&inst, &frac, alpha, &SolverBuilder::new());
        assert!(verify_cover(&d, &frac, 1e-6));
        // expected welfare is at least the LP optimum divided by the
        // effective factor
        let expected = d.expected_welfare(&inst);
        assert!(
            expected + 1e-9 >= frac.objective / d.effective_alpha,
            "expected welfare {} below {} / {}",
            expected,
            frac.objective,
            d.effective_alpha
        );
    }

    #[test]
    fn empty_fractional_solution_gives_trivial_decomposition() {
        let g = ConflictGraph::new(2);
        let bidders = vec![xor_bidder(1, vec![]), xor_bidder(1, vec![])];
        let inst = AuctionInstance::new(
            1,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(2),
            1.0,
        );
        let frac = solve_relaxation_explicit(&inst);
        let d = decompose(&inst, &frac, 4.0, &SolverBuilder::new());
        assert_eq!(d.support.len(), 1);
        assert!((d.support[0].0 - 1.0).abs() < 1e-12);
        assert_eq!(d.expected_welfare(&inst), 0.0);
    }

    #[test]
    fn sampling_respects_the_distribution() {
        let inst = path_instance();
        let frac = solve_relaxation_explicit(&inst);
        let d = decompose(&inst, &frac, guarantee_factor(&inst), &SolverBuilder::new());
        let mut rng = StdRng::seed_from_u64(99);
        let mut welfare_sum = 0.0;
        let samples = 4000;
        for _ in 0..samples {
            welfare_sum += d.sample(&mut rng).social_welfare(&inst);
        }
        let empirical = welfare_sum / samples as f64;
        let exact = d.expected_welfare(&inst);
        assert!(
            (empirical - exact).abs() <= 0.2 * exact.max(1.0),
            "empirical mean {} too far from exact expectation {}",
            empirical,
            exact
        );
    }
}
