//! Combinatorial auctions with conflict graphs — the core algorithms of the
//! SPAA 2011 paper *"Approximation Algorithms for Secondary Spectrum
//! Auctions"* (Hoefer, Kesselheim, Vöcking).
//!
//! **Problem 1 (combinatorial auction with conflict graph).** Given a
//! conflict graph `G = (V, E)` over `n` bidders, `k` channels and a
//! valuation `b_{v,T}` for every bidder `v` and channel bundle `T ⊆ [k]`,
//! find an allocation `S : V → 2^[k]` maximizing `Σ_v b_{v,S(v)}` such that
//! for every channel the set of bidders holding it is an independent set of
//! `G`. Edge-weighted conflict graphs (Section 3) generalize independence to
//! "total incoming weight below 1".
//!
//! This crate implements the paper end to end:
//!
//! * [`channels`] / [`valuation`] — channel bundles, arbitrary valuations and
//!   the demand oracles of Section 2.2,
//! * [`instance`] / [`allocation`] — problem instances (binary, weighted and
//!   per-channel asymmetric conflicts) and feasibility-checked allocations,
//! * [`lp_formulation`] — the LP relaxations (1) and (4) and their
//!   asymmetric variant (Section 6), solved by column generation through
//!   demand oracles (the practical stand-in for the paper's ellipsoid
//!   method),
//! * [`rounding`] — Algorithm 1 (unweighted) and Algorithm 2 (weighted)
//!   randomized rounding with conflict resolution,
//! * [`conflict_resolution`] — Algorithm 3 turning partly-feasible
//!   allocations into feasible ones at an `O(log n)` loss,
//! * [`solver`] — the end-to-end pipeline with feasibility verification,
//!   configured through [`solver::SolverBuilder`] and failing with typed
//!   [`solver::SolveError`]s on the `try_*` paths,
//! * [`session`] — long-lived incremental sessions for dynamic markets
//!   (arrivals, departures, re-bids, ρ/channel changes) that reuse LP state
//!   across resolves,
//! * [`greedy`] / [`edge_lp`] / [`exact`] — baselines and ground truth,
//! * [`asymmetric`] / [`hardness`] — Section 6 and the lower-bound
//!   constructions of Theorems 5, 6 and 18.

#![warn(missing_docs)]

pub mod allocation;
pub mod asymmetric;
pub mod channels;
pub mod conflict_resolution;
pub mod edge_lp;
pub mod exact;
pub mod greedy;
pub mod hardness;
pub mod instance;
pub mod lp_formulation;
pub mod rounding;
pub mod session;
pub mod snapshot;
pub mod solver;
pub mod valuation;

pub use allocation::Allocation;
pub use channels::ChannelSet;
pub use instance::{AuctionInstance, ConflictStructure};
pub use lp_formulation::{FractionalAssignment, FractionalEntry, RelaxationInfo};
pub use session::{
    apply_event, AuctionSession, BidderConflicts, DualCertificate, MarketEvent, MarketId,
    NewChannel, SessionLogEntry, SessionStats,
};
pub use snapshot::{ConflictSnapshot, InstanceSnapshot, SnapshotError, ValuationSnapshot};
pub use solver::{AuctionOutcome, SolveError, SolverBuilder, SpectrumAuctionSolver};
pub use valuation::{
    AdditiveValuation, BudgetedAdditiveValuation, SingleMindedValuation, SymmetricValuation,
    TabularValuation, UnitDemandValuation, Valuation, XorValuation,
};
