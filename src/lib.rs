//! # spectrum-auctions
//!
//! Facade crate for the reproduction of *"Approximation Algorithms for
//! Secondary Spectrum Auctions"* (Hoefer, Kesselheim, Vöcking; SPAA 2011).
//!
//! The workspace implements combinatorial auctions with (edge-weighted)
//! conflict graphs: `n` bidders bid on bundles of `k` channels, a channel can
//! be shared by any independent set of the conflict graph, and the algorithms
//! approximate the social-welfare maximizing allocation within `O(ρ·√k)`
//! (unweighted graphs) resp. `O(ρ·√k·log n)` (edge-weighted graphs), where ρ
//! is the inductive independence number. Interference models (protocol
//! model, disk graphs, distance-2 constraints, SINR physical model) supply
//! conflict graphs with provably small ρ, and the Lavi–Swamy framework turns
//! the approximation algorithms into truthful-in-expectation mechanisms.
//!
//! ## Solving: one-shot and incremental
//!
//! Everything is configured through one builder,
//! [`auction::solver::SolverBuilder`], which produces either a one-shot
//! solver (whose relaxation is a throwaway session's cold resolve) or —
//! because secondary markets are inherently dynamic — a
//! long-lived [`auction::session::AuctionSession`] that accepts mutations
//! (arrivals, departures, re-bids, ρ and channel changes) and reuses the
//! LP state across resolves (warm bases, dual-simplex row absorption,
//! in-place column re-pricing, a persistent column pool):
//!
//! ```no_run
//! use spectrum_auctions::auction::session::BidderConflicts;
//! use spectrum_auctions::auction::solver::SolverBuilder;
//! # fn demo(instance: spectrum_auctions::auction::AuctionInstance,
//! #         newcomer: std::sync::Arc<dyn spectrum_auctions::auction::Valuation>) {
//! // one-shot, with typed errors instead of panics:
//! let solver = SolverBuilder::new().rounding(7, 32).build();
//! let outcome = solver.try_solve(&instance).expect("solve failed");
//!
//! // incremental: the session owns the instance and the LP state
//! let mut session = SolverBuilder::new().rounding(7, 32).session(instance);
//! let first = session.resolve().expect("solve failed");
//! session.add_bidder(newcomer, BidderConflicts::Binary(vec![0, 3]));
//! let warm = session.resolve().expect("warm resolve failed"); // dual-simplex path
//! # let _ = (outcome, first, warm);
//! # }
//! ```
//!
//! Failures surface as [`auction::solver::SolveError`]
//! (`IterationLimit` with the partial LP attached, `Infeasible`,
//! `InfeasibleRounding`) from the `try_solve` / `resolve` entry points; the
//! legacy `solve` entry points keep their degrade-gracefully behavior with a
//! `debug_assert!`-only feasibility check.
//!
//! ### Migrating from `SolverOptions`
//!
//! `SolverOptions` (and the nested `LpFormulationOptions` /
//! `SimplexOptions` / `RoundingOptions`) remain as thin shims, so existing
//! code keeps compiling. New code should use the builder; the mapping is
//! mechanical:
//!
//! | before | after |
//! |---|---|
//! | `SolverOptions { rounding: RoundingOptions { seed, trials }, .. }` | `SolverBuilder::new().rounding(seed, trials)` |
//! | `SpectrumAuctionSolver::new(options)` | `SolverBuilder::new()…`[`.build()`](auction::solver::SolverBuilder::build) |
//! | n/a (one-shot only) | `SolverBuilder::new()…`[`.session(instance)`](auction::solver::SolverBuilder::session) |
//! | `try_solve_relaxation_with_pool(instance, options, pool)` | a session's [`resolve_relaxation`](auction::session::AuctionSession::resolve_relaxation): it seeds rebuilds from its own pool |
//! | `LpFormulationOptions { deep_batch_rows, .. }` | removed: arrivals always take the dual-simplex row repair, and an exchange drain is one resolve |
//! | `large_instance_simplex_options()` | removed: set `SimplexOptions` fields through [`SolverBuilder::options`](auction::solver::SolverBuilder::options) |
//! | `ExchangeBuilder::coalescing(bool)` | removed: the exchange queues each market's events and applies them verbatim, in submission order |
//! | `ExchangeBuilder::solver_options(options)` | removed: configure the sessions through [`ExchangeBuilder::solver`](exchange::ExchangeBuilder::solver) with a `SolverBuilder` |
//! | `OutcomeSummary::new(instance, outcome)` | removed (it had no caller): read [`AuctionOutcome`](auction::solver::AuctionOutcome) and its `lp_info` directly |
//! | `RelaxationInfo::{simplex_iterations, refactorizations, ftran_sparse_hits, avg_result_density, ..}` | the engine counters moved into one [`lp::SolveStats`]: `info.engine.simplex_iterations`, `info.engine.refactorizations`, … |
//! | `LpSolution::iterations` | [`LpSolution::stats`](lp::LpSolution::stats)`.simplex_iterations` |
//! | `SolveStats::iterations` | [`SolveStats::simplex_iterations`](lp::SolveStats::simplex_iterations); sum solves with [`SolveStats::merge`](lp::SolveStats::merge) |
//! | `ColumnGenerationResult::{simplex_iterations, refactorizations, .., avg_result_density}` | [`ColumnGenerationResult::stats`](lp::ColumnGenerationResult::stats)`.*` |
//! | `RoundSeries` / `ROUND_SERIES_CAP` | removed: `per_round_iterations` and `columns_per_round` are plain `Vec<usize>`, built fresh per column-generation run |
//! | `ExchangeStats::lp: LpActivity` | [`ExchangeStats::lp`](exchange::ExchangeStats::lp) is a [`lp::SolveStats`] merged over every drained resolve; the per-market rounds, columns and pool counters stay on each resolve's `outcome.lp_info` |
//!
//! Knobs without a builder method (e.g. simplex tolerances) remain
//! reachable through [`auction::solver::SolverBuilder::options`].
//!
//! ## One master, and the seed depth
//!
//! The relaxation is solved as the paper states it: one restricted master
//! over every `(v, j)` and bidder row, priced by the bidders' demand
//! oracles, warm-started across pricing rounds and across session
//! resolves. The measured lever on that loop is the **seed depth**.
//! Seeding each bidder's top *four* zero-price bundles (the default,
//! [`SolverBuilder::seed_top_bundles`](auction::solver::SolverBuilder::seed_top_bundles))
//! puts the optimum's support into the initial master and collapses the
//! pricing loop to a single round at every measured scale — the E12
//! n = 2000 LP stage went from 11.2 s (favorite-only seeding) to 7.9 s.
//! `seed_top_bundles(1)` recovers favorite-only seeding, under which the
//! oracles generate columns over several rounds.
//!
//! ### The managed column pool
//!
//! Sessions persist generated bundles in a managed pool with per-column
//! age / hit / reduced-cost metadata and usefulness-ranked eviction
//! (capacity via
//! [`SolverBuilder::column_pool_capacity`](auction::solver::SolverBuilder::column_pool_capacity),
//! default 8192). Warm resolves first re-price pooled columns and
//! only fall back to the demand oracles when the pool prices out. Code
//! that previously reached into the raw column vectors should read
//! [`auction::lp_formulation::RelaxationInfo`] instead: `pool_hits` /
//! `pool_evictions` count pool traffic, and `pricing_rounds`,
//! `columns_per_round` and `per_round_iterations` (one entry per round of
//! the resolve's column-generation run) expose the trajectory.
//!
//! ## Sealed bids: commit–reveal with collateral and audit
//!
//! Secondary markets run with an auctioneer nobody has to trust:
//! [`mechanism::sealed_bid`] wraps any session in a commit–reveal
//! front-end. Conflicts are public (they gate feasibility and are declared
//! with the commitment); valuations are sealed — hashed together with the
//! participant id and a nonce into a non-malleable commitment
//! ([`mechanism::sealed_bid::commit_to`]) and posted with collateral
//! scaled to a declared bid cap. At commit close entrants join the market
//! with zero-placeholder bids, so a reveal is an ordinary warm re-price
//! and a non-revealer forfeits and leaves over the warm `remove_bidder`
//! path. Resolution charges first price on the revealed bids and issues a
//! [`mechanism::sealed_bid::SealedTranscript`] — baseline snapshot
//! (serialized via [`auction::snapshot::InstanceSnapshot`]), commitments,
//! published openings, the event log, and the LP dual certificate — which
//! [`mechanism::sealed_bid::audit()`] replays offline to flag shill
//! injection, tampered bids or payments, suppressed reveals, and
//! forfeiture-ledger drift without re-running the solver. The
//! [`exchange`] front-end drives the same protocol per market
//! ([`exchange::SpectrumExchange::open_sealed_round`]), with reveal
//! deadlines keyed to drain cycles; adversarial workloads (shill streams,
//! sniping bursts, colluding cliques) live in [`workloads`]. See
//! `examples/sealed_bid.rs` for the full walkthrough.
//!
//! ## Crate map
//!
//! Each sub-crate is re-exported here under a short module name; see the
//! individual crates for full documentation:
//!
//! * [`conflict_graph`] — conflict graphs, independent sets, inductive
//!   independence number.
//! * [`geometry`] — points, metrics, disks, links.
//! * [`interference`] — protocol / 802.11 / distance-2 / physical (SINR)
//!   models producing conflict graphs with certified ρ.
//! * [`lp`] — the LP engine (sparse revised simplex: steepest-edge pricing
//!   over a Forrest–Tomlin LU, column generation, dual-simplex
//!   reoptimization).
//! * [`auction`] — the combinatorial auction: valuations, demand oracles,
//!   LP relaxations (1)/(4), rounding Algorithms 1–3, baselines, exact
//!   solver, asymmetric channels, the [`auction::solver`] pipeline and the
//!   incremental [`auction::session`].
//! * [`mechanism`] — Lavi–Swamy decomposition and the truthful-in-expectation
//!   mechanism (its verifier rides one session across pricing rounds), plus
//!   the [`mechanism::sealed_bid`] commit–reveal front-end with collateral
//!   and transcript audit.
//! * [`exchange`] — the multi-market layer: a sharded
//!   [`exchange::SpectrumExchange`] of independent sessions behind
//!   per-market event queues, drained in parallel on the persistent
//!   work-stealing pool.
//! * [`workloads`] — synthetic instance generators, including dynamic-market
//!   arrival/departure/re-bid event streams
//!   ([`workloads::scenarios::dynamic_market_scenario`]), multi-market
//!   Zipf-skewed streams ([`workloads::scenarios::multi_market_scenario`]),
//!   and adversarial sealed-bid markets
//!   ([`workloads::adversarial`]: shill streams, sniping bursts, colluding
//!   cliques).

pub use ssa_conflict_graph as conflict_graph;
pub use ssa_core as auction;
pub use ssa_exchange as exchange;
pub use ssa_geometry as geometry;
pub use ssa_interference as interference;
pub use ssa_lp as lp;
pub use ssa_mechanism as mechanism;
pub use ssa_workloads as workloads;
