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
//! in-place column re-pricing, rebuilds seeded from the previous master):
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
//! ### Migrating to the builder
//!
//! The builder is the one configuration value: the one-shot solver,
//! sessions, the exchange, sealed-bid transcripts and the truthful
//! mechanism's verifier all hold a `SolverBuilder`. It carries four
//! settings — the rounding seed and trial count, the pricing-round cap
//! and the seed depth. Every other value the pipeline
//! reads has one value in use and is a constant of the module that reads
//! it, down to the LP crate, whose only settable value is the pricing-round
//! cap of [`MasterProblem::generate_columns`](lp::MasterProblem::generate_columns).
//! Older configuration maps as follows:
//!
//! | before | after |
//! |---|---|
//! | `SolverOptions { rounding: RoundingOptions { seed, trials }, .. }` | `SolverBuilder::new().rounding(seed, trials)` |
//! | `SolverOptions` as a value (`SpectrumAuctionSolver::new`, `AuctionSession::new`, `SealedTranscript::options`, `AuctionSession::options()`) | removed: each takes or holds a `SolverBuilder` |
//! | `LpFormulationOptions { seed_top_bundles, enumerate_all_bundles, column_generation: ColumnGeneration { max_rounds, .. }, .. }` | [`SolverBuilder::seed_top_bundles`](auction::solver::SolverBuilder::seed_top_bundles), `enumerate_all_bundles` (removed since; see below), [`max_pricing_rounds`](auction::solver::SolverBuilder::max_pricing_rounds); `solve_relaxation` and `try_solve_relaxation` take `&SolverBuilder` |
//! | `LpFormulationOptions { column_pool_capacity, compaction_threshold, support_tolerance, column_generation: ColumnGeneration { simplex, reduced_cost_tolerance, .. }, .. }` | `column_pool_capacity` went with the pool; the others are constants: the session's deadweight limit (0.25, which now triggers a seeded rebuild instead of a compaction), the relaxation's support tolerance (1e-9); the LP engine's settings and the master's reduced-cost tolerance (1e-7) are constants of `ssa_lp` |
//! | `SolverBuilder::options()` | removed: pass the builder itself |
//! | `SolverBuilder::column_pool_capacity(n)` | removed (it had no caller), and the pool with it: a session's master is its only column store |
//! | `TruthfulMechanism::new(TruthfulMechanismOptions { lp, decomposition })` | [`TruthfulMechanism::new(verifier)`](mechanism::TruthfulMechanism::new) with a `SolverBuilder`; the welfare and VCG LPs use the default relaxation |
//! | `decompose(instance, fractional, alpha, &DecompositionOptions { verifier, max_rounds, probability_tolerance })` | [`decompose(instance, fractional, alpha, &verifier)`](mechanism::decompose); the 40-round cap and the 1e-9 probability tolerance are constants |
//! | `fractional_vcg(instance, &LpFormulationOptions::default())` | [`fractional_vcg(instance)`](mechanism::fractional_vcg) |
//! | `ssa_lp::DEFAULT_POOL_CAPACITY` | removed (nothing read it), and the pool with it |
//! | `SpectrumAuctionSolver::new(options)` | `SolverBuilder::new()…`[`.build()`](auction::solver::SolverBuilder::build) |
//! | n/a (one-shot only) | `SolverBuilder::new()…`[`.session(instance)`](auction::solver::SolverBuilder::session) |
//! | `try_solve_relaxation_with_pool(instance, options, pool)` | a session's [`resolve_relaxation`](auction::session::AuctionSession::resolve_relaxation): it seeds each rebuild from the bundle columns of the master it replaces |
//! | `LpFormulationOptions { deep_batch_rows, .. }` | removed: arrivals always take the dual-simplex row repair, and an exchange drain is one resolve |
//! | `large_instance_simplex_options()` | removed: the LP engine has no options |
//! | `ExchangeBuilder::coalescing(bool)` | removed: the exchange queues each market's events and applies them verbatim, in submission order |
//! | `ExchangeBuilder::solver_options(options)` | removed: configure the sessions through [`ExchangeBuilder::solver`](exchange::ExchangeBuilder::solver) with a `SolverBuilder` |
//! | `OutcomeSummary::new(instance, outcome)` | removed (it had no caller): read [`AuctionOutcome`](auction::solver::AuctionOutcome) and its `lp_info` directly |
//! | `RelaxationInfo::{simplex_iterations, refactorizations, ftran_sparse_hits, avg_result_density, ..}` | the engine counters moved into one [`lp::SolveStats`]: `info.engine.simplex_iterations`, `info.engine.refactorizations`, … |
//! | `LpSolution::iterations` | [`LpSolution::stats`](lp::LpSolution::stats)`.simplex_iterations` |
//! | `SolveStats::iterations` | [`SolveStats::simplex_iterations`](lp::SolveStats::simplex_iterations); sum solves with [`SolveStats::merge`](lp::SolveStats::merge) |
//! | `ColumnGenerationResult::{simplex_iterations, refactorizations, .., avg_result_density}` | [`ColumnGenerationResult::stats`](lp::ColumnGenerationResult::stats)`.*` |
//! | `RoundSeries` / `ROUND_SERIES_CAP` | removed: `per_round_iterations` and `columns_per_round` are plain `Vec<usize>`, built fresh per column-generation run |
//! | `ssa_lp::ColumnPool`, `ssa_lp::PooledColumn` | removed: a session remembers its discovered `(bidder, bundle)` columns as the native columns of its master, and a rebuild seeds from the master it replaces |
//! | `AuctionSession::{pool, pool_len}` | removed: count bundle columns with `outcome.lp_info.num_columns` |
//! | `RelaxationInfo::{pool_hits, pool_evictions}` | removed with the pool; [`RelaxationInfo::columns_generated`](auction::lp_formulation::RelaxationInfo::columns_generated) counts the columns a resolve had to price in |
//! | `MasterProblem::to_linear_program`, `MasterProblem::reset_warm_start` | removed (they had no caller) |
//! | `ExchangeStats::lp: LpActivity` | [`ExchangeStats::lp`](exchange::ExchangeStats::lp) is a [`lp::SolveStats`] merged over every drained resolve; the per-market rounds and column counters stay on each resolve's `outcome.lp_info` |
//! | `reoptimize_after_row_additions(lp, options, prior)` | append the rows to a solved master with [`MasterProblem::add_row`](lp::MasterProblem::add_row) and call [`MasterProblem::solve`](lp::MasterProblem::solve): the recorded basis, now a row prefix, is extended by the appended rows' logicals and repaired by the engine's dual simplex loop |
//! | `DualReoptimization { solution, warm, used_dual_path }` | the [`LpSolution`](lp::LpSolution) that [`MasterProblem::solve`](lp::MasterProblem::solve) returns; read the repair's work from [`SolveStats::dual_pivots`](lp::SolveStats::dual_pivots) and `simplex_iterations` |
//! | `MasterProblem::last_dual_pivots()` | the [`SolveStats::dual_pivots`](lp::SolveStats::dual_pivots) of the solution that [`MasterProblem::solve`](lp::MasterProblem::solve) returns |
//! | `MasterProblem::warm_start()` | removed (only tests read it): the master keeps its recorded basis private |
//! | `SimplexOptions { tolerance, max_iterations, stall_threshold, refactor_interval }`, the `options` argument of `lp::solve`, the warm-start solve, `lp::dense::solve` and the master's cold and warm solves | removed: every caller passed the defaults, which are now constants of `ssa_lp::simplex` (tolerance 1e-9, Bland's rule after 64 stalled pivots, a refactorization every 256 updates, a pivot budget of `200 · (m + n_total) + 10 000`) |
//! | `ColumnGeneration { simplex, max_rounds, reduced_cost_tolerance }.run(master, source)` | [`master.generate_columns(source, max_rounds)`](lp::MasterProblem::generate_columns); the reduced-cost tolerance (1e-7) is a constant |
//! | `MasterProblem::columns()` | [`MasterProblem::tags`](lp::MasterProblem::tags): the master keeps each column once, in its LP, and callers only read the tags |
//! | `MasterProblem::rows()`, `LinearProgram::row_states()`, the row count of the warm-start state | removed (they had no caller outside tests) |
//! | `CscMatrix::row_major()` | removed: the dual ratio test walks [`LinearProgram::constraints`](lp::LinearProgram::constraints), which is row-major already |
//! | `ExactOptions { node_limit }`, `solve_exact(instance, &options)`, `solve_exact_default(instance)` | [`solve_exact(instance)`](auction::exact::solve_exact); the 5 000 000-node search limit is a constant |
//! | `geometry::{Metric, EuclideanMetric, ExplicitMetric}`, `metric::doubling_constant_estimate` | removed (nothing outside their module used them): the physical model reads its distances from a [`LinkMetric`](geometry::LinkMetric), built from links or from an explicit matrix |
//! | `Disk::{contains_disk, area, scaled}`, `SpatialGrid::close_pairs`, `Point2D::{origin, midpoint, translated, angle_to}` | removed (only their own tests called them); the origin is `Point2D::new(0.0, 0.0)` |
//! | `BitSet::{count_ones, intersect_count, iter_ones}` | the originals they aliased: `count`, `intersection_count`, `iter` |
//! | `BitSet::difference_with`, `ConflictGraph::{average_degree, is_independent_bitset, backward_neighbors_in}`, `WeightedConflictGraph::threshold_graph` | removed (only their own tests called them, or nothing did) |
//! | `VertexOrdering::vertex_at(pos)`, `as_positions()` | `as_order()[pos]`; `position(v)` |
//! | `VertexOrdering::{by_key_ascending, reversed}` | `by_key_descending`, or `from_order` over the vertex list in the wanted order |
//! | `ChannelSet::EMPTY`, `ChannelSet::{intersection, difference}` | `ChannelSet::empty()`; `ChannelSet::from_bits` over `a.bits() & b.bits()` or `a.bits() & !b.bits()` |
//! | `TabularValuation::num_entries`, `valuation::BidderList` | removed (no caller); the list type is `Vec<Arc<dyn Valuation>>` |
//! | `asymmetric::build_asymmetric_instance(graphs, bidders, ordering)` | `AuctionInstance::new` with `ConflictStructure::AsymmetricBinary(graphs)` and the ρ of [`certified_rho_across_channels`](auction::asymmetric::certified_rho_across_channels) |
//! | `SparseVector::nnz_upper_bound`, `DrainReport::sorted_latencies`, `bench::experiments::run_all` | removed (no caller); `run_all(quick)` is `run_selected(quick, &[])` |
//! | `mechanism::{AuctioneerAdversary, FalseBid}` (`sealed_bid::adversary`), `SpectrumExchange::with_sealed_auction` | removed (no caller): tests stage attacks through [`SealedBidAuction::inject_shill`](mechanism::SealedBidAuction::inject_shill) and [`suppress_reveal`](mechanism::SealedBidAuction::suppress_reveal) |
//! | `LinearProgram::compact` and the index maps it returned | removed: rows and variables never move during an LP's life; drop the LP and build a fresh one from the survivors |
//! | `MasterProblem::compact`, its threshold variant and its run counter, and the report of row and column maps it returned | removed: a session drops a master whose [`deadweight_fraction`](lp::MasterProblem::deadweight_fraction) reaches 0.25 after a departure, and the next resolve rebuilds it seeded from the survivors' columns |
//! | the compaction counter of `RelaxationInfo` | removed with compaction: [`SessionStats::cold_resolves`](auction::session::SessionStats::cold_resolves) counts the deadweight rebuilds with the other rebuilds, and [`RelaxationInfo::rows_deactivated`](auction::lp_formulation::RelaxationInfo::rows_deactivated) counts per master |
//! | `lp::WarmStart`, `lp::BasisVar`, `lp::solve_with_warm_start(lp, warm)` | removed: a [`MasterProblem`](lp::MasterProblem) keeps one live simplex engine for its whole life and resumes it on every [`solve`](lp::MasterProblem::solve); build a master over the LP's rows and columns instead of carrying a state between one-shot solves, and use [`lp::solve`] for a cold one-shot solve |
//! | `WarmStart::into_basis_only()` | removed with the state type: to re-price a problem with the same rows, change its objective on the same master with [`MasterProblem::set_column_objective`](lp::MasterProblem::set_column_objective) and solve again; a problem with other rows gets a fresh master |
//! | `SolverBuilder::enumerate_all_bundles(true)` | removed: a session always prices columns through the demand oracles and carries a dual certificate; the enumerated master is [`solve_relaxation_explicit(instance)`](auction::lp_formulation::solve_relaxation_explicit), the reference the tests check sessions against |
//! | `exchange::DrainMode`, `ExchangeBuilder::drain_mode(mode)` | removed: a drain always fans its shards across the work-stealing pool, and `SSA_POOL_THREADS=1` runs it inline on the calling thread, as `DrainMode::Sequential` did |
//! | `lp::SparsityStats`, `ForrestTomlinLu::sparsity_stats()` | removed: the engine counts each indexed FTRAN/BTRAN into its [`lp::SolveStats`]; a direct caller of the factorization reads [`SparseVector::is_sparse`](lp::SparseVector::is_sparse) and `pattern().len()` of each result |
//! | `ForrestTomlinLu::{ftran_sparse, ftran_dense, btran, btran_unit, ftran_sparse_into, btran_unit_into}(.., out)` | the same calls with a trailing `&mut` [`lp::SolveScratch`]: the factorization keeps no solve workspaces, so threads can share one factorization, each with its own scratch |
//! | `MasterProblem::solve_warm()` and the cold `MasterProblem::solve(&self)` | one [`MasterProblem::solve(&mut self)`](lp::MasterProblem::solve): it resumes the master's own engine, and starts cold on a fresh master or after a factorization collapse; for a cold solve of the same LP build a fresh master |
//! | `lp::RowState`, `LinearProgram::{deactivate_rows, is_row_active, num_active_rows}` | removed: a [`LinearProgram`](lp::LinearProgram) holds only its sense, objective and constraints; [`MasterProblem::deactivate_rows`](lp::MasterProblem::deactivate_rows) appends each row's relief column itself, and [`MasterProblem::is_row_active`](lp::MasterProblem::is_row_active) reads the relief tags |
//! | `LinearProgram::{fix_variables_at_zero, is_variable_fixed, fixed_value_is_harmless, is_relief_variable, num_dead_variables}` | removed: no engine bars a column from entering a basis. Zero-price it with [`LinearProgram::set_objective_coefficient`](lp::LinearProgram::set_objective_coefficient), which cannot change the optimum of a packing LP, or retire it on a master |
//! | `MasterProblem::fix_columns(cols)` | [`MasterProblem::retire_columns(cols)`](lp::MasterProblem::retire_columns): objective 0 plus a tombstoned tag, for packing columns only (it panics on any other); a retired column may enter or stay basic |
//! | `MasterProblem::num_active_rows()` | `num_rows() - rows_deactivated()`: [`MasterProblem::rows_deactivated`](lp::MasterProblem::rows_deactivated) counts the relief columns |
//! | `ForrestTomlinLu::{update, update_sparse}(l, w)` | the same calls with a trailing `&mut` [`lp::SolveScratch`], which now also holds the Forrest–Tomlin update's spike, row and heap buffers |
//! | `SteepestEdgePricing::notify_pivot(entering, leaving, alpha_entering, alpha)` | `notify_pivot(entering, leaving, alpha_entering, fused, min_len, pass)`: `pass(j)` returns `(α_j, rc_j)` from one walk of column `j`, `fused` says whether `rc_j` is the next reduced cost, and `min_len` is the least list members per pool chunk |
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
//! ### One column store
//!
//! A session remembers the `(bidder, bundle)` columns it has discovered in
//! one place: the native columns of its cached master. Warm resolves
//! re-price those columns in place and ask the demand oracles for new
//! ones. A ρ or channel change rebuilds the master, seeded with every
//! bundle column of the master it replaces (re-priced at the current
//! valuations), so column generation starts near the previous optimum.
//! [`auction::lp_formulation::RelaxationInfo`] exposes the trajectory:
//! `num_columns`, `columns_generated`, `pricing_rounds`,
//! `columns_per_round` and `per_round_iterations` (one entry per round of
//! the resolve's column-generation run).
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
//! * [`geometry`] — points, link metrics, disks, links.
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
