//! Long-lived, incremental solving sessions for dynamic spectrum markets.
//!
//! The paper's setting is inherently dynamic: bidders enter and leave,
//! valuations change, channels get licensed in and out. The one-shot
//! [`SpectrumAuctionSolver::solve`](crate::solver::SpectrumAuctionSolver::solve)
//! is a throwaway session's cold resolve: it rebuilds the LP from scratch on
//! every call. A long-lived [`AuctionSession`] instead owns a mutable
//! [`AuctionInstance`] **plus the cached solver state** —
//! the restricted master with its warm basis/factorization (its bundle
//! columns are the session's memory of discovered `(bidder, bundle)`
//! pairs) and the last fractional solution — and routes each
//! [`resolve`](AuctionSession::resolve) through the cheapest path the
//! pending mutations admit:
//!
//! | mutation batch | path |
//! |---|---|
//! | none | the cached [`FractionalAssignment`] is returned as-is |
//! | re-bids only ([`update_valuation`](AuctionSession::update_valuation)) | the bidders' master columns are **re-priced in place**; the recorded basis is still primal feasible (the constraint matrix is untouched), so the master resumes with ordinary primal pivots |
//! | departures ([`remove_bidder`](AuctionSession::remove_bidder)), possibly mixed with re-bids | the departed bidder's columns are **retired** (zero-priced, [`MasterProblem::retire_columns`]) and its `k + 1` rows **deactivated in place** behind relief columns ([`MasterProblem::deactivate_rows`]); the surviving basis stays valid and primal feasible and resumes with primal pivots — a departure that leaves deadweight at a quarter of the master or more (`DEADWEIGHT_LIMIT`) drops the master instead, and the next resolve takes the seeded rebuild of the ρ row below |
//! | arrivals ([`add_bidder`](AuctionSession::add_bidder)), possibly mixed with the above | the newcomer's `k + 1` rows are **staged** and materialized at resolve time via [`MasterProblem::add_row`]; if the same batch also re-bid or departed bidders (dirt that costs the recorded basis its dual feasibility), a primal resume first re-optimizes the mutated master, and only then do the staged rows land — so the next master solve's **dual simplex** row repair (the master's recorded basis, now a row prefix) always starts from a dual-feasible basis instead of declining into a cold solve |
//! | ρ or channel changes | the master is rebuilt, **seeded from the master it replaces**: every bundle column of the old master is re-priced at the current valuations and seeded up front, so column generation starts near the previous optimum |
//!
//! Every warm answer is the exact LP optimum of the *current* instance —
//! the warm paths change the starting basis, never the feasible region —
//! and in debug builds each converged [`resolve`](AuctionSession::resolve)
//! is additionally **re-certified against a from-scratch solve** of the
//! mutated instance (`debug_assertions` only; release builds trust the
//! algebra).
//!
//! Sessions are configured through
//! [`SolverBuilder::session`](crate::solver::SolverBuilder::session):
//!
//! ```no_run
//! # use ssa_core::solver::SolverBuilder;
//! # use ssa_core::session::BidderConflicts;
//! # fn demo(instance: ssa_core::AuctionInstance,
//! #        newcomer: std::sync::Arc<dyn ssa_core::Valuation>) {
//! let mut session = SolverBuilder::new().rounding(7, 32).session(instance);
//! let first = session.resolve().expect("solve failed");
//! session.add_bidder(newcomer, BidderConflicts::Binary(vec![0, 3]));
//! let warm = session.resolve().expect("incremental solve failed");
//! # let _ = (first, warm);
//! # }
//! ```

use crate::channels::ChannelSet;
use crate::instance::{AuctionInstance, ConflictStructure};
use crate::lp_formulation::{
    column_tag, decode_column_tag, extract, master_rows, seed_columns, strict_status_error,
    FractionalAssignment, RelaxationInfo,
};
use crate::snapshot::ValuationSnapshot;
use crate::solver::{AuctionOutcome, SolveError, SolverBuilder, SpectrumAuctionSolver};
use crate::valuation::Valuation;
use serde::{Deserialize, Serialize};
use ssa_conflict_graph::{ConflictGraph, VertexOrdering, WeightedConflictGraph};
use ssa_lp::{
    is_native_tag, ColumnGenerationError, ColumnSource, GeneratedColumn, MasterProblem, Relation,
    Sense,
};
use std::collections::HashSet;
use std::sync::Arc;

/// A departure that leaves the master's
/// [`deadweight_fraction`](MasterProblem::deadweight_fraction) (deactivated
/// rows plus dead and relief columns) at or above this limit drops the
/// master; the next resolve rebuilds it, seeded from the survivors'
/// columns.
const DEADWEIGHT_LIMIT: f64 = 0.25;

/// Identifier of one regional market in a multi-market deployment (the key
/// of an exchange's shard map). Plain newtype over `u64`: markets are
/// external entities — licenses, regions, bands — so the id is
/// caller-assigned, not allocated here.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MarketId(pub u64);

impl std::fmt::Display for MarketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "market#{}", self.0)
    }
}

/// One event of a dynamic secondary market, phrased in terms of the
/// market's state **at application time** (bidder indices refer to the
/// session the event is applied to, not to any generator-internal
/// universe). Apply with [`apply_event`].
#[derive(Clone)]
pub enum MarketEvent {
    /// A bidder arrives with the given valuation, conflicting with the
    /// listed present bidders.
    Arrival {
        /// The newcomer's valuation (over the instance's channel count).
        valuation: Arc<dyn Valuation>,
        /// Present bidders the newcomer conflicts with.
        neighbors: Vec<usize>,
    },
    /// The bidder at this index departs; later indices shift down by one.
    Departure {
        /// Index of the departing bidder.
        bidder: usize,
    },
    /// A present bidder re-bids with a new valuation.
    Rebid {
        /// Index of the re-bidding bidder.
        bidder: usize,
        /// Its replacement valuation.
        valuation: Arc<dyn Valuation>,
    },
}

impl std::fmt::Debug for MarketEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarketEvent::Arrival { neighbors, .. } => {
                write!(f, "Arrival {{ neighbors: {neighbors:?} }}")
            }
            MarketEvent::Departure { bidder } => write!(f, "Departure {{ bidder: {bidder} }}"),
            MarketEvent::Rebid { bidder, .. } => write!(f, "Rebid {{ bidder: {bidder} }}"),
        }
    }
}

/// Applies one market event to a session (arrivals become
/// [`AuctionSession::add_bidder`], departures
/// [`AuctionSession::remove_bidder`], re-bids
/// [`AuctionSession::update_valuation`]).
pub fn apply_event(session: &mut AuctionSession, event: &MarketEvent) {
    match event {
        MarketEvent::Arrival {
            valuation,
            neighbors,
        } => {
            session.add_bidder(
                valuation.clone(),
                BidderConflicts::Binary(neighbors.clone()),
            );
        }
        MarketEvent::Departure { bidder } => session.remove_bidder(*bidder),
        MarketEvent::Rebid { bidder, valuation } => {
            session.update_valuation(*bidder, valuation.clone())
        }
    }
}

/// The conflicts a newly arriving bidder brings, matching the instance's
/// [`ConflictStructure`] variant.
#[derive(Clone, Debug, PartialEq)]
pub enum BidderConflicts {
    /// For [`ConflictStructure::Binary`]: the existing bidders the newcomer
    /// conflicts with.
    Binary(Vec<usize>),
    /// For [`ConflictStructure::Weighted`]: `(bidder u, w(new → u),
    /// w(u → new))` directed interference weights.
    Weighted(Vec<(usize, f64, f64)>),
    /// For [`ConflictStructure::AsymmetricBinary`]: one neighbor list per
    /// channel.
    PerChannelBinary(Vec<Vec<usize>>),
    /// For [`ConflictStructure::AsymmetricWeighted`]: one weighted list per
    /// channel (same convention as [`BidderConflicts::Weighted`]).
    PerChannelWeighted(Vec<Vec<(usize, f64, f64)>>),
}

/// The conflict structure a newly licensed channel brings.
#[derive(Clone, Debug)]
pub enum NewChannel {
    /// Symmetric structures ([`ConflictStructure::Binary`] /
    /// [`ConflictStructure::Weighted`]): the new channel shares the common
    /// conflict graph.
    Shared,
    /// [`ConflictStructure::AsymmetricBinary`]: the new channel's own graph.
    Binary(ConflictGraph),
    /// [`ConflictStructure::AsymmetricWeighted`]: the new channel's own
    /// weighted graph.
    Weighted(WeightedConflictGraph),
}

/// Which resolve paths a session has taken — the observable warm-path
/// accounting the `e15_incremental` bench and the tests assert on.
/// Aggregates across sessions with [`accumulate`](SessionStats::accumulate)
/// (the exchange's `ExchangeStats` rollup).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Total [`AuctionSession::resolve`] /
    /// [`AuctionSession::resolve_relaxation`] calls that recomputed a
    /// solution.
    pub resolves: usize,
    /// Resolves answered from the cached fractional solution (no pending
    /// mutations).
    pub cached_resolves: usize,
    /// Resolves that rebuilt the master (first solve, ρ/channel changes,
    /// and the deadweight rebuild after a departure that crossed
    /// `DEADWEIGHT_LIMIT`) — seeded from the previous master's bundles, not
    /// resumed from a recorded basis.
    pub cold_resolves: usize,
    /// Resolves that absorbed appended bidder rows: the master's warm solve
    /// extended the recorded basis by the new rows' logicals and repaired it
    /// with the engine's dual simplex loop.
    pub warm_row_resolves: usize,
    /// Resolves that only re-priced master columns and resumed the recorded
    /// basis with primal pivots.
    pub repriced_resolves: usize,
    /// Resolves that absorbed departures through in-place row deactivation
    /// (retired columns + relief columns) and resumed the surviving basis
    /// with primal pivots.
    pub deactivated_resolves: usize,
    /// Always 0; removed with the next benchmark PR.
    pub deep_batch_rebuilds: usize,
    /// The subset of [`warm_row_resolves`](Self::warm_row_resolves) whose
    /// mutation batch *mixed* arrivals with re-bids or departures: the
    /// session first re-optimized the repriced/deactivated master with a
    /// primal resume (restoring dual feasibility), then materialized the
    /// staged arrival rows, which the next warm solve repairs with dual
    /// pivots.
    pub mixed_batch_repairs: usize,
}

impl SessionStats {
    /// Adds another session's counters into this one, field by field — the
    /// reduction behind multi-market rollups.
    pub fn accumulate(&mut self, other: &SessionStats) {
        self.resolves += other.resolves;
        self.cached_resolves += other.cached_resolves;
        self.cold_resolves += other.cold_resolves;
        self.warm_row_resolves += other.warm_row_resolves;
        self.repriced_resolves += other.repriced_resolves;
        self.deactivated_resolves += other.deactivated_resolves;
        self.deep_batch_rebuilds += other.deep_batch_rebuilds;
        self.mixed_batch_repairs += other.mixed_batch_repairs;
    }
}

/// The LP dual prices of the most recent converged resolve, remapped into
/// the **canonical row layout** (`vj[v * k + j]` for interference row
/// `(v, j)`, `bidder[v]` for bidder `v`'s ≤ 1 row) regardless of the order
/// bidders arrived in. Strong duality makes this a portable optimality
/// certificate: `ρ · Σ vj + Σ bidder` equals the LP objective, every dual is
/// nonnegative, and no bundle has positive reduced cost — checkable by one
/// demand-oracle sweep without re-solving, which is what the sealed-bid
/// audit replay does.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DualCertificate {
    /// Dual of interference constraint `(v, j)` at index `v * k + j`.
    pub vj: Vec<f64>,
    /// Dual of bidder `v`'s "at most one bundle" row at index `v`.
    pub bidder: Vec<f64>,
}

/// One entry of the optional session event log (see
/// [`AuctionSession::record_events`]): the auditable history of every
/// mutation and resolve, phrased in at-application-time bidder indices so a
/// replay (fresh session, same events, same options) is exact. Valuations
/// are stored as [`ValuationSnapshot`]s — `None` marks a valuation type
/// that cannot be snapshotted, which an audit reports as unverifiable.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionLogEntry {
    /// A bidder arrived via [`AuctionSession::add_bidder`].
    Arrival {
        /// Index assigned to the newcomer (it arrives last).
        bidder: usize,
        /// Snapshot of the declared valuation, if snapshottable.
        valuation: Option<ValuationSnapshot>,
        /// The conflicts the newcomer brought.
        conflicts: BidderConflicts,
    },
    /// A bidder departed via [`AuctionSession::remove_bidder`]; later
    /// indices shifted down by one.
    Departure {
        /// Index of the departing bidder at departure time.
        bidder: usize,
    },
    /// A bidder re-bid via [`AuctionSession::update_valuation`] /
    /// [`AuctionSession::update_valuations`].
    Rebid {
        /// Index of the re-bidding bidder.
        bidder: usize,
        /// Snapshot of the replacement valuation, if snapshottable.
        valuation: Option<ValuationSnapshot>,
    },
    /// ρ changed via [`AuctionSession::set_rho`].
    RhoChange {
        /// The new interference budget.
        rho: f64,
    },
    /// A [`AuctionSession::resolve`] returned an outcome (cached re-resolves
    /// log one entry too — the outcome they returned is the same).
    Resolved {
        /// Objective value of the LP relaxation.
        lp_objective: f64,
        /// Social welfare of the rounded allocation.
        welfare: f64,
    },
}

/// How stale the cached master is relative to the (already mutated)
/// instance. Ordered: a mutation batch dirties the session to the maximum
/// of its members' levels. A resolve takes the path of the level it starts
/// from, and each non-clean level has its [`SessionStats`] counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Staleness {
    /// Master (if any) matches the instance; `last` is trustworthy.
    Clean,
    /// Column objectives were updated in place; basis still primal feasible.
    Repriced,
    /// A departure was absorbed in place (columns retired at objective 0,
    /// rows deactivated behind relief columns); the basis is still primal
    /// feasible and the next solve resumes with primal pivots, entering
    /// relief columns where the departed rows were binding.
    Deactivated,
    /// Rows were appended; the next warm solve extends the recorded basis
    /// by their logicals and repairs it with dual pivots.
    RowsAdded,
    /// Structure changed (or no master yet — a missing master is always at
    /// this level): rebuild, seeded from the previous master's bundles.
    Rebuild,
}

/// The master column of `(bidder, bundle)` under the session's
/// row layout (which may differ from the canonical `v·k + j` layout once
/// bidders have been appended mid-session).
fn session_column_for(
    instance: &AuctionInstance,
    bidder: usize,
    bundle: ChannelSet,
    row_vj: &[Vec<usize>],
    row_bidder: &[usize],
) -> GeneratedColumn {
    let mut coeffs: Vec<(usize, f64)> = Vec::new();
    for j in bundle.iter() {
        for (v, w) in instance.forward_rows(bidder, j) {
            coeffs.push((row_vj[v][j], w));
        }
    }
    coeffs.push((row_bidder[bidder], 1.0));
    GeneratedColumn {
        objective: instance.value(bidder, bundle),
        coeffs,
        tag: column_tag(bidder, bundle),
    }
}

/// Utility slack a demanded bundle must have over the bidder's dual `z_v`
/// before it enters the master as a new column.
const ORACLE_UTILITY_TOLERANCE: f64 = 1e-9;

/// The demand-oracle pricing source against the session master's duals,
/// reading rows through the session's layout maps.
struct SessionOracle<'a> {
    instance: &'a AuctionInstance,
    row_vj: &'a [Vec<usize>],
    row_bidder: &'a [usize],
}

impl ColumnSource for SessionOracle<'_> {
    /// For each bidder, sums the duals of the rows its bundle would load
    /// into channel prices `p_{v,j} = Σ w̄ · y`, queries the demand oracle
    /// ([`Valuation::demand_top`]), and emits a column for the demanded
    /// bundle when its utility beats the bidder's dual.
    fn generate(&mut self, duals: &[f64]) -> Vec<GeneratedColumn> {
        let instance = self.instance;
        let k = instance.num_channels;
        let mut columns = Vec::new();
        for bidder in 0..instance.num_bidders() {
            let prices: Vec<f64> = (0..k)
                .map(|j| {
                    instance
                        .forward_rows(bidder, j)
                        .into_iter()
                        .map(|(v, w)| w * duals[self.row_vj[v][j]])
                        .sum()
                })
                .collect();
            let z_v = duals[self.row_bidder[bidder]];
            for bundle in instance.bidders[bidder].demand_top(&prices, 1) {
                if bundle.is_empty() {
                    continue;
                }
                let utility = instance.value(bidder, bundle) - bundle.total_price(&prices);
                if utility > z_v + ORACLE_UTILITY_TOLERANCE {
                    columns.push(session_column_for(
                        instance,
                        bidder,
                        bundle,
                        self.row_vj,
                        self.row_bidder,
                    ));
                }
            }
        }
        columns
    }
}

/// A long-lived handle over a mutable auction that reuses LP state across
/// repeated, mutated solves. See the [module docs](self) for the warm-path
/// routing table and
/// [`SolverBuilder::session`](crate::solver::SolverBuilder::session) for
/// construction.
#[derive(Clone)]
pub struct AuctionSession {
    instance: AuctionInstance,
    options: SolverBuilder,
    /// The `(bidder, bundle)` columns of the last invalidated master, in
    /// column order, waiting to seed the next rebuild (re-priced at the
    /// then-current valuations). Empty whenever a master exists: the
    /// master's own bundle columns are the session's column memory.
    seeds: Vec<(usize, ChannelSet)>,
    /// The cached restricted master with its warm basis, or `None` before
    /// the first resolve / after a structural mutation.
    master: Option<MasterProblem>,
    /// Session row layout: `row_vj[v][j]` is the master row of constraint
    /// `(v, j)`, `row_bidder[v]` the bidder-`v` row. Canonical after a
    /// rebuild, appended-at-the-end for bidders arriving mid-session.
    row_vj: Vec<Vec<usize>>,
    row_bidder: Vec<usize>,
    staleness: Staleness,
    /// Bidders whose arrival is recorded in the instance but whose master
    /// rows are not appended yet. Rows are materialized at the next
    /// resolve, *after* any repricing/deactivation dirt has been repaired
    /// by a primal resume — so the dual row repair always starts from a
    /// dual-feasible basis (see the mixed-batch row of the routing table).
    staged_arrivals: Vec<usize>,
    /// The current mutation batch re-priced master columns or deactivated
    /// rows in place (re-bids, departures): the recorded basis is primal
    /// feasible but may no longer be optimal, so it is not dual feasible.
    dirty_basis: bool,
    last: Option<FractionalAssignment>,
    /// The full outcome of the most recent [`resolve`](Self::resolve), so a
    /// clean re-resolve skips the (deterministic) rounding stage too.
    last_outcome: Option<AuctionOutcome>,
    /// Canonical-layout duals of the most recent converged resolve (see
    /// [`DualCertificate`]); `None` after failed solves.
    last_certificate: Option<DualCertificate>,
    /// The optional mutation/resolve history (see
    /// [`record_events`](Self::record_events)); `None` while recording is
    /// off.
    log: Option<Vec<SessionLogEntry>>,
    stats: SessionStats,
}

impl AuctionSession {
    /// Opens a session over `instance`. Prefer
    /// [`SolverBuilder::session`](crate::solver::SolverBuilder::session).
    pub fn new(instance: AuctionInstance, options: SolverBuilder) -> Self {
        assert!(
            instance.num_channels <= 32,
            "the LP formulation packs bundles into 32-bit column tags (k ≤ 32)"
        );
        AuctionSession {
            instance,
            options,
            seeds: Vec::new(),
            master: None,
            row_vj: Vec::new(),
            row_bidder: Vec::new(),
            staleness: Staleness::Rebuild,
            staged_arrivals: Vec::new(),
            dirty_basis: false,
            last: None,
            last_outcome: None,
            last_certificate: None,
            log: None,
            stats: SessionStats::default(),
        }
    }

    /// The current (mutated) instance the session solves.
    pub fn instance(&self) -> &AuctionInstance {
        &self.instance
    }

    /// The solver configuration the session was opened with.
    pub fn options(&self) -> &SolverBuilder {
        &self.options
    }

    /// The fractional solution of the most recent resolve, if the instance
    /// has not been mutated since.
    pub fn last_fractional(&self) -> Option<&FractionalAssignment> {
        if self.staleness == Staleness::Clean {
            self.last.as_ref()
        } else {
            None
        }
    }

    /// Canonical-layout dual prices of the most recent resolve — valid only
    /// while the session is clean (no mutations since). `None` until a
    /// resolve converges; an auditor handed no certificate falls back to a
    /// re-solve.
    pub fn last_certificate(&self) -> Option<&DualCertificate> {
        if self.staleness == Staleness::Clean {
            self.last_certificate.as_ref()
        } else {
            None
        }
    }

    /// Turns the session event log on or off. While on, every mutation and
    /// every successful [`resolve`](Self::resolve) appends a
    /// [`SessionLogEntry`]; a sealed-bid audit replays this history against
    /// the claimed outcome. Off by default (recording clones valuation
    /// snapshots on every mutation). Turning recording off discards any
    /// recorded entries.
    pub fn record_events(&mut self, enable: bool) {
        if enable {
            if self.log.is_none() {
                self.log = Some(Vec::new());
            }
        } else {
            self.log = None;
        }
    }

    /// The recorded event log, or `None` while recording is off.
    pub fn event_log(&self) -> Option<&[SessionLogEntry]> {
        self.log.as_deref()
    }

    /// Takes ownership of the recorded log (empty if recording is off),
    /// leaving recording in its current state with an empty log.
    pub fn take_event_log(&mut self) -> Vec<SessionLogEntry> {
        match &mut self.log {
            Some(entries) => std::mem::take(entries),
            None => Vec::new(),
        }
    }

    /// Warm-path accounting.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    fn can_grow_incrementally(&self) -> bool {
        self.staleness != Staleness::Rebuild && self.master.is_some()
    }

    // -- mutations ---------------------------------------------------------

    /// A bidder arrives: appended as the last vertex of the conflict
    /// structure **and** of the ordering π (the natural online position —
    /// the newcomer's constraint rows see all of its conflicting
    /// predecessors). Returns the new bidder's index.
    ///
    /// On the warm path the newcomer's `k` interference rows and
    /// bidder row are appended to the cached master via
    /// [`MasterProblem::add_row`]; the next [`resolve`](Self::resolve)
    /// absorbs them with the warm solve's dual simplex row repair instead of
    /// a cold solve.
    ///
    /// # Panics
    /// Panics if the valuation's channel count or the conflict description
    /// does not match the instance.
    pub fn add_bidder(
        &mut self,
        valuation: Arc<dyn Valuation>,
        conflicts: BidderConflicts,
    ) -> usize {
        let n = self.instance.num_bidders();
        let k = self.instance.num_channels;
        assert_eq!(
            valuation.num_channels(),
            k,
            "arriving bidder is defined over {} channels, instance has {k}",
            valuation.num_channels()
        );
        self.instance.conflicts = match (&self.instance.conflicts, &conflicts) {
            (ConflictStructure::Binary(g), BidderConflicts::Binary(ns)) => {
                ConflictStructure::Binary(g.with_appended_vertex(ns))
            }
            (ConflictStructure::Weighted(g), BidderConflicts::Weighted(ws)) => {
                let outgoing: Vec<(usize, f64)> = ws.iter().map(|&(u, o, _)| (u, o)).collect();
                let incoming: Vec<(usize, f64)> = ws.iter().map(|&(u, _, i)| (u, i)).collect();
                ConflictStructure::Weighted(g.with_appended_vertex(&outgoing, &incoming))
            }
            (ConflictStructure::AsymmetricBinary(gs), BidderConflicts::PerChannelBinary(per)) => {
                assert_eq!(per.len(), k, "one neighbor list per channel required");
                ConflictStructure::AsymmetricBinary(
                    gs.iter()
                        .zip(per)
                        .map(|(g, ns)| g.with_appended_vertex(ns))
                        .collect(),
                )
            }
            (
                ConflictStructure::AsymmetricWeighted(gs),
                BidderConflicts::PerChannelWeighted(per),
            ) => {
                assert_eq!(per.len(), k, "one weighted list per channel required");
                ConflictStructure::AsymmetricWeighted(
                    gs.iter()
                        .zip(per)
                        .map(|(g, ws)| {
                            let outgoing: Vec<(usize, f64)> =
                                ws.iter().map(|&(u, o, _)| (u, o)).collect();
                            let incoming: Vec<(usize, f64)> =
                                ws.iter().map(|&(u, _, i)| (u, i)).collect();
                            g.with_appended_vertex(&outgoing, &incoming)
                        })
                        .collect(),
                )
            }
            _ => panic!("bidder conflicts do not match the instance's conflict structure"),
        };
        self.instance.bidders.push(valuation);
        let mut order = self.instance.ordering.as_order().to_vec();
        order.push(n);
        self.instance.ordering = VertexOrdering::from_order(order);
        if self.log.is_some() {
            let snapshot = self.instance.bidders[n].snapshot();
            if let Some(log) = &mut self.log {
                log.push(SessionLogEntry::Arrival {
                    bidder: n,
                    valuation: snapshot,
                    conflicts,
                });
            }
        }

        if self.can_grow_incrementally() {
            // The newcomer's rows are *staged*, not appended: the next
            // resolve materializes them after any repricing/deactivation
            // dirt from the same batch has been repaired by a primal
            // resume. Appending eagerly would hand the dual row repair a
            // basis that re-bids or departures already knocked off the
            // dual-feasible perch, making the warm solve decline it and
            // cold-start the whole master.
            self.row_vj.push(Vec::new());
            self.row_bidder.push(usize::MAX);
            self.staged_arrivals.push(n);
            self.staleness = self.staleness.max(Staleness::RowsAdded);
        } else {
            self.staleness = Staleness::Rebuild;
        }
        self.invalidate_solution_cache();
        n
    }

    /// A bidder departs; bidders above it shift down by one.
    ///
    /// On the warm path the departure is absorbed **in place** —
    /// the basis-preserving removal: the departed bidder's columns are
    /// retired at objective 0 ([`MasterProblem::retire_columns`]), its
    /// `k + 1` rows are deactivated behind relief columns
    /// ([`MasterProblem::deactivate_rows`]), and surviving columns
    /// are re-tagged to the shifted bidder indices. The recorded basis
    /// stays valid and primal feasible, so the next
    /// [`resolve`](Self::resolve) resumes with ordinary primal pivots —
    /// departures take the cheap re-pricing shape instead of a rebuild.
    /// A departure that leaves the deadweight at `DEADWEIGHT_LIMIT` or more
    /// drops the master instead: the next resolve rebuilds it, seeded from
    /// the survivors' re-tagged columns (the departed bidders' tombstones
    /// are not native and do not seed).
    ///
    /// # Panics
    /// Panics if `bidder` is out of range or it is the last bidder left.
    pub fn remove_bidder(&mut self, bidder: usize) {
        let n = self.instance.num_bidders();
        assert!(bidder < n, "bidder {bidder} out of range (n={n})");
        assert!(n > 1, "cannot remove the last bidder");
        if let Some(log) = &mut self.log {
            log.push(SessionLogEntry::Departure { bidder });
        }
        self.instance.bidders.remove(bidder);
        self.instance.conflicts = self.instance.conflicts.without_bidder(bidder);
        let order: Vec<usize> = self
            .instance
            .ordering
            .as_order()
            .iter()
            .filter(|&&u| u != bidder)
            .map(|&u| if u > bidder { u - 1 } else { u })
            .collect();
        self.instance.ordering = VertexOrdering::from_order(order);

        if self.can_grow_incrementally() {
            let master = self
                .master
                .as_mut()
                .expect("checked by can_grow_incrementally");
            // Retire the departed bidder's columns and re-key the
            // survivors' tags to the shifted indices. retire_columns
            // tombstones the departed tags first, and the retags are
            // applied in increasing old-tag order, so every target tag
            // `(u − 1, T)` has been vacated by the time it is assigned.
            let mut to_retire: Vec<usize> = Vec::new();
            let mut retags: Vec<(usize, u64, u64)> = Vec::new();
            for (idx, &tag) in master.tags().iter().enumerate() {
                if !is_native_tag(tag) {
                    continue;
                }
                let (u, bundle) = decode_column_tag(tag);
                if u == bidder {
                    to_retire.push(idx);
                } else if u > bidder {
                    retags.push((idx, tag, column_tag(u - 1, bundle)));
                }
            }
            master.retire_columns(&to_retire);
            retags.sort_by_key(|&(_, old, _)| old);
            for (idx, _, tag) in retags {
                master.set_column_tag(idx, tag);
            }
            let mut rows = self.row_vj.remove(bidder);
            let bidder_row = self.row_bidder.remove(bidder);
            if let Some(pos) = self.staged_arrivals.iter().position(|&v| v == bidder) {
                // The departed bidder arrived in this same batch: its rows
                // were never materialized (and it has no columns — the
                // oracle only prices newcomers after the row repair), so
                // the master needs no surgery. Un-stage it.
                self.staged_arrivals.remove(pos);
            } else {
                // Deactivate the departed bidder's k interference rows and
                // its bidder row; surviving bidders' row indices are
                // untouched (master rows never shift), so the layout maps
                // just drop the departed entry.
                rows.push(bidder_row);
                master.deactivate_rows(&rows);
                self.staleness = self.staleness.max(Staleness::Deactivated);
                self.dirty_basis = true;
            }
            for v in &mut self.staged_arrivals {
                if *v > bidder {
                    *v -= 1;
                }
            }
            if master.deadweight_fraction() >= DEADWEIGHT_LIMIT {
                self.invalidate_master();
            } else {
                self.invalidate_solution_cache();
            }
        } else {
            self.invalidate_master();
            // Re-key the pending rebuild seeds the way the warm path
            // re-tags master columns: the departed bidder's go, higher
            // indices shift down by one.
            self.seeds.retain(|&(v, _)| v != bidder);
            for (v, _) in &mut self.seeds {
                if *v > bidder {
                    *v -= 1;
                }
            }
        }
    }

    /// A bidder re-bids: its valuation is replaced. On the warm path the
    /// bidder's master columns are **re-priced in place** (the
    /// recorded basis stays primal feasible — only objective coefficients
    /// move), so the next resolve resumes with ordinary primal pivots; the
    /// demand oracle is then consulted as usual for genuinely new bundles.
    ///
    /// # Panics
    /// Panics if `bidder` is out of range or the valuation's channel count
    /// mismatches.
    pub fn update_valuation(&mut self, bidder: usize, valuation: Arc<dyn Valuation>) {
        self.update_valuations(vec![(bidder, valuation)]);
    }

    /// Replaces several bidders' valuations in one batch — same semantics
    /// as repeated [`update_valuation`](Self::update_valuation) calls, but
    /// the master's column list is scanned **once** for the whole batch
    /// instead of once per bidder (the shape the Lavi–Swamy verifier hits:
    /// every pricing round re-bids all `n` bidders at once).
    ///
    /// # Panics
    /// Panics if any index is out of range or any valuation's channel count
    /// mismatches.
    pub fn update_valuations(&mut self, updates: Vec<(usize, Arc<dyn Valuation>)>) {
        if updates.is_empty() {
            return;
        }
        let n = self.instance.num_bidders();
        for (bidder, valuation) in &updates {
            assert!(*bidder < n, "bidder {bidder} out of range (n={n})");
            assert_eq!(
                valuation.num_channels(),
                self.instance.num_channels,
                "replacement valuation is defined over {} channels, instance has {}",
                valuation.num_channels(),
                self.instance.num_channels
            );
        }
        let changed: HashSet<usize> = updates.iter().map(|&(bidder, _)| bidder).collect();
        for (bidder, valuation) in updates {
            if self.log.is_some() {
                let snapshot = valuation.snapshot();
                if let Some(log) = &mut self.log {
                    log.push(SessionLogEntry::Rebid {
                        bidder,
                        valuation: snapshot,
                    });
                }
            }
            self.instance.bidders[bidder] = valuation;
        }
        if self.can_grow_incrementally() {
            let master = self
                .master
                .as_mut()
                .expect("checked by can_grow_incrementally");
            let repriced: Vec<(usize, f64)> = master
                .tags()
                .iter()
                .enumerate()
                .filter_map(|(idx, &tag)| {
                    if !is_native_tag(tag) {
                        return None;
                    }
                    let (u, bundle) = decode_column_tag(tag);
                    changed
                        .contains(&u)
                        .then(|| (idx, self.instance.value(u, bundle)))
                })
                .collect();
            if !repriced.is_empty() {
                self.dirty_basis = true;
            }
            for (idx, objective) in repriced {
                master.set_column_objective(idx, objective);
            }
            self.staleness = self.staleness.max(Staleness::Repriced);
        } else {
            self.staleness = Staleness::Rebuild;
        }
        self.invalidate_solution_cache();
    }

    /// Changes the ρ used as the right-hand side of the interference rows.
    /// Every interference row's rhs moves, so the next resolve rebuilds the
    /// master, seeded from the bundles of the master it replaces.
    ///
    /// # Panics
    /// Panics if `rho < 1` or non-finite.
    pub fn set_rho(&mut self, rho: f64) {
        assert!(
            rho >= 1.0 && rho.is_finite(),
            "rho must be >= 1 (got {rho})"
        );
        self.instance.rho = rho;
        if let Some(log) = &mut self.log {
            log.push(SessionLogEntry::RhoChange { rho });
        }
        self.invalidate_master();
    }

    /// A channel is licensed in: `k` grows by one and every bidder submits a
    /// valuation over the enlarged channel set (wrap the old ones for
    /// bidders that ignore the newcomer). Returns the new channel's index.
    /// Previously discovered bundles stay valid (they are subsets of the old
    /// channels) and seed the rebuilt master.
    ///
    /// # Panics
    /// Panics if the valuation list does not have exactly one entry per
    /// bidder over `k + 1` channels, if the new channel's conflict
    /// description does not match the instance's structure, or if `k + 1`
    /// exceeds the 32-channel tag limit.
    pub fn add_channel(
        &mut self,
        valuations: Vec<Arc<dyn Valuation>>,
        conflicts: NewChannel,
    ) -> usize {
        let n = self.instance.num_bidders();
        let k = self.instance.num_channels;
        assert!(k < 32, "the LP formulation supports at most 32 channels");
        assert_eq!(valuations.len(), n, "one valuation per bidder required");
        for (i, v) in valuations.iter().enumerate() {
            assert_eq!(
                v.num_channels(),
                k + 1,
                "bidder {i}'s new valuation is defined over {} channels, expected {}",
                v.num_channels(),
                k + 1
            );
        }
        match (&mut self.instance.conflicts, conflicts) {
            (ConflictStructure::Binary(_) | ConflictStructure::Weighted(_), NewChannel::Shared) => {
            }
            (ConflictStructure::AsymmetricBinary(gs), NewChannel::Binary(g)) => {
                assert_eq!(g.num_vertices(), n, "new channel's graph size mismatch");
                gs.push(g);
            }
            (ConflictStructure::AsymmetricWeighted(gs), NewChannel::Weighted(g)) => {
                assert_eq!(g.num_vertices(), n, "new channel's graph size mismatch");
                gs.push(g);
            }
            _ => {
                panic!("new channel's conflict description does not match the instance's structure")
            }
        }
        self.instance.num_channels = k + 1;
        self.instance.bidders = valuations;
        self.invalidate_master();
        k
    }

    /// Drops the cached master. Its bundle columns, in column order, become
    /// the seeds of the next rebuild; with no master (already invalidated)
    /// the pending seeds are kept.
    fn invalidate_master(&mut self) {
        if let Some(master) = self.master.take() {
            self.seeds = master
                .tags()
                .iter()
                .filter(|&&tag| is_native_tag(tag))
                .map(|&tag| decode_column_tag(tag))
                .collect();
        }
        self.row_vj.clear();
        self.row_bidder.clear();
        self.staleness = Staleness::Rebuild;
        self.staged_arrivals.clear();
        self.dirty_basis = false;
        self.invalidate_solution_cache();
    }

    /// Appends the master rows of every bidder staged by
    /// [`add_bidder`](Self::add_bidder) since the last resolve. Runs on
    /// the warm path right before column generation — after any
    /// repricing/deactivation repair — so the master's next warm solve
    /// starts its dual row repair from a dual-feasible basis.
    fn materialize_staged_rows(&mut self) {
        if self.staged_arrivals.is_empty() {
            return;
        }
        let k = self.instance.num_channels;
        let staged = std::mem::take(&mut self.staged_arrivals);
        let master = self.master.as_mut().expect("master exists on this path");
        for &v in &staged {
            // The newcomer's (v, j) rows constrain the columns of its
            // conflicting predecessors (everyone precedes it in π); its own
            // future columns will carry their coefficients as usual. One
            // pass over the column list fills all k rows' coefficients.
            let mut per_channel: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k];
            for (idx, &tag) in master.tags().iter().enumerate() {
                if !is_native_tag(tag) {
                    continue; // relief / tombstoned columns assign nothing
                }
                let (u, bundle) = decode_column_tag(tag);
                for j in bundle.iter() {
                    let w = self.instance.conflicts.symmetric_weight(u, v, j);
                    if w > 0.0 {
                        per_channel[j].push((idx, w));
                    }
                }
            }
            let mut rows = Vec::with_capacity(k);
            for coeffs in per_channel {
                rows.push(master.add_row(Relation::Le, self.instance.rho, coeffs));
            }
            self.row_vj[v] = rows;
            // Deliberately no column seed for the newcomer here: the dual
            // row repair requires the extended basis to stay dual
            // feasible, and a fresh attractive column has positive reduced
            // cost at the prior duals (seeding it would make the warm solve
            // decline the basis and cold-start). The demand oracle
            // proposes the newcomer's bundles right after the row repair.
            self.row_bidder[v] = master.add_row(Relation::Le, 1.0, Vec::new());
        }
    }

    fn invalidate_solution_cache(&mut self) {
        self.last = None;
        self.last_outcome = None;
        self.last_certificate = None;
    }

    // -- solving -----------------------------------------------------------

    /// Solves the relaxation of the current instance through the cheapest
    /// path the pending mutations admit (see the [module docs](self)),
    /// without running the rounding stage.
    pub fn resolve_relaxation(&mut self) -> Result<FractionalAssignment, SolveError> {
        if self.staleness == Staleness::Clean {
            if let Some(last) = &self.last {
                self.stats.cached_resolves += 1;
                return Ok(last.clone());
            }
        }
        // The path is the staleness the resolve starts from; its counter is
        // only bumped after the solve succeeds, so failed attempts (pivot
        // budgets) don't skew the accounting the tests and the e15 bench
        // assert on.
        let path = self.staleness;
        match path {
            // Clean sessions answered from the cache above; every mutation
            // that leaves the master in place raises staleness.
            Staleness::Clean => unreachable!("clean resolves are served from cache"),
            Staleness::Repriced | Staleness::Deactivated => {}
            Staleness::RowsAdded => {
                if self.dirty_basis {
                    // Mixed batch: re-bids/departures from the same batch
                    // left the recorded basis primal feasible but not dual
                    // feasible, which is exactly the state the dual row
                    // repair cannot start from. One primal resume (cheap:
                    // the basis is near the new optimum) restores
                    // optimality — and with it dual feasibility — before
                    // the staged arrival rows land.
                    self.stats.mixed_batch_repairs += 1;
                    let master = self.master.as_mut().expect("master exists on this path");
                    let _ = master.solve();
                }
                self.materialize_staged_rows();
            }
            Staleness::Rebuild => self.rebuild_master(),
        }
        let fractional = self.run_column_generation()?;
        *match path {
            Staleness::Rebuild => &mut self.stats.cold_resolves,
            Staleness::RowsAdded => &mut self.stats.warm_row_resolves,
            Staleness::Repriced => &mut self.stats.repriced_resolves,
            _ => &mut self.stats.deactivated_resolves,
        } += 1;
        self.staleness = Staleness::Clean;
        self.dirty_basis = false;
        self.last = Some(fractional.clone());
        self.stats.resolves += 1;
        Ok(fractional)
    }

    /// Runs the full pipeline on the current instance: the relaxation
    /// through the warm path, then the rounding stage, with the final
    /// feasibility re-check surfaced as
    /// [`SolveError::InfeasibleRounding`].
    ///
    /// In debug builds a converged warm answer is re-certified against a
    /// from-scratch [`solve_relaxation`](crate::lp_formulation::solve_relaxation)
    /// of the mutated instance before rounding.
    pub fn resolve(&mut self) -> Result<AuctionOutcome, SolveError> {
        if self.staleness == Staleness::Clean {
            if let Some(outcome) = &self.last_outcome {
                // The rounding stage is deterministic given its options, so
                // an unmutated session returns the identical outcome without
                // re-rounding (or re-certifying).
                self.stats.cached_resolves += 1;
                let outcome = outcome.clone();
                if let Some(log) = &mut self.log {
                    log.push(SessionLogEntry::Resolved {
                        lp_objective: outcome.lp_objective,
                        welfare: outcome.welfare,
                    });
                }
                return Ok(outcome);
            }
        }
        let fractional = self.resolve_relaxation()?;
        #[cfg(debug_assertions)]
        self.recertify(&fractional);
        let solver = SpectrumAuctionSolver::new(self.options.clone());
        let outcome = solver.try_round_fractional(&self.instance, &fractional)?;
        self.last_outcome = Some(outcome.clone());
        if let Some(log) = &mut self.log {
            log.push(SessionLogEntry::Resolved {
                lp_objective: outcome.lp_objective,
                welfare: outcome.welfare,
            });
        }
        Ok(outcome)
    }

    #[cfg(debug_assertions)]
    fn recertify(&self, fractional: &FractionalAssignment) {
        if !fractional.converged {
            return;
        }
        let scratch = crate::lp_formulation::solve_relaxation(&self.instance, &self.options);
        if scratch.converged {
            let scale = 1.0 + scratch.objective.abs();
            assert!(
                (fractional.objective - scratch.objective).abs() <= 1e-5 * scale,
                "session warm resolve ({}) diverged from a from-scratch solve ({})",
                fractional.objective,
                scratch.objective
            );
        }
    }

    /// Rebuilds the master with the canonical row layout, seeded from the
    /// bundles of the master it replaces (re-priced at the current
    /// valuations) plus each bidder's favorite bundles.
    fn rebuild_master(&mut self) {
        let n = self.instance.num_bidders();
        let k = self.instance.num_channels;
        // A master left behind by a failed rebuild seeds its replacement
        // like any other; the rebuild lays out rows for every current
        // bidder, staged or not.
        self.invalidate_master();
        self.row_vj = (0..n)
            .map(|v| (0..k).map(|j| v * k + j).collect())
            .collect();
        self.row_bidder = (0..n).map(|v| n * k + v).collect();
        let mut master = MasterProblem::new(Sense::Maximize, master_rows(&self.instance));
        seed_columns(
            &self.instance,
            &std::mem::take(&mut self.seeds),
            self.options.seed_top_bundles,
            |bidder, bundle| {
                master.add_column(session_column_for(
                    &self.instance,
                    bidder,
                    bundle,
                    &self.row_vj,
                    &self.row_bidder,
                ));
            },
        );
        self.master = Some(master);
    }

    /// Column generation on the cached master (the warm and freshly rebuilt
    /// paths both end here; each master solve inside the loop picks the primal
    /// resume or the dual-simplex row repair as appropriate).
    fn run_column_generation(&mut self) -> Result<FractionalAssignment, SolveError> {
        self.last_certificate = None;
        let master = self.master.as_mut().expect("master exists on this path");
        let mut oracle = SessionOracle {
            instance: &self.instance,
            row_vj: &self.row_vj,
            row_bidder: &self.row_bidder,
        };
        // Bundle-column count and churn attribution: dead tombstones and
        // relief columns are solver plumbing, not assignments.
        let native_columns =
            |m: &MasterProblem| m.tags().iter().filter(|&&tag| is_native_tag(tag)).count();
        let churn = |m: &MasterProblem, info: &mut RelaxationInfo| {
            info.rows_deactivated = m.rows_deactivated();
        };
        let result = match master.generate_columns(&mut oracle, self.options.max_pricing_rounds) {
            Ok(result) => result,
            Err(ColumnGenerationError::IterationLimit { partial }) => {
                let rounds = partial.rounds;
                let mut info = RelaxationInfo::from_cg(&partial, native_columns(master));
                churn(master, &mut info);
                let fractional = extract(&self.instance, master, partial.solution, false, info);
                return Err(SolveError::IterationLimit {
                    rounds,
                    partial: Box::new(fractional),
                });
            }
        };
        let status = result.solution.status;
        let converged = result.converged;
        // Rows never move during a master's life, so the converged duals
        // map straight into the canonical layout.
        let duals = &result.solution.duals;
        let certificate = converged.then(|| DualCertificate {
            vj: self.row_vj.iter().flatten().map(|&r| duals[r]).collect(),
            bidder: self.row_bidder.iter().map(|&r| duals[r]).collect(),
        });
        let mut info = RelaxationInfo::from_cg(&result, native_columns(master));
        churn(master, &mut info);
        let fractional = extract(&self.instance, master, result.solution, converged, info);
        // Same strict contract as the try_* entry points: Ok implies the
        // objective is the true LP optimum (a pricing-round-budget
        // truncation errors as IterationLimit, an infeasible master as
        // Infeasible).
        strict_status_error(status, &fractional)?;
        self.last_certificate = certificate;
        Ok(fractional)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_formulation::{solve_relaxation, solve_relaxation_explicit};
    use crate::valuation::XorValuation;
    use ssa_conflict_graph::ConflictGraph;

    fn xor_bidder(k: usize, bids: Vec<(Vec<usize>, f64)>) -> Arc<dyn Valuation> {
        Arc::new(XorValuation::new(
            k,
            bids.into_iter()
                .map(|(chs, v)| (ChannelSet::from_channels(chs), v))
                .collect(),
        ))
    }

    fn path_instance(n: usize, k: usize) -> AuctionInstance {
        let edges: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        let g = ConflictGraph::from_edges(n, &edges);
        let bidders: Vec<Arc<dyn Valuation>> = (0..n)
            .map(|i| {
                xor_bidder(
                    k,
                    vec![
                        (vec![i % k], 2.0 + (i % 4) as f64),
                        ((0..k).collect(), 3.5 + (i % 3) as f64),
                    ],
                )
            })
            .collect();
        AuctionInstance::new(
            k,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::identity(n),
            1.0,
        )
    }

    fn assert_matches_scratch(session: &mut AuctionSession) {
        let warm = session
            .resolve_relaxation()
            .expect("session resolve failed");
        let scratch = solve_relaxation(session.instance(), session.options());
        assert!(warm.converged && scratch.converged);
        assert!(
            (warm.objective - scratch.objective).abs() <= 1e-6 * (1.0 + scratch.objective.abs()),
            "warm {} vs scratch {}",
            warm.objective,
            scratch.objective
        );
        assert!(warm.satisfies_constraints(session.instance(), 1e-6));
    }

    #[test]
    fn arrivals_ride_the_dual_row_path() {
        let mut session = SolverBuilder::new().session(path_instance(6, 2));
        assert_matches_scratch(&mut session);
        assert_eq!(session.stats().cold_resolves, 1);

        // two arrivals, conflicting with the tail of the path
        session.add_bidder(
            xor_bidder(2, vec![(vec![0], 9.0), (vec![0, 1], 11.0)]),
            BidderConflicts::Binary(vec![4, 5]),
        );
        assert_matches_scratch(&mut session);
        session.add_bidder(
            xor_bidder(2, vec![(vec![1], 6.0)]),
            BidderConflicts::Binary(vec![6]),
        );
        assert_matches_scratch(&mut session);
        assert_eq!(session.stats().warm_row_resolves, 2);
        assert_eq!(session.stats().cold_resolves, 1);
        assert_eq!(session.instance().num_bidders(), 8);
    }

    /// A batch mixing arrivals with re-bids and a departure takes the
    /// staged two-phase path: a primal resume repairs the
    /// repriced/deactivated master first, then the staged arrival rows
    /// land and the dual repair absorbs them — instead of the dual path
    /// declining (no dual feasibility) into a near-cold solve.
    #[test]
    fn mixed_batches_stage_arrivals_behind_the_primal_repair() {
        let mut session = SolverBuilder::new().session(path_instance(8, 2));
        assert_matches_scratch(&mut session);

        session.update_valuation(1, xor_bidder(2, vec![(vec![0, 1], 18.0)]));
        session.remove_bidder(5);
        session.add_bidder(
            xor_bidder(2, vec![(vec![0], 7.0), (vec![0, 1], 9.0)]),
            BidderConflicts::Binary(vec![2, 6]),
        );
        assert_matches_scratch(&mut session);
        assert_eq!(session.stats().warm_row_resolves, 1);
        assert_eq!(session.stats().mixed_batch_repairs, 1);
        assert_eq!(session.stats().cold_resolves, 1);

        // a pure-arrival batch does not pay the extra primal resume
        session.add_bidder(
            xor_bidder(2, vec![(vec![1], 5.0)]),
            BidderConflicts::Binary(vec![0]),
        );
        assert_matches_scratch(&mut session);
        assert_eq!(session.stats().warm_row_resolves, 2);
        assert_eq!(session.stats().mixed_batch_repairs, 1);
    }

    /// A bidder that arrives and departs within the same mutation batch
    /// never touches the master: its staged rows are dropped before they
    /// materialize, and the pending-row counter unwinds with them.
    #[test]
    fn staged_arrival_departing_in_the_same_batch_leaves_no_trace() {
        let mut session = SolverBuilder::new().session(path_instance(6, 2));
        assert_matches_scratch(&mut session);

        let newcomer = session.add_bidder(
            xor_bidder(2, vec![(vec![0], 6.0)]),
            BidderConflicts::Binary(vec![1, 4]),
        );
        session.add_bidder(
            xor_bidder(2, vec![(vec![1], 4.5)]),
            BidderConflicts::Binary(vec![2]),
        );
        session.remove_bidder(newcomer);
        assert_matches_scratch(&mut session);
        // only the surviving newcomer's rows went through the dual repair
        assert_eq!(session.stats().warm_row_resolves, 1);

        // and a departure of a *pre-batch* bidder alongside a staged
        // arrival still routes through the mixed-batch repair
        session.add_bidder(
            xor_bidder(2, vec![(vec![0, 1], 8.0)]),
            BidderConflicts::Binary(vec![0, 3]),
        );
        session.remove_bidder(1);
        assert_matches_scratch(&mut session);
        assert_eq!(session.stats().mixed_batch_repairs, 1);
    }

    #[test]
    fn rebids_reprice_the_pool_in_place() {
        let mut session = SolverBuilder::new().session(path_instance(6, 2));
        assert_matches_scratch(&mut session);
        session.update_valuation(2, xor_bidder(2, vec![(vec![0, 1], 20.0)]));
        assert_matches_scratch(&mut session);
        session.update_valuation(3, xor_bidder(2, vec![(vec![1], 0.25)]));
        assert_matches_scratch(&mut session);
        assert_eq!(session.stats().repriced_resolves, 2);
        assert_eq!(session.stats().cold_resolves, 1);
    }

    #[test]
    fn departures_deactivate_in_place_and_rho_changes_rebuild() {
        let mut session = SolverBuilder::new().session(path_instance(7, 2));
        assert_matches_scratch(&mut session);
        // a departure now rides the basis-preserving deactivation path
        session.remove_bidder(3);
        assert_matches_scratch(&mut session);
        assert_eq!(session.instance().num_bidders(), 6);
        assert_eq!(session.stats().deactivated_resolves, 1);
        // ρ changes still rebuild, seeded from the previous master
        session.set_rho(2.0);
        assert_matches_scratch(&mut session);
        assert_eq!(session.stats().cold_resolves, 2);
    }

    /// A rebuild re-seeds every bundle column of the master it replaces: a
    /// same-ρ rebuild needs no pricing at all. Seeds pending across a
    /// departure are re-keyed to the shifted bidder indices.
    #[test]
    fn rebuilds_seed_the_previous_master() {
        let mut session = SolverBuilder::new()
            .seed_top_bundles(1)
            .session(path_instance(9, 3));
        let first = session.resolve_relaxation().expect("first resolve failed");
        assert_eq!(first.info.columns_generated, 4);
        assert_eq!(first.info.num_columns, 13);

        session.set_rho(1.0);
        let rebuilt = session.resolve_relaxation().expect("rebuild failed");
        assert_eq!(session.stats().cold_resolves, 2);
        assert_eq!(rebuilt.info.columns_generated, 0);
        assert_eq!(rebuilt.info.num_columns, 13);

        session.set_rho(2.0);
        session.remove_bidder(0);
        assert_matches_scratch(&mut session);
    }

    /// A rebuild that runs out of pricing rounds leaves its master behind.
    /// The retry is a rebuild like any other, seeded from the master it
    /// replaces, so it starts with every column the failed attempt priced.
    #[test]
    fn a_failed_rebuild_seeds_its_retry() {
        let mut session = SolverBuilder::new()
            .seed_top_bundles(1)
            .max_pricing_rounds(1)
            .session(path_instance(9, 3));
        assert!(matches!(
            session.resolve_relaxation(),
            Err(SolveError::IterationLimit { .. })
        ));
        let retry = session.resolve_relaxation().expect("retry converges");
        assert_eq!(retry.info.columns_generated, 0);
        assert_eq!(retry.info.num_columns, 13);
        assert_eq!(session.stats().cold_resolves, 1);
        let scratch = solve_relaxation(session.instance(), &SolverBuilder::new());
        assert!((retry.objective - scratch.objective).abs() <= 1e-6 * (1.0 + scratch.objective));
    }

    /// Departures compose with every other warm mutation: depart → re-bid
    /// (one batch), depart → arrival (forces the dual path to validate a
    /// master that carries relief columns), and repeated departures that
    /// push deadweight past `DEADWEIGHT_LIMIT` mid-session, where the
    /// master is rebuilt from exactly the survivors' columns plus the seed
    /// bundles.
    #[test]
    fn departure_mutations_compose_with_other_warm_paths() {
        let mut session = SolverBuilder::new().session(path_instance(8, 2));
        assert_matches_scratch(&mut session);

        // batch: departure + re-bid resolves on the deactivation path
        session.remove_bidder(2);
        session.update_valuation(0, xor_bidder(2, vec![(vec![0, 1], 9.5)]));
        assert_matches_scratch(&mut session);
        assert_eq!(session.stats().deactivated_resolves, 1);
        let info = &session.last_fractional().expect("resolved").info;
        assert_eq!(info.rows_deactivated, 3, "the departure's k + 1 rows");

        // batch: departure + arrival (rows added on a deactivated master)
        session.remove_bidder(4);
        session.add_bidder(
            xor_bidder(2, vec![(vec![1], 7.0)]),
            BidderConflicts::Binary(vec![0, 3]),
        );
        assert_matches_scratch(&mut session);

        // drain the market, re-solving each time; the departures that
        // cross the deadweight limit drop the master and rebuild it
        let mut crossings = 0;
        while session.instance().num_bidders() > 2 {
            // bidder 0's departure shifts every survivor down by one
            let master = session.master.as_ref().expect("a clean warm session");
            let survivors: Vec<(usize, ChannelSet)> = master
                .tags()
                .iter()
                .filter(|&&tag| is_native_tag(tag))
                .map(|&tag| decode_column_tag(tag))
                .filter(|&(u, _)| u != 0)
                .map(|(u, bundle)| (u - 1, bundle))
                .collect();
            let cold = session.stats().cold_resolves;
            session.remove_bidder(0);
            let crossed = session.master.is_none();
            if crossed {
                assert_eq!(session.seeds, survivors, "rebuild seeds");
            }
            assert_matches_scratch(&mut session);
            assert_eq!(session.stats().cold_resolves, cold + usize::from(crossed));
            if !crossed {
                continue;
            }
            crossings += 1;
            // the rebuilt master holds no tombstone or relief column, and
            // its seeded prefix is the survivors' bundles followed by the
            // bidders' seed bundles not already among them
            let info = &session.last_fractional().expect("resolved").info;
            let master = session.master.as_ref().expect("rebuilt");
            assert!(master.tags().iter().all(|&tag| is_native_tag(tag)));
            let mut want = survivors;
            let seed_top = session.options.seed_top_bundles;
            seed_columns(session.instance(), &[], seed_top, |v, bundle| {
                if !want.contains(&(v, bundle)) {
                    want.push((v, bundle));
                }
            });
            let seeded = info.num_columns - info.columns_generated;
            let got: Vec<(usize, ChannelSet)> = master.tags()[..seeded]
                .iter()
                .map(|&tag| decode_column_tag(tag))
                .collect();
            assert_eq!(got, want, "rebuilt master's seed columns");
        }
        assert!(crossings > 0, "the drain must cross the deadweight limit");
        // mutations keep working on the rebuilt master
        session.add_bidder(
            xor_bidder(2, vec![(vec![0], 4.0)]),
            BidderConflicts::Binary(vec![0]),
        );
        assert_matches_scratch(&mut session);
    }

    /// A session cloned mid-life (as the exchange detaches sessions into
    /// sealed rounds and back) carries its master's live engine: the clone
    /// and the original, given the same mutation batches, resolve to
    /// bit-equal values, duals and engine counters.
    #[test]
    fn a_cloned_session_resolves_identically() {
        let mut session = SolverBuilder::new().session(path_instance(8, 2));
        session.resolve_relaxation().expect("first resolve");
        session.update_valuation(3, xor_bidder(2, vec![(vec![0, 1], 12.0)]));
        session.resolve_relaxation().expect("repriced resolve");

        let mut twin = session.clone();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for batch in 0..3 {
            for s in [&mut session, &mut twin] {
                match batch {
                    0 => {
                        s.add_bidder(
                            xor_bidder(2, vec![(vec![0], 9.0), (vec![0, 1], 11.0)]),
                            BidderConflicts::Binary(vec![2, 6]),
                        );
                    }
                    1 => {
                        s.remove_bidder(4);
                        s.update_valuation(0, xor_bidder(2, vec![(vec![1], 8.5)]));
                    }
                    _ => {
                        s.update_valuation(5, xor_bidder(2, vec![(vec![0, 1], 3.0)]));
                        s.add_bidder(
                            xor_bidder(2, vec![(vec![1], 6.0)]),
                            BidderConflicts::Binary(vec![0]),
                        );
                    }
                }
            }
            let a = session.resolve_relaxation().expect("original resolve");
            let b = twin.resolve_relaxation().expect("clone resolve");
            assert_eq!(
                a.objective.to_bits(),
                b.objective.to_bits(),
                "batch {batch}"
            );
            assert_eq!(a.entries, b.entries, "batch {batch}");
            assert_eq!(a.info.engine, b.info.engine, "batch {batch}");
            assert_eq!(a.info.per_round_iterations, b.info.per_round_iterations);
            let (ya, yb) = (
                session.last_certificate().expect("converged"),
                twin.last_certificate().expect("converged"),
            );
            assert_eq!(bits(&ya.vj), bits(&yb.vj), "batch {batch}");
            assert_eq!(bits(&ya.bidder), bits(&yb.bidder), "batch {batch}");
        }
        assert_eq!(session.stats().warm_row_resolves, 2);
        assert_eq!(session.stats().mixed_batch_repairs, 1);
    }

    #[test]
    fn channel_additions_extend_the_market() {
        let mut session = SolverBuilder::new().session(path_instance(5, 2));
        assert_matches_scratch(&mut session);
        let before = session.last_fractional().expect("resolved above").objective;
        // every bidder also wants the new channel 2, alone, at a high value
        let valuations: Vec<Arc<dyn Valuation>> = (0..5)
            .map(|i| {
                xor_bidder(
                    3,
                    vec![
                        (vec![i % 2], 2.0 + (i % 4) as f64),
                        (vec![2], 10.0 + i as f64),
                    ],
                )
            })
            .collect();
        let j = session.add_channel(valuations, NewChannel::Shared);
        assert_eq!(j, 2);
        assert_matches_scratch(&mut session);
        let after = session.last_fractional().expect("resolved above").objective;
        assert!(after > before, "new channel must add welfare");
    }

    #[test]
    fn clean_resolves_are_answered_from_cache() {
        let mut session = SolverBuilder::new().session(path_instance(5, 2));
        let first = session.resolve_relaxation().expect("resolve failed");
        let second = session.resolve_relaxation().expect("resolve failed");
        assert_eq!(first.objective, second.objective);
        assert_eq!(session.stats().cached_resolves, 1);
        assert_eq!(session.stats().cold_resolves, 1);
    }

    #[test]
    fn clean_full_resolves_reuse_the_cached_outcome() {
        let mut session = SolverBuilder::new()
            .rounding(5, 16)
            .session(path_instance(6, 2));
        let first = session.resolve().expect("resolve failed");
        let second = session.resolve().expect("resolve failed");
        assert_eq!(first.welfare, second.welfare);
        assert_eq!(first.lp_objective, second.lp_objective);
        assert_eq!(session.stats().cached_resolves, 1);
        // a mutation invalidates the cached outcome
        session.update_valuation(0, xor_bidder(2, vec![(vec![0], 9.0)]));
        let third = session.resolve().expect("resolve failed");
        assert!(third.allocation.is_feasible(session.instance()));
        assert_eq!(session.stats().cached_resolves, 1);
    }

    #[test]
    fn batched_valuation_updates_match_sequential_ones() {
        let mut batched = SolverBuilder::new().session(path_instance(6, 2));
        let mut sequential = SolverBuilder::new().session(path_instance(6, 2));
        batched.resolve_relaxation().expect("resolve failed");
        sequential.resolve_relaxation().expect("resolve failed");
        let new_vals: Vec<(usize, Arc<dyn Valuation>)> = vec![
            (1, xor_bidder(2, vec![(vec![0], 11.0)])),
            (3, xor_bidder(2, vec![(vec![1], 0.5)])),
            (4, xor_bidder(2, vec![(vec![0, 1], 13.0)])),
        ];
        for (v, val) in &new_vals {
            sequential.update_valuation(*v, val.clone());
        }
        batched.update_valuations(new_vals);
        let a = batched
            .resolve_relaxation()
            .expect("batched resolve failed");
        let b = sequential
            .resolve_relaxation()
            .expect("sequential resolve failed");
        assert!((a.objective - b.objective).abs() <= 1e-9 * (1.0 + b.objective.abs()));
        assert_eq!(batched.stats().repriced_resolves, 1);
    }

    #[test]
    fn full_resolve_rounds_feasibly() {
        let mut session = SolverBuilder::new()
            .rounding(5, 32)
            .session(path_instance(6, 2));
        let outcome = session.resolve().expect("resolve failed");
        assert!(outcome.allocation.is_feasible(session.instance()));
        assert!(outcome.welfare > 0.0);
        session.add_bidder(
            xor_bidder(2, vec![(vec![0], 7.0)]),
            BidderConflicts::Binary(vec![0]),
        );
        let outcome = session.resolve().expect("warm resolve failed");
        assert!(outcome.allocation.is_feasible(session.instance()));
    }

    #[test]
    fn weighted_sessions_support_all_mutations() {
        let n = 5;
        let mut g = WeightedConflictGraph::new(n);
        for u in 0..n - 1 {
            g.set_weight(u, u + 1, 0.4);
            g.set_weight(u + 1, u, 0.4);
        }
        let bidders: Vec<Arc<dyn Valuation>> = (0..n)
            .map(|i| xor_bidder(2, vec![(vec![i % 2], 1.5 + i as f64)]))
            .collect();
        let inst = AuctionInstance::new(
            2,
            bidders,
            ConflictStructure::Weighted(g),
            VertexOrdering::identity(n),
            1.0,
        );
        let mut session = SolverBuilder::new().session(inst);
        assert_matches_scratch(&mut session);
        session.add_bidder(
            xor_bidder(2, vec![(vec![0, 1], 9.0)]),
            BidderConflicts::Weighted(vec![(0, 0.3, 0.3), (4, 0.5, 0.2)]),
        );
        assert_matches_scratch(&mut session);
        session.update_valuation(0, xor_bidder(2, vec![(vec![1], 6.0)]));
        assert_matches_scratch(&mut session);
        session.remove_bidder(2);
        assert_matches_scratch(&mut session);
    }

    #[test]
    fn session_matches_explicit_enumeration_after_mutations() {
        let mut session = SolverBuilder::new().session(path_instance(5, 2));
        session.resolve_relaxation().expect("resolve failed");
        session.add_bidder(
            xor_bidder(2, vec![(vec![0], 4.0), (vec![0, 1], 6.5)]),
            BidderConflicts::Binary(vec![1, 4]),
        );
        session.update_valuation(2, xor_bidder(2, vec![(vec![1], 8.0)]));
        let warm = session.resolve_relaxation().expect("resolve failed");
        let explicit = solve_relaxation_explicit(session.instance());
        assert!(
            (warm.objective - explicit.objective).abs() <= 1e-5 * (1.0 + explicit.objective),
            "warm {} vs explicit {}",
            warm.objective,
            explicit.objective
        );
    }

    /// The captured dual certificate satisfies strong duality on every
    /// resolve path (cold, warm rows, repriced, deactivated) and is
    /// withheld while the session is stale. Each departure takes the bidder
    /// served most, so a column basic at x > 0 is retired; retired and
    /// relief columns may enter and stay basic, so the warm resolve must
    /// still match a scratch solve and extract nothing of the departed
    /// bidder — alone, and in one batch with an arrival, where the
    /// mixed-batch primal resume and the dual row repair both run over
    /// those columns.
    #[test]
    fn dual_certificate_satisfies_strong_duality_across_paths() {
        let check = |session: &mut AuctionSession| {
            assert_matches_scratch(session);
            let fractional = session.last_fractional().expect("resolved");
            let cert = session
                .last_certificate()
                .expect("a converged resolve must carry a certificate");
            let n = session.instance().num_bidders();
            let k = session.instance().num_channels;
            assert_eq!(cert.vj.len(), n * k);
            assert_eq!(cert.bidder.len(), n);
            for &y in cert.vj.iter().chain(&cert.bidder) {
                assert!(y >= -1e-9, "dual prices must be nonnegative, got {y}");
            }
            let dual_objective = session.instance().rho * cert.vj.iter().sum::<f64>()
                + cert.bidder.iter().sum::<f64>();
            assert!(
                (dual_objective - fractional.objective).abs() <= 1e-6,
                "strong duality violated: dual {} vs primal {}",
                dual_objective,
                fractional.objective
            );
        };
        let mut session = SolverBuilder::new().session(path_instance(16, 2));
        check(&mut session); // cold
        session.add_bidder(
            xor_bidder(2, vec![(vec![0], 9.0), (vec![0, 1], 11.0)]),
            BidderConflicts::Binary(vec![4, 5]),
        );
        assert!(
            session.last_certificate().is_none(),
            "a stale session must not hand out a certificate"
        );
        check(&mut session); // dual row repair
        session.update_valuation(0, xor_bidder(2, vec![(vec![1], 6.0)]));
        check(&mut session); // repriced resume
        for with_arrival in [false, true] {
            let served = session.last_fractional().expect("a clean session");
            let departing = served
                .entries
                .iter()
                .max_by(|a, b| a.x.total_cmp(&b.x))
                .expect("someone is served")
                .bidder;
            let master = session.master.as_ref().expect("a warm master");
            let retired: Vec<usize> = (0..master.num_columns())
                .filter(|&idx| {
                    let tag = master.tags()[idx];
                    is_native_tag(tag) && decode_column_tag(tag).0 == departing
                })
                .collect();
            let before = session.stats();
            session.remove_bidder(departing);
            if with_arrival {
                session.add_bidder(
                    xor_bidder(2, vec![(vec![0], 8.0), (vec![0, 1], 10.0)]),
                    BidderConflicts::Binary(vec![0, 1]),
                );
            }
            check(&mut session); // deactivated rows, then a mixed batch
            let after = session.stats();
            assert_eq!(after.cold_resolves, before.cold_resolves, "no rebuild");
            if with_arrival {
                assert_eq!(after.mixed_batch_repairs, before.mixed_batch_repairs + 1);
            } else {
                assert_eq!(after.deactivated_resolves, before.deactivated_resolves + 1);
            }
            // the departed bidder's columns are tombstoned, so extraction
            // skips them whatever their value
            let master = session.master.as_ref().expect("a warm master");
            assert!(!retired.is_empty());
            assert!(retired
                .iter()
                .all(|&idx| !is_native_tag(master.tags()[idx])));
        }
    }

    /// The event log records mutations and resolves in order, with
    /// replayable valuation snapshots.
    #[test]
    fn event_log_records_the_session_history() {
        let mut session = SolverBuilder::new().session(path_instance(4, 2));
        session.record_events(true);
        session.resolve().expect("resolve failed");
        session.add_bidder(
            xor_bidder(2, vec![(vec![0], 9.0)]),
            BidderConflicts::Binary(vec![3]),
        );
        session.update_valuation(1, xor_bidder(2, vec![(vec![1], 7.0)]));
        let outcome = session.resolve().expect("resolve failed");
        session.remove_bidder(4);
        session.resolve().expect("resolve failed");

        let log = session.event_log().expect("recording is on");
        assert_eq!(log.len(), 6);
        assert!(matches!(log[0], SessionLogEntry::Resolved { .. }));
        match &log[1] {
            SessionLogEntry::Arrival {
                bidder,
                valuation,
                conflicts: BidderConflicts::Binary(ns),
            } => {
                assert_eq!(*bidder, 4);
                assert_eq!(ns, &[3]);
                let snap = valuation.as_ref().expect("xor valuations snapshot");
                let rebuilt = snap.build();
                assert_eq!(rebuilt.value(ChannelSet::from_channels([0])), 9.0);
            }
            other => panic!("expected an arrival, got {other:?}"),
        }
        match &log[2] {
            SessionLogEntry::Rebid { bidder, valuation } => {
                assert_eq!(*bidder, 1);
                assert!(valuation.is_some());
            }
            other => panic!("expected a re-bid, got {other:?}"),
        }
        match &log[3] {
            SessionLogEntry::Resolved { welfare, .. } => {
                assert!((welfare - outcome.welfare).abs() <= 1e-12);
            }
            other => panic!("expected a resolve, got {other:?}"),
        }
        assert!(matches!(log[4], SessionLogEntry::Departure { bidder: 4 }));
        assert!(matches!(log[5], SessionLogEntry::Resolved { .. }));

        let taken = session.take_event_log();
        assert_eq!(taken.len(), 6);
        assert_eq!(session.event_log().map(<[_]>::len), Some(0));
        session.record_events(false);
        assert!(session.event_log().is_none());
    }
}
