//! A sharded multi-market spectrum exchange.
//!
//! The paper's setting — secondary spectrum markets — is operationally a
//! *fleet* of regional auctions: thousands of independent markets with
//! continuous bid traffic, each one an instance of the paper's single
//! auction. [`SpectrumExchange`] is that fleet layer over
//! [`AuctionSession`]: a shard map of independent sessions keyed by
//! [`MarketId`], fed through an event-queue front-end and drained in
//! parallel.
//!
//! # Architecture
//!
//! ```text
//!  submit(market, event) ──▶ per-market PendingQueue (validated FIFO)
//!                                      │
//!  resolve_dirty() ──▶ dirty shards ──▶ queued events ──▶ AuctionSession
//!                      (sequential or pooled par_iter)       warm resolve
//!                                      │
//!                            DrainReport + ExchangeStats rollup
//! ```
//!
//! * **Shard map** — each market owns an [`AuctionSession`] (instance +
//!   cached LP state). Markets are mutually independent, so shard drains
//!   parallelize without coordination beyond one lock per shard.
//! * **Event queue** — submitted [`MarketEvent`]s are not applied eagerly;
//!   they queue per market in submission order and the drain applies them
//!   verbatim, so an exchange market ends at exactly the instance an
//!   event-by-event session reaches. The queue validates each index against
//!   the roster the pending stream implies and rejects a departure that
//!   would empty the market.
//! * **Pooled drain** — [`DrainMode::Pooled`] fans dirty shards across the
//!   persistent work-stealing pool behind the `rayon` shim (`min_len 1`:
//!   every shard is one LP resolve, expensive enough to schedule
//!   individually). [`DrainMode::Sequential`] drains inline — the honest
//!   baseline the `e17_exchange` bench compares against.
//! * **Stats rollup** — [`ExchangeStats`] aggregates the per-session warm
//!   path counters ([`SessionStats`]), the LP engine counters of every
//!   drained resolve (one [`SolveStats`] merged with
//!   [`SolveStats::merge`]), and the submitted/applied event counts, so
//!   fleet-level behavior (how many resolves were re-priced vs rebuilt) is
//!   visible without digging into individual sessions.
//!
//! # Quickstart
//!
//! ```no_run
//! use ssa_core::session::{MarketEvent, MarketId};
//! use ssa_exchange::SpectrumExchange;
//! # fn demo(instance: ssa_core::AuctionInstance,
//! #         newcomer: std::sync::Arc<dyn ssa_core::Valuation>) {
//! let mut exchange = SpectrumExchange::new();
//! exchange.open_market(MarketId(0), instance).unwrap();
//! exchange
//!     .submit(
//!         MarketId(0),
//!         MarketEvent::Arrival { valuation: newcomer, neighbors: vec![0] },
//!     )
//!     .unwrap();
//! let report = exchange.resolve_dirty().unwrap();
//! for resolve in &report.resolves {
//!     println!("{}: welfare {}", resolve.market, resolve.outcome.welfare);
//! }
//! # }
//! ```

#![warn(missing_docs)]

mod queue;
mod sealed;

use queue::PendingQueue;
use rayon::prelude::*;
use sealed::SealedRound;
use serde::{Deserialize, Serialize};
use ssa_core::session::{AuctionSession, MarketEvent, MarketId, SessionStats};
use ssa_core::solver::{AuctionOutcome, SolveError, SolverBuilder, SolverOptions};
use ssa_core::AuctionInstance;
use ssa_lp::SolveStats;
use ssa_mechanism::sealed_bid::{Phase, SealedBidAuction, SealedBidError};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use queue::InvalidEvent;
pub use sealed::{SealedAck, SealedRoundConfig, SealedRoundReport, SealedSubmission};

/// How [`SpectrumExchange::resolve_dirty`] schedules dirty shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DrainMode {
    /// Drain shards one after another on the calling thread.
    Sequential,
    /// Fan dirty shards across the persistent work-stealing pool (each
    /// shard is one chunk; the submitting thread participates).
    Pooled,
}

/// Errors of the exchange layer.
#[derive(Debug)]
pub enum ExchangeError {
    /// [`SpectrumExchange::open_market`] with an id already in use.
    DuplicateMarket(MarketId),
    /// An operation referenced a market id the exchange does not hold.
    UnknownMarket(MarketId),
    /// A submitted event referenced a bidder index outside the market's
    /// (pending-stream-implied) roster, or was a departure of the market's
    /// last bidder (`present == 1`): a market keeps at least one bidder.
    InvalidEvent {
        /// The market the event targeted.
        market: MarketId,
        /// The rejected index and the roster size it was checked against.
        reason: InvalidEvent,
    },
    /// A shard resolve failed; the drain stopped at the first failure
    /// (other dirty shards may already have resolved — their queues are
    /// drained, their sessions consistent).
    Solve {
        /// The market whose resolve failed.
        market: MarketId,
        /// The underlying session error.
        source: SolveError,
    },
    /// The market is running a sealed round: ordinary event traffic (and
    /// closing) is rejected until the round resolves.
    MarketSealed(MarketId),
    /// [`SpectrumExchange::submit_sealed`] against a market with no live
    /// sealed round.
    NoSealedRound(MarketId),
    /// A sealed round cannot open over a market with pending events —
    /// drain first, so the round's baseline is the settled market.
    PendingEvents(MarketId),
    /// The sealed-bid protocol rejected a call (or the round's resolve
    /// failed).
    Sealed {
        /// The market whose round errored.
        market: MarketId,
        /// The underlying protocol error.
        source: SealedBidError,
    },
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::DuplicateMarket(id) => write!(f, "{id} is already open"),
            ExchangeError::UnknownMarket(id) => write!(f, "{id} is not open on this exchange"),
            ExchangeError::InvalidEvent { market, reason } => write!(
                f,
                "{market}: event references bidder {} but only {} are present",
                reason.bidder, reason.present
            ),
            ExchangeError::Solve { market, source } => {
                write!(f, "{market}: resolve failed: {source}")
            }
            ExchangeError::MarketSealed(id) => {
                write!(f, "{id} is running a sealed round")
            }
            ExchangeError::NoSealedRound(id) => {
                write!(f, "{id} has no live sealed round")
            }
            ExchangeError::PendingEvents(id) => {
                write!(f, "{id} has pending events; drain before sealing")
            }
            ExchangeError::Sealed { market, source } => {
                write!(f, "{market}: sealed round: {source}")
            }
        }
    }
}

impl std::error::Error for ExchangeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExchangeError::Solve { source, .. } => Some(source),
            ExchangeError::Sealed { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Fleet-level rollup: event counts, resolve/warm-path attribution summed
/// over every session, and LP engine activity. Returned by
/// [`SpectrumExchange::stats`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ExchangeStats {
    /// Markets currently open.
    pub markets: usize,
    /// [`SpectrumExchange::resolve_dirty`] calls that found dirty shards.
    pub drains: usize,
    /// Shard resolves across all drains (one per drained shard).
    pub shard_resolves: usize,
    /// Events accepted by [`SpectrumExchange::submit`].
    pub events_submitted: usize,
    /// Events applied to sessions by drains.
    pub events_applied: usize,
    /// Always 0; removed with the next benchmark PR.
    pub extra_waves: usize,
    /// Markets currently detached into live sealed rounds.
    pub sealed_markets: usize,
    /// Sealed rounds opened over the exchange's lifetime.
    pub sealed_rounds_opened: usize,
    /// Sealed rounds that reached resolution.
    pub sealed_rounds_resolved: usize,
    /// Collateral forfeited across every resolved sealed round.
    pub collateral_forfeited: f64,
    /// Warm-path attribution summed over every *open* session (sessions of
    /// closed markets leave the rollup).
    pub sessions: SessionStats,
    /// LP engine counters of every shard resolve, merged with
    /// [`SolveStats::merge`] in drain-report order. The per-market
    /// column-generation counters stay on each
    /// [`MarketResolve::outcome`]'s `lp_info`.
    pub lp: SolveStats,
}

/// One market's result within a [`DrainReport`].
#[derive(Clone, Debug)]
pub struct MarketResolve {
    /// The market that resolved.
    pub market: MarketId,
    /// The outcome of the drain's resolve.
    pub outcome: AuctionOutcome,
    /// Wall-clock latency of the drain's resolve (one entry).
    pub latencies: Vec<Duration>,
}

/// What a [`SpectrumExchange::resolve_dirty`] call did.
#[derive(Clone, Debug, Default)]
pub struct DrainReport {
    /// One entry per drained shard, in dirty order (the order markets first
    /// received a pending event since the last drain).
    pub resolves: Vec<MarketResolve>,
    /// Sealed rounds whose reveal deadline passed on this drain, resolved
    /// and re-attached to the shard map (in market-id order).
    pub sealed: Vec<SealedRoundReport>,
}

impl DrainReport {
    /// All resolve latencies of the drain, sorted ascending — feed for
    /// percentile reporting.
    pub fn sorted_latencies(&self) -> Vec<Duration> {
        let mut all: Vec<Duration> = self
            .resolves
            .iter()
            .flat_map(|r| r.latencies.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// Configures a [`SpectrumExchange`]: the solver for the per-market
/// sessions and drain scheduling.
#[derive(Clone, Debug)]
pub struct ExchangeBuilder {
    options: SolverOptions,
    drain: DrainMode,
}

impl Default for ExchangeBuilder {
    fn default() -> Self {
        ExchangeBuilder {
            options: SolverBuilder::new().options(),
            drain: DrainMode::Pooled,
        }
    }
}

impl ExchangeBuilder {
    /// Starts from the defaults: the default solver and pooled drains.
    pub fn new() -> Self {
        ExchangeBuilder::default()
    }

    /// Configures the per-market sessions through a [`SolverBuilder`]
    /// (seed depth, rounding, …).
    pub fn solver(mut self, builder: SolverBuilder) -> Self {
        self.options = builder.options();
        self
    }

    /// Selects how dirty shards are scheduled at drain time.
    pub fn drain_mode(mut self, mode: DrainMode) -> Self {
        self.drain = mode;
        self
    }

    /// Builds the exchange (no markets yet).
    pub fn build(self) -> SpectrumExchange {
        SpectrumExchange {
            options: self.options,
            drain: self.drain,
            shards: Vec::new(),
            index: HashMap::new(),
            dirty: Vec::new(),
            sealed: HashMap::new(),
            stats: ExchangeStats::default(),
        }
    }
}

/// One market's shard: its session plus the pending queue.
struct Shard {
    session: AuctionSession,
    pending: PendingQueue,
}

/// What one shard drain produced (internal; folded into the report and the
/// stats rollup on the submitting thread).
struct ShardDrain {
    market: MarketId,
    outcome: AuctionOutcome,
    latency: Duration,
    /// Events the drain applied to the session.
    applied: usize,
}

struct ShardSlot {
    id: MarketId,
    cell: Mutex<Shard>,
}

/// The exchange: a shard map of [`AuctionSession`]s behind per-market
/// event queues. See the [module docs](self) for the architecture.
pub struct SpectrumExchange {
    options: SolverOptions,
    drain: DrainMode,
    shards: Vec<ShardSlot>,
    index: HashMap<MarketId, usize>,
    /// Slots with a non-empty queue, in first-dirtied order.
    dirty: Vec<usize>,
    /// Markets detached into live sealed rounds.
    sealed: HashMap<MarketId, SealedRound>,
    stats: ExchangeStats,
}

impl Default for SpectrumExchange {
    fn default() -> Self {
        SpectrumExchange::new()
    }
}

impl SpectrumExchange {
    /// An exchange with the default configuration (default solver, pooled
    /// drains).
    pub fn new() -> Self {
        ExchangeBuilder::new().build()
    }

    /// Starts configuring an exchange.
    pub fn builder() -> ExchangeBuilder {
        ExchangeBuilder::new()
    }

    /// Opens a market: wraps `instance` in a fresh [`AuctionSession`] under
    /// this exchange's solver options.
    pub fn open_market(
        &mut self,
        id: MarketId,
        instance: AuctionInstance,
    ) -> Result<(), ExchangeError> {
        if self.index.contains_key(&id) || self.sealed.contains_key(&id) {
            return Err(ExchangeError::DuplicateMarket(id));
        }
        let present = instance.num_bidders();
        let session = AuctionSession::new(instance, self.options.clone());
        self.index.insert(id, self.shards.len());
        self.shards.push(ShardSlot {
            id,
            cell: Mutex::new(Shard {
                session,
                pending: PendingQueue::new(present),
            }),
        });
        Ok(())
    }

    /// Closes a market, returning its session (with any still-pending
    /// events discarded). The session's counters leave the
    /// [`stats`](Self::stats) rollup with it.
    pub fn close_market(&mut self, id: MarketId) -> Result<AuctionSession, ExchangeError> {
        if self.sealed.contains_key(&id) {
            return Err(ExchangeError::MarketSealed(id));
        }
        let slot = self
            .index
            .remove(&id)
            .ok_or(ExchangeError::UnknownMarket(id))?;
        self.dirty.retain(|&i| i != slot);
        for i in self.dirty.iter_mut() {
            if *i > slot {
                *i -= 1;
            }
        }
        let removed = self.shards.remove(slot);
        for idx in self.index.values_mut() {
            if *idx > slot {
                *idx -= 1;
            }
        }
        Ok(removed.cell.into_inner().unwrap().session)
    }

    /// Markets currently open, in opening order.
    pub fn market_ids(&self) -> Vec<MarketId> {
        self.shards.iter().map(|s| s.id).collect()
    }

    /// Number of open markets.
    pub fn num_markets(&self) -> usize {
        self.shards.len()
    }

    /// Runs `f` over the market's session (read access for inspection —
    /// e.g. `session.instance()` or `session.stats()` in tests).
    pub fn with_session<R>(
        &self,
        id: MarketId,
        f: impl FnOnce(&AuctionSession) -> R,
    ) -> Result<R, ExchangeError> {
        let slot = *self
            .index
            .get(&id)
            .ok_or(ExchangeError::UnknownMarket(id))?;
        let shard = self.shards[slot].cell.lock().unwrap();
        Ok(f(&shard.session))
    }

    /// Queues one event against a market. Nothing is applied until the
    /// next [`resolve_dirty`](Self::resolve_dirty), which applies the
    /// market's pending events in submission order. Indices are checked
    /// against the roster the pending events leave behind; see
    /// [`ExchangeError::InvalidEvent`].
    pub fn submit(&mut self, id: MarketId, event: MarketEvent) -> Result<(), ExchangeError> {
        if self.sealed.contains_key(&id) {
            return Err(ExchangeError::MarketSealed(id));
        }
        let slot = *self
            .index
            .get(&id)
            .ok_or(ExchangeError::UnknownMarket(id))?;
        let shard = self.shards[slot].cell.get_mut().unwrap();
        let was_empty = shard.pending.is_empty();
        shard
            .pending
            .push(event)
            .map_err(|reason| ExchangeError::InvalidEvent { market: id, reason })?;
        if was_empty {
            self.dirty.push(slot);
        }
        self.stats.events_submitted += 1;
        Ok(())
    }

    /// Queues a batch of events (stops at the first rejected event).
    pub fn submit_batch(
        &mut self,
        batch: impl IntoIterator<Item = (MarketId, MarketEvent)>,
    ) -> Result<(), ExchangeError> {
        for (id, event) in batch {
            self.submit(id, event)?;
        }
        Ok(())
    }

    /// Shards with pending events.
    pub fn num_dirty(&self) -> usize {
        self.dirty.len()
    }

    /// Drains every dirty shard: applies each market's pending events to
    /// its session in submission order and resolves once (the full
    /// pipeline including rounding). Shards are scheduled per the
    /// configured [`DrainMode`]. Returns per-market outcomes and resolve
    /// latencies; stops at the first failed shard.
    pub fn resolve_dirty(&mut self) -> Result<DrainReport, ExchangeError> {
        let mut report = DrainReport::default();
        self.tick_sealed_rounds(&mut report)?;
        let dirty = std::mem::take(&mut self.dirty);
        if dirty.is_empty() {
            return Ok(report);
        }
        let shards = &self.shards;
        let run = |&slot: &usize| -> Result<ShardDrain, (MarketId, SolveError)> {
            let holder = &shards[slot];
            let mut shard = holder.cell.lock().unwrap();
            drain_shard(&mut shard, holder.id)
        };
        let results: Vec<Result<ShardDrain, (MarketId, SolveError)>> = match self.drain {
            DrainMode::Sequential => dirty.iter().map(run).collect(),
            DrainMode::Pooled => dirty.par_iter().with_min_len(1).map(run).collect(),
        };

        self.stats.drains += 1;
        for result in results {
            let drain =
                result.map_err(|(market, source)| ExchangeError::Solve { market, source })?;
            self.stats.shard_resolves += 1;
            self.stats.events_applied += drain.applied;
            self.stats.lp.merge(&drain.outcome.lp_info.engine);
            report.resolves.push(MarketResolve {
                market: drain.market,
                outcome: drain.outcome,
                latencies: vec![drain.latency],
            });
        }
        Ok(report)
    }

    /// Opens a sealed-bid commit–reveal round over a market: the session
    /// detaches from the shard map (ordinary [`submit`](Self::submit)
    /// traffic is rejected with [`ExchangeError::MarketSealed`] until the
    /// round resolves) and phase deadlines start counting
    /// [`resolve_dirty`](Self::resolve_dirty) calls — the commit phase
    /// closes after `config.commit_drains` drains, and the round resolves
    /// `config.reveal_drains` drains later, landing its
    /// [`SealedRoundReport`] in that drain's report.
    ///
    /// The market must have no pending events (drain first), so the
    /// round's audit baseline is the settled market.
    pub fn open_sealed_round(
        &mut self,
        id: MarketId,
        config: SealedRoundConfig,
    ) -> Result<(), ExchangeError> {
        if self.sealed.contains_key(&id) {
            return Err(ExchangeError::MarketSealed(id));
        }
        let slot = *self
            .index
            .get(&id)
            .ok_or(ExchangeError::UnknownMarket(id))?;
        if !self.shards[slot].cell.get_mut().unwrap().pending.is_empty() {
            return Err(ExchangeError::PendingEvents(id));
        }
        let session = self.close_market(id)?;
        match SealedBidAuction::open(session, config.policy) {
            Ok(auction) => {
                self.sealed.insert(id, SealedRound::new(auction, &config));
                self.stats.sealed_rounds_opened += 1;
                Ok(())
            }
            Err(source) => Err(ExchangeError::Sealed { market: id, source }),
        }
    }

    /// Submits into a market's live sealed round: a commitment during the
    /// commit phase, an opening during the reveal phase.
    pub fn submit_sealed(
        &mut self,
        id: MarketId,
        submission: SealedSubmission,
    ) -> Result<SealedAck, ExchangeError> {
        let round = self
            .sealed
            .get_mut(&id)
            .ok_or(ExchangeError::NoSealedRound(id))?;
        let sealed = |source| ExchangeError::Sealed { market: id, source };
        match submission {
            SealedSubmission::Commitment {
                kind,
                commitment,
                declared_cap,
            } => {
                let participant = round
                    .auction
                    .submit_commitment(kind, commitment, declared_cap)
                    .map_err(sealed)?;
                let collateral = round.auction.ledger().held(participant);
                Ok(SealedAck::Committed {
                    participant,
                    collateral,
                })
            }
            SealedSubmission::Opening(opening) => {
                let status = round.auction.submit_opening(opening).map_err(sealed)?;
                Ok(SealedAck::Reveal(status))
            }
        }
    }

    /// The phase of a market's live sealed round (`None` when the market
    /// has no live round).
    pub fn sealed_phase(&self, id: MarketId) -> Option<Phase> {
        self.sealed.get(&id).map(|round| round.phase())
    }

    /// Markets currently detached into live sealed rounds, in id order.
    pub fn sealed_market_ids(&self) -> Vec<MarketId> {
        let mut ids: Vec<MarketId> = self.sealed.keys().copied().collect();
        ids.sort_unstable_by_key(|id| id.0);
        ids
    }

    /// Runs `f` over a market's live sealed auction — the escape hatch for
    /// protocol surfaces without an exchange method (notably the
    /// adversary surface, so tests can stage attacks at this layer).
    pub fn with_sealed_auction<R>(
        &mut self,
        id: MarketId,
        f: impl FnOnce(&mut SealedBidAuction) -> R,
    ) -> Result<R, ExchangeError> {
        let round = self
            .sealed
            .get_mut(&id)
            .ok_or(ExchangeError::NoSealedRound(id))?;
        Ok(f(&mut round.auction))
    }

    /// Advances every live sealed round by one drain cycle; rounds whose
    /// reveal deadline passed resolve and re-attach to the shard map.
    fn tick_sealed_rounds(&mut self, report: &mut DrainReport) -> Result<(), ExchangeError> {
        if self.sealed.is_empty() {
            return Ok(());
        }
        for id in self.sealed_market_ids() {
            let round = self.sealed.get_mut(&id).unwrap();
            let due = round
                .tick()
                .map_err(|source| ExchangeError::Sealed { market: id, source })?;
            if !due {
                continue;
            }
            let mut round = self.sealed.remove(&id).unwrap();
            let outcome = round
                .auction
                .resolve()
                .map_err(|source| ExchangeError::Sealed { market: id, source })?;
            self.stats.sealed_rounds_resolved += 1;
            self.stats.collateral_forfeited +=
                outcome.forfeitures.iter().map(|f| f.amount).sum::<f64>();
            self.reattach(id, round.auction.into_session());
            report.sealed.push(SealedRoundReport {
                market: id,
                outcome,
            });
        }
        Ok(())
    }

    /// Re-attaches a resolved sealed market's session as an ordinary shard
    /// (warm LP state intact, event recording off again).
    fn reattach(&mut self, id: MarketId, mut session: AuctionSession) {
        session.record_events(false);
        let present = session.instance().num_bidders();
        self.index.insert(id, self.shards.len());
        self.shards.push(ShardSlot {
            id,
            cell: Mutex::new(Shard {
                session,
                pending: PendingQueue::new(present),
            }),
        });
    }

    /// The fleet-level rollup: exchange counters plus the warm-path
    /// attribution summed over every open session.
    pub fn stats(&self) -> ExchangeStats {
        let mut stats = self.stats.clone();
        stats.markets = self.shards.len();
        stats.sealed_markets = self.sealed.len();
        for slot in &self.shards {
            let shard = slot.cell.lock().unwrap();
            stats.sessions.accumulate(&shard.session.stats());
        }
        stats
    }
}

/// Drains one shard: applies its pending events, then runs one resolve.
fn drain_shard(shard: &mut Shard, market: MarketId) -> Result<ShardDrain, (MarketId, SolveError)> {
    let events = shard.pending.take();
    for event in &events {
        ssa_core::session::apply_event(&mut shard.session, event);
    }
    let start = Instant::now();
    let outcome = shard.session.resolve().map_err(|e| (market, e))?;
    Ok(ShardDrain {
        market,
        outcome,
        latency: start.elapsed(),
        applied: events.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_core::ChannelSet;
    use ssa_core::Valuation;
    use ssa_workloads::{protocol_scenario, ScenarioConfig};
    use std::sync::Arc;

    fn instance(n: usize, seed: u64) -> AuctionInstance {
        protocol_scenario(&ScenarioConfig::new(n, 2, seed), 1.0)
            .instance
            .clone()
    }

    fn val(v: f64) -> Arc<dyn Valuation> {
        Arc::new(ssa_core::valuation::XorValuation::new(
            2,
            vec![(ChannelSet::from_channels(vec![0]), v)],
        ))
    }

    #[test]
    fn open_submit_drain_roundtrip() {
        let mut ex = SpectrumExchange::new();
        ex.open_market(MarketId(1), instance(6, 3)).unwrap();
        ex.open_market(MarketId(2), instance(7, 5)).unwrap();
        assert_eq!(ex.num_markets(), 2);
        assert!(matches!(
            ex.open_market(MarketId(1), instance(4, 9)),
            Err(ExchangeError::DuplicateMarket(MarketId(1)))
        ));

        ex.submit(
            MarketId(1),
            MarketEvent::Rebid {
                bidder: 0,
                valuation: val(4.0),
            },
        )
        .unwrap();
        ex.submit(
            MarketId(1),
            MarketEvent::Rebid {
                bidder: 0,
                valuation: val(6.0),
            },
        )
        .unwrap();
        ex.submit(
            MarketId(2),
            MarketEvent::Arrival {
                valuation: val(2.0),
                neighbors: vec![0, 3],
            },
        )
        .unwrap();
        assert_eq!(ex.num_dirty(), 2);

        let report = ex.resolve_dirty().unwrap();
        assert_eq!(report.resolves.len(), 2);
        assert_eq!(report.resolves[0].market, MarketId(1));
        assert_eq!(report.resolves[1].market, MarketId(2));
        for resolve in &report.resolves {
            assert!(resolve.outcome.lp_converged);
            assert_eq!(resolve.latencies.len(), 1);
            let feasible = ex
                .with_session(resolve.market, |s| {
                    resolve.outcome.allocation.is_feasible(s.instance())
                })
                .unwrap();
            assert!(feasible);
        }
        assert_eq!(ex.num_dirty(), 0);
        assert!(ex.resolve_dirty().unwrap().resolves.is_empty());

        let stats = ex.stats();
        assert_eq!(stats.markets, 2);
        assert_eq!(stats.drains, 1);
        assert_eq!(stats.events_submitted, 3);
        assert_eq!(stats.events_applied, 3, "every queued event is applied");
        assert_eq!(stats.shard_resolves, 2);
        assert_eq!(stats.sessions.resolves, 2);
        assert!(stats.lp.simplex_iterations > 0);
    }

    #[test]
    fn fleet_lp_counters_are_the_merge_of_every_drained_resolve() {
        for mode in [DrainMode::Sequential, DrainMode::Pooled] {
            let mut ex = SpectrumExchange::builder().drain_mode(mode).build();
            for m in 0..3u64 {
                ex.open_market(MarketId(m), instance(6 + m as usize, 20 + m))
                    .unwrap();
            }
            let mut expected = SolveStats::default();
            for drain in 0..2 {
                for m in 0..3u64 {
                    ex.submit(
                        MarketId(m),
                        MarketEvent::Arrival {
                            valuation: val(3.0 + m as f64),
                            neighbors: vec![0, 1],
                        },
                    )
                    .unwrap();
                    ex.submit(
                        MarketId(m),
                        MarketEvent::Rebid {
                            bidder: drain,
                            valuation: val(5.0 + drain as f64),
                        },
                    )
                    .unwrap();
                }
                let report = ex.resolve_dirty().unwrap();
                assert_eq!(report.resolves.len(), 3);
                for resolve in &report.resolves {
                    expected.merge(&resolve.outcome.lp_info.engine);
                }
            }
            let lp = ex.stats().lp;
            assert!(lp.simplex_iterations > 0, "{mode:?}");
            assert!(lp.tracked_solves() > 0, "{mode:?}");
            assert_eq!(lp, expected, "{mode:?}");
        }
    }

    #[test]
    fn invalid_events_and_unknown_markets_are_rejected() {
        let mut ex = SpectrumExchange::new();
        ex.open_market(MarketId(0), instance(4, 1)).unwrap();
        assert!(matches!(
            ex.submit(MarketId(9), MarketEvent::Departure { bidder: 0 },),
            Err(ExchangeError::UnknownMarket(MarketId(9)))
        ));
        assert!(matches!(
            ex.submit(MarketId(0), MarketEvent::Departure { bidder: 4 },),
            Err(ExchangeError::InvalidEvent { .. })
        ));
        // a valid departure shrinks the implied roster, invalidating index 3
        ex.submit(MarketId(0), MarketEvent::Departure { bidder: 0 })
            .unwrap();
        assert!(ex
            .submit(MarketId(0), MarketEvent::Departure { bidder: 3 })
            .is_err());
    }

    #[test]
    fn sequential_and_pooled_drains_agree() {
        let build = |mode: DrainMode| {
            let mut ex = SpectrumExchange::builder()
                .solver(SolverBuilder::new().rounding(7, 4))
                .drain_mode(mode)
                .build();
            for m in 0..4u64 {
                ex.open_market(MarketId(m), instance(6 + m as usize, 10 + m))
                    .unwrap();
                ex.submit(
                    MarketId(m),
                    MarketEvent::Arrival {
                        valuation: val(3.0 + m as f64),
                        neighbors: vec![0],
                    },
                )
                .unwrap();
            }
            ex
        };
        let seq = build(DrainMode::Sequential).resolve_dirty().unwrap();
        let pooled = build(DrainMode::Pooled).resolve_dirty().unwrap();
        assert_eq!(seq.resolves.len(), pooled.resolves.len());
        for (a, b) in seq.resolves.iter().zip(&pooled.resolves) {
            assert_eq!(a.market, b.market);
            assert!((a.outcome.lp_objective - b.outcome.lp_objective).abs() < 1e-9);
            assert!((a.outcome.welfare - b.outcome.welfare).abs() < 1e-9);
        }
    }

    #[test]
    fn same_batch_arrival_and_departure_are_both_applied() {
        let mut ex = SpectrumExchange::new();
        ex.open_market(MarketId(0), instance(5, 41)).unwrap();
        ex.submit(
            MarketId(0),
            MarketEvent::Arrival {
                valuation: val(9.0),
                neighbors: vec![0, 2],
            },
        )
        .unwrap();
        // the arrival sits at index 5; departing it undoes the arrival
        ex.submit(MarketId(0), MarketEvent::Departure { bidder: 5 })
            .unwrap();
        assert_eq!(ex.num_dirty(), 1);
        let report = ex.resolve_dirty().unwrap();
        assert_eq!(report.resolves.len(), 1, "dirty market must be reported");
        assert!(report.resolves[0].outcome.lp_converged);
        assert_eq!(ex.stats().events_applied, 2);
        assert_eq!(
            ex.with_session(MarketId(0), |s| s.instance().num_bidders())
                .unwrap(),
            5
        );
    }

    /// The queue refuses a departure that would empty the market, so the
    /// drain never asks the session to remove its last bidder.
    #[test]
    fn departure_of_the_last_bidder_is_rejected() {
        let mut ex = SpectrumExchange::new();
        ex.open_market(MarketId(0), instance(2, 7)).unwrap();
        ex.submit(MarketId(0), MarketEvent::Departure { bidder: 1 })
            .unwrap();
        assert!(matches!(
            ex.submit(MarketId(0), MarketEvent::Departure { bidder: 0 }),
            Err(ExchangeError::InvalidEvent {
                market: MarketId(0),
                reason: InvalidEvent {
                    bidder: 0,
                    present: 1
                },
            })
        ));
        let report = ex.resolve_dirty().unwrap();
        assert_eq!(report.resolves.len(), 1);
        assert!(report.resolves[0].outcome.lp_converged);
        assert_eq!(
            ex.with_session(MarketId(0), |s| s.instance().num_bidders())
                .unwrap(),
            1
        );
    }

    #[test]
    fn close_market_remaps_shards() {
        let mut ex = SpectrumExchange::new();
        for m in 0..3u64 {
            ex.open_market(MarketId(m), instance(5, 20 + m)).unwrap();
        }
        let session = ex.close_market(MarketId(1)).unwrap();
        assert_eq!(session.instance().num_bidders(), 5);
        assert!(matches!(
            ex.close_market(MarketId(1)),
            Err(ExchangeError::UnknownMarket(MarketId(1)))
        ));
        assert_eq!(ex.market_ids(), vec![MarketId(0), MarketId(2)]);
        ex.submit(
            MarketId(2),
            MarketEvent::Rebid {
                bidder: 1,
                valuation: val(5.0),
            },
        )
        .unwrap();
        let report = ex.resolve_dirty().unwrap();
        assert_eq!(report.resolves.len(), 1);
        assert_eq!(report.resolves[0].market, MarketId(2));
    }

    #[test]
    fn sealed_round_runs_commit_reveal_resolve_on_the_drain_clock() {
        use ssa_core::session::BidderConflicts;
        use ssa_core::snapshot::ValuationSnapshot;
        use ssa_mechanism::sealed_bid::{
            audit, commit_to, nonce_from_seed, Opening, ParticipantKind, RevealStatus,
        };

        let mut ex = SpectrumExchange::builder()
            .solver(SolverBuilder::new().rounding(7, 8))
            .drain_mode(DrainMode::Sequential)
            .build();
        ex.open_market(MarketId(0), instance(6, 3)).unwrap();
        ex.open_sealed_round(MarketId(0), SealedRoundConfig::default())
            .unwrap();
        assert_eq!(ex.sealed_phase(MarketId(0)), Some(Phase::Commit));
        assert!(matches!(
            ex.submit(MarketId(0), MarketEvent::Departure { bidder: 0 }),
            Err(ExchangeError::MarketSealed(MarketId(0)))
        ));
        assert!(matches!(
            ex.open_sealed_round(MarketId(0), SealedRoundConfig::default()),
            Err(ExchangeError::MarketSealed(MarketId(0)))
        ));

        // incumbent 0 re-bids sealed; one entrant joins
        let incumbent_val = ValuationSnapshot::Additive {
            channel_values: vec![6.0, 2.0],
        };
        let entrant_val = ValuationSnapshot::Additive {
            channel_values: vec![3.0, 5.0],
        };
        let (nonce0, nonce1) = (nonce_from_seed(1), nonce_from_seed(2));
        let ack = ex
            .submit_sealed(
                MarketId(0),
                SealedSubmission::Commitment {
                    kind: ParticipantKind::Incumbent { bidder: 0 },
                    commitment: commit_to(0, &incumbent_val, &nonce0),
                    declared_cap: 8.0,
                },
            )
            .unwrap();
        assert!(matches!(ack, SealedAck::Committed { participant: 0, .. }));
        ex.submit_sealed(
            MarketId(0),
            SealedSubmission::Commitment {
                kind: ParticipantKind::Entrant {
                    conflicts: BidderConflicts::Binary(vec![0, 2]),
                },
                commitment: commit_to(1, &entrant_val, &nonce1),
                declared_cap: 8.0,
            },
        )
        .unwrap();

        // first drain closes the commit phase
        let report = ex.resolve_dirty().unwrap();
        assert!(report.sealed.is_empty());
        assert_eq!(ex.sealed_phase(MarketId(0)), Some(Phase::Reveal));

        for opening in [
            Opening {
                participant: 0,
                valuation: incumbent_val,
                nonce: nonce0,
            },
            Opening {
                participant: 1,
                valuation: entrant_val,
                nonce: nonce1,
            },
        ] {
            let ack = ex
                .submit_sealed(MarketId(0), SealedSubmission::Opening(opening))
                .unwrap();
            assert_eq!(ack, SealedAck::Reveal(RevealStatus::Accepted));
        }

        // second drain passes the reveal deadline: the round resolves
        let report = ex.resolve_dirty().unwrap();
        assert_eq!(report.sealed.len(), 1);
        let round = &report.sealed[0];
        assert_eq!(round.market, MarketId(0));
        assert!(round.outcome.forfeitures.is_empty());
        let verdict = audit(&round.outcome.transcript);
        assert!(verdict.clean(), "audit found: {:?}", verdict.findings);
        assert_eq!(ex.sealed_phase(MarketId(0)), None);

        // the market is an ordinary shard again (6 bidders + the entrant)
        assert_eq!(
            ex.with_session(MarketId(0), |s| s.instance().num_bidders())
                .unwrap(),
            7
        );
        ex.submit(
            MarketId(0),
            MarketEvent::Rebid {
                bidder: 0,
                valuation: val(2.0),
            },
        )
        .unwrap();
        assert_eq!(ex.resolve_dirty().unwrap().resolves.len(), 1);
        let stats = ex.stats();
        assert_eq!(stats.sealed_rounds_opened, 1);
        assert_eq!(stats.sealed_rounds_resolved, 1);
        assert_eq!(stats.sealed_markets, 0);
        assert_eq!(stats.collateral_forfeited, 0.0);
    }

    #[test]
    fn non_revealers_forfeit_at_the_exchange_layer() {
        use ssa_core::snapshot::ValuationSnapshot;
        use ssa_mechanism::sealed_bid::{commit_to, nonce_from_seed, ParticipantKind};

        let mut ex = SpectrumExchange::builder()
            .drain_mode(DrainMode::Sequential)
            .build();
        ex.open_market(MarketId(5), instance(6, 11)).unwrap();
        // a round over a market with pending traffic is rejected
        ex.submit(
            MarketId(5),
            MarketEvent::Rebid {
                bidder: 1,
                valuation: val(3.0),
            },
        )
        .unwrap();
        assert!(matches!(
            ex.open_sealed_round(MarketId(5), SealedRoundConfig::default()),
            Err(ExchangeError::PendingEvents(MarketId(5)))
        ));
        ex.resolve_dirty().unwrap();
        ex.open_sealed_round(MarketId(5), SealedRoundConfig::default())
            .unwrap();

        let sealed_val = ValuationSnapshot::Additive {
            channel_values: vec![4.0, 4.0],
        };
        ex.submit_sealed(
            MarketId(5),
            SealedSubmission::Commitment {
                kind: ParticipantKind::Incumbent { bidder: 2 },
                commitment: commit_to(0, &sealed_val, &nonce_from_seed(9)),
                declared_cap: 10.0,
            },
        )
        .unwrap();
        ex.resolve_dirty().unwrap(); // commit closes; never reveal
        let report = ex.resolve_dirty().unwrap();
        assert_eq!(report.sealed.len(), 1);
        let outcome = &report.sealed[0].outcome;
        assert_eq!(outcome.forfeitures.len(), 1);
        assert_eq!(outcome.forfeitures[0].participant, 0);
        // the non-revealing incumbent was excluded from the market
        assert_eq!(
            ex.with_session(MarketId(5), |s| s.instance().num_bidders())
                .unwrap(),
            5
        );
        let stats = ex.stats();
        assert!(stats.collateral_forfeited > 0.0);
    }
}
