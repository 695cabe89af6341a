//! The per-shard pending-event queue and its coalescer.
//!
//! Between drains, a market's submitted [`MarketEvent`]s sit in a
//! [`PendingQueue`]. In coalescing mode the queue does not store the raw
//! stream — it simulates the roster the stream describes, using **virtual
//! bidder ids** (ids `0..base` are the session's bidders when the queue
//! opened; arrivals get fresh ids), and keeps only the *net* mutation:
//!
//! * a re-bid overwrites any earlier pending re-bid of the same bidder
//!   (last-writer-wins);
//! * a departure of a bidder that *arrived in the same queue* cancels both
//!   events outright;
//! * a re-bid of a pending arrival folds into the arrival's valuation;
//! * a departure drops any pending re-bid of the departing bidder.
//!
//! At drain time the net mutation is emitted as an equivalent event
//! sequence — re-bids first (their pre-departure indices are still valid),
//! then departures in descending index order (so earlier removals don't
//! shift later ones), then arrivals in arrival order with neighbor lists
//! filtered to bidders alive at the end and re-indexed to the
//! post-departure roster. Applying this sequence to the session yields the
//! same final instance as applying the raw stream in submission order:
//! the final roster is the surviving original bidders in their original
//! order followed by the surviving arrivals in arrival order, with exactly
//! the recorded conflicts among survivors — under both orders.
//!
//! One exception keeps the session non-empty: when every original bidder
//! departs and some arrival survives, the departure of bidder 0 is held
//! back until the first surviving arrival is in. That arrival has no
//! surviving neighbors (all of them departed or were cancelled), and the
//! held departure shifts it to index 0, its final position.

use ssa_core::session::MarketEvent;
use ssa_core::Valuation;
use std::collections::HashMap;
use std::sync::Arc;

/// Why a submitted event was rejected (the queue validates indices against
/// the roster the pending stream implies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidEvent {
    /// The bidder index the event referenced.
    pub bidder: usize,
    /// Bidders present in the market (after the pending stream).
    pub present: usize,
}

/// Net coalescing effect of a drained queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CoalesceCounters {
    /// Events pushed into the queue.
    pub submitted: usize,
    /// Events emitted at drain time (≤ submitted in coalescing mode).
    pub applied: usize,
    /// Re-bids absorbed: overwritten by a later re-bid of the same bidder,
    /// or dropped because the bidder departed in the same queue.
    pub rebids_collapsed: usize,
    /// Re-bids folded into a pending arrival's valuation.
    pub rebids_folded: usize,
    /// Arrival+departure pairs that cancelled outright.
    pub cancellations: usize,
}

/// A pending arrival, phrased in virtual ids.
struct ArrivalRec {
    valuation: Arc<dyn Valuation>,
    /// Virtual ids of the bidders present (and conflicting) when the
    /// arrival was submitted.
    neighbors: Vec<usize>,
}

/// Roster simulation of the pending stream (coalescing mode).
pub(crate) struct Coalescer {
    /// Session bidder count when the queue opened; virtual ids `0..base`
    /// are those bidders, id `i` at session index `i`.
    base: usize,
    /// The current roster, in session order, as virtual ids.
    roster: Vec<usize>,
    /// Pending re-bids of original bidders: id → last valuation.
    rebids: HashMap<usize, Arc<dyn Valuation>>,
    /// Original bidders departed (virtual id = original index).
    departed: Vec<usize>,
    /// Pending arrivals by `id - base`; `None` = cancelled by a departure.
    arrivals: Vec<Option<ArrivalRec>>,
    counters: CoalesceCounters,
}

impl Coalescer {
    fn new(base: usize) -> Self {
        Coalescer {
            base,
            roster: (0..base).collect(),
            rebids: HashMap::new(),
            departed: Vec::new(),
            arrivals: Vec::new(),
            counters: CoalesceCounters::default(),
        }
    }

    fn push(&mut self, event: MarketEvent) -> Result<(), InvalidEvent> {
        match event {
            MarketEvent::Arrival {
                valuation,
                neighbors,
            } => {
                let mut ids = Vec::with_capacity(neighbors.len());
                for &v in &neighbors {
                    let id = *self.roster.get(v).ok_or(InvalidEvent {
                        bidder: v,
                        present: self.roster.len(),
                    })?;
                    ids.push(id);
                }
                let id = self.base + self.arrivals.len();
                self.arrivals.push(Some(ArrivalRec {
                    valuation,
                    neighbors: ids,
                }));
                self.roster.push(id);
            }
            MarketEvent::Departure { bidder } => {
                if bidder >= self.roster.len() {
                    return Err(InvalidEvent {
                        bidder,
                        present: self.roster.len(),
                    });
                }
                let id = self.roster.remove(bidder);
                if id >= self.base {
                    // Arrived in this same queue: both events vanish.
                    self.arrivals[id - self.base] = None;
                    self.counters.cancellations += 1;
                } else {
                    if self.rebids.remove(&id).is_some() {
                        self.counters.rebids_collapsed += 1;
                    }
                    self.departed.push(id);
                }
            }
            MarketEvent::Rebid { bidder, valuation } => {
                let id = *self.roster.get(bidder).ok_or(InvalidEvent {
                    bidder,
                    present: self.roster.len(),
                })?;
                if id >= self.base {
                    let rec = self.arrivals[id - self.base]
                        .as_mut()
                        .expect("rostered arrival cannot be cancelled");
                    rec.valuation = valuation;
                    self.counters.rebids_folded += 1;
                } else if self.rebids.insert(id, valuation).is_some() {
                    self.counters.rebids_collapsed += 1;
                }
            }
        }
        self.counters.submitted += 1;
        Ok(())
    }

    /// Emits the net mutation as one event sequence: re-bids, descending
    /// departures, then arrivals in arrival order with final-roster
    /// neighbor indices (see the module docs for the held-back departure
    /// that keeps the session non-empty).
    fn emit(mut self) -> (Vec<MarketEvent>, CoalesceCounters) {
        let mut events =
            Vec::with_capacity(self.rebids.len() + self.departed.len() + self.arrivals.len());
        let mut rebid_ids: Vec<usize> = self.rebids.keys().copied().collect();
        rebid_ids.sort_unstable();
        for id in rebid_ids {
            let valuation = self.rebids.remove(&id).expect("key just listed");
            events.push(MarketEvent::Rebid {
                bidder: id,
                valuation,
            });
        }
        self.departed.sort_unstable();

        // Final index of every surviving virtual id: original bidders keep
        // their order (shifted down past departures), arrivals append.
        let mut final_index: HashMap<usize, usize> = HashMap::new();
        for id in 0..self.base {
            let departed_below = self.departed.partition_point(|&d| d < id);
            if self.departed.get(departed_below) != Some(&id) {
                final_index.insert(id, id - departed_below);
            }
        }
        let mut next = self.base - self.departed.len();
        for (j, rec) in self.arrivals.iter().enumerate() {
            if rec.is_some() {
                final_index.insert(self.base + j, next);
                next += 1;
            }
        }
        let mut arrivals = self
            .arrivals
            .into_iter()
            .flatten()
            .map(|rec| MarketEvent::Arrival {
                valuation: rec.valuation,
                neighbors: rec
                    .neighbors
                    .iter()
                    .filter_map(|id| final_index.get(id).copied())
                    .collect(),
            })
            .peekable();

        let empties_market = !self.departed.is_empty()
            && self.departed.len() == self.base
            && arrivals.peek().is_some();
        let held = usize::from(empties_market);
        for &id in self.departed[held..].iter().rev() {
            events.push(MarketEvent::Departure { bidder: id });
        }
        if empties_market {
            events.extend(arrivals.next());
            events.push(MarketEvent::Departure { bidder: 0 });
        }
        events.extend(arrivals);
        self.counters.applied = events.len();
        (events, self.counters)
    }
}

/// The pending mutations of one market between drains.
pub(crate) enum PendingQueue {
    /// Coalescing off: the raw stream, replayed verbatim.
    Raw {
        /// The stream in submission order.
        events: Vec<MarketEvent>,
        /// Present-bidder count implied by the stream (for validation).
        present: usize,
    },
    /// Coalescing on: the roster simulation.
    Coalesced(Coalescer),
}

impl PendingQueue {
    pub(crate) fn new(coalescing: bool, present: usize) -> Self {
        if coalescing {
            PendingQueue::Coalesced(Coalescer::new(present))
        } else {
            PendingQueue::Raw {
                events: Vec::new(),
                present,
            }
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        match self {
            PendingQueue::Raw { events, .. } => events.is_empty(),
            PendingQueue::Coalesced(c) => c.counters.submitted == 0,
        }
    }

    pub(crate) fn push(&mut self, event: MarketEvent) -> Result<(), InvalidEvent> {
        match self {
            PendingQueue::Raw { events, present } => {
                match &event {
                    MarketEvent::Arrival { neighbors, .. } => {
                        if let Some(&v) = neighbors.iter().find(|&&v| v >= *present) {
                            return Err(InvalidEvent {
                                bidder: v,
                                present: *present,
                            });
                        }
                        *present += 1;
                    }
                    MarketEvent::Departure { bidder } => {
                        if *bidder >= *present {
                            return Err(InvalidEvent {
                                bidder: *bidder,
                                present: *present,
                            });
                        }
                        *present -= 1;
                    }
                    MarketEvent::Rebid { bidder, .. } => {
                        if *bidder >= *present {
                            return Err(InvalidEvent {
                                bidder: *bidder,
                                present: *present,
                            });
                        }
                    }
                }
                events.push(event);
                Ok(())
            }
            PendingQueue::Coalesced(c) => c.push(event),
        }
    }

    /// Drains the queue into the event list to apply before the next
    /// resolve. The queue is left empty (re-armed at the roster size the
    /// drained events leave behind).
    pub(crate) fn take(&mut self) -> (Vec<MarketEvent>, CoalesceCounters) {
        match self {
            PendingQueue::Raw { events, .. } => {
                let events = std::mem::take(events);
                let counters = CoalesceCounters {
                    submitted: events.len(),
                    applied: events.len(),
                    ..CoalesceCounters::default()
                };
                (events, counters)
            }
            PendingQueue::Coalesced(c) => {
                let present_after = c.roster.len();
                std::mem::replace(c, Coalescer::new(present_after)).emit()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_core::channels::ChannelSet;
    use ssa_core::valuation::XorValuation;

    fn val(v: f64) -> Arc<dyn Valuation> {
        Arc::new(XorValuation::new(
            2,
            vec![(ChannelSet::from_channels(vec![0]), v)],
        ))
    }

    fn value_of(e: &MarketEvent) -> f64 {
        let v = match e {
            MarketEvent::Arrival { valuation, .. } => valuation,
            MarketEvent::Rebid { valuation, .. } => valuation,
            _ => panic!("no valuation"),
        };
        v.value(ChannelSet::from_channels(vec![0]))
    }

    #[test]
    fn rebids_collapse_last_writer_wins() {
        let mut q = PendingQueue::new(true, 4);
        q.push(MarketEvent::Rebid {
            bidder: 2,
            valuation: val(1.0),
        })
        .unwrap();
        q.push(MarketEvent::Rebid {
            bidder: 2,
            valuation: val(9.0),
        })
        .unwrap();
        let (events, counters) = q.take();
        assert_eq!(events.len(), 1);
        match &events[0] {
            MarketEvent::Rebid { bidder, .. } => assert_eq!(*bidder, 2),
            other => panic!("expected rebid, got {other:?}"),
        }
        assert!((value_of(&events[0]) - 9.0).abs() < 1e-12);
        assert_eq!(counters.rebids_collapsed, 1);
        assert_eq!(counters.submitted, 2);
        assert_eq!(counters.applied, 1);
    }

    #[test]
    fn same_batch_arrival_departure_cancels() {
        let mut q = PendingQueue::new(true, 3);
        q.push(MarketEvent::Arrival {
            valuation: val(5.0),
            neighbors: vec![0, 2],
        })
        .unwrap();
        // the arrival sits at index 3; rebid it, then remove it
        q.push(MarketEvent::Rebid {
            bidder: 3,
            valuation: val(6.0),
        })
        .unwrap();
        q.push(MarketEvent::Departure { bidder: 3 }).unwrap();
        let (events, counters) = q.take();
        assert!(events.is_empty(), "everything cancelled: {events:?}");
        assert_eq!(counters.cancellations, 1);
        assert_eq!(counters.rebids_folded, 1);
        assert_eq!(counters.applied, 0);
        assert_eq!(counters.submitted, 3);
    }

    #[test]
    fn rebid_of_pending_arrival_folds_into_it() {
        let mut q = PendingQueue::new(true, 2);
        q.push(MarketEvent::Arrival {
            valuation: val(5.0),
            neighbors: vec![1],
        })
        .unwrap();
        q.push(MarketEvent::Rebid {
            bidder: 2,
            valuation: val(8.0),
        })
        .unwrap();
        let (events, counters) = q.take();
        assert_eq!(events.len(), 1, "one arrival only: {:?}", events);
        assert!((value_of(&events[0]) - 8.0).abs() < 1e-12);
        assert_eq!(counters.rebids_folded, 1);
    }

    #[test]
    fn departure_drops_pending_rebid_and_reindexes() {
        let mut q = PendingQueue::new(true, 4);
        q.push(MarketEvent::Rebid {
            bidder: 1,
            valuation: val(3.0),
        })
        .unwrap();
        q.push(MarketEvent::Departure { bidder: 1 }).unwrap();
        // after that departure, session index 1 refers to original bidder 2
        q.push(MarketEvent::Rebid {
            bidder: 1,
            valuation: val(4.0),
        })
        .unwrap();
        let (events, counters) = q.take();
        // emitted: rebid of original index 2 (pre-departure), then departure 1
        assert_eq!(events.len(), 2);
        match &events[0] {
            MarketEvent::Rebid { bidder, .. } => assert_eq!(*bidder, 2),
            other => panic!("expected rebid first, got {other:?}"),
        }
        match &events[1] {
            MarketEvent::Departure { bidder } => assert_eq!(*bidder, 1),
            other => panic!("expected departure, got {other:?}"),
        }
        assert_eq!(counters.rebids_collapsed, 1);
    }

    #[test]
    fn arrival_neighbors_reindex_past_departures_and_cancellations() {
        let mut q = PendingQueue::new(true, 3);
        // arrival A conflicting with everyone present
        q.push(MarketEvent::Arrival {
            valuation: val(1.0),
            neighbors: vec![0, 1, 2],
        })
        .unwrap();
        // original bidder 1 departs → roster [0, 2, A]
        q.push(MarketEvent::Departure { bidder: 1 }).unwrap();
        // arrival B conflicting with 2 (index 1 now) and A (index 2 now)
        q.push(MarketEvent::Arrival {
            valuation: val(2.0),
            neighbors: vec![1, 2],
        })
        .unwrap();
        let (events, _) = q.take();
        // departure of 1, then A, then B
        assert_eq!(events.len(), 3);
        match &events[0] {
            MarketEvent::Departure { bidder } => assert_eq!(*bidder, 1),
            other => panic!("expected departure, got {other:?}"),
        }
        match &events[1] {
            // A's neighbors 0,1,2 → 1 departed; 0 stays 0, 2 shifts to 1
            MarketEvent::Arrival { neighbors, .. } => assert_eq!(neighbors, &vec![0, 1]),
            other => panic!("expected arrival A, got {other:?}"),
        }
        match &events[2] {
            // B's neighbors: original 2 → 1, A → 2
            MarketEvent::Arrival { neighbors, .. } => assert_eq!(neighbors, &vec![1, 2]),
            other => panic!("expected arrival B, got {other:?}"),
        }
    }

    #[test]
    fn raw_mode_preserves_the_stream_verbatim() {
        let mut q = PendingQueue::new(false, 2);
        q.push(MarketEvent::Rebid {
            bidder: 0,
            valuation: val(1.0),
        })
        .unwrap();
        q.push(MarketEvent::Rebid {
            bidder: 0,
            valuation: val(2.0),
        })
        .unwrap();
        q.push(MarketEvent::Departure { bidder: 1 }).unwrap();
        let (events, counters) = q.take();
        assert_eq!(events.len(), 3, "no coalescing in raw mode");
        assert_eq!(counters.submitted, 3);
        assert_eq!(counters.applied, 3);
        assert_eq!(counters.rebids_collapsed, 0);
    }

    #[test]
    fn draining_every_original_bidder_keeps_the_market_non_empty() {
        let mut q = PendingQueue::new(true, 2);
        q.push(MarketEvent::Arrival {
            valuation: val(5.0),
            neighbors: vec![0],
        })
        .unwrap();
        q.push(MarketEvent::Departure { bidder: 1 }).unwrap();
        q.push(MarketEvent::Departure { bidder: 0 }).unwrap();
        let (events, counters) = q.take();
        assert_eq!(events.len(), 3);
        // departure of 1, then the arrival (its only neighbor departs),
        // then the held-back departure of 0
        match &events[0] {
            MarketEvent::Departure { bidder } => assert_eq!(*bidder, 1),
            other => panic!("expected departure of 1, got {other:?}"),
        }
        match &events[1] {
            MarketEvent::Arrival { neighbors, .. } => assert!(neighbors.is_empty()),
            other => panic!("expected the arrival, got {other:?}"),
        }
        match &events[2] {
            MarketEvent::Departure { bidder } => assert_eq!(*bidder, 0),
            other => panic!("expected departure of 0, got {other:?}"),
        }
        assert_eq!(counters.applied, 3);
    }

    #[test]
    fn queue_rejects_out_of_roster_indices() {
        let mut q = PendingQueue::new(true, 2);
        assert!(q.push(MarketEvent::Departure { bidder: 2 }).is_err());
        q.push(MarketEvent::Departure { bidder: 1 }).unwrap();
        q.push(MarketEvent::Departure { bidder: 0 }).unwrap();
        assert_eq!(
            q.push(MarketEvent::Departure { bidder: 0 }),
            Err(InvalidEvent {
                bidder: 0,
                present: 0
            })
        );
        let mut raw = PendingQueue::new(false, 1);
        assert!(raw
            .push(MarketEvent::Rebid {
                bidder: 3,
                valuation: val(1.0),
            })
            .is_err());
    }
}
