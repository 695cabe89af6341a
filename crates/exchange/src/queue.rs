//! The per-shard pending-event queue: a validated FIFO.
//!
//! Between drains, a market's submitted [`MarketEvent`]s sit in a
//! [`PendingQueue`] in submission order, and the drain applies them
//! verbatim. The queue tracks only the bidder count the pending stream
//! implies, so it can reject an event whose index falls outside the roster
//! it will meet, or a departure that would empty the market. Every prefix
//! of an accepted stream keeps at least one bidder present, so replaying it
//! can never empty the session.

use ssa_core::session::MarketEvent;

/// Why a submitted event was rejected (the queue validates indices against
/// the roster the pending stream implies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidEvent {
    /// The bidder index the event referenced.
    pub bidder: usize,
    /// Bidders present in the market (after the pending stream).
    pub present: usize,
}

/// The pending mutations of one market between drains.
pub(crate) struct PendingQueue {
    /// The stream in submission order.
    events: Vec<MarketEvent>,
    /// Present-bidder count implied by the stream (for validation).
    present: usize,
}

impl PendingQueue {
    pub(crate) fn new(present: usize) -> Self {
        PendingQueue {
            events: Vec::new(),
            present,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub(crate) fn push(&mut self, event: MarketEvent) -> Result<(), InvalidEvent> {
        let present = self.present;
        let reject = |bidder| Err(InvalidEvent { bidder, present });
        match &event {
            MarketEvent::Arrival { neighbors, .. } => {
                if let Some(&v) = neighbors.iter().find(|&&v| v >= present) {
                    return reject(v);
                }
                self.present += 1;
            }
            MarketEvent::Departure { bidder } => {
                // The last bidder cannot leave: the session needs one.
                if *bidder >= present || present == 1 {
                    return reject(*bidder);
                }
                self.present -= 1;
            }
            MarketEvent::Rebid { bidder, .. } => {
                if *bidder >= present {
                    return reject(*bidder);
                }
            }
        }
        self.events.push(event);
        Ok(())
    }

    /// Drains the queue into the event list to apply before the next
    /// resolve. The queue is left empty at the roster size the drained
    /// events leave behind.
    pub(crate) fn take(&mut self) -> Vec<MarketEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_core::channels::ChannelSet;
    use ssa_core::valuation::XorValuation;
    use ssa_core::Valuation;
    use std::sync::Arc;

    fn val(v: f64) -> Arc<dyn Valuation> {
        Arc::new(XorValuation::new(
            2,
            vec![(ChannelSet::from_channels(vec![0]), v)],
        ))
    }

    #[test]
    fn raw_mode_preserves_the_stream_verbatim() {
        let mut q = PendingQueue::new(2);
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
        let events = q.take();
        assert_eq!(events.len(), 3, "the FIFO never rewrites the stream");
        let values: Vec<f64> = events[..2]
            .iter()
            .map(|e| match e {
                MarketEvent::Rebid { valuation, .. } => {
                    valuation.value(ChannelSet::from_channels(vec![0]))
                }
                other => panic!("expected a rebid, got {other:?}"),
            })
            .collect();
        assert_eq!(values, vec![1.0, 2.0]);
        assert!(matches!(events[2], MarketEvent::Departure { bidder: 1 }));
        assert!(q.is_empty());
    }

    #[test]
    fn queue_rejects_out_of_roster_indices() {
        let mut q = PendingQueue::new(2);
        assert!(q.push(MarketEvent::Departure { bidder: 2 }).is_err());
        q.push(MarketEvent::Departure { bidder: 1 }).unwrap();
        // the last bidder cannot leave
        assert_eq!(
            q.push(MarketEvent::Departure { bidder: 0 }),
            Err(InvalidEvent {
                bidder: 0,
                present: 1
            })
        );
        // an arrival makes room for the departure again
        q.push(MarketEvent::Arrival {
            valuation: val(1.0),
            neighbors: vec![0],
        })
        .unwrap();
        q.push(MarketEvent::Departure { bidder: 0 }).unwrap();
        assert!(q
            .push(MarketEvent::Arrival {
                valuation: val(1.0),
                neighbors: vec![1],
            })
            .is_err());
        let mut one = PendingQueue::new(1);
        assert!(one
            .push(MarketEvent::Rebid {
                bidder: 3,
                valuation: val(1.0),
            })
            .is_err());
    }
}
