//! Exchange-vs-sequential equivalence: the same multi-market event stream
//! driven through a [`SpectrumExchange`] (pooled drain) and through one
//! plain [`AuctionSession`] per market must produce the same outcomes, at a
//! fine and a coarse batch cadence. The exchange queues each market's
//! events and applies them verbatim, in submission order, before one
//! resolve, so both sides apply the same event sequence to the same
//! sessions and must agree bit for bit: equal LP objective and welfare
//! bits, and equal bundles.
//!
//! [`SpectrumExchange`]: spectrum_auctions::exchange::SpectrumExchange
//! [`AuctionSession`]: spectrum_auctions::auction::session::AuctionSession

use spectrum_auctions::auction::session::MarketEvent;
use spectrum_auctions::auction::session::{apply_event, AuctionSession, MarketId};
use spectrum_auctions::auction::solver::SolverBuilder;
use spectrum_auctions::auction::{ChannelSet, XorValuation};
use spectrum_auctions::exchange::SpectrumExchange;
use spectrum_auctions::workloads::{
    multi_market_scenario, protocol_scenario, MultiMarketConfig, ScenarioConfig,
};
use std::collections::HashMap;

/// Drives the same stream through the exchange (batched, pooled) and through per-market reference sessions (event by event, in
/// submission order), resolving both at the same cadence and comparing
/// every outcome.
fn run_stream(num_batches: usize) {
    let config = MultiMarketConfig::new(3, 7, 2, 12, 271);
    let scenario = multi_market_scenario(&config, 1.0);

    let solver = || SolverBuilder::new().rounding(5, 4);
    let mut exchange = SpectrumExchange::builder().solver(solver()).build();
    let mut reference: HashMap<MarketId, AuctionSession> = HashMap::new();
    for (id, generated) in &scenario.markets {
        exchange
            .open_market(*id, generated.instance.clone())
            .unwrap();
        reference.insert(*id, solver().session(generated.instance.clone()));
    }

    let batch_len = scenario.events.len().div_ceil(num_batches).max(1);
    for (b, batch) in scenario.events.chunks(batch_len).enumerate() {
        let mut touched: Vec<MarketId> = Vec::new();
        for (id, event) in batch {
            exchange
                .submit(*id, event.clone())
                .unwrap_or_else(|e| panic!("batch {b}: submit failed: {e}"));
            apply_event(reference.get_mut(id).unwrap(), event);
            if !touched.contains(id) {
                touched.push(*id);
            }
        }
        let report = exchange
            .resolve_dirty()
            .unwrap_or_else(|e| panic!("batch {b}: drain failed: {e}"));
        assert_eq!(report.resolves.len(), touched.len());
        for resolve in &report.resolves {
            let session = reference.get_mut(&resolve.market).unwrap();
            let expected = session.resolve().unwrap_or_else(|e| {
                panic!(
                    "batch {b} {}: reference resolve failed: {e}",
                    resolve.market
                )
            });
            let context = format!("batch {b} {}", resolve.market);
            assert!(
                resolve.outcome.lp_converged && expected.lp_converged,
                "{context}: non-converged"
            );
            assert_eq!(
                resolve.outcome.lp_objective.to_bits(),
                expected.lp_objective.to_bits(),
                "{context}: exchange LP {} vs sequential LP {}",
                resolve.outcome.lp_objective,
                expected.lp_objective
            );
            assert_eq!(
                resolve.outcome.welfare.to_bits(),
                expected.welfare.to_bits(),
                "{context}: exchange welfare {} vs sequential welfare {}",
                resolve.outcome.welfare,
                expected.welfare
            );
            assert_eq!(
                resolve.outcome.allocation.bundles(),
                expected.allocation.bundles(),
                "{context}: bundles"
            );
            assert!(
                resolve.outcome.allocation.is_feasible(session.instance()),
                "{context}: exchange allocation infeasible on the reference instance"
            );
        }
    }

    // the batched exchange must end at the same markets
    for (id, session) in &reference {
        let (n, welfare_bound) = exchange
            .with_session(*id, |s| {
                (
                    s.instance().num_bidders(),
                    s.instance().welfare_upper_bound(),
                )
            })
            .unwrap();
        assert_eq!(n, session.instance().num_bidders(), "{id}: bidder count");
        assert!(
            (welfare_bound - session.instance().welfare_upper_bound()).abs() <= 1e-9,
            "{id}: final instances diverged"
        );
    }
}

/// The fine-grained cadence: many small batches, one warm resolve after
/// each.
#[test]
fn exchange_matches_sequential_default_engine() {
    run_stream(6);
}

/// The coarse cadence: three large batches, so each drain applies many
/// events per market before its resolve.
#[test]
fn exchange_matches_sequential_in_coarse_batches() {
    run_stream(3);
}

/// A batch that replaces every original bidder of a two-bidder market: the
/// drain must not empty the session on the way, and must resolve to the
/// same market as the event-by-event session.
#[test]
fn exchange_matches_sequential_when_a_batch_replaces_every_bidder() {
    let instance = protocol_scenario(&ScenarioConfig::new(2, 2, 5), 1.0).instance;
    let newcomer = XorValuation::new(2, vec![(ChannelSet::from_channels([0, 1]), 7.0)]);
    let events = [
        MarketEvent::Arrival {
            valuation: std::sync::Arc::new(newcomer),
            neighbors: vec![0],
        },
        MarketEvent::Departure { bidder: 1 },
        MarketEvent::Departure { bidder: 0 },
    ];
    let solver = || SolverBuilder::new().rounding(5, 4);
    let mut exchange = SpectrumExchange::builder().solver(solver()).build();
    let market = MarketId(0);
    exchange.open_market(market, instance.clone()).unwrap();
    let mut reference = solver().session(instance);
    for event in &events {
        exchange.submit(market, event.clone()).unwrap();
        apply_event(&mut reference, event);
    }
    let report = exchange.resolve_dirty().unwrap();
    assert_eq!(report.resolves.len(), 1);
    let expected = reference.resolve().unwrap();
    let got = &report.resolves[0].outcome;
    assert!(got.lp_converged && expected.lp_converged);
    assert_eq!(got.lp_objective.to_bits(), expected.lp_objective.to_bits());
    assert_eq!(got.welfare.to_bits(), expected.welfare.to_bits());
    assert_eq!(got.allocation.bundles(), expected.allocation.bundles());
    let bidders = exchange
        .with_session(market, |s| s.instance().num_bidders())
        .unwrap();
    assert_eq!(bidders, 1);
}
