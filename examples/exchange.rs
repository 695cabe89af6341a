//! Multi-market exchange quickstart: a fleet of regional spectrum markets
//! behind one [`SpectrumExchange`].
//!
//! Twelve protocol-model markets open on an exchange; a Zipf-skewed burst
//! of arrivals, departures and re-bids (hot markets take most of the
//! traffic) is submitted and drained in batches. The exchange queues each
//! market's pending events and applies them in submission order at the
//! drain, fans the dirty shards across the persistent work-stealing pool,
//! and rolls every session's warm-path attribution into one fleet-level
//! [`ExchangeStats`].
//!
//! Run with: `cargo run --example exchange`
//!
//! [`SpectrumExchange`]: spectrum_auctions::exchange::SpectrumExchange
//! [`ExchangeStats`]: spectrum_auctions::exchange::ExchangeStats

use spectrum_auctions::auction::solver::SolverBuilder;
use spectrum_auctions::exchange::SpectrumExchange;
use spectrum_auctions::workloads::{multi_market_scenario, MultiMarketConfig};

fn main() {
    // 1. A synthetic fleet: 12 markets of 10 bidders on 2 channels, with a
    //    120-event stream skewed by a Zipf law (market 0 is the hottest).
    let config = MultiMarketConfig::new(12, 10, 2, 120, 42);
    let scenario = multi_market_scenario(&config, 1.0);

    // 2. The exchange: per-market sessions configured through the same
    //    SolverBuilder as everywhere else; drains run on the pool.
    let mut exchange = SpectrumExchange::builder()
        .solver(SolverBuilder::new().rounding(7, 8))
        .build();
    for (id, generated) in &scenario.markets {
        exchange
            .open_market(*id, generated.instance.clone())
            .expect("fresh market ids");
    }
    println!("fleet: {} markets open", exchange.num_markets());

    // 3. Traffic arrives in bursts: submit a batch, drain, repeat. Each
    //    drain resolves only the markets that actually received events.
    let batch_len = scenario.events.len().div_ceil(4);
    for (round, batch) in scenario.events.chunks(batch_len).enumerate() {
        exchange
            .submit_batch(batch.iter().cloned())
            .expect("generated streams are valid");
        let dirty = exchange.num_dirty();
        let report = exchange.resolve_dirty().expect("drain failed");
        let welfare: f64 = report.resolves.iter().map(|r| r.outcome.welfare).sum();
        println!(
            "round {round}: {} events -> {dirty} dirty markets, drained welfare {welfare:.2}",
            batch.len()
        );
        for resolve in report.resolves.iter().take(3) {
            println!(
                "  {}: welfare {:.2} across {} bidders",
                resolve.market,
                resolve.outcome.welfare,
                exchange
                    .with_session(resolve.market, |s| s.instance().num_bidders())
                    .unwrap()
            );
        }
    }

    // 4. The fleet-level rollup: the event traffic, and which warm paths
    //    the sessions actually took.
    let stats = exchange.stats();
    println!();
    println!(
        "submitted {} events, applied {}",
        stats.events_submitted, stats.events_applied
    );
    println!(
        "{} drains, {} shard resolves",
        stats.drains, stats.shard_resolves
    );
    println!(
        "session paths: {} cold, {} dual-simplex arrivals, {} in-place departures, {} re-priced",
        stats.sessions.cold_resolves,
        stats.sessions.warm_row_resolves,
        stats.sessions.deactivated_resolves,
        stats.sessions.repriced_resolves
    );
    println!(
        "LP engine: {} simplex pivots, {} dual repair pivots, {} refactorizations",
        stats.lp.simplex_iterations, stats.lp.dual_pivots, stats.lp.refactorizations
    );
}
