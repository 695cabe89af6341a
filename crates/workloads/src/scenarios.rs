//! Named end-to-end scenarios: placement + interference model + valuations
//! → a ready-to-solve [`AuctionInstance`].
//!
//! Every scenario is deterministic given its seed, so experiments and tests
//! are reproducible.

use crate::placement::{
    clustered_points, random_disks, random_links, uniform_points, PlacementConfig,
};
use crate::valuations::{sample_valuations, ValuationKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use ssa_conflict_graph::certified_rho;
use ssa_conflict_graph::VertexOrdering;
use ssa_core::instance::ConflictStructure;
pub use ssa_core::session::{apply_event, MarketEvent};
use ssa_core::AuctionInstance;
use ssa_geometry::LinkMetric;
use ssa_interference::{
    DiskGraphModel, PhysicalModel, PowerAssignment, PowerControlModel, ProtocolModel,
    SinrParameters,
};

/// Which valuation mix a scenario uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValuationProfile {
    /// Only XOR bidders (the default of most experiments).
    Xor,
    /// A mix of all implemented bidding languages.
    Mixed,
    /// Single-minded bidders only (hard for greedy baselines).
    SingleMinded,
}

impl ValuationProfile {
    pub(crate) fn kinds(&self) -> Vec<ValuationKind> {
        match self {
            ValuationProfile::Xor => vec![ValuationKind::XorBids],
            ValuationProfile::Mixed => vec![
                ValuationKind::XorBids,
                ValuationKind::Additive,
                ValuationKind::UnitDemand,
                ValuationKind::SingleMinded,
                ValuationKind::Symmetric,
                ValuationKind::BudgetedAdditive,
            ],
            ValuationProfile::SingleMinded => vec![ValuationKind::SingleMinded],
        }
    }
}

/// Common scenario parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Number of bidders.
    pub num_bidders: usize,
    /// Number of channels.
    pub num_channels: usize,
    /// RNG seed.
    pub seed: u64,
    /// Deployment area and clustering parameters.
    pub placement: PlacementConfig,
    /// Whether nodes are clustered ("urban") or uniform ("rural").
    pub clustered: bool,
    /// Valuation mix.
    pub valuations: ValuationProfile,
    /// Value range for the valuation generator.
    pub value_range: (f64, f64),
}

impl ScenarioConfig {
    /// A reasonable default configuration for `n` bidders and `k` channels.
    pub fn new(num_bidders: usize, num_channels: usize, seed: u64) -> Self {
        ScenarioConfig {
            num_bidders,
            num_channels,
            seed,
            placement: PlacementConfig::default(),
            clustered: false,
            valuations: ValuationProfile::Xor,
            value_range: (1.0, 10.0),
        }
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    fn points(&self, rng: &mut StdRng) -> Vec<ssa_geometry::Point2D> {
        if self.clustered {
            clustered_points(self.num_bidders, &self.placement, rng)
        } else {
            uniform_points(self.num_bidders, self.placement.area_side, rng)
        }
    }
}

/// A generated instance together with provenance information used by the
/// experiment reports.
#[derive(Clone)]
pub struct GeneratedInstance {
    /// The auction instance (conflict structure, ordering, ρ, valuations).
    pub instance: AuctionInstance,
    /// Name of the interference model that produced it.
    pub model_name: String,
    /// The ρ certified for the instance's ordering.
    pub certified_rho: f64,
    /// The model's closed-form ρ bound, if any.
    pub theoretical_rho: Option<f64>,
}

/// Protocol-model scenario (binary conflict graph, Proposition 13).
pub fn protocol_scenario(config: &ScenarioConfig, delta: f64) -> GeneratedInstance {
    let mut rng = config.rng();
    let points = config.points(&mut rng);
    let links = random_links(&points, 1.0, 4.0, &mut rng);
    let model = ProtocolModel::new(links, delta).build();
    let bidders = sample_valuations(
        config.num_bidders,
        &config.valuations.kinds(),
        config.num_channels,
        config.value_range.0,
        config.value_range.1,
        &mut rng,
    );
    let rho = model.rho_for_lp();
    let instance = AuctionInstance::new(
        config.num_channels,
        bidders,
        ConflictStructure::Binary(model.graph.clone()),
        model.ordering.clone(),
        rho,
    );
    GeneratedInstance {
        instance,
        model_name: model.name,
        certified_rho: model.certified_rho.rho,
        theoretical_rho: model.theoretical_rho,
    }
}

/// Disk-graph transmitter scenario (binary conflict graph, Proposition 9).
pub fn disk_scenario(
    config: &ScenarioConfig,
    min_radius: f64,
    max_radius: f64,
) -> GeneratedInstance {
    let mut rng = config.rng();
    let points = config.points(&mut rng);
    let disks = random_disks(&points, min_radius, max_radius, &mut rng);
    let model = DiskGraphModel::new(disks).build();
    let bidders = sample_valuations(
        config.num_bidders,
        &config.valuations.kinds(),
        config.num_channels,
        config.value_range.0,
        config.value_range.1,
        &mut rng,
    );
    let rho = model.rho_for_lp();
    let instance = AuctionInstance::new(
        config.num_channels,
        bidders,
        ConflictStructure::Binary(model.graph.clone()),
        model.ordering.clone(),
        rho,
    );
    GeneratedInstance {
        instance,
        model_name: model.name,
        certified_rho: model.certified_rho.rho,
        theoretical_rho: model.theoretical_rho,
    }
}

/// Physical-model scenario with fixed powers (edge-weighted conflict graph,
/// Proposition 15). Also returns the underlying [`PhysicalModel`] so
/// experiments can re-check SINR feasibility of allocations.
pub fn physical_scenario(
    config: &ScenarioConfig,
    params: SinrParameters,
    power: PowerAssignment,
) -> (GeneratedInstance, PhysicalModel) {
    let mut rng = config.rng();
    let points = config.points(&mut rng);
    let links = random_links(&points, 1.0, 4.0, &mut rng);
    let physical = PhysicalModel::new(LinkMetric::from_links(&links), params, &power);
    let model = physical.build();
    let bidders = sample_valuations(
        config.num_bidders,
        &config.valuations.kinds(),
        config.num_channels,
        config.value_range.0,
        config.value_range.1,
        &mut rng,
    );
    let rho = model.rho_for_lp();
    let instance = AuctionInstance::new(
        config.num_channels,
        bidders,
        ConflictStructure::Weighted(model.graph.clone()),
        model.ordering.clone(),
        rho,
    );
    (
        GeneratedInstance {
            instance,
            model_name: model.name,
            certified_rho: model.certified_rho.rho,
            theoretical_rho: model.theoretical_rho,
        },
        physical,
    )
}

/// Physical-model scenario with power control (Theorem 17 weights). Returns
/// the [`PowerControlModel`] so experiments can compute the actual powers
/// for the winners of each channel.
pub fn power_control_scenario(
    config: &ScenarioConfig,
    params: SinrParameters,
) -> (GeneratedInstance, PowerControlModel) {
    let mut rng = config.rng();
    let points = config.points(&mut rng);
    let links = random_links(&points, 1.0, 4.0, &mut rng);
    let pc = PowerControlModel::new(LinkMetric::from_links(&links), params);
    let model = pc.build();
    let bidders = sample_valuations(
        config.num_bidders,
        &config.valuations.kinds(),
        config.num_channels,
        config.value_range.0,
        config.value_range.1,
        &mut rng,
    );
    let rho = model.rho_for_lp();
    let instance = AuctionInstance::new(
        config.num_channels,
        bidders,
        ConflictStructure::Weighted(model.graph.clone()),
        model.ordering.clone(),
        rho,
    );
    (
        GeneratedInstance {
            instance,
            model_name: model.name,
            certified_rho: model.certified_rho.rho,
            theoretical_rho: model.theoretical_rho,
        },
        pc,
    )
}

/// Asymmetric-channel scenario (Section 6): each channel gets its own
/// protocol-model conflict graph built from an independent link placement
/// (modelling, e.g., per-channel primary users that block different areas).
pub fn asymmetric_scenario(config: &ScenarioConfig, delta: f64) -> GeneratedInstance {
    let mut rng = config.rng();
    let mut graphs = Vec::with_capacity(config.num_channels);
    for _ in 0..config.num_channels {
        let points = config.points(&mut rng);
        let links = random_links(&points, 1.0, 4.0, &mut rng);
        graphs.push(ProtocolModel::new(links, delta).conflict_graph());
    }
    let bidders = sample_valuations(
        config.num_bidders,
        &config.valuations.kinds(),
        config.num_channels,
        config.value_range.0,
        config.value_range.1,
        &mut rng,
    );
    let ordering = VertexOrdering::identity(config.num_bidders);
    let rho = graphs
        .iter()
        .map(|g| certified_rho(g, &ordering).rho_ceil())
        .fold(1.0f64, f64::max);
    let certified = rho;
    let instance = AuctionInstance::new(
        config.num_channels,
        bidders,
        ConflictStructure::AsymmetricBinary(graphs),
        ordering,
        rho,
    );
    GeneratedInstance {
        instance,
        model_name: format!(
            "asymmetric-protocol(delta={delta},k={})",
            config.num_channels
        ),
        certified_rho: certified,
        theoretical_rho: None,
    }
}

// ---------------------------------------------------------------------------
// Dynamic secondary markets: arrival / departure / re-bid event streams
// ---------------------------------------------------------------------------
//
// `MarketEvent` / `apply_event` themselves live in `ssa_core::session`
// (re-exported above): the exchange layer consumes them without depending
// on the workload generators.

/// Mix and length of a dynamic-market event stream.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DynamicMarketConfig {
    /// Number of events to generate. Streams where only departures carry
    /// weight may end early: a departure that would empty the market is
    /// dropped rather than silently converted to an excluded kind.
    pub num_events: usize,
    /// Relative weight of arrivals.
    pub arrival_weight: f64,
    /// Relative weight of departures.
    pub departure_weight: f64,
    /// Relative weight of re-bids.
    pub rebid_weight: f64,
}

impl Default for DynamicMarketConfig {
    fn default() -> Self {
        DynamicMarketConfig {
            num_events: 16,
            arrival_weight: 0.4,
            departure_weight: 0.3,
            rebid_weight: 0.3,
        }
    }
}

impl DynamicMarketConfig {
    /// A stream of `m` pure arrivals (the incremental-growth shape the
    /// `e15_incremental` bench measures).
    pub fn arrivals_only(m: usize) -> Self {
        DynamicMarketConfig {
            num_events: m,
            arrival_weight: 1.0,
            departure_weight: 0.0,
            rebid_weight: 0.0,
        }
    }

    /// A stream of `m` pure departures (the session's in-place row
    /// deactivation path, measured by `e15_incremental`).
    pub fn departures_only(m: usize) -> Self {
        DynamicMarketConfig {
            num_events: m,
            arrival_weight: 0.0,
            departure_weight: 1.0,
            rebid_weight: 0.0,
        }
    }

    /// A stream of `m` pure re-bids.
    pub fn rebids_only(m: usize) -> Self {
        DynamicMarketConfig {
            num_events: m,
            arrival_weight: 0.0,
            departure_weight: 0.0,
            rebid_weight: 1.0,
        }
    }
}

/// A protocol-model market together with a deterministic stream of
/// arrival/departure/re-bid events, produced by
/// [`dynamic_market_scenario`].
#[derive(Clone)]
pub struct DynamicMarketScenario {
    /// The market at time zero.
    pub initial: GeneratedInstance,
    /// The events, in order; bidder indices are relative to the market
    /// state when the event is applied.
    pub events: Vec<MarketEvent>,
}

/// Generates a dynamic protocol-model market: the initial instance holds
/// `config.num_bidders` bidders, and the event stream is sampled from a
/// *universe* of `num_bidders + #arrivals` link placements so that arriving
/// bidders carry geometrically consistent conflicts. The instance uses the
/// arrival-order (identity) ordering π — the natural online ordering — and
/// the ρ certified for the full universe graph, which stays valid as the
/// market shrinks and grows.
///
/// Deterministic given `config.seed` and `dynamics`.
pub fn dynamic_market_scenario(
    config: &ScenarioConfig,
    dynamics: &DynamicMarketConfig,
    delta: f64,
) -> DynamicMarketScenario {
    let n0 = config.num_bidders;
    assert!(n0 >= 1, "the initial market needs at least one bidder");
    let mut rng = config.rng();

    // Sample the event kinds first so the universe of placements covers
    // every arrival. 0 = arrival, 1 = departure, 2 = rebid.
    let total = dynamics.arrival_weight + dynamics.departure_weight + dynamics.rebid_weight;
    assert!(total > 0.0, "event weights must not all be zero");
    let mut kinds = Vec::with_capacity(dynamics.num_events);
    let mut present_count = n0;
    for _ in 0..dynamics.num_events {
        let draw: f64 = rng.random_range(0.0..total);
        let mut kind = if draw < dynamics.arrival_weight {
            0
        } else if draw < dynamics.arrival_weight + dynamics.departure_weight {
            1
        } else {
            2
        };
        // Never empty the market: an inapplicable departure is re-drawn as
        // another kind *with positive weight* — never as a kind the caller
        // excluded (a `departures_only` stream must not silently contain
        // re-bids). If departures are the only weighted kind, the stream
        // simply ends early.
        if kind == 1 && present_count <= 1 {
            if dynamics.arrival_weight > 0.0 {
                kind = 0;
            } else if dynamics.rebid_weight > 0.0 {
                kind = 2;
            } else {
                break;
            }
        }
        match kind {
            0 => present_count += 1,
            1 => present_count -= 1,
            _ => {}
        }
        kinds.push(kind);
    }
    let num_arrivals = kinds.iter().filter(|&&k| k == 0).count();

    // The universe: one protocol-model placement covering the initial
    // bidders and every future arrival.
    let n_universe = n0 + num_arrivals;
    let points = if config.clustered {
        clustered_points(n_universe, &config.placement, &mut rng)
    } else {
        uniform_points(n_universe, config.placement.area_side, &mut rng)
    };
    let links = random_links(&points, 1.0, 4.0, &mut rng);
    let universe_graph = ProtocolModel::new(links, delta).conflict_graph();
    let universe_valuations = sample_valuations(
        n_universe,
        &config.valuations.kinds(),
        config.num_channels,
        config.value_range.0,
        config.value_range.1,
        &mut rng,
    );
    let rho = certified_rho(&universe_graph, &VertexOrdering::identity(n_universe)).rho_ceil();

    // The initial market: universe bidders 0..n0 (positional identity).
    let initial_vertices: Vec<usize> = (0..n0).collect();
    let (initial_graph, _) = universe_graph.induced_subgraph(&initial_vertices);
    let instance = AuctionInstance::new(
        config.num_channels,
        universe_valuations[..n0].to_vec(),
        ConflictStructure::Binary(initial_graph),
        VertexOrdering::identity(n0),
        rho,
    );

    // Replay the event kinds against a simulated presence list to phrase
    // each event in at-application-time indices.
    let mut present: Vec<usize> = (0..n0).collect(); // universe ids, session order
    let mut next_arrival = n0;
    let mut events = Vec::with_capacity(kinds.len());
    for kind in kinds {
        match kind {
            0 => {
                let u = next_arrival;
                next_arrival += 1;
                let neighbors: Vec<usize> = present
                    .iter()
                    .enumerate()
                    .filter(|&(_, &p)| universe_graph.has_edge(p, u))
                    .map(|(i, _)| i)
                    .collect();
                events.push(MarketEvent::Arrival {
                    valuation: universe_valuations[u].clone(),
                    neighbors,
                });
                present.push(u);
            }
            1 => {
                let idx = rng.random_range(0..present.len());
                events.push(MarketEvent::Departure { bidder: idx });
                present.remove(idx);
            }
            _ => {
                let idx = rng.random_range(0..present.len());
                let valuation = sample_valuations(
                    1,
                    &config.valuations.kinds(),
                    config.num_channels,
                    config.value_range.0,
                    config.value_range.1,
                    &mut rng,
                )
                .pop()
                .expect("sampled one valuation");
                events.push(MarketEvent::Rebid {
                    bidder: idx,
                    valuation,
                });
            }
        }
    }

    DynamicMarketScenario {
        initial: GeneratedInstance {
            instance,
            model_name: format!("dynamic-protocol(delta={delta},events={})", events.len()),
            certified_rho: rho,
            theoretical_rho: None,
        },
        events,
    }
}

// ---------------------------------------------------------------------------
// Multi-market exchanges: many regional markets with skewed traffic
// ---------------------------------------------------------------------------

/// Configuration of a deterministic multi-market event stream
/// ([`multi_market_scenario`]): M independent protocol-model markets whose
/// per-market traffic follows a Zipf-like law — a few hot markets carry
/// most of the events, a long tail stays nearly quiet — the traffic shape
/// of a multi-market exchange.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MultiMarketConfig {
    /// Number of markets `M`. Market index doubles as traffic rank: market
    /// 0 is the hottest.
    pub num_markets: usize,
    /// Bidders per market at time zero.
    pub bidders_per_market: usize,
    /// Channels per market.
    pub num_channels: usize,
    /// Total events across all markets (a market's share is apportioned by
    /// its Zipf weight; departures-only mixes may end a market's stream
    /// early, so the realized total can fall short).
    pub total_events: usize,
    /// Zipf exponent `s`: the market of traffic rank `r` receives a share
    /// proportional to `1 / (r + 1)^s`. `0.0` is uniform traffic; around
    /// `1.0` is the classic heavy skew.
    pub zipf_exponent: f64,
    /// Event mix, reusing [`DynamicMarketConfig`]'s weights; its
    /// `num_events` is ignored (overridden per market by the apportioned
    /// share).
    pub mix: DynamicMarketConfig,
    /// RNG seed for placements, valuations, event kinds, and the
    /// cross-market interleave.
    pub seed: u64,
}

impl MultiMarketConfig {
    /// A skewed (`s = 1.0`) default over `m` markets of `n` bidders each.
    pub fn new(m: usize, n: usize, num_channels: usize, total_events: usize, seed: u64) -> Self {
        MultiMarketConfig {
            num_markets: m,
            bidders_per_market: n,
            num_channels,
            total_events,
            zipf_exponent: 1.0,
            mix: DynamicMarketConfig::default(),
            seed,
        }
    }
}

/// The output of [`multi_market_scenario`]: initial markets plus one
/// globally interleaved event stream. Within each market, events appear in
/// the stream in exactly the order [`dynamic_market_scenario`] generated
/// them — bidder indices stay meaningful as long as a consumer preserves
/// per-market relative order (interleaving across markets is free).
#[derive(Clone)]
pub struct MultiMarketScenario {
    /// The markets at time zero, keyed by their exchange id.
    pub markets: Vec<(ssa_core::session::MarketId, GeneratedInstance)>,
    /// The interleaved stream: `(market, event)`, in submission order.
    pub events: Vec<(ssa_core::session::MarketId, MarketEvent)>,
}

/// Generates `M` independent dynamic protocol-model markets (each via
/// [`dynamic_market_scenario`] under a per-market derived seed) and
/// interleaves their event streams into one global sequence, weighted by
/// how much traffic each market has left — so hot markets' events spread
/// across the whole stream instead of clustering. Deterministic given
/// `config`.
pub fn multi_market_scenario(config: &MultiMarketConfig, delta: f64) -> MultiMarketScenario {
    use ssa_core::session::MarketId;
    assert!(config.num_markets >= 1, "need at least one market");

    // Zipf apportionment of total_events by largest remainder.
    let weights: Vec<f64> = (0..config.num_markets)
        .map(|r| 1.0 / ((r + 1) as f64).powf(config.zipf_exponent))
        .collect();
    let wsum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights
        .iter()
        .map(|w| config.total_events as f64 * w / wsum)
        .collect();
    let mut shares: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let assigned: usize = shares.iter().sum();
    let mut by_frac: Vec<usize> = (0..config.num_markets).collect();
    by_frac.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    for i in 0..config.total_events.saturating_sub(assigned) {
        shares[by_frac[i % config.num_markets]] += 1;
    }

    // One dynamic market per shard, seeded independently.
    let mut markets = Vec::with_capacity(config.num_markets);
    let mut queues: Vec<std::collections::VecDeque<MarketEvent>> =
        Vec::with_capacity(config.num_markets);
    for (m, &share) in shares.iter().enumerate() {
        let market_seed = config
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(m as u64 + 1));
        let scenario_cfg =
            ScenarioConfig::new(config.bidders_per_market, config.num_channels, market_seed);
        let dynamics = DynamicMarketConfig {
            num_events: share,
            ..config.mix
        };
        let scenario = dynamic_market_scenario(&scenario_cfg, &dynamics, delta);
        markets.push((MarketId(m as u64), scenario.initial));
        queues.push(scenario.events.into());
    }

    // Interleave: draw the next market proportionally to its remaining
    // events, preserving per-market order.
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut events = Vec::with_capacity(queues.iter().map(|q| q.len()).sum());
    loop {
        let total_rem: usize = queues.iter().map(|q| q.len()).sum();
        if total_rem == 0 {
            break;
        }
        let mut draw = rng.random_range(0..total_rem);
        for (m, queue) in queues.iter_mut().enumerate() {
            if draw < queue.len() {
                let event = queue.pop_front().expect("non-empty queue");
                events.push((MarketId(m as u64), event));
                break;
            }
            draw -= queue.len();
        }
    }

    MultiMarketScenario { markets, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_core::solver::SpectrumAuctionSolver;

    #[test]
    fn protocol_scenario_builds_consistent_instances() {
        let config = ScenarioConfig::new(20, 3, 42);
        let generated = protocol_scenario(&config, 1.0);
        assert_eq!(generated.instance.num_bidders(), 20);
        assert_eq!(generated.instance.num_channels, 3);
        assert!(generated.instance.rho >= 1.0);
        assert!(generated.certified_rho <= generated.theoretical_rho.unwrap() + 1e-9);
        // reproducibility
        let again = protocol_scenario(&config, 1.0);
        assert_eq!(
            generated.instance.welfare_upper_bound(),
            again.instance.welfare_upper_bound()
        );
    }

    #[test]
    fn disk_scenario_is_solvable_end_to_end() {
        let config = ScenarioConfig::new(15, 2, 7);
        let generated = disk_scenario(&config, 3.0, 8.0);
        let solver = SpectrumAuctionSolver::default();
        let outcome = solver.solve(&generated.instance);
        assert!(outcome.allocation.is_feasible(&generated.instance));
        assert!(outcome.lp_objective > 0.0);
    }

    #[test]
    fn physical_scenario_produces_weighted_instances() {
        let config = ScenarioConfig::new(12, 2, 11);
        let (generated, physical) = physical_scenario(
            &config,
            SinrParameters::new(3.0, 1.0, 0.01),
            PowerAssignment::Uniform,
        );
        assert!(generated.instance.conflicts.is_weighted());
        assert_eq!(physical.num_links(), 12);
        let solver = SpectrumAuctionSolver::default();
        let outcome = solver.solve(&generated.instance);
        assert!(outcome.allocation.is_feasible(&generated.instance));
    }

    #[test]
    fn power_control_scenario_schedules_winning_sets() {
        let config = ScenarioConfig::new(10, 2, 13);
        let (generated, pc) = power_control_scenario(&config, SinrParameters::new(3.0, 1.0, 0.05));
        let solver = SpectrumAuctionSolver::default();
        let outcome = solver.solve(&generated.instance);
        // every channel's winner set is independent in the Theorem 17 graph,
        // hence schedulable by the power-control procedure
        for j in 0..generated.instance.num_channels {
            let winners = outcome.allocation.winners_of_channel(j);
            assert!(
                pc.power_control(&winners).is_some(),
                "winners of channel {j} ({winners:?}) could not be power-controlled"
            );
        }
    }

    #[test]
    fn asymmetric_scenario_has_one_graph_per_channel() {
        let config = ScenarioConfig::new(12, 3, 17);
        let generated = asymmetric_scenario(&config, 1.0);
        assert!(generated.instance.conflicts.is_asymmetric());
        assert_eq!(generated.instance.num_channels, 3);
        let solver = SpectrumAuctionSolver::default();
        let outcome = solver.solve(&generated.instance);
        assert!(outcome.allocation.is_feasible(&generated.instance));
    }

    #[test]
    fn dynamic_market_streams_are_deterministic_and_apply_cleanly() {
        use ssa_core::solver::SolverBuilder;

        let config = ScenarioConfig::new(10, 2, 31);
        let dynamics = DynamicMarketConfig::default();
        let scenario = dynamic_market_scenario(&config, &dynamics, 1.0);
        assert_eq!(scenario.events.len(), dynamics.num_events);
        assert_eq!(scenario.initial.instance.num_bidders(), 10);

        // reproducibility
        let again = dynamic_market_scenario(&config, &dynamics, 1.0);
        assert_eq!(
            scenario.initial.instance.welfare_upper_bound(),
            again.initial.instance.welfare_upper_bound()
        );
        assert_eq!(scenario.events.len(), again.events.len());

        // the full stream drives a session without invalidating the LP
        let mut session = SolverBuilder::new().session(scenario.initial.instance.clone());
        session
            .resolve_relaxation()
            .expect("initial resolve failed");
        for event in &scenario.events {
            apply_event(&mut session, event);
        }
        let frac = session.resolve_relaxation().expect("final resolve failed");
        assert!(frac.converged);
        assert!(frac.satisfies_constraints(session.instance(), 1e-6));
        assert!(session.instance().num_bidders() >= 1);
    }

    #[test]
    fn arrivals_only_streams_grow_the_market() {
        use ssa_core::solver::SolverBuilder;

        let config = ScenarioConfig::new(6, 2, 77);
        let scenario =
            dynamic_market_scenario(&config, &DynamicMarketConfig::arrivals_only(4), 1.0);
        assert!(scenario
            .events
            .iter()
            .all(|e| matches!(e, MarketEvent::Arrival { .. })));
        let mut session = SolverBuilder::new().session(scenario.initial.instance.clone());
        session
            .resolve_relaxation()
            .expect("initial resolve failed");
        for event in &scenario.events {
            apply_event(&mut session, event);
        }
        session.resolve_relaxation().expect("warm resolve failed");
        assert_eq!(session.instance().num_bidders(), 10);
        // arrivals ride the dual-simplex row path, not a rebuild
        assert_eq!(session.stats().warm_row_resolves, 1);
        assert_eq!(session.stats().cold_resolves, 1);
    }

    #[test]
    fn multi_market_streams_are_deterministic_and_skewed() {
        let config = MultiMarketConfig::new(8, 6, 2, 64, 99);
        let scenario = multi_market_scenario(&config, 1.0);
        assert_eq!(scenario.markets.len(), 8);
        let total: usize = scenario.events.len();
        assert!(total <= 64 && total > 0);

        // Zipf skew: the hottest market carries strictly more traffic than
        // the coldest.
        let count = |m: u64| scenario.events.iter().filter(|(id, _)| id.0 == m).count();
        assert!(count(0) > count(7), "rank-0 market should dominate rank-7");

        // reproducibility, including the interleave
        let again = multi_market_scenario(&config, 1.0);
        assert_eq!(scenario.events.len(), again.events.len());
        for ((id_a, ev_a), (id_b, ev_b)) in scenario.events.iter().zip(&again.events) {
            assert_eq!(id_a, id_b);
            assert_eq!(format!("{ev_a:?}"), format!("{ev_b:?}"));
        }
        for ((id_a, gi_a), (id_b, gi_b)) in scenario.markets.iter().zip(&again.markets) {
            assert_eq!(id_a, id_b);
            assert_eq!(
                gi_a.instance.welfare_upper_bound(),
                gi_b.instance.welfare_upper_bound()
            );
        }
    }

    #[test]
    fn multi_market_per_market_subsequences_apply_cleanly() {
        use ssa_core::session::MarketId;
        use ssa_core::solver::SolverBuilder;

        let config = MultiMarketConfig::new(4, 8, 2, 24, 7);
        let scenario = multi_market_scenario(&config, 1.0);
        for (id, generated) in &scenario.markets {
            let mut session = SolverBuilder::new().session(generated.instance.clone());
            session.resolve_relaxation().expect("initial resolve");
            for (eid, event) in &scenario.events {
                if eid == id {
                    apply_event(&mut session, event);
                }
            }
            let frac = session.resolve_relaxation().expect("final resolve");
            assert!(frac.converged);
            assert!(frac.satisfies_constraints(session.instance(), 1e-6));
        }
        let _ = MarketId(0);
    }

    #[test]
    fn clustered_scenarios_produce_denser_conflict_graphs() {
        let mut uniform_cfg = ScenarioConfig::new(40, 2, 23);
        uniform_cfg.clustered = false;
        let mut clustered_cfg = ScenarioConfig::new(40, 2, 23);
        clustered_cfg.clustered = true;
        let g_uniform = protocol_scenario(&uniform_cfg, 1.0);
        let g_clustered = protocol_scenario(&clustered_cfg, 1.0);
        let edges = |gi: &GeneratedInstance| match &gi.instance.conflicts {
            ConflictStructure::Binary(g) => g.num_edges(),
            _ => unreachable!(),
        };
        assert!(
            edges(&g_clustered) >= edges(&g_uniform),
            "clustered placements should have at least as many conflicts"
        );
    }
}
