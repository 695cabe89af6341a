//! E17: multi-market exchange throughput — sustained events/sec and
//! resolve-latency percentiles on a [`SpectrumExchange`] fleet.
//!
//! A Zipf-skewed event stream (hot markets take most of the traffic) is
//! submitted in batches and drained on the persistent work-stealing pool
//! behind the `rayon` shim. The fleet shapes are `M ∈ {256, 1024}` markets
//! at `n = 50` bidders, plus `M = 256` at `n = 200`, and one burst cell.
//!
//! Every session's cold first solve is primed *outside* the timed window
//! (a self-re-bid per market), so the numbers are the steady-state warm
//! path the exchange actually runs. The measured phase times submit +
//! drain together; latencies are per-shard resolve times from
//! [`DrainReport`]. `BENCH_e17.json` records the host's `cores` and the
//! `pool_threads` the drains ran on (`SSA_POOL_THREADS` overrides it; at
//! 1 the drains run inline on the calling thread).
//!
//! Not a Criterion bench: one pass per cell is the measurement (each cell
//! is thousands of LP resolves — plenty of samples internally), and the
//! output is a table plus a `BENCH_e17.json` snapshot for trajectory
//! tracking.
//!
//! [`SpectrumExchange`]: ssa_exchange::SpectrumExchange
//! [`DrainReport`]: ssa_exchange::DrainReport

use ssa_bench::table::Table;
use ssa_core::session::MarketEvent;
use ssa_core::solver::SolverBuilder;
use ssa_exchange::SpectrumExchange;
use ssa_workloads::{multi_market_scenario, MultiMarketConfig, MultiMarketScenario};
use std::time::{Duration, Instant};

const K: usize = 2;
/// Rounding trials per full resolve (kept small: the LP dominates and the
/// rounding bill is identical across configurations).
const TRIALS: usize = 2;
struct Cell {
    markets: usize,
    bidders: usize,
    events: usize,
    /// Batches the stream is split into (one drain per batch): many small
    /// batches = steady traffic, few huge ones = bursts.
    batches: usize,
}

struct Record {
    markets: usize,
    bidders: usize,
    batches: usize,
    events: usize,
    wall: Duration,
    events_per_sec: f64,
    p50: Duration,
    p99: Duration,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn fmt_us(d: Duration) -> String {
    format!("{:.0}", d.as_secs_f64() * 1e6)
}

fn run_cell(cell: &Cell, scenario: &MultiMarketScenario) -> Record {
    let mut exchange = SpectrumExchange::builder()
        .solver(SolverBuilder::new().rounding(17, TRIALS))
        .build();
    for (id, generated) in &scenario.markets {
        exchange
            .open_market(*id, generated.instance.clone())
            .expect("open_market failed");
    }

    // Prime every session's cold first solve outside the timed window: a
    // self-re-bid leaves the market unchanged but forces the full cold
    // pipeline, so the measured phase is pure steady-state warm traffic.
    for (id, generated) in &scenario.markets {
        exchange
            .submit(
                *id,
                MarketEvent::Rebid {
                    bidder: 0,
                    valuation: generated.instance.bidders[0].clone(),
                },
            )
            .expect("warm-up submit failed");
    }
    exchange.resolve_dirty().expect("warm-up drain failed");
    let warmed = exchange.stats();

    let batch_len = scenario.events.len().div_ceil(cell.batches).max(1);
    let mut latencies: Vec<Duration> = Vec::new();
    let start = Instant::now();
    for batch in scenario.events.chunks(batch_len) {
        exchange
            .submit_batch(batch.iter().cloned())
            .expect("submit failed");
        let report = exchange.resolve_dirty().expect("drain failed");
        for resolve in &report.resolves {
            latencies.extend_from_slice(&resolve.latencies);
        }
    }
    let wall = start.elapsed();
    latencies.sort_unstable();

    let stats = exchange.stats();
    let events = stats.events_submitted - warmed.events_submitted;
    assert_eq!(events, scenario.events.len(), "stream fully submitted");
    Record {
        markets: cell.markets,
        bidders: cell.bidders,
        batches: cell.batches,
        events,
        wall,
        events_per_sec: events as f64 / wall.as_secs_f64(),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
    }
}

fn json_snapshot(records: &[Record], cores: usize, pool_threads: usize, smoke: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"e17_exchange\",\n");
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!("  \"pool_threads\": {pool_threads},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"records\": [\n");
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"markets\": {}, \"bidders\": {}, \"batches\": {}, \
                 \"events\": {}, \"wall_s\": {:.3}, \
                 \"events_per_sec\": {:.1}, \"p50_us\": {:.0}, \"p99_us\": {:.0}}}",
                r.markets,
                r.bidders,
                r.batches,
                r.events,
                r.wall.as_secs_f64(),
                r.events_per_sec,
                r.p50.as_secs_f64() * 1e6,
                r.p99.as_secs_f64() * 1e6,
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push('\n');
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn main() {
    let smoke = std::env::var_os("SSA_BENCH_SMOKE").is_some_and(|v| v != "0");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_threads = rayon::current_num_threads();
    println!(
        "e17_exchange: {cores} core(s), {pool_threads} pool worker(s) \
         (set SSA_POOL_THREADS to override)"
    );

    let cells: Vec<Cell> = if smoke {
        vec![Cell {
            markets: 16,
            bidders: 12,
            events: 64,
            batches: 4,
        }]
    } else {
        vec![
            Cell {
                markets: 256,
                bidders: 50,
                events: 2048,
                batches: 16,
            },
            Cell {
                markets: 1024,
                bidders: 50,
                events: 4096,
                batches: 16,
            },
            Cell {
                markets: 256,
                bidders: 200,
                events: 1024,
                batches: 16,
            },
            // burst traffic: the whole stream lands in two drains, so hot
            // markets queue dozens of events per resolve.
            Cell {
                markets: 256,
                bidders: 50,
                events: 2048,
                batches: 2,
            },
        ]
    };

    let mut table = Table::new(
        "E17",
        "multi-market exchange: events/sec and resolve latency (batched drains)",
        &["M", "n", "drains", "events", "ev/s", "p50us", "p99us"],
    );
    let mut records: Vec<Record> = Vec::new();
    for cell in &cells {
        let config = MultiMarketConfig::new(cell.markets, cell.bidders, K, cell.events, 1700);
        let scenario = multi_market_scenario(&config, 1.0);
        if !smoke {
            // throwaway pass: each run builds its own exchange, so
            // repeating is valid — the kept run sees warm caches instead
            // of first-touch noise.
            run_cell(cell, &scenario);
        }
        let record = run_cell(cell, &scenario);
        table.push_row(vec![
            record.markets.to_string(),
            record.bidders.to_string(),
            record.batches.to_string(),
            record.events.to_string(),
            format!("{:.0}", record.events_per_sec),
            fmt_us(record.p50),
            fmt_us(record.p99),
        ]);
        records.push(record);
    }
    print!("{}", table.render());

    // `cargo bench` runs with the package dir as cwd — anchor the snapshot
    // at the workspace root next to BENCH_e12.json. Smoke runs (CI) never
    // overwrite the committed full-grid numbers.
    if !smoke {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e17.json");
        let snapshot = json_snapshot(&records, cores, pool_threads, smoke);
        if std::fs::write(path, &snapshot).is_ok() {
            println!("(exchange snapshot written to BENCH_e17.json)");
        }
    }
}
