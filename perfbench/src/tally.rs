//! What a run measured, and the metrics derived from it.

use crate::trace::Trace;
use ssa_core::{AuctionOutcome, SessionStats};
use std::time::{Duration, Instant};

/// The run's wall-clock budget.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether to start another op: always the first, then while time is
    /// left.
    pub fn more(&self, done: usize) -> bool {
        done == 0 || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// The generator seed of op `op` of a run seeded with `seed`.
pub fn op_seed(seed: u64, op: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(op.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z ^= z >> 31;
    z.wrapping_mul(0x94D0_49BB_1331_11EB) ^ (z >> 29)
}

#[derive(Default)]
pub struct Tally {
    /// Ops tried: clears, or exchange events.
    pub attempted: u64,
    pub failed: u64,
    /// Bidders cleared, or exchange events submitted, by successful ops.
    pub events: u64,
    /// Wall time per round (one clear on the clear workloads).
    pub rounds: Vec<Duration>,
    /// Wall time per market clear (the exchange's per-market resolve
    /// latencies on `exchange-day`).
    pub clears: Vec<Duration>,
    pub setups: Vec<Duration>,
    /// LP counters summed over every checked resolve.
    pub lp: LpTally,
    /// Session counter deltas summed over the run.
    pub session: SessionStats,
    pub rounded_nonempty: usize,
    pub removed: usize,
    pub welfare_ratio_sum: f64,
    pub outcomes: usize,
    pub exchange: ExchangeTally,
}

#[derive(Default)]
pub struct LpTally {
    pub resolves: usize,
    pub pivots: usize,
    pub degenerate: usize,
    pub columns: usize,
    pub pricing_rounds: usize,
    pub ftran_hits: usize,
    pub ftran_fallbacks: usize,
    pub density_sum: f64,
    pub refactorizations: usize,
    pub forced: usize,
    pub dual_pivots: usize,
}

#[derive(Default)]
pub struct ExchangeTally {
    pub submitted: usize,
    pub applied: usize,
    pub markets: usize,
    pub extra_waves: usize,
    pub drain: Duration,
    /// Sum of the per-market resolve latencies.
    pub resolve: Duration,
    /// Per-market resolve latency minus the replayed rounding time (traced
    /// runs only).
    pub lp_estimate: Duration,
}

impl Tally {
    /// Folds in one checked outcome.
    pub fn outcome(&mut self, outcome: &AuctionOutcome) {
        let info = &outcome.lp_info;
        let lp = &mut self.lp;
        lp.resolves += 1;
        lp.pivots += info.simplex_iterations;
        lp.degenerate += info.degenerate_pivots;
        lp.columns += info.num_columns;
        lp.pricing_rounds += info.pricing_rounds;
        lp.ftran_hits += info.ftran_sparse_hits;
        lp.ftran_fallbacks += info.ftran_dense_fallbacks;
        lp.density_sum += info.avg_result_density;
        lp.refactorizations += info.refactorizations;
        lp.forced += info.forced_refactorizations;
        lp.dual_pivots += info.dual_pivots;
        self.rounded_nonempty += outcome.rounding_stats.rounded_nonempty;
        self.removed += outcome.rounding_stats.removed_in_resolution;
        if outcome.lp_objective > 0.0 {
            self.welfare_ratio_sum += outcome.welfare / outcome.lp_objective;
            self.outcomes += 1;
        }
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&self) -> Metrics {
        let round_total: f64 = self.rounds.iter().map(Duration::as_secs_f64).sum();
        let mut m = Metrics::default();
        m.push("clear_s_p50", median(&self.clears), "s");
        m.push(
            "events_per_s",
            ratio(self.events as f64, round_total),
            "1/s",
        );
        m.push("round_ms_p50", median(&self.rounds) * 1e3, "ms");
        m.push("round_ms_p99", percentile(&self.rounds, 0.99) * 1e3, "ms");
        m.push("setup_s", median(&self.setups), "s");
        m.push("peak_rss_mb", peak_rss_mb(), "MB");
        m
    }

    /// The per-layer metrics of a traced run. `plain` is the untraced half
    /// of the same run (the same inputs); `op` names the op span.
    pub fn per_layer(&self, plain: &Tally, trace: &Trace, op: &str) -> Metrics {
        let totals = trace.totals();
        let span = |name: &str| totals.get(name).copied().unwrap_or_default();
        let ops = self.rounds.len().max(1) as f64;
        let lp = &self.lp;
        let resolves = lp.resolves.max(1) as f64;
        let exchange = &self.exchange;
        let on_exchange = exchange.markets > 0;
        let (relax_ms, rounding_ms) = if on_exchange {
            (
                exchange.lp_estimate.as_secs_f64() * 1e3 / exchange.markets as f64,
                span("rounding.replay").mean_ms(),
            )
        } else {
            (span("lp.relax").mean_ms(), span("rounding").mean_ms())
        };
        let op_span = span(op);
        let sum = |v: &[Duration]| v.iter().map(Duration::as_secs_f64).sum::<f64>();

        let mut m = Metrics::default();
        m.push(
            "interference.build_ms",
            span("interference.build").mean_ms(),
            "ms",
        );
        m.push("lp.relax_ms", relax_ms, "ms");
        m.push("lp.pivots", lp.pivots as f64 / resolves, "count");
        m.push(
            "lp.ms_per_pivot",
            ratio(relax_ms * resolves, lp.pivots as f64),
            "ms",
        );
        m.push(
            "lp.degenerate_frac",
            ratio(lp.degenerate as f64, lp.pivots as f64),
            "frac",
        );
        m.push("lp.columns", lp.columns as f64 / resolves, "count");
        m.push(
            "lp.pricing_rounds",
            lp.pricing_rounds as f64 / resolves,
            "count",
        );
        m.push(
            "lp.sparse_hit_frac",
            ratio(
                lp.ftran_hits as f64,
                (lp.ftran_hits + lp.ftran_fallbacks) as f64,
            ),
            "frac",
        );
        m.push("lp.result_density", lp.density_sum / resolves, "frac");
        m.push(
            "lp.refactorizations",
            lp.refactorizations as f64 / resolves,
            "count",
        );
        m.push(
            "lp.forced_refactorizations",
            lp.forced as f64 / resolves,
            "count",
        );
        m.push("lp.dual_pivots", lp.dual_pivots as f64 / resolves, "count");
        let s = &self.session;
        m.push("session.resolves", s.resolves as f64 / ops, "count");
        m.push(
            "session.warm_frac",
            ratio((s.resolves - s.cold_resolves) as f64, s.resolves as f64),
            "frac",
        );
        m.push(
            "session.cold_resolves",
            s.cold_resolves as f64 / ops,
            "count",
        );
        m.push(
            "session.mixed_batch_repairs",
            s.mixed_batch_repairs as f64 / ops,
            "count",
        );
        m.push("rounding.ms", rounding_ms, "ms");
        m.push(
            "rounding.removal_rate",
            ratio(self.removed as f64, self.rounded_nonempty as f64),
            "frac",
        );
        m.push(
            "rounding.welfare_ratio",
            ratio(self.welfare_ratio_sum, self.outcomes as f64),
            "frac",
        );
        m.push(
            "exchange.submit_ms",
            span("exchange.submit").mean_ms(),
            "ms",
        );
        m.push(
            "exchange.coalesced_frac",
            ratio(
                exchange.submitted.saturating_sub(exchange.applied) as f64,
                exchange.submitted as f64,
            ),
            "frac",
        );
        m.push(
            "exchange.markets_per_round",
            exchange.markets as f64 / ops,
            "count",
        );
        m.push(
            "exchange.extra_waves",
            exchange.extra_waves as f64 / ops,
            "count",
        );
        m.push("exchange.drain_ms", span("exchange.drain").mean_ms(), "ms");
        let (p50, p99) = if on_exchange {
            (median(&self.clears), percentile(&self.clears, 0.99))
        } else {
            (0.0, 0.0)
        };
        m.push("exchange.resolve_ms_p50", p50 * 1e3, "ms");
        m.push("exchange.resolve_ms_p99", p99 * 1e3, "ms");
        m.push(
            "exchange.parallelism",
            ratio(exchange.resolve.as_secs_f64(), exchange.drain.as_secs_f64()),
            "x",
        );
        m.push(
            "trace.overhead_frac",
            ratio(sum(&self.rounds), sum(&plain.rounds)) - 1.0,
            "frac",
        );
        m.push(
            "trace.coverage_frac",
            1.0 - ratio(op_span.self_time.as_secs_f64(), op_span.total.as_secs_f64()),
            "frac",
        );
        m.push(
            "check.ms",
            span("check").total.as_secs_f64() * 1e3 / ops,
            "ms",
        );
        m
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median in seconds (the mean of the middle two of an even count); 0 with
/// no samples. Runs of the slowest workload hold only a few clears, where
/// this is steadier than a nearest-rank p50.
fn median(samples: &[Duration]) -> f64 {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2].as_secs_f64(),
        n => (sorted[n / 2 - 1] + sorted[n / 2]).as_secs_f64() / 2.0,
    }
}

/// Nearest-rank percentile in seconds; 0 with no samples.
fn percentile(samples: &[Duration], p: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].as_secs_f64()
}

fn sorted(samples: &[Duration]) -> Vec<Duration> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 0.50), 0.050);
        assert_eq!(percentile(&ms, 0.99), 0.099);
        assert_eq!(percentile(&ms[..2], 0.99), 0.002);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&ms[..4]), 0.0025);
        assert_eq!(median(&ms[..3]), 0.002);
    }
}
