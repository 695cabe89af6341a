//! `clear-protocol` and `clear-physical`: one op is a cold clear of a fresh
//! instance through a default `SolverBuilder` session.

use crate::check::check_answer;
use crate::tally::{op_seed, Budget, Tally};
use crate::trace::Trace;
use ssa_core::{AuctionInstance, AuctionOutcome, AuctionSession, SolveError, SolverBuilder};
use ssa_interference::{PowerAssignment, SinrParameters};
use ssa_workloads::{physical_scenario, protocol_scenario, ScenarioConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Each op generates its instance this many times and keeps the last, so
/// `setup_s` is a median over several set-ups even when a run holds only a
/// couple of slow clears.
const SETUP_REPS: usize = 3;

/// The instance seed of E12's n = 2000 reference point.
const E12_SEED: u64 = 4242;

#[derive(Clone, Copy)]
pub enum Model {
    /// E12's reference point: protocol model, n = 2000, k = 4, seed 4242.
    /// Every op clears this one instance. Clear time varies from 7.1 s to
    /// 15.4 s across instance seeds 2..=11, far more than the four clears
    /// a run holds can average out, so a seed-drawn instance would make
    /// the workload's median a property of the seed rather than of the
    /// code.
    Protocol,
    /// Edge-weighted SINR graph, n = 400, k = 4, uniform power.
    Physical,
}

impl Model {
    /// A fresh instance for the op seeded with `seed`.
    fn generate(self, seed: u64) -> AuctionInstance {
        match self {
            Model::Protocol => {
                protocol_scenario(&ScenarioConfig::new(2000, 4, E12_SEED), 1.0).instance
            }
            Model::Physical => {
                physical_scenario(
                    &ScenarioConfig::new(400, 4, seed),
                    SinrParameters::new(3.0, 1.0, 0.02),
                    PowerAssignment::Uniform,
                )
                .0
                .instance
            }
        }
    }
}

/// Runs ops until the budget is spent. In a traced run each op clears its
/// instance twice, untraced and traced in alternating order, so the two
/// tallies compare the same inputs.
pub fn run(model: Model, seed: u64, budget: &Budget, trace: &mut Trace) -> (Tally, Tally) {
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let mut off = Trace::new(false);
    let mut op = 0u64;
    while budget.more(op as usize) {
        let instance = setup(model, op_seed(seed, op), op, trace, &mut plain);
        if trace.enabled() {
            if op.is_multiple_of(2) {
                one_clear(instance.clone(), op, &mut off, &mut plain);
                one_clear(instance, op, trace, &mut traced);
            } else {
                one_clear(instance.clone(), op, trace, &mut traced);
                one_clear(instance, op, &mut off, &mut plain);
            }
        } else {
            one_clear(instance, op, trace, &mut plain);
        }
        op += 1;
    }
    (plain, traced)
}

fn setup(
    model: Model,
    seed: u64,
    op: u64,
    trace: &mut Trace,
    tally: &mut Tally,
) -> AuctionInstance {
    let mut instance = None;
    for _ in 0..SETUP_REPS {
        let span = trace.open("setup", op, None);
        let start = Instant::now();
        let build = trace.open("interference.build", op, Some(span));
        instance = Some(model.generate(seed));
        trace.close(build);
        tally.setups.push(start.elapsed());
        trace.close(span);
    }
    instance.expect("SETUP_REPS > 0")
}

/// The timed window: open the session, solve the relaxation, round.
fn clear(
    instance: AuctionInstance,
    op: u64,
    trace: &mut Trace,
) -> (AuctionSession, Duration, Result<AuctionOutcome, SolveError>) {
    let span = trace.open("clear", op, None);
    let start = Instant::now();
    let mut session = SolverBuilder::new().session(instance);
    let relax = trace.open("lp.relax", op, Some(span));
    let relaxed = session.resolve_relaxation();
    trace.close(relax);
    let result = relaxed.and_then(|_| {
        let round = trace.open("rounding", op, Some(span));
        let outcome = session.resolve();
        trace.close(round);
        outcome
    });
    let took = start.elapsed();
    trace.close(span);
    (session, took, result)
}

fn one_clear(instance: AuctionInstance, op: u64, trace: &mut Trace, tally: &mut Tally) {
    tally.attempted += 1;
    let n = instance.num_bidders();
    let Ok((session, took, result)) = catch_unwind(AssertUnwindSafe(|| clear(instance, op, trace)))
    else {
        eprintln!("op {op}: the clear panicked");
        tally.failed += 1;
        return;
    };
    let span = trace.open("check", op, None);
    let verdict = result.map_err(|e| e.to_string()).and_then(|outcome| {
        check_answer(
            session.instance(),
            &outcome,
            session.last_fractional(),
            session.last_certificate(),
        )
        .map(|()| outcome)
    });
    trace.close(span);
    match verdict {
        Ok(outcome) => {
            tally.events += n as u64;
            tally.rounds.push(took);
            tally.clears.push(took);
            tally.outcome(&outcome);
            tally.session.accumulate(&session.stats());
        }
        Err(why) => {
            eprintln!("op {op}: {why}");
            tally.failed += 1;
        }
    }
}
