//! The answer checker: every timed answer is verified here, outside the
//! timed window.

use ssa_core::{AuctionInstance, AuctionOutcome, DualCertificate, FractionalAssignment};

/// Row-load tolerance of the fractional check.
const LOAD_TOL: f64 = 1e-6;
/// Relative tolerance of strong duality and of the reduced-cost sweep
/// (the sealed-bid audit's).
const DUAL_TOL: f64 = 1e-5;
/// A dual below this is negative.
const NEGATIVE_DUAL: f64 = -1e-7;

/// Checks one answer: the outcome converged, its allocation is feasible,
/// the fractional solution satisfies the relaxation, welfare does not
/// exceed the LP bound `b*`, and the dual certificate proves `b*` optimal.
pub fn check_answer(
    instance: &AuctionInstance,
    outcome: &AuctionOutcome,
    fractional: Option<&FractionalAssignment>,
    certificate: Option<&DualCertificate>,
) -> Result<(), String> {
    if !outcome.lp_converged {
        return Err("the LP did not converge".into());
    }
    if !outcome.allocation.is_feasible(instance) {
        return Err("the allocation is infeasible".into());
    }
    let fractional = fractional.ok_or("the session holds no fractional solution")?;
    if !fractional.satisfies_constraints(instance, LOAD_TOL) {
        return Err("the fractional solution violates a row".into());
    }
    let b_star = fractional.objective;
    if (outcome.lp_objective - b_star).abs() > DUAL_TOL * (1.0 + b_star.abs()) {
        return Err(format!(
            "the outcome's LP objective {} differs from the fractional objective {b_star}",
            outcome.lp_objective
        ));
    }
    if outcome.welfare > b_star + DUAL_TOL * (1.0 + b_star.abs()) {
        return Err(format!("welfare {} exceeds b* = {b_star}", outcome.welfare));
    }
    check_certificate(
        instance,
        certificate.ok_or("the session holds no dual certificate")?,
        b_star,
    )
}

/// Duals ≥ 0, strong duality, and no positive reduced cost in one
/// demand-oracle sweep, from the instance's public `forward_rows`,
/// `demand` and `value` calls.
pub fn check_certificate(
    instance: &AuctionInstance,
    certificate: &DualCertificate,
    objective: f64,
) -> Result<(), String> {
    let n = instance.num_bidders();
    let k = instance.num_channels;
    if certificate.vj.len() != n * k || certificate.bidder.len() != n {
        return Err("the certificate's dimensions do not match the instance".into());
    }
    let scale = 1.0 + objective.abs();
    let lowest = certificate
        .vj
        .iter()
        .chain(&certificate.bidder)
        .fold(0.0f64, |lo, &y| lo.min(y));
    if lowest < NEGATIVE_DUAL {
        return Err(format!("a dual is negative ({lowest})"));
    }
    let dual_objective =
        instance.rho * certificate.vj.iter().sum::<f64>() + certificate.bidder.iter().sum::<f64>();
    if (dual_objective - objective).abs() > DUAL_TOL * scale {
        return Err(format!(
            "strong duality fails: dual {dual_objective} vs primal {objective}"
        ));
    }
    for v in 0..n {
        let prices: Vec<f64> = (0..k)
            .map(|j| {
                instance
                    .forward_rows(v, j)
                    .into_iter()
                    .map(|(u, w)| w * certificate.vj[u * k + j])
                    .sum()
            })
            .collect();
        let best = instance.bidders[v].demand(&prices);
        let reduced = instance.value(v, best) - best.total_price(&prices) - certificate.bidder[v];
        if reduced > DUAL_TOL * scale {
            return Err(format!(
                "bidder {v} has a column with reduced cost {reduced}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_core::{Allocation, AuctionSession, ChannelSet, SolverBuilder};
    use ssa_workloads::{protocol_scenario, ScenarioConfig};

    fn solved() -> (AuctionSession, AuctionOutcome) {
        let instance = protocol_scenario(&ScenarioConfig::new(40, 3, 5), 1.0).instance;
        let mut session = SolverBuilder::new().session(instance);
        let outcome = session.resolve().expect("the clear succeeds");
        (session, outcome)
    }

    fn check(session: &AuctionSession, outcome: &AuctionOutcome) -> Result<(), String> {
        check_answer(
            session.instance(),
            outcome,
            session.last_fractional(),
            session.last_certificate(),
        )
    }

    #[test]
    fn accepts_a_correct_answer() {
        let (session, outcome) = solved();
        check(&session, &outcome).expect("a correct answer passes");
    }

    #[test]
    fn rejects_a_tampered_certificate() {
        let (session, outcome) = solved();
        let objective = outcome.lp_objective;
        let good = session.last_certificate().expect("converged").clone();

        let mut inflated = good.clone();
        inflated.bidder[0] += 1.0;
        assert!(check_certificate(session.instance(), &inflated, objective).is_err());

        let mut negative = good.clone();
        negative.vj[0] = -0.5;
        assert!(check_certificate(session.instance(), &negative, objective).is_err());

        // Moving one bidder's dual onto a row price keeps the dual
        // objective but leaves that bidder a column with positive
        // reduced cost.
        let v = (0..good.bidder.len())
            .find(|&v| good.bidder[v] > 1e-3)
            .expect("some bidder row is tight");
        let mut shifted = good.clone();
        let moved = shifted.bidder[v];
        shifted.bidder[v] = 0.0;
        shifted.vj[0] += moved / session.instance().rho;
        assert!(check_certificate(session.instance(), &shifted, objective).is_err());
    }

    #[test]
    fn rejects_an_infeasible_allocation() {
        let (session, mut outcome) = solved();
        let n = session.instance().num_bidders();
        let k = session.instance().num_channels;
        outcome.allocation = Allocation::from_bundles(vec![ChannelSet::full(k); n]);
        assert!(check(&session, &outcome).is_err());
    }

    #[test]
    fn rejects_welfare_above_the_bound() {
        let (session, mut outcome) = solved();
        outcome.welfare = outcome.lp_objective * 1.01 + 1.0;
        assert!(check(&session, &outcome).is_err());
    }
}
