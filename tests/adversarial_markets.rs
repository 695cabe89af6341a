//! The mechanism's truthfulness/revenue properties survive the three
//! adversarial sealed-bid workloads at n ∈ {50, 200}.
//!
//! At both sizes the commit–reveal protocol itself is checked end to end:
//! the resolve succeeds, the allocation is feasible, pay-as-bid payments
//! are exactly first price on the revealed bids (so every bidder is
//! ex-post individually rational at its revealed valuation), revenue
//! accounting closes (Σ payments = realized welfare, plus forfeited
//! collateral from reneging committers), and the audit pass stays sound —
//! clean on honest runs, flagging every shill.
//!
//! At n = 50 the full Lavi–Swamy [`TruthfulMechanism`] battery from
//! `mechanism_integration.rs` additionally runs on the post-adversarial
//! market (feasible lottery, probabilities summing to one, non-negative
//! expected utilities, revenue bounded by welfare) — the adversaries shape
//! *which* market gets resolved, never the mechanism's guarantees on it.
//! The n + 1 VCG-style solves make that battery a debug-build
//! non-starter at n = 200, where the first-price properties above are the
//! (still mechanism-level) check.

use spectrum_auctions::auction::session::AuctionSession;
use spectrum_auctions::auction::solver::SolverBuilder;
use spectrum_auctions::mechanism::sealed_bid::{
    audit, commit_to, nonce_from_seed, AuditFinding, CollateralPolicy, Opening, ParticipantKind,
    RevealStatus, SealedBidAuction, SealedBidOutcome,
};
use spectrum_auctions::mechanism::TruthfulMechanism;
use spectrum_auctions::workloads::{
    colluding_clique_scenario, shill_stream_scenario, sniping_burst_scenario,
    AdversarialSealedMarket, ScenarioConfig, SealedKind, SealedRole,
};

const SIZES: [usize; 2] = [50, 200];

/// Runs the commit–reveal protocol over the market's specs (shills
/// included, when the plan has any) and returns the outcome plus the
/// resolved session, whose instance is the final post-adversarial market.
fn drive(market: &AdversarialSealedMarket) -> (SealedBidOutcome, AuctionSession) {
    let session = SolverBuilder::new()
        .rounding(13, 16)
        .session(market.initial.instance.clone());
    let mut auction =
        SealedBidAuction::open(session, CollateralPolicy::default()).expect("open sealed round");
    let mut ids = Vec::with_capacity(market.participants.len());
    for spec in &market.participants {
        let id = auction.next_participant_id();
        let kind = match &spec.kind {
            SealedKind::Entrant { conflicts } => ParticipantKind::Entrant {
                conflicts: conflicts.clone(),
            },
            SealedKind::Incumbent { bidder } => ParticipantKind::Incumbent { bidder: *bidder },
        };
        let commitment = commit_to(id, &spec.valuation, &nonce_from_seed(spec.nonce_seed));
        auction
            .submit_commitment(kind, commitment, spec.declared_cap)
            .expect("commitment accepted");
        ids.push(id);
    }
    auction.close_commits().expect("close commits");
    for (spec, &id) in market.participants.iter().zip(&ids) {
        if spec.reveals {
            let status = auction
                .submit_opening(Opening {
                    participant: id,
                    valuation: spec.valuation.clone(),
                    nonce: nonce_from_seed(spec.nonce_seed),
                })
                .expect("opening processed");
            assert_eq!(status, RevealStatus::Accepted);
        }
    }
    for shill in &market.shills {
        auction
            .inject_shill(shill.valuation.build(), shill.conflicts.clone())
            .expect("shill injected");
    }
    let outcome = auction.resolve().expect("sealed resolve");
    (outcome, auction.into_session())
}

/// Protocol-level first-price properties on the resolved market.
fn assert_first_price_properties(
    context: &str,
    outcome: &SealedBidOutcome,
    session: &AuctionSession,
) {
    let instance = session.instance();
    assert!(
        outcome.outcome.allocation.is_feasible(instance),
        "{context}: infeasible allocation"
    );
    let mut revenue = 0.0;
    for v in 0..instance.num_bidders() {
        let bundle = outcome.outcome.allocation.bundle(v);
        let value = instance.value(v, bundle);
        let payment = outcome.payments[v];
        assert!(payment >= 0.0, "{context}: negative payment for {v}");
        if bundle.is_empty() {
            assert_eq!(payment, 0.0, "{context}: loser {v} charged");
        } else {
            // Pay-as-bid: the payment IS the revealed value, so utility at
            // the revealed valuation is exactly zero — never negative.
            assert!(
                (payment - value).abs() <= 1e-9,
                "{context}: payment {payment} is not first price on value {value}"
            );
        }
        revenue += payment;
    }
    // Σ payments = Σ revealed values of assigned bundles = realized welfare.
    assert!(
        (revenue - outcome.outcome.welfare).abs() <= 1e-6 * (1.0 + outcome.outcome.welfare.abs()),
        "{context}: first-price revenue {revenue} != welfare {}",
        outcome.outcome.welfare
    );
    let forfeited: f64 = outcome.forfeitures.iter().map(|f| f.amount).sum();
    assert!(forfeited >= 0.0);
}

/// The n = 50 Lavi–Swamy battery from `mechanism_integration.rs`, run on
/// the post-adversarial market.
fn assert_mechanism_properties(
    context: &str,
    instance: &spectrum_auctions::auction::AuctionInstance,
) {
    let mechanism = TruthfulMechanism::default();
    let outcome = mechanism.run(instance, 7);
    assert!(
        outcome.allocation.is_feasible(instance),
        "{context}: mechanism drew an infeasible allocation"
    );
    let total_probability: f64 = outcome.decomposition.support.iter().map(|(p, _)| p).sum();
    assert!(
        (total_probability - 1.0).abs() < 1e-6,
        "{context}: lottery does not sum to one"
    );
    for (_, allocation) in &outcome.decomposition.support {
        assert!(allocation.is_feasible(instance));
    }
    let mut revenue = 0.0;
    for v in 0..instance.num_bidders() {
        assert!(outcome.payments[v] >= 0.0);
        let value = instance.value(v, outcome.allocation.bundle(v));
        assert!(
            outcome.payments[v] <= value + 1e-6,
            "{context}: payment exceeds realized value for {v}"
        );
        assert!(
            outcome.expected_utility(instance, v) >= -1e-6,
            "{context}: negative expected utility for {v}"
        );
        revenue += outcome.payments[v];
    }
    let welfare = outcome.allocation.social_welfare(instance);
    assert!(
        revenue <= welfare + 1e-6,
        "{context}: revenue {revenue} exceeds welfare {welfare}"
    );
}

#[test]
fn shill_streams_leave_mechanism_properties_intact() {
    for n in SIZES {
        let context = format!("shill stream n={n}");
        let config = ScenarioConfig::new(n, 2, 101 + n as u64);
        let market = shill_stream_scenario(&config, 1.0, 5, 3, 4.0);
        let (outcome, session) = drive(&market);
        assert_first_price_properties(&context, &outcome, &session);
        assert!(
            outcome.forfeitures.is_empty(),
            "{context}: honest entrants forfeited"
        );

        // The attack is visible: every shill arrival is flagged.
        let report = audit(&outcome.transcript);
        let shill_flags = report
            .findings
            .iter()
            .filter(|f| matches!(f, AuditFinding::ShillArrival { .. }))
            .count();
        assert_eq!(
            shill_flags,
            market.shills.len(),
            "{context}: shills undetected"
        );

        if n == 50 {
            assert_mechanism_properties(&context, session.instance());
        }
    }
}

#[test]
fn sniping_bursts_leave_mechanism_properties_intact() {
    for n in SIZES {
        let context = format!("sniping burst n={n}");
        let config = ScenarioConfig::new(n, 2, 211 + n as u64);
        let market = sniping_burst_scenario(&config, 1.0, 6, 3, 3.0);
        let (outcome, session) = drive(&market);
        assert_first_price_properties(&context, &outcome, &session);

        // Every sniper forfeits its (cap-inflated) collateral and is gone
        // from the final market; the audit accepts the honest bookkeeping.
        let snipers: Vec<_> = market
            .participants
            .iter()
            .filter(|p| p.role == SealedRole::Sniper)
            .collect();
        assert_eq!(outcome.forfeitures.len(), snipers.len());
        let policy = CollateralPolicy::default();
        let expected: f64 = snipers
            .iter()
            .map(|p| policy.required(p.declared_cap))
            .sum();
        let forfeited: f64 = outcome.forfeitures.iter().map(|f| f.amount).sum();
        assert!(
            (forfeited - expected).abs() <= 1e-9,
            "{context}: forfeited {forfeited}, expected {expected}"
        );
        assert_eq!(
            session.instance().num_bidders(),
            n + market.participants.len() - snipers.len(),
            "{context}: snipers not excluded"
        );
        let report = audit(&outcome.transcript);
        assert!(
            report.clean(),
            "{context}: honest forfeitures flagged {:?}",
            report.findings
        );

        if n == 50 {
            assert_mechanism_properties(&context, session.instance());
        }
    }
}

#[test]
fn colluding_cliques_leave_mechanism_properties_intact() {
    for n in SIZES {
        let context = format!("colluding clique n={n}");
        let mut config = ScenarioConfig::new(n, 2, 307 + n as u64);
        config.clustered = true; // denser graph => a real clique to collude on
        let market = colluding_clique_scenario(&config, 1.0, 4, 0.3);
        let ring = &market.rings[0];
        assert!(ring.len() >= 2, "{context}: no clique to collude on");
        let (outcome, session) = drive(&market);
        assert_first_price_properties(&context, &outcome, &session);
        assert!(
            outcome.forfeitures.is_empty(),
            "{context}: colluders all revealed"
        );

        // The supporting ring members revealed zeros, so pay-as-bid charges
        // them nothing — the collusion shapes the market, not the rules.
        for &member in &ring[1..] {
            assert_eq!(
                outcome.payments[member], 0.0,
                "{context}: zero-revealing colluder {member} charged"
            );
        }
        let report = audit(&outcome.transcript);
        assert!(
            report.clean(),
            "{context}: coordinated but valid reveals flagged"
        );

        if n == 50 {
            assert_mechanism_properties(&context, session.instance());
        }
    }
}
