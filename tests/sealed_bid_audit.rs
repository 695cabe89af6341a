//! Sealed-bid audit integration tests: the audit pass accepts a transcript
//! **iff nothing was tampered with**.
//!
//! * Honest commit–reveal runs — including ones where participants renege
//!   and forfeit — audit clean, and reach outcomes identical to submitting
//!   the same bids directly to an [`AuctionSession`] under the same solver
//!   options (the protocol adds credibility, not noise).
//! * Every attack in the model is flagged: auctioneer shill injection
//!   ([`AuditFinding::ShillArrival`]), selective reveal suppression
//!   ([`AuditFinding::RevealSuppressed`]), and any single post-hoc mutation
//!   of a revealed bid, a payment entry, or a forfeiture entry.
//! * A transcript is outside input, so the audit must also work without
//!   its dual certificate. Every audit here runs twice: on the transcript
//!   as sealed, and with the certificate stripped, where the audit
//!   re-solves from scratch and must reach the same findings.
//!
//! [`AuctionSession`]: spectrum_auctions::auction::session::AuctionSession

use proptest::prelude::*;
use spectrum_auctions::auction::session::BidderConflicts;
use spectrum_auctions::auction::session::SessionLogEntry;
use spectrum_auctions::auction::solver::SolverBuilder;
use spectrum_auctions::auction::{
    AdditiveValuation, AuctionInstance, AuctionOutcome, ConflictStructure, Valuation,
    ValuationSnapshot,
};
use spectrum_auctions::conflict_graph::{ConflictGraph, VertexOrdering, WeightedConflictGraph};
use spectrum_auctions::mechanism::sealed_bid::{
    audit, commit_to, nonce_from_seed, AuditFinding, AuditReport, CollateralPolicy, ForfeitReason,
    Opening, ParticipantKind, RevealStatus, SealedBidAuction, SealedBidError, SealedBidOutcome,
    SealedTranscript,
};
use spectrum_auctions::workloads::{
    colluding_clique_scenario, shill_stream_scenario, sniping_burst_scenario,
    AdversarialSealedMarket, ScenarioConfig, SealedKind,
};
use std::sync::Arc;

const ROUNDING_SEED: u64 = 9;
const ROUNDING_TRIALS: usize = 16;

fn sealed_session(
    market: &AdversarialSealedMarket,
) -> spectrum_auctions::auction::session::AuctionSession {
    SolverBuilder::new()
        .rounding(ROUNDING_SEED, ROUNDING_TRIALS)
        .session(market.initial.instance.clone())
}

/// Runs the commit–reveal protocol over `market`'s specs: every participant
/// commits, the revealers open, and (optionally) the auctioneer injects the
/// market's shill plan during the reveal phase.
fn drive(market: &AdversarialSealedMarket, inject_shills: bool) -> SealedBidOutcome {
    let session = sealed_session(market);
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
        let assigned = auction
            .submit_commitment(kind, commitment, spec.declared_cap)
            .expect("commitment accepted");
        assert_eq!(assigned, id);
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
    if inject_shills {
        for shill in &market.shills {
            auction
                .inject_shill(shill.valuation.build(), shill.conflicts.clone())
                .expect("shill injected");
        }
    }
    auction.resolve().expect("sealed resolve")
}

/// Submits the same revealed bids directly to a plain session — no
/// commitments, no placeholders — resolves under identical options, and
/// computes the first-price payments the revealed bids imply.
fn direct(market: &AdversarialSealedMarket) -> (AuctionOutcome, Vec<f64>) {
    let mut session = sealed_session(market);
    for spec in &market.participants {
        assert!(spec.reveals, "direct comparison needs an all-revealing run");
        match &spec.kind {
            SealedKind::Entrant { conflicts } => {
                session.add_bidder(spec.valuation.build(), conflicts.clone());
            }
            SealedKind::Incumbent { bidder } => {
                session.update_valuation(*bidder, spec.valuation.build());
            }
        }
    }
    let outcome = session.resolve().expect("direct resolve");
    let instance = session.instance();
    let payments = (0..instance.num_bidders())
        .map(|v| {
            let bundle = outcome.allocation.bundle(v);
            if bundle.is_empty() {
                0.0
            } else {
                instance.value(v, bundle)
            }
        })
        .collect();
    (outcome, payments)
}

/// Audits `transcript` as sealed, then once more with its dual certificate
/// stripped: that audit must re-solve from scratch and flag the same kinds
/// of finding in the same order (a `NotOptimal` slack is measured by the
/// dual bound in one audit and by the re-solve in the other, so only its
/// kind is compared). Returns the first report.
fn audit_twice(transcript: &SealedTranscript) -> AuditReport {
    let report = audit(transcript);
    let uncertified = SealedTranscript {
        certificate: None,
        ..transcript.clone()
    };
    let resolved = audit(&uncertified);
    assert!(
        resolved.resolved_from_scratch,
        "an audit without a certificate re-solves from scratch"
    );
    let kinds = |r: &AuditReport| {
        r.findings
            .iter()
            .map(std::mem::discriminant)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        kinds(&resolved),
        kinds(&report),
        "the certificate and the re-solve disagree: {:?} vs {:?}",
        report.findings,
        resolved.findings
    );
    report
}

fn expect_finding(report: &AuditReport, context: &str, predicate: impl Fn(&AuditFinding) -> bool) {
    assert!(
        report.findings.iter().any(predicate),
        "{context}: expected finding missing, got {:?}",
        report.findings
    );
}

/// Honest commit–reveal reaches the exact same outcome as submitting the
/// revealed bids directly — allocation, welfare, LP objective — and the
/// first-price payments equal the revealed value of each assigned bundle.
#[test]
fn honest_commit_reveal_equals_direct_submission() {
    let config = ScenarioConfig::new(10, 2, 71);
    let entrants = shill_stream_scenario(&config, 1.0, 4, 0, 1.0);
    let mut clustered = ScenarioConfig::new(12, 2, 72);
    clustered.clustered = true;
    let rebids = colluding_clique_scenario(&clustered, 1.0, 3, 0.4);
    for (context, market) in [("entrants", &entrants), ("rebids", &rebids)] {
        let sealed = drive(market, false);
        let (plain, plain_payments) = direct(market);
        assert_eq!(
            sealed.outcome.allocation.bundles(),
            plain.allocation.bundles(),
            "{context}: sealed and direct allocations diverge"
        );
        assert!(
            (sealed.outcome.welfare - plain.welfare).abs() <= 1e-9,
            "{context}: welfare {} vs {}",
            sealed.outcome.welfare,
            plain.welfare
        );
        assert!(
            (sealed.outcome.lp_objective - plain.lp_objective).abs() <= 1e-9,
            "{context}: LP objective diverges"
        );
        assert!(
            sealed.forfeitures.is_empty(),
            "{context}: honest run forfeited"
        );
        assert_eq!(sealed.payments.len(), plain_payments.len());
        for (v, (&got, &want)) in sealed.payments.iter().zip(&plain_payments).enumerate() {
            assert!(
                (got - want).abs() <= 1e-9,
                "{context}: payment {v} is {got}, direct first price is {want}"
            );
        }
        let report = audit_twice(&sealed.transcript);
        assert!(
            report.clean(),
            "{context}: honest run flagged {:?}",
            report.findings
        );
    }
}

/// Shill injection is flagged, and the same market run honestly audits
/// clean — by certificate, and by re-solve once the certificate is
/// stripped.
#[test]
fn shill_injection_is_flagged_across_engine_combos() {
    for seed in [81u64, 82] {
        let config = ScenarioConfig::new(10, 2, seed);
        let market = shill_stream_scenario(&config, 1.0, 3, 2, 4.0);
        let context = format!("seed {seed}");
        let honest = drive(&market, false);
        let report = audit_twice(&honest.transcript);
        assert!(
            report.clean(),
            "{context}: honest run flagged {:?}",
            report.findings
        );
        assert!(
            report.certificate_checked,
            "{context}: audit skipped the certificate"
        );

        let attacked = drive(&market, true);
        let report = audit_twice(&attacked.transcript);
        expect_finding(&report, &context, |f| {
            matches!(f, AuditFinding::ShillArrival { .. })
        });
        let shill_flags = report
            .findings
            .iter()
            .filter(|f| matches!(f, AuditFinding::ShillArrival { .. }))
            .count();
        assert_eq!(
            shill_flags,
            market.shills.len(),
            "{context}: every injected shill is flagged exactly once"
        );
    }
}

/// A single tampered payment entry is detected on random markets.
#[test]
fn single_tampered_payment_is_flagged_across_engine_combos() {
    for seed in [91u64, 92] {
        let config = ScenarioConfig::new(9, 2, seed);
        let market = shill_stream_scenario(&config, 1.0, 3, 0, 1.0);
        let context = format!("seed {seed}");
        let outcome = drive(&market, false);
        assert!(
            audit_twice(&outcome.transcript).clean(),
            "{context}: dirty baseline"
        );
        // Tamper a winner's entry if there is one, else any entry.
        let target = outcome
            .transcript
            .payments
            .iter()
            .position(|&p| p > 0.0)
            .unwrap_or(0);
        let mut tampered = outcome.transcript.clone();
        tampered.payments[target] += 1.0;
        let report = audit_twice(&tampered);
        expect_finding(
            &report,
            &context,
            |f| matches!(f, AuditFinding::PaymentMismatch { bidder, .. } if *bidder == target),
        );
    }
}

/// A rewritten revealed bid (the applied re-bid diverges from the published
/// opening) is flagged.
#[test]
fn single_tampered_revealed_bid_is_flagged() {
    let mut config = ScenarioConfig::new(12, 2, 93);
    config.clustered = true;
    let market = colluding_clique_scenario(&config, 1.0, 3, 0.4);
    let outcome = drive(&market, false);
    assert!(audit_twice(&outcome.transcript).clean());

    let mut tampered = outcome.transcript.clone();
    let rebid = tampered
        .events
        .iter_mut()
        .find_map(|event| match event {
            SessionLogEntry::Rebid { valuation, .. } => valuation.as_mut(),
            _ => None,
        })
        .expect("colluding runs re-bid incumbents");
    *rebid = ValuationSnapshot::Additive {
        channel_values: vec![123.0; market.initial.instance.num_channels],
    };
    let report = audit_twice(&tampered);
    expect_finding(&report, "tampered re-bid", |f| {
        matches!(f, AuditFinding::TamperedBid { .. })
    });
}

/// A doctored forfeiture ledger entry (skimmed amount) is flagged.
#[test]
fn single_tampered_forfeiture_entry_is_flagged() {
    let config = ScenarioConfig::new(9, 2, 94);
    let market = sniping_burst_scenario(&config, 1.0, 4, 2, 3.0);
    let outcome = drive(&market, false);
    assert!(audit_twice(&outcome.transcript).clean());
    assert_eq!(outcome.forfeitures.len(), 2, "both snipers forfeit");

    let mut tampered = outcome.transcript.clone();
    tampered.forfeitures[0].amount += 0.5;
    let report = audit_twice(&tampered);
    let target = tampered.forfeitures[0].participant;
    expect_finding(
        &report,
        "tampered forfeiture",
        |f| matches!(f, AuditFinding::ForfeitureMismatch { participant, .. } if *participant == target),
    );
}

/// Selective reveal (the auctioneer discards a valid opening and books the
/// participant as a non-revealer) is flagged from the out-of-band published
/// opening.
#[test]
fn suppressed_reveal_is_flagged() {
    let config = ScenarioConfig::new(10, 2, 95);
    let market = shill_stream_scenario(&config, 1.0, 3, 0, 1.0);
    let session = sealed_session(&market);
    let mut auction =
        SealedBidAuction::open(session, CollateralPolicy::default()).expect("open sealed round");
    let mut ids = Vec::new();
    for spec in &market.participants {
        let id = auction.next_participant_id();
        let SealedKind::Entrant { conflicts } = &spec.kind else {
            unreachable!("shill streams only stage entrants")
        };
        let commitment = commit_to(id, &spec.valuation, &nonce_from_seed(spec.nonce_seed));
        auction
            .submit_commitment(
                ParticipantKind::Entrant {
                    conflicts: conflicts.clone(),
                },
                commitment,
                spec.declared_cap,
            )
            .expect("commitment accepted");
        ids.push(id);
    }
    auction.close_commits().expect("close commits");
    for (pos, (spec, &id)) in market.participants.iter().zip(&ids).enumerate() {
        let opening = Opening {
            participant: id,
            valuation: spec.valuation.clone(),
            nonce: nonce_from_seed(spec.nonce_seed),
        };
        if pos == 0 {
            // The auctioneer "loses" the first opening; the bidder's
            // out-of-band publication still reaches the transcript.
            auction
                .suppress_reveal(opening)
                .expect("suppression staged");
        } else {
            assert_eq!(
                auction.submit_opening(opening).expect("opening processed"),
                RevealStatus::Accepted
            );
        }
    }
    let outcome = auction.resolve().expect("sealed resolve");
    let suppressed = ids[0];
    assert!(
        outcome
            .forfeitures
            .iter()
            .any(|f| f.participant == suppressed),
        "the suppressed participant was booked as a non-revealer"
    );
    let report = audit_twice(&outcome.transcript);
    expect_finding(
        &report,
        "suppressed reveal",
        |f| matches!(f, AuditFinding::RevealSuppressed { participant } if *participant == suppressed),
    );
}

/// An entrant's conflict declaration is checked against the roster it will
/// join at commit time, not at `close_commits` (where the session's
/// `add_bidder` would panic on it). The roster is the incumbents plus the
/// entrants committed earlier, so naming an earlier entrant is legitimate.
#[test]
fn entrant_conflicts_are_checked_against_the_roster_at_commit() {
    let k = 2;
    let bidders = || -> Vec<Arc<dyn Valuation>> {
        (0..3)
            .map(|_| Arc::new(AdditiveValuation::new(vec![1.0; k])) as Arc<dyn Valuation>)
            .collect()
    };
    let open = |conflicts: ConflictStructure| {
        let instance =
            AuctionInstance::new(k, bidders(), conflicts, VertexOrdering::identity(3), 1.0);
        SealedBidAuction::open(
            SolverBuilder::new().session(instance),
            CollateralPolicy::default(),
        )
        .expect("open sealed round")
    };
    let commit = |auction: &mut SealedBidAuction, conflicts: BidderConflicts| {
        let id = auction.next_participant_id();
        let valuation = ValuationSnapshot::Additive {
            channel_values: vec![1.0; k],
        };
        let commitment = commit_to(id, &valuation, &nonce_from_seed(id));
        auction.submit_commitment(ParticipantKind::Entrant { conflicts }, commitment, 2.0)
    };
    let rejected = |result: Result<u64, SealedBidError>| {
        matches!(result, Err(SealedBidError::ConflictStructureMismatch))
    };

    let path = ConflictGraph::from_edges(3, &[(0, 1), (1, 2)]);
    let mut binary = open(ConflictStructure::Binary(path));
    let beyond = BidderConflicts::Binary(vec![99]);
    assert!(rejected(commit(&mut binary, beyond)));
    // index 3 is the entrant's own slot until an earlier entrant takes it
    let own_slot = BidderConflicts::Binary(vec![3]);
    assert!(rejected(commit(&mut binary, own_slot)));
    let first = commit(&mut binary, BidderConflicts::Binary(vec![0]));
    assert_eq!(first.expect("incumbent neighbor accepted"), 0);
    let second = commit(&mut binary, BidderConflicts::Binary(vec![2, 3]));
    assert_eq!(second.expect("earlier-entrant neighbor accepted"), 1);
    let third = BidderConflicts::Binary(vec![5]);
    assert!(rejected(commit(&mut binary, third)));
    binary.close_commits().expect("close commits");
    assert_eq!(binary.session().instance().num_bidders(), 5);

    let asymmetric_graphs = vec![ConflictGraph::new(3); k];
    let mut asymmetric = open(ConflictStructure::AsymmetricBinary(asymmetric_graphs));
    let one_list = BidderConflicts::PerChannelBinary(vec![vec![0]]);
    assert!(rejected(commit(&mut asymmetric, one_list)));
    let past_roster = BidderConflicts::PerChannelBinary(vec![vec![0], vec![3]]);
    assert!(rejected(commit(&mut asymmetric, past_roster)));

    let mut weighted = open(ConflictStructure::Weighted(WeightedConflictGraph::new(3)));
    let nan = BidderConflicts::Weighted(vec![(0, f64::NAN, 0.5)]);
    assert!(rejected(commit(&mut weighted, nan)));
    let fine = BidderConflicts::Weighted(vec![(0, 0.5, 0.5)]);
    assert_eq!(commit(&mut weighted, fine).expect("weights accepted"), 0);
    weighted.close_commits().expect("close commits");
}

/// An opening that matches its commitment but bids on a channel past `k`
/// cannot be priced in the market. It forfeits as a bad opening instead of
/// crashing the round, and the round still resolves and audits clean.
#[test]
fn opening_with_a_bundle_past_k_forfeits_and_the_round_resolves() {
    let k = 2;
    let bidders: Vec<Arc<dyn Valuation>> = (0..2)
        .map(|_| Arc::new(AdditiveValuation::new(vec![1.0; k])) as Arc<dyn Valuation>)
        .collect();
    let graph = ConflictGraph::from_edges(2, &[(0, 1)]);
    let instance = AuctionInstance::new(
        k,
        bidders,
        ConflictStructure::Binary(graph),
        VertexOrdering::identity(2),
        1.0,
    );
    let mut auction = SealedBidAuction::open(
        SolverBuilder::new().session(instance),
        CollateralPolicy::default(),
    )
    .expect("open sealed round");
    let id = auction.next_participant_id();
    let valuation = ValuationSnapshot::Xor {
        num_channels: k,
        bids: vec![(0b100, 3.0)],
    };
    let nonce = nonce_from_seed(id);
    let entrant = ParticipantKind::Entrant {
        conflicts: BidderConflicts::Binary(vec![0]),
    };
    auction
        .submit_commitment(entrant, commit_to(id, &valuation, &nonce), 5.0)
        .expect("commitment accepted");
    auction.close_commits().expect("close commits");
    let status = auction
        .submit_opening(Opening {
            participant: id,
            valuation,
            nonce,
        })
        .expect("opening processed");
    assert_eq!(status, RevealStatus::Rejected(ForfeitReason::BadOpening));

    let outcome = auction.resolve().expect("the round still resolves");
    assert_eq!(outcome.forfeitures.len(), 1);
    assert_eq!(outcome.payments.len(), 2, "the forfeiting entrant left");
    let report = audit_twice(&outcome.transcript);
    assert!(report.clean(), "flagged {:?}", report.findings);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Audit-accepts-iff-untampered on random commit/reveal streams: an
    /// honest run with reneging snipers audits clean (their forfeitures and
    /// warm-path removals are legitimate), while a single random mutation
    /// of a revealed bid, a payment entry, or a forfeiture entry is always
    /// flagged.
    #[test]
    fn random_streams_audit_clean_and_any_single_mutation_is_flagged(
        seed in 0u64..500,
        n in 6usize..10,
        burst in 4usize..7,
        snipers in 1usize..3,
        mutation in 0u8..3,
        pick in 0usize..64,
    ) {
        let config = ScenarioConfig::new(n, 2, seed);
        let market = sniping_burst_scenario(&config, 1.0, burst, snipers, 2.0);
        let outcome = drive(&market, false);

        let report = audit_twice(&outcome.transcript);
        prop_assert!(
            report.clean(),
            "honest run with {snipers} snipers flagged: {:?}",
            report.findings
        );
        prop_assert_eq!(outcome.forfeitures.len(), snipers);

        let mut tampered = outcome.transcript.clone();
        let flagged = match mutation {
            0 => {
                let target = pick % tampered.payments.len();
                tampered.payments[target] += 1.0;
                let report = audit_twice(&tampered);
                report.findings.iter().any(|f| {
                    matches!(f, AuditFinding::PaymentMismatch { bidder, .. } if *bidder == target)
                })
            }
            1 => {
                let rebids: Vec<usize> = tampered
                    .events
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| matches!(e, SessionLogEntry::Rebid { .. }))
                    .map(|(i, _)| i)
                    .collect();
                prop_assert!(!rebids.is_empty(), "every burst has a revealer");
                let target = rebids[pick % rebids.len()];
                let SessionLogEntry::Rebid { valuation, .. } = &mut tampered.events[target] else {
                    unreachable!()
                };
                *valuation = Some(ValuationSnapshot::Additive {
                    channel_values: vec![77.0; config.num_channels],
                });
                let report = audit_twice(&tampered);
                report
                    .findings
                    .iter()
                    .any(|f| matches!(f, AuditFinding::TamperedBid { .. }))
            }
            _ => {
                let target = pick % tampered.forfeitures.len();
                tampered.forfeitures[target].amount *= 0.5;
                let report = audit_twice(&tampered);
                let id = tampered.forfeitures[target].participant;
                report.findings.iter().any(|f| {
                    matches!(
                        f,
                        AuditFinding::ForfeitureMismatch { participant, .. } if *participant == id
                    )
                })
            }
        };
        prop_assert!(flagged, "mutation kind {mutation} went undetected");
    }
}
