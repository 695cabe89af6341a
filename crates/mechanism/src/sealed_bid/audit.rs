//! Audit replay for sealed-bid transcripts.
//!
//! [`audit`] re-derives the entire outcome of a [`SealedTranscript`] from
//! its public inputs — baseline instance, commitments, published openings,
//! and the session event log — and flags every divergence from what the
//! revealed bids imply. The auctioneer is trusted for nothing:
//!
//! * every event in the log must be **attributable** — entrant arrivals to
//!   a commitment (admitted with the zero placeholder and the declared
//!   conflicts), re-bids to a valid opening, departures to a legitimate
//!   forfeiture. A shill injection is an arrival no commitment accounts
//!   for; a suppressed reveal is a valid published opening next to a
//!   `NoReveal` forfeiture;
//! * the claimed fractional optimum is checked by **certificate**, not by
//!   re-solving: primal feasibility, dual nonnegativity, strong duality,
//!   and one demand-oracle sweep proving no bundle has positive reduced
//!   cost (a transcript is outside input, so one without a certificate
//!   falls back to a from-scratch re-solve);
//! * the claimed allocation is checked by **deterministic rounding
//!   replay**: the rounding stage is a pure function of (instance,
//!   fractional, options), so running it again must reproduce the claimed
//!   bundles and welfare exactly;
//! * payments must be exactly first price on the revealed bids, and the
//!   forfeiture ledger must match the published openings entry for entry.

use super::collateral::ForfeitureRecord;
use super::{Opening, ParticipantKind, SealedTranscript};
use ssa_core::lp_formulation::solve_relaxation;
use ssa_core::session::SessionLogEntry;
use ssa_core::{
    AdditiveValuation, AuctionInstance, AuctionSession, BidderConflicts, DualCertificate,
    SpectrumAuctionSolver, Valuation, ValuationSnapshot,
};
use std::collections::HashMap;
use std::sync::Arc;

/// One divergence found by the audit.
#[derive(Clone, Debug, PartialEq)]
pub enum AuditFinding {
    /// A published opening names a participant no commitment was posted
    /// for.
    UnknownOpening {
        /// The unknown participant id.
        participant: u64,
    },
    /// An arrival in the event log is not accounted for by any entrant
    /// commitment — a shill.
    ShillArrival {
        /// The arrival's bidder index.
        bidder: usize,
    },
    /// An entrant was admitted with something other than the zero-value
    /// placeholder — its sealed bid leaked into the market (or was
    /// fabricated) before the reveal.
    PlaceholderMismatch {
        /// The entrant's participant id.
        participant: u64,
    },
    /// An entrant was admitted with conflicts different from the ones its
    /// commitment declared.
    DeclaredConflictsMismatch {
        /// The entrant's participant id.
        participant: u64,
    },
    /// A re-bid applied for a participant differs from its published
    /// opening (or no valid opening exists for it at all).
    TamperedBid {
        /// The re-bid's bidder index.
        bidder: usize,
        /// The participant whose bid was rewritten.
        participant: u64,
    },
    /// A re-bid was applied to a bidder that is not a sealed participant.
    UnattributedRebid {
        /// The re-bid's bidder index.
        bidder: usize,
    },
    /// A departure removed a bidder that did not legitimately forfeit.
    UnauthorizedDeparture {
        /// The removed bidder index.
        bidder: usize,
    },
    /// A participant with a valid published opening was treated as a
    /// non-revealer (selective reveal).
    RevealSuppressed {
        /// The suppressed participant's id.
        participant: u64,
    },
    /// The forfeiture ledger diverges from what the published openings
    /// imply.
    ForfeitureMismatch {
        /// The participant the divergence concerns.
        participant: u64,
        /// What diverged.
        detail: String,
    },
    /// A participant that never validly revealed holds a non-empty bundle
    /// in the claimed allocation.
    UnopenedCommitmentWinner {
        /// The winner's participant id.
        participant: u64,
        /// Its final bidder index.
        bidder: usize,
    },
    /// The claimed fractional solution violates the relaxation's
    /// constraints on the replayed instance.
    InfeasibleFractional,
    /// The claimed LP objective does not equal the value of the claimed
    /// fractional solution under the revealed bids.
    ObjectiveMismatch {
        /// The transcript's objective.
        claimed: f64,
        /// `Σ b_{v,T} · x_{v,T}` recomputed from the revealed bids.
        recomputed: f64,
    },
    /// The claimed fractional solution is not the LP optimum (certificate
    /// check or re-solve found better).
    NotOptimal {
        /// How much objective the certificate/re-solve shows is missing.
        slack: f64,
    },
    /// The deterministic rounding replay assigned this bidder a different
    /// bundle than the transcript claims.
    AllocationMismatch {
        /// The bidder whose bundle diverged.
        bidder: usize,
    },
    /// The claimed welfare does not match the rounding replay.
    WelfareMismatch {
        /// The transcript's welfare.
        claimed: f64,
        /// The replayed welfare.
        replayed: f64,
    },
    /// A payment is not first price on the revealed bid.
    PaymentMismatch {
        /// The bidder whose payment diverged.
        bidder: usize,
        /// The transcript's payment.
        claimed: f64,
        /// The first-price payment the revealed bids imply.
        implied: f64,
    },
    /// An event carries a valuation that cannot be snapshotted, so it
    /// cannot be verified.
    UnverifiableValuation {
        /// The affected bidder index.
        bidder: usize,
    },
    /// The transcript is internally inconsistent (wrong lengths,
    /// out-of-range indices, log/outcome divergence).
    MalformedTranscript {
        /// What is inconsistent.
        detail: String,
    },
}

impl std::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The audit verdict: the list of findings (empty ⇔ the transcript checks
/// out) plus how optimality was established.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Every divergence found, in detection order.
    pub findings: Vec<AuditFinding>,
    /// Whether optimality was verified through the transcript's dual
    /// certificate (the cheap path).
    pub certificate_checked: bool,
    /// Whether the audit had to re-solve the LP from scratch (transcripts
    /// without a certificate).
    pub resolved_from_scratch: bool,
}

impl AuditReport {
    /// `true` iff nothing diverged.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

const MONEY_TOL: f64 = 1e-6;

/// Replays `transcript` and reports every divergence. See the [module
/// docs](self).
pub fn audit(transcript: &SealedTranscript) -> AuditReport {
    let mut report = AuditReport::default();

    // -- 1. openings vs commitments -------------------------------------
    let records: HashMap<u64, &super::CommitmentRecord> =
        transcript.commitments.iter().map(|r| (r.id, r)).collect();
    let k = transcript.baseline.num_channels;
    // id → canonical revealed valuation, for the first valid opening.
    let mut valid: HashMap<u64, ValuationSnapshot> = HashMap::new();
    for opening in &transcript.openings {
        let Some(record) = records.get(&opening.participant) else {
            report.findings.push(AuditFinding::UnknownOpening {
                participant: opening.participant,
            });
            continue;
        };
        if opening_is_valid(opening, record, k) {
            valid
                .entry(opening.participant)
                .or_insert_with(|| opening.valuation.canonical());
        }
    }

    // -- 2. forfeiture ledger vs published openings ----------------------
    check_forfeitures(transcript, &records, &valid, &mut report);

    // -- 3. event replay with attribution --------------------------------
    let replay = match replay_events(transcript, &valid, &mut report) {
        Ok(replay) => replay,
        Err(finding) => {
            // The transcript is too malformed to reconstruct a final
            // instance; outcome checks are impossible (and the report is
            // already not clean).
            report.findings.push(finding);
            return report;
        }
    };

    // -- 4. outcome verification -----------------------------------------
    check_outcome(transcript, &replay, &valid, &mut report);
    report
}

fn opening_is_valid(opening: &Opening, record: &super::CommitmentRecord, k: usize) -> bool {
    opening.verify(&record.commitment)
        && opening.valuation.check_channels(k).is_ok()
        && opening.valuation.build().max_value() <= record.declared_cap + 1e-9
}

fn check_forfeitures(
    transcript: &SealedTranscript,
    records: &HashMap<u64, &super::CommitmentRecord>,
    valid: &HashMap<u64, ValuationSnapshot>,
    report: &mut AuditReport,
) {
    let mut claimed: HashMap<u64, &ForfeitureRecord> = HashMap::new();
    for forfeiture in &transcript.forfeitures {
        let id = forfeiture.participant;
        let Some(record) = records.get(&id) else {
            report.findings.push(AuditFinding::ForfeitureMismatch {
                participant: id,
                detail: "forfeiture for a participant that never committed".into(),
            });
            continue;
        };
        if claimed.insert(id, forfeiture).is_some() {
            report.findings.push(AuditFinding::ForfeitureMismatch {
                participant: id,
                detail: "participant forfeited twice".into(),
            });
            continue;
        }
        if valid.contains_key(&id) {
            report
                .findings
                .push(AuditFinding::RevealSuppressed { participant: id });
            continue;
        }
        if (forfeiture.amount - record.collateral).abs() > MONEY_TOL {
            report.findings.push(AuditFinding::ForfeitureMismatch {
                participant: id,
                detail: format!(
                    "forfeited {} but posted collateral was {}",
                    forfeiture.amount, record.collateral
                ),
            });
        }
    }
    for record in &transcript.commitments {
        if !valid.contains_key(&record.id) && !claimed.contains_key(&record.id) {
            report.findings.push(AuditFinding::ForfeitureMismatch {
                participant: record.id,
                detail: "non-revealer with no forfeiture recorded".into(),
            });
        }
    }
}

/// The reconstructed end state of the event replay.
struct Replay {
    instance: AuctionInstance,
    /// Participant id occupying each final bidder index (None for baseline
    /// non-participants and shills).
    id_by_index: Vec<Option<u64>>,
    /// The last `Resolved` entry, if any.
    last_resolved: Option<(f64, f64)>,
}

fn replay_events(
    transcript: &SealedTranscript,
    valid: &HashMap<u64, ValuationSnapshot>,
    report: &mut AuditReport,
) -> Result<Replay, AuditFinding> {
    let malformed = |detail: &str| AuditFinding::MalformedTranscript {
        detail: detail.into(),
    };
    let baseline = transcript.baseline.restore();
    let k = baseline.num_channels;
    let n0 = baseline.num_bidders();
    // Participant occupancy at reveal time, from the roster.
    let mut incumbent_by_index: HashMap<usize, u64> = HashMap::new();
    let mut entrant_by_index: HashMap<usize, u64> = HashMap::new();
    let records: HashMap<u64, &super::CommitmentRecord> =
        transcript.commitments.iter().map(|r| (r.id, r)).collect();
    for &(id, index) in &transcript.roster {
        let Some(record) = records.get(&id) else {
            return Err(malformed("roster names a participant that never committed"));
        };
        let slot = match record.kind {
            ParticipantKind::Incumbent { .. } => &mut incumbent_by_index,
            ParticipantKind::Entrant { .. } => &mut entrant_by_index,
        };
        if slot.insert(index, id).is_some() {
            return Err(malformed("roster maps two participants to one index"));
        }
    }
    if incumbent_by_index.keys().any(|&i| i >= n0) {
        return Err(malformed("incumbent roster index out of baseline range"));
    }

    // Replay through a session so mutations use the exact same index
    // shifting and conflict-appending logic as the original run. No
    // resolve is ever called, so no LP work happens here.
    let mut session = AuctionSession::new(baseline, transcript.options.clone());
    let mut id_by_index: Vec<Option<u64>> = (0..n0)
        .map(|i| incumbent_by_index.get(&i).copied())
        .collect();
    let mut consumed_entrants: HashMap<u64, bool> = HashMap::new();
    let mut last_resolved = None;
    let zero_placeholder = ValuationSnapshot::Additive {
        channel_values: vec![0.0; k],
    };

    for event in &transcript.events {
        let n = session.instance().num_bidders();
        match event {
            SessionLogEntry::Arrival {
                bidder,
                valuation,
                conflicts,
            } => {
                if *bidder != n {
                    return Err(malformed("arrival index does not match the market size"));
                }
                if !conflicts_in_range(conflicts, n, k) {
                    return Err(malformed("arrival conflicts are out of range"));
                }
                let attributed = match entrant_by_index.get(bidder) {
                    Some(&id) if !consumed_entrants.get(&id).copied().unwrap_or(false) => {
                        consumed_entrants.insert(id, true);
                        match valuation {
                            Some(snapshot) if *snapshot == zero_placeholder => {}
                            _ => report
                                .findings
                                .push(AuditFinding::PlaceholderMismatch { participant: id }),
                        }
                        if let Some(record) = records.get(&id) {
                            if let ParticipantKind::Entrant {
                                conflicts: declared,
                            } = &record.kind
                            {
                                if declared != conflicts {
                                    report
                                        .findings
                                        .push(AuditFinding::DeclaredConflictsMismatch {
                                            participant: id,
                                        });
                                }
                            }
                        }
                        Some(id)
                    }
                    _ => {
                        report
                            .findings
                            .push(AuditFinding::ShillArrival { bidder: *bidder });
                        None
                    }
                };
                let built: Arc<dyn Valuation> = match valuation {
                    Some(snapshot) if snapshot.check_channels(k).is_ok() => snapshot.build(),
                    Some(_) => return Err(malformed("arrival valuation channel mismatch")),
                    None => {
                        report
                            .findings
                            .push(AuditFinding::UnverifiableValuation { bidder: *bidder });
                        Arc::new(AdditiveValuation::new(vec![0.0; k]))
                    }
                };
                session.add_bidder(built, conflicts.clone());
                id_by_index.push(attributed);
            }
            SessionLogEntry::Rebid { bidder, valuation } => {
                if *bidder >= n {
                    return Err(malformed("re-bid index out of range"));
                }
                match id_by_index[*bidder] {
                    Some(id) => match (valid.get(&id), valuation) {
                        (Some(revealed), Some(applied)) if *revealed == applied.canonical() => {}
                        _ => report.findings.push(AuditFinding::TamperedBid {
                            bidder: *bidder,
                            participant: id,
                        }),
                    },
                    None => report
                        .findings
                        .push(AuditFinding::UnattributedRebid { bidder: *bidder }),
                }
                match valuation {
                    Some(snapshot) if snapshot.check_channels(k).is_ok() => {
                        session.update_valuation(*bidder, snapshot.build());
                    }
                    Some(_) => return Err(malformed("re-bid valuation channel mismatch")),
                    None => report
                        .findings
                        .push(AuditFinding::UnverifiableValuation { bidder: *bidder }),
                }
            }
            SessionLogEntry::Departure { bidder } => {
                if *bidder >= n || n <= 1 {
                    return Err(malformed("departure index out of range"));
                }
                match id_by_index[*bidder] {
                    // A legitimate departure removes a participant with no
                    // valid opening (a forfeiting non-revealer).
                    Some(id) if !valid.contains_key(&id) => {}
                    _ => report
                        .findings
                        .push(AuditFinding::UnauthorizedDeparture { bidder: *bidder }),
                }
                session.remove_bidder(*bidder);
                id_by_index.remove(*bidder);
            }
            SessionLogEntry::RhoChange { rho } => {
                if !(rho.is_finite() && *rho >= 1.0) {
                    return Err(malformed("invalid rho change"));
                }
                session.set_rho(*rho);
            }
            SessionLogEntry::Resolved {
                lp_objective,
                welfare,
            } => {
                last_resolved = Some((*lp_objective, *welfare));
            }
        }
    }
    Ok(Replay {
        instance: session.instance().clone(),
        id_by_index,
        last_resolved,
    })
}

fn conflicts_in_range(conflicts: &BidderConflicts, n: usize, k: usize) -> bool {
    match conflicts {
        BidderConflicts::Binary(ns) => ns.iter().all(|&u| u < n),
        BidderConflicts::Weighted(ws) => ws.iter().all(|&(u, _, _)| u < n),
        BidderConflicts::PerChannelBinary(per) => {
            per.len() == k && per.iter().all(|ns| ns.iter().all(|&u| u < n))
        }
        BidderConflicts::PerChannelWeighted(per) => {
            per.len() == k && per.iter().all(|ws| ws.iter().all(|&(u, _, _)| u < n))
        }
    }
}

fn check_outcome(
    transcript: &SealedTranscript,
    replay: &Replay,
    valid: &HashMap<u64, ValuationSnapshot>,
    report: &mut AuditReport,
) {
    let instance = &replay.instance;
    let n = instance.num_bidders();
    let k = instance.num_channels;
    let scale = 1.0 + transcript.fractional.objective.abs();

    if transcript.allocation.len() != n || transcript.payments.len() != n {
        report.findings.push(AuditFinding::MalformedTranscript {
            detail: "allocation/payment length does not match the final market".into(),
        });
        return;
    }
    match replay.last_resolved {
        Some((lp_objective, welfare))
            if (lp_objective - transcript.lp_objective).abs() <= MONEY_TOL * scale
                && (welfare - transcript.welfare).abs() <= MONEY_TOL * scale => {}
        _ => report.findings.push(AuditFinding::MalformedTranscript {
            detail: "event log's resolve does not match the claimed outcome".into(),
        }),
    }
    if transcript
        .fractional
        .entries
        .iter()
        .any(|e| e.bidder >= n || e.bundle.bits() >> k != 0)
    {
        report.findings.push(AuditFinding::MalformedTranscript {
            detail: "fractional entry out of range".into(),
        });
        return;
    }

    // Feasibility and objective under the revealed bids.
    if !transcript.fractional.satisfies_constraints(instance, 1e-6) {
        report.findings.push(AuditFinding::InfeasibleFractional);
    }
    let recomputed: f64 = transcript
        .fractional
        .entries
        .iter()
        .map(|e| e.x * instance.value(e.bidder, e.bundle))
        .sum();
    if (recomputed - transcript.fractional.objective).abs() > 1e-5 * scale {
        report.findings.push(AuditFinding::ObjectiveMismatch {
            claimed: transcript.fractional.objective,
            recomputed,
        });
    }

    // Optimality: by certificate if present, else by re-solve.
    match &transcript.certificate {
        Some(certificate) => {
            report.certificate_checked = true;
            check_certificate(
                instance,
                certificate,
                transcript.fractional.objective,
                report,
            );
        }
        None => {
            report.resolved_from_scratch = true;
            let scratch = solve_relaxation(instance, &transcript.options);
            if scratch.converged
                && scratch.objective > transcript.fractional.objective + 1e-5 * scale
            {
                report.findings.push(AuditFinding::NotOptimal {
                    slack: scratch.objective - transcript.fractional.objective,
                });
            }
        }
    }

    // Deterministic rounding replay.
    let solver = SpectrumAuctionSolver::new(transcript.options.clone());
    match solver.try_round_fractional(instance, &transcript.fractional) {
        Ok(replayed) => {
            for (v, &claimed_bundle) in transcript.allocation.iter().enumerate() {
                if replayed.allocation.bundle(v) != claimed_bundle {
                    report
                        .findings
                        .push(AuditFinding::AllocationMismatch { bidder: v });
                }
            }
            if (replayed.welfare - transcript.welfare).abs() > MONEY_TOL * scale {
                report.findings.push(AuditFinding::WelfareMismatch {
                    claimed: transcript.welfare,
                    replayed: replayed.welfare,
                });
            }
        }
        Err(_) => {
            report.findings.push(AuditFinding::MalformedTranscript {
                detail: "claimed fractional solution cannot be rounded on the replayed market"
                    .into(),
            });
        }
    }

    // First-price payments on the revealed bids.
    for v in 0..n {
        let bundle = transcript.allocation[v];
        let implied = if bundle.is_empty() {
            0.0
        } else {
            instance.value(v, bundle)
        };
        if (transcript.payments[v] - implied).abs() > MONEY_TOL * (1.0 + implied.abs()) {
            report.findings.push(AuditFinding::PaymentMismatch {
                bidder: v,
                claimed: transcript.payments[v],
                implied,
            });
        }
    }

    // No unopened commitment may win.
    for (v, id) in replay.id_by_index.iter().enumerate() {
        if let Some(id) = id {
            if !valid.contains_key(id) && !transcript.allocation[v].is_empty() {
                report
                    .findings
                    .push(AuditFinding::UnopenedCommitmentWinner {
                        participant: *id,
                        bidder: v,
                    });
            }
        }
    }
}

fn check_certificate(
    instance: &AuctionInstance,
    certificate: &DualCertificate,
    claimed_objective: f64,
    report: &mut AuditReport,
) {
    let n = instance.num_bidders();
    let k = instance.num_channels;
    let scale = 1.0 + claimed_objective.abs();
    if certificate.vj.len() != n * k || certificate.bidder.len() != n {
        report.findings.push(AuditFinding::MalformedTranscript {
            detail: "certificate dimensions do not match the final market".into(),
        });
        return;
    }
    let mut worst_negative = 0.0f64;
    for &y in certificate.vj.iter().chain(&certificate.bidder) {
        worst_negative = worst_negative.min(y);
    }
    if worst_negative < -1e-7 {
        report.findings.push(AuditFinding::NotOptimal {
            slack: -worst_negative,
        });
        return;
    }
    // Strong duality: the dual objective must equal the claimed primal.
    let dual_objective =
        instance.rho * certificate.vj.iter().sum::<f64>() + certificate.bidder.iter().sum::<f64>();
    if (dual_objective - claimed_objective).abs() > 1e-5 * scale {
        report.findings.push(AuditFinding::NotOptimal {
            slack: (dual_objective - claimed_objective).abs(),
        });
        return;
    }
    // Dual feasibility, checked by one demand-oracle sweep: at the
    // certified prices, no bidder has a bundle with positive reduced cost.
    let mut worst_slack = 0.0f64;
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
        let utility = instance.value(v, best) - best.total_price(&prices);
        worst_slack = worst_slack.max(utility - certificate.bidder[v]);
    }
    if worst_slack > 1e-5 * scale {
        report
            .findings
            .push(AuditFinding::NotOptimal { slack: worst_slack });
    }
}
