//! Sealed-bid commit–reveal front-end over [`AuctionSession`], with
//! collateral and an audit replay.
//!
//! The mechanism layer assumes bids arrive honestly; a production exchange
//! cannot. This module makes bidding *credible* with the classic two-phase
//! protocol (the phase structure follows SNIPPETS.md Snippet 1, the
//! broadcast-DRA commit–reveal auction):
//!
//! 1. **Commit** — each participant posts a hash [`Commitment`] over
//!    `(participant id, valuation, nonce)` plus collateral scaled to its
//!    declared bid cap ([`CollateralPolicy`]). Entrants declare their
//!    conflicts publicly (interference is physics, not strategy); only the
//!    valuation is sealed.
//! 2. **Reveal** — participants publish [`Opening`]s. A valid opening
//!    flows into the session as an ordinary re-bid (entrants were admitted
//!    at commit close with zero-value placeholder valuations, so their
//!    reveal is a warm re-price, not a structural change). Invalid
//!    openings forfeit immediately.
//! 3. **Resolve** — non-revealers forfeit their collateral and leave
//!    through [`AuctionSession::remove_bidder`]'s warm path; the session
//!    resolves, winners pay first price (pay-as-bid — the revealed value of
//!    the assigned bundle), and revealed participants get their collateral
//!    back.
//! 4. **Audit** — the whole run is published as a [`SealedTranscript`]
//!    (baseline instance snapshot, session event log, commitments,
//!    openings, dual certificate, outcome, payments, forfeitures) and
//!    [`audit`](crate::sealed_bid::audit::audit) replays it, flagging
//!    shill arrivals, tampered bids, suppressed reveals, rigged outcomes,
//!    wrong payments and fabricated forfeitures.
//!
//! The auctioneer adversary surface ([`SealedBidAuction::inject_shill`]
//! and [`SealedBidAuction::suppress_reveal`]) exists precisely so tests can
//! demonstrate the audit catching each attack.

pub mod audit;
pub mod collateral;
pub mod commitment;

pub use audit::{audit, AuditFinding, AuditReport};
pub use collateral::{CollateralLedger, CollateralPolicy, ForfeitReason, ForfeitureRecord};
pub use commitment::{commit_to, nonce_from_seed, sha256, Commitment, Opening};

use ssa_core::session::SessionLogEntry;
use ssa_core::snapshot::InstanceSnapshot;
use ssa_core::solver::SolverBuilder;
use ssa_core::{
    AdditiveValuation, AuctionOutcome, AuctionSession, BidderConflicts, ChannelSet,
    DualCertificate, FractionalAssignment, SnapshotError, SolveError, Valuation,
};
use std::sync::Arc;

/// Which phase a [`SealedBidAuction`] is in. Phases only advance:
/// Commit → Reveal → Resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Accepting commitments.
    Commit,
    /// Commitments closed; accepting openings.
    Reveal,
    /// Resolved; the transcript has been issued.
    Resolved,
}

/// Whether a committing participant is new to the market or re-bidding an
/// existing position.
#[derive(Clone, Debug, PartialEq)]
pub enum ParticipantKind {
    /// A new bidder; its (public) conflicts with the market at commit time.
    Entrant {
        /// Conflict declaration, matching the instance's structure.
        conflicts: BidderConflicts,
    },
    /// An existing bidder re-bidding sealed; the index it held at commit
    /// time.
    Incumbent {
        /// The bidder's session index when the commitment was posted.
        bidder: usize,
    },
}

/// Lifecycle of one participant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ParticipantStatus {
    /// Commitment posted; no valid opening yet.
    Committed,
    /// A valid opening was accepted and applied to the session.
    Revealed,
    /// Collateral forfeited for the given reason.
    Forfeited(ForfeitReason),
}

/// What happened to a submitted opening.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RevealStatus {
    /// The opening verified and was applied as a re-bid.
    Accepted,
    /// The opening was invalid; the collateral was forfeited.
    Rejected(ForfeitReason),
}

/// Protocol misuse (as opposed to invalid-but-well-formed openings, which
/// are [`RevealStatus::Rejected`] outcomes, not errors).
#[derive(Debug)]
pub enum SealedBidError {
    /// The call is not valid in the current phase.
    WrongPhase {
        /// The phase the call requires.
        expected: Phase,
        /// The phase the auction is in.
        actual: Phase,
    },
    /// No participant with this id.
    UnknownParticipant(u64),
    /// The participant already revealed or forfeited.
    ParticipantClosed(u64),
    /// An incumbent commitment names an out-of-range bidder.
    IncumbentOutOfRange(usize),
    /// Two commitments name the same incumbent bidder.
    DuplicateIncumbent(usize),
    /// An entrant's conflict declaration does not fit the instance's
    /// conflict structure: a variant for another structure, a neighbor
    /// outside the roster the entrant joins (the incumbents plus the
    /// entrants committed before it), a per-channel declaration without
    /// exactly one list per channel, or a NaN weight.
    ConflictStructureMismatch,
    /// The baseline instance could not be snapshotted (a custom valuation
    /// without [`ssa_core::Valuation::snapshot`] support).
    Snapshot(SnapshotError),
    /// Excluding every non-revealer would empty the market.
    EmptyMarket,
    /// The underlying resolve failed.
    Solve(SolveError),
}

impl std::fmt::Display for SealedBidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealedBidError::WrongPhase { expected, actual } => {
                write!(
                    f,
                    "call requires phase {expected:?}, auction is in {actual:?}"
                )
            }
            SealedBidError::UnknownParticipant(id) => write!(f, "unknown participant {id}"),
            SealedBidError::ParticipantClosed(id) => {
                write!(f, "participant {id} already revealed or forfeited")
            }
            SealedBidError::IncumbentOutOfRange(v) => {
                write!(f, "incumbent bidder {v} is out of range")
            }
            SealedBidError::DuplicateIncumbent(v) => {
                write!(f, "incumbent bidder {v} committed twice")
            }
            SealedBidError::ConflictStructureMismatch => {
                write!(f, "entrant conflicts do not match the instance's structure")
            }
            SealedBidError::Snapshot(e) => write!(f, "baseline snapshot failed: {e}"),
            SealedBidError::EmptyMarket => {
                write!(f, "excluding every non-revealer would empty the market")
            }
            SealedBidError::Solve(e) => write!(f, "resolve failed: {e}"),
        }
    }
}

impl std::error::Error for SealedBidError {}

/// One published commitment, as it appears in the transcript.
#[derive(Clone, Debug, PartialEq)]
pub struct CommitmentRecord {
    /// The participant id the commitment was posted under.
    pub id: u64,
    /// Entrant or incumbent, with the public part of the declaration.
    pub kind: ParticipantKind,
    /// The posted digest.
    pub commitment: Commitment,
    /// The declared maximum bid value the collateral was scaled to.
    pub declared_cap: f64,
    /// The collateral posted.
    pub collateral: f64,
}

struct Participant {
    record: CommitmentRecord,
    status: ParticipantStatus,
    /// Session index: set at commit for incumbents, at commit close for
    /// entrants, `None` once removed.
    index: Option<usize>,
    suppressed: bool,
}

/// The public record of one sealed-bid run — everything
/// [`audit`](crate::sealed_bid::audit::audit) needs to re-derive the
/// outcome without trusting the auctioneer: the baseline instance, the
/// session's event log, all commitments, every published opening (including
/// ones the auctioneer claims not to have received — bidders publish their
/// openings out of band exactly so suppression is visible), and the claimed
/// results.
#[derive(Clone, Debug)]
pub struct SealedTranscript {
    /// The instance when the auction opened.
    pub baseline: InstanceSnapshot,
    /// The solver configuration (the rounding stage is deterministic given
    /// it, which is what makes the outcome replayable).
    pub options: SolverBuilder,
    /// Every posted commitment.
    pub commitments: Vec<CommitmentRecord>,
    /// Every published opening: accepted, rejected, and suppressed ones.
    pub openings: Vec<Opening>,
    /// The session's recorded mutation/resolve history.
    pub events: Vec<SessionLogEntry>,
    /// Participant id → session index during the reveal phase (before
    /// non-revealer removals).
    pub roster: Vec<(u64, usize)>,
    /// The claimed LP optimum.
    pub fractional: FractionalAssignment,
    /// The claimed optimality certificate (canonical-layout duals); the
    /// audit falls back to a from-scratch re-solve when it is `None`.
    pub certificate: Option<DualCertificate>,
    /// The claimed allocation (bundle per final bidder index).
    pub allocation: Vec<ChannelSet>,
    /// The claimed LP objective.
    pub lp_objective: f64,
    /// The claimed social welfare of the allocation.
    pub welfare: f64,
    /// The claimed first-price payments (per final bidder index).
    pub payments: Vec<f64>,
    /// The claimed forfeiture ledger.
    pub forfeitures: Vec<ForfeitureRecord>,
}

/// The result of [`SealedBidAuction::resolve`].
#[derive(Clone, Debug)]
pub struct SealedBidOutcome {
    /// The underlying auction outcome (allocation, welfare, LP stats).
    pub outcome: AuctionOutcome,
    /// First-price payment per final bidder index (the revealed value of
    /// the assigned bundle; 0 for losers).
    pub payments: Vec<f64>,
    /// Collateral forfeited during the run.
    pub forfeitures: Vec<ForfeitureRecord>,
    /// The auditable public record of the run.
    pub transcript: SealedTranscript,
}

/// The commit–reveal phase machine over an [`AuctionSession`]. See the
/// [module docs](self).
pub struct SealedBidAuction {
    session: AuctionSession,
    policy: CollateralPolicy,
    phase: Phase,
    baseline: InstanceSnapshot,
    participants: Vec<Participant>,
    ledger: CollateralLedger,
    openings: Vec<Opening>,
}

impl SealedBidAuction {
    /// Opens a sealed-bid round over `session`, snapshotting the current
    /// instance as the audit baseline and turning event recording on. Any
    /// previously recorded events are discarded — the transcript covers
    /// this round only.
    pub fn open(
        mut session: AuctionSession,
        policy: CollateralPolicy,
    ) -> Result<Self, SealedBidError> {
        let baseline =
            InstanceSnapshot::of(session.instance()).map_err(SealedBidError::Snapshot)?;
        session.record_events(true);
        session.take_event_log();
        Ok(SealedBidAuction {
            session,
            policy,
            phase: Phase::Commit,
            baseline,
            participants: Vec::new(),
            ledger: CollateralLedger::new(),
            openings: Vec::new(),
        })
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The underlying session (read-only; mutations must go through the
    /// protocol or they will be flagged by the audit).
    pub fn session(&self) -> &AuctionSession {
        &self.session
    }

    /// The collateral policy in force.
    pub fn policy(&self) -> CollateralPolicy {
        self.policy
    }

    /// The collateral ledger so far.
    pub fn ledger(&self) -> &CollateralLedger {
        &self.ledger
    }

    /// A participant's current status.
    pub fn status(&self, id: u64) -> Option<ParticipantStatus> {
        self.participants.get(id as usize).map(|p| p.status)
    }

    fn require_phase(&self, expected: Phase) -> Result<(), SealedBidError> {
        if self.phase != expected {
            return Err(SealedBidError::WrongPhase {
                expected,
                actual: self.phase,
            });
        }
        Ok(())
    }

    /// Posts a commitment during the commit phase. The digest and the
    /// declared cap are public; the valuation is not. Returns the assigned
    /// participant id (which the eventual [`Opening`] must carry — ids are
    /// assigned in submission order, so a bidder computing its commitment
    /// in advance uses `next_participant_id`).
    pub fn submit_commitment(
        &mut self,
        kind: ParticipantKind,
        commitment: Commitment,
        declared_cap: f64,
    ) -> Result<u64, SealedBidError> {
        self.require_phase(Phase::Commit)?;
        let (index, kind) = match kind {
            ParticipantKind::Incumbent { bidder } => {
                if bidder >= self.session.instance().num_bidders() {
                    return Err(SealedBidError::IncumbentOutOfRange(bidder));
                }
                if self.participants.iter().any(|p| {
                    matches!(p.record.kind, ParticipantKind::Incumbent { bidder: b } if b == bidder)
                }) {
                    return Err(SealedBidError::DuplicateIncumbent(bidder));
                }
                (Some(bidder), ParticipantKind::Incumbent { bidder })
            }
            ParticipantKind::Entrant { conflicts } => {
                // close_commits admits entrants in commit order, so this one
                // joins the incumbents plus every entrant committed before it.
                let roster = self.session.instance().num_bidders()
                    + self
                        .participants
                        .iter()
                        .filter(|p| matches!(p.record.kind, ParticipantKind::Entrant { .. }))
                        .count();
                if !conflicts_fit_structure(self.session.instance(), &conflicts, roster) {
                    return Err(SealedBidError::ConflictStructureMismatch);
                }
                (None, ParticipantKind::Entrant { conflicts })
            }
        };
        let id = self.participants.len() as u64;
        let collateral = self.policy.required(declared_cap);
        self.ledger.post(id, collateral);
        self.participants.push(Participant {
            record: CommitmentRecord {
                id,
                kind,
                commitment,
                declared_cap,
                collateral,
            },
            status: ParticipantStatus::Committed,
            index,
            suppressed: false,
        });
        Ok(id)
    }

    /// The id the next [`submit_commitment`](Self::submit_commitment) will
    /// assign — bidders need it to compute their commitment digest.
    pub fn next_participant_id(&self) -> u64 {
        self.participants.len() as u64
    }

    /// Closes the commit phase: entrants are admitted into the session with
    /// zero-value placeholder valuations (their conflicts are public; their
    /// bids are still sealed), so the later reveal is an ordinary re-bid
    /// and a non-reveal removal rides the warm departure path.
    pub fn close_commits(&mut self) -> Result<(), SealedBidError> {
        self.require_phase(Phase::Commit)?;
        let k = self.session.instance().num_channels;
        for participant in &mut self.participants {
            if let ParticipantKind::Entrant { conflicts } = &participant.record.kind {
                let placeholder: Arc<dyn Valuation> =
                    Arc::new(AdditiveValuation::new(vec![0.0; k]));
                let index = self.session.add_bidder(placeholder, conflicts.clone());
                participant.index = Some(index);
            }
        }
        self.phase = Phase::Reveal;
        Ok(())
    }

    /// Submits an opening during the reveal phase. A valid opening is
    /// applied to the session as a re-bid and the participant's collateral
    /// becomes refundable; an invalid one (wrong preimage, wrong channel
    /// count, or a revealed value above the declared cap) forfeits on the
    /// spot. Either way the opening is published into the transcript.
    pub fn submit_opening(&mut self, opening: Opening) -> Result<RevealStatus, SealedBidError> {
        self.require_phase(Phase::Reveal)?;
        let id = opening.participant;
        let participant = self
            .participants
            .get(id as usize)
            .ok_or(SealedBidError::UnknownParticipant(id))?;
        if participant.status != ParticipantStatus::Committed || participant.suppressed {
            return Err(SealedBidError::ParticipantClosed(id));
        }
        self.openings.push(opening.clone());
        let verdict = validate_opening(
            &opening,
            &participant.record,
            self.session.instance().num_channels,
        );
        match verdict {
            Ok(valuation) => {
                let index = self.participants[id as usize]
                    .index
                    .expect("every participant has an index after commit close");
                self.session.update_valuation(index, valuation);
                self.participants[id as usize].status = ParticipantStatus::Revealed;
                Ok(RevealStatus::Accepted)
            }
            Err(reason) => {
                self.ledger.forfeit(id, reason);
                self.participants[id as usize].status = ParticipantStatus::Forfeited(reason);
                Ok(RevealStatus::Rejected(reason))
            }
        }
    }

    /// **Adversary surface** — the auctioneer injects a bid that never
    /// posted a commitment or collateral (the shill of the broadcast-DRA
    /// model). The arrival lands in the session event log like any other,
    /// which is exactly how the audit catches it: an arrival no commitment
    /// accounts for.
    pub fn inject_shill(
        &mut self,
        valuation: Arc<dyn Valuation>,
        conflicts: BidderConflicts,
    ) -> Result<usize, SealedBidError> {
        self.require_phase(Phase::Reveal)?;
        Ok(self.session.add_bidder(valuation, conflicts))
    }

    /// **Adversary surface** — the auctioneer discards a valid opening and
    /// treats the participant as a non-revealer (selective reveal: forfeit
    /// the collateral, exclude the bid). The bidder's out-of-band
    /// publication still lands in the transcript's opening list, which is
    /// how the audit catches the suppression.
    pub fn suppress_reveal(&mut self, opening: Opening) -> Result<(), SealedBidError> {
        self.require_phase(Phase::Reveal)?;
        let id = opening.participant;
        let participant = self
            .participants
            .get_mut(id as usize)
            .ok_or(SealedBidError::UnknownParticipant(id))?;
        if participant.status != ParticipantStatus::Committed {
            return Err(SealedBidError::ParticipantClosed(id));
        }
        participant.suppressed = true;
        self.openings.push(opening);
        Ok(())
    }

    /// Closes the reveal phase and resolves the market: non-revealers
    /// forfeit and are removed (warm departure path), the session solves,
    /// winners pay first price, revealed participants are refunded, and
    /// the full [`SealedTranscript`] is issued.
    pub fn resolve(&mut self) -> Result<SealedBidOutcome, SealedBidError> {
        self.require_phase(Phase::Reveal)?;
        // The reveal-phase roster, captured before removals shift indices.
        let roster: Vec<(u64, usize)> = self
            .participants
            .iter()
            .map(|p| {
                (
                    p.record.id,
                    p.index.expect("indices are assigned at commit close"),
                )
            })
            .collect();
        // Non-revealers (including suppressed ones) forfeit.
        for participant in &mut self.participants {
            if participant.status == ParticipantStatus::Committed {
                self.ledger
                    .forfeit(participant.record.id, ForfeitReason::NoReveal);
                participant.status = ParticipantStatus::Forfeited(ForfeitReason::NoReveal);
            }
        }
        // Every forfeited participant is excluded from the market.
        let mut removals: Vec<usize> = self
            .participants
            .iter()
            .filter(|p| matches!(p.status, ParticipantStatus::Forfeited(_)))
            .filter_map(|p| p.index)
            .collect();
        removals.sort_unstable_by(|a, b| b.cmp(a));
        if removals.len() >= self.session.instance().num_bidders() {
            return Err(SealedBidError::EmptyMarket);
        }
        for index in removals {
            self.session.remove_bidder(index);
            for participant in &mut self.participants {
                match participant.index {
                    Some(i) if i == index => participant.index = None,
                    Some(i) if i > index => participant.index = Some(i - 1),
                    _ => {}
                }
            }
        }
        for participant in &self.participants {
            if participant.status == ParticipantStatus::Revealed {
                self.ledger.refund(participant.record.id);
            }
        }
        let outcome = self.session.resolve().map_err(SealedBidError::Solve)?;
        let instance = self.session.instance();
        let payments: Vec<f64> = (0..instance.num_bidders())
            .map(|v| {
                let bundle = outcome.allocation.bundle(v);
                if bundle.is_empty() {
                    0.0
                } else {
                    instance.value(v, bundle)
                }
            })
            .collect();
        let fractional = self
            .session
            .last_fractional()
            .cloned()
            .expect("session is clean right after a successful resolve");
        let certificate = self.session.last_certificate().cloned();
        self.phase = Phase::Resolved;
        let transcript = SealedTranscript {
            baseline: self.baseline.clone(),
            options: self.session.options().clone(),
            commitments: self.participants.iter().map(|p| p.record.clone()).collect(),
            openings: self.openings.clone(),
            events: self.session.take_event_log(),
            roster,
            fractional,
            certificate,
            allocation: outcome.allocation.bundles().to_vec(),
            lp_objective: outcome.lp_objective,
            welfare: outcome.welfare,
            payments: payments.clone(),
            forfeitures: self.ledger.forfeitures().to_vec(),
        };
        Ok(SealedBidOutcome {
            outcome,
            payments,
            forfeitures: self.ledger.forfeitures().to_vec(),
            transcript,
        })
    }

    /// Consumes the auction and returns the underlying session (e.g. to
    /// keep trading after the sealed round resolved).
    pub fn into_session(self) -> AuctionSession {
        self.session
    }
}

/// Checks an opening against its commitment record: preimage, channels
/// (the count, and every bundle within them), and declared cap. Returns the
/// valuation to apply, or the forfeit reason.
fn validate_opening(
    opening: &Opening,
    record: &CommitmentRecord,
    num_channels: usize,
) -> Result<Arc<dyn Valuation>, ForfeitReason> {
    if !opening.verify(&record.commitment) {
        return Err(ForfeitReason::BadOpening);
    }
    if opening.valuation.check_channels(num_channels).is_err() {
        return Err(ForfeitReason::BadOpening);
    }
    let valuation = opening.valuation.build();
    if valuation.max_value() > record.declared_cap + 1e-9 {
        return Err(ForfeitReason::CapExceeded);
    }
    Ok(valuation)
}

/// Whether [`AuctionSession::add_bidder`] accepts `conflicts` for a bidder
/// joining a roster of `roster` bidders: the variant matches the instance's
/// conflict structure, every neighbor is below `roster`, a per-channel
/// declaration has one list per channel, and no weight is NaN.
fn conflicts_fit_structure(
    instance: &ssa_core::AuctionInstance,
    conflicts: &BidderConflicts,
    roster: usize,
) -> bool {
    use ssa_core::ConflictStructure;
    let k = instance.num_channels;
    let binary = |ns: &[usize]| ns.iter().all(|&u| u < roster);
    let weighted = |ws: &[(usize, f64, f64)]| {
        ws.iter()
            .all(|&(u, out, inc)| u < roster && !out.is_nan() && !inc.is_nan())
    };
    match (&instance.conflicts, conflicts) {
        (ConflictStructure::Binary(_), BidderConflicts::Binary(ns)) => binary(ns),
        (ConflictStructure::Weighted(_), BidderConflicts::Weighted(ws)) => weighted(ws),
        (ConflictStructure::AsymmetricBinary(_), BidderConflicts::PerChannelBinary(per)) => {
            per.len() == k && per.iter().all(|ns| binary(ns))
        }
        (ConflictStructure::AsymmetricWeighted(_), BidderConflicts::PerChannelWeighted(per)) => {
            per.len() == k && per.iter().all(|ws| weighted(ws))
        }
        _ => false,
    }
}
