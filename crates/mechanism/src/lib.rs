//! Truthful-in-expectation mechanisms for secondary spectrum auctions via
//! the Lavi–Swamy framework (Section 5 of the SPAA 2011 paper).
//!
//! The construction has three ingredients:
//!
//! 1. **Fractional VCG** ([`vcg`]): solve the LP relaxation for the full
//!    bidder set and once more with each bidder removed; the resulting VCG
//!    payments make the *fractional* allocation rule truthful.
//! 2. **Decomposition** ([`lavi_swamy`]): write the scaled LP optimum
//!    `x*/α` as a convex combination of feasible integral allocations. The
//!    paper obtains the decomposition by separating the dual of the
//!    decomposition LP with the approximation algorithm itself (the
//!    integrality-gap verifier); this crate runs the equivalent
//!    column-generation loop, seeding the master with the always-feasible
//!    singleton allocations so a valid decomposition exists even when the
//!    randomized verifier falls short of its expectation on some pricing
//!    round (the measured "effective α" is reported).
//! 3. **Sampling + scaled payments** ([`truthful`]): draw one allocation
//!    from the distribution and charge each bidder its fractional VCG
//!    payment scaled by the realized fraction of its fractional value. The
//!    resulting mechanism is truthful in expectation and achieves an
//!    `α`-approximation of the social welfare in expectation.

#![warn(missing_docs)]

pub mod lavi_swamy;
pub mod sealed_bid;
pub mod truthful;
pub mod vcg;

pub use lavi_swamy::{decompose, Decomposition};
pub use sealed_bid::{
    audit, AuditFinding, AuditReport, CollateralLedger, CollateralPolicy, Commitment,
    CommitmentRecord, ForfeitReason, ForfeitureRecord, Opening, ParticipantKind, ParticipantStatus,
    Phase, RevealStatus, SealedBidAuction, SealedBidError, SealedBidOutcome, SealedTranscript,
};
pub use truthful::{MechanismOutcome, TruthfulMechanism};
pub use vcg::{fractional_vcg, FractionalVcg};
