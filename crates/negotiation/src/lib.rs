//! The Trust-X negotiation engine (paper §4.2).
//!
//! A Trust-X negotiation runs in two phases:
//!
//! 1. **Policy evaluation** — "a bilateral and ordered policy exchange"
//!    whose goal is "to determine a sequence of credentials, called trust
//!    sequence, satisfying the disclosure policies of both parties". The
//!    exchange is tracked in a **negotiation tree** rooted at the requested
//!    resource; nodes are terms, edges are policy rules (simple edges for
//!    single-term rules, multiedges for conjunctive rules). A satisfied
//!    **view** of the tree yields the trust sequence.
//! 2. **Credential exchange** — credentials are disclosed following the
//!    trust sequence; each one is verified (signature, revocation,
//!    validity, ownership) before the next is requested.
//!
//! One value, [`Negotiation`], carries a negotiation between its steps,
//! and phase 2 is one step on it that the engine, the TN web service and
//! a resumed session all drive; its encoding is the durable checkpoint.
//!
//! Modules:
//!
//! * [`strategy`] — the four Trust-X strategies (standard, trusting,
//!   suspicious, strong-suspicious) the TN web service supports (§6.2),
//! * [`tree`] — negotiation trees with simple edges and multiedges,
//! * [`view`] — views and trust-sequence extraction,
//! * [`party`] — a negotiating party: X-Profile, policy set, ontology,
//! * [`message`] — the wire messages of both phases,
//! * [`engine`] — the two-phase driver,
//! * [`state`] — the negotiation value, its phase-2 step and checkpoint,
//! * [`transcript`] — message/round/disclosure accounting for the benches,
//! * [`baseline`] — a TrustBuilder-style *eager* baseline for comparison,
//! * [`error`] — failure taxonomy (§4.2: trust failures vs. interruptions).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod engine;
pub mod enumerate;
pub mod error;
pub mod message;
pub mod party;
pub mod resume;
pub mod state;
pub mod strategy;
pub mod ticket;
pub mod transcript;
pub mod tree;
pub mod view;

pub use engine::{
    count_views, evaluate_policies, exchange_credentials, negotiate, NegotiationConfig,
    NegotiationOutcome, PolicyPhase,
};
pub use enumerate::{
    choose_minimal, enumerate_sequences, negotiate_with_selection, SelectionPolicy,
};
pub use error::NegotiationError;
pub use party::Party;
pub use resume::{ResumeError, ResumeToken};
pub use state::{Disclosed, Negotiation, Step};
pub use strategy::Strategy;
pub use ticket::{negotiate_with_ticket, session_window_contains, TrustTicket};
pub use transcript::Transcript;
pub use trust_vo_obs::{Collector, ObsContext};
