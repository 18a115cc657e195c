//! Reputation-gated admission control and per-party flow budgets.
//!
//! The paper establishes that "each member will have an associated
//! reputation, established on the basis of past transactions" (§2) and
//! that "the failed TN may affect the parties' reputation" (§5.1), but its
//! reputation is write-only: nothing at admission time *reads* it. This
//! crate closes the loop, in three layers:
//!
//! * [`score`] — a [`ScoringEngine`] fed every negotiation outcome
//!   (success, violation, failed TN, abandonment, transport fault-timeout)
//!   with configurable deltas and sim-time decay toward the prior;
//! * [`band`] — coordinators map the counterpart's score to a trust band
//!   that selects the `negotiation::Strategy` (trusting ↔ standard ↔
//!   suspicious ↔ strong-suspicious) and the admission-queue priority;
//! * [`mana`] + [`gate`] — a regenerating per-party token bucket enforced
//!   at the service-bus boundary: a party flooding negotiation starts is
//!   refused with a typed `BudgetExhausted` fault (retry-after hinted)
//!   before any simulated latency is charged, so the flood throttles
//!   itself and honest parties keep their latency.
//!
//! Reputation and budget mutations spill as journal facts
//! (`Fact::Reputation` / `Fact::Mana`), surviving the journal's
//! kill-at-any-byte-prefix recovery contract; `admission.*` / `mana.*`
//! counters and `admission.gate` spans land in the causal trace tree.
//!
//! Admission is opt-in per formation: a `vo::Formation` with
//! `admission: None` on a bus without a gate runs exactly as it did
//! before this crate existed — no charges, no counters, no spans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod band;
pub mod gate;
pub mod mana;
pub mod score;

pub use band::{BandConfig, QueueKey, TrustBand, REPLACEMENT_THRESHOLD};
pub use gate::{AdmissionGate, GATED_OPERATIONS, REQUESTER_ELEMENT};
pub use mana::{ManaConfig, ManaLedger};
pub use score::{Outcome, ScoringConfig, ScoringEngine};
