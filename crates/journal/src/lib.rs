//! The append-only **fact journal**: the durable substrate behind the
//! store, negotiation checkpoints and the admission layer.
//!
//! The paper's toolkit "adopts MySQL as storage support" (§6.3) so that
//! VOs, members, and membership certificates survive restarts. This crate
//! substitutes a write-ahead log of *facts*: every state mutation the
//! process wants to survive a crash is appended as one length-framed,
//! CRC-checksummed record, and recovery is a deterministic replay of the
//! longest clean record prefix.
//!
//! Two producers spill into one journal:
//!
//! * the multi-versioned document [`Database`](../trust_vo_store) — every
//!   `put`/`delete`/`purge` becomes a [`Fact::Put`]/[`Fact::Delete`]/
//!   [`Fact::Purge`]. A `Put` carries the document's canonical binary
//!   encoding, the very bytes the store keeps for that revision, so
//!   neither journaling nor replay writes or parses XML; replay
//!   reconstructs revision histories exactly. Phase-2 negotiation
//!   checkpoints ride this path: the TN service persists them through the
//!   journaled database, so a restarted process resumes live
//!   negotiations through the signed resume-token path,
//! * the admission layer — its mana ledger and scoring engine spill
//!   [`Fact::Mana`] and [`Fact::Reputation`], each a party's resulting
//!   state.
//!
//! [`Journal::compact`] replaces only the store's facts and carries the
//! last `Reputation` and `Mana` fact per party forward, so compacting a
//! shared journal loses no consumer's state.
//!
//! # Torn-tail semantics
//!
//! A crash can truncate the log at any byte. Replay scans records until
//! the first frame that is incomplete or fails its checksum and discards
//! everything from there on — so the recovered state is always equal to
//! the state after some *prefix* of the committed operations (the
//! kill-at-any-prefix property, tested in `tests/journal_recovery.rs`).
//!
//! # Determinism
//!
//! Nothing here fsyncs, reads clocks, or injects randomness: the byte
//! stream is a pure function of the appended facts, and
//! [`Replay::digest`] is a pure function of the byte stream — two runs of
//! the same seeded workload produce byte-identical journals, which
//! `ci.sh` enforces by comparing replay digests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod fact;
pub mod frame;
pub mod journal;

pub use digest::Fnv64;
pub use fact::Fact;
pub use journal::{Journal, JournalStats, Replay};
