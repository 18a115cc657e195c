//! In-memory versioned XML document store.
//!
//! The paper's TN web service keeps "the disclosure policies and
//! credentials of the invoker" in an Oracle 10g database (later migrated to
//! MySQL, §6.3) and queries them with XPath. This crate substitutes a
//! deterministic in-memory store with the same observable behaviour:
//!
//! * named **collections** of XML documents keyed by id,
//! * **XPath-subset queries** over a collection (`find` / `find_all`),
//! * **versioning** — updates keep prior revisions, supporting the
//!   re-negotiation flows of the VO operation phase, until the document
//!   is purged (`Collection::purge` forgets it with its history),
//! * **encode-once storage** — each revision is kept as its one
//!   canonical `xmldoc::binary` encoding, which is also the journaled
//!   fact and the state-digest input; reads decode it,
//! * thread-safe handles (`parking_lot::RwLock`) so the SOA layer can share
//!   one store across service endpoints, as the prototype shared one DB
//!   connection pool.
//!
//! Query latency accounting lives in the SOA sim-clock, not here; the store
//! exposes an operation counter the clock reads.
//!
//! With a journal attached, the database compacts it in place once the
//! log's bytes for purged documents reach the size of a live snapshot
//! (and `COMPACT_MIN_BYTES`), so a workload that forgets as much as it
//! writes keeps a bounded log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collection;
pub mod database;

pub use collection::{Collection, DocId};
pub use database::COMPACT_MIN_BYTES;
pub use database::{Database, StoreStats};
