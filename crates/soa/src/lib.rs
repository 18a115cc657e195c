//! The SOA substrate: envelopes, service bus, the TN web service, and the
//! simulated-latency clock (paper §6).
//!
//! The prototype deploys trust negotiation as a Web Service (Tomcat + Axis
//! SOAP + Oracle) exposing three operations — `StartNegotiation`,
//! `PolicyExchange`, `CredentialExchange` — "each corresponding to one of
//! the main phases of the negotiation process" (§6.2), and the VO
//! Management toolkit invokes it "as a web service when needed" (§6).
//!
//! This crate reproduces that architecture in-process:
//!
//! * [`envelope`] — SOAP-style request/response envelopes carrying XML
//!   bodies,
//! * [`bus`] — a service registry + dispatcher with per-call latency
//!   accounting; every call crosses [`wire`],
//! * [`simclock`] — the simulated wall-clock. Every SOAP round-trip, DB
//!   query, signature operation, and JSP/GUI step is charged a latency
//!   calibrated to the paper's 2006-era testbed so that Fig. 9's *shape*
//!   can be regenerated (see `simclock::CostModel`),
//! * [`tn_service`] — the TN web service: negotiation state keyed by
//!   negotiation id, backed by a policy/credential [`trust_vo_store`]
//!   database per party,
//! * [`client`] — the `ClientWS` analogue that drives a whole negotiation
//!   through the service operations,
//! * [`retry`] — sim-time capped exponential backoff for transport faults,
//!   used by the resilient client driver and `vo::formation` when the bus
//!   is wrapped in the fault-injecting `trust-vo-netsim` transport,
//! * [`wire`] — the real byte boundary every bus call crosses: a
//!   length-framed (`[len][crc32][payload]`) canonical binary codec for
//!   envelopes and replies, with the XML path kept as a differential
//!   oracle,
//! * [`shard`] — the sharded work-stealing executor (per-shard bounded
//!   queues, `bus.queue_depth`/`bus.shed` backpressure, typed
//!   `Overloaded` sheds) and the single-queue dispatcher bus it is
//!   benchmarked against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod client;
pub mod envelope;
pub mod retry;
pub mod shard;
pub mod simclock;
pub mod tn_service;
pub mod wire;

pub use bus::{CallGate, ServiceBus, ServiceEndpoint, Transport};
pub use client::{
    run_negotiation, run_negotiation_resilient, ClientRun, ResilientRun, ResumePolicy,
};
pub use envelope::{Envelope, Fault, FaultKind};
pub use retry::{call_with_retry, Attempted, RetryPolicy};
pub use shard::{QueuedBus, ShardConfig, ShardRun};
pub use simclock::{CostModel, SimClock, SimDuration};
pub use tn_service::TnService;
