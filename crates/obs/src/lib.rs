//! Observability substrate for the trust-vo workspace.
//!
//! The paper's whole evaluation (Fig. 9, the message-count and disclosure
//! tables) is an observability exercise: counting rounds, disclosures, and
//! per-phase latencies. This crate provides the instrumentation layer the
//! rest of the workspace threads through — with **no external
//! dependencies** (std only, so the offline build stays offline) and no
//! global state (every [`Collector`] owns its own [`Registry`] and ring
//! buffer).
//!
//! Three primitives:
//!
//! * **Spans** ([`SpanGuard`]) — hierarchical timed regions with explicit
//!   parent ids, capturing both wall-clock *and* simulated
//!   (`SimClock`-virtual) durations. Recorded on drop.
//! * **Metrics** ([`metrics`]) — sharded atomic [`Counter`]s, [`Gauge`]s,
//!   and fixed-bucket [`Histogram`]s registered by name in a [`Registry`].
//!   Increments are lock-free; registry locks are touched only at
//!   handle-registration time, never on the hot path.
//! * **Events** — structured key/value records pushed into the
//!   collector's bounded in-memory ring buffer.
//!
//! Export: [`Collector::to_jsonl`] serializes the ring buffer plus a
//! metrics snapshot as JSON lines ([`Record::from_json_line`] parses them
//! back — see the round-trip tests), [`Collector::to_perfetto`] emits the
//! same batch as a Chrome trace-event / Perfetto document, and
//! [`Collector::summary`] renders a human-readable table.
//!
//! Causal tracing: [`trace`] defines the [`TraceContext`]/[`SpanLink`]
//! pair carried across SOA envelope hops so one negotiation's spans form
//! a single tree across client, retry, fault-transport, bus, and service
//! layers; [`critical`] attributes a completed trace's sim time to cost
//! categories and extracts critical paths; [`flight`] is the bounded
//! per-negotiation flight recorder dumped on faults.
//!
//! A disabled collector ([`Collector::disabled`], the one a `SimClock`
//! holds until a collector is attached) makes every operation an
//! early-returning no-op, cheap enough to leave in the parallel formation
//! hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod critical;
pub mod flight;
mod json;
pub mod metrics;
pub mod perfetto;
pub mod record;
pub mod summary;
pub mod trace;

pub use collector::{Collector, ObsContext, SpanGuard, DEFAULT_RING_CAPACITY};
pub use critical::{
    attribute, critical_path, render_attribution, render_critical_path, Attribution,
};
pub use flight::{FlightEntry, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use record::{parse_jsonl, EventRecord, HistogramRecord, Record, SpanRecord, Value};
pub use summary::render_summary;
pub use trace::{SpanLink, TraceContext};
