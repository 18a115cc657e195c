//! The wire boundary is transparent. Every `ServiceBus::call` frames the
//! request and the reply, and neither side can tell: an endpoint receives
//! exactly the envelope that was sent — every TN message type and a
//! document, negotiation id, idempotency key and trace — and the caller
//! receives exactly the endpoint's reply or fault. The one documented
//! rewrite is the untraced sentinel: a trace whose `trace_id` is 0
//! arrives as no trace at all.
//!
//! The same checks run through the single-queue `QueuedBus`, which frames
//! the same way on its dispatcher thread.

mod common;

use parking_lot::Mutex;
use std::sync::Arc;
use trust_vo_credential::Timestamp;
use trust_vo_obs::TraceContext;
use trust_vo_soa::simclock::{CostModel, SimClock};
use trust_vo_soa::{Body, Envelope, Fault, QueuedBus, ServiceBus, ServiceEndpoint, Transport};
use trust_vo_xmldoc::Element;

/// Records every request it receives and answers with the reply the test
/// scripted for the next call.
#[derive(Default)]
struct Recorder {
    received: Mutex<Vec<Envelope>>,
    reply: Mutex<Option<Result<Envelope, Fault>>>,
}

impl ServiceEndpoint for Recorder {
    fn handle(&self, request: &Envelope) -> Result<Envelope, Fault> {
        self.received.lock().push(request.clone());
        self.reply.lock().clone().expect("a scripted reply")
    }

    fn operations(&self) -> Vec<String> {
        vec!["*".into()]
    }
}

/// `body` with the given optional headers.
fn envelope(
    body: Arc<Body>,
    negotiation: Option<u64>,
    key: Option<u64>,
    trace: Option<TraceContext>,
) -> Envelope {
    let mut env = Envelope::new(body);
    env.negotiation_id = negotiation;
    env.idempotency_key = key;
    env.trace = trace;
    env
}

/// Every header combination: ids and keys absent or present, and traces
/// absent, rooted, parented, or carrying the untraced sentinel.
fn envelopes() -> Vec<Envelope> {
    let traces = [
        None,
        Some(TraceContext {
            trace_id: 11,
            span_id: 42,
            parent_span_id: None,
        }),
        Some(TraceContext {
            trace_id: u64::MAX,
            span_id: 0,
            parent_span_id: Some(40),
        }),
        Some(TraceContext {
            trace_id: 0,
            span_id: 7,
            parent_span_id: Some(3),
        }),
    ];
    let mut out = Vec::new();
    for body in common::every_body() {
        let body = Arc::new(body);
        for negotiation in [None, Some(0), Some(7)] {
            for key in [None, Some(0x5EED_0001), Some(u64::MAX)] {
                for trace in traces {
                    out.push(envelope(body.clone(), negotiation, key, trace));
                }
            }
        }
    }
    out
}

/// One fault of every `FaultKind`, each with and without a retry hint.
fn faults() -> Vec<Fault> {
    let mut out = Vec::new();
    for base in [
        Fault::new("PolicyUnsatisfied", "no satisfiable view"),
        Fault::no_such_service("ghost"),
        Fault::transport("Dropped", "message lost in transit"),
        Fault::budget_exhausted("Aerospace", 1_250),
        Fault::overloaded("tn", 0),
    ] {
        for hint in [None, Some(0), Some(u64::MAX)] {
            out.push(Fault {
                retry_after_us: hint,
                ..base.clone()
            });
        }
    }
    out
}

/// What the far side must see for `sent`: the envelope itself, except
/// that a trace with `trace_id` 0 is the untraced sentinel.
fn as_delivered(sent: &Envelope) -> Envelope {
    let mut expect = sent.clone();
    if sent.trace.is_some_and(|t| t.trace_id == 0) {
        expect.trace = None;
    }
    expect
}

fn check(transport: &dyn Transport, recorder: &Recorder) {
    let envelopes = envelopes();
    // Replies carry another body under the request's headers, so the
    // reply direction covers every body and header combination too.
    let mut replies: Vec<Result<Envelope, Fault>> = envelopes
        .iter()
        .zip(envelopes.iter().cycle().skip(36))
        .map(|(env, other)| {
            Ok(envelope(
                other.body.clone(),
                env.negotiation_id,
                env.idempotency_key,
                env.trace,
            ))
        })
        .collect();
    replies.extend(faults().into_iter().map(Err));
    for (i, reply) in replies.iter().enumerate() {
        let sent = &envelopes[i % envelopes.len()];
        *recorder.reply.lock() = Some(reply.clone());
        let got = transport.call("svc", sent);
        let expect = reply.as_ref().map(as_delivered).map_err(Fault::clone);
        assert_eq!(got, expect, "caller got the endpoint's reply, call {i}");
        let received = recorder.received.lock().pop().expect("delivered");
        assert_eq!(
            received,
            as_delivered(sent),
            "endpoint got the request, call {i}"
        );
    }
}

fn bus() -> (ServiceBus, Arc<Recorder>) {
    let bus = ServiceBus::new(SimClock::new(CostModel::paper_testbed(), Timestamp(0)));
    let recorder = Arc::new(Recorder::default());
    bus.register("svc", recorder.clone());
    (bus, recorder)
}

#[test]
fn the_bus_delivers_exactly_what_was_sent_and_replied() {
    let (bus, recorder) = bus();
    check(&bus, &recorder);
}

#[test]
fn the_queued_bus_delivers_exactly_what_was_sent_and_replied() {
    let (bus, recorder) = bus();
    let queued = QueuedBus::new(bus, 4);
    check(&queued, &recorder);
}

/// Header fields are public, so a caller can change one after building
/// the envelope. The endpoint must receive the envelope as it is when the
/// call is made, not as it was built.
#[test]
fn a_field_written_after_encoding_crosses_the_bus() {
    let (bus, recorder) = bus();
    let mut sent = Envelope::new(Body::PolicyExchange).with_negotiation(1);
    sent.negotiation_id = Some(2);
    sent.body = Arc::new(Body::CredentialExchange);
    *recorder.reply.lock() = Some(Ok(Envelope::new(
        Body::document("Ack", Element::new("Ack")).unwrap(),
    )));
    bus.call("svc", &sent).expect("scripted reply");
    let received = recorder.received.lock().pop().expect("delivered");
    assert_eq!(received.operation(), "CredentialExchange");
    assert_eq!(received, sent);
}
