//! The wire boundary is transparent. Every `ServiceBus::call` frames the
//! request and the reply, and neither side can tell: an endpoint receives
//! exactly the envelope that was sent — operation, body, negotiation id,
//! idempotency key and trace — and the caller receives exactly the
//! endpoint's reply or fault. The one documented rewrite is the untraced
//! sentinel: a trace whose `trace_id` is 0 arrives as no trace at all.
//!
//! The same checks run through the single-queue `QueuedBus`, which frames
//! the same way on its dispatcher thread.

use parking_lot::Mutex;
use std::sync::Arc;
use trust_vo_credential::{CredentialAuthority, TimeRange, Timestamp};
use trust_vo_crypto::KeyPair;
use trust_vo_obs::TraceContext;
use trust_vo_soa::simclock::{CostModel, SimClock};
use trust_vo_soa::{Envelope, Fault, QueuedBus, ServiceBus, ServiceEndpoint, Transport};
use trust_vo_xmldoc::{Element, Node};

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

/// The envelope shapes that cross the bus in a formation, as in E15's
/// corpus: a bare control message, a start request, a policy exchange and
/// a credential-bearing exchange.
fn corpus() -> Vec<(String, Element)> {
    let start = Element::new("StartNegotiationRequest")
        .child(Element::new("strategy").text("standard"))
        .child(Element::new("requester").text("Aerospace"))
        .child(Element::new("counterpartUrl").text("Aircraft"))
        .child(Element::new("resource").text("VoMembership"));
    let mut policies = Element::new("PolicyExchangeRequest");
    for i in 0..8 {
        policies.children.push(Node::Element(
            Element::new("policy")
                .attr("id", format!("p{i}"))
                .child(Element::new("target").text(format!("Cred{i}")))
                .child(Element::new("term").text(format!("Needs{i}"))),
        ));
    }
    let holder = KeyPair::from_seed(b"wire-transparency-holder");
    let cred = CredentialAuthority::new("Transparency CA")
        .issue(
            "WebDesignerQuality",
            "Holder",
            holder.public,
            vec![],
            TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0)),
        )
        .expect("open schema");
    let credential = Element::new("CredentialExchangeRequest").child(cred.to_xml());
    vec![
        (
            "StartNegotiation".into(),
            Element::new("StartNegotiationRequest"),
        ),
        ("StartNegotiation".into(), start),
        ("PolicyExchange".into(), policies),
        ("CredentialExchange".into(), credential),
    ]
}

/// `operation` and `body` with the given optional headers.
fn envelope(
    operation: String,
    body: Arc<Element>,
    negotiation: Option<u64>,
    key: Option<u64>,
    trace: Option<TraceContext>,
) -> Envelope {
    let mut env = Envelope::request(operation, body);
    if let Some(id) = negotiation {
        env = env.with_negotiation(id);
    }
    if let Some(key) = key {
        env = env.with_idempotency(key);
    }
    if let Some(trace) = trace {
        env = env.with_trace(trace);
    }
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
    for (operation, body) in corpus() {
        let body = Arc::new(body);
        for negotiation in [None, Some(0), Some(7)] {
            for key in [None, Some(0x5EED_0001), Some(u64::MAX)] {
                for trace in traces {
                    out.push(envelope(
                        operation.clone(),
                        body.clone(),
                        negotiation,
                        key,
                        trace,
                    ));
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
    // Responses carry the request's headers, so the reply direction
    // covers every header combination too.
    let mut replies: Vec<Result<Envelope, Fault>> = envelopes
        .iter()
        .map(|env| {
            Ok(envelope(
                format!("{}Response", env.operation),
                env.body.clone(),
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
    let mut sent = Envelope::request("First", Element::new("FirstRequest")).with_negotiation(1);
    sent.operation = "Second".into();
    sent.negotiation_id = Some(2);
    sent.body = Arc::new(Element::new("SecondRequest"));
    *recorder.reply.lock() = Some(Ok(Envelope::request("Ack", Element::new("Ack"))));
    bus.call("svc", &sent).expect("scripted reply");
    let received = recorder.received.lock().pop().expect("delivered");
    assert_eq!(received.operation, "Second");
    assert_eq!(received, sent);
}
