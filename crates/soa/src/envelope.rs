//! SOAP-style message envelopes.
//!
//! Every TN web service operation is invoked with a request envelope and
//! answered with a response envelope (or a fault), mirroring the Axis SOAP
//! transport of the prototype. The header carries the routing fields; the
//! body is one typed [`Body`], whose variant names the operation.

use crate::body::Body;
use std::sync::Arc;
use trust_vo_obs::TraceContext;
use trust_vo_xmldoc::{Element, Node};

/// A request or response envelope.
///
/// The body is held behind an [`Arc`]: hops that only rewrite trace
/// headers ([`Envelope::restamped`], per-attempt re-stamps in the retry
/// and netsim layers) share the payload instead of copying it. Each send
/// encodes the envelope afresh (see [`crate::wire`]); a fault-injecting
/// transport answers retries and duplicate deliveries from its reply
/// cache, so a second encoding of the same request is rare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The negotiation id, once assigned.
    pub negotiation_id: Option<u64>,
    /// Idempotency key: identifies one *logical* call across transport
    /// retries and duplicate deliveries, so state-mutating operations can be
    /// deduplicated at the receiver.
    pub idempotency_key: Option<u64>,
    /// Causal trace context: which trace this message belongs to and which
    /// span sent it. Stamped by the client driver and re-stamped by each
    /// hop that opens its own span (retry attempt, fault transport, bus),
    /// so server-side spans parent under the sending layer's span.
    /// `None` on untraced runs — the pre-tracing wire shape.
    pub trace: Option<TraceContext>,
    /// The typed body, shared between header-only copies of this
    /// envelope.
    pub body: Arc<Body>,
}

impl Envelope {
    /// An envelope carrying `body`, with an empty header. Accepts an
    /// owned [`Body`] or an already-shared `Arc<Body>`.
    pub fn new(body: impl Into<Arc<Body>>) -> Self {
        Envelope {
            negotiation_id: None,
            idempotency_key: None,
            trace: None,
            body: body.into(),
        }
    }

    /// The operation name, taken from the body (e.g. `StartNegotiation`).
    pub fn operation(&self) -> &str {
        self.body.operation()
    }

    /// Attach a negotiation id.
    #[must_use]
    pub fn with_negotiation(mut self, id: u64) -> Self {
        self.negotiation_id = Some(id);
        self
    }

    /// Attach an idempotency key (same key ⇒ same logical call).
    #[must_use]
    pub fn with_idempotency(mut self, key: u64) -> Self {
        self.idempotency_key = Some(key);
        self
    }

    /// Attach a trace context (see [`Envelope::trace`]).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// A copy of this envelope re-stamped so the next hop parents under
    /// span `span_id` of the same trace. Returns an unmodified clone when
    /// the envelope is untraced or `span_id` is 0 (inert span guard).
    /// The body is shared, not copied: only trace headers change.
    #[must_use]
    pub fn restamped(&self, span_id: u64) -> Self {
        let mut out = self.clone();
        if span_id != 0 {
            if let Some(trace) = &self.trace {
                out.trace = Some(trace.child(span_id));
            }
        }
        out
    }

    /// Serialize as a SOAP-shaped XML document, the body in its
    /// [`Body::to_xml`] rendering.
    pub fn to_xml(&self) -> Element {
        let mut header =
            Element::new("Header").child(Element::new("operation").text(self.operation()));
        if let Some(id) = self.negotiation_id {
            header.children.push(Node::Element(
                Element::new("negotiationId").text(id.to_string()),
            ));
        }
        if let Some(key) = self.idempotency_key {
            header.children.push(Node::Element(
                Element::new("idempotencyKey").text(key.to_string()),
            ));
        }
        if let Some(trace) = &self.trace {
            header.children.push(Node::Element(
                Element::new("traceId").text(trace.trace_id.to_string()),
            ));
            header.children.push(Node::Element(
                Element::new("spanId").text(trace.span_id.to_string()),
            ));
            if let Some(parent) = trace.parent_span_id {
                header.children.push(Node::Element(
                    Element::new("parentSpanId").text(parent.to_string()),
                ));
            }
        }
        Element::new("Envelope")
            .child(header)
            .child(Element::new("Body").child(self.body.to_xml()))
    }

    /// Parse an envelope from its XML document. `None` when the header
    /// lacks an operation or the body is not that operation's
    /// ([`Body::from_xml`]).
    pub fn from_xml(root: &Element) -> Option<Self> {
        if root.name != "Envelope" {
            return None;
        }
        let header = root.first("Header")?;
        let operation = header.child_text("operation")?;
        let negotiation_id = header
            .child_text("negotiationId")
            .and_then(|t| t.parse().ok());
        let idempotency_key = header
            .child_text("idempotencyKey")
            .and_then(|t| t.parse().ok());
        // Trace headers are lenient like the ids: both trace and span ids
        // must parse (and a 0 trace id means untraced), else the envelope
        // simply carries no trace.
        let trace = match (
            header.child_text("traceId").and_then(|t| t.parse().ok()),
            header.child_text("spanId").and_then(|t| t.parse().ok()),
        ) {
            (Some(trace_id), Some(span_id)) if trace_id != 0 => Some(TraceContext {
                trace_id,
                span_id,
                parent_span_id: header
                    .child_text("parentSpanId")
                    .and_then(|t| t.parse().ok()),
            }),
            _ => None,
        };
        let body = Body::from_xml(&operation, root.first("Body")?.elements().next()?)?;
        Some(Envelope {
            negotiation_id,
            idempotency_key,
            trace,
            body: Arc::new(body),
        })
    }
}

/// Classifies a [`Fault`] by *where* it originated, which determines how a
/// caller should react to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Raised by the called endpoint itself (bad request, protocol error,
    /// policy failure…). Retrying the same call will not help.
    Application,
    /// The service name has no registration on the bus: a wiring error, not
    /// a runtime condition. Retrying will not help.
    NoSuchService,
    /// The transport lost, timed out, or could not deliver the message
    /// (drop, partition, endpoint crash). The endpoint may or may not have
    /// seen the request; retrying with the same idempotency key is safe.
    Transport,
    /// The caller's per-party flow budget is exhausted (see the
    /// `trust-vo-admission` mana ledger): the bus refused to dispatch the
    /// call *before* charging any simulated latency. The request was never
    /// delivered, so retrying with the same idempotency key is safe — but
    /// only after the budget regenerates; [`Fault::retry_after_us`] carries
    /// the hint. Deliberately distinct from [`FaultKind::Transport`] so
    /// blind retry loops do not hammer an exhausted budget, and from
    /// [`FaultKind::Application`] so reply caches never pin the rejection
    /// (budgets refill; the rejection is transient).
    BudgetExhausted,
    /// A bounded dispatch queue was full and the call was shed *before*
    /// any bytes were encoded or any simulated latency charged (see the
    /// sharded executor and single-queue bus in `crate::shard`). The
    /// request was never delivered, so retrying with the same idempotency
    /// key is safe once the queue drains; [`Fault::retry_after_us`]
    /// carries the drain estimate. Distinct from [`FaultKind::Transport`]
    /// so blind retry loops do not hammer a saturated queue, and from
    /// [`FaultKind::Application`] so reply caches never pin the shed
    /// (queues drain; the rejection is transient) — the same contract as
    /// [`FaultKind::BudgetExhausted`].
    Overloaded,
}

/// A service fault (SOAP fault analogue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Machine-readable code.
    pub code: String,
    /// Human-readable reason.
    pub reason: String,
    /// Where the fault originated.
    pub kind: FaultKind,
    /// Sim-time hint (µs) after which retrying may succeed. Set on
    /// [`FaultKind::BudgetExhausted`] faults (time until the party's flow
    /// budget regenerates one call's worth of tokens) and on
    /// [`FaultKind::Overloaded`] sheds (estimated queue drain time).
    pub retry_after_us: Option<u64>,
}

impl Fault {
    /// Build an application-level fault.
    pub fn new(code: impl Into<String>, reason: impl Into<String>) -> Self {
        Fault {
            code: code.into(),
            reason: reason.into(),
            kind: FaultKind::Application,
            retry_after_us: None,
        }
    }

    /// Build the typed fault for an unregistered service name.
    pub fn no_such_service(service: &str) -> Self {
        Fault {
            code: "NoSuchService".into(),
            reason: format!("service '{service}' not registered"),
            kind: FaultKind::NoSuchService,
            retry_after_us: None,
        }
    }

    /// Build a transport-level fault (drop, timeout, partition, crash).
    pub fn transport(code: impl Into<String>, reason: impl Into<String>) -> Self {
        Fault {
            code: code.into(),
            reason: reason.into(),
            kind: FaultKind::Transport,
            retry_after_us: None,
        }
    }

    /// Build the typed fault for an exhausted per-party flow budget.
    /// `retry_after_us` is the sim-time until the party's bucket
    /// regenerates enough to admit one call (0 ⇒ retry immediately).
    pub fn budget_exhausted(party: &str, retry_after_us: u64) -> Self {
        Fault {
            code: "BudgetExhausted".into(),
            reason: format!("flow budget for party '{party}' exhausted"),
            kind: FaultKind::BudgetExhausted,
            retry_after_us: Some(retry_after_us),
        }
    }

    /// Build the typed fault for a saturated dispatch queue: the call was
    /// shed before encoding, never delivered. `retry_after_us` is the
    /// estimated sim-time until the queue drains one slot (0 ⇒ retry
    /// immediately).
    pub fn overloaded(service: &str, retry_after_us: u64) -> Self {
        Fault {
            code: "Overloaded".into(),
            reason: format!("dispatch queue for service '{service}' is full"),
            kind: FaultKind::Overloaded,
            retry_after_us: Some(retry_after_us),
        }
    }

    /// True when the fault came from the transport, i.e. the call may be
    /// retried with the same idempotency key.
    pub fn is_transport(&self) -> bool {
        self.kind == FaultKind::Transport
    }

    /// True when the fault is a shed from a saturated dispatch queue: the
    /// call was never dispatched and may be retried after
    /// [`Fault::retry_after_us`].
    pub fn is_overloaded(&self) -> bool {
        self.kind == FaultKind::Overloaded
    }

    /// True when the fault is a flow-budget rejection: the call was never
    /// dispatched and may be retried after [`Fault::retry_after_us`].
    pub fn is_budget_exhausted(&self) -> bool {
        self.kind == FaultKind::BudgetExhausted
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault [{}]: {}", self.code, self.reason)
    }
}

impl std::error::Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::StartNegotiation;
    use trust_vo_negotiation::Strategy;

    fn doc(operation: &str, root: &str) -> Envelope {
        Envelope::new(Body::document(operation, Element::new(root)).unwrap())
    }

    #[test]
    fn envelope_roundtrip() {
        let env = Envelope::new(Body::StartNegotiation(StartNegotiation {
            strategy: Strategy::Standard,
            requester: "Aerospace".into(),
            controller: "Aircraft".into(),
            resource: "VoMembership".into(),
            resumable: false,
        }))
        .with_negotiation(7);
        assert_eq!(env.operation(), "StartNegotiation");
        let xml = env.to_xml();
        let text = trust_vo_xmldoc::to_string(&xml);
        let parsed = trust_vo_xmldoc::parse(&text).unwrap();
        assert_eq!(Envelope::from_xml(&parsed), Some(env));
    }

    #[test]
    fn envelope_without_id() {
        let env = Envelope::new(Body::PolicyExchange);
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        assert_eq!(back.negotiation_id, None);
        assert_eq!(back.operation(), "PolicyExchange");
    }

    #[test]
    fn from_xml_rejects_malformed() {
        assert!(Envelope::from_xml(&Element::new("NotEnvelope")).is_none());
        assert!(Envelope::from_xml(&Element::new("Envelope")).is_none());
        let no_body = Element::new("Envelope")
            .child(Element::new("Header").child(Element::new("operation").text("X")));
        assert!(Envelope::from_xml(&no_body).is_none());
        // A TN operation whose body is not that message is malformed.
        let wrong_body = Element::new("Envelope")
            .child(Element::new("Header").child(Element::new("operation").text("PolicyExchange")))
            .child(Element::new("Body").child(Element::new("x")));
        assert!(Envelope::from_xml(&wrong_body).is_none());
    }

    #[test]
    fn fault_display() {
        let f = Fault::new("NoSuchNegotiation", "id 42 unknown");
        assert_eq!(f.to_string(), "fault [NoSuchNegotiation]: id 42 unknown");
    }

    #[test]
    fn fault_kinds() {
        assert_eq!(Fault::new("X", "y").kind, FaultKind::Application);
        let ns = Fault::no_such_service("ghost");
        assert_eq!(ns.kind, FaultKind::NoSuchService);
        assert_eq!(ns.code, "NoSuchService");
        assert!(!ns.is_transport());
        let t = Fault::transport("Timeout", "request lost");
        assert_eq!(t.kind, FaultKind::Transport);
        assert!(t.is_transport());
    }

    #[test]
    fn budget_exhausted_fault_is_typed_with_hint() {
        let f = Fault::budget_exhausted("Flooder Inc", 250_000);
        assert_eq!(f.kind, FaultKind::BudgetExhausted);
        assert_eq!(f.code, "BudgetExhausted");
        assert_eq!(f.retry_after_us, Some(250_000));
        assert!(f.is_budget_exhausted());
        // Pinned: neither transport (blind retry loops must not hammer an
        // exhausted budget) nor application (reply caches must not pin it).
        assert!(!f.is_transport());
        assert_ne!(f.kind, FaultKind::Application);
        // Every other constructor leaves the hint empty.
        assert_eq!(Fault::new("X", "y").retry_after_us, None);
        assert_eq!(Fault::transport("T", "u").retry_after_us, None);
        assert_eq!(Fault::no_such_service("g").retry_after_us, None);
    }

    #[test]
    fn overloaded_fault_is_typed_with_hint() {
        let f = Fault::overloaded("tn", 75_000);
        assert_eq!(f.kind, FaultKind::Overloaded);
        assert_eq!(f.code, "Overloaded");
        assert_eq!(f.retry_after_us, Some(75_000));
        assert!(f.is_overloaded());
        // Pinned like BudgetExhausted: neither transport (blind retry
        // loops must not hammer a saturated queue) nor application (reply
        // caches must not pin a shed).
        assert!(!f.is_transport());
        assert!(!f.is_budget_exhausted());
        assert_ne!(f.kind, FaultKind::Application);
    }

    #[test]
    fn restamped_shares_the_body_allocation() {
        let env = doc("Echo", "big")
            .with_negotiation(7)
            .with_trace(TraceContext {
                trace_id: 9,
                span_id: 4,
                parent_span_id: None,
            });
        let hop = env.restamped(6);
        // Per-hop restamping is allocation-light: the (possibly large)
        // body is shared, never copied.
        assert!(Arc::ptr_eq(&env.body, &hop.body));
    }

    #[test]
    fn trace_context_roundtrips_through_xml() {
        let env = Envelope::new(Body::PolicyExchange)
            .with_negotiation(3)
            .with_trace(TraceContext {
                trace_id: 11,
                span_id: 42,
                parent_span_id: Some(40),
            });
        let text = trust_vo_xmldoc::to_string(&env.to_xml());
        let back = Envelope::from_xml(&trust_vo_xmldoc::parse(&text).unwrap()).unwrap();
        assert_eq!(back, env);

        // Root-hop context: no parent span.
        let root = doc("Echo", "x").with_trace(TraceContext {
            trace_id: 1,
            span_id: 2,
            parent_span_id: None,
        });
        let back = Envelope::from_xml(&root.to_xml()).unwrap();
        assert_eq!(back, root);

        // Untraced envelopes stay untraced through the round trip.
        let plain = Envelope::new(Body::PolicyExchange);
        assert_eq!(Envelope::from_xml(&plain.to_xml()).unwrap().trace, None);
    }

    #[test]
    fn restamped_advances_the_hop_chain() {
        let env = Envelope::new(Body::CredentialExchange).with_trace(TraceContext {
            trace_id: 9,
            span_id: 4,
            parent_span_id: Some(2),
        });
        let hop = env.restamped(6);
        assert_eq!(
            hop.trace,
            Some(TraceContext {
                trace_id: 9,
                span_id: 6,
                parent_span_id: Some(4),
            })
        );
        // Inert span guards (id 0) and untraced envelopes pass through.
        assert_eq!(env.restamped(0).trace, env.trace);
        let plain = Envelope::new(Body::CredentialExchange);
        assert_eq!(plain.restamped(6), plain);
    }

    #[test]
    fn idempotency_key_roundtrips() {
        let env = Envelope::new(Body::CredentialExchange)
            .with_negotiation(3)
            .with_idempotency(0xDEAD_BEEF);
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        assert_eq!(back.idempotency_key, Some(0xDEAD_BEEF));
        assert_eq!(back, env);
    }
}
