//! The service bus.
//!
//! The prototype combined "several Web services for managing VOs" over a
//! SOA (§6.1); the bus plays the role of the SOAP transport + service
//! registry: endpoints register under a URL-like name, callers dispatch
//! envelopes, and every call is charged one SOAP round trip on the shared
//! [`SimClock`]. Like the prototype's one SOAP path, every call crosses
//! the framed byte boundary of [`crate::wire`]; there is no in-process
//! shortcut around it.

use crate::envelope::{Envelope, Fault};
use crate::simclock::{CostKind, SimClock};
use crate::wire;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A service endpoint: handles envelopes for its registered operations.
pub trait ServiceEndpoint: Send + Sync {
    /// Handle one request envelope.
    fn handle(&self, request: &Envelope) -> Result<Envelope, Fault>;

    /// The operations this endpoint serves (for discovery/diagnostics).
    fn operations(&self) -> Vec<String>;

    /// Notification that the simulated process hosting this endpoint
    /// crashed and restarted: volatile state (in-flight sessions) should be
    /// discarded, durable state (the database) survives. Default: no-op.
    fn on_crash(&self) {}
}

/// Anything a client can dispatch envelopes through: the bare
/// [`ServiceBus`], or a fault-injecting wrapper around it (see the
/// `trust-vo-netsim` crate). Client-side drivers ([`crate::client`],
/// `vo::formation`) are written against this trait so the same code runs on
/// a perfect transport and on a lossy one.
pub trait Transport: Send + Sync {
    /// Dispatch a request to a service.
    fn call(&self, service: &str, request: &Envelope) -> Result<Envelope, Fault>;

    /// The clock this transport charges latency to.
    fn clock(&self) -> &SimClock;
}

/// An admission gate consulted by [`ServiceBus::call`] *before* any
/// dispatch work (including the SOAP round-trip charge): return `Err` to
/// refuse the call without it ever reaching the wire. Implemented by the
/// `trust-vo-admission` crate's per-party flow-budget gate; the trait
/// lives here so `soa` needs no dependency on the admission layer.
///
/// Rejections are free in sim-time by design: a refused call never
/// occupied the transport, so a flooding party throttles *itself* without
/// inflating the shared clock that honest parties' latency is measured on.
pub trait CallGate: Send + Sync {
    /// Admit or refuse one call. `Err` is returned to the caller verbatim
    /// (use [`Fault::budget_exhausted`](crate::envelope::Fault::budget_exhausted)
    /// for flow-budget refusals so clients get the retry-after hint).
    fn admit(&self, service: &str, request: &Envelope) -> Result<(), Fault>;
}

/// The service bus: a registry plus dispatcher.
#[derive(Clone)]
pub struct ServiceBus {
    endpoints: Arc<RwLock<BTreeMap<String, Arc<dyn ServiceEndpoint>>>>,
    gate: Arc<RwLock<Option<Arc<dyn CallGate>>>>,
    clock: SimClock,
}

impl ServiceBus {
    /// A bus with the given clock.
    pub fn new(clock: SimClock) -> Self {
        ServiceBus {
            endpoints: Arc::new(RwLock::new(BTreeMap::new())),
            gate: Arc::new(RwLock::new(None)),
            clock,
        }
    }

    /// Install (or replace) the admission gate consulted by every call.
    /// Shared across clones of this bus, like the endpoint registry.
    pub fn set_gate(&self, gate: Arc<dyn CallGate>) {
        *self.gate.write() = Some(gate);
    }

    /// Remove the admission gate: every call is admitted again.
    pub fn clear_gate(&self) {
        *self.gate.write() = None;
    }

    /// Register an endpoint under a service name. Re-registering replaces.
    pub fn register(&self, name: impl Into<String>, endpoint: Arc<dyn ServiceEndpoint>) {
        self.endpoints.write().insert(name.into(), endpoint);
    }

    /// Registered service names.
    pub fn services(&self) -> Vec<String> {
        self.endpoints.read().keys().cloned().collect()
    }

    /// Look up a registered endpoint (used by transport wrappers to deliver
    /// out-of-band notifications such as crash/restart).
    pub fn endpoint(&self, name: &str) -> Option<Arc<dyn ServiceEndpoint>> {
        self.endpoints.read().get(name).cloned()
    }

    /// Consult the admission gate for one call, without dispatching.
    /// `Err` is the gate's refusal, returned before any encoding or
    /// simulated latency: a refused message never occupies the wire.
    pub fn admit(&self, service: &str, request: &Envelope) -> Result<(), Fault> {
        let gate = self.gate.read().clone();
        if let Some(gate) = gate {
            gate.admit(service, request)?;
        }
        Ok(())
    }

    /// Dispatch a request to a service. Charges one SOAP round trip.
    ///
    /// When an admission gate is installed (see [`ServiceBus::set_gate`])
    /// it is consulted first; a refused call returns the gate's fault
    /// without charging the round trip *or encoding a single byte* — the
    /// message never reached the wire.
    ///
    /// The admitted request then crosses a real byte boundary (see
    /// [`crate::wire`]): its cached canonical encoding is length-framed
    /// with a CRC, unframed and decoded on the service side, dispatched,
    /// and the reply — response or fault — crosses back the same way.
    /// `bus.wire.frames` / `bus.wire.tx_bytes` / `bus.wire.rx_bytes`
    /// counters account the traffic. A frame that fails its checksum or
    /// decode surfaces as a typed transport fault. The boundary charges
    /// no simulated latency of its own (the SOAP round-trip cost already
    /// models the hop), and the codec round-trips every envelope and
    /// reply exactly, so the endpoint and the caller see what was sent.
    ///
    /// On a traced request (see [`Envelope::trace`]) the dispatch is
    /// wrapped in a `bus.dispatch` span parented under the sending hop's
    /// span, and the envelope is re-stamped so endpoint-side spans parent
    /// under the dispatch.
    pub fn call(&self, service: &str, request: &Envelope) -> Result<Envelope, Fault> {
        self.admit(service, request)?;
        // Client side: one framed record around the cached canonical
        // payload. Encoding happens only after admission.
        let request_frame = wire::frame_envelope(request);
        let obs = self.clock.collector();
        if obs.is_enabled() {
            obs.counter_add("bus.wire.frames", 1);
            obs.counter_add("bus.wire.tx_bytes", request_frame.len() as u64);
        }
        // Service side: unframe + decode before the endpoint sees it.
        let delivered = wire::unframe_envelope(&request_frame)
            .ok_or_else(|| Fault::transport("WireDecode", "request frame torn or corrupt"))?;
        let reply = self.dispatch(service, &delivered);
        let reply_frame = wire::frame_reply(&reply);
        if obs.is_enabled() {
            obs.counter_add("bus.wire.frames", 1);
            obs.counter_add("bus.wire.rx_bytes", reply_frame.len() as u64);
        }
        wire::unframe_reply(&reply_frame).unwrap_or_else(|| {
            Err(Fault::transport(
                "WireDecode",
                "reply frame torn or corrupt",
            ))
        })
    }

    /// The dispatch behind [`ServiceBus::call`]: charge, span, endpoint.
    /// The admission gate has already been consulted and the request
    /// already unframed — the `shard` module's dispatcher calls this
    /// after unframing on its own thread.
    pub(crate) fn dispatch(&self, service: &str, request: &Envelope) -> Result<Envelope, Fault> {
        self.clock.charge(CostKind::SoapRoundTrip);
        let obs = self.clock.collector();
        if obs.is_enabled() {
            obs.counter_add("bus.calls", 1);
        }
        let span = match &request.trace {
            Some(trace) if obs.is_enabled() => {
                let mut span = obs.span_linked("bus.dispatch", trace.link());
                span.field("service", service);
                span.field("operation", request.operation.as_str());
                Some(span)
            }
            _ => None,
        };
        let endpoint = {
            let guard = self.endpoints.read();
            guard.get(service).cloned()
        };
        let result = match endpoint {
            Some(ep) => match &span {
                Some(span) => ep.handle(&request.restamped(span.id().unwrap_or(0))),
                None => ep.handle(request),
            },
            None => Err(Fault::no_such_service(service)),
        };
        drop(span);
        if obs.is_enabled() {
            if result.is_err() {
                obs.counter_add("bus.faults", 1);
            }
            obs.event(
                "bus.call",
                vec![
                    ("service".to_string(), service.into()),
                    ("operation".to_string(), request.operation.as_str().into()),
                    ("ok".to_string(), result.is_ok().into()),
                ],
            );
        }
        result
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }
}

impl Transport for ServiceBus {
    fn call(&self, service: &str, request: &Envelope) -> Result<Envelope, Fault> {
        ServiceBus::call(self, service, request)
    }

    fn clock(&self) -> &SimClock {
        ServiceBus::clock(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simclock::CostModel;
    use trust_vo_credential::Timestamp;
    use trust_vo_xmldoc::Element;

    struct Echo;

    impl ServiceEndpoint for Echo {
        fn handle(&self, request: &Envelope) -> Result<Envelope, Fault> {
            if request.operation == "fail" {
                return Err(Fault::new("Boom", "requested failure"));
            }
            Ok(Envelope::request(
                format!("{}Response", request.operation),
                request.body.clone(),
            ))
        }

        fn operations(&self) -> Vec<String> {
            vec!["echo".into(), "fail".into()]
        }
    }

    fn bus() -> ServiceBus {
        ServiceBus::new(SimClock::new(CostModel::paper_testbed(), Timestamp(0)))
    }

    #[test]
    fn dispatch_reaches_endpoint() {
        let bus = bus();
        bus.register("echo-svc", Arc::new(Echo));
        let resp = bus
            .call(
                "echo-svc",
                &Envelope::request("echo", Element::new("hello")),
            )
            .unwrap();
        assert_eq!(resp.operation, "echoResponse");
        assert_eq!(resp.body.name, "hello");
    }

    #[test]
    fn unknown_service_faults() {
        let err = bus()
            .call("ghost", &Envelope::request("x", Element::new("b")))
            .unwrap_err();
        // Pinned: an unregistered service is a *typed* fault, not a generic
        // application string — callers branch on the kind, not the text.
        assert_eq!(err.kind, crate::envelope::FaultKind::NoSuchService);
        assert_eq!(err.code, "NoSuchService");
        assert_eq!(err.reason, "service 'ghost' not registered");
        assert!(!err.is_transport());
    }

    #[test]
    fn bus_implements_transport() {
        fn dispatch<T: Transport>(t: &T) -> Result<Envelope, Fault> {
            t.call("echo-svc", &Envelope::request("echo", Element::new("b")))
        }
        let bus = bus();
        bus.register("echo-svc", Arc::new(Echo));
        assert!(dispatch(&bus).is_ok());
        assert!(bus.endpoint("echo-svc").is_some());
        assert!(bus.endpoint("ghost").is_none());
        // Default crash notification is a no-op and must not panic.
        bus.endpoint("echo-svc").unwrap().on_crash();
    }

    #[test]
    fn endpoint_faults_propagate() {
        let bus = bus();
        bus.register("echo-svc", Arc::new(Echo));
        let err = bus
            .call("echo-svc", &Envelope::request("fail", Element::new("b")))
            .unwrap_err();
        assert_eq!(err.code, "Boom");
    }

    #[test]
    fn every_call_charges_a_roundtrip() {
        let bus = bus();
        bus.register("echo-svc", Arc::new(Echo));
        let before = bus.clock().elapsed();
        let _ = bus.call("echo-svc", &Envelope::request("echo", Element::new("b")));
        let _ = bus.call("ghost", &Envelope::request("echo", Element::new("b")));
        assert_eq!(
            bus.clock().elapsed().0 - before.0,
            (bus.clock().model().cost_of(CostKind::SoapRoundTrip) * 2).0
        );
    }

    #[test]
    fn gate_refusal_is_free_and_shared_across_clones() {
        struct DenyOp(String);
        impl CallGate for DenyOp {
            fn admit(&self, _service: &str, request: &Envelope) -> Result<(), Fault> {
                if request.operation == self.0 {
                    Err(Fault::budget_exhausted("tester", 1_000))
                } else {
                    Ok(())
                }
            }
        }
        let bus = bus();
        bus.register("echo-svc", Arc::new(Echo));
        let clone = bus.clone();
        bus.set_gate(Arc::new(DenyOp("echo".into())));
        let before = bus.clock().elapsed();
        // Refused via the clone too (gate state is shared), and the
        // refusal charges nothing: the message never reached the wire.
        let err = clone
            .call("echo-svc", &Envelope::request("echo", Element::new("b")))
            .unwrap_err();
        assert_eq!(err.kind, crate::envelope::FaultKind::BudgetExhausted);
        assert_eq!(err.retry_after_us, Some(1_000));
        assert_eq!(bus.clock().elapsed(), before);
        // Other operations pass and pay the usual round trip.
        assert!(bus
            .call("echo-svc", &Envelope::request("other", Element::new("b")))
            .is_ok());
        assert!(bus.clock().elapsed() > before);
        // Clearing the gate admits everything again.
        bus.clear_gate();
        assert!(clone
            .call("echo-svc", &Envelope::request("echo", Element::new("b")))
            .is_ok());
    }

    #[test]
    fn services_lists_registrations() {
        let bus = bus();
        bus.register("b-svc", Arc::new(Echo));
        bus.register("a-svc", Arc::new(Echo));
        assert_eq!(bus.services(), ["a-svc", "b-svc"]);
        assert_eq!(Echo.operations().len(), 2);
    }
}
