//! Boundary spans timed from outside the program: wrappers on the
//! `Transport`, `CallGate` and `ServiceEndpoint` traits that open a span
//! in the clock's collector around the call they forward, and re-stamp
//! the envelope so the program's own spans below parent under it.
//!
//! Used only by traced runs; untraced runs call the program directly.

use std::sync::Arc;

use trust_vo_obs::SpanLink;
use trust_vo_soa::simclock::SimClock;
use trust_vo_soa::{CallGate, Envelope, Fault, ServiceEndpoint, Transport};

/// Span around a caller's `Transport::call`: gate, wire framing and
/// codec, dispatch, and the endpoint.
pub const TRANSPORT: &str = "e2e.transport";
/// Span around the bus's `CallGate::admit`.
pub const GATE: &str = "e2e.gate";
/// Span around the bus's `ServiceEndpoint::handle`.
pub const ENDPOINT: &str = "e2e.endpoint";

fn link(request: &Envelope) -> SpanLink {
    request.trace.as_ref().map(|t| t.link()).unwrap_or_default()
}

/// Forwards `request` under a span named `name` in `clock`'s collector.
fn spanned<R>(
    clock: &SimClock,
    name: &str,
    request: &Envelope,
    f: impl FnOnce(&Envelope) -> R,
) -> R {
    let span = clock.collector().span_linked(name, link(request));
    let routed = request.restamped(span.id().unwrap_or(0));
    f(&routed)
}

/// A caller-side transport that times every call it forwards.
pub struct TracedTransport<'a, T: ?Sized> {
    pub inner: &'a T,
}

impl<T: Transport + ?Sized> Transport for TracedTransport<'_, T> {
    fn call(&self, service: &str, request: &Envelope) -> Result<Envelope, Fault> {
        spanned(self.inner.clock(), TRANSPORT, request, |r| {
            self.inner.call(service, r)
        })
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }
}

/// An admission gate that times every decision it forwards.
pub struct TracedGate {
    pub inner: Arc<dyn CallGate>,
    pub clock: SimClock,
}

impl CallGate for TracedGate {
    fn admit(&self, service: &str, request: &Envelope) -> Result<(), Fault> {
        spanned(&self.clock, GATE, request, |r| self.inner.admit(service, r))
    }
}

/// A service endpoint that times every request it forwards.
pub struct TracedEndpoint {
    pub inner: Arc<dyn ServiceEndpoint>,
    pub clock: SimClock,
}

impl ServiceEndpoint for TracedEndpoint {
    fn handle(&self, request: &Envelope) -> Result<Envelope, Fault> {
        spanned(&self.clock, ENDPOINT, request, |r| self.inner.handle(r))
    }

    fn operations(&self) -> Vec<String> {
        self.inner.operations()
    }

    fn on_crash(&self) {
        self.inner.on_crash();
    }
}
