//! The bus-boundary admission gate.
//!
//! Installed on the `ServiceBus` via
//! [`set_gate`](trust_vo_soa::ServiceBus::set_gate), the gate charges each
//! *negotiation-starting* call — a typed
//! [`StartNegotiation`](trust_vo_soa::Body::StartNegotiation) body, which
//! always names its requester — to the requesting party's mana bucket and
//! refuses exhausted parties with a typed
//! [`budget_exhausted`](Fault::budget_exhausted) fault *before* any
//! simulated latency is charged and before a single byte is encoded —
//! `ServiceBus::call` consults the gate ahead of the binary wire codec,
//! so a refused message never occupied the wire (nor paid its own
//! serialization) and a flood throttles only itself.
//!
//! Determinism contract: the gate sits *inside* the netsim wrapper (it
//! gates the real bus that netsim delivers to), and netsim's fault
//! decisions are keyed purely on `(seed, service, operation,
//! idempotency-key, attempt)` — so admission decisions cannot perturb the
//! fault decision stream, and a seeded chaos run replays bit-for-bit with
//! or without budgets enabled.

use crate::mana::ManaLedger;
use std::sync::Arc;
use trust_vo_soa::envelope::{Envelope, Fault};
use trust_vo_soa::simclock::SimClock;
use trust_vo_soa::{Body, CallGate};

/// The per-party flow-budget gate.
pub struct AdmissionGate {
    mana: Arc<ManaLedger>,
    clock: SimClock,
}

impl AdmissionGate {
    /// A gate charging `mana`, reading sim-time (and emitting obs) from
    /// `clock` — pass the same clock the bus runs on.
    pub fn new(mana: Arc<ManaLedger>, clock: SimClock) -> Self {
        AdmissionGate { mana, clock }
    }

    /// The ledger this gate charges.
    pub fn mana(&self) -> &Arc<ManaLedger> {
        &self.mana
    }
}

impl CallGate for AdmissionGate {
    fn admit(&self, service: &str, request: &Envelope) -> Result<(), Fault> {
        // Only a start opens a session. Per-session follow-ups
        // (`PolicyExchange`, `CredentialExchange`…) ride free: the budget
        // prices *session admission*, not chattiness within a session.
        let Body::StartNegotiation(start) = &*request.body else {
            return Ok(());
        };
        let party = start.requester.as_str();
        let now = self.clock.elapsed();
        let obs = self.clock.collector();
        let span = match &request.trace {
            Some(trace) if obs.is_enabled() => {
                let mut span = obs.span_linked("admission.gate", trace.link());
                span.field("service", service);
                span.field("party", party);
                Some(span)
            }
            _ => None,
        };
        let result = match self.mana.try_charge(party, now) {
            Ok(_remaining) => Ok(()),
            Err(retry_after) => Err(Fault::budget_exhausted(party, retry_after.0)),
        };
        if let Some(mut span) = span {
            span.field("admitted", result.is_ok());
        }
        if obs.is_enabled() {
            obs.counter_add(
                if result.is_ok() {
                    "admission.allowed"
                } else {
                    "admission.rejected"
                },
                1,
            );
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mana::ManaConfig;
    use trust_vo_negotiation::Strategy;
    use trust_vo_soa::simclock::{CostKind, CostModel};
    use trust_vo_soa::{ServiceBus, ServiceEndpoint, StartNegotiation};

    struct Ok200;
    impl ServiceEndpoint for Ok200 {
        fn handle(&self, _request: &Envelope) -> Result<Envelope, Fault> {
            Ok(Envelope::new(Body::StartNegotiationResponse))
        }
        fn operations(&self) -> Vec<String> {
            vec!["StartNegotiation".into()]
        }
    }

    fn start_request(party: &str) -> Envelope {
        Envelope::new(Body::StartNegotiation(StartNegotiation {
            strategy: Strategy::Standard,
            requester: party.into(),
            controller: "Aircraft".into(),
            resource: "VoMembership".into(),
            resumable: false,
        }))
    }

    fn gated_bus(config: ManaConfig) -> (ServiceBus, Arc<ManaLedger>) {
        let clock = SimClock::new(
            CostModel::paper_testbed(),
            trust_vo_credential::Timestamp(0),
        );
        let bus = ServiceBus::new(clock);
        bus.register("tn", Arc::new(Ok200));
        let mana = Arc::new(ManaLedger::new(config));
        bus.set_gate(Arc::new(AdmissionGate::new(
            mana.clone(),
            bus.clock().clone(),
        )));
        (bus, mana)
    }

    #[test]
    fn flood_is_refused_free_while_honest_parties_pass() {
        let (bus, _mana) = gated_bus(ManaConfig {
            capacity: 2.0,
            refill_per_sec: 0.0,
            cost_per_call: 1.0,
        });
        assert!(bus.call("tn", &start_request("Flooder")).is_ok());
        assert!(bus.call("tn", &start_request("Flooder")).is_ok());
        let spent = bus.clock().elapsed();
        let err = bus.call("tn", &start_request("Flooder")).unwrap_err();
        assert!(err.is_budget_exhausted());
        // The refusal charged no sim-time — the message never hit the
        // wire — and other parties still go through.
        assert_eq!(bus.clock().elapsed(), spent);
        assert!(bus.call("tn", &start_request("Honest")).is_ok());
    }

    #[test]
    fn non_start_operations_ride_free() {
        let (bus, mana) = gated_bus(ManaConfig {
            capacity: 1.0,
            refill_per_sec: 0.0,
            cost_per_call: 1.0,
        });
        bus.call("tn", &start_request("A")).unwrap();
        // Budget is gone, but follow-up operations are not gated.
        for body in [Body::PolicyExchange, Body::CredentialExchange] {
            assert!(bus.call("tn", &Envelope::new(body)).is_ok());
        }
        assert_eq!(mana.tokens("A", bus.clock().elapsed()), 0.0);
        assert!(bus
            .call("tn", &start_request("A"))
            .unwrap_err()
            .is_budget_exhausted());
    }

    #[test]
    fn refusal_precedes_encoding() {
        // The gate sits before the wire boundary: a refused request is
        // never framed (its canonical bytes are never produced), while an
        // admitted one crosses the codec both ways.
        let (bus, _mana) = gated_bus(ManaConfig {
            capacity: 1.0,
            refill_per_sec: 0.0,
            cost_per_call: 1.0,
        });
        let collector = trust_vo_obs::Collector::new();
        bus.clock().attach_obs(&collector);
        let wire = || {
            let metrics = collector.metrics();
            (
                metrics.counter("bus.wire.frames"),
                metrics.counter("bus.wire.tx_bytes"),
            )
        };
        bus.call("tn", &start_request("A")).unwrap();
        let (frames, tx_bytes) = wire();
        assert_eq!(frames, 2, "admitted call crossed the codec");
        assert!(tx_bytes > 0);
        let refused = start_request("A");
        assert!(bus.call("tn", &refused).unwrap_err().is_budget_exhausted());
        assert_eq!(
            wire(),
            (frames, tx_bytes),
            "a refusal must cost zero encode work"
        );
    }

    #[test]
    fn refused_call_retries_after_regeneration() {
        let (bus, _mana) = gated_bus(ManaConfig {
            capacity: 1.0,
            refill_per_sec: 2.0,
            cost_per_call: 1.0,
        });
        bus.call("tn", &start_request("A")).unwrap();
        let err = bus.call("tn", &start_request("A")).unwrap_err();
        let hint = err.retry_after_us.expect("hint");
        // Advance sim-time past the hint: the same request is admitted.
        bus.clock()
            .advance(trust_vo_soa::simclock::SimDuration(hint));
        assert!(bus.call("tn", &start_request("A")).is_ok());
        // And the admitted call paid its round trip.
        assert!(
            bus.clock().elapsed().0 > hint + bus.clock().model().cost_of(CostKind::SoapRoundTrip).0
        );
    }
}
