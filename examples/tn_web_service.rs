//! Drive a negotiation through the TN *web service* (§6.2): the three
//! operations StartNegotiation / PolicyExchange / CredentialExchange,
//! dispatched over the in-process service bus with simulated SOAP/DB
//! latencies — the Rust analogue of `ClientWS.java`.
//!
//! Run with: `cargo run --example tn_web_service`

use std::sync::Arc;
use trust_vo::negotiation::Strategy;
use trust_vo::obs::SpanLink;
use trust_vo::soa::client::{run_negotiation_resilient, ResumePolicy};
use trust_vo::soa::{RetryPolicy, ServiceBus, TnService};
use trust_vo::store::Database;
use trust_vo::vo::initiator_party_for_role;
use trust_vo::vo::scenario::{names, roles, AircraftScenario};

fn main() {
    let scenario = AircraftScenario::build();
    let clock = scenario.toolkit.clock.clone();
    clock.reset();

    // Stand up the service: register the two §5 negotiation parties. The
    // initiator's identity carries the Design-Portal role policies.
    let service = TnService::new(clock.clone(), Database::new());
    let initiator = initiator_party_for_role(
        scenario.provider(names::AIRCRAFT),
        &scenario.contract,
        roles::DESIGN_PORTAL,
    );
    service.register_party(initiator);
    service.register_party(scenario.provider(names::AEROSPACE).party.clone());
    println!(
        "TN service registered; DB now holds {:?}",
        service.database().stats()
    );

    let bus = ServiceBus::new(clock.clone());
    bus.register("tn-service", Arc::new(service));

    // The client drives the whole protocol over the bus. The bus is
    // reliable, so the client neither retries nor reconnects, and the
    // service keeps no resume checkpoints.
    let run = run_negotiation_resilient(
        &bus,
        "tn-service",
        names::AEROSPACE,
        names::AIRCRAFT,
        "VoMembership",
        Strategy::Standard,
        &RetryPolicy::none(),
        &ResumePolicy::none(),
        1,
        SpanLink::default(),
    )
    .outcome
    .expect("the Fig. 2 negotiation succeeds over the service");

    println!("negotiation #{} completed", run.negotiation_id);
    println!("  trust sequence length:     {}", run.sequence_len);
    println!("  CredentialExchange calls:  {}", run.credential_calls);
    println!(
        "  simulated service time:    {:.2} s",
        run.sim_elapsed.as_secs_f64()
    );
    println!("\nper-operation charges:");
    for (kind, count) in clock.counts() {
        println!("  {:<18} x{}", kind.label(), count);
    }
}
