//! The TN web service protocol over the scenario parties: the §6.2 stack
//! (ClientWS → bus → TnService → negotiation engine → store).

use std::sync::Arc;
use trust_vo::negotiation::Strategy;
use trust_vo::obs::SpanLink;
use trust_vo::soa::client::{run_negotiation_resilient, ClientRun, ResumePolicy};
use trust_vo::soa::simclock::{CostKind, SimDuration};
use trust_vo::soa::{Body, Envelope, Fault, RetryPolicy, ServiceBus, TnService};
use trust_vo::store::Database;
use trust_vo::vo::scenario::{names, roles, AircraftScenario};

fn service_setup() -> (ServiceBus, Arc<TnService>) {
    let scenario = AircraftScenario::build();
    let clock = scenario.toolkit.clock.clone();
    clock.reset();
    let service = TnService::new(clock.clone(), Database::new());
    let mut initiator = scenario.provider(names::AIRCRAFT).party.clone();
    if let Some(set) = scenario.contract.policies_for(roles::DESIGN_PORTAL) {
        for policy in set.iter() {
            initiator.policies.add(policy.clone());
        }
    }
    service.register_party(initiator);
    service.register_party(scenario.provider(names::AEROSPACE).party.clone());
    let service = Arc::new(service);
    let bus = ServiceBus::new(clock);
    bus.register("tn", service.clone());
    (bus, service)
}

/// Drive the scenario negotiation with the client on the reliable bus:
/// no retries and no reconnects, so the service keeps no checkpoints.
fn negotiate(bus: &ServiceBus, strategy: Strategy, key_seed: u64) -> Result<ClientRun, Fault> {
    run_negotiation_resilient(
        bus,
        "tn",
        names::AEROSPACE,
        names::AIRCRAFT,
        "VoMembership",
        strategy,
        &RetryPolicy::none(),
        &ResumePolicy::none(),
        key_seed,
        SpanLink::default(),
    )
    .outcome
}

#[test]
fn client_completes_the_scenario_negotiation() {
    let (bus, service) = service_setup();
    let run = negotiate(&bus, Strategy::Standard, 1).unwrap();
    assert_eq!(run.sequence_len, 2);
    assert!(service.is_completed(run.negotiation_id));
    assert!(run.sim_elapsed > SimDuration::ZERO);
}

#[test]
fn all_strategies_complete_over_the_service() {
    for strategy in Strategy::ALL {
        let (bus, service) = service_setup();
        let run = negotiate(&bus, strategy, 1).unwrap_or_else(|e| panic!("{strategy}: {e}"));
        assert!(service.is_completed(run.negotiation_id), "{strategy}");
    }
}

#[test]
fn suspicious_strategy_costs_more_sim_time_than_trusting() {
    let mut elapsed = Vec::new();
    for strategy in [Strategy::Trusting, Strategy::StrongSuspicious] {
        let (bus, _service) = service_setup();
        let run = negotiate(&bus, strategy, 1).unwrap();
        elapsed.push(run.sim_elapsed);
    }
    assert!(
        elapsed[1] >= elapsed[0],
        "strong-suspicious {:?} < trusting {:?}",
        elapsed[1],
        elapsed[0]
    );
}

#[test]
fn service_charges_expected_cost_kinds() {
    let (bus, _service) = service_setup();
    negotiate(&bus, Strategy::Standard, 1).unwrap();
    let counts = bus.clock().counts();
    // 4 SOAP calls minimum: start + policy + 2 credential exchanges.
    assert!(counts[&CostKind::SoapRoundTrip] >= 4);
    assert!(counts[&CostKind::DbQuery] >= 3);
    assert!(counts[&CostKind::SignatureVerify] >= 2);
    assert!(counts[&CostKind::PolicyEvaluation] >= 1);
}

#[test]
fn concurrent_negotiations_get_distinct_ids() {
    let (bus, service) = service_setup();
    let mut ids = Vec::new();
    for key_seed in 1..=4 {
        let run = negotiate(&bus, Strategy::Standard, key_seed).unwrap();
        ids.push(run.negotiation_id);
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 4);
    for id in ids {
        assert!(service.is_completed(id));
    }
}

#[test]
fn malformed_envelopes_fault_without_state_damage() {
    let (bus, service) = service_setup();
    // Missing negotiation id.
    let err = bus
        .call("tn", &Envelope::new(Body::PolicyExchange))
        .unwrap_err();
    assert_eq!(err.code, "BadRequest");
    // A good run still works afterwards.
    let run = negotiate(&bus, Strategy::Standard, 1).unwrap();
    assert!(service.is_completed(run.negotiation_id));
}
