//! Repeat negotiations in long-lived VOs: view enumeration and selection,
//! and trust tickets.
//!
//! The paper's operation phase re-negotiates constantly (§5.1:
//! re-validation of certificates, authorizations, member replacement).
//! This example picks a trust sequence deliberately, then shows the fast
//! path the library offers for a repeat negotiation.
//!
//! Run with: `cargo run --example repeat_negotiations`

use trust_vo::credential::{TimeRange, Timestamp};
use trust_vo::negotiation::message::Side;
use trust_vo::negotiation::ticket::negotiate_with_ticket;
use trust_vo::negotiation::{choose_minimal, enumerate_sequences, NegotiationConfig, Strategy};
use trust_vo::vo::initiator_party_for_role;
use trust_vo::vo::scenario::{names, roles, AircraftScenario};

fn main() {
    let scenario = AircraftScenario::build();
    let initiator = initiator_party_for_role(
        scenario.provider(names::AIRCRAFT),
        &scenario.contract,
        roles::DESIGN_PORTAL,
    );
    let aerospace = scenario.provider(names::AEROSPACE).party.clone();
    let cfg = NegotiationConfig::new(Strategy::Standard, trust_vo::vo::scenario::scenario_time());

    // --- 1. Enumerate every satisfiable view and pick one deliberately.
    let sequences = enumerate_sequences(&aerospace, &initiator, "VoMembership", &cfg, 50);
    println!(
        "{} satisfiable trust sequences for VoMembership:",
        sequences.len()
    );
    for s in &sequences {
        println!(
            "  {s}   ({} disclosures, {} by the requester)",
            s.len(),
            s.by_side(Side::Requester).count()
        );
    }
    let best = choose_minimal(&sequences, Side::Requester).expect("satisfiable");
    println!("requester-minimal choice: {best}\n");

    // --- 2. Trust tickets: a successful negotiation mints a ticket; the
    //        next request is two signature operations.
    let window = TimeRange::one_year_from(Timestamp::parse_iso("2009-12-01T00:00:00").unwrap());
    let (ticket, fast) =
        negotiate_with_ticket(&aerospace, &initiator, "VoMembership", &cfg, None, window)
            .expect("full protocol succeeds");
    assert!(!fast);
    println!(
        "ticket issued by '{}' to '{}' for '{}', valid to {}",
        ticket.issuer, ticket.holder, ticket.resource, ticket.validity.not_after
    );
    let (_, fast) = negotiate_with_ticket(
        &aerospace,
        &initiator,
        "VoMembership",
        &cfg,
        Some(&ticket),
        window,
    )
    .expect("redemption succeeds");
    println!("second negotiation used the ticket fast path: {fast}");
}
