//! E9 — extension ablations: repeat-negotiation cost with the full
//! protocol and with trust tickets.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use trust_vo_bench::workloads;
use trust_vo_credential::{TimeRange, Timestamp};
use trust_vo_negotiation::ticket::negotiate_with_ticket;
use trust_vo_negotiation::{negotiate, NegotiationConfig, Strategy};

fn ticket_window() -> TimeRange {
    TimeRange::one_year_from(Timestamp::parse_iso("2009-10-26T21:32:52").unwrap())
}

fn bench_repeat_negotiations(c: &mut Criterion) {
    let (requester, controller) = workloads::chain_parties(6, 2);
    let cfg = NegotiationConfig::new(Strategy::Standard, workloads::at());
    let mut group = c.benchmark_group("repeat_negotiation");

    group.bench_function("full_protocol", |b| {
        b.iter(|| black_box(negotiate(&requester, &controller, "Target", &cfg).unwrap()))
    });

    group.bench_function("ticket_redemption", |b| {
        let (ticket, _) = negotiate_with_ticket(
            &requester,
            &controller,
            "Target",
            &cfg,
            None,
            ticket_window(),
        )
        .unwrap();
        b.iter(|| {
            black_box(
                negotiate_with_ticket(
                    &requester,
                    &controller,
                    "Target",
                    &cfg,
                    Some(&ticket),
                    ticket_window(),
                )
                .unwrap(),
            )
        })
    });

    group.finish();
}

fn bench_ontology_overhead(c: &mut Criterion) {
    // The same Fig. 2 negotiation with the concept-level alternative
    // exercised (accreditation withheld) vs. the plain typed route.
    let mut group = c.benchmark_group("ontology_in_negotiation");
    let s = workloads::scenario(workloads::free_clock());
    group.bench_function("typed_route", |b| {
        b.iter(|| black_box(s.fig2_negotiation(Strategy::Standard).unwrap()))
    });
    // Remove the accreditation so the concept alternative must be used.
    let mut s2 = workloads::scenario(workloads::free_clock());
    let aircraft = s2
        .toolkit
        .providers
        .get_mut(trust_vo_vo::scenario::names::AIRCRAFT)
        .unwrap();
    let id = aircraft
        .party
        .profile
        .of_type("AAAccreditation")
        .next()
        .unwrap()
        .id()
        .clone();
    aircraft.party.profile.remove(&id);
    group.bench_function("concept_route_via_algorithm1", |b| {
        b.iter(|| black_box(s2.fig2_negotiation(Strategy::Standard).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_repeat_negotiations, bench_ontology_overhead);
criterion_main!(benches);
