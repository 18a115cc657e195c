//! End-to-end observability: a formation run on an instrumented clock
//! must emit a span for every negotiation phase, parent-link them under
//! the formation spans, and report counters that exactly match the
//! engine's own transcript accounting — serial and parallel alike.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use trust_vo::negotiation::{negotiate, NegotiationConfig, Strategy, Transcript};
use trust_vo::netsim::{FaultPlan, LinkProfile, NetSim};
use trust_vo::obs::{Collector, MetricsSnapshot, Record, SpanLink, SpanRecord, TraceContext};
use trust_vo::soa::simclock::SimClock;
use trust_vo::soa::{Body, Envelope, ServiceBus, StartNegotiation, TnService, Transport};
use trust_vo::store::Database;
use trust_vo::vo::mailbox::MailboxSystem;
use trust_vo::vo::{
    register_formation_parties, Formation, NegotiationSource, ReputationLedger, ServiceSource,
};
use trust_vo_bench::workloads::{self, ParallelJoinWorld};

fn observed_clock() -> (SimClock, Collector) {
    let clock = workloads::free_clock();
    let collector = Collector::new();
    clock.attach_obs(&collector);
    (clock, collector)
}

/// Re-run every (role, accepting-candidate) negotiation of `world`
/// standalone — the same pairs, parties, and config the formation path
/// uses — and return the transcripts. Each role has exactly one
/// accepting candidate in this workload, so this is precisely the set of
/// negotiations a formation performs.
fn independent_transcripts(world: &ParallelJoinWorld, clock: &SimClock) -> Vec<Transcript> {
    let mut transcripts = Vec::new();
    for role in &world.contract.roles {
        for description in world.registry.find_by_capability(&role.capability) {
            let Some(candidate) = world.providers.get(&description.provider) else {
                continue;
            };
            if !candidate.accepts_invitations {
                continue;
            }
            let mut initiator_party = world.initiator.party.clone();
            if let Some(set) = world.contract.policies_for(&role.name) {
                for policy in set.iter() {
                    initiator_party.policies.add(policy.clone());
                }
            }
            let cfg = NegotiationConfig::new(Strategy::Standard, clock.timestamp());
            let outcome = negotiate(&candidate.party, &initiator_party, "VoMembership", &cfg)
                .expect("workload negotiations succeed");
            transcripts.push(outcome.transcript);
        }
    }
    transcripts
}

/// An in-process formation of `world` through `source` on `workers`
/// workers (1 = serial).
fn in_process(
    world: &ParallelJoinWorld,
    source: NegotiationSource<'_>,
    workers: usize,
) -> Result<(trust_vo::vo::FormedVo, trust_vo::vo::FormationResilience), trust_vo::vo::VoError> {
    Formation::new(&world.initiator, &world.providers, &world.registry, source)
        .with_workers(workers)
        .run(
            world.contract.clone(),
            &mut MailboxSystem::new(),
            &mut ReputationLedger::new(),
        )
}

fn span_records(collector: &Collector) -> Vec<SpanRecord> {
    collector
        .records()
        .into_iter()
        .filter_map(|r| match r {
            Record::Span(s) => Some(s),
            _ => None,
        })
        .collect()
}

#[test]
fn serial_formation_emits_phase_spans_and_transcript_exact_counters() {
    let world = workloads::parallel_join_world(3, 4, 2);
    let (clock, collector) = observed_clock();
    let (vo, _) =
        in_process(&world, NegotiationSource::in_process(&clock), 1).expect("formation succeeds");
    assert_eq!(vo.members().len(), 3);

    // Span structure: one root, one join attempt per member, and beside
    // the attempts, under the root, one span per negotiation phase of
    // each member's negotiation.
    let spans = span_records(&collector);
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "formation.form_vo")
        .collect();
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].parent, None);
    let attempts: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "formation.join_attempt")
        .collect();
    assert_eq!(attempts.len(), 3);
    for attempt in &attempts {
        assert_eq!(attempt.parent, Some(roots[0].id), "attempt under root");
    }
    for phase in ["negotiation.policy_phase", "negotiation.exchange_phase"] {
        let children: Vec<_> = spans
            .iter()
            .filter(|s| s.name == phase && s.parent == Some(roots[0].id))
            .collect();
        assert_eq!(children.len(), 3, "one {phase} span per join attempt");
    }

    // Counters must equal the engine's own accounting, recomputed by
    // running the identical negotiations standalone.
    let transcripts = independent_transcripts(&world, &workloads::free_clock());
    assert_eq!(transcripts.len(), 3);
    let sum =
        |f: fn(&Transcript) -> usize| -> u64 { transcripts.iter().map(|t| f(t) as u64).sum() };
    let snap = collector.metrics();
    assert_eq!(
        snap.counter("negotiation.messages"),
        sum(Transcript::message_count)
    );
    assert_eq!(
        snap.counter("negotiation.policy_rounds"),
        sum(|t| t.policy_rounds)
    );
    assert_eq!(
        snap.counter("negotiation.policies_disclosed"),
        sum(|t| t.policies_disclosed)
    );
    assert_eq!(
        snap.counter("negotiation.policy_evaluations"),
        sum(|t| t.policies_disclosed)
    );
    assert_eq!(
        snap.counter("negotiation.credentials_disclosed"),
        sum(|t| t.credentials_disclosed)
    );
    assert_eq!(
        snap.counter("negotiation.verifications"),
        sum(|t| t.verifications)
    );
    assert_eq!(
        snap.counter("negotiation.ownership_proofs"),
        sum(|t| t.ownership_proofs)
    );
    assert_eq!(
        snap.counter("negotiation.failed_alternatives"),
        sum(|t| t.failed_alternatives)
    );
    assert_eq!(snap.counter("negotiation.failures"), 0);
    assert_eq!(snap.counter("formation.attempts"), 3);
    assert_eq!(snap.counter("formation.admissions"), 3);
    assert_eq!(snap.counter("formation.audits"), 1);
}

/// The counters the serial/parallel equivalence covers: everything the
/// negotiation engine records.
fn engine_counters(snap: &MetricsSnapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(name, _)| name.starts_with("negotiation."))
        .map(|(name, value)| (name.clone(), *value))
        .collect()
}

#[test]
fn parallel_formation_matches_serial_counter_totals() {
    for applicants in [4usize, 16, 64] {
        let world = workloads::parallel_join_world(applicants, 4, 2);

        let (serial_clock, serial_collector) = observed_clock();
        let (serial, _) = in_process(&world, NegotiationSource::in_process(&serial_clock), 1)
            .expect("serial formation succeeds");

        let (parallel_clock, parallel_collector) = observed_clock();
        // Differs from the serial formation in the worker count alone.
        let (parallel, _) = in_process(&world, NegotiationSource::in_process(&parallel_clock), 4)
            .expect("parallel formation succeeds");

        assert_eq!(serial.members().len(), applicants);
        assert_eq!(parallel.members().len(), applicants);
        let serial_counters = engine_counters(&serial_collector.metrics());
        let parallel_counters = engine_counters(&parallel_collector.metrics());
        assert_eq!(
            serial_counters, parallel_counters,
            "serial and parallel counter totals diverge at {applicants} applicants"
        );
        assert_eq!(
            parallel_collector.metrics().counter("formation.speculated"),
            applicants as u64,
            "one speculation per (role, accepting candidate)"
        );
    }
}

/// Check that every negotiation span in `spans` — the engine's phase
/// spans, the client's `client.negotiation` — hangs directly under the
/// formation root named `root_name` or under one of its
/// `formation.speculate` spans, never under a `formation.join_attempt`.
/// Returns how many negotiation spans there were.
fn negotiation_spans_beside_attempts(spans: &[SpanRecord], root_name: &str) -> usize {
    let root = spans
        .iter()
        .find(|s| s.name == root_name)
        .expect("formation root span");
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let negotiations: Vec<_> = spans
        .iter()
        .filter(|s| {
            matches!(
                s.name.as_str(),
                "negotiation.policy_phase" | "negotiation.exchange_phase" | "client.negotiation"
            )
        })
        .collect();
    for span in &negotiations {
        let parent = span
            .parent
            .and_then(|id| by_id.get(&id))
            .unwrap_or_else(|| panic!("'{}' ({}) has no parent", span.name, span.id));
        let under_root = parent.id == root.id;
        let under_speculation =
            parent.name == "formation.speculate" && parent.parent == Some(root.id);
        assert!(
            under_root || under_speculation,
            "'{}' ({}) hangs under '{}'",
            span.name,
            span.id,
            parent.name
        );
    }
    negotiations.len()
}

#[test]
fn every_formation_negotiation_hangs_beside_its_join_attempt() {
    let world = workloads::parallel_join_world(3, 4, 2);
    // In process, serial and speculated: a policy and an exchange phase
    // span per member.
    for workers in [1, 4] {
        let (clock, collector) = observed_clock();
        in_process(&world, NegotiationSource::in_process(&clock), workers)
            .expect("formation succeeds");
        let spans = span_records(&collector);
        assert_eq!(
            negotiation_spans_beside_attempts(&spans, "formation.form_vo"),
            6,
            "{workers} workers"
        );
    }
    // Through the TN service: one client negotiation per member.
    let (clock, collector) = observed_clock();
    let bus = ServiceBus::new(clock.clone());
    let svc = Arc::new(TnService::new(clock, Database::new()));
    register_formation_parties(&svc, &world.contract, &world.initiator, &world.providers);
    bus.register("tn", svc);
    Formation::new(
        &world.initiator,
        &world.providers,
        &world.registry,
        NegotiationSource::Service(ServiceSource::standard(&bus, "tn", 7)),
    )
    .run(
        world.contract.clone(),
        &mut MailboxSystem::new(),
        &mut ReputationLedger::new(),
    )
    .expect("service formation succeeds");
    let spans = span_records(&collector);
    assert_eq!(
        negotiation_spans_beside_attempts(&spans, "formation.form_vo_resilient"),
        3
    );
}

#[test]
fn parallel_service_formation_counts_speculation_replay_and_audit() {
    // The service source fans out on the same executor and replays
    // through the same loop as the in-process one, so it reports the same
    // formation counters, and every negotiation sits under its
    // speculation span below the formation root.
    let world = workloads::parallel_join_world(3, 4, 2);
    let (clock, collector) = observed_clock();
    let bus = ServiceBus::new(clock.clone());
    let svc = Arc::new(TnService::new(clock, Database::new()));
    register_formation_parties(&svc, &world.contract, &world.initiator, &world.providers);
    bus.register("tn", svc);
    let (vo, _) = Formation::new(
        &world.initiator,
        &world.providers,
        &world.registry,
        NegotiationSource::Service(ServiceSource::standard(&bus, "tn", 7)),
    )
    .with_workers(4)
    .run(
        world.contract.clone(),
        &mut MailboxSystem::new(),
        &mut ReputationLedger::new(),
    )
    .expect("parallel service formation succeeds");
    assert_eq!(vo.members().len(), 3);

    let snap = collector.metrics();
    assert_eq!(snap.counter("formation.speculated"), 3);
    assert_eq!(snap.counter("formation.replayed"), 3);
    assert_eq!(snap.counter("formation.audits"), 1);

    let spans = span_records(&collector);
    let root = spans
        .iter()
        .find(|s| s.name == "formation.form_vo_resilient")
        .expect("formation root span");
    let speculations: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "formation.speculate")
        .collect();
    assert_eq!(speculations.len(), 3);
    for speculation in &speculations {
        assert_eq!(speculation.parent, Some(root.id));
        let negotiations = spans
            .iter()
            .filter(|s| s.name == "client.negotiation" && s.parent == Some(speculation.id))
            .count();
        assert_eq!(negotiations, 1, "one negotiation per speculation");
    }
}

#[test]
fn lossy_netsim_formation_leaves_no_orphan_bus_spans() {
    // A full resilient formation at 20% per-direction loss: every span
    // the bus side emits — negotiations, per-attempt deliveries, backoff
    // waits, transits, dispatches, service operations, checkpoints —
    // must carry the formation root's trace id and be reachable from the
    // root through parent links alone.
    let world = workloads::parallel_join_world(3, 4, 2);
    let (clock, collector) = observed_clock();
    let bus = ServiceBus::new(clock.clone());
    let svc = Arc::new(TnService::new(clock, Database::new()));
    register_formation_parties(&svc, &world.contract, &world.initiator, &world.providers);
    bus.register("tn", svc);
    let net = NetSim::new(bus, FaultPlan::lossy(1234, 0.2));

    let (vo, stats) = Formation::new(
        &world.initiator,
        &world.providers,
        &world.registry,
        NegotiationSource::Service(ServiceSource::standard(&net, "tn", 7)),
    )
    .run(
        world.contract.clone(),
        &mut MailboxSystem::new(),
        &mut ReputationLedger::new(),
    )
    .expect("formation survives 20% loss");
    assert_eq!(vo.members().len(), 3);
    assert!(
        stats.retries > 0,
        "20% loss should force at least one retry"
    );
    assert!(
        net.metrics().drops.get() > 0,
        "0.2 loss plan dropped nothing"
    );
    // The service formation audits its members like every other one.
    assert_eq!(collector.metrics().counter("formation.audits"), 1);

    let spans = span_records(&collector);
    let by_id: HashMap<u64, &trust_vo::obs::SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let root = spans
        .iter()
        .find(|s| s.name == "formation.form_vo_resilient")
        .expect("resilient formation root span");
    assert_ne!(root.trace_id, 0, "formation root mints a trace");

    let bus_side = [
        "client.negotiation",
        "client.call",
        "soa.attempt",
        "retry.backoff",
        "client.reconnect",
        "net.transit",
        "bus.dispatch",
        "tn.operation",
        "tn.checkpoint",
    ];
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for span in spans.iter().filter(|s| bus_side.contains(&s.name.as_str())) {
        *seen.entry(span.name.as_str()).or_default() += 1;
        assert_eq!(
            span.trace_id, root.trace_id,
            "span '{}' ({}) is outside the formation trace",
            span.name, span.id
        );
        let mut cursor: &trust_vo::obs::SpanRecord = span;
        let mut hops = 0usize;
        while let Some(parent) = cursor.parent {
            cursor = by_id.get(&parent).copied().unwrap_or_else(|| {
                panic!(
                    "span '{}' ({}) has a dangling parent {parent}",
                    cursor.name, cursor.id
                )
            });
            hops += 1;
            assert!(hops < 64, "parent cycle from span '{}'", span.name);
        }
        assert_eq!(
            cursor.id, root.id,
            "span '{}' ({}) is orphaned from the formation root",
            span.name, span.id
        );
    }
    // The interesting hop kinds all actually occurred in this run.
    for name in [
        "client.negotiation",
        "client.call",
        "soa.attempt",
        "retry.backoff",
        "net.transit",
        "bus.dispatch",
        "tn.operation",
        "tn.checkpoint",
    ] {
        assert!(seen.get(name).copied().unwrap_or(0) > 0, "no '{name}' span");
    }
    // Retries mean more delivery attempts than logical calls, all with
    // distinct span ids on the one shared trace.
    assert!(
        seen["soa.attempt"] > seen["client.call"],
        "retries must add extra attempt spans"
    );
}

#[test]
fn duplicate_deliveries_share_the_trace_with_distinct_spans() {
    // Force duplication of every delivered, unkeyed call: the endpoint
    // runs twice, and both dispatches must appear as sibling spans —
    // same trace id, distinct span ids — under one net.transit.
    let (clock, collector) = observed_clock();
    let bus = ServiceBus::new(clock.clone());
    bus.register("tn", Arc::new(TnService::new(clock, Database::new())));
    let plan = FaultPlan {
        default_link: LinkProfile {
            duplicate_probability: 1.0,
            ..LinkProfile::reliable()
        },
        ..FaultPlan::reliable(9)
    };
    let net = NetSim::new(bus, plan);

    let trace_id = collector.new_trace_id();
    let root = collector.span_linked(
        "test.root",
        SpanLink {
            trace_id,
            parent: None,
        },
    );
    let request = Envelope::new(Body::StartNegotiation(StartNegotiation {
        strategy: Strategy::Standard,
        requester: "Nobody".into(),
        controller: "NobodyElse".into(),
        resource: "VoMembership".into(),
        resumable: false,
    }))
    .with_trace(TraceContext {
        trace_id,
        span_id: root.id().expect("enabled collector"),
        parent_span_id: None,
    });
    // The verdict itself is irrelevant — only the delivery shape is.
    let _ = net.call("tn", &request);
    drop(root);
    assert_eq!(net.metrics().dups.get(), 1);

    let spans = span_records(&collector);
    let transits: Vec<_> = spans.iter().filter(|s| s.name == "net.transit").collect();
    assert_eq!(transits.len(), 1, "one logical transit");
    assert_eq!(transits[0].trace_id, trace_id);
    let dispatches: Vec<_> = spans.iter().filter(|s| s.name == "bus.dispatch").collect();
    assert_eq!(dispatches.len(), 2, "unkeyed duplicate delivers twice");
    assert_ne!(dispatches[0].id, dispatches[1].id);
    for dispatch in &dispatches {
        assert_eq!(
            dispatch.trace_id, trace_id,
            "duplicate shares the logical trace"
        );
        assert_eq!(
            dispatch.parent,
            Some(transits[0].id),
            "duplicate parents under the same transit"
        );
    }
}
