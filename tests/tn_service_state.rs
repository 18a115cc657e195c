//! A long-lived TN service keeps only what its open negotiations need.
//!
//! Finished sessions retire to a fixed ring of tombstones, finished
//! negotiations' checkpoint slots are purged with their history, and the
//! journal behind the service's database compacts itself in place, so
//! the service's state stops growing with the number of negotiations it
//! has served. The journal stays recoverable at every byte across those
//! compactions.

use std::sync::Arc;
use trust_vo::credential::{CredentialAuthority, TimeRange, Timestamp};
use trust_vo::journal::Journal;
use trust_vo::negotiation::{Party, Strategy};
use trust_vo::obs::SpanLink;
use trust_vo::policy::{DisclosurePolicy, Resource, Term};
use trust_vo::soa::simclock::{CostModel, SimClock};
use trust_vo::soa::tn_service::RETIRED_SESSIONS;
use trust_vo::soa::{
    run_negotiation_resilient, Body, Envelope, Fault, ResumePolicy, RetryPolicy, ServiceBus,
    ServiceEndpoint, StartNegotiation, TnService, Transport,
};
use trust_vo::store::{Database, COMPACT_MIN_BYTES};

/// The Fig. 2 pair: Aerospace requests VoMembership from Aircraft, two
/// disclosures deep.
fn fig2_parties() -> (Party, Party) {
    let mut ca = CredentialAuthority::new("AAA");
    let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
    let mut aircraft = Party::new("Aircraft");
    let mut aerospace = Party::new("Aerospace");
    let quality = ca
        .issue(
            "WebDesignerQuality",
            "Aerospace",
            aerospace.keys.public,
            vec![],
            window,
        )
        .unwrap();
    aerospace.profile.add(quality);
    let accreditation = ca
        .issue(
            "AAACreditation",
            "Aircraft",
            aircraft.keys.public,
            vec![],
            window,
        )
        .unwrap();
    aircraft.profile.add(accreditation);
    aircraft.policies.add(DisclosurePolicy::rule(
        "p1",
        Resource::service("VoMembership"),
        vec![Term::of_type("WebDesignerQuality")],
    ));
    aircraft.policies.add(DisclosurePolicy::deliv(
        "d1",
        Resource::credential("AAACreditation"),
    ));
    aerospace.policies.add(DisclosurePolicy::rule(
        "p2",
        Resource::credential("WebDesignerQuality"),
        vec![Term::of_type("AAACreditation")],
    ));
    aircraft.trust_root(ca.public_key());
    aerospace.trust_root(ca.public_key());
    (aerospace, aircraft)
}

/// A journal-backed service with the Fig. 2 parties registered.
fn service() -> (Arc<TnService>, Arc<Journal>) {
    let clock = SimClock::new(
        CostModel::free(),
        Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
    );
    let journal = Arc::new(Journal::in_memory());
    let db = Database::new();
    db.attach_journal(journal.clone());
    let svc = TnService::new(clock, db);
    let (aerospace, aircraft) = fig2_parties();
    svc.register_party(aerospace);
    svc.register_party(aircraft);
    (Arc::new(svc), journal)
}

fn call(transport: &dyn Transport, operation: &str, id: u64) -> Result<Envelope, Fault> {
    let body = match operation {
        "PolicyExchange" => Body::PolicyExchange,
        "CredentialExchange" => Body::CredentialExchange,
        other => panic!("no session request named {other}"),
    };
    transport.call("tn", &Envelope::new(body).with_negotiation(id))
}

fn start_request() -> Envelope {
    Envelope::new(Body::StartNegotiation(StartNegotiation {
        strategy: Strategy::Standard,
        requester: "Aerospace".into(),
        controller: "Aircraft".into(),
        resource: "VoMembership".into(),
        resumable: true,
    }))
}

/// Whether a `CredentialExchange` reply reports completion.
fn completed(reply: &Envelope) -> bool {
    matches!(&*reply.body, Body::CredentialExchangeResponse(r) if r.is_completed())
}

fn start_resumable(transport: &dyn Transport) -> u64 {
    transport
        .call("tn", &start_request())
        .unwrap()
        .negotiation_id
        .unwrap()
}

/// No fact of the database's snapshot is about a checkpoint slot: the
/// collection holds no entry, live or deleted.
fn no_checkpoint_entries(db: &Database) -> bool {
    db.snapshot_facts().iter().all(|fact| match fact {
        trust_vo::journal::Fact::Put { collection, .. }
        | trust_vo::journal::Fact::Delete { collection, .. } => collection != "checkpoints",
        _ => true,
    })
}

#[test]
fn thousands_of_negotiations_leave_only_open_state() {
    const NEGOTIATIONS: u64 = 2_048;
    let (svc, journal) = service();
    let bus = ServiceBus::new(SimClock::new(
        CostModel::free(),
        Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
    ));
    bus.register("tn", svc.clone());

    let mut ids = Vec::new();
    let mut after_compaction = Vec::new();
    let mut peak = 0;
    for n in 0..NEGOTIATIONS {
        let compactions = journal.stats().compactions;
        let run = run_negotiation_resilient(
            &bus,
            "tn",
            "Aerospace",
            "Aircraft",
            "VoMembership",
            Strategy::Standard,
            &RetryPolicy::standard(),
            &ResumePolicy::standard(),
            n,
            SpanLink::default(),
        )
        .outcome
        .expect("negotiation completes");
        ids.push(run.negotiation_id);
        let (open, retired) = svc.session_counts();
        assert_eq!(open, 0, "no finished session stays open");
        assert!(retired <= RETIRED_SESSIONS);
        if journal.stats().compactions > compactions {
            after_compaction.push(journal.len_bytes());
        }
        peak = peak.max(journal.len_bytes());
    }
    assert_eq!(svc.session_counts(), (0, RETIRED_SESSIONS));
    assert!(no_checkpoint_entries(svc.database()));
    // Every compaction leaves the same log: the registered parties alone.
    assert!(after_compaction.len() >= 10, "{after_compaction:?}");
    assert!(
        after_compaction
            .iter()
            .all(|&len| len == after_compaction[0]),
        "{after_compaction:?}"
    );
    assert!(peak < after_compaction[0] + 2 * COMPACT_MIN_BYTES, "{peak}");

    // Late calls on the latest retired id answer as its kept session did;
    // the first id is beyond the tombstones.
    let last = *ids.last().unwrap();
    assert_eq!(
        call(&bus, "CredentialExchange", last).unwrap_err().code,
        "BadState"
    );
    assert_eq!(
        call(&bus, "PolicyExchange", last).unwrap_err().code,
        "BadState"
    );
    assert!(svc.is_completed(last));
    for operation in ["CredentialExchange", "PolicyExchange"] {
        let fault = call(&bus, operation, ids[0]).unwrap_err();
        assert_eq!(fault.code, "NoSuchNegotiation");
    }
    assert!(!svc.is_completed(ids[0]));

    // A token for a finished negotiation's purged slot resumes nothing.
    let id = start_resumable(&bus);
    let Body::PolicyExchangeResponse(policy) = &*call(&bus, "PolicyExchange", id).unwrap().body
    else {
        panic!("a policy reply")
    };
    let token = policy.token.clone().unwrap();
    while !completed(&call(&bus, "CredentialExchange", id).unwrap()) {}
    let fault = bus
        .call("tn", &Envelope::new(Body::ResumeNegotiation(token)))
        .unwrap_err();
    assert_eq!(fault.code, "NoSuchCheckpoint");

    // The journal still restores the live state.
    let restored = Database::new();
    assert!(!restored.restore_from_journal(&journal).truncated);
    assert_eq!(restored.state_digest(), svc.database().state_digest());
}

#[test]
fn kill_at_every_byte_of_a_self_compacted_journal_restores_a_clean_prefix() {
    let (svc, journal) = service();
    let digest = || svc.database().state_digest();
    let exchange = |id| {
        svc.handle(&Envelope::new(Body::CredentialExchange).with_negotiation(id))
            .unwrap()
    };
    let start = || {
        svc.handle(&start_request())
            .unwrap()
            .negotiation_id
            .unwrap()
    };
    // (log length, state digest) after every operation since the last
    // compaction: the record boundaries of the final log.
    let mut boundaries = Vec::new();
    let mut record = |compactions: &mut u64| {
        let now = journal.stats().compactions;
        if now > *compactions {
            boundaries.clear();
            *compactions = now;
        }
        boundaries.push((journal.len_bytes(), digest()));
    };
    let mut compactions = 0;
    let mut finished_after = 0;
    for negotiation in 0.. {
        if finished_after == 3 {
            break;
        }
        assert!(
            negotiation < 500,
            "no automatic compaction in 500 negotiations"
        );
        let id = start();
        svc.handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
            .unwrap();
        record(&mut compactions);
        while !completed(&exchange(id)) {
            record(&mut compactions);
        }
        record(&mut compactions);
        if compactions > 0 {
            finished_after += 1;
        }
    }
    // End mid-negotiation: a live checkpoint slot in the tail.
    let id = start();
    svc.handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
        .unwrap();
    record(&mut compactions);
    exchange(id);
    record(&mut compactions);
    assert_eq!(compactions, 1);

    let bytes = journal.bytes();
    let restore = |cut: usize| {
        let db = Database::new();
        db.restore_from_journal(&Journal::from_bytes(bytes[..cut].to_vec()));
        db.state_digest()
    };
    assert_eq!(
        restore(bytes.len()),
        digest(),
        "the full log is the live state"
    );
    let empty = Database::new().state_digest();
    for cut in 0..=bytes.len() {
        let want = boundaries
            .iter()
            .rev()
            .find(|(boundary, _)| *boundary as usize <= cut)
            .map_or(empty, |&(_, digest)| digest);
        assert_eq!(restore(cut), want, "cut at byte {cut} of {}", bytes.len());
    }
}
