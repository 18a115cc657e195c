//! Crash-recovery properties of the fact journal (PR 6 tentpole).
//!
//! The contract under test: a process killed after *any byte prefix* of
//! its journal recovers to the state after some clean prefix of its
//! committed operations — and an in-flight negotiation recovered this way
//! finishes with the same outcome as an uninterrupted run.

use std::sync::Arc;
use trust_vo::credential::{CredentialAuthority, TimeRange, Timestamp};
use trust_vo::journal::{Fact, Journal};
use trust_vo::negotiation::{Party, Strategy};
use trust_vo::obs::Collector;
use trust_vo::policy::{DisclosurePolicy, Resource, Term};
use trust_vo::soa::simclock::{CostModel, SimClock};
use trust_vo::soa::{
    Body, CredentialExchangeResponse, Envelope, Fault, PolicyExchangeResponse, ServiceEndpoint,
    SignedToken, StartNegotiation, TnService,
};
use trust_vo::store::Database;
use trust_vo::xmldoc::Element;

/// A deterministic mixed workload over three collections. Returns the
/// `(journal boundary, state digest)` after every operation.
fn scripted_workload(db: &Database, journal: &Journal) -> Vec<(u64, u64)> {
    let mut checkpoints = vec![(journal.len_bytes(), db.state_digest())];
    for i in 0u64..30 {
        let coll = ["vos", "profiles", "checkpoints"][(i % 3) as usize];
        let id = format!("doc{}", i % 5);
        if i % 7 == 3 {
            db.with_collection(coll, |c| {
                c.delete(&id.as_str().into());
            });
        } else {
            db.with_collection(coll, |c| {
                c.put(
                    id.as_str(),
                    Element::new("d")
                        .attr("i", i.to_string())
                        .attr("coll", coll),
                );
            });
        }
        checkpoints.push((journal.len_bytes(), db.state_digest()));
    }
    checkpoints
}

#[test]
fn kill_at_any_prefix_restores_a_clean_state() {
    let db = Database::new();
    let journal = Arc::new(Journal::in_memory());
    db.attach_journal(journal.clone());
    let checkpoints = scripted_workload(&db, &journal);
    let bytes = journal.bytes();

    // Truncating exactly at each operation's boundary restores exactly
    // that operation's state.
    for &(cut, want) in &checkpoints {
        let restored = Database::new();
        let replay =
            restored.restore_from_journal(&Journal::from_bytes(bytes[..cut as usize].to_vec()));
        assert!(!replay.truncated, "boundary {cut} is a clean prefix");
        assert_eq!(restored.state_digest(), want, "boundary {cut}");
    }

    // Killing at EVERY byte offset — mid-record included — restores the
    // state of the last completed operation before the cut.
    for cut in 0..=bytes.len() {
        let restored = Database::new();
        restored.restore_from_journal(&Journal::from_bytes(bytes[..cut].to_vec()));
        let want = checkpoints
            .iter()
            .rev()
            .find(|(b, _)| *b as usize <= cut)
            .expect("boundary 0 always qualifies")
            .1;
        assert_eq!(restored.state_digest(), want, "cut at byte {cut}");
    }
}

#[test]
fn recovery_from_a_compacted_journal_is_identical() {
    let db = Database::new();
    let journal = Arc::new(Journal::in_memory());
    db.attach_journal(journal.clone());
    scripted_workload(&db, &journal);

    db.compact_into(&journal);
    // Post-compaction appends extend the snapshot baseline.
    db.with_collection("vos", |c| {
        c.put("after", Element::new("late"));
    });

    let restored = Database::new();
    let replay = restored.restore_from_journal(&journal);
    assert!(!replay.truncated);
    assert_eq!(replay.records, 2, "snapshot + one append");
    assert_eq!(restored.state_digest(), db.state_digest());
    assert_eq!(journal.stats().compactions, 1);
}

/// The Fig. 2 negotiation pair from the paper: Aerospace requests
/// VoMembership from Aircraft; two counter-requirements deep. Party keys
/// are seed-derived from names, so a "restarted process" rebuilding its
/// parties reproduces the keys its resume tokens are bound to.
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
    let accr = ca
        .issue(
            "AAACreditation",
            "Aircraft",
            aircraft.keys.public,
            vec![],
            window,
        )
        .unwrap();
    aircraft.profile.add(accr);
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

fn clock() -> SimClock {
    SimClock::new(
        CostModel::free(),
        Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
    )
}

fn tn_service(clock: SimClock, db: Database) -> TnService {
    let (aerospace, aircraft) = fig2_parties();
    let svc = TnService::new(clock, db);
    svc.register_party(aerospace);
    svc.register_party(aircraft);
    svc
}

fn start_resumable(svc: &TnService) -> u64 {
    svc.handle(&Envelope::new(Body::StartNegotiation(StartNegotiation {
        strategy: Strategy::Standard,
        requester: "Aerospace".into(),
        controller: "Aircraft".into(),
        resource: "VoMembership".into(),
        resumable: true,
    })))
    .unwrap()
    .negotiation_id
    .unwrap()
}

fn policy_exchange(svc: &TnService, id: u64) -> PolicyExchangeResponse {
    let reply = svc
        .handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
        .unwrap();
    match &*reply.body {
        Body::PolicyExchangeResponse(reply) => reply.clone(),
        other => panic!("not a policy reply: {other:?}"),
    }
}

fn exchange(svc: &TnService, id: u64) -> CredentialExchangeResponse {
    let reply = svc
        .handle(&Envelope::new(Body::CredentialExchange).with_negotiation(id))
        .unwrap();
    match &*reply.body {
        Body::CredentialExchangeResponse(reply) => reply.clone(),
        other => panic!("not a credential reply: {other:?}"),
    }
}

/// Drive a started negotiation to completion; returns the number of
/// credential-exchange rounds it took.
fn drive_to_completion(svc: &TnService, id: u64) -> u32 {
    let mut rounds = 0;
    loop {
        rounds += 1;
        if exchange(svc, id).is_completed() {
            return rounds;
        }
        assert!(rounds < 64, "negotiation did not converge");
    }
}

#[test]
fn interrupted_negotiation_recovers_to_the_uninterrupted_outcome() {
    // Baseline: the uninterrupted run.
    let baseline = tn_service(clock(), Database::new());
    let id = start_resumable(&baseline);
    policy_exchange(&baseline, id);
    let baseline_rounds = drive_to_completion(&baseline, id);
    assert!(baseline.is_completed(id));

    // Journaled run, killed mid-negotiation. The phase-2 checkpoints the
    // TN service writes to its `checkpoints` collection flow into the
    // journal through the database spill hook.
    let db = Database::new();
    let journal = Arc::new(Journal::in_memory());
    db.attach_journal(journal.clone());
    let svc = tn_service(clock(), db);
    let id = start_resumable(&svc);
    let resp = policy_exchange(&svc, id);
    assert!(resp.token.is_some());
    let resp = exchange(&svc, id);
    assert!(!resp.is_completed());
    let done_before_crash = 1;
    let token = resp.token.unwrap();
    // The process dies here. All that survives: the signed resume token
    // held by the client, and the journal bytes on disk (with whatever
    // torn tail the crash left — replay discards it).
    let mut salvaged = journal.bytes();
    salvaged.extend_from_slice(&[0xDE, 0xAD]); // torn tail
    drop(svc);

    // The restarted process: replay the journal into a fresh database,
    // rebuild the service, re-register its parties, present the token.
    let recovered_journal = Journal::from_bytes(salvaged);
    let db = Database::new();
    let replay = db.restore_from_journal(&recovered_journal);
    assert!(replay.truncated, "the torn tail is discarded");
    db.attach_journal(Arc::new(recovered_journal));
    let svc = tn_service(clock(), db);
    let resume = svc
        .handle(&Envelope::new(Body::ResumeNegotiation(token)))
        .unwrap();
    assert!(matches!(*resume.body, Body::ResumeNegotiationResponse(_)));
    let new_id = resume.negotiation_id.unwrap();
    let resumed_rounds = drive_to_completion(&svc, new_id);
    assert!(svc.is_completed(new_id));
    assert_eq!(svc.resumed_count(), 1);
    // Same outcome, same total work: the rounds done before the crash
    // plus the rounds after resume equal the uninterrupted count.
    assert_eq!(done_before_crash + resumed_rounds, baseline_rounds);
}

/// A journaled service runs a resumable negotiation through one of its
/// two disclosures, and on to completion when `finish` is set, then the
/// process dies. The restarted process rebuilds the service over the
/// restored journal; the client holds the token of that one disclosure
/// (with `finish`, the final reply was lost in the crash).
fn restart_after_a_crash(finish: bool) -> (TnService, SignedToken) {
    let db = Database::new();
    let journal = Arc::new(Journal::in_memory());
    db.attach_journal(journal.clone());
    let svc = tn_service(clock(), db);
    let id = start_resumable(&svc);
    policy_exchange(&svc, id);
    let token = exchange(&svc, id).token.expect("a resumable session");
    if finish {
        assert!(exchange(&svc, id).is_completed());
    }
    let salvaged = journal.bytes();
    drop(svc);
    let recovered_journal = Journal::from_bytes(salvaged);
    let db = Database::new();
    assert!(!db.restore_from_journal(&recovered_journal).truncated);
    db.attach_journal(Arc::new(recovered_journal));
    (tn_service(clock(), db), token)
}

fn resume(svc: &TnService, token: SignedToken) -> Result<Envelope, Fault> {
    svc.handle(&Envelope::new(Body::ResumeNegotiation(token)))
}

/// After a restart, a new resumable negotiation between the same parties
/// must not take the interrupted one's checkpoint slot: the old token
/// resumes its own negotiation at its own cursor, and both complete.
#[test]
fn an_old_token_resumes_its_own_negotiation_beside_a_new_one() {
    let (svc, token) = restart_after_a_crash(false);
    let new_id = start_resumable(&svc);
    assert!(policy_exchange(&svc, new_id).token.is_some());
    let resumed = resume(&svc, token).unwrap();
    let Body::ResumeNegotiationResponse(reply) = &*resumed.body else {
        panic!("not a resume reply: {:?}", resumed.body)
    };
    assert_eq!(reply.next, 1, "the interrupted negotiation's cursor");
    let resumed_id = resumed.negotiation_id.unwrap();
    drive_to_completion(&svc, resumed_id);
    drive_to_completion(&svc, new_id);
    assert!(svc.is_completed(resumed_id));
    assert!(svc.is_completed(new_id));
}

/// After a restart, the last token of a negotiation that completed (its
/// final reply lost) names no checkpoint, even once a new negotiation
/// checkpoints into the purged slot: it cannot take that one over.
#[test]
fn a_finished_negotiations_token_cannot_take_over_a_new_one() {
    let (svc, token) = restart_after_a_crash(true);
    let new_id = start_resumable(&svc);
    assert!(policy_exchange(&svc, new_id).token.is_some());
    assert_eq!(resume(&svc, token).unwrap_err().code, "NoSuchCheckpoint");
    drive_to_completion(&svc, new_id);
    assert!(svc.is_completed(new_id));
    assert_eq!(svc.resumed_count(), 0);
}

/// Restore stops at a corrupted document. One byte of a `Put`'s
/// document is flipped and its frame rebuilt with a correct CRC, so only
/// the document check can catch it: the restore must apply the facts
/// before the first `Put` that `decode_element` refuses — the applied
/// count, `truncated` flag and state digest a decode-based restore gives
/// — for every byte of the document and two flip masks.
#[test]
fn restore_stops_at_a_corrupted_document() {
    let db = Database::new();
    let journal = Arc::new(Journal::in_memory());
    db.attach_journal(journal.clone());
    let svc = tn_service(clock(), db);
    let id = start_resumable(&svc);
    policy_exchange(&svc, id);
    exchange(&svc, id);
    let facts = journal.replay().facts;
    let is_checkpoint =
        |f: &Fact| matches!(f, Fact::Put { collection, .. } if collection == "checkpoints");
    let victim = facts
        .iter()
        .position(is_checkpoint)
        .expect("a checkpoint was written");
    assert!(
        victim > 0 && victim + 1 < facts.len(),
        "facts before and after it"
    );
    let Fact::Put {
        collection,
        id,
        doc,
    } = &facts[victim]
    else {
        unreachable!("a checkpoint fact is a Put")
    };

    let mut stopped = 0;
    for at in 0..doc.len() {
        for mask in [0x01u8, 0x80] {
            let mut damaged = doc.to_vec();
            damaged[at] ^= mask;
            let log = Journal::in_memory();
            for (i, fact) in facts.iter().enumerate() {
                if i == victim {
                    log.append(&Fact::Put {
                        collection: collection.clone(),
                        id: id.clone(),
                        doc: damaged.clone().into(),
                    });
                } else {
                    log.append(fact);
                }
            }
            let scanned = log.replay();
            assert!(!scanned.truncated, "every frame is checksum-valid");
            assert_eq!(scanned.facts.len(), facts.len());
            // The decode-based restore: stop at the first Put whose
            // document does not decode.
            let applied = scanned
                .facts
                .iter()
                .position(|f| {
                    matches!(f, Fact::Put { doc, .. }
                        if trust_vo::xmldoc::decode_element(doc).is_none())
                })
                .unwrap_or(facts.len());
            let oracle = Database::new();
            assert_eq!(
                oracle.restore_from_facts(&scanned.facts[..applied]),
                applied
            );

            let restored = Database::new();
            let replay = restored.restore_from_journal(&log);
            let case = format!("byte {at} ^ {mask:#04x}");
            assert_eq!(replay.facts.len(), applied, "{case}");
            assert_eq!(replay.truncated, applied < facts.len(), "{case}");
            assert_eq!(restored.state_digest(), oracle.state_digest(), "{case}");
            stopped += usize::from(applied == victim);
        }
    }
    assert!(stopped > doc.len() / 2, "most flips break the document");
}

#[test]
fn journal_obs_counters_track_activity() {
    let collector = Collector::new();
    assert!(collector.is_enabled(), "root tests build with obs enabled");
    let journal = Journal::in_memory();
    journal.attach_obs(&collector);
    let fact = |n: u32| Fact::Put {
        collection: "c".into(),
        id: format!("d{n}"),
        doc: trust_vo::xmldoc::encode_element(&Element::new("d")).into(),
    };
    journal.append(&fact(1));
    journal.append(&fact(2));
    journal.compact(&[fact(1), fact(2)]);
    journal.append(&fact(3));
    journal.replay();

    let metrics = collector.metrics();
    assert_eq!(metrics.counter("journal.appends"), 3);
    assert_eq!(metrics.counter("journal.compactions"), 1);
    assert_eq!(
        metrics.counter("journal.replayed_records"),
        2,
        "snapshot record + post-compaction append"
    );
    assert_eq!(
        metrics.counter("journal.bytes"),
        journal.stats().bytes_written
    );
}
