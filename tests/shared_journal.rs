//! One journal, several producers: compaction keeps every consumer's
//! recovery intact.
//!
//! The document store, the mapping memo and the admission layer's mana
//! ledger and scoring engine can all spill into one `Journal`. Compacting
//! it through the store (`Database::compact_into`, or the store's own
//! automatic compaction) replaces the store's facts with a snapshot and
//! must carry the other producers' facts forward, including facts they
//! append while the compaction runs.

use std::sync::Arc;
use trust_vo::admission::{ManaConfig, ManaLedger, Outcome, ScoringConfig, ScoringEngine};
use trust_vo::credential::{Attribute, CredentialAuthority, TimeRange, Timestamp, XProfile};
use trust_vo::crypto::KeyPair;
use trust_vo::journal::{Fact, Journal};
use trust_vo::ontology::{dictionary_from_journal, Concept, MapMemo, MappingEngine, Ontology};
use trust_vo::soa::simclock::SimDuration;
use trust_vo::store::Database;
use trust_vo::xmldoc::Element;

/// Spill one similarity-resolved mapping from a memo attached to
/// `journal` (the §4.3 dictionary entry `Quality_Certification_ISO9000`
/// → `QualityCertification`).
fn spill_mapping(journal: &Arc<Journal>) {
    let mut ontology = Ontology::new();
    ontology.add(
        Concept::new("QualityCertification")
            .keyword("ISO 9000")
            .implemented_by("ISO9000Certified"),
    );
    let keys = KeyPair::from_seed(b"holder");
    let mut profile = XProfile::new("holder");
    profile.add(
        CredentialAuthority::new("INFN")
            .issue(
                "ISO9000Certified",
                "holder",
                keys.public,
                vec![Attribute::new("QualityRegulation", "UNI EN ISO 9000")],
                TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0)),
            )
            .unwrap(),
    );
    let memo = MapMemo::new(4, 64);
    memo.attach_journal(journal.clone());
    let engine = MappingEngine::new(&ontology, &profile, 0.3).with_memo(&memo);
    assert!(engine.map("Quality_Certification_ISO9000").is_mapped());
}

#[test]
fn compaction_keeps_store_memo_mana_and_scores_recoverable() {
    let journal = Arc::new(Journal::in_memory());
    let db = Database::new();
    db.attach_journal(journal.clone());
    let mana = ManaLedger::new(ManaConfig::standard());
    mana.attach_journal(journal.clone());
    let scores = ScoringEngine::new(ScoringConfig::paper_defaults());
    scores.attach_journal(journal.clone());

    db.with_collection("vos", |c| {
        c.put("v1", Element::new("vo").attr("name", "Aircraft"));
        c.put(
            "v1",
            Element::new("vo").attr("name", "Aircraft").attr("v", "2"),
        );
    });
    spill_mapping(&journal);
    for ms in 0..5 {
        let now = SimDuration::from_millis(ms * 10);
        mana.try_charge("Aerospace", now).unwrap();
        mana.try_charge("HPC-A", now).unwrap();
        scores.record("Aerospace", Outcome::Success, now);
    }
    scores.record("Flooder", Outcome::Violation, SimDuration::from_millis(60));
    db.with_collection("checkpoints", |c| {
        c.put("1", Element::new("ck"));
        c.purge(&"1".into());
    });

    db.compact_into(&journal);
    let replay = journal.replay();
    assert_eq!(replay.records, 1, "one snapshot record");
    // Resulting-state facts collapse to the last one per party.
    let count = |pred: fn(&Fact) -> bool| replay.facts.iter().filter(|f| pred(f)).count();
    assert_eq!(count(|f| matches!(f, Fact::Mana { .. })), 2);
    assert_eq!(count(|f| matches!(f, Fact::Reputation { .. })), 2);
    assert_eq!(count(|f| matches!(f, Fact::Mapping { .. })), 1);

    let restored = Database::new();
    assert!(!restored.restore_from_journal(&journal).truncated);
    assert_eq!(restored.state_digest(), db.state_digest());
    assert_eq!(
        dictionary_from_journal(&journal).resolve("Quality_Certification_ISO9000"),
        Some("QualityCertification")
    );
    let restored_mana = ManaLedger::new(ManaConfig::standard());
    restored_mana.restore_from_facts(&replay.facts);
    assert_eq!(restored_mana.snapshot(), mana.snapshot());
    let restored_scores = ScoringEngine::new(ScoringConfig::paper_defaults());
    restored_scores.restore_from_facts(&replay.facts);
    assert_eq!(restored_scores.snapshot(), scores.snapshot());
}

/// Another producer appends while the store compacts the shared journal
/// over and over: every one of its facts survives, in order.
#[test]
fn appends_racing_repeated_compactions_all_survive() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    const COMPACTIONS: usize = 50;
    const MAX_APPENDS: usize = 5_000;
    let journal = Arc::new(Journal::in_memory());
    let db = Database::new();
    db.attach_journal(journal.clone());
    let stop = AtomicBool::new(false);
    let progress = AtomicUsize::new(0);
    let appended = std::thread::scope(|s| {
        let appender = s.spawn(|| {
            let mut appended = 0;
            while !stop.load(Ordering::Acquire) && appended < MAX_APPENDS {
                journal.append(&Fact::Mapping {
                    alias: format!("alias-{appended}"),
                    canonical: "Canonical".into(),
                });
                appended += 1;
                progress.store(appended, Ordering::Release);
                std::thread::yield_now();
            }
            appended
        });
        for slot in 0..COMPACTIONS {
            // At least one fresh append lands before every compaction.
            while progress.load(Ordering::Acquire) <= slot {
                std::thread::yield_now();
            }
            let id = slot.to_string();
            db.with_collection("checkpoints", |c| {
                c.put(id.as_str(), Element::new("ck"));
                c.purge(&id.as_str().into());
            });
            db.compact_into(&journal);
        }
        stop.store(true, Ordering::Release);
        appender.join().unwrap()
    });
    assert_eq!(journal.stats().compactions, COMPACTIONS as u64);
    assert!(appended >= COMPACTIONS);
    let replay = journal.replay();
    let aliases: Vec<String> = replay
        .facts
        .iter()
        .filter_map(|f| match f {
            Fact::Mapping { alias, .. } => Some(alias.clone()),
            _ => None,
        })
        .collect();
    let want: Vec<String> = (0..appended).map(|i| format!("alias-{i}")).collect();
    assert_eq!(aliases, want, "every append survives, in order");
    assert!(
        replay.facts.iter().all(|f| !f.is_store()),
        "all slots purged"
    );
}
