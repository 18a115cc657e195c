//! One journal, several producers: compaction keeps every consumer's
//! recovery intact.
//!
//! The document store and the admission layer's mana ledger and scoring
//! engine can all spill into one `Journal`. Compacting it through the
//! store (`Database::compact_into`, or the store's own automatic
//! compaction) replaces the store's facts with a snapshot and must carry
//! the other producers' facts forward, including facts they append while
//! the compaction runs.

use std::sync::Arc;
use trust_vo::admission::{ManaConfig, ManaLedger, Outcome, ScoringConfig, ScoringEngine};
use trust_vo::journal::{Fact, Journal};
use trust_vo::soa::simclock::SimDuration;
use trust_vo::store::Database;
use trust_vo::xmldoc::Element;

#[test]
fn compaction_keeps_store_mana_and_scores_recoverable() {
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

    let restored = Database::new();
    assert!(!restored.restore_from_journal(&journal).truncated);
    assert_eq!(restored.state_digest(), db.state_digest());
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
                journal.append(&Fact::Mana {
                    party: format!("party-{appended}"),
                    tokens_bits: 1.0_f64.to_bits(),
                    at_us: appended as u64,
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
    let parties: Vec<String> = replay
        .facts
        .iter()
        .filter_map(|f| match f {
            Fact::Mana { party, .. } => Some(party.clone()),
            _ => None,
        })
        .collect();
    let want: Vec<String> = (0..appended).map(|i| format!("party-{i}")).collect();
    assert_eq!(parties, want, "every append survives, in order");
    assert!(
        replay.facts.iter().all(|f| !f.is_store()),
        "all slots purged"
    );
}
