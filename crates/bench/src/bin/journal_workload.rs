//! Journal determinism + recovery smoke (PR 6 CI gate).
//!
//! Runs the formation workload with a fact journal attached to the TN
//! service's database, then prints the journal's replay digest and the
//! database's state digest. Everything downstream of `--seed` is
//! deterministic, so two runs of this binary with the same seed must
//! print byte-identical output — ci.sh runs it twice and `cmp`s.
//!
//! `--smoke` additionally sweeps truncated copies of the journal through
//! recovery: for a spread of byte cuts (torn-tail crashes included) the
//! replay must stop at a clean record boundary and restore a database
//! whose digest matches a clean-prefix replay of the same bytes. A
//! compaction round-trip is asserted too: snapshotting the log must not
//! change the recovered state.

use std::sync::Arc;
use trust_vo_bench::obsutil::ObsArgs;
use trust_vo_bench::workloads::{self, ParallelJoinWorld};
use trust_vo_journal::Journal;
use trust_vo_soa::simclock::{CostModel, SimClock};
use trust_vo_soa::{ServiceBus, TnService};
use trust_vo_store::Database;
use trust_vo_vo::mailbox::MailboxSystem;
use trust_vo_vo::{
    register_formation_parties, Formation, NegotiationSource, ReputationLedger, ServiceSource,
};

const DEFAULT_SEED: u64 = 9;

/// Drive one formation with a journaled database; return the journal
/// bytes and the live database's state digest.
fn journaled_formation(world: &ParallelJoinWorld, seed: u64) -> (Vec<u8>, u64) {
    let clock = SimClock::new(CostModel::paper_testbed(), workloads::at());
    let bus = ServiceBus::new(clock.clone());
    let db = Database::new();
    let journal = Arc::new(Journal::in_memory());
    db.attach_journal(journal.clone());
    let svc = Arc::new(TnService::new(clock.clone(), db));
    register_formation_parties(&svc, &world.contract, &world.initiator, &world.providers);
    bus.register("tn", svc.clone());
    let (vo, _) = Formation::new(
        &world.initiator,
        &world.providers,
        &world.registry,
        NegotiationSource::Service(ServiceSource::standard(&bus, "tn", seed)),
    )
    .run(
        world.contract.clone(),
        &mut MailboxSystem::new(),
        &mut ReputationLedger::new(),
    )
    .expect("journaled formation completes");
    assert_eq!(vo.members().len(), world.contract.roles.len());
    let digest = svc.database().state_digest();
    (journal.bytes(), digest)
}

fn restore_digest(bytes: &[u8]) -> (u64, trust_vo_journal::Replay) {
    let journal = Journal::from_bytes(bytes.to_vec());
    let db = Database::new();
    let replay = db.restore_from_journal(&journal);
    (db.state_digest(), replay)
}

fn main() {
    let args = ObsArgs::from_env();
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let world = workloads::parallel_join_world(3, 4, 2);

    let (bytes, live_digest) = journaled_formation(&world, seed);
    let replay = Journal::replay_bytes(&bytes);
    assert!(!replay.truncated, "a clean run leaves no torn tail");
    let (restored_digest, _) = restore_digest(&bytes);
    assert_eq!(
        restored_digest, live_digest,
        "replay must reconstruct the live state"
    );

    // Compaction round-trip: snapshot + replay lands on the same state.
    let journal = Journal::from_bytes(bytes.clone());
    let db = Database::new();
    db.restore_from_journal(&journal);
    db.compact_into(&journal);
    let (compacted_digest, compacted_replay) = restore_digest(&journal.bytes());
    assert_eq!(compacted_digest, live_digest, "compaction must be lossless");
    assert_eq!(
        compacted_replay.records, 1,
        "compaction leaves one snapshot"
    );

    println!(
        "seed={seed} records={} bytes={} replay_digest={} state_digest={live_digest:016x}",
        replay.records,
        bytes.len(),
        replay.digest_hex(),
    );

    if args.smoke {
        // Truncated-journal recovery: cut the log at a spread of byte
        // offsets (coprime stride so cuts land mid-record, mid-frame,
        // and mid-header) and require every cut to recover cleanly.
        let mut cuts = 0u32;
        let stride = (bytes.len() / 97).max(1);
        for cut in (0..=bytes.len()).step_by(stride) {
            let truncated = &bytes[..cut];
            let (got, replay) = restore_digest(truncated);
            assert!(
                replay.clean_len as usize <= cut,
                "clean prefix cannot exceed the surviving bytes"
            );
            let (want, clean) = restore_digest(&truncated[..replay.clean_len as usize]);
            assert!(!clean.truncated, "the clean prefix replays cleanly");
            assert_eq!(got, want, "cut at byte {cut} must restore a clean prefix");
            cuts += 1;
        }
        println!("truncation smoke ok: {cuts} cuts recovered to clean prefixes");
    }
}
