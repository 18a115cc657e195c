//! Exact allocation counts of the document store's write and replay
//! paths, read from a counting global allocator this test binary
//! installs. Counts are per thread, so the harness's other test threads
//! do not leak into a measurement.
//!
//! * `register_formation_parties` for the paper's Aircraft VO: every
//!   profile and policy document is encoded straight from the party's
//!   values into a journal-backed database, with no element tree.
//! * `Database::restore_from_journal` on that registration's journal:
//!   every `Put` is validated in place, and no tree is decoded.
//! * One document of each stored or signed shape — an X-Profile, a
//!   policy, a checkpoint with its digest, and an issued credential —
//!   takes a handful of allocations (its buffer and the buffer's growth,
//!   the shared result; for issuance also the id and the header's
//!   strings), fewer than building the same document's tree alone
//!   takes.
//!
//! An allocation added to or removed from either path moves its pin by
//! an exact amount. A set-up run before each measurement keeps one-time
//! initialisation out of the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use trust_vo::credential::{
    Attribute, CredentialAuthority, CredentialDocument, TimeRange, Timestamp,
};
use trust_vo::journal::Journal;
use trust_vo::negotiation::message::Side;
use trust_vo::negotiation::view::{Disclosure, TrustSequence};
use trust_vo::negotiation::{Negotiation, Strategy};
use trust_vo::soa::simclock::{CostModel, SimClock};
use trust_vo::soa::TnService;
use trust_vo::store::Database;
use trust_vo::vo::scenario::{names, scenario_time};
use trust_vo::vo::{register_formation_parties, AircraftScenario};
use trust_vo::xmldoc::Document;

/// Counts every allocation and reallocation of the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no count left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// count is a side effect on a thread-local `Cell`, which allocates
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// Registers the Aircraft VO's parties (its initiator once per role, and
/// every provider) with a fresh journal-backed TN service. Returns the
/// journal and the registration's allocation count.
fn register_aircraft_vo(scenario: &AircraftScenario) -> (Arc<Journal>, u64) {
    let initiator = scenario.provider(names::AIRCRAFT).clone();
    let journal = Arc::new(Journal::in_memory());
    let db = Database::new();
    db.attach_journal(Arc::clone(&journal));
    let service = TnService::new(
        SimClock::new(CostModel::paper_testbed(), scenario_time()),
        db,
    );
    let ((), n) = allocations(|| {
        register_formation_parties(
            &service,
            &scenario.contract,
            &initiator,
            &scenario.toolkit.providers,
        );
    });
    (journal, n)
}

#[test]
fn registration_allocations_are_pinned() {
    let scenario = AircraftScenario::build();
    let (_, warm_up) = register_aircraft_vo(&scenario);
    let (journal, n) = register_aircraft_vo(&scenario);
    assert_eq!(n, warm_up, "registration allocates the same every time");
    assert_eq!(journal.replay().facts.len(), 42, "documents registered");
    assert_eq!(n, 1_037, "allocations of register_formation_parties");
}

#[test]
fn replay_allocations_are_pinned() {
    let scenario = AircraftScenario::build();
    let (journal, _) = register_aircraft_vo(&scenario);
    let restore = || {
        let db = Database::new();
        let (replay, n) = allocations(|| db.restore_from_journal(&journal));
        assert!(!replay.truncated);
        (db.state_digest(), n)
    };
    let (_, warm_up) = restore();
    let (digest, n) = restore();
    assert_eq!(n, warm_up, "replay allocates the same every time");
    assert_eq!(digest, {
        let again = Database::new();
        again.restore_from_journal(&journal);
        again.state_digest()
    });
    assert_eq!(n, 275, "allocations of restore_from_journal");
}

/// The allocations of `f` on its second call: the first fills any
/// one-time state.
fn steady_allocations<R>(mut f: impl FnMut() -> R) -> (R, u64) {
    f();
    allocations(f)
}

#[test]
fn one_document_allocates_no_tree() {
    let scenario = AircraftScenario::build();
    let party = &scenario.provider(names::AIRCRAFT).party;
    let policy = party.policies.iter().next().expect("a policy");
    let mut negotiation =
        Negotiation::new("Aerospace", "Aircraft", "VoMembership", Strategy::Standard);
    let mut sequence = TrustSequence::new();
    for (i, by) in [Side::Requester, Side::Controller, Side::Requester]
        .into_iter()
        .enumerate()
    {
        sequence.push(Disclosure {
            by,
            cred_id: format!("cred-{i}").as_str().into(),
            cred_type: format!("Type{i}"),
        });
    }
    negotiation.agree(sequence);
    let mut ca = CredentialAuthority::new("INFN");
    let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
    let subject = party.keys.public;
    let content = || vec![Attribute::new("QualityRegulation", "UNI EN ISO 9000")];
    let mut issue = |content| {
        ca.issue(
            "ISO9000Certified",
            "Aircraft Company",
            subject,
            content,
            window,
        )
        .expect("an open credential type")
    };
    issue(content());
    let fresh = content();
    let (credential, issued) = allocations(|| issue(fresh));

    // (shape, allocations of the streamed bytes, allocations of the
    // same document's tree alone)
    let unsigned = CredentialDocument::unsigned(credential.header(), credential.content());
    let measured = [
        (
            "X-Profile",
            steady_allocations(|| party.profile.encode()).1,
            steady_allocations(|| party.profile.to_tree()).1,
        ),
        (
            "policy",
            steady_allocations(|| policy.encode()).1,
            steady_allocations(|| policy.to_tree()).1,
        ),
        (
            "checkpoint and digest",
            steady_allocations(|| negotiation.checkpoint()).1,
            steady_allocations(|| negotiation.to_tree()).1,
        ),
        (
            "issued credential",
            issued,
            steady_allocations(|| unsigned.to_tree()).1,
        ),
    ];
    assert_eq!(
        measured,
        [
            ("X-Profile", 5, 157),
            ("policy", 3, 14),
            ("checkpoint and digest", 3, 41),
            ("issued credential", 10, 42),
        ]
    );
}
