//! Deterministic work gate for the formation paths: the exact number of
//! signatures, verifications, bus calls, journal appends and bytes, store
//! operations, join attempts and phase-1 negotiation work (messages,
//! policy evaluations, failed alternatives) a fixed set of serial
//! formations costs.
//!
//! The crypto counters and the verified-credential cache are
//! process-wide, so this file holds a single test and runs its shapes in
//! a fixed order: each shape's counts include whatever the shapes before
//! it left in the caches. Parallel shapes are deliberately absent — two
//! threads missing the credential cache on the same credential both
//! verify it, so their counts depend on scheduling.

use std::sync::Arc;
use trust_vo::admission::{AdmissionGate, ManaConfig, ManaLedger};
use trust_vo::crypto::stats::{self as crypto_stats, CryptoStats};
use trust_vo::journal::Journal;
use trust_vo::negotiation::Strategy;
use trust_vo::obs::Collector;
use trust_vo::scenario_dsl::dsl::{Churn, ManaClause, Scenario, Storm};
use trust_vo::scenario_dsl::run::{run_scenario, Mode};
use trust_vo::soa::simclock::{CostModel, SimClock, SimDuration};
use trust_vo::soa::{ResumePolicy, RetryPolicy, ServiceBus, TnService};
use trust_vo::store::Database;
use trust_vo::vo::mailbox::MailboxSystem;
use trust_vo::vo::scenario::{names, scenario_time};
use trust_vo::vo::{
    form_vo, form_vo_resilient_admitted, register_formation_parties, AdmissionControl,
    AircraftScenario, ReputationLedger,
};
use trust_vo_bench::workloads;

/// The work one shape performed.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    sign: u64,
    verify: u64,
    bus_calls: u64,
    journal_appends: u64,
    /// Journal bytes written, frames included: pins the record layout
    /// and the document encoding a `Fact::Put` carries.
    journal_bytes: u64,
    store_ops: u64,
    attempts: u64,
    admissions: u64,
    messages: u64,
    policy_evaluations: u64,
    failed_alternatives: u64,
}

impl Work {
    /// Read a shape's work: crypto deltas since `before`, everything
    /// else from the shape's own collector. Store operations are the
    /// samples in the per-collection `store.*.op_us` histograms; the
    /// phase-1 counts are the `negotiation.*` counters.
    fn measure(
        before: CryptoStats,
        collector: &Collector,
        journal_appends: u64,
        journal_bytes: u64,
    ) -> Self {
        let after = crypto_stats::snapshot();
        let snap = collector.metrics();
        let store_ops = snap
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("store.") && name.ends_with(".op_us"))
            .map(|(_, h)| h.count)
            .sum();
        Work {
            sign: after.sign - before.sign,
            verify: after.verify - before.verify,
            bus_calls: snap.counter("bus.calls"),
            journal_appends,
            journal_bytes,
            store_ops,
            attempts: snap.counter("formation.attempts"),
            admissions: snap.counter("formation.admissions"),
            messages: snap.counter("negotiation.messages"),
            policy_evaluations: snap.counter("negotiation.policy_evaluations"),
            failed_alternatives: snap.counter("negotiation.failed_alternatives"),
        }
    }
}

/// In-process formation of an E10 batch world: `applicants` roles, a
/// chain of `depth` levels with `alternatives` policies per level.
fn in_process(applicants: usize, depth: usize, alternatives: usize) -> Work {
    let world = workloads::parallel_join_world(applicants, depth, alternatives);
    let clock = workloads::free_clock();
    let collector = Collector::new();
    clock.attach_obs(&collector);
    let before = crypto_stats::snapshot();
    let vo = form_vo(
        world.contract.clone(),
        &world.initiator,
        &world.providers,
        &world.registry,
        &mut MailboxSystem::new(),
        &mut ReputationLedger::new(),
        &clock,
        Strategy::Standard,
    )
    .expect("in-process formation succeeds");
    assert_eq!(vo.members().len(), applicants);
    Work::measure(before, &collector, 0, 0)
}

/// The Aircraft VO through a journal-backed TN service on the gated
/// wire bus.
fn tn_service() -> Work {
    let scenario = AircraftScenario::build();
    let initiator = scenario.provider(names::AIRCRAFT).clone();
    let providers = &scenario.toolkit.providers;
    let clock = SimClock::new(CostModel::paper_testbed(), scenario_time());
    let collector = Collector::new();
    clock.attach_obs(&collector);
    let bus = ServiceBus::new(clock.clone());
    let journal = Arc::new(Journal::in_memory());
    let db = Database::new();
    db.attach_journal(Arc::clone(&journal));
    let service = Arc::new(TnService::new(clock.clone(), db));
    register_formation_parties(&service, &scenario.contract, &initiator, providers);
    bus.register("tn", service);
    let gate = AdmissionGate::new(
        Arc::new(ManaLedger::new(ManaConfig::standard())),
        clock.clone(),
    );
    bus.set_gate(Arc::new(gate));
    let journal_before = journal.stats();
    let before = crypto_stats::snapshot();
    let (vo, stats) = form_vo_resilient_admitted(
        scenario.contract.clone(),
        &initiator,
        providers,
        &scenario.toolkit.registry,
        &mut MailboxSystem::new(),
        &mut ReputationLedger::new(),
        &bus,
        "tn",
        Strategy::Standard,
        &RetryPolicy::standard(),
        &ResumePolicy::standard(),
        42,
        &AdmissionControl::default(),
    )
    .expect("service formation succeeds");
    assert_eq!(vo.members().len(), scenario.contract.roles.len());
    assert_eq!(stats.negotiations, vo.members().len() as u64);
    let journal_after = journal.stats();
    Work::measure(
        before,
        &collector,
        journal_after.appends - journal_before.appends,
        journal_after.bytes_written - journal_before.bytes_written,
    )
}

/// One seeded E16 lifecycle scenario, serially driven: lossy transport,
/// a tight flow budget, ontology drift, a revocation storm and churn.
fn lifecycle() -> Work {
    let scenario = Scenario {
        parties: 3,
        depth: 2,
        alternatives: 2,
        loss_pct: 10,
        drift: 2,
        storms: vec![Storm { revoke: 1 }],
        churn: vec![Churn::Replace { role: 0 }, Churn::Renew { member: 1 }],
        mana: Some(ManaClause {
            capacity_milli: 3_000,
            refill_milli: 2_000,
        }),
        ..Scenario::minimal(42)
    };
    let collector = Collector::new();
    let before = crypto_stats::snapshot();
    let run = run_scenario(&scenario, Mode::Serial, SimDuration::ZERO, Some(&collector));
    assert!(run.outcome.formed.is_ok(), "{:?}", run.outcome.formed);
    let bytes = run.journal.len() as u64;
    let appends = Journal::from_bytes(run.journal).replay().facts.len() as u64;
    Work::measure(before, &collector, appends, bytes)
}

#[test]
fn formation_work_is_pinned() {
    assert_eq!(
        in_process(4, 4, 2),
        Work {
            sign: 4,
            verify: 14,
            bus_calls: 0,
            journal_appends: 0,
            journal_bytes: 0,
            store_ops: 0,
            attempts: 4,
            admissions: 4,
            messages: 104,
            policy_evaluations: 32,
            failed_alternatives: 12,
        },
        "in-process formation"
    );
    assert_eq!(
        tn_service(),
        Work {
            sign: 9,
            verify: 9,
            bus_calls: 13,
            journal_appends: 9,
            journal_bytes: 2027,
            store_ops: 29,
            attempts: 4,
            admissions: 4,
            messages: 0,
            policy_evaluations: 0,
            failed_alternatives: 0,
        },
        "service formation"
    );
    assert_eq!(
        lifecycle(),
        Work {
            sign: 20,
            verify: 11,
            bus_calls: 12,
            journal_appends: 36,
            journal_bytes: 11235,
            store_ops: 27,
            attempts: 5,
            admissions: 5,
            messages: 28,
            policy_evaluations: 8,
            failed_alternatives: 2,
        },
        "lifecycle scenario"
    );
    // The E17 `formation_cold` shape (8 roles, depth 8, 3 alternatives
    // per level, all but the last failing), after the shapes above.
    assert_eq!(
        in_process(8, 8, 3),
        Work {
            sign: 8,
            verify: 42,
            bus_calls: 0,
            journal_appends: 0,
            journal_bytes: 0,
            store_ops: 0,
            attempts: 8,
            admissions: 8,
            messages: 512,
            policy_evaluations: 184,
            failed_alternatives: 112,
        },
        "formation_cold shape"
    );
}
