//! Executing one scenario: compile it to a fault plan, drive the full VO
//! lifecycle through a TN-service-sourced, admission-gated `Formation`,
//! and check the four lifecycle properties on the result.
//!
//! The properties (DESIGN §8):
//!
//! * **P1 — no certificate without a completed TN**: a successful run
//!   fills every contract role exactly once, every membership
//!   certificate has a distinct serial, and the driver reports at least
//!   one completed negotiation per admitted member. Revocation storms
//!   must take effect: a revoked certificate never verifies, an intact
//!   one always does.
//! * **P2 — drive equivalence**: the same scenario re-run is
//!   byte-identical (outcome and journal), and — when no clause is
//!   order-dependent — the parallel driver replays the serial outcome.
//! * **P3 — kill-anywhere recovery**: truncating the run's journal at
//!   any byte and restoring yields exactly the state at the last clean
//!   record boundary.
//! * **P4 — honest refusals**: every typed refusal carries a
//!   `retry_after_us` hint, and no retry of the same logical call
//!   arrives before the hinted time.

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::Mutex;
use trust_vo_admission::{AdmissionGate, ManaConfig, ManaLedger};
use trust_vo_credential::RevocationList;
use trust_vo_journal::Journal;
use trust_vo_negotiation::Strategy;
use trust_vo_netsim::rng::{hash_str, mix, SplitMix64};
use trust_vo_netsim::{FaultPlan, NetSim};
use trust_vo_obs::Collector;
use trust_vo_soa::simclock::{CostModel, SimClock, SimDuration};
use trust_vo_soa::{Envelope, Fault, ServiceBus, TnService, Transport};
use trust_vo_store::Database;
use trust_vo_vo::dissolution::dissolve;
use trust_vo_vo::mailbox::MailboxSystem;
use trust_vo_vo::operation::{renew_membership, replace_member, verify_membership};
use trust_vo_vo::{
    register_formation_parties, AdmissionControl, Formation, NegotiationSource, ReputationLedger,
    ServiceSource,
};

use crate::dsl::{Churn, Scenario};
use crate::world::{build_world, run_drift, ScenarioWorld};

/// Workers used by the parallel-equivalence leg.
pub const WORKERS: usize = 4;

/// How the formation is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A serial formation — sound under every fault clause.
    Serial,
    /// A parallel formation with [`WORKERS`] workers.
    Parallel,
}

/// A violated lifecycle property, with enough detail to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The property that failed (stable identifier, e.g. `"journal-recovery"`).
    pub property: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl Failure {
    fn new(property: &str, detail: impl Into<String>) -> Self {
        Failure {
            property: property.to_owned(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.property, self.detail)
    }
}

/// What a successful formation produced and what the operation phase did
/// with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Formed {
    /// `(provider, role, certificate serial)` per member, contract order.
    pub members: Vec<(String, String, u64)>,
    /// Negotiations completed through the service.
    pub negotiations: u64,
    /// Transport-level call retries.
    pub retries: u64,
    /// Sessions resumed from a durable checkpoint.
    pub resumes: u64,
    /// Sessions restarted from phase 1.
    pub restarts: u64,
    /// Certificates revoked by storm clauses.
    pub revoked: usize,
    /// Revoked certificates that *still verified* (must be 0).
    pub revoked_still_valid: usize,
    /// Intact certificates that *failed* verification (must be 0).
    pub intact_invalid: usize,
    /// One line per churn operation and how it went.
    pub churn: Vec<String>,
    /// Members released by dissolution.
    pub released: usize,
}

/// Everything about one run that determinism must preserve. `PartialEq`
/// over this struct *is* the replay/parallel-equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Paraphrased ontology lookups that resolved in the drift stage.
    pub mapped: usize,
    /// The formation result: members + recovery counters, or the
    /// formation error. A failed formation under a harsh plan is a
    /// legitimate *outcome*, not a property violation — but it must fail
    /// the same way on every drive.
    pub formed: Result<Formed, String>,
    /// Total simulated time burned by the run.
    pub elapsed_us: u64,
    /// Messages the fault injector delivered.
    pub delivered: u64,
    /// Messages it dropped.
    pub drops: u64,
    /// Duplicate deliveries it injected.
    pub dups: u64,
    /// Duplicates absorbed by receiver-side dedup.
    pub dedup_replays: u64,
    /// Crash outages that wiped service state.
    pub crashes: u64,
    /// Calls refused because the service was partitioned off.
    pub partitioned: u64,
    /// Calls refused at the gate or shed under overload.
    pub refusals: u64,
    /// Sessions the TN service resumed from a checkpoint.
    pub service_resumed: u64,
}

impl Outcome {
    /// A stable one-scenario summary, pinned byte-for-byte by the
    /// `scenario_lifecycle` corpus test.
    pub fn summary(&self) -> String {
        format!("{self:?}")
    }
}

/// One observed transport call (the probe's log record).
#[derive(Debug, Clone)]
struct CallRecord {
    key: Option<u64>,
    /// Sim-elapsed immediately before the call was issued.
    at_us: u64,
    /// `Some(hint)` when the call was refused with a typed
    /// budget-exhausted/overloaded fault carrying that retry-after hint;
    /// `Some(None)` when the refusal carried *no* hint (a P4 violation).
    refused: Option<Option<u64>>,
}

/// A transport shim that records every call (time, idempotency key,
/// refusal hint) on its way through the fault injector.
struct Probe<'a> {
    net: &'a NetSim,
    log: Mutex<Vec<CallRecord>>,
}

impl Transport for Probe<'_> {
    fn call(&self, service: &str, request: &Envelope) -> Result<Envelope, Fault> {
        let at_us = self.net.clock().elapsed().0;
        let result = self.net.call(service, request);
        let refused = match &result {
            Err(f) if f.is_budget_exhausted() || f.is_overloaded() => Some(f.retry_after_us),
            _ => None,
        };
        self.log.lock().push(CallRecord {
            key: request.idempotency_key,
            at_us,
            refused,
        });
        result
    }

    fn clock(&self) -> &SimClock {
        self.net.clock()
    }
}

/// A full run's observables: the deterministic [`Outcome`] plus the raw
/// journal and call log the property checks consume.
pub struct RunResult {
    /// The deterministic outcome.
    pub outcome: Outcome,
    /// The TN database's journal bytes at end of run.
    pub journal: Vec<u8>,
    /// The live database's state digest at end of run.
    pub live_digest: u64,
    /// Every transport call, in issue order (serial drive only: the
    /// parallel log interleaves and is not used for checks).
    calls: Vec<CallRecord>,
}

/// A paper-cost clock anchored at the scenario epoch.
fn paper_clock() -> SimClock {
    SimClock::new(CostModel::paper_testbed(), crate::world::epoch())
}

/// Measure a clean serial formation of this scenario's world (no faults,
/// no gate) — the time base partition/crash windows anchor to.
fn probe_elapsed(s: &Scenario) -> SimDuration {
    let clean = Scenario {
        loss_pct: 0,
        partitions: Vec::new(),
        crashes: Vec::new(),
        mana: None,
        ..s.clone()
    };
    let result = run_scenario(&clean, Mode::Serial, SimDuration::ZERO, None);
    SimDuration(result.outcome.elapsed_us)
}

/// Compile the scenario's fault clauses into a netsim [`FaultPlan`],
/// anchoring windows to `base` (the fault-free formation time).
pub fn compile_plan(s: &Scenario, base: SimDuration) -> FaultPlan {
    let mut plan = if s.loss_pct == 0 {
        FaultPlan::reliable(s.seed)
    } else {
        FaultPlan::lossy(s.seed, f64::from(s.loss_pct) / 100.0)
    };
    let at_pct = |pct: u32| SimDuration((base.0 as u128 * u128::from(pct) / 100) as u64);
    for (i, w) in s.partitions.iter().enumerate() {
        let start = at_pct(w.start_pct);
        plan = plan.partition(
            format!("split{i}"),
            vec!["tn".to_owned()],
            start,
            start + SimDuration::from_millis(u64::from(w.len_ms)),
        );
    }
    for w in &s.crashes {
        let start = at_pct(w.start_pct);
        plan = plan.outage(
            "tn",
            start,
            start + SimDuration::from_millis(u64::from(w.len_ms)),
            true,
        );
    }
    plan
}

/// Execute the scenario once. Pure in the scenario value: same scenario
/// and mode ⇒ identical [`RunResult`] (that's property P2, checked by
/// [`check_scenario`] rather than assumed).
///
/// `window_base` anchors partition/crash windows; pass the fault-free
/// formation time measured on a clean serial run (or `ZERO` when there
/// are none).
/// `obs` optionally attaches a collector to the run's clock.
pub fn run_scenario(
    s: &Scenario,
    mode: Mode,
    window_base: SimDuration,
    obs: Option<&Collector>,
) -> RunResult {
    let mapped = run_drift(s.drift);

    let mut world = build_world(s);
    let clock = paper_clock();
    if let Some(collector) = obs {
        clock.attach_obs(collector);
    }
    let bus = ServiceBus::new(clock.clone());
    let journal = Arc::new(Journal::in_memory());
    let db = Database::new();
    db.attach_journal(Arc::clone(&journal));
    let svc = Arc::new(TnService::new(clock.clone(), db));
    register_formation_parties(&svc, &world.contract, &world.initiator, &world.providers);
    bus.register("tn", svc.clone());
    if let Some(m) = &s.mana {
        let ledger = Arc::new(ManaLedger::new(ManaConfig {
            capacity: f64::from(m.capacity_milli) / 1_000.0,
            refill_per_sec: f64::from(m.refill_milli) / 1_000.0,
            cost_per_call: 1.0,
        }));
        bus.set_gate(Arc::new(AdmissionGate::new(ledger, clock.clone())));
    }
    let net = NetSim::new(bus, compile_plan(s, window_base));
    let probe = Probe {
        net: &net,
        log: Mutex::new(Vec::new()),
    };

    let mut mailboxes = MailboxSystem::new();
    let mut reputation = ReputationLedger::new();
    let admission = AdmissionControl::default();
    let workers = match mode {
        Mode::Serial => 1,
        Mode::Parallel => WORKERS,
    };
    let formed = Formation::new(
        &world.initiator,
        &world.providers,
        &world.registry,
        NegotiationSource::Service(ServiceSource::standard(&probe, "tn", s.seed)),
    )
    .with_workers(workers)
    .with_admission(Some(&admission))
    .run(world.contract.clone(), &mut mailboxes, &mut reputation);

    let formed = match formed {
        Err(e) => Err(e.to_string()),
        Ok((mut vo, stats)) => {
            // The roster as admitted, before churn mutates it — what P1
            // audits against the completed-negotiation count.
            let members = stats_members(&vo);
            // Operation phase: storms, churn, dissolution — all in-process
            // (the paper's toolkit GUI flow), on the same sim clock. The
            // standby providers come online now: they declined formation
            // invitations (see `world.rs`) but serve `Replace` churn.
            for i in 0..s.parties {
                if let Some(spare) = world.providers.get_mut(&ScenarioWorld::spare(i)) {
                    spare.accepts_invitations = true;
                }
            }
            let mut crl = RevocationList::new();
            let mut revoked = 0usize;
            let mut revoked_set: BTreeSet<String> = BTreeSet::new();
            for storm in &s.storms {
                let n = storm.revoke.min(vo.members().len());
                for m in &vo.members()[..n] {
                    crl.revoke(m.certificate.revocation_id(), clock.timestamp());
                    revoked_set.insert(m.provider.clone());
                    revoked += 1;
                }
            }
            let mut revoked_still_valid = 0usize;
            let mut intact_invalid = 0usize;
            for m in vo.members() {
                let ok = verify_membership(&vo, m, clock.timestamp(), &crl).is_ok();
                match (revoked_set.contains(&m.provider), ok) {
                    (true, true) => revoked_still_valid += 1,
                    (false, false) => intact_invalid += 1,
                    _ => {}
                }
            }

            let mut churn_log = Vec::new();
            for op in &s.churn {
                let line = match *op {
                    Churn::Replace { role } => {
                        let role = ScenarioWorld::role(role % s.parties);
                        match replace_member(
                            &mut vo,
                            &world.initiator,
                            &world.providers,
                            &world.registry,
                            &role,
                            &mut crl,
                            &mut mailboxes,
                            &mut reputation,
                            &clock,
                            Strategy::Standard,
                        ) {
                            Ok(r) => format!(
                                "replace {role} -> {} serial={}",
                                r.provider, r.certificate.serial
                            ),
                            Err(e) => format!("replace {role} !{e}"),
                        }
                    }
                    Churn::Renew { member } => {
                        if vo.members().is_empty() {
                            "renew !no members".to_owned()
                        } else {
                            let name = vo.members()[member % vo.members().len()].provider.clone();
                            match renew_membership(
                                &mut vo,
                                &world.initiator,
                                &world.providers,
                                &name,
                                &mut mailboxes,
                                &mut reputation,
                                &clock,
                                Strategy::Standard,
                            ) {
                                Ok(r) => {
                                    format!("renew {name} serial={}", r.certificate.serial)
                                }
                                Err(e) => format!("renew {name} !{e}"),
                            }
                        }
                    }
                };
                churn_log.push(line);
            }

            let released = match dissolve(&mut vo, &mut crl, &clock) {
                Ok(report) => report.members_released.len(),
                Err(_) => 0,
            };

            Ok(Formed {
                members,
                negotiations: stats.negotiations,
                retries: stats.retries,
                resumes: stats.resumes,
                restarts: stats.restarts,
                revoked,
                revoked_still_valid,
                intact_invalid,
                churn: churn_log,
                released,
            })
        }
    };

    let calls = probe.log.into_inner();
    let refusals = calls.iter().filter(|c| c.refused.is_some()).count() as u64;
    let metrics = net.metrics();
    RunResult {
        outcome: Outcome {
            mapped,
            formed,
            elapsed_us: net.clock().elapsed().0,
            delivered: metrics.delivered.get(),
            drops: metrics.drops.get(),
            dups: metrics.dups.get(),
            dedup_replays: metrics.dedup_replays.get(),
            crashes: metrics.crashes.get(),
            partitioned: metrics.partitioned.get(),
            refusals,
            service_resumed: svc.resumed_count(),
        },
        journal: journal.bytes(),
        live_digest: svc.database().state_digest(),
        calls,
    }
}

fn stats_members(vo: &trust_vo_vo::FormedVo) -> Vec<(String, String, u64)> {
    vo.members()
        .iter()
        .map(|m| (m.provider.clone(), m.role.clone(), m.certificate.serial))
        .collect()
}

/// P3: truncate the journal at `cuts` seeded byte offsets (plus the full
/// length) and require every restore to land exactly on the last clean
/// record boundary's state.
fn check_journal_recovery(seed: u64, journal: &[u8], live_digest: u64) -> Result<(), Failure> {
    let restore_digest = |bytes: &[u8]| {
        let db = Database::new();
        db.restore_from_journal(&Journal::from_bytes(bytes.to_vec()));
        db.state_digest()
    };
    if restore_digest(journal) != live_digest {
        return Err(Failure::new(
            "journal-recovery",
            "full-journal restore diverges from the live database state",
        ));
    }
    let mut rng = SplitMix64::new(mix(&[seed, hash_str("scenario.cuts")]));
    for _ in 0..3 {
        let cut = rng.in_range(0, journal.len() as u64) as usize;
        let replay = Journal::replay_bytes(&journal[..cut]);
        let clean = replay.clean_len as usize;
        let cut_digest = restore_digest(&journal[..cut]);
        let clean_digest = restore_digest(&journal[..clean]);
        if cut_digest != clean_digest {
            return Err(Failure::new(
                "journal-recovery",
                format!(
                    "kill at byte {cut}/{} restored digest {cut_digest:#x}, but the last \
                     clean boundary ({clean}) restores {clean_digest:#x}",
                    journal.len()
                ),
            ));
        }
    }
    Ok(())
}

/// P4: every typed refusal carries a hint, and no same-key retry arrives
/// before refusal time + hint.
fn check_retry_after(calls: &[CallRecord]) -> Result<(), Failure> {
    for (i, call) in calls.iter().enumerate() {
        let Some(hint) = call.refused else { continue };
        let Some(hint) = hint else {
            return Err(Failure::new(
                "retry-after",
                format!("refusal at {}µs carries no retry_after_us hint", call.at_us),
            ));
        };
        let Some(key) = call.key else { continue };
        // Saturate: a `u64::MAX` hint means "never retry this call".
        let earliest = call.at_us.saturating_add(hint);
        if let Some(next) = calls[i + 1..].iter().find(|c| c.key == Some(key)) {
            if next.at_us < earliest {
                return Err(Failure::new(
                    "retry-after",
                    format!(
                        "call {key:#x} refused at {}µs with retry_after {hint}µs was \
                         retried early at {}µs",
                        call.at_us, next.at_us
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// P1: membership ⇔ completed TN, plus storm efficacy.
fn check_membership(s: &Scenario, formed: &Formed) -> Result<(), Failure> {
    if formed.members.len() != s.parties {
        return Err(Failure::new(
            "cert-without-tn",
            format!(
                "formation succeeded with {}/{} roles filled",
                formed.members.len(),
                s.parties
            ),
        ));
    }
    let serials: BTreeSet<u64> = formed
        .members
        .iter()
        .map(|(_, _, serial)| *serial)
        .collect();
    if serials.len() != formed.members.len() {
        return Err(Failure::new(
            "cert-without-tn",
            "duplicate certificate serials across members",
        ));
    }
    if formed.negotiations < formed.members.len() as u64 {
        return Err(Failure::new(
            "cert-without-tn",
            format!(
                "{} membership certificates but only {} completed negotiations",
                formed.members.len(),
                formed.negotiations
            ),
        ));
    }
    if formed.revoked_still_valid > 0 || formed.intact_invalid > 0 {
        return Err(Failure::new(
            "revocation",
            format!(
                "{} revoked certificates still verify, {} intact certificates fail",
                formed.revoked_still_valid, formed.intact_invalid
            ),
        ));
    }
    Ok(())
}

/// Run the scenario every way it supports and check all four lifecycle
/// properties. `Ok` carries the serial outcome (for corpora and reports).
pub fn check_scenario(s: &Scenario) -> Result<Outcome, Failure> {
    check_scenario_canary(s, false)
}

/// [`check_scenario`] with an optional *canary* property that demands the
/// formation FAIL — deliberately violated by any healthy scenario, so ci
/// can prove the shrinker minimizes a real failing seed.
pub fn check_scenario_canary(s: &Scenario, canary: bool) -> Result<Outcome, Failure> {
    let base = if s.partitions.is_empty() && s.crashes.is_empty() {
        SimDuration::ZERO
    } else {
        probe_elapsed(s)
    };

    let serial = run_scenario(s, Mode::Serial, base, None);

    // P2a: re-running the same scenario is byte-identical.
    let replay = run_scenario(s, Mode::Serial, base, None);
    if serial.outcome != replay.outcome {
        return Err(Failure::new(
            "replay-equivalence",
            format!(
                "same scenario, different outcome:\n  first:  {:?}\n  second: {:?}",
                serial.outcome, replay.outcome
            ),
        ));
    }
    if serial.journal != replay.journal {
        return Err(Failure::new(
            "replay-equivalence",
            "same scenario produced different journal bytes",
        ));
    }

    // P2b: the parallel driver replays the serial outcome (only sound
    // when no clause is call-order-dependent).
    if !s.serial_only() {
        let parallel = run_scenario(s, Mode::Parallel, base, None);
        if parallel.outcome != serial.outcome {
            return Err(Failure::new(
                "parallel-equivalence",
                format!(
                    "parallel drive diverged:\n  serial:   {:?}\n  parallel: {:?}",
                    serial.outcome, parallel.outcome
                ),
            ));
        }
    }

    // P1 on successful formations (a failed formation under a harsh plan
    // is a legitimate outcome; P2/P3/P4 still had to hold for it).
    if let Ok(formed) = &serial.outcome.formed {
        check_membership(s, formed)?;
    }

    // P3: kill-anywhere journal recovery.
    check_journal_recovery(s.seed, &serial.journal, serial.live_digest)?;

    // P4: refusal hints are present and honored.
    check_retry_after(&serial.calls)?;

    if canary && serial.outcome.formed.is_ok() {
        return Err(Failure::new(
            "canary",
            "formation succeeded but the canary property demands failure",
        ));
    }

    Ok(serial.outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{ManaClause, Storm, Window};

    #[test]
    fn minimal_scenario_passes_all_properties() {
        let outcome = check_scenario(&Scenario::minimal(7)).expect("clean scenario passes");
        let formed = outcome.formed.expect("forms");
        assert_eq!(formed.members.len(), 1);
        assert_eq!(formed.released, 1, "dissolution releases the member");
    }

    #[test]
    fn lossy_scenario_retries_and_still_passes() {
        let s = Scenario {
            parties: 2,
            loss_pct: 20,
            ..Scenario::minimal(11)
        };
        let outcome = check_scenario(&s).expect("lossy scenario passes");
        assert!(outcome.drops > 0, "20% loss must drop something");
        let formed = outcome.formed.expect("forms through retries");
        assert!(formed.retries > 0, "drops must surface as retries");
    }

    #[test]
    fn storm_revokes_and_churn_replaces() {
        let s = Scenario {
            parties: 2,
            storms: vec![Storm { revoke: 1 }],
            churn: vec![Churn::Replace { role: 1 }, Churn::Renew { member: 0 }],
            ..Scenario::minimal(13)
        };
        let outcome = check_scenario(&s).expect("storm+churn scenario passes");
        let formed = outcome.formed.expect("forms");
        assert_eq!(formed.revoked, 1);
        assert_eq!(formed.revoked_still_valid, 0);
        assert!(
            formed.churn[0].contains("-> Spare001"),
            "replacement must land on the spare: {}",
            formed.churn[0]
        );
        assert!(formed.churn[1].starts_with("renew "), "{}", formed.churn[1]);
    }

    #[test]
    fn crash_window_forces_recovery_and_replays() {
        let s = Scenario {
            parties: 3,
            depth: 2,
            loss_pct: 20,
            crashes: vec![Window {
                start_pct: 40,
                len_ms: 900,
            }],
            ..Scenario::minimal(17)
        };
        let outcome = check_scenario(&s).expect("crash scenario passes");
        assert!(outcome.crashes > 0, "the outage must actually crash");
        let formed = outcome.formed.expect("formation rides out the crash");
        assert!(
            formed.resumes + formed.restarts > 0,
            "wiped sessions must recover (resumes {}, restarts {})",
            formed.resumes,
            formed.restarts
        );
    }

    #[test]
    fn uncoverable_mana_cost_refuses_and_fails_formation() {
        // Capacity 0.5 < the 1-token call cost: the gate refuses every
        // start with a `u64::MAX` hint, the client fails fast, and the
        // formation aborts — a legitimate outcome every property still
        // holds on.
        let s = Scenario {
            parties: 3,
            mana: Some(ManaClause {
                capacity_milli: 500,
                refill_milli: 700,
            }),
            ..Scenario::minimal(19)
        };
        let outcome = check_scenario(&s).expect("gated scenario passes");
        assert!(outcome.refusals > 0, "an uncoverable cost must refuse");
        assert!(outcome.formed.is_err(), "no start admitted ⇒ no formation");
    }

    #[test]
    fn canary_flags_healthy_scenarios() {
        let err = check_scenario_canary(&Scenario::minimal(23), true)
            .expect_err("canary must fire on a forming scenario");
        assert_eq!(err.property, "canary");
    }
}
