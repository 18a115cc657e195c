//! Admission control for formation: reputation-gated strategy selection
//! and queue priority over the standard Formation decision procedure.
//!
//! The paper's reputation is write-only — scores move during formation and
//! operation but influence nothing at admission time. A
//! [`Formation`](crate::Formation) whose `admission` field holds an
//! [`AdmissionControl`] closes the loop with the `trust-vo-admission`
//! crate:
//!
//! * the coordinator snapshots every candidate's score from a shared
//!   [`ScoringEngine`] at formation start, maps it through [`BandConfig`]
//!   to a trust band, and negotiates each candidate with the band's
//!   `negotiation::Strategy` (trusting ↔ standard ↔ suspicious ↔
//!   strong-suspicious);
//! * candidates are attempted in admission-queue order — trust band first,
//!   then score-weighted advertised quality — instead of the plain
//!   quality × reputation ranking;
//! * every attempt outcome feeds back into the engine: TN success,
//!   failed TN, declined invitation (abandonment), and — through the TN
//!   service — netsim-injected fault timeouts.
//!
//! The snapshot is taken once, before any attempt: a parallel formation
//! speculates negotiations *before* the serial replay runs, so
//! per-candidate strategies must not depend on outcomes recorded
//! mid-formation. This is what keeps serial, parallel, and
//! journal-resumed runs byte-identical. Without admission control
//! (`admission: None`) none of this runs: no scoring reads, no engine
//! writes, no extra obs.

use std::collections::BTreeMap;
use std::sync::Arc;

use trust_vo_admission::{BandConfig, Outcome, QueueKey, ScoringConfig, ScoringEngine, TrustBand};
use trust_vo_negotiation::Strategy;
use trust_vo_soa::simclock::{SimClock, SimDuration};

use crate::member::ServiceProvider;
use crate::reputation::ReputationLedger;

/// The coordinator-side admission state: a shared scoring engine plus the
/// band thresholds mapping scores to strategies and queue priorities.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    engine: Arc<ScoringEngine>,
    bands: BandConfig,
}

impl AdmissionControl {
    /// Admission control over an existing engine.
    pub fn new(engine: Arc<ScoringEngine>, bands: BandConfig) -> Self {
        AdmissionControl { engine, bands }
    }

    /// The shared scoring engine.
    pub fn engine(&self) -> &Arc<ScoringEngine> {
        &self.engine
    }

    /// The band thresholds.
    pub fn bands(&self) -> &BandConfig {
        &self.bands
    }

    /// Seed the engine from the paper's [`ReputationLedger`] — the
    /// pluggable-over-the-ledger path: a toolkit that has been tracking
    /// reputation the §5.1 way can hand its scores to admission control
    /// without replaying its history.
    pub fn seed_from_ledger(&self, ledger: &ReputationLedger, now: SimDuration) {
        self.engine.seed(ledger.snapshot(), now);
    }

    /// The trust band `party`'s score (as of sim-time `now`) lands in.
    pub fn band_for(&self, party: &str, now: SimDuration) -> TrustBand {
        self.bands.band_for(self.engine.score(party, now))
    }

    /// The banded negotiation strategy for `party` as of sim-time `now`.
    pub fn strategy_for(&self, party: &str, now: SimDuration) -> Strategy {
        self.band_for(party, now).strategy()
    }
}

impl Default for AdmissionControl {
    /// A fresh engine with [`ScoringConfig::paper_defaults`] under
    /// [`BandConfig::paper_defaults`].
    fn default() -> Self {
        AdmissionControl::new(
            Arc::new(ScoringEngine::new(ScoringConfig::paper_defaults())),
            BandConfig::paper_defaults(),
        )
    }
}

/// A formation-start snapshot of every candidate's score, band-derived
/// strategy, and queue weight, plus the engine handle for outcome
/// feedback.
///
/// Snapshotting (rather than reading the engine per attempt) is what makes
/// parallel formation deterministic: speculation picks each candidate's
/// strategy before the serial replay records any outcome, so both phases
/// must read the same pre-formation scores.
pub(crate) struct AdmissionHooks<'a> {
    engine: &'a ScoringEngine,
    bands: BandConfig,
    strategies: BTreeMap<String, Strategy>,
    scores: BTreeMap<String, f64>,
    fallback: Strategy,
}

impl<'a> AdmissionHooks<'a> {
    /// Snapshot scores for every registered provider at sim-time `now`.
    pub(crate) fn snapshot(
        control: &'a AdmissionControl,
        providers: &BTreeMap<String, ServiceProvider>,
        fallback: Strategy,
        now: SimDuration,
    ) -> Self {
        let mut strategies = BTreeMap::new();
        let mut scores = BTreeMap::new();
        for name in providers.keys() {
            let score = control.engine.score(name, now);
            scores.insert(name.clone(), score);
            strategies.insert(name.clone(), control.bands.strategy_for(score));
        }
        AdmissionHooks {
            engine: &control.engine,
            bands: control.bands,
            strategies,
            scores,
            fallback,
        }
    }

    /// The snapshotted banded strategy for a candidate. Parties outside
    /// the snapshot (never the case for registered providers) negotiate
    /// with the fallback.
    pub(crate) fn strategy_for(&self, party: &str) -> Strategy {
        self.strategies.get(party).copied().unwrap_or(self.fallback)
    }

    /// The admission-queue key for a candidate: snapshot band first, then
    /// descending `quality × score`, party name as the tiebreak.
    pub(crate) fn queue_key(&self, party: &str, quality: f64) -> QueueKey {
        let score = self
            .scores
            .get(party)
            .copied()
            .unwrap_or(self.engine.config().prior);
        QueueKey::new(self.bands.band_for(score), quality * score, party)
    }

    /// Feed an attempt's outcome — TN success, failed TN, declined
    /// invitation (abandonment), transport fault-timeout — into the
    /// engine at the clock's current sim-time.
    pub(crate) fn record(&self, party: &str, outcome: Outcome, clock: &SimClock) {
        self.engine.record(party, outcome, clock.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::VoError;
    use crate::form_vo_resilient_admitted;
    use crate::formation::testworld::{clock, member_summary, world, DeadNet};
    use crate::mailbox::MailboxSystem;
    use trust_vo_journal::Journal;
    use trust_vo_soa::{ResumePolicy, RetryPolicy, Transport};

    #[test]
    fn control_maps_scores_to_bands_and_strategies() {
        let control = AdmissionControl::default();
        let now = SimDuration::ZERO;
        // Unknown parties sit at the prior: Standard.
        assert_eq!(control.strategy_for("Ghost", now), Strategy::Standard);
        control
            .engine()
            .seed([("Saint", 0.9), ("Crook", 0.05)], now);
        assert_eq!(control.band_for("Saint", now), TrustBand::Trusting);
        assert_eq!(control.strategy_for("Saint", now), Strategy::Trusting);
        assert_eq!(
            control.strategy_for("Crook", now),
            Strategy::StrongSuspicious
        );
    }

    #[test]
    fn seeding_from_the_ledger_reuses_its_scores() {
        let mut ledger = ReputationLedger::new();
        ledger.record_violation("Shady Co");
        ledger.record_success("Aerospace");
        let control = AdmissionControl::default();
        control.seed_from_ledger(&ledger, SimDuration::ZERO);
        assert_eq!(
            control.engine().score("Shady Co", SimDuration::ZERO),
            ledger.get("Shady Co")
        );
        // One violation from the prior: 0.3, the Suspicious band.
        assert_eq!(
            control.band_for("Shady Co", SimDuration::ZERO),
            TrustBand::Suspicious
        );
    }

    #[test]
    fn admitted_formation_with_fresh_engine_matches_plain() {
        // Every candidate sits at the prior (Standard band ⇒ the same
        // Standard strategy; equal scores ⇒ the same quality ordering), so
        // the admitted formation must reproduce the plain one exactly.
        let w = world();

        let plain_clock = clock();
        let (plain, _) = w
            .in_process(&plain_clock)
            .run(
                w.contract.clone(),
                &mut MailboxSystem::new(),
                &mut ReputationLedger::new(),
            )
            .unwrap();

        // Differs from plain in the admission field alone.
        let admitted_clock = clock();
        let control = AdmissionControl::default();
        let (admitted, _) = w
            .in_process(&admitted_clock)
            .with_admission(Some(&control))
            .run(
                w.contract.clone(),
                &mut MailboxSystem::new(),
                &mut ReputationLedger::new(),
            )
            .unwrap();

        assert_eq!(member_summary(&plain), member_summary(&admitted));
        assert_eq!(plain_clock.elapsed(), admitted_clock.elapsed());
        // The faulty join fed the engine: Shady Co failed, Aerospace won.
        assert_eq!(control.engine().events_for("Shady Co"), 1);
        assert_eq!(control.engine().events_for("Aerospace"), 1);
        assert!(control.engine().score("Shady Co", admitted_clock.elapsed()) < 0.5);
        assert!(
            control
                .engine()
                .score("Aerospace", admitted_clock.elapsed())
                > 0.5
        );
    }

    #[test]
    fn low_scored_party_is_demoted_in_the_admission_queue() {
        // Shady Co advertises the higher quality, but its near-floor score
        // drops it to the StrongSuspicious band — so Aerospace is tried
        // (and admitted) first and Shady Co is never negotiated at all.
        let w = world();
        let control = AdmissionControl::default();
        control
            .engine()
            .seed([("Shady Co", 0.05)], SimDuration::ZERO);
        let clock = clock();
        let mut reputation = ReputationLedger::new();
        let (vo, _) = w
            .in_process(&clock)
            .with_admission(Some(&control))
            .run(
                w.contract.clone(),
                &mut MailboxSystem::new(),
                &mut reputation,
            )
            .unwrap();
        assert!(vo.is_member("Aerospace"));
        // Never attempted: no ledger movement, no engine events.
        assert_eq!(reputation.get("Shady Co"), 0.5);
        assert_eq!(control.engine().events_for("Shady Co"), 0);
    }

    #[test]
    fn serial_parallel_and_resumed_scores_agree_after_faulty_join() {
        let w = world();

        // Serial, with a journal capturing every score mutation.
        let journal = Arc::new(Journal::in_memory());
        let serial_control = AdmissionControl::default();
        serial_control.engine().attach_journal(journal.clone());
        let serial_clock = clock();
        let mut serial_rep = ReputationLedger::new();
        let (serial, _) = w
            .in_process(&serial_clock)
            .with_admission(Some(&serial_control))
            .run(
                w.contract.clone(),
                &mut MailboxSystem::new(),
                &mut serial_rep,
            )
            .unwrap();

        // Parallel, fresh engine: differs from serial in the worker count.
        let parallel_control = AdmissionControl::default();
        let parallel_clock = clock();
        let mut parallel_rep = ReputationLedger::new();
        let (parallel, _) = w
            .in_process(&parallel_clock)
            .with_admission(Some(&parallel_control))
            .with_workers(4)
            .run(
                w.contract.clone(),
                &mut MailboxSystem::new(),
                &mut parallel_rep,
            )
            .unwrap();

        assert_eq!(member_summary(&serial), member_summary(&parallel));
        assert_eq!(serial_clock.elapsed(), parallel_clock.elapsed());
        assert_eq!(serial_rep, parallel_rep);
        assert_eq!(
            serial_control.engine().snapshot(),
            parallel_control.engine().snapshot()
        );

        // Resumed: replay the journal into a fresh engine — bit-identical
        // scores, and the same events.
        let replay = journal.replay();
        assert!(!replay.truncated);
        let resumed = AdmissionControl::default();
        resumed.engine().restore_from_facts(&replay.facts);
        assert_eq!(
            resumed.engine().snapshot(),
            serial_control.engine().snapshot()
        );
        assert_eq!(
            resumed.engine().events_for("Shady Co"),
            serial_control.engine().events_for("Shady Co")
        );
        assert_eq!(
            resumed.engine().events_for("Aerospace"),
            serial_control.engine().events_for("Aerospace")
        );
    }

    #[test]
    fn declined_invitation_is_scored_as_abandonment() {
        let mut w = world();
        w.aerospace_declines();
        let control = AdmissionControl::default();
        let clock = clock();
        let err = w
            .in_process(&clock)
            .with_admission(Some(&control))
            .run(
                w.contract.clone(),
                &mut MailboxSystem::new(),
                &mut ReputationLedger::new(),
            )
            .unwrap_err();
        assert!(matches!(err, VoError::RoleUnfilled { .. }));
        // The decliner was scored down by the abandonment delta; the
        // paper's ledger (which has no such outcome) never saw it.
        let now = clock.elapsed();
        assert!(
            (control.engine().score("Aerospace", now)
                - (0.5 + control.engine().config().abandonment_delta))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn transport_exhaustion_is_scored_as_fault_timeout() {
        let w = world();
        let control = AdmissionControl::default();
        let net = DeadNet(clock());
        let err = form_vo_resilient_admitted(
            w.contract.clone(),
            &w.initiator,
            &w.providers,
            &w.registry,
            &mut MailboxSystem::new(),
            &mut ReputationLedger::new(),
            &net,
            "tn",
            Strategy::Standard,
            &RetryPolicy::none(),
            &ResumePolicy::none(),
            1,
            &control,
        )
        .unwrap_err();
        assert!(matches!(err, VoError::Transport(_)), "got {err:?}");
        // The first queued candidate (Shady Co: higher quality, same
        // Standard band) took the fault-timeout hit before the abort.
        let now = net.clock().elapsed();
        assert!(
            (control.engine().score("Shady Co", now)
                - (0.5 + control.engine().config().fault_timeout_delta))
                .abs()
                < 1e-12
        );
        assert_eq!(control.engine().events_for("Shady Co"), 1);
    }
}
