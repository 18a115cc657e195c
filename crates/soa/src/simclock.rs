//! The simulated-latency clock.
//!
//! The paper's Fig. 9 numbers were measured on a 2006-era stack: a
//! Pentium 4 2 GHz running Tomcat + Axis SOAP + Oracle, with a Java GUI
//! driving the join. The dominant costs — SOAP marshalling and HTTP
//! round-trips, database queries, JSP page flows, certificate operations —
//! do not exist in an in-process Rust reproduction, so this module *charges*
//! them to a virtual clock instead. The constants in
//! [`CostModel::paper_testbed`] are calibrated so the regenerated Fig. 9
//! preserves the paper's shape: join ≈ 3 s, join-with-TN ≈ 4 s, standalone
//! TN ≈ 1 s (see `EXPERIMENTS.md` for the measured values).
//!
//! The clock also drives credential validity: [`SimClock::timestamp`]
//! converts the virtual instant into the [`Timestamp`] negotiations check
//! validity windows against.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use trust_vo_credential::Timestamp;
use trust_vo_obs::{Collector, Counter, Value};

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// As (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// As (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

// Saturating arithmetic throughout: a pathological cost model (u64::MAX
// per operation) must pin the clock at the end of time, not panic in
// debug builds mid-negotiation.
impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} ms", self.as_millis_f64())
    }
}

/// What kind of work is being charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostKind {
    /// One SOAP request/response round trip (marshalling + HTTP).
    SoapRoundTrip,
    /// One database query (policy/credential fetch or insert).
    DbQuery,
    /// Verifying one signature (credential or ownership proof).
    SignatureVerify,
    /// Producing one signature (membership certificate, ownership proof).
    SignatureSign,
    /// Evaluating one disclosure policy against a profile.
    PolicyEvaluation,
    /// Mapping one concept through the ontology engine.
    OntologyMapping,
    /// One GUI/JSP step of the VO toolkit's join flow.
    GuiStep,
    /// Issuing one X.509 membership certificate.
    CertificateIssue,
}

impl CostKind {
    /// All kinds, for report iteration.
    pub const ALL: [CostKind; 8] = [
        CostKind::SoapRoundTrip,
        CostKind::DbQuery,
        CostKind::SignatureVerify,
        CostKind::SignatureSign,
        CostKind::PolicyEvaluation,
        CostKind::OntologyMapping,
        CostKind::GuiStep,
        CostKind::CertificateIssue,
    ];

    /// Position of this kind in [`CostKind::ALL`] (fixed counter slot).
    fn slot(self) -> usize {
        match self {
            CostKind::SoapRoundTrip => 0,
            CostKind::DbQuery => 1,
            CostKind::SignatureVerify => 2,
            CostKind::SignatureSign => 3,
            CostKind::PolicyEvaluation => 4,
            CostKind::OntologyMapping => 5,
            CostKind::GuiStep => 6,
            CostKind::CertificateIssue => 7,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CostKind::SoapRoundTrip => "soap-roundtrip",
            CostKind::DbQuery => "db-query",
            CostKind::SignatureVerify => "signature-verify",
            CostKind::SignatureSign => "signature-sign",
            CostKind::PolicyEvaluation => "policy-evaluation",
            CostKind::OntologyMapping => "ontology-mapping",
            CostKind::GuiStep => "gui-step",
            CostKind::CertificateIssue => "certificate-issue",
        }
    }
}

/// Per-operation latencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    costs: BTreeMap<CostKind, SimDuration>,
}

impl CostModel {
    /// Latencies calibrated to the paper's testbed (P4 2 GHz, Tomcat +
    /// Axis + Oracle, 2006 LAN). These are the knobs that make the
    /// regenerated Fig. 9 match the paper's *shape*; absolute values are
    /// documented estimates, not measurements.
    pub fn paper_testbed() -> Self {
        let mut costs = BTreeMap::new();
        costs.insert(CostKind::SoapRoundTrip, SimDuration::from_millis(110));
        costs.insert(CostKind::DbQuery, SimDuration::from_millis(45));
        costs.insert(CostKind::SignatureVerify, SimDuration::from_millis(18));
        costs.insert(CostKind::SignatureSign, SimDuration::from_millis(25));
        costs.insert(CostKind::PolicyEvaluation, SimDuration::from_millis(6));
        costs.insert(CostKind::OntologyMapping, SimDuration::from_millis(12));
        costs.insert(CostKind::GuiStep, SimDuration::from_millis(430));
        costs.insert(CostKind::CertificateIssue, SimDuration::from_millis(40));
        CostModel { costs }
    }

    /// A zero-cost model (pure CPU measurement).
    pub fn free() -> Self {
        CostModel {
            costs: BTreeMap::new(),
        }
    }

    /// Override one latency.
    pub fn set(&mut self, kind: CostKind, cost: SimDuration) {
        self.costs.insert(kind, cost);
    }

    /// The latency of one operation.
    pub fn cost_of(&self, kind: CostKind) -> SimDuration {
        self.costs.get(&kind).copied().unwrap_or(SimDuration::ZERO)
    }
}

/// Lock-free clock state: total elapsed microseconds plus one counter
/// slot per [`CostKind`]. Charging from many admission threads is a pair
/// of relaxed `fetch_add`s — no mutex, no contention-induced serialization
/// of the parallel formation fan-out.
#[derive(Debug, Default)]
struct ClockState {
    elapsed_micros: AtomicU64,
    counts: [AtomicU64; 8],
}

/// Observability hooks for a clock: the collector plus one pre-fetched
/// counter handle per [`CostKind`], so charging never touches the
/// registry lock.
#[derive(Debug)]
struct ClockObs {
    collector: Collector,
    charge_counters: [Counter; 8],
}

/// A shareable simulated clock: charge operations, read elapsed time.
#[derive(Debug, Clone)]
pub struct SimClock {
    model: Arc<CostModel>,
    state: Arc<ClockState>,
    /// The virtual calendar instant at elapsed == 0.
    epoch: Timestamp,
    /// Shared across clones so attaching after cloning (the usual order:
    /// scenario builders clone the clock into every service first) still
    /// observes charges from every holder.
    obs: Arc<OnceLock<ClockObs>>,
}

impl SimClock {
    /// A clock with the given model, starting at `epoch`.
    pub fn new(model: CostModel, epoch: Timestamp) -> Self {
        SimClock {
            model: Arc::new(model),
            state: Arc::new(ClockState::default()),
            epoch,
            obs: Arc::new(OnceLock::new()),
        }
    }

    /// Attaches an observability collector to this clock (and all its
    /// clones, past and future). The collector's simulated-time source is
    /// pointed at this clock, per-kind `sim.charge.*` counters are
    /// registered, and every subsequent charge emits a `sim.charge` event
    /// tagged by cost category. No-op for a disabled collector; the first
    /// attachment wins.
    pub fn attach_obs(&self, collector: &Collector) {
        let Some(registry) = collector.registry() else {
            return;
        };
        let state = Arc::clone(&self.state);
        collector.set_sim_source(move || state.elapsed_micros.load(Ordering::Relaxed));
        let charge_counters =
            CostKind::ALL.map(|kind| registry.counter(&format!("sim.charge.{}", kind.label())));
        let _ = self.obs.set(ClockObs {
            collector: collector.clone(),
            charge_counters,
        });
    }

    /// The collector attached via [`SimClock::attach_obs`], or a disabled
    /// one. Subsystems holding a clock clone use this as their
    /// observability sink.
    pub fn collector(&self) -> Collector {
        self.obs
            .get()
            .map(|o| o.collector.clone())
            .unwrap_or_else(Collector::disabled)
    }

    /// A paper-testbed clock starting at the paper's credential epoch.
    pub fn paper_default() -> Self {
        Self::new(
            CostModel::paper_testbed(),
            Timestamp::from_ymd_hms(2009, 10, 26, 21, 32, 52),
        )
    }

    /// Charge one operation.
    pub fn charge(&self, kind: CostKind) {
        self.charge_n(kind, 1);
    }

    /// Charge `n` operations of one kind (lock-free).
    pub fn charge_n(&self, kind: CostKind, n: u64) {
        if n == 0 {
            return;
        }
        let cost = self.model.cost_of(kind) * n;
        self.state
            .elapsed_micros
            .fetch_add(cost.0, Ordering::Relaxed);
        self.state.counts[kind.slot()].fetch_add(n, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.charge_counters[kind.slot()].add(n);
            obs.collector.event(
                "sim.charge",
                vec![
                    ("kind".to_string(), Value::Str(kind.label().to_string())),
                    ("n".to_string(), Value::I64(n as i64)),
                    ("cost_us".to_string(), Value::I64(cost.0 as i64)),
                ],
            );
        }
    }

    /// Total simulated time elapsed.
    pub fn elapsed(&self) -> SimDuration {
        SimDuration(self.state.elapsed_micros.load(Ordering::Relaxed))
    }

    /// The current virtual calendar instant.
    pub fn timestamp(&self) -> Timestamp {
        self.epoch.plus_seconds(self.elapsed().as_secs_f64() as i64)
    }

    /// Operation counts by kind (only kinds charged at least once).
    pub fn counts(&self) -> BTreeMap<CostKind, u64> {
        CostKind::ALL
            .into_iter()
            .filter_map(|kind| {
                let n = self.state.counts[kind.slot()].load(Ordering::Relaxed);
                (n > 0).then_some((kind, n))
            })
            .collect()
    }

    /// Reset elapsed time and counters (a fresh measurement run).
    pub fn reset(&self) {
        self.state.elapsed_micros.store(0, Ordering::Relaxed);
        for slot in &self.state.counts {
            slot.store(0, Ordering::Relaxed);
        }
    }

    /// Advance the virtual calendar without charging an operation (used by
    /// the VO operation phase to let months pass so certificates expire).
    pub fn advance(&self, duration: SimDuration) {
        self.state
            .elapsed_micros
            .fetch_add(duration.0, Ordering::Relaxed);
    }

    /// The cost model in effect.
    pub fn model(&self) -> &CostModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let clock = SimClock::new(CostModel::paper_testbed(), Timestamp(0));
        clock.charge(CostKind::SoapRoundTrip);
        clock.charge_n(CostKind::DbQuery, 2);
        assert_eq!(clock.elapsed(), SimDuration::from_millis(110 + 90));
        let counts = clock.counts();
        assert_eq!(counts[&CostKind::SoapRoundTrip], 1);
        assert_eq!(counts[&CostKind::DbQuery], 2);
    }

    #[test]
    fn free_model_charges_nothing() {
        let clock = SimClock::new(CostModel::free(), Timestamp(0));
        clock.charge_n(CostKind::GuiStep, 100);
        assert_eq!(clock.elapsed(), SimDuration::ZERO);
        assert_eq!(clock.counts()[&CostKind::GuiStep], 100);
    }

    #[test]
    fn timestamp_advances_with_elapsed() {
        let clock = SimClock::new(CostModel::paper_testbed(), Timestamp(1000));
        assert_eq!(clock.timestamp(), Timestamp(1000));
        clock.advance(SimDuration::from_millis(2500));
        assert_eq!(clock.timestamp(), Timestamp(1002));
    }

    #[test]
    fn reset_clears_state() {
        let clock = SimClock::paper_default();
        clock.charge(CostKind::GuiStep);
        clock.reset();
        assert_eq!(clock.elapsed(), SimDuration::ZERO);
        assert!(clock.counts().is_empty());
    }

    #[test]
    fn clones_share_state() {
        let clock = SimClock::paper_default();
        let clone = clock.clone();
        clone.charge(CostKind::DbQuery);
        assert_eq!(clock.counts()[&CostKind::DbQuery], 1);
    }

    #[test]
    fn concurrent_charges_lose_nothing() {
        let clock = SimClock::new(CostModel::paper_testbed(), Timestamp(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let clock = clock.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        clock.charge(CostKind::PolicyEvaluation);
                    }
                });
            }
        });
        assert_eq!(clock.counts()[&CostKind::PolicyEvaluation], 8000);
        assert_eq!(clock.elapsed(), SimDuration::from_millis(6) * 8000);
    }

    #[test]
    fn duration_arithmetic_and_display() {
        let d = SimDuration::from_millis(1) + SimDuration::from_micros(500);
        assert_eq!(d.as_millis_f64(), 1.5);
        assert_eq!(d.to_string(), "1.5 ms");
        assert_eq!((SimDuration::from_millis(2) * 3).as_millis_f64(), 6.0);
        assert!((SimDuration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_arithmetic_saturates_instead_of_panicking() {
        // Regression: Add/AddAssign/Mul used unchecked arithmetic, so a
        // pathological cost model overflowed (panicking in debug builds).
        let max = SimDuration(u64::MAX);
        assert_eq!(max + SimDuration::from_millis(1), max);
        let mut acc = SimDuration(u64::MAX - 1);
        acc += SimDuration::from_micros(5);
        assert_eq!(acc, max);
        assert_eq!(max * 3, max);
        assert_eq!(SimDuration(u64::MAX / 2 + 1) * 2, max);

        // A clock driven by such a model pins at the end of time too.
        let mut model = CostModel::free();
        model.set(CostKind::DbQuery, max);
        let clock = SimClock::new(model, Timestamp(0));
        clock.charge_n(CostKind::DbQuery, 7);
        assert_eq!(clock.counts()[&CostKind::DbQuery], 7);
    }

    #[test]
    fn attached_collector_sees_charges_from_every_clone() {
        let clock = SimClock::paper_default();
        let clone = clock.clone(); // cloned before attach
        let collector = Collector::new();
        clock.attach_obs(&collector);
        clone.charge_n(CostKind::DbQuery, 3);
        clone.charge(CostKind::SoapRoundTrip);
        let snap = collector.metrics();
        assert_eq!(snap.counter("sim.charge.db-query"), 3);
        assert_eq!(snap.counter("sim.charge.soap-roundtrip"), 1);
        // Sim-time source reports the clock's elapsed micros.
        assert_eq!(collector.sim_now(), clock.elapsed().0);
        // Events carry the cost category.
        let events = collector.records();
        assert_eq!(events.len(), 2);
        // Clock clones all report the same attached collector.
        assert!(clone.collector().is_enabled());
    }

    #[test]
    fn unattached_clock_reports_disabled_collector() {
        let clock = SimClock::paper_default();
        assert!(!clock.collector().is_enabled());
        clock.attach_obs(&Collector::disabled());
        assert!(!clock.collector().is_enabled());
    }

    #[test]
    fn paper_testbed_covers_all_kinds() {
        let model = CostModel::paper_testbed();
        for kind in CostKind::ALL {
            assert!(model.cost_of(kind) > SimDuration::ZERO, "{}", kind.label());
        }
    }
}
