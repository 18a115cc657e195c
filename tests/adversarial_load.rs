//! End-to-end adversarial-load integration (E14): one flooding identity
//! cannot starve other parties' negotiations.
//!
//! A mana-gated `ServiceBus` behind the netsim fault injector carries an
//! honest resilient VO formation while "FloodCo" fires bogus
//! `StartNegotiation` calls interleaved with every honest call. The gate
//! must refuse the flood with typed `budget_exhausted` faults (free of
//! simulated cost), the honest formation must fill every role, and its
//! sim time must stay within the E14 bound of the flood-free baseline —
//! whereas the same flood on an ungated bus visibly delays it. Without
//! admission control and gate, a formation is the pre-admission baseline:
//! silent, and identical to one under a fresh, neutral engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trust_vo::admission::{AdmissionGate, ManaConfig, ManaLedger};
use trust_vo::negotiation::Strategy;
use trust_vo::netsim::{FaultPlan, NetSim};
use trust_vo::obs::{Collector, Record};
use trust_vo::soa::simclock::{CostModel, SimClock, SimDuration};
use trust_vo::soa::{Body, Envelope, Fault, ServiceBus, StartNegotiation, TnService, Transport};
use trust_vo::store::Database;
use trust_vo::vo::mailbox::MailboxSystem;
use trust_vo::vo::{
    register_formation_parties, AdmissionControl, Formation, FormationResilience,
    NegotiationSource, ReputationLedger, ServiceSource,
};

const SEED: u64 = 7;
const FLOODER: &str = "FloodCo";

/// Fires `per_call` bogus starts from the flooder before forwarding each
/// honest call, counting how each one fared at the gate.
struct FloodingNet<'a> {
    net: &'a NetSim,
    per_call: usize,
    counter: AtomicU64,
    admitted: AtomicU64,
    refused: AtomicU64,
}

impl Transport for FloodingNet<'_> {
    fn call(&self, service: &str, request: &Envelope) -> Result<Envelope, Fault> {
        for _ in 0..self.per_call {
            let i = self.counter.fetch_add(1, Ordering::SeqCst);
            let env = Envelope::new(Body::StartNegotiation(StartNegotiation {
                strategy: Strategy::Standard,
                requester: FLOODER.into(),
                controller: "tn".into(),
                resource: "VoMembership".into(),
                resumable: false,
            }))
            .with_idempotency(0xF100_D000_0000_0000 | i);
            match self.net.call("tn", &env) {
                Err(f) if f.is_budget_exhausted() => {
                    assert_eq!(f.retry_after_us.map(|us| us > 0), Some(true));
                    self.refused.fetch_add(1, Ordering::SeqCst);
                }
                _ => {
                    self.admitted.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        self.net.call(service, request)
    }

    fn clock(&self) -> &SimClock {
        self.net.clock()
    }
}

/// Run the E10 batch-admission world over a (possibly gated) bus with
/// `per_call` flood starts per honest call. Returns the total sim time
/// and the flood's (admitted, refused) tally.
fn run(gated: bool, per_call: usize) -> (SimDuration, u64, u64) {
    let world = trust_vo_bench::workloads::parallel_join_world(3, 3, 2);
    let clock = SimClock::new(CostModel::paper_testbed(), trust_vo_bench::workloads::at());
    let bus = ServiceBus::new(clock.clone());
    let svc = Arc::new(TnService::new(clock.clone(), Database::new()));
    register_formation_parties(&svc, &world.contract, &world.initiator, &world.providers);
    bus.register("tn", svc);
    if gated {
        // A tight budget: a 4-start burst, then a trickle — honest
        // parties (one start per role) never graze it, the flood drowns.
        let mana = Arc::new(ManaLedger::new(ManaConfig {
            capacity: 4.0,
            refill_per_sec: 0.25,
            cost_per_call: 1.0,
        }));
        bus.set_gate(Arc::new(AdmissionGate::new(mana, bus.clock().clone())));
    }
    let net = NetSim::new(bus, FaultPlan::reliable(SEED));
    let flood = FloodingNet {
        net: &net,
        per_call,
        counter: AtomicU64::new(0),
        admitted: AtomicU64::new(0),
        refused: AtomicU64::new(0),
    };

    let admission = AdmissionControl::default();
    let (vo, _stats) = Formation::new(
        &world.initiator,
        &world.providers,
        &world.registry,
        NegotiationSource::Service(ServiceSource::standard(&flood, "tn", SEED)),
    )
    .with_admission(Some(&admission))
    .run(
        world.contract.clone(),
        &mut MailboxSystem::new(),
        &mut ReputationLedger::new(),
    )
    .expect("honest formation completes under flood");
    assert_eq!(
        vo.members().len(),
        world.contract.roles.len(),
        "the flood must not cost any honest party its seat"
    );
    (
        net.clock().elapsed(),
        flood.admitted.load(Ordering::SeqCst),
        flood.refused.load(Ordering::SeqCst),
    )
}

#[test]
fn flooding_identity_cannot_starve_honest_parties() {
    let (baseline, _, _) = run(true, 0);
    let (flooded, admitted, refused) = run(true, 3);
    // The flood hit the budget wall: most of it was refused, for free.
    assert!(refused > 0, "the gate must refuse the flood");
    assert!(
        admitted < refused,
        "most of the flood must be refused ({admitted} admitted, {refused} refused)"
    );
    // Honest sim time stays within the E14 bound of the flood-free run.
    assert!(
        flooded.0 as f64 <= baseline.0 as f64 * 1.25,
        "budgets must keep honest latency within 25% of flood-free \
         (flooded {flooded:?} vs baseline {baseline:?})"
    );
    // The same flood without budgets pays a round trip per bogus start
    // and delays the honest formation past what the gate ever allows.
    let (unthrottled, open_admitted, open_refused) = run(false, 3);
    assert_eq!(open_refused, 0, "an ungated bus refuses nothing");
    assert!(open_admitted > admitted);
    assert!(
        unthrottled > flooded,
        "the gate must beat the open bus under the same flood \
         ({unthrottled:?} vs {flooded:?})"
    );
}

/// What a formation over a lossy, ungated bus leaves behind.
struct Ungated {
    members: Vec<(String, String, u64)>,
    elapsed: SimDuration,
    stats: FormationResilience,
    collector: Collector,
}

/// Form the E10 batch world through the TN service behind a 20%-lossy
/// netsim on an ungated bus, observed, under `admission` (whose engine
/// reports to the same collector).
fn ungated(admission: Option<&AdmissionControl>) -> Ungated {
    let world = trust_vo_bench::workloads::parallel_join_world(3, 3, 2);
    let clock = SimClock::new(CostModel::paper_testbed(), trust_vo_bench::workloads::at());
    let collector = Collector::new();
    clock.attach_obs(&collector);
    if let Some(control) = admission {
        control.engine().attach_obs(&collector);
    }
    let bus = ServiceBus::new(clock.clone());
    let svc = Arc::new(TnService::new(clock, Database::new()));
    register_formation_parties(&svc, &world.contract, &world.initiator, &world.providers);
    bus.register("tn", svc);
    let net = NetSim::new(bus, FaultPlan::lossy(SEED, 0.2));
    let (vo, stats) = Formation::new(
        &world.initiator,
        &world.providers,
        &world.registry,
        NegotiationSource::Service(ServiceSource::standard(&net, "tn", SEED)),
    )
    .with_admission(admission)
    .run(
        world.contract.clone(),
        &mut MailboxSystem::new(),
        &mut ReputationLedger::new(),
    )
    .expect("formation survives 20% loss");
    Ungated {
        members: vo
            .members()
            .iter()
            .map(|m| (m.provider.clone(), m.role.clone(), m.certificate.serial))
            .collect(),
        elapsed: net.clock().elapsed(),
        stats,
        collector,
    }
}

/// Every span, event and metric record the admission layer owns.
fn admission_records(collector: &Collector) -> Vec<String> {
    collector
        .export_records(true)
        .into_iter()
        .map(|record| match record {
            Record::Span(s) => s.name,
            Record::Event(e) => e.name,
            Record::Counter { name, .. } | Record::Gauge { name, .. } => name,
            Record::Histogram(h) => h.name,
        })
        .filter(|name| name.starts_with("admission.") || name.starts_with("mana."))
        .collect()
}

#[test]
fn no_admission_is_the_silent_ungated_baseline() {
    let plain = ungated(None);
    assert!(
        plain.stats.retries > 0,
        "20% loss should force at least one retry"
    );
    assert_eq!(
        admission_records(&plain.collector),
        Vec::<String>::new(),
        "a formation without admission control must not touch the admission layer"
    );

    // A fresh engine scores everyone at the prior: one Standard band, the
    // plain quality order, the plain strategy — so the same formation.
    let control = AdmissionControl::default();
    let admitted = ungated(Some(&control));
    assert_eq!(plain.members, admitted.members);
    assert_eq!(plain.elapsed, admitted.elapsed);
    assert_eq!(plain.stats, admitted.stats);
    // The probe is live: the admitted run's engine reported its outcomes.
    assert!(!admission_records(&admitted.collector).is_empty());
}
