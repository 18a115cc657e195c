//! `tn_service`: the §3 Aircraft Optimization VO formed per op through
//! `vo::form_vo_resilient_admitted`, every trust negotiation crossing a
//! reliable wire-path `ServiceBus` with an `AdmissionGate`
//! (`ManaConfig::standard()`) to one journal-backed `TnService` that
//! lives for the whole timed loop.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use trust_vo_admission::{AdmissionGate, ManaConfig, ManaLedger};
use trust_vo_journal::Journal;
use trust_vo_negotiation::Strategy;
use trust_vo_netsim::rng::mix;
use trust_vo_obs::Collector;
use trust_vo_soa::simclock::{CostModel, SimClock};
use trust_vo_soa::{ResumePolicy, RetryPolicy, ServiceBus, TnService, Transport};
use trust_vo_store::Database;
use trust_vo_vo::mailbox::MailboxSystem;
use trust_vo_vo::scenario::{names, scenario_time};
use trust_vo_vo::{
    form_vo_resilient_admitted, register_formation_parties, AdmissionControl, AircraftScenario,
    Contract, FormationResilience, FormedVo, ReputationLedger, ServiceProvider, ServiceRegistry,
    VoError,
};

use crate::workload::{Op, Workload};
use crate::wrap::{TracedEndpoint, TracedGate, TracedTransport};

/// The service name the TN endpoint is registered under.
const SERVICE: &str = "tn";

/// Formations the service serves during set-up: the first fills the
/// verified-credential cache with the scenario's credentials, the rest
/// bring the allocator and the service's session map to their running
/// shape.
const WARMUP: u64 = 512;

/// The roles of the §3 contract, all of which every op must fill.
const ROLES: usize = 4;

/// The workload: the scenario's parties plus the long-lived service
/// stack every op calls through.
pub struct TnServiceWorkload {
    contract: Contract,
    initiator: ServiceProvider,
    providers: BTreeMap<String, ServiceProvider>,
    registry: ServiceRegistry,
    clock: SimClock,
    bus: ServiceBus,
    service: Arc<TnService>,
    gate: Arc<AdmissionGate>,
    journal: Arc<Journal>,
    seed: u64,
    traced: bool,
}

impl TnServiceWorkload {
    fn build(seed: u64) -> Self {
        let scenario = AircraftScenario::build();
        let initiator = scenario.provider(names::AIRCRAFT).clone();
        let clock = SimClock::new(CostModel::paper_testbed(), scenario_time());
        let bus = ServiceBus::new(clock.clone());
        let journal = Arc::new(Journal::in_memory());
        let db = Database::new();
        db.attach_journal(Arc::clone(&journal));
        let service = Arc::new(TnService::new(clock.clone(), db));
        register_formation_parties(
            &service,
            &scenario.contract,
            &initiator,
            &scenario.toolkit.providers,
        );
        bus.register(SERVICE, service.clone());
        let gate = Arc::new(AdmissionGate::new(
            Arc::new(ManaLedger::new(ManaConfig::standard())),
            clock.clone(),
        ));
        bus.set_gate(gate.clone());
        TnServiceWorkload {
            contract: scenario.contract.clone(),
            initiator,
            providers: scenario.toolkit.providers.clone(),
            registry: scenario.toolkit.registry.clone(),
            clock,
            bus,
            service,
            gate,
            journal,
            seed,
            traced: false,
        }
    }

    /// One formation through `transport`; the reputation ledger,
    /// admission control and mailboxes are fresh per op, so trust bands
    /// and candidate order cannot drift over the run.
    fn form<T: Transport + ?Sized>(
        &self,
        transport: &T,
        seed: u64,
    ) -> Result<(FormedVo, FormationResilience), VoError> {
        form_vo_resilient_admitted(
            self.contract.clone(),
            &self.initiator,
            &self.providers,
            &self.registry,
            &mut MailboxSystem::new(),
            &mut ReputationLedger::new(),
            transport,
            SERVICE,
            Strategy::Standard,
            &RetryPolicy::standard(),
            &ResumePolicy::standard(),
            seed,
            &AdmissionControl::default(),
        )
    }

    fn run(&self, seed: u64) -> Op {
        let sim_before = self.clock.elapsed();
        let started = Instant::now();
        let formed = if self.traced {
            self.form(&TracedTransport { inner: &self.bus }, seed)
        } else {
            self.form(&self.bus, seed)
        };
        let wall = started.elapsed();
        let mut op = Op {
            wall,
            ..Op::default()
        };
        let (vo, res) = match formed {
            Ok(formed) => formed,
            Err(e) => {
                op.failure = Some(e.to_string());
                return op;
            }
        };
        op.counts = vec![
            ("vo.sim_us", (self.clock.elapsed().0 - sim_before.0) as f64),
            ("soa.retries", res.retries as f64),
            ("soa.resumes", res.resumes as f64),
            ("soa.restarts", res.restarts as f64),
        ];
        op.negotiations = res.negotiations;
        op.failure = check(&self.contract, &vo, &res).err();
        op
    }
}

/// The op's output check: all four roles filled, and one completed
/// negotiation per admitted member.
fn check(contract: &Contract, vo: &FormedVo, res: &FormationResilience) -> Result<(), String> {
    if contract.roles.len() != ROLES {
        return Err(format!(
            "contract has {} roles, not {ROLES}",
            contract.roles.len()
        ));
    }
    for role in &contract.roles {
        if vo.member_for_role(&role.name).is_none() {
            return Err(format!("role {} unfilled", role.name));
        }
    }
    if res.negotiations != vo.members().len() as u64 {
        return Err(format!(
            "{} negotiations for {} admissions",
            res.negotiations,
            vo.members().len()
        ));
    }
    Ok(())
}

impl Workload for TnServiceWorkload {
    const ROUND: usize = 128;
    /// The service keeps every session and never compacts its journal,
    /// so resident memory grows by about 16 KiB per op: this rate keeps
    /// a 30 s run near 200 MiB, at the cost of a client busy only about
    /// an eighth of the window.
    const OPS_PER_S: usize = 384;
    const COUNT_OPS: usize = 256;

    fn setup(seed: u64, generation: u64) -> Result<Self, String> {
        let w = Self::build(seed);
        for j in 0..WARMUP {
            // Idempotency seeds: (seed, 1 + set-up) for warm-up, (seed, 0) for timed ops.
            if let Some(failure) = w.run(mix(&[seed, 1 + generation, j])).failure {
                return Err(format!("warm-up formation {j}: {failure}"));
            }
        }
        Ok(w)
    }

    fn trace_into(&mut self, collector: &Collector) {
        self.clock.attach_obs(collector);
        self.bus.set_gate(Arc::new(TracedGate {
            inner: self.gate.clone(),
            clock: self.clock.clone(),
        }));
        self.bus.register(
            SERVICE,
            Arc::new(TracedEndpoint {
                inner: self.service.clone(),
                clock: self.clock.clone(),
            }),
        );
        self.traced = true;
    }

    fn op(&mut self, i: u64) -> Op {
        self.run(mix(&[self.seed, 0, i]))
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let journal = self.journal.stats();
        vec![
            ("journal.bytes", journal.bytes_written),
            ("journal.records", journal.appends),
            ("store.ops", self.service.database().stats().operations),
        ]
    }
}
