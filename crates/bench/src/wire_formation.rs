//! E15's formation rounds over the wire path: an E10 world formed through
//! the TN service behind a seeded netsim transport, and the crash round,
//! whose outage opens right after a checkpoint so that it must force a
//! checkpointed resume.

use std::sync::{Arc, Mutex};
use trust_vo_netsim::{FaultPlan, NetSim};
use trust_vo_soa::simclock::{CostModel, SimClock, SimDuration};
use trust_vo_soa::{
    Body, CredentialExchangeResponse, Envelope, Fault, ServiceBus, ServiceEndpoint, TnService,
    Transport,
};
use trust_vo_store::Database;
use trust_vo_vo::mailbox::MailboxSystem;
use trust_vo_vo::{
    register_formation_parties, Formation, FormedVo, NegotiationSource, ReputationLedger,
    ServiceSource,
};

use crate::obsutil::ObsArgs;
use crate::workloads::{self, ParallelJoinWorld};

/// Everything a formation round produces that determinism must preserve.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// (provider, role, certificate serial) per member.
    pub members: Vec<(String, String, u64)>,
    /// Sim time at the end of the round.
    pub elapsed: SimDuration,
    /// Negotiations completed through the service.
    pub negotiations: u64,
    /// Transport-level call retries.
    pub retries: u64,
    /// Sessions resumed from a checkpoint, as the clients counted them.
    pub resumes: u64,
    /// Sessions restarted from phase 1.
    pub restarts: u64,
    /// Messages the netsim delivered.
    pub delivered: u64,
    /// Messages the netsim dropped.
    pub drops: u64,
    /// Duplicate deliveries answered from the reply cache.
    pub dedup_replays: u64,
    /// Resumes the service accepted.
    pub service_resumed: u64,
}

fn membership(vo: &FormedVo) -> Vec<(String, String, u64)> {
    vo.members()
        .iter()
        .map(|m| (m.provider.clone(), m.role.clone(), m.certificate.serial))
        .collect()
}

/// The TN service, noting the sim instant at which each
/// `CredentialExchange` reply carrying a resume token leaves it: a
/// checkpoint with disclosures still to run, taken while the client
/// holds a token for the same negotiation.
pub struct CheckpointProbe {
    service: Arc<TnService>,
    clock: SimClock,
    instants: Mutex<Vec<SimDuration>>,
}

impl CheckpointProbe {
    /// Register `service` on `bus` as `name`, behind a probe.
    pub fn register(bus: &ServiceBus, name: &str, service: Arc<TnService>) -> Arc<Self> {
        let probe = Arc::new(CheckpointProbe {
            service,
            clock: bus.clock().clone(),
            instants: Mutex::new(Vec::new()),
        });
        bus.register(name, probe.clone());
        probe
    }

    /// The checkpoint instants noted so far, in order.
    pub fn instants(&self) -> Vec<SimDuration> {
        self.instants.lock().expect("probe lock").clone()
    }
}

impl ServiceEndpoint for CheckpointProbe {
    fn handle(&self, request: &Envelope) -> Result<Envelope, Fault> {
        let reply = self.service.handle(request);
        let checkpointed = matches!(
            reply.as_ref().map(|r| &*r.body),
            Ok(Body::CredentialExchangeResponse(
                CredentialExchangeResponse { token: Some(_), .. }
            ))
        );
        if checkpointed {
            self.instants
                .lock()
                .expect("the probe never panics holding its lock")
                .push(self.clock.elapsed());
        }
        reply
    }

    fn operations(&self) -> Vec<String> {
        self.service.operations()
    }

    fn on_crash(&self) {
        self.service.on_crash();
    }
}

/// One netsim formation of `world` over the wire path, and the instants
/// of its mid-exchange checkpoints. `workers > 1` drives the sharded
/// parallel engine. When `obs` is given the round is driven serially and
/// its deterministic dumps written.
fn formation(
    world: &ParallelJoinWorld,
    plan: FaultPlan,
    seed: u64,
    workers: usize,
    obs: Option<&ObsArgs>,
) -> (Outcome, Vec<SimDuration>) {
    let clock = SimClock::new(CostModel::paper_testbed(), workloads::at());
    let collector = obs.map(|a| a.collector_for(&clock));
    let bus = ServiceBus::new(clock.clone());
    let svc = Arc::new(TnService::new(clock.clone(), Database::new()));
    register_formation_parties(&svc, &world.contract, &world.initiator, &world.providers);
    let probe = CheckpointProbe::register(&bus, "tn", svc.clone());
    let net = NetSim::new(bus, plan);

    let formed = Formation::new(
        &world.initiator,
        &world.providers,
        &world.registry,
        NegotiationSource::Service(ServiceSource::standard(&net, "tn", seed)),
    )
    .with_workers(workers)
    .run(
        world.contract.clone(),
        &mut MailboxSystem::new(),
        &mut ReputationLedger::new(),
    );
    let (vo, stats) = formed.expect("E15 formation completes over the wire");
    assert_eq!(vo.members().len(), world.contract.roles.len());

    if let (Some(args), Some(collector)) = (obs, collector.as_ref()) {
        args.dump_deterministic(collector);
        args.dump_trace_deterministic(collector);
    }

    let m = net.metrics();
    let outcome = Outcome {
        members: membership(&vo),
        elapsed: net.clock().elapsed(),
        negotiations: stats.negotiations,
        retries: stats.retries,
        resumes: stats.resumes,
        restarts: stats.restarts,
        delivered: m.delivered.get(),
        drops: m.drops.get(),
        dedup_replays: m.dedup_replays.get(),
        service_resumed: svc.resumed_count(),
    };
    (outcome, probe.instants())
}

/// Run one netsim formation of `world` over the wire path (see
/// [`crash_round`] for the crash variant).
pub fn run_formation(
    world: &ParallelJoinWorld,
    plan: FaultPlan,
    seed: u64,
    workers: usize,
    obs: Option<&ObsArgs>,
) -> Outcome {
    formation(world, plan, seed, workers, obs).0
}

/// The crash round's runs: the heavy-loss run it is anchored on, the
/// crashed run and its replay.
#[derive(Debug)]
pub struct CrashRound {
    /// The heavy-loss run without an outage.
    pub heavy: Outcome,
    /// Where the crashing outage opens.
    pub outage_start: SimDuration,
    /// The same plan with the crashing outage.
    pub crashed: Outcome,
    /// The crashed run again, which must replay it exactly.
    pub replay: Outcome,
}

/// Where a crash round's outage opens: one microsecond after the
/// mid-exchange checkpoint of the heavy-loss run (its `checkpoints`, as a
/// [`CheckpointProbe`] noted them) nearest 45 % of its `elapsed` time.
/// A run under the same plan plus the outage agrees with the heavy-loss
/// run until the window opens, so the client's next call lands in it
/// holding a token for a session with disclosures left: a crash there
/// wipes that session, and only a checkpointed resume can finish it.
pub fn outage_start(checkpoints: &[SimDuration], elapsed: SimDuration) -> SimDuration {
    let target = elapsed.0 * 45 / 100;
    let anchor = checkpoints
        .iter()
        .copied()
        .min_by_key(|t| t.0.abs_diff(target))
        .expect("the heavy-loss run checkpoints mid-exchange");
    anchor + SimDuration(1)
}

/// The crash round, serial (crash windows are only deterministic
/// serially): the heavy-loss run, then the same plan with a crashing
/// outage opening at [`outage_start`], twice.
pub fn crash_round(world: &ParallelJoinWorld, seed: u64) -> CrashRound {
    let heavy_plan = FaultPlan::lossy(seed, 0.20);
    let (heavy, checkpoints) = formation(world, heavy_plan.clone(), seed, 1, None);
    let outage_start = outage_start(&checkpoints, heavy.elapsed);
    let crash_plan = heavy_plan.outage(
        "tn",
        outage_start,
        outage_start + SimDuration::from_millis(1_200),
        true,
    );
    let crashed = run_formation(world, crash_plan.clone(), seed, 1, None);
    let replay = run_formation(world, crash_plan, seed, 1, None);
    CrashRound {
        heavy,
        outage_start,
        crashed,
        replay,
    }
}
