//! E11 — formation over a faulty transport: loss sweep + crash/resume.
//!
//! Drives a `Formation` through the TN service (serial and parallel)
//! behind the `trust-vo-netsim` fault injector at 0 / 1 / 5 / 20 %
//! per-direction message loss, and once more at 20 % loss with a
//! crash outage dropped mid-run so at least one negotiation must resume
//! from its durable checkpoint. Everything is simulated time on a
//! paper-calibrated clock; the whole sweep is a pure function of
//! `--seed`, which this harness proves by replaying the loss rows and
//! asserting identical outcomes.
//!
//! Checks built into the run:
//!
//! * every row completes — at 20 % loss each admission still lands via
//!   retry/backoff (and, in the crash row, checkpointed resume);
//! * serial and parallel admit identical members, burn identical sim
//!   time, and report identical recovery counters at every loss rate;
//! * the 0 % row is a strict pass-through: outcome, sim time, and
//!   recovery counters equal a run on the bare `ServiceBus`, with zero
//!   injected faults;
//! * the crash row observes `negotiation.resumed > 0` on the TN service.
//!
//! `--smoke --seed 42 --emit-obs <path>` is the CI chaos smoke: a tiny
//! world, with the dump scrubbed of wall-clock fields so two runs are
//! byte-identical. `--emit-trace <path>` additionally writes the crash
//! row's span tree as deterministic Perfetto/Chrome trace-event JSON;
//! any observed run also gates on the critical-path analyzer attributing
//! ≥ 95% of each formation root's simulated time.

use std::sync::Arc;
use trust_vo_bench::obsutil::{verify_attribution, ObsArgs};
use trust_vo_bench::report::Report;
use trust_vo_bench::wire_formation::{outage_start, CheckpointProbe};
use trust_vo_bench::workloads::{self, ParallelJoinWorld};
use trust_vo_netsim::{FaultPlan, NetSim};
use trust_vo_soa::simclock::{CostModel, SimClock, SimDuration};
use trust_vo_soa::{ServiceBus, TnService, Transport};
use trust_vo_store::Database;
use trust_vo_vo::mailbox::MailboxSystem;
use trust_vo_vo::{
    register_formation_parties, Formation, FormedVo, NegotiationSource, ReputationLedger,
    ServiceSource,
};

const DEFAULT_SEED: u64 = 9;
const WORKERS: usize = 4;

/// Everything a case produces that determinism must preserve.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    members: Vec<(String, String, u64)>,
    elapsed: SimDuration,
    negotiations: u64,
    retries: u64,
    resumes: u64,
    restarts: u64,
    delivered: u64,
    drops: u64,
    dups: u64,
    dedup_replays: u64,
    /// Sessions the TN service resumed from a checkpoint.
    service_resumed: u64,
}

fn membership(vo: &FormedVo) -> Vec<(String, String, u64)> {
    vo.members()
        .iter()
        .map(|m| (m.provider.clone(), m.role.clone(), m.certificate.serial))
        .collect()
}

/// A paper-cost clock anchored at the workload epoch (the batch world's
/// credentials are valid from the scenario date, not the paper's default
/// start time).
fn paper_clock_at_epoch() -> SimClock {
    SimClock::new(CostModel::paper_testbed(), workloads::at())
}

/// Run one formation through a fresh TN service behind the given fault
/// plan on `workers` workers (1 = serial), and the instants of its
/// mid-exchange checkpoints. When `obs` is given, a collector rides the
/// case's clock and is dumped (deterministically) after the run.
fn run_case(
    world: &ParallelJoinWorld,
    plan: FaultPlan,
    seed: u64,
    workers: usize,
    obs: Option<&ObsArgs>,
) -> (Outcome, Vec<SimDuration>) {
    let clock = paper_clock_at_epoch();
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
    let (vo, stats) = formed.expect("E11 formation completes under the fault plan");
    assert_eq!(
        vo.members().len(),
        world.contract.roles.len(),
        "every role must be filled"
    );

    if let (Some(args), Some(collector)) = (obs, collector.as_ref()) {
        args.dump_deterministic(collector);
        args.dump_trace_deterministic(collector);
        if collector.is_enabled() {
            verify_attribution(collector, "E11");
        }
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
        dups: m.dups.get(),
        dedup_replays: m.dedup_replays.get(),
        service_resumed: svc.resumed_count(),
    };
    (outcome, probe.instants())
}

/// The 0 %-loss reference: the same formation on the bare bus.
fn run_bare(world: &ParallelJoinWorld, seed: u64) -> Outcome {
    let clock = paper_clock_at_epoch();
    let bus = ServiceBus::new(clock.clone());
    let svc = Arc::new(TnService::new(clock.clone(), Database::new()));
    register_formation_parties(&svc, &world.contract, &world.initiator, &world.providers);
    bus.register("tn", svc.clone());
    let (vo, stats) = Formation::new(
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
    .expect("bare-bus formation completes");
    Outcome {
        members: membership(&vo),
        elapsed: bus.clock().elapsed(),
        negotiations: stats.negotiations,
        retries: stats.retries,
        resumes: stats.resumes,
        restarts: stats.restarts,
        delivered: 0,
        drops: 0,
        dups: 0,
        dedup_replays: 0,
        service_resumed: svc.resumed_count(),
    }
}

fn main() {
    let args = ObsArgs::from_env();
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    // --smoke: a tiny world and the two interesting loss rates, so CI can
    // replay the chaos run (and diff its deterministic obs dump) fast.
    let (applicants, depth, alternatives, losses): (usize, usize, usize, &[f64]) = if args.smoke {
        (3, 4, 2, &[0.0, 0.20])
    } else {
        (6, 10, 3, &[0.0, 0.01, 0.05, 0.20])
    };
    let world = workloads::parallel_join_world(applicants, depth, alternatives);

    let mut report = Report::new(
        "E11",
        "Formation over a faulty transport: loss sweep, serial vs. parallel, crash resume",
        &[
            "serial sim (s)",
            "parallel sim (s)",
            "delivered",
            "drops",
            "dups",
            "retries",
            "resumes",
            "restarts",
        ],
    );

    // The heaviest-loss serial run, which the crash row's outage is
    // anchored on: its sim time and mid-exchange checkpoint instants.
    let mut heaviest = (SimDuration::ZERO, Vec::new());
    for &loss in losses {
        // 0% means a perfect network (no loss AND no link latency), so the
        // bare-bus comparison below is apples-to-apples.
        let plan = if loss == 0.0 {
            FaultPlan::reliable(seed)
        } else {
            FaultPlan::lossy(seed, loss)
        };
        let (serial, checkpoints) = run_case(&world, plan.clone(), seed, 1, None);
        let (parallel, _) = run_case(&world, plan.clone(), seed, WORKERS, None);
        // Loss/duplication decisions are a pure function of each call's
        // idempotency-key stream, so the fan-out must change nothing.
        assert_eq!(serial, parallel, "parallel must replay serial at {loss}");

        // Replaying the same seed must reproduce the run bit-for-bit.
        let (replay, _) = run_case(&world, plan, seed, 1, None);
        assert_eq!(serial, replay, "same seed must replay identically");

        if loss == 0.0 {
            // A reliable plan is a strict pass-through: same outcome, same
            // sim time, nothing injected, nothing recovered.
            let bare = run_bare(&world, seed);
            assert_eq!(serial.members, bare.members);
            assert_eq!(serial.elapsed, bare.elapsed);
            assert_eq!(
                (
                    serial.negotiations,
                    serial.retries,
                    serial.resumes,
                    serial.restarts
                ),
                (bare.negotiations, bare.retries, bare.resumes, bare.restarts),
            );
            assert_eq!(serial.drops + serial.dups + serial.dedup_replays, 0);
        }
        heaviest = (serial.elapsed, checkpoints);

        report.row(
            &format!("{:.0}%", loss * 100.0),
            &[
                format!("{:.2}", serial.elapsed.as_secs_f64()),
                format!("{:.2}", parallel.elapsed.as_secs_f64()),
                serial.delivered.to_string(),
                serial.drops.to_string(),
                serial.dups.to_string(),
                serial.retries.to_string(),
                serial.resumes.to_string(),
                serial.restarts.to_string(),
            ],
        );
    }

    // Crash row: 20 % loss plus a crash outage opening right after a
    // mid-exchange checkpoint of the heavy-loss run (E15's anchoring,
    // `wire_formation::outage_start`), so an in-flight session is wiped
    // and must resume from its checkpoint. Serial only — crash windows
    // fire on whichever call reaches them first, which is only
    // deterministic under a serial drive. This is also the scenario whose
    // obs stream the CI smoke diffs, so the collector rides this case.
    let (elapsed, checkpoints) = heaviest;
    let start = outage_start(&checkpoints, elapsed);
    let outage_end = start + SimDuration::from_millis(1_200);
    let crash_plan = FaultPlan::lossy(seed, 0.20).outage("tn", start, outage_end, true);
    let (crashed, _) = run_case(&world, crash_plan.clone(), seed, 1, Some(&args));
    let (crash_replay, _) = run_case(&world, crash_plan, seed, 1, None);
    assert_eq!(
        crashed, crash_replay,
        "crash schedule must replay identically"
    );
    assert!(
        crashed.resumes > 0 && crashed.service_resumed > 0,
        "the crash window must force at least one checkpointed resume \
         (client resumes: {}, service resumed: {})",
        crashed.resumes,
        crashed.service_resumed,
    );
    report.row(
        "20%+crash",
        &[
            format!("{:.2}", crashed.elapsed.as_secs_f64()),
            "—".to_string(),
            crashed.delivered.to_string(),
            crashed.drops.to_string(),
            crashed.dups.to_string(),
            crashed.retries.to_string(),
            crashed.resumes.to_string(),
            crashed.restarts.to_string(),
        ],
    );

    report.note(&format!(
        "seed = {seed}; {applicants} applicants, chain depth {depth}, {alternatives} \
         alternatives; loss is per direction (end-to-end ≈ 2p−p²); crash row resumed \
         {} negotiation(s) from durable checkpoints",
        crashed.service_resumed
    ));
    report.note(
        "serial == parallel and replay == run asserted at every loss rate; \
         0% row asserted equal to the bare-bus baseline",
    );
    report.print();
}
