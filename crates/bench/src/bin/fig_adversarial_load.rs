//! E14 — adversarial load: a flooding identity vs. per-party flow budgets.
//!
//! One identity ("FloodCo") hammers the TN service with bogus
//! `StartNegotiation` calls *interleaved with* an honest resilient
//! formation on the same bus, clock, and netsim fault plan. With the
//! `trust-vo-admission` mana gate installed, the flood drains its own
//! bucket within the first burst and every further start is refused with
//! a typed `budget_exhausted` fault **before** any service time is
//! charged — so the honest formation's latency stays within 25 % of the
//! flood-free baseline. The same flood against an ungated bus (the
//! pre-admission path) charges a full SOAP round trip per bogus start
//! and visibly starves the honest work; the slowdown ratio is the
//! `BENCH_admission.json` floor.
//!
//! Checks built into the run:
//!
//! * every flood round observes `budget_exhausted` refusals, and the
//!   flooder's admitted calls stay well under its attempts;
//! * honest formations complete in every round, flooded or not, and the
//!   flooded p95 total sim time is ≤ 1.25× the flood-free p95;
//! * the unthrottled (ungated) flood run is measurably slower than the
//!   gated one — the floor asserted and recorded in the JSON report;
//! * serial and parallel admitted formations produce identical members,
//!   sim time, recovery counters, and reputation scores;
//! * an observed run replays an unobserved one bit-for-bit, and the
//!   critical-path analyzer attributes ≥ 95 % of the flood-free
//!   formation root (the flood round is exempt: its traffic is
//!   deliberately untraced background load inside the root's window).
//!
//! `--smoke --seed 42 --emit-obs/--emit-trace <path>` is the CI gate: the
//! flood round's dump is scrubbed of wall-clock fields so two same-seed
//! runs are byte-identical. `--plain` drives the same workload without
//! admission (ungated bus, a formation with `admission: None`) — E14's
//! ungated baseline, asserted in-binary to replay identically and to
//! refuse nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trust_vo_admission::{AdmissionGate, ManaConfig, ManaLedger};
use trust_vo_bench::obsutil::ObsArgs;
use trust_vo_bench::report::Report;
use trust_vo_bench::workloads::{self, ParallelJoinWorld};
use trust_vo_negotiation::Strategy;
use trust_vo_netsim::{FaultPlan, NetSim};
use trust_vo_soa::simclock::{CostModel, SimClock, SimDuration};
use trust_vo_soa::{Body, Envelope, Fault, ServiceBus, StartNegotiation, TnService, Transport};
use trust_vo_store::Database;
use trust_vo_vo::mailbox::MailboxSystem;
use trust_vo_vo::{
    register_formation_parties, AdmissionControl, Formation, FormedVo, NegotiationSource,
    ReputationLedger, ServiceSource,
};

const DEFAULT_SEED: u64 = 14;
const WORKERS: usize = 4;
/// Per-direction message loss for every round: enough to exercise
/// retries alongside budget refusals without dominating the latency.
const LOSS: f64 = 0.05;
/// Bogus starts fired at the bus before each honest call.
const FLOOD_PER_CALL: usize = 3;
/// The flooding identity. Never registered with the TN service: its
/// admitted calls burn a round trip and fault with `UnknownParty`.
const FLOODER: &str = "FloodCo";
/// High bit pattern keeping flood idempotency keys out of the honest
/// drivers' SplitMix64 key space.
const FLOOD_KEY_BASE: u64 = 0xF100_D000_0000_0000;
/// Honest latency floor: flooded p95 must stay within this factor of the
/// flood-free p95 (ISSUE E14 acceptance: 25 %).
const HONEST_P95_FACTOR: f64 = 1.25;
/// BENCH floor: the unthrottled flood must slow the honest formation by
/// at least this factor over the flood-free baseline, while the
/// throttled flood stays within [`HONEST_P95_FACTOR`].
const UNTHROTTLED_SLOWDOWN_FLOOR: f64 = 1.25;

/// Which bus/driver stack a case runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Mana-gated bus + admission-controlled formation (the E14 subject).
    Admitted,
    /// Pre-admission path: ungated bus, no admission control.
    Plain,
}

/// The flood's mana profile: a burst of 6 starts, then a regeneration
/// trickle far below the flood rate — tight enough that refusals appear
/// even in the smoke world, loose enough that honest parties (one start
/// per role, plus rare restarts) never graze it.
fn flood_mana_config() -> ManaConfig {
    ManaConfig {
        capacity: 6.0,
        refill_per_sec: 0.25,
        cost_per_call: 1.0,
    }
}

/// Everything a case produces that determinism must preserve.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    members: Vec<(String, String, u64)>,
    /// Sim time at the end of the round (flood + formation).
    total: SimDuration,
    negotiations: u64,
    retries: u64,
    resumes: u64,
    restarts: u64,
    delivered: u64,
    drops: u64,
    dedup_replays: u64,
    flood_attempts: u64,
    flood_admitted: u64,
    flood_refused: u64,
    flood_lost: u64,
    /// Reputation scores the admission engine holds after the round.
    scores: Vec<(String, u64)>,
}

fn membership(vo: &FormedVo) -> Vec<(String, String, u64)> {
    vo.members()
        .iter()
        .map(|m| (m.provider.clone(), m.role.clone(), m.certificate.serial))
        .collect()
}

/// A paper-cost clock anchored at the workload epoch.
fn paper_clock_at_epoch() -> SimClock {
    SimClock::new(CostModel::paper_testbed(), workloads::at())
}

/// A [`Transport`] decorator that fires `per_call` bogus starts from the
/// flooding identity at the wrapped netsim before forwarding each honest
/// call — background adversarial load sharing the honest drive's bus,
/// clock, and fault plan. Flood envelopes carry their own idempotency
/// keys, so netsim's per-key decision streams for honest calls are
/// untouched and the interleave replays deterministically under a serial
/// drive.
struct FloodingNet<'a> {
    net: &'a NetSim,
    per_call: usize,
    counter: AtomicU64,
    admitted: AtomicU64,
    refused: AtomicU64,
    lost: AtomicU64,
}

impl<'a> FloodingNet<'a> {
    fn new(net: &'a NetSim, per_call: usize) -> Self {
        FloodingNet {
            net,
            per_call,
            counter: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            lost: AtomicU64::new(0),
        }
    }

    fn burst(&self) {
        for _ in 0..self.per_call {
            let i = self.counter.fetch_add(1, Ordering::SeqCst);
            let env = Envelope::new(Body::StartNegotiation(StartNegotiation {
                strategy: Strategy::Standard,
                requester: FLOODER.into(),
                controller: "tn".into(),
                resource: "VoMembership".into(),
                resumable: false,
            }))
            .with_idempotency(FLOOD_KEY_BASE | i);
            match self.net.call("tn", &env) {
                Err(f) if f.is_budget_exhausted() => {
                    self.refused.fetch_add(1, Ordering::SeqCst);
                }
                Err(f) if f.is_transport() => {
                    self.lost.fetch_add(1, Ordering::SeqCst);
                }
                // Delivered: either a (never-issued) success or the TN
                // service's `UnknownParty` application fault — both paid
                // the round trip, which is all the flood is after.
                _ => {
                    self.admitted.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }
}

impl Transport for FloodingNet<'_> {
    fn call(&self, service: &str, request: &Envelope) -> Result<Envelope, Fault> {
        self.burst();
        self.net.call(service, request)
    }

    fn clock(&self) -> &SimClock {
        self.net.clock()
    }
}

/// Run one flooded (or flood-free, `per_call = 0`) formation round on
/// `workers` workers (1 = serial). When `obs` is given a collector rides
/// the round's clock; `dump` writes the deterministic artifacts,
/// `verify_attr` gates on the critical-path analyzer.
#[allow(clippy::too_many_arguments)]
fn run_case(
    world: &ParallelJoinWorld,
    plan: FaultPlan,
    seed: u64,
    per_call: usize,
    path: Path,
    workers: usize,
    obs: Option<&ObsArgs>,
    dump: bool,
    verify_attr: bool,
) -> Outcome {
    let clock = paper_clock_at_epoch();
    let collector = obs.map(|a| a.collector_for(&clock));
    let bus = ServiceBus::new(clock.clone());
    let svc = Arc::new(TnService::new(clock.clone(), Database::new()));
    register_formation_parties(&svc, &world.contract, &world.initiator, &world.providers);
    bus.register("tn", svc.clone());
    let admission = AdmissionControl::default();
    if path == Path::Admitted {
        let mana = Arc::new(ManaLedger::new(flood_mana_config()));
        if let Some(c) = collector.as_ref().filter(|c| c.is_enabled()) {
            mana.attach_obs(c);
            admission.engine().attach_obs(c);
        }
        bus.set_gate(Arc::new(AdmissionGate::new(mana, bus.clock().clone())));
    }
    let net = NetSim::new(bus, plan);
    let flood = FloodingNet::new(&net, per_call);

    let formed = Formation::new(
        &world.initiator,
        &world.providers,
        &world.registry,
        NegotiationSource::Service(ServiceSource::standard(&flood, "tn", seed)),
    )
    .with_workers(workers)
    .with_admission((path == Path::Admitted).then_some(&admission))
    .run(
        world.contract.clone(),
        &mut MailboxSystem::new(),
        &mut ReputationLedger::new(),
    );
    let (vo, stats) = formed.expect("E14 formation completes under adversarial load");
    assert_eq!(
        vo.members().len(),
        world.contract.roles.len(),
        "every role must be filled"
    );

    if let (Some(args), Some(collector)) = (obs, collector.as_ref()) {
        if dump {
            args.dump_deterministic(collector);
            args.dump_trace_deterministic(collector);
        }
        if verify_attr && collector.is_enabled() {
            verify_attribution(collector);
        }
    }

    let m = net.metrics();
    Outcome {
        members: membership(&vo),
        total: net.clock().elapsed(),
        negotiations: stats.negotiations,
        retries: stats.retries,
        resumes: stats.resumes,
        restarts: stats.restarts,
        delivered: m.delivered.get(),
        drops: m.drops.get(),
        dedup_replays: m.dedup_replays.get(),
        flood_attempts: flood.counter.load(Ordering::SeqCst),
        flood_admitted: flood.admitted.load(Ordering::SeqCst),
        flood_refused: flood.refused.load(Ordering::SeqCst),
        flood_lost: flood.lost.load(Ordering::SeqCst),
        // Bit-exact score comparison across replays and thread counts.
        scores: admission
            .engine()
            .snapshot()
            .into_iter()
            .map(|(p, s)| (p, s.to_bits()))
            .collect(),
    }
}

/// E14 observability acceptance, reused from E13: the critical-path
/// analyzer must account for ≥ 95 % of each formation root's sim time.
/// Only meaningful on the flood-free round — flood traffic is untraced
/// background load and lands, by design, in the unattributed residual.
fn verify_attribution(collector: &trust_vo_obs::Collector) {
    use trust_vo_obs::critical;
    let records = collector.export_records(true);
    let root_ids: Vec<u64> = critical::roots(&records, "formation.form_vo_resilient")
        .iter()
        .map(|s| s.id)
        .collect();
    assert!(
        !root_ids.is_empty(),
        "an observed E14 run must record a formation root span"
    );
    for root_id in root_ids {
        let a = critical::attribute(&records, root_id).expect("root is in its own export");
        eprintln!("{}", critical::render_attribution(&a));
        assert!(
            a.attributed_fraction() >= 0.95,
            "attribution covers only {:.1}% of formation root {root_id}",
            100.0 * a.attributed_fraction(),
        );
    }
}

/// p95 over a small sample: the value at ceil(0.95·n) in sorted order.
fn p95(samples: &[SimDuration]) -> SimDuration {
    let mut sorted: Vec<u64> = samples.iter().map(|d| d.0).collect();
    sorted.sort_unstable();
    let idx = ((sorted.len() as f64 * 0.95).ceil() as usize).max(1) - 1;
    SimDuration(sorted[idx])
}

fn secs(d: SimDuration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

fn row_values(o: &Outcome) -> Vec<String> {
    vec![
        secs(o.total),
        o.flood_attempts.to_string(),
        o.flood_admitted.to_string(),
        o.flood_refused.to_string(),
        o.flood_lost.to_string(),
        o.retries.to_string(),
        o.restarts.to_string(),
        o.members.len().to_string(),
    ]
}

const COLUMNS: [&str; 8] = [
    "total sim (s)",
    "flood tries",
    "admitted",
    "refused",
    "lost",
    "retries",
    "restarts",
    "roles",
];

/// Pre-admission pass-through (`--plain`): one flood round on an ungated
/// bus with no admission control (everything rides free), replayed for
/// determinism and dumped.
fn run_passthrough(world: &ParallelJoinWorld, seed: u64, args: &ObsArgs) {
    let plan = FaultPlan::lossy(seed, LOSS);
    let run = run_case(
        world,
        plan.clone(),
        seed,
        FLOOD_PER_CALL,
        Path::Plain,
        1,
        Some(args),
        true,
        false,
    );
    let replay = run_case(
        world,
        plan,
        seed,
        FLOOD_PER_CALL,
        Path::Plain,
        1,
        None,
        false,
        false,
    );
    assert_eq!(run, replay, "pass-through must replay identically");
    assert_eq!(
        run.flood_refused, 0,
        "without budgets nothing is ever refused"
    );
    assert!(run.scores.is_empty(), "no admission ⇒ no scoring");
    let mut report = Report::new(
        "E14",
        "Adversarial load, admission disabled (pre-admission pass-through)",
        &COLUMNS,
    );
    report.row("flood unthrottled", &row_values(&run));
    report.note(&format!(
        "seed = {seed}; admission gate and scoring disabled — every bogus start \
         paid a full round trip"
    ));
    report.print();
}

fn main() {
    let args = ObsArgs::from_env();
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let plain = std::env::args().any(|a| a == "--plain");
    let (applicants, depth, alternatives, rounds): (usize, usize, usize, usize) = if args.smoke {
        (3, 4, 2, 2)
    } else {
        (5, 8, 2, 4)
    };
    let world = workloads::parallel_join_world(applicants, depth, alternatives);

    if plain {
        run_passthrough(&world, seed, &args);
        return;
    }

    let plan_for = |s: u64| FaultPlan::lossy(s, LOSS);
    let mut report = Report::new(
        "E14",
        "Adversarial load: flooding identity vs. per-party flow budgets",
        &COLUMNS,
    );

    // Flood-free baselines and flooded rounds, seed-varied for a latency
    // distribution.
    let mut baseline = Vec::new();
    let mut flooded = Vec::new();
    for r in 0..rounds {
        let s = seed.wrapping_add(101 * r as u64);
        let base = run_case(
            &world,
            plan_for(s),
            s,
            0,
            Path::Admitted,
            1,
            None,
            false,
            false,
        );
        let flood = run_case(
            &world,
            plan_for(s),
            s,
            FLOOD_PER_CALL,
            Path::Admitted,
            1,
            None,
            false,
            false,
        );
        assert!(
            flood.flood_refused > 0,
            "round {r}: the flood must hit the budget wall"
        );
        assert!(
            flood.flood_admitted < flood.flood_attempts / 2,
            "round {r}: most of the flood must be refused \
             ({} of {} admitted)",
            flood.flood_admitted,
            flood.flood_attempts
        );
        assert_eq!(
            base.members, flood.members,
            "round {r}: the flood must not change who is admitted"
        );
        report.row(&format!("flood-free r{r}"), &row_values(&base));
        report.row(&format!("flood gated r{r}"), &row_values(&flood));
        baseline.push(base);
        flooded.push(flood);
    }

    // Honest-latency acceptance: flooded p95 within 25 % of flood-free.
    let base_p95 = p95(&baseline.iter().map(|o| o.total).collect::<Vec<_>>());
    let flood_p95 = p95(&flooded.iter().map(|o| o.total).collect::<Vec<_>>());
    assert!(
        flood_p95.0 as f64 <= base_p95.0 as f64 * HONEST_P95_FACTOR,
        "budgets must keep honest p95 within {HONEST_P95_FACTOR}x of the \
         flood-free baseline (flooded {flood_p95:?} vs baseline {base_p95:?})"
    );

    // Parallel admitted formation must replay the serial one exactly —
    // same members, sim time, recovery counters, and scores. Flood-free:
    // the background-flood interleave is only deterministic serially.
    let parallel = run_case(
        &world,
        plan_for(seed),
        seed,
        0,
        Path::Admitted,
        WORKERS,
        None,
        false,
        false,
    );
    assert_eq!(
        parallel, baseline[0],
        "parallel admitted formation must replay the serial one"
    );

    // The same flood with no gate: the pre-admission path pays a round
    // trip per bogus start, and the honest formation wears the delay.
    let unthrottled = run_case(
        &world,
        plan_for(seed),
        seed,
        FLOOD_PER_CALL,
        Path::Plain,
        1,
        None,
        false,
        false,
    );
    assert_eq!(unthrottled.flood_refused, 0);
    report.row("flood unthrottled", &row_values(&unthrottled));
    let slowdown = unthrottled.total.0 as f64 / baseline[0].total.0 as f64;
    let gated_ratio = flooded[0].total.0 as f64 / baseline[0].total.0 as f64;
    assert!(
        slowdown >= UNTHROTTLED_SLOWDOWN_FLOOR,
        "the unthrottled flood should demonstrably starve honest work \
         (only {slowdown:.2}x over baseline)"
    );
    assert!(
        unthrottled.total > flooded[0].total,
        "budgets must beat the ungated bus under the same flood"
    );

    // Observed flood round: deterministic dumps for the CI byte-identity
    // gate, and proof that observation never perturbs the run. The
    // critical-path gate rides a flood-free observed round instead (the
    // flood is untraced background load by design).
    let observed = run_case(
        &world,
        plan_for(seed),
        seed,
        FLOOD_PER_CALL,
        Path::Admitted,
        1,
        Some(&args),
        true,
        false,
    );
    assert_eq!(
        observed, flooded[0],
        "an observed run must replay an unobserved one"
    );
    let attributed = run_case(
        &world,
        plan_for(seed),
        seed,
        0,
        Path::Admitted,
        1,
        Some(&args),
        false,
        true,
    );
    assert_eq!(
        attributed, baseline[0],
        "the attribution round must replay the baseline"
    );

    let loss_pct = LOSS * 100.0;
    report.note(&format!(
        "seed = {seed}; {applicants} applicants, chain depth {depth}, \
         {alternatives} alternatives, {loss_pct:.0}% loss/direction, \
         {FLOOD_PER_CALL} bogus starts per honest call; mana capacity {}, \
         refill {}/s",
        flood_mana_config().capacity,
        flood_mana_config().refill_per_sec,
    ));
    report.note(&format!(
        "honest p95: flood-free {}s, flooded {}s ({gated_ratio:.2}x, floor \
         {HONEST_P95_FACTOR}x); unthrottled flood {}s ({slowdown:.2}x, \
         floor {UNTHROTTLED_SLOWDOWN_FLOOR}x)",
        secs(base_p95),
        secs(flood_p95),
        secs(unthrottled.total),
    ));
    report.note(
        "serial == parallel, observed == unobserved, and replay == run \
         asserted; flood keys never touch honest decision streams",
    );
    report.print();

    if !args.smoke {
        std::fs::write("BENCH_admission.json", report.to_json() + "\n")
            .expect("writing BENCH_admission.json");
        eprintln!("wrote BENCH_admission.json");
    }
}
