//! E15 — wire throughput: binary codec vs. XML, sharded dispatch vs. a
//! single-queue bus, and backpressure under flood.
//!
//! Three measurements over the wire path (every `ServiceBus::call`
//! crosses a length-framed `[len][crc32][payload]` binary envelope
//! boundary; the typed messages' XML rendering stays on as the
//! differential oracle):
//!
//! 1. **Codec sweep** — frame + round-trip the messages an Aircraft-VO
//!    negotiation sends (the start request, the policy reply with its
//!    trust sequence and resume token, a credential reply with the
//!    disclosed credential and a token) through the typed binary codec
//!    and through their XML rendering and the parser, 10k → 1M messages,
//!    timed in alternating chunks of the two. Floor: binary ≥ 3× the XML
//!    round-trip rate on every row (asserted non-smoke).
//! 2. **Dispatch** — 64+ concurrent negotiations driven (a) through the
//!    single-queue dispatcher bus, every message paying two thread
//!    handoffs, and (b) over the sharded work-stealing executor, every
//!    message framed and dispatched inline on its shard worker. Floor:
//!    sharded ≥ 4× the single-queue drive (asserted non-smoke). Outcomes
//!    must be identical across serial, queued, and sharded drives.
//! 3. **Backpressure** — a flood against a 2-slot dispatch queue: sheds
//!    must surface as typed `Overloaded` faults carrying a drain
//!    estimate, and hint-respecting retries must land every call.
//!
//! Determinism checks built into the run: serial ≡ parallel ≡ replay for
//! a seeded netsim formation over the wire, and a crash-window round
//! resumes from checkpoints and replays bit-for-bit.
//!
//! `--smoke --seed 42 --emit-obs/--emit-trace <path>` is the CI gate: the
//! observed round is driven serially (executor queue counters are
//! scheduling-dependent and never dumped) and scrubbed, so two same-seed
//! runs are byte-identical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trust_vo_bench::obsutil::ObsArgs;
use trust_vo_bench::report::Report;
use trust_vo_bench::wire_formation::{crash_round, run_formation};
use trust_vo_bench::workloads;
use trust_vo_negotiation::Strategy;
use trust_vo_netsim::FaultPlan;
use trust_vo_soa::shard::{run_sharded, QueuedBus, ShardConfig};
use trust_vo_soa::simclock::{CostModel, SimClock};
use trust_vo_soa::{
    run_negotiation_resilient, wire, Body, CredentialExchangeResponse, Envelope, Fault,
    ResumePolicy, RetryPolicy, ServiceBus, ServiceEndpoint, TnService, Transport,
};
use trust_vo_store::Database;
use trust_vo_vo::initiator_party_for_role;
use trust_vo_vo::scenario::{names, roles, AircraftScenario};

const DEFAULT_SEED: u64 = 15;
/// Shard workers / caller threads for the dispatch comparison.
const WORKERS: usize = 4;
/// BENCH floor: binary codec round-trip rate over XML round-trip rate.
const CODEC_SPEEDUP_FLOOR: f64 = 3.0;
/// BENCH floor: sharded inline dispatch over the single-queue bus at
/// 64+ concurrent negotiations.
const DISPATCH_SPEEDUP_FLOOR: f64 = 4.0;

/// Records every call that crosses it, request and reply.
struct Recording<'a> {
    bus: &'a ServiceBus,
    calls: Mutex<Vec<(Envelope, Result<Envelope, Fault>)>>,
}

impl Transport for Recording<'_> {
    fn call(&self, service: &str, request: &Envelope) -> Result<Envelope, Fault> {
        let reply = self.bus.call(service, request);
        self.calls
            .lock()
            .expect("the recorder never panics holding its lock")
            .push((request.clone(), reply.clone()));
        reply
    }

    fn clock(&self) -> &SimClock {
        self.bus.clock()
    }
}

/// The codec corpus: the messages an Aircraft-VO negotiation sends,
/// recorded from one resumable negotiation of Aerospace for the Design
/// Portal role through the TN service — the start request, the policy
/// reply with its trust sequence and resume token, and the first
/// credential reply with the disclosed credential and a fresh token.
fn corpus() -> Vec<Envelope> {
    let scenario = AircraftScenario::build();
    let clock = scenario.toolkit.clock.clone();
    let service = TnService::new(clock.clone(), Database::new());
    service.register_party(initiator_party_for_role(
        scenario.provider(names::AIRCRAFT),
        &scenario.contract,
        roles::DESIGN_PORTAL,
    ));
    service.register_party(scenario.provider(names::AEROSPACE).party.clone());
    let bus = ServiceBus::new(clock);
    bus.register("tn", Arc::new(service));
    let recording = Recording {
        bus: &bus,
        calls: Mutex::new(Vec::new()),
    };
    run_negotiation_resilient(
        &recording,
        "tn",
        names::AEROSPACE,
        names::AIRCRAFT,
        "VoMembership",
        Strategy::Standard,
        &RetryPolicy::standard(),
        &ResumePolicy::standard(),
        0x5EED,
        trust_vo_obs::SpanLink::default(),
    )
    .outcome
    .expect("the Aircraft-VO negotiation completes over the service");
    let calls = recording.calls.into_inner().expect("recorder lock");
    let find = |want: &dyn Fn(&Envelope) -> bool| {
        calls
            .iter()
            .flat_map(|(request, reply)| [Some(request), reply.as_ref().ok()])
            .flatten()
            .find(|env| want(env))
            .expect("the negotiation sends this message")
            .clone()
    };
    let start = find(&|env| matches!(*env.body, Body::StartNegotiation(_)));
    let policy =
        find(&|env| matches!(&*env.body, Body::PolicyExchangeResponse(p) if p.token.is_some()));
    let credential = find(&|env| {
        matches!(
            &*env.body,
            Body::CredentialExchangeResponse(CredentialExchangeResponse {
                credential: Some(_),
                token: Some(_),
                ..
            })
        )
    })
    .with_trace(trust_vo_obs::TraceContext {
        trace_id: 11,
        span_id: 42,
        parent_span_id: Some(40),
    });
    vec![start, policy, credential]
}

/// Messages per timed chunk of a codec-sweep row. A row alternates an
/// XML chunk and a binary chunk until it has round-tripped its count on
/// both sides, so a host slow spell longer than one chunk pair slows
/// both sides alike instead of whichever side it happened to fall on.
const CODEC_CHUNK: usize = 250;

/// One codec-sweep row: round-trip `count` messages through each path,
/// returning (xml seconds, binary seconds, speedup).
fn codec_round(envelopes: &[Envelope], count: usize) -> (f64, f64, f64) {
    let (mut xml_secs, mut bin_secs) = (0.0, 0.0);
    let (mut xml_checksum, mut bin_checksum) = (0usize, 0usize);
    for start in (0..count).step_by(CODEC_CHUNK) {
        let chunk = start..count.min(start + CODEC_CHUNK);
        // XML path: write + parse + header extraction, per message.
        let t = Instant::now();
        for i in chunk.clone() {
            let env = &envelopes[i % envelopes.len()];
            let text = trust_vo_xmldoc::to_string(&env.to_xml());
            let back = Envelope::from_xml(&trust_vo_xmldoc::parse(&text).expect("canonical"))
                .expect("envelope");
            xml_checksum += back.operation().len();
        }
        xml_secs += t.elapsed().as_secs_f64();

        // Binary path: encode into the frame (crc32) + unframe + decode,
        // per message — the encode every bus call makes — so every
        // iteration pays the full encode, same as the XML side.
        let t = Instant::now();
        for i in chunk {
            let env = &envelopes[i % envelopes.len()];
            let frame = wire::frame_envelope(env);
            let back = wire::unframe_envelope(&frame).expect("clean frame");
            bin_checksum += back.operation().len();
        }
        bin_secs += t.elapsed().as_secs_f64();
    }

    assert_eq!(xml_checksum, bin_checksum, "codecs must agree on content");
    (
        xml_secs,
        bin_secs,
        xml_secs / bin_secs.max(f64::MIN_POSITIVE),
    )
}

/// A fresh bus with a TN service holding the chain-negotiation pair.
fn negotiation_bus() -> ServiceBus {
    let clock = SimClock::new(CostModel::paper_testbed(), workloads::at());
    let bus = ServiceBus::new(clock.clone());
    let svc = TnService::new(clock, Database::new());
    let (requester, controller) = workloads::chain_parties(4, 2);
    svc.register_party(requester);
    svc.register_party(controller);
    bus.register("tn", Arc::new(svc));
    bus
}

/// Outcome of one negotiation job — everything the drive architecture
/// must not change. (Sim-elapsed snapshots are concurrent reads of a
/// shared clock and are compared at the drive level instead.)
type JobOutcome = (usize, usize, u64);

fn negotiate(transport: &dyn Transport, seed: u64) -> JobOutcome {
    let run = run_negotiation_resilient(
        transport,
        "tn",
        "chain-requester",
        "chain-controller",
        "Target",
        Strategy::Standard,
        &RetryPolicy::standard(),
        &ResumePolicy::standard(),
        seed,
        trust_vo_obs::SpanLink::default(),
    );
    let completed = run.outcome.expect("reliable negotiation completes");
    (
        completed.credential_calls,
        completed.sequence_len,
        run.retries + run.resumes + run.restarts,
    )
}

/// Serial reference drive: `jobs` negotiations, one after another,
/// straight on the bus (still crossing the wire boundary).
fn drive_serial(jobs: usize) -> (Vec<JobOutcome>, f64) {
    let bus = negotiation_bus();
    let t = Instant::now();
    let outcomes = (0..jobs).map(|i| negotiate(&bus, i as u64)).collect();
    (outcomes, t.elapsed().as_secs_f64())
}

/// Single-queue drive: `WORKERS` caller threads pushing every call of
/// every negotiation through one bounded dispatch queue and its single
/// dispatcher thread — two thread handoffs per message.
fn drive_queued(jobs: usize) -> (Vec<JobOutcome>, f64) {
    let queued = QueuedBus::new(negotiation_bus(), jobs.max(16));
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let mut outcomes: Vec<(usize, JobOutcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let queued = &queued;
                let next = &next;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        mine.push((i, negotiate(queued, i as u64)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller threads do not panic"))
            .collect()
    });
    let secs = t.elapsed().as_secs_f64();
    outcomes.sort_by_key(|(i, _)| *i);
    (outcomes.into_iter().map(|(_, o)| o).collect(), secs)
}

/// Sharded drive: the same negotiations as jobs on the work-stealing
/// executor — every bus call dispatches inline on its shard worker.
fn drive_sharded(jobs: usize) -> (Vec<JobOutcome>, f64) {
    let bus = negotiation_bus();
    let clock = bus.clock().clone();
    let shard_jobs: Vec<_> = (0..jobs)
        .map(|i| {
            let bus = &bus;
            move || negotiate(bus, i as u64)
        })
        .collect();
    let t = Instant::now();
    let run = run_sharded(ShardConfig::new(WORKERS, 16), &clock, shard_jobs);
    (run.results, t.elapsed().as_secs_f64())
}

/// A trivial endpoint for the dispatch-throughput and backpressure
/// cases: the interesting cost is the bus boundary, not the handler. It
/// answers with the request's own body.
struct Echo;
impl ServiceEndpoint for Echo {
    fn handle(&self, request: &Envelope) -> Result<Envelope, Fault> {
        Ok(Envelope::new(request.body.clone()))
    }
    fn operations(&self) -> Vec<String> {
        vec!["echo".into()]
    }
}

fn echo_bus() -> ServiceBus {
    let clock = SimClock::new(CostModel::paper_testbed(), workloads::at());
    let bus = ServiceBus::new(clock);
    bus.register("svc", Arc::new(Echo));
    bus
}

/// Push `jobs` concurrent conversations of `msgs` messages each (cycling
/// `shapes`, fresh idempotency keys so every message pays its own
/// encode) through the single-queue dispatcher bus from `WORKERS` caller
/// threads — two thread handoffs per message. Returns wall seconds.
fn queued_messages(shapes: &[Envelope], jobs: usize, msgs: usize) -> f64 {
    let queued = QueuedBus::new(echo_bus(), jobs.max(16));
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            let queued = &queued;
            let next = &next;
            s.spawn(move || loop {
                let job = next.fetch_add(1, Ordering::Relaxed);
                if job >= jobs {
                    break;
                }
                for i in 0..msgs {
                    let req = shapes[i % shapes.len()]
                        .clone()
                        .with_idempotency((job * msgs + i) as u64);
                    let resp = queued.call("svc", &req).expect("echo dispatch");
                    assert_eq!(resp.operation(), req.operation());
                }
            });
        }
    });
    t.elapsed().as_secs_f64()
}

/// The same conversations as jobs on the sharded work-stealing executor
/// — every message is framed and dispatched inline on its shard worker,
/// with no thread handoff.
fn sharded_messages(shapes: &[Envelope], jobs: usize, msgs: usize) -> f64 {
    let bus = echo_bus();
    let clock = bus.clock().clone();
    let shard_jobs: Vec<_> = (0..jobs)
        .map(|job| {
            let bus = &bus;
            move || {
                for i in 0..msgs {
                    let req = shapes[i % shapes.len()]
                        .clone()
                        .with_idempotency((job * msgs + i) as u64);
                    let resp = bus.call("svc", &req).expect("echo dispatch");
                    assert_eq!(resp.operation(), req.operation());
                }
            }
        })
        .collect();
    let t = Instant::now();
    run_sharded(ShardConfig::new(WORKERS, 16), &clock, shard_jobs);
    t.elapsed().as_secs_f64()
}

/// Flood a 2-slot dispatch queue from 8 caller threads: sheds must
/// surface as typed `Overloaded` faults with a drain hint, and
/// hint-respecting retries must complete every call. Returns (calls,
/// sheds observed).
fn backpressure_case() -> (usize, u64) {
    let queued = QueuedBus::new(echo_bus(), 2);
    let callers = 8usize;
    let per_caller = 16usize;
    let sheds = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for c in 0..callers {
            let queued = &queued;
            let sheds = &sheds;
            let completed = &completed;
            s.spawn(move || {
                for i in 0..per_caller {
                    let req = Envelope::new(Body::PolicyExchange)
                        .with_idempotency((c * per_caller + i) as u64);
                    // Shed-aware retry: sim-time backoff is instant in
                    // real time, so yield the (possibly single) CPU to
                    // the dispatcher before trying again.
                    let resp = loop {
                        match queued.call("svc", &req) {
                            Ok(resp) => break resp,
                            Err(fault) => {
                                assert!(fault.is_overloaded(), "only sheds expected: {fault:?}");
                                assert!(
                                    fault.retry_after_us.unwrap_or(0) > 0,
                                    "a shed must carry a drain estimate"
                                );
                                sheds.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                        }
                    };
                    assert_eq!(resp.operation(), "PolicyExchange");
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(completed.load(Ordering::Relaxed), callers * per_caller);
    (callers * per_caller, sheds.load(Ordering::Relaxed) as u64)
}

fn main() {
    let args = ObsArgs::from_env();
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let (sweep, jobs, applicants, depth, alternatives): (&[usize], usize, usize, usize, usize) =
        if args.smoke {
            (&[10_000], 64, 3, 4, 2)
        } else {
            (&[10_000, 100_000, 1_000_000], 256, 5, 8, 2)
        };

    let mut report = Report::new(
        "E15",
        "Wire throughput: binary codec vs XML; sharded dispatch vs single queue",
        &[
            "messages/jobs",
            "xml/queued (s)",
            "bin/sharded (s)",
            "speedup",
        ],
    );

    // 1. Codec sweep.
    let envelopes = corpus();
    let mut codec_speedups = Vec::new();
    for &count in sweep {
        let (xml_secs, bin_secs, speedup) = codec_round(&envelopes, count);
        report.row(
            &format!("codec {count}"),
            &[
                count.to_string(),
                format!("{xml_secs:.3}"),
                format!("{bin_secs:.3}"),
                format!("{speedup:.2}x"),
            ],
        );
        codec_speedups.push(speedup);
    }
    if !args.smoke {
        for (i, &speedup) in codec_speedups.iter().enumerate() {
            assert!(
                speedup >= CODEC_SPEEDUP_FLOOR,
                "codec floor: binary must round-trip >= {CODEC_SPEEDUP_FLOOR}x \
                 faster than XML (sweep row {i}: {speedup:.2}x)"
            );
        }
    }

    // 2. Dispatch throughput: the control-plane message stream of `jobs`
    // concurrent formation conversations. Both drives frame every
    // message; the single-queue bus pays two thread handoffs on top,
    // while a sharded job runs *on* the worker that owns dispatch. That
    // structural gap is the floored row; the corpus row shows
    // payload-heavy traffic. Interleaved rounds absorb scheduler noise.
    const MSGS_PER_JOB: usize = 16;
    const DISPATCH_ROUNDS: usize = 3;
    // Minimal control message: dispatch cost, not payload cost.
    let control = vec![Envelope::new(Body::PolicyExchange).with_negotiation(7)];
    let (mut queued_secs, mut sharded_secs) = (0.0, 0.0);
    for _ in 0..DISPATCH_ROUNDS {
        queued_secs += queued_messages(&control, jobs, MSGS_PER_JOB);
        sharded_secs += sharded_messages(&control, jobs, MSGS_PER_JOB);
    }
    let dispatch_speedup = queued_secs / sharded_secs.max(f64::MIN_POSITIVE);
    report.row(
        &format!("dispatch {jobs}x{MSGS_PER_JOB}"),
        &[
            (jobs * MSGS_PER_JOB * DISPATCH_ROUNDS).to_string(),
            format!("{queued_secs:.3}"),
            format!("{sharded_secs:.3}"),
            format!("{dispatch_speedup:.2}x"),
        ],
    );
    if !args.smoke {
        assert!(
            dispatch_speedup >= DISPATCH_SPEEDUP_FLOOR,
            "dispatch floor: sharded inline dispatch must beat the \
             single-queue bus by >= {DISPATCH_SPEEDUP_FLOOR}x at {jobs} \
             concurrent formation conversations (got {dispatch_speedup:.2}x)"
        );
    }
    let q_corpus = queued_messages(&envelopes, jobs, MSGS_PER_JOB);
    let s_corpus = sharded_messages(&envelopes, jobs, MSGS_PER_JOB);
    report.row(
        "dispatch (full corpus)",
        &[
            (jobs * MSGS_PER_JOB).to_string(),
            format!("{q_corpus:.3}"),
            format!("{s_corpus:.3}"),
            format!("{:.2}x", q_corpus / s_corpus.max(f64::MIN_POSITIVE)),
        ],
    );

    // 3. Drive-architecture equality: the same 64+ negotiations must
    // produce identical outcomes serially, through the single queue, and
    // on the sharded executor. One untimed warmup fills the process-wide
    // verified-credential cache first.
    let _ = drive_serial(8);
    let (serial_out, _serial_secs) = drive_serial(jobs);
    let (queued_out, _queued_secs) = drive_queued(jobs);
    let (sharded_out, _sharded_secs) = drive_sharded(jobs);
    assert_eq!(serial_out, queued_out, "queued drive must replay serial");
    assert_eq!(serial_out, sharded_out, "sharded drive must replay serial");

    // 4. Backpressure: sheds observed, typed, and survivable.
    let (flood_calls, flood_sheds) = backpressure_case();
    assert!(
        flood_sheds > 0,
        "an 8-way flood of a 2-slot queue must shed at least once"
    );
    report.row(
        "backpressure",
        &[
            flood_calls.to_string(),
            "-".into(),
            "-".into(),
            format!("{flood_sheds} sheds"),
        ],
    );

    // 5. Determinism over the wire: serial ≡ parallel ≡ replay on a
    // lossy plan; a crash round resumes and replays.
    let world = workloads::parallel_join_world(applicants, depth, alternatives);
    let lossy = FaultPlan::lossy(seed, 0.05);
    let serial = run_formation(&world, lossy.clone(), seed, 1, None);
    let parallel = run_formation(&world, lossy.clone(), seed, WORKERS, None);
    let replay = run_formation(&world, lossy, seed, 1, None);
    assert_eq!(serial, parallel, "sharded formation must replay serial");
    assert_eq!(serial, replay, "same seed must replay bit-for-bit");

    // Crash/resume round, serial: at least one checkpointed resume,
    // replayed exactly. The outage opens right after a mid-exchange
    // checkpoint of the same seed's heavy-loss run.
    let crash = crash_round(&world, seed);
    assert_eq!(
        crash.crashed, crash.replay,
        "crash schedule must replay exactly"
    );
    assert!(
        crash.crashed.resumes > 0 && crash.crashed.service_resumed > 0,
        "the crash window must force a checkpointed resume over the wire"
    );

    // Observed round for the CI byte-identity gates: serial drive,
    // deterministic dumps.
    let observed = run_formation(&world, FaultPlan::lossy(seed, 0.05), seed, 1, Some(&args));
    assert_eq!(observed, serial, "observation must not perturb the run");

    report.note(&format!(
        "seed = {seed}; corpus of the {} messages an Aircraft-VO negotiation \
         sends; {WORKERS} shard \
         workers / caller threads; floors: codec {CODEC_SPEEDUP_FLOOR}x, \
         dispatch {DISPATCH_SPEEDUP_FLOOR}x (asserted non-smoke)",
        envelopes.len(),
    ));
    report.note(
        "serial == queued == sharded outcomes; serial == parallel == replay \
         formation; crash round resumed and replayed; sheds typed \
         Overloaded with drain hints and survived by retry",
    );
    report.print();

    if !args.smoke {
        std::fs::write("BENCH_bus.json", report.to_json() + "\n").expect("writing BENCH_bus.json");
        eprintln!("wrote BENCH_bus.json");
    }
}
