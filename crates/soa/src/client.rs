//! The client application driving a negotiation through the web service.
//!
//! "A client application has also been developed, ClientWS.java,
//! implementing the negotiation protocol by invoking the Web service's
//! operations." (§6.2) This is its Rust analogue: it issues
//! `StartNegotiation`, one `PolicyExchange`, and then `CredentialExchange`
//! calls until the service reports completion, returning the accounting a
//! GUI would display.
//!
//! One driver, [`run_negotiation_resilient`], serves every transport:
//! every call carries an idempotency key and is retried under a
//! [`RetryPolicy`], and when retries are exhausted the driver falls back
//! to the checkpointed-resume protocol under a [`ResumePolicy`]: it
//! reconnects and presents the freshest `ResumeToken` the service handed
//! out, so the negotiation continues from the last verified disclosure
//! instead of restarting phase 1. On a reliable bus a caller passes
//! [`RetryPolicy::none`] and [`ResumePolicy::none`]: any fault is then
//! fatal, and since the driver never reconnects it asks for no
//! checkpoints.

use crate::body::{Body, SignedToken, StartNegotiation};
use crate::bus::Transport;
use crate::envelope::{Envelope, Fault};
use crate::retry::{call_with_retry, RetryPolicy};
use crate::simclock::SimDuration;
use trust_vo_negotiation::Strategy;
use trust_vo_obs::{Collector, FlightRecorder, SpanGuard, SpanLink, TraceContext};

/// Stamp `env` with the context of the `client.call` span just opened
/// under `parent`, so every downstream hop (retry attempt, fault
/// transport, bus, service) parents its spans under that call. Inert
/// guards (disabled obs) and untraced links leave the envelope alone.
fn stamp(env: Envelope, span: &SpanGuard, parent: SpanLink) -> Envelope {
    match span.id() {
        Some(id) if span.trace_id() != 0 => env.with_trace(TraceContext {
            trace_id: span.trace_id(),
            span_id: id,
            parent_span_id: parent.parent,
        }),
        _ => env,
    }
}

/// The result of a driven negotiation, as the client observes it.
#[derive(Debug, Clone)]
pub struct ClientRun {
    /// The negotiation id the service assigned.
    pub negotiation_id: u64,
    /// Number of credential-exchange calls made.
    pub credential_calls: usize,
    /// Disclosures listed in the trust sequence.
    pub sequence_len: usize,
    /// Simulated time consumed by this run.
    pub sim_elapsed: SimDuration,
}

/// Reconnect behaviour of the resilient driver, on top of the per-call
/// [`RetryPolicy`]: how many times a *session* may be re-established
/// (fresh start or token resume) and how long to back off before each
/// reconnect, charged to the sim clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumePolicy {
    /// Maximum session re-establishment cycles before giving up.
    pub max_cycles: u32,
    /// Sim-time pause before each reconnect attempt.
    pub reconnect_delay: SimDuration,
}

impl ResumePolicy {
    /// Default profile used by the benches: up to 8 reconnect cycles,
    /// 500 ms (sim) apart.
    pub fn standard() -> Self {
        ResumePolicy {
            max_cycles: 8,
            reconnect_delay: SimDuration::from_millis(500),
        }
    }

    /// Never reconnect: the first exhausted retry budget is fatal.
    pub fn none() -> Self {
        ResumePolicy {
            max_cycles: 0,
            reconnect_delay: SimDuration::ZERO,
        }
    }
}

/// Accounting for a resilient run: how the negotiation ended plus the
/// recovery work it took, counted whether it completed or not.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    /// The completed negotiation as a plain run, or the fault that ended
    /// it.
    pub outcome: Result<ClientRun, Fault>,
    /// Transport-level call retries across all operations.
    pub retries: u64,
    /// Sessions re-established via `ResumeNegotiation` with a token.
    pub resumes: u64,
    /// Sessions restarted from phase 1: no token was held yet, or the
    /// token's checkpoint was gone.
    pub restarts: u64,
}

/// SplitMix64 finalizer: derives a fresh idempotency key for each logical
/// call from the driver's `key_seed` and a monotone counter, so retries of
/// the same call share a key while distinct calls never collide.
fn mix_key(seed: u64, counter: u64) -> u64 {
    let mut z = seed ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Faults the driver answers by re-establishing the session rather than
/// giving up: exhausted transport retries, and `NoSuchNegotiation`, which
/// is what a crashed-and-restarted endpoint reports for a session that
/// lived only in its volatile memory.
fn session_lost(fault: &Fault) -> bool {
    fault.is_transport() || fault.code == "NoSuchNegotiation"
}

#[allow(clippy::too_many_arguments)]
fn call_attempt(
    transport: &dyn Transport,
    obs: &Collector,
    parent: SpanLink,
    service: &str,
    request: Envelope,
    retry: &RetryPolicy,
    retries: &mut u64,
    flight: &mut FlightRecorder,
) -> Result<Envelope, Fault> {
    let mut span = obs.span_linked("client.call", parent);
    span.field("operation", request.operation());
    let request = stamp(request, &span, parent);
    let sim_now = |t: &dyn Transport| t.clock().elapsed().0;
    flight.note(sim_now(transport), "call", request.operation().to_owned());
    let attempted = call_with_retry(transport, service, &request, retry);
    *retries += attempted.retries();
    if attempted.retries() > 0 {
        flight.note(
            sim_now(transport),
            "retry",
            format!(
                "{} needed {} attempts",
                request.operation(),
                attempted.attempts
            ),
        );
    }
    if let Err(f) = &attempted.outcome {
        flight.note(
            sim_now(transport),
            "fault",
            format!("{} {f}", request.operation()),
        );
    }
    span.field("ok", attempted.outcome.is_ok());
    attempted.outcome
}

/// Drive a negotiation to completion over an unreliable [`Transport`].
///
/// Every call carries an idempotency key derived from `key_seed` and is
/// retried under `retry`; when a call's retry budget is exhausted — or the
/// service forgot the session after a crash — the driver reconnects under
/// `resume`: with the freshest `ResumeToken` it holds it replays from the
/// service's durable checkpoint, otherwise it restarts from phase 1. A
/// token whose checkpoint is gone (`NoSuchCheckpoint`: the negotiation
/// already ended, its final reply lost) is dropped, and the driver
/// restarts from phase 1 within the same reconnect budget. When `resume`
/// allows a reconnect (`max_cycles > 0`) the negotiation is requested
/// with `resumable="true"`, so the service checkpoints after phase 1 and
/// after every verified disclosure; a driver that never reconnects would
/// never present a token, so it asks for none.
///
/// Tracing: the whole run — every session cycle, resume, and restart —
/// lives under **one** `client.negotiation` span parented at `link`, so
/// pre-crash work and post-resume work stay causally linked in the same
/// trace (keyed by the negotiation, not by the session). Callers without
/// a trace pass `SpanLink::default()`; when obs is enabled the run then
/// mints its own trace id and becomes a root. A [`FlightRecorder`] notes
/// every call/retry/resume/restart and is dumped into the collector on a
/// terminal fault, abandonment (reconnect budget exhausted), or failed
/// resume. The returned [`ResilientRun`] counts the retries, resumes and
/// restarts on either outcome.
#[allow(clippy::too_many_arguments)]
pub fn run_negotiation_resilient(
    transport: &dyn Transport,
    service: &str,
    requester: &str,
    controller: &str,
    resource: &str,
    strategy: Strategy,
    retry: &RetryPolicy,
    resume: &ResumePolicy,
    key_seed: u64,
    link: SpanLink,
) -> ResilientRun {
    let clock = transport.clock();
    let started_at = clock.elapsed();
    let mut key_counter = 0u64;
    let mut retries = 0u64;
    let mut resumes = 0u64;
    let mut restarts = 0u64;
    let mut cycles = 0u32;
    let mut token: Option<SignedToken> = None;
    let mut credential_calls = 0usize;
    let mut sequence_len = 0usize;
    let mut negotiation_id;

    let obs = clock.collector();
    let link = if obs.is_enabled() && link.trace_id == 0 {
        SpanLink {
            trace_id: obs.new_trace_id(),
            parent: link.parent,
        }
    } else {
        link
    };
    let mut neg_span = obs.span_linked("client.negotiation", link);
    neg_span.field("requester", requester);
    neg_span.field("resource", resource);
    let neg_link = neg_span.link();
    let mut flight = FlightRecorder::for_collector(&obs);
    let label = format!("neg-{key_seed:016x}");
    // Burn one reconnect cycle: charge the delay (under its own span, so
    // the wait is attributable) and report whether the budget allowed it.
    let reconnect = |cycles: &mut u32| -> bool {
        if *cycles >= resume.max_cycles {
            return false;
        }
        *cycles += 1;
        let mut span = obs.span_linked("client.reconnect", neg_link);
        span.field("cycle", *cycles);
        clock.advance(resume.reconnect_delay);
        true
    };
    // Count a restart from phase 1 and note why.
    let restart = |restarts: &mut u64, flight: &mut FlightRecorder, why: &str| {
        *restarts += 1;
        let detail = format!("{why}; restarting from phase 1");
        flight.note(clock.elapsed().0, "restart", detail);
    };
    // Record a terminal failure — "abandoned" when the session was lost
    // with the reconnect budget spent, `otherwise` for any other fault:
    // note it in the flight recorder, dump the recorder as a post-mortem
    // artifact, and hand the fault back.
    let fatal = |flight: &mut FlightRecorder, fault: Fault, otherwise: &str| {
        let reason = if session_lost(&fault) {
            "abandoned"
        } else {
            otherwise
        };
        flight.note(clock.elapsed().0, "dead", format!("{reason}: {fault}"));
        flight.dump(&obs, reason, &label);
        fault
    };

    let outcome = 'run: {
        'session: loop {
            // Establish a session: resume from the freshest token if one is
            // held, otherwise start over from phase 1.
            let remaining_bound;
            if let Some(tok) = token.clone() {
                key_counter += 1;
                let env = Envelope::new(Body::ResumeNegotiation(tok))
                    .with_idempotency(mix_key(key_seed, key_counter));
                match call_attempt(
                    transport,
                    &obs,
                    neg_link,
                    service,
                    env,
                    retry,
                    &mut retries,
                    &mut flight,
                ) {
                    Ok(resp) => {
                        resumes += 1;
                        if obs.is_enabled() {
                            obs.counter_add("client.resumes", 1);
                        }
                        negotiation_id = match resp.negotiation_id {
                            Some(id) => id,
                            None => {
                                let fault =
                                    Fault::new("BadResponse", "resume lacks negotiation id");
                                break 'run Err(fatal(&mut flight, fault, "failed-resume"));
                            }
                        };
                        flight.note(
                            clock.elapsed().0,
                            "resume",
                            format!("negotiation {negotiation_id} resumed from checkpoint"),
                        );
                        remaining_bound = match &*resp.body {
                            Body::ResumeNegotiationResponse(reply) => reply.remaining as usize,
                            _ => sequence_len,
                        };
                    }
                    Err(f) if session_lost(&f) && reconnect(&mut cycles) => {
                        continue 'session;
                    }
                    // The slot is gone: the service finished the negotiation
                    // (its reply was lost) or failed it. Either way phase 1
                    // runs again, and a trust failure fails again.
                    Err(f) if f.code == "NoSuchCheckpoint" && reconnect(&mut cycles) => {
                        token = None;
                        restart(&mut restarts, &mut flight, "checkpoint gone");
                        continue 'session;
                    }
                    Err(f) => break 'run Err(fatal(&mut flight, f, "failed-resume")),
                }
            } else {
                key_counter += 1;
                let env = Envelope::new(Body::StartNegotiation(StartNegotiation {
                    strategy,
                    requester: requester.to_owned(),
                    controller: controller.to_owned(),
                    resource: resource.to_owned(),
                    resumable: resume.max_cycles > 0,
                }))
                .with_idempotency(mix_key(key_seed, key_counter));
                let start = match call_attempt(
                    transport,
                    &obs,
                    neg_link,
                    service,
                    env,
                    retry,
                    &mut retries,
                    &mut flight,
                ) {
                    Ok(resp) => resp,
                    Err(f) if f.is_transport() && reconnect(&mut cycles) => {
                        restart(&mut restarts, &mut flight, "no token held");
                        continue 'session;
                    }
                    Err(f) => break 'run Err(fatal(&mut flight, f, "terminal-fault")),
                };
                let id = match start.negotiation_id {
                    Some(id) => id,
                    None => {
                        let fault = Fault::new("BadResponse", "missing negotiation id");
                        break 'run Err(fatal(&mut flight, fault, "terminal-fault"));
                    }
                };

                key_counter += 1;
                let env = Envelope::new(Body::PolicyExchange)
                    .with_negotiation(id)
                    .with_idempotency(mix_key(key_seed, key_counter));
                match call_attempt(
                    transport,
                    &obs,
                    neg_link,
                    service,
                    env,
                    retry,
                    &mut retries,
                    &mut flight,
                ) {
                    Ok(policy) => {
                        (sequence_len, token) = match &*policy.body {
                            Body::PolicyExchangeResponse(reply) => {
                                (reply.sequence.len(), reply.token.clone())
                            }
                            _ => (0, None),
                        };
                        negotiation_id = id;
                        remaining_bound = sequence_len;
                    }
                    Err(f) if session_lost(&f) && reconnect(&mut cycles) => {
                        if token.is_none() {
                            restart(&mut restarts, &mut flight, "no token held");
                        }
                        continue 'session;
                    }
                    Err(f) => break 'run Err(fatal(&mut flight, f, "terminal-fault")),
                }
            }

            // Phase 2 on this session: exchange credentials until completion,
            // refreshing the held token after every verified disclosure.
            let mut calls_this_session = 0usize;
            loop {
                key_counter += 1;
                let env = Envelope::new(Body::CredentialExchange)
                    .with_negotiation(negotiation_id)
                    .with_idempotency(mix_key(key_seed, key_counter));
                match call_attempt(
                    transport,
                    &obs,
                    neg_link,
                    service,
                    env,
                    retry,
                    &mut retries,
                    &mut flight,
                ) {
                    Ok(resp) => {
                        credential_calls += 1;
                        calls_this_session += 1;
                        if let Body::CredentialExchangeResponse(reply) = &*resp.body {
                            if let Some(t) = &reply.token {
                                token = Some(t.clone());
                            }
                            if reply.is_completed() {
                                break 'session;
                            }
                        }
                        if calls_this_session > remaining_bound + 1 {
                            let fault =
                                Fault::new("ProtocolError", "service never reported completion");
                            break 'run Err(fatal(&mut flight, fault, "terminal-fault"));
                        }
                    }
                    Err(f) if session_lost(&f) && reconnect(&mut cycles) => {
                        if token.is_none() {
                            restart(&mut restarts, &mut flight, "no token held");
                        }
                        continue 'session;
                    }
                    Err(f) => break 'run Err(fatal(&mut flight, f, "terminal-fault")),
                }
            }
        }

        neg_span.field("resumes", resumes as i64);
        neg_span.field("restarts", restarts as i64);
        let sim_elapsed = SimDuration(clock.elapsed().0 - started_at.0);
        Ok(ClientRun {
            negotiation_id,
            credential_calls,
            sequence_len,
            sim_elapsed,
        })
    };
    ResilientRun {
        outcome,
        retries,
        resumes,
        restarts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::ServiceBus;
    use crate::simclock::{CostModel, SimClock};
    use crate::tn_service::TnService;
    use std::sync::Arc;
    use trust_vo_credential::{CredentialAuthority, TimeRange, Timestamp};
    use trust_vo_negotiation::Party;
    use trust_vo_policy::{DisclosurePolicy, Resource, Term};
    use trust_vo_store::Database;

    fn setup() -> ServiceBus {
        setup_with(false).0
    }

    /// The service world; with `counter_requirement`, Aerospace guards its
    /// quality credential behind Aircraft's accreditation, so the trust
    /// sequence has two disclosures instead of one.
    fn setup_with(counter_requirement: bool) -> (ServiceBus, Arc<TnService>) {
        let clock = SimClock::new(
            CostModel::paper_testbed(),
            Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
        );
        let bus = ServiceBus::new(clock.clone());
        let svc = TnService::new(clock, Database::new());

        let mut ca = CredentialAuthority::new("AAA");
        let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
        let mut aircraft = Party::new("Aircraft");
        let mut aerospace = Party::new("Aerospace");
        let quality = ca
            .issue(
                "WebDesignerQuality",
                "Aerospace",
                aerospace.keys.public,
                vec![],
                window,
            )
            .unwrap();
        aerospace.profile.add(quality);
        aircraft.policies.add(DisclosurePolicy::rule(
            "p1",
            Resource::service("VoMembership"),
            vec![Term::of_type("WebDesignerQuality")],
        ));
        if counter_requirement {
            let accr = ca
                .issue(
                    "AAACreditation",
                    "Aircraft",
                    aircraft.keys.public,
                    vec![],
                    window,
                )
                .unwrap();
            aircraft.profile.add(accr);
            aircraft.policies.add(DisclosurePolicy::deliv(
                "d1",
                Resource::credential("AAACreditation"),
            ));
            aerospace.policies.add(DisclosurePolicy::rule(
                "p2",
                Resource::credential("WebDesignerQuality"),
                vec![Term::of_type("AAACreditation")],
            ));
        }
        aircraft.trust_root(ca.public_key());
        aerospace.trust_root(ca.public_key());
        svc.register_party(aerospace);
        svc.register_party(aircraft);
        let svc = Arc::new(svc);
        bus.register("tn", svc.clone());
        (bus, svc)
    }

    /// The driver on a reliable bus: no retries, no reconnects.
    fn plain(
        bus: &ServiceBus,
        service: &str,
        requester: &str,
        strategy: Strategy,
    ) -> Result<ClientRun, Fault> {
        run_negotiation_resilient(
            bus,
            service,
            requester,
            "Aircraft",
            "VoMembership",
            strategy,
            &RetryPolicy::none(),
            &ResumePolicy::none(),
            0xD00D,
            SpanLink::default(),
        )
        .outcome
    }

    #[test]
    fn client_drives_negotiation_to_completion() {
        let bus = setup();
        let run = plain(&bus, "tn", "Aerospace", Strategy::Standard).unwrap();
        assert_eq!(run.sequence_len, 1);
        assert!(run.credential_calls >= 1);
        assert!(run.sim_elapsed > SimDuration::ZERO);
    }

    #[test]
    fn client_surfaces_faults() {
        let bus = setup();
        let err = plain(&bus, "tn", "Ghost", Strategy::Standard).unwrap_err();
        assert_eq!(err.code, "UnknownParty");
        let err = plain(&bus, "nope", "Aerospace", Strategy::Standard).unwrap_err();
        assert_eq!(err.code, "NoSuchService");
    }

    /// A deterministic chaos wrapper: fails chosen call indices with a
    /// transport fault, loses the replies of others after the service
    /// handled them, and can crash the endpoint before a chosen call.
    struct Chaos {
        bus: ServiceBus,
        calls: std::sync::atomic::AtomicU64,
        fail_calls: std::collections::HashSet<u64>,
        lose_replies: std::collections::HashSet<u64>,
        fail_all: bool,
        crash_before: Option<u64>,
    }

    impl Chaos {
        fn new(bus: ServiceBus) -> Self {
            Chaos {
                bus,
                calls: std::sync::atomic::AtomicU64::new(0),
                fail_calls: Default::default(),
                lose_replies: Default::default(),
                fail_all: false,
                crash_before: None,
            }
        }
    }

    impl Transport for Chaos {
        fn call(&self, service: &str, request: &Envelope) -> Result<Envelope, Fault> {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if self.crash_before == Some(n) {
                if let Some(ep) = self.bus.endpoint(service) {
                    ep.on_crash();
                }
            }
            if self.fail_all || self.fail_calls.contains(&n) {
                return Err(Fault::transport("Timeout", "injected"));
            }
            let reply = self.bus.call(service, request);
            if self.lose_replies.contains(&n) {
                return Err(Fault::transport("Timeout", "reply lost"));
            }
            reply
        }

        fn clock(&self) -> &crate::simclock::SimClock {
            self.bus.clock()
        }
    }

    fn resilient(chaos: &Chaos, retry: &RetryPolicy, resume: &ResumePolicy) -> ResilientRun {
        run_negotiation_resilient(
            chaos,
            "tn",
            "Aerospace",
            "Aircraft",
            "VoMembership",
            Strategy::Standard,
            retry,
            resume,
            0xD00D,
            SpanLink::default(),
        )
    }

    #[test]
    fn resilient_driver_matches_plain_on_reliable_transport() {
        let bus = setup();
        let plain = plain(&bus, "tn", "Aerospace", Strategy::Standard).unwrap();
        let bus2 = setup();
        let chaos = Chaos::new(bus2);
        let run = resilient(&chaos, &RetryPolicy::standard(), &ResumePolicy::standard());
        let completed = run.outcome.as_ref().unwrap();
        assert_eq!(run.retries, 0);
        assert_eq!(run.resumes, 0);
        assert_eq!(run.restarts, 0);
        assert_eq!(completed.sequence_len, plain.sequence_len);
        assert_eq!(completed.credential_calls, plain.credential_calls);
    }

    #[test]
    fn resilient_driver_retries_transport_faults() {
        let bus = setup();
        let mut chaos = Chaos::new(bus);
        // Calls: 0 = Start, 1 = Policy, 2 = first CredentialExchange.
        chaos.fail_calls.insert(2);
        let run = resilient(&chaos, &RetryPolicy::standard(), &ResumePolicy::none());
        let completed = run.outcome.as_ref().unwrap();
        assert_eq!(run.retries, 1);
        assert_eq!(run.resumes, 0);
        assert_eq!(run.restarts, 0);
        assert_eq!(completed.credential_calls, 1);
    }

    #[test]
    fn resilient_driver_resumes_after_endpoint_crash() {
        let bus = setup();
        let mut chaos = Chaos::new(bus);
        // Crash the service right before the first CredentialExchange:
        // volatile sessions are wiped, the durable checkpoint survives.
        chaos.crash_before = Some(2);
        let run = resilient(&chaos, &RetryPolicy::none(), &ResumePolicy::standard());
        let completed = run.outcome.as_ref().unwrap();
        assert_eq!(run.resumes, 1);
        assert_eq!(run.restarts, 0);
        assert_eq!(completed.credential_calls, 1);
        assert_eq!(completed.sequence_len, 1);
    }

    #[test]
    fn resilient_driver_restarts_when_no_token_is_held() {
        let bus = setup();
        let mut chaos = Chaos::new(bus);
        // Fail the very first StartNegotiation; no token exists yet, so
        // the driver must start over from phase 1.
        chaos.fail_calls.insert(0);
        let run = resilient(&chaos, &RetryPolicy::none(), &ResumePolicy::standard());
        assert!(run.outcome.is_ok());
        assert_eq!(run.restarts, 1);
        assert_eq!(run.resumes, 0);
    }

    /// The completing `CredentialExchange` is delivered, so the service
    /// finishes the negotiation and purges its checkpoint slot, but the
    /// reply is lost. The held token then resumes nothing
    /// (`NoSuchCheckpoint`): the driver drops it and restarts from phase 1
    /// instead of reporting a failed negotiation.
    #[test]
    fn lost_completion_reply_restarts_from_phase_one() {
        let bus = setup();
        let mut chaos = Chaos::new(bus);
        // Calls: 0 = Start, 1 = Policy, 2 = the completing exchange.
        chaos.lose_replies.insert(2);
        let run = resilient(&chaos, &RetryPolicy::none(), &ResumePolicy::standard());
        let completed = run.outcome.as_ref().unwrap();
        assert_eq!(run.restarts, 1);
        assert_eq!(run.resumes, 0);
        assert_eq!(completed.credential_calls, 1);
        // 3 = the refused resume; 4, 5, 6 = the restarted negotiation.
        assert_eq!(chaos.calls.load(std::sync::atomic::Ordering::SeqCst), 7);
    }

    /// Replies lost without a crash: the client resumes while the session
    /// it lost track of is still open, and once more when the resume's own
    /// reply is lost. Each resume supersedes the session on the slot, so
    /// the completed negotiation leaves no session open.
    #[test]
    fn resumes_after_lost_replies_leave_no_open_session() {
        let (bus, svc) = setup_with(true);
        let mut chaos = Chaos::new(bus);
        // 0 = Start, 1 = Policy, 2 = first exchange (reply lost), 3 = a
        // resume (reply lost), 4 = a resume, 5 = the completing exchange.
        chaos.lose_replies.extend([2, 3]);
        let run = resilient(&chaos, &RetryPolicy::none(), &ResumePolicy::standard());
        let completed = run.outcome.as_ref().unwrap();
        assert_eq!(completed.sequence_len, 2);
        assert_eq!(run.resumes, 1);
        assert_eq!(run.restarts, 0);
        assert_eq!(chaos.calls.load(std::sync::atomic::Ordering::SeqCst), 6);
        assert_eq!(svc.resumed_count(), 2);
        assert_eq!(svc.session_counts(), (0, 3));
    }

    #[test]
    fn resilient_driver_gives_up_after_max_cycles() {
        let bus = setup();
        let mut chaos = Chaos::new(bus);
        chaos.fail_all = true;
        let run = resilient(
            &chaos,
            &RetryPolicy::none(),
            &ResumePolicy {
                max_cycles: 2,
                reconnect_delay: SimDuration::from_millis(1),
            },
        );
        assert!(run.outcome.unwrap_err().is_transport());
        // 1 original + 2 reconnect cycles = 3 StartNegotiation attempts.
        assert_eq!(chaos.calls.load(std::sync::atomic::Ordering::SeqCst), 3);
        // The failed run still reports its recovery work: each reconnect
        // restarted phase 1, as no token was ever held.
        assert_eq!(run.restarts, 2);
        assert_eq!(run.resumes, 0);
    }

    #[test]
    fn sim_elapsed_scales_with_strategy() {
        // Suspicious adds ownership-proof charges, so it must cost at
        // least as much virtual time as standard on the same workload.
        let standard = plain(&setup(), "tn", "Aerospace", Strategy::Standard).unwrap();
        let suspicious = plain(&setup(), "tn", "Aerospace", Strategy::Suspicious).unwrap();
        assert!(suspicious.sim_elapsed >= standard.sim_elapsed);
    }
}
