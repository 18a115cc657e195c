//! Deterministic fault injection for the trust-VO SOA substrate.
//!
//! The paper's prototype runs negotiations over SOAP on real, fallible
//! networks; the in-process reproduction was perfectly reliable until
//! now. This crate restores the failure modes — message loss, transit
//! latency, duplicate delivery, endpoint crash/restart, partitions —
//! as a [`Transport`](trust_vo_soa::Transport) decorator over the
//! [`ServiceBus`](trust_vo_soa::ServiceBus), driven entirely by a `u64`
//! seed so every chaos run replays bit-for-bit.
//!
//! * [`rng`] — zero-dependency SplitMix64 and stable name hashing,
//! * [`plan`] — [`FaultPlan`]: per-link profiles, outage windows, named
//!   partitions; pure data,
//! * [`net`] — [`NetSim`]: the transport wrapper, its reply cache (the
//!   server-side idempotency layer), and live [`NetMetrics`].
//!
//! Pair it with `trust_vo_soa::run_negotiation_resilient` (retry +
//! checkpointed resume) to reproduce the paper's negotiations under
//! loss: the fig9_faulty_join bench sweeps loss rates over exactly this
//! stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod net;
pub mod plan;
pub mod rng;

pub use net::{NetMetrics, NetSim};
pub use plan::{FaultPlan, LinkProfile, Outage, Partition};
pub use rng::SplitMix64;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use trust_vo_credential::{CredentialAuthority, TimeRange, Timestamp};
    use trust_vo_negotiation::{Party, Strategy};
    use trust_vo_policy::{DisclosurePolicy, Resource, Term};
    use trust_vo_soa::simclock::CostModel;
    use trust_vo_soa::{
        run_negotiation, run_negotiation_resilient, Envelope, ResumePolicy, RetryPolicy,
        ServiceBus, SimClock, SimDuration, TnService, Transport,
    };
    use trust_vo_store::Database;
    use trust_vo_xmldoc::Element;

    use super::*;

    fn bus() -> ServiceBus {
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
        aircraft.trust_root(ca.public_key());
        aerospace.trust_root(ca.public_key());
        svc.register_party(aerospace);
        svc.register_party(aircraft);
        bus.register("tn", Arc::new(svc));
        bus
    }

    fn drive(net: &NetSim, seed: u64) -> trust_vo_soa::ResilientRun {
        run_negotiation_resilient(
            net,
            "tn",
            "Aerospace",
            "Aircraft",
            "VoMembership",
            Strategy::Standard,
            &RetryPolicy::standard(),
            &ResumePolicy::standard(),
            seed,
            trust_vo_obs::SpanLink::default(),
        )
        .expect("negotiation completes under faults")
    }

    #[test]
    fn reliable_plan_is_a_strict_pass_through() {
        // Baseline: the same resilient driver straight on the bus.
        // (Resumable sessions checkpoint, so the plain driver is not the
        // right comparison — the wrapper is what must add nothing.)
        let bare = bus();
        let baseline = run_negotiation_resilient(
            &bare,
            "tn",
            "Aerospace",
            "Aircraft",
            "VoMembership",
            Strategy::Standard,
            &RetryPolicy::standard(),
            &ResumePolicy::standard(),
            7,
            trust_vo_obs::SpanLink::default(),
        )
        .unwrap();
        let baseline_counts = bare.clock().counts();

        let net = NetSim::new(bus(), FaultPlan::reliable(42));
        let run = drive(&net, 7);
        assert_eq!(run.retries + run.resumes + run.restarts, 0);
        assert_eq!(run.run.credential_calls, baseline.run.credential_calls);
        assert_eq!(run.run.sequence_len, baseline.run.sequence_len);
        assert_eq!(run.run.sim_elapsed, baseline.run.sim_elapsed);
        assert_eq!(net.metrics().drops.get(), 0);
        assert_eq!(net.metrics().dups.get(), 0);
        // Same charge profile as the bare bus: the wrapper added nothing.
        assert_eq!(net.bus().clock().counts(), baseline_counts);

        // And the plain, non-resumable driver still agrees on the
        // negotiation outcome itself.
        let plain = bus();
        let plain_run = run_negotiation(
            &plain,
            "tn",
            "Aerospace",
            "Aircraft",
            "VoMembership",
            Strategy::Standard,
        )
        .unwrap();
        assert_eq!(plain_run.sequence_len, run.run.sequence_len);
        assert_eq!(plain_run.credential_calls, run.run.credential_calls);
    }

    #[test]
    fn same_seed_same_outcome_and_fault_schedule() {
        let mut fingerprints = Vec::new();
        for _ in 0..2 {
            let net = NetSim::new(bus(), FaultPlan::lossy(42, 0.2));
            let run = drive(&net, 7);
            fingerprints.push((
                run.retries,
                run.resumes,
                run.restarts,
                run.run.credential_calls,
                run.run.sim_elapsed,
                net.metrics().drops.get(),
                net.metrics().dups.get(),
                net.bus().clock().counts(),
            ));
        }
        assert_eq!(fingerprints[0], fingerprints[1]);
    }

    #[test]
    fn different_seeds_diverge() {
        let schedule = |seed| {
            let net = NetSim::new(bus(), FaultPlan::lossy(seed, 0.2));
            let run = drive(&net, 7);
            (run.retries, net.metrics().drops.get(), run.run.sim_elapsed)
        };
        // Not a hard guarantee for any single pair, so try a few.
        assert!(
            (1..=5u64).any(|s| schedule(s) != schedule(s + 100)),
            "five seed pairs produced identical fault schedules"
        );
    }

    #[test]
    fn heavy_loss_is_survived_by_retry_and_resume() {
        let net = NetSim::new(bus(), FaultPlan::lossy(1234, 0.2));
        let run = drive(&net, 99);
        assert!(
            net.metrics().drops.get() > 0,
            "0.2 loss plan dropped nothing"
        );
        assert!(run.retries > 0);
        assert_eq!(run.run.sequence_len, 1);
    }

    #[test]
    fn crash_window_wipes_volatile_sessions() {
        // Run phase 1 on the bare bus, then wrap it with a crash window
        // opening exactly now: the next call through the wrapper lands
        // inside it, crashes the endpoint, and the volatile session dies
        // with it — only the checkpointed-resume path can finish the job.
        let bus = bus();
        let start = bus
            .call(
                "tn",
                &Envelope::request(
                    "StartNegotiation",
                    Element::new("StartNegotiationRequest")
                        .attr("resumable", "true")
                        .child(Element::new("strategy").text("standard"))
                        .child(Element::new("requester").text("Aerospace"))
                        .child(Element::new("counterpartUrl").text("Aircraft"))
                        .child(Element::new("resource").text("VoMembership")),
                ),
            )
            .unwrap();
        let id: u64 = start
            .body
            .child_text("negotiationId")
            .unwrap()
            .parse()
            .unwrap();
        let policy = bus
            .call(
                "tn",
                &Envelope::request("PolicyExchange", Element::new("PolicyExchangeRequest"))
                    .with_negotiation(id),
            )
            .unwrap();
        assert!(policy.body.first("ResumeToken").is_some());

        let now = bus.clock().elapsed();
        let clock = bus.clock().clone();
        let plan = FaultPlan::reliable(5).outage("tn", now, SimDuration(now.0 + 1_000), true);
        let net = NetSim::new(bus, plan);
        let cred_req = Envelope::request(
            "CredentialExchange",
            Element::new("CredentialExchangeRequest"),
        )
        .with_negotiation(id);
        let err = net.call("tn", &cred_req).unwrap_err();
        assert!(err.is_transport());
        assert_eq!(net.metrics().crashes.get(), 1);
        // Past the window the endpoint is back up, but it has forgotten
        // the session.
        clock.advance(SimDuration::from_millis(2));
        let err = net.call("tn", &cred_req).unwrap_err();
        assert_eq!(err.code, "NoSuchNegotiation");
        // The durable checkpoint survived: presenting the token resumes.
        let token = policy.body.first("ResumeToken").unwrap().clone();
        let resumed = net
            .call(
                "tn",
                &Envelope::request(
                    "ResumeNegotiation",
                    Element::new("ResumeNegotiationRequest").child(token),
                ),
            )
            .unwrap();
        assert_eq!(resumed.body.get_attr("status"), Some("resumed"));
    }

    #[test]
    fn partition_blocks_then_heals() {
        // Party registration charges sim time, so anchor the window at
        // the clock's current position rather than zero.
        let bus = bus();
        let now = bus.clock().elapsed();
        let plan = FaultPlan::reliable(5).partition(
            "wan-split",
            vec!["tn".into()],
            now,
            SimDuration(now.0 + SimDuration::from_millis(100).0),
        );
        let net = NetSim::new(bus, plan);
        let req = Envelope::request(
            "StartNegotiation",
            Element::new("StartNegotiationRequest")
                .child(Element::new("strategy").text("standard"))
                .child(Element::new("requester").text("Aerospace"))
                .child(Element::new("counterpartUrl").text("Aircraft"))
                .child(Element::new("resource").text("VoMembership")),
        );
        let err = net.call("tn", &req).unwrap_err();
        assert!(err.is_transport());
        assert!(err.reason.contains("wan-split"));
        assert_eq!(net.metrics().partitioned.get(), 1);
        net.bus().clock().advance(SimDuration::from_millis(200));
        assert!(net.call("tn", &req).is_ok());
    }

    #[test]
    fn reply_cache_absorbs_keyed_duplicates() {
        // Force duplicates on every delivered call; keyed requests must
        // not double-execute.
        let plan = FaultPlan {
            default_link: LinkProfile {
                duplicate_probability: 1.0,
                ..LinkProfile::reliable()
            },
            ..FaultPlan::reliable(9)
        };
        let net = NetSim::new(bus(), plan);
        let run = drive(&net, 3);
        assert!(net.metrics().dups.get() > 0);
        assert_eq!(run.retries, 0);
        // Each logical call executed exactly once: the dedup layer
        // answered nothing from the cache (no retries), and the bus saw
        // one charge-set identical to the reliable baseline.
        let baseline = NetSim::new(bus(), FaultPlan::reliable(9));
        let _ = drive(&baseline, 3);
        assert_eq!(
            net.bus().clock().counts(),
            baseline.bus().clock().counts(),
            "keyed duplicates must not re-execute operations"
        );
    }

    #[test]
    fn netsim_traffic_rides_the_wire_boundary() {
        // NetSim delivers through ServiceBus::call, so every delivered
        // request is framed/unframed on the way through — visible as
        // bus.wire frame and byte counters once obs is attached.
        let bare = bus();
        let collector = trust_vo_obs::Collector::new();
        bare.clock().attach_obs(&collector);
        let net = NetSim::new(bare, FaultPlan::reliable(42));
        let _ = drive(&net, 7);
        let metrics = collector.metrics();
        assert!(metrics.counter("bus.wire.frames") > 0);
        assert!(metrics.counter("bus.wire.tx_bytes") > 0);
        assert!(metrics.counter("bus.wire.rx_bytes") > 0);
    }

    #[test]
    fn lost_response_verdict_is_recovered_from_the_cache() {
        // Under heavy loss some responses are dropped after the operation
        // executed server-side; the client's retry of the same key must
        // replay the cached verdict instead of re-running the exchange.
        let plan = FaultPlan {
            default_link: LinkProfile {
                drop_probability: 0.35,
                latency_min: SimDuration::ZERO,
                latency_max: SimDuration::ZERO,
                drop_timeout: SimDuration::from_millis(40),
                duplicate_probability: 0.0,
            },
            ..FaultPlan::reliable(4242)
        };
        let net = NetSim::new(bus(), plan);
        let run = drive(&net, 11);
        assert!(run.retries > 0);
        assert!(
            net.metrics().dedup_replays.get() > 0,
            "expected at least one cache replay under 35% loss (seed 4242)"
        );
        assert_eq!(run.run.sequence_len, 1);
    }
}
