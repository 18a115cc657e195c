//! Formation through the TN *web service* over an unreliable transport
//! (paper §6: the toolkit invokes trust negotiation "as a web service
//! when needed").
//!
//! A [`Formation`] sourced from a [`ServiceSource`] routes every trust
//! negotiation through a [`TnService`] behind any [`Transport`] — the bare
//! [`ServiceBus`](trust_vo_soa::ServiceBus) or the fault-injecting
//! `trust-vo-netsim` wrapper — using the resilient client driver
//! (per-call retry with capped backoff, plus checkpointed negotiation
//! resume when an endpoint crashes mid-exchange).
//!
//! The decision procedure — candidate ranking, attempt order, reputation
//! updates, GUI charges, certificate issue — is the one loop every
//! formation runs; only the verdict source differs. Per-role disclosure
//! policies live in a dedicated controller identity per role (see
//! [`register_formation_parties`]), mirroring how the paper's initiator
//! authors "policies … for the specific VO and in particular for the
//! roles" (§5.1).

use std::collections::BTreeMap;

use trust_vo_negotiation::Strategy;
use trust_vo_obs::SpanLink;
use trust_vo_soa::{
    run_negotiation_resilient, ResilientRun, ResumePolicy, RetryPolicy, TnService, Transport,
};

use crate::admitted::AdmissionControl;
use crate::contract::Contract;
use crate::error::VoError;
use crate::formation::{initiator_party_for_role, Formation, FormedVo, NegotiationSource};
use crate::mailbox::MailboxSystem;
use crate::member::ServiceProvider;
use crate::registry::ServiceRegistry;
use crate::reputation::ReputationLedger;

/// Recovery work the transport-driven formation performed, summed over
/// every trust negotiation it ran, whether it completed or failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FormationResilience {
    /// Negotiations run through the service.
    pub negotiations: u64,
    /// Transport-level call retries.
    pub retries: u64,
    /// Sessions resumed from a durable checkpoint.
    pub resumes: u64,
    /// Sessions restarted from phase 1.
    pub restarts: u64,
}

impl FormationResilience {
    pub(crate) fn absorb(&mut self, run: &ResilientRun) {
        self.negotiations += 1;
        self.retries += run.retries;
        self.resumes += run.resumes;
        self.restarts += run.restarts;
    }
}

/// The service-registry name of the initiator's per-role controller
/// identity.
pub fn controller_name(initiator: &str, role: &str) -> String {
    format!("{initiator}/{role}")
}

/// Registers everything the TN service needs to arbitrate this
/// formation: one controller identity per contract role (the initiator's
/// party with that role's disclosure policies merged in) and every
/// candidate provider under its own name.
pub fn register_formation_parties(
    service: &TnService,
    contract: &Contract,
    initiator: &ServiceProvider,
    providers: &BTreeMap<String, ServiceProvider>,
) {
    for role in &contract.roles {
        let mut controller = initiator_party_for_role(initiator, contract, &role.name);
        controller.name = controller_name(initiator.name(), &role.name);
        service.register_party(controller);
    }
    for provider in providers.values() {
        service.register_party(provider.party.clone());
    }
}

/// FNV-1a over a name pair: a stable per-(role, candidate) word for
/// deriving idempotency-key seeds.
fn pair_seed(seed: u64, role: &str, candidate: &str) -> u64 {
    let mut h: u64 = seed ^ 0xCBF2_9CE4_8422_2325;
    for b in role
        .as_bytes()
        .iter()
        .chain([0xFFu8].iter())
        .chain(candidate.as_bytes())
    {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The TN web service a formation negotiates through: the service
/// registered as `service` on `transport`, driven by the resilient client.
///
/// Each SOAP call carries an idempotency key and is retried under `retry`;
/// exhausted budgets and endpoint crashes fall back to checkpointed resume
/// under `resume`. `seed` parameterizes the per-negotiation
/// idempotency-key streams, so a fixed `(seed, FaultPlan)` pair replays
/// the identical formation.
pub struct ServiceSource<'a> {
    /// The transport the service is reached through.
    pub transport: &'a dyn Transport,
    /// The service's registered name.
    pub service: &'a str,
    /// Per-call retry budget.
    pub retry: RetryPolicy,
    /// Session resume budget.
    pub resume: ResumePolicy,
    /// Idempotency-key seed.
    pub seed: u64,
}

impl<'a> ServiceSource<'a> {
    /// `service` on `transport` under the standard retry and resume
    /// policies.
    pub fn standard(transport: &'a dyn Transport, service: &'a str, seed: u64) -> Self {
        ServiceSource {
            transport,
            service,
            retry: RetryPolicy::standard(),
            resume: ResumePolicy::standard(),
            seed,
        }
    }

    /// One membership negotiation between `candidate` and the initiator's
    /// controller identity for `role`, its spans under `link`.
    pub(crate) fn negotiate(
        &self,
        initiator: &str,
        role: &str,
        candidate: &str,
        strategy: Strategy,
        link: SpanLink,
    ) -> ResilientRun {
        run_negotiation_resilient(
            self.transport,
            self.service,
            candidate,
            &controller_name(initiator, role),
            "VoMembership",
            strategy,
            &self.retry,
            &self.resume,
            pair_seed(self.seed, role, candidate),
            link,
        )
    }
}

/// The serial, admission-gated formation through the TN service
/// registered as `service_name` on `transport`: a [`Formation`] with
/// exactly these fields. Generic so a caller generic over its transport
/// can pass it on; the formation itself runs over `&dyn Transport`.
#[allow(clippy::too_many_arguments)]
pub fn form_vo_resilient_admitted<T: Transport + ?Sized>(
    contract: Contract,
    initiator: &ServiceProvider,
    providers: &BTreeMap<String, ServiceProvider>,
    registry: &ServiceRegistry,
    mailboxes: &mut MailboxSystem,
    reputation: &mut ReputationLedger,
    transport: &T,
    service_name: &str,
    fallback: Strategy,
    retry: &RetryPolicy,
    resume: &ResumePolicy,
    seed: u64,
    admission: &AdmissionControl,
) -> Result<(FormedVo, FormationResilience), VoError> {
    let source = ServiceSource {
        transport: &transport,
        service: service_name,
        retry: *retry,
        resume: *resume,
        seed,
    };
    Formation::new(
        initiator,
        providers,
        registry,
        NegotiationSource::Service(source),
    )
    .with_strategy(fallback)
    .with_admission(Some(admission))
    .run(contract, mailboxes, reputation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formation::testworld::{clock, member_summary, world, DeadNet};
    use std::sync::atomic::{AtomicBool, Ordering};
    use trust_vo_soa::simclock::SimClock;
    use trust_vo_soa::{Envelope, Fault, ServiceBus};

    fn run(
        formation: Formation<'_>,
        contract: &Contract,
        reputation: &mut ReputationLedger,
    ) -> Result<(FormedVo, FormationResilience), VoError> {
        formation.run(contract.clone(), &mut MailboxSystem::new(), reputation)
    }

    #[test]
    fn resilient_formation_admits_the_same_members_as_in_process() {
        let w = world();

        let in_process_clock = clock();
        let (in_process, _) = run(
            w.in_process(&in_process_clock),
            &w.contract,
            &mut ReputationLedger::new(),
        )
        .unwrap();

        // Differs from in-process in the negotiation source alone.
        let bus = w.service_bus();
        let (vo, stats) = run(
            w.formation(NegotiationSource::Service(ServiceSource::standard(
                &bus, "tn", 42,
            ))),
            &w.contract,
            &mut ReputationLedger::new(),
        )
        .unwrap();

        let summary = |vo: &FormedVo| {
            vo.members()
                .iter()
                .map(|m| (m.provider.clone(), m.role.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(summary(&in_process), summary(&vo));
        // Two candidates negotiated (Shady Co failed, Aerospace passed);
        // nothing needed recovery on a perfect bus.
        assert_eq!(stats.negotiations, 2);
        assert_eq!(stats.retries + stats.resumes + stats.restarts, 0);
    }

    #[test]
    fn parallel_resilient_formation_matches_serial() {
        let w = world();

        let serial_bus = w.service_bus();
        let mut serial_rep = ReputationLedger::new();
        let (serial_vo, serial_stats) = run(
            w.formation(NegotiationSource::Service(ServiceSource::standard(
                &serial_bus,
                "tn",
                42,
            ))),
            &w.contract,
            &mut serial_rep,
        )
        .unwrap();

        // Differs from serial in the worker count alone.
        let parallel_bus = w.service_bus();
        let mut parallel_rep = ReputationLedger::new();
        let (parallel_vo, parallel_stats) = run(
            w.formation(NegotiationSource::Service(ServiceSource::standard(
                &parallel_bus,
                "tn",
                42,
            )))
            .with_workers(4),
            &w.contract,
            &mut parallel_rep,
        )
        .unwrap();

        assert_eq!(member_summary(&serial_vo), member_summary(&parallel_vo));
        assert_eq!(serial_stats, parallel_stats);
        assert_eq!(serial_bus.clock().elapsed(), parallel_bus.clock().elapsed());
        assert_eq!(serial_rep.get("Aerospace"), parallel_rep.get("Aerospace"));
    }

    #[test]
    fn unregistered_service_fails_every_candidate() {
        let w = world();
        // Nothing registered under "tn": every call gets a NoSuchService
        // fault — terminal, surfaced as a failed verdict per candidate.
        let bus = ServiceBus::new(clock());
        let source = ServiceSource {
            resume: ResumePolicy::none(),
            ..ServiceSource::standard(&bus, "tn", 1)
        };
        let err = run(
            w.formation(NegotiationSource::Service(source)),
            &w.contract,
            &mut ReputationLedger::new(),
        )
        .unwrap_err();
        assert!(matches!(err, VoError::RoleUnfilled { .. }), "got {err:?}");
    }

    /// A bus that loses the first request it is handed.
    struct LoseFirst {
        bus: ServiceBus,
        lost: AtomicBool,
    }

    impl Transport for LoseFirst {
        fn call(&self, service: &str, request: &Envelope) -> Result<Envelope, Fault> {
            if self.lost.swap(true, Ordering::SeqCst) {
                self.bus.call(service, request)
            } else {
                Err(Fault::transport("Timeout", "request lost"))
            }
        }
        fn clock(&self) -> &SimClock {
            self.bus.clock()
        }
    }

    /// The lost request is Shady Co's `StartNegotiation`: retried once,
    /// its negotiation is then refused at `PolicyExchange`. The failed
    /// negotiation's retry still counts.
    #[test]
    fn a_failed_negotiation_keeps_its_recovery_work() {
        let w = world();
        let net = LoseFirst {
            bus: w.service_bus(),
            lost: AtomicBool::new(false),
        };
        let (vo, stats) = run(
            w.formation(NegotiationSource::Service(ServiceSource::standard(
                &net, "tn", 42,
            ))),
            &w.contract,
            &mut ReputationLedger::new(),
        )
        .unwrap();
        assert!(vo.is_member("Aerospace"));
        assert!(!vo.is_member("Shady Co"));
        assert_eq!(
            stats,
            FormationResilience {
                negotiations: 2,
                retries: 1,
                resumes: 0,
                restarts: 0,
            }
        );
    }

    #[test]
    fn dead_transport_aborts_formation() {
        let w = world();
        let net = DeadNet(clock());
        let source = ServiceSource {
            transport: &net,
            service: "tn",
            retry: RetryPolicy::none(),
            resume: ResumePolicy::none(),
            seed: 1,
        };
        let err = run(
            w.formation(NegotiationSource::Service(source)),
            &w.contract,
            &mut ReputationLedger::new(),
        )
        .unwrap_err();
        assert!(matches!(err, VoError::Transport(_)), "got {err:?}");
    }
}
