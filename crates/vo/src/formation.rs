//! The Formation phase with integrated trust negotiation (paper §5.1).
//!
//! "The VO Initiator engages a TN with the potential members accepting its
//! invitation. … unlike the conventional joining phase of a VO, acceptance
//! in TN is mutual … If the VO Initiator decides to assign the VO
//! potential member to the role, it sends it a VO membership certificate
//! that the member can use to identify itself during the operational
//! phase. If a negotiation is not successful, the VO Initiator removes the
//! invited VO partner from the potential partners list and looks for other
//! potential members."
//!
//! [`join_member`] reproduces the §6.3.1 measured *join process* for one
//! member (with or without TN — the two Fig. 9 bars). A [`Formation`] runs
//! the whole phase over every contract role through one decision loop;
//! its fields say where the negotiations run ([`NegotiationSource`]:
//! in-process, or the TN web service behind a transport), how many
//! `workers` fan them out, and whether reputation-gated
//! [`AdmissionControl`] orders the candidates and picks their strategies.
//! [`form_vo`] is the plain in-process, serial formation.
//!
//! # Parallel admission
//!
//! The serial admission loop is inherently ordered: candidate ranking
//! depends on the reputation ledger, which earlier joins mutate. With
//! `workers > 1` a formation therefore runs in two steps:
//!
//! 1. **Speculate** — every (role, accepting-candidate) trust negotiation
//!    is independent of reputation and of the other negotiations, so all
//!    of them run concurrently on the sharded executor
//!    ([`run_sharded`]), each under a `formation.speculate` span below the
//!    formation root. In-process negotiations run at the formation-start
//!    timestamp and charge nothing yet; service negotiations charge the
//!    transport's clock as they go.
//! 2. **Replay** — the exact serial decision procedure (ranking, attempt
//!    order, reputation updates, sim-clock charges, serial allocation)
//!    runs with negotiation results looked up from the speculation table
//!    instead of recomputed.
//!
//! Either way every negotiation starts in [`NegotiationSource`]'s one
//! method, and its spans hang under the formation root (under its
//! `formation.speculate` span when speculated), beside the
//! `formation.join_attempt` span that decides on it.
//!
//! Replay consults only the attempts the serial algorithm would make, so
//! the resulting [`FormedVo`] — members, roles, certificate serials — is
//! identical to the serial one; negotiations speculated past the first
//! success per role are the (bounded) price of the parallel fan-out.

use crate::admitted::{AdmissionControl, AdmissionHooks};
use crate::contract::{Contract, Role};
use crate::error::VoError;
use crate::lifecycle::{Phase, VoLifecycle};
use crate::mailbox::{Invitation, MailboxSystem};
use crate::member::{MemberRecord, ServiceProvider};
use crate::registry::{ResourceDescription, ServiceRegistry};
use crate::reputation::ReputationLedger;
use crate::resilient::{FormationResilience, ServiceSource};
use std::collections::{BTreeMap, HashMap, HashSet};
use trust_vo_admission::Outcome;
use trust_vo_credential::x509::AttributeCertificate;
use trust_vo_credential::{CredentialError, TimeRange, Timestamp};
use trust_vo_crypto::{hex, KeyPair};
use trust_vo_negotiation::{
    negotiate, NegotiationConfig, NegotiationError, Party, Strategy, Transcript,
};
use trust_vo_obs::{ObsContext, SpanLink};
use trust_vo_soa::shard::{run_sharded, ShardConfig};
use trust_vo_soa::simclock::{CostKind, SimClock};
use trust_vo_soa::ResilientRun;

/// A formed VO: the output of the Formation phase.
#[derive(Debug, Clone)]
pub struct FormedVo {
    /// The VO name (from the contract).
    pub name: String,
    /// The contract in force.
    pub contract: Contract,
    /// The initiating organization.
    pub initiator: String,
    /// The VO key pair; the public half is embedded in membership tokens
    /// "to be used for authentication in the VO" (§5.1).
    pub vo_keys: KeyPair,
    /// Current members.
    pub members: Vec<MemberRecord>,
    /// Lifecycle tracker.
    pub lifecycle: VoLifecycle,
    pub(crate) next_serial: u64,
}

impl FormedVo {
    /// The member playing `role`, if assigned.
    pub fn member_for_role(&self, role: &str) -> Option<&MemberRecord> {
        self.members.iter().find(|m| m.role == role)
    }

    /// Is the named provider a member?
    pub fn is_member(&self, provider: &str) -> bool {
        self.members.iter().any(|m| m.provider == provider)
    }

    /// The members.
    pub fn members(&self) -> &[MemberRecord] {
        &self.members
    }

    /// Allocate the next membership-certificate serial.
    pub fn next_serial(&mut self) -> u64 {
        self.next_serial += 1;
        self.next_serial
    }
}

/// Audit every member's membership-certificate signature, one member at
/// a time; the error names the first member whose certificate fails.
///
/// Every [`Formation`] runs this before handing the VO to the Operation
/// phase. The checks bypass the verified-credential cache and move none
/// of its counters: each certificate is audited once, right after it was
/// issued, so remembering the result would buy nothing.
pub fn audit_members(vo: &FormedVo) -> Result<(), VoError> {
    vo.members.iter().try_for_each(|member| {
        let cert = &member.certificate;
        if cert.issuer_key.verify(&cert.tbs(), &cert.signature) {
            Ok(())
        } else {
            Err(VoError::InvalidMembership {
                member: member.provider.clone(),
                detail: CredentialError::BadSignature {
                    cred_id: cert.revocation_id().0,
                }
                .to_string(),
            })
        }
    })
}

/// Charge the sim-clock for the work a negotiation transcript records.
pub fn charge_negotiation(clock: &SimClock, transcript: &Transcript) {
    clock.charge_n(CostKind::SoapRoundTrip, transcript.policy_rounds as u64);
    clock.charge_n(CostKind::DbQuery, transcript.policies_disclosed as u64);
    clock.charge_n(
        CostKind::PolicyEvaluation,
        transcript.policies_disclosed as u64,
    );
    // Each credential: one SOAP hop, one DB fetch, one verification.
    clock.charge_n(
        CostKind::SoapRoundTrip,
        transcript.credentials_disclosed as u64,
    );
    clock.charge_n(CostKind::DbQuery, transcript.credentials_disclosed as u64);
    clock.charge_n(CostKind::SignatureVerify, transcript.verifications as u64);
    clock.charge_n(CostKind::SignatureSign, transcript.ownership_proofs as u64);
    clock.charge_n(
        CostKind::SignatureVerify,
        transcript.ownership_proofs as u64,
    );
}

/// The initiator's negotiation identity for one role: its own party data
/// with the contract's Identification-phase policies for that role layered
/// after its own ("policies are created for the specific VO and in
/// particular for the roles", §5.1). Both negotiation sources build the
/// identity here.
///
/// Every policy is shared with the initiator or the contract, not copied.
/// A role policy never replaces one of the initiator's: when a contract
/// reuses an id the initiator already uses, the identity holds both
/// policies, the initiator's first, so none of the initiator's resources
/// loses its protection.
pub fn initiator_party_for_role(
    initiator: &ServiceProvider,
    contract: &Contract,
    role: &str,
) -> Party {
    let mut party = initiator.party.clone();
    if let Some(set) = contract.policies_for(role) {
        party.policies.layer(set);
    }
    party
}

/// Issue the VO membership certificate for a successful candidate.
fn issue_membership(
    vo: &mut FormedVo,
    initiator_keys: &KeyPair,
    clock: &SimClock,
    candidate: &Party,
    role: &str,
) -> AttributeCertificate {
    clock.charge(CostKind::CertificateIssue);
    clock.charge(CostKind::SignatureSign);
    let serial = vo.next_serial();
    AttributeCertificate::issue(
        serial,
        candidate.name.clone(),
        candidate.keys.public,
        vo.initiator.clone(),
        initiator_keys,
        TimeRange::one_year_from(clock.timestamp()),
        vec![
            ("vo".into(), vo.name.clone()),
            ("role".into(), role.to_owned()),
            (
                "voPublicKey".into(),
                hex::encode(&vo.vo_keys.public.0.to_be_bytes()),
            ),
        ],
    )
}

/// The trust negotiation's verdict a join attempt acts on. A success
/// carries the in-process transcript, still to be charged to the sim
/// clock, or `None` when the TN web service reached (and charged) it.
pub(crate) type Verdict = Result<Option<Transcript>, NegotiationError>;

/// The §6.3.1 join process for one member, with or without TN.
///
/// The GUI steps mirror §6.1's flow: invitation screen → member mailbox →
/// accept → "Role overview" screen → "Assign Member" → confirmation.
/// Passing `Some(strategy)` interleaves the mutual trust negotiation
/// (Fig. 4) between acceptance and role assignment.
#[allow(clippy::too_many_arguments)]
pub fn join_member(
    vo: &mut FormedVo,
    initiator: &ServiceProvider,
    candidate: &ServiceProvider,
    role: &str,
    mailboxes: &mut MailboxSystem,
    reputation: &mut ReputationLedger,
    clock: &SimClock,
    with_tn: Option<Strategy>,
) -> Result<MemberRecord, VoError> {
    let role = vo
        .contract
        .role(role)
        .cloned()
        .ok_or_else(|| VoError::UnknownRole(role.to_owned()))?;
    // A decliner turns back before the TN step, so it is never negotiated.
    let verdict = with_tn
        .filter(|_| candidate.accepts_invitations)
        .map(|strategy| {
            NegotiationSource::in_process(clock)
                .negotiate(
                    initiator,
                    &vo.contract,
                    &role.name,
                    candidate,
                    strategy,
                    clock.timestamp(),
                    SpanLink::default(),
                )
                .decide(
                    candidate.name(),
                    clock,
                    None,
                    &mut FormationResilience::default(),
                )
        })
        .transpose()?;
    join_attempt(
        vo,
        initiator,
        candidate,
        &role,
        mailboxes,
        reputation,
        clock,
        verdict,
        SpanLink::default(),
        None,
    )
}

/// One join attempt for `role`: invitation flow, the trust negotiation's
/// `verdict` (`None`: no TN), role assignment, membership certificate.
/// `link` is the enclosing formation span's trace position, if any — the
/// attempt's own span hangs off it and inherits its trace id. When
/// `admission` hooks are present, the attempt's outcome (success, failed
/// TN, declined invitation) is also recorded into the admission scoring
/// engine alongside the paper's reputation ledger.
#[allow(clippy::too_many_arguments)]
pub(crate) fn join_attempt(
    vo: &mut FormedVo,
    initiator: &ServiceProvider,
    candidate: &ServiceProvider,
    role: &Role,
    mailboxes: &mut MailboxSystem,
    reputation: &mut ReputationLedger,
    clock: &SimClock,
    verdict: Option<Verdict>,
    link: SpanLink,
    admission: Option<&AdmissionHooks<'_>>,
) -> Result<MemberRecord, VoError> {
    let obs = clock.collector();
    let mut span = obs.span_linked("formation.join_attempt", link);
    if span.id().is_some() {
        span.field("role", role.name.as_str());
        span.field("provider", candidate.name());
        obs.counter_add("formation.attempts", 1);
    }

    // Invitation screen + delivery into the member's mailbox.
    clock.charge(CostKind::GuiStep);
    clock.charge(CostKind::SoapRoundTrip);
    mailboxes.deliver(
        candidate.name(),
        Invitation {
            vo_name: vo.name.clone(),
            role: role.name.clone(),
            from: initiator.name().to_owned(),
            text: format!("Join '{}': {}", vo.name, role.requirements),
        },
    );
    // Member reads the mailbox and decides.
    clock.charge(CostKind::GuiStep);
    let _invitation = mailboxes.take(candidate.name());
    if !candidate.accepts_invitations {
        // The counterpart walked away before negotiating: admission
        // scoring treats that as an abandonment.
        if let Some(hooks) = admission {
            hooks.record(candidate.name(), Outcome::Abandonment, clock);
        }
        span.field("result", "declined");
        return Err(VoError::RoleUnfilled {
            role: role.name.clone(),
            tried: vec![candidate.name().to_owned()],
        });
    }
    clock.charge(CostKind::GuiStep); // accept click + reply
    clock.charge(CostKind::SoapRoundTrip);

    // The interleaved trust negotiation (Fig. 3, arrow 0 / Fig. 4): an
    // in-process transcript is charged here, after acceptance.
    if let Some(result) = verdict {
        match result {
            Ok(transcript) => {
                if let Some(transcript) = transcript {
                    charge_negotiation(clock, &transcript);
                }
                reputation.record_success(candidate.name());
                if let Some(hooks) = admission {
                    hooks.record(candidate.name(), Outcome::Success, clock);
                }
            }
            Err(e) => {
                // "the failed TN may affect the parties' reputation" (§5.1).
                reputation.record_failed_negotiation(candidate.name());
                if let Some(hooks) = admission {
                    hooks.record(candidate.name(), Outcome::FailedNegotiation, clock);
                }
                span.field("result", "tn-failed");
                return Err(VoError::Negotiation(e));
            }
        }
    }

    // Role overview + Assign Member + registration write.
    clock.charge(CostKind::GuiStep);
    clock.charge(CostKind::GuiStep);
    clock.charge_n(CostKind::DbQuery, 2);
    let certificate = issue_membership(
        vo,
        &initiator.party.keys,
        clock,
        &candidate.party,
        &role.name,
    );
    // Confirmation screen.
    clock.charge(CostKind::GuiStep);
    clock.charge(CostKind::DbQuery);

    let record = MemberRecord {
        provider: candidate.name().to_owned(),
        role: role.name.clone(),
        certificate,
    };
    vo.members.push(record.clone());
    span.field("result", "admitted");
    obs.counter_add("formation.admissions", 1);
    Ok(record)
}

/// Create the VO shell after the Identification phase: lifecycle advanced
/// to Formation, VO keys generated, no members yet.
pub fn create_vo(contract: Contract, initiator: &ServiceProvider, clock: &SimClock) -> FormedVo {
    let mut lifecycle = VoLifecycle::new(clock.timestamp());
    lifecycle
        .advance_to(Phase::Identification, clock.timestamp())
        .expect("fresh lifecycle advances");
    lifecycle
        .advance_to(Phase::Formation, clock.timestamp())
        .expect("identification advances to formation");
    let vo_keys = KeyPair::from_seed(format!("vo:{}", contract.vo_name).as_bytes());
    FormedVo {
        name: contract.vo_name.clone(),
        initiator: initiator.name().to_owned(),
        contract,
        vo_keys,
        members: Vec::new(),
        lifecycle,
        next_serial: 0,
    }
}

/// Where a formation's trust negotiations run.
pub enum NegotiationSource<'a> {
    /// In-process, charged to `clock`, every negotiation configured at
    /// the formation-start instant so the same contract and registry
    /// yield the same outcomes serially and in parallel.
    InProcess {
        /// The clock every formation step charges.
        clock: &'a SimClock,
    },
    /// Through the TN web service behind a transport; the transport's
    /// clock is the formation's clock.
    Service(ServiceSource<'a>),
}

impl<'a> NegotiationSource<'a> {
    /// In-process negotiation on `clock`.
    pub fn in_process(clock: &'a SimClock) -> Self {
        NegotiationSource::InProcess { clock }
    }

    /// The clock the formation charges.
    fn clock(&self) -> &'a SimClock {
        match self {
            NegotiationSource::InProcess { clock } => clock,
            NegotiationSource::Service(service) => service.transport.clock(),
        }
    }

    /// The one place a formation negotiation starts: `candidate` asks the
    /// initiator for membership in `role` under `strategy`, its spans
    /// under `link`. In process it negotiates against the initiator's
    /// identity for the role ([`initiator_party_for_role`]) at the instant
    /// `at` and charges nothing yet; through the service it negotiates
    /// against the role's controller identity and charges the transport's
    /// clock as it goes.
    #[allow(clippy::too_many_arguments)]
    fn negotiate(
        &self,
        initiator: &ServiceProvider,
        contract: &Contract,
        role: &str,
        candidate: &ServiceProvider,
        strategy: Strategy,
        at: Timestamp,
        link: SpanLink,
    ) -> Negotiated {
        match self {
            NegotiationSource::InProcess { clock } => {
                let identity = initiator_party_for_role(initiator, contract, role);
                let cfg = NegotiationConfig::new(strategy, at)
                    .with_obs(ObsContext::new(clock.collector()).at_link(link));
                Negotiated::InProcess(
                    negotiate(&candidate.party, &identity, "VoMembership", &cfg)
                        .map(|outcome| outcome.transcript),
                )
            }
            NegotiationSource::Service(service) => Negotiated::Service(service.negotiate(
                initiator.name(),
                role,
                candidate.name(),
                strategy,
                link,
            )),
        }
    }
}

/// One formation negotiation as [`NegotiationSource::negotiate`] ran it;
/// a speculating formation keeps these, keyed by (role name, provider
/// name), until the replay decides on them.
#[derive(Clone)]
enum Negotiated {
    /// The engine's transcript, not yet charged, or its error.
    InProcess(Result<Transcript, NegotiationError>),
    /// The resilient client's run, already charged to the transport's
    /// clock.
    Service(ResilientRun),
}

impl Negotiated {
    fn succeeded(&self) -> bool {
        match self {
            Negotiated::InProcess(result) => result.is_ok(),
            Negotiated::Service(run) => run.outcome.is_ok(),
        }
    }

    /// The join's verdict on this negotiation. A service run's recovery
    /// work is tallied into `stats` whatever its outcome. Transport
    /// exhaustion aborts the formation — the negotiation died to the
    /// network, not to a verdict, which admission scoring records as a
    /// fault-timeout; any other fault is the candidate's negative verdict.
    fn decide(
        self,
        candidate: &str,
        clock: &SimClock,
        admission: Option<&AdmissionHooks<'_>>,
        stats: &mut FormationResilience,
    ) -> Result<Verdict, VoError> {
        let run = match self {
            Negotiated::InProcess(result) => return Ok(result.map(Some)),
            Negotiated::Service(run) => run,
        };
        stats.absorb(&run);
        match run.outcome {
            Ok(_) => Ok(Ok(None)),
            Err(fault) if fault.is_transport() => {
                if let Some(hooks) = admission {
                    hooks.record(candidate, Outcome::FaultTimeout, clock);
                }
                Err(VoError::Transport(fault))
            }
            Err(fault) => Ok(Err(NegotiationError::Interrupted {
                reason: format!("[{}] {}", fault.code, fault.reason),
            })),
        }
    }
}

/// One Formation-phase run: who forms the VO, from which registry, how the
/// candidates' trust negotiations are sourced and fanned out, and whether
/// admission control gates them. [`Formation::run`] is the only formation
/// driver; every field is orthogonal to the others.
pub struct Formation<'a> {
    /// The VO initiator.
    pub initiator: &'a ServiceProvider,
    /// Every registered provider, by name.
    pub providers: &'a BTreeMap<String, ServiceProvider>,
    /// The Preparation-phase registry the candidates come from.
    pub registry: &'a ServiceRegistry,
    /// The negotiation strategy; under admission control, the fallback
    /// for parties outside the score snapshot.
    pub strategy: Strategy,
    /// 1 negotiates serially; more speculates every negotiation on that
    /// many shard workers, then replays the serial decisions.
    pub workers: usize,
    /// Reputation-gated admission: candidates are queued by trust band
    /// and negotiated with their banded strategy; outcomes feed the
    /// scoring engine.
    pub admission: Option<&'a AdmissionControl>,
    /// Where the negotiations run.
    pub source: NegotiationSource<'a>,
}

type SpeculationTable = HashMap<(String, String), Negotiated>;

/// Per-shard queue bound for the speculation fan-out: deep enough that
/// the submitter rarely stalls, small enough that `bus.queue_depth` stays
/// an honest load signal.
const FAN_OUT_QUEUE_DEPTH: usize = 8;

impl<'a> Formation<'a> {
    /// A serial formation with the [`Strategy::Standard`] strategy and no
    /// admission control.
    pub fn new(
        initiator: &'a ServiceProvider,
        providers: &'a BTreeMap<String, ServiceProvider>,
        registry: &'a ServiceRegistry,
        source: NegotiationSource<'a>,
    ) -> Self {
        Formation {
            initiator,
            providers,
            registry,
            strategy: Strategy::Standard,
            workers: 1,
            admission: None,
            source,
        }
    }

    /// Negotiate with `strategy`.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Fan the negotiations out over `workers` shard workers.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Gate the formation with `admission`, or not.
    pub fn with_admission(mut self, admission: Option<&'a AdmissionControl>) -> Self {
        self.admission = admission;
        self
    }

    /// The strategy `candidate` is negotiated with: its trust band's under
    /// admission control, otherwise the formation's.
    fn strategy_for(&self, hooks: Option<&AdmissionHooks<'_>>, candidate: &str) -> Strategy {
        hooks.map_or(self.strategy, |h| h.strategy_for(candidate))
    }

    /// Run the whole Formation phase: for every contract role, query the
    /// registry, invite candidates best-first (registry quality ×
    /// reputation, or the admission queue), negotiate, and assign the
    /// first success. Ends with the lifecycle in Operation. The
    /// [`FormationResilience`] tallies the service's recovery work (all
    /// zero in-process).
    ///
    /// A service transport fault that survives the retry and resume
    /// budgets aborts the formation with [`VoError::Transport`].
    pub fn run(
        &self,
        contract: Contract,
        mailboxes: &mut MailboxSystem,
        reputation: &mut ReputationLedger,
    ) -> Result<(FormedVo, FormationResilience), VoError> {
        let clock = self.source.clock();
        let obs = clock.collector();
        // The score snapshot precedes any negotiation: speculation picks
        // each candidate's strategy before the replay records an outcome.
        let hooks = self.admission.map(|control| {
            AdmissionHooks::snapshot(control, self.providers, self.strategy, clock.elapsed())
        });
        let hooks = hooks.as_ref();
        // Each formation is its own trace: every span below — attempts,
        // speculations, negotiations, bus hops — carries this root's id.
        let root_name = match self.source {
            NegotiationSource::InProcess { .. } => "formation.form_vo",
            NegotiationSource::Service(_) => "formation.form_vo_resilient",
        };
        let mut root_span = obs.span_linked(
            root_name,
            SpanLink {
                trace_id: obs.new_trace_id(),
                parent: None,
            },
        );
        if root_span.id().is_some() {
            root_span.field("vo", contract.vo_name.as_str());
            root_span.field("roles", contract.roles.len());
            if hooks.is_some() {
                root_span.field("admission", true);
            }
        }
        let root_link = root_span.link();
        let formation_at = clock.timestamp();
        let mut speculated =
            (self.workers > 1).then(|| self.speculate(&contract, hooks, root_link, formation_at));

        let mut vo = create_vo(contract, self.initiator, clock);
        let mut stats = FormationResilience::default();
        // The roles are lent out of the contract while the loop admits
        // members into `vo` (an attempt reads only the role it is given),
        // and are back before the VO is audited; a formation that fails
        // drops `vo`.
        let roles = std::mem::take(&mut vo.contract.roles);
        for role in &roles {
            // Formation: "The VO Initiator queries public repositories to
            // retrieve the information published during the Preparation
            // phase."
            clock.charge(CostKind::DbQuery);
            let mut candidates = self.registry.find_by_capability(&role.capability);
            if candidates.is_empty() {
                root_span.field("outcome", "no-candidates");
                return Err(VoError::NoCandidates {
                    role: role.name.clone(),
                });
            }
            match hooks {
                // Order by advertised quality weighted by reputation.
                None => candidates.sort_by(|a, b| {
                    let score = |d: &ResourceDescription| d.quality * reputation.get(&d.provider);
                    score(b)
                        .partial_cmp(&score(a))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.provider.cmp(&b.provider))
                }),
                // Admission queue: trust band first, then score-weighted
                // quality, from the formation-start snapshot.
                Some(hooks) => {
                    candidates.sort_by_cached_key(|d| hooks.queue_key(&d.provider, d.quality))
                }
            }
            let mut tried = Vec::new();
            let mut assigned = false;
            for description in candidates {
                let Some(candidate) = self.providers.get(&description.provider) else {
                    continue;
                };
                tried.push(candidate.name().to_owned());
                // A decliner turns back before the TN step: no verdict.
                let verdict = if candidate.accepts_invitations {
                    let negotiated = match speculated.as_mut() {
                        Some(table) => {
                            obs.counter_add("formation.replayed", 1);
                            let key = (role.name.clone(), candidate.name().to_owned());
                            // A success is moved out: it ends the role's
                            // loop, so it is consumed at most once. A
                            // failure is copied, so a provider listed under
                            // several matching entries sees the same verdict.
                            match table.get(&key) {
                                Some(failed) if !failed.succeeded() => failed.clone(),
                                _ => table
                                    .remove(&key)
                                    .expect("speculation covered every accepting candidate"),
                            }
                        }
                        None => self.source.negotiate(
                            self.initiator,
                            &vo.contract,
                            &role.name,
                            candidate,
                            self.strategy_for(hooks, candidate.name()),
                            formation_at,
                            root_link,
                        ),
                    };
                    Some(negotiated.decide(candidate.name(), clock, hooks, &mut stats)?)
                } else {
                    None
                };
                if join_attempt(
                    &mut vo,
                    self.initiator,
                    candidate,
                    role,
                    mailboxes,
                    reputation,
                    clock,
                    verdict,
                    root_link,
                    hooks,
                )
                .is_ok()
                {
                    assigned = true;
                    break;
                }
                // Otherwise the initiator "looks for other potential members".
            }
            if !assigned {
                root_span.field("outcome", "role-unfilled");
                return Err(VoError::RoleUnfilled {
                    role: role.name.clone(),
                    tried,
                });
            }
        }
        vo.contract.roles = roles;
        audit_members(&vo)?;
        obs.counter_add("formation.audits", 1);
        {
            let _lifecycle = obs.span_linked("formation.lifecycle", root_link);
            vo.lifecycle
                .advance_to(Phase::Operation, clock.timestamp())
                .expect("formation advances to operation");
        }
        root_span.field("outcome", "ok");
        root_span.field("members", vo.members.len());
        Ok((vo, stats))
    }

    /// The speculation fan-out: one job per (role, accepting candidate) —
    /// exactly the pairs the decision loop can ask about — on the sharded
    /// executor, which runs every job.
    fn speculate(
        &self,
        contract: &Contract,
        hooks: Option<&AdmissionHooks<'_>>,
        root: SpanLink,
        at: Timestamp,
    ) -> SpeculationTable {
        let mut seen = HashSet::new();
        let mut pairs = Vec::new();
        for role in &contract.roles {
            for description in self.registry.find_by_capability(&role.capability) {
                let Some(candidate) = self.providers.get(&description.provider) else {
                    continue;
                };
                if candidate.accepts_invitations
                    && seen.insert((role.name.as_str(), candidate.name()))
                {
                    pairs.push((role.name.as_str(), candidate));
                }
            }
        }
        let clock = self.source.clock();
        let obs = clock.collector();
        let jobs: Vec<_> = pairs
            .iter()
            .map(|&(role, candidate)| {
                let obs = &obs;
                move || {
                    let mut span = obs.span_linked("formation.speculate", root);
                    if span.id().is_some() {
                        span.field("role", role);
                        span.field("provider", candidate.name());
                        obs.counter_add("formation.speculated", 1);
                    }
                    let negotiated = self.source.negotiate(
                        self.initiator,
                        contract,
                        role,
                        candidate,
                        self.strategy_for(hooks, candidate.name()),
                        at,
                        span.link(),
                    );
                    if span.id().is_some() {
                        span.field("ok", negotiated.succeeded());
                    }
                    ((role.to_owned(), candidate.name().to_owned()), negotiated)
                }
            })
            .collect();
        let workers = self.workers.min(pairs.len().max(1));
        run_sharded(ShardConfig::new(workers, FAN_OUT_QUEUE_DEPTH), clock, jobs)
            .results
            .into_iter()
            .collect()
    }
}

/// Run the in-process, serial Formation phase with `strategy` — a
/// [`Formation`] with every other field at its default.
#[allow(clippy::too_many_arguments)]
pub fn form_vo(
    contract: Contract,
    initiator: &ServiceProvider,
    providers: &BTreeMap<String, ServiceProvider>,
    registry: &ServiceRegistry,
    mailboxes: &mut MailboxSystem,
    reputation: &mut ReputationLedger,
    clock: &SimClock,
    strategy: Strategy,
) -> Result<FormedVo, VoError> {
    Formation::new(
        initiator,
        providers,
        registry,
        NegotiationSource::in_process(clock),
    )
    .with_strategy(strategy)
    .run(contract, mailboxes, reputation)
    .map(|(vo, _)| vo)
}

/// The formation test world shared by the `formation`, `admitted` and
/// `resilient` tests.
#[cfg(test)]
pub(crate) mod testworld {
    use super::*;
    use crate::contract::Role;
    use std::sync::Arc;
    use trust_vo_credential::CredentialAuthority;
    use trust_vo_policy::{DisclosurePolicy, PolicySet, Resource, Term};
    use trust_vo_soa::simclock::CostModel;
    use trust_vo_soa::{Envelope, Fault, ServiceBus, TnService, Transport};
    use trust_vo_store::Database;

    pub(crate) fn clock() -> SimClock {
        SimClock::new(
            CostModel::paper_testbed(),
            Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
        )
    }

    /// A minimal one-role world: the initiator requires WebDesignerQuality
    /// for the DesignPortal role. Shady Co advertises the higher quality
    /// but lacks the credential, so its negotiation fails; Aerospace holds
    /// it and passes.
    pub(crate) struct World {
        pub(crate) contract: Contract,
        pub(crate) initiator: ServiceProvider,
        pub(crate) providers: BTreeMap<String, ServiceProvider>,
        pub(crate) registry: ServiceRegistry,
    }

    pub(crate) fn world() -> World {
        let mut ca = CredentialAuthority::new("AAA");
        let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));

        let mut initiator_party = Party::new("Aircraft");
        let mut good = Party::new("Aerospace");
        let quality = ca
            .issue(
                "WebDesignerQuality",
                "Aerospace",
                good.keys.public,
                vec![],
                window,
            )
            .unwrap();
        good.profile.add(quality);
        good.trust_root(ca.public_key());
        initiator_party.trust_root(ca.public_key());
        let bad = Party::new("Shady Co");

        let mut contract = Contract::new("AircraftOptimization", "low emissions")
            .with_role(Role::new("DesignPortal", "design-db", "ISO 9000"));
        let mut policies = PolicySet::new();
        policies.add(DisclosurePolicy::rule(
            "vo-p1",
            Resource::service("VoMembership"),
            vec![Term::of_type("WebDesignerQuality")],
        ));
        contract.set_role_policies("DesignPortal", policies);

        let mut registry = ServiceRegistry::new();
        registry.publish(ResourceDescription::new("Shady Co", "design-db", "x", 0.99));
        registry.publish(ResourceDescription::new("Aerospace", "design-db", "x", 0.9));

        let mut providers = BTreeMap::new();
        providers.insert("Aerospace".to_owned(), ServiceProvider::new(good));
        providers.insert("Shady Co".to_owned(), ServiceProvider::new(bad));
        World {
            contract,
            initiator: ServiceProvider::new(initiator_party),
            providers,
            registry,
        }
    }

    impl World {
        /// A serial formation over this world negotiating through `source`.
        pub(crate) fn formation<'a>(&'a self, source: NegotiationSource<'a>) -> Formation<'a> {
            Formation::new(&self.initiator, &self.providers, &self.registry, source)
        }

        /// A serial in-process formation on `clock`.
        pub(crate) fn in_process<'a>(&'a self, clock: &'a SimClock) -> Formation<'a> {
            self.formation(NegotiationSource::in_process(clock))
        }

        /// Aerospace, the only qualified candidate, declines invitations.
        pub(crate) fn aerospace_declines(&mut self) {
            let party = self.providers["Aerospace"].party.clone();
            self.providers.insert(
                "Aerospace".to_owned(),
                ServiceProvider::new(party).declining(),
            );
        }

        /// A fresh bus with this world's TN service registered as `"tn"`.
        pub(crate) fn service_bus(&self) -> ServiceBus {
            let clock = clock();
            let bus = ServiceBus::new(clock.clone());
            let svc = TnService::new(clock, Database::new());
            crate::register_formation_parties(
                &svc,
                &self.contract,
                &self.initiator,
                &self.providers,
            );
            bus.register("tn", Arc::new(svc));
            bus
        }
    }

    pub(crate) fn member_summary(vo: &FormedVo) -> Vec<(String, String, u64)> {
        vo.members()
            .iter()
            .map(|m| (m.provider.clone(), m.role.clone(), m.certificate.serial))
            .collect()
    }

    /// A transport that refuses every call: every negotiation dies to
    /// transport exhaustion.
    pub(crate) struct DeadNet(pub(crate) SimClock);

    impl Transport for DeadNet {
        fn call(&self, _service: &str, _request: &Envelope) -> Result<Envelope, Fault> {
            Err(Fault::transport("Timeout", "black hole"))
        }
        fn clock(&self) -> &SimClock {
            &self.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testworld::{clock, member_summary, world, World};
    use super::*;
    use trust_vo_credential::CredentialAuthority;
    use trust_vo_policy::{DisclosurePolicy, PolicySet, Resource, Term};

    #[test]
    fn formation_fills_role_skipping_failed_candidate() {
        let w = world();
        let clock = clock();
        let mut reputation = ReputationLedger::new();
        let (vo, stats) = w
            .in_process(&clock)
            .run(
                w.contract.clone(),
                &mut MailboxSystem::new(),
                &mut reputation,
            )
            .unwrap();
        // Shady Co (higher quality) was tried first but failed TN;
        // Aerospace got the role.
        assert!(vo.is_member("Aerospace"));
        assert!(!vo.is_member("Shady Co"));
        assert!(reputation.get("Shady Co") < 0.5);
        assert!(reputation.get("Aerospace") > 0.5);
        assert_eq!(vo.lifecycle.phase(), Phase::Operation);
        // In-process negotiation needs no recovery.
        assert_eq!(stats, FormationResilience::default());
        // The membership token carries the VO public key and the role.
        let record = vo.member_for_role("DesignPortal").unwrap();
        assert_eq!(record.certificate.attr("role"), Some("DesignPortal"));
        assert_eq!(
            record.certificate.attr("voPublicKey"),
            Some(hex::encode(&vo.vo_keys.public.0.to_be_bytes()).as_str())
        );
        assert!(record.certificate.verify_signature().is_ok());
    }

    #[test]
    fn join_without_tn_is_cheaper_than_with() {
        let w = world();
        let candidate = &w.providers["Aerospace"];

        let c1 = clock();
        let mut vo1 = create_vo(w.contract.clone(), &w.initiator, &c1);
        let mut mail = MailboxSystem::new();
        let mut rep = ReputationLedger::new();
        join_member(
            &mut vo1,
            &w.initiator,
            candidate,
            "DesignPortal",
            &mut mail,
            &mut rep,
            &c1,
            None,
        )
        .unwrap();
        let without = c1.elapsed();

        let c2 = clock();
        let mut vo2 = create_vo(w.contract.clone(), &w.initiator, &c2);
        join_member(
            &mut vo2,
            &w.initiator,
            candidate,
            "DesignPortal",
            &mut mail,
            &mut rep,
            &c2,
            Some(Strategy::Standard),
        )
        .unwrap();
        let with = c2.elapsed();
        assert!(
            with > without,
            "with TN {with} must exceed without {without}"
        );
        // The Fig. 9 shape: TN adds a modest fraction, not a multiple.
        let ratio = with.as_secs_f64() / without.as_secs_f64();
        assert!(ratio > 1.05 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn declining_candidate_is_skipped_serially_and_in_parallel() {
        let mut w = world();
        w.aerospace_declines();
        for workers in [1, 4] {
            let clock = clock();
            let err = w
                .in_process(&clock)
                .with_workers(workers)
                .run(
                    w.contract.clone(),
                    &mut MailboxSystem::new(),
                    &mut ReputationLedger::new(),
                )
                .unwrap_err();
            assert!(matches!(err, VoError::RoleUnfilled { .. }), "{workers}");
        }
    }

    #[test]
    fn empty_registry_reports_no_candidates() {
        let w = world();
        let clock = clock();
        let empty = ServiceRegistry::new();
        let err = Formation {
            registry: &empty,
            ..w.in_process(&clock)
        }
        .run(
            w.contract.clone(),
            &mut MailboxSystem::new(),
            &mut ReputationLedger::new(),
        )
        .unwrap_err();
        assert!(matches!(err, VoError::NoCandidates { .. }));
    }

    #[test]
    fn unknown_role_rejected() {
        let w = world();
        let clock = clock();
        let mut vo = create_vo(w.contract.clone(), &w.initiator, &clock);
        let err = join_member(
            &mut vo,
            &w.initiator,
            &w.providers["Aerospace"],
            "Ghost",
            &mut MailboxSystem::new(),
            &mut ReputationLedger::new(),
            &clock,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, VoError::UnknownRole(_)));
    }

    #[test]
    fn serial_and_parallel_formations_agree() {
        let w = world();
        let run = |formation: Formation<'_>, clock: &SimClock| {
            let mut reputation = ReputationLedger::new();
            let (vo, _) = formation
                .run(
                    w.contract.clone(),
                    &mut MailboxSystem::new(),
                    &mut reputation,
                )
                .unwrap();
            (member_summary(&vo), clock.elapsed(), reputation)
        };

        let serial_clock = clock();
        let serial = run(w.in_process(&serial_clock), &serial_clock);

        // Differs from serial in the worker count alone.
        let parallel_clock = clock();
        let parallel = run(
            w.in_process(&parallel_clock).with_workers(4),
            &parallel_clock,
        );

        assert_eq!(serial.0, parallel.0);
        assert_eq!(serial.1, parallel.1);
        assert_eq!(serial.2.get("Aerospace"), parallel.2.get("Aerospace"));
        assert_eq!(serial.2.get("Shady Co"), parallel.2.get("Shady Co"));
    }

    #[test]
    fn form_vo_is_the_default_formation() {
        let w = world();
        let formation_clock = clock();
        let (formed, _) = w
            .in_process(&formation_clock)
            .run(
                w.contract.clone(),
                &mut MailboxSystem::new(),
                &mut ReputationLedger::new(),
            )
            .unwrap();
        let form_vo_clock = clock();
        let vo = form_vo(
            w.contract.clone(),
            &w.initiator,
            &w.providers,
            &w.registry,
            &mut MailboxSystem::new(),
            &mut ReputationLedger::new(),
            &form_vo_clock,
            Strategy::Standard,
        )
        .unwrap();
        assert_eq!(member_summary(&formed), member_summary(&vo));
        assert_eq!(formation_clock.elapsed(), form_vo_clock.elapsed());
    }

    #[test]
    fn serials_are_unique() {
        let w = world();
        let clock = clock();
        let mut vo = create_vo(w.contract.clone(), &w.initiator, &clock);
        let mut mail = MailboxSystem::new();
        let mut rep = ReputationLedger::new();
        let a = join_member(
            &mut vo,
            &w.initiator,
            &w.providers["Aerospace"],
            "DesignPortal",
            &mut mail,
            &mut rep,
            &clock,
            None,
        )
        .unwrap();
        let b = join_member(
            &mut vo,
            &w.initiator,
            &w.providers["Shady Co"],
            "DesignPortal",
            &mut mail,
            &mut rep,
            &clock,
            None,
        )
        .unwrap();
        assert_ne!(a.certificate.serial, b.certificate.serial);
    }

    /// The initiator guards its BalanceSheet with `p1` <- AuditReport,
    /// which nobody holds. Aerospace releases its Quality credential only
    /// against that BalanceSheet, and the one role requires Quality under
    /// the role policy id `role_policy_id`.
    fn colliding_world(role_policy_id: &str) -> World {
        let mut ca = CredentialAuthority::new("AAA");
        let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
        let mut initiator = Party::new("Aircraft");
        let sheet = ca
            .issue(
                "BalanceSheet",
                "Aircraft",
                initiator.keys.public,
                vec![],
                window,
            )
            .unwrap();
        initiator.profile.add(sheet);
        initiator.policies.add(DisclosurePolicy::rule(
            "p1",
            Resource::credential("BalanceSheet"),
            vec![Term::of_type("AuditReport")],
        ));
        let mut aerospace = Party::new("Aerospace");
        let quality = ca
            .issue(
                "Quality",
                "Aerospace",
                aerospace.keys.public,
                vec![],
                window,
            )
            .unwrap();
        aerospace.profile.add(quality);
        aerospace.policies.add(DisclosurePolicy::rule(
            "a1",
            Resource::credential("Quality"),
            vec![Term::of_type("BalanceSheet")],
        ));
        initiator.trust_root(ca.public_key());
        aerospace.trust_root(ca.public_key());

        let mut contract = Contract::new("AuditedVo", "audited design")
            .with_role(Role::new("Portal", "portal", "quality"));
        let mut policies = PolicySet::new();
        policies.add(DisclosurePolicy::rule(
            role_policy_id,
            Resource::service("VoMembership"),
            vec![Term::of_type("Quality")],
        ));
        contract.set_role_policies("Portal", policies);
        let mut registry = ServiceRegistry::new();
        registry.publish(ResourceDescription::new("Aerospace", "portal", "x", 0.9));
        World {
            contract,
            initiator: ServiceProvider::new(initiator),
            providers: BTreeMap::from([("Aerospace".to_owned(), ServiceProvider::new(aerospace))]),
            registry,
        }
    }

    /// A role identity shares its policies: the initiator's own first,
    /// then the role's, each the same allocation as in its owner — also
    /// when the two reuse an id.
    #[test]
    fn role_identity_shares_the_initiator_and_role_policies() {
        let w = colliding_world("p1");
        let identity = initiator_party_for_role(&w.initiator, &w.contract, "Portal");
        let owners: Vec<_> = w
            .initiator
            .party
            .policies
            .iter()
            .chain(w.contract.policies_for("Portal").unwrap().iter())
            .collect();
        let held: Vec<_> = identity.policies.iter().collect();
        assert_eq!(held.len(), 2);
        assert_eq!(held.len(), owners.len());
        assert!(held.iter().zip(&owners).all(|(a, b)| std::ptr::eq(*a, *b)));
    }

    /// A role policy whose id the initiator already uses must not lift
    /// the initiator's own protection: Aerospace stays refused, in
    /// process and through the TN service alike.
    #[test]
    fn role_policy_never_replaces_an_initiator_policy() {
        for role_policy_id in ["vo-r", "p1"] {
            let w = colliding_world(role_policy_id);
            let clock = clock();
            let bus = w.service_bus();
            let formations = [
                w.in_process(&clock),
                w.formation(NegotiationSource::Service(ServiceSource::standard(
                    &bus, "tn", 42,
                ))),
            ];
            for formation in formations {
                let err = formation
                    .run(
                        w.contract.clone(),
                        &mut MailboxSystem::new(),
                        &mut ReputationLedger::new(),
                    )
                    .unwrap_err();
                assert!(
                    matches!(err, VoError::RoleUnfilled { .. }),
                    "role policy {role_policy_id}: {err:?}"
                );
            }
        }
    }
}
