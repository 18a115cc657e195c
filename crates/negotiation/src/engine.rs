//! The two-phase Trust-X negotiation engine.
//!
//! **Phase 1 — policy evaluation** (§4.2): a bilateral, ordered policy
//! exchange. The requester asks the controller for a resource; the
//! controller answers with the disclosure policies protecting it; each
//! policy term must be satisfied by a counterpart credential, whose own
//! protecting policies are exchanged in turn. The interplay is modelled as
//! an AND-OR search over both parties' policy sets with cycle detection
//! (interlocked policies fail the branch), building the negotiation tree
//! as it goes. A successful search is a satisfied *view*; its post-order
//! yields the *trust sequence*.
//!
//! **Phase 2 — credential exchange**: credentials are disclosed following
//! the trust sequence; the receiver "verifies the satisfaction of the
//! associated policies, checks for revocation and validity dates, and
//! authenticates the ownership", replying with an acknowledgment. A trust
//! failure (revoked/expired/forged credential) aborts the negotiation.
//! Each disclosure is one [`Negotiation::disclose`] step, the same step the
//! TN web service runs per `CredentialExchange` call; this module's
//! [`exchange_credentials`] drives it to the end of the sequence.
//!
//! Message accounting follows the selected [`Strategy`]: trusting batches
//! all policy alternatives into one message; standard/suspicious disclose
//! one alternative per round; strong-suspicious sends one term per
//! message; the suspicious variants decline without naming missing
//! credentials and demand ownership proofs.

use crate::error::NegotiationError;
use crate::message::{Message, Side};
use crate::party::Party;
use crate::state::{Negotiation, Step};
use crate::strategy::{CredentialFormat, Strategy};
use crate::transcript::Transcript;
use crate::tree::{EdgeId, NegotiationTree, NodeId, NodeStatus};
use crate::view::{Disclosure, TrustSequence};
use std::sync::Arc;
use trust_vo_credential::{Credential, Timestamp};
use trust_vo_obs::{ObsContext, SpanGuard};
use trust_vo_policy::DisclosurePolicy;

/// Configuration for one negotiation run.
#[derive(Debug, Clone)]
pub struct NegotiationConfig {
    /// The strategy both parties agree on at `StartNegotiation` time.
    pub strategy: Strategy,
    /// The credential wire format in use.
    pub format: CredentialFormat,
    /// The negotiation instant (validity windows are checked against it).
    pub at: Timestamp,
    /// Recursion bound on the policy graph (defense against pathological
    /// policy sets).
    pub max_depth: usize,
    /// Message budget: the negotiation is interrupted once this many
    /// messages have been exchanged ("if any unforeseen event happens, an
    /// interruption", §4.2 — here, the event is the counterpart giving up
    /// on an endless policy exchange). `usize::MAX` disables the budget.
    pub max_messages: usize,
    /// Observability sink (disabled by default): each phase opens a span
    /// parented under the context and reports `negotiation.*` counters.
    pub obs: ObsContext,
}

impl NegotiationConfig {
    /// A config with the given strategy, X-TNL format, and the given time.
    pub fn new(strategy: Strategy, at: Timestamp) -> Self {
        NegotiationConfig {
            strategy,
            format: CredentialFormat::Xtnl,
            at,
            max_depth: 24,
            max_messages: usize::MAX,
            obs: ObsContext::disabled(),
        }
    }

    /// This config with the given observability context.
    pub fn with_obs(mut self, obs: ObsContext) -> Self {
        self.obs = obs;
        self
    }
}

/// The result of a successful negotiation.
#[derive(Debug, Clone)]
pub struct NegotiationOutcome {
    /// The requested resource, now granted.
    pub resource: String,
    /// The agreed trust sequence (already executed).
    pub sequence: TrustSequence,
    /// Message/round accounting.
    pub transcript: Transcript,
    /// The negotiation tree as explored.
    pub tree: NegotiationTree,
}

/// How phase 1 released a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Released {
    /// Freely (DELIV rule or ungoverned resource).
    Deliv,
    /// By satisfying a policy rule.
    Rule,
}

/// Phase 1's search state. Everything it reads — policies, candidate
/// credentials, resource names — is borrowed from the two parties for
/// `'a`; a disclosed policy is shared, never copied.
struct Engine<'a> {
    requester: &'a Party,
    controller: &'a Party,
    cfg: &'a NegotiationConfig,
    transcript: Transcript,
    tree: NegotiationTree,
    /// The releases in progress, by (owner, resource): meeting one again
    /// means interlocked policies.
    stack: Vec<(Side, &'a str)>,
    /// The trust sequence of the view found so far, in disclosure order
    /// (each credential after the disclosures its release needs). A
    /// branch that fails leaves it as the branch found it.
    sequence: Vec<(Side, &'a Credential)>,
}

impl<'a> Engine<'a> {
    fn party(&self, side: Side) -> &'a Party {
        match side {
            Side::Requester => self.requester,
            Side::Controller => self.controller,
        }
    }

    /// Phase 1 for one resource owned by `owner`, expanding `node`.
    fn plan_release(&mut self, owner: Side, resource: &'a str, node: NodeId) -> Option<Released> {
        if self.stack.len() >= self.cfg.max_depth {
            return None;
        }
        let key = (owner, resource);
        if self.stack.contains(&key) {
            // Interlocked policies: this branch deadlocks.
            return None;
        }
        self.stack.push(key);
        let result = self.plan_release_inner(owner, resource, node);
        self.stack.pop();
        match result {
            Some(Released::Deliv) => self.tree.set_status(node, NodeStatus::Deliv),
            None => self.tree.set_status(node, NodeStatus::Failed),
            Some(Released::Rule) => {}
        }
        result
    }

    fn plan_release_inner(
        &mut self,
        owner: Side,
        resource: &'a str,
        node: NodeId,
    ) -> Option<Released> {
        let policies = &self.party(owner).policies;
        // The counterpart asks for the resource's policies.
        self.transcript.log(
            owner.other(),
            Message::PolicyRequest {
                resource: resource.to_owned(),
            },
        );
        if !policies.governs(resource) {
            // Ungoverned resources are freely released.
            return Some(Released::Deliv);
        }
        let batched = self.cfg.strategy.batches_alternatives();
        if batched {
            // Trusting: every alternative is disclosed in one message.
            let all: Vec<_> = policies.alternatives_for(resource).cloned().collect();
            self.transcript.policies_disclosed += all.len();
            self.transcript.policy_rounds += 1;
            self.transcript
                .log(owner, Message::PolicyDisclosure { policies: all });
        }
        for policy in policies.alternatives_for(resource) {
            if !batched {
                self.transcript.policies_disclosed += 1;
                let terms = policy.terms().len().max(1);
                let per_message = self.cfg.strategy.terms_per_message();
                let messages = terms.div_ceil(per_message.max(1)).max(1);
                self.transcript.policy_rounds += messages;
                for _ in 0..messages {
                    self.transcript.log(
                        owner,
                        Message::PolicyDisclosure {
                            policies: vec![Arc::clone(policy)],
                        },
                    );
                }
            }
            if policy.is_deliv() {
                return Some(Released::Deliv);
            }
            if let Some(edge) = self.try_policy(owner, policy, node) {
                self.tree.choose(edge);
                return Some(Released::Rule);
            }
            self.transcript.failed_alternatives += 1;
        }
        None
    }

    /// Try to satisfy all terms of one policy alternative, appending the
    /// disclosures it needs to the sequence. Returns the alternative's
    /// tree edge when every term is satisfied.
    fn try_policy(
        &mut self,
        owner: Side,
        policy: &Arc<DisclosurePolicy>,
        node: NodeId,
    ) -> Option<EdgeId> {
        let edge = self.tree.expand(node, policy);
        let counterpart = owner.other();
        let counterpart_party = self.party(counterpart);
        let start = self.sequence.len();
        for (i, term) in policy.terms().iter().enumerate() {
            let child = self.tree.edge(edge).to[i];
            // Which of the counterpart's credentials satisfy the term?
            // Each party knows the validity windows of its own credentials
            // and never offers one that is expired at negotiation time
            // (revocation, by contrast, is only detected by the receiver
            // during the exchange phase — the §4.2 failure mode).
            let mut candidates = counterpart_party.satisfying(term);
            let at = self.cfg.at;
            candidates.retain(|c| c.header().validity.contains(at));
            if candidates.is_empty() {
                if self.cfg.strategy.reveals_missing() {
                    self.transcript.log(
                        counterpart,
                        Message::NotPossessed {
                            resource: term.key(),
                        },
                    );
                } else {
                    self.transcript.log(counterpart, Message::Decline);
                }
                self.tree.set_status(child, NodeStatus::Failed);
                self.sequence.truncate(start);
                return None;
            }
            let satisfied = candidates.into_iter().find(|&cred| {
                self.plan_release(counterpart, cred.cred_type(), child)
                    .is_some()
            });
            let Some(cred) = satisfied else {
                self.sequence.truncate(start);
                return None;
            };
            self.tree
                .set_status(child, NodeStatus::SatisfiedBy(cred.id().clone()));
            self.sequence.push((counterpart, cred));
        }
        Some(edge)
    }
}

/// The result of the policy evaluation phase: a trust sequence agreed on
/// by both parties, plus the exploration record.
#[derive(Debug, Clone)]
pub struct PolicyPhase {
    /// The requested resource.
    pub resource: String,
    /// The agreed trust sequence (not yet executed).
    pub sequence: TrustSequence,
    /// Accounting so far (phase 1 messages only).
    pub transcript: Transcript,
    /// The negotiation tree as explored.
    pub tree: NegotiationTree,
}

impl PolicyPhase {
    /// The record of a policy phase that ran earlier (a cached or selected
    /// trust sequence): no phase-1 messages, and a bare tree.
    pub(crate) fn agreed(resource: &str, sequence: TrustSequence) -> Self {
        PolicyPhase {
            resource: resource.to_owned(),
            sequence,
            transcript: Transcript::new(),
            tree: NegotiationTree::new(resource, Side::Controller),
        }
    }
}

/// Reports phase-1 accounting into the config's observability context:
/// one `negotiation.*` counter per transcript column, plus an `outcome`
/// span field. Called on every return path so interrupted and failed
/// negotiations are counted too.
fn record_policy_phase(
    cfg: &NegotiationConfig,
    span: &mut SpanGuard,
    transcript: &Transcript,
    outcome: &str,
) {
    if !cfg.obs.is_enabled() {
        return;
    }
    let obs = &cfg.obs;
    obs.add("negotiation.messages", transcript.message_count() as u64);
    obs.add("negotiation.policy_rounds", transcript.policy_rounds as u64);
    obs.add(
        "negotiation.policies_disclosed",
        transcript.policies_disclosed as u64,
    );
    // Each disclosed policy is evaluated against the counterpart profile —
    // the same accounting the SimClock charges as PolicyEvaluation.
    obs.add(
        "negotiation.policy_evaluations",
        transcript.policies_disclosed as u64,
    );
    obs.add(
        "negotiation.failed_alternatives",
        transcript.failed_alternatives as u64,
    );
    if outcome != "ok" {
        obs.add("negotiation.failures", 1);
    }
    span.field("outcome", outcome);
}

/// Run phase 1 (policy evaluation) only: determine a trust sequence.
///
/// This is the operation behind the TN web service's `PolicyExchange`
/// endpoint; [`negotiate`] composes it with [`exchange_credentials`].
pub fn evaluate_policies(
    requester: &Party,
    controller: &Party,
    resource: &str,
    cfg: &NegotiationConfig,
) -> Result<PolicyPhase, NegotiationError> {
    let mut span = cfg.obs.span("negotiation.policy_phase");
    if span.id().is_some() {
        span.field("resource", resource);
        span.field("strategy", cfg.strategy.to_string());
    }
    if !cfg.strategy.compatible_with(cfg.format) {
        record_policy_phase(cfg, &mut span, &Transcript::new(), "incompatible-format");
        return Err(NegotiationError::IncompatibleFormat {
            detail: format!(
                "strategy '{}' requires partial hiding, which format {:?} does not support",
                cfg.strategy, cfg.format
            ),
        });
    }
    let mut engine = Engine {
        requester,
        controller,
        cfg,
        transcript: Transcript::new(),
        tree: NegotiationTree::new(resource, Side::Controller),
        stack: Vec::new(),
        sequence: Vec::new(),
    };
    engine.transcript.log(
        Side::Requester,
        Message::Start {
            resource: resource.to_owned(),
            strategy: cfg.strategy,
        },
    );
    let root = engine.tree.root();
    let released = engine.plan_release(Side::Controller, resource, root);
    if engine.transcript.message_count() > cfg.max_messages {
        engine.transcript.log(
            Side::Controller,
            Message::Failure {
                reason: "message budget exhausted".into(),
            },
        );
        record_policy_phase(cfg, &mut span, &engine.transcript, "interrupted");
        return Err(NegotiationError::Interrupted {
            reason: format!(
                "policy exchange exceeded the {}-message budget",
                cfg.max_messages
            ),
        });
    }
    if released.is_none() {
        engine.transcript.log(
            Side::Controller,
            Message::Failure {
                reason: "no satisfiable view".into(),
            },
        );
        record_policy_phase(cfg, &mut span, &engine.transcript, "no-trust-sequence");
        return Err(NegotiationError::NoTrustSequence {
            resource: resource.to_owned(),
        });
    }
    let mut sequence = TrustSequence::new();
    for &(by, cred) in &engine.sequence {
        sequence.push(Disclosure {
            by,
            cred_id: cred.id().clone(),
            cred_type: cred.cred_type().to_owned(),
        });
    }
    record_policy_phase(cfg, &mut span, &engine.transcript, "ok");
    Ok(PolicyPhase {
        resource: resource.to_owned(),
        sequence,
        transcript: engine.transcript,
        tree: engine.tree,
    })
}

/// Reports phase-2 accounting into the config's observability context.
/// Phase 1 and phase 2 share one transcript, and phase 1 discloses no
/// credential, so this phase's messages are those beyond the
/// `phase1_messages` the transcript held on entry. Called on every return
/// path.
fn record_exchange_phase(
    cfg: &NegotiationConfig,
    span: &mut SpanGuard,
    transcript: &Transcript,
    phase1_messages: usize,
    outcome: &str,
) {
    if !cfg.obs.is_enabled() {
        return;
    }
    let obs = &cfg.obs;
    obs.add(
        "negotiation.messages",
        (transcript.message_count() - phase1_messages) as u64,
    );
    obs.add(
        "negotiation.credentials_disclosed",
        transcript.credentials_disclosed as u64,
    );
    obs.add("negotiation.verifications", transcript.verifications as u64);
    obs.add(
        "negotiation.ownership_proofs",
        transcript.ownership_proofs as u64,
    );
    if outcome != "ok" {
        obs.add("negotiation.failures", 1);
    }
    span.field("outcome", outcome);
}

/// Run phase 2 (credential exchange) over an agreed trust sequence,
/// consuming the phase-1 record and completing the outcome: a driver of
/// [`Negotiation::disclose`] that logs each step in the transcript.
pub fn exchange_credentials(
    requester: &Party,
    controller: &Party,
    phase: PolicyPhase,
    cfg: &NegotiationConfig,
) -> Result<NegotiationOutcome, NegotiationError> {
    let PolicyPhase {
        resource,
        sequence,
        mut transcript,
        mut tree,
    } = phase;
    let mut span = cfg.obs.span("negotiation.exchange_phase");
    if span.id().is_some() {
        span.field("resource", resource.as_str());
        span.field("disclosures", sequence.disclosures().len());
    }
    let phase1_messages = transcript.message_count();
    let mut negotiation = Negotiation::new(
        requester.name.as_str(),
        controller.name.as_str(),
        resource,
        cfg.strategy,
    );
    negotiation.agree(sequence);
    // Each failure: who reports it, the message, the span outcome and the
    // error.
    let failure = loop {
        // The message budget covers the whole negotiation, not just the
        // policy phase: each disclosure adds two messages (credential +
        // ack), so stop before starting one that cannot fit.
        if negotiation.remaining() > 0 && transcript.message_count() >= cfg.max_messages {
            let reason = format!(
                "credential exchange exceeded the {}-message budget",
                cfg.max_messages
            );
            let error = NegotiationError::Interrupted { reason };
            let message = "message budget exhausted".to_owned();
            break Some((Side::Controller, message, "interrupted", error));
        }
        let disclosed = match negotiation.disclose(requester, controller, |_| cfg.at) {
            Step::Done => break None,
            // Nothing was disclosed, so this is an interruption.
            Step::Stale { by, reason } => {
                let message = reason.clone();
                break Some((
                    by,
                    message,
                    "interrupted",
                    NegotiationError::Interrupted { reason },
                ));
            }
            Step::Disclosed(disclosed) => disclosed,
        };
        transcript.log(
            disclosed.by,
            Message::CredentialDisclosure {
                credential: disclosed.credential.clone(),
                ownership: disclosed.ownership,
            },
        );
        transcript.credentials_disclosed += 1;
        transcript.verifications += 1;
        if let Err(cause) = disclosed.verdict {
            let message = cause.to_string();
            let error = NegotiationError::TrustFailure { cause };
            break Some((disclosed.by.other(), message, "trust-failure", error));
        }
        if disclosed.ownership.is_some() {
            transcript.ownership_proofs += 1;
        }
        transcript.log(disclosed.by.other(), Message::Ack);
    };
    if let Some((from, reason, outcome, error)) = failure {
        transcript.log(from, Message::Failure { reason });
        tree.set_status(tree.root(), NodeStatus::Failed);
        record_exchange_phase(cfg, &mut span, &transcript, phase1_messages, outcome);
        return Err(error);
    }
    transcript.log(Side::Controller, Message::Success);
    record_exchange_phase(cfg, &mut span, &transcript, phase1_messages, "ok");
    let Negotiation {
        resource, sequence, ..
    } = negotiation;
    Ok(NegotiationOutcome {
        resource,
        sequence: sequence.unwrap_or_default(),
        transcript,
        tree,
    })
}

/// Run a full two-phase negotiation: `requester` asks `controller` for
/// `resource`.
pub fn negotiate(
    requester: &Party,
    controller: &Party,
    resource: &str,
    cfg: &NegotiationConfig,
) -> Result<NegotiationOutcome, NegotiationError> {
    let phase = evaluate_policies(requester, controller, resource, cfg)?;
    exchange_credentials(requester, controller, phase, cfg)
}

/// The deterministic per-session nonce ownership proofs are bound to.
pub fn session_nonce(requester: &Party, controller: &Party, resource: &str) -> Vec<u8> {
    let mut h = trust_vo_crypto::sha256::Sha256::new();
    h.update(requester.name.as_bytes());
    h.update(&[0]);
    h.update(controller.name.as_bytes());
    h.update(&[0]);
    h.update(resource.as_bytes());
    h.finalize().to_vec()
}

/// Count the satisfiable views for a negotiation (bounded by `cap`),
/// without message accounting — "the interplay goes on until one or more
/// potential trust sequences are determined" (§4.2): the number of
/// sequences [`crate::enumerate::enumerate_sequences`] lists. Used by
/// tests and the scaling bench.
pub fn count_views(
    requester: &Party,
    controller: &Party,
    resource: &str,
    cfg: &NegotiationConfig,
    cap: usize,
) -> usize {
    crate::enumerate::enumerate_sequences(requester, controller, resource, cfg, cap).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trust_vo_credential::{
        Attribute, CredentialAuthority, CredentialError, Sensitivity, TimeRange,
    };
    use trust_vo_policy::{Resource, Term};

    fn window() -> TimeRange {
        TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0))
    }

    fn at() -> Timestamp {
        Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0)
    }

    /// Build the paper's Fig. 2 / §5 scenario:
    /// * Aircraft (controller) protects VoMembership with WebDesignerQuality.
    /// * Aerospace (requester) holds an ISO9000/WebDesignerQuality credential,
    ///   protected by: AAACreditation OR BalanceSheet from the Aircraft side.
    /// * Aircraft holds an AAACreditation (and a BalanceSheet) credential,
    ///   both freely deliverable.
    fn fig2_parties() -> (Party, Party, CredentialAuthority) {
        let mut ca = CredentialAuthority::new("AAA");
        let mut aircraft = Party::new("Aircraft Company");
        let mut aerospace = Party::new("Aerospace Company");

        let quality = ca
            .issue(
                "WebDesignerQuality",
                &aerospace.name,
                aerospace.keys.public,
                vec![Attribute::new("QualityRegulation", "UNI EN ISO 9000")],
                window(),
            )
            .unwrap();
        aerospace
            .profile
            .add_with_sensitivity(quality, Sensitivity::Medium);

        let accreditation = ca
            .issue(
                "AAACreditation",
                &aircraft.name,
                aircraft.keys.public,
                vec![],
                window(),
            )
            .unwrap();
        aircraft.profile.add(accreditation);
        let sheet = ca
            .issue(
                "BalanceSheet",
                &aircraft.name,
                aircraft.keys.public,
                vec![Attribute::new("Issuer", "BBB")],
                window(),
            )
            .unwrap();
        aircraft.profile.add(sheet);

        // Controller policy: VoMembership <- WebDesignerQuality.
        aircraft.policies.add(DisclosurePolicy::rule(
            "p1",
            Resource::service("VoMembership"),
            vec![Term::of_type("WebDesignerQuality")],
        ));
        // Aircraft's credentials are freely deliverable.
        aircraft.policies.add(DisclosurePolicy::deliv(
            "d1",
            Resource::credential("AAACreditation"),
        ));
        aircraft.policies.add(DisclosurePolicy::deliv(
            "d2",
            Resource::credential("BalanceSheet"),
        ));

        // Requester policy: WebDesignerQuality <- AAACreditation | BalanceSheet.
        aerospace.policies.add(DisclosurePolicy::rule(
            "p2",
            Resource::credential("WebDesignerQuality"),
            vec![Term::of_type("AAACreditation")],
        ));
        aerospace.policies.add(DisclosurePolicy::rule(
            "p3",
            Resource::credential("WebDesignerQuality"),
            vec![Term::of_type("BalanceSheet")],
        ));

        // Both trust the CA.
        aircraft.trust_root(ca.public_key());
        aerospace.trust_root(ca.public_key());
        (aerospace, aircraft, ca)
    }

    #[test]
    fn fig2_negotiation_succeeds() {
        let (aerospace, aircraft, _) = fig2_parties();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let outcome = negotiate(&aerospace, &aircraft, "VoMembership", &cfg).unwrap();
        // Trust sequence: Aircraft's AAACreditation first, then Aerospace's
        // WebDesignerQuality.
        let seq: Vec<_> = outcome
            .sequence
            .disclosures()
            .iter()
            .map(|d| (d.by, d.cred_type.clone()))
            .collect();
        assert_eq!(
            seq,
            vec![
                (Side::Controller, "AAACreditation".to_owned()),
                (Side::Requester, "WebDesignerQuality".to_owned()),
            ]
        );
        assert_eq!(outcome.transcript.credentials_disclosed, 2);
        assert!(outcome.tree.depth() >= 3);
    }

    #[test]
    fn all_strategies_agree_on_success() {
        let (aerospace, aircraft, _) = fig2_parties();
        for strategy in Strategy::ALL {
            let cfg = NegotiationConfig::new(strategy, at());
            let outcome = negotiate(&aerospace, &aircraft, "VoMembership", &cfg);
            assert!(outcome.is_ok(), "strategy {strategy} failed: {outcome:?}");
        }
    }

    #[test]
    fn trusting_uses_fewer_messages_than_strong_suspicious() {
        let (aerospace, aircraft, _) = fig2_parties();
        let trusting = negotiate(
            &aerospace,
            &aircraft,
            "VoMembership",
            &NegotiationConfig::new(Strategy::Trusting, at()),
        )
        .unwrap();
        let strong = negotiate(
            &aerospace,
            &aircraft,
            "VoMembership",
            &NegotiationConfig::new(Strategy::StrongSuspicious, at()),
        )
        .unwrap();
        assert!(
            trusting.transcript.policy_rounds <= strong.transcript.policy_rounds,
            "trusting {} vs strong {}",
            trusting.transcript.policy_rounds,
            strong.transcript.policy_rounds
        );
        assert_eq!(strong.transcript.ownership_proofs, 2);
        assert_eq!(trusting.transcript.ownership_proofs, 0);
    }

    #[test]
    fn missing_credential_fails_with_no_sequence() {
        let (mut aerospace, aircraft, _) = fig2_parties();
        // Strip the requester's only quality credential.
        let id = aerospace.profile.credentials()[0].id().clone();
        aerospace.profile.remove(&id);
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let err = negotiate(&aerospace, &aircraft, "VoMembership", &cfg).unwrap_err();
        assert!(matches!(err, NegotiationError::NoTrustSequence { .. }));
    }

    #[test]
    fn revoked_credential_fails_in_exchange_phase() {
        let (aerospace, mut aircraft, ca) = fig2_parties();
        // Aircraft's CRL learns that the aerospace quality credential is revoked.
        let revoked_id = aerospace.profile.credentials()[0].id().clone();
        aircraft.crl.revoke(revoked_id, at());
        let _ = ca;
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let err = negotiate(&aerospace, &aircraft, "VoMembership", &cfg).unwrap_err();
        assert!(
            matches!(
                &err,
                NegotiationError::TrustFailure {
                    cause: CredentialError::Revoked { .. }
                }
            ),
            "{err:?}"
        );
    }

    /// The profile changes between the phases: a renewal re-issues the
    /// sequenced credential under a new id. Phase 2 must fail with a
    /// typed error, not panic.
    #[test]
    fn stale_sequence_interrupts_the_exchange() {
        let (mut aerospace, aircraft, mut ca) = fig2_parties();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let phase = evaluate_policies(&aerospace, &aircraft, "VoMembership", &cfg).unwrap();
        let old = aerospace.profile.credentials()[0].clone();
        let renewed = ca
            .issue(
                old.cred_type(),
                &aerospace.name,
                aerospace.keys.public,
                old.content().to_vec(),
                window(),
            )
            .unwrap();
        aerospace.profile.remove(old.id());
        aerospace.profile.add(renewed);
        let err = exchange_credentials(&aerospace, &aircraft, phase, &cfg).unwrap_err();
        assert!(
            matches!(&err, NegotiationError::Interrupted { reason } if reason.contains(&old.id().0)),
            "{err:?}"
        );
    }

    /// Disclosure entries share the sender's credential and its encoding
    /// instead of re-serializing it; the entry's text is the canonical
    /// XML.
    #[test]
    fn disclosure_entries_share_the_credential_encoding() {
        let (aerospace, aircraft, _) = fig2_parties();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let outcome = negotiate(&aerospace, &aircraft, "VoMembership", &cfg).unwrap();
        let disclosed: Vec<&Credential> = outcome
            .transcript
            .entries()
            .iter()
            .filter_map(|e| match &e.message {
                Message::CredentialDisclosure { credential, .. } => Some(credential),
                _ => None,
            })
            .collect();
        assert_eq!(disclosed.len(), 2);
        for cred in disclosed {
            let held = [&aerospace, &aircraft]
                .iter()
                .find_map(|p| p.profile.get(cred.id()))
                .unwrap();
            assert!(std::ptr::eq(cred.signed_bytes(), held.signed_bytes()));
            assert_eq!(cred.xml_text(), trust_vo_xmldoc::to_string(&held.to_xml()));
        }
    }

    /// Disclosed policies and tree edges share the owner's policy (the
    /// same allocation, not a copy), under one-per-message disclosure and
    /// under the trusting strategy's batched alternatives alike.
    #[test]
    fn disclosed_policies_share_the_owners_policy() {
        let (aerospace, aircraft, _) = fig2_parties();
        for strategy in [Strategy::Standard, Strategy::Trusting] {
            let cfg = NegotiationConfig::new(strategy, at());
            let outcome = negotiate(&aerospace, &aircraft, "VoMembership", &cfg).unwrap();
            let owns = |side: Side, policy: &Arc<DisclosurePolicy>| {
                let owner = match side {
                    Side::Requester => &aerospace,
                    Side::Controller => &aircraft,
                };
                owner
                    .policies
                    .iter()
                    .any(|held| std::ptr::eq(held, &**policy))
            };
            let mut disclosed = 0;
            for entry in outcome.transcript.entries() {
                if let Message::PolicyDisclosure { policies } = &entry.message {
                    for policy in policies {
                        assert!(owns(entry.from, policy), "{strategy}: {policy}");
                        disclosed += 1;
                    }
                }
            }
            assert_eq!(disclosed, outcome.transcript.policies_disclosed);
            let tree = &outcome.tree;
            for edge in tree.edges() {
                assert!(owns(tree.node(edge.from).owner, &edge.policy), "{strategy}");
            }
        }
    }

    #[test]
    fn expired_credentials_are_never_offered() {
        // Parties filter their own expired credentials during planning, so
        // a negotiation after everything lapsed finds no trust sequence
        // (rather than failing mid-exchange).
        let (aerospace, aircraft, _) = fig2_parties();
        let late = window().not_after.plus_days(30);
        let cfg = NegotiationConfig::new(Strategy::Standard, late);
        let err = negotiate(&aerospace, &aircraft, "VoMembership", &cfg).unwrap_err();
        assert!(matches!(err, NegotiationError::NoTrustSequence { .. }));
    }

    #[test]
    fn untrusted_issuer_fails() {
        let (aerospace, mut aircraft, _) = fig2_parties();
        // Aircraft only trusts some other CA now.
        aircraft.trusted_roots.clear();
        aircraft.trust_root(trust_vo_crypto::KeyPair::from_seed(b"other-ca").public);
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let err = negotiate(&aerospace, &aircraft, "VoMembership", &cfg).unwrap_err();
        assert!(matches!(
            err,
            NegotiationError::TrustFailure {
                cause: CredentialError::UnknownIssuer(_)
            }
        ));
    }

    #[test]
    fn incompatible_format_rejected_upfront() {
        let (aerospace, aircraft, _) = fig2_parties();
        let mut cfg = NegotiationConfig::new(Strategy::Suspicious, at());
        cfg.format = CredentialFormat::X509v2;
        let err = negotiate(&aerospace, &aircraft, "VoMembership", &cfg).unwrap_err();
        assert!(matches!(err, NegotiationError::IncompatibleFormat { .. }));
        // The selective extension lifts the restriction.
        cfg.format = CredentialFormat::SelectiveX509;
        assert!(negotiate(&aerospace, &aircraft, "VoMembership", &cfg).is_ok());
    }

    #[test]
    fn interlocked_policies_deadlock_cleanly() {
        // A wants B's X before giving Y; B wants A's Y before giving X.
        let mut ca = CredentialAuthority::new("CA");
        let mut a = Party::new("A");
        let mut b = Party::new("B");
        let ax = ca.issue("Y", "A", a.keys.public, vec![], window()).unwrap();
        a.profile.add(ax);
        let bx = ca.issue("X", "B", b.keys.public, vec![], window()).unwrap();
        b.profile.add(bx);
        a.policies.add(DisclosurePolicy::rule(
            "pa",
            Resource::credential("Y"),
            vec![Term::of_type("X")],
        ));
        b.policies.add(DisclosurePolicy::rule(
            "pb",
            Resource::credential("X"),
            vec![Term::of_type("Y")],
        ));
        b.policies.add(DisclosurePolicy::rule(
            "root",
            Resource::service("Svc"),
            vec![Term::of_type("Y")],
        ));
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let err = negotiate(&a, &b, "Svc", &cfg).unwrap_err();
        assert!(matches!(err, NegotiationError::NoTrustSequence { .. }));
    }

    #[test]
    fn ungoverned_resource_granted_immediately() {
        let a = Party::new("A");
        let b = Party::new("B");
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let outcome = negotiate(&a, &b, "PublicInfo", &cfg).unwrap();
        assert!(outcome.sequence.is_empty());
        assert_eq!(outcome.transcript.credentials_disclosed, 0);
    }

    #[test]
    fn second_alternative_used_when_first_fails() {
        let (mut aerospace, mut aircraft, _) = fig2_parties();
        // Remove the aircraft's AAACreditation so alternative p2 fails and
        // p3 (BalanceSheet) is used.
        let id = aircraft
            .profile
            .of_type("AAACreditation")
            .next()
            .unwrap()
            .id()
            .clone();
        aircraft.profile.remove(&id);
        aerospace.trust_root(CredentialAuthority::new("AAA").public_key());
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let outcome = negotiate(&aerospace, &aircraft, "VoMembership", &cfg).unwrap();
        let types: Vec<_> = outcome
            .sequence
            .disclosures()
            .iter()
            .map(|d| d.cred_type.as_str())
            .collect();
        assert!(types.contains(&"BalanceSheet"));
        assert!(outcome.transcript.failed_alternatives >= 1);
    }

    #[test]
    fn count_views_matches_alternatives() {
        let (aerospace, aircraft, _) = fig2_parties();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        // Two views: via AAACreditation and via BalanceSheet.
        assert_eq!(
            count_views(&aerospace, &aircraft, "VoMembership", &cfg, 100),
            2
        );
        assert_eq!(count_views(&aerospace, &aircraft, "Nothing", &cfg, 100), 1);
        // ungoverned
    }

    #[test]
    fn obs_counters_match_transcript_accounting() {
        use trust_vo_obs::{Collector, ObsContext, Record};

        let (aerospace, aircraft, _) = fig2_parties();
        let collector = Collector::new();
        let cfg = NegotiationConfig::new(Strategy::StrongSuspicious, at())
            .with_obs(ObsContext::new(collector.clone()));
        let outcome = negotiate(&aerospace, &aircraft, "VoMembership", &cfg).unwrap();
        let t = &outcome.transcript;
        let snap = collector.metrics();
        assert_eq!(
            snap.counter("negotiation.messages"),
            t.message_count() as u64
        );
        assert_eq!(
            snap.counter("negotiation.policy_rounds"),
            t.policy_rounds as u64
        );
        assert_eq!(
            snap.counter("negotiation.policies_disclosed"),
            t.policies_disclosed as u64
        );
        assert_eq!(
            snap.counter("negotiation.credentials_disclosed"),
            t.credentials_disclosed as u64
        );
        assert_eq!(
            snap.counter("negotiation.verifications"),
            t.verifications as u64
        );
        assert_eq!(
            snap.counter("negotiation.ownership_proofs"),
            t.ownership_proofs as u64
        );
        assert_eq!(snap.counter("negotiation.failures"), 0);
        // One span per phase, both closed with outcome "ok".
        let spans: Vec<_> = collector
            .records()
            .into_iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.name == "negotiation.policy_phase"));
        assert!(spans.iter().any(|s| s.name == "negotiation.exchange_phase"));
        for span in &spans {
            assert!(span
                .fields
                .iter()
                .any(|(k, v)| k == "outcome" && *v == trust_vo_obs::Value::Str("ok".into())));
        }
    }

    #[test]
    fn obs_counts_failed_negotiations() {
        use trust_vo_obs::{Collector, ObsContext};

        let (mut aerospace, aircraft, _) = fig2_parties();
        let id = aerospace.profile.credentials()[0].id().clone();
        aerospace.profile.remove(&id);
        let collector = Collector::new();
        let cfg = NegotiationConfig::new(Strategy::Standard, at())
            .with_obs(ObsContext::new(collector.clone()));
        negotiate(&aerospace, &aircraft, "VoMembership", &cfg).unwrap_err();
        assert_eq!(collector.metrics().counter("negotiation.failures"), 1);
    }

    #[test]
    fn sequence_respects_dependency_order() {
        let (aerospace, aircraft, _) = fig2_parties();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let outcome = negotiate(&aerospace, &aircraft, "VoMembership", &cfg).unwrap();
        // The aircraft's accreditation must precede the aerospace quality
        // credential it unlocks.
        let accr = aircraft
            .profile
            .of_type("AAACreditation")
            .next()
            .unwrap()
            .id()
            .clone();
        let quality = aerospace
            .profile
            .of_type("WebDesignerQuality")
            .next()
            .unwrap()
            .id()
            .clone();
        assert!(outcome.sequence.respects_order(&[(accr, quality)]));
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;
    use crate::strategy::Strategy;
    use trust_vo_credential::{CredentialAuthority, CredentialError, TimeRange};
    use trust_vo_policy::{DisclosurePolicy, Resource, Term};

    fn window() -> TimeRange {
        TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0))
    }

    fn at() -> Timestamp {
        Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0)
    }

    /// The requester's credential is issued by an intermediate CA the
    /// controller does not trust directly; the controller holds the root's
    /// cross-certificate for the intermediate.
    fn chained_world() -> (Party, Party) {
        let root = CredentialAuthority::new("Root CA");
        let mut intermediate = CredentialAuthority::new("Regional CA");
        let mut requester = Party::new("R");
        let mut controller = Party::new("C");

        let quality = intermediate
            .issue("Quality", "R", requester.keys.public, vec![], window())
            .unwrap();
        requester.profile.add(quality);

        // The root certifies the intermediate: a credential whose subject
        // key is the intermediate's issuing key.
        let root_keys = trust_vo_crypto::KeyPair::from_seed(b"authority:Root CA");
        let intermediate_subject_key = intermediate.public_key();
        let cross_cert = Credential::issue_signed(
            trust_vo_credential::Header {
                cred_id: trust_vo_credential::CredentialId("cross-1".into()),
                cred_type: "CACert".into(),
                issuer: "Root CA".into(),
                issuer_key: root.public_key(),
                subject: "Regional CA".into(),
                subject_key: intermediate_subject_key,
                validity: window(),
            },
            vec![],
            &root_keys,
        );
        controller.chains.add(cross_cert);

        controller.policies.add(DisclosurePolicy::rule(
            "p",
            Resource::service("Svc"),
            vec![Term::of_type("Quality")],
        ));
        // The controller trusts ONLY the root.
        controller.trust_root(root.public_key());
        requester.trust_root(root.public_key());
        requester.trust_root(intermediate.public_key());
        (requester, controller)
    }

    #[test]
    fn chain_resolution_accepts_indirectly_trusted_issuer() {
        let (requester, controller) = chained_world();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let outcome = negotiate(&requester, &controller, "Svc", &cfg);
        assert!(outcome.is_ok(), "{outcome:?}");
    }

    #[test]
    fn missing_chain_link_still_rejected() {
        let (requester, mut controller) = chained_world();
        controller.chains = trust_vo_credential::chain::ChainDirectory::new();
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let err = negotiate(&requester, &controller, "Svc", &cfg).unwrap_err();
        assert!(matches!(
            err,
            NegotiationError::TrustFailure {
                cause: CredentialError::UnknownIssuer(_)
            }
        ));
    }

    #[test]
    fn revoked_chain_link_rejected() {
        let (requester, mut controller) = chained_world();
        controller
            .crl
            .revoke(trust_vo_credential::CredentialId("cross-1".into()), at());
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let err = negotiate(&requester, &controller, "Svc", &cfg).unwrap_err();
        assert!(matches!(
            err,
            NegotiationError::TrustFailure {
                cause: CredentialError::Revoked { .. }
            }
        ));
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::strategy::Strategy;

    #[test]
    fn message_budget_interrupts_long_exchanges() {
        // A deep chain needs many policy messages; a tiny budget interrupts.
        let (requester, controller) = {
            // Reuse the chain generator shape inline.
            use trust_vo_credential::{CredentialAuthority, TimeRange};
            use trust_vo_policy::{DisclosurePolicy, Resource, Term};
            let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
            let mut ca = CredentialAuthority::new("CA");
            let mut requester = Party::new("R");
            let mut controller = Party::new("C");
            for level in 0..8usize {
                let ty = format!("T{level}");
                let owner = if level % 2 == 0 {
                    &mut requester
                } else {
                    &mut controller
                };
                let cred = ca
                    .issue(&ty, &owner.name.clone(), owner.keys.public, vec![], window)
                    .unwrap();
                owner.profile.add(cred);
                let resource = Resource::credential(ty);
                if level + 1 < 8 {
                    owner.policies.add(DisclosurePolicy::rule(
                        format!("p{level}"),
                        resource,
                        vec![Term::of_type(format!("T{}", level + 1))],
                    ));
                } else {
                    owner
                        .policies
                        .add(DisclosurePolicy::deliv(format!("d{level}"), resource));
                }
            }
            controller.policies.add(DisclosurePolicy::rule(
                "root",
                Resource::service("Svc"),
                vec![Term::of_type("T0")],
            ));
            requester.trust_root(ca.public_key());
            controller.trust_root(ca.public_key());
            (requester, controller)
        };
        let at = Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let mut cfg = NegotiationConfig::new(Strategy::Standard, at);
        cfg.max_messages = 5;
        let err = negotiate(&requester, &controller, "Svc", &cfg).unwrap_err();
        assert!(
            matches!(err, NegotiationError::Interrupted { .. }),
            "{err:?}"
        );
        // With the default budget it completes.
        let cfg = NegotiationConfig::new(Strategy::Standard, at);
        assert!(negotiate(&requester, &controller, "Svc", &cfg).is_ok());
    }

    #[test]
    fn message_budget_enforced_during_credential_exchange() {
        use trust_vo_credential::{CredentialAuthority, TimeRange};
        use trust_vo_policy::{DisclosurePolicy, Resource, Term};
        // Shallow policy phase (one rule, three terms) but a three-credential
        // exchange: the budget must also interrupt phase 2.
        let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
        let mut ca = CredentialAuthority::new("CA");
        let mut requester = Party::new("R");
        let mut controller = Party::new("C");
        for ty in ["A", "B", "C"] {
            let cred = ca
                .issue(ty, "R", requester.keys.public, vec![], window)
                .unwrap();
            requester.profile.add(cred);
        }
        controller.policies.add(DisclosurePolicy::rule(
            "p",
            Resource::service("Svc"),
            vec![Term::of_type("A"), Term::of_type("B"), Term::of_type("C")],
        ));
        requester.trust_root(ca.public_key());
        controller.trust_root(ca.public_key());

        let at = Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let cfg = NegotiationConfig::new(Strategy::Standard, at);
        // Phase 1 fits the budget on its own...
        let phase = evaluate_policies(&requester, &controller, "Svc", &cfg).unwrap();
        let phase1_messages = phase.transcript.message_count();
        assert_eq!(phase.sequence.disclosures().len(), 3);

        // ...but allow only one more message, so the exchange (two messages
        // per disclosure) must hit the ceiling mid-phase-2.
        let mut tight = cfg.clone();
        tight.max_messages = phase1_messages + 1;
        assert!(phase1_messages <= tight.max_messages);
        let err = negotiate(&requester, &controller, "Svc", &tight).unwrap_err();
        assert!(
            matches!(err, NegotiationError::Interrupted { .. }),
            "{err:?}"
        );

        // The untightened budget completes and discloses all three.
        let ok = negotiate(&requester, &controller, "Svc", &cfg).unwrap();
        assert_eq!(ok.transcript.credentials_disclosed, 3);
    }
}

#[cfg(test)]
mod strategy_message_tests {
    use super::*;
    use crate::strategy::Strategy;
    use trust_vo_credential::{CredentialAuthority, TimeRange};
    use trust_vo_policy::{DisclosurePolicy, Resource, Term};

    /// A conjunctive three-term policy: strong-suspicious must split it
    /// into one message per term, the others send it whole.
    #[test]
    fn strong_suspicious_splits_conjunctions() {
        let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
        let at = Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let mut ca = CredentialAuthority::new("CA");
        let mut requester = Party::new("R");
        let mut controller = Party::new("C");
        for ty in ["A", "B", "C"] {
            let cred = ca
                .issue(ty, "R", requester.keys.public, vec![], window)
                .unwrap();
            requester.profile.add(cred);
        }
        controller.policies.add(DisclosurePolicy::rule(
            "p",
            Resource::service("Svc"),
            vec![Term::of_type("A"), Term::of_type("B"), Term::of_type("C")],
        ));
        requester.trust_root(ca.public_key());
        controller.trust_root(ca.public_key());

        let standard = negotiate(
            &requester,
            &controller,
            "Svc",
            &NegotiationConfig::new(Strategy::Standard, at),
        )
        .unwrap();
        let strong = negotiate(
            &requester,
            &controller,
            "Svc",
            &NegotiationConfig::new(Strategy::StrongSuspicious, at),
        )
        .unwrap();
        // Standard: the whole policy in 1 round; strong: 3 rounds.
        assert_eq!(
            standard.transcript.policy_rounds + 2,
            strong.transcript.policy_rounds
        );
        assert_eq!(
            standard.transcript.count_tag("policy-disclosure") + 2,
            strong.transcript.count_tag("policy-disclosure")
        );
        // Same trust sequence either way.
        assert_eq!(standard.sequence, strong.sequence);
    }
}

#[cfg(test)]
mod count_views_validity_tests {
    use super::*;
    use crate::strategy::Strategy;
    use trust_vo_credential::{CredentialAuthority, TimeRange};
    use trust_vo_policy::{DisclosurePolicy, Resource, Term};

    /// Regression: count_views must apply the same validity filter as
    /// planning, so an expired credential forms no view.
    #[test]
    fn expired_credentials_not_counted_as_views() {
        let mut ca = CredentialAuthority::new("CA");
        let mut requester = Party::new("R");
        let mut controller = Party::new("C");
        let fresh_window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
        let stale_window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2005, 1, 1, 0, 0, 0));
        let valid = ca
            .issue("T", "R", requester.keys.public, vec![], fresh_window)
            .unwrap();
        let expired = ca
            .issue("T", "R", requester.keys.public, vec![], stale_window)
            .unwrap();
        requester.profile.add(valid);
        requester.profile.add(expired);
        controller.policies.add(DisclosurePolicy::rule(
            "p",
            Resource::service("Svc"),
            vec![Term::of_type("T")],
        ));
        requester.trust_root(ca.public_key());
        controller.trust_root(ca.public_key());
        let cfg = NegotiationConfig::new(
            Strategy::Standard,
            Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
        );
        let counted = count_views(&requester, &controller, "Svc", &cfg, 100);
        assert_eq!(counted, 1, "only the valid credential forms a view");
    }
}
