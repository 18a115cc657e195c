//! The Operation phase with integrated trust negotiation (paper §5.1).
//!
//! "TN protocols are also useful in case of long lasting VOs, where
//! credentials used for the VO formation may expire or be revoked before
//! the VO dissolution. … Unlike TN carried out during the formation phase,
//! the result of a TN, in this case is not a credential, but it is an
//! authorization to execute the next VO operations. … A TN is also
//! executed in case of a VO member replacement by following the same
//! protocols of the formation phase."

use crate::error::VoError;
use crate::formation::{charge_negotiation, join_member, rank_candidates, FormedVo};
use crate::lifecycle::Phase;
use crate::mailbox::MailboxSystem;
use crate::member::{MemberRecord, ServiceProvider};
use crate::registry::ServiceRegistry;
use crate::reputation::ReputationLedger;
use std::collections::BTreeMap;
use trust_vo_credential::{RevocationList, Timestamp};
use trust_vo_negotiation::{negotiate, NegotiationConfig, Strategy};
use trust_vo_soa::simclock::{CostKind, SimClock};

/// The default reputation threshold below which a member is replaced.
pub const REPLACEMENT_THRESHOLD: f64 = 0.3;

/// The result of an operation-phase TN: not a credential, but permission
/// to proceed with the next VO operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Authorization {
    /// The member granted the authorization.
    pub granted_to: String,
    /// The operation/resource the authorization covers.
    pub resource: String,
    /// When it was granted (simulated time).
    pub at: Timestamp,
}

/// One monitored interaction between members (Fig. 1 arrows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractionRecord {
    /// Acting member.
    pub from: String,
    /// Target member.
    pub to: String,
    /// What happened.
    pub action: String,
    /// When (simulated time).
    pub at: Timestamp,
    /// Whether monitoring flagged a contract violation.
    pub violation: bool,
}

/// The operation-phase engine: monitoring log plus TN-driven flows.
#[derive(Debug, Default)]
pub struct OperationLog {
    records: Vec<InteractionRecord>,
}

impl OperationLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a monitored interaction. "All the interactions must be
    /// monitored, ruled by security policies and any violation must be
    /// notified" (§2). Violations lower the offender's reputation.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        vo: &FormedVo,
        reputation: &mut ReputationLedger,
        from: &str,
        to: &str,
        action: &str,
        violation: bool,
        at: Timestamp,
    ) -> Result<(), VoError> {
        vo.lifecycle.require(Phase::Operation)?;
        for name in [from, to] {
            if !vo.is_member(name) && name != vo.initiator {
                return Err(VoError::UnknownMember(name.to_owned()));
            }
        }
        self.records.push(InteractionRecord {
            from: from.to_owned(),
            to: to.to_owned(),
            action: action.to_owned(),
            at,
            violation,
        });
        if violation {
            reputation.record_violation(from);
        } else {
            reputation.record_success(from);
        }
        Ok(())
    }

    /// All recorded interactions.
    pub fn records(&self) -> &[InteractionRecord] {
        &self.records
    }

    /// Violations by a given member.
    pub fn violations_by<'a>(
        &'a self,
        member: &'a str,
    ) -> impl Iterator<Item = &'a InteractionRecord> + 'a {
        self.records
            .iter()
            .filter(move |r| r.violation && r.from == member)
    }
}

/// Verify a member's membership certificate at `at` (signature, validity,
/// revocation against the VO's revocation list).
pub fn verify_membership(
    _vo: &FormedVo,
    record: &MemberRecord,
    at: Timestamp,
    crl: &RevocationList,
) -> Result<(), VoError> {
    record
        .certificate
        .verify(at, Some(crl))
        .map_err(|e| VoError::InvalidMembership {
            member: record.provider.clone(),
            detail: e.to_string(),
        })
}

/// An operation-phase trust negotiation between two members: `requester`
/// asks `controller` for `resource`; success yields an [`Authorization`].
#[allow(clippy::too_many_arguments)]
pub fn authorize_operation(
    vo: &FormedVo,
    providers: &BTreeMap<String, ServiceProvider>,
    requester: &str,
    controller: &str,
    resource: &str,
    reputation: &mut ReputationLedger,
    clock: &SimClock,
    strategy: Strategy,
) -> Result<Authorization, VoError> {
    vo.lifecycle.require(Phase::Operation)?;
    for name in [requester, controller] {
        if !vo.is_member(name) && name != vo.initiator {
            return Err(VoError::UnknownMember(name.to_owned()));
        }
    }
    let req_party = &providers
        .get(requester)
        .ok_or_else(|| VoError::UnknownMember(requester.to_owned()))?
        .party;
    let ctl_party = &providers
        .get(controller)
        .ok_or_else(|| VoError::UnknownMember(controller.to_owned()))?
        .party;
    let cfg = NegotiationConfig::new(strategy, clock.timestamp());
    match negotiate(req_party, ctl_party, resource, &cfg) {
        Ok(outcome) => {
            charge_negotiation(clock, &outcome.transcript);
            reputation.record_success(requester);
            Ok(Authorization {
                granted_to: requester.to_owned(),
                resource: resource.to_owned(),
                at: clock.timestamp(),
            })
        }
        Err(e) => {
            reputation.record_failed_negotiation(requester);
            Err(VoError::Negotiation(e))
        }
    }
}

/// Replace the member playing `role` "by following the same protocols of
/// the formation phase" (§5.1): the old member is removed, its certificate
/// revoked, and the registry is searched for a substitute (the old member
/// is excluded from the candidate list).
#[allow(clippy::too_many_arguments)]
pub fn replace_member(
    vo: &mut FormedVo,
    initiator: &ServiceProvider,
    providers: &BTreeMap<String, ServiceProvider>,
    registry: &ServiceRegistry,
    role: &str,
    crl: &mut RevocationList,
    mailboxes: &mut MailboxSystem,
    reputation: &mut ReputationLedger,
    clock: &SimClock,
    strategy: Strategy,
) -> Result<MemberRecord, VoError> {
    vo.lifecycle.require(Phase::Operation)?;
    let role_def = vo
        .contract
        .role(role)
        .ok_or_else(|| VoError::UnknownRole(role.to_owned()))?
        .clone();
    let old = vo
        .members
        .iter()
        .position(|m| m.role == role)
        .ok_or_else(|| VoError::UnknownRole(role.to_owned()))?;
    let removed = vo.members.remove(old);
    crl.revoke(removed.certificate.revocation_id(), clock.timestamp());
    clock.charge(CostKind::DbQuery); // registry query

    let mut candidates = registry.find_by_capability(&role_def.capability);
    candidates.retain(|d| d.provider != removed.provider);
    rank_candidates(&mut candidates, reputation);
    if candidates.is_empty() {
        return Err(VoError::NoCandidates {
            role: role.to_owned(),
        });
    }
    let mut tried = Vec::new();
    for description in candidates {
        let Some(candidate) = providers.get(&description.provider) else {
            continue;
        };
        tried.push(candidate.name().to_owned());
        if let Ok(record) = join_member(
            vo,
            initiator,
            candidate,
            role,
            mailboxes,
            reputation,
            clock,
            Some(strategy),
        ) {
            return Ok(record);
        }
    }
    Err(VoError::RoleUnfilled {
        role: role.to_owned(),
        tried,
    })
}

/// Re-issue an expired membership certificate after a successful
/// re-negotiation ("credentials used for the VO formation may expire …
/// a TN is executed to ensure that this certification is still valid").
#[allow(clippy::too_many_arguments)]
pub fn renew_membership(
    vo: &mut FormedVo,
    initiator: &ServiceProvider,
    providers: &BTreeMap<String, ServiceProvider>,
    member: &str,
    mailboxes: &mut MailboxSystem,
    reputation: &mut ReputationLedger,
    clock: &SimClock,
    strategy: Strategy,
) -> Result<MemberRecord, VoError> {
    vo.lifecycle.require(Phase::Operation)?;
    let idx = vo
        .members
        .iter()
        .position(|m| m.provider == member)
        .ok_or_else(|| VoError::UnknownMember(member.to_owned()))?;
    let role = vo.members[idx].role.clone();
    let candidate = providers
        .get(member)
        .ok_or_else(|| VoError::UnknownMember(member.to_owned()))?;
    // Negotiate the renewal first; the old (expiring) record is only
    // retired once the new certificate is in hand.
    let record = join_member(
        vo,
        initiator,
        candidate,
        &role,
        mailboxes,
        reputation,
        clock,
        Some(strategy),
    )?;
    vo.members.remove(idx);
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{Contract, Role};
    use crate::formation::{create_vo, Formation, NegotiationSource};
    use crate::registry::ResourceDescription;
    use trust_vo_credential::{CredentialAuthority, TimeRange};
    use trust_vo_negotiation::Party;
    use trust_vo_policy::{DisclosurePolicy, PolicySet, Resource, Term};
    use trust_vo_soa::simclock::{CostModel, SimDuration};

    fn clock() -> SimClock {
        SimClock::new(
            CostModel::paper_testbed(),
            Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
        )
    }

    struct World {
        vo: FormedVo,
        initiator: ServiceProvider,
        providers: BTreeMap<String, ServiceProvider>,
        registry: ServiceRegistry,
        mailboxes: MailboxSystem,
        reputation: ReputationLedger,
        clock: SimClock,
    }

    /// Two HPC candidates so replacement has somewhere to go.
    fn world() -> World {
        world_of(&[("HPC-A", 0.95), ("HPC-B", 0.90)])
    }

    /// One HPC candidate per `(name, advertised quality)`, formed into a
    /// VO whose HPC member is the best of them.
    fn world_of(candidates: &[(&str, f64)]) -> World {
        let mut ca = CredentialAuthority::new("SLACert");
        let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
        let mut initiator_party = Party::new("Aircraft");
        initiator_party.trust_root(ca.public_key());

        let mut providers = BTreeMap::new();
        for &(name, _) in candidates {
            let mut party = Party::new(name);
            let sla = ca
                .issue("HpcSla", name, party.keys.public, vec![], window)
                .unwrap();
            party.profile.add(sla);
            party.trust_root(ca.public_key());
            // Members expose a ControlFile service to each other, gated on
            // membership-ish credential — keep it simply deliverable.
            party.policies.add(DisclosurePolicy::deliv(
                format!("{name}-ctl"),
                Resource::service("ControlFile"),
            ));
            providers.insert(name.to_owned(), ServiceProvider::new(party));
        }

        let mut contract = Contract::new("AircraftOptimization", "low emissions")
            .with_role(Role::new("HPC", "hpc-compute", "SLA"));
        let mut policies = PolicySet::new();
        policies.add(DisclosurePolicy::rule(
            "p",
            Resource::service("VoMembership"),
            vec![Term::of_type("HpcSla")],
        ));
        contract.set_role_policies("HPC", policies);

        let mut registry = ServiceRegistry::new();
        for &(name, quality) in candidates {
            registry.publish(ResourceDescription::new(name, "hpc-compute", "x", quality));
        }

        let initiator = ServiceProvider::new(initiator_party);
        // The toolkit's provider map includes the initiator itself.
        providers.insert("Aircraft".to_owned(), initiator.clone());
        let clock = clock();
        let mut mailboxes = MailboxSystem::new();
        let mut reputation = ReputationLedger::new();
        let (vo, _) = Formation::new(
            &initiator,
            &providers,
            &registry,
            NegotiationSource::in_process(&clock),
        )
        .run(contract, &mut mailboxes, &mut reputation)
        .unwrap();
        World {
            vo,
            initiator,
            providers,
            registry,
            mailboxes,
            reputation,
            clock,
        }
    }

    #[test]
    fn interactions_recorded_and_reputation_updates() {
        let mut w = world();
        let mut log = OperationLog::new();
        log.record(
            &w.vo,
            &mut w.reputation,
            "HPC-A",
            "Aircraft",
            "flow solution computed",
            false,
            w.clock.timestamp(),
        )
        .unwrap();
        log.record(
            &w.vo,
            &mut w.reputation,
            "HPC-A",
            "Aircraft",
            "SLA missed",
            true,
            w.clock.timestamp(),
        )
        .unwrap();
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.violations_by("HPC-A").count(), 1);
        // One success (+0.05) + formation success (+0.05) then one violation (-0.2).
        assert!(w.reputation.get("HPC-A") < 0.5);
    }

    #[test]
    fn unknown_member_interaction_rejected() {
        let mut w = world();
        let mut log = OperationLog::new();
        let err = log
            .record(
                &w.vo,
                &mut w.reputation,
                "Ghost",
                "Aircraft",
                "x",
                false,
                w.clock.timestamp(),
            )
            .unwrap_err();
        assert!(matches!(err, VoError::UnknownMember(_)));
    }

    #[test]
    fn authorize_operation_grants_and_charges() {
        let mut w = world();
        let before = w.clock.elapsed();
        let auth = authorize_operation(
            &w.vo,
            &w.providers,
            "Aircraft",
            "HPC-A",
            "ControlFile",
            &mut w.reputation,
            &w.clock,
            Strategy::Standard,
        );
        // Aircraft is the initiator (allowed actor).
        let auth = auth.unwrap();
        assert_eq!(auth.resource, "ControlFile");
        assert!(w.clock.elapsed() >= before);
    }

    #[test]
    fn authorization_requires_operation_phase() {
        let w = world();
        let mut fresh = create_vo(w.vo.contract.clone(), &w.initiator, &w.clock);
        fresh.members = w.vo.members.clone();
        let mut rep = ReputationLedger::new();
        let err = authorize_operation(
            &fresh,
            &w.providers,
            "Aircraft",
            "HPC-A",
            "ControlFile",
            &mut rep,
            &w.clock,
            Strategy::Standard,
        )
        .unwrap_err();
        assert!(matches!(err, VoError::WrongPhase { .. }));
    }

    #[test]
    fn membership_verification_and_revocation() {
        let w = world();
        let record = w.vo.member_for_role("HPC").unwrap();
        let crl = RevocationList::new();
        assert!(verify_membership(&w.vo, record, w.clock.timestamp(), &crl).is_ok());
        let mut crl = RevocationList::new();
        crl.revoke(record.certificate.revocation_id(), w.clock.timestamp());
        let err = verify_membership(&w.vo, record, w.clock.timestamp(), &crl).unwrap_err();
        assert!(matches!(err, VoError::InvalidMembership { .. }));
    }

    #[test]
    fn membership_expires_after_a_year() {
        let w = world();
        let record = w.vo.member_for_role("HPC").unwrap();
        let crl = RevocationList::new();
        // Advance the virtual calendar 2 years.
        w.clock
            .advance(SimDuration::from_millis(2 * 365 * 24 * 3600 * 1000));
        let err = verify_membership(&w.vo, record, w.clock.timestamp(), &crl).unwrap_err();
        assert!(matches!(err, VoError::InvalidMembership { .. }));
    }

    #[test]
    fn replacement_swaps_in_next_candidate() {
        let mut w = world();
        assert!(w.vo.is_member("HPC-A"));
        let mut crl = RevocationList::new();
        let record = replace_member(
            &mut w.vo,
            &w.initiator,
            &w.providers,
            &w.registry,
            "HPC",
            &mut crl,
            &mut w.mailboxes,
            &mut w.reputation,
            &w.clock,
            Strategy::Standard,
        )
        .unwrap();
        assert_eq!(record.provider, "HPC-B");
        assert!(w.vo.is_member("HPC-B"));
        assert!(!w.vo.is_member("HPC-A"));
        assert_eq!(crl.len(), 1);
    }

    /// Replacement searches the registry in the formation's order: the
    /// remaining candidate with the better quality × reputation goes
    /// first, even when its advertised quality alone ranks it second.
    #[test]
    fn replacement_follows_the_formation_candidate_order() {
        let mut w = world_of(&[("HPC-A", 0.95), ("HPC-B", 0.90), ("HPC-C", 0.85)]);
        assert!(w.vo.is_member("HPC-A"));
        w.reputation.record_violation("HPC-B");
        let mut remaining = w.registry.find_by_capability("hpc-compute");
        remaining.retain(|d| d.provider != "HPC-A");
        assert_eq!(
            remaining[0].provider, "HPC-B",
            "quality alone ranks HPC-B first"
        );
        rank_candidates(&mut remaining, &w.reputation);
        assert_eq!(
            remaining[0].provider, "HPC-C",
            "reputation reverses the order"
        );
        let record = replace_member(
            &mut w.vo,
            &w.initiator,
            &w.providers,
            &w.registry,
            "HPC",
            &mut RevocationList::new(),
            &mut w.mailboxes,
            &mut w.reputation,
            &w.clock,
            Strategy::Standard,
        )
        .unwrap();
        assert_eq!(record.provider, "HPC-C");
        assert!(w.vo.is_member("HPC-C"));
    }

    #[test]
    fn renew_membership_reissues_certificate() {
        let mut w = world();
        let old_serial = w.vo.member_for_role("HPC").unwrap().certificate.serial;
        let record = renew_membership(
            &mut w.vo,
            &w.initiator,
            &w.providers,
            "HPC-A",
            &mut w.mailboxes,
            &mut w.reputation,
            &w.clock,
            Strategy::Standard,
        )
        .unwrap();
        assert_eq!(record.provider, "HPC-A");
        assert_ne!(record.certificate.serial, old_serial);
        assert_eq!(w.vo.members().len(), 1);
    }

    #[test]
    fn replacement_threshold_flow() {
        let mut w = world();
        let mut log = OperationLog::new();
        for _ in 0..2 {
            log.record(
                &w.vo,
                &mut w.reputation,
                "HPC-A",
                "Aircraft",
                "violation",
                true,
                w.clock.timestamp(),
            )
            .unwrap();
        }
        assert!(w
            .reputation
            .needs_replacement("HPC-A", REPLACEMENT_THRESHOLD));
        assert!(!w
            .reputation
            .needs_replacement("HPC-B", REPLACEMENT_THRESHOLD));
    }
}
