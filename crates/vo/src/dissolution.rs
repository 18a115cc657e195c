//! The Dissolution phase.
//!
//! "This phase takes place when the objectives of the VO have been
//! fulfilled. The VO structure is dissolved and final operations are
//! performed to nullify all contractual binding of the VO's members." (§2)

use crate::error::VoError;
use crate::formation::FormedVo;
use crate::lifecycle::Phase;
use trust_vo_credential::RevocationList;
use trust_vo_soa::simclock::{CostKind, SimClock};

/// The record of a completed dissolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DissolutionReport {
    /// The dissolved VO.
    pub vo_name: String,
    /// Members whose bindings were nullified.
    pub members_released: Vec<String>,
    /// Membership certificates revoked.
    pub certificates_revoked: usize,
}

/// Dissolve a VO: revoke every membership certificate (nullifying the
/// contractual bindings), clear the member list, and advance the
/// lifecycle to its terminal phase.
pub fn dissolve(
    vo: &mut FormedVo,
    crl: &mut RevocationList,
    clock: &SimClock,
) -> Result<DissolutionReport, VoError> {
    vo.lifecycle.require(Phase::Operation)?;
    let mut released = Vec::with_capacity(vo.members.len());
    for member in vo.members.drain(..) {
        crl.revoke(member.certificate.revocation_id(), clock.timestamp());
        clock.charge(CostKind::DbQuery);
        released.push(member.provider);
    }
    vo.lifecycle
        .advance_to(Phase::Dissolution, clock.timestamp())
        .expect("operation advances to dissolution");
    Ok(DissolutionReport {
        vo_name: vo.name.clone(),
        certificates_revoked: released.len(),
        members_released: released,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{Contract, Role};
    use crate::formation::{create_vo, Formation, NegotiationSource};
    use crate::mailbox::MailboxSystem;
    use crate::member::ServiceProvider;
    use crate::registry::{ResourceDescription, ServiceRegistry};
    use crate::reputation::ReputationLedger;
    use std::collections::BTreeMap;
    use trust_vo_credential::{CredentialAuthority, TimeRange, Timestamp};
    use trust_vo_negotiation::Party;
    use trust_vo_policy::{DisclosurePolicy, PolicySet, Resource, Term};
    use trust_vo_soa::simclock::CostModel;

    fn formed() -> (FormedVo, RevocationList, SimClock) {
        let clock = SimClock::new(
            CostModel::paper_testbed(),
            Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
        );
        let mut ca = CredentialAuthority::new("CA");
        let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
        let mut initiator_party = Party::new("Aircraft");
        initiator_party.trust_root(ca.public_key());
        let mut member_party = Party::new("StoreCo");
        let sla = ca
            .issue(
                "StorageSla",
                "StoreCo",
                member_party.keys.public,
                vec![],
                window,
            )
            .unwrap();
        member_party.profile.add(sla);
        member_party.trust_root(ca.public_key());

        let mut contract =
            Contract::new("VO", "goal").with_role(Role::new("Storage", "storage", "SLA"));
        let mut policies = PolicySet::new();
        policies.add(DisclosurePolicy::rule(
            "p",
            Resource::service("VoMembership"),
            vec![Term::of_type("StorageSla")],
        ));
        contract.set_role_policies("Storage", policies);
        let mut registry = ServiceRegistry::new();
        registry.publish(ResourceDescription::new("StoreCo", "storage", "x", 0.9));
        let mut providers = BTreeMap::new();
        providers.insert("StoreCo".to_owned(), ServiceProvider::new(member_party));
        let initiator = ServiceProvider::new(initiator_party);
        let (vo, _) = Formation::new(
            &initiator,
            &providers,
            &registry,
            NegotiationSource::in_process(&clock),
        )
        .run(
            contract,
            &mut MailboxSystem::new(),
            &mut ReputationLedger::new(),
        )
        .unwrap();
        (vo, RevocationList::new(), clock)
    }

    #[test]
    fn dissolve_revokes_and_terminates() {
        let (mut vo, mut crl, clock) = formed();
        let cert_id = vo.members()[0].certificate.revocation_id();
        let report = dissolve(&mut vo, &mut crl, &clock).unwrap();
        assert_eq!(report.vo_name, "VO");
        assert_eq!(report.members_released, ["StoreCo"]);
        assert_eq!(report.certificates_revoked, 1);
        assert!(crl.is_revoked(&cert_id));
        assert!(vo.members().is_empty());
        assert_eq!(vo.lifecycle.phase(), Phase::Dissolution);
    }

    #[test]
    fn dissolve_requires_operation_phase() {
        let (vo, mut crl, clock) = formed();
        let mut fresh = create_vo(
            vo.contract.clone(),
            &ServiceProvider::new(Party::new("Aircraft")),
            &clock,
        );
        let err = dissolve(&mut fresh, &mut crl, &clock).unwrap_err();
        assert!(matches!(err, VoError::WrongPhase { .. }));
    }

    #[test]
    fn dissolving_twice_fails() {
        let (mut vo, mut crl, clock) = formed();
        dissolve(&mut vo, &mut crl, &clock).unwrap();
        assert!(dissolve(&mut vo, &mut crl, &clock).is_err());
    }
}
