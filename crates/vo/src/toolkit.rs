//! The VO Management toolkit facade (paper §6.1).
//!
//! "The toolkit is deployed as three distinct components": the **Host
//! Edition** (member registration, VO monitoring, the list of services
//! available for participation), the **Initiator Edition** (VO creation
//! and management), and the **Member Edition** (participation: register at
//! a Host, configure properties, send/receive e-mails). [`VoToolkit`]
//! holds the shared state; the edition structs expose each component's
//! operations over it.

use crate::admitted::AdmissionControl;
use crate::contract::Contract;
use crate::error::VoError;
use crate::formation::{Formation, FormedVo, NegotiationSource};
use crate::mailbox::MailboxSystem;
use crate::member::ServiceProvider;
use crate::registry::{ResourceDescription, ServiceRegistry};
use crate::reputation::ReputationLedger;
use std::collections::BTreeMap;
use trust_vo_negotiation::Strategy;
use trust_vo_soa::simclock::{CostKind, SimClock};

/// Shared toolkit state.
#[derive(Debug)]
pub struct VoToolkit {
    /// The simulated clock every operation charges.
    pub clock: SimClock,
    /// The Preparation-phase public repository.
    pub registry: ServiceRegistry,
    /// The invitation mailboxes.
    pub mailboxes: MailboxSystem,
    /// The reputation ledger.
    pub reputation: ReputationLedger,
    /// Registered providers, by name.
    pub providers: BTreeMap<String, ServiceProvider>,
    /// VOs formed through this toolkit.
    pub active_vos: Vec<String>,
}

impl VoToolkit {
    /// A fresh toolkit on the given clock.
    pub fn new(clock: SimClock) -> Self {
        VoToolkit {
            clock,
            registry: ServiceRegistry::new(),
            mailboxes: MailboxSystem::new(),
            reputation: ReputationLedger::new(),
            providers: BTreeMap::new(),
            active_vos: Vec::new(),
        }
    }

    // ---- Host Edition ----

    /// Host Edition: register a member and publish its resources. "The
    /// Host Edition provides services such as member registration and VO
    /// monitoring."
    pub fn host_register(
        &mut self,
        provider: ServiceProvider,
        descriptions: Vec<ResourceDescription>,
    ) {
        self.clock.charge(CostKind::SoapRoundTrip);
        self.clock.charge(CostKind::DbQuery);
        for d in descriptions {
            self.registry.publish(d);
            self.clock.charge(CostKind::DbQuery);
        }
        self.providers.insert(provider.name().to_owned(), provider);
    }

    /// Host Edition: "the list of services that are available for
    /// participating in a VO".
    pub fn host_available_services(&self) -> Vec<&ResourceDescription> {
        self.providers
            .keys()
            .flat_map(|name| self.registry.by_provider(name))
            .collect()
    }

    /// Host Edition: the active VO list.
    pub fn host_active_vos(&self) -> &[String] {
        &self.active_vos
    }

    // ---- Initiator Edition ----

    /// Initiator Edition: create and form a VO from a contract. Runs the
    /// Identification and Formation phases (with trust negotiation) and
    /// registers the VO as active.
    ///
    /// Under reputation-gated `admission` control the engine is seeded
    /// from the toolkit's own [`ReputationLedger`] first, so admission
    /// banding starts from the reputation the paper's write-side has
    /// accumulated — the ledger keeps working exactly as before
    /// underneath — and `strategy` becomes the fallback.
    pub fn initiator_form_vo(
        &mut self,
        contract: Contract,
        initiator_name: &str,
        strategy: Strategy,
        admission: Option<&AdmissionControl>,
    ) -> Result<FormedVo, VoError> {
        let initiator = self
            .providers
            .get(initiator_name)
            .ok_or_else(|| VoError::UnknownMember(initiator_name.to_owned()))?
            .clone();
        if let Some(control) = admission {
            control.seed_from_ledger(&self.reputation, self.clock.elapsed());
        }
        // Authoring the contract + policies on the Initiator GUI.
        self.clock.charge(CostKind::GuiStep);
        let (vo, _) = Formation::new(
            &initiator,
            &self.providers,
            &self.registry,
            NegotiationSource::in_process(&self.clock),
        )
        .with_strategy(strategy)
        .with_admission(admission)
        .run(contract, &mut self.mailboxes, &mut self.reputation)?;
        self.active_vos.push(vo.name.clone());
        Ok(vo)
    }

    // ---- Member Edition ----

    /// Member Edition: a member's pending invitations.
    pub fn member_inbox(&self, member: &str) -> usize {
        self.mailboxes.read(member).len()
    }

    /// Member Edition: reconfigure whether a member accepts invitations.
    pub fn member_set_accepting(&mut self, member: &str, accepting: bool) -> Result<(), VoError> {
        let provider = self
            .providers
            .get_mut(member)
            .ok_or_else(|| VoError::UnknownMember(member.to_owned()))?;
        provider.accepts_invitations = accepting;
        Ok(())
    }
}

/// A Host Edition monitoring snapshot of one VO ("The Host Edition
/// provides services such as member registration and VO monitoring",
/// §6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct MonitoringReport {
    /// The monitored VO.
    pub vo_name: String,
    /// Current lifecycle phase.
    pub phase: crate::lifecycle::Phase,
    /// Member count.
    pub members: usize,
    /// Members whose membership certificate is expired or revoked at the
    /// report instant.
    pub invalid_memberships: Vec<String>,
    /// Members below the replacement reputation threshold.
    pub below_threshold: Vec<String>,
}

impl VoToolkit {
    /// Host Edition: produce a monitoring snapshot of a VO.
    pub fn host_monitor(
        &self,
        vo: &crate::formation::FormedVo,
        crl: &trust_vo_credential::RevocationList,
        threshold: f64,
    ) -> MonitoringReport {
        let now = self.clock.timestamp();
        let invalid_memberships = vo
            .members()
            .iter()
            .filter(|m| m.certificate.verify(now, Some(crl)).is_err())
            .map(|m| m.provider.clone())
            .collect();
        let below_threshold = vo
            .members()
            .iter()
            .filter(|m| self.reputation.needs_replacement(&m.provider, threshold))
            .map(|m| m.provider.clone())
            .collect();
        MonitoringReport {
            vo_name: vo.name.clone(),
            phase: vo.lifecycle.phase(),
            members: vo.members().len(),
            invalid_memberships,
            below_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::Role;
    use trust_vo_credential::{CredentialAuthority, TimeRange, Timestamp};
    use trust_vo_negotiation::Party;
    use trust_vo_policy::{DisclosurePolicy, PolicySet, Resource, Term};
    use trust_vo_soa::simclock::CostModel;

    fn toolkit() -> VoToolkit {
        let clock = SimClock::new(
            CostModel::paper_testbed(),
            Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
        );
        let mut tk = VoToolkit::new(clock);
        let mut ca = CredentialAuthority::new("CA");
        let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));

        let mut initiator = Party::new("Aircraft");
        initiator.trust_root(ca.public_key());
        tk.host_register(ServiceProvider::new(initiator), vec![]);

        let mut member = Party::new("StoreCo");
        let sla = ca
            .issue("StorageSla", "StoreCo", member.keys.public, vec![], window)
            .unwrap();
        member.profile.add(sla);
        member.trust_root(ca.public_key());
        tk.host_register(
            ServiceProvider::new(member),
            vec![ResourceDescription::new(
                "StoreCo",
                "storage",
                "soap://store",
                0.9,
            )],
        );
        tk
    }

    fn contract() -> Contract {
        let mut c =
            Contract::new("VO-1", "store data").with_role(Role::new("Storage", "storage", "SLA"));
        let mut policies = PolicySet::new();
        policies.add(DisclosurePolicy::rule(
            "p",
            Resource::service("VoMembership"),
            vec![Term::of_type("StorageSla")],
        ));
        c.set_role_policies("Storage", policies);
        c
    }

    #[test]
    fn host_edition_listing() {
        let tk = toolkit();
        let services = tk.host_available_services();
        assert_eq!(services.len(), 1);
        assert_eq!(services[0].provider, "StoreCo");
        assert!(tk.host_active_vos().is_empty());
    }

    #[test]
    fn initiator_forms_vo_end_to_end() {
        let mut tk = toolkit();
        let vo = tk
            .initiator_form_vo(contract(), "Aircraft", Strategy::Standard, None)
            .unwrap();
        assert!(vo.is_member("StoreCo"));
        assert_eq!(tk.host_active_vos(), ["VO-1"]);
    }

    #[test]
    fn admitted_formation_seeds_the_engine_from_the_ledger() {
        let mut tk = toolkit();
        // Pre-formation history in the paper's ledger: two violations put
        // StoreCo in the Suspicious band at admission time.
        tk.reputation.record_violation("StoreCo");
        tk.reputation.record_violation("StoreCo");
        let admission = crate::admitted::AdmissionControl::default();
        let vo = tk
            .initiator_form_vo(contract(), "Aircraft", Strategy::Standard, Some(&admission))
            .unwrap();
        assert!(vo.is_member("StoreCo"));
        // The engine saw the ledger's 0.1 seed, then the join success.
        let now = tk.clock.elapsed();
        let expected = 0.5 - 0.2 - 0.2 + admission.engine().config().success_delta;
        assert!((admission.engine().score("StoreCo", now) - expected).abs() < 1e-12);
        assert_eq!(admission.engine().events_for("StoreCo"), 1);
    }

    #[test]
    fn unknown_initiator_rejected() {
        let mut tk = toolkit();
        let err = tk
            .initiator_form_vo(contract(), "Ghost", Strategy::Standard, None)
            .unwrap_err();
        assert!(matches!(err, VoError::UnknownMember(_)));
    }

    #[test]
    fn member_edition_configuration() {
        let mut tk = toolkit();
        tk.member_set_accepting("StoreCo", false).unwrap();
        let err = tk
            .initiator_form_vo(contract(), "Aircraft", Strategy::Standard, None)
            .unwrap_err();
        assert!(matches!(err, VoError::RoleUnfilled { .. }));
        assert!(tk.member_set_accepting("Ghost", true).is_err());
    }

    #[test]
    fn mailbox_visibility() {
        let mut tk = toolkit();
        assert_eq!(tk.member_inbox("StoreCo"), 0);
        tk.initiator_form_vo(contract(), "Aircraft", Strategy::Standard, None)
            .unwrap();
        // Invitation was consumed during the join.
        assert_eq!(tk.member_inbox("StoreCo"), 0);
    }
}

#[cfg(test)]
mod monitoring_tests {
    use super::*;
    use crate::contract::{Contract, Role};
    use crate::operation::REPLACEMENT_THRESHOLD;
    use trust_vo_credential::{CredentialAuthority, RevocationList, TimeRange, Timestamp};
    use trust_vo_negotiation::Party;
    use trust_vo_policy::{DisclosurePolicy, PolicySet, Resource, Term};
    use trust_vo_soa::simclock::{CostModel, SimDuration};

    fn toolkit_with_vo() -> (VoToolkit, crate::formation::FormedVo) {
        let clock = SimClock::new(
            CostModel::paper_testbed(),
            Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
        );
        let mut tk = VoToolkit::new(clock);
        let mut ca = CredentialAuthority::new("CA");
        let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
        let mut initiator = Party::new("Aircraft");
        initiator.trust_root(ca.public_key());
        tk.host_register(ServiceProvider::new(initiator), vec![]);
        let mut member = Party::new("StoreCo");
        let sla = ca
            .issue("StorageSla", "StoreCo", member.keys.public, vec![], window)
            .unwrap();
        member.profile.add(sla);
        member.trust_root(ca.public_key());
        tk.host_register(
            ServiceProvider::new(member),
            vec![ResourceDescription::new("StoreCo", "storage", "x", 0.9)],
        );
        let mut contract =
            Contract::new("MonVO", "goal").with_role(Role::new("Storage", "storage", "SLA"));
        let mut policies = PolicySet::new();
        policies.add(DisclosurePolicy::rule(
            "p",
            Resource::service("VoMembership"),
            vec![Term::of_type("StorageSla")],
        ));
        contract.set_role_policies("Storage", policies);
        let vo = tk
            .initiator_form_vo(
                contract,
                "Aircraft",
                trust_vo_negotiation::Strategy::Standard,
                None,
            )
            .unwrap();
        (tk, vo)
    }

    #[test]
    fn healthy_vo_reports_clean() {
        let (tk, vo) = toolkit_with_vo();
        let report = tk.host_monitor(&vo, &RevocationList::new(), REPLACEMENT_THRESHOLD);
        assert_eq!(report.members, 1);
        assert!(report.invalid_memberships.is_empty());
        assert!(report.below_threshold.is_empty());
        assert_eq!(report.phase, crate::lifecycle::Phase::Operation);
    }

    #[test]
    fn expired_certificate_flagged() {
        let (tk, vo) = toolkit_with_vo();
        tk.clock
            .advance(SimDuration::from_millis(2 * 365 * 24 * 3600 * 1000));
        let report = tk.host_monitor(&vo, &RevocationList::new(), REPLACEMENT_THRESHOLD);
        assert_eq!(report.invalid_memberships, ["StoreCo"]);
    }

    #[test]
    fn revoked_certificate_and_low_reputation_flagged() {
        let (mut tk, vo) = toolkit_with_vo();
        let mut crl = RevocationList::new();
        crl.revoke(
            vo.members()[0].certificate.revocation_id(),
            tk.clock.timestamp(),
        );
        tk.reputation.record_violation("StoreCo");
        tk.reputation.record_violation("StoreCo");
        tk.reputation.record_violation("StoreCo");
        let report = tk.host_monitor(&vo, &crl, REPLACEMENT_THRESHOLD);
        assert_eq!(report.invalid_memberships, ["StoreCo"]);
        assert_eq!(report.below_threshold, ["StoreCo"]);
    }
}
