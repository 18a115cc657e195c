//! The running example: the Aircraft Optimization VO (paper §3).
//!
//! "An aircraft company is a prime contractor for an aerospace project
//! developing a civil aircraft. … the prime contractor decides to create a
//! VO of smaller companies that provide services offering the required
//! design/analysis capabilities":
//!
//! 1. the **Aircraft Company** initiating the optimization (VO Initiator),
//! 2. an **aerospace company** hosting the Design Partner Web Portal,
//! 3. a **scientific/engineering consultancy** providing the Design
//!    Optimization Partner Service,
//! 4. a **High Performance Computing** provider (HPC Partner Service),
//! 5. a **storage provider** (Storage Partner Service).
//!
//! The builder wires up the credential authorities (INFN for ISO 9000, the
//! American Aircraft Association, the BBB certification company, an SLA
//! certifier), every party's X-Profile, disclosure policies — including
//! the §5 examples (`VoMembership ← WebDesignerQuality {UNI EN ISO 9000}`,
//! `Certification() ← AAAccreditation()`, the balance-sheet alternative,
//! and the privacy-regulator mutual policies) — and the ontology concepts
//! of §4.3.

use crate::contract::{CollaborationRule, Contract, Role};
use crate::error::VoError;
use crate::formation::{initiator_party_for_role, FormedVo};
use crate::member::ServiceProvider;
use crate::registry::ResourceDescription;
use crate::toolkit::VoToolkit;
use std::collections::BTreeMap;
use trust_vo_credential::{Attribute, CredentialAuthority, Sensitivity, TimeRange, Timestamp};
use trust_vo_negotiation::{
    negotiate, NegotiationConfig, NegotiationError, NegotiationOutcome, Party, Strategy,
};
use trust_vo_ontology::{Concept, Ontology};
use trust_vo_policy::{Condition, DisclosurePolicy, PolicySet, Resource, Term};
use trust_vo_soa::simclock::SimClock;

/// Provider name constants (also the registry keys).
pub mod names {
    /// The VO Initiator.
    pub const AIRCRAFT: &str = "Aircraft Company";
    /// The Design Partner Web Portal provider.
    pub const AEROSPACE: &str = "Aerospace Company";
    /// The Design Optimization Partner Service provider.
    pub const CONSULTANCY: &str = "Design Optimization Consultancy";
    /// The HPC Partner Service provider.
    pub const HPC: &str = "HPC Services Inc";
    /// A second HPC provider kept in reserve for replacement.
    pub const HPC_BACKUP: &str = "HPC Backup Corp";
    /// The Storage Partner Service provider.
    pub const STORAGE: &str = "Storage Partner Ltd";
}

/// Role name constants.
pub mod roles {
    /// Design Partner Web Portal.
    pub const DESIGN_PORTAL: &str = "DesignPartnerWebPortal";
    /// Design Optimization Partner Service.
    pub const OPTIMIZER: &str = "DesignOptimizationPartner";
    /// HPC Partner Service.
    pub const HPC: &str = "HpcPartnerService";
    /// Storage Partner Service.
    pub const STORAGE: &str = "StoragePartnerService";
}

/// The fully wired scenario.
#[derive(Debug)]
pub struct AircraftScenario {
    /// The toolkit holding providers, registry, mailboxes, reputation.
    pub toolkit: VoToolkit,
    /// The Aircraft Optimization contract.
    pub contract: Contract,
    /// The credential authorities, by name (INFN, AAA, BBB, SLACert).
    pub authorities: BTreeMap<String, CredentialAuthority>,
}

/// The validity window used for every scenario credential.
pub fn credential_window() -> TimeRange {
    TimeRange::one_year_from(Timestamp::parse_iso("2009-10-26T21:32:52").unwrap())
}

/// The instant scenario negotiations nominally run at.
pub fn scenario_time() -> Timestamp {
    Timestamp::parse_iso("2009-12-01T00:00:00").unwrap()
}

fn reference_ontology() -> Ontology {
    let mut o = Ontology::new();
    o.add(
        Concept::new("WebDesignerQuality")
            .keyword("ISO 9000 quality regulation")
            .implemented_by("ISO9000Certified.QualityRegulation"),
    );
    o.add(
        Concept::new("QualityCertification")
            .keyword("ISO")
            .implemented_by("ISO9000Certified"),
    );
    o.add(Concept::new("Accreditation").implemented_by("AAAccreditation"));
    o.add(
        Concept::new("BalanceSheet")
            .keyword("financial statement")
            .implemented_by("CertificationAuthorityCompany"),
    );
    o.add(Concept::new("BusinessProof"));
    o.add(Concept::new("PrivacyCompliance").implemented_by("PrivacyRegulator"));
    o.add(Concept::new("ComputeSla").implemented_by("HpcSla"));
    o.add(Concept::new("StorageSla").implemented_by("StorageSla"));
    assert!(o.add_is_a("BalanceSheet", "BusinessProof"));
    assert!(o.add_is_a("Accreditation", "BusinessProof"));
    assert!(o.add_is_a("QualityCertification", "WebDesignerQuality"));
    o
}

impl AircraftScenario {
    /// Build the whole scenario on a paper-calibrated clock.
    pub fn build() -> Self {
        Self::build_with_clock(SimClock::paper_default())
    }

    /// Build on a caller-supplied clock (benches use a free clock for pure
    /// CPU measurement).
    pub fn build_with_clock(clock: SimClock) -> Self {
        let window = credential_window();
        let mut infn = CredentialAuthority::new("INFN");
        let mut aaa = CredentialAuthority::new("American Aircraft Association");
        let mut bbb = CredentialAuthority::new("BBB Certification");
        let mut sla_cert = CredentialAuthority::new("SLA Certifier");
        let ontology = reference_ontology();
        let mut toolkit = VoToolkit::new(clock);

        let root_keys: Vec<_> = [&infn, &aaa, &bbb, &sla_cert]
            .iter()
            .map(|ca| ca.public_key())
            .collect();
        let trust_all = move |party: &mut Party| {
            for key in &root_keys {
                party.trust_root(*key);
            }
        };

        // ---- Aircraft Company (VO Initiator) ----
        let mut aircraft = Party::new(names::AIRCRAFT).with_ontology(ontology.clone());
        trust_all(&mut aircraft);
        let accreditation = aaa
            .issue(
                "AAAccreditation",
                names::AIRCRAFT,
                aircraft.keys.public,
                vec![Attribute::new("MemberSince", 1998i64)],
                window,
            )
            .expect("open schema");
        aircraft
            .profile
            .add_with_sensitivity(accreditation, Sensitivity::Low);
        let balance_sheet = bbb
            .issue(
                "CertificationAuthorityCompany",
                names::AIRCRAFT,
                aircraft.keys.public,
                vec![
                    Attribute::new("Issuer", "BBB"),
                    Attribute::new("Year", 2009i64),
                ],
                window,
            )
            .expect("open schema");
        aircraft
            .profile
            .add_with_sensitivity(balance_sheet, Sensitivity::High);
        let privacy = infn
            .issue(
                "PrivacyRegulator",
                names::AIRCRAFT,
                aircraft.keys.public,
                vec![Attribute::new("Regulation", "EU-95/46")],
                window,
            )
            .expect("open schema");
        aircraft
            .profile
            .add_with_sensitivity(privacy, Sensitivity::Medium);
        // The initiator's credentials are freely deliverable within a
        // negotiation, except the balance sheet, which mutually requires
        // the counterpart's quality certification.
        aircraft.policies.add(DisclosurePolicy::deliv(
            "air-d1",
            Resource::credential("AAAccreditation"),
        ));
        aircraft.policies.add(DisclosurePolicy::rule(
            "air-p1",
            Resource::credential("CertificationAuthorityCompany"),
            vec![Term::of_type("AAAMember")],
        ));
        aircraft.policies.add(DisclosurePolicy::rule(
            "air-p2",
            Resource::credential("PrivacyRegulator"),
            vec![Term::of_type("PrivacyRegulator")],
        ));
        toolkit.host_register(ServiceProvider::new(aircraft), vec![]);

        // ---- Aerospace Company (Design Partner Web Portal) ----
        let mut aerospace = Party::new(names::AEROSPACE).with_ontology(ontology.clone());
        trust_all(&mut aerospace);
        let iso9000 = infn
            .issue(
                "ISO9000Certified",
                names::AEROSPACE,
                aerospace.keys.public,
                vec![Attribute::new("QualityRegulation", "UNI EN ISO 9000")],
                window,
            )
            .expect("open schema");
        aerospace
            .profile
            .add_with_sensitivity(iso9000, Sensitivity::Medium);
        let aaa_member = aaa
            .issue(
                "AAAMember",
                names::AEROSPACE,
                aerospace.keys.public,
                vec![Attribute::new("MemberSince", 2001i64)],
                window,
            )
            .expect("open schema");
        aerospace
            .profile
            .add_with_sensitivity(aaa_member, Sensitivity::Low);
        // §5: "The Aerospace company, in order to give proof of the
        // compliance to quality, wants the Aircraft company to prove that
        // [it] has an accreditation released by the American Aircraft
        // associations, or to disclose a recent balance sheet."
        aerospace.policies.add(DisclosurePolicy::rule(
            "aero-p1",
            Resource::credential("ISO9000Certified"),
            vec![Term::of_type("AAAccreditation")],
        ));
        aerospace.policies.add(DisclosurePolicy::rule(
            "aero-p2",
            Resource::credential("ISO9000Certified"),
            // Concept-level alternative: resolved by the counterpart's
            // reasoning engine onto its (high-sensitivity) balance sheet.
            vec![Term::of_concept("BusinessProof")
                .with_condition(Condition::parse("//content/Issuer = 'BBB'").unwrap())],
        ));
        aerospace.policies.add(DisclosurePolicy::deliv(
            "aero-d1",
            Resource::credential("AAAMember"),
        ));
        toolkit.host_register(
            ServiceProvider::new(aerospace),
            vec![ResourceDescription::new(
                names::AEROSPACE,
                "design-db",
                "soap://aerospace/design-portal",
                0.92,
            )],
        );

        // ---- Design Optimization Consultancy ----
        let mut consultancy = Party::new(names::CONSULTANCY).with_ontology(ontology.clone());
        trust_all(&mut consultancy);
        let optimization = infn
            .issue(
                "OptimizationCapability",
                names::CONSULTANCY,
                consultancy.keys.public,
                vec![Attribute::new("Domain", "aerospace design")],
                window,
            )
            .expect("open schema");
        consultancy.profile.add(optimization);
        // The §5 operation-phase example: the ISO 002 certificate is
        // disclosed only to privacy-compliant counterparts, mutually.
        let iso002 = infn
            .issue(
                "ISO002Certification",
                names::CONSULTANCY,
                consultancy.keys.public,
                vec![Attribute::new("Scope", "design data handling")],
                window,
            )
            .expect("open schema");
        consultancy
            .profile
            .add_with_sensitivity(iso002, Sensitivity::Medium);
        let privacy = infn
            .issue(
                "PrivacyRegulator",
                names::CONSULTANCY,
                consultancy.keys.public,
                vec![Attribute::new("Regulation", "EU-95/46")],
                window,
            )
            .expect("open schema");
        consultancy
            .profile
            .add_with_sensitivity(privacy, Sensitivity::Medium);
        consultancy.policies.add(DisclosurePolicy::deliv(
            "con-d1",
            Resource::credential("OptimizationCapability"),
        ));
        consultancy.policies.add(DisclosurePolicy::rule(
            "con-p1",
            Resource::credential("ISO002Certification"),
            vec![Term::of_type("PrivacyRegulator")],
        ));
        consultancy.policies.add(DisclosurePolicy::rule(
            "con-p2",
            Resource::credential("PrivacyRegulator"),
            vec![Term::of_type("PrivacyRegulator")],
        ));
        toolkit.host_register(
            ServiceProvider::new(consultancy),
            vec![ResourceDescription::new(
                names::CONSULTANCY,
                "design-optimization",
                "soap://consultancy/optimizer",
                0.88,
            )],
        );

        // ---- HPC providers ----
        for (name, availability, quality) in
            [(names::HPC, 99i64, 0.95), (names::HPC_BACKUP, 99i64, 0.85)]
        {
            let mut hpc = Party::new(name).with_ontology(ontology.clone());
            trust_all(&mut hpc);
            let sla = sla_cert
                .issue(
                    "HpcSla",
                    name,
                    hpc.keys.public,
                    vec![Attribute::new("Availability", availability)],
                    window,
                )
                .expect("open schema");
            hpc.profile.add(sla);
            let privacy = infn
                .issue(
                    "PrivacyRegulator",
                    name,
                    hpc.keys.public,
                    vec![Attribute::new("Regulation", "EU-95/46")],
                    window,
                )
                .expect("open schema");
            hpc.profile.add(privacy);
            hpc.policies.add(DisclosurePolicy::deliv(
                "hpc-d1",
                Resource::credential("HpcSla"),
            ));
            hpc.policies.add(DisclosurePolicy::deliv(
                "hpc-d2",
                Resource::credential("PrivacyRegulator"),
            ));
            // Members grant the flow-solution service to holders of a
            // privacy credential (exercised in the operation phase).
            hpc.policies.add(DisclosurePolicy::rule(
                "hpc-p1",
                Resource::service("FlowSolution"),
                vec![Term::of_type("PrivacyRegulator")],
            ));
            toolkit.host_register(
                ServiceProvider::new(hpc),
                vec![ResourceDescription::new(
                    name,
                    "hpc-compute",
                    "soap://hpc/run",
                    quality,
                )],
            );
        }

        // ---- Storage provider ----
        let mut storage = Party::new(names::STORAGE).with_ontology(ontology.clone());
        trust_all(&mut storage);
        let sla = sla_cert
            .issue(
                "StorageSla",
                names::STORAGE,
                storage.keys.public,
                vec![Attribute::new("CapacityTb", 500i64)],
                window,
            )
            .expect("open schema");
        storage.profile.add(sla);
        storage.policies.add(DisclosurePolicy::deliv(
            "sto-d1",
            Resource::credential("StorageSla"),
        ));
        toolkit.host_register(
            ServiceProvider::new(storage),
            vec![ResourceDescription::new(
                names::STORAGE,
                "storage",
                "soap://storage",
                0.9,
            )],
        );

        // ---- Contract (Identification phase) ----
        let mut contract = Contract::new(
            "AircraftOptimization",
            "civil aircraft with low emissions and efficient fuel consumption",
        )
        .with_role(Role::new(
            roles::DESIGN_PORTAL,
            "design-db",
            "industry-standard product design database, ISO 9000 compliant",
        ))
        .with_role(Role::new(
            roles::OPTIMIZER,
            "design-optimization",
            "advanced aerospace design optimization capability",
        ))
        .with_role(Role::new(
            roles::HPC,
            "hpc-compute",
            "numerical simulation, SLA >= 99%",
        ))
        .with_role(Role::new(
            roles::STORAGE,
            "storage",
            "industrial engineering analysis data",
        ))
        .with_rule(CollaborationRule::global(
            "log-all",
            "log every cross-member access",
        ))
        .with_rule(CollaborationRule::for_roles(
            "sla-uptime",
            "maintain advertised availability",
            &[roles::HPC, roles::STORAGE],
        ));

        // §5.1 Identification: per-role disclosure policies.
        let mut portal_policies = PolicySet::new();
        portal_policies.add(DisclosurePolicy::rule(
            "vo-portal",
            Resource::service("VoMembership").with_attr("vo", "AircraftOptimization"),
            // "VoMembership ← WebDesignerQuality, {UNI EN ISO 9000}".
            vec![Term::of_type("ISO9000Certified")
                .where_attr("QualityRegulation", "UNI EN ISO 9000")],
        ));
        contract.set_role_policies(roles::DESIGN_PORTAL, portal_policies);

        let mut optimizer_policies = PolicySet::new();
        optimizer_policies.add(DisclosurePolicy::rule(
            "vo-optimizer",
            Resource::service("VoMembership"),
            vec![Term::of_type("OptimizationCapability")],
        ));
        contract.set_role_policies(roles::OPTIMIZER, optimizer_policies);

        let mut hpc_policies = PolicySet::new();
        hpc_policies.add(DisclosurePolicy::rule(
            "vo-hpc",
            Resource::service("VoMembership"),
            vec![Term::of_type("HpcSla")
                .with_condition(Condition::parse("//content/Availability >= 99").unwrap())],
        ));
        contract.set_role_policies(roles::HPC, hpc_policies);

        let mut storage_policies = PolicySet::new();
        storage_policies.add(DisclosurePolicy::rule(
            "vo-storage",
            Resource::service("VoMembership"),
            vec![Term::of_type("StorageSla")],
        ));
        contract.set_role_policies(roles::STORAGE, storage_policies);

        let mut authorities = BTreeMap::new();
        for ca in [infn, aaa, bbb, sla_cert] {
            authorities.insert(ca.name.clone(), ca);
        }
        AircraftScenario {
            toolkit,
            contract,
            authorities,
        }
    }

    /// Run the Formation phase for the whole contract.
    pub fn form_vo(&mut self, strategy: Strategy) -> Result<FormedVo, VoError> {
        self.toolkit
            .initiator_form_vo(self.contract.clone(), names::AIRCRAFT, strategy, None)
    }

    /// A provider's current negotiation identity.
    pub fn provider(&self, name: &str) -> &ServiceProvider {
        self.toolkit
            .providers
            .get(name)
            .unwrap_or_else(|| panic!("provider '{name}' is part of the scenario"))
    }

    /// The Fig. 2 negotiation, standalone: the Aerospace Company requests
    /// the VO membership from the Aircraft Company (whose Identification-
    /// phase Design-Portal policies are active).
    pub fn fig2_negotiation(
        &self,
        strategy: Strategy,
    ) -> Result<NegotiationOutcome, NegotiationError> {
        let initiator = initiator_party_for_role(
            self.provider(names::AIRCRAFT),
            &self.contract,
            roles::DESIGN_PORTAL,
        );
        let aerospace = &self.provider(names::AEROSPACE).party;
        let cfg = NegotiationConfig::new(strategy, scenario_time());
        negotiate(aerospace, &initiator, "VoMembership", &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trust_vo_negotiation::message::Side;

    #[test]
    fn scenario_builds_with_all_providers() {
        let s = AircraftScenario::build();
        assert_eq!(s.toolkit.providers.len(), 6);
        assert_eq!(s.contract.roles.len(), 4);
        assert_eq!(s.authorities.len(), 4);
        for role in &s.contract.roles {
            assert!(
                s.contract.policies_for(&role.name).is_some(),
                "{}",
                role.name
            );
        }
    }

    #[test]
    fn full_formation_succeeds() {
        let mut s = AircraftScenario::build();
        let vo = s.form_vo(Strategy::Standard).unwrap();
        assert_eq!(vo.members().len(), 4);
        assert!(vo.is_member(names::AEROSPACE));
        assert!(vo.is_member(names::CONSULTANCY));
        assert!(vo.is_member(names::HPC)); // higher quality beats backup
        assert!(vo.is_member(names::STORAGE));
    }

    #[test]
    fn formation_succeeds_under_every_strategy() {
        for strategy in Strategy::ALL {
            let mut s = AircraftScenario::build();
            let vo = s.form_vo(strategy).unwrap();
            assert_eq!(vo.members().len(), 4, "{strategy}");
        }
    }

    #[test]
    fn fig2_negotiation_shape() {
        let s = AircraftScenario::build();
        let outcome = s.fig2_negotiation(Strategy::Standard).unwrap();
        // Aircraft's accreditation flows first, unlocking the aerospace
        // ISO 9000 credential.
        let seq: Vec<_> = outcome
            .sequence
            .disclosures()
            .iter()
            .map(|d| (d.by, d.cred_type.as_str().to_owned()))
            .collect();
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0].0, Side::Controller);
        assert_eq!(seq[0].1, "AAAccreditation");
        assert_eq!(seq[1].0, Side::Requester);
        assert_eq!(seq[1].1, "ISO9000Certified");
        // The tree shows the Fig. 2 structure (root + quality term +
        // the two alternative counter-requirements).
        assert!(outcome.tree.depth() >= 3);
    }

    #[test]
    fn concept_alternative_used_when_accreditation_missing() {
        let mut s = AircraftScenario::build();
        // Remove the Aircraft Company's AAA accreditation, forcing the
        // balance-sheet (concept) alternative of policy aero-p2.
        let aircraft = s.toolkit.providers.get_mut(names::AIRCRAFT).unwrap();
        let id = aircraft
            .party
            .profile
            .of_type("AAAccreditation")
            .next()
            .unwrap()
            .id()
            .clone();
        aircraft.party.profile.remove(&id);
        let outcome = s.fig2_negotiation(Strategy::Standard).unwrap();
        let types: Vec<_> = outcome
            .sequence
            .disclosures()
            .iter()
            .map(|d| d.cred_type.as_str())
            .collect();
        assert!(
            types.contains(&"CertificationAuthorityCompany"),
            "{types:?}"
        );
    }

    #[test]
    fn scenario_credentials_are_valid_at_scenario_time() {
        let s = AircraftScenario::build();
        for provider in s.toolkit.providers.values() {
            for cred in provider.party.profile.credentials() {
                assert!(
                    cred.verify(scenario_time(), None).is_ok(),
                    "{} of {}",
                    cred.id(),
                    provider.name()
                );
            }
        }
    }
}
