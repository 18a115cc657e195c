//! Compiling a [`Scenario`] into a concrete VO
//! world: contract, initiator, candidate providers, and registry.
//!
//! The shape follows the E10 batch-admission workload (one contract role
//! per applicant, each guarded by an interlocking disclosure-policy
//! chain), with one addition the lifecycle script needs: every role also
//! has a *spare* provider published at lower advertised quality, so the
//! `Replace` churn operation — which excludes the removed member from the
//! candidate list — always has somewhere to go.

use std::collections::BTreeMap;

use trust_vo_credential::{
    Attribute, CredentialAuthority, Sensitivity, TimeRange, Timestamp, XProfile,
};
use trust_vo_crypto::KeyPair;
use trust_vo_negotiation::Party;
use trust_vo_ontology::mapping::map_concept;
use trust_vo_ontology::{Concept, Ontology};
use trust_vo_policy::{DisclosurePolicy, PolicySet, Resource, Term};
use trust_vo_vo::{Contract, ResourceDescription, Role, ServiceProvider, ServiceRegistry};

use crate::dsl::Scenario;

/// The wall-clock instant every scenario runs at (the repo-wide scenario
/// epoch, so credentials issued here are valid on every workload clock).
pub fn epoch() -> Timestamp {
    trust_vo_vo::scenario::scenario_time()
}

/// Everything a scenario run drives: the contract, the initiator, every
/// candidate (primaries and spares), and the registry they advertise in.
pub struct ScenarioWorld {
    /// The contract: `Role000..`, one per party.
    pub contract: Contract,
    /// The VO Initiator, holding the controller half of every chain.
    pub initiator: ServiceProvider,
    /// Primary applicants `P000..` plus spares `Spare000..`, keyed by name.
    pub providers: BTreeMap<String, ServiceProvider>,
    /// Registry advertising primary (quality 0.9) and spare (0.8)
    /// capabilities.
    pub registry: ServiceRegistry,
}

impl ScenarioWorld {
    /// The primary applicant name for role index `i`.
    pub fn primary(i: usize) -> String {
        format!("P{i:03}")
    }

    /// The spare provider name for role index `i`.
    pub fn spare(i: usize) -> String {
        format!("Spare{i:03}")
    }

    /// The contract role name for index `i`.
    pub fn role(i: usize) -> String {
        format!("Role{i:03}")
    }
}

/// Issue a party's half of the interlocking chain (even levels belong to
/// applicants, odd levels to the initiator — the E4/E10 convention).
fn add_chain_half(
    party: &mut Party,
    ca: &mut CredentialAuthority,
    window: TimeRange,
    depth: usize,
    alternatives: usize,
    applicant_side: bool,
) {
    let app_type = |level: usize| format!("AppL{level}");
    let init_type = |level: usize| format!("InitL{level}");
    let type_name = |level: usize| {
        if level.is_multiple_of(2) {
            app_type(level)
        } else {
            init_type(level)
        }
    };
    let start = usize::from(!applicant_side);
    let own_type = |level: usize| {
        if applicant_side {
            app_type(level)
        } else {
            init_type(level)
        }
    };
    let prefix = if applicant_side { "ap" } else { "ip" };
    for level in (start..depth).step_by(2) {
        let cred = ca
            .issue(
                &own_type(level),
                &party.name.clone(),
                party.keys.public,
                vec![Attribute::new("Level", level as i64)],
                window,
            )
            .expect("open schema");
        party.profile.add(cred);
        let resource = Resource::credential(own_type(level));
        if level + 1 < depth {
            for alt in 0..alternatives.saturating_sub(1) {
                party.policies.add(DisclosurePolicy::rule(
                    format!("{prefix}{level}-fail{alt}"),
                    resource.clone(),
                    vec![Term::of_type(format!("Missing{prefix}{level}x{alt}"))],
                ));
            }
            party.policies.add(DisclosurePolicy::rule(
                format!("{prefix}{level}-real"),
                resource.clone(),
                vec![Term::of_type(type_name(level + 1))],
            ));
        } else {
            party.policies.add(DisclosurePolicy::deliv(
                format!("{prefix}{level}-deliv"),
                resource,
            ));
        }
    }
}

/// Build the world a scenario runs in — a pure function of the
/// scenario's `(parties, depth, alternatives)` shape.
pub fn build_world(s: &Scenario) -> ScenarioWorld {
    let mut ca = CredentialAuthority::new("ScenarioCA");
    let window = TimeRange::one_year_from(epoch());
    let mut initiator = Party::new("ScenarioInitiator");
    initiator.trust_root(ca.public_key());
    add_chain_half(
        &mut initiator,
        &mut ca,
        window,
        s.depth,
        s.alternatives,
        false,
    );

    let mut contract = Contract::new("ScenarioVo", "generated lifecycle scenario");
    let mut providers = BTreeMap::new();
    let mut registry = ServiceRegistry::new();
    for i in 0..s.parties {
        let role_name = ScenarioWorld::role(i);
        let capability = format!("cap{i:03}");
        contract = contract.with_role(Role::new(&role_name, &capability, "scenario admission"));
        let mut policies = PolicySet::new();
        policies.add(DisclosurePolicy::rule(
            format!("vo-a{i}"),
            Resource::service("VoMembership"),
            vec![Term::of_type("AppL0")],
        ));
        contract.set_role_policies(&role_name, policies);
        // Primary at quality 0.9, spare at 0.8. Spares *decline*
        // invitations: they exist for `Replace` churn (the runner flips
        // them to accepting once the operation phase starts), and a
        // declining candidate is the only shape that keeps serial and
        // parallel formation wire-identical — the parallel driver
        // speculates one negotiation per *accepting* candidate, so a
        // standby that negotiates would burn wire traffic the serial
        // driver never issues.
        for (name, quality, standby) in [
            (ScenarioWorld::primary(i), 0.9, false),
            (ScenarioWorld::spare(i), 0.8, true),
        ] {
            let mut party = Party::new(&name);
            party.trust_root(ca.public_key());
            add_chain_half(&mut party, &mut ca, window, s.depth, s.alternatives, true);
            registry.publish(ResourceDescription::new(&name, &capability, "x", quality));
            let provider = ServiceProvider::new(party);
            providers.insert(
                name,
                if standby {
                    provider.declining()
                } else {
                    provider
                },
            );
        }
    }

    ScenarioWorld {
        contract,
        initiator: ServiceProvider::new(initiator),
        providers,
        registry,
    }
}

/// The ontology-drift stage: `n` concept lookups, every one paraphrased
/// (underscore + reordering) so only similarity mapping resolves it.
/// Returns how many mapped — recorded in the outcome, so a regression in
/// the similarity engine shows up as a scenario-outcome divergence.
pub fn run_drift(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let mut ontology = Ontology::new();
    let mut ca = CredentialAuthority::new("DriftCA");
    let window = TimeRange::one_year_from(epoch());
    let keys = KeyPair::from_seed(b"scenario-drift-holder");
    let mut profile = XProfile::new("drift-holder");
    for i in 0..n {
        let cred_type = format!("DriftType{i}");
        ontology.add(
            Concept::new(format!("Drift{i}Quality"))
                .keyword(format!("domain{}", i % 3))
                .implemented_by(&format!("{cred_type}.Attr{i}")),
        );
        let cred = ca
            .issue(
                &cred_type,
                "drift-holder",
                keys.public,
                vec![Attribute::new(format!("Attr{i}"), i as i64)],
                window,
            )
            .expect("open schema");
        profile.add_with_sensitivity(cred, Sensitivity::Low);
    }
    (0..n)
        .filter(|i| map_concept(&ontology, &profile, &format!("Quality_Drift{i}"), 0.2).is_mapped())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_forms_and_spares_stay_on_the_bench() {
        let s = Scenario {
            parties: 2,
            depth: 2,
            alternatives: 2,
            ..Scenario::minimal(3)
        };
        let w = build_world(&s);
        let clock = trust_vo_soa::simclock::SimClock::new(
            trust_vo_soa::simclock::CostModel::free(),
            epoch(),
        );
        let (vo, _) = trust_vo_vo::Formation::new(
            &w.initiator,
            &w.providers,
            &w.registry,
            trust_vo_vo::NegotiationSource::in_process(&clock),
        )
        .run(
            w.contract,
            &mut trust_vo_vo::mailbox::MailboxSystem::new(),
            &mut trust_vo_vo::ReputationLedger::new(),
        )
        .expect("scenario world forms");
        assert_eq!(vo.members().len(), 2);
        for i in 0..2 {
            assert!(vo.is_member(&ScenarioWorld::primary(i)), "primary {i} wins");
            assert!(!vo.is_member(&ScenarioWorld::spare(i)), "spare {i} benched");
        }
    }

    #[test]
    fn drift_lookups_resolve_by_similarity() {
        assert_eq!(run_drift(0), 0);
        let mapped = run_drift(4);
        assert!(mapped >= 3, "only {mapped}/4 paraphrased lookups mapped");
    }
}
