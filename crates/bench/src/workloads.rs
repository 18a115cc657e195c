//! Workload builders shared by the criterion benches and the harness
//! binaries. Every experiment in DESIGN.md §3 constructs its input here so
//! the printed tables and the statistical benches measure the same thing.

use std::collections::BTreeMap;
use trust_vo_credential::{
    Attribute, CredentialAuthority, Sensitivity, TimeRange, Timestamp, XProfile,
};
use trust_vo_negotiation::{Party, Strategy};
use trust_vo_ontology::{Concept, Ontology};
use trust_vo_policy::PolicySet;
use trust_vo_policy::{DisclosurePolicy, Resource, Term};
use trust_vo_soa::simclock::{CostModel, SimClock};
use trust_vo_vo::scenario::{names, roles, AircraftScenario};
use trust_vo_vo::{
    Contract, MemberRecord, ResourceDescription, Role, ServiceProvider, ServiceRegistry, VoError,
};

/// The default wall-clock instant negotiations run at.
pub fn at() -> Timestamp {
    trust_vo_vo::scenario::scenario_time()
}

/// A paper-calibrated clock.
pub fn paper_clock() -> SimClock {
    SimClock::paper_default()
}

/// A zero-latency clock (pure CPU measurement).
pub fn free_clock() -> SimClock {
    SimClock::new(CostModel::free(), at())
}

/// Build the Aircraft scenario on a given clock.
pub fn scenario(clock: SimClock) -> AircraftScenario {
    AircraftScenario::build_with_clock(clock)
}

/// E1 / Fig. 9(b): join **without** TN — one member joins the VO through
/// the toolkit GUI flow. Returns the joined record.
pub fn join_without_tn(s: &mut AircraftScenario) -> Result<MemberRecord, VoError> {
    let initiator = s.provider(names::AIRCRAFT).clone();
    let candidate = s.provider(names::AEROSPACE).clone();
    let mut vo = trust_vo_vo::create_vo(s.contract.clone(), &initiator, &s.toolkit.clock);
    trust_vo_vo::join_member(
        &mut vo,
        &initiator,
        &candidate,
        roles::DESIGN_PORTAL,
        &mut s.toolkit.mailboxes,
        &mut s.toolkit.reputation,
        &s.toolkit.clock,
        None,
    )
}

/// E1 / Fig. 9(a): join **with** TN.
pub fn join_with_tn(s: &mut AircraftScenario, strategy: Strategy) -> Result<MemberRecord, VoError> {
    let initiator = s.provider(names::AIRCRAFT).clone();
    let candidate = s.provider(names::AEROSPACE).clone();
    let mut vo = trust_vo_vo::create_vo(s.contract.clone(), &initiator, &s.toolkit.clock);
    trust_vo_vo::join_member(
        &mut vo,
        &initiator,
        &candidate,
        roles::DESIGN_PORTAL,
        &mut s.toolkit.mailboxes,
        &mut s.toolkit.reputation,
        &s.toolkit.clock,
        Some(strategy),
    )
}

/// E1 / Fig. 9(c): the standalone TN (identical negotiation, no join
/// flow), charged on the scenario clock.
pub fn standalone_tn(s: &AircraftScenario, strategy: Strategy) -> Result<(), VoError> {
    let outcome = s.fig2_negotiation(strategy).map_err(VoError::Negotiation)?;
    trust_vo_vo::formation::charge_negotiation(&s.toolkit.clock, &outcome.transcript);
    Ok(())
}

/// E4: a synthetic negotiation whose policy graph is a chain of `depth`
/// interlocking requirements with `alternatives` failing branches per
/// level. Both parties hold everything needed for the last alternative.
pub fn chain_parties(depth: usize, alternatives: usize) -> (Party, Party) {
    let mut ca = CredentialAuthority::new("ChainCA");
    let window = TimeRange::one_year_from(Timestamp::parse_iso("2009-10-26T21:32:52").unwrap());
    let mut requester = Party::new("chain-requester");
    let mut controller = Party::new("chain-controller");

    // Level i's credential type; even levels owned by the requester, odd
    // by the controller, so disclosures alternate sides.
    let type_name = |level: usize| format!("Cred{level}");
    for level in 0..depth {
        let (owner, owner_is_requester) = if level % 2 == 0 {
            (&mut requester, true)
        } else {
            (&mut controller, false)
        };
        let cred = ca
            .issue(
                &type_name(level),
                &owner.name.clone(),
                owner.keys.public,
                vec![Attribute::new("Level", level as i64)],
                window,
            )
            .expect("open schema");
        owner.profile.add(cred);
        // Protect level i by level i+1 (held by the other side);
        // the deepest level is deliverable.
        let resource = Resource::credential(type_name(level));
        if level + 1 < depth {
            // `alternatives - 1` failing alternatives first (requiring a
            // type nobody holds), then the real one.
            for alt in 0..alternatives.saturating_sub(1) {
                owner.policies.add(DisclosurePolicy::rule(
                    format!("p{level}-fail{alt}"),
                    resource.clone(),
                    vec![Term::of_type(format!("Missing{level}x{alt}"))],
                ));
            }
            owner.policies.add(DisclosurePolicy::rule(
                format!("p{level}-real"),
                resource.clone(),
                vec![Term::of_type(type_name(level + 1))],
            ));
        } else {
            owner
                .policies
                .add(DisclosurePolicy::deliv(format!("p{level}-deliv"), resource));
        }
        let _ = owner_is_requester;
    }
    // The controller's root service is protected by Cred0 (requester-held).
    controller.policies.add(DisclosurePolicy::rule(
        "root",
        Resource::service("Target"),
        vec![Term::of_type(type_name(0))],
    ));
    requester.trust_root(ca.public_key());
    controller.trust_root(ca.public_key());
    (requester, controller)
}

/// E5: an ontology with `n` concepts plus a profile holding one credential
/// per concept; `hit_ratio` of lookups name concepts directly, the rest
/// use a paraphrased (similarity-resolved) name.
pub struct OntologyWorkload {
    /// The local ontology.
    pub ontology: Ontology,
    /// The profile holding one credential per concept.
    pub profile: XProfile,
    /// Concept names to request (mix of exact and paraphrased).
    pub requests: Vec<String>,
}

/// Build the E5 workload.
pub fn ontology_workload(n: usize, paraphrased: usize) -> OntologyWorkload {
    let mut ontology = Ontology::new();
    let mut ca = CredentialAuthority::new("OntoCA");
    let window = TimeRange::one_year_from(Timestamp::parse_iso("2009-10-26T21:32:52").unwrap());
    let keys = trust_vo_crypto::KeyPair::from_seed(b"onto-holder");
    let mut profile = XProfile::new("onto-holder");
    for i in 0..n {
        let cred_type = format!("CredType{i}");
        ontology.add(
            Concept::new(format!("Concept{i}Quality"))
                .keyword(format!("domain{}", i % 7))
                .implemented_by(&format!("{cred_type}.Attr{i}")),
        );
        let cred = ca
            .issue(
                &cred_type,
                "onto-holder",
                keys.public,
                vec![Attribute::new(format!("Attr{i}"), i as i64)],
                window,
            )
            .expect("open schema");
        profile.add_with_sensitivity(
            cred,
            match i % 3 {
                0 => Sensitivity::Low,
                1 => Sensitivity::Medium,
                _ => Sensitivity::High,
            },
        );
    }
    // is_a chains every 4 concepts.
    for i in (0..n.saturating_sub(4)).step_by(4) {
        let child = format!("Concept{i}Quality");
        let parent = format!("Concept{}Quality", i + 4);
        ontology.add_is_a(&child, &parent);
    }
    let requests = (0..n)
        .map(|i| {
            if i < paraphrased {
                // Paraphrase: underscores + reordering forces similarity.
                format!("Quality_Concept{i}")
            } else {
                format!("Concept{i}Quality")
            }
        })
        .collect();
    OntologyWorkload {
        ontology,
        profile,
        requests,
    }
}

/// E10: the parallel batch-admission world — one contract role per
/// applicant, each guarded by an applicant-specific chain of interlocking
/// disclosure policies, so every admission negotiation carries real CPU
/// work (`depth` levels, `alternatives` branches per level, as in
/// [`chain_parties`]) and the serial-vs-parallel comparison measures
/// negotiation fan-out rather than bookkeeping.
pub struct ParallelJoinWorld {
    /// The contract: `Role000..RoleNNN`, one per applicant.
    pub contract: Contract,
    /// The VO Initiator, holding the controller half of every chain.
    pub initiator: ServiceProvider,
    /// The applicant providers, keyed by name.
    pub providers: BTreeMap<String, ServiceProvider>,
    /// Registry with one published capability per applicant.
    pub registry: ServiceRegistry,
}

/// Build the E10 world with `applicants` roles/candidates.
pub fn parallel_join_world(
    applicants: usize,
    depth: usize,
    alternatives: usize,
) -> ParallelJoinWorld {
    let mut ca = CredentialAuthority::new("BatchCA");
    let window = TimeRange::one_year_from(at());
    let mut initiator_party = Party::new("BatchInitiator");
    initiator_party.trust_root(ca.public_key());
    let mut contract = Contract::new("BatchVo", "parallel batch admission");
    let mut providers = BTreeMap::new();
    let mut registry = ServiceRegistry::new();

    // Credential *types* are shared across applicants (each applicant holds
    // its own credentials of those types), so the initiator's X-Profile and
    // policy set stay constant-size as the applicant count grows — the
    // comparison then scales with negotiation work, not with the cost of
    // fingerprinting an ever-larger controller profile. Even levels are
    // applicant-held, odd levels initiator-held, alternating sides as in
    // the E4 chain workload.
    let app_type = |level: usize| format!("AppL{level}");
    let init_type = |level: usize| format!("InitL{level}");
    let type_name = |level: usize| {
        if level.is_multiple_of(2) {
            app_type(level)
        } else {
            init_type(level)
        }
    };

    // Initiator half of the chain, built once.
    for level in (1..depth).step_by(2) {
        let cred = ca
            .issue(
                &init_type(level),
                "BatchInitiator",
                initiator_party.keys.public,
                vec![Attribute::new("Level", level as i64)],
                window,
            )
            .expect("open schema");
        initiator_party.profile.add(cred);
        let resource = Resource::credential(init_type(level));
        if level + 1 < depth {
            for alt in 0..alternatives.saturating_sub(1) {
                initiator_party.policies.add(DisclosurePolicy::rule(
                    format!("ip{level}-fail{alt}"),
                    resource.clone(),
                    vec![Term::of_type(format!("MissingI{level}x{alt}"))],
                ));
            }
            initiator_party.policies.add(DisclosurePolicy::rule(
                format!("ip{level}-real"),
                resource.clone(),
                vec![Term::of_type(type_name(level + 1))],
            ));
        } else {
            initiator_party.policies.add(DisclosurePolicy::deliv(
                format!("ip{level}-deliv"),
                resource,
            ));
        }
    }

    for i in 0..applicants {
        let applicant_name = format!("Applicant{i:03}");
        let mut applicant = Party::new(&applicant_name);
        applicant.trust_root(ca.public_key());
        // Applicant half of the chain: its own credentials of the shared
        // even-level types, protected by the initiator's odd-level types.
        for level in (0..depth).step_by(2) {
            let cred = ca
                .issue(
                    &app_type(level),
                    &applicant_name,
                    applicant.keys.public,
                    vec![Attribute::new("Level", level as i64)],
                    window,
                )
                .expect("open schema");
            applicant.profile.add(cred);
            let resource = Resource::credential(app_type(level));
            if level + 1 < depth {
                for alt in 0..alternatives.saturating_sub(1) {
                    applicant.policies.add(DisclosurePolicy::rule(
                        format!("ap{level}-fail{alt}"),
                        resource.clone(),
                        vec![Term::of_type(format!("MissingA{level}x{alt}"))],
                    ));
                }
                applicant.policies.add(DisclosurePolicy::rule(
                    format!("ap{level}-real"),
                    resource.clone(),
                    vec![Term::of_type(type_name(level + 1))],
                ));
            } else {
                applicant.policies.add(DisclosurePolicy::deliv(
                    format!("ap{level}-deliv"),
                    resource,
                ));
            }
        }
        let role_name = format!("Role{i:03}");
        let capability = format!("cap{i:03}");
        contract = contract.with_role(Role::new(&role_name, &capability, "batch admission"));
        let mut policies = PolicySet::new();
        policies.add(DisclosurePolicy::rule(
            format!("vo-a{i}"),
            Resource::service("VoMembership"),
            vec![Term::of_type(app_type(0))],
        ));
        contract.set_role_policies(&role_name, policies);
        registry.publish(ResourceDescription::new(
            &applicant_name,
            &capability,
            "x",
            0.9,
        ));
        providers.insert(applicant_name, ServiceProvider::new(applicant));
    }

    ParallelJoinWorld {
        contract,
        initiator: ServiceProvider::new(initiator_party),
        providers,
        registry,
    }
}

/// E7: attribute sets of growing width for the selective-disclosure bench.
pub fn wide_attributes(n: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| (format!("attr{i}"), format!("value-{i}-{}", i * 31)))
        .collect()
}

/// The provider map + initiator used by operation-phase workloads.
pub fn operation_world(
    s: &AircraftScenario,
) -> (ServiceProvider, BTreeMap<String, ServiceProvider>) {
    let initiator = s.provider(names::AIRCRAFT).clone();
    (initiator, s.toolkit.providers.clone())
}

/// Standard similarity threshold used across the workloads.
pub const SIMILARITY_THRESHOLD: f64 = 0.2;

/// Re-export for harness binaries.
pub use trust_vo_ontology::mapping::map_concept;

#[cfg(test)]
mod tests {
    use super::*;
    use trust_vo_negotiation::{negotiate, NegotiationConfig};

    #[test]
    fn chain_workload_is_satisfiable_and_scales() {
        for depth in [1, 2, 5, 8] {
            let (requester, controller) = chain_parties(depth, 2);
            let cfg = NegotiationConfig::new(Strategy::Standard, at());
            let outcome = negotiate(&requester, &controller, "Target", &cfg)
                .unwrap_or_else(|e| panic!("depth {depth}: {e}"));
            assert_eq!(outcome.sequence.len(), depth);
        }
    }

    #[test]
    fn chain_alternatives_cause_failed_branches() {
        let (requester, controller) = chain_parties(4, 3);
        let cfg = NegotiationConfig::new(Strategy::Standard, at());
        let outcome = negotiate(&requester, &controller, "Target", &cfg).unwrap();
        assert!(outcome.transcript.failed_alternatives >= 3);
    }

    #[test]
    fn ontology_workload_maps_every_request() {
        let w = ontology_workload(40, 10);
        let mut mapped = 0;
        for request in &w.requests {
            if map_concept(&w.ontology, &w.profile, request, SIMILARITY_THRESHOLD).is_mapped() {
                mapped += 1;
            }
        }
        // All exact lookups and most paraphrased ones resolve.
        assert!(mapped >= 35, "only {mapped}/40 mapped");
    }

    #[test]
    fn parallel_join_world_admits_every_applicant() {
        let w = parallel_join_world(3, 4, 2);
        let clock = free_clock();
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
        .expect("all applicants admitted");
        assert_eq!(vo.members().len(), 3);
        for i in 0..3 {
            assert!(vo.is_member(&format!("Applicant{i:03}")));
        }
    }

    #[test]
    fn joins_produce_members() {
        let mut s = scenario(paper_clock());
        assert!(join_without_tn(&mut s).is_ok());
        let mut s = scenario(paper_clock());
        assert!(join_with_tn(&mut s, Strategy::Standard).is_ok());
        let s = scenario(paper_clock());
        assert!(standalone_tn(&s, Strategy::Standard).is_ok());
    }
}
